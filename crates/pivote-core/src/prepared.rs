//! Generation-pinned prepared query snapshots — the serving read path.
//!
//! A [`PreparedSnapshot`] is an immutable, generation-stamped bundle of
//! everything one query needs, built **once per store generation**
//! instead of once per request:
//!
//! - an `Arc<ShardedGraph>` clone of the graph at that generation —
//!   cloning a [`ShardedGraph`] bumps one `Arc` per shard, so the
//!   snapshot **shares** every shard graph with the live store, and a
//!   later write copies only the shards it touches;
//! - a pre-built [`GraphHandle`] (query context) over that clone,
//!   sharing the store's [`SharedCache`] so densities and global extent
//!   resolutions stay warm across generations;
//! - a slot for a pre-built keyword-search component (typed as
//!   `dyn Any` because the search engines live in `pivote-explore`,
//!   which depends on this crate — the explore layer downcasts).
//!
//! [`LiveStore`](crate::LiveStore) publishes a fresh
//! `Arc<PreparedSnapshot>` under the write lock after every successful
//! mutation ([`LiveStore::enable_snapshots`](crate::LiveStore::enable_snapshots)
//! opts a store in); readers acquire the current snapshot with a single
//! read-and-clone of an `RwLock<Arc<...>>` — no store lock, no context
//! construction, no extent re-resolution — and answers are bit-identical
//! to the lock path at the same generation (pinned by
//! `tests/equivalence.rs`).
//!
//! ## Safety architecture
//!
//! The prepared context borrows the snapshot's own graph allocation.
//! That self-reference is expressed by extending the borrow to
//! `'static` at construction and never letting the `'static` handle
//! escape: the only accessor, [`PreparedSnapshot::handle`], re-shortens
//! the lifetime to the `&self` borrow, so user code cannot outlive the
//! snapshot with it. Field order puts the context before the graph, so
//! on drop the borrower is gone before the borrowed allocation.

use crate::context::SharedCache;
use crate::handle::GraphHandle;
use pivote_kg::ShardedGraph;
use std::any::Any;
use std::sync::{Arc, OnceLock};

/// An immutable, generation-stamped, ready-to-query view of a live
/// store. See the module docs for the publication contract.
pub struct PreparedSnapshot {
    /// Store generation this snapshot was prepared at.
    generation: u64,
    /// Prepared query context over `backend`. Declared before `backend`
    /// so it drops first — it borrows the allocation `backend` owns.
    ctx: GraphHandle<'static>,
    /// Pre-built search component, attached lazily by the explore layer
    /// (`dyn Any` keeps the dependency arrow pointing the right way).
    search: OnceLock<Arc<dyn Any + Send + Sync>>,
    /// The pinned graph. Keeps the allocation `ctx` borrows alive.
    backend: Arc<ShardedGraph>,
}

impl std::fmt::Debug for PreparedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedSnapshot")
            .field("generation", &self.generation)
            .field("shards", &self.backend.shard_count())
            .field("search_attached", &self.search.get().is_some())
            .finish()
    }
}

impl PreparedSnapshot {
    /// Prepare a snapshot of `backend` at `generation`: build the query
    /// context once, up front, so every request served from this
    /// snapshot skips per-request setup entirely.
    pub fn prepare(
        backend: Arc<ShardedGraph>,
        generation: u64,
        threads: usize,
        cache: Arc<SharedCache>,
    ) -> Arc<PreparedSnapshot> {
        // SAFETY: `backend` is an `Arc`, so the `ShardedGraph` allocation
        // is stable for as long as any clone lives; this struct holds a
        // clone for its whole lifetime, the borrowing context is dropped
        // before it (field order), and the `'static` handle is never
        // exposed — `handle()` re-ties it to `&self`.
        let pinned: &'static ShardedGraph = unsafe { &*Arc::as_ptr(&backend) };
        let ctx = GraphHandle::with_cache(pinned, threads, cache);
        Arc::new(PreparedSnapshot {
            generation,
            ctx,
            search: OnceLock::new(),
            backend,
        })
    }

    /// The store generation this snapshot is pinned to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The pinned graph.
    pub fn backend(&self) -> &ShardedGraph {
        &self.backend
    }

    /// The prepared query context, ready for immediate use — no
    /// per-request `Arc::new`, no lazy extent re-resolution beyond the
    /// first query at this generation.
    pub fn handle(&self) -> GraphHandle<'_> {
        // SAFETY: lifetime-only transmute, shortening `'static` to the
        // `&self` borrow (the context types are invariant over their
        // graph lifetime, so this cannot be a plain coercion). The
        // borrowed graph outlives the result because `self` does.
        unsafe { std::mem::transmute::<GraphHandle<'static>, GraphHandle<'_>>(self.ctx.clone()) }
    }

    /// Attach a pre-built search component (first writer wins; the slot
    /// is write-once per snapshot). Returns whether this call attached.
    pub fn attach_search(&self, search: Arc<dyn Any + Send + Sync>) -> bool {
        self.search.set(search).is_ok()
    }

    /// The attached search component, if any layer prepared one.
    pub fn attached_search(&self) -> Option<Arc<dyn Any + Send + Sync>> {
        self.search.get().cloned()
    }

    /// The attached search component, initializing the slot with
    /// `build` when no layer attached one yet. Concurrent callers
    /// coordinate on the write-once slot: exactly one runs `build`, the
    /// others **block until the component is ready** and share it — so
    /// a generation's engines are built once no matter how many
    /// requests race the background warmer to a fresh snapshot (racing
    /// duplicate builds halve each other's speed on small hosts).
    pub fn search_or_init(
        &self,
        build: impl FnOnce() -> Arc<dyn Any + Send + Sync>,
    ) -> Arc<dyn Any + Send + Sync> {
        self.search.get_or_init(build).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RankingConfig;
    use pivote_kg::{generate, DatagenConfig};

    #[test]
    fn prepared_answers_match_fresh_context_bitwise() {
        let kg = generate(&DatagenConfig::tiny());
        let film = kg.type_id("Film").unwrap();
        let seeds = kg.type_extent(film)[..2].to_vec();
        let cfg = RankingConfig::default();
        let one = ShardedGraph::from(kg.clone());
        let fresh = GraphHandle::with_threads(&one, 1);
        let want_f = fresh.rank_features(&cfg, &seeds);
        let want_e = fresh.rank_entities(&cfg, &seeds, &want_f);

        for backend in [one.clone(), ShardedGraph::from_graph(&kg, 3)] {
            let snap =
                PreparedSnapshot::prepare(Arc::new(backend), 7, 1, Arc::new(SharedCache::new()));
            assert_eq!(snap.generation(), 7);
            let handle = snap.handle();
            let got_f = handle.rank_features(&cfg, &seeds);
            let got_e = handle.rank_entities(&cfg, &seeds, &got_f);
            assert_eq!(got_f, want_f);
            assert_eq!(got_e.len(), want_e.len());
            for (a, b) in got_e.iter().zip(&want_e) {
                assert_eq!(a.entity, b.entity);
                assert!((a.score - b.score).abs() == 0.0);
            }
            // the handle is reusable: a second query hits the prepared
            // context's memoized state, same answers
            let again = snap.handle().rank_features(&cfg, &seeds);
            assert_eq!(again, want_f);
        }
    }

    #[test]
    fn search_slot_is_write_once() {
        let kg = generate(&DatagenConfig::tiny());
        let snap = PreparedSnapshot::prepare(
            Arc::new(ShardedGraph::from(kg)),
            0,
            1,
            Arc::new(SharedCache::new()),
        );
        assert!(snap.attached_search().is_none());
        assert!(snap.attach_search(Arc::new(41u64)));
        assert!(!snap.attach_search(Arc::new(42u64)));
        let got = snap
            .attached_search()
            .unwrap()
            .downcast::<u64>()
            .expect("attached type");
        assert_eq!(*got, 41);
    }
}
