//! Generation-pinned prepared query snapshots — the serving read path.
//!
//! A [`PreparedSnapshot`] is plain data, published **once per store
//! generation** instead of built per request. It holds:
//!
//! - an `Arc<ShardedGraph>` clone of the graph at that generation —
//!   cloning a [`ShardedGraph`] bumps one `Arc` per shard, so the
//!   snapshot **shares** every shard graph with the live store, and a
//!   later write copies only the shards it touches;
//! - the store's [`SharedCache`] and worker-thread count, plus the
//!   cache generation recorded at publish;
//! - a write-once slot for the generation's keyword-search
//!   [`SearchBackend`], filled by the first search (or the serving
//!   layer's warmer) and shared by every later one.
//!
//! [`PreparedSnapshot::handle`] builds an ordinary context borrowing the
//! pinned graph. **Trust-generation rule:** that context reads and writes
//! the shared cache only while the cache is still at the generation
//! recorded at publish. Publication runs under the store write lock
//! *after* the write's cache invalidation, so at that generation every
//! cached density and extent is exact for the pinned graph. Once a later
//! write moves the cache on, a handle of this snapshot computes from its
//! own graph and neither trusts nor fills the shared maps — so a pinned
//! snapshot answers for its own generation forever, and never leaves a
//! stale density behind for newer readers.
//!
//! [`LiveStore`](crate::LiveStore) publishes a fresh
//! `Arc<PreparedSnapshot>` after every successful mutation
//! ([`LiveStore::enable_snapshots`](crate::LiveStore::enable_snapshots)
//! opts a store in); readers acquire the current snapshot with a single
//! read-and-clone of an `RwLock<Arc<...>>` — no store lock — and answers
//! are bit-identical to the lock path at the same generation (pinned by
//! `tests/equivalence.rs`).

use crate::context::SharedCache;
use crate::handle::GraphHandle;
use pivote_kg::ShardedGraph;
use pivote_search::SearchBackend;
use std::sync::{Arc, OnceLock};

/// An immutable, generation-stamped, ready-to-query view of a live
/// store. See the module docs for what it holds and the trust rule.
pub struct PreparedSnapshot {
    /// Store generation this snapshot was prepared at.
    generation: u64,
    /// The pinned graph.
    backend: Arc<ShardedGraph>,
    /// The store's shared memoized state.
    cache: Arc<SharedCache>,
    /// The cache generation at publish: the one generation at which the
    /// cache's entries are exact for `backend`.
    cache_generation: u64,
    /// Worker threads of every context built over this snapshot.
    threads: usize,
    /// The generation's search engines, built at most once.
    search: OnceLock<SearchBackend>,
}

impl std::fmt::Debug for PreparedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedSnapshot")
            .field("generation", &self.generation)
            .field("cache_generation", &self.cache_generation)
            .field("shards", &self.backend.shard_count())
            .field("search_attached", &self.search.get().is_some())
            .finish()
    }
}

impl PreparedSnapshot {
    /// Pin `backend` at `generation`, on `cache` at its current
    /// generation. Call it where no write can move the cache between
    /// the caller's last write and this call (the store does, under its
    /// lock).
    pub fn prepare(
        backend: Arc<ShardedGraph>,
        generation: u64,
        threads: usize,
        cache: Arc<SharedCache>,
    ) -> Arc<PreparedSnapshot> {
        Arc::new(PreparedSnapshot {
            generation,
            backend,
            cache_generation: cache.generation(),
            cache,
            threads,
            search: OnceLock::new(),
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

    /// A query context over the pinned graph, sharing the store's cache
    /// at the generation recorded at publish. Building one is an `Arc`
    /// and an empty table; densities and extents come from the cache.
    pub fn handle(&self) -> GraphHandle<'_> {
        GraphHandle::at_generation(
            &self.backend,
            self.threads,
            Arc::clone(&self.cache),
            self.cache_generation,
        )
    }

    /// The attached search backend, if one was built yet.
    pub fn attached_search(&self) -> Option<&SearchBackend> {
        self.search.get()
    }

    /// The attached search backend, built with `build` when none is
    /// attached yet. Concurrent callers coordinate on the write-once
    /// slot: exactly one runs `build`, the others **block until the
    /// backend is ready** and share it — so a generation's engines are
    /// built once no matter how many requests race the background
    /// warmer to a fresh snapshot (racing duplicate builds halve each
    /// other's speed on small hosts).
    pub fn search_or_init(&self, build: impl FnOnce() -> SearchBackend) -> &SearchBackend {
        self.search.get_or_init(build)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RankingConfig;
    use crate::feature::SemanticFeature;
    use crate::LiveStore;
    use pivote_kg::{generate, DatagenConfig, DeltaBatch};
    use pivote_search::SearchEngine;

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
            // a second handle answers from the densities the first one
            // left in the shared cache, same answers
            let again = snap.handle().rank_features(&cfg, &seeds);
            assert_eq!(again, want_f);
        }
    }

    /// A snapshot pinned before a write keeps answering for its own
    /// graph: its handle trusts the shared cache only at the generation
    /// recorded at publish, so it neither reads the post-write density
    /// a newer reader cached nor inserts its stale one.
    #[test]
    fn a_pinned_snapshot_trusts_the_cache_only_at_its_publish_generation() {
        let kg = generate(&DatagenConfig::tiny());
        let film = kg.type_extent(kg.type_id("Film").unwrap())[0];
        let starring = kg.predicate("starring").unwrap();
        let star = kg.objects(film, starring)[0];
        let pi = SemanticFeature::to_anchor(star, starring);
        let c = kg.categories_of(film).next().unwrap();
        let other = kg.category_ids().find(|&o| o != c).unwrap();
        let at_zero = ShardedGraph::from(kg.clone());
        let fresh = GraphHandle::with_threads(&at_zero, 1);
        let (want, want_other) = (fresh.p_for_category(pi, c), fresh.p_for_category(pi, other));
        assert!(want > 0.0);

        let live = LiveStore::with_threads(kg.clone(), 1);
        live.enable_snapshots();
        let s0 = live.snapshot().unwrap();
        assert_eq!(s0.handle().p_for_category(pi, c), want);

        // one new member of π's extent, one new member of c: p(π|c)
        // moves from n/d to n/(d+1)
        let mut d = DeltaBatch::new();
        d.triple("Pinned_New_Film", "starring", kg.entity_name(star))
            .categorized("Pinned_New_Member", kg.category_name(c));
        live.append(&d).expect("store healthy");
        let s1 = live.snapshot().unwrap();
        let moved = s1.handle().p_for_category(pi, c);
        assert_ne!(moved, want, "the write must move p(π|c)");

        let densities = live.cache().cached_probability_count();
        let handle = s0.handle();
        assert_eq!(handle.p_for_category(pi, c), want);
        assert_eq!(handle.p_for_category(pi, other), want_other);
        assert_eq!(
            live.cache().cached_probability_count(),
            densities,
            "a stale snapshot must not fill the shared cache"
        );
        assert_eq!(s1.handle().p_for_category(pi, c), moved);
    }

    #[test]
    fn search_slot_is_write_once() {
        let kg = generate(&DatagenConfig::tiny());
        let sg = ShardedGraph::from(kg);
        let snap =
            PreparedSnapshot::prepare(Arc::new(sg.clone()), 0, 1, Arc::new(SharedCache::new()));
        let engine = Arc::new(SearchEngine::with_defaults(sg.shard(0).graph()));
        assert!(snap.attached_search().is_none());
        let first = snap.search_or_init(|| SearchBackend::new(vec![Arc::clone(&engine)], &sg));
        assert!(Arc::ptr_eq(&first.engines[0], &engine));
        let again = snap.search_or_init(|| panic!("the slot is already filled"));
        assert!(std::ptr::eq(again, first));
        assert!(std::ptr::eq(snap.attached_search().unwrap(), first));
    }
}
