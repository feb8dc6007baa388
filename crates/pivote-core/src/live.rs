//! The live store: the append-while-querying wrapper.
//!
//! [`LiveStore`] owns a [`ShardedGraph`] — one shard for a parsed graph
//! wrapped by move, or a range partition — behind an `RwLock` plus one
//! [`SharedCache`], and coordinates the three halves of the live-store
//! contract:
//!
//! - **Queries** take a read guard ([`LiveStore::read`]) and build a
//!   cheap [`GraphHandle`] over the locked store sharing the persistent
//!   cache — so every density memoized by any earlier query (on any
//!   generation whose extents were not touched since) is a hit.
//! - **Appends** ([`LiveStore::append`]) take the write lock, splice the
//!   [`DeltaBatch`] in place, and invalidate exactly the cached densities
//!   the [`AppliedDelta`] receipt names — all before any new reader can
//!   observe the new graph, so a reader's context and the cache are
//!   always mutually consistent.
//! - **Maintenance** re-partitions a degenerate store. The
//!   interactive-path variant is [`LiveStore::compact_concurrent`]: the
//!   expensive union rebuild runs **off the write lock** against a clone
//!   taken under a read guard, and the write lock is held only for a
//!   generation check and a pointer swap — a query issued mid-compaction
//!   never waits on the rebuild. A [`MaintenanceHandle`] drives
//!   [`LiveStore::maybe_compact`] from a background thread on a policy
//!   tick, so nothing on the query or append path ever schedules
//!   compaction either.
//!
//! The guard-scoped handle is what makes this safe in Rust without
//! copying the graph per query: extent slices borrowed by a context can
//! never outlive the read guard, so no query ever observes a
//! half-spliced row or a half-swapped partition.

use crate::context::SharedCache;
use crate::handle::GraphHandle;
use crate::prepared::PreparedSnapshot;
use pivote_kg::wal::{WalEvent, WalHeader, WalWriter};
use pivote_kg::{AppliedDelta, CompactionPolicy, CompactionReceipt, DeltaBatch, ShardedGraph};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::time::Duration;

/// Why a live-store write was refused.
///
/// The store's poisoning policy (exercised by
/// `tests/failure_injection.rs`): when a writer thread panics while
/// holding the write lock, **writes fail closed** — every subsequent
/// [`LiveStore::append`] and compaction returns
/// [`StoreError::Poisoned`] instead of splicing into state the store can
/// no longer vouch for — while **reads recover** and keep serving the
/// snapshot behind the lock. The read side is safe to serve because the
/// graph's delta splice completes before the append path runs anything
/// else (cache invalidation, hooks), so a panic on those trailing steps
/// leaves a fully consistent store; refusing reads would turn one
/// poisoned writer into a full outage for no integrity gain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A writer panicked while holding the store's write lock; the store
    /// is read-only until the process restarts (e.g. from a warm-state
    /// snapshot).
    Poisoned,
    /// The store's durable delta log refused the record (disk full,
    /// permissions, …). The write is **not** applied — the log is
    /// written ahead of the splice, so the log never lags the store and
    /// a follower can always reach every state the leader served.
    Wal(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Poisoned => {
                write!(
                    f,
                    "live store poisoned: a writer panicked; store is read-only"
                )
            }
            StoreError::Wal(m) => {
                write!(f, "delta log append failed, write refused: {m}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// An in-memory knowledge-graph store that can grow (and be
/// re-partitioned) while sessions query it.
pub struct LiveStore {
    store: RwLock<ShardedGraph>,
    cache: Arc<SharedCache>,
    threads: usize,
    /// The optional durable delta log. Lock order: store write lock
    /// first, then this mutex — every writer appends the record *before*
    /// splicing, under the store lock, so log order equals apply order.
    wal: Mutex<Option<WalWriter>>,
    /// The serving read path ([`LiveStore::enable_snapshots`]): the
    /// current [`PreparedSnapshot`], republished by every writer under
    /// the store write lock *after* apply + invalidation, acquired by
    /// readers with one read-and-clone — never the store lock.
    published: RwLock<Option<Arc<PreparedSnapshot>>>,
    /// Whether publication is on. Off by default: publication clones the
    /// store's shard list once per write, which bulk ingest shouldn't pay
    /// for.
    publish: AtomicBool,
}

impl LiveStore {
    /// Wrap a store with one worker per available core for its contexts.
    /// Accepts a [`ShardedGraph`] or a
    /// [`KnowledgeGraph`](pivote_kg::KnowledgeGraph), which becomes one
    /// shard by move.
    pub fn new(store: impl Into<ShardedGraph>) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(store, threads)
    }

    /// Wrap a store with an explicit per-context worker-thread count.
    pub fn with_threads(store: impl Into<ShardedGraph>, threads: usize) -> Self {
        Self::with_cache(store, threads, Arc::new(SharedCache::new()))
    }

    /// Wrap a store around an **existing** shared cache — the warm-restart
    /// path: pair a freshly opened snapshot with the cache rebuilt from
    /// its warm-state sidecar ([`crate::load_warm_state`]), so the first
    /// queries after a restart hit memoized densities instead of
    /// recomputing every `p(π|c)` from the extents.
    pub fn with_cache(
        store: impl Into<ShardedGraph>,
        threads: usize,
        cache: Arc<SharedCache>,
    ) -> Self {
        Self {
            store: RwLock::new(store.into()),
            cache,
            threads: threads.max(1),
            wal: Mutex::new(None),
            published: RwLock::new(None),
            publish: AtomicBool::new(false),
        }
    }

    // ---- prepared-snapshot publication ---------------------------------

    /// Opt this store into generation-pinned snapshot publication and
    /// publish the current state immediately. From here on every
    /// successful write republishes under the write lock it already
    /// holds, *after* the splice and the cache invalidation — so
    /// [`LiveStore::snapshot`] always reflects every completed write
    /// (strict read-your-writes), and the prepared context is born at
    /// the post-invalidation cache generation, keeping its shared-cache
    /// reads trusted until the next write.
    ///
    /// The cost is one shard-list clone per write (shard graphs are
    /// shared, not copied); leave it off for bulk ingest and turn it on
    /// when the store starts serving.
    pub fn enable_snapshots(&self) {
        self.publish.store(true, Ordering::SeqCst);
        // a read guard excludes writers, so the state published here is
        // current; a writer admitted later republishes on its own
        let store = self.read_store();
        self.republish(&store);
    }

    /// Whether snapshot publication is on.
    pub fn snapshots_enabled(&self) -> bool {
        self.publish.load(Ordering::SeqCst)
    }

    /// The current prepared snapshot — the serving read path. One
    /// read-and-clone of the publication slot; never touches the store
    /// lock, so a request served from here cannot wait behind an append
    /// doing WAL IO under the write lock. `None` until
    /// [`LiveStore::enable_snapshots`].
    pub fn snapshot(&self) -> Option<Arc<PreparedSnapshot>> {
        self.published
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Publish a fresh snapshot of `store`. Called by every writer while
    /// it still holds the store write lock (and by `enable_snapshots`
    /// under a read guard), so publications are totally ordered with
    /// mutations and the slot never lags a completed write.
    fn republish(&self, store: &ShardedGraph) {
        if !self.publish.load(Ordering::SeqCst) {
            return;
        }
        let snap = PreparedSnapshot::prepare(
            Arc::new(store.clone()),
            store.generation(),
            self.threads,
            Arc::clone(&self.cache),
        );
        *self.published.write().unwrap_or_else(|p| p.into_inner()) = Some(snap);
    }

    /// The WAL mutex, recovering from a poisoned lock: the log file is
    /// only ever touched by whole-record `write_all` calls, so a panic
    /// between them cannot leave a writer mid-frame.
    fn wal_guard(&self) -> MutexGuard<'_, Option<WalWriter>> {
        self.wal.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Start logging every write to a fresh durable delta log at `path`
    /// (truncating any existing file), based at the store's **current**
    /// state: the log header records the current [`snapshot
    /// fingerprint`](pivote_kg::snapshot::fingerprint) and generation,
    /// and a follower must start from a snapshot with that exact
    /// fingerprint. Holds the write lock while fingerprinting so no
    /// append can slip between the fingerprint and the first record.
    ///
    /// Returns the header the log was created with. Pair it with a
    /// snapshot of the same state ([`ShardedGraph::to_graph`] through
    /// [`pivote_kg::save_to_path`]) to give followers (and crash
    /// recovery) their starting point.
    pub fn log_to(&self, path: impl AsRef<std::path::Path>) -> Result<WalHeader, StoreError> {
        let store = self.store.write().map_err(|_| StoreError::Poisoned)?;
        let writer = WalWriter::create(path, store.generation(), store.fingerprint())
            .map_err(|e| StoreError::Wal(e.to_string()))?;
        let header = writer.header();
        *self.wal_guard() = Some(writer);
        Ok(header)
    }

    /// Attach an already-positioned [`WalWriter`] — the leader-restart
    /// path: recover the store by replaying the log (see
    /// `pivote_core::replica`), then [`WalWriter::resume`] the file and
    /// hand it here so new writes continue the same log. The write lock
    /// is held so no append can slip in unlogged.
    pub fn attach_wal(&self, writer: WalWriter) -> Result<(), StoreError> {
        let _store = self.store.write().map_err(|_| StoreError::Poisoned)?;
        *self.wal_guard() = Some(writer);
        Ok(())
    }

    /// Whether writes are currently being logged.
    pub fn wal_enabled(&self) -> bool {
        self.wal_guard().is_some()
    }

    /// Generation stamp of the last record written to the delta log
    /// (`None` when logging is off). Equals the store generation on a
    /// leader that has logged from birth; stays monotonic across leader
    /// restarts even though the in-memory generation resets.
    pub fn wal_generation(&self) -> Option<u64> {
        self.wal_guard().as_ref().map(|w| w.last_generation())
    }

    /// Append `event` to the log if one is attached. Called under the
    /// store write lock, *before* the mutation is applied — so an IO
    /// failure refuses the write and the log never lags the store.
    fn log_event(&self, event: impl FnOnce() -> WalEvent) -> Result<(), StoreError> {
        let mut wal = self.wal_guard();
        if let Some(writer) = wal.as_mut() {
            writer
                .append_event(event())
                .map_err(|e| StoreError::Wal(e.to_string()))?;
        }
        Ok(())
    }

    /// The persistent cross-generation cache (observability: generation
    /// counter, cached density count, probe methods).
    pub fn cache(&self) -> &Arc<SharedCache> {
        &self.cache
    }

    /// Read-side lock acquisition under the poisoning policy: reads
    /// recover ([`StoreError`] explains why that is sound) and keep the
    /// store queryable after a writer panic.
    fn read_store(&self) -> RwLockReadGuard<'_, ShardedGraph> {
        self.store.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Whether a writer panic has poisoned the store (reads still work;
    /// writes return [`StoreError::Poisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.store.is_poisoned()
    }

    /// The store's current mutation generation.
    pub fn generation(&self) -> u64 {
        self.read_store().generation()
    }

    /// The current shard count.
    pub fn shard_count(&self) -> usize {
        self.read_store().shard_count()
    }

    /// Trailing shards appended by deltas since the last deliberate
    /// partition.
    pub fn trailing_shard_count(&self) -> usize {
        self.read_store().trailing_shard_count()
    }

    /// Append a batch: write-locks the store, splices the delta in place
    /// and drops exactly the touched cache entries before readers can see
    /// the new extents. Fails closed with [`StoreError::Poisoned`] after
    /// a writer panic — the store is read-only from then on.
    pub fn append(&self, delta: &DeltaBatch) -> Result<AppliedDelta, StoreError> {
        self.append_hooked(delta, |_| {})
    }

    /// [`LiveStore::append`] with a test seam: `hook` runs under the
    /// write lock *after* the splice and the cache invalidation, at a
    /// point where the store is complete and consistent. The
    /// failure-injection suite panics inside it to poison the lock
    /// deterministically; production code wants [`LiveStore::append`].
    pub fn append_hooked(
        &self,
        delta: &DeltaBatch,
        hook: impl FnOnce(&AppliedDelta),
    ) -> Result<AppliedDelta, StoreError> {
        let mut store = self.store.write().map_err(|_| StoreError::Poisoned)?;
        // write-ahead: the record lands in the log before the splice, so
        // a crash between the two leaves a logged-but-unapplied batch —
        // recovery replays it, and the log never misses a served state
        self.log_event(|| WalEvent::Delta(delta.clone()))?;
        let applied = store.apply(delta);
        self.cache.invalidate(&applied);
        hook(&applied);
        self.republish(&store);
        Ok(applied)
    }

    /// Take a read guard for one query (or a batch of queries). Appends
    /// and compaction swaps block until every outstanding reader is done;
    /// the concurrent compaction *rebuild* does not take the write lock,
    /// so it never blocks on readers nor readers on it. Reads survive a
    /// writer panic (see [`StoreError`]).
    pub fn read(&self) -> LiveReader<'_> {
        // cheap when publication is off (one atomic load); when on, carry
        // the current snapshot so handle() can reuse its prepared context
        // instead of building one per call
        let prepared = if self.publish.load(Ordering::SeqCst) {
            self.snapshot()
        } else {
            None
        };
        LiveReader {
            guard: self.read_store(),
            cache: Arc::clone(&self.cache),
            threads: self.threads,
            prepared,
        }
    }

    /// Unwrap the owned graph (consumes the wrapper).
    pub fn into_inner(self) -> ShardedGraph {
        self.store.into_inner().unwrap_or_else(|p| p.into_inner())
    }

    // ---- compaction ----------------------------------------------------

    /// Stop-the-world re-partition: the union rebuild runs **under the
    /// write lock**, so every query issued during the pass blocks for
    /// its full duration (roughly `ShardedGraph::from_graph` cost).
    /// Interactive deployments should use
    /// [`LiveStore::compact_concurrent`], which holds the write lock only
    /// for a generation check and a pointer swap. This synchronous pass
    /// exists for the follower's log replay
    /// ([`ReplicaStore`](crate::ReplicaStore)), which must apply a logged
    /// `Compact` record in order before the next record; both paths run
    /// the same locked pass.
    ///
    /// On a one-shard store without trailing shards or tombstones
    /// compaction is the identity: no generation bump, a 1→1 receipt.
    /// Any other store is rebuilt into `target_shards` fresh shards (same
    /// answers, dead rows returned, generation bumped).
    ///
    /// Like every write, compaction fails closed with
    /// [`StoreError::Poisoned`] after a writer panic.
    pub fn compact_in_place(&self, target_shards: usize) -> Result<CompactionReceipt, StoreError> {
        let mut store = self.store.write().map_err(|_| StoreError::Poisoned)?;
        if let Some(receipt) = noop_compaction(&store) {
            return Ok(receipt);
        }
        self.compact_locked(&mut store, target_shards, None, 1)
    }

    /// Off-lock re-partition: clone the store under a read guard (cheap
    /// relative to the rebuild), run the union rebuild + fresh partition
    /// entirely **off the write lock**, then take the write lock only to
    /// validate that the generation is still the one the clone was taken
    /// at and swap the pointer. A racing append moves the generation and
    /// the losing rebuild is discarded and retried against the new state
    /// — appends always win, compaction pays the retry. Progress is
    /// still guaranteed under a sustained append stream: after
    /// [`MAX_OFFLOCK_ATTEMPTS`] lost races the pass finishes under the
    /// write lock (one stop-the-world rebuild), so maintenance can
    /// never livelock behind writers.
    ///
    /// Readers admitted before the swap finish against the old partition;
    /// readers admitted after see the fresh partition and a new
    /// generation stamp on both the store and the shared cache. The cache
    /// migrates wholesale ([`SharedCache::note_compaction`]): every
    /// `p(π|c)` density is an exact global quantity independent of the
    /// partitioning, so nothing is dropped and answers before and after
    /// the swap are bit-identical (`tests/compaction_equivalence.rs`,
    /// `tests/failure_injection.rs`).
    pub fn compact_concurrent(
        &self,
        target_shards: usize,
    ) -> Result<CompactionReceipt, StoreError> {
        self.compact_concurrent_hooked(target_shards, |_| {})
    }

    /// [`LiveStore::compact_concurrent`] with a test/bench hook: after
    /// each attempt's off-lock rebuild completes — mid-compaction, with
    /// **no lock held** — `mid_rebuild` is called with the generation the
    /// attempt is based on, *before* the swap is attempted. The
    /// failure-injection suite uses this to race appends and queries
    /// against the swap deterministically; production code wants
    /// [`LiveStore::compact_concurrent`].
    pub fn compact_concurrent_hooked(
        &self,
        target_shards: usize,
        mut mid_rebuild: impl FnMut(u64),
    ) -> Result<CompactionReceipt, StoreError> {
        let mut attempts = 0u64;
        loop {
            attempts += 1;
            // phase 1: consistent snapshot under a read guard
            let (clone, base_generation) = {
                let guard = self.read_store();
                if let Some(receipt) = noop_compaction(&guard) {
                    return Ok(receipt);
                }
                (guard.clone(), guard.generation())
            };

            // phase 2: the expensive rebuild, off every lock — appends
            // and queries proceed freely while this runs
            let fresh = clone.compact(target_shards);
            mid_rebuild(base_generation);

            // phase 3: validate + swap under the write lock (a write, so
            // a poisoned lock fails the pass closed)
            let mut store = self.store.write().map_err(|_| StoreError::Poisoned)?;
            if store.generation() == base_generation {
                return self.compact_locked(&mut store, target_shards, Some(fresh), attempts);
            }
            if attempts < MAX_OFFLOCK_ATTEMPTS {
                continue; // a racing append won; rebuild against the new state
            }
            // appends keep winning: guarantee progress by finishing this
            // pass under the write lock we already hold (one bounded
            // stop-the-world rebuild instead of a livelock)
            return self.compact_locked(&mut store, target_shards, None, attempts + 1);
        }
    }

    /// The locked half of every compaction, under the write lock: log
    /// the pass, install `rebuilt` (the off-lock rebuild of exactly this
    /// state) or rebuild here when there is none, migrate the cache,
    /// republish, and describe the pass.
    fn compact_locked(
        &self,
        store: &mut ShardedGraph,
        target_shards: usize,
        rebuilt: Option<ShardedGraph>,
        attempts: u64,
    ) -> Result<CompactionReceipt, StoreError> {
        let shards_before = store.shard_count();
        let trailing_before = store.trailing_shard_count();
        self.log_event(|| WalEvent::Compact { target_shards })?;
        let compacted = rebuilt.unwrap_or_else(|| store.compact(target_shards));
        *store = compacted;
        self.cache.note_compaction();
        self.republish(store);
        Ok(CompactionReceipt {
            generation: store.generation(),
            shards_before,
            shards_after: store.shard_count(),
            trailing_before,
            entities: store.entity_count(),
            attempts,
        })
    }

    /// Compact concurrently to `target_shards` iff `policy` judges the
    /// store degenerate; returns the receipt when a pass ran. The policy
    /// check runs under a read lock against the same snapshot the rebuild
    /// clones, and the swap re-validates the generation — so a decision
    /// is never *applied* to a partition another writer replaced, even
    /// though the rebuild itself runs off-lock.
    pub fn maybe_compact(
        &self,
        policy: &CompactionPolicy,
        target_shards: usize,
    ) -> Option<CompactionReceipt> {
        {
            // a poisoned store is read-only: never schedule a compaction
            // for it (the maintenance thread keeps ticking harmlessly)
            let guard = match self.store.read() {
                Ok(guard) => guard,
                Err(_) => return None,
            };
            if !policy.needs_compaction(&guard) {
                return None;
            }
        }
        self.compact_concurrent(target_shards).ok()
    }
}

/// How many off-lock rebuilds [`LiveStore::compact_concurrent`] discards
/// to racing appends before it finishes the pass under the write lock —
/// the bound that keeps a sustained append stream from livelocking
/// maintenance with ever-larger wasted rebuilds.
pub const MAX_OFFLOCK_ATTEMPTS: u64 = 4;

/// Compaction is the identity on one shard without trailing shards or
/// tombstones, whatever the target — a parsed graph wrapped by move
/// stays as it is: no generation bump, a 1→1 receipt. `None` when a
/// pass has work to do.
fn noop_compaction(store: &ShardedGraph) -> Option<CompactionReceipt> {
    let idle = store.shard_count() == 1
        && store.trailing_shard_count() == 0
        && store.tombstone_count() == 0;
    idle.then(|| CompactionReceipt {
        generation: store.generation(),
        shards_before: 1,
        shards_after: 1,
        trailing_before: 0,
        entities: store.entity_count(),
        attempts: 1,
    })
}

/// A read guard over a [`LiveStore`]: the entry point for querying one
/// consistent store snapshot.
pub struct LiveReader<'a> {
    guard: RwLockReadGuard<'a, ShardedGraph>,
    cache: Arc<SharedCache>,
    threads: usize,
    /// The published snapshot at acquisition time, when the store has
    /// snapshots on — [`LiveReader::handle`] reuses its prepared context
    /// when the generations agree instead of building one per call.
    prepared: Option<Arc<PreparedSnapshot>>,
}

impl LiveReader<'_> {
    /// The locked store snapshot.
    pub fn backend(&self) -> &ShardedGraph {
        &self.guard
    }

    /// The snapshot's generation.
    pub fn generation(&self) -> u64 {
        self.guard.generation()
    }

    /// A [`GraphHandle`] over this snapshot sharing the live store's
    /// persistent cache. Cheap to build (the heavy state lives in the
    /// cache); scoped to the guard, so it can never observe an append or
    /// a compaction swap. When the store publishes prepared snapshots
    /// and the published generation matches the locked one —
    /// publication happens under the write lock, so it always does in
    /// practice — the snapshot's prepared context is reused outright and
    /// this is a clone, not a construction.
    pub fn handle(&self) -> GraphHandle<'_> {
        if let Some(snap) = &self.prepared {
            if snap.generation() == self.guard.generation() {
                return snap.handle();
            }
        }
        GraphHandle::with_cache(&self.guard, self.threads, Arc::clone(&self.cache))
    }
}

/// A background maintenance thread driving [`LiveStore::maybe_compact`]
/// on a policy tick, so compaction is scheduled off the query *and*
/// append paths entirely: the tick checks the policy under a read lock,
/// rebuilds off-lock when it fires, and swaps under a momentary write
/// lock.
///
/// Stop it explicitly with [`MaintenanceHandle::stop`] (also invoked on
/// drop), which wakes the thread and joins it.
pub struct MaintenanceHandle {
    stop: Arc<AtomicBool>,
    passes: Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MaintenanceHandle {
    /// Spawn the maintenance thread: every `tick`, compact `store` to
    /// `target_shards` iff `policy` says the tail degenerated.
    pub fn spawn(
        store: Arc<LiveStore>,
        policy: CompactionPolicy,
        target_shards: usize,
        tick: Duration,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let passes = Arc::new(AtomicU64::new(0));
        let thread = {
            let stop = Arc::clone(&stop);
            let passes = Arc::clone(&passes);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    if store.maybe_compact(&policy, target_shards).is_some() {
                        passes.fetch_add(1, Ordering::SeqCst);
                    }
                    std::thread::park_timeout(tick);
                }
            })
        };
        Self {
            stop,
            passes,
            thread: Some(thread),
        }
    }

    /// How many compaction passes the thread has completed.
    pub fn passes(&self) -> u64 {
        self.passes.load(Ordering::SeqCst)
    }

    /// Signal the thread to stop and join it (idempotent).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

impl Drop for MaintenanceHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RankingConfig;
    use pivote_kg::{generate, DatagenConfig, EntityId, KnowledgeGraph};

    fn seeds(kg: &KnowledgeGraph, n: usize) -> Vec<EntityId> {
        let film = kg.type_id("Film").unwrap();
        kg.type_extent(film)[..n].to_vec()
    }

    fn names(kg: &KnowledgeGraph, n: u32) -> Vec<String> {
        (0..n)
            .map(|i| kg.entity_name(EntityId::new(i)).to_owned())
            .collect()
    }

    #[test]
    fn append_then_query_equals_rebuild_then_query() {
        let kg = generate(&DatagenConfig::tiny());
        let (s, names) = (seeds(&kg, 2), names(&kg, 4));
        let live = LiveStore::with_threads(kg, 1);
        let mut delta = DeltaBatch::new();
        delta.triple(&names[0], "brand_new_link", &names[1]).triple(
            &names[2],
            "brand_new_link",
            &names[3],
        );
        let receipt = live.append(&delta).expect("store healthy");
        assert_eq!(receipt.generation, 1);
        assert_eq!(live.generation(), 1);
        assert_eq!(live.cache().generation(), 1);

        // union rebuild: regenerate the base and replay the delta
        let union = {
            let mut kg = generate(&DatagenConfig::tiny());
            kg.apply(&delta);
            ShardedGraph::from(kg)
        };
        let cfg = RankingConfig::default();
        let reader = live.read();
        let live_ctx = reader.handle();
        let fresh_ctx = GraphHandle::with_threads(&union, 1);
        let lf = live_ctx.rank_features(&cfg, &s);
        let ff = fresh_ctx.rank_features(&cfg, &s);
        assert_eq!(lf, ff, "feature rankings must match the rebuilt union");
        let le = live_ctx.rank_entities(&cfg, &s, &lf);
        let fe = fresh_ctx.rank_entities(&cfg, &s, &ff);
        assert_eq!(le.len(), fe.len());
        for (a, b) in le.iter().zip(&fe) {
            assert_eq!(a.entity, b.entity);
            assert!((a.score - b.score).abs() == 0.0, "score drifted");
        }
    }

    #[test]
    fn sharded_live_store_appends_and_answers() {
        let kg = generate(&DatagenConfig::tiny());
        let s = seeds(&kg, 2);
        let cfg = RankingConfig::default();
        let one = ShardedGraph::from(kg.clone());
        let base_features = GraphHandle::with_threads(&one, 1).rank_features(&cfg, &s);

        let live = LiveStore::with_threads(ShardedGraph::from_graph(&kg, 3), 1);
        {
            let reader = live.read();
            let ctx = reader.handle();
            assert_eq!(ctx.rank_features(&cfg, &s), base_features);
        }
        let mut delta = DeltaBatch::new();
        delta.triple(
            kg.entity_name(s[0]).to_owned(),
            "fresh_live_pred",
            "Fresh_Live_Entity",
        );
        live.append(&delta).expect("store healthy");
        assert_eq!(live.generation(), 1);

        let mut union = generate(&DatagenConfig::tiny());
        union.apply(&delta);
        let union = ShardedGraph::from(union);
        let want = GraphHandle::with_threads(&union, 1).rank_features(&cfg, &s);
        let reader = live.read();
        let got = reader.handle().rank_features(&cfg, &s);
        assert_eq!(got, want, "sharded live append must match rebuilt union");
    }

    /// Shared body for the in-place and concurrent compaction paths —
    /// both must swap the partition, keep every density, and answer
    /// bit-identically before and after.
    fn compaction_keeps_cache_and_answers(
        compact: impl Fn(&LiveStore, usize) -> CompactionReceipt,
    ) {
        let kg = generate(&DatagenConfig::tiny());
        let s = seeds(&kg, 2);
        let cfg = RankingConfig::default();
        let live = LiveStore::with_threads(ShardedGraph::from_graph(&kg, 2), 1);
        // grow three trailing shards
        for i in 0..3 {
            let mut d = DeltaBatch::new();
            d.triple(
                format!("Live_Grown_{i}"),
                "fresh_live_pred",
                kg.entity_name(s[0]).to_owned(),
            );
            live.append(&d).expect("store healthy");
        }
        assert_eq!(live.shard_count(), 5);
        // warm the cache and take the pre-compaction answer
        let (before_f, before_e) = {
            let reader = live.read();
            let ctx = reader.handle();
            let f = ctx.rank_features(&cfg, &s);
            let e = ctx.rank_entities(&cfg, &s, &f);
            (f, e)
        };
        let warm = live.cache().cached_probability_count();
        assert!(warm > 0, "queries must have filled the cache");
        let gen_before = live.cache().generation();

        let receipt = compact(&live, 2);
        assert_eq!(receipt.shards_before, 5);
        assert_eq!(receipt.shards_after, 2);
        assert_eq!(receipt.trailing_before, 3);
        assert_eq!(receipt.attempts, 1, "no contention, no retries");
        assert_eq!(live.shard_count(), 2);
        assert_eq!(live.generation(), 4, "3 appends + 1 compaction");
        assert_eq!(receipt.generation, 4);
        // the cache migrated: new generation stamp, zero densities lost
        assert_eq!(live.cache().generation(), gen_before + 1);
        assert_eq!(
            live.cache().cached_probability_count(),
            warm,
            "compaction must not drop any surviving density"
        );

        // post-compaction answers are bit-identical to pre-compaction
        let reader = live.read();
        let ctx = reader.handle();
        let after_f = ctx.rank_features(&cfg, &s);
        assert_eq!(after_f, before_f);
        let after_e = ctx.rank_entities(&cfg, &s, &after_f);
        assert_eq!(after_e.len(), before_e.len());
        for (a, b) in after_e.iter().zip(&before_e) {
            assert_eq!(a.entity, b.entity);
            assert!((a.score - b.score).abs() == 0.0, "score drifted");
        }
        // and no recompute happened for the re-ranking above
        assert_eq!(live.cache().cached_probability_count(), warm);
    }

    #[test]
    fn compact_in_place_swaps_the_partition_and_keeps_the_cache_warm() {
        compaction_keeps_cache_and_answers(|live, target| live.compact_in_place(target).unwrap());
    }

    #[test]
    fn compact_concurrent_swaps_the_partition_and_keeps_the_cache_warm() {
        compaction_keeps_cache_and_answers(|live, target| live.compact_concurrent(target).unwrap());
    }

    #[test]
    fn compact_concurrent_retries_when_an_append_races_the_swap() {
        let kg = generate(&DatagenConfig::tiny());
        let live = LiveStore::with_threads(ShardedGraph::from_graph(&kg, 2), 1);
        let mut d = DeltaBatch::new();
        d.entity("Race_Seed_Entity");
        live.append(&d).expect("store healthy");
        assert_eq!(live.shard_count(), 3);

        // inject an append between the rebuild and the swap: the first
        // attempt must lose, the second must land on the grown state
        let mut injected = false;
        let receipt = live.compact_concurrent_hooked(2, |base_generation| {
            if !injected {
                injected = true;
                assert_eq!(base_generation, 1);
                let mut d = DeltaBatch::new();
                d.entity("Racing_Append_Entity");
                live.append(&d).expect("store healthy");
            }
        });
        let receipt = receipt.unwrap();
        assert_eq!(receipt.attempts, 2, "the losing rebuild must retry");
        assert_eq!(receipt.shards_after, 2);
        assert_eq!(live.shard_count(), 2);
        // both entities survived the swap: appends always win
        let reader = live.read();
        assert!(reader.backend().entity("Race_Seed_Entity").is_some());
        assert!(reader.backend().entity("Racing_Append_Entity").is_some());
        assert_eq!(reader.generation(), 3, "2 appends + 1 (winning) compaction");
    }

    #[test]
    fn compact_concurrent_falls_back_to_the_write_lock_under_sustained_appends() {
        let kg = generate(&DatagenConfig::tiny());
        let live = LiveStore::with_threads(ShardedGraph::from_graph(&kg, 2), 1);
        // an adversarial writer that wins EVERY race: the pass must not
        // livelock — after MAX_OFFLOCK_ATTEMPTS lost rebuilds it
        // finishes under the write lock
        let mut appended = 0u32;
        let receipt = live.compact_concurrent_hooked(2, |_| {
            let mut d = DeltaBatch::new();
            d.entity(format!("Sustained_Append_{appended}"));
            live.append(&d).expect("store healthy");
            appended += 1;
        });
        let receipt = receipt.unwrap();
        assert_eq!(
            receipt.attempts,
            MAX_OFFLOCK_ATTEMPTS + 1,
            "bounded fallback, not a livelock"
        );
        assert_eq!(appended as u64, MAX_OFFLOCK_ATTEMPTS);
        assert_eq!(receipt.shards_after, 2);
        assert_eq!(live.shard_count(), 2);
        assert_eq!(live.trailing_shard_count(), 0, "the tail was absorbed");
        // every racing append survived the winning pass
        let reader = live.read();
        for i in 0..appended {
            assert!(reader
                .backend()
                .entity(&format!("Sustained_Append_{i}"))
                .is_some());
        }
    }

    #[test]
    fn compaction_is_the_identity_on_the_single_layout() {
        let live = LiveStore::with_threads(generate(&DatagenConfig::tiny()), 1);
        let cache_gen = live.cache().generation();
        for receipt in [
            live.compact_in_place(4).unwrap(),
            live.compact_concurrent(4).unwrap(),
        ] {
            assert_eq!(receipt.shards_before, 1);
            assert_eq!(receipt.shards_after, 1);
            assert_eq!(receipt.generation, 0, "no generation bump on one shard");
        }
        assert_eq!(live.generation(), 0);
        assert_eq!(live.cache().generation(), cache_gen, "cache untouched");
        let policy = CompactionPolicy {
            max_trailing: 0,
            max_tail_fraction: 0.0,
            max_tombstone_fraction: 0.0,
        };
        assert!(live.maybe_compact(&policy, 2).is_none());
    }

    /// The no-op applies to exactly one shard with no trailing shards
    /// and no tombstones — a one-shard store stays so through writes
    /// that mint entities; a held tombstone or a second shard each give
    /// the pass work to do.
    #[test]
    fn noop_compaction_needs_one_shard_without_trailing_or_tombstones() {
        let kg = generate(&DatagenConfig::tiny());
        let names = names(&kg, 2);
        let mut one = ShardedGraph::from(kg.clone());
        let receipt = noop_compaction(&one).expect("a wrapped graph is idle");
        assert_eq!(
            (receipt.generation, receipt.shards_after, receipt.entities),
            (0, 1, kg.entity_count())
        );
        assert!(noop_compaction(&ShardedGraph::from_graph(&kg, 2)).is_none());

        let mut link = DeltaBatch::new();
        link.triple(&names[0], "noop_link", &names[1]);
        one.apply(&link);
        assert!(noop_compaction(&one).is_some(), "no entity minted");
        let mut retract = DeltaBatch::new();
        retract.retract_triple(&names[0], "noop_link", &names[1]);
        one.apply(&retract);
        assert!(one.tombstone_count() > 0);
        assert!(noop_compaction(&one).is_none(), "a tombstone is held");

        // a minted entity joins the one shard in place: still idle
        let mut minted = ShardedGraph::from(kg.clone());
        let mut d = DeltaBatch::new();
        d.entity("Noop_Minted_Entity");
        minted.apply(&d);
        assert_eq!(minted.shard_count(), 1);
        assert_eq!(minted.entity_count(), kg.entity_count() + 1);
        let receipt = noop_compaction(&minted).expect("no tail, no tombstone");
        assert_eq!(receipt.generation, 1);

        // a partition's minted tail is work
        let mut grown = ShardedGraph::from_graph(&kg, 2);
        grown.apply(&d);
        assert_eq!(grown.trailing_shard_count(), 1);
        assert!(noop_compaction(&grown).is_none(), "a trailing shard");
    }

    /// Publication shares storage: the published snapshot holds the very
    /// shard graph the store holds, not a copy of it.
    #[test]
    fn published_snapshots_share_the_shard_graphs() {
        let live = LiveStore::with_threads(generate(&DatagenConfig::tiny()), 1);
        live.enable_snapshots();
        let snap = live.snapshot().expect("snapshots are enabled");
        let reader = live.read();
        assert!(std::ptr::eq(
            snap.backend().shard(0).graph(),
            reader.backend().shard(0).graph()
        ));
    }

    #[test]
    fn maybe_compact_obeys_the_policy() {
        let kg = generate(&DatagenConfig::tiny());
        let live = LiveStore::with_threads(ShardedGraph::from_graph(&kg, 2), 1);
        let policy = CompactionPolicy {
            max_trailing: 1,
            max_tail_fraction: 1.0,
            max_tombstone_fraction: 1.0,
        };
        assert!(live.maybe_compact(&policy, 2).is_none(), "fresh partition");
        assert_eq!(live.generation(), 0, "a declined pass must not bump");
        for i in 0..2 {
            let mut d = DeltaBatch::new();
            d.entity(format!("Policy_Grown_{i}"));
            live.append(&d).expect("store healthy");
        }
        let receipt = live
            .maybe_compact(&policy, 3)
            .expect("2 trailing > max_trailing=1");
        assert_eq!(receipt.shards_after, 3);
        assert_eq!(live.shard_count(), 3);
        assert!(live.maybe_compact(&policy, 2).is_none(), "tail absorbed");
    }

    #[test]
    fn maintenance_thread_compacts_off_the_append_path() {
        let kg = generate(&DatagenConfig::tiny());
        let live = Arc::new(LiveStore::with_threads(ShardedGraph::from_graph(&kg, 2), 1));
        let mut maintenance = MaintenanceHandle::spawn(
            Arc::clone(&live),
            CompactionPolicy {
                max_trailing: 0,
                max_tail_fraction: 1.0,
                max_tombstone_fraction: 1.0,
            },
            2,
            Duration::from_millis(1),
        );
        for i in 0..3 {
            let mut d = DeltaBatch::new();
            d.entity(format!("Maintained_{i}"));
            live.append(&d).expect("store healthy");
        }
        // the background thread must absorb the tail without any caller
        // ever invoking a compaction entry point
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while live.trailing_shard_count() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        maintenance.stop();
        assert_eq!(live.trailing_shard_count(), 0, "tail never absorbed");
        assert!(maintenance.passes() >= 1);
        assert_eq!(live.shard_count(), 2);
        // all appended entities survived every background swap
        let reader = live.read();
        for i in 0..3 {
            assert!(reader
                .backend()
                .entity(&format!("Maintained_{i}"))
                .is_some());
        }
    }

    /// Retract through the live store: the receipt-named invalidation
    /// drops the stale densities (append+retract answers equal a rebuild
    /// from the surviving triples), and compaction of a one-shard store
    /// is no longer the identity when tombstones are held — it reclaims
    /// them with a generation bump, bit-identical answers, and a live
    /// cache.
    #[test]
    fn retract_then_compact_reclaims_on_the_single_layout() {
        let kg = generate(&DatagenConfig::tiny());
        let (s, names) = (seeds(&kg, 2), names(&kg, 2));
        let live = LiveStore::with_threads(kg, 1);
        let cfg = RankingConfig::default();
        // insert an edge, warm the cache on it, then retract it
        let mut d = DeltaBatch::new();
        d.triple(&names[0], "ephemeral_link", &names[1]);
        live.append(&d).expect("store healthy");
        {
            let reader = live.read();
            let f = reader.handle().rank_features(&cfg, &s);
            reader.handle().rank_entities(&cfg, &s, &f);
        }
        let mut r = DeltaBatch::new();
        r.retract_triple(&names[0], "ephemeral_link", &names[1]);
        let receipt = live.append(&r).expect("store healthy");
        assert_eq!(receipt.removed_relations, 1);
        assert_eq!(live.generation(), 2);

        // answers equal a fresh build from the surviving statements
        let union = ShardedGraph::from(generate(&DatagenConfig::tiny()));
        let fresh = GraphHandle::with_threads(&union, 1);
        let want_f = fresh.rank_features(&cfg, &s);
        let want_e = fresh.rank_entities(&cfg, &s, &want_f);
        {
            let reader = live.read();
            let got_f = reader.handle().rank_features(&cfg, &s);
            assert_eq!(got_f, want_f, "retract must invalidate stale densities");
            let got_e = reader.handle().rank_entities(&cfg, &s, &got_f);
            for (a, b) in got_e.iter().zip(&want_e) {
                assert_eq!(a.entity, b.entity);
                assert!((a.score - b.score).abs() == 0.0);
            }
        }

        // the tombstone trips the policy and compaction reclaims it
        let policy = CompactionPolicy {
            max_trailing: usize::MAX,
            max_tail_fraction: 1.0,
            max_tombstone_fraction: 0.0,
        };
        let receipt = live
            .maybe_compact(&policy, 1)
            .expect("a held tombstone must trip the tombstone axis");
        assert_eq!(receipt.shards_before, 1);
        assert_eq!(receipt.shards_after, 1);
        assert_eq!(receipt.generation, 3, "reclaim bumps the generation");
        {
            let reader = live.read();
            assert_eq!(reader.backend().tombstone_count(), 0);
            let got_f = reader.handle().rank_features(&cfg, &s);
            assert_eq!(got_f, want_f, "reclaim must not change answers");
        }
        // a tombstone-free one-shard store is the identity again
        let receipt = live.compact_in_place(1).unwrap();
        assert_eq!(receipt.generation, 3, "no bump without tombstones");
    }

    #[test]
    fn snapshots_are_off_by_default_and_publish_once_enabled() {
        let live = LiveStore::with_threads(generate(&DatagenConfig::tiny()), 1);
        assert!(!live.snapshots_enabled());
        assert!(live.snapshot().is_none());
        let mut d = DeltaBatch::new();
        d.entity("Unpublished_Entity");
        live.append(&d).expect("store healthy");
        assert!(live.snapshot().is_none(), "no publication while disabled");

        live.enable_snapshots();
        let snap = live.snapshot().expect("enabling publishes current state");
        assert_eq!(snap.generation(), 1);
        assert!(snap.backend().entity("Unpublished_Entity").is_some());
    }

    /// Every write path republishes: the published snapshot tracks the
    /// store generation through appends, retractions and both compaction
    /// entry points, and old snapshots stay queryable after the slot
    /// moves on (that is the whole point — a served request pins its
    /// generation for its own duration).
    #[test]
    fn every_write_republishes_and_old_snapshots_stay_queryable() {
        let kg = generate(&DatagenConfig::tiny());
        let s = seeds(&kg, 2);
        let cfg = RankingConfig::default();
        let live = LiveStore::with_threads(ShardedGraph::from_graph(&kg, 2), 1);
        live.enable_snapshots();

        let mut d = DeltaBatch::new();
        d.triple(
            kg.entity_name(s[0]).to_owned(),
            "snapshot_pred",
            "Snapshot_Entity",
        );
        live.append(&d).expect("store healthy");
        let at_append = live.snapshot().unwrap();
        assert_eq!(at_append.generation(), 1);
        let before_f = at_append.handle().rank_features(&cfg, &s);

        let mut r = DeltaBatch::new();
        r.retract_triple(
            kg.entity_name(s[0]).to_owned(),
            "snapshot_pred",
            "Snapshot_Entity",
        );
        live.append(&r).expect("store healthy");
        let at_retract = live.snapshot().unwrap();
        assert_eq!(at_retract.generation(), 2);

        let receipt = live.compact_concurrent(2).expect("store healthy");
        let at_compact = live.snapshot().unwrap();
        assert_eq!(at_compact.generation(), receipt.generation);
        let receipt = live.compact_in_place(3).expect("store healthy");
        assert_eq!(live.snapshot().unwrap().generation(), receipt.generation);

        // the generation-1 snapshot still answers — pinned, immutable,
        // bit-identical to what a fresh context over that state computes
        let mut union = generate(&DatagenConfig::tiny());
        union.apply(&d);
        let union = ShardedGraph::from(union);
        let fresh = GraphHandle::with_threads(&union, 1);
        assert_eq!(before_f, fresh.rank_features(&cfg, &s));
        assert_eq!(at_append.handle().rank_features(&cfg, &s), before_f);
    }

    /// The snapshot path and the lock path agree bit-for-bit at the same
    /// generation, and the reader's handle() reuses the prepared context
    /// when snapshots are on.
    #[test]
    fn snapshot_answers_match_the_lock_path() {
        let kg = generate(&DatagenConfig::tiny());
        let s = seeds(&kg, 2);
        for backend in [
            ShardedGraph::from(kg.clone()),
            ShardedGraph::from_graph(&kg, 3),
        ] {
            let live = LiveStore::with_threads(backend, 1);
            live.enable_snapshots();
            let mut d = DeltaBatch::new();
            d.entity("Snapshot_Vs_Lock_Entity");
            live.append(&d).expect("store healthy");

            let cfg = RankingConfig::default();
            let snap = live.snapshot().unwrap();
            let reader = live.read();
            assert_eq!(snap.generation(), reader.generation());
            let want_f = reader.handle().rank_features(&cfg, &s);
            let got_f = snap.handle().rank_features(&cfg, &s);
            assert_eq!(got_f, want_f);
            let want_e = reader.handle().rank_entities(&cfg, &s, &want_f);
            let got_e = snap.handle().rank_entities(&cfg, &s, &got_f);
            assert_eq!(got_e.len(), want_e.len());
            for (a, b) in got_e.iter().zip(&want_e) {
                assert_eq!(a.entity, b.entity);
                assert!((a.score - b.score).abs() == 0.0);
            }
        }
    }
}
