//! Keyword search over a live store: one set of search engines per
//! published generation, shared by every reader of that generation.
//!
//! A [`LiveSearchCache`] answers keyword queries against a
//! [`PreparedSnapshot`] and attaches the engines it builds to the
//! snapshot, so the serving layer, its background [`SearchWarmer`] and
//! every [`Session`](crate::Session) pinned to the same generation share
//! one index. Across generations the cache keeps one engine **per
//! shard**, each tagged with its shard's local generation and all tagged
//! with the store's compaction epoch: after an append only the
//! delta-touched shards (plus the appended tail) re-index, and a
//! compaction starts a new epoch that re-indexes the fresh partition
//! wholesale.

use pivote_core::{LiveStore, PreparedSnapshot};
use pivote_kg::ShardedGraph;
use pivote_search::{Hit, SearchBackend, SearchConfig, SearchEngine};
use std::sync::{Arc, Mutex};

/// The cached engines, tagged with the store version they were indexed
/// at: one engine per shard, each tagged with the local graph generation
/// it was built at, all tagged with the compaction epoch. Within one
/// epoch shards are only ever appended, so position `i` still names the
/// same shard and an engine is stale exactly when its shard's local
/// generation moved; across epochs the shard list was rebuilt wholesale
/// and nothing is reusable. Cloning is cheap — the engines and corpus
/// statistics are `Arc`-shared.
#[derive(Clone)]
struct SearchCache {
    /// Compaction epoch at indexing time.
    epoch: u64,
    /// The local generation each engine was built at, in shard order.
    generations: Vec<u64>,
    /// The engines and the merged corpus statistics they score against.
    backend: SearchBackend,
}

impl SearchCache {
    /// Index `sg`, reusing every engine of `prior` whose version tags
    /// still match.
    fn refresh(prior: Option<SearchCache>, sg: &ShardedGraph, config: SearchConfig) -> Self {
        let epoch = sg.compaction_epoch();
        let prior = prior.filter(|c| c.epoch == epoch);
        let mut generations = Vec::with_capacity(sg.shard_count());
        let mut engines = Vec::with_capacity(sg.shard_count());
        for (i, s) in sg.shards().iter().enumerate() {
            let generation = s.graph().generation();
            let engine = match &prior {
                Some(c) if c.generations.get(i) == Some(&generation) => {
                    Arc::clone(&c.backend.engines[i])
                }
                _ => Arc::new(SearchEngine::build_keyed(s.graph(), config, |local| {
                    s.to_global(local).raw()
                })),
            };
            generations.push(generation);
            engines.push(engine);
        }
        // the corpus merges owned documents of EVERY shard, so a rebuild
        // of any one engine stales it — but when the only change is
        // appended trailing shards (the common shape of a live write),
        // the cached merge is extended by the new engines alone
        let backend = match prior {
            Some(c) if generations.starts_with(&c.generations) => c.backend.extended(engines, sg),
            _ => SearchBackend::new(engines, sg),
        };
        Self {
            epoch,
            generations,
            backend,
        }
    }

    /// Whether `self` indexes a store state at least as new as `other`.
    /// Guards the stash against going *backwards*: a request pinned to
    /// a slightly-stale snapshot must not clobber the engine set the
    /// warmer just built for the latest generation, or the two would
    /// ping-pong the stash and rebuild the same engines on every
    /// request that races a write (a 24 ms search p99 under mixed
    /// read+append load when it did). Within a compaction epoch shards
    /// only append and local generations only grow, so "newer" is
    /// well-ordered.
    fn at_least_as_fresh(&self, other: Option<&SearchCache>) -> bool {
        let Some(other) = other else { return true };
        if self.epoch != other.epoch {
            return self.epoch > other.epoch;
        }
        if self.generations.len() != other.generations.len() {
            return self.generations.len() > other.generations.len();
        }
        self.generations
            .iter()
            .zip(&other.generations)
            .all(|(ga, gb)| ga >= gb)
    }
}

/// A self-contained, thread-safe keyword-search component over the
/// published snapshots of a [`LiveStore`]. It keeps the lazily
/// re-indexed engine cache (per shard generation within a compaction
/// epoch, scored against globally merged corpus statistics) and carries
/// no session state, so many connections can share one instance behind
/// an `Arc`.
///
/// The mutex guards only the refresh bookkeeping: each search takes a
/// cheap `Arc` clone of the backend and runs **unlocked**, so N
/// concurrent searches share one index and run concurrently instead of
/// serializing on the cache.
pub struct LiveSearchCache {
    config: SearchConfig,
    cache: Mutex<Option<SearchCache>>,
}

impl LiveSearchCache {
    /// An empty cache; the first search indexes the store.
    pub fn new(config: SearchConfig) -> Self {
        Self {
            config,
            cache: Mutex::new(None),
        }
    }

    /// The cache mutex, recovering from poisoning: a poisoned cache only
    /// means a panic dropped a partially-stale engine set; the version
    /// tags guard staleness, so the inner value is safe to keep using.
    fn stash(&self) -> std::sync::MutexGuard<'_, Option<SearchCache>> {
        self.cache.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Refresh the cached engines against `backend` and hand back a
    /// shared clone to search with. The lock is held to read and to
    /// write back the stash only, never across an index build — on the
    /// hot path (tags match) that is a couple of integer compares and
    /// `Arc` bumps.
    fn refreshed(&self, backend: &ShardedGraph) -> SearchBackend {
        // snapshot the stash (cheap `Arc` clones), then build OUTSIDE
        // the lock: a slow re-index must not head-of-line-block every
        // other thread's refresh behind the mutex
        let prior = self.stash().clone();
        let candidate = SearchCache::refresh(prior, backend, self.config);
        let search = candidate.backend.clone();
        // the stash only ever moves *forward*: a refresh against a
        // stale backend still reuses every tag-matching engine, but its
        // (older) result does not replace a newer stash
        let mut guard = self.stash();
        if candidate.at_least_as_fresh(guard.as_ref()) {
            *guard = Some(candidate);
        }
        search
    }

    /// Top-`k` keyword hits against a prepared snapshot. Uses the
    /// engines attached to the snapshot when a warmer (or an earlier
    /// search) already built them; otherwise refreshes from the cache
    /// against the snapshot's pinned backend and attaches the result, so
    /// the build cost is paid **once per generation** no matter how many
    /// requests land on it. Answers are bit-identical at every shard
    /// count.
    pub fn search_prepared(&self, snap: &PreparedSnapshot, query: &str, k: usize) -> Vec<Hit> {
        snap.search_or_init(|| self.refreshed(snap.backend()))
            .hits(snap.backend(), query, k)
    }

    /// Ensure `snap` carries a ready search backend and return it — the
    /// hook the background [`SearchWarmer`] drives so the first search
    /// after a write does not pay the re-index inline. Builders
    /// coordinate on the snapshot's write-once slot: when a request
    /// races the warmer to a fresh generation, one of them builds and
    /// the other parks until the engines are ready, instead of both
    /// grinding out the same index concurrently.
    pub fn prepare(&self, snap: &PreparedSnapshot) -> SearchBackend {
        snap.search_or_init(|| self.refreshed(snap.backend()))
            .clone()
    }
}

/// A background thread that pre-builds search engines into freshly
/// published [`PreparedSnapshot`]s, so the re-index after a write runs
/// **off the request path**: the first search against a new generation
/// finds its engines already attached instead of rebuilding inline —
/// the fix for an 84 ms search-p99 head-of-line stall under mixed
/// read+append load.
///
/// Stop it explicitly with [`SearchWarmer::stop`] (also invoked on
/// drop), which wakes the thread and joins it.
pub struct SearchWarmer {
    stop: Arc<std::sync::atomic::AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SearchWarmer {
    /// Spawn the warmer: every `tick`, if the store's published snapshot
    /// has no search attached yet, build (or reuse from `search`'s
    /// cache) the engines and attach them.
    pub fn spawn(
        store: Arc<LiveStore>,
        search: Arc<LiveSearchCache>,
        tick: std::time::Duration,
    ) -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    if let Some(snap) = store.snapshot() {
                        if snap.attached_search().is_none() {
                            search.prepare(&snap);
                        }
                    }
                    std::thread::park_timeout(tick);
                }
            })
        };
        Self {
            stop,
            thread: Some(thread),
        }
    }

    /// A handle that wakes the warmer *now* instead of at its next tick
    /// — hand it to the write path so a freshly published generation
    /// starts warming the moment it exists, not up to one tick later.
    /// Unparking an already-stopped warmer is harmless.
    pub fn waker(&self) -> std::thread::Thread {
        self.thread
            .as_ref()
            .expect("warmer thread runs until stop")
            .thread()
            .clone()
    }

    /// Signal the thread to stop and join it (idempotent).
    pub fn stop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

impl Drop for SearchWarmer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replay, ActionLog, Session, SessionConfig, UserAction};
    use pivote_kg::{generate, DatagenConfig, DeltaBatch, EntityId, KnowledgeGraph};

    fn base() -> KnowledgeGraph {
        generate(&DatagenConfig::tiny())
    }

    fn film_seed(kg: &KnowledgeGraph) -> EntityId {
        let film = kg.type_id("Film").unwrap();
        kg.type_extent(film)[0]
    }

    /// A brand-new film sharing the seed's entire cast, so an
    /// investigation from the seed must surface it once visible.
    fn delta_for(kg: &KnowledgeGraph, seed: EntityId) -> DeltaBatch {
        let starring = kg.predicate("starring").unwrap();
        let mut d = DeltaBatch::new();
        for &star in kg.objects(seed, starring) {
            d.triple(
                "Fresh_Live_Film",
                "starring",
                kg.entity_name(star).to_owned(),
            );
        }
        d.typed("Fresh_Live_Film", "Film")
            .typed("Fresh_Live_Film", "Work")
            .label("Fresh_Live_Film", "Fresh Live Film");
        for c in kg.categories_of(seed) {
            d.categorized("Fresh_Live_Film", kg.category_name(c).to_owned());
        }
        d
    }

    /// A session over a fresh store of `backend`.
    fn session(backend: impl Into<ShardedGraph>) -> Session {
        Session::new(
            Arc::new(LiveStore::with_threads(backend, 1)),
            SessionConfig::default(),
        )
    }

    fn ranked(s: &Session) -> Vec<(EntityId, f64)> {
        s.view()
            .entities
            .iter()
            .map(|re| (re.entity, re.score))
            .collect()
    }

    /// Re-run the investigation from `seed`.
    fn reinvestigate(s: &mut Session, seed: EntityId) {
        s.apply(UserAction::RemoveSeed { entity: seed });
        s.click_entity(seed);
    }

    /// Append `delta` to the session's store and re-pin the session.
    fn grow(s: &mut Session, delta: &DeltaBatch) {
        s.store().append(delta).expect("store healthy");
        s.refresh();
    }

    // ---- sessions over a store that grows ------------------------------

    #[test]
    fn session_sees_appends_after_refresh() {
        let kg = base();
        let seed = film_seed(&kg);
        let delta = delta_for(&kg, seed);
        let mut s = session(base());
        s.click_entity(seed);
        let before = ranked(&s);

        // the pin holds: the same investigation answers at generation 0
        s.store().append(&delta).expect("store healthy");
        reinvestigate(&mut s, seed);
        assert_eq!(s.generation(), 0);
        assert_eq!(ranked(&s), before);

        // re-pinned, it equals a fresh session over the rebuilt union
        assert_eq!(s.refresh(), 1);
        reinvestigate(&mut s, seed);
        let mut union = base();
        union.apply(&delta);
        let mut fresh = Session::with_defaults(&ShardedGraph::from(union.clone()));
        fresh.click_entity(seed);
        assert_eq!(ranked(&s), ranked(&fresh));
        let new_film = union.entity("Fresh_Live_Film").unwrap();
        assert!(ranked(&s).iter().any(|&(e, _)| e == new_film));
        let hits = s.search_hits("Fresh Live Film", 5);
        assert!(hits.iter().any(|h| h.entity == new_film));
    }

    #[test]
    fn non_recomputing_actions_preserve_the_view() {
        // a duplicate click is a no-op and a lookup only sets the focus:
        // neither recomputes, so neither may change the rendered view,
        // not even right after a refresh
        let kg = base();
        let seed = film_seed(&kg);
        let mut s = session(base());
        s.click_entity(seed);
        let before = ranked(&s);
        assert!(!before.is_empty());
        grow(&mut s, &delta_for(&kg, seed));

        s.click_entity(seed);
        assert_eq!(ranked(&s), before, "duplicate click keeps the view");
        s.lookup(seed);
        assert!(s.view().focus.is_some(), "lookup fills the focus");
        assert_eq!(ranked(&s), before, "lookup keeps the entities");
    }

    #[test]
    fn sharded_session_survives_a_mid_session_compaction() {
        let kg = base();
        let seed = film_seed(&kg);
        let delta = delta_for(&kg, seed);
        let mut s = session(ShardedGraph::from_graph(&kg, 3));
        s.click_entity(seed);
        s.store().append(&delta).expect("store healthy");
        assert_eq!(s.store().shard_count(), 4, "append minted a trailing shard");
        let receipt = s.store().compact_concurrent(2).expect("store healthy");
        assert_eq!(receipt.shards_after, 2);
        assert_eq!(s.refresh(), receipt.generation);
        assert_eq!(s.snapshot().backend().shard_count(), 2);
        assert_eq!(s.timeline().len(), 1, "durable state untouched");
        reinvestigate(&mut s, seed);

        // ground truth: a fresh session over the rebuilt union at the
        // compacted shard count
        let mut union = base();
        union.apply(&delta);
        let mut fresh = Session::with_defaults(&ShardedGraph::from_graph(&union, 2));
        fresh.click_entity(seed);
        assert_eq!(ranked(&s), ranked(&fresh));
        let new_film = union.entity("Fresh_Live_Film").unwrap();
        assert!(ranked(&s).iter().any(|&(e, _)| e == new_film));
    }

    #[test]
    fn timeline_and_path_survive_appends() {
        let kg = base();
        let seed = film_seed(&kg);
        let mut s = session(base());
        s.submit_keywords(&kg.display_name(seed));
        grow(&mut s, &delta_for(&kg, seed));
        s.click_entity(seed);
        assert_eq!(s.timeline().len(), 2, "search + investigate");
        assert_eq!(s.path().query_trail().len(), 2);
        assert_eq!(s.action_log().len(), 2);
        assert!(Arc::ptr_eq(s.snapshot(), &s.store().snapshot().unwrap()));
    }

    /// Record a session that investigates, grows its store by
    /// `delta` (compacting to `compact` shards, if given), refreshes and
    /// investigates again.
    fn grown_session(
        backend: ShardedGraph,
        seed: EntityId,
        delta: &DeltaBatch,
        compact: Option<usize>,
    ) -> Session {
        let mut s = session(backend);
        s.click_entity(seed);
        s.store().append(delta).expect("store healthy");
        if let Some(shards) = compact {
            s.store().compact_concurrent(shards).expect("store healthy");
        }
        s.refresh();
        reinvestigate(&mut s, seed);
        s
    }

    #[test]
    fn replay_reproduces_growth_and_rankings() {
        let kg = base();
        let seed = film_seed(&kg);
        let delta = delta_for(&kg, seed);
        let original = grown_session(ShardedGraph::from(base()), seed, &delta, None);

        // serialize the log and replay it onto a session over a fresh
        // store grown by the same append
        let log = ActionLog::from_json(&original.action_log().to_json()).unwrap();
        let mut replayed = session(base());
        grow(&mut replayed, &delta);
        assert_eq!(replay(&mut replayed, &log), Ok(3));
        assert_eq!(replayed.generation(), 1);
        assert_eq!(replayed.timeline(), original.timeline());
        assert_eq!(
            ranked(&replayed),
            ranked(&original),
            "replay must reproduce rankings bit-identically"
        );
    }

    #[test]
    fn replay_reproduces_growth_and_compaction_on_both_layouts() {
        let kg = base();
        let seed = film_seed(&kg);
        let delta = delta_for(&kg, seed);
        let original = grown_session(ShardedGraph::from_graph(&kg, 3), seed, &delta, Some(2));
        assert_eq!(original.snapshot().backend().shard_count(), 2);
        let log = ActionLog::from_json(&original.action_log().to_json()).unwrap();

        // onto the same partitioning, grown and compacted alike ...
        let mut sharded = session(ShardedGraph::from_graph(&kg, 3));
        sharded.store().append(&delta).expect("store healthy");
        sharded
            .store()
            .compact_concurrent(2)
            .expect("store healthy");
        assert_eq!(sharded.refresh(), 2, "append + compaction");
        replay(&mut sharded, &log).expect("ids exist");
        assert_eq!(sharded.timeline(), original.timeline());
        assert_eq!(ranked(&sharded), ranked(&original));

        // ... and onto one shard, grown by the append only
        let mut single = session(base());
        grow(&mut single, &delta);
        replay(&mut single, &log).expect("ids exist");
        assert_eq!(single.store().shard_count(), 1);
        assert_eq!(
            ranked(&single),
            ranked(&original),
            "a log recorded over a compaction must replay identically on one shard"
        );
    }

    // ---- the search cache ----------------------------------------------

    fn published(backend: impl Into<ShardedGraph>) -> LiveStore {
        let live = LiveStore::with_threads(backend, 1);
        live.enable_snapshots();
        live
    }

    /// The prepared-snapshot search path answers bit-identically to a
    /// search of the store under its read lock, the built engines attach
    /// to the snapshot exactly once — the second search reuses the
    /// attached backend (same engine allocation) — and a snapshot keeps
    /// answering for its own pinned graph after the store moves on.
    #[test]
    fn search_prepared_matches_lock_path_and_attaches_once() {
        for shards in [1usize, 3] {
            let live = published(ShardedGraph::from_graph(&base(), shards));
            let cache = LiveSearchCache::new(SearchConfig::default());

            let want = {
                let reader = live.read();
                let indexed = SearchCache::refresh(None, reader.backend(), SearchConfig::default());
                indexed.backend.hits(reader.backend(), "film", 10)
            };
            assert!(!want.is_empty(), "shards={shards}");
            let snap = live.snapshot().expect("snapshots enabled");
            assert!(snap.attached_search().is_none());
            assert_eq!(cache.search_prepared(&snap, "film", 10), want);
            assert!(snap.attached_search().is_some(), "first search attaches");

            let a = cache.prepare(&snap);
            let b = cache.prepare(&snap);
            assert_eq!(a.engines.len(), b.engines.len());
            for (ex, ey) in a.engines.iter().zip(&b.engines) {
                assert!(Arc::ptr_eq(ex, ey));
            }

            // after an append the fresh snapshot starts unattached and
            // the stale one keeps answering for its own pinned graph
            let mut d = DeltaBatch::new();
            d.typed("Snapshot_Search_Film", "Film")
                .label("Snapshot_Search_Film", "Snapshot Search Film");
            live.append(&d).expect("store healthy");
            let fresh = live.snapshot().expect("republished");
            assert!(fresh.attached_search().is_none());
            assert_eq!(cache.search_prepared(&snap, "film", 10), want);
            let new_hits = cache.search_prepared(&fresh, "Snapshot Search Film", 5);
            assert!(
                !new_hits.is_empty(),
                "fresh snapshot must see the appended film (shards={shards})"
            );
        }
    }

    /// Across generations the cache re-indexes only the shards whose
    /// local generation moved (plus the appended tail); a compaction
    /// bumps the epoch and re-indexes the new partition wholesale.
    #[test]
    fn sharded_search_reindexes_touched_and_appended_shards_lazily() {
        let kg = base();
        let film = kg.type_id("Film").unwrap();
        let seed = kg.entity_name(kg.type_extent(film)[0]).to_owned();
        let live = published(ShardedGraph::from_graph(&kg, 3));
        let cache = LiveSearchCache::new(SearchConfig::default());
        let tags = || {
            let stash = cache.stash();
            let c = stash.as_ref().expect("cache filled");
            (c.epoch, c.generations.clone())
        };

        let before = cache.prepare(&live.snapshot().unwrap());
        assert_eq!(tags(), (0, vec![0, 0, 0]), "one engine per shard");

        let mut d = DeltaBatch::new();
        d.triple("Fresh_Search_Film", "starring", seed.as_str())
            .typed("Fresh_Search_Film", "Film")
            .label("Fresh_Search_Film", "Zanzibar Premiere");
        live.append(&d).expect("store healthy");
        let snap = live.snapshot().unwrap();
        let after = cache.prepare(&snap);
        let (epoch, generations) = tags();
        assert_eq!(epoch, 0, "appends do not change the epoch");
        assert_eq!(generations.len(), 4, "the trailing shard gained an engine");
        for (i, shard) in snap.backend().shards().iter().enumerate() {
            assert_eq!(
                generations[i],
                shard.graph().generation(),
                "engine {i} is tagged with its shard's local generation"
            );
        }
        // an untouched shard keeps its engine allocation; a touched one
        // is re-indexed
        let mut untouched = 0;
        for (i, (old, new)) in before.engines.iter().zip(&after.engines).enumerate() {
            let same = Arc::ptr_eq(old, new);
            assert_eq!(same, generations[i] == 0, "shard {i}");
            untouched += usize::from(same);
        }
        assert!(untouched > 0, "some shard must be untouched by the delta");
        let fresh = snap.backend().entity("Fresh_Search_Film").unwrap();
        let hits = cache.search_prepared(&snap, "Zanzibar Premiere", 5);
        assert!(hits.iter().any(|h| h.entity == fresh));

        live.compact_concurrent(2).expect("store healthy");
        let snap = live.snapshot().unwrap();
        let compacted = cache.prepare(&snap);
        let (epoch, generations) = tags();
        assert_eq!(epoch, 1, "compaction bumps the epoch");
        assert_eq!(generations.len(), 2, "one engine per compacted shard");
        assert!(compacted
            .engines
            .iter()
            .all(|e| after.engines.iter().all(|old| !Arc::ptr_eq(e, old))));
        let hits = cache.search_prepared(&snap, "Zanzibar Premiere", 5);
        assert!(hits.iter().any(|h| h.entity == fresh));
    }

    /// The background warmer attaches engines to freshly published
    /// snapshots off the request path: after a write, the request thread
    /// finds the index prebuilt.
    #[test]
    fn search_warmer_prebuilds_engines_off_the_request_path() {
        let live = Arc::new(published(base()));
        let cache = Arc::new(LiveSearchCache::new(SearchConfig::default()));
        let mut warmer = SearchWarmer::spawn(
            Arc::clone(&live),
            Arc::clone(&cache),
            std::time::Duration::from_millis(1),
        );

        let mut d = DeltaBatch::new();
        d.typed("Warmed_Film", "Film")
            .label("Warmed_Film", "Warmed Film");
        live.append(&d).expect("store healthy");

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        loop {
            let snap = live.snapshot().expect("snapshots enabled");
            if snap.generation() == 1 && snap.attached_search().is_some() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "warmer never attached engines"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        warmer.stop();
        let snap = live.snapshot().unwrap();
        let hits = cache.search_prepared(&snap, "Warmed Film", 5);
        assert!(!hits.is_empty());
    }
}
