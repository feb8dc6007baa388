//! Live exploration sessions: explore a store that grows mid-session.
//!
//! A [`LiveSession`] drives the full [`Session`] interaction loop over a
//! [`LiveStore`]: every user action runs against a consistent
//! read-locked snapshot, and
//! [`LiveSession::append`] grows the store *between* actions — the
//! paper's fixed-snapshot exploration model extended to a store serving
//! live traffic. The session's durable state (timeline, exploratory
//! path, current query, action log) survives appends **and compactions**
//! untouched, because compaction changes no global id and no answer; the
//! per-snapshot machinery (query context, extent handles) is rebuilt per
//! action from the live store's
//! [`SharedCache`](pivote_core::SharedCache), so untouched `p(π|c)`
//! densities stay warm across generations.
//!
//! The keyword-search index is cached as one engine **per shard**, each
//! tagged with its shard's local generation and all tagged with the
//! store's compaction epoch — after an append only the delta-touched
//! shards (plus the appended tail) re-index, and a compaction starts a
//! new epoch that re-indexes the fresh partition wholesale.
//!
//! Everything a live session does — actions, appends *and* compactions —
//! is recorded in a [`LiveLog`], so
//! [`replay_live`](crate::replay::replay_live) can reproduce an entire
//! live exploration (growth and re-partitioning included) from the same
//! base store, at any shard count.

use crate::events::UserAction;
use crate::path::ExplorationPath;
use crate::replay::ActionLog;
use crate::session::{
    merge_corpus_stats, search_backend_hits, SearchBackend, Session, SessionConfig, SessionState,
    ViewState,
};
use crate::timeline::Timeline;
use pivote_core::{LiveStore, PreparedSnapshot, StoreError};
use pivote_kg::{AppliedDelta, CompactionReceipt, DeltaBatch, EntityId, ShardedGraph};
use pivote_search::{CorpusStats, Hit, SearchConfig, SearchEngine};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// One event of a live session: a user action, a store append, or a
/// compaction of the backing partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LiveEvent {
    /// A user action applied to the session.
    Action(UserAction),
    /// A delta batch appended to the live store.
    Append(DeltaBatch),
    /// A re-partition of the backing store to `target_shards` fresh
    /// range shards. Compaction is answer-preserving, so replaying it
    /// reproduces the exact rankings; on an idle one-shard replay
    /// target (no trailing shards, no tombstones) it is a no-op.
    Compact {
        /// The shard count the store was re-partitioned to.
        target_shards: usize,
    },
}

/// The ordered record of everything a live session did — the replayable
/// artifact of an exploration over a growing store.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LiveLog {
    /// Events in application order.
    pub events: Vec<LiveEvent>,
}

impl LiveLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("live log serializes")
    }

    /// Parse from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Run one action on a transient [`Session`] over a read-guard handle,
/// moving the durable state (timeline/path/query/log) and the rendered
/// view in and back out without copies. Returns the dissolved
/// [`SearchBackend`] so the caller can stash its engine(s) for the next
/// action.
fn drive_transient(
    state: &mut SessionState,
    log: &mut ActionLog,
    view: &mut ViewState,
    mut session: Session<'_>,
    action: UserAction,
) -> SearchBackend {
    let state_in = std::mem::replace(
        state,
        SessionState {
            timeline: Timeline::new(),
            path: ExplorationPath::new(),
            query: Default::default(),
        },
    );
    session.import_state(
        state_in,
        std::mem::take(log),
        std::mem::replace(view, ViewState::empty()),
    );
    session.apply(action);
    let (state_out, log_out, view_out, search) = session.dissolve();
    *state = state_out;
    *log = log_out;
    *view = view_out;
    search
}

/// The cached keyword-search component, tagged with the store version
/// it was indexed at: one engine per shard, each tagged with the local
/// graph generation it was built at, all tagged with the compaction
/// epoch. Within one epoch shards are only ever appended, so position
/// `i` still names the same shard and an engine is stale exactly when
/// its shard's local generation moved; across epochs the shard list was
/// rebuilt wholesale and nothing is reusable. Cloning is cheap — the
/// engines and corpus statistics are `Arc`-shared.
#[derive(Clone)]
struct SearchCache {
    /// Compaction epoch at indexing time.
    epoch: u64,
    /// `(local generation, engine)` per shard, in shard order.
    engines: Vec<(u64, Arc<SearchEngine>)>,
    /// The globally-merged corpus statistics the engines score against;
    /// recomputed whenever any engine is rebuilt.
    corpus: Arc<CorpusStats>,
}

/// Build — or reuse from `cache`, when the version tags still match the
/// snapshot — the search backend for `sg`, returning it together with
/// the tags to cache it under. Shared by [`LiveSession::apply`] and
/// [`LiveSearchCache::search`].
fn refresh_search(
    cache: Option<SearchCache>,
    sg: &ShardedGraph,
    config: SearchConfig,
) -> (SearchBackend, SearchTags) {
    let epoch = sg.compaction_epoch();
    let (cached, cached_corpus) = match cache {
        Some(c) if c.epoch == epoch => (c.engines, Some(c.corpus)),
        _ => (Vec::new(), None),
    };
    let n_cached = cached.len();
    let mut reused = 0usize;
    let mut cached = cached.into_iter();
    let mut shard_generations = Vec::with_capacity(sg.shard_count());
    let engines: Vec<Arc<SearchEngine>> = sg
        .shards()
        .iter()
        .map(|s| {
            let generation = s.graph().generation();
            shard_generations.push(generation);
            match cached.next() {
                Some((built_at, engine)) if built_at == generation => {
                    reused += 1;
                    engine
                }
                _ => Arc::new(SearchEngine::build_keyed(s.graph(), config, |local| {
                    s.to_global(local).raw()
                })),
            }
        })
        .collect();
    // the corpus merges owned documents of EVERY shard, so a rebuild of
    // any one engine stales it — but when the only change is appended
    // trailing shards (the common shape of a live write), absorbing just
    // the new engines into the cached merge is O(delta) instead of
    // O(partition)
    let prefix_reused = reused == n_cached;
    let corpus = match cached_corpus {
        Some(c) if prefix_reused && n_cached == sg.shard_count() => c,
        Some(c) if prefix_reused && n_cached < sg.shard_count() => {
            let mut merged = (*c).clone();
            for (engine, shard) in engines.iter().zip(sg.shards()).skip(n_cached) {
                merged.absorb(engine.index(), |d| shard.is_owned(EntityId::new(d)));
            }
            Arc::new(merged)
        }
        _ => Arc::new(merge_corpus_stats(&engines, sg)),
    };
    (
        SearchBackend { engines, corpus },
        SearchTags {
            epoch,
            shard_generations,
        },
    )
}

impl SearchCache {
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
        if self.engines.len() != other.engines.len() {
            return self.engines.len() > other.engines.len();
        }
        self.engines
            .iter()
            .zip(&other.engines)
            .all(|((ga, _), (gb, _))| ga >= gb)
    }
}

/// Re-tag a dissolved [`SearchBackend`] for the cache.
fn stash_search(search: SearchBackend, tags: SearchTags) -> SearchCache {
    SearchCache {
        epoch: tags.epoch,
        engines: tags
            .shard_generations
            .into_iter()
            .zip(search.engines)
            .collect(),
        corpus: search.corpus,
    }
}

/// A self-contained, thread-safe keyword-search component over a
/// [`LiveStore`] — the serving layer's search path. It keeps the same
/// lazily re-indexed engine cache a [`LiveSession`] maintains (per
/// shard-generation within a compaction epoch, scored against globally
/// merged corpus statistics) but carries **no** session state, so many
/// connections can share one instance behind an `Arc`.
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
        let (search, tags) = refresh_search(prior, backend, self.config);
        let candidate = stash_search(search.clone(), tags);
        // the stash only ever moves *forward*: a refresh against a
        // stale backend still reuses every tag-matching engine, but its
        // (older) result does not replace a newer stash
        let mut guard = self.stash();
        if candidate.at_least_as_fresh(guard.as_ref()) {
            *guard = Some(candidate);
        }
        search
    }

    /// Top-`k` keyword hits against the store's current snapshot.
    /// Re-indexes lazily when the store moved since the last call;
    /// answers are bit-identical at every shard count.
    pub fn search(&self, live: &LiveStore, query: &str, k: usize) -> Vec<Hit> {
        let reader = live.read();
        let backend = reader.backend();
        let search = self.refreshed(backend);
        search_backend_hits(&search, backend, query, k)
    }

    /// Top-`k` keyword hits against a prepared snapshot — the serving
    /// read path. Uses the engines attached to the snapshot when a
    /// warmer (or an earlier search) already built them; otherwise
    /// refreshes from the cache against the snapshot's pinned backend
    /// and attaches the result, so the build cost is paid **once per
    /// generation** no matter how many requests land on it.
    pub fn search_prepared(&self, snap: &PreparedSnapshot, query: &str, k: usize) -> Vec<Hit> {
        let search = self.prepare(snap);
        search_backend_hits(&search, snap.backend(), query, k)
    }

    /// Ensure `snap` carries a ready search backend and return it — the
    /// hook the background [`SearchWarmer`] drives so the first search
    /// after a write does not pay the re-index inline. Builders
    /// coordinate on the snapshot's write-once slot: when a request
    /// races the warmer to a fresh generation, one of them builds and
    /// the other parks until the engines are ready, instead of both
    /// grinding out the same index concurrently.
    pub fn prepare(&self, snap: &PreparedSnapshot) -> SearchBackend {
        let attached = snap.search_or_init(|| Arc::new(self.refreshed(snap.backend())));
        match attached.downcast::<SearchBackend>() {
            Ok(search) => (*search).clone(),
            // a foreign layer attached its own payload: serve from the
            // shared cache directly
            Err(_) => self.refreshed(snap.backend()),
        }
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
    warmed: Arc<std::sync::atomic::AtomicU64>,
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
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let stop = Arc::new(AtomicBool::new(false));
        let warmed = Arc::new(AtomicU64::new(0));
        let thread = {
            let stop = Arc::clone(&stop);
            let warmed = Arc::clone(&warmed);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    if let Some(snap) = store.snapshot() {
                        if snap.attached_search().is_none() {
                            search.prepare(&snap);
                            warmed.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    std::thread::park_timeout(tick);
                }
            })
        };
        Self {
            stop,
            warmed,
            thread: Some(thread),
        }
    }

    /// How many snapshots this warmer has attached engines to.
    pub fn warmed(&self) -> u64 {
        self.warmed.load(std::sync::atomic::Ordering::SeqCst)
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

/// An exploration session over a [`LiveStore`] that may grow *and be
/// re-partitioned* mid-session.
pub struct LiveSession<'g> {
    live: &'g LiveStore,
    config: SessionConfig,
    state: SessionState,
    log: ActionLog,
    view: ViewState,
    search: Option<SearchCache>,
    events: LiveLog,
}

impl<'g> LiveSession<'g> {
    /// A fresh live session over `live`.
    pub fn new(live: &'g LiveStore, config: SessionConfig) -> Self {
        Self {
            live,
            config,
            state: SessionState {
                timeline: Timeline::new(),
                path: ExplorationPath::new(),
                query: Default::default(),
            },
            log: ActionLog::new(),
            view: ViewState::empty(),
            search: None,
            events: LiveLog::new(),
        }
    }

    /// The live store under exploration.
    pub fn live(&self) -> &'g LiveStore {
        self.live
    }

    /// The current view.
    pub fn view(&self) -> &ViewState {
        &self.view
    }

    /// The durable session state (timeline, path, current query).
    pub fn state(&self) -> &SessionState {
        &self.state
    }

    /// The user-action log (appends and compactions excluded; see
    /// [`LiveSession::events`]).
    pub fn action_log(&self) -> &ActionLog {
        &self.log
    }

    /// Every event — actions, appends and compactions — in order.
    pub fn events(&self) -> &LiveLog {
        &self.events
    }

    /// Apply one user action against the current store snapshot and
    /// return the updated view. The heavy lifting runs on a transient
    /// [`Session`] scoped to a read guard; timeline/path/query/log and
    /// the rendered view **move** in and back out (no per-action copies
    /// of the session history), and the live store's shared cache keeps
    /// densities warm. The search component is reused from the cache
    /// when its version tags still match the snapshot.
    pub fn apply(&mut self, action: UserAction) -> &ViewState {
        self.events.events.push(LiveEvent::Action(action.clone()));
        let reader = self.live.read();
        let (search, next_tags) =
            refresh_search(self.search.take(), reader.backend(), self.config.search);
        let session = Session::with_search(reader.handle(), self.config, search);
        let search = drive_transient(
            &mut self.state,
            &mut self.log,
            &mut self.view,
            session,
            action,
        );
        self.search = Some(stash_search(search, next_tags));
        &self.view
    }

    /// Append a delta to the live store (recorded in the event log). The
    /// view is *not* recomputed — like every store mutation it becomes
    /// visible at the next action, keeping actions the only points where
    /// the interface changes under the user. A refused write (poisoned
    /// store) is **not** recorded, so the replay log only ever carries
    /// mutations that actually happened.
    pub fn append(&mut self, delta: &DeltaBatch) -> Result<AppliedDelta, StoreError> {
        let applied = self.live.append(delta)?;
        self.events.events.push(LiveEvent::Append(delta.clone()));
        Ok(applied)
    }

    /// Re-partition the live store to `target_shards` (recorded in the
    /// event log), through the concurrent compaction path — the rebuild
    /// runs off the write lock, so other sessions' queries never block
    /// behind it. The session's durable state is untouched; the next
    /// action re-indexes search against the fresh partition and answers
    /// exactly what the uncompacted store would have answered. On an
    /// idle one-shard store this is the identity (still recorded, so the
    /// log replays onto partitioned deployments).
    pub fn compact(&mut self, target_shards: usize) -> Result<CompactionReceipt, StoreError> {
        let receipt = self.live.compact_concurrent(target_shards)?;
        self.events
            .events
            .push(LiveEvent::Compact { target_shards });
        Ok(receipt)
    }

    /// Convenience: submit a keyword query.
    pub fn submit_keywords(&mut self, q: &str) -> &ViewState {
        self.apply(UserAction::SubmitKeywords { query: q.into() })
    }

    /// Convenience: click an entity (investigation).
    pub fn click_entity(&mut self, entity: pivote_kg::EntityId) -> &ViewState {
        self.apply(UserAction::ClickEntity { entity })
    }

    /// Test/diagnostic view of the search cache's version tags: the
    /// compaction epoch and per-shard local generations.
    #[cfg(test)]
    fn search_tags(&self) -> Option<SearchTags> {
        self.search.as_ref().map(|s| SearchTags {
            epoch: s.epoch,
            shard_generations: s.engines.iter().map(|&(g, _)| g).collect(),
        })
    }
}

/// The version tags a rebuilt search component will be cached under:
/// the compaction epoch and the per-shard local generations.
#[derive(Debug, PartialEq, Eq)]
struct SearchTags {
    /// Compaction epoch at indexing time.
    epoch: u64,
    /// Local generation per shard, in shard order.
    shard_generations: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_kg::{generate, DatagenConfig, EntityId, KnowledgeGraph};

    fn base() -> KnowledgeGraph {
        generate(&DatagenConfig::tiny())
    }

    fn film_seed(kg: &KnowledgeGraph) -> EntityId {
        let film = kg.type_id("Film").unwrap();
        kg.type_extent(film)[0]
    }

    fn delta_for(kg: &KnowledgeGraph, seed: EntityId) -> DeltaBatch {
        // append a brand-new film sharing the seed's entire cast, so an
        // investigation from the seed must surface it mid-session
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

    #[test]
    fn session_sees_appends_at_the_next_action() {
        let kg = base();
        let seed = film_seed(&kg);
        let delta = delta_for(&kg, seed);
        let live = LiveStore::with_threads(base(), 1);
        let mut s = LiveSession::new(&live, SessionConfig::default());

        s.click_entity(seed);
        let before: Vec<EntityId> = s.view().entities.iter().map(|re| re.entity).collect();
        s.append(&delta).expect("store healthy");
        // the view does not change until the next action
        let unchanged: Vec<EntityId> = s.view().entities.iter().map(|re| re.entity).collect();
        assert_eq!(before, unchanged);

        // re-running the same investigation now reflects the new triples:
        // results must equal a fresh session over the rebuilt union
        s.apply(UserAction::RemoveSeed { entity: seed });
        s.click_entity(seed);
        let after: Vec<EntityId> = s.view().entities.iter().map(|re| re.entity).collect();

        let mut union = base();
        union.apply(&delta);
        let one = ShardedGraph::from(union.clone());
        let mut fresh = Session::with_defaults(&one);
        fresh.click_entity(seed);
        let want: Vec<EntityId> = fresh.view().entities.iter().map(|re| re.entity).collect();
        assert_eq!(after, want, "post-append view must match the rebuilt union");
        let new_film = union.entity("Fresh_Live_Film").unwrap();
        assert!(
            after.contains(&new_film),
            "the appended film must surface in the recommendations"
        );
    }

    #[test]
    fn non_recomputing_actions_preserve_the_view() {
        // a duplicate click is a no-op and a lookup only sets the focus
        // — neither may wipe the recommendation area (regression: the
        // transient session must inherit the full rendered view, not
        // start from empty)
        let kg = base();
        let seed = film_seed(&kg);
        let live = LiveStore::with_threads(base(), 1);
        let mut s = LiveSession::new(&live, SessionConfig::default());
        s.click_entity(seed);
        let before: Vec<EntityId> = s.view().entities.iter().map(|re| re.entity).collect();
        assert!(!before.is_empty());

        s.click_entity(seed); // duplicate: no-op in a plain Session
        let after_dup: Vec<EntityId> = s.view().entities.iter().map(|re| re.entity).collect();
        assert_eq!(before, after_dup, "duplicate click must not wipe the view");

        s.apply(UserAction::LookupEntity { entity: seed });
        assert!(s.view().focus.is_some(), "lookup fills the focus");
        let after_lookup: Vec<EntityId> = s.view().entities.iter().map(|re| re.entity).collect();
        assert_eq!(before, after_lookup, "lookup must keep the entities");
    }

    #[test]
    fn replay_live_reproduces_growth_and_rankings() {
        let kg = base();
        let seed = film_seed(&kg);
        let live = LiveStore::with_threads(base(), 1);
        let mut original = LiveSession::new(&live, SessionConfig::default());
        original.click_entity(seed);
        original
            .append(&delta_for(&kg, seed))
            .expect("store healthy");
        original.apply(UserAction::RemoveSeed { entity: seed });
        original.click_entity(seed);

        // serialize the full event log (appends included) and replay it
        // onto a fresh live store built from the same base
        let log = LiveLog::from_json(&original.events().to_json()).unwrap();
        assert_eq!(&log, original.events());
        let live2 = LiveStore::with_threads(base(), 1);
        let replayed = crate::replay::replay_live(&live2, SessionConfig::default(), &log);

        assert_eq!(live2.generation(), 1, "the append replayed");
        assert_eq!(replayed.state().timeline, original.state().timeline);
        assert_eq!(
            replayed
                .view()
                .entities
                .iter()
                .map(|re| (re.entity, re.score))
                .collect::<Vec<_>>(),
            original
                .view()
                .entities
                .iter()
                .map(|re| (re.entity, re.score))
                .collect::<Vec<_>>(),
            "live replay must reproduce rankings bit-identically"
        );
    }

    #[test]
    fn sharded_session_survives_a_mid_session_compaction() {
        let kg = base();
        let seed = film_seed(&kg);
        let delta = delta_for(&kg, seed);

        // live path: investigate, append (new trailing shard), compact,
        // re-investigate — all through the ONE unified session type
        let live = LiveStore::with_threads(ShardedGraph::from_graph(&base(), 3), 1);
        let mut s = LiveSession::new(&live, SessionConfig::default());
        s.click_entity(seed);
        let before: Vec<EntityId> = s.view().entities.iter().map(|re| re.entity).collect();
        s.append(&delta).expect("store healthy");
        assert_eq!(live.shard_count(), 4, "append minted a trailing shard");
        let receipt = s.compact(2).expect("store healthy");
        assert_eq!(receipt.shards_after, 2);
        assert_eq!(live.shard_count(), 2);
        // like an append, a compaction does not change the view until
        // the next action — and the durable state is untouched
        let unchanged: Vec<EntityId> = s.view().entities.iter().map(|re| re.entity).collect();
        assert_eq!(before, unchanged);
        assert_eq!(s.state().timeline.len(), 1);
        s.apply(UserAction::RemoveSeed { entity: seed });
        s.click_entity(seed);
        let after: Vec<(EntityId, f64)> = s
            .view()
            .entities
            .iter()
            .map(|re| (re.entity, re.score))
            .collect();

        // ground truth: a fresh sharded session over the rebuilt union
        // at the compacted shard count
        let mut union = base();
        union.apply(&delta);
        let usg = ShardedGraph::from_graph(&union, 2);
        let mut fresh = Session::with_defaults(&usg);
        fresh.click_entity(seed);
        let want: Vec<(EntityId, f64)> = fresh
            .view()
            .entities
            .iter()
            .map(|re| (re.entity, re.score))
            .collect();
        assert_eq!(
            after, want,
            "post-compaction view must match a fresh partition of the union"
        );
        let new_film = union.entity("Fresh_Live_Film").unwrap();
        assert!(after.iter().any(|&(e, _)| e == new_film));
        assert_eq!(s.events().len(), 5, "3 actions + append + compact");
    }

    #[test]
    fn replay_live_reproduces_growth_and_compaction_on_both_layouts() {
        let kg = base();
        let seed = film_seed(&kg);
        let live = LiveStore::with_threads(ShardedGraph::from_graph(&base(), 3), 1);
        let mut original = LiveSession::new(&live, SessionConfig::default());
        original.click_entity(seed);
        original
            .append(&delta_for(&kg, seed))
            .expect("store healthy");
        original.compact(2).expect("store healthy");
        original.apply(UserAction::RemoveSeed { entity: seed });
        original.click_entity(seed);

        // serialize the full event log (append + compact included) and
        // replay it onto a fresh live partition of the same base
        let log = LiveLog::from_json(&original.events().to_json()).unwrap();
        assert_eq!(&log, original.events());
        assert!(log
            .events
            .iter()
            .any(|e| matches!(e, LiveEvent::Compact { target_shards: 2 })));
        let live2 = LiveStore::with_threads(ShardedGraph::from_graph(&base(), 3), 1);
        let replayed = crate::replay::replay_live(&live2, SessionConfig::default(), &log);
        assert_eq!(live2.shard_count(), 2, "the compaction replayed");
        assert_eq!(live2.generation(), 2, "append + compaction");
        assert_eq!(replayed.state().timeline, original.state().timeline);
        assert_eq!(
            replayed
                .view()
                .entities
                .iter()
                .map(|re| (re.entity, re.score))
                .collect::<Vec<_>>(),
            original
                .view()
                .entities
                .iter()
                .map(|re| (re.entity, re.score))
                .collect::<Vec<_>>(),
            "sharded live replay must reproduce rankings bit-identically"
        );

        // the same log replays onto a one-shard store too: the append
        // grows the shard in place, Compact is the identity there, and
        // rankings still land bit-identically
        let live3 = LiveStore::with_threads(base(), 1);
        let on_single = crate::replay::replay_live(&live3, SessionConfig::default(), &log);
        assert_eq!(live3.generation(), 1, "only the append applies");
        assert_eq!(live3.shard_count(), 1);
        assert_eq!(
            on_single
                .view()
                .entities
                .iter()
                .map(|re| (re.entity, re.score))
                .collect::<Vec<_>>(),
            original
                .view()
                .entities
                .iter()
                .map(|re| (re.entity, re.score))
                .collect::<Vec<_>>(),
            "a compaction-bearing log must replay identically on one shard"
        );
    }

    #[test]
    fn sharded_search_reindexes_touched_and_appended_shards_lazily() {
        let kg = base();
        let seed = film_seed(&kg);
        let live = LiveStore::with_threads(ShardedGraph::from_graph(&base(), 3), 1);
        let mut s = LiveSession::new(&live, SessionConfig::default());
        s.submit_keywords(&kg.display_name(seed));
        let Some(SearchTags {
            epoch,
            shard_generations,
        }) = s.search_tags()
        else {
            panic!("sharded store must cache a per-shard engine set");
        };
        assert_eq!(
            (epoch, shard_generations.len()),
            (0, 3),
            "one engine per shard"
        );

        let mut d = DeltaBatch::new();
        d.triple(
            "Fresh_Search_Film",
            "starring",
            kg.entity_name(seed).to_owned(),
        )
        .typed("Fresh_Search_Film", "Film")
        .label("Fresh_Search_Film", "Zanzibar Premiere");
        s.append(&d).expect("store healthy");

        // the next action re-indexes only the delta-touched shards and
        // the appended tail — and the new film is immediately findable
        let view = s.submit_keywords("Zanzibar Premiere");
        let fresh = {
            let reader = live.read();
            reader.backend().entity("Fresh_Search_Film").unwrap()
        };
        assert!(
            view.entities.iter().any(|re| re.entity == fresh),
            "appended film must be searchable at the next action"
        );
        let Some(SearchTags {
            epoch,
            shard_generations,
        }) = s.search_tags()
        else {
            panic!("still sharded");
        };
        assert_eq!(epoch, 0, "appends do not change the epoch");
        assert_eq!(
            shard_generations.len(),
            4,
            "trailing shard gained an engine"
        );
        {
            let reader = live.read();
            for (i, shard) in reader.backend().shards().iter().enumerate() {
                assert_eq!(
                    shard_generations[i],
                    shard.graph().generation(),
                    "engine {i} must be tagged with its shard's local generation"
                );
            }
            // the untouched shards were NOT re-indexed: their local
            // generation never moved, so their tags still read 0
            assert!(
                shard_generations.contains(&0),
                "some shard must have been untouched by the delta"
            );
        }

        // compaction starts a new epoch: wholesale re-index, same answers
        s.compact(2).expect("store healthy");
        let view = s.submit_keywords("Zanzibar Premiere");
        assert!(view.entities.iter().any(|re| re.entity == fresh));
        let Some(SearchTags {
            epoch,
            shard_generations,
        }) = s.search_tags()
        else {
            panic!("still sharded");
        };
        assert_eq!(epoch, 1, "compaction bumps the epoch");
        assert_eq!(shard_generations.len(), 2, "one engine per compacted shard");
    }

    #[test]
    fn timeline_and_path_survive_appends() {
        let kg = base();
        let seed = film_seed(&kg);
        let live = LiveStore::with_threads(base(), 1);
        let mut s = LiveSession::new(&live, SessionConfig::default());
        s.submit_keywords(&kg.display_name(seed));
        s.append(&delta_for(&kg, seed)).expect("store healthy");
        s.click_entity(seed);
        assert_eq!(s.state().timeline.len(), 2, "search + investigate");
        assert_eq!(s.action_log().len(), 2);
        assert_eq!(s.events().len(), 3, "two actions + one append");
        // the search index is tagged with the store's current version
        let want = {
            let reader = live.read();
            let sg = reader.backend();
            SearchTags {
                epoch: sg.compaction_epoch(),
                shard_generations: sg.shards().iter().map(|s| s.graph().generation()).collect(),
            }
        };
        assert_eq!(s.search_tags(), Some(want));
    }

    /// The prepared-snapshot search path answers bit-identically to the
    /// lock path, and the built engines attach to the snapshot exactly
    /// once — the second search reuses the attached backend (same
    /// engine allocation) instead of consulting the cache again.
    #[test]
    fn search_prepared_matches_lock_path_and_attaches_once() {
        for shards in [1usize, 3] {
            let kg = base();
            let live = if shards == 1 {
                LiveStore::with_threads(kg.clone(), 1)
            } else {
                LiveStore::with_threads(ShardedGraph::from_graph(&kg, shards), 1)
            };
            live.enable_snapshots();
            let cache = LiveSearchCache::new(SearchConfig::default());

            let want = cache.search(&live, "film", 10);
            let snap = live.snapshot().expect("snapshots enabled");
            assert!(snap.attached_search().is_none());
            let got = cache.search_prepared(&snap, "film", 10);
            assert_eq!(got, want, "shards={shards}");
            assert!(snap.attached_search().is_some(), "first search attaches");

            // second search on the same snapshot reuses the attachment:
            // the backends share the same engine allocation
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

    /// The background warmer attaches engines to freshly published
    /// snapshots off the request path: after a write, the request thread
    /// finds the index prebuilt.
    #[test]
    fn search_warmer_prebuilds_engines_off_the_request_path() {
        let live = Arc::new(LiveStore::with_threads(base(), 1));
        live.enable_snapshots();
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
        assert!(warmer.warmed() >= 1);
        warmer.stop();
        let snap = live.snapshot().unwrap();
        let hits = cache.search_prepared(&snap, "Warmed Film", 5);
        assert!(!hits.is_empty());
    }
}
