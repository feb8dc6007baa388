//! The server: a `std::net::TcpListener` + worker-thread pool around one
//! shared [`LiveStore`].
//!
//! Every worker accepts connections from the same (non-blocking)
//! listener and serves one connection at a time, line by line: read a
//! request line, execute it against the store's published
//! generation-pinned snapshot (reads and `stats` never take the store
//! lock), write one response line, flush. All workers share
//!
//! - one [`LiveStore`] (graph + the generation-stamped `p(π|c)`
//!   [`SharedCache`](pivote_core::SharedCache)), so a density memoized
//!   for any connection is a hit for every later query on any
//!   connection, and
//! - one [`LiveSearchCache`], so the keyword index is built once per
//!   store generation, not once per request.
//!
//! The server also owns the background [`MaintenanceHandle`] (when
//! configured): compaction is scheduled off every request path, exactly
//! as the library contract prescribes.
//!
//! **Shutdown semantics.** A `{"op":"shutdown"}` request is
//! acknowledged, then the server stops accepting; in-flight connections
//! finish their current request. [`Server::shutdown`] (the graceful
//! path) persists the density cache as a warm-state sidecar
//! ([`pivote_core::save_warm_state`]) when a `warm_path` is configured,
//! so the next process starts with every memoized density intact —
//! [`store_with_warm_state`] is the matching startup half. Dropping the
//! [`Server`] without calling `shutdown` is the *kill* path: threads are
//! joined but nothing is persisted.
//!
//! A panic while serving one request poisons nothing global: writes
//! fail closed per the store's poisoning policy
//! ([`pivote_core::StoreError`]) and reads keep answering, so the
//! process keeps serving the last consistent snapshot.

use crate::protocol::{scored_names, Reply, Request};
use pivote_core::{
    load_warm_state, save_warm_state, Expander, HeatMap, LiveStore, MaintenanceHandle,
    PreparedSnapshot, RankingConfig, SfQuery, WarmStateError,
};
use pivote_explore::{LiveSearchCache, SearchWarmer};
use pivote_kg::{parse_into_delta, parse_removed_into_delta, CompactionPolicy, GraphBackend};
use pivote_search::SearchConfig;
use serde::Value;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Background compaction driven by the server's own
/// [`MaintenanceHandle`].
#[derive(Debug, Clone)]
pub struct MaintenanceConfig {
    /// When the tail is degenerate enough to repartition.
    pub policy: CompactionPolicy,
    /// Shard count a compaction pass re-partitions to.
    pub target_shards: usize,
    /// Poll interval of the maintenance thread.
    pub tick: Duration,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads accepting and serving connections.
    pub workers: usize,
    /// Ranking model configuration shared by rank/expand/heatmap.
    pub ranking: RankingConfig,
    /// Keyword-search engine configuration.
    pub search: SearchConfig,
    /// Warm-state sidecar persisted by [`Server::shutdown`]; `None`
    /// skips persistence (pair with [`store_with_warm_state`] at
    /// startup).
    pub warm_path: Option<PathBuf>,
    /// Background compaction; `None` leaves the partition to grow.
    pub maintenance: Option<MaintenanceConfig>,
    /// Serve reads only: `append`/`retract` are answered with a
    /// per-request error instead of mutating the store. The replica
    /// server mode — a follower's store is written exclusively by the
    /// delta-log tailer, never by clients.
    pub read_only: bool,
    /// How long a connection may sit without delivering a complete
    /// request line before the worker closes it and serves someone
    /// else. Bounds the damage of idle (and slow-loris) clients: with
    /// `workers` connections each pinned by a silent peer, the pool
    /// would otherwise starve forever.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            ranking: RankingConfig::default(),
            search: SearchConfig::default(),
            warm_path: None,
            maintenance: None,
            read_only: false,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// What a graceful [`Server::shutdown`] did.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Store generation at shutdown.
    pub generation: u64,
    /// Densities persisted to the warm sidecar (`None` when no
    /// `warm_path` was configured or the save failed).
    pub warm_densities_saved: Option<usize>,
    /// The warm-state save error, when one occurred.
    pub warm_error: Option<WarmStateError>,
}

/// The snapshot fingerprint of whatever layout the backend holds — the
/// pairing key between a graph and its warm-state sidecar. The sharded
/// layout fingerprints its union rebuild, which by the append==rebuild
/// guarantee equals the single graph over the same logical content.
pub fn backend_fingerprint(backend: &GraphBackend) -> u64 {
    backend.fingerprint()
}

/// Open a [`LiveStore`] over `backend`, resuming the density cache from
/// the warm-state sidecar at `warm_path` when it matches this graph.
/// Returns the store and whether it started warm; any sidecar problem
/// (missing file, stale fingerprint, corrupt bytes) silently starts
/// cold — the sidecar is a latency artifact, never a correctness input.
pub fn store_with_warm_state(
    backend: impl Into<GraphBackend>,
    threads: usize,
    warm_path: &Path,
) -> (Arc<LiveStore>, bool) {
    let backend = backend.into();
    let fp = backend_fingerprint(&backend);
    match load_warm_state(warm_path, fp) {
        Ok(cache) => (
            Arc::new(LiveStore::with_cache(backend, threads, cache)),
            true,
        ),
        Err(_) => (Arc::new(LiveStore::with_threads(backend, threads)), false),
    }
}

/// How many canonicalized responses the per-generation memo holds
/// before evicting the least recently used one.
const MEMO_CAPACITY: usize = 256;

/// A bounded, generation-keyed memo of rendered responses for the
/// deterministic read ops (rank / expand / heatmap / search). Keyed by
/// the parsed request's canonical `Debug` form — two raw lines that
/// parse to the same request share one entry regardless of key order —
/// and dropped **wholesale** the moment a response for a newer
/// generation is observed: a memoized answer is only ever served at the
/// exact generation it was computed at, so memoized and fresh responses
/// are bit-identical by construction.
struct ResponseMemo {
    /// Store generation every held entry was computed at.
    generation: u64,
    /// LRU clock; bumped per touch.
    stamp: u64,
    /// canonical request → (last-touched stamp, rendered response).
    entries: HashMap<String, (u64, String)>,
}

impl ResponseMemo {
    fn new() -> Self {
        Self {
            generation: 0,
            stamp: 0,
            entries: HashMap::new(),
        }
    }

    /// Drop everything when `generation` moved past the held one.
    fn roll_to(&mut self, generation: u64) {
        if self.generation != generation {
            self.generation = generation;
            self.entries.clear();
        }
    }

    fn get(&mut self, generation: u64, key: &str) -> Option<String> {
        self.roll_to(generation);
        self.stamp += 1;
        let stamp = self.stamp;
        self.entries.get_mut(key).map(|(touched, response)| {
            *touched = stamp;
            response.clone()
        })
    }

    fn insert(&mut self, generation: u64, key: String, response: String) {
        self.roll_to(generation);
        if self.entries.len() >= MEMO_CAPACITY && !self.entries.contains_key(&key) {
            // O(capacity) min-scan eviction: at 256 entries that is
            // noise next to rendering one response
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (touched, _))| *touched)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        self.stamp += 1;
        self.entries.insert(key, (self.stamp, response));
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

struct Shared {
    store: Arc<LiveStore>,
    search: Arc<LiveSearchCache>,
    ranking: RankingConfig,
    shutdown: AtomicBool,
    read_only: bool,
    idle_timeout: Duration,
    memo: Mutex<ResponseMemo>,
    /// Deterministic read responses served straight from the memo.
    memo_hits: AtomicU64,
    /// Deterministic read responses that had to be computed.
    memo_misses: AtomicU64,
    /// Handle to the [`SearchWarmer`] thread. The write path unparks it
    /// right after publishing a new generation so the engine rebuild
    /// starts immediately instead of at the warmer's next tick —
    /// requests arriving behind a write then park on the snapshot's
    /// build slot and share the result, rather than racing the warmer
    /// with a duplicate build.
    warm_waker: std::thread::Thread,
}

impl Shared {
    /// The published snapshot every read (and `stats`) answers from: one
    /// read-and-clone of the publication slot, never the store lock.
    fn snapshot(&self) -> Arc<PreparedSnapshot> {
        self.store
            .snapshot()
            .expect("Server::bind enabled snapshot publication")
    }
}

/// A running server. Keep it alive for as long as you serve; consume it
/// with [`Server::shutdown`] for the graceful (warm-state-persisting)
/// stop, or drop it for the kill path.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
    maintenance: Option<MaintenanceHandle>,
    warmer: SearchWarmer,
    warm_path: Option<PathBuf>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start the worker pool over `store`. The store is opted into
    /// prepared-snapshot publication — every read is served from a
    /// generation-pinned [`PreparedSnapshot`], never the store lock —
    /// and a background [`SearchWarmer`] pre-builds the keyword index
    /// for every new generation off the request path.
    ///
    /// The listener is bound *before* generation 0's search engines are
    /// built and the workers start, so a client that connects during
    /// boot is accepted by the kernel and waits in the listen backlog
    /// until the index exists. What the benchmark reports as
    /// `rank_p50_ms` on `bulk-load` is that wait — the remainder of the
    /// index build at the moment the probe connected — not scoring.
    pub fn bind(addr: &str, store: Arc<LiveStore>, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let search = Arc::new(LiveSearchCache::new(config.search));
        store.enable_snapshots();
        // build the initial generation's search engines before any
        // worker answers: the first search request must not pay the
        // full index build inline (a 33 ms head-of-line stall when it
        // did); later generations are rebuilt by the SearchWarmer
        let initial = store
            .snapshot()
            .expect("enable_snapshots publishes the current state");
        let _ = search.prepare(&initial);
        let warmer = SearchWarmer::spawn(
            Arc::clone(&store),
            Arc::clone(&search),
            Duration::from_millis(2),
        );
        let shared = Arc::new(Shared {
            store: Arc::clone(&store),
            search: Arc::clone(&search),
            ranking: config.ranking,
            shutdown: AtomicBool::new(false),
            read_only: config.read_only,
            idle_timeout: config.idle_timeout,
            memo: Mutex::new(ResponseMemo::new()),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            warm_waker: warmer.waker(),
        });
        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("pivote-serve-{i}"))
                    .spawn(move || worker_loop(&listener, &shared))?,
            );
        }
        let maintenance = config.maintenance.map(|m| {
            MaintenanceHandle::spawn(Arc::clone(&store), m.policy, m.target_shards, m.tick)
        });
        Ok(Server {
            shared,
            addr: local,
            workers,
            maintenance,
            warmer,
            warm_path: config.warm_path,
        })
    }

    /// The bound address (resolves the port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served store.
    pub fn store(&self) -> &Arc<LiveStore> {
        &self.shared.store
    }

    /// Whether a client has requested shutdown (or [`Server::shutdown`]
    /// began).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Block until a client issues `{"op":"shutdown"}`.
    pub fn wait_shutdown(&self) {
        while !self.shutdown_requested() {
            std::thread::park_timeout(Duration::from_millis(10));
        }
    }

    fn stop_threads(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(mut maintenance) = self.maintenance.take() {
            maintenance.stop();
        }
        self.warmer.stop();
    }

    /// Graceful stop: stop accepting, join every worker, stop
    /// maintenance, and persist the density cache to the configured
    /// warm-state sidecar so a restart serves warm from the first query.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.stop_threads();
        let store = &self.shared.store;
        let mut report = ShutdownReport {
            generation: store.generation(),
            warm_densities_saved: None,
            warm_error: None,
        };
        if let Some(path) = &self.warm_path {
            let fp = {
                let reader = store.read();
                backend_fingerprint(reader.backend())
            };
            match save_warm_state(store.cache(), fp, path) {
                Ok(()) => {
                    report.warm_densities_saved = Some(store.cache().cached_probability_count());
                }
                Err(e) => report.warm_error = Some(e),
            }
        }
        report
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // the kill path: join threads, persist nothing
        self.stop_threads();
    }
}

fn worker_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // a broken connection is the client's problem, not the
                // server's: drop it and accept the next one
                let _ = handle_conn(stream, shared);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::park_timeout(Duration::from_millis(1));
            }
            Err(_) => std::thread::park_timeout(Duration::from_millis(1)),
        }
    }
}

/// How often a blocked read wakes to check for shutdown and count idle
/// time. The socket read timeout — NOT the idle budget (that is
/// [`ServeConfig::idle_timeout`]).
const READ_TICK: Duration = Duration::from_millis(25);

fn handle_conn(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    // without a read timeout, a client that connects and sends nothing
    // pins this worker in read_line forever — `workers` such clients
    // starve the whole pool and shutdown never reaches the thread
    stream.set_read_timeout(Some(READ_TICK))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // raw bytes, not a String: read_until keeps everything read so far
    // in the buffer across timeout retries, where read_line would drop
    // a partial read that happens to end mid-UTF-8-character
    let mut line = Vec::new();
    loop {
        line.clear();
        let mut idle = Duration::ZERO;
        // idle-retry loop: each timeout tick keeps the connection alive
        // (bytes already read stay accumulated in `line`), frees the
        // worker to notice shutdown, and charges the tick against the
        // idle budget. A connection must deliver a complete request line
        // within `idle_timeout`, which also caps a slow-loris trickling
        // bytes below line speed.
        let n = loop {
            match reader.read_until(b'\n', &mut line) {
                Ok(n) => break n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    idle += READ_TICK;
                    if idle >= shared.idle_timeout {
                        return Ok(()); // idle client: free the worker
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        if n == 0 && line.is_empty() {
            return Ok(()); // client hung up
        }
        let text = std::str::from_utf8(&line)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "request is not UTF-8"))?;
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        let response = handle_request(shared, trimmed);
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

/// Serve one request line. Any panic a request provokes below the
/// protocol layer is caught here and answered as `{"ok":false,...}` —
/// a hostile request may cost itself an error, never a worker thread.
/// (Writes stay safe to catch: a writer panic poisons the store lock
/// and later writes fail closed per [`pivote_core::StoreError`].)
fn handle_request(shared: &Shared, line: &str) -> String {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dispatch(shared, line)))
        .unwrap_or_else(|_| Reply::error("internal error serving this request").render())
}

fn dispatch(shared: &Shared, line: &str) -> String {
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(message) => return Reply::error(message).render(),
    };
    if request.is_deterministic_read() {
        return serve_read(shared, &request);
    }
    match request {
        Request::Rank { .. }
        | Request::Expand { .. }
        | Request::Heatmap { .. }
        | Request::Search { .. } => unreachable!("deterministic reads served above"),
        Request::Append { ntriples } => {
            if shared.read_only {
                Reply::error("read-only replica: writes go to the leader").render()
            } else {
                op_append(shared, &ntriples)
            }
        }
        Request::Retract { ntriples } => {
            if shared.read_only {
                Reply::error("read-only replica: writes go to the leader").render()
            } else {
                op_retract(shared, &ntriples)
            }
        }
        Request::Stats => op_stats(shared),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Reply::ok().with("stopping", Value::Bool(true)).render()
        }
    }
}

/// Serve one deterministic read op through the published snapshot and
/// the response memo. The generation is pinned **before** the memo
/// probe, so a memoized response is only ever replayed at the exact
/// generation it was rendered at — bit-identical to recomputing it
/// there.
fn serve_read(shared: &Shared, request: &Request) -> String {
    let ctx = shared.snapshot();
    let generation = ctx.generation();
    // the parsed request's Debug form is the canonical key: raw lines
    // with different key order or whitespace collapse to one entry
    let key = format!("{request:?}");
    if let Some(hit) = {
        let mut memo = shared.memo.lock().unwrap_or_else(|p| p.into_inner());
        memo.get(generation, &key)
    } {
        shared.memo_hits.fetch_add(1, Ordering::Relaxed);
        return hit;
    }
    shared.memo_misses.fetch_add(1, Ordering::Relaxed);
    let response = compute_read(shared, &ctx, request);
    let mut memo = shared.memo.lock().unwrap_or_else(|p| p.into_inner());
    memo.insert(generation, key, response.clone());
    response
}

/// Compute one deterministic read against an already-acquired snapshot.
fn compute_read(shared: &Shared, ctx: &PreparedSnapshot, request: &Request) -> String {
    match request {
        Request::Rank {
            seeds,
            k_features,
            k_entities,
        } => op_rank(shared, ctx, seeds, *k_features, *k_entities),
        Request::Expand {
            seeds,
            type_filter,
            k,
        } => op_expand(shared, ctx, seeds, type_filter.as_deref(), *k),
        Request::Heatmap {
            seeds,
            k_features,
            k_entities,
        } => op_heatmap(shared, ctx, seeds, *k_features, *k_entities),
        Request::Search { query, k } => op_search(shared, ctx, query, *k),
        _ => unreachable!("compute_read only handles deterministic reads"),
    }
}

/// Resolve seed names against one snapshot, erroring on the first
/// unknown name.
fn resolve_seeds(
    handle: &pivote_core::GraphHandle<'_>,
    seeds: &[String],
) -> Result<Vec<pivote_kg::EntityId>, String> {
    if seeds.is_empty() {
        return Err("`seeds` must not be empty".to_owned());
    }
    seeds
        .iter()
        .map(|name| {
            handle
                .entity(name)
                .ok_or_else(|| format!("unknown entity {name:?}"))
        })
        .collect()
}

fn op_rank(
    shared: &Shared,
    ctx: &PreparedSnapshot,
    seeds: &[String],
    k_features: usize,
    k_entities: usize,
) -> String {
    let handle = ctx.handle();
    let ids = match resolve_seeds(&handle, seeds) {
        Ok(ids) => ids,
        Err(message) => return Reply::error(message).render(),
    };
    let expander = Expander::with_handle(handle.clone(), shared.ranking);
    let res = expander.expand(&SfQuery::from_seeds(ids), k_entities, k_features);
    Reply::ok()
        .num("generation", ctx.generation())
        .with(
            "features",
            scored_names(
                res.features
                    .iter()
                    .map(|rf| (handle.feature_display(rf.feature), rf.score)),
            ),
        )
        .with(
            "entities",
            scored_names(
                res.entities
                    .iter()
                    .map(|re| (handle.entity_name(re.entity).to_owned(), re.score)),
            ),
        )
        .render()
}

fn op_expand(
    shared: &Shared,
    ctx: &PreparedSnapshot,
    seeds: &[String],
    type_filter: Option<&str>,
    k: usize,
) -> String {
    let handle = ctx.handle();
    let ids = match resolve_seeds(&handle, seeds) {
        Ok(ids) => ids,
        Err(message) => return Reply::error(message).render(),
    };
    let mut query = SfQuery::from_seeds(ids);
    if let Some(name) = type_filter {
        match handle.type_id(name) {
            Some(t) => query = query.with_type(t),
            None => return Reply::error(format!("unknown type {name:?}")).render(),
        }
    }
    let expander = Expander::with_handle(handle.clone(), shared.ranking);
    let res = expander.expand(&query, k, k);
    Reply::ok()
        .num("generation", ctx.generation())
        .with(
            "entities",
            scored_names(
                res.entities
                    .iter()
                    .map(|re| (handle.entity_name(re.entity).to_owned(), re.score)),
            ),
        )
        .render()
}

fn op_heatmap(
    shared: &Shared,
    ctx: &PreparedSnapshot,
    seeds: &[String],
    k_features: usize,
    k_entities: usize,
) -> String {
    let handle = ctx.handle();
    let ids = match resolve_seeds(&handle, seeds) {
        Ok(ids) => ids,
        Err(message) => return Reply::error(message).render(),
    };
    let expander = Expander::with_handle(handle.clone(), shared.ranking);
    let res = expander.expand(&SfQuery::from_seeds(ids), k_entities, k_features);
    let axis: Vec<pivote_kg::EntityId> = res.entities.iter().map(|re| re.entity).collect();
    let hm = HeatMap::compute(expander.ranker(), &axis, &res.features);
    Reply::ok()
        .num("generation", ctx.generation())
        .with(
            "features",
            Value::Arr(
                res.features
                    .iter()
                    .map(|rf| Value::Str(handle.feature_display(rf.feature)))
                    .collect(),
            ),
        )
        .with(
            "entities",
            Value::Arr(
                axis.iter()
                    .map(|&e| Value::Str(handle.entity_name(e).to_owned()))
                    .collect(),
            ),
        )
        .with(
            "levels",
            Value::Arr(
                (0..hm.height())
                    .map(|row| {
                        Value::Arr(
                            (0..hm.width())
                                .map(|col| Value::Num(f64::from(hm.level(row, col))))
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        )
        .with(
            "values",
            Value::Arr(
                (0..hm.height())
                    .map(|row| {
                        Value::Arr(
                            (0..hm.width())
                                .map(|col| Value::Num(hm.value(row, col)))
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        )
        .render()
}

fn op_search(shared: &Shared, ctx: &PreparedSnapshot, query: &str, k: usize) -> String {
    // searches the pinned backend with engines attached to the snapshot
    // (usually prebuilt by the warmer), so hits, names and generation
    // all come from one immutable state
    let hits = shared.search.search_prepared(ctx, query, k);
    // entity names are append-only and ids are stable, so resolving the
    // hit names against this context can never mislabel a hit
    let handle = ctx.handle();
    Reply::ok()
        .num("generation", ctx.generation())
        .with(
            "hits",
            scored_names(
                hits.iter()
                    .map(|h| (handle.entity_name(h.entity).to_owned(), h.score)),
            ),
        )
        .render()
}

fn op_append(shared: &Shared, ntriples: &str) -> String {
    let delta = match parse_into_delta(ntriples) {
        Ok(delta) => delta,
        Err(e) => {
            // the parser's 1-based line within the submitted body
            return Reply::error(format!("N-Triples parse error: {}", e.message))
                .num("line", e.line as u64)
                .render();
        }
    };
    match shared.store.append(&delta) {
        Ok(applied) => {
            shared.warm_waker.unpark();
            Reply::ok()
                .num("generation", applied.generation)
                .num(
                    "new_entities",
                    u64::from(applied.new_entities.end - applied.new_entities.start),
                )
                .num("added_relations", applied.added_relations as u64)
                .num("added_literals", applied.added_literals as u64)
                .render()
        }
        Err(e) => Reply::error(e.to_string()).render(),
    }
}

fn op_retract(shared: &Shared, ntriples: &str) -> String {
    let delta = match parse_removed_into_delta(ntriples) {
        Ok(delta) => delta,
        Err(e) => {
            // the parser's 1-based line within the submitted body
            return Reply::error(format!("N-Triples parse error: {}", e.message))
                .num("line", e.line as u64)
                .render();
        }
    };
    match shared.store.append(&delta) {
        Ok(applied) => {
            shared.warm_waker.unpark();
            let removed =
                applied.removed_relations + applied.removed_literals + applied.removed_assertions;
            if removed == 0 && !delta.ops().is_empty() {
                // deleting nothing that exists is the client's error, and
                // answering it must not take the connection down
                return Reply::error("no stored statement matched the retract body")
                    .num("generation", applied.generation)
                    .render();
            }
            Reply::ok()
                .num("generation", applied.generation)
                .num("removed_relations", applied.removed_relations as u64)
                .num("removed_literals", applied.removed_literals as u64)
                .num("removed_assertions", applied.removed_assertions as u64)
                .render()
        }
        Err(e) => Reply::error(e.to_string()).render(),
    }
}

/// Answered from the published snapshot, like every read: a probe never
/// queues behind an append doing WAL IO under the write lock, and never
/// delays the next writer. Publication happens under the write lock
/// after apply, so these never lag a completed write and agree with the
/// generation the read ops answer at.
fn op_stats(shared: &Shared) -> String {
    let store = &shared.store;
    let snap = shared.snapshot();
    let backend = snap.backend();
    Reply::ok()
        .num("generation", snap.generation())
        .num("shard_count", backend.shard_count() as u64)
        .num("trailing_shards", backend.trailing_shard_count() as u64)
        .num("entities", backend.entity_count() as u64)
        .num(
            "cached_probabilities",
            store.cache().cached_probability_count() as u64,
        )
        .num("cache_generation", store.cache().generation())
        .with("poisoned", Value::Bool(store.is_poisoned()))
        .with("read_only", Value::Bool(shared.read_only))
        .num("memo_hits", shared.memo_hits.load(Ordering::Relaxed))
        .num("memo_misses", shared.memo_misses.load(Ordering::Relaxed))
        .num(
            "memo_entries",
            shared.memo.lock().unwrap_or_else(|p| p.into_inner()).len() as u64,
        )
        .render()
}
