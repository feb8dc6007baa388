//! The server: a `std::net::TcpListener` + worker-thread pool around one
//! shared [`Service`] — sockets, line framing and shutdown, nothing else.
//!
//! Every worker accepts connections from the same (non-blocking)
//! listener and serves one connection at a time, line by line: read a
//! request line, answer it with [`Service::call`], write one response
//! line, flush. The listener is bound only after [`Service::new`]
//! returns, so the kernel accepts a connection only once generation 0's
//! engines exist and a request can be answered.
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

use crate::service::Service;
use pivote_core::{load_warm_state, save_warm_state, LiveStore, WarmStateError};
use pivote_kg::ShardedGraph;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads accepting and serving connections.
    pub workers: usize,
    /// Warm-state sidecar persisted by [`Server::shutdown`]; `None`
    /// skips persistence (pair with [`store_with_warm_state`] at
    /// startup).
    pub warm_path: Option<PathBuf>,
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
            warm_path: None,
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

/// Open a [`LiveStore`] over `backend`, resuming the density cache from
/// the warm-state sidecar at `warm_path` when it matches this graph.
/// Returns the store and whether it started warm; any sidecar problem
/// (missing file, stale fingerprint, corrupt bytes) silently starts
/// cold — the sidecar is a latency artifact, never a correctness input.
pub fn store_with_warm_state(
    backend: impl Into<ShardedGraph>,
    threads: usize,
    warm_path: &Path,
) -> (Arc<LiveStore>, bool) {
    let backend = backend.into();
    match load_warm_state(warm_path, backend.fingerprint()) {
        Ok(cache) => (
            Arc::new(LiveStore::with_cache(backend, threads, cache)),
            true,
        ),
        Err(_) => (Arc::new(LiveStore::with_threads(backend, threads)), false),
    }
}

/// A running server. Keep it alive for as long as you serve; consume it
/// with [`Server::shutdown`] for the graceful (warm-state-persisting)
/// stop, or drop it for the kill path.
pub struct Server {
    service: Arc<Service>,
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
    warm_path: Option<PathBuf>,
}

impl Server {
    /// Build the [`Service`] over `store` (snapshot publication on,
    /// generation 0's search engines built, the warmer running), *then*
    /// bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// the worker pool. A client that connects before this returns is
    /// refused, never parked in the listen backlog behind the index
    /// build: readiness is a state, not a wait.
    pub fn bind(addr: &str, store: Arc<LiveStore>, config: ServeConfig) -> io::Result<Server> {
        let service = Arc::new(Service::new(store, config.read_only));
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let listener = listener.try_clone()?;
            let service = Arc::clone(&service);
            let idle_timeout = config.idle_timeout;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("pivote-serve-{i}"))
                    .spawn(move || worker_loop(&listener, &service, idle_timeout))?,
            );
        }
        Ok(Server {
            service,
            addr: local,
            workers,
            warm_path: config.warm_path,
        })
    }

    /// The bound address (resolves the port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service every worker answers through.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// The served store.
    pub fn store(&self) -> &Arc<LiveStore> {
        self.service.store()
    }

    /// Whether a client has requested shutdown (or [`Server::shutdown`]
    /// began).
    pub fn shutdown_requested(&self) -> bool {
        self.service.shutdown_requested()
    }

    /// Block until a client issues `{"op":"shutdown"}`.
    pub fn wait_shutdown(&self) {
        while !self.shutdown_requested() {
            std::thread::park_timeout(Duration::from_millis(10));
        }
    }

    fn stop_threads(&mut self) {
        self.service.request_shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Graceful stop: stop accepting, join every worker, and persist the
    /// density cache to the configured warm-state sidecar so a restart
    /// serves warm from the first query.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.stop_threads();
        let store = self.store();
        let mut report = ShutdownReport {
            generation: store.generation(),
            warm_densities_saved: None,
            warm_error: None,
        };
        if let Some(path) = &self.warm_path {
            let fp = store.read().backend().fingerprint();
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
        // the kill path: join threads, persist nothing (the warmer stops
        // with the last handle on the service)
        self.stop_threads();
    }
}

fn worker_loop(listener: &TcpListener, service: &Service, idle_timeout: Duration) {
    while !service.shutdown_requested() {
        match listener.accept() {
            Ok((stream, _)) => {
                // a broken connection is the client's problem, not the
                // server's: drop it and accept the next one
                let _ = handle_conn(stream, service, idle_timeout);
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

fn handle_conn(stream: TcpStream, service: &Service, idle_timeout: Duration) -> io::Result<()> {
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
                    if service.shutdown_requested() {
                        return Ok(());
                    }
                    idle += READ_TICK;
                    if idle >= idle_timeout {
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
        let response = service.call(trimmed);
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if service.shutdown_requested() {
            return Ok(());
        }
    }
}
