//! Standalone server binary.
//!
//! ```text
//! pivote-serve [--addr 127.0.0.1:7878] [--data graph.nt | --tiny]
//!              [--shards N] [--workers N] [--warm sidecar.warm]
//!              [--log deltas.wal | --replica deltas.wal]
//! ```
//!
//! Loads an N-Triples graph (or the tiny synthetic one), optionally
//! resumes the density cache from a warm-state sidecar, serves until a
//! client sends `{"op":"shutdown"}`, then persists the warm state back.
//!
//! `--log` makes this server a **leader**: every accepted append,
//! retract and compaction is recorded in a durable delta log before it
//! is applied. `--replica` makes it a read-only **follower** of such a
//! log: it tails the file in the background, refuses `append`/`retract`
//! over the wire, and serves reads that are fingerprint-equal to the
//! leader at every synced generation. The two flags are mutually
//! exclusive.

use pivote_core::{ReplicaHandle, ReplicaStore};
use pivote_kg::{generate, DatagenConfig, ShardedGraph};
use pivote_serve::{store_with_warm_state, ServeConfig, Server};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: String,
    data: Option<PathBuf>,
    shards: usize,
    workers: usize,
    warm: Option<PathBuf>,
    log: Option<PathBuf>,
    replica: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_owned(),
        data: None,
        shards: 1,
        workers: 4,
        warm: None,
        log: None,
        replica: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--data" => args.data = Some(PathBuf::from(value("--data")?)),
            "--tiny" => args.data = None,
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--warm" => args.warm = Some(PathBuf::from(value("--warm")?)),
            "--log" => args.log = Some(PathBuf::from(value("--log")?)),
            "--replica" => args.replica = Some(PathBuf::from(value("--replica")?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.log.is_some() && args.replica.is_some() {
        return Err("--log and --replica are mutually exclusive".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pivote-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let kg = match &args.data {
        Some(path) => {
            let nt = match std::fs::read_to_string(path) {
                Ok(nt) => nt,
                Err(e) => {
                    eprintln!("pivote-serve: cannot read {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            match pivote_kg::parse(&nt) {
                Ok(kg) => kg,
                Err(e) => {
                    eprintln!("pivote-serve: {}:{}: {}", path.display(), e.line, e.message);
                    return ExitCode::FAILURE;
                }
            }
        }
        None => generate(&DatagenConfig::tiny()),
    };
    // one shard wraps the parsed graph by move; more partition it
    let backend = if args.shards > 1 {
        ShardedGraph::from_graph(&kg, args.shards)
    } else {
        ShardedGraph::from(kg)
    };

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // follower: build the store from the delta log and keep tailing it
    // in the background for as long as the server runs
    let mut replica_handle: Option<ReplicaHandle> = None;
    let (store, warm) = if let Some(path) = &args.replica {
        let mut replica = match ReplicaStore::open(backend, threads, path) {
            Ok(replica) => replica,
            Err(e) => {
                eprintln!("pivote-serve: replica {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let caught_up = match replica.sync() {
            Ok(n) => n,
            Err(e) => {
                eprintln!("pivote-serve: replica sync {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "pivote-serve: replica caught up ({caught_up} records, generation {})",
            replica.synced_generation()
        );
        let handle = ReplicaHandle::spawn(replica, Duration::from_millis(20));
        let store = Arc::clone(handle.store());
        replica_handle = Some(handle);
        (store, false)
    } else {
        match &args.warm {
            Some(path) => store_with_warm_state(backend, threads, path),
            None => (
                Arc::new(pivote_core::LiveStore::with_threads(backend, threads)),
                false,
            ),
        }
    };

    // leader: record every accepted write in the delta log before it is
    // applied; an existing log is replayed first (crash recovery), then
    // appended to
    if let Some(path) = &args.log {
        if path.exists() {
            let report = match pivote_core::recover(
                {
                    let reader = store.read();
                    reader.backend().clone()
                },
                threads,
                path,
            ) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("pivote-serve: recover {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "pivote-serve: replayed {} logged records{}",
                report.records_applied,
                if report.truncated_tail {
                    " (torn tail record ignored)"
                } else {
                    ""
                }
            );
            let (writer, _torn) = match pivote_kg::WalWriter::resume(path) {
                Ok(resumed) => resumed,
                Err(e) => {
                    eprintln!("pivote-serve: resume log {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = report.store.attach_wal(writer) {
                eprintln!("pivote-serve: attach log {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            // replace the freshly-loaded store with the recovered one:
            // serve the replayed state, not the pre-crash snapshot
            return run(report.store, args, warm, replica_handle);
        }
        if let Err(e) = store.log_to(path) {
            eprintln!("pivote-serve: log {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    run(store, args, warm, replica_handle)
}

fn run(
    store: Arc<pivote_core::LiveStore>,
    args: Args,
    warm: bool,
    replica_handle: Option<ReplicaHandle>,
) -> ExitCode {
    let config = ServeConfig {
        workers: args.workers,
        warm_path: args.warm.clone(),
        read_only: replica_handle.is_some(),
        ..ServeConfig::default()
    };
    let server = match Server::bind(&args.addr, store, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("pivote-serve: bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "pivote-serve: listening on {} ({} start, {} workers)",
        server.local_addr(),
        if warm { "warm" } else { "cold" },
        args.workers,
    );
    server.wait_shutdown();
    let report = server.shutdown();
    if let Some(mut handle) = replica_handle {
        if let Some(e) = handle.last_error() {
            eprintln!("pivote-serve: replica tailer reported: {e}");
        }
        handle.stop();
    }
    match (report.warm_densities_saved, report.warm_error) {
        (Some(n), _) => eprintln!(
            "pivote-serve: stopped at generation {}; {n} densities persisted",
            report.generation
        ),
        (None, Some(e)) => eprintln!(
            "pivote-serve: stopped at generation {}; warm-state save failed: {e}",
            report.generation
        ),
        (None, None) => eprintln!("pivote-serve: stopped at generation {}", report.generation),
    }
    ExitCode::SUCCESS
}
