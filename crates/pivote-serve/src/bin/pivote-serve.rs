//! Standalone server binary.
//!
//! ```text
//! pivote-serve [--addr 127.0.0.1:7878] [--data graph.nt | --tiny]
//!              [--shards N] [--workers N] [--warm sidecar.warm]
//!              [--log deltas.wal | --replica deltas.wal]
//! ```
//!
//! Streams an N-Triples graph (or builds the tiny synthetic one), optionally
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

#![forbid(unsafe_code)]

use pivote_core::{ReplicaHandle, ReplicaStore};
use pivote_kg::{generate, DatagenConfig, ShardedGraph, StreamError};
use pivote_serve::{open_store, ServeConfig, Server};
use std::fs::File;
use std::io::BufReader;
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
        // the dump is streamed: the builder holds the graph, never the text
        Some(path) => match File::open(path)
            .map_err(StreamError::Io)
            .and_then(|file| pivote_kg::parse_reader(BufReader::new(file)))
        {
            Ok(kg) => kg,
            Err(StreamError::Parse(e)) => {
                eprintln!("pivote-serve: {}:{}: {}", path.display(), e.line, e.message);
                return ExitCode::FAILURE;
            }
            Err(StreamError::Io(e)) => {
                eprintln!("pivote-serve: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
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
    if let Some(path) = &args.replica {
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
        return run(store, args, false, Some(handle));
    }

    // leader: an existing delta log is replayed first (crash recovery)
    // and appended to, a missing one is created; the warm sidecar is
    // loaded against the replayed graph
    let opened = match open_store(backend, threads, args.log.as_deref(), args.warm.as_deref()) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("pivote-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some((records, torn)) = opened.replayed {
        eprintln!(
            "pivote-serve: replayed {records} logged records{}",
            if torn {
                " (torn tail record ignored)"
            } else {
                ""
            }
        );
    }
    run(opened.store, args, opened.warm, None)
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
