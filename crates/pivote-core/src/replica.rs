//! Read replicas: follower stores that tail a leader's durable delta
//! log ([`pivote_kg::wal`]) and provably reach the leader's state.
//!
//! A [`ReplicaStore`] pairs a follower [`LiveStore`] with a
//! [`WalReader`] over the leader's log. [`ReplicaStore::open`] starts
//! from the same base state the log's header names (refusing any other
//! with [`CodecError::Stale`]), then [`ReplicaStore::sync`] /
//! [`ReplicaStore::poll_step`] apply records in log order through the
//! *same* write path the leader used: `Delta` records go through
//! [`LiveStore::append`], `Compact` records through
//! [`LiveStore::compact_concurrent`] — the follower is its store's only
//! writer, so the off-lock rebuild always wins its first swap, and its
//! readers never wait on the rebuild. Because append==rebuild is
//! bit-identical and compaction is answer-preserving, a follower synced
//! through log generation `G` holds the same logical graph as the
//! leader did at `G` — `tests/equivalence.rs` asserts
//! [`pivote_kg::snapshot::fingerprint`] equality at every synced
//! generation. A healthy leader stamps every record `last + 1`, so a
//! record past `synced + 1` means the log lost writes; the follower
//! refuses it ([`ReplicaError::Gap`]) rather than skip a state.
//!
//! The follower's own mutation generation is deliberately **not** the
//! sync cursor: a one-shard follower replaying a leader's multi-shard
//! `Compact` may take the no-op path (no tombstones, no bump), and a
//! restarted process resets its in-memory generation entirely. The
//! cursor is [`ReplicaStore::synced_generation`], tracked from the log
//! records themselves; records at or below it are skipped on resume, so
//! a follower restart mid-stream is safe from any starting point whose
//! state matches its cursor.
//!
//! Crash recovery is the same loop run to the end: [`recover`] loads a
//! base snapshot, replays every complete record (ignoring a torn tail
//! from a leader crash mid-append), and reports what it applied. A
//! leader that recovers this way reattaches a resumed writer
//! ([`pivote_kg::WalWriter::resume`] + [`LiveStore::attach_wal`]) and
//! keeps serving; logged-but-unapplied batches from a crash between the
//! log write and the splice are *included* — the log is written ahead
//! of the store, so the log is authoritative.
//!
//! [`ReplicaHandle`] is the deployment shape: a background thread
//! (poll-based, std-only — modeled on
//! [`MaintenanceHandle`](crate::MaintenanceHandle)) that tails the log
//! on a tick and publishes the synced generation atomically.

use crate::live::{LiveStore, StoreError};
use pivote_kg::wal::{WalEvent, WalReader, WalRecord};
use pivote_kg::{CodecError, ShardedGraph};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Why a replica could not open or advance.
#[derive(Debug)]
pub enum ReplicaError {
    /// The log itself failed (IO, format, mid-log corruption), or it
    /// continues from another base state than the follower loaded
    /// ([`CodecError::Stale`]): replaying it would diverge silently.
    Wal(CodecError),
    /// The follower store refused a write while applying a record.
    Store(StoreError),
    /// The next record in the log skips generations: applying it would
    /// silently drop the writes in between.
    Gap {
        /// The generation the follower needs next (`synced + 1`).
        expected: u64,
        /// The generation the log holds instead.
        found: u64,
    },
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Wal(e) => write!(f, "replica log error: {e}"),
            ReplicaError::Store(e) => write!(f, "replica store error: {e}"),
            ReplicaError::Gap { expected, found } => write!(
                f,
                "delta log skips from generation {expected} to {found}: \
                 records are missing, refusing to apply past the gap"
            ),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<CodecError> for ReplicaError {
    fn from(e: CodecError) -> Self {
        ReplicaError::Wal(e)
    }
}

impl From<StoreError> for ReplicaError {
    fn from(e: StoreError) -> Self {
        ReplicaError::Store(e)
    }
}

/// A follower [`LiveStore`] plus its position in the leader's delta
/// log. Poll-driven: call [`ReplicaStore::sync`] (or run a
/// [`ReplicaHandle`]) to apply whatever the leader has appended since.
pub struct ReplicaStore {
    store: Arc<LiveStore>,
    reader: WalReader,
    synced_generation: u64,
}

impl ReplicaStore {
    /// Open a replica over the log at `path`, starting from `base` —
    /// which must be the exact state the log is based at: its
    /// [`fingerprint`](ShardedGraph::fingerprint) is checked against the
    /// log header and a mismatch is refused.
    pub fn open(
        base: impl Into<ShardedGraph>,
        threads: usize,
        path: impl AsRef<Path>,
    ) -> Result<ReplicaStore, ReplicaError> {
        let backend = base.into();
        let reader = WalReader::open(path)?;
        let expected = backend.fingerprint();
        let header = reader.header();
        if header.base_fingerprint != expected {
            let stored = header.base_fingerprint;
            return Err(CodecError::Stale { stored, expected }.into());
        }
        Ok(ReplicaStore {
            store: Arc::new(LiveStore::with_threads(backend, threads)),
            reader,
            synced_generation: header.base_generation,
        })
    }

    /// Re-attach a log to a follower that already holds the state at
    /// `synced_generation` — the follower-restart-mid-stream path (the
    /// in-memory store survived; only the reader was lost). The reader
    /// rescans from the log head and [`ReplicaStore::poll_step`] skips
    /// every record at or below the cursor, so replay is idempotent.
    pub fn attach(
        store: Arc<LiveStore>,
        path: impl AsRef<Path>,
        synced_generation: u64,
    ) -> Result<ReplicaStore, ReplicaError> {
        let reader = WalReader::open(path)?;
        Ok(ReplicaStore {
            store,
            reader,
            synced_generation,
        })
    }

    /// The follower store (read it, serve from it — never write to it
    /// directly: the log is the only writer that keeps the replica
    /// provably equal to the leader).
    pub fn store(&self) -> &Arc<LiveStore> {
        &self.store
    }

    /// The log generation this replica has applied through.
    pub fn synced_generation(&self) -> u64 {
        self.synced_generation
    }

    /// Whether bytes exist past the last complete record — a torn tail
    /// from a leader crash mid-append, if the leader is known dead.
    pub fn has_partial_tail(&self) -> Result<bool, ReplicaError> {
        Ok(self.reader.has_partial_tail()?)
    }

    fn apply(&mut self, record: WalRecord) -> Result<(), ReplicaError> {
        match record.event {
            WalEvent::Delta(batch) => {
                self.store.append(&batch)?;
            }
            WalEvent::Compact { target_shards } => {
                self.store.compact_concurrent(target_shards)?;
            }
        }
        self.synced_generation = record.generation;
        Ok(())
    }

    /// Apply the next unapplied record. `Ok(false)` means the log holds
    /// nothing new (or only an incomplete tail — retried next poll). A
    /// record past `synced + 1` is refused with [`ReplicaError::Gap`]
    /// and the follower stays where it is.
    pub fn poll_step(&mut self) -> Result<bool, ReplicaError> {
        loop {
            match self.reader.poll()? {
                None => return Ok(false),
                Some(record) if record.generation <= self.synced_generation => continue,
                Some(record) if record.generation > self.synced_generation + 1 => {
                    return Err(ReplicaError::Gap {
                        expected: self.synced_generation + 1,
                        found: record.generation,
                    })
                }
                Some(record) => {
                    self.apply(record)?;
                    return Ok(true);
                }
            }
        }
    }

    /// Apply every record currently in the log; returns how many were
    /// applied this call.
    pub fn sync(&mut self) -> Result<usize, ReplicaError> {
        let mut applied = 0;
        while self.poll_step()? {
            applied += 1;
        }
        Ok(applied)
    }
}

/// What [`recover`] rebuilt.
pub struct RecoveryReport {
    /// The recovered store, caught up to the last complete log record.
    pub store: Arc<LiveStore>,
    /// Complete records replayed on top of the base snapshot.
    pub records_applied: usize,
    /// Log generation the store now corresponds to.
    pub synced_generation: u64,
    /// Whether the log ended in a torn record (leader crashed
    /// mid-append) that was ignored. [`pivote_kg::WalWriter::resume`]
    /// truncates it before the leader writes again.
    pub truncated_tail: bool,
}

/// Crash recovery: rebuild a store from its last snapshot (`base`) plus
/// a full replay of the delta log at `path`. Batches the crashed leader
/// logged but never applied are included — the log is written ahead of
/// the store, so every logged record is a write the leader accepted.
pub fn recover(
    base: impl Into<ShardedGraph>,
    threads: usize,
    path: impl AsRef<Path>,
) -> Result<RecoveryReport, ReplicaError> {
    let mut replica = ReplicaStore::open(base, threads, path)?;
    let records_applied = replica.sync()?;
    let truncated_tail = replica.has_partial_tail()?;
    Ok(RecoveryReport {
        synced_generation: replica.synced_generation(),
        store: Arc::clone(replica.store()),
        records_applied,
        truncated_tail,
    })
}

/// A background tailer: polls the log every `tick`, applies what it
/// finds, and publishes the synced generation atomically — the follower
/// process's main loop. Stop it explicitly with [`ReplicaHandle::stop`]
/// (also invoked on drop), which wakes the thread and joins it.
pub struct ReplicaHandle {
    store: Arc<LiveStore>,
    stop: Arc<AtomicBool>,
    synced: Arc<AtomicU64>,
    last_error: Arc<Mutex<Option<String>>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ReplicaHandle {
    /// Spawn the tailer over `replica`.
    pub fn spawn(mut replica: ReplicaStore, tick: Duration) -> ReplicaHandle {
        let store = Arc::clone(replica.store());
        let stop = Arc::new(AtomicBool::new(false));
        let synced = Arc::new(AtomicU64::new(replica.synced_generation()));
        let last_error = Arc::new(Mutex::new(None));
        let thread = {
            let stop = Arc::clone(&stop);
            let synced = Arc::clone(&synced);
            let last_error = Arc::clone(&last_error);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match replica.sync() {
                        Ok(_) => {
                            synced.store(replica.synced_generation(), Ordering::SeqCst);
                        }
                        Err(e) => {
                            // transient IO is retried next tick; the last
                            // failure stays observable either way
                            let mut slot = last_error.lock().unwrap_or_else(|p| p.into_inner());
                            *slot = Some(e.to_string());
                        }
                    }
                    std::thread::park_timeout(tick);
                }
            })
        };
        ReplicaHandle {
            store,
            stop,
            synced,
            last_error,
            thread: Some(thread),
        }
    }

    /// The follower store being kept in sync.
    pub fn store(&self) -> &Arc<LiveStore> {
        &self.store
    }

    /// The log generation the tailer has applied through.
    pub fn synced_generation(&self) -> u64 {
        self.synced.load(Ordering::SeqCst)
    }

    /// The most recent tailing error, if any (the thread keeps ticking
    /// through transient failures).
    pub fn last_error(&self) -> Option<String> {
        self.last_error
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Block until the tailer has applied through `generation`, or
    /// `timeout` elapses. Returns whether the target was reached.
    pub fn wait_for_generation(&self, generation: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while self.synced_generation() < generation {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            if let Some(thread) = &self.thread {
                thread.thread().unpark();
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
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

impl Drop for ReplicaHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_kg::snapshot::fingerprint;
    use pivote_kg::{generate, split_growth, DatagenConfig, ShardedGraph};
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pivote_replica_{tag}_{}.pvwl", std::process::id()))
    }

    #[test]
    fn follower_tails_the_leader_to_fingerprint_equality() {
        let kg = generate(&DatagenConfig::tiny());
        let (base, batches) = split_growth(&kg, 0.5, 3);
        let path = temp_path("tail");

        let leader = LiveStore::with_threads(ShardedGraph::from_graph(&base, 2), 1);
        leader.log_to(&path).unwrap();
        let mut follower = ReplicaStore::open(base.clone(), 1, &path).unwrap();

        for batch in &batches {
            leader.append(batch).unwrap();
        }
        leader.compact_concurrent(2).unwrap();

        let applied = follower.sync().unwrap();
        assert_eq!(applied, batches.len() + 1, "3 deltas + 1 compact");
        assert_eq!(follower.synced_generation(), leader.generation());
        let leader_fp = leader.read().backend().fingerprint();
        let follower_fp = follower.store().read().backend().fingerprint();
        assert_eq!(follower_fp, leader_fp, "replica must equal the leader");
        // and both equal the graph the batches came from
        assert_eq!(leader_fp, fingerprint(&kg));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_base_is_refused() {
        let kg = generate(&DatagenConfig::tiny());
        let (base, _) = split_growth(&kg, 0.5, 2);
        let path = temp_path("base");
        let leader = LiveStore::with_threads(base, 1);
        leader.log_to(&path).unwrap();
        // a follower loading the *full* graph (not the base) must refuse
        let err = match ReplicaStore::open(kg, 1, &path) {
            Err(e) => e,
            Ok(_) => panic!("a mismatched base must be refused"),
        };
        assert!(
            matches!(err, ReplicaError::Wal(CodecError::Stale { .. })),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Records 1 and 3 with nothing between: the follower applies 1,
    /// then refuses 3 with the typed error and stays at 1 — and so does
    /// recovery from the same log.
    #[test]
    fn a_gap_in_the_log_is_refused() {
        let kg = generate(&DatagenConfig::tiny());
        let (base, batches) = split_growth(&kg, 0.5, 2);
        let path = temp_path("gap");
        let base_fp = fingerprint(&base);
        let mut writer = pivote_kg::WalWriter::create(&path, 0, base_fp).unwrap();
        for (generation, batch) in [(1, &batches[0]), (3, &batches[1])] {
            writer
                .append(&WalRecord {
                    generation,
                    event: WalEvent::Delta(batch.clone()),
                })
                .unwrap();
        }
        drop(writer);

        let mut follower = ReplicaStore::open(base.clone(), 1, &path).unwrap();
        assert!(follower.poll_step().unwrap(), "record 1 applies");
        let err = follower.poll_step().unwrap_err();
        assert!(
            matches!(
                err,
                ReplicaError::Gap {
                    expected: 2,
                    found: 3
                }
            ),
            "{err}"
        );
        assert_eq!(follower.synced_generation(), 1);
        let mut one = base.clone();
        one.apply(&batches[0]);
        assert_eq!(
            follower.store().read().backend().fingerprint(),
            fingerprint(&one),
            "nothing past the gap was applied"
        );

        let err = match recover(base, 1, &path) {
            Err(e) => e,
            Ok(_) => panic!("recovery must refuse the gap"),
        };
        assert!(
            matches!(
                err,
                ReplicaError::Gap {
                    expected: 2,
                    found: 3
                }
            ),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn background_tailer_follows_appends() {
        let kg = generate(&DatagenConfig::tiny());
        let (base, batches) = split_growth(&kg, 0.5, 2);
        let path = temp_path("handle");
        let leader = LiveStore::with_threads(base.clone(), 1);
        leader.log_to(&path).unwrap();
        let replica = ReplicaStore::open(base, 1, &path).unwrap();
        let mut handle = ReplicaHandle::spawn(replica, Duration::from_millis(1));

        for batch in &batches {
            leader.append(batch).unwrap();
        }
        let target = leader.wal_generation().unwrap();
        assert!(
            handle.wait_for_generation(target, Duration::from_secs(20)),
            "tailer never caught up: {:?}",
            handle.last_error()
        );
        assert_eq!(
            handle.store().read().backend().fingerprint(),
            leader.read().backend().fingerprint()
        );
        handle.stop();
        std::fs::remove_file(&path).ok();
    }
}
