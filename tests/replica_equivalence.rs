//! The replication contract, property-tested: for **any** random base
//! graph and **any** random mixed insert/retract/compact script, a
//! follower tailing the leader's delta log is **fingerprint-equal** to
//! the leader at *every* synced generation — across shard counts 1–4,
//! across leader compactions, and across a leader crash + recovery in
//! the middle of the script. The follower always runs one shard while
//! the leader may be partitioned, so every comparison also re-proves
//! that the fingerprint is independent of the partition.
//!
//! Plus the failure-injection legs the log format must survive:
//!
//! - a torn tail record (a crash mid-`write`) is invisible to readers
//!   and truncated by the resuming writer — never a corrupt apply;
//! - a follower restarting mid-stream re-attaches with its sync cursor
//!   and skips records it already applied (replay is idempotent);
//! - a leader crashing *between* logging a batch and applying it leaves
//!   the log authoritative: recovery replays the logged-but-unapplied
//!   batch.

use pivote_core::{recover, LiveStore, ReplicaStore};
use pivote_kg::wal::WalEvent;
use pivote_kg::{
    read_records, DeltaBatch, KgBuilder, KnowledgeGraph, Literal, ShardedGraph, WalWriter,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// Base graph spec: edges over e0..e9 × p0..p3, categories c0..c2,
/// types t0..t1 (the same universe as `retraction_equivalence`).
type BaseSpec = (Vec<(u8, u8, u8)>, Vec<(u8, u8)>, Vec<(u8, u8)>);

/// Mixed op spec `(kind, a, b, c)` decoded by [`decode`]: kinds 0–6 are
/// inserts, kinds 7–13 their retract mirrors over the denser base
/// universe so random sequences frequently retract stored statements.
type MixedSpec = Vec<(u8, u8, u8, u8)>;

fn base_strategy() -> impl Strategy<Value = BaseSpec> {
    (
        proptest::collection::vec((0u8..10, 0u8..4, 0u8..10), 1..30),
        proptest::collection::vec((0u8..10, 0u8..3), 0..14),
        proptest::collection::vec((0u8..10, 0u8..2), 0..10),
    )
}

fn mixed_strategy() -> impl Strategy<Value = MixedSpec> {
    proptest::collection::vec((0u8..14, 0u8..16, 0u8..6, 0u8..16), 0..20)
}

fn base_graph(spec: &BaseSpec) -> KnowledgeGraph {
    let (edges, cats, types) = spec;
    let mut b = KgBuilder::new();
    let es: Vec<_> = (0..10).map(|i| b.entity(&format!("e{i}"))).collect();
    for &(s, p, o) in edges {
        let pi = b.predicate(&format!("p{p}"));
        b.triple(es[s as usize], pi, es[o as usize]);
    }
    for &(e, c) in cats {
        b.categorized(es[e as usize], &format!("c{c}"));
    }
    for &(e, t) in types {
        b.typed(es[e as usize], &format!("t{t}"));
    }
    b.finish()
}

/// Decode a mixed spec straight into a delta batch — the leader and the
/// shadow-free ground truth here are the *same* apply path, so the
/// statement-level semantics need no re-derivation.
fn decode(spec: &[(u8, u8, u8, u8)]) -> DeltaBatch {
    let mut d = DeltaBatch::new();
    for &(kind, a, b, c) in spec {
        let ea = format!("e{}", a % 16);
        let ra = format!("e{}", a % 10);
        match kind % 14 {
            0 => {
                d.triple(ea, format!("p{}", b % 6), format!("e{}", c % 16));
            }
            1 => {
                d.typed(ea, format!("t{}", b % 3));
            }
            2 => {
                d.categorized(ea, format!("c{}", b % 4));
            }
            3 => {
                d.label(ea, format!("L{c}"));
            }
            4 => {
                d.literal(ea, format!("lp{}", b % 2), Literal::integer(c as i64));
            }
            5 => {
                d.redirect(format!("Alias{b}{c}"), ea);
            }
            6 => {
                d.entity(ea);
            }
            7 => {
                d.retract_triple(ra, format!("p{}", b % 4), format!("e{}", c % 10));
            }
            8 => {
                d.retract_typed(ra, format!("t{}", b % 2));
            }
            9 => {
                d.retract_categorized(ra, format!("c{}", b % 3));
            }
            10 => {
                d.retract_label(ra, format!("L{c}"));
            }
            11 => {
                d.retract_literal(ra, format!("lp{}", b % 2), Literal::integer(c as i64));
            }
            12 => {
                d.retract_alias(format!("Alias{b}{c}"), ra);
            }
            _ => {
                d.retract_triple(ra.clone(), format!("p{}", b % 4), ra);
            }
        }
    }
    d
}

fn scratch_wal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pivote_replica_eq_{}_{:?}_{tag}.wal",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn leader_fingerprint(leader: &LiveStore) -> u64 {
    let reader = leader.read();
    reader.backend().fingerprint()
}

/// One leader action between follower syncs. Every variant appends at
/// most one log record, so the per-step comparison below really does
/// check **every** synced generation.
enum Step {
    Delta(DeltaBatch),
    Compact(usize),
    Restart,
}

fn run_script(shards: usize, base: &BaseSpec, steps: Vec<Step>, tag: &str) {
    let wal_path = scratch_wal(&format!("{tag}_{shards}"));
    let _ = std::fs::remove_file(&wal_path);

    let base_kg = base_graph(base);
    let backend = if shards > 1 {
        ShardedGraph::from_graph(&base_kg, shards)
    } else {
        ShardedGraph::from(base_kg.clone())
    };

    let leader = Arc::new(LiveStore::with_threads(backend.clone(), 1));
    leader.log_to(&wal_path).expect("leader logs");
    let mut follower = ReplicaStore::open(base_kg, 1, &wal_path).expect("follower opens");

    drive(leader, &backend, &wal_path, steps, &mut follower, shards);
    let _ = std::fs::remove_file(&wal_path);
}

/// Apply `steps` to the leader one at a time, syncing the follower and
/// asserting fingerprint equality after every step.
fn drive(
    mut leader: Arc<LiveStore>,
    backend: &ShardedGraph,
    wal_path: &PathBuf,
    steps: Vec<Step>,
    follower: &mut ReplicaStore,
    shards: usize,
) {
    for (i, step) in steps.into_iter().enumerate() {
        match step {
            Step::Delta(d) => {
                leader.append(&d).expect("leader append");
            }
            Step::Compact(target) => {
                leader.compact_in_place(target).expect("leader compact");
            }
            Step::Restart => {
                // leader crash: all that survives is the base snapshot
                // (here: the original backend) and the log
                drop(leader);
                let report = recover(backend.clone(), 1, wal_path).expect("leader recovers");
                assert!(!report.truncated_tail, "clean shutdown has no torn tail");
                let (writer, torn) = WalWriter::resume(wal_path).expect("log resumes");
                assert!(!torn);
                report.store.attach_wal(writer).expect("log re-attaches");
                leader = report.store;
            }
        }
        while follower.poll_step().expect("follower applies") {}
        let log_generation = leader.wal_generation().expect("leader keeps logging");
        assert_eq!(
            follower.synced_generation(),
            log_generation,
            "step {i}: follower must be caught up (shards={shards})"
        );
        let leader_fp = leader_fingerprint(&leader);
        let follower_fp = leader_fingerprint(follower.store());
        assert_eq!(
            follower_fp, leader_fp,
            "step {i}: follower diverged at generation {log_generation} (shards={shards})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_follower_fingerprint_equals_leader_at_every_synced_generation(
        base in base_strategy(),
        m1 in mixed_strategy(),
        m2 in mixed_strategy(),
        m3 in mixed_strategy(),
        compact_to in 1usize..3,
    ) {
        for shards in [1, 2, 3, 4] {
            run_script(
                shards,
                &base,
                vec![
                    Step::Delta(decode(&m1)),
                    Step::Compact(compact_to),
                    Step::Delta(decode(&m2)),
                    Step::Restart,
                    Step::Delta(decode(&m3)),
                    Step::Compact(shards),
                ],
                "prop",
            );
        }
    }
}

/// The deterministic golden leg: a fixed script with inserts, retracts,
/// a compaction, and a mid-script leader restart, plus a sanity read of
/// the raw log (monotonic generations, batch payloads intact).
#[test]
fn golden_replication_script_is_exact() {
    let base: BaseSpec = (
        vec![(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 2, 4), (5, 3, 0)],
        vec![(0, 0), (1, 1), (2, 0)],
        vec![(0, 0), (1, 1)],
    );
    for shards in [1, 2, 3, 4] {
        let mut d1 = DeltaBatch::new();
        d1.triple("e0", "p0", "e10");
        d1.typed("e10", "t0");
        d1.literal("e10", "lp0", Literal::integer(7));
        let mut d2 = DeltaBatch::new();
        d2.retract_triple("e0", "p0", "e1");
        d2.retract_typed("e1", "t1");
        let mut d3 = DeltaBatch::new();
        d3.label("e10", "Ten");
        d3.redirect("TenAlias", "e10");
        run_script(
            shards,
            &base,
            vec![
                Step::Delta(d1),
                Step::Delta(d2),
                Step::Compact(2),
                Step::Restart,
                Step::Delta(d3),
            ],
            "golden",
        );
    }
}

#[test]
fn raw_log_records_are_versioned_and_monotonic() {
    let wal_path = scratch_wal("raw");
    let _ = std::fs::remove_file(&wal_path);
    let spec: BaseSpec = (vec![(0, 0, 1)], vec![], vec![]);
    let base = base_graph(&spec);
    let leader = LiveStore::with_threads(base.clone(), 1);
    let header = leader.log_to(&wal_path).expect("log");
    assert_eq!(header.base_generation, 0);
    assert_eq!(header.base_fingerprint, pivote_kg::fingerprint(&base));

    let mut d = DeltaBatch::new();
    d.triple("e0", "p1", "e2");
    leader.append(&d).expect("append");
    leader.append(&decode(&[(7, 0, 0, 1)])).expect("append");

    let (reread, records, torn) = read_records(&wal_path).expect("read back");
    assert_eq!(reread, header);
    assert!(!torn);
    assert_eq!(records.len(), 2);
    for (i, record) in records.iter().enumerate() {
        assert_eq!(record.generation, i as u64 + 1, "generations are 1-based");
        assert!(matches!(record.event, WalEvent::Delta(_)));
    }
    let WalEvent::Delta(batch) = &records[0].event else {
        unreachable!()
    };
    assert_eq!(
        batch, &d,
        "the logged batch is the applied batch, bit for bit"
    );
    let _ = std::fs::remove_file(&wal_path);
}

// ---------------------------------------------------------------------
// failure injection
// ---------------------------------------------------------------------

#[test]
fn torn_tail_record_is_invisible_to_readers_and_truncated_on_resume() {
    let wal_path = scratch_wal("torn");
    let _ = std::fs::remove_file(&wal_path);
    let spec: BaseSpec = (vec![(0, 0, 1), (1, 1, 2)], vec![(0, 0)], vec![]);
    let base = base_graph(&spec);
    let leader = LiveStore::with_threads(base.clone(), 1);
    leader.log_to(&wal_path).expect("log");
    let mut d = DeltaBatch::new();
    d.triple("e0", "p2", "e5");
    leader.append(&d).expect("append");
    let complete_fp = leader_fingerprint(&leader);
    drop(leader);

    // crash mid-write: only half of the second record reaches the disk
    let mut bytes = std::fs::read(&wal_path).expect("read log");
    let before = bytes.len();
    bytes.extend_from_slice(&[0x2a; 9]); // 9 bytes < the 12-byte frame
    std::fs::write(&wal_path, &bytes).expect("inject torn tail");

    // recovery replays the complete record and reports (not applies)
    // the torn one
    let report = recover(base.clone(), 1, &wal_path).expect("recover");
    assert_eq!(report.records_applied, 1);
    assert!(report.truncated_tail, "the torn tail must be reported");
    assert_eq!(leader_fingerprint(&report.store), complete_fp);

    // a resuming writer truncates the torn bytes and appends cleanly
    // after them
    let (writer, torn) = WalWriter::resume(&wal_path).expect("resume");
    assert!(torn);
    assert_eq!(
        std::fs::metadata(&wal_path).expect("meta").len(),
        before as u64,
        "resume must drop exactly the torn bytes"
    );
    report.store.attach_wal(writer).expect("attach");
    let mut d2 = DeltaBatch::new();
    d2.triple("e1", "p3", "e6");
    report.store.append(&d2).expect("append after resume");
    let (_, records, torn) = read_records(&wal_path).expect("read back");
    assert!(!torn);
    assert_eq!(records.len(), 2, "one replayed + one fresh, no debris");
    let _ = std::fs::remove_file(&wal_path);
}

#[test]
fn follower_restarting_mid_stream_resumes_idempotently() {
    let wal_path = scratch_wal("follower_restart");
    let _ = std::fs::remove_file(&wal_path);
    let spec: BaseSpec = (vec![(0, 0, 1), (2, 1, 3)], vec![], vec![(0, 0)]);
    let base = base_graph(&spec);
    let leader = LiveStore::with_threads(base.clone(), 1);
    leader.log_to(&wal_path).expect("log");

    let mut first = ReplicaStore::open(base, 1, &wal_path).expect("open");
    let mut d1 = DeltaBatch::new();
    d1.triple("e0", "p0", "e7");
    leader.append(&d1).expect("append");
    let mut d2 = DeltaBatch::new();
    d2.typed("e7", "t2");
    leader.append(&d2).expect("append");

    // the follower applies ONE of the two records, then "crashes" —
    // its store and sync cursor survive, its reader does not
    assert!(first.poll_step().expect("first record"));
    let cursor = first.synced_generation();
    assert_eq!(cursor, 1);
    let store = Arc::clone(first.store());
    drop(first);

    // restart mid-stream: re-attach the surviving store at its cursor
    let mut second = ReplicaStore::attach(store, &wal_path, cursor).expect("re-attach");
    let applied = second.sync().expect("resync");
    assert_eq!(
        applied, 1,
        "the already-applied record must be skipped, the missing one applied"
    );
    assert_eq!(second.synced_generation(), 2);
    assert_eq!(
        leader_fingerprint(second.store()),
        leader_fingerprint(&leader),
        "an idempotent resume lands exactly on the leader's state"
    );
    let _ = std::fs::remove_file(&wal_path);
}

#[test]
fn leader_crash_between_log_write_and_apply_recovers_the_logged_batch() {
    let wal_path = scratch_wal("log_then_crash");
    let _ = std::fs::remove_file(&wal_path);
    let spec: BaseSpec = (vec![(0, 0, 1)], vec![], vec![]);
    let base = base_graph(&spec);
    let leader = LiveStore::with_threads(base.clone(), 1);
    leader.log_to(&wal_path).expect("log");
    let mut d1 = DeltaBatch::new();
    d1.triple("e0", "p1", "e4");
    leader.append(&d1).expect("append");
    drop(leader);

    // the crash window: the record reached the log, the store never
    // applied it — simulated by appending straight to the log file
    let mut d2 = DeltaBatch::new();
    d2.triple("e4", "p2", "e5");
    let (mut writer, torn) = WalWriter::resume(&wal_path).expect("resume");
    assert!(!torn);
    let stamped = writer
        .append_event(WalEvent::Delta(d2.clone()))
        .expect("log without applying");
    assert_eq!(stamped, 2);
    drop(writer);

    // the log is authoritative: recovery replays BOTH batches
    let report = recover(base.clone(), 1, &wal_path).expect("recover");
    assert_eq!(report.records_applied, 2);
    assert_eq!(report.synced_generation, 2);
    let mut replay = base;
    replay.apply(&d1);
    replay.apply(&d2);
    assert_eq!(
        leader_fingerprint(&report.store),
        pivote_kg::fingerprint(&replay),
        "recovery must include the logged-but-unapplied batch"
    );

    // and a follower tailing the same log sees the same state
    let spec: BaseSpec = (vec![(0, 0, 1)], vec![], vec![]);
    let mut follower = ReplicaStore::open(base_graph(&spec), 1, &wal_path).expect("open");
    follower.sync().expect("sync");
    assert_eq!(
        leader_fingerprint(follower.store()),
        leader_fingerprint(&report.store)
    );
    let _ = std::fs::remove_file(&wal_path);
}
