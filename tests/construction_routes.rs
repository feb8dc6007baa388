//! Every way this stack can *construct* a graph reproduces the graph
//! `generate` builds directly: grown by appends, grown through a sharded
//! partition and compacted (offline, or by the background maintenance
//! thread), churned by inserts that are retracted again, replayed by a
//! follower from the leader's delta log, or served out of a published
//! snapshot. One table, six routes, base shard counts 1/2/4 for the
//! routes that start from a sharded partition.
//!
//! The id-and-dictionary-preserving routes must be **fingerprint-equal**
//! to the generated graph (`pivote_kg::fingerprint` hashes the exact
//! snapshot bytes), so every deterministic experiment, ranking and table
//! computed on them is equal too. Each route also asserts its own
//! precondition — batches non-empty, trailing shards before compaction,
//! tombstones before reclaim, every record shipped — so a route whose
//! body degenerates into a no-op fails instead of trivially passing.

use pivote_core::{LiveStore, MaintenanceHandle, QueryContext, RankingConfig, ReplicaStore};
use pivote_kg::{
    fingerprint, generate, ntriples, split_growth, split_incremental, CompactionPolicy,
    DatagenConfig, DeltaBatch, EntityId, KnowledgeGraph, Literal, ShardedGraph,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The growth workload behind five of the routes: a base over the first
/// 60% of the entities plus three batches minting the rest.
fn growth(kg: &KnowledgeGraph) -> (KnowledgeGraph, Vec<DeltaBatch>) {
    let (base, batches) = split_growth(kg, 0.6, 3);
    assert_eq!(batches.len(), 3, "the trailing 40% must span three batches");
    assert!(batches.iter().all(|b| !b.is_empty()));
    assert!(base.entity_count() < kg.entity_count());
    (base, batches)
}

/// Append path: the trailing half of the entity triples spliced back
/// into the base with `KnowledgeGraph::apply`.
fn incremental(kg: &KnowledgeGraph) -> KnowledgeGraph {
    let (mut base, delta) = split_incremental(kg, 0.5);
    assert!(!delta.is_empty());
    assert!(base.triple_count() < kg.triple_count());
    let receipt = base.apply(&delta);
    assert!(receipt.added_relations > 0);
    base
}

/// Append-then-compact: each batch appends a trailing shard, then
/// `ShardedGraph::compact` re-partitions and `to_graph` union-rebuilds.
fn compact(kg: &KnowledgeGraph, shards: usize) -> KnowledgeGraph {
    let (base, batches) = growth(kg);
    let mut sg = ShardedGraph::from_graph(&base, shards);
    for batch in &batches {
        sg.apply(batch);
    }
    assert_eq!(sg.trailing_shard_count(), batches.len());
    let compacted = sg.compact(shards);
    assert_eq!(compacted.trailing_shard_count(), 0);
    compacted.to_graph()
}

/// The same growth through a `LiveStore` whose background maintenance
/// thread — never the append path — absorbs every trailing shard.
fn maintenance(kg: &KnowledgeGraph, shards: usize) -> KnowledgeGraph {
    let (base, batches) = growth(kg);
    let store = Arc::new(LiveStore::with_threads(
        ShardedGraph::from_graph(&base, shards),
        1,
    ));
    let mut maintenance = MaintenanceHandle::spawn(
        Arc::clone(&store),
        CompactionPolicy {
            max_trailing: 0,
            max_tail_fraction: 1.0,
            max_tombstone_fraction: 1.0,
        },
        shards,
        Duration::from_millis(1),
    );
    for batch in &batches {
        store.append(batch).expect("store healthy");
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while store.trailing_shard_count() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    maintenance.stop();
    assert_eq!(
        store.trailing_shard_count(),
        0,
        "the maintenance thread must absorb every trailing shard"
    );
    // a pass only runs when the policy saw a trailing shard
    assert!(maintenance.passes() >= 1, "at least one background pass");
    Arc::try_unwrap(store)
        .ok()
        .expect("maintenance thread joined — no other store owners")
        .into_inner()
        .into_single()
}

/// Mixed insert/delete: every growth batch is followed by churn — noise
/// statements on long-existing entities, under dictionary names no real
/// statement uses, inserted and then retracted — and the graph finishes
/// with a reclaim that must hold zero tombstones.
fn retract(kg: &KnowledgeGraph) -> KnowledgeGraph {
    let (mut out, batches) = growth(kg);
    let churn_targets = out.entity_count().min(32);
    for batch in &batches {
        out.apply(batch);
        let mut noise = DeltaBatch::new();
        let mut undo = DeltaBatch::new();
        for i in 0..churn_targets {
            let s = kg.entity_name(EntityId::new(i as u32)).to_owned();
            let o = kg
                .entity_name(EntityId::new(((i + 7) % churn_targets) as u32))
                .to_owned();
            noise.triple(&s, "churn_retract_leg", &o);
            undo.retract_triple(&s, "churn_retract_leg", &o);
            if i % 2 == 0 {
                let v = Literal::integer(i as i64);
                noise.literal(&s, "churn_retract_leg", v.clone());
                undo.retract_literal(&s, "churn_retract_leg", v);
            }
            if i % 3 == 0 {
                noise.typed(&s, "Churn_Retract_Type");
                undo.retract_typed(&s, "Churn_Retract_Type");
            }
            if i % 4 == 0 {
                noise.categorized(&s, "Churn retract category");
                undo.retract_categorized(&s, "Churn retract category");
            }
        }
        let inserted = out.apply(&noise);
        assert!(inserted.added_relations > 0);
        let removed = out.apply(&undo);
        assert_eq!(removed.removed_relations, inserted.added_relations);
    }
    assert!(
        out.tombstone_count() > 0,
        "the churn batches must have left tombstones"
    );
    let out = out.reclaim();
    assert_eq!(
        out.tombstone_count(),
        0,
        "reclaim must drop every tombstone"
    );
    out
}

/// Replication: a logging leader applies the growth and a closing
/// compaction; a follower replays the log from the single-layout base
/// and must end fingerprint-equal to the leader.
fn replica(kg: &KnowledgeGraph, shards: usize) -> KnowledgeGraph {
    let (base, batches) = growth(kg);
    let wal_path = std::env::temp_dir().join(format!(
        "pivote_routes_replica_{}_{shards}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&wal_path);
    let leader = LiveStore::with_threads(ShardedGraph::from_graph(&base, shards), 1);
    leader.log_to(&wal_path).expect("leader delta log opens");
    let mut follower = ReplicaStore::open(base, 1, &wal_path).expect("follower opens the log");
    for batch in &batches {
        leader.append(batch).expect("leader healthy");
    }
    leader
        .compact_in_place(shards)
        .expect("leader compaction succeeds");
    let applied = follower.sync().expect("follower replays the log");
    assert_eq!(
        applied,
        batches.len() + 1,
        "every growth batch plus the compaction must ship"
    );
    let _ = std::fs::remove_file(&wal_path);
    assert_eq!(
        follower.store().read().backend().fingerprint(),
        leader.read().backend().fingerprint(),
        "the follower must be fingerprint-equal to the leader"
    );
    let reader = follower.store().read();
    reader.backend().to_single()
}

/// The serving read path: publication tracks every write and the
/// closing compaction, and the published snapshot's prepared context
/// answers bit-identically to a fresh context over its pinned backend.
fn snapshot(kg: &KnowledgeGraph, shards: usize) -> KnowledgeGraph {
    let (base, batches) = growth(kg);
    let store = LiveStore::with_threads(ShardedGraph::from_graph(&base, shards), 1);
    store.enable_snapshots();
    for batch in &batches {
        store.append(batch).expect("store healthy");
        assert_eq!(
            store.snapshot().expect("publication enabled").generation(),
            store.generation(),
            "publication must track every append"
        );
    }
    store.compact_in_place(shards).expect("compaction succeeds");
    let snap = store.snapshot().expect("publication enabled");
    assert_eq!(
        snap.generation(),
        batches.len() as u64 + 1,
        "publication must track the compaction"
    );
    let out = snap.backend().to_single();
    let probe = [EntityId::new(0), EntityId::new(1)];
    let cfg = RankingConfig::default();
    let fresh = QueryContext::with_threads(&out, 1);
    let want_f = fresh.rank_features(&cfg, &probe);
    let got_f = snap.handle().rank_features(&cfg, &probe);
    assert_eq!(got_f, want_f, "snapshot features diverged from fresh");
    assert_eq!(
        snap.handle().rank_entities(&cfg, &probe, &got_f),
        fresh.rank_entities(&cfg, &probe, &want_f),
        "snapshot entities diverged from fresh"
    );
    out
}

enum Build {
    /// A route over the single layout.
    Single(fn(&KnowledgeGraph) -> KnowledgeGraph),
    /// A route whose base is a sharded partition, run per base count.
    Sharded(fn(&KnowledgeGraph, usize) -> KnowledgeGraph),
}

const BASE_SHARDS: [usize; 3] = [1, 2, 4];

/// `(name, build, fingerprint_equal)`.
const ROUTES: [(&str, Build, bool); 6] = [
    ("incremental", Build::Single(incremental), true),
    ("compact", Build::Sharded(compact), true),
    ("maintenance", Build::Sharded(maintenance), true),
    // not fingerprint-equal: the dictionaries are append-only, so the
    // churn-only predicate/type/category names outlive the statements
    // that introduced them and stay in the snapshot bytes. The
    // statements and every answer computed from them are equal.
    ("retract", Build::Single(retract), false),
    ("replica", Build::Sharded(replica), true),
    ("snapshot", Build::Sharded(snapshot), true),
];

#[test]
fn every_construction_route_reproduces_the_generated_graph() {
    let kg = generate(&DatagenConfig::small());
    let want_fp = fingerprint(&kg);
    let film = kg.type_id("Film").expect("Film type");
    let seeds = kg.type_extent(film)[..2].to_vec();
    let cfg = RankingConfig::default();
    let reference = QueryContext::with_threads(&kg, 1);
    let want_f = reference.rank_features(&cfg, &seeds);
    let want_e = reference.rank_entities(&cfg, &seeds, &want_f);

    for (name, build, fingerprint_equal) in ROUTES {
        let check = |tag: &str, out: KnowledgeGraph| {
            if fingerprint_equal {
                assert_eq!(fingerprint(&out), want_fp, "{tag}: fingerprint drifted");
                return;
            }
            assert!(
                ntriples::serialize(&out) == ntriples::serialize(&kg),
                "{tag}: surviving statements differ from the generated graph"
            );
            let ctx = QueryContext::with_threads(&out, 1);
            let got_f = ctx.rank_features(&cfg, &seeds);
            assert_eq!(got_f, want_f, "{tag}: feature ranking drifted");
            assert_eq!(
                ctx.rank_entities(&cfg, &seeds, &got_f),
                want_e,
                "{tag}: entity ranking drifted"
            );
        };
        match build {
            Build::Single(route) => check(name, route(&kg)),
            Build::Sharded(route) => {
                for shards in BASE_SHARDS {
                    check(
                        &format!("{name} (base shards={shards})"),
                        route(&kg, shards),
                    );
                }
            }
        }
    }
}
