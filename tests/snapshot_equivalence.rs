//! The snapshot-serving contract, property-tested: for **any** random
//! base graph and **any** random mixed insert/retract/compact script,
//! the generation-pinned [`pivote_core::PreparedSnapshot`] published
//! after every write answers **bit-identically** to a fresh lock-path
//! context over the same backend — at *every* generation, across shard
//! counts 1–4 and context thread counts 1–2. Historical snapshots are
//! immutable: each one pinned mid-script must still answer from its own
//! backend, unchanged, after every later write and compaction.
//!
//! The serving layer's response memo on top of these snapshots is
//! pinned socket-free in `crates/pivote-serve/tests/service.rs`.

use pivote_core::{GraphHandle, LiveStore, PreparedSnapshot, RankingConfig};
use pivote_kg::{
    DeltaBatch, EntityId, GraphBackend, KgBuilder, KnowledgeGraph, Literal, ShardedGraph,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Base graph spec: edges over e0..e9 × p0..p3, categories c0..c2,
/// types t0..t1 (the same universe as `replica_equivalence`).
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

/// One write between snapshot checks. Every variant publishes exactly
/// one new snapshot, so the per-step comparison below really does check
/// **every** generation the store ever serves.
enum Step {
    Delta(DeltaBatch),
    Compact(usize),
}

/// A genuinely independent lock-path context over the snapshot's pinned
/// backend: fresh caches, no shared state with the prepared context.
fn fresh_handle(backend: &GraphBackend, threads: usize) -> GraphHandle<'_> {
    match backend {
        GraphBackend::Single(kg) => GraphHandle::single_with_threads(kg, threads),
        GraphBackend::Sharded(sg) => GraphHandle::sharded_with_threads(sg, threads),
    }
}

/// The contract itself: the prepared context and a fresh context over
/// the same pinned backend rank bit-identically, features and entities.
fn assert_bit_identical(snap: &PreparedSnapshot, threads: usize, tag: &str) {
    let fresh = fresh_handle(snap.backend(), threads);
    let cfg = RankingConfig::default();
    for probe in [
        vec![EntityId::new(0)],
        vec![EntityId::new(1), EntityId::new(2)],
    ] {
        let want_f = fresh.rank_features(&cfg, &probe);
        let got_f = snap.handle().rank_features(&cfg, &probe);
        assert_eq!(got_f, want_f, "{tag}: snapshot features diverged");
        let want_e = fresh.rank_entities(&cfg, &probe, &want_f);
        let got_e = snap.handle().rank_entities(&cfg, &probe, &got_f);
        assert_eq!(got_e, want_e, "{tag}: snapshot entities diverged");
    }
}

fn run_script(shards: usize, threads: usize, base: &BaseSpec, steps: Vec<Step>) {
    let base_kg = base_graph(base);
    let backend: GraphBackend = if shards > 1 {
        ShardedGraph::from_graph(&base_kg, shards).into()
    } else {
        base_kg.into()
    };
    let store = LiveStore::with_threads(backend, threads);
    store.enable_snapshots();

    let mut pinned: Vec<Arc<PreparedSnapshot>> = Vec::new();
    let first = store.snapshot().expect("enabling publishes immediately");
    assert_bit_identical(&first, threads, "initial snapshot");
    pinned.push(first);

    for (i, step) in steps.into_iter().enumerate() {
        match step {
            Step::Delta(d) => {
                store.append(&d).expect("append");
            }
            Step::Compact(target) => {
                store.compact_in_place(target).expect("compact");
            }
        }
        let snap = store.snapshot().expect("every write republishes");
        assert_eq!(
            snap.generation(),
            store.generation(),
            "step {i}: publication must track the write (shards={shards})"
        );
        assert_bit_identical(
            &snap,
            threads,
            &format!("step {i} (shards={shards}, threads={threads})"),
        );
        pinned.push(snap);
    }

    // generation pinning: every historical snapshot still answers from
    // its own immutable backend after all later writes and compactions
    for (g, snap) in pinned.iter().enumerate() {
        assert_bit_identical(
            snap,
            threads,
            &format!("pinned snapshot {g} (shards={shards}, threads={threads})"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn prop_snapshot_equals_lock_path_at_every_generation(
        base in base_strategy(),
        m1 in mixed_strategy(),
        m2 in mixed_strategy(),
        m3 in mixed_strategy(),
        compact_to in 1usize..3,
    ) {
        for shards in [1, 2, 3, 4] {
            for threads in [1usize, 2] {
                run_script(
                    shards,
                    threads,
                    &base,
                    vec![
                        Step::Delta(decode(&m1)),
                        Step::Compact(compact_to),
                        Step::Delta(decode(&m2)),
                        Step::Delta(decode(&m3)),
                        Step::Compact(shards),
                    ],
                );
            }
        }
    }
}

/// The deterministic golden leg: a fixed script, every shard count.
#[test]
fn golden_snapshot_script_is_exact() {
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
        run_script(
            shards,
            1,
            &base,
            vec![
                Step::Delta(d1),
                Step::Compact(2),
                Step::Delta(d2),
                Step::Compact(shards),
            ],
        );
    }
}
