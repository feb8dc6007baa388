//! The incremental store's contract, property-tested: for **any** random
//! base graph and **any** random delta sequence, the graph after appends
//! is bit-identical — feature rankings, entity rankings, heat maps and
//! entity profiles — to a from-scratch rebuild of the union, on the
//! single-graph backend and on the sharded backend across shard counts
//! 1–4 × worker threads 1–2.
//!
//! This is the regression net for the whole append path: the per-row
//! extent splice, the op-ordered dictionary interning, the sharded delta
//! routing (new-entity shard, ghost registration, dictionary
//! replication), and the generation-stamped cache invalidation. Any
//! drift in any of them breaks exact score equality here.

use pivote_core::{Expander, GraphHandle, HeatMap, RankingConfig, SfQuery};
use pivote_explore::{build_profile, EntityProfile};
use pivote_kg::{DeltaBatch, EntityId, KgBuilder, Literal};
use proptest::prelude::*;

/// Base graph spec: edges over e0..e9 × p0..p3, categories c0..c2,
/// types t0..t1.
type BaseSpec = (Vec<(u8, u8, u8)>, Vec<(u8, u8)>, Vec<(u8, u8)>);

/// Delta op spec `(kind, a, b, c)` decoded by [`build_delta`]. Entity
/// indexes run to 15 (e10..e15 are brand-new), predicate indexes to 5
/// (p4/p5 brand-new), type indexes to 2 (t2 brand-new), category indexes
/// to 3 (c3 brand-new).
type DeltaSpec = Vec<(u8, u8, u8, u8)>;

fn base_strategy() -> impl Strategy<Value = BaseSpec> {
    (
        proptest::collection::vec((0u8..10, 0u8..4, 0u8..10), 1..40),
        proptest::collection::vec((0u8..10, 0u8..3), 0..20),
        proptest::collection::vec((0u8..10, 0u8..2), 0..14),
    )
}

fn delta_strategy() -> impl Strategy<Value = DeltaSpec> {
    proptest::collection::vec((0u8..7, 0u8..16, 0u8..6, 0u8..16), 0..24)
}

fn base_builder(spec: &BaseSpec) -> KgBuilder {
    let (edges, cats, types) = spec;
    let mut b = KgBuilder::new();
    for i in 0..10u8 {
        b.entity(&format!("e{i}"));
    }
    for &(s, p, o) in edges {
        let s = b.entity(&format!("e{s}"));
        let p = b.predicate(&format!("p{p}"));
        let o = b.entity(&format!("e{o}"));
        b.triple(s, p, o);
    }
    for &(e, c) in cats {
        let e = b.entity(&format!("e{e}"));
        b.categorized(e, &format!("c{c}"));
    }
    for &(e, t) in types {
        let e = b.entity(&format!("e{e}"));
        b.typed(e, &format!("t{t}"));
    }
    b
}

fn build_delta(spec: &DeltaSpec) -> DeltaBatch {
    let mut d = DeltaBatch::new();
    for &(kind, a, b, c) in spec {
        let ea = format!("e{}", a % 16);
        match kind % 7 {
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
            _ => {
                d.entity(ea);
            }
        }
    }
    d
}

/// Everything the interface would render for one query plus per-entity
/// profiles — the comparison payload.
struct Snapshot {
    features: Vec<(pivote_core::SemanticFeature, f64)>,
    entities: Vec<(EntityId, f64)>,
    heat_levels: Vec<u8>,
    heat_values: Vec<f64>,
    profiles: Vec<EntityProfile>,
}

fn snapshot(handle: &GraphHandle<'_>, seeds: &[EntityId], probes: &[EntityId]) -> Snapshot {
    let expander = Expander::with_handle(handle.clone(), RankingConfig::default());
    let res = expander.expand(&SfQuery::from_seeds(seeds.to_vec()), 15, 10);
    let axis: Vec<EntityId> = res.entities.iter().map(|re| re.entity).collect();
    let hm = HeatMap::compute(expander.ranker(), &axis, &res.features);
    let mut heat_levels = Vec::new();
    let mut heat_values = Vec::new();
    for row in 0..hm.height() {
        for col in 0..hm.width() {
            heat_levels.push(hm.level(row, col));
            heat_values.push(hm.value(row, col));
        }
    }
    Snapshot {
        features: res
            .features
            .iter()
            .map(|rf| (rf.feature, rf.score))
            .collect(),
        entities: res
            .entities
            .iter()
            .map(|re| (re.entity, re.score))
            .collect(),
        heat_levels,
        heat_values,
        profiles: probes
            .iter()
            .map(|&e| build_profile(expander.ranker(), e, 8))
            .collect(),
    }
}

fn assert_snapshots_equal(got: &Snapshot, want: &Snapshot, what: &str) {
    assert_eq!(
        got.features.len(),
        want.features.len(),
        "{what}: feature count"
    );
    for (a, b) in got.features.iter().zip(&want.features) {
        assert_eq!(a.0, b.0, "{what}: feature order");
        assert!((a.1 - b.1).abs() == 0.0, "{what}: feature score");
    }
    assert_eq!(
        got.entities.len(),
        want.entities.len(),
        "{what}: entity count"
    );
    for (a, b) in got.entities.iter().zip(&want.entities) {
        assert_eq!(a.0, b.0, "{what}: entity order");
        assert!((a.1 - b.1).abs() == 0.0, "{what}: entity score");
    }
    assert_eq!(got.heat_levels, want.heat_levels, "{what}: heat levels");
    assert_eq!(got.heat_values.len(), want.heat_values.len());
    for (a, b) in got.heat_values.iter().zip(&want.heat_values) {
        assert!((a - b).abs() == 0.0, "{what}: heat value");
    }
    assert_eq!(got.profiles, want.profiles, "{what}: profiles");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_append_equals_rebuild_across_backends(
        base in base_strategy(),
        d1 in delta_strategy(),
        d2 in delta_strategy(),
        seed_a in 0u8..10,
        seed_b in 0u8..10,
    ) {
        let delta1 = build_delta(&d1);
        let delta2 = build_delta(&d2);

        // ground truth: rebuild the union from scratch
        let union = {
            let mut b = base_builder(&base);
            delta1.apply_to_builder(&mut b);
            delta2.apply_to_builder(&mut b);
            b.finish()
        };
        let seeds: Vec<EntityId> = {
            let mut s = vec![
                union.entity(&format!("e{seed_a}")).unwrap(),
                union.entity(&format!("e{seed_b}")).unwrap(),
            ];
            s.sort_unstable();
            s.dedup();
            s
        };
        // profile probes: the seeds plus any brand-new entities the
        // deltas actually created
        let probes: Vec<EntityId> = seeds
            .iter()
            .copied()
            .chain((10..16u8).filter_map(|i| union.entity(&format!("e{i}"))))
            .collect();
        let want = snapshot(&GraphHandle::single_with_threads(&union, 1), &seeds, &probes);

        // incremental single-graph: base + apply + apply
        let mut inc = base_builder(&base).finish();
        let r1 = inc.apply(&delta1);
        let r2 = inc.apply(&delta2);
        prop_assert_eq!(inc.generation(), 2);
        prop_assert!(r2.generation > r1.generation);
        let got = snapshot(&GraphHandle::single_with_threads(&inc, 1), &seeds, &probes);
        assert_snapshots_equal(&got, &want, "single incremental");

        // incremental sharded: partition the base, then apply the same
        // deltas through the router
        for shards in [1, 2, 3, 4] {
            let mut sg = pivote_kg::ShardedGraph::from_graph(
                &base_builder(&base).finish(),
                shards,
            );
            sg.apply(&delta1);
            sg.apply(&delta2);
            for threads in [1usize, 2] {
                let got = snapshot(
                    &GraphHandle::sharded_with_threads(&sg, threads),
                    &seeds,
                    &probes,
                );
                assert_snapshots_equal(
                    &got,
                    &want,
                    &format!("sharded incremental (shards={shards}, threads={threads})"),
                );
            }
        }
    }
}
