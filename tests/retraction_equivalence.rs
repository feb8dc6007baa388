//! The retraction contract, property-tested: for **any** random base
//! graph and **any** random mixed insert/retract sequence, the graph
//! after applying the sequence is bit-identical — feature rankings,
//! entity rankings, heat maps and entity profiles — to a from-scratch
//! rebuild of the *surviving* statements, on the graph itself and on
//! the store across shard counts 1–4 × worker threads 1–2. And
//! compaction (the graph's `reclaim`, the store's `compact`)
//! reclaims every tombstone without moving a single score.
//!
//! Ground truth is a shadow statement store with the library's exact
//! semantics: triples and type/category assertions are sets, literal
//! statements are a multiset whose retract removes *every* matching
//! copy, labels overwrite and clear in place, aliases are per-target
//! sets — and retracts never intern a dictionary name, so the rebuild
//! interns names in insert-op order only.

use pivote_core::{GraphHandle, RankingConfig, SfQuery};
use pivote_kg::{DeltaBatch, EntityId, KgBuilder, KnowledgeGraph, Literal, ShardedGraph};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Base graph spec: edges over e0..e9 × p0..p3, categories c0..c2,
/// types t0..t1 (the same universe as `incremental_equivalence`).
type BaseSpec = (Vec<(u8, u8, u8)>, Vec<(u8, u8)>, Vec<(u8, u8)>);

/// Mixed op spec `(kind, a, b, c)` decoded by [`decode`]: kinds 0–6 are
/// the insert ops of the incremental suite, kinds 7–13 their retract
/// mirrors. Retract kinds use the *base* universe moduli so random
/// sequences frequently retract statements that actually exist.
type MixedSpec = Vec<(u8, u8, u8, u8)>;

fn base_strategy() -> impl Strategy<Value = BaseSpec> {
    (
        proptest::collection::vec((0u8..10, 0u8..4, 0u8..10), 1..40),
        proptest::collection::vec((0u8..10, 0u8..3), 0..20),
        proptest::collection::vec((0u8..10, 0u8..2), 0..14),
    )
}

fn mixed_strategy() -> impl Strategy<Value = MixedSpec> {
    proptest::collection::vec((0u8..14, 0u8..16, 0u8..6, 0u8..16), 0..28)
}

/// One name-level statement op — the unified script both the live graph
/// and the shadow store replay.
#[derive(Clone, Debug)]
enum Op {
    Entity(String),
    Triple(String, String, String),
    Typed(String, String),
    Categorized(String, String),
    Label(String, String),
    LiteralI(String, String, i64),
    Redirect(String, String),
    RetractTriple(String, String, String),
    RetractTyped(String, String),
    RetractCategorized(String, String),
    RetractLabel(String, String),
    RetractLiteral(String, String, i64),
    RetractAlias(String, String),
}

fn decode(spec: &MixedSpec) -> Vec<Op> {
    let mut ops = Vec::with_capacity(spec.len());
    for &(kind, a, b, c) in spec {
        let ea = format!("e{}", a % 16);
        // retracts target the denser base universe so they hit
        let ra = format!("e{}", a % 10);
        ops.push(match kind % 14 {
            0 => Op::Triple(ea, format!("p{}", b % 6), format!("e{}", c % 16)),
            1 => Op::Typed(ea, format!("t{}", b % 3)),
            2 => Op::Categorized(ea, format!("c{}", b % 4)),
            3 => Op::Label(ea, format!("L{c}")),
            4 => Op::LiteralI(ea, format!("lp{}", b % 2), c as i64),
            5 => Op::Redirect(format!("Alias{b}{c}"), ea),
            6 => Op::Entity(ea),
            7 => Op::RetractTriple(ra, format!("p{}", b % 4), format!("e{}", c % 10)),
            8 => Op::RetractTyped(ra, format!("t{}", b % 2)),
            9 => Op::RetractCategorized(ra, format!("c{}", b % 3)),
            10 => Op::RetractLabel(ra, format!("L{c}")),
            11 => Op::RetractLiteral(ra, format!("lp{}", b % 2), c as i64),
            12 => Op::RetractAlias(format!("Alias{b}{c}"), ra),
            _ => Op::RetractTriple(ra.clone(), format!("p{}", b % 4), ra),
        });
    }
    ops
}

/// The base spec as a script of insert ops (the exact op order
/// `base_builder` interns in).
fn base_script(spec: &BaseSpec) -> Vec<Op> {
    let (edges, cats, types) = spec;
    let mut ops = Vec::new();
    for i in 0..10u8 {
        ops.push(Op::Entity(format!("e{i}")));
    }
    for &(s, p, o) in edges {
        ops.push(Op::Triple(
            format!("e{s}"),
            format!("p{p}"),
            format!("e{o}"),
        ));
    }
    for &(e, c) in cats {
        ops.push(Op::Categorized(format!("e{e}"), format!("c{c}")));
    }
    for &(e, t) in types {
        ops.push(Op::Typed(format!("e{e}"), format!("t{t}")));
    }
    ops
}

fn base_builder(spec: &BaseSpec) -> KgBuilder {
    let mut b = KgBuilder::new();
    let mut literal_idx = 0;
    replay_into_builder(
        &base_script(spec),
        &shadow(&[base_script(spec)]),
        &mut b,
        &mut literal_idx,
    );
    b
}

fn delta_batch(ops: &[Op]) -> DeltaBatch {
    let mut d = DeltaBatch::new();
    for op in ops {
        match op {
            Op::Entity(e) => {
                d.entity(e.clone());
            }
            Op::Triple(s, p, o) => {
                d.triple(s.clone(), p.clone(), o.clone());
            }
            Op::Typed(e, t) => {
                d.typed(e.clone(), t.clone());
            }
            Op::Categorized(e, c) => {
                d.categorized(e.clone(), c.clone());
            }
            Op::Label(e, l) => {
                d.label(e.clone(), l.clone());
            }
            Op::LiteralI(s, p, v) => {
                d.literal(s.clone(), p.clone(), Literal::integer(*v));
            }
            Op::Redirect(a, t) => {
                d.redirect(a.clone(), t.clone());
            }
            Op::RetractTriple(s, p, o) => {
                d.retract_triple(s.clone(), p.clone(), o.clone());
            }
            Op::RetractTyped(e, t) => {
                d.retract_typed(e.clone(), t.clone());
            }
            Op::RetractCategorized(e, c) => {
                d.retract_categorized(e.clone(), c.clone());
            }
            Op::RetractLabel(e, l) => {
                d.retract_label(e.clone(), l.clone());
            }
            Op::RetractLiteral(s, p, v) => {
                d.retract_literal(s.clone(), p.clone(), Literal::integer(*v));
            }
            Op::RetractAlias(a, t) => {
                d.retract_alias(a.clone(), t.clone());
            }
        }
    }
    d
}

/// What survives a script: the statement-level ground truth.
struct Shadow {
    triples: HashSet<(String, String, String)>,
    types: HashSet<(String, String)>,
    cats: HashSet<(String, String)>,
    labels: HashMap<String, String>,
    aliases: HashSet<(String, String)>,
    /// Every literal insert instance, in script order, with liveness —
    /// a retract kills *all* live copies matching its value.
    literal_alive: Vec<bool>,
}

fn shadow(scripts: &[Vec<Op>]) -> Shadow {
    let mut sh = Shadow {
        triples: HashSet::new(),
        types: HashSet::new(),
        cats: HashSet::new(),
        labels: HashMap::new(),
        aliases: HashSet::new(),
        literal_alive: Vec::new(),
    };
    // instance bookkeeping for the literal multiset
    let mut literal_keys: Vec<(String, String, i64)> = Vec::new();
    for op in scripts.iter().flatten() {
        match op {
            Op::Entity(_) => {}
            Op::Triple(s, p, o) => {
                sh.triples.insert((s.clone(), p.clone(), o.clone()));
            }
            Op::Typed(e, t) => {
                sh.types.insert((e.clone(), t.clone()));
            }
            Op::Categorized(e, c) => {
                sh.cats.insert((e.clone(), c.clone()));
            }
            Op::Label(e, l) => {
                sh.labels.insert(e.clone(), l.clone());
            }
            Op::LiteralI(s, p, v) => {
                literal_keys.push((s.clone(), p.clone(), *v));
                sh.literal_alive.push(true);
            }
            Op::Redirect(a, t) => {
                sh.aliases.insert((a.clone(), t.clone()));
            }
            Op::RetractTriple(s, p, o) => {
                sh.triples.remove(&(s.clone(), p.clone(), o.clone()));
            }
            Op::RetractTyped(e, t) => {
                sh.types.remove(&(e.clone(), t.clone()));
            }
            Op::RetractCategorized(e, c) => {
                sh.cats.remove(&(e.clone(), c.clone()));
            }
            Op::RetractLabel(e, l) => {
                if sh.labels.get(e) == Some(l) {
                    sh.labels.remove(e);
                }
            }
            Op::RetractLiteral(s, p, v) => {
                for (i, key) in literal_keys.iter().enumerate() {
                    if key.0 == *s && key.1 == *p && key.2 == *v {
                        sh.literal_alive[i] = false;
                    }
                }
            }
            Op::RetractAlias(a, t) => {
                sh.aliases.remove(&(a.clone(), t.clone()));
            }
        }
    }
    sh
}

/// Rebuild the surviving statements with the live graph's dictionary
/// order: every *insert* op interns its names at its script position
/// (retracts never intern), but only statements the shadow says survived
/// are materialized.
fn replay_into_builder(script: &[Op], sh: &Shadow, b: &mut KgBuilder, literal_idx: &mut usize) {
    for op in script {
        match op {
            Op::Entity(e) => {
                b.entity(e);
            }
            Op::Triple(s, p, o) => {
                let (si, pi, oi) = (b.entity(s), b.predicate(p), b.entity(o));
                if sh.triples.contains(&(s.clone(), p.clone(), o.clone())) {
                    b.triple(si, pi, oi);
                }
            }
            Op::Typed(e, t) => {
                let ei = b.entity(e);
                b.declare_type(t);
                if sh.types.contains(&(e.clone(), t.clone())) {
                    b.typed(ei, t);
                }
            }
            Op::Categorized(e, c) => {
                let ei = b.entity(e);
                b.declare_category(c);
                if sh.cats.contains(&(e.clone(), c.clone())) {
                    b.categorized(ei, c);
                }
            }
            Op::Label(e, _) => {
                b.entity(e);
            }
            Op::LiteralI(s, p, v) => {
                let (si, pi) = (b.entity(s), b.predicate(p));
                if sh.literal_alive[*literal_idx] {
                    b.literal_triple(si, pi, Literal::integer(*v));
                }
                *literal_idx += 1;
            }
            Op::Redirect(_, t) => {
                b.entity(t);
            }
            _ => {} // retracts intern nothing
        }
    }
}

fn finish_builder(sh: &Shadow, mut b: KgBuilder) -> KnowledgeGraph {
    // labels overwrite, so only the final value per entity matters
    for (e, l) in &sh.labels {
        let ei = b.entity(e);
        b.label(ei, l.clone());
    }
    // alias rows are sorted + deduplicated at finish, so order is free
    let mut aliases: Vec<_> = sh.aliases.iter().collect();
    aliases.sort();
    for (a, t) in aliases {
        let ti = b.entity(t);
        b.redirect(a.clone(), ti);
    }
    b.finish()
}

/// The full ground truth: base + deltas replayed through the shadow.
fn ground_truth(base: &BaseSpec, deltas: &[Vec<Op>]) -> KnowledgeGraph {
    let mut scripts = vec![base_script(base)];
    scripts.extend(deltas.iter().cloned());
    let sh = shadow(&scripts);
    let mut b = KgBuilder::new();
    let mut literal_idx = 0;
    for script in &scripts {
        replay_into_builder(script, &sh, &mut b, &mut literal_idx);
    }
    finish_builder(&sh, b)
}

/// Everything the interface renders for one query — the comparison
/// payload (the incremental suite's snapshot, minus profiles for
/// brevity: profiles read the same extents the rankings do).
struct Snapshot {
    features: Vec<(pivote_core::SemanticFeature, f64)>,
    entities: Vec<(EntityId, f64)>,
    heat_levels: Vec<u8>,
    heat_values: Vec<f64>,
    profiles: Vec<pivote_explore::EntityProfile>,
}

fn snapshot(handle: &GraphHandle<'_>, seeds: &[EntityId], probes: &[EntityId]) -> Snapshot {
    let expander = pivote_core::Expander::with_handle(handle.clone(), RankingConfig::default());
    let res = expander.expand(&SfQuery::from_seeds(seeds.to_vec()), 15, 10);
    let axis: Vec<EntityId> = res.entities.iter().map(|re| re.entity).collect();
    let hm = pivote_core::HeatMap::compute(expander.ranker(), &axis, &res.features);
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
            .map(|&e| pivote_explore::build_profile(expander.ranker(), e, 8))
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
        assert!(
            a.1.to_bits() == b.1.to_bits(),
            "{what}: feature score drifted"
        );
    }
    assert_eq!(
        got.entities.len(),
        want.entities.len(),
        "{what}: entity count"
    );
    for (a, b) in got.entities.iter().zip(&want.entities) {
        assert_eq!(a.0, b.0, "{what}: entity order");
        assert!(
            a.1.to_bits() == b.1.to_bits(),
            "{what}: entity score drifted"
        );
    }
    assert_eq!(got.heat_levels, want.heat_levels, "{what}: heat levels");
    assert_eq!(got.heat_values.len(), want.heat_values.len());
    for (a, b) in got.heat_values.iter().zip(&want.heat_values) {
        assert!(a.to_bits() == b.to_bits(), "{what}: heat value drifted");
    }
    assert_eq!(got.profiles, want.profiles, "{what}: profiles");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_mixed_workload_equals_rebuild_from_survivors(
        base in base_strategy(),
        m1 in mixed_strategy(),
        m2 in mixed_strategy(),
        seed_a in 0u8..10,
        seed_b in 0u8..10,
    ) {
        let ops1 = decode(&m1);
        let ops2 = decode(&m2);
        let d1 = delta_batch(&ops1);
        let d2 = delta_batch(&ops2);

        let truth = ground_truth(&base, &[ops1, ops2]);
        let seeds: Vec<EntityId> = {
            let mut s = vec![
                truth.entity(&format!("e{seed_a}")).unwrap(),
                truth.entity(&format!("e{seed_b}")).unwrap(),
            ];
            s.sort_unstable();
            s.dedup();
            s
        };
        let probes: Vec<EntityId> = seeds
            .iter()
            .copied()
            .chain((10..16u8).filter_map(|i| truth.entity(&format!("e{i}"))))
            .collect();
        let want = snapshot(&GraphHandle::with_threads(&ShardedGraph::from(truth.clone()), 1), &seeds, &probes);

        // single graph: apply the mixed batches, compare, then reclaim
        // the tombstones and compare again
        let mut inc = base_builder(&base).finish();
        inc.apply(&d1);
        inc.apply(&d2);
        prop_assert_eq!(inc.generation(), 2);
        let got = snapshot(&GraphHandle::with_threads(&ShardedGraph::from(inc.clone()), 1), &seeds, &probes);
        assert_snapshots_equal(&got, &want, "single mixed");

        let reclaimed = inc.reclaim();
        prop_assert_eq!(reclaimed.tombstone_count(), 0);
        let got = snapshot(&GraphHandle::with_threads(&ShardedGraph::from(reclaimed.clone()), 1), &seeds, &probes);
        assert_snapshots_equal(&got, &want, "single reclaimed");

        // sharded: route the same batches, compare across shard counts ×
        // thread counts, then compact and compare once more
        for shards in [1, 2, 3, 4] {
            let mut sg = pivote_kg::ShardedGraph::from_graph(
                &base_builder(&base).finish(),
                shards,
            );
            sg.apply(&d1);
            sg.apply(&d2);
            for threads in [1usize, 2] {
                let got = snapshot(
                    &GraphHandle::with_threads(&sg, threads),
                    &seeds,
                    &probes,
                );
                assert_snapshots_equal(
                    &got,
                    &want,
                    &format!("sharded mixed (shards={shards}, threads={threads})"),
                );
            }
            let compacted = sg.compact(2);
            prop_assert_eq!(compacted.tombstone_count(), 0);
            let got = snapshot(
                &GraphHandle::with_threads(&compacted, 1),
                &seeds,
                &probes,
            );
            assert_snapshots_equal(
                &got,
                &want,
                &format!("sharded compacted (shards={shards})"),
            );
        }
    }
}

/// The deterministic golden leg: a fixed mixed workload whose receipt
/// counters, tombstone mass and serialized survivors are pinned exactly.
#[test]
fn golden_mixed_workload_is_exact() {
    let base: BaseSpec = (
        vec![
            (0, 0, 1),
            (0, 1, 2),
            (1, 0, 3),
            (2, 2, 4),
            (3, 0, 5),
            (5, 3, 0),
        ],
        vec![(0, 0), (1, 0), (2, 1)],
        vec![(0, 0), (1, 0), (2, 1), (3, 1)],
    );
    let ops1 = vec![
        Op::Triple("e0".into(), "p0".into(), "e6".into()),
        Op::Typed("e6".into(), "t0".into()),
        Op::Label("e6".into(), "Six".into()),
        Op::LiteralI("e6".into(), "lp0".into(), 7),
        Op::LiteralI("e6".into(), "lp0".into(), 7),
        Op::Redirect("Sixx".into(), "e6".into()),
    ];
    let ops2 = vec![
        Op::RetractTriple("e0".into(), "p0".into(), "e1".into()),
        Op::RetractTyped("e1".into(), "t0".into()),
        Op::RetractCategorized("e2".into(), "c1".into()),
        Op::RetractLiteral("e6".into(), "lp0".into(), 7),
        Op::RetractLabel("e6".into(), "Six".into()),
        Op::RetractAlias("Sixx".into(), "e6".into()),
        Op::RetractTriple("e9".into(), "p0".into(), "e9".into()), // never stored
    ];

    let mut inc = base_builder(&base).finish();
    let r1 = inc.apply(&delta_batch(&ops1));
    assert_eq!(r1.added_relations, 1);
    assert_eq!(r1.added_literals, 2);
    let r2 = inc.apply(&delta_batch(&ops2));
    assert_eq!(r2.removed_relations, 1, "one stored triple retracted");
    assert_eq!(r2.removed_literals, 2, "both copies of the literal go");
    // type + category + label + alias
    assert_eq!(r2.removed_assertions, 4);
    assert!(inc.tombstone_count() > 0);

    let truth = ground_truth(&base, &[ops1.clone(), ops2.clone()]);
    let seeds = vec![truth.entity("e0").unwrap()];
    let probes = vec![truth.entity("e0").unwrap(), truth.entity("e6").unwrap()];
    let want = snapshot(
        &GraphHandle::with_threads(&ShardedGraph::from(truth.clone()), 1),
        &seeds,
        &probes,
    );
    let got = snapshot(
        &GraphHandle::with_threads(&ShardedGraph::from(inc.clone()), 1),
        &seeds,
        &probes,
    );
    assert_snapshots_equal(&got, &want, "golden mixed");

    // reclaim drops the tombstones and the serialized survivors are
    // byte-identical to the from-scratch rebuild
    let reclaimed = inc.reclaim();
    assert_eq!(reclaimed.tombstone_count(), 0);
    assert_eq!(
        pivote_kg::serialize(&reclaimed),
        pivote_kg::serialize(&truth),
        "reclaimed survivors must serialize bit-identically to the rebuild"
    );

    // the sharded route lands on the same statements
    for shards in [1usize, 2, 3] {
        let mut sg = pivote_kg::ShardedGraph::from_graph(&base_builder(&base).finish(), shards);
        sg.apply(&delta_batch(&ops1));
        let r2s = sg.apply(&delta_batch(&ops2));
        assert_eq!(r2s.removed_relations, 1, "shards={shards}");
        assert_eq!(r2s.removed_literals, 2, "shards={shards}");
        assert_eq!(r2s.removed_assertions, 4, "shards={shards}");
        assert_eq!(
            pivote_kg::serialize(&sg.compact(1).to_graph()),
            pivote_kg::serialize(&truth),
            "shards={shards}"
        );
    }
}
