//! The sharded/merge layer's contract, property-tested: for **any**
//! randomly generated graph and query, the sharded execution layer
//! produces **bit-for-bit** the same feature and entity rankings as the
//! single-graph `QueryContext`, across shard counts 1–4 and worker-thread
//! counts 1–2.
//!
//! This is the regression net for the shard router, the per-shard id
//! remap, the owned-prefix extent decomposition and the top-k heap merge:
//! any drift in one of them breaks exact score equality here.
//!
//! The shard-count matrix is 1–4, which includes shard counts near and
//! above the 12-entity id space so empty and near-empty shards are
//! exercised on every case.

use pivote_core::{GraphHandle, RankingConfig, SfQuery};
use pivote_kg::{KgBuilder, KnowledgeGraph, ShardedGraph};
use proptest::prelude::*;

/// A random small KG: entities e0..e11, predicates p0..p3, a random edge
/// list, random categories over 3, random types over 2.
fn random_kg() -> impl Strategy<Value = KnowledgeGraph> {
    let edges = proptest::collection::vec((0u8..12, 0u8..4, 0u8..12), 1..48);
    let cats = proptest::collection::vec((0u8..12, 0u8..3), 0..24);
    let types = proptest::collection::vec((0u8..12, 0u8..2), 0..16);
    (edges, cats, types).prop_map(|(edges, cats, types)| {
        let mut b = KgBuilder::new();
        for i in 0..12u8 {
            b.entity(&format!("e{i}"));
        }
        for (s, p, o) in edges {
            let s = b.entity(&format!("e{s}"));
            let p = b.predicate(&format!("p{p}"));
            let o = b.entity(&format!("e{o}"));
            b.triple(s, p, o);
        }
        for (e, c) in cats {
            let e = b.entity(&format!("e{e}"));
            b.categorized(e, &format!("c{c}"));
        }
        for (e, t) in types {
            let e = b.entity(&format!("e{e}"));
            b.typed(e, &format!("t{t}"));
        }
        b.finish()
    })
}

fn configs() -> Vec<RankingConfig> {
    vec![
        RankingConfig::default(),
        RankingConfig::default().without_error_tolerance(),
        RankingConfig::default().without_discriminability(),
    ]
}

const SHARD_MATRIX: [usize; 4] = [1, 2, 3, 4];

/// Hard equality on scores: the sharded layer promises bit-identical
/// results, so no epsilon is allowed anywhere in this file.
macro_rules! assert_bits {
    ($a:expr, $b:expr, $($ctx:tt)*) => {
        prop_assert!(($a - $b).abs() == 0.0, $($ctx)*)
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Top-k feature and entity rankings are bit-identical between the
    /// single-graph and sharded backends for every shard/thread combo.
    #[test]
    fn prop_sharded_rankings_equal_single(
        kg in random_kg(),
        seed_a in 0u8..12,
        seed_b in 0u8..12,
        k in 1usize..20,
    ) {
        let seeds: Vec<_> = {
            let mut s = vec![
                kg.entity(&format!("e{seed_a}")).unwrap(),
                kg.entity(&format!("e{seed_b}")).unwrap(),
            ];
            s.sort_unstable();
            s.dedup();
            s
        };
        for config in configs() {
            let single = GraphHandle::single_with_threads(&kg, 1);
            let want_features = single.rank_features(&config, &seeds);
            let want_entities = single.rank_entities(&config, &seeds, &want_features);
            let want_top_k =
                single.rank_entities_top_k(&config, &seeds, &want_features, k, |_| true);

            for shards in SHARD_MATRIX {
                let sg = ShardedGraph::from_graph(&kg, shards);
                for threads in [1, 2] {
                    let sharded = GraphHandle::sharded_with_threads(&sg, threads);
                    let features = sharded.rank_features(&config, &seeds);
                    prop_assert_eq!(
                        features.len(), want_features.len(),
                        "feature count diverged (shards={}, threads={})", shards, threads
                    );
                    for (a, b) in features.iter().zip(&want_features) {
                        prop_assert_eq!(a.feature, b.feature);
                        assert_bits!(a.score, b.score,
                            "feature score diverged (shards={}, threads={})", shards, threads);
                        assert_bits!(a.discriminability, b.discriminability, "d(π) diverged");
                        assert_bits!(a.commonality, b.commonality, "c(π,Q) diverged");
                    }
                    let entities = sharded.rank_entities(&config, &seeds, &features);
                    prop_assert_eq!(entities.len(), want_entities.len());
                    for (a, b) in entities.iter().zip(&want_entities) {
                        prop_assert_eq!(a.entity, b.entity,
                            "entity order diverged (shards={}, threads={})", shards, threads);
                        assert_bits!(a.score, b.score, "entity score diverged");
                    }
                    let top_k =
                        sharded.rank_entities_top_k(&config, &seeds, &features, k, |_| true);
                    prop_assert_eq!(top_k.len(), want_top_k.len(), "top-k length diverged");
                    for (a, b) in top_k.iter().zip(&want_top_k) {
                        prop_assert_eq!(a.entity, b.entity, "top-{} diverged", k);
                        assert_bits!(a.score, b.score, "top-{} score diverged", k);
                    }
                }
            }
        }
    }

    /// Full structured-query expansion (seeds + required features + type
    /// filter) agrees across backends, including the heat-map inputs
    /// `p(π|e)·r(π,Q)` it is built from.
    #[test]
    fn prop_sharded_expansion_equals_single(
        kg in random_kg(),
        seed in 0u8..12,
        use_type in 0u8..2,
    ) {
        use pivote_core::Expander;
        let e = kg.entity(&format!("e{seed}")).unwrap();
        let mut query = SfQuery::from_seeds(vec![e]);
        if use_type == 1 {
            query.type_filter = kg.type_id("t0");
        }
        let config = RankingConfig::default();
        let single = Expander::with_handle(GraphHandle::single_with_threads(&kg, 1), config);
        let want = single.expand(&query, 15, 10);
        for shards in SHARD_MATRIX {
            let sg = ShardedGraph::from_graph(&kg, shards);
            let sharded =
                Expander::with_handle(GraphHandle::sharded_with_threads(&sg, 2), config);
            let got = sharded.expand(&query, 15, 10);
            prop_assert_eq!(got.entities.len(), want.entities.len(), "shards={}", shards);
            for (a, b) in got.entities.iter().zip(&want.entities) {
                prop_assert_eq!(a.entity, b.entity);
                assert_bits!(a.score, b.score, "expansion score diverged (shards={})", shards);
            }
            prop_assert_eq!(got.features.len(), want.features.len());
            for (a, b) in got.features.iter().zip(&want.features) {
                prop_assert_eq!(a.feature, b.feature);
                assert_bits!(a.score, b.score, "expansion feature diverged");
            }
        }
    }

    /// The probability substrate itself is exact: p(π|e) agrees bitwise
    /// for every feature × entity pair of the graph.
    #[test]
    fn prop_sharded_probabilities_equal_single(kg in random_kg()) {
        let config = RankingConfig::default();
        let single = GraphHandle::single_with_threads(&kg, 1);
        for shards in SHARD_MATRIX {
            let sg = ShardedGraph::from_graph(&kg, shards);
            let sharded = GraphHandle::sharded_with_threads(&sg, 1);
            for e in kg.entity_ids() {
                for sf in single.features_of(e) {
                    prop_assert_eq!(
                        single.feature_extent_len(sf),
                        sharded.feature_extent_len(sf),
                        "‖E(π)‖ diverged (shards={})", shards
                    );
                    for probe in kg.entity_ids() {
                        let a = single.p_feature_given_entity(&config, sf, probe);
                        let b = sharded.p_feature_given_entity(&config, sf, probe);
                        assert_bits!(a, b, "p(π|e) diverged (shards={})", shards);
                    }
                }
            }
        }
    }
}
