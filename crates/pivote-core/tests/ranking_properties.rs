//! Property tests of the ranking model over randomly generated small
//! knowledge graphs: the probabilistic quantities must stay in range and
//! the documented invariants must hold for *any* graph shape.

use pivote_core::{features_of, GraphHandle, RankedEntity, Ranker, RankingConfig};
use pivote_kg::{KgBuilder, KnowledgeGraph, ShardedGraph};
use proptest::prelude::*;

/// A random small KG: entities e0..e11, predicates p0..p3, a random edge
/// list, and random category assignments over 3 categories.
fn random_kg() -> impl Strategy<Value = KnowledgeGraph> {
    let edges = proptest::collection::vec((0u8..12, 0u8..4, 0u8..12), 1..48);
    let cats = proptest::collection::vec((0u8..12, 0u8..3), 0..24);
    (edges, cats).prop_map(|(edges, cats)| {
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
        b.finish()
    })
}

fn configs() -> Vec<RankingConfig> {
    vec![
        RankingConfig::default(),
        RankingConfig::default().without_error_tolerance(),
        RankingConfig::default().without_discriminability(),
        RankingConfig {
            min_extent: 1,
            exclude_seeds: false,
            ..RankingConfig::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// p(π|e) ∈ [0,1]; exact matches give exactly 1.
    #[test]
    fn prop_probability_bounds(kg in random_kg(), seed in 0u8..12) {
        let e = kg.entity(&format!("e{seed}")).unwrap();
        let sg = ShardedGraph::from(kg.clone());
        for config in configs() {
            let ranker = Ranker::with_handle(GraphHandle::new(&sg), config);
            for sf in features_of(&kg, e) {
                let p = ranker.p_feature_given_entity(sf, e);
                prop_assert!((p - 1.0).abs() < 1e-12, "own feature must have p=1");
                // probe all other entities too
                for other in kg.entity_ids() {
                    let p = ranker.p_feature_given_entity(sf, other);
                    prop_assert!((0.0..=1.0 + 1e-12).contains(&p), "p out of range: {p}");
                }
            }
        }
    }

    /// Ranked feature lists are sorted, positive, and consistent with
    /// score = d × c.
    #[test]
    fn prop_feature_ranking_invariants(kg in random_kg(), seed in 0u8..12) {
        let e = kg.entity(&format!("e{seed}")).unwrap();
        let sg = ShardedGraph::from(kg.clone());
        for config in configs() {
            let ranker = Ranker::with_handle(GraphHandle::new(&sg), config);
            let ranked = ranker.rank_features(&[e]);
            prop_assert!(ranked.windows(2).all(|w| w[0].score >= w[1].score));
            for rf in &ranked {
                prop_assert!(rf.score > 0.0);
                prop_assert!((rf.score - rf.discriminability * rf.commonality).abs() < 1e-12);
                prop_assert!(rf.feature.extent_size(&kg) >= config.min_extent.max(1));
            }
        }
    }

    /// Entity ranking: scores non-negative, sorted, no seeds (when
    /// excluded), no duplicates; parallel equals sequential.
    #[test]
    fn prop_entity_ranking_invariants(kg in random_kg(), seed in 0u8..12) {
        let e = kg.entity(&format!("e{seed}")).unwrap();
        let sg = ShardedGraph::from(kg.clone());
        let ranker = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let features = ranker.rank_features(&[e]);
        let ranked = ranker.rank_entities(&[e], &features);
        prop_assert!(ranked.windows(2).all(|w| w[0].score >= w[1].score));
        prop_assert!(ranked.iter().all(|re| re.score >= 0.0));
        prop_assert!(ranked.iter().all(|re| re.entity != e), "seed leaked");
        let mut ids: Vec<_> = ranked.iter().map(|re| re.entity).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), ranked.len(), "duplicate candidates");

        let par = ranker.rank_entities_parallel(&[e], &features, 3);
        let same = ranked
            .iter()
            .zip(&par)
            .all(|(a, b): (&RankedEntity, &RankedEntity)| {
                a.entity == b.entity && (a.score - b.score).abs() < 1e-12
            });
        prop_assert!(same && ranked.len() == par.len(), "parallel ranking diverged");
    }

    /// Disabling error tolerance can only remove candidate mass: every
    /// entity's score under the ablation is ≤ its score under the full
    /// model (same feature set).
    #[test]
    fn prop_error_tolerance_only_adds_mass(kg in random_kg(), seed in 0u8..12) {
        let e = kg.entity(&format!("e{seed}")).unwrap();
        let sg = ShardedGraph::from(kg.clone());
        let full = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let hard = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default().without_error_tolerance());
        // shared feature set: the full model's (scores differ only in c)
        let features = full.rank_features(&[e]);
        for re in hard.rank_entities(&[e], &features) {
            let full_score = full.score_entity(re.entity, &features);
            prop_assert!(full_score >= re.score - 1e-12,
                "full {} < hard {}", full_score, re.score);
        }
    }
}
