//! The path-based ranking model (paper §2.3, after Zhang et al. \[6\] and
//! Chen et al. \[1\]).
//!
//! Given a query `Q` of seed entities:
//!
//! - **Feature ranking** (§2.3.1): `r(π, Q) = d(π) · c(π, Q)` where the
//!   discriminability `d(π) = 1/‖E(π)‖` is an IDF-style weight and the
//!   commonality `c(π, Q) = ∏_{e∈Q} p(π|e)` measures how much of the query
//!   shares the feature. `p(π|e)` is 1 for an exact match and otherwise the
//!   *error-tolerant* estimate `p(π|c*) = ‖E(π) ∩ E(c*)‖ / ‖E(c*)‖`, where
//!   `c*` is the category (or type) context of `e` that best explains `π`.
//! - **Entity ranking** (§2.3.2):
//!   `r(e, Q) = Σ_{π ∈ Φ(Q)} p(π|e) · r(π, Q)` over the top-ranked feature
//!   set `Φ(Q)`.
//!
//! [`Ranker`] owns the *model*: a [`RankingConfig`] applied through a
//! shared [`GraphHandle`], whose context provides memoized probabilities,
//! interned extents, parallel scoring and bounded top-k selection. Several
//! rankers (e.g. the A1/A2 ablations, or every baseline in
//! `pivote-baselines`) can share one context over the same graph — the
//! cached `p(π|c)` densities are pure graph quantities.

use crate::config::RankingConfig;
use crate::feature::SemanticFeature;
use crate::handle::GraphHandle;
use pivote_kg::EntityId;
use serde::{Deserialize, Serialize};

/// A feature with its ranking-model scores.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankedFeature {
    /// The semantic feature.
    pub feature: SemanticFeature,
    /// `r(π, Q) = d(π) · c(π, Q)`.
    pub score: f64,
    /// `d(π) = 1/‖E(π)‖` (or 1.0 under the A2 ablation).
    pub discriminability: f64,
    /// `c(π, Q) = ∏_{e∈Q} p(π|e)`.
    pub commonality: f64,
}

/// A candidate entity with its relevance to the query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankedEntity {
    /// The entity.
    pub entity: EntityId,
    /// `r(e, Q)`.
    pub score: f64,
}

/// The ranking engine: a [`RankingConfig`] bound to a [`GraphHandle`].
/// Cheap to construct; all memoized state lives in the handle's context
/// so clones/ablations sharing a handle also share the caches.
pub struct Ranker<'kg> {
    handle: GraphHandle<'kg>,
    config: RankingConfig,
}

impl<'kg> Ranker<'kg> {
    /// Create a ranker over a graph handle.
    pub fn with_handle(handle: GraphHandle<'kg>, config: RankingConfig) -> Self {
        Self { handle, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &RankingConfig {
        &self.config
    }

    /// The graph handle this ranker runs on.
    pub fn handle(&self) -> &GraphHandle<'kg> {
        &self.handle
    }

    /// `d(π)`: inverse extent size, the IDF-style discriminability.
    pub fn discriminability(&self, sf: SemanticFeature) -> f64 {
        self.handle.discriminability(&self.config, sf)
    }

    /// `p(π|e)`: 1 for an exact match, otherwise the error-tolerant
    /// context estimate (or 0 when error tolerance is disabled).
    pub fn p_feature_given_entity(&self, sf: SemanticFeature, e: EntityId) -> f64 {
        self.handle.p_feature_given_entity(&self.config, sf, e)
    }

    /// `c(π, Q) = ∏_{e∈Q} p(π|e)`.
    pub fn commonality(&self, sf: SemanticFeature, seeds: &[EntityId]) -> f64 {
        self.handle.commonality(&self.config, sf, seeds)
    }

    /// The candidate feature pool: the union of the seeds' own features,
    /// filtered by extent size.
    pub fn candidate_features(&self, seeds: &[EntityId]) -> Vec<SemanticFeature> {
        self.handle.candidate_features(&self.config, seeds)
    }

    /// Rank all candidate features of the query: `Φ(Q)` scored by
    /// `r(π, Q)`, descending, zero-scored features dropped.
    pub fn rank_features(&self, seeds: &[EntityId]) -> Vec<RankedFeature> {
        self.handle.rank_features(&self.config, seeds)
    }

    /// The best `k` features only, selected with a bounded heap.
    pub fn rank_features_top_k(&self, seeds: &[EntityId], k: usize) -> Vec<RankedFeature> {
        self.handle.rank_features_top_k(&self.config, seeds, k)
    }

    /// Gather candidate entities: the union of the extents of the top
    /// features, in feature-score order, capped at `max_candidates`, with
    /// seeds removed when configured.
    pub fn candidate_entities(
        &self,
        seeds: &[EntityId],
        features: &[RankedFeature],
    ) -> Vec<EntityId> {
        self.handle
            .candidate_entities(&self.config, seeds, features)
    }

    /// `r(e, Q)` for one entity over a scored feature set.
    pub fn score_entity(&self, e: EntityId, features: &[RankedFeature]) -> f64 {
        self.handle.score_entity(&self.config, e, features)
    }

    /// Rank candidate entities by `r(e, Q)` over the top features,
    /// descending with entity-id tiebreak. Scoring runs on the context's
    /// worker threads; the result is bit-identical to a sequential pass.
    pub fn rank_entities(
        &self,
        seeds: &[EntityId],
        features: &[RankedFeature],
    ) -> Vec<RankedEntity> {
        self.handle.rank_entities(&self.config, seeds, features)
    }

    /// The best `k` entities only, with an optional pre-score filter
    /// applied before any smoothing work is spent.
    pub fn rank_entities_top_k<F>(
        &self,
        seeds: &[EntityId],
        features: &[RankedFeature],
        k: usize,
        filter: F,
    ) -> Vec<RankedEntity>
    where
        F: Fn(EntityId) -> bool + Sync,
    {
        self.handle
            .rank_entities_top_k(&self.config, seeds, features, k, filter)
    }

    /// [`Ranker::rank_entities`] with an explicit worker-thread count
    /// (kept for scaling experiments; `1` forces the sequential path).
    /// Produces exactly the same ranking as the sequential path.
    pub fn rank_entities_parallel(
        &self,
        seeds: &[EntityId],
        features: &[RankedFeature],
        threads: usize,
    ) -> Vec<RankedEntity> {
        let top = &features[..features.len().min(self.config.top_features)];
        let candidates = self
            .handle
            .candidate_entities(&self.config, seeds, features);
        let scored = self
            .handle
            .par_map_with(threads.max(1), &candidates, |&e| RankedEntity {
                entity: e,
                score: self.handle.score_entity(&self.config, e, top),
            });
        crate::context::top_k_ranked(
            scored.into_iter(),
            usize::MAX,
            |re| re.score,
            |a, b| a.entity.cmp(&b.entity),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::Direction;
    use pivote_kg::{KgBuilder, KnowledgeGraph, ShardedGraph};

    /// Hand-computable fixture:
    /// films f1,f2,f3; actors A,B; f1,f2 star A and B; f3 stars only B.
    /// All films in category "films"; f1,f2 additionally in "oscar".
    fn kg() -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        let f1 = b.entity("f1");
        let f2 = b.entity("f2");
        let f3 = b.entity("f3");
        let a = b.entity("A");
        let bb = b.entity("B");
        let starring = b.predicate("starring");
        b.triple(f1, starring, a);
        b.triple(f1, starring, bb);
        b.triple(f2, starring, a);
        b.triple(f2, starring, bb);
        b.triple(f3, starring, bb);
        for f in [f1, f2, f3] {
            b.categorized(f, "films");
        }
        b.categorized(f1, "oscar");
        b.categorized(f2, "oscar");
        b.finish()
    }

    fn sf_a(kg: &KnowledgeGraph) -> SemanticFeature {
        SemanticFeature::to_anchor(kg.entity("A").unwrap(), kg.predicate("starring").unwrap())
    }

    fn sf_b(kg: &KnowledgeGraph) -> SemanticFeature {
        SemanticFeature::to_anchor(kg.entity("B").unwrap(), kg.predicate("starring").unwrap())
    }

    #[test]
    fn discriminability_is_inverse_extent() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        assert!((r.discriminability(sf_a(&kg)) - 0.5).abs() < 1e-12);
        assert!((r.discriminability(sf_b(&kg)) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn discriminability_ablation_is_uniform() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(
            GraphHandle::new(&sg),
            RankingConfig::default().without_discriminability(),
        );
        assert_eq!(r.discriminability(sf_a(&kg)), 1.0);
        assert_eq!(r.discriminability(sf_b(&kg)), 1.0);
    }

    #[test]
    fn p_feature_exact_match_is_one() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let f1 = kg.entity("f1").unwrap();
        assert_eq!(r.p_feature_given_entity(sf_a(&kg), f1), 1.0);
    }

    #[test]
    fn p_feature_smoothed_via_best_category() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let f3 = kg.entity("f3").unwrap();
        // f3 does not star A. Contexts: "films" gives |{f1,f2}∩{f1,f2,f3}|/3 = 2/3.
        let p = r.p_feature_given_entity(sf_a(&kg), f3);
        assert!((p - 2.0 / 3.0).abs() < 1e-12, "p={p}");
    }

    #[test]
    fn p_feature_without_tolerance_is_zero() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(
            GraphHandle::new(&sg),
            RankingConfig::default().without_error_tolerance(),
        );
        let f3 = kg.entity("f3").unwrap();
        assert_eq!(r.p_feature_given_entity(sf_a(&kg), f3), 0.0);
    }

    #[test]
    fn best_context_prefers_denser_category() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        // For f3 the "oscar" category would give 2/2 = 1.0, but f3 is not
        // in it; only "films" (2/3) applies. Check a seed in "oscar":
        // p(sf_a | f2) is an exact match anyway, so probe the internal
        // context estimate through commonality with a non-matching seed.
        let f3 = kg.entity("f3").unwrap();
        let c = r.commonality(sf_a(&kg), &[f3]);
        assert!((c - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn commonality_multiplies_over_seeds() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let f1 = kg.entity("f1").unwrap();
        let f3 = kg.entity("f3").unwrap();
        // c(sf_a, {f1,f3}) = 1 * 2/3
        assert!((r.commonality(sf_a(&kg), &[f1, f3]) - 2.0 / 3.0).abs() < 1e-12);
        // c(sf_b, {f1,f3}) = 1 * 1
        assert!((r.commonality(sf_b(&kg), &[f1, f3]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rank_features_single_seed_hand_computed() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let f1 = kg.entity("f1").unwrap();
        let ranked = r.rank_features(&[f1]);
        assert_eq!(ranked.len(), 2);
        // r(sf_a) = 1/2 * 1 = 0.5 beats r(sf_b) = 1/3.
        assert_eq!(ranked[0].feature, sf_a(&kg));
        assert!((ranked[0].score - 0.5).abs() < 1e-12);
        assert_eq!(ranked[1].feature, sf_b(&kg));
        assert!((ranked[1].score - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rank_features_top_k_is_a_prefix_of_full_ranking() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let f1 = kg.entity("f1").unwrap();
        let full = r.rank_features(&[f1]);
        for k in 0..=full.len() + 1 {
            let topk = r.rank_features_top_k(&[f1], k);
            assert_eq!(topk, full[..k.min(full.len())].to_vec(), "k={k}");
        }
    }

    #[test]
    fn rank_entities_hand_computed() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let f1 = kg.entity("f1").unwrap();
        let f2 = kg.entity("f2").unwrap();
        let f3 = kg.entity("f3").unwrap();
        let features = r.rank_features(&[f1]);
        let ranked = r.rank_entities(&[f1], &features);
        // candidates are f2 and f3 (f1 excluded as seed)
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].entity, f2);
        // r(f2) = 1*0.5 + 1*(1/3) = 5/6
        assert!(
            (ranked[0].score - 5.0 / 6.0).abs() < 1e-12,
            "{}",
            ranked[0].score
        );
        assert_eq!(ranked[1].entity, f3);
        // r(f3) = (2/3)*0.5 + 1*(1/3) = 2/3
        assert!(
            (ranked[1].score - 2.0 / 3.0).abs() < 1e-12,
            "{}",
            ranked[1].score
        );
    }

    #[test]
    fn rank_entities_without_smoothing_drops_partial_matches() {
        let kg = kg();
        let cfg = RankingConfig::default().without_error_tolerance();
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(GraphHandle::new(&sg), cfg);
        let f1 = kg.entity("f1").unwrap();
        let f3 = kg.entity("f3").unwrap();
        let features = r.rank_features(&[f1]);
        let ranked = r.rank_entities(&[f1], &features);
        let f3_score = ranked.iter().find(|re| re.entity == f3).unwrap().score;
        // only the exact sf_b match remains: 1/3
        assert!((f3_score - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn seeds_can_be_included_when_configured() {
        let kg = kg();
        let cfg = RankingConfig {
            exclude_seeds: false,
            ..RankingConfig::default()
        };
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(GraphHandle::new(&sg), cfg);
        let f1 = kg.entity("f1").unwrap();
        let features = r.rank_features(&[f1]);
        let ranked = r.rank_entities(&[f1], &features);
        assert_eq!(ranked[0].entity, f1, "the seed itself scores highest");
    }

    #[test]
    fn max_extent_prunes_frequent_features() {
        let kg = kg();
        let cfg = RankingConfig {
            max_extent: 2,
            ..RankingConfig::default()
        };
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(GraphHandle::new(&sg), cfg);
        let f1 = kg.entity("f1").unwrap();
        let ranked = r.rank_features(&[f1]);
        // sf_b has extent 3 > 2 and is pruned
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].feature, sf_a(&kg));
    }

    #[test]
    fn empty_seeds_rank_nothing() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        assert!(r.rank_features(&[]).is_empty());
        assert!(r.rank_entities(&[], &[]).is_empty());
    }

    #[test]
    fn adding_matching_seed_never_increases_nonmatching_feature_rank() {
        // Monotonicity: with seeds {f1} vs {f1, f2} (both match sf_a),
        // sf_a's commonality stays 1; with {f1, f3}, it drops.
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let f1 = kg.entity("f1").unwrap();
        let f2 = kg.entity("f2").unwrap();
        let f3 = kg.entity("f3").unwrap();
        let c1 = r.commonality(sf_a(&kg), &[f1]);
        let c12 = r.commonality(sf_a(&kg), &[f1, f2]);
        let c13 = r.commonality(sf_a(&kg), &[f1, f3]);
        assert_eq!(c1, c12);
        assert!(c13 < c12);
    }

    #[test]
    fn parallel_ranking_matches_sequential() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let f1 = kg.entity("f1").unwrap();
        let features = r.rank_features(&[f1]);
        let seq = r.rank_entities_parallel(&[f1], &features, 1);
        for threads in [1, 2, 4, 16] {
            let par = r.rank_entities_parallel(&[f1], &features, threads);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.entity, b.entity);
                assert!((a.score - b.score).abs() < 1e-12);
            }
        }
        // the default (auto-threaded) path agrees too
        let auto = r.rank_entities(&[f1], &features);
        assert_eq!(seq, auto);
    }

    #[test]
    fn parallel_ranking_zero_threads_clamps() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let f1 = kg.entity("f1").unwrap();
        let features = r.rank_features(&[f1]);
        assert!(!r.rank_entities_parallel(&[f1], &features, 0).is_empty());
    }

    #[test]
    fn rankers_sharing_a_context_agree_with_private_contexts() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let shared = GraphHandle::new(&sg);
        let shared_full = Ranker::with_handle(shared.clone(), RankingConfig::default());
        let shared_hard =
            Ranker::with_handle(shared, RankingConfig::default().without_error_tolerance());
        let private_full = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let private_hard = Ranker::with_handle(
            GraphHandle::new(&sg),
            RankingConfig::default().without_error_tolerance(),
        );
        let f1 = kg.entity("f1").unwrap();
        assert_eq!(
            shared_full.rank_features(&[f1]),
            private_full.rank_features(&[f1])
        );
        assert_eq!(
            shared_hard.rank_features(&[f1]),
            private_hard.rank_features(&[f1])
        );
    }

    #[test]
    fn features_of_anchor_direction_from_actor_side() {
        // Seeding with an *actor* must surface FromAnchor features of the
        // films (A is an object of f1/f2).
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let r = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let a = kg.entity("A").unwrap();
        let ranked = r.rank_features(&[a]);
        assert!(!ranked.is_empty());
        assert!(ranked
            .iter()
            .all(|rf| rf.feature.direction == Direction::FromAnchor));
    }
}
