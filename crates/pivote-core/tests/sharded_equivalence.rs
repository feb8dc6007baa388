//! The query context's contract, property-tested: for **any** randomly
//! generated graph and query, the context produces **bit-for-bit** the
//! feature and entity rankings of the paper's model, across shard counts
//! 1–4 and worker-thread counts 1–2.
//!
//! The reference is [`Oracle`]: the model written the slow, obvious way
//! over one [`KnowledgeGraph`] — sequential, uncached, no feature ids, no
//! shards, no heaps — the way `index::tests::reference` serves the search
//! index. Any drift in the shard router, the per-shard id remap, the
//! owned-prefix extent decomposition, the probability cache or the top-k
//! heap merge breaks exact score equality here.
//!
//! The shard-count matrix is 1–4, which includes shard counts near and
//! above the 12-entity id space so empty and near-empty shards are
//! exercised on every case. Shard count 1 is the parsed graph wrapped by
//! move (`ShardedGraph::from`), the store every unsharded caller gets.

use pivote_core::{
    features_of, Expander, GraphHandle, RankedEntity, RankedFeature, RankingConfig,
    SemanticFeature, SfQuery,
};
use pivote_kg::{DeltaBatch, EntityId, KgBuilder, KnowledgeGraph, ShardedGraph, TypeId};
use proptest::prelude::*;
use std::cmp::Ordering;

/// The ranking model of the paper (§2.3), computed from its definitions
/// over one graph with nothing memoized and nothing parallel.
struct Oracle<'a> {
    kg: &'a KnowledgeGraph,
    config: RankingConfig,
}

impl Oracle<'_> {
    /// `d(π) = 1/‖E(π)‖` (1 under the A2 ablation).
    fn d(&self, sf: SemanticFeature) -> f64 {
        let n = sf.extent_size(self.kg);
        match (self.config.use_discriminability, n) {
            (false, _) => 1.0,
            (true, 0) => 0.0,
            (true, n) => 1.0 / n as f64,
        }
    }

    /// `p(π|c) = ‖E(π) ∩ E(c)‖ / ‖E(c)‖` for a context extent `E(c)`.
    fn p_ctx(&self, sf: SemanticFeature, context: &[EntityId]) -> f64 {
        if context.is_empty() {
            return 0.0;
        }
        let inside = context.iter().filter(|&&e| sf.matches(self.kg, e)).count();
        inside as f64 / context.len() as f64
    }

    /// `p(π|c*) = max_c p(π|c)` over `e`'s categories (and types).
    fn p_best(&self, sf: SemanticFeature, e: EntityId) -> f64 {
        let mut best = 0.0f64;
        for c in self.kg.categories_of(e) {
            best = best.max(self.p_ctx(sf, self.kg.category_extent(c)));
        }
        if self.config.use_types_as_context {
            for t in self.kg.types_of(e) {
                best = best.max(self.p_ctx(sf, self.kg.type_extent(t)));
            }
        }
        best
    }

    /// `p(π|e)`: 1 on a match, else the smoothed estimate (or 0).
    fn p(&self, sf: SemanticFeature, e: EntityId) -> f64 {
        if sf.matches(self.kg, e) {
            1.0
        } else if self.config.error_tolerant {
            self.p_best(sf, e)
        } else {
            0.0
        }
    }

    /// `Φ(Q)` scored by `r(π,Q) = d(π)·∏ p(π|e)`, best first.
    fn rank_features(&self, seeds: &[EntityId]) -> Vec<RankedFeature> {
        let mut pool: Vec<SemanticFeature> = seeds
            .iter()
            .flat_map(|&e| features_of(self.kg, e))
            .collect();
        pool.sort_unstable();
        pool.dedup();
        let mut ranked: Vec<RankedFeature> = pool
            .into_iter()
            .filter(|sf| {
                let n = sf.extent_size(self.kg);
                n >= self.config.min_extent.max(1) && n <= self.config.max_extent
            })
            .map(|sf| {
                let d = self.d(sf);
                let c = seeds.iter().fold(1.0, |c, &e| c * self.p(sf, e));
                let c = if d > 0.0 { c } else { 0.0 };
                RankedFeature {
                    feature: sf,
                    score: d * c,
                    discriminability: d,
                    commonality: c,
                }
            })
            .filter(|rf| rf.score > 0.0)
            .collect();
        ranked.sort_by(|a, b| desc(a.score, b.score).then(a.feature.cmp(&b.feature)));
        ranked
    }

    /// The union of the top features' extents, taken in score order
    /// until `4 × max_candidates` members are in, minus the seeds.
    fn candidates(&self, seeds: &[EntityId], features: &[RankedFeature]) -> Vec<EntityId> {
        let cap = self.config.max_candidates.saturating_mul(4);
        let mut out = Vec::new();
        for rf in features.iter().take(self.config.top_features) {
            out.extend_from_slice(rf.feature.extent(self.kg));
            if out.len() >= cap {
                break;
            }
        }
        out.sort_unstable();
        out.dedup();
        if self.config.exclude_seeds {
            out.retain(|e| !seeds.contains(e));
        }
        out.truncate(self.config.max_candidates);
        out
    }

    /// The best `k` of `candidates` by `r(e,Q) = Σ p(π|e)·r(π,Q)` over
    /// the top features.
    fn select(
        &self,
        candidates: Vec<EntityId>,
        features: &[RankedFeature],
        k: usize,
    ) -> Vec<RankedEntity> {
        let top = &features[..features.len().min(self.config.top_features)];
        let smooth = self.config.error_tolerant && self.config.smooth_candidates;
        let mut ranked: Vec<RankedEntity> = candidates
            .into_iter()
            .map(|e| RankedEntity {
                entity: e,
                score: top.iter().fold(0.0, |score, rf| {
                    let p = match (rf.feature.matches(self.kg, e), smooth) {
                        (true, _) => 1.0,
                        (false, true) => self.p_best(rf.feature, e),
                        (false, false) => 0.0,
                    };
                    score + p * rf.score
                }),
            })
            .collect();
        ranked.sort_by(|a, b| desc(a.score, b.score).then(a.entity.cmp(&b.entity)));
        ranked.truncate(k);
        ranked
    }

    /// Seed expansion with an optional type filter.
    fn expand(
        &self,
        seeds: &[EntityId],
        ty: Option<TypeId>,
        k: usize,
        k_features: usize,
    ) -> (Vec<RankedEntity>, Vec<RankedFeature>) {
        let mut features = self.rank_features(seeds);
        features.truncate(self.config.top_features.max(k_features));
        let mut candidates = self.candidates(seeds, &features);
        if let Some(t) = ty {
            candidates.retain(|&e| self.kg.has_type(e, t));
        }
        let entities = self.select(candidates, &features, k);
        features.truncate(k_features);
        (entities, features)
    }
}

fn desc(a: f64, b: f64) -> Ordering {
    b.partial_cmp(&a).unwrap_or(Ordering::Equal)
}

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

/// The graph at every shard count of the matrix; count 1 wraps it by
/// move.
fn partitions(kg: &KnowledgeGraph) -> Vec<ShardedGraph> {
    let mut out = vec![ShardedGraph::from(kg.clone())];
    out.extend((2..=4).map(|n| ShardedGraph::from_graph(kg, n)));
    out
}

/// Hard equality on scores: the context promises bit-identical results,
/// so no epsilon is allowed anywhere in this file.
macro_rules! assert_bits {
    ($a:expr, $b:expr, $($ctx:tt)*) => {
        prop_assert!($a.to_bits() == $b.to_bits(), $($ctx)*)
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Top-k feature and entity rankings equal the oracle's for every
    /// shard/thread combination.
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
            let oracle = Oracle { kg: &kg, config };
            let want_features = oracle.rank_features(&seeds);
            let pool = oracle.candidates(&seeds, &want_features);
            let want_entities = oracle.select(pool.clone(), &want_features, usize::MAX);
            let want_top_k = oracle.select(pool, &want_features, k);

            for sg in partitions(&kg) {
                let shards = sg.shard_count();
                for threads in [1, 2] {
                    let handle = GraphHandle::with_threads(&sg, threads);
                    let features = handle.rank_features(&config, &seeds);
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
                    let entities = handle.rank_entities(&config, &seeds, &features);
                    prop_assert_eq!(entities.len(), want_entities.len());
                    for (a, b) in entities.iter().zip(&want_entities) {
                        prop_assert_eq!(a.entity, b.entity,
                            "entity order diverged (shards={}, threads={})", shards, threads);
                        assert_bits!(a.score, b.score, "entity score diverged");
                    }
                    let top_k =
                        handle.rank_entities_top_k(&config, &seeds, &features, k, |_| true);
                    prop_assert_eq!(top_k.len(), want_top_k.len(), "top-k length diverged");
                    for (a, b) in top_k.iter().zip(&want_top_k) {
                        prop_assert_eq!(a.entity, b.entity, "top-{} diverged", k);
                        assert_bits!(a.score, b.score, "top-{} score diverged", k);
                    }
                }
            }
        }
    }

    /// Seed expansion with and without a type filter equals the
    /// oracle's at every shard count.
    #[test]
    fn prop_sharded_expansion_equals_single(
        kg in random_kg(),
        seed in 0u8..12,
        use_type in 0u8..2,
    ) {
        let e = kg.entity(&format!("e{seed}")).unwrap();
        let mut query = SfQuery::from_seeds(vec![e]);
        if use_type == 1 {
            query.type_filter = kg.type_id("t0");
        }
        let config = RankingConfig::default();
        let oracle = Oracle { kg: &kg, config };
        let (want_entities, want_features) = oracle.expand(&[e], query.type_filter, 15, 10);
        for sg in partitions(&kg) {
            let shards = sg.shard_count();
            let expander = Expander::with_handle(GraphHandle::with_threads(&sg, 2), config);
            let got = expander.expand(&query, 15, 10);
            prop_assert_eq!(got.entities.len(), want_entities.len(), "shards={}", shards);
            for (a, b) in got.entities.iter().zip(&want_entities) {
                prop_assert_eq!(a.entity, b.entity);
                assert_bits!(a.score, b.score, "expansion score diverged (shards={})", shards);
            }
            prop_assert_eq!(got.features.len(), want_features.len());
            for (a, b) in got.features.iter().zip(&want_features) {
                prop_assert_eq!(a.feature, b.feature);
                assert_bits!(a.score, b.score, "expansion feature diverged");
            }
        }
    }

    /// The probability substrate itself is exact: ‖E(π)‖ and p(π|e)
    /// equal the oracle's for every feature × entity pair of the graph.
    #[test]
    fn prop_sharded_probabilities_equal_single(kg in random_kg()) {
        let config = RankingConfig::default();
        let oracle = Oracle { kg: &kg, config };
        for sg in partitions(&kg) {
            let shards = sg.shard_count();
            let handle = GraphHandle::with_threads(&sg, 1);
            for e in kg.entity_ids() {
                for sf in features_of(&kg, e) {
                    prop_assert_eq!(
                        handle.feature_extent_len(sf),
                        sf.extent_size(&kg),
                        "‖E(π)‖ diverged (shards={})", shards
                    );
                    for probe in kg.entity_ids() {
                        let got = handle.p_feature_given_entity(&config, sf, probe);
                        assert_bits!(got, oracle.p(sf, probe), "p(π|e) diverged (shards={})", shards);
                    }
                }
            }
        }
    }

    /// Wrapping a graph by move and partitioning it into one shard build
    /// the same store.
    #[test]
    fn prop_one_shard_by_move_equals_one_shard_partition(kg in random_kg(), seed in 0u8..12) {
        assert_one_shard_routes_agree(&kg, &[kg.entity(&format!("e{seed}")).unwrap()]);
    }
}

/// `ShardedGraph::from(kg)` equals `ShardedGraph::from_graph(&kg, 1)` in
/// serialization, fingerprint (equal to the union rebuild's), rankings,
/// and the receipts of an insert, a retract and an entity-minting batch
/// applied to both.
fn assert_one_shard_routes_agree(kg: &KnowledgeGraph, seeds: &[EntityId]) {
    let mut moved = ShardedGraph::from(kg.clone());
    let mut built = ShardedGraph::from_graph(kg, 1);
    let same_graph = |a: &ShardedGraph, b: &ShardedGraph| {
        assert_eq!(
            pivote_kg::serialize(&a.to_graph()),
            pivote_kg::serialize(&b.to_graph())
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
        // a one-shard store fingerprints its graph directly: that must be
        // the union rebuild's fingerprint, through writes and tombstones
        assert_eq!(a.fingerprint(), pivote_kg::fingerprint(&a.to_graph()));
    };
    same_graph(&moved, &built);
    assert_eq!(
        pivote_kg::serialize(&moved.to_graph()),
        pivote_kg::serialize(kg)
    );
    assert_eq!(moved.fingerprint(), pivote_kg::fingerprint(kg));

    let config = RankingConfig::default();
    {
        let (a, b) = (
            GraphHandle::with_threads(&moved, 1),
            GraphHandle::with_threads(&built, 1),
        );
        let (fa, fb) = (
            a.rank_features(&config, seeds),
            b.rank_features(&config, seeds),
        );
        assert_eq!(fa, fb);
        assert_eq!(
            a.rank_entities(&config, seeds, &fa),
            b.rank_entities(&config, seeds, &fb)
        );
    }

    let name = |i: u32| {
        (i < kg.entity_count() as u32).then(|| kg.entity_name(EntityId::new(i)).to_owned())
    };
    let a = name(0).unwrap_or_else(|| "Route_A".into());
    let b = name(1).unwrap_or_else(|| "Route_B".into());
    let mut insert = DeltaBatch::new();
    insert.triple(&a, "route_link", &b);
    let mut retract = DeltaBatch::new();
    retract.retract_triple(&a, "route_link", &b);
    let mut mint = DeltaBatch::new();
    mint.triple("Route_Minted", "route_link", &a)
        .typed("Route_Minted", "t0")
        .categorized("Route_Minted", "c0");
    for delta in [insert, retract, mint] {
        assert_eq!(moved.apply(&delta), built.apply(&delta));
        same_graph(&moved, &built);
    }
}

#[test]
fn one_shard_by_move_equals_one_shard_partition() {
    let kg = pivote_kg::generate(&pivote_kg::DatagenConfig::tiny());
    let film = kg.type_id("Film").unwrap();
    assert_one_shard_routes_agree(&kg, &kg.type_extent(film)[..2]);
    assert_one_shard_routes_agree(&KgBuilder::new().finish(), &[]);
}
