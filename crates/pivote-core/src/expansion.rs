//! Entity set expansion — the *investigation* operation (paper §3.1).
//!
//! A query is a set of example ("seed") entities plus optional required
//! semantic features ("Find films starring Tom Hanks" = one required
//! feature; "Find films similar to Forrest Gump" = one seed). Expansion
//! returns similar entities ranked by `r(e, Q)` together with the
//! query's relevant semantic features ranked by `r(π, Q)` — exactly the
//! two recommendation areas of the PivotE interface (Fig. 3-c and 3-e).

use crate::config::RankingConfig;
use crate::extent::{contains, intersect_k};
use crate::feature::SemanticFeature;
use crate::handle::GraphHandle;
use crate::ranking::{RankedEntity, RankedFeature, Ranker};
use pivote_kg::{EntityId, ShardedGraph, TypeId};
use serde::{Deserialize, Serialize};

/// A structured exploration query.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SfQuery {
    /// Example entities ("find entities similar to these").
    pub seeds: Vec<EntityId>,
    /// Required semantic features — hard filters every result must match.
    pub required: Vec<SemanticFeature>,
    /// Restrict results to entities of this type (the investigation
    /// stays within one domain, e.g. `Film`).
    pub type_filter: Option<TypeId>,
}

impl SfQuery {
    /// Query from seed entities only.
    pub fn from_seeds(seeds: impl Into<Vec<EntityId>>) -> Self {
        Self {
            seeds: seeds.into(),
            ..Self::default()
        }
    }

    /// Query from required features only ("Find films starring Tom
    /// Hanks").
    pub fn from_features(required: impl Into<Vec<SemanticFeature>>) -> Self {
        Self {
            required: required.into(),
            ..Self::default()
        }
    }

    /// Add a seed (builder style).
    pub fn with_seed(mut self, e: EntityId) -> Self {
        self.seeds.push(e);
        self
    }

    /// Add a required feature (builder style).
    pub fn with_feature(mut self, sf: SemanticFeature) -> Self {
        self.required.push(sf);
        self
    }

    /// Restrict to a type (builder style).
    pub fn with_type(mut self, t: TypeId) -> Self {
        self.type_filter = Some(t);
        self
    }

    /// Whether the query has no conditions at all.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty() && self.required.is_empty()
    }
}

/// The result of one expansion: both recommendation areas of the UI.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExpansionResult {
    /// Recommended entities (Fig. 3-c), best first.
    pub entities: Vec<RankedEntity>,
    /// Recommended semantic features (Fig. 3-e), best first.
    pub features: Vec<RankedFeature>,
}

/// Diversify a score-ranked feature list: keep at most `max_per_predicate`
/// features of each predicate+direction, preserving score order, then
/// append the spilled features (still in score order) after the diverse
/// prefix.
///
/// The PivotE interface presents features as *exploration pointers in
/// many aspects* (Fig. 3-e mixes `starring`, `director`, `studio`, …); a
/// raw score ranking of a film query is typically flooded by its cast.
pub fn diversify_features(
    features: &[crate::ranking::RankedFeature],
    max_per_predicate: usize,
) -> Vec<crate::ranking::RankedFeature> {
    if max_per_predicate == 0 {
        return features.to_vec();
    }
    let mut counts: std::collections::HashMap<
        (pivote_kg::PredicateId, crate::feature::Direction),
        usize,
    > = std::collections::HashMap::new();
    let mut kept = Vec::with_capacity(features.len());
    let mut spilled = Vec::new();
    for rf in features {
        let key = (rf.feature.predicate, rf.feature.direction);
        let count = counts.entry(key).or_insert(0);
        if *count < max_per_predicate {
            *count += 1;
            kept.push(*rf);
        } else {
            spilled.push(*rf);
        }
    }
    kept.extend(spilled);
    kept
}

/// The expansion engine: a thin orchestration layer over [`Ranker`],
/// running on a [`GraphHandle`].
pub struct Expander<'kg> {
    ranker: Ranker<'kg>,
}

/// How many result entities act as pseudo-seeds when a query has required
/// features but no seed entities.
const PSEUDO_SEEDS: usize = 5;

impl<'kg> Expander<'kg> {
    /// Create an expander over `sg` with a fresh private context.
    pub fn new(sg: &'kg ShardedGraph, config: RankingConfig) -> Self {
        Self::with_handle(GraphHandle::new(sg), config)
    }

    /// Create an expander over a graph handle (sharing its context).
    pub fn with_handle(handle: GraphHandle<'kg>, config: RankingConfig) -> Self {
        Self {
            ranker: Ranker::with_handle(handle, config),
        }
    }

    /// The underlying ranker.
    pub fn ranker(&self) -> &Ranker<'kg> {
        &self.ranker
    }

    /// The graph handle this expander runs on.
    pub fn handle(&self) -> &GraphHandle<'kg> {
        self.ranker.handle()
    }

    /// Expand a seed set: top-`k_entities` similar entities and
    /// top-`k_features` relevant features.
    pub fn expand_seeds(
        &self,
        seeds: &[EntityId],
        k_entities: usize,
        k_features: usize,
    ) -> ExpansionResult {
        self.expand(&SfQuery::from_seeds(seeds.to_vec()), k_entities, k_features)
    }

    /// Expand a structured query.
    ///
    /// All hard query conditions (required-feature membership, type
    /// filter) are applied to the candidate pool *before* scoring, so the
    /// context never spends smoothing work on entities the query already
    /// excludes, and the final top-`k_entities` selection runs through the
    /// context's bounded heap.
    pub fn expand(&self, query: &SfQuery, k_entities: usize, k_features: usize) -> ExpansionResult {
        if query.is_empty() {
            return ExpansionResult {
                entities: Vec::new(),
                features: Vec::new(),
            };
        }
        let handle = self.ranker.handle();
        let config = self.ranker.config();

        // Hard filter: k-way intersection of required-feature extents.
        let filter: Option<Vec<EntityId>> = if query.required.is_empty() {
            None
        } else {
            let extents: Vec<std::sync::Arc<[EntityId]>> = query
                .required
                .iter()
                .map(|sf| handle.feature_extent(*sf))
                .collect();
            let views: Vec<&[EntityId]> = extents.iter().map(|c| c.as_ref()).collect();
            Some(intersect_k(&views))
        };

        // Seeds for the ranking model: the query's seeds, or — for pure
        // feature queries — the highest-degree members of the filter set.
        let seeds: Vec<EntityId> = if !query.seeds.is_empty() {
            query.seeds.clone()
        } else {
            let mut members: Vec<EntityId> = filter.clone().unwrap_or_default();
            members.sort_by_key(|&e| std::cmp::Reverse(handle.graph().degree(e)));
            members.truncate(PSEUDO_SEEDS);
            members.sort_unstable();
            members
        };

        // Feature pool: enough for Φ(Q) scoring and the caller's ask.
        let feature_budget = config.top_features.max(k_features);
        let features = self.ranker.rank_features_top_k(&seeds, feature_budget);
        let top = &features[..features.len().min(config.top_features)];

        // Candidate pool with every hard condition applied pre-scoring.
        let mut candidates = handle.candidate_entities(config, &seeds, &features);
        if let Some(filter) = &filter {
            candidates.retain(|&e| contains(filter, e));
            // Feature-only queries must return every filter member even if
            // the ranker's candidate pool missed some (tiny extents) or
            // claimed them as pseudo-seeds.
            if query.seeds.is_empty() {
                candidates = crate::extent::union(&candidates, filter);
            }
        }
        if let Some(t) = query.type_filter {
            candidates.retain(|&e| handle.graph().has_type(e, t));
        }

        let entities = handle.score_and_select(config, candidates, top, k_entities);

        ExpansionResult {
            entities,
            features: features.into_iter().take(k_features).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_kg::{generate, DatagenConfig, KgBuilder, KnowledgeGraph};

    fn toy() -> KnowledgeGraph {
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
            b.typed(f, "Film");
            b.categorized(f, "films");
        }
        b.typed(a, "Actor");
        b.typed(bb, "Actor");
        b.finish()
    }

    #[test]
    fn seed_expansion_returns_similar_films() {
        let kg = toy();
        let sg = ShardedGraph::from(kg.clone());
        let ex = Expander::new(&sg, RankingConfig::default());
        let f1 = kg.entity("f1").unwrap();
        let res = ex.expand_seeds(&[f1], 10, 10);
        assert_eq!(res.entities[0].entity, kg.entity("f2").unwrap());
        assert!(!res.features.is_empty());
    }

    #[test]
    fn feature_query_find_films_starring_a() {
        // The paper's "Find films starring Tom Hanks" pattern.
        let kg = toy();
        let sg = ShardedGraph::from(kg.clone());
        let ex = Expander::new(&sg, RankingConfig::default());
        let a = kg.entity("A").unwrap();
        let sf = SemanticFeature::to_anchor(a, kg.predicate("starring").unwrap());
        let res = ex.expand(&SfQuery::from_features(vec![sf]), 10, 10);
        let got: Vec<EntityId> = res.entities.iter().map(|re| re.entity).collect();
        assert_eq!(got.len(), 2);
        assert!(got.contains(&kg.entity("f1").unwrap()));
        assert!(got.contains(&kg.entity("f2").unwrap()));
    }

    #[test]
    fn combined_seed_and_feature_query() {
        let kg = toy();
        let sg = ShardedGraph::from(kg.clone());
        let ex = Expander::new(&sg, RankingConfig::default());
        let f1 = kg.entity("f1").unwrap();
        let bsf =
            SemanticFeature::to_anchor(kg.entity("B").unwrap(), kg.predicate("starring").unwrap());
        let q = SfQuery::from_seeds(vec![f1]).with_feature(bsf);
        let res = ex.expand(&q, 10, 10);
        // seeds excluded, filtered to B's films: f2, f3
        let got: Vec<EntityId> = res.entities.iter().map(|re| re.entity).collect();
        assert_eq!(
            got,
            vec![kg.entity("f2").unwrap(), kg.entity("f3").unwrap()]
        );
    }

    #[test]
    fn type_filter_restricts_domain() {
        let kg = toy();
        let sg = ShardedGraph::from(kg.clone());
        let ex = Expander::new(&sg, RankingConfig::default());
        let f1 = kg.entity("f1").unwrap();
        let film = kg.type_id("Film").unwrap();
        let actor = kg.type_id("Actor").unwrap();
        let res_film = ex.expand(&SfQuery::from_seeds(vec![f1]).with_type(film), 10, 10);
        assert!(!res_film.entities.is_empty());
        let res_actor = ex.expand(&SfQuery::from_seeds(vec![f1]).with_type(actor), 10, 10);
        assert!(res_actor.entities.is_empty());
    }

    #[test]
    fn empty_query_returns_nothing() {
        let kg = toy();
        let sg = ShardedGraph::from(kg.clone());
        let ex = Expander::new(&sg, RankingConfig::default());
        let res = ex.expand(&SfQuery::default(), 10, 10);
        assert!(res.entities.is_empty());
        assert!(res.features.is_empty());
    }

    #[test]
    fn k_limits_are_respected() {
        let kg = toy();
        let sg = ShardedGraph::from(kg.clone());
        let ex = Expander::new(&sg, RankingConfig::default());
        let f1 = kg.entity("f1").unwrap();
        let res = ex.expand_seeds(&[f1], 1, 1);
        assert_eq!(res.entities.len(), 1);
        assert_eq!(res.features.len(), 1);
    }

    #[test]
    fn expansion_on_generated_kg_stays_in_domain() {
        let kg = generate(&DatagenConfig::tiny());
        let sg = ShardedGraph::from(kg.clone());
        let ex = Expander::new(&sg, RankingConfig::default());
        let film = kg.type_id("Film").unwrap();
        let seeds = &kg.type_extent(film)[..2.min(kg.type_extent(film).len())];
        let res = ex.expand(&SfQuery::from_seeds(seeds.to_vec()).with_type(film), 10, 10);
        for re in &res.entities {
            assert!(kg.has_type(re.entity, film));
            assert!(!seeds.contains(&re.entity), "seed leaked into results");
        }
    }

    #[test]
    fn diversify_caps_per_predicate_and_keeps_order() {
        use crate::ranking::RankedFeature;
        let kg = pivote_kg::generate(&pivote_kg::DatagenConfig::tiny());
        let film = kg.type_id("Film").unwrap();
        let seed = kg.type_extent(film)[0];
        let sg = ShardedGraph::from(kg.clone());
        let ex = Expander::new(&sg, RankingConfig::default());
        let features = ex.ranker().rank_features(&[seed]);
        let diverse = diversify_features(&features, 1);
        assert_eq!(diverse.len(), features.len(), "nothing is dropped");
        // the diverse prefix has at most one feature per predicate
        let mut seen = std::collections::HashSet::new();
        let mut prefix_len = 0;
        for rf in &diverse {
            if !seen.insert((rf.feature.predicate, rf.feature.direction)) {
                break;
            }
            prefix_len += 1;
        }
        assert!(prefix_len >= 2, "expected a multi-predicate prefix");
        // scores within the prefix stay sorted
        assert!(diverse[..prefix_len]
            .windows(2)
            .all(|w| w[0].score >= w[1].score));

        // max_per_predicate = 0 disables diversification
        let same = diversify_features(&features, 0);
        assert_eq!(same.len(), features.len());
        assert!(same
            .iter()
            .zip(&features)
            .all(|(a, b): (&RankedFeature, &RankedFeature)| a.feature == b.feature));
    }

    #[test]
    fn conjunctive_feature_query_intersects() {
        let kg = toy();
        let sg = ShardedGraph::from(kg.clone());
        let ex = Expander::new(&sg, RankingConfig::default());
        let starring = kg.predicate("starring").unwrap();
        let sf_a = SemanticFeature::to_anchor(kg.entity("A").unwrap(), starring);
        let sf_b = SemanticFeature::to_anchor(kg.entity("B").unwrap(), starring);
        let res = ex.expand(&SfQuery::from_features(vec![sf_a, sf_b]), 10, 10);
        let got: Vec<EntityId> = res.entities.iter().map(|re| re.entity).collect();
        assert_eq!(got.len(), 2); // f1 and f2 star both
        assert!(!got.contains(&kg.entity("f3").unwrap()));
    }
}
