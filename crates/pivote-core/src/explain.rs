//! Textual explanations of semantic correlations (paper §3.2).
//!
//! "If the system explains the semantic correlation between Forrest_Gump
//! and Apollo_13_(film) is that both of them are performed by Tom_Hanks
//! and Gary_Sinise, users may have a better understanding about the
//! search context."
//!
//! Two kinds of explanation:
//! - between two entities: their shared semantic features, most
//!   discriminative first ([`explain_pair`]);
//! - between an entity and a feature (one heat-map cell): an exact match,
//!   or the category context that carries the smoothed probability
//!   ([`explain_cell`]).

use crate::feature::SemanticFeature;
use crate::ranking::Ranker;
use pivote_kg::{EntityId, KnowledgeGraph};
use serde::{Deserialize, Serialize};

/// Shared-feature explanation between two entities.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairExplanation {
    /// First entity.
    pub a: EntityId,
    /// Second entity.
    pub b: EntityId,
    /// Shared features with their discriminability, strongest first.
    pub shared: Vec<(SemanticFeature, f64)>,
}

impl PairExplanation {
    /// Render as a sentence using graph labels.
    pub fn render(&self, kg: &KnowledgeGraph) -> String {
        if self.shared.is_empty() {
            return format!(
                "{} and {} share no semantic feature.",
                kg.display_name(self.a),
                kg.display_name(self.b)
            );
        }
        let feats: Vec<String> = self
            .shared
            .iter()
            .map(|(sf, _)| {
                format!(
                    "{} {}",
                    kg.predicate_name(sf.predicate),
                    kg.display_name(sf.anchor)
                )
            })
            .collect();
        format!(
            "Both {} and {}: {}.",
            kg.display_name(self.a),
            kg.display_name(self.b),
            feats.join("; ")
        )
    }
}

/// Explain the correlation between two entities by their shared semantic
/// features, ranked by discriminability (`1/‖E(π)‖`), truncated to
/// `limit`.
pub fn explain_pair(
    ranker: &Ranker<'_>,
    a: EntityId,
    b: EntityId,
    limit: usize,
) -> PairExplanation {
    let handle = ranker.handle();
    let fa = handle.features_of(a);
    let fb = handle.features_of(b);
    // both lists are sorted; merge-intersect
    let mut shared: Vec<(SemanticFeature, f64)> = Vec::new();
    let mut i = 0;
    let mut j = 0;
    while i < fa.len() && j < fb.len() {
        match fa[i].cmp(&fb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared.push((fa[i], ranker.discriminability(fa[i])));
                i += 1;
                j += 1;
            }
        }
    }
    shared.sort_by(|x, y| {
        y.1.partial_cmp(&x.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.0.cmp(&y.0))
    });
    shared.truncate(limit);
    PairExplanation { a, b, shared }
}

/// Why one heat-map cell (entity × feature) is non-zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CellExplanation {
    /// The entity matches the feature directly (`e ⊨ π`).
    DirectMatch,
    /// The entity is correlated through a category/type context: `p(π|c*)`
    /// with the context's display name and the probability.
    ViaContext {
        /// Display name of the best context `c*`.
        context: String,
        /// `p(π|c*)`.
        probability: f64,
    },
    /// No correlation.
    None,
}

/// Explain one cell of the heat map.
///
/// The per-context densities come from the shared
/// [`crate::context::SharedCache`] probability cache, so explaining a
/// cell of an already-computed heat map costs only the argmax scan.
pub fn explain_cell(ranker: &Ranker<'_>, sf: SemanticFeature, e: EntityId) -> CellExplanation {
    let handle = ranker.handle();
    if handle.feature_matches(sf, e) {
        return CellExplanation::DirectMatch;
    }
    if !ranker.config().error_tolerant {
        return CellExplanation::None;
    }
    // the ranker caches only the max density; rescan for the argmax name
    let mut best: Option<(String, f64)> = None;
    for c in handle.graph().categories_of(e) {
        let p = handle.p_for_category(sf, c);
        if best.as_ref().map(|(_, bp)| p > *bp).unwrap_or(p > 0.0) {
            best = Some((handle.graph().category_name(c).to_owned(), p));
        }
    }
    if ranker.config().use_types_as_context {
        for t in handle.graph().types_of(e) {
            let p = handle.p_for_type(sf, t);
            if best.as_ref().map(|(_, bp)| p > *bp).unwrap_or(p > 0.0) {
                best = Some((handle.graph().type_name(t).to_owned(), p));
            }
        }
    }
    match best {
        Some((context, probability)) => CellExplanation::ViaContext {
            context,
            probability,
        },
        None => CellExplanation::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RankingConfig;
    use crate::handle::GraphHandle;
    use pivote_kg::{KgBuilder, ShardedGraph};

    /// The paper's example: Forrest Gump and Apollo 13 share Hanks and
    /// Sinise.
    fn kg() -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        let gump = b.entity("Forrest_Gump");
        let apollo = b.entity("Apollo_13_(film)");
        let other = b.entity("Cast_Away");
        let hanks = b.entity("Tom_Hanks");
        let sinise = b.entity("Gary_Sinise");
        let starring = b.predicate("starring");
        b.label(gump, "Forrest Gump");
        b.label(apollo, "Apollo 13");
        b.triple(gump, starring, hanks);
        b.triple(gump, starring, sinise);
        b.triple(apollo, starring, hanks);
        b.triple(apollo, starring, sinise);
        b.triple(other, starring, hanks);
        for f in [gump, apollo, other] {
            b.categorized(f, "American films");
        }
        b.finish()
    }

    #[test]
    fn paper_example_pair_explanation() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let ranker = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let gump = kg.entity("Forrest_Gump").unwrap();
        let apollo = kg.entity("Apollo_13_(film)").unwrap();
        let exp = explain_pair(&ranker, gump, apollo, 10);
        assert_eq!(exp.shared.len(), 2);
        // Sinise (extent 2) is more discriminative than Hanks (extent 3).
        let kg_ref = &kg;
        let names: Vec<&str> = exp
            .shared
            .iter()
            .map(|(sf, _)| kg_ref.entity_name(sf.anchor))
            .collect();
        assert_eq!(names, vec!["Gary_Sinise", "Tom_Hanks"]);
        let text = exp.render(&kg);
        assert!(text.contains("Forrest Gump"), "{text}");
        assert!(text.contains("starring Gary Sinise"), "{text}");
    }

    #[test]
    fn disjoint_entities_share_nothing() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let ranker = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let gump = kg.entity("Forrest_Gump").unwrap();
        let hanks = kg.entity("Tom_Hanks").unwrap();
        let exp = explain_pair(&ranker, gump, hanks, 10);
        assert!(exp.shared.is_empty());
        assert!(exp.render(&kg).contains("no semantic feature"));
    }

    #[test]
    fn limit_truncates() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let ranker = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let gump = kg.entity("Forrest_Gump").unwrap();
        let apollo = kg.entity("Apollo_13_(film)").unwrap();
        assert_eq!(explain_pair(&ranker, gump, apollo, 1).shared.len(), 1);
    }

    #[test]
    fn cell_direct_match() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let ranker = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let gump = kg.entity("Forrest_Gump").unwrap();
        let sinise = kg.entity("Gary_Sinise").unwrap();
        let sf = SemanticFeature::to_anchor(sinise, kg.predicate("starring").unwrap());
        assert_eq!(
            explain_cell(&ranker, sf, gump),
            CellExplanation::DirectMatch
        );
    }

    #[test]
    fn cell_via_category_context() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let ranker = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let cast_away = kg.entity("Cast_Away").unwrap();
        let sinise = kg.entity("Gary_Sinise").unwrap();
        let sf = SemanticFeature::to_anchor(sinise, kg.predicate("starring").unwrap());
        match explain_cell(&ranker, sf, cast_away) {
            CellExplanation::ViaContext {
                context,
                probability,
            } => {
                assert_eq!(context, "American films");
                assert!((probability - 2.0 / 3.0).abs() < 1e-12);
            }
            other => panic!("expected ViaContext, got {other:?}"),
        }
    }

    #[test]
    fn cell_none_without_tolerance() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let ranker = Ranker::with_handle(
            GraphHandle::new(&sg),
            RankingConfig::default().without_error_tolerance(),
        );
        let cast_away = kg.entity("Cast_Away").unwrap();
        let sinise = kg.entity("Gary_Sinise").unwrap();
        let sf = SemanticFeature::to_anchor(sinise, kg.predicate("starring").unwrap());
        assert_eq!(explain_cell(&ranker, sf, cast_away), CellExplanation::None);
    }
}
