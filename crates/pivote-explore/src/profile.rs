//! Entity profile cards — the presentation area (Fig. 3-d).
//!
//! "Users can look up the profile of a particular entity by clicking it
//! … users can click the entity name, which can be redirected to
//! Wikipedia to learn more information in detail." The Wikipedia hop is
//! reproduced as a URL derived from the entity name; everything else is
//! assembled from the local graph.

use pivote_core::Ranker;
use pivote_kg::EntityId;
use serde::{Deserialize, Serialize};

/// A rendered entity profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntityProfile {
    /// The entity.
    pub entity: EntityId,
    /// Canonical name (`Forrest_Gump`).
    pub name: String,
    /// Display label ("Forrest Gump").
    pub label: String,
    /// Type names.
    pub types: Vec<String>,
    /// Category names.
    pub categories: Vec<String>,
    /// Literal statements as `(predicate, value)` strings.
    pub attributes: Vec<(String, String)>,
    /// The entity's most discriminative semantic features, rendered, with
    /// `d(π)`.
    pub top_features: Vec<(String, f64)>,
    /// Redirect/disambiguation aliases.
    pub aliases: Vec<String>,
    /// The "learn more" link of the demo UI.
    pub wikipedia_url: String,
}

/// Build the profile of `e`, keeping the `k_features` most discriminative
/// features. Runs through the ranker's [`pivote_core::GraphHandle`], so
/// profiles are identical at every shard count.
pub fn build_profile(ranker: &Ranker<'_>, e: EntityId, k_features: usize) -> EntityProfile {
    let handle = ranker.handle();
    let mut feats: Vec<(String, f64)> = handle
        .features_of(e)
        .into_iter()
        .map(|sf| (handle.feature_display(sf), ranker.discriminability(sf)))
        .collect();
    feats.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    feats.truncate(k_features);
    EntityProfile {
        entity: e,
        name: handle.entity_name(e).to_owned(),
        label: handle.graph().display_name(e),
        types: handle
            .graph()
            .types_of(e)
            .map(|t| handle.graph().type_name(t).to_owned())
            .collect(),
        categories: handle
            .graph()
            .categories_of(e)
            .map(|c| handle.graph().category_name(c).to_owned())
            .collect(),
        attributes: handle
            .graph()
            .literals(e)
            .map(|(p, l)| {
                (
                    handle.graph().predicate_name(p).to_owned(),
                    l.lexical.clone(),
                )
            })
            .collect(),
        top_features: feats,
        aliases: handle.graph().aliases(e).to_vec(),
        wikipedia_url: format!("https://en.wikipedia.org/wiki/{}", handle.entity_name(e)),
    }
}

impl EntityProfile {
    /// Render as a plain-text card.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.label);
        if !self.types.is_empty() {
            let _ = writeln!(out, "types: {}", self.types.join(", "));
        }
        if !self.categories.is_empty() {
            let _ = writeln!(out, "categories: {}", self.categories.join(", "));
        }
        for (p, v) in &self.attributes {
            let _ = writeln!(out, "{p}: {v}");
        }
        if !self.top_features.is_empty() {
            let feats: Vec<&str> = self.top_features.iter().map(|(f, _)| f.as_str()).collect();
            let _ = writeln!(out, "features: {}", feats.join(", "));
        }
        if !self.aliases.is_empty() {
            let _ = writeln!(out, "also known as: {}", self.aliases.join(", "));
        }
        let _ = writeln!(out, "more: {}", self.wikipedia_url);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_core::{GraphHandle, RankingConfig};
    use pivote_kg::{KgBuilder, KnowledgeGraph, Literal, ShardedGraph};

    fn ranker_kg() -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        let gump = b.entity("Forrest_Gump");
        let hanks = b.entity("Tom_Hanks");
        let sinise = b.entity("Gary_Sinise");
        let apollo = b.entity("Apollo_13");
        b.label(gump, "Forrest Gump");
        let starring = b.predicate("starring");
        b.triple(gump, starring, hanks);
        b.triple(gump, starring, sinise);
        b.triple(apollo, starring, hanks);
        b.typed(gump, "Film");
        b.categorized(gump, "American films");
        let runtime = b.predicate("runtime");
        b.literal_triple(gump, runtime, Literal::integer(142));
        b.redirect("Geenbow", gump);
        b.finish()
    }

    #[test]
    fn profile_collects_everything() {
        let kg = ranker_kg();
        let sg = ShardedGraph::from(kg.clone());
        let ranker = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let gump = kg.entity("Forrest_Gump").unwrap();
        let p = build_profile(&ranker, gump, 10);
        assert_eq!(p.label, "Forrest Gump");
        assert_eq!(p.types, vec!["Film".to_owned()]);
        assert_eq!(p.categories, vec!["American films".to_owned()]);
        assert_eq!(p.attributes, vec![("runtime".to_owned(), "142".to_owned())]);
        assert_eq!(p.aliases, vec!["Geenbow".to_owned()]);
        assert!(p.wikipedia_url.ends_with("/Forrest_Gump"));
        assert_eq!(p.top_features.len(), 2);
        // Sinise (extent 1) is more discriminative than Hanks (extent 2)
        assert!(p.top_features[0].0.contains("Gary_Sinise"));
    }

    #[test]
    fn k_features_truncates() {
        let kg = ranker_kg();
        let sg = ShardedGraph::from(kg.clone());
        let ranker = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let gump = kg.entity("Forrest_Gump").unwrap();
        assert_eq!(build_profile(&ranker, gump, 1).top_features.len(), 1);
    }

    #[test]
    fn render_mentions_key_facts() {
        let kg = ranker_kg();
        let sg = ShardedGraph::from(kg.clone());
        let ranker = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let gump = kg.entity("Forrest_Gump").unwrap();
        let text = build_profile(&ranker, gump, 5).render();
        for needle in [
            "Forrest Gump",
            "Film",
            "runtime: 142",
            "Geenbow",
            "wikipedia",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
