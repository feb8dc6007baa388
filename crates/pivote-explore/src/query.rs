//! The exploration query: keywords plus the structured seed/feature
//! conditions, with the reformulation operations of the query area
//! (Fig. 3-b): addition, removal, duplication-safe insertion.

use pivote_core::{SemanticFeature, SfQuery};
use pivote_kg::{EntityId, KnowledgeGraph, TypeId};
use serde::{Deserialize, Serialize};

/// The full query state shown in the query area.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExplorationQuery {
    /// Free-text keywords (Fig. 3-a), if any.
    pub keywords: Option<String>,
    /// Structured conditions: seeds, required features, type filter.
    pub sf: SfQuery,
}

impl ExplorationQuery {
    /// A keyword-only query.
    pub fn keywords(q: impl Into<String>) -> Self {
        Self {
            keywords: Some(q.into()),
            sf: SfQuery::default(),
        }
    }

    /// Whether nothing at all is specified.
    pub fn is_empty(&self) -> bool {
        self.keywords.is_none() && self.sf.is_empty()
    }

    /// Add a seed if not already present. Returns whether it was added.
    pub fn add_seed(&mut self, e: EntityId) -> bool {
        if self.sf.seeds.contains(&e) {
            return false;
        }
        self.sf.seeds.push(e);
        true
    }

    /// Remove a seed. Returns whether it was present.
    pub fn remove_seed(&mut self, e: EntityId) -> bool {
        let before = self.sf.seeds.len();
        self.sf.seeds.retain(|&s| s != e);
        self.sf.seeds.len() != before
    }

    /// Add a required feature if not already present.
    pub fn add_feature(&mut self, sf: SemanticFeature) -> bool {
        if self.sf.required.contains(&sf) {
            return false;
        }
        self.sf.required.push(sf);
        true
    }

    /// Remove a required feature.
    pub fn remove_feature(&mut self, sf: SemanticFeature) -> bool {
        let before = self.sf.required.len();
        self.sf.required.retain(|&f| f != sf);
        self.sf.required.len() != before
    }

    /// Set or clear the type filter.
    pub fn set_type_filter(&mut self, t: Option<TypeId>) {
        self.sf.type_filter = t;
    }

    /// Human-readable one-line summary for the timeline.
    pub fn summary(&self, kg: &KnowledgeGraph) -> String {
        self.summary_impl(
            |e| kg.display_name(e),
            |sf| sf.display(kg),
            |t| kg.type_name(t).to_owned(),
        )
    }

    /// [`ExplorationQuery::summary`] over a
    /// [`GraphHandle`](pivote_core::GraphHandle) — identical output at
    /// every shard count.
    pub fn summary_with(&self, handle: &pivote_core::GraphHandle<'_>) -> String {
        self.summary_impl(
            |e| handle.graph().display_name(e),
            |sf| handle.feature_display(*sf),
            |t| handle.graph().type_name(t).to_owned(),
        )
    }

    fn summary_impl(
        &self,
        display: impl Fn(EntityId) -> String,
        feat: impl Fn(&SemanticFeature) -> String,
        tname: impl Fn(TypeId) -> String,
    ) -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(k) = &self.keywords {
            parts.push(format!("keywords: {k:?}"));
        }
        if !self.sf.seeds.is_empty() {
            let names: Vec<String> = self.sf.seeds.iter().map(|&e| display(e)).collect();
            parts.push(format!("seeds: {}", names.join(", ")));
        }
        if !self.sf.required.is_empty() {
            let feats: Vec<String> = self.sf.required.iter().map(feat).collect();
            parts.push(format!("features: {}", feats.join(", ")));
        }
        if let Some(t) = self.sf.type_filter {
            parts.push(format!("type: {}", tname(t)));
        }
        if parts.is_empty() {
            "(empty)".to_owned()
        } else {
            parts.join(" | ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_kg::KgBuilder;

    #[test]
    fn add_remove_seed_is_duplicate_safe() {
        let mut q = ExplorationQuery::default();
        let e = EntityId::new(1);
        assert!(q.add_seed(e));
        assert!(!q.add_seed(e));
        assert_eq!(q.sf.seeds.len(), 1);
        assert!(q.remove_seed(e));
        assert!(!q.remove_seed(e));
        assert!(q.is_empty());
    }

    #[test]
    fn add_remove_feature() {
        let mut q = ExplorationQuery::default();
        let sf = SemanticFeature::to_anchor(EntityId::new(0), pivote_kg::PredicateId::new(0));
        assert!(q.add_feature(sf));
        assert!(!q.add_feature(sf));
        assert!(q.remove_feature(sf));
        assert!(q.is_empty());
    }

    #[test]
    fn summary_renders_all_parts() {
        let mut b = KgBuilder::new();
        let gump = b.entity("Forrest_Gump");
        let hanks = b.entity("Tom_Hanks");
        let starring = b.predicate("starring");
        b.triple(gump, starring, hanks);
        let film = b.typed(gump, "Film");
        let kg = b.finish();

        let mut q = ExplorationQuery::keywords("tom hanks");
        q.add_seed(gump);
        q.add_feature(SemanticFeature::to_anchor(hanks, starring));
        q.set_type_filter(Some(film));
        let s = q.summary(&kg);
        assert!(s.contains("keywords"), "{s}");
        assert!(s.contains("Forrest Gump"), "{s}");
        assert!(s.contains("Tom_Hanks:starring"), "{s}");
        assert!(s.contains("type: Film"), "{s}");
        assert_eq!(ExplorationQuery::default().summary(&kg), "(empty)");
    }

    #[test]
    fn serde_roundtrip() {
        let mut q = ExplorationQuery::keywords("x");
        q.add_seed(EntityId::new(5));
        let json = serde_json::to_string(&q).unwrap();
        let back: ExplorationQuery = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
    }
}
