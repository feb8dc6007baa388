//! The search engine facade: build the index once, answer top-k keyword
//! queries with either the mixture-of-LM model (the paper's engine) or
//! the BM25F baseline.

use crate::bm25::Bm25;
use crate::corpus::CollectionView;
use crate::fields::FiveFieldRepr;
use crate::index::FieldedIndex;
use crate::lm::MixtureLm;
use pivote_kg::{EntityId, KnowledgeGraph};
use pivote_text::Analyzer;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Analysis chain shared by indexer and queries.
    pub analyzer: Analyzer,
    /// Cap on the related-names field per entity.
    pub max_related: usize,
    /// The paper's retrieval model.
    pub lm: MixtureLm,
    /// The baseline scorer.
    pub bm25: Bm25,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            analyzer: Analyzer::default(),
            max_related: 128,
            lm: MixtureLm::default(),
            bm25: Bm25::default(),
        }
    }
}

/// Which scorer [`SearchEngine::search_with`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scorer {
    /// Mixture of per-field language models (paper §2.2).
    MixtureLm,
    /// BM25F baseline.
    Bm25,
}

/// One retrieved entity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hit {
    /// The entity.
    pub entity: EntityId,
    /// Model score (higher is better; LM scores are negative
    /// log-likelihoods summed over terms, comparable within one query).
    pub score: f64,
}

/// A built search engine over one knowledge graph.
pub struct SearchEngine {
    index: FieldedIndex,
    config: SearchConfig,
}

impl SearchEngine {
    /// Index `kg` and return a ready engine.
    pub fn build(kg: &KnowledgeGraph, config: SearchConfig) -> Self {
        let index = FieldedIndex::build(kg, &config.analyzer, config.max_related);
        Self { index, config }
    }

    /// Index `kg` selecting capped related-names neighbours in
    /// `(predicate, key)` order — shard-local engines pass their
    /// local→global id map so the indexed documents are bit-identical to
    /// the single-graph ones (see [`FieldedIndex::build_keyed`]).
    pub fn build_keyed(
        kg: &KnowledgeGraph,
        config: SearchConfig,
        key: impl Fn(EntityId) -> u32 + Copy,
    ) -> Self {
        let index = FieldedIndex::build_keyed(kg, &config.analyzer, config.max_related, key);
        Self { index, config }
    }

    /// Index with default configuration.
    pub fn with_defaults(kg: &KnowledgeGraph) -> Self {
        Self::build(kg, SearchConfig::default())
    }

    /// The underlying fielded index (for baselines and diagnostics).
    pub fn index(&self) -> &FieldedIndex {
        &self.index
    }

    /// The engine configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Top-k with the paper's mixture-of-LM model.
    pub fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        self.search_with(query, k, Scorer::MixtureLm)
    }

    /// Top-k with an explicit scorer choice.
    pub fn search_with(&self, query: &str, k: usize, scorer: Scorer) -> Vec<Hit> {
        self.search_in(query, k, scorer, &self.index)
    }

    /// Top-k with an explicit scorer, scored against an explicit
    /// collection view. The sharded path passes the globally-merged
    /// [`CorpusStats`](crate::corpus::CorpusStats) so every shard's
    /// scores match the single-graph engine bit-for-bit; with the
    /// engine's own index this is exactly [`SearchEngine::search_with`].
    pub fn search_in<C: CollectionView + ?Sized>(
        &self,
        query: &str,
        k: usize,
        scorer: Scorer,
        collection: &C,
    ) -> Vec<Hit> {
        let terms = self.config.analyzer.analyze(query);
        if terms.is_empty() || k == 0 {
            return Vec::new();
        }
        let candidates = self.index.candidates(&terms);
        let mut hits: Vec<Hit> = match scorer {
            Scorer::MixtureLm => {
                let query = self.config.lm.resolve(&self.index, collection, &terms);
                candidates
                    .into_iter()
                    .map(|entity| Hit {
                        entity,
                        score: query.score(entity.raw()),
                    })
                    .collect()
            }
            Scorer::Bm25 => candidates
                .into_iter()
                .map(|entity| Hit {
                    entity,
                    score: self
                        .config
                        .bm25
                        .score_in(&self.index, collection, entity.raw(), &terms),
                })
                .collect(),
        };
        top_k(&mut hits, k);
        hits
    }

    /// The five-field representation of an entity, as indexed.
    pub fn representation(&self, kg: &KnowledgeGraph, e: EntityId) -> FiveFieldRepr {
        FiveFieldRepr::build(kg, e, self.config.max_related)
    }

    /// Top-k for a structured query with `field:term` restrictions (see
    /// [`crate::querylang`]). Free terms use the configured mixture
    /// weights; restricted terms are scored against their single field.
    pub fn search_structured(&self, query: &str, k: usize) -> Vec<Hit> {
        use crate::lm::{FieldWeights, MixtureLm};
        let parsed = crate::querylang::parse_query(&self.config.analyzer, query);
        if parsed.is_empty() || k == 0 {
            return Vec::new();
        }
        let all_terms = parsed.term_strings();
        let candidates = self.index.candidates(&all_terms);
        // group terms by their scoring weights
        let free: Vec<String> = parsed
            .terms
            .iter()
            .filter(|t| t.field.is_none())
            .map(|t| t.term.clone())
            .collect();
        // one resolved query per group: the free terms, then each
        // restricted field's terms, summed in that order per candidate
        let mut groups = Vec::new();
        if !free.is_empty() {
            groups.push(self.config.lm.resolve(&self.index, &self.index, &free));
        }
        for field in crate::fields::Field::ALL {
            let terms: Vec<String> = parsed
                .terms
                .iter()
                .filter(|t| t.field == Some(field))
                .map(|t| t.term.clone())
                .collect();
            if !terms.is_empty() {
                let lm = MixtureLm {
                    weights: FieldWeights::single(field),
                    smoothing: self.config.lm.smoothing,
                };
                groups.push(lm.resolve(&self.index, &self.index, &terms));
            }
        }
        let mut hits: Vec<Hit> = candidates
            .into_iter()
            .map(|entity| Hit {
                entity,
                score: groups.iter().fold(0.0, |s, g| s + g.score(entity.raw())),
            })
            .collect();
        top_k(&mut hits, k);
        hits
    }
}

/// Keep the `k` best hits, sorted by descending score with entity id as a
/// deterministic tiebreak.
fn top_k(hits: &mut Vec<Hit>, k: usize) {
    hits.sort_unstable_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.entity.cmp(&b.entity))
    });
    hits.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_kg::{generate, DatagenConfig};

    fn engine() -> (pivote_kg::KnowledgeGraph, SearchEngine) {
        let kg = generate(&DatagenConfig::tiny());
        let engine = SearchEngine::with_defaults(&kg);
        (kg, engine)
    }

    #[test]
    fn exact_name_query_ranks_target_first() {
        let (kg, engine) = engine();
        // pick some film and query its full label
        let film = kg.type_id("Film").unwrap();
        let f = kg.type_extent(film)[0];
        let label = kg.display_name(f);
        let hits = engine.search(&label, 10);
        assert!(!hits.is_empty());
        assert_eq!(
            hits[0].entity,
            f,
            "query {label:?} should rank its own entity first, got {:?}",
            kg.display_name(hits[0].entity)
        );
    }

    #[test]
    fn scores_are_descending_and_k_respected() {
        let (_, engine) = engine();
        let hits = engine.search("the film", 5);
        assert!(hits.len() <= 5);
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn empty_query_returns_nothing() {
        let (_, engine) = engine();
        assert!(engine.search("", 10).is_empty());
        assert!(engine.search("the of and", 10).is_empty());
        assert!(engine.search("something", 0).is_empty());
    }

    #[test]
    fn unknown_terms_return_nothing() {
        let (_, engine) = engine();
        assert!(engine.search("qqqqxyzzy", 10).is_empty());
    }

    #[test]
    fn bm25_scorer_also_finds_entities() {
        let (kg, engine) = engine();
        let film = kg.type_id("Film").unwrap();
        let f = kg.type_extent(film)[0];
        let label = kg.display_name(f);
        let hits = engine.search_with(&label, 10, Scorer::Bm25);
        assert!(hits.iter().any(|h| h.entity == f));
    }

    #[test]
    fn structured_query_restricts_to_field() {
        let (kg, engine) = engine();
        // find an entity with an alias and query it via the similar field
        let aliased = kg
            .entity_ids()
            .find(|&e| !kg.aliases(e).is_empty())
            .expect("datagen produces aliases");
        let alias = kg.aliases(aliased)[0].clone();
        let hits = engine.search_structured(&format!("similar:{alias}"), 5);
        assert!(
            hits.first().map(|h| h.entity) == Some(aliased),
            "alias-restricted query should find the aliased entity first"
        );
        // restricting the same text to the wrong field must not find it
        // at the same strength (names field does not contain the alias)
        let wrong = engine.search_structured(&format!("name:{alias}"), 5);
        let right_score = hits[0].score;
        let wrong_score = wrong
            .iter()
            .find(|h| h.entity == aliased)
            .map(|h| h.score)
            .unwrap_or(f64::NEG_INFINITY);
        assert!(right_score > wrong_score);
    }

    #[test]
    fn structured_query_mixes_free_and_restricted() {
        let (kg, engine) = engine();
        let film = kg.type_id("Film").unwrap();
        let f = kg.type_extent(film)[0];
        let label = kg.display_name(f);
        let word = label.split_whitespace().last().unwrap();
        let hits = engine.search_structured(&format!("{word} cat:films"), 10);
        assert!(!hits.is_empty());
        assert!(hits.iter().any(|h| h.entity == f));
    }

    #[test]
    fn deterministic_results() {
        let (_, engine) = engine();
        let a = engine.search("silent harbor", 10);
        let b = engine.search("silent harbor", 10);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.entity == y.entity));
    }
}
