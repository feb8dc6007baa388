//! Mixture of language models — the paper's retrieval model (§2.2).
//!
//! "The mixture of language models (i.e., a multi-fielded extension of the
//! query likelihood retrieval model, where the retrieval score of a
//! structured document is a linear combination of probabilities of query
//! terms in the language models calculated for each document field)" —
//! i.e. the Ogilvie–Callan fielded extension of Ponte & Croft \[4\]:
//!
//! ```text
//! score(e, q) = Σ_{t ∈ q} log Σ_{f ∈ fields} w_f · p(t | θ_{e,f})
//! ```
//!
//! with per-field smoothing of `p(t | θ_{e,f})` against the field's
//! collection model (Dirichlet or Jelinek–Mercer).

use crate::corpus::CollectionView;
use crate::fields::Field;
use crate::index::{FieldedIndex, Posting};
use serde::{Deserialize, Serialize};

/// Smoothing of the per-field document language model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Smoothing {
    /// Dirichlet prior smoothing with pseudo-count `mu`.
    Dirichlet {
        /// Pseudo-count mass of the collection model.
        mu: f64,
    },
    /// Jelinek–Mercer interpolation with weight `lambda` on the collection
    /// model.
    JelinekMercer {
        /// Collection-model interpolation weight in `[0, 1]`.
        lambda: f64,
    },
}

impl Default for Smoothing {
    fn default() -> Self {
        Smoothing::Dirichlet { mu: 100.0 }
    }
}

impl Smoothing {
    /// Smoothed `p(t | θ_{e,f})` given the raw term frequency, the field
    /// length of the document, and the collection probability of the term.
    #[inline]
    pub fn prob(&self, tf: u32, doc_len: u32, collection_prob: f64) -> f64 {
        match *self {
            Smoothing::Dirichlet { mu } => {
                (f64::from(tf) + mu * collection_prob) / (f64::from(doc_len) + mu)
            }
            Smoothing::JelinekMercer { lambda } => {
                let ml = if doc_len == 0 {
                    0.0
                } else {
                    f64::from(tf) / f64::from(doc_len)
                };
                (1.0 - lambda) * ml + lambda * collection_prob
            }
        }
    }
}

/// Per-field interpolation weights of the mixture, in [`Field::ALL`]
/// order. They are renormalized at scoring time, so any positive vector
/// works.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FieldWeights(pub [f64; 5]);

impl Default for FieldWeights {
    /// Weights favouring name matches, with meaningful mass on categories
    /// and related/similar names — the standard fielded-entity-search
    /// profile.
    fn default() -> Self {
        FieldWeights([0.40, 0.10, 0.20, 0.15, 0.15])
    }
}

impl FieldWeights {
    /// Put all weight on a single field (the single-field LM baseline).
    pub fn single(field: Field) -> Self {
        let mut w = [0.0; 5];
        w[field.index()] = 1.0;
        FieldWeights(w)
    }

    /// Uniform weights across all five fields.
    pub fn uniform() -> Self {
        FieldWeights([0.2; 5])
    }

    fn normalized(&self) -> [f64; 5] {
        let sum: f64 = self.0.iter().sum();
        if sum <= 0.0 {
            return [0.2; 5];
        }
        let mut out = self.0;
        for v in &mut out {
            *v /= sum;
        }
        out
    }
}

/// The mixture-of-LM scorer.
#[derive(Debug, Clone, Copy, Default)]
pub struct MixtureLm {
    /// Field interpolation weights.
    pub weights: FieldWeights,
    /// Per-field smoothing rule.
    pub smoothing: Smoothing,
}

impl MixtureLm {
    /// Log-likelihood score of one document for analyzed query `terms`.
    ///
    /// Returns the sum over terms of the log of the weighted field
    /// mixture. Documents sharing no term still get a finite background
    /// score, so callers should restrict scoring to candidate documents.
    pub fn score(&self, index: &FieldedIndex, doc: u32, terms: &[String]) -> f64 {
        self.score_in(index, index, doc, terms)
    }

    /// Like [`MixtureLm::score`], but collection-level statistics come
    /// from an explicit [`CollectionView`] while term frequencies and
    /// document lengths stay with `index`. Sharded deployments pass the
    /// globally-merged [`CorpusStats`](crate::corpus::CorpusStats) here
    /// so every shard scores against the same collection model; with
    /// `collection = index` this is exactly [`MixtureLm::score`].
    ///
    /// Scoring many documents for one query? [`MixtureLm::resolve`] once
    /// and [`ResolvedQuery::score`] each — this is that, per call.
    pub fn score_in<C: CollectionView + ?Sized>(
        &self,
        index: &FieldedIndex,
        collection: &C,
        doc: u32,
        terms: &[String],
    ) -> f64 {
        self.resolve(index, collection, terms).score(doc)
    }

    /// Look up everything about `terms` that does not depend on the
    /// document — per (term, field) the posting list and the collection
    /// probability, and the normalized weights — so that scoring a
    /// candidate hashes no string.
    pub fn resolve<'a, C: CollectionView + ?Sized>(
        &self,
        index: &'a FieldedIndex,
        collection: &C,
        terms: &[String],
    ) -> ResolvedQuery<'a> {
        let weights = self.weights.normalized();
        let terms = terms
            .iter()
            .map(|term| {
                Field::ALL.map(|field| {
                    if weights[field.index()] == 0.0 {
                        return (None, 0.0);
                    }
                    (
                        index.field(field).posting(term),
                        collection.collection_prob(field, term),
                    )
                })
            })
            .collect();
        ResolvedQuery {
            smoothing: self.smoothing,
            weights,
            index,
            terms,
        }
    }
}

/// A query resolved against one index and collection view by
/// [`MixtureLm::resolve`].
pub struct ResolvedQuery<'a> {
    smoothing: Smoothing,
    /// Normalized field weights; a zero-weight field is never read.
    weights: [f64; 5],
    index: &'a FieldedIndex,
    /// Per term and field: the term's postings in that field and its
    /// collection probability there.
    terms: Vec<[(Option<&'a Posting>, f64); 5]>,
}

impl ResolvedQuery<'_> {
    /// Log-likelihood score of one document: the sum over terms of the
    /// log of the weighted field mixture.
    pub fn score(&self, doc: u32) -> f64 {
        let doc_len = Field::ALL.map(|field| self.index.field(field).doc_len(doc));
        let mut score = 0.0;
        for term in &self.terms {
            let mut mix = 0.0;
            for (i, &(posting, collection_prob)) in term.iter().enumerate() {
                let weight = self.weights[i];
                if weight == 0.0 {
                    continue;
                }
                let tf = posting.map(|p| p.tf(doc)).unwrap_or(0);
                let p = self.smoothing.prob(tf, doc_len[i], collection_prob);
                mix += weight * p;
            }
            // mix > 0 because collection probs are floored.
            score += mix.max(f64::MIN_POSITIVE).ln();
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusStats;
    use pivote_kg::{generate, DatagenConfig};
    use pivote_text::Analyzer;

    /// The per-candidate loop `resolve` + `score` replaced: every lookup
    /// redone for every document.
    fn score_unhoisted<C: CollectionView + ?Sized>(
        lm: &MixtureLm,
        index: &FieldedIndex,
        collection: &C,
        doc: u32,
        terms: &[String],
    ) -> f64 {
        let w = lm.weights.normalized();
        let mut score = 0.0;
        for term in terms {
            let mut mix = 0.0;
            for field in Field::ALL {
                let weight = w[field.index()];
                if weight == 0.0 {
                    continue;
                }
                let fi = index.field(field);
                let tf = fi.posting(term).map(|p| p.tf(doc)).unwrap_or(0);
                let p =
                    lm.smoothing
                        .prob(tf, fi.doc_len(doc), collection.collection_prob(field, term));
                mix += weight * p;
            }
            score += mix.max(f64::MIN_POSITIVE).ln();
        }
        score
    }

    #[test]
    fn resolved_scores_equal_the_per_candidate_loop_bit_for_bit() {
        let kg = generate(&DatagenConfig::tiny());
        let analyzer = Analyzer::default();
        let index = FieldedIndex::build(&kg, &analyzer, 128);
        // a collection view that is not the index: half the documents
        let mut half = CorpusStats::new();
        half.absorb(&index, |d| d % 2 == 0);
        let models = [
            MixtureLm::default(),
            MixtureLm {
                weights: FieldWeights::single(Field::Categories),
                smoothing: Smoothing::JelinekMercer { lambda: 0.3 },
            },
            MixtureLm {
                weights: FieldWeights([0.0; 5]),
                smoothing: Smoothing::default(),
            },
        ];
        for query in [
            "american films",
            "the silent harbor 1994",
            "zzzz-unseen film",
        ] {
            let terms = analyzer.analyze(query);
            for lm in &models {
                let own = lm.resolve(&index, &index, &terms);
                let merged = lm.resolve(&index, &half, &terms);
                for doc in 0..index.doc_count() as u32 {
                    assert_eq!(
                        own.score(doc).to_bits(),
                        score_unhoisted(lm, &index, &index, doc, &terms).to_bits()
                    );
                    assert_eq!(
                        merged.score(doc).to_bits(),
                        score_unhoisted(lm, &index, &half, doc, &terms).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn dirichlet_smoothing_blends_toward_collection() {
        let s = Smoothing::Dirichlet { mu: 10.0 };
        // empty doc: pure collection probability
        assert!((s.prob(0, 0, 0.5) - 0.5).abs() < 1e-12);
        // matching term beats background
        assert!(s.prob(3, 10, 0.01) > s.prob(0, 10, 0.01));
        // longer doc dilutes
        assert!(s.prob(1, 10, 0.01) > s.prob(1, 100, 0.01));
    }

    #[test]
    fn jm_smoothing_interpolates() {
        let s = Smoothing::JelinekMercer { lambda: 0.5 };
        let p = s.prob(5, 10, 0.2);
        assert!((p - (0.5 * 0.5 + 0.5 * 0.2)).abs() < 1e-12);
        // zero-length doc falls back to collection only
        assert!((s.prob(0, 0, 0.2) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn weights_normalize() {
        let w = FieldWeights([2.0, 0.0, 0.0, 0.0, 0.0]).normalized();
        assert!((w[0] - 1.0).abs() < 1e-12);
        let degenerate = FieldWeights([0.0; 5]).normalized();
        assert!((degenerate.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_field_weights() {
        let w = FieldWeights::single(Field::Categories);
        assert_eq!(w.0[Field::Categories.index()], 1.0);
        assert_eq!(w.0.iter().sum::<f64>(), 1.0);
    }
}
