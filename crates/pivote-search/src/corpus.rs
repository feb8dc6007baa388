//! Collection statistics decoupled from the inverted index, so sharded
//! deployments can score with **global** corpus statistics while term
//! frequencies and document lengths stay shard-local.
//!
//! The scoring formulas (mixture-of-LM smoothing, BM25F idf and length
//! normalization) read their collection-level inputs — total field
//! length, vocabulary size, collection/document frequency, document
//! count — through the [`CollectionView`] trait. A single-graph
//! [`FieldedIndex`] implements it directly;
//! a sharded deployment merges per-shard indexes into one
//! [`CorpusStats`] (counting each **owned** document exactly once, so
//! ghost copies don't inflate the statistics) and scores every shard
//! against the merged view. Because the per-term inputs are exact
//! integer sums, the merged statistics equal the single-graph statistics
//! bit-for-bit — which is what makes sharded search scores bit-identical
//! to single-graph scores.

use crate::fields::Field;
use crate::index::FieldedIndex;
use std::collections::HashMap;

/// Collection-level inputs of the scoring formulas, abstracted over
/// "one index over everything" vs "merged statistics across shards".
pub trait CollectionView {
    /// Total number of documents in the (logical) collection.
    fn n_docs(&self) -> usize;
    /// Collection language-model probability `p(t | C_field)` with the
    /// same add-epsilon flooring as
    /// [`FieldIndex::collection_prob`](crate::index::FieldIndex::collection_prob).
    fn collection_prob(&self, f: Field, term: &str) -> f64;
    /// Average field length over all documents of the collection.
    fn avg_len(&self, f: Field) -> f64;
    /// Document frequency of `term` in `f`, `None` when no document of
    /// the collection contains it in that field.
    fn df(&self, f: Field, term: &str) -> Option<usize>;
}

/// Per-term collection statistics of one field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TermStats {
    /// Collection frequency: total occurrences across owned documents.
    pub cf: u64,
    /// Document frequency: owned documents containing the term.
    pub df: usize,
}

/// Collection statistics of one field, merged over owned documents.
#[derive(Debug, Clone, Default)]
pub struct FieldCorpus {
    total_len: u64,
    terms: HashMap<String, TermStats>,
}

impl FieldCorpus {
    /// Total tokens across owned documents.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Number of distinct terms with at least one owned occurrence.
    pub fn vocabulary_size(&self) -> usize {
        self.terms.len()
    }

    /// The merged statistics of one term, if any owned document has it.
    pub fn term(&self, term: &str) -> Option<&TermStats> {
        self.terms.get(term)
    }
}

/// Corpus statistics over the owned documents of a collection —
/// the merge target for per-shard indexes.
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    n_docs: usize,
    fields: [FieldCorpus; 5],
}

impl CorpusStats {
    /// Empty statistics (merge indexes in with [`CorpusStats::absorb`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The statistics of a single index, counting every document as
    /// owned — by construction equal to what the index itself reports.
    pub fn from_index(index: &FieldedIndex) -> Self {
        let mut stats = Self::new();
        stats.absorb(index, |_| true);
        stats
    }

    /// Merge one (shard) index into the statistics, counting only the
    /// documents `owned` accepts — each shard owns a disjoint document
    /// set, so absorbing every shard of a partition counts each logical
    /// document exactly once.
    pub fn absorb<F: Fn(u32) -> bool>(&mut self, index: &FieldedIndex, owned: F) {
        let docs = index.doc_count() as u32;
        self.n_docs += (0..docs).filter(|&d| owned(d)).count();
        for f in Field::ALL {
            let fi = index.field(f);
            let fc = &mut self.fields[f.index()];
            for d in 0..docs {
                if owned(d) {
                    fc.total_len += u64::from(fi.doc_len(d));
                }
            }
            for (term, posting) in fi.postings() {
                let mut cf = 0u64;
                let mut df = 0usize;
                for &(d, tf) in &posting.docs {
                    if owned(d) {
                        cf += u64::from(tf);
                        df += 1;
                    }
                }
                if df > 0 {
                    // after the first shard nearly every term is already
                    // merged: probe by `&str`, allocate only to insert
                    match fc.terms.get_mut(term) {
                        Some(t) => {
                            t.cf += cf;
                            t.df += df;
                        }
                        None => {
                            fc.terms.insert(term.to_owned(), TermStats { cf, df });
                        }
                    }
                }
            }
        }
    }

    /// The merged statistics of one field.
    pub fn field(&self, f: Field) -> &FieldCorpus {
        &self.fields[f.index()]
    }
}

impl CollectionView for CorpusStats {
    fn n_docs(&self) -> usize {
        self.n_docs
    }

    fn collection_prob(&self, f: Field, term: &str) -> f64 {
        let fc = self.field(f);
        let cf = fc.term(term).map(|t| t.cf).unwrap_or(0) as f64;
        let total = fc.total_len.max(1) as f64;
        (cf + 0.01) / (total + 0.01 * (fc.terms.len().max(1) as f64))
    }

    fn avg_len(&self, f: Field) -> f64 {
        if self.n_docs == 0 {
            0.0
        } else {
            self.field(f).total_len as f64 / self.n_docs as f64
        }
    }

    fn df(&self, f: Field, term: &str) -> Option<usize> {
        self.field(f).term(term).map(|t| t.df)
    }
}

impl CollectionView for FieldedIndex {
    fn n_docs(&self) -> usize {
        self.doc_count()
    }

    fn collection_prob(&self, f: Field, term: &str) -> f64 {
        self.field(f).collection_prob(term)
    }

    fn avg_len(&self, f: Field) -> f64 {
        self.field(f).avg_len()
    }

    fn df(&self, f: Field, term: &str) -> Option<usize> {
        self.field(f).posting(term).map(|p| p.df())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_kg::{generate, DatagenConfig};
    use pivote_text::Analyzer;

    #[test]
    fn from_index_matches_the_index_view_bit_for_bit() {
        let kg = generate(&DatagenConfig::tiny());
        let idx = FieldedIndex::build(&kg, &Analyzer::default(), 128);
        let stats = CorpusStats::from_index(&idx);
        assert_eq!(stats.n_docs(), idx.n_docs());
        for f in Field::ALL {
            assert_eq!(stats.field(f).total_len(), idx.field(f).total_len());
            assert_eq!(
                stats.field(f).vocabulary_size(),
                idx.field(f).vocabulary_size()
            );
            assert_eq!(stats.avg_len(f).to_bits(), idx.avg_len(f).to_bits());
            for term in ["film", "the", "of", "american", "zzzz-unseen"] {
                assert_eq!(
                    stats.collection_prob(f, term).to_bits(),
                    idx.collection_prob(f, term).to_bits(),
                    "collection_prob({term}) in {f:?}"
                );
                assert_eq!(stats.df(f, term), idx.df(f, term));
            }
        }
    }

    #[test]
    fn absorbing_disjoint_halves_equals_the_whole() {
        let kg = generate(&DatagenConfig::tiny());
        let idx = FieldedIndex::build(&kg, &Analyzer::default(), 128);
        let whole = CorpusStats::from_index(&idx);
        let cut = (idx.doc_count() / 2) as u32;
        let mut halves = CorpusStats::new();
        halves.absorb(&idx, |d| d < cut);
        halves.absorb(&idx, |d| d >= cut);
        assert_eq!(halves.n_docs(), whole.n_docs());
        for f in Field::ALL {
            assert_eq!(halves.field(f).total_len(), whole.field(f).total_len());
            assert_eq!(
                halves.field(f).vocabulary_size(),
                whole.field(f).vocabulary_size()
            );
            for term in ["film", "american", "work"] {
                assert_eq!(
                    halves.field(f).term(term).copied(),
                    whole.field(f).term(term).copied(),
                    "term {term} in {f:?}"
                );
            }
        }
    }
}
