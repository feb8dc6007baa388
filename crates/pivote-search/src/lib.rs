//! # pivote-search — the PivotE search engine (paper §2.2)
//!
//! Keyword entity retrieval over a knowledge graph using the paper's
//! five-field entity representation (Table 1) scored with a mixture of
//! per-field language models (the multi-fielded query-likelihood model of
//! Ponte & Croft / Ogilvie & Callan), plus a BM25F baseline for the
//! comparison experiments.
//!
//! ```
//! use pivote_kg::{generate, DatagenConfig};
//! use pivote_search::SearchEngine;
//!
//! let kg = generate(&DatagenConfig::tiny());
//! let engine = SearchEngine::with_defaults(&kg);
//! let hits = engine.search("film", 5);
//! assert!(hits.len() <= 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod bm25;
pub mod corpus;
pub mod engine;
pub mod fields;
pub mod index;
pub mod lm;
pub mod querylang;

pub use backend::SearchBackend;
pub use bm25::Bm25;
pub use corpus::{CollectionView, CorpusStats, FieldCorpus, TermStats};
pub use engine::{Hit, Scorer, SearchConfig, SearchEngine};
pub use fields::{Field, FiveFieldRepr};
pub use index::{FieldIndex, FieldedIndex, Posting};
pub use lm::{FieldWeights, MixtureLm, ResolvedQuery, Smoothing};
pub use querylang::{parse_query, ParsedQuery, QueryTerm};
