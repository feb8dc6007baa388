//! # pivote-text — text analysis for PivotE entity search
//!
//! The search engine of PivotE (§2.2 of the paper) retrieves entities by
//! keywords over a five-field document representation. This crate is the
//! shared analysis chain: tokenization, stopword removal, and a light
//! suffix stemmer, packaged as an [`Analyzer`] used identically at index
//! and query time.
//!
//! ```
//! use pivote_text::Analyzer;
//! let a = Analyzer::default();
//! assert_eq!(a.analyze("Films starring Tom Hanks"), vec!["film", "starr", "tom", "hank"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod stem;
pub mod stopwords;
pub mod tokenize;

pub use analyze::Analyzer;
pub use stem::stem;
pub use stopwords::{is_stopword, STOPWORDS};
pub use tokenize::{raw_tokens, tokenize, tokenize_vec, RawTokens, Tokens};
