//! # pivote-sparql — the structured-access baseline
//!
//! The paper's introduction motivates PivotE by the difficulty of
//! accessing knowledge graphs "in a structured manner like SPARQL": a
//! user must already know the schema to write the query that exploratory
//! search discovers by clicking. This crate implements the SPARQL
//! subset needed to make that comparison concrete — `SELECT [DISTINCT]
//! … WHERE { basic graph pattern } [LIMIT n]` with prefixed names,
//! `a`/`rdf:type`, `dct:subject` (categories) and `rdfs:label` routed to
//! the store's dedicated indexes.
//!
//! ```
//! use pivote_kg::{generate, DatagenConfig};
//!
//! let kg = generate(&DatagenConfig::tiny());
//! // "Find films" the structured way:
//! let rs = pivote_sparql::query(&kg, "SELECT ?f WHERE { ?f a dbo:Film } LIMIT 5").unwrap();
//! assert!(!rs.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod exec;
pub mod parser;

pub use ast::{SelectQuery, Term, TriplePattern};
pub use exec::{execute, query, ResultSet, Value};
pub use parser::{parse, SparqlError};
