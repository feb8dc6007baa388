//! # pivote-kg — knowledge graph substrate for the PivotE reproduction
//!
//! An in-memory, dictionary-encoded RDF-style knowledge graph store with
//! the access paths the PivotE system (VLDB'19) needs:
//!
//! - dense integer ids for entities/predicates/types/categories ([`id`]);
//! - CSR adjacency in both directions with per-predicate runs sorted by
//!   target id, so semantic-feature extents `E(π)` are zero-copy sorted
//!   slices ([`store`]);
//! - types, Wikipedia-style categories, labels, literals and redirect
//!   aliases as first-class indexes ([`store`], [`schema`]);
//! - N-Triples input/output for real DBpedia-style data ([`ntriples`]);
//! - a deterministic synthetic DBpedia-like generator that substitutes for
//!   the paper's DBpedia corpus ([`datagen`]);
//! - entity-id-range sharding — [`ShardedGraph`]/[`ShardRouter`] with a
//!   shard-local id remap whose invariants make rankings bit-identical
//!   at every shard count ([`shard`]). A [`ShardedGraph`] is the one
//!   store every live layer holds; a parsed or generated
//!   [`KnowledgeGraph`] becomes a one-shard store by move
//!   (`ShardedGraph::from(kg)`);
//! - type-coupling statistics backing the paper's Fig. 1-b type view and
//!   the pivot operation ([`stats`]).
//!
//! ## Quick start
//!
//! ```
//! use pivote_kg::{DatagenConfig, generate};
//!
//! let kg = generate(&DatagenConfig::tiny());
//! let film = kg.type_id("Film").unwrap();
//! assert!(!kg.type_extent(film).is_empty());
//! let f = kg.type_extent(film)[0];
//! let starring = kg.predicate("starring").unwrap();
//! // E(f:starring→): the cast of f, a sorted entity-id slice.
//! assert!(kg.objects(f, starring).len() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod codec;
pub mod datagen;
pub mod delta;
pub mod id;
pub mod interner;
pub mod ntriples;
pub mod schema;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod triple;
pub mod wal;

pub use backend::GraphBackend;
pub use codec::CodecError;
pub use datagen::{generate, DatagenConfig, Zipf};
pub use delta::{
    split_growth, split_incremental, AppliedDelta, CompactionReceipt, DeltaBatch, DeltaOp,
};
pub use id::{CategoryId, EntityId, LiteralId, PredicateId, TypeId};
pub use interner::Interner;
pub use ntriples::{
    parse, parse_into_delta, parse_reader, parse_removed_into_delta, parse_removed_stream,
    parse_stream, serialize, ParseError, StreamError, StreamStats,
};
pub use shard::{CompactionPolicy, GraphShard, ShardRouter, ShardedGraph};
pub use snapshot::{fingerprint, load_from_path, save_to_path};
pub use stats::{Coupling, TypeCouplingStats};
pub use store::{GraphSummary, KgBuilder, KnowledgeGraph};
pub use triple::{Literal, LiteralKind, Object, Triple};
pub use wal::{read_records, WalEvent, WalHeader, WalReader, WalRecord, WalWriter};
