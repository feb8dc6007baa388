//! # pivote — a reproduction of PivotE (VLDB 2019)
//!
//! *PivotE: Revealing and Visualizing the Underlying Entity Structures
//! for Exploration* (Han, Chen, Lu, Chen, Du; PVLDB 12(12), 2019) is an
//! entity-oriented exploratory search system over knowledge graphs. This
//! workspace reproduces it end to end in Rust:
//!
//! | crate | role |
//! |---|---|
//! | [`pivote_kg`] | knowledge-graph store, N-Triples IO, synthetic DBpedia-like generator |
//! | [`pivote_text`] | tokenization / stopwords / stemming |
//! | [`pivote_search`] | five-field entity search with a mixture of language models (§2.2) |
//! | [`pivote_core`] | semantic features + the path-based ranking model (§2.3) |
//! | [`pivote_explore`] | session engine: dynamic query formulation, timeline, pivot, path (§2.1, §3) |
//! | [`pivote_baselines`] | Jaccard / PPR / frequency-overlap comparison systems |
//! | [`pivote_eval`] | metrics, ground truth and experiment harness |
//! | [`pivote_serve`] | TCP serving layer: line-JSON rank/expand/heatmap/search/append |
//! | [`pivote_viz`] | ASCII/SVG/DOT renderers for the paper's figures |
//!
//! The [`prelude`] re-exports the types most applications need.
//!
//! ```
//! use pivote::pivote_core::LiveStore;
//! use pivote::pivote_kg::DeltaBatch;
//! use pivote::prelude::*;
//! use std::sync::Arc;
//!
//! // Build a DBpedia-like graph, start a session, investigate a film.
//! let kg = generate(&DatagenConfig::tiny());
//! let film = kg.type_id("Film").unwrap();
//! let seed = kg.type_extent(film)[0];
//! let store = Arc::new(LiveStore::new(kg)); // one shard, by move
//! let mut session = Session::new(Arc::clone(&store), SessionConfig::default());
//! let view = session.click_entity(seed);
//! assert!(!view.entities.is_empty() || !view.features.is_empty());
//!
//! // The session stays pinned to its snapshot while the store grows;
//! // refresh() re-pins it to the latest one.
//! let mut delta = DeltaBatch::new();
//! delta.typed("Brand_New_Film", "Film");
//! store.append(&delta).unwrap();
//! assert_eq!((session.generation(), session.refresh()), (0, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pivote_baselines;
pub use pivote_core;
pub use pivote_eval;
pub use pivote_explore;
pub use pivote_kg;
pub use pivote_search;
pub use pivote_serve;
pub use pivote_sparql;
pub use pivote_text;
pub use pivote_viz;

/// The types most applications need, re-exported flat.
pub mod prelude {
    pub use pivote_core::{
        explain_cell, explain_pair, features_of, Direction, Expander, ExpansionResult, GraphHandle,
        HeatMap, RankedEntity, RankedFeature, Ranker, RankingConfig, SemanticFeature, SfQuery,
    };
    pub use pivote_explore::{
        build_profile, EntityProfile, ExplorationPath, ExplorationQuery, Session, SessionConfig,
        UserAction, ViewState,
    };
    pub use pivote_kg::{
        generate, DatagenConfig, EntityId, KgBuilder, KnowledgeGraph, Literal, PredicateId,
        ShardedGraph, TypeCouplingStats, TypeId,
    };
    pub use pivote_search::{Field, FiveFieldRepr, Scorer, SearchConfig, SearchEngine};
    pub use pivote_viz::{heatmap_ascii, heatmap_svg, path_ascii, render_view, typeview_ascii};
}
