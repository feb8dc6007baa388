//! # pivote-core — the PivotE recommendation engine (paper §2.3)
//!
//! The primary contribution of the paper: path-based ranking of semantic
//! features and entities for entity-oriented exploratory search.
//!
//! - [`feature`]: semantic features `anchor:predicate` in both directions
//!   and their extents `E(π)`;
//! - [`extent`]: sorted-set algebra over extents (the ranking hot loop),
//!   including the k-way union/intersection primitives;
//! - [`sharded`]: [`ShardedContext`], the one query context — interned
//!   extents, the `p(π|c)` probability cache, per-shard candidate scoring
//!   merged into bit-identical global top-k rankings — that every query
//!   engine in the workspace (core, explore, baselines, eval) runs
//!   through, over a `pivote_kg::ShardedGraph` of any shard count;
//! - [`context`]: what contexts share and reuse — the [`SharedCache`],
//!   the parallel map primitives and bounded top-k selection;
//! - [`handle`]: [`GraphHandle`], the cheap-to-clone handle to one
//!   context that every engine holds;
//! - [`live`]: [`LiveStore`] — the append-while-querying wrapper whose
//!   guard-scoped handles share one
//!   generation-stamped [`SharedCache`] across queries, sessions,
//!   appends *and* compactions, with off-lock concurrent compaction and
//!   a background [`MaintenanceHandle`];
//! - [`ingest`]: [`StreamingIngest`] — bounded-memory N-Triples ingest
//!   from any reader into a [`LiveStore`], composing with the
//!   maintenance thread so shards stay balanced mid-ingest;
//! - [`prepared`]: [`PreparedSnapshot`] — the generation-pinned serving
//!   read path: an immutable graph + prebuilt context (+ search slot)
//!   published once per write and acquired by readers with one atomic
//!   load, off the store lock and off per-request setup;
//! - [`warm`]: persisted context warm-state — the `p(π|c)` cache as a
//!   generation-checked sidecar next to the graph snapshot;
//! - [`replica`]: read replicas and crash recovery — follower
//!   [`ReplicaStore`]s tail a leader's durable delta log
//!   ([`pivote_kg::wal`]) and are provably fingerprint-equal to the
//!   leader at every synced generation;
//! - [`ranking`]: `r(π,Q) = d(π)·c(π,Q)` and
//!   `r(e,Q) = Σ p(π|e)·r(π,Q)` with error-tolerant category smoothing;
//! - [`expansion`]: entity set expansion over structured queries (seeds +
//!   required features + type filter) — the *investigation* operation;
//! - [`heatmap`]: the seven-level entity × feature correlation matrix of
//!   Fig. 3-f;
//! - [`explain`]: textual explanations of entity-pair and cell
//!   correlations;
//! - [`config`]: model switches, including the A1/A2 ablations.
//!
//! ```
//! use pivote_core::{Expander, RankingConfig, SfQuery};
//! use pivote_kg::{generate, DatagenConfig, ShardedGraph};
//!
//! let kg = generate(&DatagenConfig::tiny());
//! let film = kg.type_id("Film").unwrap();
//! let seed = kg.type_extent(film)[0];
//! let sg = ShardedGraph::from(kg);
//! let expander = Expander::new(&sg, RankingConfig::default());
//! let result = expander.expand(&SfQuery::from_seeds(vec![seed]), 10, 10);
//! assert!(!result.features.is_empty());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod context;
pub mod expansion;
pub mod explain;
pub mod extent;
pub mod feature;
pub mod handle;
pub mod heatmap;
pub mod ingest;
pub mod live;
pub mod prepared;
pub mod ranking;
pub mod replica;
pub mod sharded;
pub mod warm;

pub use config::RankingConfig;
pub use context::{top_k_ranked, SharedCache};
pub use expansion::{diversify_features, Expander, ExpansionResult, SfQuery};
pub use explain::{explain_cell, explain_pair, CellExplanation, PairExplanation};
pub use feature::{features_of, Direction, SemanticFeature};
pub use handle::GraphHandle;
pub use heatmap::{HeatMap, HEAT_LEVELS};
pub use ingest::{IngestError, IngestReport, StreamingIngest, DEFAULT_BATCH_OPS};
pub use live::{LiveReader, LiveStore, MaintenanceHandle, StoreError, MAX_OFFLOCK_ATTEMPTS};
pub use prepared::PreparedSnapshot;
pub use ranking::{RankedEntity, RankedFeature, Ranker};
pub use replica::{recover, RecoveryReport, ReplicaError, ReplicaHandle, ReplicaStore};
pub use sharded::ShardedContext;
pub use warm::{load_warm_state, save_warm_state, warm_sidecar_path, WarmStateError};
