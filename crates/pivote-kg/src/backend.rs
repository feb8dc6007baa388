//! [`GraphBackend`] — one owned store, two physical layouts.
//!
//! The live execution layer (`pivote-core`'s `LiveStore`) grew up as two
//! parallel wrappers — one owning a [`KnowledgeGraph`], one owning a
//! [`ShardedGraph`] — because the two stores exposed their mutation and
//! maintenance surfaces under different names. [`GraphBackend`] closes
//! that gap at the storage layer: a single owned enum unifying
//!
//! - **mutation**: [`GraphBackend::apply`] splices a [`DeltaBatch`] into
//!   whichever layout is behind the enum, returning the same global-id
//!   [`AppliedDelta`] receipt either way;
//! - **versioning**: [`GraphBackend::generation`] (bumped by every apply
//!   and every compaction) and [`GraphBackend::compaction_epoch`] (bumped
//!   only by re-partitions; constant `0` for a single graph, which is
//!   always "one partition");
//! - **maintenance**: [`GraphBackend::compact`],
//!   [`GraphBackend::trailing_shard_count`] and
//!   [`GraphBackend::needs_compaction`] — all no-ops / zeros on the
//!   single layout, so policy-driven maintenance code never branches on
//!   the variant;
//! - **snapshots**: [`GraphBackend::to_single`] materializes the logical
//!   graph (identity clone for single, union rebuild for sharded) and
//!   [`GraphBackend::save_snapshot`] writes it through the one
//!   [`snapshot`] format every build path round-trips.
//!
//! The enum is deliberately *owned* (not borrowed): it is the thing a
//! live store puts behind its `RwLock`, clones under a read guard for
//! off-lock compaction, and swaps wholesale. The borrowed, query-side
//! twin lives in `pivote-core` (`GraphHandle`).

use crate::delta::{AppliedDelta, DeltaBatch};
use crate::id::EntityId;
use crate::shard::{CompactionPolicy, ShardedGraph};
use crate::snapshot::{self, SnapshotError};
use crate::store::KnowledgeGraph;

/// One owned knowledge-graph store: a single in-memory graph or a
/// range-sharded partition, behind one mutation / maintenance /
/// snapshot surface.
// A store exists once per live wrapper (never in collections), so the
// inline size gap between the variants costs nothing and boxing would
// put a pointer chase on every guard-scoped access.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum GraphBackend {
    /// One in-memory [`KnowledgeGraph`].
    Single(KnowledgeGraph),
    /// A range-partitioned [`ShardedGraph`].
    Sharded(ShardedGraph),
}

impl From<KnowledgeGraph> for GraphBackend {
    fn from(kg: KnowledgeGraph) -> Self {
        GraphBackend::Single(kg)
    }
}

impl From<ShardedGraph> for GraphBackend {
    fn from(sg: ShardedGraph) -> Self {
        GraphBackend::Sharded(sg)
    }
}

impl GraphBackend {
    /// Append a [`DeltaBatch`] in place. Both layouts intern unknown
    /// names in op order and return the same global-id receipt, so the
    /// caller's cache invalidation is layout-independent.
    pub fn apply(&mut self, delta: &DeltaBatch) -> AppliedDelta {
        match self {
            GraphBackend::Single(kg) => kg.apply(delta),
            GraphBackend::Sharded(sg) => sg.apply(delta),
        }
    }

    /// The mutation generation: 0 for a fresh store, bumped by every
    /// [`GraphBackend::apply`] and (on the sharded layout) every
    /// compaction.
    pub fn generation(&self) -> u64 {
        match self {
            GraphBackend::Single(kg) => kg.generation(),
            GraphBackend::Sharded(sg) => sg.generation(),
        }
    }

    /// Number of re-partitions this store descends from. A single graph
    /// is always one partition, so its epoch is constant `0`; per-shard
    /// derived state (search indexes, say) keyed by shard position is
    /// valid exactly as long as the epoch is unchanged.
    pub fn compaction_epoch(&self) -> u64 {
        match self {
            GraphBackend::Single(_) => 0,
            GraphBackend::Sharded(sg) => sg.compaction_epoch(),
        }
    }

    /// Number of physical shards (1 for the single layout).
    pub fn shard_count(&self) -> usize {
        match self {
            GraphBackend::Single(_) => 1,
            GraphBackend::Sharded(sg) => sg.shard_count(),
        }
    }

    /// Trailing shards appended by deltas since the last deliberate
    /// partition — the quantity compaction policies watch. Always 0 for
    /// the single layout.
    pub fn trailing_shard_count(&self) -> usize {
        match self {
            GraphBackend::Single(_) => 0,
            GraphBackend::Sharded(sg) => sg.trailing_shard_count(),
        }
    }

    /// Fraction of owned entities living in trailing shards (0.0 for the
    /// single layout and for a freshly partitioned graph).
    pub fn tail_owned_fraction(&self) -> f64 {
        match self {
            GraphBackend::Single(_) => 0.0,
            GraphBackend::Sharded(sg) => sg.tail_owned_fraction(),
        }
    }

    /// Whether `policy` judges this store degenerate enough to compact.
    /// The single layout has no partition to degenerate, so only the
    /// tombstone-mass axis can fire there — a retract-heavy single store
    /// still compacts to reclaim its dead rows.
    pub fn needs_compaction(&self, policy: &CompactionPolicy) -> bool {
        match self {
            GraphBackend::Single(kg) => {
                policy.tombstones_trip(kg.tombstone_count(), kg.triple_count())
            }
            GraphBackend::Sharded(sg) => policy.needs_compaction(sg),
        }
    }

    /// Retracted-but-unreclaimed statements held by the store (the mass
    /// the tombstone compaction axis watches). Zero for any store that
    /// has never seen a retract since its last compaction.
    pub fn tombstone_count(&self) -> usize {
        match self {
            GraphBackend::Single(kg) => kg.tombstone_count(),
            GraphBackend::Sharded(sg) => sg.tombstone_count(),
        }
    }

    /// Re-partition into `target_shards` fresh range shards
    /// (answer-preserving; see [`ShardedGraph::compact`]). On the single
    /// layout a single graph is always one partition, so compaction is
    /// the identity — a clone at the same generation — unless tombstones
    /// are held, in which case it is an id-preserving
    /// [`KnowledgeGraph::reclaim`] (same answers, dead rows returned,
    /// generation bumped like the sharded compaction).
    pub fn compact(&self, target_shards: usize) -> GraphBackend {
        match self {
            GraphBackend::Single(kg) if kg.tombstone_count() == 0 => {
                GraphBackend::Single(kg.clone())
            }
            GraphBackend::Single(kg) => GraphBackend::Single(kg.reclaim()),
            GraphBackend::Sharded(sg) => GraphBackend::Sharded(sg.compact(target_shards)),
        }
    }

    /// [`snapshot::fingerprint`] of the *logical* graph behind this
    /// store: the restart-stable hash of its exact snapshot bytes,
    /// independent of layout, partitioning and mutation generation. Two
    /// backends with equal fingerprints serve bit-identical answers —
    /// the equality the delta-log replication contract is stated in.
    /// Linear in graph size (the sharded layout union-rebuilds first);
    /// call at durability points, not per query.
    pub fn fingerprint(&self) -> u64 {
        match self {
            GraphBackend::Single(kg) => snapshot::fingerprint(kg),
            GraphBackend::Sharded(sg) => snapshot::fingerprint(&sg.to_graph()),
        }
    }

    /// Total number of entities.
    pub fn entity_count(&self) -> usize {
        match self {
            GraphBackend::Single(kg) => kg.entity_count(),
            GraphBackend::Sharded(sg) => sg.entity_count(),
        }
    }

    /// Resolve an entity by name.
    pub fn entity(&self, name: &str) -> Option<EntityId> {
        match self {
            GraphBackend::Single(kg) => kg.entity(name),
            GraphBackend::Sharded(sg) => sg.entity(name),
        }
    }

    /// Total number of statements.
    pub fn triple_count(&self) -> usize {
        match self {
            GraphBackend::Single(kg) => kg.triple_count(),
            GraphBackend::Sharded(sg) => sg.triple_count(),
        }
    }

    /// The single graph, when this backend is the single layout.
    pub fn as_single(&self) -> Option<&KnowledgeGraph> {
        match self {
            GraphBackend::Single(kg) => Some(kg),
            GraphBackend::Sharded(_) => None,
        }
    }

    /// The sharded graph, when this backend is the sharded layout.
    pub fn as_sharded(&self) -> Option<&ShardedGraph> {
        match self {
            GraphBackend::Single(_) => None,
            GraphBackend::Sharded(sg) => Some(sg),
        }
    }

    /// Materialize the logical single graph this store represents: the
    /// graph itself for the single layout, the id-preserving union
    /// rebuild ([`ShardedGraph::to_graph`]) for the sharded one. Both
    /// serialize to byte-identical snapshots of the same logical graph.
    pub fn to_single(&self) -> KnowledgeGraph {
        match self {
            GraphBackend::Single(kg) => kg.clone(),
            GraphBackend::Sharded(sg) => sg.to_graph(),
        }
    }

    /// [`GraphBackend::to_single`], consuming the backend (avoids the
    /// clone on the single layout).
    pub fn into_single(self) -> KnowledgeGraph {
        match self {
            GraphBackend::Single(kg) => kg,
            GraphBackend::Sharded(sg) => sg.to_graph(),
        }
    }

    /// Save the logical graph through the versioned snapshot format —
    /// the one entry point both layouts (and every build path: rebuild,
    /// append, sharded append, compaction) serialize through.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<(), SnapshotError> {
        match self {
            GraphBackend::Single(kg) => snapshot::save_to_path(kg, path),
            GraphBackend::Sharded(sg) => snapshot::save_to_path(&sg.to_graph(), path),
        }
    }

    /// Load a snapshot into a single-layout backend.
    pub fn load_snapshot(path: impl AsRef<std::path::Path>) -> Result<GraphBackend, SnapshotError> {
        Ok(GraphBackend::Single(snapshot::load_from_path(path)?))
    }

    /// Load a snapshot and partition it into a sharded-layout backend.
    pub fn load_snapshot_sharded(
        path: impl AsRef<std::path::Path>,
        shards: usize,
    ) -> Result<GraphBackend, SnapshotError> {
        let kg = snapshot::load_from_path(path)?;
        Ok(GraphBackend::Sharded(ShardedGraph::from_graph(&kg, shards)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate, DatagenConfig};

    fn delta(kg: &KnowledgeGraph) -> DeltaBatch {
        let n0 = kg.entity_name(EntityId::new(0)).to_owned();
        let mut d = DeltaBatch::new();
        d.triple("Backend_Fresh_Entity", "backend_pred", &n0)
            .typed("Backend_Fresh_Entity", "Film");
        d
    }

    #[test]
    fn both_layouts_apply_identically() {
        let kg = generate(&DatagenConfig::tiny());
        let d = delta(&kg);
        let mut single = GraphBackend::from(kg.clone());
        let mut sharded = GraphBackend::from(ShardedGraph::from_graph(&kg, 3));
        let rs = single.apply(&d);
        let rh = sharded.apply(&d);
        assert_eq!(rs.new_entities, rh.new_entities);
        assert_eq!(rs.touched_out, rh.touched_out);
        assert_eq!(rs.touched_in, rh.touched_in);
        assert_eq!(single.generation(), 1);
        assert_eq!(sharded.generation(), 1);
        assert_eq!(single.entity_count(), sharded.entity_count());
        assert_eq!(
            single.entity("Backend_Fresh_Entity"),
            sharded.entity("Backend_Fresh_Entity")
        );
        // trailing / epoch surfaces: zeros on single, live on sharded
        assert_eq!(single.trailing_shard_count(), 0);
        assert_eq!(sharded.trailing_shard_count(), 1);
        assert_eq!(single.compaction_epoch(), 0);
        let policy = CompactionPolicy {
            max_trailing: 0,
            max_tail_fraction: 1.0,
            max_tombstone_fraction: 1.0,
        };
        assert!(!single.needs_compaction(&policy));
        assert!(sharded.needs_compaction(&policy));
    }

    #[test]
    fn compact_is_identity_on_single_and_repartitions_sharded() {
        let kg = generate(&DatagenConfig::tiny());
        let d = delta(&kg);
        let mut sharded = GraphBackend::from(ShardedGraph::from_graph(&kg, 2));
        sharded.apply(&d);
        let compacted = sharded.compact(2);
        assert_eq!(compacted.trailing_shard_count(), 0);
        assert_eq!(compacted.generation(), sharded.generation() + 1);
        assert_eq!(compacted.compaction_epoch(), 1);

        let single = GraphBackend::from(kg.clone());
        let same = single.compact(4);
        assert_eq!(same.generation(), single.generation());
        assert_eq!(same.shard_count(), 1);
        assert_eq!(same.triple_count(), single.triple_count());
    }

    #[test]
    fn snapshot_entry_points_agree_across_layouts() {
        let kg = generate(&DatagenConfig::tiny());
        let single = GraphBackend::from(kg.clone());
        let sharded = GraphBackend::from(ShardedGraph::from_graph(&kg, 3));
        let dir = std::env::temp_dir();
        let p1 = dir.join("pivote_backend_single.pvte");
        let p2 = dir.join("pivote_backend_sharded.pvte");
        single.save_snapshot(&p1).unwrap();
        sharded.save_snapshot(&p2).unwrap();
        assert_eq!(
            std::fs::read(&p1).unwrap(),
            std::fs::read(&p2).unwrap(),
            "both layouts must snapshot the same logical graph bytes"
        );
        let loaded = GraphBackend::load_snapshot(&p1).unwrap();
        assert_eq!(loaded.entity_count(), kg.entity_count());
        let loaded_sharded = GraphBackend::load_snapshot_sharded(&p2, 2).unwrap();
        assert_eq!(loaded_sharded.shard_count(), 2);
        assert_eq!(loaded_sharded.entity_count(), kg.entity_count());
        assert_eq!(
            crate::ntriples::serialize(&loaded_sharded.to_single()),
            crate::ntriples::serialize(&kg)
        );
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
    }
}
