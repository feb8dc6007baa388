//! [`GraphBackend`] — the name of the one store type.
//!
//! Every live layer (`pivote-core`'s `LiveStore`, its prepared
//! snapshots, replicas and recovery) holds a [`ShardedGraph`]. A parsed
//! or generated [`KnowledgeGraph`](crate::KnowledgeGraph) enters through
//! `ShardedGraph::from(kg)`, which wraps it **by move** as one shard
//! owning every entity; `ShardedGraph::from_graph(&kg, n)` partitions it
//! into `n`. Both answer identically at every shard count.

use crate::shard::ShardedGraph;

/// The store type. It is [`ShardedGraph`]; the alias exists only because
/// the stand-alone harness under `benchmark/` names it.
pub type GraphBackend = ShardedGraph;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate, DatagenConfig};
    use crate::delta::DeltaBatch;
    use crate::id::EntityId;
    use crate::shard::CompactionPolicy;
    use crate::store::KnowledgeGraph;

    fn delta(kg: &KnowledgeGraph) -> DeltaBatch {
        let n0 = kg.entity_name(EntityId::new(0)).to_owned();
        let mut d = DeltaBatch::new();
        d.triple("Backend_Fresh_Entity", "backend_pred", &n0)
            .typed("Backend_Fresh_Entity", "Film");
        d
    }

    /// A one-shard store (by move) and a three-shard partition apply
    /// the same batch to the same receipt and the same logical graph.
    #[test]
    fn both_layouts_apply_identically() {
        let kg = generate(&DatagenConfig::tiny());
        let d = delta(&kg);
        let mut one = GraphBackend::from(kg.clone());
        let mut three = GraphBackend::from_graph(&kg, 3);
        assert_eq!(one.apply(&d), three.apply(&d));
        assert_eq!(one.generation(), 1);
        assert_eq!(three.generation(), 1);
        assert_eq!(one.entity_count(), three.entity_count());
        assert_eq!(
            one.entity("Backend_Fresh_Entity"),
            three.entity("Backend_Fresh_Entity")
        );
        // the one-shard store splices the minted entity in place; the
        // partition grows a trailing shard for it
        assert_eq!(one.shard_count(), 1);
        assert_eq!(one.trailing_shard_count(), 0);
        assert_eq!(one.shard(0).owned_count(), one.entity_count());
        assert_eq!(three.trailing_shard_count(), 1);
        let policy = CompactionPolicy {
            max_trailing: 0,
            max_tail_fraction: 1.0,
            max_tombstone_fraction: 1.0,
        };
        assert!(!policy.needs_compaction(&one));
        assert!(policy.needs_compaction(&three));
        assert_eq!(one.fingerprint(), three.fingerprint());
    }

    /// Compaction re-partitions either store to the target and keeps
    /// the logical graph.
    #[test]
    fn compact_is_identity_on_single_and_repartitions_sharded() {
        let kg = generate(&DatagenConfig::tiny());
        let d = delta(&kg);
        let mut sharded = GraphBackend::from_graph(&kg, 2);
        sharded.apply(&d);
        let compacted = sharded.compact(2);
        assert_eq!(compacted.trailing_shard_count(), 0);
        assert_eq!(compacted.generation(), sharded.generation() + 1);
        assert_eq!(compacted.compaction_epoch(), 1);

        let one = GraphBackend::from(kg.clone());
        let same = one.compact(1);
        assert_eq!(same.shard_count(), 1);
        assert_eq!(same.triple_count(), one.triple_count());
        assert_eq!(same.fingerprint(), one.fingerprint());
        assert_eq!(
            crate::ntriples::serialize(&same.to_graph()),
            crate::ntriples::serialize(&kg)
        );
    }

    /// Every partition of one logical graph saves the same snapshot
    /// bytes, and a loaded snapshot partitions back to it.
    #[test]
    fn snapshot_entry_points_agree_across_layouts() {
        let kg = generate(&DatagenConfig::tiny());
        let one = GraphBackend::from(kg.clone());
        let three = GraphBackend::from_graph(&kg, 3);
        let dir = std::env::temp_dir();
        let p1 = dir.join(format!("pivote_backend_one_{}.pvte", std::process::id()));
        let p3 = dir.join(format!("pivote_backend_three_{}.pvte", std::process::id()));
        crate::snapshot::save_to_path(&one.to_graph(), &p1).unwrap();
        crate::snapshot::save_to_path(&three.to_graph(), &p3).unwrap();
        assert_eq!(
            std::fs::read(&p1).unwrap(),
            std::fs::read(&p3).unwrap(),
            "every partition must snapshot the same logical graph bytes"
        );
        let loaded = GraphBackend::from(crate::snapshot::load_from_path(&p1).unwrap());
        assert_eq!(loaded.entity_count(), kg.entity_count());
        assert_eq!(loaded.fingerprint(), three.fingerprint());
        assert_eq!(
            crate::ntriples::serialize(&loaded.to_graph()),
            crate::ntriples::serialize(&kg)
        );
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p3);
    }
}
