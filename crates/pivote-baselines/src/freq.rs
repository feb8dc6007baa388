//! Feature-overlap frequency baseline.
//!
//! Scores a candidate by the *count* of semantic features it shares with
//! the seed set — PivotE's candidate machinery without discriminability
//! weighting or error tolerance. Isolates the contribution of the
//! ranking model itself (every candidate here is scored by raw overlap).

use crate::{select_top_k, EntityExpansion};
use pivote_core::GraphHandle;
use pivote_kg::EntityId;
use std::collections::HashMap;

/// The raw-overlap baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct FreqOverlapExpansion;

impl EntityExpansion for FreqOverlapExpansion {
    fn name(&self) -> &'static str {
        "freq-overlap"
    }

    fn expand_in(
        &self,
        handle: &GraphHandle<'_>,
        seeds: &[EntityId],
        k: usize,
    ) -> Vec<(EntityId, f64)> {
        if seeds.is_empty() || k == 0 {
            return Vec::new();
        }
        // count, per candidate, how many of the seeds' features it has
        let mut counts: HashMap<EntityId, f64> = HashMap::new();
        let mut seed_features: Vec<pivote_core::SemanticFeature> =
            seeds.iter().flat_map(|&s| handle.features_of(s)).collect();
        seed_features.sort_unstable();
        seed_features.dedup();
        for sf in seed_features {
            for &e in handle.feature_extent(sf).as_ref() {
                *counts.entry(e).or_default() += 1.0;
            }
        }
        select_top_k(counts.into_iter().filter(|(e, _)| !seeds.contains(e)), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_kg::{KgBuilder, ShardedGraph};

    #[test]
    fn counts_shared_features() {
        let mut b = KgBuilder::new();
        let f1 = b.entity("f1");
        let f2 = b.entity("f2");
        let f3 = b.entity("f3");
        let a = b.entity("A");
        let bb = b.entity("B");
        let starring = b.predicate("starring");
        b.triple(f1, starring, a);
        b.triple(f1, starring, bb);
        b.triple(f2, starring, a);
        b.triple(f2, starring, bb);
        b.triple(f3, starring, bb);
        let kg = b.finish();
        let f1 = kg.entity("f1").unwrap();
        let out = FreqOverlapExpansion.expand(&ShardedGraph::from(kg.clone()), &[f1], 10);
        assert_eq!(out[0].0, kg.entity("f2").unwrap());
        assert_eq!(out[0].1, 2.0); // shares A and B
        let f3_entry = out
            .iter()
            .find(|&&(e, _)| e == kg.entity("f3").unwrap())
            .unwrap();
        assert_eq!(f3_entry.1, 1.0);
    }

    #[test]
    fn empty_inputs() {
        let kg = KgBuilder::new().finish();
        assert!(FreqOverlapExpansion
            .expand(&ShardedGraph::from(kg.clone()), &[], 5)
            .is_empty());
    }
}
