//! Jaccard neighbour-overlap baseline.
//!
//! Scores a candidate by the average Jaccard similarity between its
//! neighbour set and each seed's neighbour set — the classic
//! structure-only set-expansion heuristic that ignores predicates,
//! directions and extent statistics. PivotE's semantic features should
//! beat it exactly where relation semantics matter.

use crate::{select_top_k, EntityExpansion};
use pivote_core::extent::intersect_len;
use pivote_core::GraphHandle;
use pivote_kg::EntityId;

/// The Jaccard baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct JaccardExpansion;

impl EntityExpansion for JaccardExpansion {
    fn name(&self) -> &'static str {
        "jaccard"
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
        let seed_neigh: Vec<Vec<EntityId>> = seeds.iter().map(|&s| handle.neighbours(s)).collect();
        // candidates: 2-hop — entities adjacent to any seed neighbour
        let mut candidates: Vec<EntityId> = Vec::new();
        for n in &seed_neigh {
            for &mid in n {
                candidates.extend(handle.neighbours(mid));
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates.retain(|c| !seeds.contains(c));

        // per-candidate similarity is pure — fan it out over the context's
        // scoped worker threads; |A ∪ B| = |A| + |B| − |A ∩ B| avoids materializing
        // the union
        let scored = handle.par_map(&candidates, |&c| {
            let cn = handle.neighbours(c);
            let mut total = 0.0;
            for sn in &seed_neigh {
                let inter = intersect_len(&cn, sn) as f64;
                let uni = cn.len() as f64 + sn.len() as f64 - inter;
                if uni > 0.0 {
                    total += inter / uni;
                }
            }
            (c, total / seed_neigh.len() as f64)
        });
        select_top_k(scored.into_iter().filter(|&(_, s)| s > 0.0), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_kg::{KgBuilder, KnowledgeGraph, ShardedGraph};

    fn kg() -> KnowledgeGraph {
        // f1, f2 share both actors; f3 shares one.
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
        b.finish()
    }

    #[test]
    fn closer_neighbourhood_ranks_higher() {
        let kg = kg();
        let f1 = kg.entity("f1").unwrap();
        let out = JaccardExpansion.expand(&ShardedGraph::from(kg.clone()), &[f1], 10);
        assert_eq!(out[0].0, kg.entity("f2").unwrap());
        assert!(out[0].1 > 0.9, "f2 shares the full neighbourhood");
        let f3_pos = out
            .iter()
            .position(|&(e, _)| e == kg.entity("f3").unwrap())
            .unwrap();
        assert!(f3_pos > 0);
    }

    #[test]
    fn seeds_are_excluded_and_k_respected() {
        let kg = kg();
        let f1 = kg.entity("f1").unwrap();
        let out = JaccardExpansion.expand(&ShardedGraph::from(kg.clone()), &[f1], 1);
        assert_eq!(out.len(), 1);
        assert!(out.iter().all(|&(e, _)| e != f1));
    }

    #[test]
    fn empty_inputs() {
        let kg = kg();
        assert!(JaccardExpansion
            .expand(&ShardedGraph::from(kg.clone()), &[], 5)
            .is_empty());
        let f1 = kg.entity("f1").unwrap();
        assert!(JaccardExpansion
            .expand(&ShardedGraph::from(kg.clone()), &[f1], 0)
            .is_empty());
    }
}
