//! Personalized PageRank baseline.
//!
//! Random-walk-with-restart from the seed set over the undirected entity
//! graph — the standard graph-proximity recommender. It captures
//! connectivity but not the *semantics* of relations: a film and its
//! shooting location can outrank a film with the same cast.

use crate::{select_top_k, EntityExpansion};
use pivote_core::GraphHandle;
use pivote_kg::{EntityId, ShardedGraph};

/// Personalized PageRank via power iteration.
#[derive(Debug, Clone, Copy)]
pub struct PprExpansion {
    /// Restart probability (teleport to seeds).
    pub alpha: f64,
    /// Number of power iterations.
    pub iterations: usize,
}

impl Default for PprExpansion {
    fn default() -> Self {
        Self {
            alpha: 0.15,
            iterations: 20,
        }
    }
}

impl PprExpansion {
    /// Full PPR vector over all entities (indexed by raw entity id),
    /// computed on a fresh private context over `sg`.
    pub fn scores(&self, sg: &ShardedGraph, seeds: &[EntityId]) -> Vec<f64> {
        self.scores_in(&GraphHandle::new(sg), seeds)
    }

    /// Full PPR vector over all entities. Edge rows come from each
    /// entity's home shard (complete at any shard count), so the mass
    /// distribution is identical at every shard count.
    pub fn scores_in(&self, handle: &GraphHandle<'_>, seeds: &[EntityId]) -> Vec<f64> {
        let n = handle.graph().entity_count();
        let mut rank = vec![0.0f64; n];
        if n == 0 || seeds.is_empty() {
            return rank;
        }
        let restart = 1.0 / seeds.len() as f64;
        for &s in seeds {
            rank[s.index()] = restart;
        }
        let mut next = vec![0.0f64; n];
        for _ in 0..self.iterations {
            next.iter_mut().for_each(|v| *v = 0.0);
            let mut dangling = 0.0;
            for e in handle.graph().entity_ids() {
                let r = rank[e.index()];
                if r == 0.0 {
                    continue;
                }
                let deg = handle.graph().degree(e);
                if deg == 0 {
                    dangling += r;
                    continue;
                }
                let share = (1.0 - self.alpha) * r / deg as f64;
                // zero-alloc scatter: per-target sums are invariant to the
                // visit order (all of e's shares are the same value), so
                // every shard count produces identical mass
                handle.for_each_edge(e, |_, n| next[n.index()] += share);
            }
            // teleport mass: restart probability plus dangling mass
            let teleport = self.alpha + (1.0 - self.alpha) * dangling;
            for &s in seeds {
                next[s.index()] += teleport * restart;
            }
            std::mem::swap(&mut rank, &mut next);
        }
        rank
    }
}

impl EntityExpansion for PprExpansion {
    fn name(&self) -> &'static str {
        "ppr"
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
        // power iteration is a sequential global scatter; only the final
        // selection runs through the context's bounded heap
        let scores = self.scores_in(handle, seeds);
        select_top_k(
            scores.iter().enumerate().filter_map(|(i, &s)| {
                let e = EntityId::new(i as u32);
                (s > 0.0 && !seeds.contains(&e)).then_some((e, s))
            }),
            k,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_kg::{KgBuilder, KnowledgeGraph};

    fn kg() -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        let f1 = b.entity("f1");
        let f2 = b.entity("f2");
        let far = b.entity("far");
        let a = b.entity("A");
        let x = b.entity("x");
        let p = b.predicate("p");
        b.triple(f1, p, a);
        b.triple(f2, p, a);
        b.triple(far, p, x);
        b.finish()
    }

    #[test]
    fn mass_concentrates_near_seeds() {
        let kg = kg();
        let f1 = kg.entity("f1").unwrap();
        let out = PprExpansion::default().expand(&ShardedGraph::from(kg.clone()), &[f1], 10);
        assert!(!out.is_empty());
        // A (direct neighbour) first, then f2 (2 hops), far unreachable
        assert_eq!(out[0].0, kg.entity("A").unwrap());
        let names: Vec<&str> = out.iter().map(|&(e, _)| kg.entity_name(e)).collect();
        assert!(!names.contains(&"far"));
        assert!(!names.contains(&"x"));
    }

    #[test]
    fn scores_form_probability_like_mass() {
        let kg = kg();
        let f1 = kg.entity("f1").unwrap();
        let scores = PprExpansion::default().scores(&ShardedGraph::from(kg.clone()), &[f1]);
        let total: f64 = scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "mass conserved, got {total}");
        assert!(scores.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn empty_seed_set() {
        let kg = kg();
        assert!(PprExpansion::default()
            .expand(&ShardedGraph::from(kg.clone()), &[], 5)
            .is_empty());
    }

    #[test]
    fn dangling_nodes_do_not_lose_mass() {
        let mut b = KgBuilder::new();
        let a = b.entity("a");
        let sink = b.entity("sink");
        let p = b.predicate("p");
        b.triple(a, p, sink);
        let kg = b.finish();
        // sink has degree 1 (incoming counts), so make a true dangling case:
        // a graph where the seed is isolated.
        let scores = PprExpansion::default().scores(&ShardedGraph::from(kg.clone()), &[a]);
        let total: f64 = scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }
}
