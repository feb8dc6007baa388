//! # pivote-baselines — comparison systems for the PivotE experiments
//!
//! The paper positions PivotE against keyword/SPARQL entity search
//! systems (§4) and builds its recommendations on the set-expansion work
//! of \[1\]/\[6\]. To give the reproduction a measurable comparison shape,
//! this crate implements the standard entity-set-expansion baselines
//! behind one trait:
//!
//! - [`JaccardExpansion`] — neighbour-set Jaccard similarity;
//! - [`PprExpansion`] — personalized PageRank (random walk with restart);
//! - [`FreqOverlapExpansion`] — raw shared-feature counting;
//! - [`PivotEExpansion`] — the paper's model ([`pivote_core`]) adapted to
//!   the same trait for side-by-side evaluation.
//!
//! Every method executes through the shared [`GraphHandle`] substrate —
//! [`EntityExpansion::expand_in`] — so candidate scoring parallelizes
//! through the same scoped-thread fan-out, top-k selection uses the same
//! bounded heap, the PivotE variants reuse the memoized `p(π|c)`
//! densities, and every baseline runs unchanged (and bit-identically) at
//! any shard count.
//! [`EntityExpansion::expand`] is a convenience wrapper constructing a
//! private context; the evaluation harness builds one handle per graph
//! and shares it across all methods and ablations.
//!
//! The keyword-search baseline (BM25F) lives in `pivote-search` as
//! `Scorer::Bm25`.

#![warn(missing_docs)]

pub mod freq;
pub mod jaccard;
pub mod ppr;

use pivote_core::{Expander, GraphHandle, RankingConfig};
use pivote_kg::{EntityId, ShardedGraph};

pub use freq::FreqOverlapExpansion;
pub use jaccard::JaccardExpansion;
pub use ppr::PprExpansion;

/// A seed-set entity expansion method.
pub trait EntityExpansion {
    /// Short identifier used in experiment tables.
    fn name(&self) -> &'static str;

    /// Top-`k` entities similar to `seeds`, best first, seeds excluded,
    /// executed on a shared [`GraphHandle`] (results are identical at
    /// every shard count).
    fn expand_in(
        &self,
        handle: &GraphHandle<'_>,
        seeds: &[EntityId],
        k: usize,
    ) -> Vec<(EntityId, f64)>;

    /// [`EntityExpansion::expand_in`] with a fresh private context.
    fn expand(&self, sg: &ShardedGraph, seeds: &[EntityId], k: usize) -> Vec<(EntityId, f64)> {
        self.expand_in(&GraphHandle::new(sg), seeds, k)
    }
}

/// Order scored candidates best-first — `(score desc, id asc)` — keeping
/// only the top `k`, via the context's bounded-heap selection.
pub(crate) fn select_top_k(
    scored: impl Iterator<Item = (EntityId, f64)>,
    k: usize,
) -> Vec<(EntityId, f64)> {
    pivote_core::top_k_ranked(scored, k, |&(_, s)| s, |a, b| a.0.cmp(&b.0))
}

/// The paper's ranking model behind the common baseline trait.
#[derive(Debug, Clone, Copy)]
pub struct PivotEExpansion {
    /// The ranking configuration (use the ablation builders of
    /// [`RankingConfig`] to produce A1/A2 variants).
    pub config: RankingConfig,
    /// Display name (to distinguish ablations in tables).
    pub label: &'static str,
}

impl Default for PivotEExpansion {
    fn default() -> Self {
        Self {
            config: RankingConfig::default(),
            label: "pivote",
        }
    }
}

impl PivotEExpansion {
    /// The A1 ablation (no error tolerance).
    pub fn without_error_tolerance() -> Self {
        Self {
            config: RankingConfig::default().without_error_tolerance(),
            label: "pivote-noet",
        }
    }

    /// The A2 ablation (no discriminability).
    pub fn without_discriminability() -> Self {
        Self {
            config: RankingConfig::default().without_discriminability(),
            label: "pivote-nod",
        }
    }
}

impl EntityExpansion for PivotEExpansion {
    fn name(&self) -> &'static str {
        self.label
    }

    fn expand_in(
        &self,
        handle: &GraphHandle<'_>,
        seeds: &[EntityId],
        k: usize,
    ) -> Vec<(EntityId, f64)> {
        // the context's p(π|c) cache is config-independent, so ablation
        // variants sharing one context share all memoized densities
        let expander = Expander::with_handle(handle.clone(), self.config);
        expander
            .expand_seeds(seeds, k, 0)
            .entities
            .into_iter()
            .map(|re| (re.entity, re.score))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_kg::{generate, DatagenConfig};

    #[test]
    fn all_baselines_run_on_generated_kg() {
        let kg = generate(&DatagenConfig::tiny());
        let film = kg.type_id("Film").unwrap();
        let seeds = &kg.type_extent(film)[..2];
        let methods: Vec<Box<dyn EntityExpansion>> = vec![
            Box::new(JaccardExpansion),
            Box::new(PprExpansion::default()),
            Box::new(FreqOverlapExpansion),
            Box::new(PivotEExpansion::default()),
        ];
        for m in &methods {
            let out = m.expand(&ShardedGraph::from(kg.clone()), seeds, 5);
            assert!(!out.is_empty(), "{} returned nothing", m.name());
            assert!(out.len() <= 5);
            assert!(
                out.windows(2).all(|w| w[0].1 >= w[1].1),
                "{} not sorted",
                m.name()
            );
            assert!(
                out.iter().all(|(e, _)| !seeds.contains(e)),
                "{} leaked a seed",
                m.name()
            );
        }
    }

    #[test]
    fn shared_context_matches_private_context() {
        let kg = generate(&DatagenConfig::tiny());
        let film = kg.type_id("Film").unwrap();
        let seeds = &kg.type_extent(film)[..2];
        let sg = ShardedGraph::from(kg.clone());
        let shared = GraphHandle::new(&sg);
        let methods: Vec<Box<dyn EntityExpansion>> = vec![
            Box::new(JaccardExpansion),
            Box::new(PprExpansion::default()),
            Box::new(FreqOverlapExpansion),
            Box::new(PivotEExpansion::default()),
            Box::new(PivotEExpansion::without_error_tolerance()),
            Box::new(PivotEExpansion::without_discriminability()),
        ];
        for m in &methods {
            let private = m.expand(&sg, seeds, 5);
            let through_shared = m.expand_in(&shared, seeds, 5);
            assert_eq!(
                private.len(),
                through_shared.len(),
                "{} result size changed under a shared context",
                m.name()
            );
            for (a, b) in private.iter().zip(&through_shared) {
                assert_eq!(a.0, b.0, "{} entity order diverged", m.name());
                assert!((a.1 - b.1).abs() < 1e-12, "{} score diverged", m.name());
            }
        }
    }

    #[test]
    fn ablation_labels_differ() {
        assert_eq!(PivotEExpansion::default().name(), "pivote");
        assert_eq!(
            PivotEExpansion::without_error_tolerance().name(),
            "pivote-noet"
        );
        assert_eq!(
            PivotEExpansion::without_discriminability().name(),
            "pivote-nod"
        );
    }
}
