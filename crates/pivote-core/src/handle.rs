//! [`GraphHandle`] — the handle every query engine holds.
//!
//! Every query engine in the workspace (ranker, expander, heat map,
//! explanations, sessions, baselines, eval harness) holds a
//! [`GraphHandle`]: a cheap-to-clone `Arc` around the one query context,
//! [`ShardedContext`], over a [`ShardedGraph`]. Clones share every
//! memoized density and extent. The handle exposes two API families:
//!
//! - the **query API** (`rank_features`, `rank_entities_top_k`,
//!   `p_feature_given_entity`, …) of the context it dereferences to, and
//! - the few graph lookups that add logic over global entity ids
//!   (`feature_display`, `for_each_edge`, `neighbours`); plain lookups
//!   (`display_name`, `types_of`, `out_edges`, …) are the store's own,
//!   through [`ShardedContext::graph`], so engines never deal with
//!   shards either way.

use crate::context::SharedCache;
use crate::feature::SemanticFeature;
use crate::sharded::ShardedContext;
use pivote_kg::{EntityId, PredicateId, ShardedGraph, TypeId};
use std::sync::Arc;

/// A handle to one graph and its query context. Cheap to clone (`Arc`
/// inside); all memoized state is shared between clones.
#[derive(Clone)]
pub struct GraphHandle<'g> {
    ctx: Arc<ShardedContext<'g>>,
}

impl<'g> std::ops::Deref for GraphHandle<'g> {
    type Target = ShardedContext<'g>;

    fn deref(&self) -> &ShardedContext<'g> {
        &self.ctx
    }
}

impl<'g> GraphHandle<'g> {
    /// Handle over `sg` with a fresh context, one worker per core.
    pub fn new(sg: &'g ShardedGraph) -> Self {
        Self::from_context(ShardedContext::new(sg))
    }

    /// Handle over `sg` with an explicit worker-thread count.
    pub fn with_threads(sg: &'g ShardedGraph, threads: usize) -> Self {
        Self::from_context(ShardedContext::with_threads(sg, threads))
    }

    /// Handle over `sg` whose context shares an existing [`SharedCache`].
    pub fn with_cache(sg: &'g ShardedGraph, threads: usize, cache: Arc<SharedCache>) -> Self {
        Self::from_context(ShardedContext::with_cache(sg, threads, cache))
    }

    /// Handle over `sg` whose context trusts `cache` only while it is at
    /// `generation` — a prepared snapshot's handle, built after later
    /// writes may have moved the cache on.
    pub(crate) fn at_generation(
        sg: &'g ShardedGraph,
        threads: usize,
        cache: Arc<SharedCache>,
        generation: u64,
    ) -> Self {
        Self::from_context(ShardedContext::at_generation(
            sg, threads, cache, generation,
        ))
    }

    fn from_context(ctx: ShardedContext<'g>) -> Self {
        Self { ctx: Arc::new(ctx) }
    }

    // ---- semantic features over the handle -----------------------------

    /// Render a feature in the paper's `anchor:predicate` notation,
    /// through the anchor's home shard (whose names and dictionaries
    /// match the global graph).
    pub fn feature_display(&self, sf: SemanticFeature) -> String {
        let (shard, local) = self.graph().home(sf.anchor);
        SemanticFeature {
            anchor: local,
            ..sf
        }
        .display(shard.graph())
    }

    // ---- graph lookups over the handle ---------------------------------
    //
    // Plain lookups go through `handle.graph()`, the store itself; the
    // handle keeps only what adds logic, plus the three lookups the
    // stand-alone harness under `benchmark/` calls on it.

    /// Resolve an entity by name.
    pub fn entity(&self, name: &str) -> Option<EntityId> {
        self.graph().entity(name)
    }

    /// The canonical name of an entity.
    pub fn entity_name(&self, e: EntityId) -> &'g str {
        self.graph().entity_name(e)
    }

    /// Resolve a type by name.
    pub fn type_id(&self, name: &str) -> Option<TypeId> {
        self.graph().type_id(name)
    }

    /// Visit every edge of `e` — outgoing `(p, object)` pairs first, then
    /// incoming `(p, subject)` pairs — without allocating. This is the
    /// hot-loop variant of [`ShardedGraph::out_edges`]/[`ShardedGraph::in_edges`]
    /// for per-iteration graph scatters (e.g. the PPR power iteration);
    /// visit order within a direction is shard-local target order.
    pub fn for_each_edge(&self, e: EntityId, mut visit: impl FnMut(PredicateId, EntityId)) {
        let (shard, local) = self.graph().home(e);
        for (p, o) in shard.graph().out_edges(local) {
            visit(p, shard.to_global(o));
        }
        for (p, s) in shard.graph().in_edges(local) {
            visit(p, shard.to_global(s));
        }
    }

    /// Sorted, deduplicated neighbour ids of `e` (both directions, any
    /// predicate) — identical at every shard count.
    pub fn neighbours(&self, e: EntityId) -> Vec<EntityId> {
        let mut out = Vec::new();
        self.for_each_edge(e, |_, n| out.push(n));
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_kg::{generate, DatagenConfig};

    /// The lookup API over a one-shard store and over a three-shard
    /// partition both answer what the graph itself says.
    #[test]
    fn both_backends_answer_the_lookup_api_identically() {
        let kg = generate(&DatagenConfig::tiny());
        let one = ShardedGraph::from(kg.clone());
        let sg = ShardedGraph::from_graph(&kg, 3);
        let single = GraphHandle::with_threads(&one, 1);
        let sharded = GraphHandle::with_threads(&sg, 1);
        assert_eq!(single.graph().entity_count(), kg.entity_count());
        assert_eq!(sharded.graph().entity_count(), kg.entity_count());
        assert_eq!(single.graph().type_count(), sharded.graph().type_count());
        for e in kg.entity_ids().take(80) {
            assert_eq!(single.entity_name(e), kg.entity_name(e));
            assert_eq!(single.entity_name(e), sharded.entity_name(e));
            assert_eq!(
                single.graph().display_name(e),
                sharded.graph().display_name(e)
            );
            assert!(single.graph().types_of(e).eq(sharded.graph().types_of(e)));
            assert!(single
                .graph()
                .categories_of(e)
                .eq(sharded.graph().categories_of(e)));
            assert_eq!(single.graph().degree(e), sharded.graph().degree(e));
            assert_eq!(single.neighbours(e), sharded.neighbours(e));
            assert_eq!(single.features_of(e), pivote_features(&kg, e));
            assert_eq!(single.features_of(e), sharded.features_of(e));
            for sf in single.features_of(e).into_iter().take(4) {
                assert_eq!(single.feature_extent_len(sf), sf.extent_size(&kg));
                assert_eq!(
                    single.feature_extent_len(sf),
                    sharded.feature_extent_len(sf)
                );
                assert_eq!(single.feature_extent(sf).as_ref(), sf.extent(&kg));
                assert_eq!(
                    single.feature_extent(sf).as_ref(),
                    sharded.feature_extent(sf).as_ref()
                );
                assert_eq!(single.feature_display(sf), sf.display(&kg));
                assert_eq!(single.feature_display(sf), sharded.feature_display(sf));
            }
        }
        for t in kg.type_ids() {
            assert_eq!(one.type_extent(t), kg.type_extent(t));
            assert_eq!(sg.type_extent(t), kg.type_extent(t));
            assert_eq!(
                single.graph().type_extent_len(t),
                sharded.graph().type_extent_len(t)
            );
            assert_eq!(single.graph().type_name(t), sharded.graph().type_name(t));
        }
    }

    fn pivote_features(kg: &pivote_kg::KnowledgeGraph, e: EntityId) -> Vec<SemanticFeature> {
        crate::feature::features_of(kg, e)
    }
}
