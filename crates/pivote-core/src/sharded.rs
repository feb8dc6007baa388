//! The query context: the one execution substrate of the ranking model.
//!
//! [`ShardedContext`] runs every model quantity — `d(π)`, `c(π,Q)`,
//! `p(π|c)` smoothing, candidate gathering, scoring and top-k
//! selection — over a [`ShardedGraph`], whatever its shard count: a
//! parsed graph wrapped by move is one shard, a partition is many, and
//! the answers are **bit-identical** either way, because global model
//! quantities decompose exactly over the range partition
//! (`pivote_kg::shard` documents the invariants):
//!
//! - `‖E(π)‖ = Σᵢ ‖Eᵢ(π) ∩ rangeᵢ‖` — integer sums, so
//!   `d(π) = 1/‖E(π)‖` is the same `f64` at every shard count;
//! - `p(π|c) = (Σᵢ ‖Eᵢ(π) ∩ Eᵢ(c)‖) / (Σᵢ ‖Eᵢ(c)‖)` — per-shard context
//!   extents are owned-only, so the partial intersections are disjoint
//!   and the numerator/denominator are the exact global integers;
//! - `e ⊨ π` is a binary search in `e`'s home shard, which stores every
//!   triple incident to `e`.
//!
//! Entity scoring fans the candidates out over the context's worker
//! threads (each candidate is scored in its home shard against the
//! shared global probability cache) and keeps one bounded top-k under
//! the total order `(score desc, entity-id asc)` — so the result equals
//! a global sort-then-truncate, deterministically, for any shard count,
//! thread count and `k` (including `k` larger than the candidate count
//! and shards that own no candidates at all).
//!
//! Engines hold the context through a [`GraphHandle`](crate::GraphHandle)
//! (an `Arc` around it), so one context — and its memoized state —
//! serves every engine and every worker thread of a query session.

use crate::config::RankingConfig;
use crate::context::{par_map_slice, prob_key, top_k_ranked, Ctx, DenseKeyHasher, SharedCache};
use crate::extent::{intersect_len, union_k};
use crate::feature::{features_of, SemanticFeature};
use crate::ranking::{RankedEntity, RankedFeature};
use pivote_kg::{CategoryId, EntityId, KnowledgeGraph, ShardedGraph, TypeId};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, OnceLock, RwLock};

/// A feature resolved against every shard.
struct FeatureEntry<'g> {
    /// Per shard: the feature's local extent slice (empty when the anchor
    /// is not present in that shard).
    extents: Vec<&'g [EntityId]>,
    /// Per shard: length of the owned prefix, `‖E(π) ∩ rangeᵢ‖`.
    owned_lens: Vec<usize>,
    /// `‖E(π)‖ = Σᵢ owned_lens[i]`.
    global_len: usize,
    /// The materialized global extent, filled on first use — candidate
    /// gathering over popular features re-reads it instead of re-running
    /// the per-shard remap every query.
    global: OnceLock<Arc<[EntityId]>>,
}

/// Per-context feature resolutions over the shard set, keyed by the
/// shared cache's dense feature ids — sized by the features this context
/// touches, not by the shared registry.
type FeatureTable<'g> = HashMap<u32, Arc<FeatureEntry<'g>>, BuildHasherDefault<DenseKeyHasher>>;

/// A top feature resolved for one candidate-scoring pass: the dense id
/// keys the shared probability cache, the entry snapshot serves the
/// per-candidate match check without re-taking the interner lock.
struct ResolvedFeature<'g> {
    fid: u32,
    score: f64,
    entry: Arc<FeatureEntry<'g>>,
}

/// The shared, memoized execution substrate over a [`ShardedGraph`].
///
/// Cheap to construct; all interior state is lazily filled and
/// thread-safe, so one context (behind an [`std::sync::Arc`]) serves
/// every engine and every concurrent session.
pub struct ShardedContext<'g> {
    sg: &'g ShardedGraph,
    threads: usize,
    /// Shared (possibly cross-context, append-surviving) memoized state:
    /// the feature-id registry and the global `p(π|c)` cache (values are
    /// exact global quantities, independent of shard count and
    /// `RankingConfig`).
    cache: Arc<SharedCache>,
    /// The cache generation this context trusts. While the cache is
    /// still at it, its entries are exact for this context's graph; once
    /// it moves (a write invalidated behind our back — only possible
    /// for contexts running off the store lock, such as a prepared
    /// snapshot's) this context computes locally and neither trusts nor
    /// writes the shared maps.
    trust_gen: u64,
    features: RwLock<FeatureTable<'g>>,
}

impl<'g> ShardedContext<'g> {
    /// Context over `sg` with one worker per available core.
    pub fn new(sg: &'g ShardedGraph) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(sg, threads)
    }

    /// Context with an explicit worker-thread count (`0` clamps to 1).
    pub fn with_threads(sg: &'g ShardedGraph, threads: usize) -> Self {
        Self::with_cache(sg, threads, Arc::new(SharedCache::new()))
    }

    /// Context on an existing [`SharedCache`] — the live-graph entry
    /// point: every density the cache already holds (from earlier
    /// queries, earlier sessions, or earlier graph generations whose
    /// extents were not touched since) is a hit for this context.
    pub fn with_cache(sg: &'g ShardedGraph, threads: usize, cache: Arc<SharedCache>) -> Self {
        let generation = cache.generation();
        Self::at_generation(sg, threads, cache, generation)
    }

    /// Context on `cache` that trusts it only while it is at
    /// `generation`, the one at which its entries are exact for `sg`.
    pub(crate) fn at_generation(
        sg: &'g ShardedGraph,
        threads: usize,
        cache: Arc<SharedCache>,
        generation: u64,
    ) -> Self {
        Self {
            sg,
            threads: threads.max(1),
            cache,
            trust_gen: generation,
            features: RwLock::new(FeatureTable::default()),
        }
    }

    /// The sharded graph this context reads.
    #[inline]
    pub fn graph(&self) -> &'g ShardedGraph {
        self.sg
    }

    /// Number of cached `p(π|c)` probabilities (diagnostics).
    pub fn cached_probability_count(&self) -> usize {
        self.cache.cached_probability_count()
    }

    // ---- feature interning ---------------------------------------------

    /// Intern a (global-id) feature, resolving its per-shard extents and
    /// the exact global extent size on first sight.
    fn intern(&self, sf: SemanticFeature) -> u32 {
        let fid = self.cache.feature_id(sf);
        self.ensure_entry(fid, sf);
        fid
    }

    /// This context's resolution of feature `fid` against the shard set,
    /// resolving lazily (ids can arrive from sibling contexts sharing the
    /// cache).
    fn entry(&self, fid: u32) -> Arc<FeatureEntry<'g>> {
        self.resolved(fid)
            .unwrap_or_else(|| self.ensure_entry(fid, self.cache.feature(fid)))
    }

    /// This context's resolution of `fid`, if it has one yet.
    fn resolved(&self, fid: u32) -> Option<Arc<FeatureEntry<'g>>> {
        let table = self.features.read().expect("feature table poisoned");
        table.get(&fid).cloned()
    }

    fn ensure_entry(&self, fid: u32, sf: SemanticFeature) -> Arc<FeatureEntry<'g>> {
        if let Some(entry) = self.resolved(fid) {
            return entry;
        }
        // resolve outside the write lock; double-check after acquiring
        let shards = self.sg.shards();
        let mut extents: Vec<&'g [EntityId]> = Vec::with_capacity(shards.len());
        let mut owned_lens = Vec::with_capacity(shards.len());
        let mut global_len = 0usize;
        for shard in shards {
            let extent: &'g [EntityId] = match shard.to_local(sf.anchor) {
                Some(local) => SemanticFeature {
                    anchor: local,
                    ..sf
                }
                .extent(shard.graph()),
                None => &[],
            };
            let owned = shard.owned_prefix_len(extent);
            global_len += owned;
            extents.push(extent);
            owned_lens.push(owned);
        }
        let mut table = self.features.write().expect("feature table poisoned");
        let entry = table.entry(fid).or_insert_with(|| {
            Arc::new(FeatureEntry {
                extents,
                owned_lens,
                global_len,
                global: OnceLock::new(),
            })
        });
        Arc::clone(entry)
    }

    /// `‖E(π)‖` — the exact global extent size.
    pub fn feature_extent_len(&self, sf: SemanticFeature) -> usize {
        self.entry(self.intern(sf)).global_len
    }

    /// The global extent `E(π)`, sorted by global entity id: per-shard
    /// owned prefixes remapped and concatenated in shard order. Shared
    /// and memoized — the remap runs at most once per feature *per
    /// cache*, not per
    /// context: resolutions are promoted to the [`SharedCache`]'s global
    /// extent registry, so a fresh context over the same logical graph
    /// (a new read guard, a new prepared snapshot) reuses the `Arc`
    /// instead of re-running the per-shard remap. The registry is
    /// invalidated receipt-exactly when a delta touches the feature's
    /// extent and survives compaction (global ids are partition-
    /// independent).
    pub fn feature_extent(&self, sf: SemanticFeature) -> Arc<[EntityId]> {
        let fid = self.intern(sf);
        let entry = self.entry(fid);
        entry
            .global
            .get_or_init(|| {
                // seqlock-style validity check — see `p_by_fid`
                if let Some(shared) = self.cache.extent_get(fid) {
                    if self.cache.generation() == self.trust_gen {
                        return shared;
                    }
                }
                let mut out = Vec::with_capacity(entry.global_len);
                for ((shard, &extent), &owned) in self
                    .sg
                    .shards()
                    .iter()
                    .zip(&entry.extents)
                    .zip(&entry.owned_lens)
                {
                    out.extend(extent[..owned].iter().map(|&e| shard.to_global(e)));
                }
                let out: Arc<[EntityId]> = out.into();
                self.cache
                    .extent_insert_if_current(fid, Arc::clone(&out), self.trust_gen);
                out
            })
            .clone()
    }

    /// Whether `e ⊨ π` — a binary search in `e`'s home shard.
    pub fn feature_matches(&self, sf: SemanticFeature, e: EntityId) -> bool {
        let entry = self.entry(self.intern(sf));
        let si = self.sg.shard_of(e);
        let local = self.sg.shard(si).to_local(e).expect("owned entity");
        entry.extents[si].binary_search(&local).is_ok()
    }

    /// All semantic features of `e` (global anchors), sorted — identical
    /// at every shard count.
    pub fn features_of(&self, e: EntityId) -> Vec<SemanticFeature> {
        let (shard, local) = self.sg.home(e);
        let mut out: Vec<SemanticFeature> = features_of(shard.graph(), local)
            .into_iter()
            .map(|sf| SemanticFeature {
                anchor: shard.to_global(sf.anchor),
                ..sf
            })
            .collect();
        out.sort_unstable();
        out
    }

    // ---- probability cache ---------------------------------------------

    /// Cached global `p(π|c) = ‖E(π) ∩ E(c)‖ / ‖E(c)‖`, assembled from
    /// exact per-shard partial intersection counts.
    fn p_feature_given_ctx(&self, sf: SemanticFeature, ctx: Ctx) -> f64 {
        self.p_by_fid(self.intern(sf), ctx)
    }

    /// [`ShardedContext::p_feature_given_ctx`] by dense feature id — the
    /// hot-loop entry that skips re-hashing the feature into the
    /// interner.
    #[inline]
    fn p_by_fid(&self, fid: u32, ctx: Ctx) -> f64 {
        let key = prob_key(fid, ctx);
        // seqlock-style validity: the hit is trustworthy only if the
        // cache generation still equals this context's trusted generation
        // *after* the read — otherwise an invalidation ran and the value
        // may belong to a different graph snapshot
        if let Some(p) = self.cache.prob_get(key) {
            if self.cache.generation() == self.trust_gen {
                return p;
            }
        }
        self.p_fill(fid, ctx, key)
    }

    /// The miss half of [`ShardedContext::p_by_fid`]: assemble `p(π|c)`
    /// from the per-shard partial counts and cache it. Kept out of line
    /// so the hit path stays small enough to inline into the smoothing
    /// loop, which runs once per (candidate, feature, context).
    #[cold]
    #[inline(never)]
    fn p_fill(&self, fid: u32, ctx: Ctx, key: u64) -> f64 {
        let entry = self.entry(fid);
        let mut num = 0usize;
        let mut den = 0usize;
        for (gs, &extent) in self.sg.shards().iter().zip(&entry.extents) {
            let ctx_extent = match ctx {
                Ctx::Cat(c) => gs.graph().category_extent(c),
                Ctx::Type(t) => gs.graph().type_extent(t),
            };
            // context extents are owned-only, so the intersection
            // counts exactly the in-range members of E(π)
            den += ctx_extent.len();
            num += intersect_len(extent, ctx_extent);
        }
        let p = if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        };
        self.cache.prob_insert_if_current(key, p, self.trust_gen);
        p
    }

    /// Cached `p(π|c)` for one category context.
    pub fn p_for_category(&self, sf: SemanticFeature, c: CategoryId) -> f64 {
        self.p_feature_given_ctx(sf, Ctx::Cat(c))
    }

    /// Cached `p(π|t)` for one type context.
    pub fn p_for_type(&self, sf: SemanticFeature, t: TypeId) -> f64 {
        self.p_feature_given_ctx(sf, Ctx::Type(t))
    }

    /// `p(π|c*) = max_c p(π|c)` over the categories (and, when configured,
    /// types) of `e` — contexts enumerated from `e`'s home shard in global
    /// dictionary order.
    pub fn p_feature_given_best_context(
        &self,
        config: &RankingConfig,
        sf: SemanticFeature,
        e: EntityId,
    ) -> f64 {
        let (shard, local) = self.sg.home(e);
        self.p_best_ctx_by_fid(config, self.intern(sf), shard.graph(), local)
    }

    /// [`ShardedContext::p_feature_given_best_context`] by dense feature
    /// id (the probability cache and the per-shard extent table are both
    /// fid-indexed, so the smoothing loop never re-interns), for the
    /// entity `local` of its home shard's graph `home`.
    fn p_best_ctx_by_fid(
        &self,
        config: &RankingConfig,
        fid: u32,
        home: &KnowledgeGraph,
        local: EntityId,
    ) -> f64 {
        let mut best = 0.0f64;
        for c in home.categories_of(local) {
            best = best.max(self.p_by_fid(fid, Ctx::Cat(c)));
        }
        if config.use_types_as_context {
            for t in home.types_of(local) {
                best = best.max(self.p_by_fid(fid, Ctx::Type(t)));
            }
        }
        best
    }

    /// `p(π|e)`: 1 for an exact match, otherwise the error-tolerant
    /// context estimate (or 0 when error tolerance is disabled).
    pub fn p_feature_given_entity(
        &self,
        config: &RankingConfig,
        sf: SemanticFeature,
        e: EntityId,
    ) -> f64 {
        if self.feature_matches(sf, e) {
            return 1.0;
        }
        if !config.error_tolerant {
            return 0.0;
        }
        self.p_feature_given_best_context(config, sf, e)
    }

    // ---- ranking model -------------------------------------------------

    /// `d(π)`: inverse global extent size (or 1 under the A2 ablation).
    pub fn discriminability(&self, config: &RankingConfig, sf: SemanticFeature) -> f64 {
        if !config.use_discriminability {
            return 1.0;
        }
        let n = self.feature_extent_len(sf);
        if n == 0 {
            0.0
        } else {
            1.0 / n as f64
        }
    }

    /// `c(π, Q) = ∏_{e∈Q} p(π|e)`.
    pub fn commonality(
        &self,
        config: &RankingConfig,
        sf: SemanticFeature,
        seeds: &[EntityId],
    ) -> f64 {
        let mut c = 1.0;
        for &e in seeds {
            c *= self.p_feature_given_entity(config, sf, e);
            if c == 0.0 {
                break;
            }
        }
        c
    }

    /// The candidate feature pool: the union of the seeds' own features,
    /// filtered by extent size.
    pub fn candidate_features(
        &self,
        config: &RankingConfig,
        seeds: &[EntityId],
    ) -> Vec<SemanticFeature> {
        let mut all: Vec<SemanticFeature> =
            seeds.iter().flat_map(|&e| self.features_of(e)).collect();
        all.sort_unstable();
        all.dedup();
        all.retain(|sf| {
            let n = self.feature_extent_len(*sf);
            n >= config.min_extent.max(1) && n <= config.max_extent
        });
        all
    }

    /// Rank all candidate features of the query: `Φ(Q)` scored by
    /// `r(π, Q)`, descending, zero-scored features dropped. Scoring is
    /// fanned out over the worker threads.
    pub fn rank_features(&self, config: &RankingConfig, seeds: &[EntityId]) -> Vec<RankedFeature> {
        self.rank_features_top_k(config, seeds, usize::MAX)
    }

    /// [`ShardedContext::rank_features`] with bounded heap selection.
    pub fn rank_features_top_k(
        &self,
        config: &RankingConfig,
        seeds: &[EntityId],
        k: usize,
    ) -> Vec<RankedFeature> {
        let candidates = self.candidate_features(config, seeds);
        let scored = par_map_slice(self.threads, &candidates, |&sf| {
            let d = self.discriminability(config, sf);
            let c = if d > 0.0 {
                self.commonality(config, sf, seeds)
            } else {
                0.0
            };
            RankedFeature {
                feature: sf,
                score: d * c,
                discriminability: d,
                commonality: c,
            }
        });
        top_k_ranked(
            scored.into_iter().filter(|rf| rf.score > 0.0),
            k,
            |rf| rf.score,
            |a, b| a.feature.cmp(&b.feature),
        )
    }

    /// Gather candidate entities: the union of the global extents of the
    /// top features, in feature-score order, capped at `max_candidates`,
    /// with seeds removed when configured.
    pub fn candidate_entities(
        &self,
        config: &RankingConfig,
        seeds: &[EntityId],
        features: &[RankedFeature],
    ) -> Vec<EntityId> {
        let top = &features[..features.len().min(config.top_features)];
        let cap = config.max_candidates.saturating_mul(4);
        let mut picked: Vec<Arc<[EntityId]>> = Vec::with_capacity(top.len());
        let mut total = 0usize;
        for rf in top {
            let extent = self.feature_extent(rf.feature);
            total += extent.len();
            picked.push(extent);
            if total >= cap {
                break;
            }
        }
        let views: Vec<&[EntityId]> = picked.iter().map(|v| v.as_ref()).collect();
        let mut cands = union_k(&views);
        if config.exclude_seeds {
            cands.retain(|e| !seeds.contains(e));
        }
        cands.truncate(config.max_candidates);
        cands
    }

    /// `r(e, Q)` for one entity over a scored feature set.
    pub fn score_entity(
        &self,
        config: &RankingConfig,
        e: EntityId,
        features: &[RankedFeature],
    ) -> f64 {
        let mut score = 0.0;
        for rf in features {
            let p = if self.feature_matches(rf.feature, e) {
                1.0
            } else if config.error_tolerant && config.smooth_candidates {
                self.p_feature_given_best_context(config, rf.feature, e)
            } else {
                0.0
            };
            score += p * rf.score;
        }
        score
    }

    /// Rank candidate entities by `r(e, Q)`.
    pub fn rank_entities(
        &self,
        config: &RankingConfig,
        seeds: &[EntityId],
        features: &[RankedFeature],
    ) -> Vec<RankedEntity> {
        self.rank_entities_top_k(config, seeds, features, usize::MAX, |_| true)
    }

    /// Rank candidate entities with a pre-score filter and bounded top-k
    /// selection. The filter runs *before* scoring, so expensive smoothing
    /// is never spent on entities a hard query condition already excludes.
    pub fn rank_entities_top_k<F>(
        &self,
        config: &RankingConfig,
        seeds: &[EntityId],
        features: &[RankedFeature],
        k: usize,
        filter: F,
    ) -> Vec<RankedEntity>
    where
        F: Fn(EntityId) -> bool + Sync,
    {
        let top = &features[..features.len().min(config.top_features)];
        let mut candidates = self.candidate_entities(config, seeds, features);
        candidates.retain(|&e| filter(e));
        self.score_and_select(config, candidates, top, k)
    }

    /// Score an explicit candidate set and select the top `k`: the
    /// candidates are scored over the context's worker threads (each
    /// against its home shard) and one bounded top-k keeps the best
    /// under the total order `(score desc, entity asc)`.
    ///
    /// Because the order is total and scores are pure global quantities,
    /// the result equals a global sort-then-truncate bit-for-bit at every
    /// shard and thread count — for empty shards, shards owning no
    /// candidates, and `k` exceeding the candidate count alike.
    pub fn score_and_select(
        &self,
        config: &RankingConfig,
        candidates: Vec<EntityId>,
        features: &[RankedFeature],
        k: usize,
    ) -> Vec<RankedEntity> {
        // resolve the fixed feature set once: dense ids for the shared
        // probability cache, a per-shard extent snapshot for the match
        // check — the per-candidate loop then never touches the feature
        // interner lock or re-routes the entity
        let resolved: Vec<ResolvedFeature<'g>> = features
            .iter()
            .map(|rf| {
                let fid = self.intern(rf.feature);
                ResolvedFeature {
                    fid,
                    score: rf.score,
                    entry: self.entry(fid),
                }
            })
            .collect();
        let scored = par_map_slice(self.threads, &candidates, |&e| {
            let si = self.sg.shard_of(e);
            let local = self.sg.shard(si).to_local(e).expect("owned entity");
            RankedEntity {
                entity: e,
                score: self.score_resolved(config, si, local, &resolved),
            }
        });
        top_k_ranked(
            scored.into_iter(),
            k,
            |re| re.score,
            |a, b| a.entity.cmp(&b.entity),
        )
    }

    /// The inner scoring loop of [`ShardedContext::score_and_select`]:
    /// the same math as [`ShardedContext::score_entity`] (bit-identical
    /// by construction — same extents, same cached probabilities), but
    /// over pre-resolved features and a pre-routed candidate.
    fn score_resolved(
        &self,
        config: &RankingConfig,
        si: usize,
        local: EntityId,
        features: &[ResolvedFeature<'_>],
    ) -> f64 {
        let mut score = 0.0;
        for rf in features {
            let p = if rf.entry.extents[si].binary_search(&local).is_ok() {
                1.0
            } else if config.error_tolerant && config.smooth_candidates {
                self.p_best_ctx_by_fid(config, rf.fid, self.sg.shard(si).graph(), local)
            } else {
                0.0
            };
            score += p * rf.score;
        }
        score
    }

    // ---- parallel substrate --------------------------------------------

    /// Map a pure function over a slice using the context's worker
    /// threads, in deterministic chunk order.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        par_map_slice(self.threads, items, f)
    }

    /// [`ShardedContext::par_map`] with an explicit thread count.
    pub fn par_map_with<T, U, F>(&self, threads: usize, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        par_map_slice(threads, items, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_kg::{generate, DatagenConfig, KnowledgeGraph};

    fn fixture() -> KnowledgeGraph {
        generate(&DatagenConfig::tiny())
    }

    /// The fixture as one shard, wrapped by move: the reference the
    /// partitions below must reproduce bit for bit.
    fn one_shard() -> ShardedGraph {
        ShardedGraph::from(fixture())
    }

    fn seeds(kg: &KnowledgeGraph, n: usize) -> Vec<EntityId> {
        let film = kg.type_id("Film").unwrap();
        kg.type_extent(film)[..n].to_vec()
    }

    #[test]
    fn extent_sizes_match_single_graph() {
        let kg = fixture();
        let sg = ShardedGraph::from_graph(&kg, 3);
        let ctx = ShardedContext::with_threads(&sg, 1);
        for e in kg.entity_ids().take(60) {
            for sf in features_of(&kg, e) {
                assert_eq!(
                    ctx.feature_extent_len(sf),
                    sf.extent_size(&kg),
                    "extent size of {}",
                    sf.display(&kg)
                );
                assert_eq!(&*ctx.feature_extent(sf), sf.extent(&kg));
            }
        }
    }

    #[test]
    fn probabilities_match_single_graph_bitwise() {
        let kg = fixture();
        let one = one_shard();
        let single = ShardedContext::with_threads(&one, 1);
        let sg = ShardedGraph::from_graph(&kg, 4);
        let sharded = ShardedContext::with_threads(&sg, 1);
        let cfg = RankingConfig::default();
        for e in kg.entity_ids().take(40) {
            for sf in features_of(&kg, e).into_iter().take(6) {
                for c in kg.categories_of(e) {
                    // p(π|c) straight from the definition on the graph
                    let ext = kg.category_extent(c);
                    let want = intersect_len(sf.extent(&kg), ext) as f64 / ext.len() as f64;
                    assert_eq!(single.p_for_category(sf, c).to_bits(), want.to_bits());
                    assert_eq!(sharded.p_for_category(sf, c).to_bits(), want.to_bits());
                }
                for probe in kg.entity_ids().take(20) {
                    let a = single.p_feature_given_entity(&cfg, sf, probe);
                    let b = sharded.p_feature_given_entity(&cfg, sf, probe);
                    assert!((a - b).abs() == 0.0, "p(π|e) diverged: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn rankings_match_single_graph_bitwise() {
        let kg = fixture();
        let cfg = RankingConfig::default();
        let one = one_shard();
        let single = ShardedContext::with_threads(&one, 1);
        let seeds = seeds(&kg, 2);
        let sf_single = single.rank_features(&cfg, &seeds);
        let re_single = single.rank_entities(&cfg, &seeds, &sf_single);
        assert!(!re_single.is_empty());
        for n in [1, 2, 3, 4] {
            let sg = ShardedGraph::from_graph(&kg, n);
            for threads in [1, 2] {
                let sharded = ShardedContext::with_threads(&sg, threads);
                let sf = sharded.rank_features(&cfg, &seeds);
                assert_eq!(sf, sf_single, "features n={n} threads={threads}");
                let re = sharded.rank_entities(&cfg, &seeds, &sf);
                assert_eq!(re.len(), re_single.len());
                for (a, b) in re.iter().zip(&re_single) {
                    assert_eq!(a.entity, b.entity, "n={n} threads={threads}");
                    assert!(
                        (a.score - b.score).abs() == 0.0,
                        "score not bit-identical: {} vs {}",
                        a.score,
                        b.score
                    );
                }
            }
        }
    }

    #[test]
    fn top_k_merge_handles_k_beyond_candidates_and_empty_shards() {
        let kg = fixture();
        // more shards than strictly needed → some shards own few/no
        // candidates; k far beyond the candidate pool
        let sg = ShardedGraph::from_graph(&kg, 4);
        let sharded = ShardedContext::with_threads(&sg, 2);
        let one = one_shard();
        let single = ShardedContext::with_threads(&one, 1);
        let cfg = RankingConfig::default();
        let seeds = seeds(&kg, 1);
        let features = single.rank_features(&cfg, &seeds);
        let full = single.rank_entities(&cfg, &seeds, &features);
        for k in [0, 1, 3, full.len(), full.len() + 500, usize::MAX] {
            let got = sharded.rank_entities_top_k(&cfg, &seeds, &features, k, |_| true);
            let want = &full[..k.min(full.len())];
            assert_eq!(got.len(), want.len(), "k={k}");
            for (a, b) in got.iter().zip(want) {
                assert_eq!(a.entity, b.entity, "k={k}");
                assert!((a.score - b.score).abs() == 0.0);
            }
        }
    }

    #[test]
    fn caches_fill_and_hit() {
        let kg = fixture();
        let sg = ShardedGraph::from_graph(&kg, 2);
        let ctx = ShardedContext::new(&sg);
        let cfg = RankingConfig::default();
        let seeds = seeds(&kg, 2);
        let _ = ctx.rank_features(&cfg, &seeds);
        let filled = ctx.cached_probability_count();
        assert!(filled > 0, "smoothing must populate the global cache");
        let _ = ctx.rank_features(&cfg, &seeds);
        assert_eq!(ctx.cached_probability_count(), filled, "no recompute");
    }

    /// The global-extent resolutions a sharded context computes are
    /// promoted to the shared cache: a second context on the same cache
    /// gets the **same allocation** back (`Arc::ptr_eq`), not a re-merge.
    #[test]
    fn global_extent_registry_is_shared_across_contexts() {
        let kg = fixture();
        let sg = ShardedGraph::from_graph(&kg, 3);
        let cache = Arc::new(SharedCache::new());
        let sf = features_of(&kg, seeds(&kg, 1)[0])[0];

        let first = {
            let ctx = ShardedContext::with_cache(&sg, 1, Arc::clone(&cache));
            ctx.feature_extent(sf)
        };
        assert!(cache.cached_extent_count() > 0, "resolution must register");
        let second = {
            let ctx = ShardedContext::with_cache(&sg, 1, Arc::clone(&cache));
            ctx.feature_extent(sf)
        };
        assert!(
            Arc::ptr_eq(&first, &second),
            "second context must reuse the registered allocation"
        );
        assert_eq!(first.to_vec(), sf.extent(&kg).to_vec());
    }
}
