//! The memoized state and parallel primitives under the query context.
//!
//! Every query operation in this workspace — feature ranking
//! (`r(π,Q) = d(π)·c(π,Q)`), entity ranking, ESE expansion, heat maps,
//! explanations, session replay, and the comparison baselines — bottoms
//! out in the same primitives: extent lookups, `p(π|c)` density
//! estimates, candidate scoring, and top-k selection. The one context
//! ([`ShardedContext`](crate::sharded::ShardedContext)) runs them; this
//! module holds what it shares and reuses:
//!
//! - **[`SharedCache`]**: the feature-id registry, the `p(π|c)`
//!   probability cache and the resolved global extents, shared by every
//!   context over one logical graph — across queries, sessions, appends
//!   and compactions. `p(π|c) = ‖E(π) ∩ E(c)‖ / ‖E(c)‖` is a pure graph
//!   quantity (independent of any [`RankingConfig`](crate::RankingConfig)),
//!   cached in a sharded map keyed by `(feature id, context)` — readers
//!   on the hot path take a shard read lock only, so parallel scoring
//!   never serializes behind one global mutex.
//! - **Parallel scoring**: `par_map_slice` fans pure per-item work out
//!   over scoped worker threads in deterministic chunk order, so
//!   parallel results are bit-identical to sequential ones.
//! - **Bounded top-k**: [`top_k_ranked`] selects the best `k` by
//!   `(score desc, id asc)` with a size-`k` binary heap instead of
//!   sorting the full candidate set.

use crate::feature::SemanticFeature;
use pivote_kg::{AppliedDelta, CategoryId, EntityId, TypeId};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A smoothing context: a category or a type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Ctx {
    /// Wikipedia-style category.
    Cat(CategoryId),
    /// `rdf:type` class.
    Type(TypeId),
}

/// Dense cache key of a `(feature, context)` pair: `fid << 33 | kind <<
/// 32 | raw`, where `kind` distinguishes categories (0) from types (1).
/// The key is **append-stable**: it does not depend on the category or
/// type *counts*, so keys survive a live graph growing new dictionary
/// terms (only the touched entries are invalidated, never rehomed).
#[inline]
pub(crate) fn prob_key(fid: u32, ctx: Ctx) -> u64 {
    let (kind, raw) = match ctx {
        Ctx::Cat(c) => (0u64, c.raw() as u64),
        Ctx::Type(t) => (1u64, t.raw() as u64),
    };
    ((fid as u64) << 33) | (kind << 32) | raw
}

/// Number of probability-cache shards (power of two).
pub(crate) const SHARDS: usize = 64;

/// Below this many items, parallel fan-out costs more than it saves.
const MIN_PARALLEL_ITEMS: usize = 192;

/// Multiply-xor hasher for the dense `u64` cache keys — the keys are
/// already well-distributed dense pairs, so a full SipHash is wasted
/// work on the hot path.
#[derive(Default)]
pub struct DenseKeyHasher(u64);

impl Hasher for DenseKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Keys are `u64`s and `u32`s, which std hashes as one write of 8
    /// or 4 bytes: each 8-byte word (a shorter tail zero-padded) is
    /// mixed once.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut v = [0u8; 8];
            v[..word.len()].copy_from_slice(word);
            let mut x = self.0 ^ u64::from_ne_bytes(v);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
            self.0 = x ^ (x >> 31);
        }
    }
}

pub(crate) type DenseMap = HashMap<u64, f64, BuildHasherDefault<DenseKeyHasher>>;

/// Shared global-extent registry map: dense feature id → owned, sorted
/// global extent.
pub(crate) type ExtentMap = HashMap<u64, Arc<[EntityId]>, BuildHasherDefault<DenseKeyHasher>>;

/// The bijective feature registry inside a [`SharedCache`].
struct FeatureRegistry {
    ids: HashMap<SemanticFeature, u32>,
    features: Vec<SemanticFeature>,
}

/// The graph-independent, append-surviving half of the execution layer's
/// memoized state: the feature-id registry and the `p(π|c)` probability
/// cache, stamped with a generation counter.
///
/// A [`ShardedContext`](crate::sharded::ShardedContext) built with
/// [`ShardedContext::with_cache`](crate::sharded::ShardedContext::with_cache)
/// shares this state with every other context over the same logical
/// graph — across queries, sessions *and
/// appends*: when the graph grows, [`SharedCache::invalidate`] drops
/// exactly the densities whose feature or context extents the
/// [`AppliedDelta`] touched, and everything else stays warm. Feature ids
/// are stable forever (a feature's identity does not change when its
/// extent grows), so dense-id cache keys survive too.
pub struct SharedCache {
    registry: RwLock<FeatureRegistry>,
    /// `p(π|c)` cache, sharded by key hash.
    prob_shards: Vec<RwLock<DenseMap>>,
    /// Resolved **global** extents (owned, in global-id order), sharded
    /// by feature id — the promotion of what used to be per-context
    /// memos: one context resolves a feature's materialized extent, every
    /// sibling context (and every prepared snapshot) over the same
    /// logical graph reuses it. Invalidated receipt-exactly like the
    /// densities; a compaction keeps it (global ids are partition-
    /// independent, and the compacted resolution is value-equal).
    extent_shards: Vec<RwLock<ExtentMap>>,
    /// Bumped by every [`SharedCache::invalidate`] call.
    generation: AtomicU64,
}

impl Default for SharedCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SharedCache {
    /// Aggregate counters only — the maps are large and lock-guarded.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedCache")
            .field("generation", &self.generation())
            .field("features", &self.feature_count())
            .field("cached_probabilities", &self.cached_probability_count())
            .field("cached_extents", &self.cached_extent_count())
            .finish()
    }
}

impl SharedCache {
    /// A fresh, empty cache at generation 0.
    pub fn new() -> Self {
        Self {
            registry: RwLock::new(FeatureRegistry {
                ids: HashMap::new(),
                features: Vec::new(),
            }),
            prob_shards: (0..SHARDS)
                .map(|_| RwLock::new(DenseMap::default()))
                .collect(),
            extent_shards: (0..SHARDS)
                .map(|_| RwLock::new(ExtentMap::default()))
                .collect(),
            generation: AtomicU64::new(0),
        }
    }

    /// The invalidation generation: how many appends this cache has
    /// absorbed.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Number of interned features.
    pub fn feature_count(&self) -> usize {
        self.registry
            .read()
            .expect("registry poisoned")
            .features
            .len()
    }

    /// Number of cached `p(π|c)` probabilities.
    pub fn cached_probability_count(&self) -> usize {
        self.prob_shards
            .iter()
            .map(|s| s.read().expect("prob shard poisoned").len())
            .sum()
    }

    /// Number of cached global extent resolutions.
    pub fn cached_extent_count(&self) -> usize {
        self.extent_shards
            .iter()
            .map(|s| s.read().expect("extent shard poisoned").len())
            .sum()
    }

    /// Dense id of `sf`, interning it on first sight.
    pub(crate) fn feature_id(&self, sf: SemanticFeature) -> u32 {
        if let Some(&id) = self
            .registry
            .read()
            .expect("registry poisoned")
            .ids
            .get(&sf)
        {
            return id;
        }
        let mut reg = self.registry.write().expect("registry poisoned");
        if let Some(&id) = reg.ids.get(&sf) {
            return id;
        }
        let id = reg.features.len() as u32;
        reg.features.push(sf);
        reg.ids.insert(sf, id);
        id
    }

    /// The feature behind a dense id.
    pub(crate) fn feature(&self, fid: u32) -> SemanticFeature {
        self.registry.read().expect("registry poisoned").features[fid as usize]
    }

    /// The cache shard holding `key` (middle hash bits: hashbrown uses
    /// the low bits for the bucket index and the top 7 as the SIMD
    /// control tag, so taking either end would degrade the in-shard
    /// tables).
    #[inline]
    fn shard_for(&self, key: u64) -> &RwLock<DenseMap> {
        let mut h = DenseKeyHasher::default();
        h.write_u64(key);
        &self.prob_shards[(h.finish() >> 32) as usize & (SHARDS - 1)]
    }

    /// Cached probability for `key`, if present.
    #[inline]
    pub(crate) fn prob_get(&self, key: u64) -> Option<f64> {
        self.shard_for(key)
            .read()
            .expect("prob shard poisoned")
            .get(&key)
            .copied()
    }

    /// Insert a computed probability.
    #[inline]
    pub(crate) fn prob_insert(&self, key: u64, p: f64) {
        self.shard_for(key)
            .write()
            .expect("prob shard poisoned")
            .insert(key, p);
    }

    /// [`SharedCache::prob_insert`] gated on the cache still being at
    /// `trust_gen` — the insert path for contexts that run **off** the
    /// store's write-lock exclusion (prepared snapshots). Checked under
    /// the shard write lock: [`SharedCache::invalidate`] bumps the
    /// generation *before* its retain sweep (which takes the same shard
    /// locks), so either this insert lands before the sweep and is
    /// swept if touched, or the generation already moved and the stale
    /// value is refused. Lock-scoped contexts pass trivially (the write
    /// lock excludes invalidation for their whole lifetime).
    #[inline]
    pub(crate) fn prob_insert_if_current(&self, key: u64, p: f64, trust_gen: u64) {
        let mut map = self.shard_for(key).write().expect("prob shard poisoned");
        if self.generation.load(Ordering::SeqCst) == trust_gen {
            map.insert(key, p);
        }
    }

    /// The extent-registry shard holding `fid` (same middle-bit pick as
    /// [`SharedCache::shard_for`]).
    #[inline]
    fn extent_shard_for(&self, fid: u32) -> &RwLock<ExtentMap> {
        let mut h = DenseKeyHasher::default();
        h.write_u64(fid as u64);
        &self.extent_shards[(h.finish() >> 32) as usize & (SHARDS - 1)]
    }

    /// Cached global extent resolution for a feature, if present.
    #[inline]
    pub(crate) fn extent_get(&self, fid: u32) -> Option<Arc<[EntityId]>> {
        self.extent_shard_for(fid)
            .read()
            .expect("extent shard poisoned")
            .get(&(fid as u64))
            .cloned()
    }

    /// Insert a resolved global extent, gated on the cache still being
    /// at `trust_gen` (same protocol as
    /// [`SharedCache::prob_insert_if_current`]).
    #[inline]
    pub(crate) fn extent_insert_if_current(
        &self,
        fid: u32,
        extent: Arc<[EntityId]>,
        trust_gen: u64,
    ) {
        let mut map = self
            .extent_shard_for(fid)
            .write()
            .expect("extent shard poisoned");
        if self.generation.load(Ordering::SeqCst) == trust_gen {
            map.insert(fid as u64, extent);
        }
    }

    /// Probe the cache for `p(π|c)` of a category context **without**
    /// computing or interning anything — the observability hook the
    /// invalidation tests use.
    pub fn probe_category(&self, sf: SemanticFeature, c: CategoryId) -> Option<f64> {
        let reg = self.registry.read().expect("registry poisoned");
        let fid = *reg.ids.get(&sf)?;
        drop(reg);
        self.prob_get(prob_key(fid, Ctx::Cat(c)))
    }

    /// Drop exactly the cached densities **and global extent
    /// resolutions** an append touched — entries whose feature extent
    /// (`touched_out`/`touched_in`) or context extent
    /// (`touched_types`/`touched_categories`) changed — bump the
    /// generation, and return how many entries were dropped. Everything
    /// else survives.
    pub fn invalidate(&self, delta: &AppliedDelta) -> usize {
        let touched_fids: HashSet<u64> = {
            let reg = self.registry.read().expect("registry poisoned");
            delta
                .touched_out
                .iter()
                .map(|&(e, p)| SemanticFeature::from_anchor(e, p))
                .chain(
                    delta
                        .touched_in
                        .iter()
                        .map(|&(e, p)| SemanticFeature::to_anchor(e, p)),
                )
                .filter_map(|sf| reg.ids.get(&sf).map(|&id| id as u64))
                .collect()
        };
        let touched_ctxs: HashSet<u64> = delta
            .touched_categories
            .iter()
            .map(|c| c.raw() as u64)
            .chain(
                delta
                    .touched_types
                    .iter()
                    .map(|t| (1u64 << 32) | t.raw() as u64),
            )
            .collect();
        // bump FIRST: contexts pinned to an older generation (prepared
        // snapshots running off the store lock) gate their cache reads
        // and inserts on `generation() == trusted generation`, so bumping
        // before the retains closes both race windows — a stale context
        // can neither insert a pre-delta value after the retain swept,
        // nor observe a post-delta value as if it were its own
        // generation's (see `prob_insert_if_current`).
        self.generation.fetch_add(1, Ordering::SeqCst);
        let mut dropped = 0usize;
        if !touched_fids.is_empty() || !touched_ctxs.is_empty() {
            for shard in &self.prob_shards {
                let mut map = shard.write().expect("prob shard poisoned");
                let before = map.len();
                map.retain(|&key, _| {
                    !touched_fids.contains(&(key >> 33))
                        && !touched_ctxs.contains(&(key & ((1u64 << 33) - 1)))
                });
                dropped += before - map.len();
            }
        }
        if !touched_fids.is_empty() {
            // the extent registry is keyed by bare feature id: only a
            // changed *feature* extent stales a resolution (context
            // extents never enter it)
            for shard in &self.extent_shards {
                let mut map = shard.write().expect("extent shard poisoned");
                let before = map.len();
                map.retain(|&key, _| !touched_fids.contains(&key));
                dropped += before - map.len();
            }
        }
        dropped
    }

    /// Record a compaction (re-partition) of the backing sharded graph:
    /// bump the generation — observable through
    /// [`SharedCache::generation`], like an append — and return the new
    /// value. **Nothing is dropped**: every cached `p(π|c)` is an exact
    /// global quantity (integer intersection sums over the whole
    /// partition, identical at every shard count bit for bit) and
    /// every feature id is partition-independent, so re-sharding the
    /// same logical graph invalidates neither. The **global extent
    /// registry survives too**: a registered resolution lists global
    /// entity ids in global order, and compaction changes no global id
    /// and drops no live row (retracted rows were already spliced out of
    /// the extents at retract time — compaction only reclaims their
    /// memory), so the re-resolved value is equal element for element. The
    /// only state a compaction obsoletes is each context's *shard-local*
    /// resolved extents — and those are per-context, scoped to a read
    /// guard that cannot outlive the swap.
    pub fn note_compaction(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Export the cache's warm state: every interned feature in dense-id
    /// order and every cached `p(π|c)` density, sorted by key so the
    /// serialized sidecar is deterministic. The backing store for
    /// [`crate::warm`]'s persisted warm-state files.
    pub(crate) fn export_entries(&self) -> (Vec<SemanticFeature>, Vec<(u64, f64)>) {
        let features = self
            .registry
            .read()
            .expect("registry poisoned")
            .features
            .clone();
        let mut probs: Vec<(u64, f64)> = self
            .prob_shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .expect("prob shard poisoned")
                    .iter()
                    .map(|(&k, &v)| (k, v))
                    .collect::<Vec<_>>()
            })
            .collect();
        probs.sort_unstable_by_key(|&(k, _)| k);
        (features, probs)
    }

    /// Rebuild a cache from exported warm state. Features are re-interned
    /// in their original dense-id order (feature ids are append-stable,
    /// so the keys of `probs` resolve to the same `(π, c)` pairs), and
    /// the generation restarts at 0 — the caller pairs the cache with a
    /// graph whose generation the sidecar's header was checked against.
    pub(crate) fn import_entries(features: Vec<SemanticFeature>, probs: Vec<(u64, f64)>) -> Self {
        let cache = Self::new();
        {
            let mut reg = cache.registry.write().expect("registry poisoned");
            for (i, sf) in features.iter().enumerate() {
                reg.ids.insert(*sf, i as u32);
            }
            reg.features = features;
        }
        for (key, p) in probs {
            cache.prob_insert(key, p);
        }
        cache
    }
}

/// Map a pure function over a slice on at most `threads` scoped worker
/// threads (contiguous chunks, joined in slice order), so the output is
/// identical to a sequential `iter().map().collect()`. Runs inline at
/// one thread or below `MIN_PARALLEL_ITEMS` items.
pub(crate) fn par_map_slice<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = threads.max(1).min(items.len().max(1));
    if workers == 1 || items.len() < MIN_PARALLEL_ITEMS {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut out: Vec<U> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|chunk| scope.spawn(|| chunk.iter().map(&f).collect::<Vec<U>>()))
            .collect();
        for h in handles {
            out.extend(h.join().expect("chunk worker panicked"));
        }
    });
    out
}

/// Select the `k` best items by `(score desc, id asc)` using a bounded
/// binary heap — O(n log k) instead of a full O(n log n) sort — and
/// return them best-first. Equal scores fall back to `tie` ascending;
/// the combined order must be total (true here: ids are unique), which
/// makes the result identical to sort-then-truncate.
pub fn top_k_ranked<T, I, S, C>(items: I, k: usize, score: S, tie: C) -> Vec<T>
where
    I: Iterator<Item = T>,
    S: Fn(&T) -> f64,
    C: Fn(&T, &T) -> std::cmp::Ordering,
{
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    // rank order: higher score first, then `tie` ascending
    let better = |a: &T, b: &T| -> Ordering {
        score(a)
            .partial_cmp(&score(b))
            .unwrap_or(Ordering::Equal)
            .then_with(|| tie(b, a))
    };

    struct Entry<T, F>(T, F);
    impl<T, F: Fn(&T, &T) -> Ordering> PartialEq for Entry<T, F> {
        fn eq(&self, other: &Self) -> bool {
            (self.1)(&self.0, &other.0) == Ordering::Equal
        }
    }
    impl<T, F: Fn(&T, &T) -> Ordering> Eq for Entry<T, F> {}
    impl<T, F: Fn(&T, &T) -> Ordering> PartialOrd for Entry<T, F> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<T, F: Fn(&T, &T) -> Ordering> Ord for Entry<T, F> {
        fn cmp(&self, other: &Self) -> Ordering {
            // reversed: BinaryHeap is a max-heap, we want the *worst* kept
            // item on top for cheap eviction
            (self.1)(&other.0, &self.0)
        }
    }

    if k == 0 {
        return Vec::new();
    }
    if k == usize::MAX {
        // unbounded: plain sort is faster than heap churn
        let mut all: Vec<T> = items.collect();
        all.sort_unstable_by(|a, b| better(b, a));
        return all;
    }

    // cap the upfront allocation: k is caller-supplied and may be huge
    // ("give me everything"); the heap grows if items really exceed this
    let mut heap: BinaryHeap<Entry<T, _>> =
        BinaryHeap::with_capacity(k.saturating_add(1).min(1024));
    for item in items {
        if heap.len() < k {
            heap.push(Entry(item, &better));
        } else if let Some(worst) = heap.peek() {
            if better(&item, &worst.0) == Ordering::Greater {
                heap.pop();
                heap.push(Entry(item, &better));
            }
        }
    }
    let mut out: Vec<T> = heap.into_iter().map(|e| e.0).collect();
    out.sort_unstable_by(|a, b| better(b, a));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RankingConfig;
    use crate::sharded::ShardedContext;
    use pivote_kg::{generate, DatagenConfig, KgBuilder, KnowledgeGraph, ShardedGraph};

    fn toy() -> KnowledgeGraph {
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
        for f in [f1, f2, f3] {
            b.categorized(f, "films");
        }
        b.finish()
    }

    /// A feature keeps one dense id, and two contexts sharing a cache
    /// resolve it to the same extent.
    #[test]
    fn interning_is_stable_and_shared() {
        let kg = toy();
        let sg = ShardedGraph::from(kg.clone());
        let cache = Arc::new(SharedCache::new());
        let sf =
            SemanticFeature::to_anchor(kg.entity("A").unwrap(), kg.predicate("starring").unwrap());
        let id1 = cache.feature_id(sf);
        let id2 = cache.feature_id(sf);
        assert_eq!(id1, id2);
        assert_eq!(cache.feature(id1), sf);
        for _ in 0..2 {
            let ctx = ShardedContext::with_cache(&sg, 1, Arc::clone(&cache));
            assert_eq!(&*ctx.feature_extent(sf), sf.extent(&kg));
        }
        assert_eq!(cache.feature_count(), 1);
    }

    #[test]
    fn probability_cache_fills_once() {
        let kg = toy();
        let sg = ShardedGraph::from(kg.clone());
        let ctx = ShardedContext::new(&sg);
        let cfg = RankingConfig::default();
        let sf =
            SemanticFeature::to_anchor(kg.entity("A").unwrap(), kg.predicate("starring").unwrap());
        let f3 = kg.entity("f3").unwrap();
        let p1 = ctx.p_feature_given_entity(&cfg, sf, f3);
        let cached = ctx.cached_probability_count();
        let p2 = ctx.p_feature_given_entity(&cfg, sf, f3);
        assert_eq!(p1, p2);
        assert!((p1 - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(ctx.cached_probability_count(), cached, "no recompute");
    }

    #[test]
    fn par_map_matches_sequential_order() {
        let items: Vec<u32> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x as u64 * 3).collect();
        let par = par_map_slice(4, &items, |&x| x as u64 * 3);
        assert_eq!(seq, par);
        assert_eq!(par_map_slice(3, &items, |&x| x as u64 * 3), seq);
    }

    #[test]
    fn top_k_matches_sort_truncate() {
        let items: Vec<(u32, f64)> = (0..500u32)
            .map(|i| (i, ((i.wrapping_mul(2_654_435_761) % 997) as f64) / 997.0))
            .collect();
        let mut full = items.clone();
        full.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        for k in [0, 1, 7, 100, 499, 500, 1000] {
            let picked = top_k_ranked(items.iter().copied(), k, |it| it.1, |a, b| a.0.cmp(&b.0));
            assert_eq!(picked, full[..k.min(full.len())].to_vec(), "k={k}");
        }
    }

    #[test]
    fn top_k_breaks_score_ties_by_id() {
        let items = vec![(9u32, 1.0), (3, 1.0), (7, 1.0), (5, 0.5)];
        let picked = top_k_ranked(items.into_iter(), 2, |it| it.1, |a, b| a.0.cmp(&b.0));
        assert_eq!(picked, vec![(3, 1.0), (7, 1.0)]);
    }

    #[test]
    fn one_context_serves_multiple_configs() {
        let kg = generate(&DatagenConfig::tiny());
        let film = kg.type_id("Film").unwrap();
        let seeds = kg.type_extent(film)[..2].to_vec();
        let sg = ShardedGraph::from(kg);
        let ctx = ShardedContext::new(&sg);
        let full = RankingConfig::default();
        let ablated = RankingConfig::default().without_discriminability();
        let rf_full = ctx.rank_features(&full, &seeds);
        let rf_ablated = ctx.rank_features(&ablated, &seeds);
        assert!(!rf_full.is_empty());
        assert!(!rf_ablated.is_empty());
        assert!(rf_ablated.iter().all(|rf| rf.discriminability == 1.0));
        assert!(rf_full.iter().any(|rf| rf.discriminability < 1.0));
    }
}
