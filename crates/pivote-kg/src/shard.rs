//! Range-sharded knowledge graphs.
//!
//! [`ShardedGraph`] partitions a [`KnowledgeGraph`] by **entity-id range**
//! into `N` independent [`KnowledgeGraph`] shards so that query layers can
//! fan work out per shard and merge bounded top-k results — the seam for
//! graphs larger than one machine's memory. The partitioning is chosen so
//! that the ranking model's set algebra decomposes *exactly*:
//!
//! - A [`ShardRouter`] maps every global [`EntityId`] to the shard that
//!   **owns** it (contiguous ranges, so routing is a binary search over
//!   `N+1` cut points).
//! - Each shard stores every triple **incident to an owned entity** (a
//!   triple whose endpoints live in two shards is stored in both). The
//!   non-owned endpoints interned into a shard are its *ghosts*.
//! - Shard-local entity ids are remapped densely: owned entities first, in
//!   ascending global order (`local = global − range.start`), then ghosts
//!   in ascending global order. Two invariants follow that the execution
//!   layer (`pivote-core`) relies on:
//!   1. **Owned prefix**: in any sorted local-id extent slice, the owned
//!      members form a prefix (`local < owned_count`), so
//!      `‖E(π) ∩ range_i‖` is one `partition_point`.
//!   2. **Order preservation**: among owned locals, local order equals
//!      global order, so per-shard owned extents remapped to global ids
//!      and concatenated in shard order are globally sorted.
//! - Types, categories, labels, aliases and literals are stored **only**
//!   in the owning shard, so context extents (`E(c)`, `E(t)`) are
//!   disjoint across shards and global counts are plain sums.
//! - Predicate, type and category dictionaries are replicated into every
//!   shard in global id order, so those dense ids are **identical** in
//!   every shard and in the source graph.
//!
//! Together these give the exact decompositions
//! `‖E(π)‖ = Σᵢ ‖Eᵢ(π) ∩ rangeᵢ‖` and
//! `‖E(π) ∩ E(c)‖ = Σᵢ ‖Eᵢ(π) ∩ Eᵢ(c)‖` (integer sums — no floating
//! error), which is what makes sharded rankings bit-identical to
//! single-graph rankings.

use crate::delta::{polarity_runs, AppliedDelta, DeltaBatch, DeltaOp};
use crate::id::{CategoryId, EntityId, PredicateId, TypeId};
use crate::store::{DeltaAcc, KgBuilder, KnowledgeGraph};
use crate::triple::Literal;

/// Maps global entity ids to shards by contiguous id range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    /// `cuts[i]..cuts[i+1]` is the global-id range owned by shard `i`.
    cuts: Vec<u32>,
}

impl ShardRouter {
    /// Uniform ranges: `shards` shards of (up to) `ceil(count/shards)`
    /// entities each. Trailing shards may be empty when `shards` exceeds
    /// the entity count — query layers must tolerate empty shards.
    pub fn uniform(entity_count: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let count = entity_count as u32;
        let chunk = (entity_count.div_ceil(shards)).max(1) as u32;
        let cuts = (0..=shards)
            .map(|i| (i as u32).saturating_mul(chunk).min(count))
            .collect();
        Self { cuts }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.cuts.len() - 1
    }

    /// The shard owning `e`.
    ///
    /// # Panics
    /// If `e` is outside the routed id space.
    pub fn shard_of(&self, e: EntityId) -> usize {
        assert!(
            e.raw() < *self.cuts.last().expect("router has cut points"),
            "entity {e} outside the routed id space"
        );
        self.cuts.partition_point(|&c| c <= e.raw()) - 1
    }

    /// The global-id range owned by shard `i`.
    pub fn range(&self, i: usize) -> std::ops::Range<u32> {
        self.cuts[i]..self.cuts[i + 1]
    }

    /// Total number of routed entities.
    pub fn entity_count(&self) -> usize {
        *self.cuts.last().expect("router has cut points") as usize
    }

    /// Append a new trailing shard owning the next `additional` global
    /// ids — how the sharded apply places entities created by a delta.
    pub(crate) fn append_range(&mut self, additional: u32) {
        let last = *self.cuts.last().expect("router has cut points");
        self.cuts.push(last + additional);
    }

    /// Grow the last shard's range by `additional` global ids — how a
    /// one-shard store absorbs entities created by a delta in place.
    fn extend_last(&mut self, additional: u32) {
        *self.cuts.last_mut().expect("router has cut points") += additional;
    }
}

/// One shard: a self-contained [`KnowledgeGraph`] over the owned entity
/// range plus ghost copies of cross-shard neighbours, with the local ↔
/// global id remap table.
///
/// The shard graph lives behind an [`Arc`](std::sync::Arc) so cloning a
/// shard (and so a whole [`ShardedGraph`]) is a reference bump plus the
/// remap metadata — a published snapshot shares every shard with the
/// live partition, and a later mutation copies only the shard(s) it
/// actually touches (copy-on-write via `Arc::make_mut`).
#[derive(Debug, Clone)]
pub struct GraphShard {
    graph: std::sync::Arc<KnowledgeGraph>,
    /// Local id → global id. Owned locals (`0..owned_count`) are the
    /// shard's range in ascending order; ghost locals follow in the order
    /// they were interned (ascending at construction; appended ghosts
    /// from live deltas arrive in delta order).
    local_to_global: Vec<EntityId>,
    /// Ghost lookup `(global, local)`, sorted by global id — kept sorted
    /// under appends so [`GraphShard::to_local`] stays a binary search
    /// even when deltas intern ghosts out of global order.
    ghost_lookup: Vec<(EntityId, EntityId)>,
    /// First global id of the owned range (`local = global − base` for
    /// owned entities).
    base: u32,
    owned_count: usize,
}

impl GraphShard {
    /// The shard-local graph. All ids in its API are **local**.
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.graph
    }

    /// Number of entities this shard owns (not counting ghosts).
    pub fn owned_count(&self) -> usize {
        self.owned_count
    }

    /// Whether a *local* id is an owned entity (vs a ghost).
    #[inline]
    pub fn is_owned(&self, local: EntityId) -> bool {
        local.index() < self.owned_count
    }

    /// Map a local id back to the global id space.
    #[inline]
    pub fn to_global(&self, local: EntityId) -> EntityId {
        self.local_to_global[local.index()]
    }

    /// Map a global id to this shard's local id space, if the entity is
    /// present here (owned or ghost).
    pub fn to_local(&self, global: EntityId) -> Option<EntityId> {
        let owned_end = self.base + self.owned_count as u32;
        if (self.base..owned_end).contains(&global.raw()) {
            return Some(EntityId::new(global.raw() - self.base));
        }
        self.ghost_lookup
            .binary_search_by_key(&global, |&(g, _)| g)
            .ok()
            .map(|i| self.ghost_lookup[i].1)
    }

    /// Register a freshly interned ghost local (post-append bookkeeping).
    fn push_ghost(&mut self, global: EntityId, local: EntityId) {
        debug_assert_eq!(local.index(), self.local_to_global.len());
        self.local_to_global.push(global);
        let at = self.ghost_lookup.partition_point(|&(g, _)| g < global);
        self.ghost_lookup.insert(at, (global, local));
    }

    /// Length of the owned prefix of a sorted local-id extent slice —
    /// exactly `‖E ∩ range‖` for this shard's range (invariant 1 above).
    #[inline]
    pub fn owned_prefix_len(&self, extent: &[EntityId]) -> usize {
        extent.partition_point(|&e| e.index() < self.owned_count)
    }

    /// Append the owned prefix of a sorted local extent to `out` as
    /// global ids (stays sorted — invariant 2 above).
    pub fn extend_owned_global(&self, extent: &[EntityId], out: &mut Vec<EntityId>) {
        let n = self.owned_prefix_len(extent);
        out.extend(extent[..n].iter().map(|&e| self.to_global(e)));
    }
}

/// A knowledge graph partitioned into range-owned shards.
///
/// All public accessors speak **global ids** (the id space of the source
/// graph); per-shard access via [`ShardedGraph::shard`] speaks local ids.
///
/// `Clone` is cheap: shard graphs are `Arc`-shared, so a clone copies
/// the router and remap metadata plus one reference bump per shard —
/// how the live layer's concurrent compaction takes a consistent
/// snapshot under a read guard (and the serving layer publishes one per
/// write) without copying any graph. Mutating a clone copies only the
/// shard(s) the mutation touches.
#[derive(Debug, Clone)]
pub struct ShardedGraph {
    router: ShardRouter,
    shards: Vec<GraphShard>,
    relation_count: usize,
    triple_count: usize,
    /// Bumped by every [`ShardedGraph::apply`] and every
    /// [`ShardedGraph::compact`]; 0 for a fresh partition.
    generation: u64,
    /// Shard count of the last deliberate partition
    /// ([`ShardedGraph::from_graph`] or [`ShardedGraph::compact`]);
    /// shards beyond this are the *trailing* shards appended by deltas.
    base_shards: usize,
    /// Number of compaction passes this partition descends from (0 for
    /// `from_graph`). Within one epoch shards are only ever appended —
    /// never reordered, resized or replaced — which is what lets
    /// per-shard derived state (e.g. search indexes) be reused
    /// positionally across appends but never across a re-partition.
    compaction_epoch: u64,
}

impl From<KnowledgeGraph> for ShardedGraph {
    /// One shard owning every entity, built **by move**: the graph
    /// becomes the shard's graph as it is — identity remap, no ghosts,
    /// no rebuild — so wrapping a freshly parsed dump costs one small
    /// id table. Equal to [`ShardedGraph::from_graph`]`(&kg, 1)` in
    /// every answer, receipt and serialization, at generation 0.
    fn from(kg: KnowledgeGraph) -> Self {
        let n = kg.entity_count();
        Self {
            router: ShardRouter::uniform(n, 1),
            relation_count: kg.relation_count(),
            triple_count: kg.triple_count(),
            shards: vec![GraphShard {
                local_to_global: (0..n as u32).map(EntityId::new).collect(),
                ghost_lookup: Vec::new(),
                base: 0,
                owned_count: n,
                graph: std::sync::Arc::new(kg),
            }],
            generation: 0,
            base_shards: 1,
            compaction_epoch: 0,
        }
    }
}

impl ShardedGraph {
    /// Partition `kg` into `shards` range shards.
    ///
    /// Every global entity id is owned by exactly one shard; every triple
    /// is stored in the shard(s) owning its endpoints; dictionaries for
    /// predicates, types and categories are replicated in global order so
    /// their dense ids agree across shards.
    pub fn from_graph(kg: &KnowledgeGraph, shards: usize) -> Self {
        let router = ShardRouter::uniform(kg.entity_count(), shards);
        let n = router.shard_count();
        let mut triples: Vec<Vec<(EntityId, PredicateId, EntityId)>> = vec![Vec::new(); n];
        let mut ghosts: Vec<Vec<EntityId>> = vec![Vec::new(); n];
        for t in kg.entity_triples() {
            let o = t.object.as_entity().expect("entity triple");
            let (ss, os) = (router.shard_of(t.subject), router.shard_of(o));
            triples[ss].push((t.subject, t.predicate, o));
            if os != ss {
                triples[os].push((t.subject, t.predicate, o));
                ghosts[os].push(t.subject);
                ghosts[ss].push(o);
            }
        }

        let built = (0..n)
            .map(|i| {
                let range = router.range(i);
                let base = range.start;
                let owned_count = range.len();
                let mut b = KgBuilder::new();
                // replicate the dictionaries in global id order so dense
                // predicate/type/category ids match the source graph
                crate::delta::replicate_dictionaries(&mut b, kg);
                // owned entities first, ascending; then ghosts, ascending
                let mut local_to_global: Vec<EntityId> = Vec::with_capacity(owned_count);
                for g in range.clone() {
                    let ge = EntityId::new(g);
                    let le = b.entity(kg.entity_name(ge));
                    debug_assert_eq!(le.raw(), g - base, "owned locals must be dense");
                    local_to_global.push(ge);
                }
                ghosts[i].sort_unstable();
                ghosts[i].dedup();
                for &ge in &ghosts[i] {
                    let le = b.entity(kg.entity_name(ge));
                    // ghosts carry their entity's label so shard-local
                    // display names — and the search documents built from
                    // them — match the source graph exactly
                    if let Some(l) = kg.label(ge) {
                        b.label(le, l);
                    }
                    local_to_global.push(ge);
                }
                let ghost_list = &local_to_global[owned_count..];
                let to_local = |g: EntityId| -> EntityId {
                    if range.contains(&g.raw()) {
                        EntityId::new(g.raw() - base)
                    } else {
                        let idx = ghost_list.binary_search(&g).expect("ghost interned");
                        EntityId::new((owned_count + idx) as u32)
                    }
                };
                // owned-only facets: labels, memberships, literals,
                // aliases (b.entity returns the interned owned local)
                for g in range.clone() {
                    let le = crate::delta::replay_entity_facets(&mut b, kg, EntityId::new(g));
                    debug_assert_eq!(le.raw(), g - base);
                }
                for &(s, p, o) in &triples[i] {
                    b.triple(to_local(s), p, to_local(o));
                }
                let ghost_lookup = local_to_global[owned_count..]
                    .iter()
                    .enumerate()
                    .map(|(i, &g)| (g, EntityId::new((owned_count + i) as u32)))
                    .collect();
                GraphShard {
                    graph: std::sync::Arc::new(b.finish()),
                    local_to_global,
                    ghost_lookup,
                    base,
                    owned_count,
                }
            })
            .collect();

        let base_shards = router.shard_count();
        Self {
            router,
            shards: built,
            relation_count: kg.relation_count(),
            triple_count: kg.triple_count(),
            generation: 0,
            base_shards,
            compaction_epoch: 0,
        }
    }

    /// Number of compaction passes this partition descends from —
    /// bumped by [`ShardedGraph::compact`], untouched by appends. A
    /// changed epoch means the shard list was rebuilt wholesale, so any
    /// per-shard derived state (per-shard search indexes, say) keyed by
    /// shard position is invalid; within one epoch, per-shard state
    /// stays valid as long as that shard's local
    /// [`KnowledgeGraph::generation`] is unchanged.
    pub fn compaction_epoch(&self) -> u64 {
        self.compaction_epoch
    }

    /// The mutation generation: 0 for a fresh partition, bumped by every
    /// [`ShardedGraph::apply`] and every [`ShardedGraph::compact`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of *trailing* shards: shards appended by deltas since the
    /// last deliberate partition ([`ShardedGraph::from_graph`] or
    /// [`ShardedGraph::compact`]). Every query fans out over
    /// base + trailing shards, so a growing tail degrades per-query
    /// latency linearly — the quantity [`CompactionPolicy`] watches.
    pub fn trailing_shard_count(&self) -> usize {
        self.shards.len() - self.base_shards
    }

    /// Fraction of all owned entities living in trailing shards
    /// (0.0 for a freshly partitioned or just-compacted graph).
    pub fn tail_owned_fraction(&self) -> f64 {
        let tail: usize = self.shards[self.base_shards..]
            .iter()
            .map(|s| s.owned_count())
            .sum();
        tail as f64 / self.entity_count().max(1) as f64
    }

    /// Materialize the logical single graph this partition represents —
    /// the union-rebuild half of compaction. Dense ids are preserved
    /// exactly: dictionaries are replayed in global id order, entities in
    /// ascending global id order with their owned facets, then every
    /// entity triple once (from its subject's home shard, which stores
    /// all incident triples). The result is id-identical to the
    /// [`KnowledgeGraph`] that `from_graph` + the applied deltas
    /// logically describe, so rankings over it are bit-identical.
    pub fn to_graph(&self) -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        crate::delta::replicate_dictionaries(&mut b, self.dict());
        for g in self.entity_ids() {
            // the home shard's local graph carries the entity's owned
            // facets under the replicated (global) dictionary ids
            let (shard, local) = self.home(g);
            let le = crate::delta::replay_entity_facets(&mut b, shard.graph(), local);
            debug_assert_eq!(le, g, "union rebuild must preserve entity ids");
        }
        for g in self.entity_ids() {
            let (shard, local) = self.home(g);
            for (p, o) in shard.graph().out_edges(local) {
                b.triple(g, p, shard.to_global(o));
            }
        }
        b.finish()
    }

    /// [`snapshot::fingerprint`](crate::snapshot::fingerprint) of the
    /// logical graph: the restart-stable hash of its exact snapshot
    /// bytes, independent of partitioning and mutation generation. Two
    /// stores with equal fingerprints serve bit-identical answers — the
    /// equality the delta-log replication contract is stated in. Linear
    /// in graph size (on a partition, a union rebuild first); call at
    /// durability points, not per query.
    pub fn fingerprint(&self) -> u64 {
        match self.shards.as_slice() {
            // one shard's graph is the logical graph, ids and all
            [one] => crate::snapshot::fingerprint(one.graph()),
            _ => crate::snapshot::fingerprint(&self.to_graph()),
        }
    }

    /// Re-partition into `target_shards` fresh entity-id-range shards —
    /// the offline compaction pass for a graph whose trailing shards have
    /// accumulated. An offline union rebuild ([`ShardedGraph::to_graph`])
    /// feeds [`ShardedGraph::from_graph`], so the result carries all the
    /// remap and dictionary-replication invariants of a fresh partition:
    /// owned-first dense locals, globally sorted concatenated extents,
    /// identical dense dictionary ids. Every global id — entity,
    /// predicate, type, category — is unchanged, which is what makes
    /// compaction answer-preserving: rankings, heat maps and profiles
    /// over the compacted graph are bit-identical to the uncompacted one
    /// (enforced by the equivalence model, `tests/equivalence.rs`, and
    /// the golden test, `tests/golden_sharded.rs`).
    ///
    /// The compacted graph starts a new generation (`generation + 1`),
    /// observable through [`ShardedGraph::generation`] and, on the live
    /// wrapper, through the shared cache's generation counter.
    pub fn compact(&self, target_shards: usize) -> ShardedGraph {
        let mut fresh = ShardedGraph::from_graph(&self.to_graph(), target_shards);
        fresh.generation = self.generation + 1;
        fresh.compaction_epoch = self.compaction_epoch + 1;
        fresh
    }

    /// Append a [`DeltaBatch`], routing every statement to the shard(s)
    /// that own its endpoints while preserving the remap invariants the
    /// execution layer relies on:
    ///
    /// - Entities created by the delta become a **new trailing shard**
    ///   owning the appended global-id range (owned locals dense in
    ///   global order by construction) — existing shards never gain owned
    ///   entities, so their owned prefixes stay intact.
    /// - A new triple is stored in the shard(s) owning its endpoints;
    ///   endpoints foreign to a shard are interned there as ghosts
    ///   (`local ≥ owned_count`, so the owned-prefix invariant holds no
    ///   matter the interning order).
    /// - New predicates/types/categories are declared into **every**
    ///   shard first, in first-appearance order — the same global order
    ///   the single-graph apply interns them — so dictionaries stay
    ///   replicated and dense ids stay identical across shards.
    /// - Facet statements (types, categories, labels, literals, aliases)
    ///   go only to the owning shard, keeping context extents disjoint.
    ///
    /// Work is proportional to the delta and the touched rows (existing
    /// shards are patched via [`KnowledgeGraph::apply`]); the receipt is
    /// a *global-id* [`AppliedDelta`] equivalent to the one the
    /// single-graph apply of the same batch returns.
    ///
    /// A **one-shard** store is the exception: it owns every entity and
    /// holds no ghosts, so the whole batch splices into its graph in
    /// place ([`KnowledgeGraph::apply`]) and new entities extend its
    /// owned range — it never grows a tail. On a partition every batch
    /// that introduces entities appends one shard, so a long sequence of
    /// tiny deltas grows the shard count (and the per-query shard
    /// iteration) linearly — re-partition via [`ShardedGraph::compact`]
    /// when [`CompactionPolicy`] judges the tail degenerate.
    ///
    /// Retract ops are routed to the shard(s) storing the statement —
    /// the subject's *and* object's home shards for a triple (cross-shard
    /// triples live in both), every ghost-holding shard for a label, and
    /// the owning shard for the other facets — with ghost-consistent
    /// semantics: a ghost copy loses exactly the statements its owned
    /// copy loses, so the decomposition invariants survive retraction.
    /// Like the single-graph apply, the batch is split into maximal
    /// same-polarity runs and the generation is bumped exactly once.
    pub fn apply(&mut self, delta: &DeltaBatch) -> AppliedDelta {
        if self.shards.len() == 1 {
            return self.apply_in_place(delta);
        }
        let mut acc = DeltaAcc::new(self.router.entity_count() as u32);
        for (retract, run) in polarity_runs(delta.ops()) {
            if retract {
                self.apply_retract_run(run, &mut acc);
            } else {
                self.apply_insert_run(run, &mut acc);
            }
        }
        self.generation += 1;
        acc.finish(self.generation, self.router.entity_count() as u32)
    }

    /// [`ShardedGraph::apply`] on a one-shard store: local ids are
    /// global ids, so the graph's own receipt is the global receipt and
    /// new entities simply join the owned range.
    fn apply_in_place(&mut self, delta: &DeltaBatch) -> AppliedDelta {
        let shard = &mut self.shards[0];
        let graph = std::sync::Arc::make_mut(&mut shard.graph);
        let mut applied = graph.apply(delta);
        let minted = applied.new_entities.len();
        shard
            .local_to_global
            .extend(applied.new_entities.clone().map(EntityId::new));
        shard.owned_count += minted;
        self.relation_count = graph.relation_count();
        self.triple_count = graph.triple_count();
        self.router.extend_last(minted as u32);
        self.generation += 1;
        applied.generation = self.generation;
        applied
    }

    /// One maximal insert-polarity run of [`ShardedGraph::apply`].
    fn apply_insert_run(&mut self, ops: &[DeltaOp], acc: &mut DeltaAcc) {
        use std::collections::{HashMap, HashSet};

        let old_count = self.router.entity_count() as u32;
        let n_old_shards = self.shards.len();
        let mut work: u64 = 0;

        // ---- phase A (read-only): resolve names, dedup statements ------
        let mut name_ids: HashMap<&str, EntityId> = HashMap::new();
        let mut new_names: Vec<&str> = Vec::new();
        let mut next_id = old_count;
        macro_rules! resolve {
            ($name:expr) => {{
                let name: &str = $name;
                match name_ids.get(name) {
                    Some(&id) => id,
                    None => {
                        let id = match self.entity(name) {
                            Some(id) => id,
                            None => {
                                let id = EntityId::new(next_id);
                                next_id += 1;
                                new_names.push(name);
                                id
                            }
                        };
                        name_ids.insert(name, id);
                        id
                    }
                }
            }};
        }
        // dictionary terms: known ids, or provisional dense ids for new
        // names in first-appearance order (matches the single-graph
        // interning order)
        let mut pred_ids: HashMap<&str, u32> = HashMap::new();
        let mut new_preds: Vec<&str> = Vec::new();
        let mut type_known: HashMap<&str, Option<TypeId>> = HashMap::new();
        let mut new_types: Vec<&str> = Vec::new();
        let mut cat_known: HashMap<&str, Option<CategoryId>> = HashMap::new();
        let mut new_cats: Vec<&str> = Vec::new();

        let old_pred_count = self.predicate_count() as u32;
        // statements kept after deduplication, as indexes into ops
        let mut kept_triples: Vec<(EntityId, u32, EntityId, usize)> = Vec::new();
        let mut kept_types: Vec<(EntityId, usize)> = Vec::new();
        let mut kept_cats: Vec<(EntityId, usize)> = Vec::new();
        let mut seen_triples: HashSet<(EntityId, u32, EntityId)> = HashSet::new();
        let mut seen_types: HashSet<(EntityId, &str)> = HashSet::new();
        let mut seen_cats: HashSet<(EntityId, &str)> = HashSet::new();
        let mut touched_types: Vec<TypeId> = Vec::new();
        let mut touched_categories: Vec<CategoryId> = Vec::new();
        let mut n_literals = 0usize;

        for (idx, op) in ops.iter().enumerate() {
            match op {
                DeltaOp::Entity { name } => {
                    resolve!(name.as_str());
                }
                DeltaOp::DeclarePredicate { name } => {
                    if !pred_ids.contains_key(name.as_str()) && self.predicate(name).is_none() {
                        pred_ids.insert(name.as_str(), old_pred_count + new_preds.len() as u32);
                        new_preds.push(name.as_str());
                    }
                }
                DeltaOp::DeclareType { name } => {
                    let entry = type_known
                        .entry(name.as_str())
                        .or_insert_with(|| self.type_id(name));
                    if entry.is_none() && !new_types.contains(&name.as_str()) {
                        new_types.push(name.as_str());
                    }
                }
                DeltaOp::DeclareCategory { name } => {
                    let entry = cat_known
                        .entry(name.as_str())
                        .or_insert_with(|| self.category_id(name));
                    if entry.is_none() && !new_cats.contains(&name.as_str()) {
                        new_cats.push(name.as_str());
                    }
                }
                DeltaOp::Triple { s, p, o } => {
                    let s = resolve!(s.as_str());
                    let o = resolve!(o.as_str());
                    let pid = match pred_ids.get(p.as_str()) {
                        Some(&pid) => pid,
                        None => {
                            let pid = match self.predicate(p) {
                                Some(pid) => pid.raw(),
                                None => {
                                    let pid = old_pred_count + new_preds.len() as u32;
                                    new_preds.push(p.as_str());
                                    pid
                                }
                            };
                            pred_ids.insert(p.as_str(), pid);
                            pid
                        }
                    };
                    if !seen_triples.insert((s, pid, o)) {
                        continue; // duplicate within the batch
                    }
                    // already stored? check the subject's home shard
                    if s.raw() < old_count && o.raw() < old_count && pid < old_pred_count {
                        let (shard, local_s) = self.home(s);
                        if let Some(local_o) = shard.to_local(o) {
                            if shard
                                .graph()
                                .objects(local_s, PredicateId::new(pid))
                                .binary_search(&local_o)
                                .is_ok()
                            {
                                continue;
                            }
                        }
                    }
                    kept_triples.push((s, pid, o, idx));
                }
                DeltaOp::LiteralTriple { s, p, .. } => {
                    resolve!(s.as_str());
                    if !pred_ids.contains_key(p.as_str()) && self.predicate(p).is_none() {
                        pred_ids.insert(p.as_str(), old_pred_count + new_preds.len() as u32);
                        new_preds.push(p.as_str());
                    }
                    n_literals += 1;
                }
                DeltaOp::Typed { entity, type_name } => {
                    let e = resolve!(entity.as_str());
                    let known = *type_known
                        .entry(type_name.as_str())
                        .or_insert_with(|| self.type_id(type_name));
                    if known.is_none() && !new_types.contains(&type_name.as_str()) {
                        new_types.push(type_name.as_str());
                    }
                    if !seen_types.insert((e, type_name.as_str())) {
                        continue;
                    }
                    if let Some(t) = known {
                        if e.raw() < old_count && self.has_type(e, t) {
                            continue;
                        }
                    }
                    kept_types.push((e, idx));
                    let t = known.unwrap_or_else(|| {
                        TypeId::new(
                            self.type_count() as u32
                                + new_types
                                    .iter()
                                    .position(|&n| n == type_name.as_str())
                                    .expect("new type recorded")
                                    as u32,
                        )
                    });
                    touched_types.push(t);
                }
                DeltaOp::Categorized { entity, category } => {
                    let e = resolve!(entity.as_str());
                    let known = *cat_known
                        .entry(category.as_str())
                        .or_insert_with(|| self.category_id(category));
                    if known.is_none() && !new_cats.contains(&category.as_str()) {
                        new_cats.push(category.as_str());
                    }
                    if !seen_cats.insert((e, category.as_str())) {
                        continue;
                    }
                    if let Some(c) = known {
                        if e.raw() < old_count && self.has_category(e, c) {
                            continue;
                        }
                    }
                    kept_cats.push((e, idx));
                    let c = known.unwrap_or_else(|| {
                        CategoryId::new(
                            self.category_count() as u32
                                + new_cats
                                    .iter()
                                    .position(|&n| n == category.as_str())
                                    .expect("new category recorded")
                                    as u32,
                        )
                    });
                    touched_categories.push(c);
                }
                DeltaOp::Label { entity, .. } => {
                    resolve!(entity.as_str());
                }
                DeltaOp::Redirect { target, .. } | DeltaOp::Disambiguation { target, .. } => {
                    resolve!(target.as_str());
                }
                _ => unreachable!("retract op in an insert-polarity run"),
            }
        }

        // ---- phase B: distribute to per-shard name-based deltas --------
        let new_shard_index = n_old_shards; // where new entities live
        let shard_of = |e: EntityId| -> usize {
            if e.raw() < old_count {
                self.router.shard_of(e)
            } else {
                new_shard_index
            }
        };
        let mut local_deltas: Vec<DeltaBatch> =
            vec![DeltaBatch::new(); n_old_shards + usize::from(!new_names.is_empty())];
        // every shard learns the new dictionary terms first, in global
        // (first-appearance) order
        for d in &mut local_deltas {
            for &p in &new_preds {
                d.declare_predicate(p);
            }
            for &t in &new_types {
                d.declare_type(t);
            }
            for &c in &new_cats {
                d.declare_category(c);
            }
        }
        // shards that gain a ghost copy of an entity through this batch's
        // cross-shard triples — every `(shard, foreign endpoint)` pair
        let mut ghost_sites: HashSet<(usize, EntityId)> = HashSet::new();
        for &(s, _, o, _) in &kept_triples {
            let (ss, os) = (shard_of(s), shard_of(o));
            if ss != os {
                ghost_sites.insert((ss, o));
                ghost_sites.insert((os, s));
            }
        }
        // Fresh ghosts of *existing* entities copy their current label
        // first (before any batch statement), so shard-local display
        // names stay globally consistent; label ops in the batch itself
        // are routed to ghost holders below and override these.
        let mut label_seeds: Vec<(usize, EntityId)> = ghost_sites
            .iter()
            .filter(|&&(i, e)| {
                i < n_old_shards && e.raw() < old_count && self.shards[i].to_local(e).is_none()
            })
            .copied()
            .collect();
        label_seeds.sort_unstable_by_key(|&(i, e)| (i, e));
        for (i, e) in label_seeds {
            if let Some(l) = self.label_of(e) {
                local_deltas[i].label(self.entity_name_of(e), l);
            }
        }
        let route_facet = |e: EntityId, op: &DeltaOp, deltas: &mut Vec<DeltaBatch>| {
            deltas[shard_of(e)].push(op.clone());
        };
        let triple_by_idx: HashMap<usize, (EntityId, EntityId)> = kept_triples
            .iter()
            .map(|&(s, _, o, i)| (i, (s, o)))
            .collect();
        let kept_type_idx: HashSet<usize> = kept_types.iter().map(|&(_, i)| i).collect();
        let kept_cat_idx: HashSet<usize> = kept_cats.iter().map(|&(_, i)| i).collect();
        for (idx, op) in ops.iter().enumerate() {
            match op {
                DeltaOp::Triple { .. } => {
                    let Some(&(s, o)) = triple_by_idx.get(&idx) else {
                        continue;
                    };
                    let (ss, os) = (shard_of(s), shard_of(o));
                    local_deltas[ss].push(op.clone());
                    if os != ss {
                        local_deltas[os].push(op.clone());
                    }
                }
                DeltaOp::LiteralTriple { s, .. } => {
                    let e = name_ids[s.as_str()];
                    route_facet(e, op, &mut local_deltas);
                }
                DeltaOp::Typed { entity, .. } => {
                    if kept_type_idx.contains(&idx) {
                        route_facet(name_ids[entity.as_str()], op, &mut local_deltas);
                    }
                }
                DeltaOp::Categorized { entity, .. } => {
                    if kept_cat_idx.contains(&idx) {
                        route_facet(name_ids[entity.as_str()], op, &mut local_deltas);
                    }
                }
                DeltaOp::Label { entity, .. } => {
                    // the owning shard, plus every shard holding (or
                    // gaining) a ghost copy — ghost labels must track the
                    // owned label for display names to stay consistent
                    let e = name_ids[entity.as_str()];
                    let home = shard_of(e);
                    local_deltas[home].push(op.clone());
                    for (j, local) in local_deltas.iter_mut().enumerate() {
                        if j == home {
                            continue;
                        }
                        let holds_ghost = (j < n_old_shards
                            && e.raw() < old_count
                            && self.shards[j].to_local(e).is_some())
                            || ghost_sites.contains(&(j, e));
                        if holds_ghost {
                            local.push(op.clone());
                        }
                    }
                }
                DeltaOp::Redirect { target, .. } | DeltaOp::Disambiguation { target, .. } => {
                    route_facet(name_ids[target.as_str()], op, &mut local_deltas);
                }
                DeltaOp::Entity { name } => {
                    // new entities are declared in their owning shard so
                    // bare declarations still materialize
                    let e = name_ids[name.as_str()];
                    if e.raw() >= old_count {
                        local_deltas[new_shard_index].push(op.clone());
                    }
                }
                DeltaOp::DeclarePredicate { .. }
                | DeltaOp::DeclareType { .. }
                | DeltaOp::DeclareCategory { .. } => {}
                _ => unreachable!("retract op in an insert-polarity run"),
            }
        }

        // ---- phase C: patch existing shards, then build the new one ----
        #[allow(clippy::needless_range_loop)]
        for i in 0..n_old_shards {
            if local_deltas[i].is_empty() {
                continue;
            }
            let applied =
                std::sync::Arc::make_mut(&mut self.shards[i].graph).apply(&local_deltas[i]);
            work += applied.work;
            for raw in applied.new_entities.clone() {
                let local = EntityId::new(raw);
                let global = name_ids[self.shards[i].graph.entity_name(local)];
                self.shards[i].push_ghost(global, local);
            }
        }
        if !new_names.is_empty() {
            let delta_ops = &local_deltas[new_shard_index];
            let mut b = KgBuilder::new();
            // replicate the updated dictionaries (shard 0 already applied
            // the declares) in global order
            crate::delta::replicate_dictionaries(&mut b, self.shards[0].graph());
            // owned entities: the appended global range, dense and in
            // ascending global order
            let mut local_to_global: Vec<EntityId> = Vec::with_capacity(new_names.len());
            for (i, &name) in new_names.iter().enumerate() {
                let le = b.entity(name);
                debug_assert_eq!(le.raw() as usize, i, "owned locals must be dense");
                local_to_global.push(EntityId::new(old_count + i as u32));
            }
            // ghosts: old entities referenced by this shard's statements,
            // ascending in global id
            let mut ghosts: Vec<EntityId> = delta_ops
                .ops()
                .iter()
                .filter_map(|op| match op {
                    DeltaOp::Triple { s, o, .. } => {
                        let (s, o) = (name_ids[s.as_str()], name_ids[o.as_str()]);
                        if s.raw() < old_count {
                            Some(s)
                        } else if o.raw() < old_count {
                            Some(o)
                        } else {
                            None
                        }
                    }
                    _ => None,
                })
                .collect();
            ghosts.sort_unstable();
            ghosts.dedup();
            for &g in &ghosts {
                let le = b.entity(&self.entity_name_of(g));
                // ghost copies of pre-existing entities keep their label
                // (batch label ops replayed below override)
                if let Some(l) = self.label_of(g) {
                    b.label(le, l);
                }
                local_to_global.push(g);
            }
            // replay the shard's statements through the builder
            local_deltas[new_shard_index].apply_to_builder(&mut b);
            let graph = b.finish();
            work += graph.triple_count() as u64;
            let ghost_lookup = local_to_global[new_names.len()..]
                .iter()
                .enumerate()
                .map(|(i, &g)| (g, EntityId::new((new_names.len() + i) as u32)))
                .collect();
            self.shards.push(GraphShard {
                graph: std::sync::Arc::new(graph),
                local_to_global,
                ghost_lookup,
                base: old_count,
                owned_count: new_names.len(),
            });
            self.router.append_range(new_names.len() as u32);
        }

        // ---- receipt ---------------------------------------------------
        self.relation_count += kept_triples.len();
        self.triple_count += kept_triples.len() + n_literals + kept_types.len() + kept_cats.len();

        acc.touched_out.extend(
            kept_triples
                .iter()
                .map(|&(s, p, ..)| (s, PredicateId::new(p))),
        );
        acc.touched_in.extend(
            kept_triples
                .iter()
                .map(|&(_, p, o, _)| (o, PredicateId::new(p))),
        );
        acc.touched_types.extend(touched_types);
        acc.touched_categories.extend(touched_categories);
        acc.added_relations += kept_triples.len();
        acc.added_literals += n_literals;
        acc.work += work;
    }

    /// One maximal retract-polarity run of [`ShardedGraph::apply`].
    ///
    /// Names are resolved lookup-only (a retract never interns — an
    /// unknown name makes the op a no-op) and presence is checked against
    /// the subject's home shard *before* routing, so the receipt counts
    /// exactly what the equivalent single-graph apply would count. Each
    /// surviving op is re-issued as a name-based retract to the shard(s)
    /// storing the statement: both endpoint home shards for a triple
    /// (cross-shard triples live in both), every ghost-holding shard for
    /// a label, and the owning shard for the other facets.
    fn apply_retract_run(&mut self, ops: &[DeltaOp], acc: &mut DeltaAcc) {
        use std::collections::HashSet;

        let n_shards = self.shards.len();
        let mut local_deltas: Vec<DeltaBatch> = vec![DeltaBatch::new(); n_shards];
        let mut seen_triples: HashSet<(EntityId, PredicateId, EntityId)> = HashSet::new();
        let mut seen_literals: HashSet<(EntityId, PredicateId, &Literal)> = HashSet::new();
        let mut seen_types: HashSet<(EntityId, TypeId)> = HashSet::new();
        let mut seen_cats: HashSet<(EntityId, CategoryId)> = HashSet::new();
        let mut seen_labels: HashSet<(EntityId, &str)> = HashSet::new();
        let mut seen_aliases: HashSet<(&str, EntityId)> = HashSet::new();
        let mut removed_relations = 0usize;
        let mut removed_literals = 0usize;
        let mut removed_assertions = 0usize;
        // label/alias clears: counted in the receipt's assertion total but
        // never in `triple_count`, which tracks statements only
        let mut removed_meta = 0usize;
        for op in ops {
            acc.work += 1;
            match op {
                DeltaOp::RetractTriple { s, p, o } => {
                    let (Some(sg), Some(pg), Some(og)) =
                        (self.entity(s), self.predicate(p), self.entity(o))
                    else {
                        continue;
                    };
                    if !seen_triples.insert((sg, pg, og)) {
                        continue;
                    }
                    // stored? a stored triple forces a copy of the object
                    // in the subject's home shard
                    let (shard, ls) = self.home(sg);
                    let Some(lo) = shard.to_local(og) else {
                        continue;
                    };
                    if shard.graph().objects(ls, pg).binary_search(&lo).is_err() {
                        continue;
                    }
                    let (hs, ho) = (self.router.shard_of(sg), self.router.shard_of(og));
                    local_deltas[hs].retract_triple(s, p, o);
                    if ho != hs {
                        local_deltas[ho].retract_triple(s, p, o);
                    }
                    acc.touched_out.push((sg, pg));
                    acc.touched_in.push((og, pg));
                    removed_relations += 1;
                }
                DeltaOp::RetractLiteral { s, p, value } => {
                    let (Some(sg), Some(pg)) = (self.entity(s), self.predicate(p)) else {
                        continue;
                    };
                    if !seen_literals.insert((sg, pg, value)) {
                        continue;
                    }
                    // a retract removes every stored copy whose value
                    // matches; literals live only in the subject's home
                    let (shard, ls) = self.home(sg);
                    let copies = shard
                        .graph()
                        .literals(ls)
                        .filter(|&(q, v)| q == pg && v == value)
                        .count();
                    if copies == 0 {
                        continue;
                    }
                    local_deltas[self.router.shard_of(sg)].retract_literal(s, p, value.clone());
                    removed_literals += copies;
                }
                DeltaOp::RetractTyped { entity, type_name } => {
                    let (Some(e), Some(t)) = (self.entity(entity), self.type_id(type_name)) else {
                        continue;
                    };
                    if !seen_types.insert((e, t)) || !self.has_type(e, t) {
                        continue;
                    }
                    local_deltas[self.router.shard_of(e)].retract_typed(entity, type_name);
                    acc.touched_types.push(t);
                    removed_assertions += 1;
                }
                DeltaOp::RetractCategorized { entity, category } => {
                    let (Some(e), Some(c)) = (self.entity(entity), self.category_id(category))
                    else {
                        continue;
                    };
                    if !seen_cats.insert((e, c)) || !self.has_category(e, c) {
                        continue;
                    }
                    local_deltas[self.router.shard_of(e)].retract_categorized(entity, category);
                    acc.touched_categories.push(c);
                    removed_assertions += 1;
                }
                DeltaOp::RetractLabel { entity, label } => {
                    // every holder — the home shard plus ghost copies,
                    // whose labels track the owned label
                    let Some(e) = self.entity(entity) else {
                        continue;
                    };
                    if !seen_labels.insert((e, label.as_str())) {
                        continue;
                    }
                    let (shard, local) = self.home(e);
                    if shard.graph().label(local) != Some(label.as_str()) {
                        continue;
                    }
                    for (j, local) in local_deltas.iter_mut().enumerate() {
                        if self.shards[j].to_local(e).is_some() {
                            local.retract_label(entity, label);
                        }
                    }
                    removed_meta += 1;
                }
                DeltaOp::RetractAlias { alias, target } => {
                    let Some(t) = self.entity(target) else {
                        continue;
                    };
                    if !seen_aliases.insert((alias.as_str(), t)) {
                        continue;
                    }
                    let (shard, local) = self.home(t);
                    if shard
                        .graph()
                        .aliases(local)
                        .binary_search_by(|a| a.as_str().cmp(alias))
                        .is_err()
                    {
                        continue;
                    }
                    local_deltas[self.router.shard_of(t)].retract_alias(alias, target);
                    removed_meta += 1;
                }
                _ => unreachable!("insert op in a retract-polarity run"),
            }
        }

        for (i, d) in local_deltas.iter().enumerate() {
            if d.is_empty() {
                continue;
            }
            let applied = std::sync::Arc::make_mut(&mut self.shards[i].graph).apply(d);
            acc.work += applied.work;
        }

        acc.removed_relations += removed_relations;
        acc.removed_literals += removed_literals;
        acc.removed_assertions += removed_assertions + removed_meta;
        self.relation_count -= removed_relations;
        self.triple_count -= removed_relations + removed_literals + removed_assertions;
    }

    /// Number of tombstoned statements held across all shards since
    /// their last compaction. A relation retracted from a cross-shard
    /// pair is tombstoned in both endpoint shards, so this can
    /// over-count relative to [`KnowledgeGraph::tombstone_count`] on the
    /// equivalent single graph — acceptable for the compaction-pressure
    /// heuristic it feeds, which only needs "how much dead mass is held".
    pub fn tombstone_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.graph().tombstone_count())
            .sum()
    }

    /// Label of a global entity, read from its home shard (helper for
    /// the ghost-label replication in the apply path).
    fn label_of(&self, e: EntityId) -> Option<String> {
        let (shard, local) = self.home(e);
        shard.graph().label(local).map(str::to_owned)
    }

    /// Name of a global entity without borrowing `self` mutably twice
    /// (helper for the apply path).
    fn entity_name_of(&self, e: EntityId) -> String {
        let (shard, local) = self.home(e);
        shard.graph.entity_name(local).to_owned()
    }

    /// The entity → shard router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// All shards, in range order.
    pub fn shards(&self) -> &[GraphShard] {
        &self.shards
    }

    /// Shard `i`.
    pub fn shard(&self, i: usize) -> &GraphShard {
        &self.shards[i]
    }

    /// The shard owning global entity `e`.
    pub fn shard_of(&self, e: EntityId) -> usize {
        self.router.shard_of(e)
    }

    /// The owning shard of `e` together with `e`'s local id there.
    pub fn home(&self, e: EntityId) -> (&GraphShard, EntityId) {
        let shard = &self.shards[self.router.shard_of(e)];
        let local = EntityId::new(e.raw() - shard.base);
        (shard, local)
    }

    // ---- global-id read API --------------------------------------------

    /// Total number of entities across all shards (ghosts not counted).
    pub fn entity_count(&self) -> usize {
        self.router.entity_count()
    }

    /// Number of distinct predicates (identical in every shard).
    pub fn predicate_count(&self) -> usize {
        self.dict().predicate_count()
    }

    /// Number of distinct types (identical in every shard).
    pub fn type_count(&self) -> usize {
        self.dict().type_count()
    }

    /// Number of distinct categories (identical in every shard).
    pub fn category_count(&self) -> usize {
        self.dict().category_count()
    }

    /// Entity-to-entity statements in the source graph (cross-shard
    /// triples counted once).
    pub fn relation_count(&self) -> usize {
        self.relation_count
    }

    /// Total statements in the source graph.
    pub fn triple_count(&self) -> usize {
        self.triple_count
    }

    /// Any shard's graph, used for the replicated dictionaries (shard 0
    /// always exists: the router clamps to ≥ 1 shard).
    fn dict(&self) -> &KnowledgeGraph {
        self.shards[0].graph()
    }

    /// Resolve an entity by name (scans shards; owned interning means the
    /// home shard always knows the name).
    pub fn entity(&self, name: &str) -> Option<EntityId> {
        self.shards
            .iter()
            .find_map(|s| s.graph.entity(name).map(|local| s.to_global(local)))
    }

    /// The canonical name of a global entity.
    pub fn entity_name(&self, e: EntityId) -> &str {
        let (shard, local) = self.home(e);
        shard.graph.entity_name(local)
    }

    /// The `rdfs:label` of a global entity, if set.
    pub fn label(&self, e: EntityId) -> Option<&str> {
        let (shard, local) = self.home(e);
        shard.graph.label(local)
    }

    /// Display name (label, else name with underscores as spaces).
    pub fn display_name(&self, e: EntityId) -> String {
        let (shard, local) = self.home(e);
        shard.graph.display_name(local)
    }

    /// Redirect/disambiguation aliases of a global entity.
    pub fn aliases(&self, e: EntityId) -> &[String] {
        let (shard, local) = self.home(e);
        shard.graph.aliases(local)
    }

    /// Literal statements of a global entity.
    pub fn literals(&self, e: EntityId) -> impl Iterator<Item = (PredicateId, &Literal)> + '_ {
        let (shard, local) = self.home(e);
        shard.graph.literals(local)
    }

    /// Resolve a predicate by name.
    pub fn predicate(&self, name: &str) -> Option<PredicateId> {
        self.dict().predicate(name)
    }

    /// The name of a predicate.
    pub fn predicate_name(&self, p: PredicateId) -> &str {
        self.dict().predicate_name(p)
    }

    /// Resolve a type by name.
    pub fn type_id(&self, name: &str) -> Option<TypeId> {
        self.dict().type_id(name)
    }

    /// The name of a type.
    pub fn type_name(&self, t: TypeId) -> &str {
        self.dict().type_name(t)
    }

    /// Resolve a category by name.
    pub fn category_id(&self, name: &str) -> Option<CategoryId> {
        self.dict().category_id(name)
    }

    /// The name of a category.
    pub fn category_name(&self, c: CategoryId) -> &str {
        self.dict().category_name(c)
    }

    /// Types of a global entity (type ids are global in every shard).
    pub fn types_of(&self, e: EntityId) -> impl Iterator<Item = TypeId> + '_ {
        let (shard, local) = self.home(e);
        shard.graph.types_of(local)
    }

    /// Categories of a global entity.
    pub fn categories_of(&self, e: EntityId) -> impl Iterator<Item = CategoryId> + '_ {
        let (shard, local) = self.home(e);
        shard.graph.categories_of(local)
    }

    /// Whether global entity `e` has type `t`.
    pub fn has_type(&self, e: EntityId, t: TypeId) -> bool {
        let (shard, local) = self.home(e);
        shard.graph.has_type(local, t)
    }

    /// Whether global entity `e` is in category `c`.
    pub fn has_category(&self, e: EntityId, c: CategoryId) -> bool {
        let (shard, local) = self.home(e);
        shard.graph.has_category(local, c)
    }

    /// Degree of a global entity (its home shard stores every incident
    /// triple, so this equals the single-graph degree).
    pub fn degree(&self, e: EntityId) -> usize {
        let (shard, local) = self.home(e);
        shard.graph.degree(local)
    }

    /// Outgoing `(predicate, object)` pairs of a global entity, with
    /// objects remapped to global ids. Complete (home shard stores every
    /// incident triple), but ordered by the shard-local target ids.
    pub fn out_edges(&self, e: EntityId) -> Vec<(PredicateId, EntityId)> {
        let (shard, local) = self.home(e);
        shard
            .graph
            .out_edges(local)
            .map(|(p, o)| (p, shard.to_global(o)))
            .collect()
    }

    /// Incoming `(predicate, subject)` pairs of a global entity, subjects
    /// remapped to global ids.
    pub fn in_edges(&self, e: EntityId) -> Vec<(PredicateId, EntityId)> {
        let (shard, local) = self.home(e);
        shard
            .graph
            .in_edges(local)
            .map(|(p, s)| (p, shard.to_global(s)))
            .collect()
    }

    /// Global extent of type `t`: per-shard owned extents (disjoint and
    /// locally sorted) concatenated in shard order — globally sorted.
    pub fn type_extent(&self, t: TypeId) -> Vec<EntityId> {
        let mut out = Vec::with_capacity(self.type_extent_len(t));
        for shard in &self.shards {
            shard.extend_owned_global(shard.graph.type_extent(t), &mut out);
        }
        out
    }

    /// `‖E(t)‖` without materializing the extent.
    pub fn type_extent_len(&self, t: TypeId) -> usize {
        self.shards
            .iter()
            .map(|s| s.graph.type_extent(t).len())
            .sum()
    }

    /// Global extent of category `c`, sorted.
    pub fn category_extent(&self, c: CategoryId) -> Vec<EntityId> {
        let mut out = Vec::with_capacity(self.category_extent_len(c));
        for shard in &self.shards {
            shard.extend_owned_global(shard.graph.category_extent(c), &mut out);
        }
        out
    }

    /// `‖E(c)‖` without materializing the extent.
    pub fn category_extent_len(&self, c: CategoryId) -> usize {
        self.shards
            .iter()
            .map(|s| s.graph.category_extent(c).len())
            .sum()
    }

    /// Iterate every global entity id.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> {
        (0..self.entity_count() as u32).map(EntityId::new)
    }

    /// Iterate every type id.
    pub fn type_ids(&self) -> impl Iterator<Item = TypeId> {
        (0..self.type_count() as u32).map(TypeId::new)
    }
}

/// When is a grown [`ShardedGraph`] degenerate enough to re-partition?
///
/// Every delta batch that introduces entities appends one trailing
/// shard, so a long-lived live graph accumulates small tail shards and
/// every query's per-shard fan-out grows with them. The policy triggers
/// compaction on either axis:
///
/// - **Count**: more than `max_trailing` trailing shards — per-query
///   iteration cost, independent of how small the shards are.
/// - **Mass**: trailing shards own more than `max_tail_fraction` of all
///   entities — the uniform-range partition no longer reflects the data.
/// - **Tombstones**: retracted statements hold more than
///   `max_tombstone_fraction` of the stored rows — a retract-heavy store
///   must compact to return the dead rows' memory even if it never grew
///   a single trailing shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Maximum tolerated number of trailing shards.
    pub max_trailing: usize,
    /// Maximum tolerated fraction of entities owned by trailing shards.
    pub max_tail_fraction: f64,
    /// Maximum tolerated fraction of stored rows that are tombstones
    /// (retracted but not yet reclaimed). `1.0` disables the axis.
    pub max_tombstone_fraction: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self {
            max_trailing: 8,
            max_tail_fraction: 0.1,
            max_tombstone_fraction: 0.25,
        }
    }
}

impl CompactionPolicy {
    /// Whether `sg` has degenerated past this policy's thresholds and
    /// should be re-partitioned via [`ShardedGraph::compact`].
    pub fn needs_compaction(&self, sg: &ShardedGraph) -> bool {
        let trailing = sg.trailing_shard_count();
        trailing > self.max_trailing
            || (trailing > 0 && sg.tail_owned_fraction() > self.max_tail_fraction)
            || self.tombstones_trip(sg.tombstone_count(), sg.triple_count())
    }

    /// Whether `tombstones` dead rows against `live` surviving rows trip
    /// the tombstone-mass axis.
    fn tombstones_trip(&self, tombstones: usize, live: usize) -> bool {
        tombstones > 0
            && (tombstones as f64) / ((live + tombstones) as f64) > self.max_tombstone_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate, DatagenConfig};
    use std::collections::BTreeSet;

    #[test]
    fn router_uniform_covers_the_id_space() {
        let r = ShardRouter::uniform(10, 3);
        assert_eq!(r.shard_count(), 3);
        assert_eq!(r.entity_count(), 10);
        let mut seen = 0;
        for i in 0..3 {
            seen += r.range(i).len();
        }
        assert_eq!(seen, 10);
        assert_eq!(r.shard_of(EntityId::new(0)), 0);
        assert_eq!(r.shard_of(EntityId::new(9)), 2);
        for g in 0..10u32 {
            let s = r.shard_of(EntityId::new(g));
            assert!(r.range(s).contains(&g));
        }
    }

    #[test]
    fn router_tolerates_more_shards_than_entities() {
        let r = ShardRouter::uniform(2, 5);
        assert_eq!(r.shard_count(), 5);
        assert_eq!(r.range(0).len() + r.range(1).len(), 2);
        for i in 2..5 {
            assert!(r.range(i).is_empty(), "trailing shards are empty");
        }
    }

    #[test]
    fn router_zero_entities() {
        let r = ShardRouter::uniform(0, 4);
        assert_eq!(r.shard_count(), 4);
        assert_eq!(r.entity_count(), 0);
        for i in 0..4 {
            assert!(r.range(i).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "outside the routed id space")]
    fn router_rejects_out_of_space_ids() {
        ShardRouter::uniform(3, 2).shard_of(EntityId::new(3));
    }

    fn all_triples(kg: &KnowledgeGraph) -> BTreeSet<(EntityId, PredicateId, EntityId)> {
        kg.entity_triples()
            .map(|t| (t.subject, t.predicate, t.object.as_entity().unwrap()))
            .collect()
    }

    #[test]
    fn shards_reconstruct_the_source_graph() {
        let kg = generate(&DatagenConfig::tiny());
        for n in [1, 2, 3, 4] {
            let sg = ShardedGraph::from_graph(&kg, n);
            assert_eq!(sg.shard_count(), n);
            assert_eq!(sg.entity_count(), kg.entity_count());
            assert_eq!(sg.relation_count(), kg.relation_count());
            // union of remapped shard triples = source triples
            let mut got: BTreeSet<(EntityId, PredicateId, EntityId)> = BTreeSet::new();
            for shard in sg.shards() {
                for t in shard.graph().entity_triples() {
                    got.insert((
                        shard.to_global(t.subject),
                        t.predicate,
                        shard.to_global(t.object.as_entity().unwrap()),
                    ));
                }
            }
            assert_eq!(got, all_triples(&kg), "n={n}");
        }
    }

    #[test]
    fn ghosts_carry_labels_from_construction_and_appends() {
        // construction: every ghost's label must equal the source label
        let kg = generate(&DatagenConfig::tiny());
        let sg = ShardedGraph::from_graph(&kg, 3);
        for shard in sg.shards() {
            for local in shard.graph().entity_ids() {
                let global = shard.to_global(local);
                assert_eq!(
                    shard.graph().label(local),
                    kg.label(global),
                    "label of {} (owned={})",
                    kg.entity_name(global),
                    shard.is_owned(local)
                );
            }
        }

        // appends: a delta that (a) references an existing labelled
        // entity cross-shard, (b) creates a labelled entity that ghosts
        // into an old shard, and (c) relabels an existing entity that
        // has ghost copies
        let mut sg = sg;
        let e0 = EntityId::new(0);
        let last = EntityId::new(kg.entity_count() as u32 - 1);
        let mut d = DeltaBatch::new();
        d.triple("Brand_New_Node", "linksTo", kg.entity_name(e0).to_owned())
            .triple("Brand_New_Node", "linksTo", kg.entity_name(last).to_owned())
            // a cross-shard triple between two pre-existing entities mints
            // fresh ghosts in old shards, which must copy the current label
            .triple(
                kg.entity_name(e0).to_owned(),
                "linksTo",
                kg.entity_name(last).to_owned(),
            )
            .label("Brand_New_Node", "A Very Fresh Label")
            .label(kg.entity_name(e0).to_owned(), "Renamed Zero");
        sg.apply(&d);
        let mut union = kg.clone();
        union.apply(&d);
        for shard in sg.shards() {
            for local in shard.graph().entity_ids() {
                let global = shard.to_global(local);
                assert_eq!(
                    shard.graph().label(local),
                    union.label(global),
                    "post-append label of {} (owned={})",
                    union.entity_name(global),
                    shard.is_owned(local)
                );
            }
        }
    }

    #[test]
    fn dictionaries_are_replicated_in_global_order() {
        let kg = generate(&DatagenConfig::tiny());
        let sg = ShardedGraph::from_graph(&kg, 3);
        for shard in sg.shards() {
            for p in kg.predicate_ids() {
                assert_eq!(shard.graph().predicate_name(p), kg.predicate_name(p));
            }
            for t in kg.type_ids() {
                assert_eq!(shard.graph().type_name(t), kg.type_name(t));
            }
            for c in kg.category_ids() {
                assert_eq!(shard.graph().category_name(c), kg.category_name(c));
            }
        }
    }

    #[test]
    fn home_shard_has_complete_rows_and_facets() {
        let kg = generate(&DatagenConfig::tiny());
        let sg = ShardedGraph::from_graph(&kg, 4);
        for e in kg.entity_ids() {
            assert_eq!(sg.entity_name(e), kg.entity_name(e));
            assert_eq!(sg.label(e), kg.label(e));
            assert_eq!(
                sg.degree(e),
                kg.degree(e),
                "degree of {}",
                kg.entity_name(e)
            );
            assert_eq!(sg.aliases(e), kg.aliases(e));
            let mut got: Vec<_> = sg.out_edges(e);
            let mut want: Vec<_> = kg.out_edges(e).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
            let got_types: Vec<TypeId> = sg.types_of(e).collect();
            let want_types: Vec<TypeId> = kg.types_of(e).collect();
            assert_eq!(got_types, want_types, "type ids must be global");
            let got_cats: Vec<CategoryId> = sg.categories_of(e).collect();
            let want_cats: Vec<CategoryId> = kg.categories_of(e).collect();
            assert_eq!(got_cats, want_cats);
            assert_eq!(sg.literals(e).count(), kg.literals(e).count());
        }
    }

    #[test]
    fn global_extents_match_and_stay_sorted() {
        let kg = generate(&DatagenConfig::tiny());
        for n in [1, 2, 5] {
            let sg = ShardedGraph::from_graph(&kg, n);
            for t in kg.type_ids() {
                let ext = sg.type_extent(t);
                assert_eq!(ext, kg.type_extent(t).to_vec(), "type extent n={n}");
                assert_eq!(sg.type_extent_len(t), ext.len());
            }
            for c in kg.category_ids() {
                assert_eq!(sg.category_extent(c), kg.category_extent(c).to_vec());
            }
        }
    }

    #[test]
    fn owned_prefix_invariant_holds_for_feature_extents() {
        // every per-shard extent slice (CSR run) has its owned members as
        // a prefix, and summed owned prefixes equal the global extent
        let kg = generate(&DatagenConfig::tiny());
        let sg = ShardedGraph::from_graph(&kg, 3);
        for e in kg.entity_ids() {
            for p in kg.out_predicates(e) {
                let global_len = kg.objects(e, p).len();
                let mut sum = 0;
                for shard in sg.shards() {
                    if let Some(local) = shard.to_local(e) {
                        let extent = shard.graph().objects(local, p);
                        let k = shard.owned_prefix_len(extent);
                        assert!(
                            extent[..k].iter().all(|&x| shard.is_owned(x))
                                && extent[k..].iter().all(|&x| !shard.is_owned(x)),
                            "owned members must form a prefix"
                        );
                        sum += k;
                    }
                }
                assert_eq!(sum, global_len, "entity {} pred {}", e, p);
            }
        }
    }

    #[test]
    fn local_global_roundtrip() {
        let kg = generate(&DatagenConfig::tiny());
        let sg = ShardedGraph::from_graph(&kg, 4);
        for e in kg.entity_ids() {
            let (shard, local) = sg.home(e);
            assert!(shard.is_owned(local));
            assert_eq!(shard.to_global(local), e);
            assert_eq!(shard.to_local(e), Some(local));
        }
        // ghosts roundtrip too
        for shard in sg.shards() {
            for local_raw in 0..shard.graph().entity_count() as u32 {
                let local = EntityId::new(local_raw);
                let g = shard.to_global(local);
                assert_eq!(shard.to_local(g), Some(local));
            }
        }
    }

    #[test]
    fn compaction_policy_edge_cases() {
        let kg = generate(&DatagenConfig::tiny());
        let fresh = ShardedGraph::from_graph(&kg, 2);
        let n0 = kg.entity_name(EntityId::new(0)).to_owned();

        // zero trailing shards: no policy — however aggressive — fires
        for policy in [
            CompactionPolicy {
                max_trailing: 0,
                max_tail_fraction: 0.0,
                max_tombstone_fraction: 0.0,
            },
            CompactionPolicy::default(),
        ] {
            assert!(
                !policy.needs_compaction(&fresh),
                "a fresh partition must never need compaction ({policy:?})"
            );
        }

        // max_trailing == 0: a single trailing shard trips the count axis
        // even when the tail-mass axis is disabled
        let mut grown = fresh.clone();
        let mut d = DeltaBatch::new();
        d.triple("Policy_Edge_Entity", "policy_pred", &n0);
        grown.apply(&d);
        assert_eq!(grown.trailing_shard_count(), 1);
        let count_only = CompactionPolicy {
            max_trailing: 0,
            max_tail_fraction: 1.0,
            max_tombstone_fraction: 1.0,
        };
        assert!(count_only.needs_compaction(&grown));

        // max_tail_fraction == 0.0: any positive tail mass trips the mass
        // axis even when the count axis tolerates the tail
        let mass_only = CompactionPolicy {
            max_trailing: usize::MAX,
            max_tail_fraction: 0.0,
            max_tombstone_fraction: 1.0,
        };
        assert!(grown.tail_owned_fraction() > 0.0);
        assert!(mass_only.needs_compaction(&grown));

        // a trailing shard owning *zero* entities (facet-only delta on
        // existing entities never appends one, so force the edge with an
        // empty-range trailing shard via a no-new-entity apply) — the
        // mass axis must not fire on an all-ghost tail
        let mut facet_only = fresh.clone();
        let mut d2 = DeltaBatch::new();
        d2.typed(&n0, "Policy_Edge_Type");
        facet_only.apply(&d2);
        assert_eq!(
            facet_only.trailing_shard_count(),
            0,
            "facet-only deltas must not mint trailing shards"
        );
        assert!(!mass_only.needs_compaction(&facet_only));
        assert_eq!(facet_only.tail_owned_fraction(), 0.0);
    }

    #[test]
    fn empty_shards_are_valid() {
        let kg = generate(&DatagenConfig::tiny());
        let n = kg.entity_count() + 3; // guarantees empty trailing shards
        let sg = ShardedGraph::from_graph(&kg, n);
        assert!(sg.shards().iter().any(|s| s.owned_count() == 0));
        for t in kg.type_ids() {
            assert_eq!(sg.type_extent(t), kg.type_extent(t).to_vec());
        }
    }

    mod apply {
        use super::*;
        use crate::delta::DeltaBatch;

        fn delta(kg: &KnowledgeGraph) -> DeltaBatch {
            let n0 = kg.entity_name(EntityId::new(0)).to_owned();
            let n1 = kg.entity_name(EntityId::new(1)).to_owned();
            let last = kg
                .entity_name(EntityId::new(kg.entity_count() as u32 - 1))
                .to_owned();
            let mut d = DeltaBatch::new();
            d.triple(&n0, "collaborated_with", &n1)
                .triple("Fresh_Entity_A", "collaborated_with", &n0)
                .triple("Fresh_Entity_A", "collaborated_with", "Fresh_Entity_B")
                .triple(&last, "collaborated_with", "Fresh_Entity_B")
                .typed("Fresh_Entity_A", "Film")
                .typed(&n0, "Freshly_Minted_Type")
                .categorized("Fresh_Entity_B", "Fresh category")
                .label("Fresh_Entity_A", "Fresh Entity A")
                .literal("Fresh_Entity_A", "runtime", Literal::integer(99))
                .redirect("FreshA", "Fresh_Entity_A");
            d
        }

        #[test]
        fn sharded_apply_matches_single_graph_apply() {
            let mut single = generate(&DatagenConfig::tiny());
            let d = delta(&single);
            let receipt_single = single.apply(&d);

            for n in [1, 2, 3, 4] {
                let base = generate(&DatagenConfig::tiny());
                let mut sg = ShardedGraph::from_graph(&base, n);
                let receipt = sg.apply(&d);
                // one shard splices in place; a partition appends one
                // trailing shard for the minted entities
                assert_eq!(sg.trailing_shard_count(), usize::from(n > 1), "n={n}");

                // identical receipts (modulo the work counter)
                assert_eq!(receipt.new_entities, receipt_single.new_entities, "n={n}");
                assert_eq!(receipt.touched_out, receipt_single.touched_out, "n={n}");
                assert_eq!(receipt.touched_in, receipt_single.touched_in, "n={n}");
                assert_eq!(receipt.touched_types, receipt_single.touched_types);
                assert_eq!(
                    receipt.touched_categories,
                    receipt_single.touched_categories
                );
                assert_eq!(receipt.added_relations, receipt_single.added_relations);
                assert_eq!(receipt.added_literals, receipt_single.added_literals);

                // identical logical graph
                assert_eq!(sg.entity_count(), single.entity_count(), "n={n}");
                assert_eq!(sg.relation_count(), single.relation_count());
                assert_eq!(sg.triple_count(), single.triple_count());
                assert_eq!(sg.predicate_count(), single.predicate_count());
                assert_eq!(sg.type_count(), single.type_count());
                assert_eq!(sg.category_count(), single.category_count());
                let mut got: BTreeSet<(EntityId, PredicateId, EntityId)> = BTreeSet::new();
                for shard in sg.shards() {
                    for t in shard.graph().entity_triples() {
                        got.insert((
                            shard.to_global(t.subject),
                            t.predicate,
                            shard.to_global(t.object.as_entity().unwrap()),
                        ));
                    }
                }
                assert_eq!(got, all_triples(&single), "n={n}");
                for e in single.entity_ids() {
                    assert_eq!(sg.entity_name(e), single.entity_name(e));
                    assert_eq!(sg.label(e), single.label(e));
                    assert_eq!(sg.degree(e), single.degree(e), "degree n={n} e={e}");
                    assert_eq!(sg.aliases(e), single.aliases(e));
                    let st: Vec<TypeId> = sg.types_of(e).collect();
                    let kt: Vec<TypeId> = single.types_of(e).collect();
                    assert_eq!(st, kt);
                    assert_eq!(sg.literals(e).count(), single.literals(e).count());
                }
                for t in single.type_ids() {
                    assert_eq!(sg.type_extent(t), single.type_extent(t).to_vec());
                }
                for c in single.category_ids() {
                    assert_eq!(sg.category_extent(c), single.category_extent(c).to_vec());
                }
                // dictionaries still replicated in every shard
                for shard in sg.shards() {
                    for p in single.predicate_ids() {
                        assert_eq!(shard.graph().predicate_name(p), single.predicate_name(p));
                    }
                    for t in single.type_ids() {
                        assert_eq!(shard.graph().type_name(t), single.type_name(t));
                    }
                }
                // remap invariants hold on every shard, including the
                // appended one
                for shard in sg.shards() {
                    for local_raw in 0..shard.graph().entity_count() as u32 {
                        let local = EntityId::new(local_raw);
                        let g = shard.to_global(local);
                        assert_eq!(shard.to_local(g), Some(local), "roundtrip n={n}");
                    }
                }
                for e in single.entity_ids() {
                    for p in single.out_predicates(e) {
                        let mut sum = 0;
                        for shard in sg.shards() {
                            if let Some(local) = shard.to_local(e) {
                                let extent = shard.graph().objects(local, p);
                                let k = shard.owned_prefix_len(extent);
                                assert!(
                                    extent[..k].iter().all(|&x| shard.is_owned(x))
                                        && extent[k..].iter().all(|&x| !shard.is_owned(x)),
                                    "owned-prefix invariant broken after apply (n={n})"
                                );
                                sum += k;
                            }
                        }
                        assert_eq!(sum, single.objects(e, p).len(), "n={n} e={e} p={p}");
                    }
                }
            }
        }

        /// Retract-polarity twin of
        /// [`sharded_apply_matches_single_graph_apply`]: a mixed retract
        /// batch — cross-shard triple, facets, label, alias, literal, an
        /// in-batch duplicate, and unknown names — produces the identical
        /// receipt and the identical logical graph at every shard count.
        #[test]
        fn sharded_retract_matches_single_graph_retract() {
            let mut single = generate(&DatagenConfig::tiny());
            let grow = delta(&single);
            single.apply(&grow);
            let n0 = single.entity_name(EntityId::new(0)).to_owned();
            let n1 = single.entity_name(EntityId::new(1)).to_owned();
            let mut d = DeltaBatch::new();
            d.retract_triple(&n0, "collaborated_with", &n1)
                .retract_triple("Fresh_Entity_A", "collaborated_with", "Fresh_Entity_B")
                .retract_triple(&n0, "collaborated_with", &n1) // duplicate
                .retract_typed("Fresh_Entity_A", "Film")
                .retract_categorized("Fresh_Entity_B", "Fresh category")
                .retract_label("Fresh_Entity_A", "Fresh Entity A")
                .retract_alias("FreshA", "Fresh_Entity_A")
                .retract_literal("Fresh_Entity_A", "runtime", Literal::integer(99))
                .retract_triple("No_Such_Entity", "collaborated_with", &n0)
                .retract_typed(&n0, "No_Such_Type");
            let receipt_single = single.apply(&d);
            assert_eq!(receipt_single.removed_relations, 2);

            for n in [1, 2, 3, 4] {
                let base = generate(&DatagenConfig::tiny());
                let mut sg = ShardedGraph::from_graph(&base, n);
                sg.apply(&grow);
                let receipt = sg.apply(&d);

                assert_eq!(receipt.new_entities, receipt_single.new_entities, "n={n}");
                assert_eq!(receipt.touched_out, receipt_single.touched_out, "n={n}");
                assert_eq!(receipt.touched_in, receipt_single.touched_in, "n={n}");
                assert_eq!(receipt.touched_types, receipt_single.touched_types);
                assert_eq!(
                    receipt.touched_categories,
                    receipt_single.touched_categories
                );
                assert_eq!(receipt.removed_relations, receipt_single.removed_relations);
                assert_eq!(receipt.removed_literals, receipt_single.removed_literals);
                assert_eq!(
                    receipt.removed_assertions,
                    receipt_single.removed_assertions
                );
                assert_eq!(receipt.generation, receipt_single.generation);

                assert_eq!(sg.entity_count(), single.entity_count(), "n={n}");
                assert_eq!(sg.relation_count(), single.relation_count());
                assert_eq!(sg.triple_count(), single.triple_count());
                let mut got: BTreeSet<(EntityId, PredicateId, EntityId)> = BTreeSet::new();
                for shard in sg.shards() {
                    for t in shard.graph().entity_triples() {
                        got.insert((
                            shard.to_global(t.subject),
                            t.predicate,
                            shard.to_global(t.object.as_entity().unwrap()),
                        ));
                    }
                }
                assert_eq!(got, all_triples(&single), "n={n}");
                for e in single.entity_ids() {
                    assert_eq!(sg.label(e), single.label(e));
                    assert_eq!(sg.degree(e), single.degree(e), "degree n={n} e={e}");
                    assert_eq!(sg.aliases(e), single.aliases(e));
                    let st: Vec<TypeId> = sg.types_of(e).collect();
                    let kt: Vec<TypeId> = single.types_of(e).collect();
                    assert_eq!(st, kt);
                    assert_eq!(sg.literals(e).count(), single.literals(e).count());
                }
                for t in single.type_ids() {
                    assert_eq!(sg.type_extent(t), single.type_extent(t).to_vec());
                }
                for c in single.category_ids() {
                    assert_eq!(sg.category_extent(c), single.category_extent(c).to_vec());
                }
                assert!(sg.tombstone_count() > 0, "n={n}");
                // compaction reclaims every tombstone without changing
                // the logical graph
                let compacted = sg.compact(n);
                assert_eq!(compacted.tombstone_count(), 0, "n={n}");
                assert_eq!(compacted.relation_count(), single.relation_count());
                assert_eq!(compacted.triple_count(), single.triple_count());
            }
        }

        /// A retract-only workload on a store that never grew a trailing
        /// shard must still trip the policy once the tombstone fraction
        /// passes the threshold (the satellite bugfix: dead rows count
        /// toward compaction pressure).
        #[test]
        fn retract_only_workload_trips_the_policy() {
            let kg = generate(&DatagenConfig::tiny());
            let mut sg = ShardedGraph::from_graph(&kg, 2);
            let policy = CompactionPolicy::default();
            assert!(!policy.needs_compaction(&sg));

            // retract edges until >25% of stored rows are dead
            let mut d = DeltaBatch::new();
            let victims: Vec<_> = kg
                .entity_triples()
                .take(kg.triple_count() / 3 + 1)
                .collect();
            for t in &victims {
                d.retract_triple(
                    kg.entity_name(t.subject),
                    kg.predicate_name(t.predicate),
                    kg.entity_name(t.object.as_entity().unwrap()),
                );
            }
            sg.apply(&d);
            assert_eq!(sg.trailing_shard_count(), 0, "retracts mint no shards");
            assert!(sg.tombstone_count() >= victims.len());
            assert!(
                policy.needs_compaction(&sg),
                "tombstone mass must trip the default policy"
            );
            let compacted = sg.compact(2);
            assert_eq!(compacted.tombstone_count(), 0);
            assert!(!policy.needs_compaction(&compacted));
        }

        #[test]
        fn ghost_lookup_stays_sorted_under_out_of_order_interning() {
            // deltas intern ghosts in delta-op order, which is arbitrary
            // in global-id space; the lookup vector must stay sorted on
            // insert so GraphShard::to_local stays a binary search
            let base = generate(&DatagenConfig::tiny());
            let mut sg = ShardedGraph::from_graph(&base, 2);
            let n0 = base.entity_count() as u32;
            // apply 1: mint four fresh entities (a trailing shard owning
            // globals n0..n0+4, guaranteed unknown to shards 0 and 1)
            let mut d1 = DeltaBatch::new();
            for i in 0..4 {
                d1.entity(format!("Fresh_Ghost_{i}"));
            }
            sg.apply(&d1);
            // apply 2: wire them to shard-0-owned objects with subjects
            // in shuffled global order — shard 0 interns the four ghosts
            // as n0+3, n0+1, n0, n0+2 and must sorted-insert each
            let ghosts_before = sg.shard(0).ghost_lookup.len();
            let mut d2 = DeltaBatch::new();
            for (i, fresh) in [3u32, 1, 0, 2].into_iter().enumerate() {
                let o = base.entity_name(EntityId::new(i as u32)).to_owned();
                d2.triple(format!("Fresh_Ghost_{fresh}"), "p_ghostly", o);
            }
            sg.apply(&d2);

            assert_eq!(
                sg.shard(0).ghost_lookup.len(),
                ghosts_before + 4,
                "shard 0 must have interned the four appended ghosts"
            );
            for (i, shard) in sg.shards().iter().enumerate() {
                assert!(
                    shard.ghost_lookup.windows(2).all(|w| w[0].0 < w[1].0),
                    "shard {i}: ghost_lookup must stay strictly sorted by global id"
                );
                // binary-search lookup round-trips every interned local
                for raw in 0..shard.graph().entity_count() as u32 {
                    let local = EntityId::new(raw);
                    let g = shard.to_global(local);
                    assert_eq!(shard.to_local(g), Some(local), "shard {i}");
                }
            }
            // every out-of-order edge landed and is reachable globally
            let p = sg.predicate("p_ghostly").unwrap();
            for (i, fresh) in [3u32, 1, 0, 2].into_iter().enumerate() {
                let s = EntityId::new(n0 + fresh);
                assert_eq!(sg.entity(&format!("Fresh_Ghost_{fresh}")), Some(s));
                let o = EntityId::new(i as u32);
                assert!(sg.out_edges(s).contains(&(p, o)), "edge {i} lost");
            }
        }

        #[test]
        fn repeated_appends_accumulate() {
            let base = generate(&DatagenConfig::tiny());
            let mut sg = ShardedGraph::from_graph(&base, 2);
            let shard_count_before = sg.shard_count();
            let mut d1 = DeltaBatch::new();
            d1.triple("x1", "p_new", "x2");
            let r1 = sg.apply(&d1);
            assert_eq!(sg.generation(), 1);
            assert_eq!(r1.new_entities.len(), 2);
            assert_eq!(sg.shard_count(), shard_count_before + 1);
            let x1 = sg.entity("x1").expect("appended entity routable");
            assert_eq!(sg.degree(x1), 1);
            // second delta connects an appended entity to an old one
            let old = base.entity_name(EntityId::new(0)).to_owned();
            let mut d2 = DeltaBatch::new();
            d2.triple("x1", "p_new", &old);
            let r2 = sg.apply(&d2);
            assert_eq!(sg.generation(), 2);
            assert!(r2.new_entities.is_empty());
            assert_eq!(sg.degree(x1), 2);
            let p = sg.predicate("p_new").unwrap();
            let out = sg.out_edges(x1);
            assert_eq!(out.len(), 2);
            assert!(out.iter().all(|&(q, _)| q == p));
        }
    }

    mod compaction {
        use super::*;
        use crate::delta::DeltaBatch;
        use crate::ntriples;

        /// Grow a 2-shard graph by three entity-minting deltas.
        fn grown() -> (KnowledgeGraph, ShardedGraph, Vec<DeltaBatch>) {
            let base = generate(&DatagenConfig::tiny());
            let mut sg = ShardedGraph::from_graph(&base, 2);
            let mut deltas = Vec::new();
            for i in 0..3 {
                let old = base.entity_name(EntityId::new(i)).to_owned();
                let mut d = DeltaBatch::new();
                d.triple(format!("Grown_{i}"), "grew_from", &old)
                    .typed(format!("Grown_{i}"), "Film")
                    .label(format!("Grown_{i}"), format!("Grown {i}"));
                sg.apply(&d);
                deltas.push(d);
            }
            (base, sg, deltas)
        }

        #[test]
        fn to_graph_rebuilds_the_logical_union_id_identically() {
            let (base, sg, deltas) = grown();
            let union = {
                let mut kg = base;
                for d in &deltas {
                    kg.apply(d);
                }
                kg
            };
            let rebuilt = sg.to_graph();
            assert_eq!(rebuilt.entity_count(), union.entity_count());
            assert_eq!(rebuilt.relation_count(), union.relation_count());
            assert_eq!(rebuilt.triple_count(), union.triple_count());
            // the N-Triples serialization is a full logical fingerprint
            assert_eq!(ntriples::serialize(&rebuilt), ntriples::serialize(&union));
            // and ids are preserved, not just names
            for e in union.entity_ids() {
                assert_eq!(rebuilt.entity_name(e), union.entity_name(e));
            }
            for p in union.predicate_ids() {
                assert_eq!(rebuilt.predicate_name(p), union.predicate_name(p));
            }
        }

        #[test]
        fn compact_repartitions_without_changing_answers() {
            let (base, sg, deltas) = grown();
            assert_eq!(sg.trailing_shard_count(), 3);
            assert_eq!(sg.generation(), 3);
            let union = {
                let mut kg = base;
                for d in &deltas {
                    kg.apply(d);
                }
                kg
            };
            for target in [1usize, 2, 3, 4] {
                let compacted = sg.compact(target);
                assert_eq!(compacted.shard_count(), target);
                assert_eq!(compacted.trailing_shard_count(), 0);
                assert_eq!(compacted.generation(), 4, "new generation stamp");
                assert_eq!(compacted.entity_count(), union.entity_count());
                assert_eq!(compacted.relation_count(), union.relation_count());
                assert_eq!(compacted.triple_count(), union.triple_count());
                let mut got: BTreeSet<(EntityId, PredicateId, EntityId)> = BTreeSet::new();
                for shard in compacted.shards() {
                    for t in shard.graph().entity_triples() {
                        got.insert((
                            shard.to_global(t.subject),
                            t.predicate,
                            shard.to_global(t.object.as_entity().unwrap()),
                        ));
                    }
                }
                assert_eq!(got, all_triples(&union), "target={target}");
                for t in union.type_ids() {
                    assert_eq!(compacted.type_extent(t), union.type_extent(t).to_vec());
                }
                for e in union.entity_ids() {
                    assert_eq!(compacted.degree(e), union.degree(e));
                    assert_eq!(compacted.label(e), union.label(e));
                }
            }
        }

        #[test]
        fn compacted_graph_keeps_accepting_deltas() {
            let (_, sg, _) = grown();
            let mut compacted = sg.compact(2);
            let mut d = DeltaBatch::new();
            d.triple("Post_Compact", "grew_from", "Grown_0");
            compacted.apply(&d);
            assert_eq!(compacted.generation(), 5);
            assert_eq!(compacted.trailing_shard_count(), 1);
            let e = compacted.entity("Post_Compact").unwrap();
            assert_eq!(compacted.degree(e), 1);
        }

        #[test]
        fn policy_triggers_on_count_or_mass() {
            let (_, sg, _) = grown();
            // 3 trailing shards, each owning 1 of ~hundreds of entities
            let by_count = CompactionPolicy {
                max_trailing: 2,
                max_tail_fraction: 1.0,
                max_tombstone_fraction: 1.0,
            };
            assert!(by_count.needs_compaction(&sg));
            let by_mass = CompactionPolicy {
                max_trailing: usize::MAX,
                max_tail_fraction: 0.0,
                max_tombstone_fraction: 1.0,
            };
            assert!(by_mass.needs_compaction(&sg));
            let tolerant = CompactionPolicy {
                max_trailing: 8,
                max_tail_fraction: 0.5,
                max_tombstone_fraction: 1.0,
            };
            assert!(!tolerant.needs_compaction(&sg));
            // a fresh partition never needs compaction
            assert!(!CompactionPolicy::default().needs_compaction(&sg.compact(2)));
        }
    }

    #[test]
    fn entity_lookup_by_name() {
        let kg = generate(&DatagenConfig::tiny());
        let sg = ShardedGraph::from_graph(&kg, 3);
        for e in kg.entity_ids().take(50) {
            assert_eq!(sg.entity(kg.entity_name(e)), Some(e));
        }
        assert_eq!(sg.entity("no_such_entity_name"), None);
    }
}
