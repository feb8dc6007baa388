//! Delta batches: the unit of incremental growth for a live graph.
//!
//! A [`DeltaBatch`] is an ordered list of name-based statements — new
//! triples, literal statements, type/category assertions, labels and
//! aliases, possibly introducing brand-new entities, predicates, types or
//! categories. Names (not ids) keep a batch independent of any particular
//! graph's dictionary state, so one batch can be applied to a single
//! [`KnowledgeGraph`], to a
//! [`ShardedGraph`](crate::ShardedGraph), or replayed into a fresh
//! [`KgBuilder`] — and because the ops are *ordered*, all three intern new
//! dictionary terms in exactly the same global order, which is what makes
//! append-then-query bit-identical to rebuild-then-query (the
//! equivalence model, `tests/equivalence.rs`, enforces this).
//!
//! [`AppliedDelta`] is the receipt an apply returns: the new-entity id
//! range, exactly which feature extents and context extents were touched
//! (the cache-invalidation handle for the execution layers), and a work
//! counter proving the apply did splice-sized work, not a rebuild.

use crate::id::{CategoryId, EntityId, PredicateId, TypeId};
use crate::store::{KgBuilder, KnowledgeGraph};
use crate::triple::Literal;

/// One ordered statement of a [`DeltaBatch`]. All references are by name;
/// unknown names intern new dictionary entries on apply, in op order.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Declare an entity (intern its name without asserting anything).
    Entity {
        /// Entity name.
        name: String,
    },
    /// Declare a predicate (intern without asserting any statement) —
    /// used by the sharded apply to replicate new dictionary terms into
    /// every shard in global order.
    DeclarePredicate {
        /// Predicate name.
        name: String,
    },
    /// Declare a type without asserting membership.
    DeclareType {
        /// Type name.
        name: String,
    },
    /// Declare a category without asserting membership.
    DeclareCategory {
        /// Category name.
        name: String,
    },
    /// An entity-to-entity statement `<s, p, o>`.
    Triple {
        /// Subject entity name.
        s: String,
        /// Predicate name.
        p: String,
        /// Object entity name.
        o: String,
    },
    /// A literal-valued statement `<s, p, "value">`.
    LiteralTriple {
        /// Subject entity name.
        s: String,
        /// Predicate name.
        p: String,
        /// Literal value.
        value: Literal,
    },
    /// An `rdf:type` assertion.
    Typed {
        /// Entity name.
        entity: String,
        /// Type name.
        type_name: String,
    },
    /// A category (`dct:subject`) assertion.
    Categorized {
        /// Entity name.
        entity: String,
        /// Category name.
        category: String,
    },
    /// Set (or overwrite) the `rdfs:label` of an entity.
    Label {
        /// Entity name.
        entity: String,
        /// The label.
        label: String,
    },
    /// A redirect alias pointing at `target`.
    Redirect {
        /// The alias string.
        alias: String,
        /// Target entity name.
        target: String,
    },
    /// A disambiguation alias pointing at `target`.
    Disambiguation {
        /// The alias string.
        alias: String,
        /// Target entity name.
        target: String,
    },
    /// Retract an entity-to-entity statement `<s, p, o>`. Retractions
    /// never intern new dictionary terms: naming an unknown entity or
    /// predicate makes the op a no-op, so an apply containing retracts
    /// assigns exactly the same dense ids as one without them.
    RetractTriple {
        /// Subject entity name.
        s: String,
        /// Predicate name.
        p: String,
        /// Object entity name.
        o: String,
    },
    /// Retract **all** matching copies of a literal-valued statement
    /// `<s, p, "value">` (literal statements are not deduplicated on
    /// insert, so the retract removes every copy).
    RetractLiteral {
        /// Subject entity name.
        s: String,
        /// Predicate name.
        p: String,
        /// Literal value.
        value: Literal,
    },
    /// Retract an `rdf:type` assertion.
    RetractTyped {
        /// Entity name.
        entity: String,
        /// Type name.
        type_name: String,
    },
    /// Retract a category (`dct:subject`) assertion.
    RetractCategorized {
        /// Entity name.
        entity: String,
        /// Category name.
        category: String,
    },
    /// Clear the `rdfs:label` of an entity, but only if the current
    /// label equals `label` (so a stale retraction cannot clobber a
    /// newer label set after it was issued).
    RetractLabel {
        /// Entity name.
        entity: String,
        /// The label value being retracted.
        label: String,
    },
    /// Remove a redirect/disambiguation alias from `target`'s alias
    /// list (no-op if absent).
    RetractAlias {
        /// The alias string.
        alias: String,
        /// Target entity name.
        target: String,
    },
}

impl DeltaOp {
    /// Whether this op removes statements rather than adding them. An
    /// apply splits its batch into maximal same-polarity runs and
    /// applies each run with the matching (insert or retract) pass.
    pub fn is_retract(&self) -> bool {
        matches!(
            self,
            DeltaOp::RetractTriple { .. }
                | DeltaOp::RetractLiteral { .. }
                | DeltaOp::RetractTyped { .. }
                | DeltaOp::RetractCategorized { .. }
                | DeltaOp::RetractLabel { .. }
                | DeltaOp::RetractAlias { .. }
        )
    }
}

/// An ordered batch of statements to append to a live graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    ops: Vec<DeltaOp>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The ordered ops.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Drop all ops, keeping the allocation (for batch reuse in
    /// streaming ingestion loops).
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// Push a raw op.
    pub fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    /// Declare an entity by name.
    pub fn entity(&mut self, name: impl Into<String>) -> &mut Self {
        self.ops.push(DeltaOp::Entity { name: name.into() });
        self
    }

    /// Declare a predicate by name (dictionary entry only).
    pub fn declare_predicate(&mut self, name: impl Into<String>) -> &mut Self {
        self.ops
            .push(DeltaOp::DeclarePredicate { name: name.into() });
        self
    }

    /// Declare a type by name (dictionary entry only).
    pub fn declare_type(&mut self, name: impl Into<String>) -> &mut Self {
        self.ops.push(DeltaOp::DeclareType { name: name.into() });
        self
    }

    /// Declare a category by name (dictionary entry only).
    pub fn declare_category(&mut self, name: impl Into<String>) -> &mut Self {
        self.ops
            .push(DeltaOp::DeclareCategory { name: name.into() });
        self
    }

    /// Add an entity-to-entity statement `<s, p, o>`.
    pub fn triple(
        &mut self,
        s: impl Into<String>,
        p: impl Into<String>,
        o: impl Into<String>,
    ) -> &mut Self {
        self.ops.push(DeltaOp::Triple {
            s: s.into(),
            p: p.into(),
            o: o.into(),
        });
        self
    }

    /// Add a literal-valued statement.
    pub fn literal(
        &mut self,
        s: impl Into<String>,
        p: impl Into<String>,
        value: Literal,
    ) -> &mut Self {
        self.ops.push(DeltaOp::LiteralTriple {
            s: s.into(),
            p: p.into(),
            value,
        });
        self
    }

    /// Assert `rdf:type` membership.
    pub fn typed(&mut self, entity: impl Into<String>, type_name: impl Into<String>) -> &mut Self {
        self.ops.push(DeltaOp::Typed {
            entity: entity.into(),
            type_name: type_name.into(),
        });
        self
    }

    /// Assert category membership.
    pub fn categorized(
        &mut self,
        entity: impl Into<String>,
        category: impl Into<String>,
    ) -> &mut Self {
        self.ops.push(DeltaOp::Categorized {
            entity: entity.into(),
            category: category.into(),
        });
        self
    }

    /// Set the label of an entity.
    pub fn label(&mut self, entity: impl Into<String>, label: impl Into<String>) -> &mut Self {
        self.ops.push(DeltaOp::Label {
            entity: entity.into(),
            label: label.into(),
        });
        self
    }

    /// Record a redirect alias.
    pub fn redirect(&mut self, alias: impl Into<String>, target: impl Into<String>) -> &mut Self {
        self.ops.push(DeltaOp::Redirect {
            alias: alias.into(),
            target: target.into(),
        });
        self
    }

    /// Record a disambiguation alias.
    pub fn disambiguation(
        &mut self,
        alias: impl Into<String>,
        target: impl Into<String>,
    ) -> &mut Self {
        self.ops.push(DeltaOp::Disambiguation {
            alias: alias.into(),
            target: target.into(),
        });
        self
    }

    /// Retract an entity-to-entity statement `<s, p, o>`.
    pub fn retract_triple(
        &mut self,
        s: impl Into<String>,
        p: impl Into<String>,
        o: impl Into<String>,
    ) -> &mut Self {
        self.ops.push(DeltaOp::RetractTriple {
            s: s.into(),
            p: p.into(),
            o: o.into(),
        });
        self
    }

    /// Retract all copies of a literal-valued statement.
    pub fn retract_literal(
        &mut self,
        s: impl Into<String>,
        p: impl Into<String>,
        value: Literal,
    ) -> &mut Self {
        self.ops.push(DeltaOp::RetractLiteral {
            s: s.into(),
            p: p.into(),
            value,
        });
        self
    }

    /// Retract an `rdf:type` assertion.
    pub fn retract_typed(
        &mut self,
        entity: impl Into<String>,
        type_name: impl Into<String>,
    ) -> &mut Self {
        self.ops.push(DeltaOp::RetractTyped {
            entity: entity.into(),
            type_name: type_name.into(),
        });
        self
    }

    /// Retract a category assertion.
    pub fn retract_categorized(
        &mut self,
        entity: impl Into<String>,
        category: impl Into<String>,
    ) -> &mut Self {
        self.ops.push(DeltaOp::RetractCategorized {
            entity: entity.into(),
            category: category.into(),
        });
        self
    }

    /// Retract the label of an entity (cleared only if it still equals
    /// `label`).
    pub fn retract_label(
        &mut self,
        entity: impl Into<String>,
        label: impl Into<String>,
    ) -> &mut Self {
        self.ops.push(DeltaOp::RetractLabel {
            entity: entity.into(),
            label: label.into(),
        });
        self
    }

    /// Retract an alias from `target`.
    pub fn retract_alias(
        &mut self,
        alias: impl Into<String>,
        target: impl Into<String>,
    ) -> &mut Self {
        self.ops.push(DeltaOp::RetractAlias {
            alias: alias.into(),
            target: target.into(),
        });
        self
    }

    /// Replay the batch into a [`KgBuilder`], interning names in exactly
    /// the order [`KnowledgeGraph::apply`] does — the rebuild side of the
    /// append/rebuild equivalence contract: building `base ops + delta
    /// ops` from scratch yields the same dense ids (and therefore
    /// bit-identical rankings) as building `base` and applying the delta.
    pub fn apply_to_builder(&self, b: &mut KgBuilder) {
        for op in &self.ops {
            match op {
                DeltaOp::Entity { name } => {
                    b.entity(name);
                }
                DeltaOp::DeclarePredicate { name } => {
                    b.predicate(name);
                }
                DeltaOp::DeclareType { name } => {
                    b.declare_type(name);
                }
                DeltaOp::DeclareCategory { name } => {
                    b.declare_category(name);
                }
                DeltaOp::Triple { s, p, o } => {
                    let s = b.entity(s);
                    let p = b.predicate(p);
                    let o = b.entity(o);
                    b.triple(s, p, o);
                }
                DeltaOp::LiteralTriple { s, p, value } => {
                    let s = b.entity(s);
                    let p = b.predicate(p);
                    b.literal_triple(s, p, value.clone());
                }
                DeltaOp::Typed { entity, type_name } => {
                    let e = b.entity(entity);
                    b.typed(e, type_name);
                }
                DeltaOp::Categorized { entity, category } => {
                    let e = b.entity(entity);
                    b.categorized(e, category);
                }
                DeltaOp::Label { entity, label } => {
                    let e = b.entity(entity);
                    b.label(e, label.clone());
                }
                DeltaOp::Redirect { alias, target } => {
                    let t = b.entity(target);
                    b.redirect(alias.clone(), t);
                }
                DeltaOp::Disambiguation { alias, target } => {
                    let t = b.entity(target);
                    b.disambiguation(alias.clone(), t);
                }
                DeltaOp::RetractTriple { .. }
                | DeltaOp::RetractLiteral { .. }
                | DeltaOp::RetractTyped { .. }
                | DeltaOp::RetractCategorized { .. }
                | DeltaOp::RetractLabel { .. }
                | DeltaOp::RetractAlias { .. } => {
                    panic!(
                        "retract ops cannot be replayed into an append-only builder; \
                         rebuild from the surviving statements instead"
                    );
                }
            }
        }
    }
}

/// Split `ops` into maximal runs of equal polarity (insert vs retract),
/// preserving order. An apply walks these runs so that a mixed batch
/// interleaves insert and retract passes in exactly op order — which is
/// what makes apply-then-query equivalent to replaying the ops against a
/// shadow statement set and rebuilding from the survivors.
pub(crate) fn polarity_runs(ops: &[DeltaOp]) -> Vec<(bool, &[DeltaOp])> {
    let mut runs = Vec::new();
    let mut start = 0usize;
    while start < ops.len() {
        let retract = ops[start].is_retract();
        let mut end = start + 1;
        while end < ops.len() && ops[end].is_retract() == retract {
            end += 1;
        }
        runs.push((retract, &ops[start..end]));
        start = end;
    }
    runs
}

/// The receipt of one applied [`DeltaBatch`]: what changed, and how much
/// work the splice did. This is the invalidation handle the execution
/// layers consume — a cached `p(π|c)` must be dropped iff `π`'s extent
/// (`touched_out`/`touched_in`) or `c`'s extent
/// (`touched_types`/`touched_categories`) was touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedDelta {
    /// The graph's generation after this apply (monotonic, starts at 0
    /// for a freshly built graph).
    pub generation: u64,
    /// Raw ids of entities created by this apply (`start..end`, appended
    /// at the top of the id space).
    pub new_entities: std::ops::Range<u32>,
    /// `(s, p)` pairs whose outgoing run gained edges — the extents of
    /// features `s:p→` that changed. Sorted, deduplicated.
    pub touched_out: Vec<(EntityId, PredicateId)>,
    /// `(o, p)` pairs whose incoming run gained edges — the extents of
    /// features `o:p←` that changed. Sorted, deduplicated.
    pub touched_in: Vec<(EntityId, PredicateId)>,
    /// Types whose extent grew. Sorted, deduplicated.
    pub touched_types: Vec<TypeId>,
    /// Categories whose extent grew. Sorted, deduplicated.
    pub touched_categories: Vec<CategoryId>,
    /// New (deduplicated) entity-to-entity statements actually inserted.
    pub added_relations: usize,
    /// Literal statements appended.
    pub added_literals: usize,
    /// Entity-to-entity statements tombstoned by retract ops.
    pub removed_relations: usize,
    /// Literal statements tombstoned by retract ops.
    pub removed_literals: usize,
    /// Type/category assertions tombstoned plus labels/aliases cleared
    /// by retract ops.
    pub removed_assertions: usize,
    /// Elements examined or moved while splicing rows and extents — the
    /// sublinearity witness: appending N triples to a graph of M ≫ N
    /// triples does work proportional to the touched rows, not to M.
    pub work: u64,
}

/// The receipt of one compaction pass over a live sharded graph: what
/// the partition looked like before and after the swap. Compaction is
/// answer-preserving (no extent changes), so unlike [`AppliedDelta`]
/// there is nothing to invalidate — the receipt records the new
/// generation stamp and the de-degeneration it bought.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionReceipt {
    /// The graph's generation after the compaction (monotonic with the
    /// append generations).
    pub generation: u64,
    /// Shard count before the re-partition.
    pub shards_before: usize,
    /// Shard count after (the requested target).
    pub shards_after: usize,
    /// How many trailing shards the pass absorbed.
    pub trailing_before: usize,
    /// Entities re-homed into the fresh entity-id-range partition (all
    /// of them — compaction is an offline rebuild).
    pub entities: usize,
    /// How many rebuild attempts the pass took. Always 1 for a
    /// stop-the-world pass; a concurrent pass retries (discarding the
    /// losing rebuild) every time an append moves the generation between
    /// its off-lock rebuild and its swap, so values above 1 count lost
    /// races — appends always win.
    pub attempts: u64,
}

/// Replicate `kg`'s predicate/type/category dictionaries into `b` in
/// global id order, so the builder's dense dictionary ids equal the
/// source graph's — the first half of every id-preserving rebuild
/// (incremental splits, growth splits, and the sharded union rebuild).
pub(crate) fn replicate_dictionaries(b: &mut KgBuilder, kg: &KnowledgeGraph) {
    for p in kg.predicate_ids() {
        b.predicate(kg.predicate_name(p));
    }
    for t in kg.type_ids() {
        b.declare_type(kg.type_name(t));
    }
    for c in kg.category_ids() {
        b.declare_category(kg.category_name(c));
    }
}

/// Intern `e`'s name into `b` and replay all its owned facets — label,
/// types, categories, literals, aliases — the per-entity half of every
/// id-preserving rebuild. One implementation, so a new facet kind added
/// to [`KnowledgeGraph`] has exactly one replay site to extend. Returns
/// the builder-local id (equal to `e` when entities are replayed in
/// ascending id order into a fresh builder).
pub(crate) fn replay_entity_facets(
    b: &mut KgBuilder,
    kg: &KnowledgeGraph,
    e: EntityId,
) -> EntityId {
    let le = b.entity(kg.entity_name(e));
    if let Some(l) = kg.label(e) {
        b.label(le, l);
    }
    for t in kg.types_of(e) {
        b.typed(le, kg.type_name(t));
    }
    for c in kg.categories_of(e) {
        b.categorized(le, kg.category_name(c));
    }
    for (p, lit) in kg.literals(e) {
        b.literal_triple(le, p, lit.clone());
    }
    for a in kg.aliases(e) {
        b.redirect(a.clone(), le);
    }
    le
}

/// Split a finished graph into a base graph plus a [`DeltaBatch`] holding
/// the trailing `1 - fraction` of its entity triples, such that applying
/// the delta to the base reproduces the original graph's extents (and
/// hence its rankings) exactly: the base interns every entity in id
/// order, so the dense id spaces agree.
pub fn split_incremental(kg: &KnowledgeGraph, fraction: f64) -> (KnowledgeGraph, DeltaBatch) {
    let mut b = KgBuilder::new();
    // replicate the full dictionaries and all per-entity facets in id
    // order, so base ids equal source ids
    replicate_dictionaries(&mut b, kg);
    for e in kg.entity_ids() {
        replay_entity_facets(&mut b, kg, e);
    }
    let triples: Vec<_> = kg.entity_triples().collect();
    let cut = ((triples.len() as f64) * fraction.clamp(0.0, 1.0)) as usize;
    for t in &triples[..cut] {
        let o = t.object.as_entity().expect("entity triple");
        b.triple(t.subject, t.predicate, o);
    }
    let mut delta = DeltaBatch::new();
    for t in &triples[cut..] {
        let o = t.object.as_entity().expect("entity triple");
        delta.triple(
            kg.entity_name(t.subject),
            kg.predicate_name(t.predicate),
            kg.entity_name(o),
        );
    }
    (b.finish(), delta)
}

/// Split a finished graph into a base over its first `base_fraction`
/// entities plus **up to** `batches` ordered [`DeltaBatch`]es that each
/// *mint* the next slice of entities — the growth workload that
/// degenerates a [`ShardedGraph`](crate::ShardedGraph): every returned
/// batch introduces new entities, so the sharded apply appends one
/// trailing shard per batch. When the trailing slice holds fewer
/// entities than `batches` the list is shorter (no empty batches are
/// fabricated), and `base_fraction >= 1.0` yields an id-identical clone
/// of `kg` with no batches at all — callers wanting exactly `n`
/// trailing shards should check `batches.len()`.
///
/// The base replicates the full dictionaries (so dense
/// predicate/type/category ids never move) and holds entities
/// `0..cut` with all their facets plus every triple internal to them.
/// Batch `k` declares its entity slice **in ascending id order first**
/// (so the appended global ids equal the source ids), then the slice's
/// facets, then every triple whose later endpoint falls in the slice.
/// Applying all batches therefore reproduces the source graph's extents
/// — and hence its rankings — exactly, through the single-graph or the
/// sharded apply alike.
pub fn split_growth(
    kg: &KnowledgeGraph,
    base_fraction: f64,
    batches: usize,
) -> (KnowledgeGraph, Vec<DeltaBatch>) {
    let n = kg.entity_count();
    let cut = (((n as f64) * base_fraction.clamp(0.0, 1.0)) as usize).min(n);
    let mut b = KgBuilder::new();
    replicate_dictionaries(&mut b, kg);
    for raw in 0..cut as u32 {
        replay_entity_facets(&mut b, kg, EntityId::new(raw));
    }
    let triples: Vec<_> = kg.entity_triples().collect();
    for t in &triples {
        let o = t.object.as_entity().expect("entity triple");
        if (t.subject.index() < cut) && (o.index() < cut) {
            b.triple(t.subject, t.predicate, o);
        }
    }
    let base = b.finish();

    let batches = batches.max(1);
    let chunk = (n - cut).div_ceil(batches).max(1);
    let mut out: Vec<DeltaBatch> = Vec::with_capacity(batches);
    let mut lo = cut;
    while lo < n {
        let hi = (lo + chunk).min(n);
        let mut d = DeltaBatch::new();
        // entities first, ascending, so appended ids equal source ids
        for raw in lo as u32..hi as u32 {
            d.entity(kg.entity_name(EntityId::new(raw)));
        }
        for raw in lo as u32..hi as u32 {
            let e = EntityId::new(raw);
            if let Some(l) = kg.label(e) {
                d.label(kg.entity_name(e), l);
            }
            for t in kg.types_of(e) {
                d.typed(kg.entity_name(e), kg.type_name(t));
            }
            for c in kg.categories_of(e) {
                d.categorized(kg.entity_name(e), kg.category_name(c));
            }
            for (p, lit) in kg.literals(e) {
                d.literal(kg.entity_name(e), kg.predicate_name(p), lit.clone());
            }
            for a in kg.aliases(e) {
                d.redirect(a.clone(), kg.entity_name(e));
            }
        }
        // triples become appendable when their later endpoint exists
        for t in &triples {
            let o = t.object.as_entity().expect("entity triple");
            let latest = t.subject.index().max(o.index());
            if (lo..hi).contains(&latest) {
                d.triple(
                    kg.entity_name(t.subject),
                    kg.predicate_name(t.predicate),
                    kg.entity_name(o),
                );
            }
        }
        out.push(d);
        lo = hi;
    }
    (base, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_builder_records_ops_in_order() {
        let mut d = DeltaBatch::new();
        d.triple("a", "p", "b").typed("a", "T").label("a", "A");
        assert_eq!(d.len(), 3);
        assert!(matches!(d.ops()[0], DeltaOp::Triple { .. }));
        assert!(matches!(d.ops()[2], DeltaOp::Label { .. }));
    }

    #[test]
    fn apply_to_builder_replays_everything() {
        let mut d = DeltaBatch::new();
        d.triple("a", "p", "b")
            .literal("a", "len", Literal::integer(7))
            .typed("a", "T")
            .categorized("b", "C")
            .label("a", "The A")
            .redirect("Ay", "a");
        let mut b = KgBuilder::new();
        d.apply_to_builder(&mut b);
        let kg = b.finish();
        assert_eq!(kg.entity_count(), 2);
        assert_eq!(kg.relation_count(), 1);
        let a = kg.entity("a").unwrap();
        assert_eq!(kg.label(a), Some("The A"));
        assert_eq!(kg.aliases(a), &["Ay".to_owned()]);
        assert!(kg.has_type(a, kg.type_id("T").unwrap()));
    }

    #[test]
    fn split_growth_round_trips_and_grows_one_trailing_shard_per_batch() {
        let kg = crate::datagen::generate(&crate::datagen::DatagenConfig::tiny());
        let (base, batches) = split_growth(&kg, 0.7, 3);
        assert_eq!(batches.len(), 3);
        assert!(base.entity_count() < kg.entity_count());

        // single-graph apply reproduces ids, extents and facets exactly
        let mut single = split_growth(&kg, 0.7, 3).0;
        for d in &batches {
            single.apply(d);
        }
        assert_eq!(single.entity_count(), kg.entity_count());
        assert_eq!(single.relation_count(), kg.relation_count());
        assert_eq!(single.triple_count(), kg.triple_count());
        for e in kg.entity_ids() {
            assert_eq!(single.entity_name(e), kg.entity_name(e), "ids preserved");
            assert_eq!(single.label(e), kg.label(e));
            assert_eq!(single.aliases(e), kg.aliases(e));
            assert_eq!(single.literals(e).count(), kg.literals(e).count());
            for p in kg.out_predicates(e) {
                assert_eq!(single.objects(e, p), kg.objects(e, p));
            }
        }
        for t in kg.type_ids() {
            assert_eq!(single.type_extent(t), kg.type_extent(t));
        }

        // sharded apply: every batch mints entities, so each appends one
        // trailing shard — the degeneration compaction exists to undo
        let mut sg = crate::ShardedGraph::from_graph(&base, 2);
        for (i, d) in batches.iter().enumerate() {
            sg.apply(d);
            assert_eq!(sg.trailing_shard_count(), i + 1);
        }
        assert_eq!(sg.entity_count(), kg.entity_count());
        for t in kg.type_ids() {
            assert_eq!(sg.type_extent(t), kg.type_extent(t).to_vec());
        }
    }

    #[test]
    fn split_round_trips_through_apply() {
        let kg = crate::datagen::generate(&crate::datagen::DatagenConfig::tiny());
        let (mut base, delta) = split_incremental(&kg, 0.5);
        assert!(base.relation_count() < kg.relation_count());
        base.apply(&delta);
        assert_eq!(base.relation_count(), kg.relation_count());
        assert_eq!(base.entity_count(), kg.entity_count());
        for e in kg.entity_ids() {
            assert_eq!(base.entity_name(e), kg.entity_name(e));
            for p in kg.out_predicates(e) {
                assert_eq!(base.objects(e, p), kg.objects(e, p));
            }
        }
    }
}
