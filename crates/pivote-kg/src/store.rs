//! The in-memory knowledge graph store.
//!
//! [`KgBuilder`] accumulates statements in any order; [`KgBuilder::finish`]
//! freezes them into an indexed [`KnowledgeGraph`] with per-row adjacency
//! in both directions, per-predicate runs sorted by target id, and sorted
//! extent lists for every type and category. The frozen graph is *not*
//! write-only: [`KnowledgeGraph::apply`] splices a
//! [`DeltaBatch`] of new statements into the
//! touched rows in place (amortized, row-proportional work), which is the
//! substrate of the live-graph execution layer.
//!
//! The layout is chosen for the hot loops of the PivotE ranking model
//! (`pivote-core`): a semantic-feature extent `E(π)` is exactly one
//! per-predicate run of the CSR (already sorted by entity id), and
//! `‖E(π) ∩ E(c)‖` becomes a linear/galloping merge of two sorted slices
//! with no hashing.

use crate::delta::{
    polarity_runs, replay_entity_facets, replicate_dictionaries, AppliedDelta, DeltaBatch, DeltaOp,
};
use crate::id::{CategoryId, EntityId, LiteralId, PredicateId, TypeId};
use crate::interner::Interner;
use crate::triple::{Literal, Object, Triple};

/// Adjacency rows: per source entity, a run of `(predicate, target)`
/// pairs sorted by `(predicate, target)`, so the targets of one predicate
/// form a contiguous slice sorted by entity id. Rows are independently
/// growable, which is what makes [`KnowledgeGraph::apply`] splice new
/// edges with work proportional to the touched rows instead of
/// rebuilding the whole index.
#[derive(Debug, Default, Clone)]
pub(crate) struct EdgeCsr {
    rows: Vec<EdgeRow>,
    total: usize,
}

/// One entity's adjacency: parallel arrays sorted by `(pred, target)`.
#[derive(Debug, Default, Clone)]
struct EdgeRow {
    preds: Vec<PredicateId>,
    targets: Vec<EntityId>,
}

impl EdgeCsr {
    fn build(n_sources: usize, mut edges: Vec<(u32, PredicateId, EntityId)>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        let mut rows = vec![EdgeRow::default(); n_sources];
        let total = edges.len();
        for (s, p, t) in edges {
            let row = &mut rows[s as usize];
            row.preds.push(p);
            row.targets.push(t);
        }
        Self { rows, total }
    }

    /// Grow the source dimension to `n` rows (new rows empty).
    fn ensure_rows(&mut self, n: usize) {
        if self.rows.len() < n {
            self.rows.resize_with(n, EdgeRow::default);
        }
    }

    /// Merge sorted, deduplicated `(pred, target)` additions into `e`'s
    /// row, skipping pairs already present. Newly inserted pairs are
    /// appended to `inserted`; `work` grows by the number of elements
    /// examined or moved (row length + additions).
    fn splice(
        &mut self,
        e: EntityId,
        add: &[(PredicateId, EntityId)],
        inserted: &mut Vec<(PredicateId, EntityId)>,
        work: &mut u64,
    ) {
        let row = &mut self.rows[e.index()];
        *work += (row.preds.len() + add.len()) as u64;
        let mut preds = Vec::with_capacity(row.preds.len() + add.len());
        let mut targets = Vec::with_capacity(row.targets.len() + add.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < row.preds.len() && j < add.len() {
            let old = (row.preds[i], row.targets[i]);
            match old.cmp(&add[j]) {
                std::cmp::Ordering::Less => {
                    preds.push(old.0);
                    targets.push(old.1);
                    i += 1;
                }
                std::cmp::Ordering::Equal => {
                    preds.push(old.0);
                    targets.push(old.1);
                    i += 1;
                    j += 1; // duplicate: already stored
                }
                std::cmp::Ordering::Greater => {
                    preds.push(add[j].0);
                    targets.push(add[j].1);
                    inserted.push(add[j]);
                    j += 1;
                }
            }
        }
        while i < row.preds.len() {
            preds.push(row.preds[i]);
            targets.push(row.targets[i]);
            i += 1;
        }
        while j < add.len() {
            preds.push(add[j].0);
            targets.push(add[j].1);
            inserted.push(add[j]);
            j += 1;
        }
        self.total += preds.len() - row.preds.len();
        row.preds = preds;
        row.targets = targets;
    }

    /// Remove sorted, deduplicated `(pred, target)` pairs from `e`'s row
    /// with a single forward in-place pass. Pairs actually present (and
    /// therefore removed) are appended to `removed`; absent pairs are
    /// ignored. The row stays sorted, so every read path sees only live
    /// edges — the removed pairs become tombstones only in the sense
    /// that the graph keeps their memory until a compaction reclaims it.
    fn unsplice(
        &mut self,
        e: EntityId,
        remove: &[(PredicateId, EntityId)],
        removed: &mut Vec<(PredicateId, EntityId)>,
        work: &mut u64,
    ) {
        let row = &mut self.rows[e.index()];
        *work += (row.preds.len() + remove.len()) as u64;
        let before = removed.len();
        let mut w = 0usize;
        let mut j = 0usize;
        for i in 0..row.preds.len() {
            let cur = (row.preds[i], row.targets[i]);
            while j < remove.len() && remove[j] < cur {
                j += 1;
            }
            if j < remove.len() && remove[j] == cur {
                removed.push(cur);
                j += 1;
                continue;
            }
            row.preds[w] = cur.0;
            row.targets[w] = cur.1;
            w += 1;
        }
        row.preds.truncate(w);
        row.targets.truncate(w);
        self.total -= removed.len() - before;
    }

    /// All `(predicate, target)` pairs of `e`.
    pub(crate) fn row(&self, e: EntityId) -> impl Iterator<Item = (PredicateId, EntityId)> + '_ {
        let row = &self.rows[e.index()];
        row.preds.iter().copied().zip(row.targets.iter().copied())
    }

    /// Targets of `e` under predicate `p`: a sorted slice of entity ids.
    pub(crate) fn with_pred(&self, e: EntityId, p: PredicateId) -> &[EntityId] {
        let row = &self.rows[e.index()];
        let lo = row.preds.partition_point(|&q| q < p);
        let hi = row.preds.partition_point(|&q| q <= p);
        &row.targets[lo..hi]
    }

    /// Distinct predicates appearing on `e`'s row.
    pub(crate) fn preds_of(&self, e: EntityId) -> Vec<PredicateId> {
        let mut out: Vec<PredicateId> = self.rows[e.index()].preds.clone();
        out.dedup();
        out
    }

    pub(crate) fn degree(&self, e: EntityId) -> usize {
        self.rows[e.index()].preds.len()
    }

    pub(crate) fn len(&self) -> usize {
        self.total
    }
}

/// Literal-valued statements: per entity, `(predicate, literal)` pairs
/// sorted by `(predicate, literal id)`. Per-row storage for the same
/// append-in-place reason as [`EdgeCsr`].
#[derive(Debug, Default, Clone)]
struct LiteralCsr {
    rows: Vec<LitRow>,
    total: usize,
}

/// One entity's literal statements.
#[derive(Debug, Default, Clone)]
struct LitRow {
    preds: Vec<PredicateId>,
    lits: Vec<LiteralId>,
}

impl LiteralCsr {
    fn build(n_sources: usize, mut edges: Vec<(u32, PredicateId, LiteralId)>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        let mut rows = vec![LitRow::default(); n_sources];
        let total = edges.len();
        for (s, p, l) in edges {
            let row = &mut rows[s as usize];
            row.preds.push(p);
            row.lits.push(l);
        }
        Self { rows, total }
    }

    fn ensure_rows(&mut self, n: usize) {
        if self.rows.len() < n {
            self.rows.resize_with(n, LitRow::default);
        }
    }

    /// Insert a fresh literal statement. The literal id is always newly
    /// allocated (greater than every stored id), so the insertion point
    /// is the end of `p`'s run.
    fn insert(&mut self, e: EntityId, p: PredicateId, l: LiteralId, work: &mut u64) {
        let row = &mut self.rows[e.index()];
        let at = row.preds.partition_point(|&q| q <= p);
        *work += (row.preds.len() - at + 1) as u64;
        row.preds.insert(at, p);
        row.lits.insert(at, l);
        self.total += 1;
    }

    fn len(&self) -> usize {
        self.total
    }

    fn row(&self, e: EntityId) -> impl Iterator<Item = (PredicateId, LiteralId)> + '_ {
        let row = &self.rows[e.index()];
        row.preds.iter().copied().zip(row.lits.iter().copied())
    }
}

/// Per-entity membership lists (types or categories), one sorted row per
/// entity.
#[derive(Debug, Default, Clone)]
struct Membership {
    rows: Vec<Vec<u32>>,
    total: usize,
}

impl Membership {
    fn build(n_sources: usize, mut pairs: Vec<(u32, u32)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        let mut rows = vec![Vec::new(); n_sources];
        let total = pairs.len();
        for (s, t) in pairs {
            rows[s as usize].push(t);
        }
        Self { rows, total }
    }

    fn ensure_rows(&mut self, n: usize) {
        if self.rows.len() < n {
            self.rows.resize_with(n, Vec::new);
        }
    }

    /// Sorted-insert `item` into `e`'s row; returns whether it was new.
    fn insert(&mut self, e: EntityId, item: u32, work: &mut u64) -> bool {
        let row = &mut self.rows[e.index()];
        *work += 1;
        match row.binary_search(&item) {
            Ok(_) => false,
            Err(at) => {
                *work += (row.len() - at) as u64;
                row.insert(at, item);
                self.total += 1;
                true
            }
        }
    }

    /// Remove `item` from `e`'s row; returns whether it was present.
    fn remove(&mut self, e: EntityId, item: u32, work: &mut u64) -> bool {
        let row = &mut self.rows[e.index()];
        *work += 1;
        match row.binary_search(&item) {
            Ok(at) => {
                *work += (row.len() - at) as u64;
                row.remove(at);
                self.total -= 1;
                true
            }
            Err(_) => false,
        }
    }

    fn len(&self) -> usize {
        self.total
    }

    fn row(&self, e: EntityId) -> &[u32] {
        &self.rows[e.index()]
    }
}

/// Mutable accumulator for building a [`KnowledgeGraph`].
#[derive(Debug, Default)]
pub struct KgBuilder {
    entities: Interner,
    predicates: Interner,
    types: Interner,
    categories: Interner,
    literals: Vec<Literal>,
    labels: Vec<Option<String>>,
    entity_edges: Vec<(u32, PredicateId, EntityId)>,
    literal_edges: Vec<(u32, PredicateId, LiteralId)>,
    entity_types: Vec<(u32, u32)>,
    entity_categories: Vec<(u32, u32)>,
    redirects: Vec<(u32, String)>,
    disambiguations: Vec<(u32, String)>,
}

impl KgBuilder {
    /// A fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern (or look up) the entity called `name` and return its id.
    pub fn entity(&mut self, name: &str) -> EntityId {
        let id = self.entities.intern(name);
        if id as usize >= self.labels.len() {
            self.labels.resize(id as usize + 1, None);
        }
        EntityId::new(id)
    }

    /// Intern (or look up) the predicate called `name`.
    pub fn predicate(&mut self, name: &str) -> PredicateId {
        PredicateId::new(self.predicates.intern(name))
    }

    /// Set the human-readable label (`rdfs:label`) of an entity.
    pub fn label(&mut self, e: EntityId, label: impl Into<String>) {
        self.labels[e.index()] = Some(label.into());
    }

    /// Add an entity-to-entity statement `<s, p, o>`.
    pub fn triple(&mut self, s: EntityId, p: PredicateId, o: EntityId) {
        self.entity_edges.push((s.raw(), p, o));
    }

    /// Add a literal-valued statement `<s, p, "literal">`.
    pub fn literal_triple(&mut self, s: EntityId, p: PredicateId, value: Literal) {
        let lid = LiteralId::new(self.literals.len() as u32);
        self.literals.push(value);
        self.literal_edges.push((s.raw(), p, lid));
    }

    /// Intern a type name without asserting any membership. Lets builders
    /// reproduce an existing graph's dense type numbering (e.g. when
    /// partitioning a graph into shards) before adding per-entity
    /// assertions in an arbitrary order.
    pub fn declare_type(&mut self, type_name: &str) -> TypeId {
        TypeId::new(self.types.intern(type_name))
    }

    /// Intern a category name without asserting any membership — the
    /// category analogue of [`KgBuilder::declare_type`].
    pub fn declare_category(&mut self, category: &str) -> CategoryId {
        CategoryId::new(self.categories.intern(category))
    }

    /// Assert `rdf:type` membership: `e` is a `type_name`.
    pub fn typed(&mut self, e: EntityId, type_name: &str) -> TypeId {
        let t = self.types.intern(type_name);
        self.entity_types.push((e.raw(), t));
        TypeId::new(t)
    }

    /// Assert category membership (`dct:subject`): `e` is in `category`.
    pub fn categorized(&mut self, e: EntityId, category: &str) -> CategoryId {
        let c = self.categories.intern(category);
        self.entity_categories.push((e.raw(), c));
        CategoryId::new(c)
    }

    /// Record a redirect alias (e.g. the misspelling "Geenbow" redirects to
    /// Forrest_Gump). Aliases feed the "similar entity names" search field.
    pub fn redirect(&mut self, alias: impl Into<String>, target: EntityId) {
        self.redirects.push((target.raw(), alias.into()));
    }

    /// Record a disambiguation alias pointing at `target`.
    pub fn disambiguation(&mut self, alias: impl Into<String>, target: EntityId) {
        self.disambiguations.push((target.raw(), alias.into()));
    }

    /// Number of entities interned so far.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Name of an already-interned entity (pre-freeze lookup).
    pub fn entity_name_hint(&self, e: EntityId) -> &str {
        self.entities.resolve(e.raw())
    }

    /// Freeze into an immutable, indexed [`KnowledgeGraph`].
    pub fn finish(self) -> KnowledgeGraph {
        let n = self.entities.len();
        let inverted: Vec<(u32, PredicateId, EntityId)> = self
            .entity_edges
            .iter()
            .map(|&(s, p, o)| (o.raw(), p, EntityId::new(s)))
            .collect();
        let out = EdgeCsr::build(n, self.entity_edges);
        let inc = EdgeCsr::build(n, inverted);
        let lit = LiteralCsr::build(n, self.literal_edges);

        let mut type_extents: Vec<Vec<EntityId>> = vec![Vec::new(); self.types.len()];
        for &(e, t) in &self.entity_types {
            type_extents[t as usize].push(EntityId::new(e));
        }
        for ext in &mut type_extents {
            ext.sort_unstable();
            ext.dedup();
        }
        let mut cat_extents: Vec<Vec<EntityId>> = vec![Vec::new(); self.categories.len()];
        for &(e, c) in &self.entity_categories {
            cat_extents[c as usize].push(EntityId::new(e));
        }
        for ext in &mut cat_extents {
            ext.sort_unstable();
            ext.dedup();
        }
        let entity_types = Membership::build(n, self.entity_types);
        let entity_cats = Membership::build(n, self.entity_categories);

        let mut aliases: Vec<Vec<String>> = vec![Vec::new(); n];
        for (e, alias) in self.redirects.into_iter().chain(self.disambiguations) {
            aliases[e as usize].push(alias);
        }
        for a in &mut aliases {
            a.sort();
            a.dedup();
        }

        let mut pred_freq = vec![0u64; self.predicates.len()];
        for e in 0..n as u32 {
            for (p, _) in out.row(EntityId::new(e)) {
                pred_freq[p.index()] += 1;
            }
            for (p, _) in lit.row(EntityId::new(e)) {
                pred_freq[p.index()] += 1;
            }
        }

        KnowledgeGraph {
            generation: 0,
            entities: self.entities,
            predicates: self.predicates,
            types: self.types,
            categories: self.categories,
            literals: self.literals,
            labels: self.labels,
            out,
            inc,
            lit,
            entity_types,
            type_extents,
            entity_cats,
            cat_extents,
            aliases,
            pred_freq,
            dead_relations: Vec::new(),
            dead_literals: Vec::new(),
            dead_type_asserts: Vec::new(),
            dead_cat_asserts: Vec::new(),
        }
    }
}

/// An immutable, fully indexed knowledge graph.
///
/// All extent-returning methods (`objects`, `subjects`, `type_extent`,
/// `category_extent`) return slices **sorted by entity id with no
/// duplicates** — the invariant the ranking layer's set intersections rely
/// on.
#[derive(Debug, Clone)]
pub struct KnowledgeGraph {
    /// Bumped by every [`KnowledgeGraph::apply`]; 0 for a fresh build.
    generation: u64,
    entities: Interner,
    predicates: Interner,
    types: Interner,
    categories: Interner,
    literals: Vec<Literal>,
    labels: Vec<Option<String>>,
    out: EdgeCsr,
    inc: EdgeCsr,
    lit: LiteralCsr,
    entity_types: Membership,
    type_extents: Vec<Vec<EntityId>>,
    entity_cats: Membership,
    cat_extents: Vec<Vec<EntityId>>,
    aliases: Vec<Vec<String>>,
    pred_freq: Vec<u64>,
    /// Tombstones: statements retracted since the last compaction. Every
    /// read path already sees only live rows (retracts splice the live
    /// arrays immediately), but the retracted statements' memory — these
    /// logs plus the slack they leave in the row allocations and the
    /// literal arena — is only returned by [`KnowledgeGraph::reclaim`].
    /// Their mass feeds the compaction policy's tombstone trigger.
    dead_relations: Vec<(EntityId, PredicateId, EntityId)>,
    dead_literals: Vec<(EntityId, PredicateId, LiteralId)>,
    dead_type_asserts: Vec<(EntityId, TypeId)>,
    dead_cat_asserts: Vec<(EntityId, CategoryId)>,
}

impl KnowledgeGraph {
    /// Number of entities.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Number of distinct predicates.
    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    /// Number of distinct types.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Number of distinct categories.
    pub fn category_count(&self) -> usize {
        self.categories.len()
    }

    /// Total statements: entity edges + literal edges + type + category
    /// assertions.
    pub fn triple_count(&self) -> usize {
        self.out.len() + self.lit.len() + self.entity_types.len() + self.entity_cats.len()
    }

    /// Number of entity-to-entity statements only.
    pub fn relation_count(&self) -> usize {
        self.out.len()
    }

    /// Resolve an entity by name.
    pub fn entity(&self, name: &str) -> Option<EntityId> {
        self.entities.get(name).map(EntityId::new)
    }

    /// The canonical name of an entity (e.g. `Forrest_Gump`).
    pub fn entity_name(&self, e: EntityId) -> &str {
        self.entities.resolve(e.raw())
    }

    /// The `rdfs:label` of an entity, if set.
    pub fn label(&self, e: EntityId) -> Option<&str> {
        self.labels[e.index()].as_deref()
    }

    /// Human-readable display name: the label if present, else the entity
    /// name with underscores replaced by spaces.
    pub fn display_name(&self, e: EntityId) -> String {
        match self.label(e) {
            Some(l) => l.to_owned(),
            None => self.entity_name(e).replace('_', " "),
        }
    }

    /// Resolve a predicate by name.
    pub fn predicate(&self, name: &str) -> Option<PredicateId> {
        self.predicates.get(name).map(PredicateId::new)
    }

    /// The name of a predicate (e.g. `starring`).
    pub fn predicate_name(&self, p: PredicateId) -> &str {
        self.predicates.resolve(p.raw())
    }

    /// Resolve a type by name.
    pub fn type_id(&self, name: &str) -> Option<TypeId> {
        self.types.get(name).map(TypeId::new)
    }

    /// The name of a type (e.g. `Film`).
    pub fn type_name(&self, t: TypeId) -> &str {
        self.types.resolve(t.raw())
    }

    /// Resolve a category by name.
    pub fn category_id(&self, name: &str) -> Option<CategoryId> {
        self.categories.get(name).map(CategoryId::new)
    }

    /// The name of a category (e.g. `American films`).
    pub fn category_name(&self, c: CategoryId) -> &str {
        self.categories.resolve(c.raw())
    }

    /// Outgoing `(predicate, object-entity)` pairs of `e`.
    pub fn out_edges(&self, e: EntityId) -> impl Iterator<Item = (PredicateId, EntityId)> + '_ {
        self.out.row(e)
    }

    /// Incoming `(predicate, subject-entity)` pairs of `e`.
    pub fn in_edges(&self, e: EntityId) -> impl Iterator<Item = (PredicateId, EntityId)> + '_ {
        self.inc.row(e)
    }

    /// Objects of `<e, p, ?x>` — sorted, deduplicated entity ids. This is
    /// the extent of the semantic feature `e:p→`.
    pub fn objects(&self, e: EntityId, p: PredicateId) -> &[EntityId] {
        self.out.with_pred(e, p)
    }

    /// Subjects of `<?x, p, e>` — sorted, deduplicated entity ids. This is
    /// the extent of the semantic feature `e:p←`.
    pub fn subjects(&self, e: EntityId, p: PredicateId) -> &[EntityId] {
        self.inc.with_pred(e, p)
    }

    /// Distinct predicates on outgoing edges of `e`.
    pub fn out_predicates(&self, e: EntityId) -> Vec<PredicateId> {
        self.out.preds_of(e)
    }

    /// Distinct predicates on incoming edges of `e`.
    pub fn in_predicates(&self, e: EntityId) -> Vec<PredicateId> {
        self.inc.preds_of(e)
    }

    /// Out-degree + in-degree over entity edges (used by the PPR baseline).
    pub fn degree(&self, e: EntityId) -> usize {
        self.out.degree(e) + self.inc.degree(e)
    }

    /// Literal statements `(predicate, literal)` of `e`.
    pub fn literals(&self, e: EntityId) -> impl Iterator<Item = (PredicateId, &Literal)> + '_ {
        self.lit.row(e).map(|(p, l)| (p, &self.literals[l.index()]))
    }

    /// Resolve a literal id.
    pub fn literal(&self, l: LiteralId) -> &Literal {
        &self.literals[l.index()]
    }

    /// Types of `e`, sorted by type id.
    pub fn types_of(&self, e: EntityId) -> impl Iterator<Item = TypeId> + '_ {
        self.entity_types.row(e).iter().map(|&t| TypeId::new(t))
    }

    /// Categories of `e`, sorted by category id.
    pub fn categories_of(&self, e: EntityId) -> impl Iterator<Item = CategoryId> + '_ {
        self.entity_cats.row(e).iter().map(|&c| CategoryId::new(c))
    }

    /// All entities of type `t`, sorted by entity id.
    pub fn type_extent(&self, t: TypeId) -> &[EntityId] {
        &self.type_extents[t.index()]
    }

    /// All entities in category `c`, sorted by entity id.
    pub fn category_extent(&self, c: CategoryId) -> &[EntityId] {
        &self.cat_extents[c.index()]
    }

    /// Whether `e` has type `t` (binary search on the extent's complement —
    /// the per-entity row, which is tiny).
    pub fn has_type(&self, e: EntityId, t: TypeId) -> bool {
        self.entity_types.row(e).binary_search(&t.raw()).is_ok()
    }

    /// Whether `e` is in category `c`.
    pub fn has_category(&self, e: EntityId, c: CategoryId) -> bool {
        self.entity_cats.row(e).binary_search(&c.raw()).is_ok()
    }

    /// Redirect + disambiguation aliases of `e` ("similar entity names").
    pub fn aliases(&self, e: EntityId) -> &[String] {
        &self.aliases[e.index()]
    }

    /// How many statements (entity or literal valued) use predicate `p`.
    pub fn predicate_frequency(&self, p: PredicateId) -> u64 {
        self.pred_freq[p.index()]
    }

    /// Iterate every entity id.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> {
        (0..self.entities.len() as u32).map(EntityId::new)
    }

    /// Iterate every predicate id.
    pub fn predicate_ids(&self) -> impl Iterator<Item = PredicateId> {
        (0..self.predicates.len() as u32).map(PredicateId::new)
    }

    /// Iterate every type id.
    pub fn type_ids(&self) -> impl Iterator<Item = TypeId> {
        (0..self.types.len() as u32).map(TypeId::new)
    }

    /// Iterate every category id.
    pub fn category_ids(&self) -> impl Iterator<Item = CategoryId> {
        (0..self.categories.len() as u32).map(CategoryId::new)
    }

    /// Iterate all entity-to-entity triples (for serialization and stats).
    pub fn entity_triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.entity_ids().flat_map(move |s| {
            self.out
                .row(s)
                .map(move |(p, o)| Triple::new(s, p, Object::Entity(o)))
        })
    }

    /// Iterate all literal triples as `(subject, predicate, literal)`.
    pub fn literal_triples(&self) -> impl Iterator<Item = (EntityId, PredicateId, &Literal)> + '_ {
        self.entity_ids().flat_map(move |s| {
            self.lit
                .row(s)
                .map(move |(p, l)| (s, p, &self.literals[l.index()]))
        })
    }

    /// The mutation generation: 0 for a freshly built graph, bumped by
    /// every [`KnowledgeGraph::apply`]. Execution layers stamp their
    /// caches with this counter.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Apply a [`DeltaBatch`] in place: new triples, literal statements,
    /// type/category assertions, labels and aliases — possibly
    /// introducing new entities and new dictionary terms, which are
    /// interned **in op order** (exactly the ids a from-scratch rebuild
    /// of `base ops + delta ops` would assign, so the appended graph is
    /// bit-identical to the rebuilt union) — plus retract ops, which
    /// tombstone matching statements. The batch is split into maximal
    /// same-polarity runs applied in op order, so a mixed insert/delete
    /// batch is equivalent to replaying its ops against a shadow
    /// statement set and rebuilding from the survivors. Retracts never
    /// intern names (an unknown name makes the op a no-op), so the id
    /// assignment is unchanged by their presence, and the generation is
    /// bumped exactly once per apply regardless of run count.
    ///
    /// The work done is proportional to the touched rows and extents
    /// (per-predicate extent splicing), *not* to the size of the graph;
    /// the returned [`AppliedDelta::work`] counter witnesses this, and
    /// the receipt lists exactly which feature and context extents
    /// changed so execution-layer caches can invalidate precisely.
    pub fn apply(&mut self, delta: &DeltaBatch) -> AppliedDelta {
        let mut acc = DeltaAcc::new(self.entities.len() as u32);
        for (retract, run) in polarity_runs(delta.ops()) {
            if retract {
                self.apply_retract_run(run, &mut acc);
            } else {
                self.apply_insert_run(run, &mut acc);
            }
        }
        self.generation += 1;
        acc.finish(self.generation, self.entities.len() as u32)
    }

    /// One maximal insert-polarity run of [`KnowledgeGraph::apply`].
    fn apply_insert_run(&mut self, ops: &[DeltaOp], acc: &mut DeltaAcc) {
        let mut work: u64 = 0;

        // Pre-size the entity dictionary for the run so interning never
        // rehashes mid-apply. A run of n ops introduces at most ~n new
        // entity names, so the table overshoot is O(batch), never
        // O(graph). The other dictionaries (predicates, types,
        // categories) are small and self-size adequately.
        self.entities.reserve(ops.len());

        // Pass 1: intern every name in op order and resolve ops to dense
        // ids. New entities/predicates/types/categories get exactly the
        // ids a rebuild replaying these ops into a KgBuilder would assign.
        //
        // Dump batches are heavily run-structured (N-Triples groups
        // statements by subject), so each dictionary keeps a last-name
        // memo per role: a repeated consecutive name resolves with one
        // string compare and no hashing. Memoization can't perturb id
        // assignment — interning is idempotent, so a memo hit returns
        // exactly what a fresh intern would.
        let mut memo_subject: Option<(&str, u32)> = None;
        let mut memo_object: Option<(&str, u32)> = None;
        let mut memo_pred: Option<(&str, u32)> = None;
        let mut memo_type: Option<(&str, u32)> = None;
        let mut memo_cat: Option<(&str, u32)> = None;
        macro_rules! memoized {
            ($memo:ident, $dict:expr, $name:expr) => {{
                let name: &str = $name;
                match $memo {
                    Some((last, id)) if last == name => id,
                    _ => {
                        let id = $dict.intern(name);
                        $memo = Some((name, id));
                        id
                    }
                }
            }};
        }
        let mut edges: Vec<(EntityId, PredicateId, EntityId)> = Vec::new();
        let mut lit_adds: Vec<(EntityId, PredicateId, &Literal)> = Vec::new();
        let mut type_adds: Vec<(EntityId, TypeId)> = Vec::new();
        let mut cat_adds: Vec<(EntityId, CategoryId)> = Vec::new();
        let mut label_sets: Vec<(EntityId, &str)> = Vec::new();
        let mut alias_adds: Vec<(EntityId, &str)> = Vec::new();
        for op in ops {
            match op {
                DeltaOp::Entity { name } => {
                    memoized!(memo_subject, self.entities, name);
                }
                DeltaOp::DeclarePredicate { name } => {
                    memoized!(memo_pred, self.predicates, name);
                }
                DeltaOp::DeclareType { name } => {
                    memoized!(memo_type, self.types, name);
                }
                DeltaOp::DeclareCategory { name } => {
                    memoized!(memo_cat, self.categories, name);
                }
                DeltaOp::Triple { s, p, o } => {
                    let s = EntityId::new(memoized!(memo_subject, self.entities, s));
                    let p = PredicateId::new(memoized!(memo_pred, self.predicates, p));
                    let o = EntityId::new(memoized!(memo_object, self.entities, o));
                    edges.push((s, p, o));
                }
                DeltaOp::LiteralTriple { s, p, value } => {
                    let s = EntityId::new(memoized!(memo_subject, self.entities, s));
                    let p = PredicateId::new(memoized!(memo_pred, self.predicates, p));
                    lit_adds.push((s, p, value));
                }
                DeltaOp::Typed { entity, type_name } => {
                    let e = EntityId::new(memoized!(memo_subject, self.entities, entity));
                    let t = TypeId::new(memoized!(memo_type, self.types, type_name));
                    type_adds.push((e, t));
                }
                DeltaOp::Categorized { entity, category } => {
                    let e = EntityId::new(memoized!(memo_subject, self.entities, entity));
                    let c = CategoryId::new(memoized!(memo_cat, self.categories, category));
                    cat_adds.push((e, c));
                }
                DeltaOp::Label { entity, label } => {
                    let e = EntityId::new(memoized!(memo_subject, self.entities, entity));
                    label_sets.push((e, label));
                }
                DeltaOp::Redirect { alias, target } | DeltaOp::Disambiguation { alias, target } => {
                    let t = EntityId::new(memoized!(memo_subject, self.entities, target));
                    alias_adds.push((t, alias));
                }
                _ => unreachable!("retract op in an insert-polarity run"),
            }
        }

        // Grow every per-entity table to the new entity count.
        let n = self.entities.len();
        self.labels.resize(n, None);
        self.aliases.resize_with(n, Vec::new);
        self.out.ensure_rows(n);
        self.inc.ensure_rows(n);
        self.lit.ensure_rows(n);
        self.entity_types.ensure_rows(n);
        self.entity_cats.ensure_rows(n);
        self.pred_freq.resize(self.predicates.len(), 0);
        self.type_extents.resize_with(self.types.len(), Vec::new);
        self.cat_extents
            .resize_with(self.categories.len(), Vec::new);

        // Pass 2: splice entity edges per touched row, both directions.
        edges.sort_unstable();
        edges.dedup();
        let mut inserted: Vec<(EntityId, PredicateId, EntityId)> = Vec::new();
        let mut row_adds: Vec<(PredicateId, EntityId)> = Vec::new();
        let mut row_inserted: Vec<(PredicateId, EntityId)> = Vec::new();
        let mut i = 0;
        while i < edges.len() {
            let s = edges[i].0;
            row_adds.clear();
            row_inserted.clear();
            while i < edges.len() && edges[i].0 == s {
                row_adds.push((edges[i].1, edges[i].2));
                i += 1;
            }
            self.out.splice(s, &row_adds, &mut row_inserted, &mut work);
            for &(p, o) in &row_inserted {
                inserted.push((s, p, o));
                self.pred_freq[p.index()] += 1;
            }
        }
        // Invert the actually-inserted edges and splice the incoming rows.
        let mut inverted: Vec<(EntityId, PredicateId, EntityId)> =
            inserted.iter().map(|&(s, p, o)| (o, p, s)).collect();
        inverted.sort_unstable();
        let mut i = 0;
        while i < inverted.len() {
            let o = inverted[i].0;
            row_adds.clear();
            row_inserted.clear();
            while i < inverted.len() && inverted[i].0 == o {
                row_adds.push((inverted[i].1, inverted[i].2));
                i += 1;
            }
            self.inc.splice(o, &row_adds, &mut row_inserted, &mut work);
            debug_assert_eq!(
                row_inserted.len(),
                row_adds.len(),
                "incoming rows must mirror outgoing rows"
            );
        }

        // Literal statements: fresh literal ids in op order.
        for &(s, p, value) in &lit_adds {
            let lid = LiteralId::new(self.literals.len() as u32);
            self.literals.push(value.clone());
            self.lit.insert(s, p, lid, &mut work);
            self.pred_freq[p.index()] += 1;
        }

        // Type / category assertions: membership rows per op (rows are
        // per-entity and tiny), then one sort-and-merge splice per
        // *touched extent* instead of a binary insert per op — a batch
        // adding k members to one extent of n entities costs O(n + k)
        // moves, not O(n·k).
        let mut new_type_members: Vec<(TypeId, EntityId)> = Vec::new();
        for &(e, t) in &type_adds {
            if self.entity_types.insert(e, t.raw(), &mut work) {
                new_type_members.push((t, e));
            }
        }
        new_type_members.sort_unstable();
        let mut touched_types: Vec<TypeId> = Vec::new();
        for (t, adds) in group_pairs(&new_type_members) {
            splice_extent(&mut self.type_extents[t.index()], adds, &mut work);
            touched_types.push(t);
        }
        let mut new_cat_members: Vec<(CategoryId, EntityId)> = Vec::new();
        for &(e, c) in &cat_adds {
            if self.entity_cats.insert(e, c.raw(), &mut work) {
                new_cat_members.push((c, e));
            }
        }
        new_cat_members.sort_unstable();
        let mut touched_categories: Vec<CategoryId> = Vec::new();
        for (c, adds) in group_pairs(&new_cat_members) {
            splice_extent(&mut self.cat_extents[c.index()], adds, &mut work);
            touched_categories.push(c);
        }

        // Labels and aliases.
        for (e, l) in label_sets {
            self.labels[e.index()] = Some(l.to_owned());
        }
        for (e, alias) in alias_adds {
            let row = &mut self.aliases[e.index()];
            if let Err(at) = row.binary_search_by(|a| a.as_str().cmp(alias)) {
                row.insert(at, alias.to_owned());
                work += 1;
            }
        }

        acc.touched_out
            .extend(inserted.iter().map(|&(s, p, _)| (s, p)));
        acc.touched_in
            .extend(inserted.iter().map(|&(_, p, o)| (o, p)));
        acc.touched_types.extend(touched_types);
        acc.touched_categories.extend(touched_categories);
        acc.added_relations += inserted.len();
        acc.added_literals += lit_adds.len();
        acc.work += work;
    }

    /// One maximal retract-polarity run of [`KnowledgeGraph::apply`].
    ///
    /// Resolution is lookup-only: a retract naming an unknown entity,
    /// predicate, type or category is a no-op (nothing is interned), so
    /// runs of retracts can never perturb the dense-id assignment of the
    /// inserts around them. Matching statements are spliced out of the
    /// live rows and extents immediately and logged as tombstones until
    /// the next compaction reclaims their memory.
    fn apply_retract_run(&mut self, ops: &[DeltaOp], acc: &mut DeltaAcc) {
        let mut work: u64 = 0;
        let mut edge_removes: Vec<(EntityId, PredicateId, EntityId)> = Vec::new();
        let mut lit_removes: Vec<(EntityId, PredicateId, &Literal)> = Vec::new();
        let mut type_removes: Vec<(EntityId, TypeId)> = Vec::new();
        let mut cat_removes: Vec<(EntityId, CategoryId)> = Vec::new();
        for op in ops {
            work += 1;
            match op {
                DeltaOp::RetractTriple { s, p, o } => {
                    let (Some(s), Some(p), Some(o)) = (
                        self.entities.get(s),
                        self.predicates.get(p),
                        self.entities.get(o),
                    ) else {
                        continue;
                    };
                    edge_removes.push((EntityId::new(s), PredicateId::new(p), EntityId::new(o)));
                }
                DeltaOp::RetractLiteral { s, p, value } => {
                    let (Some(s), Some(p)) = (self.entities.get(s), self.predicates.get(p)) else {
                        continue;
                    };
                    lit_removes.push((EntityId::new(s), PredicateId::new(p), value));
                }
                DeltaOp::RetractTyped { entity, type_name } => {
                    let (Some(e), Some(t)) = (self.entities.get(entity), self.types.get(type_name))
                    else {
                        continue;
                    };
                    type_removes.push((EntityId::new(e), TypeId::new(t)));
                }
                DeltaOp::RetractCategorized { entity, category } => {
                    let (Some(e), Some(c)) =
                        (self.entities.get(entity), self.categories.get(category))
                    else {
                        continue;
                    };
                    cat_removes.push((EntityId::new(e), CategoryId::new(c)));
                }
                DeltaOp::RetractLabel { entity, label } => {
                    let Some(e) = self.entities.get(entity) else {
                        continue;
                    };
                    let slot = &mut self.labels[e as usize];
                    if slot.as_deref() == Some(label.as_str()) {
                        *slot = None;
                        acc.removed_assertions += 1;
                    }
                }
                DeltaOp::RetractAlias { alias, target } => {
                    let Some(t) = self.entities.get(target) else {
                        continue;
                    };
                    let row = &mut self.aliases[t as usize];
                    if let Ok(at) = row.binary_search_by(|a| a.as_str().cmp(alias)) {
                        row.remove(at);
                        acc.removed_assertions += 1;
                        work += 1;
                    }
                }
                _ => unreachable!("insert op in a retract-polarity run"),
            }
        }

        // Entity edges: per-row unsplice, both directions, mirroring the
        // insert pass. Only pairs actually present count as removed.
        edge_removes.sort_unstable();
        edge_removes.dedup();
        let mut removed: Vec<(EntityId, PredicateId, EntityId)> = Vec::new();
        let mut row_removes: Vec<(PredicateId, EntityId)> = Vec::new();
        let mut row_removed: Vec<(PredicateId, EntityId)> = Vec::new();
        let mut i = 0;
        while i < edge_removes.len() {
            let s = edge_removes[i].0;
            row_removes.clear();
            row_removed.clear();
            while i < edge_removes.len() && edge_removes[i].0 == s {
                row_removes.push((edge_removes[i].1, edge_removes[i].2));
                i += 1;
            }
            self.out
                .unsplice(s, &row_removes, &mut row_removed, &mut work);
            for &(p, o) in &row_removed {
                removed.push((s, p, o));
                self.pred_freq[p.index()] -= 1;
            }
        }
        let mut inverted: Vec<(EntityId, PredicateId, EntityId)> =
            removed.iter().map(|&(s, p, o)| (o, p, s)).collect();
        inverted.sort_unstable();
        let mut i = 0;
        while i < inverted.len() {
            let o = inverted[i].0;
            row_removes.clear();
            row_removed.clear();
            while i < inverted.len() && inverted[i].0 == o {
                row_removes.push((inverted[i].1, inverted[i].2));
                i += 1;
            }
            self.inc
                .unsplice(o, &row_removes, &mut row_removed, &mut work);
            debug_assert_eq!(
                row_removed.len(),
                row_removes.len(),
                "incoming rows must mirror outgoing rows"
            );
        }
        acc.touched_out
            .extend(removed.iter().map(|&(s, p, _)| (s, p)));
        acc.touched_in
            .extend(removed.iter().map(|&(_, p, o)| (o, p)));
        acc.removed_relations += removed.len();
        self.dead_relations.extend(removed);

        // Literal statements: a retract removes *every* stored copy whose
        // value matches (inserts do not deduplicate literals). The dead
        // literal ids keep their arena slots until compaction re-densifies
        // the arena.
        for (s, p, value) in lit_removes {
            let row = &mut self.lit.rows[s.index()];
            let lo = row.preds.partition_point(|&q| q < p);
            let hi = row.preds.partition_point(|&q| q <= p);
            work += (hi - lo + 1) as u64;
            let mut w = lo;
            for i in lo..row.preds.len() {
                if i < hi && self.literals[row.lits[i].index()] == *value {
                    self.dead_literals.push((s, p, row.lits[i]));
                    self.pred_freq[p.index()] -= 1;
                    self.lit.total -= 1;
                    acc.removed_literals += 1;
                    continue;
                }
                row.preds[w] = row.preds[i];
                row.lits[w] = row.lits[i];
                w += 1;
            }
            row.preds.truncate(w);
            row.lits.truncate(w);
        }

        // Type / category assertions: membership rows per op, then one
        // merge unsplice per touched extent (the retract mirror of the
        // batched insert splice).
        let mut gone_type_members: Vec<(TypeId, EntityId)> = Vec::new();
        for &(e, t) in &type_removes {
            if self.entity_types.remove(e, t.raw(), &mut work) {
                gone_type_members.push((t, e));
                self.dead_type_asserts.push((e, t));
            }
        }
        gone_type_members.sort_unstable();
        for (t, dels) in group_pairs(&gone_type_members) {
            unsplice_extent(&mut self.type_extents[t.index()], dels, &mut work);
            acc.touched_types.push(t);
        }
        let mut gone_cat_members: Vec<(CategoryId, EntityId)> = Vec::new();
        for &(e, c) in &cat_removes {
            if self.entity_cats.remove(e, c.raw(), &mut work) {
                gone_cat_members.push((c, e));
                self.dead_cat_asserts.push((e, c));
            }
        }
        gone_cat_members.sort_unstable();
        for (c, dels) in group_pairs(&gone_cat_members) {
            unsplice_extent(&mut self.cat_extents[c.index()], dels, &mut work);
            acc.touched_categories.push(c);
        }
        acc.removed_assertions += gone_type_members.len() + gone_cat_members.len();
        acc.work += work;
    }

    /// Number of tombstoned statements held since the last compaction
    /// (retracted relations, literal statements, and type/category
    /// assertions — each relation counted once, not per direction). Feeds
    /// the compaction policy's tombstone-mass trigger; a graph fresh from
    /// a build or a [`KnowledgeGraph::reclaim`] holds zero.
    pub fn tombstone_count(&self) -> usize {
        self.dead_relations.len()
            + self.dead_literals.len()
            + self.dead_type_asserts.len()
            + self.dead_cat_asserts.len()
    }

    /// Compact away every tombstone: an id-preserving rebuild from the
    /// surviving statements. Entity and dictionary ids are unchanged
    /// (retraction removes statements, never dictionary entries), every
    /// extent is bit-identical to the live view of `self`, literal ids
    /// are re-densified, and the result holds zero tombstones — the
    /// memory of the retracted statements is returned. The rebuilt
    /// graph's generation is `self.generation() + 1`, mirroring the
    /// sharded compaction's generation stamp.
    pub fn reclaim(&self) -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        replicate_dictionaries(&mut b, self);
        for e in self.entity_ids() {
            replay_entity_facets(&mut b, self, e);
        }
        for t in self.entity_triples() {
            let o = t.object.as_entity().expect("entity triple");
            b.triple(t.subject, t.predicate, o);
        }
        let mut out = b.finish();
        out.generation = self.generation + 1;
        out
    }

    /// Aggregate size/shape statistics of the graph.
    pub fn summary(&self) -> GraphSummary {
        let mut max_out = 0usize;
        let mut max_in = 0usize;
        for e in self.entity_ids() {
            max_out = max_out.max(self.out.degree(e));
            max_in = max_in.max(self.inc.degree(e));
        }
        GraphSummary {
            entities: self.entity_count(),
            predicates: self.predicate_count(),
            types: self.type_count(),
            categories: self.category_count(),
            relation_triples: self.relation_count(),
            literal_triples: self.lit.len(),
            avg_degree: if self.entity_count() == 0 {
                0.0
            } else {
                2.0 * self.relation_count() as f64 / self.entity_count() as f64
            },
            max_out_degree: max_out,
            max_in_degree: max_in,
        }
    }
}

/// Iterate maximal runs of equal keys in a sorted pair slice, yielding
/// each key once with its run (whose second elements are sorted and
/// distinct, since the pairs are sorted and deduplicated upstream by the
/// membership-row insert).
fn group_pairs<K: Copy + PartialEq>(
    pairs: &[(K, EntityId)],
) -> impl Iterator<Item = (K, &[(K, EntityId)])> {
    let mut i = 0;
    std::iter::from_fn(move || {
        if i >= pairs.len() {
            return None;
        }
        let k = pairs[i].0;
        let start = i;
        while i < pairs.len() && pairs[i].0 == k {
            i += 1;
        }
        Some((k, &pairs[start..i]))
    })
}

/// Merge `adds` (second elements sorted, strictly increasing, disjoint
/// from `ext`) into the sorted extent with a single backward in-place
/// pass: elements below the lowest add never move, everything above it
/// moves exactly once. The batched counterpart of a per-element
/// binary-insert, whose repeated tail shifts are O(extent) *per add*.
fn splice_extent<K: Copy>(ext: &mut Vec<EntityId>, adds: &[(K, EntityId)], work: &mut u64) {
    debug_assert!(adds.windows(2).all(|w| w[0].1 < w[1].1));
    let old_len = ext.len();
    *work += adds.len() as u64;
    if old_len == 0 || ext[old_len - 1] < adds[0].1 {
        // pure append — the common case for dense-id batches, since new
        // entities get ids above every existing extent member
        ext.extend(adds.iter().map(|&(_, e)| e));
        return;
    }
    let start = ext.partition_point(|&x| x < adds[0].1);
    *work += (old_len - start) as u64;
    ext.resize(old_len + adds.len(), adds[0].1);
    let mut w = old_len + adds.len();
    let mut r = old_len;
    let mut a = adds.len();
    while a > 0 {
        while r > start && ext[r - 1] > adds[a - 1].1 {
            w -= 1;
            ext[w] = ext[r - 1];
            r -= 1;
        }
        w -= 1;
        ext[w] = adds[a - 1].1;
        a -= 1;
    }
    debug_assert_eq!(w, r, "merge must consume exactly the shifted tail");
}

/// Remove `dels` (second elements sorted, strictly increasing, all
/// present in `ext`) from the sorted extent with a single forward
/// in-place pass — the retract mirror of [`splice_extent`].
fn unsplice_extent<K: Copy>(ext: &mut Vec<EntityId>, dels: &[(K, EntityId)], work: &mut u64) {
    debug_assert!(dels.windows(2).all(|w| w[0].1 < w[1].1));
    *work += dels.len() as u64;
    if dels.is_empty() {
        return;
    }
    let start = ext.partition_point(|&x| x < dels[0].1);
    *work += (ext.len() - start) as u64;
    let mut w = start;
    let mut j = 0;
    for r in start..ext.len() {
        if j < dels.len() && ext[r] == dels[j].1 {
            j += 1;
            continue;
        }
        ext[w] = ext[r];
        w += 1;
    }
    debug_assert_eq!(j, dels.len(), "every removal must have been present");
    ext.truncate(w);
}

/// Receipt accumulator shared by the polarity runs of one
/// [`KnowledgeGraph::apply`]: runs append raw touched entries and
/// counters, and [`DeltaAcc::finish`] sorts, deduplicates and stamps the
/// final [`AppliedDelta`] once per apply.
pub(crate) struct DeltaAcc {
    base_entities: u32,
    pub(crate) touched_out: Vec<(EntityId, PredicateId)>,
    pub(crate) touched_in: Vec<(EntityId, PredicateId)>,
    pub(crate) touched_types: Vec<TypeId>,
    pub(crate) touched_categories: Vec<CategoryId>,
    pub(crate) added_relations: usize,
    pub(crate) added_literals: usize,
    pub(crate) removed_relations: usize,
    pub(crate) removed_literals: usize,
    pub(crate) removed_assertions: usize,
    pub(crate) work: u64,
}

impl DeltaAcc {
    pub(crate) fn new(base_entities: u32) -> Self {
        Self {
            base_entities,
            touched_out: Vec::new(),
            touched_in: Vec::new(),
            touched_types: Vec::new(),
            touched_categories: Vec::new(),
            added_relations: 0,
            added_literals: 0,
            removed_relations: 0,
            removed_literals: 0,
            removed_assertions: 0,
            work: 0,
        }
    }

    pub(crate) fn finish(mut self, generation: u64, end_entities: u32) -> AppliedDelta {
        self.touched_out.sort_unstable();
        self.touched_out.dedup();
        self.touched_in.sort_unstable();
        self.touched_in.dedup();
        self.touched_types.sort_unstable();
        self.touched_types.dedup();
        self.touched_categories.sort_unstable();
        self.touched_categories.dedup();
        AppliedDelta {
            generation,
            new_entities: self.base_entities..end_entities,
            touched_out: self.touched_out,
            touched_in: self.touched_in,
            touched_types: self.touched_types,
            touched_categories: self.touched_categories,
            added_relations: self.added_relations,
            added_literals: self.added_literals,
            removed_relations: self.removed_relations,
            removed_literals: self.removed_literals,
            removed_assertions: self.removed_assertions,
            work: self.work,
        }
    }
}

/// Aggregate statistics returned by [`KnowledgeGraph::summary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphSummary {
    /// Number of entities.
    pub entities: usize,
    /// Number of distinct predicates.
    pub predicates: usize,
    /// Number of distinct types.
    pub types: usize,
    /// Number of distinct categories.
    pub categories: usize,
    /// Entity-to-entity statements.
    pub relation_triples: usize,
    /// Literal-valued statements.
    pub literal_triples: usize,
    /// Mean (in+out) entity degree.
    pub avg_degree: f64,
    /// Largest out-degree (hub fan-out).
    pub max_out_degree: usize,
    /// Largest in-degree (hub fan-in).
    pub max_in_degree: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example in miniature.
    pub(crate) fn toy_kg() -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        let gump = b.entity("Forrest_Gump");
        let apollo = b.entity("Apollo_13_(film)");
        let hanks = b.entity("Tom_Hanks");
        let sinise = b.entity("Gary_Sinise");
        let zemeckis = b.entity("Robert_Zemeckis");
        let starring = b.predicate("starring");
        let director = b.predicate("director");
        b.label(gump, "Forrest Gump");
        b.triple(gump, starring, hanks);
        b.triple(gump, starring, sinise);
        b.triple(apollo, starring, hanks);
        b.triple(apollo, starring, sinise);
        b.triple(gump, director, zemeckis);
        b.typed(gump, "Film");
        b.typed(apollo, "Film");
        b.typed(hanks, "Actor");
        b.typed(sinise, "Actor");
        b.typed(zemeckis, "Director");
        b.categorized(gump, "American films");
        b.categorized(apollo, "American films");
        let runtime = b.predicate("runtime");
        b.literal_triple(gump, runtime, Literal::integer(142));
        b.redirect("Geenbow", gump);
        b.finish()
    }

    #[test]
    fn basic_counts() {
        let kg = toy_kg();
        assert_eq!(kg.entity_count(), 5);
        assert_eq!(kg.predicate_count(), 3);
        assert_eq!(kg.type_count(), 3);
        assert_eq!(kg.category_count(), 1);
        assert_eq!(kg.relation_count(), 5);
        // 5 relations + 1 literal + 5 type + 2 category assertions
        assert_eq!(kg.triple_count(), 13);
    }

    #[test]
    fn objects_and_subjects_are_sorted_extents() {
        let kg = toy_kg();
        let gump = kg.entity("Forrest_Gump").unwrap();
        let hanks = kg.entity("Tom_Hanks").unwrap();
        let starring = kg.predicate("starring").unwrap();
        let cast = kg.objects(gump, starring);
        assert_eq!(cast.len(), 2);
        assert!(cast.windows(2).all(|w| w[0] < w[1]));
        // films starring Tom Hanks = extent of SF Tom_Hanks:starring←
        let films = kg.subjects(hanks, starring);
        assert_eq!(films.len(), 2);
        assert!(films.contains(&gump));
    }

    #[test]
    fn duplicate_triples_are_deduplicated() {
        let mut b = KgBuilder::new();
        let a = b.entity("a");
        let c = b.entity("c");
        let p = b.predicate("p");
        b.triple(a, p, c);
        b.triple(a, p, c);
        let kg = b.finish();
        assert_eq!(kg.relation_count(), 1);
    }

    #[test]
    fn type_and_category_extents() {
        let kg = toy_kg();
        let film = kg.type_id("Film").unwrap();
        let ext = kg.type_extent(film);
        assert_eq!(ext.len(), 2);
        assert!(ext.windows(2).all(|w| w[0] < w[1]));
        let cat = kg.category_id("American films").unwrap();
        assert_eq!(kg.category_extent(cat).len(), 2);
        let gump = kg.entity("Forrest_Gump").unwrap();
        assert!(kg.has_type(gump, film));
        assert!(kg.has_category(gump, cat));
        let actor = kg.type_id("Actor").unwrap();
        assert!(!kg.has_type(gump, actor));
    }

    #[test]
    fn labels_aliases_literals() {
        let kg = toy_kg();
        let gump = kg.entity("Forrest_Gump").unwrap();
        let hanks = kg.entity("Tom_Hanks").unwrap();
        assert_eq!(kg.label(gump), Some("Forrest Gump"));
        assert_eq!(kg.display_name(hanks), "Tom Hanks");
        assert_eq!(kg.aliases(gump), &["Geenbow".to_owned()]);
        let lits: Vec<_> = kg.literals(gump).collect();
        assert_eq!(lits.len(), 1);
        assert_eq!(lits[0].1.as_integer(), Some(142));
    }

    #[test]
    fn predicate_statistics() {
        let kg = toy_kg();
        let starring = kg.predicate("starring").unwrap();
        let runtime = kg.predicate("runtime").unwrap();
        assert_eq!(kg.predicate_frequency(starring), 4);
        assert_eq!(kg.predicate_frequency(runtime), 1);
    }

    #[test]
    fn degree_counts_both_directions() {
        let kg = toy_kg();
        let hanks = kg.entity("Tom_Hanks").unwrap();
        assert_eq!(kg.degree(hanks), 2); // two incoming starring edges
        let gump = kg.entity("Forrest_Gump").unwrap();
        assert_eq!(kg.degree(gump), 3); // three outgoing edges
    }

    #[test]
    fn triple_iteration_matches_counts() {
        let kg = toy_kg();
        assert_eq!(kg.entity_triples().count(), kg.relation_count());
        assert_eq!(kg.literal_triples().count(), 1);
    }

    #[test]
    fn empty_graph_is_fine() {
        let kg = KgBuilder::new().finish();
        assert_eq!(kg.entity_count(), 0);
        assert_eq!(kg.triple_count(), 0);
        assert_eq!(kg.entity_triples().count(), 0);
    }

    #[test]
    fn out_predicates_deduplicated() {
        let kg = toy_kg();
        let gump = kg.entity("Forrest_Gump").unwrap();
        let preds = kg.out_predicates(gump);
        assert_eq!(preds.len(), 2); // starring, director
    }

    #[test]
    fn summary_reports_shape() {
        let kg = toy_kg();
        let s = kg.summary();
        assert_eq!(s.entities, 5);
        assert_eq!(s.relation_triples, 5);
        assert_eq!(s.literal_triples, 1);
        assert_eq!(s.max_out_degree, 3); // Forrest_Gump
        assert_eq!(s.max_in_degree, 2); // Tom_Hanks / Gary_Sinise
        assert!((s.avg_degree - 2.0).abs() < 1e-12);
    }

    mod apply {
        use super::*;
        use crate::delta::DeltaBatch;

        /// The toy graph's build script, reusable as the base half of an
        /// append-vs-rebuild comparison.
        fn base_ops(b: &mut KgBuilder) {
            let gump = b.entity("Forrest_Gump");
            let apollo = b.entity("Apollo_13_(film)");
            let hanks = b.entity("Tom_Hanks");
            let starring = b.predicate("starring");
            b.triple(gump, starring, hanks);
            b.triple(apollo, starring, hanks);
            b.typed(gump, "Film");
            b.typed(apollo, "Film");
            b.categorized(gump, "American films");
        }

        fn delta() -> DeltaBatch {
            let mut d = DeltaBatch::new();
            d.triple("Cast_Away", "starring", "Tom_Hanks")
                .triple("Cast_Away", "director", "Robert_Zemeckis")
                .typed("Cast_Away", "Film")
                .typed("Robert_Zemeckis", "Director")
                .categorized("Cast_Away", "American films")
                .categorized("Cast_Away", "Survival films")
                .label("Cast_Away", "Cast Away")
                .literal("Cast_Away", "runtime", Literal::integer(143))
                .redirect("CastAway", "Cast_Away");
            d
        }

        fn assert_same_graph(a: &KnowledgeGraph, b: &KnowledgeGraph) {
            assert_eq!(a.entity_count(), b.entity_count());
            assert_eq!(a.predicate_count(), b.predicate_count());
            assert_eq!(a.type_count(), b.type_count());
            assert_eq!(a.category_count(), b.category_count());
            assert_eq!(a.relation_count(), b.relation_count());
            assert_eq!(a.triple_count(), b.triple_count());
            for e in a.entity_ids() {
                assert_eq!(a.entity_name(e), b.entity_name(e));
                assert_eq!(a.label(e), b.label(e));
                assert_eq!(a.aliases(e), b.aliases(e));
                let ta: Vec<TypeId> = a.types_of(e).collect();
                let tb: Vec<TypeId> = b.types_of(e).collect();
                assert_eq!(ta, tb);
                let ca: Vec<CategoryId> = a.categories_of(e).collect();
                let cb: Vec<CategoryId> = b.categories_of(e).collect();
                assert_eq!(ca, cb);
                for p in a.out_predicates(e) {
                    assert_eq!(a.objects(e, p), b.objects(e, p));
                }
                for p in a.in_predicates(e) {
                    assert_eq!(a.subjects(e, p), b.subjects(e, p));
                }
                assert_eq!(a.literals(e).count(), b.literals(e).count());
            }
            for t in a.type_ids() {
                assert_eq!(a.type_extent(t), b.type_extent(t));
            }
            for c in a.category_ids() {
                assert_eq!(a.category_extent(c), b.category_extent(c));
            }
            for p in a.predicate_ids() {
                assert_eq!(a.predicate_name(p), b.predicate_name(p));
                assert_eq!(a.predicate_frequency(p), b.predicate_frequency(p));
            }
        }

        #[test]
        fn append_equals_rebuild_of_the_union() {
            let mut appended = {
                let mut b = KgBuilder::new();
                base_ops(&mut b);
                b.finish()
            };
            let receipt = appended.apply(&delta());
            assert_eq!(receipt.generation, 1);
            assert_eq!(appended.generation(), 1);
            assert_eq!(receipt.added_relations, 2);
            assert_eq!(receipt.added_literals, 1);
            assert!(!receipt.new_entities.is_empty());

            let rebuilt = {
                let mut b = KgBuilder::new();
                base_ops(&mut b);
                delta().apply_to_builder(&mut b);
                b.finish()
            };
            assert_same_graph(&appended, &rebuilt);
        }

        #[test]
        fn duplicate_statements_are_not_reinserted() {
            let mut kg = {
                let mut b = KgBuilder::new();
                base_ops(&mut b);
                b.finish()
            };
            let before_triples = kg.triple_count();
            let mut d = DeltaBatch::new();
            d.triple("Forrest_Gump", "starring", "Tom_Hanks")
                .typed("Forrest_Gump", "Film");
            let receipt = kg.apply(&d);
            assert_eq!(receipt.added_relations, 0);
            assert!(receipt.touched_out.is_empty());
            assert!(receipt.touched_types.is_empty());
            assert_eq!(kg.triple_count(), before_triples);
        }

        #[test]
        fn receipt_lists_exactly_the_touched_extents() {
            let mut kg = {
                let mut b = KgBuilder::new();
                base_ops(&mut b);
                b.finish()
            };
            let gump = kg.entity("Forrest_Gump").unwrap();
            let hanks = kg.entity("Tom_Hanks").unwrap();
            let starring = kg.predicate("starring").unwrap();
            let mut d = DeltaBatch::new();
            d.triple("Tom_Hanks", "starring", "Forrest_Gump"); // reversed edge
            let receipt = kg.apply(&d);
            assert_eq!(receipt.touched_out, vec![(hanks, starring)]);
            assert_eq!(receipt.touched_in, vec![(gump, starring)]);
            assert!(receipt.touched_types.is_empty());
            assert!(receipt.new_entities.is_empty());
        }

        #[test]
        fn append_work_is_sublinear_in_graph_size() {
            use crate::datagen::{generate, DatagenConfig};
            let mut kg = generate(&DatagenConfig::small());
            let m = kg.relation_count() as u64;
            let mut d = DeltaBatch::new();
            for i in 0..10u32 {
                d.triple(
                    kg.entity_name(EntityId::new(i)).to_owned(),
                    "appended_pred",
                    kg.entity_name(EntityId::new(i + 40)).to_owned(),
                );
            }
            let receipt = kg.apply(&d);
            assert_eq!(receipt.added_relations, 10);
            assert!(
                receipt.work < m / 10,
                "append of 10 triples did {} work on a graph of {} relations — \
                 that smells like a rebuild",
                receipt.work,
                m
            );
        }

        /// Regression guard for the batched extent splice: 10k `Typed`
        /// ops into one extent, asserted in *descending* entity-id order
        /// (the worst case for a per-op binary insert, which would shift
        /// the whole tail on every add — ~50M element moves here). The
        /// sort-then-merge splice does one O(extent + adds) pass per
        /// touched extent, so total work stays within a small constant of
        /// the op count.
        #[test]
        fn bulk_extent_work_is_linear_in_batch_size() {
            let n: u32 = 10_000;
            let mut b = KgBuilder::new();
            for i in 0..n {
                b.entity(&format!("e{i}"));
            }
            let mut kg = b.finish();
            let mut d = DeltaBatch::new();
            for i in (0..n).rev() {
                d.typed(format!("e{i}"), "Big");
            }
            let receipt = kg.apply(&d);
            assert_eq!(receipt.touched_types.len(), 1);
            let big = kg.type_id("Big").unwrap();
            let ext = kg.type_extent(big);
            assert_eq!(ext.len(), n as usize);
            assert!(ext.windows(2).all(|w| w[0] < w[1]), "extent stays sorted");
            assert!(
                receipt.work < 100_000,
                "10k-op extent batch did {} work — that smells like a per-op \
                 binary insert (quadratic tail shifting)",
                receipt.work
            );
        }

        #[test]
        fn appended_entities_are_queryable() {
            let mut kg = KgBuilder::new().finish();
            let mut d = DeltaBatch::new();
            d.triple("a", "p", "b").typed("a", "T").label("a", "The A");
            kg.apply(&d);
            let a = kg.entity("a").expect("appended entity resolvable");
            let p = kg.predicate("p").unwrap();
            assert_eq!(kg.objects(a, p).len(), 1);
            assert_eq!(kg.label(a), Some("The A"));
            assert_eq!(kg.degree(a), 1);
            assert!(kg.has_type(a, kg.type_id("T").unwrap()));
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Random edge lists over a small id space.
        fn edges() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
            proptest::collection::vec((0u8..12, 0u8..4, 0u8..12), 0..64)
        }

        fn build(edges: &[(u8, u8, u8)]) -> KnowledgeGraph {
            let mut b = KgBuilder::new();
            // pre-intern a stable entity set
            for i in 0..12u8 {
                b.entity(&format!("e{i}"));
            }
            for &(s, p, o) in edges {
                let s = b.entity(&format!("e{s}"));
                let p = b.predicate(&format!("p{p}"));
                let o = b.entity(&format!("e{o}"));
                b.triple(s, p, o);
            }
            b.finish()
        }

        proptest! {
            /// Adjacency symmetry: o ∈ objects(s,p) ⟺ s ∈ subjects(o,p),
            /// and both sides are sorted and deduplicated.
            #[test]
            fn prop_out_in_symmetry(edges in edges()) {
                let kg = build(&edges);
                for s in kg.entity_ids() {
                    for (p, o) in kg.out_edges(s) {
                        prop_assert!(kg.subjects(o, p).binary_search(&s).is_ok());
                    }
                    for (p, src) in kg.in_edges(s) {
                        prop_assert!(kg.objects(src, p).binary_search(&s).is_ok());
                    }
                    for p in kg.out_predicates(s) {
                        let objs = kg.objects(s, p);
                        prop_assert!(objs.windows(2).all(|w| w[0] < w[1]));
                    }
                }
            }

            /// The triple count seen through iteration equals the count
            /// after sort+dedup of the input.
            #[test]
            fn prop_triple_count_is_dedup_count(edges in edges()) {
                let kg = build(&edges);
                let mut uniq = edges.clone();
                uniq.sort_unstable();
                uniq.dedup();
                prop_assert_eq!(kg.relation_count(), uniq.len());
                prop_assert_eq!(kg.entity_triples().count(), uniq.len());
            }

            /// Degrees are consistent with edge iteration.
            #[test]
            fn prop_degree_matches_edges(edges in edges()) {
                let kg = build(&edges);
                for e in kg.entity_ids() {
                    let expected = kg.out_edges(e).count() + kg.in_edges(e).count();
                    prop_assert_eq!(kg.degree(e), expected);
                }
            }
        }
    }

    mod retract {
        use super::*;

        #[test]
        fn retract_triple_removes_both_directions() {
            let mut kg = toy_kg();
            let gump = kg.entity("Forrest_Gump").unwrap();
            let hanks = kg.entity("Tom_Hanks").unwrap();
            let starring = kg.predicate("starring").unwrap();
            let mut d = DeltaBatch::new();
            d.retract_triple("Forrest_Gump", "starring", "Tom_Hanks");
            let r = kg.apply(&d);
            assert_eq!(r.removed_relations, 1);
            assert_eq!(r.touched_out, vec![(gump, starring)]);
            assert_eq!(r.touched_in, vec![(hanks, starring)]);
            assert_eq!(r.generation, 1);
            assert!(kg.objects(gump, starring).binary_search(&hanks).is_err());
            assert!(kg.subjects(hanks, starring).binary_search(&gump).is_err());
            assert_eq!(kg.relation_count(), 4);
            assert_eq!(kg.predicate_frequency(starring), 3);
            assert_eq!(kg.tombstone_count(), 1);
            // the untouched co-starring edge survives
            let sinise = kg.entity("Gary_Sinise").unwrap();
            assert!(kg.objects(gump, starring).binary_search(&sinise).is_ok());
        }

        #[test]
        fn retract_of_unknown_names_is_a_no_op_and_never_interns() {
            let mut kg = toy_kg();
            let entities = kg.entity_count();
            let mut d = DeltaBatch::new();
            d.retract_triple("No_Such_Subject", "starring", "Tom_Hanks")
                .retract_triple("Forrest_Gump", "no_such_pred", "Tom_Hanks")
                .retract_typed("Forrest_Gump", "No_Such_Type")
                .retract_categorized("No_Such_Entity", "American films")
                .retract_label("No_Such_Entity", "x")
                .retract_alias("Geenbow", "No_Such_Entity")
                .retract_literal("No_Such_Entity", "runtime", Literal::integer(1));
            let r = kg.apply(&d);
            assert_eq!(
                r.removed_relations + r.removed_literals + r.removed_assertions,
                0
            );
            assert!(r.touched_out.is_empty() && r.touched_in.is_empty());
            assert_eq!(kg.entity_count(), entities);
            assert_eq!(kg.entity("No_Such_Subject"), None);
            assert_eq!(kg.tombstone_count(), 0);
            assert_eq!(kg.triple_count(), toy_kg().triple_count());
        }

        #[test]
        fn retract_facets_and_label_and_alias() {
            let mut kg = toy_kg();
            let gump = kg.entity("Forrest_Gump").unwrap();
            let film = kg.type_id("Film").unwrap();
            let cat = kg.category_id("American films").unwrap();
            let mut d = DeltaBatch::new();
            d.retract_typed("Forrest_Gump", "Film")
                .retract_categorized("Forrest_Gump", "American films")
                .retract_label("Forrest_Gump", "Forrest Gump")
                .retract_alias("Geenbow", "Forrest_Gump")
                .retract_literal("Forrest_Gump", "runtime", Literal::integer(142));
            let r = kg.apply(&d);
            // type + category + label + alias each count as one assertion
            assert_eq!(r.removed_assertions, 4);
            assert_eq!(r.removed_literals, 1);
            assert_eq!(r.touched_types, vec![film]);
            assert_eq!(r.touched_categories, vec![cat]);
            assert!(!kg.has_type(gump, film));
            assert!(!kg.has_category(gump, cat));
            assert_eq!(
                kg.type_extent(film),
                &[kg.entity("Apollo_13_(film)").unwrap()]
            );
            assert_eq!(kg.label(gump), None);
            assert!(kg.aliases(gump).is_empty());
            assert_eq!(kg.literals(gump).count(), 0);
            // type + category + literal tombstone; labels and aliases are
            // cleared in place, not tombstoned
            assert_eq!(kg.tombstone_count(), 3);
        }

        #[test]
        fn retract_label_only_clears_a_matching_value() {
            let mut kg = toy_kg();
            let gump = kg.entity("Forrest_Gump").unwrap();
            let mut d = DeltaBatch::new();
            d.retract_label("Forrest_Gump", "Stale Label");
            kg.apply(&d);
            assert_eq!(kg.label(gump), Some("Forrest Gump"));
        }

        #[test]
        fn retract_literal_removes_every_matching_copy() {
            let mut b = KgBuilder::new();
            let e = b.entity("e");
            let p = b.predicate("p");
            b.literal_triple(e, p, Literal::integer(7));
            b.literal_triple(e, p, Literal::integer(7));
            b.literal_triple(e, p, Literal::integer(9));
            let mut kg = b.finish();
            let mut d = DeltaBatch::new();
            d.retract_literal("e", "p", Literal::integer(7));
            let r = kg.apply(&d);
            assert_eq!(r.removed_literals, 2);
            let lits: Vec<_> = kg.literals(e).map(|(_, l)| l.clone()).collect();
            assert_eq!(lits, vec![Literal::integer(9)]);
        }

        #[test]
        fn mixed_polarity_batch_applies_in_order_with_one_generation_bump() {
            let mut kg = toy_kg();
            let mut d = DeltaBatch::new();
            // insert, retract the inserted edge, insert it again: order matters
            d.triple("Forrest_Gump", "starring", "Robert_Zemeckis");
            d.retract_triple("Forrest_Gump", "starring", "Robert_Zemeckis");
            d.triple("Forrest_Gump", "starring", "Robert_Zemeckis");
            let r = kg.apply(&d);
            assert_eq!(r.generation, 1);
            assert_eq!(kg.generation(), 1);
            assert_eq!(r.added_relations, 2);
            assert_eq!(r.removed_relations, 1);
            let gump = kg.entity("Forrest_Gump").unwrap();
            let zemeckis = kg.entity("Robert_Zemeckis").unwrap();
            let starring = kg.predicate("starring").unwrap();
            assert!(kg.objects(gump, starring).binary_search(&zemeckis).is_ok());
        }

        #[test]
        fn reinsert_after_retract_restores_the_row() {
            let mut kg = toy_kg();
            let mut d = DeltaBatch::new();
            d.retract_triple("Forrest_Gump", "starring", "Tom_Hanks");
            kg.apply(&d);
            let mut d2 = DeltaBatch::new();
            d2.triple("Forrest_Gump", "starring", "Tom_Hanks");
            kg.apply(&d2);
            let gump = kg.entity("Forrest_Gump").unwrap();
            let hanks = kg.entity("Tom_Hanks").unwrap();
            let starring = kg.predicate("starring").unwrap();
            assert!(kg.objects(gump, starring).binary_search(&hanks).is_ok());
            assert_eq!(kg.relation_count(), 5);
            // the tombstone of the retracted row survives until reclaim
            assert_eq!(kg.tombstone_count(), 1);
        }

        #[test]
        fn reclaim_drops_tombstones_and_preserves_answers() {
            let mut kg = toy_kg();
            let mut d = DeltaBatch::new();
            d.retract_triple("Forrest_Gump", "starring", "Gary_Sinise")
                .retract_typed("Zemeckis_Wrong", "Film") // unknown: no-op
                .retract_categorized("Apollo_13_(film)", "American films")
                .retract_literal("Forrest_Gump", "runtime", Literal::integer(142));
            kg.apply(&d);
            assert_eq!(kg.tombstone_count(), 3);
            let r = kg.reclaim();
            assert_eq!(r.tombstone_count(), 0);
            assert_eq!(r.generation(), kg.generation() + 1);
            // identical live view, identical ids
            assert_eq!(r.entity_count(), kg.entity_count());
            assert_eq!(r.triple_count(), kg.triple_count());
            for e in kg.entity_ids() {
                assert_eq!(r.entity_name(e), kg.entity_name(e));
                assert_eq!(r.label(e), kg.label(e));
                assert_eq!(r.degree(e), kg.degree(e));
            }
            assert_eq!(
                crate::ntriples::serialize(&r),
                crate::ntriples::serialize(&kg)
            );
        }
    }
}
