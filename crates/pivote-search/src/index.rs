//! Per-field inverted index with the collection statistics the retrieval
//! models need (term/collection frequencies, document and average lengths).
//!
//! The build does each piece of text work once. Every distinct string is
//! analyzed a single time into dense integer term ids (entity display
//! names in a first pass, category labels at first use, literals and
//! aliases where they occur), and everything after the analyzer — field
//! assembly, term-frequency counting, posting construction — runs on
//! those ids. Term strings come back only at the end, when the per-id
//! posting vectors become the `term → Posting` maps every reader uses.
//! The documents indexed are exactly those of
//! [`FiveFieldRepr::build_keyed`](crate::fields::FiveFieldRepr::build_keyed),
//! which the build never materializes.

use crate::fields::Field;
use pivote_kg::{EntityId, KnowledgeGraph, PredicateId};
use pivote_text::{raw_tokens, Analyzer};
use std::collections::HashMap;

/// Postings of one term within one field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Posting {
    /// `(entity raw id, term frequency)` sorted by entity id.
    pub docs: Vec<(u32, u32)>,
    /// Collection frequency: total occurrences across all documents.
    pub cf: u64,
}

impl Posting {
    /// Term frequency in one document (0 when absent).
    pub fn tf(&self, doc: u32) -> u32 {
        match self.docs.binary_search_by_key(&doc, |&(d, _)| d) {
            Ok(i) => self.docs[i].1,
            Err(_) => 0,
        }
    }

    /// Document frequency: number of documents containing the term.
    pub fn df(&self) -> usize {
        self.docs.len()
    }
}

/// Inverted index for one field.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct FieldIndex {
    postings: HashMap<String, Posting>,
    doc_len: Vec<u32>,
    total_len: u64,
}

impl FieldIndex {
    /// Postings of `term`, if any document contains it.
    pub fn posting(&self, term: &str) -> Option<&Posting> {
        self.postings.get(term)
    }

    /// Token count of document `doc` in this field.
    pub fn doc_len(&self, doc: u32) -> u32 {
        self.doc_len.get(doc as usize).copied().unwrap_or(0)
    }

    /// Total tokens in this field across the collection.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Average field length over all documents.
    pub fn avg_len(&self) -> f64 {
        if self.doc_len.is_empty() {
            0.0
        } else {
            self.total_len as f64 / self.doc_len.len() as f64
        }
    }

    /// Collection language-model probability `p(t | C_field)`, with
    /// add-epsilon flooring so unseen terms keep a tiny nonzero mass.
    pub fn collection_prob(&self, term: &str) -> f64 {
        let cf = self.posting(term).map(|p| p.cf).unwrap_or(0) as f64;
        let total = self.total_len.max(1) as f64;
        (cf + 0.01) / (total + 0.01 * (self.postings.len().max(1) as f64))
    }

    /// Number of distinct terms.
    pub fn vocabulary_size(&self) -> usize {
        self.postings.len()
    }

    /// All `(term, posting)` pairs, in arbitrary order — the iteration
    /// corpus-statistics merging is built on.
    pub fn postings(&self) -> impl Iterator<Item = (&str, &Posting)> {
        self.postings.iter().map(|(t, p)| (t.as_str(), p))
    }
}

/// The full five-field index over every entity of a knowledge graph.
#[derive(Debug, PartialEq, Eq)]
pub struct FieldedIndex {
    fields: [FieldIndex; 5],
    n_docs: usize,
}

impl FieldedIndex {
    /// Index every entity of `kg`. `max_related` caps the related-names
    /// field per entity (see
    /// [`FiveFieldRepr::build`](crate::fields::FiveFieldRepr::build)).
    pub fn build(kg: &KnowledgeGraph, analyzer: &Analyzer, max_related: usize) -> Self {
        Self::build_keyed(kg, analyzer, max_related, |e| e.raw())
    }

    /// Index every entity of `kg`, selecting capped related-names
    /// neighbours in `(predicate, key)` order (see
    /// [`FiveFieldRepr::build_keyed`](crate::fields::FiveFieldRepr::build_keyed)).
    /// Shard-local indexes pass the local→global id map here so the
    /// documents they build are bit-identical to the single-graph
    /// documents; [`Self::build`] is the identity-key special case.
    pub fn build_keyed(
        kg: &KnowledgeGraph,
        analyzer: &Analyzer,
        max_related: usize,
        key: impl Fn(EntityId) -> u32 + Copy,
    ) -> Self {
        let mut vocab = Vocabulary::new(*analyzer);
        let names = analyze_names(kg, &mut vocab);
        let mut fields: [FieldPostings; 5] =
            std::array::from_fn(|_| FieldPostings::for_docs(kg.entity_count()));
        // one document field's term ids, and one adjacency row, reused
        let mut ids: Vec<u32> = Vec::new();
        let mut row: Vec<(u32, u32, EntityId)> = Vec::new();
        // category → the term ids of its label, analyzed at first use
        let mut category_terms: Vec<Option<Vec<u32>>> = vec![None; kg.category_count()];
        for e in kg.entity_ids() {
            let doc = e.raw();

            ids.extend_from_slice(names.get(e));
            if let Some(label) = kg.label(e) {
                let name = kg.entity_name(e);
                if !is_spaced_name(label, name) {
                    vocab.analyze_into(name, &mut ids);
                }
            }
            fields[Field::Names.index()].push_doc(doc, &mut ids);

            for (_, literal) in kg.literals(e) {
                vocab.analyze_into(&literal.lexical, &mut ids);
            }
            fields[Field::Attributes.index()].push_doc(doc, &mut ids);

            for c in kg.categories_of(e) {
                let terms = category_terms[c.index()].get_or_insert_with(|| {
                    let mut terms = Vec::new();
                    vocab.analyze_into(kg.category_name(c), &mut terms);
                    terms
                });
                ids.extend_from_slice(terms);
            }
            fields[Field::Categories.index()].push_doc(doc, &mut ids);

            for alias in kg.aliases(e) {
                vocab.analyze_into(alias, &mut ids);
            }
            fields[Field::SimilarNames.index()].push_doc(doc, &mut ids);

            // out-edges first, in-edges into whatever room they leave
            let mut related = |edges: &mut dyn Iterator<Item = (PredicateId, EntityId)>,
                               room: usize| {
                row.clear();
                row.extend(edges.map(|(p, n)| (p.raw(), key(n), n)));
                // a row that fits is taken whole as stored (a document
                // is a bag of terms); a longer one is cut in
                // `(predicate, key)` order
                if row.len() > room {
                    row.sort_unstable_by_key(|&(p, k, _)| (p, k));
                    row.truncate(room);
                }
                for &(_, _, n) in &row {
                    ids.extend_from_slice(names.get(n));
                }
                row.len()
            };
            let taken = related(&mut kg.out_edges(e), max_related);
            if taken < max_related {
                related(&mut kg.in_edges(e), max_related - taken);
            }
            fields[Field::RelatedNames.index()].push_doc(doc, &mut ids);
        }

        let terms = vocab.into_terms();
        let fields = fields.map(|field| field.finish(&terms));
        // entity_ids iterates in ascending order, so postings are sorted.
        debug_assert!(fields.iter().all(|f| f
            .postings
            .values()
            .all(|p| p.docs.windows(2).all(|w| w[0].0 < w[1].0))));
        Self {
            fields,
            n_docs: kg.entity_count(),
        }
    }

    /// The index of one field.
    pub fn field(&self, f: Field) -> &FieldIndex {
        &self.fields[f.index()]
    }

    /// Number of indexed documents (= entities).
    pub fn doc_count(&self) -> usize {
        self.n_docs
    }

    /// Union of candidate documents containing `term` in any field.
    pub fn candidates(&self, terms: &[String]) -> Vec<EntityId> {
        let mut docs: Vec<u32> = Vec::new();
        for term in terms {
            for field in &self.fields {
                if let Some(p) = field.posting(term) {
                    docs.extend(p.docs.iter().map(|&(d, _)| d));
                }
            }
        }
        docs.sort_unstable();
        docs.dedup();
        docs.into_iter().map(EntityId::new).collect()
    }
}

/// The build-local term dictionary: analyzed term → dense id in
/// first-seen order, fronted by a memo from raw token to its term id
/// (`None` for a stopword) so a token seen before costs one hash probe
/// and no analysis.
struct Vocabulary {
    analyzer: Analyzer,
    ids: HashMap<String, u32>,
    memo: HashMap<String, Option<u32>>,
    buf: String,
}

impl Vocabulary {
    fn new(analyzer: Analyzer) -> Self {
        Self {
            analyzer,
            ids: HashMap::new(),
            memo: HashMap::new(),
            buf: String::new(),
        }
    }

    /// Append the term ids of `text` to `out`.
    fn analyze_into(&mut self, text: &str, out: &mut Vec<u32>) {
        for raw in raw_tokens(text) {
            let id = match self.memo.get(raw) {
                Some(&id) => id,
                None => {
                    let id = self.analyzer.term(raw, &mut self.buf).map(|term| {
                        if let Some(&id) = self.ids.get(term) {
                            return id;
                        }
                        let id = u32::try_from(self.ids.len()).expect("term ids fit u32");
                        self.ids.insert(term.to_owned(), id);
                        id
                    });
                    self.memo.insert(raw.to_owned(), id);
                    id
                }
            };
            out.extend(id);
        }
    }

    /// The terms by id.
    fn into_terms(self) -> Vec<String> {
        let mut terms = vec![String::new(); self.ids.len()];
        for (term, id) in self.ids {
            terms[id as usize] = term;
        }
        terms
    }
}

/// Term ids of every entity's analyzed display name in one flat vector:
/// entity `e` is `ids[offsets[e]..offsets[e + 1]]`.
struct NameTerms {
    ids: Vec<u32>,
    offsets: Vec<usize>,
}

impl NameTerms {
    fn get(&self, e: EntityId) -> &[u32] {
        &self.ids[self.offsets[e.index()]..self.offsets[e.index() + 1]]
    }
}

/// Analyze every entity's display name once. The display name is the
/// label, else the entity name with `_` spaced out — and `_` separates
/// tokens exactly as a space does, so the name is analyzed as stored.
fn analyze_names(kg: &KnowledgeGraph, vocab: &mut Vocabulary) -> NameTerms {
    let mut ids = Vec::new();
    let mut offsets = Vec::with_capacity(kg.entity_count() + 1);
    offsets.push(0);
    for e in kg.entity_ids() {
        let name = kg.label(e).unwrap_or_else(|| kg.entity_name(e));
        vocab.analyze_into(name, &mut ids);
        offsets.push(ids.len());
    }
    NameTerms { ids, offsets }
}

/// Whether `label` is `name` with its underscores spaced out:
/// `label == name.replace('_', " ")` without the allocation.
fn is_spaced_name(label: &str, name: &str) -> bool {
    label.len() == name.len()
        && label
            .bytes()
            .zip(name.bytes())
            .all(|(l, n)| l == if n == b'_' { b' ' } else { n })
}

/// One field's index under construction: posting vectors by term id.
struct FieldPostings {
    postings: Vec<Vec<(u32, u32)>>,
    doc_len: Vec<u32>,
    total_len: u64,
}

impl FieldPostings {
    fn for_docs(n: usize) -> Self {
        Self {
            postings: Vec::new(),
            doc_len: Vec::with_capacity(n),
            total_len: 0,
        }
    }

    /// Close the next document: `ids` holds the field's term ids in any
    /// order and is left empty.
    fn push_doc(&mut self, doc: u32, ids: &mut Vec<u32>) {
        self.doc_len.push(ids.len() as u32);
        self.total_len += ids.len() as u64;
        ids.sort_unstable();
        if let Some(&max) = ids.last() {
            if self.postings.len() <= max as usize {
                self.postings.resize_with(max as usize + 1, Vec::new);
            }
        }
        for run in ids.chunk_by(|a, b| a == b) {
            self.postings[run[0] as usize].push((doc, run.len() as u32));
        }
        ids.clear();
    }

    /// Key the posting vectors by term string. A term is in this field's
    /// vocabulary only if a document of the field has it:
    /// `vocabulary_size` is a `collection_prob` input.
    fn finish(self, terms: &[String]) -> FieldIndex {
        let postings = self
            .postings
            .into_iter()
            .enumerate()
            .filter(|(_, docs)| !docs.is_empty())
            .map(|(id, docs)| {
                let cf = docs.iter().map(|&(_, tf)| u64::from(tf)).sum();
                (terms[id].clone(), Posting { docs, cf })
            })
            .collect();
        FieldIndex {
            postings,
            doc_len: self.doc_len,
            total_len: self.total_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::FiveFieldRepr;
    use pivote_kg::{generate, DatagenConfig, KgBuilder, KnowledgeGraph, Literal};
    use proptest::prelude::*;

    /// The build this module replaced, kept as the oracle: materialize
    /// every entity's [`FiveFieldRepr`], analyze each snippet with
    /// [`Analyzer::analyze`] and count terms in a per-document string map.
    fn reference(
        kg: &KnowledgeGraph,
        analyzer: &Analyzer,
        max_related: usize,
        key: impl Fn(EntityId) -> u32 + Copy,
    ) -> FieldedIndex {
        let n = kg.entity_count();
        let mut fields: [FieldIndex; 5] = Default::default();
        for f in &mut fields {
            f.doc_len = vec![0; n];
        }
        let mut tf_buf: HashMap<String, u32> = HashMap::new();
        for e in kg.entity_ids() {
            let repr = FiveFieldRepr::build_keyed(kg, e, max_related, key);
            for field in Field::ALL {
                let fi = &mut fields[field.index()];
                tf_buf.clear();
                let mut len = 0u32;
                for snippet in repr.field(field) {
                    for token in analyzer.analyze(snippet) {
                        *tf_buf.entry(token).or_insert(0) += 1;
                        len += 1;
                    }
                }
                fi.doc_len[e.index()] = len;
                fi.total_len += u64::from(len);
                for (term, tf) in tf_buf.drain() {
                    let posting = fi.postings.entry(term).or_default();
                    posting.docs.push((e.raw(), tf));
                    posting.cf += u64::from(tf);
                }
            }
        }
        FieldedIndex { fields, n_docs: n }
    }

    /// Words the generated names, labels, literals, categories and
    /// aliases are drawn from: stopwords, every stemmer rule, mixed
    /// case, digits, and non-ASCII tokens whose lowercase form changes
    /// length (`İ`), stays put (`ß`) or depends on position (final `Σ`).
    const WORDS: [&str; 18] = [
        "The",
        "of",
        "is",
        "Films",
        "FILM",
        "film",
        "Categories",
        "boxes",
        "Starring",
        "directed",
        "quietly",
        "1994",
        "İstanbul",
        "Straße",
        "STRASSE",
        "ΟΔΟΣ",
        "οδός",
        "Amélie",
    ];

    fn phrase(words: &[usize], separator: &str) -> String {
        let words: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
        words.join(separator)
    }

    /// Entity spec: name words, label kind (none / the spaced name /
    /// free text), label words.
    type EntitySpec = (Vec<usize>, u8, Vec<usize>);

    /// A small graph from drawn specs. Entity 0 is a hub linked to and
    /// from every other entity, so it exceeds a small `max_related` in
    /// both edge directions; `texts` attach a literal, a category or an
    /// alias (by kind) to an entity.
    fn small_graph(
        entities: &[EntitySpec],
        edges: &[(usize, usize, usize)],
        texts: &[(usize, u8, Vec<usize>)],
    ) -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        let ids: Vec<EntityId> = entities
            .iter()
            .enumerate()
            .map(|(i, (name, label_kind, label))| {
                let name = format!("{}_{i}", phrase(name, "_"));
                let e = b.entity(&name);
                match label_kind {
                    0 => {}
                    1 => b.label(e, name.replace('_', " ")),
                    _ => b.label(e, phrase(label, " ")),
                }
                e
            })
            .collect();
        let preds = [b.predicate("p0"), b.predicate("p1"), b.predicate("p2")];
        for (i, &e) in ids.iter().enumerate().skip(1) {
            b.triple(ids[0], preds[i % 2], e);
            b.triple(e, preds[(i + 1) % 2], ids[0]);
        }
        for &(s, p, o) in edges {
            b.triple(ids[s % ids.len()], preds[p], ids[o % ids.len()]);
        }
        for (e, kind, words) in texts {
            let e = ids[e % ids.len()];
            match kind {
                0 => b.literal_triple(e, preds[0], Literal::string(phrase(words, ", "))),
                1 => {
                    b.categorized(e, &phrase(words, " "));
                }
                _ => b.redirect(phrase(words, "_"), e),
            }
        }
        b.finish()
    }

    proptest! {
        /// The term-id build equals the per-snippet reference as a value
        /// — postings, `cf`, `doc_len`, `total_len` and the per-field
        /// vocabulary — under the identity key and under a reversed-id
        /// key (a shard-local build passes a non-identity key too).
        #[test]
        fn prop_build_equals_reference(
            entities in proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..WORDS.len(), 1..3),
                    0u8..3,
                    proptest::collection::vec(0usize..WORDS.len(), 0..4),
                ),
                1..10,
            ),
            edges in proptest::collection::vec((0usize..64, 0usize..3, 0usize..64), 0..40),
            texts in proptest::collection::vec(
                (0usize..64, 0u8..3, proptest::collection::vec(0usize..WORDS.len(), 0..4)),
                0..30,
            ),
            max_related in 0usize..6,
        ) {
            let kg = small_graph(&entities, &edges, &texts);
            let last = kg.entity_count() as u32 - 1;
            for analyzer in [Analyzer::default(), Analyzer::plain()] {
                prop_assert_eq!(
                    FieldedIndex::build(&kg, &analyzer, max_related),
                    reference(&kg, &analyzer, max_related, |e| e.raw())
                );
                prop_assert_eq!(
                    FieldedIndex::build_keyed(&kg, &analyzer, max_related, |e| last - e.raw()),
                    reference(&kg, &analyzer, max_related, |e| last - e.raw())
                );
            }
        }
    }

    #[test]
    fn generated_graph_equals_reference() {
        let kg = generate(&DatagenConfig::tiny());
        let analyzer = Analyzer::default();
        // a cap of 4 cuts most films' neighbour rows, 128 almost none
        for max_related in [4, 128] {
            let built = FieldedIndex::build(&kg, &analyzer, max_related);
            let expected = reference(&kg, &analyzer, max_related, |e| e.raw());
            assert!(built == expected, "max_related={max_related}");
        }
    }

    #[test]
    fn spaced_name_test_matches_the_allocating_comparison() {
        for (label, name) in [
            ("Forrest Gump", "Forrest_Gump"),
            ("Forrest_Gump", "Forrest_Gump"),
            ("Forrest  Gump", "Forrest_Gump"),
            ("forrest gump", "Forrest_Gump"),
            ("İ b", "İ_b"),
            ("", ""),
            ("a", "a_"),
        ] {
            assert_eq!(
                is_spaced_name(label, name),
                label == name.replace('_', " "),
                "{label:?} vs {name:?}"
            );
        }
    }

    fn kg() -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        let gump = b.entity("Forrest_Gump");
        let apollo = b.entity("Apollo_13");
        let hanks = b.entity("Tom_Hanks");
        b.label(gump, "Forrest Gump");
        b.label(apollo, "Apollo 13");
        b.label(hanks, "Tom Hanks");
        let starring = b.predicate("starring");
        b.triple(gump, starring, hanks);
        b.triple(apollo, starring, hanks);
        let runtime = b.predicate("runtime");
        b.literal_triple(gump, runtime, Literal::string("142 minutes"));
        b.categorized(gump, "American films");
        b.categorized(apollo, "American films");
        b.finish()
    }

    fn index() -> (KnowledgeGraph, FieldedIndex) {
        let kg = kg();
        let idx = FieldedIndex::build(&kg, &Analyzer::default(), 64);
        (kg, idx)
    }

    #[test]
    fn doc_count_equals_entities() {
        let (kg, idx) = index();
        assert_eq!(idx.doc_count(), kg.entity_count());
    }

    #[test]
    fn names_field_finds_gump() {
        let (kg, idx) = index();
        let gump = kg.entity("Forrest_Gump").unwrap();
        let p = idx.field(Field::Names).posting("gump").unwrap();
        assert_eq!(p.df(), 1);
        assert_eq!(p.tf(gump.raw()), 1);
    }

    #[test]
    fn categories_field_shared_between_films() {
        let (_, idx) = index();
        let p = idx.field(Field::Categories).posting("american").unwrap();
        assert_eq!(p.df(), 2);
        assert_eq!(p.cf, 2);
    }

    #[test]
    fn related_names_field_connects_hanks_to_films() {
        let (kg, idx) = index();
        let hanks = kg.entity("Tom_Hanks").unwrap();
        // "gump" appears in the related-names field of Tom_Hanks (incoming edge)
        let p = idx.field(Field::RelatedNames).posting("gump").unwrap();
        assert!(p.tf(hanks.raw()) > 0);
    }

    #[test]
    fn collection_prob_positive_even_for_unseen() {
        let (_, idx) = index();
        let seen = idx.field(Field::Names).collection_prob("gump");
        let unseen = idx.field(Field::Names).collection_prob("zzzz");
        assert!(seen > unseen);
        assert!(unseen > 0.0);
    }

    #[test]
    fn doc_lengths_accumulate() {
        let (kg, idx) = index();
        let gump = kg.entity("Forrest_Gump").unwrap();
        assert_eq!(idx.field(Field::Names).doc_len(gump.raw()), 2); // forrest gump
        assert!(idx.field(Field::Names).avg_len() > 0.0);
    }

    #[test]
    fn candidates_union_across_fields() {
        let (kg, idx) = index();
        let cands = idx.candidates(&["gump".to_owned()]);
        // Forrest_Gump (names) + Tom_Hanks (related names)
        assert!(cands.contains(&kg.entity("Forrest_Gump").unwrap()));
        assert!(cands.contains(&kg.entity("Tom_Hanks").unwrap()));
    }

    #[test]
    fn empty_graph_index() {
        let kg = KgBuilder::new().finish();
        let idx = FieldedIndex::build(&kg, &Analyzer::default(), 64);
        assert_eq!(idx.doc_count(), 0);
        assert!(idx.candidates(&["x".to_owned()]).is_empty());
    }
}
