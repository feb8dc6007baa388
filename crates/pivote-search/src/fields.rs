//! The five-field entity representation (Table 1 of the paper).
//!
//! Each entity becomes a structured document with five fields:
//!
//! | Field | Content |
//! |---|---|
//! | names | its labels |
//! | attributes | its literals |
//! | categories | the labels of its categories |
//! | similar entity names | labels of redirected/disambiguated entities |
//! | related entity names | labels of connected entities |
//!
//! The same builder feeds both the inverted index and the human-readable
//! Table-1 rendering used by `examples/figures.rs`.

use pivote_kg::{EntityId, KnowledgeGraph};
use serde::{Deserialize, Serialize};

/// The five fields, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Field {
    /// Entity labels.
    Names,
    /// Literal values.
    Attributes,
    /// Category labels.
    Categories,
    /// Redirect / disambiguation aliases.
    SimilarNames,
    /// Labels of connected entities (both edge directions).
    RelatedNames,
}

impl Field {
    /// All five fields in canonical order.
    pub const ALL: [Field; 5] = [
        Field::Names,
        Field::Attributes,
        Field::Categories,
        Field::SimilarNames,
        Field::RelatedNames,
    ];

    /// Dense index `0..5` of this field.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Field::Names => 0,
            Field::Attributes => 1,
            Field::Categories => 2,
            Field::SimilarNames => 3,
            Field::RelatedNames => 4,
        }
    }

    /// The paper's field name (Table 1).
    pub fn name(self) -> &'static str {
        match self {
            Field::Names => "names",
            Field::Attributes => "attributes",
            Field::Categories => "categories",
            Field::SimilarNames => "similar entity names",
            Field::RelatedNames => "related entity names",
        }
    }
}

/// The textual content of the five fields for one entity.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FiveFieldRepr {
    /// One list of snippets per field, indexed by [`Field::index`].
    pub fields: [Vec<String>; 5],
}

impl FiveFieldRepr {
    /// Build the representation of `e` from the graph.
    ///
    /// `max_related` bounds the number of neighbour labels pulled into the
    /// "related entity names" field so hub entities don't produce
    /// megabyte-scale documents (the paper's DBpedia hubs have thousands
    /// of neighbours).
    pub fn build(kg: &KnowledgeGraph, e: EntityId, max_related: usize) -> Self {
        Self::build_keyed(kg, e, max_related, |id| id.raw())
    }

    /// Like [`FiveFieldRepr::build`], but the capped related-names
    /// neighbours are selected in `(predicate, key(neighbour))` order.
    ///
    /// The adjacency rows enumerate neighbours sorted by their ids *in
    /// `kg`'s own id space*, so a shard-local graph (whose ghosts sit
    /// above the owned range) would truncate a hub entity's neighbour
    /// list differently than the global graph does. Passing the shard's
    /// local→global map as `key` restores the global selection order,
    /// making the shard-built document bit-identical to the single-graph
    /// one. With the identity key this is exactly [`FiveFieldRepr::build`]
    /// (rows are already sorted by `(predicate, id)`).
    pub fn build_keyed(
        kg: &KnowledgeGraph,
        e: EntityId,
        max_related: usize,
        key: impl Fn(EntityId) -> u32,
    ) -> Self {
        let mut fields: [Vec<String>; 5] = Default::default();
        fields[Field::Names.index()].push(kg.display_name(e));
        let name = kg.entity_name(e);
        let spaced = name.replace('_', " ");
        if kg.label(e) != Some(spaced.as_str()) && kg.label(e).is_some() {
            fields[Field::Names.index()].push(spaced);
        }
        for (_, lit) in kg.literals(e) {
            fields[Field::Attributes.index()].push(lit.lexical.clone());
        }
        for c in kg.categories_of(e) {
            fields[Field::Categories.index()].push(kg.category_name(c).to_owned());
        }
        for alias in kg.aliases(e) {
            fields[Field::SimilarNames.index()].push(alias.clone());
        }
        let related = &mut fields[Field::RelatedNames.index()];
        let push_sorted = |edges: &mut Vec<(u32, u32, EntityId)>, related: &mut Vec<String>| {
            edges.sort_unstable_by_key(|&(p, k, _)| (p, k));
            for &(_, _, n) in edges.iter().take(max_related.saturating_sub(related.len())) {
                related.push(kg.display_name(n));
            }
        };
        let mut out: Vec<(u32, u32, EntityId)> =
            kg.out_edges(e).map(|(p, o)| (p.raw(), key(o), o)).collect();
        push_sorted(&mut out, related);
        if related.len() < max_related {
            let mut inc: Vec<(u32, u32, EntityId)> =
                kg.in_edges(e).map(|(p, s)| (p.raw(), key(s), s)).collect();
            push_sorted(&mut inc, related);
        }
        Self { fields }
    }

    /// The snippets of one field.
    pub fn field(&self, f: Field) -> &[String] {
        &self.fields[f.index()]
    }

    /// Render as the paper's Table 1 (field name + content preview).
    pub fn to_table(&self, max_snippets: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:<22} | content", "field");
        let _ = writeln!(out, "{}-+-{}", "-".repeat(22), "-".repeat(40));
        for f in Field::ALL {
            let snippets = self.field(f);
            let shown: Vec<&str> = snippets
                .iter()
                .take(max_snippets)
                .map(String::as_str)
                .collect();
            let suffix = if snippets.len() > max_snippets {
                ", etc."
            } else {
                ""
            };
            let _ = writeln!(out, "{:<22} | {}{}", f.name(), shown.join(", "), suffix);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_kg::{KgBuilder, Literal};

    fn kg() -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        let gump = b.entity("Forrest_Gump");
        let hanks = b.entity("Tom_Hanks");
        let zemeckis = b.entity("Robert_Zemeckis");
        b.label(gump, "Forrest Gump");
        b.label(hanks, "Tom Hanks");
        b.label(zemeckis, "Robert Zemeckis");
        let starring = b.predicate("starring");
        let director = b.predicate("director");
        b.triple(gump, starring, hanks);
        b.triple(gump, director, zemeckis);
        let runtime = b.predicate("runtime");
        b.literal_triple(gump, runtime, Literal::string("142 minutes"));
        b.categorized(gump, "American films");
        b.redirect("Geenbow", gump);
        b.redirect("Gumpian", gump);
        b.finish()
    }

    #[test]
    fn builds_all_five_fields_like_table1() {
        let kg = kg();
        let gump = kg.entity("Forrest_Gump").unwrap();
        let r = FiveFieldRepr::build(&kg, gump, 64);
        assert_eq!(r.field(Field::Names), &["Forrest Gump".to_owned()]);
        assert_eq!(r.field(Field::Attributes), &["142 minutes".to_owned()]);
        assert_eq!(r.field(Field::Categories), &["American films".to_owned()]);
        assert_eq!(
            r.field(Field::SimilarNames),
            &["Geenbow".to_owned(), "Gumpian".to_owned()]
        );
        let related = r.field(Field::RelatedNames);
        assert!(related.contains(&"Tom Hanks".to_owned()));
        assert!(related.contains(&"Robert Zemeckis".to_owned()));
    }

    #[test]
    fn related_names_include_incoming_edges() {
        let kg = kg();
        let hanks = kg.entity("Tom_Hanks").unwrap();
        let r = FiveFieldRepr::build(&kg, hanks, 64);
        assert!(r
            .field(Field::RelatedNames)
            .contains(&"Forrest Gump".to_owned()));
    }

    #[test]
    fn max_related_caps_fanout() {
        let kg = kg();
        let gump = kg.entity("Forrest_Gump").unwrap();
        let r = FiveFieldRepr::build(&kg, gump, 1);
        assert_eq!(r.field(Field::RelatedNames).len(), 1);
    }

    #[test]
    fn table_rendering_mentions_every_field() {
        let kg = kg();
        let gump = kg.entity("Forrest_Gump").unwrap();
        let table = FiveFieldRepr::build(&kg, gump, 64).to_table(2);
        for f in Field::ALL {
            assert!(table.contains(f.name()), "missing field {}", f.name());
        }
        assert!(table.contains("Geenbow"));
    }

    #[test]
    fn field_indices_are_dense() {
        let mut seen = [false; 5];
        for f in Field::ALL {
            seen[f.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
