//! Cross-engine consistency: the SPARQL BGP engine, the semantic-feature
//! extents and the expansion engine must agree on the generated KG —
//! three independent code paths answering the same questions.

use pivote::prelude::*;
use pivote_sparql::Value;

fn kg() -> KnowledgeGraph {
    generate(&DatagenConfig::small())
}

fn entities_of(rs: &pivote_sparql::ResultSet, col: usize) -> Vec<EntityId> {
    let mut out: Vec<EntityId> = rs
        .rows
        .iter()
        .filter_map(|row| match &row[col] {
            Some(Value::Entity(e)) => Some(*e),
            _ => None,
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[test]
fn starring_pattern_equals_feature_extent() {
    let kg = kg();
    let starring = kg.predicate("starring").unwrap();
    let actor = kg.type_id("Actor").unwrap();
    let popular = *kg
        .type_extent(actor)
        .iter()
        .max_by_key(|&&a| kg.subjects(a, starring).len())
        .unwrap();

    let sparql = format!(
        "SELECT DISTINCT ?f WHERE {{ ?f dbo:starring dbr:{} }}",
        kg.entity_name(popular)
    );
    let rs = pivote_sparql::query(&kg, &sparql).unwrap();
    let via_sparql = entities_of(&rs, 0);

    let sf = SemanticFeature::to_anchor(popular, starring);
    let extent = sf.extent(&kg).to_vec();
    assert_eq!(via_sparql, extent);
}

#[test]
fn type_pattern_equals_type_extent() {
    let kg = kg();
    for type_name in ["Film", "Actor", "Director", "Book"] {
        let t = kg.type_id(type_name).unwrap();
        let rs = pivote_sparql::query(&kg, &format!("SELECT ?e WHERE {{ ?e a dbo:{type_name} }}"))
            .unwrap();
        assert_eq!(entities_of(&rs, 0), kg.type_extent(t), "{type_name}");
    }
}

#[test]
fn conjunctive_pattern_equals_feature_query() {
    let kg = kg();
    let starring = kg.predicate("starring").unwrap();
    let director_p = kg.predicate("director").unwrap();
    // find a film and derive its actor + director; the conjunction must
    // agree between SPARQL and the expansion engine's required features
    let film = kg.type_id("Film").unwrap();
    let f = kg.type_extent(film)[0];
    let a = kg.objects(f, starring)[0];
    let d = kg.objects(f, director_p)[0];

    let sparql = format!(
        "SELECT DISTINCT ?f WHERE {{ ?f dbo:starring dbr:{} . ?f dbo:director dbr:{} }}",
        kg.entity_name(a),
        kg.entity_name(d)
    );
    let via_sparql = entities_of(&pivote_sparql::query(&kg, &sparql).unwrap(), 0);

    let sg = ShardedGraph::from(kg.clone());
    let expander = Expander::new(&sg, RankingConfig::default());
    let q = SfQuery::from_features(vec![
        SemanticFeature::to_anchor(a, starring),
        SemanticFeature::to_anchor(d, director_p),
    ]);
    let mut via_expansion: Vec<EntityId> = expander
        .expand(&q, 1000, 0)
        .entities
        .iter()
        .map(|re| re.entity)
        .collect();
    via_expansion.sort_unstable();
    assert_eq!(via_sparql, via_expansion);
    assert!(via_sparql.contains(&f));
}

#[test]
fn category_pattern_equals_category_extent() {
    let kg = kg();
    // pick a populated category and query it as a dct:subject pattern
    let c = kg
        .category_ids()
        .max_by_key(|&c| kg.category_extent(c).len())
        .unwrap();
    let iri_name = kg.category_name(c).replace(' ', "_");
    let rs = pivote_sparql::query(
        &kg,
        &format!("SELECT ?e WHERE {{ ?e dct:subject dbr:Category:{iri_name} }}"),
    )
    .unwrap();
    assert_eq!(entities_of(&rs, 0), kg.category_extent(c));
}

#[test]
fn label_join_finds_entity_by_name() {
    let kg = kg();
    let film = kg.type_id("Film").unwrap();
    let f = kg.type_extent(film)[0];
    let label = kg.label(f).unwrap();
    let rs = pivote_sparql::query(
        &kg,
        &format!("SELECT ?e WHERE {{ ?e rdfs:label \"{label}\" . ?e a dbo:Film }}"),
    )
    .unwrap();
    assert!(entities_of(&rs, 0).contains(&f));
}
