//! The bundled `data/sample.nt` — the paper's actual running example —
//! loaded through the N-Triples path and explored end to end, including
//! the Fig. 1 caption's claim verbatim: `Tom_Hanks:starring` reveals
//! Forrest Gump's co-filmography.

use pivote::prelude::*;
use pivote_core::explain_pair;

fn sample() -> KnowledgeGraph {
    let nt = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/sample.nt"))
        .expect("bundled sample exists");
    pivote_kg::parse(&nt).expect("sample parses")
}

#[test]
fn sample_loads_with_paper_entities() {
    let kg = sample();
    let gump = kg.entity("Forrest_Gump").expect("Forrest_Gump");
    assert_eq!(kg.label(gump), Some("Forrest Gump"));
    assert_eq!(
        kg.aliases(gump),
        &["Geenbow".to_owned(), "Gumpian".to_owned()]
    );
    assert!(kg.type_id("Film").is_some());
    assert!(kg.category_id("American films").is_some());
}

#[test]
fn tom_hanks_starring_extent_matches_fig1() {
    let kg = sample();
    let hanks = kg.entity("Tom_Hanks").unwrap();
    let starring = kg.predicate("starring").unwrap();
    let sf = SemanticFeature::to_anchor(hanks, starring);
    let films: Vec<&str> = sf.extent(&kg).iter().map(|&e| kg.entity_name(e)).collect();
    assert_eq!(films.len(), 3);
    for f in ["Forrest_Gump", "Apollo_13_(film)", "Cast_Away"] {
        assert!(films.contains(&f), "missing {f}");
    }
}

#[test]
fn paper_explanation_example_verbatim() {
    // §3.2: "the semantic correlation between Forrest_Gump and
    // Apollo_13_(film) is that both of them are performed by Tom_Hanks
    // and Gary_Sinise".
    let kg = sample();
    let sg = ShardedGraph::from(kg.clone());
    let expander = Expander::new(&sg, RankingConfig::default());
    let gump = kg.entity("Forrest_Gump").unwrap();
    let apollo = kg.entity("Apollo_13_(film)").unwrap();
    let exp = explain_pair(expander.ranker(), gump, apollo, 5);
    let anchors: Vec<&str> = exp
        .shared
        .iter()
        .map(|(sf, _)| kg.entity_name(sf.anchor))
        .collect();
    assert!(anchors.contains(&"Tom_Hanks"), "{anchors:?}");
    assert!(anchors.contains(&"Gary_Sinise"), "{anchors:?}");
}

#[test]
fn find_films_starring_tom_hanks_three_ways() {
    let kg = sample();
    let hanks = kg.entity("Tom_Hanks").unwrap();
    let starring = kg.predicate("starring").unwrap();

    // 1. the exploratory way: a required semantic feature
    let sg = ShardedGraph::from(kg.clone());
    let expander = Expander::new(&sg, RankingConfig::default());
    let sf = SemanticFeature::to_anchor(hanks, starring);
    let via_feature: Vec<EntityId> = expander
        .expand(&SfQuery::from_features(vec![sf]), 10, 5)
        .entities
        .iter()
        .map(|re| re.entity)
        .collect();

    // 2. the structured way: SPARQL
    let rs =
        pivote_sparql::query(&kg, "SELECT ?f WHERE { ?f dbo:starring dbr:Tom_Hanks }").unwrap();
    let via_sparql: Vec<EntityId> = rs
        .rows
        .iter()
        .filter_map(|row| match &row[0] {
            Some(pivote_sparql::Value::Entity(e)) => Some(*e),
            _ => None,
        })
        .collect();

    // 3. the raw extent
    let extent = kg.subjects(hanks, starring).to_vec();

    let mut a = via_feature.clone();
    let mut b = via_sparql.clone();
    let mut c = extent.clone();
    a.sort_unstable();
    b.sort_unstable();
    c.sort_unstable();
    assert_eq!(a, c, "feature query disagrees with extent");
    assert_eq!(b, c, "SPARQL disagrees with extent");
}

#[test]
fn keyword_search_finds_gump_by_misspelling() {
    let kg = sample();
    let engine = SearchEngine::with_defaults(&kg);
    let hits = engine.search("geenbow", 5);
    assert_eq!(
        hits.first().map(|h| h.entity),
        kg.entity("Forrest_Gump"),
        "the similar-entity-names field should catch the paper's misspelling"
    );
}

#[test]
fn investigation_on_sample_recommends_apollo_over_cast_away() {
    // Apollo 13 shares two cast members with Forrest Gump, Cast Away one
    // — the heat-map example of §3.2 implies this ordering.
    let kg = sample();
    let sg = ShardedGraph::from(kg.clone());
    let expander = Expander::new(&sg, RankingConfig::default());
    let gump = kg.entity("Forrest_Gump").unwrap();
    let res = expander.expand(&SfQuery::from_seeds(vec![gump]), 10, 10);
    let order: Vec<&str> = res
        .entities
        .iter()
        .map(|re| kg.entity_name(re.entity))
        .collect();
    let apollo = order.iter().position(|&n| n == "Apollo_13_(film)");
    let cast_away = order.iter().position(|&n| n == "Cast_Away");
    assert!(apollo.is_some(), "{order:?}");
    assert!(
        apollo < cast_away || cast_away.is_none(),
        "Apollo 13 should rank above Cast Away: {order:?}"
    );
}
