//! The N-Triples substrate: a generated KG serialized and re-parsed must
//! produce identical rankings — loading real DBpedia slices goes through
//! the same code path.

use pivote::prelude::*;
use pivote_kg::{parse, serialize};

#[test]
fn serialized_graph_reloads_with_identical_structure() {
    let kg = generate(&DatagenConfig::tiny());
    let nt = serialize(&kg);
    let kg2 = parse(&nt).expect("round-trip parse");
    assert_eq!(kg2.entity_count(), kg.entity_count());
    assert_eq!(kg2.relation_count(), kg.relation_count());
    assert_eq!(kg2.type_count(), kg.type_count());
    assert_eq!(kg2.category_count(), kg.category_count());
    assert_eq!(kg2.predicate_count(), kg.predicate_count());
}

#[test]
fn rankings_survive_the_roundtrip() {
    let kg = generate(&DatagenConfig::tiny());
    let kg2 = parse(&serialize(&kg)).expect("round-trip parse");

    let film = kg.type_id("Film").unwrap();
    let seed = kg.type_extent(film)[0];
    let seed_name = kg.entity_name(seed).to_owned();
    let seed2 = kg2.entity(&seed_name).expect("seed survives");

    let sg = ShardedGraph::from(kg.clone());
    let ex1 = Expander::new(&sg, RankingConfig::default());
    let kg2_sg = ShardedGraph::from(kg2.clone());
    let ex2 = Expander::new(&kg2_sg, RankingConfig::default());
    let r1 = ex1.expand(&SfQuery::from_seeds(vec![seed]), 10, 10);
    let r2 = ex2.expand(&SfQuery::from_seeds(vec![seed2]), 10, 10);

    let names1: Vec<String> = r1
        .entities
        .iter()
        .map(|re| kg.entity_name(re.entity).to_owned())
        .collect();
    let names2: Vec<String> = r2
        .entities
        .iter()
        .map(|re| kg2.entity_name(re.entity).to_owned())
        .collect();
    assert_eq!(
        names1, names2,
        "entity ranking changed across the round-trip"
    );

    let feats1: Vec<String> = r1
        .features
        .iter()
        .map(|rf| rf.feature.display(&kg))
        .collect();
    let feats2: Vec<String> = r2
        .features
        .iter()
        .map(|rf| rf.feature.display(&kg2))
        .collect();
    assert_eq!(
        feats1, feats2,
        "feature ranking changed across the round-trip"
    );
    for (a, b) in r1.features.iter().zip(r2.features.iter()) {
        assert!((a.score - b.score).abs() < 1e-12);
    }
}

#[test]
fn search_survives_the_roundtrip() {
    let kg = generate(&DatagenConfig::tiny());
    let kg2 = parse(&serialize(&kg)).expect("round-trip parse");
    let e1 = SearchEngine::with_defaults(&kg);
    let e2 = SearchEngine::with_defaults(&kg2);
    let film = kg.type_id("Film").unwrap();
    let label = kg.display_name(kg.type_extent(film)[0]);
    let h1: Vec<String> = e1
        .search(&label, 5)
        .into_iter()
        .map(|h| kg.entity_name(h.entity).to_owned())
        .collect();
    let h2: Vec<String> = e2
        .search(&label, 5)
        .into_iter()
        .map(|h| kg2.entity_name(h.entity).to_owned())
        .collect();
    assert_eq!(h1, h2);
}
