//! Failure injection: malformed input, degenerate graphs and out-of-range
//! queries must degrade gracefully, never panic. (Writer panics, crashes
//! and racing compactions: `tests/equivalence.rs`.)

use pivote::prelude::*;
use pivote_core::Direction;
use pivote_kg::{parse, ShardedGraph};

#[test]
fn malformed_ntriples_report_line_numbers() {
    let cases = [
        ("<http://s> <http://p> <http://o>", "'.'"),
        // the unterminated IRI swallows the predicate; the parser notices
        // when the object position has no term left
        ("<http://s <http://p> <http://o> .", "term"),
        (r#"<http://s> <http://p> "open ."#, "unterminated"),
        (r#""lit" <http://p> <http://o> ."#, "subject"),
        (r#"<http://s> "lit" <http://o> ."#, "predicate"),
        (r#"<http://s> <http://p> "bad\z" ."#, "escape"),
        ("<http://s> <http://p> .", "term"),
        ("<> <http://p> <http://o> .", "empty"),
    ];
    for (src, needle) in cases {
        let err = parse(src).expect_err(src);
        assert_eq!(err.line, 1, "wrong line for {src:?}");
        assert!(
            err.message.to_lowercase().contains(&needle.to_lowercase()),
            "error {:?} should mention {needle:?} for {src:?}",
            err.message
        );
    }
    // good lines around a bad one: error points at the right line
    let doc = "<http://a> <http://p> <http://b> .\nnot a triple\n";
    let err = parse(doc).unwrap_err();
    assert_eq!(err.line, 2);
}

#[test]
fn graph_without_categories_still_ranks() {
    // Error tolerance falls back to types; without either, exact matches
    // still work.
    let mut b = KgBuilder::new();
    let f1 = b.entity("f1");
    let f2 = b.entity("f2");
    let a = b.entity("A");
    let p = b.predicate("starring");
    b.triple(f1, p, a);
    b.triple(f2, p, a);
    let kg = b.finish();
    let sg = ShardedGraph::from(kg.clone());
    let ex = Expander::new(&sg, RankingConfig::default());
    let res = ex.expand(&SfQuery::from_seeds(vec![f1]), 5, 5);
    assert_eq!(res.entities.len(), 1);
    assert_eq!(res.entities[0].entity, f2);
}

#[test]
fn singleton_and_empty_graphs() {
    let empty = KgBuilder::new().finish();
    let empty_sg = ShardedGraph::from(empty.clone());
    let ex = Expander::new(&empty_sg, RankingConfig::default());
    assert!(ex.expand(&SfQuery::default(), 5, 5).entities.is_empty());

    let mut b = KgBuilder::new();
    let lone = b.entity("lonely");
    let kg = b.finish();
    let sg = ShardedGraph::from(kg.clone());
    let ex = Expander::new(&sg, RankingConfig::default());
    let res = ex.expand(&SfQuery::from_seeds(vec![lone]), 5, 5);
    assert!(res.entities.is_empty());
    assert!(res.features.is_empty());
    // search over a label-less graph
    let engine = SearchEngine::with_defaults(&kg);
    assert!(!engine.search("lonely", 5).is_empty());
}

#[test]
fn feature_with_empty_extent_scores_zero() {
    let kg = generate(&DatagenConfig::tiny());
    let e = kg.entity_ids().next().unwrap();
    // a predicate the entity does not have in this direction
    let p = kg.predicate("starring").unwrap();
    let sf = SemanticFeature {
        anchor: e,
        predicate: p,
        direction: Direction::FromAnchor,
    };
    if sf.extent(&kg).is_empty() {
        let sg = ShardedGraph::from(kg.clone());
        let ranker = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        assert_eq!(ranker.discriminability(sf), 0.0);
    }
    // a conjunctive query with disjoint extents returns nothing
    let film = kg.type_id("Film").unwrap();
    let f = kg.type_extent(film)[0];
    let director = kg.predicate("director").unwrap();
    let d1 = kg.objects(f, director)[0];
    let impossible = SfQuery::from_features(vec![
        SemanticFeature::to_anchor(d1, director),
        SemanticFeature::to_anchor(f, director), // nothing has a film as director
    ]);
    let sg = ShardedGraph::from(kg.clone());
    let ex = Expander::new(&sg, RankingConfig::default());
    assert!(ex.expand(&impossible, 5, 5).entities.is_empty());
}

#[test]
fn session_survives_nonsense_actions() {
    let kg = generate(&DatagenConfig::tiny());
    let sg = ShardedGraph::from(kg.clone());
    let mut s = Session::with_defaults(&sg);
    // revisit before any history
    s.apply(UserAction::RevisitQuery { index: 5 });
    assert!(s.view().query.is_empty());
    // remove things that were never added
    let e = kg.entity_ids().next().unwrap();
    s.apply(UserAction::RemoveSeed { entity: e });
    // empty keyword query
    s.submit_keywords("");
    assert!(s.view().entities.is_empty());
    // stopword-only keyword query
    s.submit_keywords("the of and");
    assert!(s.view().entities.is_empty());
    // lookup still works afterwards
    s.lookup(e);
    assert!(s.view().focus.is_some());
}

#[test]
fn unknown_names_resolve_to_none_not_panic() {
    let kg = generate(&DatagenConfig::tiny());
    assert!(kg.entity("No_Such_Entity").is_none());
    assert!(kg.predicate("noSuchPredicate").is_none());
    assert!(kg.type_id("NoSuchType").is_none());
    assert!(kg.category_id("No such category").is_none());
}
