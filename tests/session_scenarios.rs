//! Longer scripted sessions: the two demo scenarios of §3 executed end
//! to end, plus persistence.

use pivote::prelude::*;
use pivote_core::Direction;
use pivote_explore::SessionState;

fn kg() -> KnowledgeGraph {
    generate(&DatagenConfig::small())
}

/// §3.1 Entity investigation: keywords → click → feature condition →
/// profile lookup, narrowing the space while staying in the Film domain.
#[test]
fn scenario_entity_investigation() {
    let kg = kg();
    let sg = ShardedGraph::from(kg.clone());
    let mut s = Session::with_defaults(&sg);
    let film = kg.type_id("Film").unwrap();
    let gump = *kg
        .type_extent(film)
        .iter()
        .max_by_key(|&&f| kg.degree(f))
        .unwrap();

    // keywords
    s.submit_keywords(&kg.display_name(gump));
    assert_eq!(s.view().entities[0].entity, gump);

    // "Find films similar to Forrest Gump": click the film
    let view = s.click_entity(gump);
    let n_before = view.entities.len();
    assert!(n_before > 0);
    assert!(view.entities.iter().all(|re| kg.has_type(re.entity, film)));

    // "Find films starring Tom Hanks": require the top starring feature
    let starring = kg.predicate("starring").unwrap();
    let top_star_feature = view
        .features
        .iter()
        .find(|rf| rf.feature.predicate == starring)
        .map(|rf| rf.feature)
        .expect("a starring feature is recommended");
    let view = s.select_feature(top_star_feature);
    assert!(
        view.entities
            .iter()
            .all(|re| top_star_feature.matches(&kg, re.entity)),
        "all results must satisfy the required feature"
    );

    // profile lookup redirects to Wikipedia
    s.lookup(gump);
    let profile = s.view().focus.as_ref().unwrap();
    assert!(profile
        .wikipedia_url
        .starts_with("https://en.wikipedia.org/wiki/"));
}

/// §3.2 Search domain exploration: investigate films, understand the
/// correlation via the heat map, pivot to the actor domain, keep going.
#[test]
fn scenario_search_domain_exploration() {
    let kg = kg();
    let sg = ShardedGraph::from(kg.clone());
    let mut s = Session::with_defaults(&sg);
    let film = kg.type_id("Film").unwrap();
    let actor = kg.type_id("Actor").unwrap();
    let seed = *kg
        .type_extent(film)
        .iter()
        .max_by_key(|&&f| kg.degree(f))
        .unwrap();
    s.click_entity(seed);

    // the heat map explains the recommendation
    let hm = &s.view().heatmap;
    assert!(
        hm.levels.iter().any(|&l| l >= 5),
        "some strong correlations"
    );

    // explanation between the top two recommended films mentions a shared
    // anchor (the Tom_Hanks/Gary_Sinise pattern of the paper)
    if s.view().entities.len() >= 2 {
        let a = s.view().entities[0].entity;
        let b = s.view().entities[1].entity;
        let exp = explain_pair(s.expander().ranker(), a, b, 3);
        let text = exp.render(&kg);
        assert!(text.contains("Both"), "{text}");
    }

    // pivot into the Actor domain through the seed's cast
    let starring = kg.predicate("starring").unwrap();
    let view = s.pivot(SemanticFeature {
        anchor: seed,
        predicate: starring,
        direction: Direction::FromAnchor,
    });
    assert_eq!(view.query.sf.type_filter, Some(actor));
    assert!(!view.entities.is_empty());
    assert!(view.entities.iter().all(|re| kg.has_type(re.entity, actor)));

    // and back out to films of the top actor
    let top_actor = view.entities[0].entity;
    let view = s.pivot(SemanticFeature::to_anchor(top_actor, starring));
    assert_eq!(view.query.sf.type_filter, Some(film));

    // the whole journey is recorded
    assert!(s.timeline().len() >= 3);
    let trail = s.path().query_trail();
    assert!(trail.len() >= 3);
}

#[test]
fn session_state_persists_across_process_boundaries() {
    let kg = kg();
    let film = kg.type_id("Film").unwrap();
    let seed = kg.type_extent(film)[0];

    // session 1: do work, save
    let json = {
        let sg = ShardedGraph::from(kg.clone());
        let mut s = Session::with_defaults(&sg);
        s.submit_keywords(&kg.display_name(seed));
        s.click_entity(seed);
        s.export_json()
    };

    // session 2 (fresh engines): load, continue
    let state: SessionState = serde_json::from_str(&json).unwrap();
    let sg = ShardedGraph::from(kg.clone());
    let mut s = Session::with_defaults(&sg);
    s.restore_state(state);
    assert_eq!(s.timeline().len(), 2);
    assert_eq!(s.view().query.sf.seeds, vec![seed]);
    assert!(!s.view().entities.is_empty(), "restored view recomputed");

    // continuing the session works
    let next = s.view().entities[0].entity;
    s.click_entity(next);
    assert_eq!(s.view().query.sf.seeds.len(), 2);
}
