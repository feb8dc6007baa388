//! `Service` in-process, no socket:
//!
//! - `compute` answers exactly what the engines (`Expander`, `HeatMap`,
//!   `Session::search_hits`) answer over the same graph — the reference
//!   implementation the wire (`tests/serve_roundtrip.rs`) is ultimately
//!   checked against;
//! - `call` serves repeats from the response memo byte for byte and
//!   rolls the memo with the generation;
//! - a `Session` over the service's store answers what `compute` answers
//!   at the session's pinned generation, on the same search engines.

use pivote_core::{
    Expander, GraphHandle, HeatMap, LiveStore, RankedEntity, RankingConfig, SfQuery,
};
use pivote_explore::{Session, SessionConfig};
use pivote_kg::{KnowledgeGraph, ShardedGraph};
use pivote_search::SearchBackend;
use pivote_serve::protocol::scored_names;
use pivote_serve::{num_field, response_ok, Reply, Request, Service};
use serde::Value;
use std::sync::Arc;

fn sample() -> KnowledgeGraph {
    let nt = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/sample.nt"))
        .expect("bundled sample exists");
    pivote_kg::parse(&nt).expect("sample parses")
}

fn serve(backend: impl Into<ShardedGraph>) -> Service {
    Service::new(Arc::new(LiveStore::new(backend)), false)
}

fn parsed(response: &str) -> Value {
    serde_json::from_str(response).expect("responses are JSON")
}

/// Scores cross the wire as shortest-round-trip doubles, so equal bytes
/// are equal bits. Checked on one shard and on two shards against one
/// one-shard reference (equal bit for bit at every shard count, as the
/// golden test and the equivalence model pin).
#[test]
fn compute_matches_the_engines_bit_for_bit() {
    let kg = sample();
    let one = ShardedGraph::from(kg.clone());
    let handle = GraphHandle::with_threads(&one, 1);
    let gump = handle.entity("Forrest_Gump").expect("Forrest_Gump");
    let expander = Expander::with_handle(handle.clone(), RankingConfig::default());
    let res = expander.expand(&SfQuery::from_seeds(vec![gump]), 10, 10);
    assert!(!res.entities.is_empty());
    let axis: Vec<_> = res.entities.iter().map(|re| re.entity).collect();
    let hm = HeatMap::compute(expander.ranker(), &axis, &res.features);
    let session = Session::with_defaults(&one);

    let name = |e| handle.entity_name(e).to_owned();
    let entities =
        |ranked: &[RankedEntity]| scored_names(ranked.iter().map(|re| (name(re.entity), re.score)));
    let matrix = |cell: &dyn Fn(usize, usize) -> f64| {
        Value::Arr(
            (0..hm.height())
                .map(|r| Value::Arr((0..hm.width()).map(|c| Value::Num(cell(r, c))).collect()))
                .collect(),
        )
    };
    let at0 = || Reply::ok().num("generation", 0);
    let mut want = vec![
        (
            r#"{"op":"rank","seeds":["Forrest_Gump"]}"#.to_owned(),
            at0()
                .with(
                    "features",
                    scored_names(
                        res.features
                            .iter()
                            .map(|rf| (handle.feature_display(rf.feature), rf.score)),
                    ),
                )
                .with("entities", entities(&res.entities)),
        ),
        (
            r#"{"op":"expand","seeds":["Forrest_Gump"]}"#.to_owned(),
            at0().with("entities", entities(&res.entities)),
        ),
        (
            r#"{"op":"heatmap","seeds":["Forrest_Gump"]}"#.to_owned(),
            at0()
                .with(
                    "features",
                    Value::Arr(
                        res.features
                            .iter()
                            .map(|rf| Value::Str(handle.feature_display(rf.feature)))
                            .collect(),
                    ),
                )
                .with(
                    "entities",
                    Value::Arr(axis.iter().map(|&e| Value::Str(name(e))).collect()),
                )
                .with("levels", matrix(&|r, c| f64::from(hm.level(r, c))))
                .with("values", matrix(&|r, c| hm.value(r, c))),
        ),
    ];
    // every similar film is a Film and none is an Actor: the filter keeps
    // all or nothing, so a dropped filter fails one of the two
    for ty in ["Film", "Actor"] {
        let typed =
            SfQuery::from_seeds(vec![gump]).with_type(handle.graph().type_id(ty).expect(ty));
        want.push((
            format!(r#"{{"op":"expand","seeds":["Forrest_Gump"],"type":"{ty}","k":5}}"#),
            at0().with(
                "entities",
                entities(&expander.expand(&typed, 5, 5).entities),
            ),
        ));
    }
    for query in ["forrest gump", "tom hanks", "film"] {
        let hits = session.search_hits(query, 10);
        assert!(!hits.is_empty(), "{query}");
        want.push((
            format!(r#"{{"op":"search","query":"{query}","k":10}}"#),
            at0().with(
                "hits",
                scored_names(hits.iter().map(|h| (name(h.entity), h.score))),
            ),
        ));
    }
    let want: Vec<(String, String)> = want.into_iter().map(|(l, r)| (l, r.render())).collect();

    for service in [serve(kg.clone()), serve(ShardedGraph::from_graph(&kg, 2))] {
        let snap = service.snapshot();
        for (line, reply) in &want {
            let request = Request::parse(line).expect(line);
            assert_eq!(&service.compute(&snap, &request).render(), reply, "{line}");
        }
        // compute answers reads only, and touches nothing else
        for not_a_read in [
            r#"{"op":"append","ntriples":"<http://a> <http://p> <http://b> .\n"}"#,
            r#"{"op":"retract","ntriples":"<http://a> <http://p> <http://b> .\n"}"#,
            r#"{"op":"stats"}"#,
            r#"{"op":"shutdown"}"#,
        ] {
            let request = Request::parse(not_a_read).expect(not_a_read);
            let v = parsed(&service.compute(&snap, &request).render());
            assert!(!response_ok(&v), "{not_a_read}: {v:?}");
        }
        assert_eq!(service.store().generation(), 0);
        assert!(!service.shutdown_requested());
    }
}

/// Memoized responses are byte-identical to freshly computed ones, hits
/// are counted, and a write rolls the memo: the next read answers at the
/// new generation, equal to `compute` there.
#[test]
fn memoized_responses_match_fresh_and_roll_with_the_generation() {
    let service = serve(sample());
    let line = r#"{"op":"rank","seeds":["Forrest_Gump"],"k_features":10,"k_entities":10}"#;
    let request = Request::parse(line).unwrap();
    let first = service.call(line);
    assert!(response_ok(&parsed(&first)), "{first}");
    assert_eq!(
        first,
        service.compute(&service.snapshot(), &request).render()
    );

    // the same request in another key order is the same memo entry
    let again = service
        .call(r#"{ "k_entities":10, "seeds":["Forrest_Gump"], "k_features":10, "op":"rank" }"#);
    assert_eq!(again, first);
    let stats = parsed(&service.call(r#"{"op":"stats"}"#));
    assert_eq!(num_field(&stats, "memo_hits"), Some(1), "{stats:?}");
    assert_eq!(num_field(&stats, "memo_misses"), Some(1), "{stats:?}");
    assert_eq!(num_field(&stats, "memo_entries"), Some(1), "{stats:?}");

    // a write rolls the generation: the memo must not serve stale state
    let appended = parsed(&service.call(
        r#"{"op":"append","ntriples":"<http://dbpedia.org/resource/Memo_Roll> <http://dbpedia.org/ontology/servedBy> <http://dbpedia.org/resource/Forrest_Gump> .\n"}"#,
    ));
    assert!(response_ok(&appended), "{appended:?}");
    assert_eq!(num_field(&appended, "generation"), Some(1));
    let after = service.call(line);
    let snap = service.snapshot();
    assert_eq!(snap.generation(), 1);
    assert_eq!(num_field(&parsed(&after), "generation"), Some(1));
    assert_eq!(after, service.compute(&snap, &request).render());
}

/// A session over a served store pins the service's published snapshot
/// (opening it republishes nothing), answers investigations and searches
/// exactly as `compute` does at that generation, searches on the engines
/// `Service::new` attached, and stays at its generation across writes
/// until `refresh()`.
#[test]
fn a_session_over_the_served_store_answers_like_compute() {
    let service = serve(ShardedGraph::from_graph(&sample(), 2));
    let served = service.snapshot();
    let attached = |snap: &pivote_core::PreparedSnapshot| -> SearchBackend {
        snap.attached_search().expect("engines attached").clone()
    };
    let engines = attached(&served);
    let mut session = Session::new(Arc::clone(service.store()), SessionConfig::default());
    assert!(Arc::ptr_eq(session.snapshot(), &served));

    // what the session shows at its pin, rendered as the wire renders it
    let answers = |session: &mut Session| {
        let (snap, generation) = (Arc::clone(session.snapshot()), session.generation());
        let graph = snap.backend();
        let gump = graph.entity("Forrest_Gump").expect("Forrest_Gump");
        let name = |e| graph.entity_name(e).to_owned();
        let mut got = Vec::new();
        for query in ["forrest gump", "tom hanks", "film"] {
            let hits = session.search_hits(query, 10);
            got.push((
                format!(r#"{{"op":"search","query":"{query}","k":10}}"#),
                Reply::ok()
                    .num("generation", generation)
                    .with(
                        "hits",
                        scored_names(hits.iter().map(|h| (name(h.entity), h.score))),
                    )
                    .render(),
            ));
        }
        let view = session.click_entity(gump).clone();
        let ty = graph.type_name(view.query.sf.type_filter.expect("auto type filter"));
        got.push((
            format!(
                r#"{{"op":"expand","seeds":["Forrest_Gump"],"type":"{ty}","k":{}}}"#,
                view.entities.len()
            ),
            Reply::ok()
                .num("generation", generation)
                .with(
                    "entities",
                    scored_names(view.entities.iter().map(|re| (name(re.entity), re.score))),
                )
                .render(),
        ));
        session.apply(pivote_explore::UserAction::ClearQuery);
        got
    };
    let check = |session: &mut Session, snap: &pivote_core::PreparedSnapshot| {
        assert_eq!(session.generation(), snap.generation());
        for (line, got) in answers(session) {
            let request = Request::parse(&line).expect(&line);
            assert_eq!(service.compute(snap, &request).render(), got, "{line}");
        }
    };
    check(&mut session, &served);
    // the session indexed nothing: it searched on the attached engines
    let used = attached(session.snapshot());
    assert_eq!(used.engines.len(), engines.engines.len());
    for (a, b) in used.engines.iter().zip(&engines.engines) {
        assert!(Arc::ptr_eq(a, b));
    }

    // a write moves the service, not the pinned session
    let appended = parsed(&service.call(
        r#"{"op":"append","ntriples":"<http://dbpedia.org/resource/Gump_Sequel> <http://dbpedia.org/ontology/starring> <http://dbpedia.org/resource/Tom_Hanks> .\n"}"#,
    ));
    assert!(response_ok(&appended), "{appended:?}");
    assert_eq!(service.snapshot().generation(), 1);
    check(&mut session, &served);

    assert_eq!(session.refresh(), 1);
    let latest = service.snapshot();
    assert!(Arc::ptr_eq(session.snapshot(), &latest));
    check(&mut session, &latest);
}
