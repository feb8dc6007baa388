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

/// One statement per line: after a statement's closing `.` only
/// whitespace or a `# comment` may follow. A second statement or stray
/// text after the `.` is a line-numbered error on every entry point —
/// bulk, reader, streamed, delta in both polarities, and the wire's
/// `append` and `retract` — never a silently dropped statement.
#[test]
fn nothing_but_a_comment_may_follow_the_closing_dot() {
    use pivote_kg::{
        parse_into_delta, parse_reader, parse_removed_into_delta, parse_stream, StreamError,
    };
    use pivote_serve::{num_field, response_ok, Service};

    let good = "<http://x/s> <http://x/p> <http://x/o> .\n";
    for tail in ["", " ", "\t", "   # a comment", "# tight comment", " #"] {
        let doc = format!("{good}<http://x/a> <http://x/p> <http://x/b> .{tail}\n");
        let kg = parse(&doc).unwrap_or_else(|e| panic!("{doc:?}: {e}"));
        assert_eq!(kg.relation_count(), 2, "{doc:?}");
        assert_eq!(parse_into_delta(&doc).unwrap().len(), 2, "{doc:?}");
    }
    // no space before the dot is still one statement
    assert_eq!(
        parse("<http://x/a> <http://x/p> \"v\"^^<http://x/t>.")
            .unwrap()
            .entity_count(),
        1
    );

    let service = Service::new(
        std::sync::Arc::new(pivote_core::LiveStore::new(parse(good).unwrap())),
        false,
    );
    for bad in [
        "<http://x/a> <http://x/p> <http://x/b> . <http://x/c> <http://x/p> <http://x/d> .",
        "<http://x/a> <http://x/p> <http://x/b> .garbage",
        "<http://x/a> <http://x/p> \"lit\"@en . .",
        "<http://x/a> <http://x/p> <http://x/b> .. # two dots",
    ] {
        let doc = format!("{good}{bad}\n{good}");
        let e = parse(&doc).expect_err(bad);
        assert_eq!(e.line, 2, "{bad}: {e}");
        assert!(e.message.contains("after '.'"), "{bad}: {e}");
        assert_eq!(parse_into_delta(&doc).unwrap_err(), e, "{bad}");
        assert_eq!(parse_removed_into_delta(&doc).unwrap_err(), e, "{bad}");
        match parse_reader(doc.as_bytes()) {
            Err(StreamError::Parse(got)) => assert_eq!(got, e, "{bad}"),
            other => panic!("{bad}: parse_reader gave {other:?}"),
        }
        match parse_stream(doc.as_bytes(), 1, |_| {}) {
            Err(StreamError::Parse(got)) => assert_eq!(got, e, "{bad}"),
            other => panic!("{bad}: parse_stream gave {other:?}"),
        }
        for op in ["append", "retract"] {
            let request = serde::Value::Obj(vec![
                ("op".to_owned(), serde::Value::Str(op.to_owned())),
                ("ntriples".to_owned(), serde::Value::Str(doc.clone())),
            ]);
            let reply: serde::Value =
                serde_json::from_str(&service.call(&serde_json::to_string(&request).unwrap()))
                    .expect("replies are JSON");
            assert!(!response_ok(&reply), "{op} {bad}: {reply:?}");
            assert_eq!(num_field(&reply, "line"), Some(2), "{op} {bad}: {reply:?}");
        }
    }
    // the rejected writes left the store as it was
    assert_eq!(service.store().read().handle().graph().entity_count(), 2);
}
