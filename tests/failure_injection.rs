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

/// Every file the store writes goes through one decoder. For every
/// single-byte XOR and every truncation of a small snapshot, a warm
/// sidecar and a 3-record delta log, decoding returns the value written,
/// a typed error, or — for the log, whose tail may be torn — a strict
/// prefix of the records written. It never panics and never returns a
/// value that was not written.
#[test]
fn every_byte_mutation_of_every_file_kind_is_caught() {
    use pivote_core::SharedCache;
    use pivote_kg::{read_records, snapshot, DeltaBatch, WalEvent, WalWriter};
    use std::io::{Seek, SeekFrom, Write};

    // each mutation of the file `original`, XORs first
    fn mutations(original: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        let xors = (0..original.len()).flat_map(move |at| {
            (1..=255u8).map(move |mask| {
                let mut bytes = original.to_vec();
                bytes[at] ^= mask;
                bytes
            })
        });
        xors.chain((0..original.len()).map(|cut| original[..cut].to_vec()))
    }

    let nt = r#"<http://x/Film_A> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://dbpedia.org/ontology/Film> .
<http://x/Film_A> <http://x/starring> <http://x/Actor_B> .
<http://x/Film_A> <http://purl.org/dc/terms/subject> <http://x/Category:Dramas> .
<http://x/Film_A> <http://www.w3.org/2000/01/rdf-schema#label> "Film \"A\" é"@en .
<http://x/Film_A> <http://x/runtime> "142"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/Film_A> <http://x/released> "1994-07-06"^^<http://www.w3.org/2001/XMLSchema#date> .
<http://x/Film_A> <http://x/gross> "6.8"^^<http://www.w3.org/2001/XMLSchema#double> .
<http://x/Film_D> <http://x/starring> <http://x/Actor_B> .
<http://x/Film_D> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://dbpedia.org/ontology/Film> .
<http://x/Film_D> <http://purl.org/dc/terms/subject> <http://x/Category:Dramas> .
<http://x/A_Film> <http://dbpedia.org/ontology/wikiPageRedirects> <http://x/Film_A> .
"#;
    let kg = parse(nt).expect("the sample parses");

    // the snapshot
    let mut original = Vec::new();
    snapshot::save(&kg, &mut original).unwrap();
    for bytes in mutations(&original) {
        if let Ok(loaded) = snapshot::load(&mut bytes.as_slice()) {
            let mut again = Vec::new();
            snapshot::save(&loaded, &mut again).unwrap();
            assert_eq!(again, original, "a mutated snapshot loaded another graph");
        }
    }

    // the warm sidecar, over densities a real ranking filled
    let fp = pivote_kg::fingerprint(&kg);
    let cache = std::sync::Arc::new(SharedCache::new());
    let sg = ShardedGraph::from(kg.clone());
    let handle = GraphHandle::with_cache(&sg, 1, std::sync::Arc::clone(&cache));
    for sf in handle.features_of(kg.entity("Film_A").unwrap()) {
        for c in kg.category_ids() {
            handle.p_for_category(sf, c);
        }
        for t in kg.type_ids() {
            handle.p_for_type(sf, t);
        }
    }
    assert!(cache.cached_probability_count() > 0);
    let mut original = Vec::new();
    pivote_core::warm::save_warm(&cache, fp, &mut original).unwrap();
    for bytes in mutations(&original) {
        if let Ok(loaded) = pivote_core::warm::load_warm(fp, &mut bytes.as_slice()) {
            let mut again = Vec::new();
            pivote_core::warm::save_warm(&loaded, fp, &mut again).unwrap();
            assert_eq!(again, original, "a mutated sidecar loaded other densities");
        }
    }

    // a 3-record log: two batches covering every literal kind, one
    // compaction
    let path = std::env::temp_dir().join(format!("pivote_mutation_{}.wal", std::process::id()));
    let mut writer = WalWriter::create(&path, 0, fp).unwrap();
    let mut batch = DeltaBatch::new();
    batch
        .triple("Film_C", "starring", "Actor_B")
        .literal("Film_C", "runtime", Literal::integer(90))
        .label("Film_C", "C");
    writer.append_event(WalEvent::Delta(batch)).unwrap();
    let mut batch = DeltaBatch::new();
    batch.retract_triple("Film_A", "starring", "Actor_B");
    writer.append_event(WalEvent::Delta(batch)).unwrap();
    writer
        .append_event(WalEvent::Compact { target_shards: 2 })
        .unwrap();
    drop(writer);
    let (header, written, torn) = read_records(&path).unwrap();
    assert_eq!((written.len(), torn), (3, false));
    let original = std::fs::read(&path).unwrap();
    // rewritten in place through one handle: a truncating rewrite per
    // mutation costs far more than the decode
    let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    for bytes in mutations(&original) {
        file.seek(SeekFrom::Start(0)).unwrap();
        file.write_all(&bytes).unwrap();
        file.set_len(bytes.len() as u64).unwrap();
        if let Ok((got_header, records, _)) = read_records(&path) {
            assert_eq!(got_header, header, "a mutated log changed its base");
            assert!(
                records.len() < written.len() && records[..] == written[..records.len()],
                "a mutated log read back records that were not written"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// The N-Triples leg of the byte-mutation model. A seeded sample of
/// single-byte flips, deletes and inserts, plus truncations, of
/// `data/sample.nt`: every entry point returns a graph or a typed,
/// line-numbered error and never panics, and all of them agree — the
/// bulk `parse`, `parse_reader` at a 1-byte and an 8 KiB buffer, and
/// `parse_into_delta` name the same error line, or the readers build
/// the graph `parse` builds.
#[test]
fn every_byte_mutation_of_an_ntriples_dump_parses_or_fails_typed() {
    use pivote_kg::{fingerprint, parse_into_delta, parse_reader, StreamError};
    use std::io::BufReader;

    let original = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/data/sample.nt"))
        .expect("bundled sample exists");
    // xorshift64: a fixed seed, so a failure names a reproducible case
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |below: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % below as u64) as usize
    };
    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    for _ in 0..120 {
        let at = next(original.len());
        let mut bytes = original.clone();
        bytes[at] ^= 1 + next(255) as u8;
        cases.push((format!("flip at {at}"), bytes));
        let at = next(original.len());
        let mut bytes = original.clone();
        bytes.remove(at);
        cases.push((format!("delete at {at}"), bytes));
        let at = next(original.len() + 1);
        let mut bytes = original.clone();
        // printable ASCII half the time: syntax errors past the UTF-8 check
        let byte = if next(2) == 0 {
            b' ' + next(95) as u8
        } else {
            next(256) as u8
        };
        bytes.insert(at, byte);
        cases.push((format!("insert {byte:#04x} at {at}"), bytes));
        let cut = next(original.len());
        cases.push((format!("truncate at {cut}"), original[..cut].to_vec()));
    }

    // a graph's fingerprint, or the line its error names
    let outcome = |result: Result<pivote_kg::KnowledgeGraph, StreamError>| match result {
        Ok(kg) => Ok(fingerprint(&kg)),
        Err(StreamError::Parse(e)) => {
            assert!(e.line >= 1, "an error names its line: {e}");
            Err(e.line)
        }
        Err(StreamError::Io(e)) => panic!("an in-memory reader cannot fail to read: {e}"),
    };
    let (mut accepted, mut rejected) = (0, 0);
    for (case, bytes) in &cases {
        let tiny = outcome(parse_reader(BufReader::with_capacity(1, bytes.as_slice())));
        let paged = outcome(parse_reader(BufReader::with_capacity(
            8 << 10,
            bytes.as_slice(),
        )));
        assert_eq!(tiny, paged, "{case}: the buffer size changed the outcome");
        match std::str::from_utf8(bytes) {
            Ok(text) => {
                let bulk = parse(text).map(|kg| fingerprint(&kg)).map_err(|e| e.line);
                assert_eq!(bulk, paged, "{case}: parse and parse_reader disagree");
                let delta = parse_into_delta(text).map(|_| ()).map_err(|e| e.line);
                assert_eq!(
                    delta,
                    bulk.map(|_| ()),
                    "{case}: parse_into_delta disagrees"
                );
            }
            Err(_) => assert!(paged.is_err(), "{case}: bytes that are not UTF-8 parsed"),
        }
        if paged.is_ok() {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    // the sample exercises both outcomes
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}
