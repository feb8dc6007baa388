//! Failure injection: malformed input, degenerate graphs and out-of-range
//! queries must degrade gracefully, never panic.

use pivote::prelude::*;
use pivote_core::{Direction, LiveStore, RankedEntity};
use pivote_kg::{parse, DeltaBatch, ShardedGraph};
use proptest::prelude::*;
use std::sync::Arc;

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
    let ex = Expander::new(&kg, RankingConfig::default());
    let res = ex.expand(&SfQuery::from_seeds(vec![f1]), 5, 5);
    assert_eq!(res.entities.len(), 1);
    assert_eq!(res.entities[0].entity, f2);
}

#[test]
fn singleton_and_empty_graphs() {
    let empty = KgBuilder::new().finish();
    let ex = Expander::new(&empty, RankingConfig::default());
    assert!(ex.expand(&SfQuery::default(), 5, 5).entities.is_empty());

    let mut b = KgBuilder::new();
    let lone = b.entity("lonely");
    let kg = b.finish();
    let ex = Expander::new(&kg, RankingConfig::default());
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
        let ranker = Ranker::new(&kg, RankingConfig::default());
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
    let ex = Expander::new(&kg, RankingConfig::default());
    assert!(ex.expand(&impossible, 5, 5).entities.is_empty());
}

#[test]
fn session_survives_nonsense_actions() {
    let kg = generate(&DatagenConfig::tiny());
    let mut s = Session::with_defaults(&kg);
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
fn compaction_racing_queries_never_tears() {
    // readers hammer a grown live store while a concurrent compactor
    // rebuilds off-lock and swaps in the re-partitioned graph; every
    // reader must see either the old or the new generation — never a
    // torn view — and because compaction is answer-preserving, every
    // reader's rankings must equal the union's regardless of which side
    // of the swap its read guard landed on
    let kg = generate(&DatagenConfig::tiny());
    let film = kg.type_id("Film").unwrap();
    let seeds: Vec<EntityId> = kg.type_extent(film)[..2].to_vec();
    let cfg = RankingConfig::default();

    let live = Arc::new(LiveStore::with_threads(ShardedGraph::from_graph(&kg, 2), 1));
    // grow four trailing shards, each minting a film wired to a seed
    let mut deltas: Vec<DeltaBatch> = Vec::new();
    for i in 0..4 {
        let mut d = DeltaBatch::new();
        d.triple(
            format!("Raced_Compaction_Film_{i}"),
            "starring",
            kg.entity_name(seeds[i % 2]).to_owned(),
        )
        .typed(format!("Raced_Compaction_Film_{i}"), "Film");
        live.append(&d).expect("store healthy");
        deltas.push(d);
    }
    assert_eq!(live.shard_count(), 6);
    let gen_before = live.generation();

    // ground truth: the from-scratch union — valid before AND after the
    // swap, which is exactly what makes the race assertable
    let mut union = generate(&DatagenConfig::tiny());
    for d in &deltas {
        union.apply(d);
    }
    let fresh = pivote_core::QueryContext::with_threads(&union, 1);
    let want_f = fresh.rank_features(&cfg, &seeds);
    let want_e = fresh.rank_entities(&cfg, &seeds, &want_f);
    let assert_matches = |entities: &[RankedEntity], what: &str| {
        assert_eq!(entities.len(), want_e.len(), "{what}");
        for (a, b) in entities.iter().zip(&want_e) {
            assert_eq!(a.entity, b.entity, "{what}");
            assert!((a.score - b.score).abs() == 0.0, "{what}: score tore");
        }
    };

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let live = Arc::clone(&live);
            let seeds = seeds.clone();
            let want_f = &want_f;
            let assert_matches = &assert_matches;
            scope.spawn(move || {
                for _ in 0..10 {
                    let reader = live.read();
                    let generation = reader.generation();
                    assert!(
                        generation == gen_before || generation == gen_before + 1,
                        "readers see the old or the new generation, nothing else"
                    );
                    let ctx = reader.handle();
                    let features = ctx.rank_features(&cfg, &seeds);
                    assert_eq!(&features, want_f, "features tore during the swap");
                    let entities = ctx.rank_entities(&cfg, &seeds, &features);
                    assert_matches(&entities, "racing reader");
                }
            });
        }
        let live = Arc::clone(&live);
        scope.spawn(move || {
            let receipt = live.compact_concurrent(2).expect("store healthy");
            assert_eq!(receipt.shards_before, 6);
            assert_eq!(receipt.trailing_before, 4);
        });
    });

    // converged: the swap landed, and the quiescent answer is the union's
    assert_eq!(live.generation(), gen_before + 1);
    assert_eq!(live.shard_count(), 2);
    let reader = live.read();
    let ctx = reader.handle();
    let features = ctx.rank_features(&cfg, &seeds);
    assert_eq!(features, want_f);
    assert_matches(&ctx.rank_entities(&cfg, &seeds, &features), "post-swap");
}

/// Decode a delta spec: edges over `e0..e11` (e8..e11 are brand-new
/// entities that mint a trailing shard) × predicates `p0..p3`.
fn race_delta(spec: &[(u8, u8, u8)]) -> DeltaBatch {
    let mut d = DeltaBatch::new();
    for &(s, p, o) in spec {
        d.triple(
            format!("e{}", s % 12),
            format!("p{}", p % 4),
            format!("e{}", o % 12),
        );
    }
    d
}

/// The base graph for the swap-race property: `e0..e7` plus the spec'd
/// edges over them.
fn race_base(edges: &[(u8, u8, u8)]) -> KnowledgeGraph {
    let mut b = KgBuilder::new();
    for i in 0..8u8 {
        b.entity(&format!("e{i}"));
    }
    for &(s, p, o) in edges {
        let s = b.entity(&format!("e{}", s % 8));
        let p = b.predicate(&format!("p{}", p % 4));
        let o = b.entity(&format!("e{}", o % 8));
        b.triple(s, p, o);
    }
    b.finish()
}

fn race_rankings(
    kg: &KnowledgeGraph,
    seeds: &[EntityId],
) -> (Vec<RankedFeature>, Vec<RankedEntity>) {
    let cfg = RankingConfig::default();
    let ctx = pivote_core::QueryContext::with_threads(kg, 1);
    let f = ctx.rank_features(&cfg, seeds);
    let e = ctx.rank_entities(&cfg, seeds, &f);
    (f, e)
}

fn assert_rankings(
    got: (&[RankedFeature], &[RankedEntity]),
    want: (&[RankedFeature], &[RankedEntity]),
    what: &str,
) {
    assert_eq!(got.0, want.0, "{what}: features");
    assert_eq!(got.1.len(), want.1.len(), "{what}: entity count");
    for (a, b) in got.1.iter().zip(want.1) {
        assert_eq!(a.entity, b.entity, "{what}: entity order");
        assert!((a.score - b.score).abs() == 0.0, "{what}: score tore");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Appends racing `compact_concurrent`: the hook fires between each
    /// attempt's off-lock rebuild and its swap — mid-compaction — where
    /// the test (a) probes that a query issued right there completes
    /// against the *pre-swap* generation without waiting (the hook runs
    /// on the compactor's own thread, so if the rebuild held either
    /// lock, the probe's read guard — and the injected append's write
    /// guard — would deadlock rather than proceed; the generation
    /// assertion additionally pins that the reader was admitted before
    /// the swap), and (b) injects an append, so the first rebuild is
    /// guaranteed to lose the race and retry. Rankings must equal the
    /// from-scratch union on both sides of the swap, and the losing
    /// compaction must land on the grown state. (Why the off-lock pass
    /// exists: at 16k films with 32 trailing shards a query blocked
    /// 1247 ms behind the stop-the-world pass and 0.004 ms behind this
    /// one.)
    #[test]
    fn prop_appends_racing_concurrent_compaction(
        base_edges in proptest::collection::vec((0u8..8, 0u8..4, 0u8..8), 1..24),
        d1 in proptest::collection::vec((0u8..12, 0u8..4, 0u8..12), 1..12),
        d2 in proptest::collection::vec((0u8..12, 0u8..4, 0u8..12), 1..12),
    ) {
        let delta1 = race_delta(&d1);
        let delta2 = race_delta(&d2);
        let seeds: Vec<EntityId> = {
            let kg = race_base(&base_edges);
            vec![kg.entity("e0").unwrap(), kg.entity("e1").unwrap()]
        };

        // ground truths: from-scratch apply unions at both swap sides
        let union1 = {
            let mut kg = race_base(&base_edges);
            kg.apply(&delta1);
            kg
        };
        let union2 = {
            let mut kg = race_base(&base_edges);
            kg.apply(&delta1);
            kg.apply(&delta2);
            kg
        };
        let want1 = race_rankings(&union1, &seeds);
        let want2 = race_rankings(&union2, &seeds);

        let live = LiveStore::with_threads(
            ShardedGraph::from_graph(&race_base(&base_edges), 2),
            1,
        );
        live.append(&delta1).expect("store healthy");
        let mut hook_calls = 0u32;
        let receipt_result = live.compact_concurrent_hooked(2, |base_generation| {
            hook_calls += 1;
            // mid-compaction probe: this closure runs on the compactor's
            // thread, so merely *acquiring* this read guard (and the
            // write guard of the append below) proves the rebuild holds
            // no lock here — a rebuild-under-lock regression deadlocks
            // this line; the generation proves the reader was admitted
            // before the swap, i.e. it never queued behind the rebuild
            let reader = live.read();
            assert_eq!(
                reader.generation(),
                base_generation,
                "the probe reader must land on the pre-swap snapshot"
            );
            let cfg = RankingConfig::default();
            let ctx = reader.handle();
            let f = ctx.rank_features(&cfg, &seeds);
            let e = ctx.rank_entities(&cfg, &seeds, &f);
            let want = if hook_calls == 1 { &want1 } else { &want2 };
            assert_rankings((&f, &e), (&want.0, &want.1), "mid-compaction query");
            drop(reader);
            if hook_calls == 1 {
                // inject the racing append: the rebuild this hook
                // interrupted is now stale and must be discarded
                live.append(&delta2).expect("store healthy");
            }
        });
        let receipt = receipt_result.expect("store healthy");
        prop_assert_eq!(receipt.attempts, 2, "the losing rebuild must retry");
        prop_assert_eq!(hook_calls, 2);
        prop_assert_eq!(receipt.shards_after, 2);
        prop_assert_eq!(live.shard_count(), 2);
        prop_assert_eq!(live.generation(), 3, "2 appends + 1 winning compaction");

        // post-swap: the compacted store answers exactly the full union
        let reader = live.read();
        let cfg = RankingConfig::default();
        let ctx = reader.handle();
        let f = ctx.rank_features(&cfg, &seeds);
        let e = ctx.rank_entities(&cfg, &seeds, &f);
        assert_rankings((&f, &e), (&want2.0, &want2.1), "post-swap query");
    }
}

#[test]
fn unknown_names_resolve_to_none_not_panic() {
    let kg = generate(&DatagenConfig::tiny());
    assert!(kg.entity("No_Such_Entity").is_none());
    assert!(kg.predicate("noSuchPredicate").is_none());
    assert!(kg.type_id("NoSuchType").is_none());
    assert!(kg.category_id("No such category").is_none());
}

/// A writer panicking mid-append poisons the store: later writes are
/// refused with a typed error instead of panicking their own threads,
/// while reads recover the lock and keep answering — the serving layer
/// stays up on the last consistent snapshot.
#[test]
fn panicked_append_fails_writes_closed_and_keeps_reads_up() {
    use pivote_core::StoreError;

    let cfg = RankingConfig::default();
    let live = Arc::new(LiveStore::with_threads(
        ShardedGraph::from_graph(&generate(&DatagenConfig::tiny()), 2),
        1,
    ));
    let seeds = {
        let kg = generate(&DatagenConfig::tiny());
        let film = kg.type_id("Film").unwrap();
        kg.type_extent(film)[..2].to_vec()
    };
    let (want_f, want_e) = {
        // a healthy append first, so the poisoned snapshot is not the base
        let mut d = DeltaBatch::new();
        d.entity("Pre_Poison_Entity");
        live.append(&d).expect("store still healthy");
        let reader = live.read();
        let ctx = reader.handle();
        let f = ctx.rank_features(&cfg, &seeds);
        let e = ctx.rank_entities(&cfg, &seeds, &f);
        (f, e)
    };

    // inject the panic mid-append, on its own thread, at the hook seam —
    // after the splice and cache invalidation, i.e. at a consistent point
    let injected = {
        let live = Arc::clone(&live);
        std::thread::spawn(move || {
            let mut d = DeltaBatch::new();
            d.entity("Poisoning_Entity");
            let _ = live.append_hooked(&d, |_| panic!("injected writer crash"));
        })
        .join()
    };
    assert!(injected.is_err(), "the injected panic must propagate");
    assert!(live.is_poisoned(), "the writer died holding the lock");

    // writes fail closed with the typed error — no panic, no partial apply
    let mut d = DeltaBatch::new();
    d.entity("Refused_Entity");
    assert_eq!(live.append(&d).unwrap_err(), StoreError::Poisoned);
    assert_eq!(
        live.compact_concurrent(2).unwrap_err(),
        StoreError::Poisoned
    );
    assert_eq!(live.compact_in_place(2).unwrap_err(), StoreError::Poisoned);
    let policy = pivote_kg::CompactionPolicy {
        max_trailing: 0,
        max_tail_fraction: 0.0,
        max_tombstone_fraction: 0.0,
    };
    assert!(
        live.maybe_compact(&policy, 2).is_none(),
        "maintenance declines instead of panicking"
    );

    // reads recover the lock: the last consistent snapshot (poisoning
    // append included — it completed its splice before the panic) keeps
    // answering, bit-identically
    assert_eq!(live.generation(), 2, "healthy append + poisoning append");
    let reader = live.read();
    assert!(reader.backend().entity("Poisoning_Entity").is_some());
    assert!(reader.backend().entity("Refused_Entity").is_none());
    let ctx = reader.handle();
    let got_f = ctx.rank_features(&cfg, &seeds);
    assert_eq!(got_f, want_f, "post-poison features drifted");
    let got_e = ctx.rank_entities(&cfg, &seeds, &got_f);
    assert_eq!(got_e.len(), want_e.len());
    for (a, b) in got_e.iter().zip(&want_e) {
        assert_eq!(a.entity, b.entity);
        assert!(
            (a.score - b.score).abs() == 0.0,
            "post-poison score drifted"
        );
    }
}
