//! The golden test: the paper's running example (`data/sample.nt`)
//! ranked, heat-mapped and keyword-searched once, the exact output —
//! full-precision scores, quantized heat-map levels — checked into
//! `tests/golden/sample_rankings.json` and `sample_search.json`. The full
//! parse, the second half appended to the first, three quarters appended
//! and compacted, and the same growth compacted concurrently in a live
//! store must reproduce the files **exactly** at shard counts 1–4 ×
//! threads 1–2, so any drift in the router, the id remap, the splice, the
//! union rebuild, the probability decomposition or the top-k merge fails
//! with a readable diff.
//!
//! Regenerate (after an *intentional* model change) with:
//! `PIVOTE_GOLDEN_WRITE=1 cargo test -q --test golden_sharded`

use pivote_core::{Expander, GraphHandle, HeatMap, LiveStore, RankingConfig, SfQuery};
use pivote_kg::{parse_into_delta, DeltaBatch, EntityId, KnowledgeGraph, ShardedGraph};
use serde::{Deserialize, Serialize};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/sample_rankings.json"
);

fn sample() -> KnowledgeGraph {
    split(1).0
}

/// The sample split at statement boundaries into `parts` chunks: the
/// first parsed into a base graph, the rest parsed as deltas.
fn split(parts: usize) -> (KnowledgeGraph, Vec<DeltaBatch>) {
    let nt = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/sample.nt"))
        .expect("bundled sample exists");
    let lines: Vec<&str> = nt.lines().collect();
    let chunk = lines.len().div_ceil(parts);
    let base = pivote_kg::parse(&lines[..chunk].join("\n")).expect("first part parses");
    let deltas = lines[chunk..]
        .chunks(chunk)
        .map(|c| parse_into_delta(&c.join("\n")).expect("part parses as a delta"))
        .collect();
    (base, deltas)
}

/// The golden snapshot: everything rendered with *names*, not ids, so the
/// file stays meaningful if dictionary order ever changes — and scores as
/// raw f64 (serde_json round-trips them exactly), because the sharded
/// layer's contract is bit-identity, not approximate equality.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Golden {
    seeds: Vec<String>,
    features: Vec<(String, f64)>,
    entities: Vec<(String, f64)>,
    heatmap_levels: Vec<Vec<u8>>,
    heatmap_values: Vec<Vec<f64>>,
}

/// Rank the Fig. 1 query (seed = Forrest_Gump) and compute the heat map
/// on whichever backend `handle` wraps.
fn snapshot(handle: &GraphHandle<'_>) -> Golden {
    let gump = handle.entity("Forrest_Gump").expect("Forrest_Gump");
    let expander = Expander::with_handle(handle.clone(), RankingConfig::default());
    let res = expander.expand(&SfQuery::from_seeds(vec![gump]), 10, 10);
    let axis: Vec<EntityId> = res.entities.iter().map(|re| re.entity).collect();
    let hm = HeatMap::compute(expander.ranker(), &axis, &res.features);
    Golden {
        seeds: vec![handle.entity_name(gump).to_owned()],
        features: res
            .features
            .iter()
            .map(|rf| (handle.feature_display(rf.feature), rf.score))
            .collect(),
        entities: res
            .entities
            .iter()
            .map(|re| (handle.entity_name(re.entity).to_owned(), re.score))
            .collect(),
        heatmap_levels: (0..hm.height())
            .map(|row| (0..hm.width()).map(|col| hm.level(row, col)).collect())
            .collect(),
        heatmap_values: (0..hm.height())
            .map(|row| (0..hm.width()).map(|col| hm.value(row, col)).collect())
            .collect(),
    }
}

#[test]
fn golden_sample_rankings_reproduce_on_every_backend() {
    let kg = sample();
    let single = snapshot(&GraphHandle::with_threads(
        &ShardedGraph::from(kg.clone()),
        1,
    ));

    if std::env::var("PIVOTE_GOLDEN_WRITE").is_ok() {
        std::fs::write(
            GOLDEN_PATH,
            serde_json::to_string_pretty(&single).expect("golden serializes"),
        )
        .expect("golden written");
    }

    let golden_json = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file exists — regenerate with PIVOTE_GOLDEN_WRITE=1");
    let golden: Golden = serde_json::from_str(&golden_json).expect("golden parses");

    assert_eq!(
        single, golden,
        "the one-shard store drifted from the golden rankings"
    );

    for (shards, threads) in [1, 2, 3, 4].into_iter().flat_map(|s| [(s, 1), (s, 2)]) {
        let check = |got: Golden, what: &str| {
            assert_eq!(
                got, golden,
                "{what} (shards={shards}, threads={threads}) drifted from the golden rankings"
            );
        };
        let on = |sg: &ShardedGraph| snapshot(&GraphHandle::with_threads(sg, threads));

        check(on(&ShardedGraph::from_graph(&kg, shards)), "the full parse");

        let (base, deltas) = split(2);
        let mut sg = ShardedGraph::from_graph(&base, shards);
        let receipt = sg.apply(&deltas[0]);
        assert!(receipt.added_relations > 0, "the second half adds triples");
        check(on(&sg), "the second half appended");

        // later quarters mint entities: one trailing shard each on a
        // partition, in-place growth on one shard
        let (base, deltas) = split(4);
        let mut sg = ShardedGraph::from_graph(&base, shards);
        for d in &deltas {
            sg.apply(d);
        }
        assert!(sg.entity_count() > base.entity_count());
        assert_eq!(sg.trailing_shard_count() > 0, shards > 1);
        let generation = sg.generation();
        let sg = sg.compact(2);
        assert_eq!((sg.shard_count(), sg.trailing_shard_count()), (2, 0));
        assert_eq!(sg.generation(), generation + 1);
        check(on(&sg), "three quarters appended, then compacted");

        // the same growth in a live store, compacted concurrently: both
        // sides of the swap match, and the swap keeps every warm density
        let live = LiveStore::with_threads(ShardedGraph::from_graph(&base, shards), threads);
        for d in &deltas {
            live.append(d).expect("store healthy");
        }
        let live_snapshot = || snapshot(&live.read().handle());
        check(live_snapshot(), "the live store before the swap");
        let warm = live.cache().cached_probability_count();
        let receipt = live.compact_concurrent(2).expect("store healthy");
        // compaction is the identity on one shard without a tail
        assert_eq!(receipt.shards_after, if shards == 1 { 1 } else { 2 });
        assert_eq!(receipt.attempts, 1, "no contention, no retries");
        assert_eq!(live.cache().cached_probability_count(), warm);
        assert_eq!(live.trailing_shard_count(), 0);
        check(live_snapshot(), "the live store after the swap");
    }
}

const SEARCH_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/sample_search.json"
);

/// Golden snapshot of keyword-search rankings: per query, the top hits
/// as `(entity name, full-precision score)`. Sharded search merges
/// per-shard hits scored against globally-merged corpus statistics, so
/// its contract is the same as the ranking layer's: bit-identity.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct SearchGolden {
    queries: Vec<(String, Vec<(String, f64)>)>,
}

fn search_snapshot(sg: &ShardedGraph) -> SearchGolden {
    let session = pivote_explore::Session::with_defaults(sg);
    let graph = session.snapshot().backend();
    let queries = ["forrest gump", "tom hanks", "film", "american hollywood"];
    SearchGolden {
        queries: queries
            .iter()
            .map(|q| {
                let hits = session
                    .search_hits(q, 10)
                    .iter()
                    .map(|h| (graph.entity_name(h.entity).to_owned(), h.score))
                    .collect();
                ((*q).to_owned(), hits)
            })
            .collect(),
    }
}

#[test]
fn golden_search_rankings_reproduce_on_every_backend() {
    let kg = sample();
    let single = search_snapshot(&ShardedGraph::from(kg.clone()));

    if std::env::var("PIVOTE_GOLDEN_WRITE").is_ok() {
        std::fs::write(
            SEARCH_GOLDEN_PATH,
            serde_json::to_string_pretty(&single).expect("search golden serializes"),
        )
        .expect("search golden written");
    }

    let golden_json = std::fs::read_to_string(SEARCH_GOLDEN_PATH)
        .expect("search golden exists — regenerate with PIVOTE_GOLDEN_WRITE=1");
    let golden: SearchGolden = serde_json::from_str(&golden_json).expect("search golden parses");
    assert!(
        golden.queries.iter().all(|(_, hits)| !hits.is_empty()),
        "every golden query must have hits"
    );
    assert_eq!(
        single, golden,
        "single-graph search drifted from the golden rankings"
    );

    for shards in [1, 2, 3, 4] {
        let sg = ShardedGraph::from_graph(&kg, shards);
        let got = search_snapshot(&sg);
        assert_eq!(
            got, golden,
            "sharded search (shards={shards}) drifted from the golden rankings"
        );
    }
}

#[test]
fn golden_file_is_checked_in_and_nonempty() {
    if std::env::var("PIVOTE_GOLDEN_WRITE").is_ok() {
        // regeneration mode: the sibling test may still be writing
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file is committed");
    let parsed: Golden = serde_json::from_str(&golden).expect("golden parses");
    assert!(!parsed.features.is_empty(), "golden must rank features");
    assert!(!parsed.entities.is_empty(), "golden must rank entities");
    assert_eq!(parsed.heatmap_levels.len(), parsed.features.len());
}
