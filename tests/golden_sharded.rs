//! Golden-file regression test for the shard/merge layer.
//!
//! The paper's bundled running example (`data/sample.nt`) is ranked and
//! heat-mapped once; the exact output — feature ranking with full-
//! precision scores, entity ranking, quantized heat-map levels — is
//! checked into `tests/golden/sample_rankings.json`. Every backend
//! (single graph, and sharded at shard counts 1–4) must reproduce the
//! golden file **exactly**, so any drift in the router, the id remap,
//! the probability decomposition or the top-k heap merge fails this test
//! with a readable diff.
//!
//! Regenerate (after an *intentional* model change) with:
//! `PIVOTE_GOLDEN_WRITE=1 cargo test -q --test golden_sharded`

use pivote_core::{Expander, GraphHandle, HeatMap, RankingConfig, SfQuery};
use pivote_kg::{EntityId, KnowledgeGraph, ShardedGraph};
use serde::{Deserialize, Serialize};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/sample_rankings.json"
);

fn sample() -> KnowledgeGraph {
    let nt = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/sample.nt"))
        .expect("bundled sample exists");
    pivote_kg::parse(&nt).expect("sample parses")
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

    for shards in [1, 2, 3, 4] {
        let sg = ShardedGraph::from_graph(&kg, shards);
        for threads in [1, 2] {
            let got = snapshot(&GraphHandle::with_threads(&sg, threads));
            assert_eq!(
                got, golden,
                "sharded backend (shards={shards}, threads={threads}) \
                 drifted from the golden rankings"
            );
        }
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

fn search_snapshot(handle: &GraphHandle<'_>) -> SearchGolden {
    use pivote_explore::{Session, SessionConfig};
    let session = Session::new(handle.clone(), SessionConfig::default());
    let queries = ["forrest gump", "tom hanks", "film", "american hollywood"];
    SearchGolden {
        queries: queries
            .iter()
            .map(|q| {
                let hits = session
                    .search_hits(q, 10)
                    .iter()
                    .map(|h| (handle.entity_name(h.entity).to_owned(), h.score))
                    .collect();
                ((*q).to_owned(), hits)
            })
            .collect(),
    }
}

#[test]
fn golden_search_rankings_reproduce_on_every_backend() {
    let kg = sample();
    let single = search_snapshot(&GraphHandle::with_threads(
        &ShardedGraph::from(kg.clone()),
        1,
    ));

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
        let got = search_snapshot(&GraphHandle::new(&sg));
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
