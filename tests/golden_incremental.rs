//! Golden-file regression test for the incremental store.
//!
//! `data/sample.nt` is ingested in **two halves** — the first half parsed
//! into a base graph, the second half appended as a
//! [`DeltaBatch`](pivote_kg::DeltaBatch) via `KnowledgeGraph::apply` (and,
//! sharded, via `ShardedGraph::apply` at shard counts 1–4)
//! — and the resulting rankings must reproduce
//! `tests/golden/sample_rankings.json` **exactly**: the same golden file
//! the full-parse backends are held to in `golden_sharded.rs`. Any drift
//! in the splice path, the op-ordered interning or the delta routing
//! fails this test with a readable diff.
//!
//! `PIVOTE_GOLDEN_WRITE=1` regenerates the golden from the full parse
//! (same bytes `golden_sharded.rs` writes) and then still checks the
//! incremental path against it, so regeneration covers both paths.

use pivote_core::{Expander, GraphHandle, HeatMap, RankingConfig, SfQuery};
use pivote_kg::{EntityId, KnowledgeGraph, ShardedGraph};
use serde::{Deserialize, Serialize};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/sample_rankings.json"
);

/// Mirror of the golden schema in `golden_sharded.rs`.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Golden {
    seeds: Vec<String>,
    features: Vec<(String, f64)>,
    entities: Vec<(String, f64)>,
    heatmap_levels: Vec<Vec<u8>>,
    heatmap_values: Vec<Vec<f64>>,
}

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

/// The bundled sample split at a statement boundary: first half for the
/// base parse, second half for the append.
fn halves() -> (String, String) {
    let nt = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/sample.nt"))
        .expect("bundled sample exists");
    let lines: Vec<&str> = nt.lines().collect();
    let cut = lines.len() / 2;
    (lines[..cut].join("\n"), lines[cut..].join("\n"))
}

/// Base graph from the first half, delta batch from the second.
fn base_and_delta() -> (KnowledgeGraph, pivote_kg::DeltaBatch) {
    let (first, second) = halves();
    (
        pivote_kg::parse(&first).expect("first half parses"),
        pivote_kg::parse_into_delta(&second).expect("second half parses as a delta"),
    )
}

#[test]
fn golden_rankings_reproduce_through_the_append_path() {
    // regeneration covers the incremental path too: write from the full
    // parse (identical bytes to golden_sharded's regen), then verify the
    // append path against the file like any other backend
    if std::env::var("PIVOTE_GOLDEN_WRITE").is_ok() {
        let nt = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/sample.nt"))
            .expect("bundled sample exists");
        let kg = pivote_kg::parse(&nt).expect("sample parses");
        let full = snapshot(&GraphHandle::with_threads(
            &ShardedGraph::from(kg.clone()),
            1,
        ));
        std::fs::write(
            GOLDEN_PATH,
            serde_json::to_string_pretty(&full).expect("golden serializes"),
        )
        .expect("golden written");
    }
    let golden_json = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file exists — regenerate with PIVOTE_GOLDEN_WRITE=1");
    let golden: Golden = serde_json::from_str(&golden_json).expect("golden parses");

    // single-graph append path
    let (mut kg, delta) = base_and_delta();
    let receipt = kg.apply(&delta);
    assert_eq!(kg.generation(), 1);
    assert!(receipt.added_relations > 0, "the second half adds triples");
    let got = snapshot(&GraphHandle::with_threads(
        &ShardedGraph::from(kg.clone()),
        1,
    ));
    assert_eq!(
        got, golden,
        "appending sample.nt's second half drifted from the golden rankings"
    );

    // sharded append path, across the CI shard matrix
    for shards in [1, 2, 3, 4] {
        let (base, delta) = base_and_delta();
        let mut sg = ShardedGraph::from_graph(&base, shards);
        sg.apply(&delta);
        for threads in [1, 2] {
            let got = snapshot(&GraphHandle::with_threads(&sg, threads));
            assert_eq!(
                got, golden,
                "sharded append path (shards={shards}, threads={threads}) \
                 drifted from the golden rankings"
            );
        }
    }
}
