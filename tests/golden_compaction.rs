//! Golden-file regression test for shard compaction.
//!
//! `data/sample.nt` is ingested in **four quarters** — the first quarter
//! parsed into a base graph and partitioned, the remaining three
//! appended as [`DeltaBatch`](pivote_kg::DeltaBatch)es through
//! `ShardedGraph::apply` (each quarter that mints entities appends a
//! trailing shard) — then the grown partition is **compacted to 2
//! shards** and the rankings must reproduce
//! `tests/golden/sample_rankings.json` **exactly**: the same golden file
//! the full-parse backends (`golden_sharded.rs`) and the append path
//! (`golden_incremental.rs`) are held to. Any drift in the union
//! rebuild, the re-partition or the generation handling fails this test
//! with a readable diff.
//!
//! `PIVOTE_GOLDEN_WRITE=1` regenerates the golden from the full parse
//! (same bytes the sibling golden tests write) and then still checks the
//! compacted path against it, so regeneration covers this path too.

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

/// The bundled sample split at statement boundaries into four quarters:
/// the first for the base parse, the rest appended as deltas.
fn quarters() -> (KnowledgeGraph, Vec<pivote_kg::DeltaBatch>) {
    let nt = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/sample.nt"))
        .expect("bundled sample exists");
    let lines: Vec<&str> = nt.lines().collect();
    let chunk = lines.len().div_ceil(4);
    let base = pivote_kg::parse(&lines[..chunk].join("\n")).expect("first quarter parses");
    let deltas = lines[chunk..]
        .chunks(chunk)
        .map(|c| pivote_kg::parse_into_delta(&c.join("\n")).expect("quarter parses as a delta"))
        .collect();
    (base, deltas)
}

#[test]
fn golden_rankings_reproduce_through_the_compaction_path() {
    // regeneration covers the compacted path too: write from the full
    // parse (identical bytes to the sibling golden tests' regen), then
    // verify the append-then-compact path against the file
    if std::env::var("PIVOTE_GOLDEN_WRITE").is_ok() {
        let nt = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/sample.nt"))
            .expect("bundled sample exists");
        let kg = pivote_kg::parse(&nt).expect("sample parses");
        let full = snapshot(&GraphHandle::single_with_threads(&kg, 1));
        std::fs::write(
            GOLDEN_PATH,
            serde_json::to_string_pretty(&full).expect("golden serializes"),
        )
        .expect("golden written");
    }
    let golden_json = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file exists — regenerate with PIVOTE_GOLDEN_WRITE=1");
    let golden: Golden = serde_json::from_str(&golden_json).expect("golden parses");

    for shards in [1, 2, 3, 4] {
        let (base, deltas) = quarters();
        let mut sg = ShardedGraph::from_graph(&base, shards);
        for d in &deltas {
            sg.apply(d);
        }
        assert!(
            sg.trailing_shard_count() > 0,
            "later quarters must mint entities (trailing shards)"
        );
        let generation_before = sg.generation();
        let sg = sg.compact(2);
        assert_eq!(sg.shard_count(), 2, "compacted to 2 shards");
        assert_eq!(sg.trailing_shard_count(), 0);
        assert_eq!(sg.generation(), generation_before + 1);
        for threads in [1, 2] {
            let got = snapshot(&GraphHandle::sharded_with_threads(&sg, threads));
            assert_eq!(
                got, golden,
                "append-four-quarters-then-compact (initial shards={shards}, \
                 threads={threads}) drifted from the golden rankings"
            );
        }
    }
}

#[test]
fn golden_rankings_reproduce_through_the_concurrent_live_compaction_path() {
    // the same four-quarter growth, driven through the unified live
    // store with the off-lock concurrent compaction (rebuild off the
    // write lock, generation-validated pointer swap): the rankings on
    // both sides of the swap must still reproduce the golden file byte
    // for byte — concurrent compaction is as answer-preserving as the
    // offline pass
    let golden_json = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file exists — regenerate with PIVOTE_GOLDEN_WRITE=1");
    let golden: Golden = serde_json::from_str(&golden_json).expect("golden parses");

    for shards in [1, 3, 4] {
        let (base, deltas) = quarters();
        let live = pivote_core::LiveStore::with_threads(ShardedGraph::from_graph(&base, shards), 1);
        for d in &deltas {
            live.append(d).expect("store healthy");
        }
        {
            let reader = live.read();
            assert!(reader.graph().trailing_shard_count() > 0);
            let pre = snapshot(&reader.handle());
            assert_eq!(pre, golden, "pre-swap rankings (shards={shards})");
        }
        let warm = live.cache().cached_probability_count();
        let receipt = live.compact_concurrent(2).expect("store healthy");
        assert_eq!(receipt.shards_after, 2);
        assert_eq!(receipt.attempts, 1, "no contention, no retries");
        assert_eq!(
            live.cache().cached_probability_count(),
            warm,
            "the swap must not drop any surviving density"
        );
        let reader = live.read();
        assert_eq!(reader.graph().trailing_shard_count(), 0);
        let post = snapshot(&reader.handle());
        assert_eq!(
            post, golden,
            "post-swap rankings (shards={shards}) drifted from the golden file"
        );
    }
}
