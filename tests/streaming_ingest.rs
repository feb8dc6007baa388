//! The streaming ingest contract, property-tested: parsing an N-Triples
//! document through `parse_stream` — under **any** reader chunking (1
//! byte .. whole document) and **any** batch bound — yields exactly the
//! op sequence of the bulk `parse_into_delta`, and applying those batches
//! produces bit-identical rankings on the single backend and on sharded
//! backends across shard counts 1–4.
//!
//! Also hosts the `#[ignore]`d scale leg CI runs with `--ignored`: a
//! ~100k-triple generated dump streamed through `StreamingIngest` over a
//! live sharded store with the maintenance thread absorbing trailing
//! shards mid-ingest.

use pivote_core::{Expander, GraphHandle, RankingConfig, SfQuery};
use pivote_kg::{
    parse_into_delta, parse_stream, DeltaBatch, EntityId, KgBuilder, KnowledgeGraph, ShardedGraph,
};
use proptest::prelude::*;
use std::io::{BufReader, Read};

/// A reader that returns at most one pre-chosen chunk length per `read`
/// call, cycling through `chunks` — the adversarial transport for
/// chunk-boundary testing. Wrapped in a tiny `BufReader`, it forces
/// `read_line` to assemble statements from arbitrary fragments.
struct ChunkedRead<'a> {
    data: &'a [u8],
    pos: usize,
    chunks: Vec<usize>,
    next: usize,
}

impl<'a> ChunkedRead<'a> {
    fn new(data: &'a [u8], chunks: Vec<usize>) -> Self {
        Self {
            data,
            pos: 0,
            chunks,
            next: 0,
        }
    }
}

impl Read for ChunkedRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let chunk = self.chunks[self.next % self.chunks.len()].max(1);
        self.next += 1;
        let n = chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Statement spec `(kind, a, b, c)` rendered to one N-Triples line by
/// [`render_document`]. Covers every routed statement shape: plain
/// triples, types, categories, labels (with escapes), integer literals
/// and redirects, plus interleaved comments and blank lines.
type DocSpec = Vec<(u8, u8, u8, u8)>;

fn doc_strategy() -> impl Strategy<Value = DocSpec> {
    proptest::collection::vec((0u8..8, 0u8..12, 0u8..5, 0u8..12), 1..40)
}

fn render_document(spec: &DocSpec) -> String {
    use std::fmt::Write as _;
    const R: &str = "http://dbpedia.org/resource/";
    const O: &str = "http://dbpedia.org/ontology/";
    let mut out = String::from("# generated test document\n");
    for &(kind, a, b, c) in spec {
        let s = format!("<{R}e{}>", a % 12);
        match kind % 8 {
            0 => {
                let _ = writeln!(out, "{s} <{O}p{}> <{R}e{}> .", b % 5, c % 12);
            }
            1 => {
                let _ = writeln!(
                    out,
                    "{s} <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{O}t{}> .",
                    b % 3
                );
            }
            2 => {
                let _ = writeln!(
                    out,
                    "{s} <http://purl.org/dc/terms/subject> \
                     <http://dbpedia.org/resource/Category:c{}> .",
                    b % 4
                );
            }
            3 => {
                let _ = writeln!(
                    out,
                    "{s} <http://www.w3.org/2000/01/rdf-schema#label> \"L\\\"{c}\\ntail\"@en ."
                );
            }
            4 => {
                let _ = writeln!(
                    out,
                    "{s} <{O}lp{}> \"{c}\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
                    b % 2
                );
            }
            5 => {
                let _ = writeln!(out, "<{R}Alias_{b}_{c}> <{O}wikiPageRedirects> {s} .",);
            }
            6 => {
                out.push_str("# interleaved comment\n");
            }
            _ => {
                out.push('\n');
            }
        }
    }
    out
}

/// Fixed base graph the parsed batches are appended onto: guarantees the
/// post-apply graph has enough structure to rank over even when the
/// random document is degenerate.
fn base_graph() -> KnowledgeGraph {
    let mut b = KgBuilder::new();
    for i in 0..12u8 {
        b.entity(&format!("e{i}"));
    }
    for i in 0..12u8 {
        let s = b.entity(&format!("e{i}"));
        let p = b.predicate(&format!("p{}", i % 5));
        let o = b.entity(&format!("e{}", (i + 1) % 12));
        b.triple(s, p, o);
        b.typed(s, &format!("t{}", i % 3));
        b.categorized(s, &format!("c{}", i % 4));
    }
    b.finish()
}

/// Feature and entity rankings rendered from a handle — the bit-identity
/// comparison payload.
fn rankings(handle: &GraphHandle<'_>, seeds: &[EntityId]) -> Vec<(String, u64)> {
    let expander = Expander::with_handle(handle.clone(), RankingConfig::default());
    let res = expander.expand(&SfQuery::from_seeds(seeds.to_vec()), 12, 12);
    res.features
        .iter()
        .map(|rf| (format!("f:{:?}", rf.feature), rf.score.to_bits()))
        .chain(
            res.entities
                .iter()
                .map(|re| (format!("e:{:?}", re.entity), re.score.to_bits())),
        )
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streaming parse under arbitrary chunking and batch bounds is
    /// bit-identical to the bulk parse — op sequence and post-apply
    /// rankings, single and sharded.
    #[test]
    fn prop_streamed_parse_equals_bulk_parse(
        spec in doc_strategy(),
        chunks in proptest::collection::vec(1usize..64, 1..8),
        max_ops in 1usize..16,
        whole in 0u8..2,
    ) {
        let doc = render_document(&spec);
        let bulk = parse_into_delta(&doc).unwrap();

        // chunked stream: tiny BufReader so statements are assembled
        // across chunk boundaries ("whole" degenerates to one huge chunk)
        let chunks = if whole == 1 { vec![doc.len().max(1)] } else { chunks };
        let reader = BufReader::with_capacity(8, ChunkedRead::new(doc.as_bytes(), chunks));
        let mut batches: Vec<DeltaBatch> = Vec::new();
        let stats = parse_stream(reader, max_ops, |b| {
            let mut copy = DeltaBatch::new();
            for op in b.ops() {
                copy.push(op.clone());
            }
            batches.push(copy);
        }).unwrap();

        // op-sequence bit-identity
        let streamed_ops: Vec<_> = batches.iter().flat_map(|b| b.ops().iter().cloned()).collect();
        prop_assert_eq!(&streamed_ops, &bulk.ops().to_vec());
        prop_assert_eq!(stats.statements, bulk.len());
        prop_assert_eq!(stats.batches, batches.len());

        // ranking bit-identity after apply: bulk single-apply is the
        // ground truth
        let mut want_kg = base_graph();
        want_kg.apply(&bulk);
        let seeds: Vec<EntityId> = vec![
            want_kg.entity("e0").unwrap(),
            want_kg.entity("e5").unwrap(),
        ];
        let want = rankings(&GraphHandle::with_threads(&ShardedGraph::from(want_kg.clone()), 1), &seeds);

        // streamed batches onto a single graph
        let mut got_kg = base_graph();
        for b in &batches {
            got_kg.apply(b);
        }
        let got = rankings(&GraphHandle::with_threads(&ShardedGraph::from(got_kg.clone()), 1), &seeds);
        prop_assert_eq!(&got, &want, "single-backend streamed apply");

        // streamed batches through the router, shards 1..=4
        for shards in 1usize..=4 {
            let mut sg = ShardedGraph::from_graph(&base_graph(), shards);
            for b in &batches {
                sg.apply(b);
            }
            let got = rankings(&GraphHandle::with_threads(&sg, 1), &seeds);
            prop_assert_eq!(&got, &want, "sharded streamed apply (shards={})", shards);
        }
    }
}

/// The scale leg: stream a ~100k-triple generated dump through
/// `StreamingIngest` over a live sharded store with background
/// maintenance absorbing trailing shards mid-ingest, querying as it goes.
#[test]
#[ignore = "~100k triples; run with --ignored in release"]
fn scale_stream_of_100k_triples_equals_bulk_parse_under_maintenance() {
    use pivote_core::{LiveStore, MaintenanceHandle, StreamingIngest};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    // ~2.5k films ≈ 100k triples (16k films ≈ 645k)
    let generated = pivote_kg::generate(&pivote_kg::DatagenConfig::scaled(2_500, 7));
    let dump = pivote_kg::ntriples::serialize(&generated);
    let want = pivote_kg::parse(&dump).expect("generated dump reparses");

    let store = Arc::new(LiveStore::with_threads(
        ShardedGraph::from_graph(&KgBuilder::new().finish(), 2),
        1,
    ));
    let mut maintenance = MaintenanceHandle::spawn(
        Arc::clone(&store),
        pivote_kg::CompactionPolicy {
            max_trailing: 0,
            max_tail_fraction: 1.0,
            max_tombstone_fraction: 1.0,
        },
        2,
        Duration::from_millis(1),
    );

    let ingest = StreamingIngest::with_batch_size(Arc::clone(&store), 8_192);
    let mut batches = 0usize;
    let mut sampled_queries = 0usize;
    let report = ingest
        .ingest_with(dump.as_bytes(), |applied| {
            assert!(applied.generation > 0);
            batches += 1;
            // query while ingesting: every few batches, rank from a live
            // reader — the read path must stay coherent mid-ingest
            if batches.is_multiple_of(4) {
                let reader = store.read();
                let handle = reader.handle();
                if handle.graph().entity_count() > 0 {
                    let _ = rankings(&handle, &[EntityId::new(0)]);
                    sampled_queries += 1;
                }
            }
        })
        .expect("streamed ingest succeeds");

    assert_eq!(report.stats.batches, batches);
    assert!(batches > 1, "the dump must span several batches");
    assert!(sampled_queries > 0, "mid-ingest queries must have run");

    let deadline = Instant::now() + Duration::from_secs(120);
    while store.trailing_shard_count() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    maintenance.stop();
    assert_eq!(
        store.trailing_shard_count(),
        0,
        "maintenance must absorb every trailing shard"
    );
    assert!(maintenance.passes() >= 1);

    drop(ingest);
    let got = Arc::try_unwrap(store)
        .ok()
        .expect("maintenance joined — no other owners")
        .into_inner()
        .to_graph();
    assert_eq!(got.entity_count(), want.entity_count());
    assert_eq!(got.relation_count(), want.relation_count());
    assert_eq!(got.type_count(), want.type_count());
    assert_eq!(got.category_count(), want.category_count());
    assert_eq!(
        pivote_kg::ntriples::serialize(&got),
        pivote_kg::ntriples::serialize(&want),
        "streamed+maintained store must be bit-identical to the bulk parse"
    );
}
