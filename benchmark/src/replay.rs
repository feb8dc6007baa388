//! The traced run: a fixed sample of a workload's inputs replayed
//! in-process through the crates' public functions, a span around each
//! call. This is where the per-layer numbers come from; the end-to-end
//! numbers never come from here.

use crate::gen::ReadOp;
use crate::library::{host_threads, Library};
use crate::proc::WorkDir;
use crate::stats::{median, Metric};
use crate::trace::{self, Tracer};
use crate::workloads::ReplayInputs;
use pivote_core::{recover, LiveStore, ReplicaStore, StreamingIngest};
use pivote_kg::{
    load_from_path, save_to_path, DeltaBatch, GraphBackend, KgBuilder, ShardedGraph, WalEvent,
    WalWriter,
};
use pivote_search::{SearchConfig, SearchEngine};
use pivote_serve::Request;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Read requests replayed (the head of the workload's shuffled pool, so
/// in the workload's mix).
const REPLAYED_READS: usize = 96;

/// Untraced/traced pass pairs; the fastest of each side is compared.
const PASSES: usize = 3;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

struct Out(Vec<Metric>);

impl Out {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.0.push(Metric::new(name, unit, value, samples));
    }

    /// `name` = the median of `samples`, when there are any.
    fn mid(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        if let Some(value) = median(samples) {
            self.push(name, unit, value, samples.len());
        }
    }
}

/// Replay `replay` in-process, write the spans to `trace_path`, and
/// return the per-layer metrics.
pub fn traced_replay(
    replay: &ReplayInputs,
    work: &WorkDir,
    trace_path: &Path,
) -> Result<Vec<Metric>, String> {
    let mut out = Out(Vec::new());
    let dump = &replay.inputs.dump;
    let io = |e: std::io::Error| e.to_string();

    // ---- dump -> queryable: the stages `pivote-serve --data` runs ----
    let (kg, parse_s) = timed(|| pivote_kg::parse(dump));
    let kg = kg.map_err(|e| format!("dump line {}: {}", e.line, e.message))?;
    let triples = kg.triple_count();
    out.push(
        "kg.nt_parse_triples_per_s",
        "1/s",
        triples as f64 / parse_s,
        triples,
    );

    let analyzer = SearchConfig::default().analyzer;
    let labels: Vec<&str> = kg.entity_ids().filter_map(|e| kg.label(e)).collect();
    let label_bytes: usize = labels.iter().map(|l| l.len()).sum();
    let ((), analyze_s) = timed(|| {
        for label in &labels {
            std::hint::black_box(analyzer.analyze(label));
        }
    });
    out.push(
        "text.analyze_mb_per_s",
        "MB/s",
        label_bytes as f64 / 1e6 / analyze_s,
        labels.len(),
    );

    let (engine, build_s) = timed(|| SearchEngine::build(&kg, SearchConfig::default()));
    out.push("search.index_build_ms", "ms", build_s * 1e3, 1);

    let (sharded, split_s) = timed(|| ShardedGraph::from_graph(&kg, 2));
    out.push("kg.shard_split_ms", "ms", split_s * 1e3, 1);

    let snapshot = work.path("replay.snap");
    let (saved, save_s) = timed(|| save_to_path(&kg, &snapshot));
    saved.map_err(|e| format!("snapshot save: {e}"))?;
    let (loaded, load_s) = timed(|| load_from_path(&snapshot));
    loaded.map_err(|e| format!("snapshot load: {e}"))?;
    let snapshot_bytes = std::fs::metadata(&snapshot).map_err(io)?.len();
    out.push("kg.snapshot_save_ms", "ms", save_s * 1e3, 1);
    out.push("kg.snapshot_load_ms", "ms", load_s * 1e3, 1);
    out.push(
        "kg.snapshot_bytes_per_triple",
        "B",
        snapshot_bytes as f64 / triples as f64,
        triples,
    );

    // the same layer used differently: the binary parses the whole dump,
    // this streams it in bounded batches
    let empty = Arc::new(LiveStore::with_threads(
        KgBuilder::new().finish(),
        host_threads(),
    ));
    let (ingested, ingest_s) = timed(|| StreamingIngest::new(empty).ingest(dump.as_bytes()));
    ingested.map_err(|e| format!("stream ingest: {e}"))?;
    out.push(
        "core.stream_ingest_triples_per_s",
        "1/s",
        triples as f64 / ingest_s,
        triples,
    );

    // ---- the store as the workload's servers hold it ----
    drop(sharded);
    let base: GraphBackend = if replay.shards > 1 {
        ShardedGraph::from_graph(&kg, replay.shards).into()
    } else {
        kg.into()
    };
    let store = Arc::new(LiveStore::with_threads(base.clone(), host_threads()));
    let ((), publish_s) = timed(|| store.enable_snapshots());
    out.push("core.enable_snapshots_ms", "ms", publish_s * 1e3, 1);
    let library = Library::over(store);
    library.search.prepare(&library.snapshot());

    // ---- reads: warm once, then untraced and traced passes in turn ----
    let reads = &replay.reads[..replay.reads.len().min(REPLAYED_READS)];
    let pass = |tracer: &mut Tracer| -> Result<f64, String> {
        let started = Instant::now();
        for (id, req) in reads.iter().enumerate() {
            tracer.begin_request(id);
            tracer.span("request", |t| library.answer(t, &req.line))?;
        }
        Ok(started.elapsed().as_secs_f64())
    };
    pass(&mut Tracer::new(false))?;
    let (mut untraced_s, mut traced_s) = (f64::INFINITY, f64::INFINITY);
    let mut tracer = Tracer::new(true);
    for _ in 0..PASSES {
        untraced_s = untraced_s.min(pass(&mut Tracer::new(false))?);
        tracer = Tracer::new(true);
        traced_s = traced_s.min(pass(&mut tracer)?);
    }
    out.push(
        "trace.overhead_pct",
        "%",
        (traced_s - untraced_s) / untraced_s * 100.0,
        PASSES,
    );

    // how much of an in-process rank the two scoring stages are
    let ranks = reads.iter().filter(|r| r.op == ReadOp::Rank).count();
    let (mut rank_total, mut rank_scoring) = (0u64, 0u64);
    for span in tracer
        .spans()
        .iter()
        .filter(|s| reads[s.request].op == ReadOp::Rank)
    {
        match span.name {
            "request" => rank_total += span.duration_ns(),
            "core.candidates" | "core.score_select" => rank_scoring += span.duration_ns(),
            _ => {}
        }
    }
    out.push(
        "core.rank_scoring_share",
        "ratio",
        rank_scoring as f64 / rank_total.max(1) as f64,
        ranks,
    );

    let (mut pool_per_result, mut postings_per_hit) = (Vec::new(), Vec::new());
    for req in reads {
        let (_, _, counts) = library.answer(&mut Tracer::new(false), &req.line)?;
        match Request::parse(&req.line)? {
            Request::Rank { .. } if counts.results > 0 => {
                pool_per_result.push(counts.candidates as f64 / counts.results as f64);
            }
            Request::Search { query, .. } if counts.results > 0 => {
                let terms = analyzer.analyze(&query);
                let candidates = engine.index().candidates(&terms).len();
                postings_per_hit.push(candidates as f64 / counts.results as f64);
            }
            _ => {}
        }
    }
    out.mid("core.candidates_per_result", "ratio", &pool_per_result);
    out.mid("search.candidates_per_hit", "ratio", &postings_per_hit);
    drop(engine);

    // ---- writes: the leader's path, then the follower's, then recovery ----
    let log = work.path("replay.wal");
    library.store.log_to(&log).map_err(|e| e.to_string())?;
    let mut deltas = Vec::new();
    for (id, write) in replay.writes.iter().enumerate() {
        tracer.begin_request(reads.len() + id);
        let delta = tracer.span("kg.delta_parse", |_| write.delta())?;
        tracer
            .span("core.append", |_| library.store.append(&delta))
            .map_err(|e| e.to_string())?;
        deltas.push(delta);
    }
    // per request, the self time under each span name; per name, the
    // median over the requests that have it
    let by_name = trace::self_us_by_name(tracer.spans());
    let self_us = |span: &str| by_name.get(span).map_or(&[][..], Vec::as_slice);
    for (span, metric) in [
        ("serve.parse", "serve.parse_us"),
        ("serve.render", "serve.render_us"),
        ("core.acquire", "core.acquire_us"),
        ("core.resolve", "core.resolve_us"),
        ("core.rank_features", "core.rank_features_us"),
        ("core.candidates", "core.candidates_us"),
        ("core.score_select", "core.score_select_us"),
        ("core.expand", "core.expand_us"),
        ("core.heatmap", "core.heatmap_us"),
        ("explore.search", "explore.search_warm_us"),
        ("kg.delta_parse", "kg.delta_parse_us"),
        ("core.append", "core.append_us"),
    ] {
        out.mid(metric, "us", self_us(span));
    }

    // the two kg-level steps inside an append, timed on their own: the
    // rest of an append is core's invalidate + publish
    let scratch_log = work.path("replay-scratch.wal");
    let mut wal = WalWriter::create(&scratch_log, 0, 0).map_err(|e| e.to_string())?;
    let mut clone = base.clone();
    let (mut wal_us, mut apply_us) = (Vec::new(), Vec::new());
    for delta in &deltas {
        let event = WalEvent::Delta(delta.clone());
        let (appended, s) = timed(|| wal.append_event(event));
        appended.map_err(|e| e.to_string())?;
        wal_us.push(s * 1e6);
        let (_, s) = timed(|| clone.apply(delta));
        apply_us.push(s * 1e6);
    }
    out.mid("kg.wal_append_us", "us", &wal_us);
    out.mid("kg.apply_us", "us", &apply_us);
    if let (Some(append), Some(wal), Some(apply)) = (
        median(self_us("core.append")),
        median(&wal_us),
        median(&apply_us),
    ) {
        out.push("core.publish_us", "us", append - wal - apply, deltas.len());
    }
    let body_bytes: usize = replay.writes.iter().map(|w| w.body.len()).sum();
    let log_bytes = std::fs::metadata(&log).map_err(io)?.len();
    out.push(
        "kg.wal_bytes_per_delta_byte",
        "ratio",
        log_bytes as f64 / body_bytes.max(1) as f64,
        deltas.len(),
    );

    let mut follower =
        ReplicaStore::open(base.clone(), host_threads(), &log).map_err(|e| e.to_string())?;
    follower.store().enable_snapshots();
    let mut replica_us = Vec::new();
    loop {
        let (stepped, s) = timed(|| follower.poll_step());
        if !stepped.map_err(|e| e.to_string())? {
            break;
        }
        replica_us.push(s * 1e6);
    }
    out.mid("core.replica_apply_us", "us", &replica_us);
    drop(follower);

    let (recovered, recover_s) = timed(|| recover(base, host_threads(), &log));
    let recovered = recovered.map_err(|e| e.to_string())?;
    if recovered.records_applied != deltas.len() {
        return Err(format!(
            "recovery replayed {} of {} logged writes",
            recovered.records_applied,
            deltas.len()
        ));
    }
    out.push(
        "core.recover_records_per_s",
        "1/s",
        deltas.len() as f64 / recover_s,
        deltas.len(),
    );
    drop(recovered);

    // a search index one generation behind, after the workload's most
    // common write (one new edge between existing entities): what every
    // write costs the warmer on each process
    let mut refresh_ms = Vec::new();
    let (films, actors) = (&replay.inputs.films, &replay.inputs.actors);
    for (film, actor) in films.iter().zip(actors.iter().rev()).take(PASSES) {
        library.search.prepare(&library.snapshot());
        let mut edge = DeltaBatch::new();
        edge.triple(film.as_str(), "spouse", actor.as_str());
        library.store.append(&edge).map_err(|e| e.to_string())?;
        let snap = library.snapshot();
        let (_, s) = timed(|| library.search.prepare(&snap));
        refresh_ms.push(s * 1e3);
    }
    out.mid("explore.refresh_ms", "ms", &refresh_ms);

    std::fs::write(trace_path, trace::to_json(tracer.spans())).map_err(io)?;
    Ok(out.0)
}
