//! The four workloads. Each sets up (generate, dump, start servers, wait
//! for the first answer) several times, measures for `--seconds`, checks
//! answers against the library, and reports metrics by name.

use crate::gen::{self, Inputs, ReadOp, ReadReq, WriteReq, ZipfDraw};
use crate::library::Library;
use crate::proc::{cpu_s_of, generation_of, is_ok, Ready, Server, WorkDir};
use crate::stats::{median, Metric, StreamHash};
use pivote_kg::ShardedGraph;
use pivote_serve::num_field;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What the command line fixed for this run.
pub struct Config {
    pub server_bin: PathBuf,
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Smoke sizes: small graphs, never compared with a full run.
    pub quick: bool,
}

/// Distinct requests generated for a workload that never repeats one.
/// Sessions stride through the pool and wrap only past its end, far
/// beyond the 256-entry response memo.
const COLD_POOL: usize = 16_384;

/// Distinct requests `explore-cold` sends before its window opens.
const COLD_WARM_UP: usize = 256;

/// Requests the hot workload draws from: fits the response memo.
const HOT_POOL: usize = 64;

/// Wire answers checked against the library, per op.
const CHECKED_PER_OP: usize = 4;

/// The generator may run late by this much (p99) before the open-loop
/// numbers stop meaning what they say.
const MAX_LATE_MS: f64 = 5.0;

/// What a workload measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failed correctness checks: any makes the run exit non-zero.
    pub wrong: Vec<String>,
    /// Reasons the run is invalid (not slow): the generator, not the
    /// program, limited what was measured.
    pub invalid: Vec<String>,
    /// Lines for the human-readable output (stream digests, sizes).
    pub notes: Vec<String>,
    /// What the traced replay needs, when one follows.
    pub replay: Option<ReplayInputs>,
}

/// The generated inputs a traced replay re-runs in-process.
pub struct ReplayInputs {
    pub inputs: Inputs,
    pub reads: Vec<ReadReq>,
    pub writes: Vec<WriteReq>,
    /// Shard count the workload's servers ran with.
    pub shards: usize,
}

/// Wall time of a run's phases, for the note that says where the run's
/// time went (the driver caps a run's total, not just its window).
struct Phases {
    since: Instant,
    done: Vec<String>,
}

impl Phases {
    fn start() -> Self {
        Phases {
            since: Instant::now(),
            done: Vec::new(),
        }
    }

    fn end(&mut self, phase: &str) {
        let took = self.since.elapsed().as_secs_f64();
        self.done.push(format!("{phase} {took:.1} s"));
        self.since = Instant::now();
    }

    fn note(self, report: &mut Report) {
        report
            .notes
            .push(format!("phases: {}", self.done.join(", ")));
    }
}

impl Report {
    fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric::new(name, unit, value, samples));
    }

    fn percentile(&mut self, name: &'static str, samples_ms: &[f64], p: f64) {
        self.metrics
            .extend(Metric::percentile(name, "ms", samples_ms, p));
    }

    /// Count one checked answer; a disagreement is a failed operation.
    fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.wrong.push(why);
        }
    }

    fn expect(&mut self, holds: bool, why: impl FnOnce() -> String) {
        self.check(if holds { Ok(()) } else { Err(why()) });
    }
}

fn sessions_for_host() -> usize {
    // one client thread and connection per core, and never more than
    // the server's default four workers can serve at once
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

fn stat(stats: &serde::Value, field: &str) -> f64 {
    num_field(stats, field).map_or(0.0, |n| n as f64)
}

/// The requests of one workload: the two first requests every started
/// server is asked (never part of the measured stream), and the pool.
struct Requests {
    probe: ReadReq,
    first_search: ReadReq,
    pool: Vec<ReadReq>,
}

fn requests(inputs: &Inputs, seed: u64, pool_len: usize) -> Requests {
    let mut counts = gen::mix_counts(pool_len);
    counts[ReadOp::Rank.index()] += 1;
    counts[ReadOp::Search.index()] += 1;
    let mut pool = gen::read_pool(inputs, seed, counts);
    let mut take = |op| {
        let at = pool
            .iter()
            .rposition(|r| r.op == op)
            .expect("one extra of the op");
        pool.remove(at)
    };
    Requests {
        probe: take(ReadOp::Rank),
        first_search: take(ReadOp::Search),
        pool,
    }
}

/// What distinguishes one workload's set-up from another's.
struct Shape {
    name: &'static str,
    films: usize,
    /// Distinct read requests generated.
    pool: usize,
    /// Writes generated: `churn` sends them; elsewhere the traced replay
    /// times them at this workload's graph size.
    writes: usize,
    /// A logging leader and a follower tailing its log, both on two
    /// shards, instead of one server with default flags.
    replicated: bool,
    /// How often set-up is repeated; `setup_s` is the median. The shorter
    /// a set-up, the more of it is process-start noise, so the more
    /// rounds it gets: every workload spends 2 to 10 s here.
    rounds: usize,
}

/// Writes the traced replay times on a workload that sends none.
const REPLAYED_WRITES: usize = 48;

/// A started server that has given its two first answers.
struct Started {
    server: Server,
    ready: Ready,
    first_search_ms: f64,
}

/// Everything one round of set-up makes.
struct SetUp {
    inputs: Inputs,
    requests: Requests,
    writes: Vec<WriteReq>,
    /// The logging leader of a replicated shape.
    leader: Option<Server>,
    /// The server reads go to: the only one, or the follower.
    started: Started,
}

fn spawn(cfg: &Config, dir: &WorkDir, args: &[&str], log: &str) -> Result<Server, String> {
    Server::spawn(&cfg.server_bin, args, &dir.path(log))
        .map_err(|e| format!("spawn {}: {e}", cfg.server_bin.display()))
}

/// Spawn a server and ask it the two first requests.
fn start(
    cfg: &Config,
    dir: &WorkDir,
    args: &[&str],
    log: &str,
    requests: &Requests,
) -> Result<Started, String> {
    let mut server = spawn(cfg, dir, args, log)?;
    let ready = server.wait_ready(&requests.probe.line)?;
    let mut client = server.connect().map_err(|e| format!("connect: {e}"))?;
    let asked = Instant::now();
    let answer = client.request_raw(&requests.first_search.line);
    let first_search_ms = asked.elapsed().as_secs_f64() * 1e3;
    if !answer.as_deref().is_ok_and(is_ok) {
        return Err(format!("{} -> {answer:?}", requests.first_search.line));
    }
    Ok(Started {
        server,
        ready,
        first_search_ms,
    })
}

fn start_single(cfg: &Config, dir: &WorkDir, requests: &Requests) -> Result<Started, String> {
    let dump = dir.path("graph.nt");
    let args = ["--data", &*dump.to_string_lossy()];
    start(cfg, dir, &args, "server.log", requests)
}

fn spawn_leader(cfg: &Config, dir: &WorkDir) -> Result<Server, String> {
    let (dump, log) = (dir.path("graph.nt"), dir.path("w.wal"));
    let (dump, log) = (dump.to_string_lossy(), log.to_string_lossy());
    let args = ["--data", &*dump, "--shards", "2", "--log", &*log];
    spawn(cfg, dir, &args, "leader.log")
}

/// One round of set-up: generate the inputs, write the dump, start the
/// servers and wait for their first answers.
fn set_up_once(cfg: &Config, dir: &WorkDir, shape: &Shape) -> Result<SetUp, String> {
    let inputs = gen::inputs(shape.films, cfg.seed);
    let requests = requests(&inputs, cfg.seed, shape.pool);
    let writes = gen::write_stream(&inputs, cfg.seed, shape.writes);
    let (dump, log) = (dir.path("graph.nt"), dir.path("w.wal"));
    std::fs::write(&dump, &inputs.dump).map_err(|e| format!("write dump: {e}"))?;
    let (leader, started) = if shape.replicated {
        let _ = std::fs::remove_file(&log);
        // the follower opens the log the leader creates: leader first
        let mut leader = spawn_leader(cfg, dir)?;
        leader.wait_ready(&requests.probe.line)?;
        let (dump, log) = (dump.to_string_lossy(), log.to_string_lossy());
        let args = ["--data", &*dump, "--shards", "2", "--replica", &*log];
        let follower = start(cfg, dir, &args, "follower.log", &requests)?;
        (Some(leader), follower)
    } else {
        (None, start_single(cfg, dir, &requests)?)
    };
    Ok(SetUp {
        inputs,
        requests,
        writes,
        leader,
        started,
    })
}

/// Set up `shape.rounds` times and keep the last round. Each earlier
/// round's servers are dropped before the next starts, outside the timed
/// part; its first answer is kept for checking. Opens the report with
/// what set-up measured.
fn set_up(
    cfg: &Config,
    dir: &WorkDir,
    shape: &Shape,
) -> Result<(SetUp, Vec<Ready>, Report), String> {
    let (mut times, mut earlier) = (Vec::new(), Vec::new());
    let mut last: Option<SetUp> = None;
    for _ in 0..shape.rounds {
        if let Some(previous) = last.take() {
            earlier.push(previous.started.ready);
        }
        let began = Instant::now();
        last = Some(set_up_once(cfg, dir, shape)?);
        times.push(began.elapsed().as_secs_f64());
    }
    let last = last.ok_or("a workload sets up at least once")?;
    let mut report = Report::default();
    let setup_s = median(&times).expect("at least one round");
    report.metric("setup_s", "s", setup_s, times.len());
    let inputs = &last.inputs;
    report.notes.push(format!(
        "graph: {} films, {} entities, {} triples, {} dump bytes",
        shape.films,
        inputs.entities,
        inputs.triples,
        inputs.dump.len()
    ));
    note_stream(
        &mut report,
        "reads",
        last.requests.pool.iter().map(|r| &r.line),
    );
    note_stream(&mut report, "writes", last.writes.iter().map(|w| &w.line));
    Ok((last, earlier, report))
}

fn note_stream<'a>(report: &mut Report, what: &str, lines: impl Iterator<Item = &'a String>) {
    let (mut count, mut hash) = (0, StreamHash::new());
    for line in lines {
        count += 1;
        hash.line(line);
    }
    let digest = hash.finish();
    report
        .notes
        .push(format!("stream {what}: {count} lines, fnv1a {digest:016x}"));
}

// ---------------------------------------------------------------------
// closed-loop read sessions
// ---------------------------------------------------------------------

/// Where a session's next requests come from: indices into the pool.
type Source = Box<dyn Iterator<Item = usize> + Send>;

enum Until {
    Elapsed(Duration),
    /// Each session sends this many requests.
    Count(usize),
}

#[derive(Default)]
struct SessionOut {
    latency_ms: [Vec<f64>; 4],
    ok: u64,
    failed: u64,
    first_failure: Option<String>,
    elapsed_s: f64,
}

impl SessionOut {
    fn record(&mut self, req: &ReadReq, answer: &std::io::Result<String>, took_ms: f64) {
        match answer {
            Ok(a) if is_ok(a) => {
                self.ok += 1;
                self.latency_ms[req.op.index()].push(took_ms);
            }
            other => {
                self.failed += 1;
                self.first_failure
                    .get_or_insert(format!("{} -> {other:?}", req.line));
            }
        }
    }
}

/// One closed-loop session per source, each on its own connection, all
/// released together. A session sends its next request only after the
/// previous answer arrived.
fn drive(
    server: &Server,
    pool: &[ReadReq],
    sources: &mut [Source],
    until: &Until,
) -> Result<Vec<SessionOut>, String> {
    let mut clients = Vec::new();
    for _ in 0..sources.len() {
        clients.push(server.connect().map_err(|e| format!("connect: {e}"))?);
    }
    let barrier = Barrier::new(sources.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .iter_mut()
            .zip(clients)
            .map(|(source, mut client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = SessionOut::default();
                    barrier.wait();
                    let started = Instant::now();
                    let mut sent = 0usize;
                    loop {
                        match until {
                            Until::Elapsed(d) if started.elapsed() >= *d => break,
                            Until::Count(n) if sent >= *n => break,
                            _ => {}
                        }
                        let Some(next) = source.next() else { break };
                        let req = &pool[next % pool.len()];
                        let asked = Instant::now();
                        let answer = client.request_raw(&req.line);
                        out.record(req, &answer, asked.elapsed().as_secs_f64() * 1e3);
                        sent += 1;
                    }
                    out.elapsed_s = started.elapsed().as_secs_f64();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a session panicked".to_owned()))
            .collect()
    })
}

/// Fold finished sessions into the report: the read latencies by op and
/// the failures. Returns the answers that were correct.
fn report_reads(report: &mut Report, outs: Vec<SessionOut>) -> u64 {
    let mut by_op: [Vec<f64>; 4] = Default::default();
    let mut ok = 0;
    for out in outs {
        ok += out.ok;
        report.attempted += out.ok + out.failed;
        report.failed += out.failed;
        report.wrong.extend(out.first_failure);
        for (all, mine) in by_op.iter_mut().zip(out.latency_ms) {
            all.extend(mine);
        }
    }
    let [rank, search, expand, heatmap] = &by_op;
    report.percentile("rank_p50_ms", rank, 50.0);
    report.percentile("rank_p99_ms", rank, 99.0);
    report.percentile("search_p50_ms", search, 50.0);
    report.percentile("search_p95_ms", search, 95.0);
    report.percentile("expand_p50_ms", expand, 50.0);
    report.percentile("heatmap_p50_ms", heatmap, 50.0);
    ok
}

/// Sources that stride through the pool without repeating a request:
/// session `s` of `n` sends `pool[s]`, `pool[s + n]`, ...
fn striding(sessions: usize) -> Vec<Source> {
    (0..sessions)
        .map(|s| Box::new((s..).step_by(sessions)) as Source)
        .collect()
}

/// Median round trip of `{"op":"stats"}` on one connection, in µs: the
/// floor under every latency.
fn wire_us(server: &Server) -> Result<Metric, String> {
    let mut client = server.connect().map_err(|e| format!("connect: {e}"))?;
    let mut took = Vec::new();
    for _ in 0..200 {
        let asked = Instant::now();
        client
            .request_raw(r#"{"op":"stats"}"#)
            .map_err(|e| format!("stats: {e}"))?;
        took.push(asked.elapsed().as_secs_f64() * 1e6);
    }
    let value = median(&took).expect("200 samples");
    Ok(Metric::new("serve.wire_us", "us", value, took.len()))
}

/// Ask the server the first [`CHECKED_PER_OP`] requests of each op in
/// `pool` and hold every answer against the library's.
fn check_sample(report: &mut Report, server: &Server, library: &Library, pool: &[ReadReq]) {
    let mut client = match server.connect() {
        Ok(client) => client,
        Err(e) => return report.check(Err(format!("connect for checks: {e}"))),
    };
    for op in ReadOp::ALL {
        for req in pool.iter().filter(|r| r.op == op).take(CHECKED_PER_OP) {
            let outcome = client
                .request_raw(&req.line)
                .map_err(|e| format!("{}: {e}", req.line))
                .and_then(|answer| library.agrees(&req.line, &answer));
            report.check(outcome);
        }
    }
}

/// Every start's first answer must be the library's; `ready_s` is the
/// median over the starts.
fn check_starts(report: &mut Report, library: &Library, probe: &ReadReq, starts: &[Ready]) {
    for start in starts {
        report.check(library.agrees(&probe.line, &start.answer));
    }
    let ready_s: Vec<f64> = starts.iter().map(|r| r.ready_s).collect();
    report.metric(
        "ready_s",
        "s",
        median(&ready_s).expect("a start"),
        starts.len(),
    );
}

fn parsed(inputs: &Inputs) -> Result<pivote_kg::KnowledgeGraph, String> {
    pivote_kg::parse(&inputs.dump).map_err(|e| format!("dump line {}: {}", e.line, e.message))
}

// ---------------------------------------------------------------------
// explore-cold and explore-hot
// ---------------------------------------------------------------------

/// `explore-cold` (every request distinct: the response memo never
/// hits, scoring does the work) and `explore-hot` (64 requests drawn
/// Zipf(1.05) after one untimed pass: every answer is a memo hit, the
/// serving layer's fixed cost is what is left).
pub fn explore(cfg: &Config, hot: bool) -> Result<Report, String> {
    let shape = Shape {
        name: if hot { "explore-hot" } else { "explore-cold" },
        films: if cfg.quick { 1_000 } else { 4_000 },
        pool: if hot { HOT_POOL } else { COLD_POOL },
        writes: REPLAYED_WRITES,
        replicated: false,
        rounds: 9,
    };
    let dir = WorkDir::create(&cfg.out, shape.name).map_err(|e| format!("work dir: {e}"))?;
    let mut phases = Phases::start();
    let (setup, mut starts, mut report) = set_up(cfg, &dir, &shape)?;
    phases.end("set-up");
    let Started {
        server,
        ready,
        first_search_ms,
    } = setup.started;
    let pool = &setup.requests.pool;
    report.metric("serve.first_rank_ms", "ms", ready.first_ms, 1);
    report.metric("serve.first_search_ms", "ms", first_search_ms, 1);
    starts.push(ready);

    let sessions = sessions_for_host();
    let mut sources: Vec<Source> = if hot {
        // one untimed pass over the whole pool fills the memo
        drive(&server, pool, &mut striding(1), &Until::Count(pool.len()))?;
        (0..sessions)
            .map(|s| {
                let mut draw = ZipfDraw::new(pool.len(), cfg.seed, s);
                Box::new(std::iter::repeat_with(move || draw.next())) as Source
            })
            .collect()
    } else {
        // let the density cache see a fixed number of distinct queries
        // before timing (a count, not a time, so the memory read below
        // is taken after the same work on every run); the window carries
        // on where the warm-up stopped
        let mut sources = striding(sessions);
        drive(
            &server,
            pool,
            &mut sources,
            &Until::Count(COLD_WARM_UP / sessions),
        )?;
        sources
    };

    phases.end("warm-up");
    let before = server.stats()?;
    report.metric("rss_peak_mb", "MB", server.rss_peak_mb(), 1);
    let (cpu_before, own_cpu_before) = (server.cpu_s(), cpu_s_of("self"));
    let window = Until::Elapsed(Duration::from_secs_f64(cfg.seconds));
    let outs = drive(&server, pool, &mut sources, &window)?;
    let (cpu_after, own_cpu_after) = (server.cpu_s(), cpu_s_of("self"));
    let after = server.stats()?;
    phases.end("window");
    let ops_per_s: f64 = outs.iter().map(|o| o.ok as f64 / o.elapsed_s).sum();
    let answered = report_reads(&mut report, outs);
    report.metric("ops_per_s", "1/s", ops_per_s, answered as usize);

    let hits = stat(&after, "memo_hits") - stat(&before, "memo_hits");
    let misses = stat(&after, "memo_misses") - stat(&before, "memo_misses");
    let hit_rate = hits / (hits + misses).max(1.0);
    report.metric(
        "serve.memo_hit_rate",
        "ratio",
        hit_rate,
        (hits + misses) as usize,
    );
    report.expect(
        if hot {
            hit_rate >= 0.99
        } else {
            hit_rate <= 0.01
        },
        || format!("memo hit rate {hit_rate} is not what {} is for", shape.name),
    );
    report.metric("serve.cpu_s", "s", cpu_after - cpu_before, 1);
    report.metric("gen.cpu_s", "s", own_cpu_after - own_cpu_before, 1);
    report.metric("serve.rss_end_mb", "MB", server.rss_peak_mb(), 1);
    let density = stat(&after, "cached_probabilities");
    report.metric("core.density_entries", "count", density, 1);
    report.metrics.push(wire_us(&server)?);

    let kg = parsed(&setup.inputs)?;
    let entities = kg.entity_count();
    report.expect(stat(&after, "entities") as usize == entities, || {
        format!("the server does not hold the {entities} entities of the dump")
    });
    let library = Library::new(kg);
    check_starts(&mut report, &library, &setup.requests.probe, &starts);
    check_sample(&mut report, &server, &library, pool);
    phases.end("checks");
    phases.note(&mut report);
    report.replay = Some(ReplayInputs {
        inputs: setup.inputs,
        reads: setup.requests.pool,
        writes: setup.writes,
        shards: 1,
    });
    Ok(report)
}

// ---------------------------------------------------------------------
// churn
// ---------------------------------------------------------------------

const CHURN_SHARDS: usize = 2;

/// Writes per second of the open-loop writer: with a 15 s window that is
/// 210 writes, the fewest whose p95 has ten samples beyond it.
const WRITES_PER_S: f64 = 14.0;

/// One acknowledged write: when it was due and the generation it made.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Acked {
    pub due_s: f64,
    pub generation: u64,
}

/// One follower answer: when it completed and the generation it was
/// served at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seen {
    pub done_s: f64,
    pub generation: u64,
}

/// Per write: seconds from its due time to the completion of the first
/// follower answer served at its generation or a later one; `None` if no
/// answer ever showed it. `reads` are in completion order, and a
/// follower's generation never goes back, so the first such answer is
/// found by bisection.
pub fn visible_lags(writes: &[Acked], reads: &[Seen]) -> Vec<Option<f64>> {
    writes
        .iter()
        .map(|w| {
            let first = reads.partition_point(|r| r.generation < w.generation);
            reads.get(first).map(|r| r.done_s - w.due_s)
        })
        .collect()
}

#[derive(Default)]
struct WriterOut {
    acked: Vec<Acked>,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    failures: Vec<String>,
}

/// The open-loop writer: write `i` is due at `i / WRITES_PER_S` whether
/// or not earlier ones were slow, and is timed from that due time.
fn write_open_loop(
    leader: &Server,
    writes: &[WriteReq],
    epoch: Instant,
) -> Result<WriterOut, String> {
    let mut client = leader.connect().map_err(|e| format!("connect: {e}"))?;
    let mut out = WriterOut::default();
    for (i, write) in writes.iter().enumerate() {
        let due = Duration::from_secs_f64(i as f64 / WRITES_PER_S);
        if let Some(wait) = due.checked_sub(epoch.elapsed()) {
            std::thread::sleep(wait);
        }
        let late = epoch.elapsed().saturating_sub(due);
        out.late_ms.push(late.as_secs_f64() * 1e3);
        let answer = client.request_raw(&write.line);
        let acked = epoch.elapsed();
        match answer
            .as_deref()
            .ok()
            .filter(|a| is_ok(a))
            .and_then(generation_of)
        {
            Some(generation) => {
                out.latency_ms.push((acked - due).as_secs_f64() * 1e3);
                out.acked.push(Acked {
                    due_s: due.as_secs_f64(),
                    generation,
                });
            }
            None => out.failures.push(format!("{} -> {answer:?}", write.line)),
        }
    }
    Ok(out)
}

/// The closed-loop reader on the follower. Answers completed inside the
/// window are timed; it keeps reading (untimed) until it has seen the
/// last acknowledged generation, so every write's lag is observed.
fn read_follower(
    follower: &Server,
    pool: &[ReadReq],
    epoch: Instant,
    window: Duration,
    last_acked: &AtomicU64,
    writer_done: &AtomicBool,
) -> Result<(SessionOut, Vec<Seen>), String> {
    let mut client = follower.connect().map_err(|e| format!("connect: {e}"))?;
    let (mut out, mut seen) = (SessionOut::default(), Vec::new());
    let give_up = window + Duration::from_secs(30);
    let mut generation = 0;
    for req in pool.iter().cycle() {
        let caught_up =
            writer_done.load(Ordering::SeqCst) && generation >= last_acked.load(Ordering::SeqCst);
        if (caught_up && epoch.elapsed() >= window) || epoch.elapsed() >= give_up {
            break;
        }
        let asked = epoch.elapsed();
        let answer = client.request_raw(&req.line);
        let done = epoch.elapsed();
        if let Some(g) = answer.as_deref().ok().and_then(generation_of) {
            generation = g;
            seen.push(Seen {
                done_s: done.as_secs_f64(),
                generation,
            });
        }
        if done <= window {
            out.record(req, &answer, (done - asked).as_secs_f64() * 1e3);
            out.elapsed_s = done.as_secs_f64();
        }
    }
    Ok((out, seen))
}

/// `churn`: an open-loop writer on a logging leader beside a closed-loop
/// reader on the follower tailing that log, then five leader crashes.
pub fn churn(cfg: &Config) -> Result<Report, String> {
    let shape = Shape {
        name: "churn",
        films: if cfg.quick { 300 } else { 500 },
        pool: COLD_POOL,
        writes: (cfg.seconds * WRITES_PER_S).floor() as usize,
        replicated: true,
        rounds: 15,
    };
    let dir = WorkDir::create(&cfg.out, shape.name).map_err(|e| format!("work dir: {e}"))?;
    let mut phases = Phases::start();
    let (setup, mut starts, mut report) = set_up(cfg, &dir, &shape)?;
    let Started {
        server: follower,
        ready,
        first_search_ms,
    } = setup.started;
    let mut leader = setup.leader.ok_or("a replicated set-up has a leader")?;
    let (pool, writes) = (&setup.requests.pool, &setup.writes);
    report.metric("serve.first_rank_ms", "ms", ready.first_ms, 1);
    report.metric("serve.first_search_ms", "ms", first_search_ms, 1);
    starts.push(ready);
    // one writer and one reader thread, each with one connection
    if crate::library::host_threads() < 2 {
        report
            .invalid
            .push("churn drives 2 client threads on a host with fewer than 2 cores".to_owned());
    }

    phases.end("set-up");
    let rss = leader.rss_peak_mb() + follower.rss_peak_mb();
    report.metric("rss_peak_mb", "MB", rss, 2);
    let (leader_cpu, follower_cpu, own_cpu) = (leader.cpu_s(), follower.cpu_s(), cpu_s_of("self"));
    let window = Duration::from_secs_f64(cfg.seconds);
    let (last_acked, writer_done) = (AtomicU64::new(0), AtomicBool::new(false));
    let epoch = Instant::now();
    let (written, read) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let out = write_open_loop(&leader, writes, epoch);
            if let Ok(out) = &out {
                last_acked.store(
                    out.acked.last().map_or(0, |a| a.generation),
                    Ordering::SeqCst,
                );
            }
            writer_done.store(true, Ordering::SeqCst);
            out
        });
        let reader = scope
            .spawn(|| read_follower(&follower, pool, epoch, window, &last_acked, &writer_done));
        (writer.join(), reader.join())
    });
    let written = written.map_err(|_| "the writer panicked".to_owned())??;
    let (read, seen) = read.map_err(|_| "the reader panicked".to_owned())??;
    phases.end("window and drain");
    let (leader_cpu, follower_cpu) = (leader.cpu_s() - leader_cpu, follower.cpu_s() - follower_cpu);
    report.metric("serve.cpu_s", "s", leader_cpu + follower_cpu, 2);
    report.metric("serve.leader_cpu_s", "s", leader_cpu, 1);
    report.metric("serve.follower_cpu_s", "s", follower_cpu, 1);
    report.metric("gen.cpu_s", "s", cpu_s_of("self") - own_cpu, 1);

    report.attempted += writes.len() as u64;
    report.failed += written.failures.len() as u64;
    report.wrong.extend(written.failures.first().cloned());
    report.percentile("write_p50_ms", &written.latency_ms, 50.0);
    report.percentile("write_p95_ms", &written.latency_ms, 95.0);
    let late = Metric::percentile("gen.late_ms_p99", "ms", &written.late_ms, 99.0);
    if let Some(late) = late.as_ref().filter(|l| l.value > MAX_LATE_MS) {
        report.invalid.push(format!(
            "the writer ran {} ms late at p99 (limit {MAX_LATE_MS} ms)",
            late.value
        ));
    }
    report.metrics.extend(late);
    let lags = visible_lags(&written.acked, &seen);
    let never = lags.iter().filter(|l| l.is_none()).count();
    report.expect(never == 0, || {
        format!("{never} acknowledged writes never became visible on the follower")
    });
    let lags_ms: Vec<f64> = lags.iter().flatten().map(|s| s * 1e3).collect();
    report.percentile("visible_lag_p50_ms", &lags_ms, 50.0);
    report.percentile("visible_lag_p95_ms", &lags_ms, 95.0);
    let ops_per_s = read.ok as f64 / read.elapsed_s;
    let answered = report_reads(&mut report, vec![read]);
    report.metric("ops_per_s", "1/s", ops_per_s, answered as usize);

    let (leader_stats, follower_stats) = (leader.stats()?, follower.stats()?);
    let rss = leader.rss_peak_mb() + follower.rss_peak_mb();
    report.metric("serve.rss_end_mb", "MB", rss, 2);
    let trailing = stat(&leader_stats, "trailing_shards");
    report.metric("kg.trailing_shards", "count", trailing, 1);
    let density = stat(&follower_stats, "cached_probabilities");
    report.metric("core.density_entries", "count", density, 1);
    report.metrics.push(wire_us(&follower)?);

    // the library replays the same writes: both processes must end where
    // it ends, one generation per acknowledged write
    let kg = parsed(&setup.inputs)?;
    let library = Library::new(ShardedGraph::from_graph(&kg, CHURN_SHARDS));
    check_starts(&mut report, &library, &setup.requests.probe, &starts);
    for write in writes {
        library
            .store
            .append(&write.delta()?)
            .map_err(|e| e.to_string())?;
    }
    let end = {
        let reader = library.store.read();
        (reader.generation(), reader.backend().entity_count() as u64)
    };
    let state = |stats: &serde::Value| {
        (
            stat(stats, "generation") as u64,
            stat(stats, "entities") as u64,
        )
    };
    let acked = written.acked.last().map_or(0, |a| a.generation);
    let ends = [
        state(&leader_stats),
        state(&follower_stats),
        (acked, end.1),
        (written.acked.len() as u64, end.1),
    ];
    report.expect(ends.iter().all(|&e| e == end), || {
        format!("(generation, entities) of leader, follower, last ack, ack count: {ends:?}; library {end:?}")
    });

    phases.end("replay in the library");
    // SIGKILL leaves the OS cache intact: this is process-crash
    // durability of the log, not power-loss durability
    let mut recover_s = Vec::new();
    for _ in 0..5 {
        let killed = Instant::now();
        leader.kill();
        leader = spawn_leader(cfg, &dir)?;
        let back = leader.wait_ready(r#"{"op":"stats"}"#)?;
        recover_s.push(killed.elapsed().as_secs_f64());
        let back: serde::Value =
            serde_json::from_str(&back.answer).map_err(|e| format!("stats: {e}"))?;
        report.expect(state(&back) == end, || {
            format!(
                "a restart came back at {:?}, acknowledged {end:?}",
                state(&back)
            )
        });
    }
    report.metric(
        "recover_s",
        "s",
        median(&recover_s).expect("five restarts"),
        5,
    );
    phases.end("restarts");
    check_sample(&mut report, &leader, &library, pool);
    check_sample(&mut report, &follower, &library, pool);
    phases.end("checks");
    phases.note(&mut report);
    report.replay = Some(ReplayInputs {
        inputs: setup.inputs,
        reads: setup.requests.pool,
        writes: setup.writes,
        shards: CHURN_SHARDS,
    });
    Ok(report)
}

// ---------------------------------------------------------------------
// bulk-load
// ---------------------------------------------------------------------

/// `bulk-load`: cold starts of `pivote-serve --data` back to back, each
/// timed from spawn to its first correct `rank` answer. The only reads
/// are each fresh server's first rank and first search, so work moved
/// out of loading and into the first requests still shows.
pub fn bulk_load(cfg: &Config) -> Result<Report, String> {
    let shape = Shape {
        name: "bulk-load",
        films: if cfg.quick { 1_000 } else { 16_000 },
        pool: CHECKED_PER_OP * 8,
        writes: REPLAYED_WRITES,
        replicated: false,
        rounds: 5,
    };
    let dir = WorkDir::create(&cfg.out, shape.name).map_err(|e| format!("work dir: {e}"))?;
    let mut phases = Phases::start();
    let (setup, mut set_up_starts, mut report) = set_up(cfg, &dir, &shape)?;
    set_up_starts.push(setup.started.ready);
    drop(setup.started.server);
    phases.end("set-up");
    let requests = &setup.requests;
    let kg = parsed(&setup.inputs)?;
    let entities = kg.entity_count();

    let own_cpu = cpu_s_of("self");
    let mut starts = Vec::new();
    let (mut first_search_ms, mut rss, mut cpu, mut density) = (vec![], vec![], vec![], vec![]);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < cfg.seconds {
        let start = start_single(cfg, &dir, requests)?;
        first_search_ms.push(start.first_search_ms);
        rss.push(start.server.rss_peak_mb());
        cpu.push(start.server.cpu_s());
        let stats = start.server.stats()?;
        density.push(stat(&stats, "cached_probabilities"));
        let served = stat(&stats, "entities") as usize;
        report.expect(served == entities, || {
            format!("a start holds {served} entities, the dump describes {entities}")
        });
        starts.push(start.ready);
    }
    let window_s = started.elapsed().as_secs_f64();
    phases.end("window");
    report.metric("gen.cpu_s", "s", cpu_s_of("self") - own_cpu, 1);
    let cycles = starts.len();
    report.attempted += 2 * cycles as u64;
    // the reads of this workload are the two first answers of each start
    let first_rank_ms: Vec<f64> = starts.iter().map(|r| r.first_ms).collect();
    report.metric(
        "ops_per_s",
        "1/s",
        2.0 * cycles as f64 / window_s,
        2 * cycles,
    );
    report.percentile("rank_p50_ms", &first_rank_ms, 50.0);
    report.percentile("search_p50_ms", &first_search_ms, 50.0);
    let mid = |values: &[f64]| median(values).expect("at least one start");
    report.metric("serve.first_rank_ms", "ms", mid(&first_rank_ms), cycles);
    report.metric("serve.first_search_ms", "ms", mid(&first_search_ms), cycles);
    report.metric("rss_peak_mb", "MB", mid(&rss), cycles);
    report.metric("serve.rss_end_mb", "MB", mid(&rss), cycles);
    report.metric("serve.cpu_s", "s", mid(&cpu), cycles);
    report.metric("core.density_entries", "count", mid(&density), cycles);
    report.notes.push(format!(
        "{cycles} cold starts, each serving {entities} entities"
    ));

    let library = Library::new(kg);
    // set-up starts are checked too, but `ready_s` is the window's
    for start in &set_up_starts {
        report.check(library.agrees(&requests.probe.line, &start.answer));
    }
    check_starts(&mut report, &library, &requests.probe, &starts);
    let last = start_single(cfg, &dir, requests)?;
    check_sample(&mut report, &last.server, &library, &requests.pool);
    report.metrics.push(wire_us(&last.server)?);
    phases.end("checks");
    phases.note(&mut report);
    report.replay = Some(ReplayInputs {
        inputs: setup.inputs,
        reads: setup.requests.pool,
        writes: setup.writes,
        shards: 1,
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seen(done_s: f64, generation: u64) -> Seen {
        Seen { done_s, generation }
    }

    #[test]
    fn a_write_is_visible_at_the_first_answer_at_or_past_its_generation() {
        let write = |due_s, generation| Acked { due_s, generation };
        let writes = [write(0.0, 1), write(0.1, 2), write(0.2, 3), write(0.3, 4)];
        // the follower applied 2 and 3 between two answers, so no answer
        // is served at generation 2; it never reaches 4
        let reads = [
            seen(0.01, 0),
            seen(0.05, 1),
            seen(0.06, 1),
            seen(0.25, 3),
            seen(0.40, 3),
        ];
        let lags = visible_lags(&writes, &reads);
        assert_eq!(lags[0], Some(0.05));
        assert_eq!(lags[1], Some(0.25 - 0.1));
        assert_eq!(lags[2], Some(0.25 - 0.2));
        assert_eq!(lags[3], None);
        assert!(visible_lags(&writes, &[]).iter().all(Option::is_none));
        assert!(visible_lags(&[], &reads).is_empty());
    }

    #[test]
    fn striding_sessions_never_share_a_request() {
        let mut sources = striding(3);
        let mut drawn: Vec<usize> = Vec::new();
        for _ in 0..4 {
            for s in sources.iter_mut() {
                drawn.extend(s.next());
            }
        }
        drawn.sort_unstable();
        assert_eq!(drawn, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn first_requests_are_not_in_the_pool() {
        let inputs = gen::inputs(40, 2);
        let r = requests(&inputs, 2, 40);
        assert_eq!(r.pool.len(), 40);
        assert_eq!(
            (r.probe.op, r.first_search.op),
            (ReadOp::Rank, ReadOp::Search)
        );
        assert!(!r.pool.contains(&r.probe) && !r.pool.contains(&r.first_search));
    }
}
