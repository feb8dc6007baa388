//! The equivalence model: one op-script driver and one reference for
//! every bit-identity contract of the live stack — append ≡ rebuild,
//! compacted ≡ union, retracted ≡ rebuild of the survivors, replica ≡
//! leader, snapshot ≡ lock path, wire ≡ library.
//!
//! A script is a seeded `collection::vec` of [`Op`]s over one small
//! universe — entities `e0`–`e15`, predicates `p0`–`p5`, types `t0`–`t2`,
//! categories `c0`–`c3` — whose writes come in the `iNxM`/`dNxM` shape of
//! a SPARQL-update generator: N appends of M statements each, N·M ≤ 12.
//! The driver runs every script at each of [`SHARD_COUNTS`] × context
//! threads 1–2: a logging leader [`LiveStore`] served by a [`Service`], a
//! follower [`ReplicaStore`] tailing its log, and whatever snapshots the
//! script pins.
//!
//! The one reference ([`rebuild`]) is a statement shadow with the
//! library's exact semantics — triples and type/category assertions are
//! sets, literal statements a multiset whose retract removes every
//! matching copy, labels overwrite and clear in place, aliases are
//! per-target sets, and only inserts intern names, in op order — built
//! from scratch with [`KgBuilder`] for every prefix of the writes. After
//! every op, every observer must equal it: the published snapshot, a
//! fresh lock-path handle, the follower at its synced generation
//! (fingerprint-equal to the leader once caught up), [`Service::compute`]
//! byte for byte (`generation` aside), every pinned snapshot against its
//! own generation's reference, and `ntriples::serialize`.
//!
//! The vendored proptest does not shrink, so a failing script prints its
//! case, layout, op index and the script prefix that failed.

use pivote_core::{
    recover, Expander, GraphHandle, HeatMap, LiveStore, MaintenanceHandle, PreparedSnapshot,
    RankingConfig, ReplicaStore, SemanticFeature, SfQuery, StoreError,
};
use pivote_explore::{build_profile, EntityProfile};
use pivote_kg::wal::WalEvent;
use pivote_kg::{
    fingerprint, generate, ntriples, read_records, split_growth, split_incremental,
    CompactionPolicy, DatagenConfig, DeltaBatch, DeltaOp, EntityId, KgBuilder, KnowledgeGraph,
    Literal, ShardedGraph, WalWriter,
};
use pivote_serve::{Request, Service};
use proptest::prelude::*;
use proptest::{collection, TestRng};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::fs::OpenOptions;
use std::io::Write as _;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every shard count a script runs at — the one place the partition
/// axis is named.
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 4];

/// Random scripts per run; each runs at every shard count × threads 1–2.
const CASES: usize = 24;

/// How many entities, predicates, types and categories a draw may name.
type Names = [u8; 4];

/// The base graph's names. Writes reach past them to mint `e10`–`e15`,
/// `p4`/`p5`, `t2` and `c3`; retracts stay inside them, so they hit.
const BASE: Names = [10, 4, 2, 3];
/// The whole universe.
const ALL: Names = [16, 6, 3, 4];

/// One statement draw `(kind, subject, b, c)`.
type Draw = (u8, u8, u8, u8);

fn draw() -> impl Strategy<Value = Draw> {
    (0u8..7, 0u8..16, 0u8..6, 0u8..16)
}

/// Decode an insert draw over `names`. Labels, literal values and
/// aliases come from four values each, so retracts can name them.
fn insert(d: &mut DeltaBatch, [es, ps, ts, cs]: Names, (kind, a, b, c): Draw) {
    let s = format!("e{}", a % es);
    match kind % 7 {
        0 => d.triple(s, format!("p{}", b % ps), format!("e{}", c % es)),
        1 => d.typed(s, format!("t{}", b % ts)),
        2 => d.categorized(s, format!("c{}", b % cs)),
        3 => d.label(s, format!("L{}", c % 4)),
        4 => d.literal(s, format!("lp{}", b % 2), Literal::integer((c % 4).into())),
        5 => d.redirect(format!("Alias{}", c % 4), s),
        _ => d.entity(s),
    };
}

/// Decode a retract draw over `names`: the retract of exactly the
/// statement [`insert`] decodes the draw to (a bare entity retracts its
/// self-loop).
fn retract(d: &mut DeltaBatch, [es, ps, ts, cs]: Names, (kind, a, b, c): Draw) {
    let (s, p) = (format!("e{}", a % es), format!("p{}", b % ps));
    match kind % 7 {
        0 => d.retract_triple(s, p, format!("e{}", c % es)),
        1 => d.retract_typed(s, format!("t{}", b % ts)),
        2 => d.retract_categorized(s, format!("c{}", b % cs)),
        3 => d.retract_label(s, format!("L{}", c % 4)),
        4 => d.retract_literal(s, format!("lp{}", b % 2), Literal::integer((c % 4).into())),
        5 => d.retract_alias(format!("Alias{}", c % 4), s),
        _ => d.retract_triple(s.clone(), p, s),
    };
}

/// One step of a script.
#[derive(Clone, Debug)]
enum Op {
    /// Append each batch to the leader in turn: an insert (`iNxM`),
    /// retract (`dNxM`) or entity-minting write.
    Write(Vec<DeltaBatch>),
    /// `compact_concurrent(target)` on the leader.
    Compact(usize),
    /// A background maintenance thread absorbs every trailing shard.
    Maintain,
    /// Leader crash: `recover` from the base and the log, resume the
    /// log, serve the recovered store from a fresh `Service`.
    Crash(Crash),
    /// Follower restart mid-stream: re-attach its store at its cursor.
    Restart,
    /// The follower applies up to this many records.
    Sync(usize),
    /// Pin the published snapshot; it is checked after every later op.
    Pin,
    /// Every read through `Service::call`, twice (memo miss, then hit).
    Read,
}

/// When the leader of an [`Op::Crash`] dies.
#[derive(Clone, Debug)]
enum Crash {
    /// Between two writes.
    Clean,
    /// Mid-append: 9 bytes of a 12-byte record frame reached the log.
    TornTail,
    /// After logging this batch, before applying it: the log is
    /// authoritative, so recovery applies it.
    Unapplied(DeltaBatch),
}

/// One op of the random alphabet over a script whose base graph was
/// built from `base` draws. A write carries N batches of M statements
/// from twelve draws; half of a retract batch names base statements, so
/// retracts hit.
fn op(base: Vec<Draw>) -> impl Strategy<Value = Op> {
    let shape = (0u8..20, 1usize..4, 1usize..5);
    (shape, collection::vec(draw(), 12..13)).prop_map(move |((kind, n, m), draws)| {
        let batches = |decode: &dyn Fn(&mut DeltaBatch, Draw)| -> Vec<DeltaBatch> {
            let batch = |chunk: &[Draw]| {
                let mut d = DeltaBatch::new();
                chunk.iter().for_each(|&x| decode(&mut d, x));
                d
            };
            draws.chunks(m).take(n).map(batch).collect()
        };
        let inserts = || batches(&|d, x| insert(d, ALL, x));
        match kind {
            0..=4 => Op::Write(inserts()),
            5..=8 => Op::Write(batches(&|d, (k, a, b, c)| {
                let named = base[usize::from(c) % base.len()];
                retract(d, BASE, if b % 2 == 0 { named } else { (k, a, b, c) })
            })),
            9 | 10 => Op::Write(batches(&|d, (k, a, b, c)| {
                insert(d, ALL, (k, 10 + a % 6, b, c))
            })),
            11 | 12 => Op::Compact(m),
            13 => Op::Crash(match m % 3 {
                0 => Crash::Clean,
                1 => Crash::TornTail,
                _ => Crash::Unapplied(inserts().swap_remove(0)),
            }),
            14 => Op::Restart,
            15 => Op::Sync(m),
            16 => Op::Sync(usize::MAX),
            17 | 18 => Op::Pin,
            _ => Op::Read,
        }
    })
}

/// `kg` as a script [`rebuild`] reproduces id for id: every dictionary
/// declared in id order, then every entity with its statements.
fn graph_script(kg: &KnowledgeGraph) -> Vec<DeltaOp> {
    let mut d = DeltaBatch::new();
    for p in kg.predicate_ids() {
        d.declare_predicate(kg.predicate_name(p));
    }
    for t in kg.type_ids() {
        d.declare_type(kg.type_name(t));
    }
    for c in kg.category_ids() {
        d.declare_category(kg.category_name(c));
    }
    let (_, everything) = split_growth(kg, 0.0, 1);
    let ops = d
        .ops()
        .iter()
        .chain(everything.iter().flat_map(DeltaBatch::ops));
    ops.cloned().collect()
}

/// The set-semantics statement `op` inserts (`false`) or retracts
/// (`true`): a triple, a type or category assertion, or an alias.
fn statement(op: &DeltaOp) -> Option<(bool, [&str; 4])> {
    use DeltaOp::*;
    Some(match op {
        Triple { s, p, o } => (false, ["triple", s, p, o]),
        RetractTriple { s, p, o } => (true, ["triple", s, p, o]),
        Typed { entity, type_name } => (false, ["type", entity, type_name, ""]),
        RetractTyped { entity, type_name } => (true, ["type", entity, type_name, ""]),
        Categorized { entity, category } => (false, ["category", entity, category, ""]),
        RetractCategorized { entity, category } => (true, ["category", entity, category, ""]),
        Redirect { alias, target } => (false, ["alias", alias, target, ""]),
        RetractAlias { alias, target } => (true, ["alias", alias, target, ""]),
        _ => return None,
    })
}

/// The statement shadow: what survives `ops`, built from scratch with
/// the live graph's dictionary order — every insert interns its names at
/// its position (retracts never intern), and only statements that
/// survived are materialized.
fn rebuild(ops: &[DeltaOp]) -> KnowledgeGraph {
    let mut live = HashSet::new();
    let mut labels = HashMap::new();
    // every literal insert, in op order, with its liveness
    let mut literals: Vec<(&String, &String, &Literal, bool)> = Vec::new();
    for op in ops {
        if let Some((retracted, key)) = statement(op) {
            if retracted {
                live.remove(&key);
            } else {
                live.insert(key);
            }
            continue;
        }
        match op {
            DeltaOp::Label { entity, label } => {
                labels.insert(entity, label);
            }
            DeltaOp::RetractLabel { entity, label } if labels.get(entity) == Some(&label) => {
                labels.remove(entity);
            }
            DeltaOp::LiteralTriple { s, p, value } => literals.push((s, p, value, true)),
            DeltaOp::RetractLiteral { s, p, value } => {
                for lit in literals
                    .iter_mut()
                    .filter(|l| (l.0, l.1, l.2) == (s, p, value))
                {
                    lit.3 = false;
                }
            }
            DeltaOp::Disambiguation { .. } => unreachable!("the model writes no disambiguation"),
            _ => {}
        }
    }

    let survives = |op| statement(op).is_some_and(|(_, key)| live.contains(&key));
    let mut b = KgBuilder::new();
    let mut alive = literals.iter().map(|lit| lit.3);
    for op in ops {
        match op {
            DeltaOp::Entity { name } => {
                b.entity(name);
            }
            DeltaOp::DeclarePredicate { name } => {
                b.predicate(name);
            }
            DeltaOp::DeclareType { name } => {
                b.declare_type(name);
            }
            DeltaOp::DeclareCategory { name } => {
                b.declare_category(name);
            }
            DeltaOp::Triple { s, p, o } => {
                let (si, pi, oi) = (b.entity(s), b.predicate(p), b.entity(o));
                if survives(op) {
                    b.triple(si, pi, oi);
                }
            }
            DeltaOp::LiteralTriple { s, p, value } => {
                let (si, pi) = (b.entity(s), b.predicate(p));
                if alive.next() == Some(true) {
                    b.literal_triple(si, pi, value.clone());
                }
            }
            DeltaOp::Typed { entity, type_name } => {
                let e = b.entity(entity);
                b.declare_type(type_name);
                if survives(op) {
                    b.typed(e, type_name);
                }
            }
            DeltaOp::Categorized { entity, category } => {
                let e = b.entity(entity);
                b.declare_category(category);
                if survives(op) {
                    b.categorized(e, category);
                }
            }
            DeltaOp::Label { entity, .. } | DeltaOp::Redirect { target: entity, .. } => {
                b.entity(entity);
            }
            _ => {} // retracts intern nothing
        }
    }
    // labels overwrite, so only the survivor per entity matters; alias
    // rows are sorted and deduplicated at finish, so their order is free
    for (entity, label) in labels {
        let e = b.entity(entity);
        b.label(e, label.clone());
    }
    let mut aliases: Vec<_> = live.iter().filter(|key| key[0] == "alias").collect();
    aliases.sort();
    for [_, alias, target, _] in aliases {
        let t = b.entity(target);
        b.redirect(*alias, t);
    }
    b.finish()
}

/// What every observer reads: the expansion of two seeds, its heat map
/// and the profiles of the seeds and of every entity a write can mint
/// through the library — and, for scripts with wire reads, the same
/// through `Service`.
struct Reads {
    seeds: [String; 2],
    requests: Vec<(String, Request)>,
}

impl Reads {
    fn new(seeds: [&str; 2], wire: bool) -> Reads {
        let [a, b] = seeds;
        let lines = [
            format!(r#"{{"op":"rank","seeds":["{a}","{b}"],"k_features":8,"k_entities":8}}"#),
            format!(r#"{{"op":"expand","seeds":["{a}"],"type":"t0","k":8}}"#),
            format!(r#"{{"op":"heatmap","seeds":["{a}","{b}"],"k_features":6,"k_entities":6}}"#),
            format!(r#"{{"op":"search","query":"{a} L1 Alias2 t1","k":8}}"#),
        ];
        let requests = lines.into_iter().filter(|_| wire).map(|line| {
            let request = Request::parse(&line).expect("model requests parse");
            (line, request)
        });
        Reads {
            seeds: seeds.map(str::to_owned),
            requests: requests.collect(),
        }
    }

    /// The reads of a random case, seeded at two base entities.
    fn universe(a: u8, b: u8) -> Reads {
        Reads::new([&format!("e{a}"), &format!("e{b}")], true)
    }
}

/// Everything the library renders for one query, scores as bits.
#[derive(Debug, PartialEq)]
struct Answers {
    features: Vec<(SemanticFeature, u64)>,
    entities: Vec<(EntityId, u64)>,
    heat: Vec<(u8, u64)>,
    profiles: Vec<EntityProfile>,
}

fn answers(handle: &GraphHandle<'_>, reads: &Reads) -> Answers {
    let mut seeds: Vec<EntityId> = reads
        .seeds
        .iter()
        .map(|name| handle.entity(name).expect("seeds name base entities"))
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    let expander = Expander::with_handle(handle.clone(), RankingConfig::default());
    let res = expander.expand(&SfQuery::from_seeds(seeds), 15, 10);
    let axis: Vec<EntityId> = res.entities.iter().map(|re| re.entity).collect();
    let hm = HeatMap::compute(expander.ranker(), &axis, &res.features);
    let cells = (0..hm.height()).flat_map(|row| (0..hm.width()).map(move |col| (row, col)));
    Answers {
        features: res
            .features
            .iter()
            .map(|rf| (rf.feature, rf.score.to_bits()))
            .collect(),
        entities: res
            .entities
            .iter()
            .map(|re| (re.entity, re.score.to_bits()))
            .collect(),
        heat: cells
            .map(|(row, col)| (hm.level(row, col), hm.value(row, col).to_bits()))
            .collect(),
        profiles: (reads.seeds.iter().cloned())
            .chain((10..16).map(|i| format!("e{i}")))
            .filter_map(|name| handle.entity(&name))
            .map(|e| build_profile(expander.ranker(), e, 8))
            .collect(),
    }
}

/// A rendered reply without its `"generation":N,` field — the one field
/// a freshly built reference store cannot share with the leader.
fn strip_generation(mut line: String) -> String {
    if let Some(at) = line.find("\"generation\":") {
        let end = line[at..].find(',').map_or(line.len(), |i| at + i + 1);
        line.replace_range(at..end, "");
    }
    line
}

/// The reference at one prefix of the writes.
struct Reference {
    answers: Answers,
    wire: Vec<String>,
    ntriples: String,
    fingerprint: u64,
}

/// The base plus every batch a script writes, rebuilt from scratch for
/// each prefix on first use.
struct Oracle {
    base: Vec<DeltaOp>,
    batches: Vec<DeltaBatch>,
    reads: Reads,
    states: RefCell<HashMap<usize, Rc<Reference>>>,
}

impl Oracle {
    fn new(base: &KnowledgeGraph, script: &[Op], reads: Reads) -> Oracle {
        let batches = script
            .iter()
            .flat_map(|op| match op {
                Op::Write(batches) => batches.clone(),
                Op::Crash(Crash::Unapplied(batch)) => vec![batch.clone()],
                _ => Vec::new(),
            })
            .collect();
        Oracle {
            base: graph_script(base),
            batches,
            reads,
            states: RefCell::new(HashMap::new()),
        }
    }

    /// The reference after the first `written` batches.
    fn at(&self, written: usize) -> Rc<Reference> {
        if let Some(state) = self.states.borrow().get(&written) {
            return Rc::clone(state);
        }
        let mut ops = self.base.clone();
        for batch in &self.batches[..written] {
            ops.extend_from_slice(batch.ops());
        }
        let graph = rebuild(&ops);
        let fresh = ShardedGraph::from(graph.clone());
        let store = Arc::new(LiveStore::with_threads(graph.clone(), 1));
        let wire = serve(&store, &self.reads).map_or_else(Vec::new, |service| {
            let snap = service.snapshot();
            (self.reads.requests.iter())
                .map(|(_, request)| strip_generation(service.compute(&snap, request).render()))
                .collect()
        });
        let state = Rc::new(Reference {
            answers: answers(&GraphHandle::with_threads(&fresh, 1), &self.reads),
            wire,
            ntriples: ntriples::serialize(&graph),
            fingerprint: fingerprint(&graph),
        });
        self.states.borrow_mut().insert(written, Rc::clone(&state));
        state
    }
}

/// What a run did that a fixed script may want to count.
#[derive(Debug, Default, Clone, Copy)]
struct Summary {
    /// Compaction passes that re-partitioned (idle ones excluded).
    compactions: u64,
    /// Log records the follower applied.
    shipped: usize,
}

/// Serve `store`'s published snapshots through a [`Service`] — or, for
/// reads without wire requests, publish them without one, sparing the
/// background index builds.
fn serve(store: &Arc<LiveStore>, reads: &Reads) -> Option<Service> {
    store.enable_snapshots();
    (!reads.requests.is_empty()).then(|| Service::new(Arc::clone(store), false))
}

/// One layout of one run: the leader, its service, its follower and the
/// snapshots pinned so far.
struct Layout<'o> {
    oracle: &'o Oracle,
    threads: usize,
    wal: PathBuf,
    /// The leader's starting partition — what recovery starts from.
    base: ShardedGraph,
    service: Option<Service>,
    leader: Arc<LiveStore>,
    follower: ReplicaStore,
    /// Batches the leader has applied.
    written: usize,
    /// Batches applied as of each log generation (index = generation).
    logged: Vec<usize>,
    pins: Vec<(Arc<PreparedSnapshot>, usize)>,
    summary: Summary,
}

impl Drop for Layout<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.wal);
    }
}

impl<'o> Layout<'o> {
    fn new(oracle: &'o Oracle, base_kg: &KnowledgeGraph, shards: usize, threads: usize) -> Self {
        let base = if shards == 1 {
            ShardedGraph::from(base_kg.clone())
        } else {
            ShardedGraph::from_graph(base_kg, shards)
        };
        let (pid, thread) = (std::process::id(), std::thread::current().id());
        let wal = std::env::temp_dir().join(format!("pivote_model_{pid}_{thread:?}.wal"));
        let leader = Arc::new(LiveStore::with_threads(base.clone(), threads));
        leader.log_to(&wal).expect("leader logs");
        let follower = ReplicaStore::open(base_kg.clone(), threads, &wal).expect("follower opens");
        Layout {
            oracle,
            threads,
            wal,
            base,
            service: serve(&leader, &oracle.reads),
            leader,
            follower,
            written: 0,
            logged: vec![0],
            pins: Vec::new(),
            summary: Summary::default(),
        }
    }

    fn service(&self) -> &Service {
        self.service.as_ref().expect("wire reads are served")
    }

    fn wal_generation(&self) -> u64 {
        self.leader.wal_generation().expect("the leader logs")
    }

    /// Map every log record written since the last call to the current
    /// prefix of the writes.
    fn log_through(&mut self) {
        while self.logged.len() as u64 <= self.wal_generation() {
            self.logged.push(self.written);
        }
    }

    /// `(shards, trailing shards, tombstones)` of the leader.
    fn shape(&self) -> (usize, usize, usize) {
        let reader = self.leader.read();
        let b = reader.backend();
        (
            b.shard_count(),
            b.trailing_shard_count(),
            b.tombstone_count(),
        )
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Write(batches) => {
                for batch in batches {
                    self.leader.append(batch).expect("leader healthy");
                    self.written += 1;
                    self.log_through();
                }
            }
            Op::Compact(target) => {
                let (before, generation) = (self.shape(), self.leader.generation());
                let warm = self.leader.cache().cached_probability_count();
                let receipt = (self.leader.compact_concurrent(*target)).expect("leader healthy");
                if before == (1, 0, 0) {
                    // an idle one-shard store compacts to itself
                    assert_eq!((receipt.shards_after, receipt.generation), (1, generation));
                } else {
                    // one attempt (nothing races it), a fresh partition
                    // without a tail or a tombstone, every density kept
                    let after = (receipt.attempts, receipt.generation, self.shape());
                    assert_eq!(after, (1, generation + 1, (*target, 0, 0)));
                    assert_eq!(self.leader.cache().cached_probability_count(), warm);
                    self.summary.compactions += 1;
                }
                self.log_through();
            }
            Op::Maintain => {
                let policy = CompactionPolicy {
                    max_trailing: 0,
                    max_tail_fraction: 1.0,
                    max_tombstone_fraction: 1.0,
                };
                let mut maintenance = MaintenanceHandle::spawn(
                    Arc::clone(&self.leader),
                    policy,
                    self.base.shard_count(),
                    Duration::from_millis(1),
                );
                let deadline = Instant::now() + Duration::from_secs(60);
                while self.leader.trailing_shard_count() > 0 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(2));
                }
                maintenance.stop();
                assert_eq!(
                    self.leader.trailing_shard_count(),
                    0,
                    "a tail outlived maintenance"
                );
                self.summary.compactions += maintenance.passes();
                self.log_through();
            }
            Op::Crash(how) => {
                // the log so far: based at the base, 1-based and gapless,
                // every delta record the very batch the leader applied
                let (header, records, _) = read_records(&self.wal).expect("log reads");
                let base = (header.base_generation, header.base_fingerprint);
                assert_eq!(base, (0, self.base.fingerprint()));
                for (record, g) in records.iter().zip(1..) {
                    assert_eq!(record.generation, g as u64, "log generations");
                    let written = self.logged[g];
                    let batches = &self.oracle.batches;
                    match &record.event {
                        WalEvent::Delta(batch) => assert!(*batch == batches[written - 1]),
                        WalEvent::Compact { .. } => assert_eq!(written, self.logged[g - 1]),
                    }
                }
                // all that survives a crash is the base and the log; the
                // old leader is dropped unused once its successor serves
                let mut logged = self.wal_generation();
                let complete = std::fs::metadata(&self.wal).expect("log").len();
                let torn = matches!(how, Crash::TornTail);
                match how {
                    Crash::Clean => {}
                    Crash::TornTail => {
                        let mut log = OpenOptions::new().append(true).open(&self.wal);
                        let log = log.as_mut().expect("log opens");
                        log.write_all(&[0x2a; 9]).expect("torn tail lands");
                    }
                    Crash::Unapplied(batch) => {
                        let (mut writer, _) = WalWriter::resume(&self.wal).expect("log resumes");
                        let event = WalEvent::Delta(batch.clone());
                        logged = writer.append_event(event).expect("batch logged");
                        self.written += 1;
                    }
                }
                let report =
                    recover(self.base.clone(), self.threads, &self.wal).expect("leader recovers");
                // the whole log replays; a torn tail is reported, not
                // applied, and the resuming writer drops exactly its bytes
                let (writer, truncated) = WalWriter::resume(&self.wal).expect("log resumes");
                let size = std::fs::metadata(&self.wal).expect("log").len();
                let got = (report.synced_generation, report.truncated_tail, truncated);
                assert_eq!(got, (logged, torn, torn));
                assert!(!torn || size == complete, "resume left torn bytes behind");
                report.store.attach_wal(writer).expect("log re-attaches");
                self.service = serve(&report.store, &self.oracle.reads);
                self.leader = report.store;
                self.log_through();
            }
            Op::Restart => {
                let cursor = self.follower.synced_generation();
                let store = Arc::clone(self.follower.store());
                self.follower =
                    ReplicaStore::attach(store, &self.wal, cursor).expect("follower re-attaches");
            }
            Op::Sync(steps) => {
                let mut applied = 0;
                while applied < *steps && self.follower.poll_step().expect("follower applies") {
                    applied += 1;
                }
                self.summary.shipped += applied;
                if *steps == usize::MAX {
                    // caught up, and fingerprint-equal to the leader
                    let fp = |store: &LiveStore| store.read().backend().fingerprint();
                    let got = (self.follower.synced_generation(), fp(self.follower.store()));
                    assert_eq!(got, (self.wal_generation(), fp(&self.leader)));
                }
            }
            Op::Pin => {
                let snap = self.leader.snapshot().expect("the service publishes");
                self.pins.push((snap, self.written));
            }
            Op::Read => {
                let want = self.oracle.at(self.written);
                for ((line, _), want) in self.oracle.reads.requests.iter().zip(&want.wire) {
                    for _ in 0..2 {
                        let got = strip_generation(self.service().call(line));
                        assert_eq!(&got, want, "Service::call {line}");
                    }
                }
            }
        }
    }

    /// Every observer against the reference.
    fn observe(&self) {
        let reads = &self.oracle.reads;
        let want = self.oracle.at(self.written);

        let snap = self.leader.snapshot().expect("the service publishes");
        assert_eq!(snap.generation(), self.leader.generation(), "stale");
        assert_eq!(answers(&snap.handle(), reads), want.answers, "published");
        for ((line, request), want) in reads.requests.iter().zip(&want.wire) {
            let got = strip_generation(self.service().compute(&snap, request).render());
            assert_eq!(&got, want, "Service::compute {line}");
        }

        let reader = self.leader.read();
        let fresh = GraphHandle::with_threads(reader.backend(), self.threads);
        assert_eq!(answers(&fresh, reads), want.answers, "lock path");
        let graph = reader.backend().to_graph();
        assert_eq!(fingerprint(&graph), want.fingerprint, "leader fingerprint");
        let statements = ntriples::serialize(&graph);
        assert!(statements == want.ntriples, "leader statements");
        drop(reader);

        let synced = self.follower.synced_generation();
        let at = self.oracle.at(self.logged[synced as usize]);
        let reader = self.follower.store().read();
        let follower = reader.backend().fingerprint();
        assert_eq!(follower, at.fingerprint, "follower at {synced}");
        assert_eq!(answers(&reader.handle(), reads), at.answers, "follower");

        for (pin, written) in &self.pins {
            let at = self.oracle.at(*written);
            assert_eq!(answers(&pin.handle(), reads), at.answers, "pinned snapshot");
        }
    }
}

/// Run `script` from `base` at every shard count × each of `threads`,
/// checking every observer after every op; hands back the reference and
/// each run's [`Summary`] by shard count. A failure names the case, the
/// layout, the op and the script prefix, then re-raises.
fn check_script(
    label: &str,
    threads: &[usize],
    base: &KnowledgeGraph,
    script: &[Op],
    reads: Reads,
) -> (Oracle, Vec<(usize, Summary)>) {
    let oracle = Oracle::new(base, script, reads);
    let mut summaries = Vec::new();
    for (shards, &threads) in SHARD_COUNTS
        .into_iter()
        .flat_map(|s| threads.iter().map(move |t| (s, t)))
    {
        let failed_at = Cell::new(None);
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut layout = Layout::new(&oracle, base, shards, threads);
            layout.observe();
            for (i, op) in script.iter().enumerate() {
                failed_at.set(Some(i));
                layout.apply(op);
                layout.observe();
            }
            layout.summary
        }));
        match run {
            Ok(summary) => summaries.push((shards, summary)),
            Err(panic) => {
                let (at, prefix) = match failed_at.get() {
                    Some(i) => (format!("op {i}"), &script[..=i]),
                    None => ("the base".to_owned(), &script[..0]),
                };
                eprintln!(
                    "{label}: failed at {at} on shards={shards} threads={threads}; \
                     script prefix:\n{prefix:#?}"
                );
                std::panic::resume_unwind(panic);
            }
        }
    }
    (oracle, summaries)
}

/// A random case: its label, base graph, reads and script.
fn case(index: usize) -> (String, KnowledgeGraph, Reads, Vec<Op>) {
    let label = format!("equivalence::model case #{index}");
    let mut rng = TestRng::from_name(&label);
    let draws = collection::vec(draw(), 4..30).generate(&mut rng);
    // every base entity declared (draw kind 6), then the drawn statements
    let declared = (0..BASE[0]).map(|i| (6, i, 0, 0));
    let mut base = DeltaBatch::new();
    declared
        .chain(draws.iter().copied())
        .for_each(|x| insert(&mut base, BASE, x));
    let (a, b) = (0u8..BASE[0], 0u8..BASE[0]).generate(&mut rng);
    let script = collection::vec(op(draws), 1..13).generate(&mut rng);
    (label, rebuild(base.ops()), Reads::universe(a, b), script)
}

#[test]
fn every_observer_equals_the_reference_after_every_op() {
    for index in 0..CASES {
        let (label, base, reads, script) = case(index);
        check_script(&label, &[1, 2], &base, &script, reads);
    }
}

/// `e0`–`e9` with a few edges, types and categories.
fn fixed_base() -> KnowledgeGraph {
    let mut d = DeltaBatch::new();
    for i in 0..10 {
        d.entity(format!("e{i}"));
    }
    for (s, p, o) in [(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 2, 4), (5, 3, 0)] {
        d.triple(format!("e{s}"), format!("p{p}"), format!("e{o}"));
    }
    for (e, c) in [(0, 0), (1, 1), (2, 0)] {
        d.categorized(format!("e{e}"), format!("c{c}"));
    }
    for (e, t) in [(0, 0), (1, 1)] {
        d.typed(format!("e{e}"), format!("t{t}"));
    }
    rebuild(d.ops())
}

/// Three small batches on [`fixed_base`]: grow `e10`, retract two base
/// statements, label and alias `e10`.
fn grow_and_retract() -> [DeltaBatch; 3] {
    let mut batches = [(); 3].map(|_| DeltaBatch::new());
    batches[0]
        .triple("e0", "p0", "e10")
        .typed("e10", "t0")
        .literal("e10", "lp0", Literal::integer(7));
    batches[1]
        .retract_triple("e0", "p0", "e1")
        .retract_typed("e1", "t1");
    batches[2].label("e10", "Ten").redirect("TenAlias", "e10");
    batches
}

/// Run a fixed script on [`fixed_base`] at every layout; the follower
/// of every run must apply exactly `shipped` log records.
fn fixed(label: &str, script: &[Op], shipped: usize) {
    let (_, summaries) = check_script(label, &[1, 2], &fixed_base(), script, Reads::universe(0, 1));
    assert!(
        summaries.iter().all(|(_, s)| s.shipped == shipped),
        "{label}"
    );
}

/// Inserts, retracts, a compaction and a leader restart, the follower
/// synced after every step: four records ship on every layout (the
/// compaction of a one-shard store without a tail is a no-op that logs
/// nothing — but the retract leaves a tombstone, so it runs).
#[test]
fn golden_replication_script_is_exact() {
    let [d1, d2, d3] = grow_and_retract();
    let steps = [
        Op::Write(vec![d1]),
        Op::Write(vec![d2]),
        Op::Compact(2),
        Op::Crash(Crash::Clean),
        Op::Write(vec![d3]),
    ];
    let script: Vec<Op> = (steps.into_iter())
        .flat_map(|op| [op, Op::Sync(usize::MAX)])
        .collect();
    fixed("replication", &script, 4);
}

/// Every generation the store serves is published, and each pinned one
/// keeps answering from its own state after later writes and
/// compactions.
#[test]
fn golden_snapshot_script_is_exact() {
    let [d1, d2, _] = grow_and_retract();
    let script = [
        Op::Pin,
        Op::Write(vec![d1]),
        Op::Pin,
        Op::Compact(2),
        Op::Pin,
        Op::Write(vec![d2]),
        Op::Pin,
        Op::Compact(3),
        Op::Read,
    ];
    fixed("snapshot", &script, 0);
}

/// A follower that applied one of two records restarts: re-attached at
/// its cursor it skips the applied record and ships only the other.
#[test]
fn follower_restarting_mid_stream_resumes_idempotently() {
    let [d1, _, d3] = grow_and_retract();
    let script = [
        Op::Write(vec![d1, d3]),
        Op::Sync(1),
        Op::Restart,
        Op::Sync(usize::MAX),
    ];
    fixed("follower restart", &script, 2);
}

/// A crash mid-append leaves a torn tail: recovery reports it without
/// applying it, the resuming writer truncates exactly those bytes, and
/// the next write lands cleanly behind the replayed ones.
#[test]
fn torn_tail_record_is_invisible_to_readers_and_truncated_on_resume() {
    let [d1, d2, _] = grow_and_retract();
    let script = [
        Op::Write(vec![d1]),
        Op::Crash(Crash::TornTail),
        Op::Write(vec![d2]),
        Op::Sync(usize::MAX),
    ];
    fixed("torn tail", &script, 2);
}

/// A crash between logging a batch and applying it: the log is
/// authoritative, so recovery and the follower both apply the batch.
#[test]
fn leader_crash_between_log_write_and_apply_recovers_the_logged_batch() {
    let [d1, d2, _] = grow_and_retract();
    let script = [
        Op::Write(vec![d1]),
        Op::Crash(Crash::Unapplied(d2)),
        Op::Sync(usize::MAX),
    ];
    fixed("crash window", &script, 2);
}

/// A fixed mixed workload whose receipt counters and tombstone mass are
/// pinned exactly.
#[test]
fn golden_mixed_workload_is_exact() {
    let mut inserts = DeltaBatch::new();
    inserts
        .triple("e0", "p0", "e6")
        .typed("e6", "t0")
        .label("e6", "Six")
        .literal("e6", "lp0", Literal::integer(7))
        .literal("e6", "lp0", Literal::integer(7))
        .redirect("Sixx", "e6");
    let mut retracts = DeltaBatch::new();
    retracts
        .retract_triple("e0", "p0", "e1")
        .retract_typed("e1", "t1")
        .retract_categorized("e2", "c0")
        .retract_literal("e6", "lp0", Literal::integer(7))
        .retract_label("e6", "Six")
        .retract_alias("Sixx", "e6")
        .retract_triple("e9", "p0", "e9"); // never stored
    for shards in SHARD_COUNTS {
        let store = LiveStore::with_threads(ShardedGraph::from_graph(&fixed_base(), shards), 1);
        let r1 = store.append(&inserts).expect("store healthy");
        assert_eq!((r1.added_relations, r1.added_literals), (1, 2));
        let r2 = store.append(&retracts).expect("store healthy");
        // one stored triple; both copies of the literal; type, category,
        // label and alias
        let removed = (
            r2.removed_relations,
            r2.removed_literals,
            r2.removed_assertions,
        );
        assert_eq!(removed, (1, 2, 4));
        assert!(store.read().backend().tombstone_count() > 0);
    }
    let script = [Op::Write(vec![inserts, retracts]), Op::Compact(1)];
    fixed("mixed workload", &script, 0);
}

/// Every way the stack constructs a graph — append, background
/// maintenance, compaction, a follower replaying the log, published
/// snapshots, churn retracted again and reclaimed — as fixed scripts on
/// `DatagenConfig::small()`, each ending on the generated graph: the
/// driver proves every observer equals the reference at every shard
/// count, and the reference equals `generate` — by fingerprint, or for
/// the churn route, whose dictionaries keep the churn-only names, by its
/// statements and answers.
#[test]
fn every_construction_route_reproduces_the_generated_graph() {
    let kg = generate(&DatagenConfig::small());
    let (base, batches) = split_growth(&kg, 0.6, 3);
    assert_eq!(batches.len(), 3);
    assert!(batches.iter().all(|b| !b.is_empty()));
    // one context thread and library reads only: threads and wire ≡
    // library are the random scripts' to prove
    let seeds = [0, 1].map(|i| kg.entity_name(EntityId::new(i)));
    let reads = || Reads::new(seeds, false);
    let route = |label: &str, base: &KnowledgeGraph, script: &[Op]| {
        check_script(label, &[1], base, script, reads())
    };

    // the routes share nothing, so they run side by side
    std::thread::scope(|scope| {
        // the trailing half of the entity triples, spliced back
        scope.spawn(|| {
            let (half, delta) = split_incremental(&kg, 0.5);
            let (oracle, _) = route("append route", &half, &[Op::Write(vec![delta])]);
            assert_eq!(oracle.at(1).fingerprint, fingerprint(&kg));
        });

        // maintenance absorbs the first batch's trailing shard, a
        // compaction the other two, and a follower replays the log
        scope.spawn(|| {
            let growth = [
                Op::Pin,
                Op::Write(batches[..1].to_vec()),
                Op::Maintain,
                Op::Pin,
                Op::Write(batches[1..].to_vec()),
                Op::Compact(2),
                Op::Sync(usize::MAX),
            ];
            let (oracle, summaries) = route("growth routes", &base, &growth);
            assert_eq!(oracle.at(batches.len()).fingerprint, fingerprint(&kg));
            for (shards, summary) in summaries {
                // a one-shard store splices minted entities in place,
                // leaving both passes nothing to do
                let passes = summary.compactions;
                assert!(shards == 1 && passes == 0 || shards > 1 && passes >= 2);
                assert_eq!(summary.shipped as u64, batches.len() as u64 + passes);
            }
        });

        // each growth batch followed by noise on old entities under names
        // no real statement uses, retracted again; then a reclaim
        let mut churn = Vec::new();
        for batch in &batches {
            let (mut noise, mut undo) = (DeltaBatch::new(), DeltaBatch::new());
            for i in 0..32u32 {
                let s = kg.entity_name(EntityId::new(i)).to_owned();
                let o = kg.entity_name(EntityId::new((i + 7) % 32)).to_owned();
                noise.triple(&s, "churn_leg", &o).typed(&s, "Churn_Type");
                undo.retract_triple(&s, "churn_leg", &o)
                    .retract_typed(&s, "Churn_Type");
            }
            churn.push(Op::Write(vec![batch.clone(), noise, undo]));
        }
        churn.push(Op::Compact(1));
        let (oracle, summaries) = route("churn route", &base, &churn);
        // every run held tombstones to reclaim
        assert!(summaries.iter().all(|(_, s)| s.compactions == 1));
        let churned = oracle.at(3 * batches.len());
        assert!(churned.ntriples == ntriples::serialize(&kg));
        let generated = ShardedGraph::from(kg.clone());
        let generated = answers(&GraphHandle::with_threads(&generated, 1), &oracle.reads);
        assert_eq!(churned.answers, generated);
    });
}

/// Readers hammer a grown store while a concurrent compactor rebuilds
/// off-lock and swaps: every reader sees the old or the new generation,
/// never a torn view, and — compaction being answer-preserving — the
/// reference's answers on either side of the swap.
#[test]
fn compaction_racing_queries_never_tears() {
    let base = fixed_base();
    // four batches each minting one entity wired to `e0`
    let mint = |i| {
        let mut d = DeltaBatch::new();
        insert(&mut d, ALL, (0, i, 0, 0));
        d
    };
    let minting: Vec<DeltaBatch> = (10..14).map(mint).collect();
    let oracle = Oracle::new(&base, &[Op::Write(minting.clone())], Reads::universe(0, 1));
    let (want, reads) = (&oracle.at(minting.len()).answers, &oracle.reads);

    let live = LiveStore::with_threads(ShardedGraph::from_graph(&base, 2), 1);
    let live = Arc::new(live);
    for batch in &minting {
        live.append(batch).expect("store healthy");
    }
    assert_eq!(live.shard_count(), 6, "each batch minted a trailing shard");
    let before = live.generation();

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let live = Arc::clone(&live);
            scope.spawn(move || {
                for _ in 0..10 {
                    let reader = live.read();
                    assert!([before, before + 1].contains(&reader.generation()));
                    assert_eq!(&answers(&reader.handle(), reads), want, "a reader tore");
                }
            });
        }
        let live = Arc::clone(&live);
        scope.spawn(move || {
            let receipt = live.compact_concurrent(2).expect("store healthy");
            assert_eq!((receipt.shards_before, receipt.trailing_before), (6, 4));
        });
    });

    assert_eq!((live.generation(), live.shard_count()), (before + 1, 2));
    assert_eq!(&answers(&live.read().handle(), reads), want, "post-swap");
}

/// Appends racing `compact_concurrent`: the hook fires between each
/// attempt's off-lock rebuild and its swap, where (a) a query completes
/// against the pre-swap generation without waiting — the hook runs on
/// the compactor's thread, so a rebuild holding either lock would
/// deadlock this probe's read guard and the injected append's write
/// guard — and (b) an injected append makes the first rebuild lose and
/// retry. Answers equal the reference on both sides of the swap. (Why
/// the off-lock pass exists: at 16k films with 32 trailing shards a
/// query blocked 1247 ms behind the stop-the-world pass and 0.004 ms
/// behind this one.)
#[test]
fn prop_appends_racing_concurrent_compaction() {
    for index in 0..8 {
        let (_, base, reads, _) = case(index);
        let mut rng = TestRng::from_name(&format!("equivalence::race #{index}"));
        let mut minting = || {
            let mut d = DeltaBatch::new();
            for (k, a, b, c) in collection::vec(draw(), 1..12).generate(&mut rng) {
                insert(&mut d, ALL, (k, 10 + a % 6, b, c));
            }
            d
        };
        let (d1, d2) = (minting(), minting());
        let oracle = Oracle::new(&base, &[Op::Write(vec![d1.clone(), d2.clone()])], reads);
        let want = [oracle.at(1), oracle.at(2)];

        let live = LiveStore::with_threads(ShardedGraph::from_graph(&base, 2), 1);
        live.append(&d1).expect("store healthy");
        let mut hook_calls = 0;
        let receipt = live.compact_concurrent_hooked(2, |base_generation| {
            let reader = live.read();
            assert_eq!(reader.generation(), base_generation, "probe lands pre-swap");
            let got = answers(&reader.handle(), &oracle.reads);
            assert_eq!(got, want[hook_calls.min(1)].answers);
            drop(reader);
            if hook_calls == 0 {
                live.append(&d2).expect("store healthy");
            }
            hook_calls += 1;
        });
        let receipt = receipt.expect("store healthy");
        // the losing rebuild retried; 2 appends + 1 winning compaction
        assert_eq!((receipt.attempts, hook_calls), (2, 2));
        assert_eq!((receipt.shards_after, live.shard_count()), (2, 2));
        assert_eq!(live.generation(), 3);
        let got = answers(&live.read().handle(), &oracle.reads);
        assert_eq!(got, want[1].answers);
    }
}

/// A writer panicking mid-append poisons the store: later writes are
/// refused with a typed error instead of panicking their own threads,
/// while reads recover the lock and keep answering the last consistent
/// state — the reference with both batches applied, since the poisoning
/// append finished its splice before the panic.
#[test]
fn panicked_append_fails_writes_closed_and_keeps_reads_up() {
    let base = fixed_base();
    let [d1, d2, refused] = grow_and_retract();
    let script = [Op::Write(vec![d1.clone(), d2.clone()])];
    let want = Oracle::new(&base, &script, Reads::universe(0, 1)).at(2);
    let live = LiveStore::with_threads(ShardedGraph::from_graph(&base, 2), 1);
    let live = Arc::new(live);
    live.append(&d1).expect("store still healthy");

    let injected = {
        let live = Arc::clone(&live);
        std::thread::spawn(move || {
            let _ = live.append_hooked(&d2, |_| panic!("injected writer crash"));
        })
        .join()
    };
    assert!(injected.is_err(), "the injected panic propagates");
    assert!(live.is_poisoned(), "the writer died holding the lock");

    // writes fail closed, maintenance declines
    assert_eq!(live.append(&refused).unwrap_err(), StoreError::Poisoned);
    let compaction = live.compact_concurrent(2).unwrap_err();
    assert_eq!(compaction, StoreError::Poisoned);
    let policy = CompactionPolicy {
        max_trailing: 0,
        max_tail_fraction: 0.0,
        max_tombstone_fraction: 0.0,
    };
    assert!(live.maybe_compact(&policy, 2).is_none());

    assert_eq!(live.generation(), 2, "healthy append + poisoning append");
    let reader = live.read();
    assert_eq!(reader.backend().fingerprint(), want.fingerprint);
    let got = answers(&reader.handle(), &Reads::universe(0, 1));
    assert_eq!(got, want.answers);
}
