//! Seeded inputs: the graph dump and every request stream. `--seed` is
//! the only input; the server only ever sees what is generated here.

use pivote_kg::{
    generate, parse_into_delta, parse_removed_into_delta, schema, serialize, DatagenConfig,
    DeltaBatch, Zipf,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashSet};

/// One generated graph and the names request streams are drawn from.
pub struct Inputs {
    /// The graph as the N-Triples dump the server loads.
    pub dump: String,
    pub entities: usize,
    pub triples: usize,
    /// Names of the `Film` entities, in id order.
    pub films: Vec<String>,
    /// Names of the `Actor` entities, in id order.
    pub actors: Vec<String>,
    /// Distinct lower-cased label words that are not stopwords, sorted:
    /// the search vocabulary.
    pub words: Vec<String>,
}

/// Generate `DatagenConfig::scaled(films, seed)` and dump it.
pub fn inputs(films: usize, seed: u64) -> Inputs {
    let kg = generate(&DatagenConfig::scaled(films, seed));
    let names_of = |type_name: &str| -> Vec<String> {
        let t = kg.type_id(type_name).expect("datagen declares the type");
        kg.type_extent(t)
            .iter()
            .map(|&e| kg.entity_name(e).to_owned())
            .collect()
    };
    let mut words = BTreeSet::new();
    for e in kg.entity_ids() {
        for word in kg.label(e).unwrap_or("").split_whitespace() {
            let word = word.to_ascii_lowercase();
            if word.len() >= 3
                && word.chars().all(|c| c.is_ascii_alphabetic())
                && !pivote_text::is_stopword(&word)
            {
                words.insert(word);
            }
        }
    }
    Inputs {
        dump: serialize(&kg),
        entities: kg.entity_count(),
        triples: kg.triple_count(),
        films: names_of("Film"),
        actors: names_of("Actor"),
        words: words.into_iter().collect(),
    }
}

/// The four read ops of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOp {
    Rank,
    Search,
    Expand,
    Heatmap,
}

impl ReadOp {
    pub const ALL: [ReadOp; 4] = [
        ReadOp::Rank,
        ReadOp::Search,
        ReadOp::Expand,
        ReadOp::Heatmap,
    ];

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One read request as it goes on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadReq {
    pub op: ReadOp,
    pub line: String,
}

/// The exploration mix every workload reads with: of `n` requests, 50 %
/// `rank`, 25 % `search`, 15 % `expand`, 10 % `heatmap`.
pub fn mix_counts(n: usize) -> [usize; 4] {
    let search = n / 4;
    let expand = n * 15 / 100;
    let heatmap = n / 10;
    [n - search - expand - heatmap, search, expand, heatmap]
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&serde::Value::Str(s.to_owned())).expect("a string serializes")
}

/// `counts[op]` pairwise-distinct requests per op, shuffled together.
/// Seed sets are 1–3 films drawn without replacement; search queries
/// are distinct ordered pairs of vocabulary words.
pub fn read_pool(inputs: &Inputs, seed: u64, counts: [usize; 4]) -> Vec<ReadReq> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7265_6164);
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(counts.iter().sum());
    for op in ReadOp::ALL {
        let mut made = 0;
        while made < counts[op.index()] {
            let line = match op {
                ReadOp::Search => {
                    let a = inputs.words.choose(&mut rng).expect("labels have words");
                    let b = inputs.words.choose(&mut rng).expect("labels have words");
                    format!(r#"{{"op":"search","query":"{a} {b}","k":10}}"#)
                }
                _ => {
                    let mut seeds: Vec<&str> = Vec::new();
                    let want = rng.gen_range(1..=3usize).min(inputs.films.len());
                    while seeds.len() < want {
                        let film = inputs.films.choose(&mut rng).expect("graph has films");
                        if !seeds.contains(&film.as_str()) {
                            seeds.push(film);
                        }
                    }
                    let seeds: Vec<String> = seeds.into_iter().map(json_str).collect();
                    let seeds = seeds.join(",");
                    match op {
                        ReadOp::Rank => format!(
                            r#"{{"op":"rank","seeds":[{seeds}],"k_features":10,"k_entities":10}}"#
                        ),
                        ReadOp::Expand => {
                            format!(r#"{{"op":"expand","seeds":[{seeds}],"type":"Film","k":10}}"#)
                        }
                        _ => format!(
                            r#"{{"op":"heatmap","seeds":[{seeds}],"k_features":10,"k_entities":10}}"#
                        ),
                    }
                }
            };
            if seen.insert(line.clone()) {
                pool.push(ReadReq { op, line });
                made += 1;
            }
        }
    }
    pool.shuffle(&mut rng);
    pool
}

/// A popularity-skewed draw over a small pool: session `session` asks for
/// `pool[next()]` with Zipf(1.05) ranks.
pub struct ZipfDraw {
    zipf: Zipf,
    rng: StdRng,
}

impl ZipfDraw {
    pub fn new(pool_len: usize, seed: u64, session: usize) -> Self {
        ZipfDraw {
            zipf: Zipf::new(pool_len, 1.05),
            rng: StdRng::seed_from_u64(seed ^ 0x686f_7400 ^ ((session as u64) << 32)),
        }
    }

    pub fn next(&mut self) -> usize {
        self.zipf.sample(&mut self.rng)
    }
}

/// What a write does to the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Append one edge between existing entities.
    Edge,
    /// Append a new film with three cast edges.
    Film,
    /// Retract an edge an earlier write of this stream appended.
    Retract,
}

/// One write request: the wire line and the N-Triples body inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteReq {
    pub kind: WriteKind,
    pub line: String,
    pub body: String,
}

impl WriteReq {
    /// The body as the delta the server applies for it.
    pub fn delta(&self) -> Result<DeltaBatch, String> {
        let parsed = if self.kind == WriteKind::Retract {
            parse_removed_into_delta(&self.body)
        } else {
            parse_into_delta(&self.body)
        };
        parsed.map_err(|e| format!("write body line {}: {}", e.line, e.message))
    }
}

/// `n` writes in the dice-group insert/delete shape: 70 % single-edge
/// appends between existing entities, 20 % appends minting a new film
/// with three cast edges, 10 % retracts of an earlier single-edge append
/// — exact shares in a seeded order, not per-write dice, so every seed
/// mints the same number of films (each one a new trailing shard that
/// every later read pays for). Every edge is new to the graph when appended (an `award` edge from a
/// film to an actor — the generator never makes one) and every retract
/// names an edge still present, so no write fails or is a no-op.
pub fn write_stream(inputs: &Inputs, seed: u64, n: usize) -> Vec<WriteReq> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7772_6974);
    let res = |name: &str| format!("<{}{}>", schema::NS_RESOURCE, name);
    let onto = |name: &str| format!("<{}{}>", schema::NS_ONTOLOGY, name);
    let mut live_edges: Vec<String> = Vec::new();
    let mut ever: HashSet<String> = HashSet::new();
    let (retracts, films) = (n / 10, n / 5);
    let mut kinds = vec![WriteKind::Edge; n];
    kinds[..retracts].fill(WriteKind::Retract);
    kinds[retracts..retracts + films].fill(WriteKind::Film);
    kinds.shuffle(&mut rng);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        if kinds[i] == WriteKind::Retract && live_edges.is_empty() {
            // nothing to retract yet: trade places with the next append
            let later = (i..n).find(|&j| kinds[j] == WriteKind::Edge);
            kinds.swap(i, later.expect("appends outnumber retracts seven to one"));
        }
        let kind = kinds[i];
        let body = match kind {
            WriteKind::Retract => live_edges.swap_remove(rng.gen_range(0..live_edges.len())),
            WriteKind::Film => {
                let film = res(&format!("Benchmark_Film_{i}"));
                let mut body = format!("{film} <{}> {} .", schema::RDF_TYPE, onto("Film"));
                let mut cast: Vec<&String> = Vec::new();
                while cast.len() < 3 {
                    let actor = inputs.actors.choose(&mut rng).expect("graph has actors");
                    if !cast.contains(&actor) {
                        cast.push(actor);
                    }
                }
                for actor in cast {
                    body.push_str(&format!("\n{film} {} {} .", onto("starring"), res(actor)));
                }
                body
            }
            WriteKind::Edge => loop {
                let film = inputs.films.choose(&mut rng).expect("graph has films");
                let actor = inputs.actors.choose(&mut rng).expect("graph has actors");
                let edge = format!("{} {} {} .", res(film), onto("award"), res(actor));
                if ever.insert(edge.clone()) {
                    live_edges.push(edge.clone());
                    break edge;
                }
            },
        };
        let op = if kind == WriteKind::Retract {
            "retract"
        } else {
            "append"
        };
        out.push(WriteReq {
            kind,
            line: format!(r#"{{"op":"{op}","ntriples":{}}}"#, json_str(&body)),
            body,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_is_the_only_input() {
        let a = inputs(40, 3);
        let b = inputs(40, 3);
        assert_eq!(a.dump, b.dump);
        let reads = |i: &Inputs, seed| read_pool(i, seed, mix_counts(200));
        assert_eq!(reads(&a, 3), reads(&b, 3));
        assert_ne!(reads(&a, 3), reads(&a, 4));
        assert_eq!(write_stream(&a, 3, 100), write_stream(&b, 3, 100));
        assert_ne!(inputs(40, 4).dump, a.dump);
        let draw = |session| {
            let mut z = ZipfDraw::new(64, 3, session);
            (0..100).map(|_| z.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(0), draw(0));
        assert_ne!(draw(0), draw(1));
    }

    #[test]
    fn a_pool_is_distinct_and_has_the_mix() {
        let i = inputs(40, 1);
        let counts = mix_counts(200);
        assert_eq!(counts, [100, 50, 30, 20]);
        let pool = read_pool(&i, 1, counts);
        let lines: HashSet<&str> = pool.iter().map(|r| r.line.as_str()).collect();
        assert_eq!(lines.len(), 200);
        for op in ReadOp::ALL {
            let n = pool.iter().filter(|r| r.op == op).count();
            assert_eq!(n, counts[op.index()]);
        }
        for r in &pool {
            let parsed = pivote_serve::Request::parse(&r.line).expect("the server parses it");
            assert!(parsed.is_deterministic_read());
        }
    }

    #[test]
    fn writes_parse_and_retract_only_what_is_there() {
        let i = inputs(40, 1);
        let stream = write_stream(&i, 1, 300);
        let mut live: HashSet<&str> = HashSet::new();
        for w in &stream {
            let parsed = pivote_serve::Request::parse(&w.line).expect("the server parses it");
            match (&parsed, w.kind) {
                (pivote_serve::Request::Retract { ntriples }, WriteKind::Retract) => {
                    assert_eq!(ntriples, &w.body);
                    assert!(live.remove(w.body.as_str()), "retracts a live edge");
                }
                (pivote_serve::Request::Append { ntriples }, WriteKind::Edge) => {
                    assert_eq!(ntriples, &w.body);
                    assert!(live.insert(w.body.as_str()), "appends a new edge");
                }
                (pivote_serve::Request::Append { .. }, WriteKind::Film) => {
                    assert_eq!(w.body.lines().count(), 4);
                }
                other => panic!("kind and op disagree: {other:?}"),
            }
            w.delta().expect("the body is N-Triples");
        }
        let count = |k| stream.iter().filter(|w| w.kind == k).count();
        assert_eq!(
            [
                count(WriteKind::Edge),
                count(WriteKind::Film),
                count(WriteKind::Retract)
            ],
            [210, 60, 30]
        );
    }
}
