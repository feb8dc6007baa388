//! The serving layer end to end, over real TCP connections:
//!
//! - every read answers **byte-identically** to `Service::compute` on a
//!   second, in-process service over an identically built store (the
//!   network hop adds no drift — scores cross the wire as
//!   shortest-round-trip JSON numbers); `compute` itself is checked
//!   against the engines in `crates/pivote-serve/tests/service.rs`;
//! - protocol abuse (malformed JSON, unknown ops, bad N-Triples,
//!   clients hanging up mid-exchange) produces per-request error
//!   responses and never takes the server down;
//! - concurrent appends and ranked reads observe one serial generation
//!   order;
//! - a graceful shutdown persists the density cache, and a restart from
//!   the warm sidecar answers repeat queries with **zero** `p(π|c)`
//!   recomputes (pinned through the stats probe) — a logging leader
//!   included, whose sidecar matches only the replayed graph.

use pivote_core::{LiveStore, ReplicaHandle, ReplicaStore};
use pivote_kg::KnowledgeGraph;
use pivote_serve::{
    num_field, open_store, response_ok, scored_list, Client, Request, ServeConfig, Server, Service,
};
use std::sync::Arc;
use std::time::Duration;

fn sample() -> KnowledgeGraph {
    let nt = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/sample.nt"))
        .expect("bundled sample exists");
    pivote_kg::parse(&nt).expect("sample parses")
}

fn serve_sample() -> Server {
    let store = Arc::new(LiveStore::new(sample()));
    Server::bind("127.0.0.1:0", store, ServeConfig::default()).expect("bind ephemeral port")
}

#[test]
fn every_op_matches_the_library_bit_for_bit() {
    let server = serve_sample();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // the reference: a second service over an identically built store,
    // answering in-process through the function the workers run
    let reference = Service::new(Arc::new(LiveStore::new(sample())), false);
    let snap = reference.snapshot();
    for line in [
        r#"{"op":"rank","seeds":["Forrest_Gump"],"k_features":10,"k_entities":10}"#,
        r#"{"op":"rank","seeds":["Forrest_Gump","Tom_Hanks"],"k_features":3,"k_entities":7}"#,
        r#"{"op":"expand","seeds":["Forrest_Gump"],"k":10}"#,
        r#"{"op":"expand","seeds":["Forrest_Gump"],"type":"Film","k":5}"#,
        r#"{"op":"heatmap","seeds":["Forrest_Gump"],"k_features":10,"k_entities":10}"#,
        r#"{"op":"search","query":"forrest gump","k":10}"#,
        r#"{"op":"search","query":"tom hanks","k":10}"#,
        r#"{"op":"search","query":"film","k":10}"#,
        r#"{"op":"rank","seeds":["No_Such_Entity_Anywhere"]}"#,
    ] {
        let wire = client.request_raw(line).expect(line);
        let want = reference
            .compute(&snap, &Request::parse(line).expect(line))
            .render();
        assert_eq!(wire, want, "{line}");
        let answered = !line.contains("No_Such");
        assert_eq!(wire.starts_with(r#"{"ok":true"#), answered, "{wire}");
    }

    // stats reflects the fresh store
    let stats = client.stats().expect("stats");
    assert!(response_ok(&stats));
    assert_eq!(num_field(&stats, "generation"), Some(0));
    assert_eq!(num_field(&stats, "shard_count"), Some(1));
    assert_eq!(
        num_field(&stats, "entities"),
        Some(sample().entity_count() as u64)
    );
    // the whole shape, in order: every counter the benchmark harness
    // reads is numeric, and nothing reports which read path served —
    // there is one
    let serde::Value::Obj(fields) = &stats else {
        panic!("stats must be an object: {stats:?}");
    };
    let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            "ok",
            "generation",
            "shard_count",
            "trailing_shards",
            "entities",
            "cached_probabilities",
            "cache_generation",
            "poisoned",
            "read_only",
            "memo_hits",
            "memo_misses",
            "memo_entries",
        ]
    );
    for (name, value) in fields {
        let flag = matches!(name.as_str(), "ok" | "poisoned" | "read_only");
        let numeric = matches!(value, serde::Value::Num(_));
        assert_eq!(numeric, !flag, "{name}: {stats:?}");
    }
}

#[test]
fn bind_returns_only_once_a_search_can_be_answered() {
    // the listener is bound after generation 0's search engines are
    // attached, so no client ever waits in the backlog on the index build
    let server = serve_sample();
    let snap = server.store().snapshot().expect("bind publishes snapshots");
    assert!(snap.attached_search().is_some());
    assert!(Arc::ptr_eq(server.store(), server.service().store()));
}

#[test]
fn malformed_requests_answer_errors_and_keep_the_connection() {
    let server = serve_sample();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for bad in [
        "this is not json",
        r#"{"op":"no_such_op"}"#,
        r#"{"no_op_at_all":1}"#,
        r#"{"op":"rank","seeds":[]}"#,
        r#"{"op":"rank","seeds":["No_Such_Entity_Anywhere"]}"#,
        r#"{"op":"expand","seeds":["Forrest_Gump"],"type":"NoSuchType"}"#,
        r#"{"op":"search","query":"x","k":"ten"}"#,
        r#"{"op":"retract"}"#,
        r#"{"op":"retract","ntriples":"garbage"}"#,
        r#"{"op":"retract","ntriples":7}"#,
    ] {
        let v = client.request(bad).expect(bad);
        assert!(!response_ok(&v), "{bad} must be refused: {v:?}");
        assert!(
            matches!(v.field_opt("error"), serde::Value::Str(_)),
            "{bad} must carry an error message"
        );
    }

    // a bad N-Triples body reports the 1-based line inside the body
    let v = client
        .append("<http://a> <http://p> <http://b> .\nnot a triple\n")
        .expect("append");
    assert!(!response_ok(&v));
    assert_eq!(num_field(&v, "line"), Some(2), "{v:?}");

    // absurd k values are refused at the protocol edge: counts arrive
    // as JSON doubles, and without the ceiling `1e18` saturates `as
    // usize` into a near-usize::MAX top-k budget
    for huge in [
        r#"{"op":"rank","seeds":["Forrest_Gump"],"k_entities":100000000000000000}"#,
        r#"{"op":"rank","seeds":["Forrest_Gump"],"k_features":1e18}"#,
        r#"{"op":"search","query":"film","k":10001}"#,
        r#"{"op":"expand","seeds":["Forrest_Gump"],"k":1e300}"#,
        r#"{"op":"heatmap","seeds":["Forrest_Gump"],"k_entities":99999999999}"#,
    ] {
        let v = client.request(huge).expect(huge);
        assert!(!response_ok(&v), "{huge} must be refused: {v:?}");
        assert!(matches!(v.field_opt("error"), serde::Value::Str(_)));
    }
    // the largest permitted k still answers
    let v = client
        .request(&format!(
            r#"{{"op":"search","query":"film","k":{}}}"#,
            pivote_serve::MAX_REQUEST_COUNT
        ))
        .expect("max k");
    assert!(response_ok(&v), "{v:?}");

    // the same connection still serves after every refusal
    let stats = client.stats().expect("stats after garbage");
    assert!(response_ok(&stats));
    assert_eq!(
        num_field(&stats, "generation"),
        Some(0),
        "no refused request may have mutated the store"
    );
}

#[test]
fn retract_over_tcp_matches_the_library_and_refuses_missing_triples() {
    let server = serve_sample();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let nt = "<http://dbpedia.org/resource/Served_Churn> \
              <http://dbpedia.org/ontology/servedBy> \
              <http://dbpedia.org/resource/Forrest_Gump> .\n";
    let v = client.append(nt).expect("append");
    assert!(response_ok(&v), "{v:?}");
    let v = client.retract(nt).expect("retract");
    assert!(response_ok(&v), "{v:?}");
    assert_eq!(num_field(&v, "removed_relations"), Some(1), "{v:?}");
    assert_eq!(num_field(&v, "generation"), Some(2));

    // the same retract again names nothing stored: a per-request error,
    // never a dropped connection (the no-op apply still ticks the
    // generation, exactly as an empty append would)
    let v = client.retract(nt).expect("retract again");
    assert!(!response_ok(&v), "{v:?}");
    assert!(matches!(v.field_opt("error"), serde::Value::Str(_)));

    // a malformed retract body reports the 1-based line inside the body
    let v = client.retract("not a triple\n").expect("bad retract");
    assert!(!response_ok(&v));
    assert_eq!(num_field(&v, "line"), Some(1), "{v:?}");

    // served state is bit-identical to the library-side replay of the
    // same append + retract
    let mut replay = sample();
    replay.apply(&pivote_kg::parse_into_delta(nt).expect("parses"));
    replay.apply(&pivote_kg::parse_removed_into_delta(nt).expect("parses"));
    let reader = server.store().read();
    assert_eq!(
        pivote_kg::serialize(&reader.backend().to_graph()),
        pivote_kg::serialize(&replay),
        "retract over TCP must equal the library-side retract"
    );
    drop(reader);

    // the connection that issued the refused retracts still serves
    let stats = client.stats().expect("stats after refused retracts");
    assert!(response_ok(&stats));
}

#[test]
fn clients_hanging_up_mid_exchange_leave_the_server_serving() {
    let server = serve_sample();
    // several clients connect, fire a request, and vanish without ever
    // reading the response
    for _ in 0..4 {
        let mut client = Client::connect(server.local_addr()).expect("connect");
        use std::io::Write as _;
        let stream = std::net::TcpStream::connect(server.local_addr()).expect("raw connect");
        let mut raw = stream;
        raw.write_all(b"{\"op\":\"rank\",\"seeds\":[\"Forrest_Gump\"]}\n")
            .expect("fire");
        drop(raw); // gone before the response is written
        drop(client.stats()); // normal client, also abandoned mid-life
    }
    // a fresh, well-behaved client is unaffected
    let mut client = Client::connect(server.local_addr()).expect("connect after chaos");
    let stats = client.stats().expect("stats");
    assert!(response_ok(&stats));
}

#[test]
fn slow_loris_clients_cannot_pin_the_worker_pool() {
    // ONE worker, a short idle budget: any connection that fails to
    // deliver a complete request line within the budget is dropped,
    // freeing the worker for clients that actually speak
    let store = Arc::new(LiveStore::new(sample()));
    let config = ServeConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", store, config).expect("bind");
    let addr = server.local_addr();

    // attacker 1: connects and never sends a byte
    let silent = std::net::TcpStream::connect(addr).expect("silent connect");
    // attacker 2: trickles a partial request and never the newline —
    // partial progress must NOT reset the idle budget
    let mut trickle = std::net::TcpStream::connect(addr).expect("trickle connect");
    use std::io::Write as _;
    trickle.write_all(b"{\"op\":\"sta").expect("partial bytes");

    // before the fix the single worker blocked forever in read_line on
    // the silent connection and this client would never be answered
    let mut client = Client::connect(addr).expect("connect behind the loris");
    let stats = client.stats().expect("stats despite the loris");
    assert!(response_ok(&stats));
    drop(silent);
    drop(trickle);

    // pauses shorter than the budget never kill a well-behaved client:
    // the budget restarts with every complete request line
    std::thread::sleep(Duration::from_millis(120));
    let stats = client.stats().expect("stats after a pause");
    assert!(response_ok(&stats));
}

#[test]
fn a_read_only_replica_server_tails_the_leader_over_tcp() {
    let wal_path = std::env::temp_dir().join(format!(
        "pivote_serve_replica_{}_{:?}.wal",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&wal_path);

    // leader: a store recording every write in the delta log (the
    // serving layer rides the exact same write path)
    let leader = Arc::new(LiveStore::new(sample()));
    leader.log_to(&wal_path).expect("leader logs");

    // follower: a read-only server over a ReplicaStore tailing the log
    let replica = ReplicaStore::open(sample(), 1, &wal_path).expect("replica opens");
    let tailer = ReplicaHandle::spawn(replica, Duration::from_millis(5));
    let config = ServeConfig {
        read_only: true,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(tailer.store()), config).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // writes are refused over the wire with a per-request error…
    let nt = "<http://dbpedia.org/resource/Replica_Visible> \
              <http://dbpedia.org/ontology/servedBy> \
              <http://dbpedia.org/resource/Forrest_Gump> .\n";
    for refused in [client.append(nt).expect("append answered"), {
        client.retract(nt).expect("retract answered")
    }] {
        assert!(!response_ok(&refused), "{refused:?}");
        let serde::Value::Str(message) = refused.field_opt("error") else {
            panic!("refusal must carry an error message: {refused:?}");
        };
        assert!(message.contains("read-only"), "{message}");
    }
    // …and stats advertises the mode
    let stats = client.stats().expect("stats");
    assert!(
        matches!(stats.field_opt("read_only"), serde::Value::Bool(true)),
        "{stats:?}"
    );

    // a leader write ships through the log and becomes a served read
    let delta = pivote_kg::parse_into_delta(nt).expect("parses");
    leader.append(&delta).expect("leader append");
    let target = leader.wal_generation().expect("leader logs generations");
    assert!(
        tailer.wait_for_generation(target, Duration::from_secs(10)),
        "follower never caught up: {:?}",
        tailer.last_error()
    );
    let stats = client.stats().expect("stats after sync");
    assert_eq!(
        num_field(&stats, "entities"),
        Some(sample().entity_count() as u64 + 1),
        "the shipped entity must be visible over TCP"
    );

    // served follower state is fingerprint-equal to the leader
    let leader_fp = {
        let reader = leader.read();
        reader.backend().fingerprint()
    };
    let follower_fp = {
        let reader = tailer.store().read();
        reader.backend().fingerprint()
    };
    assert_eq!(follower_fp, leader_fp, "replica drifted from the leader");
    let _ = std::fs::remove_file(&wal_path);
}

#[test]
fn concurrent_appends_and_reads_observe_one_serial_order() {
    let server = serve_sample();
    let addr = server.local_addr();
    let appends_per_writer = 8;
    let writers = 3;

    std::thread::scope(|scope| {
        for w in 0..writers {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("writer connects");
                for i in 0..appends_per_writer {
                    let nt = format!(
                        "<http://dbpedia.org/resource/Served_{w}_{i}> \
                         <http://dbpedia.org/ontology/servedBy> \
                         <http://dbpedia.org/resource/Forrest_Gump> .\n"
                    );
                    let v = client.append(&nt).expect("append");
                    assert!(response_ok(&v), "{v:?}");
                }
            });
        }
        for _ in 0..2 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("reader connects");
                let mut last_generation = 0;
                for _ in 0..12 {
                    let ranked = client.rank(&["Forrest_Gump"], 5, 5).expect("rank");
                    assert!(response_ok(&ranked));
                    let generation = num_field(&ranked, "generation").expect("generation");
                    assert!(
                        generation >= last_generation,
                        "generations ran backwards: {last_generation} then {generation}"
                    );
                    last_generation = generation;
                }
            });
        }
    });

    // quiescent: every append landed, exactly once, in one serial order
    let total = (writers * appends_per_writer) as u64;
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(num_field(&stats, "generation"), Some(total));

    // the server state equals a library-only replay of the same deltas
    // (appends commute here: each adds a disjoint entity + one edge)
    let mut replay = sample();
    for w in 0..writers {
        for i in 0..appends_per_writer {
            let mut d = pivote_kg::DeltaBatch::new();
            d.triple(format!("Served_{w}_{i}"), "servedBy", "Forrest_Gump");
            replay.apply(&d);
        }
    }
    assert_eq!(
        num_field(&stats, "entities"),
        Some(replay.entity_count() as u64)
    );
    let reader = server.store().read();
    // line-set equality: the appends commute, so the interleaving only
    // permutes entity insertion order, never the triple set
    let mut got: Vec<&str> = Vec::new();
    let got_nt = pivote_kg::serialize(&reader.backend().to_graph());
    got.extend(got_nt.lines());
    got.sort_unstable();
    let want_nt = pivote_kg::serialize(&replay);
    let mut want: Vec<&str> = want_nt.lines().collect();
    want.sort_unstable();
    assert_eq!(got, want, "served state must equal the library-only replay");
}

#[test]
fn restart_from_the_warm_sidecar_recomputes_nothing() {
    let warm_path = std::env::temp_dir().join(format!(
        "pivote_serve_warm_{}_{:?}.warm",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&warm_path);

    // first life: serve cold, warm the cache through real queries, stop
    // gracefully
    let store = Arc::new(LiveStore::new(sample()));
    let config = ServeConfig {
        warm_path: Some(warm_path.clone()),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", store, config.clone()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let first = client.rank(&["Forrest_Gump"], 10, 10).expect("rank");
    assert!(response_ok(&first));
    let stats = client.stats().expect("stats");
    let warmed = num_field(&stats, "cached_probabilities").expect("probe");
    assert!(warmed > 0, "queries must fill the density cache");
    let ack = client.shutdown().expect("shutdown ack");
    assert!(response_ok(&ack));
    server.wait_shutdown();
    let report = server.shutdown();
    assert_eq!(report.warm_densities_saved, Some(warmed as usize));

    // second life: a new process would reopen the graph and the sidecar
    let opened = open_store(sample(), 1, None, Some(&warm_path)).expect("no log to fail");
    assert!(opened.warm, "the sidecar must match the reopened graph");
    let server = Server::bind("127.0.0.1:0", opened.store, config).expect("rebind");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        num_field(&stats, "cached_probabilities"),
        Some(warmed),
        "every density must be back before any query runs"
    );
    let again = client.rank(&["Forrest_Gump"], 10, 10).expect("rank again");
    assert!(response_ok(&again));
    // bit-identical answers out of the warm cache…
    assert_eq!(
        scored_list(&again, "features"),
        scored_list(&first, "features")
    );
    assert_eq!(
        scored_list(&again, "entities"),
        scored_list(&first, "entities")
    );
    // …and zero recomputes: the repeat query needed no density that the
    // sidecar did not already carry
    let stats = client.stats().expect("stats after warm query");
    assert_eq!(
        num_field(&stats, "cached_probabilities"),
        Some(warmed),
        "a warm restart must not recompute (or add) a single density"
    );
    let _ = std::fs::remove_file(&warm_path);
}

/// A sidecar with one bit flipped in its last byte (the high byte of the
/// last density) fails its checksum: the restart starts cold and answers
/// exactly as a cold store does, never from the damaged density.
#[test]
fn a_sidecar_with_a_flipped_bit_starts_cold() {
    let warm_path = std::env::temp_dir().join(format!(
        "pivote_serve_flipped_{}_{:?}.warm",
        std::process::id(),
        std::thread::current().id()
    ));
    let config = ServeConfig {
        warm_path: Some(warm_path.clone()),
        ..ServeConfig::default()
    };
    let rank = |store: Arc<LiveStore>| {
        let server = Server::bind("127.0.0.1:0", store, config.clone()).expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let answer = client.rank(&["Forrest_Gump"], 10, 10).expect("rank");
        assert!(response_ok(&answer));
        (server, answer)
    };
    let (server, cold) = rank(Arc::new(LiveStore::new(sample())));
    assert!(server.shutdown().warm_densities_saved.unwrap() > 0);

    let mut bytes = std::fs::read(&warm_path).expect("sidecar saved");
    *bytes.last_mut().unwrap() ^= 0x40;
    std::fs::write(&warm_path, &bytes).unwrap();
    let opened = open_store(sample(), 1, None, Some(&warm_path)).expect("no log to fail");
    assert!(
        !opened.warm,
        "a sidecar that fails its checksum must start cold"
    );
    let (server, again) = rank(opened.store);
    drop(server);
    for field in ["features", "entities"] {
        assert_eq!(
            scored_list(&again, field),
            scored_list(&cold, field),
            "{field}"
        );
    }
    let _ = std::fs::remove_file(&warm_path);
}

/// A logging leader saves its sidecar against the graph it served, which
/// only the replayed log reproduces: a restart with the same data, log
/// and sidecar must load the sidecar after replay and start warm.
#[test]
fn a_logging_leader_restarts_warm_after_a_logged_write() {
    let path = |ext: &str| {
        std::env::temp_dir().join(format!(
            "pivote_serve_warm_leader_{}_{:?}.{ext}",
            std::process::id(),
            std::thread::current().id()
        ))
    };
    let (log, warm) = (path("wal"), path("warm"));
    let _ = std::fs::remove_file(&log);
    let _ = std::fs::remove_file(&warm);
    let config = ServeConfig {
        warm_path: Some(warm.clone()),
        ..ServeConfig::default()
    };

    // first life: a fresh log, one logged append, a query, a graceful stop
    let opened = open_store(sample(), 1, Some(&log), Some(&warm)).expect("fresh log");
    assert!(!opened.warm && opened.replayed.is_none());
    let server = Server::bind("127.0.0.1:0", opened.store, config.clone()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let nt = "<http://dbpedia.org/resource/Warm_Leader_Film> <http://dbpedia.org/ontology/starring> <http://dbpedia.org/resource/Tom_Hanks> .\n";
    assert!(response_ok(&client.append(nt).expect("append")));
    let first = client.rank(&["Forrest_Gump"], 10, 10).expect("rank");
    assert!(response_ok(&first));
    let warmed = num_field(&client.stats().expect("stats"), "cached_probabilities").unwrap();
    assert!(warmed > 0, "queries must fill the density cache");
    assert!(response_ok(&client.shutdown().expect("shutdown ack")));
    server.wait_shutdown();
    assert_eq!(
        server.shutdown().warm_densities_saved,
        Some(warmed as usize)
    );

    // second life: same data, same log, same sidecar
    let opened = open_store(sample(), 1, Some(&log), Some(&warm)).expect("replay");
    assert_eq!(opened.replayed, Some((1, false)));
    assert!(opened.warm, "the sidecar must match the replayed graph");
    let server = Server::bind("127.0.0.1:0", opened.store, config).expect("rebind");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    let stats = client.stats().expect("stats");
    assert_eq!(num_field(&stats, "generation"), Some(1));
    assert_eq!(
        num_field(&stats, "cached_probabilities"),
        Some(warmed),
        "every density must be back before any query runs"
    );
    let again = client.rank(&["Forrest_Gump"], 10, 10).expect("rank again");
    assert_eq!(
        scored_list(&again, "entities"),
        scored_list(&first, "entities")
    );
    drop(server);
    let _ = std::fs::remove_file(&log);
    let _ = std::fs::remove_file(&warm);
}
