//! `pivote-benchmark`: one command that generates seeded inputs, drives
//! the release `pivote-serve` binary from outside through one of four
//! workloads, checks the answers, and prints every metric by name and
//! unit. With `--trace 1` it also replays a sample of the workload's
//! inputs in-process under spans and prints the per-layer metrics.
//!
//! The last line of standard output is the machine-readable result.

mod gen;
mod library;
mod proc;
mod replay;
mod stats;
mod trace;
mod workloads;

use stats::{Metric, MIN_BEYOND};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Config, Report};

/// The workloads, as `BENCHMARK.json` names them.
const WORKLOADS: [&str; 4] = ["explore-cold", "explore-hot", "churn", "bulk-load"];

/// End-to-end metrics: every workload reports every one of them, and
/// each carries a regression bound in `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ready_s", "s"),
    ("ops_per_s", "1/s"),
    ("rank_p50_ms", "ms"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run. A workload that does
/// not exercise one reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    // end-to-end numbers only some workloads have, or that spread too
    // widely on some workload to carry a bound (see README)
    ("rank_p99_ms", "ms"),
    ("search_p50_ms", "ms"),
    ("search_p95_ms", "ms"),
    ("expand_p50_ms", "ms"),
    ("heatmap_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p95_ms", "ms"),
    ("visible_lag_p50_ms", "ms"),
    ("visible_lag_p95_ms", "ms"),
    ("recover_s", "s"),
    ("error_rate", "ratio"),
    // pivote-serve
    ("serve.wire_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.render_us", "us"),
    ("serve.memo_hit_rate", "ratio"),
    ("serve.rss_end_mb", "MB"),
    ("serve.cpu_s", "s"),
    ("serve.leader_cpu_s", "s"),
    ("serve.follower_cpu_s", "s"),
    ("serve.first_rank_ms", "ms"),
    ("serve.first_search_ms", "ms"),
    // pivote-core
    ("core.acquire_us", "us"),
    ("core.resolve_us", "us"),
    ("core.rank_features_us", "us"),
    ("core.candidates_us", "us"),
    ("core.candidates_per_result", "ratio"),
    ("core.score_select_us", "us"),
    ("core.rank_scoring_share", "ratio"),
    ("core.expand_us", "us"),
    ("core.heatmap_us", "us"),
    ("core.density_entries", "count"),
    ("core.append_us", "us"),
    ("core.publish_us", "us"),
    ("core.replica_apply_us", "us"),
    ("core.recover_records_per_s", "1/s"),
    ("core.enable_snapshots_ms", "ms"),
    ("core.stream_ingest_triples_per_s", "1/s"),
    // pivote-kg
    ("kg.nt_parse_triples_per_s", "1/s"),
    ("kg.shard_split_ms", "ms"),
    ("kg.delta_parse_us", "us"),
    ("kg.wal_append_us", "us"),
    ("kg.wal_bytes_per_delta_byte", "ratio"),
    ("kg.apply_us", "us"),
    ("kg.trailing_shards", "count"),
    ("kg.snapshot_save_ms", "ms"),
    ("kg.snapshot_load_ms", "ms"),
    ("kg.snapshot_bytes_per_triple", "B"),
    // pivote-search, pivote-explore, pivote-text
    ("search.index_build_ms", "ms"),
    ("search.candidates_per_hit", "ratio"),
    ("explore.search_warm_us", "us"),
    ("explore.refresh_ms", "ms"),
    ("text.analyze_mb_per_s", "MB/s"),
    // validity of the run, not the program
    ("gen.late_ms_p99", "ms"),
    ("gen.cpu_s", "s"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    trace: bool,
    config: Config,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut server, mut out, mut quick) = (None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => trace = Some(value()? != "0"),
            "--server" => server = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--quick" => quick = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let need = |name: &str| format!("{name} is required");
    let workload = workload.ok_or_else(|| need("--workload"))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or_else(|| need("--seconds"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        trace: trace.ok_or_else(|| need("--trace"))?,
        config: Config {
            server_bin: server.ok_or_else(|| need("--server"))?,
            out: out.ok_or_else(|| need("--out"))?,
            seed: seed.ok_or_else(|| need("--seed"))?,
            seconds,
            quick,
        },
    })
}

fn print_metric(m: &Metric) {
    let tail = match m.beyond {
        Some(b) if b < MIN_BEYOND => format!(" beyond={b} (under-sampled tail)"),
        Some(b) => format!(" beyond={b}"),
        None => String::new(),
    };
    println!(
        "metric {:<34} {:>16.6} {:<6} n={}{tail}",
        m.name, m.value, m.unit, m.samples
    );
}

/// The machine-readable last line: exactly the declared metrics of the
/// run's kind, each with all its digits.
fn result_line(report: &Report, declared: &[(&str, &str)], correct: bool, quick: bool) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let value = report
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
        })
        .collect();
    // a smoke run says so, and so can never pass for a full run
    let quick = if quick { r#""quick":true,"# } else { "" };
    format!(
        r#"{{{quick}"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    )
}

fn run(args: &Args) -> Result<(Report, bool), String> {
    let cfg = &args.config;
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    println!(
        "# pivote-benchmark workload={} seed={} seconds={} trace={} quick={} nproc={}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(args.trace),
        cfg.quick,
        library::host_threads()
    );
    let mut report = match args.workload.as_str() {
        "explore-cold" => workloads::explore(cfg, false),
        "explore-hot" => workloads::explore(cfg, true),
        "churn" => workloads::churn(cfg),
        _ => workloads::bulk_load(cfg),
    }?;
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    report.metrics.push(Metric::new(
        "error_rate",
        "ratio",
        error_rate,
        report.attempted as usize,
    ));
    if args.trace {
        let replay = report
            .replay
            .take()
            .expect("every workload keeps its inputs");
        let work = proc::WorkDir::create(&cfg.out, &format!("replay-{}", args.workload))
            .map_err(|e| format!("work dir: {e}"))?;
        let trace_path = cfg.out.join(format!("trace-{}.json", args.workload));
        let layers = replay::traced_replay(&replay, &work, &trace_path)?;
        println!("# spans written to {}", trace_path.display());
        report.metrics.extend(layers);
        // explore-cold exists to stress scoring: if the two scoring
        // stages are not most of an in-process rank, it no longer does
        let share = report
            .metrics
            .iter()
            .find(|m| m.name == "core.rank_scoring_share");
        if let Some(share) = share.filter(|s| args.workload == "explore-cold" && s.value <= 0.5) {
            let why = format!("scoring is only {} of an in-process rank", share.value);
            report.wrong.push(why);
        }
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for (title, declared) in [("end to end", END_TO_END), ("per layer", PER_LAYER)] {
        println!("# {title}");
        for (name, _) in declared {
            if let Some(m) = report.metrics.iter().find(|m| m.name == *name) {
                print_metric(m);
            }
        }
    }
    for why in &report.wrong {
        println!("WRONG   {why}");
    }
    // an invalid run measured the generator, not the program: its
    // numbers are to be discarded, but the program's answers were right
    for why in &report.invalid {
        println!("INVALID {why}");
        eprintln!("pivote-benchmark: invalid run: {why}");
    }
    let missing: Vec<&str> = END_TO_END
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| {
            !report
                .metrics
                .iter()
                .any(|m| m.name == *name && m.value > 0.0)
        })
        .collect();
    if !missing.is_empty() {
        println!("WRONG   end-to-end metrics not measured: {missing:?}");
    }
    let correct = report.wrong.is_empty() && missing.is_empty();
    Ok((report, correct))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pivote-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((report, correct)) => {
            let declared = if args.trace { PER_LAYER } else { END_TO_END };
            println!(
                "{}",
                result_line(&report, declared, correct, args.config.quick)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        // a run that could not be carried out prints no result
        Err(e) => {
            eprintln!("pivote-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
        let Value::Arr(items) = doc.field(list).expect("the list is there") else {
            panic!("{list} is not an array")
        };
        let text = |item: &Value, key: &str| match item.field(key) {
            Ok(Value::Str(s)) => s.clone(),
            other => panic!("{list}: {key} is {other:?}"),
        };
        items
            .iter()
            .map(|i| (text(i, "name"), text(i, "unit")))
            .collect()
    }

    /// `BENCHMARK.json` and the binary must name the same workloads and
    /// the same metrics with the same units, in the same order.
    #[test]
    fn benchmark_json_declares_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(PER_LAYER));
        let Value::Arr(workloads) = doc.field("workloads").unwrap() else {
            panic!("workloads is not an array")
        };
        let names: Vec<&Value> = workloads.iter().map(|w| w.field("name").unwrap()).collect();
        let expect: Vec<Value> = WORKLOADS
            .iter()
            .map(|w| Value::Str(w.to_string()))
            .collect();
        assert_eq!(names, expect.iter().collect::<Vec<_>>());
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn the_result_line_has_exactly_the_declared_metrics() {
        let mut report = Report {
            attempted: 10,
            ..Report::default()
        };
        report.metrics.push(Metric::new("setup_s", "s", 0.5, 3));
        report
            .metrics
            .push(Metric::new("not_declared", "s", 9.0, 1));
        let line = result_line(&report, END_TO_END, true, false);
        let doc: Value = serde_json::from_str(&line).unwrap();
        let Value::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Value::Obj(metrics) = doc.field("metrics").unwrap() else {
            panic!()
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        assert_eq!(metrics[0].1.field("value").unwrap(), &Value::Num(0.5));
        let quick = result_line(&report, END_TO_END, true, true);
        assert!(quick.starts_with(r#"{"quick":true,"#));
    }
}
