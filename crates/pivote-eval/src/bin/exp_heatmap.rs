//! Experiment Q4: heat-map structure (Fig. 3-f).
//!
//! Checks that the seven-level quantization is meaningful: the level
//! histogram, and — per level — the fraction of cells explained by a
//! *direct* feature match. Darker levels should be increasingly
//! dominated by direct matches; light levels by category-smoothed
//! correlation.
//!
//! Usage: `cargo run --release -p pivote-eval --bin exp_heatmap [films]`

use pivote_eval::run_heatmap_report;
use pivote_kg::{DatagenConfig, ShardedGraph};

fn main() {
    let films: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    let sg = ShardedGraph::from(pivote_kg::generate(&DatagenConfig::scaled(films, 7)));
    let film = sg.type_id("Film").expect("Film type");
    let seeds = &sg.type_extent(film)[..2];
    let report = run_heatmap_report(&sg, seeds, 20, 15);

    println!(
        "== Q4: heat-map structure (matrix {}x{}) ==",
        report.dims.0, report.dims.1
    );
    println!("{:>5} {:>8} {:>14}", "level", "cells", "direct-match%");
    for l in 0..7 {
        println!(
            "{:>5} {:>8} {:>13.1}%",
            l,
            report.histogram[l],
            report.direct_fraction[l] * 100.0
        );
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("report serializes")
    );
}
