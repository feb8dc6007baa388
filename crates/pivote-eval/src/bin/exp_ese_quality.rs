//! Experiment Q1 (+ ablations A1/A2): entity-set-expansion quality.
//!
//! Reproduces the paper's core claim — the path-based semantic-feature
//! ranking recommends relevant entities — by measuring MAP/P@10/nDCG
//! against the Jaccard, PPR and frequency-overlap baselines on classes
//! planted by the synthetic KG generator.
//!
//! Usage: `cargo run --release -p pivote-eval --bin exp_ese_quality [films]`

#![forbid(unsafe_code)]

use pivote_baselines::{
    EntityExpansion, FreqOverlapExpansion, JaccardExpansion, PivotEExpansion, PprExpansion,
};
use pivote_eval::{render_ese_table, run_ese_eval, EseEvalConfig};
use pivote_kg::{DatagenConfig, ShardedGraph};

fn main() {
    let films: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    eprintln!("generating synthetic KG ({films} films)…");
    let kg = pivote_kg::generate(&DatagenConfig::scaled(films, 7));
    eprintln!(
        "kg: {} entities, {} triples, {} categories",
        kg.entity_count(),
        kg.triple_count(),
        kg.category_count()
    );

    let pivote = PivotEExpansion::default();
    let no_et = PivotEExpansion::without_error_tolerance();
    let no_d = PivotEExpansion::without_discriminability();
    let jaccard = JaccardExpansion;
    let ppr = PprExpansion::default();
    let freq = FreqOverlapExpansion;
    let methods: Vec<&dyn EntityExpansion> = vec![&pivote, &no_et, &no_d, &jaccard, &ppr, &freq];

    let cfg = EseEvalConfig::default();
    let results = run_ese_eval(&ShardedGraph::from(kg), &methods, &cfg);
    println!("== Q1/A1/A2: entity set expansion quality (k={}) ==", cfg.k);
    println!("{}", render_ese_table(&results));
    println!(
        "{}",
        serde_json::to_string_pretty(&results).expect("results serialize")
    );
}
