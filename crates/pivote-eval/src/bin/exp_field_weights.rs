//! Experiment A3: field-weight sweep for the mixture of language models.
//!
//! The paper fixes one weighting; this ablation sweeps the mass given to
//! the names field vs the other four, exposing the robustness/precision
//! trade-off documented in EXPERIMENTS.md Q2 (name-heavy weights sharpen
//! exact-label queries, distributed weights rescue alias queries).
//!
//! Usage: `cargo run --release -p pivote-eval --bin exp_field_weights [films]`

#![forbid(unsafe_code)]

use pivote_eval::{default_search_cases, render_search_table, run_search_eval, SearchVariant};
use pivote_kg::DatagenConfig;
use pivote_search::{FieldWeights, Scorer, SearchConfig, SearchEngine};

fn main() {
    let films: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    eprintln!("generating synthetic KG ({films} films)…");
    let kg = pivote_kg::generate(&DatagenConfig::scaled(films, 7));
    let cases = default_search_cases(&kg, 60);

    // sweep the names-field mass; the remainder is split over the other
    // four fields in the default proportions (attr:cat:similar:related =
    // 2:4:3:3)
    let sweeps: [(&str, f64); 5] = [
        ("names=0.2", 0.2),
        ("names=0.4", 0.4),
        ("names=0.6", 0.6),
        ("names=0.8", 0.8),
        ("names=1.0", 1.0),
    ];
    let engines: Vec<(String, SearchEngine)> = sweeps
        .iter()
        .map(|(name, w_names)| {
            let rest = 1.0 - w_names;
            let mut cfg = SearchConfig::default();
            cfg.lm.weights = FieldWeights([
                *w_names,
                rest * 2.0 / 12.0,
                rest * 4.0 / 12.0,
                rest * 3.0 / 12.0,
                rest * 3.0 / 12.0,
            ]);
            (name.to_string(), SearchEngine::build(&kg, cfg))
        })
        .collect();
    let variants: Vec<SearchVariant<'_>> = engines
        .iter()
        .map(|(name, engine)| SearchVariant {
            name: name.as_str(),
            engine,
            scorer: Scorer::MixtureLm,
        })
        .collect();
    let results = run_search_eval(&variants, &cases, 50);
    println!("== A3: names-field weight sweep (mixture of LMs) ==");
    println!("{}", render_search_table(&results));
}
