//! Experiment Q2: keyword entity-search quality.
//!
//! Compares the paper's mixture-of-LM retrieval over the five-field
//! representation against a names-only LM and BM25F, on label, alias
//! (misspelling) and label+type queries.
//!
//! Usage: `cargo run --release -p pivote-eval --bin exp_search_quality [films]`

#![forbid(unsafe_code)]

use pivote_eval::{default_search_cases, render_search_table, run_search_eval, SearchVariant};
use pivote_kg::DatagenConfig;
use pivote_search::{Field, FieldWeights, Scorer, SearchConfig, SearchEngine};

fn main() {
    let films: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    eprintln!("generating synthetic KG ({films} films)…");
    let kg = pivote_kg::generate(&DatagenConfig::scaled(films, 7));

    let full = SearchEngine::build(&kg, SearchConfig::default());
    let names_only = {
        let mut cfg = SearchConfig::default();
        cfg.lm.weights = FieldWeights::single(Field::Names);
        SearchEngine::build(&kg, cfg)
    };

    let cases = default_search_cases(&kg, 100);
    eprintln!("{} search cases", cases.len());
    let variants = [
        SearchVariant {
            name: "lm-mixture(5f)",
            engine: &full,
            scorer: Scorer::MixtureLm,
        },
        SearchVariant {
            name: "lm-names-only",
            engine: &names_only,
            scorer: Scorer::MixtureLm,
        },
        SearchVariant {
            name: "bm25f",
            engine: &full,
            scorer: Scorer::Bm25,
        },
    ];
    let results = run_search_eval(&variants, &cases, 50);
    println!("== Q2: entity search quality ==");
    println!("{}", render_search_table(&results));
    println!(
        "{}",
        serde_json::to_string_pretty(&results).expect("results serialize")
    );
}
