//! Experiment Q5: pivot (browse) quality (§3.2).
//!
//! "Users can flexibly switch to the relevant entity domains (e.g., Actor
//! and Director) for exploration via the semantic features … rather than
//! blindly leap to irrelevant ones." Measures the fraction of pivots
//! from a source domain that land in a type statistically coupled to it.
//!
//! Usage: `cargo run --release -p pivote-eval --bin exp_pivot [films]`

#![forbid(unsafe_code)]

use pivote_eval::run_pivot_eval;
use pivote_kg::DatagenConfig;

fn main() {
    let films: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    let kg = pivote_kg::generate(&DatagenConfig::scaled(films, 7));

    println!("== Q5: pivot destinations vs type-coupling statistics ==");
    println!(
        "{:<14} {:>9} {:>9} {:>9}",
        "source type", "pivots", "coupled", "success"
    );
    for type_name in ["Film", "Actor", "Director", "Book"] {
        let Some(t) = kg.type_id(type_name) else {
            continue;
        };
        let report = run_pivot_eval(&kg, t, 50);
        println!(
            "{:<14} {:>9} {:>9} {:>8.1}%",
            type_name,
            report.attempted,
            report.coupled,
            report.success_rate() * 100.0
        );
    }
}
