//! Bench A1/A2 — ablation cost: what the error-tolerant smoothing and
//! the candidate pruning knobs cost in latency (their quality effect is
//! measured by `exp_ese_quality`), and the baselines at the same task.

use criterion::{criterion_group, criterion_main, Criterion};
use pivote_baselines::{
    EntityExpansion, FreqOverlapExpansion, JaccardExpansion, PivotEExpansion, PprExpansion,
};
use pivote_bench::{bench_kg, film_seeds};
use pivote_core::{Expander, RankingConfig, SfQuery};
use pivote_kg::ShardedGraph;
use std::hint::black_box;

fn bench_ablation(c: &mut Criterion) {
    let kg = bench_kg();
    let sg = ShardedGraph::from(kg.clone());
    let seeds = film_seeds(&kg, 3);
    let query = SfQuery::from_seeds(seeds.clone());

    let mut group = c.benchmark_group("expansion_ablation");
    group.sample_size(10);

    let configs: [(&str, RankingConfig); 4] = [
        ("full_model", RankingConfig::default()),
        (
            "no_error_tolerance",
            RankingConfig::default().without_error_tolerance(),
        ),
        (
            "no_discriminability",
            RankingConfig::default().without_discriminability(),
        ),
        (
            "no_candidate_smoothing",
            RankingConfig {
                smooth_candidates: false,
                ..RankingConfig::default()
            },
        ),
    ];
    for (name, cfg) in configs {
        group.bench_function(name, |b| {
            // expander construction is cheap; the cache must start cold
            // each iteration to compare the configs fairly
            b.iter(|| {
                let expander = Expander::new(&sg, cfg);
                black_box(expander.expand(black_box(&query), 20, 15))
            })
        });
    }

    // baselines at the same task size
    group.bench_function("baseline_jaccard", |b| {
        b.iter(|| black_box(JaccardExpansion.expand(&sg, &seeds, 20)))
    });
    group.bench_function("baseline_ppr", |b| {
        b.iter(|| black_box(PprExpansion::default().expand(&sg, &seeds, 20)))
    });
    group.bench_function("baseline_freq_overlap", |b| {
        b.iter(|| black_box(FreqOverlapExpansion.expand(&sg, &seeds, 20)))
    });
    group.bench_function("baseline_pivote_trait", |b| {
        b.iter(|| black_box(PivotEExpansion::default().expand(&sg, &seeds, 20)))
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
