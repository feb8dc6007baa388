//! Bench T1 — Table 1: building the five-field entity representation,
//! for one entity and for the whole collection (index construction).

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pivote_bench::{bench_kg, flagship_film};
use pivote_search::{FiveFieldRepr, SearchConfig, SearchEngine};
use std::hint::black_box;

fn bench_table1(c: &mut Criterion) {
    let kg = bench_kg();
    let flagship = flagship_film(&kg);

    let mut group = c.benchmark_group("table1_fields");
    group.bench_function("single_entity_repr", |b| {
        b.iter(|| black_box(FiveFieldRepr::build(&kg, black_box(flagship), 128)))
    });
    group.bench_function("single_entity_repr_render", |b| {
        b.iter_batched(
            || FiveFieldRepr::build(&kg, flagship, 128),
            |repr| black_box(repr.to_table(3)),
            BatchSize::SmallInput,
        )
    });
    group.sample_size(10);
    group.bench_function("full_index_build", |b| {
        b.iter(|| black_box(SearchEngine::build(&kg, SearchConfig::default())))
    });
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
