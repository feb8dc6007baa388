//! Bench F1b — Fig. 1-b: computing the type-coupling statistics over the
//! whole graph and rendering the type view for the Film domain.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use pivote_bench::bench_kg;
use pivote_kg::TypeCouplingStats;
use pivote_viz::{typeview_ascii, typeview_svg};
use std::hint::black_box;

fn bench_typeview(c: &mut Criterion) {
    let kg = bench_kg();
    let film = kg.type_id("Film").expect("Film type");

    let mut group = c.benchmark_group("fig1_typeview");
    group.sample_size(20);
    group.bench_function("coupling_stats_compute", |b| {
        b.iter(|| black_box(TypeCouplingStats::compute(&kg)))
    });
    let stats = TypeCouplingStats::compute(&kg);
    group.bench_function("couplings_from_film", |b| {
        b.iter(|| black_box(stats.couplings_from(black_box(film))))
    });
    group.bench_function("render_ascii", |b| {
        b.iter(|| black_box(typeview_ascii(&kg, &stats, film, 8)))
    });
    group.bench_function("render_svg", |b| {
        b.iter(|| black_box(typeview_svg(&kg, &stats, film, 8)))
    });
    group.finish();
}

criterion_group!(benches, bench_typeview);
criterion_main!(benches);
