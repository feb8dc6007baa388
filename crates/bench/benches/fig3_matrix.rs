//! Bench F3 — Fig. 3: the interactive matrix — one full investigation
//! round-trip (rank features, rank entities, compute the heat map) and
//! its rendering. This is the latency a user perceives per click.

use criterion::{criterion_group, criterion_main, Criterion};
use pivote_bench::{bench_kg, flagship_film};
use pivote_core::{Expander, HeatMap, RankingConfig, SfQuery};
use pivote_kg::EntityId;
use pivote_kg::ShardedGraph;
use pivote_viz::{heatmap_ascii, heatmap_svg};
use std::hint::black_box;

fn bench_matrix(c: &mut Criterion) {
    let kg = bench_kg();
    let sg = ShardedGraph::from(kg.clone());
    let flagship = flagship_film(&kg);
    let expander = Expander::new(&sg, RankingConfig::default());
    let query = SfQuery::from_seeds(vec![flagship]);

    let mut group = c.benchmark_group("fig3_matrix");
    group.sample_size(20);
    group.bench_function("full_click_roundtrip", |b| {
        b.iter(|| {
            let res = expander.expand(black_box(&query), 20, 15);
            let axis: Vec<EntityId> = res.entities.iter().map(|re| re.entity).collect();
            black_box(HeatMap::compute(expander.ranker(), &axis, &res.features))
        })
    });

    let res = expander.expand(&query, 20, 15);
    let axis: Vec<EntityId> = res.entities.iter().map(|re| re.entity).collect();
    let hm = HeatMap::compute(expander.ranker(), &axis, &res.features);
    group.bench_function("heatmap_only", |b| {
        b.iter(|| black_box(HeatMap::compute(expander.ranker(), &axis, &res.features)))
    });
    group.bench_function("render_ascii", |b| {
        b.iter(|| black_box(heatmap_ascii(&kg, &hm, 34)))
    });
    group.bench_function("render_svg", |b| {
        b.iter(|| black_box(heatmap_svg(&kg, &hm)))
    });
    group.finish();
}

criterion_group!(benches, bench_matrix);
criterion_main!(benches);
