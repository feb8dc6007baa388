//! Bench F4 — Fig. 4: replaying a scripted exploration session (search →
//! investigate → lookup → pivot → revisit) and rendering its exploratory
//! path.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pivote_bench::{bench_kg, flagship_film};
use pivote_core::{Direction, SemanticFeature};
use pivote_explore::{Session, UserAction};
use pivote_kg::ShardedGraph;
use pivote_viz::{path_ascii, path_dot, path_svg};
use std::hint::black_box;

fn bench_path(c: &mut Criterion) {
    let kg = bench_kg();
    let sg = ShardedGraph::from(kg.clone());
    let flagship = flagship_film(&kg);
    let starring = kg.predicate("starring").expect("starring");
    let cast_feature = SemanticFeature {
        anchor: flagship,
        predicate: starring,
        direction: Direction::FromAnchor,
    };

    let mut group = c.benchmark_group("fig4_path");
    group.sample_size(10);
    // session construction indexes the graph; bench it separately
    group.bench_function("session_build", |b| {
        b.iter(|| black_box(Session::with_defaults(&sg)))
    });
    group.bench_function("scripted_session_replay", |b| {
        b.iter_batched(
            || Session::with_defaults(&sg),
            |mut s| {
                s.submit_keywords(&kg.display_name(flagship));
                s.click_entity(flagship);
                s.lookup(flagship);
                s.pivot(cast_feature);
                s.apply(UserAction::RevisitQuery { index: 0 });
                black_box(s.path().nodes().len())
            },
            BatchSize::PerIteration,
        )
    });

    let mut s = Session::with_defaults(&sg);
    s.submit_keywords(&kg.display_name(flagship));
    s.click_entity(flagship);
    s.lookup(flagship);
    s.pivot(cast_feature);
    let path = s.path().clone();
    group.bench_function("render_ascii", |b| b.iter(|| black_box(path_ascii(&path))));
    group.bench_function("render_dot", |b| b.iter(|| black_box(path_dot(&path))));
    group.bench_function("render_svg", |b| b.iter(|| black_box(path_svg(&path))));
    group.finish();
}

criterion_group!(benches, bench_path);
criterion_main!(benches);
