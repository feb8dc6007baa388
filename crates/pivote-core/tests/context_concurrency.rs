//! Concurrency guarantees of the shared QueryContext and its sharded
//! sibling: parallel and sequential execution produce bit-identical
//! rankings, concurrent engines hammering one context agree with
//! isolated engines, and the bounded top-k selection is a true prefix of
//! the full ranking.

use pivote_core::{
    Expander, GraphHandle, QueryContext, RankedEntity, Ranker, RankingConfig, SfQuery,
    ShardedContext,
};
use pivote_kg::{generate, DatagenConfig, EntityId, KnowledgeGraph};
use std::sync::Arc;

fn seeds_of(kg: &KnowledgeGraph, n: usize) -> Vec<EntityId> {
    let film = kg.type_id("Film").expect("Film type");
    kg.type_extent(film)[..n.min(kg.type_extent(film).len())].to_vec()
}

fn assert_same_ranking(a: &[RankedEntity], b: &[RankedEntity], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length diverged");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.entity, y.entity, "{what}: order diverged");
        assert!(
            (x.score - y.score).abs() == 0.0,
            "{what}: score not bit-identical: {} vs {}",
            x.score,
            y.score
        );
    }
}

#[test]
fn parallel_and_sequential_rankings_are_bit_identical() {
    // a graph large enough that the parallel path actually engages
    // (candidate pools exceed the MIN_PARALLEL_ITEMS threshold)
    let kg = generate(&DatagenConfig::small());
    let seeds = seeds_of(&kg, 3);
    let sequential = Ranker::with_context(
        Arc::new(QueryContext::with_threads(&kg, 1)),
        RankingConfig::default(),
    );
    let features = sequential.rank_features(&seeds);
    let baseline = sequential.rank_entities(&seeds, &features);
    assert!(
        baseline.len() > 200,
        "fixture too small to exercise parallelism"
    );

    for threads in [2, 3, 4, 8] {
        let parallel = Ranker::with_context(
            Arc::new(QueryContext::with_threads(&kg, threads)),
            RankingConfig::default(),
        );
        let par_features = parallel.rank_features(&seeds);
        assert_eq!(
            features, par_features,
            "feature ranking diverged at {threads} threads"
        );
        let ranked = parallel.rank_entities(&seeds, &par_features);
        assert_same_ranking(&baseline, &ranked, &format!("{threads} threads"));
    }
}

#[test]
fn top_k_is_a_prefix_of_the_full_ranking() {
    let kg = generate(&DatagenConfig::small());
    let seeds = seeds_of(&kg, 2);
    let ranker = Ranker::new(&kg, RankingConfig::default());
    let features = ranker.rank_features(&seeds);
    let full = ranker.rank_entities(&seeds, &features);
    for k in [1, 5, 20, 100, full.len(), full.len() + 50] {
        let topk = ranker.rank_entities_top_k(&seeds, &features, k, |_| true);
        assert_same_ranking(&full[..k.min(full.len())], &topk, &format!("top-{k}"));
    }
}

#[test]
fn concurrent_queries_on_one_context_match_isolated_runs() {
    let kg = generate(&DatagenConfig::small());
    let ctx = Arc::new(QueryContext::new(&kg));
    let film = kg.type_id("Film").expect("Film type");
    let all_seeds: Vec<Vec<EntityId>> = (0..8)
        .map(|i| kg.type_extent(film)[i..i + 2].to_vec())
        .collect();

    // expected results from isolated, sequential engines
    let expected: Vec<Vec<RankedEntity>> = all_seeds
        .iter()
        .map(|seeds| {
            let expander = Expander::with_context(
                Arc::new(QueryContext::with_threads(&kg, 1)),
                RankingConfig::default(),
            );
            expander
                .expand(&SfQuery::from_seeds(seeds.clone()), 25, 10)
                .entities
        })
        .collect();

    // hammer one shared context from many threads at once
    let got: Vec<Vec<RankedEntity>> = std::thread::scope(|scope| {
        let handles: Vec<_> = all_seeds
            .iter()
            .map(|seeds| {
                let ctx = Arc::clone(&ctx);
                scope.spawn(move || {
                    let expander = Expander::with_context(ctx, RankingConfig::default());
                    expander
                        .expand(&SfQuery::from_seeds(seeds.clone()), 25, 10)
                        .entities
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query thread"))
            .collect()
    });

    for (i, (exp, act)) in expected.iter().zip(&got).enumerate() {
        assert_same_ranking(exp, act, &format!("concurrent query {i}"));
    }
    assert!(
        ctx.cached_probability_count() > 0,
        "shared cache should have been populated"
    );
}

#[test]
fn concurrent_sessions_on_one_sharded_context_match_sequential_runs() {
    // Many "sessions" (expansion queries) hammering ONE ShardedContext
    // concurrently must produce exactly what isolated sequential
    // single-graph runs produce — the shared global probability cache,
    // the per-shard feature tables and the heap merge are all exercised
    // under contention.
    let kg = generate(&DatagenConfig::small());
    let film = kg.type_id("Film").expect("Film type");
    let all_seeds: Vec<Vec<EntityId>> = (0..8)
        .map(|i| kg.type_extent(film)[i..i + 2].to_vec())
        .collect();

    // expected results from isolated, sequential single-graph engines
    let expected: Vec<Vec<RankedEntity>> = all_seeds
        .iter()
        .map(|seeds| {
            let expander = Expander::with_context(
                Arc::new(QueryContext::with_threads(&kg, 1)),
                RankingConfig::default(),
            );
            expander
                .expand(&SfQuery::from_seeds(seeds.clone()), 25, 10)
                .entities
        })
        .collect();

    for shards in [2, 3, 4] {
        let sg = pivote_kg::ShardedGraph::from_graph(&kg, shards);
        let ctx = Arc::new(ShardedContext::new(&sg));
        let got: Vec<Vec<RankedEntity>> = std::thread::scope(|scope| {
            let handles: Vec<_> = all_seeds
                .iter()
                .map(|seeds| {
                    let handle = GraphHandle::Sharded(Arc::clone(&ctx));
                    scope.spawn(move || {
                        let expander = Expander::with_handle(handle, RankingConfig::default());
                        expander
                            .expand(&SfQuery::from_seeds(seeds.clone()), 25, 10)
                            .entities
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("query thread"))
                .collect()
        });
        for (i, (exp, act)) in expected.iter().zip(&got).enumerate() {
            assert_same_ranking(
                exp,
                act,
                &format!("concurrent sharded query {i} (shards={shards})"),
            );
        }
        assert!(
            ctx.cached_probability_count() > 0,
            "shared sharded cache should have been populated"
        );
    }
}
