//! The generation-stamped cache-invalidation contract of the live
//! execution layer:
//!
//! - an append touching predicate π drops **exactly** the cached
//!   `p(π|c)` entries whose feature extent or context extent changed —
//!   observable through the [`SharedCache`] probe API and its generation
//!   counter — and every untouched density survives;
//! - the same precision holds for the sharded backend's shared cache;
//! - appends racing queries on one shared [`LiveStore`] never produce a
//!   torn read: at quiescence the rankings equal a from-scratch rebuild
//!   of the union.

use pivote_core::{LiveStore, QueryContext, RankingConfig, SemanticFeature, ShardedContext};
use pivote_kg::{generate, DatagenConfig, DeltaBatch, EntityId, KnowledgeGraph, ShardedGraph};
use std::sync::Arc;

fn base() -> KnowledgeGraph {
    generate(&DatagenConfig::tiny())
}

/// Two features over distinct predicates anchored at entities with
/// categories, plus a probe category for each.
fn fixture(kg: &KnowledgeGraph) -> (SemanticFeature, SemanticFeature) {
    let starring = kg.predicate("starring").expect("starring");
    let director = kg.predicate("director").expect("director");
    let actor = kg.type_id("Actor").expect("Actor");
    let director_t = kg.type_id("Director").expect("Director");
    let a = kg.type_extent(actor)[0];
    let d = kg.type_extent(director_t)[0];
    (
        SemanticFeature::to_anchor(a, starring),
        SemanticFeature::to_anchor(d, director),
    )
}

#[test]
fn append_drops_exactly_the_touched_densities() {
    let live = LiveStore::with_threads(base(), 1);
    let (touched_sf, untouched_sf, cat_touched, cat_untouched, anchor_name) = {
        let reader = live.read();
        let kg = reader.kg();
        let (sf_star, sf_dir) = fixture(kg);
        let film = kg.type_id("Film").unwrap();
        let f = kg.type_extent(film)[0];
        let mut cats = kg.categories_of(f);
        let cat_a = cats.next().expect("film has categories");
        let cat_b = cats.next().expect("film has two categories");
        let ctx = reader.handle();
        // fill four densities: touched-feature × {touched, untouched}
        // category, untouched-feature × the same two categories
        for sf in [sf_star, sf_dir] {
            for c in [cat_a, cat_b] {
                let _ = ctx.p_for_category(sf, c);
            }
        }
        (
            sf_star,
            sf_dir,
            cat_a,
            cat_b,
            kg.entity_name(sf_star.anchor).to_owned(),
        )
    };
    let cache = Arc::clone(live.cache());
    assert_eq!(cache.generation(), 0);
    let filled = cache.cached_probability_count();
    assert!(filled >= 4, "fixture must fill the cache");
    assert!(cache.probe_category(touched_sf, cat_touched).is_some());
    assert!(cache.probe_category(untouched_sf, cat_untouched).is_some());

    // append one triple into the touched feature's extent (new film
    // starring the anchor) and one category assertion into cat_touched
    let cat_name = {
        let reader = live.read();
        reader.kg().category_name(cat_touched).to_owned()
    };
    let mut delta = DeltaBatch::new();
    delta
        .triple("Freshly_Appended_Film", "starring", &anchor_name)
        .categorized("Freshly_Appended_Film", cat_name);
    let receipt = live.append(&delta).expect("store healthy");
    assert_eq!(receipt.touched_in.len(), 1, "one feature extent touched");
    assert_eq!(receipt.touched_categories.len(), 1);

    // generation observable; exactly the affected entries dropped
    assert_eq!(cache.generation(), 1);
    assert!(
        cache.probe_category(touched_sf, cat_touched).is_none(),
        "touched feature × touched category must be dropped"
    );
    assert!(
        cache.probe_category(touched_sf, cat_untouched).is_none(),
        "touched feature's densities must be dropped for every context"
    );
    assert!(
        cache.probe_category(untouched_sf, cat_touched).is_none(),
        "touched category's densities must be dropped for every feature"
    );
    assert!(
        cache.probe_category(untouched_sf, cat_untouched).is_some(),
        "a density over an untouched feature AND untouched category must survive"
    );

    // the surviving entry is *correct*: recomputing from scratch on the
    // union gives the same value
    let survived = cache.probe_category(untouched_sf, cat_untouched).unwrap();
    let mut union = base();
    union.apply(&delta);
    let fresh = QueryContext::with_threads(&union, 1);
    assert!((fresh.p_for_category(untouched_sf, cat_untouched) - survived).abs() == 0.0);
    // and the dropped one recomputes to the new truth through the cache
    let reader = live.read();
    let got = reader.handle().p_for_category(touched_sf, cat_touched);
    assert!((fresh.p_for_category(touched_sf, cat_touched) - got).abs() == 0.0);
}

#[test]
fn sharded_cache_invalidates_with_the_same_precision() {
    let kg = base();
    let (sf_star, sf_dir) = fixture(&kg);
    let cat = {
        let film = kg.type_id("Film").unwrap();
        kg.categories_of(kg.type_extent(film)[0])
            .next()
            .expect("category")
    };
    let anchor_name = kg.entity_name(sf_star.anchor).to_owned();

    let mut sg = ShardedGraph::from_graph(&kg, 3);
    let cache = Arc::new(pivote_core::SharedCache::new());
    {
        let ctx = ShardedContext::with_cache(&sg, 1, Arc::clone(&cache));
        let _ = ctx.p_for_category(sf_star, cat);
        let _ = ctx.p_for_category(sf_dir, cat);
    }
    let mut delta = DeltaBatch::new();
    delta.triple("Freshly_Appended_Film", "starring", anchor_name);
    let receipt = sg.apply(&delta);
    let dropped_receipt = cache.invalidate(&receipt);
    assert_eq!(cache.generation(), 1);
    assert_eq!(dropped_receipt, 1, "exactly the starring density drops");
    assert!(cache.probe_category(sf_star, cat).is_none());
    assert!(cache.probe_category(sf_dir, cat).is_some());

    // the refilled value is the exact global quantity of the new graph
    let ctx = ShardedContext::with_cache(&sg, 1, Arc::clone(&cache));
    let got = ctx.p_for_category(sf_star, cat);
    let mut union = base();
    union.apply(&delta);
    let fresh = QueryContext::with_threads(&union, 1);
    assert!((fresh.p_for_category(sf_star, cat) - got).abs() == 0.0);
}

#[test]
fn appends_racing_queries_converge_to_the_union() {
    let cfg = RankingConfig::default();
    let live = Arc::new(LiveStore::with_threads(base(), 1));
    let (seeds, star_names) = {
        let reader = live.read();
        let kg = reader.kg();
        let film = kg.type_id("Film").unwrap();
        let seeds: Vec<EntityId> = kg.type_extent(film)[..2].to_vec();
        let actor = kg.type_id("Actor").unwrap();
        let names: Vec<String> = kg.type_extent(actor)[..4]
            .iter()
            .map(|&a| kg.entity_name(a).to_owned())
            .collect();
        (seeds, names)
    };
    let deltas: Vec<DeltaBatch> = (0..8)
        .map(|i| {
            let mut d = DeltaBatch::new();
            d.triple(
                format!("Raced_Film_{i}"),
                "starring",
                star_names[i % star_names.len()].clone(),
            )
            .typed(format!("Raced_Film_{i}"), "Film");
            d
        })
        .collect();

    // query threads hammer the live graph while the appender applies
    // every delta; queries must never tear (extents and cache always
    // consistent) — the rankings they return are simply those of
    // whichever generation their read guard admitted
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let live = Arc::clone(&live);
            let seeds = seeds.clone();
            scope.spawn(move || {
                for _ in 0..12 {
                    let reader = live.read();
                    let ctx = reader.handle();
                    let features = ctx.rank_features(&cfg, &seeds);
                    let entities = ctx.rank_entities(&cfg, &seeds, &features);
                    // internal consistency of whatever snapshot we got
                    assert!(entities.windows(2).all(|w| {
                        w[0].score > w[1].score
                            || (w[0].score == w[1].score && w[0].entity < w[1].entity)
                    }));
                }
            });
        }
        let live = Arc::clone(&live);
        let deltas = &deltas;
        scope.spawn(move || {
            for d in deltas {
                live.append(d).expect("store healthy");
            }
        });
    });
    assert_eq!(live.generation(), 8);

    // quiescent state equals the from-scratch rebuild of the union
    let mut union = base();
    for d in &deltas {
        union.apply(d);
    }
    let fresh = QueryContext::with_threads(&union, 1);
    let want_f = fresh.rank_features(&cfg, &seeds);
    let want_e = fresh.rank_entities(&cfg, &seeds, &want_f);
    let reader = live.read();
    let ctx = reader.handle();
    let got_f = ctx.rank_features(&cfg, &seeds);
    assert_eq!(got_f, want_f, "post-race features must equal the union");
    let got_e = ctx.rank_entities(&cfg, &seeds, &got_f);
    assert_eq!(got_e.len(), want_e.len());
    for (a, b) in got_e.iter().zip(&want_e) {
        assert_eq!(a.entity, b.entity);
        assert!((a.score - b.score).abs() == 0.0, "post-race score drifted");
    }
}
