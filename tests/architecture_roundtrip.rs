//! F2 — the architecture of Fig. 2: user interface ↔ search engine ↔
//! recommendation engine, wired through one `Session` and exercised end
//! to end.

use pivote::prelude::*;

fn kg() -> KnowledgeGraph {
    generate(&DatagenConfig::small())
}

#[test]
fn search_engine_feeds_recommendation_engine() {
    let kg = kg();
    let sg = ShardedGraph::from(kg.clone());
    let mut session = Session::with_defaults(&sg);

    // UI -> search engine: keyword query.
    let film = kg.type_id("Film").unwrap();
    let target = kg.type_extent(film)[0];
    let view = session.submit_keywords(&kg.display_name(target));
    assert!(!view.entities.is_empty(), "search produced no entities");
    assert_eq!(
        view.entities[0].entity, target,
        "label query must rank its entity first"
    );

    // search result -> recommendation engine: click = investigate.
    let view = session.click_entity(target);
    assert!(!view.entities.is_empty(), "expansion produced no entities");
    assert!(!view.features.is_empty(), "expansion produced no features");

    // recommendation -> explanation: the heat map covers both axes and
    // quantizes into the paper's seven levels.
    let hm = &view.heatmap;
    assert_eq!(hm.width(), view.entities.len());
    assert_eq!(hm.height(), view.features.len());
    assert!(hm.levels.iter().all(|&l| l < 7));
    assert!(
        hm.levels.iter().any(|&l| l > 0),
        "heat map is entirely blank"
    );
}

#[test]
fn every_ui_area_of_fig3_is_populated() {
    let kg = kg();
    let sg = ShardedGraph::from(kg.clone());
    let mut session = Session::with_defaults(&sg);
    let film = kg.type_id("Film").unwrap();
    let seed = kg.type_extent(film)[0];
    session.click_entity(seed);
    session.lookup(session.view().entities[0].entity);

    let view = session.view();
    assert!(!view.query.is_empty(), "query area (a/b)");
    assert!(!view.entities.is_empty(), "entity recommendation area (c)");
    assert!(view.focus.is_some(), "entity presentation area (d)");
    assert!(!view.features.is_empty(), "feature recommendation area (e)");
    assert!(view.heatmap.width() > 0, "explanation area (f)");
    assert!(!session.timeline().is_empty(), "timeline (g)");

    // The rendered screen mentions every area.
    let screen = render_view(&kg, view);
    for marker in ["Fig 3-c", "Fig 3-d", "Fig 3-e", "Fig 3-f"] {
        assert!(screen.contains(marker), "missing {marker}");
    }
}

#[test]
fn append_then_save_equals_rebuild_then_save() {
    // the incremental store's per-row storage must not drift from what a
    // from-scratch rebuild serializes: append-then-save is *byte*
    // identical to rebuild-then-save, and loads back to the same logical
    // graph — the guard that keeps snapshots portable across the build
    // paths (rebuild, append, sharded append + union rebuild, compaction)
    let kg = generate(&DatagenConfig::tiny());

    let (mut appended, delta) = pivote_kg::split_incremental(&kg, 0.5);
    appended.apply(&delta);
    let rebuilt = pivote_kg::split_incremental(&kg, 1.0).0;

    let mut via_append = Vec::new();
    pivote_kg::snapshot::save(&appended, &mut via_append).unwrap();
    let mut via_rebuild = Vec::new();
    pivote_kg::snapshot::save(&rebuilt, &mut via_rebuild).unwrap();
    let mut via_source = Vec::new();
    pivote_kg::snapshot::save(&kg, &mut via_source).unwrap();
    assert_eq!(
        via_append, via_rebuild,
        "append-then-save must serialize the exact bytes rebuild-then-save does"
    );
    assert_eq!(
        via_rebuild, via_source,
        "rebuild preserves the source bytes"
    );

    // the loaded graph is the same logical graph (N-Triples fingerprint)
    let loaded = pivote_kg::snapshot::load(&mut via_append.as_slice()).unwrap();
    assert_eq!(loaded.entity_count(), kg.entity_count());
    assert_eq!(loaded.triple_count(), kg.triple_count());
    assert_eq!(pivote_kg::serialize(&loaded), pivote_kg::serialize(&kg));

    // and the sharded growth path — apply entity-minting batches through
    // the router, compact, union-rebuild — snapshots to the same bytes
    let (base, batches) = pivote_kg::split_growth(&kg, 0.7, 2);
    let mut sg = pivote_kg::ShardedGraph::from_graph(&base, 2);
    for b in &batches {
        sg.apply(b);
    }
    let mut via_sharded = Vec::new();
    pivote_kg::snapshot::save(&sg.to_graph(), &mut via_sharded).unwrap();
    assert_eq!(via_sharded, via_source, "sharded append + union rebuild");
    let mut via_compacted = Vec::new();
    pivote_kg::snapshot::save(&sg.compact(3).to_graph(), &mut via_compacted).unwrap();
    assert_eq!(via_compacted, via_source, "compaction + union rebuild");
}

#[test]
fn warm_state_sidecar_survives_a_restart_with_bit_identical_rankings() {
    // persisted context warm-state: serialize the p(π|c) cache next to
    // the snapshot, reload both, and the warm rankings must be *byte*
    // identical to the cold ones — with zero densities recomputed
    use pivote_core::GraphHandle;
    use std::sync::Arc;

    let kg = generate(&DatagenConfig::tiny());
    let film = kg.type_id("Film").unwrap();
    let seeds = kg.type_extent(film)[..2].to_vec();
    let cfg = RankingConfig::default();

    let dir = std::env::temp_dir();
    let snapshot_path = dir.join("pivote_warm_arch.pvte");
    let sidecar = pivote_core::warm_sidecar_path(&snapshot_path);
    pivote_kg::snapshot::save_to_path(&kg, &snapshot_path).unwrap();

    // cold run: fill the cache, record the rankings, persist the sidecar
    // stamped with the snapshot's content fingerprint
    let cache = Arc::new(pivote_core::SharedCache::new());
    let (cold_f, cold_e) = {
        let ctx_sg = ShardedGraph::from(kg.clone());
        let ctx = GraphHandle::with_cache(&ctx_sg, 1, Arc::clone(&cache));
        let f = ctx.rank_features(&cfg, &seeds);
        let e = ctx.rank_entities(&cfg, &seeds, &f);
        (f, e)
    };
    let filled = cache.cached_probability_count();
    assert!(filled > 0, "the cold run must fill the cache");
    pivote_core::save_warm_state(&cache, pivote_kg::fingerprint(&kg), &sidecar).unwrap();

    // "server restart": reload the snapshot and the warm sidecar — the
    // loaded graph's fingerprint must accept the sidecar (the mutation
    // generation resets on load, which is exactly why the pairing key
    // is the content fingerprint)
    let kg2 = pivote_kg::snapshot::load_from_path(&snapshot_path).unwrap();
    assert_eq!(pivote_kg::fingerprint(&kg2), pivote_kg::fingerprint(&kg));
    let warm = pivote_core::load_warm_state(&sidecar, pivote_kg::fingerprint(&kg2)).unwrap();
    assert_eq!(
        warm.cached_probability_count(),
        filled,
        "every persisted density must survive the roundtrip"
    );
    let ctx_sg = ShardedGraph::from(kg2.clone());
    let ctx = GraphHandle::with_cache(&ctx_sg, 1, Arc::clone(&warm));
    let warm_f = ctx.rank_features(&cfg, &seeds);
    assert_eq!(warm_f, cold_f, "warm features must equal cold features");
    let warm_e = ctx.rank_entities(&cfg, &seeds, &warm_f);
    assert_eq!(warm_e.len(), cold_e.len());
    for (a, b) in warm_e.iter().zip(&cold_e) {
        assert_eq!(a.entity, b.entity);
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "warm score must be bit-identical to cold"
        );
    }
    assert_eq!(
        warm.cached_probability_count(),
        filled,
        "the warm run must be pure cache hits — no density recomputed"
    );

    // a logically different graph refuses the sidecar (start cold)
    let mut grown = pivote_kg::snapshot::load_from_path(&snapshot_path).unwrap();
    let mut d = pivote_kg::DeltaBatch::new();
    d.entity("Warm_Staleness_Probe");
    grown.apply(&d);
    assert!(matches!(
        pivote_core::load_warm_state(&sidecar, pivote_kg::fingerprint(&grown)),
        Err(pivote_core::WarmStateError::StaleSidecar { .. })
    ));

    let _ = std::fs::remove_file(&snapshot_path);
    let _ = std::fs::remove_file(&sidecar);
}

#[test]
fn recommendations_are_deterministic_across_sessions() {
    let kg = kg();
    let film = kg.type_id("Film").unwrap();
    let seed = kg.type_extent(film)[0];

    let sg = ShardedGraph::from(kg.clone());
    let mut s1 = Session::with_defaults(&sg);
    let sg = ShardedGraph::from(kg.clone());
    let mut s2 = Session::with_defaults(&sg);
    let v1 = s1.click_entity(seed).clone();
    let v2 = s2.click_entity(seed).clone();
    assert_eq!(
        v1.entities.iter().map(|re| re.entity).collect::<Vec<_>>(),
        v2.entities.iter().map(|re| re.entity).collect::<Vec<_>>()
    );
    assert_eq!(
        v1.features.iter().map(|rf| rf.feature).collect::<Vec<_>>(),
        v2.features.iter().map(|rf| rf.feature).collect::<Vec<_>>()
    );
    assert_eq!(v1.heatmap.levels, v2.heatmap.levels);
}
