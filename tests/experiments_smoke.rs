//! Small-scale versions of the quality experiments (Q1/Q2/Q4/Q5): the
//! *shape* the paper claims must hold — the semantic-feature model wins,
//! the multi-field representation helps, pivots land in coupled domains
//! — and the Q1/Q2 tables themselves, pinned byte for byte against
//! `tests/golden/exp_*_small.txt` (regenerate after an *intentional*
//! model change with `PIVOTE_GOLDEN_WRITE=1 cargo test -q --test
//! experiments_smoke`).

use pivote::prelude::*;
use pivote_baselines::{
    EntityExpansion, FreqOverlapExpansion, JaccardExpansion, PivotEExpansion, PprExpansion,
};
use pivote_eval::{
    default_search_cases, render_ese_table, render_search_table, run_ese_eval, run_heatmap_report,
    run_pivot_eval, run_search_eval, EseEvalConfig, SearchVariant,
};
use pivote_search::{Field, FieldWeights};

fn kg() -> KnowledgeGraph {
    generate(&DatagenConfig::small())
}

/// Compare a rendered experiment table with `tests/golden/<file>`.
fn assert_matches_golden(file: &str, rendered: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("PIVOTE_GOLDEN_WRITE").is_ok() {
        std::fs::write(&path, rendered).expect("golden written");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file exists — regenerate with PIVOTE_GOLDEN_WRITE=1");
    assert_eq!(rendered, golden, "{file} drifted from the golden table");
}

#[test]
fn q1_pivote_wins_map_against_all_baselines() {
    let kg = kg();
    let pivote = PivotEExpansion::default();
    let jaccard = JaccardExpansion;
    let ppr = PprExpansion::default();
    let freq = FreqOverlapExpansion;
    let methods: Vec<&dyn EntityExpansion> = vec![&pivote, &jaccard, &ppr, &freq];
    let cfg = EseEvalConfig {
        seed_sizes: vec![2],
        max_classes: 6,
        trials_per_class: 2,
        ..EseEvalConfig::default()
    };
    let results = run_ese_eval(&kg, &methods, &cfg);
    let map_of = |name: &str| {
        results
            .iter()
            .find(|r| r.method == name)
            .unwrap_or_else(|| panic!("missing {name}"))
            .map
    };
    let pivote_map = map_of("pivote");
    for baseline in ["jaccard", "ppr", "freq-overlap"] {
        assert!(
            pivote_map > map_of(baseline),
            "pivote MAP {pivote_map:.4} <= {baseline} MAP {:.4}",
            map_of(baseline)
        );
    }
    assert_matches_golden("exp_ese_small.txt", &render_ese_table(&results));
}

#[test]
fn a1_error_tolerance_helps_and_a2_discriminability_is_not_catastrophic() {
    let kg = kg();
    let full = PivotEExpansion::default();
    let no_et = PivotEExpansion::without_error_tolerance();
    let no_d = PivotEExpansion::without_discriminability();
    let methods: Vec<&dyn EntityExpansion> = vec![&full, &no_et, &no_d];
    let cfg = EseEvalConfig {
        seed_sizes: vec![3],
        max_classes: 6,
        trials_per_class: 2,
        ..EseEvalConfig::default()
    };
    let results = run_ese_eval(&kg, &methods, &cfg);
    let map_of = |name: &str| results.iter().find(|r| r.method == name).unwrap().map;
    // A1: the error-tolerant estimate is the paper's key trick; dropping
    // it must hurt.
    assert!(
        map_of("pivote") > map_of("pivote-noet"),
        "error tolerance should help: full {} vs no-ET {}",
        map_of("pivote"),
        map_of("pivote-noet")
    );
    // A2: on the synthetic KG discriminability is a small effect — the
    // ablation must stay in the same ballpark (within 20% relative).
    assert!(
        (map_of("pivote") - map_of("pivote-nod")).abs() <= 0.2 * map_of("pivote").max(1e-9),
        "discriminability ablation moved MAP too far: full {} vs no-d {}",
        map_of("pivote"),
        map_of("pivote-nod")
    );
}

#[test]
fn q2_multifield_lm_beats_names_only_on_alias_queries() {
    let kg = kg();
    let full = SearchEngine::with_defaults(&kg);
    let names_only = {
        let mut cfg = SearchConfig::default();
        cfg.lm.weights = FieldWeights::single(Field::Names);
        SearchEngine::build(&kg, cfg)
    };
    let cases = default_search_cases(&kg, 40);
    let variants = [
        SearchVariant {
            name: "lm-mixture",
            engine: &full,
            scorer: Scorer::MixtureLm,
        },
        SearchVariant {
            name: "lm-names-only",
            engine: &names_only,
            scorer: Scorer::MixtureLm,
        },
    ];
    let results = run_search_eval(&variants, &cases, 50);
    let mrr = |scorer: &str, kind: &str| {
        results
            .iter()
            .find(|r| r.scorer == scorer && r.kind == kind)
            .map(|r| r.mrr)
            .unwrap_or(0.0)
    };
    // Aliases are only indexed in the "similar entity names" field, so the
    // five-field mixture must win there.
    assert!(
        mrr("lm-mixture", "alias") > mrr("lm-names-only", "alias"),
        "mixture {} <= names-only {} on alias queries",
        mrr("lm-mixture", "alias"),
        mrr("lm-names-only", "alias")
    );
    // And label queries must work well for the mixture.
    assert!(mrr("lm-mixture", "label") > 0.5);
    assert_matches_golden("exp_search_small.txt", &render_search_table(&results));
}

#[test]
fn q4_darker_heatmap_levels_are_more_direct() {
    let kg = kg();
    let film = kg.type_id("Film").unwrap();
    let seeds = &kg.type_extent(film)[..2];
    let rep = run_heatmap_report(&kg, seeds, 15, 10);
    assert_eq!(rep.histogram.iter().sum::<usize>(), rep.dims.0 * rep.dims.1);
    // the strongest populated level must have a higher direct-match rate
    // than the weakest populated nonzero level
    let populated: Vec<usize> = (1..7).filter(|&l| rep.histogram[l] > 0).collect();
    if populated.len() >= 2 {
        let lo = populated[0];
        let hi = *populated.last().unwrap();
        assert!(
            rep.direct_fraction[hi] >= rep.direct_fraction[lo],
            "level {hi} direct {:.2} < level {lo} direct {:.2}",
            rep.direct_fraction[hi],
            rep.direct_fraction[lo]
        );
    }
}

#[test]
fn q5_pivots_from_every_major_domain_land_coupled() {
    let kg = kg();
    for name in ["Film", "Actor", "Director"] {
        let t = kg.type_id(name).unwrap();
        let rep = run_pivot_eval(&kg, t, 15);
        assert!(rep.attempted > 0, "{name}: no pivots attempted");
        assert!(
            rep.success_rate() > 0.8,
            "{name}: pivot success only {:.2}",
            rep.success_rate()
        );
    }
}
