//! Experiment harness: runs the quality experiments (Q1/Q2/Q4/Q5 of
//! DESIGN.md) and renders fixed-width tables for EXPERIMENTS.md.

use crate::groundtruth::{ese_classes, search_cases, seed_trials, QueryKind, SearchCase};
use crate::metrics;
use pivote_baselines::EntityExpansion;
use pivote_core::{
    explain_cell, CellExplanation, Expander, GraphHandle, HeatMap, RankingConfig, SfQuery,
};
use pivote_kg::{EntityId, KnowledgeGraph, ShardedGraph, TypeCouplingStats};
use pivote_search::{Scorer, SearchEngine};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Configuration of the ESE quality experiment (Q1, A1, A2).
#[derive(Debug, Clone)]
pub struct EseEvalConfig {
    /// Seed-set sizes to sweep (paper-style m ∈ {1,2,3,5}).
    pub seed_sizes: Vec<usize>,
    /// Ranking cutoff.
    pub k: usize,
    /// Random trials per class per seed size.
    pub trials_per_class: usize,
    /// How many ground-truth classes to use.
    pub max_classes: usize,
    /// Class size bounds.
    pub class_size: (usize, usize),
    /// RNG seed for the seed-subset draws.
    pub seed: u64,
}

impl Default for EseEvalConfig {
    fn default() -> Self {
        Self {
            seed_sizes: vec![1, 2, 3, 5],
            k: 50,
            trials_per_class: 3,
            max_classes: 12,
            class_size: (10, 400),
            seed: 42,
        }
    }
}

/// Aggregated quality of one method at one seed-set size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EseResult {
    /// Method identifier.
    pub method: String,
    /// Seed-set size m.
    pub m: usize,
    /// Mean average precision.
    pub map: f64,
    /// Mean precision at 10.
    pub p10: f64,
    /// Mean nDCG at `k`.
    pub ndcg: f64,
    /// Mean recall at `k`.
    pub recall: f64,
    /// Number of (class × trial) queries aggregated.
    pub queries: usize,
}

/// Run the entity-set-expansion evaluation for every method on a fresh
/// context over `sg`.
///
/// All methods (and all PivotE ablations) execute on one shared
/// [`GraphHandle`]: the `p(π|c)` densities memoized by the first trial
/// are cache hits for every later trial, method and seed-set size.
pub fn run_ese_eval(
    sg: &ShardedGraph,
    methods: &[&dyn EntityExpansion],
    cfg: &EseEvalConfig,
) -> Vec<EseResult> {
    let handle = &GraphHandle::new(sg);
    let classes = ese_classes(sg, cfg.class_size.0, cfg.class_size.1, cfg.max_classes);
    let mut out = Vec::new();
    for method in methods {
        for &m in &cfg.seed_sizes {
            let mut aps = Vec::new();
            let mut p10s = Vec::new();
            let mut ndcgs = Vec::new();
            let mut recalls = Vec::new();
            for class in &classes {
                for seeds in seed_trials(class, m, cfg.trials_per_class, cfg.seed) {
                    let relevant: HashSet<EntityId> = class
                        .members
                        .iter()
                        .copied()
                        .filter(|e| !seeds.contains(e))
                        .collect();
                    if relevant.is_empty() {
                        continue;
                    }
                    let ranked: Vec<EntityId> = method
                        .expand_in(handle, &seeds, cfg.k)
                        .into_iter()
                        .map(|(e, _)| e)
                        .collect();
                    aps.push(metrics::average_precision(&ranked, &relevant));
                    p10s.push(metrics::precision_at_k(&ranked, &relevant, 10));
                    ndcgs.push(metrics::ndcg_at_k(&ranked, &relevant, cfg.k));
                    recalls.push(metrics::recall_at_k(&ranked, &relevant, cfg.k));
                }
            }
            out.push(EseResult {
                method: method.name().to_owned(),
                m,
                map: metrics::mean(&aps),
                p10: metrics::mean(&p10s),
                ndcg: metrics::mean(&ndcgs),
                recall: metrics::mean(&recalls),
                queries: aps.len(),
            });
        }
    }
    out
}

/// Render ESE results as a fixed-width table.
pub fn render_ese_table(results: &[EseResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>3} {:>8} {:>8} {:>8} {:>8} {:>7}",
        "method", "m", "MAP", "P@10", "nDCG", "recall", "queries"
    );
    let _ = writeln!(out, "{}", "-".repeat(62));
    for r in results {
        let _ = writeln!(
            out,
            "{:<14} {:>3} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>7}",
            r.method, r.m, r.map, r.p10, r.ndcg, r.recall, r.queries
        );
    }
    out
}

/// Aggregated quality of one search scorer on one query kind.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchResult {
    /// Scorer identifier.
    pub scorer: String,
    /// Query kind label.
    pub kind: String,
    /// Mean reciprocal rank.
    pub mrr: f64,
    /// Success at rank 1.
    pub s1: f64,
    /// Success within the top 10.
    pub s10: f64,
    /// Number of cases.
    pub cases: usize,
}

/// A named search configuration to evaluate.
pub struct SearchVariant<'a> {
    /// Table label.
    pub name: &'a str,
    /// The engine (owns the index).
    pub engine: &'a SearchEngine,
    /// Which scorer to invoke.
    pub scorer: Scorer,
}

/// Run the search quality evaluation (Q2).
pub fn run_search_eval(
    variants: &[SearchVariant<'_>],
    cases: &[SearchCase],
    k: usize,
) -> Vec<SearchResult> {
    let kinds = [
        (QueryKind::Label, "label"),
        (QueryKind::Alias, "alias"),
        (QueryKind::LabelWithContext, "label+type"),
    ];
    let mut out = Vec::new();
    for v in variants {
        for (kind, kind_name) in kinds {
            let subset: Vec<&SearchCase> = cases.iter().filter(|c| c.kind == kind).collect();
            if subset.is_empty() {
                continue;
            }
            let mut rrs = Vec::new();
            let mut s1 = 0usize;
            let mut s10 = 0usize;
            for case in &subset {
                let ranked: Vec<EntityId> = v
                    .engine
                    .search_with(&case.query, k, v.scorer)
                    .into_iter()
                    .map(|h| h.entity)
                    .collect();
                let rr = metrics::reciprocal_rank(&ranked, case.target);
                rrs.push(rr);
                if rr == 1.0 {
                    s1 += 1;
                }
                if rr >= 0.1 {
                    s10 += 1;
                }
            }
            out.push(SearchResult {
                scorer: v.name.to_owned(),
                kind: kind_name.to_owned(),
                mrr: metrics::mean(&rrs),
                s1: s1 as f64 / subset.len() as f64,
                s10: s10 as f64 / subset.len() as f64,
                cases: subset.len(),
            });
        }
    }
    out
}

/// Render search results as a fixed-width table.
pub fn render_search_table(results: &[SearchResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<12} {:>8} {:>8} {:>8} {:>7}",
        "scorer", "query kind", "MRR", "S@1", "S@10", "cases"
    );
    let _ = writeln!(out, "{}", "-".repeat(66));
    for r in results {
        let _ = writeln!(
            out,
            "{:<18} {:<12} {:>8.4} {:>8.4} {:>8.4} {:>7}",
            r.scorer, r.kind, r.mrr, r.s1, r.s10, r.cases
        );
    }
    out
}

/// Convenience: build `cases` with defaults (used by the Q2 binary and
/// tests).
pub fn default_search_cases(kg: &KnowledgeGraph, n: usize) -> Vec<SearchCase> {
    search_cases(kg, n, 42)
}

/// Q4: heat-map structure report — level histogram plus, per level, the
/// fraction of cells explained by a direct match.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeatmapReport {
    /// Cells per level 0..=6.
    pub histogram: [usize; 7],
    /// Per level: fraction of cells whose explanation is a direct match.
    pub direct_fraction: [f64; 7],
    /// Matrix dimensions (entities, features).
    pub dims: (usize, usize),
}

/// Compute the heat-map report for a seed query on a fresh context over
/// `sg`.
///
/// Expansion, heat-map computation and the per-cell explanations all run
/// on one handle, so the explanation pass below is pure cache hits over
/// the densities the heat map already computed.
pub fn run_heatmap_report(
    sg: &ShardedGraph,
    seeds: &[EntityId],
    k_entities: usize,
    k_features: usize,
) -> HeatmapReport {
    let expander = Expander::new(sg, RankingConfig::default());
    let res = expander.expand(&SfQuery::from_seeds(seeds.to_vec()), k_entities, k_features);
    let entities: Vec<EntityId> = res.entities.iter().map(|re| re.entity).collect();
    let hm = HeatMap::compute(expander.ranker(), &entities, &res.features);
    let histogram = hm.level_histogram();
    let mut direct = [0usize; 7];
    for (row, rf) in hm.features.iter().enumerate() {
        for (col, &e) in hm.entities.iter().enumerate() {
            let level = hm.level(row, col) as usize;
            if matches!(
                explain_cell(expander.ranker(), rf.feature, e),
                CellExplanation::DirectMatch
            ) {
                direct[level] += 1;
            }
        }
    }
    let mut direct_fraction = [0.0f64; 7];
    for l in 0..7 {
        if histogram[l] > 0 {
            direct_fraction[l] = direct[l] as f64 / histogram[l] as f64;
        }
    }
    HeatmapReport {
        histogram,
        direct_fraction,
        dims: (hm.width(), hm.height()),
    }
}

/// Q5: pivot quality — fraction of pivots from a domain that land in a
/// type statistically coupled to it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PivotReport {
    /// Pivots attempted.
    pub attempted: usize,
    /// Pivots whose destination type is coupled to the source type.
    pub coupled: usize,
}

impl PivotReport {
    /// Success fraction.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.coupled as f64 / self.attempted as f64
        }
    }
}

/// Evaluate pivots: for `n` entities of `source_type`, pivot through each
/// of their features and check the landing domain against the
/// type-coupling statistics.
pub fn run_pivot_eval(
    kg: &KnowledgeGraph,
    source_type: pivote_kg::TypeId,
    n: usize,
) -> PivotReport {
    use pivote_core::features_of;
    let stats = TypeCouplingStats::compute(kg);
    let coupled_types: HashSet<pivote_kg::TypeId> = stats
        .coupled_types(source_type)
        .into_iter()
        .map(|(t, _)| t)
        .chain(
            // incoming couplings count too: X —p→ source
            kg.type_ids().filter(|&t| {
                stats
                    .coupled_types(t)
                    .iter()
                    .any(|&(ot, _)| ot == source_type)
            }),
        )
        .collect();
    let mut attempted = 0usize;
    let mut coupled = 0usize;
    for &e in kg.type_extent(source_type).iter().take(n) {
        for sf in features_of(kg, e) {
            // dominant type of the feature's *anchor* — the domain a pivot
            // through this feature switches to
            let anchor_types: Vec<pivote_kg::TypeId> = kg.types_of(sf.anchor).collect();
            if anchor_types.is_empty() {
                continue;
            }
            attempted += 1;
            if anchor_types.iter().any(|t| coupled_types.contains(t)) {
                coupled += 1;
            }
        }
    }
    PivotReport { attempted, coupled }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_baselines::{FreqOverlapExpansion, JaccardExpansion, PivotEExpansion};
    use pivote_kg::DatagenConfig;
    use pivote_search::SearchConfig;

    fn kg() -> KnowledgeGraph {
        pivote_kg::generate(&DatagenConfig::small())
    }

    #[test]
    fn ese_eval_produces_rows_for_every_method_and_m() {
        let kg = kg();
        let pivote = PivotEExpansion::default();
        let jaccard = JaccardExpansion;
        let methods: Vec<&dyn EntityExpansion> = vec![&pivote, &jaccard];
        let cfg = EseEvalConfig {
            seed_sizes: vec![1, 2],
            max_classes: 3,
            trials_per_class: 1,
            ..EseEvalConfig::default()
        };
        let results = run_ese_eval(&ShardedGraph::from(kg), &methods, &cfg);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.queries > 0));
        assert!(results.iter().all(|r| (0.0..=1.0).contains(&r.map)));
        let table = render_ese_table(&results);
        assert!(table.contains("pivote"));
        assert!(table.contains("jaccard"));
    }

    #[test]
    fn pivote_beats_freq_overlap_on_planted_classes() {
        // The headline shape: the paper's weighted model should beat raw
        // overlap counting on MAP.
        let kg = kg();
        let pivote = PivotEExpansion::default();
        let freq = FreqOverlapExpansion;
        let methods: Vec<&dyn EntityExpansion> = vec![&pivote, &freq];
        let cfg = EseEvalConfig {
            seed_sizes: vec![2],
            max_classes: 6,
            trials_per_class: 2,
            ..EseEvalConfig::default()
        };
        let results = run_ese_eval(&ShardedGraph::from(kg), &methods, &cfg);
        let map_of = |name: &str| {
            results
                .iter()
                .find(|r| r.method == name)
                .map(|r| r.map)
                .unwrap()
        };
        assert!(
            map_of("pivote") > map_of("freq-overlap"),
            "pivote {} <= freq {}",
            map_of("pivote"),
            map_of("freq-overlap")
        );
    }

    #[test]
    fn search_eval_scores_all_kinds() {
        let kg = kg();
        let engine = SearchEngine::build(&kg, SearchConfig::default());
        let cases = default_search_cases(&kg, 10);
        let variants = [
            SearchVariant {
                name: "lm-mixture",
                engine: &engine,
                scorer: Scorer::MixtureLm,
            },
            SearchVariant {
                name: "bm25f",
                engine: &engine,
                scorer: Scorer::Bm25,
            },
        ];
        let results = run_search_eval(&variants, &cases, 20);
        assert_eq!(results.len(), 6); // 2 scorers × 3 kinds
        for r in &results {
            assert!((0.0..=1.0).contains(&r.mrr));
            assert!(r.s1 <= r.s10 + 1e-12);
        }
        let label_lm = results
            .iter()
            .find(|r| r.scorer == "lm-mixture" && r.kind == "label")
            .unwrap();
        assert!(
            label_lm.mrr > 0.3,
            "label queries should mostly work: {}",
            label_lm.mrr
        );
        assert!(!render_search_table(&results).is_empty());
    }

    #[test]
    fn heatmap_report_is_consistent() {
        let sg = ShardedGraph::from(kg());
        let film = sg.type_id("Film").unwrap();
        let seeds = &sg.type_extent(film)[..2];
        let rep = run_heatmap_report(&sg, seeds, 10, 8);
        assert_eq!(rep.histogram.iter().sum::<usize>(), rep.dims.0 * rep.dims.1);
        // level 6 cells should be direct matches far more often than level 1
        assert!(rep
            .direct_fraction
            .iter()
            .all(|&f| (0.0..=1.0).contains(&f)));
    }

    #[test]
    fn pivot_eval_mostly_lands_in_coupled_domains() {
        let kg = kg();
        let film = kg.type_id("Film").unwrap();
        let rep = run_pivot_eval(&kg, film, 20);
        assert!(rep.attempted > 0);
        assert!(
            rep.success_rate() > 0.9,
            "pivots from Film should land in coupled types: {}",
            rep.success_rate()
        );
    }
}
