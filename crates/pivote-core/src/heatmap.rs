//! The explanation heat map (paper Fig. 3-f).
//!
//! "We divide the correlation of entities and semantic features into seven
//! levels, and visualize them with a heat-map." The correlation of entity
//! `e` (x-axis) and feature `π` (y-axis) is `p(π|e) · r(π, Q)` — how
//! strongly the feature applies to the entity, weighted by how relevant
//! the feature is to the query. Raw values are quantized into levels
//! `0..=6` (0 = no correlation, 6 = strongest in this matrix).

use crate::ranking::{RankedFeature, Ranker};
use pivote_kg::EntityId;
use serde::{Deserialize, Serialize};

/// Number of heat levels (paper: seven).
pub const HEAT_LEVELS: u8 = 7;

/// A dense entities × features correlation matrix with quantized levels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeatMap {
    /// X-axis: the recommended entities, in rank order.
    pub entities: Vec<EntityId>,
    /// Y-axis: the recommended features, in rank order.
    pub features: Vec<RankedFeature>,
    /// Row-major raw correlations: `values[f * entities.len() + e]`.
    pub values: Vec<f64>,
    /// Quantized levels, same layout, each in `0..HEAT_LEVELS`.
    pub levels: Vec<u8>,
}

impl HeatMap {
    /// Compute the matrix for the given axes.
    ///
    /// `features` should be the query's ranked features (carrying
    /// `r(π, Q)` in their `score`); `entities` the recommended entities.
    /// Rows are computed in parallel on the ranker's shared
    /// [`crate::handle::GraphHandle`]; the memoized `p(π|c)` densities mean cells explaining
    /// already-ranked entities are cache hits.
    pub fn compute(ranker: &Ranker<'_>, entities: &[EntityId], features: &[RankedFeature]) -> Self {
        let handle = ranker.handle();
        let config = ranker.config();
        let rows = handle.par_map(features, |rf| {
            entities
                .iter()
                .map(|&e| handle.p_feature_given_entity(config, rf.feature, e) * rf.score)
                .collect::<Vec<f64>>()
        });
        let values: Vec<f64> = rows.into_iter().flatten().collect();
        let levels = quantize(&values);
        Self {
            entities: entities.to_vec(),
            features: features.to_vec(),
            values,
            levels,
        }
    }

    /// Number of columns (entities).
    pub fn width(&self) -> usize {
        self.entities.len()
    }

    /// Number of rows (features).
    pub fn height(&self) -> usize {
        self.features.len()
    }

    /// Raw correlation at (feature row, entity column).
    pub fn value(&self, feature_row: usize, entity_col: usize) -> f64 {
        self.values[feature_row * self.width() + entity_col]
    }

    /// Quantized level at (feature row, entity column), in `0..=6`.
    pub fn level(&self, feature_row: usize, entity_col: usize) -> u8 {
        self.levels[feature_row * self.width() + entity_col]
    }

    /// Histogram of levels: `out[l]` = number of cells at level `l`.
    pub fn level_histogram(&self) -> [usize; HEAT_LEVELS as usize] {
        let mut hist = [0usize; HEAT_LEVELS as usize];
        for &l in &self.levels {
            hist[l as usize] += 1;
        }
        hist
    }
}

/// Quantize raw correlations to `0..=6`: zero stays 0; positive values are
/// binned linearly between 1 and 6 relative to the matrix maximum.
fn quantize(values: &[f64]) -> Vec<u8> {
    let max = values.iter().copied().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if v <= 0.0 || max <= 0.0 {
                0
            } else {
                let bin = (5.0 * v / max).floor() as u8;
                1 + bin.min(5)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RankingConfig;
    use crate::handle::GraphHandle;
    use pivote_kg::{KgBuilder, KnowledgeGraph, ShardedGraph};

    fn kg() -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        let f1 = b.entity("f1");
        let f2 = b.entity("f2");
        let f3 = b.entity("f3");
        let a = b.entity("A");
        let bb = b.entity("B");
        let starring = b.predicate("starring");
        b.triple(f1, starring, a);
        b.triple(f1, starring, bb);
        b.triple(f2, starring, a);
        b.triple(f2, starring, bb);
        b.triple(f3, starring, bb);
        for f in [f1, f2, f3] {
            b.categorized(f, "films");
        }
        b.finish()
    }

    fn build() -> (KnowledgeGraph, Vec<EntityId>, Vec<RankedFeature>, HeatMap) {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let ranker = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let f1 = kg.entity("f1").unwrap();
        let features = ranker.rank_features(&[f1]);
        let entities = ranker
            .rank_entities(&[f1], &features)
            .into_iter()
            .map(|re| re.entity)
            .collect::<Vec<_>>();
        let hm = HeatMap::compute(&ranker, &entities, &features);
        (kg, entities, features, hm)
    }

    #[test]
    fn dimensions_match_axes() {
        let (_, entities, features, hm) = build();
        assert_eq!(hm.width(), entities.len());
        assert_eq!(hm.height(), features.len());
        assert_eq!(hm.values.len(), hm.width() * hm.height());
        assert_eq!(hm.levels.len(), hm.values.len());
    }

    #[test]
    fn levels_are_in_range_and_consistent_with_values() {
        let (_, _, _, hm) = build();
        let max = hm.values.iter().copied().fold(0.0f64, f64::max);
        for row in 0..hm.height() {
            for col in 0..hm.width() {
                let l = hm.level(row, col);
                assert!(l < HEAT_LEVELS);
                let v = hm.value(row, col);
                if v == max && max > 0.0 {
                    assert_eq!(l, 6, "max cell must be darkest");
                }
                if v <= 0.0 {
                    assert_eq!(l, 0);
                }
            }
        }
    }

    #[test]
    fn stronger_correlation_never_gets_lighter_level() {
        let (_, _, _, hm) = build();
        let mut cells: Vec<(f64, u8)> = hm
            .values
            .iter()
            .copied()
            .zip(hm.levels.iter().copied())
            .collect();
        cells.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert!(cells.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn exact_match_cell_beats_smoothed_cell() {
        let (kg, entities, features, hm) = build();
        let f2 = kg.entity("f2").unwrap();
        let f3 = kg.entity("f3").unwrap();
        let col_f2 = entities.iter().position(|&e| e == f2).unwrap();
        let col_f3 = entities.iter().position(|&e| e == f3).unwrap();
        // row 0 is sf_a (A:starring); f2 matches exactly, f3 only via category
        let row = 0;
        assert_eq!(features[row].feature.display(&kg), "A:starring");
        assert!(hm.value(row, col_f2) > hm.value(row, col_f3));
    }

    #[test]
    fn empty_axes_give_empty_matrix() {
        let kg = kg();
        let sg = ShardedGraph::from(kg.clone());
        let ranker = Ranker::with_handle(GraphHandle::new(&sg), RankingConfig::default());
        let hm = HeatMap::compute(&ranker, &[], &[]);
        assert_eq!(hm.width(), 0);
        assert_eq!(hm.height(), 0);
        assert_eq!(hm.level_histogram(), [0; 7]);
    }

    #[test]
    fn histogram_sums_to_cell_count() {
        let (_, _, _, hm) = build();
        let hist = hm.level_histogram();
        assert_eq!(hist.iter().sum::<usize>(), hm.values.len());
    }
}
