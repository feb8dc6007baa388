//! Keyword search over a [`ShardedGraph`]: one engine per shard, scored
//! against statistics merged over the whole partition.

use crate::corpus::CorpusStats;
use crate::engine::{Hit, Scorer, SearchEngine};
use pivote_kg::{EntityId, ShardedGraph};
use std::sync::Arc;

/// The keyword-search component of one graph generation: one index per
/// shard (indexed over the shard-local graph, with related-names
/// neighbours selected in global-id order) plus the globally-merged
/// corpus statistics every shard scores against. Hits are filtered to
/// owned entities (ghosts are re-indexed by their home shard), remapped
/// to global ids and merged by `(score desc, id asc)` — the same scores
/// and order at every shard count, bit for bit.
///
/// Engines are `Arc`-held, so the backend is `Clone` at pointer cost:
/// N searches index-share while running **concurrently**.
#[derive(Clone)]
pub struct SearchBackend {
    /// One engine per shard, in shard order.
    pub engines: Vec<Arc<SearchEngine>>,
    /// Merged owned-document statistics across all shards.
    pub corpus: Arc<CorpusStats>,
}

impl SearchBackend {
    /// The backend of `engines`, one per shard of `sg` in shard order,
    /// with their owned documents merged into the corpus statistics.
    pub fn new(engines: Vec<Arc<SearchEngine>>, sg: &ShardedGraph) -> Self {
        let mut corpus = CorpusStats::new();
        absorb_owned(&mut corpus, &engines, sg, 0);
        Self {
            engines,
            corpus: Arc::new(corpus),
        }
    }

    /// The backend of `engines`, whose prefix is exactly `self.engines`
    /// (only trailing shards were added): the merged statistics are
    /// extended by the new shards' owned documents — O(delta), not
    /// O(partition) — and shared outright when nothing was added.
    pub fn extended(&self, engines: Vec<Arc<SearchEngine>>, sg: &ShardedGraph) -> Self {
        let known = self.engines.len();
        let corpus = if engines.len() == known {
            Arc::clone(&self.corpus)
        } else {
            let mut merged = (*self.corpus).clone();
            absorb_owned(&mut merged, &engines, sg, known);
            Arc::new(merged)
        };
        Self { engines, corpus }
    }

    /// Top-`k` keyword hits over `sg`, the graph the engines index.
    pub fn hits(&self, sg: &ShardedGraph, query: &str, k: usize) -> Vec<Hit> {
        let mut hits: Vec<Hit> = self
            .engines
            .iter()
            .zip(sg.shards())
            .flat_map(|(engine, shard)| {
                // fetch ALL of the shard's matches, not the top k: ghost
                // hits are dropped below, and truncating before the ghost
                // filter could starve owned matches ranked behind k ghosts
                engine
                    .search_in(query, usize::MAX, Scorer::MixtureLm, self.corpus.as_ref())
                    .into_iter()
                    // drop ghost hits: the home shard re-indexes them
                    .filter(|h| shard.is_owned(h.entity))
                    .map(|h| Hit {
                        entity: shard.to_global(h.entity),
                        score: h.score,
                    })
            })
            .collect();
        hits.sort_unstable_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.entity.cmp(&b.entity))
        });
        hits.truncate(k);
        hits
    }
}

/// Count the owned documents of `engines[from..]` (shard order over
/// `sg`) into `corpus`; ghost copies are skipped — their home shard
/// indexes them.
fn absorb_owned(
    corpus: &mut CorpusStats,
    engines: &[Arc<SearchEngine>],
    sg: &ShardedGraph,
    from: usize,
) {
    for (engine, shard) in engines.iter().zip(sg.shards()).skip(from) {
        corpus.absorb(engine.index(), |d| shard.is_owned(EntityId::new(d)));
    }
}
