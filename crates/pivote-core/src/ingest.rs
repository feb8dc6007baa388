//! Streaming N-Triples ingest over a [`LiveStore`].
//!
//! [`StreamingIngest`] couples [`pivote_kg::parse_stream`] to
//! [`LiveStore::append`]: the dump flows from any [`io::BufRead`] through
//! a reused line buffer into bounded [`DeltaBatch`](pivote_kg::DeltaBatch)es, each applied under
//! the store's write lock as it completes. Peak ingest-side memory is
//! O(batch), never O(dump) — the document is never held in memory, and
//! the batch is cleared and reused after every append.
//!
//! Queries keep running throughout (readers take the lock only per
//! batch), and a [`MaintenanceHandle`](crate::MaintenanceHandle) spawned
//! on the same store absorbs the trailing shards each batch leaves
//! behind, so the store stays balanced *during* the ingest rather
//! than after it:
//!
//! ```
//! use pivote_core::{LiveStore, MaintenanceHandle, StreamingIngest};
//! use pivote_kg::{CompactionPolicy, KgBuilder, ShardedGraph};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let empty = KgBuilder::new().finish();
//! let store = Arc::new(LiveStore::new(ShardedGraph::from_graph(&empty, 2)));
//! let mut maintenance = MaintenanceHandle::spawn(
//!     Arc::clone(&store),
//!     CompactionPolicy::default(),
//!     2,
//!     Duration::from_millis(1),
//! );
//! let dump = "<http://s> <http://p> <http://o> .\n";
//! let report = StreamingIngest::new(Arc::clone(&store))
//!     .ingest(dump.as_bytes())
//!     .unwrap();
//! maintenance.stop();
//! assert_eq!(report.added_relations, 1);
//! ```

use crate::live::{LiveStore, StoreError};
use pivote_kg::{parse_removed_stream, parse_stream, AppliedDelta, StreamError, StreamStats};
use std::io;
use std::sync::Arc;

/// Why a streaming ingest stopped.
#[derive(Debug)]
pub enum IngestError {
    /// Reading or parsing the N-Triples stream failed (line-numbered
    /// parse errors surface here).
    Stream(StreamError),
    /// The store refused an append — it was poisoned by a writer panic.
    /// Batches applied before the refusal remain applied; no further
    /// batch is attempted.
    Store(StoreError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Stream(e) => e.fmt(f),
            IngestError::Store(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Stream(e) => Some(e),
            IngestError::Store(e) => Some(e),
        }
    }
}

impl From<StreamError> for IngestError {
    fn from(e: StreamError) -> Self {
        IngestError::Stream(e)
    }
}

impl From<StoreError> for IngestError {
    fn from(e: StoreError) -> Self {
        IngestError::Store(e)
    }
}

/// Default ops per batch: large enough to amortize lock acquisition and
/// per-extent splices, small enough that the in-flight batch stays a few
/// MB for DBpedia-shaped statements.
pub const DEFAULT_BATCH_OPS: usize = 16_384;

/// What a completed streaming ingest did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Parser-side stream statistics (lines, statements, batches).
    pub stats: StreamStats,
    /// New entities the appends introduced.
    pub new_entities: usize,
    /// Entity-to-entity relations actually inserted (duplicates of
    /// existing edges don't count).
    pub added_relations: usize,
    /// Literal statements inserted.
    pub added_literals: usize,
    /// Entity-to-entity relations retracted (retracts of statements the
    /// store never held don't count).
    pub removed_relations: usize,
    /// Literal statement copies retracted.
    pub removed_literals: usize,
    /// Type/category assertions retracted.
    pub removed_assertions: usize,
    /// Total splice work across all appends (see
    /// [`AppliedDelta::work`](pivote_kg::AppliedDelta)).
    pub work: u64,
    /// Store generation after the final batch (0 if the stream was
    /// empty).
    pub final_generation: u64,
}

/// Reader-driven bounded-memory ingest into a [`LiveStore`].
///
/// Batch boundaries fall at fixed op counts, so ingesting a document
/// through any reader chunking produces the same append sequence — and
/// therefore (by the append==rebuild guarantee) a graph bit-identical to
/// parsing and applying the whole document at once.
pub struct StreamingIngest {
    store: Arc<LiveStore>,
    max_ops: usize,
}

impl StreamingIngest {
    /// Ingest into `store` with [`DEFAULT_BATCH_OPS`]-op batches.
    pub fn new(store: Arc<LiveStore>) -> Self {
        Self::with_batch_size(store, DEFAULT_BATCH_OPS)
    }

    /// Ingest with a custom bound on ops per batch (clamped to ≥ 1).
    /// Larger batches amortize locking and splicing better; smaller
    /// batches bound in-flight memory tighter and give queries and
    /// maintenance more frequent turns at the store.
    pub fn with_batch_size(store: Arc<LiveStore>, max_ops: usize) -> Self {
        Self {
            store,
            max_ops: max_ops.max(1),
        }
    }

    /// The configured ops-per-batch bound.
    pub fn batch_size(&self) -> usize {
        self.max_ops
    }

    /// The store this ingests into.
    pub fn store(&self) -> &Arc<LiveStore> {
        &self.store
    }

    /// Stream an N-Triples document from `reader` into the store.
    pub fn ingest<R: io::BufRead>(&self, reader: R) -> Result<IngestReport, IngestError> {
        self.ingest_with(reader, |_| {})
    }

    /// Stream with an observer called after every applied batch — the
    /// hook mid-ingest latency sampling and progress reporting attach to.
    pub fn ingest_with<R, F>(&self, reader: R, observer: F) -> Result<IngestReport, IngestError>
    where
        R: io::BufRead,
        F: FnMut(&AppliedDelta),
    {
        self.run(reader, observer, false)
    }

    /// Stream a *removed-triples* document (the `removed.nt` half of a
    /// DBpedia-Live style changeset) from `reader`: every statement is
    /// applied as a retract ([`pivote_kg::parse_removed_stream`]), with
    /// the same bounded-memory batching as [`StreamingIngest::ingest`].
    /// Statements the store never held are no-ops.
    pub fn ingest_removed<R: io::BufRead>(&self, reader: R) -> Result<IngestReport, IngestError> {
        self.ingest_removed_with(reader, |_| {})
    }

    /// [`StreamingIngest::ingest_removed`] with a per-batch observer.
    pub fn ingest_removed_with<R, F>(
        &self,
        reader: R,
        observer: F,
    ) -> Result<IngestReport, IngestError>
    where
        R: io::BufRead,
        F: FnMut(&AppliedDelta),
    {
        self.run(reader, observer, true)
    }

    fn run<R, F>(
        &self,
        reader: R,
        mut observer: F,
        removed: bool,
    ) -> Result<IngestReport, IngestError>
    where
        R: io::BufRead,
        F: FnMut(&AppliedDelta),
    {
        let mut report = IngestReport::default();
        // a refused append (poisoned store) stops all further appends;
        // the error is surfaced after the parse loop unwinds
        let mut store_error: Option<StoreError> = None;
        let sink = |batch: &mut pivote_kg::DeltaBatch| {
            if store_error.is_some() {
                return;
            }
            match self.store.append(batch) {
                Ok(applied) => {
                    report.new_entities +=
                        (applied.new_entities.end - applied.new_entities.start) as usize;
                    report.added_relations += applied.added_relations;
                    report.added_literals += applied.added_literals;
                    report.removed_relations += applied.removed_relations;
                    report.removed_literals += applied.removed_literals;
                    report.removed_assertions += applied.removed_assertions;
                    report.work += applied.work;
                    report.final_generation = applied.generation;
                    observer(&applied);
                }
                Err(e) => store_error = Some(e),
            }
        };
        let stats = if removed {
            parse_removed_stream(reader, self.max_ops, sink)?
        } else {
            parse_stream(reader, self.max_ops, sink)?
        };
        if let Some(e) = store_error {
            return Err(e.into());
        }
        report.stats = stats;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_kg::{ntriples, parse_into_delta, KgBuilder, ShardedGraph};

    fn dump(n: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for i in 0..n {
            let _ = writeln!(
                out,
                "<http://dbpedia.org/resource/e{i}> <http://dbpedia.org/ontology/linksTo> \
                 <http://dbpedia.org/resource/e{}> .",
                (i + 1) % n
            );
        }
        out
    }

    #[test]
    fn streamed_ingest_matches_bulk_apply() {
        let src = dump(100);
        // bulk: one parse, one apply
        let mut bulk = KgBuilder::new().finish();
        bulk.apply(&parse_into_delta(&src).unwrap());
        // streamed: 7-op batches through a LiveStore
        let store = Arc::new(LiveStore::new(KgBuilder::new().finish()));
        let report = StreamingIngest::with_batch_size(Arc::clone(&store), 7)
            .ingest(src.as_bytes())
            .unwrap();
        assert_eq!(report.stats.statements, 100);
        assert_eq!(report.added_relations, 100);
        assert_eq!(report.new_entities, 100);
        let streamed = Arc::try_unwrap(store)
            .unwrap_or_else(|_| panic!("store still shared"))
            .into_inner()
            .to_graph();
        assert_eq!(ntriples::serialize(&streamed), ntriples::serialize(&bulk));
    }

    #[test]
    fn ingest_into_sharded_store_preserves_content() {
        let src = dump(60);
        let store = Arc::new(LiveStore::new(ShardedGraph::from_graph(
            &KgBuilder::new().finish(),
            2,
        )));
        let ingest = StreamingIngest::with_batch_size(Arc::clone(&store), 16);
        let mut batches_seen = 0;
        ingest
            .ingest_with(src.as_bytes(), |applied| {
                assert!(applied.generation > 0);
                batches_seen += 1;
            })
            .unwrap();
        assert_eq!(batches_seen, 60usize.div_ceil(16));
        let reader = store.read();
        assert_eq!(reader.handle().graph().entity_count(), 60);
    }

    /// Ingesting a changeset's `added` half then its `removed` half
    /// leaves the store bit-identical to never having held the removed
    /// statements at all (modulo tombstones, which compaction reclaims).
    #[test]
    fn removed_ingest_undoes_the_added_half() {
        let base = dump(40);
        let churn = {
            use std::fmt::Write as _;
            let mut out = String::new();
            for i in 0..25 {
                let _ = writeln!(
                    out,
                    "<http://dbpedia.org/resource/e{i}> <http://dbpedia.org/ontology/churn> \
                     <http://dbpedia.org/resource/e{}> .",
                    (i + 3) % 40
                );
            }
            out
        };
        let store = Arc::new(LiveStore::new(KgBuilder::new().finish()));
        let ingest = StreamingIngest::with_batch_size(Arc::clone(&store), 9);
        ingest.ingest(base.as_bytes()).unwrap();
        ingest.ingest(churn.as_bytes()).unwrap();
        let report = ingest.ingest_removed(churn.as_bytes()).unwrap();
        assert_eq!(report.stats.statements, 25);
        assert_eq!(report.removed_relations, 25);
        assert_eq!(report.new_entities, 0, "retracts never intern");
        drop(ingest);

        // a build that never saw the churn serializes identically — the
        // live view excludes tombstones, and reclaim drops them outright
        let mut clean = KgBuilder::new().finish();
        clean.apply(&parse_into_delta(&base).unwrap());
        let got = Arc::try_unwrap(store)
            .unwrap_or_else(|_| panic!("store still shared"))
            .into_inner();
        assert!(got.tombstone_count() > 0);
        assert_eq!(
            ntriples::serialize(&got.to_graph()),
            ntriples::serialize(&clean)
        );
        assert_eq!(
            ntriples::serialize(&got.compact(1).to_graph()),
            ntriples::serialize(&clean)
        );
    }

    #[test]
    fn empty_stream_is_a_no_op() {
        let store = Arc::new(LiveStore::new(KgBuilder::new().finish()));
        let report = StreamingIngest::new(Arc::clone(&store))
            .ingest("# nothing but comments\n\n".as_bytes())
            .unwrap();
        assert_eq!(report.stats.lines, 2);
        assert_eq!(report.stats.statements, 0);
        assert_eq!(report.stats.batches, 0);
        assert_eq!(report.new_entities, 0);
        assert_eq!(report.final_generation, 0, "no batch, no generation bump");
    }
}
