//! The service: everything a request needs except the socket.
//!
//! A [`Service`] owns the served [`LiveStore`] (opted into snapshot
//! publication), one [`LiveSearchCache`] with its background
//! [`SearchWarmer`], and the generation-keyed response memo. It answers
//! requests in-process through two calls:
//!
//! - [`Service::compute`] answers one read (rank / expand / heatmap /
//!   search) against an already-acquired [`PreparedSnapshot`], with no
//!   memo — the pure function of the store at one generation that the
//!   wire is checked against;
//! - [`Service::call`] is what a server worker runs per request line:
//!   parse, then (under a panic guard) memo + [`Service::compute`] for
//!   reads, or the write / `stats` / `shutdown` path.
//!
//! [`crate::Server`] is only sockets around one `Arc<Service>`, so a
//! test or a benchmark that calls the service directly gets the server's
//! answers byte for byte.
//!
//! All callers share **one** store and **one** density cache, so a
//! density memoized for any request is a hit for every later request.
//! A panic while serving one request poisons nothing global: writes fail
//! closed per the store's poisoning policy ([`pivote_core::StoreError`])
//! and reads keep answering from the last consistent snapshot.

use crate::protocol::{scored_names, Reply, Request};
use pivote_core::{
    Expander, ExpansionResult, GraphHandle, HeatMap, LiveStore, PreparedSnapshot, RankedEntity,
    RankingConfig, SfQuery,
};
use pivote_explore::{LiveSearchCache, SearchWarmer};
use pivote_kg::{parse_into_delta, parse_removed_into_delta, AppliedDelta, DeltaBatch, ParseError};
use pivote_search::SearchConfig;
use serde::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// How many canonicalized responses the per-generation memo holds
/// before evicting the least recently used one.
const MEMO_CAPACITY: usize = 256;

/// A bounded, generation-keyed memo of rendered responses for the
/// deterministic read ops (rank / expand / heatmap / search). Keyed by
/// the parsed request's canonical `Debug` form — two raw lines that
/// parse to the same request share one entry regardless of key order —
/// and dropped **wholesale** the moment a newer generation is observed.
/// It never rolls backwards: a read pinned to an older generation that
/// finishes late neither hits nor evicts, so a memoized answer is only
/// ever served at the exact generation it was computed at and memoized
/// and fresh responses are bit-identical by construction.
struct ResponseMemo {
    /// Store generation every held entry was computed at.
    generation: u64,
    /// LRU clock; bumped per touch.
    stamp: u64,
    /// canonical request → (last-touched stamp, rendered response).
    entries: HashMap<String, (u64, String)>,
}

impl ResponseMemo {
    fn new() -> Self {
        Self {
            generation: 0,
            stamp: 0,
            entries: HashMap::new(),
        }
    }

    /// Drop everything when `generation` is newer than the held one;
    /// whether the memo now holds `generation` (false for an older one).
    fn holds(&mut self, generation: u64) -> bool {
        if generation > self.generation {
            self.generation = generation;
            self.entries.clear();
        }
        generation == self.generation
    }

    fn get(&mut self, generation: u64, key: &str) -> Option<String> {
        if !self.holds(generation) {
            return None;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        self.entries.get_mut(key).map(|(touched, response)| {
            *touched = stamp;
            response.clone()
        })
    }

    fn insert(&mut self, generation: u64, key: String, response: String) {
        if !self.holds(generation) {
            return;
        }
        if self.entries.len() >= MEMO_CAPACITY && !self.entries.contains_key(&key) {
            // O(capacity) min-scan eviction: at 256 entries that is
            // noise next to rendering one response
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (touched, _))| *touched)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        self.stamp += 1;
        self.entries.insert(key, (self.stamp, response));
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The served store plus everything shared across requests. See the
/// module docs.
pub struct Service {
    store: Arc<LiveStore>,
    search: Arc<LiveSearchCache>,
    read_only: bool,
    memo: Mutex<ResponseMemo>,
    /// Deterministic read responses served straight from the memo.
    memo_hits: AtomicU64,
    /// Deterministic read responses that had to be computed.
    memo_misses: AtomicU64,
    /// Set by `{"op":"shutdown"}`.
    shutdown: AtomicBool,
    /// Pre-builds the keyword index for every new generation off the
    /// request path; the write path wakes it right after publishing, so
    /// requests arriving behind a write park on the snapshot's build
    /// slot and share the result instead of racing it with a duplicate
    /// build. Stopped and joined when the service drops.
    warmer: SearchWarmer,
}

impl Service {
    /// Serve `store`: opt it into prepared-snapshot publication — every
    /// read is answered from a generation-pinned [`PreparedSnapshot`],
    /// never the store lock — build generation 0's search engines, and
    /// spawn the [`SearchWarmer`] for later generations. When this
    /// returns, every request can be answered without waiting on an
    /// index build.
    ///
    /// With `read_only`, `append`/`retract` answer a per-request error
    /// instead of mutating the store: the replica mode, where a
    /// follower's store is written only by its delta-log tailer.
    pub fn new(store: Arc<LiveStore>, read_only: bool) -> Service {
        let search = Arc::new(LiveSearchCache::new(SearchConfig::default()));
        store.enable_snapshots();
        // build the initial generation's search engines before any
        // request is answered: the first search must not pay the full
        // index build inline (a 33 ms head-of-line stall when it did)
        let initial = store
            .snapshot()
            .expect("enable_snapshots publishes the current state");
        let _ = search.prepare(&initial);
        let warmer = SearchWarmer::spawn(
            Arc::clone(&store),
            Arc::clone(&search),
            Duration::from_millis(2),
        );
        Service {
            store,
            search,
            read_only,
            memo: Mutex::new(ResponseMemo::new()),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            warmer,
        }
    }

    /// The served store.
    pub fn store(&self) -> &Arc<LiveStore> {
        &self.store
    }

    /// The published snapshot every read (and `stats`) answers from: one
    /// read-and-clone of the publication slot, never the store lock.
    pub fn snapshot(&self) -> Arc<PreparedSnapshot> {
        self.store
            .snapshot()
            .expect("Service::new enabled snapshot publication")
    }

    /// Whether a `{"op":"shutdown"}` request was served (or the owning
    /// server began stopping).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Answer one request line with one response line (no trailing
    /// newline) — what a server worker runs per request. Deterministic
    /// reads go through the response memo at the published generation;
    /// writes, `stats` and `shutdown` are never memoized. Any panic a
    /// request provokes below the protocol layer is caught and answered
    /// as `{"ok":false,...}`: a hostile request may cost itself an error,
    /// never the caller's thread. (Writes stay safe to catch: a writer
    /// panic poisons the store lock and later writes fail closed per
    /// [`pivote_core::StoreError`].)
    pub fn call(&self, line: &str) -> String {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.dispatch(line)))
            .unwrap_or_else(|_| Reply::error("internal error serving this request").render())
    }

    fn dispatch(&self, line: &str) -> String {
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(message) => return Reply::error(message).render(),
        };
        match &request {
            Request::Append { ntriples } => self.write(ntriples, parse_into_delta, appended),
            Request::Retract { ntriples } => {
                self.write(ntriples, parse_removed_into_delta, retracted)
            }
            Request::Stats => self.stats(),
            Request::Shutdown => {
                self.request_shutdown();
                Reply::ok().with("stopping", Value::Bool(true))
            }
            _ => return self.read(&request),
        }
        .render()
    }

    fn memo(&self) -> MutexGuard<'_, ResponseMemo> {
        self.memo.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Serve one deterministic read through the published snapshot and
    /// the response memo. The generation is pinned **before** the memo
    /// probe, so a memoized response is only ever replayed at the exact
    /// generation it was rendered at — bit-identical to recomputing it
    /// there. The memo holds rendered bytes: a hit never re-renders.
    fn read(&self, request: &Request) -> String {
        let snap = self.snapshot();
        let generation = snap.generation();
        // the parsed request's Debug form is the canonical key: raw lines
        // with different key order or whitespace collapse to one entry
        let key = format!("{request:?}");
        if let Some(hit) = self.memo().get(generation, &key) {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
        let response = self.compute(&snap, request).render();
        self.memo().insert(generation, key, response.clone());
        response
    }

    /// Answer one deterministic read (rank / expand / heatmap / search)
    /// against `snap`, bypassing the memo. Any other request answers a
    /// per-request error: writes, `stats` and `shutdown` go through
    /// [`Service::call`].
    pub fn compute(&self, snap: &PreparedSnapshot, request: &Request) -> Reply {
        let handle = snap.handle();
        let reply = Reply::ok().num("generation", snap.generation());
        let entities = |ranked: &[RankedEntity]| {
            scored_names(
                ranked
                    .iter()
                    .map(|re| (handle.entity_name(re.entity).to_owned(), re.score)),
            )
        };
        let answer = match request {
            Request::Rank {
                seeds,
                k_features,
                k_entities,
            } => expand(&handle, seeds, None, *k_entities, *k_features).map(|(_, res)| {
                reply
                    .with(
                        "features",
                        scored_names(
                            res.features
                                .iter()
                                .map(|rf| (handle.feature_display(rf.feature), rf.score)),
                        ),
                    )
                    .with("entities", entities(&res.entities))
            }),
            Request::Expand {
                seeds,
                type_filter,
                k,
            } => expand(&handle, seeds, type_filter.as_deref(), *k, *k)
                .map(|(_, res)| reply.with("entities", entities(&res.entities))),
            Request::Heatmap {
                seeds,
                k_features,
                k_entities,
            } => expand(&handle, seeds, None, *k_entities, *k_features).map(|(expander, res)| {
                let axis: Vec<pivote_kg::EntityId> =
                    res.entities.iter().map(|re| re.entity).collect();
                let hm = HeatMap::compute(expander.ranker(), &axis, &res.features);
                let matrix = |cell: &dyn Fn(usize, usize) -> f64| {
                    Value::Arr(
                        (0..hm.height())
                            .map(|row| {
                                Value::Arr(
                                    (0..hm.width())
                                        .map(|col| Value::Num(cell(row, col)))
                                        .collect(),
                                )
                            })
                            .collect(),
                    )
                };
                reply
                    .with(
                        "features",
                        Value::Arr(
                            res.features
                                .iter()
                                .map(|rf| Value::Str(handle.feature_display(rf.feature)))
                                .collect(),
                        ),
                    )
                    .with(
                        "entities",
                        Value::Arr(
                            axis.iter()
                                .map(|&e| Value::Str(handle.entity_name(e).to_owned()))
                                .collect(),
                        ),
                    )
                    .with("levels", matrix(&|row, col| f64::from(hm.level(row, col))))
                    .with("values", matrix(&|row, col| hm.value(row, col)))
            }),
            Request::Search { query, k } => {
                // searches the pinned backend with engines attached to the
                // snapshot (usually prebuilt by the warmer), so hits, names
                // and generation all come from one immutable state; entity
                // ids are stable, so resolving hit names here never
                // mislabels a hit
                let hits = self.search.search_prepared(snap, query, *k);
                Ok(reply.with(
                    "hits",
                    scored_names(
                        hits.iter()
                            .map(|h| (handle.entity_name(h.entity).to_owned(), h.score)),
                    ),
                ))
            }
            _ => Err(
                "not a read request: append, retract, stats and shutdown go through Service::call"
                    .to_owned(),
            ),
        };
        answer.unwrap_or_else(Reply::error)
    }

    /// Parse an N-Triples body into a delta with `parse`, apply it, and
    /// describe the receipt with `receipt` — append and retract differ
    /// only in those two.
    fn write(
        &self,
        ntriples: &str,
        parse: fn(&str) -> Result<DeltaBatch, ParseError>,
        receipt: fn(&DeltaBatch, &AppliedDelta) -> Reply,
    ) -> Reply {
        if self.read_only {
            return Reply::error("read-only replica: writes go to the leader");
        }
        let delta = match parse(ntriples) {
            Ok(delta) => delta,
            // the parser's 1-based line within the submitted body
            Err(e) => {
                return Reply::error(format!("N-Triples parse error: {}", e.message))
                    .num("line", e.line as u64)
            }
        };
        match self.store.append(&delta) {
            Ok(applied) => {
                self.warmer.waker().unpark();
                receipt(&delta, &applied)
            }
            Err(e) => Reply::error(e.to_string()),
        }
    }

    /// Answered from the published snapshot, like every read: a probe
    /// never queues behind an append doing WAL IO under the write lock,
    /// and never delays the next writer. Publication happens under the
    /// write lock after apply, so these never lag a completed write and
    /// agree with the generation the read ops answer at.
    fn stats(&self) -> Reply {
        let store = &self.store;
        let snap = self.snapshot();
        let backend = snap.backend();
        Reply::ok()
            .num("generation", snap.generation())
            .num("shard_count", backend.shard_count() as u64)
            .num("trailing_shards", backend.trailing_shard_count() as u64)
            .num("entities", backend.entity_count() as u64)
            .num(
                "cached_probabilities",
                store.cache().cached_probability_count() as u64,
            )
            .num("cache_generation", store.cache().generation())
            .with("poisoned", Value::Bool(store.is_poisoned()))
            .with("read_only", Value::Bool(self.read_only))
            .num("memo_hits", self.memo_hits.load(Ordering::Relaxed))
            .num("memo_misses", self.memo_misses.load(Ordering::Relaxed))
            .num("memo_entries", self.memo().len() as u64)
    }
}

/// Resolve `seeds` (and the optional type filter) against one snapshot
/// and expand them: the one ranking call rank, expand and heatmap share.
/// Errors name the first unknown seed or type.
fn expand<'h>(
    handle: &GraphHandle<'h>,
    seeds: &[String],
    type_filter: Option<&str>,
    k_entities: usize,
    k_features: usize,
) -> Result<(Expander<'h>, ExpansionResult), String> {
    if seeds.is_empty() {
        return Err("`seeds` must not be empty".to_owned());
    }
    let ids = seeds
        .iter()
        .map(|name| {
            handle
                .entity(name)
                .ok_or_else(|| format!("unknown entity {name:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut query = SfQuery::from_seeds(ids);
    if let Some(name) = type_filter {
        let ty = handle
            .type_id(name)
            .ok_or_else(|| format!("unknown type {name:?}"))?;
        query = query.with_type(ty);
    }
    let expander = Expander::with_handle(handle.clone(), RankingConfig::default());
    let res = expander.expand(&query, k_entities, k_features);
    Ok((expander, res))
}

fn appended(_: &DeltaBatch, applied: &AppliedDelta) -> Reply {
    Reply::ok()
        .num("generation", applied.generation)
        .num(
            "new_entities",
            u64::from(applied.new_entities.end - applied.new_entities.start),
        )
        .num("added_relations", applied.added_relations as u64)
        .num("added_literals", applied.added_literals as u64)
}

fn retracted(delta: &DeltaBatch, applied: &AppliedDelta) -> Reply {
    let removed = applied.removed_relations + applied.removed_literals + applied.removed_assertions;
    if removed == 0 && !delta.ops().is_empty() {
        // deleting nothing that exists is the client's error, and
        // answering it must not take the connection down
        return Reply::error("no stored statement matched the retract body")
            .num("generation", applied.generation);
    }
    Reply::ok()
        .num("generation", applied.generation)
        .num("removed_relations", applied.removed_relations as u64)
        .num("removed_literals", applied.removed_literals as u64)
        .num("removed_assertions", applied.removed_assertions as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A read pinned to an older generation that finishes after a newer
    /// response was memoized neither hits nor evicts.
    #[test]
    fn the_memo_never_rolls_backwards() {
        let mut memo = ResponseMemo::new();
        memo.insert(2, "k".to_owned(), "at 2".to_owned());
        assert_eq!(memo.get(1, "k"), None, "an older read misses");
        memo.insert(1, "k".to_owned(), "at 1".to_owned());
        memo.insert(1, "j".to_owned(), "at 1".to_owned());
        assert_eq!(memo.get(2, "k").as_deref(), Some("at 2"));
        assert_eq!(memo.len(), 1, "older inserts are skipped");
        // a newer generation still drops everything
        assert_eq!(memo.get(3, "k"), None);
        assert_eq!(memo.len(), 0);
    }
}
