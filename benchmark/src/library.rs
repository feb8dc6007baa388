//! The crates' public functions called from outside, one span per layer
//! boundary: the reference every wire answer is checked against, and the
//! body of the traced replay.

use crate::trace::Tracer;
use pivote_core::{
    Expander, GraphHandle, HeatMap, LiveStore, PreparedSnapshot, RankingConfig, SfQuery,
};
use pivote_explore::LiveSearchCache;
use pivote_kg::GraphBackend;
use pivote_search::SearchConfig;
use pivote_serve::{scored_list, Reply, Request};
use serde::Value;
use std::sync::Arc;

/// A `[[name, score], ...]` list with scores as their bit patterns, so
/// `==` is bit-for-bit.
pub type Scored = Vec<(String, u64)>;

/// What a read request answers, on either side of the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Rank {
        features: Scored,
        entities: Scored,
    },
    Expand {
        entities: Scored,
    },
    Heatmap {
        features: Vec<String>,
        entities: Vec<String>,
        values: Vec<Vec<u64>>,
    },
    Search {
        hits: Scored,
    },
}

/// Counts read where the work happens, per replayed request.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Candidate pool `score_and_select` was handed (rank only).
    pub candidates: usize,
    /// Entities returned.
    pub results: usize,
}

fn bits(list: impl IntoIterator<Item = (String, f64)>) -> Scored {
    list.into_iter().map(|(n, s)| (n, s.to_bits())).collect()
}

fn name_array(v: &Value, field: &str) -> Vec<String> {
    match v.field_opt(field) {
        Value::Arr(items) => items
            .iter()
            .filter_map(|i| match i {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

impl Answer {
    /// Read the answer to `request` out of a parsed wire response.
    pub fn from_wire(request: &Request, response: &Value) -> Option<Answer> {
        let list = |field| bits(scored_list(response, field));
        Some(match request {
            Request::Rank { .. } => Answer::Rank {
                features: list("features"),
                entities: list("entities"),
            },
            Request::Expand { .. } => Answer::Expand {
                entities: list("entities"),
            },
            Request::Search { .. } => Answer::Search { hits: list("hits") },
            Request::Heatmap { .. } => {
                let Value::Arr(rows) = response.field_opt("values") else {
                    return None;
                };
                let values = rows
                    .iter()
                    .map(|row| match row {
                        Value::Arr(cells) => cells
                            .iter()
                            .filter_map(|c| match c {
                                Value::Num(n) => Some(n.to_bits()),
                                _ => None,
                            })
                            .collect(),
                        _ => Vec::new(),
                    })
                    .collect();
                Answer::Heatmap {
                    features: name_array(response, "features"),
                    entities: name_array(response, "entities"),
                    values,
                }
            }
            _ => return None,
        })
    }

    /// Render a rank answer the way the server does — the rendering cost
    /// a memo hit saves. Other ops are not rendered by the replay.
    pub fn render(&self, generation: u64) -> Option<String> {
        let Answer::Rank { features, entities } = self else {
            return None;
        };
        let list = |items: &Scored| {
            pivote_serve::protocol::scored_names(
                items.iter().map(|(n, s)| (n.clone(), f64::from_bits(*s))),
            )
        };
        Some(
            Reply::ok()
                .num("generation", generation)
                .with("features", list(features))
                .with("entities", list(entities))
                .render(),
        )
    }
}

/// Worker threads the server gives its store: one per core.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// An in-process store serving the same ops as `pivote-serve`, with the
/// server's default ranking and search configuration.
pub struct Library {
    pub store: Arc<LiveStore>,
    pub search: LiveSearchCache,
    ranking: RankingConfig,
}

impl Library {
    /// Serve `backend` in-process, snapshots published as the server
    /// publishes them.
    pub fn new(backend: impl Into<GraphBackend>) -> Library {
        let store = Arc::new(LiveStore::with_threads(backend, host_threads()));
        store.enable_snapshots();
        Library::over(store)
    }

    /// Serve a store that already publishes snapshots.
    pub fn over(store: Arc<LiveStore>) -> Library {
        Library {
            store,
            search: LiveSearchCache::new(SearchConfig::default()),
            ranking: RankingConfig::default(),
        }
    }

    pub fn snapshot(&self) -> Arc<PreparedSnapshot> {
        self.store.snapshot().expect("snapshots are enabled")
    }

    /// Answer one read request line as the server would, one span per
    /// layer call. Returns the generation answered at, the answer, and
    /// the counts taken on the way.
    pub fn answer(&self, t: &mut Tracer, line: &str) -> Result<(u64, Answer, Counts), String> {
        let request = t.span("serve.parse", |_| Request::parse(line))?;
        let snap = t.span("core.acquire", |_| self.snapshot());
        let handle = t.span("core.acquire", |_| snap.handle());
        let generation = snap.generation();
        let (answer, counts) = match &request {
            Request::Rank {
                seeds,
                k_features,
                k_entities,
            } => self.rank(t, &handle, seeds, *k_features, *k_entities)?,
            Request::Expand {
                seeds,
                type_filter,
                k,
            } => self.expand(t, &handle, seeds, type_filter.as_deref(), *k)?,
            Request::Heatmap {
                seeds,
                k_features,
                k_entities,
            } => self.heatmap(t, &handle, seeds, *k_features, *k_entities)?,
            Request::Search { query, k } => {
                let hits = t.span("explore.search", |_| {
                    self.search.search_prepared(&snap, query, *k)
                });
                let hits = bits(
                    hits.iter()
                        .map(|h| (handle.entity_name(h.entity).to_owned(), h.score)),
                );
                let counts = Counts {
                    candidates: 0,
                    results: hits.len(),
                };
                (Answer::Search { hits }, counts)
            }
            other => return Err(format!("not a read request: {other:?}")),
        };
        if matches!(answer, Answer::Rank { .. }) {
            t.span("serve.render", |_| {
                std::hint::black_box(answer.render(generation))
            });
        }
        Ok((generation, answer, counts))
    }

    fn resolve(
        t: &mut Tracer,
        handle: &GraphHandle<'_>,
        seeds: &[String],
    ) -> Result<Vec<pivote_kg::EntityId>, String> {
        t.span("core.resolve", |_| {
            seeds
                .iter()
                .map(|name| {
                    handle
                        .entity(name)
                        .ok_or_else(|| format!("unknown entity {name:?}"))
                })
                .collect()
        })
    }

    /// `rank`, decomposed into the stages `Expander::expand` runs for a
    /// seeds-only query so each gets its own span.
    fn rank(
        &self,
        t: &mut Tracer,
        handle: &GraphHandle<'_>,
        seeds: &[String],
        k_features: usize,
        k_entities: usize,
    ) -> Result<(Answer, Counts), String> {
        let ids = Self::resolve(t, handle, seeds)?;
        let config = &self.ranking;
        let budget = config.top_features.max(k_features);
        let features = t.span("core.rank_features", |_| {
            handle.rank_features_top_k(config, &ids, budget)
        });
        let top = &features[..features.len().min(config.top_features)];
        let candidates = t.span("core.candidates", |_| {
            handle.candidate_entities(config, &ids, &features)
        });
        let pool = candidates.len();
        let entities = t.span("core.score_select", |_| {
            handle.score_and_select(config, candidates, top, k_entities)
        });
        let answer = Answer::Rank {
            features: bits(
                features
                    .iter()
                    .take(k_features)
                    .map(|rf| (handle.feature_display(rf.feature), rf.score)),
            ),
            entities: bits(
                entities
                    .iter()
                    .map(|re| (handle.entity_name(re.entity).to_owned(), re.score)),
            ),
        };
        let counts = Counts {
            candidates: pool,
            results: entities.len(),
        };
        Ok((answer, counts))
    }

    fn expand(
        &self,
        t: &mut Tracer,
        handle: &GraphHandle<'_>,
        seeds: &[String],
        type_filter: Option<&str>,
        k: usize,
    ) -> Result<(Answer, Counts), String> {
        let ids = Self::resolve(t, handle, seeds)?;
        let mut query = SfQuery::from_seeds(ids);
        if let Some(name) = type_filter {
            let ty = handle
                .type_id(name)
                .ok_or_else(|| format!("unknown type {name:?}"))?;
            query = query.with_type(ty);
        }
        let expander = Expander::with_handle(handle.clone(), self.ranking);
        let res = t.span("core.expand", |_| expander.expand(&query, k, k));
        let entities = bits(
            res.entities
                .iter()
                .map(|re| (handle.entity_name(re.entity).to_owned(), re.score)),
        );
        let counts = Counts {
            candidates: 0,
            results: entities.len(),
        };
        Ok((Answer::Expand { entities }, counts))
    }

    fn heatmap(
        &self,
        t: &mut Tracer,
        handle: &GraphHandle<'_>,
        seeds: &[String],
        k_features: usize,
        k_entities: usize,
    ) -> Result<(Answer, Counts), String> {
        let ids = Self::resolve(t, handle, seeds)?;
        let expander = Expander::with_handle(handle.clone(), self.ranking);
        let res = t.span("core.expand", |_| {
            expander.expand(&SfQuery::from_seeds(ids), k_entities, k_features)
        });
        let axis: Vec<pivote_kg::EntityId> = res.entities.iter().map(|re| re.entity).collect();
        let hm = t.span("core.heatmap", |_| {
            HeatMap::compute(expander.ranker(), &axis, &res.features)
        });
        let answer = Answer::Heatmap {
            features: res
                .features
                .iter()
                .map(|rf| handle.feature_display(rf.feature))
                .collect(),
            entities: axis
                .iter()
                .map(|&e| handle.entity_name(e).to_owned())
                .collect(),
            values: (0..hm.height())
                .map(|row| {
                    (0..hm.width())
                        .map(|col| hm.value(row, col).to_bits())
                        .collect()
                })
                .collect(),
        };
        let counts = Counts {
            candidates: 0,
            results: axis.len(),
        };
        Ok((answer, counts))
    }

    /// Whether the server's raw `response` to `line` carries exactly the
    /// library's answer at the library's generation.
    pub fn agrees(&self, line: &str, response: &str) -> Result<(), String> {
        let (generation, mine, _) = self.answer(&mut Tracer::new(false), line)?;
        let parsed: Value =
            serde_json::from_str(response).map_err(|e| format!("malformed response: {e}"))?;
        let request = Request::parse(line)?;
        let theirs = Answer::from_wire(&request, &parsed);
        let their_generation = pivote_serve::num_field(&parsed, "generation");
        if theirs.as_ref() != Some(&mine) || their_generation != Some(generation) {
            return Err(format!(
                "wire answer differs from the library's for {line}\n wire:    {response}\n library: generation {generation} {mine:?}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// The decomposed rank must be `Expander::expand` exactly, or the
    /// per-stage spans time something the server does not run.
    #[test]
    fn the_decomposed_rank_is_the_expanders_rank() {
        let inputs = gen::inputs(60, 5);
        let kg = pivote_kg::parse(&inputs.dump).unwrap();
        let lib = Library::new(kg);
        let pool = gen::read_pool(&inputs, 5, [12, 0, 0, 0]);
        for req in &pool {
            let (_, answer, counts) = lib.answer(&mut Tracer::new(false), &req.line).unwrap();
            let Request::Rank { seeds, .. } = Request::parse(&req.line).unwrap() else {
                panic!("rank pool")
            };
            let snap = lib.snapshot();
            let handle = snap.handle();
            let ids: Vec<_> = seeds.iter().map(|s| handle.entity(s).unwrap()).collect();
            let res = Expander::with_handle(handle.clone(), RankingConfig::default()).expand(
                &SfQuery::from_seeds(ids),
                10,
                10,
            );
            let expect = Answer::Rank {
                features: bits(
                    res.features
                        .iter()
                        .map(|rf| (handle.feature_display(rf.feature), rf.score)),
                ),
                entities: bits(
                    res.entities
                        .iter()
                        .map(|re| (handle.entity_name(re.entity).to_owned(), re.score)),
                ),
            };
            assert_eq!(answer, expect);
            assert!(counts.candidates >= counts.results);
        }
    }

    #[test]
    fn a_rendered_answer_reads_back_bit_for_bit() {
        let inputs = gen::inputs(60, 5);
        let lib = Library::new(pivote_kg::parse(&inputs.dump).unwrap());
        for req in gen::read_pool(&inputs, 5, [3, 3, 3, 3]) {
            let (generation, answer, _) = lib.answer(&mut Tracer::new(true), &req.line).unwrap();
            if let Some(rendered) = answer.render(generation) {
                lib.agrees(&req.line, &rendered).unwrap();
                let tampered = rendered.replacen("\"generation\":0", "\"generation\":1", 1);
                assert!(lib.agrees(&req.line, &tampered).is_err());
            }
        }
        assert!(lib
            .agrees(r#"{"op":"search","query":"x","k":1}"#, "{")
            .is_err());
    }
}
