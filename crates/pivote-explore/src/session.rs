//! The exploration session: PivotE's interaction loop.
//!
//! A [`Session`] owns the search engine, the recommendation engine, the
//! timeline and the exploratory path, and exposes a single entry point —
//! [`Session::apply`] — that turns every [`UserAction`] into an updated
//! [`ViewState`], mirroring the paper's architecture (Fig. 2): the
//! interface forwards clicks, the engines recompute the recommendation
//! areas, the heat map explains them.

use crate::events::UserAction;
use crate::path::{ExplorationPath, NodeKind};
use crate::profile::{build_profile, EntityProfile};
use crate::query::ExplorationQuery;
use crate::timeline::Timeline;
use pivote_core::{
    Expander, GraphHandle, HeatMap, RankedEntity, RankedFeature, RankingConfig, SemanticFeature,
    SfQuery,
};
use pivote_kg::{EntityId, ShardedGraph, TypeId};
use pivote_search::{CorpusStats, Hit, Scorer, SearchConfig, SearchEngine};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Session tunables.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Entities shown in the recommendation area (Fig. 3-c x-axis).
    pub k_entities: usize,
    /// Features shown in the recommendation area (Fig. 3-e y-axis).
    pub k_features: usize,
    /// Features listed on an entity profile card.
    pub k_profile_features: usize,
    /// How many top search hits act as pseudo-seeds for feature
    /// recommendation after a keyword query.
    pub pseudo_seeds_from_search: usize,
    /// Automatically restrict investigations to the seeds' most specific
    /// common type (the x-axis is "mostly the same type").
    pub auto_type_filter: bool,
    /// Cap features per predicate+direction in the recommendation area so
    /// the y-axis covers many aspects (0 disables diversification).
    pub diversify_features: usize,
    /// Ranking model configuration.
    pub ranking: RankingConfig,
    /// Search engine configuration.
    pub search: SearchConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            k_entities: 20,
            k_features: 15,
            k_profile_features: 10,
            pseudo_seeds_from_search: 5,
            auto_type_filter: true,
            diversify_features: 3,
            ranking: RankingConfig::default(),
            search: SearchConfig::default(),
        }
    }
}

/// Everything the interface displays for the current query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ViewState {
    /// The query area (Fig. 3-a/b).
    pub query: ExplorationQuery,
    /// Entity recommendations (Fig. 3-c), rank order.
    pub entities: Vec<RankedEntity>,
    /// Feature recommendations (Fig. 3-e), rank order.
    pub features: Vec<RankedFeature>,
    /// The explanation heat map (Fig. 3-f) over the two axes above.
    pub heatmap: HeatMap,
    /// The entity presentation area (Fig. 3-d), if an entity is focused.
    pub focus: Option<EntityProfile>,
}

impl ViewState {
    /// The blank view (no query, no recommendations, no focus).
    pub fn empty() -> Self {
        Self {
            query: ExplorationQuery::default(),
            entities: Vec::new(),
            features: Vec::new(),
            heatmap: HeatMap {
                entities: Vec::new(),
                features: Vec::new(),
                values: Vec::new(),
                levels: Vec::new(),
            },
            focus: None,
        }
    }
}

/// Serializable session state (timeline + path + current query), the
/// persistence format behind "revisit historical queries".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionState {
    /// The full query history.
    pub timeline: Timeline,
    /// The exploratory path graph.
    pub path: ExplorationPath,
    /// The current query.
    pub query: ExplorationQuery,
}

/// The keyword-search component: one index per shard (indexed over the
/// shard-local graph, with related-names neighbours selected in
/// global-id order) plus the globally-merged corpus statistics every
/// shard scores against. Hits are filtered to owned entities (ghosts are
/// re-indexed by their home shard), remapped to global ids and merged by
/// `(score desc, id asc)` — the same scores and order at every shard
/// count, bit for bit. Public so the live-session layer can carry
/// prebuilt engines across graph generations (and across compactions,
/// which change the shard count) without re-indexing when nothing
/// changed.
///
/// Engines are `Arc`-held, so the backend is `Clone` at pointer cost:
/// the live search cache hands each concurrent search its own cheap
/// clone and N searches index-share while running **concurrently** —
/// the cache's mutex guards only the refresh bookkeeping, never a
/// query.
#[derive(Clone)]
pub struct SearchBackend {
    /// One engine per shard, in shard order.
    pub engines: Vec<Arc<SearchEngine>>,
    /// Merged owned-document statistics across all shards.
    pub corpus: Arc<CorpusStats>,
}

impl SearchBackend {
    /// Index every shard of `sg` and merge the corpus statistics.
    pub fn build(sg: &ShardedGraph, config: SearchConfig) -> Self {
        let engines: Vec<Arc<SearchEngine>> = sg
            .shards()
            .iter()
            .map(|s| {
                Arc::new(SearchEngine::build_keyed(s.graph(), config, |local| {
                    s.to_global(local).raw()
                }))
            })
            .collect();
        let corpus = Arc::new(merge_corpus_stats(&engines, sg));
        Self { engines, corpus }
    }
}

/// Merge per-shard indexes into the global corpus statistics, counting
/// each owned document once (ghost copies are skipped — their home shard
/// re-indexes them).
pub fn merge_corpus_stats(engines: &[Arc<SearchEngine>], sg: &ShardedGraph) -> CorpusStats {
    let mut corpus = CorpusStats::new();
    for (engine, shard) in engines.iter().zip(sg.shards()) {
        corpus.absorb(engine.index(), |d| shard.is_owned(EntityId::new(d)));
    }
    corpus
}

/// Top-`k` keyword hits of a [`SearchBackend`] built over `sg` — the
/// merge logic shared by [`Session::search_hits`] and the serving layer
/// (which queries the backend directly, without building a session).
pub fn search_backend_hits(
    search: &SearchBackend,
    sg: &ShardedGraph,
    query: &str,
    k: usize,
) -> Vec<Hit> {
    let mut hits: Vec<Hit> = search
        .engines
        .iter()
        .zip(sg.shards())
        .flat_map(|(engine, shard)| {
            // fetch ALL of the shard's matches, not the top k: ghost hits
            // are dropped below, and truncating before the ghost filter
            // could starve owned matches ranked behind k ghosts
            engine
                .search_in(query, usize::MAX, Scorer::MixtureLm, search.corpus.as_ref())
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

/// An interactive exploration session over one knowledge graph, behind
/// one [`GraphHandle`].
pub struct Session<'kg> {
    handle: GraphHandle<'kg>,
    search: SearchBackend,
    expander: Expander<'kg>,
    config: SessionConfig,
    timeline: Timeline,
    path: ExplorationPath,
    view: ViewState,
    log: crate::replay::ActionLog,
}

impl<'kg> Session<'kg> {
    /// Build a session on `handle` (indexes the graph for search) — every
    /// query path (search, expansion, heat map, profiles, replay) runs
    /// through it, and sessions sharing a handle share its memoized
    /// state.
    pub fn new(handle: GraphHandle<'kg>, config: SessionConfig) -> Self {
        let search = SearchBackend::build(handle.graph(), config.search);
        Self::with_search(handle, config, search)
    }

    /// Session with default configuration over a fresh context on `sg`.
    pub fn with_defaults(sg: &'kg ShardedGraph) -> Self {
        Self::new(GraphHandle::new(sg), SessionConfig::default())
    }

    /// Build a session around a **prebuilt** [`SearchBackend`], skipping
    /// the (expensive) indexing pass — how the live-session layer
    /// re-homes a session onto a fresh graph snapshot without
    /// re-indexing shards whose generation hasn't changed.
    ///
    /// # Panics
    /// When the engine set's length does not match the graph's shard
    /// count (a stale set from before an append or a compaction).
    pub fn with_search(
        handle: GraphHandle<'kg>,
        config: SessionConfig,
        search: SearchBackend,
    ) -> Self {
        assert_eq!(
            search.engines.len(),
            handle.graph().shard_count(),
            "per-shard engine set must match the shard count"
        );
        Self {
            search,
            expander: Expander::with_handle(handle.clone(), config.ranking),
            handle,
            config,
            timeline: Timeline::new(),
            path: ExplorationPath::new(),
            view: ViewState::empty(),
            log: crate::replay::ActionLog::new(),
        }
    }

    /// Restore persistent state (timeline, path), the action log and the
    /// full current view **without** recomputing — the fast half of a
    /// live-session re-home. The view carries the query *and* the last
    /// rendered recommendations, so actions that don't recompute (no-op
    /// clicks, entity lookups) behave exactly as they would on a
    /// fixed-snapshot session.
    pub fn import_state(
        &mut self,
        state: SessionState,
        log: crate::replay::ActionLog,
        view: ViewState,
    ) {
        self.timeline = state.timeline;
        self.path = state.path;
        self.view = view;
        self.view.query = state.query;
        self.log = log;
    }

    /// Tear the session into its durable parts — state, log, view, and
    /// the owned [`SearchBackend`] — so a live session can carry them
    /// across graph generations without cloning and without keeping this
    /// session's graph borrow alive.
    pub fn dissolve(
        self,
    ) -> (
        SessionState,
        crate::replay::ActionLog,
        ViewState,
        SearchBackend,
    ) {
        let state = SessionState {
            timeline: self.timeline,
            path: self.path,
            query: self.view.query.clone(),
        };
        (state, self.log, self.view, self.search)
    }

    /// The graph handle this session runs on.
    pub fn handle(&self) -> &GraphHandle<'kg> {
        &self.handle
    }

    /// The current view.
    pub fn view(&self) -> &ViewState {
        &self.view
    }

    /// The query timeline (Fig. 3-g).
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// The exploratory path (Fig. 4).
    pub fn path(&self) -> &ExplorationPath {
        &self.path
    }

    /// Top-`k` keyword hits.
    pub fn search_hits(&self, query: &str, k: usize) -> Vec<Hit> {
        search_backend_hits(&self.search, self.handle.graph(), query, k)
    }

    /// The recommendation engine component.
    pub fn expander(&self) -> &Expander<'kg> {
        &self.expander
    }

    /// Every action applied to this session, in order (for replay).
    pub fn action_log(&self) -> &crate::replay::ActionLog {
        &self.log
    }

    /// Apply one user action and return the updated view — the paper's
    /// "queries are dynamically formulated by tracing the users' dynamic
    /// clicking behaviors".
    pub fn apply(&mut self, action: UserAction) -> &ViewState {
        self.log.push(action.clone());
        match action.clone() {
            UserAction::SubmitKeywords { query } => {
                // A fresh keyword query starts a new investigation.
                self.view.query = ExplorationQuery::keywords(query);
                self.recompute();
                self.record(&action);
            }
            UserAction::ClickEntity { entity } => {
                if self.view.query.add_seed(entity) {
                    if self.config.auto_type_filter {
                        let t = self.common_specific_type(&self.view.query.sf.seeds);
                        self.view.query.set_type_filter(t);
                    }
                    self.recompute();
                    self.record(&action);
                }
            }
            UserAction::SelectFeature { feature } => {
                if self.view.query.add_feature(feature) {
                    self.recompute();
                    self.record(&action);
                }
            }
            UserAction::RemoveSeed { entity } => {
                if self.view.query.remove_seed(entity) {
                    if self.config.auto_type_filter {
                        let t = self.common_specific_type(&self.view.query.sf.seeds);
                        self.view.query.set_type_filter(t);
                    }
                    self.recompute();
                    self.record(&action);
                }
            }
            UserAction::RemoveFeature { feature } => {
                if self.view.query.remove_feature(feature) {
                    self.recompute();
                    self.record(&action);
                }
            }
            UserAction::Pivot { feature } => {
                // Browse: the x-axis becomes the anchor feature's extent
                // domain.
                let mut sf = SfQuery::from_features(vec![feature]);
                sf.type_filter = self.dominant_type(feature);
                self.view.query = ExplorationQuery { keywords: None, sf };
                self.recompute();
                self.record(&action);
            }
            UserAction::LookupEntity { entity } => {
                self.view.focus = Some(build_profile(
                    self.expander.ranker(),
                    entity,
                    self.config.k_profile_features,
                ));
                self.path.branch(
                    NodeKind::Entity,
                    self.handle.graph().display_name(entity),
                    action.verb(),
                );
            }
            UserAction::RevisitQuery { index } => {
                if let Some(entry) = self.timeline.get(index) {
                    self.view.query = entry.query.clone();
                    self.recompute();
                    match self.path.node_for_timeline(index) {
                        Some(node) => self.path.jump_to(node),
                        None => {
                            let label = self.view.query.summary_with(&self.handle);
                            self.path
                                .advance(NodeKind::Query, label, Some(index), action.verb());
                        }
                    }
                }
            }
            UserAction::ClearQuery => {
                self.view = ViewState::empty();
                self.record(&action);
            }
        }
        &self.view
    }

    /// Convenience: submit a keyword query.
    pub fn submit_keywords(&mut self, q: &str) -> &ViewState {
        self.apply(UserAction::SubmitKeywords { query: q.into() })
    }

    /// Convenience: click an entity (investigation).
    pub fn click_entity(&mut self, entity: EntityId) -> &ViewState {
        self.apply(UserAction::ClickEntity { entity })
    }

    /// Convenience: select a feature as a query condition.
    pub fn select_feature(&mut self, feature: SemanticFeature) -> &ViewState {
        self.apply(UserAction::SelectFeature { feature })
    }

    /// Convenience: pivot through a feature (browse).
    pub fn pivot(&mut self, feature: SemanticFeature) -> &ViewState {
        self.apply(UserAction::Pivot { feature })
    }

    /// Convenience: look up an entity profile.
    pub fn lookup(&mut self, entity: EntityId) -> &ViewState {
        self.apply(UserAction::LookupEntity { entity })
    }

    /// Export the persistent state (timeline, path, current query).
    pub fn export_state(&self) -> SessionState {
        SessionState {
            timeline: self.timeline.clone(),
            path: self.path.clone(),
            query: self.view.query.clone(),
        }
    }

    /// Export the persistent state as pretty JSON.
    pub fn export_json(&self) -> String {
        serde_json::to_string_pretty(&self.export_state()).expect("session state serializes")
    }

    /// Restore a previously exported state and recompute the view.
    pub fn restore_state(&mut self, state: SessionState) {
        self.timeline = state.timeline;
        self.path = state.path;
        self.view.query = state.query;
        self.recompute();
    }

    // ---- internals -----------------------------------------------------

    fn record(&mut self, action: &UserAction) {
        let summary = self.view.query.summary_with(&self.handle);
        let index = self
            .timeline
            .record(action.verb(), self.view.query.clone(), summary.clone());
        self.path
            .advance(NodeKind::Query, summary, Some(index), action.verb());
    }

    /// Recompute entities/features/heat map for the current query.
    fn recompute(&mut self) {
        let q = &self.view.query;
        // Fetch extra features so per-predicate diversification has a
        // pool to reorder before truncation.
        let feature_pool = if self.config.diversify_features > 0 {
            self.config.k_features * 4
        } else {
            self.config.k_features
        };
        let (entities, mut features) = if !q.sf.is_empty() {
            let res = self
                .expander
                .expand(&q.sf, self.config.k_entities, feature_pool);
            (res.entities, res.features)
        } else if let Some(keywords) = &q.keywords {
            let hits = self.search_hits(keywords, self.config.k_entities);
            let entities: Vec<RankedEntity> = hits
                .iter()
                .map(|h| RankedEntity {
                    entity: h.entity,
                    score: h.score,
                })
                .collect();
            // Recommend features for the top hits as pseudo-seeds. Hits of
            // a keyword query mix types (films, actors, cities …), and the
            // commonality product over a heterogeneous seed set collapses
            // to zero — so only hits sharing a type with the best hit act
            // as pseudo-seeds, with a single-seed fallback.
            let pseudo: Vec<EntityId> = match hits.first() {
                Some(top) => {
                    let top_types: Vec<TypeId> = self.handle.graph().types_of(top.entity).collect();
                    hits.iter()
                        .map(|h| h.entity)
                        .filter(|&e| {
                            e == top.entity
                                || self
                                    .handle
                                    .graph()
                                    .types_of(e)
                                    .any(|t| top_types.contains(&t))
                        })
                        .take(self.config.pseudo_seeds_from_search)
                        .collect()
                }
                None => Vec::new(),
            };
            let mut features = self.expander.ranker().rank_features(&pseudo);
            if features.is_empty() && pseudo.len() > 1 {
                features = self.expander.ranker().rank_features(&pseudo[..1]);
            }
            features.truncate(feature_pool);
            (entities, features)
        } else {
            (Vec::new(), Vec::new())
        };
        if self.config.diversify_features > 0 {
            features = pivote_core::diversify_features(&features, self.config.diversify_features);
        }
        features.truncate(self.config.k_features);
        let axis: Vec<EntityId> = entities.iter().map(|re| re.entity).collect();
        self.view.heatmap = HeatMap::compute(self.expander.ranker(), &axis, &features);
        self.view.entities = entities;
        self.view.features = features;
    }

    /// The most specific (smallest-extent) type shared by all seeds.
    fn common_specific_type(&self, seeds: &[EntityId]) -> Option<TypeId> {
        let mut iter = seeds.iter();
        let first = iter.next()?;
        let mut shared: Vec<TypeId> = self.handle.graph().types_of(*first).collect();
        for &e in iter {
            let types: Vec<TypeId> = self.handle.graph().types_of(e).collect();
            shared.retain(|t| types.contains(t));
        }
        shared
            .into_iter()
            .min_by_key(|&t| self.handle.graph().type_extent_len(t))
    }

    /// The dominant type of a feature's extent — where a pivot lands.
    fn dominant_type(&self, feature: SemanticFeature) -> Option<TypeId> {
        let extent = self.handle.feature_extent(feature);
        let mut counts: std::collections::HashMap<TypeId, usize> = std::collections::HashMap::new();
        for &e in extent.as_ref() {
            for t in self.handle.graph().types_of(e) {
                *counts.entry(t).or_default() += 1;
            }
        }
        counts
            .into_iter()
            .max_by(|a, b| {
                a.1.cmp(&b.1)
                    // tie: prefer the more specific (smaller) type
                    .then_with(|| {
                        self.handle
                            .graph()
                            .type_extent_len(b.0)
                            .cmp(&self.handle.graph().type_extent_len(a.0))
                    })
                    .then_with(|| b.0.cmp(&a.0))
            })
            .map(|(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivote_core::Direction;
    use pivote_kg::{generate, DatagenConfig, KnowledgeGraph};

    fn session_kg() -> KnowledgeGraph {
        generate(&DatagenConfig::tiny())
    }

    #[test]
    fn keyword_search_fills_view() {
        let kg = session_kg();
        let sg = ShardedGraph::from(kg.clone());
        let mut s = Session::with_defaults(&sg);
        let film = kg.type_id("Film").unwrap();
        let f = kg.type_extent(film)[0];
        let label = kg.display_name(f);
        let view = s.submit_keywords(&label);
        assert!(!view.entities.is_empty());
        assert!(!view.features.is_empty());
        assert_eq!(view.heatmap.width(), view.entities.len());
        assert_eq!(view.heatmap.height(), view.features.len());
        assert_eq!(s.timeline().len(), 1);
        assert_eq!(s.path().nodes().len(), 1);
    }

    #[test]
    fn click_entity_starts_investigation_with_type_filter() {
        let kg = session_kg();
        let sg = ShardedGraph::from(kg.clone());
        let mut s = Session::with_defaults(&sg);
        let film = kg.type_id("Film").unwrap();
        let f = kg.type_extent(film)[0];
        let view = s.click_entity(f);
        assert_eq!(view.query.sf.seeds, vec![f]);
        // auto type filter picks Film (smaller extent than Work)
        assert_eq!(view.query.sf.type_filter, Some(film));
        for re in &view.entities {
            assert!(kg.has_type(re.entity, film));
        }
    }

    #[test]
    fn duplicate_click_is_ignored() {
        let kg = session_kg();
        let sg = ShardedGraph::from(kg.clone());
        let mut s = Session::with_defaults(&sg);
        let film = kg.type_id("Film").unwrap();
        let f = kg.type_extent(film)[0];
        s.click_entity(f);
        let before = s.timeline().len();
        s.click_entity(f);
        assert_eq!(s.timeline().len(), before, "no-op must not pollute history");
    }

    #[test]
    fn select_feature_filters_results() {
        let kg = session_kg();
        let sg = ShardedGraph::from(kg.clone());
        let mut s = Session::with_defaults(&sg);
        let starring = kg.predicate("starring").unwrap();
        let actor = kg.type_id("Actor").unwrap();
        // most popular actor
        let a = *kg
            .type_extent(actor)
            .iter()
            .max_by_key(|&&a| kg.subjects(a, starring).len())
            .unwrap();
        let sf = SemanticFeature::to_anchor(a, starring);
        let view = s.select_feature(sf);
        assert!(!view.entities.is_empty());
        for re in &view.entities {
            assert!(sf.matches(&kg, re.entity), "result must star the actor");
        }
    }

    #[test]
    fn pivot_switches_domain() {
        let kg = session_kg();
        let sg = ShardedGraph::from(kg.clone());
        let mut s = Session::with_defaults(&sg);
        let film = kg.type_id("Film").unwrap();
        let actor = kg.type_id("Actor").unwrap();
        let f = kg.type_extent(film)[0];
        s.click_entity(f);
        // pivot through the film's cast: feature <f, starring, x>
        let starring = kg.predicate("starring").unwrap();
        let sf = SemanticFeature {
            anchor: f,
            predicate: starring,
            direction: Direction::FromAnchor,
        };
        let view = s.pivot(sf);
        assert_eq!(
            view.query.sf.type_filter,
            Some(actor),
            "pivot lands in Actor"
        );
        for re in &view.entities {
            assert!(kg.has_type(re.entity, actor));
        }
    }

    #[test]
    fn lookup_fills_focus_without_changing_query() {
        let kg = session_kg();
        let sg = ShardedGraph::from(kg.clone());
        let mut s = Session::with_defaults(&sg);
        let film = kg.type_id("Film").unwrap();
        let f = kg.type_extent(film)[0];
        s.click_entity(f);
        let q_before = s.view().query.clone();
        let timeline_before = s.timeline().len();
        s.lookup(f);
        assert!(s.view().focus.is_some());
        assert_eq!(s.view().query, q_before);
        assert_eq!(s.timeline().len(), timeline_before);
        // but the path gained an entity node
        assert!(s.path().nodes().iter().any(|n| n.kind == NodeKind::Entity));
    }

    #[test]
    fn revisit_restores_query() {
        let kg = session_kg();
        let sg = ShardedGraph::from(kg.clone());
        let mut s = Session::with_defaults(&sg);
        let film = kg.type_id("Film").unwrap();
        let f0 = kg.type_extent(film)[0];
        let f1 = kg.type_extent(film)[1];
        s.click_entity(f0);
        let q0 = s.view().query.clone();
        s.click_entity(f1);
        assert_ne!(s.view().query, q0);
        s.apply(UserAction::RevisitQuery { index: 0 });
        assert_eq!(s.view().query, q0);
        // path has a revisit edge back to the first node
        assert!(s.path().edges().iter().any(|e| e.action == "revisit"));
    }

    #[test]
    fn remove_seed_reverts_results() {
        let kg = session_kg();
        let sg = ShardedGraph::from(kg.clone());
        let mut s = Session::with_defaults(&sg);
        let film = kg.type_id("Film").unwrap();
        let f0 = kg.type_extent(film)[0];
        s.click_entity(f0);
        s.apply(UserAction::RemoveSeed { entity: f0 });
        assert!(s.view().query.sf.seeds.is_empty());
        assert!(s.view().entities.is_empty());
    }

    #[test]
    fn clear_resets_everything_but_history() {
        let kg = session_kg();
        let sg = ShardedGraph::from(kg.clone());
        let mut s = Session::with_defaults(&sg);
        s.submit_keywords("film");
        s.apply(UserAction::ClearQuery);
        assert!(s.view().query.is_empty());
        assert!(s.view().entities.is_empty());
        assert!(s.timeline().len() >= 2, "history preserved");
    }

    #[test]
    fn feature_axis_covers_multiple_aspects() {
        // Fig. 3-e mixes predicates; the diversified y-axis must too.
        let kg = generate(&DatagenConfig::small());
        let sg = ShardedGraph::from(kg.clone());
        let mut s = Session::with_defaults(&sg);
        let film = kg.type_id("Film").unwrap();
        let f = *kg
            .type_extent(film)
            .iter()
            .max_by_key(|&&f| kg.degree(f))
            .unwrap();
        s.click_entity(f);
        let preds: std::collections::HashSet<_> = s
            .view()
            .features
            .iter()
            .map(|rf| rf.feature.predicate)
            .collect();
        assert!(
            preds.len() >= 3,
            "expected a multi-aspect feature axis, got {} predicates",
            preds.len()
        );
    }

    #[test]
    fn sharded_session_matches_single_session_rankings() {
        // the same clicks against three shards must produce
        // bit-identical recommendation areas and heat maps
        let kg = session_kg();
        let sg = ShardedGraph::from_graph(&kg, 3);
        let film = kg.type_id("Film").unwrap();
        let f = kg.type_extent(film)[0];

        let one = ShardedGraph::from(kg.clone());
        let mut single = Session::with_defaults(&one);
        let mut sharded = Session::with_defaults(&sg);
        single.click_entity(f);
        sharded.click_entity(f);

        let (a, b) = (single.view(), sharded.view());
        assert_eq!(a.query, b.query, "query state (incl. auto type filter)");
        assert_eq!(a.entities.len(), b.entities.len());
        for (x, y) in a.entities.iter().zip(&b.entities) {
            assert_eq!(x.entity, y.entity);
            assert!((x.score - y.score).abs() == 0.0, "score not bit-identical");
        }
        assert_eq!(a.features.len(), b.features.len());
        for (x, y) in a.features.iter().zip(&b.features) {
            assert_eq!(x.feature, y.feature);
            assert!((x.score - y.score).abs() == 0.0);
        }
        assert_eq!(a.heatmap.levels, b.heatmap.levels, "heat-map levels");
        assert_eq!(a.heatmap.values, b.heatmap.values, "heat-map values");
        assert_eq!(
            single.timeline().iter().last().unwrap().summary,
            sharded.timeline().iter().last().unwrap().summary,
            "timeline summaries render identically"
        );

        // profiles assemble from home shards
        sharded.lookup(f);
        let profile = sharded.view().focus.as_ref().unwrap();
        assert_eq!(profile.label, kg.display_name(f));

        // keyword search merges per-shard hits scored against the global
        // corpus statistics — bit-identical at every shard count
        for query in [kg.display_name(f), "the film".to_owned()] {
            let sh = sharded.search_hits(&query, 10);
            let si = single.search_hits(&query, 10);
            assert_eq!(sh.len(), si.len(), "hit count for {query:?}");
            for (x, y) in sh.iter().zip(&si) {
                assert_eq!(x.entity, y.entity, "hit order for {query:?}");
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "search score for {query:?} not bit-identical"
                );
            }
        }
    }

    #[test]
    fn sharded_search_is_bit_identical_at_every_shard_count() {
        // the reference is one search engine over the whole graph
        let kg = session_kg();
        let single = SearchEngine::build(&kg, SessionConfig::default().search);
        let film = kg.type_id("Film").unwrap();
        let label = kg.display_name(kg.type_extent(film)[0]);
        let queries = [label.as_str(), "the film", "american work"];
        let mut partitions = vec![ShardedGraph::from(kg.clone())];
        partitions.extend((1..=4).map(|n| ShardedGraph::from_graph(&kg, n)));
        for sg in &partitions {
            let shards = sg.shard_count();
            let sharded = Session::with_defaults(sg);
            for query in queries {
                let sh = sharded.search_hits(query, 25);
                let si = single.search(query, 25);
                assert_eq!(sh.len(), si.len(), "{shards} shards, {query:?}");
                for (x, y) in sh.iter().zip(&si) {
                    assert_eq!(x.entity, y.entity, "{shards} shards, {query:?}");
                    assert_eq!(
                        x.score.to_bits(),
                        y.score.to_bits(),
                        "{shards} shards, {query:?}: score drift"
                    );
                }
            }
        }
    }

    #[test]
    fn replay_onto_sharded_backend_reproduces_rankings() {
        let kg = session_kg();
        let sg = ShardedGraph::from_graph(&kg, 2);
        let film = kg.type_id("Film").unwrap();
        let f = kg.type_extent(film)[0];
        let one = ShardedGraph::from(kg.clone());
        let mut original = Session::with_defaults(&one);
        original.click_entity(f);
        let replayed = crate::replay::replay_with_handle(
            &GraphHandle::new(&sg),
            SessionConfig::default(),
            original.action_log(),
        );
        assert_eq!(
            original
                .view()
                .entities
                .iter()
                .map(|re| re.entity)
                .collect::<Vec<_>>(),
            replayed
                .view()
                .entities
                .iter()
                .map(|re| re.entity)
                .collect::<Vec<_>>(),
            "a one-shard session must replay identically on two shards"
        );
    }

    #[test]
    fn state_export_import_roundtrip() {
        let kg = session_kg();
        let sg = ShardedGraph::from(kg.clone());
        let mut s = Session::with_defaults(&sg);
        let film = kg.type_id("Film").unwrap();
        s.click_entity(kg.type_extent(film)[0]);
        let json = s.export_json();
        let state: SessionState = serde_json::from_str(&json).unwrap();
        let sg = ShardedGraph::from(kg.clone());
        let mut s2 = Session::with_defaults(&sg);
        s2.restore_state(state.clone());
        assert_eq!(s2.view().query, s.view().query);
        assert_eq!(s2.timeline(), s.timeline());
        assert_eq!(s2.export_state(), state);
        // restored session recomputes the same recommendations
        assert_eq!(s2.view().entities.len(), s.view().entities.len());
    }

    #[test]
    fn full_scenario_investigate_then_pivot_builds_path() {
        // The Fig. 4 shape: search → investigate → pivot, with a lookup.
        let kg = session_kg();
        let sg = ShardedGraph::from(kg.clone());
        let mut s = Session::with_defaults(&sg);
        let film = kg.type_id("Film").unwrap();
        let f = kg.type_extent(film)[0];
        s.submit_keywords(&kg.display_name(f));
        s.click_entity(f);
        s.lookup(f);
        let starring = kg.predicate("starring").unwrap();
        let sf = SemanticFeature {
            anchor: f,
            predicate: starring,
            direction: Direction::FromAnchor,
        };
        s.pivot(sf);
        let trail = s.path().query_trail();
        assert_eq!(trail.len(), 3, "search, investigate, pivot");
        let verbs: Vec<&str> = s.path().edges().iter().map(|e| e.action.as_str()).collect();
        assert!(verbs.contains(&"investigate"));
        assert!(verbs.contains(&"lookup"));
        assert!(verbs.contains(&"pivot"));
    }
}
