//! The exploration session: PivotE's interaction loop.
//!
//! A [`Session`] exposes a single entry point — [`Session::apply`] — that
//! turns every [`UserAction`] into an updated [`ViewState`], mirroring
//! the paper's architecture (Fig. 2): the interface forwards clicks, the
//! engines recompute the recommendation areas, the heat map explains
//! them. It owns the durable state (timeline, exploratory path, current
//! view, action log) and runs every action on one [`PreparedSnapshot`]
//! of a [`LiveStore`] that it keeps pinned: writes to the store do not
//! move the session until [`Session::refresh`] re-pins it to the
//! store's current snapshot. A static graph is a store that never
//! writes.
//!
//! Keyword search goes through a [`LiveSearchCache`], whose engines
//! attach to the pinned snapshot, so sessions and a server over the same
//! store share one set of engines per generation.

use crate::events::UserAction;
use crate::live::LiveSearchCache;
use crate::path::{ExplorationPath, NodeKind};
use crate::profile::{build_profile, EntityProfile};
use crate::query::ExplorationQuery;
use crate::replay::ActionLog;
use crate::timeline::Timeline;
use pivote_core::{
    Expander, HeatMap, LiveStore, PreparedSnapshot, RankedEntity, RankedFeature, RankingConfig,
    SemanticFeature, SfQuery,
};
use pivote_kg::{EntityId, ShardedGraph, TypeId};
use pivote_search::{Hit, SearchConfig};
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

/// An interactive exploration session, pinned to one
/// [`PreparedSnapshot`] of a [`LiveStore`].
pub struct Session {
    store: Arc<LiveStore>,
    snap: Arc<PreparedSnapshot>,
    search: LiveSearchCache,
    config: SessionConfig,
    timeline: Timeline,
    path: ExplorationPath,
    view: ViewState,
    log: ActionLog,
}

impl Session {
    /// A session over `store`, pinned to its current snapshot. Turns on
    /// the store's snapshot publication if it is off (a no-op on a store
    /// that already publishes, such as a served one). Every query path
    /// (search, expansion, heat map, profiles, replay) runs on a handle
    /// of the pinned snapshot, so sessions pinned to the same snapshot
    /// share the store's memoized state and the snapshot's search
    /// engines.
    pub fn new(store: Arc<LiveStore>, config: SessionConfig) -> Self {
        store.enable_snapshots();
        let snap = store
            .snapshot()
            .expect("enable_snapshots publishes the current state");
        Self {
            store,
            snap,
            search: LiveSearchCache::new(SearchConfig::default()),
            config,
            timeline: Timeline::new(),
            path: ExplorationPath::new(),
            view: ViewState::empty(),
            log: ActionLog::new(),
        }
    }

    /// Session with default configuration over a store that never
    /// writes: `sg` is cloned, which shares every shard graph.
    pub fn with_defaults(sg: &ShardedGraph) -> Self {
        Self::new(
            Arc::new(LiveStore::new(sg.clone())),
            SessionConfig::default(),
        )
    }

    /// The store this session explores.
    pub fn store(&self) -> &Arc<LiveStore> {
        &self.store
    }

    /// The snapshot every action runs on.
    pub fn snapshot(&self) -> &Arc<PreparedSnapshot> {
        &self.snap
    }

    /// The store generation the session is pinned to.
    pub fn generation(&self) -> u64 {
        self.snap.generation()
    }

    /// Re-pin the session to the store's current snapshot and return its
    /// generation. The durable state (timeline, path, query, view, log)
    /// is kept as it is; the next recomputing action answers at the new
    /// generation.
    pub fn refresh(&mut self) -> u64 {
        self.snap = self
            .store
            .snapshot()
            .expect("a session's store publishes snapshots");
        self.generation()
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

    /// Top-`k` keyword hits at the pinned generation.
    pub fn search_hits(&self, query: &str, k: usize) -> Vec<Hit> {
        self.search.search_prepared(&self.snap, query, k)
    }

    /// The recommendation engine over the pinned snapshot.
    pub fn expander(&self) -> Expander<'_> {
        Expander::with_handle(self.snap.handle(), self.config.ranking)
    }

    /// Every action applied to this session, in order (for replay).
    pub fn action_log(&self) -> &ActionLog {
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
                    self.expander().ranker(),
                    entity,
                    self.config.k_profile_features,
                ));
                let label = self.snap.backend().display_name(entity);
                self.path.branch(NodeKind::Entity, label, action.verb());
            }
            UserAction::RevisitQuery { index } => {
                if let Some(entry) = self.timeline.get(index) {
                    self.view.query = entry.query.clone();
                    self.recompute();
                    match self.path.node_for_timeline(index) {
                        Some(node) => self.path.jump_to(node),
                        None => {
                            let label = self.view.query.summary_with(&self.snap.handle());
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
        let summary = self.view.query.summary_with(&self.snap.handle());
        let index = self
            .timeline
            .record(action.verb(), self.view.query.clone(), summary.clone());
        self.path
            .advance(NodeKind::Query, summary, Some(index), action.verb());
    }

    /// Recompute entities/features/heat map for the current query.
    fn recompute(&mut self) {
        let (entities, features, heatmap) = self.render(&self.view.query);
        self.view.heatmap = heatmap;
        self.view.entities = entities;
        self.view.features = features;
    }

    /// The recommendation areas and heat map of `q` at the pinned
    /// generation.
    fn render(&self, q: &ExplorationQuery) -> (Vec<RankedEntity>, Vec<RankedFeature>, HeatMap) {
        let expander = self.expander();
        let graph = self.snap.backend();
        // Fetch extra features so per-predicate diversification has a
        // pool to reorder before truncation.
        let feature_pool = if self.config.diversify_features > 0 {
            self.config.k_features * 4
        } else {
            self.config.k_features
        };
        let (entities, mut features) = if !q.sf.is_empty() {
            let res = expander.expand(&q.sf, self.config.k_entities, feature_pool);
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
                    let top_types: Vec<TypeId> = graph.types_of(top.entity).collect();
                    hits.iter()
                        .map(|h| h.entity)
                        .filter(|&e| {
                            e == top.entity || graph.types_of(e).any(|t| top_types.contains(&t))
                        })
                        .take(self.config.pseudo_seeds_from_search)
                        .collect()
                }
                None => Vec::new(),
            };
            let mut features = expander.ranker().rank_features(&pseudo);
            if features.is_empty() && pseudo.len() > 1 {
                features = expander.ranker().rank_features(&pseudo[..1]);
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
        let heatmap = HeatMap::compute(expander.ranker(), &axis, &features);
        (entities, features, heatmap)
    }

    /// The most specific (smallest-extent) type shared by all seeds.
    fn common_specific_type(&self, seeds: &[EntityId]) -> Option<TypeId> {
        let graph = self.snap.backend();
        let mut iter = seeds.iter();
        let first = iter.next()?;
        let mut shared: Vec<TypeId> = graph.types_of(*first).collect();
        for &e in iter {
            let types: Vec<TypeId> = graph.types_of(e).collect();
            shared.retain(|t| types.contains(t));
        }
        shared.into_iter().min_by_key(|&t| graph.type_extent_len(t))
    }

    /// The dominant type of a feature's extent — where a pivot lands.
    fn dominant_type(&self, feature: SemanticFeature) -> Option<TypeId> {
        let graph = self.snap.backend();
        let extent = self.snap.handle().feature_extent(feature);
        let mut counts: std::collections::HashMap<TypeId, usize> = std::collections::HashMap::new();
        for &e in extent.as_ref() {
            for t in graph.types_of(e) {
                *counts.entry(t).or_default() += 1;
            }
        }
        counts
            .into_iter()
            .max_by(|a, b| {
                a.1.cmp(&b.1)
                    // tie: prefer the more specific (smaller) type
                    .then_with(|| graph.type_extent_len(b.0).cmp(&graph.type_extent_len(a.0)))
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

    /// A session over a one-shard copy of `kg`.
    fn open(kg: &KnowledgeGraph) -> Session {
        Session::with_defaults(&ShardedGraph::from(kg.clone()))
    }

    #[test]
    fn keyword_search_fills_view() {
        let kg = session_kg();
        let mut s = open(&kg);
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
        let mut s = open(&kg);
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
        let mut s = open(&kg);
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
        let mut s = open(&kg);
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
        let mut s = open(&kg);
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
        let mut s = open(&kg);
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
        let mut s = open(&kg);
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
        let mut s = open(&kg);
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
        let mut s = open(&kg);
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
        let mut s = open(&kg);
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

        let mut single = open(&kg);
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
        let single = pivote_search::SearchEngine::build(&kg, SearchConfig::default());
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
        let mut original = open(&kg);
        original.click_entity(f);
        let mut replayed = Session::with_defaults(&sg);
        crate::replay::replay(&mut replayed, original.action_log()).expect("ids exist");
        assert_eq!(
            original.view().entities,
            replayed.view().entities,
            "a one-shard session must replay identically on two shards"
        );
    }

    #[test]
    fn state_export_import_roundtrip() {
        let kg = session_kg();
        let mut s = open(&kg);
        let film = kg.type_id("Film").unwrap();
        s.click_entity(kg.type_extent(film)[0]);
        let json = s.export_json();
        let state: SessionState = serde_json::from_str(&json).unwrap();
        let mut s2 = open(&kg);
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
        let mut s = open(&kg);
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
