//! Action logs: record every user action of a session and replay it
//! onto another session — the mechanism behind reproducible demo
//! scenarios and the session statistics shown in the Fig. 4 "view".
//!
//! A log names entities and predicates by id, so [`replay`] checks each
//! id against the target session's pinned snapshot before applying
//! anything: a log recorded after a [`Session::refresh`] can name
//! entities an older pin does not have.

use crate::events::UserAction;
use crate::session::Session;
use pivote_kg::{EntityId, PredicateId, ShardedGraph};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An append-only log of user actions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ActionLog {
    /// Actions in application order.
    pub actions: Vec<UserAction>,
}

impl ActionLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an action.
    pub fn push(&mut self, action: UserAction) {
        self.actions.push(action);
    }

    /// Number of recorded actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("actions serialize")
    }

    /// Parse from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// An id an action names that a session's pinned snapshot lacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownId {
    /// An entity outside the snapshot's id space.
    Entity(EntityId),
    /// A feature predicate outside the snapshot's dictionary.
    Predicate(PredicateId),
}

/// Why [`replay`] refused a log: the action at `index` names an id the
/// session's pinned snapshot lacks — for example an entity minted after
/// the pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayError {
    /// Position of the offending action in the log.
    pub index: usize,
    /// The id the snapshot lacks.
    pub id: UnknownId,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (what, raw) = match self.id {
            UnknownId::Entity(e) => ("entity", e.raw()),
            UnknownId::Predicate(p) => ("predicate", p.raw()),
        };
        write!(
            f,
            "action {} names {what} {raw}, which the pinned snapshot lacks",
            self.index
        )
    }
}

impl std::error::Error for ReplayError {}

/// The first id `action` names that `graph` lacks.
fn unknown_id(graph: &ShardedGraph, action: &UserAction) -> Option<UnknownId> {
    let entity = |e: EntityId| (e.index() >= graph.entity_count()).then_some(UnknownId::Entity(e));
    match action {
        UserAction::ClickEntity { entity: e }
        | UserAction::RemoveSeed { entity: e }
        | UserAction::LookupEntity { entity: e } => entity(*e),
        UserAction::SelectFeature { feature }
        | UserAction::RemoveFeature { feature }
        | UserAction::Pivot { feature } => entity(feature.anchor).or_else(|| {
            (feature.predicate.index() >= graph.predicate_count())
                .then_some(UnknownId::Predicate(feature.predicate))
        }),
        UserAction::SubmitKeywords { .. }
        | UserAction::RevisitQuery { .. }
        | UserAction::ClearQuery => None,
    }
}

/// Apply every action of `log` to `session` in order and return how many
/// were applied. Every id the log names is checked against the session's
/// pinned snapshot first; on the first one it lacks the session is left
/// untouched and the error names the action. Replaying onto a session
/// over the original store makes every `p(π|c)` density the original
/// memoized a cache hit, and a session over another partition of the
/// same graph reproduces the original bit-identically.
pub fn replay(session: &mut Session, log: &ActionLog) -> Result<usize, ReplayError> {
    let graph = session.snapshot().backend();
    for (index, action) in log.actions.iter().enumerate() {
        if let Some(id) = unknown_id(graph, action) {
            return Err(ReplayError { index, id });
        }
    }
    for action in &log.actions {
        session.apply(action.clone());
    }
    Ok(log.len())
}

/// Aggregate statistics of an exploration session, computed from its
/// log and timeline — what the demo's path "view" summarizes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Actions per verb (search, investigate, pivot, …).
    pub actions_by_verb: BTreeMap<String, usize>,
    /// Number of distinct query states visited.
    pub query_states: usize,
    /// Type domains the session touched (via type filters), by name.
    pub domains_visited: Vec<String>,
    /// Number of entity lookups.
    pub lookups: usize,
}

/// Compute statistics for a session.
pub fn session_stats(session: &Session) -> SessionStats {
    let mut actions_by_verb: BTreeMap<String, usize> = BTreeMap::new();
    for action in &session.action_log().actions {
        *actions_by_verb.entry(action.verb().to_owned()).or_default() += 1;
    }
    // first-occurrence order, every repeat dropped
    let graph = session.snapshot().backend();
    let mut domains: Vec<String> = Vec::new();
    for t in session
        .timeline()
        .iter()
        .filter_map(|entry| entry.query.sf.type_filter)
    {
        let name = graph.type_name(t);
        if !domains.iter().any(|d| d == name) {
            domains.push(name.to_owned());
        }
    }
    let lookups = actions_by_verb.get("lookup").copied().unwrap_or(0);
    SessionStats {
        actions_by_verb,
        query_states: session.timeline().len(),
        domains_visited: domains,
        lookups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionConfig;
    use pivote_core::{Direction, LiveStore, SemanticFeature};
    use pivote_kg::{generate, DatagenConfig, DeltaBatch};
    use std::sync::Arc;

    fn tiny() -> ShardedGraph {
        ShardedGraph::from(generate(&DatagenConfig::tiny()))
    }

    fn scripted(kg: &ShardedGraph) -> Session {
        let mut s = Session::with_defaults(kg);
        let film = kg.type_id("Film").unwrap();
        let f = kg.type_extent(film)[0];
        s.submit_keywords(&kg.display_name(f));
        s.click_entity(f);
        s.lookup(f);
        let starring = kg.predicate("starring").unwrap();
        s.pivot(SemanticFeature {
            anchor: f,
            predicate: starring,
            direction: Direction::FromAnchor,
        });
        s
    }

    fn entities(s: &Session) -> Vec<EntityId> {
        s.view().entities.iter().map(|re| re.entity).collect()
    }

    #[test]
    fn sessions_record_their_actions() {
        let kg = tiny();
        let s = scripted(&kg);
        assert_eq!(s.action_log().len(), 4);
        let verbs: Vec<&str> = s.action_log().actions.iter().map(|a| a.verb()).collect();
        assert_eq!(verbs, vec!["search", "investigate", "lookup", "pivot"]);
    }

    #[test]
    fn replay_reproduces_the_session() {
        let kg = tiny();
        let original = scripted(&kg);
        let log = original.action_log().clone();

        let mut fresh = Session::with_defaults(&kg);
        let applied = replay(&mut fresh, &log);
        assert_eq!(applied, Ok(4));
        assert_eq!(fresh.view().query, original.view().query);
        assert_eq!(fresh.timeline(), original.timeline());
        assert_eq!(entities(&fresh), entities(&original));
    }

    #[test]
    fn replay_on_shared_context_reproduces_the_session() {
        let kg = tiny();
        let original = scripted(&kg);
        // a session over the same store pins the same snapshot, so the
        // replay shares the original's memoized context and engines
        let mut replayed = Session::new(Arc::clone(original.store()), SessionConfig::default());
        assert!(Arc::ptr_eq(replayed.snapshot(), original.snapshot()));
        replay(&mut replayed, original.action_log()).expect("ids exist");
        assert_eq!(replayed.view().query, original.view().query);
        assert_eq!(replayed.timeline(), original.timeline());
        assert_eq!(
            entities(&replayed),
            entities(&original),
            "shared-context replay must be bit-identical"
        );
    }

    #[test]
    fn replay_through_json_roundtrip() {
        let kg = tiny();
        let original = scripted(&kg);
        let json = original.action_log().to_json();
        let log = ActionLog::from_json(&json).unwrap();
        let mut fresh = Session::with_defaults(&kg);
        replay(&mut fresh, &log).expect("ids exist");
        assert_eq!(fresh.view().query, original.view().query);
    }

    #[test]
    fn stats_summarize_the_session() {
        let kg = tiny();
        let mut s = scripted(&kg);
        let stats = session_stats(&s);
        assert_eq!(stats.query_states, 3); // search, investigate, pivot
        assert_eq!(stats.lookups, 1);
        assert_eq!(stats.actions_by_verb.get("pivot"), Some(&1));
        assert_eq!(stats.domains_visited, vec!["Film", "Actor"]);

        // Film → Actor → Film: the repeat is dropped, not only adjacent
        // ones, and first-occurrence order is kept
        let base = generate(&DatagenConfig::tiny());
        let film = base.type_id("Film").unwrap();
        let starring = base.predicate("starring").unwrap();
        let actor = base.objects(base.type_extent(film)[0], starring)[0];
        s.pivot(SemanticFeature::to_anchor(actor, starring));
        let stats = session_stats(&s);
        assert_eq!(stats.query_states, 4);
        assert_eq!(stats.domains_visited, vec!["Film", "Actor"]);
    }

    #[test]
    fn replay_refuses_ids_the_pinned_snapshot_lacks() {
        let kg = tiny();
        let store = Arc::new(LiveStore::with_threads(kg.clone(), 1));
        let mut old = Session::new(Arc::clone(&store), SessionConfig::default());

        // record on a session re-pinned after an entity was minted
        let mut d = DeltaBatch::new();
        d.typed("Minted_Film", "Film")
            .triple("Minted_Film", "minted_pred", "Minted_Actor");
        store.append(&d).expect("store healthy");
        let mut recorder = Session::new(Arc::clone(&store), SessionConfig::default());
        let minted = recorder.snapshot().backend().entity("Minted_Film").unwrap();
        let film = kg.type_id("Film").unwrap();
        recorder.click_entity(kg.type_extent(film)[0]);
        recorder.click_entity(minted);
        let log = ActionLog::from_json(&recorder.action_log().to_json()).unwrap();

        // the old pin lacks the entity: a typed error at its index, and
        // nothing applied
        assert_eq!(
            replay(&mut old, &log),
            Err(ReplayError {
                index: 1,
                id: UnknownId::Entity(minted),
            })
        );
        assert!(old.action_log().is_empty());
        assert!(old.timeline().is_empty());

        // a feature naming a predicate minted after the pin is refused too
        let pred = recorder
            .snapshot()
            .backend()
            .predicate("minted_pred")
            .unwrap();
        let mut features = ActionLog::new();
        features.push(UserAction::Pivot {
            feature: SemanticFeature::to_anchor(kg.type_extent(film)[0], pred),
        });
        let err = replay(&mut old, &features).unwrap_err();
        assert_eq!(err.id, UnknownId::Predicate(pred));
        assert!(err.to_string().starts_with("action 0 names"));

        // after a refresh the same logs replay
        old.refresh();
        assert_eq!(replay(&mut old, &log), Ok(2));
        assert_eq!(old.view().query, recorder.view().query);
    }

    #[test]
    fn bad_json_is_an_error() {
        assert!(ActionLog::from_json("not json").is_err());
    }
}
