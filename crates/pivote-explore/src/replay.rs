//! Action logs: record every user action of a session and replay it
//! against a fresh session — the mechanism behind reproducible demo
//! scenarios and the session statistics shown in the Fig. 4 "view".

use crate::events::UserAction;
use crate::session::Session;
use pivote_kg::KnowledgeGraph;
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

/// Apply every action of `log` to `session` in order. Returns how many
/// actions were applied.
pub fn replay(session: &mut Session<'_>, log: &ActionLog) -> usize {
    for action in &log.actions {
        session.apply(action.clone());
    }
    log.actions.len()
}

/// Replay a log onto a *fresh* session that shares an existing
/// [`QueryContext`](pivote_core::QueryContext) — every `p(π|c)` density
/// the original session memoized is a cache hit during the replay, which
/// is what makes reproducing demo scenarios and "revisit historical
/// queries" cheap.
pub fn replay_with_context<'kg>(
    ctx: &std::sync::Arc<pivote_core::QueryContext<'kg>>,
    config: crate::session::SessionConfig,
    log: &ActionLog,
) -> Session<'kg> {
    let mut session = Session::with_context(std::sync::Arc::clone(ctx), config);
    replay(&mut session, log);
    session
}

/// [`replay_with_context`] over any backend handle — the mechanism that
/// lets a recorded session be reproduced against a sharded deployment of
/// the same graph (rankings replay bit-identically on both backends).
pub fn replay_with_handle<'kg>(
    handle: &pivote_core::GraphHandle<'kg>,
    config: crate::session::SessionConfig,
    log: &ActionLog,
) -> Session<'kg> {
    let mut session = Session::with_handle(handle.clone(), config);
    replay(&mut session, log);
    session
}

/// Replay a [`LiveLog`](crate::live::LiveLog) — user actions, store
/// appends **and compactions**, in their original order — onto a fresh
/// [`LiveSession`](crate::live::LiveSession) over `live`, whichever
/// layout it holds. Starting from the same base store this reproduces
/// the entire live exploration — growth and re-partitioning included —
/// with bit-identical rankings, heat maps and profiles: appends are
/// deterministic splices, compaction is an answer-preserving offline
/// rebuild, and actions are deterministic queries.
///
/// [`LiveEvent::Compact`](crate::live::LiveEvent::Compact) events are
/// the identity on a single-layout store (a single graph is always one
/// partition, and compaction changes no answer), so a log recorded
/// against a sharded deployment still replays to bit-identical rankings
/// on a single one — the live twin of [`replay_with_handle`]'s
/// single-vs-sharded guarantee.
pub fn replay_live<'g>(
    live: &'g pivote_core::LiveStore,
    config: crate::session::SessionConfig,
    log: &crate::live::LiveLog,
) -> crate::live::LiveSession<'g> {
    let mut session = crate::live::LiveSession::new(live, config);
    for event in &log.events {
        match event {
            crate::live::LiveEvent::Action(action) => {
                session.apply(action.clone());
            }
            crate::live::LiveEvent::Append(delta) => {
                session.append(delta).expect("replayed append applies");
            }
            crate::live::LiveEvent::Compact { target_shards } => {
                session
                    .compact(*target_shards)
                    .expect("replayed compaction applies");
            }
        }
    }
    session
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
pub fn session_stats(kg: &KnowledgeGraph, session: &Session<'_>) -> SessionStats {
    let mut actions_by_verb: BTreeMap<String, usize> = BTreeMap::new();
    for action in &session.action_log().actions {
        *actions_by_verb.entry(action.verb().to_owned()).or_default() += 1;
    }
    let mut domains: Vec<String> = session
        .timeline()
        .iter()
        .filter_map(|entry| entry.query.sf.type_filter)
        .map(|t| kg.type_name(t).to_owned())
        .collect();
    domains.dedup();
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
    use pivote_core::{Direction, SemanticFeature};
    use pivote_kg::{generate, DatagenConfig};

    fn scripted(kg: &KnowledgeGraph) -> Session<'_> {
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

    #[test]
    fn sessions_record_their_actions() {
        let kg = generate(&DatagenConfig::tiny());
        let s = scripted(&kg);
        assert_eq!(s.action_log().len(), 4);
        let verbs: Vec<&str> = s.action_log().actions.iter().map(|a| a.verb()).collect();
        assert_eq!(verbs, vec!["search", "investigate", "lookup", "pivot"]);
    }

    #[test]
    fn replay_reproduces_the_session() {
        let kg = generate(&DatagenConfig::tiny());
        let original = scripted(&kg);
        let log = original.action_log().clone();

        let mut fresh = Session::with_defaults(&kg);
        let applied = replay(&mut fresh, &log);
        assert_eq!(applied, 4);
        assert_eq!(fresh.view().query, original.view().query);
        assert_eq!(fresh.timeline(), original.timeline());
        assert_eq!(
            fresh
                .view()
                .entities
                .iter()
                .map(|re| re.entity)
                .collect::<Vec<_>>(),
            original
                .view()
                .entities
                .iter()
                .map(|re| re.entity)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn replay_on_shared_context_reproduces_the_session() {
        let kg = generate(&DatagenConfig::tiny());
        let original = scripted(&kg);
        let replayed = super::replay_with_context(
            original.query_context(),
            crate::session::SessionConfig::default(),
            original.action_log(),
        );
        assert_eq!(replayed.view().query, original.view().query);
        assert_eq!(replayed.timeline(), original.timeline());
        assert_eq!(
            replayed
                .view()
                .entities
                .iter()
                .map(|re| re.entity)
                .collect::<Vec<_>>(),
            original
                .view()
                .entities
                .iter()
                .map(|re| re.entity)
                .collect::<Vec<_>>(),
            "shared-context replay must be bit-identical"
        );
    }

    #[test]
    fn replay_through_json_roundtrip() {
        let kg = generate(&DatagenConfig::tiny());
        let original = scripted(&kg);
        let json = original.action_log().to_json();
        let log = ActionLog::from_json(&json).unwrap();
        let mut fresh = Session::with_defaults(&kg);
        replay(&mut fresh, &log);
        assert_eq!(fresh.view().query, original.view().query);
    }

    #[test]
    fn stats_summarize_the_session() {
        let kg = generate(&DatagenConfig::tiny());
        let s = scripted(&kg);
        let stats = session_stats(&kg, &s);
        assert_eq!(stats.query_states, 3); // search, investigate, pivot
        assert_eq!(stats.lookups, 1);
        assert_eq!(stats.actions_by_verb.get("pivot"), Some(&1));
        assert!(stats.domains_visited.iter().any(|d| d == "Film"));
        assert!(stats.domains_visited.iter().any(|d| d == "Actor"));
    }

    #[test]
    fn bad_json_is_an_error() {
        assert!(ActionLog::from_json("not json").is_err());
    }
}
