//! # pivote-explore — the PivotE exploration session engine (paper §2.1, §3)
//!
//! The interaction state machine behind the PivotE interface. The paper's
//! web UI is reproduced as a library: every affordance of Fig. 3 is a
//! [`UserAction`], and [`Session::apply`] performs the paper's dynamic
//! query formulation, producing the recommendation areas, the heat map,
//! the timeline (Fig. 3-g) and the exploratory path (Fig. 4).
//!
//! ```
//! use pivote_explore::Session;
//! use pivote_kg::{generate, DatagenConfig, ShardedGraph};
//!
//! let kg = generate(&DatagenConfig::tiny());
//! let film = kg.type_id("Film").unwrap();
//! let seed = kg.type_extent(film)[0];
//! let sg = ShardedGraph::from(kg);
//! let mut session = Session::with_defaults(&sg);
//! let view = session.click_entity(seed);        // investigation
//! assert!(!view.features.is_empty());
//! ```

#![warn(missing_docs)]

pub mod events;
pub mod live;
pub mod path;
pub mod profile;
pub mod query;
pub mod replay;
pub mod session;
pub mod timeline;

pub use events::UserAction;
pub use live::{LiveEvent, LiveLog, LiveSearchCache, LiveSession, SearchWarmer};
pub use path::{ExplorationPath, NodeKind, PathEdge, PathNode};
pub use profile::{build_profile, EntityProfile};
pub use query::ExplorationQuery;
pub use replay::{replay, replay_live, replay_with_handle, session_stats, ActionLog, SessionStats};
pub use session::{
    merge_corpus_stats, search_backend_hits, SearchBackend, Session, SessionConfig, SessionState,
    ViewState,
};
pub use timeline::{Timeline, TimelineEntry};
