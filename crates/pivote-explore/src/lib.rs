//! # pivote-explore — the PivotE exploration session engine (paper §2.1, §3)
//!
//! The interaction state machine behind the PivotE interface. The paper's
//! web UI is reproduced as a library: every affordance of Fig. 3 is a
//! [`UserAction`], and [`Session::apply`] performs the paper's dynamic
//! query formulation, producing the recommendation areas, the heat map,
//! the timeline (Fig. 3-g) and the exploratory path (Fig. 4).
//!
//! There is one session type. A [`Session`] explores a
//! [`LiveStore`](pivote_core::LiveStore) and keeps one published
//! snapshot of it pinned: every action answers at that generation, and
//! [`Session::refresh`] re-pins to the store's latest one. A static graph
//! is a store that never writes ([`Session::with_defaults`]). Keyword
//! search runs through a [`LiveSearchCache`], whose engines attach to
//! the snapshot, so a server's [`SearchWarmer`] and every session pinned
//! to the same generation share one index.
//!
//! ```
//! use pivote_core::LiveStore;
//! use pivote_explore::{Session, SessionConfig};
//! use pivote_kg::{generate, DatagenConfig, DeltaBatch};
//! use std::sync::Arc;
//!
//! let kg = generate(&DatagenConfig::tiny());
//! let film = kg.type_id("Film").unwrap();
//! let seed = kg.type_extent(film)[0];
//! let store = Arc::new(LiveStore::new(kg));
//! let mut session = Session::new(Arc::clone(&store), SessionConfig::default());
//! let view = session.click_entity(seed);        // investigation
//! assert!(!view.features.is_empty());
//!
//! // a write moves the store, not the pinned session ...
//! let mut delta = DeltaBatch::new();
//! delta.typed("Brand_New_Film", "Film");
//! store.append(&delta).unwrap();
//! assert_eq!(session.generation(), 0);
//! // ... until the session re-pins
//! assert_eq!(session.refresh(), 1);
//! assert!(session.snapshot().backend().entity("Brand_New_Film").is_some());
//! ```

#![forbid(unsafe_code)]
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
pub use live::{LiveSearchCache, SearchWarmer};
pub use path::{ExplorationPath, NodeKind, PathEdge, PathNode};
pub use profile::{build_profile, EntityProfile};
pub use query::ExplorationQuery;
pub use replay::{replay, session_stats, ActionLog, ReplayError, SessionStats, UnknownId};
pub use session::{Session, SessionConfig, SessionState, ViewState};
pub use timeline::{Timeline, TimelineEntry};
