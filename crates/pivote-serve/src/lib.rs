//! # pivote-serve — the serving layer over a [`pivote_core::LiveStore`]
//!
//! A `std::net` TCP server (no async runtime) speaking a line-delimited
//! JSON protocol that exposes the whole live stack to remote clients:
//!
//! | op | backed by |
//! |---|---|
//! | `rank` | [`pivote_core::Expander`] — features + entities for seeds |
//! | `expand` | entity-set expansion with an optional type filter |
//! | `heatmap` | [`pivote_core::HeatMap`] — the Fig. 3-f matrix |
//! | `search` | [`pivote_explore::LiveSearchCache`] — five-field keyword search |
//! | `append` | the N-Triples delta parser + [`pivote_core::LiveStore::append`] |
//! | `stats` | generation / shard / density-cache probes |
//! | `shutdown` | graceful stop, persisting warm state |
//!
//! Two layers. [`Service`] answers a request in-process: it owns the
//! store, the search cache and its warmer, and the response memo, and
//! exposes [`Service::compute`] (one read against one snapshot, no memo)
//! and [`Service::call`] (one request line → one response line, what a
//! worker runs). Tests and benchmarks call it directly. [`Server`] is
//! only sockets: listener, worker pool, line framing with an idle
//! budget, and graceful shutdown around one `Arc<Service>`.
//!
//! All connections share **one** store and **one** density cache, so
//! the memoization and invalidation guarantees of the library hold
//! across clients. A serving leader does not compact: at `--shards 1`
//! (the default) writes splice into the one shard in place, and on a
//! partition the trailing shards its writes open stay for the life of
//! the store. See [`server`]
//! for the shutdown/warm-restart semantics and [`protocol`] for the wire
//! format.
//!
//! Try it by hand (`nc` is all a client needs):
//!
//! ```text
//! $ cargo run -p pivote-serve -- --data data/sample.nt --addr 127.0.0.1:7878
//! $ printf '%s\n' '{"op":"search","query":"forrest gump","k":3}' | nc 127.0.0.1 7878
//! {"ok":true,"generation":0,"hits":[["Forrest_Gump",-7.58150480523183],...]}
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod service;

pub use client::{num_field, response_ok, scored_list, Client};
pub use protocol::{Reply, Request, MAX_REQUEST_COUNT};
pub use server::{open_store, OpenedStore, ServeConfig, Server, ShutdownReport};
pub use service::Service;
