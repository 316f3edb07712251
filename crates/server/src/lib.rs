//! The mobile application server (right half of Fig. 3): resumes remainder
//! queries over the complete R-tree, builds the supporting index `Ir` in
//! full / compact / d⁺-level compact form (§4.2–4.3), and runs the
//! per-client adaptive controller that tunes `d` from reported false-miss
//! rates (§4.3).
//!
//! One deployment type: a [`Cluster`] of N [`Shard`]s behind a
//! scatter-gather router, with one serve path, one §7 version gate, one
//! update path and one published value. A [`Server`] is the cluster of one
//! shard — a thin constructor whose methods forward.
//!
//! Concurrency: the whole surface is `&self` and `Send + Sync` — queries
//! (`process_remainder` / `report_fmr` / `direct`) *and* data updates
//! (`apply_updates`). A deployment publishes its whole world — the
//! dataset once, every shard's R*-tree + BPT store by `Arc` — as one
//! epoch-stamped immutable [`Snapshot`] behind the one [`SnapshotCell`] of
//! its [`ServerCore`]: readers pin it and never block, while an update
//! batch builds the next snapshot off to the side and swaps it in. A sharded,
//! interior-mutable [`AdaptiveController`] keeps the per-client §4.3
//! state. One instance serves a whole fleet of concurrent clients while
//! the object set churns.
//!
//! Protocol boundary: all client traffic travels as typed
//! `Request`/`Response` envelopes (`pc_rtree::proto`) over a [`Transport`]
//! — a [`Cluster`] (or a [`Server`], forwarding to its own) answers on the
//! caller's thread, and a [`TcpTransport`] carries the same envelopes over
//! a socket. Simulation drivers hold a [`ServerHandle`] (transport +
//! shared-store metadata) instead of a concrete `&Server`.

mod adaptive;
pub mod cluster;
mod core;
pub mod epoch;
mod forms;
mod server;
pub mod sync_util;
#[cfg(test)]
mod test_util;
pub mod transport;
pub mod updates;
pub mod wire;

pub use adaptive::{AdaptiveController, AdaptiveState};
pub use cluster::{Cluster, ClusterConfig, ClusterStats, ShardMap, Snapshot, SUPER_ROOT};
pub use core::{ServerCore, Shard};
pub use epoch::SnapshotCell;
pub use forms::{build_shipments, FormMode};
pub use server::{ClientId, FormPolicy, Server, ServerConfig};
pub use transport::{ServerHandle, Transport};
pub use updates::{Update, UpdateLog, VersionedReply};
pub use wire::{TcpTransport, WireServer, WireServerConfig, WireServerStats, WireTransportStats};
