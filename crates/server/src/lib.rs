//! The mobile application server (right half of Fig. 3): resumes remainder
//! queries over the complete R-tree, builds the supporting index `Ir` in
//! full / compact / d⁺-level compact form (§4.2–4.3), and runs the
//! per-client adaptive controller that tunes `d` from reported false-miss
//! rates (§4.3).
//!
//! One deployment type: a [`Cluster`] of N [`Shard`]s behind a
//! scatter-gather router, with one serve path, one §7 version gate, one
//! update path and one published value. The paper's single mobile
//! application server is [`Cluster::single`], the cluster of one shard.
//!
//! Concurrency: the whole surface is `&self` and `Send + Sync` — queries
//! (`process_remainder` / `direct` / fmr reports through
//! [`Cluster::adaptive`]) *and* data updates (`apply_updates`). A
//! deployment publishes its whole world — the dataset and the update log
//! once, every shard's R*-tree + BPT store by `Arc` — as one immutable
//! [`Snapshot`] behind the one [`SnapshotCell`] of its [`ServerCore`]:
//! readers pin it and never block, while an update batch builds the next
//! snapshot off to the side and swaps it in. A sharded, interior-mutable
//! [`AdaptiveController`] keeps the per-client §4.3 state. One instance
//! serves a whole fleet of concurrent clients while the object set churns.
//!
//! Protocol boundary: all client traffic travels as typed
//! `Request`/`Response` envelopes (`pc_rtree::proto`) over a [`Transport`]
//! — a [`Cluster`] answers on the caller's thread, and a [`TcpTransport`]
//! carries the same envelopes over a socket. Simulation drivers hold a
//! [`ServerHandle`] (transport + shared-store metadata) instead of a
//! concrete `&Cluster`.

// A panic on a serving thread strands every waiter parked on its locks and
// condvars, so library code here returns typed errors and each deliberate
// panic carries an `#[expect]` saying why it is safe. Tests panic to fail.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![deny(clippy::allow_attributes_without_reason)]

mod adaptive;
pub mod cluster;
mod config;
mod core;
pub mod epoch;
mod forms;
pub mod sync_util;
#[cfg(test)]
mod test_util;
pub mod transport;
pub mod updates;
pub mod wire;

pub use adaptive::{AdaptiveController, AdaptiveState};
pub use cluster::{Cluster, ClusterConfig, ClusterStats, ShardMap, Snapshot, SUPER_ROOT};
pub use config::{ClientId, FormPolicy, ServerConfig};
pub use core::{ServerCore, Shard};
pub use epoch::SnapshotCell;
pub use forms::{build_shipments, FormMode};
pub use transport::{ServerHandle, Transport};
pub use updates::{Update, UpdateLog, VersionedReply};
pub use wire::{TcpTransport, WireServer, WireServerConfig, WireServerStats, WireTransportStats};
