//! The mobile application server (right half of Fig. 3): resumes remainder
//! queries over the complete R-tree, builds the supporting index `Ir` in
//! full / compact / d⁺-level compact form (§4.2–4.3), and runs the
//! per-client adaptive controller that tunes `d` from reported false-miss
//! rates (§4.3). The engine walks each shard's `RTree`, and a [`Snapshot`]
//! across shards, as its own authoritative `IndexView`.
//!
//! One deployment type: a [`Cluster`] of N shards — each one R*-tree whose
//! every node carries its BPT — behind a scatter-gather router, with one
//! serve path, one §7 version gate, one update path and one published
//! value. The paper's single mobile application server is
//! [`Cluster::single`], the cluster of one shard. Stage ② of Fig. 3 over
//! one shard's tree is two functions, [`resume_traced`] and [`assemble`],
//! beside the form builder [`build_shipments`].
//!
//! Concurrency: the whole surface is `&self` and `Send + Sync` — queries
//! and fmr reports (every [`Request`](pc_rtree::proto::Request) through
//! [`Transport::call`]) *and* data updates
//! ([`ServerHandle::apply_updates`]). A
//! deployment publishes its whole world — the dataset and the update log
//! once, every shard's R*-tree (each node with its BPT) by `Arc` — as one immutable
//! [`Snapshot`] behind the one [`SnapshotCell`] of its [`ServerCore`]:
//! readers pin it and never block, while an update batch builds the next
//! snapshot off to the side and swaps it in. An interior-mutable
//! [`AdaptiveController`] keeps the per-client §4.3 state. One instance
//! serves a whole fleet of concurrent clients while the object set churns.
//!
//! Protocol boundary: all client traffic travels as typed
//! `Request`/`Response` envelopes (`pc_rtree::proto`) over a [`Transport`]
//! — a [`Cluster`] answers on the caller's thread, and a [`TcpTransport`]
//! carries the same envelopes over a socket. That is the one way into a
//! deployment: it is asked through [`Transport::call`] and read through
//! [`ServerHandle::core`] (`core().pin()` is its whole world at one
//! epoch). Simulation drivers hold a [`ServerHandle`] (transport +
//! shared-store metadata) instead of a concrete `&Cluster`.

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

mod adaptive;
mod cluster;
mod config;
mod core;
mod epoch;
mod forms;
mod sync_util;
#[cfg(test)]
mod test_util;
mod transport;
mod updates;
mod wire;

pub use adaptive::{AdaptiveController, AdaptiveState};
pub use cluster::{Cluster, ClusterConfig, ClusterStats, ShardMap, Snapshot, SUPER_ROOT};
pub use config::{ClientId, FormPolicy, ServerConfig};
pub use core::ServerCore;
pub use epoch::SnapshotCell;
pub use forms::{assemble, build_shipments, resume_traced, FormMode};
pub use transport::{ServerHandle, Transport};
pub use updates::{Update, UpdateLog, VersionedReply};
pub use wire::{TcpTransport, WireServer, WireServerConfig, WireServerStats, WireTransportStats};
