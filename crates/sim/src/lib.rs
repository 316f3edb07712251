//! The end-to-end simulator behind every §6 experiment: mobile clients
//! (RAN or DIR) issue Poisson streams of range/kNN/join queries about
//! their neighborhoods against one of the three caching models (PAG, SEM,
//! proactive in FPRO/CPRO/APRO form), over the 384 Kbps channel, while the
//! metrics of §6.1 are collected: per-query uplink/downlink bytes, the
//! per-byte response time of §4.1, cache hit rate, byte hit rate,
//! false-miss rate, client/server CPU time and the index/cache ratio.
//!
//! Architecture: one [`ClientSession`] owns everything private to a client
//! (mobility, query generator, model runner, rolling fmr window, metrics)
//! and steps against a shared `ServerHandle` — every byte of server
//! traffic travels as a typed `Request`/`Response` envelope through the
//! handle's `Transport`, so the same sessions run unchanged against a
//! one-shard `Cluster` (the paper's single server), a sharded one, or a
//! `TcpTransport` to a remote server.
//! A [`Fleet`] drives N sessions concurrently on scoped threads and merges
//! their results. The single-client entry points [`run`] /
//! [`run_with_server`] are thin wrappers over a session with client id 0
//! and reproduce the historical sequential behavior exactly.

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

mod config;
mod fleet;
mod metrics;
#[cfg(test)]
mod proptests;
mod runner;
mod session;
pub mod updates;

pub use config::{CacheModel, SimConfig};
pub use fleet::{Fleet, FleetResult};
pub use metrics::{QueryKind, QueryRecord, SimResult, Summary, SummaryTotals, WindowPoint};
pub use runner::{ModelRunner, ProactiveRunner, RunOutput};
pub use session::{client_seed, ClientSession};
pub use updates::{generate_update, ChurnConfig};

use pc_server::{Cluster, ClusterConfig, ServerConfig};

/// Builds the paper's single server — a one-shard [`Cluster`] over the
/// generated dataset, index and BPTs — for a configuration. Exposed
/// separately so harnesses can reuse one server across model runs — dataset
/// generation and bulk loading dominate setup time at paper scale.
pub fn build_server(cfg: &SimConfig) -> Cluster {
    let store = cfg.dataset.generate(cfg.n_objects, cfg.seed);
    Cluster::single(store, cfg.tree_cfg, server_config(cfg))
}

/// Builds a spatially-sharded cluster over the same generated dataset —
/// the scatter-gather counterpart of [`build_server`]. Fleet and churn
/// drivers run against it through `&dyn ServerHandle` unchanged.
pub fn build_cluster(cfg: &SimConfig, shards: u32) -> Cluster {
    let store = cfg.dataset.generate(cfg.n_objects, cfg.seed);
    let cluster = ClusterConfig {
        server: server_config(cfg),
        ..ClusterConfig::new(shards)
    };
    Cluster::new(store, cfg.tree_cfg, cluster)
}

/// The server policy a configuration runs under.
fn server_config(cfg: &SimConfig) -> ServerConfig {
    ServerConfig {
        form: cfg.form,
        sensitivity: cfg.sensitivity,
        ..Default::default()
    }
}

/// Runs one full single-client simulation.
pub fn run(cfg: &SimConfig) -> SimResult {
    let server = build_server(cfg);
    ClientSession::new(cfg, &server, 0).run(&server)
}

/// Runs a single-client simulation against a pre-built server (must match
/// `cfg.dataset`, `cfg.n_objects`, `cfg.seed` and the form policy).
pub fn run_with_server(cfg: &SimConfig, server: &Cluster) -> SimResult {
    ClientSession::new(cfg, server, 0).run(server)
}

#[cfg(test)]
mod tests;
