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
//! handle's `Transport`, so the same sessions run unchanged against a bare
//! `&Server`, a sharded `Cluster`, or a `TcpTransport` to a remote server.
//! A [`Fleet`] drives N sessions concurrently on scoped threads and merges
//! their results. The single-client entry points [`run`] /
//! [`run_with_server`] are thin wrappers over a session with client id 0
//! and reproduce the historical sequential behavior exactly.

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

use pc_server::{Cluster, ClusterConfig, Server, ServerConfig};

/// Builds the server (dataset + index + BPTs) for a configuration. Exposed
/// separately so harnesses can reuse one server across model runs — dataset
/// generation and bulk loading dominate setup time at paper scale.
pub fn build_server(cfg: &SimConfig) -> Server {
    let store = cfg.dataset.generate(cfg.n_objects, cfg.seed);
    Server::new(
        store,
        cfg.tree_cfg,
        ServerConfig {
            form: cfg.form,
            sensitivity: cfg.sensitivity,
            initial_d: cfg.initial_d,
            ..Default::default()
        },
    )
}

/// Builds a spatially-sharded cluster over the same generated dataset —
/// the scatter-gather counterpart of [`build_server`]. Fleet and churn
/// drivers run against it through `&dyn ServerHandle` unchanged.
pub fn build_cluster(cfg: &SimConfig, shards: u32) -> Cluster {
    let store = cfg.dataset.generate(cfg.n_objects, cfg.seed);
    Cluster::new(
        store,
        cfg.tree_cfg,
        ClusterConfig {
            server: ServerConfig {
                form: cfg.form,
                sensitivity: cfg.sensitivity,
                initial_d: cfg.initial_d,
                ..Default::default()
            },
            ..ClusterConfig::new(shards)
        },
    )
}

/// Runs one full single-client simulation.
pub fn run(cfg: &SimConfig) -> SimResult {
    let server = build_server(cfg);
    ClientSession::new(cfg, &server, 0).run(&server)
}

/// Runs a single-client simulation against a pre-built server (must match
/// `cfg.dataset`, `cfg.n_objects`, `cfg.seed` and the form policy).
pub fn run_with_server(cfg: &SimConfig, server: &Server) -> SimResult {
    ClientSession::new(cfg, server, 0).run(server)
}

#[cfg(test)]
mod tests;
