//! Set-up: everything that must exist before the first query — dataset
//! generation, bulk load, BPT build and cluster partition (the [`World`]),
//! and for the wire workload the listening `WireServer` and its
//! `TcpTransport` (the [`Rig`]). Building both is what `setup_s` times.

use crate::probe::Probe;
use crate::workloads::{Backend, Workload};
use pc_server::{
    Cluster, ServerHandle, TcpTransport, WireServer, WireServerConfig, WireServerStats,
    WireTransportStats,
};
use pc_sim::SimConfig;
use std::sync::Arc;
use std::time::Instant;

/// The served dataset: a single server or a sharded cluster.
#[derive(Clone)]
pub struct World {
    pub backend: Arc<dyn ServerHandle>,
    pub cluster: Option<Arc<Cluster>>,
}

impl World {
    pub fn build(w: &Workload, cfg: &SimConfig) -> World {
        match w.backend {
            Backend::InProcess | Backend::Wire => World {
                backend: Arc::new(pc_sim::build_server(cfg)),
                cluster: None,
            },
            Backend::Cluster(shards) => {
                let c = Arc::new(pc_sim::build_cluster(cfg, shards));
                World {
                    backend: Arc::clone(&c) as Arc<dyn ServerHandle>,
                    cluster: Some(c),
                }
            }
        }
    }
}

/// The path from a session to a [`World`]: direct, or over loopback; with
/// the probe spliced in under the transport in a traced run.
pub struct Rig {
    /// What sessions call when there is no socket in between: the world,
    /// behind the probe in a traced run.
    backend: Arc<dyn ServerHandle>,
    pub probe: Option<Arc<Probe>>,
    // Declared before `wire` so connections close before the server drains.
    tcp: Option<TcpTransport>,
    wire: Option<WireServer>,
}

impl Rig {
    /// `trace_origin` is `Some` in a traced run: the probe goes between
    /// the transport and the world and stamps dispatches against that clock.
    pub fn over(w: &Workload, world: &World, trace_origin: Option<Instant>) -> Rig {
        let mut backend = Arc::clone(&world.backend);
        let probe = trace_origin.map(|origin| {
            let p = Arc::new(Probe::new(Arc::clone(&backend), origin, w.clients));
            backend = Arc::clone(&p) as Arc<dyn ServerHandle>;
            p
        });
        let (tcp, wire) = if w.backend == Backend::Wire {
            let server = WireServer::spawn(Arc::clone(&backend), WireServerConfig::default())
                .expect("bind the loopback wire server");
            let tcp = TcpTransport::connect(server.addr(), Arc::clone(&backend));
            (Some(tcp), Some(server))
        } else {
            (None, None)
        };
        Rig {
            backend,
            probe,
            tcp,
            wire,
        }
    }

    /// The handle sessions are driven against.
    pub fn handle(&self) -> &dyn ServerHandle {
        match &self.tcp {
            Some(tcp) => tcp,
            None => &*self.backend,
        }
    }

    /// Closes every connection, drains the server and returns both ends'
    /// counters — exact only now, after the serving threads are joined.
    pub fn shutdown_wire(&mut self) -> Option<(WireServerStats, WireTransportStats)> {
        let tcp = self.tcp.take()?;
        let mut wire = self.wire.take()?;
        tcp.disconnect_all();
        wire.shutdown();
        Some((wire.stats(), tcp.stats()))
    }
}
