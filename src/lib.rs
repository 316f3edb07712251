//! # procache — Proactive Caching for Spatial Queries in Mobile Environments
//!
//! A full reproduction of Hu, Xu, Wong, Zheng, Lee & Lee (ICDE 2005) as a
//! Rust workspace. This facade crate re-exports every sub-crate so
//! examples, integration tests and downstream users can depend on a single
//! package:
//!
//! * [`geom`] — points, rectangles, distances.
//! * [`rtree`] — R*-tree, binary partition trees, the generic query engine
//!   (paper Algorithm 1) and the wire protocol.
//! * [`cache`] — the proactive cache: item hierarchy, GRD1/2/3, LRU, MRU
//!   and FAR replacement (§5).
//! * [`client`] — the client-side query processor (§3.3).
//! * [`server`] — remainder-query resumption, compact / d⁺-level forms and
//!   the adaptive controller (§4). `Send + Sync`: one immutable
//!   `Snapshot` of the whole world behind the deployment's `ServerCore`
//!   cell, plus a sharded per-client controller, so one server behind an
//!   `Arc` serves a concurrent client fleet.
//! * [`baselines`] — semantic caching (SEM) and page caching (PAG).
//! * [`mobility`] — random-waypoint and directed mobility models (§6.1).
//! * [`workload`] — synthetic datasets, query generation, Zipf sizes.
//! * [`net`] — the 384 Kbps wireless channel model.
//! * [`wire`] — the binary frame codec realizing the proto byte model;
//!   `server::wire` drives it over TCP loopback (`WireServer` /
//!   `TcpTransport`) so measured bytes cross-check modeled bytes.
//! * [`sim`] — the end-to-end simulator and metrics (§6): per-client
//!   `ClientSession`s, a scoped-thread `Fleet` driver with exactly
//!   mergeable results, and single-client wrappers.
//!
//! ## Quickstart
//!
//! ```
//! use procache::geom::{Point, Rect};
//! use procache::rtree::{proto::QuerySpec, RTreeConfig};
//! use procache::server::{Cluster, ServerConfig};
//! use procache::workload::datasets;
//!
//! // A small NE-like dataset behind the one server of Fig. 3 (a one-shard
//! // cluster: R*-tree + per-node BPTs), and one range query answered by
//! // the §3.3 engine over its index.
//! let store = datasets::ne_like(500, 42);
//! let server = Cluster::single(store, RTreeConfig::small(), ServerConfig::default());
//! let window = Rect::centered_square(Point::new(0.5, 0.5), 0.1);
//! let hits = server.direct(&QuerySpec::Range { window });
//! assert!(hits.results.len() <= 500);
//! ```

pub use pc_baselines as baselines;
pub use pc_cache as cache;
pub use pc_client as client;
pub use pc_geom as geom;
pub use pc_mobility as mobility;
pub use pc_net as net;
pub use pc_rtree as rtree;
pub use pc_server as server;
pub use pc_sim as sim;
pub use pc_wire as wire;
pub use pc_workload as workload;
