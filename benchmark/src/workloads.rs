//! The four workloads. Names are fixed: later issues refer to them, and
//! `BENCHMARK.json` lists them with the same one-line reasons.

use pc_mobility::MobilityModel;
use pc_sim::SimConfig;
use pc_workload::{DatasetKind, QueryMix};

/// What the sessions talk to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `&Server`, dispatched in-process.
    InProcess,
    /// `WireServer` + `TcpTransport` over loopback.
    Wire,
    /// `pc_sim::build_cluster` with this many shards, in-process.
    Cluster(u32),
}

/// The dataset, query mix and mobility the sessions run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// `pc_bench::scaled_default`: Table 6.1's mix (joins included) over
    /// 20 000 objects, DIR mobility, cache 1 %.
    PaperMix,
    /// Range + kNN (`k` up to 20) over the paper's 123 593 objects, RAN
    /// mobility, cache 0.1 %.
    NoJoin,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub scenario: Scenario,
    pub backend: Backend,
    /// A writer thread publishes update batches beside the readers and the
    /// sessions speak the §7 versioned protocol.
    pub churn: bool,
    /// Concurrent closed-loop clients (one thread each).
    pub clients: u32,
    /// Queries one client issues per second of `--seconds`; sized so a run
    /// takes about `--seconds` at the seed commit on the 2-vCPU host the
    /// baselines were taken on. A budget, not a measurement: the run ends
    /// when the budget is spent, so count metrics repeat exactly.
    pub queries_per_second: f64,
    /// Queries per session; `None` runs the whole budget as one session.
    pub session_len: Option<usize>,
    /// Queries checked against `Request::Direct` before every timed run.
    pub verify_quick: usize,
    /// The same for the standalone correctness pass (`--verify-only`).
    pub verify_full: usize,
}

/// Reader queries between two update batches, and updates per batch: one
/// update per 100 queries. `Fleet::churn` at `ext_fleet`'s 50/100 is
/// writer-bound (10 k q/s against 140 k without churn); this rate keeps the
/// reader on the same path as `nojoin_wire` with publishes landing beside it.
pub const CHURN_EVERY_QUERIES: u64 = 400;
pub const CHURN_BATCH: usize = 4;

/// The dataset is one fixed map, as the paper's NE postal zones are: it is
/// generated from this seed (the repo's default) whatever `--seed` says.
/// On the `nojoin_*` workloads `--seed` drives everything that varies
/// between visitors of that map — mobility, query streams, the update
/// stream — and 8 to 22 sessions of 50 000 queries average it out (model
/// metrics within 1-6 % between seeds). See [`Workload::sim_config`] for
/// `paper_mix`.
pub const WORLD_SEED: u64 = 2005;

/// `paper_mix` pacing steps: `--seed` stretches the think time by up to
/// `(PACE_STEPS - 1) * PACE_STEP`.
const PACE_STEPS: u64 = 97;
const PACE_STEP: f64 = 5e-4;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_mix",
        why: "Table 6.1 mix at 20k objects, in-process: >=99% of wall is the client-side self-join over CacheView; an executor gain shows here only",
        scenario: Scenario::PaperMix,
        backend: Backend::InProcess,
        churn: false,
        clients: 1,
        queries_per_second: 150.0,
        session_len: None,
        verify_quick: 150,
        verify_full: 2_000,
    },
    Workload {
        name: "nojoin_wire",
        why: "range+kNN at 123593 objects over TCP loopback, 2 clients with session turnover: codec, sockets, resume+forms and absorb do about half the wall",
        scenario: Scenario::NoJoin,
        backend: Backend::Wire,
        churn: false,
        clients: 2,
        queries_per_second: 20_000.0,
        session_len: Some(50_000),
        verify_quick: 2_000,
        verify_full: 2_000,
    },
    Workload {
        name: "nojoin_churn",
        why: "same traffic in-process with a writer publishing 4 updates per 400 reader queries: epoch publish, update log, stale retries, invalidation",
        scenario: Scenario::NoJoin,
        backend: Backend::InProcess,
        churn: true,
        clients: 1,
        queries_per_second: 26_500.0,
        session_len: Some(50_000),
        verify_quick: 2_000,
        verify_full: 2_000,
    },
    Workload {
        name: "nojoin_sharded",
        why: "nojoin_churn against a 4-shard cluster: scatter/gather, super-root layout, per-shard epochs; paired with nojoin_churn it isolates the router",
        scenario: Scenario::NoJoin,
        backend: Backend::Cluster(4),
        churn: true,
        clients: 1,
        queries_per_second: 25_000.0,
        session_len: Some(50_000),
        verify_quick: 2_000,
        verify_full: 2_000,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A run's query budget: every client runs `sessions` consecutive sessions
/// of `queries` queries each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    pub sessions: usize,
    pub queries: usize,
}

impl Budget {
    pub fn total(&self, clients: u32) -> u64 {
        (self.sessions * self.queries) as u64 * clients as u64
    }
}

impl Workload {
    /// The budget for a run of `seconds`, divided by `div` (`--smoke` runs
    /// at 1/50). Sessions keep their count and shrink in length, so a
    /// divided run still turns sessions over.
    pub fn budget(&self, seconds: u32, div: usize) -> Budget {
        let per_client = self.queries_per_second * seconds as f64;
        let div = div.max(1);
        match self.session_len {
            None => Budget {
                sessions: 1,
                queries: (per_client as usize / div).max(1),
            },
            Some(len) => Budget {
                sessions: ((per_client / len as f64).round() as usize).max(1),
                queries: (len / div).max(1),
            },
        }
    }

    /// The configuration the world is built from: [`Self::sim_config`] at
    /// the fixed [`WORLD_SEED`].
    pub fn world_config(&self) -> SimConfig {
        self.sim_config(WORLD_SEED)
    }

    /// The simulation configuration of the sessions, seeded. `n_queries`
    /// is set per session by the caller.
    pub fn sim_config(&self, seed: u64) -> SimConfig {
        let mut cfg = SimConfig::paper();
        cfg.seed = seed;
        cfg.verify = false;
        cfg.versioned = self.churn;
        if self.scenario == Scenario::PaperMix {
            // The workload every figure binary and `ext_fleet` runs. The
            // window area grows so the absolute result size matches the
            // paper's at a sixth of its density.
            cfg.n_objects = 20_000;
            cfg.workload.area_wnd =
                1e-6 * DatasetKind::Ne.paper_cardinality() as f64 / cfg.n_objects as f64;
            // One client and 3 000 queries are one tour of the map, and
            // tours differ: seeding the tour moved the model metrics by
            // 32-40 % between seeds (IQR over median), which no bound could
            // hold. So the tour is fixed like the map, and `--seed` only
            // sets the pace it is walked at: think times grow by up to
            // 4.8 %, queries land at slightly other points of the same
            // route, and the model metrics stay within 3 %. The default
            // seed walks it at Table 6.1's pace exactly.
            let step = (seed % PACE_STEPS + PACE_STEPS - WORLD_SEED % PACE_STEPS) % PACE_STEPS;
            cfg.seed = WORLD_SEED;
            cfg.workload.think_mean_s *= 1.0 + step as f64 * PACE_STEP;
        } else {
            cfg.workload.mix = QueryMix::no_join();
            cfg.workload.k_max = 20;
            cfg.mobility = MobilityModel::Ran;
            cfg.cache_frac = 0.001;
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_scale_with_seconds_and_divide_for_smoke() {
        let wire = by_name("nojoin_wire").unwrap();
        assert_eq!(
            wire.budget(20, 1),
            Budget {
                sessions: 8,
                queries: 50_000
            }
        );
        assert_eq!(
            wire.budget(20, 50),
            Budget {
                sessions: 8,
                queries: 1_000
            }
        );
        assert_eq!(wire.budget(20, 1).total(wire.clients), 800_000);
        let mix = by_name("paper_mix").unwrap();
        assert_eq!(
            mix.budget(30, 1),
            Budget {
                sessions: 1,
                queries: 4_500
            }
        );
        assert_eq!(mix.budget(1, 1_000_000).queries, 1);
    }

    #[test]
    fn the_seed_varies_every_workload_and_the_default_is_the_paper_setting() {
        for w in &WORKLOADS {
            let describe = |seed| {
                let c = w.sim_config(seed);
                (c.seed, c.workload.think_mean_s.to_bits())
            };
            assert_ne!(describe(1), describe(2), "{}", w.name);
            assert_eq!(describe(7), describe(7), "{}", w.name);
            let default = w.sim_config(WORLD_SEED);
            assert_eq!(default.seed, WORLD_SEED);
            assert_eq!(default.workload.think_mean_s, 50.0);
            assert_eq!(w.world_config().seed, WORLD_SEED);
        }
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.why.len() <= 200, "{}: why too long", w.name);
            assert!(!w.why.contains('\n'));
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
        }
    }
}
