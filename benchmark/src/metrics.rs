//! The metric tables: every name the benchmark emits, with unit, direction
//! and (end to end) regression bound. `BENCHMARK.json` mirrors these tables
//! and `run --smoke` fails when the two disagree.

use crate::workloads::{Backend, Workload};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which workloads a metric exists on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    All,
    /// Workloads whose requests cross a socket.
    Wire,
    /// Workloads with the update writer.
    Churn,
    /// Workloads served by the sharded cluster.
    Cluster,
}

impl Scope {
    pub fn covers(self, w: &Workload) -> bool {
        match self {
            Scope::All => true,
            Scope::Wire => w.backend == Backend::Wire,
            Scope::Churn => w.churn,
            Scope::Cluster => matches!(w.backend, Backend::Cluster(_)),
        }
    }
}

/// Where `BENCHMARK.json` — the PR driver's view of this benchmark, whose
/// contract is stricter than `run` and `compare` need — carries an
/// end-to-end metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Listed {
    /// Under `end_to_end`, with its bound.
    EndToEnd,
    /// Under `per_layer`, without a bound. That file wants every end-to-end
    /// metric from every workload, which the churn-only `publish_*` cannot
    /// give; and it wants the spread of ten runs inside a bound of at most a
    /// quarter, which no wall-clock metric holds on the shared 2-vCPU host
    /// (README, "Steadiness": spreads up to 22-32 % in its noisy periods).
    /// ISSUE 12 provides for exactly this demotion.
    PerLayer,
    /// Not as a metric: the result line's `attempted` / `failed` carry
    /// `failed_share`, whose healthy value of 0 a relative bound cannot
    /// express.
    Counted,
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen. This is
    /// the bound `BENCHMARK.json` carries, judged across runs that differ in
    /// seed, so it has to clear the seed-to-seed spread.
    pub bound: f64,
    /// Tighter bounds for `compare` on two sets taken with one seed, where
    /// the model metrics repeat exactly: `(deterministic, churned)`.
    pub pinned: Option<(f64, f64)>,
    pub scope: Scope,
    pub listed: Listed,
}

impl EndToEnd {
    /// The bound `compare` applies on workload `w`.
    pub fn compare_bound(&self, w: &Workload) -> f64 {
        match self.pinned {
            Some((_, churned)) if w.churn => churned,
            Some((deterministic, _)) => deterministic,
            None => self.bound,
        }
    }
}

const MODEL: Option<(f64, f64)> = Some((0.005, 0.02));

/// Bounds come from sets of ten seeds measured at the commit that
/// introduced the benchmark (README, "Steadiness"): at least three times
/// the widest spread any workload showed, capped at the contract's 0.25.
/// The wall-clock metrics sit at the cap: the shared 2-vCPU host drifts by
/// a tenth to a third over minutes.
pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        pinned: None,
        scope: Scope::All,
        listed: Listed::EndToEnd,
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        pinned: None,
        scope: Scope::All,
        listed: Listed::PerLayer,
    },
    EndToEnd {
        name: "contact_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        pinned: None,
        scope: Scope::All,
        listed: Listed::PerLayer,
    },
    EndToEnd {
        name: "query_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        pinned: None,
        scope: Scope::All,
        listed: Listed::PerLayer,
    },
    EndToEnd {
        name: "resp_model_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        pinned: MODEL,
        scope: Scope::All,
        listed: Listed::EndToEnd,
    },
    EndToEnd {
        name: "downlink_bytes_per_query",
        unit: "B",
        better: Better::Lower,
        bound: 0.15,
        pinned: MODEL,
        scope: Scope::All,
        listed: Listed::EndToEnd,
    },
    EndToEnd {
        name: "uplink_bytes_per_query",
        unit: "B",
        better: Better::Lower,
        bound: 0.25,
        // Stale retries resend the remainder, so under churn the uplink
        // moves with thread timing: 2-5 % between repetitions of one seed.
        pinned: Some((0.005, 0.05)),
        scope: Scope::All,
        listed: Listed::EndToEnd,
    },
    EndToEnd {
        name: "hit_c",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.08,
        pinned: MODEL,
        scope: Scope::All,
        listed: Listed::EndToEnd,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        // Absolute: any failure at all is a regression.
        bound: 0.0,
        pinned: None,
        scope: Scope::All,
        listed: Listed::Counted,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
        pinned: None,
        scope: Scope::All,
        listed: Listed::EndToEnd,
    },
    EndToEnd {
        name: "publish_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        pinned: None,
        scope: Scope::Churn,
        listed: Listed::PerLayer,
    },
    EndToEnd {
        name: "publish_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        pinned: None,
        scope: Scope::Churn,
        listed: Listed::PerLayer,
    },
];

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub scope: Scope,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, scope: Scope) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        scope,
    }
}

use Better::{Higher, Lower};
use Scope::{All, Churn, Cluster, Wire};

pub const PER_LAYER: [PerLayer; 56] = [
    // pc_workload + pc_mobility
    layer("gen.busy_share", "ratio", Lower, All),
    // pc_client / pc_rtree::engine / pc_cache::view
    layer("client.run_local_us_p50", "us", Lower, All),
    layer("client.run_local_us_p99", "us", Lower, All),
    layer("client.run_local_share", "ratio", Lower, All),
    layer("client.expansions_per_query", "count", Lower, All),
    layer("client.local_complete_share", "ratio", Higher, All),
    layer("client.assemble_share", "ratio", Lower, All),
    layer("alloc.per_run_local", "count", Lower, All),
    // pc_cache (absorb, GRD3)
    layer("cache.absorb_us_p50", "us", Lower, All),
    layer("cache.absorb_us_p99", "us", Lower, All),
    layer("cache.absorb_share", "ratio", Lower, All),
    layer("cache.evicted_items_per_absorb", "count", Lower, All),
    layer("cache.inserted_bytes_per_absorb", "B", Lower, All),
    layer("cache.index_to_cache_ratio", "ratio", Lower, All),
    layer("cache.false_miss_rate", "ratio", Lower, All),
    layer("alloc.per_absorb", "count", Lower, All),
    // pc_server::transport / pc_server::wire
    layer("transport.call_us_p50", "us", Lower, All),
    layer("transport.call_us_p99", "us", Lower, All),
    layer("transport.call_share", "ratio", Lower, All),
    layer("transport.contacts_per_query", "count", Lower, All),
    layer("wire.overhead_us_p50", "us", Lower, Wire),
    layer("wire.connect_us_p50", "us", Lower, Wire),
    layer("wire.frames_per_query", "count", Lower, Wire),
    layer("wire.rx_bytes_per_contact", "B", Lower, Wire),
    layer("wire.framing_overhead_share", "ratio", Lower, Wire),
    layer("alloc.per_call_client_side", "count", Lower, Wire),
    // pc_wire
    layer("codec.encode_request_us_p50", "us", Lower, Wire),
    layer("codec.decode_request_us_p50", "us", Lower, Wire),
    layer("codec.encode_response_us_p50", "us", Lower, Wire),
    layer("codec.decode_response_us_p50", "us", Lower, Wire),
    layer("codec.response_mb_per_s", "MB/s", Higher, Wire),
    // pc_server::core + forms + adaptive
    layer("server.dispatch_us_p50", "us", Lower, All),
    layer("server.dispatch_us_p99", "us", Lower, All),
    layer("server.dispatch_share", "ratio", Lower, All),
    layer("server.expansions_per_contact", "count", Lower, All),
    layer("server.objects_per_reply", "count", Lower, All),
    layer("server.confirmed_per_reply", "count", Higher, All),
    layer("forms.index_bytes_per_reply", "B", Lower, All),
    layer("forms.cells_per_reply", "count", Lower, All),
    layer("adaptive.report_us_p50", "us", Lower, All),
    // pc_server::updates + epoch
    layer("updates.publish_us_p50", "us", Lower, Churn),
    layer("updates.publish_us_p99", "us", Lower, Churn),
    layer("updates.writer_busy_share", "ratio", Lower, Churn),
    layer("updates.lag_queries_p99", "count", Lower, Churn),
    layer("updates.log_records_final", "count", Lower, Churn),
    layer("updates.stale_retries_per_contact", "count", Lower, Churn),
    layer("updates.full_refreshes", "count", Lower, Churn),
    layer("updates.invalidation_bytes_per_query", "B", Lower, Churn),
    layer("cache.invalidated_items_per_publish", "count", Lower, Churn),
    // pc_server::cluster
    layer("cluster.sub_queries_per_contact", "count", Lower, Cluster),
    layer("cluster.scatter_bytes_per_contact", "B", Lower, Cluster),
    layer("cluster.gather_bytes_per_contact", "B", Lower, Cluster),
    layer(
        "cluster.duplicates_merged_per_contact",
        "count",
        Lower,
        Cluster,
    ),
    // pc_sim + harness
    layer("sim.step_self_share", "ratio", Lower, All),
    layer("trace.coverage_share", "ratio", Higher, All),
    layer("trace.overhead_share", "ratio", Lower, All),
];

/// What `BENCHMARK.json` lists under `per_layer`, as `(name, unit,
/// direction)`: [`PER_LAYER`], then the end-to-end metrics it carries there
/// ([`Listed::PerLayer`]). A traced run reports those too, so its result
/// line has them.
pub fn contract_per_layer() -> impl Iterator<Item = (&'static str, &'static str, Better)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)).chain(
        END_TO_END
            .iter()
            .filter(|m| m.listed == Listed::PerLayer)
            .map(|m| (m.name, m.unit, m.better)),
    )
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The name and unit alphabets of the `BENCHMARK.json` contract.
    #[test]
    fn names_and_units_fit_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!names[i + 1..].contains(n), "{n} is used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(u.len() <= 16 && !u.is_empty());
            assert!(u
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(contract_per_layer().count() <= 128);
    }
}
