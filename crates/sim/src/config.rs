//! Simulation configuration — Table 6.1 in code.

use pc_cache::ReplacementPolicy;
use pc_mobility::{MobilityConfig, MobilityModel};
use pc_net::Channel;
use pc_rtree::RTreeConfig;
use pc_server::FormPolicy;
use pc_workload::{DatasetKind, WorkloadConfig};

/// Which caching model the client runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheModel {
    /// Page caching (LRU object cache).
    Page,
    /// Semantic caching (range trimming + kNN validity, FAR).
    Semantic,
    /// Proactive caching (this paper); the variant is picked by
    /// [`SimConfig::form`] — FPRO / CPRO / APRO.
    Proactive,
}

impl CacheModel {
    pub fn name(&self) -> &'static str {
        match self {
            CacheModel::Page => "PAG",
            CacheModel::Semantic => "SEM",
            CacheModel::Proactive => "PRO",
        }
    }
}

impl std::fmt::Display for CacheModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One experiment's full parameterization.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    pub dataset: DatasetKind,
    pub n_objects: usize,
    pub n_queries: usize,
    /// Cache size |C| as a fraction of the total dataset bytes (Table 6.1:
    /// 0.1 % – 5 %, default 1 %).
    pub cache_frac: f64,
    pub model: CacheModel,
    /// Replacement policy for the proactive cache (PAG is LRU, SEM is FAR
    /// by definition — "the state-of-the-art cache replacement scheme for
    /// each of the three cache models").
    pub policy: ReplacementPolicy,
    /// FPRO / CPRO / APRO for the proactive model.
    pub form: FormPolicy,
    /// Adaptive sensitivity `s` (20 %).
    pub sensitivity: f64,
    /// Queries between fmr reports (§4.3 "periodically submits").
    pub fmr_report_period: usize,
    pub mobility: MobilityModel,
    pub mobility_cfg: MobilityConfig,
    pub workload: WorkloadConfig,
    pub channel: Channel,
    pub tree_cfg: RTreeConfig,
    /// Simulated server processing time per contact (§6.4 measured
    /// 0.0067–0.0081 s on the paper's hardware).
    pub server_time_s: f64,
    /// Fig. 11 mode: kNN-only workload whose average k drifts `hi → lo →
    /// hi` over the run.
    pub drifting_k: Option<(u32, u32)>,
    /// Time-series window length (the paper plots every 500 queries).
    pub window: usize,
    /// Cross-check every answer against the direct query (slow; tests).
    pub verify: bool,
    /// Proactive clients speak the §7 versioned-remainder protocol
    /// (epoch-stamped contacts, resubmit on `Stale`). Required when the
    /// server churns under a fleet; off by default so update-free runs
    /// stay byte-identical to the paper's protocol.
    pub versioned: bool,
    pub seed: u64,
}

impl SimConfig {
    /// The paper's default setting (Table 6.1) at full scale: NE dataset,
    /// 10,000 queries, |C| = 1 %, DIR mobility, APRO+GRD3.
    pub fn paper() -> Self {
        SimConfig {
            dataset: DatasetKind::Ne,
            n_objects: DatasetKind::Ne.paper_cardinality(),
            n_queries: 10_000,
            cache_frac: 0.01,
            model: CacheModel::Proactive,
            policy: ReplacementPolicy::Grd3,
            form: FormPolicy::Adaptive,
            sensitivity: 0.2,
            fmr_report_period: 50,
            mobility: MobilityModel::Dir,
            mobility_cfg: MobilityConfig::paper(),
            workload: WorkloadConfig::paper(),
            channel: Channel::paper(),
            tree_cfg: RTreeConfig::paper(),
            server_time_s: 0.008,
            drifting_k: None,
            window: 500,
            verify: false,
            versioned: false,
            seed: 2005,
        }
    }

    /// A scaled-down configuration with the same shape, for tests and quick
    /// runs: 4,000 objects, 400 queries, wider query windows so result
    /// sets stay interesting at the smaller density.
    pub fn small() -> Self {
        let mut cfg = SimConfig::paper();
        cfg.n_objects = 4_000;
        cfg.n_queries = 400;
        cfg.tree_cfg = RTreeConfig::small();
        // Scale query selectivity with density: the paper's window catches
        // ~0.12 objects in NE; keep a similar *absolute* result size.
        cfg.workload.area_wnd = 1e-3;
        cfg.workload.dist_join = 2e-3;
        cfg.verify = true;
        cfg
    }

    /// Cache capacity in bytes for a dataset of `total_bytes`.
    pub fn cache_bytes(&self, total_bytes: u64) -> u64 {
        ((total_bytes as f64 * self.cache_frac) as u64).max(1)
    }

    /// Human-readable model label (PAG / SEM / FPRO / CPRO / APRO).
    pub fn model_label(&self) -> &'static str {
        match self.model {
            CacheModel::Page => "PAG",
            CacheModel::Semantic => "SEM",
            CacheModel::Proactive => self.form.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_6_1() {
        let cfg = SimConfig::paper();
        assert_eq!(cfg.n_queries, 10_000);
        assert_eq!(cfg.n_objects, 123_593);
        assert!((cfg.cache_frac - 0.01).abs() < 1e-12);
        assert!((cfg.workload.think_mean_s - 50.0).abs() < 1e-12);
        assert!((cfg.workload.area_wnd - 1e-6).abs() < 1e-18);
        assert!((cfg.workload.dist_join - 5e-5).abs() < 1e-18);
        assert_eq!(cfg.workload.k_max, 5);
        assert_eq!(cfg.channel.bandwidth_bps, 384_000);
        assert!((cfg.sensitivity - 0.2).abs() < 1e-12);
        assert!((cfg.mobility_cfg.speed - 1e-4).abs() < 1e-18);
    }

    #[test]
    fn cache_bytes_scales_with_fraction() {
        let mut cfg = SimConfig::paper();
        cfg.cache_frac = 0.05;
        assert_eq!(cfg.cache_bytes(1_000_000), 50_000);
        cfg.cache_frac = 0.001;
        assert_eq!(cfg.cache_bytes(1_000_000), 1_000);
    }

    #[test]
    fn model_labels() {
        let mut cfg = SimConfig::paper();
        assert_eq!(cfg.model_label(), "APRO");
        cfg.form = pc_server::FormPolicy::Full;
        assert_eq!(cfg.model_label(), "FPRO");
        cfg.model = CacheModel::Page;
        assert_eq!(cfg.model_label(), "PAG");
        cfg.model = CacheModel::Semantic;
        assert_eq!(cfg.model_label(), "SEM");
    }
}
