//! Fleet scaling extension: one shared server, a growing population of
//! concurrent proactive clients. The paper's server keeps per-client
//! adaptive d⁺ state (§4.3) but its experiments simulate one client at a
//! time; here the `Send + Sync` server core serves N sessions on worker
//! threads — through the typed `Transport` protocol — and we watch
//! aggregate throughput and per-client response time as the fleet grows.
//!
//! With `--update-rate R` (updates per 100 completed queries, batches of
//! `--update-batch`), an update-driver thread churns the object set
//! *while* the fleet runs, through the epoch-swap `&self` update path:
//! sessions speak the §7 versioned protocol, resubmitting after `Stale`
//! refusals with every invalidation byte charged to their ledgers. A
//! 0-rate run is bit-identical to the update-free fleet.
//!
//! `--json OUT` additionally writes the table as a JSON artifact
//! (`BENCH_fleet.json` in CI) so the perf trajectory is recorded per push.
//!
//! Columns:
//! * `sim q/s` — offered load the server absorbs in *simulated* time
//!   (client streams run in parallel in the simulated world, so this
//!   scales with the fleet regardless of host cores);
//! * `wall q/s` — queries processed per wall-clock second across the
//!   whole fleet run (scales with host parallelism);
//! * `resp` — mean per-client §4.1 response time (cache effects only:
//!   the channel model is per-client, so this stays flat as N grows);
//! * `hit_c` / `fmr` — merged cache hit and false-miss rates;
//! * `upd` / `stale` / `refr` / `inv` — updates applied under the run, stale
//!   retries suffered, full-refresh refusals recovered from (the client
//!   fell below the server's pruned invalidation horizon), and
//!   invalidation downlink bytes (churn only).
//!
//! With `--shards N[,N...]`, the binary switches to *cluster scaling*
//! mode: the fleet size is held fixed (`--clients`, default 8) and each
//! row runs the same workload against a fresh spatially-sharded
//! [`pc_server::Cluster`] with that many `ServerCore` shards behind the
//! scatter-gather router. The scaling metric is `wall q/s` — shards
//! execute remainders and update publishes in parallel, so aggregate
//! throughput should grow with the shard count on a multi-core host.
//! `--json OUT` writes `BENCH_shard.json`-style rows keyed by shard count.
//!
//! Defaults to doubling fleet sizes up to `--clients` (default 8); each
//! client issues `--queries` (default 500) queries. Sessions disconnect
//! (`Forget`) when their budget completes, so the adaptive table drains
//! between rows on its own.

use pc_bench::{banner, fmt_bytes, fmt_pct, fmt_s, json, HarnessOpts, Table};
use pc_server::ServerHandle;
use pc_sim::{build_cluster, build_server, CacheModel, ChurnConfig, Fleet, FleetResult};

fn main() {
    let opts = HarnessOpts::from_args();
    let max_clients = opts.clients.unwrap_or(8);
    let mut cfg = opts.base_config();
    cfg.model = CacheModel::Proactive;
    if !opts.paper_scale && opts.queries.is_none() {
        cfg.n_queries = 500;
    }
    let churn = ChurnConfig {
        rate_per_100: opts.update_rate,
        batch: opts.update_batch,
        seed: opts.seed ^ 0x5EED_CAFE,
    };
    if !opts.shards.is_empty() {
        shard_scaling(&opts, cfg, churn, max_clients);
        return;
    }
    banner(
        "ext: concurrent client fleet (shared Send+Sync server)",
        &cfg,
    );
    if opts.update_rate > 0 {
        println!(
            "churn: {} updates / 100 queries, {} per epoch (versioned protocol)\n",
            opts.update_rate, opts.update_batch
        );
    }

    let shared_server = build_server(&cfg);
    let mut sizes = Vec::new();
    let mut n = 1;
    while n < max_clients {
        sizes.push(n);
        n *= 2;
    }
    sizes.push(max_clients);

    let mut table = Table::new(vec![
        "clients", "threads", "queries", "wall", "sim q/s", "wall q/s", "resp", "hit_c", "fmr",
        "upd", "stale", "refr", "inv",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    let mut last_sim_qps = 0.0;
    let mut monotone = true;
    let mut tracked_after = 0;
    for &clients in &sizes {
        // Churn mutates the dataset, so each churned row gets a fresh
        // server — rows stay comparable (same seed world, per-row epochs)
        // instead of inheriting the previous row's drift. Update-free
        // rows share one server (dataset generation dominates setup).
        let fresh_server;
        let server = if opts.update_rate > 0 {
            fresh_server = build_server(&cfg);
            &fresh_server
        } else {
            &shared_server
        };
        let fleet = Fleet::new(cfg)
            .clients(clients)
            .threads(opts.threads)
            .churn(churn);
        let out = fleet.run(server);
        tracked_after = server.tracked_clients();
        let s = &out.merged.summary;
        table.row(vec![
            clients.to_string(),
            if opts.threads == 0 {
                "auto".to_string()
            } else {
                opts.threads.to_string()
            },
            out.total_queries().to_string(),
            fmt_s(out.wall_s),
            format!("{:.2}", out.sim_qps()),
            format!("{:.0}", out.wall_qps()),
            fmt_s(s.avg_response_s),
            fmt_pct(s.hit_c),
            fmt_pct(s.fmr),
            out.updates_applied.to_string(),
            s.totals.stale_retries.to_string(),
            s.totals.full_refreshes.to_string(),
            fmt_bytes(s.totals.invalidation_bytes as f64),
        ]);
        json_rows.push(
            json::Obj::new()
                .num("clients", clients)
                .num("queries", out.total_queries())
                .num("wall_s", out.wall_s)
                .num("sim_qps", out.sim_qps())
                .num("wall_qps", out.wall_qps())
                .num("avg_response_s", s.avg_response_s)
                .num("hit_c", s.hit_c)
                .num("fmr", s.fmr)
                .num("contacts", s.totals.contacts)
                .num("stale_retries", s.totals.stale_retries)
                .num("full_refreshes", s.totals.full_refreshes)
                .num("invalidation_bytes", s.totals.invalidation_bytes)
                .num("updates_applied", out.updates_applied)
                .num("final_epoch", out.final_epoch)
                .num("log_records", out.log_records)
                .render(),
        );
        monotone &= out.sim_qps() > last_sim_qps;
        last_sim_qps = out.sim_qps();
    }
    table.print();
    println!();
    println!(
        "aggregate throughput {} with fleet size; \
         {} client states remain tracked after disconnects",
        if monotone {
            "scales monotonically"
        } else {
            "did NOT scale monotonically"
        },
        tracked_after
    );

    if let Some(path) = &opts.json {
        let doc = json::Obj::new()
            .str("bench", "ext_fleet")
            .num("seed", opts.seed)
            .num("objects", cfg.n_objects)
            .num("queries_per_client", cfg.n_queries)
            .num("update_rate_per_100", opts.update_rate)
            .num("update_batch", opts.update_batch)
            .raw("rows", &json::array(&json_rows))
            .render();
        std::fs::write(path, doc + "\n").expect("write --json output");
        println!("wrote {path}");
    }
}

/// Cluster-scaling mode (`--shards`): a fixed fleet against a fresh
/// spatially-sharded cluster per shard count: the scatter-gather router
/// fans work out across shards, which is the parallelism under
/// measurement here.
fn shard_scaling(opts: &HarnessOpts, cfg: pc_sim::SimConfig, churn: ChurnConfig, clients: u32) {
    banner("ext: shard scaling (spatially-sharded cluster)", &cfg);
    println!(
        "fleet fixed at {clients} clients; shard counts {:?}{}\n",
        opts.shards,
        if opts.update_rate > 0 {
            format!(
                "; churn {} updates / 100 queries, {} per epoch",
                opts.update_rate, opts.update_batch
            )
        } else {
            String::new()
        }
    );

    let mut table = Table::new(vec![
        "shards", "clients", "queries", "wall", "sim q/s", "wall q/s", "resp", "hit_c", "fmr",
        "upd", "stale", "refr", "inv",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    let mut first_qps = 0.0;
    let mut last_qps = 0.0;
    for &shards in &opts.shards {
        // A fresh cluster per row: shard count changes the partitioning of
        // the *same* seed world, and churned rows must not inherit the
        // previous row's dataset drift.
        let cluster = build_cluster(&cfg, shards);
        let fleet = Fleet::new(cfg)
            .clients(clients)
            .threads(opts.threads)
            .churn(churn);
        let handle: &dyn ServerHandle = &cluster;
        let out: FleetResult = fleet.run(handle);
        let s = &out.merged.summary;
        table.row(vec![
            shards.to_string(),
            clients.to_string(),
            out.total_queries().to_string(),
            fmt_s(out.wall_s),
            format!("{:.2}", out.sim_qps()),
            format!("{:.0}", out.wall_qps()),
            fmt_s(s.avg_response_s),
            fmt_pct(s.hit_c),
            fmt_pct(s.fmr),
            out.updates_applied.to_string(),
            s.totals.stale_retries.to_string(),
            s.totals.full_refreshes.to_string(),
            fmt_bytes(s.totals.invalidation_bytes as f64),
        ]);
        json_rows.push(
            json::Obj::new()
                .num("shards", shards)
                .num("clients", clients)
                .num("queries", out.total_queries())
                .num("wall_s", out.wall_s)
                .num("sim_qps", out.sim_qps())
                .num("wall_qps", out.wall_qps())
                .num("avg_response_s", s.avg_response_s)
                .num("hit_c", s.hit_c)
                .num("fmr", s.fmr)
                .num("contacts", s.totals.contacts)
                .num("stale_retries", s.totals.stale_retries)
                .num("full_refreshes", s.totals.full_refreshes)
                .num("invalidation_bytes", s.totals.invalidation_bytes)
                .num("updates_applied", out.updates_applied)
                .num("final_epoch", out.final_epoch)
                .num("log_records", out.log_records)
                .render(),
        );
        if first_qps == 0.0 {
            first_qps = out.wall_qps();
        }
        last_qps = out.wall_qps();
    }
    table.print();
    println!();
    println!(
        "wall-clock throughput {} from {:.0} q/s ({} shard{}) to {:.0} q/s ({} shards)",
        if last_qps > first_qps {
            "grew"
        } else {
            "did NOT grow"
        },
        first_qps,
        opts.shards[0],
        if opts.shards[0] == 1 { "" } else { "s" },
        last_qps,
        opts.shards[opts.shards.len() - 1],
    );

    if let Some(path) = &opts.json {
        let doc = json::Obj::new()
            .str("bench", "ext_fleet_shard")
            .num("seed", opts.seed)
            .num("objects", cfg.n_objects)
            .num("queries_per_client", cfg.n_queries)
            .num("clients", clients)
            .num("update_rate_per_100", opts.update_rate)
            .num("update_batch", opts.update_batch)
            .raw("rows", &json::array(&json_rows))
            .render();
        std::fs::write(path, doc + "\n").expect("write --json output");
        println!("wrote {path}");
    }
}
