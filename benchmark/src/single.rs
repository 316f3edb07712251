//! One run in one process: set up, check answers, measure one workload once
//! (untraced for the end-to-end metrics, or traced for the per-layer ones)
//! and report. This is what `BENCHMARK.json`'s command executes, and what
//! `run` spawns once per workload and repetition.

use crate::alloc;
use crate::driver::{plain_session, run_clients, run_writer, ClientFold, Mode, RunCtx, WriterFold};
use crate::json::Value;
use crate::metrics::{contract_per_layer, Listed, END_TO_END, PER_LAYER};
use crate::rig::{Rig, World};
use crate::spans::{Layer, Span};
use crate::stats::{clamp_ns, median, percentile_sorted, percentile_us};
use crate::workloads::{by_name, Budget, Workload};
use pc_rtree::proto::{Request, Response};
use pc_server::{ClientId, ClusterStats, WireServerStats, WireTransportStats};
use pc_sim::SimConfig;
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Client id of the correctness pass, clear of every measured session.
const VERIFY_CLIENT: ClientId = 3_000_000;

pub struct SingleArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    /// Budget divisor (`run --smoke` passes 50).
    pub div: usize,
    /// Run the full correctness pass and nothing else.
    pub verify_only: bool,
    /// Write the sampled raw spans of a traced run here.
    pub spans_out: Option<PathBuf>,
}

pub struct SingleResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// All twelve end-to-end metrics that exist on this workload (untraced
    /// runs only).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// The per-layer metrics that exist on this workload (traced runs only).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Everything that went wrong; the run is correct when this is empty.
    pub problems: Vec<String>,
}

impl SingleResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The harness's own record of the run: every metric it has.
    pub fn full(&self) -> Value {
        let metrics = |list: &[(&'static str, f64)]| {
            Value::Obj(
                list.iter()
                    .map(|&(n, v)| (n.to_string(), Value::Num(v)))
                    .collect(),
            )
        };
        Value::obj()
            .with("workload", self.workload)
            .with("seed", self.seed)
            .with("seconds", self.seconds as u64)
            .with("trace", self.trace)
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("end_to_end", metrics(&self.end_to_end))
            .with("per_layer", metrics(&self.per_layer))
            .with(
                "problems",
                self.problems
                    .iter()
                    .map(|p| Value::from(p.as_str()))
                    .collect::<Vec<_>>(),
            )
    }

    /// The result line of the `BENCHMARK.json` contract: with tracing off
    /// exactly its end-to-end metrics, with tracing on exactly its
    /// per-layer ones. The contract wants every listed metric from every
    /// workload, so one that does not exist on this workload reads 0.
    pub fn contract(&self) -> Value {
        let metric = |value: f64, unit: &str| Value::obj().with("value", value).with("unit", unit);
        let find = |list: &[(&'static str, f64)], name: &str| {
            list.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
        };
        let mut metrics = Vec::new();
        if self.trace {
            for (name, unit, _) in contract_per_layer() {
                let v = find(&self.per_layer, name).unwrap_or(0.0);
                metrics.push((name.to_string(), metric(v, unit)));
            }
        } else {
            for m in END_TO_END.iter().filter(|m| m.listed == Listed::EndToEnd) {
                let v = find(&self.end_to_end, m.name).unwrap_or(f64::NAN);
                metrics.push((m.name.to_string(), metric(v, m.unit)));
            }
        }
        Value::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted.max(1))
            .with("failed", self.failed)
            .with("metrics", Value::Obj(metrics))
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Builds the world and the path to it, timed together: `setup_s`.
fn set_up(w: &Workload, trace_origin: Option<Instant>) -> (World, Rig, f64) {
    let t = Instant::now();
    let world = World::build(w, &w.world_config());
    let rig = Rig::over(w, &world, trace_origin);
    let took = t.elapsed().as_secs_f64();
    (world, rig, took)
}

fn check_wire(
    stats: Option<(WireServerStats, WireTransportStats)>,
    what: &str,
    problems: &mut Vec<String>,
) {
    let Some((server, transport)) = stats else {
        return;
    };
    if !transport.reconciles() {
        problems.push(format!(
            "{what}: measured wire bytes do not reconcile with the model: {transport:?}"
        ));
    }
    if server.requests_served != transport.rx_frames || transport.tx_frames != transport.rx_frames {
        problems.push(format!(
            "{what}: server served {} requests, transport sent {} and received {} frames",
            server.requests_served, transport.tx_frames, transport.rx_frames
        ));
    }
    if server.frames_rejected + server.requests_aborted > 0 {
        problems.push(format!("{what}: server refused frames: {server:?}"));
    }
}

/// The correctness pass: `queries` queries with every answer checked
/// against `Request::Direct`. On a churned workload the writer first runs
/// beside an unchecked session of the same length (an answer taken while
/// updates land may legitimately differ from a later direct evaluation),
/// then stops, and a fresh session is checked against the updated world.
/// Returns `(attempted, failed)`.
fn correctness_pass(
    w: &Workload,
    cfg: &SimConfig,
    world: &World,
    rig: &mut Rig,
    queries: usize,
    problems: &mut Vec<String>,
) -> (u64, u64) {
    let completed = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs(100);
    let mut attempted = 0;
    let mut failed = 0;
    let mut fold = ClientFold::default();
    let mut checked = *cfg;
    checked.verify = true;
    let mut checked_queries = queries;
    if w.churn {
        let stop = AtomicBool::new(false);
        let (writer, unfinished) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                run_writer(
                    &*world.backend,
                    cfg.seed,
                    &completed,
                    &stop,
                    true,
                    Instant::now(),
                )
            });
            let ctx = RunCtx {
                cfg: *cfg,
                handle: rig.handle(),
                completed: &completed,
                deadline,
            };
            let unfinished = plain_session(&ctx, VERIFY_CLIENT, queries, &mut fold);
            // ordering: Release pairs with the writer's Acquire load.
            stop.store(true, Ordering::Release);
            (writer.join().expect("writer thread panicked"), unfinished)
        });
        attempted += queries as u64 + writer.attempted;
        failed += unfinished + writer.failed;
        if writer.attempted == 0 && queries as u64 >= crate::workloads::CHURN_EVERY_QUERIES {
            problems.push("correctness pass: the writer never published".to_string());
        }
        checked_queries = (queries / 2).max(1);
    }
    let ctx = RunCtx {
        cfg: checked,
        handle: rig.handle(),
        completed: &completed,
        deadline,
    };
    attempted += checked_queries as u64;
    failed += plain_session(&ctx, VERIFY_CLIENT + 1, checked_queries, &mut fold);
    if failed > 0 {
        problems.push(format!(
            "correctness pass: {failed} of {attempted} operations failed (an answer differed \
             from Request::Direct, or a call panicked)"
        ));
    }
    check_wire(rig.shutdown_wire(), "correctness pass", problems);
    (attempted, failed)
}

/// What the measured phase produced.
struct Measured {
    fold: ClientFold,
    /// Untraced reference slice (traced runs only).
    reference: Option<ClientFold>,
    writer: Option<WriterFold>,
    /// Wall the writer thread was alive for.
    writer_wall_s: f64,
    /// Clock reading when the traced phase began.
    phase_start_ns: u64,
    cluster: Option<ClusterStats>,
    log_records: usize,
}

fn measure(
    w: &Workload,
    cfg: &SimConfig,
    seconds: u32,
    budget: Budget,
    world: &World,
    rig: &Rig,
    trace_origin: Option<Instant>,
) -> Measured {
    let completed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    // A hung or crawling run ends here with its budget counted as failed,
    // well inside the 180 s a run may take.
    let deadline = Instant::now() + Duration::from_secs((4 * seconds as u64 + 20).min(120));
    let origin = trace_origin.unwrap_or_else(Instant::now);
    let ctx = |handle| RunCtx {
        cfg: *cfg,
        handle,
        completed: &completed,
        deadline,
    };
    // The reference slice runs on a probe-free path to the same world.
    let reference_rig = trace_origin.map(|_| Rig::over(w, world, None));
    let reference_queries = if w.session_len.is_some() {
        budget.queries
    } else {
        (budget.queries / 3).max(1)
    };
    std::thread::scope(|scope| {
        let writer_started = Instant::now();
        let writer = w.churn.then(|| {
            let (completed, stop) = (&completed, &stop);
            scope.spawn(move || {
                run_writer(&*world.backend, cfg.seed, completed, stop, false, origin)
            })
        });
        let cluster_before = world.cluster.as_ref().map(|c| c.stats());
        let phase_start_ns = origin.elapsed().as_nanos() as u64;
        let mode = match (&rig.probe, trace_origin) {
            (Some(probe), Some(origin)) => Mode::Traced {
                probe,
                origin,
                reference_queries,
            },
            _ => Mode::Plain,
        };
        alloc::arm(trace_origin.is_some());
        let fold = run_clients(w, &ctx(rig.handle()), 0, budget, mode);
        alloc::arm(false);
        let cluster_after = world.cluster.as_ref().map(|c| c.stats());
        let log_records = world.backend.log_records();
        // The reference slice: every client's last session again, untraced,
        // on a world and a process as warm as the traced one found them.
        let reference = reference_rig.as_ref().map(|r| {
            let slice = Budget {
                sessions: 1,
                queries: reference_queries,
            };
            run_clients(w, &ctx(r.handle()), budget.sessions - 1, slice, Mode::Plain)
        });
        // ordering: Release pairs with the writer's Acquire load.
        stop.store(true, Ordering::Release);
        let writer = writer.map(|h| h.join().expect("writer thread panicked"));
        let cluster = cluster_after
            .zip(cluster_before)
            .map(|(a, b)| ClusterStats {
                scatter_bytes: a.scatter_bytes - b.scatter_bytes,
                gather_bytes: a.gather_bytes - b.gather_bytes,
                sub_queries: a.sub_queries - b.sub_queries,
                duplicates_merged: a.duplicates_merged - b.duplicates_merged,
            });
        Measured {
            fold,
            reference,
            writer,
            writer_wall_s: writer_started.elapsed().as_secs_f64(),
            phase_start_ns,
            cluster,
            log_records,
        }
    })
}

/// Codec time, measured by replaying the sampled envelopes through the
/// four public codec functions after the timed region.
struct CodecReplay {
    encode_request_ns: Vec<u32>,
    decode_request_ns: Vec<u32>,
    encode_response_ns: Vec<u32>,
    decode_response_ns: Vec<u32>,
    response_bytes: u64,
    response_ns: u64,
}

fn replay_codec(envelopes: &[(ClientId, Request, Response)]) -> CodecReplay {
    let header = pc_wire::FRAME_HEADER_BYTES as usize;
    let mut out = CodecReplay {
        encode_request_ns: Vec::new(),
        decode_request_ns: Vec::new(),
        encode_response_ns: Vec::new(),
        decode_response_ns: Vec::new(),
        response_bytes: 0,
        response_ns: 0,
    };
    let ns = |t: Instant| clamp_ns(t.elapsed().as_nanos());
    for (seq, (client, req, resp)) in envelopes.iter().enumerate() {
        let t = Instant::now();
        let frame = black_box(pc_wire::encode_request(*client, seq as u32, black_box(req)));
        out.encode_request_ns.push(ns(t));
        let t = Instant::now();
        let decoded = black_box(pc_wire::decode_request(frame[2], &frame[header..]));
        out.decode_request_ns.push(ns(t));
        assert!(decoded.as_ref() == Ok(req), "request did not round-trip");

        let t = Instant::now();
        let frame = black_box(pc_wire::encode_response(
            *client,
            seq as u32,
            black_box(resp),
        ));
        let enc = ns(t);
        out.encode_response_ns.push(enc);
        let t = Instant::now();
        let decoded = black_box(pc_wire::decode_response(frame[2], &frame[header..]));
        let dec = ns(t);
        out.decode_response_ns.push(dec);
        assert!(decoded.as_ref() == Ok(resp), "response did not round-trip");
        out.response_bytes += frame.len() as u64;
        out.response_ns += enc as u64 + dec as u64;
    }
    out
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "layer,query,parent,start_ns,end_ns")?;
    for s in spans {
        let parent = if s.parent == crate::spans::NO_PARENT {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            f,
            "{},{},{},{},{}",
            s.layer.name(),
            s.query,
            parent,
            s.start_ns,
            s.end_ns
        )?;
    }
    f.flush()
}

pub fn run_single(args: &SingleArgs) -> Result<SingleResult, String> {
    let w = by_name(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (have: {})",
            args.workload,
            crate::workloads::WORKLOADS.map(|w| w.name).join(", ")
        )
    })?;
    if !(1..=60).contains(&args.seconds) {
        return Err(format!("--seconds {} is outside 1..=60", args.seconds));
    }
    let cfg = w.sim_config(args.seed);
    let budget = w.budget(args.seconds, args.div);
    let mut problems = Vec::new();
    let mut setups = Vec::with_capacity(SETUPS);

    // The first set-up serves the correctness pass and is then torn down, so the
    // measured world has seen no traffic.
    let (world, mut rig, took) = set_up(w, None);
    setups.push(took);
    let verify_queries = if args.verify_only {
        w.verify_full
    } else {
        w.verify_quick
    };
    let (mut attempted, mut failed) = correctness_pass(
        w,
        &cfg,
        &world,
        &mut rig,
        verify_queries.div_ceil(args.div.max(1)),
        &mut problems,
    );
    drop((rig, world));
    let mut result = SingleResult {
        workload: w.name,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        attempted,
        failed,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        problems: Vec::new(),
    };
    if args.verify_only {
        result.problems = problems;
        return Ok(result);
    }

    // The middle set-ups are built and dropped only to be timed; the last
    // one is measured.
    for _ in 1..SETUPS - 1 {
        setups.push(set_up(w, None).2);
    }
    let trace_origin = args.trace.then(Instant::now);
    let (world, mut rig, took) = set_up(w, trace_origin);
    setups.push(took);

    let mut m = measure(w, &cfg, args.seconds, budget, &world, &rig, trace_origin);
    let wire = rig.shutdown_wire();
    check_wire(wire, "measured run", &mut problems);

    let planned = budget.total(w.clients);
    let publishes = m.writer.as_ref().map_or(0, |x| x.attempted);
    attempted += planned + publishes;
    failed += m.fold.failed + m.writer.as_ref().map_or(0, |x| x.failed);
    if m.fold.completed + m.fold.failed != planned {
        problems.push(format!(
            "{} completed + {} failed queries do not add up to the budget of {planned}",
            m.fold.completed, m.fold.failed
        ));
    }
    if m.fold.failed > 0 {
        problems.push(format!("{} measured queries failed", m.fold.failed));
    }
    result.attempted = attempted;
    result.failed = failed;

    let summary = m.fold.summary;
    let queries = m.fold.completed.max(1) as f64;
    let us = |samples: &mut [u32], p: f64| percentile_us(samples, p).unwrap_or(f64::NAN);
    let mut publish_ns = m.writer.as_mut().map(|x| std::mem::take(&mut x.publish_ns));

    // The twelve end-to-end metrics. An untraced run reports them all; a
    // traced one only those `BENCHMARK.json` lists per layer, measured
    // with tracing on and worth reading against its other numbers only.
    let mut e2e = vec![
        ("setup_s", median(&setups)),
        (
            "throughput_qps",
            w.clients as f64 * median(&m.fold.window_qps),
        ),
        ("contact_p50_us", median(&m.fold.window_contact_p50_us)),
        ("query_p99_us", median(&m.fold.window_p99_us)),
        ("resp_model_ms", summary.avg_response_s * 1e3),
        ("downlink_bytes_per_query", summary.avg_downlink_bytes),
        ("uplink_bytes_per_query", summary.avg_uplink_bytes),
        ("hit_c", summary.hit_c),
        ("failed_share", failed as f64 / attempted.max(1) as f64),
        ("peak_rss_mb", peak_rss_mib()),
    ];
    if let Some(ns) = &mut publish_ns {
        e2e.push(("publish_p50_us", us(ns, 0.5)));
        e2e.push(("publish_p99_us", us(ns, 0.99)));
    }
    for spec in END_TO_END.iter().filter(|spec| spec.scope.covers(w)) {
        match e2e.iter().find(|(n, _)| *n == spec.name) {
            Some((_, v)) if v.is_finite() => {}
            _ => problems.push(format!(
                "end-to-end metric {} has no finite value",
                spec.name
            )),
        }
    }
    if !args.trace {
        result.end_to_end = e2e;
    } else {
        let t = &mut m.fold.trace;
        let query_ns = t.query_ns.max(1) as f64;
        let share = |ns: u64| ns as f64 / query_ns;
        let own = t.self_ns;
        let per = |sum: u64, n: u64| sum as f64 / n.max(1) as f64;
        let calls = (t.call_ns.len() + t.report_ns.len()) as u64;
        let mut out: Vec<(&'static str, f64)> = vec![
            ("gen.busy_share", share(own[Layer::Gen as usize])),
            ("client.run_local_us_p50", us(&mut t.run_local_ns, 0.5)),
            ("client.run_local_us_p99", us(&mut t.run_local_ns, 0.99)),
            (
                "client.run_local_share",
                share(own[Layer::RunLocal as usize]),
            ),
            ("client.expansions_per_query", summary.avg_client_expansions),
            ("client.local_complete_share", 1.0 - summary.contact_rate),
            (
                "client.assemble_share",
                share(own[Layer::Assemble as usize]),
            ),
            (
                "alloc.per_run_local",
                per(t.allocs_run_local, t.run_local_ns.len() as u64),
            ),
            ("cache.absorb_us_p50", us(&mut t.absorb_ns, 0.5)),
            ("cache.absorb_us_p99", us(&mut t.absorb_ns, 0.99)),
            ("cache.absorb_share", share(own[Layer::Absorb as usize])),
            (
                "cache.evicted_items_per_absorb",
                per(t.evicted_items, t.absorb_ns.len() as u64),
            ),
            (
                "cache.inserted_bytes_per_absorb",
                per(t.inserted_bytes, t.absorb_ns.len() as u64),
            ),
            (
                "cache.index_to_cache_ratio",
                m.fold.index_ratio_sum / m.fold.sessions.max(1) as f64,
            ),
            ("cache.false_miss_rate", summary.fmr),
            (
                "alloc.per_absorb",
                per(t.allocs_absorb, t.absorb_ns.len() as u64),
            ),
            ("transport.call_us_p50", us(&mut t.call_ns, 0.5)),
            ("transport.call_us_p99", us(&mut t.call_ns, 0.99)),
            ("transport.call_share", share(own[Layer::Call as usize])),
            ("transport.contacts_per_query", t.contacts as f64 / queries),
            ("server.dispatch_us_p50", us(&mut t.dispatch_ns, 0.5)),
            ("server.dispatch_us_p99", us(&mut t.dispatch_ns, 0.99)),
            (
                "server.dispatch_share",
                share(own[Layer::Dispatch as usize]),
            ),
            (
                "server.expansions_per_contact",
                per(t.expansions, t.replies),
            ),
            ("server.objects_per_reply", per(t.objects, t.replies)),
            ("server.confirmed_per_reply", per(t.confirmed, t.replies)),
            ("forms.index_bytes_per_reply", per(t.index_bytes, t.replies)),
            ("forms.cells_per_reply", per(t.cells, t.replies)),
            ("adaptive.report_us_p50", us(&mut t.report_ns, 0.5)),
            ("sim.step_self_share", share(own[Layer::Query as usize])),
            (
                "trace.coverage_share",
                1.0 - share(own[Layer::Query as usize]),
            ),
            (
                "trace.overhead_share",
                t.reference_wall_ns as f64
                    / m.reference.as_ref().map_or(0, |r| r.plain_wall_ns).max(1) as f64
                    - 1.0,
            ),
        ];
        if let Some((_, transport)) = wire {
            let envelopes = rig
                .probe
                .as_ref()
                .map_or(Vec::new(), |p| p.take_envelopes());
            let mut codec = replay_codec(&envelopes);
            out.extend([
                ("wire.overhead_us_p50", us(&mut t.overhead_ns, 0.5)),
                ("wire.connect_us_p50", us(&mut t.connect_ns, 0.5)),
                (
                    "wire.frames_per_query",
                    (transport.tx_frames + transport.rx_frames) as f64 / queries,
                ),
                (
                    "wire.rx_bytes_per_contact",
                    per(transport.rx_bytes, t.contacts),
                ),
                (
                    "wire.framing_overhead_share",
                    (transport.tx_overhead_bytes + transport.rx_overhead_bytes) as f64
                        / (transport.tx_bytes + transport.rx_bytes).max(1) as f64,
                ),
                ("alloc.per_call_client_side", per(t.allocs_call, calls)),
                (
                    "codec.encode_request_us_p50",
                    us(&mut codec.encode_request_ns, 0.5),
                ),
                (
                    "codec.decode_request_us_p50",
                    us(&mut codec.decode_request_ns, 0.5),
                ),
                (
                    "codec.encode_response_us_p50",
                    us(&mut codec.encode_response_ns, 0.5),
                ),
                (
                    "codec.decode_response_us_p50",
                    us(&mut codec.decode_response_ns, 0.5),
                ),
                (
                    // Bytes per microsecond is megabytes per second.
                    "codec.response_mb_per_s",
                    codec.response_bytes as f64 * 1e3 / codec.response_ns.max(1) as f64,
                ),
            ]);
        }
        if let (Some(writer), Some(ns)) = (&mut m.writer, &mut publish_ns) {
            writer.lag_queries.sort_unstable();
            let publishes_traced = writer
                .spans
                .iter()
                .filter(|s| s.start_ns >= m.phase_start_ns)
                .count() as u64;
            let (p50, p99) = (us(ns, 0.5), us(ns, 0.99));
            out.extend([
                ("updates.publish_us_p50", p50),
                ("updates.publish_us_p99", p99),
                (
                    "updates.writer_busy_share",
                    writer.busy_ns as f64 / (m.writer_wall_s * 1e9),
                ),
                (
                    "updates.lag_queries_p99",
                    percentile_sorted(&writer.lag_queries, 0.99).map_or(f64::NAN, f64::from),
                ),
                ("updates.log_records_final", m.log_records as f64),
                (
                    "updates.stale_retries_per_contact",
                    summary.stale_retry_rate,
                ),
                (
                    "updates.full_refreshes",
                    summary.totals.full_refreshes as f64,
                ),
                (
                    "updates.invalidation_bytes_per_query",
                    summary.totals.invalidation_bytes as f64 / queries,
                ),
                (
                    "cache.invalidated_items_per_publish",
                    per(t.invalidated_items, publishes_traced),
                ),
            ]);
        }
        if let Some(c) = m.cluster {
            out.extend([
                (
                    "cluster.sub_queries_per_contact",
                    per(c.sub_queries, t.contacts),
                ),
                (
                    "cluster.scatter_bytes_per_contact",
                    per(c.scatter_bytes, t.contacts),
                ),
                (
                    "cluster.gather_bytes_per_contact",
                    per(c.gather_bytes, t.contacts),
                ),
                (
                    "cluster.duplicates_merged_per_contact",
                    per(c.duplicates_merged, t.contacts),
                ),
            ]);
        }
        out.extend(e2e.into_iter().filter(|(name, _)| {
            END_TO_END
                .iter()
                .any(|m| m.name == *name && m.listed == Listed::PerLayer)
        }));
        for spec in PER_LAYER.iter() {
            let got = out.iter().find(|(n, _)| *n == spec.name);
            match (spec.scope.covers(w), got) {
                (true, Some((_, v))) if v.is_finite() => {}
                (true, _) => problems.push(format!(
                    "per-layer metric {} has no finite value",
                    spec.name
                )),
                (false, Some(_)) => problems.push(format!(
                    "per-layer metric {} must not exist on {}",
                    spec.name, w.name
                )),
                (false, None) => {}
            }
        }
        if let Some(path) = &args.spans_out {
            let mut spans = std::mem::take(&mut t.kept);
            if let Some(writer) = &m.writer {
                spans.extend_from_slice(&writer.spans);
            }
            write_spans(path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        result.per_layer = out;
    }
    result.problems = problems;
    Ok(result)
}
