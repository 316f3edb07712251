//! The closed-loop load driver: client threads that each run their
//! sessions one query after another, timing every `step`, and — on the
//! churned workloads — the benchmark's own writer thread publishing update
//! batches paced against the readers' completed-query count.

use crate::probe::Probe;
use crate::spans::{Layer, Span, NO_PARENT};
use crate::stats::{clamp_ns, percentile_us};
use crate::traced::{TraceFold, TracedSession};
use crate::workloads::{Budget, Workload, CHURN_BATCH, CHURN_EVERY_QUERIES};
use pc_rtree::proto::Request;
use pc_server::{ClientId, ServerHandle, Update};
use pc_sim::{generate_update, ClientSession, QueryRecord, SimConfig, Summary};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Windows per client and run (see [`ClientFold::close_windows`]).
pub const WINDOWS: usize = 10;

/// What one client thread measured. Step times are compact `u32`
/// nanoseconds and each session's records are folded into the summary and
/// dropped, so harness buffers stay far below the measured process's RSS.
#[derive(Default)]
pub struct ClientFold {
    /// This client's steps in issue order, until [`Self::close_windows`]
    /// folds them: nanoseconds, and whether the query contacted the server.
    steps: Vec<(u32, bool)>,
    /// Queries per second of busy time, one value per window and client.
    pub window_qps: Vec<f64>,
    /// p99 step time, one value per window and client.
    pub window_p99_us: Vec<f64>,
    /// Median step time of the window's queries that made at least one
    /// server contact, one value per window and client.
    pub window_contact_p50_us: Vec<f64>,
    pub summary: Summary,
    pub completed: u64,
    pub failed: u64,
    /// Σ over sessions of the final index-bytes / capacity ratio.
    pub index_ratio_sum: f64,
    pub sessions: u64,
    /// Σ wall of the untraced sessions, creation to last step — the
    /// reference a traced run compares its own first slice against.
    pub plain_wall_ns: u64,
    pub trace: TraceFold,
}

impl ClientFold {
    fn fold_session(&mut self, records: &[QueryRecord], step_ns: &[u32], index_ratio: f64) {
        self.steps.extend(
            records
                .iter()
                .zip(step_ns)
                .map(|(r, &ns)| (ns, r.contacted)),
        );
        self.summary = self.summary.merge(&Summary::from_records(records));
        self.completed += records.len() as u64;
        self.index_ratio_sum += index_ratio;
        self.sessions += 1;
    }

    /// Cuts this client's run into [`WINDOWS`] equal stretches of queries
    /// and keeps each stretch's throughput and p99. The run reports the
    /// median stretch: on a shared host interference comes in bursts, and a
    /// burst that slows a tenth of the run would otherwise own the p99 and
    /// drag the mean.
    fn close_windows(&mut self) {
        let steps = std::mem::take(&mut self.steps);
        for window in steps.chunks(steps.len().div_ceil(WINDOWS).max(1)) {
            let busy_ns: u64 = window.iter().map(|&(ns, _)| ns as u64).sum();
            self.window_qps
                .push(window.len() as f64 * 1e9 / busy_ns.max(1) as f64);
            let mut all: Vec<u32> = window.iter().map(|&(ns, _)| ns).collect();
            self.window_p99_us.extend(percentile_us(&mut all, 0.99));
            let mut contacts: Vec<u32> = window
                .iter()
                .filter(|&&(_, contacted)| contacted)
                .map(|&(ns, _)| ns)
                .collect();
            self.window_contact_p50_us
                .extend(percentile_us(&mut contacts, 0.5));
        }
    }

    pub fn merge(&mut self, other: ClientFold) {
        self.window_qps.extend(other.window_qps);
        self.window_p99_us.extend(other.window_p99_us);
        self.window_contact_p50_us
            .extend(other.window_contact_p50_us);
        self.summary = self.summary.merge(&other.summary);
        self.completed += other.completed;
        self.failed += other.failed;
        self.index_ratio_sum += other.index_ratio_sum;
        self.sessions += other.sessions;
        self.plain_wall_ns += other.plain_wall_ns;
        self.trace.merge(other.trace);
    }
}

/// Shared by every thread of one run.
pub struct RunCtx<'a> {
    pub cfg: SimConfig,
    pub handle: &'a dyn ServerHandle,
    /// Queries completed by all readers; the writer paces itself on it.
    pub completed: &'a AtomicU64,
    /// Past this instant a session is abandoned and its remaining budget
    /// counted as failed ("never completed").
    pub deadline: Instant,
}

/// Runs one untraced session of `queries` queries as client `id`: the
/// library's own `ClientSession`, stepped and timed from outside, then
/// disconnected. Returns how many queries did not complete.
pub fn plain_session(ctx: &RunCtx, id: ClientId, queries: usize, fold: &mut ClientFold) -> u64 {
    let mut cfg = ctx.cfg;
    cfg.n_queries = queries;
    let mut step_ns = Vec::with_capacity(queries);
    let mut wall_ns = 0;
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let started = Instant::now();
        let mut session = ClientSession::new(&cfg, ctx.handle, id);
        loop {
            let t = Instant::now();
            if t > ctx.deadline {
                break;
            }
            let more = session.step(ctx.handle);
            step_ns.push(clamp_ns(t.elapsed().as_nanos()));
            // ordering: Release pairs with the writer's Acquire load — a
            // counted query has fully completed before churn is paced on it.
            ctx.completed.fetch_add(1, Ordering::Release);
            if !more {
                break;
            }
        }
        wall_ns = started.elapsed().as_nanos() as u64;
        let req = Request::Forget;
        let uplink = req.wire_bytes();
        let reply = ctx.handle.call(id, req);
        let downlink = reply.wire_bytes();
        let _ = reply.into_forgotten();
        let mut result = session.finish();
        if let Some(last) = result.records.last_mut() {
            last.uplink_bytes += uplink;
            last.downlink_bytes += downlink;
        }
        result
    }));
    match ran {
        Ok(result) => {
            let ratio = result.windows.last().map_or(0.0, |w| w.index_to_cache);
            fold.fold_session(&result.records, &step_ns, ratio);
            fold.plain_wall_ns += wall_ns;
            (queries - result.records.len()) as u64
        }
        // The session's records died with it, so none of its budget counts.
        Err(_) => queries as u64,
    }
}

/// The traced counterpart of [`plain_session`].
fn traced_session(
    ctx: &RunCtx,
    id: ClientId,
    queries: usize,
    reference_queries: usize,
    probe: &Probe,
    origin: Instant,
    fold: &mut ClientFold,
) -> u64 {
    let mut cfg = ctx.cfg;
    cfg.n_queries = queries;
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let mut session = TracedSession::new(&cfg, ctx.handle, id, probe, origin);
        let mut step_ns = Vec::with_capacity(queries);
        loop {
            let t = Instant::now();
            if t > ctx.deadline {
                break;
            }
            let more = session.step(ctx.handle, reference_queries, &mut fold.trace);
            step_ns.push(clamp_ns(t.elapsed().as_nanos()));
            // ordering: Release — as in `plain_session`.
            ctx.completed.fetch_add(1, Ordering::Release);
            if !more {
                break;
            }
        }
        session.disconnect(ctx.handle);
        (session.index_to_cache_ratio(), session.records, step_ns)
    }));
    match ran {
        Ok((ratio, records, step_ns)) => {
            fold.fold_session(&records, &step_ns, ratio);
            (queries - records.len()) as u64
        }
        Err(_) => queries as u64,
    }
}

/// How the client threads run their sessions.
#[derive(Clone, Copy)]
pub enum Mode<'a> {
    Plain,
    Traced {
        probe: &'a Probe,
        origin: Instant,
        /// Length of the untraced reference slice each client runs after
        /// its last session, as that session's client again.
        reference_queries: usize,
    },
}

/// Client ids: client `c`'s session `s` is id `c + clients * s`, so every
/// session is a new client to the server (cold adaptive state, a fresh
/// connection on the wire) and concurrent clients never share a probe slot.
pub fn session_id(w: &Workload, client: u32, session: usize) -> ClientId {
    client + w.clients * session as u32
}

/// Runs every client's budget concurrently — sessions `first_session..`
/// — and returns the merged fold.
pub fn run_clients(
    w: &Workload,
    ctx: &RunCtx,
    first_session: usize,
    budget: Budget,
    mode: Mode,
) -> ClientFold {
    let folds: Vec<ClientFold> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut fold = ClientFold::default();
                    let last = first_session + budget.sessions - 1;
                    for session in first_session..=last {
                        let id = session_id(w, client, session);
                        fold.failed += match mode {
                            Mode::Plain => plain_session(ctx, id, budget.queries, &mut fold),
                            Mode::Traced {
                                probe,
                                origin,
                                reference_queries,
                            } => traced_session(
                                ctx,
                                id,
                                budget.queries,
                                if session == last {
                                    reference_queries
                                } else {
                                    0
                                },
                                probe,
                                origin,
                                &mut fold,
                            ),
                        };
                    }
                    fold.close_windows();
                    fold
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked outside a session"))
            .collect()
    });
    let mut merged = ClientFold::default();
    for f in folds {
        merged.merge(f);
    }
    merged
}

/// What the writer thread measured.
#[derive(Default)]
pub struct WriterFold {
    pub publish_ns: Vec<u32>,
    /// How many reader queries past its due point each batch started.
    pub lag_queries: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
    pub busy_ns: u64,
    pub spans: Vec<Span>,
}

/// The update writer: one batch of [`CHURN_BATCH`] updates each time the
/// readers' completed-query count crosses a multiple of
/// [`CHURN_EVERY_QUERIES`]. A timed run stops it where it stands
/// (`drain == false`), so the timed region holds no writer-only tail; the
/// correctness pass lets it apply the batches already due first, so the
/// world it then checks has changed however the threads were scheduled.
pub fn run_writer(
    handle: &dyn ServerHandle,
    seed: u64,
    completed: &AtomicU64,
    stop: &AtomicBool,
    drain: bool,
    origin: Instant,
) -> WriterFold {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_CAFE);
    let mut fold = WriterFold::default();
    // ordering: Acquire pairs with the Release store after the readers
    // joined (and with each reader's Release increment, below).
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let done = completed.load(Ordering::Acquire);
        let due = (fold.attempted + 1) * CHURN_EVERY_QUERIES;
        if stopping && (done < due || !drain) {
            break;
        }
        if done < due {
            std::thread::sleep(Duration::from_micros(50));
            continue;
        }
        let n_live = handle.core().pin().store().len() as u32;
        let batch: Vec<Update> = (0..CHURN_BATCH)
            .map(|_| generate_update(&mut rng, n_live))
            .collect();
        fold.attempted += 1;
        fold.lag_queries
            .push((done - due).min(u32::MAX as u64) as u32);
        let start_ns = origin.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let ok = catch_unwind(AssertUnwindSafe(|| handle.apply_updates(&batch))).is_ok();
        let took = t.elapsed();
        if ok {
            fold.publish_ns.push(clamp_ns(took.as_nanos()));
            fold.busy_ns += took.as_nanos() as u64;
            fold.spans.push(Span {
                layer: Layer::Publish,
                parent: NO_PARENT,
                query: fold.attempted as u32,
                start_ns,
                end_ns: start_ns + took.as_nanos() as u64,
            });
        } else {
            fold.failed += 1;
        }
    }
    fold
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cut_a_run_into_equal_stretches() {
        // 1 000 steps: the first half at 1 µs, the second at 4 µs; every
        // fourth query contacts the server and takes ten times as long.
        let mut fold = ClientFold {
            steps: (0..1_000u32)
                .map(|i| {
                    let base = if i < 500 { 1_000 } else { 4_000 };
                    let contacted = i % 4 == 0;
                    (if contacted { base * 10 } else { base }, contacted)
                })
                .collect(),
            ..Default::default()
        };
        fold.close_windows();
        assert!(fold.steps.is_empty());
        assert_eq!(fold.window_qps.len(), WINDOWS);
        assert_eq!(fold.window_p99_us.len(), WINDOWS);
        assert_eq!(fold.window_contact_p50_us.len(), WINDOWS);
        // A stretch of 100 steps: 25 at 10 x base, 75 at base.
        let qps = |base_ns: f64| 100.0 * 1e9 / (25.0 * 10.0 * base_ns + 75.0 * base_ns);
        assert!((fold.window_qps[0] - qps(1_000.0)).abs() < 1e-6);
        assert!((fold.window_qps[WINDOWS - 1] - qps(4_000.0)).abs() < 1e-6);
        assert_eq!(fold.window_p99_us[0], 10.0);
        assert_eq!(fold.window_contact_p50_us[0], 10.0);
        assert_eq!(fold.window_contact_p50_us[WINDOWS - 1], 40.0);
        // No steps, no windows — and no division by zero.
        let mut empty = ClientFold::default();
        empty.close_windows();
        assert!(empty.window_qps.is_empty());
    }
}
