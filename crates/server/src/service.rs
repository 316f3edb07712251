//! A batched remainder service in front of the server: concurrently
//! arriving [`Request::Remainder`] calls from a fleet are coalesced per
//! shard (bounded queue, flush threshold) and executed against the shared
//! [`ServerCore`] in one pass, amortizing dispatch — one flusher's warm
//! tree/BPT walk serves its whole batch back-to-back while later arrivals
//! queue up behind it instead of contending on the core.
//!
//! The scheme is flat combining: an uncontended caller (empty shard, no
//! flush running) executes inline as a batch of one; otherwise callers
//! enqueue, and the first to find no flush in progress drains up to
//! [`BatchConfig::max_batch`] queued requests in FIFO order, resumes them
//! all, delivers each reply to its waiter and wakes the shard. Callers
//! arriving mid-flush enqueue and wait; whoever wakes unserved becomes
//! the next flusher. With a single client every batch has size one, so
//! the service is *bit-identical* to direct dispatch — pinned by
//! `tests/fleet.rs`.
//!
//! Batching never changes an answer: remainder resumption is a pure read
//! of an immutable snapshot, and each request's inputs — its form mode
//! (the only per-client input) *and* the epoch snapshot it reads — are
//! resolved at *call* time, exactly when direct dispatch would read them,
//! and carried through the queue. A concurrent fmr report, LRU eviction
//! or `apply_updates` epoch swap between enqueue and flush cannot alter
//! the reply, and a mid-batch swap cannot split a batch across epochs:
//! every queued request executes against the snapshot it pinned when it
//! was enqueued.
//!
//! Versioned remainders (§7 invalidation protocol) batch exactly like
//! plain ones: the epoch check and the resume both evaluate against the
//! request's call-time snapshot, which is the same linearization direct
//! dispatch offers (a request racing an update may be answered by either
//! side of the swap — here, the side current when it arrived). Control
//! traffic (fmr reports, forgets, direct queries) passes straight through
//! to the in-process dispatch path — it is cheap and latency-sensitive.

use crate::core::Snapshot;
use crate::server::{ClientId, Server};
use crate::sync_util::{lock_recover, wait_recover};
use crate::transport::{dispatch, ServerHandle, Transport};
use crate::{FormMode, ServerCore};
use pc_rtree::proto::{RemainderQuery, Request, Response};
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Batching knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Independent queues; clients spread across them by the same
    /// multiplicative hash as the adaptive controller's shards.
    pub shards: usize,
    /// Flush threshold: a flusher drains at most this many requests per
    /// pass (its own included).
    pub max_batch: usize,
    /// Bounded-queue capacity per shard; arrivals beyond it block until
    /// the queue drains (backpressure, never rejection).
    pub queue_cap: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            shards: 8,
            max_batch: 16,
            queue_cap: 64,
        }
    }
}

/// What the service has flushed so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Batches executed.
    pub batches: u64,
    /// Remainder requests served through batches.
    pub batched_requests: u64,
    /// Largest batch observed.
    pub max_batch: u64,
}

impl ServiceStats {
    /// Mean requests per flush (1.0 = no coalescing happened).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }
}

/// A parked request's reply slot.
enum SlotState {
    /// Not served yet.
    Empty,
    Served(Response),
    /// The flusher that drained this request died before serving it; the
    /// waiter must fail loudly rather than re-flush an empty queue forever.
    Orphaned,
}

/// One queued remainder waiting for a flusher.
struct Pending {
    rq: RemainderQuery,
    /// `Some(client_epoch)` for a versioned remainder (§7), `None` plain.
    epoch: Option<u64>,
    /// Form mode resolved at call time (direct-dispatch semantics); the
    /// flusher must not re-read adaptive state, which may have moved.
    mode: FormMode,
    /// Epoch snapshot pinned at call time: the flusher must not re-pin,
    /// or an `apply_updates` swap mid-batch would split the batch across
    /// epochs.
    snap: Arc<Snapshot>,
    slot: Arc<Mutex<SlotState>>,
}

impl Drop for Pending {
    fn drop(&mut self) {
        // A `Pending` dropped before its slot was served means its flusher
        // unwound mid-batch (the normal paths serve first, then drop).
        // Mark the slot so the waiter fails loudly; the `FlushReset` guard
        // dropping after us clears `flushing` and wakes the shard.
        let mut s = lock_recover(&self.slot);
        if matches!(*s, SlotState::Empty) {
            *s = SlotState::Orphaned;
        }
    }
}

impl Pending {
    /// Resolves this request against its pinned snapshot — the one pure
    /// computation a flusher performs per batch entry.
    fn execute(&self) -> Response {
        self.snap.answer_remainder(&self.rq, self.mode, self.epoch)
    }
}

#[derive(Default)]
struct ShardQueue {
    pending: VecDeque<Pending>,
    flushing: bool,
}

struct Shard {
    queue: Mutex<ShardQueue>,
    /// Signals both "a flush delivered replies" and "queue space freed".
    wake: Condvar,
}

/// Clears `flushing` and wakes the shard when dropped — on *every* exit
/// from a flush, including a panic unwinding out of `Pending::execute`.
/// Without it a dying flusher leaves `flushing` set forever and every
/// later caller parks on the condvar with no one left to wake it (the
/// PR 8 hung-fleet failure family).
struct FlushReset<'a> {
    shard: &'a Shard,
}

impl Drop for FlushReset<'_> {
    fn drop(&mut self) {
        let mut q = lock_recover(&self.shard.queue);
        q.flushing = false;
        drop(q);
        self.shard.wake.notify_all();
    }
}

/// The batched remainder front-end. Implements [`ServerHandle`], so a
/// fleet runs against it exactly as it runs against a bare `&Server`.
///
/// Generic over *how it holds the server*: `S = &Server` borrows (the
/// in-process fleet), `S = Arc<Server>` owns a share (the wire server's
/// connection threads, which need a `'static` handle). Either way the
/// batching semantics are identical.
pub struct BatchedService<S: Borrow<Server> + Send + Sync> {
    server: S,
    cfg: BatchConfig,
    shards: Vec<Shard>,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    max_batch_seen: AtomicU64,
}

impl<S: Borrow<Server> + Send + Sync> BatchedService<S> {
    pub fn new(server: S, cfg: BatchConfig) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.max_batch > 0, "flush threshold must be positive");
        assert!(
            cfg.queue_cap >= cfg.max_batch,
            "queue must hold at least one full batch"
        );
        BatchedService {
            server,
            cfg,
            shards: (0..cfg.shards)
                .map(|_| Shard {
                    queue: Mutex::new(ShardQueue::default()),
                    wake: Condvar::new(),
                })
                .collect(),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            max_batch_seen: AtomicU64::new(0),
        }
    }

    /// With the default knobs.
    pub fn over(server: S) -> Self {
        BatchedService::new(server, BatchConfig::default())
    }

    /// The server this service fronts.
    pub fn server(&self) -> &Server {
        self.server.borrow()
    }

    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    pub fn stats(&self) -> ServiceStats {
        // ordering: Relaxed — monotone stats counters; a snapshot is a
        // report (exact-total tests read it after joins order the totals).
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServiceStats {
            batches: ld(&self.batches),
            batched_requests: ld(&self.batched_requests),
            max_batch: ld(&self.max_batch_seen),
        }
    }

    fn shard(&self, client: ClientId) -> &Shard {
        let i = (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(i % self.shards.len() as u64) as usize]
    }

    fn note_batch(&self, len: usize) {
        // ordering: Relaxed — monotone stats counters (see `stats`); the
        // max is a fetch_max, so concurrent flushers cannot lose it.
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(len as u64, Ordering::Relaxed);
        // ordering: Relaxed — monotone max, same contract as above.
        self.max_batch_seen.fetch_max(len as u64, Ordering::Relaxed);
    }

    fn batched_remainder(
        &self,
        client: ClientId,
        rq: RemainderQuery,
        epoch: Option<u64>,
    ) -> Response {
        let shard = self.shard(client);
        let server = self.server.borrow();
        let snap = server.core().pin();
        if epoch.is_some() {
            // Versioned contact: record the epoch this client will sync to
            // (the reply carries the pinned snapshot's epoch), keeping the
            // fleet low-water mark — and thus log pruning — honest even
            // though the flusher never touches the adaptive table.
            server.note_client_epoch(client, snap.epoch());
        }
        let pending = Pending {
            rq,
            epoch,
            mode: server.remainder_mode(client),
            snap,
            slot: Arc::new(Mutex::new(SlotState::Empty)),
        };
        let mut q = lock_recover(&shard.queue);
        while q.pending.len() >= self.cfg.queue_cap {
            q = wait_recover(&shard.wake, q);
        }
        if q.pending.is_empty() && !q.flushing {
            // Uncontended fast path: nothing queued to coalesce with, so
            // execute inline as a batch of one, skipping the slot and
            // queue churn. Claiming the flusher role (rather than just
            // running) is what makes coalescing work at all: arrivals
            // during this execution see `flushing` and enqueue, and
            // whichever wakes unserved flushes them as one batch.
            q.flushing = true;
            drop(q);
            // Cleared + notified however `execute` exits, panic included.
            let _reset = FlushReset { shard };
            self.note_batch(1);
            return pending.execute();
        }
        let slot = Arc::clone(&pending.slot);
        q.pending.push_back(pending);
        loop {
            {
                let mut s = lock_recover(&slot);
                match std::mem::replace(&mut *s, SlotState::Empty) {
                    SlotState::Served(reply) => return reply,
                    SlotState::Orphaned => {
                        drop(s);
                        // pc-check: allow(no-unwrap, "deliberate loud propagation: the flusher that drained this request panicked before serving it, and silently retrying would re-run a request the server may have half-observed")
                        panic!("batched service: flusher died before serving this request");
                    }
                    SlotState::Empty => {}
                }
            }
            if q.flushing {
                q = wait_recover(&shard.wake, q);
                continue;
            }
            // Become the flusher and drain up to max_batch in FIFO order.
            // Our own request may or may not make this batch (more than
            // max_batch entries can sit ahead of it after a long flush);
            // either way the loop re-checks the slot and re-flushes until
            // it is served, so replies only ever travel through slots.
            q.flushing = true;
            // Declared before `batch` so that, if `execute` panics, the
            // unwind drops the remaining `Pending`s first (orphaning their
            // slots) and only then clears `flushing` and wakes the shard —
            // waiters observe a consistent picture either way.
            let reset = FlushReset { shard };
            let n = q.pending.len().min(self.cfg.max_batch);
            let batch: Vec<Pending> = q.pending.drain(..n).collect();
            drop(q);
            // Freed queue space: unblock anyone parked on the cap.
            shard.wake.notify_all();

            self.note_batch(batch.len());

            // Execute the whole batch lock-free, each request against the
            // snapshot it pinned at call time.
            for p in batch {
                let reply = p.execute();
                *lock_recover(&p.slot) = SlotState::Served(reply);
            }

            drop(reset);
            q = lock_recover(&shard.queue);
        }
    }
}

impl<S: Borrow<Server> + Send + Sync> Transport for BatchedService<S> {
    fn call(&self, client: ClientId, req: Request) -> Response {
        match req {
            Request::Remainder(rq) => self.batched_remainder(client, rq, None),
            Request::RemainderVersioned { query, epoch } => {
                self.batched_remainder(client, query, Some(epoch))
            }
            other => dispatch(self.server.borrow(), client, other),
        }
    }
}

impl<S: Borrow<Server> + Send + Sync> ServerHandle for BatchedService<S> {
    fn core(&self) -> &ServerCore {
        self.server.borrow().core()
    }

    fn apply_updates(&self, updates: &[crate::updates::Update]) -> u64 {
        self.server.borrow().apply_updates(updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{FormPolicy, ServerConfig};
    use crate::test_util::{cold_remainder, sample_server};
    use pc_geom::{Point, Rect};
    use pc_rtree::proto::QuerySpec;

    #[test]
    fn service_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BatchedService<&'static Server>>();
        assert_send_sync::<BatchedService<std::sync::Arc<Server>>>();
    }

    #[test]
    fn single_caller_batches_of_one_match_direct_dispatch() {
        let server = sample_server(300, 1, FormPolicy::Adaptive);
        let service = BatchedService::over(&server);
        for i in 0..8u32 {
            let w = Rect::centered_square(Point::new(0.3 + 0.05 * i as f64, 0.5), 0.25);
            let rq = cold_remainder(&server, QuerySpec::Range { window: w });
            let batched = service
                .call(i, Request::Remainder(rq.clone()))
                .into_remainder();
            let direct = server.process_remainder(i, &rq);
            assert_eq!(batched, direct);
        }
        let stats = service.stats();
        assert_eq!(stats.batches, 8);
        assert_eq!(stats.batched_requests, 8);
        assert_eq!(stats.max_batch, 1, "no concurrency, no coalescing");
    }

    #[test]
    fn concurrent_callers_get_direct_answers_and_coalesce() {
        // All clients on one shard so coalescing has a chance to happen;
        // every reply must still equal the direct dispatch answer.
        let server = sample_server(400, 2, FormPolicy::Adaptive);
        let service = BatchedService::new(
            &server,
            BatchConfig {
                shards: 1,
                max_batch: 8,
                queue_cap: 64,
            },
        );
        let rounds = 16u32;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8u32)
                .map(|client| {
                    let service = &service;
                    let server = &server;
                    scope.spawn(move || {
                        for r in 0..rounds {
                            let w = Rect::centered_square(
                                Point::new(
                                    0.1 + 0.1 * client as f64 % 0.8,
                                    0.1 + 0.05 * r as f64 % 0.8,
                                ),
                                0.2,
                            );
                            let rq = cold_remainder(server, QuerySpec::Range { window: w });
                            let got = service
                                .call(client, Request::Remainder(rq.clone()))
                                .into_remainder();
                            let want = server.process_remainder(client, &rq);
                            assert_eq!(got, want, "client {client} round {r}");
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let stats = service.stats();
        assert_eq!(stats.batched_requests, 8 * rounds as u64);
        assert!(stats.batches > 0);
        assert!(stats.max_batch <= 8, "flush threshold respected");
    }

    #[test]
    fn batched_remainders_survive_concurrent_epoch_swaps() {
        // Remainder queries race `apply_updates`: each queued request pins
        // the snapshot it was enqueued against, so a flush that runs after
        // a swap resumes against the coherent world its heap references —
        // never a tree the new epoch may have restructured mid-batch.
        use crate::updates::Update;
        use pc_geom::Point;

        let server = sample_server(400, 7, FormPolicy::Adaptive);
        let service = BatchedService::new(
            &server,
            BatchConfig {
                shards: 1, // all clients coalesce, maximizing mid-batch swaps
                max_batch: 8,
                queue_cap: 64,
            },
        );
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..6u32)
                .map(|client| {
                    let service = &service;
                    let server = &server;
                    scope.spawn(move || {
                        for r in 0..24 {
                            let w = Rect::centered_square(
                                Point::new(0.2 + 0.1 * client as f64 % 0.6, 0.5),
                                0.2,
                            );
                            let rq = cold_remainder(server, QuerySpec::Range { window: w });
                            let reply = service
                                .call(client, Request::Remainder(rq))
                                .into_remainder();
                            assert!(
                                !reply.index.is_empty(),
                                "client {client} round {r}: Ir must accompany Rr"
                            );
                        }
                    })
                })
                .collect();
            for i in 0..40u32 {
                server.apply_updates(&[Update::Move {
                    id: pc_rtree::ObjectId(i % 400),
                    to: pc_geom::Rect::from_point(Point::new(0.1 + 0.02 * (i % 40) as f64, 0.9)),
                }]);
            }
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(server.core().epoch(), 40);
    }

    #[test]
    fn control_traffic_passes_through() {
        let server = sample_server(100, 3, FormPolicy::Adaptive);
        let service = BatchedService::over(&server);
        assert_eq!(
            service
                .call(5, Request::ReportFmr { fmr: 0.4 })
                .into_new_d(),
            ServerConfig::default().initial_d
        );
        assert_eq!(server.tracked_clients(), 1);
        assert!(service.call(5, Request::Forget).into_forgotten());
        assert_eq!(server.tracked_clients(), 0);
        let d = service
            .call(
                5,
                Request::Direct(QuerySpec::Knn {
                    center: Point::new(0.5, 0.5),
                    k: 3,
                }),
            )
            .into_direct();
        assert_eq!(d.results.len(), 3);
        assert_eq!(service.stats().batches, 0, "none of that was batched");
    }
}
