//! Fork-join over contiguous index ranges, for the offline builds (per-node
//! BPTs here, per-shard trees in `pc_server`): independent items, results
//! wanted back in index order, and no thread spawned for work too small to
//! repay it.

use std::ops::Range;

/// Index entries a worker must have before another worker is worth its
/// spawn: about 80 full 4 KB nodes, ~10 ms of BPT building against ~0.1 ms
/// to start a thread.
const ENTRIES_PER_WORKER: usize = 8192;

/// How many workers a build over `entries` index entries gets: one per
/// 8 192 entries up to `std::thread::available_parallelism()`, and never
/// fewer than one (the caller itself).
pub fn worker_count(entries: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(entries / ENTRIES_PER_WORKER).max(1)
}

/// Cuts `0..n` into `workers` contiguous ranges (never more than `n`),
/// runs `job` on each — the first on the calling thread, the others on
/// scoped threads — and concatenates what they return in index order, so
/// the result does not depend on `workers`. A worker's panic resumes on
/// the caller.
pub fn map_ranges<T: Send>(
    n: usize,
    workers: usize,
    job: impl Fn(Range<usize>) -> Vec<T> + Sync,
) -> Vec<T> {
    let workers = workers.clamp(1, n.max(1));
    let per = n.div_ceil(workers);
    let range = |w: usize| (w * per).min(n)..((w + 1) * per).min(n);
    let job = &job;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers)
            .map(|w| scope.spawn(move || job(range(w))))
            .collect();
        let mut out = job(range(0));
        for handle in spawned {
            out.extend(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_the_index_space_in_order_for_any_worker_count() {
        for n in [0usize, 1, 5, 64, 1025] {
            for workers in [1usize, 2, 3, 8, 40] {
                let out = map_ranges(n, workers, |r| r.collect());
                assert_eq!(out, (0..n).collect::<Vec<_>>(), "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn small_builds_stay_on_the_calling_thread() {
        assert_eq!(worker_count(0), 1);
        // A 4 000-object test fixture at fan-out 8: ~4 600 entries.
        assert_eq!(worker_count(4_600), 1);
        assert!(worker_count(1 << 30) >= 1);
    }

    #[test]
    #[should_panic(expected = "worker 2 failed")]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        map_ranges(3, 3, |r| {
            assert!(r.start != 2, "worker 2 failed");
            vec![r.start]
        });
    }
}
