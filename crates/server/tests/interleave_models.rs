//! Interleaving model checks of the server's concurrency protocols, run
//! under the vendored `interleave` explorer (a miniature loom): every
//! schedule within the preemption bound is executed, with vector-clock
//! race detection on the protected state.
//!
//! Two protocols are modeled, faithfully mirroring the production control
//! flow (not the production types — the models substitute `RaceCell`
//! payloads so the detector can see unsynchronized access):
//!
//! 1. **`SnapshotCell` publish/pin/drop** (`src/epoch.rs`): an
//!    `RwLock<Arc<Snap>>` where writers build the next snapshot off to
//!    the side and swap under the write lock, and readers pin (clone the
//!    `Arc` under the read lock) and then use the pin lock-free.
//! 2. **Cluster epoch publish/pin** (`src/cluster.rs`): one such cell per
//!    shard plus one for the cluster; a batch publishes its shard cells
//!    and then one cluster value holding the shard pins and the epoch
//!    vector read off them. Readers pin the cluster cell only.
//!
//! Each sound model is paired with a seeded mutant the checker must
//! *catch* — a model checker that cannot flag a planted bug proves
//! nothing when it passes.

use interleave::cell::RaceCell;
use interleave::sync::RwLock;
use interleave::{thread, Builder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn explorer() -> Builder {
    Builder {
        // Almost all schedule-dependent bugs need at most two forced
        // preemptions (the CHESS observation); the bound keeps 4–5-thread
        // models exhaustible in seconds.
        preemption_bound: Some(2),
        max_schedules: 500_000,
        max_threads: 8,
        max_steps: 200_000,
    }
}

// ---------------------------------------------------------------------
// Model 1: SnapshotCell publish/pin/drop
// ---------------------------------------------------------------------

/// Model snapshot: a two-field world that must never be observed torn,
/// plus a drop counter so the test can prove retired snapshots free
/// exactly once (and never while a pin still holds them — a double free
/// or use-after-free would corrupt the count or crash the run).
struct Snap {
    a: RaceCell<u64>,
    b: RaceCell<u64>,
    drops: Arc<AtomicUsize>,
}

impl Snap {
    fn new(drops: &Arc<AtomicUsize>) -> Self {
        Snap {
            a: RaceCell::new(0),
            b: RaceCell::new(0),
            drops: drops.clone(),
        }
    }
}

impl Drop for Snap {
    fn drop(&mut self) {
        // ordering: SeqCst — model-test drop counter read only after every
        // thread joins; strongest-for-free beats justifying anything weaker.
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

/// The epoch.rs protocol in model form: pin is a clone under the read
/// lock; publish builds off to the side, swaps under the write lock and
/// drops the old snapshot outside it.
struct ModelCell<T> {
    current: RwLock<Arc<T>>,
}

impl<T> ModelCell<T> {
    fn new(value: T) -> Arc<Self> {
        Arc::new(ModelCell {
            current: RwLock::new(Arc::new(value)),
        })
    }

    fn pin(&self) -> Arc<T> {
        self.current.read().clone()
    }

    fn publish(&self, next: Arc<T>) {
        let old = {
            let mut g = self.current.write();
            std::mem::replace(&mut *g, next)
        };
        drop(old);
    }
}

#[test]
fn snapshot_cell_publish_pin_drop_is_sound() {
    let report = explorer()
        .check(|| {
            let drops = Arc::new(AtomicUsize::new(0));
            let cell = ModelCell::new(Snap::new(&drops));

            // Two writers, each publishing one snapshot built off to the
            // side (writers that *derive* from the current snapshot must
            // serialize themselves — see ServerCore's writer mutex — so
            // independent publishes are the cell-level contract).
            let writers: Vec<_> = (1..=2u64)
                .map(|v| {
                    let cell = cell.clone();
                    let drops = drops.clone();
                    thread::spawn(move || {
                        let next = Arc::new(Snap::new(&drops));
                        next.a.set(v);
                        next.b.set(v);
                        cell.publish(next);
                    })
                })
                .collect();

            // Two readers, each pinning once and using the pin lock-free.
            // The halves must always agree, and the race detector must
            // find a happens-before edge from whoever built the snapshot.
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let cell = cell.clone();
                    thread::spawn(move || {
                        let pin = cell.pin();
                        let (x, y) = (pin.a.get(), pin.b.get());
                        assert_eq!(x, y, "pinned snapshot observed torn");
                    })
                })
                .collect();

            for h in writers.into_iter().chain(readers) {
                h.join().unwrap();
            }

            // Drop-exactly-once: 3 snapshots existed (initial + 2
            // published); with all pins gone and the cell itself dropped,
            // every one of them must have freed exactly once.
            drop(cell);
            // ordering: SeqCst pairs with the fetch_add in Snap::drop; all
            // droppers were joined above, so any ordering would do.
            assert_eq!(
                drops.load(Ordering::SeqCst),
                3,
                "retired snapshots must drop exactly once"
            );
        })
        .expect("SnapshotCell protocol must survive every schedule");
    assert!(
        report.complete,
        "exploration truncated at {} schedules — raise the cap",
        report.schedules
    );
    assert!(
        report.schedules > 100,
        "4-thread model explores a real space"
    );
}

#[test]
fn snapshot_mutant_in_place_publish_is_caught() {
    // Seeded mutant: a "writer" that mutates the *current* snapshot in
    // place through a pin instead of building a new one and swapping.
    // Readers use their pins lock-free, so this is a data race on the
    // payload — the detector must flag it.
    let err = explorer()
        .check(|| {
            let drops = Arc::new(AtomicUsize::new(0));
            let cell = ModelCell::new(Snap::new(&drops));
            let w = {
                let cell = cell.clone();
                thread::spawn(move || {
                    let pin = cell.pin();
                    pin.a.set(7); // mutating shared state outside any lock
                    pin.b.set(7);
                })
            };
            let pin = cell.pin();
            let _ = pin.a.get();
            let _ = w.join();
        })
        .expect_err("in-place publish is a race and must be caught");
    assert!(err.message.contains("data race"), "{}", err.message);
}

// ---------------------------------------------------------------------
// Model 2: cluster epoch publish/pin
// ---------------------------------------------------------------------

/// Model cluster epoch: the shard pins and the epoch vector read off them,
/// published as one value. A shard's epoch is its `Snap`'s payload.
struct ClusterSnap {
    pins: [Arc<Snap>; 2],
    vector: [RaceCell<u64>; 2],
    drops: Arc<AtomicUsize>,
}

impl ClusterSnap {
    /// `ClusterSnapshot::assemble`: pin every shard cell, stamp the value
    /// with what those pins say.
    fn assemble(shards: &[Arc<ModelCell<Snap>>; 2], drops: &Arc<AtomicUsize>) -> Self {
        let pins = [shards[0].pin(), shards[1].pin()];
        let vector = [
            RaceCell::new(pins[0].a.get()),
            RaceCell::new(pins[1].a.get()),
        ];
        ClusterSnap {
            pins,
            vector,
            drops: drops.clone(),
        }
    }
}

impl Drop for ClusterSnap {
    fn drop(&mut self) {
        // ordering: SeqCst — drop counter read only after every thread
        // joins (see `Snap::drop`).
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

struct ModelCluster {
    shards: [Arc<ModelCell<Snap>>; 2],
    snap: Arc<ModelCell<ClusterSnap>>,
    shard_drops: Arc<AtomicUsize>,
    cluster_drops: Arc<AtomicUsize>,
}

impl ModelCluster {
    fn new() -> Arc<Self> {
        let shard_drops = Arc::new(AtomicUsize::new(0));
        let cluster_drops = Arc::new(AtomicUsize::new(0));
        let shards = [
            ModelCell::new(Snap::new(&shard_drops)),
            ModelCell::new(Snap::new(&shard_drops)),
        ];
        let snap = ModelCell::new(ClusterSnap::assemble(&shards, &cluster_drops));
        Arc::new(ModelCluster {
            shards,
            snap,
            shard_drops,
            cluster_drops,
        })
    }

    /// `ServerCore::publish_partition`: the shard's next epoch, built off
    /// to the side and swapped in.
    fn publish_shard(&self, s: usize, epoch: u64) {
        let next = Arc::new(Snap::new(&self.shard_drops));
        next.a.set(epoch);
        next.b.set(epoch);
        self.shards[s].publish(next);
    }

    /// `Cluster::apply_updates` for a batch touching both shards: the
    /// shard cells first, the cluster value last.
    fn apply_batch(&self, epoch: u64) {
        self.publish_shard(0, epoch);
        self.publish_shard(1, epoch);
        let next = ClusterSnap::assemble(&self.shards, &self.cluster_drops);
        self.snap.publish(Arc::new(next));
    }
}

#[test]
fn cluster_epoch_pins_never_disagree_with_their_vector() {
    let report = explorer()
        .check(|| {
            let cluster = ModelCluster::new();
            let writer = {
                let cluster = cluster.clone();
                thread::spawn(move || cluster.apply_batch(1))
            };
            // Two readers, each pinning the cluster cell once and reading
            // everything off the pin: the vector and the pins it describes
            // were put into the value together, so they must agree — and
            // the race detector must find a happens-before edge from the
            // threads that built the shard snapshots.
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let cluster = cluster.clone();
                    thread::spawn(move || {
                        let pin = cluster.snap.pin();
                        for s in 0..2 {
                            let (a, b) = (pin.pins[s].a.get(), pin.pins[s].b.get());
                            assert_eq!(a, b, "pinned shard snapshot observed torn");
                            assert_eq!(
                                pin.vector[s].get(),
                                a,
                                "epoch vector disagrees with its pins"
                            );
                        }
                    })
                })
                .collect();
            for h in std::iter::once(writer).chain(readers) {
                h.join().unwrap();
            }

            // A retired shard snapshot lives until the retired cluster
            // value drops — and then, like it, frees exactly once: 4 shard
            // snapshots and 2 cluster values existed.
            let (shard_drops, cluster_drops) =
                (cluster.shard_drops.clone(), cluster.cluster_drops.clone());
            drop(cluster);
            // ordering: SeqCst pairs with the fetch_adds in the Drop impls;
            // all droppers were joined above, so any ordering would do.
            let dropped = [&shard_drops, &cluster_drops].map(|d| d.load(Ordering::SeqCst));
            assert_eq!(dropped, [4, 2], "retired values must drop exactly once");
        })
        .expect("cluster epoch protocol must survive every schedule");
    assert!(
        report.complete,
        "exploration truncated at {} schedules — raise the cap",
        report.schedules
    );
    assert!(
        report.schedules > 100,
        "4-thread model explores a real space"
    );
}

#[test]
fn cluster_mutant_self_assembled_pin_set_is_caught() {
    // Seeded mutant: `pin_all` minus its check — a reader that takes the
    // epoch vector from the cluster value but assembles its own pin set
    // from the two shard cells, without validating one against the other.
    // A batch published in between gives it pins newer than its vector.
    let err = explorer()
        .check(|| {
            let cluster = ModelCluster::new();
            let writer = {
                let cluster = cluster.clone();
                thread::spawn(move || cluster.apply_batch(1))
            };
            let stamp = cluster.snap.pin();
            for s in 0..2 {
                let pin = cluster.shards[s].pin();
                assert_eq!(
                    stamp.vector[s].get(),
                    pin.a.get(),
                    "epoch vector disagrees with its pins"
                );
            }
            let _ = writer.join();
        })
        .expect_err("an unvalidated pin set can straddle a publish and must be caught");
    assert!(
        err.message.contains("epoch vector disagrees"),
        "{}",
        err.message
    );
}
