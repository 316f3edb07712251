//! Interleaving model checks of the server's concurrency protocols, run
//! under the vendored `interleave` explorer (a miniature loom): every
//! schedule within the preemption bound is executed, with vector-clock
//! race detection on the protected state.
//!
//! One protocol is modeled — a deployment has one cell — faithfully
//! mirroring the production control flow (not the production types — the
//! model substitutes `RaceCell` payloads so the detector can see
//! unsynchronized access):
//!
//! * **`SnapshotCell` publish/pin/drop** (`src/epoch.rs`): an
//!   `RwLock<Arc<Snap>>` where writers build the next snapshot off to
//!   the side and swap under the write lock, and readers pin (clone the
//!   `Arc` under the read lock) and then use the pin lock-free.
//! * **The writer's spares** (`pc_rtree::Spares`, `src/core.rs`): a
//!   publish retires the node it copies, and a later publish overwrites a
//!   retired node in place only once its refcount says nothing — no
//!   snapshot, no reader pin — holds it any more. The model's shadow
//!   `Arc` keeps `std::sync::Arc`'s orderings: clone a `Relaxed` increment,
//!   drop a `Release` decrement, the uniqueness check an `Acquire` load.
//!
//! What a cluster adds on top of the cell is no protocol: the one
//! published value holds its shards and the epoch vector the one writer
//! read off those very values while building it, so the two cannot
//! disagree in any schedule (the real-thread
//! `every_pin_is_one_consistent_epoch_under_concurrent_publishes` checks
//! the built values).
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
// Model 2: the writer's spares (retire, then reuse once unique)
// ---------------------------------------------------------------------

/// A shadow `Arc`: the `std` `Arc` only carries the memory; who may write
/// the value is decided by the model-visible `strong` count, driven with
/// the orderings `std::sync::Arc` uses.
struct Shared<T> {
    inner: Arc<(interleave::sync::atomic::AtomicUsize, T)>,
}

impl<T> Shared<T> {
    fn new(value: T) -> Self {
        Shared {
            inner: Arc::new((interleave::sync::atomic::AtomicUsize::new(1), value)),
        }
    }

    /// `Arc::get_mut`'s test: the value is the caller's alone when the
    /// count is one, loaded with `order` (`Acquire` in `std`).
    fn is_unique(&self, order: Ordering) -> bool {
        self.inner.0.load(order) == 1
    }
}

impl<T> std::ops::Deref for Shared<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner.1
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        // ordering: Relaxed, as `Arc::clone`: a new reference is made from
        // an existing one, which already orders everything it can reach.
        self.inner.0.fetch_add(1, Ordering::Relaxed);
        Shared {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return; // condemned run: do not re-enter the scheduler
        }
        // ordering: Release, as `Arc`'s drop: every use of the value
        // through this reference happens before whoever next sees the
        // count it leaves — the last dropper, or a writer's uniqueness
        // check.
        if self.inner.0.fetch_sub(1, Ordering::Release) == 1 {
            // ordering: Acquire — `Arc`'s fence before the value is freed.
            self.inner.0.load(Ordering::Acquire);
        }
    }
}

/// One R-tree node of the model world: two columns that must never be
/// observed torn.
struct ModelNode {
    a: RaceCell<u64>,
    b: RaceCell<u64>,
}

impl ModelNode {
    fn new(v: u64) -> Self {
        ModelNode {
            a: RaceCell::new(v),
            b: RaceCell::new(v),
        }
    }

    /// A copy-on-write copy into `self`, plus the batch's edit.
    fn copy_from(&self, old: &ModelNode, edit: u64) {
        let _ = (old.a.get(), old.b.get());
        self.a.set(edit);
        self.b.set(edit);
    }
}

/// A published world: one node, by shadow `Arc`.
struct World {
    node: Shared<ModelNode>,
}

/// `SnapshotCell` over shadow `Arc`s, so that a pin's drop is a model
/// operation too.
struct WorldCell {
    current: RwLock<Shared<World>>,
}

impl WorldCell {
    fn pin(&self) -> Shared<World> {
        self.current.read().clone()
    }

    fn publish(&self, next: World) {
        let old = std::mem::replace(&mut *self.current.write(), Shared::new(next));
        drop(old);
    }
}

/// Two publishes by the one writer — the first copies the world's node
/// and retires it, the second copies into the retired node if `unique`
/// says nothing holds it any more — while two readers pin, read the
/// node's columns and drop their pins.
fn spares_model(unique: Ordering) -> Result<interleave::Report, interleave::Violation> {
    explorer().check(move || {
        let cell = Arc::new(WorldCell {
            current: RwLock::new(Shared::new(World {
                node: Shared::new(ModelNode::new(0)),
            })),
        });

        let writer = {
            let cell = cell.clone();
            thread::spawn(move || {
                let mut spares: Vec<Shared<ModelNode>> = Vec::new();
                for edit in 1..=2u64 {
                    let current = cell.pin();
                    let next = match spares.iter().position(|s| s.is_unique(unique)) {
                        Some(i) => spares.swap_remove(i),
                        None => Shared::new(ModelNode::new(0)),
                    };
                    next.copy_from(&current.node, edit);
                    spares.push(current.node.clone());
                    drop(current);
                    cell.publish(World { node: next });
                }
            })
        };

        let readers: Vec<_> = (0..2)
            .map(|_| {
                let cell = cell.clone();
                thread::spawn(move || {
                    let pin = cell.pin();
                    let (a, b) = (pin.node.a.get(), pin.node.b.get());
                    assert_eq!(a, b, "pinned node observed torn");
                })
            })
            .collect();

        for h in std::iter::once(writer).chain(readers) {
            h.join().unwrap();
        }
        let last = cell.pin();
        assert_eq!(last.node.a.get(), 2, "both publishes landed");
    })
}

#[test]
fn spares_reuse_only_unique_nodes_is_sound() {
    // ordering: Acquire, as `Arc::get_mut` — pairs with the Release
    // decrement of the last pin that held the retired node.
    let report = spares_model(Ordering::Acquire)
        .expect("reusing a retired node once it is unique must survive every schedule");
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
fn spares_mutant_relaxed_uniqueness_check_is_caught() {
    // Seeded mutant: the uniqueness check loads the count Relaxed. It
    // reads the same value, but the reader's last use of the node no
    // longer happens before the writer's overwrite — a data race on the
    // retired node's columns.
    // ordering: Relaxed — the planted bug.
    let err = spares_model(Ordering::Relaxed)
        .expect_err("a Relaxed uniqueness check is a race and must be caught");
    assert!(err.message.contains("data race"), "{}", err.message);
}
