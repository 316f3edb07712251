//! RCU-style snapshot publication: the primitive behind the server's
//! lock-free-for-readers update story.
//!
//! A [`SnapshotCell`] owns the *current* immutable snapshot behind an
//! `Arc`. Readers [`pin`](SnapshotCell::pin) it — a refcount bump under a
//! briefly-held read lock — and then work off their pinned `Arc` with no
//! further synchronization, for as long as they like. A writer builds the
//! *next* snapshot entirely off to the side and [`publish`](SnapshotCell::publish)es
//! it with a single pointer-sized swap under the write lock; readers that
//! pinned the old snapshot keep it alive (and keep reading a consistent
//! world) until their pins drop, at which point the old snapshot frees
//! itself through the normal `Arc` refcount.
//!
//! This is a registry-free stand-in for `arc_swap::ArcSwap`: without a
//! deferred-reclamation scheme (hazard pointers, epoch GC) a raw atomic
//! pointer swap cannot safely drop the old value while readers may still
//! hold it, so the pin takes a nanosecond-scale shared lock instead of a
//! bare atomic load. The properties that matter upstream are preserved:
//! readers never block while *using* a snapshot, a swap never blocks on
//! readers, and no reader can ever observe a half-updated world.

use crate::sync_util::{read_recover, write_recover};
use std::sync::{Arc, RwLock};

/// A published immutable snapshot, swappable in one atomic step.
pub struct SnapshotCell<T> {
    current: RwLock<Arc<T>>,
}

impl<T> SnapshotCell<T> {
    pub fn new(value: T) -> Self {
        SnapshotCell {
            current: RwLock::new(Arc::new(value)),
        }
    }

    /// Pins the current snapshot: the returned `Arc` stays valid (and
    /// internally consistent) across any number of concurrent publishes.
    pub fn pin(&self) -> Arc<T> {
        read_recover(&self.current).clone()
    }

    /// Publishes `next` as the new current snapshot. Readers pinned to the
    /// old snapshot are unaffected; new pins see `next`. Callers that
    /// derive `next` from the current snapshot must serialize themselves
    /// (see `ServerCore::advance`) — the cell itself only guarantees
    /// the swap is atomic.
    pub fn publish(&self, next: T) {
        let next = Arc::new(next);
        let old = {
            let mut guard = write_recover(&self.current);
            std::mem::replace(&mut *guard, next)
        };
        // When no reader still pins it, the old snapshot drops here —
        // outside the lock, so a teardown never stalls pins — and its
        // private copies return to the writer's spares: everything the
        // next epoch still references survives behind its inner `Arc`s,
        // and every copy the next epoch replaced was retired into the
        // spares that build it, which now hold those copies alone.
        drop(old);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SnapshotCell").field(&*self.pin()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn pin_survives_publish() {
        let cell = SnapshotCell::new(vec![1, 2, 3]);
        let old = cell.pin();
        cell.publish(vec![9]);
        assert_eq!(*old, vec![1, 2, 3], "pinned snapshot is immutable");
        assert_eq!(*cell.pin(), vec![9], "new pins see the published value");
        drop(old); // old snapshot frees here, not at publish time
    }

    #[test]
    fn concurrent_pins_always_see_whole_values() {
        // Publish (a, a) pairs while readers assert both halves match — a
        // torn or half-published snapshot would break the invariant.
        let cell = SnapshotCell::new((0u64, 0u64));
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "ordering: Acquire pairs with the Release store after the last publish, so a reader that sees `stop` also sees publish 499 — pinning the final-value assert"
                    )]
                    let stopped = || stop.load(Ordering::Acquire);
                    while !stopped() {
                        let snap = cell.pin();
                        assert_eq!(snap.0, snap.1, "snapshot observed mid-update");
                    }
                });
            }
            for i in 1..500u64 {
                cell.publish((i, i));
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "ordering: Release publishes \"all 499 publishes happened\" to the Acquire loads in the reader loops above"
            )]
            stop.store(true, Ordering::Release);
        });
        assert_eq!(*cell.pin(), (499, 499));
    }
}
