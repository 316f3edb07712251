//! Shared-state helpers for serving threads: poison-tolerant lock
//! acquisition, and the one `Counter` every stats mirror is built from.
//!
//! `std`'s lock poisoning turns *one* panicked thread into a panic
//! cascade: every later `lock().unwrap()` on the same lock panics too,
//! stranding whole connection pools (the PR 8 hung-fleet failure family
//! — one dead thread, N wedged ones). That is the wrong default for this
//! server's locks, because every critical
//! section in this crate is *panic-atomic by construction*: it only moves
//! plain data (pointer swaps, counter bumps, map inserts) and performs
//! no fallible calls mid-update, so a panic can
//! interrupt a critical section only at allocation failure — at which
//! point the process is lost anyway. Inheriting the data via
//! [`std::sync::PoisonError::into_inner`] is therefore sound, and it
//! keeps sibling serving threads alive when a peer thread dies for
//! unrelated reasons.
//!
//! Every lock acquisition in `pc_server` library code goes through these
//! helpers; clippy's `unwrap_used` / `expect_used`, denied in `lib.rs`, keep
//! it that way.
//!
//! A `Counter` is the only atomic a stats mirror holds, so the memory
//! ordering of every counter in the crate is stated once, on it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A monotone `u64` tally shared across serving threads.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    pub(crate) fn add(&self, n: u64) {
        // ordering: Relaxed — a counter is a report, not a synchronization
        // point; exact totals are read after the join or `shutdown()` that
        // orders every bump before the read.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> u64 {
        // ordering: Relaxed — as in `add`.
        self.0.load(Ordering::Relaxed)
    }
}

/// Locks `m`, recovering the guard from a poisoned peer panic.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Read-locks `l`, recovering from poison.
pub fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Write-locks `l`, recovering from poison.
pub fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn lock_recover_survives_a_poisoning_panic() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.lock().is_err(), "lock is poisoned");
        assert_eq!(*lock_recover(&m), 7, "data recovered intact");
        *lock_recover(&m) = 9;
        assert_eq!(*lock_recover(&m), 9);
    }

    #[test]
    fn rwlock_recovery_round_trips() {
        let l = Arc::new(std::sync::RwLock::new(1u32));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _guard = l2.write().unwrap();
            panic!("poison the rwlock");
        })
        .join();
        assert_eq!(*read_recover(&l), 1);
        *write_recover(&l) = 2;
        assert_eq!(*read_recover(&l), 2);
    }
}
