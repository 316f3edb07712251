//! Poison-tolerant lock acquisition for serving threads.
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
//! helpers; the `pc-check` lint (`no-unwrap`) keeps it that way.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

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
