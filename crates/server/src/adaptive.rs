//! The adaptive scheme of §4.3: each client periodically reports its recent
//! false-miss rate; the server raises the d⁺-level when the fmr rose by
//! more than the sensitivity `s`, lowers it when it fell by more than `s`,
//! and leaves it alone otherwise.
//!
//! The per-client table is sharded behind mutexes so every entry point
//! takes `&self`: a server handling a fleet of clients reports and reads
//! adaptive state concurrently, and clients with different ids land on
//! different shards most of the time (a multiplicative hash picks the
//! shard). State growth is bounded: each shard evicts its
//! least-recently-reporting client once its slice of the capacity
//! (`MAX_TRACKED_CLIENTS`) is exceeded, so a long-lived server under
//! churning client ids keeps a fixed-size table. The cap is enforced per
//! shard (rounded up), so the global count can overshoot it by at most
//! `SHARDS - 1`.

use crate::sync_util::lock_recover;
use std::collections::HashMap;
use std::sync::Mutex;

/// Upper clamp for d (a BPT of a 4 KB page is ~11 deep).
pub(crate) const MAX_D: u8 = 16;
/// Default cap on tracked per-client states.
const MAX_TRACKED_CLIENTS: usize = 1 << 16;

/// Number of independently locked shards (power of two).
const SHARDS: usize = 16;
/// log2(SHARDS), used to take the hash's top bits as the shard index.
const SHARD_BITS: u32 = SHARDS.trailing_zeros();

/// Maps a client id to its shard: a Fibonacci multiplicative hash, so
/// densely-assigned ids *and* ids striding by a power of two (an upstream
/// allocator handing out every 16th id, say) both spread across shards
/// instead of piling the whole fleet onto one lock and its slice of the
/// eviction budget.
fn shard_index(client: u32) -> usize {
    ((client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SHARD_BITS)) as usize
}

/// Per-client adaptive state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveState {
    pub d: u8,
    pub last_fmr: Option<f64>,
    /// The epoch this client last synced to over the §7 versioned
    /// protocol (`None` for clients that only spoke the plain protocol).
    /// The minimum over all tracked clients is the fleet's **low-water
    /// mark**: update-log history at or below it serves nobody and can be
    /// pruned at the next epoch publish.
    pub last_epoch: Option<u64>,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    state: AdaptiveState,
    /// Shard-local logical clock of the last report (eviction order).
    last_report: u64,
}

#[derive(Debug, Default)]
struct Shard {
    states: HashMap<u32, Entry>,
    clock: u64,
}

/// The server-side controller (one instance per server, states per client).
#[derive(Debug)]
pub struct AdaptiveController {
    /// Sensitivity `s` (Table 6.1 default: 20 %).
    sensitivity: f64,
    initial_d: u8,
    /// Total client-state capacity across all shards.
    max_clients: usize,
    shards: [Mutex<Shard>; SHARDS],
}

impl Clone for AdaptiveController {
    fn clone(&self) -> Self {
        let shards = std::array::from_fn(|i| {
            let shard = lock_recover(&self.shards[i]);
            Mutex::new(Shard {
                states: shard.states.clone(),
                clock: shard.clock,
            })
        });
        AdaptiveController {
            sensitivity: self.sensitivity,
            initial_d: self.initial_d,
            max_clients: self.max_clients,
            shards,
        }
    }
}

impl AdaptiveController {
    /// A table tracking up to `MAX_TRACKED_CLIENTS` (65 536) clients, each
    /// starting at `initial_d`; d is clamped to `0..=16`.
    pub fn new(sensitivity: f64, initial_d: u8) -> Self {
        assert!(sensitivity >= 0.0);
        AdaptiveController {
            sensitivity,
            initial_d,
            max_clients: MAX_TRACKED_CLIENTS,
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
        }
    }

    /// Re-caps the number of tracked clients; the least-recently-reporting
    /// client of a full shard is evicted back to the initial d. The cap is
    /// approximate: it is enforced per shard (`⌈max/SHARDS⌉` each), so the
    /// global count may exceed it by up to `SHARDS - 1`, and caps below
    /// the shard count (16) are raised to one client per shard.
    pub fn with_max_clients(mut self, max_clients: usize) -> Self {
        self.max_clients = max_clients.max(SHARDS);
        self
    }

    fn shard(&self, client: u32) -> &Mutex<Shard> {
        &self.shards[shard_index(client)]
    }

    fn per_shard_cap(&self) -> usize {
        self.max_clients.div_ceil(SHARDS)
    }

    /// Current d⁺-level for a client.
    pub fn d(&self, client: u32) -> u8 {
        lock_recover(self.shard(client))
            .states
            .get(&client)
            .map(|e| e.state.d)
            .unwrap_or(self.initial_d)
    }

    pub fn state(&self, client: u32) -> AdaptiveState {
        lock_recover(self.shard(client))
            .states
            .get(&client)
            .map(|e| e.state)
            .unwrap_or(AdaptiveState {
                d: self.initial_d,
                last_fmr: None,
                last_epoch: None,
            })
    }

    /// Number of clients with recorded state.
    pub fn tracked_clients(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_recover(s).states.len())
            .sum()
    }

    /// Drops a client's state (it restarts from the initial d); returns
    /// whether anything was tracked. Lets a server forget disconnected
    /// clients instead of carrying their state forever.
    pub fn forget_client(&self, client: u32) -> bool {
        lock_recover(self.shard(client))
            .states
            .remove(&client)
            .is_some()
    }

    /// Evicts the stalest entry of `shard` when inserting `client` would
    /// exceed the per-shard capacity (shared by every tracked-state write).
    fn make_room(&self, shard: &mut Shard, client: u32) {
        let cap = self.per_shard_cap();
        if !shard.states.contains_key(&client) && shard.states.len() >= cap {
            // Evict the stalest reporter to stay within capacity.
            if let Some(&stale) = shard
                .states
                .iter()
                .min_by_key(|(_, e)| e.last_report)
                .map(|(c, _)| c)
            {
                shard.states.remove(&stale);
            }
        }
    }

    /// Records the epoch `client` will be synced to once the versioned
    /// contact currently being answered completes (every versioned reply —
    /// fresh, stale or full-refresh — carries the answering snapshot's
    /// epoch, and the client adopts it). Feeds
    /// [`epoch_low_water`](Self::epoch_low_water).
    pub fn note_epoch(&self, client: u32, epoch: u64) {
        let mut shard = lock_recover(self.shard(client));
        shard.clock += 1;
        let clock = shard.clock;
        self.make_room(&mut shard, client);
        let entry = shard.states.entry(client).or_insert(Entry {
            state: AdaptiveState {
                d: self.initial_d,
                last_fmr: None,
                last_epoch: None,
            },
            last_report: clock,
        });
        // A client's contacts are serial, but callers sharing one id may
        // note out of order — keep the max so the mark never runs backwards.
        entry.state.last_epoch = Some(entry.state.last_epoch.unwrap_or(0).max(epoch));
        entry.last_report = clock;
    }

    /// The fleet **low-water mark**: the minimum last-synced epoch over
    /// every tracked versioned client, i.e. the oldest epoch any live
    /// client could still stamp its next contact with. `None` when no
    /// tracked client has spoken the versioned protocol — then there is
    /// nobody to bound pruning for (the history cap alone applies).
    pub fn epoch_low_water(&self) -> Option<u64> {
        self.shards
            .iter()
            .flat_map(|s| {
                lock_recover(s)
                    .states
                    .values()
                    .filter_map(|e| e.state.last_epoch)
                    .min()
            })
            .min()
    }

    /// Processes one periodic fmr report; returns the (possibly updated) d.
    ///
    /// §4.3: "If the value is higher than the last recorded fmr by s
    /// percent, … the value of d for this client is increased by 1. On the
    /// contrary, if it is lower than last fmr by s percent, d is decreased
    /// by 1. Otherwise, d remains its last value."
    pub fn report(&self, client: u32, fmr: f64) -> u8 {
        let mut shard = lock_recover(self.shard(client));
        shard.clock += 1;
        let clock = shard.clock;
        self.make_room(&mut shard, client);
        let entry = shard.states.entry(client).or_insert(Entry {
            state: AdaptiveState {
                d: self.initial_d,
                last_fmr: None,
                last_epoch: None,
            },
            last_report: clock,
        });
        if let Some(last) = entry.state.last_fmr {
            if fmr > last * (1.0 + self.sensitivity) {
                entry.state.d = entry.state.d.saturating_add(1).min(MAX_D);
            } else if fmr < last * (1.0 - self.sensitivity) {
                entry.state.d = entry.state.d.saturating_sub(1);
            }
        }
        entry.state.last_fmr = Some(fmr);
        entry.last_report = clock;
        entry.state.d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn controller() -> AdaptiveController {
        AdaptiveController::new(0.2, 2)
    }

    #[test]
    fn first_report_only_records_baseline() {
        let c = controller();
        assert_eq!(c.report(1, 0.5), 2, "no change without a baseline");
        assert_eq!(c.state(1).last_fmr, Some(0.5));
    }

    #[test]
    fn rising_fmr_raises_d() {
        let c = controller();
        c.report(1, 0.10);
        assert_eq!(c.report(1, 0.13), 3, "30% rise > s=20%");
    }

    #[test]
    fn falling_fmr_lowers_d() {
        let c = controller();
        c.report(1, 0.10);
        assert_eq!(c.report(1, 0.05), 1, "50% drop > s=20%");
    }

    #[test]
    fn small_changes_keep_d() {
        let c = controller();
        c.report(1, 0.10);
        assert_eq!(c.report(1, 0.11), 2, "10% rise within the band");
        assert_eq!(c.report(1, 0.095), 2);
    }

    #[test]
    fn d_is_clamped_at_bounds() {
        let c = AdaptiveController::new(0.2, 0);
        let fmr = |step: i32| 2f64.powi(step);
        c.report(1, fmr(0));
        // Doubling, well beyond the band: d climbs to the clamp and stays …
        for step in 1..=i32::from(MAX_D) + 1 {
            assert_eq!(c.report(1, fmr(step)), step.min(MAX_D.into()) as u8);
        }
        // … and halving drops it to the floor, where it stays too.
        for step in (-1..=i32::from(MAX_D)).rev() {
            assert_eq!(c.report(1, fmr(step)), (step - 1).max(0) as u8);
        }
    }

    #[test]
    fn clients_are_independent() {
        let c = controller();
        c.report(1, 0.1);
        c.report(1, 0.2); // client 1 → d=3
        assert_eq!(c.d(1), 3);
        assert_eq!(c.d(2), 2, "fresh client keeps the initial d");
    }

    #[test]
    fn zero_baseline_still_reacts_to_any_rise() {
        let c = controller();
        c.report(1, 0.0);
        assert_eq!(c.report(1, 0.01), 3, "anything above 0·(1+s) rises");
    }

    #[test]
    fn forget_client_resets_to_initial_d() {
        let c = controller();
        c.report(7, 0.1);
        c.report(7, 0.2);
        assert_eq!(c.d(7), 3);
        assert!(c.forget_client(7));
        assert_eq!(c.d(7), 2, "forgotten client restarts at initial d");
        assert_eq!(c.state(7).last_fmr, None);
        assert!(!c.forget_client(7), "second forget is a no-op");
        assert_eq!(c.tracked_clients(), 0);
    }

    #[test]
    fn epoch_low_water_is_the_fleet_minimum() {
        let c = controller();
        assert_eq!(c.epoch_low_water(), None, "no versioned clients yet");
        c.report(1, 0.1);
        assert_eq!(
            c.epoch_low_water(),
            None,
            "plain-protocol clients never pin the mark"
        );
        c.note_epoch(2, 7);
        c.note_epoch(3, 4);
        c.note_epoch(4, 9);
        assert_eq!(c.epoch_low_water(), Some(4));
        // The straggler catches up: the mark rises.
        c.note_epoch(3, 8);
        assert_eq!(c.epoch_low_water(), Some(7));
        // The mark never runs backwards for one client.
        c.note_epoch(3, 2);
        assert_eq!(c.state(3).last_epoch, Some(8));
        // A disconnect releases its pin.
        assert!(c.forget_client(2));
        assert_eq!(c.epoch_low_water(), Some(8));
    }

    #[test]
    fn note_epoch_respects_capacity_and_eviction() {
        let cap = SHARDS;
        let c = controller().with_max_clients(cap);
        for client in 0..1000u32 {
            c.note_epoch(client, client as u64);
            assert!(c.tracked_clients() <= cap);
        }
        // Evicted stragglers no longer hold the low-water mark down.
        assert!(c.epoch_low_water().unwrap() > 0);
    }

    #[test]
    fn note_epoch_keeps_adaptive_d() {
        let c = controller();
        c.report(5, 0.1);
        c.report(5, 0.2); // d -> 3
        c.note_epoch(5, 11);
        assert_eq!(c.d(5), 3, "epoch notes must not reset the d trajectory");
        assert_eq!(c.state(5).last_epoch, Some(11));
        assert_eq!(c.state(5).last_fmr, Some(0.2));
    }

    #[test]
    fn churning_client_ids_stay_within_capacity() {
        let cap = 2 * SHARDS;
        let c = controller().with_max_clients(cap);
        for client in 0..10_000u32 {
            c.report(client, 0.1);
            assert!(
                c.tracked_clients() <= cap,
                "tracked {} exceeds cap {cap} at client {client}",
                c.tracked_clients()
            );
        }
        assert_eq!(c.tracked_clients(), cap, "table is full, not empty");
    }

    #[test]
    fn eviction_prefers_the_stalest_reporter() {
        // Two ids hashing to the same shard, capacity one per shard: the
        // newcomer evicts the stalest reporter.
        let c = controller().with_max_clients(SHARDS);
        let a = 1u32;
        let b = (2..).find(|&x| shard_index(x) == shard_index(a)).unwrap();
        c.report(a, 0.1);
        c.report(a, 0.2); // a → d=3
        c.report(b, 0.1); // evicts a
        assert_eq!(c.d(a), 2, "evicted client lost its raised d");
        assert_eq!(c.state(b).last_fmr, Some(0.1), "newcomer is tracked");
    }

    #[test]
    fn power_of_two_striding_ids_spread_across_shards() {
        // An upstream allocator striding by 16 must not pile every client
        // onto one shard (the failure mode of sharding by low bits).
        let hit: std::collections::HashSet<usize> =
            (0..64u32).map(|i| shard_index(i * 16)).collect();
        assert!(hit.len() > SHARDS / 2, "only {} shards used", hit.len());
    }

    #[test]
    fn concurrent_reports_from_many_threads_keep_per_client_state() {
        let c = Arc::new(controller());
        let handles: Vec<_> = (0..8u32)
            .map(|client| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    // Doubling fmr sequence (every rise > 20%): d climbs
                    // from 2 to the clamp.
                    for step in 0..20 {
                        c.report(client, 1e-3 * (1u64 << step) as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for client in 0..8u32 {
            assert_eq!(c.d(client), MAX_D, "client {client}");
            assert!((c.state(client).last_fmr.unwrap() - 524.288).abs() < 1e-9);
        }
        assert_eq!(c.tracked_clients(), 8);
    }
}
