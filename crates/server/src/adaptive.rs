//! The adaptive scheme of §4.3: each client periodically reports its recent
//! false-miss rate; the server raises the d⁺-level when the fmr rose by
//! more than the sensitivity `s`, lowers it when it fell by more than `s`,
//! and leaves it alone otherwise.
//!
//! The per-client table is one map behind one mutex, so every entry point
//! takes `&self` and a server answering a fleet of clients reports and
//! reads adaptive state concurrently; the lock covers one map lookup (and,
//! once the table is full, a newcomer's scan for the stalest entry).
//! State growth is bounded: once `MAX_TRACKED_CLIENTS` clients are
//! tracked, a newcomer evicts the least-recently-reporting one, so a
//! long-lived server under churning client ids keeps a fixed-size table.

use crate::sync_util::lock_recover;
use std::collections::HashMap;
use std::sync::Mutex;

/// Upper clamp for d (a BPT of a 4 KB page is ~11 deep).
pub(crate) const MAX_D: u8 = 16;
/// The d⁺-level every client starts at (and restarts at once forgotten).
pub(crate) const INITIAL_D: u8 = 1;
// A start above the clamp would make a client's first rising report move d
// down to it.
const _: () = assert!(INITIAL_D <= MAX_D);
/// Default cap on tracked per-client states.
const MAX_TRACKED_CLIENTS: usize = 1 << 16;

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
    /// Logical clock of the last report (eviction order).
    last_report: u64,
}

#[derive(Debug, Default)]
struct Table {
    states: HashMap<u32, Entry>,
    clock: u64,
}

/// The server-side controller (one instance per server, states per client).
#[derive(Debug)]
pub struct AdaptiveController {
    /// Sensitivity `s` (Table 6.1 default: 20 %).
    sensitivity: f64,
    /// Where new clients start: [`INITIAL_D`] outside the unit tests.
    initial_d: u8,
    /// Client-state capacity.
    max_clients: usize,
    table: Mutex<Table>,
}

impl AdaptiveController {
    /// A table tracking up to `MAX_TRACKED_CLIENTS` (65 536) clients, each
    /// starting at d = 1; d is clamped to `0..=16`.
    pub fn new(sensitivity: f64) -> Self {
        assert!(sensitivity >= 0.0);
        AdaptiveController {
            sensitivity,
            initial_d: INITIAL_D,
            max_clients: MAX_TRACKED_CLIENTS,
            table: Mutex::new(Table::default()),
        }
    }

    /// Re-caps the number of tracked clients (at least one).
    #[cfg(test)]
    fn with_max_clients(mut self, max_clients: usize) -> Self {
        self.max_clients = max_clients.max(1);
        self
    }

    /// Starts new clients at `d` instead of [`INITIAL_D`].
    #[cfg(test)]
    fn with_initial_d(mut self, d: u8) -> Self {
        self.initial_d = d;
        self
    }

    fn initial_state(&self) -> AdaptiveState {
        AdaptiveState {
            d: self.initial_d,
            last_fmr: None,
            last_epoch: None,
        }
    }

    /// Current d⁺-level for a client.
    pub fn d(&self, client: u32) -> u8 {
        self.state(client).d
    }

    pub fn state(&self, client: u32) -> AdaptiveState {
        lock_recover(&self.table)
            .states
            .get(&client)
            .map_or_else(|| self.initial_state(), |e| e.state)
    }

    /// Number of clients with recorded state.
    pub fn tracked_clients(&self) -> usize {
        lock_recover(&self.table).states.len()
    }

    /// Drops a client's state (it restarts from the initial d); returns
    /// whether anything was tracked. Lets a server forget disconnected
    /// clients instead of carrying their state forever.
    pub fn forget_client(&self, client: u32) -> bool {
        lock_recover(&self.table).states.remove(&client).is_some()
    }

    /// Ticks the clock and applies `update` to `client`'s entry, first
    /// evicting the stalest reporter if a newcomer would exceed the cap
    /// (shared by every tracked-state write).
    fn write<R>(&self, client: u32, update: impl FnOnce(&mut AdaptiveState) -> R) -> R {
        let mut table = lock_recover(&self.table);
        table.clock += 1;
        let clock = table.clock;
        if !table.states.contains_key(&client) && table.states.len() >= self.max_clients {
            let stalest = table.states.iter().min_by_key(|(_, e)| e.last_report);
            if let Some(stale) = stalest.map(|(&c, _)| c) {
                table.states.remove(&stale);
            }
        }
        let entry = table.states.entry(client).or_insert(Entry {
            state: self.initial_state(),
            last_report: clock,
        });
        entry.last_report = clock;
        update(&mut entry.state)
    }

    /// Records the epoch `client` will be synced to once the versioned
    /// contact currently being answered completes (every versioned reply —
    /// fresh, stale or full-refresh — carries the answering snapshot's
    /// epoch, and the client adopts it). Feeds
    /// [`epoch_low_water`](Self::epoch_low_water).
    pub fn note_epoch(&self, client: u32, epoch: u64) {
        // A client's contacts are serial, but callers sharing one id may
        // note out of order — keep the max so the mark never runs backwards.
        self.write(client, |state| {
            state.last_epoch = Some(state.last_epoch.unwrap_or(0).max(epoch));
        });
    }

    /// The fleet **low-water mark**: the minimum last-synced epoch over
    /// every tracked versioned client, i.e. the oldest epoch any live
    /// client could still stamp its next contact with. `None` when no
    /// tracked client has spoken the versioned protocol — then there is
    /// nobody to bound pruning for (the history cap alone applies).
    pub fn epoch_low_water(&self) -> Option<u64> {
        lock_recover(&self.table)
            .states
            .values()
            .filter_map(|e| e.state.last_epoch)
            .min()
    }

    /// Processes one periodic fmr report; returns the (possibly updated) d.
    ///
    /// §4.3: "If the value is higher than the last recorded fmr by s
    /// percent, … the value of d for this client is increased by 1. On the
    /// contrary, if it is lower than last fmr by s percent, d is decreased
    /// by 1. Otherwise, d remains its last value."
    pub fn report(&self, client: u32, fmr: f64) -> u8 {
        self.write(client, |state| {
            if let Some(last) = state.last_fmr {
                if fmr > last * (1.0 + self.sensitivity) {
                    state.d = state.d.saturating_add(1).min(MAX_D);
                } else if fmr < last * (1.0 - self.sensitivity) {
                    state.d = state.d.saturating_sub(1);
                }
            }
            state.last_fmr = Some(fmr);
            state.d
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn controller() -> AdaptiveController {
        AdaptiveController::new(0.2).with_initial_d(2)
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
        let c = AdaptiveController::new(0.2).with_initial_d(0);
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
        let cap = 16;
        let c = controller().with_max_clients(cap);
        for client in 0..1000u32 {
            c.note_epoch(client, client as u64);
            assert_eq!(c.tracked_clients(), (client as usize + 1).min(cap));
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
        let cap = 32;
        let c = controller().with_max_clients(cap);
        for client in 0..10_000u32 {
            c.report(client, 0.1);
            assert_eq!(
                c.tracked_clients(),
                (client as usize + 1).min(cap),
                "at client {client}"
            );
        }
    }

    #[test]
    fn eviction_prefers_the_stalest_reporter() {
        // Capacity two: a newcomer evicts whichever of the two tracked
        // clients reported least recently, not the first one tracked.
        let c = controller().with_max_clients(2);
        let (a, b, newcomer) = (1u32, 2u32, 3u32);
        c.report(a, 0.1);
        c.report(b, 0.1);
        c.report(b, 0.2); // b → d=3
        c.report(a, 0.2); // a → d=3, and b is now the stalest
        c.report(newcomer, 0.1); // evicts b
        assert_eq!(c.d(b), 2, "evicted client lost its raised d");
        assert_eq!(c.d(a), 3, "the fresher reporter keeps its state");
        assert_eq!(c.state(newcomer).last_fmr, Some(0.1), "newcomer is tracked");
        assert_eq!(c.tracked_clients(), 2);
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
