//! The wireless channel model (§6.1: "the client has a 384 Kbps wireless
//! channel, which is the standard for a 3G network") and the byte ledger
//! from which every timing metric is derived.
//!
//! The paper defines query response time as *the average response time of
//! each byte of the results* (§4.1) — "a fairer metric … since in practice
//! the user often wants to access the results as early as possible". The
//! [`Ledger`] generalizes Equation (1) to all three caching models:
//!
//! * *saved* bytes answer locally at `t ≈ 0`;
//! * *confirmed* bytes (cached payloads the server validates) answer after
//!   the uplink, the server time and the tiny confirmation records;
//! * *transmitted* bytes stream over the downlink in reply order, each
//!   object answering when it completes;
//! * everything else on the downlink (index shipments, pair lists) costs
//!   bandwidth but answers no result bytes.

/// The wireless link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Channel {
    /// Link rate in bits per second. There is no fixed per-contact
    /// overhead: the paper ignores it — "the fixed transmission overhead is
    /// ignored as it does not affect the analysis".
    pub bandwidth_bps: u64,
}

impl Channel {
    /// Table 6.1 default: 384 Kbps.
    pub fn paper() -> Self {
        Channel {
            bandwidth_bps: 384_000,
        }
    }

    /// Seconds to move `bytes` over the link.
    #[inline]
    pub fn transfer_s(&self, bytes: u64) -> f64 {
        (bytes as f64 * 8.0) / self.bandwidth_bps as f64
    }
}

impl Default for Channel {
    fn default() -> Self {
        Channel::paper()
    }
}

/// Everything one query moved (or avoided moving) over the channel.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    /// Bytes submitted to the server (query descriptor, remainder heap,
    /// id manifests, …). Zero when the query completed locally.
    pub uplink_bytes: u64,
    /// Result payload bytes answered from the cache before any contact.
    pub saved_bytes: u64,
    /// Result payload bytes the client holds and the server confirms
    /// without retransmission.
    pub confirmed_bytes: u64,
    /// Wire cost of those confirmations (ids on the downlink).
    pub confirm_wire_bytes: u64,
    /// Transmitted result objects' payload sizes, in stream order.
    pub transmitted: Vec<u32>,
    /// Per-object header bytes accompanying the transmitted payloads.
    pub transmitted_header_bytes: u64,
    /// Remaining downlink bytes (supporting index, pair lists, …).
    pub extra_downlink_bytes: u64,
    /// Simulated server processing time.
    pub server_time_s: f64,
    /// Whether the server was contacted at all.
    pub contacted_server: bool,
    /// Number of contacts made: separate server contacts of this query
    /// (retry rounds of the §7 versioned protocol, per-fragment fetches of
    /// the SEM baseline).
    pub contacts: u32,
}

/// Timing summary of one query under a given channel.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResponseStats {
    /// The paper's `resp(Q)`: byte-weighted mean response time of the
    /// result bytes; zero when everything was saved.
    pub avg_response_s: f64,
    /// When the last result byte arrived.
    pub completion_s: f64,
    /// Total result payload bytes (`|R|`).
    pub result_bytes: u64,
}

impl Ledger {
    /// Total downlink bytes.
    pub fn downlink_bytes(&self) -> u64 {
        self.confirm_wire_bytes
            + self.transmitted.iter().map(|&b| b as u64).sum::<u64>()
            + self.transmitted_header_bytes
            + self.extra_downlink_bytes
    }

    /// Transmitted payload bytes (`|Rr|` in Equation (1)).
    pub fn transmitted_bytes(&self) -> u64 {
        self.transmitted.iter().map(|&b| b as u64).sum()
    }

    /// Total result payload bytes (`|R|`).
    pub fn result_bytes(&self) -> u64 {
        self.saved_bytes + self.confirmed_bytes + self.transmitted_bytes()
    }

    /// Replays the query's timeline over `channel`.
    pub fn response(&self, channel: &Channel) -> ResponseStats {
        let total = self.result_bytes();
        if total == 0 {
            return ResponseStats::default();
        }
        // Σ bytes · response time.
        let mut weighted = 0.0;
        // Saved bytes answer immediately (wireless dominates CPU, §4.1).
        let mut t = 0.0;
        if self.contacted_server {
            t += channel.transfer_s(self.uplink_bytes);
            t += self.server_time_s;
            // Confirmations arrive first — they are a handful of ids.
            t += channel.transfer_s(self.confirm_wire_bytes);
            weighted += self.confirmed_bytes as f64 * t;
            // Objects stream next; each answers when it completes. Headers
            // are charged proportionally as part of each object's slot.
            let n = self.transmitted.len() as u64;
            let per_obj_header = self.transmitted_header_bytes.checked_div(n).unwrap_or(0);
            for &sz in &self.transmitted {
                t += channel.transfer_s(sz as u64 + per_obj_header);
                weighted += sz as f64 * t;
            }
            // Index shipments and pair lists ride behind the results: they
            // cost bandwidth for *subsequent* queries, not this one.
        }
        ResponseStats {
            avg_response_s: weighted / total as f64,
            completion_s: t,
            result_bytes: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_channel_rate() {
        let ch = Channel::paper();
        assert_eq!(ch.transfer_s(48_000), 1.0, "384 kbit = 48 kB per second");
    }

    #[test]
    fn all_local_query_has_zero_response() {
        let ledger = Ledger {
            saved_bytes: 5000,
            ..Default::default()
        };
        let r = ledger.response(&Channel::paper());
        assert_eq!(r.avg_response_s, 0.0);
        assert_eq!(r.completion_s, 0.0);
        assert_eq!(r.result_bytes, 5000);
    }

    #[test]
    fn empty_result_is_all_zero() {
        let ledger = Ledger::default();
        assert_eq!(ledger.response(&Channel::paper()), ResponseStats::default());
    }

    #[test]
    fn streaming_orders_response_times() {
        // Two objects: the first must answer earlier than the second.
        let ch = Channel {
            bandwidth_bps: 8_000, // 1000 bytes/s for easy math
        };
        let ledger = Ledger {
            uplink_bytes: 100,
            transmitted: vec![1000, 1000],
            contacted_server: true,
            ..Default::default()
        };
        let r = ledger.response(&ch);
        // Uplink: 0.1 s. Object 1 completes at 1.1 s, object 2 at 2.1 s.
        // Byte-weighted average = (1000·1.1 + 1000·2.1) / 2000 = 1.6 s.
        assert!(
            (r.avg_response_s - 1.6).abs() < 1e-9,
            "{}",
            r.avg_response_s
        );
        assert!((r.completion_s - 2.1).abs() < 1e-9);
    }

    #[test]
    fn confirmed_bytes_answer_after_uplink_only() {
        let ch = Channel {
            bandwidth_bps: 8_000,
        };
        let ledger = Ledger {
            uplink_bytes: 500,
            confirmed_bytes: 4000,
            confirm_wire_bytes: 8,
            contacted_server: true,
            ..Default::default()
        };
        let r = ledger.response(&ch);
        let expect = 0.5 + 0.008;
        assert!((r.avg_response_s - expect).abs() < 1e-9);
    }

    #[test]
    fn saved_bytes_drag_the_average_down() {
        let ch = Channel::paper();
        let without_saved = Ledger {
            uplink_bytes: 100,
            transmitted: vec![10_000],
            contacted_server: true,
            ..Default::default()
        };
        let with_saved = Ledger {
            saved_bytes: 10_000,
            ..without_saved.clone()
        };
        let a = without_saved.response(&ch).avg_response_s;
        let b = with_saved.response(&ch).avg_response_s;
        assert!(b < a, "saved bytes must reduce the average ({b} !< {a})");
        assert!((b - a / 2.0).abs() < 1e-9, "half the bytes are free");
    }

    #[test]
    fn index_bytes_do_not_delay_results() {
        let ch = Channel::paper();
        let lean = Ledger {
            uplink_bytes: 100,
            transmitted: vec![5000],
            contacted_server: true,
            ..Default::default()
        };
        let heavy = Ledger {
            extra_downlink_bytes: 100_000,
            ..lean.clone()
        };
        assert_eq!(
            lean.response(&ch).avg_response_s,
            heavy.response(&ch).avg_response_s
        );
        assert!(heavy.downlink_bytes() > lean.downlink_bytes());
    }

    #[test]
    fn downlink_accounting_sums_components() {
        let ledger = Ledger {
            confirm_wire_bytes: 16,
            transmitted: vec![100, 200],
            transmitted_header_bytes: 80,
            extra_downlink_bytes: 500,
            ..Default::default()
        };
        assert_eq!(ledger.downlink_bytes(), 16 + 300 + 80 + 500);
        assert_eq!(ledger.transmitted_bytes(), 300);
    }
}
