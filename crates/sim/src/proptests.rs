//! Property tests for metric merging: folding per-client results must be
//! order-insensitive and agree with having pushed every record into one
//! result — the correctness contract the fleet driver relies on.

use crate::metrics::{QueryKind, QueryRecord, SimResult, Summary};
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = QueryRecord> {
    (
        (0u64..4000, 0u64..6000, 0u64..5000, 0u64..5000),
        (0u32..6, 0u32..6, any::<bool>(), 0u64..10),
        (0.0f64..30.0, 0.0f64..0.01, 0.0f64..0.01),
        0usize..3,
    )
        .prop_map(
            |(
                (uplink, downlink, result_b, saved),
                (cached_n, fm, contacted, expansions),
                (resp, ccpu, scpu),
                kind,
            )| {
                let cached_results = cached_n.max(fm); // fm ≤ cached by construction
                QueryRecord {
                    kind: [QueryKind::Range, QueryKind::Knn, QueryKind::Join][kind],
                    uplink_bytes: uplink,
                    downlink_bytes: downlink,
                    result_bytes: result_b,
                    saved_bytes: saved.min(result_b),
                    cached_result_bytes: saved.min(result_b),
                    avg_response_s: resp,
                    completion_s: resp,
                    cached_results,
                    false_misses: fm,
                    contacted,
                    client_cpu_s: ccpu,
                    server_cpu_s: scpu,
                    client_expansions: expansions,
                    ..Default::default()
                }
            },
        )
}

/// Builds a finished SimResult from records (as a session would).
fn result_of(records: &[QueryRecord], window: usize, elapsed: f64) -> SimResult {
    let mut r = SimResult::new(window);
    for rec in records {
        r.push(*rec, 64, 128);
    }
    r.sim_elapsed_s = elapsed;
    r.finish();
    r
}

fn approx(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

fn summaries_approx_eq(a: &Summary, b: &Summary) -> bool {
    a.queries == b.queries
        && a.totals.uplink_bytes == b.totals.uplink_bytes
        && a.totals.downlink_bytes == b.totals.downlink_bytes
        && a.totals.result_bytes == b.totals.result_bytes
        && a.totals.saved_bytes == b.totals.saved_bytes
        && a.totals.cached_results == b.totals.cached_results
        && a.totals.false_misses == b.totals.false_misses
        && a.totals.contacts == b.totals.contacts
        && a.totals.response_queries == b.totals.response_queries
        && approx(a.avg_response_s, b.avg_response_s)
        && approx(a.hit_c, b.hit_c)
        && approx(a.hit_b, b.hit_b)
        && approx(a.fmr, b.fmr)
        && approx(a.avg_client_cpu_ms, b.avg_client_cpu_ms)
        && approx(a.avg_server_cpu_ms, b.avg_server_cpu_ms)
}

proptest! {
    #[test]
    fn summary_merge_is_commutative(
        ra in prop::collection::vec(arb_record(), 0..40),
        rb in prop::collection::vec(arb_record(), 0..40),
    ) {
        let a = Summary::from_records(&ra);
        let b = Summary::from_records(&rb);
        // Binary IEEE adds commute, so this holds exactly, not approximately.
        prop_assert_eq!(a.merge(&b), b.merge(&a));
    }

    #[test]
    fn summary_merge_matches_one_combined_run(
        ra in prop::collection::vec(arb_record(), 0..40),
        rb in prop::collection::vec(arb_record(), 0..40),
    ) {
        let merged = Summary::from_records(&ra)
            .merge(&Summary::from_records(&rb));
        let all: Vec<QueryRecord> = ra.iter().chain(&rb).copied().collect();
        let combined = Summary::from_records(&all);
        prop_assert!(
            summaries_approx_eq(&merged, &combined),
            "merged {merged:?} vs combined {combined:?}"
        );
    }

    #[test]
    fn result_merge_is_order_insensitive(
        ra in prop::collection::vec(arb_record(), 1..30),
        rb in prop::collection::vec(arb_record(), 1..30),
        ea in 0.0f64..1e4,
        eb in 0.0f64..1e4,
    ) {
        let a = result_of(&ra, 7, ea);
        let b = result_of(&rb, 7, eb);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab.summary, ba.summary);
        prop_assert_eq!(ab.records.len(), ba.records.len());
        prop_assert_eq!(ab.windows.len(), ba.windows.len());
        prop_assert_eq!(ab.sim_elapsed_s, ba.sim_elapsed_s);
    }

    #[test]
    fn result_merge_matches_pushing_all_records(
        ra in prop::collection::vec(arb_record(), 1..30),
        rb in prop::collection::vec(arb_record(), 1..30),
    ) {
        let a = result_of(&ra, 1000, 0.0);
        let b = result_of(&rb, 1000, 0.0);
        let mut merged = a.clone();
        merged.merge(&b);
        let all: Vec<QueryRecord> = ra.iter().chain(&rb).copied().collect();
        let combined = result_of(&all, 1000, 0.0);
        prop_assert_eq!(&merged.records, &combined.records);
        prop_assert!(
            summaries_approx_eq(&merged.summary, &combined.summary),
            "merged {:?} vs combined {:?}", merged.summary, combined.summary
        );
    }
}
