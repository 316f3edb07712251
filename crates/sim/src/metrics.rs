//! Per-query records, aggregate summaries, and the 500-query time series
//! the §6.4 figures plot. Summaries carry their raw accumulators
//! ([`SummaryTotals`]) so results from independent client sessions merge
//! exactly — the fleet driver folds per-client [`SimResult`]s into one.

use pc_rtree::proto::QuerySpec;

/// Query type tag for per-kind breakdowns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum QueryKind {
    #[default]
    Range,
    Knn,
    Join,
}

impl QueryKind {
    pub fn of(spec: &QuerySpec) -> Self {
        match spec {
            QuerySpec::Range { .. } => QueryKind::Range,
            QuerySpec::Knn { .. } => QueryKind::Knn,
            QuerySpec::Join { .. } => QueryKind::Join,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::Range => "range",
            QueryKind::Knn => "knn",
            QueryKind::Join => "join",
        }
    }
}

/// Everything measured for one query.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryRecord {
    pub kind: QueryKind,
    pub uplink_bytes: u64,
    pub downlink_bytes: u64,
    pub saved_bytes: u64,
    pub confirmed_bytes: u64,
    pub transmitted_bytes: u64,
    pub result_bytes: u64,
    /// Payload bytes of results that were cached at issue time (`R ∩ C`).
    pub cached_result_bytes: u64,
    pub avg_response_s: f64,
    pub completion_s: f64,
    pub result_count: u32,
    /// Result objects cached at issue time.
    pub cached_results: u32,
    /// Of those, not served locally (the numerator of fmr).
    pub false_misses: u32,
    pub contacted: bool,
    /// Extra round trips caused by stale refusals (§7 invalidation
    /// protocol; 0 unless the run uses versioned remainders under churn).
    pub stale_retries: u32,
    /// Full-refresh refusals (the client fell below the server's pruned
    /// invalidation horizon and dropped its whole cache).
    pub full_refreshes: u32,
    /// Downlink bytes of invalidation lists + epoch stamps piggybacked on
    /// versioned replies (already included in `downlink_bytes`).
    pub invalidation_bytes: u64,
    pub client_cpu_s: f64,
    pub server_cpu_s: f64,
    pub client_expansions: u64,
}

/// The raw sums a [`Summary`] is derived from. Kept alongside the derived
/// rates so two summaries combine exactly: integer sums add losslessly and
/// ratios are re-derived from the combined sums, never averaged.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SummaryTotals {
    pub uplink_bytes: u64,
    pub downlink_bytes: u64,
    pub result_bytes: u64,
    pub saved_bytes: u64,
    pub cached_result_bytes: u64,
    pub cached_results: u64,
    pub false_misses: u64,
    pub contacts: u64,
    pub stale_retries: u64,
    pub full_refreshes: u64,
    pub invalidation_bytes: u64,
    pub client_expansions: u64,
    /// Sum of per-query §4.1 response times over queries with results.
    pub response_s: f64,
    /// Number of queries with results (the response average's denominator).
    pub response_queries: u64,
    pub client_cpu_s: f64,
    pub server_cpu_s: f64,
}

impl SummaryTotals {
    fn push(&mut self, r: &QueryRecord) {
        self.uplink_bytes += r.uplink_bytes;
        self.downlink_bytes += r.downlink_bytes;
        self.result_bytes += r.result_bytes;
        self.saved_bytes += r.saved_bytes;
        self.cached_result_bytes += r.cached_result_bytes;
        self.cached_results += r.cached_results as u64;
        self.false_misses += r.false_misses as u64;
        self.contacts += r.contacted as u64;
        self.stale_retries += r.stale_retries as u64;
        self.full_refreshes += r.full_refreshes as u64;
        self.invalidation_bytes += r.invalidation_bytes;
        self.client_expansions += r.client_expansions;
        if r.result_bytes > 0 {
            self.response_s += r.avg_response_s;
            self.response_queries += 1;
        }
        self.client_cpu_s += r.client_cpu_s;
        self.server_cpu_s += r.server_cpu_s;
    }

    /// Field-wise sum (commutative: `a.combine(&b) == b.combine(&a)`).
    pub fn combine(&self, other: &SummaryTotals) -> SummaryTotals {
        SummaryTotals {
            uplink_bytes: self.uplink_bytes + other.uplink_bytes,
            downlink_bytes: self.downlink_bytes + other.downlink_bytes,
            result_bytes: self.result_bytes + other.result_bytes,
            saved_bytes: self.saved_bytes + other.saved_bytes,
            cached_result_bytes: self.cached_result_bytes + other.cached_result_bytes,
            cached_results: self.cached_results + other.cached_results,
            false_misses: self.false_misses + other.false_misses,
            contacts: self.contacts + other.contacts,
            stale_retries: self.stale_retries + other.stale_retries,
            full_refreshes: self.full_refreshes + other.full_refreshes,
            invalidation_bytes: self.invalidation_bytes + other.invalidation_bytes,
            client_expansions: self.client_expansions + other.client_expansions,
            response_s: self.response_s + other.response_s,
            response_queries: self.response_queries + other.response_queries,
            client_cpu_s: self.client_cpu_s + other.client_cpu_s,
            server_cpu_s: self.server_cpu_s + other.server_cpu_s,
        }
    }
}

/// Aggregates over a whole run (or a window).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub queries: usize,
    pub avg_uplink_bytes: f64,
    pub avg_downlink_bytes: f64,
    /// Mean of the per-query §4.1 response time, over queries with results.
    pub avg_response_s: f64,
    /// Cache hit rate `hit_c = Σ|Rs| / Σ|R|` (bytes).
    pub hit_c: f64,
    /// Byte hit rate `hit_b = Σ|R∩C| / Σ|R|` (bytes).
    pub hit_b: f64,
    /// False-miss rate `P(o ∉ Rs | o ∈ R∩C)` (objects).
    pub fmr: f64,
    pub avg_client_cpu_ms: f64,
    pub avg_server_cpu_ms: f64,
    /// Fraction of queries that contacted the server.
    pub contact_rate: f64,
    /// Stale refusals per server contact (§7 invalidation under churn).
    pub stale_retry_rate: f64,
    pub avg_client_expansions: f64,
    /// The raw sums this summary derives from (basis for exact merging).
    pub totals: SummaryTotals,
}

impl Summary {
    /// Summarizes a batch of records from scratch.
    pub fn from_records(records: &[QueryRecord]) -> Summary {
        let mut totals = SummaryTotals::default();
        for r in records {
            totals.push(r);
        }
        Summary::from_totals(records.len(), totals)
    }

    /// Derives the averages and rates from raw sums.
    pub fn from_totals(queries: usize, totals: SummaryTotals) -> Summary {
        if queries == 0 {
            return Summary::default();
        }
        let nf = queries as f64;
        Summary {
            queries,
            avg_uplink_bytes: totals.uplink_bytes as f64 / nf,
            avg_downlink_bytes: totals.downlink_bytes as f64 / nf,
            avg_response_s: if totals.response_queries > 0 {
                totals.response_s / totals.response_queries as f64
            } else {
                0.0
            },
            hit_c: ratio(totals.saved_bytes, totals.result_bytes),
            hit_b: ratio(totals.cached_result_bytes, totals.result_bytes),
            fmr: ratio(totals.false_misses, totals.cached_results),
            avg_client_cpu_ms: totals.client_cpu_s * 1e3 / nf,
            avg_server_cpu_ms: totals.server_cpu_s * 1e3 / nf,
            contact_rate: totals.contacts as f64 / nf,
            stale_retry_rate: ratio(totals.stale_retries, totals.contacts),
            avg_client_expansions: totals.client_expansions as f64 / nf,
            totals,
        }
    }

    /// Combines two summaries as if their underlying runs were one: sums
    /// add, rates re-derive. Commutative, and exact for every field backed
    /// by integer accumulators.
    pub fn merge(&self, other: &Summary) -> Summary {
        Summary::from_totals(
            self.queries + other.queries,
            self.totals.combine(&other.totals),
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One point of the Fig. 11 time series (aggregated over `window` queries).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowPoint {
    /// Index of the last query in the window (1-based).
    pub query_end: usize,
    pub fmr: f64,
    /// Index bytes / cache capacity at window end (Fig. 11(b)'s `i/c`).
    pub index_to_cache: f64,
    pub avg_response_s: f64,
    pub hit_c: f64,
}

/// Full simulation output — one client's stream, or (after
/// [`SimResult::merge`]) the concatenation of several clients' streams.
#[derive(Clone, Debug, Default)]
pub struct SimResult {
    pub records: Vec<QueryRecord>,
    pub summary: Summary,
    pub windows: Vec<WindowPoint>,
    /// Simulated seconds this client's stream spanned (think times plus
    /// reply completions). Merging takes the max: fleet clients run in
    /// parallel in simulated time.
    pub sim_elapsed_s: f64,
    window_size: usize,
    window_start: usize,
    last_index_bytes: u64,
    last_capacity: u64,
}

impl SimResult {
    pub(crate) fn new(window_size: usize) -> Self {
        SimResult {
            window_size: window_size.max(1),
            ..Default::default()
        }
    }

    pub(crate) fn push(&mut self, record: QueryRecord, index_bytes: u64, capacity: u64) {
        self.records.push(record);
        self.last_index_bytes = index_bytes;
        self.last_capacity = capacity;
        if self.records.len() - self.window_start == self.window_size {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        let slice = &self.records[self.window_start..];
        let s = Summary::from_records(slice);
        self.windows.push(WindowPoint {
            query_end: self.records.len(),
            fmr: s.fmr,
            index_to_cache: ratio(self.last_index_bytes, self.last_capacity),
            avg_response_s: s.avg_response_s,
            hit_c: s.hit_c,
        });
        self.window_start = self.records.len();
    }

    pub(crate) fn finish(&mut self) {
        if self.records.len() > self.window_start {
            self.close_window();
        }
        self.summary = Summary::from_records(&self.records);
    }

    /// Folds another (finished) result into this one: records concatenate,
    /// window points keep their per-stream shape with `query_end` offset
    /// into the concatenation, summaries combine exactly via their totals,
    /// and the simulated span takes the max (parallel streams).
    pub fn merge(&mut self, other: &SimResult) {
        let offset = self.records.len();
        self.records.extend_from_slice(&other.records);
        self.windows.extend(other.windows.iter().map(|w| {
            let mut w = *w;
            w.query_end += offset;
            w
        }));
        self.summary = self.summary.merge(&other.summary);
        self.sim_elapsed_s = self.sim_elapsed_s.max(other.sim_elapsed_s);
        self.window_start = self.records.len();
    }

    /// Per-kind summaries (range / knn / join).
    pub fn by_kind(&self, kind: QueryKind) -> Summary {
        let filtered: Vec<QueryRecord> = self
            .records
            .iter()
            .copied()
            .filter(|r| r.kind == kind)
            .collect();
        Summary::from_records(&filtered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(saved: u64, cached: u64, total: u64, fm: u32, cobj: u32) -> QueryRecord {
        QueryRecord {
            kind: QueryKind::Range,
            saved_bytes: saved,
            cached_result_bytes: cached,
            result_bytes: total,
            false_misses: fm,
            cached_results: cobj,
            avg_response_s: 1.0,
            uplink_bytes: 100,
            downlink_bytes: 200,
            contacted: true,
            ..Default::default()
        }
    }

    #[test]
    fn summary_rates() {
        let mut r = SimResult::new(10);
        r.push(rec(500, 800, 1000, 1, 4), 0, 1);
        r.push(rec(0, 0, 1000, 0, 0), 0, 1);
        r.finish();
        let s = r.summary;
        assert_eq!(s.queries, 2);
        assert!((s.hit_c - 0.25).abs() < 1e-12);
        assert!((s.hit_b - 0.4).abs() < 1e-12);
        assert!((s.fmr - 0.25).abs() < 1e-12);
        assert!((s.avg_uplink_bytes - 100.0).abs() < 1e-12);
        assert!((s.avg_downlink_bytes - 200.0).abs() < 1e-12);
    }

    #[test]
    fn empty_result_summary_is_zero() {
        let mut r = SimResult::new(5);
        r.finish();
        assert_eq!(r.summary.queries, 0);
        assert_eq!(r.summary.hit_c, 0.0);
        assert!(r.windows.is_empty());
    }

    #[test]
    fn windows_close_on_boundary_and_at_end() {
        let mut r = SimResult::new(2);
        for _ in 0..5 {
            r.push(rec(0, 0, 100, 0, 0), 50, 100);
        }
        r.finish();
        assert_eq!(r.windows.len(), 3, "2+2+1 queries");
        assert_eq!(r.windows[0].query_end, 2);
        assert_eq!(r.windows[2].query_end, 5);
        assert!((r.windows[0].index_to_cache - 0.5).abs() < 1e-12);
    }

    #[test]
    fn response_average_skips_empty_results() {
        let mut r = SimResult::new(10);
        let mut empty = rec(0, 0, 0, 0, 0);
        empty.avg_response_s = 99.0; // must be ignored
        r.push(rec(0, 0, 100, 0, 0), 0, 1);
        r.push(empty, 0, 1);
        r.finish();
        assert!((r.summary.avg_response_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn by_kind_filters() {
        let mut r = SimResult::new(10);
        r.push(rec(0, 0, 100, 0, 0), 0, 1);
        let mut k = rec(0, 0, 100, 0, 0);
        k.kind = QueryKind::Join;
        r.push(k, 0, 1);
        r.finish();
        assert_eq!(r.by_kind(QueryKind::Range).queries, 1);
        assert_eq!(r.by_kind(QueryKind::Join).queries, 1);
        assert_eq!(r.by_kind(QueryKind::Knn).queries, 0);
    }

    #[test]
    fn summary_merge_equals_one_big_run() {
        let recs_a = [rec(500, 800, 1000, 1, 4), rec(0, 0, 1000, 0, 0)];
        let recs_b = [rec(100, 100, 400, 2, 3)];
        let all: Vec<QueryRecord> = recs_a.iter().chain(&recs_b).copied().collect();
        let merged = Summary::from_records(&recs_a).merge(&Summary::from_records(&recs_b));
        assert_eq!(merged, Summary::from_records(&all));
    }

    #[test]
    fn result_merge_concatenates_and_offsets_windows() {
        let mut a = SimResult::new(2);
        for _ in 0..4 {
            a.push(rec(0, 0, 100, 0, 0), 50, 100);
        }
        a.finish();
        a.sim_elapsed_s = 10.0;
        let mut b = SimResult::new(2);
        for _ in 0..3 {
            b.push(rec(500, 800, 1000, 1, 4), 10, 100);
        }
        b.finish();
        b.sim_elapsed_s = 25.0;

        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.records.len(), 7);
        assert_eq!(m.summary.queries, 7);
        assert_eq!(m.windows.len(), a.windows.len() + b.windows.len());
        // b's first window (query_end 2) lands after a's 4 records.
        assert_eq!(m.windows[a.windows.len()].query_end, 6);
        assert!((m.sim_elapsed_s - 25.0).abs() < 1e-12, "max of spans");
        // Merged summary equals the summary over all records.
        assert_eq!(m.summary, Summary::from_records(&m.records));
    }
}
