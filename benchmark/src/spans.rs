//! Spans of the traced run: one per call into a layer, recorded from the
//! benchmark's side of the library boundary. A query's spans share its id
//! and form a tree through `parent`; a layer's self time is its span minus
//! the part of that interval its children cover.

use std::time::Instant;

/// The layer boundaries the traced driver records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// One whole closed-loop step (root of a query's tree).
    Query,
    /// Think time, mobility, `next_query`.
    Gen,
    RunLocal,
    /// `Transport::call`, seen from the client.
    Call,
    /// The same call seen under the transport, by the probe.
    Dispatch,
    Absorb,
    Assemble,
    /// `Ledger::response` over the modelled channel.
    NetResponse,
    /// One `apply_updates` batch, on the writer thread.
    Publish,
}

impl Layer {
    pub const COUNT: usize = 9;

    pub fn name(self) -> &'static str {
        match self {
            Layer::Query => "query",
            Layer::Gen => "gen",
            Layer::RunLocal => "client.run_local",
            Layer::Call => "transport.call",
            Layer::Dispatch => "server.dispatch",
            Layer::Absorb => "client.absorb",
            Layer::Assemble => "client.assemble",
            Layer::NetResponse => "net.response",
            Layer::Publish => "updates.publish",
        }
    }
}

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    /// Index of the parent within the same query's spans, or [`NO_PARENT`].
    pub parent: u32,
    pub query: u32,
    /// Nanoseconds since the run's clock origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of the query in flight on one client thread. Reused from
/// query to query, so the traced loop allocates nothing for it in steady
/// state.
pub struct QuerySpans {
    origin: Instant,
    query: u32,
    spans: Vec<Span>,
}

impl QuerySpans {
    pub fn new(origin: Instant) -> QuerySpans {
        QuerySpans {
            origin,
            query: 0,
            spans: Vec::with_capacity(16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next query: forgets the previous one's spans.
    pub fn begin(&mut self, query: u32) {
        self.query = query;
        self.spans.clear();
    }

    /// Opens a span now; close it with the returned index.
    pub fn open(&mut self, layer: Layer, parent: u32) -> u32 {
        let now = self.now_ns();
        self.push(layer, parent, now, now)
    }

    pub fn close(&mut self, index: u32) {
        let now = self.now_ns();
        self.spans[index as usize].end_ns = now;
    }

    /// Adds a span timed elsewhere against the same origin (the probe's
    /// dispatch, recorded on a server thread).
    pub fn push(&mut self, layer: Layer, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        self.spans.push(Span {
            layer,
            parent,
            query: self.query,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Children are clipped to the parent and
/// overlapping siblings are not counted twice. Siblings must appear in
/// start order, which holds for spans opened one after another on a thread.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    let mut covered_until: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = s.parent as usize;
        let lo = s.start_ns.max(covered_until[p]);
        let hi = s.end_ns.min(spans[p].end_ns);
        if hi > lo {
            own[p] -= hi - lo;
            covered_until[p] = hi;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            query: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span(Layer::Query, NO_PARENT, 100, 200),
            span(Layer::Gen, 0, 100, 110),
            span(Layer::RunLocal, 0, 110, 150),
            span(Layer::Call, 0, 150, 190),
            span(Layer::Dispatch, 3, 160, 185),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 40, 15, 25]);
        // Self times of a tree add up to its root span.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn children_are_clipped_and_overlaps_counted_once() {
        let spans = [
            span(Layer::Call, NO_PARENT, 100, 200),
            // Starts before the parent (clock read on another thread).
            span(Layer::Dispatch, 0, 90, 150),
            // Overlaps its sibling and outlives the parent.
            span(Layer::Dispatch, 0, 140, 230),
        ];
        assert_eq!(self_times(&spans)[0], 0);
        let disjoint = [
            span(Layer::Call, NO_PARENT, 100, 200),
            span(Layer::Dispatch, 0, 120, 130),
            span(Layer::Dispatch, 0, 170, 180),
        ];
        assert_eq!(self_times(&disjoint)[0], 80);
    }

    #[test]
    fn query_spans_record_a_tree_and_reset() {
        let mut q = QuerySpans::new(Instant::now());
        q.begin(7);
        let root = q.open(Layer::Query, NO_PARENT);
        let child = q.open(Layer::Gen, root);
        q.close(child);
        q.close(root);
        let spans = q.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].query), (root, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        q.begin(8);
        assert!(q.spans().is_empty());
    }
}
