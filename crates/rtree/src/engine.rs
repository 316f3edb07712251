//! The generic spatial query processor of §3.3 (paper Algorithm 1).
//!
//! One best-first loop evaluates range, kNN and distance self-join queries
//! over *any* [`IndexView`]:
//!
//! * the **server** runs it over [`crate::view::FullView`] (authoritative —
//!   nothing is ever missing), both for fresh queries and to *resume*
//!   remainder queries from the shipped heap `H`;
//! * the **proactive client** runs it over its cache view, where expanding
//!   an absent cell yields [`Expansion::Missing`]; missing entries are set
//!   aside (the paper "pushes them back to `H`" and skips them) and, when
//!   the query cannot finish locally, the whole execution state is
//!   serialized into a [`RemainderQuery`].
//!
//! The kNN subtleties of §3.3 are implemented exactly: a popped object is
//! *blocked* (not confirmed) if a missing non-leaf entry with a smaller or
//! equal key is pending; termination uses `m + n = k` where `n` counts
//! blocked and missing leaf entries; and the remainder heap is pruned after
//! the current k-th leaf entry (Example 3.1).

use crate::proto::{pair_key, CellRef, HeapEntry, QuerySpec, RemainderQuery, Side};
use crate::{NodeId, ObjectId};
use pc_geom::Rect;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Result of asking a view to expand a cell. The children are frontier
/// [`Side`]s as the engine queues them — and as a remainder ships them — so
/// a view hands them over in fixed arity and nothing is converted or
/// allocated on the way.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Expansion {
    /// The view holds nothing under this cell: a cache view was never
    /// shipped it; an authoritative view has no such node or code (a
    /// reference from outside the program — the engine drops it).
    Missing,
    /// An empty node (the root of an empty tree): read, nothing under it.
    Empty,
    /// A full entry: the pointed-to node's root cell, or the object.
    Entry(Side),
    /// A BPT super entry: its two sibling cells, left then right.
    Split([Side; 2]),
}

impl Expansion {
    /// The children in frontier order; `None` when missing.
    #[inline]
    pub fn children(&self) -> Option<&[Side]> {
        match self {
            Expansion::Missing => None,
            Expansion::Empty => Some(&[]),
            Expansion::Entry(side) => Some(std::slice::from_ref(side)),
            Expansion::Split(pair) => Some(pair),
        }
    }

    /// Whether a super entry was split — the `internal` flag of
    /// [`Tracer::cell_expanded`].
    #[inline]
    pub fn is_split(&self) -> bool {
        matches!(self, Expansion::Split(_))
    }

    /// The same expansion with every child passed through `f` (id
    /// translation, re-flagging `cached`).
    pub fn map(self, f: impl Fn(Side) -> Side) -> Expansion {
        match self {
            Expansion::Entry(side) => Expansion::Entry(f(side)),
            Expansion::Split(pair) => Expansion::Split(pair.map(f)),
            other => other,
        }
    }
}

/// A navigable picture of the index: complete on the server, partial on the
/// client.
pub trait IndexView {
    /// The tree's root cell and MBR (`None` for an empty tree). Clients
    /// know this from static catalog metadata even with a cold cache.
    fn root(&self) -> Option<(Rect, CellRef)>;

    /// Children of `cell` (both BPT children for a super entry; the single
    /// pointed-to node root or object for a full entry).
    fn expand(&self, cell: CellRef) -> Expansion;

    /// Authoritative views adjudicate every result and never leave a
    /// remainder: a cell they cannot expand names nothing and is dropped.
    fn authoritative(&self) -> bool;
}

/// Observer of engine activity, used for compact-form construction (server)
/// and cache hit accounting (client).
pub trait Tracer {
    /// `cell` was pushed into the traversal frontier.
    fn cell_touched(&mut self, _cell: CellRef) {}
    /// `cell` was expanded. `internal` distinguishes BPT super-entry
    /// expansions (two sibling cells) from full-entry expansions (descent
    /// into a child node or object).
    fn cell_expanded(&mut self, _cell: CellRef, _internal: bool) {}
    /// `id` was confirmed as a query result.
    fn object_confirmed(&mut self, _id: ObjectId) {}
}

/// Tracer that ignores everything.
pub struct NoopTracer;
impl Tracer for NoopTracer {}

/// Per-node access record collected by [`AccessLog`].
#[derive(Clone, Debug, Default)]
pub struct NodeAccess {
    /// Cells pushed into the frontier (the paper's "grey" cells).
    pub touched: HashSet<crate::bpt::Code>,
    /// Super entries that were expanded (their children became grey).
    pub expanded_internal: HashSet<crate::bpt::Code>,
    /// Whether any cell of this node was expanded at all — nodes without
    /// expansions contribute nothing new and are not shipped.
    pub any_expansion: bool,
}

/// Collects the access trace the server needs to build compact forms
/// (§4.2: the compact form is the frontier of the grey subtree) and the
/// client needs for cache hit statistics.
#[derive(Clone, Debug, Default)]
pub struct AccessLog {
    pub nodes: HashMap<NodeId, NodeAccess>,
    pub confirmed: Vec<ObjectId>,
}

impl AccessLog {
    /// Resets the log for reuse, keeping the map's allocation — pairs with
    /// [`EngineScratch`] so a query loop re-traces without reallocating.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.confirmed.clear();
    }

    /// The covering-antichain frontier for one node: touched cells minus
    /// expanded super entries.
    pub fn frontier(&self, node: NodeId) -> Vec<crate::bpt::Code> {
        let Some(acc) = self.nodes.get(&node) else {
            return Vec::new();
        };
        let mut out: Vec<crate::bpt::Code> = acc
            .touched
            .difference(&acc.expanded_internal)
            .copied()
            .collect();
        out.sort_unstable();
        out
    }

    /// Nodes that had at least one expansion, i.e. the "accessed R-tree
    /// nodes" whose supporting index must be shipped (§3.2).
    pub fn shipped_nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|(_, a)| a.any_expansion)
            .map(|(&n, _)| n)
            .collect();
        out.sort_unstable();
        out
    }
}

impl Tracer for AccessLog {
    fn cell_touched(&mut self, cell: CellRef) {
        self.nodes
            .entry(cell.node)
            .or_default()
            .touched
            .insert(cell.code);
    }

    fn cell_expanded(&mut self, cell: CellRef, internal: bool) {
        let acc = self.nodes.entry(cell.node).or_default();
        acc.any_expansion = true;
        if internal {
            acc.expanded_internal.insert(cell.code);
        }
    }

    fn object_confirmed(&mut self, id: ObjectId) {
        self.confirmed.push(id);
    }
}

/// Everything the engine produced for one query.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Confirmed result objects in confirmation (pop) order, with the
    /// client-cached flag (`true` ⇒ no payload transmission needed).
    pub results: Vec<(ObjectId, bool)>,
    /// Join result pairs, canonical (`small id, large id`) order.
    pub result_pairs: Vec<(ObjectId, ObjectId)>,
    /// The remainder query, when the view could not finish locally.
    pub remainder: Option<RemainderQuery>,
    /// Number of cell expansions (CPU accounting; §4.2's "at most doubles
    /// the processing" claim is measured on this).
    pub expansions: u64,
}

// ---------------------------------------------------------------------
// Priority queue plumbing
// ---------------------------------------------------------------------

#[derive(Clone)]
struct PqItem<T> {
    key: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for PqItem<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl<T> Eq for PqItem<T> {}
impl<T> PartialOrd for PqItem<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for PqItem<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop the smallest
        // (key, seq) so traversal is deterministic best-first.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Reusable engine buffers: the best-first priority queues and the
/// missing/blocked staging vectors of Algorithm 1. One per query session —
/// [`execute_with`] clears and refills it, so a steady-state loop (a fleet
/// client issuing thousands of cache-complete queries) allocates only its
/// result vector per query. Queries that end in a remainder hand their
/// staging buffers to the [`RemainderQuery`] (the remainder is serialized
/// for the wire anyway, so that path allocates regardless).
#[derive(Clone, Default)]
pub struct EngineScratch {
    single_pq: BinaryHeap<PqItem<Side>>,
    join_pq: BinaryHeap<PqItem<(Side, Side)>>,
    missing: Vec<(f64, Side)>,
    blocked: Vec<(f64, Side)>,
    join_missing: Vec<(f64, HeapEntry)>,
}

impl std::fmt::Debug for EngineScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineScratch")
            .field("single_pq_cap", &self.single_pq.capacity())
            .field("join_pq_cap", &self.join_pq.capacity())
            .finish_non_exhaustive()
    }
}

/// Runs a fresh query from the root.
pub fn execute<V: IndexView, T: Tracer>(view: &V, spec: &QuerySpec, tracer: &mut T) -> Outcome {
    execute_with(view, spec, tracer, &mut EngineScratch::default())
}

/// [`execute`] with caller-owned [`EngineScratch`] buffers. A fresh query
/// is the resume of the cold heap `[root]` (`[(root, root)]` for a join).
pub fn execute_with<V: IndexView, T: Tracer>(
    view: &V,
    spec: &QuerySpec,
    tracer: &mut T,
    scratch: &mut EngineScratch,
) -> Outcome {
    let cold = view
        .root()
        .filter(|(mbr, _)| spec.qualifies(mbr))
        .map(|(mbr, cell)| {
            let root = Side::Cell { cell, mbr };
            let entry = if spec.is_join() {
                HeapEntry::Pair(root, root)
            } else {
                HeapEntry::Single(root)
            };
            (spec.key_for(&mbr), entry)
        });
    run(view, spec, 0, cold.as_slice(), tracer, scratch)
}

/// Resumes a remainder query from its shipped heap (server side of §3.2
/// stage 2; also usable by a client that re-runs after a cache refill).
pub fn resume<V: IndexView, T: Tracer>(view: &V, rq: &RemainderQuery, tracer: &mut T) -> Outcome {
    let scratch = &mut EngineScratch::default();
    run(view, &rq.spec, rq.already_found, &rq.heap, tracer, scratch)
}

fn run<V: IndexView, T: Tracer>(
    view: &V,
    spec: &QuerySpec,
    already_found: u32,
    heap: &[(f64, HeapEntry)],
    tracer: &mut T,
    scratch: &mut EngineScratch,
) -> Outcome {
    match *spec {
        QuerySpec::Join { dist } => run_join(view, spec, dist, heap, tracer, scratch),
        _ => run_single(view, spec, already_found as usize, heap, tracer, scratch),
    }
}

// ---------------------------------------------------------------------
// Range / kNN
// ---------------------------------------------------------------------

fn run_single<V: IndexView, T: Tracer>(
    view: &V,
    spec: &QuerySpec,
    m0: usize,
    heap: &[(f64, HeapEntry)],
    tracer: &mut T,
    scratch: &mut EngineScratch,
) -> Outcome {
    let pq = &mut scratch.single_pq;
    pq.clear();
    scratch.missing.clear();
    scratch.blocked.clear();
    let mut seq = 0u64;
    let k_target = match spec {
        QuerySpec::Knn { k, .. } => Some(*k as usize),
        _ => None,
    };

    for &(key, entry) in heap {
        // A pair entry in a non-join heap is malformed outside input:
        // skipped.
        let HeapEntry::Single(side) = entry else {
            continue;
        };
        if let Side::Cell { cell, .. } = side {
            tracer.cell_touched(cell);
        }
        pq.push(PqItem {
            key,
            seq: post_inc(&mut seq),
            payload: side,
        });
    }

    let mut results: Vec<(ObjectId, bool)> = Vec::new();
    let missing = &mut scratch.missing;
    let blocked = &mut scratch.blocked;
    let mut missing_leaf_count = 0usize;
    let mut min_missing_cell_key = f64::INFINITY;
    let mut expansions = 0u64;

    loop {
        // Termination condition (paper §3.3): for kNN, m + n = k where n
        // counts blocked and missing leaf entries; range queries run until
        // the frontier is exhausted.
        if let Some(k) = k_target {
            if m0 + results.len() + blocked.len() + missing_leaf_count >= k {
                break;
            }
        }
        let Some(item) = pq.pop() else { break };
        let key = item.key;
        match item.payload {
            Side::Cell { cell, .. } => {
                let expansion = expand_traced(view, cell, tracer, &mut expansions);
                let Some(children) = expansion.children() else {
                    if !view.authoritative() {
                        min_missing_cell_key = min_missing_cell_key.min(key);
                        missing.push((key, item.payload));
                    }
                    continue;
                };
                // Only qualifying children enter the frontier.
                for &child in children {
                    let mbr = child.mbr();
                    if spec.qualifies(&mbr) {
                        pq.push(PqItem {
                            key: spec.key_for(&mbr),
                            seq: post_inc(&mut seq),
                            payload: child,
                        });
                    }
                }
            }
            Side::Obj { id, cached, .. } => {
                if view.authoritative() {
                    // The server adjudicates every popped object; `cached`
                    // tells it whether payload transmission is needed.
                    results.push((id, cached));
                    tracer.object_confirmed(id);
                } else if !cached {
                    // Paper: a missing leaf entry — the payload must come
                    // from the server.
                    missing_leaf_count += 1;
                    missing.push((key, item.payload));
                } else if k_target.is_some() && min_missing_cell_key <= key {
                    // §3.3: "a leaf entry should be returned as a result
                    // only if there is no missing non-leaf entry prior to
                    // it in H."
                    blocked.push((key, item.payload));
                } else {
                    results.push((id, true));
                    tracer.object_confirmed(id);
                }
            }
        }
    }

    let found = m0 + results.len();
    let needs_remainder = !missing.is_empty() || !blocked.is_empty();
    let remainder = needs_remainder.then(|| {
        let mut heap: Vec<(f64, HeapEntry)> = Vec::with_capacity(missing.len() + blocked.len());
        heap.extend(missing.drain(..).map(|(k, s)| (k, HeapEntry::Single(s))));
        heap.extend(blocked.drain(..).map(|(k, s)| (k, HeapEntry::Single(s))));
        while let Some(item) = pq.pop() {
            heap.push((item.key, HeapEntry::Single(item.payload)));
        }
        if let Some(k) = k_target {
            prune_after_kth_leaf(&mut heap, k.saturating_sub(found));
        }
        RemainderQuery {
            spec: *spec,
            already_found: found as u32,
            heap,
        }
    });
    // kNN can terminate with frontier left over; drop it so the next query
    // through this scratch starts clean.
    pq.clear();

    Outcome {
        results,
        result_pairs: Vec::new(),
        remainder,
        expansions,
    }
}

/// Example 3.1's pruning: entries ranked after the current k-th leaf entry
/// cannot contain anything closer than the k-th candidate, so they are
/// dropped from the remainder ("entries d and a are pruned").
fn prune_after_kth_leaf(heap: &mut Vec<(f64, HeapEntry)>, need: usize) {
    if need == 0 {
        return;
    }
    let mut leaf_keys: Vec<f64> = heap
        .iter()
        .filter(|(_, e)| e.is_leaf())
        .map(|(k, _)| *k)
        .collect();
    if leaf_keys.len() < need {
        return;
    }
    leaf_keys.sort_by(f64::total_cmp);
    let cutoff = leaf_keys[need - 1];
    heap.retain(|(k, _)| *k <= cutoff);
}

fn post_inc(x: &mut u64) -> u64 {
    let v = *x;
    *x += 1;
    v
}

// ---------------------------------------------------------------------
// Distance self-join
// ---------------------------------------------------------------------

fn run_join<V: IndexView, T: Tracer>(
    view: &V,
    spec: &QuerySpec,
    dist: f64,
    heap: &[(f64, HeapEntry)],
    tracer: &mut T,
    scratch: &mut EngineScratch,
) -> Outcome {
    let pq = &mut scratch.join_pq;
    pq.clear();
    scratch.join_missing.clear();
    let mut seq = 0u64;

    for &(key, entry) in heap {
        // A single entry in a join heap is malformed outside input:
        // skipped.
        let HeapEntry::Pair(a, b) = entry else {
            continue;
        };
        for side in [a, b] {
            if let Side::Cell { cell, .. } = side {
                tracer.cell_touched(cell);
            }
        }
        pq.push(PqItem {
            key,
            seq: post_inc(&mut seq),
            payload: (a, b),
        });
    }

    let mut pair_set: HashSet<(ObjectId, ObjectId)> = HashSet::new();
    let mut result_pairs: Vec<(ObjectId, ObjectId)> = Vec::new();
    let mut obj_flags: HashMap<ObjectId, bool> = HashMap::new();
    let mut obj_order: Vec<ObjectId> = Vec::new();
    let missing = &mut scratch.join_missing;
    let mut expansions = 0u64;

    while let Some(item) = pq.pop() {
        let key = item.key;
        let (a, b) = item.payload;
        match (a, b) {
            (
                Side::Obj {
                    id: ia, cached: ca, ..
                },
                Side::Obj {
                    id: ib, cached: cb, ..
                },
            ) => {
                if ia == ib {
                    continue; // a distance self-join excludes self pairs
                }
                if view.authoritative() || (ca && cb) {
                    let pair = canonical(ia, ib);
                    if pair_set.insert(pair) {
                        result_pairs.push(pair);
                        for (id, cached) in [(ia, ca), (ib, cb)] {
                            if let std::collections::hash_map::Entry::Vacant(v) =
                                obj_flags.entry(id)
                            {
                                v.insert(cached);
                                obj_order.push(id);
                                tracer.object_confirmed(id);
                            }
                        }
                    }
                } else {
                    // One of the payloads is absent: the pair becomes a
                    // missing entry pair (paper footnote 3).
                    missing.push((key, HeapEntry::Pair(a, b)));
                }
            }
            _ => {
                let same_cell = matches!((&a, &b), (
                    Side::Cell { cell: c1, .. },
                    Side::Cell { cell: c2, .. },
                ) if c1 == c2);

                let mut expand = |side: Side| match side {
                    Side::Cell { cell, .. } => expand_traced(view, cell, tracer, &mut expansions),
                    // An object side stands for itself.
                    object => Expansion::Entry(object),
                };
                let exp_a = expand(a);
                let exp_b = if same_cell { exp_a } else { expand(b) };
                let (Some(ka), Some(kb)) = (exp_a.children(), exp_b.children()) else {
                    if !view.authoritative() {
                        missing.push((key, HeapEntry::Pair(a, b)));
                    }
                    continue;
                };

                for (i, &sa) in ka.iter().enumerate() {
                    // Self pairs are generated once (i ≤ j) to avoid the
                    // mirror duplicates of a self-join (classic RJ rule).
                    let j_start = if same_cell { i } else { 0 };
                    for (j, &sb) in kb.iter().enumerate().skip(j_start) {
                        if same_cell && i == j && sa.is_obj() {
                            continue; // identical object: self pair
                        }
                        let k = pair_key(&sa.mbr(), &sb.mbr());
                        if k <= dist {
                            pq.push(PqItem {
                                key: k,
                                seq: post_inc(&mut seq),
                                payload: (sa, sb),
                            });
                        }
                    }
                }
            }
        }
    }

    let remainder = (!missing.is_empty()).then(|| RemainderQuery {
        spec: *spec,
        already_found: 0,
        heap: std::mem::take(missing),
    });

    Outcome {
        results: obj_order.iter().map(|id| (*id, obj_flags[id])).collect(),
        result_pairs,
        remainder,
        expansions,
    }
}

/// Expands `cell` and reports the page read to the tracer. A read sees
/// *both* children, so both are grey whether or not they qualify (§4.2's CF
/// includes the pushed-but-never-popped sibling); this also keeps every
/// shipped form a covering antichain, which the client's view merge relies
/// on.
fn expand_traced<V: IndexView, T: Tracer>(
    view: &V,
    cell: CellRef,
    tracer: &mut T,
    expansions: &mut u64,
) -> Expansion {
    let expansion = view.expand(cell);
    if let Some(children) = expansion.children() {
        *expansions += 1;
        tracer.cell_expanded(cell, expansion.is_split());
        for child in children {
            if let Side::Cell { cell, .. } = child {
                tracer.cell_touched(*cell);
            }
        }
    }
    expansion
}

fn canonical(a: ObjectId, b: ObjectId) -> (ObjectId, ObjectId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
pub(crate) mod tests;
