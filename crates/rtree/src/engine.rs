//! The generic spatial query processor of §3.3 (paper Algorithm 1).
//!
//! One engine evaluates range, kNN and distance self-join queries over
//! *any* [`IndexView`]:
//!
//! * the **server** runs it over its [`RTree`](crate::RTree) (authoritative
//!   — nothing is ever missing), both for fresh queries and to *resume*
//!   remainder queries from the shipped heap `H`;
//! * the **proactive client** runs it over its cache, where expanding an
//!   absent cell yields [`Expansion::Missing`]; missing entries are set
//!   aside (the paper "pushes them back to `H`" and skips them) and, when
//!   the query cannot finish locally, the whole execution state is
//!   serialized into a [`RemainderQuery`].
//!
//! Range and kNN run Algorithm 1's best-first loop. The kNN subtleties of
//! §3.3 are implemented exactly: a popped object is *blocked* (not
//! confirmed) if a missing non-leaf entry with a smaller or equal key is
//! pending; termination uses `m + n = k` where `n` counts blocked and
//! missing leaf entries; and the remainder heap is pruned after the current
//! k-th leaf entry (Example 3.1).
//!
//! The distance self-join walks its pair frontier **depth first**. A
//! threshold join expands every pair within the distance whatever the
//! order, and a pair's children are never closer than the pair, so the
//! best-first order decided only the order results were emitted in. The
//! join emits them sorted by (pair distance, pair) after the walk instead:
//! the order a best-first loop would pop them in, ties broken by pair id,
//! so a reply depends only on its result set — and §4.1's response metric,
//! which reads that order, sees the nearest pairs first.
//!
//! A [`Tracer`] watches the walk — cells pushed and cells expanded — and
//! is told when it ends ([`Tracer::finish`]). The server's [`AccessLog`]
//! seals its per-node cell runs there; the client's [`NodeTrace`] keeps
//! nodes only.

use crate::bpt::Code;
use crate::proto::{pair_key, CellRef, HeapEntry, QuerySpec, RemainderQuery, Side};
use crate::{IdMap, NodeId, ObjectId};
use pc_geom::Rect;
use std::collections::BinaryHeap;

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
/// client. Each index the engine walks is its own view.
pub trait IndexView {
    /// The tree's root cell and MBR (`None` for an empty tree). Clients
    /// know this from static catalog metadata even with a cold cache.
    fn root_cell(&self) -> Option<(Rect, CellRef)>;

    /// Children of `cell` (both BPT children for a super entry; the single
    /// pointed-to node root or object for a full entry).
    fn expand(&self, cell: CellRef) -> Expansion;

    /// Authoritative views adjudicate every result and never leave a
    /// remainder: a cell they cannot expand names nothing and is dropped.
    fn authoritative(&self) -> bool;
}

/// Observer of engine activity: the server traces cells to build compact
/// forms ([`AccessLog`]), the client traces nodes for its cache hit
/// statistics ([`NodeTrace`]).
pub trait Tracer {
    /// `cell` was pushed into the traversal frontier.
    fn cell_touched(&mut self, _cell: CellRef) {}
    /// `cell` was expanded. `internal` distinguishes BPT super-entry
    /// expansions (two sibling cells) from full-entry expansions (descent
    /// into a child node or object).
    fn cell_expanded(&mut self, _cell: CellRef, _internal: bool) {}
    /// The traversal is over: a tracer that buffers what it saw settles
    /// it here, before anything reads it.
    fn finish(&mut self) {}
}

/// Tracer that ignores everything.
pub struct NoopTracer;
impl Tracer for NoopTracer {}

/// The nodes a query read, each once in first-access order. With the
/// objects the query confirmed ([`Outcome::results`]), they are all the
/// client's §5.2 hit statistics need (every item the traversal used is
/// marked as hit by the query).
///
/// A remainder built outside the program may name any node id, so ids are
/// filed in an [`IdMap`], not used as offsets. [`clear`](Self::clear)
/// keeps both allocations, so a trace reused across queries (one per
/// client) stops allocating once its largest query has run.
#[derive(Clone, Debug, Default)]
pub struct NodeTrace {
    /// Each node's position in `nodes`.
    index: IdMap<NodeId, u32>,
    /// In first-access order.
    nodes: Vec<NodeId>,
    /// The position `slot` last returned: a walk reads cells in runs.
    last: usize,
}

impl NodeTrace {
    /// Resets the trace for reuse, keeping every allocation — pairs with
    /// [`EngineScratch`] so a query loop re-traces without reallocating.
    pub fn clear(&mut self) {
        self.index.clear();
        self.nodes.clear();
    }

    /// Every node with a touched or expanded cell, in first-access order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// `node`'s position in `nodes`, and whether this call opened it.
    #[inline]
    fn slot(&mut self, node: NodeId) -> (usize, bool) {
        if self.nodes.get(self.last) == Some(&node) {
            return (self.last, false);
        }
        let next = self.nodes.len() as u32;
        let slot = *self.index.entry(node).or_insert(next);
        if slot == next {
            self.nodes.push(node);
        }
        self.last = slot as usize;
        (self.last, slot == next)
    }
}

impl Tracer for NodeTrace {
    #[inline]
    fn cell_touched(&mut self, cell: CellRef) {
        self.slot(cell.node);
    }

    fn cell_expanded(&mut self, cell: CellRef, _internal: bool) {
        self.slot(cell.node);
    }
}

/// One logged cell of a node, as [`AccessLog::cells`] yields it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellAccess {
    pub code: Code,
    /// Pushed into the frontier (the paper's "grey" cells).
    pub touched: bool,
    /// Expanded as a super entry (its children became grey).
    pub expanded_internal: bool,
}

/// Cell flags: touched / expanded as a super entry. A run entry is
/// `bits << 8 | len << 2 | flags`, so entries sort in code order.
const TOUCHED: u64 = 1;
const INTERNAL: u64 = 2;
const FLAGS: u64 = TOUCHED | INTERNAL;

/// Entries a node's run opens with: enough for the few cells a range or
/// kNN contact logs in most nodes, so those runs never grow.
const RUN_CAPACITY: usize = 16;

/// The server's cell-level trace: the grey subtree §4.2's compact forms
/// are cut from (the compact form is the frontier of the grey subtree).
/// A [`NodeTrace`] plus, per traced node, the run of cells touched or
/// expanded; the client traces nodes only.
///
/// A traversal appends each node's cells as it reads them, folding a
/// repeat of the run's last cell into it; [`Tracer::finish`] then sorts
/// each run and merges the flags of a code logged more than once. Nothing
/// hashes a cell: a join logs a few hundred entries per node, and sorting
/// each node's run beats one sort over every (node, code). The readers
/// see sealed runs, in code order. The server logs each contact afresh.
#[derive(Clone, Debug, Default)]
pub struct AccessLog {
    trace: NodeTrace,
    /// Indexed like the trace's nodes.
    runs: Vec<CellRun>,
}

/// One traced node's cells, sealed by [`seal`] once its traversal ends.
#[derive(Clone, Debug)]
struct CellRun {
    /// Some cell of the node was expanded.
    expanded: bool,
    cells: Vec<u64>,
}

/// `code` as a run entry with no flags.
#[inline]
fn cell_key(code: Code) -> u64 {
    let (bits, len) = code.raw();
    u64::from(bits) << 8 | u64::from(len) << 2
}

/// Sorts `run` and merges the flags of equal codes.
fn seal(run: &mut Vec<u64>) {
    run.sort_unstable();
    run.dedup_by(|next, kept| {
        let same = (*next ^ *kept) & !FLAGS == 0;
        if same {
            *kept |= *next;
        }
        same
    });
}

impl AccessLog {
    /// The covering-antichain frontier for one node: touched cells minus
    /// expanded super entries, in code order.
    pub fn frontier(&self, node: NodeId) -> Vec<Code> {
        self.cells(node)
            .filter(|c| c.touched && !c.expanded_internal)
            .map(|c| c.code)
            .collect()
    }

    /// Nodes that had at least one expansion, i.e. the "accessed R-tree
    /// nodes" whose supporting index must be shipped (§3.2), in id order.
    pub fn shipped_nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .trace
            .nodes()
            .zip(&self.runs)
            .filter(|(_, run)| run.expanded)
            .map(|(node, _)| node)
            .collect();
        out.sort_unstable();
        out
    }

    /// Every node with a touched or expanded cell, in first-access order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.trace.nodes()
    }

    /// Whether any cell of `node` was expanded.
    pub fn any_expansion(&self, node: NodeId) -> bool {
        self.run(node).is_some_and(|run| run.expanded)
    }

    /// The logged cells of `node`, in code order.
    pub fn cells(&self, node: NodeId) -> impl Iterator<Item = CellAccess> + '_ {
        let cells = self.run(node).map_or(&[][..], |run| &run.cells);
        cells.iter().filter_map(|&entry| {
            Some(CellAccess {
                code: Code::from_raw((entry >> 8) as u32, (entry >> 2 & 0x3f) as u8)?,
                touched: entry & TOUCHED != 0,
                expanded_internal: entry & INTERNAL != 0,
            })
        })
    }

    /// Frees `node`'s run, once its shipment is cut: the node reads as
    /// logged with no cells, and keeps whether it was expanded. A log
    /// that is read node by node shrinks as it is read.
    pub fn release(&mut self, node: NodeId) {
        if let Some(&slot) = self.trace.index.get(&node) {
            self.runs[slot as usize].cells = Vec::new();
        }
    }

    /// Logs everything `from` logged for its node `node` as accesses of
    /// `as_node` — a cluster folding a cross-shard resume's trace into the
    /// owning shard's log under the shard-local id.
    pub fn record_node(&mut self, from: &AccessLog, node: NodeId, as_node: NodeId) {
        let Some(from) = from.run(node) else {
            return;
        };
        let slot = self.slot(as_node);
        let run = &mut self.runs[slot];
        run.expanded |= from.expanded;
        run.cells.extend_from_slice(&from.cells);
        seal(&mut run.cells);
    }

    fn run(&self, node: NodeId) -> Option<&CellRun> {
        let slot = self.trace.index.get(&node)?;
        Some(&self.runs[*slot as usize])
    }

    /// `node`'s slot, opened with an empty run when absent.
    #[inline]
    fn slot(&mut self, node: NodeId) -> usize {
        let (slot, opened) = self.trace.slot(node);
        if opened {
            self.runs.push(CellRun {
                expanded: false,
                cells: Vec::with_capacity(RUN_CAPACITY),
            });
        }
        slot
    }

    /// Appends `entry` to node slot `slot`'s run, or ORs its flags into
    /// the run's last entry when that is the same cell.
    #[inline]
    fn log(&mut self, slot: usize, entry: u64) {
        let cells = &mut self.runs[slot].cells;
        match cells.last_mut() {
            Some(last) if (*last ^ entry) & !FLAGS == 0 => *last |= entry,
            _ => cells.push(entry),
        }
    }
}

impl Tracer for AccessLog {
    #[inline]
    fn cell_touched(&mut self, cell: CellRef) {
        let slot = self.slot(cell.node);
        self.log(slot, cell_key(cell.code) | TOUCHED);
    }

    fn cell_expanded(&mut self, cell: CellRef, internal: bool) {
        let slot = self.slot(cell.node);
        self.runs[slot].expanded = true;
        if internal {
            self.log(slot, cell_key(cell.code) | INTERNAL);
        }
    }

    fn finish(&mut self) {
        for run in &mut self.runs {
            seal(&mut run.cells);
        }
    }
}

/// Everything the engine produced for one query.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Confirmed result objects with the client-cached flag (`true` ⇒ no
    /// payload transmission needed). Range and kNN: in confirmation (pop)
    /// order. Join: in order of first appearance in `result_pairs`, each
    /// with the flag of that appearance.
    pub results: Vec<(ObjectId, bool)>,
    /// Join result pairs, each canonical (`small id, large id`), sorted by
    /// (pair distance, pair) — a function of the result set alone.
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

/// A confirmed join pair awaiting emission: its distance, the canonical
/// pair and each member's cached flag, in pair order.
type FoundPair = (f64, (ObjectId, ObjectId), [bool; 2]);

/// Reusable engine buffers: the range/kNN priority queue, the join's
/// depth-first pair stack, the missing/blocked staging vectors of
/// Algorithm 1 and the result staging the outcome is copied from. One per
/// query session — [`execute_with`] clears and refills it, so a
/// steady-state loop (a fleet client issuing thousands of cache-complete
/// queries) allocates only its exact-size result vectors per query.
/// Queries that end in a remainder hand their staging buffers to the
/// [`RemainderQuery`] (the remainder is serialized for the wire anyway,
/// so that path allocates regardless).
#[derive(Clone, Default)]
pub struct EngineScratch {
    single_pq: BinaryHeap<PqItem<Side>>,
    /// Pairs still to expand, with their distance.
    join_stack: Vec<(f64, Side, Side)>,
    missing: Vec<(f64, Side)>,
    blocked: Vec<(f64, Side)>,
    join_missing: Vec<(f64, HeapEntry)>,
    results: Vec<(ObjectId, bool)>,
    join_found: Vec<FoundPair>,
    /// Pair members with their position in emission order, for the
    /// first-appearance pass.
    join_members: Vec<(ObjectId, usize, bool)>,
}

impl std::fmt::Debug for EngineScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineScratch")
            .field("single_pq_cap", &self.single_pq.capacity())
            .field("join_stack_cap", &self.join_stack.capacity())
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
        .root_cell()
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
    let outcome = match *spec {
        QuerySpec::Join { dist } => run_join(view, spec, dist, heap, tracer, scratch),
        _ => run_single(view, spec, already_found as usize, heap, tracer, scratch),
    };
    tracer.finish();
    outcome
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

    let results = &mut scratch.results;
    results.clear();
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
        results: results.to_vec(),
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
    let stack = &mut scratch.join_stack;
    stack.clear();
    scratch.join_missing.clear();
    let found = &mut scratch.join_found;
    found.clear();

    // Reversed onto the stack, so the walk starts at the heap's first
    // entry.
    for &(key, entry) in heap.iter().rev() {
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
        stack.push((key, a, b));
    }

    let missing = &mut scratch.join_missing;
    let mut expansions = 0u64;

    // Depth first: a threshold join expands every pair within `dist`
    // whatever the order, so the stack needs no ordering and stays as
    // short as the pair tree is deep.
    while let Some((key, a, b)) = stack.pop() {
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
                    found.push(if ia < ib {
                        (key, (ia, ib), [ca, cb])
                    } else {
                        (key, (ib, ia), [cb, ca])
                    });
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
                            stack.push((k, sa, sb));
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

    // Emission: one entry per pair — mirror and straddler duplicates keep
    // their nearest, cached-first copy — then by (distance, pair).
    found.sort_unstable_by(|x, y| {
        (x.1.cmp(&y.1))
            .then(x.0.total_cmp(&y.0))
            .then(y.2.cmp(&x.2))
    });
    found.dedup_by_key(|f| f.1);
    found.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    let result_pairs = found.iter().map(|f| f.1).collect();

    // Objects in order of first appearance: each member's earliest
    // position, then back into position order.
    let members = &mut scratch.join_members;
    members.clear();
    for (at, &(_, (a, b), [ca, cb])) in found.iter().enumerate() {
        members.extend([(a, 2 * at, ca), (b, 2 * at + 1, cb)]);
    }
    members.sort_unstable_by_key(|&(id, at, _)| (id, at));
    members.dedup_by_key(|m| m.0);
    members.sort_unstable_by_key(|m| m.1);
    let results = members.iter().map(|&(id, _, c)| (id, c)).collect();

    Outcome {
        results,
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

#[cfg(test)]
pub(crate) mod tests;
