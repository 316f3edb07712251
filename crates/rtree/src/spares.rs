//! Copy-on-write storage: the one chunked column every id-indexed table of
//! this crate is built on, and the retired allocations its copies reuse.
//!
//! [`Chunked`] holds the tree's node slots (each node with its BPT) and
//! the object store: `Arc`-shared segments of [`CHUNK_LEN`] entries, so a
//! clone copies a short segment table and an edit copies the one segment
//! it lands in. Two seams replace a shared `Arc` with a private copy: a
//! column's segments ([`ObjectStore`](crate::ObjectStore)'s, spared) and a
//! node slot ([`RTree`](crate::RTree)). Left alone, the replaced `Arc`
//! frees when the last snapshot holding it drops, and the copy is a fresh
//! allocation — which, on a long-lived writer thread, lands in that
//! thread's allocator arena while the freed one goes back to the arena the
//! world was built in, where nothing allocates any more: a churned world
//! ends up resident twice. Lent [`Spares`], a seam instead *retires* the
//! `Arc` it replaces and copies into a retired `Arc` once [`Arc::get_mut`]
//! says nothing holds it any more — no snapshot, no reader pin — so a
//! publish writes into what an earlier one retired. That check is the
//! whole safety argument, and it is the one [`Arc::make_mut`] makes.

use std::sync::Arc;

/// Entries per segment as a shift: an index is a shift and a mask.
const CHUNK_SHIFT: u32 = 10;
/// Entries per [`Chunked`] segment, the one chunk length of every column.
pub const CHUNK_LEN: usize = 1 << CHUNK_SHIFT;

/// A copy-on-write column: entries by dense index, in `Arc`-shared
/// segments of [`CHUNK_LEN`]. Cloning it clones the segment table
/// (`len / CHUNK_LEN` refcount bumps); an edit after a clone copies the one
/// segment it lands in, leaving every other segment shared. So an epoch
/// publish copies O(batch · depth) entries, where a flat `Vec` would copy
/// the whole table.
///
/// One segment-copy rule per column. A column a writer lends segment
/// [`Spares`] to copies a segment into exactly `CHUNK_LEN`, so any retired
/// segment fits any copy; a column nobody spares copies it at its length,
/// as [`Arc::make_mut`] does. Either way no push grows a segment past
/// `CHUNK_LEN`.
#[derive(Clone, Debug)]
pub struct Chunked<E> {
    segments: Vec<Arc<Vec<E>>>,
    len: usize,
}

impl<E> Default for Chunked<E> {
    fn default() -> Self {
        Chunked {
            segments: Vec::new(),
            len: 0,
        }
    }
}

impl<E> Chunked<E> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn get(&self, i: usize) -> &E {
        &self.segments[i >> CHUNK_SHIFT][i & (CHUNK_LEN - 1)]
    }

    /// Checked [`get`](Self::get): `None` past the column.
    #[inline]
    pub fn try_get(&self, i: usize) -> Option<&E> {
        self.segments
            .get(i >> CHUNK_SHIFT)?
            .get(i & (CHUNK_LEN - 1))
    }

    /// The entries in index order.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.segments.iter().flat_map(|segment| segment.iter())
    }

    /// Number of segments (the denominator of
    /// [`shared_chunks`](Self::shared_chunks)).
    pub fn chunk_count(&self) -> usize {
        self.segments.len()
    }

    /// How many whole segments `self` physically shares with `other` (same
    /// `Arc` at the same position). A publish that edits `k` spines copies
    /// at most `k · depth` of them, whatever the column's length.
    pub fn shared_chunks(&self, other: &Chunked<E>) -> usize {
        let pairs = self.segments.iter().zip(&other.segments);
        pairs.filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Heap bytes of the table itself, by capacity: the segment table and
    /// every segment (shared ones included — each holder counts them), not
    /// what the entries own.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let slots: usize = self.segments.iter().map(|s| s.capacity()).sum();
        self.segments.capacity() * size_of::<Arc<Vec<E>>>() + slots * size_of::<E>()
    }
}

impl<E: Clone> Chunked<E> {
    /// A private copy of the column, each segment its own `CHUNK_LEN`
    /// allocation, as the copy of a spared segment is.
    pub(crate) fn copy(&self) -> Self {
        Chunked {
            segments: self.segments.iter().map(|s| Self::segment(s)).collect(),
            len: self.len,
        }
    }

    fn segment(entries: &[E]) -> Arc<Vec<E>> {
        let mut segment = Vec::with_capacity(CHUNK_LEN);
        segment.extend_from_slice(entries);
        Arc::new(segment)
    }

    /// Appends one entry, through the copy-on-write seam of the tail
    /// segment (`spares` as in [`get_mut`](Self::get_mut)). A tail copied
    /// at its length grows as a `Vec` does, but never past `CHUNK_LEN`.
    pub(crate) fn push(&mut self, entry: E, spares: Option<&mut Lent<Vec<E>>>) {
        if self.len.is_multiple_of(CHUNK_LEN) {
            self.segments.push(Self::segment(&[]));
        }
        let tail = self.segment_mut(self.segments.len() - 1, spares);
        if tail.len() == tail.capacity() && 2 * tail.len() > CHUNK_LEN {
            tail.reserve_exact(CHUNK_LEN - tail.len());
        }
        tail.push(entry);
        self.len += 1;
    }

    /// Mutable access to entry `i`, copying its segment first when a clone
    /// still holds it. A column a writer lends segment spares to passes
    /// its seam as `spares`: the copy is exactly `CHUNK_LEN`, into a spare
    /// nothing holds any more or a fresh segment. A column nobody spares
    /// passes `None`: the copy is [`Arc::make_mut`]'s, at its length.
    #[inline]
    pub(crate) fn get_mut(&mut self, i: usize, spares: Option<&mut Lent<Vec<E>>>) -> &mut E {
        &mut self.segment_mut(i >> CHUNK_SHIFT, spares)[i & (CHUNK_LEN - 1)]
    }

    /// Segment `k` made private: the column's one copy-on-write seam.
    fn segment_mut(&mut self, k: usize, spares: Option<&mut Lent<Vec<E>>>) -> &mut Vec<E> {
        let segment = &mut self.segments[k];
        match spares {
            Some(spares) => spares.make_mut(segment, |entries, copy| {
                clear_to(copy, CHUNK_LEN);
                copy.extend_from_slice(entries);
            }),
            None => Arc::make_mut(segment),
        }
    }
}

impl<T> Chunked<Arc<T>> {
    /// How many entries `self` physically shares with `other` (same `Arc`
    /// at the same index). After cloning and a small update batch, all but
    /// the touched spines stay shared.
    pub fn shared_slots(&self, other: &Chunked<Arc<T>>) -> usize {
        let pairs = self.iter().zip(other.iter());
        pairs.filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }
}

/// Retired `Arc<T>`s of one kind, owned by a writer between edits and lent
/// to a structure for one edit at a time (`with_spares` on the structure).
/// Nothing is ever dropped: a spare unused by one edit waits for the next.
/// No cap is needed either — a copy takes a free spare before it allocates,
/// so what the spares keep is what snapshots still pinned hold anyway plus
/// at most one edit's retirements.
pub struct Spares<T> {
    /// Candidates for the next copy.
    free: Vec<Arc<T>>,
    /// Retired during this lend, or found still shared: candidates again at
    /// the next lend, not rescanned on every copy.
    held: Vec<Arc<T>>,
}

impl<T> Default for Spares<T> {
    fn default() -> Self {
        Spares {
            free: Vec::new(),
            held: Vec::new(),
        }
    }
}

impl<T> std::fmt::Debug for Spares<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Spares")
            .field("free", &self.free.len())
            .field("held", &self.held.len())
            .finish()
    }
}

impl<T> Spares<T> {
    /// A retired allocation nothing else holds any more, if there is one;
    /// the ones found still shared are set aside.
    fn take(&mut self) -> Option<Arc<T>> {
        while let Some(mut spare) = self.free.pop() {
            if Arc::get_mut(&mut spare).is_some() {
                return Some(spare);
            }
            self.held.push(spare);
        }
        None
    }

    /// `slot`'s value, made private: as it is when nothing else holds the
    /// `Arc`; otherwise `copy(old, into)` writes it into a spare nothing
    /// holds any more — or into a fresh `T::default()` when there is none —
    /// which takes the slot, and the replaced `Arc` is retired.
    fn make_mut<'s>(&mut self, slot: &'s mut Arc<T>, copy: impl FnOnce(&T, &mut T)) -> &'s mut T
    where
        T: Default,
    {
        if Arc::get_mut(slot).is_none() {
            let mut next = self.take().unwrap_or_default();
            let into = Arc::get_mut(&mut next).expect("a spare nothing else holds");
            copy(slot, into);
            self.held.push(std::mem::replace(slot, next));
        }
        Arc::get_mut(slot).expect("unshared above")
    }
}

/// Empties `column` and gives it exactly `capacity`: a spare's column is
/// reused as it is when it already has it and reallocated otherwise, so
/// every copy, into a spare or a fresh value, ends up the same size.
pub(crate) fn clear_to<T>(column: &mut Vec<T>, capacity: usize) {
    column.clear();
    column.shrink_to(capacity);
    column.reserve_exact(capacity);
}

/// A structure's copy-on-write seam: the [`Spares`] lent to it for one
/// edit, none otherwise. Cloning a structure never clones what it was lent.
#[derive(Debug)]
pub(crate) struct Lent<T>(Option<Spares<T>>);

impl<T> Default for Lent<T> {
    fn default() -> Self {
        Lent(None)
    }
}

impl<T> Clone for Lent<T> {
    fn clone(&self) -> Self {
        Lent(None)
    }
}

impl<T: Default> Lent<T> {
    /// [`Spares::make_mut`] on the lent spares; with none lent, the copy is
    /// fresh and the replaced `Arc` is dropped.
    pub(crate) fn make_mut<'s>(
        &mut self,
        slot: &'s mut Arc<T>,
        copy: impl FnOnce(&T, &mut T),
    ) -> &'s mut T {
        match &mut self.0 {
            Some(spares) => spares.make_mut(slot, copy),
            None => Spares::default().make_mut(slot, copy),
        }
    }

    /// Runs `edit` on `owner` with `spares` lent to the seam `seam` picks
    /// out of it, and takes them back — with what the edit retired — after.
    /// Every spare is a copy candidate again at the start of a lend.
    pub(crate) fn lend<S, R>(
        owner: &mut S,
        seam: impl Fn(&mut S) -> &mut Lent<T>,
        spares: &mut Spares<T>,
        edit: impl FnOnce(&mut S) -> R,
    ) -> R {
        let mut lent = std::mem::take(spares);
        lent.free.append(&mut lent.held);
        seam(owner).0 = Some(lent);
        let out = edit(owner);
        *spares = seam(owner).0.take().unwrap_or_default();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectId, ObjectStore, RTree, RTreeConfig, SpatialObject};
    use pc_geom::{Point, Rect};
    use std::mem::size_of;

    fn copy<T: Clone>(old: &T, into: &mut T) {
        into.clone_from(old);
    }

    /// Retired allocations kept, shared or not.
    fn kept<T>(spares: &Spares<T>) -> usize {
        spares.free.len() + spares.held.len()
    }

    #[test]
    fn an_unshared_slot_is_edited_in_place() {
        let mut spares = Spares::default();
        let mut slot = Arc::new(vec![1u32]);
        let at = Arc::as_ptr(&slot);
        spares.make_mut(&mut slot, copy).push(2);
        assert_eq!((Arc::as_ptr(&slot), &*slot), (at, &vec![1, 2]));
        assert_eq!(kept(&spares), 0);
    }

    #[test]
    fn a_copy_reuses_a_retired_allocation_only_once_nothing_holds_it() {
        let mut spares = Spares::default();
        let first = Arc::new(vec![1u32]);
        let mut slot = Arc::clone(&first);
        spares.make_mut(&mut slot, copy).push(2);
        assert_eq!(kept(&spares), 1, "the replaced Arc is retired");

        // `first` still holds the retired allocation: the next copy must
        // not write into it, and the shared spare is set aside, not lost.
        spares.free.append(&mut spares.held);
        let pinned = Arc::clone(&slot);
        spares.make_mut(&mut slot, copy).push(3);
        assert_eq!(*first, vec![1]);
        assert_eq!(*pinned, vec![1, 2]);
        assert_eq!(kept(&spares), 2);

        // Once the holder drops, the retired allocation takes the copy.
        let reused = Arc::as_ptr(&first);
        drop(first);
        spares.free.append(&mut spares.held);
        let mut other = Arc::clone(&slot);
        spares.make_mut(&mut other, copy).push(4);
        assert_eq!(Arc::as_ptr(&other), reused);
        assert_eq!((&*other, &*slot), (&vec![1, 2, 3, 4], &vec![1, 2, 3]));
        assert_eq!(kept(&spares), 2, "one spare taken, one retired");
    }

    #[test]
    fn without_spares_the_replaced_arc_is_dropped() {
        let mut lent = Lent::default();
        let first = Arc::new(vec![1u32]);
        let mut slot = Arc::clone(&first);
        lent.make_mut(&mut slot, copy).push(2);
        assert_eq!(Arc::strong_count(&first), 1);
        assert!(lent.0.is_none());
    }

    /// Every segment holds at most `CHUNK_LEN` entries of capacity, and the
    /// column as a whole at most one partial segment of slack.
    fn assert_linear_capacity<E>(column: &Chunked<E>) {
        let caps: Vec<usize> = column.segments.iter().map(|s| s.capacity()).collect();
        assert!(
            caps.iter().all(|&c| c <= CHUNK_LEN),
            "segment over-allocated at len {}: {caps:?}",
            column.len()
        );
        assert!(caps.iter().sum::<usize>() <= column.len() + CHUNK_LEN);
    }

    #[test]
    fn a_column_never_holds_more_than_chunk_len_per_segment() {
        // The slot tables, copied at their length: 4 000 grid points load
        // into 582 node slots, all in the tail segment. The first edit
        // after a clone copies that tail at 582, and the split that grows
        // the slab pushes onto the copy — as a `Vec` does, it would double
        // to 1 164.
        let point = |id: u32, x: f64, y: f64| SpatialObject {
            id: ObjectId(id),
            mbr: Rect::from_point(Point::new(x, y)),
            size_bytes: 1,
        };
        let grid: Vec<SpatialObject> = (0..4_000)
            .map(|i| point(i, (i % 63) as f64 / 63.0, (i / 63) as f64 / 64.0))
            .collect();
        let mut tree = RTree::bulk_load(RTreeConfig::small(), &grid);
        assert_eq!(tree.slab_len(), 582);
        let base = tree.clone();
        for id in 4_000.. {
            tree.insert(&point(id, 0.5, 0.5));
            if tree.slab_len() > base.slab_len() {
                break;
            }
        }
        assert_eq!(base.slots().shared_chunks(tree.slots()), 0);
        assert_linear_capacity(tree.slots());

        // The store's columns, copied into exactly `CHUNK_LEN`: grow,
        // relocate and tombstone on a clone while the original pins every
        // segment. The pushed rectangles fill in the max corners.
        fn assert_store_capacity(store: &ObjectStore) {
            assert_linear_capacity(store.mins());
            assert_linear_capacity(store.sizes());
            assert_linear_capacity(store.maxes());
        }
        for n in [0usize, 1, 1023, 1024, 1025, 123_593] {
            let objects: Vec<SpatialObject> = (0..n as u32)
                .map(|i| point(i, i as f64 / n as f64, 0.5))
                .collect();
            let mut store = ObjectStore::new(objects);
            assert_eq!(store.len(), n);
            assert_eq!(store.mins().chunk_count(), n.div_ceil(CHUNK_LEN));
            assert!(store.maxes().is_empty());
            assert!(store.iter().map(|o| o.id.0 as usize).eq(0..n));
            assert_store_capacity(&store);

            let base = store.clone();
            for _ in 0..3_000 {
                store.push(Rect::UNIT, 1);
            }
            for id in [0, n + 1_500, n + 2_999].map(|i| ObjectId(i as u32)) {
                store.set_mbr(id, Rect::UNIT);
                store.mark_dead(id);
            }
            assert_store_capacity(&store);
            assert!(store.heap_bytes() >= store.len() * (2 * size_of::<Point>() + 4));
            assert!(store.iter().map(|o| o.id.0 as usize).eq(0..n + 3_000));
            assert_eq!(store.get(ObjectId(0)).mbr, Rect::UNIT);
            assert_eq!(store.live_count(), n + 2_997);
            assert_eq!(base.len(), n);
            assert!(base.maxes().is_empty());
            assert_store_capacity(&base);
        }
    }

    #[test]
    fn a_lend_returns_what_the_edit_retired() {
        let mut spares = Spares::default();
        let mut owner = (Lent::default(), Arc::new(vec![1u32]));
        let held = Arc::clone(&owner.1);
        Lent::lend(
            &mut owner,
            |owner| &mut owner.0,
            &mut spares,
            |(lent, slot)| lent.make_mut(slot, copy).push(2),
        );
        assert!(owner.0 .0.is_none(), "nothing stays lent");
        assert_eq!(kept(&spares), 1);
        assert_eq!(Arc::strong_count(&held), 2, "retired, not dropped");
    }
}
