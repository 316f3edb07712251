//! Retired copy-on-write allocations, kept for the next copy to reuse.
//!
//! Every copy-on-write seam of this crate ([`RTree`](crate::RTree)'s node
//! slots, [`ObjectStore`](crate::ObjectStore)'s segments,
//! [`BptStore`](crate::bpt::BptStore)'s per-node BPTs) replaces a shared
//! `Arc` with a private copy. Left alone, the replaced `Arc` frees when the
//! last snapshot holding it drops, and the copy is a fresh allocation —
//! which, on a long-lived writer thread, lands in that thread's allocator
//! arena while the freed one goes back to the arena the world was built
//! in, where nothing allocates any more: a churned world ends up resident
//! twice. Lent [`Spares`], a seam instead *retires* the `Arc` it replaces
//! and copies into a retired `Arc` once [`Arc::get_mut`] says nothing holds
//! it any more — no snapshot, no reader pin — so a publish writes into
//! what an earlier one retired. That check is the whole safety argument,
//! and it is the one [`Arc::make_mut`] makes.

use std::sync::Arc;

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
