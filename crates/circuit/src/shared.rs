//! Paged write-once atomic stores: the compact struct-of-arrays gate
//! arena of the parallel construction cores.
//!
//! Both the word-level `Builder` and the bit-level `Lowerer` keep their
//! parallel gate records here, one column per field, and intern them
//! through the index-only [`SharedConsTable`](crate::cons::SharedConsTable):
//! a gate's record is written into the columns *before* its id is
//! published in the table (the per-shard mutex orders the two), so any
//! thread that finds the id also sees the record. Wire ids come from a
//! single atomic counter; dedup makes the set of allocated gates
//! schedule-independent even though the id order is not — a
//! deterministic replay (see `ir.rs`) restores sequential numbering for
//! materialized circuits.
//!
//! Storage is paged (`Pages<T>`): a fixed directory of lazily allocated
//! fixed-size pages, so concurrent writers never reallocate or move
//! entries. Entries are 4-byte operand indices and 1-byte kind tags —
//! ~17 bytes per word gate with its depth, plus ~9 bytes of cons table at
//! the average load, which is what makes the N=1024 count-mode sweep
//! (≈1.4 billion wires) feasible in tens of GB instead of hundreds.

use std::sync::OnceLock;

/// log2 of entries per page: 1Mi entries. A page of `AtomicU32` is 4 MiB.
const PAGE_BITS: usize = 20;
const PAGE_LEN: usize = 1 << PAGE_BITS;
const PAGE_MASK: usize = PAGE_LEN - 1;
/// Pages in the directory: 4096 × 1Mi = 2³² entries, the full `WireId`
/// range. The directory itself is 64 KiB of `OnceLock`s.
const MAX_PAGES: usize = 1 << (32 - PAGE_BITS);

/// A fixed directory of lazily allocated pages. Indexing never moves
/// entries, so `&T` references handed out are stable for the lifetime of
/// the structure and concurrent writers need no coordination beyond the
/// per-entry atomics they store into.
pub(crate) struct Pages<T> {
    pages: Box<[OnceLock<Box<[T]>>]>,
}

impl<T: Default> Pages<T> {
    pub(crate) fn new() -> Self {
        let pages: Box<[OnceLock<Box<[T]>>]> = (0..MAX_PAGES).map(|_| OnceLock::new()).collect();
        Pages { pages }
    }

    /// The entry at `i`, allocating its page (zeroed / `Default`) on
    /// first touch.
    pub(crate) fn at(&self, i: u32) -> &T {
        let i = i as usize;
        let page = self.pages[i >> PAGE_BITS]
            .get_or_init(|| (0..PAGE_LEN).map(|_| T::default()).collect());
        &page[i & PAGE_MASK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn pages_store_and_read_across_page_boundaries() {
        let p: Pages<AtomicU32> = Pages::new();
        for &i in &[
            0u32,
            1,
            7,
            (PAGE_LEN - 1) as u32,
            PAGE_LEN as u32,
            3 * PAGE_LEN as u32 + 5,
        ] {
            p.at(i).store(i ^ 0xdead_beef, Ordering::Release);
        }
        for &i in &[
            0u32,
            1,
            7,
            (PAGE_LEN - 1) as u32,
            PAGE_LEN as u32,
            3 * PAGE_LEN as u32 + 5,
        ] {
            assert_eq!(p.at(i).load(Ordering::Acquire), i ^ 0xdead_beef);
        }
        // untouched entries read as default
        assert_eq!(p.at(12345).load(Ordering::Acquire), 0);
    }
}
