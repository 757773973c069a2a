//! A persistent, structurally-shared color table indexed by stable path id.
//!
//! The incremental [`crate::Workspace`] keeps the merged coloring in a
//! [`ColorTable`]: chunked `Arc` pages of [`PAGE_SIZE`] colors each,
//! patched copy-on-write per refresh. Indexing by *stable* id (slot
//! number) rather than dense rank is what makes the sharing effective —
//! dense ranks shift on every removal, which would dirty pages whose
//! members never changed color, while stable slots move only when their
//! own color does.
//!
//! [`ColorTable::clone`] is a snapshot: O(pages) pointer copies, after
//! which the two tables share every page until one of them patches it
//! ([`std::sync::Arc::make_mut`] path-copies the touched page only). A
//! refresh that re-solves one shard therefore leaves every other page of
//! the previous snapshot shared verbatim — the "unchanged-shard merge
//! shares its pages" contract the delta query path is built on.

use std::sync::Arc;

/// Colors per page. 128 × 4 bytes = one 512-byte page — small enough
/// that a single-member patch copies little, large enough that a
/// million-slot table is only ~8k pointers.
pub const PAGE_SIZE: usize = 128;

/// The not-live sentinel (colors are dense ranks starting at 0, and a
/// family can never hold `u32::MAX` members — `PathId` is a `u32`).
const EMPTY: u32 = u32::MAX;

/// A persistent vector of colors keyed by stable path id.
///
/// Absent slots (never assigned, or cleared by a removal) read as
/// `None`. Cloning is a cheap snapshot; mutation copies only the touched
/// page when it is shared.
#[derive(Clone, Debug, Default)]
pub struct ColorTable {
    pages: Vec<Arc<[u32; PAGE_SIZE]>>,
}

impl ColorTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The color at `slot`, or `None` when the slot holds no live color.
    #[inline]
    pub fn get(&self, slot: usize) -> Option<u32> {
        let v = *self.pages.get(slot / PAGE_SIZE)?.get(slot % PAGE_SIZE)?;
        (v != EMPTY).then_some(v)
    }

    /// Assign `color` to `slot`, growing the table as needed. No-op (and
    /// no page copy) when the slot already holds `color`.
    pub fn set(&mut self, slot: usize, color: u32) {
        debug_assert_ne!(color, EMPTY, "u32::MAX is the not-live sentinel");
        let page_idx = slot / PAGE_SIZE;
        while self.pages.len() <= page_idx {
            self.pages.push(Arc::new([EMPTY; PAGE_SIZE]));
        }
        let page = &mut self.pages[page_idx];
        if page[slot % PAGE_SIZE] != color {
            Arc::make_mut(page)[slot % PAGE_SIZE] = color;
        }
    }

    /// Clear `slot` back to not-live. No-op (and no page copy) when the
    /// slot is already clear or was never allocated.
    pub fn clear(&mut self, slot: usize) {
        let page_idx = slot / PAGE_SIZE;
        if let Some(page) = self.pages.get_mut(page_idx) {
            if page[slot % PAGE_SIZE] != EMPTY {
                Arc::make_mut(page)[slot % PAGE_SIZE] = EMPTY;
            }
        }
    }

    /// Every live `(slot, color)` pair, in ascending slot order — one pass
    /// over the pages, skipping absent and cleared slots.
    pub fn iter_live(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.pages.iter().enumerate().flat_map(|(p, page)| {
            page.iter()
                .enumerate()
                .filter(|&(_, &c)| c != EMPTY)
                .map(move |(i, &c)| (p * PAGE_SIZE + i, c))
        })
    }

    /// Number of allocated pages (shared or not).
    #[inline]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Number of pages this table shares (same allocation) with `other`,
    /// compared positionally — the structural-sharing measure the tests
    /// and the gated report assert on.
    pub fn shared_pages_with(&self, other: &ColorTable) -> usize {
        self.pages
            .iter()
            .zip(&other.pages)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_and_cleared_slots_read_none() {
        let mut t = ColorTable::new();
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(10_000), None);
        t.set(3, 7);
        assert_eq!(t.get(3), Some(7));
        t.clear(3);
        assert_eq!(t.get(3), None);
        t.clear(99_999); // never allocated: no-op, no growth
        assert_eq!(t.page_count(), 1);
    }

    #[test]
    fn growth_is_page_granular() {
        let mut t = ColorTable::new();
        t.set(PAGE_SIZE * 2 + 1, 4);
        assert_eq!(t.page_count(), 3);
        assert_eq!(t.get(PAGE_SIZE * 2 + 1), Some(4));
        assert_eq!(t.get(PAGE_SIZE), None);
    }

    #[test]
    fn iter_live_yields_live_slots_in_order() {
        let mut t = ColorTable::new();
        assert_eq!(t.iter_live().count(), 0, "empty table");
        // Holes inside a page, a page left entirely empty by growth, a
        // cleared slot, and a slot overwritten in place.
        t.set(PAGE_SIZE * 2 + 5, 3);
        t.set(7, 1);
        t.set(0, 0);
        t.set(9, 2);
        t.set(PAGE_SIZE * 2 + 127, 4);
        t.clear(9);
        t.set(7, 5);
        assert_eq!(t.page_count(), 3);
        let live: Vec<(usize, u32)> = t.iter_live().collect();
        assert_eq!(
            live,
            vec![
                (0, 0),
                (7, 5),
                (PAGE_SIZE * 2 + 5, 3),
                (PAGE_SIZE * 2 + 127, 4)
            ]
        );
        // Agrees with `get` on every slot of every page.
        for slot in 0..t.page_count() * PAGE_SIZE {
            let listed = live.iter().find(|&&(s, _)| s == slot).map(|&(_, c)| c);
            assert_eq!(listed, t.get(slot), "slot {slot}");
        }
        // Clearing every live slot leaves the pages allocated but empty.
        for (slot, _) in live {
            t.clear(slot);
        }
        assert_eq!(t.iter_live().count(), 0);
        assert_eq!(t.page_count(), 3);
    }

    #[test]
    fn snapshots_share_untouched_pages() {
        let mut t = ColorTable::new();
        for slot in 0..PAGE_SIZE * 4 {
            t.set(slot, slot as u32 % 5);
        }
        let snap = t.clone();
        assert_eq!(snap.shared_pages_with(&t), 4, "a snapshot shares all pages");
        // Patch one slot: exactly one page diverges.
        t.set(PAGE_SIZE + 3, 99);
        assert_eq!(snap.shared_pages_with(&t), 3);
        assert_eq!(snap.get(PAGE_SIZE + 3), Some((PAGE_SIZE as u32 + 3) % 5));
        assert_eq!(t.get(PAGE_SIZE + 3), Some(99));
        // Writing an identical value copies nothing.
        let snap2 = t.clone();
        t.set(7, 7 % 5);
        assert_eq!(snap2.shared_pages_with(&t), 4);
    }
}
