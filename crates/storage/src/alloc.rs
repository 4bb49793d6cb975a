//! Block allocation with free-list recycling.
//!
//! (Nearly) in-place operation — Section IV-E of the paper — hinges on
//! recycling: "blocks that are read to internal buffers are deallocated
//! from disk immediately, so there are always blocks available for
//! writing the output." The allocator tracks per-disk free lists and a
//! high-water mark so tests can assert the paper's extra-space bounds.

use crate::block::BlockId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

struct DiskAlloc {
    next: u32,
    free: Vec<u32>,
}

/// Per-PE block allocator over `disks` local disks.
pub struct BlockAllocator {
    disks: Vec<Mutex<DiskAlloc>>,
    rr: AtomicUsize,
    in_use: AtomicUsize,
    high_water: AtomicUsize,
}

impl BlockAllocator {
    /// New allocator for `disks` empty disks.
    pub fn new(disks: usize) -> Self {
        assert!(disks > 0, "need at least one disk");
        Self {
            disks: (0..disks)
                .map(|_| Mutex::new(DiskAlloc { next: 0, free: Vec::new() }))
                .collect(),
            rr: AtomicUsize::new(0),
            in_use: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
        }
    }

    fn bump_usage(&self) {
        let now = self.in_use.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Allocate a block on a specific disk (reuses freed slots first).
    pub fn alloc_on(&self, disk: usize) -> BlockId {
        let mut d = self.disks[disk].lock().unwrap_or_else(PoisonError::into_inner);
        let slot = d.free.pop().unwrap_or_else(|| {
            let s = d.next;
            d.next = d.next.checked_add(1).expect("disk slot space exhausted");
            s
        });
        drop(d);
        self.bump_usage();
        BlockId::new(disk as u32, slot)
    }

    /// Allocate round-robin over disks — this is RAID-0 striping
    /// ("the blocks on a PE are striped over the local disks").
    pub fn alloc_striped(&self) -> BlockId {
        let disk = self.rr.fetch_add(1, Ordering::Relaxed) % self.disks.len();
        self.alloc_on(disk)
    }

    /// Return a block to its disk's free list.
    pub fn free(&self, id: BlockId) {
        let mut d = self.disks[id.disk as usize].lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(id.slot < d.next, "freeing never-allocated block {id}");
        debug_assert!(!d.free.contains(&id.slot), "double free of {id}");
        d.free.push(id.slot);
        drop(d);
        self.in_use.fetch_sub(1, Ordering::Relaxed);
    }

    /// Blocks currently allocated.
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// Maximum simultaneous allocation ever observed (for space-bound
    /// assertions).
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Number of disks.
    pub fn disks(&self) -> usize {
        self.disks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn striped_allocation_round_robins() {
        let a = BlockAllocator::new(4);
        let ids: Vec<BlockId> = (0..8).map(|_| a.alloc_striped()).collect();
        let disks: Vec<u32> = ids.iter().map(|b| b.disk).collect();
        assert_eq!(disks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert!(ids.iter().collect::<HashSet<_>>().len() == 8, "ids unique");
    }

    #[test]
    fn free_list_recycles_slots() {
        let a = BlockAllocator::new(1);
        let b0 = a.alloc_on(0);
        let b1 = a.alloc_on(0);
        assert_eq!((b0.slot, b1.slot), (0, 1));
        a.free(b0);
        let b2 = a.alloc_on(0);
        assert_eq!(b2.slot, 0, "freed slot reused before fresh ones");
        assert_eq!(a.in_use(), 2);
    }

    #[test]
    fn high_water_tracks_peak() {
        let a = BlockAllocator::new(2);
        let ids: Vec<BlockId> = (0..10).map(|_| a.alloc_striped()).collect();
        assert_eq!(a.high_water(), 10);
        for id in ids {
            a.free(id);
        }
        assert_eq!(a.in_use(), 0);
        assert_eq!(a.high_water(), 10, "high water survives frees");
        let _keep = a.alloc_striped();
        assert_eq!(a.high_water(), 10);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_is_caught() {
        let a = BlockAllocator::new(1);
        let b = a.alloc_on(0);
        a.free(b);
        a.free(b);
    }
}
