//! Device-memory accounting: a real first-fit free-list allocator.
//!
//! `harvest_engine::plan_activations` allocates its liveness intervals
//! through this pool to find a graph's activation peak; it sizes the pool
//! to the no-reuse total, so none of those allocations fails. The
//! out-of-memory wall the paper hits on the Jetson (Figs 5c, 6c, 8) is not
//! an allocation failure here but `harvest_perf::EngineMemoryModel::fits`.
//! The allocator maintains a sorted free list with coalescing, so
//! fragmentation behaviour is real rather than assumed.

use std::fmt;

/// An allocation handle: offset + size within the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Allocation {
    /// Byte offset within the pool.
    pub offset: u64,
    /// Size in bytes.
    pub size: u64,
}

/// Allocation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllocError {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes free (possibly fragmented).
    pub free: u64,
    /// Largest contiguous free block.
    pub largest_block: u64,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory: requested {} bytes, {} free (largest block {})",
            self.requested, self.free, self.largest_block
        )
    }
}

impl std::error::Error for AllocError {}

/// First-fit free-list allocator over a fixed-size pool.
#[derive(Clone, Debug)]
pub struct MemoryPool {
    capacity: u64,
    /// Sorted, non-adjacent (coalesced) free ranges as (offset, size).
    free_list: Vec<(u64, u64)>,
    used: u64,
    peak: u64,
    alignment: u64,
}

impl MemoryPool {
    /// Pool of `capacity` bytes with 256-byte alignment (CUDA-like).
    pub fn new(capacity: u64) -> Self {
        Self::with_alignment(capacity, 256)
    }

    /// Pool with explicit alignment (must be a power of two).
    pub(crate) fn with_alignment(capacity: u64, alignment: u64) -> Self {
        assert!(
            alignment.is_power_of_two(),
            "alignment must be a power of two"
        );
        MemoryPool {
            capacity,
            free_list: vec![(0, capacity)],
            used: 0,
            peak: 0,
            alignment,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
    /// Bytes currently allocated (aligned sizes).
    pub fn used(&self) -> u64 {
        self.used
    }
    /// High-water mark.
    pub fn peak(&self) -> u64 {
        self.peak
    }
    /// Bytes free.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }
    /// Largest contiguous free block.
    pub fn largest_free_block(&self) -> u64 {
        self.free_list.iter().map(|&(_, s)| s).max().unwrap_or(0)
    }

    fn align_up(&self, v: u64) -> u64 {
        (v + self.alignment - 1) & !(self.alignment - 1)
    }

    /// Allocate `size` bytes (rounded up to alignment). First fit.
    pub fn alloc(&mut self, size: u64) -> Result<Allocation, AllocError> {
        let size = self.align_up(size.max(1));
        for i in 0..self.free_list.len() {
            let (off, block) = self.free_list[i];
            if block >= size {
                if block == size {
                    self.free_list.remove(i);
                } else {
                    self.free_list[i] = (off + size, block - size);
                }
                self.used += size;
                self.peak = self.peak.max(self.used);
                return Ok(Allocation { offset: off, size });
            }
        }
        Err(AllocError {
            requested: size,
            free: self.free(),
            largest_block: self.largest_free_block(),
        })
    }

    /// Release an allocation (coalescing with neighbours).
    ///
    /// Panics on double free or overlap — those are planner bugs we want
    /// loud.
    pub fn release(&mut self, a: Allocation) {
        assert!(
            a.offset + a.size <= self.capacity,
            "allocation outside pool"
        );
        // Find insertion point in sorted free list.
        let idx = self.free_list.partition_point(|&(off, _)| off < a.offset);
        if let Some(&(off, size)) = self.free_list.get(idx) {
            assert!(
                a.offset + a.size <= off,
                "release overlaps free block at {off}+{size}"
            );
        }
        if idx > 0 {
            let (poff, psize) = self.free_list[idx - 1];
            assert!(
                poff + psize <= a.offset,
                "release overlaps free block at {poff}+{psize}"
            );
        }
        self.free_list.insert(idx, (a.offset, a.size));
        self.used -= a.size;
        // Coalesce with next.
        if idx + 1 < self.free_list.len() {
            let (noff, nsize) = self.free_list[idx + 1];
            let (coff, csize) = self.free_list[idx];
            if coff + csize == noff {
                self.free_list[idx] = (coff, csize + nsize);
                self.free_list.remove(idx + 1);
            }
        }
        // Coalesce with previous.
        if idx > 0 {
            let (poff, psize) = self.free_list[idx - 1];
            let (coff, csize) = self.free_list[idx];
            if poff + psize == coff {
                self.free_list[idx - 1] = (poff, psize + csize);
                self.free_list.remove(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_alloc_free_cycle() {
        let mut pool = MemoryPool::new(1 << 20);
        let a = pool.alloc(1000).unwrap();
        assert_eq!(a.size, 1024); // aligned up
        assert_eq!(pool.used(), 1024);
        pool.release(a);
        assert_eq!(pool.used(), 0);
        assert_eq!(pool.largest_free_block(), 1 << 20);
    }

    #[test]
    fn exhaustion_returns_error_with_diagnostics() {
        let mut pool = MemoryPool::new(4096);
        let _a = pool.alloc(4096).unwrap();
        let err = pool.alloc(1).unwrap_err();
        assert_eq!(err.free, 0);
        assert_eq!(err.largest_block, 0);
        assert!(err.to_string().contains("out of device memory"));
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut pool = MemoryPool::new(1 << 20);
        let a = pool.alloc(512 * 1024).unwrap();
        let b = pool.alloc(256 * 1024).unwrap();
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.peak(), 768 * 1024);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn coalescing_restores_full_block() {
        let mut pool = MemoryPool::new(4096);
        let a = pool.alloc(1024).unwrap();
        let b = pool.alloc(1024).unwrap();
        let c = pool.alloc(1024).unwrap();
        // Free middle first, then neighbours: must coalesce fully.
        pool.release(b);
        pool.release(a);
        pool.release(c);
        assert_eq!(pool.largest_free_block(), 4096);
    }

    #[test]
    fn fragmented_pool_rejects_large_alloc_but_accepts_small() {
        let mut pool = MemoryPool::with_alignment(4096, 1);
        let blocks: Vec<_> = (0..4).map(|_| pool.alloc(1024).unwrap()).collect();
        // Free blocks 0 and 2: 2048 free but fragmented into 2×1024.
        pool.release(blocks[0]);
        pool.release(blocks[2]);
        assert_eq!(pool.free(), 2048);
        assert_eq!(pool.largest_free_block(), 1024);
        let err = pool.alloc(2048).unwrap_err();
        assert_eq!(err.largest_block, 1024);
        assert!(pool.alloc(1024).is_ok());
    }

    #[test]
    fn first_fit_reuses_freed_space() {
        let mut pool = MemoryPool::with_alignment(4096, 1);
        let a = pool.alloc(2048).unwrap();
        let _b = pool.alloc(2048).unwrap();
        pool.release(a);
        let c = pool.alloc(1000).unwrap();
        assert_eq!(c.offset, 0, "first fit starts at the front");
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn double_free_panics() {
        let mut pool = MemoryPool::new(4096);
        let a = pool.alloc(1024).unwrap();
        pool.release(a);
        pool.release(a);
    }

    #[test]
    fn alignment_is_respected() {
        let mut pool = MemoryPool::new(1 << 16);
        let a = pool.alloc(1).unwrap();
        let b = pool.alloc(1).unwrap();
        assert_eq!(a.size, 256);
        assert_eq!(b.offset % 256, 0);
    }
}
