//! A counting global allocator: heap allocations and bytes requested by the
//! calling thread, as a noise-free proxy for per-packet cost.
//!
//! Counters are per thread, so a workload's numbers are not polluted by the
//! test harness's other threads, and cost one thread-local add per call.
//! This is the only module of the benchmark that contains `unsafe`.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator installed as `#[global_allocator]` in `main.rs`.
pub struct Counting;

thread_local! {
    // `const` initialisation and no destructor: touching this from inside
    // the allocator never allocates and never registers a TLS dtor.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

#[inline]
fn count(bytes: usize) {
    // `try_with` because the allocator also runs during thread teardown.
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are a side effect that
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` describe a live block of this allocator
        // (the caller's obligation), and `System` allocated it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls (alloc + alloc_zeroed + realloc) and bytes requested by
/// this thread so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCount {
    /// This thread's running totals.
    pub fn now() -> Self {
        let (allocs, bytes) = COUNTS.with(Cell::get);
        Self { allocs, bytes }
    }

    /// What this thread allocated since `earlier`.
    pub fn since(earlier: Self) -> Self {
        let now = Self::now();
        Self {
            allocs: now.allocs - earlier.allocs,
            bytes: now.bytes - earlier.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_known_vec_pattern_counts_exactly() {
        let before = AllocCount::now();
        let mut v: Vec<u8> = Vec::with_capacity(100); // 1 alloc, 100 B
        v.extend_from_slice(&[7; 100]);
        v.reserve_exact(150); // 1 realloc to 250 B
        let boxed = Box::new([0u64; 4]); // 1 alloc, 32 B
        let delta = AllocCount::since(before);
        assert_eq!(
            delta,
            AllocCount {
                allocs: 3,
                bytes: 100 + 250 + 32
            }
        );
        drop((v, boxed));
        // Frees are not counted.
        assert_eq!(AllocCount::since(before).allocs, 3);
    }

    #[test]
    fn no_allocation_no_count() {
        let before = AllocCount::now();
        let mut x = [0u64; 16];
        for (i, v) in x.iter_mut().enumerate() {
            *v = i as u64;
        }
        std::hint::black_box(&x);
        assert_eq!(AllocCount::since(before), AllocCount::default());
    }
}
