//! Peak heap in use, counted by wrapping the system allocator.
//!
//! The benchmark reports this instead of the peak resident set: glibc
//! creates per-thread arenas nondeterministically, so VmHWM of ten runs of
//! the load workload ranged from 15.7 to 21.5 MB, while the bytes the
//! program holds do not move that way.
//!
//! Workloads call [`reset_peak`] before each measured unit, and
//! [`peak_mb`] reports the peak above the heap in use at that moment. What
//! the benchmark holds when the unit starts (its plan, replay pool, earlier
//! results) therefore does not count; what it allocates while the unit runs
//! does, so the serve workload keeps only a fixed-size record per request
//! during its pass.
//!
//! Each thread batches its net change and publishes it to the shared
//! total once it exceeds [`FLUSH`] bytes, so the count costs a
//! thread-local add per allocation and the peak is exact to within
//! `FLUSH` bytes per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, counting bytes in use.
pub struct Counting;

/// Net bytes a thread holds back before publishing them.
const FLUSH: isize = 16 << 10;

// Relaxed throughout: the two totals are statistics and publish no other
// data.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static BASE: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    // Const-initialized and without a destructor, so reaching it never
    // allocates (this runs inside the allocator).
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let publish = PENDING
        .try_with(|p| {
            let v = p.get() + delta;
            if v.abs() < FLUSH {
                p.set(v);
                None
            } else {
                p.set(0);
                Some(v)
            }
        })
        .unwrap_or(Some(delta));
    if let Some(v) = publish {
        let live = LIVE.fetch_add(v, Ordering::Relaxed) + v;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counting touches only
// atomics and a const thread-local, never the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Takes the heap in use now as the baseline and restarts the peak there.
pub fn reset_peak() {
    let live = LIVE.load(Ordering::Relaxed);
    BASE.store(live, Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
}

/// The most heap in use at once since the last [`reset_peak`], above the
/// heap in use at that call, in MiB.
pub fn peak_mb() -> f64 {
    let above = PEAK.load(Ordering::Relaxed) - BASE.load(Ordering::Relaxed);
    above.max(0) as f64 / f64::from(1 << 20)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_counts_from_the_reset_not_from_what_was_held() {
        // Other tests allocate on their own threads meanwhile, so the
        // margins allow a few MiB either way.
        let held = std::hint::black_box(vec![0u8; 32 << 20]);
        reset_peak();
        assert!(peak_mb() < 16.0, "{}", peak_mb());
        let v = std::hint::black_box(vec![0u8; 64 << 20]);
        assert!(peak_mb() > 60.0, "{}", peak_mb());
        drop((v, held));
    }
}
