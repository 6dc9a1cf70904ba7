//! A counting global allocator for the copy-budget tests: how many bytes a
//! closure allocates in buffers of at least one block.
//!
//! A test file installs it with
//! `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc;` and
//! holds one test, because the count is process-wide: no other test may
//! run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations of at least this many bytes are counted; `usize::MAX`
/// while no count is running.
static MIN_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Bytes requested in counted allocations.
static BYTES: AtomicUsize = AtomicUsize::new(0);

pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touched beside it are atomics and
// never allocate. `realloc` and `alloc_zeroed` keep their default
// definitions, which go through `alloc` and `dealloc` below.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= MIN_BYTES.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` and returns its result with the bytes it allocated in buffers
/// of at least `block` bytes, in blocks.
pub fn blocks_allocated<T>(block: usize, f: impl FnOnce() -> T) -> (T, f64) {
    BYTES.store(0, Ordering::SeqCst);
    MIN_BYTES.store(block, Ordering::SeqCst);
    let out = f();
    MIN_BYTES.store(usize::MAX, Ordering::SeqCst);
    (out, BYTES.load(Ordering::SeqCst) as f64 / block as f64)
}
