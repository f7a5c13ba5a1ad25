//! The workspace's one counting global allocator. Every
//! `tests/no_alloc.rs` suite includes this file as a module:
//!
//! ```ignore
//! #[path = "../../devshims/counting_alloc.rs"]
//! mod counting_alloc;
//! use counting_alloc::allocations_in;
//! ```
//!
//! The count is per thread: the test harness runs tests on parallel
//! threads, and a process-global counter would leak one test's
//! (legitimate) allocations into another's measurement window.
//! `Cell<usize>` needs no drop glue, so the TLS access itself never
//! allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// thread-local `Cell` whose access never allocates or unwinds.
// lint:allow(forbid-unsafe): GlobalAlloc is an unsafe trait; this counting shim only delegates to System
unsafe impl GlobalAlloc for CountingAlloc {
    // lint:allow(forbid-unsafe): signature dictated by the GlobalAlloc contract
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's `layout` obligations are `System`'s.
        unsafe { System.alloc(layout) } // lint:allow(forbid-unsafe): direct pass-through to the System allocator
    }
    // lint:allow(forbid-unsafe): signature dictated by the GlobalAlloc contract
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) } // lint:allow(forbid-unsafe): direct pass-through to the System allocator
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations this thread performed.
pub fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}
