//! The allocation-counting harness of the decoder-totality test
//! binaries: `crates/net/tests/decode_totality.rs` (wire and frame
//! decoders) and `crates/core/tests/journal_totality.rs` (the journal
//! decoder) each include this file as a module. Its counting global
//! allocator is why each is a test binary of its own: the counter sees
//! only the decodes made there. Counts are kept per thread, because the
//! tests of one binary run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The system allocator, counting the bytes each thread requests.
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // A thread being torn down has no counter left; nothing to bound.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `data` in hex, for failure messages.
pub fn hex(data: &[u8]) -> String {
    data.iter().map(|b| format!("{b:02x}")).collect()
}

/// Bit `i` (MSB-first) of `buf` flipped.
pub fn flipped(buf: &[u8], i: usize) -> Vec<u8> {
    let mut out = buf.to_vec();
    out[i / 8] ^= 0x80 >> (i % 8);
    out
}

/// Runs `f`, a decode of `input`, and checks the totality contract: no
/// panic, and at most `per_byte · input.len() + slack` bytes requested
/// from the allocator on this thread. Returns what `f` returned and the
/// bytes it requested.
pub fn within_bound<T>(
    what: &str,
    input: &[u8],
    per_byte: usize,
    slack: usize,
    f: impl FnOnce() -> T,
) -> (T, usize) {
    let before = REQUESTED.with(Cell::get);
    let result = catch_unwind(AssertUnwindSafe(f));
    let requested = REQUESTED.with(Cell::get) - before;
    let result = result.unwrap_or_else(|_| panic!("{what} panicked on {}", hex(input)));
    assert!(
        requested <= per_byte * input.len() + slack,
        "{what} of {} bytes requested {requested} bytes: {}",
        input.len(),
        hex(input)
    );
    (result, requested)
}
