//! A corrupt count cannot make a decode reserve more memory than the
//! payload it came in.
//!
//! A count is checked at one byte per item, but an item may take more
//! room decoded than encoded (a NULL [`Value`] is one byte on the wire
//! and 24 in memory). A counting global allocator sums the bytes
//! requested while a `Column::Mixed` payload claiming 2²⁰ values, whose
//! first string runs past the end, decodes to `Truncated`. This file
//! holds a single `#[test]` so no concurrent test thread can pollute
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use suj_storage::snapshot::{ByteWriter, Codec};
use suj_storage::{Column, SnapshotError, Value};

struct CountingAllocator;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// and publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn corrupt_count_reserves_at_most_the_payload() {
    const VALUES: u64 = 1 << 20;
    let mut w = ByteWriter::new();
    3u8.encode(&mut w);
    VALUES.encode(&mut w);
    for _ in 0..1000 {
        Value::Null.encode(&mut w);
    }
    // A string tag, then a length far past the end.
    (3u8, u64::MAX >> 1).encode(&mut w);
    let mut payload = w.into_bytes();
    // Room for the claimed count at one byte per value, so the count
    // passes its check and only the string fails.
    payload.resize(9 + VALUES as usize, 0);

    let before = BYTES.load(Ordering::Relaxed);
    let decoded = Column::from_bytes(&payload);
    let requested = BYTES.load(Ordering::Relaxed) - before;
    assert!(matches!(decoded, Err(SnapshotError::Truncated)));
    assert!(
        requested <= payload.len() as u64,
        "decoding {} payload bytes requested {requested} bytes",
        payload.len()
    );
}
