//! A chain file's block count is a claim, not a size: a header that
//! announces the maximal count and holds no block must fail to decode
//! in both loaders without memory being reserved for the claim.
//!
//! Its own test binary because it measures through the global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lvq_chain::file::{self, ChainFileError};
use lvq_chain::{ChainBuilder, ChainParams};
use lvq_codec::DecodeError;

/// The system allocator, remembering the largest single request.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; `realloc` and
// `alloc_zeroed` keep their defaults, which go through `alloc`.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

#[test]
fn maximal_block_count_without_blocks_reserves_nothing() {
    // An empty chain's file is exactly the prefix with a count of 0 in
    // its last byte; swap that for the largest count a reader accepts.
    let mut bytes = Vec::new();
    let empty = ChainBuilder::new(ChainParams::default()).unwrap().finish();
    file::save(&empty, &mut bytes).unwrap();
    assert_eq!(bytes.pop(), Some(0));
    lvq_codec::write_compact_size(&mut bytes, lvq_codec::MAX_DECODE_LEN);

    assert!(matches!(
        file::load(&bytes[..]),
        Err(ChainFileError::Decode(DecodeError::UnexpectedEof { .. }))
    ));
    assert!(matches!(
        file::load_trusted(&bytes[..]),
        Err(ChainFileError::Decode(DecodeError::UnexpectedEof { .. }))
    ));
    // 32 Mi claimed blocks would be gigabytes; nothing either loader
    // does with a 30-byte file needs a megabyte.
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest < 1 << 20, "a single allocation of {largest} bytes");
}
