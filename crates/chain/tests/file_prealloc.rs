//! A chain file's block count and Bloom parameters are claims, not
//! sizes: a header that announces the maximal count and holds no block,
//! or a filter size or hash count past the Bloom caps, must fail to
//! decode in both loaders without memory being reserved for the claim.
//!
//! Its own test binary because it measures through the global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lvq_bloom::BloomParams;
use lvq_chain::file::{self, ChainFileError};
use lvq_chain::{Address, ChainBuilder, ChainParams, CommitmentPolicy, Transaction};
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

#[test]
fn out_of_range_bloom_params_fail_to_decode_before_any_filter_is_built() {
    let bloom = BloomParams::new(64, 2).unwrap();
    let params = ChainParams::new(bloom, 4, CommitmentPolicy::lvq()).unwrap();
    let mut builder = ChainBuilder::new(params).unwrap();
    builder
        .push_block(vec![Transaction::coinbase(Address::new("1Miner"), 50, 1)])
        .unwrap();
    let mut clean = Vec::new();
    file::save(&builder.finish(), &mut clean).unwrap();

    // The Bloom parameters follow the magic and the version: filter
    // size at bytes 8..12, hash count at 12..16.
    for field in [8..12, 12..16] {
        let mut bytes = clean.clone();
        bytes[field.clone()].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(
            matches!(
                file::load(&bytes[..]),
                Err(ChainFileError::Decode(DecodeError::InvalidValue { .. }))
            ),
            "bytes {field:?}"
        );
        assert!(
            matches!(
                file::load_trusted(&bytes[..]),
                Err(ChainFileError::Decode(DecodeError::InvalidValue { .. }))
            ),
            "bytes {field:?}"
        );
    }
    // A 4 GiB filter or 4 Gi bit positions per check were the claims.
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest < 1 << 20, "a single allocation of {largest} bytes");
}
