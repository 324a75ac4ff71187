//! A response's fragment and section counts are claims, not sizes: a
//! reply that announces the largest count a reader accepts and then
//! holds a few hundred kilobytes must fail to decode without memory
//! being reserved for the claim, for single-address and batch responses
//! alike.
//!
//! Its own test binary because it measures through the global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lvq_bloom::{BloomFilter, BloomParams};
use lvq_codec::{decode_exact, write_compact_size, DecodeError, Encodable, MAX_DECODE_LEN};
use lvq_core::{BatchQueryResponse, QueryResponse};
use lvq_merkle::bmt::{self, Bmt};

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

/// Bytes after the hostile count: each is a one-byte height followed by
/// an invalid fragment tag, so decoding stops at the first element.
const TAIL: usize = 256 * 1024;

/// A segmented response (`tag 1`, one bundle) up to and including its
/// proof, as either response kind encodes it.
fn prefix(proof: &impl Encodable) -> Vec<u8> {
    let mut bytes = vec![1];
    write_compact_size(&mut bytes, 1);
    proof.encode_into(&mut bytes);
    bytes
}

fn hostile(mut bytes: Vec<u8>) -> Vec<u8> {
    write_compact_size(&mut bytes, MAX_DECODE_LEN);
    bytes.resize(bytes.len() + TAIL, 9);
    bytes
}

fn positions() -> Vec<u64> {
    BloomFilter::bit_positions(params(), b"1Anyone")
}

fn params() -> BloomParams {
    BloomParams::new(8, 2).unwrap()
}

fn tree() -> Bmt {
    Bmt::build(1, vec![BloomFilter::new(params())]).unwrap()
}

fn assert_bounded(what: &str) {
    // The claims were 32 Mi fragments and 32 Mi sections; nothing a
    // decoder does with a quarter-megabyte reply needs a megabyte.
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < 1 << 20,
        "{what}: one allocation of {largest} bytes"
    );
}

#[test]
fn single_address_fragment_count_reserves_nothing() {
    let proof = bmt::prove(&tree(), &positions()).unwrap();
    let bytes = hostile(prefix(&proof));
    assert!(matches!(
        decode_exact::<QueryResponse>(&bytes),
        Err(DecodeError::InvalidValue { .. })
    ));
    assert_bounded("single-address fragments");
}

#[test]
fn batch_section_and_fragment_counts_reserve_nothing() {
    let proof = bmt::prove_multi(&tree(), &[positions()]).unwrap();
    // The section count, then one section's fragment count.
    let mut one_section = prefix(&proof);
    write_compact_size(&mut one_section, 1);
    for bytes in [hostile(prefix(&proof)), hostile(one_section)] {
        assert!(matches!(
            decode_exact::<BatchQueryResponse>(&bytes),
            Err(DecodeError::InvalidValue { .. })
        ));
    }
    assert_bounded("batch sections");
}
