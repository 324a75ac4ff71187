//! The [`BmtSource`] abstraction the prover descends over.

use lvq_bloom::{BloomFilter, BloomParams};
use lvq_crypto::Hash256;

/// Read access to one BMT's nodes, addressed by the inclusive range of
/// leaf ids a node spans.
///
/// Leaf ids are arbitrary consecutive integers — in LVQ they are block
/// heights, so a source spanning `(257, 384)` is the BMT that block 384
/// commits (it merges blocks 257–384, paper Table I/II).
///
/// The split design exists for memory: a 4,096-leaf BMT of 500 KB filters
/// holds ~4 GB of filter material if materialised. Implementations may
/// instead recompute `filter(lo, hi)` on demand (e.g. by inserting the
/// addresses of blocks `lo..=hi` into a fresh filter — bitwise OR of
/// per-block filters and direct insertion produce identical bit vectors)
/// while keeping only the 32-byte `node_hash` values, which the chain
/// stores for every dyadic span at build time.
///
/// # Contract
///
/// * `span()` covers `2^d` leaves for some `d ≥ 0`.
/// * `filter`/`node_hash` are only called with dyadic sub-spans of
///   `span()` and must be consistent with [`crate::bmt::leaf_hash`] /
///   [`crate::bmt::internal_hash`] over the same filters.
pub trait BmtSource {
    /// Parameters shared by every filter in the tree.
    fn params(&self) -> BloomParams;

    /// Inclusive range of leaf ids this tree covers.
    fn span(&self) -> (u64, u64);

    /// The filter of the node spanning leaves `lo..=hi`.
    fn filter(&self, lo: u64, hi: u64) -> BloomFilter;

    /// The hash of the node spanning leaves `lo..=hi`.
    fn node_hash(&self, lo: u64, hi: u64) -> Hash256;

    /// The root hash of the whole tree.
    fn root_hash(&self) -> Hash256 {
        let (lo, hi) = self.span();
        self.node_hash(lo, hi)
    }
}

impl<S: BmtSource + ?Sized> BmtSource for &S {
    fn params(&self) -> BloomParams {
        (**self).params()
    }

    fn span(&self) -> (u64, u64) {
        (**self).span()
    }

    fn filter(&self, lo: u64, hi: u64) -> BloomFilter {
        (**self).filter(lo, hi)
    }

    fn node_hash(&self, lo: u64, hi: u64) -> Hash256 {
        (**self).node_hash(lo, hi)
    }
}
