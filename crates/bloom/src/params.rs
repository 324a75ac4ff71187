//! Bloom filter parameters.

use lvq_codec::{Decodable, DecodeError, Encodable, Reader};

use crate::analysis::optimal_k;
use crate::error::BloomError;

/// Size, hash count and tweak of a Bloom filter.
///
/// All filters participating in one BMT (or one chain configuration) share
/// the same parameters, so unions and membership checks are well-defined
/// across blocks.
///
/// # Examples
///
/// ```
/// use lvq_bloom::BloomParams;
///
/// # fn main() -> Result<(), lvq_bloom::BloomError> {
/// let params = BloomParams::new(10_000, 2)?; // the paper's 10 KB filter
/// assert_eq!(params.bits(), 80_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BloomParams {
    size_bytes: u32,
    hashes: u32,
    tweak: u32,
}

impl BloomParams {
    /// Creates parameters for a filter of `size_bytes` bytes with `hashes`
    /// hash functions and tweak 0.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::ZeroSize`] or [`BloomError::ZeroHashes`] for
    /// degenerate arguments.
    pub fn new(size_bytes: u32, hashes: u32) -> Result<Self, BloomError> {
        if size_bytes == 0 {
            return Err(BloomError::ZeroSize);
        }
        if hashes == 0 {
            return Err(BloomError::ZeroHashes);
        }
        Ok(BloomParams {
            size_bytes,
            hashes,
            tweak: 0,
        })
    }

    /// Creates parameters sized for `expected_items` at the
    /// information-theoretically optimal hash count.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::ZeroSize`] if `size_bytes` is zero.
    pub fn sized_for(size_bytes: u32, expected_items: u64) -> Result<Self, BloomError> {
        if size_bytes == 0 {
            return Err(BloomError::ZeroSize);
        }
        let k = optimal_k(u64::from(size_bytes) * 8, expected_items).max(1);
        BloomParams::new(size_bytes, k)
    }

    /// Returns a copy with the given BIP 37 tweak.
    pub fn with_tweak(mut self, tweak: u32) -> Self {
        self.tweak = tweak;
        self
    }

    /// Filter size in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.size_bytes
    }

    /// Filter size in bits (`8 * size_bytes`).
    pub fn bits(&self) -> u64 {
        u64::from(self.size_bytes) * 8
    }

    /// Number of hash functions `k`.
    pub fn hashes(&self) -> u32 {
        self.hashes
    }

    /// BIP 37 tweak mixed into every seed.
    pub fn tweak(&self) -> u32 {
        self.tweak
    }

    /// The murmur3 seed of hash function `i` (BIP 37 schedule).
    pub(crate) fn seed(&self, i: u32) -> u32 {
        i.wrapping_mul(0xFBA4_C795).wrapping_add(self.tweak)
    }
}

impl Encodable for BloomParams {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.size_bytes.encode_into(out);
        self.hashes.encode_into(out);
        self.tweak.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        12
    }
}

impl Decodable for BloomParams {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let size_bytes = u32::decode_from(reader)?;
        let hashes = u32::decode_from(reader)?;
        let tweak = u32::decode_from(reader)?;
        BloomParams::new(size_bytes, hashes)
            .map(|p| p.with_tweak(tweak))
            .map_err(|_| DecodeError::InvalidValue {
                what: "bloom params",
                found: u64::from(size_bytes.min(hashes)),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvq_codec::decode_exact;

    #[test]
    fn rejects_degenerate_params() {
        assert_eq!(BloomParams::new(0, 2), Err(BloomError::ZeroSize));
        assert_eq!(BloomParams::new(10, 0), Err(BloomError::ZeroHashes));
        assert_eq!(BloomParams::sized_for(0, 5), Err(BloomError::ZeroSize));
    }

    #[test]
    fn sized_for_uses_optimal_k() {
        // m = 80_000 bits, n = 10_000 items => k = round(ln2 * 8) = 6.
        let p = BloomParams::sized_for(10_000, 10_000).unwrap();
        assert_eq!(p.hashes(), 6);
        // Very large n still yields k >= 1.
        let p = BloomParams::sized_for(10, 1_000_000).unwrap();
        assert_eq!(p.hashes(), 1);
    }

    #[test]
    fn seed_schedule_is_bip37() {
        let p = BloomParams::new(100, 3).unwrap().with_tweak(7);
        assert_eq!(p.seed(0), 7);
        assert_eq!(p.seed(1), 0xFBA4_C795u32.wrapping_add(7));
        assert_eq!(p.seed(2), 0xFBA4_C795u32.wrapping_mul(2).wrapping_add(7));
    }

    #[test]
    fn codec_roundtrip_and_rejects_invalid() {
        let p = BloomParams::new(30_000, 2).unwrap().with_tweak(99);
        assert_eq!(decode_exact::<BloomParams>(&p.encode()).unwrap(), p);
        // Zero size on the wire is rejected.
        let bad = [0u8; 12];
        assert!(decode_exact::<BloomParams>(&bad).is_err());
    }
}
