//! Bloom filter parameters.

use lvq_codec::{Decodable, DecodeError, Encodable, Reader};

use crate::error::BloomError;

/// Largest filter a parameter set may describe, in bytes: 1 MiB, above
/// the 500 KB the paper's Fig. 13 sweeps, and small enough that
/// parameters read from a file or the wire cannot make a reader
/// allocate gigabytes.
pub(crate) const MAX_SIZE_BYTES: u32 = 1 << 20;

/// Most hash functions a parameter set may ask for — BIP 37's cap. Every
/// check collects its `k` bit positions up front, so an unbounded `k`
/// would be an unbounded allocation.
pub(crate) const MAX_HASHES: u32 = 50;

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
    /// Returns [`BloomError::SizeOutOfRange`] unless `size_bytes` is in
    /// `1..=1_048_576` and [`BloomError::HashesOutOfRange`] unless
    /// `hashes` is in `1..=50`.
    pub fn new(size_bytes: u32, hashes: u32) -> Result<Self, BloomError> {
        if !(1..=MAX_SIZE_BYTES).contains(&size_bytes) {
            return Err(BloomError::SizeOutOfRange);
        }
        if !(1..=MAX_HASHES).contains(&hashes) {
            return Err(BloomError::HashesOutOfRange);
        }
        Ok(BloomParams {
            size_bytes,
            hashes,
            tweak: 0,
        })
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
            .map_err(|e| match e {
                BloomError::SizeOutOfRange => DecodeError::InvalidValue {
                    what: "bloom filter size",
                    found: u64::from(size_bytes),
                },
                _ => DecodeError::InvalidValue {
                    what: "bloom hash count",
                    found: u64::from(hashes),
                },
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvq_codec::decode_exact;

    #[test]
    fn rejects_degenerate_params() {
        assert_eq!(BloomParams::new(0, 2), Err(BloomError::SizeOutOfRange));
        assert_eq!(BloomParams::new(10, 0), Err(BloomError::HashesOutOfRange));
        assert_eq!(
            BloomParams::new(MAX_SIZE_BYTES + 1, 2),
            Err(BloomError::SizeOutOfRange)
        );
        assert_eq!(
            BloomParams::new(10, MAX_HASHES + 1),
            Err(BloomError::HashesOutOfRange)
        );
        assert!(BloomParams::new(MAX_SIZE_BYTES, MAX_HASHES).is_ok());
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
        // So is a hash count past the cap, named as such.
        let mut bad = p.encode();
        bad[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_exact::<BloomParams>(&bad),
            Err(DecodeError::InvalidValue {
                what: "bloom hash count",
                found: u64::from(u32::MAX),
            })
        );
    }
}
