//! The [`BloomFilter`] bit vector.

use lvq_codec::{Decodable, DecodeError, Encodable, Reader};
use lvq_crypto::{murmur3_32, Hash256};

use crate::error::BloomError;
use crate::params::BloomParams;

/// Outcome of checking an item against a Bloom filter.
///
/// The paper's three cases (§III-B1) collapse to two at the filter level:
/// the filter alone cannot distinguish a true positive from a false
/// positive match, so a set bit pattern only ever means "possibly
/// present". Resolving `PossiblyPresent` into the paper's **existent** or
/// **FPM** case requires consulting the block body (full node) or an
/// SMT proof (light node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckOutcome {
    /// At least one of the item's bit positions is 0: the item is
    /// certainly not in the set (the paper's *inexistent case* — a
    /// successful check).
    DefinitelyAbsent,
    /// All of the item's bit positions are 1: the item may be in the set
    /// (*existent case*) or this may be a false positive match (*FPM
    /// case*). Either way, the paper calls this a failed check.
    PossiblyPresent,
}

impl CheckOutcome {
    /// True for [`CheckOutcome::DefinitelyAbsent`] — the paper's
    /// "successful check".
    pub fn is_clean(self) -> bool {
        matches!(self, CheckOutcome::DefinitelyAbsent)
    }
}

/// A Bloom filter with BIP 37 bit positions.
///
/// # Examples
///
/// ```
/// use lvq_bloom::{BloomFilter, BloomParams};
///
/// # fn main() -> Result<(), lvq_bloom::BloomError> {
/// let params = BloomParams::new(125, 3)?;
/// let mut a = BloomFilter::new(params);
/// let mut b = BloomFilter::new(params);
/// a.insert(b"x");
/// b.insert(b"y");
/// a.union_with(&b)?; // merge, as BMT parent nodes do
/// assert!(!a.check(b"x").is_clean());
/// assert!(!a.check(b"y").is_clean());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    params: BloomParams,
    bits: Vec<u8>,
}

impl BloomFilter {
    /// Creates an empty filter with the given parameters.
    pub fn new(params: BloomParams) -> Self {
        BloomFilter {
            bits: vec![0u8; params.size_bytes() as usize],
            params,
        }
    }

    /// The filter's parameters.
    pub fn params(&self) -> BloomParams {
        self.params
    }

    /// Computes the item's k bit positions — the paper's *checked bit
    /// positions* (CBP).
    ///
    /// Positions depend only on the parameters, not on the filter
    /// contents, so one computation serves an entire BMT descent.
    pub fn bit_positions(params: BloomParams, item: &[u8]) -> Vec<u64> {
        let m = params.bits();
        (0..params.hashes())
            .map(|i| u64::from(murmur3_32(item, params.seed(i))) % m)
            .collect()
    }

    /// Sets the item's bit positions.
    pub fn insert(&mut self, item: &[u8]) {
        for pos in Self::bit_positions(self.params, item) {
            self.set_bit(pos);
        }
    }

    /// Checks the item against the filter.
    pub fn check(&self, item: &[u8]) -> CheckOutcome {
        self.check_positions(&Self::bit_positions(self.params, item))
    }

    /// Checks pre-computed bit positions (see [`BloomFilter::bit_positions`]).
    pub fn check_positions(&self, positions: &[u64]) -> CheckOutcome {
        if positions.iter().all(|&p| self.get_bit(p)) {
            CheckOutcome::PossiblyPresent
        } else {
            CheckOutcome::DefinitelyAbsent
        }
    }

    /// Bitwise-ORs `other` into `self` (paper Eq. 3).
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::ParamsMismatch`] if the filters have
    /// different parameters.
    pub fn union_with(&mut self, other: &BloomFilter) -> Result<(), BloomError> {
        if self.params != other.params {
            return Err(BloomError::ParamsMismatch);
        }
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a |= b;
        }
        Ok(())
    }

    /// Returns the union of two filters without modifying either.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::ParamsMismatch`] if the filters have
    /// different parameters.
    pub fn union(a: &BloomFilter, b: &BloomFilter) -> Result<BloomFilter, BloomError> {
        let mut out = a.clone();
        out.union_with(b)?;
        Ok(out)
    }

    /// True if every set bit of `self` is also set in `other`.
    ///
    /// A child BMT node's filter is always a subset of its parent's; the
    /// verifier uses this as a sanity invariant.
    pub fn is_subset_of(&self, other: &BloomFilter) -> bool {
        self.params == other.params
            && self
                .bits
                .iter()
                .zip(other.bits.iter())
                .all(|(a, b)| a & !b == 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.bits
            .iter()
            .map(|b| u64::from(b.count_ones() as u8))
            .sum()
    }

    /// Fraction of set bits in `[0, 1]`.
    pub fn fill_ratio(&self) -> f64 {
        self.count_ones() as f64 / self.params.bits() as f64
    }

    /// True if no bits are set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&b| b == 0)
    }

    /// The raw bit-vector bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bits
    }

    /// SHA-256 of the bit vector — the commitment the strawman variant
    /// stores in headers, and the hash a leaf BMT node carries (Eq. 2,
    /// `l = 0` case uses the same digest input).
    pub fn content_hash(&self) -> Hash256 {
        Hash256::hash(&self.bits)
    }

    fn set_bit(&mut self, pos: u64) {
        self.bits[(pos / 8) as usize] |= 1 << (pos % 8);
    }

    fn get_bit(&self, pos: u64) -> bool {
        self.bits[(pos / 8) as usize] & (1 << (pos % 8)) != 0
    }
}

impl Encodable for BloomFilter {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.params.encode_into(out);
        self.bits.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        self.params.encoded_len() + self.bits.encoded_len()
    }
}

impl Decodable for BloomFilter {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let params = BloomParams::decode_from(reader)?;
        let bits = Vec::<u8>::decode_from(reader)?;
        if bits.len() != params.size_bytes() as usize {
            return Err(DecodeError::InvalidValue {
                what: "bloom filter bit vector length",
                found: bits.len() as u64,
            });
        }
        Ok(BloomFilter { params, bits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvq_codec::decode_exact;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn params() -> BloomParams {
        BloomParams::new(125, 3).unwrap()
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(params());
        for i in 0..100u32 {
            f.insert(&i.to_le_bytes());
        }
        for i in 0..100u32 {
            assert!(!f.check(&i.to_le_bytes()).is_clean());
        }
    }

    #[test]
    fn empty_filter_is_always_clean() {
        let f = BloomFilter::new(params());
        assert!(f.is_empty());
        for i in 0..50u32 {
            assert!(f.check(&i.to_le_bytes()).is_clean());
        }
    }

    #[test]
    fn union_contains_both_sides() {
        let mut a = BloomFilter::new(params());
        let mut b = BloomFilter::new(params());
        a.insert(b"left");
        b.insert(b"right");
        let u = BloomFilter::union(&a, &b).unwrap();
        assert!(!u.check(b"left").is_clean());
        assert!(!u.check(b"right").is_clean());
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
        assert!(!u.is_subset_of(&a) || u == a);
    }

    #[test]
    fn union_rejects_mismatched_params() {
        let a = BloomFilter::new(BloomParams::new(125, 3).unwrap());
        let b = BloomFilter::new(BloomParams::new(126, 3).unwrap());
        assert_eq!(BloomFilter::union(&a, &b), Err(BloomError::ParamsMismatch));
        let c = BloomFilter::new(BloomParams::new(125, 4).unwrap());
        assert_eq!(BloomFilter::union(&a, &c), Err(BloomError::ParamsMismatch));
        // Mismatched params are never subsets.
        assert!(!a.is_subset_of(&b));
    }

    #[test]
    fn positions_are_stable_and_in_range() {
        let p = params();
        let pos = BloomFilter::bit_positions(p, b"addr");
        assert_eq!(pos.len(), 3);
        assert_eq!(pos, BloomFilter::bit_positions(p, b"addr"));
        assert!(pos.iter().all(|&x| x < p.bits()));
    }

    #[test]
    fn tweak_changes_positions() {
        let a = BloomFilter::bit_positions(params(), b"addr");
        let b = BloomFilter::bit_positions(params().with_tweak(1), b"addr");
        assert_ne!(a, b);
    }

    #[test]
    fn content_hash_tracks_contents() {
        let mut f = BloomFilter::new(params());
        let h0 = f.content_hash();
        f.insert(b"x");
        assert_ne!(f.content_hash(), h0);
    }

    #[test]
    fn empirical_fpr_tracks_theory() {
        // Insert n items, probe with fresh items, compare to the closed
        // form within loose tolerance.
        let p = BloomParams::new(1_250, 2).unwrap(); // 10_000 bits
        let mut f = BloomFilter::new(p);
        let n = 2_000u32;
        for i in 0..n {
            f.insert(format!("member-{i}").as_bytes());
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let probes = 20_000;
        let mut hits = 0;
        for _ in 0..probes {
            let probe: u64 = rng.gen();
            if !f.check(format!("probe-{probe}").as_bytes()).is_clean() {
                hits += 1;
            }
        }
        let empirical = hits as f64 / probes as f64;
        let theoretical = crate::theoretical_fpr(p.bits(), p.hashes(), u64::from(n));
        assert!(
            (empirical - theoretical).abs() < 0.05,
            "empirical {empirical} vs theoretical {theoretical}"
        );
    }

    #[test]
    fn codec_roundtrip_and_length_check() {
        let mut f = BloomFilter::new(params());
        f.insert(b"wire");
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        assert_eq!(decode_exact::<BloomFilter>(&bytes).unwrap(), f);

        // Tamper the declared bit-vector length: rejected.
        let p = BloomParams::new(4, 1).unwrap();
        let mut buf = p.encode();
        vec![0u8; 3].encode_into(&mut buf);
        assert!(decode_exact::<BloomFilter>(&buf).is_err());
    }

    proptest! {
        #[test]
        fn inserted_items_always_match(items in proptest::collection::vec(any::<Vec<u8>>(), 0..50)) {
            let mut f = BloomFilter::new(params());
            for item in &items {
                f.insert(item);
            }
            for item in &items {
                prop_assert!(!f.check(item).is_clean());
            }
        }

        #[test]
        fn union_is_commutative_and_idempotent(
            xs in proptest::collection::vec(any::<u64>(), 0..30),
            ys in proptest::collection::vec(any::<u64>(), 0..30),
        ) {
            let mut a = BloomFilter::new(params());
            let mut b = BloomFilter::new(params());
            for x in &xs { a.insert(&x.to_le_bytes()); }
            for y in &ys { b.insert(&y.to_le_bytes()); }
            let ab = BloomFilter::union(&a, &b).unwrap();
            let ba = BloomFilter::union(&b, &a).unwrap();
            prop_assert_eq!(&ab, &ba);
            let aa = BloomFilter::union(&ab, &ab).unwrap();
            prop_assert_eq!(&aa, &ab);
        }

        #[test]
        fn count_ones_bounded_by_k_times_n(xs in proptest::collection::vec(any::<u32>(), 0..64)) {
            let mut f = BloomFilter::new(params());
            for x in &xs { f.insert(&x.to_le_bytes()); }
            prop_assert!(f.count_ones() <= 3 * xs.len() as u64);
        }
    }
}
