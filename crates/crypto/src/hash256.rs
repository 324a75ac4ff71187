//! The [`Hash256`] digest newtype.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use lvq_codec::{Decodable, DecodeError, Encodable, Reader};

use crate::hex;
use crate::sha256::{sha256, sha256d, Sha256};

/// A 32-byte digest.
///
/// Every commitment in the workspace — transaction ids, Merkle roots, SMT
/// and BMT roots, header hashes — is a `Hash256`. Displayed as lowercase
/// hex.
///
/// # Examples
///
/// ```
/// use lvq_crypto::Hash256;
///
/// let h = Hash256::hash(b"abc");
/// assert!(h.to_string().starts_with("ba7816bf"));
/// assert_eq!(h, h.to_string().parse().unwrap());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hash256([u8; 32]);

impl Hash256 {
    /// The all-zero digest, used as the previous-block hash of a genesis
    /// block.
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Length of a digest in bytes.
    pub const LEN: usize = 32;

    /// Single SHA-256 of `data`.
    pub fn hash(data: &[u8]) -> Hash256 {
        Hash256(sha256(data))
    }

    /// Bitcoin-style double SHA-256 of `data`.
    pub fn hash_double(data: &[u8]) -> Hash256 {
        Hash256(sha256d(data))
    }

    /// Hashes the concatenation of two digests: `SHA256(a || b)`.
    ///
    /// This is the Merkle-tree node combiner used across the workspace.
    pub fn combine(a: &Hash256, b: &Hash256) -> Hash256 {
        let mut h = Sha256::new();
        h.update(&a.0);
        h.update(&b.0);
        Hash256(h.finalize())
    }

    /// Hashes an arbitrary sequence of byte slices as one message.
    ///
    /// Used for domain constructions like the BMT node hash
    /// `H(h_left || h_right || bf)` (paper Eq. 2) where the parts have
    /// fixed or self-evident lengths.
    pub fn hash_parts(parts: &[&[u8]]) -> Hash256 {
        let mut h = Sha256::new();
        for part in parts {
            h.update(part);
        }
        Hash256(h.finalize())
    }

    /// Returns the digest bytes.
    pub const fn to_bytes(self) -> [u8; 32] {
        self.0
    }

    /// Borrows the digest bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// True if this is the all-zero digest.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }
}

impl From<Hash256> for [u8; 32] {
    fn from(h: Hash256) -> Self {
        h.0
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&hex::encode(&self.0))
    }
}

impl fmt::LowerHex for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&hex::encode(&self.0))
    }
}

/// Error returned when parsing a [`Hash256`] from hex fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseHashError;

impl fmt::Display for ParseHashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("expected 64 hexadecimal characters")
    }
}

impl Error for ParseHashError {}

impl FromStr for Hash256 {
    type Err = ParseHashError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 64 {
            return Err(ParseHashError);
        }
        let bytes = hex::decode(s).map_err(|_| ParseHashError)?;
        let mut out = [0u8; 32];
        out.copy_from_slice(&bytes);
        Ok(Hash256(out))
    }
}

impl Encodable for Hash256 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }

    fn encoded_len(&self) -> usize {
        32
    }
}

impl Decodable for Hash256 {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Hash256(reader.read_array()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvq_codec::decode_exact;

    #[test]
    fn display_and_parse_roundtrip() {
        let h = Hash256::hash(b"roundtrip");
        let parsed: Hash256 = h.to_string().parse().unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!("xyz".parse::<Hash256>().is_err());
        assert!("00".repeat(31).parse::<Hash256>().is_err());
        assert!(("0".repeat(63) + "g").parse::<Hash256>().is_err());
    }

    #[test]
    fn zero_is_zero() {
        assert!(Hash256::ZERO.is_zero());
        assert!(!Hash256::hash(b"").is_zero());
        assert_eq!(Hash256::default(), Hash256::ZERO);
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = Hash256::hash(b"a");
        let b = Hash256::hash(b"b");
        assert_ne!(Hash256::combine(&a, &b), Hash256::combine(&b, &a));
    }

    #[test]
    fn hash_parts_equals_concatenation() {
        let whole = Hash256::hash(b"hello world");
        let parts = Hash256::hash_parts(&[b"hello", b" ", b"world"]);
        assert_eq!(whole, parts);
    }

    #[test]
    fn codec_roundtrip() {
        let h = Hash256::hash(b"wire");
        assert_eq!(h.encoded_len(), 32);
        assert_eq!(decode_exact::<Hash256>(&h.encode()).unwrap(), h);
    }

    #[test]
    fn ordering_is_bytewise() {
        let a = Hash256::from([0u8; 32]);
        let mut big = [0u8; 32];
        big[0] = 1;
        assert!(a < Hash256::from(big));
    }
}
