//! Block headers with scheme-dependent commitments.

use lvq_codec::{Decodable, DecodeError, Encodable, Reader};
use lvq_crypto::Hash256;

/// Encoded size of the Bitcoin-compatible base fields (paper §II-A:
/// "size of the former is a constant of 80 bytes").
pub const BASE_HEADER_LEN: usize = 80;

/// The optional commitments a scheme adds to the base header.
///
/// | scheme (paper §VII-B)  | `bf_hash` | `bmt_root` | `smt_commitment` |
/// |------------------------|-----------|------------|------------------|
/// | strawman (variant)     | yes       | –          | –                |
/// | LVQ without BMT        | yes       | –          | yes              |
/// | LVQ without SMT        | –         | yes        | –                |
/// | LVQ                    | –         | yes        | yes              |
///
/// (The BMT root of a block that merges only itself is exactly `H(BF)`,
/// so BMT schemes do not need a separate `bf_hash`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeaderCommitments {
    /// `H(BF)` of this block's address Bloom filter (strawman schemes).
    pub bf_hash: Option<Hash256>,
    /// Root of the BMT this block commits (merging previous blocks per
    /// paper Table I).
    pub bmt_root: Option<Hash256>,
    /// Sealed commitment of this block's sorted `(address, count)` tree.
    pub smt_commitment: Option<Hash256>,
}

impl Encodable for HeaderCommitments {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.bf_hash.encode_into(out);
        self.bmt_root.encode_into(out);
        self.smt_commitment.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        self.bf_hash.encoded_len() + self.bmt_root.encoded_len() + self.smt_commitment.encoded_len()
    }
}

impl Decodable for HeaderCommitments {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(HeaderCommitments {
            bf_hash: Option::<Hash256>::decode_from(reader)?,
            bmt_root: Option::<Hash256>::decode_from(reader)?,
            smt_commitment: Option::<Hash256>::decode_from(reader)?,
        })
    }
}

/// A block header: Bitcoin's six base fields plus the LVQ commitments.
///
/// The header hash covers *everything*, commitments included, so a light
/// node that follows the (simulated) proof-of-work chain has agreed on
/// all roots a prover will later be checked against.
///
/// # Examples
///
/// ```
/// use lvq_chain::{BlockHeader, HeaderCommitments, BASE_HEADER_LEN};
/// use lvq_codec::Encodable;
/// use lvq_crypto::Hash256;
///
/// let header = BlockHeader {
///     version: 2,
///     prev_block: Hash256::ZERO,
///     merkle_root: Hash256::hash(b"txs"),
///     timestamp: 1_354_000_000,
///     bits: 0x1b00_8000,
///     nonce: 42,
///     commitments: HeaderCommitments::default(),
/// };
/// // No commitments: three absence bytes beyond Bitcoin's 80.
/// assert_eq!(header.encoded_len(), BASE_HEADER_LEN + 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// Block format version.
    pub version: u32,
    /// Hash of the previous block's header ([`Hash256::ZERO`] for the
    /// first block).
    pub prev_block: Hash256,
    /// Root of the Merkle tree over the block's transaction ids.
    pub merkle_root: Hash256,
    /// Unix timestamp.
    pub timestamp: u32,
    /// Difficulty target in compact form. Kept for layout fidelity; this
    /// reproduction does not grind proof-of-work (see DESIGN.md).
    pub bits: u32,
    /// Proof-of-work nonce (layout fidelity only).
    pub nonce: u32,
    /// The LVQ scheme commitments.
    pub commitments: HeaderCommitments,
}

impl BlockHeader {
    /// The header hash (double SHA-256 of the encoding, like Bitcoin).
    pub fn block_hash(&self) -> Hash256 {
        Hash256::hash_double(&self.encode())
    }

    /// Bytes a light node stores for this header — the quantity the
    /// paper's Challenge 1 is about.
    pub fn storage_len(&self) -> usize {
        self.encoded_len()
    }
}

impl Encodable for BlockHeader {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.version.encode_into(out);
        self.prev_block.encode_into(out);
        self.merkle_root.encode_into(out);
        self.timestamp.encode_into(out);
        self.bits.encode_into(out);
        self.nonce.encode_into(out);
        self.commitments.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        BASE_HEADER_LEN + self.commitments.encoded_len()
    }
}

impl Decodable for BlockHeader {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BlockHeader {
            version: u32::decode_from(reader)?,
            prev_block: Hash256::decode_from(reader)?,
            merkle_root: Hash256::decode_from(reader)?,
            timestamp: u32::decode_from(reader)?,
            bits: u32::decode_from(reader)?,
            nonce: u32::decode_from(reader)?,
            commitments: HeaderCommitments::decode_from(reader)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvq_codec::decode_exact;

    fn sample() -> BlockHeader {
        BlockHeader {
            version: 2,
            prev_block: Hash256::hash(b"prev"),
            merkle_root: Hash256::hash(b"mt"),
            timestamp: 1_354_000_000,
            bits: 0x1b00_8000,
            nonce: 7,
            commitments: HeaderCommitments {
                bf_hash: Some(Hash256::hash(b"bf")),
                bmt_root: None,
                smt_commitment: Some(Hash256::hash(b"smt")),
            },
        }
    }

    #[test]
    fn base_layout_is_80_bytes() {
        let mut h = sample();
        h.commitments = HeaderCommitments::default();
        assert_eq!(h.encoded_len(), 83); // 80 + 3 absence bytes
                                         // Each present commitment costs 32 extra bytes.
        h.commitments.bmt_root = Some(Hash256::ZERO);
        assert_eq!(h.encoded_len(), 83 + 32);
    }

    #[test]
    fn hash_covers_commitments() {
        let h = sample();
        let mut tweaked = h;
        tweaked.commitments.smt_commitment = Some(Hash256::hash(b"forged"));
        assert_ne!(h.block_hash(), tweaked.block_hash());
        let mut no_commit = h;
        no_commit.commitments.bf_hash = None;
        assert_ne!(h.block_hash(), no_commit.block_hash());
    }

    #[test]
    fn hash_covers_base_fields() {
        let h = sample();
        for field in 0..6 {
            let mut t = h;
            match field {
                0 => t.version += 1,
                1 => t.prev_block = Hash256::hash(b"x"),
                2 => t.merkle_root = Hash256::hash(b"x"),
                3 => t.timestamp += 1,
                4 => t.bits += 1,
                _ => t.nonce += 1,
            }
            assert_ne!(h.block_hash(), t.block_hash(), "field {field}");
        }
    }

    #[test]
    fn codec_roundtrip() {
        let h = sample();
        let bytes = h.encode();
        assert_eq!(bytes.len(), h.encoded_len());
        assert_eq!(decode_exact::<BlockHeader>(&bytes).unwrap(), h);
    }
}
