//! Query response types and exact size accounting.

use lvq_bloom::BloomFilter;
use lvq_codec::{prealloc_elements, Decodable, DecodeError, Encodable, Reader};
use lvq_merkle::BmtProof;

use crate::batch::BatchQueryResponse;
use crate::fragment::BlockFragment;

/// One block's worth of a per-block response: the transmitted Bloom
/// filter (the light node only stores `H(BF)`) and the fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockEntry {
    /// The block's address Bloom filter.
    pub filter: BloomFilter,
    /// The block's fragment.
    pub fragment: BlockFragment,
}

impl Encodable for BlockEntry {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.filter.encode_into(out);
        self.fragment.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        self.filter.encoded_len() + self.fragment.encoded_len()
    }
}

impl Decodable for BlockEntry {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BlockEntry {
            filter: BloomFilter::decode_from(reader)?,
            fragment: BlockFragment::decode_from(reader)?,
        })
    }
}

/// Response of the per-block schemes (strawman, LVQ without BMT): one
/// entry per block, heights `1..=tip` in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerBlockResponse {
    /// One entry per block, in height order.
    pub entries: Vec<BlockEntry>,
}

impl Encodable for PerBlockResponse {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.entries.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        self.entries.encoded_len()
    }
}

impl Decodable for PerBlockResponse {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(PerBlockResponse {
            entries: Vec::<BlockEntry>::decode_from(reader)?,
        })
    }
}

/// One (sub-)segment of a BMT-scheme response: the merged BMT proof
/// plus a fragment for every failed leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentBundle {
    /// The merged BMT branch proof over the segment (paper Fig. 11).
    pub proof: BmtProof,
    /// `(height, fragment)` for each failed leaf, in height order.
    pub fragments: Vec<(u64, BlockFragment)>,
}

impl Encodable for SegmentBundle {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.proof.encode_into(out);
        encode_section(&self.fragments, out);
    }

    fn encoded_len(&self) -> usize {
        self.proof.encoded_len() + section_len(&self.fragments)
    }
}

impl Decodable for SegmentBundle {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SegmentBundle {
            proof: BmtProof::decode_from(reader)?,
            fragments: decode_section(reader)?,
        })
    }
}

/// The one element of a batch-of-one collection.
pub(crate) fn only<T>(mut one: Vec<T>) -> T {
    one.pop().expect("a batch of one")
}

/// Writes one address's fragment section: a count, then each
/// `(height, fragment)` pair.
pub(crate) fn encode_section(section: &[(u64, BlockFragment)], out: &mut Vec<u8>) {
    lvq_codec::write_compact_size(out, section.len() as u64);
    for (height, fragment) in section {
        lvq_codec::write_compact_size(out, *height);
        fragment.encode_into(out);
    }
}

/// The encoded length of [`encode_section`]'s output.
pub(crate) fn section_len(section: &[(u64, BlockFragment)]) -> usize {
    lvq_codec::compact_size_len(section.len() as u64)
        + section
            .iter()
            .map(|(h, f)| lvq_codec::compact_size_len(*h) + f.encoded_len())
            .sum::<usize>()
}

/// Reads one fragment section. The count is the peer's claim, so the
/// reservation is capped by the bytes left to read.
pub(crate) fn decode_section(
    reader: &mut Reader<'_>,
) -> Result<Vec<(u64, BlockFragment)>, DecodeError> {
    let count = reader.read_len()?;
    let size = std::mem::size_of::<(u64, BlockFragment)>();
    let mut section = Vec::with_capacity(prealloc_elements(count, reader.remaining(), size));
    for _ in 0..count {
        let height = lvq_codec::read_compact_size(reader)?;
        section.push((height, BlockFragment::decode_from(reader)?));
    }
    Ok(section)
}

/// Response of the BMT schemes (LVQ without SMT, full LVQ): one bundle
/// per (sub-)segment in the verifier's own division order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentedResponse {
    /// One bundle per segment, in segment order.
    pub segments: Vec<SegmentBundle>,
}

impl Encodable for SegmentedResponse {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.segments.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        self.segments.encoded_len()
    }
}

impl Decodable for SegmentedResponse {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SegmentedResponse {
            segments: Vec::<SegmentBundle>::decode_from(reader)?,
        })
    }
}

/// A complete query response — the object whose encoded size the paper's
/// evaluation measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResponse {
    /// Per-block schemes.
    PerBlock(PerBlockResponse),
    /// BMT schemes.
    Segmented(SegmentedResponse),
}

impl QueryResponse {
    /// Total response size in bytes — the paper's "size of query
    /// results".
    pub fn total_bytes(&self) -> u64 {
        self.encoded_len() as u64
    }

    /// Category-by-category size breakdown.
    pub fn size_breakdown(&self) -> SizeBreakdown {
        SizeBreakdown::of(self)
    }

    /// Re-tags the response to a batch of one into the single-address
    /// encoding, moving every filter and fragment: per-block entries
    /// carry their one fragment, and each segment's shared proof becomes
    /// a [`BmtProof`] whose leaf tags `positions` decide.
    pub(crate) fn from_batch_of_one(batch: BatchQueryResponse, positions: &[u64]) -> Self {
        match batch {
            BatchQueryResponse::PerBlock(r) => QueryResponse::PerBlock(PerBlockResponse {
                entries: r
                    .entries
                    .into_iter()
                    .map(|entry| BlockEntry {
                        filter: entry.filter,
                        fragment: only(entry.fragments),
                    })
                    .collect(),
            }),
            BatchQueryResponse::Segmented(r) => QueryResponse::Segmented(SegmentedResponse {
                segments: r
                    .segments
                    .into_iter()
                    .map(|bundle| SegmentBundle {
                        proof: BmtProof::from_batch_of_one(bundle.proof, positions),
                        fragments: only(bundle.sections),
                    })
                    .collect(),
            }),
        }
    }
}

impl Encodable for QueryResponse {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            QueryResponse::PerBlock(r) => {
                out.push(0);
                r.encode_into(out);
            }
            QueryResponse::Segmented(r) => {
                out.push(1);
                r.encode_into(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            QueryResponse::PerBlock(r) => r.encoded_len(),
            QueryResponse::Segmented(r) => r.encoded_len(),
        }
    }
}

impl Decodable for QueryResponse {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match reader.read_u8()? {
            0 => QueryResponse::PerBlock(PerBlockResponse::decode_from(reader)?),
            1 => QueryResponse::Segmented(SegmentedResponse::decode_from(reader)?),
            other => {
                return Err(DecodeError::InvalidValue {
                    what: "query response tag",
                    found: u64::from(other),
                })
            }
        })
    }
}

/// Byte-level decomposition of a response by payload category.
///
/// `bloom_filters + bmt_overhead` is the size of the BMT branches for
/// segmented responses (paper Fig. 14's numerator); for per-block
/// responses `bloom_filters` counts the transmitted per-block filters
/// instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SizeBreakdown {
    /// Bloom filter material (per-block filters or BMT endpoint
    /// filters).
    pub bloom_filters: u64,
    /// BMT proof hashes and tree-structure bytes.
    pub bmt_overhead: u64,
    /// SMT proofs (existence counts and inexistence adjacency pairs).
    pub smt_proofs: u64,
    /// Transaction Merkle branches.
    pub merkle_branches: u64,
    /// Raw transactions accompanying the branches.
    pub transactions: u64,
    /// Integral blocks (the strawman's FPM fallback).
    pub integral_blocks: u64,
    /// Tags, counts and other framing bytes.
    pub framing: u64,
}

impl SizeBreakdown {
    /// Computes the breakdown of a response. Category sums always equal
    /// [`QueryResponse::total_bytes`].
    pub fn of(response: &QueryResponse) -> SizeBreakdown {
        let mut b = SizeBreakdown::default();
        match response {
            QueryResponse::PerBlock(r) => {
                for entry in &r.entries {
                    b.bloom_filters += entry.filter.encoded_len() as u64;
                    b.add_fragment(&entry.fragment);
                }
            }
            QueryResponse::Segmented(r) => {
                for bundle in &r.segments {
                    // Everything in a proof but its filters: hashes and tags.
                    let filter_bytes = bundle.proof.stats().filter_bytes;
                    b.bloom_filters += filter_bytes;
                    b.bmt_overhead += bundle.proof.encoded_len() as u64 - filter_bytes;
                    for (_, fragment) in &bundle.fragments {
                        b.add_fragment(fragment);
                    }
                }
            }
        }
        b.framing = response.total_bytes() - b.categorised();
        b
    }

    fn add_fragment(&mut self, fragment: &BlockFragment) {
        match fragment {
            BlockFragment::Empty => {}
            BlockFragment::MerkleBranches(txs) => {
                for t in txs {
                    self.transactions += t.transaction.encoded_len() as u64;
                    self.merkle_branches += t.branch.encoded_len() as u64;
                }
            }
            BlockFragment::Existence(proof) => {
                self.smt_proofs += proof.smt.encoded_len() as u64;
                for t in &proof.transactions {
                    self.transactions += t.transaction.encoded_len() as u64;
                    self.merkle_branches += t.branch.encoded_len() as u64;
                }
            }
            BlockFragment::AbsenceSmt(proof) => {
                self.smt_proofs += proof.encoded_len() as u64;
            }
            BlockFragment::IntegralBlock(block) => {
                self.integral_blocks += block.encoded_len() as u64;
            }
        }
    }

    fn categorised(&self) -> u64 {
        self.bloom_filters
            + self.bmt_overhead
            + self.smt_proofs
            + self.merkle_branches
            + self.transactions
            + self.integral_blocks
    }

    /// Sum of all categories — equals the response's total size.
    pub fn total(&self) -> u64 {
        self.categorised() + self.framing
    }

    /// BMT branch bytes (filters + hashes + structure) — Fig. 14's
    /// numerator. Only meaningful for segmented responses.
    pub fn bmt_branch_bytes(&self) -> u64 {
        self.bloom_filters + self.bmt_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvq_bloom::BloomParams;
    use lvq_chain::{Address, Block, Transaction};
    use lvq_codec::decode_exact;
    use lvq_merkle::bmt::{self, Bmt, BmtSource};

    fn params() -> BloomParams {
        BloomParams::new(64, 2).unwrap()
    }

    fn per_block_response() -> QueryResponse {
        let block =
            Block::new_unchained(vec![Transaction::coinbase(Address::new("1Miner"), 50, 0)]);
        QueryResponse::PerBlock(PerBlockResponse {
            entries: vec![
                BlockEntry {
                    filter: BloomFilter::new(params()),
                    fragment: BlockFragment::Empty,
                },
                BlockEntry {
                    filter: BloomFilter::new(params()),
                    fragment: BlockFragment::IntegralBlock(Box::new(block)),
                },
            ],
        })
    }

    fn segmented_response() -> QueryResponse {
        let leaves = vec![BloomFilter::new(params()); 4];
        let tree = Bmt::build(1, leaves).unwrap();
        let positions = BloomFilter::bit_positions(tree.params(), b"probe");
        let proof = bmt::prove(&tree, &positions).unwrap();
        QueryResponse::Segmented(SegmentedResponse {
            segments: vec![SegmentBundle {
                proof,
                fragments: Vec::new(),
            }],
        })
    }

    #[test]
    fn roundtrip_both_kinds() {
        for response in [per_block_response(), segmented_response()] {
            let bytes = response.encode();
            assert_eq!(bytes.len(), response.encoded_len());
            assert_eq!(decode_exact::<QueryResponse>(&bytes).unwrap(), response);
        }
    }

    #[test]
    fn breakdown_sums_to_total() {
        for response in [per_block_response(), segmented_response()] {
            let b = response.size_breakdown();
            assert_eq!(b.total(), response.total_bytes());
        }
    }

    #[test]
    fn per_block_breakdown_categories() {
        let response = per_block_response();
        let b = response.size_breakdown();
        // Two transmitted filters.
        assert_eq!(
            b.bloom_filters,
            2 * BloomFilter::new(params()).encoded_len() as u64
        );
        assert!(b.integral_blocks > 0);
        assert_eq!(b.bmt_overhead, 0);
    }

    #[test]
    fn segmented_breakdown_categories() {
        let response = segmented_response();
        let b = response.size_breakdown();
        assert!(b.bloom_filters > 0, "endpoint filters counted");
        assert_eq!(b.integral_blocks, 0);
        assert_eq!(b.bmt_branch_bytes(), b.bloom_filters + b.bmt_overhead);
    }

    #[test]
    fn bad_response_tag_rejected() {
        assert!(decode_exact::<QueryResponse>(&[9]).is_err());
    }
}
