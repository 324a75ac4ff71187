//! Incremental chain construction.

use std::sync::Arc;

use lvq_merkle::MerkleTree;

use crate::block::{table_filter, table_smt, Block};
use crate::chain::Chain;
use crate::error::ChainError;
use crate::header::{BlockHeader, HeaderCommitments};
use crate::params::ChainParams;
use crate::source::{BlockSource, InMemoryBlocks};
use crate::tables::InMemoryTables;
use crate::transaction::Transaction;

/// First block timestamp: late November 2012, the era of the paper's
/// mainnet range (heights 204,800–208,895).
const GENESIS_TIMESTAMP: u32 = 1_353_000_000;
/// Bitcoin's ten-minute target spacing.
const BLOCK_SPACING_SECS: u32 = 600;

/// Mints blocks onto an in-memory [`Chain`]: each pushed transaction
/// list gets a header carrying every commitment the configured
/// [`crate::CommitmentPolicy`] requires, and the chain records it
/// through the same step [`Chain::extend_one`] uses.
///
/// # Examples
///
/// ```
/// use lvq_chain::{Address, ChainBuilder, ChainParams, Transaction};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut builder = ChainBuilder::new(ChainParams::default())?;
/// for height in 1..=4u32 {
///     let coinbase = Transaction::coinbase(Address::new("1Miner"), 50, height);
///     builder.push_block(vec![coinbase])?;
/// }
/// let chain = builder.finish();
/// assert_eq!(chain.tip_height(), 4);
/// chain.validate()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ChainBuilder {
    chain: Chain,
}

impl ChainBuilder {
    /// Creates a builder over an empty chain.
    ///
    /// # Errors
    ///
    /// None today: an empty in-memory chain always assembles.
    pub fn new(params: ChainParams) -> Result<Self, ChainError> {
        let empty = Chain::from_restored_parts(
            params,
            Vec::new(),
            Default::default(),
            InMemoryBlocks::default(),
            InMemoryTables::new(),
        )?;
        ChainBuilder::resume(empty)
    }

    /// Resumes building on top of a finished chain — what a full node
    /// does when new blocks arrive after a restart. Appended blocks
    /// commit exactly as if the chain had been built in one go: the
    /// chain keeps its live BMT builder, or rebuilds it from its span
    /// hashes when the next block arrives.
    ///
    /// # Errors
    ///
    /// None today; a chain whose span hashes are inconsistent fails on
    /// the next [`ChainBuilder::push_block`] instead.
    pub fn resume(chain: Chain) -> Result<Self, ChainError> {
        Ok(ChainBuilder { chain })
    }

    /// The configuration this builder commits against.
    pub fn params(&self) -> ChainParams {
        self.chain.params()
    }

    /// Height the next pushed block will get.
    pub fn next_height(&self) -> u64 {
        self.chain.tip_height() + 1
    }

    /// Header of the most recently pushed block, if any.
    pub fn last_header(&self) -> Option<BlockHeader> {
        self.chain.headers.last().copied()
    }

    /// Appends a block containing `transactions` and returns its height.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::EmptyBlock`] for an empty transaction list
    /// and [`ChainError::MissingCoinbase`] if the first transaction is
    /// not a coinbase.
    pub fn push_block(&mut self, transactions: Vec<Transaction>) -> Result<u64, ChainError> {
        if transactions.is_empty() {
            return Err(ChainError::EmptyBlock);
        }
        if !transactions[0].is_coinbase() {
            return Err(ChainError::MissingCoinbase);
        }
        let height = self.next_height();
        let mut block = Block {
            header: BlockHeader {
                version: 2,
                prev_block: self.chain.tip_hash(),
                merkle_root: MerkleTree::from_leaves(
                    transactions.iter().map(Transaction::txid).collect(),
                )
                .root(),
                timestamp: GENESIS_TIMESTAMP
                    .wrapping_add(BLOCK_SPACING_SECS.wrapping_mul(height as u32)),
                bits: 0x1b00_8000,
                nonce: height as u32,
                commitments: HeaderCommitments::default(),
            },
            transactions,
        };

        // One address table feeds the filter, the SMT and the stored
        // per-block table; one filter feeds `bf_hash` and the BMT leaf.
        let params = self.chain.params();
        let table = block.address_counts();
        let filter = table_filter(params.bloom(), &table);
        let commitments = &mut block.header.commitments;
        if params.policy().bf_hash {
            commitments.bf_hash = Some(filter.content_hash());
        }
        if params.policy().smt {
            commitments.smt_commitment = Some(table_smt(&table)?.commitment());
        }
        let mut new_spans = Vec::new();
        if params.policy().bmt {
            let (root, spans) = self.chain.push_leaf(filter)?;
            commitments.bmt_root = Some(root);
            new_spans = spans;
        }

        self.chain.record(block.header, table, &new_spans)?;
        self.chain.source.push_block(Arc::new(block))?;
        Ok(height)
    }

    /// Finishes construction, handing back the chain the builder grew.
    pub fn finish(self) -> Chain {
        self.chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::params::CommitmentPolicy;
    use crate::transaction::{TxInput, TxOutPoint, TxOutput};
    use lvq_bloom::BloomParams;
    use lvq_crypto::Hash256;
    use lvq_merkle::bmt::{self, BmtSource};

    fn small_params(policy: CommitmentPolicy) -> ChainParams {
        ChainParams::new(BloomParams::new(128, 2).unwrap(), 8, policy).unwrap()
    }

    fn transfer(from: &str, to: &str, value: u64, salt: u32) -> Transaction {
        Transaction {
            version: 1,
            inputs: vec![TxInput {
                prev_out: TxOutPoint {
                    txid: Hash256::hash(&salt.to_le_bytes()),
                    vout: 0,
                },
                address: Address::new(from),
                value,
            }],
            outputs: vec![TxOutput {
                address: Address::new(to),
                value,
            }],
            lock_time: 0,
        }
    }

    fn build_chain(policy: CommitmentPolicy, blocks: u64) -> Chain {
        let mut builder = ChainBuilder::new(small_params(policy)).unwrap();
        for h in 1..=blocks {
            let mut txs = vec![Transaction::coinbase(Address::new("1Miner"), 50, h as u32)];
            txs.push(transfer(
                &format!("1From{h}"),
                &format!("1To{h}"),
                10,
                h as u32,
            ));
            if h % 3 == 0 {
                txs.push(transfer("1Busy", &format!("1To{h}x"), 1, h as u32 + 1000));
            }
            builder.push_block(txs).unwrap();
        }
        builder.finish()
    }

    #[test]
    fn all_policies_validate() {
        for policy in [
            CommitmentPolicy::strawman(),
            CommitmentPolicy::lvq_without_bmt(),
            CommitmentPolicy::lvq_without_smt(),
            CommitmentPolicy::lvq(),
        ] {
            let chain = build_chain(policy, 10);
            chain.validate().unwrap();
            assert_eq!(chain.tip_height(), 10);
        }
    }

    #[test]
    fn rejects_bad_blocks() {
        let mut builder = ChainBuilder::new(small_params(CommitmentPolicy::lvq())).unwrap();
        assert_eq!(
            builder.push_block(Vec::new()).unwrap_err(),
            ChainError::EmptyBlock
        );
        assert_eq!(
            builder
                .push_block(vec![transfer("1A", "1B", 1, 0)])
                .unwrap_err(),
            ChainError::MissingCoinbase
        );
    }

    #[test]
    fn headers_are_chained() {
        let chain = build_chain(CommitmentPolicy::lvq(), 5);
        for h in 2..=5u64 {
            assert_eq!(
                chain.header(h).unwrap().prev_block,
                chain.header(h - 1).unwrap().block_hash()
            );
        }
        assert_eq!(chain.header(1).unwrap().prev_block, Hash256::ZERO);
    }

    #[test]
    fn commitments_follow_policy() {
        let lvq = build_chain(CommitmentPolicy::lvq(), 3);
        let h = lvq.header(1).unwrap();
        assert!(h.commitments.bf_hash.is_none());
        assert!(h.commitments.bmt_root.is_some());
        assert!(h.commitments.smt_commitment.is_some());

        let strawman = build_chain(CommitmentPolicy::strawman(), 3);
        let h = strawman.header(1).unwrap();
        assert!(h.commitments.bf_hash.is_some());
        assert!(h.commitments.bmt_root.is_none());
        assert!(h.commitments.smt_commitment.is_none());
    }

    #[test]
    fn merged_ranges_follow_table_one() {
        let chain = build_chain(CommitmentPolicy::lvq(), 16);
        // M = 8; paper Table I within each segment.
        let expected = [
            (1u64, (1u64, 1u64)),
            (2, (1, 2)),
            (3, (3, 3)),
            (4, (1, 4)),
            (5, (5, 5)),
            (6, (5, 6)),
            (7, (7, 7)),
            (8, (1, 8)),
            (9, (9, 9)),
            (10, (9, 10)),
            (16, (9, 16)),
        ];
        for (height, range) in expected {
            assert_eq!(chain.merged_range(height), range, "height {height}");
        }
    }

    #[test]
    fn segment_source_matches_committed_roots() {
        let chain = build_chain(CommitmentPolicy::lvq(), 16);
        for height in [1u64, 2, 4, 8, 12, 16] {
            let (lo, hi) = chain.merged_range(height);
            let source = chain.segment_source(lo, hi).unwrap();
            assert_eq!(
                Some(source.root_hash()),
                chain.header(height).unwrap().commitments.bmt_root,
                "height {height}"
            );
        }
    }

    #[test]
    fn segment_source_proofs_verify() {
        let chain = build_chain(CommitmentPolicy::lvq(), 8);
        let params = chain.params().bloom();
        let absent = lvq_bloom::BloomFilter::bit_positions(params, b"1NotThere");
        let source = chain.segment_source(1, 8).unwrap();
        let proof = bmt::prove(&source, &absent).unwrap();
        let root = chain.header(8).unwrap().commitments.bmt_root.unwrap();
        let coverage = proof.verify(1, 8, &root, params, &absent).unwrap();
        assert!(coverage.covers(1, 8));

        // A present address must surface its blocks as failed leaves.
        let busy = lvq_bloom::BloomFilter::bit_positions(params, b"1Busy");
        let proof = bmt::prove(&source, &busy).unwrap();
        let coverage = proof.verify(1, 8, &root, params, &busy).unwrap();
        assert!(coverage.failed_leaves.contains(&3));
        assert!(coverage.failed_leaves.contains(&6));
    }

    #[test]
    fn leaf_filter_is_cached_and_consistent() {
        let chain = build_chain(CommitmentPolicy::lvq(), 4);
        let a = chain.leaf_filter(2).unwrap();
        let b = chain.leaf_filter(2).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, chain.span_filter(2, 2).unwrap());
        // Span filter equals OR of leaves.
        let mut expect = chain.leaf_filter(1).unwrap();
        expect.union_with(&chain.leaf_filter(2).unwrap()).unwrap();
        assert_eq!(chain.span_filter(1, 2).unwrap(), expect);
    }

    #[test]
    fn history_and_unknown_heights() {
        let chain = build_chain(CommitmentPolicy::lvq(), 9);
        let history = chain.history_of(&Address::new("1Busy"));
        let heights: Vec<u64> = history.iter().map(|(h, _)| *h).collect();
        assert_eq!(heights, vec![3, 6, 9]);
        assert!(chain.block(0).is_err());
        assert!(chain.block(10).is_err());
        assert!(chain.segment_source(1, 3).is_err()); // non-dyadic
    }

    #[test]
    fn resume_matches_straight_build() {
        for policy in [
            CommitmentPolicy::strawman(),
            CommitmentPolicy::lvq_without_bmt(),
            CommitmentPolicy::lvq_without_smt(),
            CommitmentPolicy::lvq(),
        ] {
            // 13 blocks straight vs. 13 = 9 + resume + 4.
            let straight = build_chain(policy, 13);

            let partial = build_chain(policy, 9);
            let mut resumed = ChainBuilder::resume(partial).unwrap();
            for h in 10..=13u64 {
                let mut txs = vec![Transaction::coinbase(Address::new("1Miner"), 50, h as u32)];
                txs.push(transfer(
                    &format!("1From{h}"),
                    &format!("1To{h}"),
                    10,
                    h as u32,
                ));
                if h % 3 == 0 {
                    txs.push(transfer("1Busy", &format!("1To{h}x"), 1, h as u32 + 1000));
                }
                resumed.push_block(txs).unwrap();
            }
            let resumed = resumed.finish();

            assert_eq!(resumed.tip_height(), 13);
            for h in 1..=13 {
                assert_eq!(
                    resumed.header(h).unwrap().block_hash(),
                    straight.header(h).unwrap().block_hash(),
                    "policy {policy:?} height {h}"
                );
            }
            resumed.validate().unwrap();
        }
    }

    #[test]
    fn resume_empty_chain() {
        let empty = ChainBuilder::new(small_params(CommitmentPolicy::lvq()))
            .unwrap()
            .finish();
        let mut builder = ChainBuilder::resume(empty).unwrap();
        builder
            .push_block(vec![Transaction::coinbase(Address::new("1M"), 50, 1)])
            .unwrap();
        let chain = builder.finish();
        chain.validate().unwrap();
    }

    #[test]
    fn resume_at_segment_boundary() {
        // M = 8; resuming at tip 8 (empty BMT stack) must still commit
        // block 9 as a fresh segment.
        let partial = build_chain(CommitmentPolicy::lvq(), 8);
        let mut builder = ChainBuilder::resume(partial).unwrap();
        builder
            .push_block(vec![Transaction::coinbase(Address::new("1M"), 50, 9)])
            .unwrap();
        let chain = builder.finish();
        assert_eq!(chain.merged_range(9), (9, 9));
        chain.validate().unwrap();
    }

    #[test]
    fn validate_detects_tampering() {
        let mut chain = build_chain(CommitmentPolicy::lvq(), 4);
        chain.validate().unwrap();
        // Tamper a transaction value without refreshing commitments.
        Arc::make_mut(&mut chain.source.blocks[1]).transactions[0].outputs[0].value += 1;
        assert!(matches!(
            chain.validate().unwrap_err(),
            ChainError::CommitmentMismatch { height: 2, .. }
                | ChainError::BrokenChainLink { height: 2 }
        ));
    }
}
