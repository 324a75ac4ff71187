//! Blocks: header plus transaction body.

use lvq_bloom::{BloomFilter, BloomParams};
use lvq_codec::{Decodable, DecodeError, Encodable, Reader};
use lvq_crypto::Hash256;
use lvq_merkle::{MerkleTree, SmtError, SortedMerkleTree};

use crate::address::Address;
use crate::header::BlockHeader;
use crate::transaction::Transaction;

/// A block: header and transaction list.
///
/// The per-block derived structures the LVQ schemes commit to — the
/// transaction Merkle tree, the `(address, count)` table, the address
/// Bloom filter, and the SMT — are all recomputable from the body, and
/// the methods here are the single definitions both the chain builder
/// (committing) and the provers/verifiers (checking) use.
///
/// # Examples
///
/// ```
/// use lvq_chain::{Address, Block, Transaction};
///
/// let block = Block::new_unchained(vec![
///     Transaction::coinbase(Address::new("1Miner"), 50, 0),
/// ]);
/// assert_eq!(block.address_counts()[0].0.as_str(), "1Miner");
/// assert_eq!(block.address_counts()[0].1, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The block header.
    pub header: BlockHeader,
    /// The block body.
    pub transactions: Vec<Transaction>,
}

impl Block {
    /// Creates a block whose header carries only the transaction Merkle
    /// root (no chaining, no commitments). Useful for tests; real chains
    /// are assembled by [`crate::ChainBuilder`].
    pub fn new_unchained(transactions: Vec<Transaction>) -> Self {
        let merkle_root = Self::compute_tx_tree(&transactions).root();
        Block {
            header: BlockHeader {
                version: 2,
                prev_block: Hash256::ZERO,
                merkle_root,
                timestamp: 0,
                bits: 0,
                nonce: 0,
                commitments: Default::default(),
            },
            transactions,
        }
    }

    fn compute_tx_tree(transactions: &[Transaction]) -> MerkleTree {
        MerkleTree::from_leaves(transactions.iter().map(Transaction::txid).collect())
    }

    /// The Merkle tree over the block's transaction ids.
    pub fn tx_tree(&self) -> MerkleTree {
        Self::compute_tx_tree(&self.transactions)
    }

    /// Sorted `(address, count)` pairs, where count is the number of
    /// *distinct transactions* in this block involving the address (the
    /// appearance count the paper's SMT leaves record; see DESIGN.md
    /// interpretation 2).
    pub fn address_counts(&self) -> Vec<(Address, u64)> {
        let mut counts: std::collections::BTreeMap<&Address, u64> =
            std::collections::BTreeMap::new();
        for tx in &self.transactions {
            for addr in tx.addresses() {
                *counts.entry(addr).or_insert(0) += 1;
            }
        }
        counts.into_iter().map(|(a, c)| (a.clone(), c)).collect()
    }

    /// The block's address Bloom filter: every distinct address of every
    /// transaction, inserted into a fresh filter with the given
    /// parameters.
    pub fn address_filter(&self, params: BloomParams) -> BloomFilter {
        table_filter(params, &self.address_counts())
    }

    /// The block's sorted Merkle tree over `(address, count)` leaves.
    ///
    /// # Errors
    ///
    /// Never fails for a block (address keys are distinct by
    /// construction); the `Result` mirrors the tree's constructor.
    pub fn address_smt(&self) -> Result<SortedMerkleTree, SmtError> {
        table_smt(&self.address_counts())
    }

    /// Indices of the transactions involving `address`.
    pub fn tx_indices_for(&self, address: &Address) -> Vec<usize> {
        self.transactions
            .iter()
            .enumerate()
            .filter(|(_, tx)| tx.involves(address))
            .map(|(i, _)| i)
            .collect()
    }

    /// Total encoded size of the block — what returning an *integral
    /// block* (IB) fragment costs on the wire.
    pub fn integral_size(&self) -> usize {
        self.encoded_len()
    }
}

/// The Bloom filter over an address table — a block's BMT leaf and the
/// filter `bf_hash` commits to. Every address is inserted once; the
/// counts play no part.
pub(crate) fn table_filter(params: BloomParams, table: &[(Address, u64)]) -> BloomFilter {
    let mut filter = BloomFilter::new(params);
    for (addr, _) in table {
        filter.insert(addr.as_bytes());
    }
    filter
}

/// The sorted Merkle tree over an address table's `(address, count)`
/// leaves — the tree a header's SMT commitment commits to.
///
/// # Errors
///
/// Returns [`SmtError::DuplicateKey`] if the table repeats an address,
/// which a table from [`Block::address_counts`] never does.
pub(crate) fn table_smt(table: &[(Address, u64)]) -> Result<SortedMerkleTree, SmtError> {
    SortedMerkleTree::new(
        table
            .iter()
            .map(|(a, c)| (a.as_bytes().to_vec(), *c))
            .collect(),
    )
}

impl Encodable for Block {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.header.encode_into(out);
        self.transactions.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        self.header.encoded_len() + self.transactions.encoded_len()
    }
}

impl Decodable for Block {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Block {
            header: BlockHeader::decode_from(reader)?,
            transactions: Vec::<Transaction>::decode_from(reader)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{TxInput, TxOutPoint, TxOutput};
    use lvq_codec::decode_exact;

    fn tx(from: &str, to: &str, value: u64) -> Transaction {
        Transaction {
            version: 1,
            inputs: vec![TxInput {
                prev_out: TxOutPoint {
                    txid: Hash256::hash(from.as_bytes()),
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

    fn sample() -> Block {
        Block::new_unchained(vec![
            Transaction::coinbase(Address::new("1Miner"), 50, 0),
            tx("1Alice", "1Bob", 10),
            tx("1Alice", "1Carol", 5),
        ])
    }

    #[test]
    fn address_counts_are_per_distinct_tx() {
        let block = sample();
        let counts: Vec<(String, u64)> = block
            .address_counts()
            .iter()
            .map(|(a, c)| (a.as_str().to_string(), *c))
            .collect();
        let expected: Vec<(String, u64)> =
            [("1Alice", 2u64), ("1Bob", 1), ("1Carol", 1), ("1Miner", 1)]
                .iter()
                .map(|(a, c)| (a.to_string(), *c))
                .collect();
        assert_eq!(counts, expected);
    }

    #[test]
    fn self_transfer_counts_once_per_tx() {
        // An address in both input and output of one tx appears once.
        let block = Block::new_unchained(vec![tx("1Self", "1Self", 1)]);
        assert_eq!(block.address_counts(), vec![(Address::new("1Self"), 1)]);
    }

    #[test]
    fn filter_contains_every_address() {
        let block = sample();
        let params = BloomParams::new(64, 2).unwrap();
        let filter = block.address_filter(params);
        for (addr, _) in block.address_counts() {
            assert!(!filter.check(addr.as_bytes()).is_clean());
        }
    }

    #[test]
    fn smt_matches_counts() {
        let block = sample();
        let smt = block.address_smt().unwrap();
        assert_eq!(smt.leaf_count(), 4);
        assert_eq!(smt.get(b"1Alice"), Some(2));
        assert_eq!(smt.get(b"1Nobody"), None);
    }

    #[test]
    fn tx_indices_for_address() {
        let block = sample();
        assert_eq!(block.tx_indices_for(&Address::new("1Alice")), vec![1, 2]);
        assert_eq!(block.tx_indices_for(&Address::new("1Miner")), vec![0]);
        assert!(block.tx_indices_for(&Address::new("1Nobody")).is_empty());
    }

    #[test]
    fn merkle_root_commits_to_txids() {
        let block = sample();
        let tree = block.tx_tree();
        assert_eq!(block.header.merkle_root, tree.root());
        for (i, tx) in block.transactions.iter().enumerate() {
            let branch = tree.branch(i).unwrap();
            assert!(branch.verify(&tx.txid(), &block.header.merkle_root));
        }
    }

    #[test]
    fn codec_roundtrip_and_integral_size() {
        let block = sample();
        let bytes = block.encode();
        assert_eq!(bytes.len(), block.integral_size());
        assert_eq!(decode_exact::<Block>(&bytes).unwrap(), block);
    }
}
