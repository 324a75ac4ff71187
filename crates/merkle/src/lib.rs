//! The three authenticated tree structures of the LVQ paper.
//!
//! * [`mt`] — the plain **Merkle Tree** over a block's transactions
//!   (paper §II-A). Its branches prove *existence* of a transaction but
//!   cannot prove inexistence.
//! * [`smt`] — the **Sorted Merkle Tree** (paper §III-A, §IV-B2) over
//!   `(key, value)` leaves in lexicographic key order. Adjacent-leaf
//!   branch pairs prove *inexistence*, and a single branch proves a key's
//!   committed value (LVQ uses the value as the address's appearance
//!   count, solving Challenge 3).
//! * [`bmt`] — the **Bloom-filter-integrated Merkle Tree** (paper §III-B,
//!   §IV-B1): a perfect binary tree whose nodes carry Bloom filters, a
//!   parent's filter being the OR of its children (Eq. 3) and its hash
//!   binding child hashes and its own filter (Eq. 2). Merged pruned-tree
//!   branches prove inexistence across whole dyadic runs of blocks at the
//!   cost of one filter per *endpoint node*.
//!
//! # Examples
//!
//! Proving that a transaction is in a block:
//!
//! ```
//! use lvq_crypto::Hash256;
//! use lvq_merkle::mt::MerkleTree;
//!
//! let leaves: Vec<Hash256> = (0..5u8).map(|i| Hash256::hash(&[i])).collect();
//! let tree = MerkleTree::from_leaves(leaves.clone());
//! let branch = tree.branch(3).expect("index in range");
//! assert!(branch.verify(&leaves[3], &tree.root()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avl;
pub mod bmt;
pub mod mt;
pub mod smt;

pub use avl::{
    AvlError, AvlLink, AvlNode, AvlNodeStore, AvlProof, AvlProofStep, AvlTree, MemoryNodes,
    NodeAddr,
};
pub use bmt::{
    Bmt, BmtBatchProof, BmtBuilder, BmtCoverage, BmtError, BmtProof, BmtProofStats, BmtSource,
};
pub use mt::{MerkleBranch, MerkleTree};
pub use smt::{SmtBranch, SmtError, SmtProof, SmtProofKind, SortedMerkleTree};
