//! The Sorted Merkle Tree (paper §III-A, §IV-B2).
//!
//! Leaves are `(key, value)` pairs sorted by key; in LVQ the key is an
//! address and the value its appearance count in a block. Because leaves
//! are sorted and the commitment binds the leaf count, the tree supports
//! compact proofs of *both*:
//!
//! * **presence** — one branch reveals the committed value for a key
//!   (the count proof that solves the paper's Challenge 3), and
//! * **inexistence** — two branches for leaves at adjacent indices whose
//!   keys straddle the queried key (the paper's predecessor/successor
//!   proof, Fig. 9), with one-branch edge forms for keys below the first
//!   or above the last leaf and a trivial form for empty trees.
//!
//! Node hashes are domain-separated (leaf/internal/commitment tags) so no
//! encoding of one node kind collides with another, and the commitment is
//! `H(tag || root || leaf_count)` so branch indices are meaningful to a
//! verifier that holds only the 32-byte commitment.

use std::error::Error;
use std::fmt;

use lvq_codec::{Decodable, DecodeError, Encodable, Reader};
use lvq_crypto::Hash256;

/// Domain tag for leaf hashes.
const TAG_LEAF: u8 = 0x00;
/// Domain tag for internal node hashes.
const TAG_NODE: u8 = 0x01;
/// Domain tag for the sealed commitment.
const TAG_COMMIT: u8 = 0x02;

/// Maximum accepted branch depth when decoding untrusted proofs.
const MAX_DEPTH: usize = 64;

/// Errors produced while building SMTs or verifying SMT proofs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SmtError {
    /// Two entries shared a key at construction time.
    DuplicateKey,
    /// A branch's recomputed root did not match the commitment.
    CommitmentMismatch,
    /// A branch index was outside the committed leaf count.
    IndexOutOfRange,
    /// The two branches of an adjacency proof disagree structurally.
    NotAdjacent,
    /// The proof's key ordering does not place the queried key where the
    /// proof claims (e.g. the "predecessor" is not smaller than the key).
    OrderViolation,
    /// The proof shape does not match the queried key (e.g. a presence
    /// proof for a different key).
    KeyMismatch,
}

impl fmt::Display for SmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            SmtError::DuplicateKey => "duplicate key in sorted merkle tree",
            SmtError::CommitmentMismatch => "branch does not match the smt commitment",
            SmtError::IndexOutOfRange => "branch index outside committed leaf count",
            SmtError::NotAdjacent => "inexistence branches are not at adjacent indices",
            SmtError::OrderViolation => "leaf keys do not straddle the queried key",
            SmtError::KeyMismatch => "proof is for a different key",
        };
        f.write_str(msg)
    }
}

impl Error for SmtError {}

fn leaf_hash(key: &[u8], value: u64) -> Hash256 {
    let mut buf = Vec::with_capacity(1 + 9 + key.len() + 8);
    buf.push(TAG_LEAF);
    lvq_codec::write_compact_size(&mut buf, key.len() as u64);
    buf.extend_from_slice(key);
    buf.extend_from_slice(&value.to_le_bytes());
    Hash256::hash(&buf)
}

fn node_hash(left: &Hash256, right: &Hash256) -> Hash256 {
    Hash256::hash_parts(&[&[TAG_NODE], left.as_bytes(), right.as_bytes()])
}

fn commitment_hash(root: &Hash256, leaf_count: u64) -> Hash256 {
    Hash256::hash_parts(&[&[TAG_COMMIT], root.as_bytes(), &leaf_count.to_le_bytes()])
}

/// A Sorted Merkle Tree over `(key, value)` pairs.
///
/// # Examples
///
/// ```
/// use lvq_merkle::smt::SortedMerkleTree;
///
/// # fn main() -> Result<(), lvq_merkle::SmtError> {
/// let tree = SortedMerkleTree::new(vec![
///     (b"addr1".to_vec(), 2),
///     (b"addr3".to_vec(), 1),
/// ])?;
/// let proof = tree.prove(b"addr2"); // inexistence via adjacency
/// assert_eq!(proof.verify(b"addr2", &tree.commitment())?, None);
/// let proof = tree.prove(b"addr1");
/// assert_eq!(proof.verify(b"addr1", &tree.commitment())?, Some(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SortedMerkleTree {
    /// Sorted `(key, value)` leaves.
    entries: Vec<(Vec<u8>, u64)>,
    /// `levels[0]` = leaf hashes; last level = root (absent when empty).
    levels: Vec<Vec<Hash256>>,
}

impl SortedMerkleTree {
    /// Builds a tree from unsorted entries.
    ///
    /// # Errors
    ///
    /// Returns [`SmtError::DuplicateKey`] if two entries share a key.
    pub fn new(mut entries: Vec<(Vec<u8>, u64)>) -> Result<Self, SmtError> {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        if entries.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(SmtError::DuplicateKey);
        }

        let mut levels = Vec::new();
        if !entries.is_empty() {
            let leaf_level: Vec<Hash256> = entries.iter().map(|(k, v)| leaf_hash(k, *v)).collect();
            levels.push(leaf_level);
            while levels.last().expect("non-empty").len() > 1 {
                let prev = levels.last().expect("non-empty");
                let mut next = Vec::with_capacity(prev.len().div_ceil(2));
                for pair in prev.chunks(2) {
                    let left = &pair[0];
                    let right = pair.get(1).unwrap_or(left);
                    next.push(node_hash(left, right));
                }
                levels.push(next);
            }
        }
        Ok(SortedMerkleTree { entries, levels })
    }

    /// An empty tree (a block with no addresses; only possible in tests).
    pub fn empty() -> Self {
        SortedMerkleTree {
            entries: Vec::new(),
            levels: Vec::new(),
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> u64 {
        self.entries.len() as u64
    }

    /// The raw tree root (all-zero when empty). Most callers want
    /// [`SortedMerkleTree::commitment`].
    pub fn root(&self) -> Hash256 {
        self.levels
            .last()
            .and_then(|l| l.first().copied())
            .unwrap_or(Hash256::ZERO)
    }

    /// The sealed commitment `H(tag || root || leaf_count)` stored in a
    /// block header.
    pub fn commitment(&self) -> Hash256 {
        commitment_hash(&self.root(), self.leaf_count())
    }

    /// The sorted entries.
    pub fn entries(&self) -> &[(Vec<u8>, u64)] {
        &self.entries
    }

    /// Looks up the committed value for `key`.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        self.entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Builds the branch for the leaf at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range (internal helper; the public
    /// entry point is [`SortedMerkleTree::prove`]).
    fn branch(&self, index: usize) -> SmtBranch {
        let (key, value) = self.entries[index].clone();
        let mut siblings = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = level.get(idx ^ 1).unwrap_or(&level[idx]);
            siblings.push(*sibling);
            idx /= 2;
        }
        SmtBranch {
            index: index as u64,
            key,
            value,
            siblings,
        }
    }

    /// Produces a presence or inexistence proof for `key`.
    pub fn prove(&self, key: &[u8]) -> SmtProof {
        let leaf_count = self.leaf_count();
        if self.entries.is_empty() {
            return SmtProof {
                leaf_count,
                kind: SmtProofKind::Empty,
            };
        }
        let kind = match self
            .entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
        {
            Ok(i) => SmtProofKind::Present(self.branch(i)),
            Err(0) => SmtProofKind::AbsentBelow {
                first: self.branch(0),
            },
            Err(i) if i == self.entries.len() => SmtProofKind::AbsentAbove {
                last: self.branch(self.entries.len() - 1),
            },
            Err(i) => SmtProofKind::AbsentBetween {
                predecessor: self.branch(i - 1),
                successor: self.branch(i),
            },
        };
        SmtProof { leaf_count, kind }
    }
}

/// One authentication path in an SMT, carrying its leaf data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmtBranch {
    index: u64,
    key: Vec<u8>,
    value: u64,
    siblings: Vec<Hash256>,
}

impl SmtBranch {
    /// Creates a branch from parts (tests and adversarial simulations).
    pub fn from_parts(index: u64, key: Vec<u8>, value: u64, siblings: Vec<Hash256>) -> Self {
        SmtBranch {
            index,
            key,
            value,
            siblings,
        }
    }

    /// The leaf index this branch claims.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The leaf's key.
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    /// The leaf's committed value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The sibling hashes, leaf level first.
    pub fn siblings(&self) -> &[Hash256] {
        &self.siblings
    }

    /// Recomputes the root implied by this branch.
    pub fn compute_root(&self) -> Hash256 {
        let mut hash = leaf_hash(&self.key, self.value);
        let mut idx = self.index;
        for sibling in &self.siblings {
            hash = if idx.is_multiple_of(2) {
                node_hash(&hash, sibling)
            } else {
                node_hash(sibling, &hash)
            };
            idx /= 2;
        }
        hash
    }

    /// Checks this branch against a sealed commitment.
    ///
    /// # Errors
    ///
    /// Returns [`SmtError::IndexOutOfRange`] if the index exceeds
    /// `leaf_count` (this also rejects Bitcoin's duplicate-last-leaf
    /// ambiguity) and [`SmtError::CommitmentMismatch`] if the recomputed
    /// commitment differs.
    pub fn verify(&self, commitment: &Hash256, leaf_count: u64) -> Result<(), SmtError> {
        if self.index >= leaf_count {
            return Err(SmtError::IndexOutOfRange);
        }
        if commitment_hash(&self.compute_root(), leaf_count) != *commitment {
            return Err(SmtError::CommitmentMismatch);
        }
        Ok(())
    }
}

impl Encodable for SmtBranch {
    fn encode_into(&self, out: &mut Vec<u8>) {
        lvq_codec::write_compact_size(out, self.index);
        self.key.encode_into(out);
        self.value.encode_into(out);
        self.siblings.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        lvq_codec::compact_size_len(self.index)
            + self.key.encoded_len()
            + self.value.encoded_len()
            + self.siblings.encoded_len()
    }
}

impl Decodable for SmtBranch {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let index = lvq_codec::read_compact_size(reader)?;
        let key = Vec::<u8>::decode_from(reader)?;
        let value = u64::decode_from(reader)?;
        let siblings = Vec::<Hash256>::decode_from(reader)?;
        if siblings.len() > MAX_DEPTH {
            return Err(DecodeError::InvalidValue {
                what: "smt branch depth",
                found: siblings.len() as u64,
            });
        }
        Ok(SmtBranch {
            index,
            key,
            value,
            siblings,
        })
    }
}

/// The shape of an SMT proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmtProofKind {
    /// The key is present with the branch's committed value.
    Present(SmtBranch),
    /// The key falls strictly between two adjacent leaves.
    AbsentBetween {
        /// Branch of the greatest leaf smaller than the key.
        predecessor: SmtBranch,
        /// Branch of the smallest leaf greater than the key.
        successor: SmtBranch,
    },
    /// The key is smaller than the first (index 0) leaf.
    AbsentBelow {
        /// Branch of the tree's first leaf.
        first: SmtBranch,
    },
    /// The key is greater than the last (index `count - 1`) leaf.
    AbsentAbove {
        /// Branch of the tree's last leaf.
        last: SmtBranch,
    },
    /// The tree is empty, so every key is absent.
    Empty,
}

/// A self-contained presence/inexistence proof for one key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmtProof {
    leaf_count: u64,
    kind: SmtProofKind,
}

impl SmtProof {
    /// Creates a proof from parts (tests and adversarial simulations).
    pub fn from_parts(leaf_count: u64, kind: SmtProofKind) -> Self {
        SmtProof { leaf_count, kind }
    }

    /// The committed leaf count this proof claims.
    pub fn leaf_count(&self) -> u64 {
        self.leaf_count
    }

    /// The proof's shape.
    pub fn kind(&self) -> &SmtProofKind {
        &self.kind
    }

    /// Verifies the proof for `key` against a sealed `commitment`.
    ///
    /// Returns `Some(value)` when the key is proven present with `value`,
    /// and `None` when it is proven absent.
    ///
    /// # Errors
    ///
    /// Returns an [`SmtError`] describing the first check that failed;
    /// a failed verification means the prover is faulty or malicious.
    pub fn verify(&self, key: &[u8], commitment: &Hash256) -> Result<Option<u64>, SmtError> {
        let count = self.leaf_count;
        match &self.kind {
            SmtProofKind::Present(branch) => {
                if branch.key() != key {
                    return Err(SmtError::KeyMismatch);
                }
                branch.verify(commitment, count)?;
                Ok(Some(branch.value()))
            }
            SmtProofKind::AbsentBetween {
                predecessor,
                successor,
            } => {
                if predecessor.index() + 1 != successor.index() {
                    return Err(SmtError::NotAdjacent);
                }
                if !(predecessor.key() < key && key < successor.key()) {
                    return Err(SmtError::OrderViolation);
                }
                predecessor.verify(commitment, count)?;
                successor.verify(commitment, count)?;
                Ok(None)
            }
            SmtProofKind::AbsentBelow { first } => {
                if first.index() != 0 {
                    return Err(SmtError::NotAdjacent);
                }
                if key >= first.key() {
                    return Err(SmtError::OrderViolation);
                }
                first.verify(commitment, count)?;
                Ok(None)
            }
            SmtProofKind::AbsentAbove { last } => {
                if count == 0 || last.index() != count - 1 {
                    return Err(SmtError::NotAdjacent);
                }
                if key <= last.key() {
                    return Err(SmtError::OrderViolation);
                }
                last.verify(commitment, count)?;
                Ok(None)
            }
            SmtProofKind::Empty => {
                if count != 0 || commitment_hash(&Hash256::ZERO, 0) != *commitment {
                    return Err(SmtError::CommitmentMismatch);
                }
                Ok(None)
            }
        }
    }
}

impl Encodable for SmtProof {
    fn encode_into(&self, out: &mut Vec<u8>) {
        lvq_codec::write_compact_size(out, self.leaf_count);
        match &self.kind {
            SmtProofKind::Present(b) => {
                out.push(0);
                b.encode_into(out);
            }
            SmtProofKind::AbsentBetween {
                predecessor,
                successor,
            } => {
                out.push(1);
                predecessor.encode_into(out);
                successor.encode_into(out);
            }
            SmtProofKind::AbsentBelow { first } => {
                out.push(2);
                first.encode_into(out);
            }
            SmtProofKind::AbsentAbove { last } => {
                out.push(3);
                last.encode_into(out);
            }
            SmtProofKind::Empty => out.push(4),
        }
    }

    fn encoded_len(&self) -> usize {
        lvq_codec::compact_size_len(self.leaf_count)
            + 1
            + match &self.kind {
                SmtProofKind::Present(b) => b.encoded_len(),
                SmtProofKind::AbsentBetween {
                    predecessor,
                    successor,
                } => predecessor.encoded_len() + successor.encoded_len(),
                SmtProofKind::AbsentBelow { first } => first.encoded_len(),
                SmtProofKind::AbsentAbove { last } => last.encoded_len(),
                SmtProofKind::Empty => 0,
            }
    }
}

impl Decodable for SmtProof {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let leaf_count = lvq_codec::read_compact_size(reader)?;
        let kind = match reader.read_u8()? {
            0 => SmtProofKind::Present(SmtBranch::decode_from(reader)?),
            1 => SmtProofKind::AbsentBetween {
                predecessor: SmtBranch::decode_from(reader)?,
                successor: SmtBranch::decode_from(reader)?,
            },
            2 => SmtProofKind::AbsentBelow {
                first: SmtBranch::decode_from(reader)?,
            },
            3 => SmtProofKind::AbsentAbove {
                last: SmtBranch::decode_from(reader)?,
            },
            4 => SmtProofKind::Empty,
            other => {
                return Err(DecodeError::InvalidValue {
                    what: "smt proof tag",
                    found: u64::from(other),
                })
            }
        };
        Ok(SmtProof { leaf_count, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvq_codec::decode_exact;
    use proptest::prelude::*;

    fn tree(keys: &[(&str, u64)]) -> SortedMerkleTree {
        SortedMerkleTree::new(
            keys.iter()
                .map(|(k, v)| (k.as_bytes().to_vec(), *v))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn rejects_duplicate_keys() {
        let result = SortedMerkleTree::new(vec![(b"a".to_vec(), 1), (b"a".to_vec(), 2)]);
        assert_eq!(result.unwrap_err(), SmtError::DuplicateKey);
    }

    #[test]
    fn entries_are_sorted_regardless_of_input_order() {
        let t = tree(&[("c", 3), ("a", 1), ("b", 2)]);
        let keys: Vec<&[u8]> = t.entries().iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"b", b"c"]);
    }

    #[test]
    fn presence_proof_roundtrip() {
        let t = tree(&[("addr1", 2), ("addr3", 1), ("addr5", 7)]);
        for (key, value) in [("addr1", 2u64), ("addr3", 1), ("addr5", 7)] {
            let proof = t.prove(key.as_bytes());
            assert_eq!(
                proof.verify(key.as_bytes(), &t.commitment()).unwrap(),
                Some(value)
            );
        }
    }

    #[test]
    fn absence_between() {
        let t = tree(&[("addr1", 2), ("addr3", 1), ("addr5", 7)]);
        let proof = t.prove(b"addr2");
        assert!(matches!(proof.kind(), SmtProofKind::AbsentBetween { .. }));
        assert_eq!(proof.verify(b"addr2", &t.commitment()).unwrap(), None);
    }

    #[test]
    fn absence_below_and_above() {
        let t = tree(&[("b", 1), ("c", 2)]);
        let below = t.prove(b"a");
        assert!(matches!(below.kind(), SmtProofKind::AbsentBelow { .. }));
        assert_eq!(below.verify(b"a", &t.commitment()).unwrap(), None);
        let above = t.prove(b"d");
        assert!(matches!(above.kind(), SmtProofKind::AbsentAbove { .. }));
        assert_eq!(above.verify(b"d", &t.commitment()).unwrap(), None);
    }

    #[test]
    fn empty_tree_proves_absence() {
        let t = SortedMerkleTree::empty();
        assert_eq!(t.leaf_count(), 0);
        let proof = t.prove(b"anything");
        assert_eq!(proof.verify(b"anything", &t.commitment()).unwrap(), None);
        // But an Empty proof against a non-empty commitment fails.
        let real = tree(&[("a", 1)]);
        assert_eq!(
            proof.verify(b"anything", &real.commitment()).unwrap_err(),
            SmtError::CommitmentMismatch
        );
    }

    #[test]
    fn forged_value_rejected() {
        let t = tree(&[("addr1", 2), ("addr3", 1)]);
        let proof = t.prove(b"addr1");
        let SmtProofKind::Present(branch) = proof.kind() else {
            panic!("expected presence proof");
        };
        let forged = SmtProof::from_parts(
            proof.leaf_count(),
            SmtProofKind::Present(SmtBranch::from_parts(
                branch.index(),
                branch.key().to_vec(),
                branch.value() + 1, // lie about the count
                branch.siblings().to_vec(),
            )),
        );
        assert_eq!(
            forged.verify(b"addr1", &t.commitment()).unwrap_err(),
            SmtError::CommitmentMismatch
        );
    }

    #[test]
    fn non_adjacent_pair_rejected() {
        let t = tree(&[("a", 1), ("c", 2), ("e", 3)]);
        // Honest adjacency proof for "b" uses indices 0 and 1; forge one
        // using indices 0 and 2 to "hide" leaf "c".
        let forged = SmtProof::from_parts(
            t.leaf_count(),
            SmtProofKind::AbsentBetween {
                predecessor: t.branch(0),
                successor: t.branch(2),
            },
        );
        assert_eq!(
            forged.verify(b"b", &t.commitment()).unwrap_err(),
            SmtError::NotAdjacent
        );
    }

    #[test]
    fn order_violation_rejected() {
        let t = tree(&[("a", 1), ("c", 2)]);
        let proof = t.prove(b"b");
        // The same proof cannot serve a key outside the interval.
        assert_eq!(
            proof.verify(b"d", &t.commitment()).unwrap_err(),
            SmtError::OrderViolation
        );
    }

    #[test]
    fn present_proof_for_wrong_key_rejected() {
        let t = tree(&[("a", 1), ("c", 2)]);
        let proof = t.prove(b"a");
        assert_eq!(
            proof.verify(b"c", &t.commitment()).unwrap_err(),
            SmtError::KeyMismatch
        );
    }

    #[test]
    fn duplicate_padding_cannot_fake_rightmost() {
        // Three leaves: level 0 pads [a,b,c] -> [a,b,c,c]. A branch for c
        // also hashes correctly at index 3, but index 3 >= leaf_count so
        // verification rejects it.
        let t = tree(&[("a", 1), ("b", 2), ("c", 3)]);
        let c = t.branch(2);
        let fake = SmtBranch::from_parts(3, c.key().to_vec(), c.value(), {
            // Sibling path for index 3: sibling is c itself at level 0,
            // then the (a,b) node.
            let mut sibs = vec![leaf_hash(b"c", 3)];
            sibs.push(node_hash(&leaf_hash(b"a", 1), &leaf_hash(b"b", 2)));
            sibs
        });
        // The hash path itself is consistent...
        assert_eq!(fake.compute_root(), t.root());
        // ...but the committed count kills it.
        assert_eq!(
            fake.verify(&t.commitment(), t.leaf_count()).unwrap_err(),
            SmtError::IndexOutOfRange
        );
    }

    #[test]
    fn codec_roundtrip_all_variants() {
        let t = tree(&[("a", 1), ("c", 2), ("e", 3)]);
        for key in [&b"a"[..], b"b", b"0", b"f"] {
            let proof = t.prove(key);
            let bytes = proof.encode();
            assert_eq!(bytes.len(), proof.encoded_len());
            assert_eq!(decode_exact::<SmtProof>(&bytes).unwrap(), proof);
        }
        let empty = SortedMerkleTree::empty().prove(b"x");
        assert_eq!(decode_exact::<SmtProof>(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let mut bytes = tree(&[("a", 1)]).prove(b"a").encode();
        bytes[1] = 9; // corrupt the kind tag (byte 0 is the leaf count)
        assert!(decode_exact::<SmtProof>(&bytes).is_err());
    }

    proptest! {
        #[test]
        fn every_key_decidable(
            entries in proptest::collection::btree_map(
                proptest::collection::vec(any::<u8>(), 1..8), 1u64..100, 0..20),
            probe in proptest::collection::vec(any::<u8>(), 1..8),
        ) {
            let expected = entries.get(&probe).copied();
            let t = SortedMerkleTree::new(entries.into_iter().collect()).unwrap();
            let proof = t.prove(&probe);
            prop_assert_eq!(proof.verify(&probe, &t.commitment()).unwrap(), expected);
        }

        #[test]
        fn proof_does_not_verify_against_other_tree(
            entries in proptest::collection::btree_map(
                proptest::collection::vec(any::<u8>(), 1..6), 1u64..10, 1..10),
            probe in proptest::collection::vec(any::<u8>(), 1..6),
        ) {
            let t = SortedMerkleTree::new(entries.clone().into_iter().collect()).unwrap();
            let mut other_entries = entries;
            other_entries.insert(vec![0xFE, 0xFE, 0xFE, 0xFE, 0xFE, 0xFE, 0xFE], 1);
            let other = SortedMerkleTree::new(other_entries.into_iter().collect()).unwrap();
            prop_assume!(t.commitment() != other.commitment());
            let proof = t.prove(&probe);
            prop_assert!(proof.verify(&probe, &other.commitment()).is_err());
        }
    }
}
