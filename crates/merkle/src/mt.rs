//! The plain Merkle tree over a block's transactions (paper §II-A).

use lvq_codec::{Decodable, DecodeError, Encodable, Reader};
use lvq_crypto::Hash256;

/// A Bitcoin-style binary Merkle tree.
///
/// Levels with an odd number of nodes duplicate their last node, exactly
/// as Bitcoin does. That rule makes branches alias (CVE-2012-2459): in a
/// tree of `n` leaves with `n` odd, leaf `n - 1`'s siblings also verify
/// it at index `n`, and [`MerkleBranch::compute_root`] ignores index bits
/// above the branch depth. No header commits a transaction count, so a
/// verifier cannot bound indices by one; it must instead reject indices
/// at or past `2^depth` and count *distinct transactions*, never
/// distinct indices (as `lvq-core`'s light client does).
///
/// An empty tree has the all-zero root; blocks always contain a coinbase
/// transaction, so this case never occurs on a well-formed chain.
///
/// # Examples
///
/// ```
/// use lvq_crypto::Hash256;
/// use lvq_merkle::MerkleTree;
///
/// let leaves: Vec<Hash256> = (0..3u8).map(|i| Hash256::hash(&[i])).collect();
/// let tree = MerkleTree::from_leaves(leaves.clone());
/// let branch = tree.branch(1).expect("in range");
/// assert!(branch.verify(&leaves[1], &tree.root()));
/// assert!(!branch.verify(&leaves[0], &tree.root()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    /// `levels[0]` is the leaf layer; the last level holds the root.
    levels: Vec<Vec<Hash256>>,
}

impl MerkleTree {
    /// Builds a tree over the given leaf hashes.
    pub fn from_leaves(leaves: Vec<Hash256>) -> Self {
        if leaves.is_empty() {
            return MerkleTree { levels: Vec::new() };
        }
        let mut levels = vec![leaves];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let left = &pair[0];
                // Odd level: duplicate the last node, Bitcoin-style.
                let right = pair.get(1).unwrap_or(left);
                next.push(Hash256::combine(left, right));
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The Merkle root (all-zero for an empty tree).
    pub fn root(&self) -> Hash256 {
        self.levels
            .last()
            .and_then(|l| l.first().copied())
            .unwrap_or(Hash256::ZERO)
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// True if the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The leaf hashes.
    pub fn leaves(&self) -> &[Hash256] {
        self.levels.first().map_or(&[], Vec::as_slice)
    }

    /// Produces the branch (the paper's *MBr*) for the leaf at `index`,
    /// or `None` if the index is out of range.
    pub fn branch(&self, index: usize) -> Option<MerkleBranch> {
        if index >= self.len() {
            return None;
        }
        let mut siblings = Vec::with_capacity(self.levels.len().saturating_sub(1));
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            // When the level is odd-sized and we're the trailing node, the
            // sibling is our own duplicate.
            let sibling = level.get(sibling_idx).unwrap_or(&level[idx]);
            siblings.push(*sibling);
            idx /= 2;
        }
        Some(MerkleBranch {
            leaf_index: index as u64,
            siblings,
        })
    }
}

/// A Merkle branch: the authentication path from one leaf to the root.
///
/// Paper §II-A: a branch proves *existence* of a transaction in a block;
/// it cannot prove inexistence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleBranch {
    leaf_index: u64,
    siblings: Vec<Hash256>,
}

impl MerkleBranch {
    /// Creates a branch from its parts (mainly useful in tests and
    /// adversarial simulations).
    pub fn from_parts(leaf_index: u64, siblings: Vec<Hash256>) -> Self {
        MerkleBranch {
            leaf_index,
            siblings,
        }
    }

    /// The index of the proven leaf.
    pub fn leaf_index(&self) -> u64 {
        self.leaf_index
    }

    /// The sibling hashes, leaf level first.
    pub fn siblings(&self) -> &[Hash256] {
        &self.siblings
    }

    /// Recomputes the root implied by `leaf` along this branch.
    pub fn compute_root(&self, leaf: &Hash256) -> Hash256 {
        let mut hash = *leaf;
        let mut idx = self.leaf_index;
        for sibling in &self.siblings {
            hash = if idx.is_multiple_of(2) {
                Hash256::combine(&hash, sibling)
            } else {
                Hash256::combine(sibling, &hash)
            };
            idx /= 2;
        }
        hash
    }

    /// True if `leaf` at this branch's index hashes up to `root`.
    pub fn verify(&self, leaf: &Hash256, root: &Hash256) -> bool {
        self.compute_root(leaf) == *root
    }
}

impl Encodable for MerkleBranch {
    fn encode_into(&self, out: &mut Vec<u8>) {
        lvq_codec::write_compact_size(out, self.leaf_index);
        self.siblings.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        lvq_codec::compact_size_len(self.leaf_index) + self.siblings.encoded_len()
    }
}

impl Decodable for MerkleBranch {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let leaf_index = lvq_codec::read_compact_size(reader)?;
        let siblings = Vec::<Hash256>::decode_from(reader)?;
        if siblings.len() > 64 {
            return Err(DecodeError::InvalidValue {
                what: "merkle branch depth",
                found: siblings.len() as u64,
            });
        }
        Ok(MerkleBranch {
            leaf_index,
            siblings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvq_codec::decode_exact;
    use proptest::prelude::*;

    fn leaves(n: usize) -> Vec<Hash256> {
        (0..n)
            .map(|i| Hash256::hash(&(i as u64).to_le_bytes()))
            .collect()
    }

    #[test]
    fn empty_tree() {
        let t = MerkleTree::from_leaves(Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.root(), Hash256::ZERO);
        assert!(t.branch(0).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let l = leaves(1);
        let t = MerkleTree::from_leaves(l.clone());
        assert_eq!(t.root(), l[0]);
        let b = t.branch(0).unwrap();
        assert!(b.siblings().is_empty());
        assert!(b.verify(&l[0], &t.root()));
    }

    #[test]
    fn two_leaves_root_is_combine() {
        let l = leaves(2);
        let t = MerkleTree::from_leaves(l.clone());
        assert_eq!(t.root(), Hash256::combine(&l[0], &l[1]));
    }

    #[test]
    fn odd_count_duplicates_last() {
        let l = leaves(3);
        let t = MerkleTree::from_leaves(l.clone());
        let right = Hash256::combine(&l[2], &l[2]);
        let left = Hash256::combine(&l[0], &l[1]);
        assert_eq!(t.root(), Hash256::combine(&left, &right));
    }

    #[test]
    fn all_branches_verify_for_various_sizes() {
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33] {
            let l = leaves(n);
            let t = MerkleTree::from_leaves(l.clone());
            for (i, leaf) in l.iter().enumerate() {
                let b = t.branch(i).unwrap();
                assert!(b.verify(leaf, &t.root()), "n={n} i={i}");
                assert_eq!(b.leaf_index(), i as u64);
            }
            assert!(t.branch(n).is_none());
        }
    }

    #[test]
    fn wrong_leaf_or_index_fails() {
        let l = leaves(8);
        let t = MerkleTree::from_leaves(l.clone());
        let b = t.branch(2).unwrap();
        assert!(!b.verify(&l[3], &t.root()));
        let moved = MerkleBranch::from_parts(3, b.siblings().to_vec());
        assert!(!moved.verify(&l[2], &t.root()));
    }

    #[test]
    fn branches_alias_past_the_end_and_above_the_depth() {
        // What a verifier must guard against itself: the duplicated last
        // leaf of an odd level, and index bits above the depth, both
        // re-prove a leaf at a second index.
        let l = leaves(3);
        let t = MerkleTree::from_leaves(l.clone());
        let b = t.branch(2).unwrap();
        let past_end = MerkleBranch::from_parts(3, b.siblings().to_vec());
        assert!(past_end.verify(&l[2], &t.root()));
        let above_depth =
            MerkleBranch::from_parts(2 + (1 << b.siblings().len()), b.siblings().to_vec());
        assert!(above_depth.verify(&l[2], &t.root()));
    }

    #[test]
    fn tampered_sibling_fails() {
        let l = leaves(8);
        let t = MerkleTree::from_leaves(l.clone());
        let b = t.branch(5).unwrap();
        let mut siblings = b.siblings().to_vec();
        siblings[1] = Hash256::hash(b"forged");
        let forged = MerkleBranch::from_parts(5, siblings);
        assert!(!forged.verify(&l[5], &t.root()));
    }

    #[test]
    fn codec_roundtrip() {
        let t = MerkleTree::from_leaves(leaves(11));
        let b = t.branch(9).unwrap();
        let bytes = b.encode();
        assert_eq!(bytes.len(), b.encoded_len());
        assert_eq!(decode_exact::<MerkleBranch>(&bytes).unwrap(), b);
    }

    #[test]
    fn decode_rejects_absurd_depth() {
        let deep = MerkleBranch::from_parts(0, vec![Hash256::ZERO; 65]);
        assert!(decode_exact::<MerkleBranch>(&deep.encode()).is_err());
    }

    proptest! {
        #[test]
        fn every_leaf_provable(n in 1usize..40, probe in 0usize..40) {
            let probe = probe % n;
            let l = leaves(n);
            let t = MerkleTree::from_leaves(l.clone());
            let b = t.branch(probe).unwrap();
            prop_assert!(b.verify(&l[probe], &t.root()));
        }

        #[test]
        fn root_is_sensitive_to_any_leaf(n in 2usize..24, victim in 0usize..24) {
            let victim = victim % n;
            let mut l = leaves(n);
            let before = MerkleTree::from_leaves(l.clone()).root();
            l[victim] = Hash256::hash(b"mutant");
            let after = MerkleTree::from_leaves(l).root();
            prop_assert_ne!(before, after);
        }
    }
}
