//! Merged BMT branch proofs (paper §III-B2, Fig. 4/5/11) and the one
//! verifier of both wire encodings.
//!
//! The paper's single-address proof is the batch of one of
//! [`prove_multi`](super::prove_multi), re-tagged into the four node
//! kinds of Fig. 11 ([`BmtProof::from_batch_of_one`]).

use std::borrow::Cow;

use lvq_bloom::{BloomFilter, BloomParams};
use lvq_codec::{Decodable, DecodeError, Encodable, Reader};
use lvq_crypto::Hash256;

use super::{
    internal_hash, is_power_of_two, leaf_hash, prove_multi, BmtBatchNode, BmtBatchProof, BmtError,
    BmtSource,
};

/// Maximum tree depth accepted when decoding untrusted proofs
/// (2^40 leaves is far beyond any chain length here).
pub(super) const MAX_DEPTH: u32 = 40;

/// One node of a pruned-subtree BMT proof.
///
/// The proof is the *merged* form of paper Fig. 11: instead of one branch
/// per endpoint, a single pruned copy of the tree is sent whose frontier
/// consists of endpoint nodes. Everything above the frontier is
/// recomputed by the verifier from Eq. 2/3, so interior hashes and
/// filters cost nothing on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmtProofNode {
    /// A leaf endpoint whose filter check is clean: the queried item is
    /// in none of the blocks this leaf covers.
    CleanLeaf {
        /// The leaf's filter.
        filter: BloomFilter,
    },
    /// An internal endpoint whose filter check is clean. Its two child
    /// hashes must be supplied (paper Fig. 4a) because the verifier
    /// cannot recompute them from a pruned subtree.
    CleanNode {
        /// The node's filter (OR of everything below it).
        filter: BloomFilter,
        /// Hash of the left child.
        left_hash: Hash256,
        /// Hash of the right child.
        right_hash: Hash256,
    },
    /// A leaf whose filter check failed — the paper's *existent* or *FPM*
    /// case. The block this leaf covers needs a block-level proof
    /// (SMT/MT branches or an integral block), supplied outside the BMT
    /// proof.
    FailedLeaf {
        /// The leaf's filter.
        filter: BloomFilter,
    },
    /// An expanded internal node: both children are present and the
    /// verifier recomputes this node's filter and hash from them.
    Branch {
        /// Left child subtree.
        left: Box<BmtProofNode>,
        /// Right child subtree.
        right: Box<BmtProofNode>,
    },
}

/// A merged inexistence proof for one BMT (one segment in LVQ).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BmtProof {
    root: BmtProofNode,
}

/// What a verified BMT proof establishes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BmtCoverage {
    /// Inclusive leaf-id ranges proven *not* to contain the item.
    pub clean_ranges: Vec<(u64, u64)>,
    /// Leaf ids whose filters matched; each needs a block-level proof.
    pub failed_leaves: Vec<u64>,
}

impl BmtCoverage {
    /// True if `clean_ranges` and `failed_leaves` jointly cover exactly
    /// `lo..=hi` — always the case for a proof that verified.
    pub fn covers(&self, lo: u64, hi: u64) -> bool {
        let mut edges: Vec<(u64, u64)> = self.clean_ranges.clone();
        edges.extend(self.failed_leaves.iter().map(|&l| (l, l)));
        edges.sort_unstable();
        let mut next = lo;
        for (a, b) in edges {
            if a != next || b < a {
                return false;
            }
            next = b + 1;
        }
        next == hi + 1
    }
}

/// Size and shape statistics of a proof, single-address or shared
/// (drives paper Figs. 14–16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BmtProofStats {
    /// Leaf endpoints, clean or failed.
    pub leaf_endpoints: u64,
    /// Internal endpoints clean for every queried position set.
    pub clean_nodes: u64,
    /// Expanded internal nodes.
    pub branch_nodes: u64,
    /// Bytes of Bloom filter material in the encoding.
    pub filter_bytes: u64,
    /// Bytes of child hashes in the encoding.
    pub hash_bytes: u64,
}

impl BmtProofStats {
    /// Total endpoint nodes — the quantity paper Figs. 15/16 plot.
    pub fn endpoint_count(&self) -> u64 {
        self.leaf_endpoints + self.clean_nodes
    }

    /// Accumulates another proof's statistics (for multi-segment
    /// queries).
    pub fn merge(&mut self, other: &BmtProofStats) {
        self.leaf_endpoints += other.leaf_endpoints;
        self.clean_nodes += other.clean_nodes;
        self.branch_nodes += other.branch_nodes;
        self.filter_bytes += other.filter_bytes;
        self.hash_bytes += other.hash_bytes;
    }

    /// The statistics of the proof tree under `node`.
    pub(super) fn of<N: ProofNode>(node: &N) -> Self {
        match node.view() {
            NodeView::Leaf(filter, _) => BmtProofStats {
                leaf_endpoints: 1,
                filter_bytes: filter.encoded_len() as u64,
                ..Self::default()
            },
            NodeView::CleanNode(filter, ..) => BmtProofStats {
                clean_nodes: 1,
                filter_bytes: filter.encoded_len() as u64,
                hash_bytes: 64,
                ..Self::default()
            },
            NodeView::Branch(left, right) => {
                let mut stats = Self::of(left);
                stats.merge(&Self::of(right));
                stats.branch_nodes += 1;
                stats
            }
        }
    }

    /// The encoded size of the tree these statistics describe: its
    /// filters and hashes plus one tag byte per node.
    pub(super) fn encoded_len(&self) -> usize {
        (self.leaf_endpoints
            + self.clean_nodes
            + self.branch_nodes
            + self.filter_bytes
            + self.hash_bytes) as usize
    }
}

/// A proof node as the verifier reads it. The two wire trees have the
/// same three shapes and differ only in whether a leaf states its
/// verdict as a tag.
pub(super) enum NodeView<'a, N> {
    /// A leaf endpoint and its single-address tag, `Some(failed)`;
    /// `None` in the shared encoding, where the verdict is per set.
    Leaf(&'a BloomFilter, Option<bool>),
    /// An internal endpoint claimed clean, with its child hashes.
    CleanNode(&'a BloomFilter, &'a Hash256, &'a Hash256),
    /// An expanded internal node.
    Branch(&'a N, &'a N),
}

/// A wire proof tree, borrowed as [`NodeView`]s.
pub(super) trait ProofNode: Sized {
    fn view(&self) -> NodeView<'_, Self>;
}

impl ProofNode for BmtProofNode {
    fn view(&self) -> NodeView<'_, Self> {
        match self {
            BmtProofNode::CleanLeaf { filter } => NodeView::Leaf(filter, Some(false)),
            BmtProofNode::FailedLeaf { filter } => NodeView::Leaf(filter, Some(true)),
            BmtProofNode::CleanNode {
                filter,
                left_hash,
                right_hash,
            } => NodeView::CleanNode(filter, left_hash, right_hash),
            BmtProofNode::Branch { left, right } => NodeView::Branch(left, right),
        }
    }
}

/// Verifies the proof under `root` against a committed BMT for every
/// position set at once — the one walk that recomputes a BMT root.
///
/// A node is accepted as clean for a set only if that set's positions
/// are not all set in its (hash-bound) filter; union cleanliness is not
/// enough (see [`prove_multi`]). A tagged leaf must carry the verdict
/// its own filter gives.
pub(super) fn verify_tree<N: ProofNode, P: AsRef<[u64]>>(
    root: &N,
    first_leaf: u64,
    leaf_count: u64,
    expected_root: &Hash256,
    params: BloomParams,
    position_sets: &[P],
) -> Result<Vec<BmtCoverage>, BmtError> {
    if !is_power_of_two(leaf_count) {
        return Err(BmtError::LeafCountNotPowerOfTwo { count: leaf_count });
    }
    let mut coverages = vec![BmtCoverage::default(); position_sets.len()];
    let (hash, _filter) = verify_node(
        root,
        first_leaf,
        first_leaf + leaf_count - 1,
        params,
        position_sets,
        &mut coverages,
    )?;
    if hash != *expected_root {
        return Err(BmtError::RootMismatch);
    }
    Ok(coverages)
}

fn verify_node<'a, N: ProofNode, P: AsRef<[u64]>>(
    node: &'a N,
    lo: u64,
    hi: u64,
    params: BloomParams,
    position_sets: &[P],
    coverages: &mut [BmtCoverage],
) -> Result<(Hash256, Cow<'a, BloomFilter>), BmtError> {
    let view = node.view();
    // A leaf endpoint sits exactly at leaf level, every other node above.
    if matches!(view, NodeView::Leaf(..)) != (lo == hi) {
        return Err(BmtError::MalformedProof {
            reason: "node kind does not match its tree level",
        });
    }
    if let NodeView::Leaf(filter, _) | NodeView::CleanNode(filter, ..) = view {
        if filter.params() != params {
            return Err(BmtError::ParamsMismatch);
        }
    }
    let (hash, filter) = match view {
        NodeView::Leaf(filter, tagged_failed) => {
            for (positions, coverage) in position_sets.iter().zip(coverages.iter_mut()) {
                match (
                    filter.check_positions(positions.as_ref()).is_clean(),
                    tagged_failed,
                ) {
                    (false, Some(false)) => return Err(BmtError::NotClean),
                    (true, Some(true)) => {
                        return Err(BmtError::MalformedProof {
                            reason: "failed leaf over a clean filter",
                        })
                    }
                    (true, _) => coverage.clean_ranges.push((lo, hi)),
                    (false, _) => coverage.failed_leaves.push(lo),
                }
            }
            (leaf_hash(filter), filter)
        }
        NodeView::CleanNode(filter, left_hash, right_hash) => {
            for (positions, coverage) in position_sets.iter().zip(coverages.iter_mut()) {
                if !filter.check_positions(positions.as_ref()).is_clean() {
                    return Err(BmtError::NotClean);
                }
                coverage.clean_ranges.push((lo, hi));
            }
            (internal_hash(left_hash, right_hash, filter), filter)
        }
        NodeView::Branch(left, right) => {
            let mid = lo + (hi - lo) / 2;
            let (lh, lf) = verify_node(left, lo, mid, params, position_sets, coverages)?;
            let (rh, rf) = verify_node(right, mid + 1, hi, params, position_sets, coverages)?;
            // Paper Eq. 3: the parent filter is the OR of its children.
            let filter = BloomFilter::union(&lf, &rf).map_err(|_| BmtError::ParamsMismatch)?;
            return Ok((internal_hash(&lh, &rh, &filter), Cow::Owned(filter)));
        }
    };
    Ok((hash, Cow::Borrowed(filter)))
}

impl BmtProof {
    /// Wraps a hand-built proof tree (tests and adversarial simulations).
    pub fn from_root(root: BmtProofNode) -> Self {
        BmtProof { root }
    }

    /// Re-tags the shared proof of a batch of one into the
    /// single-address encoding, moving every filter: a leaf becomes a
    /// [`BmtProofNode::CleanLeaf`] if `positions` are clean in its
    /// filter and a [`BmtProofNode::FailedLeaf`] if not.
    ///
    /// `positions` must be the one set `proof` was generated for.
    pub fn from_batch_of_one(proof: BmtBatchProof, positions: &[u64]) -> Self {
        fn retag(node: BmtBatchNode, positions: &[u64]) -> BmtProofNode {
            match node {
                BmtBatchNode::Leaf { filter } if filter.check_positions(positions).is_clean() => {
                    BmtProofNode::CleanLeaf { filter }
                }
                BmtBatchNode::Leaf { filter } => BmtProofNode::FailedLeaf { filter },
                BmtBatchNode::CleanNode {
                    filter,
                    left_hash,
                    right_hash,
                } => BmtProofNode::CleanNode {
                    filter,
                    left_hash,
                    right_hash,
                },
                BmtBatchNode::Branch { left, right } => BmtProofNode::Branch {
                    left: Box::new(retag(*left, positions)),
                    right: Box::new(retag(*right, positions)),
                },
            }
        }
        BmtProof {
            root: retag(proof.root, positions),
        }
    }

    /// The proof's root node.
    pub fn root(&self) -> &BmtProofNode {
        &self.root
    }

    /// Verifies the proof against a committed BMT.
    ///
    /// * `first_leaf`/`leaf_count` — the tree geometry the verifier
    ///   derived from its own headers (segment math, paper §V);
    /// * `expected_root` — the BMT root committed in the block header;
    /// * `params` — the chain's Bloom parameters;
    /// * `positions` — the queried item's checked bit positions.
    ///
    /// On success, returns which leaves are proven clean and which need
    /// block-level resolution.
    ///
    /// # Errors
    ///
    /// Returns a [`BmtError`] if the proof shape, cleanliness claims,
    /// leaf tags, parameters, or recomputed root hash are wrong.
    pub fn verify(
        &self,
        first_leaf: u64,
        leaf_count: u64,
        expected_root: &Hash256,
        params: BloomParams,
        positions: &[u64],
    ) -> Result<BmtCoverage, BmtError> {
        let sets = std::slice::from_ref(&positions);
        let mut coverages = verify_tree(
            &self.root,
            first_leaf,
            leaf_count,
            expected_root,
            params,
            sets,
        )?;
        Ok(coverages.remove(0))
    }

    /// Computes the proof's size and shape statistics.
    pub fn stats(&self) -> BmtProofStats {
        BmtProofStats::of(&self.root)
    }
}

/// Generates the merged inexistence proof for `positions` over `source`:
/// the shared descent of [`prove_multi`] for one set, re-tagged
/// ([`BmtProof::from_batch_of_one`]).
///
/// This is the full node's descent of paper §III-B2: starting at the
/// root, a node whose filter check is clean becomes an endpoint; a failed
/// internal node is expanded; a failed leaf is recorded for block-level
/// resolution.
///
/// # Errors
///
/// Returns [`BmtError::LeafCountNotPowerOfTwo`] if the source span is
/// not dyadic.
///
/// # Examples
///
/// See the [module documentation](crate::bmt).
pub fn prove<S: BmtSource + ?Sized>(source: &S, positions: &[u64]) -> Result<BmtProof, BmtError> {
    let proof = prove_multi(source, std::slice::from_ref(&positions))?;
    Ok(BmtProof::from_batch_of_one(proof, positions))
}

const TAG_CLEAN_LEAF: u8 = 0;
const TAG_CLEAN_NODE: u8 = 1;
const TAG_FAILED_LEAF: u8 = 2;
const TAG_BRANCH: u8 = 3;

impl Encodable for BmtProofNode {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            BmtProofNode::CleanLeaf { filter } => {
                out.push(TAG_CLEAN_LEAF);
                filter.encode_into(out);
            }
            BmtProofNode::CleanNode {
                filter,
                left_hash,
                right_hash,
            } => {
                out.push(TAG_CLEAN_NODE);
                filter.encode_into(out);
                left_hash.encode_into(out);
                right_hash.encode_into(out);
            }
            BmtProofNode::FailedLeaf { filter } => {
                out.push(TAG_FAILED_LEAF);
                filter.encode_into(out);
            }
            BmtProofNode::Branch { left, right } => {
                out.push(TAG_BRANCH);
                left.encode_into(out);
                right.encode_into(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        BmtProofStats::of(self).encoded_len()
    }
}

impl BmtProofNode {
    fn decode_bounded(reader: &mut Reader<'_>, depth: u32) -> Result<Self, DecodeError> {
        if depth > MAX_DEPTH {
            return Err(DecodeError::InvalidValue {
                what: "bmt proof depth",
                found: u64::from(depth),
            });
        }
        Ok(match reader.read_u8()? {
            TAG_CLEAN_LEAF => BmtProofNode::CleanLeaf {
                filter: BloomFilter::decode_from(reader)?,
            },
            TAG_CLEAN_NODE => BmtProofNode::CleanNode {
                filter: BloomFilter::decode_from(reader)?,
                left_hash: Hash256::decode_from(reader)?,
                right_hash: Hash256::decode_from(reader)?,
            },
            TAG_FAILED_LEAF => BmtProofNode::FailedLeaf {
                filter: BloomFilter::decode_from(reader)?,
            },
            TAG_BRANCH => BmtProofNode::Branch {
                left: Box::new(Self::decode_bounded(reader, depth + 1)?),
                right: Box::new(Self::decode_bounded(reader, depth + 1)?),
            },
            other => {
                return Err(DecodeError::InvalidValue {
                    what: "bmt proof node tag",
                    found: u64::from(other),
                })
            }
        })
    }
}

impl Decodable for BmtProofNode {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Self::decode_bounded(reader, 0)
    }
}

impl Encodable for BmtProof {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.root.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        self.root.encoded_len()
    }
}

impl Decodable for BmtProof {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BmtProof {
            root: BmtProofNode::decode_from(reader)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::Bmt;
    use super::*;
    use lvq_codec::decode_exact;

    fn params() -> BloomParams {
        BloomParams::new(32, 2).unwrap()
    }

    /// Builds the paper's Fig. 3 tree: four leaf sets A–D.
    fn fig3_tree() -> Bmt {
        let sets: [&[&[u8]]; 4] = [&[b"a1", b"a2"], &[b"b1"], &[b"c1", b"c2", b"c3"], &[b"d1"]];
        let leaves = sets
            .iter()
            .map(|set| {
                let mut f = BloomFilter::new(params());
                for item in *set {
                    f.insert(item);
                }
                f
            })
            .collect();
        Bmt::build(1, leaves).unwrap()
    }

    fn positions_of(item: &[u8]) -> Vec<u64> {
        BloomFilter::bit_positions(params(), item)
    }

    #[test]
    fn absent_item_verifies_with_full_coverage() {
        let tree = fig3_tree();
        let positions = positions_of(b"e_c-not-there");
        let proof = prove(&tree, &positions).unwrap();
        let coverage = proof
            .verify(1, 4, &tree.root_hash(), params(), &positions)
            .unwrap();
        // Whatever mix of clean endpoints and (unlucky) FPM leaves the
        // filters produce, the coverage must tile the whole span.
        assert!(coverage.covers(1, 4));
    }

    #[test]
    fn present_item_surfaces_failed_leaf() {
        let tree = fig3_tree();
        let positions = positions_of(b"c2");
        let proof = prove(&tree, &positions).unwrap();
        let coverage = proof
            .verify(1, 4, &tree.root_hash(), params(), &positions)
            .unwrap();
        assert!(coverage.failed_leaves.contains(&3), "leaf 3 holds c2");
        assert!(coverage.covers(1, 4));
    }

    #[test]
    fn stats_count_endpoints() {
        let tree = fig3_tree();
        let positions = positions_of(b"c2");
        let proof = prove(&tree, &positions).unwrap();
        let stats = proof.stats();
        assert_eq!(
            stats.endpoint_count(),
            stats.leaf_endpoints + stats.clean_nodes
        );
        assert!(stats.endpoint_count() >= 1);
        assert!(stats.filter_bytes > 0);
        // Encoded size accounting is consistent.
        assert_eq!(proof.encode().len(), proof.encoded_len());
    }

    #[test]
    fn wrong_root_rejected() {
        let tree = fig3_tree();
        let positions = positions_of(b"nope");
        let proof = prove(&tree, &positions).unwrap();
        let bogus = Hash256::hash(b"bogus root");
        assert_eq!(
            proof
                .verify(1, 4, &bogus, params(), &positions)
                .unwrap_err(),
            BmtError::RootMismatch
        );
    }

    #[test]
    fn tampered_filter_rejected() {
        let tree = fig3_tree();
        let positions = positions_of(b"nope");
        let proof = prove(&tree, &positions).unwrap();

        fn tamper(node: &BmtProofNode) -> BmtProofNode {
            match node {
                BmtProofNode::CleanLeaf { filter } => {
                    let mut f = filter.clone();
                    f.insert(b"tampered");
                    BmtProofNode::CleanLeaf { filter: f }
                }
                BmtProofNode::CleanNode {
                    filter,
                    left_hash,
                    right_hash,
                } => {
                    let mut f = filter.clone();
                    f.insert(b"tampered");
                    BmtProofNode::CleanNode {
                        filter: f,
                        left_hash: *left_hash,
                        right_hash: *right_hash,
                    }
                }
                BmtProofNode::FailedLeaf { filter } => BmtProofNode::FailedLeaf {
                    filter: filter.clone(),
                },
                BmtProofNode::Branch { left, right } => BmtProofNode::Branch {
                    left: Box::new(tamper(left)),
                    right: right.clone(),
                },
            }
        }

        let forged = BmtProof::from_root(tamper(proof.root()));
        let err = forged
            .verify(1, 4, &tree.root_hash(), params(), &positions)
            .unwrap_err();
        // Either the tampered filter breaks the hash chain or it now
        // matches the query and fails the cleanliness check.
        assert!(matches!(err, BmtError::RootMismatch | BmtError::NotClean));
    }

    #[test]
    fn lying_about_cleanliness_rejected() {
        // A prover claims "clean" for an item that is actually present:
        // the filter it must present (bound by the root hash) matches the
        // query, so the verifier sees through it.
        let tree = fig3_tree();
        let positions = positions_of(b"b1"); // in leaf 2
        let honest = prove(&tree, &positions).unwrap();
        // Replace the failed leaf for block 2 with a clean claim carrying
        // the true filter.
        fn forge(node: &BmtProofNode) -> BmtProofNode {
            match node {
                BmtProofNode::FailedLeaf { filter } => BmtProofNode::CleanLeaf {
                    filter: filter.clone(),
                },
                BmtProofNode::Branch { left, right } => BmtProofNode::Branch {
                    left: Box::new(forge(left)),
                    right: Box::new(forge(right)),
                },
                other => other.clone(),
            }
        }
        let forged = BmtProof::from_root(forge(honest.root()));
        let err = forged
            .verify(1, 4, &tree.root_hash(), params(), &positions)
            .unwrap_err();
        assert_eq!(err, BmtError::NotClean);
    }

    #[test]
    fn failed_tag_over_a_clean_leaf_rejected() {
        // The mirror image of the lie above: a leaf whose filter is clean
        // for the query is tagged failed. Nothing is hidden, but the tag
        // must agree with the filter, or one answer has two encodings.
        let tree = fig3_tree();
        let positions = positions_of(b"b1"); // in leaf 2 only
        let honest = prove(&tree, &positions).unwrap();
        fn forge(node: &BmtProofNode) -> BmtProofNode {
            match node {
                BmtProofNode::CleanLeaf { filter } => BmtProofNode::FailedLeaf {
                    filter: filter.clone(),
                },
                BmtProofNode::Branch { left, right } => BmtProofNode::Branch {
                    left: Box::new(forge(left)),
                    right: Box::new(forge(right)),
                },
                other => other.clone(),
            }
        }
        let forged = BmtProof::from_root(forge(honest.root()));
        assert_ne!(forged, honest, "the honest proof has a clean leaf");
        let err = forged
            .verify(1, 4, &tree.root_hash(), params(), &positions)
            .unwrap_err();
        assert!(matches!(err, BmtError::MalformedProof { .. }), "{err}");
    }

    #[test]
    fn batch_of_one_retags_by_the_leaf_filter() {
        let tree = fig3_tree();
        for probe in [&b"c2"[..], b"absent", b"b1", b"a1"] {
            let positions = positions_of(probe);
            let sets = std::slice::from_ref(&positions);
            let batch = prove_multi(&tree, sets).unwrap();
            let single = BmtProof::from_batch_of_one(batch.clone(), &positions);
            // Same shape, same filters, same statistics; only the leaf
            // tags are added, and each agrees with its own filter.
            assert_eq!(single.stats(), batch.stats());
            let coverage = single
                .verify(1, 4, &tree.root_hash(), params(), &positions)
                .unwrap();
            let shared = batch
                .verify(1, 4, &tree.root_hash(), params(), sets)
                .unwrap();
            assert_eq!(vec![coverage], shared);
        }
    }

    #[test]
    fn malformed_shapes_rejected() {
        let tree = fig3_tree();
        let positions = positions_of(b"nope");
        let leaf_filter = tree.filter(1, 1);

        // Branch below leaf level.
        let too_deep = BmtProof::from_root(BmtProofNode::Branch {
            left: Box::new(BmtProofNode::CleanLeaf {
                filter: leaf_filter.clone(),
            }),
            right: Box::new(BmtProofNode::CleanLeaf {
                filter: leaf_filter.clone(),
            }),
        });
        assert!(matches!(
            too_deep
                .verify(1, 1, &tree.node_hash(1, 1), params(), &positions)
                .unwrap_err(),
            BmtError::MalformedProof { .. }
        ));

        // Clean leaf standing in for the whole (multi-leaf) tree.
        let too_shallow = BmtProof::from_root(BmtProofNode::CleanLeaf {
            filter: tree.root_filter().clone(),
        });
        assert!(matches!(
            too_shallow
                .verify(1, 4, &tree.root_hash(), params(), &positions)
                .unwrap_err(),
            BmtError::MalformedProof { .. } | BmtError::NotClean | BmtError::RootMismatch
        ));

        // Non-dyadic leaf count.
        let proof = prove(&tree, &positions).unwrap();
        assert!(matches!(
            proof
                .verify(1, 3, &tree.root_hash(), params(), &positions)
                .unwrap_err(),
            BmtError::LeafCountNotPowerOfTwo { count: 3 }
        ));
    }

    #[test]
    fn wrong_params_rejected() {
        let tree = fig3_tree();
        let positions = positions_of(b"nope");
        let proof = prove(&tree, &positions).unwrap();
        let other = BloomParams::new(33, 2).unwrap();
        assert_eq!(
            proof
                .verify(1, 4, &tree.root_hash(), other, &positions)
                .unwrap_err(),
            BmtError::ParamsMismatch
        );
    }

    #[test]
    fn single_leaf_tree_proof() {
        let mut f = BloomFilter::new(params());
        f.insert(b"only");
        let tree = Bmt::build(7, vec![f]).unwrap();
        let positions = positions_of(b"absent");
        let proof = prove(&tree, &positions).unwrap();
        let coverage = proof
            .verify(7, 1, &tree.root_hash(), params(), &positions)
            .unwrap();
        assert!(coverage.covers(7, 7));
    }

    #[test]
    fn codec_roundtrip() {
        let tree = fig3_tree();
        for probe in [&b"c2"[..], b"absent", b"b1"] {
            let positions = positions_of(probe);
            let proof = prove(&tree, &positions).unwrap();
            let bytes = proof.encode();
            assert_eq!(bytes.len(), proof.encoded_len());
            let decoded = decode_exact::<BmtProof>(&bytes).unwrap();
            assert_eq!(decoded, proof);
        }
    }

    #[test]
    fn decode_rejects_bad_tag_and_depth_bomb() {
        let mut bytes = vec![9u8];
        assert!(decode_exact::<BmtProof>(&bytes).is_err());
        // A chain of Branch tags deeper than MAX_DEPTH.
        bytes = vec![TAG_BRANCH; 64];
        assert!(decode_exact::<BmtProof>(&bytes).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Random tree contents: `leaf_count` leaves, each holding a
        /// random set of items.
        fn tree_strategy() -> impl Strategy<Value = (Bmt, Vec<Vec<u8>>)> {
            let leaf_exp = 0u32..5; // 1..16 leaves
            leaf_exp.prop_flat_map(|exp| {
                let leaves = 1usize << exp;
                proptest::collection::vec(
                    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..6), 0..8),
                    leaves..=leaves,
                )
                .prop_map(|sets| {
                    let mut all_items = Vec::new();
                    let filters = sets
                        .iter()
                        .map(|set| {
                            let mut f = BloomFilter::new(params());
                            for item in set {
                                f.insert(item);
                                all_items.push(item.clone());
                            }
                            f
                        })
                        .collect();
                    (Bmt::build(1, filters).unwrap(), all_items)
                })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Honest prove → verify always succeeds, tiles the span,
            /// and never marks a present item's leaf clean.
            #[test]
            fn prove_verify_roundtrip((tree, items) in tree_strategy(), probe: Vec<u8>) {
                prop_assume!(!probe.is_empty());
                let positions = BloomFilter::bit_positions(params(), &probe);
                let proof = prove(&tree, &positions).unwrap();
                let n = tree.leaf_count();
                let coverage = proof
                    .verify(1, n, &tree.root_hash(), params(), &positions)
                    .unwrap();
                prop_assert!(coverage.covers(1, n));
                // Soundness of the clean claim: if the probe was
                // actually inserted somewhere, its leaf is never inside
                // a clean range.
                if items.contains(&probe) {
                    for (idx, _) in (1..=n).enumerate() {
                        let leaf = idx as u64 + 1;
                        let clean = coverage
                            .clean_ranges
                            .iter()
                            .any(|&(a, b)| a <= leaf && leaf <= b);
                        if !tree.filter(leaf, leaf).check_positions(&positions).is_clean() {
                            prop_assert!(!clean);
                        }
                    }
                }
                // Wire stability.
                let bytes = proof.encode();
                prop_assert_eq!(bytes.len(), proof.encoded_len());
                prop_assert_eq!(&decode_exact::<BmtProof>(&bytes).unwrap(), &proof);
            }

            /// A proof never verifies against the root of a different
            /// tree (unless the trees are identical).
            #[test]
            fn no_cross_tree_verification(
                (tree_a, _) in tree_strategy(),
                (tree_b, _) in tree_strategy(),
                probe: Vec<u8>,
            ) {
                prop_assume!(tree_a.leaf_count() == tree_b.leaf_count());
                prop_assume!(tree_a.root_hash() != tree_b.root_hash());
                let positions = BloomFilter::bit_positions(params(), &probe);
                let proof = prove(&tree_a, &positions).unwrap();
                prop_assert!(proof
                    .verify(1, tree_b.leaf_count(), &tree_b.root_hash(), params(), &positions)
                    .is_err());
            }

            /// Decoding arbitrary bytes never panics.
            #[test]
            fn decoder_never_panics(bytes: Vec<u8>) {
                let _ = decode_exact::<BmtProof>(&bytes);
            }
        }
    }

    #[test]
    fn coverage_covers_detects_gaps() {
        let mut c = BmtCoverage::default();
        c.clean_ranges.push((1, 2));
        c.failed_leaves.push(4);
        assert!(!c.covers(1, 4)); // 3 missing
        c.clean_ranges.push((3, 3));
        assert!(c.covers(1, 4));
        assert!(!c.covers(1, 5));
        // Overlap is also rejected.
        let mut o = BmtCoverage::default();
        o.clean_ranges.push((1, 2));
        o.clean_ranges.push((2, 4));
        assert!(!o.covers(1, 4));
    }
}
