//! Merged BMT branch proofs (paper §III-B2, Fig. 4/5/11).

use std::borrow::Cow;

use lvq_bloom::{BloomFilter, BloomParams};
use lvq_codec::{Decodable, DecodeError, Encodable, Reader};
use lvq_crypto::Hash256;

use super::{internal_hash, is_power_of_two, leaf_hash, BmtError, BmtSource};

/// Maximum tree depth accepted when decoding untrusted proofs
/// (2^40 leaves is far beyond any chain length here).
const MAX_DEPTH: u32 = 40;

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

/// Size and shape statistics of a proof (drives paper Figs. 14–16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BmtProofStats {
    /// Clean leaf endpoints.
    pub clean_leaves: u64,
    /// Clean internal endpoints.
    pub clean_nodes: u64,
    /// Failed leaves (blocks needing block-level proofs).
    pub failed_leaves: u64,
    /// Expanded internal nodes.
    pub branch_nodes: u64,
    /// Bytes of Bloom filter material in the encoding.
    pub filter_bytes: u64,
    /// Bytes of sibling/child hashes in the encoding.
    pub hash_bytes: u64,
}

impl BmtProofStats {
    /// Total endpoint nodes — the quantity paper Figs. 15/16 plot.
    pub fn endpoint_count(&self) -> u64 {
        self.clean_leaves + self.clean_nodes + self.failed_leaves
    }

    /// Accumulates another proof's statistics (for multi-segment
    /// queries).
    pub fn merge(&mut self, other: &BmtProofStats) {
        self.clean_leaves += other.clean_leaves;
        self.clean_nodes += other.clean_nodes;
        self.failed_leaves += other.failed_leaves;
        self.branch_nodes += other.branch_nodes;
        self.filter_bytes += other.filter_bytes;
        self.hash_bytes += other.hash_bytes;
    }
}

impl BmtProof {
    /// Wraps a hand-built proof tree (tests and adversarial simulations).
    pub fn from_root(root: BmtProofNode) -> Self {
        BmtProof { root }
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
    /// parameters, or recomputed root hash are wrong.
    pub fn verify(
        &self,
        first_leaf: u64,
        leaf_count: u64,
        expected_root: &Hash256,
        params: BloomParams,
        positions: &[u64],
    ) -> Result<BmtCoverage, BmtError> {
        if !is_power_of_two(leaf_count) {
            return Err(BmtError::LeafCountNotPowerOfTwo { count: leaf_count });
        }
        let mut coverage = BmtCoverage::default();
        let (hash, _filter) = Self::verify_node(
            &self.root,
            first_leaf,
            first_leaf + leaf_count - 1,
            params,
            positions,
            &mut coverage,
        )?;
        if hash != *expected_root {
            return Err(BmtError::RootMismatch);
        }
        Ok(coverage)
    }

    fn verify_node<'a>(
        node: &'a BmtProofNode,
        lo: u64,
        hi: u64,
        params: BloomParams,
        positions: &[u64],
        coverage: &mut BmtCoverage,
    ) -> Result<(Hash256, Cow<'a, BloomFilter>), BmtError> {
        match node {
            BmtProofNode::CleanLeaf { filter } => {
                if lo != hi {
                    return Err(BmtError::MalformedProof {
                        reason: "clean leaf above leaf level",
                    });
                }
                Self::check_filter(filter, params)?;
                if !filter.check_positions(positions).is_clean() {
                    return Err(BmtError::NotClean);
                }
                coverage.clean_ranges.push((lo, hi));
                Ok((leaf_hash(filter), Cow::Borrowed(filter)))
            }
            BmtProofNode::CleanNode {
                filter,
                left_hash,
                right_hash,
            } => {
                if lo == hi {
                    return Err(BmtError::MalformedProof {
                        reason: "internal clean node at leaf level",
                    });
                }
                Self::check_filter(filter, params)?;
                if !filter.check_positions(positions).is_clean() {
                    return Err(BmtError::NotClean);
                }
                coverage.clean_ranges.push((lo, hi));
                Ok((
                    internal_hash(left_hash, right_hash, filter),
                    Cow::Borrowed(filter),
                ))
            }
            BmtProofNode::FailedLeaf { filter } => {
                if lo != hi {
                    return Err(BmtError::MalformedProof {
                        reason: "failed leaf above leaf level",
                    });
                }
                Self::check_filter(filter, params)?;
                coverage.failed_leaves.push(lo);
                Ok((leaf_hash(filter), Cow::Borrowed(filter)))
            }
            BmtProofNode::Branch { left, right } => {
                if lo == hi {
                    return Err(BmtError::MalformedProof {
                        reason: "branch node at leaf level",
                    });
                }
                let mid = lo + (hi - lo) / 2;
                let (lh, lf) = Self::verify_node(left, lo, mid, params, positions, coverage)?;
                let (rh, rf) = Self::verify_node(right, mid + 1, hi, params, positions, coverage)?;
                // Paper Eq. 3: the parent filter is the OR of its children.
                let filter = BloomFilter::union(&lf, &rf).map_err(|_| BmtError::ParamsMismatch)?;
                Ok((internal_hash(&lh, &rh, &filter), Cow::Owned(filter)))
            }
        }
    }

    fn check_filter(filter: &BloomFilter, params: BloomParams) -> Result<(), BmtError> {
        if filter.params() != params {
            return Err(BmtError::ParamsMismatch);
        }
        Ok(())
    }

    /// Computes the proof's size and shape statistics.
    pub fn stats(&self) -> BmtProofStats {
        fn walk(node: &BmtProofNode, stats: &mut BmtProofStats) {
            match node {
                BmtProofNode::CleanLeaf { filter } => {
                    stats.clean_leaves += 1;
                    stats.filter_bytes += filter.encoded_len() as u64;
                }
                BmtProofNode::CleanNode { filter, .. } => {
                    stats.clean_nodes += 1;
                    stats.filter_bytes += filter.encoded_len() as u64;
                    stats.hash_bytes += 64;
                }
                BmtProofNode::FailedLeaf { filter } => {
                    stats.failed_leaves += 1;
                    stats.filter_bytes += filter.encoded_len() as u64;
                }
                BmtProofNode::Branch { left, right } => {
                    stats.branch_nodes += 1;
                    walk(left, stats);
                    walk(right, stats);
                }
            }
        }
        let mut stats = BmtProofStats::default();
        walk(&self.root, &mut stats);
        stats
    }
}

/// Generates the merged inexistence proof for `positions` over `source`.
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
    let (lo, hi) = source.span();
    let count = hi - lo + 1;
    if !is_power_of_two(count) {
        return Err(BmtError::LeafCountNotPowerOfTwo { count });
    }

    fn descend<S: BmtSource + ?Sized>(
        source: &S,
        lo: u64,
        hi: u64,
        positions: &[u64],
    ) -> BmtProofNode {
        let filter = source.filter(lo, hi);
        let clean = filter.check_positions(positions).is_clean();
        match (clean, lo == hi) {
            (true, true) => BmtProofNode::CleanLeaf { filter },
            (true, false) => {
                let mid = lo + (hi - lo) / 2;
                BmtProofNode::CleanNode {
                    filter,
                    left_hash: source.node_hash(lo, mid),
                    right_hash: source.node_hash(mid + 1, hi),
                }
            }
            (false, true) => BmtProofNode::FailedLeaf { filter },
            (false, false) => {
                let mid = lo + (hi - lo) / 2;
                BmtProofNode::Branch {
                    left: Box::new(descend(source, lo, mid, positions)),
                    right: Box::new(descend(source, mid + 1, hi, positions)),
                }
            }
        }
    }

    Ok(BmtProof {
        root: descend(source, lo, hi, positions),
    })
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
        1 + match self {
            BmtProofNode::CleanLeaf { filter } | BmtProofNode::FailedLeaf { filter } => {
                filter.encoded_len()
            }
            BmtProofNode::CleanNode { filter, .. } => filter.encoded_len() + 64,
            BmtProofNode::Branch { left, right } => left.encoded_len() + right.encoded_len(),
        }
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
            stats.clean_leaves + stats.clean_nodes + stats.failed_leaves
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
