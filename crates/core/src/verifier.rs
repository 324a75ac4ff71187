//! The light-node side: response verification (paper §V, §VI).

use std::collections::BTreeSet;
use std::slice::from_ref;

use lvq_bloom::{BloomFilter, BloomParams};
use lvq_chain::{
    balance_of, Address, BalanceBreakdown, BlockHeader, HeaderCommitments, Transaction,
};
use lvq_crypto::Hash256;
use lvq_merkle::{BmtBatchProof, BmtCoverage, BmtError, BmtProof};

use crate::batch::BatchQueryResponse;
use crate::error::QueryError;
use crate::fragment::BlockFragment;
use crate::result::{only, QueryResponse};
use crate::scheme::{Scheme, SchemeConfig};
use crate::segment::{segments, Segment};

/// How much the verification established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completeness {
    /// Every relevant transaction is provably included and none omitted
    /// — the balance is trustworthy.
    Complete,
    /// Every returned transaction is provably on-chain, but omissions
    /// cannot be ruled out (the strawman's Challenge 3): the paper's
    /// *correctness* without *completeness*.
    CorrectnessOnly,
}

/// The outcome of a successful verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedHistory {
    /// Proven transactions as `(height, transaction)`, in chain order.
    pub transactions: Vec<(u64, Transaction)>,
    /// Paper Eq. 1 over the proven history.
    pub balance: BalanceBreakdown,
    /// Whether completeness was established.
    pub completeness: Completeness,
}

/// A light node's verification engine: stored headers plus the scheme
/// configuration, nothing else.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct LightClient {
    config: SchemeConfig,
    headers: Vec<BlockHeader>,
}

impl LightClient {
    /// Creates a client holding `headers` (height 1 first).
    pub fn new(config: SchemeConfig, headers: Vec<BlockHeader>) -> Self {
        LightClient { config, headers }
    }

    /// This client's configuration.
    pub fn config(&self) -> SchemeConfig {
        self.config
    }

    /// The chain tip implied by the stored headers.
    pub fn tip_height(&self) -> u64 {
        self.headers.len() as u64
    }

    /// Total bytes of stored headers — the storage cost of paper
    /// Challenge 1.
    pub fn storage_bytes(&self) -> u64 {
        self.headers.iter().map(|h| h.storage_len() as u64).sum()
    }

    /// Checks that the stored headers form a hash chain (each header's
    /// `prev_block` is the hash of its predecessor) — the SPV sanity
    /// check a light node runs after the initial header download.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::BrokenHeaderChain`] at the first break.
    pub fn validate_header_chain(&self) -> Result<(), QueryError> {
        let mut prev = lvq_crypto::Hash256::ZERO;
        for (i, header) in self.headers.iter().enumerate() {
            if header.prev_block != prev {
                return Err(QueryError::BrokenHeaderChain {
                    height: i as u64 + 1,
                });
            }
            prev = header.block_hash();
        }
        Ok(())
    }

    /// Appends newly announced headers, checking that each one chains
    /// onto the current tip — how a light node follows a growing chain.
    ///
    /// On error nothing is appended.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::BrokenHeaderChain`] at the first header
    /// that does not extend the chain.
    pub fn append_headers(
        &mut self,
        new_headers: impl IntoIterator<Item = BlockHeader>,
    ) -> Result<(), QueryError> {
        let mut prev = self
            .headers
            .last()
            .map(BlockHeader::block_hash)
            .unwrap_or(lvq_crypto::Hash256::ZERO);
        let mut accepted = Vec::new();
        for header in new_headers {
            if header.prev_block != prev {
                return Err(QueryError::BrokenHeaderChain {
                    height: self.headers.len() as u64 + accepted.len() as u64 + 1,
                });
            }
            prev = header.block_hash();
            accepted.push(header);
        }
        self.headers.extend(accepted);
        Ok(())
    }

    /// The block hash of the stored header at `height`, or
    /// [`lvq_crypto::Hash256::ZERO`] at height 0 (where every chain
    /// agrees) — what a reorg-aware client pins its incremental sync
    /// to. `None` above the stored tip.
    pub fn hash_at(&self, height: u64) -> Option<lvq_crypto::Hash256> {
        if height == 0 {
            return Some(lvq_crypto::Hash256::ZERO);
        }
        self.headers
            .get(height as usize - 1)
            .map(BlockHeader::block_hash)
    }

    /// Discards every stored header strictly above `height` — the
    /// rollback half of following a chain through a reorg. Returns how
    /// many headers were dropped (zero when already at or below
    /// `height`).
    ///
    /// Proofs verified against a discarded header were proofs against
    /// an orphaned block: the caller must drop any state derived from
    /// them and re-query once the replacement headers are appended.
    pub fn rollback_to(&mut self, height: u64) -> u64 {
        let before = self.headers.len() as u64;
        if height >= before {
            return 0;
        }
        self.headers.truncate(height as usize);
        before - height
    }

    /// Verifies a full-node response for `address`: the batch of one,
    /// read in place through the batch verifier.
    ///
    /// On success the returned history is *correct* (every transaction
    /// is on-chain at the stated height) and, except for the strawman's
    /// existence fragments, *complete* (no relevant transaction in
    /// `1..=tip` was omitted).
    ///
    /// # Errors
    ///
    /// Returns a [`QueryError`] describing the first inconsistency; any
    /// error means the response must be discarded and the full node
    /// distrusted.
    pub fn verify(
        &self,
        address: &Address,
        response: &QueryResponse,
    ) -> Result<VerifiedHistory, QueryError> {
        let histories =
            self.verify_batch_over(from_ref(address), Sections::of_one(response), None)?;
        Ok(only(histories))
    }

    /// Verifies a response restricted to blocks `lo..=hi` (the range
    /// counterpart of [`crate::Prover::respond_range`]).
    ///
    /// On success, completeness covers exactly the requested range: no
    /// transaction of `address` in blocks `lo..=hi` was omitted.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::InvalidRange`] unless `1 ≤ lo ≤ hi ≤ tip`,
    /// and any other [`QueryError`] exactly as [`LightClient::verify`]
    /// does.
    pub fn verify_range(
        &self,
        address: &Address,
        lo: u64,
        hi: u64,
        response: &QueryResponse,
    ) -> Result<VerifiedHistory, QueryError> {
        let range = Some((lo, hi));
        let histories =
            self.verify_batch_over(from_ref(address), Sections::of_one(response), range)?;
        Ok(only(histories))
    }

    /// Verifies a batched multi-address response, returning one
    /// [`VerifiedHistory`] per address in batch order.
    ///
    /// Each per-address verdict is exactly as strong as
    /// [`LightClient::verify`]'s: the shared BMT proof is checked against
    /// every address's bit positions individually (a node may only be
    /// treated as clean for an address whose positions it is actually
    /// clean for), and each address's fragment section must account for
    /// exactly its matched leaves.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::EmptyBatch`] for an empty address list,
    /// [`QueryError::SectionCountMismatch`] when the response does not
    /// carry one section per address, and any other [`QueryError`]
    /// exactly as [`LightClient::verify`] does.
    pub fn verify_batch(
        &self,
        addresses: &[Address],
        response: &BatchQueryResponse,
    ) -> Result<Vec<VerifiedHistory>, QueryError> {
        self.verify_batch_over(addresses, Sections::of_batch(response), None)
    }

    /// Verifies a batched response restricted to blocks `lo..=hi` — the
    /// batch counterpart of [`LightClient::verify_range`], applying the
    /// same boundary rule (failed leaves below `lo` are owed no
    /// fragment in any address's section).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::InvalidRange`] unless `1 ≤ lo ≤ hi ≤ tip`,
    /// and otherwise errors exactly as [`LightClient::verify_batch`].
    pub fn verify_batch_range(
        &self,
        addresses: &[Address],
        lo: u64,
        hi: u64,
        response: &BatchQueryResponse,
    ) -> Result<Vec<VerifiedHistory>, QueryError> {
        self.verify_batch_over(addresses, Sections::of_batch(response), Some((lo, hi)))
    }

    /// The one verification path: the whole chain when `range` is
    /// `None`, else `lo..=hi` after checking `1 ≤ lo ≤ hi ≤ tip`.
    fn verify_batch_over(
        &self,
        addresses: &[Address],
        response: Sections<'_>,
        range: Option<(u64, u64)>,
    ) -> Result<Vec<VerifiedHistory>, QueryError> {
        // `lo = 1, hi = 0` encodes the empty chain.
        let tip = self.tip_height();
        let (lo, hi) = range.unwrap_or((1, tip));
        if range.is_some() && (lo == 0 || lo > hi || hi > tip) {
            return Err(QueryError::InvalidRange { lo, hi, tip });
        }
        if addresses.is_empty() {
            return Err(QueryError::EmptyBatch);
        }
        let position_sets: Vec<Vec<u64>> = addresses
            .iter()
            .map(|a| BloomFilter::bit_positions(self.config.bloom(), a.as_bytes()))
            .collect();
        let n = addresses.len();
        let empty = VerifiedHistory {
            transactions: Vec::new(),
            balance: BalanceBreakdown::default(),
            completeness: Completeness::Complete,
        };
        let mut histories = vec![empty; n];
        // Every fragment owed to address `j` at `height` passes here.
        let mut accept = |j: usize, height: u64, fragment: &BlockFragment| {
            let txs = self.verify_fragment(height, &addresses[j], fragment)?;
            if matches!(fragment, BlockFragment::MerkleBranches(_)) {
                histories[j].completeness = Completeness::CorrectnessOnly;
            }
            histories[j]
                .transactions
                .extend(txs.into_iter().map(|t| (height, t)));
            Ok::<(), QueryError>(())
        };
        let section_count = |got: usize| {
            if got == n {
                Ok(())
            } else {
                Err(QueryError::SectionCountMismatch {
                    got: got as u64,
                    expected: n as u64,
                })
            }
        };

        match (self.config.scheme().is_per_block(), response) {
            (true, Sections::PerBlock(entries)) => {
                let expected = hi.saturating_sub(lo.saturating_sub(1));
                if entries.len() as u64 != expected {
                    return Err(QueryError::WrongEntryCount {
                        got: entries.len() as u64,
                        expected,
                    });
                }
                for (i, (filter, fragments)) in entries.into_iter().enumerate() {
                    let height = lo + i as u64;
                    section_count(fragments.len())?;
                    let committed = self.commitment(height, "bloom filter hash", |c| c.bf_hash)?;
                    if filter.params() != self.config.bloom() {
                        return Err(QueryError::FilterParamsMismatch { height });
                    }
                    if filter.content_hash() != committed {
                        return Err(QueryError::FilterHashMismatch { height });
                    }
                    for (j, fragment) in fragments.iter().enumerate() {
                        if filter.check_positions(&position_sets[j]).is_clean() {
                            if *fragment != BlockFragment::Empty {
                                return Err(QueryError::UnexpectedFragment { height });
                            }
                        } else {
                            accept(j, height, fragment)?;
                        }
                    }
                }
            }
            (false, Sections::Segmented(bundles)) => {
                let segs: Vec<Segment> = segments(hi, self.config.segment_len())
                    .into_iter()
                    .filter(|seg| seg.hi >= lo)
                    .collect();
                if bundles.len() != segs.len() {
                    return Err(QueryError::SegmentMismatch);
                }
                for (seg, (proof, sections)) in segs.iter().zip(bundles) {
                    section_count(sections.len())?;
                    let root = self.commitment(seg.hi, "bmt root", |c| c.bmt_root)?;
                    let coverages = proof
                        .verify(seg, &root, self.config.bloom(), &position_sets)
                        .map_err(|source| QueryError::Bmt {
                            segment_hi: seg.hi,
                            source,
                        })?;
                    for (j, (coverage, section)) in coverages.iter().zip(sections).enumerate() {
                        // The section must account for exactly the
                        // in-range leaves the proof shows matching this
                        // address — a prover cannot silently drop a block
                        // whose filter matched. (Failed leaves below `lo`
                        // belong to a boundary segment's prefix and are
                        // outside the query.)
                        let supplied = section.iter().map(|(h, _)| *h);
                        let owed = coverage.failed_leaves.iter().copied().filter(|&h| h >= lo);
                        if !supplied.eq(owed) {
                            return Err(QueryError::FragmentSetMismatch);
                        }
                        for (height, fragment) in section {
                            accept(j, *height, fragment)?;
                        }
                    }
                }
            }
            _ => return Err(QueryError::WrongResponseKind),
        }

        for (history, address) in histories.iter_mut().zip(addresses) {
            history.transactions.sort_by_key(|(h, _)| *h);
            history.balance = balance_of(address, history.transactions.iter().map(|(_, t)| t));
        }
        Ok(histories)
    }

    /// The commitment `get` picks from the header at `height`.
    fn commitment(
        &self,
        height: u64,
        what: &'static str,
        get: impl Fn(&HeaderCommitments) -> Option<Hash256>,
    ) -> Result<Hash256, QueryError> {
        get(&self.headers[(height - 1) as usize].commitments)
            .ok_or(QueryError::MissingCommitment { height, what })
    }

    /// Verifies one block-level fragment, returning the transactions it
    /// proves (empty when it proves absence).
    fn verify_fragment(
        &self,
        height: u64,
        address: &Address,
        fragment: &BlockFragment,
    ) -> Result<Vec<Transaction>, QueryError> {
        let header = &self.headers[(height - 1) as usize];
        let scheme = self.config.scheme();
        match fragment {
            BlockFragment::Empty => Err(QueryError::UnexpectedFragment { height }),

            BlockFragment::MerkleBranches(txs) => {
                // Strawman-only: correctness without a count proof.
                if scheme != Scheme::Strawman || txs.is_empty() {
                    return Err(QueryError::UnexpectedFragment { height });
                }
                self.verify_branches(height, address, header, txs)?;
                Ok(txs.iter().map(|t| t.transaction.clone()).collect())
            }

            BlockFragment::Existence(proof) => {
                if !scheme.has_smt() {
                    return Err(QueryError::UnexpectedFragment { height });
                }
                let commitment = self.commitment(height, "smt", |c| c.smt_commitment)?;
                let count = proof
                    .smt
                    .verify(address.as_bytes(), &commitment)
                    .map_err(|source| QueryError::Smt { height, source })?
                    .ok_or(QueryError::UnexpectedFragment { height })?;
                // Challenge 3 resolved: exactly `count` distinct
                // transactions must be proven.
                if proof.transactions.len() as u64 != count {
                    return Err(QueryError::CountMismatch {
                        height,
                        committed: count,
                        proven: proof.transactions.len() as u64,
                    });
                }
                self.verify_branches(height, address, header, &proof.transactions)?;
                Ok(proof
                    .transactions
                    .iter()
                    .map(|t| t.transaction.clone())
                    .collect())
            }

            BlockFragment::AbsenceSmt(proof) => {
                if !scheme.has_smt() {
                    return Err(QueryError::UnexpectedFragment { height });
                }
                let commitment = self.commitment(height, "smt", |c| c.smt_commitment)?;
                let value = proof
                    .verify(address.as_bytes(), &commitment)
                    .map_err(|source| QueryError::Smt { height, source })?;
                if value.is_some() {
                    // The proof itself shows the address *is* present:
                    // claiming absence with it hides transactions.
                    return Err(QueryError::UnexpectedFragment { height });
                }
                Ok(Vec::new())
            }

            BlockFragment::IntegralBlock(block) => {
                if scheme.has_smt() {
                    // LVQ schemes never fall back to integral blocks.
                    return Err(QueryError::UnexpectedFragment { height });
                }
                if block.header != *header {
                    return Err(QueryError::BlockHeaderMismatch { height });
                }
                if block.tx_tree().root() != header.merkle_root {
                    return Err(QueryError::BlockBodyMismatch { height });
                }
                Ok(block
                    .transactions
                    .iter()
                    .filter(|tx| tx.involves(address))
                    .cloned()
                    .collect())
            }
        }
    }

    fn verify_branches(
        &self,
        height: u64,
        address: &Address,
        header: &BlockHeader,
        txs: &[crate::fragment::TxWithBranch],
    ) -> Result<(), QueryError> {
        let mut seen_txids = BTreeSet::new();
        for item in txs {
            if !item.transaction.involves(address) {
                return Err(QueryError::UninvolvedTransaction { height });
            }
            // A branch of depth d names one of 2^d leaves; the index
            // bits above d never enter the hash, so an index past that
            // range aliases an in-range slot. (A depth-64 branch, which
            // decoding admits, names every u64.)
            let depth = item.branch.siblings().len() as u32;
            if item.branch.leaf_index().checked_shr(depth).unwrap_or(0) != 0 {
                return Err(QueryError::InvalidMerkleBranch { height });
            }
            let txid = item.transaction.txid();
            if !item.branch.verify(&txid, &header.merkle_root) {
                return Err(QueryError::InvalidMerkleBranch { height });
            }
            // Distinct transactions: one cannot be counted twice to
            // satisfy an SMT count, not even from two slots — a block
            // with an odd count duplicates its last leaf (CVE-2012-2459),
            // so leaf n - 1 also proves at index n.
            if !seen_txids.insert(txid) {
                return Err(QueryError::DuplicateTransaction { height });
            }
        }
        Ok(())
    }
}

/// A response as the verifier reads it, borrowed in place: per block or
/// per segment, one fragment or fragment section per address. A
/// single-address response is a batch of one.
enum Sections<'a> {
    PerBlock(Vec<(&'a BloomFilter, &'a [BlockFragment])>),
    Segmented(Vec<(SegmentProof<'a>, &'a [Section])>),
}

/// One address's `(height, fragment)` pairs for one segment.
type Section = Vec<(u64, BlockFragment)>;

impl<'a> Sections<'a> {
    fn of_one(response: &'a QueryResponse) -> Self {
        match response {
            QueryResponse::PerBlock(r) => Sections::PerBlock(
                r.entries
                    .iter()
                    .map(|e| (&e.filter, from_ref(&e.fragment)))
                    .collect(),
            ),
            QueryResponse::Segmented(r) => Sections::Segmented(
                r.segments
                    .iter()
                    .map(|b| (SegmentProof::One(&b.proof), from_ref(&b.fragments)))
                    .collect(),
            ),
        }
    }

    fn of_batch(response: &'a BatchQueryResponse) -> Self {
        match response {
            BatchQueryResponse::PerBlock(r) => Sections::PerBlock(
                r.entries
                    .iter()
                    .map(|e| (&e.filter, e.fragments.as_slice()))
                    .collect(),
            ),
            BatchQueryResponse::Segmented(r) => Sections::Segmented(
                r.segments
                    .iter()
                    .map(|b| (SegmentProof::Shared(&b.proof), b.sections.as_slice()))
                    .collect(),
            ),
        }
    }
}

/// A segment's BMT proof in either wire encoding; both verify through
/// the one BMT verifier.
enum SegmentProof<'a> {
    One(&'a BmtProof),
    Shared(&'a BmtBatchProof),
}

impl SegmentProof<'_> {
    fn verify(
        &self,
        seg: &Segment,
        root: &Hash256,
        params: BloomParams,
        position_sets: &[Vec<u64>],
    ) -> Result<Vec<BmtCoverage>, BmtError> {
        match self {
            SegmentProof::One(proof) => proof
                .verify(seg.lo, seg.len(), root, params, &position_sets[0])
                .map(|coverage| vec![coverage]),
            SegmentProof::Shared(proof) => {
                proof.verify(seg.lo, seg.len(), root, params, position_sets)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::BlockFragment;
    use crate::prover::Prover;
    use crate::result::{BlockEntry, PerBlockResponse};
    use crate::scheme::Scheme;
    use lvq_bloom::{BloomFilter, BloomParams};
    use lvq_chain::{ChainBuilder, Transaction};

    fn config(scheme: Scheme) -> SchemeConfig {
        SchemeConfig::new(scheme, BloomParams::new(128, 2).unwrap(), 4).unwrap()
    }

    fn chain_for(scheme: Scheme, blocks: u64) -> lvq_chain::Chain {
        let mut builder = ChainBuilder::new(config(scheme).chain_params()).unwrap();
        for h in 1..=blocks {
            builder
                .push_block(vec![Transaction::coinbase(
                    Address::new("1Miner"),
                    50,
                    h as u32,
                )])
                .unwrap();
        }
        builder.finish()
    }

    #[test]
    fn wrong_response_kind_rejected() {
        let chain = chain_for(Scheme::Lvq, 4);
        let prover = Prover::from_chain(&chain).unwrap();
        let (response, _) = prover.respond(&Address::new("1Miner")).unwrap();
        // A segmented response fed to a per-block client (mismatched
        // configuration) is rejected before any cryptographic work.
        let per_block_client = LightClient::new(config(Scheme::Strawman), chain.headers());
        assert_eq!(
            per_block_client
                .verify(&Address::new("1Miner"), &response)
                .unwrap_err(),
            QueryError::WrongResponseKind
        );
    }

    #[test]
    fn missing_commitment_detected() {
        // Headers built WITHOUT smt commitments cannot serve an LVQ
        // client: the segmented BMT check fails on the bmt_root lookup
        // for strawman headers.
        let strawman_chain = chain_for(Scheme::Strawman, 4);
        let lvq_client = LightClient::new(config(Scheme::Lvq), strawman_chain.headers());
        let lvq_chain = chain_for(Scheme::Lvq, 4);
        let (response, _) = Prover::from_chain(&lvq_chain)
            .unwrap()
            .respond(&Address::new("1Ghost"))
            .unwrap();
        assert!(matches!(
            lvq_client
                .verify(&Address::new("1Ghost"), &response)
                .unwrap_err(),
            QueryError::MissingCommitment {
                what: "bmt root",
                ..
            }
        ));
    }

    #[test]
    fn filter_params_mismatch_detected() {
        let chain = chain_for(Scheme::Strawman, 2);
        let client = LightClient::new(config(Scheme::Strawman), chain.headers());
        // Hand-craft a response whose filters have the wrong size.
        let bogus_params = BloomParams::new(64, 2).unwrap();
        let response = QueryResponse::PerBlock(PerBlockResponse {
            entries: (0..2)
                .map(|_| BlockEntry {
                    filter: BloomFilter::new(bogus_params),
                    fragment: BlockFragment::Empty,
                })
                .collect(),
        });
        assert!(matches!(
            client
                .verify(&Address::new("1Ghost"), &response)
                .unwrap_err(),
            QueryError::FilterParamsMismatch { height: 1 }
        ));
    }

    #[test]
    fn filter_hash_mismatch_detected() {
        let chain = chain_for(Scheme::Strawman, 2);
        let client = LightClient::new(config(Scheme::Strawman), chain.headers());
        // Right parameters, wrong (empty) contents: H(BF) cannot match
        // the committed hash of the real filter.
        let response = QueryResponse::PerBlock(PerBlockResponse {
            entries: (0..2)
                .map(|_| BlockEntry {
                    filter: BloomFilter::new(config(Scheme::Strawman).bloom()),
                    fragment: BlockFragment::Empty,
                })
                .collect(),
        });
        assert!(matches!(
            client
                .verify(&Address::new("1Ghost"), &response)
                .unwrap_err(),
            QueryError::FilterHashMismatch { height: 1 }
        ));
    }

    #[test]
    fn storage_bytes_counts_headers() {
        let chain = chain_for(Scheme::Lvq, 3);
        let client = LightClient::new(config(Scheme::Lvq), chain.headers());
        assert_eq!(client.tip_height(), 3);
        // 80 base + 3 presence + bmt(32) + smt(32).
        assert_eq!(client.storage_bytes(), 3 * 147);
    }

    #[test]
    fn header_chain_validation() {
        let chain = chain_for(Scheme::Lvq, 4);
        let client = LightClient::new(config(Scheme::Lvq), chain.headers());
        client.validate_header_chain().unwrap();

        // Tamper one header: the chain breaks at the next height.
        let mut headers = chain.headers();
        headers[1].nonce ^= 1;
        let broken = LightClient::new(config(Scheme::Lvq), headers);
        assert_eq!(
            broken.validate_header_chain().unwrap_err(),
            QueryError::BrokenHeaderChain { height: 3 }
        );

        // Splice in a header from nowhere: breaks at its own height.
        let mut headers = chain.headers();
        headers[2].prev_block = lvq_crypto::Hash256::hash(b"fork");
        let forked = LightClient::new(config(Scheme::Lvq), headers);
        assert_eq!(
            forked.validate_header_chain().unwrap_err(),
            QueryError::BrokenHeaderChain { height: 3 }
        );

        // An empty header set is a valid (empty) chain.
        LightClient::new(config(Scheme::Lvq), Vec::new())
            .validate_header_chain()
            .unwrap();
    }

    #[test]
    fn append_headers_follows_growth() {
        let long = chain_for(Scheme::Lvq, 6);
        let all = long.headers();
        let mut client = LightClient::new(config(Scheme::Lvq), all[..4].to_vec());
        client.append_headers(all[4..].iter().copied()).unwrap();
        assert_eq!(client.tip_height(), 6);
        client.validate_header_chain().unwrap();

        // A header that does not extend the tip is rejected and nothing
        // is appended.
        let mut stale = LightClient::new(config(Scheme::Lvq), all[..4].to_vec());
        assert_eq!(
            stale.append_headers([all[5]]).unwrap_err(),
            QueryError::BrokenHeaderChain { height: 5 }
        );
        assert_eq!(stale.tip_height(), 4);

        // Appending onto an empty client is an initial sync.
        let mut fresh = LightClient::new(config(Scheme::Lvq), Vec::new());
        fresh.append_headers(all.iter().copied()).unwrap();
        assert_eq!(fresh.tip_height(), 6);
    }

    #[test]
    fn empty_chain_verifies_empty_response() {
        for scheme in Scheme::ALL {
            let chain = chain_for(scheme, 0);
            let prover = Prover::new(&chain, config(scheme)).unwrap();
            let (response, _) = prover.respond(&Address::new("1Anyone")).unwrap();
            let client = LightClient::new(config(scheme), Vec::new());
            let history = client.verify(&Address::new("1Anyone"), &response).unwrap();
            assert!(history.transactions.is_empty());
            assert_eq!(history.balance.net(), 0);
        }
    }
}
