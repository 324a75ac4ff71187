//! The full-node side: response generation (paper §V).

use lvq_bloom::BloomFilter;
use lvq_chain::{Address, BlockSource, Chain, InMemoryBlocks, InMemoryTables, TableSource};
use lvq_merkle::bmt::{self, BmtBatchNode};

use crate::batch::{
    BatchBlockEntry, BatchPerBlockResponse, BatchQueryResponse, BatchSegmentBundle,
    BatchSegmentedResponse,
};
use crate::error::ProveError;
use crate::fragment::{BlockFragment, ExistenceProof, TxWithBranch};
use crate::result::QueryResponse;
use crate::scheme::{Scheme, SchemeConfig};
use crate::segment::segments;
use crate::stats::ProverStats;

/// A full node's query answering engine.
///
/// Borrowing the [`Chain`] immutably, a prover turns an address into the
/// scheme's [`QueryResponse`] together with [`ProverStats`] describing
/// what it cost (endpoint counts, FPM hits, fragment census).
///
/// The prover is generic over the chain's [`BlockSource`]: against the
/// default in-memory source block bodies are already deserialized, while
/// against a disk-backed source they are materialized lazily — only for
/// the (few) blocks whose filters actually matched.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct Prover<'a, S: BlockSource = InMemoryBlocks, T: TableSource = InMemoryTables> {
    chain: &'a Chain<S, T>,
    config: SchemeConfig,
}

impl<S: BlockSource, T: TableSource> Clone for Prover<'_, S, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: BlockSource, T: TableSource> Copy for Prover<'_, S, T> {}

impl<'a, S: BlockSource, T: TableSource> Prover<'a, S, T> {
    /// Creates a prover for `chain` with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ProveError::SchemeMismatch`] if the chain was built
    /// with different parameters than `config` implies.
    pub fn new(chain: &'a Chain<S, T>, config: SchemeConfig) -> Result<Self, ProveError> {
        if chain.params() != config.chain_params() {
            return Err(ProveError::SchemeMismatch);
        }
        Ok(Prover { chain, config })
    }

    /// Creates a prover, inferring the configuration from the chain.
    ///
    /// # Errors
    ///
    /// Returns [`ProveError::SchemeMismatch`] if the chain's commitment
    /// policy matches none of the four schemes.
    pub fn from_chain(chain: &'a Chain<S, T>) -> Result<Self, ProveError> {
        let config =
            SchemeConfig::from_chain_params(chain.params()).ok_or(ProveError::SchemeMismatch)?;
        Ok(Prover { chain, config })
    }

    /// This prover's configuration.
    pub fn config(&self) -> SchemeConfig {
        self.config
    }

    /// Answers a transaction-history query for `address` over the whole
    /// chain.
    ///
    /// # Errors
    ///
    /// Returns a [`ProveError`] only on prover-side inconsistencies
    /// (wrong scheme, corrupted chain); honest configurations never
    /// fail.
    pub fn respond(&self, address: &Address) -> Result<(QueryResponse, ProverStats), ProveError> {
        self.batch_of_one(address, self.respond_batch(std::slice::from_ref(address)))
    }

    /// Answers a query restricted to blocks `lo..=hi` (paper §VII-A:
    /// "a query of larger range can be performed similarly" — and so
    /// can a smaller one).
    ///
    /// BMT roots only exist for canonical dyadic spans, so a range
    /// query reuses the canonical segments that intersect the range;
    /// at the left boundary the segment proof may cover blocks below
    /// `lo`, whose failed leaves then simply need no block-level
    /// fragment. The verifier applies the same rule
    /// ([`crate::LightClient::verify_range`]).
    ///
    /// # Errors
    ///
    /// Returns [`ProveError::InvalidRange`] unless
    /// `1 ≤ lo ≤ hi ≤ tip`.
    pub fn respond_range(
        &self,
        address: &Address,
        lo: u64,
        hi: u64,
    ) -> Result<(QueryResponse, ProverStats), ProveError> {
        let batch = self.respond_batch_range(std::slice::from_ref(address), lo, hi);
        self.batch_of_one(address, batch)
    }

    /// A single-address query is the batch of one, re-tagged into the
    /// single-address encoding; its proof statistics move to
    /// [`ProverStats::bmt`].
    fn batch_of_one(
        &self,
        address: &Address,
        batch: Result<(BatchQueryResponse, ProverStats), ProveError>,
    ) -> Result<(QueryResponse, ProverStats), ProveError> {
        let (batch, mut stats) = batch?;
        stats.bmt = std::mem::take(&mut stats.batch_bmt);
        let positions = BloomFilter::bit_positions(self.config.bloom(), address.as_bytes());
        Ok((QueryResponse::from_batch_of_one(batch, &positions), stats))
    }

    /// Answers one batched query for several addresses over the whole
    /// chain (the multi-address counterpart of [`Prover::respond`]).
    ///
    /// Under the BMT schemes, each segment receives a single shared
    /// descent ([`bmt::prove_multi`]) serving every address's bit
    /// positions; under the per-block schemes, each block's filter is
    /// included once for all addresses.
    ///
    /// # Errors
    ///
    /// Returns [`ProveError::EmptyBatch`] for an empty address list, and
    /// otherwise fails only on prover-side inconsistencies, exactly as
    /// [`Prover::respond`].
    pub fn respond_batch(
        &self,
        addresses: &[Address],
    ) -> Result<(BatchQueryResponse, ProverStats), ProveError> {
        self.respond_batch_over(addresses, None)
    }

    /// Answers a batched query restricted to blocks `lo..=hi` — the
    /// multi-address counterpart of [`Prover::respond_range`], with the
    /// same boundary rule: a left-boundary segment's proof may cover
    /// blocks below `lo`, whose failed leaves then need no block-level
    /// fragment for any address.
    ///
    /// # Errors
    ///
    /// Returns [`ProveError::EmptyBatch`] for an empty address list and
    /// [`ProveError::InvalidRange`] unless `1 ≤ lo ≤ hi ≤ tip`.
    pub fn respond_batch_range(
        &self,
        addresses: &[Address],
        lo: u64,
        hi: u64,
    ) -> Result<(BatchQueryResponse, ProverStats), ProveError> {
        self.respond_batch_over(addresses, Some((lo, hi)))
    }

    /// The one proving path: the whole chain when `range` is `None`,
    /// else `lo..=hi` after checking `1 ≤ lo ≤ hi ≤ tip`.
    fn respond_batch_over(
        &self,
        addresses: &[Address],
        range: Option<(u64, u64)>,
    ) -> Result<(BatchQueryResponse, ProverStats), ProveError> {
        // `lo = 1, hi = 0` encodes the empty chain.
        let tip = self.chain.tip_height();
        let (lo, hi) = range.unwrap_or((1, tip));
        if range.is_some() && (lo == 0 || lo > hi || hi > tip) {
            return Err(ProveError::InvalidRange { lo, hi, tip });
        }
        if addresses.is_empty() {
            return Err(ProveError::EmptyBatch);
        }
        let position_sets: Vec<Vec<u64>> = addresses
            .iter()
            .map(|a| BloomFilter::bit_positions(self.config.bloom(), a.as_bytes()))
            .collect();
        let mut stats = ProverStats::default();
        let response = if self.config.scheme().is_per_block() {
            // Strawman / LVQ without BMT (paper §IV-A, Fig. 6): each
            // block's filter once, then one fragment per address.
            let mut entries = Vec::with_capacity(hi.saturating_sub(lo) as usize + 1);
            for height in lo..=hi {
                let filter = self.chain.leaf_filter(height)?;
                let mut fragments = Vec::with_capacity(addresses.len());
                for (address, positions) in addresses.iter().zip(&position_sets) {
                    let fragment = if filter.check_positions(positions).is_clean() {
                        BlockFragment::Empty
                    } else {
                        self.resolve_block(height, address, &mut stats)?
                    };
                    stats.fragments.record(&fragment);
                    fragments.push(fragment);
                }
                entries.push(BatchBlockEntry { filter, fragments });
            }
            BatchQueryResponse::PerBlock(BatchPerBlockResponse { entries })
        } else {
            // LVQ / LVQ without SMT (paper §V): one shared BMT proof per
            // (sub-)segment intersecting `lo..=hi`, then per-address
            // fragment sections for its matched leaves.
            let mut bundles = Vec::new();
            for seg in segments(hi, self.config.segment_len()) {
                if seg.hi < lo {
                    // Entirely below the queried range.
                    continue;
                }
                // The source's filter stash dies with this statement,
                // before any block is resolved.
                let proof =
                    bmt::prove_multi(&self.chain.segment_source(seg.lo, seg.hi)?, &position_sets)?;
                stats.batch_bmt.merge(&proof.stats());
                let mut failed = vec![Vec::new(); addresses.len()];
                failed_leaves_per_set(proof.root(), seg.lo, seg.hi, &position_sets, &mut failed);
                let mut sections = Vec::with_capacity(addresses.len());
                for (address, heights) in addresses.iter().zip(failed) {
                    let mut section = Vec::with_capacity(heights.len());
                    // A boundary segment's matches below `lo` are
                    // outside the query: no block-level resolution is
                    // owed for them.
                    for height in heights.into_iter().filter(|&h| h >= lo) {
                        let fragment = self.resolve_block(height, address, &mut stats)?;
                        stats.fragments.record(&fragment);
                        section.push((height, fragment));
                    }
                    sections.push(section);
                }
                bundles.push(BatchSegmentBundle { proof, sections });
            }
            BatchQueryResponse::Segmented(BatchSegmentedResponse { segments: bundles })
        };
        Ok((response, stats))
    }

    /// Consults a block body to resolve a failed filter check into the
    /// scheme's fragment (the table in [`BlockFragment`]'s docs).
    fn resolve_block(
        &self,
        height: u64,
        address: &Address,
        stats: &mut ProverStats,
    ) -> Result<BlockFragment, ProveError> {
        stats.blocks_resolved += 1;
        let block = self.chain.block(height)?;
        let indices = block.tx_indices_for(address);
        let existent = !indices.is_empty();
        if !existent {
            stats.fpm_blocks += 1;
        }

        Ok(match (self.config.scheme(), existent) {
            // Existent cases.
            (Scheme::Strawman, true) => {
                BlockFragment::MerkleBranches(self.branches_for(height, &block, &indices)?)
            }
            (Scheme::LvqWithoutBmt | Scheme::Lvq, true) => {
                let smt = self.chain.address_smt(height)?;
                BlockFragment::Existence(ExistenceProof {
                    smt: smt.prove(address.as_bytes()),
                    transactions: self.branches_for(height, &block, &indices)?,
                })
            }
            (Scheme::LvqWithoutSmt, true) => {
                BlockFragment::IntegralBlock(Box::new((*block).clone()))
            }
            // FPM cases.
            (Scheme::Strawman | Scheme::LvqWithoutSmt, false) => {
                BlockFragment::IntegralBlock(Box::new((*block).clone()))
            }
            (Scheme::LvqWithoutBmt | Scheme::Lvq, false) => {
                let smt = self.chain.address_smt(height)?;
                BlockFragment::AbsenceSmt(smt.prove(address.as_bytes()))
            }
        })
    }

    fn branches_for(
        &self,
        height: u64,
        block: &lvq_chain::Block,
        indices: &[usize],
    ) -> Result<Vec<TxWithBranch>, ProveError> {
        let tree = self.chain.tx_tree(height, block)?;
        Ok(indices
            .iter()
            .map(|&i| TxWithBranch {
                transaction: block.transactions[i].clone(),
                branch: tree.branch(i).expect("index from the same block"),
            })
            .collect())
    }
}

/// Appends, per position set, the heights of the leaf endpoints under
/// `node` (spanning `lo..=hi`) whose filters match it, in ascending
/// order: each address's failed leaves in a shared proof.
fn failed_leaves_per_set(
    node: &BmtBatchNode,
    lo: u64,
    hi: u64,
    position_sets: &[Vec<u64>],
    out: &mut [Vec<u64>],
) {
    match node {
        BmtBatchNode::Leaf { filter } => {
            for (positions, heights) in position_sets.iter().zip(out.iter_mut()) {
                if !filter.check_positions(positions).is_clean() {
                    heights.push(lo);
                }
            }
        }
        BmtBatchNode::CleanNode { .. } => {}
        BmtBatchNode::Branch { left, right } => {
            let mid = lo + (hi - lo) / 2;
            failed_leaves_per_set(left, lo, mid, position_sets, out);
            failed_leaves_per_set(right, mid + 1, hi, position_sets, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifier::LightClient;
    use lvq_bloom::BloomParams;
    use lvq_chain::{CacheConfig, ChainBuilder, Transaction};
    use lvq_codec::Encodable;

    fn config(scheme: Scheme) -> SchemeConfig {
        SchemeConfig::new(scheme, BloomParams::new(128, 2).unwrap(), 4).unwrap()
    }

    fn payee() -> Address {
        Address::new("1Payee")
    }

    /// Block `h` holds a miner coinbase plus payments of `values[h - 1]`
    /// and one more to the payee: three leaves, so the payee's first
    /// branch climbs through the hash of its second.
    fn chain_paying(config: SchemeConfig, values: &[u64], cache: CacheConfig) -> Chain {
        let params = config.chain_params().with_cache_config(cache);
        let mut builder = ChainBuilder::new(params).unwrap();
        for (i, &value) in values.iter().enumerate() {
            let h = i as u32 + 1;
            builder
                .push_block(vec![
                    Transaction::coinbase(Address::new("1Miner"), 50, h),
                    Transaction::coinbase(payee(), value, 100 + h),
                    Transaction::coinbase(payee(), value + 1, 200 + h),
                ])
                .unwrap();
        }
        builder.finish()
    }

    #[test]
    fn reorg_drops_memoised_tx_trees() {
        // Canonical and winner differ only in the payment values from
        // height 6 on: same addresses and counts, so the same filters
        // and SMTs. Only the transaction trees tell the blocks apart.
        let config = config(Scheme::Lvq);
        let mut chain = chain_paying(config, &[10; 8], CacheConfig::default());
        let winner = chain_paying(
            config,
            &[10, 10, 10, 10, 10, 99, 99, 99],
            CacheConfig::default(),
        );
        Prover::new(&chain, config)
            .unwrap()
            .respond(&payee())
            .unwrap();
        assert_eq!(chain.cache_stats().tx_trees.entries, 8);

        let branch: Vec<_> = (6..=8).map(|h| winner.block(h).unwrap()).collect();
        chain.reorg_to(5, &branch).unwrap();
        let (response, _) = Prover::new(&chain, config)
            .unwrap()
            .respond(&payee())
            .unwrap();
        let history = LightClient::new(config, winner.headers())
            .verify(&payee(), &response)
            .unwrap();
        assert_eq!(history.transactions, winner.history_of(&payee()));
    }

    #[test]
    fn responses_are_identical_under_every_memo_budget() {
        let values = [1, 2, 3, 4, 5, 6, 7, 8, 9];
        let addresses = [payee(), Address::new("1Miner"), Address::new("1Nobody")];
        for scheme in Scheme::ALL {
            let config = config(scheme);
            // Default, nothing, and exactly one span filter: the FIFO
            // evicts each rebuilt child before the descent reaches it.
            let one_filter = config.chain_params().bloom().size_bytes() as usize;
            let starved = [
                CacheConfig::disabled(),
                CacheConfig {
                    filter_cache_bytes: one_filter,
                    ..CacheConfig::default()
                },
            ];
            let memoised = chain_paying(config, &values, CacheConfig::default());
            let memoised = Prover::new(&memoised, config).unwrap();
            for cache in starved {
                let bare = chain_paying(config, &values, cache);
                let bare = Prover::new(&bare, config).unwrap();
                // Twice over, so the second round answers from warm memos.
                for _ in 0..2 {
                    for address in &addresses {
                        assert_eq!(
                            memoised.respond(address).unwrap().0.encode(),
                            bare.respond(address).unwrap().0.encode(),
                            "{scheme:?} {cache:?} {address}"
                        );
                    }
                    assert_eq!(
                        memoised.respond_batch(&addresses).unwrap().0.encode(),
                        bare.respond_batch(&addresses).unwrap().0.encode(),
                        "{scheme:?} {cache:?} batch"
                    );
                }
            }
        }
    }

    #[test]
    fn a_repeated_query_hits_the_tx_tree_memo() {
        let config = config(Scheme::Lvq);
        let chain = chain_paying(config, &[10; 8], CacheConfig::default());
        let prover = Prover::new(&chain, config).unwrap();
        prover.respond(&payee()).unwrap();
        let first = chain.cache_stats().tx_trees;
        assert_eq!((first.hits, first.misses), (0, 8));
        prover.respond(&payee()).unwrap();
        let second = chain.cache_stats().tx_trees;
        assert_eq!((second.hits, second.misses), (8, 8));
    }
}
