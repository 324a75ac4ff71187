//! The assembled [`Chain`] and its lazy BMT access.

use std::cell::RefCell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::hash::Hash;
use std::sync::Arc;

use parking_lot::Mutex;

use lvq_bloom::BloomFilter;
use lvq_crypto::Hash256;
use lvq_merkle::bmt::{merge_count, BmtBuilder, BmtSource};
use lvq_merkle::{MerkleTree, SortedMerkleTree};

use crate::address::Address;
use crate::block::{table_filter, table_smt, Block};
use crate::error::ChainError;
use crate::header::BlockHeader;
use crate::params::{CacheConfig, ChainParams};
use crate::source::{BlockSource, InMemoryBlocks};
use crate::tables::{InMemoryTables, SpanRecord, TableSource, TableUpdate};

/// Hit/miss and occupancy counters of one of the chain's memo caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to recompute.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: u64,
    /// Approximate bytes currently cached.
    pub used_bytes: u64,
}

/// Combined statistics of all chain-side caches: the chain's three memo
/// caches plus the block and table sources' own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChainCacheStats {
    /// The dyadic-span Bloom filter cache.
    pub filters: CacheStats,
    /// The per-block SMT cache.
    pub smts: CacheStats,
    /// The per-block transaction Merkle tree cache, beside the SMTs
    /// under the same [`CacheConfig::smt_cache_bytes`] budget.
    pub tx_trees: CacheStats,
    /// The block source's own cache (all zeros for a fully in-memory
    /// source, which never misses and never caches).
    pub blocks: CacheStats,
    /// The table source's index node cache (all zeros for the
    /// in-memory table source, which keeps everything resident).
    pub index_nodes: CacheStats,
}

/// A bounded FIFO memo cache with hit/miss counters.
///
/// Entries carry an explicit byte size; inserting past the budget evicts
/// in insertion order. FIFO (rather than LRU) keeps `put` O(1). It is
/// not enough on its own within one query: a span-filter miss memoises
/// a whole subtree, children before parents, so under a budget smaller
/// than the subtree the FIFO evicts exactly the children the BMT
/// descent asks for next. [`SegmentBmtSource`]'s per-descent stash
/// serves those instead. Across queries the whole working set either
/// fits or does not.
#[derive(Debug)]
struct MemoCache<K, V> {
    budget_bytes: usize,
    used_bytes: usize,
    entries: HashMap<K, (V, usize)>,
    order: VecDeque<K>,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Copy, V: Clone> MemoCache<K, V> {
    fn new(budget_bytes: usize) -> Self {
        MemoCache {
            budget_bytes,
            used_bytes: 0,
            entries: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        match self.entries.get(key) {
            Some((value, _)) => {
                self.hits += 1;
                Some(value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn put(&mut self, key: K, value: V, size: usize) {
        if size > self.budget_bytes {
            return;
        }
        match self.entries.insert(key, (value, size)) {
            None => {
                self.used_bytes += size;
                self.order.push_back(key);
            }
            Some((_, old_size)) => {
                self.used_bytes = self.used_bytes - old_size + size;
            }
        }
        while self.used_bytes > self.budget_bytes {
            let Some(evict) = self.order.pop_front() else {
                break;
            };
            if let Some((_, evicted_size)) = self.entries.remove(&evict) {
                self.used_bytes -= evicted_size;
            }
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.used_bytes = 0;
    }

    /// Drops every entry and adopts a new byte budget; the hit/miss
    /// counters keep counting across the resize.
    fn reset_with_budget(&mut self, budget_bytes: usize) {
        self.clear();
        self.budget_bytes = budget_bytes;
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries.len() as u64,
            used_bytes: self.used_bytes as u64,
        }
    }
}

/// The chain's memo caches, cleared and re-sized together so no memo
/// can outlive a rewind another one forgot.
#[derive(Debug)]
struct Memos {
    /// Bloom filters, keyed by span (`(h, h)` for leaves).
    filters: Mutex<MemoCache<(u64, u64), Arc<BloomFilter>>>,
    /// Per-block SMTs, keyed by height.
    smts: Mutex<MemoCache<u64, Arc<SortedMerkleTree>>>,
    /// Per-block transaction Merkle trees, keyed by height; sized by
    /// the SMT budget.
    tx_trees: Mutex<MemoCache<u64, Arc<MerkleTree>>>,
}

impl Memos {
    fn new(cache: CacheConfig) -> Self {
        Memos {
            filters: Mutex::new(MemoCache::new(cache.filter_cache_bytes)),
            smts: Mutex::new(MemoCache::new(cache.smt_cache_bytes)),
            tx_trees: Mutex::new(MemoCache::new(cache.smt_cache_bytes)),
        }
    }

    fn clear(&self) {
        self.filters.lock().clear();
        self.smts.lock().clear();
        self.tx_trees.lock().clear();
    }

    fn reset_with_budgets(&self, cache: CacheConfig) {
        self.filters
            .lock()
            .reset_with_budget(cache.filter_cache_bytes);
        self.smts.lock().reset_with_budget(cache.smt_cache_bytes);
        self.tx_trees
            .lock()
            .reset_with_budget(cache.smt_cache_bytes);
    }
}

/// An assembled blockchain: blocks at heights `1..=tip` behind a
/// [`BlockSource`], per-block address tables behind a [`TableSource`],
/// and the hash of every dyadic BMT span.
///
/// Headers and span hashes always live in memory — they are small and
/// every query touches them. The blocks sit behind the `S` parameter:
/// [`InMemoryBlocks`] (the default, what [`crate::ChainBuilder`]
/// produces) keeps them all deserialized, while a disk-backed source
/// materializes them lazily through a bounded cache. The per-block
/// address tables sit behind the `T` parameter the same way:
/// [`InMemoryTables`] keeps them all resident, while a persistent
/// authenticated index serves them from point reads.
///
/// Bloom filters are *not* stored (a 4,096-block chain of 500 KB filters
/// would need 2 GB); they are recomputed from the address tables on
/// demand through a bounded cache. Recomputation is exact: a filter is a
/// pure function of the address set and the shared [`lvq_bloom::BloomParams`].
#[derive(Debug)]
pub struct Chain<S: BlockSource = InMemoryBlocks, T: TableSource = InMemoryTables> {
    pub(crate) params: ChainParams,
    /// Every block header, heights 1-based.
    pub(crate) headers: Vec<BlockHeader>,
    /// Per-block sorted `(address, distinct-tx count)` tables; always
    /// consistent with `headers` (`tables.len() == headers.len()`).
    pub(crate) tables: T,
    /// BMT node hash for every finalised dyadic span `(lo, hi)`.
    pub(crate) span_hashes: HashMap<(u64, u64), Hash256>,
    /// Block storage.
    pub(crate) source: S,
    /// The live BMT builder positioned at `tip + 1`, retained so the
    /// next block appends without replaying the segment. `None` either
    /// because the policy commits no BMT or because the chain has not
    /// built one since it was restored, rewound or refused a table
    /// push; the next block then rebuilds it from the span hashes.
    pub(crate) bmt_builder: Option<BmtBuilder>,
    /// Memoised span filters, SMTs and transaction trees.
    memos: Memos,
}

impl<S: BlockSource> Chain<S> {
    /// Assembles a chain over `source` without replaying commitments.
    ///
    /// One sequential [`BlockSource::scan`] reads each block's header
    /// and address table, then the chain absorbs them in order exactly
    /// as [`Chain::extend_one`] would: headers, per-block address
    /// tables, and — when the policy commits a BMT — the dyadic span
    /// hashes, regenerated through the same incremental [`BmtBuilder`]
    /// the original build used. Header chaining (each block's
    /// `prev_block` hash) is still checked, but transaction Merkle
    /// roots, SMT commitments, and filter content hashes are *trusted*:
    /// use this only on storage you own, where record checksums (or an
    /// earlier full validation) already vouch for the bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::BrokenChainLink`] if the headers do not
    /// chain, or any error from the source or the BMT builder.
    pub fn assemble_trusted(params: ChainParams, source: S) -> Result<Self, ChainError> {
        let mut scanned = Vec::new();
        source.scan(&mut |_, block| {
            scanned.push((block.header, block.address_counts()));
            Ok(())
        })?;
        let mut chain = Chain::from_restored_parts(
            params,
            Vec::new(),
            HashMap::new(),
            source,
            InMemoryTables::new(),
        )?;
        for (header, table) in scanned {
            chain.absorb(header, table)?;
        }
        Ok(chain)
    }
}

impl<S: BlockSource, T: TableSource> Chain<S, T> {
    /// Reassembles a chain from already-verified restored state: headers
    /// and span hashes (from a trusted on-disk record), a block source,
    /// and a table source that is consistent with exactly
    /// `headers.len()` blocks. Nothing is replayed; callers absorb any
    /// delta the source holds beyond the restored tip with
    /// [`Chain::extend_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Source`] if `tables.len() != headers.len()`
    /// or the block source holds fewer blocks than the restored tip.
    pub fn from_restored_parts(
        params: ChainParams,
        headers: Vec<BlockHeader>,
        span_hashes: HashMap<(u64, u64), Hash256>,
        source: S,
        tables: T,
    ) -> Result<Self, ChainError> {
        if tables.len() != headers.len() as u64 {
            return Err(ChainError::Source {
                detail: format!(
                    "table source at height {} does not match restored tip {}",
                    tables.len(),
                    headers.len()
                ),
            });
        }
        if source.len() < headers.len() as u64 {
            return Err(ChainError::Source {
                detail: format!(
                    "block source at height {} is behind restored tip {}",
                    source.len(),
                    headers.len()
                ),
            });
        }
        Ok(Chain {
            params,
            headers,
            tables,
            span_hashes,
            source,
            bmt_builder: None,
            memos: Memos::new(params.cache_config()),
        })
    }

    /// Absorbs the block at `tip + 1` from the source into the derived
    /// state (header, address table, BMT span hashes), returning the new
    /// tip height.
    ///
    /// The block must already be durable in the source — append to the
    /// store *first*, then extend. On a crash between the two, the store
    /// leads the derived state and a restart re-assembles from it, so
    /// nothing is lost and nothing is double-counted.
    ///
    /// Commitments are trusted exactly as in
    /// [`Chain::assemble_trusted`]; header chaining is still checked.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownHeight`] if the source has no block
    /// beyond the current tip, [`ChainError::BrokenChainLink`] if the
    /// next block does not chain onto the tip header, or any source or
    /// BMT builder error.
    pub fn extend_one(&mut self) -> Result<u64, ChainError> {
        let block = self.source.block(self.tip_height() + 1)?;
        self.absorb(block.header, block.address_counts())
    }

    /// Absorbs the block at `tip + 1` whose commitments are trusted:
    /// checks that `header` links onto the tip, pushes the leaf filter
    /// of `table` into the BMT builder when the policy commits one, and
    /// records the block.
    fn absorb(
        &mut self,
        header: BlockHeader,
        table: Vec<(Address, u64)>,
    ) -> Result<u64, ChainError> {
        if header.prev_block != self.tip_hash() {
            return Err(ChainError::BrokenChainLink {
                height: self.tip_height() + 1,
            });
        }
        let mut new_spans = Vec::new();
        if self.params.policy().bmt {
            new_spans = self.push_leaf(table_filter(self.params.bloom(), &table))?.1;
        }
        self.record(header, table, &new_spans)
    }

    /// Pushes the leaf filter of the block at `tip + 1` into the live
    /// BMT builder, first rebuilding the builder from the span hashes
    /// if the chain holds none, and returns the block's BMT root with
    /// the spans its leaf finalised.
    pub(crate) fn push_leaf(
        &mut self,
        filter: BloomFilter,
    ) -> Result<(Hash256, Vec<SpanRecord>), ChainError> {
        let mut builder = match self.bmt_builder.take() {
            Some(builder) => builder,
            None => self.rebuild_bmt_builder()?,
        };
        let commit = builder.push_leaf(filter);
        self.bmt_builder = Some(builder);
        let commit = commit?;
        let spans = commit
            .new_spans
            .into_iter()
            .map(|span| SpanRecord {
                lo: span.lo,
                hi: span.hi,
                hash: span.hash,
            })
            .collect();
        Ok((commit.root, spans))
    }

    /// Records the block at `tip + 1`, whose leaf (if any) the BMT
    /// builder already holds: the table source first, then the span
    /// hashes and the header, so a refused table push leaves the
    /// previous tip intact. Every block enters the chain here.
    pub(crate) fn record(
        &mut self,
        header: BlockHeader,
        table: Vec<(Address, u64)>,
        new_spans: &[SpanRecord],
    ) -> Result<u64, ChainError> {
        let height = self.tip_height() + 1;
        if let Err(e) = self.tables.push(TableUpdate {
            height,
            header: &header,
            table: Arc::new(table),
            new_spans,
        }) {
            // The builder already consumed this block's leaf; drop it so
            // a retry rebuilds it from the span hashes at the old tip.
            self.bmt_builder = None;
            return Err(e);
        }
        for span in new_spans {
            self.span_hashes.insert((span.lo, span.hi), span.hash);
        }
        self.headers.push(header);
        Ok(height)
    }

    /// Absorbs up to `max` blocks the source holds beyond the current
    /// tip, returning how many were absorbed (zero when already caught
    /// up). Repeated [`Chain::extend_one`] — see there for the
    /// durability contract — after validating the *whole* batch's
    /// header linkage up front, so a non-linking block anywhere in the
    /// batch rejects it atomically: neither the chain nor its derived
    /// state absorbs any prefix of a batch that cannot complete.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::BrokenChainLink`] with the chain exactly
    /// at its pre-batch state if any candidate block fails to link;
    /// otherwise as [`Chain::extend_one`].
    pub fn extend_batch(&mut self, max: u64) -> Result<u64, ChainError> {
        let start = self.tip_height();
        let goal = self.source.len().min(start.saturating_add(max));
        let mut prev = self.tip_hash();
        for height in start + 1..=goal {
            let block = self.source.block(height)?;
            if block.header.prev_block != prev {
                return Err(ChainError::BrokenChainLink { height });
            }
            prev = block.header.block_hash();
        }
        let mut absorbed = 0;
        while self.tip_height() < goal {
            self.extend_one()?;
            absorbed += 1;
        }
        Ok(absorbed)
    }

    /// A BMT builder positioned at `tip + 1`, rebuilt from stored span
    /// hashes and recomputed span filters: the dyadic decomposition of
    /// the partial segment, widest first.
    fn rebuild_bmt_builder(&self) -> Result<BmtBuilder, ChainError> {
        let tip = self.tip_height();
        let m = self.params.segment_len();
        let mut rem = tip % m;
        let mut start = tip - rem + 1;
        let mut stack = Vec::new();
        while rem > 0 {
            let width = 1u64 << (63 - rem.leading_zeros());
            let (lo, hi) = (start, start + width - 1);
            let hash = self.span_hash(lo, hi).ok_or(ChainError::Bmt(
                lvq_merkle::BmtError::MalformedProof {
                    reason: "missing span hash while resuming",
                },
            ))?;
            let filter = self.span_filter(lo, hi)?;
            stack.push((lo, hi, hash, filter));
            start += width;
            rem -= width;
        }
        Ok(BmtBuilder::resume(
            self.params.bloom(),
            m,
            1,
            tip + 1,
            stack,
        )?)
    }

    /// The chain's configuration.
    pub fn params(&self) -> ChainParams {
        self.params
    }

    /// Read access to the block source (e.g. to report its resident
    /// footprint).
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Re-sizes every memo cache to `cache`'s budgets, dropping every
    /// cached entry (the hit/miss counters keep counting).
    ///
    /// Cache budgets are operational, not protocol: a chain loaded from
    /// disk starts with [`CacheConfig::default`], and a server operator
    /// re-sizes it here before serving.
    pub fn set_cache_config(&mut self, cache: CacheConfig) {
        self.params = self.params.with_cache_config(cache);
        self.memos.reset_with_budgets(cache);
        self.tables.set_cache_budget(cache.index_node_cache_bytes);
    }

    /// Height of the latest block (`0` for an empty chain).
    pub fn tip_height(&self) -> u64 {
        self.headers.len() as u64
    }

    /// Hash of the latest block's header ([`Hash256::ZERO`] for an
    /// empty chain) — the value the next block's `prev_block` must
    /// carry, so ingest pipelines can validate linkage before
    /// persisting anything.
    pub fn tip_hash(&self) -> Hash256 {
        self.headers
            .last()
            .map_or(Hash256::ZERO, BlockHeader::block_hash)
    }

    /// Hash of the header at `height` — [`Hash256::ZERO`] at height 0 —
    /// which is the `prev_block` value a block at `height + 1` must
    /// carry. This is the fork-point anchor a reorg validates against.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownHeight`] above the tip.
    pub fn hash_at(&self, height: u64) -> Result<Hash256, ChainError> {
        if height == 0 {
            return Ok(Hash256::ZERO);
        }
        self.header(height).map(BlockHeader::block_hash)
    }

    /// Rewinds the chain to `height`, discarding every block above it
    /// from both the block source and all derived state: headers,
    /// address tables, BMT span hashes whose span reaches above
    /// `height`, the live BMT builder (rebuilt lazily from the
    /// surviving span hashes on the next extension), and every memo
    /// cache.
    ///
    /// Derived state is truncated *before* the block source, mirroring
    /// the forward durability rule (the store always leads): if the
    /// source truncation fails midway, the chain is left in the normal
    /// "source ahead of derived" state a restart already knows how to
    /// absorb.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownHeight`] if `height` is above the
    /// tip, or any error from the sources.
    pub fn rewind_to(&mut self, height: u64) -> Result<(), ChainError> {
        let tip = self.tip_height();
        if height > tip {
            return Err(ChainError::UnknownHeight { height });
        }
        if height == tip {
            return Ok(());
        }
        self.tables.truncate(height)?;
        self.headers.truncate(height as usize);
        self.span_hashes.retain(|&(_, hi), _| hi <= height);
        self.bmt_builder = None;
        self.memos.clear();
        self.tables.clear_cache();
        self.source.truncate(height)?;
        Ok(())
    }

    /// Switches the chain to a competing branch: validates that
    /// `branch` links contiguously onto the header at `fork_height`,
    /// rewinds to the fork point ([`Chain::rewind_to`]), then appends
    /// and absorbs every branch block in order. Returns the new tip
    /// height.
    ///
    /// Linkage is validated *before* any state is touched, so a
    /// malformed branch leaves the chain exactly as it was. Fork
    /// *choice* (whether this branch should win) is the caller's
    /// business — typically a `ForkTree` applying the longest-chain
    /// rule.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownHeight`] if `fork_height` is above
    /// the tip, [`ChainError::BrokenChainLink`] if the branch does not
    /// link, [`ChainError::Source`] on an empty branch, or any error
    /// from the rewind or replay.
    pub fn reorg_to(&mut self, fork_height: u64, branch: &[Arc<Block>]) -> Result<u64, ChainError> {
        if branch.is_empty() {
            return Err(ChainError::Source {
                detail: "reorg branch is empty".into(),
            });
        }
        let mut prev = self.hash_at(fork_height)?;
        for (i, block) in branch.iter().enumerate() {
            let height = fork_height + 1 + i as u64;
            if block.header.prev_block != prev {
                return Err(ChainError::BrokenChainLink { height });
            }
            prev = block.header.block_hash();
        }
        self.rewind_to(fork_height)?;
        for block in branch {
            self.source.push_block(block.clone())?;
            self.extend_one()?;
        }
        Ok(self.tip_height())
    }

    /// The block at `height` (heights are 1-based, like the paper's
    /// Table II examples), materialized from the block source.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownHeight`] outside `1..=tip` and
    /// [`ChainError::Source`] if the backing storage fails.
    pub fn block(&self, height: u64) -> Result<Arc<Block>, ChainError> {
        self.index(height)?;
        self.source.block(height)
    }

    /// The header at `height`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownHeight`] outside `1..=tip`.
    pub fn header(&self, height: u64) -> Result<&BlockHeader, ChainError> {
        self.index(height).map(|i| &self.headers[i])
    }

    /// Copies every header — the download a light node performs.
    pub fn headers(&self) -> Vec<BlockHeader> {
        self.headers.clone()
    }

    /// The sorted `(address, count)` table of the block at `height`,
    /// served from the table source (a point read for an indexed
    /// source, a vector lookup for the in-memory one).
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownHeight`] outside `1..=tip` and
    /// [`ChainError::Source`] if the table source fails.
    pub fn addr_counts(&self, height: u64) -> Result<Arc<Vec<(Address, u64)>>, ChainError> {
        self.index(height)?;
        self.tables.table(height)
    }

    /// Read access to the table source (e.g. to report its resident
    /// footprint or per-address index).
    pub fn tables(&self) -> &T {
        &self.tables
    }

    /// Flushes the table source and anchors it at the current tip — call
    /// after the corresponding blocks are durable in the block store so
    /// the index never leads the chain. A no-op for in-memory tables.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Source`] on storage failure.
    pub fn sync_derived(&self) -> Result<(), ChainError> {
        self.tables.sync(self.tip_height())
    }

    /// The Bloom filter of the block at `height`, recomputed or served
    /// from cache.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownHeight`] outside `1..=tip`.
    pub fn leaf_filter(&self, height: u64) -> Result<BloomFilter, ChainError> {
        self.span_filter(height, height)
    }

    /// The union filter over blocks `lo..=hi` (bit-identical to OR-ing
    /// the per-block filters), served from the bounded span memo cache.
    ///
    /// A miss recomputes by halving the span at the BMT midpoint and
    /// unioning the halves, memoising every sub-span on the way up — so
    /// one cold segment descent leaves the whole node-filter working set
    /// cached for subsequent queries, budget permitting. This call keeps
    /// nothing else; a [`SegmentBmtSource`] additionally stashes the
    /// halves it rebuilt for the rest of its descent.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::InvertedSpan`] if `lo > hi` and
    /// [`ChainError::UnknownHeight`] if the range leaves the chain.
    pub fn span_filter(&self, lo: u64, hi: u64) -> Result<BloomFilter, ChainError> {
        self.check_span(lo, hi)?;
        Ok(Arc::unwrap_or_clone(self.span_filter_memo(lo, hi, None)?))
    }

    /// Memoised recursion behind [`Chain::span_filter`] and
    /// [`SegmentBmtSource`]; bounds already checked. Every span rebuilt
    /// from its halves puts both halves into `stash`, when given one.
    fn span_filter_memo(
        &self,
        lo: u64,
        hi: u64,
        mut stash: Option<&mut SpanStash>,
    ) -> Result<Arc<BloomFilter>, ChainError> {
        if let Some(hit) = self.memos.filters.lock().get(&(lo, hi)) {
            return Ok(hit);
        }
        let filter = if lo == hi {
            table_filter(self.params.bloom(), &self.tables.table(lo)?)
        } else {
            let mid = lo + (hi - lo) / 2;
            let left = self.span_filter_memo(lo, mid, stash.as_deref_mut())?;
            let right = self.span_filter_memo(mid + 1, hi, stash.as_deref_mut())?;
            let union = BloomFilter::union(&left, &right).expect("halves share the chain's params");
            if let Some(stash) = stash {
                stash.insert((lo, mid), left);
                stash.insert((mid + 1, hi), right);
            }
            union
        };
        let size = filter.params().size_bytes() as usize;
        let filter = Arc::new(filter);
        self.memos
            .filters
            .lock()
            .put((lo, hi), Arc::clone(&filter), size);
        Ok(filter)
    }

    /// The sorted Merkle tree over the address-count table of the block
    /// at `height`, served from the bounded SMT memo cache.
    ///
    /// Built from the stored table, not from block data — with an
    /// indexed table source this is a handful of point reads, never a
    /// block deserialization. The construction is byte-identical to
    /// [`Block::address_smt`] because the stored table *is*
    /// `Block::address_counts()`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownHeight`] outside `1..=tip` and
    /// [`ChainError::Smt`] if the block's table cannot form a tree.
    pub fn address_smt(&self, height: u64) -> Result<Arc<SortedMerkleTree>, ChainError> {
        self.index(height)?;
        if let Some(hit) = self.memos.smts.lock().get(&height) {
            return Ok(hit);
        }
        let table = self.tables.table(height)?;
        let smt = Arc::new(table_smt(&table)?);
        // Approximate footprint: keys + counts + two hash levels per
        // entry. Only used to bound the cache, not for accounting.
        let size = table
            .iter()
            .map(|(addr, _)| addr.as_bytes().len() + 8 + 64)
            .sum::<usize>()
            + 64;
        self.memos.smts.lock().put(height, smt.clone(), size);
        Ok(smt)
    }

    /// The transaction Merkle tree of `block`, the block at `height`,
    /// served from the bounded per-block memo that sits beside the SMT
    /// cache under [`CacheConfig::smt_cache_bytes`].
    ///
    /// A miss hashes every transaction and interior node once
    /// ([`Block::tx_tree`]); a hit hashes nothing, so repeated queries
    /// over the same block pay only for their branches.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownHeight`] outside `1..=tip` and
    /// [`ChainError::CommitmentMismatch`] if `block` does not carry the
    /// stored header at `height` — a tree built from another block
    /// must never be memoised under this height.
    pub fn tx_tree(&self, height: u64, block: &Block) -> Result<Arc<MerkleTree>, ChainError> {
        if block.header != *self.header(height)? {
            return Err(ChainError::CommitmentMismatch {
                height,
                what: "stored header",
            });
        }
        if let Some(hit) = self.memos.tx_trees.lock().get(&height) {
            return Ok(hit);
        }
        let tree = Arc::new(block.tx_tree());
        // Every level together holds fewer than twice the leaves.
        let size = 2 * tree.len() * std::mem::size_of::<Hash256>() + 64;
        self.memos.tx_trees.lock().put(height, tree.clone(), size);
        Ok(tree)
    }

    /// Hit/miss and occupancy statistics of the chain's memo caches and
    /// the block source's cache.
    pub fn cache_stats(&self) -> ChainCacheStats {
        ChainCacheStats {
            filters: self.memos.filters.lock().stats(),
            smts: self.memos.smts.lock().stats(),
            tx_trees: self.memos.tx_trees.lock().stats(),
            blocks: self.source.cache_stats(),
            index_nodes: self.tables.cache_stats(),
        }
    }

    /// Empties every chain-side cache — the memo caches and the table
    /// source's node cache (hit/miss counters keep counting) — lets
    /// experiments measure cold-cache behaviour on a warm chain.
    pub fn clear_caches(&self) {
        self.memos.clear();
        self.tables.clear_cache();
    }

    /// The stored BMT node hash of the dyadic span `(lo, hi)`, if the
    /// chain committed one.
    pub fn span_hash(&self, lo: u64, hi: u64) -> Option<Hash256> {
        self.span_hashes.get(&(lo, hi)).copied()
    }

    /// A [`BmtSource`] over the segment `lo..=hi`, whose last block
    /// committed the BMT root for exactly this range.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::InvertedSpan`] if `lo > hi`,
    /// [`ChainError::UnknownHeight`] if the range leaves the chain and
    /// [`ChainError::Bmt`] if the range is not dyadic.
    pub fn segment_source(
        &self,
        lo: u64,
        hi: u64,
    ) -> Result<SegmentBmtSource<'_, S, T>, ChainError> {
        self.check_span(lo, hi)?;
        let count = hi - lo + 1;
        if count & (count - 1) != 0 {
            return Err(ChainError::Bmt(
                lvq_merkle::BmtError::LeafCountNotPowerOfTwo { count },
            ));
        }
        Ok(SegmentBmtSource {
            chain: self,
            lo,
            hi,
            stash: RefCell::default(),
        })
    }

    /// Every transaction involving `address`, with heights — ground
    /// truth for tests and the full node's own index.
    ///
    /// When the table source keeps a per-address presence index, only
    /// the blocks the address actually appears in are read; otherwise
    /// (or if the index read fails) this streams through the whole
    /// block source (a disk-backed source scans sequentially without
    /// populating its cache).
    pub fn history_of(&self, address: &Address) -> Vec<(u64, crate::Transaction)> {
        if let Ok(Some(presence)) = self.tables.presence(address) {
            if let Ok(out) = self.history_from_presence(address, &presence) {
                return out;
            }
        }
        let mut out = Vec::new();
        self.source
            .scan(&mut |height, block| {
                for tx in &block.transactions {
                    if tx.involves(address) {
                        out.push((height, tx.clone()));
                    }
                }
                Ok(())
            })
            .expect("in-range sequential scan");
        out
    }

    /// Point-read path behind [`Chain::history_of`]: fetch only the
    /// blocks the presence index names. Heights beyond the pinned tip
    /// are skipped so reads stay tip-consistent.
    fn history_from_presence(
        &self,
        address: &Address,
        presence: &[(u64, u64)],
    ) -> Result<Vec<(u64, crate::Transaction)>, ChainError> {
        let mut out = Vec::new();
        for &(height, _count) in presence {
            if height == 0 || height > self.tip_height() {
                continue;
            }
            let block = self.source.block(height)?;
            for tx in &block.transactions {
                if tx.involves(address) {
                    out.push((height, tx.clone()));
                }
            }
        }
        Ok(out)
    }

    /// Full integrity check: header chaining, Merkle roots, and every
    /// commitment the policy requires. Intended for tests; cost is
    /// O(chain length × block size).
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), ChainError> {
        let policy = self.params.policy();
        let mut prev_hash = Hash256::ZERO;
        let mut bmt_builder = if policy.bmt {
            Some(
                BmtBuilder::new(self.params.bloom(), self.params.segment_len(), 1)
                    .map_err(ChainError::Bmt)?,
            )
        } else {
            None
        };

        self.source.scan(&mut |height, block| {
            let i = (height - 1) as usize;
            if block.header != self.headers[i] {
                return Err(ChainError::CommitmentMismatch {
                    height,
                    what: "stored header",
                });
            }
            if block.header.prev_block != prev_hash {
                return Err(ChainError::BrokenChainLink { height });
            }
            prev_hash = block.header.block_hash();

            if block.header.merkle_root != block.tx_tree().root() {
                return Err(ChainError::CommitmentMismatch {
                    height,
                    what: "merkle root",
                });
            }

            let filter = self.leaf_filter(height)?;
            if policy.bf_hash && block.header.commitments.bf_hash != Some(filter.content_hash()) {
                return Err(ChainError::CommitmentMismatch {
                    height,
                    what: "bloom filter hash",
                });
            }
            if policy.smt {
                let smt = self.address_smt(height)?;
                if block.header.commitments.smt_commitment != Some(smt.commitment()) {
                    return Err(ChainError::CommitmentMismatch {
                        height,
                        what: "smt",
                    });
                }
            }
            if let Some(builder) = bmt_builder.as_mut() {
                let commit = builder.push_leaf(filter).map_err(ChainError::Bmt)?;
                if block.header.commitments.bmt_root != Some(commit.root) {
                    return Err(ChainError::CommitmentMismatch {
                        height,
                        what: "bmt root",
                    });
                }
            }
            // Recomputed address table must match the stored one.
            if block.address_counts() != *self.tables.table(height)? {
                return Err(ChainError::CommitmentMismatch {
                    height,
                    what: "address table",
                });
            }
            Ok(())
        })
    }

    /// In-segment position (1-based) of `height` given the chain's `M` —
    /// the `l` of paper Algorithm 1 with `l = M` at segment ends.
    pub fn segment_position(&self, height: u64) -> u64 {
        let m = self.params.segment_len();
        let r = height % m;
        if r == 0 {
            m
        } else {
            r
        }
    }

    /// The block range `height` merges into its committed BMT (paper
    /// Table I).
    pub fn merged_range(&self, height: u64) -> (u64, u64) {
        let count = merge_count(self.segment_position(height));
        (height - count + 1, height)
    }

    fn check_span(&self, lo: u64, hi: u64) -> Result<(), ChainError> {
        if lo > hi {
            return Err(ChainError::InvertedSpan { lo, hi });
        }
        self.index(lo)?;
        self.index(hi)?;
        Ok(())
    }

    fn index(&self, height: u64) -> Result<usize, ChainError> {
        if height == 0 || height > self.tip_height() {
            return Err(ChainError::UnknownHeight { height });
        }
        Ok((height - 1) as usize)
    }
}

/// Lazy [`BmtSource`] over one segment of a [`Chain`].
///
/// `filter` recomputes node filters from address sets; `node_hash` serves
/// the hashes the chain stored while building.
///
/// Each source owns a stash for one descent: when a span-filter memo
/// miss rebuilds a span from its halves, both halves go into the stash,
/// sharing their `Arc` with the memo. `filter` takes a span out of the
/// stash before it asks the memo, so each dyadic span filter is computed
/// at most once per descent whatever the cache budget. The stash dies
/// with the source; the source borrows the chain, so no rewind or cache
/// resize can run while the stash lives.
#[derive(Debug)]
pub struct SegmentBmtSource<'a, S: BlockSource = InMemoryBlocks, T: TableSource = InMemoryTables> {
    chain: &'a Chain<S, T>,
    lo: u64,
    hi: u64,
    stash: RefCell<SpanStash>,
}

/// Span filters a memo miss rebuilt as halves of a wider span.
type SpanStash = HashMap<(u64, u64), Arc<BloomFilter>>;

impl<S: BlockSource, T: TableSource> BmtSource for SegmentBmtSource<'_, S, T> {
    fn params(&self) -> lvq_bloom::BloomParams {
        self.chain.params.bloom()
    }

    fn span(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }

    fn filter(&self, lo: u64, hi: u64) -> BloomFilter {
        let mut stash = self.stash.borrow_mut();
        let filter = match stash.remove(&(lo, hi)) {
            Some(kept) => kept,
            None => self
                .chain
                .check_span(lo, hi)
                .and_then(|()| self.chain.span_filter_memo(lo, hi, Some(&mut stash)))
                .expect("source span inside chain"),
        };
        Arc::unwrap_or_clone(filter)
    }

    fn node_hash(&self, lo: u64, hi: u64) -> Hash256 {
        self.chain
            .span_hash(lo, hi)
            .expect("dyadic span hash stored at build time")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ChainBuilder;
    use crate::params::CommitmentPolicy;
    use crate::transaction::Transaction;
    use lvq_bloom::BloomParams;
    use lvq_merkle::bmt;

    fn small_chain(cache: CacheConfig) -> Chain {
        let params = ChainParams::new(
            BloomParams::new(128, 2).unwrap(),
            8,
            CommitmentPolicy::lvq(),
        )
        .unwrap()
        .with_cache_config(cache);
        let mut builder = ChainBuilder::new(params).unwrap();
        for h in 1..=8u32 {
            builder
                .push_block(vec![Transaction::coinbase(Address::new("1Miner"), 50, h)])
                .unwrap();
        }
        builder.finish()
    }

    #[test]
    fn cache_budgets_come_from_params() {
        let chain = small_chain(CacheConfig::disabled());
        // With zero budgets nothing is retained: every lookup misses,
        // but results stay correct.
        let a = chain.span_filter(1, 8).unwrap();
        let b = chain.span_filter(1, 8).unwrap();
        assert_eq!(a, b);
        let stats = chain.cache_stats();
        assert_eq!(stats.filters.hits, 0);
        assert_eq!(stats.filters.entries, 0);
        assert!(stats.filters.misses > 0);
    }

    #[test]
    fn set_cache_config_resizes_and_keeps_counters() {
        let mut chain = small_chain(CacheConfig::default());
        chain.span_filter(1, 8).unwrap();
        chain.span_filter(1, 8).unwrap();
        let before = chain.cache_stats();
        assert!(before.filters.hits > 0);
        assert!(before.filters.entries > 0);

        chain.set_cache_config(CacheConfig::new(1, 1));
        let after = chain.cache_stats();
        // Entries dropped, budgets shrunk, counters preserved.
        assert_eq!(after.filters.entries, 0);
        assert_eq!(after.filters.hits, before.filters.hits);
        assert_eq!(after.filters.misses, before.filters.misses);
        assert_eq!(chain.params().cache_config(), CacheConfig::new(1, 1));
        // Too small to hold a filter: still correct, never caches.
        chain.span_filter(1, 8).unwrap();
        assert_eq!(chain.cache_stats().filters.entries, 0);
    }

    #[test]
    fn an_inverted_span_is_an_error() {
        let chain = small_chain(CacheConfig::default());
        assert_eq!(
            chain.span_filter(5, 3),
            Err(ChainError::InvertedSpan { lo: 5, hi: 3 })
        );
        assert!(matches!(
            chain.segment_source(5, 3),
            Err(ChainError::InvertedSpan { lo: 5, hi: 3 })
        ));
    }

    /// Dyadic spans of an 8-leaf segment: `2n − 1`.
    const SEGMENT_SPANS: u64 = 2 * 8 - 1;

    /// Filter-memo misses one descent over the segment `1..=8` of
    /// [`small_chain`] adds under `cache`. Every block holds `1Miner`, so
    /// a descent for it fails every node and visits all 15 spans.
    fn descent_misses(cache: CacheConfig, prove: impl FnOnce(&SegmentBmtSource<'_>)) -> u64 {
        let chain = small_chain(cache);
        let before = chain.cache_stats().filters.misses;
        prove(&chain.segment_source(1, 8).unwrap());
        chain.cache_stats().filters.misses - before
    }

    /// Budgets the stash must serve: nothing memoised, and exactly one
    /// filter (the FIFO keeps the parent and has evicted its children).
    fn starved_budgets() -> [CacheConfig; 2] {
        let one_filter = BloomParams::new(128, 2).unwrap().size_bytes() as usize;
        [CacheConfig::disabled(), CacheConfig::new(one_filter, 0)]
    }

    #[test]
    fn one_bmt_prove_computes_each_span_filter_once() {
        let params = BloomParams::new(128, 2).unwrap();
        let miner = BloomFilter::bit_positions(params, b"1Miner");
        let nobody = BloomFilter::bit_positions(params, b"1Nobody");
        for cache in starved_budgets() {
            let full = descent_misses(cache, |source| {
                bmt::prove(source, &miner).unwrap();
            });
            assert_eq!(full, SEGMENT_SPANS, "{cache:?}");
            let clean = descent_misses(cache, |source| {
                bmt::prove(source, &nobody).unwrap();
            });
            assert!(clean <= SEGMENT_SPANS, "{cache:?}: {clean} misses");
        }
    }

    #[test]
    fn one_bmt_prove_multi_computes_each_span_filter_once() {
        let params = BloomParams::new(128, 2).unwrap();
        let sets = [
            BloomFilter::bit_positions(params, b"1Miner"),
            BloomFilter::bit_positions(params, b"1Nobody"),
        ];
        for cache in starved_budgets() {
            let misses = descent_misses(cache, |source| {
                bmt::prove_multi(source, &sets).unwrap();
            });
            assert_eq!(misses, SEGMENT_SPANS, "{cache:?}");
        }
    }

    #[test]
    fn tx_tree_memo_hits_and_refuses_a_foreign_block() {
        let chain = small_chain(CacheConfig::default());
        let block = chain.block(3).unwrap();
        let first = chain.tx_tree(3, &block).unwrap();
        let again = chain.tx_tree(3, &block).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(*first, block.tx_tree());
        let stats = chain.cache_stats().tx_trees;
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // Another height's block is refused, never memoised here.
        assert!(matches!(
            chain.tx_tree(3, &chain.block(4).unwrap()),
            Err(ChainError::CommitmentMismatch { height: 3, .. })
        ));
        chain.clear_caches();
        assert_eq!(chain.cache_stats().tx_trees.entries, 0);
    }

    #[test]
    fn in_memory_source_reports_resident_bytes() {
        let chain = small_chain(CacheConfig::default());
        let total: u64 = (1..=chain.tip_height())
            .map(|h| chain.block(h).unwrap().integral_size() as u64)
            .sum();
        assert_eq!(chain.source().resident_bytes(), total);
        // No block cache on the in-memory source.
        assert_eq!(chain.cache_stats().blocks, CacheStats::default());
    }

    #[test]
    fn assemble_trusted_matches_full_build() {
        for policy in [
            CommitmentPolicy::strawman(),
            CommitmentPolicy::lvq_without_bmt(),
            CommitmentPolicy::lvq_without_smt(),
            CommitmentPolicy::lvq(),
        ] {
            let params = ChainParams::new(BloomParams::new(128, 2).unwrap(), 8, policy).unwrap();
            let mut builder = ChainBuilder::new(params).unwrap();
            for h in 1..=13u32 {
                builder
                    .push_block(vec![Transaction::coinbase(Address::new("1Miner"), 50, h)])
                    .unwrap();
            }
            let built = builder.finish();

            let blocks: Vec<Block> = (1..=built.tip_height())
                .map(|h| (*built.block(h).unwrap()).clone())
                .collect();
            let trusted = Chain::assemble_trusted(params, InMemoryBlocks::new(blocks)).unwrap();

            assert_eq!(trusted.tip_height(), built.tip_height());
            assert_eq!(trusted.headers(), built.headers());
            assert_eq!(trusted.span_hashes, built.span_hashes);
            for h in 1..=built.tip_height() {
                assert_eq!(
                    trusted.addr_counts(h).unwrap(),
                    built.addr_counts(h).unwrap(),
                    "policy {policy:?} height {h}"
                );
            }
            // The trusted chain still passes a full validation.
            trusted.validate().unwrap();
        }
    }

    fn varied_blocks(policy: CommitmentPolicy, count: u64) -> (ChainParams, Vec<Block>, Chain) {
        let params = ChainParams::new(BloomParams::new(128, 2).unwrap(), 8, policy).unwrap();
        let mut builder = ChainBuilder::new(params).unwrap();
        for h in 1..=count {
            builder
                .push_block(vec![Transaction::coinbase(
                    Address::new(format!("1Miner{}", h % 3).as_str()),
                    50,
                    h as u32,
                )])
                .unwrap();
        }
        let built = builder.finish();
        let blocks: Vec<Block> = (1..=count)
            .map(|h| (*built.block(h).unwrap()).clone())
            .collect();
        (params, blocks, built)
    }

    #[test]
    fn extend_matches_straight_build() {
        for policy in [
            CommitmentPolicy::strawman(),
            CommitmentPolicy::lvq_without_bmt(),
            CommitmentPolicy::lvq_without_smt(),
            CommitmentPolicy::lvq(),
        ] {
            let (params, blocks, built) = varied_blocks(policy, 13);
            let mut chain =
                Chain::assemble_trusted(params, InMemoryBlocks::new(blocks[..9].to_vec())).unwrap();
            // Caught up: nothing beyond the tip, extend_one refuses.
            assert_eq!(chain.extend_batch(64).unwrap(), 0);
            assert_eq!(
                chain.extend_one().unwrap_err(),
                ChainError::UnknownHeight { height: 10 }
            );
            for b in &blocks[9..] {
                chain.source.blocks.push(Arc::new(b.clone()));
            }
            assert_eq!(chain.extend_one().unwrap(), 10);
            assert_eq!(chain.extend_batch(64).unwrap(), 3);
            assert_eq!(chain.tip_height(), 13);
            assert_eq!(chain.headers(), built.headers());
            assert_eq!(chain.span_hashes, built.span_hashes, "policy {policy:?}");
            chain.validate().unwrap();
        }
    }

    #[test]
    fn extend_crosses_segment_boundary() {
        // M = 8: extending 6 -> 10 closes segment one and opens the next.
        let (params, blocks, built) = varied_blocks(CommitmentPolicy::lvq(), 10);
        let mut chain =
            Chain::assemble_trusted(params, InMemoryBlocks::new(blocks[..6].to_vec())).unwrap();
        for b in &blocks[6..] {
            chain.source.blocks.push(Arc::new(b.clone()));
        }
        assert_eq!(chain.extend_batch(u64::MAX).unwrap(), 4);
        assert_eq!(chain.headers(), built.headers());
        assert_eq!(chain.span_hashes, built.span_hashes);
        chain.validate().unwrap();
    }

    #[test]
    fn extend_rebuilds_a_dropped_bmt_builder() {
        // A chain without a retained builder (e.g. reconstructed from
        // storage by an older path) rebuilds it from span hashes.
        let (params, blocks, built) = varied_blocks(CommitmentPolicy::lvq(), 13);
        let mut chain =
            Chain::assemble_trusted(params, InMemoryBlocks::new(blocks[..9].to_vec())).unwrap();
        chain.bmt_builder = None;
        for b in &blocks[9..] {
            chain.source.blocks.push(Arc::new(b.clone()));
        }
        assert_eq!(chain.extend_batch(u64::MAX).unwrap(), 4);
        assert_eq!(chain.headers(), built.headers());
        assert_eq!(chain.span_hashes, built.span_hashes);
        chain.validate().unwrap();
    }

    /// In-memory tables that refuse the push of one height, once.
    #[derive(Debug)]
    struct RefusesOnce {
        tables: InMemoryTables,
        refuse: Option<u64>,
    }

    impl TableSource for RefusesOnce {
        fn len(&self) -> u64 {
            self.tables.len()
        }

        fn table(&self, height: u64) -> Result<Arc<Vec<(Address, u64)>>, ChainError> {
            self.tables.table(height)
        }

        fn push(&mut self, update: TableUpdate<'_>) -> Result<(), ChainError> {
            if self.refuse == Some(update.height) {
                self.refuse = None;
                return Err(ChainError::Source {
                    detail: "push refused".into(),
                });
            }
            self.tables.push(update)
        }
    }

    #[test]
    fn a_refused_table_push_keeps_the_tip_and_the_retry_matches_a_straight_build() {
        for policy in [CommitmentPolicy::lvq(), CommitmentPolicy::lvq_without_smt()] {
            // M = 8: height 11 sits mid-segment, after the builder has
            // merged 9..=10, so a leaf it kept from the refused push
            // would shift every later span.
            let (params, blocks, built) = varied_blocks(policy, 13);
            let tables = RefusesOnce {
                tables: InMemoryTables::new(),
                refuse: Some(11),
            };
            let mut chain = Chain::from_restored_parts(
                params,
                Vec::new(),
                HashMap::new(),
                InMemoryBlocks::new(blocks),
                tables,
            )
            .unwrap();
            assert!(matches!(
                chain.extend_batch(u64::MAX),
                Err(ChainError::Source { .. })
            ));
            assert_eq!(chain.tip_height(), 10);
            assert_eq!(chain.headers(), built.headers()[..10]);
            assert!(chain.span_hashes.keys().all(|&(_, hi)| hi <= 10));

            assert_eq!(chain.extend_batch(u64::MAX).unwrap(), 3);
            assert_eq!(chain.headers(), built.headers());
            assert_eq!(chain.span_hashes, built.span_hashes, "policy {policy:?}");
            chain.validate().unwrap();
        }
    }

    #[test]
    fn extend_rejects_broken_chaining() {
        let (params, blocks, _) = varied_blocks(CommitmentPolicy::lvq(), 10);
        let mut chain =
            Chain::assemble_trusted(params, InMemoryBlocks::new(blocks[..9].to_vec())).unwrap();
        let mut bad = blocks[9].clone();
        bad.header.prev_block = Hash256::hash(b"not the parent");
        chain.source.blocks.push(Arc::new(bad));
        assert_eq!(
            chain.extend_one().unwrap_err(),
            ChainError::BrokenChainLink { height: 10 }
        );
        // The rejected block is not absorbed.
        assert_eq!(chain.tip_height(), 9);
    }

    #[test]
    fn extend_batch_rejects_the_whole_batch_on_a_broken_link() {
        // A non-linking block in the *middle* of the batch rejects the
        // batch atomically: the valid prefix is not absorbed either.
        let (params, blocks, _) = varied_blocks(CommitmentPolicy::lvq(), 10);
        let mut chain =
            Chain::assemble_trusted(params, InMemoryBlocks::new(blocks[..5].to_vec())).unwrap();
        let before = chain.headers().to_vec();
        for (i, b) in blocks[5..].iter().enumerate() {
            let mut b = b.clone();
            if i == 2 {
                b.header.prev_block = Hash256::hash(b"not the parent");
            }
            chain.source.blocks.push(Arc::new(b));
        }
        assert_eq!(
            chain.extend_batch(u64::MAX).unwrap_err(),
            ChainError::BrokenChainLink { height: 8 }
        );
        assert_eq!(chain.tip_height(), 5);
        assert_eq!(chain.headers(), &before[..]);
    }

    fn build_with(params: ChainParams, miners: &[&str]) -> Chain {
        let mut builder = ChainBuilder::new(params).unwrap();
        for (i, miner) in miners.iter().enumerate() {
            builder
                .push_block(vec![Transaction::coinbase(
                    Address::new(*miner),
                    50,
                    i as u32 + 1,
                )])
                .unwrap();
        }
        builder.finish()
    }

    #[test]
    fn reorg_to_matches_straight_build_of_the_winner() {
        for policy in [
            CommitmentPolicy::strawman(),
            CommitmentPolicy::lvq_without_bmt(),
            CommitmentPolicy::lvq_without_smt(),
            CommitmentPolicy::lvq(),
        ] {
            let params = ChainParams::new(BloomParams::new(128, 2).unwrap(), 8, policy).unwrap();
            // Canonical and winner share heights 1..=7, then diverge;
            // the winner is longer and crosses the M=8 segment boundary.
            let canonical: Vec<&str> = vec!["1A"; 10];
            let mut winner = vec!["1A"; 7];
            winner.extend(["1B", "1B", "1B", "1B"]);
            let canonical = build_with(params, &canonical);
            let winner = build_with(params, &winner);

            let blocks: Vec<Block> = (1..=canonical.tip_height())
                .map(|h| (*canonical.block(h).unwrap()).clone())
                .collect();
            let mut chain = Chain::assemble_trusted(params, InMemoryBlocks::new(blocks)).unwrap();
            let branch: Vec<Arc<Block>> = (8..=winner.tip_height())
                .map(|h| winner.block(h).unwrap())
                .collect();
            assert_eq!(chain.reorg_to(7, &branch).unwrap(), 11);
            assert_eq!(chain.headers(), winner.headers());
            assert_eq!(chain.span_hashes, winner.span_hashes, "policy {policy:?}");
            for h in 1..=chain.tip_height() {
                assert_eq!(
                    chain.addr_counts(h).unwrap(),
                    winner.addr_counts(h).unwrap()
                );
            }
            chain.validate().unwrap();
        }
    }

    #[test]
    fn reorg_rejects_a_non_linking_branch_untouched() {
        let (params, blocks, built) = varied_blocks(CommitmentPolicy::lvq(), 10);
        let mut chain = Chain::assemble_trusted(params, InMemoryBlocks::new(blocks)).unwrap();
        // Branch that links at the fork point but breaks internally.
        let mut branch: Vec<Arc<Block>> = (8..=10).map(|h| built.block(h).unwrap()).collect();
        let mut bad = (*branch[1]).clone();
        bad.header.prev_block = Hash256::hash(b"not the parent");
        branch[1] = Arc::new(bad);
        assert_eq!(
            chain.reorg_to(7, &branch).unwrap_err(),
            ChainError::BrokenChainLink { height: 9 }
        );
        // Nothing was rewound or replayed.
        assert_eq!(chain.tip_height(), 10);
        assert_eq!(chain.headers(), built.headers());
        assert!(chain.reorg_to(7, &[]).is_err());
        assert!(matches!(
            chain.reorg_to(11, &branch),
            Err(ChainError::UnknownHeight { height: 11 })
        ));
    }

    #[test]
    fn rewind_then_extend_reabsorbs_the_same_blocks() {
        // A rewind with no replacement branch is a cancelled reorg: the
        // same blocks re-extend to a bit-identical chain.
        let (params, blocks, built) = varied_blocks(CommitmentPolicy::lvq(), 13);
        let mut chain = Chain::assemble_trusted(params, InMemoryBlocks::new(blocks)).unwrap();
        chain.rewind_to(6).unwrap();
        assert_eq!(chain.tip_height(), 6);
        assert_eq!(chain.source().len(), 6);
        assert!(chain.span_hashes.keys().all(|&(_, hi)| hi <= 6));
        for b in (7..=13).map(|h| built.block(h).unwrap()) {
            chain.source.push_block(b).unwrap();
        }
        assert_eq!(chain.extend_batch(u64::MAX).unwrap(), 7);
        assert_eq!(chain.headers(), built.headers());
        assert_eq!(chain.span_hashes, built.span_hashes);
        chain.validate().unwrap();
    }

    #[test]
    fn assemble_trusted_rejects_broken_chaining() {
        let built = small_chain(CacheConfig::default());
        let mut blocks: Vec<Block> = (1..=built.tip_height())
            .map(|h| (*built.block(h).unwrap()).clone())
            .collect();
        blocks[3].header.prev_block = Hash256::hash(b"not the parent");
        let err = Chain::assemble_trusted(built.params(), InMemoryBlocks::new(blocks)).unwrap_err();
        assert_eq!(err, ChainError::BrokenChainLink { height: 4 });
    }
}
