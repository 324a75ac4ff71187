//! Chain-wide configuration.

use lvq_bloom::BloomParams;

use crate::error::ChainError;

/// Which commitments every header of a chain carries.
///
/// The four evaluation systems of paper §VII-B map to the four useful
/// combinations; see [`CommitmentPolicy::strawman`] etc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitmentPolicy {
    /// Commit `H(BF)` per block (the strawman variant's header field).
    pub bf_hash: bool,
    /// Commit a BMT root per block (merging per paper Table I).
    pub bmt: bool,
    /// Commit an SMT per block.
    pub smt: bool,
}

impl CommitmentPolicy {
    /// The strawman variant: `H(BF)` only.
    pub const fn strawman() -> Self {
        CommitmentPolicy {
            bf_hash: true,
            bmt: false,
            smt: false,
        }
    }

    /// LVQ without BMT: per-block `H(BF)` plus SMT.
    pub const fn lvq_without_bmt() -> Self {
        CommitmentPolicy {
            bf_hash: true,
            bmt: false,
            smt: true,
        }
    }

    /// LVQ without SMT: BMT only.
    pub const fn lvq_without_smt() -> Self {
        CommitmentPolicy {
            bf_hash: false,
            bmt: true,
            smt: false,
        }
    }

    /// Full LVQ: BMT plus SMT.
    pub const fn lvq() -> Self {
        CommitmentPolicy {
            bf_hash: false,
            bmt: true,
            smt: true,
        }
    }
}

/// Byte budgets for the chain's memo caches.
///
/// The span-filter cache holds recomputed dyadic-span Bloom filters.
/// The SMT budget sizes two per-block memos side by side: the sorted
/// Merkle trees, and the transaction Merkle trees existence proofs take
/// their branches from. All are pure memoisation — any budget
/// (including zero) yields identical query results, only recomputation
/// cost changes — so a server operator can size them to the workload
/// instead of accepting fixed defaults.
///
/// # Examples
///
/// ```
/// use lvq_chain::CacheConfig;
///
/// // A memory-constrained edge node: 16 MB of filters, 4 MB each of
/// // SMTs and transaction trees.
/// let cfg = CacheConfig::new(16 << 20, 4 << 20);
/// assert!(cfg.filter_cache_bytes < CacheConfig::default().filter_cache_bytes);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Byte budget for the dyadic-span Bloom filter cache.
    pub filter_cache_bytes: usize,
    /// Byte budget for each per-block memo: the SMT cache, and beside
    /// it the transaction Merkle tree cache.
    pub smt_cache_bytes: usize,
    /// Byte budget for the authenticated index's node cache (ignored by
    /// table sources without one, e.g. the in-memory default).
    pub index_node_cache_bytes: usize,
}

/// Default byte budget for the index node cache.
const DEFAULT_INDEX_NODE_CACHE_BYTES: usize = 64 * 1024 * 1024;

impl CacheConfig {
    /// Creates a cache configuration from explicit filter and SMT byte
    /// budgets; the index node cache keeps its default budget (override
    /// with [`CacheConfig::with_index_node_cache_bytes`]).
    pub const fn new(filter_cache_bytes: usize, smt_cache_bytes: usize) -> Self {
        CacheConfig {
            filter_cache_bytes,
            smt_cache_bytes,
            index_node_cache_bytes: DEFAULT_INDEX_NODE_CACHE_BYTES,
        }
    }

    /// Returns the same configuration with `bytes` as the index node
    /// cache budget (builder style).
    pub const fn with_index_node_cache_bytes(mut self, bytes: usize) -> Self {
        self.index_node_cache_bytes = bytes;
        self
    }

    /// Disables every cache (every lookup recomputes or re-reads) —
    /// useful for cold-path measurements and memory-starved
    /// environments.
    pub const fn disabled() -> Self {
        CacheConfig::new(0, 0).with_index_node_cache_bytes(0)
    }
}

impl Default for CacheConfig {
    /// The historical defaults: 256 MB of span filters, 64 MB each of
    /// SMTs and transaction trees, 64 MB of index nodes.
    fn default() -> Self {
        CacheConfig::new(256 * 1024 * 1024, 64 * 1024 * 1024)
    }
}

/// Parameters fixed for the lifetime of a chain.
///
/// Equality compares only the *protocol* parameters (Bloom layout,
/// segment length, commitment policy) — the [`CacheConfig`] is an
/// operational knob that never changes what a chain commits to or what
/// a query returns, so two chains differing only in cache budgets are
/// the same chain.
///
/// # Examples
///
/// ```
/// use lvq_bloom::BloomParams;
/// use lvq_chain::{CacheConfig, ChainParams, CommitmentPolicy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The paper's full-LVQ configuration: 30 KB filters, M = 4096.
/// let params = ChainParams::new(
///     BloomParams::new(30_000, 2)?,
///     4096,
///     CommitmentPolicy::lvq(),
/// )?;
/// assert_eq!(params.segment_len(), 4096);
/// // Cache sizing is operational: it does not affect equality.
/// let tuned = params.with_cache_config(CacheConfig::new(1 << 20, 1 << 20));
/// assert_eq!(params, tuned);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ChainParams {
    bloom: BloomParams,
    segment_len: u64,
    policy: CommitmentPolicy,
    cache: CacheConfig,
}

impl PartialEq for ChainParams {
    fn eq(&self, other: &Self) -> bool {
        // Deliberately ignores `cache`: see the type-level docs.
        self.bloom == other.bloom
            && self.segment_len == other.segment_len
            && self.policy == other.policy
    }
}

impl Eq for ChainParams {}

impl ChainParams {
    /// Creates chain parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::InvalidSegmentLen`] if `segment_len` is not
    /// a power of two (the paper's `M` is always `2^k`).
    pub fn new(
        bloom: BloomParams,
        segment_len: u64,
        policy: CommitmentPolicy,
    ) -> Result<Self, ChainError> {
        if segment_len == 0 || segment_len & (segment_len - 1) != 0 {
            return Err(ChainError::InvalidSegmentLen { len: segment_len });
        }
        Ok(ChainParams {
            bloom,
            segment_len,
            policy,
            cache: CacheConfig::default(),
        })
    }

    /// Returns the same protocol parameters with `cache` as the memo
    /// cache budgets (builder style).
    pub fn with_cache_config(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Bloom filter parameters shared by every block.
    pub fn bloom(&self) -> BloomParams {
        self.bloom
    }

    /// The paper's `M`: maximum number of blocks merged into one BMT.
    /// Irrelevant (but still recorded) for schemes without BMT.
    pub fn segment_len(&self) -> u64 {
        self.segment_len
    }

    /// Which commitments headers carry.
    pub fn policy(&self) -> CommitmentPolicy {
        self.policy
    }

    /// The memo cache budgets a [`crate::Chain`] built from these
    /// parameters starts with.
    pub fn cache_config(&self) -> CacheConfig {
        self.cache
    }
}

impl Default for ChainParams {
    /// Full LVQ with the paper's defaults: 30 KB filters, `k = 2`
    /// (DESIGN.md §6), `M = 4096`.
    fn default() -> Self {
        ChainParams::new(
            BloomParams::new(30_000, 2).expect("static params valid"),
            4096,
            CommitmentPolicy::lvq(),
        )
        .expect("static params valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_len_must_be_power_of_two() {
        let bloom = BloomParams::new(100, 2).unwrap();
        for bad in [0u64, 3, 6, 100] {
            assert!(matches!(
                ChainParams::new(bloom, bad, CommitmentPolicy::lvq()),
                Err(ChainError::InvalidSegmentLen { .. })
            ));
        }
        for good in [1u64, 2, 1024, 4096] {
            assert!(ChainParams::new(bloom, good, CommitmentPolicy::lvq()).is_ok());
        }
    }

    #[test]
    fn policies_match_paper_table() {
        assert!(CommitmentPolicy::strawman().bf_hash);
        assert!(!CommitmentPolicy::strawman().smt);
        assert!(CommitmentPolicy::lvq_without_bmt().smt);
        assert!(!CommitmentPolicy::lvq_without_bmt().bmt);
        assert!(CommitmentPolicy::lvq_without_smt().bmt);
        assert!(!CommitmentPolicy::lvq_without_smt().smt);
        assert!(CommitmentPolicy::lvq().bmt && CommitmentPolicy::lvq().smt);
    }

    #[test]
    fn default_is_paper_lvq() {
        let p = ChainParams::default();
        assert_eq!(p.bloom().size_bytes(), 30_000);
        assert_eq!(p.segment_len(), 4096);
        assert_eq!(p.policy(), CommitmentPolicy::lvq());
        assert_eq!(p.cache_config(), CacheConfig::default());
    }

    #[test]
    fn cache_config_is_operational_not_protocol() {
        let base = ChainParams::default();
        let tuned = base.with_cache_config(CacheConfig::new(1024, 512));
        assert_eq!(tuned.cache_config().filter_cache_bytes, 1024);
        assert_eq!(tuned.cache_config().smt_cache_bytes, 512);
        // Scheme identity is unchanged: provers/verifiers built from
        // either parameter set interoperate.
        assert_eq!(base, tuned);
        assert_eq!(
            CacheConfig::disabled(),
            CacheConfig::new(0, 0).with_index_node_cache_bytes(0)
        );
        // `new` leaves the index node budget at its default.
        assert_eq!(
            CacheConfig::new(0, 0).index_node_cache_bytes,
            CacheConfig::default().index_node_cache_bytes
        );
    }
}
