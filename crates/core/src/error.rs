//! Prover- and verifier-side error types.

use std::error::Error;
use std::fmt;

use lvq_chain::ChainError;
use lvq_merkle::{BmtError, SmtError};

/// Errors a full node can hit while *generating* a response.
///
/// These indicate misconfiguration or chain corruption on the prover's
/// own side — an honest prover over a valid chain never fails.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProveError {
    /// The chain was built with a different commitment policy than the
    /// prover's scheme requires.
    SchemeMismatch,
    /// The chain is empty; there is nothing to prove over.
    EmptyChain,
    /// A range query's bounds were not `1 ≤ lo ≤ hi ≤ tip`.
    InvalidRange {
        /// Requested lower bound.
        lo: u64,
        /// Requested upper bound.
        hi: u64,
        /// Chain tip at request time.
        tip: u64,
    },
    /// A batched query was issued with zero addresses.
    EmptyBatch,
    /// An underlying chain access failed.
    Chain(ChainError),
    /// An underlying BMT operation failed.
    Bmt(BmtError),
    /// An underlying SMT operation failed.
    Smt(SmtError),
}

impl fmt::Display for ProveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProveError::SchemeMismatch => {
                f.write_str("chain commitments do not match the prover's scheme")
            }
            ProveError::EmptyChain => f.write_str("cannot prove over an empty chain"),
            ProveError::EmptyBatch => f.write_str("batched query needs at least one address"),
            ProveError::InvalidRange { lo, hi, tip } => {
                write!(f, "invalid query range {lo}..={hi} for tip {tip}")
            }
            ProveError::Chain(e) => write!(f, "chain error: {e}"),
            ProveError::Bmt(e) => write!(f, "bmt error: {e}"),
            ProveError::Smt(e) => write!(f, "smt error: {e}"),
        }
    }
}

impl Error for ProveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProveError::Chain(e) => Some(e),
            ProveError::Bmt(e) => Some(e),
            ProveError::Smt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ChainError> for ProveError {
    fn from(e: ChainError) -> Self {
        ProveError::Chain(e)
    }
}

impl From<BmtError> for ProveError {
    fn from(e: BmtError) -> Self {
        ProveError::Bmt(e)
    }
}

impl From<SmtError> for ProveError {
    fn from(e: SmtError) -> Self {
        ProveError::Smt(e)
    }
}

/// Errors a light client raises while *verifying* a response.
///
/// Every variant means the response must be rejected: either the full
/// node is malicious (paper §VI's forgery attempts all land here) or the
/// response was corrupted in transit.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QueryError {
    /// The response shape does not match the scheme (e.g. a per-block
    /// response for a BMT scheme).
    WrongResponseKind,
    /// A range verification was requested with bounds outside
    /// `1 ≤ lo ≤ hi ≤ tip`.
    InvalidRange {
        /// Requested lower bound.
        lo: u64,
        /// Requested upper bound.
        hi: u64,
        /// Header-set tip.
        tip: u64,
    },
    /// A per-block response did not contain exactly one entry per block.
    WrongEntryCount {
        /// Entries received.
        got: u64,
        /// Entries expected (the chain tip).
        expected: u64,
    },
    /// A segmented response's segments do not match the verifier's own
    /// segment division.
    SegmentMismatch,
    /// A batched verification was requested with zero addresses.
    EmptyBatch,
    /// A batched response's per-address section count does not match the
    /// number of queried addresses.
    SectionCountMismatch {
        /// Sections (or per-entry fragments) received.
        got: u64,
        /// Queried addresses.
        expected: u64,
    },
    /// A synced header's previous-block hash does not match its
    /// predecessor — the header set is not a chain.
    BrokenHeaderChain {
        /// Height of the first inconsistent header.
        height: u64,
    },
    /// A header the verifier holds lacks a commitment the scheme needs —
    /// the light node's header set does not fit the configuration.
    MissingCommitment {
        /// Height of the offending header.
        height: u64,
        /// Which commitment is missing.
        what: &'static str,
    },
    /// The transmitted Bloom filter does not hash to the committed
    /// `H(BF)`.
    FilterHashMismatch {
        /// Height of the offending block.
        height: u64,
    },
    /// A transmitted filter's parameters differ from the configuration.
    FilterParamsMismatch {
        /// Height of the offending block.
        height: u64,
    },
    /// The fragment kind is not acceptable for the block's filter check
    /// outcome under this scheme (e.g. `Empty` for a failed check).
    UnexpectedFragment {
        /// Height of the offending block.
        height: u64,
    },
    /// The failed-leaf set of a BMT proof does not match the fragments
    /// supplied for the segment.
    FragmentSetMismatch,
    /// A Merkle branch did not verify against the committed root, or
    /// named a leaf index its depth cannot reach.
    InvalidMerkleBranch {
        /// Height of the offending block.
        height: u64,
    },
    /// One block's fragment proved the same transaction twice (an
    /// attempt to satisfy an SMT count by duplicating one transaction).
    DuplicateTransaction {
        /// Height of the offending block.
        height: u64,
    },
    /// The number of distinct proven transactions differs from the
    /// SMT-committed appearance count.
    CountMismatch {
        /// Height of the offending block.
        height: u64,
        /// Count committed in the SMT.
        committed: u64,
        /// Distinct transactions proven.
        proven: u64,
    },
    /// A proven transaction does not involve the queried address.
    UninvolvedTransaction {
        /// Height of the offending block.
        height: u64,
    },
    /// An integral block does not match the stored header.
    BlockHeaderMismatch {
        /// Height of the offending block.
        height: u64,
    },
    /// An integral block's body does not match its own Merkle root.
    BlockBodyMismatch {
        /// Height of the offending block.
        height: u64,
    },
    /// An SMT sub-proof failed.
    Smt {
        /// Height of the offending block.
        height: u64,
        /// The underlying error.
        source: SmtError,
    },
    /// A BMT segment proof failed.
    Bmt {
        /// The segment's last block height (whose header commits the
        /// BMT root).
        segment_hi: u64,
        /// The underlying error.
        source: BmtError,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::WrongResponseKind => f.write_str("response kind does not match the scheme"),
            QueryError::InvalidRange { lo, hi, tip } => {
                write!(f, "invalid verification range {lo}..={hi} for tip {tip}")
            }
            QueryError::WrongEntryCount { got, expected } => {
                write!(f, "expected {expected} per-block entries, got {got}")
            }
            QueryError::SegmentMismatch => {
                f.write_str("segmented response does not match the segment division")
            }
            QueryError::EmptyBatch => {
                f.write_str("batched verification needs at least one address")
            }
            QueryError::SectionCountMismatch { got, expected } => {
                write!(f, "expected {expected} per-address sections, got {got}")
            }
            QueryError::BrokenHeaderChain { height } => {
                write!(f, "header chain breaks at height {height}")
            }
            QueryError::MissingCommitment { height, what } => {
                write!(f, "header {height} lacks the {what} commitment")
            }
            QueryError::FilterHashMismatch { height } => {
                write!(f, "bloom filter hash mismatch at height {height}")
            }
            QueryError::FilterParamsMismatch { height } => {
                write!(f, "bloom filter parameters mismatch at height {height}")
            }
            QueryError::UnexpectedFragment { height } => {
                write!(f, "fragment kind unacceptable at height {height}")
            }
            QueryError::FragmentSetMismatch => {
                f.write_str("fragments do not match the bmt proof's failed leaves")
            }
            QueryError::InvalidMerkleBranch { height } => {
                write!(f, "invalid merkle branch at height {height}")
            }
            QueryError::DuplicateTransaction { height } => {
                write!(f, "duplicate transaction proof at height {height}")
            }
            QueryError::CountMismatch {
                height,
                committed,
                proven,
            } => write!(
                f,
                "height {height}: smt commits {committed} transactions, {proven} proven"
            ),
            QueryError::UninvolvedTransaction { height } => {
                write!(
                    f,
                    "proven transaction at height {height} does not involve the address"
                )
            }
            QueryError::BlockHeaderMismatch { height } => {
                write!(f, "integral block header mismatch at height {height}")
            }
            QueryError::BlockBodyMismatch { height } => {
                write!(f, "integral block body mismatch at height {height}")
            }
            QueryError::Smt { height, source } => {
                write!(f, "smt proof failed at height {height}: {source}")
            }
            QueryError::Bmt { segment_hi, source } => {
                write!(
                    f,
                    "bmt proof failed for segment ending at {segment_hi}: {source}"
                )
            }
        }
    }
}

impl Error for QueryError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            QueryError::Smt { source, .. } => Some(source),
            QueryError::Bmt { source, .. } => Some(source),
            _ => None,
        }
    }
}
