//! Chain error type.

use std::error::Error;
use std::fmt;

use lvq_merkle::{BmtError, SmtError};

/// Errors produced while building or validating a chain.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChainError {
    /// The configured segment length was not a power of two.
    InvalidSegmentLen {
        /// The offending length.
        len: u64,
    },
    /// A block was pushed with no transactions (every block needs at
    /// least a coinbase).
    EmptyBlock,
    /// A block's first transaction was not a coinbase.
    MissingCoinbase,
    /// A height outside `1..=tip` was requested.
    UnknownHeight {
        /// The requested height.
        height: u64,
    },
    /// A block range `lo..=hi` was requested with `lo > hi`.
    InvertedSpan {
        /// The requested first height.
        lo: u64,
        /// The requested last height.
        hi: u64,
    },
    /// Validation found a header whose previous-block hash does not
    /// match its predecessor.
    BrokenChainLink {
        /// Height of the inconsistent block.
        height: u64,
    },
    /// Validation found a header commitment that does not match the
    /// recomputed structure.
    CommitmentMismatch {
        /// Height of the inconsistent block.
        height: u64,
        /// Which commitment failed.
        what: &'static str,
    },
    /// UTXO validation found an input that does not spend an existing
    /// unspent output (missing, already spent, or with different
    /// address/value).
    InvalidSpend {
        /// Height of the offending block.
        height: u64,
        /// Reason for rejecting the spend.
        what: &'static str,
    },
    /// An underlying BMT operation failed.
    Bmt(BmtError),
    /// An underlying SMT operation failed.
    Smt(SmtError),
    /// The chain's block source failed to materialize a block (e.g. an
    /// I/O error or checksum failure in a disk-backed store).
    Source {
        /// Human-readable description of the storage failure.
        detail: String,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::InvalidSegmentLen { len } => {
                write!(f, "segment length {len} is not a power of two")
            }
            ChainError::EmptyBlock => f.write_str("block has no transactions"),
            ChainError::MissingCoinbase => {
                f.write_str("block's first transaction is not a coinbase")
            }
            ChainError::UnknownHeight { height } => write!(f, "no block at height {height}"),
            ChainError::InvertedSpan { lo, hi } => {
                write!(f, "span {lo}..={hi} ends before it starts")
            }
            ChainError::BrokenChainLink { height } => {
                write!(f, "previous-block hash mismatch at height {height}")
            }
            ChainError::CommitmentMismatch { height, what } => {
                write!(f, "{what} commitment mismatch at height {height}")
            }
            ChainError::InvalidSpend { height, what } => {
                write!(f, "invalid spend at height {height}: {what}")
            }
            ChainError::Bmt(e) => write!(f, "bmt error: {e}"),
            ChainError::Smt(e) => write!(f, "smt error: {e}"),
            ChainError::Source { detail } => write!(f, "block source error: {detail}"),
        }
    }
}

impl Error for ChainError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ChainError::Bmt(e) => Some(e),
            ChainError::Smt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BmtError> for ChainError {
    fn from(e: BmtError) -> Self {
        ChainError::Bmt(e)
    }
}

impl From<SmtError> for ChainError {
    fn from(e: SmtError) -> Self {
        ChainError::Smt(e)
    }
}
