//! Bloom filter error type.

use std::error::Error;
use std::fmt;

/// Error returned by Bloom filter constructors and binary operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BloomError {
    /// The requested filter size was zero or above 1 MiB.
    SizeOutOfRange,
    /// The requested number of hash functions was zero or above 50.
    HashesOutOfRange,
    /// A binary operation combined filters with different parameters.
    ///
    /// Unioning filters of different sizes or hash counts would silently
    /// produce garbage membership answers, so it is rejected.
    ParamsMismatch,
}

impl fmt::Display for BloomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BloomError::SizeOutOfRange => write!(
                f,
                "bloom filter size must be 1 to {} bytes",
                crate::params::MAX_SIZE_BYTES
            ),
            BloomError::HashesOutOfRange => write!(
                f,
                "bloom filter needs 1 to {} hash functions",
                crate::params::MAX_HASHES
            ),
            BloomError::ParamsMismatch => f.write_str("bloom filters have mismatched parameters"),
        }
    }
}

impl Error for BloomError {}
