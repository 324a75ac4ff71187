//! Canonical wire encoding for the LVQ reproduction.
//!
//! Every proof, fragment, and RPC message in this workspace is serialised
//! through the [`Encodable`]/[`Decodable`] traits defined here, and every
//! byte count reported by the evaluation harness is the length of a real
//! encoding produced by this crate. The format follows Bitcoin's
//! conventions: little-endian fixed-width integers and CompactSize varints
//! for lengths.
//!
//! # Examples
//!
//! ```
//! use lvq_codec::{Decodable, Encodable, Reader};
//!
//! # fn main() -> Result<(), lvq_codec::DecodeError> {
//! let value: Vec<u32> = vec![1, 2, 3];
//! let bytes = value.encode();
//! assert_eq!(bytes.len(), value.encoded_len());
//!
//! let mut reader = Reader::new(&bytes);
//! let round_tripped = Vec::<u32>::decode_from(&mut reader)?;
//! reader.finish()?;
//! assert_eq!(round_tripped, value);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decode;
mod encode;
mod error;
mod varint;

pub use decode::{decode_exact, prealloc_elements, Decodable, Reader};
pub use encode::Encodable;
pub use error::DecodeError;
pub use varint::{compact_size_len, read_compact_size, write_compact_size};

/// Hard cap on any single length prefix accepted while decoding.
///
/// This bounds allocations driven by untrusted input: a malicious peer can
/// claim a collection holds billions of elements, but decoding fails before
/// any proportional allocation happens. 32 MiB comfortably exceeds every
/// legitimate message in this workspace (the largest are ~1 MB integral
/// blocks and 500 KB Bloom filters).
pub const MAX_DECODE_LEN: u64 = 32 * 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_roundtrip() {
        let v: Vec<u64> = vec![0, 1, u64::MAX];
        let bytes = v.encode();
        let back: Vec<u64> = decode_exact(&bytes).unwrap();
        assert_eq!(back, v);
    }
}
