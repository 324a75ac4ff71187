//! The [`Decodable`] trait, the [`Reader`] cursor, and primitive impls.

use crate::error::DecodeError;
use crate::varint::read_compact_size;
use crate::MAX_DECODE_LEN;

/// A forward-only cursor over an input byte slice.
///
/// # Examples
///
/// ```
/// use lvq_codec::Reader;
///
/// # fn main() -> Result<(), lvq_codec::DecodeError> {
/// let mut reader = Reader::new(&[1, 2, 3]);
/// assert_eq!(reader.read_u8()?, 1);
/// assert_eq!(reader.remaining(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Number of bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Consumes and returns the next `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes and returns the next byte.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] if the input is exhausted.
    pub fn read_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.read_bytes(1)?[0])
    }

    /// Consumes the next `N` bytes as a fixed-size array.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] if fewer than `N` bytes remain.
    pub fn read_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let bytes = self.read_bytes(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }

    /// Reads a CompactSize length prefix, enforcing [`MAX_DECODE_LEN`].
    ///
    /// # Errors
    ///
    /// Propagates varint errors and returns [`DecodeError::LengthOverflow`]
    /// for oversized prefixes.
    pub fn read_len(&mut self) -> Result<usize, DecodeError> {
        let len = read_compact_size(self)?;
        if len > MAX_DECODE_LEN {
            return Err(DecodeError::LengthOverflow { claimed: len });
        }
        Ok(len as usize)
    }

    /// Asserts that the whole input was consumed.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::TrailingBytes`] if unread bytes remain.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// A type that can be decoded from the wire format written by
/// [`Encodable`](crate::Encodable).
pub trait Decodable: Sized {
    /// Decodes one value, advancing `reader` past its encoding.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the input is truncated, non-canonical,
    /// or contains invalid values.
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Decodes `len` consecutive values: the body of the `Vec<T>`
    /// encoding, after its length prefix.
    ///
    /// A hook, not a second format: an override must accept exactly the
    /// inputs this default accepts and return the same values. `u8`
    /// overrides it with one bounds check and one copy.
    ///
    /// # Errors
    ///
    /// Returns the first element's [`DecodeError`], and
    /// [`DecodeError::UnexpectedEof`] if the input ends early.
    fn decode_vec(reader: &mut Reader<'_>, len: usize) -> Result<Vec<Self>, DecodeError> {
        let reserve = prealloc_elements(len, reader.remaining(), std::mem::size_of::<Self>());
        let mut out = Vec::with_capacity(reserve);
        for _ in 0..len {
            out.push(Self::decode_from(reader)?);
        }
        Ok(out)
    }
}

/// How many elements of `elem_size` bytes in memory to reserve before
/// decoding a sequence that claims `claimed_len` of them.
///
/// `claimed_len` is attacker-controlled. The reservation is capped in
/// *bytes* at the input that is left, so a decoder never pre-allocates
/// more memory than it was handed: a sequence whose elements are wider
/// in memory than on the wire grows as it is validated instead. Every
/// hand-written decoder of a counted sequence reserves through this.
pub fn prealloc_elements(claimed_len: usize, remaining_bytes: usize, elem_size: usize) -> usize {
    claimed_len.min(remaining_bytes / elem_size.max(1))
}

/// Decodes a value and requires the input to be fully consumed.
///
/// # Errors
///
/// Propagates decoding errors and returns [`DecodeError::TrailingBytes`] if
/// the encoding does not span the entire input.
///
/// # Examples
///
/// ```
/// use lvq_codec::{decode_exact, Encodable};
///
/// # fn main() -> Result<(), lvq_codec::DecodeError> {
/// let n: u32 = decode_exact(&7u32.encode())?;
/// assert_eq!(n, 7);
/// # Ok(())
/// # }
/// ```
pub fn decode_exact<T: Decodable>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut reader = Reader::new(bytes);
    let value = T::decode_from(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

macro_rules! impl_decodable_int {
    ($($t:ty),*) => {$(
        impl Decodable for $t {
            fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(<$t>::from_le_bytes(reader.read_array()?))
            }
        }
    )*};
}

impl_decodable_int!(u16, u32, u64, i64);

impl Decodable for u8 {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        reader.read_u8()
    }

    fn decode_vec(reader: &mut Reader<'_>, len: usize) -> Result<Vec<u8>, DecodeError> {
        Ok(reader.read_bytes(len)?.to_vec())
    }
}

impl Decodable for bool {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::InvalidValue {
                what: "bool",
                found: u64::from(other),
            }),
        }
    }
}

impl<const N: usize> Decodable for [u8; N] {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        reader.read_array()
    }
}

impl<T: Decodable> Decodable for Vec<T> {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = reader.read_len()?;
        T::decode_vec(reader, len)
    }
}

impl Decodable for String {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = reader.read_len()?;
        let bytes = reader.read_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::InvalidUtf8)
    }
}

impl<T: Decodable> Decodable for Option<T> {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(reader)?)),
            other => Err(DecodeError::InvalidValue {
                what: "option tag",
                found: u64::from(other),
            }),
        }
    }
}

impl<A: Decodable, B: Decodable> Decodable for (A, B) {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode_from(reader)?, B::decode_from(reader)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encodable;
    use proptest::prelude::*;

    #[test]
    fn bool_rejects_other_bytes() {
        assert!(matches!(
            decode_exact::<bool>(&[2]),
            Err(DecodeError::InvalidValue { what: "bool", .. })
        ));
    }

    #[test]
    fn option_rejects_bad_tag() {
        assert!(matches!(
            decode_exact::<Option<u8>>(&[9, 0]),
            Err(DecodeError::InvalidValue { .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        assert!(matches!(
            decode_exact::<u8>(&[1, 2]),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn huge_claimed_vec_fails_without_allocating() {
        let mut buf = Vec::new();
        crate::write_compact_size(&mut buf, u64::MAX);
        assert!(matches!(
            decode_exact::<Vec<u8>>(&buf),
            Err(DecodeError::LengthOverflow { .. })
        ));
        // A large-but-allowed claim still fails fast on EOF.
        let mut buf = Vec::new();
        crate::write_compact_size(&mut buf, 1_000_000);
        buf.push(0);
        assert!(matches!(
            decode_exact::<Vec<u8>>(&buf),
            Err(DecodeError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn preallocation_is_capped_in_bytes() {
        #[allow(dead_code)]
        struct Wide([u64; 16]);
        let claimed = crate::MAX_DECODE_LEN as usize;
        for remaining in [0usize, 1, 31, 32, 4096, claimed] {
            for size in [
                std::mem::size_of::<u8>(),
                std::mem::size_of::<[u8; 32]>(),
                std::mem::size_of::<Wide>(),
            ] {
                let reserved = prealloc_elements(claimed, remaining, size);
                assert!(
                    reserved * size <= remaining,
                    "{reserved} x {size} B of {remaining} B"
                );
            }
        }
        // An honest prefix is reserved in full; zero-sized elements do
        // not divide by zero.
        assert_eq!(prealloc_elements(3, 96, 32), 3);
        assert_eq!(prealloc_elements(4, 96, 32), 3);
        assert_eq!(prealloc_elements(7, 5, 0), 5);
    }

    #[test]
    fn maximal_prefix_on_truncated_input_is_eof() {
        let mut buf = Vec::new();
        crate::write_compact_size(&mut buf, crate::MAX_DECODE_LEN);
        buf.extend_from_slice(&[0u8; 40]);
        // The generic hook, with elements wider in memory than the whole
        // input: 32 Mi x 40 B would be 1.25 GiB reserved up front.
        assert!(matches!(
            decode_exact::<Vec<(u64, [u8; 32])>>(&buf),
            Err(DecodeError::UnexpectedEof { .. })
        ));
        assert!(matches!(
            decode_exact::<Vec<Byte>>(&buf),
            Err(DecodeError::UnexpectedEof { .. })
        ));
        // The `u8` hook.
        assert!(matches!(
            decode_exact::<Vec<u8>>(&buf),
            Err(DecodeError::UnexpectedEof { .. })
        ));
    }

    /// A byte that keeps the traits' *default* slice hooks: what
    /// `Vec<u8>` was before `u8` overrode them.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Byte(u8);

    impl Encodable for Byte {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.push(self.0);
        }

        fn encoded_len(&self) -> usize {
            1
        }
    }

    impl Decodable for Byte {
        fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
            reader.read_u8().map(Byte)
        }
    }

    #[test]
    fn invalid_utf8_rejected() {
        // length 1, byte 0xFF: invalid UTF-8.
        assert_eq!(
            decode_exact::<String>(&[1, 0xFF]),
            Err(DecodeError::InvalidUtf8)
        );
    }

    proptest! {
        #[test]
        fn roundtrip_u64(v: u64) {
            prop_assert_eq!(decode_exact::<u64>(&v.encode()).unwrap(), v);
        }

        #[test]
        fn roundtrip_vec_u32(v: Vec<u32>) {
            prop_assert_eq!(decode_exact::<Vec<u32>>(&v.encode()).unwrap(), v);
        }

        /// The `u8` slice hooks change speed, not bytes: same encoding,
        /// same `encoded_len`, and each side decodes the other's output.
        /// Lengths cross the one- to three-byte CompactSize boundary.
        #[test]
        fn byte_string_hooks_match_the_default(
            bytes in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            let slow: Vec<Byte> = bytes.iter().copied().map(Byte).collect();
            prop_assert_eq!(bytes.encode(), slow.encode());
            prop_assert_eq!(bytes.encoded_len(), slow.encoded_len());
            prop_assert_eq!(bytes.encoded_len(), bytes.encode().len());
            prop_assert_eq!(&decode_exact::<Vec<u8>>(&slow.encode()).unwrap(), &bytes);
            prop_assert_eq!(&decode_exact::<Vec<Byte>>(&bytes.encode()).unwrap(), &slow);
            // Truncation is an error on both paths.
            let cut = &bytes.encode()[..bytes.encoded_len() - 1];
            prop_assert!(decode_exact::<Vec<u8>>(cut).is_err());
            prop_assert!(decode_exact::<Vec<Byte>>(cut).is_err());
        }

        #[test]
        fn roundtrip_string(s: String) {
            prop_assert_eq!(decode_exact::<String>(&s.encode()).unwrap(), s);
        }

        #[test]
        fn roundtrip_nested(v: Vec<(u16, Option<String>)>) {
            let bytes = v.encode();
            prop_assert_eq!(bytes.len(), v.encoded_len());
            prop_assert_eq!(
                decode_exact::<Vec<(u16, Option<String>)>>(&bytes).unwrap(),
                v
            );
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes: Vec<u8>) {
            let _ = decode_exact::<Vec<String>>(&bytes);
            let _ = decode_exact::<Vec<(u64, bool)>>(&bytes);
        }
    }
}
