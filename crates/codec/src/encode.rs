//! The [`Encodable`] trait and implementations for primitive types.

use crate::varint::{compact_size_len, write_compact_size};

/// A type with a canonical wire encoding.
///
/// Implementations must uphold two invariants that the rest of the
/// workspace relies on:
///
/// 1. `encoded_len()` equals the number of bytes `encode_into` appends.
///    The evaluation harness reports `encoded_len` as the communication
///    cost, and the integration tests cross-check it against real
///    encodings.
/// 2. The encoding is injective for a fixed type: distinct values encode
///    to distinct byte strings (this is what makes hashing encodings safe).
///
/// # Examples
///
/// ```
/// use lvq_codec::Encodable;
///
/// assert_eq!(42u32.encode(), vec![42, 0, 0, 0]);
/// assert_eq!(42u32.encoded_len(), 4);
/// ```
pub trait Encodable {
    /// Appends this value's encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Returns the exact number of bytes [`Encodable::encode_into`] appends.
    fn encoded_len(&self) -> usize;

    /// Encodes this value into a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        debug_assert_eq!(out.len(), self.encoded_len());
        out
    }

    /// Appends the encoding of each of `items` in order, with no length
    /// prefix: the body of the `[T]` / `Vec<T>` encoding.
    ///
    /// A hook, not a second format: an override must append exactly the
    /// bytes this default appends. `u8` overrides it with one
    /// `extend_from_slice`, so byte strings move at `memcpy` speed.
    fn encode_slice_into(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.encode_into(out);
        }
    }

    /// Returns the exact number of bytes [`Encodable::encode_slice_into`]
    /// appends for `items`.
    fn encoded_len_of_slice(items: &[Self]) -> usize
    where
        Self: Sized,
    {
        items.iter().map(Encodable::encoded_len).sum()
    }
}

macro_rules! impl_encodable_int {
    ($($t:ty),*) => {$(
        impl Encodable for $t {
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

impl_encodable_int!(u16, u32, u64, i64);

impl Encodable for u8 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn encoded_len(&self) -> usize {
        1
    }

    fn encode_slice_into(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }

    fn encoded_len_of_slice(items: &[u8]) -> usize {
        items.len()
    }
}

impl Encodable for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn encoded_len(&self) -> usize {
        1
    }
}

impl<const N: usize> Encodable for [u8; N] {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }

    fn encoded_len(&self) -> usize {
        N
    }
}

/// `Vec<T>` encodes as a CompactSize element count followed by each element.
impl<T: Encodable> Encodable for Vec<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.as_slice().encode_into(out)
    }

    fn encoded_len(&self) -> usize {
        self.as_slice().encoded_len()
    }
}

impl<T: Encodable> Encodable for [T] {
    fn encode_into(&self, out: &mut Vec<u8>) {
        write_compact_size(out, self.len() as u64);
        T::encode_slice_into(self, out);
    }

    fn encoded_len(&self) -> usize {
        compact_size_len(self.len() as u64) + T::encoded_len_of_slice(self)
    }
}

/// Strings encode as a CompactSize byte count followed by UTF-8 bytes.
impl Encodable for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.as_str().encode_into(out)
    }

    fn encoded_len(&self) -> usize {
        self.as_str().encoded_len()
    }
}

impl Encodable for str {
    fn encode_into(&self, out: &mut Vec<u8>) {
        write_compact_size(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }

    fn encoded_len(&self) -> usize {
        compact_size_len(self.len() as u64) + self.len()
    }
}

/// `Option<T>` encodes as a presence byte (0/1) followed by the value.
impl<T: Encodable> Encodable for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encodable::encoded_len)
    }
}

impl<A: Encodable, B: Encodable> Encodable for (A, B) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<T: Encodable + ?Sized> Encodable for &T {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (**self).encode_into(out)
    }

    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

impl<T: Encodable + ?Sized> Encodable for Box<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (**self).encode_into(out)
    }

    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ints_are_little_endian() {
        assert_eq!(0x0102u16.encode(), vec![0x02, 0x01]);
        assert_eq!(0x01020304u32.encode(), vec![0x04, 0x03, 0x02, 0x01]);
        assert_eq!(1u64.encode()[0], 1);
        assert_eq!((-1i64).encode(), vec![0xFF; 8]);
    }

    #[test]
    fn vec_has_length_prefix() {
        let v: Vec<u8> = vec![7, 8];
        assert_eq!(v.encode(), vec![2, 7, 8]);
        assert_eq!(v.encoded_len(), 3);
    }

    #[test]
    fn empty_vec_is_single_zero_byte() {
        let v: Vec<u32> = Vec::new();
        assert_eq!(v.encode(), vec![0]);
    }

    #[test]
    fn string_encoding() {
        let s = "ab".to_string();
        assert_eq!(s.encode(), vec![2, b'a', b'b']);
        assert_eq!(s.encoded_len(), 3);
    }

    #[test]
    fn option_encoding() {
        assert_eq!(None::<u8>.encode(), vec![0]);
        assert_eq!(Some(5u8).encode(), vec![1, 5]);
        assert_eq!(Some(5u32).encoded_len(), 5);
    }

    #[test]
    fn array_encoding_has_no_prefix() {
        let a = [1u8, 2, 3];
        assert_eq!(a.encode(), vec![1, 2, 3]);
    }

    #[test]
    fn nested_len_matches_bytes() {
        let v: Vec<Vec<u16>> = vec![vec![1, 2], vec![], vec![3]];
        assert_eq!(v.encode().len(), v.encoded_len());
    }
}
