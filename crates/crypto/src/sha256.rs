//! SHA-256 (FIPS 180-4), implemented from the specification.

/// First 32 bits of the fractional parts of the cube roots of the first 64
/// primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// An incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use lvq_crypto::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"ab");
/// hasher.update(b"c");
/// assert_eq!(hasher.finalize(), lvq_crypto::sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partially filled message block.
    buf: [u8; 64],
    /// Number of valid bytes in `buf` (always < 64 between calls).
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;

        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                // The buffer is still partial, so `rest` was fully
                // consumed; falling through would clobber `buf_len`.
                debug_assert!(rest.is_empty());
                return;
            }
            compress(&mut self.state, &self.buf);
        }

        // Whole blocks are compressed where they lie, in one call.
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % 64);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Completes the hash, consuming the hasher.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding (FIPS 180-4 §5.1.1): 0x80, zeros up to 56 mod 64, then
        // the message length in bits as a big-endian u64.
        let used = self.buf_len;
        self.buf[used] = 0x80;
        self.buf[used + 1..].fill(0);
        if used >= 56 {
            // No room for the length: it goes in a block of its own.
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        digest_bytes(&self.state)
    }
}

/// The digest a final state stands for: its words, big-endian.
fn digest_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The seam every digest in the workspace goes through: applies the
/// SHA-256 compression function (FIPS 180-4 §6.2.2) to each 64-byte
/// block of `blocks` in turn, reading them straight from the caller's
/// slice. Portable scalar rounds; a hardware implementation (ROADMAP)
/// plugs in behind this one signature.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot SHA-256.
///
/// # Examples
///
/// ```
/// let d = lvq_crypto::sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Bitcoin's double SHA-256: `SHA256(SHA256(data))`.
pub fn sha256d(data: &[u8]) -> [u8; 32] {
    sha256(&sha256(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    fn hex32(s: &str) -> [u8; 32] {
        let v = hex::decode(s).unwrap();
        let mut out = [0u8; 32];
        out.copy_from_slice(&v);
        out
    }

    /// FIPS 180-4 §5.1.1 padding, the obvious way: independent of
    /// `Sha256::finalize`.
    fn padded(data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        out.push(0x80);
        while out.len() % 64 != 56 {
            out.push(0);
        }
        out.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        out
    }

    /// The digest of `data` from one multi-block call of `compress`,
    /// bypassing `Sha256`'s buffering and padding.
    fn one_call_digest(data: &[u8]) -> [u8; 32] {
        let mut state = H0;
        compress(&mut state, &padded(data));
        digest_bytes(&state)
    }

    /// Asserts that the hasher and a direct multi-block `compress` both
    /// produce `expected`.
    fn assert_digest(data: &[u8], expected: [u8; 32]) {
        assert_eq!(sha256(data), expected, "hasher, len={}", data.len());
        assert_eq!(
            one_call_digest(data),
            expected,
            "one call, len={}",
            data.len()
        );
    }

    /// FIPS 180-4 / NIST CAVP vectors.
    #[test]
    fn nist_vectors() {
        assert_digest(
            b"",
            hex32("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        );
        assert_digest(
            b"abc",
            hex32("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        );
        assert_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            hex32("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
        );
        assert_digest(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
              hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            hex32("cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"),
        );
    }

    #[test]
    fn million_a() {
        let expected = hex32("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
        assert_digest(&vec![b'a'; 1_000_000], expected);
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(h.finalize(), expected);
    }

    #[test]
    fn double_sha256_known_value() {
        // sha256d("hello"), a widely published example value.
        assert_eq!(
            sha256d(b"hello"),
            hex32("9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50")
        );
    }

    #[test]
    fn boundary_lengths_match_one_shot() {
        // Exercise padding across the block boundaries: 55 is the last
        // length whose padding fits its block, 56..=64 spill into a
        // block of their own, and 119/120 repeat that one block later.
        for len in [
            0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129, 1000,
        ] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut incremental = Sha256::new();
            for b in &data {
                incremental.update(std::slice::from_ref(b));
            }
            assert_digest(&data, incremental.finalize());
        }
    }

    /// Cuts `data` at the given offsets (each taken modulo what is left).
    fn pieces<'a>(mut data: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
        let mut out = Vec::new();
        for cut in cuts {
            let (head, rest) = data.split_at(cut % (data.len() + 1));
            out.push(head);
            data = rest;
        }
        out.push(data);
        out
    }

    proptest! {
        /// `Sha256` fed in arbitrary chunks equals the reference padding
        /// compressed in one call.
        #[test]
        fn chunked_update_equals_one_shot(
            data in proptest::collection::vec(any::<u8>(), 0..400),
            cuts in proptest::collection::vec(0usize..200, 0..6),
        ) {
            let mut h = Sha256::new();
            for piece in pieces(&data, &cuts) {
                h.update(piece);
            }
            prop_assert_eq!(h.finalize(), one_call_digest(&data));
            prop_assert_eq!(sha256(&data), one_call_digest(&data));
        }

        #[test]
        fn distinct_short_inputs_do_not_collide(a: Vec<u8>, b: Vec<u8>) {
            prop_assume!(a != b);
            prop_assert_ne!(sha256(&a), sha256(&b));
        }
    }
}
