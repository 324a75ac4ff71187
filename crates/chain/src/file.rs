//! On-disk chain persistence.
//!
//! Real full nodes persist hundreds of gigabytes of blocks; this module
//! gives the reproduction the same capability at its scale. The format
//! is deliberately simple and self-verifying:
//!
//! ```text
//! magic "LVQC" | version u32 | ChainParams | CompactSize n | n × Block
//! ```
//!
//! Loading does not trust the file: blocks are replayed through
//! [`ChainBuilder`], which recomputes every commitment, and each
//! recomputed header must equal the stored one. A bit-flipped file
//! fails to load.

use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use lvq_bloom::BloomParams;
use lvq_codec::{Decodable, DecodeError, Encodable, Reader};

use crate::block::Block;
use crate::builder::ChainBuilder;
use crate::chain::Chain;
use crate::error::ChainError;
use crate::params::{ChainParams, CommitmentPolicy};
use crate::source::{BlockSource, InMemoryBlocks};

const MAGIC: [u8; 4] = *b"LVQC";
const VERSION: u32 = 1;

/// Errors from saving or loading chain files.
#[derive(Debug)]
#[non_exhaustive]
pub enum ChainFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the `LVQC` magic.
    BadMagic,
    /// The file's format version is newer than this library.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The byte stream does not decode.
    Decode(DecodeError),
    /// Replaying the blocks produced a different header than stored —
    /// the file is corrupt or was written by an incompatible build.
    HeaderMismatch {
        /// Height of the first mismatching block.
        height: u64,
    },
    /// Replaying the blocks failed outright.
    Chain(ChainError),
}

impl fmt::Display for ChainFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainFileError::Io(e) => write!(f, "i/o error: {e}"),
            ChainFileError::BadMagic => f.write_str("not a chain file (bad magic)"),
            ChainFileError::UnsupportedVersion { found } => {
                write!(f, "unsupported chain file version {found}")
            }
            ChainFileError::Decode(e) => write!(f, "corrupt chain file: {e}"),
            ChainFileError::HeaderMismatch { height } => {
                write!(f, "replayed header mismatch at height {height}")
            }
            ChainFileError::Chain(e) => write!(f, "replay failed: {e}"),
        }
    }
}

impl Error for ChainFileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ChainFileError::Io(e) => Some(e),
            ChainFileError::Decode(e) => Some(e),
            ChainFileError::Chain(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ChainFileError {
    fn from(e: std::io::Error) -> Self {
        ChainFileError::Io(e)
    }
}

impl From<DecodeError> for ChainFileError {
    fn from(e: DecodeError) -> Self {
        ChainFileError::Decode(e)
    }
}

impl From<ChainError> for ChainFileError {
    fn from(e: ChainError) -> Self {
        ChainFileError::Chain(e)
    }
}

impl Encodable for CommitmentPolicy {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.bf_hash.encode_into(out);
        self.bmt.encode_into(out);
        self.smt.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        3
    }
}

impl Decodable for CommitmentPolicy {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(CommitmentPolicy {
            bf_hash: bool::decode_from(reader)?,
            bmt: bool::decode_from(reader)?,
            smt: bool::decode_from(reader)?,
        })
    }
}

impl Encodable for ChainParams {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.bloom().encode_into(out);
        self.segment_len().encode_into(out);
        self.policy().encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        self.bloom().encoded_len() + 8 + self.policy().encoded_len()
    }
}

impl Decodable for ChainParams {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let bloom = BloomParams::decode_from(reader)?;
        let segment_len = u64::decode_from(reader)?;
        let policy = CommitmentPolicy::decode_from(reader)?;
        ChainParams::new(bloom, segment_len, policy).map_err(|_| DecodeError::InvalidValue {
            what: "chain params segment length",
            found: segment_len,
        })
    }
}

/// Writes `chain` to `writer`.
///
/// # Errors
///
/// Returns [`ChainFileError::Io`] on write failure.
pub fn save<S: BlockSource, W: Write>(chain: &Chain<S>, writer: W) -> Result<(), ChainFileError> {
    let mut w = BufWriter::new(writer);
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let mut buf = Vec::new();
    chain.params().encode_into(&mut buf);
    lvq_codec::write_compact_size(&mut buf, chain.tip_height());
    w.write_all(&buf)?;
    for height in 1..=chain.tip_height() {
        let block = chain.block(height).expect("height in range");
        w.write_all(&block.encode())?;
    }
    w.flush()?;
    Ok(())
}

/// Writes `chain` to a file at `path`.
///
/// # Errors
///
/// As [`save`].
pub fn save_to_path<S: BlockSource>(
    chain: &Chain<S>,
    path: impl AsRef<Path>,
) -> Result<(), ChainFileError> {
    save(chain, File::create(path)?)
}

/// Parses what both loaders read first: magic, version, [`ChainParams`]
/// and the block count. The returned reader stands at the first block.
fn parse_prefix(bytes: &[u8]) -> Result<(ChainParams, usize, Reader<'_>), ChainFileError> {
    if bytes.len() < 8 || bytes[..4] != MAGIC {
        return Err(ChainFileError::BadMagic);
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != VERSION {
        return Err(ChainFileError::UnsupportedVersion { found: version });
    }
    let mut reader = Reader::new(&bytes[8..]);
    let params = ChainParams::decode_from(&mut reader)?;
    let count = reader.read_len()?;
    Ok((params, count, reader))
}

/// Reads a chain, replaying every block through [`ChainBuilder`] so all
/// commitments are recomputed and checked against the stored headers.
///
/// # Errors
///
/// Returns a [`ChainFileError`] for I/O problems, corrupt bytes, or any
/// header that fails to replay identically.
pub fn load<R: Read>(reader: R) -> Result<Chain, ChainFileError> {
    let mut bytes = Vec::new();
    BufReader::new(reader).read_to_end(&mut bytes)?;
    let (params, count, mut reader) = parse_prefix(&bytes)?;

    let mut builder = ChainBuilder::new(params)?;
    for height in 1..=count as u64 {
        let block = Block::decode_from(&mut reader)?;
        let stored_header = block.header;
        builder.push_block(block.transactions)?;
        // The builder recomputed every commitment; compare.
        let replayed = builder.last_header().expect("just pushed");
        if replayed != stored_header {
            return Err(ChainFileError::HeaderMismatch { height });
        }
    }
    reader.finish()?;
    Ok(builder.finish())
}

/// Reads a chain from a file at `path`.
///
/// # Errors
///
/// As [`load`].
pub fn load_from_path(path: impl AsRef<Path>) -> Result<Chain, ChainFileError> {
    load(File::open(path)?)
}

/// Reads a chain *without* replaying commitments.
///
/// Blocks are decoded and assembled through
/// [`Chain::assemble_trusted`]: header chaining is still checked, but
/// transaction Merkle roots, Bloom filter hashes, and SMT commitments
/// are taken at face value, skipping the O(chain length × block size)
/// recomputation [`load`] performs. Only use this on files you wrote
/// yourself (the CLI gates it behind an explicit `--trust-file` flag).
///
/// # Errors
///
/// Returns a [`ChainFileError`] for I/O problems, corrupt bytes, or
/// headers that do not chain.
pub fn load_trusted<R: Read>(reader: R) -> Result<Chain, ChainFileError> {
    let mut bytes = Vec::new();
    BufReader::new(reader).read_to_end(&mut bytes)?;
    let (params, count, mut reader) = parse_prefix(&bytes)?;
    // `count` is the file's claim; `decode_vec` reserves no more than
    // the bytes that are left could hold.
    let blocks = Block::decode_vec(&mut reader, count)?;
    reader.finish()?;
    Ok(Chain::assemble_trusted(
        params,
        InMemoryBlocks::new(blocks),
    )?)
}

/// Reads a chain from a file at `path` without replaying commitments.
///
/// # Errors
///
/// As [`load_trusted`].
pub fn load_from_path_trusted(path: impl AsRef<Path>) -> Result<Chain, ChainFileError> {
    load_trusted(File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::transaction::Transaction;

    fn sample_chain() -> Chain {
        let params =
            ChainParams::new(BloomParams::new(64, 2).unwrap(), 4, CommitmentPolicy::lvq()).unwrap();
        let mut builder = ChainBuilder::new(params).unwrap();
        for h in 1..=6u32 {
            builder
                .push_block(vec![Transaction::coinbase(Address::new("1Miner"), 50, h)])
                .unwrap();
        }
        builder.finish()
    }

    fn roundtrip_bytes(chain: &Chain) -> Vec<u8> {
        let mut out = Vec::new();
        save(chain, &mut out).unwrap();
        out
    }

    #[test]
    fn save_load_roundtrip() {
        let chain = sample_chain();
        let bytes = roundtrip_bytes(&chain);
        let loaded = load(&bytes[..]).unwrap();
        assert_eq!(loaded.tip_height(), chain.tip_height());
        for h in 1..=chain.tip_height() {
            assert_eq!(
                loaded.header(h).unwrap().block_hash(),
                chain.header(h).unwrap().block_hash()
            );
        }
        assert_eq!(loaded.params(), chain.params());
        loaded.validate().unwrap();
    }

    #[test]
    fn empty_chain_roundtrip() {
        let params = ChainParams::default();
        let chain = ChainBuilder::new(params).unwrap().finish();
        let loaded = load(&roundtrip_bytes(&chain)[..]).unwrap();
        assert_eq!(loaded.tip_height(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = roundtrip_bytes(&sample_chain());
        bytes[0] = b'X';
        assert!(matches!(load(&bytes[..]), Err(ChainFileError::BadMagic)));
        assert!(matches!(load(&bytes[..2]), Err(ChainFileError::BadMagic)));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = roundtrip_bytes(&sample_chain());
        bytes[4] = 99;
        assert!(matches!(
            load(&bytes[..]),
            Err(ChainFileError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn corruption_is_detected() {
        let chain = sample_chain();
        let clean = roundtrip_bytes(&chain);
        // Flip a byte inside the block area (beyond header+params).
        let mut corrupt = clean.clone();
        let idx = clean.len() - 10;
        corrupt[idx] ^= 0xFF;
        assert!(
            load(&corrupt[..]).is_err(),
            "bit flip near the end must not load"
        );
    }

    #[test]
    fn loaded_chain_can_be_resumed() {
        let chain = sample_chain();
        let loaded = load(&roundtrip_bytes(&chain)[..]).unwrap();
        let mut builder = ChainBuilder::resume(loaded).unwrap();
        builder
            .push_block(vec![Transaction::coinbase(Address::new("1Miner"), 50, 7)])
            .unwrap();
        builder.finish().validate().unwrap();
    }

    #[test]
    fn trusted_load_matches_full_load() {
        let chain = sample_chain();
        let bytes = roundtrip_bytes(&chain);
        let trusted = load_trusted(&bytes[..]).unwrap();
        assert_eq!(trusted.headers(), chain.headers());
        assert_eq!(trusted.params(), chain.params());
        // Trusted assembly still leaves a fully consistent chain.
        trusted.validate().unwrap();
    }

    #[test]
    fn trusted_load_still_rejects_framing_faults() {
        let bytes = roundtrip_bytes(&sample_chain());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            load_trusted(&bad_magic[..]),
            Err(ChainFileError::BadMagic)
        ));
        // Truncation inside the block area fails to decode.
        assert!(load_trusted(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn params_roundtrip() {
        let params = ChainParams::default();
        let bytes = params.encode();
        assert_eq!(bytes.len(), params.encoded_len());
        assert_eq!(
            lvq_codec::decode_exact::<ChainParams>(&bytes).unwrap(),
            params
        );
    }
}
