//! Shared page/record framing for the store's segmented files.
//!
//! Both on-disk substrates — the block store's `segment-NNNN.blk`
//! files and the address index's `nodes-NNNN.seg` files — use the same
//! machinery: a 12-byte segment header (`magic | version u32 | segment
//! u32`) followed by CRC-framed records:
//!
//! ```text
//! len u32 LE | crc32(payload) u32 LE | payload (len bytes)
//! ```
//!
//! All integers are little-endian; a [`RecordLoc`] points at the `len`
//! field. This module holds the primitives; the policies (what counts
//! as a torn tail, when to rebuild) stay with each caller.

use std::fs::File;
use std::path::PathBuf;
use std::sync::Arc;

#[cfg(not(unix))]
use std::io::{Read, Seek, SeekFrom};

use crate::crc32::crc32;

/// Bytes of segment header: magic, version, segment number.
pub(crate) const SEGMENT_HEADER_LEN: u64 = 12;
/// Bytes of record framing before the payload: length and CRC.
pub(crate) const RECORD_HEADER_LEN: u64 = 8;

/// Where one record lives within a segmented file set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RecordLoc {
    pub(crate) segment: u32,
    /// Offset of the record header within the segment file.
    pub(crate) offset: u64,
    /// Payload length in bytes.
    pub(crate) len: u32,
}

impl RecordLoc {
    pub(crate) fn end(&self) -> u64 {
        self.offset + RECORD_HEADER_LEN + self.len as u64
    }
}

/// One open segment: a shared read handle plus its path (the path is
/// the portable fallback when positional reads are unavailable).
#[derive(Debug, Clone)]
pub(crate) struct SegmentHandle {
    pub(crate) file: Arc<File>,
    pub(crate) path: PathBuf,
}

/// Builds a 12-byte segment header for `segment` under `magic`.
pub(crate) fn segment_header(
    magic: [u8; 4],
    version: u32,
    segment: u32,
) -> [u8; SEGMENT_HEADER_LEN as usize] {
    let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
    header[..4].copy_from_slice(&magic);
    header[4..8].copy_from_slice(&version.to_le_bytes());
    header[8..12].copy_from_slice(&segment.to_le_bytes());
    header
}

/// Frames `payload` as one record: `len | crc32 | payload`.
pub(crate) fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
    frame_record_with(&mut record, |out| out.extend_from_slice(payload));
    record
}

/// Appends one framed record to `out`, its payload written in place by
/// `encode`; returns the payload length.
pub(crate) fn frame_record_with(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> u32 {
    let start = out.len();
    let payload = start + RECORD_HEADER_LEN as usize;
    out.resize(payload, 0);
    encode(out);
    let len = (out.len() - payload) as u32;
    let crc = crc32(&out[payload..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..payload].copy_from_slice(&crc.to_le_bytes());
    len
}

/// Positional read of `buf.len()` bytes at `offset`.
#[cfg(unix)]
pub(crate) fn read_exact_at(
    handle: &SegmentHandle,
    buf: &mut [u8],
    offset: u64,
) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    handle.file.read_exact_at(buf, offset)
}

/// Portable fallback: a fresh handle per read keeps `&self` reads
/// seek-free on the shared descriptor.
#[cfg(not(unix))]
pub(crate) fn read_exact_at(
    handle: &SegmentHandle,
    buf: &mut [u8],
    offset: u64,
) -> std::io::Result<()> {
    let mut file = File::open(&handle.path)?;
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

/// Why a framed record failed to read back.
#[derive(Debug)]
pub(crate) enum FrameError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The bytes were read but fail the framing: length field or CRC.
    Corrupt {
        /// What exactly failed.
        detail: &'static str,
    },
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Reads the record at `loc` back, verifying its length field and CRC
/// against what the caller's index committed to.
pub(crate) fn read_record_payload(
    handle: &SegmentHandle,
    loc: RecordLoc,
) -> Result<Vec<u8>, FrameError> {
    let mut buf = vec![0u8; (RECORD_HEADER_LEN + loc.len as u64) as usize];
    read_exact_at(handle, &mut buf, loc.offset)?;
    let stored_len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    let stored_crc = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if stored_len != loc.len {
        return Err(FrameError::Corrupt {
            detail: "length field disagrees with index",
        });
    }
    let payload = &buf[RECORD_HEADER_LEN as usize..];
    if crc32(payload) != stored_crc {
        return Err(FrameError::Corrupt {
            detail: "crc mismatch",
        });
    }
    Ok(payload.to_vec())
}

/// What the reopen scan found at one record offset.
pub(crate) enum ScannedRecord {
    /// A well-framed record.
    Valid(RecordLoc),
    /// Incomplete or CRC-failed exactly at end-of-file.
    Torn,
    /// CRC-failed *before* end-of-file — real corruption.
    Corrupt {
        /// Offset of the bad record header.
        offset: u64,
        /// What exactly failed.
        detail: &'static str,
    },
}

/// Examines the record starting at `offset` during a reopen scan.
pub(crate) fn scan_record(
    handle: &SegmentHandle,
    segment: u32,
    offset: u64,
    file_len: u64,
) -> std::io::Result<ScannedRecord> {
    if offset + RECORD_HEADER_LEN > file_len {
        return Ok(ScannedRecord::Torn);
    }
    let mut header = [0u8; RECORD_HEADER_LEN as usize];
    read_exact_at(handle, &mut header, offset)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let stored_crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let end = offset + RECORD_HEADER_LEN + len as u64;
    if end > file_len {
        return Ok(ScannedRecord::Torn);
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_at(handle, &mut payload, offset + RECORD_HEADER_LEN)?;
    if crc32(&payload) != stored_crc {
        return if end == file_len {
            // All bytes present but wrong checksum at the very tail: a
            // torn write whose data pages never hit disk.
            Ok(ScannedRecord::Torn)
        } else {
            Ok(ScannedRecord::Corrupt {
                offset,
                detail: "crc mismatch",
            })
        };
    }
    Ok(ScannedRecord::Valid(RecordLoc {
        segment,
        offset,
        len,
    }))
}
