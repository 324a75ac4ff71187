//! The append-only segmented block store.
//!
//! # On-disk layout
//!
//! A store is a directory:
//!
//! ```text
//! store.meta          magic "LVQM" | version u32 | ChainParams | crc32
//! segment-0000.blk    magic "LVQS" | version u32 | segment u32 | records…
//! segment-0001.blk    …
//! index.idx           magic "LVQI" | version u32 | count u64
//!                     | count × (segment u32, offset u64, len u32) | crc32
//! ```
//!
//! Each record frames one encoded [`Block`]:
//!
//! ```text
//! len u32 LE | crc32(payload) u32 LE | payload (len bytes)
//! ```
//!
//! All integers are little-endian; record `offset`s point at the `len`
//! field. Record *N* of the store (0-based, across segments in order)
//! is the block at height *N + 1*.
//!
//! # Crash safety
//!
//! Appends go to the tail of the last segment; the index file is a pure
//! cache, rewritten on [`BlockStore::sync`] and rebuilt from the
//! segments whenever it is missing, stale, or fails its checksum. On
//! reopen, any unindexed tail records are re-adopted after passing their
//! CRC, and a final record that is incomplete or fails its CRC exactly
//! at end-of-file is treated as a torn write and truncated away
//! ([`RecoveryReport`]). A bad CRC anywhere *before* the tail is real
//! corruption and refuses loudly with [`StoreError::CorruptRecord`].

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use lvq_chain::{Block, ChainParams};
use lvq_codec::{Decodable, Encodable, Reader};

use crate::crc32::crc32;
use crate::error::StoreError;
use crate::frame::{
    frame_record, read_exact_at, read_record_payload, scan_record, segment_header, FrameError,
    RecordLoc, ScannedRecord, SegmentHandle, RECORD_HEADER_LEN, SEGMENT_HEADER_LEN,
};
use crate::fsio::{RealFs, StoreFs};

const META_MAGIC: [u8; 4] = *b"LVQM";
const SEGMENT_MAGIC: [u8; 4] = *b"LVQS";
const INDEX_MAGIC: [u8; 4] = *b"LVQI";
const VERSION: u32 = 1;

const META_FILE: &str = "store.meta";
const META_TMP_FILE: &str = "store.meta.tmp";
const INDEX_FILE: &str = "index.idx";
const INDEX_TMP_FILE: &str = "index.idx.tmp";
const FORKS_FILE: &str = "forks.log";
const FORKS_TMP_FILE: &str = "forks.log.tmp";

/// Operational knobs of a [`BlockStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Rotate to a new segment file once the current one reaches this
    /// many bytes (the last record may overshoot).
    pub segment_target_bytes: u64,
    /// Byte budget of the decoded-block LRU cache in front of the store.
    pub cache_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_target_bytes: 8 * 1024 * 1024,
            cache_bytes: 16 * 1024 * 1024,
        }
    }
}

/// What opening a persistent address index found, when one was opened
/// alongside the store (see `open_chain_indexed` in this crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AddrIndexRecovery {
    /// No address index was opened (plain `open_chain`, or bare
    /// [`BlockStore::open`]).
    #[default]
    NotOpened,
    /// The index's root record anchored exactly at the store tip and
    /// its restored state verified — reopen was point reads only.
    Intact,
    /// The root record anchored *behind* the store tip
    /// ([`StoreError::StaleIndexRoot`]); the missing blocks were
    /// re-absorbed incrementally and the index re-anchored.
    CaughtUp {
        /// Tip height the root record anchored.
        from: u64,
        /// Store tip the index was caught up to.
        to: u64,
    },
    /// The index was missing, corrupt, or anchored ahead of the store,
    /// and was rebuilt from the (CRC-verified) blocks. Loud but safe:
    /// a rebuilt index can never serve a wrong answer.
    Rebuilt {
        /// Why the index could not be adopted.
        reason: &'static str,
    },
}

/// What [`BlockStore::open`] had to repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Bytes of torn tail truncated — a partial final record, or a
    /// partial final segment *header* torn mid-rotation. Zero when the
    /// last segment ended exactly on a record boundary (a clean end),
    /// even if unindexed records had to be re-adopted.
    pub truncated_tail_bytes: u64,
    /// Records re-adopted from segment tails that the stored index did
    /// not cover (e.g. appended after the last `sync`).
    pub recovered_records: u64,
    /// The index file was missing, stale, or corrupt and was rebuilt by
    /// scanning the segments.
    pub rebuilt_index: bool,
    /// The final segment file was shorter than its 12-byte header (a
    /// crash between creating the file at rotation and writing its
    /// header) and was re-initialised in place. It cannot have held any
    /// records, so the index — which never covered the unborn segment —
    /// is not implicated.
    pub repaired_segment_header: bool,
    /// Bytes of torn tail truncated from `forks.log` — a crash
    /// mid-journal. Repaired *at open* (not lazily tolerated) because a
    /// later journal append landing after torn bytes would strand every
    /// subsequent entry behind an unreadable record.
    pub truncated_fork_log_bytes: u64,
    /// What opening the address index alongside the store found, when
    /// one was opened.
    pub addr_index: AddrIndexRecovery,
}

impl RecoveryReport {
    /// `true` if the store (and the address index, if one was opened)
    /// came back exactly as it was left.
    pub fn is_clean(&self) -> bool {
        self.truncated_tail_bytes == 0
            && self.recovered_records == 0
            && !self.rebuilt_index
            && !self.repaired_segment_header
            && self.truncated_fork_log_bytes == 0
            && matches!(
                self.addr_index,
                AddrIndexRecovery::NotOpened | AddrIndexRecovery::Intact
            )
    }
}

#[derive(Debug)]
struct Writer {
    file: File,
    segment: u32,
    offset: u64,
}

/// An append-only, CRC-framed, segmented store of encoded blocks.
///
/// Reads take `&self` and are safe from many threads at once
/// (positional reads on shared handles); appends serialize on an
/// internal writer lock.
#[derive(Debug)]
pub struct BlockStore {
    dir: PathBuf,
    params: ChainParams,
    config: StoreConfig,
    fs: Arc<dyn StoreFs>,
    index: RwLock<Vec<RecordLoc>>,
    segments: RwLock<Vec<SegmentHandle>>,
    writer: Mutex<Writer>,
}

fn segment_file_name(segment: u32) -> String {
    format!("segment-{segment:04}.blk")
}

impl BlockStore {
    /// Creates a fresh store in `dir` (creating the directory if
    /// needed) for blocks of a chain configured by `params`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::AlreadyExists`] if `dir` already holds a
    /// store, or [`StoreError::Io`] on filesystem failure.
    pub fn create(
        dir: impl AsRef<Path>,
        params: ChainParams,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        Self::create_with_fs(dir, params, config, Arc::new(RealFs))
    }

    /// [`BlockStore::create`] with an explicit [`StoreFs`] — the seam
    /// the crash-fault harness injects through.
    ///
    /// # Errors
    ///
    /// As [`BlockStore::create`].
    pub fn create_with_fs(
        dir: impl AsRef<Path>,
        params: ChainParams,
        config: StoreConfig,
        fs_impl: Arc<dyn StoreFs>,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let meta_path = dir.join(META_FILE);
        if meta_path.exists() {
            return Err(StoreError::AlreadyExists { path: dir });
        }

        // Segment first, meta last (atomic rename + directory fsync):
        // the meta file's existence is what marks a directory as a
        // store, so a crash anywhere inside create leaves either no
        // store at all (re-creatable) or a complete empty one — never a
        // half-created store.
        let seg_path = dir.join(segment_file_name(0));
        let seg_file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&seg_path)?;
        fs_impl.write_all(&seg_file, &segment_header(SEGMENT_MAGIC, VERSION, 0))?;
        fs_impl.sync(&seg_file)?;

        let mut meta = Vec::new();
        meta.extend_from_slice(&META_MAGIC);
        meta.extend_from_slice(&VERSION.to_le_bytes());
        params.encode_into(&mut meta);
        let crc = crc32(&meta);
        meta.extend_from_slice(&crc.to_le_bytes());
        let meta_tmp = dir.join(META_TMP_FILE);
        let meta_file = File::create(&meta_tmp)?;
        fs_impl.write_all(&meta_file, &meta)?;
        fs_impl.sync(&meta_file)?;
        fs_impl.rename(&meta_tmp, &meta_path)?;
        fs_impl.sync_dir(&dir)?;

        let store = BlockStore {
            dir,
            params,
            config,
            fs: fs_impl,
            index: RwLock::new(Vec::new()),
            segments: RwLock::new(vec![SegmentHandle {
                file: Arc::new(File::open(&seg_path)?),
                path: seg_path,
            }]),
            writer: Mutex::new(Writer {
                file: seg_file,
                segment: 0,
                offset: SEGMENT_HEADER_LEN,
            }),
        };
        store.save_index()?;
        Ok(store)
    }

    /// Opens an existing store, recovering from a torn tail if needed.
    ///
    /// The `store` module docs give the recovery rules; the returned
    /// [`RecoveryReport`] says what, if anything, was repaired.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotAStore`] if `dir` has no `store.meta`,
    /// [`StoreError::CorruptRecord`] for corruption anywhere except a
    /// torn tail, and [`StoreError::Io`] on filesystem failure.
    pub fn open(
        dir: impl AsRef<Path>,
        config: StoreConfig,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        Self::open_with_fs(dir, config, Arc::new(RealFs))
    }

    /// [`BlockStore::open`] with an explicit [`StoreFs`] — recovery
    /// repairs (tail truncation, header re-initialisation, the index
    /// rewrite) go through it, so even recovery itself has enumerable
    /// crash points.
    ///
    /// # Errors
    ///
    /// As [`BlockStore::open`].
    pub fn open_with_fs(
        dir: impl AsRef<Path>,
        config: StoreConfig,
        fs_impl: Arc<dyn StoreFs>,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let meta_path = dir.join(META_FILE);
        if !meta_path.exists() {
            return Err(StoreError::NotAStore { path: dir });
        }
        let params = read_meta(&meta_path)?;

        // Stale temp files are debris from a crash between a temp write
        // and its rename; the renamed-to files are still whole, so the
        // debris is simply removed.
        for tmp in [META_TMP_FILE, INDEX_TMP_FILE, FORKS_TMP_FILE] {
            let path = dir.join(tmp);
            if path.exists() {
                fs_impl.remove_file(&path)?;
            }
        }

        let mut segment_count = 0u32;
        while dir.join(segment_file_name(segment_count)).exists() {
            segment_count += 1;
        }
        if segment_count == 0 {
            return Err(StoreError::MissingSegment { segment: 0 });
        }

        // A crash mid-journal leaves a torn tail on `forks.log`. It
        // must be truncated *now*, not tolerated lazily: the next
        // journal append lands at end-of-file, and entries written
        // after torn bytes would be stranded behind an unreadable
        // record forever.
        let mut report = RecoveryReport {
            truncated_fork_log_bytes: repair_fork_log(&dir, &*fs_impl)?,
            ..RecoveryReport::default()
        };

        // A crash between creating a segment file and writing its
        // 12-byte header leaves a short final segment: repair it in
        // place (it cannot have held any records).
        let last = segment_count - 1;
        let last_path = dir.join(segment_file_name(last));
        let last_len = fs::metadata(&last_path)?.len();
        if last_len < SEGMENT_HEADER_LEN {
            let f = OpenOptions::new().write(true).open(&last_path)?;
            fs_impl.set_len(&f, 0)?;
            fs_impl.write_all(&f, &segment_header(SEGMENT_MAGIC, VERSION, last))?;
            fs_impl.sync(&f)?;
            report.truncated_tail_bytes += last_len;
            report.repaired_segment_header = true;
        }

        let mut segments = Vec::with_capacity(segment_count as usize);
        for seg in 0..segment_count {
            let path = dir.join(segment_file_name(seg));
            let handle = SegmentHandle {
                file: Arc::new(File::open(&path)?),
                path,
            };
            let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
            read_exact_at(&handle, &mut header, 0)?;
            if header[..4] != SEGMENT_MAGIC {
                return Err(StoreError::BadMagic { file: "segment" });
            }
            let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
            if version != VERSION {
                return Err(StoreError::UnsupportedVersion {
                    file: "segment",
                    found: version,
                });
            }
            let stored_seg = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
            if stored_seg != seg {
                return Err(StoreError::CorruptRecord {
                    segment: seg,
                    offset: 8,
                    detail: "segment header numbers itself differently",
                });
            }
            segments.push(handle);
        }

        // The index is a cache: adopt it when consistent, rebuild when
        // not.
        let mut index = match load_index(&dir.join(INDEX_FILE), &segments) {
            Some(index) => index,
            None => {
                report.rebuilt_index = true;
                Vec::new()
            }
        };

        // Scan every segment's unindexed tail. Only the final segment
        // may legitimately end mid-record (a torn append); anywhere
        // else a bad record is corruption.
        for seg in 0..segment_count {
            let handle = &segments[seg as usize];
            let file_len = fs::metadata(&handle.path)?.len();
            let mut offset = index
                .iter()
                .rev()
                .find(|loc| loc.segment == seg)
                .map(|loc| loc.end())
                .unwrap_or(SEGMENT_HEADER_LEN);
            while offset < file_len {
                match scan_record(handle, seg, offset, file_len)? {
                    ScannedRecord::Valid(loc) => {
                        offset = loc.end();
                        index.push(loc);
                        report.recovered_records += 1;
                    }
                    ScannedRecord::Corrupt { offset, detail } => {
                        return Err(StoreError::CorruptRecord {
                            segment: seg,
                            offset,
                            detail,
                        });
                    }
                    ScannedRecord::Torn => {
                        if seg != last {
                            return Err(StoreError::CorruptRecord {
                                segment: seg,
                                offset,
                                detail: "torn record before the final segment",
                            });
                        }
                        report.truncated_tail_bytes += file_len - offset;
                        let f = OpenOptions::new().write(true).open(&handle.path)?;
                        fs_impl.set_len(&f, offset)?;
                        fs_impl.sync(&f)?;
                        break;
                    }
                }
            }
        }

        let writer_path = dir.join(segment_file_name(last));
        let mut writer_file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&writer_path)?;
        let offset = writer_file.seek(SeekFrom::End(0))?;
        let store = BlockStore {
            dir,
            params,
            config,
            fs: fs_impl,
            index: RwLock::new(index),
            segments: RwLock::new(segments),
            writer: Mutex::new(Writer {
                file: writer_file,
                segment: last,
                offset,
            }),
        };
        if !report.is_clean() {
            store.save_index()?;
        }
        Ok((store, report))
    }

    /// The chain parameters recorded at creation.
    pub fn params(&self) -> ChainParams {
        self.params
    }

    /// The store's configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of blocks stored.
    pub fn len(&self) -> u64 {
        self.index.read().len() as u64
    }

    /// `true` if no blocks are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of segment files.
    pub fn segment_count(&self) -> u32 {
        self.segments.read().len() as u32
    }

    /// Total bytes across all segment files.
    pub fn data_bytes(&self) -> u64 {
        let index = self.index.read();
        let segments = self.segments.read().len() as u64;
        segments * SEGMENT_HEADER_LEN
            + index
                .iter()
                .map(|loc| RECORD_HEADER_LEN + loc.len as u64)
                .sum::<u64>()
    }

    /// Appends a block, returning its height (1-based).
    ///
    /// The record is written with a single `write` syscall; durability
    /// is deferred to [`BlockStore::sync`] (or segment rotation).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on write failure.
    pub fn append(&self, block: &Block) -> Result<u64, StoreError> {
        let payload = block.encode();
        let record = frame_record(&payload);

        let mut writer = self.writer.lock();
        if writer.offset >= self.config.segment_target_bytes && writer.offset > SEGMENT_HEADER_LEN {
            self.rotate(&mut writer)?;
        }
        self.fs.write_all(&writer.file, &record)?;
        let loc = RecordLoc {
            segment: writer.segment,
            offset: writer.offset,
            len: payload.len() as u32,
        };
        writer.offset += record.len() as u64;
        let mut index = self.index.write();
        index.push(loc);
        Ok(index.len() as u64)
    }

    /// Finishes the current segment and starts the next; called with
    /// the writer lock held.
    fn rotate(&self, writer: &mut Writer) -> Result<(), StoreError> {
        self.fs.sync(&writer.file)?;
        let next = writer.segment + 1;
        let path = self.dir.join(segment_file_name(next));
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)?;
        self.fs
            .write_all(&file, &segment_header(SEGMENT_MAGIC, VERSION, next))?;
        self.segments.write().push(SegmentHandle {
            file: Arc::new(File::open(&path)?),
            path,
        });
        writer.file = file;
        writer.segment = next;
        writer.offset = SEGMENT_HEADER_LEN;
        Ok(())
    }

    /// Truncates the store to `new_len` blocks — the reorg rewind
    /// primitive. Returns how many blocks were dropped.
    ///
    /// Segments above the kept tail are deleted highest-first and the
    /// kept segment is `set_len` to the exact record boundary, in that
    /// order, so the operation is torn-tail-safe: a crash at any point
    /// leaves a store that reopens to a valid *prefix* of the
    /// pre-truncate chain (the segment set stays contiguously numbered
    /// and every surviving record still tiles its segment). Callers
    /// that must not lose the dropped blocks copy them to the fork
    /// sidecar log ([`BlockStore::log_fork_block`]) first.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownHeight`] if `new_len` exceeds the
    /// current length, and [`StoreError::Io`] on filesystem failure.
    pub fn truncate(&self, new_len: u64) -> Result<u64, StoreError> {
        let mut writer = self.writer.lock();
        let mut index = self.index.write();
        let mut segments = self.segments.write();
        let old_len = index.len() as u64;
        if new_len > old_len {
            return Err(StoreError::UnknownHeight { height: new_len });
        }
        if new_len == old_len {
            return Ok(0);
        }
        index.truncate(new_len as usize);
        let (keep_segment, end_offset) = index
            .last()
            .map(|loc| (loc.segment, loc.end()))
            .unwrap_or((0, SEGMENT_HEADER_LEN));

        // Deleting highest-first keeps the on-disk segment numbering
        // contiguous at every intermediate point, so a crash mid-way
        // reopens to a valid prefix of the old chain.
        for handle in segments.drain((keep_segment as usize + 1)..).rev() {
            self.fs.remove_file(&handle.path)?;
        }
        let keep_path = self.dir.join(segment_file_name(keep_segment));
        let mut file = OpenOptions::new().read(true).write(true).open(&keep_path)?;
        self.fs.set_len(&file, end_offset)?;
        self.fs.sync(&file)?;
        file.seek(SeekFrom::End(0))?;
        writer.file = file;
        writer.segment = keep_segment;
        writer.offset = end_offset;

        drop(segments);
        drop(index);
        drop(writer);
        self.save_index()?;
        Ok(old_len - new_len)
    }

    /// Appends a displaced or competing block at `height` to the fork
    /// sidecar log (`forks.log`), fsynced before returning: a reorg
    /// copies blocks here *before* [`BlockStore::truncate`] discards
    /// them from the segments, so no observed block is ever lost. The
    /// log uses the same CRC framing as segment records.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn log_fork_block(&self, height: u64, block: &Block) -> Result<(), StoreError> {
        let mut payload = Vec::with_capacity(8 + block.encoded_len());
        payload.extend_from_slice(&height.to_le_bytes());
        block.encode_into(&mut payload);
        let record = frame_record(&payload);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(FORKS_FILE))?;
        self.fs.write_all(&file, &record)?;
        self.fs.sync(&file)?;
        Ok(())
    }

    /// Compacts the fork sidecar log, dropping journaled entries whose
    /// height has fallen out of the reorg window — a branch can only
    /// still be re-adopted if it forked within `max_reorg_depth` of the
    /// current tip, so entries at height `<= tip - max_reorg_depth` are
    /// unreachable and only cost reopen scans. Entries at greater
    /// heights (and, defensively, *above* the tip) are kept verbatim in
    /// log order. The rewrite is atomic: temp file, fsync, rename,
    /// directory fsync; an empty survivor set removes the log outright.
    ///
    /// Returns how many entries were dropped.
    ///
    /// # Errors
    ///
    /// As [`BlockStore::fork_log`], plus [`StoreError::Io`] on rewrite
    /// failure.
    pub fn compact_fork_log(&self, max_reorg_depth: u64) -> Result<u64, StoreError> {
        let entries = self.fork_log()?;
        if entries.is_empty() {
            return Ok(0);
        }
        let horizon = self.len().saturating_sub(max_reorg_depth);
        let kept: Vec<&(u64, Block)> = entries.iter().filter(|(h, _)| *h > horizon).collect();
        let dropped = (entries.len() - kept.len()) as u64;
        if dropped == 0 {
            return Ok(0);
        }
        let log_path = self.dir.join(FORKS_FILE);
        if kept.is_empty() {
            self.fs.remove_file(&log_path)?;
            self.fs.sync_dir(&self.dir)?;
            return Ok(dropped);
        }
        let mut bytes = Vec::new();
        for (height, block) in kept {
            let mut payload = Vec::with_capacity(8 + block.encoded_len());
            payload.extend_from_slice(&height.to_le_bytes());
            block.encode_into(&mut payload);
            bytes.extend_from_slice(&frame_record(&payload));
        }
        let tmp = self.dir.join(FORKS_TMP_FILE);
        let file = File::create(&tmp)?;
        self.fs.write_all(&file, &bytes)?;
        self.fs.sync(&file)?;
        self.fs.rename(&tmp, &log_path)?;
        self.fs.sync_dir(&self.dir)?;
        Ok(dropped)
    }

    /// Replays the fork sidecar log: every `(height, block)` ever
    /// logged, in log order (empty if no fork block was ever seen). A
    /// torn final record — a crash mid-append — is tolerated and ends
    /// the replay; corruption before the tail refuses loudly.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::CorruptRecord`] for a bad record before
    /// the tail, [`StoreError::Decode`] for an undecodable payload, and
    /// [`StoreError::Io`] on filesystem failure.
    pub fn fork_log(&self) -> Result<Vec<(u64, Block)>, StoreError> {
        let path = self.dir.join(FORKS_FILE);
        if !path.exists() {
            return Ok(Vec::new());
        }
        let handle = SegmentHandle {
            file: Arc::new(File::open(&path)?),
            path,
        };
        let file_len = fs::metadata(&handle.path)?.len();
        let mut out = Vec::new();
        let mut offset = 0u64;
        while offset < file_len {
            match scan_record(&handle, 0, offset, file_len)? {
                ScannedRecord::Valid(loc) => {
                    offset = loc.end();
                    let payload = self.read_fork_record(&handle, loc)?;
                    if payload.len() < 8 {
                        return Err(StoreError::CorruptRecord {
                            segment: 0,
                            offset: loc.offset,
                            detail: "fork record shorter than its height prefix",
                        });
                    }
                    let height = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
                    let block = lvq_codec::decode_exact::<Block>(&payload[8..])?;
                    out.push((height, block));
                }
                ScannedRecord::Corrupt { offset, detail } => {
                    return Err(StoreError::CorruptRecord {
                        segment: 0,
                        offset,
                        detail,
                    });
                }
                ScannedRecord::Torn => break,
            }
        }
        Ok(out)
    }

    fn read_fork_record(
        &self,
        handle: &SegmentHandle,
        loc: RecordLoc,
    ) -> Result<Vec<u8>, StoreError> {
        read_record_payload(handle, loc).map_err(|e| match e {
            FrameError::Io(e) => StoreError::Io(e),
            FrameError::Corrupt { detail } => StoreError::CorruptRecord {
                segment: 0,
                offset: loc.offset,
                detail,
            },
        })
    }

    /// Reads and decodes the block at `height` (1-based), verifying the
    /// record's CRC.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownHeight`] outside `1..=len`,
    /// [`StoreError::CorruptRecord`] if the record fails its CRC, and
    /// [`StoreError::Decode`] if the payload does not decode.
    pub fn read_block(&self, height: u64) -> Result<Block, StoreError> {
        let loc = {
            let index = self.index.read();
            if height == 0 || height > index.len() as u64 {
                return Err(StoreError::UnknownHeight { height });
            }
            index[(height - 1) as usize]
        };
        let payload = self.read_record(loc)?;
        Ok(lvq_codec::decode_exact::<Block>(&payload)?)
    }

    fn read_record(&self, loc: RecordLoc) -> Result<Vec<u8>, StoreError> {
        let handle = self.segments.read()[loc.segment as usize].clone();
        read_record_payload(&handle, loc).map_err(|e| match e {
            FrameError::Io(e) => StoreError::Io(e),
            FrameError::Corrupt { detail } => StoreError::CorruptRecord {
                segment: loc.segment,
                offset: loc.offset,
                detail,
            },
        })
    }

    /// Visits every stored block in height order, re-verifying each
    /// record's CRC on the way.
    ///
    /// # Errors
    ///
    /// Propagates the first error from storage or from `visit`.
    pub fn scan_blocks(
        &self,
        visit: &mut dyn FnMut(u64, &Block) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let locs: Vec<RecordLoc> = self.index.read().clone();
        for (i, loc) in locs.iter().enumerate() {
            let payload = self.read_record(*loc)?;
            let block = lvq_codec::decode_exact::<Block>(&payload)?;
            visit(i as u64 + 1, &block)?;
        }
        Ok(())
    }

    /// Re-reads and CRC-checks every record, returning how many blocks
    /// passed.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::CorruptRecord`] at the first bad record.
    pub fn verify_all(&self) -> Result<u64, StoreError> {
        let mut count = 0u64;
        self.scan_blocks(&mut |_, _| {
            count += 1;
            Ok(())
        })?;
        Ok(count)
    }

    /// Flushes the current segment to disk and rewrites the index file.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on failure.
    pub fn sync(&self) -> Result<(), StoreError> {
        let writer = self.writer.lock();
        self.fs.sync(&writer.file)?;
        drop(writer);
        self.save_index()
    }

    /// Atomically rewrites `index.idx` (write to a temporary, rename,
    /// fsync the directory).
    fn save_index(&self) -> Result<(), StoreError> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&INDEX_MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        {
            let index = self.index.read();
            bytes.extend_from_slice(&(index.len() as u64).to_le_bytes());
            for loc in index.iter() {
                bytes.extend_from_slice(&loc.segment.to_le_bytes());
                bytes.extend_from_slice(&loc.offset.to_le_bytes());
                bytes.extend_from_slice(&loc.len.to_le_bytes());
            }
        }
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());

        let tmp = self.dir.join(INDEX_TMP_FILE);
        let file = File::create(&tmp)?;
        self.fs.write_all(&file, &bytes)?;
        self.fs.sync(&file)?;
        self.fs.rename(&tmp, &self.dir.join(INDEX_FILE))?;
        // A rename alone is not power-loss durable until the directory
        // entry itself is on disk.
        self.fs.sync_dir(&self.dir)?;
        Ok(())
    }
}

impl Drop for BlockStore {
    fn drop(&mut self) {
        // Best effort: leave a fresh index behind so the next open
        // needs no tail scan.
        let _ = self.sync();
    }
}

/// Scans `forks.log` for a torn final record and truncates it away,
/// returning the bytes removed (zero for a clean or absent log).
/// Corruption *before* the tail refuses loudly, like segment scans.
fn repair_fork_log(dir: &Path, fs_impl: &dyn StoreFs) -> Result<u64, StoreError> {
    let path = dir.join(FORKS_FILE);
    if !path.exists() {
        return Ok(0);
    }
    let file_len = fs::metadata(&path)?.len();
    let handle = SegmentHandle {
        file: Arc::new(File::open(&path)?),
        path: path.clone(),
    };
    let mut offset = 0u64;
    while offset < file_len {
        match scan_record(&handle, 0, offset, file_len)? {
            ScannedRecord::Valid(loc) => offset = loc.end(),
            ScannedRecord::Corrupt { offset, detail } => {
                return Err(StoreError::CorruptRecord {
                    segment: 0,
                    offset,
                    detail,
                });
            }
            ScannedRecord::Torn => {
                let f = OpenOptions::new().write(true).open(&path)?;
                fs_impl.set_len(&f, offset)?;
                fs_impl.sync(&f)?;
                return Ok(file_len - offset);
            }
        }
    }
    Ok(0)
}

fn read_meta(path: &Path) -> Result<ChainParams, StoreError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 12 {
        return Err(StoreError::CorruptMeta);
    }
    if bytes[..4] != META_MAGIC {
        return Err(StoreError::BadMagic { file: META_FILE });
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion {
            file: META_FILE,
            found: version,
        });
    }
    let body_len = bytes.len() - 4;
    let stored_crc = u32::from_le_bytes([
        bytes[body_len],
        bytes[body_len + 1],
        bytes[body_len + 2],
        bytes[body_len + 3],
    ]);
    if crc32(&bytes[..body_len]) != stored_crc {
        return Err(StoreError::CorruptMeta);
    }
    let mut reader = Reader::new(&bytes[8..body_len]);
    let params = ChainParams::decode_from(&mut reader).map_err(|_| StoreError::CorruptMeta)?;
    reader.finish().map_err(|_| StoreError::CorruptMeta)?;
    Ok(params)
}

/// Parses `index.idx`, returning `None` (rebuild) for any
/// inconsistency: bad magic/version/CRC, out-of-range segments, or
/// records that do not tile their segment contiguously.
fn load_index(path: &Path, segments: &[SegmentHandle]) -> Option<Vec<RecordLoc>> {
    let mut bytes = Vec::new();
    File::open(path).ok()?.read_to_end(&mut bytes).ok()?;
    if bytes.len() < 20 || bytes[..4] != INDEX_MAGIC {
        return None;
    }
    if u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) != VERSION {
        return None;
    }
    let body_len = bytes.len() - 4;
    let stored_crc = u32::from_le_bytes([
        bytes[body_len],
        bytes[body_len + 1],
        bytes[body_len + 2],
        bytes[body_len + 3],
    ]);
    if crc32(&bytes[..body_len]) != stored_crc {
        return None;
    }
    let count = u64::from_le_bytes(bytes[8..16].try_into().ok()?) as usize;
    if body_len != 16 + count * 16 {
        return None;
    }

    let mut index = Vec::with_capacity(count);
    let mut expected: Vec<u64> = vec![SEGMENT_HEADER_LEN; segments.len()];
    let mut current_segment = 0u32;
    for i in 0..count {
        let at = 16 + i * 16;
        let segment = u32::from_le_bytes(bytes[at..at + 4].try_into().ok()?);
        let offset = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().ok()?);
        let len = u32::from_le_bytes(bytes[at + 12..at + 16].try_into().ok()?);
        if (segment as usize) >= segments.len() || segment < current_segment {
            return None;
        }
        current_segment = segment;
        let loc = RecordLoc {
            segment,
            offset,
            len,
        };
        // Records must tile each segment contiguously from its header.
        if offset != expected[segment as usize] {
            return None;
        }
        expected[segment as usize] = loc.end();
        index.push(loc);
    }
    // Every indexed byte must exist on disk, and — since any honest
    // index is a prefix of the append order — every segment before the
    // last indexed one must be fully tiled.
    let max_indexed_segment = index.last().map(|loc| loc.segment).unwrap_or(0);
    for (seg, handle) in segments.iter().enumerate() {
        let file_len = fs::metadata(&handle.path).ok()?.len();
        if expected[seg] > file_len {
            return None;
        }
        if (seg as u32) < max_indexed_segment && expected[seg] != file_len {
            return None;
        }
    }
    Some(index)
}
