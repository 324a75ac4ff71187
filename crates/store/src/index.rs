//! The persistent authenticated address index: [`IndexedTables`].
//!
//! This is the store-side backend of [`lvq_chain::TableSource`] — the
//! chain's per-block derived state (headers, address tables, BMT span
//! hashes, per-address presence) kept in a Merk-style Merkle AVL tree
//! ([`lvq_merkle::avl`]) whose nodes live in an append-only, CRC-framed
//! node log. Reopening a store becomes a root-record read plus a few
//! point reads instead of a chain replay, and proofs are generated from
//! the handful of nodes they touch instead of a tree rebuild.
//!
//! # On-disk layout
//!
//! The index is a subdirectory (`addr-index/`) of the block store:
//!
//! ```text
//! nodes-0000.seg    magic "LVQN" | version u32 | segment u32 | records…
//! nodes-0001.seg    …
//! root.idx          magic "LVQR" | version u32 | tip u64
//!                   | Option<AvlLink> | Option<loc> | crc32
//! ```
//!
//! Node records reuse the block store's framing
//! ([`crate::frame`]): `len u32 | crc32 u32 | payload`. Each payload is
//! one [`AvlNode`] plus the log locations of its children, which
//! decoding copies into the node's child links ([`AvlLink::addr`]): a
//! link is followed with one read through the node cache and a descent
//! needs no in-memory directory — resident memory is the bounded node
//! cache plus the not-yet-anchored write set, independent of chain
//! length. A link without a location names a write-set node, by key.
//!
//! # Keyspace
//!
//! One tree holds four keyspaces, disambiguated by a first byte:
//!
//! ```text
//! 'a' ‖ varint(len) ‖ address ‖ height_be8  →  distinct-tx count
//! 'h' ‖ height_be8                          →  encoded BlockHeader
//! 's' ‖ lo_be8 ‖ hi_be8                     →  BMT span hash
//! 't' ‖ height_be8                          →  encoded address table
//! ```
//!
//! The stored table for a height is byte-identical to
//! `Block::address_counts()`, which is what pins proofs built from the
//! index to the rebuild path.
//!
//! # Durability and the root-anchoring rule
//!
//! Inserts accumulate in memory, unhashed (the *write set*, behind
//! pending links — see [`lvq_merkle::avl`]). [`TableSource::sync`] pays
//! for an anchor once per rewritten node: it hashes the write set
//! children-first, frames the records into one buffer at the offsets
//! they will have in the log, hands it to the filesystem at most
//! [`WRITE_CHUNK_BYTES`] at a time, fsyncs the log, and only then
//! rewrites the checksummed root record (atomic temp-file-and-rename).
//! The root therefore only ever references durable nodes. In memory a
//! sync is all-or-nothing: written nodes leave the write set for the
//! node cache only once the root record is in place, so after a failed
//! sync the index still answers from the write set and a retry writes
//! everything again. The record carries the anchored *tip height*: a
//! root that disagrees with the store tip is
//! [`StoreError::StaleIndexRoot`] — behind means catch up from the
//! (CRC-verified) blocks, ahead means the index references blocks the
//! store lost and must be rebuilt.
//!
//! Every node read from the log is re-hashed and verified against the
//! link that committed it ([`lvq_merkle::avl::fetch`]), so a corrupted
//! node, a torn log, or a swapped record surfaces as a loud error —
//! never as a wrong answer.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use lvq_chain::{Address, BlockHeader, CacheStats, ChainError, TableSource, TableUpdate};
use lvq_codec::{Decodable, DecodeError, Encodable, Reader};
use lvq_crypto::Hash256;
use lvq_merkle::avl::{
    fetch, AvlError, AvlLink, AvlNode, AvlNodeStore, AvlProof, AvlTree, NodeAddr,
};

use crate::cache::LruCache;
use crate::crc32::crc32;
use crate::error::StoreError;
use crate::frame::{
    frame_record_with, read_exact_at, read_record_payload, segment_header, FrameError, RecordLoc,
    SegmentHandle, SEGMENT_HEADER_LEN,
};
use crate::fsio::{RealFs, StoreFs};

const NODE_MAGIC: [u8; 4] = *b"LVQN";
const ROOT_MAGIC: [u8; 4] = *b"LVQR";
const VERSION: u32 = 1;
const ROOT_FILE: &str = "root.idx";
const ROOT_TMP_FILE: &str = "root.idx.tmp";
/// Most bytes a flush hands to one [`StoreFs::write_all`].
const WRITE_CHUNK_BYTES: usize = 1 << 20;

const KEY_ADDR: u8 = b'a';
const KEY_HEADER: u8 = b'h';
const KEY_SPAN: u8 = b's';
const KEY_TABLE: u8 = b't';

fn height_suffixed_key(tag: u8, height: u64) -> Vec<u8> {
    let mut key = Vec::with_capacity(9);
    key.push(tag);
    key.extend_from_slice(&height.to_be_bytes());
    key
}

fn header_key(height: u64) -> Vec<u8> {
    height_suffixed_key(KEY_HEADER, height)
}

fn table_key(height: u64) -> Vec<u8> {
    height_suffixed_key(KEY_TABLE, height)
}

fn span_key(lo: u64, hi: u64) -> Vec<u8> {
    let mut key = Vec::with_capacity(17);
    key.push(KEY_SPAN);
    key.extend_from_slice(&lo.to_be_bytes());
    key.extend_from_slice(&hi.to_be_bytes());
    key
}

/// `'a' ‖ varint(len) ‖ address` — the length prefix keeps one address
/// from being a byte-prefix of another, so prefix scans cannot
/// over-match.
fn addr_prefix(address: &Address) -> Vec<u8> {
    let bytes = address.as_bytes();
    let mut key = Vec::with_capacity(2 + bytes.len() + 8);
    key.push(KEY_ADDR);
    lvq_codec::write_compact_size(&mut key, bytes.len() as u64);
    key.extend_from_slice(bytes);
    key
}

fn addr_key(address: &Address, height: u64) -> Vec<u8> {
    let mut key = addr_prefix(address);
    key.extend_from_slice(&height.to_be_bytes());
    key
}

fn avl_chain_error(e: AvlError) -> ChainError {
    ChainError::Source {
        detail: format!("address index: {e}"),
    }
}

fn avl_store_error(e: AvlError) -> StoreError {
    StoreError::Chain(avl_chain_error(e))
}

fn decode_error(detail: &'static str) -> impl FnOnce(DecodeError) -> AvlError {
    move |_| AvlError::CorruptNode { detail }
}

/// [`NodeAddr`] behind the codec traits, for node records and the
/// root record.
#[derive(Debug, Clone, Copy)]
struct LocCodec(NodeAddr);

impl Encodable for LocCodec {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.segment.encode_into(out);
        self.0.offset.encode_into(out);
        self.0.len.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        16
    }
}

impl Decodable for LocCodec {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(LocCodec(NodeAddr {
            segment: u32::decode_from(reader)?,
            offset: u64::decode_from(reader)?,
            len: u32::decode_from(reader)?,
        }))
    }
}

/// One node as it sits in the log: the tree node, then the locations
/// of its children, which is what makes descents pure point reads.
fn encode_stored(
    out: &mut Vec<u8>,
    node: &AvlNode,
    left: Option<NodeAddr>,
    right: Option<NodeAddr>,
) {
    node.encode_into(out);
    left.map(LocCodec).encode_into(out);
    right.map(LocCodec).encode_into(out);
}

/// Decodes one log record into a node whose child links carry the
/// locations the record stores for them.
fn decode_stored(payload: &[u8]) -> Result<AvlNode, AvlError> {
    let mut reader = Reader::new(payload);
    let mut node =
        AvlNode::decode_from(&mut reader).map_err(decode_error("node record does not decode"))?;
    for link in [&mut node.left, &mut node.right] {
        let addr = Option::<LocCodec>::decode_from(&mut reader)
            .map_err(decode_error("node record does not decode"))?;
        match (link, addr) {
            (Some(link), Some(addr)) => link.addr = Some(addr.0),
            (None, None) => {}
            _ => {
                return Err(AvlError::CorruptNode {
                    detail: "child links and child locations disagree",
                })
            }
        }
    }
    reader
        .finish()
        .map_err(decode_error("node record has trailing bytes"))?;
    Ok(node)
}

fn node_file_name(segment: u32) -> String {
    format!("nodes-{segment:04}.seg")
}

#[derive(Debug)]
struct LogWriter {
    file: File,
    segment: u32,
    offset: u64,
}

/// The append-only node log: `nodes-NNNN.seg` segments sharing the
/// block store's record framing. Records are only ever reached through
/// locations written *after* them, so the log needs no reopen scan —
/// torn tail bytes are simply unreferenced.
#[derive(Debug)]
struct NodeLog {
    dir: PathBuf,
    target_bytes: u64,
    fs: Arc<dyn StoreFs>,
    segments: RwLock<Vec<SegmentHandle>>,
    writer: Mutex<LogWriter>,
}

impl NodeLog {
    fn create(
        dir: &Path,
        target_bytes: u64,
        fs_impl: Arc<dyn StoreFs>,
    ) -> Result<Self, StoreError> {
        let path = dir.join(node_file_name(0));
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)?;
        fs_impl.write_all(&file, &segment_header(NODE_MAGIC, VERSION, 0))?;
        fs_impl.sync(&file)?;
        Ok(NodeLog {
            dir: dir.to_path_buf(),
            target_bytes,
            fs: fs_impl,
            segments: RwLock::new(vec![SegmentHandle {
                file: Arc::new(File::open(&path)?),
                path,
            }]),
            writer: Mutex::new(LogWriter {
                file,
                segment: 0,
                offset: SEGMENT_HEADER_LEN,
            }),
        })
    }

    fn open(dir: &Path, target_bytes: u64, fs_impl: Arc<dyn StoreFs>) -> Result<Self, StoreError> {
        let mut count = 0u32;
        while dir.join(node_file_name(count)).exists() {
            count += 1;
        }
        if count == 0 {
            return Err(StoreError::MissingSegment { segment: 0 });
        }
        let mut segments = Vec::with_capacity(count as usize);
        for seg in 0..count {
            let path = dir.join(node_file_name(seg));
            let handle = SegmentHandle {
                file: Arc::new(File::open(&path)?),
                path,
            };
            let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
            read_exact_at(&handle, &mut header, 0)?;
            if header[..4] != NODE_MAGIC {
                return Err(StoreError::BadMagic {
                    file: "node segment",
                });
            }
            let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
            if version != VERSION {
                return Err(StoreError::UnsupportedVersion {
                    file: "node segment",
                    found: version,
                });
            }
            let stored_seg = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
            if stored_seg != seg {
                return Err(StoreError::CorruptRecord {
                    segment: seg,
                    offset: 8,
                    detail: "node segment header numbers itself differently",
                });
            }
            segments.push(handle);
        }
        let last = count - 1;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join(node_file_name(last)))?;
        let offset = file.seek(SeekFrom::End(0))?;
        Ok(NodeLog {
            dir: dir.to_path_buf(),
            target_bytes,
            fs: fs_impl,
            segments: RwLock::new(segments),
            writer: Mutex::new(LogWriter {
                file,
                segment: last,
                offset,
            }),
        })
    }

    fn rotate(&self, writer: &mut LogWriter) -> Result<(), StoreError> {
        self.fs.sync(&writer.file)?;
        let next = writer.segment + 1;
        let path = self.dir.join(node_file_name(next));
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)?;
        self.fs
            .write_all(&file, &segment_header(NODE_MAGIC, VERSION, next))?;
        self.segments.write().push(SegmentHandle {
            file: Arc::new(File::open(&path)?),
            path,
        });
        writer.file = file;
        writer.segment = next;
        writer.offset = SEGMENT_HEADER_LEN;
        Ok(())
    }

    fn read(&self, addr: NodeAddr) -> Result<Vec<u8>, AvlError> {
        let loc = RecordLoc {
            segment: addr.segment,
            offset: addr.offset,
            len: addr.len,
        };
        let handle = {
            let segments = self.segments.read();
            let Some(handle) = segments.get(loc.segment as usize) else {
                return Err(AvlError::CorruptNode {
                    detail: "node location names a segment the log does not have",
                });
            };
            handle.clone()
        };
        read_record_payload(&handle, loc).map_err(|e| match e {
            FrameError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                AvlError::CorruptNode {
                    detail: "node location reaches beyond the end of the log",
                }
            }
            FrameError::Io(e) => AvlError::Backend {
                detail: e.to_string(),
            },
            FrameError::Corrupt { detail } => AvlError::CorruptNode { detail },
        })
    }

    fn data_bytes(&self) -> u64 {
        self.segments
            .read()
            .iter()
            .filter_map(|handle| fs::metadata(&handle.path).ok())
            .map(|meta| meta.len())
            .sum()
    }
}

/// One flush's appends to the node log: records are framed into
/// `buf` at the locations they will have on disk — `writer.offset`
/// counts what the file holds, `buf` what comes after it — and reach
/// the file in whole [`WRITE_CHUNK_BYTES`] slices, a last partial one
/// at a segment rotation and in [`LogBatch::finish`]. Dropping a batch
/// unfinished loses nothing an anchor references: whatever already
/// reached the file is unreferenced tail.
struct LogBatch<'a> {
    log: &'a NodeLog,
    writer: MutexGuard<'a, LogWriter>,
    buf: Vec<u8>,
}

impl LogBatch<'_> {
    /// Frames `node`'s record and returns where it will live.
    fn push(
        &mut self,
        node: &AvlNode,
        left: Option<NodeAddr>,
        right: Option<NodeAddr>,
    ) -> Result<NodeAddr, StoreError> {
        let mut offset = self.writer.offset + self.buf.len() as u64;
        if offset >= self.log.target_bytes && offset > SEGMENT_HEADER_LEN {
            self.write_out(1)?;
            self.log.rotate(&mut self.writer)?;
            offset = self.writer.offset;
        }
        let len = frame_record_with(&mut self.buf, |out| encode_stored(out, node, left, right));
        self.write_out(WRITE_CHUNK_BYTES)?;
        Ok(NodeAddr {
            segment: self.writer.segment,
            offset,
            len,
        })
    }

    /// Writes the front of the buffer out, a chunk at a time, while it
    /// holds at least `at_least` bytes.
    fn write_out(&mut self, at_least: usize) -> Result<(), StoreError> {
        let mut written = 0;
        while self.buf.len() - written >= at_least {
            let chunk = &self.buf[written..self.buf.len().min(written + WRITE_CHUNK_BYTES)];
            if let Err(e) = self.log.fs.write_all(&self.writer.file, chunk) {
                // A failed write may have left a torn prefix behind:
                // whatever is appended next has to start after it.
                if let Ok(end) = (&self.writer.file).seek(SeekFrom::End(0)) {
                    self.writer.offset = end;
                }
                return Err(e.into());
            }
            written += chunk.len();
            self.writer.offset += chunk.len() as u64;
        }
        self.buf.drain(..written);
        Ok(())
    }

    /// Writes what is still buffered and fsyncs the log.
    fn finish(mut self) -> Result<(), StoreError> {
        self.write_out(1)?;
        self.log.fs.sync(&self.writer.file)?;
        Ok(())
    }
}

type NodeCache = Mutex<LruCache<NodeAddr, Arc<AvlNode>>>;

/// Reads the record at `addr` through the location-keyed node cache.
fn load_node(log: &NodeLog, cache: &NodeCache, addr: NodeAddr) -> Result<Arc<AvlNode>, AvlError> {
    if let Some(hit) = cache.lock().get(&addr) {
        return Ok(hit);
    }
    let payload = log.read(addr)?;
    let node = Arc::new(decode_stored(&payload)?);
    cache.lock().put(addr, node.clone(), payload.len() + 96);
    Ok(node)
}

/// Nodes rewritten since the last anchor, latest version per key.
#[derive(Debug, Default)]
struct WriteSet {
    nodes: HashMap<Vec<u8>, Arc<AvlNode>>,
    bytes: u64,
    /// An edit failed half-way: nodes it already put may shadow the
    /// versions the tree still links to by key, and nothing could tell
    /// them apart. The set is neither read nor anchored again; reopening
    /// the index restarts from the last anchor.
    broken: bool,
}

impl WriteSet {
    fn usable(&self) -> Result<&Self, AvlError> {
        match self.broken {
            false => Ok(self),
            true => Err(AvlError::Backend {
                detail: "a failed edit left the write set inconsistent; reopen the index".into(),
            }),
        }
    }
}

/// A link with a location names that log record (verified against the
/// link's hash by the tree layer); one without names a write-set node.
fn get_node_from(
    log: &NodeLog,
    cache: &NodeCache,
    dirty: &WriteSet,
    link: &AvlLink,
) -> Result<Option<Arc<AvlNode>>, AvlError> {
    match link.addr {
        Some(addr) => load_node(log, cache, addr).map(Some),
        None => Ok(dirty.usable()?.nodes.get(&link.key).cloned()),
    }
}

/// Read-only [`AvlNodeStore`] over the log and the write set.
struct NodeReader<'a> {
    log: &'a NodeLog,
    cache: &'a NodeCache,
    dirty: &'a WriteSet,
}

impl AvlNodeStore for NodeReader<'_> {
    fn get_node(&self, link: &AvlLink) -> Result<Option<Arc<AvlNode>>, AvlError> {
        get_node_from(self.log, self.cache, self.dirty, link)
    }

    fn put_node(&mut self, _node: AvlNode) -> Result<(), AvlError> {
        Err(AvlError::Backend {
            detail: "node store is read-only outside push".to_string(),
        })
    }
}

/// Writable [`AvlNodeStore`] for [`TableSource::push`]: writes go to
/// the in-memory write set; the log is only appended to at sync time,
/// so one anchor writes each rewritten node once, not once per insert.
struct NodeEditor<'a> {
    log: &'a NodeLog,
    cache: &'a NodeCache,
    dirty: &'a mut WriteSet,
}

impl AvlNodeStore for NodeEditor<'_> {
    fn get_node(&self, link: &AvlLink) -> Result<Option<Arc<AvlNode>>, AvlError> {
        get_node_from(self.log, self.cache, self.dirty, link)
    }

    fn put_node(&mut self, node: AvlNode) -> Result<(), AvlError> {
        self.dirty.bytes += node.resident_size() as u64;
        // Most puts replace an ancestor some earlier insert already
        // rewrote: only a first version pays for a copy of its key.
        let old = match self.dirty.nodes.get_mut(&node.key) {
            Some(slot) => Some(std::mem::replace(slot, Arc::new(node))),
            None => self.dirty.nodes.insert(node.key.clone(), Arc::new(node)),
        };
        if let Some(old) = old {
            self.dirty.bytes = self.dirty.bytes.saturating_sub(old.resident_size() as u64);
        }
        Ok(())
    }
}

#[derive(Debug)]
struct IndexInner {
    tree: AvlTree,
    /// Height the in-memory tree is consistent with.
    tip: u64,
    /// Height the on-disk root record anchors.
    anchored_tip: u64,
    dirty: WriteSet,
}

/// A persistent, authenticated [`TableSource`]: the chain's per-block
/// derived state in a Merkle AVL tree over an append-only node log.
/// See the [module docs](self) for the layout and invariants.
#[derive(Debug)]
pub struct IndexedTables {
    dir: PathBuf,
    log: NodeLog,
    fs: Arc<dyn StoreFs>,
    inner: RwLock<IndexInner>,
    cache: NodeCache,
}

impl IndexedTables {
    /// Creates a fresh, empty index in `dir`, wiping whatever was there
    /// (the index is derived state — rebuilding it loses nothing).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn create(
        dir: impl AsRef<Path>,
        cache_bytes: usize,
        segment_target_bytes: u64,
    ) -> Result<Self, StoreError> {
        Self::create_with_fs(dir, cache_bytes, segment_target_bytes, Arc::new(RealFs))
    }

    /// [`IndexedTables::create`] with an explicit [`StoreFs`] — the
    /// seam the crash-fault harness injects through.
    ///
    /// # Errors
    ///
    /// As [`IndexedTables::create`].
    pub fn create_with_fs(
        dir: impl AsRef<Path>,
        cache_bytes: usize,
        segment_target_bytes: u64,
        fs_impl: Arc<dyn StoreFs>,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        if dir.exists() {
            fs_impl.remove_dir_all(dir)?;
        }
        fs::create_dir_all(dir)?;
        let log = NodeLog::create(dir, segment_target_bytes, Arc::clone(&fs_impl))?;
        let tables = IndexedTables {
            dir: dir.to_path_buf(),
            log,
            fs: fs_impl,
            inner: RwLock::new(IndexInner {
                tree: AvlTree::new(),
                tip: 0,
                anchored_tip: 0,
                dirty: WriteSet::default(),
            }),
            cache: Mutex::new(LruCache::new(cache_bytes)),
        };
        write_root(&tables.dir, 0, None, None, &*tables.fs)?;
        Ok(tables)
    }

    /// Opens the index in `dir` from its checksummed root record and
    /// verifies the anchored root node against it (one point read).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the root file is missing,
    /// [`StoreError::CorruptIndexRoot`] if it fails validation, and any
    /// node-log error if the root node cannot be read back verified.
    pub fn open(
        dir: impl AsRef<Path>,
        cache_bytes: usize,
        segment_target_bytes: u64,
    ) -> Result<Self, StoreError> {
        Self::open_with_fs(dir, cache_bytes, segment_target_bytes, Arc::new(RealFs))
    }

    /// [`IndexedTables::open`] with an explicit [`StoreFs`].
    ///
    /// # Errors
    ///
    /// As [`IndexedTables::open`].
    pub fn open_with_fs(
        dir: impl AsRef<Path>,
        cache_bytes: usize,
        segment_target_bytes: u64,
        fs_impl: Arc<dyn StoreFs>,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        // Debris from a crash between the root temp write and its
        // rename; the renamed-to root is still whole.
        let stale_tmp = dir.join(ROOT_TMP_FILE);
        if stale_tmp.exists() {
            fs_impl.remove_file(&stale_tmp)?;
        }
        let (tip, root) = read_root(&dir.join(ROOT_FILE))?;
        let log = NodeLog::open(dir, segment_target_bytes, Arc::clone(&fs_impl))?;
        let tables = IndexedTables {
            dir: dir.to_path_buf(),
            log,
            fs: fs_impl,
            inner: RwLock::new(IndexInner {
                tree: AvlTree::from_root(root),
                tip,
                anchored_tip: tip,
                dirty: WriteSet::default(),
            }),
            cache: Mutex::new(LruCache::new(cache_bytes)),
        };
        {
            let inner = tables.inner.read();
            if let Some(root) = inner.tree.root() {
                fetch(&tables.reader(&inner), root).map_err(avl_store_error)?;
            }
        }
        Ok(tables)
    }

    /// Like [`IndexedTables::open`], but additionally requires the root
    /// to anchor exactly `expected_tip`.
    ///
    /// # Errors
    ///
    /// As [`IndexedTables::open`], plus [`StoreError::StaleIndexRoot`]
    /// when the anchored tip is not `expected_tip`.
    pub fn open_at(
        dir: impl AsRef<Path>,
        cache_bytes: usize,
        segment_target_bytes: u64,
        expected_tip: u64,
    ) -> Result<Self, StoreError> {
        Self::open_at_with_fs(
            dir,
            cache_bytes,
            segment_target_bytes,
            expected_tip,
            Arc::new(RealFs),
        )
    }

    /// [`IndexedTables::open_at`] with an explicit [`StoreFs`].
    ///
    /// # Errors
    ///
    /// As [`IndexedTables::open_at`].
    pub fn open_at_with_fs(
        dir: impl AsRef<Path>,
        cache_bytes: usize,
        segment_target_bytes: u64,
        expected_tip: u64,
        fs_impl: Arc<dyn StoreFs>,
    ) -> Result<Self, StoreError> {
        let tables = Self::open_with_fs(dir, cache_bytes, segment_target_bytes, fs_impl)?;
        let root_tip = tables.tip();
        if root_tip != expected_tip {
            return Err(StoreError::StaleIndexRoot {
                root_tip,
                store_tip: expected_tip,
            });
        }
        Ok(tables)
    }

    /// The tip height the index is consistent with.
    pub fn tip(&self) -> u64 {
        self.inner.read().tip
    }

    /// The authenticated root hash over the entire index
    /// ([`Hash256::ZERO`] when empty), hashing first whatever was pushed
    /// since the last sync (no I/O).
    ///
    /// # Errors
    ///
    /// [`StoreError::Chain`] if an earlier failed push left the write
    /// set unusable.
    pub fn root_hash(&self) -> Result<Hash256, StoreError> {
        let mut inner = self.inner.write();
        self.commit(&mut inner)?;
        Ok(inner.tree.root_hash())
    }

    /// Total bytes across the node-log segment files.
    pub fn data_bytes(&self) -> u64 {
        self.log.data_bytes()
    }

    /// Restores all block headers `1..=tip` by point reads.
    ///
    /// # Errors
    ///
    /// [`StoreError::Chain`] if a header is missing, fails
    /// verification, or does not decode.
    pub fn restore_headers(&self) -> Result<Vec<BlockHeader>, StoreError> {
        let inner = self.inner.read();
        let reader = self.reader(&inner);
        let mut headers = Vec::with_capacity(inner.tip as usize);
        // One in-order prefix scan: header keys sort by height, so the
        // walk yields 1..=tip directly and verifies each node once —
        // instead of `tip` separate root-to-leaf point reads.
        inner
            .tree
            .scan_prefix(&reader, &[KEY_HEADER], &mut |node| {
                if node.key.len() != 9 {
                    return Err(AvlError::CorruptNode {
                        detail: "header entry key is malformed",
                    });
                }
                let height = u64::from_be_bytes(node.key[1..9].try_into().expect("8 bytes"));
                if height != headers.len() as u64 + 1 || height > inner.tip {
                    return Err(AvlError::CorruptNode {
                        detail: "index header heights are not contiguous",
                    });
                }
                let header = lvq_codec::decode_exact::<BlockHeader>(&node.value)
                    .map_err(decode_error("stored header does not decode"))?;
                headers.push(header);
                Ok(())
            })
            .map_err(avl_store_error)?;
        if headers.len() as u64 != inner.tip {
            return Err(avl_store_error(AvlError::CorruptNode {
                detail: "index is missing a header below its anchored tip",
            }));
        }
        Ok(headers)
    }

    /// Restores the finalised BMT span hashes by one prefix scan.
    ///
    /// # Errors
    ///
    /// [`StoreError::Chain`] on verification or decode failure.
    pub fn restore_span_hashes(&self) -> Result<HashMap<(u64, u64), Hash256>, StoreError> {
        let inner = self.inner.read();
        let reader = self.reader(&inner);
        let mut spans = HashMap::new();
        inner
            .tree
            .scan_prefix(&reader, &[KEY_SPAN], &mut |node| {
                if node.key.len() != 17 {
                    return Err(AvlError::CorruptNode {
                        detail: "span entry key is malformed",
                    });
                }
                let lo = u64::from_be_bytes(node.key[1..9].try_into().expect("8 bytes"));
                let hi = u64::from_be_bytes(node.key[9..17].try_into().expect("8 bytes"));
                let hash = lvq_codec::decode_exact::<Hash256>(&node.value)
                    .map_err(decode_error("span entry value is malformed"))?;
                spans.insert((lo, hi), hash);
                Ok(())
            })
            .map_err(avl_store_error)?;
        Ok(spans)
    }

    /// Verifies the *entire* index — every node's hash, height, BST
    /// order, and AVL balance — and returns the entry count. This is
    /// the full-paranoia reopen path; normal reads already verify the
    /// nodes they touch.
    ///
    /// # Errors
    ///
    /// [`StoreError::Chain`] at the first violation.
    pub fn verify_all(&self) -> Result<u64, StoreError> {
        let inner = self.inner.read();
        let reader = self.reader(&inner);
        inner.tree.verify_walk(&reader).map_err(avl_store_error)
    }

    /// Builds an authenticated membership proof for the table entry at
    /// `height`, returning the proof and the root hash it verifies
    /// under — internal integrity evidence assembled from O(log n)
    /// point reads.
    ///
    /// # Errors
    ///
    /// [`StoreError::Chain`] if the height has no table entry or a node
    /// on the path fails verification.
    pub fn prove_table(&self, height: u64) -> Result<(AvlProof, Hash256), StoreError> {
        let mut inner = self.inner.write();
        self.commit(&mut inner)?;
        let reader = self.reader(&inner);
        let proof = inner
            .tree
            .prove(&reader, &table_key(height))
            .map_err(avl_store_error)?;
        Ok((proof, inner.tree.root_hash()))
    }

    fn reader<'a>(&'a self, inner: &'a IndexInner) -> NodeReader<'a> {
        NodeReader {
            log: &self.log,
            cache: &self.cache,
            dirty: &inner.dirty,
        }
    }

    /// Hashes every node rewritten since the last commit, in memory.
    fn commit(&self, inner: &mut IndexInner) -> Result<(), StoreError> {
        inner.dirty.usable().map_err(avl_store_error)?;
        let mut editor = NodeEditor {
            log: &self.log,
            cache: &self.cache,
            dirty: &mut inner.dirty,
        };
        inner.tree.commit(&mut editor).map_err(avl_store_error)?;
        Ok(())
    }

    /// Applies one batch of tree edits to the write set. A batch that
    /// fails half-way leaves the set unusable ([`WriteSet::broken`]).
    fn edit(
        &mut self,
        edits: impl FnOnce(&mut AvlTree, &mut NodeEditor<'_>) -> Result<(), AvlError>,
    ) -> Result<(), ChainError> {
        let inner = self.inner.get_mut();
        let mut editor = NodeEditor {
            log: &self.log,
            cache: &self.cache,
            dirty: &mut inner.dirty,
        };
        let result = edits(&mut inner.tree, &mut editor);
        inner.dirty.broken |= result.is_err();
        result.map_err(avl_chain_error)
    }

    /// Hashes the write set, appends it to the log children-first in
    /// one buffered batch, fsyncs the log, and re-anchors the root
    /// record at the current tip. Only then does memory change hands.
    fn flush(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.write();
        let inner = &mut *inner;
        if inner.dirty.nodes.is_empty() && inner.anchored_tip == inner.tip {
            return Ok(());
        }
        self.commit(inner)?;
        let mut batch = LogBatch {
            log: &self.log,
            writer: self.log.writer.lock(),
            buf: Vec::new(),
        };
        let mut written = Vec::with_capacity(inner.dirty.nodes.len());
        let root_addr = match inner.tree.root() {
            None => None,
            Some(link) => Some(write_subtree(link, &inner.dirty, &mut batch, &mut written)?),
        };
        // Log first, root second: the renamed-in root record must only
        // ever reference nodes that are already durable.
        batch.finish()?;
        write_root(
            &self.dir,
            inner.tip,
            inner.tree.root(),
            root_addr,
            &*self.fs,
        )?;
        inner.anchored_tip = inner.tip;
        inner.tree = AvlTree::from_root(inner.tree.root().map(|link| AvlLink {
            addr: root_addr,
            ..link.clone()
        }));
        // The write set lets go of its nodes first, so handing each its
        // children's locations below copies nothing.
        inner.dirty = WriteSet::default();
        let mut cache = self.cache.lock();
        for (addr, mut node, left, right) in written {
            let relinked = Arc::make_mut(&mut node);
            for (link, child) in [(&mut relinked.left, left), (&mut relinked.right, right)] {
                if let Some(link) = link {
                    link.addr = child;
                }
            }
            cache.put(addr, node, addr.len as usize + 96);
        }
        Ok(())
    }
}

/// A node framed by [`write_subtree`]: where its record goes, the
/// write set's node (shared, not copied), and its children's locations.
type Written = (NodeAddr, Arc<AvlNode>, Option<NodeAddr>, Option<NodeAddr>);

/// Frames the unwritten nodes of the subtree under `link` into
/// `batch`, children before parents, and returns the subtree root's
/// location. A link that carries a location is a clean subtree: its
/// record is already in the log and nothing below it can be unwritten.
fn write_subtree(
    link: &AvlLink,
    dirty: &WriteSet,
    batch: &mut LogBatch<'_>,
    written: &mut Vec<Written>,
) -> Result<NodeAddr, StoreError> {
    if let Some(addr) = link.addr {
        return Ok(addr);
    }
    let node = match dirty.nodes.get(&link.key) {
        Some(node) if link.hash.is_some() && node.node_hash() == link.hash => node,
        _ => {
            return Err(avl_store_error(AvlError::CorruptNode {
                detail: "write set does not hold the node its link committed to",
            }))
        }
    };
    let mut child = |link: &Option<AvlLink>| {
        link.as_ref()
            .map(|l| write_subtree(l, dirty, batch, written))
            .transpose()
    };
    let (left, right) = (child(&node.left)?, child(&node.right)?);
    let addr = batch.push(node, left, right)?;
    written.push((addr, Arc::clone(node), left, right));
    Ok(addr)
}

/// Atomically rewrites `root.idx`:
/// `magic | version | tip | root link | root loc | crc32`.
fn write_root(
    dir: &Path,
    tip: u64,
    link: Option<&AvlLink>,
    loc: Option<NodeAddr>,
    fs_impl: &dyn StoreFs,
) -> Result<(), StoreError> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&ROOT_MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&tip.to_le_bytes());
    link.cloned().encode_into(&mut bytes);
    loc.map(LocCodec).encode_into(&mut bytes);
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());

    let tmp = dir.join(ROOT_TMP_FILE);
    let file = File::create(&tmp)?;
    fs_impl.write_all(&file, &bytes)?;
    fs_impl.sync(&file)?;
    fs_impl.rename(&tmp, &dir.join(ROOT_FILE))?;
    // A rename alone is not power-loss durable until the directory
    // entry itself is on disk.
    fs_impl.sync_dir(dir)?;
    Ok(())
}

/// Reads and validates `root.idx` back: the anchored tip and the root
/// link, carrying the root node's location.
fn read_root(path: &Path) -> Result<(u64, Option<AvlLink>), StoreError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 20 {
        return Err(StoreError::CorruptIndexRoot {
            detail: "truncated",
        });
    }
    if bytes[..4] != ROOT_MAGIC {
        return Err(StoreError::CorruptIndexRoot {
            detail: "bad magic",
        });
    }
    if u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) != VERSION {
        return Err(StoreError::CorruptIndexRoot {
            detail: "unsupported version",
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
        return Err(StoreError::CorruptIndexRoot {
            detail: "crc mismatch",
        });
    }
    let tip = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let mut reader = Reader::new(&bytes[16..body_len]);
    let parsed: Result<_, DecodeError> = (|| {
        let link = Option::<AvlLink>::decode_from(&mut reader)?;
        let loc = Option::<LocCodec>::decode_from(&mut reader)?.map(|l| l.0);
        reader.finish()?;
        Ok((link, loc))
    })();
    let Ok((link, loc)) = parsed else {
        return Err(StoreError::CorruptIndexRoot {
            detail: "does not decode",
        });
    };
    if link.is_some() != loc.is_some() {
        return Err(StoreError::CorruptIndexRoot {
            detail: "root link and root location disagree",
        });
    }
    if tip > 0 && link.is_none() {
        return Err(StoreError::CorruptIndexRoot {
            detail: "anchored tip without a root node",
        });
    }
    Ok((tip, link.map(|link| AvlLink { addr: loc, ..link })))
}

fn encode_table(table: &[(Address, u64)]) -> Vec<u8> {
    let mut out = Vec::new();
    lvq_codec::write_compact_size(&mut out, table.len() as u64);
    for entry in table {
        entry.encode_into(&mut out);
    }
    out
}

impl TableSource for IndexedTables {
    fn len(&self) -> u64 {
        self.inner.read().tip
    }

    fn table(&self, height: u64) -> Result<Arc<Vec<(Address, u64)>>, ChainError> {
        let inner = self.inner.read();
        if height == 0 || height > inner.tip {
            return Err(ChainError::UnknownHeight { height });
        }
        let reader = self.reader(&inner);
        let node = inner
            .tree
            .get(&reader, &table_key(height))
            .map_err(avl_chain_error)?
            .ok_or_else(|| ChainError::Source {
                detail: format!("address index has no table for height {height}"),
            })?;
        let table = lvq_codec::decode_exact::<Vec<(Address, u64)>>(&node.value).map_err(|_| {
            ChainError::Source {
                detail: format!("address index table for height {height} does not decode"),
            }
        })?;
        Ok(Arc::new(table))
    }

    fn push(&mut self, update: TableUpdate<'_>) -> Result<(), ChainError> {
        debug_assert_eq!(update.height, self.inner.get_mut().tip + 1);
        // Canonical per-block order: header, table, spans, addresses —
        // replaying the same blocks therefore grows the identical tree,
        // which is what makes rebuild == incremental testable.
        self.edit(|tree, editor| {
            tree.insert(editor, &header_key(update.height), &update.header.encode())?;
            tree.insert(
                editor,
                &table_key(update.height),
                &encode_table(&update.table),
            )?;
            for span in update.new_spans {
                tree.insert(editor, &span_key(span.lo, span.hi), &span.hash.encode())?;
            }
            for (address, count) in update.table.iter() {
                tree.insert(editor, &addr_key(address, update.height), &count.encode())?;
            }
            Ok(())
        })?;
        self.inner.get_mut().tip += 1;
        Ok(())
    }

    fn truncate(&mut self, height: u64) -> Result<(), ChainError> {
        let tip = self.inner.read().tip;
        if height > tip {
            return Err(ChainError::UnknownHeight { height });
        }
        if height == tip {
            return Ok(());
        }
        // Collect every doomed key first, while the entries are still
        // readable: each rewound height's address entries (named by its
        // stored table), its table and header entries, and every span
        // reaching above the fork point. Genuine deletion — not tip
        // masking — because `restore_headers` treats any entry above
        // the anchored tip as corruption at the next reopen.
        let mut doomed: Vec<Vec<u8>> = Vec::new();
        for h in height + 1..=tip {
            let table = self.table(h)?;
            for (address, _) in table.iter() {
                doomed.push(addr_key(address, h));
            }
            doomed.push(table_key(h));
            doomed.push(header_key(h));
        }
        {
            let inner = self.inner.read();
            let reader = self.reader(&inner);
            inner
                .tree
                .scan_prefix(&reader, &[KEY_SPAN], &mut |node| {
                    if node.key.len() != 17 {
                        return Err(AvlError::CorruptNode {
                            detail: "span entry key is malformed",
                        });
                    }
                    let hi = u64::from_be_bytes(node.key[9..17].try_into().expect("8 bytes"));
                    if hi > height {
                        doomed.push(node.key.clone());
                    }
                    Ok(())
                })
                .map_err(avl_chain_error)?;
        }
        self.edit(|tree, editor| {
            doomed
                .iter()
                .try_for_each(|key| tree.remove(editor, key).map(drop))
        })?;
        self.inner.get_mut().tip = height;
        Ok(())
    }

    fn presence(&self, address: &Address) -> Result<Option<Vec<(u64, u64)>>, ChainError> {
        let inner = self.inner.read();
        let tip = inner.tip;
        let reader = self.reader(&inner);
        let prefix = addr_prefix(address);
        let mut out = Vec::new();
        inner
            .tree
            .scan_prefix(&reader, &prefix, &mut |node| {
                if node.key.len() != prefix.len() + 8 {
                    return Err(AvlError::CorruptNode {
                        detail: "presence entry key is malformed",
                    });
                }
                let height =
                    u64::from_be_bytes(node.key[prefix.len()..].try_into().expect("8 bytes"));
                let count = lvq_codec::decode_exact::<u64>(&node.value)
                    .map_err(decode_error("presence entry value is malformed"))?;
                // Tip-pinned: ignore entries above the served tip (a
                // failed half-applied push can leave orphans there
                // until the next successful extension overwrites them).
                if height >= 1 && height <= tip {
                    out.push((height, count));
                }
                Ok(())
            })
            .map_err(avl_chain_error)?;
        Ok(Some(out))
    }

    fn sync(&self, tip_height: u64) -> Result<(), ChainError> {
        let tip = self.inner.read().tip;
        if tip_height != tip {
            return Err(ChainError::Source {
                detail: format!("address index at height {tip} cannot anchor at {tip_height}"),
            });
        }
        self.flush().map_err(|e| ChainError::Source {
            detail: e.to_string(),
        })
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.lock().stats()
    }

    fn clear_cache(&self) {
        self.cache.lock().clear();
    }

    fn set_cache_budget(&self, budget_bytes: usize) {
        self.cache.lock().set_budget(budget_bytes);
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.read().dirty.bytes + self.cache.lock().stats().used_bytes
    }
}

impl Drop for IndexedTables {
    fn drop(&mut self) {
        // Best effort: anchor whatever was pushed so the next open
        // starts from the tip instead of catching up.
        let _ = self.flush();
    }
}
