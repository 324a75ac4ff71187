//! Store durability: round-trip identity under random shapes, torn-tail
//! recovery, and loud CRC failures for real corruption.

use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use lvq_bloom::BloomParams;
use lvq_chain::{
    Address, Block, BlockSource, Chain, ChainBuilder, ChainParams, CommitmentPolicy, Transaction,
};
use lvq_store::{ingest_chain, open_chain, BlockStore, DiskBlockSource, StoreConfig, StoreError};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("lvq-store-test-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn params() -> ChainParams {
    ChainParams::new(
        BloomParams::new(256, 2).unwrap(),
        8,
        CommitmentPolicy::lvq(),
    )
    .unwrap()
}

fn build_chain(blocks: u64, seed: u64) -> Chain {
    let mut builder = ChainBuilder::new(params()).unwrap();
    for h in 1..=blocks {
        let mut txs = vec![Transaction::coinbase(Address::new("1Miner"), 50, h as u32)];
        // Vary block sizes so records have different lengths.
        for t in 0..(seed + h) % 4 {
            txs.push(Transaction::coinbase(
                Address::new(format!("1Addr{seed}x{h}x{t}").as_str()),
                1,
                (h * 100 + t) as u32,
            ));
        }
        builder.push_block(txs).unwrap();
    }
    builder.finish()
}

fn small_segments(segment_target_bytes: u64) -> StoreConfig {
    StoreConfig {
        segment_target_bytes,
        ..StoreConfig::default()
    }
}

/// Path of the highest-numbered segment file.
fn last_segment_path(dir: &Path) -> PathBuf {
    let mut seg = 0u32;
    while dir.join(format!("segment-{:04}.blk", seg + 1)).exists() {
        seg += 1;
    }
    dir.join(format!("segment-{seg:04}.blk"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Append → reopen → read-back returns bit-identical blocks for
    /// random chain lengths and segment sizes (forcing 1..many
    /// segments), with a clean recovery report.
    #[test]
    fn roundtrip_identity(
        blocks in 1u64..24,
        seed in 0u64..1000,
        segment_target in prop_oneof![Just(1u64), Just(256), Just(1024), Just(64 * 1024)],
    ) {
        let chain = build_chain(blocks, seed);
        let scratch = ScratchDir::new("roundtrip");
        let config = small_segments(segment_target);
        {
            let store = ingest_chain(&chain, scratch.path(), config).unwrap();
            prop_assert_eq!(store.len(), blocks);
        }
        let (store, report) = BlockStore::open(scratch.path(), config).unwrap();
        prop_assert!(report.is_clean(), "unexpected recovery: {report:?}");
        prop_assert_eq!(store.len(), blocks);
        for h in 1..=blocks {
            let stored = store.read_block(h).unwrap();
            let original: &Block = &chain.block(h).unwrap();
            prop_assert_eq!(&stored, original, "height {}", h);
        }
        prop_assert_eq!(store.verify_all().unwrap(), blocks);
    }
}

#[test]
fn torn_tail_recovers_to_last_complete_record() {
    let chain = build_chain(6, 7);
    let scratch = ScratchDir::new("torn");
    let config = small_segments(64 * 1024); // everything in one segment
    drop(ingest_chain(&chain, scratch.path(), config).unwrap());

    let seg = last_segment_path(scratch.path());
    let clean_len = fs::metadata(&seg).unwrap().len();

    // Simulate a crash mid-append: a partial record at the tail (a
    // plausible length field, then garbage cut short).
    let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
    use std::io::Write;
    f.write_all(&500u32.to_le_bytes()).unwrap();
    f.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
    f.write_all(&[0xAB; 37]).unwrap(); // 37 of the 500 payload bytes
    drop(f);
    // The stale index must not mask the torn tail.
    fs::remove_file(scratch.path().join("index.idx")).unwrap();

    let (store, report) = BlockStore::open(scratch.path(), config).unwrap();
    assert!(report.rebuilt_index);
    assert_eq!(report.truncated_tail_bytes, 8 + 37);
    assert_eq!(store.len(), 6, "all complete records survive");
    assert_eq!(store.verify_all().unwrap(), 6);
    for h in 1..=6 {
        assert_eq!(&store.read_block(h).unwrap(), &*chain.block(h).unwrap());
    }
    drop(store);
    // The truncation is durable: a second open is clean.
    let (_, report) = BlockStore::open(scratch.path(), config).unwrap();
    assert!(report.is_clean(), "second open after recovery: {report:?}");
    assert_eq!(fs::metadata(&seg).unwrap().len(), clean_len);
}

#[test]
fn torn_header_recovers_too() {
    let chain = build_chain(4, 3);
    let scratch = ScratchDir::new("torn-header");
    let config = small_segments(64 * 1024);
    drop(ingest_chain(&chain, scratch.path(), config).unwrap());

    let seg = last_segment_path(scratch.path());
    let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
    use std::io::Write;
    f.write_all(&[0x01, 0x02, 0x03]).unwrap(); // 3 of the 8 header bytes
    drop(f);
    fs::remove_file(scratch.path().join("index.idx")).unwrap();

    let (store, report) = BlockStore::open(scratch.path(), config).unwrap();
    assert_eq!(report.truncated_tail_bytes, 3);
    assert_eq!(store.len(), 4);
}

#[test]
fn torn_tail_on_exact_record_boundary_reports_clean_end() {
    // A torn append whose bytes never reached the disk at all leaves
    // the segment ending exactly on a record boundary. That is a clean
    // end: the report must show zero truncated bytes even though the
    // over-long stale index forces a rebuild.
    let chain = build_chain(6, 17);
    let scratch = ScratchDir::new("boundary");
    let config = small_segments(64 * 1024);
    drop(ingest_chain(&chain, scratch.path(), config).unwrap());

    // Cut the file back to the end of record 4 — exactly a boundary.
    let seg = last_segment_path(scratch.path());
    let full = fs::read(&seg).unwrap();
    let mut offset = 12u64; // segment header
    for _ in 0..4 {
        let at = offset as usize;
        let len = u32::from_le_bytes(full[at..at + 4].try_into().unwrap());
        offset += 8 + len as u64;
    }
    OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(offset)
        .unwrap();

    let (store, report) = BlockStore::open(scratch.path(), config).unwrap();
    assert_eq!(
        report.truncated_tail_bytes, 0,
        "a record-boundary end is clean, nothing was torn: {report:?}"
    );
    assert!(!report.repaired_segment_header);
    assert!(
        report.rebuilt_index,
        "the stale index covers records past end-of-file"
    );
    assert_eq!(store.len(), 4);
    assert_eq!(store.verify_all().unwrap(), 4);
}

#[test]
fn torn_segment_header_at_rollover_reports_torn_tail_not_rebuilt_index() {
    // A crash between creating `segment-0001.blk` at rotation and
    // writing its 12-byte header leaves a short file. That is a torn
    // tail of the store — the index, which never covered the unborn
    // segment, is NOT rebuilt.
    let chain = build_chain(5, 23);
    let scratch = ScratchDir::new("rollover-torn");
    let config = small_segments(64 * 1024);
    drop(ingest_chain(&chain, scratch.path(), config).unwrap());

    fs::write(scratch.path().join("segment-0001.blk"), [0xAB; 5]).unwrap();

    let (store, report) = BlockStore::open(scratch.path(), config).unwrap();
    assert!(report.repaired_segment_header);
    assert_eq!(report.truncated_tail_bytes, 5);
    assert!(!report.rebuilt_index, "the index is still a valid prefix");
    assert!(!report.is_clean());
    assert_eq!(store.len(), 5);

    // The repaired segment is a first-class tail: appends land in it.
    assert_eq!(store.append(&chain.block(1).unwrap()).unwrap(), 6);
    assert_eq!(store.verify_all().unwrap(), 6);
    drop(store);
    let (_, report) = BlockStore::open(scratch.path(), config).unwrap();
    assert!(report.is_clean(), "repair is durable: {report:?}");
}

#[test]
fn empty_segment_file_at_rollover_is_repaired_and_reported() {
    // Same crash, even earlier: the file exists but holds zero bytes.
    // Nothing was truncated, but the open must still say it repaired
    // the header rather than claiming a perfectly clean end.
    let chain = build_chain(4, 29);
    let scratch = ScratchDir::new("rollover-empty");
    let config = small_segments(64 * 1024);
    drop(ingest_chain(&chain, scratch.path(), config).unwrap());

    fs::write(scratch.path().join("segment-0001.blk"), []).unwrap();

    let (store, report) = BlockStore::open(scratch.path(), config).unwrap();
    assert!(report.repaired_segment_header);
    assert_eq!(report.truncated_tail_bytes, 0);
    assert!(!report.rebuilt_index);
    assert!(!report.is_clean());
    assert_eq!(store.len(), 4);
    assert_eq!(store.verify_all().unwrap(), 4);
}

#[test]
fn stale_index_readopts_tail_records() {
    let chain = build_chain(8, 11);
    let scratch = ScratchDir::new("stale-index");
    let config = small_segments(64 * 1024);

    let store = BlockStore::create(scratch.path(), chain.params(), config).unwrap();
    for h in 1..=5u64 {
        store.append(&chain.block(h).unwrap()).unwrap();
    }
    store.sync().unwrap();
    // Keep the 5-record index, then append 3 more and "crash" (drop
    // also syncs, so restore the stale index afterwards to simulate
    // the index write never happening).
    let index_path = scratch.path().join("index.idx");
    let stale = fs::read(&index_path).unwrap();
    for h in 6..=8u64 {
        store.append(&chain.block(h).unwrap()).unwrap();
    }
    drop(store);
    fs::write(&index_path, &stale).unwrap();

    let (store, report) = BlockStore::open(scratch.path(), config).unwrap();
    assert!(!report.rebuilt_index, "stale index is still a valid prefix");
    assert_eq!(report.recovered_records, 3);
    assert_eq!(report.truncated_tail_bytes, 0);
    assert_eq!(store.len(), 8);
    for h in 1..=8 {
        assert_eq!(&store.read_block(h).unwrap(), &*chain.block(h).unwrap());
    }
}

#[test]
fn bit_flip_fails_crc_loudly() {
    let chain = build_chain(6, 5);
    let scratch = ScratchDir::new("bitflip");
    let config = small_segments(64 * 1024);
    drop(ingest_chain(&chain, scratch.path(), config).unwrap());

    // Flip one bit in the middle of the file — inside some record's
    // payload, far from the tail.
    let seg = last_segment_path(scratch.path());
    let mut bytes = fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(&seg, &bytes).unwrap();

    // Reads through the (still valid) index hit the CRC.
    let (store, _) = BlockStore::open(scratch.path(), config).unwrap();
    let failures: Vec<u64> = (1..=6).filter(|&h| store.read_block(h).is_err()).collect();
    assert!(
        !failures.is_empty(),
        "some record must fail its CRC after the flip"
    );
    assert!(matches!(
        store.verify_all().unwrap_err(),
        StoreError::CorruptRecord { .. }
    ));
    drop(store);

    // Without the index, the rebuild scan refuses outright: the bad
    // record is not at the tail, so it is corruption, not a torn write.
    fs::remove_file(scratch.path().join("index.idx")).unwrap();
    match BlockStore::open(scratch.path(), config) {
        Err(StoreError::CorruptRecord { .. }) => {}
        other => panic!("expected CorruptRecord, got {other:?}"),
    }
}

#[test]
fn flipped_final_record_is_treated_as_torn_write() {
    // WAL semantics: a checksum failure exactly at end-of-file is
    // indistinguishable from a torn append and rolls back one record.
    let chain = build_chain(5, 9);
    let scratch = ScratchDir::new("tail-flip");
    let config = small_segments(64 * 1024);
    drop(ingest_chain(&chain, scratch.path(), config).unwrap());

    let seg = last_segment_path(scratch.path());
    let mut bytes = fs::read(&seg).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    fs::write(&seg, &bytes).unwrap();
    fs::remove_file(scratch.path().join("index.idx")).unwrap();

    let (store, report) = BlockStore::open(scratch.path(), config).unwrap();
    assert_eq!(store.len(), 4, "final record rolled back");
    assert!(report.truncated_tail_bytes > 0);
    assert_eq!(store.verify_all().unwrap(), 4);
}

#[test]
fn open_chain_serves_identical_chain_state() {
    let chain = build_chain(16, 21);
    let scratch = ScratchDir::new("open-chain");
    let config = small_segments(2048); // force several segments
    let store = ingest_chain(&chain, scratch.path(), config).unwrap();
    assert!(store.segment_count() > 1, "expected rotation");
    drop(store);

    let (served, report) = open_chain(scratch.path(), config).unwrap();
    assert!(report.is_clean());
    assert_eq!(served.tip_height(), chain.tip_height());
    assert_eq!(served.headers(), chain.headers());
    for h in 1..=chain.tip_height() {
        assert_eq!(
            served.addr_counts(h).unwrap(),
            chain.addr_counts(h).unwrap()
        );
        assert_eq!(&*served.block(h).unwrap(), &*chain.block(h).unwrap());
        assert_eq!(
            served.leaf_filter(h).unwrap(),
            chain.leaf_filter(h).unwrap()
        );
    }
    let busy = Address::new("1Miner");
    assert_eq!(served.history_of(&busy), chain.history_of(&busy));
    // The disk-served chain withstands full validation.
    served.validate().unwrap();
}

#[test]
fn lru_cache_serves_repeats_and_reports_stats() {
    let chain = build_chain(10, 2);
    let scratch = ScratchDir::new("cache");
    drop(ingest_chain(&chain, scratch.path(), StoreConfig::default()).unwrap());

    let (store, _) = BlockStore::open(scratch.path(), StoreConfig::default()).unwrap();
    let source = DiskBlockSource::new(std::sync::Arc::new(store));
    assert_eq!(source.cache_stats().hits, 0);
    source.block(3).unwrap();
    source.block(3).unwrap();
    source.block(3).unwrap();
    let stats = source.cache_stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 1);
    assert!(source.resident_bytes() > 0);
}

#[test]
fn full_scans_leave_the_block_cache_to_the_blocks_served() {
    let chain = build_chain(16, 8);
    let scratch = ScratchDir::new("scan-bypass");
    drop(ingest_chain(&chain, scratch.path(), StoreConfig::default()).unwrap());

    // Opening assembles the chain from one full scan, and validation
    // scans again; neither may fill the LRU, although the whole chain
    // fits its default budget many times over.
    let (served, _) = open_chain(scratch.path(), StoreConfig::default()).unwrap();
    assert_eq!(served.source().resident_bytes(), 0, "open filled the cache");
    served.validate().unwrap();
    assert_eq!(served.source().resident_bytes(), 0, "scan filled the cache");

    // Only the blocks a caller asks for stay resident.
    let touched = [2u64, 5, 9];
    for &h in &touched {
        assert_eq!(&*served.block(h).unwrap(), &*chain.block(h).unwrap());
    }
    let expected: u64 = touched
        .iter()
        .map(|&h| chain.block(h).unwrap().integral_size() as u64)
        .sum();
    assert_eq!(served.source().resident_bytes(), expected);
}

#[test]
fn appending_after_reopen_continues_heights() {
    let chain = build_chain(9, 13);
    let scratch = ScratchDir::new("reopen-append");
    let config = small_segments(1024);

    let store = BlockStore::create(scratch.path(), chain.params(), config).unwrap();
    for h in 1..=4u64 {
        store.append(&chain.block(h).unwrap()).unwrap();
    }
    drop(store);

    let (store, _) = BlockStore::open(scratch.path(), config).unwrap();
    for h in 5..=9u64 {
        assert_eq!(store.append(&chain.block(h).unwrap()).unwrap(), h);
    }
    assert_eq!(store.verify_all().unwrap(), 9);
    for h in 1..=9 {
        assert_eq!(&store.read_block(h).unwrap(), &*chain.block(h).unwrap());
    }
}
