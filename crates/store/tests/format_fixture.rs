//! The on-disk format of the address index, pinned by a committed
//! store.
//!
//! `fixtures/v1-6-blocks/` was written by the commit *before* index
//! hashing moved to `sync` and the node log got its buffered append
//! (`ingest_chain` of [`build_chain`]`(6)` under [`config`], then one
//! `open_chain_indexed`, which builds and anchors the index in one
//! sync; 2 KiB segments, so the node log rotates twice). Whatever the
//! write path does in memory, it has to keep reading those bytes and
//! keep producing them: same records, same order, same offsets, same
//! rotation points, same `root.idx`.

use std::fs;
use std::path::{Path, PathBuf};

use lvq_bloom::BloomParams;
use lvq_chain::{Address, Chain, ChainBuilder, ChainParams, CommitmentPolicy, Transaction};
use lvq_store::{ingest_chain, open_chain_indexed, AddrIndexRecovery, BlockStore, StoreConfig};

/// `root_hash()` of the fixture's index at height 6.
const GOLDEN_ROOT: &str = "530d7fe6e41078700f3fc37b27b93d9f0824f5fa0ea2a1f500608f19cfda0957";
/// Entries in the fixture's index at height 6.
const GOLDEN_ENTRIES: u64 = 43;

/// Small segments: the 6-block node log already spans three files.
fn config() -> StoreConfig {
    StoreConfig {
        segment_target_bytes: 2048,
        ..StoreConfig::default()
    }
}

/// The index files of the store in `dir`, by name.
fn index_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = fs::read_dir(dir.join("addr-index"))
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, fs::read(entry.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("lvq-format-fixture-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn build_chain(blocks: u64) -> Chain {
    let params = ChainParams::new(
        BloomParams::new(256, 2).unwrap(),
        8,
        CommitmentPolicy::lvq(),
    )
    .unwrap();
    let mut builder = ChainBuilder::new(params).unwrap();
    for h in 1..=blocks {
        let mut txs = vec![Transaction::coinbase(Address::new("1Miner"), 50, h as u32)];
        for t in 0..=h % 4 {
            txs.push(Transaction::coinbase(
                Address::new(format!("1Fixture{h}x{t}").as_str()),
                1,
                (h * 100 + t) as u32,
            ));
        }
        builder.push_block(txs).unwrap();
    }
    builder.finish()
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            fs::copy(entry.path(), &target).unwrap();
        }
    }
}

/// Appends blocks 7 and 8 behind the index's back and reopens: the
/// catch-up absorbs them and anchors once, at 8.
fn extend_to_eight(dir: &Path, chain: &Chain) {
    let config = config();
    let (store, _) = BlockStore::open(dir, config).unwrap();
    for h in 7..=8 {
        store.append(&chain.block(h).unwrap()).unwrap();
    }
    store.sync().unwrap();
    drop(store);
    let (served, report) = open_chain_indexed(dir, config).unwrap();
    assert_eq!(
        report.addr_index,
        AddrIndexRecovery::CaughtUp { from: 6, to: 8 }
    );
    assert_eq!(served.tip_height(), 8);
}

#[test]
fn committed_v1_store_opens_intact_and_grows_byte_identically() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-6-blocks");
    let config = config();
    let chain = build_chain(8);

    // The committed store reads back whole under today's code.
    let old = ScratchDir::new("old");
    copy_dir(&fixture, &old.0);
    {
        let (served, report) = open_chain_indexed(&old.0, config).unwrap();
        assert_eq!(report.addr_index, AddrIndexRecovery::Intact);
        assert!(report.is_clean(), "unexpected recovery: {report:?}");
        assert_eq!(served.tables().verify_all().unwrap(), GOLDEN_ENTRIES);
        assert_eq!(
            served.tables().root_hash().unwrap().to_string(),
            GOLDEN_ROOT
        );
        assert_eq!(served.headers(), chain.headers()[..6]);
    }
    extend_to_eight(&old.0, &chain);

    // The same eight blocks written from nothing by today's code, with
    // the same two anchors (after 6, after 8).
    let new = ScratchDir::new("new");
    let six = build_chain(6);
    drop(ingest_chain(&six, &new.0, config).unwrap());
    drop(open_chain_indexed(&new.0, config).unwrap());
    let committed = index_files(&fixture);
    assert_eq!(committed.len(), 4, "three node segments and the root");
    assert!(
        index_files(&new.0) == committed,
        "the index written today differs from the committed one"
    );
    extend_to_eight(&new.0, &chain);

    let extended = index_files(&old.0);
    assert!(extended.len() > committed.len(), "the extension rotated");
    assert!(
        index_files(&new.0) == extended,
        "the extended fixture and a fresh build diverge"
    );
}
