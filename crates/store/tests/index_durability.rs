//! Durability and equivalence of the persistent address index.
//!
//! The contract under test: query traffic served through the index is
//! *byte-identical* to the rebuild path, and no damage to the index —
//! torn node-log tail, flipped bit, stale or corrupt root record — ever
//! produces a wrong answer. Damage is detected and answered with a loud
//! rebuild.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use lvq_bloom::BloomParams;
use lvq_chain::{
    Address, BlockSource, Chain, ChainBuilder, ChainParams, CommitmentPolicy, TableSource,
    TableUpdate, Transaction,
};
use lvq_codec::Encodable;
use lvq_core::{LightClient, Prover};
use lvq_crypto::Hash256;
use lvq_merkle::avl::AvlProof;
use lvq_store::{
    crc32, ingest_chain, open_chain_indexed, open_chain_indexed_verified,
    open_chain_indexed_with_fs, AddrIndexRecovery, BlockStore, CrashFs, CrashMode, CrashSchedule,
    IndexedChain, IndexedTables, RealFs, StoreConfig, StoreFs,
};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("lvq-index-test-{tag}-{}-{n}", std::process::id()));
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

/// Probe set: the ubiquitous miner, a handful of one-shot addresses
/// that exist at known heights, and two that exist nowhere.
fn probes(blocks: u64, seed: u64) -> Vec<Address> {
    let mut out = vec![Address::new("1Miner")];
    for h in [1, blocks / 2 + 1, blocks] {
        out.push(Address::new(format!("1Addr{seed}x{h}x0").as_str()));
    }
    out.push(Address::new("1Nobody"));
    out.push(Address::new(format!("1Addr{seed}x0x9").as_str()));
    out
}

/// Full wire bytes of the prover's answer for `address` — the quantity
/// pinned byte-for-byte between the index path and the rebuild path.
fn respond_bytes<S, T>(chain: &Chain<S, T>, address: &Address) -> Vec<u8>
where
    S: BlockSource,
    T: TableSource,
{
    let prover = Prover::from_chain(chain).expect("known scheme");
    let (response, _) = prover.respond(address).expect("prover never fails");
    response.encode()
}

fn assert_equivalent<S, T>(truth: &Chain, served: &Chain<S, T>, blocks: u64, seed: u64)
where
    S: BlockSource,
    T: TableSource,
{
    assert_eq!(served.tip_height(), truth.tip_height());
    assert_eq!(served.headers(), truth.headers());
    for address in probes(blocks, seed) {
        assert_eq!(
            respond_bytes(truth, &address),
            respond_bytes(served, &address),
            "response bytes diverge for {address:?}"
        );
        assert_eq!(
            truth.history_of(&address),
            served.history_of(&address),
            "history diverges for {address:?}"
        );
    }
}

/// What an index commits to: its root hash, its entry count, and one
/// membership proof per height's table entry.
type Commitment = (Hash256, u64, Vec<AvlProof>);

/// Indexes `truth` block by block into a fresh store, anchoring after
/// every `cadence` blocks (0: never before the end) and rewinding to
/// height `back` when height `at` is first reached, then replaying.
/// The commitment is read twice: from memory before the last sync, and
/// after it.
fn index_at_cadence(truth: &Chain, seed: u64, cadence: u64, (at, back): (u64, u64)) -> Commitment {
    let scratch = ScratchDir::new("cadence");
    let config = StoreConfig::default();
    drop(BlockStore::create(scratch.path(), truth.params(), config).unwrap());
    let (mut chain, _) = open_chain_indexed(scratch.path(), config).unwrap();
    let mut rewound = false;
    while chain.tip_height() < truth.tip_height() {
        let next = chain.tip_height() + 1;
        let store = chain.source().store();
        store.append(&truth.block(next).unwrap()).unwrap();
        chain.extend_one().unwrap();
        if cadence > 0 && next.is_multiple_of(cadence) {
            chain.sync_derived().unwrap();
        }
        if next == at && !rewound {
            chain.rewind_to(back).unwrap();
            rewound = true;
        }
    }
    let commitment = |chain: &IndexedChain| {
        let tables = chain.tables();
        let root = tables.root_hash().unwrap();
        let proofs: Vec<AvlProof> = (1..=chain.tip_height())
            .map(|height| {
                let (proof, under) = tables.prove_table(height).unwrap();
                assert_eq!(under, root);
                let mut key = vec![b't'];
                key.extend_from_slice(&height.to_be_bytes());
                assert!(proof.verify(root, &key, &proof.value), "height {height}");
                assert_eq!(
                    lvq_codec::decode_exact::<Vec<(Address, u64)>>(&proof.value).unwrap(),
                    *chain.addr_counts(height).unwrap()
                );
                proof
            })
            .collect();
        (root, tables.verify_all().unwrap(), proofs)
    };
    let in_memory = commitment(&chain);
    chain.sync_derived().unwrap();
    assert_eq!(commitment(&chain), in_memory, "anchoring moved the root");
    assert_equivalent(truth, &chain, truth.tip_height(), seed);
    in_memory
}

fn index_root_path(dir: &Path) -> PathBuf {
    dir.join("addr-index").join("root.idx")
}

/// Path of the highest-numbered node-log segment.
fn last_node_segment(dir: &Path) -> PathBuf {
    let index = dir.join("addr-index");
    let mut seg = 0u32;
    while index.join(format!("nodes-{:04}.seg", seg + 1)).exists() {
        seg += 1;
    }
    index.join(format!("nodes-{seg:04}.seg"))
}

/// Rewrites the root record's anchored tip in place, re-sealing the CRC
/// — the record stays *valid*, only its anchoring becomes a lie.
fn patch_root_tip(dir: &Path, new_tip: u64) {
    let path = index_root_path(dir);
    let mut bytes = fs::read(&path).unwrap();
    bytes[8..16].copy_from_slice(&new_tip.to_le_bytes());
    let body_len = bytes.len() - 4;
    let crc = crc32(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
    fs::write(&path, bytes).unwrap();
}

fn flip_byte(path: &Path, offset: u64) {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(offset)).unwrap();
    file.read_exact(&mut byte).unwrap();
    byte[0] ^= 0xFF;
    file.seek(SeekFrom::Start(offset)).unwrap();
    file.write_all(&byte).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole guarantee: for random chains, the response bytes a
    /// client receives through the persistent index — first open
    /// (rebuild), then reopen (pure point reads) — are identical to the
    /// in-memory rebuild path's.
    #[test]
    fn index_query_traffic_is_byte_identical_to_rebuild(
        blocks in 1u64..20,
        seed in 0u64..500,
    ) {
        let truth = build_chain(blocks, seed);
        let scratch = ScratchDir::new("byteident");
        let config = StoreConfig::default();
        drop(ingest_chain(&truth, scratch.path(), config).unwrap());

        // First open: no index yet — built from the blocks.
        {
            let (served, report) = open_chain_indexed(scratch.path(), config).unwrap();
            prop_assert!(matches!(
                report.addr_index,
                AddrIndexRecovery::Rebuilt { reason: "no index present" }
            ), "unexpected first-open outcome: {:?}", report.addr_index);
            assert_equivalent(&truth, &served, blocks, seed);
        }

        // Reopen: restored from the anchored root, no replay.
        let (served, report) = open_chain_indexed(scratch.path(), config).unwrap();
        prop_assert_eq!(report.addr_index, AddrIndexRecovery::Intact);
        prop_assert!(report.is_clean(), "unexpected recovery: {report:?}");
        assert_equivalent(&truth, &served, blocks, seed);
    }

    /// Hashes are computed when an anchor (or a proof) asks for them, so
    /// *when* that happens must not show in them: the same blocks — a
    /// rewind in the middle included, whose removals then run over
    /// still-unhashed nodes — commit to the same root, entry count and
    /// proofs whether the index is anchored after every block, after
    /// every `k`, or once at the end.
    #[test]
    fn sync_cadence_cannot_change_the_root(
        blocks in 6u64..24,
        seed in 0u64..500,
        k in 2u64..6,
        at in any::<u64>(),
        back in any::<u64>(),
    ) {
        let truth = build_chain(blocks, seed);
        let at = 2 + at % (blocks - 1);
        let rewind = (at, back % at);
        let every_block = index_at_cadence(&truth, seed, 1, rewind);
        prop_assert!(every_block == index_at_cadence(&truth, seed, k, rewind), "every {k}");
        prop_assert!(every_block == index_at_cadence(&truth, seed, 0, rewind), "only at the end");
    }

    /// A flipped byte anywhere in the node log never changes an answer:
    /// the verified reopen either proves the flip harmless (it landed in
    /// an unreferenced record) or detects it and rebuilds. Both paths
    /// serve byte-identical traffic.
    #[test]
    fn bit_flip_in_node_log_never_lies(
        blocks in 4u64..16,
        seed in 0u64..500,
        flip in any::<u64>(),
    ) {
        let truth = build_chain(blocks, seed);
        let scratch = ScratchDir::new("bitflip");
        let config = StoreConfig::default();
        drop(ingest_chain(&truth, scratch.path(), config).unwrap());
        drop(open_chain_indexed(scratch.path(), config).unwrap());

        let victim = last_node_segment(scratch.path());
        let len = fs::metadata(&victim).unwrap().len();
        // Skip the 12-byte segment header: damaging it refuses the whole
        // log (also a rebuild, but trivially so).
        flip_byte(&victim, 12 + flip % (len - 12));

        let (served, report) = open_chain_indexed_verified(scratch.path(), config).unwrap();
        prop_assert!(matches!(
            report.addr_index,
            AddrIndexRecovery::Intact | AddrIndexRecovery::Rebuilt { .. }
        ));
        assert_equivalent(&truth, &served, blocks, seed);
    }
}

#[test]
fn stale_root_behind_store_catches_up_without_rebuild() {
    let truth = build_chain(14, 3);
    let scratch = ScratchDir::new("stale");
    let config = StoreConfig::default();

    // Persist only the first 10 blocks, index them…
    let store = BlockStore::create(scratch.path(), truth.params(), config).unwrap();
    for h in 1..=10 {
        store.append(&truth.block(h).unwrap()).unwrap();
    }
    store.sync().unwrap();
    drop(store);
    drop(open_chain_indexed(scratch.path(), config).unwrap());

    // …then extend the store to 14 behind the index's back.
    let (store, _) = BlockStore::open(scratch.path(), config).unwrap();
    for h in 11..=14 {
        store.append(&truth.block(h).unwrap()).unwrap();
    }
    store.sync().unwrap();
    drop(store);

    let (served, report) = open_chain_indexed(scratch.path(), config).unwrap();
    assert_eq!(
        report.addr_index,
        AddrIndexRecovery::CaughtUp { from: 10, to: 14 }
    );
    assert!(
        !report.is_clean(),
        "a catch-up is recovery, not a clean open"
    );
    assert_equivalent(&truth, &served, 14, 3);
    drop(served);

    // The catch-up re-anchored: the next open is clean.
    let (_, report) = open_chain_indexed(scratch.path(), config).unwrap();
    assert_eq!(report.addr_index, AddrIndexRecovery::Intact);
}

#[test]
fn root_ahead_of_store_forces_rebuild() {
    let truth = build_chain(10, 7);
    let scratch = ScratchDir::new("ahead");
    let config = StoreConfig::default();
    drop(ingest_chain(&truth, scratch.path(), config).unwrap());
    drop(open_chain_indexed(scratch.path(), config).unwrap());

    // A valid root record claiming three blocks the store never had:
    // its anchoring cannot be trusted, so everything is rebuilt.
    patch_root_tip(scratch.path(), 13);

    let (served, report) = open_chain_indexed(scratch.path(), config).unwrap();
    assert_eq!(
        report.addr_index,
        AddrIndexRecovery::Rebuilt {
            reason: "index root anchored ahead of the store"
        }
    );
    assert_equivalent(&truth, &served, 10, 7);
}

#[test]
fn corrupt_root_record_forces_rebuild() {
    let truth = build_chain(8, 11);
    let scratch = ScratchDir::new("rootflip");
    let config = StoreConfig::default();
    drop(ingest_chain(&truth, scratch.path(), config).unwrap());
    drop(open_chain_indexed(scratch.path(), config).unwrap());

    flip_byte(&index_root_path(scratch.path()), 20);

    let (served, report) = open_chain_indexed(scratch.path(), config).unwrap();
    assert_eq!(
        report.addr_index,
        AddrIndexRecovery::Rebuilt {
            reason: "index root record corrupt"
        }
    );
    assert_equivalent(&truth, &served, 8, 11);
}

#[test]
fn torn_node_log_tail_is_unreferenced_waste() {
    let truth = build_chain(9, 5);
    let scratch = ScratchDir::new("torn-tail");
    let config = StoreConfig::default();
    drop(ingest_chain(&truth, scratch.path(), config).unwrap());
    drop(open_chain_indexed(scratch.path(), config).unwrap());

    // A crash between a log append and the root rewrite leaves bytes
    // past the last anchored node. They are not referenced, so even the
    // full-verification reopen is Intact.
    let victim = last_node_segment(scratch.path());
    let mut file = OpenOptions::new().append(true).open(&victim).unwrap();
    file.write_all(&[0xAB; 200]).unwrap();
    drop(file);

    let (served, report) = open_chain_indexed_verified(scratch.path(), config).unwrap();
    assert_eq!(report.addr_index, AddrIndexRecovery::Intact);
    assert_equivalent(&truth, &served, 9, 5);
    drop(served);

    // Truncation, by contrast, cuts into *referenced* records: detected
    // and rebuilt, never served wrong. (Take off the 200 garbage bytes
    // plus a slice of real records.)
    let len = fs::metadata(&victim).unwrap().len();
    OpenOptions::new()
        .write(true)
        .open(&victim)
        .unwrap()
        .set_len(len - 230)
        .unwrap();

    let (served, report) = open_chain_indexed_verified(scratch.path(), config).unwrap();
    assert!(
        matches!(report.addr_index, AddrIndexRecovery::Rebuilt { .. }),
        "truncated log must rebuild, got {:?}",
        report.addr_index
    );
    assert_equivalent(&truth, &served, 9, 5);
}

#[test]
fn index_cache_reports_clears_and_rebudgets() {
    let truth = build_chain(12, 2);
    let scratch = ScratchDir::new("idxcache");
    let config = StoreConfig::default();
    drop(ingest_chain(&truth, scratch.path(), config).unwrap());
    drop(open_chain_indexed(scratch.path(), config).unwrap());

    // A clean second open is pure point reads.
    let (mut served, report) = open_chain_indexed(scratch.path(), config).unwrap();
    assert_eq!(report.addr_index, AddrIndexRecovery::Intact);
    for address in probes(12, 2) {
        let _ = served.history_of(&address);
    }
    let stats = served.cache_stats();
    assert!(
        stats.index_nodes.hits + stats.index_nodes.misses > 0,
        "index reads must flow through the node cache: {stats:?}"
    );
    assert!(stats.index_nodes.used_bytes > 0);

    served.tables().clear_cache();
    let cleared = served.cache_stats().index_nodes;
    assert_eq!(cleared.entries, 0);
    assert_eq!(cleared.used_bytes, 0);
    assert!(
        cleared.hits + cleared.misses > 0,
        "counters survive a clear"
    );

    // Starve the cache: reads still work (and still verify), they just
    // stop retaining.
    served.tables().set_cache_budget(0);
    for address in probes(12, 2) {
        let _ = served.history_of(&address);
    }
    assert_eq!(served.cache_stats().index_nodes.used_bytes, 0);
    assert_equivalent(&truth, &served, 12, 2);

    // Re-budget far below the node log: however much of the tree the
    // verified probes walk, what stays resident is the cache's bound,
    // not the chain's small size.
    const BUDGET: usize = 2048;
    served.set_cache_config(
        served
            .params()
            .cache_config()
            .with_index_node_cache_bytes(BUDGET),
    );
    assert!(served.tables().data_bytes() > 4 * BUDGET as u64);
    let prover = Prover::from_chain(&served).unwrap();
    let client = LightClient::new(prover.config(), served.headers());
    for address in probes(12, 2) {
        let (response, _) = prover.respond(&address).unwrap();
        let history = client.verify(&address, &response).unwrap();
        assert_eq!(history.transactions, truth.history_of(&address));
    }
    let budget = served.params().cache_config().index_node_cache_bytes as u64;
    let resident = served.tables().resident_bytes();
    assert!(
        resident <= budget,
        "{resident} table bytes resident over a {budget}-byte budget"
    );
}

/// A store of [`build_chain`]`(12, 9)` behind `fs_impl`: blocks 1..=8
/// indexed and anchored, blocks 9..=12 durable in the block store and
/// absorbed by the index, but not yet synced — the next durable
/// operation is the first of the flush.
fn grown_unsynced(fs_impl: Arc<dyn StoreFs>) -> (Chain, ScratchDir, IndexedChain) {
    let truth = build_chain(12, 9);
    let scratch = ScratchDir::new("flush");
    let config = StoreConfig::default();
    let store = BlockStore::create(scratch.path(), truth.params(), config).unwrap();
    for h in 1..=8 {
        store.append(&truth.block(h).unwrap()).unwrap();
    }
    store.sync().unwrap();
    drop(store);
    let (mut chain, _) = open_chain_indexed_with_fs(scratch.path(), config, fs_impl).unwrap();
    for h in 9..=12 {
        let store = chain.source().store();
        store.append(&truth.block(h).unwrap()).unwrap();
    }
    chain.source().store().sync().unwrap();
    assert_eq!(chain.extend_batch(u64::MAX).unwrap(), 4);
    (truth, scratch, chain)
}

/// The flush is one buffered append, a log fsync and the root-record
/// dance. Killed anywhere in it — the buffered write torn in the middle
/// of a record, the whole buffer written but not fsynced, the root
/// record half-way — the store reopens on the previous anchor and
/// catches up, or (once the rename happened) on the new one. Never a
/// third thing.
#[test]
fn crash_inside_the_buffered_flush_lands_on_an_anchor() {
    let counting = CrashFs::new(CrashSchedule::count_only());
    let (_, _scratch, chain) = grown_unsynced(Arc::new(counting.clone()));
    let first = counting.ops();
    chain.sync_derived().unwrap();
    let writes = counting.write_ops().into_iter().filter(|op| *op >= first);
    assert_eq!(
        (counting.ops() - first, writes.count()),
        (6, 2),
        "a flush is: buffer write, log fsync, root tmp write + fsync, rename, dir fsync"
    );
    drop(chain);

    for op in first..first + 6 {
        // Three seeds tear the buffer at three different records.
        for (mode, seed) in [
            (CrashMode::Abort, 0),
            (CrashMode::Torn, 1),
            (CrashMode::Torn, 2),
            (CrashMode::Torn, 3),
        ] {
            let crashing = CrashFs::new(CrashSchedule::at(op, mode, seed));
            let (truth, scratch, chain) = grown_unsynced(Arc::new(crashing.clone()));
            let err = chain.sync_derived().unwrap_err();
            assert!(crashing.crashed(), "{mode:?}@{op}: {err}");
            drop(chain);

            let (served, report) =
                open_chain_indexed_verified(scratch.path(), StoreConfig::default()).unwrap();
            let renamed = op - first >= 5;
            let expected = if renamed {
                AddrIndexRecovery::Intact
            } else {
                AddrIndexRecovery::CaughtUp { from: 8, to: 12 }
            };
            assert_eq!(report.addr_index, expected, "{mode:?}@{op}");
            assert_equivalent(&truth, &served, 12, 9);
        }
    }
}

/// A filesystem whose `nth` write from now (1-based; 0 = healthy) keeps
/// the first half of its bytes and fails — a full disk that someone
/// then made room on. Everything else goes straight through.
#[derive(Debug, Default)]
struct TearsOneWrite {
    nth: AtomicU64,
}

impl StoreFs for TearsOneWrite {
    fn write_all(&self, mut file: &File, buf: &[u8]) -> io::Result<()> {
        let armed = self.nth.load(Ordering::SeqCst);
        if armed > 0 && self.nth.fetch_sub(1, Ordering::SeqCst) == 1 {
            file.write_all(&buf[..buf.len() / 2])?;
            return Err(io::Error::other("injected: no space left on device"));
        }
        file.write_all(buf)
    }
    fn sync(&self, file: &File) -> io::Result<()> {
        RealFs.sync(file)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealFs.rename(from, to)
    }
    fn set_len(&self, file: &File, len: u64) -> io::Result<()> {
        RealFs.set_len(file, len)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealFs.remove_file(path)
    }
    fn remove_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealFs.remove_dir_all(dir)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        RealFs.sync_dir(dir)
    }
}

/// A sync is all-or-nothing in memory. One that fails — in the
/// buffered node write (leaving half a buffer of torn records in the
/// log) or in the root record after it — leaves the same instance
/// answering every query from the write set, and the next sync, on a
/// filesystem that works again, anchors the root the failed one was
/// after: behind the torn bytes, at offsets that read back.
#[test]
fn failed_sync_keeps_serving_and_a_retry_anchors_the_same_root() {
    for nth in [1, 2] {
        let flaky = Arc::new(TearsOneWrite::default());
        let (truth, scratch, chain) = grown_unsynced(flaky.clone());
        let want = chain.tables().root_hash().unwrap();
        let log = last_node_segment(scratch.path());
        let anchored_len = fs::metadata(&log).unwrap().len();

        flaky.nth.store(nth, Ordering::SeqCst);
        let err = chain.sync_derived().unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(flaky.nth.load(Ordering::SeqCst), 0, "the fault fired");
        assert!(fs::metadata(&log).unwrap().len() > anchored_len);

        // Nothing moved: still at 12, still answering, same root.
        assert_eq!(chain.tables().tip(), 12);
        assert_equivalent(&truth, &chain, 12, 9);
        assert_eq!(chain.tables().root_hash().unwrap(), want);

        chain.sync_derived().unwrap();
        assert_eq!(chain.tables().root_hash().unwrap(), want);
        assert_equivalent(&truth, &chain, 12, 9);
        drop(chain);

        // What the retry anchored is whole on disk, node by node.
        let (served, report) =
            open_chain_indexed_verified(scratch.path(), StoreConfig::default()).unwrap();
        assert_eq!(report.addr_index, AddrIndexRecovery::Intact, "nth = {nth}");
        assert_eq!(served.tables().root_hash().unwrap(), want);
        assert_equivalent(&truth, &served, 12, 9);
    }
}

/// A flush several write chunks long, over a segment rotation: the
/// buffer reaches the log in 1 MiB slices that cut records wherever
/// they fall, one `write_all` per slice, and every record reads back
/// from the location it was given before a byte of it was written.
#[test]
fn multi_chunk_flush_reads_back_whole() {
    const MIB: u64 = 1 << 20;
    let header = *build_chain(1, 0).header(1).unwrap();
    let scratch = ScratchDir::new("chunks");
    let dir = scratch.path().join("addr-index");
    let counting = CrashFs::new(CrashSchedule::count_only());
    // A 64 KiB node cache: the audits below read the log, not memory.
    let mut tables =
        IndexedTables::create_with_fs(&dir, 64 << 10, MIB * 3 / 2, Arc::new(counting.clone()))
            .unwrap();
    let created = counting.write_ops().len();

    let wallets = |height: u64| -> Arc<Vec<(Address, u64)>> {
        let wallet = |i: u64| format!("1Wallet{height}x{i:05}-padded-to-mainnet-size");
        Arc::new(
            (0..2500)
                .map(|i| (Address::new(wallet(i).as_str()), i % 7 + 1))
                .collect(),
        )
    };
    for height in 1..=3 {
        let update = TableUpdate {
            height,
            header: &header,
            table: wallets(height),
            new_spans: &[],
        };
        tables.push(update).unwrap();
    }
    tables.sync(3).unwrap();

    let segments: Vec<u64> = (0..)
        .map(|seg| dir.join(format!("nodes-{seg:04}.seg")))
        .take_while(|path| path.exists())
        .map(|path| fs::metadata(path).unwrap().len())
        .collect();
    assert_eq!(segments.len(), 2, "{segments:?}");
    assert!(segments[0] > MIB * 3 / 2 && segments[1] > 0, "{segments:?}");
    let slices: u64 = segments.iter().map(|len| (len - 12).div_ceil(MIB)).sum();
    assert_eq!(
        (counting.write_ops().len() - created) as u64,
        slices + 1 + 1,
        "one write per slice, the second segment's header, the root record"
    );

    let root = tables.root_hash().unwrap();
    let audit = |tables: &IndexedTables| {
        assert_eq!(tables.verify_all().unwrap(), 3 * 2502);
        assert_eq!(tables.root_hash().unwrap(), root);
        for height in 1..=3 {
            assert_eq!(tables.table(height).unwrap(), wallets(height));
        }
        let (wallet, count) = wallets(2)[1234].clone();
        assert_eq!(tables.presence(&wallet).unwrap(), Some(vec![(2, count)]));
    };
    audit(&tables);
    drop(tables);
    audit(&IndexedTables::open(&dir, 64 << 10, MIB * 3 / 2).unwrap());
}

/// A pending link names its node by key alone, so the nodes a push
/// already put when it fails shadow the versions the tree still links
/// to, and nothing could tell them apart. The write set is therefore
/// poisoned: no read through it, no root hash, no anchor — until a
/// reopen restarts from the last anchor, which the failed push never
/// reached.
#[test]
fn failed_push_poisons_the_write_set_until_reopen() {
    let header = *build_chain(1, 0).header(1).unwrap();
    let scratch = ScratchDir::new("poison");
    let dir = scratch.path().join("addr-index");
    let table = |names: &[&str]| -> Arc<Vec<(Address, u64)>> {
        Arc::new(names.iter().map(|n| (Address::new(*n), 1)).collect())
    };
    let update = |height, table| TableUpdate {
        height,
        header: &header,
        table,
        new_spans: &[],
    };
    let mut tables = IndexedTables::create(&dir, 1 << 20, 8 << 20).unwrap();
    for (height, names) in [
        (1, ["1Bob", "1Eve"]),
        (2, ["1Dan", "1Fay"]),
        (3, ["1Gus", "1Hal"]),
    ] {
        tables.push(update(height, table(&names))).unwrap();
    }
    tables.sync(3).unwrap();
    let root = tables.root_hash().unwrap();

    // Damage the record of the smallest key — the leftmost node, which
    // only an address sorting below every other will ever descend to.
    let log = dir.join("nodes-0000.seg");
    let bytes = fs::read(&log).unwrap();
    let (mut at, mut leftmost) = (12, (vec![0xFF], 0));
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let key = bytes[at + 9..at + 9 + bytes[at + 8] as usize].to_vec();
        leftmost = leftmost.min((key, at));
        at += 8 + len;
    }
    flip_byte(&log, leftmost.1 as u64 + 8 + 4);
    tables.clear_cache();

    // Height 4's header and table go in; its one address does not.
    tables.push(update(4, table(&["1Al"]))).unwrap_err();
    assert_eq!(tables.tip(), 3);
    assert!(tables.table(1).is_err());
    assert!(tables.presence(&Address::new("1Hal")).is_err());
    assert!(tables.root_hash().is_err());
    assert!(tables.sync(3).is_err());
    tables.push(update(4, table(&["1Zed"]))).unwrap_err();
    drop(tables);

    let reopened = IndexedTables::open(&dir, 1 << 20, 8 << 20).unwrap();
    assert_eq!(reopened.tip(), 3);
    assert_eq!(reopened.root_hash().unwrap(), root);
    assert_eq!(reopened.table(3).unwrap(), table(&["1Gus", "1Hal"]));
    assert!(reopened.verify_all().is_err(), "the damage is still there");
}
