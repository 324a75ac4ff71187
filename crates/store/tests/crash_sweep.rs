//! Exhaustive crash-point sweep over every durable write path.
//!
//! A scripted workload — ingest, index push, reorg, re-index — is run
//! once under a counting [`CrashFs`] to enumerate its durable
//! operations, then re-run from scratch once *per operation per crash
//! mode*: the process "dies" exactly at that op (either skipping it
//! outright or persisting a seeded prefix of a write), the store is
//! "rebooted" by reopening with the real filesystem, and the sweep
//! hard-asserts that recovery holds:
//!
//! * the reopen never fails (the one exception — a crash before store
//!   creation completed — must present as [`StoreError::NotAStore`],
//!   i.e. cleanly recreatable, never as corruption);
//! * every surviving block passes `verify_all` and is a valid prefix
//!   state of the scripted history (truth chain or rival chain bytes,
//!   nothing else);
//! * resuming the same workload re-ingests exactly the lost suffix —
//!   already-durable blocks are not rewritten — and converges on a
//!   final state semantically identical to a never-crashed control
//!   (headers, block bytes, fork journal, and per-address query
//!   answers through the restored index).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lvq_bloom::BloomParams;
use lvq_chain::{
    Address, BlockHeader, Chain, ChainBuilder, ChainParams, CommitmentPolicy, Transaction,
};
use lvq_codec::Encodable;
use lvq_store::{
    open_chain_indexed, open_chain_indexed_with_fs, BlockStore, CrashFs, CrashMode, CrashSchedule,
    RealFs, StoreConfig, StoreError, StoreFs,
};

/// Height at which the rival branch forks off the truth chain.
const FORK: u64 = 4;
/// The truth chain's tip before the reorg displaces its suffix.
const TRUTH_TIP: u64 = 6;
/// The rival chain's tip after the reorg.
const RIVAL_TIP: u64 = 8;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        // The sweep issues thousands of real fsyncs; prefer tmpfs so
        // they are (nearly) free. Crash semantics are unaffected — the
        // harness injects faults above the filesystem.
        let shm = Path::new("/dev/shm");
        let base = if shm.is_dir() {
            shm.to_path_buf()
        } else {
            std::env::temp_dir()
        };
        let dir = base.join(format!("lvq-sweep-{tag}-{}-{n}", std::process::id()));
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
    // The smallest sane parameters: the sweep re-runs the whole
    // workload once per crash point, so per-block cost multiplies.
    ChainParams::new(BloomParams::new(64, 2).unwrap(), 4, CommitmentPolicy::lvq()).unwrap()
}

fn config() -> StoreConfig {
    // A small segment target forces rotations inside the workload, so
    // the sweep also crashes mid-rotation.
    StoreConfig {
        segment_target_bytes: 2048,
        ..StoreConfig::default()
    }
}

fn truth_txs(h: u64) -> Vec<Transaction> {
    let mut txs = vec![Transaction::coinbase(Address::new("1Miner"), 50, h as u32)];
    if h.is_multiple_of(3) {
        txs.push(Transaction::coinbase(
            Address::new(format!("1Truth{h}").as_str()),
            1,
            (h * 100) as u32,
        ));
    }
    txs
}

fn rival_txs(h: u64) -> Vec<Transaction> {
    let mut txs = vec![Transaction::coinbase(Address::new("1Rival"), 50, h as u32)];
    if h == 7 {
        txs.push(Transaction::coinbase(Address::new("1Rival7"), 1, h as u32));
    }
    txs
}

/// The honest pre-reorg chain: truth transactions to [`TRUTH_TIP`].
fn truth_chain() -> Chain {
    let mut builder = ChainBuilder::new(params()).unwrap();
    for h in 1..=TRUTH_TIP {
        builder.push_block(truth_txs(h)).unwrap();
    }
    builder.finish()
}

/// The winning branch: shares truth's blocks through [`FORK`]
/// (identical transactions produce identical blocks), diverges after.
fn rival_chain() -> Chain {
    let mut builder = ChainBuilder::new(params()).unwrap();
    for h in 1..=RIVAL_TIP {
        let txs = if h <= FORK {
            truth_txs(h)
        } else {
            rival_txs(h)
        };
        builder.push_block(txs).unwrap();
    }
    builder.finish()
}

fn block_bytes(chain: &Chain, height: u64) -> Vec<u8> {
    chain.block(height).unwrap().encode()
}

/// Addresses whose answers pin the final state: the two coinbase
/// streams, one survivor, one displaced-by-reorg, one rival-only, and
/// one that never existed.
fn probes() -> Vec<Address> {
    vec![
        Address::new("1Miner"),
        Address::new("1Rival"),
        Address::new("1Truth3"),
        Address::new("1Truth6"),
        Address::new("1Rival7"),
        Address::new("1Nobody"),
    ]
}

/// The scripted workload, written to be *resumable*: every phase first
/// inspects durable state and only performs the work that is still
/// missing, so re-running it after a crash re-ingests exactly the lost
/// suffix. Phases:
///
/// 1. create-or-open the store, ingest truth blocks to [`TRUTH_TIP`];
/// 2. open the address index (build or catch-up) at the current tip;
/// 3. reorg: journal the displaced truth blocks to `forks.log`
///    (journal-first), truncate to [`FORK`], extend with rival blocks
///    to [`RIVAL_TIP`];
/// 4. re-open the index against the reorged store.
fn workload(
    dir: &Path,
    fs_impl: Arc<dyn StoreFs>,
    truth: &Chain,
    rival: &Chain,
) -> Result<(), StoreError> {
    let cfg = config();

    // Phase 1: ingest.
    {
        let store = if dir.join("store.meta").exists() {
            BlockStore::open_with_fs(dir, cfg, Arc::clone(&fs_impl))?.0
        } else {
            // A crash before creation completed leaves no store (that
            // is the invariant under test); recreating from scratch is
            // the legitimate recovery.
            if dir.exists() {
                fs::remove_dir_all(dir)?;
            }
            BlockStore::create_with_fs(dir, truth.params(), cfg, Arc::clone(&fs_impl))?
        };
        // Once the reorg has begun (journal entries exist), the truth
        // suffix must never be re-appended.
        let reorged = !store.fork_log()?.is_empty();
        if !reorged {
            while store.len() < TRUTH_TIP {
                store.append(&truth.block(store.len() + 1).unwrap())?;
            }
            store.sync()?;
        }
    }

    // Phase 2: index at the current tip.
    drop(open_chain_indexed_with_fs(dir, cfg, Arc::clone(&fs_impl))?);

    // Phase 3: reorg, journal-first.
    {
        let (store, _) = BlockStore::open_with_fs(dir, cfg, Arc::clone(&fs_impl))?;
        let journaled = store.fork_log()?;
        for h in FORK + 1..=TRUTH_TIP {
            let bytes = block_bytes(truth, h);
            let present = journaled
                .iter()
                .any(|(jh, jb)| *jh == h && jb.encode() == bytes);
            if !present {
                store.log_fork_block(h, &truth.block(h).unwrap())?;
            }
        }
        if store.len() > FORK
            && store.read_block(FORK + 1)?.encode() == block_bytes(truth, FORK + 1)
        {
            store.truncate(FORK)?;
        }
        while store.len() < RIVAL_TIP {
            store.append(&rival.block(store.len() + 1).unwrap())?;
        }
        store.sync()?;
    }

    // Phase 4: re-index the reorged store.
    drop(open_chain_indexed_with_fs(dir, cfg, fs_impl)?);
    Ok(())
}

/// The observable end state of the workload, compared between the
/// control and every crashed-then-resumed run.
#[derive(Debug, PartialEq)]
struct FinalState {
    tip: u64,
    headers: Vec<BlockHeader>,
    blocks: Vec<Vec<u8>>,
    fork_log: Vec<(u64, Vec<u8>)>,
    histories: Vec<Vec<(u64, Transaction)>>,
}

fn capture_final_state(dir: &Path) -> FinalState {
    let (chain, report) = open_chain_indexed(dir, config()).unwrap();
    assert!(
        report.is_clean(),
        "a completed workload must reopen clean, got {report:?}"
    );
    let store = chain.source().store();
    let blocks = (1..=store.len())
        .map(|h| store.read_block(h).unwrap().encode())
        .collect();
    let mut fork_log: Vec<(u64, Vec<u8>)> = store
        .fork_log()
        .unwrap()
        .into_iter()
        .map(|(h, b)| (h, b.encode()))
        .collect();
    fork_log.sort();
    fork_log.dedup();
    let histories = probes().iter().map(|a| chain.history_of(a)).collect();
    FinalState {
        tip: chain.tip_height(),
        headers: chain.headers(),
        blocks,
        fork_log,
        histories,
    }
}

/// Reopens a crashed store with the real filesystem and asserts the
/// recovery invariants; returns the surviving block bytes per height
/// (`None` when creation never completed and there is no store yet).
fn assert_reopens_clean(
    dir: &Path,
    truth: &Chain,
    rival: &Chain,
    context: &str,
) -> Option<Vec<Vec<u8>>> {
    let (store, report) = match BlockStore::open(dir, config()) {
        Ok(opened) => opened,
        Err(StoreError::NotAStore { .. }) => {
            assert!(
                !dir.join("store.meta").exists(),
                "{context}: NotAStore with a meta file present"
            );
            return None;
        }
        Err(e) => panic!("{context}: reopen after crash failed: {e}"),
    };
    let verified = store
        .verify_all()
        .unwrap_or_else(|e| panic!("{context}: verify_all failed: {e}"));
    assert_eq!(verified, store.len(), "{context}: verify count mismatch");
    assert!(
        store.len() <= RIVAL_TIP,
        "{context}: store longer than the scripted history"
    );
    // Every surviving block is a valid prefix state: truth bytes or
    // rival bytes at its height, never anything else.
    let mut survivors = Vec::new();
    for h in 1..=store.len() {
        let bytes = store.read_block(h).unwrap().encode();
        let is_truth = h <= TRUTH_TIP && bytes == block_bytes(truth, h);
        let is_rival = bytes == block_bytes(rival, h);
        assert!(
            is_truth || is_rival,
            "{context}: block {h} survived with bytes from neither chain"
        );
        survivors.push(bytes);
    }
    // The fork journal only ever holds the displaced truth blocks.
    for (h, block) in store.fork_log().unwrap() {
        assert!(
            (FORK + 1..=TRUTH_TIP).contains(&h),
            "{context}: journal entry at unexpected height {h}"
        );
        assert_eq!(
            block.encode(),
            block_bytes(truth, h),
            "{context}: journal entry at {h} is not the displaced truth block"
        );
    }
    // The report's claims must be consistent with a clean second open:
    // whatever was repaired, repairing it again must find nothing.
    let _ = report;
    drop(store);
    let (_, second) = BlockStore::open(dir, config()).unwrap();
    assert!(
        second.is_clean() || second.rebuilt_index,
        "{context}: repairs did not converge: {second:?}"
    );
    Some(survivors)
}

/// Runs the workload to completion under a counting `CrashFs`,
/// returning the number of durable operations it performs and which
/// of them were byte writes.
fn count_crash_points() -> (u64, Vec<u64>) {
    let scratch = ScratchDir::new("count");
    let truth = truth_chain();
    let rival = rival_chain();
    let fs_impl = CrashFs::new(CrashSchedule::count_only());
    workload(scratch.path(), Arc::new(fs_impl.clone()), &truth, &rival)
        .expect("counting run must complete");
    assert!(!fs_impl.crashed());
    (fs_impl.ops(), fs_impl.write_ops())
}

#[test]
fn crash_at_every_durable_op_recovers_and_resumes() {
    let truth = truth_chain();
    let rival = rival_chain();
    // The rival branch really is a fork of truth: identical through
    // FORK, divergent after.
    for h in 1..=FORK {
        assert_eq!(block_bytes(&truth, h), block_bytes(&rival, h));
    }
    assert_ne!(block_bytes(&truth, FORK + 1), block_bytes(&rival, FORK + 1));

    let (total_ops, write_ops) = count_crash_points();
    println!(
        "sweeping {total_ops} durable ops, {} of them writes",
        write_ops.len()
    );
    assert!(
        total_ops > 40,
        "workload exercises too few durable ops ({total_ops}) — did the seam regress?"
    );
    assert!(!write_ops.is_empty());

    // The never-crashed control every recovered run must converge to.
    let control_dir = ScratchDir::new("control");
    workload(control_dir.path(), Arc::new(RealFs), &truth, &rival).unwrap();
    let control = capture_final_state(control_dir.path());
    assert_eq!(control.tip, RIVAL_TIP);
    assert_eq!(control.fork_log.len(), (TRUTH_TIP - FORK) as usize);

    // Abort sweeps every op; Torn only differs from Abort at byte
    // writes, so its pass is restricted to those.
    let abort_points: Vec<u64> = (0..total_ops).collect();
    for (mode, points) in [
        (CrashMode::Abort, &abort_points),
        (CrashMode::Torn, &write_ops),
    ] {
        for &op in points {
            let context = format!("{mode:?}@{op}");
            let scratch = ScratchDir::new("pt");
            let fs_impl = CrashFs::new(CrashSchedule::at(op, mode, 0xC0FFEE ^ op));

            // The workload usually surfaces the crash as an error; a
            // crash landing in a best-effort epilogue (a Drop-time
            // flush) is swallowed there, exactly as a process dying
            // after its last required durable op would be. Either way
            // the recovery invariants below must hold.
            let _ = workload(scratch.path(), Arc::new(fs_impl.clone()), &truth, &rival);
            assert!(
                fs_impl.crashed(),
                "{context}: schedule within the counted range must fire"
            );

            // Reboot: reopen with the real filesystem.
            let survivors = assert_reopens_clean(scratch.path(), &truth, &rival, &context);

            // Resume: the same workload, run to completion.
            workload(scratch.path(), Arc::new(RealFs), &truth, &rival)
                .unwrap_or_else(|e| panic!("{context}: resume failed: {e}"));
            let resumed = capture_final_state(scratch.path());
            assert_eq!(resumed, control, "{context}: resumed state diverges");

            // The resume only re-ingested the lost suffix: blocks that
            // survived the crash were not rewritten — except the
            // displaced truth suffix, which the scripted reorg
            // legitimately replaces with rival blocks.
            if let Some(survivors) = survivors {
                for (i, bytes) in survivors.iter().enumerate() {
                    let h = (i + 1) as u64;
                    if h > FORK && h <= TRUTH_TIP && *bytes == block_bytes(&truth, h) {
                        assert_eq!(
                            resumed.blocks[i],
                            block_bytes(&rival, h),
                            "{context}: displaced block {h} not replaced by the reorg"
                        );
                    } else {
                        assert_eq!(
                            resumed.blocks[i], *bytes,
                            "{context}: durable block {h} was rewritten during resume"
                        );
                    }
                }
            }
        }
    }
}
