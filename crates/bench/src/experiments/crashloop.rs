//! Extra experiment: kill-and-restart crash loop (`repro crashloop`).
//!
//! The crash-point sweep proves recovery against *simulated* crashes —
//! frozen filesystem images produced by the injection harness. This
//! experiment closes the loop with the real thing: a genuinely
//! separate serving process is SIGKILLed mid-ingest, over and over,
//! while a chaos-wrapped client keeps querying it with retries. Three
//! claims:
//!
//! 1. **zero accepted lies** — every answer a client run verifies
//!    equals the ground-truth chain truncated at the client's pinned
//!    tip, across every kill cycle; a kill can cost a retry, never a
//!    wrong verified history;
//! 2. **zero corrupt reopens** — after every SIGKILL the store opens,
//!    any torn tail is repaired at open (and reported), and a full
//!    checksum re-verification of every stored block passes; the
//!    persisted height never regresses;
//! 3. **bounded recovery** — every restarted server is back up
//!    (bound, recovered, serving) within the deadline, and the chain
//!    still converges on exactly the ground-truth tip once the feed is
//!    allowed to finish.
//!
//! The child process is this same `repro` binary re-invoked as
//! `repro crashloop-child …` (see [`child_main`]); the parent owns the
//! ground truth, the kill schedule, and every assertion.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lvq_chain::{Address, Block};
use lvq_core::Scheme;
use lvq_crypto::Hash256;
use lvq_node::{
    BlockFeed, FaultPlan, FaultyTransport, FeedError, FullNode, IngestConfig, LightNode, LiveNode,
    MemoryFeed, NodeServer, QuerySpec, ServerConfig, TcpTransport, TipIngester,
};
use lvq_store::{BlockStore, StoreConfig};

use crate::report::Table;
use crate::scale::Scale;
use crate::workloads::{build_workload, built_probes, WorkloadSpec};

/// Kill/restart cycles the serving process is dragged through.
const KILL_CYCLES: usize = 10;

/// Composite fault rate the client's own transport is mistreated with
/// on top of the real process kills.
const CLIENT_FAULT_RATE: f64 = 0.05;

/// How long the parent waits for any asynchronous condition (child
/// ready, final catch-up) before declaring recovery unbounded.
const DEADLINE: Duration = Duration::from_secs(30);

/// Per-fetch throttle inside the child's feed, slowing ingest enough
/// that the kill schedule lands mid-ingest instead of post-catch-up.
const THROTTLE: Duration = Duration::from_millis(8);

/// One kill cycle's measurements.
#[derive(Debug, Clone, Copy)]
pub struct CyclePoint {
    /// Persisted height found by the audit reopen at cycle start.
    pub tip_at_open: u64,
    /// Whether that reopen had to repair anything (torn tail, index
    /// rebuild, …) — expected after a SIGKILL, and always reported.
    pub repaired: bool,
    /// Audit reopen + full checksum re-verification, in microseconds.
    pub reopen_us: u64,
    /// Process spawn to serving (ready file observed), in milliseconds.
    pub recovery_ms: u64,
    /// Client runs that completed and verified inside this cycle.
    pub queries: u64,
    /// Client runs that errored (kill or injected fault) and retried.
    pub retries: u64,
    /// Transactions verified against pinned ground truth this cycle.
    pub verified_txs: u64,
}

/// The experiment data.
#[derive(Debug, Clone)]
pub struct Crashloop {
    /// Ground-truth chain length.
    pub blocks: u64,
    /// Blocks persisted before the first kill cycle.
    pub prefix: u64,
    /// One point per kill cycle.
    pub points: Vec<CyclePoint>,
    /// Reopens that failed or failed re-verification — must be zero.
    pub corrupt_reopens: u64,
    /// Verified answers that deviated from ground truth — must be zero.
    pub accepted_lies: u64,
    /// Cycles whose audit reopen performed a repair.
    pub repaired_reopens: u64,
    /// Kills that landed while ingest was still mid-chain.
    pub mid_ingest_kills: u64,
    /// Worst spawn-to-serving recovery across all cycles.
    pub max_recovery_ms: u64,
    /// Transactions verified by the final full-chain query.
    pub final_verified_txs: u64,
}

/// Ground truth for one probe, truncated at `tip`.
fn truth_at(truth: &[(u64, Hash256)], tip: u64) -> Vec<(u64, Hash256)> {
    truth
        .iter()
        .copied()
        .filter(|(height, _)| *height <= tip)
        .collect()
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// One chaos-wrapped client run: fresh connection, header sync, one
/// pinned batch query over every probe, checked against ground truth.
///
/// Returns `Ok(verified_txs)` or the error that cost a retry (a kill
/// mid-exchange or an injected fault). A *verified* wrong answer does
/// not error — it panics, because it would be an accepted lie.
fn try_client_run(
    addr: std::net::SocketAddr,
    config: lvq_core::SchemeConfig,
    addresses: &[Address],
    truth: &[Vec<(u64, Hash256)>],
    fault_seed: u64,
    lies: &mut u64,
) -> Result<u64, lvq_node::NodeError> {
    let conn = TcpTransport::connect(addr)?;
    let mut transport =
        FaultyTransport::new(conn, FaultPlan::composite(CLIENT_FAULT_RATE), fault_seed);
    let mut light = LightNode::sync_from(&mut transport, config)?;
    let pinned = light.client().tip_height();
    if pinned == 0 {
        return Ok(0);
    }
    let spec = QuerySpec::addresses(addresses.to_vec()).range(1, pinned);
    let run = light.run(&spec, &mut transport)?;
    let mut verified = 0u64;
    for (qi, history) in run.histories.iter().enumerate() {
        let got: Vec<(u64, Hash256)> = history
            .transactions
            .iter()
            .map(|(height, tx)| (*height, tx.txid()))
            .collect();
        if got != truth_at(&truth[qi], pinned) {
            *lies += 1;
            panic!(
                "probe {qi}: a VERIFIED history deviates from ground truth at pinned tip {pinned}"
            );
        }
        verified += got.len() as u64;
    }
    Ok(verified)
}

/// Runs the crash loop. `child_exe` is the binary to re-invoke as the
/// serving child — the `repro` binary itself.
///
/// # Panics
///
/// Panics if any of the three claims in the module docs fails, or if a
/// child never comes up within `DEADLINE`.
pub fn run(scale: Scale, seed: u64, child_exe: &Path) -> Crashloop {
    let spec = WorkloadSpec {
        seed,
        ..WorkloadSpec::paper_default(Scheme::Lvq, scale)
    };
    let workload = build_workload(spec);
    let config = spec.config();
    let addresses: Vec<Address> = built_probes(&workload)
        .into_iter()
        .map(|(_, address)| address)
        .collect();
    let truth: Vec<Vec<(u64, Hash256)>> = addresses
        .iter()
        .map(|a| {
            workload
                .chain
                .history_of(a)
                .into_iter()
                .map(|(height, tx)| (height, tx.txid()))
                .collect()
        })
        .collect();
    let blocks = workload.chain.tip_height();
    let truth_tip = workload.chain.tip_hash();
    let all_blocks: Vec<Block> = (1..=blocks)
        .map(|h| (*workload.chain.block(h).expect("ground-truth block")).clone())
        .collect();
    let params = workload.chain.params();
    drop(workload);

    let dir = std::env::temp_dir().join(format!("lvq-crashloop-{}-{seed}", std::process::id()));
    let ready = dir.with_extension("ready");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&ready);

    // Persist a prefix so even the first cycle serves a nonempty chain.
    let prefix = blocks / 8;
    {
        let store = BlockStore::create(&dir, params, StoreConfig::default()).expect("fresh store");
        for block in &all_blocks[..prefix as usize] {
            store.append(block).expect("persist prefix");
        }
    }

    let mut points = Vec::new();
    // A corrupt reopen aborts the run on the spot, so a returned
    // report can only ever carry zero — the field exists so the
    // summary states the claim explicitly.
    let corrupt_reopens = 0u64;
    let mut accepted_lies = 0u64;
    let mut repaired_reopens = 0u64;
    let mut mid_ingest_kills = 0u64;
    let mut last_tip = prefix;

    for cycle in 0..KILL_CYCLES {
        // ---- Audit reopen: claim 2, measured. ----
        let audit_started = Instant::now();
        let (tip_at_open, repaired) = match BlockStore::open(&dir, StoreConfig::default()) {
            Ok((store, report)) => match store.verify_all() {
                Ok(n) => (n, !report.is_clean()),
                Err(e) => {
                    panic!("cycle {cycle}: reopened store failed re-verification: {e}");
                }
            },
            Err(e) => {
                panic!("cycle {cycle}: store failed to reopen after SIGKILL: {e}");
            }
        };
        let reopen_us = audit_started.elapsed().as_micros() as u64;
        // A kill may lose an unsynced tail, but never a height a
        // previous cycle already re-verified on disk.
        assert!(
            tip_at_open >= last_tip,
            "cycle {cycle}: persisted height regressed from {last_tip} to {tip_at_open}"
        );
        last_tip = tip_at_open;
        if repaired {
            repaired_reopens += 1;
        }
        if tip_at_open < blocks {
            mid_ingest_kills += 1;
        }

        // ---- Restart the serving process: claim 3, measured. ----
        let _ = std::fs::remove_file(&ready);
        let spawn_started = Instant::now();
        let mut child = std::process::Command::new(child_exe)
            .arg("crashloop-child")
            .arg(&dir)
            .arg(&ready)
            .arg(scale_name(scale))
            .arg(seed.to_string())
            .arg(THROTTLE.as_micros().to_string())
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("spawn crashloop child");
        let addr = loop {
            assert!(
                spawn_started.elapsed() < DEADLINE,
                "cycle {cycle}: child not serving within the recovery deadline"
            );
            if let Ok(text) = std::fs::read_to_string(&ready) {
                if let Ok(addr) = text.trim().parse::<std::net::SocketAddr>() {
                    break addr;
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let recovery_ms = spawn_started.elapsed().as_millis() as u64;

        // ---- Query with retries until the kill lands: claim 1. ----
        let kill_at = Instant::now() + Duration::from_millis(40 + (cycle as u64 * 37) % 110);
        let mut queries = 0u64;
        let mut retries = 0u64;
        let mut verified_txs = 0u64;
        let mut attempt = 0u64;
        while Instant::now() < kill_at {
            let fault_seed = seed ^ ((cycle as u64) << 32) ^ attempt;
            attempt += 1;
            match try_client_run(
                addr,
                config,
                &addresses,
                &truth,
                fault_seed,
                &mut accepted_lies,
            ) {
                Ok(txs) => {
                    queries += 1;
                    verified_txs += txs;
                }
                Err(_) => retries += 1,
            }
        }
        child.kill().expect("SIGKILL the serving child");
        child.wait().expect("reap the serving child");

        points.push(CyclePoint {
            tip_at_open,
            repaired,
            reopen_us,
            recovery_ms,
            queries,
            retries,
            verified_txs,
        });
    }

    // ---- Final convergence: let the feed finish, then verify all. ----
    let (chain, _report) =
        lvq_store::open_chain(&dir, StoreConfig::default()).expect("final reopen");
    let store = Arc::clone(chain.source().store());
    let live = Arc::new(LiveNode::new(FullNode::new(chain).expect("known scheme")));
    let feed = MemoryFeed::new(all_blocks);
    feed.publisher().publish_all();
    let ingester = TipIngester::spawn_supervised(
        Arc::clone(&live),
        Arc::clone(&store),
        move || feed.clone(),
        IngestConfig::new().with_seed(seed),
    );
    let catchup_started = Instant::now();
    while live.tip_height() < blocks {
        assert!(
            catchup_started.elapsed() < DEADLINE,
            "final catch-up did not converge within the deadline"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = ingester.stop();
    assert_eq!(
        live.tip_hash(),
        truth_tip,
        "the converged chain's tip hash must equal the ground truth's"
    );
    assert_eq!(store.verify_all().expect("final full verification"), blocks);
    // Release every handle so the store's drop-time index flush runs
    // before the post-convergence reopen audits the directory.
    drop(live);
    drop(store);

    // One last full-chain verified query through the whole serving
    // stack: every probe, every height, against the full ground truth.
    let (chain, report) =
        lvq_store::open_chain(&dir, StoreConfig::default()).expect("post-convergence reopen");
    assert!(
        report.is_clean(),
        "a cleanly stopped store must reopen clean: {report:?}"
    );
    let full = Arc::new(FullNode::new(chain).expect("known scheme"));
    let server = NodeServer::bind(Arc::clone(&full), "127.0.0.1:0", ServerConfig::default())
        .expect("loopback bind");
    let mut transport = TcpTransport::connect(server.local_addr()).expect("server is listening");
    let mut light = LightNode::sync_from(&mut transport, config).expect("final header sync");
    assert_eq!(light.client().tip_height(), blocks);
    let spec = QuerySpec::addresses(addresses.clone()).range(1, blocks);
    let run = light.run(&spec, &mut transport).expect("final full query");
    let mut final_verified_txs = 0u64;
    for (qi, history) in run.histories.iter().enumerate() {
        let got: Vec<(u64, Hash256)> = history
            .transactions
            .iter()
            .map(|(height, tx)| (*height, tx.txid()))
            .collect();
        assert_eq!(got, truth[qi], "final full history deviates for probe {qi}");
        final_verified_txs += got.len() as u64;
    }
    server.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&ready);

    assert_eq!(corrupt_reopens, 0);
    assert_eq!(accepted_lies, 0);
    let max_recovery_ms = points.iter().map(|p| p.recovery_ms).max().unwrap_or(0);

    Crashloop {
        blocks,
        prefix,
        points,
        corrupt_reopens,
        accepted_lies,
        repaired_reopens,
        mid_ingest_kills,
        max_recovery_ms,
        final_verified_txs,
    }
}

/// The child half: open the store, serve it, follow the (throttled)
/// feed under supervision, announce readiness, and run until killed.
///
/// Invoked as `repro crashloop-child STORE_DIR READY_FILE SCALE SEED
/// THROTTLE_US`. Never returns `Ok` in practice — the parent SIGKILLs
/// it mid-flight; `Err` covers setup failures, for debuggability.
///
/// # Errors
///
/// Returns a message if the arguments are malformed or the store
/// cannot be opened and served.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let [dir, ready, scale, seed, throttle_us] = args else {
        return Err("usage: crashloop-child STORE_DIR READY_FILE SCALE SEED THROTTLE_US".into());
    };
    let scale = Scale::parse(scale).ok_or(format!("unknown scale '{scale}'"))?;
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed '{seed}'"))?;
    let throttle_us: u64 = throttle_us
        .parse()
        .map_err(|_| format!("bad throttle '{throttle_us}'"))?;

    // The feed is the ground-truth chain, rebuilt deterministically
    // from the same (scale, seed) the parent used.
    let spec = WorkloadSpec {
        seed,
        ..WorkloadSpec::paper_default(Scheme::Lvq, scale)
    };
    let workload = build_workload(spec);
    let blocks = workload.chain.tip_height();
    let all_blocks: Vec<Block> = (1..=blocks)
        .map(|h| (*workload.chain.block(h).expect("ground-truth block")).clone())
        .collect();
    drop(workload);

    let (chain, _report) = lvq_store::open_chain(dir, StoreConfig::default())
        .map_err(|e| format!("open store: {e}"))?;
    let store = Arc::clone(chain.source().store());
    let live = Arc::new(LiveNode::new(
        FullNode::new(chain).map_err(|e| format!("serve chain: {e}"))?,
    ));
    let server = NodeServer::bind(
        Arc::clone(&live),
        "127.0.0.1:0",
        ServerConfig::default().with_workers(2),
    )
    .map_err(|e| format!("bind: {e}"))?;

    let master = MemoryFeed::new(all_blocks);
    master.publisher().publish_all();
    let throttle = Duration::from_micros(throttle_us);
    let make_feed = move || ThrottledFeed {
        inner: master.clone(),
        throttle,
    };
    let ingester = TipIngester::spawn_supervised(
        Arc::clone(&live),
        store,
        make_feed,
        IngestConfig::new()
            .with_min_batch(1)
            .with_max_batch(2)
            .with_poll(Duration::from_millis(1))
            .with_seed(seed),
    );
    server.attach_ingest(ingester.monitor());
    server.watch_health(ingester.health().clone());

    // Announce readiness atomically (tmp + rename), then serve until
    // the parent's SIGKILL arrives.
    let ready_path = PathBuf::from(ready);
    let tmp = ready_path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp).map_err(|e| format!("ready file: {e}"))?;
        writeln!(file, "{}", server.local_addr()).map_err(|e| format!("ready file: {e}"))?;
    }
    std::fs::rename(&tmp, &ready_path).map_err(|e| format!("ready file: {e}"))?;
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}

/// A feed that sleeps before every fetch — slow enough that the
/// parent's kill schedule reliably lands mid-ingest.
struct ThrottledFeed {
    inner: MemoryFeed,
    throttle: Duration,
}

impl BlockFeed for ThrottledFeed {
    fn fetch(&mut self, from: u64, max: u64) -> Result<Vec<Block>, FeedError> {
        std::thread::sleep(self.throttle);
        self.inner.fetch(from, max)
    }
}

impl std::fmt::Display for Crashloop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Crash loop — {} SIGKILL/restart cycles over a real serving process, {} blocks \
             ({} persisted up front): {} corrupt reopens, {} accepted lies, {} repaired reopens, \
             {} kills mid-ingest, worst recovery {} ms",
            self.points.len(),
            self.blocks,
            self.prefix,
            self.corrupt_reopens,
            self.accepted_lies,
            self.repaired_reopens,
            self.mid_ingest_kills,
            self.max_recovery_ms
        )?;
        let mut table = Table::new(&[
            "Cycle",
            "Tip at reopen",
            "Repaired",
            "Reopen+verify",
            "Recovery",
            "Queries ok",
            "Retries",
            "Verified txs",
        ]);
        for (i, p) in self.points.iter().enumerate() {
            table.row(vec![
                format!("kill #{}", i + 1),
                p.tip_at_open.to_string(),
                if p.repaired { "yes" } else { "-" }.to_string(),
                format!("{:.1} ms", p.reopen_us as f64 / 1e3),
                format!("{} ms", p.recovery_ms),
                p.queries.to_string(),
                p.retries.to_string(),
                p.verified_txs.to_string(),
            ]);
        }
        write!(f, "{table}")?;
        writeln!(f)?;
        writeln!(
            f,
            "(final convergence: tip hash equals ground truth, {} blocks re-verified, \
             {} transactions verified by the full-chain query)",
            self.blocks, self.final_verified_txs
        )
    }
}
