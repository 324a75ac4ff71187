//! Extra experiment: fork-aware serving under reorgs (`repro reorg`).
//!
//! Bitcoin's best chain is only *probabilistically* final: a competing
//! branch can out-length the tip and orphan recent blocks, and every
//! layer of the LVQ pipeline — store, derived state, serving node,
//! light clients — must survive the switch without ever passing off a
//! proof against an orphaned header as verified. This experiment
//! drives a fork-aware [`TipIngester`] through reorgs of depth
//! `1..=max_reorg_depth` while a light client queries mid-reorg,
//! hard-asserting:
//!
//! 1. **no proof against an orphaned header is ever accepted** — after
//!    every reorg, the client's first query is issued while its
//!    headers still pin the orphaned branch; the exchange must fail
//!    verification, never silently succeed;
//! 2. **every completed query equals post-reorg ground truth** — once
//!    the client resyncs (observing `HeadersDiverged` and rolling back
//!    to the fork point), the verified histories match the winning
//!    branch exactly: canonical plants above the fork vanish, the
//!    winner's marker plants appear;
//! 3. **a store reopened after a mid-reorg crash recovers to a
//!    consistent best chain** — the ingester is killed right after a
//!    reorg, the store reopened and checked clean, and a fresh
//!    ingester replays the whole announcement stream, converging
//!    without duplicating or losing state;
//! 4. **quorum clients converge on the majority tip** — a client
//!    synced from a node still serving the orphaned chain flags the
//!    majority peers as forked, then [`converge_on_majority`] switches
//!    it onto the winning branch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lvq_chain::Address;
use lvq_core::Scheme;
use lvq_crypto::Hash256;
use lvq_node::{
    converge_on_majority, query_quorum, FullNode, IngestConfig, IngestStats, LightNode, LiveNode,
    LocalTransport, MemoryFeed, NodeError, NodeServer, QuerySpec, ResyncOutcome, RetryPolicy,
    ServerConfig, TcpTransport, TipIngester, Transport,
};
use lvq_store::StoreConfig;
use lvq_workload::{BranchSpec, ForkBranch};

use crate::report::Table;
use crate::scale::Scale;
use crate::workloads::{build_forked_workload, built_probes, WorkloadSpec};

/// Reorg budget for the node, the ingester, and the clients. The
/// branch schedule below produces one reorg at every depth in
/// `1..=MAX_REORG_DEPTH`.
pub const MAX_REORG_DEPTH: u64 = 4;

/// How long to wait for an asynchronous condition (ingest catch-up,
/// reorg adoption) before giving up. Generous on purpose: the
/// ingester polls every couple of milliseconds, so in practice
/// conditions resolve far sooner.
const DEADLINE: Duration = Duration::from_secs(30);

/// One reorg round: a branch out-lengthed the served tip, the node
/// switched, and the client was dragged across the fork.
#[derive(Debug, Clone, Copy)]
pub struct ReorgRound {
    /// Blocks the serving chain rewound (old tip − fork height).
    pub depth: u64,
    /// Height of the last block shared by both branches.
    pub fork_height: u64,
    /// Served tip before the branch arrived.
    pub old_tip: u64,
    /// Served tip after adopting the branch.
    pub new_tip: u64,
    /// Blocks the *client* rolled back when it observed the fork.
    pub client_rollback: u64,
    /// Transactions verified by the post-reorg requery.
    pub verified_txs: u64,
}

/// The experiment data.
#[derive(Debug, Clone)]
pub struct Reorg {
    /// Canonical ground-truth chain length.
    pub blocks: u64,
    /// The reorg budget everything ran under.
    pub max_reorg_depth: u64,
    /// Height of the last block all branches share.
    pub fork_height: u64,
    /// One entry per reorg, in the order they happened.
    pub rounds: Vec<ReorgRound>,
    /// Stale-headed queries rejected (must equal the round count).
    pub orphan_rejections: u64,
    /// Ingest counters up to the mid-reorg crash.
    pub first_run: IngestStats,
    /// Ingest counters after the restart replay.
    pub second_run: IngestStats,
    /// Served tip right after the crash-reopen (must be the last
    /// adopted branch's tip).
    pub restart_tip: u64,
    /// Peer indices the quorum sweep flagged as forked.
    pub fork_peers: Vec<usize>,
    /// The quorum client's tip after majority convergence.
    pub converged_tip: u64,
    /// Best-chain tip hash everything agrees on at the end.
    pub best_tip_hash: Hash256,
    /// Server-side errors across both serving sessions (must be 0).
    pub server_errors: u64,
}

/// Polls `cond` until it holds or [`DEADLINE`] expires.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let started = Instant::now();
    while !cond() {
        assert!(started.elapsed() < DEADLINE, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `(height, txid)` ground truth for one address.
type History = Vec<(u64, Hash256)>;

/// A branch marker's plants as `(height, txid)` pairs.
fn marker_truth(branch: &ForkBranch) -> History {
    branch
        .blocks
        .iter()
        .enumerate()
        .flat_map(|(i, block)| {
            let height = branch.fork_height + 1 + i as u64;
            block
                .transactions
                .iter()
                .filter(|tx| tx.involves(&branch.marker.address))
                .map(move |tx| (height, tx.txid()))
        })
        .collect()
}

/// Queries every address at the client's pinned tip and asserts each
/// verified history equals its expectation. Returns transactions
/// verified.
fn verify_expected(
    light: &mut LightNode,
    transport: &mut TcpTransport,
    addresses: &[Address],
    expected: &[History],
    what: &str,
) -> u64 {
    let pinned = light.client().tip_height();
    let spec = QuerySpec::addresses(addresses.to_vec()).range(1, pinned);
    let run = light
        .run(&spec, transport)
        .expect("post-reorg query against the honest winner must succeed");
    let mut verified = 0u64;
    for (qi, history) in run.histories.iter().enumerate() {
        let got: History = history
            .transactions
            .iter()
            .map(|(height, tx)| (*height, tx.txid()))
            .collect();
        assert_eq!(
            got, expected[qi],
            "{what}: address {qi} deviates from post-reorg ground truth at tip {pinned}"
        );
        verified += got.len() as u64;
    }
    verified
}

/// Drives one reorg round: waits for the server to adopt the branch,
/// asserts the stale-headed query is rejected, resyncs across the
/// fork, and re-verifies every address against post-reorg truth.
#[allow(clippy::too_many_arguments)]
fn reorg_round(
    live: &LiveNode<lvq_store::DiskBlockSource>,
    light: &mut LightNode,
    transport: &mut TcpTransport,
    branch: &ForkBranch,
    addresses: &[Address],
    expected: &[History],
    orphan_rejections: &mut u64,
) -> ReorgRound {
    let old_tip = light.client().tip_height();
    let new_tip = branch.fork_height + branch.blocks.len() as u64;
    let branch_tip_hash = branch
        .blocks
        .last()
        .expect("non-empty branch")
        .header
        .block_hash();
    wait_for("the server to adopt the longer branch", || {
        live.tip_height() == new_tip && live.tip_hash() == branch_tip_hash
    });

    // The client still pins the orphaned branch: its next query covers
    // heights where its headers and the server's chain disagree, and
    // MUST fail verification — claim 1, the heart of the experiment.
    let stale = QuerySpec::addresses(addresses.to_vec()).range(1, old_tip);
    let err = light
        .run(&stale, &mut *transport)
        .expect_err("a proof against orphaned headers must never verify");
    assert!(
        matches!(err, NodeError::Verify(_)),
        "stale-headed query failed for the wrong reason: {err}"
    );
    *orphan_rejections += 1;

    // Resync: the walk-back finds the fork point, rolls the client
    // back within its budget, and adopts the winner's headers.
    let outcome = light
        .sync_new(&mut *transport)
        .expect("post-reorg resync against an honest server");
    assert_eq!(
        outcome,
        ResyncOutcome::Diverged {
            fork_height: branch.fork_height
        },
        "resync must report divergence at the fork point"
    );
    assert_eq!(light.client().tip_height(), new_tip);
    assert_eq!(
        light.client().hash_at(new_tip),
        Some(branch_tip_hash),
        "the client must land on the winning branch's tip header"
    );

    let verified_txs = verify_expected(light, transport, addresses, expected, "requery");
    ReorgRound {
        depth: old_tip - branch.fork_height,
        fork_height: branch.fork_height,
        old_tip,
        new_tip,
        client_rollback: old_tip - branch.fork_height,
        verified_txs,
    }
}

/// Runs the experiment under full LVQ.
///
/// # Panics
///
/// Panics if any of the four claims in the module docs fails.
pub fn run(scale: Scale, seed: u64) -> Reorg {
    let spec = WorkloadSpec {
        seed,
        ..WorkloadSpec::paper_default(Scheme::Lvq, scale)
    };
    // Every branch forks one block below the canonical tip `L` and is
    // one block longer than the previous winner, so the served chain
    // rewinds exactly 1, 2, 3, then 4 blocks — one reorg per depth in
    // the budget, with the last one landing right at the bound.
    let branch_specs: Vec<BranchSpec> = (1..=MAX_REORG_DEPTH)
        .map(|k| BranchSpec::new(1, k + 1, format!("1Reorg{k}")))
        .collect();
    let forked = build_forked_workload(spec, &branch_specs);
    let canon = &forked.workload.chain;
    let blocks = canon.tip_height();
    let fork_height = blocks - 1;

    let probes: Vec<Address> = built_probes(&forked.workload)
        .into_iter()
        .map(|(_, address)| address)
        .collect();
    // All queried addresses: the Table III probes plus every branch
    // marker — so each round also proves the *losing* markers vanish.
    let mut addresses = probes.clone();
    addresses.extend(forked.branches.iter().map(|b| b.marker.address.clone()));

    // Ground truth: canonical histories in full and clipped at the
    // fork, marker histories per branch.
    let canon_truth: Vec<History> = probes
        .iter()
        .map(|a| {
            canon
                .history_of(a)
                .into_iter()
                .map(|(height, tx)| (height, tx.txid()))
                .collect()
        })
        .collect();
    let clipped_truth: Vec<History> = canon_truth
        .iter()
        .map(|h| {
            h.iter()
                .copied()
                .filter(|(height, _)| *height <= fork_height)
                .collect()
        })
        .collect();
    let markers_truth: Vec<History> = forked.branches.iter().map(marker_truth).collect();
    // Expected histories once branch `k` (0-based) has won: probes
    // clipped at the fork, marker `k` planted, every other marker gone.
    let expected_after = |k: usize| -> Vec<History> {
        let mut expected = clipped_truth.clone();
        for (i, marker) in markers_truth.iter().enumerate() {
            expected.push(if i == k { marker.clone() } else { Vec::new() });
        }
        expected
    };
    // Before any fork arrives the full canonical truth holds.
    let mut expected_canonical = canon_truth.clone();
    expected_canonical.extend(std::iter::repeat_n(Vec::new(), forked.branches.len()));

    let all_blocks: Vec<lvq_chain::Block> = (1..=blocks)
        .map(|h| (*canon.block(h).expect("ground-truth block")).clone())
        .collect();
    let params = canon.params();

    // The announcement script the feed publishes, in order: the whole
    // canonical chain, then each branch as it out-lengths the tip.
    let mut script = all_blocks.clone();
    for branch in &forked.branches {
        script.extend(branch.blocks.iter().cloned());
    }
    let canonical_announcements = blocks;
    let announcements_through = |k: usize| -> u64 {
        canonical_announcements
            + forked.branches[..=k]
                .iter()
                .map(|b| b.blocks.len() as u64)
                .sum::<u64>()
    };

    let dir = std::env::temp_dir().join(format!("lvq-reorg-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        lvq_store::BlockStore::create(&dir, params, StoreConfig::default()).expect("fresh store");
    }

    // ---- Phase 1: grow the canonical chain, reorg twice, crash. ----
    let (chain, report) =
        lvq_store::open_chain(&dir, StoreConfig::default()).expect("open the empty store");
    assert!(report.is_clean(), "fresh store must open clean: {report:?}");
    let store = Arc::clone(chain.source().store());
    let live = Arc::new(LiveNode::new(FullNode::new(chain).expect("known scheme")));
    let server = NodeServer::bind(Arc::clone(&live), "127.0.0.1:0", ServerConfig::default())
        .expect("loopback bind");

    let mut transport = TcpTransport::connect(server.local_addr()).expect("server is listening");
    let mut light = LightNode::sync_from(&mut transport, live.config())
        .expect("initial header sync")
        .with_max_reorg_depth(MAX_REORG_DEPTH);

    let feed = MemoryFeed::new(script.clone());
    let publisher = feed.publisher();
    let ingester = TipIngester::spawn(
        Arc::clone(&live),
        Arc::clone(&store),
        feed,
        IngestConfig::new()
            .with_seed(seed)
            .with_max_reorg_depth(MAX_REORG_DEPTH),
    );
    server.attach_ingest(ingester.monitor());

    // Canonical growth first: the client follows to tip `L` and
    // verifies the full canonical truth.
    publisher.publish(canonical_announcements);
    wait_for("the client to observe the canonical tip", || {
        light.sync_new(&mut transport).expect("header sync");
        light.client().tip_height() >= blocks
    });
    verify_expected(
        &mut light,
        &mut transport,
        &addresses,
        &expected_canonical,
        "canonical baseline",
    );

    let mut rounds = Vec::new();
    let mut orphan_rejections = 0u64;
    for k in 0..2usize {
        publisher.publish(forked.branches[k].blocks.len() as u64);
        let expected = expected_after(k);
        rounds.push(reorg_round(
            &live,
            &mut light,
            &mut transport,
            &forked.branches[k],
            &addresses,
            &expected,
            &mut orphan_rejections,
        ));
    }

    // Crash right after the depth-2 reorg: stop the ingester, tear the
    // node down, and check what the store recovered to.
    let first_run = ingester.stop().expect("clean ingest stop");
    assert_eq!(first_run.reorgs, 2, "phase 1 performed both reorgs");
    assert_eq!(first_run.deepest_reorg, 2);
    let stats1 = server.shutdown();
    assert_eq!(stats1.errors, 0, "phase 1 served with errors");
    let crash_tip_hash = forked.branches[1]
        .blocks
        .last()
        .expect("non-empty branch")
        .header
        .block_hash();
    assert_eq!(
        stats1.tip_hash, crash_tip_hash,
        "exit stats must report the adopted branch's tip hash"
    );
    drop(live);
    drop(store);

    // ---- Phase 2: reopen, replay the stream, reorg twice more. ----
    let (chain, report) =
        lvq_store::open_chain(&dir, StoreConfig::default()).expect("reopen after mid-reorg crash");
    assert!(
        report.is_clean(),
        "a mid-reorg crash must leave a recoverable store: {report:?}"
    );
    let restart_tip = chain.tip_height();
    assert_eq!(restart_tip, blocks + 2, "recovered to the depth-2 winner");
    assert_eq!(
        chain.tip_hash(),
        crash_tip_hash,
        "the reopened store must sit on the adopted branch"
    );
    assert!(
        !chain
            .source()
            .store()
            .fork_log()
            .expect("readable fork log")
            .is_empty(),
        "the fork sidecar log must have journaled the displaced blocks"
    );
    let store = Arc::clone(chain.source().store());
    let live = Arc::new(LiveNode::new(FullNode::new(chain).expect("known scheme")));
    let server = NodeServer::bind(Arc::clone(&live), "127.0.0.1:0", ServerConfig::default())
        .expect("loopback bind");

    // A fresh ingester replays the whole announcement stream from the
    // start: already-canonical blocks classify as duplicates, orphaned
    // ones as stored forks, and the chain does not move.
    let feed = MemoryFeed::new(script.clone());
    let publisher = feed.publisher();
    let ingester = TipIngester::spawn(
        Arc::clone(&live),
        Arc::clone(&store),
        feed,
        IngestConfig::new()
            .with_seed(seed ^ 1)
            .with_max_reorg_depth(MAX_REORG_DEPTH),
    );
    server.attach_ingest(ingester.monitor());

    // The same client reconnects and carries its branch-2 headers over.
    let mut transport = TcpTransport::connect(server.local_addr()).expect("server is listening");
    for k in 2..4usize {
        publisher.publish(announcements_through(k) - publisher.published());
        let expected = expected_after(k);
        rounds.push(reorg_round(
            &live,
            &mut light,
            &mut transport,
            &forked.branches[k],
            &addresses,
            &expected,
            &mut orphan_rejections,
        ));
    }

    // ---- Phase 3: quorum. A node still serving the orphaned ----
    // ---- canonical chain vs. the majority on the winner.      ----
    let loser = FullNode::new(forked.workload.chain).expect("known scheme");
    let mut loser_peer = LocalTransport::new(&loser);
    let mut live_peer_a = TcpTransport::connect(server.local_addr()).expect("listening");
    let mut live_peer_b = TcpTransport::connect(server.local_addr()).expect("listening");

    // A client synced from the loser sits on the orphaned chain.
    let mut quorum_light = LightNode::sync_from(&mut loser_peer, loser.config())
        .expect("sync from the orphaned node")
        .with_max_reorg_depth(MAX_REORG_DEPTH);
    assert_eq!(quorum_light.client().tip_height(), blocks);

    // Below the fork all three peers agree and serve; the sweep's tip
    // census still flags the two majority peers as forked.
    let below_fork = QuerySpec::addresses(probes.clone()).range(1, fork_height);
    let report = {
        let mut peers: Vec<&mut dyn Transport> =
            vec![&mut loser_peer, &mut live_peer_a, &mut live_peer_b];
        query_quorum(
            quorum_light.client(),
            &mut peers,
            &below_fork,
            &RetryPolicy::default(),
            seed,
        )
        .expect("sub-fork quorum query")
    };
    assert_eq!(
        report.fork_peers,
        vec![1, 2],
        "both majority peers must be flagged as forked"
    );

    // Convergence: two fork peers out-vote the one endorsing the
    // orphaned chain, and the client switches to the majority tip.
    let final_tip = blocks + MAX_REORG_DEPTH;
    let best_tip_hash = forked.branches[3]
        .blocks
        .last()
        .expect("non-empty branch")
        .header
        .block_hash();
    let convergence = {
        let mut peers: Vec<&mut dyn Transport> =
            vec![&mut loser_peer, &mut live_peer_a, &mut live_peer_b];
        converge_on_majority(&mut quorum_light, &mut peers).expect("majority convergence")
    };
    assert!(convergence.switched(), "the client must switch branches");
    assert_eq!(convergence.synced_from, Some(1));
    assert_eq!(
        convergence.outcome,
        ResyncOutcome::Diverged { fork_height },
        "convergence crosses the fork at the shared prefix"
    );
    assert_eq!(quorum_light.client().tip_height(), final_tip);
    assert_eq!(
        quorum_light.client().hash_at(final_tip),
        Some(best_tip_hash)
    );

    // ---- Wind down and settle the books. ----
    let second_run = ingester.stop().expect("clean ingest stop");
    assert_eq!(second_run.reorgs, 2, "phase 2 performed both reorgs");
    assert_eq!(second_run.deepest_reorg, MAX_REORG_DEPTH);
    assert_eq!(
        first_run.reorgs + second_run.reorgs,
        MAX_REORG_DEPTH,
        "one reorg per depth in the budget"
    );
    assert_eq!(
        live.tip_hash(),
        best_tip_hash,
        "the served chain must end on the deepest winner"
    );
    let stats2 = server.shutdown();
    assert_eq!(stats2.errors, 0, "phase 2 served with errors");
    assert_eq!(stats2.tip_hash, best_tip_hash);
    assert_eq!(
        orphan_rejections,
        rounds.len() as u64,
        "every reorg must have rejected exactly one stale-headed query"
    );

    let _ = std::fs::remove_dir_all(&dir);

    Reorg {
        blocks,
        max_reorg_depth: MAX_REORG_DEPTH,
        fork_height,
        rounds,
        orphan_rejections,
        first_run,
        second_run,
        restart_tip,
        fork_peers: report.fork_peers,
        converged_tip: final_tip,
        best_tip_hash,
        server_errors: stats1.errors + stats2.errors,
    }
}

impl std::fmt::Display for Reorg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fork-aware serving — LVQ over TCP, {} canonical blocks, reorg budget {}, \
             {} stale-headed queries rejected ({} server errors)",
            self.blocks, self.max_reorg_depth, self.orphan_rejections, self.server_errors
        )?;
        let mut table = Table::new(&[
            "Reorg",
            "Fork height",
            "Old tip",
            "New tip",
            "Client rollback",
            "Verified txs",
        ]);
        for (i, r) in self.rounds.iter().enumerate() {
            table.row(vec![
                format!("depth {}", r.depth),
                r.fork_height.to_string(),
                r.old_tip.to_string(),
                r.new_tip.to_string(),
                r.client_rollback.to_string(),
                format!(
                    "{}{}",
                    r.verified_txs,
                    if i == 1 { "  (crash+replay after)" } else { "" }
                ),
            ]);
        }
        write!(f, "{table}")?;
        writeln!(f)?;
        writeln!(
            f,
            "(crash after depth-2 reorg recovered to tip {}; replay: run 1 {} reorgs \
             deepest {}, run 2 {} reorgs deepest {}, {} announced blocks dropped)",
            self.restart_tip,
            self.first_run.reorgs,
            self.first_run.deepest_reorg,
            self.second_run.reorgs,
            self.second_run.deepest_reorg,
            self.first_run.dropped_blocks + self.second_run.dropped_blocks,
        )?;
        writeln!(
            f,
            "(quorum: fork peers {:?} out-voted the orphaned chain; client converged \
             at tip {})",
            self.fork_peers, self.converged_tip
        )?;
        writeln!(f, "best tip hash: {}", self.best_tip_hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reorgs_never_leak_orphaned_proofs() {
        let result = run(Scale::Small, 5);
        assert_eq!(result.server_errors, 0);
        assert_eq!(result.rounds.len(), MAX_REORG_DEPTH as usize);
        assert_eq!(result.orphan_rejections, MAX_REORG_DEPTH);
        for (i, round) in result.rounds.iter().enumerate() {
            assert_eq!(round.depth, i as u64 + 1, "one reorg per depth, in order");
            assert_eq!(round.fork_height, result.fork_height);
            assert_eq!(round.client_rollback, round.depth);
            assert!(round.verified_txs > 0);
        }
        assert_eq!(result.restart_tip, result.blocks + 2);
        assert_eq!(result.fork_peers, vec![1, 2]);
        assert_eq!(result.converged_tip, result.blocks + MAX_REORG_DEPTH);
    }
}
