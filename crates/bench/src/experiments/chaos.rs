//! Extra experiment: self-healing clients under chaos (`repro chaos`).
//!
//! The paper's trust model says a light node trusts *proofs*, not
//! *peers* — so a misbehaving transport must never cost correctness,
//! only patience. This experiment stands up a live worker-pool
//! [`NodeServer`] over loopback TCP and sweeps seeded composite fault
//! rates (0%, 1%, 5%, 20%: dropped connections, spurious `Busy`, stale
//! replies, truncations, bit flips, injected latency) through a
//! three-peer quorum client stack — [`FaultyTransport`] over
//! [`TcpTransport`], driven by [`query_quorum`]'s per-peer
//! retries — plus one permanently dead peer, and demonstrates three
//! claims:
//!
//! 1. **100% eventual success** — every probe query completes within
//!    the retry budget at every fault rate, even with one of four
//!    peers permanently down (graceful k-of-n degradation);
//! 2. **zero incorrect verifications** — every answer equals the
//!    chain's ground truth exactly; corrupted responses only ever cost
//!    a retry or take a peer out of the quorum, never poison a result;
//! 3. **reproducibility** — the entire fault schedule, retry history,
//!    and byte traffic replay bit-for-bit under the same seed (each
//!    rate is run twice and the outcomes compared; only wall-clock
//!    latency may differ).

use std::sync::Arc;
use std::time::{Duration, Instant};

use lvq_chain::Address;
use lvq_core::{LightClient, Scheme};
use lvq_crypto::Hash256;
use lvq_node::{
    query_quorum, FaultPlan, FaultStats, FaultyTransport, FullNode, NodeServer, PeerOutcome,
    QuerySpec, RetryPolicy, ServerConfig, TcpTransport, Transport,
};

use crate::report::Table;
use crate::scale::Scale;
use crate::workloads::{build_workload, built_probes, WorkloadSpec};

/// Composite fault rates swept (fraction of exchanges corrupted).
const RATES: &[f64] = &[0.0, 0.01, 0.05, 0.20];

/// Live (merely faulty) peers in the quorum.
const LIVE_PEERS: usize = 3;

/// Sweeps of the whole probe list per rate, so the rarer fault rates
/// see enough exchanges to actually fire.
const PASSES: usize = 3;

/// Per-peer retry budget at every rate: 10 attempts, 2–20ms
/// decorrelated-jitter backoff, no wall-clock deadline (determinism).
fn retry_policy() -> RetryPolicy {
    RetryPolicy::new(10).backoff(Duration::from_millis(2), Duration::from_millis(20))
}

/// One rate's aggregate outcome.
#[derive(Debug, Clone)]
pub struct RatePoint {
    /// Composite fault rate in percent.
    pub rate_percent: f64,
    /// Probe queries issued.
    pub queries: usize,
    /// Queries that exhausted the whole quorum — must be zero.
    pub failures: u64,
    /// Faults the injection layer actually fired across the live
    /// peers (the dead fixture's unconditional drops are excluded so
    /// the 0% row reads as exactly fault-free).
    pub faults_injected: u64,
    /// Attempts across the live peers and all queries.
    pub attempts: u64,
    /// Live-peer retries (attempts beyond each peer's first; the dead
    /// fixture exhausts its budget every query by construction).
    pub retries: u64,
    /// Queries that lost at least one peer (dead peer included — so
    /// with the permanently dead peer this equals `queries`).
    pub degraded_queries: u64,
    /// Fewest peers serving any single query.
    pub served_min: usize,
    /// Mean per-query wall-clock latency in microseconds.
    pub mean_latency_us: u64,
    /// Worst per-query wall-clock latency in microseconds.
    pub max_latency_us: u64,
}

/// Everything a rate produces that must replay exactly under the same
/// seed (wall-clock latency excluded — it is a measurement, not an
/// outcome).
#[derive(Debug, Clone, PartialEq, Eq)]
struct RateSignature {
    fault_stats: Vec<FaultStats>,
    attempts: u64,
    retries: u64,
    request_bytes: u64,
    response_bytes: u64,
    history_digests: Vec<Vec<(u64, Hash256)>>,
}

/// The experiment data.
#[derive(Debug, Clone)]
pub struct Chaos {
    /// Live peers per query (plus one permanently dead peer).
    pub live_peers: usize,
    /// Ground-truth transactions over all probe addresses.
    pub truth_total: u64,
    /// One aggregate per swept fault rate.
    pub points: Vec<RatePoint>,
    /// Whether every rate replayed bit-for-bit on its second run.
    pub reproducible: bool,
}

/// Runs the sweep against a live TCP server.
///
/// # Panics
///
/// Panics if any query fails to complete within the retry budget, if
/// any verified history deviates from the chain's ground truth, or if
/// a rate's second same-seed run diverges from its first — each would
/// break one of the three claims above.
pub fn run(scale: Scale, seed: u64) -> Chaos {
    let spec = WorkloadSpec {
        seed,
        ..WorkloadSpec::paper_default(Scheme::Lvq, scale)
    };
    let workload = build_workload(spec);
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
    let truth_total: u64 = truth.iter().map(|h| h.len() as u64).sum();

    let full = Arc::new(FullNode::new(workload.chain).expect("known scheme"));
    let client = LightClient::new(full.config(), full.chain().headers());
    // A worker owns its connection for the whole session, so the pool
    // must be at least as wide as the quorum (live peers + the dead
    // one) or the peers would starve each other rather than the faults.
    let config = ServerConfig::default().with_workers(LIVE_PEERS + 1);
    let server = NodeServer::bind(Arc::clone(&full), "127.0.0.1:0", config).expect("loopback bind");
    let addr = server.local_addr();

    let mut points = Vec::new();
    let mut reproducible = true;
    for (ri, &rate) in RATES.iter().enumerate() {
        let (point, signature) = run_rate(&client, addr, &addresses, &truth, rate, seed, ri);
        // The whole point of seeded chaos: the same seed must replay
        // the same faults, retries, bytes, and answers.
        let (_, replay) = run_rate(&client, addr, &addresses, &truth, rate, seed, ri);
        reproducible &= signature == replay;
        assert!(
            signature == replay,
            "rate {rate}: same-seed replay diverged"
        );
        points.push(point);
    }

    let stats = server.shutdown();
    assert_eq!(
        stats.errors, 0,
        "fault injection lives in the client stack; the server sees only well-formed requests"
    );

    Chaos {
        live_peers: LIVE_PEERS,
        truth_total,
        points,
        reproducible,
    }
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (a << 32) ^ b
}

fn run_rate(
    client: &LightClient,
    addr: std::net::SocketAddr,
    addresses: &[Address],
    truth: &[Vec<(u64, Hash256)>],
    rate: f64,
    seed: u64,
    rate_index: usize,
) -> (RatePoint, RateSignature) {
    let policy = retry_policy();
    let plan = FaultPlan::composite(rate);
    // Three live-but-faulty peers: separate TCP connections to the
    // server, each mistreated by its own seeded injector.
    let mut live: Vec<FaultyTransport<TcpTransport>> = (0..LIVE_PEERS)
        .map(|p| {
            let conn = TcpTransport::connect(addr).expect("server is listening");
            FaultyTransport::new(conn, plan, mix(seed, rate_index as u64, p as u64))
        })
        .collect();
    // Plus one peer that is down for good: every exchange drops. The
    // quorum must degrade gracefully around it at every rate.
    let mut dead = FaultyTransport::new(
        TcpTransport::connect(addr).expect("server is listening"),
        FaultPlan {
            drop_prob: 1.0,
            ..FaultPlan::none()
        },
        mix(seed, rate_index as u64, 0xDEAD),
    );

    let mut failures = 0u64;
    let mut attempts = 0u64;
    let mut retries = 0u64;
    let mut degraded_queries = 0u64;
    let mut served_min = LIVE_PEERS + 1;
    let mut latencies_us: Vec<u64> = Vec::with_capacity(addresses.len());
    let mut request_bytes = 0u64;
    let mut response_bytes = 0u64;
    let mut history_digests = Vec::with_capacity(addresses.len());

    for (pass_qi, (qi, address)) in (0..PASSES)
        .flat_map(|_| addresses.iter().enumerate())
        .enumerate()
    {
        let spec = QuerySpec::address(address.clone());
        let started = Instant::now();
        let report = {
            let mut peers: Vec<&mut dyn Transport> =
                live.iter_mut().map(|t| t as &mut dyn Transport).collect();
            peers.push(&mut dead as &mut dyn Transport);
            query_quorum(
                client,
                peers.as_mut_slice(),
                &spec,
                &policy,
                mix(seed, rate_index as u64, 0x1000 + pass_qi as u64),
            )
        };
        latencies_us.push(started.elapsed().as_micros() as u64);
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                failures += 1;
                panic!(
                    "query {qi} at rate {rate} exhausted the whole quorum: {e} \
                     ({failures} failures — the retry budget must absorb every fault)"
                );
            }
        };
        // Claim 2: the merged answer IS the ground truth — a corrupted
        // response that verified would show up right here.
        let got: Vec<(u64, Hash256)> = report.histories[0]
            .transactions
            .iter()
            .map(|(height, tx)| (*height, tx.txid()))
            .collect();
        assert_eq!(
            got, truth[qi],
            "rate {rate}, query {qi}: verified history deviates from ground truth"
        );
        history_digests.push(got);

        for peer in &report.peers[..LIVE_PEERS] {
            attempts += peer.attempts;
            retries += peer.retries;
            // The dead peer is unreachable by construction; a live peer
            // must never be *rejected* — no corrupted reply may look
            // like a provably-lying peer... except a stale replay of a
            // different query's response, which verifies as exactly
            // that. Rejection is a sound outcome; losing the answer
            // would not be.
            if let PeerOutcome::Rejected(e) = &peer.outcome {
                assert!(
                    !matches!(e, lvq_node::NodeError::Verify(_)) || rate > 0.0,
                    "fault-free peer rejected for verification: {e}"
                );
            }
        }
        let served = report.served();
        served_min = served_min.min(served);
        if report.is_degraded() {
            degraded_queries += 1;
        }
        request_bytes += report.traffic.request_bytes;
        response_bytes += report.traffic.response_bytes;
    }

    let faults_injected = live.iter().map(|t| t.stats().injected()).sum::<u64>();
    let fault_stats: Vec<FaultStats> = live
        .iter()
        .map(FaultyTransport::stats)
        .chain(std::iter::once(dead.stats()))
        .collect();

    let mean_latency_us = latencies_us.iter().sum::<u64>() / latencies_us.len().max(1) as u64;
    let max_latency_us = latencies_us.iter().copied().max().unwrap_or(0);

    (
        RatePoint {
            rate_percent: rate * 100.0,
            queries: addresses.len() * PASSES,
            failures,
            faults_injected,
            attempts,
            retries,
            degraded_queries,
            served_min,
            mean_latency_us,
            max_latency_us,
        },
        RateSignature {
            fault_stats,
            attempts,
            retries,
            request_bytes,
            response_bytes,
            history_digests,
        },
    )
}

impl std::fmt::Display for Chaos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Chaos — LVQ over live TCP, {} faulty peers + 1 dead peer, {} ground-truth transactions, \
             every rate replayed twice ({})",
            self.live_peers,
            self.truth_total,
            if self.reproducible {
                "bit-reproducible"
            } else {
                "NOT reproducible"
            }
        )?;
        let mut table = Table::new(&[
            "Fault rate",
            "Queries",
            "Failures",
            "Faults",
            "Attempts",
            "Retries",
            "Peers served (min)",
            "Latency mean/max",
        ]);
        for p in &self.points {
            table.row(vec![
                format!("{:.0}%", p.rate_percent),
                p.queries.to_string(),
                p.failures.to_string(),
                p.faults_injected.to_string(),
                p.attempts.to_string(),
                p.retries.to_string(),
                format!("{} of {}", p.served_min, self.live_peers + 1),
                format!(
                    "{:.1} ms / {:.1} ms",
                    p.mean_latency_us as f64 / 1e3,
                    p.max_latency_us as f64 / 1e3
                ),
            ]);
        }
        write!(f, "{table}")?;
        writeln!(f)?;
        let baseline = self.points.first().map(|p| p.mean_latency_us).unwrap_or(0);
        if let (Some(worst), true) = (self.points.last(), baseline > 0) {
            writeln!(
                f,
                "(latency inflation at {:.0}% faults: mean {:.2}x over the fault-free sweep; \
                 zero failed queries and zero incorrect verifications at every rate)",
                worst.rate_percent,
                worst.mean_latency_us as f64 / baseline as f64,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_sweep_succeeds_and_replays() {
        let result = run(Scale::Small, 5);
        assert_eq!(result.points.len(), RATES.len());
        assert!(result.reproducible);
        for point in &result.points {
            assert_eq!(point.failures, 0, "every query within the retry budget");
            // The dead peer degrades every query; the live ones serve.
            assert_eq!(point.degraded_queries, point.queries as u64);
            assert!(point.served_min >= 1);
        }
        // The fault-free point is exactly that.
        assert_eq!(result.points[0].faults_injected, 0);
        assert_eq!(result.points[0].retries, 0);
        // And the 20% point really does inject and really does retry.
        let worst = result.points.last().unwrap();
        assert!(worst.faults_injected > 0);
        assert!(worst.retries > 0);
    }
}
