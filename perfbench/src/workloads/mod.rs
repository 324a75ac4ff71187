//! The four workloads and the machinery they share: the seeded request
//! list, the closed-loop window runner, the correctness gate and the
//! tamper canary.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::rng::Rng;
use crate::span::Recorder;
use crate::spec::{self, Shape};
use crate::stats;
use crate::surface::{Addr, Answer, Built, Fault, History, Peer, Query, Verifier};

pub mod cold_store;
pub mod heavy_local;
pub mod ingest_live;
pub mod light_tcp;
pub mod staged;

/// RNG streams: the chain, the mix, the arrivals and the canary never
/// share draws.
pub const STREAM_MIX: u64 = 1;
pub const STREAM_ARRIVALS: u64 = 2;
pub const STREAM_CANARY: u64 = 3;
const STREAM_WALLETS: u64 = 4;

/// Light wallets a request mix draws present addresses from. Many of
/// them, so that the luck of one address's Bloom positions does not
/// decide a seed's numbers.
const WALLETS: usize = 64;
/// A light wallet appears in at most this many transactions.
const WALLET_MAX_TXS: u32 = 4;

/// The seeded pick of light wallets of a chain, each with its ground
/// truth.
pub fn pick_wallets(built: &Built, seed: u64) -> Result<Vec<(Addr, History)>, String> {
    let mut pick = Rng::new(seed, STREAM_WALLETS);
    let wallets = built.light_wallets(WALLETS, WALLET_MAX_TXS, |n| pick.below(n));
    if wallets.is_empty() {
        return Err("the chain has no light wallet".into());
    }
    Ok(wallets)
}

/// Everything one run is parameterised by.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// `--seed`: chain, request mix and arrival schedule.
    pub seed: u64,
    /// `--seconds` and `--quick`.
    pub shape: Shape,
    /// Scratch directory for stores, inside the build directory.
    pub work_dir: PathBuf,
}

/// One entry of a workload's seeded request list.
pub struct Request {
    pub query: Query,
    /// The v1-encoded request, for the hand-driven pipelined path.
    pub encoded: Vec<u8>,
    /// Ground truth (`Chain::history_of`, clipped to the query's
    /// range): one history per target.
    pub truth: Vec<History>,
}

impl Request {
    pub fn new(query: Query, truth: Vec<History>) -> Self {
        Request {
            encoded: query.encode(),
            query,
            truth,
        }
    }
}

/// Ground truth clipped to `lo..=hi`.
pub fn clip(history: &History, lo: u64, hi: u64) -> History {
    history
        .iter()
        .filter(|(height, _)| (lo..=hi).contains(height))
        .cloned()
        .collect()
}

/// Attempted requests and why the failed ones failed. A failed request
/// has no latency sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub busy: u64,
    pub deadline: u64,
    pub wire: u64,
    pub verify: u64,
    /// Verified, but not the ground truth.
    pub mismatch: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.busy + self.deadline + self.wire + self.verify + self.mismatch
    }

    /// The correctness gate: counts one completed request and says
    /// whether its verified histories equal ground truth.
    pub fn admit(&mut self, result: &Result<Vec<History>, Fault>, truth: &[History]) -> bool {
        self.attempted += 1;
        match result {
            Ok(histories) if histories.as_slice() == truth => return true,
            Ok(_) => self.mismatch += 1,
            Err(Fault::Busy) => self.busy += 1,
            Err(Fault::Deadline) => self.deadline += 1,
            Err(Fault::Verify(_)) => self.verify += 1,
            Err(Fault::Wire(_)) => self.wire += 1,
        }
        false
    }
}

/// Response bytes of each list entry the first time it completes, so
/// `bytes_per_query` is the mean over exactly one pass of the list and
/// repeats per seed however many passes a run manages.
pub struct PassBytes {
    seen: Vec<Option<u64>>,
}

impl PassBytes {
    pub fn new(entries: usize) -> Self {
        PassBytes {
            seen: vec![None; entries],
        }
    }

    pub fn record(&mut self, entry: usize, bytes: u64) {
        self.seen[entry].get_or_insert(bytes);
    }

    /// Mean over the entries seen, and whether that was every entry.
    pub fn mean(&self) -> (f64, bool) {
        let seen: Vec<u64> = self.seen.iter().flatten().copied().collect();
        let mean = seen.iter().sum::<u64>() as f64 / seen.len().max(1) as f64;
        (mean, seen.len() == self.seen.len())
    }
}

/// Rounds one measurement is cut into. Every phase of a workload runs
/// once per round, so each metric's samples are spread over the whole
/// run and a slow stretch of the machine (they last seconds here)
/// disturbs a minority of them; the reported median ignores it.
pub const ROUNDS: usize = 5;

/// What the closed-loop phases of a run measured, one entry per window.
#[derive(Default)]
pub struct Closed {
    /// Verified requests per second.
    pub rates: Vec<f64>,
    /// Median submit → verified history, ms.
    pub p50_ms: Vec<f64>,
    /// 95th percentile of the same samples, ms.
    pub p95_ms: Vec<f64>,
    /// Every window's samples, ms.
    pooled_ms: Vec<f64>,
}

impl Closed {
    /// Latency samples over all windows.
    pub fn samples(&self) -> u64 {
        self.pooled_ms.len() as u64
    }

    /// Closes one window: the latencies of its verified requests and
    /// the seconds it took.
    pub fn record_window(&mut self, latencies_ms: Vec<f64>, secs: f64) {
        self.rates.push(latencies_ms.len() as f64 / secs);
        if !latencies_ms.is_empty() {
            let sorted = stats::sorted(latencies_ms);
            self.p50_ms.push(stats::percentile(&sorted, 0.50));
            self.p95_ms.push(stats::percentile(&sorted, 0.95));
            self.pooled_ms.extend(sorted);
        }
    }

    /// 99th percentile of every window's samples pooled, ms.
    pub fn pooled_p99_ms(&self) -> f64 {
        stats::percentile(&stats::sorted(self.pooled_ms.clone()), 0.99)
    }
}

/// Runs `exec` over `requests` in list order, one request at a time,
/// appending to `out`. A window is `passes` whole passes of the list,
/// so every window does identical work and one window's numbers differ
/// from the next one's only by noise; windows repeat until `secs` have
/// passed. The caller reports the *median over windows* of each number.
pub fn closed_loop(
    out: &mut Closed,
    requests: &[Request],
    passes: usize,
    secs: f64,
    tally: &mut Tally,
    bytes: &mut PassBytes,
    mut exec: impl FnMut(&Request) -> Result<Answer, Fault>,
) {
    let phase = Instant::now();
    loop {
        let opened = Instant::now();
        let mut latencies_ms = Vec::with_capacity(passes * requests.len());
        for _ in 0..passes {
            for (entry, request) in requests.iter().enumerate() {
                let submitted = Instant::now();
                let answer = exec(request);
                let latency = submitted.elapsed();
                let (histories, response_bytes) = match answer {
                    Ok(a) => (Ok(a.histories), a.response_bytes),
                    Err(fault) => (Err(fault), 0),
                };
                if tally.admit(&histories, &request.truth) {
                    latencies_ms.push(latency.as_secs_f64() * 1e3);
                    bytes.record(entry, response_bytes);
                }
            }
        }
        out.record_window(latencies_ms, opened.elapsed().as_secs_f64());
        if phase.elapsed().as_secs_f64() >= secs {
            return;
        }
    }
}

/// This round's share of `total` cycles: `total` spread over
/// [`ROUNDS`], the remainder going to the first rounds.
pub fn round_share(total: usize, round: usize) -> usize {
    total / ROUNDS + usize::from(round < total % ROUNDS)
}

/// The tamper canary: flips one seeded bit of an honest reply, which
/// must then fail to decode or to verify. Returns whether it was
/// rejected; an accepted canary fails the run, so no later change can
/// get fast by weakening verification.
pub fn canary_rejected(verifier: &Verifier, peer: &dyn Peer, request: &Request, seed: u64) -> bool {
    let mut reply = peer.handle(&request.encoded);
    // The honest reply must verify, or the flip proves nothing.
    if verifier.check(&request.query, &reply).as_deref() != Ok(request.truth.as_slice()) {
        return false;
    }
    let bit = Rng::new(seed, STREAM_CANARY).below(reply.len() as u64 * 8);
    reply[(bit / 8) as usize] ^= 1 << (bit % 8);
    verifier.check(&request.query, &reply).is_err()
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sleeps until `due`; returns how late the caller woke.
pub fn sleep_until(due: Instant) -> Duration {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    Instant::now().saturating_duration_since(due)
}

/// The result of one untraced run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// The tamper canary was rejected.
    pub canary_rejected: bool,
    /// `bytes_per_query` covers one full pass of the request list.
    pub full_pass: bool,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// Every end-to-end metric.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Layer numbers the run collects anyway from public stats and from
    /// its own generator (server digest, queue depth, lateness).
    pub aux: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// No failed request, no ground-truth mismatch, canary rejected.
    pub fn correct(&self) -> bool {
        self.tally.failed() == 0 && self.canary_rejected && self.tally.attempted > 0
    }
}

/// The result of one traced run.
pub struct Traced {
    /// The shortened untraced run the trace started with.
    pub outcome: Outcome,
    /// Every per-layer metric (0 where the workload never reaches the
    /// layer).
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Recorder,
}

/// Runs `workload` untraced: the only source of end-to-end numbers.
pub fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = match workload {
        spec::LIGHT_TCP => light_tcp::run(ctx),
        spec::HEAVY_LOCAL => heavy_local::run(ctx),
        spec::COLD_STORE => cold_store::run(ctx),
        spec::INGEST_LIVE => ingest_live::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    outcome.metrics.insert("peak_rss_mb", peak_rss_mb());
    Ok(outcome)
}

/// Runs `workload` traced: a shortened untraced run for the counters
/// only a loaded run has, then the single-threaded staged replay.
pub fn trace(workload: &str, ctx: &Ctx) -> Result<Traced, String> {
    let mut traced = match workload {
        spec::LIGHT_TCP => light_tcp::trace(ctx),
        spec::HEAVY_LOCAL => heavy_local::trace(ctx),
        spec::COLD_STORE => cold_store::trace(ctx),
        spec::INGEST_LIVE => ingest_live::trace(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    // Every layer metric is reported on every workload; one the
    // workload never reaches reads 0.
    for layer in &spec::PER_LAYER {
        let from_run = traced.outcome.aux.get(layer.name).copied();
        traced
            .layers
            .entry(layer.name)
            .or_insert(from_run.unwrap_or(0.0));
    }
    Ok(traced)
}

/// The context of a trace's leading untraced run: a third of the
/// window, one set-up.
pub fn shortened(ctx: &Ctx) -> Ctx {
    Ctx {
        shape: Shape {
            seconds: ctx.shape.seconds / 3.0,
            ..ctx.shape
        },
        ..ctx.clone()
    }
}

/// Repeats a full set-up `reps` times, keeping the last. Returns the
/// state and each repetition's wall time in seconds.
pub fn repeat_setup<S>(
    reps: usize,
    mut setup: impl FnMut() -> Result<S, String>,
    mut teardown: impl FnMut(S),
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        if let Some(previous) = state.take() {
            teardown(previous);
        }
        let started = Instant::now();
        state = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up"), times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::fresh_address;

    /// The smoke test: every workload, untraced and traced, on toy
    /// chains with sub-second windows. Proves the whole path runs, the
    /// correctness gate and the canary pass, and every declared metric
    /// is measured; it measures nothing.
    fn smoke(workload: &str) {
        let exe = std::env::current_exe().expect("test executable");
        let ctx = Ctx {
            seed: 11,
            shape: Shape {
                seconds: 0.5,
                quick: true,
            },
            work_dir: exe
                .parent()
                .expect("executable directory")
                .join("perf-test-work")
                .join(workload),
        };
        std::fs::create_dir_all(&ctx.work_dir).expect("scratch directory");
        let outcome = run(workload, &ctx).expect("untraced run");
        assert!(outcome.correct(), "{workload}: {outcome:?}");
        assert!(outcome.canary_rejected && outcome.full_pass && outcome.samples > 0);
        assert_eq!(outcome.metrics.len(), spec::END_TO_END.len());
        for metric in &spec::END_TO_END {
            let value = outcome.metrics[metric.name];
            assert!(
                value.is_finite() && value > 0.0,
                "{workload}/{} = {value}",
                metric.name
            );
        }
        let traced = trace(workload, &ctx).expect("traced run");
        assert!(traced.outcome.correct(), "{workload}: {:?}", traced.outcome);
        assert_eq!(traced.layers.len(), spec::PER_LAYER.len());
        for layer in &spec::PER_LAYER {
            let value = traced.layers[layer.name];
            assert!(value.is_finite(), "{workload}/{} = {value}", layer.name);
        }
        for name in [
            "core.prove_ms",
            "core.verify_ms",
            "trace.untraced_ms",
            "merkle.bmt_endpoints",
        ] {
            assert!(traced.layers[name] > 0.0, "{workload}/{name}");
        }
        let touches_store = matches!(workload, spec::COLD_STORE | spec::INGEST_LIVE);
        assert_eq!(traced.layers["store.read_block_us"] > 0.0, touches_store);
        assert_eq!(
            traced.layers["store.disk_bytes_per_block_byte"] > 1.0,
            touches_store
        );
        let uses_sockets = matches!(workload, spec::LIGHT_TCP | spec::INGEST_LIVE);
        assert_eq!(traced.layers["node.server_p50_us"] > 0.0, uses_sockets);
        assert!(!traced.spans.spans().is_empty());
        let _ = std::fs::remove_dir_all(&ctx.work_dir);
    }

    #[test]
    fn smoke_light_tcp() {
        smoke(spec::LIGHT_TCP);
    }

    #[test]
    fn smoke_heavy_local() {
        smoke(spec::HEAVY_LOCAL);
    }

    #[test]
    fn smoke_cold_store() {
        smoke(spec::COLD_STORE);
    }

    #[test]
    fn smoke_ingest_live() {
        smoke(spec::INGEST_LIVE);
    }

    /// The canary's premise: whichever bit flips, the reply is
    /// refused. Tried on a few dozen seeded bits each of a proof that
    /// holds every kind of part (filters, SMT proofs, Merkle branches,
    /// transactions).
    #[test]
    fn every_flipped_bit_tried_is_rejected() {
        use crate::surface::{build_chain, Light, MemNode, Wire};
        let spec = Shape {
            seconds: 0.5,
            quick: true,
        }
        .chain_p();
        let built = build_chain(&spec, 3);
        // Addr6 is in many blocks, Addr1 in none: a proof of presence
        // and a proof of absence.
        let requests: Vec<Request> = [5, 0]
            .map(|probe| {
                let addr = built.probes[probe].clone();
                let truth = built.truth(&addr);
                Request::new(Query::address(addr), vec![truth])
            })
            .into();
        assert!(!requests[0].truth[0].is_empty() && requests[1].truth[0].is_empty());
        let node = MemNode::new(built);
        let light = Light::sync(&mut Wire::local(&node), spec.config()).expect("header sync");
        let verifier = light.verifier();
        for request in &requests {
            for seed in 0..80 {
                assert!(
                    canary_rejected(&verifier, &node, request, seed),
                    "the bit seed {seed} picks was accepted"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_request_mix() {
        let wallets: Vec<_> = (0..8).map(|n| (fresh_address(0, n), Vec::new())).collect();
        let list = |seed| light_tcp::request_list(seed, 200, 2048, &wallets);
        let (a, b, c) = (list(5), list(5), list(6));
        let queries = |l: &[Request]| l.iter().map(|r| r.query.clone()).collect::<Vec<_>>();
        assert_eq!(queries(&a), queries(&b));
        assert_ne!(queries(&a), queries(&c));
        assert!(a.iter().zip(&b).all(|(x, y)| x.encoded == y.encoded));
        // The mix holds every kind of request in exactly its share,
        // whatever the seed; the seed decides the order.
        for list in [&a, &c] {
            let batches = list.iter().filter(|r| r.query.batch).count();
            let ranged = list.iter().filter(|r| r.query.range.is_some()).count();
            assert_eq!((batches, ranged), (30, 20));
        }
        let order = |l: &[Request]| l.iter().map(|r| r.query.batch).collect::<Vec<_>>();
        assert_ne!(order(&a), order(&c));
        assert!(a.iter().all(|r| r.truth.len() == r.query.targets.len()));
    }

    #[test]
    fn tally_counts_each_failure_once() {
        let truth: Vec<History> = vec![Vec::new()];
        let mut tally = Tally::default();
        assert!(tally.admit(&Ok(vec![Vec::new()]), &truth));
        assert!(!tally.admit(&Ok(vec![]), &truth));
        assert!(!tally.admit(&Err(Fault::Busy), &truth));
        assert!(!tally.admit(&Err(Fault::Verify("bad root".into())), &truth));
        assert!(!tally.admit(&Err(Fault::Wire("eof".into())), &truth));
        assert!(!tally.admit(&Err(Fault::Deadline), &truth));
        assert_eq!(tally.attempted, 6);
        assert_eq!(tally.failed(), 5);
        assert_eq!((tally.mismatch, tally.busy, tally.verify), (1, 1, 1));
    }

    #[test]
    fn rounds_share_every_cycle() {
        for total in [0, 2, 10, 30, 33, 100] {
            let shares: Vec<usize> = (0..ROUNDS).map(|r| round_share(total, r)).collect();
            assert_eq!(shares.iter().sum::<usize>(), total);
            assert!(shares.iter().max().unwrap() - shares.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn pass_bytes_counts_each_entry_once() {
        let mut bytes = PassBytes::new(3);
        bytes.record(0, 10);
        bytes.record(0, 1000);
        bytes.record(2, 20);
        assert_eq!(bytes.mean(), (15.0, false));
        bytes.record(1, 30);
        assert_eq!(bytes.mean(), (20.0, true));
    }
}
