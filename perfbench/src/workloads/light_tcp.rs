//! `light-tcp`: chain `T` in memory behind a one-worker `NodeServer`,
//! reached over one v2 pipelined loopback connection. Every reply is
//! decoded and verified by a `LightClient` and compared with ground
//! truth. Three phases per round: closed loop with one request in
//! flight (`verified_qps`), closed loop with four (`latency_*`), and an
//! open loop at a fixed rate from a writer and a reader thread (layer
//! metrics only).
//!
//! Replies are tens of KB and proving is µs-scale, so this is the
//! workload where per-message cost — event loop, envelope, frame
//! copies, codec — is the largest share. The store is never touched.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use crate::rng::{poisson_schedule, Rng};
use crate::span::Recorder;
use crate::stats;
use crate::surface::{
    build_chain, fresh_address, Addr, Answer, Config, Fault, History, Light, MemNode, PipeConn,
    PipeWriter, Query, Server, ServerTuning, Verifier, Wire,
};

use super::{
    canary_rejected, clip, closed_loop, pick_wallets, repeat_setup, round_share, shortened,
    sleep_until, staged, Closed, Ctx, Outcome, PassBytes, Request, Tally, Traced, ROUNDS,
    STREAM_ARRIVALS, STREAM_MIX,
};

/// Entries of the seeded request list. One pass is one closed-loop
/// window (about a quarter of a second).
const LIST_LEN: usize = 256;
/// Addresses per batch request.
const BATCH_ADDRESSES: usize = 4;
/// Blocks the range query of the mix covers, ending at the tip.
const RANGE_BLOCKS: u64 = 64;
/// Dispatch-queue bound and v2 window: above any backlog the open loop
/// can build, so the server never sheds for depth.
const DEPTH: u32 = 1 << 16;

/// The seeded mix: 50 % fresh never-seen address, 25 % a light wallet,
/// 10 % a light wallet over the last 64 blocks, 15 % batch of four
/// fresh addresses (a wallet scanning its unused look-ahead addresses).
///
/// The shares are exact — every list of a given length holds the same
/// number of each kind — and the seed decides the order, the wallets
/// and the fresh addresses. Drawing the kind per entry instead let the
/// number of batches (the heaviest request, four times the bytes)
/// swing by a sixth from seed to seed, and bytes and latency with it.
/// The batch decides the p95; of fresh addresses only, its cost does
/// not hang on which wallets a seed happens to draw.
pub fn request_list(seed: u64, len: usize, tip: u64, wallets: &[(Addr, History)]) -> Vec<Request> {
    #[derive(Clone, Copy)]
    enum Kind {
        Fresh,
        Wallet,
        Recent,
        Batch,
    }
    let mut rng = Rng::new(seed, STREAM_MIX);
    let share = |percent: usize| len * percent / 100;
    let mut kinds = vec![Kind::Fresh; len];
    let mut at = share(50);
    for (kind, percent) in [(Kind::Wallet, 25), (Kind::Recent, 10)] {
        kinds[at..at + share(percent)].fill(kind);
        at += share(percent);
    }
    kinds[at..].fill(Kind::Batch);
    // Fisher–Yates.
    for i in (1..len).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut fresh = 0u64;
    let mut next_fresh = || {
        fresh += 1;
        fresh_address(seed, fresh)
    };
    kinds
        .into_iter()
        .map(|kind| {
            let wallet = &wallets[rng.below(wallets.len() as u64) as usize];
            match kind {
                Kind::Fresh => Request::new(Query::address(next_fresh()), vec![Vec::new()]),
                Kind::Wallet => {
                    Request::new(Query::address(wallet.0.clone()), vec![wallet.1.clone()])
                }
                Kind::Recent => {
                    let lo = tip.saturating_sub(RANGE_BLOCKS - 1).max(1);
                    Request::new(
                        Query::address(wallet.0.clone()).over(lo, tip),
                        vec![clip(&wallet.1, lo, tip)],
                    )
                }
                Kind::Batch => Request::new(
                    Query::batch((0..BATCH_ADDRESSES).map(|_| next_fresh()).collect()),
                    vec![Vec::new(); BATCH_ADDRESSES],
                ),
            }
        })
        .collect()
}

struct State {
    node: MemNode,
    server: Server,
    config: Config,
    light: Light,
    requests: Vec<Request>,
    /// A fresh address: what a cold-started client asks first. (One
    /// wallet's proof size is one seed's luck; an absent address costs
    /// about the same on every chain.)
    probe: Request,
    build_secs: f64,
    blocks: u64,
    header_sync_ms: f64,
}

fn setup(ctx: &Ctx) -> Result<State, String> {
    let spec = ctx.shape.chain_t();
    let started = Instant::now();
    let built = build_chain(&spec, ctx.seed);
    let build_secs = started.elapsed().as_secs_f64();
    let tip = built.tip();
    let wallets = pick_wallets(&built, ctx.seed)?;
    let requests = request_list(ctx.seed, LIST_LEN, tip, &wallets);
    let node = MemNode::new(built);
    let server = node.serve_tcp(ServerTuning {
        workers: 1,
        depth: DEPTH,
    });
    let config = spec.config();
    let started = Instant::now();
    let mut wire = Wire::tcp(server.addr())?;
    let light = Light::sync(&mut wire, config).map_err(|e| format!("header sync: {e:?}"))?;
    let header_sync_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok(State {
        node,
        server,
        config,
        light,
        requests,
        probe: Request::new(Query::address(fresh_address(ctx.seed, 0)), vec![Vec::new()]),
        build_secs,
        blocks: tip,
        header_sync_ms,
    })
}

/// The light side of the one pipelined connection: both halves of the
/// socket and the verifier for what comes back.
struct Link {
    conn: PipeConn,
    writer: PipeWriter,
    verifier: Verifier,
}

impl Link {
    /// One request with nothing else in flight.
    fn exchange(&mut self, request: &Request, id: u64) -> Result<Answer, Fault> {
        self.writer.send(&request.encoded, id)?;
        let (got, reply) = self.conn.recv()?;
        if got != id {
            return Err(Fault::Wire(format!("reply {got} to request {id}")));
        }
        Ok(Answer {
            histories: self.verifier.check(&request.query, &reply)?,
            response_bytes: reply.len() as u64,
        })
    }
}

/// Requests kept in flight by the pipelined closed loop.
const IN_FLIGHT: usize = 4;

/// Phase 2: closed loop with [`IN_FLIGHT`] requests outstanding on the
/// pipelined connection — a client that keeps its window full. A
/// window is one pass of the list; latency runs from a request's
/// submission to its verified history, so it includes the wait behind
/// the requests ahead of it in the server's queue and in this
/// thread's verification.
fn pipelined_loop(
    out: &mut Closed,
    link: &mut Link,
    requests: &[Request],
    secs: f64,
    tally: &mut Tally,
    bytes: &mut PassBytes,
) -> Result<(), String> {
    let phase = Instant::now();
    let mut next_id = 0u64;
    loop {
        let opened = Instant::now();
        let mut latencies_ms = Vec::with_capacity(requests.len());
        let mut in_flight: VecDeque<(u64, usize, Instant)> = VecDeque::with_capacity(IN_FLIGHT);
        let mut sent = 0;
        while sent < requests.len() || !in_flight.is_empty() {
            while sent < requests.len() && in_flight.len() < IN_FLIGHT {
                next_id += 1;
                in_flight.push_back((next_id, sent, Instant::now()));
                link.writer
                    .send(&requests[sent].encoded, next_id)
                    .map_err(|e| format!("pipelined write: {e:?}"))?;
                sent += 1;
            }
            let (id, reply) = link
                .conn
                .recv()
                .map_err(|e| format!("pipelined read: {e:?}"))?;
            let at = in_flight
                .iter()
                .position(|(sent_id, _, _)| *sent_id == id)
                .ok_or_else(|| format!("reply to unknown request {id}"))?;
            let (_, entry, submitted) = in_flight.remove(at).expect("position is in range");
            let request = &requests[entry];
            let verified = link.verifier.check(&request.query, &reply);
            let latency = submitted.elapsed();
            if tally.admit(&verified, &request.truth) {
                latencies_ms.push(latency.as_secs_f64() * 1e3);
                bytes.record(entry, reply.len() as u64);
            }
        }
        out.record_window(latencies_ms, opened.elapsed().as_secs_f64());
        if phase.elapsed().as_secs_f64() >= secs {
            return Ok(());
        }
    }
}

/// What the open-loop phases of a run measured.
#[derive(Default)]
struct Open {
    /// Per phase: the latency samples, ms.
    windows: Vec<Vec<f64>>,
    /// Actual send minus scheduled arrival, per request, µs.
    late_us: Vec<f64>,
    /// Requests scheduled.
    offered: u64,
    /// Seconds the schedules covered.
    scheduled_secs: f64,
    /// Seconds from each phase's start to its last completion.
    busy_secs: f64,
}

/// Phase 3: Poisson arrivals at a fixed rate over the same connection.
/// A writer thread submits on schedule; this thread reads, verifies and
/// times each reply from its *scheduled* arrival.
///
/// Its latencies are reported as layer metrics, without a bound: at a
/// fifth of capacity the two cores idle between arrivals, and what the
/// percentiles then carry is the hypervisor's wake-up latency (p95
/// spread 7–30 % over ten seeds, whatever the rate or the pacing).
fn open_loop(
    out: &mut Open,
    link: &mut Link,
    requests: &[Request],
    schedule: &[f64],
    tally: &mut Tally,
    bytes: &mut PassBytes,
) -> Result<(), String> {
    let n = schedule.len();
    // Each phase continues through the list where the last one stopped.
    let from = out.offered as usize;
    let (conn, verifier) = (&mut link.conn, &link.verifier);
    // The submitting thread gets the writer; this one keeps reading.
    let writer = &mut link.writer;
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(schedule[i]);
    let mut window = Vec::with_capacity(n);
    let mut finished = start;
    let late_us = std::thread::scope(|scope| -> Result<Vec<f64>, String> {
        let submitter = scope.spawn(|| -> Result<Vec<f64>, Fault> {
            let mut late_us = Vec::with_capacity(n);
            for i in 0..n {
                late_us.push(sleep_until(due(i)).as_secs_f64() * 1e6);
                writer.send(&requests[(from + i) % requests.len()].encoded, i as u64 + 1)?;
            }
            Ok(late_us)
        });
        for _ in 0..n {
            let (id, reply) = conn.recv().map_err(|e| format!("open-loop read: {e:?}"))?;
            let i = id as usize - 1;
            let entry = (from + i) % requests.len();
            let request = &requests[entry];
            let verified = verifier.check(&request.query, &reply);
            finished = Instant::now();
            if tally.admit(&verified, &request.truth) {
                window.push(finished.saturating_duration_since(due(i)).as_secs_f64() * 1e3);
                bytes.record(entry, reply.len() as u64);
            }
        }
        submitter
            .join()
            .map_err(|_| "submitter thread panicked".to_string())?
            .map_err(|e| format!("open-loop write: {e:?}"))
    })?;
    out.windows.push(window);
    out.late_us.extend(late_us);
    out.offered += n as u64;
    out.scheduled_secs += schedule.last().copied().unwrap_or(0.0);
    out.busy_secs += finished.saturating_duration_since(start).as_secs_f64();
    Ok(())
}

/// Cold starts of a light client: connect, download headers, first
/// verified history. Appends one time per cycle.
fn first_verified(
    state: &State,
    cycles: usize,
    tally: &mut Tally,
    times_ms: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..cycles {
        let started = Instant::now();
        let mut wire = Wire::tcp(state.server.addr())?;
        let mut light =
            Light::sync(&mut wire, state.config).map_err(|e| format!("header sync: {e:?}"))?;
        let answer = light
            .run(&state.probe.query, &mut wire)
            .map(|a| a.histories);
        let elapsed = started.elapsed();
        if tally.admit(&answer, &state.probe.truth) {
            times_ms.push(elapsed.as_secs_f64() * 1e3);
        }
    }
    Ok(())
}

fn measure(ctx: &Ctx, reps: usize) -> Result<(Outcome, State), String> {
    let shape = ctx.shape;
    let mut build_rates = Vec::new();
    let (state, setups) = repeat_setup(
        reps,
        || {
            let state = setup(ctx)?;
            build_rates.push(state.blocks as f64 / state.build_secs);
            Ok(state)
        },
        |old: State| {
            old.server.shutdown();
        },
    )?;
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();
    let mut bytes = PassBytes::new(state.requests.len());
    let mut first_ms = Vec::new();
    let (mut closed, mut piped) = (Closed::default(), Closed::default());
    let mut open = Open::default();

    let conn = PipeConn::connect(state.server.addr(), DEPTH)?;
    let mut link = Link {
        writer: conn.writer()?,
        conn,
        verifier: state.light.verifier(),
    };
    // Warm-up: one untimed pass with a window of one.
    for (i, request) in state.requests.iter().enumerate() {
        link.exchange(request, i as u64 + 1)
            .map_err(|e| format!("warm-up: {e:?}"))?;
    }
    let round_secs = shape.seconds / ROUNDS as f64;
    let (closed_secs, piped_secs, open_secs) =
        (0.3 * round_secs, 0.4 * round_secs, 0.3 * round_secs);
    for round in 0..ROUNDS {
        let cycles = round_share(shape.first_verified_cycles(100), round);
        first_verified(&state, cycles, &mut tally, &mut first_ms)?;
        // Phase 1: closed loop, window 1.
        let mut id = 0u64;
        closed_loop(
            &mut closed,
            &state.requests,
            1,
            closed_secs,
            &mut tally,
            &mut bytes,
            |request: &Request| {
                id += 1;
                link.exchange(request, id)
            },
        );
        // Phase 2: closed loop, window full.
        pipelined_loop(
            &mut piped,
            &mut link,
            &state.requests,
            piped_secs,
            &mut tally,
            &mut bytes,
        )?;
        // Phase 3: open loop at a fixed rate, a fresh stretch of the
        // seeded Poisson schedule per round.
        let schedule = poisson_schedule(
            ctx.seed,
            STREAM_ARRIVALS + ((round as u64) << 8),
            shape.light_open_rps(),
            open_secs,
        );
        open_loop(
            &mut open,
            &mut link,
            &state.requests,
            &schedule,
            &mut tally,
            &mut bytes,
        )?;
    }
    // The canary flips a bit in the richest single-address reply of the
    // list: a wallet with a history, if the mix drew one.
    let canary = state
        .requests
        .iter()
        .find(|r| !r.query.batch && !r.truth[0].is_empty())
        .unwrap_or(&state.probe);
    outcome.canary_rejected = canary_rejected(&link.verifier, &state.node, canary, ctx.seed);
    drop(link);

    let windows: Vec<Vec<f64>> = std::mem::take(&mut open.windows)
        .into_iter()
        .filter(|w| !w.is_empty())
        .map(stats::sorted)
        .collect();
    if windows.is_empty()
        || closed.rates.is_empty()
        || piped.p50_ms.is_empty()
        || first_ms.is_empty()
    {
        return Err("a phase completed no verified request".into());
    }
    let per_window =
        |p: f64| -> Vec<f64> { windows.iter().map(|w| stats::percentile(w, p)).collect() };
    outcome.samples = piped.samples();
    let (mean_bytes, full_pass) = bytes.mean();
    outcome.full_pass = full_pass;
    outcome.tally = tally;
    outcome.metrics = BTreeMap::from([
        ("setup_s", stats::median(&setups)),
        ("verified_qps", stats::median(&closed.rates)),
        ("latency_p50_ms", stats::median(&piped.p50_ms)),
        ("latency_p95_ms", stats::median(&piped.p95_ms)),
        ("bytes_per_query", mean_bytes),
        ("first_verified_ms", stats::median(&first_ms)),
        ("ingest_blocks_per_s", stats::median(&build_rates)),
    ]);
    outcome.aux = BTreeMap::from([
        ("node.header_sync_ms", state.header_sync_ms),
        (
            "loadgen.late_p99_us",
            stats::percentile(&stats::sorted(open.late_us), 0.99),
        ),
        (
            "loadgen.offered_rps",
            open.offered as f64 / open.scheduled_secs,
        ),
        ("loadgen.achieved_rps", open.offered as f64 / open.busy_secs),
        ("client.latency_p99_ms", piped.pooled_p99_ms()),
        ("client.open_p50_ms", stats::median(&per_window(0.50))),
        ("client.open_p95_ms", stats::median(&per_window(0.95))),
    ]);
    Ok((outcome, state))
}

fn server_aux(outcome: &mut Outcome, server: Server) {
    let counts = server.shutdown();
    outcome.aux.extend([
        ("node.server_p50_us", counts.p50_us as f64),
        ("node.server_p99_us", counts.p99_us as f64),
        ("node.queue_highwater", counts.queue_highwater as f64),
        (
            "node.pipelined_depth_highwater",
            counts.pipelined_depth_highwater as f64,
        ),
        ("node.busy_shed", counts.busy as f64),
    ]);
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (mut outcome, state) = measure(ctx, ctx.shape.setup_reps())?;
    server_aux(&mut outcome, state.server);
    Ok(outcome)
}

pub fn trace(ctx: &Ctx) -> Result<Traced, String> {
    let (mut outcome, mut state) = measure(&shortened(ctx), 1)?;
    let mut layers = BTreeMap::new();
    let mut spans = Recorder::new();
    let take = if ctx.shape.quick { 32 } else { 256 };
    let requests: Vec<&Request> = state.requests.iter().take(take).collect();
    let verifier = state.light.verifier();
    staged::replay(
        &mut spans,
        &mut layers,
        state.node.chain(),
        &state.node,
        &verifier,
        &requests,
    )?;
    staged::untraced(
        &mut layers,
        || state.node.chain().cache_counts(),
        &state.node,
        &mut state.light,
        &requests,
    )?;
    let tcp = Wire::tcp(state.server.addr())?;
    staged::wire_self(&mut layers, tcp, &mut state.light, &requests)?;
    staged::micro(
        &mut layers,
        state.node.chain(),
        &state.probe.query.targets[0],
        ctx.shape.quick,
    )?;
    server_aux(&mut outcome, state.server);
    Ok(Traced {
        outcome,
        layers,
        spans,
    })
}
