//! `ingest-live`: writes beside reads. The store holds an indexed
//! prefix of chain `G`; a `LiveNode` behind a one-worker `NodeServer`
//! serves it while a `TipIngester` appends the rest (store append →
//! index push + sync → serve). Meanwhile one client thread queries 64
//! light wallets in turn over `range(1, pinned_tip)` in a closed loop
//! and follows the tip with `sync_new` every tenth request.
//!
//! This is the same `lvq-chain` / `lvq-store` / index layer as
//! `cold-store`, used for writes, with reads contending for the live
//! node's lock: a read-path gain that costs the write path (or the
//! reverse) shows here.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::span::Recorder;
use crate::spec::Shape;
use crate::stats;
use crate::surface::{
    build_chain, Addr, Block, Config, DiskNode, History, IndexOpen, Light, LiveDisk, Query, Server,
    ServerTuning, Wire,
};

use super::cold_store::{closed_store_layers, dir_bytes, restarts, store_layers};
use super::{
    canary_rejected, clip, closed_loop, pick_wallets, repeat_setup, shortened, staged, Closed, Ctx,
    Outcome, PassBytes, Request, Tally, Traced,
};

/// `sync_new` runs before every request whose index is a multiple of
/// this.
const SYNC_EVERY: u64 = 10;
/// A live phase that has not caught up by then is reported as an error
/// instead of running into the driver's limit.
const GIVE_UP: Duration = Duration::from_secs(150);
const DEPTH: u32 = 1 << 12;
/// Share of `--seconds` the closed loop on the grown node runs for.
const GROWN_SHARE: f64 = 0.2;

struct State {
    dir: PathBuf,
    config: Config,
    live: LiveDisk,
    server: Server,
    light: Light,
    wire: Wire<'static>,
    /// Every block of `G`, the feed's input.
    blocks: Vec<Block>,
    /// Light wallets with their ground truth over the whole of `G`,
    /// queried in turn. Many of them, so that the luck of one address's
    /// Bloom positions does not decide a seed's numbers.
    probes: Vec<(Addr, History)>,
    prefix: u64,
    header_sync_ms: f64,
    /// Set-up's store append and index build of the prefix, seconds.
    append_secs: f64,
    index_build_secs: f64,
}

fn setup(ctx: &Ctx) -> Result<State, String> {
    let spec = ctx.shape.chain_g();
    let prefix = ctx.shape.live_prefix();
    let built = build_chain(&spec, ctx.seed);
    let probes = pick_wallets(&built, ctx.seed)?;
    let blocks = built.blocks();
    let dir = ctx.work_dir.join("ingest-live");
    let _ = std::fs::remove_dir_all(&dir);
    let started = Instant::now();
    built.store_prefix(&dir, prefix)?;
    let append_secs = started.elapsed().as_secs_f64();
    drop(built);
    let started = Instant::now();
    let (node, how) = DiskNode::open(&dir, None)?;
    let index_build_secs = started.elapsed().as_secs_f64();
    if how != IndexOpen::Built {
        return Err(format!("first open should build the index, was {how:?}"));
    }
    drop(node);

    let live = LiveDisk::open(&dir)?;
    let server = live.serve_tcp(ServerTuning {
        workers: 1,
        depth: DEPTH,
    });
    let config = spec.config();
    let started = Instant::now();
    let mut wire = Wire::tcp(server.addr())?;
    let light = Light::sync(&mut wire, config).map_err(|e| format!("header sync: {e:?}"))?;
    let header_sync_ms = started.elapsed().as_secs_f64() * 1e3;
    if light.tip() != prefix {
        return Err(format!(
            "server exposes {} blocks, stored {prefix}",
            light.tip()
        ));
    }
    Ok(State {
        dir,
        config,
        live,
        server,
        light,
        wire,
        blocks,
        probes,
        prefix,
        header_sync_ms,
        append_secs,
        index_build_secs,
    })
}

fn teardown(state: State) {
    drop(state.wire);
    state.server.shutdown();
}

/// What the live phase measured.
struct Live {
    ingest_secs: f64,
    appended: u64,
    batches: u64,
    retries: u64,
    /// Submit → verified history of every verified query, ms.
    latencies_ms: Vec<f64>,
    /// Every client operation back to back (queries and `sync_new`),
    /// ms: the timeline the time-weighted percentiles are read from.
    ops_ms: Vec<f64>,
    sync_ms: Vec<f64>,
    verified: u64,
}

/// The live phase: the ingester appends the rest of `G` while this
/// thread queries in a closed loop until the ingester has caught up.
///
/// One request is outstanding at a time, so the client never builds a
/// backlog of its own: what it waits for is the node's lock. At the
/// seed commit the ingester holds the write lock for most of the phase
/// and the node serves a handful of queries between batches, so a
/// fixed-rate open loop would only measure how long the phase lasted,
/// and how many queries fit into a gap is a race. What repeats is the
/// timeline of stalls: the latency percentiles are read from it
/// weighted by time (`stats::time_weighted_quantile`).
fn live_phase(ctx: &Ctx, state: &mut State, tally: &mut Tally) -> Result<Live, String> {
    let blocks = std::mem::take(&mut state.blocks);
    let total = blocks.len() as u64;
    let mut out = Live {
        ingest_secs: 0.0,
        appended: 0,
        batches: 0,
        retries: 0,
        latencies_ms: Vec::new(),
        ops_ms: Vec::new(),
        sync_ms: Vec::new(),
        verified: 0,
    };
    let start = Instant::now();
    let ingest = state.live.start_ingest(blocks, Shape::LIVE_BATCH, ctx.seed);
    for i in 0u64.. {
        let counts = ingest.counts();
        if counts.caught_up && counts.tip == total {
            break;
        }
        if start.elapsed() > GIVE_UP {
            return Err(format!("ingest did not catch up within {GIVE_UP:?}"));
        }
        if i % SYNC_EVERY == 0 {
            // Its own operation: timed apart, outside the percentiles.
            let started = Instant::now();
            state
                .light
                .sync_new(&mut state.wire)
                .map_err(|e| format!("sync_new: {e:?}"))?;
            out.sync_ms.push(started.elapsed().as_secs_f64() * 1e3);
            out.ops_ms.extend(out.sync_ms.last());
        }
        let pinned = state.light.tip();
        let (addr, truth) = &state.probes[i as usize % state.probes.len()];
        let query = Query::address(addr.clone()).over(1, pinned);
        let submitted = Instant::now();
        let answer = state.light.run(&query, &mut state.wire);
        let latency = submitted.elapsed();
        out.ops_ms.push(latency.as_secs_f64() * 1e3);
        if tally.admit(&answer.map(|a| a.histories), &[clip(truth, 1, pinned)]) {
            out.verified += 1;
            out.latencies_ms.push(latency.as_secs_f64() * 1e3);
        }
    }
    out.ingest_secs = start.elapsed().as_secs_f64();
    let counts = ingest.stop()?;
    out.appended = counts.appended;
    out.batches = counts.batches;
    out.retries = counts.retries;
    if state.live.tip() != total {
        return Err(format!(
            "live tip {} after ingest, fed {total}",
            state.live.tip()
        ));
    }
    Ok(out)
}

/// The stall behind one ingest batch: the median of the `batches`
/// longest client operations (each batch holds the write lock once, and
/// the request that meets it waits the hold out).
///
/// This stands in for a p95 the live phase cannot support: its
/// timeline holds a couple of dozen stalls, so fewer than two of them
/// lie beyond a time-weighted p95, which then reads whichever stall
/// happened to be longest (24–44 % spread over ten seeds). Nineteen in
/// twenty arrivals wait less than about one batch stall; the median
/// over batches says how long that is, and repeats.
fn batch_stall_ms(ops_ms: &[f64], batches: u64) -> f64 {
    let longest_first: Vec<f64> = stats::sorted(ops_ms.to_vec()).into_iter().rev().collect();
    let stalls = &longest_first[..(batches as usize).clamp(1, longest_first.len())];
    stats::median(stalls)
}

/// The two moments the traced run looks at a workload in progress.
enum Moment<'a> {
    /// The ingester has stopped, the grown node still serves; with the
    /// wallets' requests over the whole chain.
    Grown(&'a mut State, &'a [Request]),
    /// Nothing holds the grown store any more.
    Closed(&'a Path),
}

/// Runs the workload, showing `watch` both [`Moment`]s.
fn measure(
    ctx: &Ctx,
    reps: usize,
    mut watch: impl FnMut(Moment<'_>) -> Result<(), String>,
) -> Result<Outcome, String> {
    let shape = ctx.shape;
    let (mut state, setups) = repeat_setup(reps, || setup(ctx), teardown)?;
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();

    let live = live_phase(ctx, &mut state, &mut tally)?;

    // Bring the client to the final tip; the canary and the restart
    // probe query the whole grown chain.
    state
        .light
        .sync_new(&mut state.wire)
        .map_err(|e| format!("final sync_new: {e:?}"))?;
    let tip = state.light.tip();
    let grown: Vec<Request> = state
        .probes
        .iter()
        .map(|(addr, truth)| {
            Request::new(
                Query::address(addr.clone()).over(1, tip),
                vec![clip(truth, 1, tip)],
            )
        })
        .collect();
    outcome.canary_rejected =
        canary_rejected(&state.light.verifier(), &state.live, &grown[0], ctx.seed);
    let (index_bytes, block_bytes) = state.live.index_and_block_bytes();
    let disk_bytes = dir_bytes(&state.dir);

    // The grown node, ingester caught up: every wallet over the whole
    // chain, closed loop over the same connection. How many queries fit
    // between two ingest batches is a race, so the read *rate* of the
    // live serving path (and its exact byte count) is taken here.
    let mut closed = Closed::default();
    let mut bytes = PassBytes::new(grown.len());
    {
        let (light, wire) = (&mut state.light, &mut state.wire);
        closed_loop(
            &mut closed,
            &grown,
            1,
            shape.seconds * GROWN_SHARE,
            &mut tally,
            &mut bytes,
            |request: &Request| light.run(&request.query, wire),
        );
    }

    watch(Moment::Grown(&mut state, &grown))?;

    let State {
        dir,
        config,
        live: node,
        server,
        wire,
        prefix,
        header_sync_ms,
        append_secs,
        index_build_secs,
        ..
    } = state;
    drop(wire);
    let server_counts = server.shutdown();
    drop(node);
    watch(Moment::Closed(&dir))?;
    // Restart cycles on the grown store, now that nothing holds it.
    let (mut first_ms, mut open_ms) = (Vec::new(), Vec::new());
    restarts(
        &dir,
        config,
        &grown[0],
        shape.first_verified_cycles(10),
        &mut tally,
        &mut first_ms,
        &mut open_ms,
    )?;
    if first_ms.is_empty() {
        return Err("no restart reached a verified history".into());
    }
    let (first_ms, open_ms) = (stats::median(&first_ms), stats::median(&open_ms));
    let _ = std::fs::remove_dir_all(&dir);

    if live.latencies_ms.is_empty() || closed.rates.is_empty() {
        return Err("no verified request".into());
    }
    outcome.samples = live.ops_ms.len() as u64;
    let (mean_bytes, full_pass) = bytes.mean();
    outcome.full_pass = full_pass;
    let by_sample = stats::sorted(live.latencies_ms);
    outcome.tally = tally;
    outcome.metrics = BTreeMap::from([
        ("setup_s", stats::median(&setups)),
        ("verified_qps", stats::median(&closed.rates)),
        (
            "latency_p50_ms",
            stats::time_weighted_quantile(&live.ops_ms, 0.50),
        ),
        ("latency_p95_ms", batch_stall_ms(&live.ops_ms, live.batches)),
        ("bytes_per_query", mean_bytes),
        ("first_verified_ms", first_ms),
        (
            "ingest_blocks_per_s",
            live.appended as f64 / live.ingest_secs,
        ),
    ]);
    if live.appended != tip - prefix {
        return Err(format!(
            "appended {} blocks, expected {}",
            live.appended,
            tip - prefix
        ));
    }
    outcome.aux = BTreeMap::from([
        ("node.header_sync_ms", header_sync_ms),
        (
            "client.latency_p99_ms",
            stats::time_weighted_quantile(&live.ops_ms, 0.99),
        ),
        (
            "node.live_sample_p50_ms",
            stats::percentile(&by_sample, 0.50),
        ),
        (
            "node.live_reads_per_s",
            live.verified as f64 / live.ingest_secs,
        ),
        ("store.open_indexed_ms", open_ms),
        ("store.append_blocks_per_s", prefix as f64 / append_secs),
        (
            "store.index_push_ms_per_block",
            index_build_secs * 1e3 / prefix as f64,
        ),
        (
            "store.index_bytes_per_block_byte",
            index_bytes as f64 / block_bytes as f64,
        ),
        (
            "store.disk_bytes_per_block_byte",
            disk_bytes as f64 / block_bytes as f64,
        ),
        ("node.server_p50_us", server_counts.p50_us as f64),
        ("node.server_p99_us", server_counts.p99_us as f64),
        ("node.queue_highwater", server_counts.queue_highwater as f64),
        (
            "node.pipelined_depth_highwater",
            server_counts.pipelined_depth_highwater as f64,
        ),
        ("node.busy_shed", server_counts.busy as f64),
        ("node.ingest_batches", live.batches as f64),
        ("node.ingest_retries", live.retries as f64),
        (
            "node.sync_new_ms",
            if live.sync_ms.is_empty() {
                0.0
            } else {
                stats::median(&live.sync_ms)
            },
        ),
    ]);
    Ok(outcome)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    measure(ctx, ctx.shape.setup_reps(), |_| Ok(()))
}

pub fn trace(ctx: &Ctx) -> Result<Traced, String> {
    let mut layers = BTreeMap::new();
    let mut spans = Recorder::new();
    let quick = ctx.shape.quick;
    let outcome = measure(&shortened(ctx), 1, |moment| match moment {
        Moment::Grown(state, list) => {
            let requests: Vec<&Request> = list.iter().collect();
            let verifier = state.light.verifier();
            let live = &state.live;
            // The ingester has stopped: nothing takes the write lock,
            // so reading the chain under the node's read lock while the
            // node answers under another one cannot stall.
            live.with_chain(|chain| {
                staged::replay(&mut spans, &mut layers, chain, live, &verifier, &requests)
            })?;
            staged::untraced(
                &mut layers,
                || live.with_chain(|chain| chain.cache_counts()),
                live,
                &mut state.light,
                &requests,
            )?;
            let tcp = Wire::tcp(state.server.addr())?;
            staged::wire_self(&mut layers, tcp, &mut state.light, &requests)?;
            live.with_chain(|chain| {
                staged::micro(&mut layers, chain, &list[0].query.targets[0], quick)
            })?;
            live.with_chain(|chain| store_layers(&mut layers, chain));
            Ok(())
        }
        Moment::Closed(dir) => closed_store_layers(&mut layers, dir),
    })?;
    Ok(Traced {
        outcome,
        layers,
        spans,
    })
}
