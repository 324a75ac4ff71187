//! `cold-store`: chain `D` on disk (`lvq-store` segments plus the
//! persistent Merkle-AVL address index), served in process.
//!
//! Phase A restarts the node over and over: `open_chain_indexed` →
//! first verified query → drop. Phase B opens it once with every cache
//! budget below the working set and runs all six probes round-robin in
//! a closed loop, so each query pays store record reads, CRC, block
//! decode, AVL point reads through positional child links and
//! span-filter OR-recompute. This is the workload larger than the
//! program's caches; sockets are never touched.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::span::Recorder;
use crate::stats;
use crate::surface::{
    build_chain, open_replay, store_read_all, Config, DiskNode, IndexOpen, Light, Query, Wire,
};

use super::{
    canary_rejected, closed_loop, repeat_setup, round_share, shortened, staged, Closed, Ctx,
    Outcome, PassBytes, Request, Tally, Traced, ROUNDS,
};

/// Total size of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Passes over Addr1..6 per window: a good second of work, 24 latency
/// samples, so the window's p95 is its second-longest request.
const PASSES_PER_WINDOW: usize = 4;

struct State {
    dir: PathBuf,
    config: Config,
    /// Addr1..Addr6 with their ground truth.
    requests: Vec<Request>,
    blocks: u64,
    append_secs: f64,
    index_build_secs: f64,
}

fn setup(ctx: &Ctx) -> Result<State, String> {
    let spec = ctx.shape.chain_d();
    let built = build_chain(&spec, ctx.seed);
    let blocks = built.tip();
    let requests = built
        .probes
        .iter()
        .map(|addr| Request::new(Query::address(addr.clone()), vec![built.truth(addr)]))
        .collect();
    let dir = ctx.work_dir.join("cold-store");
    let _ = std::fs::remove_dir_all(&dir);
    let started = Instant::now();
    built.store_prefix(&dir, blocks)?;
    let append_secs = started.elapsed().as_secs_f64();
    // The first indexed open finds no index and builds it from the
    // blocks: set-up, like the ingest before it.
    let started = Instant::now();
    let (node, how) = DiskNode::open(&dir, None)?;
    let index_build_secs = started.elapsed().as_secs_f64();
    if how != IndexOpen::Built {
        return Err(format!("first open should build the index, was {how:?}"));
    }
    drop(node);
    Ok(State {
        dir,
        config: spec.config(),
        requests,
        blocks,
        append_secs,
        index_build_secs,
    })
}

/// Restart cycles on a store nothing else holds open:
/// `open_chain_indexed` → header sync → first verified query → drop.
/// Appends the whole cycle's and the open's time in ms, one each per
/// cycle. Shared with `ingest-live`.
pub fn restarts(
    dir: &Path,
    config: Config,
    probe: &Request,
    cycles: usize,
    tally: &mut Tally,
    first_ms: &mut Vec<f64>,
    open_ms: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..cycles {
        let started = Instant::now();
        let (node, how) = DiskNode::open(dir, None)?;
        open_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if how != IndexOpen::Intact {
            return Err(format!("restart should find the index intact, was {how:?}"));
        }
        let mut wire = Wire::local(&node);
        let mut light =
            Light::sync(&mut wire, config).map_err(|e| format!("header sync: {e:?}"))?;
        let answer = light.run(&probe.query, &mut wire).map(|a| a.histories);
        let elapsed = started.elapsed();
        if tally.admit(&answer, &probe.truth) {
            first_ms.push(elapsed.as_secs_f64() * 1e3);
        }
    }
    Ok(())
}

/// Phase B's node: one open with every budget below the working set,
/// a synced light client, and one untimed pass over the probes.
fn open_thrash(ctx: &Ctx, state: &State) -> Result<(DiskNode, Light, f64), String> {
    let (node, _) = DiskNode::open(&state.dir, Some(ctx.shape.thrash_budgets()))?;
    let started = Instant::now();
    let mut light = Light::sync(&mut Wire::local(&node), state.config)
        .map_err(|e| format!("header sync: {e:?}"))?;
    let header_sync_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut wire = Wire::local(&node);
    for request in &state.requests {
        light
            .run(&request.query, &mut wire)
            .map_err(|e| format!("warm-up: {e:?}"))?;
    }
    drop(wire);
    Ok((node, light, header_sync_ms))
}

struct Measured {
    outcome: Outcome,
    state: State,
    node: DiskNode,
    light: Light,
}

fn measure(ctx: &Ctx, reps: usize) -> Result<Measured, String> {
    let shape = ctx.shape;
    let mut build_rates = Vec::new();
    let (state, setups) = repeat_setup(
        reps,
        || {
            let state = setup(ctx)?;
            build_rates.push(state.blocks as f64 / (state.append_secs + state.index_build_secs));
            Ok(state)
        },
        drop,
    )?;
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();
    let mut bytes = PassBytes::new(state.requests.len());
    let (mut first_ms, mut open_ms) = (Vec::new(), Vec::new());
    let mut closed = Closed::default();

    let mut thrash = None;
    for round in 0..ROUNDS {
        // Nothing else holds the store while a restart cycle opens it.
        drop(thrash.take());
        let cycles = round_share(shape.first_verified_cycles(30), round);
        restarts(
            &state.dir,
            state.config,
            &state.requests[2],
            cycles,
            &mut tally,
            &mut first_ms,
            &mut open_ms,
        )?;
        let (node, mut light, header_sync_ms) = open_thrash(ctx, &state)?;
        let mut wire = Wire::local(&node);
        closed_loop(
            &mut closed,
            &state.requests,
            PASSES_PER_WINDOW,
            shape.seconds / ROUNDS as f64,
            &mut tally,
            &mut bytes,
            |request: &Request| light.run(&request.query, &mut wire),
        );
        drop(wire);
        thrash = Some((node, light, header_sync_ms));
    }
    let (node, light, header_sync_ms) = thrash.expect("at least one round");
    outcome.canary_rejected =
        canary_rejected(&light.verifier(), &node, &state.requests[5], ctx.seed);
    if closed.p50_ms.is_empty() || first_ms.is_empty() {
        return Err("no verified request".into());
    }
    outcome.samples = closed.samples();
    let (mean_bytes, full_pass) = bytes.mean();
    let (index_bytes, block_bytes) = node.index_and_block_bytes();
    outcome.full_pass = full_pass;
    outcome.tally = tally;
    outcome.metrics = BTreeMap::from([
        ("setup_s", stats::median(&setups)),
        ("verified_qps", stats::median(&closed.rates)),
        ("latency_p50_ms", stats::median(&closed.p50_ms)),
        ("latency_p95_ms", stats::median(&closed.p95_ms)),
        ("bytes_per_query", mean_bytes),
        ("first_verified_ms", stats::median(&first_ms)),
        ("ingest_blocks_per_s", stats::median(&build_rates)),
    ]);
    outcome.aux = BTreeMap::from([
        ("node.header_sync_ms", header_sync_ms),
        ("client.latency_p99_ms", closed.pooled_p99_ms()),
        ("store.open_indexed_ms", stats::median(&open_ms)),
        (
            "store.append_blocks_per_s",
            state.blocks as f64 / state.append_secs,
        ),
        (
            "store.index_push_ms_per_block",
            state.index_build_secs * 1e3 / state.blocks as f64,
        ),
        (
            "store.index_bytes_per_block_byte",
            index_bytes as f64 / block_bytes as f64,
        ),
        (
            "store.disk_bytes_per_block_byte",
            dir_bytes(&state.dir) as f64 / block_bytes as f64,
        ),
    ]);
    Ok(Measured {
        outcome,
        state,
        node,
        light,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let measured = measure(ctx, ctx.shape.setup_reps())?;
    drop(measured.node);
    let _ = std::fs::remove_dir_all(&measured.state.dir);
    Ok(measured.outcome)
}

/// Layer metrics only a store-backed chain has: AVL point reads on a
/// cold node cache, raw record reads, and the replay open the index
/// replaces. Shared with `ingest-live`.
pub fn store_layers(layers: &mut BTreeMap<&'static str, f64>, chain: crate::surface::ChainRef<'_>) {
    let tip = chain.tip();
    chain.clear_caches();
    let before = chain.cache_counts();
    let started = Instant::now();
    for height in 1..=tip {
        std::hint::black_box(chain.addr_counts(height));
    }
    let secs = started.elapsed().as_secs_f64();
    let after = chain.cache_counts();
    layers.insert("store.index_point_read_us", secs * 1e6 / tip as f64);
    layers.insert(
        "store.index_node_loads_per_read",
        (after.index_nodes.1 - before.index_nodes.1) as f64 / tip as f64,
    );
}

/// `store.read_block_us` and `store.open_replay_ms`, on a store no
/// node holds open.
pub fn closed_store_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    dir: &Path,
) -> Result<(), String> {
    let started = Instant::now();
    let blocks = store_read_all(dir)?;
    layers.insert(
        "store.read_block_us",
        started.elapsed().as_secs_f64() * 1e6 / blocks.max(1) as f64,
    );
    let started = Instant::now();
    open_replay(dir)?;
    layers.insert(
        "store.open_replay_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    Ok(())
}

pub fn trace(ctx: &Ctx) -> Result<Traced, String> {
    let Measured {
        outcome,
        state,
        node,
        mut light,
    } = measure(&shortened(ctx), 1)?;
    let mut layers = BTreeMap::new();
    let mut spans = Recorder::new();
    let passes = if ctx.shape.quick { 1 } else { 4 };
    let requests: Vec<&Request> = (0..passes).flat_map(|_| state.requests.iter()).collect();
    let verifier = light.verifier();
    staged::replay(
        &mut spans,
        &mut layers,
        node.chain(),
        &node,
        &verifier,
        &requests,
    )?;
    staged::untraced(
        &mut layers,
        || node.chain().cache_counts(),
        &node,
        &mut light,
        &requests,
    )?;
    staged::micro(
        &mut layers,
        node.chain(),
        &state.requests[5].query.targets[0],
        ctx.shape.quick,
    )?;
    store_layers(&mut layers, node.chain());
    drop(node);
    closed_store_layers(&mut layers, &state.dir)?;
    let _ = std::fs::remove_dir_all(&state.dir);
    Ok(Traced {
        outcome,
        layers,
        spans,
    })
}
