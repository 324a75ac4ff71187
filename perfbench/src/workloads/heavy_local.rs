//! `heavy-local`: chain `P` in memory, `LightNode::run` over a
//! `LocalTransport`, closed loop on one thread, Addr4 → Addr5 → Addr6
//! round-robin.
//!
//! Proofs are MBs of 30 KB endpoint filters plus dozens of resolved
//! blocks, so time goes to SHA-256 over filters (verify), fragment
//! building (prove) and the codec on multi-MB payloads. No sockets and
//! no disk: a node-server or store change must show no change here.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::span::Recorder;
use crate::stats;
use crate::surface::{build_chain, Light, MemNode, Query, Wire};

use super::{
    canary_rejected, closed_loop, repeat_setup, round_share, shortened, staged, Closed, Ctx,
    Outcome, PassBytes, Request, Tally, Traced, ROUNDS,
};

/// Passes over Addr4..6 per window: a second of work, 24 latency
/// samples, so the window's p95 is its second-longest request.
const PASSES_PER_WINDOW: usize = 8;

struct State {
    node: MemNode,
    light: Light,
    /// Addr4, Addr5, Addr6 with their ground truth.
    requests: Vec<Request>,
    build_secs: f64,
    blocks: u64,
    header_sync_ms: f64,
}

fn setup(ctx: &Ctx) -> Result<State, String> {
    let spec = ctx.shape.chain_p();
    let started = Instant::now();
    let built = build_chain(&spec, ctx.seed);
    let build_secs = started.elapsed().as_secs_f64();
    let blocks = built.tip();
    let requests = built.probes[3..6]
        .iter()
        .map(|addr| Request::new(Query::address(addr.clone()), vec![built.truth(addr)]))
        .collect();
    let node = MemNode::new(built);
    let started = Instant::now();
    let light = Light::sync(&mut Wire::local(&node), spec.config())
        .map_err(|e| format!("header sync: {e:?}"))?;
    Ok(State {
        light,
        node,
        requests,
        build_secs,
        blocks,
        header_sync_ms: started.elapsed().as_secs_f64() * 1e3,
    })
}

/// Cold starts of an in-memory node: every cache empty, a fresh light
/// client, first verified history (Addr4). Appends one time per cycle.
fn first_verified(
    state: &State,
    ctx: &Ctx,
    cycles: usize,
    tally: &mut Tally,
    times_ms: &mut Vec<f64>,
) -> Result<(), String> {
    let probe = &state.requests[0];
    for _ in 0..cycles {
        state.node.chain().clear_caches();
        let started = Instant::now();
        let mut wire = Wire::local(&state.node);
        let mut light = Light::sync(&mut wire, ctx.shape.chain_p().config())
            .map_err(|e| format!("header sync: {e:?}"))?;
        let answer = light.run(&probe.query, &mut wire).map(|a| a.histories);
        let elapsed = started.elapsed();
        if tally.admit(&answer, &probe.truth) {
            times_ms.push(elapsed.as_secs_f64() * 1e3);
        }
    }
    Ok(())
}

fn measure(ctx: &Ctx, reps: usize) -> Result<(Outcome, State), String> {
    let shape = ctx.shape;
    let mut build_rates = Vec::new();
    let (mut state, setups) = repeat_setup(
        reps,
        || {
            let state = setup(ctx)?;
            build_rates.push(state.blocks as f64 / state.build_secs);
            Ok(state)
        },
        drop,
    )?;
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();
    let mut bytes = PassBytes::new(state.requests.len());
    let mut first_ms = Vec::new();
    let mut closed = Closed::default();

    for round in 0..ROUNDS {
        let cycles = round_share(shape.first_verified_cycles(30), round);
        first_verified(&state, ctx, cycles, &mut tally, &mut first_ms)?;
        let mut wire = Wire::local(&state.node);
        let light = &mut state.light;
        let mut run = |request: &Request| light.run(&request.query, &mut wire);
        // One untimed pass refills the caches the cold starts emptied.
        for request in &state.requests {
            run(request).map_err(|e| format!("warm-up: {e:?}"))?;
        }
        closed_loop(
            &mut closed,
            &state.requests,
            PASSES_PER_WINDOW,
            shape.seconds / ROUNDS as f64,
            &mut tally,
            &mut bytes,
            &mut run,
        );
    }
    outcome.canary_rejected = canary_rejected(
        &state.light.verifier(),
        &state.node,
        &state.requests[2],
        ctx.seed,
    );
    if closed.p50_ms.is_empty() || first_ms.is_empty() {
        return Err("no verified request".into());
    }
    outcome.samples = closed.samples();
    let (mean_bytes, full_pass) = bytes.mean();
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
        ("node.header_sync_ms", state.header_sync_ms),
        ("client.latency_p99_ms", closed.pooled_p99_ms()),
    ]);
    Ok((outcome, state))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    Ok(measure(ctx, ctx.shape.setup_reps())?.0)
}

pub fn trace(ctx: &Ctx) -> Result<Traced, String> {
    let (outcome, mut state) = measure(&shortened(ctx), 1)?;
    let mut layers = BTreeMap::new();
    let mut spans = Recorder::new();
    // Four passes over Addr4..6: enough spans for stable means.
    let passes = if ctx.shape.quick { 1 } else { 4 };
    let requests: Vec<&Request> = (0..passes).flat_map(|_| state.requests.iter()).collect();
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
    staged::micro(
        &mut layers,
        state.node.chain(),
        &state.requests[2].query.targets[0],
        ctx.shape.quick,
    )?;
    Ok(Traced {
        outcome,
        layers,
        spans,
    })
}
