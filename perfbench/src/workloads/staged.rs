//! The traced run's single-threaded replay: each request of the seeded
//! list goes through the public functions of every layer, one stage at
//! a time, with a span around each call. Composite calls
//! (`node.handle`, `core.prove`) are opaque from outside, so their
//! children are replayed separately on the same request and subtracted.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::span::Recorder;
use crate::surface::{
    bit_positions, decode_reply, decode_request, hash256_of, sha256_of, Addr, ChainRef, Light,
    Peer, Query, Verifier, Wire,
};

use super::Request;

/// Exact counts summed over a replay.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    singles: u64,
    batches: u64,
    reply_bytes: u64,
    bmt_endpoints: u64,
    blocks_resolved: u64,
    fpm_blocks: u64,
}

/// Replays `requests` stage by stage into `rec` and folds the spans
/// into layer metrics.
pub fn replay(
    rec: &mut Recorder,
    layers: &mut BTreeMap<&'static str, f64>,
    chain: ChainRef<'_>,
    peer: &dyn Peer,
    verifier: &Verifier,
    requests: &[&Request],
) -> Result<(), String> {
    let config = chain.config();
    let mut counts = Counts::default();
    for (i, request) in requests.iter().enumerate() {
        let id = i as u64 + 1;
        let query = &request.query;
        let (prove_name, verify_name) = if query.batch {
            counts.batches += 1;
            ("core.prove_batch", "core.verify_batch")
        } else {
            counts.singles += 1;
            ("core.prove", "core.verify")
        };

        // The blocking path of one request, as the light node walks it.
        let root = rec.open("request", id, None);
        let (_, encoded) = rec.time("client.encode_request", id, Some(root), || query.encode());
        let (handle, reply) = rec.time("node.handle", id, Some(root), || peer.handle(&encoded));
        let (_, decoded) = rec.time("codec.decode_response", id, Some(root), || {
            decode_reply(&reply)
        });
        let decoded = decoded.map_err(|e| format!("staged reply {id}: {e:?}"))?;
        let (_, verified) = rec.time(verify_name, id, Some(root), || {
            verifier.verify(query, &decoded)
        });
        rec.close(root);
        if verified.as_deref() != Ok(request.truth.as_slice()) {
            return Err(format!(
                "staged request {id} did not verify to ground truth"
            ));
        }

        // `node.handle` replayed child by child.
        rec.time("codec.decode_request", id, Some(handle), || {
            black_box(decode_request(&encoded))
        });
        let (prove, proved) = rec.time(prove_name, id, Some(handle), || chain.prove(query));
        let (proved, proof) = proved?;
        counts.bmt_endpoints += proof.bmt_endpoints;
        counts.blocks_resolved += proof.blocks_resolved;
        counts.fpm_blocks += proof.fpm_blocks;
        if !query.batch {
            // `core.prove` replayed child by child.
            let addr = &query.targets[0];
            let positions = bit_positions(config, addr);
            for (lo, hi) in chain.segments(query) {
                rec.time("merkle.bmt_prove", id, Some(prove), || {
                    black_box(chain.bmt_prove(lo, hi, &positions))
                });
            }
            for height in proved.resolved_heights() {
                rec.time("chain.block_read", id, Some(prove), || {
                    black_box(chain.block(height))
                });
                rec.time("merkle.smt_prove", id, Some(prove), || {
                    black_box(chain.smt_prove(height, addr))
                });
            }
        }
        let (_, bytes) = rec.time("codec.encode_response", id, Some(handle), || {
            proved.encode()
        });
        if bytes != reply {
            return Err(format!(
                "staged request {id}: replayed proof differs from the reply"
            ));
        }
        counts.reply_bytes += reply.len() as u64;
    }

    let total = rec.total_by_name();
    let own = rec.self_by_name();
    let sum_ns = |name: &str| total.get(name).map_or(0, |t| t.1) as f64;
    let mean_ns = |name: &str| {
        total
            .get(name)
            .map_or(0.0, |(n, ns)| *ns as f64 / (*n).max(1) as f64)
    };
    let mb_per_s = |name: &str| {
        let ns = sum_ns(name);
        if ns == 0.0 {
            0.0
        } else {
            counts.reply_bytes as f64 / 1e6 / (ns / 1e9)
        }
    };
    layers.insert("core.prove_ms", mean_ns("core.prove") / 1e6);
    layers.insert("core.verify_ms", mean_ns("core.verify") / 1e6);
    layers.insert("core.prove_batch_ms", mean_ns("core.prove_batch") / 1e6);
    layers.insert("core.verify_batch_ms", mean_ns("core.verify_batch") / 1e6);
    layers.insert(
        "merkle.bmt_prove_ms",
        sum_ns("merkle.bmt_prove") / counts.singles.max(1) as f64 / 1e6,
    );
    layers.insert("merkle.smt_prove_us", mean_ns("merkle.smt_prove") / 1e3);
    layers.insert("chain.block_read_us", mean_ns("chain.block_read") / 1e3);
    layers.insert("codec.encode_mb_s", mb_per_s("codec.encode_response"));
    layers.insert("codec.decode_mb_s", mb_per_s("codec.decode_response"));
    layers.insert(
        "node.handle_self_us",
        own.get("node.handle")
            .map_or(0.0, |(n, ns)| *ns as f64 / (*n).max(1) as f64 / 1e3),
    );
    layers.insert("trace.staged_ms", mean_ns("request") / 1e6);
    layers.insert("merkle.bmt_endpoints", counts.bmt_endpoints as f64);
    layers.insert("core.blocks_resolved", counts.blocks_resolved as f64);
    layers.insert("core.fpm_blocks", counts.fpm_blocks as f64);
    Ok(())
}

/// The untraced reference: the same requests through `LightNode::run`
/// over a `LocalTransport`, timed as a whole, with the chain's cache
/// counters read before and after. Sets `trace.untraced_ms`,
/// `trace.overhead_pct` and the hit ratios.
pub fn untraced(
    layers: &mut BTreeMap<&'static str, f64>,
    chain: impl Fn() -> crate::surface::CacheCounts,
    peer: &dyn Peer,
    light: &mut Light,
    requests: &[&Request],
) -> Result<(), String> {
    let mut wire = Wire::local(peer);
    let before = chain();
    let started = Instant::now();
    for request in requests {
        let answer = light
            .run(&request.query, &mut wire)
            .map_err(|e| format!("untraced pass: {e:?}"))?;
        if answer.histories != request.truth {
            return Err("untraced pass deviates from ground truth".into());
        }
    }
    let mean_ms = started.elapsed().as_secs_f64() * 1e3 / requests.len().max(1) as f64;
    let after = chain();
    let ratio = |(h0, m0): (u64, u64), (h1, m1): (u64, u64)| {
        let (hits, misses) = (h1 - h0, m1 - m0);
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    layers.insert(
        "chain.filter_hit_ratio",
        ratio(before.filters, after.filters),
    );
    layers.insert("chain.smt_hit_ratio", ratio(before.smts, after.smts));
    layers.insert("chain.block_hit_ratio", ratio(before.blocks, after.blocks));
    layers.insert(
        "store.index_node_hit_ratio",
        ratio(before.index_nodes, after.index_nodes),
    );
    layers.insert("trace.untraced_ms", mean_ms);
    let staged = layers.get("trace.staged_ms").copied().unwrap_or(0.0);
    layers.insert("trace.overhead_pct", (staged - mean_ms) / mean_ms * 100.0);
    Ok(())
}

/// `node.wire_self_us`: the same requests over a `TcpTransport` minus
/// over a `LocalTransport`, mean per request.
pub fn wire_self(
    layers: &mut BTreeMap<&'static str, f64>,
    mut tcp: Wire<'_>,
    light: &mut Light,
    requests: &[&Request],
) -> Result<(), String> {
    let started = Instant::now();
    for request in requests {
        light
            .run(&request.query, &mut tcp)
            .map_err(|e| format!("tcp pass: {e:?}"))?;
    }
    let tcp_ms = started.elapsed().as_secs_f64() * 1e3 / requests.len().max(1) as f64;
    let local_ms = layers.get("trace.untraced_ms").copied().unwrap_or(0.0);
    layers.insert("node.wire_self_us", (tcp_ms - local_ms) * 1e3);
    Ok(())
}

/// Runs `f` until `min_secs` have passed; returns seconds per call.
fn per_call(min_secs: f64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u64;
    let mut batch = 1u64;
    loop {
        for _ in 0..batch {
            f();
        }
        calls += batch;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= min_secs {
            return elapsed / calls as f64;
        }
        batch *= 2;
    }
}

/// Single-layer loops on the workload's own data: SHA-256 and Bloom
/// operations on real filters, the cold span-filter recompute and the
/// cold proof.
pub fn micro(
    layers: &mut BTreeMap<&'static str, f64>,
    chain: ChainRef<'_>,
    probe: &Addr,
    quick: bool,
) -> Result<(), String> {
    let min_secs = if quick { 0.005 } else { 0.1 };
    let config = chain.config();
    let tip = chain.tip();
    let mut left = chain.span_filter(1, 1);
    let right = chain.span_filter(tip, tip);

    let secs = per_call(min_secs, || {
        black_box(sha256_of(black_box(left.bytes())));
    });
    layers.insert(
        "crypto.sha256_filter_mb_s",
        left.bytes().len() as f64 / 1e6 / secs,
    );
    let block = [0x5au8; 64];
    let secs = per_call(min_secs, || {
        black_box(hash256_of(black_box(&block)));
    });
    layers.insert("crypto.hash256_64b_ns", secs * 1e9);

    // The widest dyadic span of the first segment: the BMT root filter.
    let mut width = 1;
    while width * 2 <= tip.min(config.segment_len()) {
        width *= 2;
    }
    let root = chain.span_filter(1, width);
    let secs = per_call(min_secs, || {
        let positions = bit_positions(config, black_box(probe));
        black_box(root.is_clean(&positions));
    });
    layers.insert("bloom.check_positions_ns", secs * 1e9);
    let secs = per_call(min_secs, || {
        left.union_with(black_box(&right));
    });
    layers.insert("bloom.union_us", secs * 1e6);

    let reps = if quick { 1 } else { 3 };
    let mut cold_filter = Vec::new();
    let mut cold_prove = Vec::new();
    for _ in 0..reps {
        chain.clear_caches();
        let started = Instant::now();
        black_box(chain.span_filter(1, width));
        cold_filter.push(started.elapsed().as_secs_f64() * 1e3);
        chain.clear_caches();
        let started = Instant::now();
        black_box(chain.prove(&Query::address(probe.clone()))?);
        cold_prove.push(started.elapsed().as_secs_f64() * 1e3);
    }
    layers.insert(
        "chain.span_filter_cold_ms",
        crate::stats::median(&cold_filter),
    );
    layers.insert("core.prove_cold_ms", crate::stats::median(&cold_prove));
    Ok(())
}
