//! The benchmark's registry: workloads, chains, end-to-end metrics with
//! their bounds, and per-layer metrics with the end-to-end metric each
//! should move. `BENCHMARK.json` is this file rendered (`perf list
//! --benchmark-json`); a unit test keeps the two equal.

use crate::json::Value;
use crate::surface::{Budgets, ChainSpec, Traffic};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and why it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const LIGHT_TCP: &str = "light-tcp";
pub const HEAVY_LOCAL: &str = "heavy-local";
pub const COLD_STORE: &str = "cold-store";
pub const INGEST_LIVE: &str = "ingest-live";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: LIGHT_TCP,
        why: "small proofs over one pipelined TCP connection: per-message cost (event loop, envelope, frames, codec) is the largest share; the store is never touched",
    },
    Workload {
        name: HEAVY_LOCAL,
        why: "multi-MB proofs in process: SHA-256 over filters, fragment building and codec dominate; no sockets, no disk, so a server or store change must show no change here",
    },
    Workload {
        name: COLD_STORE,
        why: "restart, then a working set larger than every cache: record reads, CRC, block decode, AVL point reads and span-filter recompute; sockets are never touched",
    },
    Workload {
        name: INGEST_LIVE,
        why: "writes beside reads: store append, index push and sync grow the chain while closed-loop queries contend for the node's lock; a read gain paid by the write path shows here",
    },
];

/// A metric a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// Deterministic per seed on the workloads that replay a fixed
    /// request list: `compare` demands bit-equality there.
    pub exact: bool,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        what: "median of the run's set-ups: chain generation, store ingest, index build, node start, header sync",
    },
    EndToEnd {
        name: "verified_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
        what: "closed-loop requests per second whose history verified and equals ground truth: median of windows, on ingest-live over the whole live phase",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        what: "closed loop, submit to verified history, median over windows of the window's p50 (light-tcp: four requests in flight); ingest-live: the wait of a request arriving at a random instant of the live phase",
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        what: "the same samples, the window's p95; ingest-live: the stall behind one ingest batch (median over batches)",
    },
    EndToEnd {
        name: "bytes_per_query",
        unit: "B",
        better: Better::Lower,
        bound: 0.25,
        exact: true,
        what: "mean response payload bytes over one pass of the seeded request list: the paper's metric",
    },
    EndToEnd {
        name: "first_verified_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        what: "cold start to first verified history, median of cycles: indexed store open (cold-store, ingest-live), cold caches (heavy-local), connect and header sync (light-tcp)",
    },
    EndToEnd {
        name: "ingest_blocks_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
        what: "blocks absorbed per second by the workload's chain: live TipIngester (ingest-live), store append + index build (cold-store), in-memory chain build (light-tcp, heavy-local)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
        exact: false,
        what: "VmHWM of the one process that ran the workload, read at exit",
    },
];

/// A metric of a single layer, measured by the traced run.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Comes from the single-threaded replay or from file sizes, so it
    /// repeats exactly per seed: `compare` demands bit-equality.
    pub exact: bool,
    /// The timed call or the public stats it is read from.
    pub source: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    source: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact,
        source,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [Layer; 53] = [
    layer("crypto.sha256_filter_mb_s", "MB/s", Higher, false, "lvq_crypto::sha256 over one filter of the workload's size", "latency_*, verified_qps via core.verify_ms on heavy-local >> light-tcp; ingest_blocks_per_s via index hashing"),
    layer("crypto.hash256_64b_ns", "ns", Lower, false, "Hash256::hash over 64 bytes", "latency_*, verified_qps on heavy-local; ingest_blocks_per_s on ingest-live"),
    layer("bloom.check_positions_ns", "ns", Lower, false, "BloomFilter::bit_positions + check_positions on a real span filter", "first_verified_ms, verified_qps on cold-store; none elsewhere"),
    layer("bloom.union_us", "us", Lower, false, "BloomFilter::union_with on two real leaf filters", "first_verified_ms, verified_qps on cold-store (span-filter recompute)"),
    layer("merkle.bmt_prove_ms", "ms", Lower, false, "Chain::segment_source + bmt::prove per segment, mean per request", "latency_*, verified_qps on heavy-local, cold-store; bytes_per_query must not move"),
    layer("merkle.bmt_endpoints", "count", Lower, true, "BmtProofStats::endpoint_count summed over the replay", "bytes_per_query (one filter per endpoint)"),
    layer("merkle.smt_prove_us", "us", Lower, false, "Chain::address_smt + SortedMerkleTree::prove per resolved block", "latency_* on heavy-local, cold-store"),
    layer("codec.encode_mb_s", "MB/s", Higher, false, "Encodable::encode of real replies", "verified_qps, latency_p50_ms on heavy-local (about a fifth of a query), light-tcp"),
    layer("codec.decode_mb_s", "MB/s", Higher, false, "decode_exact::<Message> of real replies", "verified_qps, latency_p50_ms on heavy-local, light-tcp"),
    layer("chain.span_filter_cold_ms", "ms", Lower, false, "Chain::span_filter over the first segment after clear_caches", "first_verified_ms on cold-store, heavy-local; verified_qps on cold-store"),
    layer("chain.block_read_us", "us", Lower, false, "Chain::block per resolved block", "verified_qps, latency_* on cold-store"),
    layer("chain.filter_hit_ratio", "ratio", Higher, false, "Chain::cache_stats().filters over the untraced pass", "verified_qps on cold-store; 1.0 on heavy-local and light-tcp"),
    layer("chain.smt_hit_ratio", "ratio", Higher, false, "Chain::cache_stats().smts over the untraced pass", "verified_qps on cold-store; 1.0 on heavy-local"),
    layer("chain.block_hit_ratio", "ratio", Higher, false, "Chain::cache_stats().blocks over the untraced pass", "verified_qps on cold-store; 0 where blocks live in memory"),
    layer("store.read_block_us", "us", Lower, false, "BlockStore::read_block over every height", "first_verified_ms, verified_qps on cold-store"),
    layer("store.append_blocks_per_s", "1/s", Higher, false, "BlockStore::append + sync of the set-up ingest", "ingest_blocks_per_s on ingest-live, cold-store; setup_s"),
    layer("store.open_indexed_ms", "ms", Lower, false, "open_chain_indexed on an intact index", "first_verified_ms on cold-store, ingest-live"),
    layer("store.open_replay_ms", "ms", Lower, false, "open_chain (full derived-state replay)", "none end to end: the path the index replaces, kept as its yardstick"),
    layer("store.index_push_ms_per_block", "ms", Lower, false, "the first open_chain_indexed (extend_batch + sync_derived into the AVL) per block", "ingest_blocks_per_s on ingest-live, cold-store; setup_s"),
    layer("store.index_point_read_us", "us", Lower, false, "Chain::addr_counts per height after clear_caches", "first_verified_ms, verified_qps on cold-store"),
    layer("store.index_node_loads_per_read", "count", Lower, true, "cache_stats().index_nodes misses per addr_counts read", "first_verified_ms, verified_qps on cold-store (what a key-addressed index must cut)"),
    layer("store.index_node_hit_ratio", "ratio", Higher, false, "cache_stats().index_nodes over the untraced pass", "verified_qps on cold-store"),
    layer("store.index_bytes_per_block_byte", "ratio", Lower, true, "IndexedTables::data_bytes / BlockStore::data_bytes", "ingest_blocks_per_s, setup_s (bytes written per block)"),
    layer("store.disk_bytes_per_block_byte", "ratio", Lower, true, "every file of the store directory / BlockStore::data_bytes", "the storage cost a user pays on cold-store, ingest-live"),
    layer("core.prove_ms", "ms", Lower, false, "Prover::respond / respond_range, mean per single-address request", "latency_*, verified_qps on heavy-local (a third of Addr6), cold-store"),
    layer("core.prove_cold_ms", "ms", Lower, false, "Prover::respond after clear_caches", "first_verified_ms on heavy-local, cold-store"),
    layer("core.verify_ms", "ms", Lower, false, "LightClient::verify / verify_range, mean per single-address request", "latency_*, verified_qps on heavy-local (the largest stage), light-tcp"),
    layer("core.prove_batch_ms", "ms", Lower, false, "Prover::respond_batch, mean per batch request", "latency_*, verified_qps on light-tcp"),
    layer("core.verify_batch_ms", "ms", Lower, false, "LightClient::verify_batch, mean per batch request", "latency_*, verified_qps on light-tcp"),
    layer("core.blocks_resolved", "count", Lower, true, "ProverStats::blocks_resolved summed over the replay", "latency_*, bytes_per_query"),
    layer("core.fpm_blocks", "count", Lower, true, "ProverStats::fpm_blocks summed over the replay", "bytes_per_query (false-positive matches cost an SMT proof each)"),
    layer("node.handle_self_us", "us", Lower, false, "FullNode::handle minus its replayed children (request decode, prove, reply encode)", "latency_*, verified_qps on light-tcp"),
    layer("node.wire_self_us", "us", Lower, false, "LightNode::run over TcpTransport minus over LocalTransport, mean", "latency_*, verified_qps on light-tcp; latency_* on ingest-live; 0 where no socket is used"),
    layer("node.header_sync_ms", "ms", Lower, false, "LightNode::sync_from", "first_verified_ms on light-tcp; setup_s"),
    layer("node.sync_new_ms", "ms", Lower, false, "LightNode::sync_new during the live phase, median", "none end to end: timed apart from the latency percentiles on ingest-live"),
    layer("node.live_reads_per_s", "1/s", Higher, false, "verified queries per second of the live phase, between ingest batches", "none end to end: a race between the client and the ingester's lock, reported without a bound (ingest-live)"),
    layer("node.live_sample_p50_ms", "ms", Lower, false, "median by sample of the live phase's query latencies", "none end to end: the fast mode latency_p50_ms (time-weighted) does not show (ingest-live)"),
    layer("node.server_p50_us", "us", Lower, false, "NodeServer::stats().latency.p50_us of the loaded phase", "latency_p50_ms on light-tcp, ingest-live"),
    layer("node.server_p99_us", "us", Lower, false, "NodeServer::stats().latency.p99_us of the loaded phase", "latency_p95_ms on light-tcp, ingest-live (lock stalls)"),
    layer("node.queue_highwater", "count", Lower, false, "ServerStats::queue_highwater", "latency_p95_ms on light-tcp, ingest-live"),
    layer("node.pipelined_depth_highwater", "count", Lower, false, "ServerStats::pipelined_depth_highwater", "latency_p95_ms on light-tcp"),
    layer("node.busy_shed", "count", Lower, false, "ServerStats::busy", "failed requests on light-tcp, ingest-live"),
    layer("node.ingest_batches", "count", Lower, false, "IngestStats::batches", "latency_p95_ms on ingest-live (one write-lock hold per batch)"),
    layer("node.ingest_retries", "count", Lower, false, "IngestStats::retries", "ingest_blocks_per_s on ingest-live"),
    layer("loadgen.late_p99_us", "us", Lower, false, "the generator: actual send minus scheduled arrival", "none: validity check, must stay far below latency_p50_ms"),
    layer("loadgen.offered_rps", "1/s", Higher, false, "the generator: scheduled arrivals per second", "none: validity check"),
    layer("loadgen.achieved_rps", "1/s", Higher, false, "the generator: completions per second", "none: validity check, must track offered_rps"),
    layer("client.latency_p99_ms", "ms", Lower, false, "the loaded phase's latency samples", "none: the tail beyond the bounded p95, reported without a bound"),
    layer("client.open_p50_ms", "ms", Lower, false, "light-tcp's open loop: scheduled arrival to verified history, median over rounds of the round's p50", "none end to end: carries the host's wake-up latency, reported without a bound"),
    layer("client.open_p95_ms", "ms", Lower, false, "the same samples, p95", "none end to end: see client.open_p50_ms"),
    layer("trace.staged_ms", "ms", Lower, false, "sum of the staged replay's root spans, mean per request", "none: compare with trace.untraced_ms"),
    layer("trace.untraced_ms", "ms", Lower, false, "LightNode::run over LocalTransport on the same requests, mean per request", "none: the untraced reference of the decomposition"),
    layer("trace.overhead_pct", "%", Lower, false, "(trace.staged_ms - trace.untraced_ms) / trace.untraced_ms", "none: tracing overhead and decomposition consistency"),
];

/// The unit of any metric by name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

// ---------------------------------------------------------------------
// Run shape
// ---------------------------------------------------------------------

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0x1_5EED;
/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
pub const RUN_SECONDS: u64 = 15;

/// Sizes of one run: `--seconds` and `--quick` decide them, nothing
/// else.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Seconds of measurement.
    pub seconds: f64,
    /// Sub-second windows on toy chains, for the smoke test. Output is
    /// stamped `"quick": true` and refused by `compare`.
    pub quick: bool,
}

impl Shape {
    /// Full set-ups per run; `setup_s` is their median.
    pub fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Cold-start cycles behind `first_verified_ms`: `full` of them,
    /// chosen per workload so the cycles take about a second.
    pub fn first_verified_cycles(&self, full: usize) -> usize {
        if self.quick {
            2
        } else {
            full
        }
    }

    fn blocks(&self, full: u64, quick: u64) -> u64 {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Chain `T`: light-tcp.
    pub fn chain_t(&self) -> ChainSpec {
        ChainSpec {
            blocks: self.blocks(2048, 256),
            traffic: Traffic::Tiny,
            bf_bytes: 1920,
            bf_hashes: 2,
            segment_len: 256,
        }
    }

    fn mainnet(blocks: u64) -> ChainSpec {
        ChainSpec {
            blocks,
            traffic: Traffic::Mainnet2012,
            bf_bytes: 30_000,
            bf_hashes: 2,
            segment_len: 256,
        }
    }

    /// Chain `P`: heavy-local.
    pub fn chain_p(&self) -> ChainSpec {
        Self::mainnet(self.blocks(256, 32))
    }

    /// Chain `D`: cold-store, ingested and indexed on disk.
    pub fn chain_d(&self) -> ChainSpec {
        Self::mainnet(self.blocks(64, 16))
    }

    /// Blocks of chain `G` stored and indexed before ingest-live
    /// starts serving.
    pub fn live_prefix(&self) -> u64 {
        self.blocks(64, 8)
    }

    /// Blocks per ingest batch (`IngestConfig` min = max): the node's
    /// write lock is held once per batch, so equal batches make equal
    /// stalls and the live phase's latency percentiles rest on dozens
    /// of them instead of the three 64-block ones the default
    /// (4 doubling to 64) ends with.
    pub const LIVE_BATCH: u64 = 16;

    /// Blocks the live ingester appends: fixed work of whole batches,
    /// sized from `--seconds` at the seed commit's ~13.5 blocks/s so the
    /// phase lasts about that long. The final height (and with it every
    /// exact byte ratio) depends on nothing but the arguments.
    pub fn live_appended(&self) -> u64 {
        if self.quick {
            8
        } else {
            let batches = (self.seconds * 13.5 / Self::LIVE_BATCH as f64).round() as u64;
            batches.max(1) * Self::LIVE_BATCH
        }
    }

    /// Chain `G`: ingest-live.
    pub fn chain_g(&self) -> ChainSpec {
        Self::mainnet(self.live_prefix() + self.live_appended())
    }

    /// Cache budgets of cold-store's thrash phase, all below the
    /// working set of chain `D` (about 3.8 MB of span filters, 0.8 MB
    /// of SMTs, 0.5 MB of resolved blocks and 2 MB of index nodes).
    pub fn thrash_budgets(&self) -> Budgets {
        Budgets {
            block_cache: 256 << 10,
            filter_cache: 1 << 20,
            smt_cache: 256 << 10,
            index_nodes: 256 << 10,
        }
    }

    /// light-tcp's open-loop arrival rate.
    pub fn light_open_rps(&self) -> f64 {
        if self.quick {
            100.0
        } else {
            200.0
        }
    }
}

// ---------------------------------------------------------------------
// BENCHMARK.json
// ---------------------------------------------------------------------

/// The driver's command: a release build of this package, run from the
/// repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// The directory that holds the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["perfbench"];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Value {
    Value::obj([
        (
            "command",
            Value::Arr(COMMAND.iter().map(|s| Value::str(*s)).collect()),
        ),
        (
            "paths",
            Value::Arr(PATHS.iter().map(|s| Value::str(*s)).collect()),
        ),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name, 64, "_.-"), "name {name:?}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(seen.insert(name), "{name} is used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(well_formed(unit, 16, "_/%.-"), "unit {unit:?}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|s| s.len() <= 200));
    }

    #[test]
    fn benchmark_json_is_this_registry() {
        let committed = include_str!("../../BENCHMARK.json");
        assert!(committed.len() <= 64 * 1024);
        assert_eq!(
            crate::json::parse(committed).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with `perf list --benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn live_work_is_sized_by_the_arguments_alone() {
        let shape = Shape {
            seconds: 10.0,
            quick: false,
        };
        assert_eq!(shape.live_appended(), 128);
        assert_eq!(shape.live_appended() % Shape::LIVE_BATCH, 0);
        assert_eq!(shape.chain_g().blocks, 192);
        let quick = Shape {
            seconds: 10.0,
            quick: true,
        };
        assert_eq!(quick.chain_g().blocks, 16);
        assert_eq!(quick.setup_reps(), 1);
    }
}
