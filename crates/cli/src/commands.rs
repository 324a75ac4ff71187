//! The command implementations.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use lvq_bloom::BloomParams;
use lvq_chain::{
    file as chain_file, Address, BlockSource, CacheConfig, CacheStats, Chain, TableSource,
};
use lvq_core::{Completeness, LightClient, Prover, SchemeConfig, VerifiedHistory};
use lvq_node::{
    FaultPlan, FaultyTransport, FullNode, IngestConfig, LightNode, LiveNode, MemoryFeed,
    NodeServer, PipelinedTcpTransport, QueryRun, QuerySpec, ReconnectingTcpTransport, Retrier,
    RetryPolicy, ServerConfig, TcpOptions, TipIngester, Transport,
};
use lvq_store::StoreConfig;
use lvq_workload::{TrafficModel, WorkloadBuilder};

use crate::args::{
    FsckOptions, GenerateOptions, IngestOptions, QueryOptions, QuerySource, RemoteEndpoint,
    ServeOptions, ServeSource,
};
use crate::error::CliError;

fn human_bytes(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.2} MB", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.2} KB", n as f64 / 1e3)
    } else {
        format!("{n} B")
    }
}

/// `lvq generate`: build a workload chain and persist it.
pub fn generate(opts: &GenerateOptions, out: &mut impl Write) -> Result<(), CliError> {
    let bloom = BloomParams::new(opts.bf_bytes, opts.hashes)
        .map_err(|e| CliError::Usage(format!("bad bloom parameters: {e}")))?;
    let config = SchemeConfig::new(opts.scheme, bloom, opts.effective_segment_len())?;
    let workload = WorkloadBuilder::new(config.chain_params())
        .blocks(opts.blocks)
        .traffic(TrafficModel::tiny().with_txs_per_block(opts.txs_per_block))
        .seed(opts.seed)
        .probes(opts.probes.iter().cloned())
        .build()?;
    chain_file::save_to_path(&workload.chain, &opts.out)?;
    writeln!(
        out,
        "wrote {} blocks ({} scheme, {} filters, M = {}) to {}",
        opts.blocks,
        opts.scheme,
        human_bytes(u64::from(opts.bf_bytes)),
        opts.effective_segment_len(),
        opts.out
    )?;
    for probe in &workload.probes {
        writeln!(
            out,
            "planted {}: {} txs across {} blocks",
            probe.address,
            probe.tx_count,
            probe.block_heights.len()
        )?;
    }
    Ok(())
}

fn load_with_config(path: &str) -> Result<(Chain, SchemeConfig), CliError> {
    let chain = chain_file::load_from_path(path)?;
    let config = SchemeConfig::from_chain_params(chain.params())
        .ok_or_else(|| CliError::Usage("chain file commitments match no known scheme".into()))?;
    Ok((chain, config))
}

/// `lvq info`: print a chain summary.
pub fn info(path: &str, out: &mut impl Write) -> Result<(), CliError> {
    let (chain, config) = load_with_config(path)?;
    let body_bytes: u64 = (1..=chain.tip_height())
        .map(|h| chain.block(h).expect("in range").integral_size() as u64)
        .sum();
    let header_bytes: u64 = chain.headers().iter().map(|h| h.storage_len() as u64).sum();
    writeln!(out, "chain      : {path}")?;
    writeln!(out, "scheme     : {}", config.scheme())?;
    writeln!(
        out,
        "bloom      : {} bytes, k = {}",
        config.bloom().size_bytes(),
        config.bloom().hashes()
    )?;
    writeln!(out, "segment M  : {}", config.segment_len())?;
    writeln!(out, "blocks     : {}", chain.tip_height())?;
    writeln!(
        out,
        "full node  : {} (bodies) — what a full node stores",
        human_bytes(body_bytes)
    )?;
    writeln!(
        out,
        "light node : {} (headers only)",
        human_bytes(header_bytes)
    )?;
    if chain.tip_height() > 0 {
        writeln!(
            out,
            "tip hash   : {}",
            chain
                .header(chain.tip_height())
                .expect("tip exists")
                .block_hash()
        )?;
    }
    Ok(())
}

/// `lvq validate`: full integrity check.
pub fn validate(path: &str, out: &mut impl Write) -> Result<(), CliError> {
    let (chain, _) = load_with_config(path)?;
    chain.validate()?;
    writeln!(
        out,
        "ok: {} blocks, every commitment recomputed and matched",
        chain.tip_height()
    )?;
    Ok(())
}

/// Prints the part of a query report that local and remote queries
/// share: the verified history and its completeness level.
fn print_history(
    out: &mut impl Write,
    address: &Address,
    range: Option<(u64, u64)>,
    history: &VerifiedHistory,
) -> Result<(), CliError> {
    let completeness = match history.completeness {
        Completeness::Complete => "complete (no omissions possible)",
        Completeness::CorrectnessOnly => "correctness only (strawman cannot prove completeness)",
    };
    writeln!(out, "address      : {address}")?;
    if let Some((lo, hi)) = range {
        writeln!(out, "range        : blocks {lo}..={hi}")?;
    }
    writeln!(out, "transactions : {}", history.transactions.len())?;
    for (height, tx) in &history.transactions {
        writeln!(out, "  block {height:>6}  txid {}", tx.txid())?;
    }
    writeln!(
        out,
        "balance      : {} satoshi (received {}, spent {})",
        history.balance.net(),
        history.balance.received,
        history.balance.spent
    )?;
    writeln!(out, "verification : {completeness}")?;
    Ok(())
}

/// `lvq query`: verifiable history query, locally proved from a chain
/// file or fetched from a remote node over TCP.
pub fn query(opts: &QueryOptions, out: &mut impl Write) -> Result<(), CliError> {
    match &opts.source {
        QuerySource::File(path) => query_local(path, opts, out),
        QuerySource::Remote(remote) => query_remote(remote, opts, out),
    }
}

fn query_local(path: &str, opts: &QueryOptions, out: &mut impl Write) -> Result<(), CliError> {
    let (chain, config) = load_with_config(path)?;
    let address = Address::new(opts.address.as_str());

    let prover = Prover::new(&chain, config)?;
    let (response, stats) = match opts.range {
        None => prover.respond(&address)?,
        Some((lo, hi)) => prover.respond_range(&address, lo, hi)?,
    };

    let client = LightClient::new(config, chain.headers());
    let history = match opts.range {
        None => client.verify(&address, &response)?,
        Some((lo, hi)) => client.verify_range(&address, lo, hi, &response)?,
    };

    print_history(out, &address, opts.range, &history)?;
    writeln!(
        out,
        "proof size   : {} ({} endpoint filters, {} blocks resolved)",
        human_bytes(response.total_bytes()),
        stats.bmt.endpoint_count(),
        stats.blocks_resolved
    )?;
    if opts.breakdown {
        let b = response.size_breakdown();
        writeln!(out, "breakdown    :")?;
        writeln!(out, "  bloom filters   {}", human_bytes(b.bloom_filters))?;
        writeln!(out, "  bmt overhead    {}", human_bytes(b.bmt_overhead))?;
        writeln!(out, "  smt proofs      {}", human_bytes(b.smt_proofs))?;
        writeln!(out, "  merkle branches {}", human_bytes(b.merkle_branches))?;
        writeln!(out, "  transactions    {}", human_bytes(b.transactions))?;
        writeln!(out, "  integral blocks {}", human_bytes(b.integral_blocks))?;
        writeln!(out, "  framing         {}", human_bytes(b.framing))?;
    }
    Ok(())
}

/// Composite fault rate `--chaos-seed` injects: noticeable (the retry
/// machinery visibly works) without threatening the retry budget.
const CHAOS_RATE: f64 = 0.05;

/// What one remote session established.
struct RemoteSession {
    light: LightNode,
    run: QueryRun,
    new_headers: u64,
}

/// The resilient remote session: header sync, the query, and the final
/// tip check, each retried under `retrier`'s policy. `Busy` sheds,
/// disconnects, and timeouts are ridden out with backoff; verification
/// failures abort immediately.
fn run_remote_session<T: Transport>(
    transport: &mut T,
    config: SchemeConfig,
    spec: &QuerySpec,
    retrier: &mut Retrier,
) -> Result<RemoteSession, CliError> {
    let mut light = retrier.run(|_| LightNode::sync_from(transport, config))?;
    let run = light.run_with_retry(spec, transport, retrier)?;
    // Incremental tip check: fetch (cheaply) any headers the chain grew
    // while we were querying, so the session ends at the peer's tip.
    let new_headers = retrier.run(|_| light.sync_new(transport))?.new_headers();
    Ok(RemoteSession {
        light,
        run,
        new_headers,
    })
}

/// Runs the remote session over `base` — under `--chaos-seed`, with
/// `base` mistreated by a seeded fault injector so the healing is
/// observable. Returns the session, the faults injected (under chaos),
/// and `base` back for its own counters.
fn run_session_over<T: Transport>(
    mut base: T,
    chaos_seed: Option<u64>,
    config: SchemeConfig,
    spec: &QuerySpec,
    retrier: &mut Retrier,
) -> Result<(RemoteSession, Option<u64>, T), CliError> {
    let Some(seed) = chaos_seed else {
        let session = run_remote_session(&mut base, config, spec, retrier)?;
        return Ok((session, None, base));
    };
    let mut chaotic = FaultyTransport::new(base, FaultPlan::composite(CHAOS_RATE), seed);
    let session = run_remote_session(&mut chaotic, config, spec, retrier)?;
    let injected = chaotic.stats().injected();
    Ok((session, Some(injected), chaotic.into_inner()))
}

fn query_remote(
    remote: &RemoteEndpoint,
    opts: &QueryOptions,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let bloom = BloomParams::new(remote.bf_bytes, remote.hashes)
        .map_err(|e| CliError::Usage(format!("bad bloom parameters: {e}")))?;
    let config = SchemeConfig::new(remote.scheme, bloom, remote.segment_len)?;
    let address = Address::new(opts.address.as_str());
    let mut spec = QuerySpec::address(address.clone());
    if let Some((lo, hi)) = opts.range {
        spec = spec.range(lo, hi);
    }

    let base = Duration::from_millis(opts.backoff_ms);
    let policy =
        RetryPolicy::new(opts.retries.saturating_add(1)).backoff(base, Duration::from_secs(2));
    let mut retrier = Retrier::new(policy, opts.chaos_seed.unwrap_or(0xC1A0));
    let tcp_options =
        TcpOptions::new().with_connect_timeout(opts.connect_timeout_ms.map(Duration::from_millis));

    // The base connection: a self-healing blocking one, or — under
    // --pipeline — a negotiated protocol-v2 one (the CLI still issues
    // one request at a time over it).
    let addr = remote.addr.as_str();
    let (session, faults, reconnects, protocol) = match opts.pipeline {
        Some(window) => {
            let transport = PipelinedTcpTransport::negotiate(addr, tcp_options, window)?;
            let protocol = format!("v2 (window {})", transport.granted());
            let (session, faults, _) =
                run_session_over(transport, opts.chaos_seed, config, &spec, &mut retrier)?;
            (session, faults, 0, Some(protocol))
        }
        None => {
            let transport = ReconnectingTcpTransport::connect_with(addr, tcp_options)?;
            let (session, faults, transport) =
                run_session_over(transport, opts.chaos_seed, config, &spec, &mut retrier)?;
            (session, faults, transport.reconnects(), None)
        }
    };
    let RemoteSession {
        light,
        run,
        new_headers,
    } = session;
    let synced = light.client().tip_height() - new_headers;

    writeln!(out, "peer         : {}", remote.addr)?;
    if let Some(protocol) = &protocol {
        writeln!(out, "protocol     : {protocol}")?;
    }
    writeln!(
        out,
        "synced       : {synced} headers ({} scheme)",
        remote.scheme
    )?;
    print_history(out, &address, opts.range, &run.histories[0])?;
    writeln!(
        out,
        "tip check    : {} new headers (tip {})",
        new_headers,
        light.client().tip_height()
    )?;
    writeln!(
        out,
        "traffic      : {} sent, {} received ({} round trips incl. sync)",
        human_bytes(light.cumulative_traffic().request_bytes),
        human_bytes(light.cumulative_traffic().response_bytes),
        light.exchanges()
    )?;
    let stats = retrier.stats();
    writeln!(
        out,
        "resilience   : {} attempts, {} retries, {} reconnects",
        stats.attempts, stats.retries, reconnects
    )?;
    if let Some(injected) = faults {
        writeln!(
            out,
            "chaos        : {injected} faults injected ({}% composite, seed {})",
            CHAOS_RATE * 100.0,
            opts.chaos_seed.unwrap_or_default()
        )?;
    }
    Ok(())
}

/// Loads a chain file, optionally via the trusted (checksum-only,
/// commitments not replayed) fast path.
fn load_chain_file(path: &str, trusted: bool) -> Result<Chain, CliError> {
    Ok(if trusted {
        chain_file::load_from_path_trusted(path)?
    } else {
        chain_file::load_from_path(path)?
    })
}

/// `lvq ingest`: copy a chain file into an on-disk block store.
pub fn ingest(opts: &IngestOptions, out: &mut impl Write) -> Result<(), CliError> {
    let chain = load_chain_file(&opts.file, opts.trusted)?;
    let mut config = StoreConfig::default();
    if let Some(bytes) = opts.segment_bytes {
        config.segment_target_bytes = bytes;
    }
    let store = lvq_store::ingest_chain(&chain, &opts.store, config)?;
    writeln!(
        out,
        "ingested {} blocks from {} into {} ({} segments)",
        store.len(),
        opts.file,
        opts.store,
        store.segment_count()
    )?;
    if opts.index {
        drop(store);
        let (indexed, _) = lvq_store::open_chain_indexed(&opts.store, config)?;
        writeln!(
            out,
            "indexed      : address index built to height {} ({} on disk)",
            indexed.tip_height(),
            human_bytes(indexed.tables().data_bytes())
        )?;
    }
    Ok(())
}

/// `lvq serve`: answer queries over TCP until interrupted (or until
/// `--max-requests` have been handled), from a loaded chain file or
/// straight off an on-disk block store — optionally following a chain
/// file's tip live (`--store DIR --follow FILE`).
pub fn serve(opts: &ServeOptions, out: &mut impl Write) -> Result<(), CliError> {
    match &opts.source {
        ServeSource::File { path, trusted } => {
            serve_chain(load_chain_file(path, *trusted)?, opts, out)
        }
        ServeSource::Store(dir) => {
            let mut config = StoreConfig::default();
            if let Some(bytes) = opts.block_cache {
                config.cache_bytes = bytes;
            }
            if opts.index {
                let (chain, report) = lvq_store::open_chain_indexed(dir, config)?;
                print_recovery(&report, out)?;
                match &opts.follow {
                    Some(follow) => serve_following(chain, follow, opts, out),
                    None => serve_chain(chain, opts, out),
                }
            } else {
                let (chain, report) = lvq_store::open_chain(dir, config)?;
                print_recovery(&report, out)?;
                match &opts.follow {
                    Some(follow) => serve_following(chain, follow, opts, out),
                    None => serve_chain(chain, opts, out),
                }
            }
        }
    }
}

/// One line per non-clean store open, naming every repair performed.
fn print_recovery(
    report: &lvq_store::RecoveryReport,
    out: &mut impl Write,
) -> Result<(), CliError> {
    if report.is_clean() {
        return Ok(());
    }
    let addr_index = match report.addr_index {
        lvq_store::AddrIndexRecovery::NotOpened | lvq_store::AddrIndexRecovery::Intact => {
            String::new()
        }
        lvq_store::AddrIndexRecovery::CaughtUp { from, to } => {
            format!(", address index caught up {from} -> {to}")
        }
        lvq_store::AddrIndexRecovery::Rebuilt { reason } => {
            format!(", address index rebuilt ({reason})")
        }
    };
    writeln!(
        out,
        "recovered    : {} re-indexed records, {} torn tail bytes truncated{}{}{}",
        report.recovered_records,
        report.truncated_tail_bytes,
        if report.rebuilt_index {
            ", index rebuilt"
        } else {
            ""
        },
        if report.repaired_segment_header {
            ", segment header repaired"
        } else {
            ""
        },
        addr_index
    )?;
    Ok(())
}

/// Applies `--filter-cache`/`--smt-cache`/`--index-cache` and resolves
/// the scheme.
fn prepare_chain<S: BlockSource, T: TableSource>(
    chain: &mut Chain<S, T>,
    opts: &ServeOptions,
) -> Result<SchemeConfig, CliError> {
    let config = SchemeConfig::from_chain_params(chain.params())
        .ok_or_else(|| CliError::Usage("chain commitments match no known scheme".into()))?;
    if opts.filter_cache.is_some() || opts.smt_cache.is_some() || opts.index_cache.is_some() {
        let default = CacheConfig::default();
        chain.set_cache_config(
            CacheConfig::new(
                opts.filter_cache.unwrap_or(default.filter_cache_bytes),
                opts.smt_cache.unwrap_or(default.smt_cache_bytes),
            )
            .with_index_node_cache_bytes(
                opts.index_cache.unwrap_or(default.index_node_cache_bytes),
            ),
        );
    }
    Ok(config)
}

fn server_config_from(opts: &ServeOptions) -> ServerConfig {
    let mut server_config = ServerConfig::default()
        .with_workers(opts.workers)
        .with_request_deadline(
            opts.deadline_ms
                .filter(|&ms| ms > 0)
                .map(Duration::from_millis),
        );
    if let Some(queue) = opts.queue {
        server_config = server_config.with_accept_queue(queue);
    }
    if let Some(depth) = opts.max_in_flight {
        server_config = server_config.with_max_in_flight(depth);
    }
    server_config
}

/// Sleeps until `--max-requests` is reached (forever without it).
fn wait_for_max_requests<P: lvq_node::ServeNode>(server: &NodeServer<P>, opts: &ServeOptions) {
    loop {
        std::thread::sleep(Duration::from_millis(10));
        if let Some(max) = opts.max_requests {
            if server.stats().requests >= max {
                return;
            }
        }
    }
}

/// `lvq serve --store DIR --follow FILE`: serve from the store while a
/// [`TipIngester`] appends the follow file's missing blocks into it,
/// growing the served tip live.
fn serve_following<T: TableSource + 'static>(
    mut chain: Chain<lvq_store::DiskBlockSource, T>,
    follow: &str,
    opts: &ServeOptions,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let config = prepare_chain(&mut chain, opts)?;
    // The follow file is a feed, not a trust anchor: checksum-only
    // loading suffices because the ingester re-validates header
    // linkage and the chain recomputes every commitment as it extends.
    let follow_chain = chain_file::load_from_path_trusted(follow)?;
    if follow_chain.params() != chain.params() {
        return Err(CliError::Usage(format!(
            "--follow {follow} carries different scheme parameters than the store"
        )));
    }
    let target = follow_chain.tip_height();
    let mut blocks = Vec::with_capacity(target as usize);
    for h in 1..=target {
        blocks.push((*follow_chain.block(h)?).clone());
    }
    drop(follow_chain);

    let store = Arc::clone(chain.source().store());
    let resume = chain.tip_height();
    let live = Arc::new(LiveNode::new(FullNode::new(chain)?));
    let server_config = server_config_from(opts);
    let server = NodeServer::bind(Arc::clone(&live), opts.addr.as_str(), server_config)?;
    let feed = MemoryFeed::new(blocks);
    feed.publisher().publish_all();
    // Supervised: a panicking ingest attempt is restarted with backoff
    // (each attempt gets a fresh clone of the feed and resumes from the
    // store's persisted height) instead of killing the pipeline.
    let ingest = TipIngester::spawn_supervised(
        Arc::clone(&live),
        store,
        move || feed.clone(),
        IngestConfig::default().with_max_reorg_depth(opts.max_reorg_depth),
    );
    server.attach_ingest(ingest.monitor());
    server.watch_health(ingest.health().clone());
    writeln!(
        out,
        "serving {} blocks ({} scheme) with {} workers on {}, following {} to height {}",
        resume,
        config.scheme(),
        server_config.effective_workers(),
        server.local_addr(),
        follow,
        target
    )?;
    out.flush()?;

    wait_for_max_requests(&server, opts);
    let stats = server.shutdown();
    let ingest_restarts = ingest.restarts();
    let ingest_stats = ingest.stop();
    writeln!(
        out,
        "ingested     : {} blocks in {} batches ({} retries, {} restarts), resumed at {}, tip {}",
        ingest_stats.blocks_appended,
        ingest_stats.batches,
        ingest_stats.retries,
        ingest_restarts,
        ingest_stats.resume_height,
        ingest_stats.tip_height
    )?;
    if opts.max_reorg_depth > 0 {
        writeln!(
            out,
            "forks        : {} reorgs (deepest {}), {} fork blocks journaled, {} dropped",
            ingest_stats.reorgs,
            ingest_stats.deepest_reorg,
            ingest_stats.fork_blocks,
            ingest_stats.dropped_blocks
        )?;
    }
    let caches = live.with_node(|node| node.chain().cache_stats());
    print_serve_report(&stats, &caches, out)
}

fn serve_chain<S: BlockSource + 'static, T: TableSource + 'static>(
    mut chain: Chain<S, T>,
    opts: &ServeOptions,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let config = prepare_chain(&mut chain, opts)?;
    let blocks = chain.tip_height();
    let full = Arc::new(FullNode::new(chain)?);
    let server_config = server_config_from(opts);
    let server = NodeServer::bind(Arc::clone(&full), opts.addr.as_str(), server_config)?;
    writeln!(
        out,
        "serving {} blocks ({} scheme) with {} workers on {}",
        blocks,
        config.scheme(),
        server_config.effective_workers(),
        server.local_addr()
    )?;
    out.flush()?;

    wait_for_max_requests(&server, opts);
    let stats = server.shutdown();
    let caches = full.chain().cache_stats();
    print_serve_report(&stats, &caches, out)
}

fn print_serve_report(
    stats: &lvq_node::ServerStats,
    caches: &lvq_chain::ChainCacheStats,
    out: &mut impl Write,
) -> Result<(), CliError> {
    writeln!(
        out,
        "served {} requests over {} connections ({} in, {} out, {} errors)",
        stats.requests,
        stats.connections,
        human_bytes(stats.request_bytes),
        human_bytes(stats.response_bytes),
        stats.errors
    )?;
    writeln!(out, "best tip     : {}", stats.tip_hash)?;
    writeln!(
        out,
        "pool         : {} workers, queue high-water {}, {} shed busy, {} deadline misses",
        stats.workers, stats.queue_highwater, stats.busy, stats.deadline_misses
    )?;
    writeln!(
        out,
        "health       : {} ({} panicked requests contained, {} worker restarts)",
        stats.health, stats.panicked_requests, stats.worker_restarts
    )?;
    writeln!(
        out,
        "kinds        : {} headers, {} incremental, {} queries, {} batches, {} invalid",
        stats.by_kind.get_headers,
        stats.by_kind.get_headers_from,
        stats.by_kind.queries,
        stats.by_kind.batch_queries,
        stats.by_kind.invalid
    )?;
    writeln!(
        out,
        "latency      : p50 {}us p95 {}us p99 {}us max {}us (mean {}us over {})",
        stats.latency.p50_us,
        stats.latency.p95_us,
        stats.latency.p99_us,
        stats.latency.max_us,
        stats.latency.mean_us,
        stats.latency.count
    )?;
    let cache_cell = |s: &CacheStats| {
        format!(
            "{}h/{}m {} held",
            s.hits,
            s.misses,
            human_bytes(s.used_bytes)
        )
    };
    writeln!(
        out,
        "caches       : filters {}, smts {}, tx trees {}, blocks {}, index {}",
        cache_cell(&caches.filters),
        cache_cell(&caches.smts),
        cache_cell(&caches.tx_trees),
        cache_cell(&caches.blocks),
        cache_cell(&caches.index_nodes)
    )?;
    Ok(())
}

/// `lvq fsck`: offline integrity check of a block store directory.
///
/// Opens the store (performing and *reporting* the documented open-time
/// repairs), re-verifies every stored block against its checksum,
/// scans the fork sidecar log, and — with `--index` — runs the full
/// node-by-node audit of the persistent address index. Prints a
/// per-file report and exits nonzero if any fault was found, so a
/// second run on the same store exits zero: the repairs stuck.
pub fn fsck(opts: &FsckOptions, out: &mut impl Write) -> Result<(), CliError> {
    let dir = std::path::Path::new(&opts.store);
    let mut faults: Vec<String> = Vec::new();

    // Stale `*.tmp` files are debris from an interrupted tmp+rename
    // write. Opening the store removes them, so note them first.
    let mut tmp_dirs = vec![dir.to_path_buf()];
    if dir.join("addr-index").is_dir() {
        tmp_dirs.push(dir.join("addr-index"));
    }
    for tmp_dir in tmp_dirs {
        let mut entries: Vec<_> = std::fs::read_dir(&tmp_dir)?
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        entries.sort();
        for name in entries {
            faults.push(format!(
                "stale temp file {} (interrupted atomic write; removed at open)",
                tmp_dir.join(name).display()
            ));
        }
    }

    let config = StoreConfig::default();
    let (store, report, index_info) = if opts.index {
        // The full-paranoia open: every index node hash, key order,
        // and balance is checked before the index is trusted.
        let (chain, report) = lvq_store::open_chain_indexed_verified(dir, config)?;
        let info = (chain.tables().tip(), chain.tables().root_hash()?);
        (Arc::clone(chain.source().store()), report, Some(info))
    } else {
        let (store, report) = lvq_store::BlockStore::open(dir, config)?;
        (Arc::new(store), report, None)
    };

    if report.truncated_tail_bytes > 0 {
        faults.push(format!(
            "torn tail: {} byte(s) truncated from the last segment",
            report.truncated_tail_bytes
        ));
    }
    if report.recovered_records > 0 {
        faults.push(format!(
            "{} record(s) recovered by segment scan",
            report.recovered_records
        ));
    }
    if report.rebuilt_index {
        faults.push("height index (index.idx) rebuilt from the segments".into());
    }
    if report.repaired_segment_header {
        faults.push("segment header repaired".into());
    }
    if report.truncated_fork_log_bytes > 0 {
        faults.push(format!(
            "forks.log: {} torn byte(s) truncated",
            report.truncated_fork_log_bytes
        ));
    }
    match report.addr_index {
        lvq_store::AddrIndexRecovery::NotOpened | lvq_store::AddrIndexRecovery::Intact => {}
        lvq_store::AddrIndexRecovery::CaughtUp { from, to } => {
            faults.push(format!(
                "address index was behind the store: caught up {from} -> {to}"
            ));
        }
        lvq_store::AddrIndexRecovery::Rebuilt { reason } => {
            faults.push(format!("address index rebuilt ({reason})"));
        }
    }

    // Every block re-read and checked against its stored checksum.
    let verified = match store.verify_all() {
        Ok(n) => Some(n),
        Err(e) => {
            faults.push(format!("block verification failed: {e}"));
            None
        }
    };
    let fork_blocks = match store.fork_log() {
        Ok(entries) => Some(entries.len()),
        Err(e) => {
            faults.push(format!("fork log unreadable: {e}"));
            None
        }
    };

    // The per-file report, in name order.
    writeln!(out, "fsck {}", dir.display())?;
    let mut names: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    for name in names {
        let path = dir.join(&name);
        let meta = std::fs::metadata(&path)?;
        let note = if meta.is_dir() {
            match (name.as_str(), &index_info) {
                ("addr-index", Some((tip, root))) => {
                    format!("persistent address index, root {root} anchored at height {tip}")
                }
                ("addr-index", None) => "persistent address index (not audited; --index)".into(),
                _ => "unexpected directory".into(),
            }
        } else {
            match name.as_str() {
                "store.meta" => "store metadata".into(),
                "index.idx" => "height index".into(),
                "forks.log" => match fork_blocks {
                    Some(n) => format!("fork journal, {n} block(s)"),
                    None => "fork journal (unreadable)".into(),
                },
                n if n.starts_with("segment-") && n.ends_with(".blk") => "block segment".into(),
                n if n.ends_with(".tmp") => "stale temp file".into(),
                _ => "unexpected file".into(),
            }
        };
        let size = if meta.is_dir() {
            "dir".to_string()
        } else {
            human_bytes(meta.len())
        };
        writeln!(out, "  {name:<20} {size:>10}  {note}")?;
    }
    match verified {
        Some(n) => writeln!(out, "blocks       : {n} verified against stored checksums")?,
        None => writeln!(out, "blocks       : verification FAILED")?,
    }

    if faults.is_empty() {
        writeln!(out, "clean        : no faults found")?;
        Ok(())
    } else {
        for fault in &faults {
            writeln!(out, "fault        : {fault}")?;
        }
        Err(CliError::Fsck {
            faults: faults.len(),
        })
    }
}

/// `lvq balance`: just the verified balance.
pub fn balance(path: &str, address: &str, out: &mut impl Write) -> Result<(), CliError> {
    let (chain, config) = load_with_config(path)?;
    let address = Address::new(address);
    let prover = Prover::new(&chain, config)?;
    let (response, _) = prover.respond(&address)?;
    let client = LightClient::new(config, chain.headers());
    let history = client.verify(&address, &response)?;
    writeln!(out, "{}", history.balance.net())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn temp_path(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("lvq-cli-test-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn end_to_end_generate_info_query_balance() {
        let path = temp_path("e2e.lvq");
        let mut out = Vec::new();
        run(
            &strings(&[
                "generate",
                "--out",
                &path,
                "--blocks",
                "16",
                "--txs",
                "4",
                "--segment",
                "8",
                "--bf",
                "256",
                "--probe",
                "1CliProbe:4:3",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("wrote 16 blocks"));
        assert!(text.contains("planted 1CliProbe: 4 txs across 3 blocks"));

        let mut out = Vec::new();
        run(&strings(&["info", &path]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("blocks     : 16"));
        assert!(text.contains("scheme     : LVQ"));

        let mut out = Vec::new();
        run(&strings(&["validate", &path]), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().starts_with("ok: 16 blocks"));

        let mut out = Vec::new();
        run(
            &strings(&["query", &path, "1CliProbe", "--breakdown"]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("transactions : 4"));
        assert!(text.contains("complete (no omissions possible)"));
        assert!(text.contains("bloom filters"));

        let mut out = Vec::new();
        run(&strings(&["balance", &path, "1CliProbe"]), &mut out).unwrap();
        let balance: i128 = String::from_utf8(out).unwrap().trim().parse().unwrap();
        assert!(balance >= 0);

        // Range query returns the in-range slice.
        let mut out = Vec::new();
        run(
            &strings(&["query", &path, "1CliProbe", "--range", "1:16"]),
            &mut out,
        )
        .unwrap();
        assert!(String::from_utf8(out).unwrap().contains("transactions : 4"));

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn absent_address_is_complete_and_zero() {
        let path = temp_path("absent.lvq");
        run(
            &strings(&[
                "generate", "--out", &path, "--blocks", "8", "--txs", "3", "--bf", "256",
            ]),
            &mut Vec::new(),
        )
        .unwrap();
        let mut out = Vec::new();
        run(&strings(&["query", &path, "1Nobody"]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("transactions : 0"));
        assert!(text.contains("balance      : 0"));
        std::fs::remove_file(&path).ok();
    }

    /// A `Write` that can be handed to a server thread and read from
    /// the test thread (to learn the bound port).
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }

        /// The server's `serving …` banner, once its whole line is
        /// written (`writeln!` may land in several writes).
        fn banner(&self) -> String {
            loop {
                let text = self.text();
                let line = text
                    .split_inclusive('\n')
                    .find(|l| l.starts_with("serving") && l.ends_with('\n'));
                if let Some(line) = line {
                    return line.trim_end().to_string();
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
    }

    #[test]
    fn serve_and_query_over_tcp() {
        let path = temp_path("serve.lvq");
        run(
            &strings(&[
                "generate",
                "--out",
                &path,
                "--blocks",
                "16",
                "--txs",
                "4",
                "--segment",
                "8",
                "--bf",
                "256",
                "--probe",
                "1TcpProbe:4:3",
            ]),
            &mut Vec::new(),
        )
        .unwrap();

        // Each remote query run is one connection doing a header sync,
        // one query, and one incremental tip check: two runs = 6
        // requests.
        let server_out = SharedBuf::default();
        let server_thread = {
            let mut out = server_out.clone();
            let path = path.clone();
            std::thread::spawn(move || {
                run(
                    &strings(&[
                        "serve",
                        &path,
                        "--addr",
                        "127.0.0.1:0",
                        "--max-requests",
                        "6",
                        "--filter-cache",
                        "1048576",
                        "--workers",
                        "2",
                        "--queue",
                        "8",
                        "--deadline-ms",
                        "60000",
                    ]),
                    &mut out,
                )
                .unwrap();
            })
        };

        // The OS picked the port; learn it from the banner line.
        let addr = server_out.banner().rsplit(' ').next().unwrap().to_string();

        let mut out = Vec::new();
        run(
            &strings(&[
                "query",
                "1TcpProbe",
                "--addr",
                &addr,
                "--segment",
                "8",
                "--bf",
                "256",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("synced       : 16 headers"), "{text}");
        assert!(text.contains("transactions : 4"), "{text}");
        assert!(text.contains("complete (no omissions possible)"), "{text}");
        assert!(
            text.contains("tip check    : 0 new headers (tip 16)"),
            "{text}"
        );
        assert!(text.contains("traffic      :"), "{text}");

        let mut out = Vec::new();
        run(
            &strings(&[
                "query",
                "1TcpProbe",
                "--addr",
                &addr,
                "--segment",
                "8",
                "--bf",
                "256",
                "--range",
                "1:8",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("range        : blocks 1..=8"), "{text}");

        server_thread.join().unwrap();
        let text = server_out.text();
        assert!(
            text.contains("served 6 requests over 2 connections"),
            "{text}"
        );
        assert!(text.contains("with 2 workers"), "{text}");
        assert!(
            text.contains("pool         : 2 workers, queue high-water"),
            "{text}"
        );
        assert!(
            text.contains(
                "kinds        : 2 headers, 2 incremental, 2 queries, 0 batches, 0 invalid"
            ),
            "{text}"
        );
        assert!(text.contains("latency      : p50 "), "{text}");
        assert!(text.contains("caches       : filters "), "{text}");
        assert!(text.contains(", tx trees "), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ingest_then_serve_from_store() {
        let path = temp_path("ingest.lvq");
        let dir = temp_path("ingest-store");
        std::fs::remove_dir_all(&dir).ok();
        run(
            &strings(&[
                "generate",
                "--out",
                &path,
                "--blocks",
                "16",
                "--txs",
                "4",
                "--segment",
                "8",
                "--bf",
                "256",
                "--probe",
                "1StoreProbe:4:3",
            ]),
            &mut Vec::new(),
        )
        .unwrap();

        let mut out = Vec::new();
        run(
            &strings(&[
                "ingest",
                &path,
                "--store",
                &dir,
                "--trust-file",
                "--segment-bytes",
                "4096",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("ingested 16 blocks"), "{text}");

        // Ingesting into the same directory again must refuse.
        assert!(matches!(
            run(
                &strings(&["ingest", &path, "--store", &dir]),
                &mut Vec::new()
            ),
            Err(CliError::Store(_))
        ));

        // One remote query run = header sync + query + tip check.
        let server_out = SharedBuf::default();
        let server_thread = {
            let mut out = server_out.clone();
            let dir = dir.clone();
            std::thread::spawn(move || {
                run(
                    &strings(&[
                        "serve",
                        "--store",
                        &dir,
                        "--addr",
                        "127.0.0.1:0",
                        "--max-requests",
                        "3",
                        "--workers",
                        "2",
                    ]),
                    &mut out,
                )
                .unwrap();
            })
        };
        let addr = server_out.banner().rsplit(' ').next().unwrap().to_string();

        let mut out = Vec::new();
        run(
            &strings(&[
                "query",
                "1StoreProbe",
                "--addr",
                &addr,
                "--segment",
                "8",
                "--bf",
                "256",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("synced       : 16 headers"), "{text}");
        assert!(text.contains("transactions : 4"), "{text}");
        assert!(text.contains("complete (no omissions possible)"), "{text}");

        server_thread.join().unwrap();
        let text = server_out.text();
        assert!(text.contains("served 3 requests"), "{text}");
        assert!(text.contains("caches       : filters "), "{text}");
        // A disk-backed server actually exercises the block cache.
        assert!(!text.contains("blocks 0h/0m"), "{text}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_reports_faults_then_comes_back_clean() {
        let path = temp_path("fsck.lvq");
        let dir = temp_path("fsck-store");
        std::fs::remove_dir_all(&dir).ok();
        run(
            &strings(&[
                "generate",
                "--out",
                &path,
                "--blocks",
                "12",
                "--txs",
                "2",
                "--segment",
                "8",
                "--bf",
                "256",
            ]),
            &mut Vec::new(),
        )
        .unwrap();
        run(
            &strings(&["ingest", &path, "--store", &dir, "--trust-file", "--index"]),
            &mut Vec::new(),
        )
        .unwrap();

        // A healthy store fscks clean, with and without the index audit.
        let mut out = Vec::new();
        run(&strings(&["fsck", "--store", &dir]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("blocks       : 12 verified"), "{text}");
        assert!(text.contains("clean        : no faults found"), "{text}");
        assert!(text.contains("store.meta"), "{text}");

        let mut out = Vec::new();
        run(&strings(&["fsck", "--store", &dir, "--index"]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("clean        : no faults found"), "{text}");
        assert!(
            text.contains("persistent address index, root"),
            "the index audit should report the anchored root: {text}"
        );

        // Simulate a crash: a torn record tail on the last segment and
        // a stale temp file from an interrupted atomic write.
        let last_segment = {
            let mut segments: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(Result::ok)
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with("segment-") && n.ends_with(".blk"))
                .collect();
            segments.sort();
            std::path::Path::new(&dir).join(segments.last().unwrap())
        };
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&last_segment)
            .unwrap();
        file.write_all(&[0xFF; 7]).unwrap();
        drop(file);
        std::fs::write(std::path::Path::new(&dir).join("store.meta.tmp"), b"junk").unwrap();

        let mut out = Vec::new();
        let err = run(&strings(&["fsck", "--store", &dir]), &mut out).unwrap_err();
        assert!(matches!(err, CliError::Fsck { faults: 2 }), "{err:?}");
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("fault        : stale temp file"), "{text}");
        assert!(
            text.contains("fault        : torn tail: 7 byte(s) truncated"),
            "{text}"
        );
        assert!(text.contains("blocks       : 12 verified"), "{text}");

        // The open-time repairs stuck: the next run exits zero.
        let mut out = Vec::new();
        run(&strings(&["fsck", "--store", &dir]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("clean        : no faults found"), "{text}");

        // Usage errors still behave.
        assert!(matches!(
            run(&strings(&["fsck"]), &mut Vec::new()),
            Err(CliError::Usage(_))
        ));

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_with_index_then_serve_indexed() {
        let path = temp_path("idx.lvq");
        let dir = temp_path("idx-store");
        std::fs::remove_dir_all(&dir).ok();
        run(
            &strings(&[
                "generate",
                "--out",
                &path,
                "--blocks",
                "16",
                "--txs",
                "4",
                "--segment",
                "8",
                "--bf",
                "256",
                "--probe",
                "1IdxProbe:4:3",
            ]),
            &mut Vec::new(),
        )
        .unwrap();

        let mut out = Vec::new();
        run(
            &strings(&["ingest", &path, "--store", &dir, "--trust-file", "--index"]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("ingested 16 blocks"), "{text}");
        assert!(
            text.contains("indexed      : address index built to height 16"),
            "{text}"
        );

        let server_out = SharedBuf::default();
        let server_thread = {
            let mut out = server_out.clone();
            let dir = dir.clone();
            std::thread::spawn(move || {
                run(
                    &strings(&[
                        "serve",
                        "--store",
                        &dir,
                        "--index",
                        "--index-cache",
                        "1048576",
                        "--addr",
                        "127.0.0.1:0",
                        "--max-requests",
                        "3",
                        "--workers",
                        "2",
                    ]),
                    &mut out,
                )
                .unwrap();
            })
        };
        let addr = server_out.banner().rsplit(' ').next().unwrap().to_string();

        let mut out = Vec::new();
        run(
            &strings(&[
                "query",
                "1IdxProbe",
                "--addr",
                &addr,
                "--segment",
                "8",
                "--bf",
                "256",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("synced       : 16 headers"), "{text}");
        assert!(text.contains("transactions : 4"), "{text}");
        assert!(text.contains("complete (no omissions possible)"), "{text}");

        server_thread.join().unwrap();
        let text = server_out.text();
        // The index was built by ingest, so the serve reopen is clean —
        // no recovery line — and index reads flow through the node cache.
        assert!(!text.contains("recovered    :"), "{text}");
        assert!(text.contains("served 3 requests"), "{text}");
        assert!(text.contains(", index "), "{text}");
        assert!(!text.contains("index 0h/0m"), "{text}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_store_following_a_chain_file_grows_the_tip() {
        let path = temp_path("follow.lvq");
        let dir = temp_path("follow-store");
        std::fs::remove_dir_all(&dir).ok();
        run(
            &strings(&[
                "generate",
                "--out",
                &path,
                "--blocks",
                "16",
                "--txs",
                "4",
                "--segment",
                "8",
                "--bf",
                "256",
                "--probe",
                "1FollowProbe:4:3",
            ]),
            &mut Vec::new(),
        )
        .unwrap();

        // Persist only the first 6 blocks: the store lags the file by
        // 10, which the follow ingester must close while serving.
        let truth = chain_file::load_from_path_trusted(&path).unwrap();
        {
            let store = lvq_store::BlockStore::create(&dir, truth.params(), StoreConfig::default())
                .unwrap();
            for h in 1..=6 {
                store.append(&truth.block(h).unwrap()).unwrap();
            }
        }

        let server_out = SharedBuf::default();
        let server_thread = {
            let mut out = server_out.clone();
            let dir = dir.clone();
            let path = path.clone();
            std::thread::spawn(move || {
                run(
                    &strings(&[
                        "serve",
                        "--store",
                        &dir,
                        "--follow",
                        &path,
                        "--addr",
                        "127.0.0.1:0",
                        "--max-requests",
                        "3",
                        "--workers",
                        "2",
                    ]),
                    &mut out,
                )
                .unwrap();
            })
        };
        let banner = server_out.banner();
        assert!(banner.contains("serving 6 blocks"), "{banner}");
        assert!(banner.contains("to height 16"), "{banner}");
        let addr = banner
            .split(" on ")
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap()
            .to_string();

        // Give the ingester a moment to close the 10-block gap, then
        // query: the client must see the grown tip, not the frozen one.
        std::thread::sleep(std::time::Duration::from_millis(500));
        let mut out = Vec::new();
        run(
            &strings(&[
                "query",
                "1FollowProbe",
                "--addr",
                &addr,
                "--segment",
                "8",
                "--bf",
                "256",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("synced       : 16 headers"), "{text}");
        assert!(text.contains("transactions : 4"), "{text}");

        server_thread.join().unwrap();
        let text = server_out.text();
        assert!(text.contains("ingested     : 10 blocks in"), "{text}");
        assert!(text.contains("resumed at 6, tip 16"), "{text}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_trusted_file_answers_queries() {
        let path = temp_path("trusted.lvq");
        run(
            &strings(&[
                "generate",
                "--out",
                &path,
                "--blocks",
                "8",
                "--txs",
                "3",
                "--segment",
                "8",
                "--bf",
                "256",
                "--probe",
                "1TrustProbe:3:2",
            ]),
            &mut Vec::new(),
        )
        .unwrap();

        let server_out = SharedBuf::default();
        let server_thread = {
            let mut out = server_out.clone();
            let path = path.clone();
            std::thread::spawn(move || {
                run(
                    &strings(&[
                        "serve",
                        &path,
                        "--trust-file",
                        "--addr",
                        "127.0.0.1:0",
                        "--max-requests",
                        "3",
                    ]),
                    &mut out,
                )
                .unwrap();
            })
        };
        let addr = server_out.banner().rsplit(' ').next().unwrap().to_string();

        let mut out = Vec::new();
        run(
            &strings(&[
                "query",
                "1TrustProbe",
                "--addr",
                &addr,
                "--segment",
                "8",
                "--bf",
                "256",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("transactions : 3"), "{text}");
        assert!(text.contains("complete (no omissions possible)"), "{text}");

        server_thread.join().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn usage_errors() {
        let mut out = Vec::new();
        assert!(matches!(
            run(&strings(&[]), &mut out),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&strings(&["frobnicate"]), &mut out),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&strings(&["info"]), &mut out),
            Err(CliError::Usage(_))
        ));
        // Missing file is an I/O error, not a panic.
        assert!(matches!(
            run(&strings(&["info", "/nonexistent/nope.lvq"]), &mut out),
            Err(CliError::File(_))
        ));
    }

    #[test]
    fn help_prints_usage() {
        let mut out = Vec::new();
        run(&strings(&["help"]), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("lvq generate"));
    }

    #[test]
    fn usage_lists_every_flag_the_parser_accepts() {
        let parser = include_str!("args.rs");
        let flags: Vec<&str> = parser
            .split('"')
            .zip(parser.split('"').skip(1))
            .filter(|(flag, after)| flag.starts_with("--") && after.trim_start().starts_with("=>"))
            .map(|(flag, _)| flag)
            .collect();
        assert!(flags.len() > 30, "found only {flags:?}");
        for flag in flags {
            assert!(crate::USAGE.contains(flag), "USAGE omits {flag}");
        }
    }

    #[test]
    fn maximal_retry_count_does_not_overflow_the_attempt_count() {
        // A port that was just free: the dial fails fast, after the
        // retry policy is built.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|listener| listener.local_addr())
            .unwrap()
            .to_string();
        let args = strings(&[
            "query",
            "1Addr",
            "--addr",
            &addr,
            "--segment",
            "8",
            "--retries",
            &u32::MAX.to_string(),
        ]);
        let err = run(&args, &mut Vec::new()).unwrap_err();
        assert!(!matches!(err, CliError::Usage(_)), "{err}");
    }
}
