//! Command-line argument parsing (hand-rolled; no CLI dependency).

use lvq_core::Scheme;
use lvq_workload::ProbeSpec;

use crate::error::CliError;

fn parse_u64(flag: &str, value: &str) -> Result<u64, CliError> {
    value
        .parse()
        .map_err(|_| CliError::Usage(format!("{flag} expects a number, got '{value}'")))
}

fn parse_u32(flag: &str, value: &str) -> Result<u32, CliError> {
    value
        .parse()
        .map_err(|_| CliError::Usage(format!("{flag} expects a number, got '{value}'")))
}

/// Parses `ADDR:TXS:BLOCKS` probe descriptors.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for malformed or infeasible descriptors.
pub fn parse_probe_spec(s: &str) -> Result<ProbeSpec, CliError> {
    let parts: Vec<&str> = s.split(':').collect();
    let [address, txs, blocks] = parts.as_slice() else {
        return Err(CliError::Usage(format!(
            "--probe expects ADDR:TXS:BLOCKS, got '{s}'"
        )));
    };
    let txs = parse_u64("--probe TXS", txs)?;
    let blocks = parse_u64("--probe BLOCKS", blocks)?;
    if address.is_empty() || txs < blocks || (txs == 0) != (blocks == 0) {
        return Err(CliError::Usage(format!("infeasible probe '{s}'")));
    }
    Ok(ProbeSpec::new(*address, txs, blocks))
}

fn parse_scheme(value: &str) -> Result<Scheme, CliError> {
    Ok(match value {
        "lvq" => Scheme::Lvq,
        "no-bmt" => Scheme::LvqWithoutBmt,
        "no-smt" => Scheme::LvqWithoutSmt,
        "strawman" => Scheme::Strawman,
        other => {
            return Err(CliError::Usage(format!(
                "unknown scheme '{other}' (lvq|no-bmt|no-smt|strawman)"
            )))
        }
    })
}

/// Options of `lvq generate`.
#[derive(Debug, Clone)]
pub struct GenerateOptions {
    /// Output path.
    pub out: String,
    /// Chain length.
    pub blocks: u64,
    /// Query scheme.
    pub scheme: Scheme,
    /// Bloom filter size in bytes.
    pub bf_bytes: u32,
    /// Bloom hash functions.
    pub hashes: u32,
    /// Segment length `M` (defaults to the chain length rounded up to a
    /// power of two).
    pub segment_len: Option<u64>,
    /// Workload seed.
    pub seed: u64,
    /// Mean background transactions per block.
    pub txs_per_block: u32,
    /// Probes to plant.
    pub probes: Vec<ProbeSpec>,
}

impl GenerateOptions {
    /// Parses the arguments after `generate`.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] for unknown flags or bad values.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut opts = GenerateOptions {
            out: String::new(),
            blocks: 64,
            scheme: Scheme::Lvq,
            bf_bytes: 1_920,
            hashes: 2,
            segment_len: None,
            seed: 0x1_5EED,
            txs_per_block: 12,
            probes: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
            };
            match flag.as_str() {
                "--out" => opts.out = value("--out")?,
                "--blocks" => opts.blocks = parse_u64("--blocks", &value("--blocks")?)?,
                "--scheme" => opts.scheme = parse_scheme(&value("--scheme")?)?,
                "--bf" => opts.bf_bytes = parse_u32("--bf", &value("--bf")?)?,
                "--k" => opts.hashes = parse_u32("--k", &value("--k")?)?,
                "--segment" => {
                    opts.segment_len = Some(parse_u64("--segment", &value("--segment")?)?)
                }
                "--seed" => opts.seed = parse_u64("--seed", &value("--seed")?)?,
                "--txs" => opts.txs_per_block = parse_u32("--txs", &value("--txs")?)?,
                "--probe" => opts.probes.push(parse_probe_spec(&value("--probe")?)?),
                other => return Err(CliError::Usage(format!("unknown flag '{other}'"))),
            }
        }
        if opts.out.is_empty() {
            return Err(CliError::Usage("generate requires --out FILE".into()));
        }
        if opts.blocks == 0 {
            return Err(CliError::Usage("--blocks must be at least 1".into()));
        }
        Ok(opts)
    }

    /// The effective segment length: explicit, or the chain length
    /// rounded up to a power of two.
    pub fn effective_segment_len(&self) -> u64 {
        self.segment_len
            .unwrap_or_else(|| self.blocks.next_power_of_two())
    }
}

/// Where `lvq query` gets its proofs from.
#[derive(Debug, Clone)]
pub enum QuerySource {
    /// Prove locally against a persisted chain file.
    File(String),
    /// Query a remote [`lvq_node::NodeServer`] over TCP.
    Remote(RemoteEndpoint),
}

/// A remote full node plus the out-of-band trust anchor.
///
/// Over TCP the client has no chain file, so the scheme parameters —
/// which a real deployment would pin out of band, like Bitcoin's
/// consensus rules — come from flags and are enforced against the
/// synced headers' commitment policy.
#[derive(Debug, Clone)]
pub struct RemoteEndpoint {
    /// `HOST:PORT` of the serving node.
    pub addr: String,
    /// Expected query scheme.
    pub scheme: Scheme,
    /// Expected Bloom filter size in bytes.
    pub bf_bytes: u32,
    /// Expected Bloom hash functions.
    pub hashes: u32,
    /// Expected segment length `M`.
    pub segment_len: u64,
}

/// Options of `lvq query`.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Local chain file or remote node.
    pub source: QuerySource,
    /// Queried address.
    pub address: String,
    /// Optional height range.
    pub range: Option<(u64, u64)>,
    /// Print the size breakdown.
    pub breakdown: bool,
    /// Retries after the first attempt on transient failures (`Busy`,
    /// disconnects, timeouts). Remote queries only.
    pub retries: u32,
    /// Base backoff between retries in milliseconds (decorrelated
    /// jitter grows it, capped at 2 s). Remote queries only.
    pub backoff_ms: u64,
    /// When set, injects reproducible transport faults (5% composite
    /// rate) seeded with this value, and seeds the retry jitter — a
    /// self-healing demo and debugging aid. Remote queries only.
    pub chaos_seed: Option<u64>,
    /// Give up dialing (and re-dialing) after this many milliseconds
    /// instead of hanging for the OS connect default. Remote queries
    /// only.
    pub connect_timeout_ms: Option<u64>,
    /// Negotiate protocol v2 and propose this in-flight window; a
    /// server that refuses v2 fails the query with its typed refusal.
    /// Remote queries only.
    pub pipeline: Option<u32>,
}

impl QueryOptions {
    /// Parses the arguments after `query`.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] for unknown flags or bad values.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut positional = Vec::new();
        let mut range = None;
        let mut breakdown = false;
        let mut addr = None;
        let mut scheme = Scheme::Lvq;
        let mut bf_bytes = 1_920;
        let mut hashes = 2;
        let mut segment_len = None;
        let mut scheme_flag_seen = false;
        let mut retries = 4u32;
        let mut backoff_ms = 50u64;
        let mut chaos_seed = None;
        let mut retry_flag_seen = false;
        let mut connect_timeout_ms = None;
        let mut pipeline = None;
        let mut transport_flag_seen = false;
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
            };
            match arg.as_str() {
                "--range" => {
                    let value = value("--range")?;
                    let Some((lo, hi)) = value.split_once(':') else {
                        return Err(CliError::Usage(format!(
                            "--range expects LO:HI, got '{value}'"
                        )));
                    };
                    range = Some((parse_u64("--range LO", lo)?, parse_u64("--range HI", hi)?));
                }
                "--breakdown" => breakdown = true,
                "--addr" => addr = Some(value("--addr")?),
                "--scheme" => {
                    scheme = parse_scheme(&value("--scheme")?)?;
                    scheme_flag_seen = true;
                }
                "--bf" => {
                    bf_bytes = parse_u32("--bf", &value("--bf")?)?;
                    scheme_flag_seen = true;
                }
                "--k" => {
                    hashes = parse_u32("--k", &value("--k")?)?;
                    scheme_flag_seen = true;
                }
                "--segment" => {
                    segment_len = Some(parse_u64("--segment", &value("--segment")?)?);
                    scheme_flag_seen = true;
                }
                "--retries" => {
                    retries = parse_u32("--retries", &value("--retries")?)?;
                    retry_flag_seen = true;
                }
                "--backoff-ms" => {
                    backoff_ms = parse_u64("--backoff-ms", &value("--backoff-ms")?)?;
                    retry_flag_seen = true;
                }
                "--chaos-seed" => {
                    chaos_seed = Some(parse_u64("--chaos-seed", &value("--chaos-seed")?)?);
                    retry_flag_seen = true;
                }
                "--connect-timeout-ms" => {
                    let ms = parse_u64("--connect-timeout-ms", &value("--connect-timeout-ms")?)?;
                    if ms == 0 {
                        return Err(CliError::Usage(
                            "--connect-timeout-ms must be at least 1".into(),
                        ));
                    }
                    connect_timeout_ms = Some(ms);
                    transport_flag_seen = true;
                }
                "--pipeline" => {
                    let depth = parse_u32("--pipeline", &value("--pipeline")?)?;
                    if depth == 0 {
                        return Err(CliError::Usage("--pipeline must be at least 1".into()));
                    }
                    pipeline = Some(depth);
                    transport_flag_seen = true;
                }
                other if !other.starts_with("--") => positional.push(other.to_string()),
                other => return Err(CliError::Usage(format!("unknown flag '{other}'"))),
            }
        }
        let (source, address) = match addr {
            Some(addr) => {
                let [address] = positional.as_slice() else {
                    return Err(CliError::Usage(
                        "query --addr takes exactly one address".into(),
                    ));
                };
                let Some(segment_len) = segment_len else {
                    return Err(CliError::Usage(
                        "query --addr requires --segment M (the scheme parameters \
                         are the client's out-of-band trust anchor)"
                            .into(),
                    ));
                };
                if breakdown {
                    return Err(CliError::Usage(
                        "--breakdown needs the raw response; it is only available \
                         with a local chain file"
                            .into(),
                    ));
                }
                let endpoint = RemoteEndpoint {
                    addr,
                    scheme,
                    bf_bytes,
                    hashes,
                    segment_len,
                };
                (QuerySource::Remote(endpoint), address.clone())
            }
            None => {
                if scheme_flag_seen {
                    return Err(CliError::Usage(
                        "--scheme/--bf/--k/--segment only apply with --addr \
                         (a chain file carries its own parameters)"
                            .into(),
                    ));
                }
                if retry_flag_seen {
                    return Err(CliError::Usage(
                        "--retries/--backoff-ms/--chaos-seed only apply with --addr \
                         (a local proof has no transport to fail)"
                            .into(),
                    ));
                }
                if transport_flag_seen {
                    return Err(CliError::Usage(
                        "--connect-timeout-ms/--pipeline only apply with --addr \
                         (a local proof has no connection to tune)"
                            .into(),
                    ));
                }
                let [file, address] = positional.as_slice() else {
                    return Err(CliError::Usage(
                        "query takes a chain file and an address".into(),
                    ));
                };
                (QuerySource::File(file.clone()), address.clone())
            }
        };
        Ok(QueryOptions {
            source,
            address,
            range,
            breakdown,
            retries,
            backoff_ms,
            chaos_seed,
            connect_timeout_ms,
            pipeline,
        })
    }
}

/// Where `lvq serve` gets its chain from.
#[derive(Debug, Clone)]
pub enum ServeSource {
    /// Deserialize a chain file into memory.
    File {
        /// Chain file path.
        path: String,
        /// Skip the full commitment replay (`--trust-file`): record
        /// checksums vouch for the bytes, derived state is rebuilt in
        /// one streaming pass.
        trusted: bool,
    },
    /// Serve straight from an on-disk block store directory.
    Store(String),
}

/// Options of `lvq serve`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Chain file or store directory.
    pub source: ServeSource,
    /// Listen address (`HOST:PORT`; port 0 picks a free port).
    pub addr: String,
    /// Stop after this many requests (for scripted runs and tests).
    pub max_requests: Option<u64>,
    /// Byte budget for the dyadic-span Bloom filter cache.
    pub filter_cache: Option<usize>,
    /// Byte budget for each per-block memo (SMTs, transaction trees).
    pub smt_cache: Option<usize>,
    /// Worker threads in the serving pool (0 = one per CPU).
    pub workers: usize,
    /// Accept-queue depth before connections are shed with `Busy`.
    pub queue: Option<usize>,
    /// Per-request deadline in milliseconds (0 = none).
    pub deadline_ms: Option<u64>,
    /// Largest per-connection pipelining window granted to protocol-v2
    /// clients (requests past it are shed with `Busy`).
    pub max_in_flight: Option<u32>,
    /// Byte budget for the decoded-block LRU cache (`--store` only).
    pub block_cache: Option<usize>,
    /// Chain file to follow while serving (`--store` only): blocks the
    /// store does not have yet are ingested live, growing the served
    /// tip while queries keep being answered.
    pub follow: Option<String>,
    /// Reorg budget for the live ingest (`--follow` only): 0 keeps the
    /// strict extend-only feed, >0 lets the ingester store competing
    /// branches forking at most this many blocks below the tip and
    /// switch to whichever is longest.
    pub max_reorg_depth: u64,
    /// Serve through the persistent address index (`--store` only):
    /// reopen becomes point reads off the index's anchored root, built
    /// automatically on first open.
    pub index: bool,
    /// Byte budget for the index node LRU cache (`--index` only).
    pub index_cache: Option<usize>,
}

impl ServeOptions {
    /// Parses the arguments after `serve`.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] for unknown flags or bad values.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut positional = Vec::new();
        let mut addr = "127.0.0.1:0".to_string();
        let mut max_requests = None;
        let mut filter_cache = None;
        let mut smt_cache = None;
        let mut workers = 0;
        let mut queue = None;
        let mut deadline_ms = None;
        let mut max_in_flight = None;
        let mut store = None;
        let mut trusted = false;
        let mut block_cache = None;
        let mut follow = None;
        let mut max_reorg_depth = 0;
        let mut index = false;
        let mut index_cache = None;
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
            };
            match arg.as_str() {
                "--addr" => addr = value("--addr")?,
                "--max-requests" => {
                    max_requests = Some(parse_u64("--max-requests", &value("--max-requests")?)?)
                }
                "--filter-cache" => {
                    filter_cache =
                        Some(parse_u64("--filter-cache", &value("--filter-cache")?)? as usize)
                }
                "--smt-cache" => {
                    smt_cache = Some(parse_u64("--smt-cache", &value("--smt-cache")?)? as usize)
                }
                "--workers" => workers = parse_u64("--workers", &value("--workers")?)? as usize,
                "--queue" => {
                    let depth = parse_u64("--queue", &value("--queue")?)? as usize;
                    if depth == 0 {
                        return Err(CliError::Usage("--queue must be at least 1".into()));
                    }
                    queue = Some(depth);
                }
                "--deadline-ms" => {
                    deadline_ms = Some(parse_u64("--deadline-ms", &value("--deadline-ms")?)?)
                }
                "--max-in-flight" => {
                    let depth = parse_u32("--max-in-flight", &value("--max-in-flight")?)?;
                    if depth == 0 {
                        return Err(CliError::Usage("--max-in-flight must be at least 1".into()));
                    }
                    max_in_flight = Some(depth);
                }
                "--store" => store = Some(value("--store")?),
                "--trust-file" => trusted = true,
                "--block-cache" => {
                    block_cache =
                        Some(parse_u64("--block-cache", &value("--block-cache")?)? as usize)
                }
                "--follow" => follow = Some(value("--follow")?),
                "--max-reorg-depth" => {
                    max_reorg_depth = parse_u64("--max-reorg-depth", &value("--max-reorg-depth")?)?
                }
                "--index" => index = true,
                "--index-cache" => {
                    index_cache =
                        Some(parse_u64("--index-cache", &value("--index-cache")?)? as usize)
                }
                other if !other.starts_with("--") => positional.push(other.to_string()),
                other => return Err(CliError::Usage(format!("unknown flag '{other}'"))),
            }
        }
        if index_cache.is_some() && !index {
            return Err(CliError::Usage(
                "--index-cache only applies with --index".into(),
            ));
        }
        if max_reorg_depth > 0 && follow.is_none() {
            return Err(CliError::Usage(
                "--max-reorg-depth only applies with --follow (reorgs arrive \
                 through the live feed)"
                    .into(),
            ));
        }
        let source = match (store, positional.as_slice()) {
            (Some(dir), []) => {
                if trusted {
                    return Err(CliError::Usage(
                        "--trust-file applies to chain files; a store is always \
                         opened via its checksums"
                            .into(),
                    ));
                }
                ServeSource::Store(dir)
            }
            (None, [file]) => {
                if block_cache.is_some() {
                    return Err(CliError::Usage(
                        "--block-cache only applies with --store (a chain file \
                         is fully resident)"
                            .into(),
                    ));
                }
                if follow.is_some() {
                    return Err(CliError::Usage(
                        "--follow only applies with --store (live ingest needs \
                         a durable store to append into)"
                            .into(),
                    ));
                }
                if index {
                    return Err(CliError::Usage(
                        "--index only applies with --store (the address index \
                         lives inside the store directory)"
                            .into(),
                    ));
                }
                ServeSource::File {
                    path: file.clone(),
                    trusted,
                }
            }
            _ => {
                return Err(CliError::Usage(
                    "serve takes exactly one chain file, or --store DIR".into(),
                ))
            }
        };
        Ok(ServeOptions {
            source,
            addr,
            max_requests,
            filter_cache,
            smt_cache,
            workers,
            queue,
            deadline_ms,
            max_in_flight,
            block_cache,
            follow,
            max_reorg_depth,
            index,
            index_cache,
        })
    }
}

/// Options of `lvq ingest`.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Input chain file.
    pub file: String,
    /// Destination store directory (must not already be a store).
    pub store: String,
    /// Load the chain file with checksum-only verification
    /// (`--trust-file`) instead of the full commitment replay.
    pub trusted: bool,
    /// Target segment size in bytes before rotation.
    pub segment_bytes: Option<u64>,
    /// Also build the persistent address index, so the first
    /// `serve --store --index` starts with point reads instead of a
    /// build pass.
    pub index: bool,
}

impl IngestOptions {
    /// Parses the arguments after `ingest`.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] for unknown flags or bad values.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut positional = Vec::new();
        let mut store = None;
        let mut trusted = false;
        let mut segment_bytes = None;
        let mut index = false;
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
            };
            match arg.as_str() {
                "--store" => store = Some(value("--store")?),
                "--trust-file" => trusted = true,
                "--segment-bytes" => {
                    let bytes = parse_u64("--segment-bytes", &value("--segment-bytes")?)?;
                    if bytes == 0 {
                        return Err(CliError::Usage("--segment-bytes must be at least 1".into()));
                    }
                    segment_bytes = Some(bytes);
                }
                "--index" => index = true,
                other if !other.starts_with("--") => positional.push(other.to_string()),
                other => return Err(CliError::Usage(format!("unknown flag '{other}'"))),
            }
        }
        let [file] = positional.as_slice() else {
            return Err(CliError::Usage(
                "ingest takes exactly one chain file".into(),
            ));
        };
        let Some(store) = store else {
            return Err(CliError::Usage("ingest requires --store DIR".into()));
        };
        Ok(IngestOptions {
            file: file.clone(),
            store,
            trusted,
            segment_bytes,
            index,
        })
    }
}

/// Options of `lvq fsck`.
#[derive(Debug, Clone)]
pub struct FsckOptions {
    /// Store directory to check.
    pub store: String,
    /// Also audit the persistent address index (`addr-index/`): full
    /// node-by-node verification, not just the anchored root record.
    pub index: bool,
}

impl FsckOptions {
    /// Parses the arguments after `fsck`.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] for unknown flags or bad values.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut store = None;
        let mut index = false;
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
            };
            match arg.as_str() {
                "--store" => store = Some(value("--store")?),
                "--index" => index = true,
                other => return Err(CliError::Usage(format!("unknown flag '{other}'"))),
            }
        }
        let Some(store) = store else {
            return Err(CliError::Usage("fsck requires --store DIR".into()));
        };
        Ok(FsckOptions { store, index })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn generate_defaults_and_flags() {
        let opts = GenerateOptions::parse(&strings(&[
            "--out", "c.lvq", "--blocks", "100", "--scheme", "no-smt", "--bf", "640", "--seed",
            "7", "--probe", "1Abc:5:3",
        ]))
        .unwrap();
        assert_eq!(opts.out, "c.lvq");
        assert_eq!(opts.blocks, 100);
        assert_eq!(opts.scheme, Scheme::LvqWithoutSmt);
        assert_eq!(opts.bf_bytes, 640);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.probes.len(), 1);
        // 100 blocks -> segment 128 by default.
        assert_eq!(opts.effective_segment_len(), 128);
    }

    #[test]
    fn generate_requires_out() {
        assert!(matches!(
            GenerateOptions::parse(&strings(&["--blocks", "4"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn probe_spec_parsing() {
        let p = parse_probe_spec("1Addr:10:5").unwrap();
        assert_eq!(p.address.as_str(), "1Addr");
        assert_eq!(p.tx_count, 10);
        assert_eq!(p.block_count, 5);
        for bad in ["1Addr", "1Addr:5", "1Addr:2:5", ":1:1", "1A:0:1", "1A:x:1"] {
            assert!(parse_probe_spec(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn query_parsing() {
        let q = QueryOptions::parse(&strings(&[
            "c.lvq",
            "1Addr",
            "--range",
            "5:9",
            "--breakdown",
        ]))
        .unwrap();
        assert!(matches!(&q.source, QuerySource::File(f) if f == "c.lvq"));
        assert_eq!(q.address, "1Addr");
        assert_eq!(q.range, Some((5, 9)));
        assert!(q.breakdown);
        assert!(QueryOptions::parse(&strings(&["c.lvq"])).is_err());
        assert!(QueryOptions::parse(&strings(&["c.lvq", "1A", "--range", "5"])).is_err());
    }

    #[test]
    fn query_remote_parsing() {
        let q = QueryOptions::parse(&strings(&[
            "1Addr",
            "--addr",
            "127.0.0.1:4000",
            "--segment",
            "16",
            "--bf",
            "640",
        ]))
        .unwrap();
        let QuerySource::Remote(remote) = &q.source else {
            panic!("--addr selects the remote source");
        };
        assert_eq!(remote.addr, "127.0.0.1:4000");
        assert_eq!(remote.scheme, Scheme::Lvq);
        assert_eq!(remote.bf_bytes, 640);
        assert_eq!(remote.hashes, 2);
        assert_eq!(remote.segment_len, 16);
        assert_eq!(q.address, "1Addr");

        // --segment is the mandatory part of the trust anchor.
        assert!(QueryOptions::parse(&strings(&["1Addr", "--addr", "h:1"])).is_err());
        // --breakdown needs the raw response.
        assert!(QueryOptions::parse(&strings(&[
            "1Addr",
            "--addr",
            "h:1",
            "--segment",
            "8",
            "--breakdown"
        ]))
        .is_err());
        // Scheme flags without --addr are a mistake, not noise.
        assert!(QueryOptions::parse(&strings(&["c.lvq", "1Addr", "--segment", "8"])).is_err());
        // Remote mode takes one positional, not a file.
        assert!(QueryOptions::parse(&strings(&[
            "c.lvq",
            "1Addr",
            "--addr",
            "h:1",
            "--segment",
            "8"
        ]))
        .is_err());
    }

    #[test]
    fn query_retry_flags() {
        let q = QueryOptions::parse(&strings(&[
            "1Addr",
            "--addr",
            "127.0.0.1:4000",
            "--segment",
            "16",
            "--retries",
            "8",
            "--backoff-ms",
            "25",
            "--chaos-seed",
            "42",
        ]))
        .unwrap();
        assert_eq!(q.retries, 8);
        assert_eq!(q.backoff_ms, 25);
        assert_eq!(q.chaos_seed, Some(42));

        // Defaults: a handful of retries, modest backoff, no chaos.
        let q =
            QueryOptions::parse(&strings(&["1Addr", "--addr", "h:1", "--segment", "8"])).unwrap();
        assert_eq!(q.retries, 4);
        assert_eq!(q.backoff_ms, 50);
        assert_eq!(q.chaos_seed, None);

        // Retry flags without a transport are a mistake, not noise.
        assert!(QueryOptions::parse(&strings(&["c.lvq", "1Addr", "--retries", "3"])).is_err());
        assert!(QueryOptions::parse(&strings(&["c.lvq", "1Addr", "--chaos-seed", "1"])).is_err());
    }

    #[test]
    fn query_transport_flags() {
        let q = QueryOptions::parse(&strings(&[
            "1Addr",
            "--addr",
            "127.0.0.1:4000",
            "--segment",
            "16",
            "--connect-timeout-ms",
            "500",
            "--pipeline",
            "8",
        ]))
        .unwrap();
        assert_eq!(q.connect_timeout_ms, Some(500));
        assert_eq!(q.pipeline, Some(8));

        // Defaults: OS connect timeout, blocking v1 protocol.
        let q =
            QueryOptions::parse(&strings(&["1Addr", "--addr", "h:1", "--segment", "8"])).unwrap();
        assert_eq!(q.connect_timeout_ms, None);
        assert_eq!(q.pipeline, None);

        // Zero is a mistake for both.
        assert!(QueryOptions::parse(&strings(&[
            "1Addr",
            "--addr",
            "h:1",
            "--segment",
            "8",
            "--connect-timeout-ms",
            "0"
        ]))
        .is_err());
        assert!(QueryOptions::parse(&strings(&[
            "1Addr",
            "--addr",
            "h:1",
            "--segment",
            "8",
            "--pipeline",
            "0"
        ]))
        .is_err());
        // Transport flags without a transport are a mistake, not noise.
        assert!(
            QueryOptions::parse(&strings(&["c.lvq", "1Addr", "--connect-timeout-ms", "9"]))
                .is_err()
        );
        assert!(QueryOptions::parse(&strings(&["c.lvq", "1Addr", "--pipeline", "4"])).is_err());
        // The fault injector wraps either base connection.
        let q = QueryOptions::parse(&strings(&[
            "1Addr",
            "--addr",
            "h:1",
            "--segment",
            "8",
            "--pipeline",
            "4",
            "--chaos-seed",
            "1",
        ]))
        .unwrap();
        assert_eq!((q.pipeline, q.chaos_seed), (Some(4), Some(1)));
    }

    #[test]
    fn serve_parsing() {
        let s = ServeOptions::parse(&strings(&["c.lvq"])).unwrap();
        assert!(matches!(&s.source, ServeSource::File { path, trusted: false } if path == "c.lvq"));
        assert_eq!(s.addr, "127.0.0.1:0");
        assert_eq!(s.max_requests, None);
        assert_eq!(s.filter_cache, None);
        assert_eq!(s.workers, 0);
        assert_eq!(s.queue, None);
        assert_eq!(s.deadline_ms, None);
        assert_eq!(s.block_cache, None);

        let s = ServeOptions::parse(&strings(&[
            "c.lvq",
            "--addr",
            "0.0.0.0:4000",
            "--max-requests",
            "12",
            "--filter-cache",
            "1048576",
            "--smt-cache",
            "65536",
            "--workers",
            "4",
            "--queue",
            "32",
            "--deadline-ms",
            "250",
            "--max-in-flight",
            "16",
        ]))
        .unwrap();
        assert_eq!(s.addr, "0.0.0.0:4000");
        assert_eq!(s.max_requests, Some(12));
        assert_eq!(s.filter_cache, Some(1_048_576));
        assert_eq!(s.smt_cache, Some(65_536));
        assert_eq!(s.workers, 4);
        assert_eq!(s.queue, Some(32));
        assert_eq!(s.deadline_ms, Some(250));
        assert_eq!(s.max_in_flight, Some(16));

        assert!(ServeOptions::parse(&strings(&[])).is_err());
        assert!(ServeOptions::parse(&strings(&["a.lvq", "b.lvq"])).is_err());
        assert!(ServeOptions::parse(&strings(&["a.lvq", "--max-requests", "x"])).is_err());
        assert!(ServeOptions::parse(&strings(&["a.lvq", "--queue", "0"])).is_err());
        assert!(ServeOptions::parse(&strings(&["a.lvq", "--max-in-flight", "0"])).is_err());
    }

    #[test]
    fn serve_source_parsing() {
        let s = ServeOptions::parse(&strings(&["c.lvq", "--trust-file"])).unwrap();
        assert!(matches!(&s.source, ServeSource::File { trusted: true, .. }));

        let s =
            ServeOptions::parse(&strings(&["--store", "dir", "--block-cache", "4096"])).unwrap();
        assert!(matches!(&s.source, ServeSource::Store(dir) if dir == "dir"));
        assert_eq!(s.block_cache, Some(4096));

        let s = ServeOptions::parse(&strings(&["--store", "dir", "--follow", "tip.lvq"])).unwrap();
        assert!(matches!(&s.source, ServeSource::Store(dir) if dir == "dir"));
        assert_eq!(s.follow.as_deref(), Some("tip.lvq"));

        // A file and a store are mutually exclusive sources.
        assert!(ServeOptions::parse(&strings(&["c.lvq", "--store", "dir"])).is_err());
        // --follow needs a durable store to append into.
        assert!(ServeOptions::parse(&strings(&["c.lvq", "--follow", "tip.lvq"])).is_err());
        // --trust-file is meaningless for a store.
        assert!(ServeOptions::parse(&strings(&["--store", "dir", "--trust-file"])).is_err());
        // --block-cache is meaningless for a fully resident file.
        assert!(ServeOptions::parse(&strings(&["c.lvq", "--block-cache", "1"])).is_err());
    }

    #[test]
    fn serve_index_parsing() {
        let s = ServeOptions::parse(&strings(&["--store", "dir", "--index"])).unwrap();
        assert!(matches!(&s.source, ServeSource::Store(dir) if dir == "dir"));
        assert!(s.index);
        assert_eq!(s.index_cache, None);

        let s = ServeOptions::parse(&strings(&[
            "--store",
            "dir",
            "--index",
            "--index-cache",
            "1048576",
        ]))
        .unwrap();
        assert!(s.index);
        assert_eq!(s.index_cache, Some(1_048_576));

        // The index lives inside the store directory — never with a file.
        assert!(ServeOptions::parse(&strings(&["c.lvq", "--index"])).is_err());
        // A cache budget for an index that is not opened is a mistake.
        assert!(ServeOptions::parse(&strings(&["--store", "dir", "--index-cache", "1"])).is_err());
    }

    #[test]
    fn ingest_parsing() {
        let i = IngestOptions::parse(&strings(&["c.lvq", "--store", "dir"])).unwrap();
        assert_eq!(i.file, "c.lvq");
        assert_eq!(i.store, "dir");
        assert!(!i.trusted);
        assert_eq!(i.segment_bytes, None);

        let i = IngestOptions::parse(&strings(&[
            "c.lvq",
            "--store",
            "dir",
            "--trust-file",
            "--segment-bytes",
            "1048576",
        ]))
        .unwrap();
        assert!(i.trusted);
        assert_eq!(i.segment_bytes, Some(1_048_576));
        assert!(!i.index);

        let i = IngestOptions::parse(&strings(&["c.lvq", "--store", "dir", "--index"])).unwrap();
        assert!(i.index);

        assert!(IngestOptions::parse(&strings(&["c.lvq"])).is_err());
        assert!(IngestOptions::parse(&strings(&["--store", "dir"])).is_err());
        assert!(IngestOptions::parse(&strings(&["a", "b", "--store", "dir"])).is_err());
        assert!(
            IngestOptions::parse(&strings(&["a", "--store", "d", "--segment-bytes", "0"])).is_err()
        );
    }

    #[test]
    fn fsck_parsing() {
        let opts = FsckOptions::parse(&strings(&["--store", "dir"])).unwrap();
        assert_eq!(opts.store, "dir");
        assert!(!opts.index);

        let opts = FsckOptions::parse(&strings(&["--store", "dir", "--index"])).unwrap();
        assert!(opts.index);

        assert!(FsckOptions::parse(&strings(&[])).is_err());
        assert!(FsckOptions::parse(&strings(&["--index"])).is_err());
        assert!(FsckOptions::parse(&strings(&["--store", "dir", "extra"])).is_err());
    }

    #[test]
    fn scheme_names() {
        assert_eq!(parse_scheme("lvq").unwrap(), Scheme::Lvq);
        assert_eq!(parse_scheme("no-bmt").unwrap(), Scheme::LvqWithoutBmt);
        assert_eq!(parse_scheme("strawman").unwrap(), Scheme::Strawman);
        assert!(parse_scheme("bogus").is_err());
    }
}
