//! The pinned API surface: the one file through which the benchmark
//! reaches the library crates (`lvq-workload`, `lvq-core`, `lvq-codec`,
//! `lvq-chain`, `lvq-merkle::bmt`, `lvq-store`, `lvq-node`,
//! `lvq-crypto`, `lvq-bloom`). Every other module of the benchmark
//! sees only the wrappers below, so a later API rename is a one-file
//! change. Nothing here comes from `lvq_bench::experiments`.
//!
//! The wrappers add no behaviour: each one is a direct call into a
//! `pub` item, timed from outside by the caller.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;

use lvq_bloom::{BloomFilter, BloomParams};
use lvq_chain::{
    Address, BlockSource, CacheConfig, Chain, ChainCacheStats, TableSource, Transaction,
};
use lvq_codec::{decode_exact, Encodable};
use lvq_core::{
    segments, BatchQueryResponse, BlockFragment, LightClient, Prover, QueryResponse, Scheme,
    SchemeConfig,
};
use lvq_crypto::{sha256, Hash256};
use lvq_merkle::bmt;
use lvq_node::frame::{read_frame, write_frame, MAX_FRAME_LEN};
use lvq_node::{
    envelope, FullNode, HelloInfo, IngestConfig, IngestHandle, LightNode, LiveNode, LocalTransport,
    MemoryFeed, Message, NodeError, NodeServer, QuerySpec, ServerConfig, ServerStats, TcpTransport,
    TipIngester, Transport, WireErrorCode,
};
use lvq_store::{
    open_chain, open_chain_indexed, AddrIndexRecovery, BlockStore, DiskBlockSource, IndexedTables,
    StoreConfig,
};
use lvq_workload::{probes, TrafficModel, WorkloadBuilder};

/// A block, handed from a generated chain to the live feed.
pub use lvq_chain::Block;

/// An address, moved around and compared but never inspected.
pub type Addr = Address;
/// A transaction history as `(height, transaction)` in chain order —
/// what `Chain::history_of` returns and what a verified answer holds.
pub type History = Vec<(u64, Transaction)>;
/// The out-of-band trust anchor a light client is configured with.
pub type Config = SchemeConfig;

type DiskFull = FullNode<DiskBlockSource, IndexedTables>;
type DiskLive = LiveNode<DiskBlockSource, IndexedTables>;

// ---------------------------------------------------------------------
// Chains
// ---------------------------------------------------------------------

/// Background traffic of a generated chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// `TrafficModel::tiny()`: ~12 transactions per block.
    Tiny,
    /// `TrafficModel::mainnet_2012()`: ~220 transactions per block.
    Mainnet2012,
}

/// Everything that determines one generated chain besides the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainSpec {
    /// Chain length.
    pub blocks: u64,
    /// Background traffic.
    pub traffic: Traffic,
    /// BMT Bloom filter size in bytes.
    pub bf_bytes: u32,
    /// Bloom hash functions `k`.
    pub bf_hashes: u32,
    /// Segment length `M`.
    pub segment_len: u64,
}

impl ChainSpec {
    /// The full-LVQ scheme configuration this spec implies.
    pub fn config(&self) -> Config {
        let bloom = BloomParams::new(self.bf_bytes, self.bf_hashes).expect("non-zero filter");
        SchemeConfig::new(Scheme::Lvq, bloom, self.segment_len).expect("power-of-two M")
    }
}

/// A generated in-memory chain with its planted Table III probes
/// (`probes[0]` is Addr1, absent; `probes[5]` is Addr6, tx-heavy).
pub struct Built {
    chain: Chain,
    /// Addr1..Addr6.
    pub probes: Vec<Addr>,
}

/// Generates the chain for `spec` from `seed`, planting
/// `probes::table3_scaled(blocks)`.
pub fn build_chain(spec: &ChainSpec, seed: u64) -> Built {
    let traffic = match spec.traffic {
        Traffic::Tiny => TrafficModel::tiny(),
        Traffic::Mainnet2012 => TrafficModel::mainnet_2012(),
    };
    let workload = WorkloadBuilder::new(spec.config().chain_params())
        .blocks(spec.blocks)
        .traffic(traffic)
        .seed(seed)
        .probes(probes::table3_scaled(spec.blocks))
        .build()
        .expect("scaled probes fit the chain");
    Built {
        probes: workload.probes.into_iter().map(|p| p.address).collect(),
        chain: workload.chain,
    }
}

impl Built {
    /// Ground truth: every transaction involving `addr`.
    pub fn truth(&self, addr: &Addr) -> History {
        self.chain.history_of(addr)
    }

    /// Chain length.
    pub fn tip(&self) -> u64 {
        self.chain.tip_height()
    }

    /// `count` distinct addresses (other than the probes) that appear
    /// in one to `max_txs` transactions, each with its ground truth:
    /// the light wallets of a request mix. Candidates are sorted, then
    /// drawn with `below(n)` (uniform in `0..n`), so the pick depends on
    /// the caller's seed alone.
    pub fn light_wallets(
        &self,
        count: usize,
        max_txs: u32,
        mut below: impl FnMut(u64) -> u64,
    ) -> Vec<(Addr, History)> {
        let mut seen: HashMap<Address, u32> = HashMap::new();
        for height in 1..=self.chain.tip_height() {
            let block = self.chain.block(height).expect("height in range");
            for tx in &block.transactions {
                for addr in tx.addresses() {
                    *seen.entry(addr.clone()).or_default() += 1;
                }
            }
        }
        let mut candidates: Vec<Address> = seen
            .into_iter()
            .filter(|(addr, txs)| *txs <= max_txs && !self.probes.contains(addr))
            .map(|(addr, _)| addr)
            .collect();
        candidates.sort_unstable_by(|a, b| a.as_str().cmp(b.as_str()));
        (0..count.min(candidates.len()))
            .map(|_| {
                let addr = candidates.swap_remove(below(candidates.len() as u64) as usize);
                let truth = self.chain.history_of(&addr);
                (addr, truth)
            })
            .collect()
    }

    /// Copies of every block, height 1 first (the live feed's input).
    pub fn blocks(&self) -> Vec<Block> {
        (1..=self.chain.tip_height())
            .map(|h| (*self.chain.block(h).expect("height in range")).clone())
            .collect()
    }

    /// Writes blocks `1..=upto` into a fresh store at `dir` and syncs
    /// it. Returns the store's segment bytes.
    pub fn store_prefix(&self, dir: &Path, upto: u64) -> Result<u64, String> {
        let store = BlockStore::create(dir, self.chain.params(), StoreConfig::default())
            .map_err(|e| e.to_string())?;
        for height in 1..=upto {
            let block = self.chain.block(height).map_err(|e| e.to_string())?;
            store.append(&block).map_err(|e| e.to_string())?;
        }
        store.sync().map_err(|e| e.to_string())?;
        Ok(store.data_bytes())
    }
}

/// An address no generated chain contains: the generator mints `1` +
/// 32 Base58 characters, and this name is longer and carries `0`.
pub fn fresh_address(seed: u64, n: u64) -> Addr {
    Address::new(format!("1Fresh0{seed:016x}0{n:016x}"))
}

// ---------------------------------------------------------------------
// Queries and answers
// ---------------------------------------------------------------------

/// One verifiable query: which addresses, over which height range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Queried addresses, in response order.
    pub targets: Vec<Addr>,
    /// Whether it goes on the wire as a batched request.
    pub batch: bool,
    /// `Some((lo, hi))` restricts the query to blocks `lo..=hi`.
    pub range: Option<(u64, u64)>,
}

impl Query {
    /// Full history of one address.
    pub fn address(addr: Addr) -> Self {
        Query {
            targets: vec![addr],
            batch: false,
            range: None,
        }
    }

    /// Histories of several addresses in one round trip.
    pub fn batch(addrs: Vec<Addr>) -> Self {
        Query {
            targets: addrs,
            batch: true,
            range: None,
        }
    }

    /// The same query restricted to `lo..=hi`.
    pub fn over(mut self, lo: u64, hi: u64) -> Self {
        self.range = Some((lo, hi));
        self
    }

    fn spec(&self) -> QuerySpec {
        let spec = if self.batch {
            QuerySpec::addresses(self.targets.clone())
        } else {
            QuerySpec::address(self.targets[0].clone())
        };
        match self.range {
            Some((lo, hi)) => spec.range(lo, hi),
            None => spec,
        }
    }

    fn message(&self) -> Message {
        if self.batch {
            Message::BatchQueryRequest {
                addresses: self.targets.clone(),
                range: self.range,
            }
        } else {
            Message::QueryRequest {
                address: self.targets[0].clone(),
                range: self.range,
            }
        }
    }

    /// The v1-encoded request bytes (`Encodable::encode`).
    pub fn encode(&self) -> Vec<u8> {
        self.message().encode()
    }
}

/// Why one request did not end in a verified history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The server shed the request with `Busy`.
    Busy,
    /// The server withheld the reply after its deadline.
    Deadline,
    /// The reply decoded but failed verification.
    Verify(String),
    /// Anything else: I/O, framing, decode, unexpected message.
    Wire(String),
}

/// So that `?` carries a fault out of a set-up or trace step, where any
/// fault ends the run.
impl From<Fault> for String {
    fn from(fault: Fault) -> Self {
        format!("{fault:?}")
    }
}

impl From<NodeError> for Fault {
    fn from(e: NodeError) -> Self {
        match &e {
            NodeError::Busy => Fault::Busy,
            NodeError::Server(w) if w.code == WireErrorCode::DeadlineExceeded => Fault::Deadline,
            _ if e.is_verification_failure() => Fault::Verify(e.to_string()),
            _ => Fault::Wire(e.to_string()),
        }
    }
}

/// A verified answer: one history per target plus the response payload
/// bytes that crossed the wire (the paper's metric).
pub struct Answer {
    /// One verified history per query target.
    pub histories: Vec<History>,
    /// Response payload bytes.
    pub response_bytes: u64,
}

// ---------------------------------------------------------------------
// Serving nodes
// ---------------------------------------------------------------------

/// Anything that answers encoded requests with encoded replies.
pub trait Peer: Sync {
    /// `FullNode::handle` (or `LiveNode::handle_classified`).
    fn handle(&self, request: &[u8]) -> Vec<u8>;
}

/// A full node over an in-memory chain.
pub struct MemNode {
    full: Arc<FullNode>,
}

impl MemNode {
    /// `FullNode::new`.
    pub fn new(built: Built) -> Self {
        MemNode {
            full: Arc::new(FullNode::new(built.chain).expect("LVQ chain")),
        }
    }

    /// Layer-level access to the chain for the traced run.
    pub fn chain(&self) -> ChainRef<'_> {
        ChainRef::Mem(self.full.chain())
    }

    /// `NodeServer::bind` on a loopback port.
    pub fn serve_tcp(&self, tuning: ServerTuning) -> Server {
        let server = NodeServer::bind(Arc::clone(&self.full), "127.0.0.1:0", tuning.config())
            .expect("loopback bind");
        Server {
            inner: ServerInner::Mem(server),
        }
    }
}

impl Peer for MemNode {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        self.full.handle(request).expect("handle is infallible")
    }
}

/// Cache budgets applied to a store-backed chain.
#[derive(Debug, Clone, Copy)]
pub struct Budgets {
    /// `StoreConfig.cache_bytes`: decoded-block LRU.
    pub block_cache: usize,
    /// Span-filter memo cache.
    pub filter_cache: usize,
    /// Per-block SMT memo cache.
    pub smt_cache: usize,
    /// Index node LRU.
    pub index_nodes: usize,
}

/// What `open_chain_indexed` found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexOpen {
    /// No usable index: it was built from the blocks.
    Built,
    /// Point reads only.
    Intact,
    /// The index lagged the store and was caught up.
    CaughtUp,
}

fn open_indexed(
    dir: &Path,
    budgets: Option<Budgets>,
) -> Result<(lvq_store::IndexedChain, IndexOpen), String> {
    let mut config = StoreConfig::default();
    if let Some(b) = budgets {
        config.cache_bytes = b.block_cache;
    }
    let (mut chain, report) = open_chain_indexed(dir, config).map_err(|e| e.to_string())?;
    if let Some(b) = budgets {
        chain.set_cache_config(
            CacheConfig::new(b.filter_cache, b.smt_cache)
                .with_index_node_cache_bytes(b.index_nodes),
        );
    }
    let how = match report.addr_index {
        AddrIndexRecovery::Intact => IndexOpen::Intact,
        AddrIndexRecovery::CaughtUp { .. } => IndexOpen::CaughtUp,
        _ => IndexOpen::Built,
    };
    Ok((chain, how))
}

/// A full node serving from a block store through the persistent
/// address index.
pub struct DiskNode {
    full: DiskFull,
}

impl DiskNode {
    /// `open_chain_indexed` (+ `set_cache_config` when budgets are
    /// given) + `FullNode::new`.
    pub fn open(dir: &Path, budgets: Option<Budgets>) -> Result<(Self, IndexOpen), String> {
        let (chain, how) = open_indexed(dir, budgets)?;
        let full = FullNode::new(chain).map_err(|e| e.to_string())?;
        Ok((DiskNode { full }, how))
    }

    /// Layer-level access to the chain for the traced run.
    pub fn chain(&self) -> ChainRef<'_> {
        ChainRef::Disk(self.full.chain())
    }

    /// `(index node log bytes, store segment bytes)`.
    pub fn index_and_block_bytes(&self) -> (u64, u64) {
        let chain = self.full.chain();
        (
            chain.tables().data_bytes(),
            chain.source().store().data_bytes(),
        )
    }
}

impl Peer for DiskNode {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        self.full.handle(request).expect("handle is infallible")
    }
}

/// `open_chain` (full derived-state replay, no index): only timed.
pub fn open_replay(dir: &Path) -> Result<u64, String> {
    let (chain, _) = open_chain(dir, StoreConfig::default()).map_err(|e| e.to_string())?;
    Ok(chain.tip_height())
}

/// A live node: a store-backed indexed chain behind `LiveNode`'s
/// reader-writer lock, growing while it serves.
pub struct LiveDisk {
    live: Arc<DiskLive>,
    store: Arc<BlockStore>,
}

impl LiveDisk {
    /// `open_chain_indexed` + `LiveNode::new`.
    pub fn open(dir: &Path) -> Result<Self, String> {
        let (chain, _) = open_indexed(dir, None)?;
        let store = Arc::clone(chain.source().store());
        let full = FullNode::new(chain).map_err(|e| e.to_string())?;
        Ok(LiveDisk {
            live: Arc::new(LiveNode::new(full)),
            store,
        })
    }

    /// The served tip height.
    pub fn tip(&self) -> u64 {
        self.live.tip_height()
    }

    /// Runs `f` on the chain under the node's read lock.
    pub fn with_chain<R>(&self, f: impl FnOnce(ChainRef<'_>) -> R) -> R {
        self.live.with_node(|node| f(ChainRef::Disk(node.chain())))
    }

    /// `(index node log bytes, store segment bytes)`.
    pub fn index_and_block_bytes(&self) -> (u64, u64) {
        let index = self.live.with_node(|n| n.chain().tables().data_bytes());
        (index, self.store.data_bytes())
    }

    /// `NodeServer::bind` on a loopback port.
    pub fn serve_tcp(&self, tuning: ServerTuning) -> Server {
        let server = NodeServer::bind(Arc::clone(&self.live), "127.0.0.1:0", tuning.config())
            .expect("loopback bind");
        Server {
            inner: ServerInner::Live(server),
        }
    }

    /// `TipIngester::spawn` over a fully published `MemoryFeed` of
    /// `blocks` (height 1 first; the ingester resumes above the
    /// store's tip), absorbing `batch` blocks per write-lock hold.
    pub fn start_ingest(&self, blocks: Vec<Block>, batch: u64, seed: u64) -> Ingest {
        let feed = MemoryFeed::new(blocks);
        feed.publisher().publish_all();
        Ingest {
            handle: TipIngester::spawn(
                Arc::clone(&self.live),
                Arc::clone(&self.store),
                feed,
                IngestConfig::new()
                    .with_min_batch(batch)
                    .with_max_batch(batch)
                    .with_seed(seed),
            ),
        }
    }
}

impl Peer for LiveDisk {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        lvq_node::ServeNode::handle_classified(&*self.live, request).bytes
    }
}

/// A running `TipIngester`.
pub struct Ingest {
    handle: IngestHandle,
}

/// `IngestStats`, the fields the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestCounts {
    /// Blocks appended by this ingester.
    pub appended: u64,
    /// Store tip after the last batch.
    pub tip: u64,
    /// The feed had nothing more on the last fetch.
    pub caught_up: bool,
    /// Batches absorbed.
    pub batches: u64,
    /// Transient feed failures retried.
    pub retries: u64,
}

impl From<lvq_node::IngestStats> for IngestCounts {
    fn from(s: lvq_node::IngestStats) -> Self {
        IngestCounts {
            appended: s.blocks_appended,
            tip: s.tip_height,
            caught_up: s.caught_up,
            batches: s.batches,
            retries: s.retries,
        }
    }
}

impl Ingest {
    /// `IngestHandle::stats`.
    pub fn counts(&self) -> IngestCounts {
        self.handle.stats().into()
    }

    /// `IngestHandle::stop`: joins the ingest thread.
    pub fn stop(self) -> Result<IngestCounts, String> {
        Ok(self.handle.stop().map_err(|e| e.to_string())?.into())
    }
}

// ---------------------------------------------------------------------
// TCP serving
// ---------------------------------------------------------------------

/// The server knobs the benchmark sets; everything else is
/// `ServerConfig::default()`.
#[derive(Debug, Clone, Copy)]
pub struct ServerTuning {
    /// Proof-worker threads.
    pub workers: usize,
    /// Dispatch-queue bound and per-connection in-flight cap: sized
    /// above the largest backlog an open-loop phase can build, so the
    /// server never sheds for depth.
    pub depth: u32,
}

impl ServerTuning {
    fn config(self) -> ServerConfig {
        ServerConfig::default()
            .with_workers(self.workers)
            .with_accept_queue(self.depth as usize)
            .with_max_in_flight(self.depth)
    }
}

enum ServerInner {
    Mem(NodeServer<FullNode>),
    Live(NodeServer<DiskLive>),
}

/// A running `NodeServer`.
pub struct Server {
    inner: ServerInner,
}

/// `ServerStats`, the fields the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounts {
    /// Requests shed with `Busy`.
    pub busy: u64,
    /// High-water mark of the dispatch queue.
    pub queue_highwater: u64,
    /// High-water mark of in-flight requests on one v2 connection.
    pub pipelined_depth_highwater: u64,
    /// Server-side latency digest, median.
    pub p50_us: u64,
    /// Server-side latency digest, 99th percentile.
    pub p99_us: u64,
}

impl From<ServerStats> for ServerCounts {
    fn from(s: ServerStats) -> Self {
        ServerCounts {
            busy: s.busy,
            queue_highwater: s.queue_highwater,
            pipelined_depth_highwater: s.pipelined_depth_highwater,
            p50_us: s.latency.p50_us,
            p99_us: s.latency.p99_us,
        }
    }
}

impl Server {
    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        match &self.inner {
            ServerInner::Mem(s) => s.local_addr(),
            ServerInner::Live(s) => s.local_addr(),
        }
    }

    /// `NodeServer::shutdown`: drains, joins every server thread and
    /// returns the final counters.
    pub fn shutdown(self) -> ServerCounts {
        match self.inner {
            ServerInner::Mem(s) => s.shutdown().into(),
            ServerInner::Live(s) => s.shutdown().into(),
        }
    }
}

// ---------------------------------------------------------------------
// Light side
// ---------------------------------------------------------------------

/// A `Transport` to one peer: in-process (`LocalTransport`) or a v1
/// one-in-flight loopback socket (`TcpTransport`).
pub struct Wire<'a> {
    transport: Box<dyn Transport + Send + 'a>,
}

impl<'a> Wire<'a> {
    /// `LocalTransport::new` over `peer`.
    pub fn local(peer: &'a dyn Peer) -> Self {
        let handler =
            move |request: &[u8]| -> Result<Vec<u8>, NodeError> { Ok(peer.handle(request)) };
        Wire {
            transport: Box::new(LocalTransport::new(handler)),
        }
    }

    /// `TcpTransport::connect`.
    pub fn tcp(addr: SocketAddr) -> Result<Wire<'static>, Fault> {
        Ok(Wire {
            transport: Box::new(TcpTransport::connect(addr)?),
        })
    }
}

/// A light node: headers plus the verification engine.
pub struct Light {
    node: LightNode,
}

impl Light {
    /// `LightNode::sync_from`: the header download.
    pub fn sync(wire: &mut Wire<'_>, config: Config) -> Result<Self, Fault> {
        Ok(Light {
            node: LightNode::sync_from(&mut *wire.transport, config)?,
        })
    }

    /// The client's own tip height.
    pub fn tip(&self) -> u64 {
        self.node.client().tip_height()
    }

    /// `LightNode::run`: request, reply, decode, verify.
    pub fn run(&mut self, query: &Query, wire: &mut Wire<'_>) -> Result<Answer, Fault> {
        let run = self.node.run(&query.spec(), &mut *wire.transport)?;
        Ok(Answer {
            histories: run.histories.into_iter().map(|h| h.transactions).collect(),
            response_bytes: run.traffic.response_bytes,
        })
    }

    /// `LightNode::sync_new`: incremental header sync. Returns the
    /// number of headers gained.
    pub fn sync_new(&mut self, wire: &mut Wire<'_>) -> Result<u64, Fault> {
        Ok(self.node.sync_new(&mut *wire.transport)?.new_headers())
    }

    /// A copy of the verification engine, for verifying replies read
    /// off a pipelined connection by hand.
    pub fn verifier(&self) -> Verifier {
        Verifier {
            client: self.node.client().clone(),
        }
    }
}

/// A decoded reply message, not yet verified.
pub struct Decoded {
    message: Message,
}

/// `decode_exact::<Message>` on v1 reply bytes.
pub fn decode_reply(reply: &[u8]) -> Result<Decoded, Fault> {
    match decode_exact::<Message>(reply) {
        Ok(Message::Busy) => Err(Fault::Busy),
        Ok(Message::Error(e)) if e.code == WireErrorCode::DeadlineExceeded => Err(Fault::Deadline),
        Ok(Message::Error(e)) => Err(Fault::Wire(e.to_string())),
        Ok(message) => Ok(Decoded { message }),
        Err(e) => Err(Fault::Wire(e.to_string())),
    }
}

/// `LightClient` with the headers a [`Light`] synced.
pub struct Verifier {
    client: LightClient,
}

impl Verifier {
    /// `LightClient::{verify, verify_range, verify_batch,
    /// verify_batch_range}`, chosen by the query's shape.
    pub fn verify(&self, query: &Query, decoded: &Decoded) -> Result<Vec<History>, Fault> {
        let verify_error = |e: lvq_core::QueryError| Fault::Verify(e.to_string());
        let histories = match (&decoded.message, query.batch) {
            (Message::QueryResponse(response), false) => {
                let addr = &query.targets[0];
                vec![match query.range {
                    None => self.client.verify(addr, response),
                    Some((lo, hi)) => self.client.verify_range(addr, lo, hi, response),
                }
                .map_err(verify_error)?]
            }
            (Message::BatchQueryResponse(response), true) => match query.range {
                None => self.client.verify_batch(&query.targets, response),
                Some((lo, hi)) => self
                    .client
                    .verify_batch_range(&query.targets, lo, hi, response),
            }
            .map_err(verify_error)?,
            _ => return Err(Fault::Wire("unexpected message kind".into())),
        };
        Ok(histories.into_iter().map(|h| h.transactions).collect())
    }

    /// Decode then verify: what the light side does with reply bytes.
    pub fn check(&self, query: &Query, reply: &[u8]) -> Result<Vec<History>, Fault> {
        self.verify(query, &decode_reply(reply)?)
    }
}

/// The reader half of one v2 pipelined loopback connection.
pub struct PipeConn {
    stream: TcpStream,
}

/// The writer half (a clone of the same socket).
pub struct PipeWriter {
    stream: TcpStream,
}

impl PipeConn {
    /// Dials `addr` and negotiates a v2 window of `window` requests
    /// with a `Hello` under request id 0.
    pub fn connect(addr: SocketAddr, window: u32) -> Result<Self, Fault> {
        let wire = |e: std::io::Error| Fault::Wire(e.to_string());
        let mut stream = TcpStream::connect(addr).map_err(wire)?;
        stream.set_nodelay(true).map_err(wire)?;
        // A lost reply must end the run with an error, not hang it.
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(60)))
            .map_err(wire)?;
        let hello = envelope::encode_v2(
            &Message::Hello(HelloInfo {
                max_in_flight: window,
                features: 0,
            }),
            0,
        );
        write_frame(&mut stream, &hello)?;
        let ack = read_frame(&mut stream, MAX_FRAME_LEN)?;
        match envelope::unwrap_v2(&ack).map(|(id, v1)| (id, decode_exact::<Message>(&v1))) {
            Some((0, Ok(Message::HelloAck(info)))) if info.max_in_flight >= window => {
                Ok(PipeConn { stream })
            }
            other => Err(Fault::Wire(format!("handshake refused: {other:?}"))),
        }
    }

    /// A writer over a clone of the socket, for the submitting thread.
    pub fn writer(&self) -> Result<PipeWriter, Fault> {
        Ok(PipeWriter {
            stream: self
                .stream
                .try_clone()
                .map_err(|e| Fault::Wire(e.to_string()))?,
        })
    }

    /// `read_frame` + `envelope::unwrap_v2`: the next reply's request
    /// id and its v1 payload.
    pub fn recv(&mut self) -> Result<(u64, Vec<u8>), Fault> {
        let frame = read_frame(&mut self.stream, MAX_FRAME_LEN)?;
        envelope::unwrap_v2(&frame).ok_or_else(|| Fault::Wire("reply is not v2".into()))
    }
}

impl PipeWriter {
    /// `envelope::wrap_v2` + `write_frame`.
    pub fn send(&mut self, v1_request: &[u8], id: u64) -> Result<(), Fault> {
        Ok(write_frame(
            &mut self.stream,
            &envelope::wrap_v2(v1_request, id),
        )?)
    }
}

// ---------------------------------------------------------------------
// Layer-level calls for the traced run
// ---------------------------------------------------------------------

/// A borrowed chain of either backing, for calls into single layers.
#[derive(Clone, Copy)]
pub enum ChainRef<'a> {
    /// In-memory blocks and tables.
    Mem(&'a Chain),
    /// Store-backed blocks, index-backed tables.
    Disk(&'a lvq_store::IndexedChain),
}

macro_rules! on_chain {
    ($self:expr, $chain:ident => $body:expr) => {
        match $self {
            ChainRef::Mem($chain) => $body,
            ChainRef::Disk($chain) => $body,
        }
    };
}

/// `(hits, misses)` of the chain-side caches.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounts {
    /// Span-filter memo cache.
    pub filters: (u64, u64),
    /// Per-block SMT memo cache.
    pub smts: (u64, u64),
    /// Decoded-block LRU (zero for in-memory blocks).
    pub blocks: (u64, u64),
    /// Index node LRU (zero for in-memory tables).
    pub index_nodes: (u64, u64),
}

impl From<ChainCacheStats> for CacheCounts {
    fn from(s: ChainCacheStats) -> Self {
        CacheCounts {
            filters: (s.filters.hits, s.filters.misses),
            smts: (s.smts.hits, s.smts.misses),
            blocks: (s.blocks.hits, s.blocks.misses),
            index_nodes: (s.index_nodes.hits, s.index_nodes.misses),
        }
    }
}

/// A proof fresh from the prover, before encoding.
pub enum Proved {
    /// `Prover::respond` / `respond_range`.
    Single(QueryResponse),
    /// `Prover::respond_batch` / `respond_batch_range`.
    Batch(BatchQueryResponse),
}

/// `ProverStats`, the counts the benchmark reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProofCounts {
    /// BMT endpoint nodes across all segment proofs.
    pub bmt_endpoints: u64,
    /// Blocks whose bodies were consulted.
    pub blocks_resolved: u64,
    /// Of those, false-positive matches.
    pub fpm_blocks: u64,
}

impl Proved {
    /// `Message::{QueryResponse, BatchQueryResponse}(..).encode()`:
    /// the v1 reply bytes.
    pub fn encode(self) -> Vec<u8> {
        match self {
            Proved::Single(r) => Message::QueryResponse(Box::new(r)).encode(),
            Proved::Batch(r) => Message::BatchQueryResponse(Box::new(r)).encode(),
        }
    }

    /// Heights whose block bodies a single-address proof resolved
    /// (empty for batch proofs, whose descents are shared).
    pub fn resolved_heights(&self) -> Vec<u64> {
        match self {
            Proved::Single(QueryResponse::Segmented(r)) => r
                .segments
                .iter()
                .flat_map(|bundle| bundle.fragments.iter())
                .filter(|(_, fragment)| !matches!(fragment, BlockFragment::Empty))
                .map(|(height, _)| *height)
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// `Message::decode_classified`: the server's request decode.
pub fn decode_request(request: &[u8]) -> bool {
    Message::decode_classified(request).is_ok()
}

/// `lvq_crypto::sha256`.
pub fn sha256_of(data: &[u8]) -> [u8; 32] {
    sha256(data)
}

/// `Hash256::hash`.
pub fn hash256_of(data: &[u8]) -> [u8; 32] {
    *Hash256::hash(data).as_bytes()
}

/// A Bloom filter taken from a chain.
pub struct Filter {
    filter: BloomFilter,
}

impl Filter {
    /// `BloomFilter::check_positions(..).is_clean()`.
    pub fn is_clean(&self, positions: &[u64]) -> bool {
        self.filter.check_positions(positions).is_clean()
    }

    /// `BloomFilter::union_with`.
    pub fn union_with(&mut self, other: &Filter) {
        self.filter
            .union_with(&other.filter)
            .expect("filters of one chain share parameters");
    }

    /// The filter's bytes (input for the SHA-256 layer metric).
    pub fn bytes(&self) -> &[u8] {
        self.filter.as_bytes()
    }
}

/// `BloomFilter::bit_positions` for `addr` under `config`.
pub fn bit_positions(config: Config, addr: &Addr) -> Vec<u64> {
    BloomFilter::bit_positions(config.bloom(), addr.as_bytes())
}

fn prove_on<S: BlockSource, T: TableSource>(
    chain: &Chain<S, T>,
    query: &Query,
) -> Result<(Proved, ProofCounts), String> {
    let prover = Prover::from_chain(chain).map_err(|e| e.to_string())?;
    let (proved, stats) = if query.batch {
        let (response, stats) = match query.range {
            None => prover.respond_batch(&query.targets),
            Some((lo, hi)) => prover.respond_batch_range(&query.targets, lo, hi),
        }
        .map_err(|e| e.to_string())?;
        (Proved::Batch(response), stats)
    } else {
        let addr = &query.targets[0];
        let (response, stats) = match query.range {
            None => prover.respond(addr),
            Some((lo, hi)) => prover.respond_range(addr, lo, hi),
        }
        .map_err(|e| e.to_string())?;
        (Proved::Single(response), stats)
    };
    let counts = ProofCounts {
        bmt_endpoints: stats.bmt.endpoint_count() + stats.batch_bmt.endpoint_count(),
        blocks_resolved: stats.blocks_resolved,
        fpm_blocks: stats.fpm_blocks,
    };
    Ok((proved, counts))
}

impl ChainRef<'_> {
    /// Chain length.
    pub fn tip(&self) -> u64 {
        on_chain!(self, c => c.tip_height())
    }

    /// The chain's scheme configuration.
    pub fn config(&self) -> Config {
        on_chain!(self, c => SchemeConfig::from_chain_params(c.params()).expect("LVQ chain"))
    }

    /// `Prover::{respond, respond_range, respond_batch,
    /// respond_batch_range}`, chosen by the query's shape.
    pub fn prove(&self, query: &Query) -> Result<(Proved, ProofCounts), String> {
        on_chain!(self, c => prove_on(c, query))
    }

    /// The canonical segments a query over `1..=hi` intersects
    /// (`lvq_core::segments`), as `(lo, hi)` pairs.
    pub fn segments(&self, query: &Query) -> Vec<(u64, u64)> {
        let (lo, hi) = query.range.unwrap_or((1, self.tip()));
        segments(hi, self.config().segment_len())
            .into_iter()
            .filter(|s| s.hi >= lo)
            .map(|s| (s.lo, s.hi))
            .collect()
    }

    /// `Chain::segment_source` + `bmt::prove`; returns the proof's
    /// endpoint count.
    pub fn bmt_prove(&self, lo: u64, hi: u64, positions: &[u64]) -> u64 {
        on_chain!(self, c => {
            let source = c.segment_source(lo, hi).expect("canonical segment");
            let proof = bmt::prove(&source, positions).expect("honest chain");
            proof.stats().endpoint_count()
        })
    }

    /// `Chain::address_smt` + `SortedMerkleTree::prove`; returns the
    /// tree's leaf count.
    pub fn smt_prove(&self, height: u64, addr: &Addr) -> u64 {
        on_chain!(self, c => {
            let smt = c.address_smt(height).expect("height in range");
            std::hint::black_box(smt.prove(addr.as_bytes()));
            smt.leaf_count()
        })
    }

    /// `Chain::block`; returns the transaction count.
    pub fn block(&self, height: u64) -> usize {
        on_chain!(self, c => c.block(height).expect("height in range").transactions.len())
    }

    /// `Chain::addr_counts`: one table point read; returns the number
    /// of entries.
    pub fn addr_counts(&self, height: u64) -> usize {
        on_chain!(self, c => c.addr_counts(height).expect("height in range").len())
    }

    /// `Chain::span_filter`.
    pub fn span_filter(&self, lo: u64, hi: u64) -> Filter {
        on_chain!(self, c => Filter { filter: c.span_filter(lo, hi).expect("span in range") })
    }

    /// `Chain::clear_caches`.
    pub fn clear_caches(&self) {
        on_chain!(self, c => c.clear_caches())
    }

    /// `Chain::cache_stats`.
    pub fn cache_counts(&self) -> CacheCounts {
        on_chain!(self, c => c.cache_stats().into())
    }
}

/// `BlockStore::open` + `read_block` over every height: returns the
/// number of blocks read (only timed).
pub fn store_read_all(dir: &Path) -> Result<u64, String> {
    let (store, _) = BlockStore::open(dir, StoreConfig::default()).map_err(|e| e.to_string())?;
    for height in 1..=store.len() {
        std::hint::black_box(store.read_block(height).map_err(|e| e.to_string())?);
    }
    Ok(store.len())
}
