//! A readiness-loop TCP server around one shared [`FullNode`].
//!
//! One event-loop thread owns *every* connection: nonblocking sockets
//! are multiplexed with the vendored [`mio`] poll shim (epoll on
//! Linux), each connection keeps its own read buffer, decoded-frame
//! cursor, and write queue, and complete requests are dispatched to a
//! bounded pool of proof workers. Responses come back over a completion
//! channel tagged with `(connection, request id)` and are written when
//! the socket is writable — so one node holds tens of thousands of
//! mostly-idle light clients, and a slow proof on one connection never
//! head-of-line-blocks another connection.
//!
//! Protocol versions are negotiated per connection from the first
//! frame's version byte: a v2 client opens with [`Message::Hello`]
//! (answered with the negotiated in-flight cap) and may pipeline up to
//! that many requests, each tagged with a request id; a v1 client sends
//! no Hello and is served in one-in-flight compatibility mode — its
//! next frame is not even parsed until the previous response is
//! queued, so v1 traffic is byte-identical to the old worker-pool
//! server.
//!
//! Backpressure has two layers: a per-connection in-flight cap
//! (negotiated in Hello, [`ServerConfig::max_in_flight`]) answered
//! with [`Message::Busy`] per excess request, and the bounded dispatch
//! queue ([`ServerConfig::accept_queue`]) shed the same way when the
//! proof workers cannot keep up. Unlike the old server, `Busy` no
//! longer closes the connection — the client backs off and retries on
//! the same socket.
//!
//! Faults are split by layer exactly as before: payload-level faults
//! (bad version, unknown tag, malformed body, prover refusal,
//! duplicate request id) are answered with a structured
//! [`Message::Error`] and the connection stays open; frame-level
//! faults (oversized announcement, truncated frame, mid-frame stall)
//! still drop the connection, because a length-prefixed stream cannot
//! be resynchronised after a bad prefix.

use std::collections::{HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use lvq_codec::Encodable;
use mio::{Events, Interest, Poll, Token, Waker};

use crate::frame::MAX_FRAME_LEN;
use crate::full::{FullNode, Handled, RequestKind};
use crate::ingest::{IngestMonitor, IngestStats};
use crate::message::{envelope, HelloInfo, Message, NodeError, WireError, WireErrorCode};
use crate::supervise::{HealthCell, HealthState, Supervised, SupervisorConfig, TaskSpec, WorkCtx};

/// Supervision labels for the proof-worker pool.
const WORKER_SPEC: TaskSpec = TaskSpec {
    name: "lvq-proof-worker",
    restart_reason: "proof worker restarted after a crash",
    stall_reason: "proof worker stalled and was replaced",
    fail_reason: "proof worker died repeatedly; pool is short",
};

/// How often parked proof workers re-check the stop flag, and the
/// event-loop poll timeout (which paces the stall sweeps).
const STOP_POLL: Duration = Duration::from_millis(25);

/// Stall limit for a peer that goes silent in the middle of a frame: a
/// connection with a partial frame older than this is dropped. Idle
/// connections (no partial frame) are never timed out — holding many
/// idle light clients is the point.
const READ_STALL: Duration = Duration::from_millis(200);

/// Stall limit for a peer that stops draining its responses: a
/// connection whose write queue makes no progress for this long — plus
/// the drain allowance of [`MIN_DRAIN_BYTES_PER_SEC`] — is dropped.
const WRITE_STALL: Duration = Duration::from_millis(200);

/// Hard cap on the draining shutdown: if a proof is still running this
/// long after [`NodeServer::shutdown`], the loop stops waiting for it.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Readable interest is paused once a connection has buffered this
/// much unparsed request data beyond what its current frame needs —
/// TCP backpressure instead of unbounded memory for flooding peers.
const READ_PAUSE_BUFFER: usize = 1 << 20;

/// Slowest drain an honest reader is held to. A connection may go
/// without write progress for [`WRITE_STALL`] plus the time the
/// replies queued on it would take at this rate: a client sharing two
/// cores with a dozen others sits out a multi-MB reply for longer than
/// any constant that still drops a dead peer of a small one promptly.
/// Whole replies count, written part included — measured at paper
/// scale, such a client stalls as long with the last megabyte of a
/// reply outstanding as with the first.
const MIN_DRAIN_BYTES_PER_SEC: u64 = 4 << 20;

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
const TOKEN_BASE: usize = 2;

/// Something a [`NodeServer`] can put behind its proof-worker pool.
///
/// [`FullNode`] is the production implementation; experiment harnesses
/// and tests substitute adversarial nodes (e.g. a withholding peer for
/// the `repro quorum` experiment, or a gated prover for the
/// head-of-line-blocking test in `tests/pool.rs`).
pub trait ServeNode: Send + Sync + 'static {
    /// Classifies and handles one request; never fails (faults become
    /// encoded [`Message::Error`] responses). See
    /// [`FullNode::handle_classified`].
    fn handle_classified(&self, request: &[u8]) -> Handled;

    /// Hash of the node's current best-tip header, reported through
    /// [`ServerStats::tip_hash`] so operators can compare which branch
    /// each server ended on after a reorg. Test doubles that serve no
    /// real chain keep the [`lvq_crypto::Hash256::ZERO`] default.
    fn tip_hash(&self) -> lvq_crypto::Hash256 {
        lvq_crypto::Hash256::ZERO
    }
}

impl<S: lvq_chain::BlockSource + 'static, T: lvq_chain::TableSource + 'static> ServeNode
    for FullNode<S, T>
{
    fn handle_classified(&self, request: &[u8]) -> Handled {
        FullNode::handle_classified(self, request)
    }

    fn tip_hash(&self) -> lvq_crypto::Hash256 {
        self.chain().tip_hash()
    }
}

/// Tuning knobs for a [`NodeServer`].
///
/// Construct with [`ServerConfig::default`] (or [`ServerConfig::new`])
/// and chain `with_*` setters; the struct is `#[non_exhaustive]` so
/// new knobs can land without breaking callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Proof-worker threads in the pool; `0` means one per available
    /// CPU. Workers only run proofs — connections all live on the
    /// event loop — so this bounds CPU, not open connections.
    pub workers: usize,
    /// Bound of the dispatch queue between the event loop and the
    /// proof workers (minimum 1). Requests arriving while it is full
    /// are answered with [`Message::Busy`]; the connection stays open.
    pub accept_queue: usize,
    /// Per-request deadline, measured from frame parse to
    /// response-ready (queue wait included): when the response is
    /// ready only after this long, the server sends a small
    /// [`WireErrorCode::DeadlineExceeded`] error instead of the
    /// payload. `None` disables the deadline.
    pub request_deadline: Option<Duration>,
    /// Most requests one v2 connection may have in flight at once; the
    /// granted [`crate::HelloInfo::max_in_flight`] is
    /// `min(client proposal, this)`, at least 1. Excess requests are
    /// answered with [`Message::Busy`].
    pub max_in_flight: u32,
}

impl Default for ServerConfig {
    /// Auto-sized pool, 64-deep dispatch queue, no request deadline, 32
    /// in-flight requests per v2 connection.
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            accept_queue: 64,
            request_deadline: None,
            max_in_flight: crate::full::DEFAULT_MAX_IN_FLIGHT,
        }
    }
}

impl ServerConfig {
    /// Alias for [`ServerConfig::default`], reading better at the head
    /// of a `with_*` chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the proof-worker count (`0` = one per available CPU).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the dispatch-queue bound.
    #[must_use]
    pub fn with_accept_queue(mut self, accept_queue: usize) -> Self {
        self.accept_queue = accept_queue;
        self
    }

    /// Sets (or clears) the per-request deadline.
    #[must_use]
    pub fn with_request_deadline(mut self, request_deadline: Option<Duration>) -> Self {
        self.request_deadline = request_deadline;
        self
    }

    /// Sets the per-connection in-flight cap granted to v2 clients.
    #[must_use]
    pub fn with_max_in_flight(mut self, max_in_flight: u32) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// The pool width this configuration resolves to: `workers`, or
    /// one per available CPU when `workers` is zero.
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.workers
        }
    }
}

/// Requests answered, broken down by request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestCounters {
    /// [`Message::GetHeaders`] requests.
    pub get_headers: u64,
    /// [`Message::GetHeadersFrom`] requests.
    pub get_headers_from: u64,
    /// Single-address [`Message::QueryRequest`]s.
    pub queries: u64,
    /// [`Message::BatchQueryRequest`]s.
    pub batch_queries: u64,
    /// [`Message::Hello`] negotiations (answered inline by the event
    /// loop; counted here but not in [`ServerStats::requests`] or the
    /// latency digest, which track proof work).
    pub hello: u64,
    /// Payloads that never classified as a request (bad version,
    /// unknown tag, malformed body, response-kind message, duplicate
    /// request id).
    pub invalid: u64,
}

impl RequestCounters {
    /// All requests read off the wire, valid or not.
    pub fn total(&self) -> u64 {
        self.get_headers
            + self.get_headers_from
            + self.queries
            + self.batch_queries
            + self.hello
            + self.invalid
    }
}

/// A digest of the request-latency histogram, in microseconds from
/// frame-parse completion to response-ready (proof-worker queue wait
/// included). Only successfully answered requests are recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Requests recorded.
    pub count: u64,
    /// Mean latency.
    pub mean_us: u64,
    /// Median latency (log₂-bucket interpolation).
    pub p50_us: u64,
    /// 95th-percentile latency.
    pub p95_us: u64,
    /// 99th-percentile latency.
    pub p99_us: u64,
    /// Exact maximum latency.
    pub max_us: u64,
}

/// Point-in-time counters of a running (or stopped) server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Connections currently open (a gauge, not a counter).
    pub connections_open: u64,
    /// Requests answered successfully.
    pub requests: u64,
    /// Requests handed to the proof-worker pool — counted at dispatch
    /// time, so it runs ahead of [`ServerStats::requests`] by exactly
    /// the work still queued or executing.
    pub dispatched: u64,
    /// Faulty exchanges: structured [`Message::Error`] responses plus
    /// connections dropped on frame-level faults (malformed prefix,
    /// oversized announcement, mid-frame disconnect or stall, write
    /// failure, a response whose connection vanished first).
    pub errors: u64,
    /// Request payload bytes received (framing excluded).
    pub request_bytes: u64,
    /// Response payload bytes sent (framing excluded).
    pub response_bytes: u64,
    /// Requests shed with [`Message::Busy`]: the dispatch queue was
    /// full or the connection exceeded its in-flight cap. The
    /// connection stays open.
    pub busy: u64,
    /// Requests whose response was ready only after the per-request
    /// deadline and was therefore replaced with a
    /// [`WireErrorCode::DeadlineExceeded`] error.
    pub deadline_misses: u64,
    /// High-water mark of requests waiting in the dispatch queue.
    pub queue_highwater: u64,
    /// High-water mark of in-flight pipelined requests on any single
    /// v2 connection.
    pub pipelined_depth_highwater: u64,
    /// Proof-worker threads in the pool.
    pub workers: u64,
    /// Requests broken down by kind.
    pub by_kind: RequestCounters,
    /// Latency digest of successfully answered requests.
    pub latency: LatencySummary,
    /// Counters of the ingest pipeline growing the served chain, when
    /// one is attached ([`NodeServer::attach_ingest`]); all zeros for a
    /// frozen-chain server.
    pub ingest: IngestStats,
    /// Hash of the node's best-tip header at snapshot time — which
    /// branch this server is on ([`ServeNode::tip_hash`]);
    /// [`lvq_crypto::Hash256::ZERO`] for nodes that serve no chain.
    pub tip_hash: lvq_crypto::Hash256,
    /// Worst health observed across the server's supervised parts:
    /// the request handlers (a panicked request degrades this without
    /// killing the process), the proof-worker pool, and any watched
    /// external cells ([`NodeServer::watch_health`], e.g. a supervised
    /// ingest pipeline).
    pub health: HealthState,
    /// Requests whose handler panicked; each was answered with a
    /// structured [`WireErrorCode::Internal`] error while the process
    /// kept serving.
    pub panicked_requests: u64,
    /// Proof-worker restarts performed by the supervisor (panics
    /// outside a request, plus stalled workers the watchdog replaced).
    pub worker_restarts: u64,
}

/// Lock-free log₂-bucketed histogram of microsecond latencies.
///
/// Bucket 0 holds exactly 0 µs; bucket `i ≥ 1` holds `[2^(i-1), 2^i)`.
/// Percentiles interpolate linearly inside the hit bucket, and the
/// exact maximum is tracked separately, so tail estimates never exceed
/// an observed value.
#[derive(Debug)]
struct LatencyHistogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl LatencyHistogram {
    fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    fn bucket_of(us: u64) -> usize {
        (u64::BITS - us.leading_zeros()) as usize
    }

    fn record(&self, us: u64) {
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    fn summary(&self) -> LatencySummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let max_us = self.max_us.load(Ordering::Relaxed);
        if count == 0 {
            return LatencySummary::default();
        }
        let percentile = |p: f64| -> u64 {
            let target = ((p * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if seen + c >= target {
                    let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                    let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                    let within = (target - seen) as f64 / c as f64;
                    let estimate = lower + ((upper - lower) as f64 * within) as u64;
                    return estimate.min(max_us);
                }
                seen += c;
            }
            max_us
        };
        LatencySummary {
            count,
            mean_us: self.sum_us.load(Ordering::Relaxed) / count,
            p50_us: percentile(0.50),
            p95_us: percentile(0.95),
            p99_us: percentile(0.99),
            max_us,
        }
    }
}

#[derive(Debug)]
struct Shared<P> {
    node: Arc<P>,
    config: ServerConfig,
    pool_size: usize,
    stop: AtomicBool,
    connections: AtomicU64,
    connections_open: AtomicU64,
    requests: AtomicU64,
    dispatched: AtomicU64,
    errors: AtomicU64,
    request_bytes: AtomicU64,
    response_bytes: AtomicU64,
    busy: AtomicU64,
    deadline_misses: AtomicU64,
    queue_highwater: AtomicU64,
    pipelined_depth_highwater: AtomicU64,
    /// One counter per [`RequestKind`], indexed by `kind_index`.
    by_kind: [AtomicU64; 6],
    latency: LatencyHistogram,
    /// Counters of an attached ingest pipeline, if any.
    ingest: parking_lot::Mutex<Option<IngestMonitor>>,
    /// Requests whose handler panicked (answered with
    /// [`WireErrorCode::Internal`]).
    panicked_requests: AtomicU64,
    /// Proof-worker restarts, shared with every worker's supervisor.
    worker_restarts: Arc<AtomicU64>,
    /// Health of the request handlers: degraded by a panicked request.
    health: HealthCell,
    /// Further health cells merged into [`ServerStats::health`]: one
    /// per supervised proof worker, plus externally watched cells.
    watched: parking_lot::Mutex<Vec<HealthCell>>,
}

fn kind_index(kind: RequestKind) -> usize {
    match kind {
        RequestKind::GetHeaders => 0,
        RequestKind::GetHeadersFrom => 1,
        RequestKind::Query => 2,
        RequestKind::BatchQuery => 3,
        RequestKind::Hello => 4,
        RequestKind::Invalid => 5,
    }
}

impl<P: ServeNode> Shared<P> {
    fn stats(&self) -> ServerStats {
        let kind = |k: RequestKind| self.by_kind[kind_index(k)].load(Ordering::Relaxed);
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            dispatched: self.dispatched.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            request_bytes: self.request_bytes.load(Ordering::Relaxed),
            response_bytes: self.response_bytes.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            queue_highwater: self.queue_highwater.load(Ordering::Relaxed),
            pipelined_depth_highwater: self.pipelined_depth_highwater.load(Ordering::Relaxed),
            workers: self.pool_size as u64,
            by_kind: RequestCounters {
                get_headers: kind(RequestKind::GetHeaders),
                get_headers_from: kind(RequestKind::GetHeadersFrom),
                queries: kind(RequestKind::Query),
                batch_queries: kind(RequestKind::BatchQuery),
                hello: kind(RequestKind::Hello),
                invalid: kind(RequestKind::Invalid),
            },
            latency: self.latency.summary(),
            ingest: self
                .ingest
                .lock()
                .as_ref()
                .map(IngestMonitor::snapshot)
                .unwrap_or_default(),
            tip_hash: self.node.tip_hash(),
            health: {
                let mut health = self.health.get();
                for cell in self.watched.lock().iter() {
                    health = health.merge(cell.get());
                }
                health
            },
            panicked_requests: self.panicked_requests.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
        }
    }
}

/// One request handed to the proof-worker pool.
struct Job {
    conn: usize,
    gen: u64,
    payload: Vec<u8>,
    received: Instant,
}

/// One finished response routed back to the event loop.
struct Completion {
    conn: usize,
    gen: u64,
    kind: RequestKind,
    bytes: Vec<u8>,
    error: Option<WireErrorCode>,
    elapsed: Duration,
    /// The v2 request id, for releasing the connection's in-flight slot.
    id: Option<u64>,
}

/// Per-connection protocol mode, decided by the first frame's version
/// byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No frame seen yet.
    Unknown,
    /// v1 compatibility: strictly one request in flight; the next
    /// frame is not parsed until the previous response is queued, so
    /// responses are naturally in order.
    V1,
    /// v2 pipelining with the negotiated in-flight cap (1 until a
    /// `Hello` arrives).
    V2 {
        /// The granted in-flight cap.
        cap: u32,
    },
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// Guards stale completions after this slot is closed and reused.
    gen: u64,
    mode: Mode,
    /// Unparsed request bytes.
    read_buf: Vec<u8>,
    /// Queued response frames (header + payload), partially written
    /// front first.
    out: VecDeque<Vec<u8>>,
    /// Bytes of `out.front()` already written.
    out_head: usize,
    /// Requests currently at the proof workers.
    dispatched: usize,
    /// v2 request ids currently in flight.
    in_flight: HashSet<u64>,
    /// Peer sent EOF; serve what was read, then close.
    read_closed: bool,
    /// Last time a read made progress while a partial frame was
    /// pending (stall detection).
    read_progress: Instant,
    /// Last time a write made progress while responses were queued.
    write_progress: Instant,
    /// The interest currently registered with the poll.
    registered: Option<Interest>,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Conn {
            stream,
            gen: 0,
            mode: Mode::Unknown,
            read_buf: Vec::new(),
            out: VecDeque::new(),
            out_head: 0,
            dispatched: 0,
            in_flight: HashSet::new(),
            read_closed: false,
            read_progress: now,
            write_progress: now,
            registered: None,
        }
    }

    /// Whether frame parsing should wait: a v1 connection serves
    /// strictly one request at a time.
    fn parse_gated(&self) -> bool {
        matches!(self.mode, Mode::V1) && (self.dispatched > 0 || !self.out.is_empty())
    }

    /// How long the replies queued for this peer would take at
    /// [`MIN_DRAIN_BYTES_PER_SEC`].
    fn drain_allowance(&self) -> Duration {
        let queued = self.out.iter().map(Vec::len).sum::<usize>() as u64;
        Duration::from_micros(queued.saturating_mul(1_000_000) / MIN_DRAIN_BYTES_PER_SEC)
    }

    /// The interest this connection currently wants: readable unless
    /// the peer closed or the buffer is over the pause threshold,
    /// writable while responses are queued.
    fn wanted_interest(&self) -> Option<Interest> {
        let read = !self.read_closed && self.read_buf.len() < READ_PAUSE_BUFFER;
        let write = !self.out.is_empty();
        match (read, write) {
            (true, true) => Some(Interest::READABLE.add(Interest::WRITABLE)),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        }
    }
}

/// What `parse_frame` found at the front of a read buffer.
enum Parsed {
    /// A complete frame; the buffer was advanced past it.
    Frame(Vec<u8>),
    /// Not enough bytes yet.
    NeedMore,
    /// The length prefix announces a frame over the limit.
    TooLarge,
}

fn next_gen() -> u64 {
    static GEN: AtomicU64 = AtomicU64::new(1);
    GEN.fetch_add(1, Ordering::Relaxed)
}

/// Decodes a v2 `Hello`, if that is what the payload is.
fn decode_hello(payload: &[u8]) -> Option<(u64, HelloInfo)> {
    if !envelope::is_hello(payload) {
        return None;
    }
    let (id, v1) = envelope::unwrap_v2(payload)?;
    match Message::decode_classified(&v1) {
        Ok(Message::Hello(hello)) => Some((id, hello)),
        // A malformed Hello body: dispatch it for the structured
        // Malformed refusal instead.
        _ => None,
    }
}

fn parse_frame(buf: &mut Vec<u8>) -> Parsed {
    if buf.len() < 4 {
        return Parsed::NeedMore;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_FRAME_LEN {
        return Parsed::TooLarge;
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Parsed::NeedMore;
    }
    let payload = buf[4..total].to_vec();
    buf.drain(..total);
    Parsed::Frame(payload)
}

/// A running TCP query server: one readiness loop owning every
/// connection, backed by a bounded proof-worker pool.
///
/// Created with [`NodeServer::bind`]; serves until [`shutdown`]
/// (graceful: dispatched requests complete, every thread joins) or
/// drop (same, implicitly). Generic over the served node so experiment
/// harnesses can stand up adversarial peers; defaults to [`FullNode`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use lvq_bloom::BloomParams;
/// use lvq_chain::{Address, ChainBuilder, Transaction};
/// use lvq_core::{Scheme, SchemeConfig};
/// use lvq_node::{FullNode, LightNode, NodeServer, QuerySpec, ServerConfig, TcpTransport};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = SchemeConfig::new(Scheme::Lvq, BloomParams::new(128, 2)?, 4)?;
/// let mut builder = ChainBuilder::new(config.chain_params())?;
/// builder.push_block(vec![Transaction::coinbase(Address::new("1Miner"), 50, 1)])?;
/// let full = Arc::new(FullNode::new(builder.finish())?);
///
/// let server = NodeServer::bind(full, "127.0.0.1:0", ServerConfig::default())?;
/// let mut peer = TcpTransport::connect(server.local_addr())?;
/// let mut light = LightNode::sync_from(&mut peer, config)?;
/// let run = light.run(&QuerySpec::address(Address::new("1Miner")), &mut peer)?;
/// assert_eq!(run.histories[0].transactions.len(), 1);
/// drop(peer);
/// let stats = server.shutdown();
/// assert_eq!(stats.requests, 2); // headers + query
/// assert_eq!(stats.by_kind.get_headers, 1);
/// assert_eq!(stats.by_kind.queries, 1);
/// assert_eq!(stats.latency.count, 2);
/// # Ok(())
/// # }
/// ```
///
/// [`shutdown`]: NodeServer::shutdown
#[derive(Debug)]
pub struct NodeServer<P: ServeNode = FullNode> {
    shared: Arc<Shared<P>>,
    local_addr: SocketAddr,
    waker: Arc<Waker>,
    loop_thread: Option<JoinHandle<()>>,
    workers: Vec<Supervised>,
}

impl<P: ServeNode> NodeServer<P> {
    /// Binds `addr` (use port 0 for an OS-assigned port, then
    /// [`NodeServer::local_addr`]), spawns the event loop and the
    /// proof-worker pool, and starts accepting.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::Io`] if the listener or the readiness
    /// selector cannot be set up.
    pub fn bind(
        node: Arc<P>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<Self, NodeError> {
        let bind_err = |context: &'static str| {
            move |e: std::io::Error| NodeError::Io {
                context,
                kind: e.kind(),
            }
        };
        let listener = TcpListener::bind(addr).map_err(bind_err("bind"))?;
        listener.set_nonblocking(true).map_err(bind_err("bind"))?;
        let local_addr = listener.local_addr().map_err(bind_err("bind"))?;

        let poll = Poll::new().map_err(bind_err("poll"))?;
        poll.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)
            .map_err(bind_err("poll"))?;
        let waker = Arc::new(Waker::new(&poll, WAKER).map_err(bind_err("poll"))?);

        let pool_size = config.effective_workers();
        let shared = Arc::new(Shared {
            node,
            config,
            pool_size,
            stop: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            request_bytes: AtomicU64::new(0),
            response_bytes: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            queue_highwater: AtomicU64::new(0),
            pipelined_depth_highwater: AtomicU64::new(0),
            by_kind: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: LatencyHistogram::new(),
            ingest: parking_lot::Mutex::new(None),
            panicked_requests: AtomicU64::new(0),
            worker_restarts: Arc::new(AtomicU64::new(0)),
            health: HealthCell::new(),
            watched: parking_lot::Mutex::new(Vec::new()),
        });

        let (job_tx, job_rx) = channel::bounded::<Job>(config.accept_queue.max(1));
        // Effectively unbounded: workers must never block on a
        // completion send, or a shutdown racing a slow proof could
        // deadlock the join.
        let (done_tx, done_rx) = channel::bounded::<Completion>(usize::MAX / 2);

        let workers = (0..pool_size)
            .map(|i| {
                let worker_shared = Arc::clone(&shared);
                let rx = job_rx.clone();
                let tx = done_tx.clone();
                let waker = Arc::clone(&waker);
                let cell = HealthCell::new();
                shared.watched.lock().push(cell.clone());
                Supervised::spawn(
                    WORKER_SPEC,
                    SupervisorConfig {
                        seed: i as u64,
                        ..SupervisorConfig::default()
                    },
                    cell,
                    Arc::clone(&shared.worker_restarts),
                    move |ctx| {
                        worker_loop(&worker_shared, &rx, &tx, &waker, &ctx);
                        Ok(())
                    },
                )
            })
            .collect();

        let loop_shared = Arc::clone(&shared);
        let loop_thread = std::thread::spawn(move || {
            EventLoop::new(loop_shared, listener, poll, job_tx, done_rx).run();
        });

        Ok(NodeServer {
            shared,
            local_addr,
            waker,
            loop_thread: Some(loop_thread),
            workers,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live counters (callable while serving).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Attaches the counters of an ingest pipeline growing this
    /// server's chain ([`crate::IngestHandle::monitor`]), so
    /// [`ServerStats::ingest`] reports ingest progress alongside the
    /// serving counters.
    pub fn attach_ingest(&self, monitor: IngestMonitor) {
        *self.shared.ingest.lock() = Some(monitor);
    }

    /// Merges an external [`HealthCell`] into [`ServerStats::health`]
    /// (worst state wins) — e.g. the cell of a supervised ingest
    /// pipeline feeding this server.
    pub fn watch_health(&self, cell: HealthCell) {
        self.shared.watched.lock().push(cell);
    }

    /// The server's current aggregate health (same value as
    /// [`ServerStats::health`], without snapshotting every counter).
    pub fn health(&self) -> HealthState {
        let mut health = self.shared.health.get();
        for cell in self.shared.watched.lock().iter() {
            health = health.merge(cell.get());
        }
        health
    }

    /// The served node, e.g. to read its chain's cache statistics
    /// alongside [`NodeServer::stats`].
    pub fn full(&self) -> &Arc<P> {
        &self.shared.node
    }

    /// Stops accepting, drains dispatched requests, joins every
    /// thread, and returns the final counters. A request already
    /// parsed off a socket and dispatched is answered and its response
    /// flushed; frames still sitting in read buffers are dropped
    /// unserved; idle connections close immediately.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop_and_join();
        self.shared.stats()
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
        if let Some(handle) = self.loop_thread.take() {
            let _ = handle.join();
        }
        // The event loop has drained its outstanding completions by
        // now, so stopping the supervised workers drops no dispatched
        // request; a wedged worker is abandoned after its supervisor's
        // stop deadline instead of hanging shutdown forever.
        for mut worker in self.workers.drain(..) {
            worker.shutdown();
        }
    }
}

impl<P: ServeNode> Drop for NodeServer<P> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn worker_loop<P: ServeNode>(
    shared: &Arc<Shared<P>>,
    rx: &Receiver<Job>,
    tx: &Sender<Completion>,
    waker: &Waker,
    ctx: &WorkCtx,
) {
    loop {
        // An attempt the watchdog abandoned must not take another job:
        // its replacement already owns this queue.
        if !ctx.live() {
            return;
        }
        match rx.recv_timeout(STOP_POLL) {
            Ok(job) => {
                ctx.busy();
                let id = envelope::request_id(&job.payload);
                // Panic isolation: a poisoned request fails *that*
                // request with a structured Internal error and
                // degrades health; the worker, the connection, and
                // the process all survive. AssertUnwindSafe is sound
                // because the node is only reached through `&self` and
                // a panicked handler's partial state is dropped here.
                let handled = catch_unwind(AssertUnwindSafe(|| {
                    shared.node.handle_classified(&job.payload)
                }))
                .unwrap_or_else(|_panic| {
                    shared.panicked_requests.fetch_add(1, Ordering::Relaxed);
                    shared.health.degrade("a request handler panicked");
                    let refusal = Message::Error(WireError::new(WireErrorCode::Internal)).encode();
                    Handled {
                        kind: RequestKind::Invalid,
                        bytes: match id {
                            Some(id) => envelope::wrap_v2(&refusal, id),
                            None => refusal,
                        },
                        error: Some(WireErrorCode::Internal),
                    }
                });
                let elapsed = job.received.elapsed();
                // The deadline is enforced when the response is ready —
                // one prover call cannot be preempted — so a missed
                // deadline turns a large late payload into a small,
                // immediate error frame.
                let missed = shared
                    .config
                    .request_deadline
                    .is_some_and(|deadline| handled.error.is_none() && elapsed > deadline);
                let handled = if missed {
                    shared.deadline_misses.fetch_add(1, Ordering::Relaxed);
                    let refusal =
                        Message::Error(WireError::new(WireErrorCode::DeadlineExceeded)).encode();
                    Handled {
                        kind: handled.kind,
                        bytes: match id {
                            Some(id) => envelope::wrap_v2(&refusal, id),
                            None => refusal,
                        },
                        error: Some(WireErrorCode::DeadlineExceeded),
                    }
                } else {
                    handled
                };
                let _ = tx.send(Completion {
                    conn: job.conn,
                    gen: job.gen,
                    kind: handled.kind,
                    bytes: handled.bytes,
                    error: handled.error,
                    elapsed,
                    id,
                });
                let _ = waker.wake();
                ctx.idle();
            }
            // Drain the queue before honouring stop: a parsed,
            // dispatched request is always answered.
            Err(channel::RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(channel::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Why a connection is being closed, for the error counter.
#[derive(PartialEq, Eq, Clone, Copy)]
enum Close {
    /// Clean shutdown (peer EOF with nothing pending, or server stop).
    Clean,
    /// Frame-level fault or stall: counted as an error.
    Fault,
}

struct EventLoop<P: ServeNode> {
    shared: Arc<Shared<P>>,
    listener: Option<TcpListener>,
    poll: Poll,
    job_tx: Sender<Job>,
    done_rx: Receiver<Completion>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Jobs dispatched whose completions have not been received yet
    /// (including jobs for since-closed connections).
    outstanding: usize,
    stopping: Option<Instant>,
}

impl<P: ServeNode> EventLoop<P> {
    fn new(
        shared: Arc<Shared<P>>,
        listener: TcpListener,
        poll: Poll,
        job_tx: Sender<Job>,
        done_rx: Receiver<Completion>,
    ) -> Self {
        EventLoop {
            shared,
            listener: Some(listener),
            poll,
            job_tx,
            done_rx,
            conns: Vec::new(),
            free: Vec::new(),
            outstanding: 0,
            stopping: None,
        }
    }

    fn run(&mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            let _ = self.poll.poll(&mut events, Some(STOP_POLL));
            for event in &events {
                match event.token() {
                    LISTENER => self.accept_ready(),
                    WAKER => {} // completions are drained below
                    Token(t) => {
                        let index = t - TOKEN_BASE;
                        if event.is_writable() {
                            self.flush(index);
                            // A v1 request parked behind the reply that
                            // just drained is parseable now. (Not from
                            // `flush` itself: `advance` reaches it.)
                            let drained = self
                                .conns
                                .get(index)
                                .and_then(Option::as_ref)
                                .is_some_and(|conn| conn.out.is_empty());
                            if drained {
                                self.advance(index);
                            }
                        }
                        if event.is_readable() || event.is_error() {
                            self.read_ready(index);
                        }
                    }
                }
            }
            self.drain_completions();
            self.sweep_stalls();
            if self.shared.stop.load(Ordering::SeqCst) {
                if self.stopping.is_none() {
                    // Stop accepting at once: drop the listener so new
                    // connects are refused during the drain.
                    if let Some(listener) = self.listener.take() {
                        let _ = self.poll.deregister(listener.as_raw_fd());
                    }
                    self.stopping = Some(Instant::now());
                }
                self.close_drained();
                let all_closed = self.conns.iter().all(Option::is_none);
                let entered = self.stopping.expect("set above");
                if (all_closed && self.outstanding == 0) || entered.elapsed() > DRAIN_DEADLINE {
                    return;
                }
            }
        }
    }

    // -- accept ------------------------------------------------------

    fn accept_ready(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // Responses are written as header + payload;
                    // without nodelay, Nagle delays the payload a full
                    // ACK round trip. Best-effort, as on the client
                    // side.
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        self.shared.errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    self.shared.connections.fetch_add(1, Ordering::Relaxed);
                    let index = match self.free.pop() {
                        Some(i) => i,
                        None => {
                            self.conns.push(None);
                            self.conns.len() - 1
                        }
                    };
                    debug_assert!(self.conns[index].is_none());
                    let mut conn = Conn::new(stream, Instant::now());
                    conn.gen = next_gen();
                    if self
                        .poll
                        .register(
                            conn.stream.as_raw_fd(),
                            Token(index + TOKEN_BASE),
                            Interest::READABLE,
                        )
                        .is_err()
                    {
                        self.shared.errors.fetch_add(1, Ordering::Relaxed);
                        self.free.push(index);
                        continue;
                    }
                    conn.registered = Some(Interest::READABLE);
                    self.shared.connections_open.fetch_add(1, Ordering::Relaxed);
                    self.conns[index] = Some(conn);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Transient accept failure (e.g. fd exhaustion):
                    // count it and let the next tick retry.
                    self.shared.errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
    }

    // -- reading and parsing -----------------------------------------

    fn read_ready(&mut self, index: usize) {
        let Some(conn) = self.conns.get_mut(index).and_then(Option::as_mut) else {
            return;
        };
        let mut scratch = [0u8; 64 * 1024];
        let mut faulted = false;
        loop {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&scratch[..n]);
                    conn.read_progress = Instant::now();
                    if conn.read_buf.len() >= READ_PAUSE_BUFFER {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    faulted = true;
                    break;
                }
            }
        }
        if faulted {
            self.close(index, Close::Fault);
            return;
        }
        self.advance(index);
    }

    /// Parses and dispatches whatever the connection's buffer allows,
    /// then reconciles EOF, close, and interest state. The one place
    /// all read-side state transitions funnel through.
    fn advance(&mut self, index: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(index).and_then(Option::as_mut) else {
                return;
            };
            if conn.parse_gated() || self.stopping.is_some() {
                break;
            }
            match parse_frame(&mut conn.read_buf) {
                Parsed::NeedMore => break,
                Parsed::TooLarge => {
                    // Close before allocating, without writing a byte
                    // (the announcement itself is the attack surface).
                    self.close(index, Close::Fault);
                    return;
                }
                Parsed::Frame(payload) => {
                    if !self.handle_payload(index, payload) {
                        return;
                    }
                }
            }
        }
        let Some(conn) = self.conns.get_mut(index).and_then(Option::as_mut) else {
            return;
        };
        if conn.read_closed && conn.dispatched == 0 && conn.out.is_empty() {
            // Peer is gone and nothing is pending. Leftover bytes are
            // a partial frame (v1 connections park only *complete*
            // frames, and those would have re-entered above).
            let close = if conn.read_buf.is_empty() && !conn.parse_gated() {
                Close::Clean
            } else {
                Close::Fault
            };
            self.close(index, close);
            return;
        }
        self.update_interest(index);
    }

    /// Classifies one parsed payload; returns `false` if the
    /// connection was closed.
    fn handle_payload(&mut self, index: usize, payload: Vec<u8>) -> bool {
        self.shared
            .request_bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        enum Action {
            Dispatch(Option<u64>),
            Duplicate(u64),
            OverCap(u64),
            HelloAck { id: u64, cap: u32 },
        }
        let action = {
            let Some(conn) = self.conns.get_mut(index).and_then(Option::as_mut) else {
                return false;
            };
            if conn.mode == Mode::Unknown {
                // The first frame decides the connection's protocol:
                // version byte 2 enters pipelined mode (cap 1 until a
                // Hello lands), anything else — including garbage that
                // will classify as an error — is served on the v1 path.
                conn.mode = if envelope::version(&payload) == Some(crate::message::PROTOCOL_V2) {
                    Mode::V2 { cap: 1 }
                } else {
                    Mode::V1
                };
            }
            match conn.mode {
                Mode::Unknown => unreachable!("mode decided above"),
                Mode::V1 => Action::Dispatch(None),
                Mode::V2 { cap } => {
                    if let Some((id, hello)) = decode_hello(&payload) {
                        let cap = hello
                            .max_in_flight
                            .clamp(1, self.shared.config.max_in_flight.max(1));
                        conn.mode = Mode::V2 { cap };
                        Action::HelloAck { id, cap }
                    } else {
                        match envelope::request_id(&payload) {
                            // A v2 version byte with a truncated
                            // envelope head: dispatch, and let the
                            // classifier produce the structured error.
                            None => Action::Dispatch(None),
                            Some(id) if conn.in_flight.contains(&id) => Action::Duplicate(id),
                            Some(id) if conn.in_flight.len() >= cap as usize => Action::OverCap(id),
                            Some(id) => Action::Dispatch(Some(id)),
                        }
                    }
                }
            }
        };
        match action {
            Action::Dispatch(id) => self.dispatch(index, payload, id),
            Action::Duplicate(id) => {
                let refusal = Message::Error(WireError::with_detail(
                    WireErrorCode::DuplicateRequestId,
                    id,
                ))
                .encode();
                self.shared.errors.fetch_add(1, Ordering::Relaxed);
                self.shared.by_kind[kind_index(RequestKind::Invalid)]
                    .fetch_add(1, Ordering::Relaxed);
                self.enqueue(index, envelope::wrap_v2(&refusal, id));
                true
            }
            Action::OverCap(id) => {
                self.shed_busy(index, Some(id));
                true
            }
            Action::HelloAck { id, cap } => {
                self.shared.by_kind[kind_index(RequestKind::Hello)].fetch_add(1, Ordering::Relaxed);
                let ack = Message::HelloAck(HelloInfo {
                    max_in_flight: cap,
                    features: 0,
                })
                .encode();
                self.enqueue(index, envelope::wrap_v2(&ack, id));
                true
            }
        }
    }

    /// Hands a request to the proof workers, or sheds it with `Busy`
    /// when the dispatch queue is full.
    fn dispatch(&mut self, index: usize, payload: Vec<u8>, id: Option<u64>) -> bool {
        let Some(conn) = self.conns.get_mut(index).and_then(Option::as_mut) else {
            return false;
        };
        let job = Job {
            conn: index,
            gen: conn.gen,
            payload,
            received: Instant::now(),
        };
        match self.job_tx.try_send(job) {
            Ok(()) => {
                self.shared.dispatched.fetch_add(1, Ordering::Relaxed);
                self.outstanding += 1;
                conn.dispatched += 1;
                if let Some(id) = id {
                    conn.in_flight.insert(id);
                    self.shared
                        .pipelined_depth_highwater
                        .fetch_max(conn.in_flight.len() as u64, Ordering::Relaxed);
                }
                self.shared
                    .queue_highwater
                    .fetch_max(self.job_tx.len() as u64, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.shed_busy(index, id);
                true
            }
        }
    }

    /// Answers one request with `Busy` (enveloped under its id on v2)
    /// without closing the connection.
    fn shed_busy(&mut self, index: usize, id: Option<u64>) {
        self.shared.busy.fetch_add(1, Ordering::Relaxed);
        let busy = Message::Busy.encode();
        let bytes = match id {
            Some(id) => envelope::wrap_v2(&busy, id),
            None => busy,
        };
        self.enqueue(index, bytes);
    }

    // -- writing -----------------------------------------------------

    /// Queues one response payload (framing it) and flushes what the
    /// socket will take.
    fn enqueue(&mut self, index: usize, payload: Vec<u8>) {
        let Some(conn) = self.conns.get_mut(index).and_then(Option::as_mut) else {
            return;
        };
        self.shared
            .response_bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        if conn.out.is_empty() {
            conn.write_progress = Instant::now();
        }
        conn.out.push_back(frame);
        self.flush(index);
    }

    fn flush(&mut self, index: usize) {
        let Some(conn) = self.conns.get_mut(index).and_then(Option::as_mut) else {
            return;
        };
        let mut faulted = false;
        while let Some(front) = conn.out.front() {
            match conn.stream.write(&front[conn.out_head..]) {
                Ok(0) => {
                    faulted = true;
                    break;
                }
                Ok(n) => {
                    conn.out_head += n;
                    conn.write_progress = Instant::now();
                    if conn.out_head == front.len() {
                        conn.out.pop_front();
                        conn.out_head = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    faulted = true;
                    break;
                }
            }
        }
        if faulted {
            self.close(index, Close::Fault);
            return;
        }
        self.update_interest(index);
    }

    // -- completions -------------------------------------------------

    fn drain_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            self.outstanding -= 1;
            self.shared.by_kind[kind_index(done.kind)].fetch_add(1, Ordering::Relaxed);
            let live = self
                .conns
                .get_mut(done.conn)
                .and_then(Option::as_mut)
                .filter(|c| c.gen == done.gen);
            let Some(conn) = live else {
                // The connection died before its response was ready.
                self.shared.errors.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            conn.dispatched -= 1;
            if let Some(id) = done.id {
                conn.in_flight.remove(&id);
            }
            if done.error.is_some() {
                // A structured refusal was delivered; the connection
                // survives, but the exchange counts as an error, not a
                // served request.
                self.shared.errors.fetch_add(1, Ordering::Relaxed);
            } else {
                self.shared.requests.fetch_add(1, Ordering::Relaxed);
                self.shared
                    .latency
                    .record(u64::try_from(done.elapsed.as_micros()).unwrap_or(u64::MAX));
            }
            self.enqueue(done.conn, done.bytes);
            // A v1 connection may have its next request parked in the
            // read buffer; un-gate it now that the response is queued.
            self.advance(done.conn);
        }
    }

    // -- stalls, close, shutdown -------------------------------------

    /// Drops connections stuck mid-frame (peer silent) or mid-response
    /// (peer not draining) past their stall limits.
    fn sweep_stalls(&mut self) {
        let now = Instant::now();
        let stalled: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let conn = slot.as_ref()?;
                let mid_frame = !conn.read_buf.is_empty() && !conn.parse_gated();
                let read_stall = mid_frame && now.duration_since(conn.read_progress) > READ_STALL;
                // (The queue is only measured once the base limit passed.)
                let silent = now.duration_since(conn.write_progress);
                let write_stall = !conn.out.is_empty()
                    && silent > WRITE_STALL
                    && silent > WRITE_STALL + conn.drain_allowance();
                (read_stall || write_stall).then_some(i)
            })
            .collect();
        for index in stalled {
            self.close(index, Close::Fault);
        }
    }

    /// During a draining shutdown, closes every connection with no
    /// dispatched request and nothing left to flush.
    fn close_drained(&mut self) {
        let drained: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let conn = slot.as_ref()?;
                (conn.dispatched == 0 && conn.out.is_empty()).then_some(i)
            })
            .collect();
        for index in drained {
            self.close(index, Close::Clean);
        }
    }

    fn close(&mut self, index: usize, why: Close) {
        let Some(conn) = self.conns.get_mut(index).and_then(Option::take) else {
            return;
        };
        if why == Close::Fault {
            self.shared.errors.fetch_add(1, Ordering::Relaxed);
        }
        if conn.registered.is_some() {
            let _ = self.poll.deregister(conn.stream.as_raw_fd());
        }
        self.shared.connections_open.fetch_sub(1, Ordering::Relaxed);
        self.free.push(index);
        // `conn.stream` drops here, closing the socket.
    }

    /// Reconciles the poll registration with what the connection
    /// currently wants (read paused? responses queued?).
    fn update_interest(&mut self, index: usize) {
        let Some(conn) = self.conns.get_mut(index).and_then(Option::as_mut) else {
            return;
        };
        let wanted = conn.wanted_interest();
        if wanted == conn.registered {
            return;
        }
        let fd = conn.stream.as_raw_fd();
        let token = Token(index + TOKEN_BASE);
        let outcome = match (conn.registered, wanted) {
            (Some(_), Some(interest)) => self.poll.reregister(fd, token, interest),
            (None, Some(interest)) => self.poll.register(fd, token, interest),
            (Some(_), None) => self.poll.deregister(fd),
            (None, None) => Ok(()),
        };
        match outcome {
            Ok(()) => {
                if let Some(conn) = self.conns.get_mut(index).and_then(Option::as_mut) {
                    conn.registered = wanted;
                }
            }
            Err(_) => self.close(index, Close::Fault),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = LatencyHistogram::new();
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);

        // 100 samples at ~100 µs, one straggler at 10 ms.
        for _ in 0..100 {
            h.record(100);
        }
        h.record(10_000);
        let s = h.summary();
        assert_eq!(s.count, 101);
        assert_eq!(s.max_us, 10_000);
        // The p50/p95 live in the [64, 127] bucket of the fast cluster.
        assert!((64..=127).contains(&s.p50_us), "p50 = {}", s.p50_us);
        assert!((64..=127).contains(&s.p95_us), "p95 = {}", s.p95_us);
        // The p99 must not exceed the observed maximum.
        assert!(s.p99_us <= s.max_us);
        assert!(s.mean_us >= 100);
    }

    #[test]
    fn empty_histogram_summarises_to_zero() {
        assert_eq!(LatencyHistogram::new().summary(), LatencySummary::default());
    }

    #[test]
    fn config_resolves_worker_count() {
        let mut config = ServerConfig::new().with_workers(3);
        assert_eq!(config.effective_workers(), 3);
        config.workers = 0;
        assert!(config.effective_workers() >= 1);
    }

    #[test]
    fn config_builders_cover_every_knob() {
        let config = ServerConfig::new()
            .with_workers(5)
            .with_accept_queue(7)
            .with_request_deadline(Some(Duration::from_millis(9)))
            .with_max_in_flight(11);
        assert_eq!(config.workers, 5);
        assert_eq!(config.accept_queue, 7);
        assert_eq!(config.request_deadline, Some(Duration::from_millis(9)));
        assert_eq!(config.max_in_flight, 11);
    }

    #[test]
    fn frame_parser_splits_and_guards() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(b"abc");
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.push(b'x');
        match parse_frame(&mut buf) {
            Parsed::Frame(p) => assert_eq!(p, b"abc"),
            _ => panic!("expected a complete frame"),
        }
        assert!(matches!(parse_frame(&mut buf), Parsed::NeedMore));
        buf.push(b'y');
        match parse_frame(&mut buf) {
            Parsed::Frame(p) => assert_eq!(p, b"xy"),
            _ => panic!("expected the second frame"),
        }
        assert!(buf.is_empty());

        // The boundary: an announcement of exactly MAX_FRAME_LEN waits
        // for its payload, one byte more is refused, and neither
        // touches the buffer — nothing is allocated for an announced
        // length.
        let mut largest = MAX_FRAME_LEN.to_le_bytes().to_vec();
        assert!(matches!(parse_frame(&mut largest), Parsed::NeedMore));
        assert_eq!(largest, MAX_FRAME_LEN.to_le_bytes());
        for len in [MAX_FRAME_LEN + 1, u32::MAX] {
            let mut huge = len.to_le_bytes().to_vec();
            assert!(matches!(parse_frame(&mut huge), Parsed::TooLarge));
            assert_eq!(huge, len.to_le_bytes());
        }
    }
}
