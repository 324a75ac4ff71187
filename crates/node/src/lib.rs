//! Full-node / light-node pair with a transport-agnostic, byte-metered
//! serving layer.
//!
//! The paper's prototype runs the query client and server as RPC peers
//! on two machines and measures the size of the query results. This
//! crate reproduces that setup with full fidelity at the byte level:
//! every request and response is really encoded through [`lvq_codec`],
//! shipped as bytes across a [`Transport`], decoded on the far side,
//! and the transport records exactly what crossed it.
//!
//! * [`FullNode`] — owns a [`lvq_chain::Chain`] and answers
//!   [`Message::QueryRequest`]s with proofs from [`lvq_core::Prover`];
//!   `Sync`, so one node can serve many concurrent connections;
//! * [`LiveNode`] / [`TipIngester`] — the follow-the-tip pair: a full
//!   node behind a reader-writer lock so every query proves against a
//!   pinned tip, plus the background ingest thread that appends new
//!   blocks to an `lvq-store` [`lvq_store::BlockStore`] and extends
//!   the chain while the server keeps answering;
//! * [`LightNode`] — stores only headers, issues requests over any
//!   [`Transport`], and verifies responses with
//!   [`lvq_core::LightClient`];
//! * [`Transport`] — the one serving abstraction (blocking
//!   `exchange`), with interchangeable implementations:
//!   [`LocalTransport`] (the in-process simulated wire, a
//!   [`MeteredPipe`] in front of the node) and [`TcpTransport`]
//!   (length-prefixed frames over a real socket, speaking to a
//!   [`NodeServer`]) count [`Traffic`] as payload bytes only, so
//!   measurements agree exactly; [`PipelinedTcpTransport`] is the
//!   protocol-v2 connection, which additionally overlaps requests
//!   through its own `submit`/`recv`;
//! * [`NodeServer`] — a thread-per-connection TCP server sharing one
//!   `Arc<FullNode>` (and thus its memo caches) across clients;
//! * [`query_quorum`] — cross-check several peers under a retry
//!   policy and merge their verified answers;
//! * [`BandwidthModel`] — converts measured bytes into estimated
//!   transfer times for reporting.
//!
//! # Examples
//!
//! ```
//! use lvq_bloom::BloomParams;
//! use lvq_chain::{Address, ChainBuilder, Transaction};
//! use lvq_core::{Scheme, SchemeConfig};
//! use lvq_node::{FullNode, LightNode, LocalTransport, QuerySpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SchemeConfig::new(Scheme::Lvq, BloomParams::new(128, 2)?, 4)?;
//! let mut builder = ChainBuilder::new(config.chain_params())?;
//! for h in 1..=4u32 {
//!     builder.push_block(vec![Transaction::coinbase(Address::new("1Miner"), 50, h)])?;
//! }
//! let full = FullNode::new(builder.finish())?;
//! let mut peer = LocalTransport::new(&full);
//! let mut light = LightNode::sync_from(&mut peer, config)?;
//!
//! let run = light.run(&QuerySpec::address(Address::new("1Miner")), &mut peer)?;
//! assert_eq!(run.histories[0].transactions.len(), 4);
//! assert!(run.traffic.response_bytes > 0);
//! # Ok(())
//! # }
//! ```
//!
//! For the TCP side of the same flow, see [`NodeServer`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod faults;
pub mod frame;
mod full;
mod ingest;
mod light;
mod live;
mod message;
mod pipe;
mod pipelined;
mod quorum;
mod reconnect;
mod retry;
mod server;
mod supervise;
mod tcp;
#[cfg(test)]
mod testutil;
mod transport;

pub use bandwidth::BandwidthModel;
pub use faults::{FaultPlan, FaultStats, FaultyTransport};
pub use full::{FullNode, Handled, RequestKind, DEFAULT_MAX_IN_FLIGHT};
pub use ingest::{
    BlockFeed, FeedError, FeedPublisher, FlakyFeed, IngestConfig, IngestError, IngestHandle,
    IngestMonitor, IngestStats, MemoryFeed, SupervisedIngest, TipIngester,
};
pub use light::{LightNode, QueryRun, QuerySpec};
pub use live::LiveNode;
pub use message::{
    envelope, HelloInfo, Message, NodeError, WireError, WireErrorCode, PROTOCOL_V2,
    PROTOCOL_VERSION,
};
pub use pipe::{MeteredPipe, Traffic};
pub use pipelined::{PipelinedTcpTransport, ReqId};
pub use quorum::{
    converge_on_majority, query_quorum, tip_census, MajorityConvergence, PeerHealth, PeerOutcome,
    QueryPeer, QuorumReport, TipRelation,
};
pub use reconnect::ReconnectingTcpTransport;
pub use retry::{ResyncOutcome, Retrier, RetryPolicy, RetryStats};
pub use server::{
    LatencySummary, NodeServer, RequestCounters, ServeNode, ServerConfig, ServerStats,
};
pub use supervise::{HealthCell, HealthState};
pub use tcp::{TcpOptions, TcpTransport};
pub use transport::{LocalTransport, Transport};
