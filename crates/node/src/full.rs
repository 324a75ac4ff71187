//! The full node.

use lvq_chain::{BlockSource, Chain, ChainError, InMemoryBlocks, InMemoryTables, TableSource};
use lvq_codec::Encodable;
use lvq_core::{Prover, SchemeConfig};

use crate::message::{envelope, HelloInfo, Message, NodeError, WireError, WireErrorCode};

/// The in-flight cap a node grants when it answers a [`Message::Hello`]
/// itself (i.e. when not behind a [`crate::NodeServer`], whose
/// configured cap takes precedence).
pub const DEFAULT_MAX_IN_FLIGHT: u32 = 32;

/// What kind of request one handled exchange was, for the server's
/// per-message-type counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// [`Message::GetHeaders`] — full header sync.
    GetHeaders,
    /// [`Message::GetHeadersFrom`] — incremental header sync.
    GetHeadersFrom,
    /// [`Message::QueryRequest`] — single-address query.
    Query,
    /// [`Message::BatchQueryRequest`] — batched query.
    BatchQuery,
    /// [`Message::Hello`] — v2 feature negotiation.
    Hello,
    /// Anything that never classified as a request: undecodable bytes,
    /// an unsupported version, or a response-kind message.
    Invalid,
}

/// The outcome of classifying and handling one request: the encoded
/// response to write back, what kind of request it answered, and —
/// when the response is a [`Message::Error`] — which refusal it
/// carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handled {
    /// What the request classified as.
    pub kind: RequestKind,
    /// The encoded response payload (a real response or an encoded
    /// [`Message::Error`]).
    pub bytes: Vec<u8>,
    /// `Some` iff `bytes` encodes a [`Message::Error`].
    pub error: Option<WireErrorCode>,
}

impl Handled {
    fn refusal(kind: RequestKind, error: WireError) -> Self {
        Handled {
            kind,
            bytes: Message::Error(error).encode(),
            error: Some(error.code),
        }
    }
}

/// A full node: the complete chain plus the query-answering engine.
///
/// The byte-level entry point is [`FullNode::handle`], which transports
/// ([`crate::LocalTransport`], the [`crate::NodeServer`] connection
/// threads) call with raw request bytes. `handle` takes `&self` and the
/// node is `Sync`: one `Arc<FullNode>` can serve many concurrent
/// connections, all sharing the chain's memo caches.
///
/// Generic over the chain's [`BlockSource`]: the default keeps every
/// block in memory, while a disk-backed source (the `lvq-store` crate)
/// materializes only the blocks a proof actually touches.
#[derive(Debug)]
pub struct FullNode<S: BlockSource = InMemoryBlocks, T: TableSource = InMemoryTables> {
    chain: Chain<S, T>,
    config: SchemeConfig,
}

impl<S: BlockSource, T: TableSource> FullNode<S, T> {
    /// Wraps a chain.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::UnknownScheme`] if the chain's commitments
    /// match none of the four schemes.
    pub fn new(chain: Chain<S, T>) -> Result<Self, NodeError> {
        let config =
            SchemeConfig::from_chain_params(chain.params()).ok_or(NodeError::UnknownScheme)?;
        Ok(FullNode { chain, config })
    }

    /// The scheme this node serves.
    pub fn config(&self) -> SchemeConfig {
        self.config
    }

    /// Read access to the underlying chain (e.g. for ground-truth checks
    /// in tests).
    pub fn chain(&self) -> &Chain<S, T> {
        &self.chain
    }

    /// Absorbs up to `max` blocks the node's block source has gained
    /// since the chain was assembled (see [`Chain::extend_batch`]),
    /// returning how many were absorbed.
    ///
    /// Takes `&mut self`, so a node serving concurrent readers cannot
    /// extend in place — wrap it in a [`crate::LiveNode`], whose
    /// reader-writer discipline is exactly this method behind a write
    /// lock.
    ///
    /// # Errors
    ///
    /// Propagates [`ChainError`] from the source or from a block whose
    /// `prev_block` does not chain onto the current tip; the chain is
    /// left at the last successfully absorbed height.
    pub fn extend_batch(&mut self, max: u64) -> Result<u64, ChainError> {
        self.chain.extend_batch(max)
    }

    /// Flushes the chain's table source and anchors it at the current
    /// tip (see [`Chain::sync_derived`]). A no-op for in-memory tables.
    ///
    /// # Errors
    ///
    /// Propagates [`ChainError::Source`] on storage failure.
    pub fn sync_derived(&self) -> Result<(), ChainError> {
        self.chain.sync_derived()
    }

    /// Switches the node's chain to a competing branch (see
    /// [`Chain::reorg_to`]): rewinds every derived structure to
    /// `fork_height` and replays `branch`, returning the new tip.
    ///
    /// Takes `&mut self` like [`FullNode::extend_batch`]; a serving
    /// node reorgs through [`crate::LiveNode::reorg_to`], which runs
    /// this under the write lock so no proof straddles the switch.
    ///
    /// # Errors
    ///
    /// As [`Chain::reorg_to`]; on a replay failure the chain is left
    /// mid-branch (source ahead of derived), which the normal extend
    /// path absorbs.
    pub fn reorg_to(
        &mut self,
        fork_height: u64,
        branch: &[std::sync::Arc<lvq_chain::Block>],
    ) -> Result<u64, ChainError> {
        self.chain.reorg_to(fork_height, branch)
    }

    /// Classifies and handles one encoded request, speaking both wire
    /// versions.
    ///
    /// A v2 payload (see [`envelope`]) is unwrapped, handled exactly
    /// like its v1 equivalent, and the response is re-enveloped under
    /// the request's id — so an in-process [`crate::LocalTransport`]
    /// serves pipelined clients with the same bytes a TCP server would.
    /// A [`Message::Hello`] is answered with a [`Message::HelloAck`]
    /// granting at most [`DEFAULT_MAX_IN_FLIGHT`].
    ///
    /// Never fails: every fault — undecodable bytes, an unsupported
    /// protocol version, a response-kind message, a prover refusal —
    /// becomes an encoded [`Message::Error`] response, so a server can
    /// answer the client and keep the connection alive instead of
    /// dropping it. The [`Handled::kind`] and [`Handled::error`] fields
    /// feed the server's per-type and error counters.
    pub fn handle_classified(&self, request: &[u8]) -> Handled {
        match envelope::unwrap_v2(request) {
            Some((id, v1)) => {
                let handled = self.handle_v1(&v1);
                Handled {
                    kind: handled.kind,
                    bytes: envelope::wrap_v2(&handled.bytes, id),
                    error: handled.error,
                }
            }
            // Not v2 (or a truncated v2 head): the v1-strict classifier
            // produces the right structured refusal either way.
            None => self.handle_v1(request),
        }
    }

    fn handle_v1(&self, request: &[u8]) -> Handled {
        let message = match Message::decode_classified(request) {
            Ok(m) => m,
            Err(e) => return Handled::refusal(RequestKind::Invalid, e),
        };
        let (kind, reply) = match message {
            Message::GetHeaders => (
                RequestKind::GetHeaders,
                Message::Headers(self.chain.headers()),
            ),
            Message::GetHeadersFrom { height, tip_hash } => {
                let tip = self.chain.tip_height();
                let reply = if height > tip {
                    // This node cannot judge agreement above its own
                    // tip — it is simply behind the client.
                    Message::PeerBehind { tip_height: tip }
                } else if self.chain.hash_at(height) != Ok(tip_hash) {
                    // The client's pinned header is not this chain's:
                    // the fork point lies strictly below the probe.
                    Message::HeadersDiverged {
                        fork_height: height,
                    }
                } else {
                    let mut headers = self.chain.headers();
                    headers.drain(..height as usize);
                    Message::Headers(headers)
                };
                (RequestKind::GetHeadersFrom, reply)
            }
            Message::QueryRequest { address, range } => {
                let outcome =
                    Prover::new(&self.chain, self.config).and_then(|prover| match range {
                        None => prover.respond(&address),
                        Some((lo, hi)) => prover.respond_range(&address, lo, hi),
                    });
                match outcome {
                    Ok((response, _)) => (
                        RequestKind::Query,
                        Message::QueryResponse(Box::new(response)),
                    ),
                    Err(_) => {
                        return Handled::refusal(
                            RequestKind::Query,
                            WireError::new(WireErrorCode::Unanswerable),
                        )
                    }
                }
            }
            Message::BatchQueryRequest { addresses, range } => {
                let outcome =
                    Prover::new(&self.chain, self.config).and_then(|prover| match range {
                        None => prover.respond_batch(&addresses),
                        Some((lo, hi)) => prover.respond_batch_range(&addresses, lo, hi),
                    });
                match outcome {
                    Ok((response, _)) => (
                        RequestKind::BatchQuery,
                        Message::BatchQueryResponse(Box::new(response)),
                    ),
                    Err(_) => {
                        return Handled::refusal(
                            RequestKind::BatchQuery,
                            WireError::new(WireErrorCode::Unanswerable),
                        )
                    }
                }
            }
            Message::Hello(hello) => (
                RequestKind::Hello,
                Message::HelloAck(HelloInfo {
                    max_in_flight: hello.max_in_flight.clamp(1, DEFAULT_MAX_IN_FLIGHT),
                    features: 0,
                }),
            ),
            Message::Headers(_)
            | Message::QueryResponse(_)
            | Message::BatchQueryResponse(_)
            | Message::Busy
            | Message::Error(_)
            | Message::HelloAck(_)
            | Message::HeadersDiverged { .. }
            | Message::PeerBehind { .. } => {
                return Handled::refusal(
                    RequestKind::Invalid,
                    WireError::new(WireErrorCode::UnexpectedKind),
                )
            }
        };
        Handled {
            kind,
            bytes: reply.encode(),
            error: None,
        }
    }

    /// Handles one encoded request, returning the encoded response.
    ///
    /// Thin compatibility wrapper around [`FullNode::handle_classified`]:
    /// faults come back as an encoded [`Message::Error`] payload in
    /// `Ok`, exactly the bytes a [`crate::NodeServer`] would put on the
    /// wire, so in-process and TCP transports observe identical
    /// responses.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` is kept for the
    /// [`crate::QueryPeer`] contract.
    pub fn handle(&self, request: &[u8]) -> Result<Vec<u8>, NodeError> {
        Ok(self.handle_classified(request).bytes)
    }
}
