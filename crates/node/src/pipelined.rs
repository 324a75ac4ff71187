//! The pipelined (protocol v2) client transport.
//!
//! Protocol v1 is strictly request/response: one frame out, block until
//! the reply comes back ([`Transport::exchange`]). Over a real network
//! that serializes every round trip, so a light client verifying many
//! addresses pays `N × RTT` even though the server could overlap the
//! proof work. Protocol v2 fixes this with the request-id envelope
//! ([`envelope`]): every frame carries a little-endian `u64` id after
//! the version byte, requests may be submitted back-to-back up to a
//! negotiated in-flight window, and responses are matched back to their
//! requests by id — in whatever order the server finishes them.
//!
//! The negotiation is one extra round trip at connect time
//! ([`PipelinedTcpTransport::negotiate`]): the client sends a
//! v2-enveloped [`Message::Hello`] proposing a window, and the server
//! answers [`Message::HelloAck`] with the granted window (its
//! configured cap, so the client may get less than it asked for). A
//! peer that refuses the v2 version byte surfaces as the typed,
//! non-retryable [`NodeError::Server`] refusal it sent; a client that
//! wants protocol v1 dials a plain [`TcpTransport`] instead.
//!
//! [`PipelinedTcpTransport`] is the one transport that can overlap
//! requests, so [`submit`](PipelinedTcpTransport::submit) and
//! [`recv`](PipelinedTcpTransport::recv) are its own methods rather
//! than a second trait. It also implements [`Transport`], so any code
//! written against the blocking API runs unchanged over a v2
//! connection (each exchange is a one-in-flight submit/recv pair).

use std::collections::HashMap;
use std::net::{TcpStream, ToSocketAddrs};

use crate::frame::{read_frame, write_frame, MAX_FRAME_LEN};
use crate::message::{envelope, HelloInfo, Message, NodeError};
use crate::pipe::Traffic;
use crate::tcp::{TcpOptions, TcpTransport};
use crate::transport::Transport;

/// The identifier a pipelined transport assigns to one submitted
/// request; the matching response carries it back.
pub type ReqId = u64;

/// One TCP connection to a protocol-v2 [`crate::NodeServer`] that keeps
/// several requests in flight.
///
/// Construct via [`PipelinedTcpTransport::negotiate`] (dial +
/// handshake) or [`PipelinedTcpTransport::negotiate_on`] (handshake on
/// an existing [`TcpTransport`]). Ids are assigned sequentially from 1
/// (0 is the handshake's); the window is whatever the server granted.
///
/// The exchange is split in two: [`submit`](Self::submit) writes a
/// request and returns immediately with its [`ReqId`];
/// [`recv`](Self::recv) blocks for the *next* response, whichever
/// request it answers. Responses may arrive in any order — the id is
/// the only correlation.
///
/// Requests and responses are v1 payload bytes (the same bytes
/// [`Transport::exchange`] carries); the envelope is the transport's
/// business. [`Traffic`], however, meters the enveloped wire bytes, so
/// bandwidth measurements reflect what actually crossed the network —
/// v2 costs [`envelope::V2_HEAD`]` - 1` extra bytes per frame, and
/// experiments should see that.
#[derive(Debug)]
pub struct PipelinedTcpTransport {
    stream: TcpStream,
    granted: u32,
    next_id: u64,
    /// id → enveloped request length, so the exchange's traffic can be
    /// attributed when the response lands.
    pending: HashMap<u64, u64>,
    cumulative: Traffic,
    exchanges: u64,
}

impl PipelinedTcpTransport {
    /// Dials `addr` with `options` and negotiates protocol v2,
    /// proposing an in-flight window of `proposed` (clamped to at
    /// least 1).
    ///
    /// # Errors
    ///
    /// [`NodeError::Io`] if the dial fails; otherwise as
    /// [`PipelinedTcpTransport::negotiate_on`].
    pub fn negotiate(
        addr: impl ToSocketAddrs,
        options: TcpOptions,
        proposed: u32,
    ) -> Result<Self, NodeError> {
        let tcp = TcpTransport::connect_with(addr, options)?;
        Self::negotiate_on(tcp, proposed)
    }

    /// Negotiates protocol v2 on an already-connected transport.
    ///
    /// Sends a v2-enveloped [`Message::Hello`] (request id 0) and
    /// expects a [`Message::HelloAck`] carrying the granted window.
    /// The handshake's traffic is folded into the returned transport's
    /// cumulative meters.
    ///
    /// # Errors
    ///
    /// Transport errors from the handshake exchange;
    /// [`NodeError::Server`] if the peer refuses — a v1-only peer
    /// answers the version byte with a bare
    /// [`crate::WireErrorCode::UnsupportedVersion`], which is not
    /// retryable; [`NodeError::Busy`] if the server sheds the
    /// handshake itself; [`NodeError::UnexpectedMessage`] for any
    /// other reply.
    pub fn negotiate_on(mut tcp: TcpTransport, proposed: u32) -> Result<Self, NodeError> {
        let hello = envelope::encode_v2(
            &Message::Hello(HelloInfo {
                max_in_flight: proposed.max(1),
                features: 0,
            }),
            0,
        );
        write_frame(tcp.stream_mut(), &hello)?;
        let reply = read_frame(tcp.stream_mut(), MAX_FRAME_LEN)?;
        let traffic = Traffic {
            request_bytes: hello.len() as u64,
            response_bytes: reply.len() as u64,
        };
        // A v2 server envelopes its answer under the handshake's id 0;
        // a peer that refuses the version byte answers in bare v1.
        let (enveloped, payload) = match envelope::unwrap_v2(&reply) {
            Some((0, v1)) => (true, v1),
            // The handshake is the connection's only frame so far, so
            // a v2 reply must echo id 0; anything else is a fault.
            Some((id, _)) => return Err(NodeError::UnknownRequestId { id }),
            None => (false, reply),
        };
        match (Message::decode_classified(&payload), enveloped) {
            (Ok(Message::HelloAck(ack)), true) => {
                tcp.record_extra(traffic);
                let (stream, cumulative, exchanges) = tcp.into_parts();
                Ok(PipelinedTcpTransport {
                    stream,
                    granted: ack.max_in_flight.max(1),
                    next_id: 1,
                    pending: HashMap::new(),
                    cumulative,
                    exchanges,
                })
            }
            (Ok(Message::Busy), _) => Err(NodeError::Busy),
            (Ok(Message::Error(e)), _) => Err(NodeError::Server(e)),
            _ => Err(NodeError::UnexpectedMessage),
        }
    }

    /// The in-flight window the server granted in its
    /// [`Message::HelloAck`].
    pub fn granted(&self) -> u32 {
        self.granted
    }

    /// How many requests are currently in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Writes one encoded v1 request, returning the id its response
    /// will carry.
    ///
    /// # Errors
    ///
    /// [`NodeError::PipelineViolation`] if the negotiated window is
    /// already full (call [`recv`](Self::recv) first); transport-level
    /// [`NodeError`]s if the write fails.
    pub fn submit(&mut self, request: &[u8]) -> Result<ReqId, NodeError> {
        if self.pending.len() >= self.granted as usize {
            return Err(NodeError::PipelineViolation {
                context: "submit past the negotiated in-flight window",
            });
        }
        let id = self.next_id;
        let wire = envelope::wrap_v2(request, id);
        write_frame(&mut self.stream, &wire)?;
        self.next_id += 1;
        self.pending.insert(id, wire.len() as u64);
        Ok(id)
    }

    /// Blocks for the next response, returning its request id, the v1
    /// payload bytes, and the wire traffic of the completed exchange
    /// (enveloped request + enveloped response).
    ///
    /// # Errors
    ///
    /// [`NodeError::PipelineViolation`] if nothing is in flight;
    /// [`NodeError::UnknownRequestId`] if the response's id matches no
    /// outstanding request; transport-level [`NodeError`]s if the read
    /// fails.
    pub fn recv(&mut self) -> Result<(ReqId, Vec<u8>, Traffic), NodeError> {
        if self.pending.is_empty() {
            return Err(NodeError::PipelineViolation {
                context: "recv with nothing in flight",
            });
        }
        let reply = read_frame(&mut self.stream, MAX_FRAME_LEN)?;
        let Some((id, v1)) = envelope::unwrap_v2(&reply) else {
            // A bare v1 frame on a negotiated v2 connection: the reply
            // stream is corrupt. Surface any structured refusal it
            // carries, otherwise the generic protocol fault.
            return Err(match Message::decode_classified(&reply) {
                Ok(Message::Error(e)) => NodeError::Server(e),
                _ => NodeError::UnexpectedMessage,
            });
        };
        let Some(request_bytes) = self.pending.remove(&id) else {
            return Err(NodeError::UnknownRequestId { id });
        };
        let traffic = Traffic {
            request_bytes,
            response_bytes: reply.len() as u64,
        };
        self.cumulative.request_bytes += traffic.request_bytes;
        self.cumulative.response_bytes += traffic.response_bytes;
        self.exchanges += 1;
        Ok((id, v1, traffic))
    }
}

/// Blocking compatibility: one exchange is a one-in-flight
/// submit/recv pair. Requires an empty pipeline — interleaving
/// blocking exchanges with outstanding pipelined requests would have
/// to drop whichever response arrives first, so it is refused instead.
impl Transport for PipelinedTcpTransport {
    fn exchange(&mut self, request: &[u8]) -> Result<(Vec<u8>, Traffic), NodeError> {
        if !self.pending.is_empty() {
            return Err(NodeError::PipelineViolation {
                context: "blocking exchange with pipelined requests outstanding",
            });
        }
        let id = self.submit(request)?;
        let (got, bytes, traffic) = self.recv()?;
        if got != id {
            return Err(NodeError::UnknownRequestId { id: got });
        }
        Ok((bytes, traffic))
    }

    fn cumulative_traffic(&self) -> Traffic {
        self.cumulative
    }

    fn exchanges(&self) -> u64 {
        self.exchanges
    }
}
