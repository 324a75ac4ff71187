//! RPC message envelope and node-level errors.
//!
//! Every encoded [`Message`] begins with a one-byte protocol version
//! ([`PROTOCOL_VERSION`]) followed by a one-byte message tag. The
//! version byte lives in the *payload*, not the transport frame
//! header, so both the in-process and the TCP transport carry it and
//! `Traffic` accounting stays byte-identical across transports. A
//! server that receives an unsupported version or an unknown tag
//! answers with a structured [`Message::Error`] instead of dropping
//! the connection.

use std::error::Error;
use std::fmt;
use std::time::Duration;

use lvq_chain::{Address, BlockHeader};
use lvq_codec::{decode_exact, Decodable, DecodeError, Encodable, Reader};
use lvq_core::{BatchQueryResponse, ProveError, QueryError, QueryResponse};
use lvq_crypto::Hash256;

/// The wire-protocol version every encoded [`Message`] is prefixed
/// with. Bump on any incompatible change to the message layout.
pub const PROTOCOL_VERSION: u8 = 1;

/// The pipelined wire-protocol version: the same tag + body layout as
/// v1, but with a little-endian `u64` request id between the version
/// byte and the tag, so several requests can be in flight on one
/// connection and responses can arrive out of order. See [`envelope`].
pub const PROTOCOL_V2: u8 = 2;

/// The wire protocol between a light node and a full node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Ask for all headers (initial light-node sync).
    GetHeaders,
    /// All headers, height 1 first.
    Headers(Vec<BlockHeader>),
    /// Ask for the verifiable transaction history of an address,
    /// optionally restricted to a block-height range.
    QueryRequest {
        /// The requested address (the paper's RA).
        address: Address,
        /// `Some((lo, hi))` restricts the query to blocks `lo..=hi`;
        /// `None` queries the whole chain.
        range: Option<(u64, u64)>,
    },
    /// The scheme-specific proof bundle.
    QueryResponse(Box<QueryResponse>),
    /// Ask for the verifiable histories of several addresses in one
    /// round trip (always non-empty), optionally restricted to a
    /// block-height range.
    BatchQueryRequest {
        /// The requested addresses, in response-section order.
        addresses: Vec<Address>,
        /// `Some((lo, hi))` restricts the batch to blocks `lo..=hi`;
        /// `None` queries the whole chain.
        range: Option<(u64, u64)>,
    },
    /// The batched proof bundle: shared BMT descents (or shared
    /// per-block filters) plus one fragment section per address.
    BatchQueryResponse(Box<BatchQueryResponse>),
    /// Ask only for the headers at heights strictly above `height`
    /// (incremental sync for a long-lived light client). The client
    /// pins the request to its own header at `height` so a server on a
    /// different fork answers [`Message::HeadersDiverged`] instead of a
    /// tail that silently grafts onto the wrong prefix.
    GetHeadersFrom {
        /// The client's probe height; the response continues from
        /// `height + 1`.
        height: u64,
        /// The block hash of the client's header at `height`
        /// ([`lvq_crypto::Hash256::ZERO`] when `height` is 0, where
        /// every chain agrees).
        tip_hash: Hash256,
    },
    /// The server's accept queue is full; retry later. Sent instead of
    /// letting the connection hang when the worker pool sheds load.
    Busy,
    /// A structured server-side refusal: the request was received but
    /// cannot be answered (bad version, unknown tag, malformed
    /// payload, missed deadline, ...). The connection stays open.
    Error(WireError),
    /// Feature negotiation, sent by a v2 client as the first frame on
    /// a connection (inside a v2 [`envelope`]): the client proposes how
    /// many requests it wants in flight. A v1 client never sends this,
    /// which is exactly how a v2 server detects it and falls back to
    /// one-in-flight compatibility mode.
    Hello(HelloInfo),
    /// The server's answer to [`Message::Hello`]: the *negotiated*
    /// in-flight cap (`min(client proposal, server cap)`, at least 1)
    /// and the feature bits both sides share.
    HelloAck(HelloInfo),
    /// The server's header at the probed height is not the one the
    /// client pinned in [`Message::GetHeadersFrom`] — the two sit on
    /// different forks. The client walks its probe downward (bounded
    /// by its reorg budget) until the chains agree.
    HeadersDiverged {
        /// The probed height whose header did not match; the fork
        /// point lies strictly below it.
        fork_height: u64,
    },
    /// The server's tip is below the probed height, so it cannot judge
    /// agreement there — the peer is simply behind.
    PeerBehind {
        /// The server's current tip height.
        tip_height: u64,
    },
}

/// The body of [`Message::Hello`] / [`Message::HelloAck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloInfo {
    /// Requests the sender wants (Hello) or grants (HelloAck) in
    /// flight on this connection at once.
    pub max_in_flight: u32,
    /// Feature bit set; no bits are defined yet, so both sides send 0
    /// and ignore unknown bits (forward compatibility).
    pub features: u64,
}

impl Encodable for HelloInfo {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.max_in_flight.encode_into(out);
        self.features.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        self.max_in_flight.encoded_len() + self.features.encoded_len()
    }
}

impl Decodable for HelloInfo {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(HelloInfo {
            max_in_flight: u32::decode_from(reader)?,
            features: u64::decode_from(reader)?,
        })
    }
}

const TAG_GET_HEADERS: u8 = 0;
const TAG_HEADERS: u8 = 1;
const TAG_QUERY_REQ: u8 = 2;
const TAG_QUERY_RESP: u8 = 3;
const TAG_BATCH_QUERY_REQ: u8 = 4;
const TAG_BATCH_QUERY_RESP: u8 = 5;
const TAG_GET_HEADERS_FROM: u8 = 6;
const TAG_BUSY: u8 = 7;
const TAG_ERROR: u8 = 8;
const TAG_HELLO: u8 = 9;
const TAG_HELLO_ACK: u8 = 10;
const TAG_HEADERS_DIVERGED: u8 = 11;
const TAG_PEER_BEHIND: u8 = 12;

/// Why a server refused a request, carried inside [`Message::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum WireErrorCode {
    /// The request's protocol-version byte is not one this server
    /// speaks; `detail` is the offending version.
    UnsupportedVersion = 0,
    /// The request's message tag is not one this server knows;
    /// `detail` is the offending tag.
    UnknownTag = 1,
    /// The version and tag were fine but the payload body did not
    /// decode.
    Malformed = 2,
    /// The message decoded but is a response kind, not a request.
    UnexpectedKind = 3,
    /// A well-formed request the prover could not answer.
    Unanswerable = 4,
    /// The response was ready only after the server's per-request
    /// deadline had passed, so the payload was withheld.
    DeadlineExceeded = 5,
    /// A pipelined (v2) request reused a request id that is still in
    /// flight on the same connection; `detail` is the offending id.
    DuplicateRequestId = 6,
    /// The request handler panicked inside the server. The panic was
    /// contained to this one request — the connection and the process
    /// both survive — but the request itself is not retryable: the
    /// same bytes would poison the handler again.
    Internal = 7,
}

impl WireErrorCode {
    fn from_u8(value: u8) -> Option<Self> {
        Some(match value {
            0 => WireErrorCode::UnsupportedVersion,
            1 => WireErrorCode::UnknownTag,
            2 => WireErrorCode::Malformed,
            3 => WireErrorCode::UnexpectedKind,
            4 => WireErrorCode::Unanswerable,
            5 => WireErrorCode::DeadlineExceeded,
            6 => WireErrorCode::DuplicateRequestId,
            7 => WireErrorCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for WireErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WireErrorCode::UnsupportedVersion => "unsupported protocol version",
            WireErrorCode::UnknownTag => "unknown message tag",
            WireErrorCode::Malformed => "malformed payload",
            WireErrorCode::UnexpectedKind => "unexpected message kind",
            WireErrorCode::Unanswerable => "unanswerable request",
            WireErrorCode::DeadlineExceeded => "request deadline exceeded",
            WireErrorCode::DuplicateRequestId => "duplicate in-flight request id",
            WireErrorCode::Internal => "internal server error (request handler panicked)",
        })
    }
}

/// A structured server-side refusal: a coarse [`WireErrorCode`] plus
/// one code-specific detail value (offending version byte, offending
/// tag, ... — zero when the code has nothing to pin down).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WireError {
    /// What went wrong.
    pub code: WireErrorCode,
    /// Code-specific detail (offending byte value, zero otherwise).
    pub detail: u64,
}

impl WireError {
    /// A refusal with no meaningful detail value.
    pub fn new(code: WireErrorCode) -> Self {
        WireError { code, detail: 0 }
    }

    /// A refusal pinning down the offending value.
    pub fn with_detail(code: WireErrorCode, detail: u64) -> Self {
        WireError { code, detail }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.code {
            WireErrorCode::UnsupportedVersion
            | WireErrorCode::UnknownTag
            | WireErrorCode::DuplicateRequestId => {
                write!(f, "{} ({})", self.code, self.detail)
            }
            _ => self.code.fmt(f),
        }
    }
}

impl Encodable for WireError {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.code as u8);
        self.detail.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        1 + self.detail.encoded_len()
    }
}

impl Decodable for WireError {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let raw = reader.read_u8()?;
        let code = WireErrorCode::from_u8(raw).ok_or(DecodeError::InvalidValue {
            what: "wire error code",
            found: u64::from(raw),
        })?;
        Ok(WireError {
            code,
            detail: u64::decode_from(reader)?,
        })
    }
}

impl Encodable for Message {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(PROTOCOL_VERSION);
        match self {
            Message::GetHeaders => out.push(TAG_GET_HEADERS),
            Message::Headers(headers) => {
                out.push(TAG_HEADERS);
                headers.encode_into(out);
            }
            Message::QueryRequest { address, range } => {
                out.push(TAG_QUERY_REQ);
                address.encode_into(out);
                range.encode_into(out);
            }
            Message::QueryResponse(response) => {
                out.push(TAG_QUERY_RESP);
                response.encode_into(out);
            }
            Message::BatchQueryRequest { addresses, range } => {
                out.push(TAG_BATCH_QUERY_REQ);
                addresses.encode_into(out);
                range.encode_into(out);
            }
            Message::BatchQueryResponse(response) => {
                out.push(TAG_BATCH_QUERY_RESP);
                response.encode_into(out);
            }
            Message::GetHeadersFrom { height, tip_hash } => {
                out.push(TAG_GET_HEADERS_FROM);
                height.encode_into(out);
                tip_hash.encode_into(out);
            }
            Message::Busy => out.push(TAG_BUSY),
            Message::Error(error) => {
                out.push(TAG_ERROR);
                error.encode_into(out);
            }
            Message::Hello(info) => {
                out.push(TAG_HELLO);
                info.encode_into(out);
            }
            Message::HelloAck(info) => {
                out.push(TAG_HELLO_ACK);
                info.encode_into(out);
            }
            Message::HeadersDiverged { fork_height } => {
                out.push(TAG_HEADERS_DIVERGED);
                fork_height.encode_into(out);
            }
            Message::PeerBehind { tip_height } => {
                out.push(TAG_PEER_BEHIND);
                tip_height.encode_into(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        2 + match self {
            Message::GetHeaders | Message::Busy => 0,
            Message::Headers(headers) => headers.encoded_len(),
            Message::QueryRequest { address, range } => address.encoded_len() + range.encoded_len(),
            Message::QueryResponse(response) => response.encoded_len(),
            Message::BatchQueryRequest { addresses, range } => {
                addresses.encoded_len() + range.encoded_len()
            }
            Message::BatchQueryResponse(response) => response.encoded_len(),
            Message::GetHeadersFrom { height, tip_hash } => {
                height.encoded_len() + tip_hash.encoded_len()
            }
            Message::Error(error) => error.encoded_len(),
            Message::Hello(info) | Message::HelloAck(info) => info.encoded_len(),
            Message::HeadersDiverged {
                fork_height: height,
            }
            | Message::PeerBehind { tip_height: height } => height.encoded_len(),
        }
    }
}

impl Decodable for Message {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let version = reader.read_u8()?;
        if version != PROTOCOL_VERSION {
            return Err(DecodeError::InvalidValue {
                what: "protocol version",
                found: u64::from(version),
            });
        }
        Ok(match reader.read_u8()? {
            TAG_GET_HEADERS => Message::GetHeaders,
            TAG_HEADERS => Message::Headers(Vec::<BlockHeader>::decode_from(reader)?),
            TAG_QUERY_REQ => Message::QueryRequest {
                address: Address::decode_from(reader)?,
                range: Option::<(u64, u64)>::decode_from(reader)?,
            },
            TAG_QUERY_RESP => Message::QueryResponse(Box::new(QueryResponse::decode_from(reader)?)),
            TAG_BATCH_QUERY_REQ => Message::BatchQueryRequest {
                addresses: Vec::<Address>::decode_from(reader)?,
                range: Option::<(u64, u64)>::decode_from(reader)?,
            },
            TAG_BATCH_QUERY_RESP => {
                Message::BatchQueryResponse(Box::new(BatchQueryResponse::decode_from(reader)?))
            }
            TAG_GET_HEADERS_FROM => Message::GetHeadersFrom {
                height: u64::decode_from(reader)?,
                tip_hash: Hash256::decode_from(reader)?,
            },
            TAG_BUSY => Message::Busy,
            TAG_ERROR => Message::Error(WireError::decode_from(reader)?),
            TAG_HELLO => Message::Hello(HelloInfo::decode_from(reader)?),
            TAG_HELLO_ACK => Message::HelloAck(HelloInfo::decode_from(reader)?),
            TAG_HEADERS_DIVERGED => Message::HeadersDiverged {
                fork_height: u64::decode_from(reader)?,
            },
            TAG_PEER_BEHIND => Message::PeerBehind {
                tip_height: u64::decode_from(reader)?,
            },
            other => {
                return Err(DecodeError::InvalidValue {
                    what: "message tag",
                    found: u64::from(other),
                })
            }
        })
    }
}

impl Message {
    /// Decodes request bytes, mapping every decode failure to the
    /// structured [`WireError`] a server should answer with: an
    /// unsupported version byte, an unknown tag, or (for anything
    /// deeper) a malformed payload.
    ///
    /// # Errors
    ///
    /// [`WireError`] with [`WireErrorCode::UnsupportedVersion`],
    /// [`WireErrorCode::UnknownTag`], or [`WireErrorCode::Malformed`].
    pub fn decode_classified(bytes: &[u8]) -> Result<Message, WireError> {
        decode_exact::<Message>(bytes).map_err(|e| match e {
            DecodeError::InvalidValue {
                what: "protocol version",
                found,
            } => WireError::with_detail(WireErrorCode::UnsupportedVersion, found),
            DecodeError::InvalidValue {
                what: "message tag",
                found,
            } => WireError::with_detail(WireErrorCode::UnknownTag, found),
            _ => WireError::new(WireErrorCode::Malformed),
        })
    }
}

/// The v2 request-id envelope.
///
/// A v2 payload is a byte-level *splice* of a v1 payload:
///
/// ```text
/// v1:  [version=1][tag][body...]
/// v2:  [version=2][request id: LE u64][tag][body...]
/// ```
///
/// Tag and body bytes are identical between the two versions — the
/// property the `v2 ≡ v1 modulo id` proptests pin — so wrapping and
/// unwrapping never re-encode the message, and `Traffic` accounting on
/// a v2 connection differs from v1 by exactly [`V2_HEAD`]` - 1` bytes
/// per message.
pub mod envelope {
    use super::{Message, PROTOCOL_V2, PROTOCOL_VERSION};
    use lvq_codec::Encodable;

    /// Length of the v2 envelope head: one version byte plus the
    /// little-endian `u64` request id.
    pub const V2_HEAD: usize = 9;

    /// Encodes `message` in a v2 envelope carrying `id`.
    pub fn encode_v2(message: &Message, id: u64) -> Vec<u8> {
        wrap_v2(&message.encode(), id)
    }

    /// Splices a v1-encoded payload into a v2 envelope carrying `id`.
    ///
    /// # Panics
    ///
    /// If `v1` is empty (a v1 payload always has a version byte).
    #[must_use]
    pub fn wrap_v2(v1: &[u8], id: u64) -> Vec<u8> {
        assert!(!v1.is_empty(), "a v1 payload always has a version byte");
        let mut out = Vec::with_capacity(v1.len() + V2_HEAD - 1);
        out.push(PROTOCOL_V2);
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&v1[1..]);
        out
    }

    /// Splits a v2 payload into its request id and the equivalent
    /// v1-encoded payload. Returns `None` when the payload is not v2
    /// or too short to carry the envelope head.
    pub fn unwrap_v2(payload: &[u8]) -> Option<(u64, Vec<u8>)> {
        let id = request_id(payload)?;
        let mut v1 = Vec::with_capacity(payload.len() + 1 - V2_HEAD);
        v1.push(PROTOCOL_VERSION);
        v1.extend_from_slice(&payload[V2_HEAD..]);
        Some((id, v1))
    }

    /// The version byte of a payload, if it has one.
    pub fn version(payload: &[u8]) -> Option<u8> {
        payload.first().copied()
    }

    /// The request id of a v2 payload (`None` when not v2 or when the
    /// envelope head is truncated).
    pub fn request_id(payload: &[u8]) -> Option<u64> {
        if payload.len() < V2_HEAD || payload[0] != PROTOCOL_V2 {
            return None;
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&payload[1..V2_HEAD]);
        Some(u64::from_le_bytes(raw))
    }

    /// Whether a v2 payload carries a [`Message::Hello`] — a cheap tag
    /// peek, so a server can intercept negotiation without decoding
    /// every pipelined request twice.
    pub fn is_hello(payload: &[u8]) -> bool {
        request_id(payload).is_some() && payload.get(V2_HEAD) == Some(&super::TAG_HELLO)
    }
}

/// Errors surfaced by the node layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NodeError {
    /// A peer sent bytes that do not decode as a [`Message`].
    Wire(DecodeError),
    /// A peer answered with the wrong message kind.
    UnexpectedMessage,
    /// The full node could not produce a response.
    Prove(ProveError),
    /// The light node rejected the response.
    Verify(QueryError),
    /// The full node's chain does not correspond to a known scheme.
    UnknownScheme,
    /// The headers a full node served do not carry the commitments the
    /// light node's out-of-band scheme configuration requires — the
    /// peer is on a different scheme (or lying about it).
    ConfigMismatch {
        /// Height of the first non-conforming header.
        height: u64,
    },
    /// A transport-level I/O operation failed.
    ///
    /// Carries the [`std::io::ErrorKind`] rather than the
    /// [`std::io::Error`] itself so the error stays `Clone + PartialEq`
    /// like every other node error.
    Io {
        /// What the transport was doing (e.g. `"connect"`).
        context: &'static str,
        /// The kind of I/O failure.
        kind: std::io::ErrorKind,
    },
    /// A peer announced a frame longer than the transport accepts —
    /// either a protocol violation or a resource-exhaustion attempt.
    FrameTooLarge {
        /// The announced payload length.
        len: u64,
        /// The transport's limit.
        max: u64,
    },
    /// The connection closed in the middle of a frame.
    Disconnected {
        /// What the transport was doing when the peer vanished.
        context: &'static str,
    },
    /// A read deadline expired before the peer produced a frame. The
    /// typed sibling of `Io { kind: TimedOut }`: retry classification
    /// and user-facing messages can name the elapsed wait precisely.
    Timeout {
        /// How long the transport waited before giving up.
        elapsed: Duration,
    },
    /// The server answered a request with [`Message::Busy`] — its
    /// dispatch queue or this connection's in-flight window was full.
    /// The request was never processed; back off and retry.
    Busy,
    /// The server answered with a structured [`Message::Error`]
    /// refusal instead of the expected response.
    Server(WireError),
    /// A pipelined response carried a request id that is not in
    /// flight on this transport — the reply stream is corrupt (or the
    /// server is confused); the exchange is refused, never trusted.
    UnknownRequestId {
        /// The id the response carried.
        id: u64,
    },
    /// A pipelined transport was used out of protocol: a submit past
    /// the negotiated in-flight window, or a receive with nothing in
    /// flight. A caller bug, not a peer fault — never retried.
    PipelineViolation {
        /// What the caller did.
        context: &'static str,
    },
    /// The peer's chain diverges from this client's prefix deeper than
    /// the client's reorg budget: every probe down to
    /// `tip - max_reorg_depth` still answered
    /// [`Message::HeadersDiverged`]. Rolling back further would let a
    /// malicious peer rewrite arbitrary history, so the sync is
    /// refused. Not a verification failure — the peer may honestly sit
    /// on a fork this client is configured not to follow.
    ReorgTooDeep {
        /// The deepest height the client was willing to probe.
        floor: u64,
        /// The client's configured reorg budget.
        max_depth: u64,
    },
}

impl NodeError {
    /// Whether retrying the same request can plausibly succeed.
    ///
    /// The split is the client's whole failure model in one method:
    ///
    /// * **Transient** (`true`) — the *transport or scheduling* failed,
    ///   not the protocol: the server shed load ([`NodeError::Busy`]),
    ///   the connection dropped ([`NodeError::Disconnected`]), a read
    ///   deadline passed ([`NodeError::Timeout`], I/O timeouts), the
    ///   server answered after its own deadline
    ///   ([`WireErrorCode::DeadlineExceeded`]), or the reply was
    ///   corrupted in flight ([`NodeError::Wire`],
    ///   [`NodeError::UnexpectedMessage`], [`NodeError::FrameTooLarge`]
    ///   — a garbled frame is refused, never trusted, so asking again
    ///   is sound). Every request in the protocol is a pure read, so
    ///   replaying one is idempotent.
    /// * **Fatal** (`false`) — the *content* failed: a response that
    ///   decoded cleanly but did not verify ([`NodeError::Verify`]),
    ///   headers that break the out-of-band trust anchor
    ///   ([`NodeError::ConfigMismatch`], [`NodeError::UnknownScheme`]),
    ///   a structured refusal the server will deterministically repeat
    ///   (bad version, unknown tag, unanswerable request), or a local
    ///   prover failure. Retrying the same peer cannot help; a caller
    ///   holding several peers should fail over instead (see
    ///   [`crate::query_quorum`]).
    pub fn retryable(&self) -> bool {
        match self {
            NodeError::Busy
            | NodeError::Disconnected { .. }
            | NodeError::Timeout { .. }
            | NodeError::Io { .. }
            | NodeError::Wire(_)
            | NodeError::UnexpectedMessage
            | NodeError::UnknownRequestId { .. }
            | NodeError::FrameTooLarge { .. } => true,
            NodeError::Server(e) => e.code == WireErrorCode::DeadlineExceeded,
            NodeError::Prove(_)
            | NodeError::Verify(_)
            | NodeError::UnknownScheme
            | NodeError::PipelineViolation { .. }
            | NodeError::ReorgTooDeep { .. }
            | NodeError::ConfigMismatch { .. } => false,
        }
    }

    /// Whether this error means a peer served content that failed
    /// verification — the never-retry class that should also mark the
    /// peer unhealthy in a quorum.
    pub fn is_verification_failure(&self) -> bool {
        matches!(
            self,
            NodeError::Verify(_) | NodeError::ConfigMismatch { .. }
        )
    }
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Wire(e) => write!(f, "wire decode error: {e}"),
            NodeError::UnexpectedMessage => f.write_str("peer sent an unexpected message kind"),
            NodeError::Prove(e) => write!(f, "prover failed: {e}"),
            NodeError::Verify(e) => write!(f, "verification failed: {e}"),
            NodeError::UnknownScheme => f.write_str("chain matches no known scheme"),
            NodeError::ConfigMismatch { height } => write!(
                f,
                "header {height} does not carry the commitments the configured scheme requires"
            ),
            NodeError::Io { context, kind } => {
                write!(f, "transport i/o failed ({context}): {kind}")
            }
            NodeError::FrameTooLarge { len, max } => {
                write!(f, "peer announced a {len}-byte frame (limit {max})")
            }
            NodeError::Disconnected { context } => {
                write!(f, "peer disconnected mid-frame ({context})")
            }
            NodeError::Timeout { elapsed } => {
                write!(f, "peer produced no frame within {elapsed:?}")
            }
            NodeError::Busy => f.write_str("server is at capacity (busy); retry later"),
            NodeError::Server(e) => write!(f, "server refused the request: {e}"),
            NodeError::UnknownRequestId { id } => {
                write!(f, "peer answered with unknown request id {id}")
            }
            NodeError::PipelineViolation { context } => {
                write!(f, "pipelined transport misuse: {context}")
            }
            NodeError::ReorgTooDeep { floor, max_depth } => {
                write!(
                    f,
                    "peer diverges below height {floor} (reorg budget {max_depth})"
                )
            }
        }
    }
}

impl Error for NodeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NodeError::Wire(e) => Some(e),
            NodeError::Prove(e) => Some(e),
            NodeError::Verify(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for NodeError {
    fn from(e: DecodeError) -> Self {
        NodeError::Wire(e)
    }
}

impl From<ProveError> for NodeError {
    fn from(e: ProveError) -> Self {
        NodeError::Prove(e)
    }
}

impl From<QueryError> for NodeError {
    fn from(e: QueryError) -> Self {
        NodeError::Verify(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvq_codec::decode_exact;

    #[test]
    fn message_roundtrip() {
        let messages = vec![
            Message::GetHeaders,
            Message::Headers(Vec::new()),
            Message::QueryRequest {
                address: Address::new("1Probe"),
                range: None,
            },
            Message::QueryRequest {
                address: Address::new("1Probe"),
                range: Some((3, 17)),
            },
            Message::BatchQueryRequest {
                addresses: vec![Address::new("1Probe"), Address::new("1Other")],
                range: None,
            },
            Message::BatchQueryRequest {
                addresses: vec![Address::new("1Probe")],
                range: Some((2, 9)),
            },
            Message::GetHeadersFrom {
                height: 42,
                tip_hash: Hash256::hash(b"tip"),
            },
            Message::GetHeadersFrom {
                height: 0,
                tip_hash: Hash256::ZERO,
            },
            Message::HeadersDiverged { fork_height: 17 },
            Message::PeerBehind { tip_height: 9 },
            Message::Busy,
            Message::Error(WireError::with_detail(WireErrorCode::UnknownTag, 200)),
            Message::Error(WireError::new(WireErrorCode::DeadlineExceeded)),
            Message::Error(WireError::with_detail(WireErrorCode::DuplicateRequestId, 7)),
            Message::Hello(HelloInfo {
                max_in_flight: 32,
                features: 0,
            }),
            Message::HelloAck(HelloInfo {
                max_in_flight: 8,
                features: 0,
            }),
        ];
        for m in messages {
            let bytes = m.encode();
            assert_eq!(bytes.len(), m.encoded_len());
            assert_eq!(bytes[0], PROTOCOL_VERSION);
            assert_eq!(decode_exact::<Message>(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn bad_version_rejected() {
        // Byte 200 is read as the protocol version, not a tag.
        assert!(decode_exact::<Message>(&[200]).is_err());
        assert_eq!(
            Message::decode_classified(&[200, 0]),
            Err(WireError::with_detail(
                WireErrorCode::UnsupportedVersion,
                200
            ))
        );
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(decode_exact::<Message>(&[PROTOCOL_VERSION, 200]).is_err());
        assert_eq!(
            Message::decode_classified(&[PROTOCOL_VERSION, 200]),
            Err(WireError::with_detail(WireErrorCode::UnknownTag, 200))
        );
    }

    #[test]
    fn retry_classification_splits_transport_from_content() {
        let transient = [
            NodeError::Busy,
            NodeError::Disconnected { context: "read" },
            NodeError::Timeout {
                elapsed: Duration::from_millis(200),
            },
            NodeError::Io {
                context: "connect",
                kind: std::io::ErrorKind::ConnectionRefused,
            },
            NodeError::Wire(DecodeError::UnexpectedEof {
                needed: 4,
                remaining: 0,
            }),
            NodeError::UnexpectedMessage,
            NodeError::FrameTooLarge { len: 9, max: 4 },
            NodeError::Server(WireError::new(WireErrorCode::DeadlineExceeded)),
            NodeError::UnknownRequestId { id: 7 },
        ];
        for e in transient {
            assert!(e.retryable(), "{e} must be retryable");
            assert!(!e.is_verification_failure(), "{e}");
        }
        let fatal = [
            NodeError::UnknownScheme,
            NodeError::ConfigMismatch { height: 3 },
            NodeError::ReorgTooDeep {
                floor: 10,
                max_depth: 4,
            },
            NodeError::PipelineViolation {
                context: "submit past the negotiated window",
            },
            NodeError::Server(WireError::new(WireErrorCode::Unanswerable)),
            NodeError::Server(WireError::with_detail(WireErrorCode::UnsupportedVersion, 9)),
        ];
        for e in fatal {
            assert!(!e.retryable(), "{e} must be fatal");
        }
        assert!(NodeError::ConfigMismatch { height: 3 }.is_verification_failure());
        // A too-deep fork is a policy refusal, not proof of dishonesty.
        assert!(!NodeError::ReorgTooDeep {
            floor: 10,
            max_depth: 4
        }
        .is_verification_failure());
    }

    #[test]
    fn v2_envelope_is_a_byte_splice_of_v1() {
        let m = Message::QueryRequest {
            address: Address::new("1Probe"),
            range: Some((3, 17)),
        };
        let v1 = m.encode();
        let v2 = envelope::encode_v2(&m, 0xDEAD_BEEF_0BAD_F00D);
        assert_eq!(v2[0], PROTOCOL_V2);
        assert_eq!(v2.len(), v1.len() + envelope::V2_HEAD - 1);
        // Tag and body bytes are identical: v2 ≡ v1 modulo the id.
        assert_eq!(&v2[envelope::V2_HEAD..], &v1[1..]);
        assert_eq!(envelope::request_id(&v2), Some(0xDEAD_BEEF_0BAD_F00D));
        let (id, back) = envelope::unwrap_v2(&v2).unwrap();
        assert_eq!(id, 0xDEAD_BEEF_0BAD_F00D);
        assert_eq!(back, v1);
        // A v1 payload never unwraps; a truncated v2 head never unwraps.
        assert_eq!(envelope::unwrap_v2(&v1), None);
        assert_eq!(envelope::unwrap_v2(&v2[..8]), None);
        // The v1-strict classifier refuses v2 with a structured error,
        // which is exactly what a v1-only peer answers a v2 Hello
        // with (the client surfaces it as `NodeError::Server`).
        assert_eq!(
            Message::decode_classified(&v2),
            Err(WireError::with_detail(
                WireErrorCode::UnsupportedVersion,
                u64::from(PROTOCOL_V2)
            ))
        );
    }

    #[test]
    fn deep_decode_faults_classify_as_malformed() {
        // Version and tag fine, body truncated.
        assert_eq!(
            Message::decode_classified(&[PROTOCOL_VERSION, TAG_QUERY_REQ, 0xFF]),
            Err(WireError::new(WireErrorCode::Malformed))
        );
        // Trailing garbage after a complete message is also malformed.
        let mut bytes = Message::GetHeaders.encode();
        bytes.push(0);
        assert_eq!(
            Message::decode_classified(&bytes),
            Err(WireError::new(WireErrorCode::Malformed))
        );
    }
}
