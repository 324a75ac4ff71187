//! The TCP transport: length-prefixed frames over a real socket.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::frame::{read_frame, write_frame, MAX_FRAME_LEN};
use crate::message::NodeError;
use crate::pipe::Traffic;
use crate::transport::Transport;

/// Socket options for dialing a peer: how long to wait for the
/// connection itself, and the read/write timeouts applied once it is
/// up. The defaults (`None` everywhere) keep the OS behaviour —
/// which, for a black-holed peer, can mean hanging for minutes, so
/// callers that need to fail fast set [`TcpOptions::with_connect_timeout`].
///
/// `#[non_exhaustive]`: construct with [`TcpOptions::default`] and
/// chain `with_*` setters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct TcpOptions {
    /// Give up dialing after this long (`None` = OS default).
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout once connected (`None` = block forever).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout once connected (`None` = block forever).
    pub write_timeout: Option<Duration>,
}

impl TcpOptions {
    /// Alias for [`TcpOptions::default`], reading better at the head
    /// of a `with_*` chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the dial timeout.
    #[must_use]
    pub fn with_connect_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// Sets the post-connect read timeout.
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the post-connect write timeout.
    #[must_use]
    pub fn with_write_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.write_timeout = timeout;
        self
    }
}

/// A [`Transport`] over one TCP connection to a [`crate::NodeServer`].
///
/// Frames requests and responses with a 4-byte length prefix
/// ([`crate::frame`]). [`Traffic`] counts payload bytes only — the
/// prefix is transport overhead — so measurements over TCP agree
/// byte-for-byte with [`crate::LocalTransport`].
///
/// The connection is persistent: one transport can carry any number of
/// sequential exchanges, which is what lets a server-side connection
/// thread keep its warm view of the shared caches.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    cumulative: Traffic,
    exchanges: u64,
}

impl TcpTransport {
    /// Connects to a serving full node.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::Io`] if the connection cannot be
    /// established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NodeError> {
        Self::connect_with(addr, TcpOptions::default())
    }

    /// Connects to a serving full node with explicit dial and socket
    /// timeouts, so a black-holed peer fails fast instead of hanging
    /// for the OS default.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::Io`] if no resolved address connects
    /// within the dial timeout, or if the socket rejects a timeout
    /// option.
    pub fn connect_with(addr: impl ToSocketAddrs, options: TcpOptions) -> Result<Self, NodeError> {
        let io_err = |context: &'static str| {
            move |e: std::io::Error| NodeError::Io {
                context,
                kind: e.kind(),
            }
        };
        let stream = match options.connect_timeout {
            None => TcpStream::connect(addr).map_err(io_err("connect"))?,
            Some(timeout) => {
                // `connect_timeout` takes one resolved address; try
                // each in order, like `TcpStream::connect` does.
                let addrs = addr.to_socket_addrs().map_err(io_err("connect"))?;
                let mut last = None;
                let mut stream = None;
                for resolved in addrs {
                    match TcpStream::connect_timeout(&resolved, timeout) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match stream {
                    Some(s) => s,
                    None => {
                        return Err(last.map_or(
                            NodeError::Io {
                                context: "connect",
                                kind: std::io::ErrorKind::AddrNotAvailable,
                            },
                            |e| io_err("connect")(e),
                        ))
                    }
                }
            }
        };
        stream
            .set_read_timeout(options.read_timeout)
            .and_then(|()| stream.set_write_timeout(options.write_timeout))
            .map_err(io_err("set timeouts"))?;
        Ok(TcpTransport::from_stream(stream))
    }

    /// Wraps an already-connected stream.
    pub fn from_stream(stream: TcpStream) -> Self {
        // A frame is written as header + payload; without nodelay,
        // Nagle holds the payload until the header is acknowledged
        // (tens of milliseconds per exchange on loopback). Best-effort:
        // a socket that rejects the option still works, just slower.
        let _ = stream.set_nodelay(true);
        TcpTransport {
            stream,
            cumulative: Traffic::default(),
            exchanges: 0,
        }
    }

    /// The underlying stream, for protocol negotiation preambles
    /// ([`crate::PipelinedTcpTransport::negotiate_on`]).
    pub(crate) fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Folds out-of-band exchange traffic (e.g. the negotiation
    /// preamble) into this transport's cumulative meters.
    pub(crate) fn record_extra(&mut self, traffic: Traffic) {
        self.cumulative.request_bytes += traffic.request_bytes;
        self.cumulative.response_bytes += traffic.response_bytes;
        self.exchanges += 1;
    }

    /// Decomposes into the raw stream and the accumulated meters.
    pub(crate) fn into_parts(self) -> (TcpStream, Traffic, u64) {
        (self.stream, self.cumulative, self.exchanges)
    }
}

impl Transport for TcpTransport {
    fn exchange(&mut self, request: &[u8]) -> Result<(Vec<u8>, Traffic), NodeError> {
        write_frame(&mut self.stream, request)?;
        let response = read_frame(&mut self.stream, MAX_FRAME_LEN)?;
        let traffic = Traffic {
            request_bytes: request.len() as u64,
            response_bytes: response.len() as u64,
        };
        self.cumulative.request_bytes += traffic.request_bytes;
        self.cumulative.response_bytes += traffic.response_bytes;
        self.exchanges += 1;
        Ok((response, traffic))
    }

    fn cumulative_traffic(&self) -> Traffic {
        self.cumulative
    }

    fn exchanges(&self) -> u64 {
        self.exchanges
    }
}
