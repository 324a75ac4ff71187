//! A self-healing TCP transport: re-dial, replay, carry on.
//!
//! [`ReconnectingTcpTransport`] wraps the address of a
//! [`crate::NodeServer`] rather than one socket. When an exchange dies
//! a connection-shaped death — the peer vanished
//! ([`NodeError::Disconnected`]), went quiet ([`NodeError::Timeout`]),
//! or the socket failed ([`NodeError::Io`]) — it drops the dead
//! connection, re-dials (with a bounded number of attempts and a fixed
//! pause between them), and **replays the in-flight request** on the
//! fresh connection.
//!
//! Replaying is safe because every message a light node sends is a
//! pure read: headers and proofs depend only on the peer's chain, so
//! asking twice returns the same answer (or a newer, still-verifiable
//! one if the chain grew — [`crate::LightNode::run_with_retry`]
//! re-checks the tip after a reconnect for exactly that case).
//!
//! Everything else passes through untouched: [`NodeError::Busy`] and
//! server refusals belong to the retry policy above, and verification
//! failures to the caller — a fresh socket cannot fix a bad proof.

use std::net::ToSocketAddrs;
use std::time::Duration;

use crate::message::NodeError;
use crate::pipe::Traffic;
use crate::tcp::{TcpOptions, TcpTransport};
use crate::transport::Transport;

/// A [`Transport`] that survives its connection: dead sockets are
/// re-dialed and the in-flight request replayed.
///
/// Traffic and exchange counts span connections — the accounting is
/// per *peer*, not per socket, so a run interrupted by a server
/// restart reports the same byte totals a fault-free run does plus
/// whatever the replay itself moved.
#[derive(Debug)]
pub struct ReconnectingTcpTransport {
    addr: String,
    conn: Option<TcpTransport>,
    options: TcpOptions,
    max_redials: u32,
    redial_delay: Duration,
    cumulative: Traffic,
    exchanges: u64,
    reconnects: u64,
}

impl ReconnectingTcpTransport {
    /// Connects to a serving full node at `addr` (kept for re-dialing).
    ///
    /// Defaults: 3 re-dials per exchange, 20ms apart, no socket
    /// timeouts.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::Io`] if the initial connection cannot be
    /// established.
    pub fn connect(addr: impl Into<String>) -> Result<Self, NodeError> {
        Self::connect_with(addr, TcpOptions::default())
    }

    /// Connects with explicit socket options; the connect timeout
    /// applies to the initial dial *and every re-dial*, so a server
    /// that black-holes mid-run cannot stall an exchange for the OS
    /// connect default.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::Io`] if the initial connection cannot be
    /// established within the options' connect timeout.
    pub fn connect_with(addr: impl Into<String>, options: TcpOptions) -> Result<Self, NodeError> {
        let mut transport = ReconnectingTcpTransport {
            addr: addr.into(),
            conn: None,
            options,
            max_redials: 3,
            redial_delay: Duration::from_millis(20),
            cumulative: Traffic::default(),
            exchanges: 0,
            reconnects: 0,
        };
        transport.conn = Some(transport.dial()?);
        Ok(transport)
    }

    /// Applies read/write timeouts to the current and every future
    /// connection. `None` blocks indefinitely.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::Io`] if the live socket rejects the option.
    pub fn set_timeouts(
        &mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> Result<(), NodeError> {
        self.options = self
            .options
            .with_read_timeout(read)
            .with_write_timeout(write);
        if let Some(conn) = &mut self.conn {
            conn.set_timeouts(read, write)?;
        }
        Ok(())
    }

    /// Sets how persistently one exchange re-dials: up to `max_redials`
    /// fresh connections, `delay` apart.
    pub fn set_redial(&mut self, max_redials: u32, delay: Duration) {
        self.max_redials = max_redials;
        self.redial_delay = delay;
    }

    /// The address this transport (re)connects to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// How many times a dead connection was replaced so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Whether a connection is currently held (it may still be dead on
    /// the wire — TCP only tells on use).
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Hangs up politely. The next exchange re-dials lazily (and counts
    /// in [`reconnects`](Self::reconnects) like any other replacement).
    ///
    /// Closing from the client side matters operationally: the client,
    /// as the active closer, absorbs the `TIME_WAIT` state, so a server
    /// restarted immediately afterwards can rebind its port.
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    fn dial(&self) -> Result<TcpTransport, NodeError> {
        let addrs = self
            .addr
            .to_socket_addrs()
            .map_err(|e| NodeError::Io {
                context: "resolve address",
                kind: e.kind(),
            })?
            .collect::<Vec<_>>();
        TcpTransport::connect_with(addrs.as_slice(), self.options)
    }

    /// Whether `error` means the *connection* (not the request) failed,
    /// so a fresh socket plus a replay can fix it.
    fn connection_failed(error: &NodeError) -> bool {
        matches!(
            error,
            NodeError::Disconnected { .. } | NodeError::Timeout { .. } | NodeError::Io { .. }
        )
    }
}

impl Transport for ReconnectingTcpTransport {
    fn exchange(&mut self, request: &[u8]) -> Result<(Vec<u8>, Traffic), NodeError> {
        let mut redials_left = self.max_redials;
        loop {
            // (Re)connect lazily: the previous exchange may have left
            // the connection torn down.
            let conn = match &mut self.conn {
                Some(conn) => conn,
                None => match self.dial() {
                    Ok(conn) => {
                        self.reconnects += 1;
                        self.conn.insert(conn)
                    }
                    Err(e) => {
                        if redials_left == 0 {
                            return Err(e);
                        }
                        redials_left -= 1;
                        std::thread::sleep(self.redial_delay);
                        continue;
                    }
                },
            };
            match conn.exchange(request) {
                Ok((reply, traffic)) => {
                    self.cumulative.request_bytes += traffic.request_bytes;
                    self.cumulative.response_bytes += traffic.response_bytes;
                    self.exchanges += 1;
                    return Ok((reply, traffic));
                }
                Err(e) if Self::connection_failed(&e) => {
                    // The socket is gone or desynchronized: drop it and
                    // replay on a fresh one (all requests are pure
                    // reads, so the replay is idempotent).
                    self.conn = None;
                    if redials_left == 0 {
                        return Err(e);
                    }
                    redials_left -= 1;
                    std::thread::sleep(self.redial_delay);
                }
                Err(e) => {
                    // An oversized frame leaves unread payload bytes in
                    // the stream; no later frame would parse. Start
                    // clean next exchange, but surface the error — it
                    // is about the response, not the connection.
                    if matches!(e, NodeError::FrameTooLarge { .. }) {
                        self.conn = None;
                    }
                    return Err(e);
                }
            }
        }
    }

    fn cumulative_traffic(&self) -> Traffic {
        self.cumulative
    }

    fn exchanges(&self) -> u64 {
        self.exchanges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame_or_event, write_frame, FrameEvent, MAX_FRAME_LEN};
    use std::net::TcpListener;

    /// Serves `conns` connections, each answering `frames_per_conn`
    /// echo frames and then hanging up mid-session.
    fn flaky_echo_server(
        conns: usize,
        frames_per_conn: usize,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for _ in 0..conns {
                let (mut stream, _) = listener.accept().unwrap();
                for _ in 0..frames_per_conn {
                    match read_frame_or_event(&mut stream, MAX_FRAME_LEN) {
                        Ok(FrameEvent::Frame(payload)) => {
                            write_frame(&mut stream, &payload).unwrap();
                        }
                        _ => break,
                    }
                }
                // Dropping the stream hangs up on the client.
            }
        });
        (addr, handle)
    }

    #[test]
    fn replays_in_flight_request_across_a_hangup() {
        // Each connection serves exactly one frame, so every second
        // exchange hits a dead socket and must reconnect + replay.
        let (addr, server) = flaky_echo_server(3, 1);
        let mut transport = ReconnectingTcpTransport::connect(&addr).unwrap();
        transport.set_redial(3, Duration::from_millis(5));
        for i in 0..3u8 {
            let (reply, traffic) = transport.exchange(&[i; 5]).unwrap();
            assert_eq!(reply, [i; 5], "exchange {i} replayed correctly");
            assert_eq!(traffic.request_bytes, 5);
        }
        assert_eq!(transport.exchanges(), 3);
        assert_eq!(transport.cumulative_traffic().total(), 30);
        assert_eq!(
            transport.reconnects(),
            2,
            "exchanges 2 and 3 each found a dead socket"
        );
        server.join().unwrap();
    }

    #[test]
    fn gives_up_after_the_redial_cap() {
        // One connection, one frame — then the server is gone for good.
        let (addr, server) = flaky_echo_server(1, 1);
        let mut transport = ReconnectingTcpTransport::connect(&addr).unwrap();
        transport.set_redial(2, Duration::from_millis(1));
        assert!(transport.exchange(b"ok").is_ok());
        server.join().unwrap();
        let err = transport.exchange(b"dead peer").unwrap_err();
        assert!(
            matches!(
                err,
                NodeError::Disconnected { .. } | NodeError::Io { .. } | NodeError::Timeout { .. }
            ),
            "exhausted redials surface the last connection error, got {err}"
        );
        assert!(!transport.is_connected());
    }
}
