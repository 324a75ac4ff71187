//! Length-prefixed framing for the TCP transport.
//!
//! A frame is a little-endian `u32` payload length followed by the
//! payload. The prefix is transport overhead and is **never** counted
//! in [`crate::Traffic`] — byte accounting must agree with the
//! in-process [`crate::LocalTransport`] exactly.

use std::io::{ErrorKind, Read, Write};
use std::time::Instant;

use crate::message::NodeError;

/// Default upper bound on a frame payload (64 MiB) — far above any
/// response the reproduction produces, low enough that a hostile
/// length prefix cannot make a peer allocate unbounded memory.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

fn io_error(context: &'static str, e: &std::io::Error) -> NodeError {
    NodeError::Io {
        context,
        kind: e.kind(),
    }
}

/// Writes one frame (length prefix + payload) and flushes.
///
/// # Errors
///
/// Returns [`NodeError::FrameTooLarge`] for payloads over `u32::MAX`
/// bytes and [`NodeError::Io`] for socket failures.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> Result<(), NodeError> {
    let len = u32::try_from(payload.len()).map_err(|_| NodeError::FrameTooLarge {
        len: payload.len() as u64,
        max: u64::from(u32::MAX),
    })?;
    // One write, so a small frame reaches the peer whole: a sender
    // that loses its core between a header write and a payload write
    // looks, to a server's partial-frame timeout, like a peer that went
    // silent mid-frame.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    writer
        .write_all(&frame)
        .map_err(|e| io_error("write frame", &e))?;
    writer.flush().map_err(|e| io_error("flush frame", &e))?;
    Ok(())
}

/// Reads one frame, rejecting announced lengths above `max_len`.
///
/// # Errors
///
/// Returns [`NodeError::FrameTooLarge`] for oversized announcements,
/// [`NodeError::Disconnected`] if the peer closes mid-frame (or before
/// the first header byte), [`NodeError::Timeout`] (with the measured
/// wait) if the read deadline expires before the first header byte —
/// the peer is idle, and a retrying client wants to know that, not a
/// generic I/O failure — and [`NodeError::Io`] for other socket
/// failures, including a read timeout striking mid-frame.
pub fn read_frame(reader: &mut impl Read, max_len: u32) -> Result<Vec<u8>, NodeError> {
    let started = Instant::now();
    match read_frame_or_event(reader, max_len)? {
        FrameEvent::Frame(payload) => Ok(payload),
        FrameEvent::Eof => Err(NodeError::Disconnected {
            context: "read frame header",
        }),
        FrameEvent::Idle => Err(NodeError::Timeout {
            elapsed: started.elapsed(),
        }),
    }
}

/// What one framed read produced, distinguishing the benign outcomes a
/// server loop must tolerate from real frames.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame.
    Frame(Vec<u8>),
    /// The peer closed cleanly *between* frames (EOF before the first
    /// header byte).
    Eof,
    /// The read timed out before the first header byte arrived — the
    /// connection is merely idle, not broken.
    Idle,
}

/// Reads one frame, reporting clean EOF and idle timeouts as events
/// instead of errors — the read primitive for server connection loops,
/// which poll with a read timeout so they can notice a stop flag.
///
/// Once the first header byte has arrived the frame is committed:
/// timeouts and EOF from that point on are hard errors
/// ([`NodeError::Io`] / [`NodeError::Disconnected`]), because the peer
/// stalled or vanished mid-frame.
///
/// # Errors
///
/// As [`read_frame`], except the two benign cases above.
pub fn read_frame_or_event(reader: &mut impl Read, max_len: u32) -> Result<FrameEvent, NodeError> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < header.len() {
        match reader.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(FrameEvent::Eof),
            Ok(0) => {
                return Err(NodeError::Disconnected {
                    context: "read frame header",
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e)
                if got == 0
                    && (e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut) =>
            {
                return Ok(FrameEvent::Idle)
            }
            Err(e) => return Err(io_error("read frame header", &e)),
        }
    }
    let len = u32::from_le_bytes(header);
    if len > max_len {
        return Err(NodeError::FrameTooLarge {
            len: u64::from(len),
            max: u64::from(max_len),
        });
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0usize;
    while filled < payload.len() {
        match reader.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(NodeError::Disconnected {
                    context: "read frame payload",
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_error("read frame payload", &e)),
        }
    }
    Ok(FrameEvent::Frame(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[7u8; 300]).unwrap();
        let mut reader = wire.as_slice();
        assert_eq!(read_frame(&mut reader, MAX_FRAME_LEN).unwrap(), b"hello");
        assert_eq!(read_frame(&mut reader, MAX_FRAME_LEN).unwrap(), b"");
        assert_eq!(read_frame(&mut reader, MAX_FRAME_LEN).unwrap(), [7u8; 300]);
        assert!(matches!(
            read_frame_or_event(&mut reader, MAX_FRAME_LEN).unwrap(),
            FrameEvent::Eof
        ));
    }

    #[test]
    fn oversized_announcement_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut wire.as_slice(), 1024).unwrap_err(),
            NodeError::FrameTooLarge {
                len: u64::from(u32::MAX),
                max: 1024
            }
        );
    }

    #[test]
    fn idle_timeout_is_typed() {
        // A reader whose deadline has already expired: the client-side
        // read surfaces a typed Timeout carrying the measured wait.
        struct TimedOutReader;
        impl Read for TimedOutReader {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(ErrorKind::TimedOut.into())
            }
        }
        assert!(matches!(
            read_frame(&mut TimedOutReader, MAX_FRAME_LEN).unwrap_err(),
            NodeError::Timeout { .. }
        ));
        // Mid-frame timeouts stay hard I/O errors: the stream cannot be
        // resynchronised once header bytes have been consumed.
        struct HeaderThenTimeout(bool);
        impl Read for HeaderThenTimeout {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0 {
                    Err(ErrorKind::TimedOut.into())
                } else {
                    self.0 = true;
                    buf[0] = 5;
                    Ok(1)
                }
            }
        }
        assert!(matches!(
            read_frame(&mut HeaderThenTimeout(false), MAX_FRAME_LEN).unwrap_err(),
            NodeError::Io { .. }
        ));
    }

    #[test]
    fn truncation_is_a_disconnect() {
        // Truncated header.
        let mut partial: &[u8] = &[5, 0];
        assert_eq!(
            read_frame(&mut partial, MAX_FRAME_LEN).unwrap_err(),
            NodeError::Disconnected {
                context: "read frame header"
            }
        );
        // Announced 5 bytes, delivered 2.
        let mut wire = Vec::new();
        wire.extend_from_slice(&5u32.to_le_bytes());
        wire.extend_from_slice(b"ab");
        assert_eq!(
            read_frame(&mut wire.as_slice(), MAX_FRAME_LEN).unwrap_err(),
            NodeError::Disconnected {
                context: "read frame payload"
            }
        );
    }
}
