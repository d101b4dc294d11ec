//! The wire format: length-prefixed frames multiplexing many sessions
//! over one byte stream.
//!
//! Every frame is `u32` little-endian body length followed by the body;
//! every body starts with a one-byte frame type and the `u64` session id
//! it belongs to. Protocol messages ([`WireFrame::Msg`]) carry the
//! sender's causal depth, the payload's **exact bit length**, and the
//! payload packed into `ceil(bits/8)` bytes — so the receiving channel
//! can meter precisely the bits the in-process
//! [`Endpoint`](intersect_comm::chan::Endpoint) would have metered, never
//! a byte-rounded approximation.
//!
//! ```text
//! +--------------+----------------------------------------------+
//! | len: u32 LE  | body (len bytes)                             |
//! +--------------+----------------------------------------------+
//! body := type: u8 | session: u64 LE | type-specific fields
//!
//! Open    1  line: UTF-8 SessionRequest line ("id=.. n=.. k=..")
//! Accept  2  protocol: UTF-8 ProtocolChoice name
//! Msg     3  depth: u64 | payload_bits: u64 | payload: ceil(bits/8) bytes
//! Fin     4  (empty) — sender's half of the session is over
//! Done    5  ChannelStats: 5 × u64 | result_len: u32 | elems: u64 × len
//! Error   6  message: UTF-8
//! Goodbye 7  (empty, session 0) — connection-level farewell on drain
//! MpMsg   8  peer: u32 | depth: u64 | payload_bits: u64 | payload
//! MpOut   9  has_set: u8 | (set_len: u32 | elems)? | verdict: u8
//! MpDone 10  holder: u32 | result_len: u32 | elems | verdict_count: u32
//!            | verdicts: u8 × count | players: u32 | bits_sent: u64 × m
//!            | bits_received: u64 × m | messages: u64 | rounds: u64
//! ```
//!
//! The multiparty frames (8–10) extend the session plane to m-party
//! sessions where the client drives one player of an m-player mesh the
//! server hosts: an Open whose request line carries `players=`/`mp=`
//! keys (the party-count/player-index tag) negotiates such a session,
//! [`WireFrame::MpMsg`] is its metered protocol message with an explicit
//! peer tag for pairwise-link routing, [`WireFrame::MpOut`] delivers the
//! driven player's final output, and [`WireFrame::MpDone`] returns the
//! folded session outcome with the exact per-player
//! [`NetworkReport`].
//!
//! Decoding is total: any byte sequence either yields a frame or a
//! descriptive [`FrameError`]; malformed input (oversized length prefix,
//! truncated body, unknown type, nonzero padding bits, trailing garbage)
//! must never panic. The property tests in `tests/frame_roundtrip.rs`
//! drive both directions.

use intersect_comm::bits::BitBuf;
use intersect_comm::stats::{ChannelStats, NetworkReport};
use std::io::{self, Read};

/// Hard cap on the body length a peer may announce. Protocol payloads
/// are a few kilobits (the whole point of the paper is that they are
/// small); 16 MiB leaves three orders of magnitude of headroom while
/// bounding what a broken or hostile peer can make us buffer.
pub const MAX_BODY_BYTES: u32 = 1 << 24;

/// Frame type tags on the wire.
const T_OPEN: u8 = 1;
const T_ACCEPT: u8 = 2;
const T_MSG: u8 = 3;
const T_FIN: u8 = 4;
const T_DONE: u8 = 5;
const T_ERROR: u8 = 6;
const T_GOODBYE: u8 = 7;
const T_MP_MSG: u8 = 8;
const T_MP_OUT: u8 = 9;
const T_MP_DONE: u8 = 10;

/// Cap on the party count a multiparty frame may announce; mirrors the
/// request-side cap in `MultipartyRequest::validate`.
const MAX_PLAYERS: u32 = 4096;

/// One frame of the session-multiplexed wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame {
    /// Client → server: open session `session` described by a
    /// [`SessionRequest`](intersect_engine::SessionRequest) line.
    Open {
        /// Connection-scoped session id chosen by the client.
        session: u64,
        /// The request in
        /// [`SessionRequest::to_line`](intersect_engine::SessionRequest::to_line)
        /// format.
        line: String,
    },
    /// Server → client: session accepted and routed to `protocol`.
    Accept {
        /// Echoed session id.
        session: u64,
        /// The routed [`ProtocolChoice`](intersect_core::api::ProtocolChoice),
        /// in its `FromStr`-parseable rendering.
        protocol: String,
    },
    /// A protocol message: the only metered frame.
    Msg {
        /// Session this payload belongs to.
        session: u64,
        /// Sender's causal depth (`clock + 1` at send time), exactly as
        /// the in-process [`Endpoint`](intersect_comm::chan::Endpoint)
        /// stamps it.
        depth: u64,
        /// The payload, preserving its exact bit length.
        payload: BitBuf,
    },
    /// The sender's half of `session` is over; unmetered, mirrors the
    /// in-process `Frame::Fin`.
    Fin {
        /// Session being finished.
        session: u64,
    },
    /// Server → client: the server half completed. Carries the server
    /// endpoint's final counters (so the client can assemble the exact
    /// [`CostReport`](intersect_comm::stats::CostReport) via
    /// `assemble_report`) and the server's output set for verification.
    Done {
        /// Echoed session id.
        session: u64,
        /// The server-side channel counters at completion.
        stats: ChannelStats,
        /// The server party's computed intersection.
        result: Vec<u64>,
    },
    /// A session-level failure; `session == 0` means connection-level.
    Error {
        /// Session the error pertains to (0 for the connection).
        session: u64,
        /// Human-readable description.
        message: String,
    },
    /// Connection-level farewell: the sender will initiate no further
    /// sessions and the receiver should expect the stream to close once
    /// in-flight sessions drain.
    Goodbye,
    /// A multiparty protocol message: metered exactly like
    /// [`WireFrame::Msg`], plus the peer index that routes it onto the
    /// right pairwise link of the server-hosted mesh.
    MpMsg {
        /// Session this payload belongs to.
        session: u64,
        /// The mesh player on the other end of the pairwise link.
        peer: u32,
        /// Sender's causal depth, exactly as the in-process
        /// [`Link`](intersect_comm::net::Link) stamps it.
        depth: u64,
        /// The payload, preserving its exact bit length.
        payload: BitBuf,
    },
    /// Client → server: the driven player's half of the multiparty
    /// session finished with this output (it doubles as the session's
    /// Fin: the proxy player returns it into the mesh).
    MpOut {
        /// Session being finished.
        session: u64,
        /// The driven player's computed intersection, if it holds one.
        intersection: Option<Vec<u64>>,
        /// The driven player's disjointness verdict, if any.
        verdict: Option<bool>,
    },
    /// Server → client: the whole m-party session completed. Carries the
    /// folded outcome plus the exact per-player accounting, so the
    /// client's view is bit-identical to an in-process `LinkSet` run.
    MpDone {
        /// Echoed session id.
        session: u64,
        /// The player left holding the intersection, if any.
        holder: Option<u32>,
        /// The holder's computed global intersection.
        result: Vec<u64>,
        /// Per-player disjointness verdicts (empty slots for players
        /// that produce none).
        verdicts: Vec<Option<bool>>,
        /// Exact per-player communication and round accounting.
        report: NetworkReport,
    },
}

impl WireFrame {
    /// The session id this frame addresses (0 for [`WireFrame::Goodbye`]).
    pub fn session(&self) -> u64 {
        match self {
            WireFrame::Open { session, .. }
            | WireFrame::Accept { session, .. }
            | WireFrame::Msg { session, .. }
            | WireFrame::Fin { session }
            | WireFrame::Done { session, .. }
            | WireFrame::Error { session, .. }
            | WireFrame::MpMsg { session, .. }
            | WireFrame::MpOut { session, .. }
            | WireFrame::MpDone { session, .. } => *session,
            WireFrame::Goodbye => 0,
        }
    }
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The stream ended inside a frame (a clean end *between* frames is
    /// reported as `Ok(None)` by [`read_frame`]).
    Truncated,
    /// The length prefix exceeded [`MAX_BODY_BYTES`].
    Oversized {
        /// The announced body length.
        len: u32,
    },
    /// The body violated the format (bad type tag, short body, nonzero
    /// padding bits, non-UTF-8 text, trailing bytes…).
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport i/o failure: {e}"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Oversized { len } => {
                write!(f, "frame body of {len} bytes exceeds cap {MAX_BODY_BYTES}")
            }
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a payload as `bits: u64 | packed bytes`, preserving the exact
/// bit length (the packing both [`WireFrame::Msg`] and
/// [`WireFrame::MpMsg`] use).
fn put_payload(body: &mut Vec<u8>, payload: &BitBuf) {
    put_u64(body, payload.len() as u64);
    let bytes = payload.len().div_ceil(8);
    body.reserve(bytes);
    let mut written = 0usize;
    for word in payload.words() {
        let take = (bytes - written).min(8);
        body.extend_from_slice(&word.to_le_bytes()[..take]);
        written += take;
        if written == bytes {
            break;
        }
    }
}

/// Encodes a tri-state verdict in one byte.
fn verdict_code(v: Option<bool>) -> u8 {
    match v {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    }
}

/// Encodes one frame, including its length prefix.
pub fn encode(frame: &WireFrame) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_into(&mut out, frame);
    out
}

/// Appends one encoded frame (length prefix included) to `out` — the
/// form a connection's write buffer uses, so several frames share one
/// allocation and one `write`. The prefix is reserved first and patched
/// once the body length is known.
pub(crate) fn encode_into(out: &mut Vec<u8>, frame: &WireFrame) {
    let prefix_at = out.len();
    put_u32(out, 0);
    let body = &mut *out;
    match frame {
        WireFrame::Open { session, line } => {
            body.push(T_OPEN);
            put_u64(body, *session);
            body.extend_from_slice(line.as_bytes());
        }
        WireFrame::Accept { session, protocol } => {
            body.push(T_ACCEPT);
            put_u64(body, *session);
            body.extend_from_slice(protocol.as_bytes());
        }
        WireFrame::Msg {
            session,
            depth,
            payload,
        } => {
            body.push(T_MSG);
            put_u64(body, *session);
            put_u64(body, *depth);
            put_payload(body, payload);
        }
        WireFrame::Fin { session } => {
            body.push(T_FIN);
            put_u64(body, *session);
        }
        WireFrame::Done {
            session,
            stats,
            result,
        } => {
            body.push(T_DONE);
            put_u64(body, *session);
            put_u64(body, stats.bits_sent);
            put_u64(body, stats.bits_received);
            put_u64(body, stats.messages_sent);
            put_u64(body, stats.messages_received);
            put_u64(body, stats.clock);
            put_u32(body, result.len() as u32);
            for e in result {
                put_u64(body, *e);
            }
        }
        WireFrame::Error { session, message } => {
            body.push(T_ERROR);
            put_u64(body, *session);
            body.extend_from_slice(message.as_bytes());
        }
        WireFrame::Goodbye => {
            body.push(T_GOODBYE);
            put_u64(body, 0);
        }
        WireFrame::MpMsg {
            session,
            peer,
            depth,
            payload,
        } => {
            body.push(T_MP_MSG);
            put_u64(body, *session);
            put_u32(body, *peer);
            put_u64(body, *depth);
            put_payload(body, payload);
        }
        WireFrame::MpOut {
            session,
            intersection,
            verdict,
        } => {
            body.push(T_MP_OUT);
            put_u64(body, *session);
            match intersection {
                Some(elems) => {
                    body.push(1);
                    put_u32(body, elems.len() as u32);
                    for e in elems {
                        put_u64(body, *e);
                    }
                }
                None => body.push(0),
            }
            body.push(verdict_code(*verdict));
        }
        WireFrame::MpDone {
            session,
            holder,
            result,
            verdicts,
            report,
        } => {
            body.push(T_MP_DONE);
            put_u64(body, *session);
            put_u32(body, holder.unwrap_or(u32::MAX));
            put_u32(body, result.len() as u32);
            for e in result {
                put_u64(body, *e);
            }
            put_u32(body, verdicts.len() as u32);
            for v in verdicts {
                body.push(verdict_code(*v));
            }
            debug_assert_eq!(report.bits_sent.len(), report.bits_received.len());
            put_u32(body, report.bits_sent.len() as u32);
            for b in &report.bits_sent {
                put_u64(body, *b);
            }
            for b in &report.bits_received {
                put_u64(body, *b);
            }
            put_u64(body, report.messages);
            put_u64(body, report.rounds);
        }
    }
    let len = out.len() - prefix_at - 4;
    debug_assert!(len as u64 <= MAX_BODY_BYTES as u64);
    out[prefix_at..prefix_at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// A cursor over a frame body with bounds-checked readers.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.pos + n > self.bytes.len() {
            return Err(FrameError::Malformed("body shorter than declared fields"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn rest_utf8(&mut self) -> Result<String, FrameError> {
        let rest = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        std::str::from_utf8(rest)
            .map(str::to_owned)
            .map_err(|_| FrameError::Malformed("text field is not UTF-8"))
    }

    fn finish(&self) -> Result<(), FrameError> {
        if self.pos != self.bytes.len() {
            return Err(FrameError::Malformed("trailing bytes after frame body"));
        }
        Ok(())
    }

    /// Reads a `bits: u64 | packed bytes` payload (see [`put_payload`]),
    /// rejecting oversized lengths and nonzero padding bits.
    fn payload(&mut self) -> Result<BitBuf, FrameError> {
        let bits64 = self.u64()?;
        // A payload longer than the frame cap in *bytes* cannot be
        // genuine; reject before any usize conversion can overflow.
        if bits64 > (MAX_BODY_BYTES as u64) * 8 {
            return Err(FrameError::Malformed("payload bit length exceeds cap"));
        }
        let bits = bits64 as usize;
        let bytes = self.take(bits.div_ceil(8))?;
        // Padding bits above `bits` must be zero: the encoder never
        // sets them, so a nonzero pad means corruption.
        if !bits.is_multiple_of(8) {
            let pad = bytes[bytes.len() - 1] >> (bits % 8);
            if pad != 0 {
                return Err(FrameError::Malformed("nonzero padding bits in payload"));
            }
        }
        let mut payload = BitBuf::with_capacity(bits);
        for (i, chunk) in bytes.chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_le_bytes(word);
            let width = (bits - i * 64).min(64);
            payload.push_bits(word, width);
        }
        Ok(payload)
    }

    /// Reads one tri-state verdict byte (see [`verdict_code`]).
    fn verdict(&mut self) -> Result<Option<bool>, FrameError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(false)),
            2 => Ok(Some(true)),
            _ => Err(FrameError::Malformed("unknown verdict code")),
        }
    }
}

/// Decodes one frame body (the bytes after the length prefix).
pub fn decode_body(body: &[u8]) -> Result<WireFrame, FrameError> {
    let mut c = Cursor::new(body);
    let tag = c.u8()?;
    let session = c.u64()?;
    let frame = match tag {
        T_OPEN => WireFrame::Open {
            session,
            line: c.rest_utf8()?,
        },
        T_ACCEPT => WireFrame::Accept {
            session,
            protocol: c.rest_utf8()?,
        },
        T_MSG => {
            let depth = c.u64()?;
            let payload = c.payload()?;
            WireFrame::Msg {
                session,
                depth,
                payload,
            }
        }
        T_FIN => WireFrame::Fin { session },
        T_DONE => {
            let stats = ChannelStats {
                bits_sent: c.u64()?,
                bits_received: c.u64()?,
                messages_sent: c.u64()?,
                messages_received: c.u64()?,
                clock: c.u64()?,
            };
            let len = c.u32()? as usize;
            if len > (MAX_BODY_BYTES as usize) / 8 {
                return Err(FrameError::Malformed("result length exceeds cap"));
            }
            let mut result = Vec::with_capacity(len);
            for _ in 0..len {
                result.push(c.u64()?);
            }
            WireFrame::Done {
                session,
                stats,
                result,
            }
        }
        T_ERROR => WireFrame::Error {
            session,
            message: c.rest_utf8()?,
        },
        T_GOODBYE => WireFrame::Goodbye,
        T_MP_MSG => {
            let peer = c.u32()?;
            if peer >= MAX_PLAYERS {
                return Err(FrameError::Malformed("peer index exceeds player cap"));
            }
            let depth = c.u64()?;
            let payload = c.payload()?;
            WireFrame::MpMsg {
                session,
                peer,
                depth,
                payload,
            }
        }
        T_MP_OUT => {
            let intersection = match c.u8()? {
                0 => None,
                1 => {
                    let len = c.u32()? as usize;
                    if len > (MAX_BODY_BYTES as usize) / 8 {
                        return Err(FrameError::Malformed("result length exceeds cap"));
                    }
                    let mut elems = Vec::with_capacity(len);
                    for _ in 0..len {
                        elems.push(c.u64()?);
                    }
                    Some(elems)
                }
                _ => return Err(FrameError::Malformed("unknown intersection flag")),
            };
            let verdict = c.verdict()?;
            WireFrame::MpOut {
                session,
                intersection,
                verdict,
            }
        }
        T_MP_DONE => {
            let holder = match c.u32()? {
                u32::MAX => None,
                h if h < MAX_PLAYERS => Some(h),
                _ => return Err(FrameError::Malformed("holder index exceeds player cap")),
            };
            let len = c.u32()? as usize;
            if len > (MAX_BODY_BYTES as usize) / 8 {
                return Err(FrameError::Malformed("result length exceeds cap"));
            }
            let mut result = Vec::with_capacity(len);
            for _ in 0..len {
                result.push(c.u64()?);
            }
            let verdict_count = c.u32()?;
            if verdict_count > MAX_PLAYERS {
                return Err(FrameError::Malformed("verdict count exceeds player cap"));
            }
            let mut verdicts = Vec::with_capacity(verdict_count as usize);
            for _ in 0..verdict_count {
                verdicts.push(c.verdict()?);
            }
            let players = c.u32()?;
            if players > MAX_PLAYERS {
                return Err(FrameError::Malformed("player count exceeds cap"));
            }
            let mut report = NetworkReport {
                bits_sent: Vec::with_capacity(players as usize),
                bits_received: Vec::with_capacity(players as usize),
                messages: 0,
                rounds: 0,
            };
            for _ in 0..players {
                report.bits_sent.push(c.u64()?);
            }
            for _ in 0..players {
                report.bits_received.push(c.u64()?);
            }
            report.messages = c.u64()?;
            report.rounds = c.u64()?;
            WireFrame::MpDone {
                session,
                holder,
                result,
                verdicts,
                report,
            }
        }
        _ => return Err(FrameError::Malformed("unknown frame type")),
    };
    c.finish()?;
    Ok(frame)
}

/// Reads one length-prefixed frame from `r`.
///
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary;
/// inside a frame the same condition is [`FrameError::Truncated`].
///
/// # Errors
///
/// Propagates stream failures and decode failures; see [`FrameError`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<WireFrame>, FrameError> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_bytes[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(None);
                }
                return Err(FrameError::Truncated);
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_BODY_BYTES {
        return Err(FrameError::Oversized { len });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let frame = decode_body(&body)?;
    crate::metrics::frame_observed("rx", 4 + len as u64);
    Ok(Some(frame))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: WireFrame) {
        let bytes = encode(&frame);
        let mut r = &bytes[..];
        let back = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(back, frame);
        assert!(read_frame(&mut r).unwrap().is_none(), "stream consumed");
    }

    #[test]
    fn all_frame_types_round_trip() {
        let mut payload = BitBuf::new();
        payload.push_bits(0b1_0110, 5);
        round_trip(WireFrame::Open {
            session: 7,
            line: "id=7 n=1024 k=8".into(),
        });
        round_trip(WireFrame::Accept {
            session: 7,
            protocol: "tree-log-star".into(),
        });
        round_trip(WireFrame::Msg {
            session: 7,
            depth: 3,
            payload,
        });
        round_trip(WireFrame::Fin { session: 7 });
        round_trip(WireFrame::Done {
            session: 7,
            stats: ChannelStats {
                bits_sent: 1,
                bits_received: 2,
                messages_sent: 3,
                messages_received: 4,
                clock: 5,
            },
            result: vec![9, 11, 13],
        });
        round_trip(WireFrame::Error {
            session: 0,
            message: "nope".into(),
        });
        round_trip(WireFrame::Goodbye);
    }

    #[test]
    fn multiparty_frame_types_round_trip() {
        let mut payload = BitBuf::new();
        payload.push_bits(0b110_1001, 7);
        round_trip(WireFrame::MpMsg {
            session: 9,
            peer: 3,
            depth: 17,
            payload,
        });
        round_trip(WireFrame::MpOut {
            session: 9,
            intersection: Some(vec![4, 8, 15]),
            verdict: None,
        });
        round_trip(WireFrame::MpOut {
            session: 9,
            intersection: None,
            verdict: Some(true),
        });
        round_trip(WireFrame::MpDone {
            session: 9,
            holder: Some(0),
            result: vec![4, 8, 15],
            verdicts: vec![None, Some(false), Some(true), None],
            report: NetworkReport {
                bits_sent: vec![10, 20, 30, 40],
                bits_received: vec![40, 30, 20, 10],
                messages: 12,
                rounds: 5,
            },
        });
        round_trip(WireFrame::MpDone {
            session: 10,
            holder: None,
            result: vec![],
            verdicts: vec![Some(true), Some(true)],
            report: NetworkReport {
                bits_sent: vec![7, 7],
                bits_received: vec![7, 7],
                messages: 2,
                rounds: 2,
            },
        });
    }

    #[test]
    fn multiparty_caps_are_enforced() {
        // A peer index past the player cap poisons the frame.
        let mut body = vec![T_MP_MSG];
        put_u64(&mut body, 1);
        put_u32(&mut body, MAX_PLAYERS);
        put_u64(&mut body, 1);
        put_u64(&mut body, 0);
        assert!(matches!(decode_body(&body), Err(FrameError::Malformed(_))));
        // An unknown verdict code is rejected, never folded to a bool.
        let mut body = vec![T_MP_OUT];
        put_u64(&mut body, 1);
        body.push(0); // no intersection
        body.push(9); // bogus verdict code
        assert!(matches!(decode_body(&body), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn empty_payload_round_trips() {
        round_trip(WireFrame::Msg {
            session: 1,
            depth: 1,
            payload: BitBuf::new(),
        });
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, MAX_BODY_BYTES + 1);
        bytes.extend_from_slice(&[0; 16]);
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }), "{err:?}");
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let full = encode(&WireFrame::Fin { session: 3 });
        for cut in 1..full.len() {
            let err = read_frame(&mut &full[..cut]).unwrap_err();
            assert!(matches!(err, FrameError::Truncated), "cut={cut} {err:?}");
        }
    }

    #[test]
    fn nonzero_padding_is_rejected() {
        let mut payload = BitBuf::new();
        payload.push_bits(0b101, 3);
        let mut bytes = encode(&WireFrame::Msg {
            session: 1,
            depth: 1,
            payload,
        });
        *bytes.last_mut().unwrap() |= 0b1000; // set a bit above len=3
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn unknown_type_and_trailing_bytes_are_rejected() {
        let mut body = vec![99u8];
        put_u64(&mut body, 1);
        assert!(matches!(
            decode_body(&body),
            Err(FrameError::Malformed("unknown frame type"))
        ));
        let mut ok = vec![T_FIN];
        put_u64(&mut ok, 1);
        ok.push(0xFF);
        assert!(matches!(
            decode_body(&ok),
            Err(FrameError::Malformed("trailing bytes after frame body"))
        ));
    }
}
