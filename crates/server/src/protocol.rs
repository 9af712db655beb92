//! Wire codec for the SILC protocol, version 1.
//!
//! The normative specification lives in `docs/PROTOCOL.md` (embedded in the
//! [crate docs](crate)); this module is its executable counterpart. Every
//! frame type the spec names has a `frame_<name>_…` test below — CI greps
//! for the pairing, so a frame added to one side without the other fails
//! the build.
//!
//! Design notes:
//!
//! * Everything is little-endian; `f64`s travel as [`f64::to_bits`]
//!   patterns so a remote answer is *bit-identical* to the local one.
//! * [`read_frame`] distinguishes a clean close (EOF **at** a frame
//!   boundary → `Ok(None)`) from truncation (EOF **inside** a frame →
//!   [`DecodeError::Io`] with `UnexpectedEof`), because the server owes a
//!   reply only in the second case — and then only if the header survived.
//! * Payload parsing is strict: short payloads **and** trailing bytes are
//!   both [`DecodeError::Malformed`]. The frame boundary is still intact
//!   (the header's `length` was honored), so malformed payloads are
//!   recoverable and the connection stays open.

use std::fmt;
use std::io::{self, Read, Write};

/// `"SILC"` as a little-endian `u32` (bytes `53 49 4C 43` on the wire).
pub const MAGIC: u32 = 0x434C_4953;
/// The protocol version this build speaks.
pub const VERSION: u16 = 1;
/// Hard cap on payload length; a header asking for more is hostile.
pub const MAX_FRAME_LEN: u32 = 1 << 20;
/// Fixed frame-header size: magic + version + kind + flags + length.
pub const HEADER_LEN: usize = 12;

/// Frame kinds (the `kind` header byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    Hello = 0x01,
    ServerHello = 0x02,
    Query = 0x03,
    Batch = 0x04,
    Response = 0x05,
    Error = 0x06,
    ServerBusy = 0x07,
    Status = 0x08,
    StatusReply = 0x09,
    Goodbye = 0x0A,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            0x01 => FrameKind::Hello,
            0x02 => FrameKind::ServerHello,
            0x03 => FrameKind::Query,
            0x04 => FrameKind::Batch,
            0x05 => FrameKind::Response,
            0x06 => FrameKind::Error,
            0x07 => FrameKind::ServerBusy,
            0x08 => FrameKind::Status,
            0x09 => FrameKind::StatusReply,
            0x0A => FrameKind::Goodbye,
            _ => return None,
        })
    }
}

/// Typed error codes carried by `ERROR` frames. The numeric values are
/// wire-stable; see the spec's table for the kept/closed semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    BadMagic = 1,
    UnsupportedVersion = 2,
    FrameTooLarge = 3,
    Malformed = 4,
    UnknownKind = 5,
    UnknownAlgorithm = 6,
    BadVertex = 7,
    BadK = 8,
    Unavailable = 9,
    QueryIo = 10,
    QueryCorrupt = 11,
}

impl ErrorCode {
    /// Decodes a wire code; unknown codes (a newer server) map to `None`.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadMagic,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::FrameTooLarge,
            4 => ErrorCode::Malformed,
            5 => ErrorCode::UnknownKind,
            6 => ErrorCode::UnknownAlgorithm,
            7 => ErrorCode::BadVertex,
            8 => ErrorCode::BadK,
            9 => ErrorCode::Unavailable,
            10 => ErrorCode::QueryIo,
            11 => ErrorCode::QueryCorrupt,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::BadMagic => "BAD_MAGIC",
            ErrorCode::UnsupportedVersion => "UNSUPPORTED_VERSION",
            ErrorCode::FrameTooLarge => "FRAME_TOO_LARGE",
            ErrorCode::Malformed => "MALFORMED",
            ErrorCode::UnknownKind => "UNKNOWN_KIND",
            ErrorCode::UnknownAlgorithm => "UNKNOWN_ALGORITHM",
            ErrorCode::BadVertex => "BAD_VERTEX",
            ErrorCode::BadK => "BAD_K",
            ErrorCode::Unavailable => "UNAVAILABLE",
            ErrorCode::QueryIo => "QUERY_IO",
            ErrorCode::QueryCorrupt => "QUERY_CORRUPT",
        };
        f.write_str(name)
    }
}

/// Query algorithms (the query body's `algorithm` byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Algorithm {
    Knn = 0,
    KnnI = 1,
    KnnM = 2,
    Inn = 3,
    Ine = 4,
    Ier = 5,
    Routed = 6,
    Approx = 7,
}

impl Algorithm {
    /// All algorithms, in wire order — handy for exhaustive test sweeps.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::Knn,
        Algorithm::KnnI,
        Algorithm::KnnM,
        Algorithm::Inn,
        Algorithm::Ine,
        Algorithm::Ier,
        Algorithm::Routed,
        Algorithm::Approx,
    ];

    fn from_u8(b: u8) -> Option<Algorithm> {
        Self::ALL.get(b as usize).copied()
    }
}

/// One query: 9 bytes on the wire (`algorithm`, `vertex`, `k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryBody {
    pub algorithm: Algorithm,
    pub vertex: u32,
    pub k: u32,
}

/// One neighbor: 24 bytes on the wire. Distances are `f64` bit patterns —
/// decode with [`f64::from_bits`] for the numeric value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireNeighbor {
    pub object: u32,
    pub vertex: u32,
    pub lo_bits: u64,
    pub hi_bits: u64,
}

/// A query answer as it travels in a `RESPONSE` frame.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnswerBody {
    /// Echo of the request's algorithm byte.
    pub algorithm: u8,
    /// Provably-exact flag (always `true` for non-routed algorithms).
    pub complete: bool,
    /// Shards whose probes failed (routed only; sorted).
    pub degraded: Vec<u32>,
    /// Neighbors in the algorithm's confirmation order.
    pub neighbors: Vec<WireNeighbor>,
}

/// `STATUS_REPLY` payload: a point-in-time server health snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatusReply {
    pub queue_depth: u32,
    pub queue_capacity: u32,
    pub queries_answered: u64,
    pub busy_rejections: u64,
    pub batches_drained: u64,
    pub bodies_executed: u64,
    /// Open-time degradations ([`silc::OpenWarning`] display forms).
    pub warnings: Vec<String>,
}

/// A decoded frame — the protocol's message vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    Hello { version: u16 },
    ServerHello { version: u16, capabilities: u8, vertex_count: u32, object_count: u32 },
    Query { request_id: u64, body: QueryBody },
    Batch { request_id: u64, bodies: Vec<QueryBody> },
    Response { request_id: u64, sequence: u32, answer: AnswerBody },
    Error { request_id: u64, sequence: u32, code: u16, detail: String },
    ServerBusy { request_id: u64, sequence: u32 },
    Status,
    StatusReply(StatusReply),
    Goodbye,
}

/// `SERVER_HELLO` capability bit: routed (cross-shard) kNN is served.
pub const CAP_ROUTED: u8 = 1 << 0;
/// `SERVER_HELLO` capability bit: approximate-oracle kNN is served.
pub const CAP_APPROX: u8 = 1 << 1;

/// Why a frame could not be decoded. The variants that poison the stream
/// (desynchronized framing) are exactly the ones the spec closes the
/// connection for; [`DecodeError::Malformed`] alone is recoverable.
#[derive(Debug)]
pub enum DecodeError {
    /// Transport failure — including EOF *inside* a frame (truncation).
    Io(io::Error),
    /// Header magic was not `"SILC"`.
    BadMagic,
    /// Header version is not speakable.
    UnsupportedVersion(u16),
    /// Header length exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
    /// Unknown `kind` byte.
    UnknownKind(u8),
    /// Well-framed but unparseable payload (short, trailing bytes, nonzero
    /// flags, bad inner field). Recoverable: the stream is still in sync.
    Malformed(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Io(e) => write!(f, "i/o: {e}"),
            DecodeError::BadMagic => write!(f, "bad frame magic"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::FrameTooLarge(n) => {
                write!(f, "frame length {n} exceeds maximum {MAX_FRAME_LEN}")
            }
            DecodeError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02X}"),
            DecodeError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<io::Error> for DecodeError {
    fn from(e: io::Error) -> Self {
        DecodeError::Io(e)
    }
}

impl DecodeError {
    /// The `ERROR` frame a server owes for this decode failure, when any:
    /// `(code, keep_connection)`. `Io` gets no reply (the transport is
    /// gone); everything else maps per the spec's table.
    pub fn wire_reply(&self) -> Option<(ErrorCode, bool)> {
        match self {
            DecodeError::Io(_) => None,
            DecodeError::BadMagic => Some((ErrorCode::BadMagic, false)),
            DecodeError::UnsupportedVersion(_) => Some((ErrorCode::UnsupportedVersion, false)),
            DecodeError::FrameTooLarge(_) => Some((ErrorCode::FrameTooLarge, false)),
            DecodeError::UnknownKind(_) => Some((ErrorCode::UnknownKind, false)),
            DecodeError::Malformed(_) => Some((ErrorCode::Malformed, true)),
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_query_body(buf: &mut Vec<u8>, b: &QueryBody) {
    buf.push(b.algorithm as u8);
    put_u32(buf, b.vertex);
    put_u32(buf, b.k);
}

fn put_answer_body(buf: &mut Vec<u8>, a: &AnswerBody) {
    buf.push(a.algorithm);
    buf.push(a.complete as u8);
    put_u16(buf, a.degraded.len() as u16);
    put_u32(buf, a.neighbors.len() as u32);
    for &s in &a.degraded {
        put_u32(buf, s);
    }
    for n in &a.neighbors {
        put_u32(buf, n.object);
        put_u32(buf, n.vertex);
        put_u64(buf, n.lo_bits);
        put_u64(buf, n.hi_bits);
    }
}

/// `u16` length + UTF-8 text, cut at the last char boundary that fits the
/// length field — a cut inside a character would not decode as UTF-8.
fn put_text(buf: &mut Vec<u8>, text: &str) {
    let mut n = text.len().min(u16::MAX as usize);
    while !text.is_char_boundary(n) {
        n -= 1;
    }
    put_u16(buf, n as u16);
    buf.extend_from_slice(&text.as_bytes()[..n]);
}

/// Whether a `RESPONSE` of this shape (20 fixed payload bytes: request id,
/// sequence, answer header) fits one frame. A longer one is fatal to its
/// receiver ([`DecodeError::FrameTooLarge`]), so the server must not send it.
pub(crate) fn response_fits(neighbors: usize, degraded: usize) -> bool {
    20 + 4 * degraded as u64 + 24 * neighbors as u64 <= MAX_FRAME_LEN as u64
}

/// Appends a frame (header + payload) to `buf` — the one encoder. The
/// payload is written in place behind a header whose `kind` and `length` are
/// patched in afterwards, so a warmed buffer encodes without allocating.
pub fn encode_frame_into(buf: &mut Vec<u8>, frame: &Frame) {
    let start = buf.len();
    put_u32(buf, MAGIC);
    put_u16(buf, VERSION);
    buf.extend_from_slice(&[0; HEADER_LEN - 6]); // kind, flags, length
    let kind = match frame {
        Frame::Hello { version } => {
            put_u16(buf, *version);
            FrameKind::Hello
        }
        Frame::ServerHello { version, capabilities, vertex_count, object_count } => {
            put_u16(buf, *version);
            buf.push(*capabilities);
            put_u32(buf, *vertex_count);
            put_u32(buf, *object_count);
            FrameKind::ServerHello
        }
        Frame::Query { request_id, body } => {
            put_u64(buf, *request_id);
            put_query_body(buf, body);
            FrameKind::Query
        }
        Frame::Batch { request_id, bodies } => {
            put_u64(buf, *request_id);
            put_u32(buf, bodies.len() as u32);
            for b in bodies {
                put_query_body(buf, b);
            }
            FrameKind::Batch
        }
        Frame::Response { request_id, sequence, answer } => {
            put_u64(buf, *request_id);
            put_u32(buf, *sequence);
            put_answer_body(buf, answer);
            FrameKind::Response
        }
        Frame::Error { request_id, sequence, code, detail } => {
            put_u64(buf, *request_id);
            put_u32(buf, *sequence);
            put_u16(buf, *code);
            put_text(buf, detail);
            FrameKind::Error
        }
        Frame::ServerBusy { request_id, sequence } => {
            put_u64(buf, *request_id);
            put_u32(buf, *sequence);
            FrameKind::ServerBusy
        }
        Frame::Status => FrameKind::Status,
        Frame::StatusReply(s) => {
            put_u32(buf, s.queue_depth);
            put_u32(buf, s.queue_capacity);
            put_u64(buf, s.queries_answered);
            put_u64(buf, s.busy_rejections);
            put_u64(buf, s.batches_drained);
            put_u64(buf, s.bodies_executed);
            put_u16(buf, s.warnings.len() as u16);
            for w in &s.warnings {
                put_text(buf, w);
            }
            FrameKind::StatusReply
        }
        Frame::Goodbye => FrameKind::Goodbye,
    };
    let length = (buf.len() - start - HEADER_LEN) as u32;
    buf[start + 6] = kind as u8;
    buf[start + 8..start + HEADER_LEN].copy_from_slice(&length.to_le_bytes());
}

/// Serializes a frame (header + payload) into a fresh byte vector.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(&mut out, frame);
    out
}

/// Encodes and writes one frame with one `write_all`. Writers sharing a
/// socket lock it per write of whole frames — this one, or several encoded
/// back to back by [`encode_frame_into`] — so partial frames never interleave.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Strict little-endian payload reader: every getter fails on underrun, and
/// [`Cursor::finish`] fails on trailing bytes.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(DecodeError::Malformed(format!(
                "payload underrun: wanted {n} more bytes, {} left",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The counterpart of [`put_text`]: `u16` length + UTF-8 text.
    fn text(&mut self, what: &str) -> Result<String, DecodeError> {
        let len = self.u16()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| DecodeError::Malformed(format!("{what} is not UTF-8")))
    }

    fn query_body(&mut self) -> Result<QueryBody, DecodeError> {
        let algo = self.u8()?;
        let algorithm = Algorithm::from_u8(algo)
            .ok_or_else(|| DecodeError::Malformed(format!("unknown algorithm byte {algo}")))?;
        Ok(QueryBody { algorithm, vertex: self.u32()?, k: self.u32()? })
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(DecodeError::Malformed(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Decodes one payload given its frame kind.
fn decode_payload(kind: FrameKind, payload: &[u8]) -> Result<Frame, DecodeError> {
    let mut c = Cursor::new(payload);
    let frame = match kind {
        FrameKind::Hello => Frame::Hello { version: c.u16()? },
        FrameKind::ServerHello => Frame::ServerHello {
            version: c.u16()?,
            capabilities: c.u8()?,
            vertex_count: c.u32()?,
            object_count: c.u32()?,
        },
        FrameKind::Query => Frame::Query { request_id: c.u64()?, body: c.query_body()? },
        FrameKind::Batch => {
            let request_id = c.u64()?;
            let count = c.u32()? as usize;
            // 9 bytes per body — a count the payload cannot possibly hold
            // is rejected before allocating for it.
            if count > payload.len() / 9 {
                return Err(DecodeError::Malformed(format!(
                    "batch count {count} exceeds payload capacity"
                )));
            }
            let mut bodies = Vec::with_capacity(count);
            for _ in 0..count {
                bodies.push(c.query_body()?);
            }
            Frame::Batch { request_id, bodies }
        }
        FrameKind::Response => {
            let request_id = c.u64()?;
            let sequence = c.u32()?;
            let algorithm = c.u8()?;
            let complete = match c.u8()? {
                0 => false,
                1 => true,
                b => return Err(DecodeError::Malformed(format!("complete byte {b}"))),
            };
            let degraded_n = c.u16()? as usize;
            let neighbor_n = c.u32()? as usize;
            if neighbor_n > payload.len() / 24 {
                return Err(DecodeError::Malformed(format!(
                    "neighbor count {neighbor_n} exceeds payload capacity"
                )));
            }
            let mut degraded = Vec::with_capacity(degraded_n);
            for _ in 0..degraded_n {
                degraded.push(c.u32()?);
            }
            let mut neighbors = Vec::with_capacity(neighbor_n);
            for _ in 0..neighbor_n {
                neighbors.push(WireNeighbor {
                    object: c.u32()?,
                    vertex: c.u32()?,
                    lo_bits: c.u64()?,
                    hi_bits: c.u64()?,
                });
            }
            Frame::Response {
                request_id,
                sequence,
                answer: AnswerBody { algorithm, complete, degraded, neighbors },
            }
        }
        FrameKind::Error => {
            let request_id = c.u64()?;
            let sequence = c.u32()?;
            let code = c.u16()?;
            Frame::Error { request_id, sequence, code, detail: c.text("error detail")? }
        }
        FrameKind::ServerBusy => Frame::ServerBusy { request_id: c.u64()?, sequence: c.u32()? },
        FrameKind::Status => Frame::Status,
        FrameKind::StatusReply => {
            let mut s = StatusReply {
                queue_depth: c.u32()?,
                queue_capacity: c.u32()?,
                queries_answered: c.u64()?,
                busy_rejections: c.u64()?,
                batches_drained: c.u64()?,
                bodies_executed: c.u64()?,
                warnings: Vec::new(),
            };
            let n = c.u16()? as usize;
            for _ in 0..n {
                s.warnings.push(c.text("warning")?);
            }
            Frame::StatusReply(s)
        }
        FrameKind::Goodbye => Frame::Goodbye,
    };
    c.finish()?;
    Ok(frame)
}

/// Reads one frame from the stream.
///
/// * `Ok(Some(frame))` — a complete, well-formed frame.
/// * `Ok(None)` — the peer closed the stream cleanly at a frame boundary.
/// * `Err(_)` — transport failure (including mid-frame truncation) or a
///   protocol violation; see [`DecodeError::wire_reply`] for what, if
///   anything, to answer.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, DecodeError> {
    let mut header = [0u8; HEADER_LEN];
    // First byte by hand: zero bytes here is a clean close, not an error.
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(DecodeError::Io(e)),
        }
    }
    r.read_exact(&mut header[1..])?;

    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let kind_byte = header[6];
    let flags = header[7];
    let length = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if length > MAX_FRAME_LEN {
        return Err(DecodeError::FrameTooLarge(length));
    }
    let kind = FrameKind::from_u8(kind_byte).ok_or(DecodeError::UnknownKind(kind_byte))?;

    let mut payload = vec![0u8; length as usize];
    r.read_exact(&mut payload)?;
    if flags != 0 {
        return Err(DecodeError::Malformed(format!("nonzero flags byte 0x{flags:02X}")));
    }
    decode_payload(kind, &payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) -> Frame {
        let bytes = encode_frame(&frame);
        let decoded = read_frame(&mut &bytes[..]).unwrap().unwrap();
        assert_eq!(decoded, frame, "round trip must be lossless");
        // And the stream must be fully consumed: a second read sees EOF.
        let mut rest = &bytes[bytes.len()..];
        assert!(read_frame(&mut rest).unwrap().is_none());
        decoded
    }

    #[test]
    fn frame_hello_round_trips() {
        round_trip(Frame::Hello { version: 1 });
    }

    #[test]
    fn frame_server_hello_round_trips() {
        round_trip(Frame::ServerHello {
            version: 1,
            capabilities: CAP_ROUTED | CAP_APPROX,
            vertex_count: 100_000,
            object_count: 5_000,
        });
    }

    #[test]
    fn frame_query_round_trips_for_every_algorithm() {
        for (i, algorithm) in Algorithm::ALL.into_iter().enumerate() {
            let f = round_trip(Frame::Query {
                request_id: 77 + i as u64,
                body: QueryBody { algorithm, vertex: 42, k: 5 },
            });
            match f {
                Frame::Query { body, .. } => assert_eq!(body.algorithm as usize, i),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn frame_batch_round_trips() {
        round_trip(Frame::Batch {
            request_id: 9,
            bodies: vec![
                QueryBody { algorithm: Algorithm::Knn, vertex: 1, k: 3 },
                QueryBody { algorithm: Algorithm::Routed, vertex: 99, k: 1 },
                QueryBody { algorithm: Algorithm::Approx, vertex: 0, k: 10 },
            ],
        });
        round_trip(Frame::Batch { request_id: 10, bodies: vec![] });
    }

    #[test]
    fn frame_response_round_trips_with_exact_f64_bits() {
        let lo = 1234.5678901234_f64;
        let hi = f64::INFINITY;
        let f = round_trip(Frame::Response {
            request_id: 3,
            sequence: 7,
            answer: AnswerBody {
                algorithm: Algorithm::Routed as u8,
                complete: false,
                degraded: vec![1, 3],
                neighbors: vec![WireNeighbor {
                    object: 12,
                    vertex: 55,
                    lo_bits: lo.to_bits(),
                    hi_bits: hi.to_bits(),
                }],
            },
        });
        match f {
            Frame::Response { answer, .. } => {
                assert_eq!(f64::from_bits(answer.neighbors[0].lo_bits).to_bits(), lo.to_bits());
                assert_eq!(f64::from_bits(answer.neighbors[0].hi_bits), f64::INFINITY);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn frame_error_round_trips() {
        round_trip(Frame::Error {
            request_id: 1,
            sequence: 0,
            code: ErrorCode::BadVertex as u16,
            detail: "vertex 10⁶ out of range".into(),
        });
        assert_eq!(ErrorCode::from_u16(7), Some(ErrorCode::BadVertex));
        assert_eq!(ErrorCode::from_u16(999), None);
        assert_eq!(ErrorCode::QueryCorrupt.to_string(), "QUERY_CORRUPT");
    }

    #[test]
    fn frame_server_busy_round_trips() {
        round_trip(Frame::ServerBusy { request_id: u64::MAX, sequence: 41 });
    }

    #[test]
    fn frame_status_round_trips() {
        round_trip(Frame::Status);
    }

    #[test]
    fn frame_status_reply_round_trips() {
        round_trip(Frame::StatusReply(StatusReply {
            queue_depth: 12,
            queue_capacity: 256,
            queries_answered: 1 << 40,
            busy_rejections: 17,
            batches_drained: 900,
            bodies_executed: 12_345,
            warnings: vec!["degraded open: frontier tier dropped: bad checksum".into()],
        }));
        round_trip(Frame::StatusReply(StatusReply::default()));
    }

    #[test]
    fn frame_goodbye_round_trips() {
        round_trip(Frame::Goodbye);
    }

    // -- the append-in-place encoder -------------------------------------------

    /// The encoder as it stood before `encode_frame_into`: payload built in a
    /// vector of its own, then copied behind a finished header. Kept here as
    /// the reference that pins the wire bytes. It takes text that fits its
    /// `u16` length only; over-long text is the char-boundary tests' subject.
    fn parent_encode_frame(frame: &Frame) -> Vec<u8> {
        fn text(payload: &mut Vec<u8>, s: &str) {
            assert!(s.len() <= u16::MAX as usize, "reference encoder takes short text only");
            put_u16(payload, s.len() as u16);
            payload.extend_from_slice(s.as_bytes());
        }
        let mut payload = Vec::new();
        let kind = match frame {
            Frame::Hello { version } => {
                put_u16(&mut payload, *version);
                FrameKind::Hello
            }
            Frame::ServerHello { version, capabilities, vertex_count, object_count } => {
                put_u16(&mut payload, *version);
                payload.push(*capabilities);
                put_u32(&mut payload, *vertex_count);
                put_u32(&mut payload, *object_count);
                FrameKind::ServerHello
            }
            Frame::Query { request_id, body } => {
                put_u64(&mut payload, *request_id);
                put_query_body(&mut payload, body);
                FrameKind::Query
            }
            Frame::Batch { request_id, bodies } => {
                put_u64(&mut payload, *request_id);
                put_u32(&mut payload, bodies.len() as u32);
                for b in bodies {
                    put_query_body(&mut payload, b);
                }
                FrameKind::Batch
            }
            Frame::Response { request_id, sequence, answer } => {
                put_u64(&mut payload, *request_id);
                put_u32(&mut payload, *sequence);
                put_answer_body(&mut payload, answer);
                FrameKind::Response
            }
            Frame::Error { request_id, sequence, code, detail } => {
                put_u64(&mut payload, *request_id);
                put_u32(&mut payload, *sequence);
                put_u16(&mut payload, *code);
                text(&mut payload, detail);
                FrameKind::Error
            }
            Frame::ServerBusy { request_id, sequence } => {
                put_u64(&mut payload, *request_id);
                put_u32(&mut payload, *sequence);
                FrameKind::ServerBusy
            }
            Frame::Status => FrameKind::Status,
            Frame::StatusReply(s) => {
                put_u32(&mut payload, s.queue_depth);
                put_u32(&mut payload, s.queue_capacity);
                put_u64(&mut payload, s.queries_answered);
                put_u64(&mut payload, s.busy_rejections);
                put_u64(&mut payload, s.batches_drained);
                put_u64(&mut payload, s.bodies_executed);
                put_u16(&mut payload, s.warnings.len() as u16);
                for w in &s.warnings {
                    text(&mut payload, w);
                }
                FrameKind::StatusReply
            }
            Frame::Goodbye => FrameKind::Goodbye,
        };
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        put_u32(&mut out, MAGIC);
        put_u16(&mut out, VERSION);
        out.push(kind as u8);
        out.push(0); // flags
        put_u32(&mut out, payload.len() as u32);
        out.extend_from_slice(&payload);
        out
    }

    /// Deterministic pseudo-random frames of every kind.
    struct FrameGen(u64);

    impl FrameGen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 24
        }

        fn body(&mut self) -> QueryBody {
            QueryBody {
                algorithm: Algorithm::ALL[self.next() as usize % 8],
                vertex: self.next() as u32,
                k: self.next() as u32,
            }
        }

        fn text(&mut self) -> String {
            let n = self.next() as usize % 40;
            (0..n).map(|_| ['a', 'é', '€', ' ', '𝄞'][self.next() as usize % 5]).collect()
        }

        fn frame(&mut self, kind: u64) -> Frame {
            let (request_id, sequence) = ((self.next() << 17) | self.next(), self.next() as u32);
            match kind % 10 {
                0 => Frame::Hello { version: self.next() as u16 },
                1 => Frame::ServerHello {
                    version: self.next() as u16,
                    capabilities: self.next() as u8,
                    vertex_count: self.next() as u32,
                    object_count: self.next() as u32,
                },
                2 => Frame::Query { request_id, body: self.body() },
                3 => {
                    let n = self.next() % 40;
                    Frame::Batch { request_id, bodies: (0..n).map(|_| self.body()).collect() }
                }
                4 => {
                    let (d, n) = (self.next() % 4, self.next() % 30);
                    let answer = AnswerBody {
                        algorithm: self.next() as u8,
                        complete: self.next() % 2 == 0,
                        degraded: (0..d).map(|_| self.next() as u32).collect(),
                        neighbors: (0..n)
                            .map(|_| WireNeighbor {
                                object: self.next() as u32,
                                vertex: self.next() as u32,
                                lo_bits: (self.next() << 30) ^ self.next(),
                                hi_bits: (self.next() << 30) ^ self.next(),
                            })
                            .collect(),
                    };
                    Frame::Response { request_id, sequence, answer }
                }
                5 => Frame::Error {
                    request_id,
                    sequence,
                    code: self.next() as u16,
                    detail: self.text(),
                },
                6 => Frame::ServerBusy { request_id, sequence },
                7 => Frame::Status,
                8 => Frame::StatusReply(StatusReply {
                    queue_depth: self.next() as u32,
                    queue_capacity: self.next() as u32,
                    queries_answered: self.next(),
                    busy_rejections: self.next(),
                    batches_drained: self.next(),
                    bodies_executed: self.next(),
                    warnings: (0..self.next() % 3).map(|_| self.text()).collect(),
                }),
                _ => Frame::Goodbye,
            }
        }
    }

    #[test]
    fn encode_frame_into_appends_the_parent_format_bytes_for_every_kind_and_sequence() {
        let mut gen = FrameGen(0x51_1C);
        // Every kind in turn first, then 300 frames of random kinds — all
        // appended to ONE buffer that already holds foreign bytes.
        let frames: Vec<Frame> = (0..310)
            .map(|i| {
                let kind = if i < 10 { i } else { gen.next() };
                gen.frame(kind)
            })
            .collect();
        let mut buf = b"already here".to_vec();
        let mut want = buf.clone();
        for f in &frames {
            let image = parent_encode_frame(f);
            assert_eq!(encode_frame(f), image, "one frame, fresh vector: {f:?}");
            encode_frame_into(&mut buf, f);
            want.extend_from_slice(&image);
            assert_eq!(buf.len(), want.len(), "appended length of {f:?}");
        }
        assert_eq!(buf, want, "appending must not disturb what the buffer held");

        // And the stream decodes back frame by frame, ending on a clean EOF.
        let mut stream = &buf[b"already here".len()..];
        for f in &frames {
            assert_eq!(&read_frame(&mut stream).unwrap().unwrap(), f);
        }
        assert!(read_frame(&mut stream).unwrap().is_none());

        // write_frame is the same bytes again.
        let mut written = Vec::new();
        write_frame(&mut written, &frames[4]).unwrap();
        assert_eq!(written, parent_encode_frame(&frames[4]));
    }

    /// 70 000 bytes whose char boundaries sit at 1 + 3j: byte 65 535 is
    /// inside a character.
    fn long_text() -> String {
        let text = format!("x{}", "€".repeat(23_333));
        assert_eq!(text.len(), 70_000);
        assert!(!text.is_char_boundary(u16::MAX as usize));
        text
    }

    #[test]
    fn frame_error_detail_is_cut_at_a_char_boundary() {
        let sent = Frame::Error { request_id: 4, sequence: 2, code: 10, detail: long_text() };
        let bytes = encode_frame(&sent);
        match read_frame(&mut &bytes[..]).expect("the server's own frame must decode").unwrap() {
            Frame::Error { request_id: 4, sequence: 2, code: 10, detail } => {
                assert_eq!(detail.len(), 65_533, "the last boundary at or under u16::MAX");
                assert!(long_text().starts_with(&detail));
            }
            other => panic!("decoded {other:?}"),
        }
        // Text that fits is not touched, at the limit either.
        let exact = "€".repeat(21_845);
        assert_eq!(exact.len(), u16::MAX as usize);
        round_trip(Frame::Error { request_id: 1, sequence: 0, code: 4, detail: exact });
    }

    #[test]
    fn frame_status_reply_warnings_are_cut_at_a_char_boundary() {
        let sent = Frame::StatusReply(StatusReply {
            queue_capacity: 8,
            warnings: vec!["short".into(), long_text(), "after".into()],
            ..Default::default()
        });
        let bytes = encode_frame(&sent);
        match read_frame(&mut &bytes[..]).expect("the server's own frame must decode").unwrap() {
            Frame::StatusReply(s) => {
                assert_eq!(s.queue_capacity, 8);
                assert_eq!(s.warnings.len(), 3);
                assert_eq!(s.warnings[0], "short");
                assert_eq!(s.warnings[1].len(), 65_533);
                assert!(long_text().starts_with(&s.warnings[1]));
                assert_eq!(s.warnings[2], "after", "the cut must not desynchronise what follows");
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn frame_response_size_limit_is_what_response_fits_says() {
        let response = |neighbors: usize, degraded: usize| Frame::Response {
            request_id: 1,
            sequence: 0,
            answer: AnswerBody {
                algorithm: Algorithm::Routed as u8,
                complete: degraded == 0,
                degraded: vec![7; degraded],
                neighbors: vec![
                    WireNeighbor { object: 1, vertex: 2, lo_bits: 3, hi_bits: 4 };
                    neighbors
                ],
            },
        };
        // ⌊(MAX_FRAME_LEN − 20) / 24⌋ neighbors is the most one frame holds.
        let most = (MAX_FRAME_LEN as usize - 20) / 24;
        assert_eq!(most, 43_689);
        assert!(response_fits(most - 1, 0));
        assert!(response_fits(most, 0));
        assert!(!response_fits(most + 1, 0));
        // Degraded shard ids eat into the 20 spare bytes, then into a neighbor.
        assert!(response_fits(most, 5));
        assert!(!response_fits(most, 6));
        assert!(response_fits(most - 1, 6));
        assert!(response_fits(0, u16::MAX as usize));
        assert!(!response_fits(usize::MAX / 32, 0), "no overflow on absurd counts");

        // The helper agrees with the encoder and the decoder on both sides
        // of the limit: what fits round-trips, what does not is fatal.
        for (n, d) in [(most, 0), (most, 5), (most - 1, 6)] {
            let bytes = encode_frame(&response(n, d));
            assert!(bytes.len() - HEADER_LEN <= MAX_FRAME_LEN as usize);
            assert_eq!(read_frame(&mut &bytes[..]).unwrap().unwrap(), response(n, d));
        }
        for (n, d) in [(most + 1, 0), (most, 6)] {
            let bytes = encode_frame(&response(n, d));
            assert!(matches!(read_frame(&mut &bytes[..]), Err(DecodeError::FrameTooLarge(_))));
        }
    }

    // -- decode failure paths ------------------------------------------------

    #[test]
    fn bad_magic_is_fatal() {
        let mut bytes = encode_frame(&Frame::Status);
        bytes[0] ^= 0xFF;
        match read_frame(&mut &bytes[..]) {
            Err(DecodeError::BadMagic) => {}
            other => panic!("want BadMagic, got {other:?}"),
        }
        assert_eq!(DecodeError::BadMagic.wire_reply(), Some((ErrorCode::BadMagic, false)));
    }

    #[test]
    fn unsupported_version_is_fatal() {
        let mut bytes = encode_frame(&Frame::Status);
        bytes[4] = 0xFF;
        assert!(matches!(read_frame(&mut &bytes[..]), Err(DecodeError::UnsupportedVersion(_))));
    }

    #[test]
    fn oversized_length_is_rejected_without_reading_payload() {
        let mut bytes = encode_frame(&Frame::Status);
        bytes[8..12].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        // No payload follows at all — the length check must fire first.
        match read_frame(&mut &bytes[..HEADER_LEN]) {
            Err(DecodeError::FrameTooLarge(n)) => assert_eq!(n, MAX_FRAME_LEN + 1),
            other => panic!("want FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_is_fatal() {
        let mut bytes = encode_frame(&Frame::Status);
        bytes[6] = 0x7F;
        assert!(matches!(read_frame(&mut &bytes[..]), Err(DecodeError::UnknownKind(0x7F))));
    }

    #[test]
    fn nonzero_flags_are_malformed() {
        let mut bytes = encode_frame(&Frame::Status);
        bytes[7] = 1;
        match read_frame(&mut &bytes[..]) {
            Err(e @ DecodeError::Malformed(_)) => {
                assert_eq!(e.wire_reply(), Some((ErrorCode::Malformed, true)));
            }
            other => panic!("want Malformed, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_io_truncation() {
        let bytes = encode_frame(&Frame::Hello { version: 1 });
        // Cut the stream mid-payload: the reader must see UnexpectedEof,
        // not a clean close and not a panic.
        match read_frame(&mut &bytes[..bytes.len() - 1]) {
            Err(DecodeError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("want Io(UnexpectedEof), got {other:?}"),
        }
        // Cut mid-header too.
        match read_frame(&mut &bytes[..5]) {
            Err(DecodeError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("want Io(UnexpectedEof), got {other:?}"),
        }
    }

    #[test]
    fn short_and_trailing_payloads_are_malformed_but_recoverable() {
        // Short: a QUERY frame whose payload claims fewer bytes than the
        // body needs.
        let mut bytes = encode_frame(&Frame::Query {
            request_id: 5,
            body: QueryBody { algorithm: Algorithm::Knn, vertex: 1, k: 1 },
        });
        let short = (bytes.len() - HEADER_LEN - 4) as u32;
        bytes[8..12].copy_from_slice(&short.to_le_bytes());
        bytes.truncate(HEADER_LEN + short as usize);
        assert!(matches!(read_frame(&mut &bytes[..]), Err(DecodeError::Malformed(_))));

        // Trailing: STATUS with a stray byte.
        let mut bytes = encode_frame(&Frame::Status);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        bytes.push(0xAB);
        assert!(matches!(read_frame(&mut &bytes[..]), Err(DecodeError::Malformed(_))));

        // A garbage batch count that no payload could hold is rejected
        // before any allocation.
        let mut bytes = encode_frame(&Frame::Batch { request_id: 1, bodies: vec![] });
        let payload_len = (bytes.len() - HEADER_LEN) as u32;
        bytes[HEADER_LEN + 8..HEADER_LEN + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes[8..12].copy_from_slice(&payload_len.to_le_bytes());
        assert!(matches!(read_frame(&mut &bytes[..]), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn garbage_bytes_never_panic_the_decoder() {
        // Deterministic pseudo-random garbage: every prefix of it must
        // produce a typed outcome, never a panic.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut garbage = vec![0u8; 4096];
        for b in &mut garbage {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *b = (state >> 56) as u8;
        }
        for len in [0, 1, 7, 11, 12, 13, 100, 4096] {
            let _ = read_frame(&mut &garbage[..len]);
        }
        // Garbage dressed in a valid header must also decode to a typed
        // error, not a panic.
        let mut framed = Vec::new();
        framed.extend_from_slice(&MAGIC.to_le_bytes());
        framed.extend_from_slice(&VERSION.to_le_bytes());
        framed.push(FrameKind::Response as u8);
        framed.push(0);
        framed.extend_from_slice(&(64u32).to_le_bytes());
        framed.extend_from_slice(&garbage[..64]);
        assert!(matches!(read_frame(&mut &framed[..]), Err(DecodeError::Malformed(_))));
    }
}
