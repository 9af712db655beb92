//! The client library: a blocking, dependency-free speaker of the SILC
//! protocol over one TCP connection.
//!
//! [`Client::connect`] performs the HELLO handshake; [`Client::query`] and
//! [`Client::batch`] are the synchronous request/response surface most
//! callers want. Open-loop callers (the latency bench) split the
//! connection with [`Client::try_clone`] and drive the two halves from
//! separate threads via [`Client::send_batch_nowait`] and
//! [`Client::recv`], matching responses by `(request id, sequence)`.
//!
//! The raw-frame escape hatches ([`Client::send_raw`],
//! [`Client::recv_frame`]) exist for protocol hardening tests — sending a
//! deliberately broken frame and asserting the typed `ERROR` that comes
//! back.

use crate::protocol::{self, AnswerBody, DecodeError, Frame, QueryBody, StatusReply, VERSION};
use std::fmt;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// What the server said in `SERVER_HELLO`.
#[derive(Debug, Clone, Copy)]
pub struct ServerInfo {
    pub version: u16,
    pub capabilities: u8,
    pub vertex_count: u32,
    pub object_count: u32,
}

/// Client-side failure: transport, codec, or a handshake-fatal server
/// error. Per-query server errors are *not* here — they are [`Outcome`]s,
/// because a batch can mix successes and failures.
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    Decode(DecodeError),
    /// The server answered the handshake with an `ERROR` frame.
    Rejected {
        code: u16,
        detail: String,
    },
    /// The server sent a frame that makes no sense here.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Decode(e) => write!(f, "decode: {e}"),
            ClientError::Rejected { code, detail } => {
                write!(f, "server rejected connection (code {code}): {detail}")
            }
            ClientError::Protocol(why) => write!(f, "protocol violation: {why}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Decode(e)
    }
}

/// The server's verdict on one query body.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Executed; the answer is bit-identical to a local session's.
    Answer(AnswerBody),
    /// Bounced by backpressure — resubmit after backing off.
    Busy,
    /// Rejected or failed with a typed error (`ErrorCode` value + detail).
    ServerError { code: u16, detail: String },
}

/// One protocol connection. Blocking; not `Sync` — clone for concurrency
/// ([`Client::try_clone`]).
pub struct Client {
    stream: TcpStream,
    info: ServerInfo,
    next_request: u64,
}

impl Client {
    /// Connects and performs the HELLO / SERVER_HELLO handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        // As the server does: Nagle only adds the peer's delayed-ACK timer.
        stream.set_nodelay(true)?;
        protocol::write_frame(&mut stream, &Frame::Hello { version: VERSION })?;
        match protocol::read_frame(&mut stream)? {
            Some(Frame::ServerHello { version, capabilities, vertex_count, object_count }) => {
                Ok(Client {
                    stream,
                    info: ServerInfo { version, capabilities, vertex_count, object_count },
                    next_request: 1,
                })
            }
            Some(Frame::Error { code, detail, .. }) => Err(ClientError::Rejected { code, detail }),
            Some(other) => Err(ClientError::Protocol(format!("handshake answered with {other:?}"))),
            None => Err(ClientError::Protocol("server closed during handshake".into())),
        }
    }

    /// The handshake data.
    pub fn info(&self) -> ServerInfo {
        self.info
    }

    /// A second handle on the same connection (shared socket). The
    /// intended split is one sender half and one receiver half; request
    /// ids stay unambiguous if only one half submits.
    pub fn try_clone(&self) -> io::Result<Client> {
        Ok(Client { stream: self.stream.try_clone()?, info: self.info, next_request: 1 })
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_request;
        self.next_request += 1;
        id
    }

    /// One query, synchronously: sends `QUERY`, waits for its reply.
    pub fn query(&mut self, body: QueryBody) -> Result<Outcome, ClientError> {
        let id = self.fresh_id();
        protocol::write_frame(&mut self.stream, &Frame::Query { request_id: id, body })?;
        let (_, _, outcome) = self.recv_matching(id)?;
        Ok(outcome)
    }

    /// One batch, synchronously: sends `BATCH`, collects every body's
    /// outcome, returns them in sequence order.
    pub fn batch(&mut self, bodies: &[QueryBody]) -> Result<Vec<Outcome>, ClientError> {
        let id = self.fresh_id();
        self.send_batch_nowait(id, bodies)?;
        let mut outcomes: Vec<Option<Outcome>> = vec![None; bodies.len()];
        let mut missing = bodies.len();
        while missing > 0 {
            let (rid, seq, outcome) = self.recv_expect()?;
            if rid != id {
                return Err(ClientError::Protocol(format!(
                    "response for unknown request {rid} (awaiting {id})"
                )));
            }
            let slot = outcomes
                .get_mut(seq as usize)
                .ok_or_else(|| ClientError::Protocol(format!("sequence {seq} out of range")))?;
            if slot.replace(outcome).is_some() {
                return Err(ClientError::Protocol(format!("duplicate sequence {seq}")));
            }
            missing -= 1;
        }
        Ok(outcomes.into_iter().map(|o| o.unwrap()).collect())
    }

    /// Asks for a server health snapshot.
    pub fn status(&mut self) -> Result<StatusReply, ClientError> {
        protocol::write_frame(&mut self.stream, &Frame::Status)?;
        loop {
            match protocol::read_frame(&mut self.stream)? {
                Some(Frame::StatusReply(s)) => return Ok(s),
                // Late batch replies may interleave; skip them.
                Some(Frame::Response { .. })
                | Some(Frame::Error { .. })
                | Some(Frame::ServerBusy { .. }) => continue,
                Some(other) => {
                    return Err(ClientError::Protocol(format!("status answered with {other:?}")))
                }
                None => return Err(ClientError::Protocol("server closed before reply".into())),
            }
        }
    }

    /// Says goodbye and consumes the client. The server closes cleanly.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        Ok(protocol::write_frame(&mut self.stream, &Frame::Goodbye)?)
    }

    // -- open-loop primitives (the latency bench's surface) -----------------

    /// Sends a `BATCH` without waiting for anything. The caller owns
    /// request-id allocation; match replies via [`Client::recv`] on the
    /// receiving half.
    pub fn send_batch_nowait(
        &mut self,
        request_id: u64,
        bodies: &[QueryBody],
    ) -> Result<(), ClientError> {
        let frame = Frame::Batch { request_id, bodies: bodies.to_vec() };
        Ok(protocol::write_frame(&mut self.stream, &frame)?)
    }

    /// Receives the next per-query outcome: `(request id, sequence,
    /// outcome)`. `Ok(None)` when the server closed the stream cleanly.
    pub fn recv(&mut self) -> Result<Option<(u64, u32, Outcome)>, ClientError> {
        loop {
            match protocol::read_frame(&mut self.stream)? {
                Some(Frame::Response { request_id, sequence, answer }) => {
                    return Ok(Some((request_id, sequence, Outcome::Answer(answer))))
                }
                Some(Frame::ServerBusy { request_id, sequence }) => {
                    return Ok(Some((request_id, sequence, Outcome::Busy)))
                }
                Some(Frame::Error { request_id, sequence, code, detail }) => {
                    return Ok(Some((request_id, sequence, Outcome::ServerError { code, detail })))
                }
                Some(Frame::StatusReply(_)) => continue,
                Some(other) => {
                    return Err(ClientError::Protocol(format!("unexpected frame {other:?}")))
                }
                None => return Ok(None),
            }
        }
    }

    fn recv_expect(&mut self) -> Result<(u64, u32, Outcome), ClientError> {
        self.recv()?.ok_or_else(|| ClientError::Protocol("server closed mid-request".into()))
    }

    fn recv_matching(&mut self, id: u64) -> Result<(u64, u32, Outcome), ClientError> {
        loop {
            let got = self.recv_expect()?;
            // Connection-level errors travel with request id 0; surface
            // them to whoever is waiting.
            if got.0 == id || got.0 == 0 {
                return Ok(got);
            }
        }
    }

    // -- hardening-test escape hatches --------------------------------------

    /// Writes raw bytes to the socket, bypassing the codec. For tests that
    /// need to send deliberately broken frames.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads one raw frame (`Ok(None)` on clean close). For tests
    /// asserting exactly which `ERROR` frame a broken input provokes.
    pub fn recv_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        protocol::read_frame(&mut self.stream)
    }
}
