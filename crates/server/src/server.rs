//! The TCP server: one session per connection thread, one shared bounded
//! submission queue, executor threads draining Morton-sorted batches.
//!
//! ## Threading model
//!
//! * **Accept thread** — polls the listener, spawns one thread per
//!   connection, registers each connection's writer so shutdown can
//!   unblock its reader by closing the socket.
//! * **Connection threads** — own the socket's read half and a
//!   `SessionSet` (a `QuerySession`, plus a routing session when the
//!   backend has one). `QUERY` frames execute inline on this session;
//!   the bodies of a `BATCH` frame are submitted to the shared queue
//!   together. All writes to the socket go through a mutex-guarded
//!   `ConnWriter`, one or more whole frames per lock hold and never part of
//!   one, so executor replies and inline replies never interleave partial
//!   frames.
//! * **Executor threads** — each owns its *own* `SessionSet`; they block
//!   on the queue, drain up to [`ServerConfig::max_batch`] jobs, order the
//!   batch ([`BatchOrder`]), execute, and reply through each job's writer.
//!   Replies are encoded into one per-executor buffer and written once per
//!   run of consecutive jobs of one request: the buffer is flushed as soon
//!   as the next job belongs to another request or the drain ends, so a
//!   `BATCH` costs its client one wake-up and no reply waits for another
//!   request's execution.
//!
//! Every query answered by any thread is bit-identical to a local
//! [`QuerySession`] run: the sessions *are* local sessions, and the wire
//! codec moves `f64`s as bit patterns.

use crate::batch::{order_batch, BatchOrder, Job, SubmissionQueue};
use crate::protocol::{
    self, Algorithm, AnswerBody, ErrorCode, Frame, QueryBody, StatusReply, WireNeighbor,
    CAP_APPROX, CAP_ROUTED, VERSION,
};
use silc::{DistInterval, DistanceBrowser, QueryError};
use silc_morton::MortonCode;
use silc_network::VertexId;
use silc_query::{
    ApproxDistanceOracle, KnnVariant, ObjectId, QueryEngine, QuerySession, Routable, RoutedAnswer,
    RoutingSession,
};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The index type every connection serves: any [`DistanceBrowser`] behind
/// a vtable — the memory and disk indexes alike.
pub type DynBrowser = dyn DistanceBrowser + Send + Sync;

/// What the server serves. The exact engine is mandatory; the routed and
/// approximate backends are optional and advertised via `SERVER_HELLO`
/// capability bits.
pub struct ServerBackend {
    /// Exact algorithms (kNN/kNN-I/kNN-M/INN/INE/IER) run here.
    pub engine: Arc<QueryEngine<DynBrowser>>,
    /// `Routed` queries, when present ([`CAP_ROUTED`]).
    pub routable: Option<Arc<dyn Routable>>,
    /// `Approx` queries, when present ([`CAP_APPROX`]).
    pub oracle: Option<Arc<dyn ApproxDistanceOracle>>,
    /// Open-time degradations to surface in `STATUS_REPLY` — e.g. the
    /// display forms of [`silc::OpenWarning`] from
    /// `PartitionedSilcIndex::open_warnings`.
    pub warnings: Vec<String>,
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Submission-queue capacity; the backpressure threshold.
    pub queue_capacity: usize,
    /// Most jobs an executor drains (and sorts) at once.
    pub max_batch: usize,
    /// Execution order of drained batches.
    pub order: BatchOrder,
    /// Executor thread count.
    pub executor_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 256,
            max_batch: 64,
            order: BatchOrder::Morton,
            executor_threads: 1,
        }
    }
}

/// Lifetime counters, visible in `STATUS_REPLY`.
#[derive(Default)]
struct ServerStats {
    queries_answered: AtomicU64,
    busy_rejections: AtomicU64,
    batches_drained: AtomicU64,
    bodies_executed: AtomicU64,
}

/// Most bytes of encoded replies an executor holds back for one write.
const FLUSH_BYTES: usize = 64 << 10;

/// The socket's write half behind a mutex: whole frames per lock hold.
/// Generic so the run law is testable on an in-memory sink.
struct ConnWriter<W = TcpStream> {
    stream: Mutex<W>,
}

impl<W: Write> ConnWriter<W> {
    /// Writes whole encoded frames with one `write_all`. Errors are dropped:
    /// a dead client is owed nothing, and its reader thread notices.
    fn send_bytes(&self, frames: &[u8]) {
        let _ = self.stream.lock().unwrap().write_all(frames);
    }

    fn send(&self, frame: &Frame) {
        self.send_bytes(&protocol::encode_frame(frame));
    }
}

impl ConnWriter {
    /// Tears the socket down (both halves), unblocking the reader thread.
    fn kill(&self) {
        let s = self.stream.lock().unwrap();
        let _ = s.shutdown(std::net::Shutdown::Both);
    }
}

struct Shared {
    backend: ServerBackend,
    cfg: ServerConfig,
    queue: SubmissionQueue<Arc<ConnWriter>>,
    stats: ServerStats,
    shutdown: AtomicBool,
    /// Writers of live connections, so shutdown can unblock their readers.
    writers: Mutex<Vec<Arc<ConnWriter>>>,
}

impl Shared {
    fn vertex_count(&self) -> u32 {
        self.backend.engine.browser().network().vertex_count() as u32
    }

    fn capabilities(&self) -> u8 {
        let mut caps = 0;
        if self.backend.routable.is_some() {
            caps |= CAP_ROUTED;
        }
        if self.backend.oracle.is_some() {
            caps |= CAP_APPROX;
        }
        caps
    }

    /// Morton code of a query vertex's position, on the index's own grid.
    /// Out-of-range vertices get `0`: they fail validation at execution,
    /// so their batch position is irrelevant.
    fn morton_of(&self, vertex: u32) -> u64 {
        let browser = self.backend.engine.browser();
        if vertex >= self.vertex_count() {
            return 0;
        }
        let p = browser.network().position(VertexId(vertex));
        MortonCode::encode(browser.mapper().to_grid(&p)).0
    }

    fn status(&self) -> StatusReply {
        StatusReply {
            queue_depth: self.queue.depth() as u32,
            queue_capacity: self.queue.capacity() as u32,
            queries_answered: self.stats.queries_answered.load(Ordering::Relaxed),
            busy_rejections: self.stats.busy_rejections.load(Ordering::Relaxed),
            batches_drained: self.stats.batches_drained.load(Ordering::Relaxed),
            bodies_executed: self.stats.bodies_executed.load(Ordering::Relaxed),
            warnings: self.backend.warnings.clone(),
        }
    }
}

/// Per-thread query state: a local session per backend kind. Connection
/// threads and executor threads each own one.
struct SessionSet {
    exact: QuerySession<DynBrowser>,
    routed: Option<Box<dyn RoutingSession>>,
    routed_answer: RoutedAnswer,
}

impl SessionSet {
    fn new(backend: &ServerBackend) -> Self {
        SessionSet {
            exact: backend.engine.session(),
            routed: backend.routable.as_ref().map(|r| r.routing_session()),
            routed_answer: RoutedAnswer::default(),
        }
    }
}

/// The wire form of an answer, from either session kind's neighbor type.
fn answer_body(
    algorithm: Algorithm,
    complete: bool,
    degraded: &[u32],
    neighbors: impl Iterator<Item = (ObjectId, VertexId, DistInterval)>,
) -> AnswerBody {
    AnswerBody {
        algorithm: algorithm as u8,
        complete,
        degraded: degraded.to_vec(),
        neighbors: neighbors
            .map(|(object, vertex, interval)| WireNeighbor {
                object: object.0,
                vertex: vertex.0,
                lo_bits: interval.lo.to_bits(),
                hi_bits: interval.hi.to_bits(),
            })
            .collect(),
    }
}

fn query_error_reply(e: QueryError) -> (ErrorCode, String) {
    match e {
        QueryError::Io(_) => (ErrorCode::QueryIo, e.to_string()),
        QueryError::Corrupt { .. } => (ErrorCode::QueryCorrupt, e.to_string()),
    }
}

/// `BAD_K` for an answer the client could only reject, fatally, as too large.
fn check_fits(neighbors: usize, degraded: usize) -> Result<(), (ErrorCode, String)> {
    if protocol::response_fits(neighbors, degraded) {
        return Ok(());
    }
    Err((ErrorCode::BadK, format!("an answer of {neighbors} neighbors cannot fit one frame")))
}

/// Validates and executes one query body on `set`, against `shared`'s
/// backend. This is the single dispatch path both inline `QUERY` handling
/// and the batching executor go through.
fn execute(
    shared: &Shared,
    set: &mut SessionSet,
    body: &QueryBody,
) -> Result<AnswerBody, (ErrorCode, String)> {
    if body.k == 0 {
        return Err((ErrorCode::BadK, "k must be at least 1".into()));
    }
    let n = shared.vertex_count();
    if body.vertex >= n {
        return Err((ErrorCode::BadVertex, format!("vertex {} out of range 0..{n}", body.vertex)));
    }
    let q = VertexId(body.vertex);
    let k = body.k as usize;
    // Refused before any work is spent on it.
    check_fits(k.min(shared.backend.engine.objects().len()), 0)?;
    let algo = body.algorithm;
    let unavailable = |what: &str| (ErrorCode::Unavailable, format!("no {what} configured"));
    let r = match algo {
        Algorithm::Knn => set.exact.try_knn(q, k, KnnVariant::Basic),
        Algorithm::KnnI => set.exact.try_knn(q, k, KnnVariant::EarlyEstimate),
        Algorithm::KnnM => set.exact.try_knn(q, k, KnnVariant::MinDist),
        Algorithm::Inn => set.exact.try_inn(q, k),
        Algorithm::Ine => Ok(set.exact.ine(q, k)),
        Algorithm::Ier => Ok(set.exact.ier(q, k)),
        Algorithm::Approx => match shared.backend.oracle.as_deref() {
            Some(oracle) => set.exact.try_approx_knn(oracle, q, k),
            None => return Err(unavailable("approximate oracle")),
        },
        Algorithm::Routed => {
            let routed = set.routed.as_mut().ok_or_else(|| unavailable("partitioned backend"))?;
            let a = &mut set.routed_answer;
            routed.try_knn(q, k, a).map_err(query_error_reply)?;
            // The router's object set is its own, and degraded shard ids
            // take room too: only the answer itself settles whether it fits.
            check_fits(a.neighbors.len(), a.degraded.len())?;
            let neighbors = a.neighbors.iter().map(|n| (n.object, n.vertex, n.interval));
            return Ok(answer_body(algo, a.complete, &a.degraded, neighbors));
        }
    }
    .map_err(query_error_reply)?;
    Ok(answer_body(algo, true, &[], r.neighbors.iter().map(|n| (n.object, n.vertex, n.interval))))
}

/// Executes one body into its reply frame — `RESPONSE` or `ERROR` — with
/// the success accounting. Inline `QUERY`s and executor jobs both end here.
fn reply_to(
    shared: &Shared,
    set: &mut SessionSet,
    request_id: u64,
    sequence: u32,
    body: &QueryBody,
) -> Frame {
    match execute(shared, set, body) {
        Ok(answer) => {
            shared.stats.queries_answered.fetch_add(1, Ordering::Relaxed);
            Frame::Response { request_id, sequence, answer }
        }
        Err((code, detail)) => Frame::Error { request_id, sequence, code: code as u16, detail },
    }
}

/// Runs `batch` in order, encoding each job's reply into `buf` and writing
/// once per maximal run of consecutive jobs that share a connection and a
/// request id: the run is flushed when the next job belongs elsewhere, when
/// the batch ends, or when it has grown past [`FLUSH_BYTES`].
fn reply_in_runs<W: Write>(
    batch: &[Job<Arc<ConnWriter<W>>>],
    buf: &mut Vec<u8>,
    mut run: impl FnMut(&Job<Arc<ConnWriter<W>>>) -> Frame,
) {
    for (i, job) in batch.iter().enumerate() {
        protocol::encode_frame_into(buf, &run(job));
        let run_goes_on = batch.get(i + 1).is_some_and(|next| {
            next.request_id == job.request_id && Arc::ptr_eq(&next.reply, &job.reply)
        });
        if !run_goes_on || buf.len() >= FLUSH_BYTES {
            job.reply.send_bytes(buf);
            buf.clear();
        }
    }
}

fn executor_loop(shared: Arc<Shared>) {
    let mut set = SessionSet::new(&shared.backend);
    let mut batch: Vec<Job<Arc<ConnWriter>>> = Vec::with_capacity(shared.cfg.max_batch);
    let mut buf = Vec::new();
    while shared.queue.drain(shared.cfg.max_batch, &mut batch) {
        shared.stats.batches_drained.fetch_add(1, Ordering::Relaxed);
        shared.stats.bodies_executed.fetch_add(batch.len() as u64, Ordering::Relaxed);
        order_batch(&mut batch, shared.cfg.order);
        reply_in_runs(&batch, &mut buf, |job| {
            reply_to(&shared, &mut set, job.request_id, job.sequence, &job.body)
        });
        batch.clear();
    }
}

/// A connection-level `ERROR`: no request id or sequence applies.
fn conn_error(code: ErrorCode, detail: impl Into<String>) -> Frame {
    Frame::Error { request_id: 0, sequence: 0, code: code as u16, detail: detail.into() }
}

/// Handles one frame; `false` when the connection is to be closed.
fn handle_frame(
    shared: &Shared,
    set: &mut SessionSet,
    writer: &Arc<ConnWriter>,
    frame: Frame,
) -> bool {
    match frame {
        Frame::Query { request_id, body } => {
            writer.send(&reply_to(shared, set, request_id, 0, &body));
        }
        Frame::Batch { request_id, bodies } => {
            let mut jobs: Vec<_> = (0u32..)
                .zip(bodies)
                .map(|(sequence, body)| Job {
                    reply: Arc::clone(writer),
                    request_id,
                    sequence,
                    body,
                    morton: shared.morton_of(body.vertex),
                })
                .collect();
            shared.queue.try_submit_all(&mut jobs);
            // What did not fit bounces, in one write.
            if !jobs.is_empty() {
                shared.stats.busy_rejections.fetch_add(jobs.len() as u64, Ordering::Relaxed);
                reply_in_runs(&jobs, &mut Vec::new(), |job| Frame::ServerBusy {
                    request_id,
                    sequence: job.sequence,
                });
            }
        }
        Frame::Status => writer.send(&Frame::StatusReply(shared.status())),
        Frame::Goodbye => return false,
        // Client resending HELLO, or speaking server-direction frames:
        // protocol-order violation — MALFORMED, closed (see spec).
        Frame::Hello { .. }
        | Frame::ServerHello { .. }
        | Frame::Response { .. }
        | Frame::Error { .. }
        | Frame::ServerBusy { .. }
        | Frame::StatusReply(_) => {
            writer.send(&conn_error(ErrorCode::Malformed, "protocol-order violation"));
            return false;
        }
    }
    true
}

fn connection_loop(shared: Arc<Shared>, mut stream: TcpStream, writer: Arc<ConnWriter>) {
    // Handshake: the first frame must be HELLO with a speakable version.
    match protocol::read_frame(&mut stream) {
        Ok(Some(Frame::Hello { version })) if version == VERSION => {
            writer.send(&Frame::ServerHello {
                version: VERSION,
                capabilities: shared.capabilities(),
                vertex_count: shared.vertex_count(),
                object_count: shared.backend.engine.objects().len() as u32,
            });
        }
        Ok(Some(Frame::Hello { .. })) => {
            let detail = format!("server speaks version {VERSION}");
            writer.send(&conn_error(ErrorCode::UnsupportedVersion, detail));
            return;
        }
        Ok(Some(_)) => {
            writer.send(&conn_error(ErrorCode::Malformed, "expected HELLO first"));
            return;
        }
        Ok(None) => return,
        Err(e) => {
            if let Some((code, _)) = e.wire_reply() {
                writer.send(&conn_error(code, e.to_string()));
            }
            return;
        }
    }

    let mut set = SessionSet::new(&shared.backend);
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match protocol::read_frame(&mut stream) {
            Ok(Some(frame)) => {
                if !handle_frame(&shared, &mut set, &writer, frame) {
                    return;
                }
            }
            // Clean close, truncation, reset: nothing is owed. The spec's
            // "MUST NOT panic or hang" for mid-request disconnects is this
            // arm — the thread just winds down.
            Ok(None) => return,
            Err(e) => match e.wire_reply() {
                Some((code, keep)) => {
                    writer.send(&conn_error(code, e.to_string()));
                    if !keep {
                        return;
                    }
                }
                None => return,
            },
        }
    }
}

/// A running server. Dropping it shuts everything down: the listener, the
/// executors, and every live connection.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// in background threads.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        backend: ServerBackend,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: SubmissionQueue::new(cfg.queue_capacity),
            backend,
            cfg,
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            writers: Mutex::new(Vec::new()),
        });

        let executors = (0..shared.cfg.executor_threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || executor_loop(shared))
            })
            .collect();

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            accept_loop(accept_shared, listener);
        });

        Ok(Server { shared, addr, accept: Some(accept), executors })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time status snapshot — the same data `STATUS` returns.
    pub fn status(&self) -> StatusReply {
        self.shared.status()
    }

    /// Stops accepting, closes every connection, drains the executors —
    /// what dropping the server does.
    pub fn shutdown(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.queue.close();
        for w in self.shared.writers.lock().unwrap().drain(..) {
            w.kill();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    let mut conn_threads = Vec::new();
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // TCP_NODELAY: replies are small and waited on, and Nagle
                // holds every write after the first for the peer's delayed
                // ACK (≈ 40 ms). The client sets it too.
                let Ok(w) = stream.set_nodelay(true).and_then(|()| stream.try_clone()) else {
                    continue;
                };
                let writer = Arc::new(ConnWriter { stream: Mutex::new(w) });
                shared.writers.lock().unwrap().push(Arc::clone(&writer));
                let shared = Arc::clone(&shared);
                conn_threads.push(std::thread::spawn(move || {
                    connection_loop(Arc::clone(&shared), stream, Arc::clone(&writer));
                    // The reader is done with this connection: close the
                    // write-half clone too (the client is owed its EOF) and
                    // drop it from the shutdown registry.
                    writer.kill();
                    let mut writers = shared.writers.lock().unwrap();
                    if let Some(i) = writers.iter().position(|w| Arc::ptr_eq(w, &writer)) {
                        writers.swap_remove(i);
                    }
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    for h in conn_threads {
        let _ = h.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What every sink of one test wrote, in order: `(sink, bytes of one
    /// write call)`.
    type Log = Arc<Mutex<Vec<(char, Vec<u8>)>>>;

    /// An in-memory reply channel that takes whatever one `write` offers,
    /// so one `write_all` is one logged call.
    struct Sink(char, Log);

    impl Write for Sink {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.1.lock().unwrap().push((self.0, bytes.to_vec()));
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn sink(name: char, log: &Log) -> Arc<ConnWriter<Sink>> {
        Arc::new(ConnWriter { stream: Mutex::new(Sink(name, Arc::clone(log))) })
    }

    fn job<W>(
        reply: &Arc<ConnWriter<W>>,
        request_id: u64,
        sequence: u32,
    ) -> Job<Arc<ConnWriter<W>>> {
        let body = QueryBody { algorithm: Algorithm::Knn, vertex: sequence, k: 1 };
        Job { reply: Arc::clone(reply), request_id, sequence, body, morton: 0 }
    }

    /// A reply of `neighbors` neighbors — or an `ERROR` for sequence 1 of
    /// request 1, the job that "fails".
    fn reply<R>(job: &Job<R>, neighbors: usize) -> Frame {
        let (request_id, sequence) = (job.request_id, job.sequence);
        if (request_id, sequence) == (1, 1) {
            return Frame::Error { request_id, sequence, code: 7, detail: "bad vertex".into() };
        }
        let n = WireNeighbor { object: sequence, vertex: 9, lo_bits: request_id, hi_bits: 1 };
        let answer = AnswerBody {
            algorithm: 0,
            complete: true,
            degraded: vec![],
            neighbors: vec![n; neighbors],
        };
        Frame::Response { request_id, sequence, answer }
    }

    #[test]
    fn executor_writes_once_per_run_of_jobs_sharing_connection_and_request() {
        let log = Log::default();
        let (a, b) = (sink('A', &log), sink('B', &log));
        // [A·req1, A·req1 (fails), A·req1, B·req7, A·req2] in execution order.
        let batch = [job(&a, 1, 0), job(&a, 1, 1), job(&a, 1, 2), job(&b, 7, 0), job(&a, 2, 0)];
        let mut buf = Vec::new();
        reply_in_runs(&batch, &mut buf, |job| reply(job, 3));
        assert!(buf.is_empty(), "nothing is held back once the drain ends");

        let per_frame: Vec<Vec<u8>> =
            batch.iter().map(|job| protocol::encode_frame(&reply(job, 3))).collect();
        let log = log.lock().unwrap();
        let want = [
            ('A', per_frame[..3].concat()), // the ERROR rides in its run
            ('B', per_frame[3].clone()),
            ('A', per_frame[4].clone()),
        ];
        assert_eq!(*log, want, "three writes, in execution order");

        // Same request id on another connection is another run.
        drop(log);
        let log = Log::default();
        let (a, b) = (sink('A', &log), sink('B', &log));
        reply_in_runs(&[job(&a, 5, 0), job(&b, 5, 0)], &mut buf, |job| reply(job, 1));
        assert_eq!(log.lock().unwrap().iter().map(|w| w.0).collect::<String>(), "AB");
    }

    #[test]
    fn a_long_run_is_flushed_at_frame_boundaries_before_it_ends() {
        let log = Log::default();
        let a = sink('A', &log);
        // ≈ 29 KiB a reply: the third one takes the run past FLUSH_BYTES.
        let batch: Vec<_> = (0..7).map(|i| job(&a, 3, i)).collect();
        let mut buf = Vec::new();
        reply_in_runs(&batch, &mut buf, |job| reply(job, 1200));
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 3, "3 + 3 + 1 frames");
        let mut sequences = Vec::new();
        for (_, bytes) in log.iter() {
            assert!(bytes.len() < FLUSH_BYTES + (30 << 10), "held back: {}", bytes.len());
            let mut stream = &bytes[..];
            while let Some(frame) = protocol::read_frame(&mut stream).expect("whole frames only") {
                match frame {
                    Frame::Response { sequence, .. } => sequences.push(sequence),
                    other => panic!("decoded {other:?}"),
                }
            }
        }
        assert_eq!(sequences, (0..7).collect::<Vec<_>>());
    }
}
