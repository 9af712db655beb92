//! End-to-end TCP tests: the acceptance gates of the serving tier.
//!
//! * ≥4 simultaneous clients receive answers bit-identical to local
//!   `QuerySession` execution, across every algorithm the backend serves.
//! * Malformed / truncated / oversized / garbage frames produce typed
//!   error frames — never a panic, never a hang.
//! * Mid-request disconnects leave the server healthy.
//! * Flooding a tiny submission queue engages `SERVER_BUSY` backpressure
//!   and every body is accounted for (answered + busy == sent).
//! * A closed-loop `BATCH` round trip does not wait on Nagle's algorithm
//!   and the client's delayed-ACK timer.

use silc::partitioned::{PartitionedBuildConfig, PartitionedSilcIndex};
use silc::{BuildConfig, SilcIndex};
use silc_network::generate::{road_network, RoadConfig};
use silc_network::{PartitionConfig, SpatialNetwork, VertexId};
use silc_query::{KnnVariant, ObjectSet, PartitionedEngine, QueryEngine, Routable};
use silc_server::batch::BatchOrder;
use silc_server::protocol::{self, Frame, WireNeighbor, HEADER_LEN, MAGIC, MAX_FRAME_LEN, VERSION};
use silc_server::server::DynBrowser;
use silc_server::{
    Algorithm, Client, ErrorCode, Outcome, QueryBody, Server, ServerBackend, ServerConfig,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fixture(
    vertices: usize,
    seed: u64,
) -> (Arc<SpatialNetwork>, Arc<QueryEngine<DynBrowser>>, Arc<ObjectSet>) {
    let g = Arc::new(road_network(&RoadConfig { vertices, seed, ..Default::default() }));
    let objects = Arc::new(ObjectSet::random(&g, 0.12, seed.wrapping_add(1)));
    let idx = Arc::new(
        SilcIndex::build(Arc::clone(&g), &BuildConfig { grid_exponent: 9, threads: 0 }).unwrap(),
    );
    let browser: Arc<DynBrowser> = idx;
    (g, Arc::new(QueryEngine::new(browser, Arc::clone(&objects))), objects)
}

fn exact_only_backend(engine: &Arc<QueryEngine<DynBrowser>>) -> ServerBackend {
    ServerBackend { engine: Arc::clone(engine), routable: None, oracle: None, warnings: Vec::new() }
}

fn wire(r: &silc_query::KnnResult) -> Vec<WireNeighbor> {
    r.neighbors
        .iter()
        .map(|n| WireNeighbor {
            object: n.object.0,
            vertex: n.vertex.0,
            lo_bits: n.interval.lo.to_bits(),
            hi_bits: n.interval.hi.to_bits(),
        })
        .collect()
}

#[test]
fn four_concurrent_clients_get_bit_identical_answers() {
    let (g, engine, objects) = fixture(200, 99);

    // Full backend: exact + routed + approx, so every algorithm is
    // exercised concurrently.
    let dir = std::env::temp_dir().join("silc-server-net-concurrent");
    std::fs::remove_dir_all(&dir).ok();
    let pcfg = PartitionedBuildConfig {
        partition: PartitionConfig { shards: 3, ..Default::default() },
        grid_exponent: 9,
        threads: 1,
        cache_fraction: 0.5,
    };
    let pidx = Arc::new(PartitionedSilcIndex::build_in_dir(Arc::clone(&g), &dir, &pcfg).unwrap());
    let routed = Arc::new(PartitionedEngine::new(pidx, Arc::clone(&objects)));
    let oracle: Arc<dyn silc_query::ApproxDistanceOracle> =
        Arc::new(silc_pcp::DistanceOracle::build(&g, 9, 8.0));

    let backend = ServerBackend {
        engine: Arc::clone(&engine),
        routable: Some(Arc::clone(&routed) as Arc<dyn Routable>),
        oracle: Some(Arc::clone(&oracle)),
        warnings: Vec::new(),
    };
    let server = Server::start("127.0.0.1:0", backend, ServerConfig::default()).unwrap();
    let addr = server.addr();

    let n = g.vertex_count() as u32;
    let threads: Vec<_> = (0..4u32)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let routed = Arc::clone(&routed);
            let oracle = Arc::clone(&oracle);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut local = engine.session();
                let mut local_routed = routed.routing_session();
                let mut routed_out = silc_query::RoutedAnswer::default();
                for round in 0..6u32 {
                    let q = (t * 37 + round * 13) % n;
                    let k = 1 + ((t + round) % 4) as usize;
                    for algorithm in Algorithm::ALL {
                        let body = QueryBody { algorithm, vertex: q, k: k as u32 };
                        let got = match client.query(body).unwrap() {
                            Outcome::Answer(a) => a,
                            other => panic!("client {t}: {algorithm:?} answered {other:?}"),
                        };
                        let qv = VertexId(q);
                        let (want_neighbors, want_complete, want_degraded) = match algorithm {
                            Algorithm::Knn => {
                                (wire(local.knn(qv, k, KnnVariant::Basic)), true, vec![])
                            }
                            Algorithm::KnnI => {
                                (wire(local.knn(qv, k, KnnVariant::EarlyEstimate)), true, vec![])
                            }
                            Algorithm::KnnM => {
                                (wire(local.knn(qv, k, KnnVariant::MinDist)), true, vec![])
                            }
                            Algorithm::Inn => (wire(local.inn(qv, k)), true, vec![]),
                            Algorithm::Ine => (wire(local.ine(qv, k)), true, vec![]),
                            Algorithm::Ier => (wire(local.ier(qv, k)), true, vec![]),
                            Algorithm::Routed => {
                                local_routed.try_knn(qv, k, &mut routed_out).unwrap();
                                (
                                    routed_out
                                        .neighbors
                                        .iter()
                                        .map(|pn| WireNeighbor {
                                            object: pn.object.0,
                                            vertex: pn.vertex.0,
                                            lo_bits: pn.interval.lo.to_bits(),
                                            hi_bits: pn.interval.hi.to_bits(),
                                        })
                                        .collect(),
                                    routed_out.complete,
                                    routed_out.degraded.clone(),
                                )
                            }
                            Algorithm::Approx => {
                                (wire(local.approx_knn(&*oracle, qv, k)), true, vec![])
                            }
                        };
                        assert_eq!(got.algorithm, algorithm as u8);
                        assert_eq!(got.complete, want_complete, "client {t} {algorithm:?}");
                        assert_eq!(got.degraded, want_degraded, "client {t} {algorithm:?}");
                        assert_eq!(
                            got.neighbors, want_neighbors,
                            "client {t} {algorithm:?} q={q} k={k}: remote answer must be \
                             bit-identical to local"
                        );
                    }
                }
                client.goodbye().unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flood_engages_backpressure_and_accounts_for_every_body() {
    let (_, engine, _) = fixture(150, 7);
    let cfg = ServerConfig {
        queue_capacity: 2,
        max_batch: 1,
        order: BatchOrder::Morton,
        executor_threads: 1,
    };
    let server = Server::start("127.0.0.1:0", exact_only_backend(&engine), cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let bodies: Vec<QueryBody> =
        (0..300).map(|i| QueryBody { algorithm: Algorithm::Knn, vertex: i % 150, k: 3 }).collect();
    let outcomes = client.batch(&bodies).unwrap();
    let answered = outcomes.iter().filter(|o| matches!(o, Outcome::Answer(_))).count();
    let busy = outcomes.iter().filter(|o| matches!(o, Outcome::Busy)).count();
    assert_eq!(answered + busy, bodies.len(), "every body gets exactly one reply");
    assert!(busy > 0, "a 2-deep queue flooded with 300 bodies must bounce some");
    assert!(answered > 0, "the executor must also make progress");

    let status = client.status().unwrap();
    assert_eq!(status.busy_rejections, busy as u64);
    assert_eq!(status.queue_capacity, 2);
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn batch_round_trip_does_not_stall_on_nagle_and_delayed_ack() {
    // 32 small RESPONSE frames per round trip. Written one by one on a
    // socket with Nagle on, the second waits for an ACK the client's
    // delayed-ACK timer holds for ≈ 40 ms — a 44 ms round trip for well
    // under 1 ms of work. The median keeps a descheduled run or two of
    // this sandbox from failing the test.
    let (_, engine, _) = fixture(150, 7);
    let server =
        Server::start("127.0.0.1:0", exact_only_backend(&engine), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let bodies: Vec<QueryBody> = (0..32)
        .map(|i| QueryBody { algorithm: Algorithm::Knn, vertex: (i * 11) % 150, k: 10 })
        .collect();
    let mut round_trips: Vec<Duration> = (0..20)
        .map(|_| {
            let t = Instant::now();
            let outcomes = client.batch(&bodies).unwrap();
            assert!(outcomes.iter().all(|o| matches!(o, Outcome::Answer(_))));
            t.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(median < Duration::from_millis(20), "median BATCH-32 round trip {median:?}");

    // The whole batch reached the executor in one drain.
    let status = client.status().unwrap();
    assert_eq!((status.batches_drained, status.bodies_executed), (20, 640));
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn hardening_bad_frames_get_typed_errors_and_disconnects_leave_server_healthy() {
    let (_, engine, _) = fixture(120, 31);
    let server =
        Server::start("127.0.0.1:0", exact_only_backend(&engine), ServerConfig::default()).unwrap();
    let addr = server.addr();

    // Garbage magic → BAD_MAGIC, closed.
    let mut c = Client::connect(addr).unwrap();
    c.send_raw(&[0u8; 32]).unwrap();
    match c.recv_frame().unwrap().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::BadMagic as u16),
        other => panic!("garbage answered {other:?}"),
    }
    assert!(c.recv_frame().unwrap().is_none());

    // Oversized header → FRAME_TOO_LARGE, closed.
    let mut c = Client::connect(addr).unwrap();
    let mut hdr = Vec::new();
    hdr.extend_from_slice(&MAGIC.to_le_bytes());
    hdr.extend_from_slice(&VERSION.to_le_bytes());
    hdr.push(0x03);
    hdr.push(0);
    hdr.extend_from_slice(&(MAX_FRAME_LEN + 7).to_le_bytes());
    c.send_raw(&hdr).unwrap();
    match c.recv_frame().unwrap().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::FrameTooLarge as u16),
        other => panic!("oversized answered {other:?}"),
    }
    assert!(c.recv_frame().unwrap().is_none());

    // Unknown kind → UNKNOWN_KIND, closed.
    let mut c = Client::connect(addr).unwrap();
    let mut hdr = Vec::new();
    hdr.extend_from_slice(&MAGIC.to_le_bytes());
    hdr.extend_from_slice(&VERSION.to_le_bytes());
    hdr.push(0x6F);
    hdr.push(0);
    hdr.extend_from_slice(&0u32.to_le_bytes());
    c.send_raw(&hdr).unwrap();
    match c.recv_frame().unwrap().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownKind as u16),
        other => panic!("unknown kind answered {other:?}"),
    }
    assert!(c.recv_frame().unwrap().is_none());

    // Truncated frame then hard disconnect: no reply owed; the server
    // must survive. (This is the mid-request-disconnect gate.)
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        protocol::write_frame(&mut raw, &Frame::Hello { version: VERSION }).unwrap();
        let mut hello_reply = raw.try_clone().unwrap();
        protocol::read_frame(&mut hello_reply).unwrap().unwrap();
        let full = protocol::encode_frame(&Frame::Query {
            request_id: 1,
            body: QueryBody { algorithm: Algorithm::Knn, vertex: 0, k: 1 },
        });
        raw.write_all(&full[..HEADER_LEN + 3]).unwrap();
        // Drop mid-payload.
    }

    // Bad vertex / bad k / unavailable algorithm → typed per-query errors
    // on a connection that stays up.
    let mut c = Client::connect(addr).unwrap();
    match c.query(QueryBody { algorithm: Algorithm::Knn, vertex: 10_000, k: 1 }).unwrap() {
        Outcome::ServerError { code, .. } => assert_eq!(code, ErrorCode::BadVertex as u16),
        other => panic!("bad vertex answered {other:?}"),
    }
    match c.query(QueryBody { algorithm: Algorithm::Knn, vertex: 0, k: 0 }).unwrap() {
        Outcome::ServerError { code, .. } => assert_eq!(code, ErrorCode::BadK as u16),
        other => panic!("k=0 answered {other:?}"),
    }
    for algorithm in [Algorithm::Routed, Algorithm::Approx] {
        match c.query(QueryBody { algorithm, vertex: 0, k: 1 }).unwrap() {
            Outcome::ServerError { code, .. } => {
                assert_eq!(code, ErrorCode::Unavailable as u16, "{algorithm:?}")
            }
            other => panic!("{algorithm:?} answered {other:?}"),
        }
    }
    // And the connection still answers real queries after all that.
    match c.query(QueryBody { algorithm: Algorithm::Knn, vertex: 1, k: 2 }).unwrap() {
        Outcome::Answer(a) => assert!(!a.neighbors.is_empty()),
        other => panic!("healthy query answered {other:?}"),
    }

    // Protocol-order violation: HELLO twice → MALFORMED, closed.
    c.send_raw(&protocol::encode_frame(&Frame::Hello { version: VERSION })).unwrap();
    match c.recv_frame().unwrap().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed as u16),
        other => panic!("double HELLO answered {other:?}"),
    }
    assert!(c.recv_frame().unwrap().is_none());

    server.shutdown();
}

#[test]
fn fifo_and_morton_orders_answer_identically() {
    let (_, engine, _) = fixture(160, 55);
    let bodies: Vec<QueryBody> = (0..40)
        .map(|i| QueryBody { algorithm: Algorithm::Knn, vertex: (i * 7) % 160, k: 2 })
        .collect();

    let mut answers = Vec::new();
    for order in [BatchOrder::Fifo, BatchOrder::Morton] {
        let cfg = ServerConfig { order, queue_capacity: 1024, ..Default::default() };
        let server = Server::start("127.0.0.1:0", exact_only_backend(&engine), cfg).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let outcomes = client.batch(&bodies).unwrap();
        answers.push(
            outcomes
                .into_iter()
                .map(|o| match o {
                    Outcome::Answer(a) => a,
                    other => panic!("{order:?} answered {other:?}"),
                })
                .collect::<Vec<_>>(),
        );
        client.goodbye().unwrap();
        server.shutdown();
    }
    assert_eq!(answers[0], answers[1], "execution order must never change answers");
}
