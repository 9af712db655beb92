//! Locks the session layer's allocation contract: once a `QuerySession`'s
//! workspaces have grown to a workload's steady-state size, re-running a
//! query performs **zero** heap allocations — the hot path is pure reuse.
//!
//! The same counter locks the disk read path's contract: a lookup served
//! from pooled pages allocates nothing — and the serving tier's: encoding a
//! reply into a buffer that has held one before allocates nothing.
//!
//! The whole test binary runs under a counting global allocator with
//! per-thread counters (so the harness's own threads cannot contaminate a
//! measurement).

use silc::{BuildConfig, DistanceBrowser, SilcIndex};
use silc_network::generate::{road_network, RoadConfig};
use silc_network::VertexId;
use silc_query::{KnnVariant, ObjectSet, QueryEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growth is an allocation for this test's purposes: a "reused"
        // buffer that regrows every query is not allocation-free.
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_on_this_thread() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn fixture() -> (Arc<SilcIndex>, Arc<ObjectSet>) {
    let g = Arc::new(road_network(&RoadConfig { vertices: 200, seed: 1234, ..Default::default() }));
    let idx = Arc::new(
        SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 9, threads: 0 }).unwrap(),
    );
    let objects = Arc::new(ObjectSet::random(&g, 0.1, 77));
    (idx, objects)
}

#[test]
fn second_knn_call_in_a_session_allocates_nothing() {
    let (idx, objects) = fixture();
    let engine = QueryEngine::new(idx, objects);
    let mut session = engine.session();
    let q = VertexId(42);
    let k = 10;

    for variant in [KnnVariant::Basic, KnnVariant::EarlyEstimate, KnnVariant::MinDist] {
        // First call: the workspaces grow to this query's size.
        let first = session.knn(q, k, variant).neighbors.len();
        assert_eq!(first, k);
        // Second identical call: pure reuse.
        let before = allocations_on_this_thread();
        let second = session.knn(q, k, variant).neighbors.len();
        let allocated = allocations_on_this_thread() - before;
        assert_eq!(second, k);
        assert_eq!(allocated, 0, "knn {variant:?}: the second call in a session must not allocate");
    }
}

#[test]
fn second_inn_call_in_a_session_allocates_nothing() {
    let (idx, objects) = fixture();
    let engine = QueryEngine::new(idx, objects);
    let mut session = engine.session();
    let q = VertexId(17);
    let _ = session.inn(q, 8);
    let before = allocations_on_this_thread();
    let n = session.inn(q, 8).neighbors.len();
    let allocated = allocations_on_this_thread() - before;
    assert_eq!(n, 8);
    assert_eq!(allocated, 0, "the second INN call in a session must not allocate");
}

#[test]
fn second_approx_knn_call_in_a_session_allocates_nothing() {
    // The ε-approximate path must honor the same contract: one oracle probe
    // per candidate over the session's reusable Euclidean-search and k-best
    // buffers — the second identical query is pure reuse.
    let (idx, objects) = fixture();
    let oracle = silc_pcp::DistanceOracle::build(idx.network(), 9, 8.0);
    let engine = QueryEngine::new(idx, objects);
    let mut session = engine.session();
    let q = VertexId(42);
    let first = session.approx_knn(&oracle, q, 10).neighbors.len();
    assert_eq!(first, 10);
    let before = allocations_on_this_thread();
    let second = session.approx_knn(&oracle, q, 10).neighbors.len();
    let allocated = allocations_on_this_thread() - before;
    assert_eq!(second, 10);
    assert_eq!(allocated, 0, "the second approx_knn call in a session must not allocate");
}

#[test]
fn steady_state_workload_stops_allocating() {
    // Not just one repeated query: after one full pass over a query set,
    // a second pass over the same set allocates nothing — the workspaces
    // have reached the workload's high-water mark.
    let (idx, objects) = fixture();
    let engine = QueryEngine::new(idx, objects);
    let mut session = engine.session();
    let queries: Vec<VertexId> = (0..20u32).map(|i| VertexId(i * 9 % 200)).collect();
    for &q in &queries {
        let _ = session.knn(q, 10, KnnVariant::Basic);
    }
    let before = allocations_on_this_thread();
    for &q in &queries {
        let _ = session.knn(q, 10, KnnVariant::Basic);
    }
    let allocated = allocations_on_this_thread() - before;
    assert_eq!(allocated, 0, "a repeated query pass must run allocation-free");
}

#[test]
fn a_pass_over_new_query_vertices_allocates_nothing() {
    // The per-object state table is sized by the object set, not by what a
    // query touches: after one pass, queries from 20 vertices the session
    // has never seen — touching other objects, more of them or fewer —
    // still allocate nothing.
    let (idx, objects) = fixture();
    let engine = QueryEngine::new(idx, objects);
    let mut session = engine.session();
    let pass = |session: &mut silc_query::QuerySession<SilcIndex>, offset: u32| {
        for i in 0..20u32 {
            let q = VertexId((i * 10 + offset) % 200);
            for variant in [KnnVariant::Basic, KnnVariant::EarlyEstimate, KnnVariant::MinDist] {
                assert_eq!(session.knn(q, 10, variant).neighbors.len(), 10);
            }
            assert_eq!(session.inn(q, 10).neighbors.len(), 10);
        }
    };
    pass(&mut session, 0);
    let before = allocations_on_this_thread();
    pass(&mut session, 5);
    let allocated = allocations_on_this_thread() - before;
    assert_eq!(allocated, 0, "a pass over unseen query vertices must run allocation-free");
}

#[test]
fn encoding_a_response_into_a_warmed_buffer_allocates_nothing() {
    use silc_server::protocol::{encode_frame, encode_frame_into, WireNeighbor};
    use silc_server::{AnswerBody, Frame};
    let neighbor = WireNeighbor { object: 1, vertex: 2, lo_bits: 3, hi_bits: 4 };
    let answer = AnswerBody {
        algorithm: 0,
        complete: true,
        degraded: vec![5],
        neighbors: vec![neighbor; 10],
    };
    let frame = Frame::Response { request_id: 9, sequence: 3, answer };

    // The executor's pattern: fill, write, clear — 32 replies to a run.
    let mut buf = Vec::new();
    for _ in 0..32 {
        encode_frame_into(&mut buf, &frame);
    }
    let warmed = buf.clone();
    buf.clear();
    let before = allocations_on_this_thread();
    for _ in 0..32 {
        encode_frame_into(&mut buf, &frame);
    }
    let allocated = allocations_on_this_thread() - before;
    assert_eq!(buf, warmed);
    assert_eq!(allocated, 0, "a warmed reply buffer must encode without allocating");

    // The fresh-vector wrapper cannot be free — the counter is live here too.
    let before = allocations_on_this_thread();
    let one = encode_frame(&frame);
    assert!(allocations_on_this_thread() > before);
    assert_eq!(one[..], warmed[..one.len()]);
}

#[test]
fn one_shot_wrappers_do_allocate() {
    // Sanity check that the counter actually counts: the one-shot wrapper
    // builds a fresh scratch, which cannot be free.
    let (idx, objects) = fixture();
    let before = allocations_on_this_thread();
    let _ = silc_query::knn(&*idx, &objects, VertexId(42), 10, KnnVariant::Basic);
    assert!(allocations_on_this_thread() > before, "the allocation counter must be live");
}

#[test]
fn disk_lookup_on_pooled_pages_allocates_nothing() {
    // A pool holding the whole file: once every page is pooled, a lookup
    // searches its vertex's span inside the pooled page, so a second sweep
    // of `try_entry` and `try_min_lambda` over every vertex allocates
    // nothing at all.
    let (idx, _) = fixture();
    let n = idx.network().vertex_count() as u32;
    let disk = silc::DiskSilcIndex::open_store(
        Box::new(silc_storage::MemPageStore::new(&silc::disk::encode_index(&idx))),
        idx.network_arc().clone(),
        1.0,
    )
    .unwrap();
    let code = disk.vertex_code(VertexId(0));
    let rect = silc::CellRect::new(3, 5, 200, 90);
    let sweep = || {
        (0..n).all(|v| {
            let v = VertexId(v);
            disk.try_entry(v, code).unwrap().is_some() && disk.try_min_lambda(v, &rect).is_ok()
        })
    };
    assert!(sweep());
    disk.reset_io_stats();
    let before = allocations_on_this_thread();
    assert!(sweep());
    let allocated = allocations_on_this_thread() - before;
    assert_eq!(disk.io_stats().misses, 0, "every page must come from the pool");
    assert_eq!(allocated, 0, "a lookup on pooled pages must not allocate");
}
