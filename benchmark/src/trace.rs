//! The outside-in layer trace.
//!
//! Product code is never edited to be measured. Instead the benchmark owns
//! two decorators that sit on the crates' public seams — [`TracedStore`] on
//! `PageStore` (below the buffer pool) and [`TracedBrowser`] on
//! `DistanceBrowser` (between `silc-query` and `silc`) — and wraps the
//! session/client call itself in a root span. That yields the nest
//! `query ⊃ browser ⊃ store`; a layer's self time is its spans' duration
//! minus the part their children cover:
//!
//! * `query` self  = queue work, refinement logic, result assembly
//!   (`silc-query`; on `served_warm` the root is one `batch` round trip, so
//!   its self time also holds the whole serving tier),
//! * `browser` self = entry-cache lookup, varint decode, buffer pool
//!   (`silc::disk` + the cache half of `silc-storage`),
//! * `store` self  = the physical page read (`FilePageStore`).
//!
//! Spans live in memory preallocated (and touched) before the window
//! starts and are written out as JSON lines only after it ends. One request
//! is in flight at a time in every traced window — one query thread, or one
//! closed-loop connection whose executor runs while the client waits — so
//! "the innermost open span" is a single value, not a per-thread stack.
//!
//! A warm query makes ≈ 500 browser lookups of ≈ 100 ns each, and a span
//! costs about as much as one lookup (two clock reads), so recording every
//! lookup of every query would slow the window by a quarter. Every request
//! gets its root span; only *detailed* requests — every
//! [`crate::config::DETAIL_EVERY`]-th block of 32, chosen by request number,
//! so the same queries on every workload and every run — record the spans
//! beneath it. Layer figures are per detailed query; `trace.span_cost_ns`
//! says how much of each span is the tracer's own.

use crate::config::{is_detailed, SPANS_PER_DETAILED_QUERY};
use silc::{BlockEntry, CellRect, DiskSilcIndex, DistanceBrowser, QueryError};
use silc_geom::GridMapper;
use silc_morton::MortonCode;
use silc_network::{SpatialNetwork, VertexId};
use silc_storage::{PageId, PageStore};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Which boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// One session call (`QuerySession::knn` / `PartitionedSession::knn`).
    Query = 0,
    /// One closed-loop `BATCH` round trip through the server.
    Batch = 1,
    /// One `DistanceBrowser` lookup (`entry` / `min_lambda`).
    Browser = 2,
    /// One `PageStore` read (`read_page` / `read_pages`).
    Store = 3,
}

pub const LAYERS: usize = 4;

impl Layer {
    pub fn name(self) -> &'static str {
        ["query", "batch", "browser", "store"][self as usize]
    }

    fn from_u8(v: u8) -> Layer {
        [Layer::Query, Layer::Batch, Layer::Browser, Layer::Store][v as usize]
    }
}

const NO_SPAN: u32 = u32::MAX;
/// Words per span: start ns, end ns, `parent << 8 | detail << 7 | layer`,
/// `request << 32 | arg`.
const WORDS: usize = 4;
const DETAIL_BIT: u64 = 1 << 7;

/// One recorded span, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The request this span belongs to (query number, or batch number).
    pub request: u32,
    /// Whether the request records the spans beneath its root.
    pub detail: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Layer-specific count: pages for `store`, bodies for `batch`.
    pub arg: u32,
}

/// Span memory plus the "innermost open span" cursor. Lock-free: slots are
/// claimed with one `fetch_add`, and every field is a relaxed atomic store —
/// the values publish nothing but themselves, and they are only read after
/// the traced window's threads have been joined or have gone idle.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    words: Vec<AtomicU64>,
    next: AtomicUsize,
    current: AtomicU32,
    request: AtomicU32,
    detail: AtomicBool,
    dropped: AtomicU64,
}

impl Tracer {
    /// Room for `capacity` spans, zero-filled now so no page fault lands
    /// inside a traced window.
    pub fn new(capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            words: (0..capacity * WORDS).map(|_| AtomicU64::new(0)).collect(),
            next: AtomicUsize::new(0),
            current: AtomicU32::new(NO_SPAN),
            request: AtomicU32::new(0),
            detail: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        })
    }

    /// A tracer with room for a traced window of `queries` queries, and how
    /// many of those are detailed ones.
    pub fn for_window(queries: usize) -> (Arc<Tracer>, usize) {
        let detailed = (0..queries).filter(|&i| is_detailed(i)).count();
        (Tracer::new(queries + detailed * SPANS_PER_DETAILED_QUERY), detailed)
    }

    /// Spans are recorded only while enabled, so a traced engine can be
    /// warmed up through the same decorators without filling the buffer.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
        self.detail.store(false, Relaxed);
    }

    /// Opens the root span of request `request`; spans beneath it are
    /// recorded only if `detail`.
    pub fn root(&self, layer: Layer, request: u32, arg: u32, detail: bool) -> SpanGuard<'_> {
        self.request.store(request, Relaxed);
        self.detail.store(detail, Relaxed);
        self.record(layer, arg, detail)
    }

    /// Opens a span nested in whatever span is currently open, if the
    /// current request is a detailed one.
    pub fn open(&self, layer: Layer, arg: u32) -> SpanGuard<'_> {
        if !self.detail.load(Relaxed) {
            return SpanGuard { tracer: self, slot: NO_SPAN, parent: NO_SPAN };
        }
        self.record(layer, arg, true)
    }

    fn record(&self, layer: Layer, arg: u32, detail: bool) -> SpanGuard<'_> {
        if !self.enabled.load(Relaxed) {
            return SpanGuard { tracer: self, slot: NO_SPAN, parent: NO_SPAN };
        }
        let slot = self.next.fetch_add(1, Relaxed);
        if (slot + 1) * WORDS > self.words.len() {
            self.dropped.fetch_add(1, Relaxed);
            return SpanGuard { tracer: self, slot: NO_SPAN, parent: NO_SPAN };
        }
        // One request in flight: a plain load and store, not a swap.
        let parent = self.current.load(Relaxed);
        self.current.store(slot as u32, Relaxed);
        let w = &self.words[slot * WORDS..];
        w[2].store((parent as u64) << 8 | u64::from(detail) << 7 | layer as u64, Relaxed);
        w[3].store((self.request.load(Relaxed) as u64) << 32 | arg as u64, Relaxed);
        w[0].store(self.epoch.elapsed().as_nanos() as u64, Relaxed);
        SpanGuard { tracer: self, slot: slot as u32, parent }
    }

    /// Spans that did not fit the preallocated buffer (must be 0 for the
    /// layer figures to be trusted).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Every span recorded so far, in open order (parents before children).
    pub fn spans(&self) -> Vec<Span> {
        let n = self.next.load(Relaxed).min(self.words.len() / WORDS);
        (0..n)
            .map(|i| {
                let w = &self.words[i * WORDS..];
                let (meta, tail) = (w[2].load(Relaxed), w[3].load(Relaxed));
                let parent = (meta >> 8) as u32;
                Span {
                    layer: Layer::from_u8((meta & 0x7f) as u8),
                    parent: (parent != NO_SPAN).then_some(parent),
                    request: (tail >> 32) as u32,
                    detail: meta & DETAIL_BIT != 0,
                    start_ns: w[0].load(Relaxed),
                    end_ns: w[1].load(Relaxed),
                    arg: tail as u32,
                }
            })
            .collect()
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    slot: u32,
    parent: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.slot == NO_SPAN {
            return;
        }
        let end = self.tracer.epoch.elapsed().as_nanos() as u64;
        self.tracer.words[self.slot as usize * WORDS + 1].store(end, Relaxed);
        self.tracer.current.store(self.parent, Relaxed);
    }
}

/// Per-layer totals over the detailed requests of a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Span count per layer, detailed requests only.
    pub count: [u64; LAYERS],
    /// Self time per layer: duration minus what child spans cover, detailed
    /// requests only.
    pub self_ns: [u64; LAYERS],
    /// Summed duration of the detailed root spans — what `self_ns` sums to.
    pub detailed_ns: u64,
    /// Summed duration of every root span (the timed calls).
    pub root_ns: u64,
    /// Spans whose children summed to more than the span itself — 0 unless
    /// the one-request-in-flight assumption was broken.
    pub violations: u64,
}

impl Breakdown {
    pub fn of(spans: &[Span]) -> Breakdown {
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut b = Breakdown::default();
        for (s, &children) in spans.iter().zip(&covered) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            if s.parent.is_none() {
                b.root_ns += dur;
            }
            if !s.detail {
                continue;
            }
            if children > dur {
                b.violations += 1;
            }
            b.count[s.layer as usize] += 1;
            b.self_ns[s.layer as usize] += dur.saturating_sub(children);
            if s.parent.is_none() {
                b.detailed_ns += dur;
            }
        }
        b
    }

    pub fn self_us(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e3
    }
}

/// Writes spans as JSON lines: one object per span with its index as `id`.
pub fn write_jsonl<W: Write>(spans: &[Span], out: W) -> io::Result<()> {
    let mut out = io::BufWriter::new(out);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"detail\":{},\
             \"start_ns\":{},\"end_ns\":{},\"arg\":{}}}",
            s.layer.name(),
            s.request,
            s.detail,
            s.start_ns,
            s.end_ns,
            s.arg
        )?;
    }
    out.flush()
}

/// Writes a traced window's spans to `out/trace-<workload>.jsonl`.
pub fn write_trace_file(workload: &str, spans: &[Span]) {
    let path = crate::setup::out_dir().join(format!("trace-{workload}.jsonl"));
    let file = std::fs::File::create(&path).expect("create the trace file");
    write_jsonl(spans, file).expect("write the trace file");
    eprintln!("# {} spans written to {}", spans.len(), path.display());
}

/// A `PageStore` that records one `store` span per physical read.
pub struct TracedStore<S> {
    inner: S,
    tracer: Arc<Tracer>,
}

impl<S: PageStore> TracedStore<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>) -> Self {
        TracedStore { inner, tracer }
    }
}

impl<S: PageStore> PageStore for TracedStore<S> {
    fn read_page(&self, page: PageId) -> io::Result<Arc<[u8]>> {
        let _span = self.tracer.open(Layer::Store, 1);
        self.inner.read_page(page)
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn read_pages(&self, first: PageId, count: usize) -> io::Result<Vec<Arc<[u8]>>> {
        let _span = self.tracer.open(Layer::Store, count as u32);
        self.inner.read_pages(first, count)
    }
}

/// A `DistanceBrowser` over a disk index that records one `browser` span
/// per block lookup. Only the four lookups that reach the caches are
/// wrapped; the provided methods (`try_interval`, `try_next_hop`, …) are
/// the trait's defaults on both sides, so they funnel through these.
pub struct TracedBrowser {
    inner: Arc<DiskSilcIndex>,
    tracer: Arc<Tracer>,
}

impl TracedBrowser {
    pub fn new(inner: Arc<DiskSilcIndex>, tracer: Arc<Tracer>) -> Self {
        TracedBrowser { inner, tracer }
    }
}

impl DistanceBrowser for TracedBrowser {
    fn network(&self) -> &SpatialNetwork {
        self.inner.network()
    }

    fn mapper(&self) -> &GridMapper {
        self.inner.mapper()
    }

    fn vertex_code(&self, v: VertexId) -> MortonCode {
        self.inner.vertex_code(v)
    }

    fn entry(&self, u: VertexId, code: MortonCode) -> Option<BlockEntry> {
        let _span = self.tracer.open(Layer::Browser, 0);
        self.inner.entry(u, code)
    }

    fn min_lambda(&self, u: VertexId, rect: &CellRect) -> Option<f64> {
        let _span = self.tracer.open(Layer::Browser, 1);
        self.inner.min_lambda(u, rect)
    }

    fn global_min_ratio(&self) -> f64 {
        self.inner.global_min_ratio()
    }

    fn try_entry(&self, u: VertexId, code: MortonCode) -> Result<Option<BlockEntry>, QueryError> {
        let _span = self.tracer.open(Layer::Browser, 0);
        self.inner.try_entry(u, code)
    }

    fn try_min_lambda(&self, u: VertexId, rect: &CellRect) -> Result<Option<f64>, QueryError> {
        let _span = self.tracer.open(Layer::Browser, 1);
        self.inner.try_min_lambda(u, rect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silc::disk::encode_index;
    use silc::{BuildConfig, SilcIndex};
    use silc_network::generate::{road_network, RoadConfig};
    use silc_storage::MemPageStore;

    fn span(layer: Layer, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { layer, parent, request: 0, detail: true, start_ns, end_ns, arg: 0 }
    }

    #[test]
    fn self_times_subtract_children_and_sum_to_the_roots() {
        let spans = [
            span(Layer::Query, None, 0, 100),
            span(Layer::Browser, Some(0), 10, 40),
            span(Layer::Store, Some(1), 15, 35),
            span(Layer::Browser, Some(0), 50, 60),
            span(Layer::Query, None, 200, 250),
        ];
        let b = Breakdown::of(&spans);
        assert_eq!(b.count, [2, 0, 2, 1]);
        assert_eq!(b.self_ns[Layer::Query as usize], (100 - 30 - 10) + 50);
        assert_eq!(b.self_ns[Layer::Browser as usize], (30 - 20) + 10);
        assert_eq!(b.self_ns[Layer::Store as usize], 20);
        assert_eq!(b.root_ns, 150);
        assert_eq!(b.self_ns.iter().sum::<u64>(), b.detailed_ns);
        assert_eq!(b.detailed_ns, b.root_ns);
        assert_eq!(b.violations, 0);
    }

    #[test]
    fn undetailed_roots_count_as_wall_time_only() {
        let mut plain = span(Layer::Query, None, 300, 340);
        plain.detail = false;
        let spans =
            [span(Layer::Query, None, 0, 100), span(Layer::Browser, Some(0), 10, 40), plain];
        let b = Breakdown::of(&spans);
        assert_eq!(b.count, [1, 0, 1, 0]);
        assert_eq!((b.detailed_ns, b.root_ns), (100, 140));
        assert_eq!(b.self_ns.iter().sum::<u64>(), b.detailed_ns);
    }

    #[test]
    fn children_longer_than_their_parent_are_counted_not_hidden() {
        let spans = [span(Layer::Query, None, 0, 10), span(Layer::Browser, Some(0), 0, 25)];
        let b = Breakdown::of(&spans);
        assert_eq!(b.violations, 1);
        assert_eq!(b.self_ns[Layer::Query as usize], 0);
    }

    #[test]
    fn recorded_spans_nest_and_children_never_exceed_parents() {
        let t = Tracer::new(64);
        t.set_enabled(true);
        for q in 0..4 {
            // Request 3 is not a detailed one: its root only.
            let _root = t.root(Layer::Query, q, 0, q < 3);
            for _ in 0..2 {
                let _b = t.open(Layer::Browser, 0);
                let _s = t.open(Layer::Store, 1);
            }
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 16);
        assert_eq!(
            (spans[15].layer, spans[15].parent, spans[15].detail),
            (Layer::Query, None, false)
        );
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(spans[5].parent, None);
        assert_eq!(spans[7].request, 1);
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                let p = spans[p as usize];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            }
        }
        let b = Breakdown::of(&spans);
        assert_eq!(b.violations, 0);
        assert_eq!(b.self_ns.iter().sum::<u64>(), b.detailed_ns);
        assert!(b.root_ns >= b.detailed_ns);
    }

    #[test]
    fn disabled_or_full_tracer_records_nothing_more() {
        let t = Tracer::new(2);
        drop(t.root(Layer::Query, 0, 0, true));
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        for _ in 0..5 {
            drop(t.root(Layer::Query, 0, 0, true));
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let spans = [span(Layer::Query, None, 1, 9), span(Layer::Store, Some(0), 2, 3)];
        let mut out = Vec::new();
        write_jsonl(&spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"id\":0,\"name\":\"query\",\"parent\":null,\"request\":0,\"detail\":true,\
             \"start_ns\":1,\"end_ns\":9,\"arg\":0}"
        );
        assert!(lines[1].contains("\"name\":\"store\",\"parent\":0"));
    }

    /// The decorators must be invisible: same pages, same lookups, bit for
    /// bit, as the objects they wrap.
    #[test]
    fn decorators_return_what_the_undecorated_objects_return() {
        let network = Arc::new(road_network(&RoadConfig {
            vertices: 150,
            edge_factor: 1.25,
            detour: 0.2,
            extent: 1000.0,
            seed: 5,
        }));
        let index =
            SilcIndex::build(network.clone(), &BuildConfig { grid_exponent: 11, threads: 1 })
                .unwrap();
        let bytes = encode_index(&index);
        let tracer = Tracer::new(1 << 16);
        tracer.set_enabled(true);
        let _root = tracer.root(Layer::Query, 0, 0, true);

        let plain_store = MemPageStore::new(&bytes);
        let traced_store = TracedStore::new(MemPageStore::new(&bytes), tracer.clone());
        assert_eq!(plain_store.page_count(), traced_store.page_count());
        for p in 0..plain_store.page_count() {
            assert_eq!(
                plain_store.read_page(PageId(p)).unwrap(),
                traced_store.read_page(PageId(p)).unwrap()
            );
        }
        assert_eq!(
            plain_store.read_pages(PageId(1), 3).unwrap(),
            traced_store.read_pages(PageId(1), 3).unwrap()
        );

        let plain = Arc::new(
            DiskSilcIndex::from_store(Box::new(plain_store), network.clone(), 0.05, 32).unwrap(),
        );
        let traced = TracedBrowser::new(
            Arc::new(
                DiskSilcIndex::from_store(Box::new(traced_store), network.clone(), 0.05, 32)
                    .unwrap(),
            ),
            tracer.clone(),
        );
        let world = network.bounds();
        let rect = plain.cell_rect_for(&silc_geom::Rect::new(
            world.min_x,
            world.min_y,
            world.min_x + world.width() / 3.0,
            world.min_y + world.height() / 3.0,
        ));
        for u in network.vertices().step_by(7) {
            for v in network.vertices().step_by(11) {
                let code = plain.vertex_code(v);
                assert_eq!(code, traced.vertex_code(v));
                assert_eq!(plain.entry(u, code), traced.entry(u, code));
                assert_eq!(plain.try_entry(u, code).unwrap(), traced.try_entry(u, code).unwrap());
                let (a, b) = (plain.interval(u, v), traced.interval(u, v));
                assert_eq!((a.lo.to_bits(), a.hi.to_bits()), (b.lo.to_bits(), b.hi.to_bits()));
                assert_eq!(plain.next_hop(u, v), traced.next_hop(u, v));
            }
            assert_eq!(
                plain.min_lambda(u, &rect).map(f64::to_bits),
                traced.min_lambda(u, &rect).map(f64::to_bits)
            );
            assert_eq!(
                plain.try_min_lambda(u, &rect).unwrap().map(f64::to_bits),
                traced.try_min_lambda(u, &rect).unwrap().map(f64::to_bits)
            );
        }
        assert_eq!(plain.global_min_ratio(), traced.global_min_ratio());
        let b = Breakdown::of(&tracer.spans());
        assert!(b.count[Layer::Browser as usize] > 0 && b.count[Layer::Store as usize] > 0);
        assert_eq!(tracer.dropped(), 0);
    }
}
