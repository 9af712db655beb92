//! The disk-resident SILC index.
//!
//! The paper's experiments (p.32, p.38) run the quadtrees from disk with an
//! LRU cache holding 5 % of the pages, and find that I/O time dominates
//! query time because every refinement may touch a different vertex's
//! quadtree. This module serializes an index into a real page file and
//! serves lookups through `silc_storage::BufferPool`, so those experiments
//! measure genuine page reads — and, like the paper's cost model, nothing
//! else: a lookup searches the record span in the pooled page it lands on,
//! with no decoding step and no second cache.
//!
//! ## File layout (format v4, magic `SILCIDX4`)
//!
//! ```text
//! header    magic "SILCIDX4", n, q, world bounds, global min ratio,
//!           entry-region offset, entry-region length, checksum-table offset
//! codes     n × u64   — per-vertex grid-cell Morton codes
//! directory n × (u64, u32) — indexed by vertex id: byte offset of the
//!           vertex's record span (relative to the entry region) + record count
//! entries   one fixed-width span per vertex, laid out in Morton order of
//!           the vertex codes above (ties by vertex id). A span of m records
//!           (blocks sorted by Morton base, disjoint) is five arrays:
//!           [u32 base × m][u16 color × m][u8 level × m][f32 λ− × m][f32 λ+ × m]
//!           — 15 bytes a record. Zero padding (< one page) sits between
//!           spans where page boundaries require it, see below.
//! (page padding)
//! checksums one 64-bit digest (8-lane FNV-1a) per payload page — verified on every physical
//!           page read, so bit rot surfaces as a typed error naming the
//!           page instead of a silently wrong distance
//! ```
//!
//! This is the one format the module writes and reads. A file of the
//! retired versions 1 to 3 is refused at open with a [`BuildError::Corrupt`]
//! that names its version and asks for a rebuild.
//!
//! **Searched in place.** Bases fit `u32` because open bounds `q ≤ 16`;
//! the color keeps its full `u16` ([`crate::COLOR_SOURCE`] included); the
//! two λ are the `f32`s the writer rounded outward, widened on read exactly
//! as before (`λ−` clamped at 0), so every interval is bit-identical to the
//! in-memory index's outward-rounded one. A lookup binary-searches the
//! `u32` bases where they lie and reads the other four fields of the one
//! record it lands on.
//!
//! **Page boundaries.** The writer pads so that a span of at most one page
//! never crosses a page boundary, and starts a longer span on a page
//! boundary. A lookup is then one `BufferPool::get`, searched on the
//! borrowed page with no copy; only the rare span longer than a page
//! (10 of 8 000 lists on an 8 000-vertex road network) is read through
//! `BufferPool::read_range` into a per-thread scratch buffer. Either way a
//! lookup makes a fixed number of pool requests: one, or one per covered
//! page. The price is the padding: 17 % of that network's entry region.
//!
//! **Why Morton order.** A refinement walk hops between vertices that are
//! near in space, and vertex ids carry no spatial meaning: laid out by id,
//! the spans sharing a page are unrelated and every hop lands on a fresh
//! page; laid out along the curve — by the key the server's batch executor
//! sorts queries by — a walk stays on pages the pool already holds.
//!
//! **The directory is order-free.** It stores only where each span starts;
//! each span is exactly 15 × count bytes. The reader sorts the offsets and
//! requires the spans to tile the entry region in that order, accepting a
//! gap only as padding (shorter than a page) that ends on a page boundary.
//! Any permutation of the spans opens.
//!
//! **Validation where a lookup lands.** Open checks the directory; the
//! records are checked one at a time, as a lookup uses them. Every record a
//! lookup reads must have level ≤ q, a base aligned for its level, a block
//! inside the `4^q`-cell grid, two finite λ with λ− ≤ λ+, and a color that
//! is [`crate::COLOR_SOURCE`] or a slot of the vertex's adjacency list
//! (`< out_degree`). A record that fails is a pageless
//! [`QueryError::Corrupt`] naming the vertex. The one invariant not checked
//! is the sort order of the bases, and it needs no check: a binary search
//! over unsorted bases still lands on *some* record, which is validated,
//! and a found block is returned only if it contains the code searched for.
//! So unsorted bases can only make a search miss a block, and a miss is the
//! sound fallback interval (`global_min_ratio · dE`, ∞) or, for a next hop,
//! the typed `Corrupt` of [`DistanceBrowser::try_next_hop`] — never a wrong
//! edge, an out-of-range index or a panic, whatever the bytes.
//!
//! Header, codes and directory are small and held in memory (they are the
//! "directory" any disk index keeps pinned); only the entry region — the
//! `O(N√N)` part — goes through the buffer pool. λ bounds are narrowed to
//! `f32` with outward rounding, so disk intervals are never tighter than the
//! exact ones (correctness is preserved; bounds may be a hair looser).

use crate::browser::DistanceBrowser;
use crate::error::{BuildError, QueryError};
use crate::index::SilcIndex;
use crate::sp_quadtree::{BlockEntry, CellRect, COLOR_SOURCE};
use bytes::{Buf, BufMut};
use silc_geom::{GridMapper, Rect};
use silc_morton::{MortonBlock, MortonCode};
use silc_network::{SpatialNetwork, VertexId};
use silc_storage::checksum::{open_table, read_span_verified, seal};
use silc_storage::{BufferPool, FilePageStore, PageId, PageStore, PAGE_SIZE};
use std::cell::RefCell;
use std::io;
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"SILCIDX4";
/// Magics of the retired versions, refused at open with a rebuild hint.
const RETIRED_MAGICS: [&[u8; 8]; 3] = [b"SILCIDX1", b"SILCIDX2", b"SILCIDX3"];
/// Header: magic, n, q, world bounds, min ratio, entry-region offset and
/// length, checksum-table offset.
const HEADER_BYTES: usize = 8 + 4 + 4 + 32 + 8 + 8 + 8 + 8;
/// One record: `u32` base, `u16` color, `u8` level, two `f32` λ.
const RECORD_BYTES: u64 = 15;
const PAGE: u64 = PAGE_SIZE as u64;

thread_local! {
    /// Per-thread scratch for a record span longer than a page.
    static RAW_SPAN: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Rounds toward −∞ when narrowing to `f32`.
fn f32_down(x: f64) -> f32 {
    let f = x as f32;
    if f as f64 > x {
        f.next_down()
    } else {
        f
    }
}

/// Rounds toward +∞ when narrowing to `f32`.
fn f32_up(x: f64) -> f32 {
    let f = x as f32;
    if (f as f64) < x {
        f.next_up()
    } else {
        f
    }
}

/// Zero bytes to insert before a span of `len` bytes that would start at
/// absolute file offset `at`: enough to reach the next page boundary when
/// the span would otherwise cross one (so a span of at most a page lies on
/// one page, and a longer one starts a page), else none.
fn padding_before(at: u64, len: u64) -> u64 {
    let into_page = at % PAGE;
    if into_page != 0 && into_page + len > PAGE {
        PAGE - into_page
    } else {
        0
    }
}

/// Appends one vertex's record span as its five field arrays.
fn encode_span(entries: &[BlockEntry], buf: &mut Vec<u8>) {
    // q ≤ 16 (the grid mapper's bound), so every base is below 4^16 = 2^32.
    entries.iter().for_each(|e| buf.put_u32_le(e.block.start() as u32));
    entries.iter().for_each(|e| buf.put_u16_le(e.color));
    entries.iter().for_each(|e| buf.put_u8(e.block.level()));
    entries.iter().for_each(|e| buf.put_f32_le(f32_down(e.lambda_lo)));
    entries.iter().for_each(|e| buf.put_f32_le(f32_up(e.lambda_hi)));
}

/// Serializes `index` into its sealed `SILCIDX4` byte image.
pub fn encode_index(index: &SilcIndex) -> Vec<u8> {
    let codes: Vec<MortonCode> = index.network().vertices().map(|v| index.vertex_code(v)).collect();
    encode_lists(index.mapper(), index.global_min_ratio(), &codes, |v| index.tree(v).entries())
}

/// The image of one block list per vertex (`codes.len()` vertices).
fn encode_lists<'a>(
    mapper: &GridMapper,
    min_ratio: f64,
    codes: &[MortonCode],
    list: impl Fn(VertexId) -> &'a [BlockEntry],
) -> Vec<u8> {
    let n = codes.len();
    let meta_len = HEADER_BYTES + n * 8 + n * 12;

    // The directory first: each vertex's span is addressed by byte offset
    // in the entry region, and the spans follow the Morton order of the
    // vertex codes (stable sort: ties stay in id order).
    let mut order: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
    order.sort_by_key(|&v| codes[v.index()]);
    let mut directory = vec![(0u64, 0u32); n];
    let mut entries_len = 0u64;
    for &v in &order {
        let span_len = RECORD_BYTES * list(v).len() as u64;
        entries_len += padding_before(meta_len as u64 + entries_len, span_len);
        directory[v.index()] = (entries_len, list(v).len() as u32);
        entries_len += span_len;
    }
    let payload_len = meta_len + entries_len as usize;
    // The checksum table starts on the page boundary after the payload.
    let cksum_base = payload_len.div_ceil(PAGE_SIZE) * PAGE_SIZE;

    // One buffer, sized for the sealed image up front.
    let mut buf = Vec::with_capacity(cksum_base + cksum_base / PAGE_SIZE * 8);
    buf.put_slice(MAGIC);
    buf.put_u32_le(n as u32);
    buf.put_u32_le(mapper.q());
    let b = mapper.bounds();
    buf.put_f64_le(b.min_x);
    buf.put_f64_le(b.min_y);
    buf.put_f64_le(b.max_x);
    buf.put_f64_le(b.max_y);
    buf.put_f64_le(min_ratio);
    buf.put_u64_le(meta_len as u64);
    buf.put_u64_le(entries_len);
    buf.put_u64_le(cksum_base as u64);
    for code in codes {
        buf.put_u64_le(code.value());
    }
    for &(start, count) in &directory {
        buf.put_u64_le(start);
        buf.put_u32_le(count);
    }
    debug_assert_eq!(buf.len(), meta_len);
    for v in order {
        // Zero padding up to where the directory placed the span.
        buf.resize(meta_len + directory[v.index()].0 as usize, 0);
        encode_span(list(v), &mut buf);
    }
    debug_assert_eq!(buf.len(), payload_len);
    seal(&mut buf);
    buf
}

/// Serializes `index` into a page file at `path`. The write is crash-safe:
/// a temp file in the target directory, fsynced, then atomically renamed —
/// a crash mid-write never leaves a truncated index at `path`.
pub fn write_index<P: AsRef<Path>>(index: &SilcIndex, path: P) -> Result<(), BuildError> {
    FilePageStore::create(path, &encode_index(index))?;
    Ok(())
}

/// One vertex's record span: absolute byte offset in the file and record
/// count (the span is `15 × count` bytes).
#[derive(Clone, Copy)]
struct Span {
    at: u64,
    count: u32,
}

/// Element `i` of an array of `N`-byte fields.
fn field<const N: usize>(array: &[u8], i: usize) -> [u8; N] {
    let mut bytes = [0; N];
    bytes.copy_from_slice(&array[N * i..N * (i + 1)]);
    bytes
}

/// One vertex's record span as it lies in memory (a pooled page or the
/// scratch buffer), with what validating a record needs.
struct Records<'a> {
    bases: &'a [u8],
    colors: &'a [u8],
    levels: &'a [u8],
    lambda_lo: &'a [u8],
    lambda_hi: &'a [u8],
    q: u32,
    out_degree: usize,
    vertex: VertexId,
}

impl<'a> Records<'a> {
    /// Splits a span of exactly `15 × m` bytes into its five arrays.
    fn new(span: &'a [u8], q: u32, out_degree: usize, vertex: VertexId) -> Self {
        let m = span.len() / RECORD_BYTES as usize;
        let (bases, rest) = span.split_at(4 * m);
        let (colors, rest) = rest.split_at(2 * m);
        let (levels, rest) = rest.split_at(m);
        let (lambda_lo, lambda_hi) = rest.split_at(4 * m);
        Records { bases, colors, levels, lambda_lo, lambda_hi, q, out_degree, vertex }
    }

    fn len(&self) -> usize {
        self.levels.len()
    }

    fn base(&self, i: usize) -> u64 {
        u64::from(u32::from_le_bytes(field(self.bases, i)))
    }

    /// Number of records whose base is at or below `code` — on sorted
    /// bases, one past the last block that can contain `code`.
    fn at_or_below(&self, code: u64) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.base(mid) <= code {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Record `i` (`i < len`), validated; see the module docs.
    fn entry(&self, i: usize) -> Result<BlockEntry, QueryError> {
        let corrupt = |detail: String| QueryError::Corrupt {
            page: None,
            detail: format!("vertex {}: {detail}", self.vertex.index()),
        };
        let (q, level) = (self.q, self.levels[i]);
        if u32::from(level) > q {
            return Err(corrupt(format!("block level {level} exceeds grid exponent {q}")));
        }
        let (base, size) = (self.base(i), 1u64 << (2 * level));
        let end = base + size;
        if base % size != 0 {
            return Err(corrupt(format!("block base {base:#x} unaligned for level {level}")));
        }
        if end > 1u64 << (2 * q) {
            return Err(corrupt(format!("block [{base:#x}, {end:#x}) extends past the grid")));
        }
        let lo = f32::from_le_bytes(field(self.lambda_lo, i));
        let hi = f32::from_le_bytes(field(self.lambda_hi, i));
        if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
            return Err(corrupt(format!("λ bounds [{lo}, {hi}] are not a finite interval")));
        }
        let color = u16::from_le_bytes(field(self.colors, i));
        if color != COLOR_SOURCE && usize::from(color) >= self.out_degree {
            let degree = self.out_degree;
            return Err(corrupt(format!("color {color} out of range for out-degree {degree}")));
        }
        Ok(BlockEntry {
            block: MortonBlock::new(MortonCode(base), level),
            color,
            lambda_lo: (lo as f64).max(0.0),
            lambda_hi: hi as f64,
        })
    }

    /// The first block ending past `from`, if any. On sorted, disjoint
    /// blocks that is the last block starting at or before `from` when it
    /// reaches past `from`, else the block after it.
    fn first_ending_after(&self, from: u64) -> Result<Option<BlockEntry>, QueryError> {
        let p = self.at_or_below(from);
        if let Some(prev) = p.checked_sub(1) {
            let e = self.entry(prev)?;
            if e.block.end() > from {
                return Ok(Some(e));
            }
        }
        if p < self.len() {
            return self.entry(p).map(Some);
        }
        Ok(None)
    }

    /// The smallest λ− over the blocks meeting `rect` inside `block` (0 for
    /// the source's block) — the in-memory quadtree's walk, over these
    /// arrays.
    fn min_lambda_walk(
        &self,
        block: MortonBlock,
        rect: &CellRect,
        best: &mut Option<f64>,
    ) -> Result<(), QueryError> {
        if !rect.intersects_block(&block) {
            return Ok(());
        }
        if matches!(*best, Some(b) if b == 0.0) {
            return Ok(());
        }
        let Some(e) = self.first_ending_after(block.start())? else { return Ok(()) };
        if e.block.start() >= block.end() {
            return Ok(());
        }
        if e.block.start() <= block.start() && e.block.end() >= block.end() {
            let lambda = if e.color == COLOR_SOURCE { 0.0 } else { e.lambda_lo };
            *best = Some(best.map_or(lambda, |b| b.min(lambda)));
            return Ok(());
        }
        for child in block.children() {
            self.min_lambda_walk(child, rect, best)?;
        }
        Ok(())
    }
}

/// A SILC index served from a page file through an LRU buffer pool.
///
/// Cheaply shareable: wrap it in an [`Arc`] and query it from any number of
/// threads. The only interior state is the buffer pool, which is sharded
/// and internally synchronized. There is no cache of decoded entries: a
/// lookup searches its vertex's record span inside the pooled page, so the
/// pool is the one tier between a query and the store, sized by the one
/// `cache_fraction`.
pub struct DiskSilcIndex {
    network: Arc<SpatialNetwork>,
    mapper: GridMapper,
    codes: Vec<MortonCode>,
    /// Per vertex: where its record span lies in the file.
    directory: Vec<Span>,
    /// Byte length of the entry region.
    entries_len: u64,
    min_ratio: f64,
    /// The page pool. The store is type-erased so a wrapper (fault
    /// injection, instrumentation) can be slotted in at open time.
    pool: BufferPool<Box<dyn PageStore>>,
}

/// Both index types must stay shareable across query threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SilcIndex>();
    assert_send_sync::<DiskSilcIndex>();
};

impl DiskSilcIndex {
    /// Opens an index file, pairing it with the network it was built for.
    ///
    /// `cache_fraction` sizes the buffer pool relative to the file's page
    /// count; the paper uses 0.05.
    pub fn open<P: AsRef<Path>>(
        path: P,
        network: Arc<SpatialNetwork>,
        cache_fraction: f64,
    ) -> Result<Self, BuildError> {
        Self::open_store(Box::new(FilePageStore::open(&path)?), network, cache_fraction)
    }

    /// [`Self::open`], kept for callers written against the decoded-entry
    /// cache of `SILCIDX3`. Since `SILCIDX4` there is no such cache: the
    /// capacity argument has no effect.
    pub fn open_with_entry_cache<P: AsRef<Path>>(
        path: P,
        network: Arc<SpatialNetwork>,
        cache_fraction: f64,
        _entry_cache_capacity: usize,
    ) -> Result<Self, BuildError> {
        Self::open(path, network, cache_fraction)
    }

    /// [`Self::open_store`], kept for callers written against the
    /// decoded-entry cache of `SILCIDX3`. Since `SILCIDX4` there is no such
    /// cache: the capacity argument has no effect.
    pub fn from_store(
        store: Box<dyn PageStore>,
        network: Arc<SpatialNetwork>,
        cache_fraction: f64,
        _entry_cache_capacity: usize,
    ) -> Result<Self, BuildError> {
        Self::open_store(store, network, cache_fraction)
    }

    /// Opens an index from an arbitrary page store — the seam that lets
    /// tests wrap the file in a fault injector, or serve an index from any
    /// other page source. Validates the format exactly like
    /// [`Self::open`]: the metadata pages are checksum-verified here, the
    /// entry pages lazily in the buffer pool.
    pub fn open_store(
        store: Box<dyn PageStore>,
        network: Arc<SpatialNetwork>,
        cache_fraction: f64,
    ) -> Result<Self, BuildError> {
        let corrupt = |msg: &str| BuildError::Corrupt(msg.to_string());
        if store.page_count() * PAGE < HEADER_BYTES as u64 {
            return Err(corrupt("file too small for header"));
        }
        let header = silc_storage::read_span(&store, 0, HEADER_BYTES)?;
        let (magic, mut h) = header.split_at(8);
        if let Some(retired) = RETIRED_MAGICS.iter().find(|&&m| m == magic) {
            return Err(BuildError::Corrupt(format!(
                "{} is a retired index format; rebuild the index to write {}",
                String::from_utf8_lossy(*retired),
                String::from_utf8_lossy(MAGIC)
            )));
        }
        if magic != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let n = h.get_u32_le() as usize;
        if n != network.vertex_count() {
            return Err(corrupt("index vertex count does not match network"));
        }
        let q = h.get_u32_le();
        if !(1..=16).contains(&q) {
            return Err(corrupt("grid exponent out of range"));
        }
        let (min_x, min_y, max_x, max_y) =
            (h.get_f64_le(), h.get_f64_le(), h.get_f64_le(), h.get_f64_le());
        let min_ratio = h.get_f64_le();
        let finite = [min_x, min_y, max_x, max_y, min_ratio].iter().all(|c| c.is_finite());
        if !finite || min_x > max_x || min_y > max_y || min_ratio < 0.0 {
            return Err(corrupt("world bounds or distance ratio out of range"));
        }
        let entries_base = h.get_u64_le();
        let entries_len = h.get_u64_le();
        let cksum_base = h.get_u64_le();

        // Load the checksum table, then re-read the metadata region
        // verified against it (the header parsed above included).
        let meta_len = HEADER_BYTES + n * 8 + n * 12;
        if entries_base != meta_len as u64 {
            return Err(corrupt("entry region does not follow the directory"));
        }
        let to_corrupt = |e: io::Error| BuildError::Corrupt(e.to_string());
        let table = open_table(&store, cksum_base).map_err(to_corrupt)?;
        if meta_len as u64 > cksum_base {
            return Err(corrupt("metadata region overlaps checksum table"));
        }
        if entries_base.checked_add(entries_len).is_none_or(|end| end > cksum_base) {
            return Err(corrupt("entry region extends past end of file"));
        }
        let meta = read_span_verified(&store, 0, meta_len, &table).map_err(to_corrupt)?;
        let mut m = &meta[HEADER_BYTES..];
        let codes: Vec<MortonCode> = (0..n).map(|_| MortonCode(m.get_u64_le())).collect();
        let offsets: Vec<(u64, u32)> = (0..n).map(|_| (m.get_u64_le(), m.get_u32_le())).collect();
        // Spans in any order: by start, each span begins where the one
        // before it ends, or after padding that ends on a page boundary,
        // and the last one ends the region.
        let mut by_start: Vec<u32> = (0..n as u32).collect();
        by_start.sort_unstable_by_key(|&i| offsets[i as usize]);
        let mut end = 0u64;
        for &i in &by_start {
            let (start, count) = offsets[i as usize];
            let span_end = start
                .checked_add(RECORD_BYTES * count as u64)
                .filter(|&e| e <= entries_len)
                .ok_or_else(|| corrupt("directory span runs past the entry region"))?;
            let gap = start.checked_sub(end).ok_or_else(|| corrupt("directory spans overlap"))?;
            if gap != 0 && (gap >= PAGE || (entries_base + start) % PAGE != 0) {
                return Err(corrupt("gap between directory spans is not page padding"));
            }
            end = span_end;
        }
        if end != entries_len {
            return Err(corrupt("directory spans leave the end of the entry region uncovered"));
        }
        let directory = offsets
            .iter()
            .map(|&(start, count)| Span { at: entries_base + start, count })
            .collect();

        let mut pool = BufferPool::with_fraction(store, cache_fraction);
        pool.set_checksums(Arc::new(table));
        Ok(DiskSilcIndex {
            mapper: GridMapper::new(Rect::new(min_x, min_y, max_x, max_y), q),
            network,
            codes,
            directory,
            entries_len,
            min_ratio,
            pool,
        })
    }

    /// Byte length of the entry region.
    pub fn entry_region_bytes(&self) -> u64 {
        self.entries_len
    }

    /// I/O counters of the buffer pool.
    pub fn io_stats(&self) -> silc_storage::IoStats {
        self.pool.stats()
    }

    /// Counters of the decoded-entry cache, kept for callers written
    /// against `SILCIDX3`. Since `SILCIDX4` there is no such cache: this
    /// reports an idle tier (zero requests). [`Self::io_stats`] counts
    /// every lookup.
    pub fn entry_cache_stats(&self) -> silc_storage::CacheStats {
        silc_storage::CacheStats::default()
    }

    /// Zeroes the pool's I/O counters.
    pub fn reset_io_stats(&self) {
        self.pool.reset_stats();
    }

    /// Drops all cached pages (cold start).
    pub fn clear_cache(&self) {
        self.pool.clear();
    }

    /// Number of pages in the index file.
    pub fn page_count(&self) -> u64 {
        self.pool.store().page_count()
    }

    /// Runs `search` over `u`'s record span — the paper's access pattern
    /// ("retrieve the shortest-path quadtree Qs", p.17). A span on one page
    /// is searched inside the pooled page (one pool request, no copy); a
    /// span longer than a page is copied into the per-thread scratch
    /// through the pool (one request per page).
    ///
    /// A store fault (after the pool's retries) or a checksum mismatch
    /// propagates; the pool caches nothing for a failed page, so a later
    /// call re-attempts the read.
    fn with_span<R>(
        &self,
        u: VertexId,
        search: impl FnOnce(&Records<'_>) -> Result<R, QueryError>,
    ) -> Result<R, QueryError> {
        let Span { at, count } = self.directory[u.index()];
        let len = RECORD_BYTES * count as u64;
        let (q, out_degree) = (self.mapper.q(), self.network.out_degree(u));
        if count == 0 {
            return search(&Records::new(&[], q, out_degree, u));
        }
        let into_page = at % PAGE;
        if into_page + len <= PAGE {
            let page = self.pool.get(PageId(at / PAGE))?;
            let span =
                page.get(into_page as usize..(into_page + len) as usize).ok_or_else(|| {
                    QueryError::Corrupt { page: Some(at / PAGE), detail: "short page".to_string() }
                })?;
            return search(&Records::new(span, q, out_degree, u));
        }
        RAW_SPAN.with_borrow_mut(|raw| {
            raw.clear();
            self.pool.read_range(at, at + len, raw)?;
            search(&Records::new(raw, q, out_degree, u))
        })
    }
}

impl DistanceBrowser for DiskSilcIndex {
    fn network(&self) -> &SpatialNetwork {
        &self.network
    }

    fn mapper(&self) -> &GridMapper {
        &self.mapper
    }

    fn vertex_code(&self, v: VertexId) -> MortonCode {
        self.codes[v.index()]
    }

    /// # Panics
    /// Panics where [`DistanceBrowser::try_entry`] would error (I/O
    /// failure after retries, checksum mismatch, corrupt record) — the
    /// infallible API boundary for callers that treat a failed disk as
    /// fatal.
    fn entry(&self, u: VertexId, code: MortonCode) -> Option<BlockEntry> {
        self.try_entry(u, code).unwrap_or_else(|e| panic!("{e}"))
    }

    /// # Panics
    /// Panics where [`DistanceBrowser::try_min_lambda`] would error.
    fn min_lambda(&self, u: VertexId, rect: &CellRect) -> Option<f64> {
        self.try_min_lambda(u, rect).unwrap_or_else(|e| panic!("{e}"))
    }

    fn global_min_ratio(&self) -> f64 {
        self.min_ratio
    }

    /// The last block whose base is at or below `code`, if it contains
    /// `code` — on sorted, disjoint blocks, the one block that can.
    fn try_entry(&self, u: VertexId, code: MortonCode) -> Result<Option<BlockEntry>, QueryError> {
        self.with_span(u, |records| {
            let Some(i) = records.at_or_below(code.0).checked_sub(1) else { return Ok(None) };
            let e = records.entry(i)?;
            Ok(e.block.contains_code(code).then_some(e))
        })
    }

    fn try_min_lambda(&self, u: VertexId, rect: &CellRect) -> Result<Option<f64>, QueryError> {
        let root = MortonBlock::root(self.mapper.q());
        self.with_span(u, |records| {
            let mut best = None;
            records.min_lambda_walk(root, rect, &mut best)?;
            Ok(best)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::BuildConfig;
    use crate::path;
    use crate::refine::RefinableDistance;
    use silc_network::dijkstra;
    use silc_network::generate::{grid_network, GridConfig};
    use silc_storage::MemPageStore;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("silc-disk-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn build_pair(name: &str) -> (SilcIndex, DiskSilcIndex) {
        let g = grid();
        let idx =
            SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 8, threads: 2 }).unwrap();
        let path = tmp(name);
        write_index(&idx, &path).unwrap();
        let disk = DiskSilcIndex::open(&path, g, 0.25).unwrap();
        (idx, disk)
    }

    #[test]
    fn disk_lookups_match_memory() {
        let (mem, disk) = build_pair("match.idx");
        let g = mem.network();
        for u in g.vertices() {
            for v in g.vertices() {
                if u == v {
                    continue;
                }
                assert_eq!(
                    mem.next_hop(u, v),
                    disk.next_hop(u, v),
                    "next hop differs for {u}->{v}"
                );
                let im = mem.interval(u, v);
                let id = disk.interval(u, v);
                // Disk λ are widened by f32 rounding: the disk interval must
                // contain the memory interval.
                assert!(id.lo <= im.lo + 1e-9 && id.hi >= im.hi - 1e-9, "{u}->{v}: {id} vs {im}");
            }
        }
    }

    #[test]
    fn disk_paths_are_optimal() {
        let (_, disk) = build_pair("paths.idx");
        let g = disk.network();
        for &(s, d) in &[(0u32, 63u32), (17, 44)] {
            let p = path::shortest_path(&disk, VertexId(s), VertexId(d)).unwrap();
            let truth = dijkstra::distance(g, VertexId(s), VertexId(d)).unwrap();
            assert!((p.distance - truth).abs() < 1e-6);
        }
        let stats = disk.io_stats();
        assert!(stats.requests() > 0, "disk queries must touch pages");
    }

    #[test]
    fn cache_stats_reflect_locality() {
        // A page cache big enough for the whole file: the second identical
        // query is served from pooled pages alone.
        let (mem, _) = build_pair("stats.idx");
        let file = tmp("stats.idx");
        let disk = DiskSilcIndex::open(&file, mem.network_arc().clone(), 1.0).unwrap();
        let _ = path::shortest_path(&disk, VertexId(0), VertexId(63)).unwrap();
        let cold = disk.io_stats();
        assert!(cold.misses > 0);
        disk.reset_io_stats();
        let _ = path::shortest_path(&disk, VertexId(0), VertexId(63)).unwrap();
        let warm = disk.io_stats();
        assert_eq!(warm.misses, 0, "warm run must not touch the disk: {warm:?}");
        assert!(warm.hits > 0);
    }

    #[test]
    fn warm_lookups_are_one_pool_hit_each() {
        let (mem, _) = build_pair("warm.idx");
        let g = mem.network();
        let n = g.vertex_count() as u64;
        let disk = DiskSilcIndex::open(tmp("warm.idx"), mem.network_arc().clone(), 1.0).unwrap();
        let sweep = || {
            for u in g.vertices() {
                for v in g.vertices() {
                    let _ = disk.entry(u, disk.vertex_code(v));
                }
            }
        };
        sweep();
        let cold = disk.io_stats();
        assert_eq!(cold.requests(), n * n, "every span of the grid lies on one page");
        assert!(cold.misses > 0);
        // The second sweep reads no page and makes exactly one pool request
        // a lookup: there is no other tier to absorb them.
        disk.reset_io_stats();
        sweep();
        let warm = disk.io_stats();
        assert_eq!((warm.hits, warm.misses), (n * n, 0), "{warm:?}");
        assert_eq!(disk.entry_cache_stats().requests(), 0, "the entry-cache stub stays idle");
        // clear_cache is a cold start: the next lookup re-reads its page.
        disk.clear_cache();
        let _ = disk.entry(VertexId(0), disk.vertex_code(VertexId(1)));
        assert_eq!(disk.io_stats().misses, 1);
    }

    #[test]
    fn region_bounds_agree_with_memory_validity() {
        let (mem, disk) = build_pair("region.idx");
        let g = mem.network();
        let u = VertexId(9);
        let b = g.bounds();
        let world =
            Rect::new(b.min_x + b.width() * 0.5, b.min_y, b.max_x, b.max_y * 0.5 + b.min_y * 0.5);
        let bound = disk.region_lower_bound(u, &world);
        for v in g.vertices() {
            if world.contains(&g.position(v)) {
                let d = dijkstra::distance(g, u, v).unwrap();
                assert!(d >= bound - 1e-6, "disk region bound invalid");
            }
        }
    }

    #[test]
    fn wrong_network_rejected() {
        let (mem, _) = build_pair("wrongnet.idx");
        let path = tmp("wrongnet.idx");
        let other = Arc::new(grid_network(&GridConfig { rows: 3, cols: 3, ..Default::default() }));
        match DiskSilcIndex::open(&path, other, 0.2) {
            Err(BuildError::Corrupt(msg)) => assert!(msg.contains("vertex count")),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
        drop(mem);
    }

    #[test]
    fn truncated_file_rejected() {
        let (_, _) = build_pair("trunc-src.idx");
        let src = tmp("trunc-src.idx");
        let dst = tmp("trunc.idx");
        let data = std::fs::read(&src).unwrap();
        std::fs::write(&dst, &data[..PAGE_SIZE.min(data.len())]).unwrap();
        assert!(DiskSilcIndex::open(&dst, grid(), 0.2).is_err());
    }

    #[test]
    fn retired_formats_are_refused_with_a_rebuild_hint() {
        let (_, _) = build_pair("retired-src.idx");
        let image = std::fs::read(tmp("retired-src.idx")).unwrap();
        assert!(RETIRED_MAGICS.contains(&b"SILCIDX3"), "version 3 is retired");
        for magic in RETIRED_MAGICS {
            let mut forged = image.clone();
            forged[..8].copy_from_slice(magic);
            match open_image(&forged) {
                Err(BuildError::Corrupt(msg)) => {
                    let name = String::from_utf8_lossy(magic);
                    assert!(msg.contains(&*name) && msg.contains("rebuild"), "{msg}");
                }
                other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn padding_keeps_short_spans_on_one_page_and_starts_long_ones_on_a_page() {
        let page = PAGE;
        assert_eq!(padding_before(0, 3 * page), 0);
        assert_eq!(padding_before(page, page + 1), 0);
        assert_eq!(padding_before(100, page + 1), page - 100, "a long span starts a page");
        assert_eq!(padding_before(100, page - 100), 0, "exactly to the boundary fits");
        assert_eq!(padding_before(100, page - 99), page - 100);
        assert_eq!(padding_before(page - 15, 15), 0);
        assert_eq!(padding_before(page - 15, 30), 15);
        assert_eq!(padding_before(7, 0), 0, "an empty span needs no room");

        // On a real image every span obeys the rule, and the padding is
        // what the rule costs and no more.
        let (_, disk) = build_pair("padding.idx");
        let mut records = 0;
        for span in &disk.directory {
            let len = RECORD_BYTES * span.count as u64;
            if len <= page {
                assert_eq!(span.at / page, (span.at + len - 1) / page, "span crosses a page");
            } else {
                assert_eq!(span.at % page, 0, "a long span must start a page");
            }
            records += span.count as u64;
        }
        let padding = disk.entry_region_bytes() - RECORD_BYTES * records;
        let pages = (entries_base(&disk) + disk.entry_region_bytes()).div_ceil(page);
        assert!(padding < pages * page / 8, "{padding} B of padding over {pages} pages");
    }

    /// Absolute byte offset of the entry region: it follows the directory.
    fn entries_base(disk: &DiskSilcIndex) -> u64 {
        (HEADER_BYTES + 20 * disk.codes.len()) as u64
    }

    /// Vertex `u`'s records as the writer laid them out: the span's byte
    /// offset in the image and its record count.
    fn span_of(disk: &DiskSilcIndex, u: usize) -> (usize, usize) {
        let span = disk.directory[u];
        (span.at as usize, span.count as usize)
    }

    /// Byte offset of field `field` (0 base, 1 color, 2 level, 3 λ−, 4 λ+)
    /// of record `i` in a span of `m` records starting at `at`.
    fn field_at(at: usize, m: usize, field: usize, i: usize) -> usize {
        let width = [4, 2, 1, 4, 4];
        at + width[..field].iter().map(|w| w * m).sum::<usize>() + width[field] * i
    }

    #[test]
    fn a_span_longer_than_a_page_starts_a_page_and_is_searched_whole() {
        // 8 000-vertex networks have a few lists over a page; an 8×8 grid
        // has none, so vertex 0 gets a hand-made list of 400 cells (6 000
        // bytes) while every other vertex keeps its own.
        let (mem, _) = build_pair("long-src.idx");
        let g = mem.network();
        let long: Vec<BlockEntry> = (0..400u64)
            .map(|c| BlockEntry {
                block: MortonBlock::new(MortonCode(c), 0),
                color: (c % 2) as u16,
                lambda_lo: 1.0 + c as f64 / 1024.0,
                lambda_hi: 2.0,
            })
            .collect();
        let codes: Vec<MortonCode> = g.vertices().map(|v| mem.vertex_code(v)).collect();
        let list = |v: VertexId| if v.0 == 0 { &long[..] } else { mem.tree(v).entries() };
        let image = encode_lists(mem.mapper(), mem.global_min_ratio(), &codes, list);
        let disk = open_image(&image).unwrap();
        let (at, m) = span_of(&disk, 0);
        assert_eq!((at % PAGE_SIZE, m), (0, 400), "a long span starts a page");

        let u = VertexId(0);
        for c in [0u64, 1, 137, 272, 273, 399, 400, 1 << 15] {
            let want = long.get(c as usize).copied();
            disk.reset_io_stats();
            assert_eq!(disk.try_entry(u, MortonCode(c)).unwrap(), want, "code {c}");
            assert_eq!(disk.io_stats().requests(), 2, "one pool request per page covered");
        }
        let min = |rect: CellRect| disk.try_min_lambda(u, &rect).unwrap();
        assert_eq!(min(CellRect::new(0, 0, 255, 255)), Some(1.0));
        assert_eq!(min(CellRect::new(2, 2, 3, 3)), Some(long[12].lambda_lo), "cells 12..16");
        assert_eq!(min(CellRect::new(200, 200, 255, 255)), None, "no block out there");
        // Every other vertex still answers as the in-memory index does.
        for v in g.vertices().skip(1) {
            for w in g.vertices() {
                let code = mem.vertex_code(w);
                assert_eq!(
                    disk.try_entry(v, code).unwrap(),
                    mem.entry(v, code).map(|e| {
                        BlockEntry {
                            lambda_lo: (f32_down(e.lambda_lo) as f64).max(0.0),
                            lambda_hi: f32_up(e.lambda_hi) as f64,
                            ..e
                        }
                    })
                );
            }
        }
    }

    #[test]
    fn span_records_round_trip_and_reject_malformed_bytes() {
        // The span layout on its own, without a file: what `encode_span`
        // writes, `Records` reads back bit for bit, and each broken field
        // of a record is a pageless Corrupt naming the vertex.
        let q = 8u32;
        let entries = [
            BlockEntry {
                block: MortonBlock::new(MortonCode(0), 2),
                color: 3,
                lambda_lo: 1.0,
                lambda_hi: 2.5,
            },
            BlockEntry {
                block: MortonBlock::new(MortonCode(16), 2),
                color: 700,
                lambda_lo: 1.25,
                lambda_hi: 4.0,
            },
            BlockEntry {
                block: MortonBlock::new(MortonCode(64), 3),
                color: COLOR_SOURCE,
                lambda_lo: 0.5,
                lambda_hi: 0.75,
            },
        ];
        let (m, degree, vertex) = (entries.len(), 701, VertexId(7));
        let mut buf = Vec::new();
        encode_span(&entries, &mut buf);
        assert_eq!(buf.len(), RECORD_BYTES as usize * m);
        let records = Records::new(&buf, q, degree, vertex);
        let back: Vec<BlockEntry> = (0..m).map(|i| records.entry(i).unwrap()).collect();
        assert_eq!(&back[..], &entries[..], "round trip must be bit-identical");
        assert_eq!(records.at_or_below(15), 1);
        assert_eq!(records.at_or_below(16), 2);
        assert_eq!(records.first_ending_after(40).unwrap(), Some(entries[2]), "gap before 64");
        assert_eq!(records.first_ending_after(128).unwrap(), None);
        // An empty span: no records, no lookup lands.
        let empty = Records::new(&[], q, degree, vertex);
        assert_eq!((empty.len(), empty.first_ending_after(0).unwrap()), (0, None));

        // Overwrites field `field` of record `i` and reads the record back.
        let stomped = |field: usize, i: usize, bytes: &[u8]| {
            let mut raw = buf.clone();
            let off = field_at(0, m, field, i);
            raw[off..off + bytes.len()].copy_from_slice(bytes);
            match Records::new(&raw, q, degree, vertex).entry(i) {
                Err(QueryError::Corrupt { page: None, detail }) => {
                    assert!(detail.starts_with("vertex 7: "), "{detail}");
                    detail
                }
                other => panic!("field {field} of record {i}: expected Corrupt, got {other:?}"),
            }
        };
        assert!(stomped(2, 0, &[q as u8 + 1]).contains("exceeds grid exponent"));
        assert!(stomped(0, 1, &4u32.to_le_bytes()).contains("unaligned"));
        assert!(stomped(0, 2, &(1u32 << (2 * q)).to_le_bytes()).contains("past the grid"));
        assert!(stomped(3, 0, &f32::INFINITY.to_le_bytes()).contains("finite interval"));
        assert!(stomped(4, 1, &f32::NAN.to_le_bytes()).contains("finite interval"));
        assert!(stomped(3, 2, &1.0f32.to_le_bytes()).contains("finite interval"), "λ− > λ+");
        assert!(stomped(1, 0, &701u16.to_le_bytes()).contains("color 701 out of range"));
    }

    #[test]
    fn tampered_records_surface_as_typed_corruption_not_panics() {
        // Bytes that pass the page checksums (a rewritten file with a
        // recomputed table) but break a record's invariants fail the
        // lookup that lands on that record with a pageless Corrupt naming
        // the vertex — whichever field is broken.
        let (mem, disk) = build_pair("tamper-src.idx");
        let image = std::fs::read(tmp("tamper-src.idx")).unwrap();
        let u = disk.directory.iter().position(|s| s.at == entries_base(&disk)).unwrap();
        let (at, m) = span_of(&disk, u);
        let entries = mem.tree(VertexId(u as u32)).entries();
        // A record of level ≥ 1 that is not the source's block.
        let i = entries.iter().position(|e| e.block.level() > 0 && e.color != COLOR_SOURCE);
        let i = i.expect("the first span has a block above cell level");
        let base = entries[i].block.start();
        let last = m - 1;
        let grid_end = 1u64 << (2 * 8);
        let cases: [(usize, usize, Vec<u8>, u64, &str); 6] = [
            (2, i, vec![9], base, "exceeds grid exponent"),
            (0, i, (base as u32 + 1).to_le_bytes().to_vec(), base + 1, "unaligned"),
            (0, last, (grid_end as u32).to_le_bytes().to_vec(), grid_end, "past the grid"),
            (3, i, f32::NAN.to_le_bytes().to_vec(), base, "finite interval"),
            (3, i, 1e30f32.to_le_bytes().to_vec(), base, "finite interval"),
            (1, i, 200u16.to_le_bytes().to_vec(), base, "out of range for out-degree"),
        ];
        for (field, rec, bytes, code, want) in cases {
            let mut data = image.clone();
            let off = field_at(at, m, field, rec);
            data[off..off + bytes.len()].copy_from_slice(&bytes);
            let bad = reopen_resealed(data).unwrap();
            match bad.try_entry(VertexId(u as u32), MortonCode(code)) {
                Err(QueryError::Corrupt { page: None, detail }) => {
                    assert!(detail.contains(&format!("vertex {u}")), "{detail}");
                    assert!(detail.contains(want), "field {field}: {detail}");
                }
                other => panic!("field {field}: expected pageless Corrupt, got {other:?}"),
            }
            let whole = CellRect::new(0, 0, 255, 255);
            assert!(matches!(
                bad.try_min_lambda(VertexId(u as u32), &whole),
                Ok(_) | Err(QueryError::Corrupt { page: None, .. })
            ));
        }

        // Every byte of the span, stomped with a few patterns: each lookup
        // on the vertex answers or fails typed — no pattern panics.
        let codes: Vec<MortonCode> = disk.codes.clone();
        let rects = [CellRect::new(0, 0, 255, 255), CellRect::new(10, 3, 90, 200)];
        for off in at..at + RECORD_BYTES as usize * m {
            for stomp in [0x00u8, 0xFF, 0x81] {
                let mut data = image.clone();
                data[off] = stomp;
                let bad = reopen_resealed(data).unwrap();
                for &code in &codes {
                    let _ = bad.try_entry(VertexId(u as u32), code);
                }
                for rect in &rects {
                    let _ = bad.try_min_lambda(VertexId(u as u32), rect);
                }
            }
        }
    }

    #[test]
    fn out_of_range_color_is_typed_corruption_everywhere() {
        // A resealed image whose color is ≥ the vertex's out-degree would
        // make the next hop follow another vertex's edge (or index past the
        // edge array) in a release build. Every lookup path must refuse it,
        // and the source sentinel on another vertex's block as well.
        let (mem, disk) = build_pair("color-src.idx");
        let image = std::fs::read(tmp("color-src.idx")).unwrap();
        let g = mem.network();
        let u = VertexId(0);
        let (at, m) = span_of(&disk, 0);
        let entries = mem.tree(u).entries();
        let i = entries.iter().position(|e| e.color != COLOR_SOURCE).unwrap();
        let dest = g.vertices().find(|&v| entries[i].block.contains_code(disk.vertex_code(v)));
        let dest = dest.expect("every block holds a vertex");
        let with_color = |color: u16| {
            let mut data = image.clone();
            let off = field_at(at, m, 1, i);
            data[off..off + 2].copy_from_slice(&color.to_le_bytes());
            reopen_resealed(data).unwrap()
        };
        let corrupt = |r: Result<_, QueryError>, what: &str, want: &str| match r {
            Err(QueryError::Corrupt { page: None, detail }) => {
                assert!(detail.contains(want), "{what}: {detail}")
            }
            other => panic!("{what}: expected Corrupt, got {:?}", other.map(|_: ()| ())),
        };
        let bad = with_color(200);
        let want = "color 200 out of range";
        corrupt(bad.try_entry(u, bad.vertex_code(dest)).map(drop), "try_entry", want);
        corrupt(bad.try_next_hop(u, dest).map(drop), "try_next_hop", want);
        corrupt(RefinableDistance::try_new(&bad, u, dest).map(drop), "refinement", want);
        match path::shortest_path(&bad, u, dest) {
            Err(BuildError::Corrupt(detail)) => assert!(detail.contains(want), "{detail}"),
            other => panic!("shortest_path: expected Corrupt, got {other:?}"),
        }

        let bad = with_color(COLOR_SOURCE);
        let got = bad.try_entry(u, bad.vertex_code(dest)).unwrap().map(|e| e.color);
        assert_eq!(got, Some(COLOR_SOURCE), "a valid record, in the wrong place");
        corrupt(bad.try_next_hop(u, dest).map(drop), "try_next_hop", "no first hop");
        assert!(matches!(path::shortest_path(&bad, u, dest), Err(BuildError::Corrupt(_))));

        // Control: the untouched image resealed the same way answers.
        let good = reopen_resealed(image).unwrap();
        assert!(path::shortest_path(&good, u, dest).is_ok());
    }

    /// The 8×8 grid network `build_pair` indexes.
    fn grid() -> Arc<SpatialNetwork> {
        Arc::new(grid_network(&GridConfig { rows: 8, cols: 8, seed: 41, ..Default::default() }))
    }

    /// Opens an image over the `build_pair` network from memory.
    fn open_image(image: &[u8]) -> Result<DiskSilcIndex, BuildError> {
        DiskSilcIndex::open_store(Box::new(MemPageStore::new(image)), grid(), 0.25)
    }

    /// A tampered image re-sealed over its first `payload` bytes, so the
    /// tampering gets past the page checksums.
    fn resealed(mut data: Vec<u8>, payload: usize) -> Vec<u8> {
        data.truncate(payload);
        seal(&mut data);
        data
    }

    /// Re-seals a tampered image (header untouched) and opens it.
    fn reopen_resealed(data: Vec<u8>) -> Result<DiskSilcIndex, BuildError> {
        let cksum_base = u64::from_le_bytes(data[72..80].try_into().unwrap()) as usize;
        open_image(&resealed(data, cksum_base))
    }

    #[test]
    fn hostile_header_words_are_typed_errors_not_panics() {
        let (_, _) = build_pair("hostile-src.idx");
        let image = std::fs::read(tmp("hostile-src.idx")).unwrap();
        let cksum_base = u64::from_le_bytes(image[72..80].try_into().unwrap()) as usize;
        for at in 0..=HEADER_BYTES - 8 {
            for word in [0, u64::MAX, !(PAGE_SIZE as u64 - 1)] {
                let mut data = image.clone();
                data[at..at + 8].copy_from_slice(&word.to_le_bytes());
                // Ok or a typed error both pass; a panic fails the test.
                let _ = open_image(&data);
                let _ = open_image(&resealed(data, cksum_base));
            }
        }
    }

    #[test]
    fn spans_follow_the_morton_order_of_the_vertex_codes() {
        let (_, disk) = build_pair("morton-order.idx");
        let mut by_offset: Vec<usize> = (0..disk.directory.len()).collect();
        by_offset.sort_by_key(|&v| disk.directory[v].at);
        let keys: Vec<_> = by_offset.iter().map(|&v| (disk.codes[v], v)).collect();
        assert!(keys.is_sorted(), "spans must lie in (vertex code, vertex id) order");
        // Row-major grid ids are not Morton order: the layout is a real
        // permutation here, not the identity.
        assert!(!by_offset.is_sorted());
        let covered: u64 = disk.directory.iter().map(|span| RECORD_BYTES * span.count as u64).sum();
        assert!(covered <= disk.entry_region_bytes(), "spans fit the entry region");
    }

    #[test]
    fn directory_must_tile_the_entry_region_in_any_order() {
        let (_, disk) = build_pair("tiling-src.idx");
        let data = std::fs::read(tmp("tiling-src.idx")).unwrap();
        let mut by_offset: Vec<usize> = (0..disk.directory.len()).collect();
        by_offset.sort_by_key(|&v| disk.directory[v].at);
        let (first, second, last) = (by_offset[0], by_offset[1], by_offset[by_offset.len() - 1]);
        let start_of = |v: usize| disk.directory[v].at - entries_base(&disk);
        // Rewrites vertex `v`'s directory entry and reopens.
        let with_entry = |v: usize, start: u64, count: u32| {
            let mut data = data.clone();
            let at = 80 + 8 * disk.codes.len() + 12 * v;
            data[at..at + 8].copy_from_slice(&start.to_le_bytes());
            data[at + 8..at + 12].copy_from_slice(&count.to_le_bytes());
            match reopen_resealed(data) {
                Err(BuildError::Corrupt(msg)) => msg,
                other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
            }
        };
        let count_of = |v: usize| disk.directory[v].count;
        let with_start = |v: usize, start: u64| with_entry(v, start, count_of(v));
        // Duplicated: two vertices claim one offset.
        assert!(with_start(last, start_of(second)).contains("overlap"));
        // Overlapping: a span starting inside its predecessor.
        assert!(with_start(second, 1).contains("overlap"));
        // A count one record too long or too short: overlap, or a gap that
        // is not page padding.
        assert!(with_entry(first, 0, count_of(first) + 1).contains("overlap"));
        assert!(with_entry(first, 0, count_of(first) - 1).contains("not page padding"));
        // Gapped: a span starting late, at a boundary that is no page's.
        assert!(with_start(first, 1).contains("not page padding"));
        // The last span cut short leaves the region's end uncovered.
        assert!(with_entry(last, start_of(last), count_of(last) - 1).contains("uncovered"));
        // Out of range, and far out of range (no overflow, no panic).
        let past = disk.entry_region_bytes() + 1;
        assert!(with_start(last, past).contains("past the entry region"));
        assert!(with_start(last, u64::MAX - 3).contains("past the entry region"));
        assert!(with_entry(last, start_of(last), u32::MAX).contains("past the entry region"));
        // Control: it is the entries, not the reseal, that fail the cases
        // above — the untouched image resealed the same way opens.
        assert!(reopen_resealed(data.clone()).is_ok());
    }

    #[test]
    fn bit_flip_in_entry_region_is_a_typed_corrupt_error() {
        let (_, disk) = build_pair("bitflip-src.idx");
        let src = tmp("bitflip-src.idx");
        let dst = tmp("bitflip.idx");
        let mut data = std::fs::read(&src).unwrap();
        // Flip one bit in the first entry page (past the pinned metadata).
        let meta_pages = (entries_base(&disk) as usize).div_ceil(PAGE_SIZE);
        let victim = meta_pages.max(1); // an entry-region page
        data[victim * PAGE_SIZE + 100] ^= 0x10;
        std::fs::write(&dst, &data).unwrap();
        let g = grid();
        let bad = DiskSilcIndex::open(&dst, g.clone(), 0.25).unwrap();
        // Some vertex's entries live on the flipped page; scanning all of
        // them must surface exactly a typed Corrupt naming that page —
        // never a silently wrong answer.
        let mut hit = None;
        for u in g.vertices() {
            match bad.try_entry(u, bad.vertex_code(VertexId(0))) {
                Ok(_) => {}
                Err(QueryError::Corrupt { page, detail }) => {
                    assert_eq!(page, Some(victim as u64), "wrong page named: {detail}");
                    assert!(detail.contains("checksum mismatch"), "{detail}");
                    hit = Some(u);
                    break;
                }
                Err(e) => panic!("expected Corrupt, got {e}"),
            }
        }
        assert!(hit.is_some(), "no lookup touched the corrupted page");
        // The checksum counters saw the fault; nothing was retried.
        let stats = bad.io_stats();
        assert!(stats.faults_seen >= 1);
        assert_eq!(stats.retries, 0, "checksum mismatches must not be retried");
    }

    #[test]
    fn every_page_aligned_truncation_is_rejected_or_detected() {
        let (_, _) = build_pair("truncsweep-src.idx");
        let src = tmp("truncsweep-src.idx");
        let data = std::fs::read(&src).unwrap();
        let pages = data.len() / PAGE_SIZE;
        let g = grid();
        for keep in 0..pages {
            let dst = tmp("truncsweep.idx");
            std::fs::write(&dst, &data[..keep * PAGE_SIZE]).unwrap();
            assert!(
                DiskSilcIndex::open(&dst, g.clone(), 0.25).is_err(),
                "truncation to {keep}/{pages} pages must not open"
            );
        }
    }

    #[test]
    fn f32_rounding_is_outward() {
        for &x in &[0.1f64, 1.7, 1234.5678, 1e-9, 3.0] {
            assert!(f32_down(x) as f64 <= x);
            assert!(f32_up(x) as f64 >= x);
        }
        assert_eq!(f32_down(2.0) as f64, 2.0);
        assert_eq!(f32_up(2.0) as f64, 2.0);
    }
}
