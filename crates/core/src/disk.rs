//! The disk-resident SILC index.
//!
//! The paper's experiments (p.32, p.38) run the quadtrees from disk with an
//! LRU cache holding 5 % of the pages, and find that I/O time dominates
//! query time because every refinement may touch a different vertex's
//! quadtree. This module serializes an index into a real page file and
//! serves lookups through `silc_storage::BufferPool`, so those experiments
//! measure genuine page reads.
//!
//! ## File layout (format v3, magic `SILCIDX3`)
//!
//! ```text
//! header    magic "SILCIDX3", n, q, world bounds, global min ratio,
//!           entry-region offset, entry-region length, checksum-table offset
//! codes     n × u64   — per-vertex grid-cell Morton codes
//! directory n × (u64, u32) — indexed by vertex id: byte offset of the
//!           vertex's record span (relative to the entry region) + entry count
//! entries   one variable-length record span per vertex, laid out in Morton
//!           order of the vertex codes above (ties by vertex id); within a
//!           span the blocks are sorted by Morton base and disjoint, so
//!           each record stores (LEB128 varints unless noted):
//!           level | gap = base − previous block's end | color | λ− f32 | λ+ f32
//!           The first record's gap is its absolute base. A tiling quadtree
//!           has gap 0 almost everywhere, so the usual record is
//!           1 + 1 + 1 + 8 = 11 bytes.
//! (page padding)
//! checksums one 64-bit digest (8-lane FNV-1a) per payload page — verified on every physical
//!           page read, so bit rot surfaces as a typed error naming the
//!           page instead of a silently wrong distance
//! ```
//!
//! This is the one format the module writes and reads. A file of the
//! retired versions 1 or 2 is refused at open with a [`BuildError::Corrupt`]
//! that names its version and asks for a rebuild.
//!
//! **Why Morton order.** A refinement walk hops between vertices that are
//! near in space, and vertex ids carry no spatial meaning: laid out by id,
//! the ~6 spans sharing a page are unrelated and every hop lands on a fresh
//! page; laid out along the curve — by the key the server's batch executor
//! sorts queries by — a walk stays on pages the pool already holds.
//!
//! **The directory is order-free.** It stores only where each span starts;
//! the reader sorts the offsets and ends each span where the next begins, so
//! any permutation opens (id-ordered files predating the Morton layout
//! included), provided the spans start at 0, stay inside the region, and
//! each has a length its record count can fill (11 to 17 bytes a record).
//!
//! Varint decoding is canonical and fully validated (level ≤ q, aligned
//! base, block inside the grid, exact span consumption), so corrupt bytes
//! that slip past the page checksums still surface as a typed
//! [`QueryError::Corrupt`], never a panic or a silently wrong answer.
//!
//! Header, codes and directory are small and held in memory (they are the
//! "directory" any disk index keeps pinned); only the entry region — the
//! `O(N√N)` part — goes through the buffer pool. λ bounds are narrowed to
//! `f32` with outward rounding, so disk intervals are never tighter than the
//! exact ones (correctness is preserved; bounds may be a hair looser).

use crate::browser::DistanceBrowser;
use crate::error::{BuildError, QueryError};
use crate::index::SilcIndex;
use crate::sp_quadtree::{BlockEntry, CellRect};
use bytes::{Buf, BufMut};
use silc_geom::{GridMapper, Rect};
use silc_morton::{MortonBlock, MortonCode};
use silc_network::{SpatialNetwork, VertexId};
use silc_storage::checksum::{open_table, read_span_verified, seal};
use silc_storage::varint::{self, VarintReader};
use silc_storage::{BufferPool, FilePageStore, PageStore, TieredPool, PAGE_SIZE};
use std::cell::RefCell;
use std::io;
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"SILCIDX3";
/// Magics of the retired versions, refused at open with a rebuild hint.
const RETIRED_MAGICS: [&[u8; 8]; 2] = [b"SILCIDX1", b"SILCIDX2"];
/// Header: magic, n, q, world bounds, min ratio, entry-region offset and
/// length, checksum-table offset.
const HEADER_BYTES: usize = 8 + 4 + 4 + 32 + 8 + 8 + 8 + 8;
/// Shortest and longest record: three varints — level (≤ 16: 1 byte),
/// gap (< 4^16: ≤ 5 bytes), color (`u16`: ≤ 3 bytes) — and two `f32`s.
const MIN_RECORD_BYTES: u64 = 11;
const MAX_RECORD_BYTES: u64 = 17;

thread_local! {
    /// Per-thread scratch for the raw record span of an entry-cache miss.
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

/// Appends one vertex's record span: per entry, varint level, varint gap
/// from the previous block's end (the first entry's absolute base), varint
/// color, then the two λ bounds as outward-rounded `f32`s.
fn encode_entries_v3(entries: &[BlockEntry], buf: &mut Vec<u8>) {
    let mut prev_end = 0u64;
    for e in entries {
        varint::encode_u64(e.block.level() as u64, buf);
        let base = e.block.start();
        debug_assert!(base >= prev_end, "blocks must be sorted and disjoint");
        varint::encode_u64(base - prev_end, buf);
        varint::encode_u64(e.color as u64, buf);
        buf.put_f32_le(f32_down(e.lambda_lo));
        buf.put_f32_le(f32_up(e.lambda_hi));
        prev_end = e.block.end();
    }
}

/// Collects `count` decoded records straight into the `Arc` allocation the
/// entry cache keeps (`Map<Range<u32>, _>` is `TrustedLen`, so `collect`
/// allocates once and writes in place). The first error stops the decoding
/// — the remaining slots take a filler — and is returned.
fn collect_entries(
    count: u32,
    mut record: impl FnMut() -> io::Result<BlockEntry>,
) -> io::Result<Arc<[BlockEntry]>> {
    let filler =
        BlockEntry { block: MortonBlock::root(0), color: 0, lambda_lo: 0.0, lambda_hi: 0.0 };
    let mut failed = None;
    let decode_one = |_| match failed {
        None => record().unwrap_or_else(|e| {
            failed = Some(e);
            filler
        }),
        Some(_) => filler,
    };
    let entries = (0..count).map(decode_one).collect();
    failed.map_or(Ok(entries), Err)
}

/// Decodes one vertex's v3 record span, validating every invariant the
/// encoder maintains: canonical varints, level ≤ `q`, aligned base, block
/// inside the `4^q`-cell grid, blocks sorted and disjoint (gaps are
/// non-negative by construction), and the span consumed exactly. Any
/// violation is an error — corrupt bytes can never produce a wrong entry
/// list or a panic.
fn decode_entries_v3(raw: &[u8], count: u32, q: u32) -> io::Result<Arc<[BlockEntry]>> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let grid_end = 1u64 << (2 * q); // q ≤ 16, validated at open
    let mut r = VarintReader::new(raw);
    let mut prev_end = 0u64;
    let entries = collect_entries(count, || {
        let level = r.u64()?;
        if level > q as u64 {
            return Err(invalid(format!("block level {level} exceeds grid exponent {q}")));
        }
        let size = 1u64 << (2 * level as u32);
        let gap = r.u64()?;
        let base = prev_end
            .checked_add(gap)
            .ok_or_else(|| invalid("block base overflows u64".to_string()))?;
        if base % size != 0 {
            return Err(invalid(format!("block base {base:#x} unaligned for level {level}")));
        }
        let end =
            base.checked_add(size).ok_or_else(|| invalid("block end overflows u64".to_string()))?;
        if end > grid_end {
            return Err(invalid(format!("block [{base:#x}, {end:#x}) extends past the grid")));
        }
        let color = r.u64()?;
        let color =
            u16::try_from(color).map_err(|_| invalid(format!("color {color} out of range")))?;
        let lambda_lo = (r.f32_le()? as f64).max(0.0);
        let lambda_hi = r.f32_le()? as f64;
        prev_end = end;
        Ok(BlockEntry {
            block: MortonBlock::new(MortonCode(base), level as u8),
            color,
            lambda_lo,
            lambda_hi,
        })
    })?;
    if r.remaining() != 0 {
        return Err(invalid(format!("{} trailing bytes after {count} records", r.remaining())));
    }
    Ok(entries)
}

/// Serializes `index` into its sealed `SILCIDX3` byte image.
pub fn encode_index(index: &SilcIndex) -> Vec<u8> {
    let g = index.network();
    let n = g.vertex_count();

    // The entry region and its directory: each vertex's variable-length
    // span is addressed by byte offset, and the spans follow the Morton
    // order of the vertex codes (stable sort: ties stay in id order).
    let mut order: Vec<VertexId> = g.vertices().collect();
    order.sort_by_key(|&v| index.vertex_code(v));
    let mut entry_buf: Vec<u8> = Vec::new();
    let mut directory = vec![(0u64, 0u32); n];
    for v in order {
        directory[v.index()] = (entry_buf.len() as u64, index.tree(v).block_count() as u32);
        encode_entries_v3(index.tree(v).entries(), &mut entry_buf);
    }

    let meta_len = HEADER_BYTES + n * 8 + n * 12;
    let payload_len = meta_len + entry_buf.len();
    // The checksum table starts on the page boundary after the payload.
    let cksum_base = payload_len.div_ceil(PAGE_SIZE) * PAGE_SIZE;

    let mut buf = Vec::with_capacity(payload_len);
    buf.put_slice(MAGIC);
    buf.put_u32_le(n as u32);
    buf.put_u32_le(index.mapper().q());
    let b = index.mapper().bounds();
    buf.put_f64_le(b.min_x);
    buf.put_f64_le(b.min_y);
    buf.put_f64_le(b.max_x);
    buf.put_f64_le(b.max_y);
    buf.put_f64_le(index.global_min_ratio());
    buf.put_u64_le(meta_len as u64);
    buf.put_u64_le(entry_buf.len() as u64);
    buf.put_u64_le(cksum_base as u64);
    for v in g.vertices() {
        buf.put_u64_le(index.vertex_code(v).value());
    }
    for &(start, count) in &directory {
        buf.put_u64_le(start);
        buf.put_u32_le(count);
    }
    debug_assert_eq!(buf.len(), meta_len);
    buf.extend_from_slice(&entry_buf);
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

/// One vertex's record span: byte offset in the entry region, byte length,
/// record count — 16 bytes, what the padded `(u64, u32)` file tuple took.
#[derive(Clone, Copy)]
struct Span {
    start: u64,
    len: u32,
    count: u32,
}

/// A SILC index served from a page file through an LRU buffer pool.
///
/// Cheaply shareable: wrap it in an [`Arc`] and query it from any number of
/// threads. All interior state (the page pool, the decoded-entries cache)
/// is sharded and internally synchronized.
pub struct DiskSilcIndex {
    network: Arc<SpatialNetwork>,
    mapper: GridMapper,
    codes: Vec<MortonCode>,
    /// Per vertex: where its record span lies in the entry region.
    directory: Vec<Span>,
    entries_base: u64,
    /// Byte length of the entry region.
    entries_len: u64,
    min_ratio: f64,
    /// The two-tier read path: the page pool plus decoded entry lists per
    /// vertex, so repeated probes of the same vertex's quadtree (every
    /// refinement step, every block descent) do not re-deserialize its full
    /// block list from page bytes. The store is type-erased so a wrapper
    /// (fault injection, instrumentation) can be slotted in at open time.
    cached: TieredPool<Box<dyn PageStore>, Arc<[BlockEntry]>>,
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
    /// count; the paper uses 0.05. The decoded-entries cache gets a default
    /// size — big enough that a query's working set (the query vertex plus
    /// the refinement frontier) stays decoded; see
    /// [`Self::open_with_entry_cache`] to pick one explicitly.
    pub fn open<P: AsRef<Path>>(
        path: P,
        network: Arc<SpatialNetwork>,
        cache_fraction: f64,
    ) -> Result<Self, BuildError> {
        let cache = silc_storage::default_decoded_capacity(network.vertex_count());
        Self::open_with_entry_cache(path, network, cache_fraction, cache)
    }

    /// Opens an index file with an explicit decoded-entries cache capacity
    /// (in vertices; minimum 1).
    pub fn open_with_entry_cache<P: AsRef<Path>>(
        path: P,
        network: Arc<SpatialNetwork>,
        cache_fraction: f64,
        entry_cache_capacity: usize,
    ) -> Result<Self, BuildError> {
        let store = FilePageStore::open(&path)?;
        Self::from_store(Box::new(store), network, cache_fraction, entry_cache_capacity)
    }

    /// Opens an index from an arbitrary page store — the seam that lets
    /// tests wrap the file in a fault injector, or serve an index from any
    /// other page source. Validates the format exactly like
    /// [`Self::open`]: the metadata pages are checksum-verified here, the
    /// entry pages lazily in the buffer pool.
    pub fn from_store(
        store: Box<dyn PageStore>,
        network: Arc<SpatialNetwork>,
        cache_fraction: f64,
        entry_cache_capacity: usize,
    ) -> Result<Self, BuildError> {
        let corrupt = |msg: &str| BuildError::Corrupt(msg.to_string());
        if store.page_count() * (PAGE_SIZE as u64) < HEADER_BYTES as u64 {
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
        let meta = read_span_verified(&store, 0, meta_len, &table).map_err(to_corrupt)?;
        let mut m = &meta[HEADER_BYTES..];
        let codes: Vec<MortonCode> = (0..n).map(|_| MortonCode(m.get_u64_le())).collect();
        let mut directory: Vec<Span> =
            (0..n).map(|_| Span { start: m.get_u64_le(), len: 0, count: m.get_u32_le() }).collect();
        // Spans in any order: from the highest start down, each span ends
        // where the one after it starts.
        let mut by_start: Vec<u32> = (0..n as u32).collect();
        by_start.sort_unstable_by_key(|&i| directory[i as usize].start);
        let mut end = entries_len;
        for &i in by_start.iter().rev() {
            let span = &mut directory[i as usize];
            let len = end
                .checked_sub(span.start)
                .ok_or_else(|| corrupt("directory offset past entry region"))?;
            let count = span.count as u64;
            if !(MIN_RECORD_BYTES * count..=MAX_RECORD_BYTES * count).contains(&len) {
                return Err(corrupt("directory spans overlap or leave a gap"));
            }
            span.len = u32::try_from(len).map_err(|_| corrupt("record span too long"))?;
            end = span.start;
        }
        if end != 0 {
            return Err(corrupt("directory spans do not start at offset 0"));
        }
        if entries_base.checked_add(entries_len).is_none_or(|end| end > cksum_base) {
            return Err(corrupt("entry region extends past end of file"));
        }

        let mut cached = TieredPool::new(store, cache_fraction, entry_cache_capacity);
        cached.set_checksums(table);
        Ok(DiskSilcIndex {
            mapper: GridMapper::new(Rect::new(min_x, min_y, max_x, max_y), q),
            network,
            codes,
            directory,
            entries_base,
            entries_len,
            min_ratio,
            cached,
        })
    }

    /// Byte length of the entry region.
    pub fn entry_region_bytes(&self) -> u64 {
        self.entries_len
    }

    /// I/O counters of the buffer pool.
    pub fn io_stats(&self) -> silc_storage::IoStats {
        self.cached.io_stats()
    }

    /// Hit/miss counters of the decoded-entries cache.
    pub fn entry_cache_stats(&self) -> silc_storage::CacheStats {
        self.cached.cache_stats()
    }

    /// Zeroes the I/O counters (pool and decoded-entries cache).
    pub fn reset_io_stats(&self) {
        self.cached.reset_stats();
    }

    /// Drops all cached pages *and* decoded entries (cold start).
    pub fn clear_cache(&self) {
        self.cached.clear();
    }

    /// Number of pages in the index file.
    pub fn page_count(&self) -> u64 {
        self.cached.store().page_count()
    }

    /// Fetches the whole shortest-path quadtree of `u` — the paper's access
    /// pattern ("retrieve the shortest-path quadtree Qs", p.17). Served in
    /// three tiers: the decoded-entries cache (no page access, no decode),
    /// then the buffer pool (decode from cached page bytes), then the store.
    /// Per-vertex quadtrees average `O(√n)` entries, a fraction of a page,
    /// but spans ignore page boundaries: a miss asks the pool for one page
    /// or two (measured: 1.26 requests per miss at 8 000 vertices).
    ///
    /// A store fault (after the pool's retries) or a checksum mismatch
    /// propagates; nothing is cached for `u`, so a later call re-attempts
    /// the read.
    fn try_load_entries(&self, u: VertexId) -> io::Result<Arc<[BlockEntry]>> {
        self.cached.try_get_or_decode(u.index() as u64, |pool| self.decode_entries(pool, u))
    }

    /// Decodes `u`'s entry list from its pages through the buffer pool.
    fn decode_entries(
        &self,
        pool: &BufferPool<Box<dyn PageStore>>,
        u: VertexId,
    ) -> io::Result<Arc<[BlockEntry]>> {
        let Span { start, len, count } = self.directory[u.index()];
        let byte_lo = self.entries_base + start;
        RAW_SPAN.with_borrow_mut(|raw| {
            raw.clear();
            pool.read_range(byte_lo, byte_lo + len as u64, raw)?;
            // Any decode failure — truncated or malformed varint, invariant
            // violation — is structural corruption; normalize it to one
            // InvalidData error naming the vertex, which the query layer
            // lifts to a typed `Corrupt`.
            decode_entries_v3(raw, count, self.mapper.q()).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("vertex {}: {e}", u.index()))
            })
        })
    }

    fn min_lambda_walk(
        entries: &[BlockEntry],
        block: MortonBlock,
        rect: &CellRect,
        best: &mut Option<f64>,
    ) {
        if !rect.intersects_block(&block) {
            return;
        }
        if matches!(*best, Some(b) if b == 0.0) {
            return;
        }
        let idx = entries.partition_point(|e| e.block.end() <= block.start());
        let Some(e) = entries.get(idx) else { return };
        if e.block.start() >= block.end() {
            return;
        }
        if e.block.start() <= block.start() && e.block.end() >= block.end() {
            let lambda =
                if e.color == crate::sp_quadtree::COLOR_SOURCE { 0.0 } else { e.lambda_lo };
            *best = Some(best.map_or(lambda, |b| b.min(lambda)));
            return;
        }
        for child in block.children() {
            Self::min_lambda_walk(entries, child, rect, best);
        }
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
    /// failure after retries, checksum mismatch) — the infallible API
    /// boundary for callers that treat a failed disk as fatal.
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

    fn try_entry(&self, u: VertexId, code: MortonCode) -> Result<Option<BlockEntry>, QueryError> {
        let entries = self.try_load_entries(u)?;
        let idx = entries.partition_point(|e| e.block.end() <= code.0);
        Ok(entries.get(idx).filter(|e| e.block.contains_code(code)).copied())
    }

    fn try_min_lambda(&self, u: VertexId, rect: &CellRect) -> Result<Option<f64>, QueryError> {
        let entries = self.try_load_entries(u)?;
        let mut best = None;
        Self::min_lambda_walk(&entries, MortonBlock::root(self.mapper.q()), rect, &mut best);
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::BuildConfig;
    use crate::path;
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
        // A page cache big enough for the whole file, but a decoded-entries
        // cache of one vertex: the second identical query is served from
        // memory (no misses), and because the entry cache cannot hold the
        // query's working set, the pool itself sees the warm hits.
        let (mem, _) = build_pair("stats.idx");
        let file = tmp("stats.idx");
        let disk =
            DiskSilcIndex::open_with_entry_cache(&file, mem.network_arc().clone(), 1.0, 1).unwrap();
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
    fn entry_cache_absorbs_repeated_lookups() {
        let (mem, _) = build_pair("entrycache.idx");
        let g = mem.network();
        let file = tmp("entrycache.idx");
        // An entry cache holding every vertex: the first full sweep decodes
        // each vertex once, the second sweep must not touch the pool.
        let disk = DiskSilcIndex::open_with_entry_cache(
            &file,
            mem.network_arc().clone(),
            0.25,
            g.vertex_count(),
        )
        .unwrap();
        for u in g.vertices() {
            for v in g.vertices() {
                let _ = disk.entry(u, disk.vertex_code(v));
            }
        }
        let after_first = disk.io_stats();
        let cache_first = disk.entry_cache_stats();
        assert_eq!(cache_first.misses, g.vertex_count() as u64, "one decode per vertex");
        for u in g.vertices() {
            for v in g.vertices() {
                let _ = disk.entry(u, disk.vertex_code(v));
            }
        }
        assert_eq!(
            disk.io_stats(),
            after_first,
            "warm entry lookups must not touch the page pool at all"
        );
        let cache = disk.entry_cache_stats();
        assert_eq!(cache.misses, cache_first.misses, "no further decodes");
        assert!(cache.hits > cache_first.hits);
        // clear_cache drops decoded entries too: the next lookup re-decodes.
        disk.clear_cache();
        let _ = disk.entry(VertexId(0), disk.vertex_code(VertexId(1)));
        assert_eq!(disk.entry_cache_stats().misses, cache.misses + 1);
        assert!(disk.io_stats().misses > after_first.misses, "cold start re-reads pages");
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
    fn v3_entry_region_shrinks_by_at_least_thirty_percent() {
        // Against the fixed 19-byte records of the retired version 2.
        let (_, disk) = build_pair("shrink.idx");
        let fixed: u64 = disk.directory.iter().map(|span| 19 * span.count as u64).sum();
        let compressed = disk.entry_region_bytes();
        assert!(
            (compressed as f64) <= 0.7 * fixed as f64,
            "entry region {compressed} B not ≤ 70% of fixed-width {fixed} B"
        );
    }

    #[test]
    fn v3_span_decoder_round_trips_and_rejects_malformed_bytes() {
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
                color: 0,
                lambda_lo: 0.5,
                lambda_hi: 0.75,
            },
        ];
        let mut buf = Vec::new();
        encode_entries_v3(&entries, &mut buf);
        let back = decode_entries_v3(&buf, entries.len() as u32, q).unwrap();
        assert_eq!(&back[..], &entries[..], "round trip must be bit-identical");
        // Empty span, zero entries: fine.
        assert!(decode_entries_v3(&[], 0, q).unwrap().is_empty());

        let kind = |raw: &[u8], count: u32| decode_entries_v3(raw, count, q).unwrap_err();
        // Truncation anywhere inside the span is an error, never a panic.
        for cut in 0..buf.len() {
            let e = kind(&buf[..cut], entries.len() as u32);
            assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        // Trailing bytes after the last record.
        let mut long = buf.clone();
        long.push(0);
        assert_eq!(
            kind(&long, entries.len() as u32).kind(),
            io::ErrorKind::InvalidData,
            "trailing bytes must be rejected"
        );
        // Over-long varint in the level field.
        assert_eq!(kind(&[0x80; 11], 1).kind(), io::ErrorKind::InvalidData);
        // Non-canonical varint (0 as two bytes).
        assert_eq!(kind(&[0x80, 0x00], 1).kind(), io::ErrorKind::InvalidData);
        // Level above the grid exponent.
        let mut bad = Vec::new();
        silc_storage::varint::encode_u64(q as u64 + 1, &mut bad);
        assert!(kind(&bad, 1).to_string().contains("exceeds grid exponent"));
        // Unaligned base: level 2 (16 cells) at base 4.
        let mut bad = Vec::new();
        for v in [2u64, 4, 0] {
            silc_storage::varint::encode_u64(v, &mut bad);
        }
        bad.extend_from_slice(&[0u8; 8]);
        assert!(kind(&bad, 1).to_string().contains("unaligned"));
        // Block past the grid: level q at a gap that lands outside 4^q.
        let mut bad = Vec::new();
        for v in [0u64, 1u64 << (2 * q), 0] {
            silc_storage::varint::encode_u64(v, &mut bad);
        }
        bad.extend_from_slice(&[0u8; 8]);
        assert!(kind(&bad, 1).to_string().contains("past the grid"));
        // Color out of u16 range.
        let mut bad = Vec::new();
        for v in [0u64, 0, 1 << 16] {
            silc_storage::varint::encode_u64(v, &mut bad);
        }
        bad.extend_from_slice(&[0u8; 8]);
        assert!(kind(&bad, 1).to_string().contains("color"));
        // A gap that overflows the base accumulator.
        let mut bad = Vec::new();
        encode_entries_v3(&entries[..1], &mut bad);
        let mut second = Vec::new();
        for v in [0u64, u64::MAX, 0] {
            silc_storage::varint::encode_u64(v, &mut second);
        }
        second.extend_from_slice(&[0u8; 8]);
        bad.extend_from_slice(&second);
        let e = kind(&bad, 2);
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    /// The 8×8 grid network `build_pair` indexes.
    fn grid() -> Arc<SpatialNetwork> {
        Arc::new(grid_network(&GridConfig { rows: 8, cols: 8, seed: 41, ..Default::default() }))
    }

    /// Opens an image over the `build_pair` network from memory.
    fn open_image(image: &[u8]) -> Result<DiskSilcIndex, BuildError> {
        DiskSilcIndex::from_store(Box::new(MemPageStore::new(image)), grid(), 0.25, 16)
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
    fn corrupt_v3_records_surface_as_typed_corruption_not_panics() {
        // Bytes that pass the page checksums but violate the record
        // structure (a rewritten file with a recomputed table) must fail
        // with a pageless typed Corrupt at query time.
        let (_, disk) = build_pair("v3-tamper-src.idx");
        let mut data = std::fs::read(tmp("v3-tamper-src.idx")).unwrap();
        let entries_base = disk.entries_base as usize;
        // Stomp the level varint of the vertex whose span opens the entry
        // region with an over-long varint.
        let first = disk.directory.iter().position(|span| span.start == 0).unwrap();
        data[entries_base] = 0x80;
        data[entries_base + 1] = 0x80;
        let bad = reopen_resealed(data).unwrap();
        match bad.try_entry(VertexId(first as u32), bad.vertex_code(VertexId(1))) {
            Err(QueryError::Corrupt { page: None, detail }) => {
                assert!(detail.contains(&format!("vertex {first}")), "{detail}");
            }
            other => panic!("expected pageless Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn v3_spans_follow_the_morton_order_of_the_vertex_codes() {
        let (_, disk) = build_pair("morton-order.idx");
        let mut by_offset: Vec<usize> = (0..disk.directory.len()).collect();
        by_offset.sort_by_key(|&v| disk.directory[v].start);
        let keys: Vec<_> = by_offset.iter().map(|&v| (disk.codes[v], v)).collect();
        assert!(keys.is_sorted(), "spans must lie in (vertex code, vertex id) order");
        // Row-major grid ids are not Morton order: the layout is a real
        // permutation here, not the identity.
        assert!(!by_offset.is_sorted());
        let covered: u64 = disk.directory.iter().map(|span| span.len as u64).sum();
        assert_eq!(covered, disk.entry_region_bytes(), "spans tile the entry region");
    }

    #[test]
    fn v3_directory_must_tile_the_entry_region_in_any_order() {
        let (_, disk) = build_pair("tiling-src.idx");
        let data = std::fs::read(tmp("tiling-src.idx")).unwrap();
        let mut by_offset: Vec<usize> = (0..disk.directory.len()).collect();
        by_offset.sort_by_key(|&v| disk.directory[v].start);
        let (first, second, last) = (by_offset[0], by_offset[1], by_offset[by_offset.len() - 1]);
        let start_of = |v: usize| disk.directory[v].start;
        // Rewrites vertex `v`'s directory offset and reopens.
        let with_start = |v: usize, start: u64| {
            let mut data = data.clone();
            let at = 80 + 8 * disk.codes.len() + 12 * v;
            data[at..at + 8].copy_from_slice(&start.to_le_bytes());
            match reopen_resealed(data) {
                Err(BuildError::Corrupt(msg)) => msg,
                other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
            }
        };
        // Duplicated: two vertices claim one offset, one is left no bytes.
        assert!(with_start(last, start_of(second)).contains("overlap or leave a gap"));
        // Overlapping: a span starting inside its predecessor cuts it short.
        assert!(with_start(second, 1).contains("overlap or leave a gap"));
        // Gapped: a span starting late leaves bytes its predecessor cannot
        // account for — or, at the front, bytes no span covers.
        let late = disk.entry_region_bytes() - 1;
        assert!(with_start(last, late).contains("overlap or leave a gap"));
        assert!(with_start(first, 1).contains("do not start at offset 0"));
        // Out of range.
        let past = disk.entry_region_bytes() + 1;
        assert!(with_start(last, past).contains("past entry region"));
        // Control: it is the offsets, not the reseal, that fail the cases
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
        let meta_pages = (disk.entries_base as usize).div_ceil(PAGE_SIZE);
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
