//! A disk-resident spatial network: adjacency lists served from disk pages
//! through an LRU buffer pool.
//!
//! The paper's evaluation is disk-resident end to end: the competitors INE
//! and IER traverse the *network* from disk exactly as SILC reads its
//! quadtrees from disk. This module provides that substrate — the vertex
//! directory (offsets, positions) stays in memory like any index's root
//! metadata, while the `O(m)` adjacency records are fetched page by page.
//!
//! ## File layout
//!
//! ```text
//! header    magic "SILCPNET", n, m, edge-region offset
//! positions n × (f64, f64)
//! offsets   (n+1) × u32
//! edges     m × (target u32 | weight f64)   — 12 bytes per record
//! ```

use crate::{SpatialNetwork, VertexId};
use bytes::{Buf, BufMut};
use silc_geom::Point;
use silc_storage::{BufferPool, FilePageStore, PageId, PageStore, PAGE_SIZE};
use std::io;
use std::path::Path;

const MAGIC: &[u8; 8] = b"SILCPNET";
/// Bytes per serialized edge record.
pub const EDGE_BYTES: usize = 12;

/// Serializes `g` into a page file at `path` (see the module docs for the
/// layout).
pub fn write_paged<P: AsRef<Path>>(g: &SpatialNetwork, path: P) -> io::Result<()> {
    let n = g.vertex_count();
    let m = g.edge_count();
    let header_len = 8 + 4 + 4 + 8;
    let meta_len = header_len + n * 16 + (n + 1) * 4;
    let mut buf = Vec::with_capacity(meta_len + m * EDGE_BYTES);
    buf.put_slice(MAGIC);
    buf.put_u32_le(n as u32);
    buf.put_u32_le(m as u32);
    buf.put_u64_le(meta_len as u64);
    for v in g.vertices() {
        let p = g.position(v);
        buf.put_f64_le(p.x);
        buf.put_f64_le(p.y);
    }
    let mut offset = 0u32;
    buf.put_u32_le(0);
    for v in g.vertices() {
        offset += g.out_degree(v) as u32;
        buf.put_u32_le(offset);
    }
    debug_assert_eq!(buf.len(), meta_len);
    for u in g.vertices() {
        for (v, w) in g.out_edges(u) {
            buf.put_u32_le(v.0);
            buf.put_f64_le(w);
        }
    }
    FilePageStore::create(path, &buf)?;
    Ok(())
}

/// A spatial network whose adjacency lists live on disk behind an LRU
/// buffer pool.
pub struct PagedNetwork {
    positions: Vec<Point>,
    offsets: Vec<u32>,
    edges_base: u64,
    pool: BufferPool<FilePageStore>,
}

impl PagedNetwork {
    /// Opens a paged network file with a buffer pool holding
    /// `cache_fraction` of its pages (the paper uses 0.05).
    ///
    /// The header's counts are checked against the file length before
    /// anything they size is allocated, and the offset table must be
    /// monotone, so every adjacency read stays inside the edge region.
    pub fn open<P: AsRef<Path>>(path: P, cache_fraction: f64) -> io::Result<Self> {
        let store = FilePageStore::open(&path)?;
        let fail = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let read_bytes = |from: usize, len: usize| -> io::Result<Vec<u8>> {
            let mut out = Vec::with_capacity(len);
            let mut page = from / PAGE_SIZE;
            let mut off = from % PAGE_SIZE;
            while out.len() < len {
                let data = store.read_page(PageId(page as u64))?;
                let take = (len - out.len()).min(PAGE_SIZE - off);
                out.extend_from_slice(&data[off..off + take]);
                page += 1;
                off = 0;
            }
            Ok(out)
        };
        let header_len = 8 + 4 + 4 + 8;
        let file_len = store.page_count() * PAGE_SIZE as u64;
        if file_len < header_len as u64 {
            return Err(fail("file too small"));
        }
        let header = read_bytes(0, header_len)?;
        let mut h = &header[..];
        let mut magic = [0u8; 8];
        h.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(fail("bad magic"));
        }
        let n = h.get_u32_le() as u64;
        let m = h.get_u32_le() as u64;
        let edges_base = h.get_u64_le();
        // Bound n and m by the file before allocating anything they size.
        let meta_len = header_len as u64 + n * 16 + (n + 1) * 4;
        if meta_len > file_len {
            return Err(fail("vertex directory extends past end of file"));
        }
        if edges_base != meta_len {
            return Err(fail("edge region does not follow the vertex directory"));
        }
        if edges_base.checked_add(m * EDGE_BYTES as u64).is_none_or(|end| end > file_len) {
            return Err(fail("edge region extends past end of file"));
        }
        let n = n as usize;
        let meta = read_bytes(header_len, n * 16 + (n + 1) * 4)?;
        let mut r = &meta[..];
        let mut positions = Vec::with_capacity(n);
        for _ in 0..n {
            positions.push(Point::new(r.get_f64_le(), r.get_f64_le()));
        }
        let mut offsets = Vec::with_capacity(n + 1);
        for _ in 0..=n {
            offsets.push(r.get_u32_le());
        }
        if !offsets.is_sorted() {
            return Err(fail("offset table is not monotone"));
        }
        if offsets[n] as u64 != m {
            return Err(fail("offset table does not match edge count"));
        }
        let pool = BufferPool::with_fraction(store, cache_fraction);
        Ok(PagedNetwork { positions, offsets, edges_base, pool })
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.positions.len()
    }

    /// Position of vertex `v` (the spatial directory stays in memory).
    pub fn position(&self, v: VertexId) -> Point {
        self.positions[v.index()]
    }

    /// Reads the adjacency list of `v` from disk pages — the
    /// panic-at-the-boundary wrapper around [`Self::try_out_edges`] for
    /// the INE/IER baselines, whose scans treat a vanished network file
    /// as fatal.
    ///
    /// # Panics
    /// Panics on I/O errors; use [`Self::try_out_edges`] to handle them.
    pub fn out_edges(&self, v: VertexId, out: &mut Vec<(VertexId, f64)>) {
        self.try_out_edges(v, out).unwrap_or_else(|e| panic!("network page read failed: {e}"))
    }

    /// Fallible adjacency read: I/O trouble, or a record whose target is no
    /// vertex or whose weight is not a finite non-negative number, comes
    /// back as the error (the scratch vector is then left cleared, holding
    /// no partial list).
    pub fn try_out_edges(&self, v: VertexId, out: &mut Vec<(VertexId, f64)>) -> io::Result<()> {
        out.clear();
        let start = self.offsets[v.index()] as u64;
        let end = self.offsets[v.index() + 1] as u64;
        if start == end {
            return Ok(());
        }
        let byte_lo = self.edges_base + start * EDGE_BYTES as u64;
        let byte_hi = self.edges_base + end * EDGE_BYTES as u64;
        let page_lo = byte_lo / PAGE_SIZE as u64;
        let page_hi = (byte_hi - 1) / PAGE_SIZE as u64;
        // Gather the raw records across the page range.
        let mut raw = Vec::with_capacity((byte_hi - byte_lo) as usize);
        for page in page_lo..=page_hi {
            let data = self.pool.get(PageId(page))?;
            let lo = byte_lo.max(page * PAGE_SIZE as u64) - page * PAGE_SIZE as u64;
            let hi = byte_hi.min((page + 1) * PAGE_SIZE as u64) - page * PAGE_SIZE as u64;
            raw.extend_from_slice(&data[lo as usize..hi as usize]);
        }
        let mut r = &raw[..];
        for _ in start..end {
            let target = r.get_u32_le();
            let weight = r.get_f64_le();
            if target as usize >= self.positions.len() || !(weight.is_finite() && weight >= 0.0) {
                out.clear();
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("edge of {v} to {target} with weight {weight} is out of range"),
                ));
            }
            out.push((VertexId(target), weight));
        }
        Ok(())
    }

    /// I/O counters of the buffer pool.
    pub fn io_stats(&self) -> silc_storage::IoStats {
        self.pool.stats()
    }

    /// Zeroes the I/O counters.
    pub fn reset_io_stats(&self) {
        self.pool.reset_stats()
    }

    /// Drops all cached pages.
    pub fn clear_cache(&self) {
        self.pool.clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{road_network, RoadConfig};
    use crate::SpatialNetwork;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("silc-paged-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn paged_adjacency_matches_memory() {
        let g = road_network(&RoadConfig { vertices: 120, seed: 4, ..Default::default() });
        let path = tmp("adj.pnet");
        write_paged(&g, &path).unwrap();
        let p = PagedNetwork::open(&path, 1.0).unwrap();
        assert_eq!(p.vertex_count(), g.vertex_count());
        let mut buf = Vec::new();
        for v in g.vertices() {
            assert_eq!(p.position(v), g.position(v));
            p.out_edges(v, &mut buf);
            let want: Vec<_> = g.out_edges(v).collect();
            assert_eq!(buf, want, "adjacency of {v} differs");
        }
        assert!(p.io_stats().requests() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn small_cache_pays_for_scans() {
        let g = road_network(&RoadConfig { vertices: 300, seed: 5, ..Default::default() });
        let path = tmp("scan.pnet");
        write_paged(&g, &path).unwrap();
        let p = PagedNetwork::open(&path, 0.05).unwrap();
        let mut buf = Vec::new();
        for v in g.vertices() {
            p.out_edges(v, &mut buf);
        }
        let first = p.io_stats();
        assert!(first.misses > 0);
        // A second full scan in the same order re-misses (sequential flood
        // beats a 5% LRU).
        p.reset_io_stats();
        for v in g.vertices() {
            p.out_edges(v, &mut buf);
        }
        assert!(p.io_stats().misses > 0);
        std::fs::remove_file(&path).ok();
    }

    /// A written 50-vertex file and its bytes.
    fn fifty(name: &str) -> (SpatialNetwork, std::path::PathBuf, Vec<u8>) {
        let g = road_network(&RoadConfig { vertices: 50, seed: 6, ..Default::default() });
        let path = tmp(name);
        write_paged(&g, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (g, path, bytes)
    }

    /// Every adjacency list of an opened network, read without panicking.
    fn read_all(p: &PagedNetwork) -> io::Result<()> {
        let mut buf = Vec::new();
        (0..p.vertex_count() as u32).try_for_each(|v| p.try_out_edges(VertexId(v), &mut buf))
    }

    #[test]
    fn non_monotone_offsets_are_refused_at_open() {
        let (g, path, mut bytes) = fifty("monotone.pnet");
        let offsets = 24 + 16 * g.vertex_count();
        let at = |v: usize| offsets + 4 * v;
        let third = u32::from_le_bytes(bytes[at(2)..at(2) + 4].try_into().unwrap());
        bytes[at(1)..at(1) + 4].copy_from_slice(&(third + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match PagedNetwork::open(&path, 1.0) {
            Err(e) => assert!(e.to_string().contains("not monotone"), "{e}"),
            Ok(p) => panic!("opened; reading v1 gives {:?}", read_all(&p)),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_header_words_are_typed_errors_not_panics() {
        let (_, path, bytes) = fifty("hostile.pnet");
        for (at, width) in [(8usize, 4usize), (12, 4), (16, 8)] {
            for word in [0u64, 1, 7, u32::MAX as u64 / 20, u32::MAX as u64, u64::MAX] {
                let mut data = bytes.clone();
                data[at..at + width].copy_from_slice(&word.to_le_bytes()[..width]);
                std::fs::write(&path, &data).unwrap();
                // Refused, or opened with every list readable or typed.
                if let Ok(p) = PagedNetwork::open(&path, 1.0) {
                    if let Err(e) = read_all(&p) {
                        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_edge_records_are_typed_errors() {
        let (g, path, bytes) = fifty("records.pnet");
        let edges = 24 + 16 * g.vertex_count() + 4 * (g.vertex_count() + 1);
        for (off, field) in
            [(0, 50u32.to_le_bytes().to_vec()), (4, f64::NAN.to_le_bytes().to_vec())]
        {
            let mut data = bytes.clone();
            data[edges + off..edges + off + field.len()].copy_from_slice(&field);
            std::fs::write(&path, &data).unwrap();
            let p = PagedNetwork::open(&path, 1.0).unwrap();
            let e = read_all(&p).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_files_rejected() {
        let path = tmp("bad.pnet");
        std::fs::write(&path, vec![0u8; PAGE_SIZE]).unwrap();
        assert!(PagedNetwork::open(&path, 0.5).is_err());
        std::fs::remove_file(&path).ok();
    }
}
