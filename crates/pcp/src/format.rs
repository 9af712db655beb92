//! The paged on-disk format of a PCP distance oracle.
//!
//! Storage parity with `silc::disk`: the structurally small parts (header,
//! the code-sorted vertex array, the split-tree skeleton, the per-node pair
//! directory) form a pinned metadata region read once at open time, while
//! the `O(s²n)` pair payload — the part that grows with accuracy — is laid
//! out in fixed-size pages served through a `silc_storage::BufferPool`.
//!
//! ## File layout (version 4)
//!
//! ```text
//! header    magic "SILCPCPD", version u32, n, node count, pair count,
//!           separation, stretch, guaranteed ε (max per-pair cap),
//!           checksum-table offset, pair-region byte length,
//!           pair-region offset
//! sorted    n × (u64 code, u32 vertex) — the code-sorted vertex array
//! nodes     per split-tree node: block base u64 | level u8 | tight rect
//!           4×f64 | span 2×u32 | child count u8 | children u32×c
//! directory node count × (u64 group byte start, u32 pair count) — the
//!           stored pairs grouped by their first (the `a`-side) node;
//!           byte starts are relative to the pair region and strictly
//!           partition it (variable-length records)
//! pairs     one compressed record per stored pair, groups concatenated
//!           in node order, each group sorted by the `b`-side node id:
//!           varint Δb (first record: `b` absolute; later records: the
//!           gap to the previous `b`, never 0) | dist f64 | max_err f64.
//!           The representative vertices are **not stored** — they are
//!           always the split tree's canonical representatives (the
//!           smallest-code vertex of each node's span), so the decoder
//!           derives them from the pinned tree.
//! (page padding)
//! checksums one 64-bit digest (8-lane FNV-1a) per payload page — verified on every physical
//!           page read, so pair-region bit rot surfaces as a typed error
//!           naming the page instead of a silently wrong distance
//! ```
//!
//! ## Versioning
//!
//! Version 4 is the one version this module writes and reads. It
//! **compressed the pair region** of the fixed-width versions 1–3: the
//! `b`-side node ids of a group are delta+varint coded (canonical LEB128,
//! see `silc_storage::varint`), the two representative vertex ids are
//! elided (derivable from the split tree, asserted at encode time), and
//! the directory holds byte offsets because records are variable-length.
//! A file of a retired version is refused at open with a
//! [`PcpError::Corrupt`] that names its version and asks for a rebuild.
//!
//! Representative distances and caps are stored as full `f64` bits, so the
//! disk oracle's answers are **bit-identical** to the memory oracle it was
//! written from (locked by tests in [`crate::disk`]).

use crate::error::PcpError;
use crate::oracle::DistanceOracle;
use crate::split_tree::{Node, NodeRef, SplitTree};
use bytes::{Buf, BufMut};
use silc_geom::Rect;
use silc_morton::{MortonBlock, MortonCode};
use silc_storage::checksum::{open_table, seal};
use silc_storage::{
    read_span, read_span_verified, varint, ChecksumTable, FilePageStore, PageStore, PAGE_SIZE,
};
use std::path::Path;

pub(crate) const MAGIC: &[u8; 8] = b"SILCPCPD";
/// The format version written and read.
pub const VERSION: u32 = 4;
/// Header size. The pair-region offset is the *last* 8 header bytes,
/// right after the pair-region byte length.
pub(crate) const HEADER_BYTES: usize = 8 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 8;

/// One decoded pair record of a directory group (the `a`-side node is the
/// group key and is not repeated per record).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PairRecord {
    pub(crate) b: u32,
    pub(crate) rep_a: u32,
    pub(crate) rep_b: u32,
    pub(crate) dist: f64,
    /// The pair's own error cap.
    pub(crate) max_err: f64,
}

/// Serializes `oracle` into its sealed paged byte image (what
/// [`write_oracle`] writes before page padding). Deterministic: equal
/// oracles encode to equal bytes (groups are emitted in node order, records
/// sorted by `b`), so re-serialization round-trips byte-exactly. Public so
/// tests and memory-backed deployments can feed a `MemPageStore` directly.
pub fn encode_oracle(oracle: &DistanceOracle) -> Vec<u8> {
    let tree = oracle.tree();
    let nodes = tree.raw_nodes();
    let sorted = tree.raw_sorted();
    let n = sorted.len();
    let node_count = nodes.len();

    // Group the stored pairs by their a-side node — the unit the disk
    // oracle decodes and caches — sorted by b for binary search.
    let mut groups: Vec<Vec<PairRecord>> = vec![Vec::new(); node_count];
    for (&(a, b), p) in oracle.pair_map() {
        groups[a as usize].push(PairRecord {
            b,
            rep_a: p.rep_a.0,
            rep_b: p.rep_b.0,
            dist: p.dist,
            max_err: p.max_err,
        });
    }
    for g in &mut groups {
        g.sort_unstable_by_key(|r| r.b);
    }
    let pair_count: u64 = groups.iter().map(|g| g.len() as u64).sum();

    // Serialize the pair region up front — records are variable-length, so
    // the directory needs the per-group byte starts and the header the
    // total byte length. The representatives are elided; the build always
    // stores the split tree's canonical representative of each node, which
    // the assert pins down so a drift in the build could never write a
    // lossy file.
    let mut pair_buf = Vec::new();
    let mut group_byte_starts = Vec::with_capacity(node_count);
    for (a, g) in groups.iter().enumerate() {
        group_byte_starts.push(pair_buf.len() as u64);
        let mut prev_b: Option<u32> = None;
        for r in g {
            debug_assert_eq!(r.rep_a, tree.representative(NodeRef(a as u32)).0);
            debug_assert_eq!(r.rep_b, tree.representative(NodeRef(r.b)).0);
            let delta = match prev_b {
                None => r.b as u64,
                Some(p) => (r.b - p) as u64, // strictly sorted: never 0
            };
            varint::encode_u64(delta, &mut pair_buf);
            pair_buf.put_f64_le(r.dist);
            pair_buf.put_f64_le(r.max_err);
            prev_b = Some(r.b);
        }
    }

    let nodes_bytes: usize =
        nodes.iter().map(|nd| 8 + 1 + 32 + 8 + 1 + 4 * nd.children.len()).sum();
    let meta_len = HEADER_BYTES + n * 12 + nodes_bytes + node_count * 12;
    let payload_len = meta_len + pair_buf.len();
    // The checksum table starts on the page boundary after the payload.
    let cksum_base = payload_len.div_ceil(PAGE_SIZE) * PAGE_SIZE;

    let mut buf = Vec::with_capacity(payload_len);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(n as u32);
    buf.put_u32_le(node_count as u32);
    buf.put_u64_le(pair_count);
    buf.put_f64_le(oracle.separation());
    buf.put_f64_le(oracle.stretch());
    buf.put_f64_le(oracle.epsilon());
    buf.put_u64_le(cksum_base as u64);
    buf.put_u64_le(pair_buf.len() as u64);
    buf.put_u64_le(meta_len as u64);
    for &(code, v) in sorted {
        buf.put_u64_le(code);
        buf.put_u32_le(v);
    }
    for nd in nodes {
        buf.put_u64_le(nd.block.start());
        buf.put_u8(nd.block.level());
        buf.put_f64_le(nd.rect.min_x);
        buf.put_f64_le(nd.rect.min_y);
        buf.put_f64_le(nd.rect.max_x);
        buf.put_f64_le(nd.rect.max_y);
        buf.put_u32_le(nd.span.0);
        buf.put_u32_le(nd.span.1);
        buf.put_u8(nd.children.len() as u8);
        for c in &nd.children {
            buf.put_u32_le(c.0);
        }
    }
    for (g, &start) in groups.iter().zip(&group_byte_starts) {
        buf.put_u64_le(start);
        buf.put_u32_le(g.len() as u32);
    }
    debug_assert_eq!(buf.len(), meta_len);
    buf.put_slice(&pair_buf);
    seal(&mut buf);
    buf
}

/// Serializes `oracle` into a page file at `path`.
pub fn write_oracle<P: AsRef<Path>>(oracle: &DistanceOracle, path: P) -> Result<(), PcpError> {
    FilePageStore::create(path, &encode_oracle(oracle))?;
    Ok(())
}

/// The pinned metadata of an oracle file, parsed and validated.
pub(crate) struct Parsed {
    pub(crate) tree: SplitTree,
    /// Per-node `(byte start, pair count)` into the pair region.
    pub(crate) directory: Vec<(u64, u32)>,
    pub(crate) pair_count: u64,
    pub(crate) pairs_base: u64,
    /// Byte length of the pair region.
    pub(crate) pairs_len: u64,
    pub(crate) separation: f64,
    pub(crate) stretch: f64,
    /// The guaranteed ε: the max per-pair cap.
    pub(crate) eps_max: f64,
    /// The per-page checksum table.
    pub(crate) table: ChecksumTable,
}

/// Reads and validates the header + metadata region from a store.
pub(crate) fn parse<S: PageStore>(store: &S) -> Result<Parsed, PcpError> {
    let corrupt = |msg: &str| PcpError::Corrupt(msg.to_string());
    if store.page_count() * (PAGE_SIZE as u64) < HEADER_BYTES as u64 {
        return Err(corrupt("file too small for header"));
    }
    let header = read_span(store, 0, HEADER_BYTES)?;
    let (magic, mut h) = header.split_at(8);
    if magic != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = h.get_u32_le();
    if version != VERSION {
        let why = if (1..VERSION).contains(&version) {
            "retired; rebuild the oracle"
        } else {
            "unsupported"
        };
        return Err(PcpError::Corrupt(format!(
            "format version {version} is {why} (this build reads version {VERSION})"
        )));
    }
    let n = h.get_u32_le() as usize;
    let node_count = h.get_u32_le() as usize;
    if n == 0 || node_count == 0 {
        return Err(corrupt("empty oracle"));
    }
    if node_count >= 2 * n.max(1) {
        return Err(corrupt("node count exceeds the compressed-tree bound"));
    }
    let pair_count = h.get_u64_le();
    let separation = h.get_f64_le();
    let stretch = h.get_f64_le();
    let eps_max = h.get_f64_le();
    let cksum_base = h.get_u64_le();
    let pairs_len = h.get_u64_le();
    let pairs_base = h.get_u64_le();
    if !separation.is_finite() || separation <= 0.0 || !stretch.is_finite() || stretch < 1.0 {
        return Err(corrupt("separation/stretch out of range"));
    }
    if eps_max.is_nan() || eps_max < 0.0 {
        return Err(corrupt("guaranteed epsilon out of range"));
    }

    // Load the checksum table so the metadata read below is verified. The
    // payload (everything checksummed) ends where the table starts.
    let table = open_table(store, cksum_base)?;
    let min_meta = HEADER_BYTES + n * 12 + node_count * (8 + 1 + 32 + 8 + 1) + node_count * 12;
    if pairs_base < min_meta as u64 || pairs_base > cksum_base {
        return Err(corrupt("pair region offset out of range"));
    }
    let meta = read_span_verified(store, 0, pairs_base as usize, &table)?;
    let mut m = &meta[HEADER_BYTES..];

    let mut sorted = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for _ in 0..n {
        let code = m.get_u64_le();
        let v = m.get_u32_le();
        if v as usize >= n || seen[v as usize] {
            return Err(corrupt("sorted vertex array is not a permutation"));
        }
        seen[v as usize] = true;
        sorted.push((code, v));
    }

    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        if m.remaining() < 8 + 1 + 32 + 8 + 1 {
            return Err(corrupt("truncated node region"));
        }
        let base = m.get_u64_le();
        let level = m.get_u8();
        if level > 32 || (level < 32 && base % (1u64 << (2 * level as u32)) != 0) {
            return Err(corrupt("misaligned node block"));
        }
        let rect = Rect::new(m.get_f64_le(), m.get_f64_le(), m.get_f64_le(), m.get_f64_le());
        let lo = m.get_u32_le();
        let hi = m.get_u32_le();
        if lo >= hi || hi as usize > n {
            return Err(corrupt("bad node span"));
        }
        let child_count = m.get_u8() as usize;
        if child_count == 1 || child_count > 4 || m.remaining() < 4 * child_count {
            return Err(corrupt("bad child count"));
        }
        let mut children = Vec::with_capacity(child_count);
        for _ in 0..child_count {
            let c = m.get_u32_le();
            if c as usize >= node_count {
                return Err(corrupt("child node id out of range"));
            }
            children.push(NodeRef(c));
        }
        nodes.push(Node {
            block: MortonBlock::new(MortonCode(base), level),
            rect,
            span: (lo, hi),
            children,
        });
    }

    if m.remaining() != node_count * 12 {
        return Err(corrupt("metadata region size does not match node count"));
    }
    let mut directory = Vec::with_capacity(node_count);
    let mut total = 0u64;
    let mut prev_start = 0u64;
    for i in 0..node_count {
        let start = m.get_u64_le();
        let count = m.get_u32_le();
        // Byte offsets: the groups partition the pair region in order, but
        // a group's byte length is only known from its successor's start
        // (checked lazily at decode time by exact consumption).
        if i == 0 && start != 0 {
            return Err(corrupt("directory does not start at byte offset 0"));
        }
        if start < prev_start {
            return Err(corrupt("directory byte offsets are not sorted"));
        }
        if start > pairs_len {
            return Err(corrupt("directory byte offset past the pair region"));
        }
        prev_start = start;
        total += count as u64;
        directory.push((start, count));
    }
    if total != pair_count {
        return Err(corrupt("directory pair total does not match header"));
    }
    if pairs_base.checked_add(pairs_len).is_none_or(|end| end > cksum_base) {
        return Err(corrupt("pair region extends past end of file"));
    }

    Ok(Parsed {
        tree: SplitTree::from_raw(nodes, sorted),
        directory,
        pair_count,
        pairs_base,
        pairs_len,
        separation,
        stretch,
        eps_max,
        table,
    })
}
