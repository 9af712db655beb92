//! The frontier-distance tier: exact shard-internal distances from every
//! frontier vertex, precomputed once and paged off disk.
//!
//! A partitioned index (see [`crate::partitioned`]) answers within-shard
//! distances exactly but knows nothing exact *across* the cut: the PR-6
//! router stitched shards together with interval upper bounds, so a third
//! of its answers could only be certified as sound intervals, never exact.
//! This tier closes that gap the way distance labellings do — store a
//! small set of exact precomputed distances that every cross-shard path
//! must pass through. Here the label set is the partition's **frontier**:
//! the cut-edge endpoints. Any path between shards enters and leaves
//! through frontier vertices, so
//!
//! * one shard-confined SSSP per frontier vertex (the **forward row**:
//!   distances from `f` to every vertex of its shard) gives the exact
//!   frontier-pair edges of the router's frontier graph *and* the exact
//!   "last mile" from any entry vertex to any object in the shard, and
//! * the same SSSP run on the shard's **reversed** network (the **reverse
//!   row**: distances from every vertex *to* `f`) gives the exact "first
//!   mile" from an arbitrary query vertex to its home frontier.
//!
//! On symmetric networks (every generator in `silc-network`) the two
//! coincide and only forward rows are stored (`directions = 1`).
//!
//! ## File layout (version 1, magic `SILCFDT1`)
//!
//! ```text
//! header    magic "SILCFDT1", version u32, shard count u32,
//!           directions u32 (1 = symmetric, forward rows serve both;
//!           2 = forward rows then reverse rows per shard),
//!           total row count u64, checksum-table offset u64,
//!           row-region byte length u64, row-region offset u64
//! meta      per shard, varint-coded: vertex count | frontier count |
//!           frontier local ids delta+varint (first absolute, later gaps,
//!           strictly sorted: never 0)
//! rows      per shard, direction-major then frontier-rank-major: one row
//!           of `vertex count` × f64 LE exact distances indexed by local
//!           vertex id. Full f64 bits — the router's exactness claims are
//!           bit-level, so distances are never narrowed.
//! (page padding)
//! checksums one 64-bit digest (8-lane FNV-1a) per payload page, verified
//!           on every physical read — bit rot in a row surfaces as a typed
//!           [`QueryError::Corrupt`] naming the page, never a silently
//!           wrong "exact" distance
//! ```
//!
//! The row payload is raw `f64` (exactness forbids narrowing); the
//! delta+varint coding covers the structural metadata, same discipline as
//! the PCP v4 pair groups. Rows are served
//! through a [`TieredPool`] — decoded rows cache as `Arc<[f64]>`, row
//! scans run with readahead on (the cold frontier-graph load at engine
//! start reads the whole region sequentially, the workload
//! `PrefetchPolicy` was built for).

use crate::error::{BuildError, QueryError};
use bytes::{Buf, BufMut};
use silc_network::partition::NetworkPartition;
use silc_network::{analysis, dijkstra, NetworkBuilder, SpatialNetwork, VertexId};
use silc_storage::checksum::{open_table, read_span_verified, seal};
use silc_storage::varint::{self, VarintReader};
use silc_storage::{read_span, FilePageStore, PageStore, PrefetchPolicy, TieredPool, PAGE_SIZE};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

pub(crate) const MAGIC: &[u8; 8] = b"SILCFDT1";
/// Current (written) format version.
pub const VERSION: u32 = 1;
/// Header size: magic + version/shards/directions + four u64 fields. The
/// row-region offset is the last 8 header bytes, per the house convention.
const HEADER_BYTES: usize = 8 + 4 + 4 + 4 + 8 + 8 + 8 + 8;
/// File name of the tier inside a partitioned index directory.
pub const FILE_NAME: &str = "frontier.tier";

/// Which way a row measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Distances *from* the frontier vertex to every shard vertex.
    Forward,
    /// Distances from every shard vertex *to* the frontier vertex.
    Reverse,
}

/// The shard's reversed network: same vertices and positions, every edge
/// flipped. A forward SSSP on it yields distances *to* the source.
fn reversed(g: &SpatialNetwork) -> SpatialNetwork {
    let mut b = NetworkBuilder::with_capacity(g.vertex_count(), g.edge_count());
    for v in g.vertices() {
        b.add_vertex(g.position(v));
    }
    for u in g.vertices() {
        for (v, w) in g.out_edges(u) {
            b.add_edge(v, u, w);
        }
    }
    b.build()
}

/// One row's work order for the self-scheduling build workers.
struct RowTask {
    shard: u32,
    /// 0 = forward network, 1 = reversed network.
    slot: u8,
    rank: u32,
}

/// Builds the tier over `partition` and serializes it: one shard-confined
/// SSSP per (frontier vertex × direction), run by self-scheduling chunked
/// workers (`threads == 0` means all cores), each with a reused
/// [`dijkstra::SsspWorkspace`]. Output is deterministic for any thread
/// count — every task writes its own row slot, and SSSP distances are
/// exact f64s with a fixed relaxation order.
///
/// Unreachable vertices (possible only on shards that are weakly but not
/// strongly connected, which the per-shard index build rejects anyway)
/// encode as `+∞` — a sound "no shard-internal path" the router treats as
/// a missing edge.
pub fn build_tier(partition: &NetworkPartition, threads: usize) -> Vec<u8> {
    let members = partition.frontier_members();
    let symmetric = partition.shards().iter().all(|s| analysis::is_symmetric(s.network()));
    let directions: u32 = if symmetric { 1 } else { 2 };
    let reversed_nets: Vec<Option<SpatialNetwork>> = partition
        .shards()
        .iter()
        .map(|s| if symmetric { None } else { Some(reversed(s.network())) })
        .collect();

    let mut tasks = Vec::new();
    for (s, m) in members.iter().enumerate() {
        for slot in 0..directions as u8 {
            for rank in 0..m.len() as u32 {
                tasks.push(RowTask { shard: s as u32, slot, rank });
            }
        }
    }

    let hw = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let workers = if threads == 0 { hw } else { threads }.clamp(1, tasks.len().max(1));
    let chunk = (tasks.len() / (workers * 8)).clamp(1, 256);
    let rows: Vec<OnceLock<Vec<f64>>> = (0..tasks.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut ws = dijkstra::SsspWorkspace::new();
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= tasks.len() {
                        break;
                    }
                    let end = (start + chunk).min(tasks.len());
                    for (i, t) in tasks[start..end].iter().enumerate() {
                        let s = t.shard as usize;
                        let g = match t.slot {
                            0 => partition.shard(s).network(),
                            _ => reversed_nets[s].as_ref().expect("asymmetric build"),
                        };
                        let src = members[s][t.rank as usize];
                        let mut row = vec![f64::INFINITY; g.vertex_count()];
                        dijkstra::sssp_settle_until(g, VertexId(src), &mut ws, |v, d| {
                            row[v.index()] = d;
                            true
                        });
                        rows[start + i].set(row).expect("each row is computed exactly once");
                    }
                }
            });
        }
    });

    // Serialize: varint metadata, then the concatenated row region.
    let mut meta = Vec::new();
    for (s, m) in members.iter().enumerate() {
        varint::encode_u64(partition.shard(s).vertex_count() as u64, &mut meta);
        varint::encode_u64(m.len() as u64, &mut meta);
        let mut prev: Option<u32> = None;
        for &f in m {
            let delta = match prev {
                None => f as u64,
                Some(p) => (f - p) as u64, // strictly sorted: never 0
            };
            varint::encode_u64(delta, &mut meta);
            prev = Some(f);
        }
    }
    let rows_base = HEADER_BYTES + meta.len();
    let rows_len: usize =
        tasks.iter().map(|t| partition.shard(t.shard as usize).vertex_count() * 8).sum();
    let payload_len = rows_base + rows_len;
    let cksum_base = payload_len.div_ceil(PAGE_SIZE) * PAGE_SIZE;

    let mut buf = Vec::with_capacity(cksum_base);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(partition.shard_count() as u32);
    buf.put_u32_le(directions);
    buf.put_u64_le(tasks.len() as u64);
    buf.put_u64_le(cksum_base as u64);
    buf.put_u64_le(rows_len as u64);
    buf.put_u64_le(rows_base as u64);
    buf.extend_from_slice(&meta);
    for row in &rows {
        for &d in row.get().expect("all rows computed") {
            buf.put_f64_le(d);
        }
    }
    debug_assert_eq!(buf.len(), payload_len);
    seal(&mut buf);
    buf
}

/// Writes an encoded tier to `path` crash-safely (temp + fsync + rename,
/// via [`FilePageStore::create`]).
pub fn write_tier(bytes: &[u8], path: &Path) -> io::Result<()> {
    FilePageStore::create(path, bytes)?;
    Ok(())
}

/// Per-shard pinned metadata of an open tier.
struct ShardMeta {
    /// Sorted local ids of the shard's frontier vertices — the rank order
    /// every row index and the router's frontier graph share.
    frontier: Vec<u32>,
    vertex_count: u32,
    /// First row id of the shard (cache key space).
    row_id_base: u64,
    /// Byte offset of the shard's first row inside the row region.
    byte_base: u64,
}

/// The disk-resident frontier-distance tier: pinned per-shard metadata
/// plus the row region served through a [`TieredPool`] (decoded rows
/// cache as `Arc<[f64]>`; readahead is on — row scans are sequential).
pub struct FrontierTier {
    tiered: TieredPool<Box<dyn PageStore>, Arc<[f64]>>,
    shards: Vec<ShardMeta>,
    directions: u32,
    rows_base: u64,
    rows_len: u64,
}

impl FrontierTier {
    /// Opens a tier file and validates it against `partition` (which is
    /// deterministic, so the expected frontier is recomputable): shard
    /// count, per-shard vertex counts, and the exact frontier member
    /// lists must all match, and the row accounting must tile the row
    /// region. `cache_fraction` sizes the page pool as elsewhere.
    pub fn open<P: AsRef<Path>>(
        path: P,
        partition: &NetworkPartition,
        cache_fraction: f64,
    ) -> Result<Self, BuildError> {
        let store = FilePageStore::open(path)?;
        Self::from_store(Box::new(store), partition, cache_fraction)
    }

    /// [`Self::open`] over any page store (the fault-injection seam).
    pub fn from_store(
        store: Box<dyn PageStore>,
        partition: &NetworkPartition,
        cache_fraction: f64,
    ) -> Result<Self, BuildError> {
        let corrupt = |msg: String| BuildError::Corrupt(msg);
        if store.page_count() * (PAGE_SIZE as u64) < HEADER_BYTES as u64 {
            return Err(corrupt("frontier tier file too small for header".into()));
        }
        let header = read_span(&store, 0, HEADER_BYTES)?;
        if &header[..8] != MAGIC {
            return Err(corrupt("bad frontier tier magic".into()));
        }
        let mut h = &header[8..];
        let version = h.get_u32_le();
        if version != VERSION {
            return Err(corrupt(format!("unknown frontier tier version {version}")));
        }
        let shard_count = h.get_u32_le() as usize;
        if shard_count != partition.shard_count() {
            return Err(corrupt(format!(
                "tier has {shard_count} shards, partition has {}",
                partition.shard_count()
            )));
        }
        let directions = h.get_u32_le();
        if !(1..=2).contains(&directions) {
            return Err(corrupt(format!("direction count {directions} out of range")));
        }
        let total_rows = h.get_u64_le();
        let cksum_base = h.get_u64_le();
        let rows_len = h.get_u64_le();
        let rows_base = h.get_u64_le();

        let table = open_table(&store, cksum_base).map_err(|e| corrupt(e.to_string()))?;
        if rows_base.checked_add(rows_len).is_none_or(|end| {
            end > cksum_base || end.div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64 != cksum_base
        }) {
            return Err(corrupt("row region does not tile the payload".into()));
        }
        if rows_base < HEADER_BYTES as u64 {
            return Err(corrupt("row region overlaps the header".into()));
        }
        let meta = read_span_verified(&store, 0, rows_base as usize, &table)
            .map_err(|e| corrupt(e.to_string()))?;
        let expected = partition.frontier_members();
        let mut r = VarintReader::new(&meta[HEADER_BYTES..]);
        let mut shards = Vec::with_capacity(shard_count);
        let mut row_id = 0u64;
        let mut byte_base = 0u64;
        for (s, want) in expected.iter().enumerate() {
            let vertex_count = r.u64().map_err(|e| corrupt(e.to_string()))?;
            if vertex_count != partition.shard(s).vertex_count() as u64 {
                return Err(corrupt(format!("shard {s} vertex count mismatch")));
            }
            let fcount = r.u64().map_err(|e| corrupt(e.to_string()))?;
            if fcount != want.len() as u64 {
                return Err(corrupt(format!("shard {s} frontier count mismatch")));
            }
            let mut frontier = Vec::with_capacity(fcount as usize);
            let mut prev: Option<u64> = None;
            for _ in 0..fcount {
                let delta = r.u64().map_err(|e| corrupt(e.to_string()))?;
                let f = match prev {
                    None => delta,
                    Some(p) if delta == 0 => {
                        return Err(corrupt(format!(
                            "shard {s} frontier ids not strictly sorted (p={p})"
                        )));
                    }
                    Some(p) => p + delta,
                };
                if f >= vertex_count {
                    return Err(corrupt(format!("shard {s} frontier id {f} out of range")));
                }
                frontier.push(f as u32);
                prev = Some(f);
            }
            if frontier != *want {
                return Err(corrupt(format!(
                    "shard {s} frontier members diverge from the partition"
                )));
            }
            shards.push(ShardMeta {
                frontier,
                vertex_count: vertex_count as u32,
                row_id_base: row_id,
                byte_base,
            });
            row_id += directions as u64 * fcount;
            byte_base += directions as u64 * fcount * vertex_count * 8;
        }
        if r.remaining() != 0 {
            return Err(corrupt(format!("{} trailing metadata bytes", r.remaining())));
        }
        if row_id != total_rows {
            return Err(corrupt(format!("row count {row_id} disagrees with header {total_rows}")));
        }
        if byte_base != rows_len {
            return Err(corrupt(format!("row bytes {byte_base} disagree with header {rows_len}")));
        }

        let decoded_capacity = (total_rows as usize).clamp(32, 8192);
        let mut tiered = TieredPool::new(store, cache_fraction, decoded_capacity);
        tiered.set_checksums(table);
        // Readahead on: the cold frontier-graph load and the last-mile row
        // reads of one shard are sequential scans of adjacent rows.
        tiered.set_prefetch_policy(PrefetchPolicy { window: 8 });
        Ok(FrontierTier { tiered, shards, directions, rows_base, rows_len })
    }

    /// `1` if forward rows serve both directions (symmetric shards), `2`
    /// if separate reverse rows are stored.
    pub fn directions(&self) -> u32 {
        self.directions
    }

    /// Total stored rows.
    pub fn row_count(&self) -> u64 {
        self.shards.iter().map(|m| self.directions as u64 * m.frontier.len() as u64).sum()
    }

    /// Bytes of the row region (excluding metadata, padding, checksums).
    pub fn rows_bytes(&self) -> u64 {
        self.rows_len
    }

    /// The sorted frontier local ids of shard `s` — rank `r` in this slice
    /// is the row rank used by [`Self::try_row`].
    pub fn frontier(&self, s: usize) -> &[u32] {
        &self.shards[s].frontier
    }

    /// Rank of local vertex `local` in shard `s`'s frontier, if a member.
    pub fn frontier_rank(&self, s: usize, local: u32) -> Option<usize> {
        self.shards[s].frontier.binary_search(&local).ok()
    }

    /// One exact distance row: `row[v]` is the shard-internal distance
    /// from frontier vertex `rank` to local vertex `v` (`Forward`) or from
    /// `v` to the frontier vertex (`Reverse`). `+∞` means no shard-internal
    /// path. Validated on decode (no NaN, no negatives, zero
    /// self-distance); a failed checksum or validation surfaces as a typed
    /// [`QueryError::Corrupt`].
    pub fn try_row(&self, s: usize, rank: usize, dir: Direction) -> Result<Arc<[f64]>, QueryError> {
        let m = &self.shards[s];
        let slot = match (self.directions, dir) {
            (1, _) | (_, Direction::Forward) => 0u64,
            (_, Direction::Reverse) => 1u64,
        };
        let fcount = m.frontier.len() as u64;
        let src = m.frontier[rank] as usize;
        let vcount = m.vertex_count as usize;
        let row_id = m.row_id_base + slot * fcount + rank as u64;
        let from = (self.rows_base
            + m.byte_base
            + (slot * fcount + rank as u64) * vcount as u64 * 8) as usize;
        self.tiered
            .try_get_or_decode(row_id, |pool| {
                let mut raw = Vec::with_capacity(vcount * 8);
                pool.read_range(from as u64, (from + vcount * 8) as u64, &mut raw)?;
                let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
                let mut row = Vec::with_capacity(vcount);
                let mut b = &raw[..];
                for v in 0..vcount {
                    let d = b.get_f64_le();
                    if d.is_nan() || d < 0.0 {
                        return Err(invalid(format!("row {row_id}: distance at {v} out of range")));
                    }
                    row.push(d);
                }
                if row[src] != 0.0 {
                    return Err(invalid(format!("row {row_id}: nonzero self-distance")));
                }
                Ok(row.into())
            })
            .map_err(QueryError::from)
    }

    /// I/O counters of the row pool.
    pub fn io_stats(&self) -> silc_storage::IoStats {
        self.tiered.io_stats()
    }

    /// Zeroes the I/O counters.
    pub fn reset_io_stats(&self) {
        self.tiered.reset_stats();
    }

    /// Drops cached pages and decoded rows (cold start).
    pub fn clear_cache(&self) {
        self.tiered.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silc_network::generate::{road_network, RoadConfig};
    use silc_network::partition::{partition_network, PartitionConfig};
    use silc_storage::MemPageStore;

    fn fixture(n: usize, shards: usize, seed: u64) -> (SpatialNetwork, NetworkPartition) {
        let g = road_network(&RoadConfig { vertices: n, seed, ..Default::default() });
        let p = partition_network(&g, &PartitionConfig { shards, ..Default::default() }).unwrap();
        (g, p)
    }

    fn open_mem(bytes: &[u8], p: &NetworkPartition) -> FrontierTier {
        FrontierTier::from_store(Box::new(MemPageStore::new(bytes)), p, 1.0).unwrap()
    }

    #[test]
    fn rows_match_in_shard_dijkstra_both_directions() {
        let (_, p) = fixture(260, 4, 17);
        let bytes = build_tier(&p, 2);
        let tier = open_mem(&bytes, &p);
        assert_eq!(tier.directions(), 1, "road networks are symmetric");
        for (s, shard) in p.shards().iter().enumerate() {
            let members = tier.frontier(s).to_vec();
            for (rank, &f) in members.iter().enumerate() {
                let fwd = tier.try_row(s, rank, Direction::Forward).unwrap();
                let rev = tier.try_row(s, rank, Direction::Reverse).unwrap();
                assert_eq!(fwd.len(), shard.vertex_count());
                for v in (0..shard.vertex_count() as u32).step_by(7) {
                    let d = dijkstra::distance(shard.network(), VertexId(f), VertexId(v))
                        .unwrap_or(f64::INFINITY);
                    assert_eq!(fwd[v as usize].to_bits(), d.to_bits(), "shard {s} row {rank}");
                    // Symmetric: the reverse row is the same row.
                    assert_eq!(rev[v as usize].to_bits(), d.to_bits());
                }
            }
        }
    }

    #[test]
    fn directed_networks_store_true_reverse_rows() {
        // A ring with asymmetric weights: strongly connected, not symmetric.
        let mut b = NetworkBuilder::new();
        let n = 24u32;
        for i in 0..n {
            let a = f64::from(i) / f64::from(n) * std::f64::consts::TAU;
            b.add_vertex(silc_geom::Point::new(a.cos() * 50.0, a.sin() * 50.0));
        }
        for i in 0..n {
            let j = (i + 1) % n;
            b.add_edge(VertexId(i), VertexId(j), 1.0);
            b.add_edge(VertexId(j), VertexId(i), 3.0); // backward is dearer
        }
        let g = b.build();
        let p = partition_network(
            &g,
            &PartitionConfig { shards: 2, min_shard_fraction: 0.0, ..Default::default() },
        )
        .unwrap();
        let bytes = build_tier(&p, 1);
        let tier = open_mem(&bytes, &p);
        assert_eq!(tier.directions(), 2, "asymmetric shards need reverse rows");
        for (s, shard) in p.shards().iter().enumerate() {
            for rank in 0..tier.frontier(s).len() {
                let f = tier.frontier(s)[rank];
                let fwd = tier.try_row(s, rank, Direction::Forward).unwrap();
                let rev = tier.try_row(s, rank, Direction::Reverse).unwrap();
                for v in 0..shard.vertex_count() as u32 {
                    let d_from = dijkstra::distance(shard.network(), VertexId(f), VertexId(v))
                        .unwrap_or(f64::INFINITY);
                    let d_to = dijkstra::distance(shard.network(), VertexId(v), VertexId(f))
                        .unwrap_or(f64::INFINITY);
                    assert_eq!(fwd[v as usize].to_bits(), d_from.to_bits(), "shard {s}");
                    assert_eq!(rev[v as usize].to_bits(), d_to.to_bits(), "shard {s}");
                }
            }
        }
    }

    #[test]
    fn build_is_deterministic_across_thread_counts() {
        let (_, p) = fixture(200, 3, 5);
        let a = build_tier(&p, 1);
        let b = build_tier(&p, 4);
        assert_eq!(a, b, "row slots make the encode thread-count independent");
    }

    #[test]
    fn corrupt_row_page_is_a_typed_error_naming_the_page() {
        let (_, p) = fixture(900, 4, 17);
        let mut bytes = build_tier(&p, 1);
        // Flip one byte in a row page past the metadata (metadata pages
        // are verified at open; rows are verified on read).
        let header = &bytes[..HEADER_BYTES];
        let rows_base = u64::from_le_bytes(header[HEADER_BYTES - 8..].try_into().unwrap());
        let rows_len =
            u64::from_le_bytes(header[HEADER_BYTES - 16..HEADER_BYTES - 8].try_into().unwrap());
        let target = ((rows_base as usize / PAGE_SIZE) + 1) * PAGE_SIZE + 12;
        assert!(target < (rows_base + rows_len) as usize, "fixture rows must span pages");
        bytes[target] ^= 0x40;
        let tier = open_mem(&bytes, &p);
        let mut corrupt_seen = false;
        for s in 0..p.shard_count() {
            for rank in 0..tier.frontier(s).len() {
                if let Err(QueryError::Corrupt { page, .. }) =
                    tier.try_row(s, rank, Direction::Forward)
                {
                    assert_eq!(page, Some((target / PAGE_SIZE) as u64));
                    corrupt_seen = true;
                }
            }
        }
        assert!(corrupt_seen, "some row must cross the poisoned page");
    }

    #[test]
    fn mismatched_partition_is_rejected_at_open() {
        let (g, p) = fixture(260, 4, 17);
        let bytes = build_tier(&p, 1);
        let other =
            partition_network(&g, &PartitionConfig { shards: 5, ..Default::default() }).unwrap();
        match FrontierTier::from_store(Box::new(MemPageStore::new(&bytes)), &other, 1.0) {
            Err(BuildError::Corrupt(msg)) => assert!(msg.contains("shards"), "{msg}"),
            other => panic!("expected Corrupt, got {:?}", other.err().map(|e| e.to_string())),
        }
    }

    #[test]
    fn hostile_header_words_are_typed_errors_not_panics() {
        let (_, p) = fixture(200, 3, 5);
        let image = build_tier(&p, 1);
        let cksum_base = u64::from_le_bytes(image[28..36].try_into().unwrap()) as usize;
        let open =
            |bytes: &[u8]| FrontierTier::from_store(Box::new(MemPageStore::new(bytes)), &p, 1.0);
        for at in 0..=HEADER_BYTES - 8 {
            for word in [0, u64::MAX, !(PAGE_SIZE as u64 - 1)] {
                let mut data = image.clone();
                data[at..at + 8].copy_from_slice(&word.to_le_bytes());
                // Ok or a typed error both pass; a panic fails the test.
                let _ = open(&data);
                data.truncate(cksum_base);
                seal(&mut data);
                let _ = open(&data);
            }
        }
    }

    #[test]
    fn tampered_metadata_fails_the_checksum_at_open() {
        let (_, p) = fixture(200, 3, 5);
        let mut bytes = build_tier(&p, 1);
        bytes[HEADER_BYTES + 3] ^= 0x01;
        match FrontierTier::from_store(Box::new(MemPageStore::new(&bytes)), &p, 1.0) {
            Err(BuildError::Corrupt(msg)) => {
                assert!(msg.contains("page"), "checksum must name the page: {msg}")
            }
            other => panic!("expected Corrupt, got {:?}", other.err().map(|e| e.to_string())),
        }
    }
}
