//! The disk-resident ε-approximate distance oracle.
//!
//! Storage parity with `silc::disk::DiskSilcIndex`: the split tree and the
//! per-node pair directory stay pinned in memory (they are the structure a
//! disk index keeps resident), while the `O(s²n)` pair payload is served
//! from fixed-size pages through a `silc_storage::BufferPool`, with decoded
//! pair groups cached in a `ShardedCache` (one group per split-tree node).
//! A query descends the tree exactly like the memory oracle — the walk is
//! literally the same function — and resolves each probed `(a, b)`
//! orientation by a binary search in `a`'s cached group, so answers are
//! **bit-identical** to [`DistanceOracle`] for the same build parameters.

use crate::error::PcpError;
use crate::format::{self, PairRecord};
use crate::oracle::{locate_pair, DistanceOracle, PairData};
use crate::split_tree::SplitTree;
use silc_network::VertexId;
use silc_storage::{BufferPool, FilePageStore, MemPageStore, PageStore, TieredPool};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// A PCP distance oracle served from a page file through an LRU buffer
/// pool, with a cache of decoded pair groups.
///
/// Cheaply shareable: wrap it in an [`Arc`] and query it from any number of
/// threads. All interior state (the page pool, the decoded-pair cache) is
/// sharded and internally synchronized.
pub struct DiskDistanceOracle<S: PageStore = FilePageStore> {
    tree: SplitTree,
    /// Per-node `(byte start, pair count)` into the pair region.
    directory: Vec<(u64, u32)>,
    pair_count: u64,
    pairs_base: u64,
    /// Byte length of the pair region.
    pairs_len: u64,
    separation: f64,
    stretch: f64,
    /// The guaranteed ε from the header: the max per-pair cap.
    eps_max: f64,
    /// The two-tier read path: page pool plus decoded pair groups keyed by
    /// their `a`-side split-tree node, so the repeated probes of one locate
    /// walk do not re-deserialize a group per lookup.
    cached: TieredPool<S, Arc<[PairRecord]>>,
}

/// Both oracle forms must stay shareable across query threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DistanceOracle>();
    assert_send_sync::<DiskDistanceOracle<FilePageStore>>();
    assert_send_sync::<DiskDistanceOracle<MemPageStore>>();
};

impl DiskDistanceOracle<FilePageStore> {
    /// Opens an oracle file written by [`crate::write_oracle`].
    ///
    /// `cache_fraction` sizes the buffer pool relative to the file's page
    /// count (the paper's disk experiments use 0.05); the decoded-pair
    /// cache gets a default size scaled to the tree
    /// (see [`Self::open_with_pair_cache`] to pick one explicitly).
    pub fn open<P: AsRef<Path>>(path: P, cache_fraction: f64) -> Result<Self, PcpError> {
        Self::from_store(FilePageStore::open(path)?, cache_fraction, None)
    }

    /// Opens an oracle file with an explicit decoded-pair-group cache
    /// capacity (in groups; minimum 1).
    pub fn open_with_pair_cache<P: AsRef<Path>>(
        path: P,
        cache_fraction: f64,
        pair_cache_capacity: usize,
    ) -> Result<Self, PcpError> {
        Self::from_store(FilePageStore::open(path)?, cache_fraction, Some(pair_cache_capacity))
    }
}

impl<S: PageStore> DiskDistanceOracle<S> {
    /// Opens an oracle from any [`PageStore`] holding the serialized bytes —
    /// the seam the counting-store tests (and memory-backed deployments)
    /// use. `pair_cache_capacity = None` picks the default sizing.
    pub fn from_store(
        store: S,
        cache_fraction: f64,
        pair_cache_capacity: Option<usize>,
    ) -> Result<Self, PcpError> {
        let parsed = format::parse(&store)?;
        let cache = pair_cache_capacity
            .unwrap_or_else(|| silc_storage::default_decoded_capacity(parsed.directory.len()));
        let mut cached = TieredPool::new(store, cache_fraction, cache);
        cached.set_checksums(parsed.table);
        Ok(DiskDistanceOracle {
            tree: parsed.tree,
            directory: parsed.directory,
            pair_count: parsed.pair_count,
            pairs_base: parsed.pairs_base,
            pairs_len: parsed.pairs_len,
            separation: parsed.separation,
            stretch: parsed.stretch,
            eps_max: parsed.eps_max,
            cached,
        })
    }

    /// Byte length of the on-disk pair region (the benches record it as
    /// bytes-on-disk).
    pub fn pair_region_bytes(&self) -> u64 {
        self.pairs_len
    }

    /// Number of stored pairs (the oracle's size; `O(s²n)`).
    pub fn pair_count(&self) -> usize {
        self.pair_count as usize
    }

    /// Number of vertices the oracle answers for.
    pub fn vertex_count(&self) -> usize {
        self.tree.vertex_count()
    }

    /// The separation factor the oracle was built with.
    pub fn separation(&self) -> f64 {
        self.separation
    }

    /// Empirical network stretch `t` observed over representative pairs.
    pub fn stretch(&self) -> f64 {
        self.stretch
    }

    /// The guaranteed relative error bound: the file's max per-pair cap —
    /// bit-identical to the memory oracle this file was written from.
    pub fn epsilon(&self) -> f64 {
        self.eps_max
    }

    /// The classic a-priori first-order bound `≈ 4t/s`.
    pub fn epsilon_apriori(&self) -> f64 {
        4.0 * self.stretch / self.separation
    }

    /// I/O counters of the buffer pool.
    pub fn io_stats(&self) -> silc_storage::IoStats {
        self.cached.io_stats()
    }

    /// Hit/miss counters of the decoded-pair-group cache.
    pub fn pair_cache_stats(&self) -> silc_storage::CacheStats {
        self.cached.cache_stats()
    }

    /// Zeroes the I/O counters (pool and decoded-pair cache).
    pub fn reset_io_stats(&self) {
        self.cached.reset_stats();
    }

    /// Drops all cached pages *and* decoded pair groups (cold start).
    pub fn clear_cache(&self) {
        self.cached.clear();
    }

    /// Number of pages in the oracle file.
    pub fn page_count(&self) -> u64 {
        self.cached.store().page_count()
    }

    /// Fetches node `a`'s pair group: the decoded cache first, then the
    /// buffer pool, then the store. A store fault (after the pool's
    /// retries), a checksum mismatch, or structural corruption of the group
    /// (records not strictly sorted — which would silently break the binary
    /// search — or an invalid error cap) surfaces as a typed error; nothing
    /// is cached, so a later call re-attempts the read.
    fn try_load_group(&self, a: u32) -> Result<Arc<[PairRecord]>, PcpError> {
        Ok(self.cached.try_get_or_decode(a as u64, |pool| self.decode_group(pool, a))?)
    }

    /// Decodes node `a`'s pair group from its pages through the pool. The
    /// group's span ends where the next group starts (or the pair region
    /// ends). Structural violations come back as `InvalidData` naming the
    /// group, which [`PcpError::from`] lifts to [`PcpError::Corrupt`].
    fn decode_group(&self, pool: &BufferPool<S>, a: u32) -> io::Result<Arc<[PairRecord]>> {
        let (start, count) = self.directory[a as usize];
        let end = self.directory.get(a as usize + 1).map_or(self.pairs_len, |d| d.0);
        let mut raw = Vec::with_capacity((end - start) as usize);
        pool.read_range(self.pairs_base + start, self.pairs_base + end, &mut raw)?;
        let records = self.decode_records(a, &raw, count).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("pair group {a}: {e}"))
        })?;
        Ok(records.into())
    }

    /// Decodes one compressed group span: per record a varint `b` delta
    /// (first absolute, later gaps — a zero gap would break the strict
    /// ordering the binary search relies on and is rejected), the `f64`
    /// distance and cap bits verbatim, and the representatives derived from
    /// the split tree. A NaN or negative cap would silently poison interval
    /// math downstream, so it is rejected too. Every failure is a typed
    /// error, never a panic; the span must be consumed exactly.
    fn decode_records(&self, a: u32, raw: &[u8], count: u32) -> io::Result<Vec<PairRecord>> {
        use crate::split_tree::NodeRef;
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let node_count = self.directory.len() as u64;
        let mut r = silc_storage::varint::VarintReader::new(raw);
        let mut records = Vec::with_capacity(count as usize);
        let rep_a = self.tree.representative(NodeRef(a)).0;
        let mut prev_b: Option<u64> = None;
        for _ in 0..count {
            let delta = r.u64()?;
            let b = match prev_b {
                None => delta,
                Some(p) => {
                    if delta == 0 {
                        return Err(bad("records are not strictly sorted (zero b delta)".into()));
                    }
                    p.checked_add(delta).ok_or_else(|| bad("b delta overflows".into()))?
                }
            };
            if b >= node_count {
                return Err(bad(format!("b-side node id {b} out of range")));
            }
            let dist = r.f64_le()?;
            let max_err = r.f64_le()?;
            if max_err.is_nan() || max_err < 0.0 {
                return Err(bad(format!("node {b} holds an invalid error cap")));
            }
            prev_b = Some(b);
            records.push(PairRecord {
                b: b as u32,
                rep_a,
                rep_b: self.tree.representative(NodeRef(b as u32)).0,
                dist,
                max_err,
            });
        }
        if r.remaining() != 0 {
            return Err(bad(format!("{} unconsumed bytes after the last record", r.remaining())));
        }
        Ok(records)
    }

    /// Resolves one stored orientation `(a, b)` — the lookup `locate_pair`
    /// drives: `a`'s group, binary-searched by `b`.
    fn try_lookup(&self, a: u32, b: u32) -> Result<Option<PairData>, PcpError> {
        if self.directory[a as usize].1 == 0 {
            return Ok(None);
        }
        let group = self.try_load_group(a)?;
        Ok(group.binary_search_by_key(&b, |r| r.b).ok().map(|i| {
            let r = group[i];
            PairData {
                rep_a: VertexId(r.rep_a),
                rep_b: VertexId(r.rep_b),
                dist: r.dist,
                max_err: r.max_err,
            }
        }))
    }

    fn try_locate(&self, u: VertexId, v: VertexId) -> Result<(PairData, bool), PcpError> {
        // The locate walk is infallible given a lookup closure; thread the
        // first error out through a capture so the walk stays the exact
        // same function the memory oracle uses (bit-identity). On error a
        // dummy hit terminates the walk at once and is discarded below.
        let mut failed: Option<PcpError> = None;
        let result = locate_pair(&self.tree, u, v, |a, b| match self.try_lookup(a, b) {
            Ok(hit) => hit,
            Err(e) => {
                failed = Some(e);
                Some(PairData { rep_a: VertexId(0), rep_b: VertexId(0), dist: 0.0, max_err: 0.0 })
            }
        });
        match failed {
            Some(e) => Err(e),
            None => Ok(result),
        }
    }

    /// Approximate network distance `u → v` (exact 0 when `u == v`) —
    /// bit-identical to the memory oracle this file was written from.
    ///
    /// # Panics
    /// Panics where [`Self::try_distance`] would error (I/O failure after
    /// retries, checksum mismatch, structural corruption of a pair group).
    pub fn distance(&self, u: VertexId, v: VertexId) -> f64 {
        self.try_distance(u, v).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::distance`].
    pub fn try_distance(&self, u: VertexId, v: VertexId) -> Result<f64, PcpError> {
        if u == v {
            return Ok(0.0);
        }
        Ok(self.try_locate(u, v)?.0.dist)
    }

    /// Approximate distance together with the covering pair's own error cap.
    /// `(0, 0)` when `u == v`.
    ///
    /// # Panics
    /// Panics where [`Self::try_distance_with_epsilon`] would error.
    pub fn distance_with_epsilon(&self, u: VertexId, v: VertexId) -> (f64, f64) {
        self.try_distance_with_epsilon(u, v).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::distance_with_epsilon`].
    pub fn try_distance_with_epsilon(
        &self,
        u: VertexId,
        v: VertexId,
    ) -> Result<(f64, f64), PcpError> {
        if u == v {
            return Ok((0.0, 0.0));
        }
        let (p, _) = self.try_locate(u, v)?;
        Ok((p.dist, p.max_err))
    }

    /// The error cap of the pair covering `(u, v)` (0 when `u == v`).
    ///
    /// # Panics
    /// Panics where [`Self::try_epsilon_for`] would error.
    pub fn epsilon_for(&self, u: VertexId, v: VertexId) -> f64 {
        self.try_epsilon_for(u, v).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::epsilon_for`].
    pub fn try_epsilon_for(&self, u: VertexId, v: VertexId) -> Result<f64, PcpError> {
        if u == v {
            return Ok(0.0);
        }
        Ok(self.try_locate(u, v)?.0.max_err)
    }

    /// The representative vertices of the pair covering `(u, v)`, oriented
    /// so the first is on `u`'s side.
    ///
    /// # Panics
    /// Panics where [`Self::try_representatives`] would error.
    pub fn representatives(&self, u: VertexId, v: VertexId) -> Option<(VertexId, VertexId)> {
        self.try_representatives(u, v).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::representatives`].
    pub fn try_representatives(
        &self,
        u: VertexId,
        v: VertexId,
    ) -> Result<Option<(VertexId, VertexId)>, PcpError> {
        if u == v {
            return Ok(None);
        }
        let (p, flipped) = self.try_locate(u, v)?;
        Ok(Some(if flipped { (p.rep_b, p.rep_a) } else { (p.rep_a, p.rep_b) }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{encode_oracle as encode, write_oracle, HEADER_BYTES, VERSION};
    use silc_network::generate::{road_network, RoadConfig};
    use silc_network::SpatialNetwork;
    use silc_storage::checksum::seal;
    use std::io;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn network() -> SpatialNetwork {
        road_network(&RoadConfig { vertices: 140, seed: 77, ..Default::default() })
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("silc-pcp-disk-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// A store that counts physical reads — proves the oracle reads only
    /// through the buffer pool.
    struct CountingStore {
        inner: MemPageStore,
        reads: AtomicU64,
    }

    impl PageStore for CountingStore {
        fn read_page(&self, page: silc_storage::PageId) -> io::Result<Arc<[u8]>> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.read_page(page)
        }

        fn page_count(&self) -> u64 {
            self.inner.page_count()
        }
    }

    #[test]
    fn disk_distances_are_bit_identical_to_memory() {
        let g = network();
        let mem = DistanceOracle::build(&g, 10, 4.0);
        let path = tmp("bitident.pcp");
        write_oracle(&mem, &path).unwrap();
        let disk = DiskDistanceOracle::open(&path, 0.25).unwrap();
        assert_eq!(disk.pair_count(), mem.pair_count());
        assert_eq!(disk.vertex_count(), g.vertex_count());
        assert_eq!(disk.separation(), mem.separation());
        assert_eq!(disk.stretch().to_bits(), mem.stretch().to_bits());
        assert_eq!(disk.epsilon().to_bits(), mem.epsilon().to_bits());
        let n = g.vertex_count() as u32;
        for u in 0..n {
            for v in 0..n {
                let (u, v) = (VertexId(u), VertexId(v));
                assert_eq!(
                    mem.distance(u, v).to_bits(),
                    disk.distance(u, v).to_bits(),
                    "distance bits differ for {u}->{v}"
                );
                assert_eq!(
                    mem.representatives(u, v),
                    disk.representatives(u, v),
                    "representatives differ for {u}->{v}"
                );
            }
        }
        assert!(disk.io_stats().requests() > 0, "disk queries must touch pages");
    }

    #[test]
    fn encoding_is_deterministic() {
        let g = network();
        let a = encode(&DistanceOracle::build(&g, 10, 3.0));
        let b = encode(&DistanceOracle::build(&g, 10, 3.0));
        assert_eq!(a, b, "equal oracles must serialize byte-exactly");
    }

    #[test]
    fn warm_sweep_issues_zero_store_reads() {
        let g = network();
        let mem = DistanceOracle::build(&g, 10, 3.0);
        let store =
            CountingStore { inner: MemPageStore::new(&encode(&mem)), reads: AtomicU64::new(0) };
        // Pool big enough for every page: after the cold sweep, nothing may
        // reach the store again.
        let disk = DiskDistanceOracle::from_store(store, 1.0, None).unwrap();
        // Opening reads the pinned metadata straight from the store; only
        // reads after this point belong to the query path.
        let open_reads = disk.cached.store().reads.load(Ordering::Relaxed);
        let n = g.vertex_count() as u32;
        let sweep = |o: &DiskDistanceOracle<CountingStore>| {
            for u in (0..n).step_by(3) {
                for v in (0..n).step_by(5) {
                    let _ = o.distance(VertexId(u), VertexId(v));
                }
            }
        };
        sweep(&disk);
        let cold_reads = disk.cached.store().reads.load(Ordering::Relaxed) - open_reads;
        assert!(cold_reads > 0, "the cold sweep must read the store");
        assert_eq!(disk.io_stats().misses, cold_reads, "every miss is exactly one store read");
        disk.reset_io_stats();
        sweep(&disk);
        assert_eq!(
            disk.cached.store().reads.load(Ordering::Relaxed) - open_reads,
            cold_reads,
            "a warm sweep must issue zero store reads"
        );
        let warm = disk.io_stats();
        assert_eq!(warm.misses, 0, "warm pool must not miss: {warm:?}");
        let cache = disk.pair_cache_stats();
        assert!(cache.hits > 0, "warm sweep must hit the decoded-pair cache");
        // clear_cache drops both tiers: the next query reads the store again.
        disk.clear_cache();
        let _ = disk.distance(VertexId(0), VertexId(1));
        assert!(disk.cached.store().reads.load(Ordering::Relaxed) - open_reads > cold_reads);
    }

    #[test]
    fn tiny_pair_cache_still_answers_through_the_pool() {
        let g = network();
        let mem = DistanceOracle::build(&g, 10, 2.0);
        let path = tmp("tinycache.pcp");
        write_oracle(&mem, &path).unwrap();
        let disk = DiskDistanceOracle::open_with_pair_cache(&path, 1.0, 1).unwrap();
        for &(u, v) in &[(0u32, 100u32), (55, 7), (139, 2)] {
            assert_eq!(
                mem.distance(VertexId(u), VertexId(v)).to_bits(),
                disk.distance(VertexId(u), VertexId(v)).to_bits()
            );
        }
        assert!(disk.pair_cache_stats().requests() > 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let g = network();
        let mut bytes = encode(&DistanceOracle::build(&g, 10, 2.0));
        bytes[0] ^= 0xFF;
        match DiskDistanceOracle::from_store(MemPageStore::new(&bytes), 0.5, None) {
            Err(PcpError::Corrupt(msg)) => assert!(msg.contains("magic"), "{msg}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn future_version_rejected() {
        let g = network();
        let mut bytes = encode(&DistanceOracle::build(&g, 10, 2.0));
        bytes[8] = 0xFE; // version little-endian low byte
        match DiskDistanceOracle::from_store(MemPageStore::new(&bytes), 0.5, None) {
            Err(PcpError::Corrupt(msg)) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn truncated_file_rejected() {
        let g = network();
        let bytes = encode(&DistanceOracle::build(&g, 10, 3.0));
        // Cut the pair region short (keep whole pages so the store opens).
        for keep_pages in [1usize, bytes.len() / (2 * silc_storage::PAGE_SIZE)] {
            let cut = (keep_pages * silc_storage::PAGE_SIZE).min(bytes.len() - 1);
            let store = MemPageStore::new(&bytes[..cut]);
            assert!(
                DiskDistanceOracle::from_store(store, 0.5, None).is_err(),
                "truncation to {cut} bytes must be rejected"
            );
        }
        // A header shorter than HEADER_BYTES is rejected too.
        let store = MemPageStore::new(&bytes[..HEADER_BYTES - 4]);
        assert!(DiskDistanceOracle::from_store(store, 0.5, None).is_err());
    }

    #[test]
    fn corrupt_directory_rejected() {
        // The directory's byte starts must begin at 0 and never decrease;
        // the image is re-sealed so the edit reaches the validator.
        let g = network();
        let mem = DistanceOracle::build(&g, 10, 2.0);
        let bytes = encode(&mem);
        let node_count = mem.tree().raw_nodes().len();
        let (pairs_base, _, dir) = v4_layout(&bytes, node_count);
        let dir_base = pairs_base - node_count * 12;
        let open_with_start = |node: usize, start: u64| {
            let mut broken = bytes.clone();
            broken[dir_base + node * 12..][..8].copy_from_slice(&start.to_le_bytes());
            retable(&mut broken);
            match DiskDistanceOracle::from_store(MemPageStore::new(&broken), 0.5, None) {
                Err(PcpError::Corrupt(msg)) => msg,
                other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
            }
        };
        assert!(open_with_start(0, 1).contains("does not start at byte offset 0"));
        let last = node_count - 1;
        assert!(dir[last - 1].0 > 0, "layout assumption: earlier groups hold pairs");
        assert!(open_with_start(last, 0).contains("not sorted"));
    }

    #[test]
    fn unsorted_pair_group_fails_loudly() {
        // Pair-region corruption is invisible to open-time metadata checks;
        // a group whose records are not strictly sorted by `b` (a zero
        // delta) must abort the query with a clear message, not silently
        // miss pairs in the binary search.
        let g = network();
        let mem = DistanceOracle::build(&g, 10, 2.0);
        let bytes = encode(&mem);
        let (pairs_base, _, dir) = v4_layout(&bytes, mem.tree().raw_nodes().len());
        // A ≥2-record group whose second delta is a single-byte varint.
        let zero_at = dir
            .iter()
            .filter(|&&(_, c)| c >= 2)
            .find_map(|&(s, _)| {
                let (_, used) = silc_storage::varint::decode_u64(&bytes[pairs_base + s..]).unwrap();
                let at = pairs_base + s + used + 16;
                (bytes[at] < 0x80).then_some(at)
            })
            .expect("a multi-record group with a one-byte delta");
        let mut broken = bytes.clone();
        broken[zero_at] = 0x00;
        retable(&mut broken);
        let disk = DiskDistanceOracle::from_store(MemPageStore::new(&broken), 1.0, None).unwrap();
        let msg = sweep_panic(&disk, g.vertex_count() as u32);
        assert!(msg.contains("not strictly sorted"), "unexpected panic message: {msg}");
    }

    #[test]
    fn retired_versions_are_refused_with_a_rebuild_hint() {
        let g = network();
        let bytes = encode(&DistanceOracle::build(&g, 10, 2.0));
        for version in 1..VERSION {
            let mut forged = bytes.clone();
            forged[8..12].copy_from_slice(&version.to_le_bytes());
            match DiskDistanceOracle::from_store(MemPageStore::new(&forged), 0.5, None) {
                Err(PcpError::Corrupt(msg)) => assert!(
                    msg.contains(&format!("version {version}")) && msg.contains("rebuild"),
                    "{msg}"
                ),
                other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn corrupt_cap_section_fails_loudly() {
        // Cap bytes live in the pair region, invisible to open-time
        // validation; a NaN or negative cap must abort the query loudly
        // instead of silently poisoning downstream interval math.
        let g = network();
        let mem = DistanceOracle::build(&g, 10, 2.0);
        let bytes = encode(&mem);
        let (pairs_base, _, dir) = v4_layout(&bytes, mem.tree().raw_nodes().len());
        // The cap of the very first stored record.
        let first = pairs_base + dir.iter().find(|&&(_, c)| c >= 1).unwrap().0;
        let (_, used) = silc_storage::varint::decode_u64(&bytes[first..]).unwrap();
        let cap_at = first + used + 8;
        for bad in [f64::NAN, -0.25] {
            let mut broken = bytes.clone();
            broken[cap_at..cap_at + 8].copy_from_slice(&bad.to_le_bytes());
            retable(&mut broken);
            let disk =
                DiskDistanceOracle::from_store(MemPageStore::new(&broken), 1.0, None).unwrap();
            let msg = sweep_panic(&disk, g.vertex_count() as u32);
            assert!(msg.contains("invalid error cap"), "unexpected panic message: {msg}");
        }
    }

    #[test]
    fn hostile_header_words_are_typed_errors_not_panics() {
        let g = network();
        let bytes = encode(&DistanceOracle::build(&g, 10, 2.0));
        let cksum_base = read_u64(&bytes, HEADER_BYTES - 24);
        for at in 0..=HEADER_BYTES - 8 {
            for word in [0, u64::MAX, !(silc_storage::PAGE_SIZE as u64 - 1)] {
                let mut data = bytes.clone();
                data[at..at + 8].copy_from_slice(&word.to_le_bytes());
                // Ok or a typed error both pass; a panic fails the test.
                let _ = DiskDistanceOracle::from_store(MemPageStore::new(&data), 0.5, None);
                data.truncate(cksum_base);
                seal(&mut data);
                let _ = DiskDistanceOracle::from_store(MemPageStore::new(&data), 0.5, None);
            }
        }
    }

    #[test]
    fn version_zero_rejected() {
        let g = network();
        let mut bytes = encode(&DistanceOracle::build(&g, 10, 2.0));
        bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
        match DiskDistanceOracle::from_store(MemPageStore::new(&bytes), 0.5, None) {
            Err(PcpError::Corrupt(msg)) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn per_pair_epsilon_round_trips_bit_exactly() {
        let g = network();
        let mem = DistanceOracle::build(&g, 10, 4.0);
        let disk =
            DiskDistanceOracle::from_store(MemPageStore::new(&encode(&mem)), 0.5, None).unwrap();
        assert_eq!(disk.epsilon().to_bits(), mem.epsilon().to_bits());
        assert_eq!(disk.epsilon_apriori().to_bits(), mem.epsilon_apriori().to_bits());
        let n = g.vertex_count() as u32;
        for u in (0..n).step_by(5) {
            for v in (0..n).step_by(11) {
                let (u, v) = (VertexId(u), VertexId(v));
                let (md, me) = mem.distance_with_epsilon(u, v);
                let (dd, de) = disk.distance_with_epsilon(u, v);
                assert_eq!(md.to_bits(), dd.to_bits(), "distance bits differ for {u}->{v}");
                assert_eq!(me.to_bits(), de.to_bits(), "cap bits differ for {u}->{v}");
                assert_eq!(disk.epsilon_for(u, v).to_bits(), mem.epsilon_for(u, v).to_bits());
            }
        }
    }

    #[test]
    fn checksums_catch_pair_region_bit_flips() {
        // A bit flip anywhere in the pair region of a current-version file
        // must surface as a typed Corrupt error naming the page — never a
        // silently wrong distance.
        let g = network();
        let mem = DistanceOracle::build(&g, 10, 3.0);
        let bytes = encode(&mem);
        let pairs_base = read_u64(&bytes, HEADER_BYTES - 8);
        let victim_page = pairs_base / silc_storage::PAGE_SIZE + 1;
        let flip_at = victim_page * silc_storage::PAGE_SIZE + 17;
        let mut broken = bytes.clone();
        broken[flip_at] ^= 0x04;
        let disk = DiskDistanceOracle::from_store(MemPageStore::new(&broken), 1.0, None).unwrap();
        let n = g.vertex_count() as u32;
        let mut hit = false;
        'sweep: for u in 0..n {
            for v in 0..n {
                match disk.try_distance(VertexId(u), VertexId(v)) {
                    Ok(d) => {
                        assert_eq!(
                            d.to_bits(),
                            mem.distance(VertexId(u), VertexId(v)).to_bits(),
                            "an Ok answer must still be bit-identical"
                        );
                    }
                    Err(PcpError::Corrupt(msg)) => {
                        assert!(msg.contains("checksum mismatch"), "{msg}");
                        assert!(msg.contains(&format!("page {victim_page}")), "{msg}");
                        hit = true;
                        break 'sweep;
                    }
                    Err(e) => panic!("expected Corrupt, got {e}"),
                }
            }
        }
        assert!(hit, "no probe touched the corrupted page");
        let stats = disk.io_stats();
        assert!(stats.faults_seen >= 1);
        assert_eq!(stats.retries, 0, "checksum mismatches must not be retried");
    }

    #[test]
    fn metadata_corruption_is_caught_at_open() {
        // The whole pinned metadata span is verified at open time.
        let g = network();
        let mem = DistanceOracle::build(&g, 10, 2.0);
        let bytes = encode(&mem);
        let mut broken = bytes.clone();
        broken[HEADER_BYTES + 40] ^= 0x01; // somewhere in the sorted array
        match DiskDistanceOracle::from_store(MemPageStore::new(&broken), 0.5, None) {
            Err(PcpError::Corrupt(msg)) => assert!(msg.contains("checksum mismatch"), "{msg}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn round_trip_through_a_real_file_is_byte_exact() {
        let g = network();
        let mem = DistanceOracle::build(&g, 10, 3.0);
        let path = tmp("roundtrip.pcp");
        write_oracle(&mem, &path).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        let encoded = encode(&mem);
        assert_eq!(&on_disk[..encoded.len()], &encoded[..], "file must hold the exact encoding");
        assert!(on_disk[encoded.len()..].iter().all(|&b| b == 0), "padding must be zeros");
        assert_eq!(on_disk.len() % silc_storage::PAGE_SIZE, 0, "file must be page-aligned");
    }

    #[test]
    fn v4_pair_region_shrinks_by_at_least_thirty_percent() {
        let g = network();
        let mem = DistanceOracle::build(&g, 10, 4.0);
        let v4 = encode(&mem);
        let disk = DiskDistanceOracle::from_store(MemPageStore::new(&v4), 0.5, None).unwrap();
        // Against the fixed 28-byte records of the retired versions 2 and 3.
        let fixed = (mem.pair_count() * 28) as f64;
        let compressed = disk.pair_region_bytes() as f64;
        assert!(
            compressed <= 0.7 * fixed,
            "pair region must shrink ≥30%: {compressed} vs fixed {fixed}"
        );
    }

    fn read_u64(bytes: &[u8], at: usize) -> usize {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
    }

    /// Re-seals a tampered image (header untouched) over its payload, so
    /// the edit reaches the structural validators instead of being caught
    /// by a page checksum first.
    fn retable(bytes: &mut Vec<u8>) {
        bytes.truncate(read_u64(bytes, HEADER_BYTES - 24));
        seal(bytes);
    }

    /// Sweeps every pair through the panicking API and returns the message
    /// of the panic a corrupt group must raise.
    fn sweep_panic(disk: &DiskDistanceOracle<MemPageStore>, n: u32) -> String {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for u in 0..n {
                for v in 0..n {
                    let _ = disk.distance(VertexId(u), VertexId(v));
                }
            }
        }));
        let err = result.expect_err("the corrupted group must abort a query");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    /// The pair-region layout of an encoded image:
    /// `(pairs_base, pairs_len, per-node (byte start, count))`.
    fn v4_layout(bytes: &[u8], node_count: usize) -> (usize, usize, Vec<(usize, u32)>) {
        let pairs_base = read_u64(bytes, HEADER_BYTES - 8);
        let pairs_len = read_u64(bytes, HEADER_BYTES - 16);
        let dir_base = pairs_base - node_count * 12;
        let dir = (0..node_count)
            .map(|i| {
                let d = &bytes[dir_base + i * 12..];
                (read_u64(d, 0), u32::from_le_bytes(d[8..12].try_into().unwrap()))
            })
            .collect();
        (pairs_base, pairs_len, dir)
    }

    #[test]
    fn corrupt_v4_records_surface_as_typed_corruption_not_panics() {
        // Every way a compressed record can be malformed — over-long
        // varint, b past the node table, a record run that
        // does not consume its directory span exactly — must surface as a
        // typed Corrupt error naming the group, never a panic or a silent
        // misread. Each tampered image gets its checksum table recomputed
        // so the bytes reach the structural validator.
        let g = network();
        let mem = DistanceOracle::build(&g, 10, 2.0);
        let bytes = encode(&mem);
        let node_count = mem.tree().raw_nodes().len();
        let (pairs_base, _pairs_len, dir) = v4_layout(&bytes, node_count);

        let sweep_err = |mut broken: Vec<u8>| -> String {
            retable(&mut broken);
            let disk =
                DiskDistanceOracle::from_store(MemPageStore::new(&broken), 1.0, None).unwrap();
            let n = g.vertex_count() as u32;
            for u in 0..n {
                for v in 0..n {
                    match disk.try_distance(VertexId(u), VertexId(v)) {
                        Ok(_) => {}
                        Err(PcpError::Corrupt(msg)) => return msg,
                        Err(e) => panic!("expected Corrupt, got {e}"),
                    }
                }
            }
            panic!("no probe decoded the tampered group");
        };

        // (a) Over-long varint: 11 continuation bytes at a group start.
        let ga = dir.iter().position(|&(_, c)| c >= 1).expect("some group stores a pair");
        let mut broken = bytes.clone();
        for i in 0..11 {
            broken[pairs_base + dir[ga].0 + i] = 0x80;
        }
        let msg = sweep_err(broken);
        assert!(
            msg.contains("pair group")
                && (msg.contains("longer than 10") || msg.contains("overflows")),
            "{msg}"
        );

        // (b) b-side id past the node table.
        let mut broken = bytes.clone();
        let at = pairs_base + dir[ga].0;
        broken[at] = 0xFF;
        broken[at + 1] = 0xFF;
        broken[at + 2] = 0x7F; // varint 2097151 — far past any node id
        let msg = sweep_err(broken);
        assert!(msg.contains("out of range"), "{msg}");

        // (c) A record run that leaves its directory span unconsumed: turn
        // a multi-byte leading varint into the single byte 1 (a valid node
        // id), shifting every later field and stranding trailing bytes.
        if let Some(&(s, _)) = dir.iter().find(|&&(s, c)| c >= 1 && bytes[pairs_base + s] >= 0x80) {
            let mut broken = bytes.clone();
            broken[pairs_base + s] = 0x01;
            // The shifted fields can trip any structural check — what
            // matters is that the misread is caught as typed corruption.
            let msg = sweep_err(broken);
            assert!(msg.contains("pair group"), "{msg}");
        }
    }
}
