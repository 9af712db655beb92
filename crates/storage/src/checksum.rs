//! Page-level checksums and the typed corruption error they raise.
//!
//! Disk formats in this workspace append a [`ChecksumTable`] after their
//! page-padded payload: one 64-bit FNV-1a digest per payload page. The
//! [`BufferPool`](crate::BufferPool) verifies a page against the table on
//! every *physical* store read (cache hits pay nothing), so a flipped bit
//! on disk surfaces as a typed error naming the page — never as a silently
//! wrong answer decoded from garbage bytes.
//!
//! The digest is hand-rolled (no external crates): an **8-lane** FNV-1a
//! variant over 64-bit words. Classic byte-serial FNV-1a is one dependent
//! xor–multiply chain per byte — ~20k dependent multiplies for a 4 KiB
//! page, which measurably taxed the disk-serving hot path. Running eight
//! independent FNV lanes over interleaved words keeps the multiplies off
//! each other's critical path (the CPU overlaps them) and digests a page
//! an order of magnitude faster, with the same sensitivity to random
//! corruption. It is an integrity check, not a cryptographic MAC.

use crate::store::{PageId, PageStore, PAGE_SIZE};
use std::io;

const FNV_BASIS: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Classic byte-serial 64-bit FNV-1a (offset basis `0xcbf29ce484222325`,
/// prime `0x100000001b3`). Fine for short keys; for page-sized inputs use
/// [`fnv1a64x8`], which the [`ChecksumTable`] digests with.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = FNV_BASIS;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// 8-lane FNV-1a over 64-bit little-endian words: lane `j` absorbs words
/// `j, j+8, j+16, …`, a trailing partial word is zero-padded, and the
/// lanes (seeded `basis + j` so they are distinct) are folded together
/// with the input length byte-serially at the end. Not byte-compatible
/// with [`fnv1a64`] — it is this crate's page-digest function.
pub fn fnv1a64x8(bytes: &[u8]) -> u64 {
    let mut lanes = [0u64; 8];
    for (j, lane) in lanes.iter_mut().enumerate() {
        *lane = FNV_BASIS.wrapping_add(j as u64);
    }
    // Whole 64-byte blocks: eight independent xor–multiplies per block,
    // nothing on a shared dependency chain inside the block.
    let mut blocks = bytes.chunks_exact(64);
    for block in &mut blocks {
        for (j, word) in block.chunks_exact(8).enumerate() {
            let w = u64::from_le_bytes(word.try_into().unwrap());
            lanes[j] = (lanes[j] ^ w).wrapping_mul(FNV_PRIME);
        }
    }
    // Ragged end: whole words round-robin through the lanes, a trailing
    // partial word is zero-padded.
    let mut chunks = blocks.remainder().chunks_exact(8);
    let mut j = 0usize;
    for word in &mut chunks {
        let w = u64::from_le_bytes(word.try_into().unwrap());
        lanes[j] = (lanes[j] ^ w).wrapping_mul(FNV_PRIME);
        j = (j + 1) % 8;
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        let w = u64::from_le_bytes(word);
        lanes[j] = (lanes[j] ^ w).wrapping_mul(FNV_PRIME);
    }
    let mut hash = FNV_BASIS ^ bytes.len() as u64;
    for lane in lanes {
        for byte in lane.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// The payload of the typed corruption error: which page failed
/// verification and why.
///
/// It travels inside an [`io::Error`] of kind [`io::ErrorKind::InvalidData`]
/// so the existing `io::Result` plumbing carries it unchanged; callers that
/// want the page number downcast with [`as_page_corrupt`].
#[derive(Debug)]
pub struct PageCorrupt {
    /// The page that failed verification.
    pub page: u64,
    /// What went wrong (e.g. expected vs observed checksum).
    pub detail: String,
}

impl std::fmt::Display for PageCorrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page {} is corrupt: {}", self.page, self.detail)
    }
}

impl std::error::Error for PageCorrupt {}

/// Wraps a page-corruption report into an [`io::Error`] (kind
/// `InvalidData`) that [`as_page_corrupt`] can recover.
pub fn corrupt_page(page: u64, detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, PageCorrupt { page, detail: detail.into() })
}

/// Recovers the [`PageCorrupt`] payload from an [`io::Error`] produced by
/// [`corrupt_page`], if that is what `e` is.
pub fn as_page_corrupt(e: &io::Error) -> Option<&PageCorrupt> {
    e.get_ref().and_then(|inner| inner.downcast_ref::<PageCorrupt>())
}

/// One 64-bit [`fnv1a64x8`] digest per payload page of a disk format.
///
/// Built from the full page-padded byte image at write time; each entry
/// covers exactly [`PAGE_SIZE`] bytes. Pages past the table's length (the
/// region holding the table itself) are not covered — corruption there
/// shows up as a mismatch on the payload pages it claims to describe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChecksumTable {
    sums: Vec<u64>,
}

impl ChecksumTable {
    /// Digests `payload` per [`PAGE_SIZE`] chunk, treating a short final
    /// chunk as zero-padded to a full page (matching how page files pad).
    pub fn compute(payload: &[u8]) -> Self {
        let mut sums = Vec::with_capacity(payload.len().div_ceil(PAGE_SIZE));
        for chunk in payload.chunks(PAGE_SIZE) {
            if chunk.len() == PAGE_SIZE {
                sums.push(fnv1a64x8(chunk));
            } else {
                let mut page = [0u8; PAGE_SIZE];
                page[..chunk.len()].copy_from_slice(chunk);
                sums.push(fnv1a64x8(&page));
            }
        }
        ChecksumTable { sums }
    }

    /// Number of pages covered.
    pub fn pages(&self) -> usize {
        self.sums.len()
    }

    /// Verifies one full page image against the table. Pages beyond the
    /// covered range verify vacuously (they hold the table itself).
    pub fn verify(&self, page: u64, data: &[u8]) -> io::Result<()> {
        let Some(&want) = self.sums.get(page as usize) else {
            return Ok(());
        };
        let got = fnv1a64x8(data);
        if got != want {
            return Err(corrupt_page(
                page,
                format!("checksum mismatch (stored {want:#018x}, computed {got:#018x})"),
            ));
        }
        Ok(())
    }

    /// Serializes the table as little-endian `u64`s.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.sums.len() * 8);
        for &s in &self.sums {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out
    }

    /// Deserializes a table of `pages` digests from `bytes`.
    pub fn from_bytes(bytes: &[u8], pages: usize) -> io::Result<Self> {
        if bytes.len() < pages * 8 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("checksum table holds {} bytes, need {}", bytes.len(), pages * 8),
            ));
        }
        let sums = (0..pages)
            .map(|i| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap()))
            .collect();
        Ok(ChecksumTable { sums })
    }
}

/// Seals a page-file image: zero-pads the payload in `image` to the next
/// page boundary and appends its [`ChecksumTable`] there. The table's
/// offset — which the image's header records, so the payload can be
/// digested with it — is therefore `payload length` rounded up to a page.
/// Every paged format in this workspace is written through here, and a
/// test that tampers with an image re-seals it the same way.
pub fn seal(image: &mut Vec<u8>) {
    let table = ChecksumTable::compute(image);
    image.resize(image.len().div_ceil(PAGE_SIZE) * PAGE_SIZE, 0);
    image.extend_from_slice(&table.to_bytes());
}

/// Opens the trailer [`seal`] wrote: `offset` is where the image's header
/// says the table starts, and the table holds one digest per page before
/// it. The offset must be a nonzero page boundary with the whole table
/// inside the store; the bounds are checked without overflow, so a hostile
/// header is an `InvalidData` error, never a panic.
pub fn open_table<S: PageStore>(store: &S, offset: u64) -> io::Result<ChecksumTable> {
    let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if offset == 0 || offset % PAGE_SIZE as u64 != 0 {
        return Err(invalid("checksum table is not on a nonzero page boundary"));
    }
    let pages = offset / PAGE_SIZE as u64;
    let store_len = store.page_count().saturating_mul(PAGE_SIZE as u64);
    let end = pages.checked_mul(8).and_then(|len| offset.checked_add(len));
    if end.is_none_or(|end| end > store_len) {
        return Err(invalid("checksum table extends past end of file"));
    }
    let raw = crate::read_span(store, offset as usize, pages as usize * 8)?;
    ChecksumTable::from_bytes(&raw, pages as usize)
}

/// Like [`read_span`](crate::read_span), but verifies every covered page
/// against `table` before slicing — the way indexes load their pinned
/// metadata regions once the checksum table is known.
pub fn read_span_verified<S: PageStore>(
    store: &S,
    from: usize,
    len: usize,
    table: &ChecksumTable,
) -> io::Result<Vec<u8>> {
    if len == 0 {
        return Ok(Vec::new());
    }
    let page_lo = from / PAGE_SIZE;
    let page_hi = (from + len - 1) / PAGE_SIZE;
    let pages = store.read_pages(PageId(page_lo as u64), page_hi - page_lo + 1)?;
    let mut out = Vec::with_capacity(len);
    let mut off = from % PAGE_SIZE;
    for (i, data) in pages.iter().enumerate() {
        table.verify((page_lo + i) as u64, data)?;
        let take = (len - out.len()).min(PAGE_SIZE - off);
        out.extend_from_slice(&data[off..off + take]);
        off = 0;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemPageStore;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn laned_digest_detects_every_single_bit_flip() {
        let mut page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 253) as u8).collect();
        let clean = fnv1a64x8(&page);
        assert_eq!(clean, fnv1a64x8(&page), "digest must be deterministic");
        // Sample bit positions across all eight lanes and the tail path.
        for byte in (0..PAGE_SIZE).step_by(97).chain([0, 7, 8, PAGE_SIZE - 1]) {
            for bit in [0, 3, 7] {
                page[byte] ^= 1 << bit;
                assert_ne!(clean, fnv1a64x8(&page), "missed flip at byte {byte} bit {bit}");
                page[byte] ^= 1 << bit;
            }
        }
        assert_eq!(clean, fnv1a64x8(&page));
    }

    #[test]
    fn laned_digest_separates_lengths_and_tails() {
        // A short tail (zero-padded into a partial word) must not collide
        // with the explicit zero-padded forms of the same prefix.
        assert_ne!(fnv1a64x8(b""), fnv1a64x8(&[0u8]));
        assert_ne!(fnv1a64x8(&[5u8; 3]), fnv1a64x8(&[5u8, 5, 5, 0]));
        assert_ne!(fnv1a64x8(&[9u8; 8]), fnv1a64x8(&[9u8; 16][..8].repeat(2)));
        // Swapping two words lands them in different lanes: must differ.
        let mut a = [0u8; 128];
        a[0] = 1;
        let mut b = [0u8; 128];
        b[8] = 1;
        assert_ne!(fnv1a64x8(&a), fnv1a64x8(&b));
    }

    #[test]
    fn table_round_trips_and_verifies() {
        let mut payload = vec![0u8; 2 * PAGE_SIZE + 100];
        for (i, b) in payload.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let table = ChecksumTable::compute(&payload);
        assert_eq!(table.pages(), 3);
        let again = ChecksumTable::from_bytes(&table.to_bytes(), 3).unwrap();
        assert_eq!(table, again);

        // Each full (padded) page verifies; a flipped bit does not.
        let mut page0 = payload[..PAGE_SIZE].to_vec();
        table.verify(0, &page0).unwrap();
        page0[17] ^= 0x40;
        let err = table.verify(0, &page0).unwrap_err();
        let pc = as_page_corrupt(&err).expect("typed payload");
        assert_eq!(pc.page, 0);
        assert!(pc.detail.contains("checksum mismatch"));
        // The short final chunk is digested zero-padded, like page files pad.
        let mut last = [0u8; PAGE_SIZE];
        last[..100].copy_from_slice(&payload[2 * PAGE_SIZE..]);
        table.verify(2, &last).unwrap();
        // Pages past the table verify vacuously.
        table.verify(99, &last).unwrap();
    }

    #[test]
    fn truncated_table_rejected() {
        assert!(ChecksumTable::from_bytes(&[0u8; 15], 2).is_err());
    }

    #[test]
    fn sealed_images_open_and_hostile_offsets_are_typed_errors() {
        let mut image = vec![7u8; PAGE_SIZE + 5];
        seal(&mut image);
        assert_eq!(image.len(), 2 * PAGE_SIZE + 16, "payload padded, one digest per page");
        let store = MemPageStore::new(&image);
        let table = open_table(&store, 2 * PAGE_SIZE as u64).unwrap();
        assert_eq!(table, ChecksumTable::compute(&image[..2 * PAGE_SIZE]));
        let page_end = !(PAGE_SIZE as u64 - 1);
        for offset in [0, 1, PAGE_SIZE as u64 + 1, 3 * PAGE_SIZE as u64, page_end, u64::MAX] {
            let err = open_table(&store, offset).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "offset {offset:#x}");
        }
    }

    #[test]
    fn read_span_verified_catches_flips() {
        let mut payload = vec![3u8; 2 * PAGE_SIZE];
        let table = ChecksumTable::compute(&payload);
        let good = MemPageStore::new(&payload);
        let bytes = read_span_verified(&good, PAGE_SIZE - 4, 8, &table).unwrap();
        assert_eq!(bytes, vec![3u8; 8]);
        payload[PAGE_SIZE + 9] ^= 1;
        let bad = MemPageStore::new(&payload);
        let err = read_span_verified(&bad, PAGE_SIZE - 4, 8, &table).unwrap_err();
        assert_eq!(as_page_corrupt(&err).unwrap().page, 1);
    }
}
