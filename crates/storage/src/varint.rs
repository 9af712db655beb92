//! LEB128 varints and zigzag, shared by the compressed on-disk formats.
//!
//! The PCP pair format (v4) and the frontier tier's metadata (`SILCFDT1`)
//! store sorted id sequences as deltas; a delta is almost always tiny, so
//! unsigned LEB128 turns an 8-byte field into (usually) one byte. This
//! module is the single implementation both formats decode through. (The
//! SILC index stored its records this way until `SILCIDX4`, which keeps
//! them fixed-width so a lookup can search them in the pooled page.)
//!
//! Decoding is **canonical**: every value has exactly one accepted
//! encoding. A varint whose last byte is zero (except the single-byte
//! encoding of 0 itself), one longer than [`MAX_VARINT_BYTES`], or whose
//! tenth byte carries bits beyond the 64th is rejected with
//! `InvalidData`; a slice that ends mid-varint is rejected with
//! `UnexpectedEof`. On-disk corruption therefore surfaces as a typed
//! error, never as a silently different value that re-encodes to
//! different bytes.

use std::io;

/// Longest canonical LEB128 encoding of a `u64` (10 × 7 bits ≥ 64 bits).
pub const MAX_VARINT_BYTES: usize = 10;

/// Appends the LEB128 encoding of `v` to `out`.
pub fn encode_u64(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Number of bytes [`encode_u64`] emits for `v`.
pub fn encoded_len(v: u64) -> usize {
    // 1 + floor(bits/7) for bits = position of highest set bit (0 for v=0).
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7).max(1)
}

/// Decodes one canonical LEB128 `u64` from the front of `bytes`.
///
/// Returns the value and the number of bytes consumed. Truncated input is
/// `UnexpectedEof`; a non-canonical or overlong encoding is `InvalidData`.
#[inline]
pub fn decode_u64(bytes: &[u8]) -> io::Result<(u64, usize)> {
    // Single-byte fast path: levels, colors, and small deltas — the bulk
    // of what the compressed formats store — fit in 7 bits.
    match bytes.first() {
        Some(&b) if b & 0x80 == 0 => Ok((u64::from(b), 1)),
        _ => decode_u64_multibyte(bytes),
    }
}

/// The continuation-byte tail of [`decode_u64`], kept out of the inlined
/// fast path.
fn decode_u64_multibyte(bytes: &[u8]) -> io::Result<(u64, usize)> {
    let mut value: u64 = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        if i >= MAX_VARINT_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "varint longer than 10 bytes"));
        }
        if i == MAX_VARINT_BYTES - 1 && byte > 1 {
            // The 10th byte holds the single remaining bit of a u64.
            return Err(io::Error::new(io::ErrorKind::InvalidData, "varint overflows u64"));
        }
        value |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            if i > 0 && byte == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "non-canonical varint (trailing zero byte)",
                ));
            }
            return Ok((value, i + 1));
        }
    }
    Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated varint"))
}

/// Maps a signed value to an unsigned one with small absolute values
/// staying small (0→0, -1→1, 1→2, -2→3, …).
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends the zigzag LEB128 encoding of `v` to `out`.
pub fn encode_i64(v: i64, out: &mut Vec<u8>) {
    encode_u64(zigzag_encode(v), out);
}

/// Decodes one zigzag LEB128 `i64` from the front of `bytes`.
pub fn decode_i64(bytes: &[u8]) -> io::Result<(i64, usize)> {
    let (raw, used) = decode_u64(bytes)?;
    Ok((zigzag_decode(raw), used))
}

/// A cursor over a byte slice mixing varints with fixed-width fields, the
/// way the compressed record decoders walk a directory span.
pub struct VarintReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> VarintReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        VarintReader { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads one canonical LEB128 `u64`.
    #[inline]
    pub fn u64(&mut self) -> io::Result<u64> {
        let (v, used) = decode_u64(&self.bytes[self.pos..])?;
        self.pos += used;
        Ok(v)
    }

    /// Reads one zigzag LEB128 `i64`.
    #[inline]
    pub fn i64(&mut self) -> io::Result<i64> {
        let (v, used) = decode_i64(&self.bytes[self.pos..])?;
        self.pos += used;
        Ok(v)
    }

    /// Reads `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated fixed-width field",
            ));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a little-endian `f32`, bits verbatim.
    #[inline]
    pub fn f32_le(&mut self) -> io::Result<f32> {
        let b = self.bytes(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `f64`, bits verbatim.
    #[inline]
    pub fn f64_le(&mut self) -> io::Result<f64> {
        let b = self.bytes(8)?;
        Ok(f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        encode_u64(v, &mut out);
        out
    }

    #[test]
    fn round_trips_representative_values() {
        for v in [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let bytes = enc(v);
            assert_eq!(bytes.len(), encoded_len(v), "encoded_len mismatch for {v}");
            assert!(bytes.len() <= MAX_VARINT_BYTES);
            let (back, used) = decode_u64(&bytes).unwrap();
            assert_eq!((back, used), (v, bytes.len()), "round trip of {v}");
            // Trailing garbage after a terminated varint is not consumed.
            let mut padded = bytes.clone();
            padded.push(0xaa);
            assert_eq!(decode_u64(&padded).unwrap(), (v, bytes.len()));
        }
    }

    #[test]
    fn boundary_lengths_are_exact() {
        // Each 7-bit boundary adds one byte.
        for (v, len) in [
            (0x7fu64, 1),
            (0x80, 2),
            (0x3fff, 2),
            (0x4000, 3),
            (u64::MAX >> 1, 9),
            ((u64::MAX >> 1) + 1, 10),
            (u64::MAX, 10),
        ] {
            assert_eq!(enc(v).len(), len, "length of {v:#x}");
            assert_eq!(encoded_len(v), len);
        }
    }

    #[test]
    fn max_length_encoding_is_ten_bytes_and_decodes() {
        let bytes = enc(u64::MAX);
        assert_eq!(bytes.len(), MAX_VARINT_BYTES);
        assert_eq!(bytes[9], 0x01, "10th byte holds exactly the 64th bit");
        assert_eq!(decode_u64(&bytes).unwrap(), (u64::MAX, 10));
    }

    #[test]
    fn truncated_input_is_unexpected_eof() {
        for v in [0x80u64, 0x4000, u64::MAX] {
            let bytes = enc(v);
            for cut in 0..bytes.len() {
                let err = decode_u64(&bytes[..cut]).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut} of {v:#x}");
            }
        }
        assert_eq!(decode_u64(&[]).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn overlong_and_noncanonical_inputs_are_invalid_data() {
        // 11 continuation-marked bytes: longer than any u64 varint.
        let overlong = [0x80u8; 11];
        assert_eq!(decode_u64(&overlong).unwrap_err().kind(), io::ErrorKind::InvalidData);
        // 10th byte with bits beyond the 64th (0x02 would be bit 65).
        let mut overflow = [0x80u8; 10];
        overflow[9] = 0x02;
        assert_eq!(decode_u64(&overflow).unwrap_err().kind(), io::ErrorKind::InvalidData);
        // Non-canonical: 0 encoded as two bytes (0x80 0x00).
        assert_eq!(decode_u64(&[0x80, 0x00]).unwrap_err().kind(), io::ErrorKind::InvalidData);
        // Non-canonical: 1 encoded as (0x81 0x00).
        assert_eq!(decode_u64(&[0x81, 0x00]).unwrap_err().kind(), io::ErrorKind::InvalidData);
        // But plain 0 is fine.
        assert_eq!(decode_u64(&[0x00]).unwrap(), (0, 1));
    }

    #[test]
    fn zigzag_round_trips_and_keeps_small_values_small() {
        for (v, z) in [(0i64, 0u64), (-1, 1), (1, 2), (-2, 3), (2, 4)] {
            assert_eq!(zigzag_encode(v), z);
            assert_eq!(zigzag_decode(z), v);
        }
        for v in [i64::MIN, i64::MIN + 1, -12345, 12345, i64::MAX - 1, i64::MAX] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
            let mut out = Vec::new();
            encode_i64(v, &mut out);
            assert_eq!(decode_i64(&out).unwrap(), (v, out.len()));
        }
    }

    #[test]
    fn reader_walks_mixed_records() {
        let mut buf = Vec::new();
        encode_u64(300, &mut buf);
        buf.extend_from_slice(&1.5f32.to_le_bytes());
        encode_i64(-7, &mut buf);
        buf.extend_from_slice(&2.25f64.to_le_bytes());
        let mut r = VarintReader::new(&buf);
        assert_eq!(r.u64().unwrap(), 300);
        assert_eq!(r.f32_le().unwrap(), 1.5);
        assert_eq!(r.i64().unwrap(), -7);
        assert_eq!(r.f64_le().unwrap(), 2.25);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.position(), buf.len());
        assert_eq!(r.u64().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(r.bytes(1).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }
}
