//! An LZ-class byte compressor (Snappy substitute).
//!
//! IPS compresses serialized profiles before handing them to the persistent
//! key-value store to cut network traffic and storage space (§III-E). The
//! design point is Snappy's: optimize for encode/decode *speed*, accept a
//! modest ratio. This implementation uses greedy LZ77 with a fixed-size
//! hash table over 4-byte sequences.
//!
//! ## Format
//!
//! A stream of operations, each starting with a tag byte:
//!
//! * **Literal** (`tag & 1 == 0`): `len = tag >> 1` bytes of raw data follow
//!   if `len <= 126`; `tag >> 1 == 127` means a varint extended length
//!   follows the tag, then the data.
//! * **Copy** (`tag & 1 == 1`): `len = tag >> 1` (with the same varint
//!   extension at 127), then a varint back-offset. Copies may overlap the
//!   output (offset < len), enabling run-length encoding.
//!
//! The uncompressed length is *not* part of this format; the [`crate::frame`]
//! envelope carries it.

use std::fmt;

use crate::varint::{decode_u64, encode_u64};

/// Minimum match length worth emitting a copy for: tag byte + 1–2 varint
/// bytes of offset must beat the literal cost.
const MIN_MATCH: usize = 4;
/// Hash-table size (power of two).
const HASH_BITS: u32 = 14;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Length at which the tag byte switches to extended varint encoding.
const INLINE_LEN_MAX: u64 = 126;
const EXTENDED_LEN_MARKER: u64 = 127;

/// Errors from decompression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompressError {
    /// Input ended inside an operation.
    Truncated,
    /// A copy op referenced data before the start of the output.
    BadOffset { offset: usize, produced: usize },
    /// A varint inside the stream was malformed.
    BadVarint,
    /// A zero-length or zero-offset op, which the encoder never emits.
    BadOp,
    /// Output would exceed the declared limit (corrupt or hostile input).
    TooLarge { limit: usize },
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::Truncated => write!(f, "compressed stream truncated"),
            CompressError::BadOffset { offset, produced } => {
                write!(f, "copy offset {offset} exceeds produced {produced}")
            }
            CompressError::BadVarint => write!(f, "bad varint in compressed stream"),
            CompressError::BadOp => write!(f, "invalid zero-length operation"),
            CompressError::TooLarge { limit } => {
                write!(f, "decompressed output exceeds limit {limit}")
            }
        }
    }
}

impl std::error::Error for CompressError {}

/// The 4 bytes at `at`, little endian.
#[inline]
fn load32(data: &[u8], at: usize) -> u32 {
    let mut le = [0u8; 4];
    le.copy_from_slice(&data[at..at + 4]);
    u32::from_le_bytes(le)
}

/// The 8 bytes at `at`, little endian.
#[inline]
fn load64(data: &[u8], at: usize) -> u64 {
    let mut le = [0u8; 8];
    le.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(le)
}

/// Multiplicative hash of 4 bytes.
#[inline]
fn hash4(v: u32) -> usize {
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

/// How far the bytes at `a` and at `b > a` agree, up to the end of `data`:
/// eight bytes per step, then byte by byte.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize) -> usize {
    let mut len = 0;
    while b + len + 8 <= data.len() {
        let diff = load64(data, a + len) ^ load64(data, b + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while b + len < data.len() && data[a + len] == data[b + len] {
        len += 1;
    }
    len
}

fn emit_len(out: &mut Vec<u8>, len: u64, is_copy: bool) {
    let flag = u64::from(is_copy);
    if len <= INLINE_LEN_MAX {
        out.push(((len << 1) | flag) as u8);
    } else {
        out.push(((EXTENDED_LEN_MARKER << 1) | flag) as u8);
        encode_u64(out, len);
    }
}

fn emit_literal(out: &mut Vec<u8>, lit: &[u8]) {
    if lit.is_empty() {
        return;
    }
    emit_len(out, lit.len() as u64, false);
    out.extend_from_slice(lit);
}

fn emit_copy(out: &mut Vec<u8>, len: usize, offset: usize) {
    debug_assert!(len >= MIN_MATCH && offset >= 1);
    emit_len(out, len as u64, true);
    encode_u64(out, offset as u64);
}

/// Compress `input`. The output is self-contained except for the
/// uncompressed length (see module docs).
#[must_use]
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    compress_into(input, &mut out);
    out
}

/// Compress `input`, appending the stream to `out` (which is cleared first).
/// The caller owns the output buffer, so hot paths can reuse a pooled one;
/// the match-finder hash table is always served from the thread-local pool
/// rather than allocated per call.
///
/// The table is not cleared per call, which would cost more than
/// compressing a small payload. Each call stamps its entries with
/// `base + position`, where `base` starts past every stamp earlier calls
/// wrote, so an entry is this call's iff it is at least `base`; anything
/// below reads as empty, exactly as in a fresh table. The table is zeroed
/// only when the stamps would wrap a `u32`.
pub fn compress_into(input: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(input.len() / 2 + 16);
    if input.len() < MIN_MATCH + 1 {
        emit_literal(out, input);
        return;
    }

    // table[h] = base + the last position whose 4-byte hash was h.
    crate::pool::with_u32_table(HASH_SIZE, |table, cursor| {
        // Stamps start at 1: a zeroed (fresh or cleared) slot is empty.
        let mut base = (*cursor).max(1);
        if u32::try_from(input.len())
            .ok()
            .and_then(|len| base.checked_add(len))
            .is_none()
        {
            crate::pool::clear_u32_table(table);
            base = 1;
        }
        // A fixed length lets the compiler drop the bounds checks.
        let table = &mut table[..HASH_SIZE];
        let mut pos = 0usize;
        let mut lit_start = 0usize;
        // Stop early enough that hash4/extension reads stay in bounds.
        let limit = input.len() - MIN_MATCH;
        let stamp = |p: usize| base + p as u32;

        while pos <= limit {
            let bytes = load32(input, pos);
            let h = hash4(bytes);
            let candidate = table[h].checked_sub(base).map(|c| c as usize);
            table[h] = stamp(pos);

            if let Some(candidate) = candidate.filter(|&c| c < pos && load32(input, c) == bytes) {
                // Extend the match as far as possible.
                let len = MIN_MATCH + match_len(input, candidate + MIN_MATCH, pos + MIN_MATCH);
                emit_literal(out, &input[lit_start..pos]);
                emit_copy(out, len, pos - candidate);
                // Index a couple of positions inside the match so long runs
                // remain discoverable, then skip past it.
                let end = pos + len;
                let mut p = pos + 1;
                while p < end.min(limit) && p < pos + 4 {
                    table[hash4(load32(input, p))] = stamp(p);
                    p += 1;
                }
                pos = end;
                lit_start = pos;
            } else {
                pos += 1;
            }
        }
        emit_literal(out, &input[lit_start..]);
        // The next call's stamps start past every position stamped here.
        *cursor = stamp(input.len());
    });
}

/// Decompress a stream produced by [`compress`]. `max_len` bounds the output
/// to protect against corrupt or hostile inputs; pass the frame's declared
/// uncompressed length.
pub fn decompress(mut input: &[u8], max_len: usize) -> Result<Vec<u8>, CompressError> {
    let mut out: Vec<u8> = Vec::with_capacity(max_len.min(1 << 20));
    while !input.is_empty() {
        let tag = u64::from(input[0]);
        input = &input[1..];
        let is_copy = tag & 1 == 1;
        let mut len = tag >> 1;
        if len == EXTENDED_LEN_MARKER {
            let (v, n) = decode_u64(input).map_err(|_| CompressError::BadVarint)?;
            len = v;
            input = &input[n..];
        }
        if len == 0 {
            return Err(CompressError::BadOp);
        }
        let len = usize::try_from(len).map_err(|_| CompressError::TooLarge { limit: max_len })?;
        if out.len() + len > max_len {
            return Err(CompressError::TooLarge { limit: max_len });
        }
        if is_copy {
            let (off, n) = decode_u64(input).map_err(|_| CompressError::BadVarint)?;
            input = &input[n..];
            let offset = usize::try_from(off).map_err(|_| CompressError::BadOffset {
                offset: usize::MAX,
                produced: out.len(),
            })?;
            if offset == 0 || offset > out.len() {
                return Err(CompressError::BadOffset {
                    offset,
                    produced: out.len(),
                });
            }
            // Overlapping copies are legal (RLE); copy byte-by-byte when the
            // regions overlap, in blocks otherwise.
            let start = out.len() - offset;
            if offset >= len {
                out.extend_from_within(start..start + len);
            } else {
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        } else {
            if input.len() < len {
                return Err(CompressError::Truncated);
            }
            out.extend_from_slice(&input[..len]);
            input = &input[len..];
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(data: &[u8]) -> Vec<u8> {
        let c = compress(data);
        decompress(&c, data.len()).expect("decompress")
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(round_trip(b""), b"");
        assert_eq!(round_trip(b"a"), b"a");
        assert_eq!(round_trip(b"abcd"), b"abcd");
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data = b"abcdefgh".repeat(1_000);
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 10,
            "expected >10x on pure repetition, got {} -> {}",
            data.len(),
            c.len()
        );
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn run_length_overlap_copy() {
        let data = vec![7u8; 100_000];
        let c = compress(&data);
        assert!(c.len() < 64, "RLE should be tiny, got {}", c.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn incompressible_data_grows_only_slightly() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut data = vec![0u8; 64 << 10];
        rng.fill_bytes(&mut data);
        let c = compress(&data);
        // Worst case: one extended literal header per stream ~ negligible.
        assert!(c.len() <= data.len() + data.len() / 100 + 16);
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn profile_like_data_compresses() {
        // Varint-encoded small ids + counts with shared prefixes, similar to
        // serialized slices.
        let mut data = Vec::new();
        for i in 0u64..5_000 {
            crate::varint::encode_u64(&mut data, i % 97);
            crate::varint::encode_u64(&mut data, 1 + i % 3);
            data.extend_from_slice(b"slotA.typeB");
        }
        let c = compress(&data);
        assert!(c.len() < data.len() / 2, "{} -> {}", data.len(), c.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn compress_into_matches_compress_and_clears_dirty_buffer() {
        let data = b"abcdefgh".repeat(500);
        let mut out = b"stale garbage".to_vec();
        compress_into(&data, &mut out);
        assert_eq!(out, compress(&data));
        assert_eq!(decompress(&out, data.len()).unwrap(), data);
    }

    #[test]
    fn repeated_compression_reuses_pooled_hash_table() {
        let data = b"pooled table check".repeat(64);
        let first = compress(&data);
        let before = crate::pool::stats();
        assert_eq!(compress(&data), first);
        let after = crate::pool::stats();
        assert_eq!(after.table_reuses, before.table_reuses + 1);
        assert_eq!(after.table_allocs, before.table_allocs);
        assert_eq!(after.table_clears, before.table_clears, "no clear per call");
    }

    /// What `compress` writes for `data` on a thread whose table is fresh.
    fn compress_fresh(data: &[u8]) -> Vec<u8> {
        let data = data.to_vec();
        std::thread::spawn(move || compress(&data)).join().unwrap()
    }

    #[test]
    fn stale_entries_and_a_wrapping_cursor_match_a_fresh_table() {
        let a = b"the quick brown fox jumps over the lazy dog".repeat(40);
        let b: Vec<u8> = a
            .iter()
            .rev()
            .copied()
            .chain(a[..300].iter().copied())
            .collect();
        // Entries `a` leaves behind must not leak into `b`'s matches.
        let _ = compress(&a);
        assert_eq!(compress(&b), compress_fresh(&b));

        // Put the cursor just short of wrapping: the next call clears the
        // table once and still writes a fresh table's bytes.
        crate::pool::with_u32_table(HASH_SIZE, |_, cursor| *cursor = u32::MAX - 100);
        let before = crate::pool::stats();
        assert_eq!(compress(&b), compress_fresh(&b));
        assert_eq!(crate::pool::stats().table_clears, before.table_clears + 1);
        crate::pool::with_u32_table(HASH_SIZE, |_, cursor| {
            assert_eq!(
                *cursor,
                1 + b.len() as u32,
                "stamps restart after the clear"
            );
        });
        assert_eq!(compress(&a), compress_fresh(&a));
    }

    #[test]
    fn max_len_guard_rejects_oversized() {
        let data = b"xyz".repeat(100);
        let c = compress(&data);
        assert_eq!(
            decompress(&c, data.len() - 1),
            Err(CompressError::TooLarge {
                limit: data.len() - 1
            })
        );
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = b"hello world hello world hello world".to_vec();
        let c = compress(&data);
        for cut in 1..c.len() {
            // Every strict prefix must either error or produce a strict
            // prefix of the original -- never panic.
            if let Ok(d) = decompress(&c[..cut], data.len()) {
                assert!(data.starts_with(&d))
            }
        }
    }

    #[test]
    fn bad_offset_rejected() {
        // Copy of length 4, offset 9 with no produced output.
        let mut stream = Vec::new();
        stream.push(((4u64 << 1) | 1) as u8);
        encode_u64(&mut stream, 9);
        assert!(matches!(
            decompress(&stream, 100),
            Err(CompressError::BadOffset { .. })
        ));
    }

    #[test]
    fn zero_len_op_rejected() {
        let stream = [0u8]; // literal of length 0
        assert_eq!(decompress(&stream, 10), Err(CompressError::BadOp));
    }

    #[test]
    fn long_literal_extended_header() {
        // 10 KiB of random-ish data forces the extended-length literal path.
        let data: Vec<u8> = (0..10_240u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        assert_eq!(round_trip(&data), data);
    }

    /// The compressor as first written: a fresh table per call, one byte
    /// per step. The optimised one must write exactly its bytes.
    fn reference_compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        if input.len() < MIN_MATCH + 1 {
            emit_literal(&mut out, input);
            return out;
        }
        let hash = |at: usize| hash4(load32(input, at));
        let mut table = vec![u32::MAX; HASH_SIZE];
        let (mut pos, mut lit_start) = (0, 0);
        let limit = input.len() - MIN_MATCH;
        while pos <= limit {
            let h = hash(pos);
            let candidate = table[h] as usize;
            table[h] = pos as u32;
            if candidate != u32::MAX as usize
                && candidate < pos
                && input[candidate..candidate + MIN_MATCH] == input[pos..pos + MIN_MATCH]
            {
                let mut len = MIN_MATCH;
                while pos + len < input.len() && input[candidate + len] == input[pos + len] {
                    len += 1;
                }
                emit_literal(&mut out, &input[lit_start..pos]);
                emit_copy(&mut out, len, pos - candidate);
                let end = pos + len;
                let mut p = pos + 1;
                while p < end.min(limit) && p < pos + 4 {
                    table[hash(p)] = p as u32;
                    p += 1;
                }
                pos = end;
                lit_start = pos;
            } else {
                pos += 1;
            }
        }
        emit_literal(&mut out, &input[lit_start..]);
        out
    }

    proptest! {
        #[test]
        fn writes_the_reference_bytes(
            seed in any::<u64>(),
            n in 1usize..300,
            alphabet in 1u64..20,
        ) {
            // Runs and repeats over a small alphabet: long and short
            // matches, overlapping copies, and tails of every length.
            let mut data = Vec::new();
            let mut x = seed;
            for _ in 0..n {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let byte = ((x >> 33) % alphabet) as u8;
                if x % 5 == 0 && data.len() > 16 {
                    let from = (x >> 40) as usize % (data.len() - 8);
                    let take = 4 + (x >> 20) as usize % 40;
                    for i in 0..take {
                        data.push(data[from + i % (data.len() - from)]);
                    }
                } else {
                    data.extend(std::iter::repeat_n(byte, 1 + (x >> 50) as usize % 9));
                }
            }
            prop_assert_eq!(compress(&data), reference_compress(&data));
        }

        #[test]
        fn round_trips_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            prop_assert_eq!(round_trip(&data), data);
        }

        #[test]
        fn round_trips_structured(
            seed in any::<u64>(),
            n in 1usize..200,
        ) {
            // Structured data with both repetition and noise.
            let mut data = Vec::new();
            let mut x = seed;
            for _ in 0..n {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let run = (x % 64) as usize;
                let byte = (x >> 32) as u8;
                data.extend(std::iter::repeat_n(byte, run));
                data.extend_from_slice(&x.to_le_bytes());
            }
            prop_assert_eq!(round_trip(&data), data);
        }

        #[test]
        fn decompress_never_panics_on_garbage(
            data in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let _ = decompress(&data, 1 << 16);
        }
    }
}
