//! LEB128 varints and zigzag signed mapping.

use std::fmt;

/// Maximum encoded size of a u64 varint.
pub const MAX_VARINT_LEN: usize = 10;

/// Errors from varint decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended mid-varint.
    Truncated,
    /// More than 10 continuation bytes (or bits beyond 64).
    Overflow,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "varint truncated"),
            DecodeError::Overflow => write!(f, "varint overflows u64"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append `v` to `buf` as a LEB128 varint.
#[inline]
pub fn encode_u64(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// `v` as a LEB128 varint in a stack buffer: the bytes and how many of
/// them are used.
#[inline]
#[must_use]
pub fn encode_u64_array(mut v: u64) -> ([u8; MAX_VARINT_LEN], usize) {
    let mut out = [0u8; MAX_VARINT_LEN];
    let mut n = 0;
    while v >= 0x80 {
        out[n] = (v as u8 & 0x7f) | 0x80;
        v >>= 7;
        n += 1;
    }
    out[n] = v as u8;
    (out, n + 1)
}

/// Decode a varint from the front of `buf`; returns `(value, bytes_read)`.
#[inline]
pub fn decode_u64(buf: &[u8]) -> Result<(u64, usize), DecodeError> {
    // Most varints on the wire (tags, short lengths, small counts) are one
    // byte.
    if let Some(&b) = buf.first() {
        if b < 0x80 {
            return Ok((u64::from(b), 1));
        }
    }
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for (i, b) in buf.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(DecodeError::Overflow);
        }
        let low = u64::from(b & 0x7f);
        if shift == 63 && low > 1 {
            return Err(DecodeError::Overflow);
        }
        v |= low << shift;
        if b & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    Err(DecodeError::Truncated)
}

/// Zigzag-map a signed value so small magnitudes encode small.
#[inline]
#[must_use]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
#[must_use]
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encoded length of `v` without encoding it.
#[inline]
#[must_use]
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        return 1;
    }
    (64 - v.leading_zeros() as usize).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_decode_known_values() {
        let cases: &[(u64, usize)] = &[
            (0, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::from(u32::MAX), 5),
            (u64::MAX, 10),
        ];
        for &(v, expect_len) in cases {
            let mut buf = Vec::new();
            encode_u64(&mut buf, v);
            assert_eq!(buf.len(), expect_len, "len for {v}");
            assert_eq!(varint_len(v), expect_len, "varint_len for {v}");
            let (got, read) = decode_u64(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(read, expect_len);
        }
    }

    #[test]
    fn decode_rejects_truncated() {
        let mut buf = Vec::new();
        encode_u64(&mut buf, 1_000_000);
        buf.pop();
        assert_eq!(decode_u64(&buf), Err(DecodeError::Truncated));
        assert_eq!(decode_u64(&[]), Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_rejects_overflow() {
        // 11 continuation bytes.
        let buf = [0x80u8; 11];
        assert_eq!(decode_u64(&buf), Err(DecodeError::Overflow));
        // 10 bytes but bits beyond the 64th set.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x7f);
        assert_eq!(decode_u64(&buf), Err(DecodeError::Overflow));
    }

    #[test]
    fn decode_ignores_trailing_bytes() {
        let mut buf = Vec::new();
        encode_u64(&mut buf, 300);
        buf.extend_from_slice(b"tail");
        let (v, read) = decode_u64(&buf).unwrap();
        assert_eq!(v, 300);
        assert_eq!(read, 2);
    }

    #[test]
    fn zigzag_known_values() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        assert_eq!(zigzag_encode(i64::MAX), u64::MAX - 1);
        assert_eq!(zigzag_encode(i64::MIN), u64::MAX);
    }

    proptest! {
        #[test]
        fn round_trip_u64(v in any::<u64>()) {
            let mut buf = Vec::new();
            encode_u64(&mut buf, v);
            let (got, read) = decode_u64(&buf).unwrap();
            prop_assert_eq!(got, v);
            prop_assert_eq!(read, buf.len());
            prop_assert_eq!(varint_len(v), buf.len());
        }

        #[test]
        fn round_trip_zigzag(v in any::<i64>()) {
            prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }

        #[test]
        fn zigzag_small_magnitude_encodes_small(v in -1000i64..1000) {
            prop_assert!(zigzag_encode(v) <= 2000);
        }
    }
}
