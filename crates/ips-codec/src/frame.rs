//! The storage envelope: what actually lands in the key-value store.
//!
//! Layout: `magic(1) | flags(1) | uncompressed_len varint | checksum fixed64
//! | payload`. The checksum is FNV-1a over the *uncompressed* bytes, so
//! corruption anywhere in the pipeline (compressor bug, torn KV write,
//! replication glitch) is caught on load. Payloads that do not shrink under
//! compression are stored raw — the same escape hatch Snappy-framed formats
//! use for incompressible data.
//!
//! A frame carries content only: equal payloads encode to equal bytes
//! whatever request wrote them.

use std::fmt;

use crate::compress::{compress_into, decompress, CompressError};
use crate::message::FlagsDescriptor;
use crate::varint::{decode_u64, encode_u64};

const MAGIC: u8 = 0xA9;
const FLAG_COMPRESSED: u8 = 0x01;
const KNOWN_FLAGS: u8 = FLAG_COMPRESSED;

/// The header flag bits, checked against `wire_schema.lock` like field
/// tags: a reassigned or recycled bit flips meaning for old readers.
pub const FRAME_FLAGS: FlagsDescriptor = FlagsDescriptor {
    name: "frame",
    bits: &[("compressed", FLAG_COMPRESSED)],
};

/// Errors from frame decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Missing or wrong magic byte.
    BadMagic,
    /// Frame header incomplete.
    Truncated,
    /// Unknown flag bits set.
    UnknownFlags(u8),
    /// Checksum mismatch after decoding.
    ChecksumMismatch { expected: u64, actual: u64 },
    /// Payload failed to decompress.
    Compress(CompressError),
    /// The payload length disagrees with the header.
    LengthMismatch { declared: usize, actual: usize },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::UnknownFlags(b) => write!(f, "unknown frame flags {b:#04x}"),
            FrameError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: expected {expected:#x}, got {actual:#x}"
                )
            }
            FrameError::Compress(e) => write!(f, "decompression failed: {e}"),
            FrameError::LengthMismatch { declared, actual } => {
                write!(f, "length mismatch: declared {declared}, got {actual}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<CompressError> for FrameError {
    fn from(e: CompressError) -> Self {
        FrameError::Compress(e)
    }
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encode `payload` into a frame, compressing when it helps.
#[must_use]
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    // The compressed intermediate never outlives this call (it is either
    // copied into the envelope or discarded by the raw fallback), so it is
    // served from the thread-local buffer pool.
    let mut compressed = crate::pool::take_buf();
    compress_into(payload, &mut compressed);
    let use_compressed = compressed.len() < payload.len();
    let body: &[u8] = if use_compressed { &compressed } else { payload };

    let flags = if use_compressed { FLAG_COMPRESSED } else { 0 };
    let mut out = Vec::with_capacity(body.len() + 16);
    out.push(MAGIC);
    out.push(flags);
    encode_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(body);
    crate::pool::give_buf(compressed);
    out
}

/// Decode a frame back into its payload, verifying the checksum.
pub fn decode_frame(frame: &[u8]) -> Result<Vec<u8>, FrameError> {
    if frame.len() < 2 {
        return Err(FrameError::Truncated);
    }
    if frame[0] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let flags = frame[1];
    if flags & !KNOWN_FLAGS != 0 {
        return Err(FrameError::UnknownFlags(flags));
    }
    let rest = &frame[2..];
    let (declared_len, n) = decode_u64(rest).map_err(|_| FrameError::Truncated)?;
    let rest = &rest[n..];
    if rest.len() < 8 {
        return Err(FrameError::Truncated);
    }
    let mut cs = [0u8; 8];
    cs.copy_from_slice(&rest[..8]);
    let expected = u64::from_le_bytes(cs);
    let body = &rest[8..];
    let declared_len = usize::try_from(declared_len).map_err(|_| FrameError::Truncated)?;

    let payload = if flags & FLAG_COMPRESSED != 0 {
        decompress(body, declared_len)?
    } else {
        body.to_vec()
    };
    if payload.len() != declared_len {
        return Err(FrameError::LengthMismatch {
            declared: declared_len,
            actual: payload.len(),
        });
    }
    let actual = fnv1a(&payload);
    if actual != expected {
        return Err(FrameError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_compressible() {
        let data = b"profile slice ".repeat(500);
        let frame = encode_frame(&data);
        assert!(frame.len() < data.len() / 2, "should have compressed");
        assert_eq!(decode_frame(&frame).unwrap(), data);
    }

    #[test]
    fn round_trip_incompressible_stays_raw() {
        let data: Vec<u8> = (0..1_000u32)
            .flat_map(|i| i.wrapping_mul(2_654_435_761).to_le_bytes())
            .collect();
        let frame = encode_frame(&data);
        assert_eq!(frame[1], 0, "incompressible payload must be stored raw");
        assert_eq!(decode_frame(&frame).unwrap(), data);
    }

    #[test]
    fn empty_payload() {
        let frame = encode_frame(b"");
        assert_eq!(decode_frame(&frame).unwrap(), b"");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = encode_frame(b"hello");
        frame[0] = 0x00;
        assert_eq!(decode_frame(&frame), Err(FrameError::BadMagic));
    }

    #[test]
    fn unknown_flags_rejected() {
        // 0x02 once marked a trace context after the checksum; no reader
        // knows it any more.
        for bit in [0x80, 0x02] {
            let mut frame = encode_frame(b"hello");
            frame[1] |= bit;
            assert!(matches!(
                decode_frame(&frame),
                Err(FrameError::UnknownFlags(_))
            ));
        }
    }

    #[test]
    fn untraced_frame_decodes_with_no_context() {
        // Writers never stamp a context: the frame holds content only.
        let frame = encode_frame(b"hello");
        assert_eq!(frame[1] & !KNOWN_FLAGS, 0);
        assert_eq!(decode_frame(&frame).unwrap(), b"hello");
    }

    #[test]
    fn corrupted_payload_caught_by_checksum() {
        let data = b"important profile bytes important profile bytes".to_vec();
        let mut frame = encode_frame(&data);
        let last = frame.len() - 1;
        frame[last] ^= 0xff;
        match decode_frame(&frame) {
            Err(FrameError::ChecksumMismatch { .. }) | Err(FrameError::Compress(_)) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_detected() {
        let frame = encode_frame(&b"hello world ".repeat(50));
        for cut in 0..frame.len() {
            assert!(
                decode_frame(&frame[..cut]).is_err(),
                "prefix of len {cut} must not decode"
            );
        }
    }

    proptest! {
        #[test]
        fn round_trips_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let frame = encode_frame(&data);
            prop_assert_eq!(decode_frame(&frame).unwrap(), data);
        }

        #[test]
        fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decode_frame(&data);
        }

        #[test]
        fn single_byte_corruption_never_yields_wrong_payload(
            data in proptest::collection::vec(any::<u8>(), 1..512),
            flip_idx in any::<usize>(),
            flip_bit in 0u8..8,
        ) {
            let frame = encode_frame(&data);
            let mut corrupted = frame.clone();
            let idx = flip_idx % corrupted.len();
            corrupted[idx] ^= 1 << flip_bit;
            // A detected corruption (Err) is the expected outcome; a clean
            // decode is only acceptable when the flip landed in dead space.
            if let Ok(decoded) = decode_frame(&corrupted) {
                prop_assert_eq!(decoded, data);
            }
        }
    }
}
