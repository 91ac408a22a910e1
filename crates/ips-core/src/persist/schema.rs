//! Wire schema for profiles and slices.
//!
//! Encodes the in-memory hierarchy (profile → slices → slots → actions →
//! feature stats) into the tag/varint wire format, framed and compressed by
//! `ips-codec`. Field numbers are stable; unknown fields are skipped on
//! read, so the schema can grow.

use ips_codec::wire::{count_field, PackedCounts};
use ips_codec::{decode_frame, encode_frame, wire_message};
use ips_types::{ActionTypeId, FeatureId, IpsError, Result, SlotId, Timestamp};

use crate::model::{CountRow, IndexedFeatureStat, InstanceSet, ProfileData, Slice};

// Every level encodes in id order, so equal content encodes to equal bytes.
// Every level decodes straight into the model's columns, each allocated
// once at its exact size (`count_field`); rows are appended in wire order,
// and a frame written before encoding was canonical is sorted once in
// `Slice::from_decoded`.

wire_message! {
    /// A whole profile (bulk mode, Fig 12): the last compaction time and
    /// the slices, newest first.
    pub(super) struct ProfileWire("profile");
    encode(profile: &ProfileData) {}
    decode(body) -> ProfileData {
        let mut profile = ProfileData::new();
        let mut slices = Vec::with_capacity(count_field(body, 1));
    }
    2 fixed64(profile.last_compacted.as_millis()) => |v| {
        profile.last_compacted = Timestamp::from_millis(v)
    };
    1 repeated nested SliceWire(profile.slices()) => |slice| slices.push(slice);
    finish {
        // Restore newest-first order defensively (encoding preserves it,
        // but order is an invariant worth re-establishing on load).
        slices.sort_by_key(|s| std::cmp::Reverse(s.start()));
        *profile.slices_mut() = slices;
        profile.check_invariants().map_err(IpsError::Codec)?;
        Ok(profile)
    }
}

wire_message! {
    /// One time slice: its `[start, end)` range and its slots.
    pub(super) struct SliceWire("slice");
    encode(slice: &Slice) {}
    decode(body) -> Slice {
        let (mut start, mut end) = (None, None);
        let mut slots = Vec::with_capacity(count_field(body, 3));
    }
    1 fixed64(slice.start().as_millis()) => |v| start = Some(Timestamp::from_millis(v));
    2 fixed64(slice.end().as_millis()) => |v| end = Some(Timestamp::from_millis(v));
    3 repeated nested SlotWire(slice.iter_slots()) => |slot| slots.extend(slot);
    finish {
        let start = start.ok_or_else(|| IpsError::Codec("slice missing start".into()))?;
        let end = end.ok_or_else(|| IpsError::Codec("slice missing end".into()))?;
        if start >= end {
            return Err(IpsError::Codec("slice has degenerate range".into()));
        }
        Ok(Slice::from_decoded(start, end, slots))
    }
}

wire_message! {
    /// One slot of a slice and its action types. Decodes to `None` when
    /// the id or every action is missing.
    pub(super) struct SlotWire("slice.3");
    encode((slot, set): (SlotId, &InstanceSet)) {}
    decode(body) -> Option<(SlotId, InstanceSet)> {
        let mut id = None;
        let mut set = InstanceSet::with_capacity(count_field(body, 2));
    }
    1 varint(u64::from(slot.raw())) => |v| id = Some(SlotId::new(v as u32));
    2 repeated nested ActionWire(set.iter()) => |action| {
        if let Some((action, stats)) = action {
            set.push(action, stats);
        }
    };
    finish {
        Ok(id.filter(|_| !set.is_empty()).map(|id| (id, set)))
    }
}

wire_message! {
    /// One action type of a slot and its feature stats. Decodes to `None`
    /// when the id or every feature is missing.
    pub(super) struct ActionWire("slice.3.2");
    encode((action, stats): (ActionTypeId, &IndexedFeatureStat)) {}
    decode(body) -> Option<(ActionTypeId, IndexedFeatureStat)> {
        let mut id = None;
        let mut stats = IndexedFeatureStat::with_capacity(count_field(body, 2));
    }
    1 varint(u64::from(action.raw())) => |v| id = Some(ActionTypeId::new(v as u32));
    2 repeated nested FeatureWire(stats.iter()) => |(fid, counts)| {
        if let Some(fid) = fid {
            stats.push(fid, counts.as_slice());
        }
    };
    finish {
        Ok(id.filter(|_| !stats.is_empty()).map(|id| (id, stats)))
    }
}

wire_message! {
    /// One feature row: its id and counts (bounded, decoded on the stack).
    pub(super) struct FeatureWire("slice.3.2.2");
    encode((fid, counts): (FeatureId, CountRow<'_>)) {}
    decode(body) -> (Option<FeatureId>, PackedCounts) {
        let (mut fid, mut counts) = (None, PackedCounts::default());
    }
    1 varint(fid.raw()) => |v| fid = Some(FeatureId::new(v));
    2 counts(counts.as_slice()) => |c| counts = c;
    finish {
        Ok((fid, counts))
    }
}

/// Serialize one slice to framed (compressed, checksummed) bytes. The wire
/// scratch buffer is pooled; only the framed output is a fresh allocation
/// (it escapes to the KV layer).
#[must_use]
pub fn encode_slice(slice: &Slice) -> Vec<u8> {
    SliceWire::with_encoded(slice, encode_frame)
}

/// Deserialize one slice from framed bytes.
pub fn decode_slice(frame: &[u8]) -> Result<Slice> {
    let body = decode_frame(frame).map_err(|e| IpsError::Codec(e.to_string()))?;
    SliceWire::decode(&body)
}

/// Serialize a whole profile to framed bytes (bulk mode, Fig 12). Wire
/// scratch comes from the thread-local pool, like [`encode_slice`].
#[must_use]
pub fn encode_profile(profile: &ProfileData) -> Vec<u8> {
    ProfileWire::with_encoded(profile, encode_frame)
}

/// Deserialize a whole profile from framed bytes.
pub fn decode_profile(frame: &[u8]) -> Result<ProfileData> {
    let body = decode_frame(frame).map_err(|e| IpsError::Codec(e.to_string()))?;
    ProfileWire::decode(&body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_types::{AggregateFunction, CountVector, DurationMs};

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_millis(t)
    }

    fn sample_profile(slices: u64, features_per_slice: u64) -> ProfileData {
        let mut p = ProfileData::new();
        for s in 0..slices {
            for f in 0..features_per_slice {
                p.add(
                    ts(1_000 + s * 10_000),
                    SlotId::new((f % 3) as u32),
                    ActionTypeId::new((f % 2) as u32),
                    FeatureId::new(f * 31 + s),
                    &CountVector::from_slice(&[f as i64 + 1, -(s as i64), 7]),
                    AggregateFunction::Sum,
                    DurationMs::from_secs(1),
                );
            }
        }
        p.last_compacted = ts(123);
        p
    }

    #[test]
    fn profile_round_trip() {
        let p = sample_profile(5, 20);
        let bytes = encode_profile(&p);
        let decoded = decode_profile(&bytes).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(encode_profile(&decoded), bytes, "encoding is canonical");
    }

    #[test]
    fn empty_profile_round_trip() {
        let p = ProfileData::new();
        let decoded = decode_profile(&encode_profile(&p)).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn slice_round_trip() {
        let p = sample_profile(1, 50);
        let slice = &p.slices()[0];
        let bytes = encode_slice(slice);
        let decoded = decode_slice(&bytes).unwrap();
        assert_eq!(decoded.start(), slice.start());
        assert_eq!(decoded.end(), slice.end());
        assert_eq!(decoded.feature_count(), slice.feature_count());
    }

    #[test]
    fn serialized_size_is_compact() {
        // §III-E: a typical profile serializes+compresses to well under 40KB.
        // 62 slices x ~12 features mirrors the production averages.
        let p = sample_profile(62, 12);
        let bytes = encode_profile(&p);
        assert!(
            bytes.len() < 40 << 10,
            "62-slice profile should be <40KB, got {}",
            bytes.len()
        );
    }

    #[test]
    fn corrupt_bytes_rejected() {
        let p = sample_profile(2, 3);
        let mut bytes = encode_profile(&p);
        bytes[0] ^= 0xff;
        assert!(decode_profile(&bytes).is_err());
        assert!(decode_profile(&[]).is_err());
        assert!(decode_slice(b"garbage").is_err());
    }

    #[test]
    fn decode_validates_invariants() {
        // Hand-craft a frame with overlapping slices: decode must reject it
        // or repair ordering. We construct two identical slices (same range).
        let p = sample_profile(1, 1);
        let slice_bytes = SliceWire::to_vec(&p.slices()[0]);
        let mut w = ips_codec::WireWriter::new();
        w.put_bytes(1, &slice_bytes);
        w.put_bytes(1, &slice_bytes);
        let frame = ips_codec::encode_frame(&w.into_bytes());
        assert!(
            decode_profile(&frame).is_err(),
            "duplicate/overlapping slices must fail invariant check"
        );
    }

    #[test]
    fn large_profile_compresses() {
        let p = sample_profile(60, 100);
        let framed = encode_profile(&p);
        // The wire body inside the frame is larger than the frame itself
        // (compression worked) — verify via a no-compression comparison.
        let raw_len = ProfileWire::to_vec(&p).len();
        assert!(framed.len() < raw_len, "{} !< {raw_len}", framed.len());
    }
}
