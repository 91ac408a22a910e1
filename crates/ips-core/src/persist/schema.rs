//! Wire schema for profiles and slices.
//!
//! Encodes the in-memory hierarchy (profile → slices → slots → actions →
//! feature stats) into the tag/varint wire format, framed and compressed by
//! `ips-codec`. Field numbers are stable; unknown fields are skipped on
//! read, so the schema can grow.
// wire-schema: registry

use ips_codec::varint::{decode_u64, zigzag_decode};
use ips_codec::wire::{WireError, WireReader, WireWriter};
use ips_codec::{decode_frame, encode_frame_traced, FrameTraceContext};
use ips_types::{ActionTypeId, FeatureId, IpsError, Result, SlotId, Timestamp, MAX_ATTRIBUTES};

use crate::model::{IndexedFeatureStat, InstanceSet, ProfileData, Slice};

/// Frame a storage payload, stamping the ambient request's trace context
/// into the header when one is live — a flushed blob can then be tied back
/// to the request that wrote it (`decode_frame` skips the stamp, so readers
/// are unaffected).
pub(crate) fn frame_with_ambient_trace(body: &[u8]) -> Vec<u8> {
    let ctx = ips_trace::current().map(|(_, ctx)| FrameTraceContext {
        trace_id: ctx.trace.0,
        span_id: ctx.span.0,
        sampled: ctx.sampled,
    });
    encode_frame_traced(body, ctx.as_ref())
}

// Profile message fields.
const F_SLICE: u32 = 1;
const F_LAST_COMPACTED: u32 = 2;
// Slice message fields.
const F_START: u32 = 1;
const F_END: u32 = 2;
const F_SLOT: u32 = 3;
// Slot message fields.
const F_SLOT_ID: u32 = 1;
const F_ACTION: u32 = 2;
// Action message fields.
const F_ACTION_ID: u32 = 1;
const F_FEATURE: u32 = 2;
// Feature message fields.
const F_FID: u32 = 1;
const F_COUNTS: u32 = 2;

/// Every level iterates in id order, so equal content encodes to equal
/// bytes.
fn write_slice(w: &mut WireWriter, slice: &Slice) {
    w.put_fixed64(F_START, slice.start().as_millis());
    w.put_fixed64(F_END, slice.end().as_millis());
    for (slot, set) in slice.iter_slots() {
        w.put_message(F_SLOT, |sw| {
            sw.put_u64(F_SLOT_ID, u64::from(slot.raw()));
            for (action, stats) in set.iter() {
                sw.put_message(F_ACTION, |aw| {
                    aw.put_u64(F_ACTION_ID, u64::from(action.raw()));
                    for (fid, counts) in stats.iter() {
                        aw.put_message(F_FEATURE, |fw| {
                            fw.put_u64(F_FID, fid.raw());
                            fw.put_packed_i64(F_COUNTS, &counts);
                        });
                    }
                });
            }
        });
    }
}

/// Serialize one slice to framed (compressed, checksummed) bytes. The wire
/// scratch buffer is pooled; only the framed output is a fresh allocation
/// (it escapes to the KV layer).
#[must_use]
pub fn encode_slice(slice: &Slice) -> Vec<u8> {
    let mut w = WireWriter::pooled();
    write_slice(&mut w, slice);
    let framed = frame_with_ambient_trace(w.as_slice());
    w.recycle();
    framed
}

/// Unpack a packed zigzag count list into `row` without allocating. A list
/// longer than a count vector may be is malformed.
fn unpack_counts<'r>(
    mut bytes: &[u8],
    row: &'r mut [i64; MAX_ATTRIBUTES],
) -> std::result::Result<&'r [i64], WireError> {
    let mut len = 0;
    while !bytes.is_empty() {
        let (v, n) = decode_u64(bytes)?;
        *row.get_mut(len)
            .ok_or(WireError::TooManyElements(F_COUNTS))? = zigzag_decode(v);
        len += 1;
        bytes = &bytes[n..];
    }
    Ok(&row[..len])
}

/// How often `field` occurs in a message body: the exact capacity of the
/// column it decodes into. Malformed input stops the count early; the
/// decode proper reports it.
fn count_field(body: &[u8], field: u32) -> usize {
    let mut reader = WireReader::new(body);
    let mut n = 0;
    while let Ok(Some((f, _))) = reader.next_field() {
        n += usize::from(f == field);
    }
    n
}

/// Decode one slice body straight into the model's columns, each allocated
/// once at its exact size. Rows are appended in wire order; a frame
/// written before encoding was canonical is sorted once at the end.
fn read_slice(body: &[u8]) -> Result<Slice> {
    let mut start = None;
    let mut end = None;
    let mut slots: Vec<(SlotId, InstanceSet)> = Vec::with_capacity(count_field(body, F_SLOT));

    WireReader::new(body)
        .for_each(|f, v| {
            match f {
                F_START => start = Some(Timestamp::from_millis(v.as_u64(f)?)),
                F_END => end = Some(Timestamp::from_millis(v.as_u64(f)?)),
                F_SLOT => {
                    let mut slot_id = None;
                    let slot_body = v.as_bytes(f)?;
                    let mut set = InstanceSet::with_capacity(count_field(slot_body, F_ACTION));
                    WireReader::new(slot_body).for_each(|sf, sv| {
                        match sf {
                            F_SLOT_ID => slot_id = Some(SlotId::new(sv.as_u64(sf)? as u32)),
                            F_ACTION => {
                                let mut action_id = None;
                                let action_body = sv.as_bytes(sf)?;
                                let mut stats = IndexedFeatureStat::with_capacity(count_field(
                                    action_body,
                                    F_FEATURE,
                                ));
                                WireReader::new(action_body).for_each(|af, av| {
                                    match af {
                                        F_ACTION_ID => {
                                            action_id =
                                                Some(ActionTypeId::new(av.as_u64(af)? as u32));
                                        }
                                        F_FEATURE => {
                                            let mut fid = None;
                                            let mut packed: &[u8] = &[];
                                            WireReader::new(av.as_bytes(af)?).for_each(
                                                |ff, fv| {
                                                    match ff {
                                                        F_FID => {
                                                            fid = Some(FeatureId::new(
                                                                fv.as_u64(ff)?,
                                                            ));
                                                        }
                                                        F_COUNTS => packed = fv.as_bytes(ff)?,
                                                        _ => {}
                                                    }
                                                    Ok(())
                                                },
                                            )?;
                                            if let Some(fid) = fid {
                                                let mut row = [0; MAX_ATTRIBUTES];
                                                stats.push(fid, unpack_counts(packed, &mut row)?);
                                            }
                                        }
                                        _ => {}
                                    }
                                    Ok(())
                                })?;
                                if let Some(a) = action_id.filter(|_| !stats.is_empty()) {
                                    set.push(a, stats);
                                }
                            }
                            _ => {}
                        }
                        Ok(())
                    })?;
                    if let Some(s) = slot_id.filter(|_| !set.is_empty()) {
                        slots.push((s, set));
                    }
                }
                _ => {}
            }
            Ok(())
        })
        .map_err(|e| IpsError::Codec(format!("slice decode: {e}")))?;

    let start = start.ok_or_else(|| IpsError::Codec("slice missing start".into()))?;
    let end = end.ok_or_else(|| IpsError::Codec("slice missing end".into()))?;
    if start >= end {
        return Err(IpsError::Codec("slice has degenerate range".into()));
    }
    Ok(Slice::from_decoded(start, end, slots))
}

/// Deserialize one slice from framed bytes.
pub fn decode_slice(frame: &[u8]) -> Result<Slice> {
    let body = decode_frame(frame).map_err(|e| IpsError::Codec(e.to_string()))?;
    read_slice(&body)
}

/// Serialize a whole profile to framed bytes (bulk mode, Fig 12). Wire
/// scratch comes from the thread-local pool, like [`encode_slice`].
#[must_use]
pub fn encode_profile(profile: &ProfileData) -> Vec<u8> {
    let mut w = WireWriter::pooled();
    w.put_fixed64(F_LAST_COMPACTED, profile.last_compacted.as_millis());
    for slice in profile.slices() {
        w.put_message(F_SLICE, |sw| write_slice(sw, slice));
    }
    let framed = frame_with_ambient_trace(w.as_slice());
    w.recycle();
    framed
}

/// Deserialize a whole profile from framed bytes.
pub fn decode_profile(frame: &[u8]) -> Result<ProfileData> {
    let body = decode_frame(frame).map_err(|e| IpsError::Codec(e.to_string()))?;
    let mut profile = ProfileData::new();
    let mut slices: Vec<Slice> = Vec::with_capacity(count_field(&body, F_SLICE));
    WireReader::new(&body)
        .for_each(|f, v| {
            match f {
                F_LAST_COMPACTED => {
                    profile.last_compacted = Timestamp::from_millis(v.as_u64(f)?);
                }
                F_SLICE => {
                    // Inner decode errors are surfaced as a missing-field
                    // wire error; the outer map_err turns it into IpsError.
                    let slice = read_slice(v.as_bytes(f)?)
                        .map_err(|_| ips_codec::wire::WireError::MissingField(f))?;
                    slices.push(slice);
                }
                _ => {}
            }
            Ok(())
        })
        .map_err(|e| IpsError::Codec(format!("profile decode: {e}")))?;
    // Restore newest-first order defensively (encoding preserves it, but
    // order is an invariant worth re-establishing on load).
    slices.sort_by_key(|s| std::cmp::Reverse(s.start()));
    *profile.slices_mut() = slices;
    profile.check_invariants().map_err(IpsError::Codec)?;
    Ok(profile)
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
        let slice_bytes = {
            let mut w = WireWriter::new();
            write_slice(&mut w, &p.slices()[0]);
            w.into_bytes()
        };
        let mut w = WireWriter::new();
        w.put_bytes(F_SLICE, &slice_bytes);
        w.put_bytes(F_SLICE, &slice_bytes);
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
        let mut w = WireWriter::new();
        w.put_fixed64(F_LAST_COMPACTED, p.last_compacted.as_millis());
        for slice in p.slices() {
            w.put_message(F_SLICE, |sw| write_slice(sw, slice));
        }
        let raw_len = w.into_bytes().len();
        assert!(framed.len() < raw_len, "{} !< {raw_len}", framed.len());
    }
}
