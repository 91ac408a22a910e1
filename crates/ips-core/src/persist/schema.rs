//! Wire schema for profiles and slices.
//!
//! Encodes a profile's head (its inline slices, each as its three in-memory
//! columns, and refs to the slices stored alone) and a slice into the
//! tag/varint wire format, framed and compressed by `ips-codec`. Field
//! numbers are stable; unknown fields are skipped on read, so the schema
//! can grow.

use ips_codec::wire::{count_field, Packed, PackedValue, WireError};
use ips_codec::{decode_frame, encode_frame, wire_message};
use ips_types::{ActionTypeId, FeatureId, IpsError, Result, SlotId, Timestamp};

use crate::model::{IndexedFeatureStat, ProfileData, Slice};

use super::persister::SliceRefInfo;

// Every level encodes in id order, so equal content encodes to equal bytes.
//
// A slice body is its three in-memory columns as packed varint lists
// (fields 4–6) plus its range (7–8), and decodes in one pass over each
// column straight into the slice's columns.

wire_message! {
    /// A profile's head (Fig 12's bulk value, plus refs): the last
    /// compaction time, the inline slices, newest first, and a ref to each
    /// slice stored as its own value. With every slice inline there are no
    /// refs, and the head is the whole profile.
    pub(super) struct ProfileWire("profile");
    encode((profile, inline, refs): (&ProfileData, usize, &[SliceRefInfo])) {}
    decode(body) -> (ProfileData, Vec<SliceRefInfo>) {
        let mut profile = ProfileData::new();
        let mut slices = Vec::with_capacity(count_field(body, 1));
        let mut refs = Vec::new();
    }
    2 fixed64(profile.last_compacted.as_millis()) => |v| {
        profile.last_compacted = Timestamp::from_millis(v)
    };
    1 repeated nested SliceWire(&profile.slices()[..inline]) => |slice| slices.push(slice);
    3 repeated nested SliceRefWire(refs) => |r| refs.push(r);
    finish {
        // Restore newest-first order defensively (encoding preserves it,
        // but order is an invariant worth re-establishing on load).
        slices.sort_by_key(|s| std::cmp::Reverse(s.start()));
        *profile.slices_mut() = slices;
        profile.check_invariants().map_err(IpsError::Codec)?;
        Ok((profile, refs))
    }
}

wire_message! {
    /// A head's ref to a slice value: its seq, and its range as the start
    /// and the range's length.
    pub(super) struct SliceRefWire("profile.3");
    encode(r: &SliceRefInfo) {}
    decode(body) -> SliceRefInfo {
        let (mut seq, mut start, mut span) = (0, None, None);
    }
    1 varint(r.seq) => |v| seq = v;
    2 varint(r.start.as_millis()) => |v| start = Some(v);
    3 varint(r.end.as_millis() - r.start.as_millis()) => |v| span = Some(v);
    finish {
        let range = match (start, span) {
            (Some(start), Some(span)) if span > 0 => start.checked_add(span).map(|end| (start, end)),
            _ => None,
        };
        let (start, end) = range.ok_or_else(|| codec("slice ref has no valid range"))?;
        let (start, end) = (Timestamp::from_millis(start), Timestamp::from_millis(end));
        Ok(SliceRefInfo { seq, start, end })
    }
}

wire_message! {
    /// One time slice: its `[start, end)` range and its rows. Field 4 holds
    /// each `(slot, action)` stat as `(slot, action, rows, width)`; field 5
    /// the feature ids, each stat's ascending and delta-coded from 0; field
    /// 6 the counts, row-major at each stat's width, zigzag-coded; fields 7
    /// and 8 the start and the range's length.
    pub(super) struct SliceWire("slice");
    encode(slice: &Slice) {}
    decode(body) -> Slice {
        let (mut start, mut span) = (None, None);
        let (mut runs, mut fids, mut counts) = Default::default();
    }
    4 packed(slice.stats().flat_map(run_of)) => |v| runs = v;
    5 packed(slice.stats().flat_map(|(_, _, stat)| fid_deltas(stat))) => |v| fids = v;
    6 packed(slice.stats().flat_map(|(_, _, stat)| counts_of(stat))) => |v| counts = v;
    7 varint(slice.start().as_millis()) => |v| start = Some(v);
    8 varint(slice.end().as_millis() - slice.start().as_millis()) => |v| span = Some(v);
    finish {
        let start = start.ok_or_else(|| codec("slice missing start"))?;
        let span = span.ok_or_else(|| codec("slice missing span"))?;
        let end = start.checked_add(span).ok_or_else(|| codec("slice end overflows"))?;
        if start >= end {
            return Err(codec("slice has degenerate range"));
        }
        let range = (Timestamp::from_millis(start), Timestamp::from_millis(end));
        decode_columns(range, runs, fids, counts)
    }
}

/// A stat's run entry: `(slot, action, rows, width)`.
fn run_of((slot, action, stat): (SlotId, ActionTypeId, IndexedFeatureStat<'_>)) -> [u64; 4] {
    let (rows, width) = (stat.len() as u64, stat.width() as u64);
    [u64::from(slot.raw()), u64::from(action.raw()), rows, width]
}

/// A stat's feature ids, each as its distance from the one before (the
/// first from 0).
fn fid_deltas(stat: IndexedFeatureStat<'_>) -> impl Iterator<Item = u64> + '_ {
    let mut prev = 0;
    stat.fids.iter().map(move |fid| {
        let delta = fid.raw() - prev;
        prev = fid.raw();
        delta
    })
}

/// A stat's counts, row by row at its width.
fn counts_of(stat: IndexedFeatureStat<'_>) -> impl Iterator<Item = i64> + '_ {
    stat.iter()
        .flat_map(|(_, row)| row.as_slice().iter().copied())
}

fn codec(what: &str) -> IpsError {
    IpsError::Codec(what.into())
}

/// The next value of a packed column; running out is an error.
#[inline]
fn next<T: PackedValue>(column: &mut Packed<'_, T>, name: &str) -> Result<T> {
    match column.next() {
        Some(Ok(v)) => Ok(v),
        other => Err(column_error(other, name)),
    }
}

/// What a packed column that ran out or held a bad varint reports.
#[cold]
fn column_error<T>(got: Option<std::result::Result<T, WireError>>, name: &str) -> IpsError {
    match got {
        Some(Err(e)) => IpsError::Codec(format!("slice {name} column: {e}")),
        _ => IpsError::Codec(format!("slice {name} column truncated")),
    }
}

/// A slot or action id, which must fit 32 bits.
fn id32(v: u64, name: &str) -> Result<u32> {
    u32::try_from(v).map_err(|_| IpsError::Codec(format!("slice {name} id {v} overflows u32")))
}

/// The next run entry of the runs column.
fn next_run(runs: &mut Packed<'_, u64>) -> Result<(SlotId, ActionTypeId, usize, usize)> {
    let slot = SlotId::new(id32(next(runs, "runs")?, "slot")?);
    let action = ActionTypeId::new(id32(next(runs, "runs")?, "action")?);
    let mut size = || next(runs, "runs").map(|v| usize::try_from(v).unwrap_or(usize::MAX));
    Ok((slot, action, size()?, size()?))
}

/// A slice from its packed columns, each read once, front to back, into
/// the slice's own columns, sized from the columns' bytes. A column that
/// runs short or has bytes left over is an error.
fn decode_columns(
    range: (Timestamp, Timestamp),
    mut runs: Packed<'_, u64>,
    mut fids: Packed<'_, u64>,
    mut counts: Packed<'_, i64>,
) -> Result<Slice> {
    let sizes = (runs.len() / 4, fids.len());
    let stats = std::iter::from_fn(|| (!runs.is_empty()).then(|| next_run(&mut runs)));
    let slice = Slice::from_columns(range, sizes, stats, |prev, row| {
        let delta = next(&mut fids, "fid")?;
        let fid = match prev {
            Some(prev) => prev.raw().checked_add(delta),
            None => Some(delta),
        };
        for count in row {
            *count = next(&mut counts, "count")?;
        }
        fid.map(FeatureId::new)
            .ok_or_else(|| codec("slice fid delta overflows u64"))
    })?;
    if !fids.is_empty() || !counts.is_empty() {
        return Err(codec("slice columns have bytes left over"));
    }
    Ok(slice)
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

/// Serialize a whole profile to framed bytes (bulk mode, Fig 12): a head
/// with every slice inline. Wire scratch comes from the thread-local pool,
/// like [`encode_slice`].
#[must_use]
pub fn encode_profile(profile: &ProfileData) -> Vec<u8> {
    encode_head(profile, profile.slice_count(), &[])
}

/// Deserialize a profile from a framed head. On a head with refs this is
/// the inline slices only: the referenced slices are values of their own,
/// which only the persister fetches.
pub fn decode_profile(frame: &[u8]) -> Result<ProfileData> {
    decode_head(frame).map(|(profile, _)| profile)
}

/// Serialize a head: `profile`'s first `inline` slices, and `refs`.
pub(super) fn encode_head(profile: &ProfileData, inline: usize, refs: &[SliceRefInfo]) -> Vec<u8> {
    ProfileWire::with_encoded((profile, inline, refs), encode_frame)
}

/// Deserialize a head: the profile of its inline slices, and its refs.
pub(super) fn decode_head(frame: &[u8]) -> Result<(ProfileData, Vec<SliceRefInfo>)> {
    let body = decode_frame(frame).map_err(|e| IpsError::Codec(e.to_string()))?;
    ProfileWire::decode(&body)
}

#[cfg(test)]
#[allow(clippy::disallowed_types, reason = "tests hand-craft wire bytes")]
mod tests {
    use super::*;
    use ips_codec::{FieldValue, WireReader, WireWriter};
    use ips_types::{AggregateFunction, CountVector, DurationMs, MAX_ATTRIBUTES};
    use proptest::prelude::*;

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
        let raw_len = ProfileWire::to_vec((&p, p.slice_count(), &[])).len();
        assert!(framed.len() < raw_len, "{} !< {raw_len}", framed.len());
    }

    /// A packed slice body as plain values (fields 4–8), so a test can
    /// corrupt one of them and write the body back.
    #[derive(Clone, Debug, Default)]
    struct PackedBody {
        runs: Vec<u64>,
        fids: Vec<u64>,
        counts: Vec<i64>,
        start: u64,
        span: u64,
    }

    fn values<T: PackedValue>(value: FieldValue<'_>, field: u32) -> Vec<T> {
        let list = value.as_packed::<T>(field).unwrap();
        list.map(std::result::Result::unwrap).collect()
    }

    impl PackedBody {
        fn parse(body: &[u8]) -> Self {
            let mut out = Self::default();
            let mut reader = WireReader::new(body);
            while let Some((field, value)) = reader.next_field().unwrap() {
                match field {
                    4 => out.runs = values(value, field),
                    5 => out.fids = values(value, field),
                    6 => out.counts = values(value, field),
                    7 => out.start = value.as_u64(field).unwrap(),
                    8 => out.span = value.as_u64(field).unwrap(),
                    other => panic!("a packed slice body has no field {other}"),
                }
            }
            out
        }

        fn encode(&self) -> Vec<u8> {
            let mut w = WireWriter::new();
            w.put_packed(4, self.runs.iter().copied());
            w.put_packed(5, self.fids.iter().copied());
            w.put_packed(6, self.counts.iter().copied());
            w.put_u64(7, self.start);
            w.put_u64(8, self.span);
            w.into_bytes()
        }

        /// The index in `fids` of the first row of the first stat with two
        /// rows or more.
        fn two_row_stat(&self) -> Option<usize> {
            let mut row = 0;
            for run in self.runs.chunks(4) {
                if run[2] >= 2 {
                    return Some(row);
                }
                row += run[2] as usize;
            }
            None
        }
    }

    /// Every malformation the columns decoder must reject, each applied
    /// alone to `body`.
    fn corruptions(body: &PackedBody) -> Vec<(&'static str, Vec<u8>)> {
        let mut out = Vec::new();
        let mut case = |name, corrupt: &dyn Fn(&mut PackedBody)| {
            let mut bad = body.clone();
            corrupt(&mut bad);
            out.push((name, bad.encode()));
        };
        case("runs column truncated", &|b| {
            b.runs.pop();
        });
        case("fids column truncated", &|b| {
            b.fids.pop();
        });
        case("counts column truncated", &|b| {
            b.counts.pop();
        });
        case("a trailing fid", &|b| b.fids.push(1));
        case("a trailing count", &|b| b.counts.push(1));
        case("a stat of no rows", &|b| b.runs[2] = 0);
        case("a stat past the fids", &|b| b.runs[2] += 1);
        case("a stat past the fids, far", &|b| b.runs[2] = u64::MAX);
        case("a stat too wide", &|b| {
            b.runs[3] = MAX_ATTRIBUTES as u64 + 1
        });
        case("a slot id past u32", &|b| {
            b.runs[0] = u64::from(u32::MAX) + 1
        });
        case("an action id past u32", &|b| b.runs[1] += 1 << 32);
        case("the range overflows", &|b| b.start = u64::MAX - b.span + 1);
        if let Some(row) = body.two_row_stat() {
            case("a fid delta overflows", &|b| {
                b.fids[row] = u64::MAX;
                b.fids[row + 1] = 1;
            });
        }
        out
    }

    fn slice_of(start: u64, span: u64, rows: &[(u32, u32, u64, Vec<i64>)]) -> Slice {
        let mut slice = Slice::new(ts(start), ts(start + span));
        for (slot, action, fid, counts) in rows {
            slice.add(
                SlotId::new(*slot),
                ActionTypeId::new(*action),
                FeatureId::new(*fid),
                &CountVector::from_slice(counts),
                AggregateFunction::Sum,
            );
        }
        slice
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn malformed_packed_bodies_are_rejected(
            rows in proptest::collection::vec(
                (
                    0u32..4,
                    0u32..3,
                    0u64..40,
                    proptest::collection::vec(any::<i64>(), 1..MAX_ATTRIBUTES + 1),
                ),
                1..40,
            ),
            start in 0u64..1 << 50,
            span in 1u64..1 << 40,
        ) {
            let slice = slice_of(start, span, &rows);
            let body = SliceWire::to_vec(&slice);
            let packed = PackedBody::parse(&body);
            prop_assert_eq!(packed.encode(), body.clone(), "the test writes the encoder's bytes");
            let decoded = SliceWire::decode(&body).unwrap();
            prop_assert_eq!(&decoded, &slice);
            for capacity in decoded.column_capacities() {
                prop_assert!(capacity <= body.len(), "{capacity} > {} B", body.len());
            }
            for (name, bad) in corruptions(&packed) {
                let outcome = std::panic::catch_unwind(|| SliceWire::decode(&bad));
                prop_assert!(
                    matches!(outcome, Ok(Err(IpsError::Codec(_)))),
                    "{name}: {outcome:?}"
                );
            }
        }
    }

    /// A nested body of one slot holding one action holding one feature.
    fn nested_body(slot: u64, action: u64) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_fixed64(1, 0);
        w.put_fixed64(2, 10);
        w.put_message(3, |s| {
            s.put_u64(1, slot);
            s.put_message(2, |a| {
                a.put_u64(1, action);
                a.put_message(2, |f| {
                    f.put_u64(1, 7);
                    f.put_packed(2, [1i64]);
                });
            });
        });
        w.into_bytes()
    }

    /// A body in the Fig 6 tree layout that preceded the packed columns
    /// (fields 1–3) is no longer a slice: decoding it is an error, not a
    /// panic.
    #[test]
    fn a_nested_body_is_rejected_without_panicking() {
        for (slot, action) in [(1, 2), (1 << 32, 2)] {
            let body = nested_body(slot, action);
            let outcome = std::panic::catch_unwind(|| SliceWire::decode(&body));
            assert!(
                matches!(outcome, Ok(Err(IpsError::Codec(_)))),
                "{slot} {action}: {outcome:?}"
            );
        }
    }
}
