//! Tagged-field wire format (Protocol Buffers substitute).
//!
//! Every field is written as `tag = (field_number << 3) | wire_type` followed
//! by the payload. Three wire types cover everything IPS persists:
//!
//! * `Varint` — unsigned integers (ids, counts via zigzag, lengths);
//! * `Fixed64` — timestamps and generations where constant width helps;
//! * `Bytes` — length-delimited blobs, including nested messages.
//!
//! Readers skip unknown fields, so schemas can grow without breaking old
//! data — the property that makes split-profile persistence (Fig 13) safe to
//! evolve.
//!
//! A nested message is written in place ([`WireWriter::put_message`]): its
//! body goes straight into the parent's buffer, and its length prefix is
//! patched in afterwards as a minimal varint. A message encodes to the same
//! bytes as encoding each body separately and copying it in.
//!
//! Messages are declared with [`crate::wire_message!`]; outside this crate
//! nothing names [`WireWriter`] or [`WireReader`] directly.

use std::fmt;
use std::marker::PhantomData;

use ips_types::{CountVector, MAX_ATTRIBUTES};

use crate::varint::{
    decode_u64, encode_u64, encode_u64_array, zigzag_decode, zigzag_encode, DecodeError,
};

/// Wire types, stored in the low 3 bits of every tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireType {
    Varint = 0,
    Fixed64 = 1,
    Bytes = 2,
}

impl WireType {
    fn from_bits(bits: u64) -> Result<Self, WireError> {
        match bits {
            0 => Ok(WireType::Varint),
            1 => Ok(WireType::Fixed64),
            2 => Ok(WireType::Bytes),
            other => Err(WireError::UnknownWireType(other as u8)),
        }
    }
}

/// Errors from wire decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    Varint(DecodeError),
    UnknownWireType(u8),
    Truncated,
    /// Field number zero is reserved.
    ZeroFieldNumber,
    /// Caller expected a different wire type for this field.
    TypeMismatch {
        field: u32,
        expected: WireType,
        actual: WireType,
    },
    /// A required field was absent.
    MissingField(u32),
    /// A packed field holds more elements than its message allows.
    TooManyElements(u32),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Varint(e) => write!(f, "varint: {e}"),
            WireError::UnknownWireType(t) => write!(f, "unknown wire type {t}"),
            WireError::Truncated => write!(f, "message truncated"),
            WireError::ZeroFieldNumber => write!(f, "field number 0 is reserved"),
            WireError::TypeMismatch {
                field,
                expected,
                actual,
            } => write!(f, "field {field}: expected {expected:?}, found {actual:?}"),
            WireError::MissingField(n) => write!(f, "missing required field {n}"),
            WireError::TooManyElements(n) => write!(f, "field {n}: too many elements"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Varint(e)
    }
}

/// Serializes tagged fields into a byte buffer.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// A writer backed by a buffer from the thread-local pool. Pair with
    /// [`WireWriter::recycle`] (after copying the bytes out via
    /// [`WireWriter::as_slice`]) so the capacity is reused; calling
    /// [`WireWriter::into_bytes`] instead simply keeps the buffer.
    #[must_use]
    pub fn pooled() -> Self {
        Self {
            buf: crate::pool::take_buf(),
        }
    }

    /// The encoded bytes so far.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Return this writer's buffer to the thread-local pool.
    pub fn recycle(self) {
        crate::pool::give_buf(self.buf);
    }

    #[inline]
    fn tag(&mut self, field: u32, wt: WireType) {
        debug_assert!(field > 0, "field number 0 is reserved");
        encode_u64(&mut self.buf, (u64::from(field) << 3) | wt as u64);
    }

    /// Write an unsigned varint field.
    #[inline]
    pub fn put_u64(&mut self, field: u32, v: u64) {
        self.tag(field, WireType::Varint);
        encode_u64(&mut self.buf, v);
    }

    /// Write a signed varint field (zigzag).
    #[inline]
    pub fn put_i64(&mut self, field: u32, v: i64) {
        self.put_u64(field, zigzag_encode(v));
    }

    /// Write a bool as a varint field.
    #[inline]
    pub fn put_bool(&mut self, field: u32, v: bool) {
        self.put_u64(field, u64::from(v));
    }

    /// Write a fixed-width 64-bit field (little endian).
    #[inline]
    pub fn put_fixed64(&mut self, field: u32, v: u64) {
        self.tag(field, WireType::Fixed64);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a length-delimited byte field.
    #[inline]
    pub fn put_bytes(&mut self, field: u32, v: &[u8]) {
        self.tag(field, WireType::Bytes);
        encode_u64(&mut self.buf, v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Write a UTF-8 string field.
    pub fn put_str(&mut self, field: u32, v: &str) {
        self.put_bytes(field, v.as_bytes());
    }

    /// Write a nested message built by `f` as a length-delimited field, in
    /// place: `f` writes the body straight into this buffer behind a
    /// one-byte length, and only a body of 128 bytes or more, whose length
    /// takes more bytes, is shifted right to make room. A message tree
    /// (profile → slice → slot → action → feature) thus encodes into one
    /// buffer, with no scratch buffer or copy per level.
    #[inline]
    pub fn put_message(&mut self, field: u32, f: impl FnOnce(&mut WireWriter)) {
        self.tag(field, WireType::Bytes);
        let at = self.buf.len();
        self.buf.push(0);
        f(self);
        let len = self.buf.len() - at - 1;
        if len < 0x80 {
            self.buf[at] = len as u8;
        } else {
            let (prefix, n) = encode_u64_array(len as u64);
            self.buf.splice(at..=at, prefix[..n].iter().copied());
        }
    }

    /// Write a packed list of varints, one per value `vals` yields.
    #[inline]
    pub fn put_packed<T: PackedValue>(&mut self, field: u32, vals: impl IntoIterator<Item = T>) {
        self.put_message(field, |w| {
            for v in vals {
                encode_u64(&mut w.buf, v.to_varint());
            }
        });
    }

    /// Finish and take the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A decoded field payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldValue<'a> {
    Varint(u64),
    Fixed64(u64),
    Bytes(&'a [u8]),
}

impl<'a> FieldValue<'a> {
    /// Interpret as u64; errors on a bytes payload.
    #[inline]
    pub fn as_u64(&self, field: u32) -> Result<u64, WireError> {
        match self {
            FieldValue::Varint(v) | FieldValue::Fixed64(v) => Ok(*v),
            FieldValue::Bytes(_) => Err(WireError::TypeMismatch {
                field,
                expected: WireType::Varint,
                actual: WireType::Bytes,
            }),
        }
    }

    /// Interpret as zigzag-encoded i64.
    #[inline]
    pub fn as_i64(&self, field: u32) -> Result<i64, WireError> {
        Ok(zigzag_decode(self.as_u64(field)?))
    }

    /// Interpret as bool.
    #[inline]
    pub fn as_bool(&self, field: u32) -> Result<bool, WireError> {
        Ok(self.as_u64(field)? != 0)
    }

    /// Interpret as a byte slice; errors on scalar payloads.
    #[inline]
    pub fn as_bytes(&self, field: u32) -> Result<&'a [u8], WireError> {
        match self {
            FieldValue::Bytes(b) => Ok(b),
            _ => Err(WireError::TypeMismatch {
                field,
                expected: WireType::Bytes,
                actual: WireType::Varint,
            }),
        }
    }

    /// A packed list of varints, read in place as it is iterated.
    #[inline]
    pub fn as_packed<T: PackedValue>(&self, field: u32) -> Result<Packed<'a, T>, WireError> {
        Ok(Packed {
            bytes: self.as_bytes(field)?,
            value: PhantomData,
        })
    }

    /// Decode a packed zigzag count list onto the stack. More than
    /// [`MAX_ATTRIBUTES`] values is malformed: [`WireError::TooManyElements`].
    #[inline]
    pub fn as_counts(&self, field: u32) -> Result<PackedCounts, WireError> {
        let mut out = PackedCounts::default();
        for v in self.as_packed(field)? {
            *out.vals
                .get_mut(out.len)
                .ok_or(WireError::TooManyElements(field))? = v?;
            out.len += 1;
        }
        Ok(out)
    }
}

/// A decoded count list: at most [`MAX_ATTRIBUTES`] values, held inline so
/// decoding a feature row never allocates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackedCounts {
    vals: [i64; MAX_ATTRIBUTES],
    len: usize,
}

impl PackedCounts {
    #[must_use]
    pub fn as_slice(&self) -> &[i64] {
        &self.vals[..self.len]
    }

    #[must_use]
    pub fn to_vector(&self) -> CountVector {
        CountVector::from_slice(self.as_slice())
    }
}

/// How often `field` occurs in a message body: the exact capacity of the
/// column it decodes into. Malformed input stops the count early; the
/// decode proper reports it.
#[must_use]
pub fn count_field(body: &[u8], field: u32) -> usize {
    let mut reader = WireReader::new(body);
    let mut n = 0;
    while let Ok(Some((f, _))) = reader.next_field() {
        n += usize::from(f == field);
    }
    n
}

/// A value a packed list holds: `u64` as is, `i64` zigzag-mapped so small
/// magnitudes of either sign take one byte.
pub trait PackedValue: Copy {
    fn to_varint(self) -> u64;
    fn from_varint(v: u64) -> Self;
}

impl PackedValue for u64 {
    #[inline]
    fn to_varint(self) -> u64 {
        self
    }

    #[inline]
    fn from_varint(v: u64) -> Self {
        v
    }
}

impl PackedValue for i64 {
    #[inline]
    fn to_varint(self) -> u64 {
        zigzag_encode(self)
    }

    #[inline]
    fn from_varint(v: u64) -> Self {
        zigzag_decode(v)
    }
}

/// A packed list of varints, borrowed from its field's bytes and decoded
/// as it is iterated: each item is a value, or one `Err` for a malformed
/// varint, after which the iteration ends. Nothing is collected.
#[derive(Clone, Debug)]
pub struct Packed<'a, T> {
    bytes: &'a [u8],
    value: PhantomData<T>,
}

impl<T> Default for Packed<'_, T> {
    fn default() -> Self {
        Self {
            bytes: &[],
            value: PhantomData,
        }
    }
}

impl<T> Packed<'_, T> {
    /// How many values are left: one per byte that ends a varint. Exact for
    /// a well-formed list, and never more than its length in bytes, so it
    /// is a safe capacity for the column the list decodes into.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.iter().filter(|&&b| b < 0x80).count()
    }

    /// Are there no bytes left?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl<T: PackedValue> Iterator for Packed<'_, T> {
    type Item = Result<T, WireError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.bytes.is_empty() {
            return None;
        }
        match decode_u64(self.bytes) {
            Ok((v, n)) => {
                self.bytes = &self.bytes[n..];
                Some(Ok(T::from_varint(v)))
            }
            Err(e) => {
                self.bytes = &[];
                Some(Err(e.into()))
            }
        }
    }
}

/// Iterates tagged fields over a byte slice.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    #[must_use]
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Remaining unread bytes.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read the next `(field_number, value)` pair, or `None` at end of input.
    #[inline]
    pub fn next_field(&mut self) -> Result<Option<(u32, FieldValue<'a>)>, WireError> {
        if self.pos >= self.buf.len() {
            return Ok(None);
        }
        let (tag, n) = decode_u64(&self.buf[self.pos..])?;
        self.pos += n;
        let field = (tag >> 3) as u32;
        if field == 0 {
            return Err(WireError::ZeroFieldNumber);
        }
        let wt = WireType::from_bits(tag & 0x7)?;
        let value = match wt {
            WireType::Varint => {
                let (v, n) = decode_u64(&self.buf[self.pos..])?;
                self.pos += n;
                FieldValue::Varint(v)
            }
            WireType::Fixed64 => {
                let end = self.pos + 8;
                if end > self.buf.len() {
                    return Err(WireError::Truncated);
                }
                let mut le = [0u8; 8];
                le.copy_from_slice(&self.buf[self.pos..end]);
                self.pos = end;
                FieldValue::Fixed64(u64::from_le_bytes(le))
            }
            WireType::Bytes => {
                let (len, n) = decode_u64(&self.buf[self.pos..])?;
                self.pos += n;
                let end = self
                    .pos
                    .checked_add(len as usize)
                    .ok_or(WireError::Truncated)?;
                if end > self.buf.len() {
                    return Err(WireError::Truncated);
                }
                let b = &self.buf[self.pos..end];
                self.pos = end;
                FieldValue::Bytes(b)
            }
        };
        Ok(Some((field, value)))
    }

    /// Drain all fields into a callback; unknown fields are the callback's
    /// business to ignore (they usually just fall through a `match _`).
    pub fn for_each(
        &mut self,
        mut f: impl FnMut(u32, FieldValue<'a>) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        while let Some((field, value)) = self.next_field()? {
            f(field, value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = WireWriter::new();
        w.put_u64(1, 42);
        w.put_i64(2, -7);
        w.put_fixed64(3, 0xdead_beef);
        w.put_bool(4, true);
        w.put_str(5, "alice");
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        let (f, v) = r.next_field().unwrap().unwrap();
        assert_eq!((f, v.as_u64(f).unwrap()), (1, 42));
        let (f, v) = r.next_field().unwrap().unwrap();
        assert_eq!((f, v.as_i64(f).unwrap()), (2, -7));
        let (f, v) = r.next_field().unwrap().unwrap();
        assert_eq!((f, v.as_u64(f).unwrap()), (3, 0xdead_beef));
        let (f, v) = r.next_field().unwrap().unwrap();
        assert!(v.as_bool(f).unwrap());
        let (f, v) = r.next_field().unwrap().unwrap();
        assert_eq!(v.as_bytes(f).unwrap(), b"alice");
        assert!(r.next_field().unwrap().is_none());
    }

    #[test]
    fn nested_messages() {
        let mut w = WireWriter::new();
        w.put_message(1, |inner| {
            inner.put_u64(1, 5);
            inner.put_message(2, |inner2| inner2.put_u64(1, 6));
        });
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        let (_, v) = r.next_field().unwrap().unwrap();
        let mut inner = WireReader::new(v.as_bytes(1).unwrap());
        let (_, v1) = inner.next_field().unwrap().unwrap();
        assert_eq!(v1.as_u64(1).unwrap(), 5);
        let (_, v2) = inner.next_field().unwrap().unwrap();
        let mut inner2 = WireReader::new(v2.as_bytes(2).unwrap());
        let (_, v3) = inner2.next_field().unwrap().unwrap();
        assert_eq!(v3.as_u64(1).unwrap(), 6);
    }

    #[test]
    fn in_place_nesting_matches_copied_bodies_at_every_length_boundary() {
        for len in [0usize, 1, 127, 128, 129, 16_383, 16_384, 70_000] {
            let body: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut nested = WireWriter::new();
            nested.put_u64(1, 7);
            nested.put_message(2, |w| {
                w.put_message(3, |inner| inner.buf.extend_from_slice(&body));
                w.put_u64(4, 9);
            });

            let mut inner = WireWriter::new();
            inner.put_bytes(3, &body);
            inner.put_u64(4, 9);
            let mut copied = WireWriter::new();
            copied.put_u64(1, 7);
            copied.put_bytes(2, &inner.into_bytes());
            assert_eq!(nested.into_bytes(), copied.into_bytes(), "body of {len} B");
        }
    }

    #[test]
    fn packed_lists() {
        let mut w = WireWriter::new();
        w.put_packed(1, [1u64, 128, 16_384]);
        w.put_packed(2, [-1i64, 0, 1, i64::MIN, i64::MAX]);
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        let (_, v) = r.next_field().unwrap().unwrap();
        let list = v.as_packed::<u64>(1).unwrap();
        assert_eq!(list.len(), 3);
        assert_eq!(
            list.collect::<Result<Vec<_>, _>>().unwrap(),
            [1, 128, 16_384]
        );
        let (_, v) = r.next_field().unwrap().unwrap();
        assert_eq!(
            v.as_packed::<i64>(2)
                .unwrap()
                .collect::<Result<Vec<_>, _>>(),
            Ok(vec![-1, 0, 1, i64::MIN, i64::MAX])
        );
    }

    #[test]
    fn a_malformed_packed_list_yields_one_error_then_ends() {
        // 5, then a varint cut off mid-way.
        let mut list = FieldValue::Bytes(&[0x05, 0x80, 0x80])
            .as_packed::<u64>(1)
            .unwrap();
        assert_eq!(list.len(), 1, "only one byte ends a varint");
        assert_eq!(list.next(), Some(Ok(5)));
        assert_eq!(
            list.next(),
            Some(Err(WireError::Varint(DecodeError::Truncated)))
        );
        assert_eq!(list.next(), None);
    }

    #[test]
    fn unknown_fields_are_skippable() {
        let mut w = WireWriter::new();
        w.put_u64(1, 10);
        w.put_bytes(99, b"future extension");
        w.put_fixed64(98, 1);
        w.put_u64(2, 20);
        let bytes = w.into_bytes();

        let mut got = Vec::new();
        WireReader::new(&bytes)
            .for_each(|f, v| {
                if f == 1 || f == 2 {
                    got.push(v.as_u64(f).unwrap());
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(got, vec![10, 20]);
    }

    #[test]
    fn type_mismatch_is_detected() {
        let mut w = WireWriter::new();
        w.put_u64(1, 10);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let (f, v) = r.next_field().unwrap().unwrap();
        assert!(matches!(
            v.as_bytes(f),
            Err(WireError::TypeMismatch { field: 1, .. })
        ));
    }

    #[test]
    fn truncated_inputs_error() {
        let mut w = WireWriter::new();
        w.put_bytes(1, &[0u8; 100]);
        let bytes = w.into_bytes();
        for cut in [1, 2, 50, bytes.len() - 1] {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(r.next_field().is_err(), "cut at {cut} must error");
        }

        let mut w = WireWriter::new();
        w.put_fixed64(1, 7);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes[..5]);
        assert_eq!(r.next_field(), Err(WireError::Truncated));
    }

    #[test]
    fn zero_field_number_rejected() {
        // Tag 0b00000000: field 0, varint.
        let bytes = [0x00u8, 0x01];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.next_field(), Err(WireError::ZeroFieldNumber));
    }

    #[test]
    fn unknown_wire_type_rejected() {
        // Tag with wire type 7.
        let bytes = [(1 << 3) | 7u8];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.next_field(), Err(WireError::UnknownWireType(7)));
    }

    #[test]
    fn huge_declared_length_does_not_overflow() {
        let mut bytes = Vec::new();
        encode_u64(&mut bytes, (1 << 3) | 2); // field 1, bytes
        encode_u64(&mut bytes, u64::MAX); // absurd length
        let mut r = WireReader::new(&bytes);
        assert!(r.next_field().is_err());
    }

    proptest! {
        #[test]
        fn arbitrary_scalars_round_trip(
            u in any::<u64>(),
            i in any::<i64>(),
            f64v in any::<u64>(),
            blob in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let mut w = WireWriter::new();
            w.put_u64(1, u);
            w.put_i64(2, i);
            w.put_fixed64(3, f64v);
            w.put_bytes(4, &blob);
            let bytes = w.into_bytes();

            let mut r = WireReader::new(&bytes);
            let (_, v) = r.next_field().unwrap().unwrap();
            prop_assert_eq!(v.as_u64(1).unwrap(), u);
            let (_, v) = r.next_field().unwrap().unwrap();
            prop_assert_eq!(v.as_i64(2).unwrap(), i);
            let (_, v) = r.next_field().unwrap().unwrap();
            prop_assert_eq!(v.as_u64(3).unwrap(), f64v);
            let (_, v) = r.next_field().unwrap().unwrap();
            prop_assert_eq!(v.as_bytes(4).unwrap(), &blob[..]);
        }

        #[test]
        fn reader_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut r = WireReader::new(&bytes);
            // Drain until error or end; must not panic.
            while let Ok(Some(_)) = r.next_field() {}
        }
    }
}
