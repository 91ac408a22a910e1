//! Declarative wire messages: each message is written once, as a table.
//!
//! The paper stores profiles as Protocol Buffers (§III-E), whose schema is
//! declared once and compiled into both directions. [`wire_message!`] is
//! the same idea for the tagged-field format in [`crate::wire`]: one table
//! per message gives its `wire_schema.lock` section name, a decode
//! prologue (locals) and epilogue (validation, the returned value), and one
//! line per field. From that table the macro emits the encoder (`put_*`
//! calls in line order), the decoder (one `match` arm per field plus the
//! skip arm that makes unknown, newer fields harmless), the
//! [`IpsError::Codec`] mapping, and a `const DESCRIPTOR` whose tags the
//! lock test checks. A tag used twice in one message fails to compile.
//!
//! ```text
//! wire_message! {
//!     /// Doc comment for the generated unit struct.
//!     pub(crate) struct SortWire("sort");
//!     encode((key, order): (SortKey, SortOrder)) { /* encode prologue */ }
//!     decode(bytes) -> (SortKey, SortOrder) { /* decode prologue */ }
//!     1 varint(kind_of(key)) => |v| kind = v;
//!     2 optional varint(arg_of(key)) => |v| arg = v;
//!     finish { /* epilogue: returns Result<(SortKey, SortOrder)> */ }
//! }
//! ```
//!
//! A field line is `tag [optional|repeated] kind(encode expr) => |pat| stmt;`.
//! The kinds and what the encode expression yields / the pattern binds:
//!
//! | kind | encode | decode |
//! |---|---|---|
//! | `varint` | `u64` | `u64` |
//! | `zigzag` | `i64` | `i64` |
//! | `fixed64` | `u64` | `u64` |
//! | `bytes` | `&[u8]` | `&[u8]` |
//! | `packed` | an iterator of `T` | [`Packed<T>`](crate::wire::Packed) (borrowed, decoded as iterated) |
//! | `counts` | `&[i64]` | [`PackedCounts`](crate::wire::PackedCounts) (bounded, on the stack) |
//! | `nested M` | `M`'s encode argument | `M`'s decode output |
//!
//! A `packed` element `T` is `u64`, or `i64` zigzag-mapped
//! ([`PackedValue`](crate::wire::PackedValue)); the decoder's
//! [`Packed`](crate::wire::Packed) yields `Result<T, WireError>` per
//! element, so a column decodes straight into its destination, in one pass.
//!
//! `optional` takes an `Option` and writes nothing for `None`; `repeated`
//! takes an iterator and writes one field per item. Either way each
//! occurrence on the wire runs the decode statement once.
//!
//! Removing a field means deleting its line: `wire_schema.lock` then
//! moves its tag to `retired`, so it is never reused.
//!
//! The generated unit struct has `encode(w, arg)` (for nesting),
//! `to_vec(arg)` and `with_encoded(arg, |bytes| ..)` (both over a pooled
//! scratch writer), and `decode(bytes) -> Result<Out>`.

#![allow(
    clippy::disallowed_types,
    reason = "the macro is the one sanctioned writer of wire bytes"
)]

pub use ips_types::{IpsError, Result};

/// One wire message as `wire_schema.lock` sees it.
#[derive(Clone, Copy, Debug)]
pub struct MessageDescriptor {
    /// Lock sections the message is recorded under: one per place it is
    /// embedded (`rpc_request.8` and `profile_write.6` share one shape).
    pub names: &'static [&'static str],
    /// Active field tags, in declaration order.
    pub fields: &'static [u32],
    /// The message's decoder with the value dropped, for decoder fuzzing.
    pub decode: fn(&[u8]) -> Result<()>,
}

/// Frame-header bit flags as `wire_schema.lock` sees them.
#[derive(Clone, Copy, Debug)]
pub struct FlagsDescriptor {
    pub name: &'static str,
    /// `(flag name, bit)` pairs.
    pub bits: &'static [(&'static str, u8)],
}

/// Const-evaluated for every [`wire_message!`]: a reserved or repeated tag
/// is a compile error, so no message can write one field number twice.
pub const fn assert_valid_tags(message: &MessageDescriptor) {
    let tags = message.fields;
    let mut i = 0;
    while i < tags.len() {
        assert!(tags[i] > 0, "wire tag 0 is reserved");
        let mut j = i + 1;
        while j < tags.len() {
            assert!(tags[i] != tags[j], "wire tag used twice in one message");
            j += 1;
        }
        i += 1;
    }
}

/// Declare a wire message once; see the [module docs](crate::message).
///
/// ```
/// ips_codec::wire_message! {
///     struct Pair("pair");
///     encode((a, b): (u64, u64)) {}
///     decode(bytes) -> u64 { let mut sum = 0; }
///     1 varint(a) => |v| sum += v;
///     2 varint(b) => |v| sum += v;
///     finish { Ok(sum) }
/// }
/// assert_eq!(Pair::decode(&Pair::to_vec((2, 3))).unwrap(), 5);
/// ```
///
/// The same message with one tag written twice does not compile:
///
/// ```compile_fail
/// ips_codec::wire_message! {
///     struct Pair("pair");
///     encode((a, b): (u64, u64)) {}
///     decode(bytes) -> u64 { let mut sum = 0; }
///     1 varint(a) => |v| sum += v;
///     1 varint(b) => |v| sum += v;
///     finish { Ok(sum) }
/// }
/// assert_eq!(Pair::decode(&Pair::to_vec((2, 3))).unwrap(), 5);
/// ```
#[macro_export]
macro_rules! wire_message {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident($($lock:literal),+ $(,)?);
        encode($src:tt: $src_ty:ty) { $($enc_prologue:tt)* }
        decode($bytes:ident) -> $out:ty { $($dec_prologue:tt)* }
        $(
            $tag:literal $($kind:ident)+ ($enc:expr) => |$val:pat_param| $dec:expr;
        )+
        finish { $($finish:tt)* }
    ) => {
        $(#[$meta])*
        $vis struct $name;

        #[allow(
            dead_code,
            clippy::disallowed_types,
            reason = "a message may not use every generated form; the generated code is the \
                      sanctioned user of the wire primitives"
        )]
        impl $name {
            pub const DESCRIPTOR: $crate::message::MessageDescriptor =
                $crate::message::MessageDescriptor {
                    names: &[$($lock),+],
                    fields: &[$($tag),+],
                    decode: Self::decode_and_drop,
                };

            /// Write this message's fields into `w`.
            $vis fn encode(w: &mut $crate::wire::WireWriter, $src: $src_ty) {
                $($enc_prologue)*
                $( $crate::wire_message!(@put w, $tag, [$($kind)+], $enc); )+
            }

            /// Encode into a pooled scratch buffer and hand the bytes to
            /// `then` (which frames or copies them).
            $vis fn with_encoded<R>(src: $src_ty, then: impl FnOnce(&[u8]) -> R) -> R {
                let mut w = $crate::wire::WireWriter::pooled();
                Self::encode(&mut w, src);
                let out = then(w.as_slice());
                w.recycle();
                out
            }

            /// Encode into an exactly sized owned buffer.
            $vis fn to_vec(src: $src_ty) -> Vec<u8> {
                Self::with_encoded(src, <[u8]>::to_vec)
            }

            /// Decode one message body; unknown fields are skipped.
            $vis fn decode($bytes: &[u8]) -> $crate::message::Result<$out> {
                $($dec_prologue)*
                let mut reader = $crate::wire::WireReader::new($bytes);
                while let Some((field, value)) = reader.next_field().map_err(Self::wire_error)? {
                    match field {
                        $( $tag => {
                            let $val =
                                $crate::wire_message!(@get value, field, [$($kind)+]);
                            $dec;
                        } )+
                        _ => {}
                    }
                }
                $($finish)*
            }

            fn decode_and_drop($bytes: &[u8]) -> $crate::message::Result<()> {
                Self::decode($bytes).map(drop)
            }

            fn wire_error(e: $crate::wire::WireError) -> $crate::message::IpsError {
                $crate::message::IpsError::Codec(format!("{}: {e}", Self::DESCRIPTOR.names[0]))
            }
        }

        const _: () = $crate::message::assert_valid_tags(&$name::DESCRIPTOR);
    };

    (@put $w:ident, $tag:literal, [optional $($kind:ident)+], $e:expr) => {
        if let Some(x) = $e {
            $crate::wire_message!(@put $w, $tag, [$($kind)+], x);
        }
    };
    (@put $w:ident, $tag:literal, [repeated $($kind:ident)+], $e:expr) => {
        for x in $e {
            $crate::wire_message!(@put $w, $tag, [$($kind)+], x);
        }
    };
    (@put $w:ident, $tag:literal, [varint], $e:expr) => { $w.put_u64($tag, $e) };
    (@put $w:ident, $tag:literal, [zigzag], $e:expr) => { $w.put_i64($tag, $e) };
    (@put $w:ident, $tag:literal, [fixed64], $e:expr) => { $w.put_fixed64($tag, $e) };
    (@put $w:ident, $tag:literal, [bytes], $e:expr) => { $w.put_bytes($tag, $e) };
    (@put $w:ident, $tag:literal, [packed], $e:expr) => { $w.put_packed($tag, $e) };
    (@put $w:ident, $tag:literal, [counts], $e:expr) => { $w.put_packed($tag, $e.iter().copied()) };
    (@put $w:ident, $tag:literal, [nested $m:ident], $e:expr) => {
        $w.put_message($tag, |nested| $m::encode(nested, $e))
    };

    (@get $v:ident, $f:ident, [optional $($kind:ident)+]) => {
        $crate::wire_message!(@get $v, $f, [$($kind)+])
    };
    (@get $v:ident, $f:ident, [repeated $($kind:ident)+]) => {
        $crate::wire_message!(@get $v, $f, [$($kind)+])
    };
    (@get $v:ident, $f:ident, [varint]) => { $v.as_u64($f).map_err(Self::wire_error)? };
    (@get $v:ident, $f:ident, [zigzag]) => { $v.as_i64($f).map_err(Self::wire_error)? };
    (@get $v:ident, $f:ident, [fixed64]) => { $v.as_u64($f).map_err(Self::wire_error)? };
    (@get $v:ident, $f:ident, [bytes]) => { $v.as_bytes($f).map_err(Self::wire_error)? };
    (@get $v:ident, $f:ident, [packed]) => { $v.as_packed($f).map_err(Self::wire_error)? };
    (@get $v:ident, $f:ident, [counts]) => { $v.as_counts($f).map_err(Self::wire_error)? };
    (@get $v:ident, $f:ident, [nested $m:ident]) => {
        $m::decode($v.as_bytes($f).map_err(Self::wire_error)?)?
    };
}

#[cfg(test)]
mod tests {
    use crate::wire::{PackedCounts, WireWriter};
    use ips_types::IpsError;

    crate::wire_message! {
        /// A point: two coordinates and an optional label.
        struct PointWire("point");
        encode((x, y, label): (u64, i64, Option<&str>)) {}
        decode(bytes) -> (u64, i64, String) {
            let (mut x, mut y, mut label) = (0, 0, String::new());
        }
        1 varint(x) => |v| x = v;
        2 zigzag(y) => |v| y = v;
        3 optional bytes(label.map(str::as_bytes)) => |v| label = String::from_utf8_lossy(v).into();
        finish {
            Ok((x, y, label))
        }
    }

    crate::wire_message! {
        /// Points plus counts: exercises every repeated and nested kind.
        struct ShapeWire("shape", "shape_alias");
        encode((points, ids, counts): (&[(u64, i64)], &[u64], &[i64])) {}
        decode(bytes) -> (Vec<(u64, i64)>, Vec<u64>, PackedCounts) {
            let mut points = Vec::new();
            let mut ids = Vec::new();
            let mut counts = PackedCounts::default();
        }
        1 repeated nested PointWire(points.iter().map(|&(x, y)| (x, y, None))) => |(x, y, _)| {
            points.push((x, y))
        };
        2 packed(ids.iter().copied()) => |v| {
            ids = v.collect::<Result<_, _>>().map_err(Self::wire_error)?
        };
        3 counts(counts) => |v| counts = v;
        4 fixed64(7) => |v| assert_eq!(v, 7);
        finish {
            Ok((points, ids, counts))
        }
    }

    #[test]
    fn encode_writes_fields_in_line_order_and_decode_inverts_it() {
        let bytes = PointWire::to_vec((300, -2, Some("a")));
        let mut manual = WireWriter::new();
        manual.put_u64(1, 300);
        manual.put_i64(2, -2);
        manual.put_str(3, "a");
        assert_eq!(bytes, manual.into_bytes());
        assert_eq!(PointWire::decode(&bytes).unwrap(), (300, -2, "a".into()));
        let absent = PointWire::to_vec((1, 0, None));
        assert_eq!(PointWire::decode(&absent).unwrap(), (1, 0, String::new()));
    }

    #[test]
    fn nested_repeated_packed_and_counts_round_trip() {
        let points = [(1, -1), (2, 2)];
        let bytes = ShapeWire::to_vec((&points, &[5, 6], &[-3, 4, 9]));
        let (got, ids, counts) = ShapeWire::decode(&bytes).unwrap();
        assert_eq!(got, points);
        assert_eq!(ids, [5, 6]);
        assert_eq!(counts.as_slice(), [-3, 4, 9]);
        assert_eq!(ShapeWire::DESCRIPTOR.names, ["shape", "shape_alias"]);
        assert_eq!(ShapeWire::DESCRIPTOR.fields, [1, 2, 3, 4]);
        assert!((ShapeWire::DESCRIPTOR.decode)(&bytes).is_ok());
    }

    #[test]
    fn unknown_fields_are_skipped() {
        let mut w = WireWriter::new();
        w.put_bytes(99, b"from a newer writer");
        w.put_u64(1, 8);
        w.put_fixed64(50, 1);
        assert_eq!(
            PointWire::decode(&w.into_bytes()).unwrap(),
            (8, 0, String::new())
        );
    }

    #[test]
    fn wire_errors_become_codec_errors_named_by_section() {
        let mut w = WireWriter::new();
        w.put_bytes(1, b"not a varint");
        match PointWire::decode(&w.into_bytes()) {
            Err(IpsError::Codec(msg)) => assert!(msg.starts_with("point: "), "{msg}"),
            other => panic!("expected a codec error, got {other:?}"),
        }
        assert!(matches!(
            PointWire::decode(&[0x08]),
            Err(IpsError::Codec(_))
        ));
    }

    #[test]
    fn counts_beyond_max_attributes_are_an_error_not_a_panic() {
        let too_many = [1i64; ips_types::MAX_ATTRIBUTES + 1];
        let bytes = ShapeWire::to_vec((&[], &[], &too_many));
        match ShapeWire::decode(&bytes) {
            Err(IpsError::Codec(msg)) => assert!(msg.contains("too many elements"), "{msg}"),
            other => panic!("expected a codec error, got {other:?}"),
        }
    }

    #[test]
    fn tag_validation_rejects_duplicates_and_zero() {
        fn descriptor(fields: &'static [u32]) -> super::MessageDescriptor {
            super::MessageDescriptor {
                names: &["m"],
                fields,
                decode: |_| Ok(()),
            }
        }
        super::assert_valid_tags(&descriptor(&[1, 2, 3]));
        for bad in [&[1, 2, 1][..], &[0, 1][..]] {
            let caught = std::panic::catch_unwind(|| super::assert_valid_tags(&descriptor(bad)));
            assert!(caught.is_err(), "{bad:?} must be rejected");
        }
    }
}
