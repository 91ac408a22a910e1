//! The wire schema as a test: `wire_schema.lock` against the descriptors
//! that `wire_message!` generates, and every declared decoder fuzzed.
//!
//! The lock records, per message section, the active field tags and the
//! retired ones, plus the frame-header flag bits. Rendering it from the
//! descriptors carries the retired sets forward and retires whatever left
//! the code, so a dropped field shows up as a lock diff to commit, and a
//! recycled retired tag (an old reader mid-rolling-upgrade would decode the
//! new field with the old meaning) fails outright. On drift the rendered
//! lock is printed; commit it once the wire change is intended.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use ips::codec::{decode_frame, FlagsDescriptor, MessageDescriptor, FRAME_FLAGS};
use proptest::prelude::*;

const COMMITTED_LOCK: &str = include_str!("../wire_schema.lock");

const HEADER: &str = "\
# wire_schema.lock — committed registry of wire-message field tags
# and frame-header flag bits, rendered from the wire_message! descriptors.
# Checked by: cargo test -p ips --test wire_schema (prints the rendered
# lock on drift; commit it once the wire change is intended).
# Retired tags/bits are append-only: a retired tag must NEVER be
# recycled, or an old reader mid-rolling-upgrade decodes the new
# field with the old meaning. Allocate fresh tags instead.
";

fn declared_messages() -> Vec<MessageDescriptor> {
    [
        ips::cluster::rpc::WIRE_MESSAGES,
        ips::core::persist::WIRE_MESSAGES,
        ips::kv::wal::WIRE_MESSAGES,
    ]
    .concat()
}

/// What the code declares: section → active tags, flag set → name → bit.
#[derive(Default)]
struct Code {
    messages: BTreeMap<String, BTreeSet<u32>>,
    flags: BTreeMap<String, BTreeMap<String, u8>>,
}

/// One parsed lock: section → (fields, retired), flag set → (bits, retired
/// mask).
#[derive(Debug, Default, PartialEq)]
struct Lock {
    messages: BTreeMap<String, (BTreeSet<u32>, BTreeSet<u32>)>,
    flags: BTreeMap<String, (BTreeMap<String, u8>, u8)>,
}

/// Collect the descriptors; a section or flag set declared twice is a
/// problem.
fn code_of(messages: &[MessageDescriptor], flags: &[FlagsDescriptor]) -> (Code, Vec<String>) {
    let mut code = Code::default();
    let mut problems = Vec::new();
    for m in messages {
        for name in m.names {
            let tags = m.fields.iter().copied().collect();
            if code.messages.insert((*name).to_string(), tags).is_some() {
                problems.push(format!("message section `{name}` is declared twice"));
            }
        }
    }
    for f in flags {
        let bits = f.bits.iter().map(|(n, b)| ((*n).to_string(), *b)).collect();
        if code.flags.insert(f.name.to_string(), bits).is_some() {
            problems.push(format!("flag set `{}` is declared twice", f.name));
        }
    }
    (code, problems)
}

fn parse_lock(text: &str) -> Result<Lock, String> {
    let mut lock = Lock::default();
    let mut section: Option<(bool, String)> = None; // (is_message, name)
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let bad = |what: &str| format!("line {}: {what}: `{line}`", i + 1);
        let number = |tok: &str| match tok.strip_prefix("0x") {
            Some(hex) => u32::from_str_radix(hex, 16).ok(),
            None => tok.parse().ok(),
        };
        if line.is_empty() || line.starts_with('#') {
            continue;
        } else if let Some(name) = line.strip_prefix("message ") {
            lock.messages.entry(name.to_string()).or_default();
            section = Some((true, name.to_string()));
        } else if let Some(name) = line.strip_prefix("flags ") {
            lock.flags.entry(name.to_string()).or_default();
            section = Some((false, name.to_string()));
        } else {
            let (key, rest) = line.split_once(':').ok_or_else(|| bad("unrecognized"))?;
            let tokens = rest.split_whitespace();
            match (&section, key) {
                (Some((true, name)), "fields" | "retired") => {
                    let entry = lock.messages.get_mut(name).expect("section was opened");
                    let set = if key == "fields" {
                        &mut entry.0
                    } else {
                        &mut entry.1
                    };
                    for tok in tokens {
                        set.insert(number(tok).ok_or_else(|| bad("bad tag"))?);
                    }
                }
                (Some((false, name)), "bits") => {
                    let entry = lock.flags.get_mut(name).expect("section was opened");
                    for tok in tokens {
                        let (flag, bit) = tok.split_once('=').ok_or_else(|| bad("bad flag"))?;
                        let bit = number(bit).and_then(|b| u8::try_from(b).ok());
                        entry
                            .0
                            .insert(flag.to_string(), bit.ok_or_else(|| bad("bad bit"))?);
                    }
                }
                (Some((false, name)), "retired") => {
                    let entry = lock.flags.get_mut(name).expect("section was opened");
                    for tok in tokens {
                        let bits = number(tok).and_then(|b| u8::try_from(b).ok());
                        entry.1 |= bits.ok_or_else(|| bad("bad bits"))?;
                    }
                }
                _ => return Err(bad("unexpected")),
            }
        }
    }
    Ok(lock)
}

/// Render the lock for `code`, carrying `old`'s retired tags and bits
/// forward and retiring whatever left the code. The problems returned are
/// the ones no regeneration can fix: a retired tag or bit in use again.
fn render_lock(code: &Code, old: &Lock) -> (String, Vec<String>) {
    let mut out = String::from(HEADER);
    let mut problems = Vec::new();
    let names: BTreeSet<&String> = code.messages.keys().chain(old.messages.keys()).collect();
    for name in names {
        let tags = code.messages.get(name).cloned().unwrap_or_default();
        let (was_active, mut retired) = old.messages.get(name).cloned().unwrap_or_default();
        for tag in tags.intersection(&retired) {
            problems.push(format!(
                "message `{name}` uses field tag {tag}, which is retired"
            ));
        }
        retired.extend(was_active.difference(&tags));
        let list = |set: &BTreeSet<u32>| set.iter().map(|t| format!(" {t}")).collect::<String>();
        out.push_str(&format!(
            "\nmessage {name}\n  fields:{}\n  retired:{}\n",
            list(&tags),
            list(&retired)
        ));
    }
    let names: BTreeSet<&String> = code.flags.keys().chain(old.flags.keys()).collect();
    for name in names {
        let bits = code.flags.get(name).cloned().unwrap_or_default();
        let (was_active, mut retired) = old.flags.get(name).cloned().unwrap_or_default();
        for (flag, bit) in &bits {
            if retired & bit != 0 {
                problems.push(format!(
                    "flag `{flag}` of `{name}` uses bit {bit:#04x}, which is retired"
                ));
            }
        }
        for (flag, bit) in &was_active {
            if bits.get(flag) != Some(bit) {
                retired |= bit;
            }
        }
        let list: String = bits
            .iter()
            .map(|(flag, bit)| format!(" {flag}=0x{bit:02x}"))
            .collect();
        out.push_str(&format!(
            "\nflags {name}\n  bits:{list}\n  retired: 0x{retired:02x}\n"
        ));
    }
    (out, problems)
}

#[test]
fn wire_schema_lock_matches_the_declared_messages() {
    let (code, mut problems) = code_of(&declared_messages(), &[FRAME_FLAGS]);
    let old = parse_lock(COMMITTED_LOCK).unwrap_or_else(|e| panic!("wire_schema.lock: {e}"));
    let (rendered, render_problems) = render_lock(&code, &old);
    problems.extend(render_problems);
    assert!(problems.is_empty(), "{problems:#?}");
    if rendered != COMMITTED_LOCK {
        println!("{rendered}");
        panic!(
            "wire_schema.lock is out of date with the wire_message! declarations; \
             the rendered lock is printed above — commit it once the change is intended"
        );
    }
}

fn descriptor(name: &'static str, fields: &'static [u32]) -> MessageDescriptor {
    MessageDescriptor {
        names: Box::leak(Box::new([name])),
        fields,
        decode: |_| Ok(()),
    }
}

fn flags(bits: &'static [(&'static str, u8)]) -> FlagsDescriptor {
    FlagsDescriptor {
        name: "frame",
        bits,
    }
}

/// The lock a fresh checkout would commit for these declarations.
fn committed(messages: &[MessageDescriptor], bits: &'static [(&'static str, u8)]) -> String {
    let (code, problems) = code_of(messages, &[flags(bits)]);
    assert!(problems.is_empty());
    render_lock(&code, &Lock::default()).0
}

/// The lock check's verdict on `messages` against the `lock` text:
/// the re-rendered lock, and the problems.
fn check(
    messages: &[MessageDescriptor],
    bits: &'static [(&'static str, u8)],
    lock: &str,
) -> (String, Vec<String>) {
    let (code, mut problems) = code_of(messages, &[flags(bits)]);
    let (rendered, more) = render_lock(&code, &parse_lock(lock).unwrap());
    problems.extend(more);
    (rendered, problems)
}

const BITS: &[(&str, u8)] = &[("compressed", 0x01), ("trace", 0x02)];

#[test]
fn rendered_lock_parses_back_and_is_stable() {
    let messages = [descriptor("a", &[2, 1]), descriptor("a.1", &[1])];
    let lock = committed(&messages, BITS);
    let parsed = parse_lock(&lock).unwrap();
    assert_eq!(parsed.messages["a"].0, BTreeSet::from([1, 2]));
    assert_eq!(parsed.flags["frame"].0["trace"], 0x02);
    assert_eq!(check(&messages, BITS, &lock), (lock, vec![]));
}

#[test]
fn dropping_a_field_without_retiring_it_fails_the_lock_check() {
    let lock = committed(&[descriptor("a", &[1, 2, 3])], BITS);
    let (rendered, problems) = check(&[descriptor("a", &[1, 2])], BITS, &lock);
    assert!(
        problems.is_empty(),
        "dropping is fine once the lock records it"
    );
    assert_ne!(rendered, lock, "the committed lock no longer matches");
    assert!(rendered.contains("message a\n  fields: 1 2\n  retired: 3\n"));
    // Committing the rendered lock makes the check pass, and keeps the tag
    // retired from then on.
    assert_eq!(
        check(&[descriptor("a", &[1, 2])], BITS, &rendered).0,
        rendered
    );
}

#[test]
fn reusing_a_retired_tag_fails_even_with_a_regenerated_lock() {
    let lock = committed(&[descriptor("a", &[1, 2, 3])], BITS);
    let (retired, _) = check(&[descriptor("a", &[1, 2])], BITS, &lock);
    let (rendered, problems) = check(&[descriptor("a", &[1, 2, 3])], BITS, &retired);
    assert_eq!(problems, ["message `a` uses field tag 3, which is retired"]);
    let (_, problems) = check(&[descriptor("a", &[1, 2, 3])], BITS, &rendered);
    assert_eq!(
        problems.len(),
        1,
        "regenerating cannot bless a recycled tag"
    );
}

#[test]
fn moved_flag_bits_retire_the_old_bit_and_it_stays_retired() {
    let lock = committed(&[], BITS);
    let moved: &[(&str, u8)] = &[("compressed", 0x01), ("trace", 0x04)];
    let (rendered, problems) = check(&[], moved, &lock);
    assert!(problems.is_empty());
    assert!(rendered.contains("bits: compressed=0x01 trace=0x04\n  retired: 0x02\n"));
    let reused: &[(&str, u8)] = &[("compressed", 0x01), ("trace", 0x04), ("sealed", 0x02)];
    let (_, problems) = check(&[], reused, &rendered);
    assert_eq!(
        problems,
        ["flag `sealed` of `frame` uses bit 0x02, which is retired"]
    );
}

#[test]
fn vanished_sections_stay_with_every_tag_retired() {
    let lock = committed(&[descriptor("a", &[1]), descriptor("b", &[1, 2])], BITS);
    let (rendered, problems) = check(&[descriptor("a", &[1])], BITS, &lock);
    assert!(problems.is_empty());
    assert!(rendered.contains("message b\n  fields:\n  retired: 1 2\n"));
}

#[test]
fn a_section_declared_twice_is_a_problem() {
    let (_, problems) = code_of(&[descriptor("a", &[1]), descriptor("a", &[2])], &[]);
    assert_eq!(problems, ["message section `a` is declared twice"]);
}

// ---- decoder fuzzing --------------------------------------------------------

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// Every message body in the golden fixture: RPC frames as they are,
/// storage frames unwrapped, WAL files split into their frame bodies (`len
/// u32 | checksum u64 | body`), and every nested length-delimited payload
/// inside those, so each sub-message decoder sees realistic input.
#[allow(
    clippy::disallowed_types,
    reason = "splits bodies into their nested fields"
)]
fn golden_bodies() -> &'static [Vec<u8>] {
    static BODIES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    BODIES.get_or_init(|| {
        let mut bodies = Vec::new();
        for line in include_str!("wire_golden.txt").lines() {
            let (name, hex) = line.split_once(' ').unwrap();
            let bytes = unhex(hex);
            if name.starts_with("persist/") {
                bodies.push(decode_frame(&bytes).unwrap());
            } else if name.starts_with("wal/") {
                let mut rest = &bytes[..];
                while rest.len() >= 12 {
                    let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
                    bodies.push(rest[12..12 + len].to_vec());
                    rest = &rest[12 + len..];
                }
            } else {
                bodies.push(bytes);
            }
        }
        let mut i = 0;
        while i < bodies.len() {
            let mut reader = ips::codec::WireReader::new(&bodies[i]);
            let mut nested = Vec::new();
            while let Ok(Some((_, value))) = reader.next_field() {
                if let ips::codec::FieldValue::Bytes(b) = value {
                    nested.push(b.to_vec());
                }
            }
            bodies.extend(nested);
            i += 1;
        }
        bodies
    })
}

/// Run every declared decoder on `input`; any panic fails with the decoder
/// and the input named.
fn decode_everywhere(input: &[u8]) {
    for m in declared_messages() {
        let outcome = catch_unwind(AssertUnwindSafe(|| (m.decode)(input)));
        assert!(
            outcome.is_ok(),
            "decoder `{}` panicked on {input:02x?}",
            m.names[0]
        );
    }
}

proptest! {
    #[test]
    fn every_decoder_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        decode_everywhere(&bytes);
    }

    #[test]
    #[allow(clippy::disallowed_types, reason = "hand-crafts well-formed fields")]
    fn every_decoder_survives_arbitrary_well_formed_fields(
        fields in proptest::collection::vec(
            (1u32..20, 0u8..3, any::<u64>(), proptest::collection::vec(any::<u8>(), 0..24)),
            0..12,
        ),
    ) {
        // Valid tags and lengths with arbitrary payloads reach the match
        // arms that raw garbage rarely gets past, e.g. a packed count list
        // longer than a count vector may be.
        let mut w = ips::codec::WireWriter::new();
        for (tag, wire_type, scalar, payload) in &fields {
            match wire_type {
                0 => w.put_u64(*tag, *scalar),
                1 => w.put_fixed64(*tag, *scalar),
                _ => w.put_bytes(*tag, payload),
            }
        }
        decode_everywhere(&w.into_bytes());
    }

    #[test]
    fn every_decoder_survives_mutated_and_truncated_golden_bytes(
        pick in any::<usize>(),
        at in any::<usize>(),
        byte in any::<u8>(),
        cut in any::<usize>(),
    ) {
        let bodies = golden_bodies();
        let body = &bodies[pick % bodies.len()];
        decode_everywhere(&body[..cut % (body.len() + 1)]);
        if !body.is_empty() {
            let mut mutated = body.clone();
            mutated[at % body.len()] = byte;
            decode_everywhere(&mutated);
        }
    }
}
