//! Workspace task runner.
//!
//! ```text
//! cargo run -p xtask -- check [--root <dir>]
//! ```
//!
//! `check` runs the two source checks clippy cannot express and exits
//! non-zero with `file:line` diagnostics on violations:
//!
//! * `wire-primitives` — non-test code outside `ips-codec` must not name
//!   `WireWriter` / `WireReader`. Every wire message is declared once with
//!   `ips_codec::wire_message!`, which generates the encoder, the decoder
//!   (with its skip arm) and the descriptor `wire_schema.lock` is checked
//!   against; a hand-written `put_*` / `next_field` pair is schema the lock
//!   cannot see. Clippy's `disallowed-types` cannot carry this rule: it also
//!   fires inside every `wire_message!` expansion.
//! * `metrics-coverage` — see [`coverage`].
//!
//! Both run on the token stream of [`lexer`], so string and comment
//! contents never trip them, and both honour a line waiver with a mandatory
//! reason: `// lint: allow(<rule>, reason = "...")`. The other house rules
//! are clippy lints; DESIGN.md §11 maps each rule to what enforces it.

mod coverage;
mod lexer;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use coverage::{collect_rs_files, rel_path, Allows, Violation};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = args
        .iter()
        .position(|a| a == "--root")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(workspace_root);
    if args.first().map(String::as_str) != Some("check") {
        eprintln!("usage: cargo run -p xtask -- check [--root <dir>]");
        return ExitCode::FAILURE;
    }
    let run = || -> io::Result<Vec<Violation>> {
        let mut violations = check_wire_primitives(&root)?;
        violations.extend(coverage::check_tree(&root)?);
        Ok(violations)
    };
    match run() {
        Ok(violations) if violations.is_empty() => {
            println!("xtask check: clean");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                eprintln!("{v}");
            }
            eprintln!("xtask check: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask check: io error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run `wire-primitives` over `crates/`, the repository-level `tests/` and
/// `examples/`. `vendor/` is exempt.
fn check_wire_primitives(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        collect_rs_files(&root.join(dir), &mut files)?;
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let rel = rel_path(root, &path);
        out.extend(wire_primitives(&rel, &fs::read_to_string(&path)?));
    }
    Ok(out)
}

/// `WireWriter` / `WireReader` named in `rel`'s non-test code, one finding
/// per line. The codec crate and whole test files (integration tests,
/// benches, `tests.rs` modules) are exempt.
fn wire_primitives(rel: &str, src: &str) -> Vec<Violation> {
    let test_file = rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.ends_with("/tests.rs");
    if test_file || rel.starts_with("crates/ips-codec/") {
        return Vec::new();
    }
    let toks = lexer::lex(src);
    let in_test = lexer::test_mask(&toks);
    let allows = Allows::build(&toks);
    let mut out: Vec<Violation> = toks
        .iter()
        .zip(in_test)
        .filter(|(t, in_test)| {
            !in_test
                && (t.is_ident("WireWriter") || t.is_ident("WireReader"))
                && !allows.waives(t.line, "wire-primitives")
        })
        .map(|(t, _)| Violation {
            file: rel.to_string(),
            line: t.line,
            rule: "wire-primitives",
            message: format!("`{}` named outside ips-codec", t.text),
            hint: "declare the message with ips_codec::wire_message! so its encoder, decoder \
                   and wire_schema.lock descriptor come from one table",
        })
        .collect();
    out.dedup_by_key(|v| v.line);
    out
}

/// The workspace root, two levels up from this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = "crates/ips-core/src/a.rs";

    fn lines(violations: &[Violation]) -> Vec<usize> {
        violations.iter().map(|v| v.line).collect()
    }

    #[test]
    fn wire_primitives_flagged_outside_codec_non_test_code() {
        let src = "use ips_codec::wire::WireWriter;\nfn f(r: WireReader) {}\n";
        assert_eq!(lines(&wire_primitives(A, src)), [1, 2]);
        assert!(wire_primitives("crates/ips-codec/src/wire.rs", src).is_empty());
        assert_eq!(
            lines(&wire_primitives("crates/ips-bench/src/lib.rs", src)),
            [1, 2]
        );
    }

    #[test]
    fn wire_primitives_allowed_in_tests_macros_and_strings() {
        let test_code = "#[cfg(test)]\nmod tests {\n fn t() { let w = WireWriter::new(); }\n}\n";
        assert!(wire_primitives(A, test_code).is_empty());
        let test_file = "fn t() { let w = WireWriter::new(); }\n";
        assert!(wire_primitives("crates/ips-core/tests/p.rs", test_file).is_empty());
        let declared = "wire_message! { struct S(\"s\"); }\nconst D: &str = \"WireReader\";\n";
        assert!(wire_primitives(A, declared).is_empty());
    }

    #[test]
    fn allow_annotation_waives_same_line() {
        let src = "fn f(r: WireReader) {} // lint: allow(wire-primitives, reason = \"fixture\")\n";
        assert!(wire_primitives(A, src).is_empty());
    }

    #[test]
    fn allow_annotation_waives_next_line() {
        let src = "// lint: allow(wire-primitives, reason = \"fixture\")\n\
                   fn f(r: WireReader) {}\n\
                   fn g(r: WireReader) {}\n";
        let v = wire_primitives(A, src);
        assert_eq!(lines(&v), [3], "allow must not leak past one line");
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let src = "fn f(r: WireReader) {} // lint: allow(wire-primitives)\n";
        assert_eq!(lines(&wire_primitives(A, src)), [1]);
    }

    #[test]
    fn allow_for_a_different_rule_does_not_waive() {
        let src = "fn f(r: WireReader) {} // lint: allow(metrics-coverage, reason = \"nope\")\n";
        assert_eq!(lines(&wire_primitives(A, src)), [1]);
    }
}
