//! Metrics coverage: every instrument a serving crate declares is moved by
//! serving code.
//!
//! A `Counter`, `Gauge`, `HitRatio` or `Histogram` that nothing updates
//! reads as a permanently healthy zero on a dashboard. So each struct field
//! of one of those types (path-qualified or not) in the serving crates must
//! be mutated in their non-test code, as `.field.<mutator>(` or, through a
//! composite such as `HitRatio`, `.field.<sub>.<mutator>(`. Fields match by
//! name across the crates, so the check fires only when a name is never
//! touched. A line scan is enough: `tests.rs` files are skipped, `//`
//! comments dropped, and a `#[cfg(test)]` on anything longer than a
//! one-line item (`mod tests;`) ends a file's non-test part.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// The serving crates, `ips-` prefix dropped.
const SERVING_CRATES: &str = "types codec trace kv core cluster ingest";
const METRIC_TYPES: [&str; 4] = ["Counter", "Gauge", "HitRatio", "Histogram"];
const MUTATORS: [&str; 6] = ["inc(", "add(", "sub(", "set(", "record(", "merge("];

fn ident_char(c: char) -> bool {
    c == '_' || c.is_ascii_alphanumeric()
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(ident_char)
}

/// `(line number, code)` of `src`'s non-test part, comments dropped.
fn serving_lines(src: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut lines = src.lines().zip(1..);
    while let Some((line, n)) = lines.next() {
        if line.trim() == "#[cfg(test)]" {
            match lines.next() {
                Some((item, _)) if item.trim_end().ends_with(';') => continue,
                _ => break,
            }
        }
        out.push((n, line.split("//").next().unwrap_or_default()));
    }
    out
}

/// Each metric field declared in `files`, as `file:line Struct.field`, and
/// whether serving code mutates it.
fn scan<S: AsRef<str>>(files: &[(S, S)]) -> Vec<(String, bool)> {
    let mut declared = Vec::new();
    let mut code = String::new();
    for (file, src) in files {
        let (file, lines) = (file.as_ref(), serving_lines(src.as_ref()));
        let (mut strukt, mut depth) = ("", 0);
        for &(n, line) in &lines {
            if depth == 0 {
                let mut words = line.split_whitespace().skip_while(|w| *w != "struct");
                let Some(name) = words.nth(1) else { continue };
                strukt = name.split(|c| !ident_char(c)).next().unwrap_or_default();
            } else if let (1, Some((field, ty))) = (depth, line.split_once(':')) {
                let name = field.split_whitespace().last().unwrap_or_default();
                let ty = ty.trim().trim_end_matches(',').rsplit("::").next();
                if is_ident(name) && ty.is_some_and(|ty| METRIC_TYPES.contains(&ty)) {
                    declared.push((format!("{file}:{n} {strukt}.{name}"), name));
                }
            }
            depth += line.matches('{').count() as i32 - line.matches('}').count() as i32;
        }
        code.extend(lines.iter().flat_map(|(_, l)| l.split_whitespace()));
    }
    // With whitespace gone, a chain split over lines reads as one.
    let segments: Vec<&str> = code.split('.').collect();
    let calls = |i: usize| {
        segments
            .get(i)
            .is_some_and(|s| MUTATORS.iter().any(|m| s.starts_with(m)))
    };
    let mutated: BTreeSet<&str> = (1..segments.len())
        .filter(|&i| is_ident(segments[i]))
        .filter(|&i| {
            calls(i + 1) || segments.get(i + 1).is_some_and(|s| is_ident(s)) && calls(i + 2)
        })
        .map(|i| segments[i])
        .collect();
    declared
        .into_iter()
        .map(|(at, name)| (at, mutated.contains(name)))
        .collect()
}

/// `(path from root, source)` of each `.rs` file under `dir` but `tests.rs`.
fn rs_files(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rs_files(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") && !path.ends_with("tests.rs") {
            let rel = path.strip_prefix(root).unwrap().display().to_string();
            out.push((rel, fs::read_to_string(&path).unwrap()));
        }
    }
}

#[test]
fn every_serving_metric_is_mutated() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for krate in SERVING_CRATES.split(' ') {
        let src = root.join(format!("crates/ips-{krate}/src"));
        rs_files(&root, &src, &mut files);
    }
    files.sort();
    let declared = scan(&files);
    assert!(!declared.is_empty(), "the scan found no metric fields");
    let dead: Vec<_> = declared.iter().filter(|(_, live)| !live).collect();
    assert!(dead.is_empty(), "never mutated, so always zero: {dead:#?}");
}

#[test]
fn a_field_never_mutated_is_reported_with_its_line() {
    let src = "pub struct S {\n    pub served: Counter,\n    pub(crate) dead: ips_metrics::Gauge,\n    \
               label: Vec<(String, Histogram)>,\n}\nfn f(s: &S) {\n    s.served\n        .inc();\n}\n";
    let want = [
        ("a.rs:2 S.served".into(), true),
        ("a.rs:3 S.dead".into(), false),
    ];
    assert_eq!(scan(&[("a.rs", src)]), want);
}

#[test]
fn a_mutation_through_a_composite_keeps_the_field_alive() {
    let src = "struct S {\n    ratio: HitRatio,\n}\nfn f() { self.s.ratio.hits.inc(); }\n";
    assert_eq!(scan(&[("a.rs", src)]), [("a.rs:2 S.ratio".into(), true)]);
}

#[test]
fn mutations_in_test_code_or_comments_do_not_count() {
    let src =
        "struct S {\n    ghost: Counter,\n}\n// s.ghost.inc();\nfn f() {} // s.ghost.inc();\n\
               #[cfg(test)]\nmod tests {\n    fn t() { s.ghost.inc(); }\n}\n";
    assert_eq!(scan(&[("a.rs", src)]), [("a.rs:2 S.ghost".into(), false)]);
}

#[test]
fn a_gated_test_module_declaration_does_not_end_the_scan() {
    let src =
        "#[cfg(test)]\nmod tests;\nstruct S {\n    live: Counter,\n}\nfn f() { s.live.inc(); }\n";
    assert_eq!(scan(&[("a.rs", src)]), [("a.rs:4 S.live".into(), true)]);
}
