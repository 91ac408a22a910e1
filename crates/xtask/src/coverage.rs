//! Metrics coverage: the "declared but dead" observability check.
//!
//! Every metric field (`Counter`/`Gauge`/`HitRatio`/`Histogram`) declared
//! on a stats struct in a serving crate must be mutated somewhere in
//! serving (non-test) code. A counter that is declared, exported, and
//! graphed but never incremented reads as a permanently-healthy zero on the
//! dashboard — the worst kind of broken instrument. Matching is by field
//! name across the serving crates (conservative: any mutation of a
//! same-named field anywhere counts), so the rule only fires when a name is
//! *never* touched.
//!
//! Waivable with `// lint: allow(metrics-coverage, reason = "...")` on (or
//! immediately before) the declaration line. This module also holds what
//! both `xtask` checks share: [`Violation`], the waiver table and the file
//! walk.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Tok, TokKind};

/// Crates whose non-test code sits on the serving path.
const SERVING_CRATES: &[&str] = &[
    "ips-types",
    "ips-core",
    "ips-kv",
    "ips-cluster",
    "ips-codec",
    "ips-ingest",
    "ips-trace",
];

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
    pub hint: &'static str,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} (fix: {})",
            self.file, self.line, self.rule, self.message, self.hint
        )
    }
}

/// Every `.rs` file under `dir`, skipping build output.
pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, with `/` separators.
pub(crate) fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The rule a `// lint: allow(<rule>, reason = "...")` comment waives. An
/// annotation without a non-empty reason waives nothing.
fn parse_allow(comment: &str) -> Option<String> {
    let start = comment.find("lint: allow(")?;
    let rest = &comment[start + "lint: allow(".len()..];
    let (rule, reason) = rest[..rest.find(')')?].split_once(',')?;
    let reason = reason.trim().strip_prefix("reason")?.trim_start();
    let reason = reason.strip_prefix('=')?.trim_start().strip_prefix('"')?;
    let rule = rule.trim();
    (!rule.is_empty() && reason.trim_end_matches('"').trim().len() > 1).then(|| rule.to_string())
}

/// The per-file waiver table: a `// lint: allow(...)` comment at the end of
/// a line waives that line; on a line of its own it waives the next line.
pub(crate) struct Allows {
    by_line: HashMap<usize, Vec<String>>,
}

impl Allows {
    pub(crate) fn build(toks: &[Tok]) -> Allows {
        let code_lines: HashSet<usize> = toks
            .iter()
            .filter(|t| t.kind != TokKind::Comment)
            .map(|t| t.line)
            .collect();
        let mut by_line: HashMap<usize, Vec<String>> = HashMap::new();
        for t in toks {
            if t.kind != TokKind::Comment || !t.text.starts_with("//") {
                continue;
            }
            if let Some(rule) = parse_allow(&t.text) {
                let target = if code_lines.contains(&t.line) {
                    t.line
                } else {
                    t.line + 1
                };
                by_line.entry(target).or_default().push(rule);
            }
        }
        Allows { by_line }
    }

    pub(crate) fn waives(&self, line: usize, rule: &str) -> bool {
        self.by_line
            .get(&line)
            .is_some_and(|rules| rules.iter().any(|r| r == rule))
    }
}

/// Metric-valued types from `ips-metrics` that require a live mutation site.
const METRIC_TYPES: &[&str] = &["Counter", "Gauge", "HitRatio", "Histogram"];

/// Methods that count as mutating a metric (reads like `get`/`take`/
/// `snapshot` do not keep an instrument alive).
const MUTATORS: &[&str] = &["inc", "add", "sub", "set", "record", "merge"];

/// A declared metric field awaiting a mutation site.
struct MetricField {
    file: String,
    line: usize,
    strukt: String,
    name: String,
    ty: &'static str,
}

/// Run the coverage check over the workspace at `root`.
pub fn check_tree(root: &Path) -> io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    let mut declared: Vec<MetricField> = Vec::new();
    let mut waivers: BTreeMap<String, Allows> = BTreeMap::new();
    let mut mutated: BTreeSet<String> = BTreeSet::new();

    for krate in SERVING_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        for path in files {
            let rel = rel_path(root, &path);
            let src = fs::read_to_string(&path)?;
            let toks = lexer::lex(&src);
            let mask = lexer::test_mask(&toks);
            let allows = Allows::build(&toks);

            let mut ct: Vec<&Tok> = Vec::with_capacity(toks.len());
            let mut cmask: Vec<bool> = Vec::with_capacity(toks.len());
            for (i, t) in toks.iter().enumerate() {
                if t.kind != TokKind::Comment {
                    ct.push(t);
                    cmask.push(mask[i]);
                }
            }
            collect_metric_fields(&ct, &cmask, &rel, &mut declared);
            collect_mutations(&ct, &cmask, &mut mutated);
            waivers.insert(rel, allows);
        }
    }

    for f in &declared {
        if mutated.contains(&f.name) {
            continue;
        }
        if waivers
            .get(&f.file)
            .is_some_and(|a| a.waives(f.line, "metrics-coverage"))
        {
            continue;
        }
        out.push(Violation {
            file: f.file.clone(),
            line: f.line,
            rule: "metrics-coverage",
            message: format!(
                "{} field `{}.{}` is declared but never mutated in serving code — \
                 the instrument always reads zero",
                f.ty, f.strukt, f.name
            ),
            hint: "increment it at the event site, or delete the field (a dead metric \
                   on a dashboard hides real regressions)",
        });
    }
    Ok(out)
}

/// `name: Counter,`-style fields inside `struct X { ... }` bodies
/// (non-test code only).
fn collect_metric_fields(ct: &[&Tok], cmask: &[bool], rel: &str, out: &mut Vec<MetricField>) {
    let mut p = 0;
    while p < ct.len() {
        if !ct[p].is_ident("struct") || cmask[p] {
            p += 1;
            continue;
        }
        let Some(strukt) = ct.get(p + 1).filter(|t| t.kind == TokKind::Ident) else {
            p += 1;
            continue;
        };
        // Walk to the struct body `{` (skipping generics); `;` or `(` means
        // unit/tuple struct — no named fields.
        let mut q = p + 2;
        let mut angle = 0i32;
        while q < ct.len() {
            let t = ct[q];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if angle == 0 && (t.is_punct('{') || t.is_punct(';') || t.is_punct('(')) {
                break;
            }
            q += 1;
        }
        if q >= ct.len() || !ct[q].is_punct('{') {
            p = q;
            continue;
        }
        let end = matching(ct, q, '{', '}');
        // Fields at the body's base depth: `name : <type tokens> ,`
        let mut i = q + 1;
        while i < end {
            if ct[i].kind == TokKind::Ident && ct.get(i + 1).is_some_and(|t| t.is_punct(':')) {
                let name = &ct[i];
                // The type region runs to the field-separating comma.
                let mut j = i + 2;
                let mut depth = 0i32;
                let mut metric_ty: Option<&'static str> = None;
                while j < end {
                    let t = ct[j];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
                        depth += 1;
                    } else if t.is_punct(')')
                        || t.is_punct(']')
                        || t.is_punct('}')
                        || t.is_punct('>')
                    {
                        depth -= 1;
                    } else if depth == 0 && t.is_punct(',') {
                        break;
                    } else if t.kind == TokKind::Ident {
                        if let Some(ty) = METRIC_TYPES.iter().find(|m| t.is_ident(m)) {
                            metric_ty = Some(ty);
                        }
                    }
                    j += 1;
                }
                if let Some(ty) = metric_ty {
                    out.push(MetricField {
                        file: rel.to_string(),
                        line: name.line,
                        strukt: strukt.text.clone(),
                        name: name.text.clone(),
                        ty,
                    });
                }
                i = j + 1;
            } else {
                i += 1;
            }
        }
        p = end + 1;
    }
}

/// Field names reached by a mutator call in non-test code:
/// `.<field>.<mutator>(` directly, or `.<field>.<sub>.<mutator>(` for
/// composites (`cache.hit_ratio.hits.inc()` keeps `hit_ratio` alive too).
fn collect_mutations(ct: &[&Tok], cmask: &[bool], out: &mut BTreeSet<String>) {
    for p in 0..ct.len() {
        if cmask[p] || !ct[p].is_punct('.') {
            continue;
        }
        let Some(field) = ct.get(p + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        // Direct: .field.mutator(
        if ct.get(p + 2).is_some_and(|t| t.is_punct('.'))
            && ct
                .get(p + 3)
                .is_some_and(|t| MUTATORS.iter().any(|m| t.is_ident(m)))
            && ct.get(p + 4).is_some_and(|t| t.is_punct('('))
        {
            out.insert(field.text.clone());
        }
        // One level of nesting: .field.sub.mutator(
        if ct.get(p + 2).is_some_and(|t| t.is_punct('.'))
            && ct.get(p + 3).is_some_and(|t| t.kind == TokKind::Ident)
            && ct.get(p + 4).is_some_and(|t| t.is_punct('.'))
            && ct
                .get(p + 5)
                .is_some_and(|t| MUTATORS.iter().any(|m| t.is_ident(m)))
            && ct.get(p + 6).is_some_and(|t| t.is_punct('('))
        {
            out.insert(field.text.clone());
        }
    }
}

fn matching(ct: &[&Tok], open: usize, o: char, c: char) -> usize {
    let mut depth = 0i32;
    for (i, t) in ct.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    ct.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prep(src: &str) -> (Vec<Tok>, Vec<bool>) {
        let toks = lexer::lex(src);
        let mask = lexer::test_mask(&toks);
        let mut ct = Vec::new();
        let mut cm = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Comment {
                ct.push(t.clone());
                cm.push(mask[i]);
            }
        }
        (ct, cm)
    }

    #[test]
    fn metric_fields_are_collected_with_lines() {
        let src = r#"
pub struct CacheStats {
    pub hits: Counter,
    pub bytes: Gauge,
    pub ratio: HitRatio,
    pub lat: ips_metrics::Histogram,
    pub label: String,
}
"#;
        let (ct, cm) = prep(src);
        let refs: Vec<&Tok> = ct.iter().collect();
        let mut out = Vec::new();
        collect_metric_fields(&refs, &cm, "s.rs", &mut out);
        let names: Vec<&str> = out.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["hits", "bytes", "ratio", "lat"]);
        assert_eq!(out[0].line, 3);
        assert_eq!(out[0].strukt, "CacheStats");
    }

    #[test]
    fn mutations_cover_direct_and_nested_paths() {
        let src = r#"
fn serve(&self) {
    self.stats.hits.inc();
    self.stats.lat.record(5);
    node.metrics.ratio.hits.inc();
    let _ = self.stats.bytes.get();
}
"#;
        let (ct, cm) = prep(src);
        let refs: Vec<&Tok> = ct.iter().collect();
        let mut out = BTreeSet::new();
        collect_mutations(&refs, &cm, &mut out);
        assert!(out.contains("hits"));
        assert!(out.contains("lat"));
        assert!(out.contains("ratio"), "nested composite path counts");
        assert!(!out.contains("bytes"), "get() is a read, not a mutation");
    }

    #[test]
    fn test_code_mutations_do_not_count() {
        let src = r#"
#[cfg(test)]
mod tests {
    fn t(&self) { self.stats.ghost.inc(); }
}
"#;
        let (ct, cm) = prep(src);
        let refs: Vec<&Tok> = ct.iter().collect();
        let mut out = BTreeSet::new();
        collect_mutations(&refs, &cm, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn end_to_end_metrics_violation_and_fix() {
        let root = std::env::temp_dir().join(format!(
            "xtask-coverage-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let src_dir = root.join("crates/ips-core/src");
        fs::create_dir_all(&src_dir).unwrap();
        fs::write(
            src_dir.join("stats.rs"),
            "pub struct S {\n    pub served: Counter,\n    pub dead: Counter,\n}\n\
             impl S {\n    pub fn on_req(&self) { self.served.inc(); }\n}\n",
        )
        .unwrap();
        let v = check_tree(&root).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "metrics-coverage");
        assert!(v[0].message.contains("S.dead"));
        assert_eq!(v[0].file, "crates/ips-core/src/stats.rs");
        assert_eq!(v[0].line, 3);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn waiver_silences_metrics_violation() {
        let root = std::env::temp_dir().join(format!(
            "xtask-coverage-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let src_dir = root.join("crates/ips-core/src");
        fs::create_dir_all(&src_dir).unwrap();
        fs::write(
            src_dir.join("stats.rs"),
            "pub struct S {\n    // lint: allow(metrics-coverage, reason = \"wired next PR\")\n    pub dead: Counter,\n}\n",
        )
        .unwrap();
        let v = check_tree(&root).unwrap();
        assert!(v.is_empty(), "{v:?}");
        fs::remove_dir_all(&root).ok();
    }
}
