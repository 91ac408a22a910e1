//! Metrics- and error-taxonomy coverage checks.
//!
//! Two whole-workspace analyses that close the "declared but dead"
//! observability gap:
//!
//! * **metrics-coverage** — every metric field (`Counter`/`Gauge`/
//!   `HitRatio`/`Histogram`) declared on a stats struct in a serving crate
//!   must be mutated somewhere in serving (non-test) code. A counter that is
//!   declared, exported, and graphed but never incremented reads as a
//!   permanently-healthy zero on the dashboard — the worst kind of broken
//!   instrument. Matching is by field name across the serving crates
//!   (conservative: any mutation of a same-named field anywhere counts),
//!   so the rule only fires when a name is *never* touched.
//!
//! * **error-taxonomy** — every [`IpsError`] variant must (a) have a wire
//!   tag in `encode_error` *and* `decode_error` in `ips-cluster/src/rpc.rs`
//!   (an unmapped variant collapses to a generic error across the RPC
//!   boundary, losing its retry semantics exactly where they matter), and
//!   (b) be classified: either listed in `is_retryable()`/`is_overload()`
//!   or explicitly asserted terminal in the error-module tests. New
//!   variants must take a position on retryability, not inherit silence.
//!
//! Both rules are waivable with `// lint: allow(<rule>, reason = "...")`
//! on (or immediately before) the declaration line.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

use crate::lexer::{self, Tok, TokKind};
use crate::lint::{collect_rs_files, Allows, Violation, SERVING_CRATES};

/// Metric-valued types from `ips-metrics` that require a live mutation site.
const METRIC_TYPES: &[&str] = &["Counter", "Gauge", "HitRatio", "Histogram"];

/// Methods that count as mutating a metric (reads like `get`/`take`/
/// `snapshot` do not keep an instrument alive).
const MUTATORS: &[&str] = &["inc", "add", "sub", "set", "record", "merge"];

const ERROR_FILE: &str = "crates/ips-types/src/error.rs";
const RPC_FILE: &str = "crates/ips-cluster/src/rpc.rs";

/// A declared metric field awaiting a mutation site.
struct MetricField {
    file: String,
    line: usize,
    strukt: String,
    name: String,
    ty: &'static str,
}

/// Run both coverage checks over the workspace at `root`.
pub fn check_tree(root: &Path) -> io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    metrics_coverage(root, &mut out)?;
    error_taxonomy(root, &mut out)?;
    Ok(out)
}

// ---- metrics coverage -------------------------------------------------------

fn metrics_coverage(root: &Path, out: &mut Vec<Violation>) -> io::Result<()> {
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
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let src = fs::read_to_string(&path)?;
            let toks = lexer::lex(&src);
            let mask = lexer::test_mask(&toks);
            let (allows, _) = Allows::build(&toks);

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
    Ok(())
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

// ---- error taxonomy ---------------------------------------------------------

fn error_taxonomy(root: &Path, out: &mut Vec<Violation>) -> io::Result<()> {
    let error_path = root.join(ERROR_FILE);
    let rpc_path = root.join(RPC_FILE);
    if !error_path.is_file() || !rpc_path.is_file() {
        return Ok(()); // partial tree (unit-test fixtures): nothing to check
    }
    let error_src = fs::read_to_string(&error_path)?;
    let rpc_src = fs::read_to_string(&rpc_path)?;

    let etoks = lexer::lex(&error_src);
    let emask = lexer::test_mask(&etoks);
    let (allows, _) = Allows::build(&etoks);
    let ect: Vec<&Tok> = etoks
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    let ecmask: Vec<bool> = etoks
        .iter()
        .zip(&emask)
        .filter(|(t, _)| t.kind != TokKind::Comment)
        .map(|(_, m)| *m)
        .collect();

    let variants = enum_variants(&ect, "IpsError");
    if variants.is_empty() {
        return Ok(());
    }

    // Classification sources: the two classifier bodies plus anything the
    // error-module tests assert about (a test that proves `!X.is_retryable()`
    // is an explicit "terminal" classification).
    let retryable = fn_body_idents(&ect, "is_retryable");
    let overload = fn_body_idents(&ect, "is_overload");
    let tested: BTreeSet<String> = ect
        .iter()
        .zip(&ecmask)
        .filter(|(t, m)| **m && t.kind == TokKind::Ident)
        .map(|(t, _)| t.text.clone())
        .collect();

    let rtoks = lexer::lex(&rpc_src);
    let rct: Vec<&Tok> = rtoks
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    let encoded = fn_body_idents(&rct, "encode_error");
    let decoded = fn_body_idents(&rct, "decode_error");

    for (name, line) in &variants {
        let waived = allows.waives(*line, "error-taxonomy");
        if !encoded.contains(name) && !waived {
            out.push(Violation {
                file: ERROR_FILE.to_string(),
                line: *line,
                rule: "error-taxonomy",
                message: format!(
                    "IpsError::{name} has no wire tag in encode_error ({RPC_FILE}) — it \
                     cannot cross the RPC boundary as itself"
                ),
                hint: "map the variant to a fresh tag in encode_error and decode_error \
                       (see wire_schema.lock for free tags)",
            });
        }
        if !decoded.contains(name) && !waived {
            out.push(Violation {
                file: ERROR_FILE.to_string(),
                line: *line,
                rule: "error-taxonomy",
                message: format!(
                    "IpsError::{name} is never produced by decode_error ({RPC_FILE}) — \
                     remote peers can send it but this side cannot reconstruct it"
                ),
                hint: "add the variant's tag arm to decode_error's `match tag`",
            });
        }
        if !retryable.contains(name)
            && !overload.contains(name)
            && !tested.contains(name)
            && !waived
        {
            out.push(Violation {
                file: ERROR_FILE.to_string(),
                line: *line,
                rule: "error-taxonomy",
                message: format!(
                    "IpsError::{name} has no retry/overload classification — callers \
                     cannot tell whether retry or failover is safe"
                ),
                hint: "list it in is_retryable()/is_overload(), or assert its terminal \
                       classification in the error-module tests",
            });
        }
    }
    Ok(())
}

/// `(variant name, line)` pairs of `enum <name> { ... }`.
fn enum_variants(ct: &[&Tok], enum_name: &str) -> Vec<(String, usize)> {
    let mut p = 0;
    while p < ct.len() {
        if ct[p].is_ident("enum") && ct.get(p + 1).is_some_and(|t| t.is_ident(enum_name)) {
            break;
        }
        p += 1;
    }
    if p >= ct.len() {
        return Vec::new();
    }
    let mut q = p + 2;
    while q < ct.len() && !ct[q].is_punct('{') {
        q += 1;
    }
    if q >= ct.len() {
        return Vec::new();
    }
    let end = matching(ct, q, '{', '}');
    let mut variants = Vec::new();
    let mut i = q + 1;
    while i < end {
        let t = ct[i];
        if t.kind == TokKind::Ident && t.text.starts_with(|c: char| c.is_ascii_uppercase()) {
            variants.push((t.text.clone(), t.line));
            // Skip the payload and trailing comma.
            let mut depth = 0i32;
            while i < end {
                let t = ct[i];
                if t.is_punct('(') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct('}') {
                    depth -= 1;
                } else if depth == 0 && t.is_punct(',') {
                    break;
                }
                i += 1;
            }
        }
        i += 1;
    }
    variants
}

/// All idents inside the body of the first `fn <name>` in the stream.
fn fn_body_idents(ct: &[&Tok], name: &str) -> BTreeSet<String> {
    let mut p = 0;
    while p < ct.len() {
        if ct[p].is_ident("fn") && ct.get(p + 1).is_some_and(|t| t.is_ident(name)) {
            break;
        }
        p += 1;
    }
    let mut out = BTreeSet::new();
    if p >= ct.len() {
        return out;
    }
    let mut q = p + 2;
    while q < ct.len() && !ct[q].is_punct('{') {
        q += 1;
    }
    if q >= ct.len() {
        return out;
    }
    let end = matching(ct, q, '{', '}');
    for t in &ct[q + 1..end] {
        if t.kind == TokKind::Ident {
            out.insert(t.text.clone());
        }
    }
    out
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
    fn enum_variants_and_bodies_are_extracted() {
        let src = r#"
pub enum IpsError {
    UnknownTable(TableId),
    ProfileNotFound { table: TableId, profile: ProfileId },
    ShuttingDown,
}
impl IpsError {
    pub fn is_retryable(&self) -> bool {
        matches!(self, IpsError::ShuttingDown)
    }
}
"#;
        let (ct, _) = prep(src);
        let refs: Vec<&Tok> = ct.iter().collect();
        let vs = enum_variants(&refs, "IpsError");
        let names: Vec<&str> = vs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["UnknownTable", "ProfileNotFound", "ShuttingDown"]);
        let body = fn_body_idents(&refs, "is_retryable");
        assert!(body.contains("ShuttingDown"));
        assert!(!body.contains("UnknownTable"));
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

    #[test]
    fn unclassified_and_unmapped_variant_is_flagged() {
        let root = std::env::temp_dir().join(format!(
            "xtask-coverage-test-{}-{}",
            std::process::id(),
            line!()
        ));
        fs::create_dir_all(root.join("crates/ips-types/src")).unwrap();
        fs::create_dir_all(root.join("crates/ips-cluster/src")).unwrap();
        fs::write(
            root.join(ERROR_FILE),
            r#"
pub enum IpsError {
    Rpc(String),
    Ghost(String),
}
impl IpsError {
    pub fn is_retryable(&self) -> bool { matches!(self, IpsError::Rpc(_)) }
    pub fn is_overload(&self) -> bool { false }
}
"#,
        )
        .unwrap();
        fs::write(
            root.join(RPC_FILE),
            r#"
fn encode_error(w: &mut W, e: &IpsError) {
    match e { IpsError::Rpc(m) => w.put_u64(1, 9), _ => {} }
}
fn decode_error(b: &[u8]) -> IpsError {
    IpsError::Rpc(String::new())
}
"#,
        )
        .unwrap();
        let v = check_tree(&root).unwrap();
        let ghost: Vec<_> = v.iter().filter(|x| x.message.contains("Ghost")).collect();
        assert_eq!(
            ghost.len(),
            3,
            "unmapped enc, unmapped dec, unclassified: {v:?}"
        );
        assert!(ghost.iter().all(|x| x.rule == "error-taxonomy"));
        assert!(ghost.iter().all(|x| x.file == ERROR_FILE && x.line == 4));
        let rpc_ok: Vec<_> = v.iter().filter(|x| x.message.contains("::Rpc")).collect();
        assert!(rpc_ok.is_empty(), "{rpc_ok:?}");
        fs::remove_dir_all(&root).ok();
    }
}
