//! The source-level lint pass behind `cargo run -p xtask -- check`.
//!
//! Eight repo-specific rules that clippy cannot express:
//!
//! * `unwrap` — no `.unwrap()` / `.expect(` in non-test code of the serving
//!   crates; a panic in the serving path takes down every scenario sharing
//!   the instance, so fallible paths must return `IpsError` instead.
//! * `std-lock` — no `std::sync::{Mutex, RwLock}` anywhere in the workspace:
//!   every lock must go through the vendored `parking_lot` shim so the
//!   `lock-order-tracking` instrumentation sees it.
//! * `guard-across-rpc` — no lock guard bound in a scope that also performs
//!   an RPC (`.call(` / `.dispatch(` / `.replicate(`); guards must drop
//!   before the wire or a slow peer stalls every thread behind the lock.
//! * `sleep-in-test` — no `thread::sleep` in test code, nor in serving-crate
//!   non-test code. Tests drive time through the fault-injection sim clock
//!   (`ips_types::clock`) so they stay deterministic and fast; serving code
//!   never polls on real time, because maintenance runs when the host calls
//!   `IpsInstance::tick` / `ReplicatedKv::pump`. (The rule keeps its
//!   historical name so existing waivers still match.)
//! * `wall-clock` — no `Instant::now()` / `SystemTime::now()` in serving
//!   non-test code: all timestamps must come from the injected
//!   `ips_types::Clock` (logical time) or `ips_types::clock::monotonic_micros`
//!   (span durations), so scenarios stay reproducible under the sim clock.
//!   The sim-clock plumbing in `ips-types` is the one place allowed to touch
//!   the real clock.
//! * `unbounded-retry` — a `loop` in serving non-test code that goes on
//!   the wire (`.call(` / `.dispatch(` / `.replicate(` / `attempt_once(`)
//!   must consult a deadline or an attempt bound (`deadline`, `attempts`,
//!   `tries`, `budget`, `remaining`) somewhere in its body; a retry loop
//!   with neither spins forever against a dead dependency.
//! * `encode-alloc` — no fresh buffer allocation (`.into_bytes()`,
//!   `Vec::new()`, `Vec::with_capacity(`) inside an `encode*`/`serialize*`
//!   function of a serving crate: encode hot paths run per request and per
//!   flush, so they must reuse the thread-local buffer pool
//!   (`WireWriter::pooled()` / `ips-codec`'s `take_buf`) instead of paying
//!   an allocation per call. Top-level entry points that must hand an owned
//!   `Vec<u8>` to the caller carry an annotation.
//! * `pipeline-purity` — admission, quota and deadline-shed primitives
//!   (`.try_admit(`, `quota.check(`, the `shed_*` counters/helpers) may only
//!   be touched from a `pipeline` module. The request pipeline is where
//!   every cross-cutting serving concern lives exactly once; a direct call
//!   from a handler or client orchestration file reintroduces the scattered
//!   policy the pipeline refactor removed, and skips the stage ordering
//!   (deadline before admission before quota) the pipeline guarantees.
//!
//! Any rule can be waived on a specific line with an annotation carrying a
//! mandatory reason:
//!
//! ```text
//! // lint: allow(unwrap, reason = "slice length checked two lines up")
//! ```
//!
//! placed either at the end of the offending line or on its own line
//! directly above it. An annotation without a non-empty reason is itself a
//! violation (`bad-allow`).
//!
//! The pass runs on the token stream produced by [`crate::lexer`], not on
//! raw lines: string and comment contents can never trip a rule, brace
//! depth is exact (raw strings, nested block comments and char literals are
//! lexed, not guessed), and guard/loop tracking follows real statement and
//! scope boundaries — a `let guard = self\n.state\n.lock();` wrapped across
//! three lines by rustfmt is now seen as one binding. The annotation
//! grammar remains the escape hatch for the residual false positives a
//! scanner without type information cannot avoid.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Tok, TokKind};

/// Crates whose non-test code sits on the serving path: a panic or a held
/// lock here stalls live recommendation traffic, so the strict rules apply.
pub const SERVING_CRATES: &[&str] = &[
    "ips-core",
    "ips-kv",
    "ips-cluster",
    "ips-codec",
    "ips-ingest",
    "ips-trace",
];

/// Methods that put bytes on the wire (or hand work to the replication
/// pump). A guard alive at one of these calls is rule (c).
const WIRE_METHODS: &[&str] = &["call", "dispatch", "replicate"];

/// One lint finding.
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

/// How a file is classified before linting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileKind {
    /// Non-test code in this file is serving-path code (rules a and c).
    pub serving: bool,
    /// The whole file is test code (integration tests, benches).
    pub test_file: bool,
}

/// Lint a whole workspace tree rooted at `root`. Scans `crates/` (including
/// the lint tool itself), the repository-level `tests/`, and `examples/`.
/// `vendor/` is exempt: the shims implement the primitives the rules point
/// everyone else at.
pub fn check_tree(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)?;
    collect_rs_files(&root.join("tests"), &mut files)?;
    collect_rs_files(&root.join("examples"), &mut files)?;
    files.sort();

    let mut violations = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let kind = classify(&rel);
        let src = fs::read_to_string(&path)?;
        violations.extend(lint_file(&rel, &src, kind));
    }
    Ok(violations)
}

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

/// Classify a workspace-relative path. A `tests.rs` module file under
/// `src/` counts as test code: the convention is `#[cfg(test)] mod tests;`
/// in its parent, so the file never compiles into the serving binary.
pub fn classify(rel: &str) -> FileKind {
    let test_file = rel.contains("/tests/")
        || rel.starts_with("tests/")
        || rel.contains("/benches/")
        || rel.ends_with("/tests.rs");
    let serving = SERVING_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
    FileKind { serving, test_file }
}

/// A parsed allow-annotation: which rule it waives, or a violation when the
/// annotation itself is malformed.
enum Allow {
    Rule(String),
    Malformed(&'static str),
}

fn parse_allow(comment: &str) -> Option<Allow> {
    let start = comment.find("lint: allow(")?;
    let rest = &comment[start + "lint: allow(".len()..];
    let Some(close) = rest.find(')') else {
        return Some(Allow::Malformed("unclosed `lint: allow(`"));
    };
    let body = &rest[..close];
    let mut parts = body.splitn(2, ',');
    let rule = parts.next().unwrap_or("").trim().to_string();
    let reason_ok = parts.next().is_some_and(|r| {
        let r = r.trim();
        r.strip_prefix("reason")
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('='))
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('"'))
            .is_some_and(|r| r.trim_end().trim_end_matches('"').trim().len() > 1)
    });
    if rule.is_empty() || !reason_ok {
        return Some(Allow::Malformed(
            "annotation must be `lint: allow(<rule>, reason = \"...\")` with a non-empty reason",
        ));
    }
    Some(Allow::Rule(rule))
}

/// The per-file waiver table: which rules are allowed on which lines.
///
/// Shared by the lint, schema and coverage passes so an annotation works
/// identically everywhere: a `// lint: allow(rule, reason = "...")` at the
/// end of a line waives that line; on a line of its own it waives exactly
/// the next line.
pub(crate) struct Allows {
    by_line: HashMap<usize, Vec<String>>,
}

impl Allows {
    /// Build the table from a token stream. Returns the table plus the
    /// lines carrying malformed annotations (each a `bad-allow` finding for
    /// the caller that owns diagnostics).
    pub(crate) fn build(toks: &[Tok]) -> (Allows, Vec<(usize, &'static str)>) {
        let mut code_lines: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for t in toks {
            if t.kind != TokKind::Comment {
                code_lines.insert(t.line);
            }
        }
        let mut by_line: HashMap<usize, Vec<String>> = HashMap::new();
        let mut malformed = Vec::new();
        for t in toks {
            if t.kind != TokKind::Comment || !t.text.starts_with("//") {
                continue;
            }
            match parse_allow(&t.text) {
                Some(Allow::Rule(rule)) => {
                    // A comment sharing its line with code waives that line;
                    // a comment-only line waives the line below it.
                    let target = if code_lines.contains(&t.line) {
                        t.line
                    } else {
                        t.line + 1
                    };
                    by_line.entry(target).or_default().push(rule);
                }
                Some(Allow::Malformed(why)) => malformed.push((t.line, why)),
                None => {}
            }
        }
        (Allows { by_line }, malformed)
    }

    pub(crate) fn waives(&self, line: usize, rule: &str) -> bool {
        self.by_line
            .get(&line)
            .is_some_and(|rules| rules.iter().any(|r| r == rule))
    }
}

/// One `let`-bound lock guard being tracked for rule (c).
struct ActiveGuard {
    name: String,
    depth: i32,
    line: usize,
}

/// Identifiers that count as a retry bound for rule (f): any of these inside
/// a `loop` body means the loop's exit is governed by a deadline or a
/// counted budget, not just "until it works".
const RETRY_BOUND_TOKENS: &[&str] = &["deadline", "attempts", "tries", "budget", "remaining"];

/// One `loop` being tracked for rule (f).
struct ActiveLoop {
    /// Brace depth just *before* the loop's opening `{`.
    depth: i32,
    line: usize,
    /// Body contains a wire call: this is a retry loop.
    has_wire: bool,
    /// Body consults a deadline or attempt bound.
    has_bound: bool,
    /// Waived via an `allow(unbounded-retry)` annotation on the loop header.
    waived: bool,
}

/// Lint a single file's source. Exposed (rather than only `check_tree`) so
/// the engine is unit-testable on inline snippets.
pub fn lint_file(rel: &str, src: &str, kind: FileKind) -> Vec<Violation> {
    let toks = lexer::lex(src);
    let test_mask = lexer::test_mask(&toks);

    // Comments are consumed up front (waiver table); the rules below walk
    // code tokens only, with the test mask carried alongside.
    let mut ct: Vec<&Tok> = Vec::with_capacity(toks.len());
    let mut cmask: Vec<bool> = Vec::with_capacity(toks.len());
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Comment {
            ct.push(t);
            cmask.push(test_mask[i]);
        }
    }

    let mut out = Vec::new();
    let (allows, malformed) = Allows::build(&toks);
    for (line, why) in malformed {
        out.push(Violation {
            file: rel.to_string(),
            line,
            rule: "bad-allow",
            message: why.to_string(),
            hint: "write `// lint: allow(<rule>, reason = \"why this is safe\")`",
        });
    }

    let encode_mask = encode_body_mask(&ct);

    let ident_at = |p: usize, s: &str| ct.get(p).is_some_and(|t| t.is_ident(s));
    let punct_at = |p: usize, c: char| ct.get(p).is_some_and(|t| t.is_punct(c));
    // `a::b` lexes as `a : : b`; this matches the two colons.
    let path_sep = |p: usize| punct_at(p, ':') && punct_at(p + 1, ':');

    // Rule (h): pipeline modules (and the primitives' own defining files)
    // are the only place admission/quota/shed machinery may be invoked.
    let pipeline_file = rel.contains("/pipeline/") || rel.ends_with("/pipeline.rs");

    let mut depth: i32 = 0;
    let mut guards: Vec<ActiveGuard> = Vec::new();
    let mut loops: Vec<ActiveLoop> = Vec::new();
    // Current `let` statement: (binding name, line of the `let`), plus
    // whether the statement acquired an unchained lock guard. The guard
    // becomes live at the statement's `;` — matching drop semantics, where
    // a temporary in the initializer dies at the semicolon.
    let mut stmt_let: Option<(String, usize)> = None;
    let mut stmt_acquires = false;

    for p in 0..ct.len() {
        let t = ct[p];
        let line = t.line;
        let in_test = kind.test_file || cmask[p];
        let serving_live = kind.serving && !in_test;

        match t.kind {
            TokKind::Ident => {
                match t.text.as_str() {
                    // ---- rule (b): std::sync locks bypassing the shim ----
                    "std" if path_sep(p + 1) && ident_at(p + 3, "sync") && path_sep(p + 4) => {
                        let hit = if ident_at(p + 6, "Mutex") || ident_at(p + 6, "RwLock") {
                            true
                        } else if punct_at(p + 6, '{') {
                            let close = match_close(&ct, p + 6, '{', '}');
                            ct[p + 6..=close]
                                .iter()
                                .any(|g| g.is_ident("Mutex") || g.is_ident("RwLock"))
                        } else {
                            false
                        };
                        if hit && !allows.waives(line, "std-lock") {
                            out.push(Violation {
                                file: rel.to_string(),
                                line,
                                rule: "std-lock",
                                message: "std::sync lock bypasses the instrumented parking_lot \
                                          shim"
                                    .into(),
                                hint: "use parking_lot::{Mutex, RwLock} so lock-order-tracking \
                                       sees the lock",
                            });
                        }
                    }
                    // ---- rule (d): real sleeps in tests and serving code --
                    "thread"
                        if (in_test || serving_live)
                            && path_sep(p + 1)
                            && ident_at(p + 3, "sleep")
                            && !allows.waives(line, "sleep-in-test") =>
                    {
                        let place = if in_test { "test" } else { "serving" };
                        out.push(Violation {
                            file: rel.to_string(),
                            line,
                            rule: "sleep-in-test",
                            message: format!("`thread::sleep` in {place} code"),
                            hint: "drive time through the fault-injection sim clock \
                                   (ips_types::clock::sim_clock); serving work that must \
                                   recur belongs in IpsInstance::tick, not a polling loop; \
                                   or annotate `// lint: allow(sleep-in-test, reason = \"...\")`",
                        });
                    }
                    // ---- rule (e): wall-clock reads in serving code ------
                    "Instant" | "SystemTime"
                        if serving_live
                            && path_sep(p + 1)
                            && ident_at(p + 3, "now")
                            && punct_at(p + 4, '(')
                            && !allows.waives(line, "wall-clock") =>
                    {
                        out.push(Violation {
                            file: rel.to_string(),
                            line,
                            rule: "wall-clock",
                            message: "wall-clock read (`Instant::now`/`SystemTime::now`) \
                                      in serving code"
                                .into(),
                            hint: "use the injected ips_types::Clock for logical time or \
                                   ips_types::clock::monotonic_micros() for durations, or \
                                   annotate `// lint: allow(wall-clock, reason = \"...\")`",
                        });
                    }
                    // ---- rule (f): loop headers --------------------------
                    "loop" if serving_live => {
                        loops.push(ActiveLoop {
                            depth,
                            line,
                            has_wire: false,
                            has_bound: false,
                            waived: allows.waives(line, "unbounded-retry"),
                        });
                    }
                    // ---- rule (c)/(f): guard bindings and drops ----------
                    "let" if serving_live => {
                        let mut q = p + 1;
                        if ident_at(q, "mut") {
                            q += 1;
                        }
                        stmt_let = ct.get(q).and_then(|n| {
                            (n.kind == TokKind::Ident && n.text != "_" && !is_keyword(&n.text))
                                .then(|| (n.text.clone(), line))
                        });
                        stmt_acquires = false;
                    }
                    "drop" if punct_at(p + 1, '(') => {
                        if let Some(name) = ct.get(p + 2).filter(|n| n.kind == TokKind::Ident) {
                            if punct_at(p + 3, ')') {
                                guards.retain(|g| g.name != name.text);
                            }
                        }
                    }
                    // ---- rule (g): Vec allocations in encode bodies ------
                    "Vec"
                        if serving_live
                            && encode_mask[p]
                            && path_sep(p + 1)
                            && punct_at(p + 4, '(') =>
                    {
                        let pat = if ident_at(p + 3, "new") && punct_at(p + 5, ')') {
                            Some("Vec::new()")
                        } else if ident_at(p + 3, "with_capacity") {
                            Some("Vec::with_capacity(")
                        } else {
                            None
                        };
                        if let Some(pat) = pat {
                            if !allows.waives(line, "encode-alloc") {
                                out.push(encode_alloc_violation(rel, line, pat));
                            }
                        }
                    }
                    // ---- rule (h): quota/shed outside pipeline modules ---
                    "quota"
                        if serving_live
                            && !pipeline_file
                            && punct_at(p + 1, '.')
                            && ident_at(p + 2, "check")
                            && punct_at(p + 3, '(')
                            && !allows.waives(line, "pipeline-purity") =>
                    {
                        out.push(pipeline_purity_violation(rel, line, "quota.check("));
                    }
                    // The `: Counter` field declarations and struct-literal
                    // initializers (next token `:`) stay legal — only *uses*
                    // of the shed machinery are confined to the pipeline.
                    "shed_overloaded" | "shed_deadline" | "shed_if_expired"
                        if serving_live
                            && !pipeline_file
                            && !punct_at(p + 1, ':')
                            && !allows.waives(line, "pipeline-purity") =>
                    {
                        out.push(pipeline_purity_violation(rel, line, &t.text));
                    }
                    _ => {}
                }
                // Retry-loop bound detection: any identifier naming a
                // deadline/budget concept inside a live loop body.
                if !loops.is_empty() {
                    let lower = t.text.to_ascii_lowercase();
                    if RETRY_BOUND_TOKENS.iter().any(|b| lower.contains(b)) {
                        for l in &mut loops {
                            l.has_bound = true;
                        }
                    }
                    if t.is_ident("attempt_once") && punct_at(p + 1, '(') {
                        for l in &mut loops {
                            l.has_wire = true;
                        }
                    }
                }
            }
            TokKind::Punct => match t.text.as_bytes().first() {
                Some(b'.') => {
                    // ---- rule (a): unwrap/expect in serving code ---------
                    if serving_live
                        && (ident_at(p + 1, "unwrap") || ident_at(p + 1, "expect"))
                        && punct_at(p + 2, '(')
                        && !allows.waives(ct[p + 1].line, "unwrap")
                    {
                        out.push(Violation {
                            file: rel.to_string(),
                            line: ct[p + 1].line,
                            rule: "unwrap",
                            message: "`.unwrap()`/`.expect(` in serving-crate non-test code".into(),
                            hint: "return an IpsError (the serving path must degrade, not \
                                   panic) or annotate `// lint: allow(unwrap, reason = \
                                   \"...\")`",
                        });
                    }
                    // ---- rule (h): breaker admission outside pipeline ----
                    if serving_live
                        && !pipeline_file
                        && ident_at(p + 1, "try_admit")
                        && punct_at(p + 2, '(')
                        && !allows.waives(ct[p + 1].line, "pipeline-purity")
                    {
                        out.push(pipeline_purity_violation(
                            rel,
                            ct[p + 1].line,
                            ".try_admit(",
                        ));
                    }
                    // ---- rule (g): .into_bytes() in encode bodies --------
                    if serving_live
                        && encode_mask[p]
                        && ident_at(p + 1, "into_bytes")
                        && punct_at(p + 2, '(')
                        && punct_at(p + 3, ')')
                        && !allows.waives(ct[p + 1].line, "encode-alloc")
                    {
                        out.push(encode_alloc_violation(rel, ct[p + 1].line, ".into_bytes()"));
                    }
                    // ---- rule (c): wire calls while a guard is live ------
                    let wire_method = WIRE_METHODS
                        .iter()
                        .find(|m| ident_at(p + 1, m) && punct_at(p + 2, '('));
                    if let Some(m) = wire_method {
                        if serving_live {
                            if let Some(g) = guards.last() {
                                if !allows.waives(line, "guard-across-rpc") {
                                    out.push(Violation {
                                        file: rel.to_string(),
                                        line,
                                        rule: "guard-across-rpc",
                                        message: format!(
                                            "`.{m}(` while lock guard `{}` (bound at line {}) \
                                             is live",
                                            g.name, g.line
                                        ),
                                        hint: "drop the guard (scope it or `drop(guard)`) \
                                               before going on the wire; a slow peer must not \
                                               stall the lock",
                                    });
                                }
                            }
                        }
                        if !loops.is_empty() {
                            for l in &mut loops {
                                l.has_wire = true;
                            }
                        }
                    }
                    // Guard acquisition: `.lock()` / `.read()` / `.write()`
                    // not immediately chained — a chained acquire is a
                    // statement temporary, dropped at the `;`.
                    if serving_live
                        && stmt_let.is_some()
                        && ["lock", "read", "write"].iter().any(|m| ident_at(p + 1, m))
                        && punct_at(p + 2, '(')
                        && punct_at(p + 3, ')')
                        && !punct_at(p + 4, '.')
                    {
                        stmt_acquires = true;
                    }
                }
                Some(b'{') => {
                    depth += 1;
                }
                Some(b'}') => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                    while loops.last().is_some_and(|l| depth <= l.depth) {
                        let Some(l) = loops.pop() else { break };
                        if l.has_wire && !l.has_bound && !l.waived {
                            out.push(Violation {
                                file: rel.to_string(),
                                line: l.line,
                                rule: "unbounded-retry",
                                message: "`loop` retries the wire with no deadline or attempt \
                                          bound in its body"
                                    .into(),
                                hint: "gate the loop on a Deadline / attempt budget (see \
                                       RetryPolicy) or annotate \
                                       `// lint: allow(unbounded-retry, reason = \"...\")`",
                            });
                        }
                    }
                    stmt_let = None;
                    stmt_acquires = false;
                }
                Some(b';') => {
                    if stmt_acquires {
                        if let Some((name, let_line)) = stmt_let.take() {
                            guards.push(ActiveGuard {
                                name,
                                depth,
                                line: let_line,
                            });
                        }
                    }
                    stmt_let = None;
                    stmt_acquires = false;
                }
                _ => {}
            },
            _ => {}
        }
    }

    out.sort_by_key(|v| v.line);
    // At most one finding per (line, rule): a line with two `std::sync::Mutex`
    // mentions is one problem, not two.
    out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    out
}

fn encode_alloc_violation(rel: &str, line: usize, pat: &str) -> Violation {
    Violation {
        file: rel.to_string(),
        line,
        rule: "encode-alloc",
        message: format!("`{pat}` allocates a fresh buffer inside an encode/serialize body"),
        hint: "reuse the thread-local pool (WireWriter::pooled() / ips-codec's take_buf) so \
               per-request encodes stop paying an allocation, or annotate \
               `// lint: allow(encode-alloc, reason = \"...\")`",
    }
}

fn pipeline_purity_violation(rel: &str, line: usize, what: &str) -> Violation {
    Violation {
        file: rel.to_string(),
        line,
        rule: "pipeline-purity",
        message: format!(
            "`{what}` invoked outside a pipeline module: admission/quota/shed policy \
             belongs to the interceptor stack, not to handlers or call sites"
        ),
        hint: "route the request through the pipeline (server::pipeline / \
               client::pipeline) so stage ordering holds, or annotate \
               `// lint: allow(pipeline-purity, reason = \"...\")`",
    }
}

/// Mark the token ranges that form the bodies of `fn encode*` /
/// `fn serialize*` declarations (rule g). A bodiless header (trait method
/// declaration, ending in `;`) opens no region.
fn encode_body_mask(ct: &[&Tok]) -> Vec<bool> {
    let mut mask = vec![false; ct.len()];
    let mut p = 0;
    while p < ct.len() {
        if ct[p].is_ident("fn")
            && ct
                .get(p + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && is_encode_fn(&n.text))
        {
            // Walk the signature: jump over the parameter list, then find
            // whichever of `{` / `;` comes first.
            let mut q = p + 2;
            while q < ct.len()
                && !ct[q].is_punct('(')
                && !ct[q].is_punct('{')
                && !ct[q].is_punct(';')
            {
                q += 1;
            }
            if q < ct.len() && ct[q].is_punct('(') {
                q = match_close(ct, q, '(', ')') + 1;
            }
            while q < ct.len() && !ct[q].is_punct('{') && !ct[q].is_punct(';') {
                q += 1;
            }
            if q < ct.len() && ct[q].is_punct('{') {
                let end = match_close(ct, q, '{', '}');
                for m in &mut mask[q..=end.min(ct.len() - 1)] {
                    *m = true;
                }
            }
            p = q + 1;
            continue;
        }
        p += 1;
    }
    mask
}

/// Index of the closing delimiter matching the opener at `open` (or the
/// last token when unbalanced).
fn match_close(ct: &[&Tok], open: usize, o: char, c: char) -> usize {
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

/// Rule (g) applies to functions whose name says they build wire/storage
/// bytes. (`decode` does not contain `encode`; the read path is free to
/// allocate its output.)
fn is_encode_fn(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("encode") || lower.contains("serialize")
}

/// Keywords that can follow `let` without being a binding name.
fn is_keyword(s: &str) -> bool {
    matches!(s, "if" | "match" | "else" | "Some" | "Ok" | "Err")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVING: FileKind = FileKind {
        serving: true,
        test_file: false,
    };
    const PLAIN: FileKind = FileKind {
        serving: false,
        test_file: false,
    };
    const TEST_FILE: FileKind = FileKind {
        serving: false,
        test_file: true,
    };

    fn rules(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn unwrap_flagged_in_serving_code_only() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(rules(&lint_file("a.rs", src, SERVING)), ["unwrap"]);
        assert!(lint_file("a.rs", src, PLAIN).is_empty());
    }

    #[test]
    fn expect_flagged_and_line_reported() {
        let src = "fn f() {\n    y.expect(\"boom\");\n}\n";
        let v = lint_file("a.rs", src, SERVING);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].rule, "unwrap");
    }

    #[test]
    fn unwrap_in_cfg_test_module_is_exempt() {
        let src = "fn f() -> u8 { 0 }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn g() { x.unwrap(); }\n\
                   }\n";
        assert!(lint_file("a.rs", src, SERVING).is_empty());
    }

    #[test]
    fn code_after_cfg_test_module_is_linted_again() {
        let src = "#[cfg(test)]\nmod tests {\n fn g() { x.unwrap(); }\n}\n\
                   fn f() { y.unwrap(); }\n";
        let v = lint_file("a.rs", src, SERVING);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn allow_annotation_waives_same_line() {
        let src = "fn f() { x.unwrap(); } // lint: allow(unwrap, reason = \"test helper\")\n";
        assert!(lint_file("a.rs", src, SERVING).is_empty());
    }

    #[test]
    fn allow_annotation_waives_next_line() {
        let src = "// lint: allow(unwrap, reason = \"len checked above\")\n\
                   fn f() { x.unwrap(); }\n\
                   fn g() { y.unwrap(); }\n";
        let v = lint_file("a.rs", src, SERVING);
        assert_eq!(v.len(), 1, "allow must not leak past one line");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let src = "fn f() { x.unwrap(); } // lint: allow(unwrap)\n";
        let v = lint_file("a.rs", src, SERVING);
        assert_eq!(rules(&v), ["bad-allow", "unwrap"]);
    }

    #[test]
    fn allow_for_a_different_rule_does_not_waive() {
        let src = "fn f() { x.unwrap(); } // lint: allow(std-lock, reason = \"nope\")\n";
        assert_eq!(rules(&lint_file("a.rs", src, SERVING)), ["unwrap"]);
    }

    #[test]
    fn std_lock_flagged_everywhere() {
        for src in [
            "static M: std::sync::Mutex<u8> = std::sync::Mutex::new(0);\n",
            "use std::sync::{Arc, Mutex};\n",
            "use std::sync::RwLock;\n",
        ] {
            assert_eq!(rules(&lint_file("a.rs", src, PLAIN)), ["std-lock"], "{src}");
        }
        // Arc / atomics via std::sync stay allowed.
        assert!(lint_file("a.rs", "use std::sync::Arc;\n", PLAIN).is_empty());
        assert!(lint_file("a.rs", "use std::sync::atomic::AtomicU64;\n", PLAIN).is_empty());
    }

    #[test]
    fn parking_lot_locks_are_fine() {
        let src = "use parking_lot::{Mutex, RwLock};\nfn f(m: &Mutex<u8>) { *m.lock() += 1; }\n";
        assert!(lint_file("a.rs", src, PLAIN).is_empty());
    }

    #[test]
    fn guard_across_rpc_flagged() {
        let src = "fn f(&self) {\n\
                   let guard = self.state.lock();\n\
                   self.endpoint.call(&req);\n\
                   }\n";
        let v = lint_file("a.rs", src, SERVING);
        assert_eq!(rules(&v), ["guard-across-rpc"]);
        assert!(v[0].message.contains("guard"), "{}", v[0].message);
        assert!(v[0].message.contains("line 2"), "{}", v[0].message);
    }

    #[test]
    fn guard_dropped_before_rpc_is_fine() {
        for src in [
            // Explicit drop.
            "fn f(&self) {\n let g = self.state.lock();\n drop(g);\n self.ep.call(&req);\n}\n",
            // Scope ends before the call.
            "fn f(&self) {\n {\n let g = self.state.lock();\n }\n self.ep.call(&req);\n}\n",
            // Statement-temporary guard (never bound).
            "fn f(&self) {\n let n = self.state.lock().len();\n self.ep.call(&req);\n}\n",
        ] {
            assert!(lint_file("a.rs", src, SERVING).is_empty(), "{src}");
        }
    }

    #[test]
    fn multiline_guard_binding_is_tracked() {
        // The regex engine's known false negative: rustfmt wraps the
        // statement and the old line scanner lost the `let`.
        let src = "fn f(&self) {\n\
                   let guard = self\n\
                       .state\n\
                       .lock();\n\
                   self.endpoint.call(&req);\n\
                   }\n";
        let v = lint_file("a.rs", src, SERVING);
        assert_eq!(rules(&v), ["guard-across-rpc"]);
        assert!(v[0].message.contains("line 2"), "{}", v[0].message);
    }

    #[test]
    fn rwlock_guards_also_tracked_across_rpc() {
        let src = "fn f(&self) {\n let map = self.rings.read();\n self.ep.dispatch(&req);\n}\n";
        assert_eq!(
            rules(&lint_file("a.rs", src, SERVING)),
            ["guard-across-rpc"]
        );
    }

    #[test]
    fn sleep_in_test_code_flagged() {
        let src = "fn helper() {}\n\
                   #[test]\n\
                   fn t() {\n\
                   std::thread::sleep(std::time::Duration::from_millis(5));\n\
                   }\n";
        assert_eq!(rules(&lint_file("a.rs", src, PLAIN)), ["sleep-in-test"]);
        // Whole-file test classification (integration tests) too.
        let src2 = "fn t() { std::thread::sleep(d); }\n";
        let v = lint_file("t.rs", src2, TEST_FILE);
        assert_eq!(rules(&v), ["sleep-in-test"]);
        assert!(v[0].message.contains("test code"), "{}", v[0].message);
    }

    #[test]
    fn sleep_in_serving_code_flagged() {
        let src = "fn pump() { std::thread::sleep(interval); }\n";
        let v = lint_file("a.rs", src, SERVING);
        assert_eq!(rules(&v), ["sleep-in-test"]);
        assert!(v[0].message.contains("serving code"), "{}", v[0].message);
        // Non-serving crates (bench bins, tools) may pace themselves.
        assert!(lint_file("a.rs", src, PLAIN).is_empty());
    }

    #[test]
    fn wall_clock_flagged_in_serving_code_only() {
        for src in [
            "fn f() { let t = std::time::Instant::now(); }\n",
            "fn f() { let t = Instant::now(); }\n",
            "fn f() { let t = std::time::SystemTime::now(); }\n",
        ] {
            assert_eq!(
                rules(&lint_file("a.rs", src, SERVING)),
                ["wall-clock"],
                "{src}"
            );
            // Non-serving crates (benches, the sim-clock plumbing in
            // ips-types) may touch the real clock.
            assert!(lint_file("a.rs", src, PLAIN).is_empty(), "{src}");
        }
        // The blessed primitives do not trip the rule.
        let ok =
            "fn f(c: &dyn Clock) { let t = c.monotonic_micros(); let n = monotonic_micros(); }\n";
        assert!(lint_file("a.rs", ok, SERVING).is_empty());
    }

    #[test]
    fn wall_clock_in_test_code_is_exempt() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                   fn t() { let deadline = std::time::Instant::now(); }\n\
                   }\n";
        assert!(lint_file("a.rs", src, SERVING).is_empty());
        let src2 = "fn t() { let t = std::time::SystemTime::now(); }\n";
        assert!(lint_file("t.rs", src2, TEST_FILE).is_empty());
    }

    #[test]
    fn wall_clock_allow_annotation_waives() {
        let src = "fn f() { let t = Instant::now(); } \
                   // lint: allow(wall-clock, reason = \"startup anchor, never read again\")\n";
        assert!(lint_file("a.rs", src, SERVING).is_empty());
    }

    #[test]
    fn unbounded_retry_loop_flagged() {
        let src = "fn f(&self) {\n\
                   loop {\n\
                   match self.ep.call(&req) { Ok(r) => return r, Err(_) => continue }\n\
                   }\n\
                   }\n";
        let v = lint_file("a.rs", src, SERVING);
        assert_eq!(rules(&v), ["unbounded-retry"]);
        assert_eq!(v[0].line, 2, "anchored at the loop header");
    }

    #[test]
    fn retry_loop_with_bound_is_fine() {
        for src in [
            // Deadline consulted in the body.
            "fn f(&self) {\nloop {\n if deadline.expired() { break; }\n \
             self.ep.call(&req);\n}\n}\n",
            // Counted attempts.
            "fn f(&self) {\nloop {\n tries += 1;\n if tries > 3 { break; }\n \
             self.ep.dispatch(&req);\n}\n}\n",
            // A `while` with an attempt-budget condition is not a bare loop.
            "fn f(&self) {\nwhile tries < policy.attempts {\n \
             self.attempt_once(&ep, &req);\n}\n}\n",
            // Infinite worker loop that never goes on the wire (swap thread).
            "fn f(&self) {\nloop {\n self.pump_once();\n}\n}\n",
        ] {
            assert!(lint_file("a.rs", src, SERVING).is_empty(), "{src}");
        }
    }

    #[test]
    fn unbounded_retry_allow_annotation_waives() {
        let src = "fn f(&self) {\n\
                   // lint: allow(unbounded-retry, reason = \"bounded by caller timeout\")\n\
                   loop {\n\
                   self.ep.call(&req);\n\
                   }\n\
                   }\n";
        assert!(lint_file("a.rs", src, SERVING).is_empty());
    }

    #[test]
    fn unbounded_retry_exempt_outside_serving_and_in_tests() {
        let src = "fn f(&self) {\nloop {\n self.ep.call(&req);\n}\n}\n";
        assert!(lint_file("a.rs", src, PLAIN).is_empty());
        assert!(lint_file("t.rs", src, TEST_FILE).is_empty());
        let in_mod = "#[cfg(test)]\nmod tests {\n\
                      fn t() {\nloop {\n ep.call(&req);\n}\n}\n}\n";
        assert!(lint_file("a.rs", in_mod, SERVING).is_empty());
    }

    #[test]
    fn attempt_once_counts_as_wire_for_retry_loops() {
        let src = "fn f(&self) {\nloop {\n self.attempt_once(&ep, &req, &opts);\n}\n}\n";
        assert_eq!(rules(&lint_file("a.rs", src, SERVING)), ["unbounded-retry"]);
    }

    #[test]
    fn encode_alloc_flagged_in_encode_bodies() {
        for src in [
            "fn encode(&self) -> Vec<u8> {\n let mut out = Vec::new();\n out\n}\n",
            "pub fn encode_frame(w: &mut W) {\n let buf = Vec::with_capacity(64);\n}\n",
            "fn serialize_profile(p: &P) -> Bytes {\n w.into_bytes()\n}\n",
        ] {
            let v = lint_file("a.rs", src, SERVING);
            assert_eq!(rules(&v), ["encode-alloc"], "{src}");
        }
    }

    #[test]
    fn encode_alloc_ignores_non_encode_fns_and_decode() {
        for src in [
            "fn decode(bytes: &[u8]) -> Self {\n let mut out = Vec::new();\n}\n",
            "fn collect_rows(&self) -> Vec<Row> {\n let mut out = Vec::new();\n}\n",
            // Region must end with the fn body: the next fn is clean again.
            "fn encode(&self) -> Vec<u8> {\n w.as_slice().to_vec()\n}\n\
             fn gather() {\n let v = Vec::new();\n}\n",
        ] {
            assert!(lint_file("a.rs", src, SERVING).is_empty(), "{src}");
        }
    }

    #[test]
    fn encode_alloc_exempt_outside_serving_and_in_tests() {
        let src = "fn encode(&self) -> Vec<u8> {\n let mut out = Vec::new();\n out\n}\n";
        assert!(lint_file("a.rs", src, PLAIN).is_empty());
        assert!(lint_file("t.rs", src, TEST_FILE).is_empty());
        let in_mod = "#[cfg(test)]\nmod tests {\n\
                      fn encode_fixture() -> Vec<u8> {\n let v = Vec::new();\n v\n}\n}\n";
        assert!(lint_file("a.rs", in_mod, SERVING).is_empty());
    }

    #[test]
    fn encode_alloc_allow_annotation_waives() {
        let src = "fn encode(&self) -> Vec<u8> {\n\
                   // lint: allow(encode-alloc, reason = \"caller owns the returned Vec\")\n\
                   w.into_bytes()\n\
                   }\n";
        assert!(lint_file("a.rs", src, SERVING).is_empty());
    }

    #[test]
    fn encode_alloc_trait_declaration_does_not_open_a_region() {
        let src = "trait Enc {\n fn encode(&self) -> Vec<u8>;\n}\n\
                   fn other() {\n let v = Vec::new();\n}\n";
        assert!(lint_file("a.rs", src, SERVING).is_empty());
    }

    #[test]
    fn ips_trace_is_a_serving_crate() {
        assert_eq!(
            classify("crates/ips-trace/src/lib.rs"),
            FileKind {
                serving: true,
                test_file: false
            }
        );
    }

    #[test]
    fn non_ascii_source_lines_do_not_panic_the_scanner() {
        let src = "fn f() {\n\
                   println!(\n\
                   \"first line \\\n\
                    — load it in chrome://tracing\",\n\
                   );\n\
                   /* block — comment */\n\
                   }\n";
        assert!(lint_file("a.rs", src, SERVING).is_empty());
    }

    #[test]
    fn patterns_inside_strings_and_comments_do_not_count() {
        let src = "fn f() {\n\
                   let msg = \"please call .unwrap() on std::sync::Mutex\";\n\
                   // a comment mentioning x.unwrap() and thread::sleep\n\
                   }\n";
        assert!(lint_file("a.rs", src, SERVING).is_empty());
    }

    #[test]
    fn patterns_inside_raw_strings_do_not_count() {
        // The regex engine's known false positive: a raw string carrying
        // lint-looking source text. The lexer never surfaces its contents.
        let src = "fn f() {\n\
                   let fixture = r#\"fn g() { x.unwrap(); loop { ep.call(&r); } }\"#;\n\
                   let nested = \"/* not a comment opener\";\n\
                   }\n";
        assert!(lint_file("a.rs", src, SERVING).is_empty());
    }

    #[test]
    fn braces_inside_strings_do_not_derail_test_regions() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                   fn t() { let s = format!(\"{}{{\", 1); x.unwrap(); }\n\
                   }\n\
                   fn live() { y.unwrap(); }\n";
        let v = lint_file("a.rs", src, SERVING);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/ips-kv/src/wal.rs"),
            FileKind {
                serving: true,
                test_file: false
            }
        );
        assert_eq!(
            classify("crates/ips-kv/tests/property_kv.rs"),
            FileKind {
                serving: false,
                test_file: true
            }
        );
        assert_eq!(
            classify("tests/chaos_soak.rs"),
            FileKind {
                serving: false,
                test_file: true
            }
        );
        assert_eq!(
            classify("crates/ips-metrics/src/counter.rs"),
            FileKind {
                serving: false,
                test_file: false
            }
        );
    }

    #[test]
    fn pipeline_primitives_flagged_outside_pipeline_modules() {
        let src = "fn handle(&self) {\n\
                       if !self.health.try_admit(now) { return; }\n\
                       self.quota.check(caller, 1)?;\n\
                       self.shed_deadline.inc();\n\
                   }\n";
        let v = lint_file("crates/ips-core/src/server/handlers.rs", src, SERVING);
        assert_eq!(
            rules(&v),
            ["pipeline-purity", "pipeline-purity", "pipeline-purity"]
        );
        assert_eq!(v[0].line, 2);
        assert_eq!(v[1].line, 3);
        assert_eq!(v[2].line, 4);
    }

    #[test]
    fn pipeline_primitives_allowed_inside_pipeline_modules() {
        let src = "fn admit(&self) {\n\
                       if !self.health.try_admit(now) { return; }\n\
                       self.quota.check(caller, 1)?;\n\
                       self.shed_deadline.inc();\n\
                   }\n";
        assert!(lint_file(
            "crates/ips-core/src/server/pipeline/admission.rs",
            src,
            SERVING
        )
        .is_empty());
    }

    #[test]
    fn shed_counter_declaration_is_not_a_use() {
        let src = "pub struct I {\n\
                       pub shed_deadline: Counter,\n\
                   }\n\
                   fn build() -> I {\n\
                       I { shed_deadline: Counter::new() }\n\
                   }\n";
        assert!(lint_file("crates/ips-core/src/server/mod.rs", src, SERVING).is_empty());
    }

    #[test]
    fn pipeline_purity_waivable_and_off_outside_serving() {
        let src = "fn f(&self) {\n\
                       // lint: allow(pipeline-purity, reason = \"metrics read-only probe\")\n\
                       self.quota.check(caller, 0)?;\n\
                   }\n";
        assert!(lint_file("crates/ips-core/src/server/handlers.rs", src, SERVING).is_empty());
        let bare = "fn f(&self) { self.quota.check(caller, 0)?; }\n";
        assert!(lint_file("tools/x.rs", bare, PLAIN).is_empty());
    }
}
