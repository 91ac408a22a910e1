//! A zero-dependency Rust lexer for the `xtask` analysis passes.
//!
//! The previous lint engine was a line-regex scanner: it missed multi-line
//! statements and had to special-case string literals one escape at a time.
//! Everything in `xtask` now runs on this token stream instead, which gets
//! the hard cases right once, centrally:
//!
//! * raw strings (`r"..."`, `r#"..."#`, any number of `#`s, plus `b`/`br`
//!   prefixes) — their contents never produce tokens, so a string mentioning
//!   `unwrap(` or `loop {` cannot confuse a rule;
//! * nested block comments (`/* /* */ */`), which the line scanner could
//!   not track at all;
//! * char literals vs lifetimes (`'a'` vs `'a`, `'\''`, `b'x'`);
//! * float literals vs ranges (`1.5` vs `0..10`) and tuple access (`x.0`).
//!
//! The lexer is intentionally a *scanner*, not a full parser: it produces a
//! flat token list with line numbers and leaves structure (brace matching,
//! test regions, fn bodies) to the passes, which share the helpers at the
//! bottom of this file.

/// Token classes the analysis passes care about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `loop`, `unwrap`, ...).
    Ident,
    /// A lifetime (`'a`, `'static`) — deliberately distinct from [`TokKind::Char`].
    Lifetime,
    /// Integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// Float literal (`1.5`, `2e9`).
    Float,
    /// Any string-ish literal: `"..."`, `r#"..."#`, `b"..."`. Contents are
    /// preserved in `text` but no pass looks inside them.
    Str,
    /// Char or byte literal: `'a'`, `'\n'`, `b'x'`.
    Char,
    /// A single punctuation character (`{`, `.`, `:`; multi-char operators
    /// arrive as consecutive tokens).
    Punct,
    /// `// ...` or `/* ... */` (text includes the delimiters). Kept in the
    /// stream so the annotation pass can see them; analysis passes skip them.
    Comment,
}

/// One lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 1-based line the token *starts* on.
    pub line: usize,
}

impl Tok {
    /// Is this token the identifier `s`?
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this token the punctuation character `c`?
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] as char == c
    }
}

/// Lex `src` into a flat token list. The lexer never fails: unexpected bytes
/// come out as [`TokKind::Punct`] and unterminated literals run to the end
/// of input, which is the most useful behavior for a lint that must keep
/// going on slightly malformed source.
#[must_use]
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::with_capacity(src.len() / 4);
    let mut i = 0;
    let mut line = 1;

    while i < b.len() {
        let c = b[i] as char;

        // Whitespace (the only place newlines advance the line counter,
        // besides multi-line literals and comments).
        if c.is_ascii_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }

        // Comments.
        if c == '/' && i + 1 < b.len() {
            match b[i + 1] as char {
                '/' => {
                    let start = i;
                    while i < b.len() && b[i] != b'\n' {
                        i += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Comment,
                        text: src[start..i].to_string(),
                        line,
                    });
                    continue;
                }
                '*' => {
                    let (start, start_line) = (i, line);
                    let mut depth = 1u32;
                    i += 2;
                    while i < b.len() && depth > 0 {
                        if b[i] == b'\n' {
                            line += 1;
                            i += 1;
                        } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                            depth += 1; // nested block comment
                            i += 2;
                        } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                            depth -= 1;
                            i += 2;
                        } else {
                            i += 1;
                        }
                    }
                    toks.push(Tok {
                        kind: TokKind::Comment,
                        text: src[start..i].to_string(),
                        line: start_line,
                    });
                    continue;
                }
                _ => {}
            }
        }

        // Raw / byte string prefixes: r"..", r#".."#, br".." , b"..", b'x'.
        if (c == 'r' || c == 'b') && !prev_is_ident_char(b, i) {
            let mut j = i + 1;
            if c == 'b' && j < b.len() && (b[j] as char == 'r') {
                j += 1; // br"..."
            }
            if j < b.len()
                && (b[j] == b'"' || (b[j] == b'#' && has_r(b, i)))
                && has_r_or_quote(b, i, j)
            {
                if let Some((end, nl)) = scan_raw_or_plain_string(src, i, j) {
                    toks.push(Tok {
                        kind: TokKind::Str,
                        text: src[i..end].to_string(),
                        line,
                    });
                    line += nl;
                    i = end;
                    continue;
                }
            }
            if c == 'b' && i + 1 < b.len() && b[i + 1] == b'\'' {
                let (end, _) = scan_char_literal(src, i + 1);
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: src[i..end].to_string(),
                    line,
                });
                i = end;
                continue;
            }
        }

        // Plain string literal.
        if c == '"' {
            let (end, nl) = scan_plain_string(src, i);
            toks.push(Tok {
                kind: TokKind::Str,
                text: src[i..end].to_string(),
                line,
            });
            line += nl;
            i = end;
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            if is_char_literal(b, i) {
                let (end, _) = scan_char_literal(src, i);
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: src[i..end].to_string(),
                    line,
                });
                i = end;
            } else {
                // Lifetime: consume `'` plus identifier chars.
                let start = i;
                i += 1;
                while i < b.len() && is_ident_char(b[i]) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            continue;
        }

        // Numeric literal.
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            i += 1;
            while i < b.len() {
                let d = b[i] as char;
                if d.is_ascii_alphanumeric() || d == '_' {
                    if (d == 'e' || d == 'E')
                        && i + 1 < b.len()
                        && ((b[i + 1] as char).is_ascii_digit()
                            || b[i + 1] == b'+'
                            || b[i + 1] == b'-')
                        && !src[start..i].starts_with("0x")
                    {
                        is_float = true;
                        i += if b[i + 1] == b'+' || b[i + 1] == b'-' {
                            2
                        } else {
                            1
                        };
                        continue;
                    }
                    i += 1;
                } else if d == '.'
                    && i + 1 < b.len()
                    && (b[i + 1] as char).is_ascii_digit()
                    && !is_float
                {
                    is_float = true; // 1.5, not 0..10 or x.0
                    i += 1;
                } else {
                    break;
                }
            }
            toks.push(Tok {
                kind: if is_float {
                    TokKind::Float
                } else {
                    TokKind::Int
                },
                text: src[start..i].to_string(),
                line,
            });
            continue;
        }

        // Identifier / keyword.
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < b.len() && is_ident_char(b[i]) {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: src[start..i].to_string(),
                line,
            });
            continue;
        }

        // Anything else (including stray multi-byte UTF-8) is punctuation;
        // step over the whole encoding so slicing stays on char boundaries.
        let len = utf8_len(b[i]);
        toks.push(Tok {
            kind: TokKind::Punct,
            text: src[i..i + len].to_string(),
            line,
        });
        i += len;
    }
    toks
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn prev_is_ident_char(b: &[u8], i: usize) -> bool {
    i > 0 && is_ident_char(b[i - 1])
}

/// Does the raw-string candidate starting at `i` actually begin with an `r`
/// (directly or after a `b`)?
fn has_r(b: &[u8], i: usize) -> bool {
    b[i] == b'r' || (b[i] == b'b' && i + 1 < b.len() && b[i + 1] == b'r')
}

/// Guard for the prefix scan: at `j` we must be at `"` (plain b"..") or at
/// `#` with an `r` prefix (raw string).
fn has_r_or_quote(b: &[u8], i: usize, j: usize) -> bool {
    b[j] == b'"' || (b[j] == b'#' && has_r(b, i))
}

/// Scan a string starting at byte `start` (the prefix) whose body begins at
/// `j` (either `"` or the first `#` of a raw string). Returns
/// `(end_exclusive, newline_count)`, or `None` if `j` does not open a string.
fn scan_raw_or_plain_string(src: &str, start: usize, j: usize) -> Option<(usize, usize)> {
    let b = src.as_bytes();
    if b[j] == b'#' {
        // Raw string with hashes: count them, expect `"`.
        let mut hashes = 0;
        let mut k = j;
        while k < b.len() && b[k] == b'#' {
            hashes += 1;
            k += 1;
        }
        if k >= b.len() || b[k] != b'"' {
            return None;
        }
        k += 1;
        let closer: Vec<u8> = std::iter::once(b'"')
            .chain(std::iter::repeat_n(b'#', hashes))
            .collect();
        let mut nl = 0;
        while k < b.len() {
            if b[k] == b'\n' {
                nl += 1;
            }
            if b[k] == b'"' && b[k..].starts_with(&closer) {
                return Some((k + closer.len(), nl));
            }
            k += 1;
        }
        Some((b.len(), nl))
    } else {
        // r"..." or b"...": raw (no escapes) when an `r` is present,
        // escaped otherwise.
        let raw = has_r(b, start);
        let mut k = j + 1;
        let mut nl = 0;
        while k < b.len() {
            match b[k] {
                b'\n' => nl += 1,
                b'\\' if !raw => {
                    k += 2;
                    continue;
                }
                b'"' => return Some((k + 1, nl)),
                _ => {}
            }
            k += 1;
        }
        Some((b.len(), nl))
    }
}

/// Scan a `"..."` literal starting at `start`. Returns `(end, newlines)`.
fn scan_plain_string(src: &str, start: usize) -> (usize, usize) {
    scan_raw_or_plain_string(src, start, start).unwrap_or((src.len(), 0))
}

/// Does `'` at `i` open a char literal (as opposed to a lifetime)?
fn is_char_literal(b: &[u8], i: usize) -> bool {
    let Some(&next) = b.get(i + 1) else {
        return false;
    };
    if next == b'\\' {
        return true; // '\n', '\'', '\u{..}'
    }
    if is_ident_char(next) {
        // 'a' is a char, 'a (no closing quote right after) is a lifetime.
        // Lifetimes are single identifiers, so one ident-char followed by a
        // quote is the only ambiguous shape.
        return b.get(i + 2) == Some(&b'\'');
    }
    // Non-identifier single char: '+', ' ', '{' — a char literal if closed.
    b.get(i + 2) == Some(&b'\'')
}

/// Scan a char/byte literal starting at the `'` at `start`.
fn scan_char_literal(src: &str, start: usize) -> (usize, usize) {
    let b = src.as_bytes();
    let mut k = start + 1;
    if k < b.len() && b[k] == b'\\' {
        k += 1;
        if k < b.len() && b[k] == b'u' {
            // '\u{1F600}'
            while k < b.len() && b[k] != b'}' && b[k] != b'\'' {
                k += 1;
            }
            if k < b.len() && b[k] == b'}' {
                k += 1;
            }
        } else {
            k += utf8_len(*b.get(k).unwrap_or(&b' '));
        }
    } else if k < b.len() {
        k += utf8_len(b[k]);
    }
    if k < b.len() && b[k] == b'\'' {
        k += 1;
    }
    (k.min(b.len()), 0)
}

/// Byte length of the UTF-8 encoding that starts with `first`.
fn utf8_len(first: u8) -> usize {
    match first {
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        b if b >= 0xC0 => 2,
        _ => 1,
    }
}

// ---- shared structural helpers ---------------------------------------------

/// Per-token flags for `#[cfg(test)]` / `#[test]` regions, computed once and
/// shared by every pass: `mask[i]` is true when token `i` is inside test
/// code (including the attribute itself and the gated item's body).
#[must_use]
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut depth: i32 = 0;
    let mut pending_attr = false;
    let mut pending_since = 0usize;
    let mut region_depth: Option<i32> = None;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Comment {
            i += 1;
            continue;
        }
        if region_depth.is_some() || pending_attr {
            mask[i] = true;
        }
        // `#[...]` attribute: scan the bracket group for a `test` marker.
        if t.is_punct('#') && toks.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            let close = matching_bracket(toks, i + 1);
            if attr_marks_test(&toks[i..=close.min(toks.len() - 1)]) {
                pending_attr = true;
                pending_since = i;
                for m in mask.iter_mut().take(close.min(toks.len() - 1) + 1).skip(i) {
                    *m = true;
                }
            }
            i = close.min(toks.len() - 1) + 1;
            continue;
        }
        if t.is_punct('{') {
            depth += 1;
            if pending_attr && region_depth.is_none() {
                region_depth = Some(depth);
                pending_attr = false;
                for m in mask.iter_mut().take(i + 1).skip(pending_since) {
                    *m = true;
                }
            }
        } else if t.is_punct('}') {
            depth -= 1;
            if region_depth.is_some_and(|d| depth < d) {
                region_depth = None;
            }
        } else if t.is_punct(';') && pending_attr && region_depth.is_none() {
            // `#[cfg(test)] use foo;` — braceless item ends the attribute.
            pending_attr = false;
        }
        i += 1;
    }
    mask
}

/// Does an attribute token slice (from `#` to `]`) gate test code? Matches
/// `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ...))]` etc., but not
/// `#[cfg(not(test))]`.
fn attr_marks_test(attr: &[Tok]) -> bool {
    for (i, t) in attr.iter().enumerate() {
        if t.is_ident("test") {
            // Walk back over the preceding `(` to the gating ident.
            let mut j = i;
            while j > 0 {
                j -= 1;
                if attr[j].is_punct('(') {
                    continue;
                }
                if attr[j].is_ident("not") {
                    break; // cfg(not(test)) — not test code
                }
                return true;
            }
            if j == 0 {
                return true;
            }
        }
    }
    false
}

/// Index of the `]` matching the `[` at `open` (or the last token when
/// unbalanced).
fn matching_bracket(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Comment {
            continue;
        }
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn basic_tokens() {
        let toks = lex("fn f(x: u64) -> u64 { x + 1 }");
        assert!(toks[0].is_ident("fn"));
        assert!(toks[1].is_ident("f"));
        assert!(toks.iter().any(|t| t.kind == TokKind::Int && t.text == "1"));
        assert!(toks.iter().any(|t| t.is_punct('{')));
    }

    #[test]
    fn raw_strings_hide_their_contents() {
        // `unwrap(` and `loop {` inside a raw string must not produce
        // Ident/Punct tokens.
        let src = r####"let s = r#"call .unwrap() in a loop { } "quoted" "#; x.f();"####;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
        assert!(!ids.contains(&"loop".to_string()), "{ids:?}");
        assert!(ids.contains(&"f".to_string()));
        // The raw string is one Str token.
        let strs: Vec<_> = lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("unwrap"));
    }

    #[test]
    fn raw_strings_with_more_hashes() {
        let src = r###"let s = r##"body with "# inside"##; y"###;
        let ids = idents(src);
        assert_eq!(ids, ["let", "s", "y"]);
    }

    #[test]
    fn plain_strings_with_escapes() {
        let src = r#"let s = "a \" b .unwrap() \\"; z"#;
        let ids = idents(src);
        assert_eq!(ids, ["let", "s", "z"]);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let src = "let a = b\"bytes .unwrap()\"; let c = b'x'; let d = br\"raw\";";
        let ids = idents(src);
        assert_eq!(ids, ["let", "a", "let", "c", "let", "d"]);
        assert!(lex(src).iter().any(|t| t.kind == TokKind::Char));
    }

    #[test]
    fn nested_block_comments() {
        let src = "fn a() {} /* outer /* inner .unwrap() */ still comment */ fn b() {}";
        let ids = idents(src);
        assert_eq!(ids, ["fn", "a", "fn", "b"]);
        let comments: Vec<_> = lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Comment)
            .collect();
        assert_eq!(comments.len(), 1);
        assert!(comments[0].text.contains("inner"));
        assert!(comments[0].text.ends_with("*/"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; let q = '\\''; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, ["'a", "'a"]);
        let chars: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(chars, ["'a'", "'\\n'", "'\\''"]);
    }

    #[test]
    fn static_lifetime_and_generic_bounds() {
        let toks = lex("fn f(s: &'static str) -> impl Iterator<Item = &'static u8> {}");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            2
        );
    }

    #[test]
    fn numbers_ranges_and_tuple_access() {
        let k = kinds("let a = 1.5; let r = 0..10; let t = x.0; let h = 0xFF; let e = 1e9;");
        assert!(k.contains(&(TokKind::Float, "1.5".into())));
        assert!(k.contains(&(TokKind::Int, "0".into())));
        assert!(k.contains(&(TokKind::Int, "10".into())));
        assert!(k.contains(&(TokKind::Int, "0xFF".into())));
        assert!(k.contains(&(TokKind::Float, "1e9".into())));
        // Tuple access: `.` then Int.
        assert!(k.contains(&(TokKind::Int, "0".into())));
    }

    #[test]
    fn line_numbers_track_multiline_constructs() {
        let src = "let a = 1;\nlet s = \"line1\nline2\";\nlet b = 2;\n/* c\nc */\nlet d = 3;";
        let toks = lex(src);
        let find = |name: &str| toks.iter().find(|t| t.is_ident(name)).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("s"), 2);
        assert_eq!(find("b"), 4, "string spanning lines 2-3 advances the count");
        assert_eq!(find("d"), 7, "block comment spanning lines advances too");
    }

    #[test]
    fn line_comments_preserved_with_text() {
        let toks = lex("x(); // lint: allow(unwrap, reason = \"ok\")\ny();");
        let c = toks.iter().find(|t| t.kind == TokKind::Comment).unwrap();
        assert!(c.text.contains("lint: allow"));
        assert_eq!(c.line, 1);
    }

    #[test]
    fn test_mask_covers_cfg_test_modules() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\nfn live2() {}";
        let toks = lex(src);
        let mask = test_mask(&toks);
        let at = |name: &str| {
            let i = toks.iter().position(|t| t.is_ident(name)).unwrap();
            mask[i]
        };
        assert!(!at("live"));
        assert!(at("unwrap"));
        assert!(!at("live2"));
    }

    #[test]
    fn test_mask_ignores_cfg_not_test() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }";
        let toks = lex(src);
        let mask = test_mask(&toks);
        let i = toks.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(!mask[i], "cfg(not(test)) is production code");
    }

    #[test]
    fn test_mask_handles_braceless_gated_items() {
        let src = "#[cfg(test)]\nuse std::thread;\nfn live() { y.unwrap(); }";
        let toks = lex(src);
        let mask = test_mask(&toks);
        let i = toks.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(!mask[i], "the attribute ends at the `;`");
    }

    #[test]
    fn braces_inside_strings_do_not_break_masks() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { let s = \"}}}{{{\"; }\n}\nfn live() { z.unwrap(); }";
        let toks = lex(src);
        let mask = test_mask(&toks);
        let i = toks.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(!mask[i]);
    }

    #[test]
    fn non_ascii_source_does_not_panic() {
        let toks = lex("fn f() { /* em—dash */ let s = \"naïve — text\"; }");
        assert!(toks.iter().any(|t| t.is_ident("s")));
    }

    #[test]
    fn unterminated_literals_run_to_eof_without_panic() {
        assert!(!lex("let s = \"never closed").is_empty());
        assert!(!lex("let s = r#\"never closed").is_empty());
        assert!(!lex("/* never closed").is_empty());
    }

    #[test]
    fn unbalanced_delimiters_do_not_panic_matchers() {
        // Internal brace matching elsewhere relies on lex() never producing
        // a stream that walks out of bounds; spot-check pathological input.
        let toks = lex("f(a, (b, c { d )");
        assert!(!toks.is_empty());
    }
}
