//! A std-only Rust lexer for the source-analysis engine.
//!
//! Produces a flat token stream with line numbers, correctly skipping
//! the constructs that confused the old line scanner: normal and raw
//! string literals (`r#"…"#` at any hash depth), byte strings, char
//! literals vs. lifetimes, nested block comments, and doc comments.
//! Everything downstream — the item parser ([`crate::items`]), the call
//! graph ([`crate::callgraph`]) and every `RA3xx`/`RA4xx` source lint —
//! works on these tokens, so a needle inside `"a string"` or `/* a
//! comment */` can never fire a diagnostic again.
//!
//! The lexer is deliberately permissive: unterminated literals or stray
//! bytes never panic, they just close the token at end of input. Lint
//! passes prefer under-reporting on malformed input over crashing.

use std::ops::Range;

/// What a token is. Comments and whitespace are not emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw `r#ident`).
    Ident,
    /// `'a` — a lifetime or loop label, not a char literal.
    Lifetime,
    /// `'x'`, `'\n'`, `b'x'`.
    CharLit,
    /// `"…"`, `b"…"` (escapes resolved only far enough to find the end).
    StrLit,
    /// `r"…"`, `r#"…"#`, `br#"…"#` at any hash depth.
    RawStrLit,
    /// Integer or float literal, including suffixes.
    NumLit,
    /// A single punctuation byte (`{`, `.`, `:`, `!`, …).
    Punct,
}

/// One token: kind, byte range into the source, and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Byte range into the lexed source.
    pub span: Range<usize>,
    /// 1-based line of the token's first byte.
    pub line: u32,
}

/// A lexed file: the source plus its token stream.
#[derive(Debug, Clone)]
pub struct Lexed {
    /// The source text the spans index into.
    pub src: String,
    /// Tokens in source order.
    pub tokens: Vec<Token>,
}

impl Lexed {
    /// Text of token `i` (empty for out-of-range indices).
    pub fn text(&self, i: usize) -> &str {
        self.tokens
            .get(i)
            .map(|t| &self.src[t.span.clone()])
            .unwrap_or("")
    }

    /// Kind of token `i`, or `None` past the end.
    pub fn kind(&self, i: usize) -> Option<TokenKind> {
        self.tokens.get(i).map(|t| t.kind)
    }

    /// True when token `i` is punctuation equal to `ch`.
    pub fn is_punct(&self, i: usize, ch: char) -> bool {
        self.tokens.get(i).is_some_and(|t| {
            t.kind == TokenKind::Punct && self.src[t.span.clone()].chars().next() == Some(ch)
        })
    }

    /// True when token `i` is an identifier with exactly this text.
    pub fn is_ident(&self, i: usize, text: &str) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident && &self.src[t.span.clone()] == text)
    }

    /// Line of token `i` (0 past the end — callers treat it as "nowhere").
    pub fn line(&self, i: usize) -> u32 {
        self.tokens.get(i).map(|t| t.line).unwrap_or(0)
    }
}

/// Lex `src` into a token stream. Never fails; malformed input produces
/// a best-effort stream that simply ends early.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut tokens = Vec::with_capacity(src.len() / 6);
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Count the newlines in `bytes[from..to]` into `line`.
    macro_rules! count_lines {
        ($from:expr, $to:expr) => {
            line += bytes[$from..$to].iter().filter(|&&b| b == b'\n').count() as u32
        };
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            // Comments: line (incl. doc) and nested block.
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                i += 2;
                let mut depth = 1usize;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                count_lines!(start, i);
            }
            // Raw strings and raw identifiers: r"…", r#"…"#, r#ident.
            b'r' | b'b' if starts_raw_string(bytes, i) => {
                let start = i;
                let start_line = line;
                i += if b == b'b' { 2 } else { 1 }; // skip r / br
                let mut hashes = 0usize;
                while bytes.get(i) == Some(&b'#') {
                    hashes += 1;
                    i += 1;
                }
                i += 1; // opening quote
                loop {
                    match bytes.get(i) {
                        None => break,
                        Some(b'"') => {
                            let mut ok = true;
                            for k in 0..hashes {
                                if bytes.get(i + 1 + k) != Some(&b'#') {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok {
                                i += 1 + hashes;
                                break;
                            }
                            i += 1;
                        }
                        Some(_) => i += 1,
                    }
                }
                count_lines!(start, i);
                tokens.push(Token {
                    kind: TokenKind::RawStrLit,
                    span: start..i,
                    line: start_line,
                });
            }
            // Normal and byte strings.
            b'"' => {
                let (end, lines) = skip_string(bytes, i);
                tokens.push(Token {
                    kind: TokenKind::StrLit,
                    span: i..end,
                    line,
                });
                line += lines;
                i = end;
            }
            b'b' if bytes.get(i + 1) == Some(&b'"') => {
                let (end, lines) = skip_string(bytes, i + 1);
                tokens.push(Token {
                    kind: TokenKind::StrLit,
                    span: i..end,
                    line,
                });
                line += lines;
                i = end;
            }
            b'b' if bytes.get(i + 1) == Some(&b'\'') => {
                let end = skip_char_lit(bytes, i + 1);
                tokens.push(Token {
                    kind: TokenKind::CharLit,
                    span: i..end,
                    line,
                });
                i = end;
            }
            // Char literal vs. lifetime.
            b'\'' => {
                if is_char_literal(bytes, i) {
                    let end = skip_char_lit(bytes, i);
                    tokens.push(Token {
                        kind: TokenKind::CharLit,
                        span: i..end,
                        line,
                    });
                    i = end;
                } else {
                    let start = i;
                    i += 1;
                    while i < bytes.len() && is_ident_byte(bytes[i]) {
                        i += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        span: start..i,
                        line,
                    });
                }
            }
            // Identifiers and keywords (raw identifiers handled above
            // only when they open a raw string; `r#ident` lands here).
            _ if b.is_ascii_alphabetic() || b == b'_' || b >= 0x80 => {
                let start = i;
                if (b == b'r' || b == b'b')
                    && bytes.get(i + 1) == Some(&b'#')
                    && bytes
                        .get(i + 2)
                        .is_some_and(|&c| c.is_ascii_alphabetic() || c == b'_')
                {
                    i += 2; // raw identifier prefix
                }
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    span: start..i,
                    line,
                });
            }
            // Numbers.
            _ if b.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    let c = bytes[i];
                    if is_ident_byte(c) {
                        i += 1;
                    } else if c == b'.'
                        && bytes.get(i + 1).is_some_and(|&d| d.is_ascii_digit())
                        && !src[start..i].contains('.')
                    {
                        // One decimal point, only when followed by a digit
                        // (so `1.max(2)` and `0..n` stay method/range).
                        i += 1;
                    } else if (c == b'+' || c == b'-')
                        && matches!(bytes.get(i - 1), Some(b'e') | Some(b'E'))
                        && bytes.get(i + 1).is_some_and(|&d| d.is_ascii_digit())
                    {
                        i += 1; // exponent sign
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::NumLit,
                    span: start..i,
                    line,
                });
            }
            // Everything else: single punctuation byte.
            _ => {
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    span: i..i + 1,
                    line,
                });
                i += 1;
            }
        }
    }

    Lexed {
        src: src.to_string(),
        tokens,
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Does a raw-string literal start at `i`? (`r"`, `r#…#"`, `br"`, `br#…`)
fn starts_raw_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i + 1;
    if bytes[i] == b'b' {
        if bytes.get(j) != Some(&b'r') {
            return false;
        }
        j += 1;
    }
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    // `r#ident` (raw identifier) has an ident char here, not a quote.
    bytes.get(j) == Some(&b'"')
}

/// Skip a `"…"` literal starting at the opening quote; returns
/// (index past the closing quote, newline count inside).
fn skip_string(bytes: &[u8], start: usize) -> (usize, u32) {
    let mut i = start + 1;
    let mut lines = 0u32;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                // A `\`-newline continuation still ends a source line.
                if bytes.get(i + 1) == Some(&b'\n') {
                    lines += 1;
                }
                i += 2;
            }
            b'\n' => {
                lines += 1;
                i += 1;
            }
            b'"' => return (i + 1, lines),
            _ => i += 1,
        }
    }
    (bytes.len(), lines)
}

/// Skip a `'…'` char literal starting at the quote; returns the index
/// past the closing quote.
fn skip_char_lit(bytes: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    if bytes.get(i) == Some(&b'\\') {
        i += 2; // escape + escaped byte (covers \', \\, \n, and opens \u{)
        while i < bytes.len() && bytes[i] != b'\'' {
            i += 1;
        }
    } else {
        // One (possibly multi-byte) character.
        i += 1;
        while i < bytes.len() && (bytes[i] & 0xC0) == 0x80 {
            i += 1;
        }
    }
    if bytes.get(i) == Some(&b'\'') {
        i + 1
    } else {
        i
    }
}

/// Disambiguate `'` at `i`: char literal (closing quote soon) or
/// lifetime/label. `'a'` is a char; `'a` and `'static` are lifetimes.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        None => false,
        Some(b'\\') => true,
        Some(&c) => {
            if is_ident_byte(c) && c < 0x80 {
                // `'x'` is a char literal only if the very next byte after
                // one ident char is the closing quote; `'xy`/`'x,` are
                // lifetimes/labels.
                bytes.get(i + 2) == Some(&b'\'')
            } else {
                // Non-ident char (`'('`, `' '`) must be a char literal.
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        let lx = lex(src);
        lx.tokens
            .iter()
            .map(|t| (t.kind, lx.src[t.span.clone()].to_string()))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("fn f(x: u32) -> u32 { x }");
        assert_eq!(toks[0], (TokenKind::Ident, "fn".to_string()));
        assert_eq!(toks[1], (TokenKind::Ident, "f".to_string()));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Punct && t == "{"));
    }

    #[test]
    fn string_contents_are_single_tokens() {
        let toks = kinds(r#"let s = "x.unwrap() // not code";"#);
        let strs: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::StrLit)
            .collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].1.contains("unwrap"));
        // No ident token "unwrap" leaked out of the literal.
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
    }

    #[test]
    fn escaped_quotes_stay_inside_the_literal() {
        let toks = kinds(r#"let s = "a \" b"; let t = 1;"#);
        let strs: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::StrLit)
            .collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].1, r#""a \" b""#);
    }

    #[test]
    fn raw_strings_at_every_hash_depth() {
        for src in [
            r###"let s = r"todo!(x)";"###,
            r###"let s = r#"todo!("quoted")"#;"###,
            r####"let s = r##"nested "# inside"##;"####,
            r###"let s = br#"bytes todo!()"#;"###,
        ] {
            let toks = kinds(src);
            assert!(
                toks.iter().any(|(k, _)| *k == TokenKind::RawStrLit),
                "{src}"
            );
            assert!(
                !toks
                    .iter()
                    .any(|(k, t)| *k == TokenKind::Ident && t == "todo"),
                "{src}: {toks:?}"
            );
        }
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let toks = kinds("let r#fn = 1;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "r#fn"));
    }

    #[test]
    fn nested_block_comments_are_skipped() {
        let toks = kinds("a /* x /* y.unwrap() */ z */ b");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "a".to_string()),
                (TokenKind::Ident, "b".to_string())
            ]
        );
    }

    #[test]
    fn doc_and_line_comments_are_skipped() {
        let toks = kinds("/// dbg!(x) in docs\n//! todo!()\nfn f() {} // trailing");
        assert!(!toks.iter().any(|(_, t)| t == "dbg" || t == "todo"));
        assert!(toks.iter().any(|(_, t)| t == "fn"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let toks = kinds(r"let c = 'x'; let n = '\n'; fn f<'a>(s: &'a str) {} 'outer: loop {}");
        let chars: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::CharLit)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(chars, vec!["'x'".to_string(), r"'\n'".to_string()]);
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(
            lifetimes,
            vec!["'a".to_string(), "'a".to_string(), "'outer".to_string()]
        );
    }

    #[test]
    fn quote_char_literal_does_not_eat_the_file() {
        let toks = kinds(r"let q = '\''; let x = 1;");
        assert!(toks.iter().any(|(k, _)| *k == TokenKind::CharLit));
        assert!(toks.iter().any(|(_, t)| t == "x"));
    }

    #[test]
    fn numbers_with_suffixes_floats_and_ranges() {
        let toks = kinds("let a = 1_000u64; let b = 0.5e-3; for i in 0..n { x[i+1]; } 1.max(2);");
        let nums: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::NumLit)
            .map(|(_, t)| t.clone())
            .collect();
        assert!(nums.contains(&"1_000u64".to_string()), "{nums:?}");
        assert!(nums.contains(&"0.5e-3".to_string()), "{nums:?}");
        // Range `0..n` keeps 0 separate; method call `1.max` keeps 1 separate.
        assert!(nums.contains(&"0".to_string()), "{nums:?}");
        assert!(nums.contains(&"1".to_string()), "{nums:?}");
    }

    #[test]
    fn line_numbers_track_multiline_constructs() {
        let src = "fn a() {}\n/* two\nlines */\nfn b() {}\nlet s = \"x\ny\";\nfn c() {}";
        let lx = lex(src);
        let line_of = |name: &str| {
            lx.tokens
                .iter()
                .position(|t| &lx.src[t.span.clone()] == name)
                .map(|i| lx.tokens[i].line)
                .unwrap()
        };
        assert_eq!(line_of("a"), 1);
        assert_eq!(line_of("b"), 4);
        assert_eq!(line_of("c"), 7);
    }

    #[test]
    fn backslash_continued_strings_count_their_lines() {
        // Each `\`-newline continuation ends a source line, so the
        // finding below two of them lands on line 6, quoting line 6.
        let src = "fn f() {\n    let a = \"one \\\n        two\";\n    let b = \"three \\\n        four\";\n    let x = y.expect(\"z\");\n}\n";
        let lx = lex(src);
        let expect = lx
            .tokens
            .iter()
            .find(|t| &lx.src[t.span.clone()] == "expect")
            .map(|t| t.line);
        assert_eq!(expect, Some(6));
        let diags = crate::source::scan_file("lib.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].location, "lib.rs:6");
        assert!(
            diags[0].message.contains("y.expect"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        for src in ["let s = \"unterminated", "let s = r#\"open", "let c = '"] {
            let _ = lex(src);
        }
    }
}
