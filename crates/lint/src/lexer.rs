//! A lightweight Rust lexer: just enough to tokenize real-world Rust for
//! line-oriented static analysis without any dependencies.
//!
//! The lexer's one job is to never misclassify *where code is*: rule
//! matching happens on the token stream, so anything that looks like a
//! violation inside a string literal, a (possibly nested) block comment, a
//! raw string, or a doc comment must not produce tokens. It also collects
//! `// semloc-lint: allow(...)` suppression pragmas with the line they
//! govern, and it is the substrate for the `#[cfg(test)]` scope tracker in
//! [`crate::scopes`].
//!
//! Deliberate simplifications (documented, tested):
//!
//! * Numeric literals (integer or float, any radix or suffix) become one
//!   valueless [`Tok::Num`] token: no rule reads a literal's value.
//! * Raw identifiers (`r#type`) lex as a single identifier *including* the
//!   `r#` prefix, so `let r#struct = …` can never be mistaken for a
//!   `struct` keyword by the item model, while a field named `r#type` and
//!   its `self.r#type` references still compare equal.
//! * Macro bodies are lexed like ordinary code (conservative: an env read
//!   inside `macro_rules!` counts as a read site).
//! * Plain/raw/byte *string* literals keep their text (as [`Tok::Str`]) so
//!   the env-var registry rule (D10) can see `std::env::var("SEMLOC_…")`
//!   call sites; rules must still never match *identifiers* inside them.

/// One lexical token with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: Tok,
    pub line: u32,
    pub col: u32,
}

/// Token kind. Identifier-shaped text inside literals is deliberately
/// unreachable by rules: string literals keep their text only in the
/// dedicated [`Tok::Str`] variant (matched exclusively by the env-var
/// registry rule against `SEMLOC_*` names), never as [`Tok::Ident`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (raw identifiers keep their `r#` prefix).
    Ident(String),
    /// Single punctuation character (`.`, `!`, `{`, `<`, ...).
    Punct(char),
    /// Numeric literal (integer or float).
    Num,
    /// String literal (plain, raw, or byte) with its uninterpreted text
    /// (escape sequences are kept verbatim).
    Str(String),
    /// Any other literal: char, byte char, float.
    Lit,
    /// A lifetime such as `'a` (kept distinct from char literals).
    Lifetime,
}

/// A `// semloc-lint: allow(rule, ...)` pragma found while lexing.
///
/// `line` is the line the comment sits on; the suppression applies to
/// findings on that line and on the immediately following line (so the
/// pragma can trail the offending expression or sit on its own line just
/// above it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowPragma {
    pub line: u32,
    pub rules: Vec<String>,
}

/// Lexer output: the token stream plus every suppression pragma seen.
#[derive(Debug, Default)]
pub struct LexOut {
    pub tokens: Vec<Token>,
    pub pragmas: Vec<AllowPragma>,
}

/// Tokenize `src`, collecting suppression pragmas along the way.
pub fn lex(src: &str) -> LexOut {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    out: LexOut,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            out: LexOut::default(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    /// Advance one byte, maintaining line/column. Multi-byte UTF-8
    /// continuation bytes do not advance the column, so columns stay
    /// *approximately* right in the presence of non-ASCII source.
    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xC0 != 0x80 {
            self.col += 1;
        }
        Some(b)
    }

    fn push(&mut self, kind: Tok, line: u32, col: u32) {
        self.out.tokens.push(Token { kind, line, col });
    }

    fn run(mut self) -> LexOut {
        while let Some(b) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(line),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => {
                    self.bump();
                    let text = self.string_body();
                    self.push(Tok::Str(text), line, col);
                }
                b'\'' => self.char_or_lifetime(line, col),
                b'r' | b'b' if self.raw_or_byte_literal(line, col) => {}
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.ident(line, col),
                b'0'..=b'9' => self.number(line, col),
                _ => {
                    self.bump();
                    // Multi-byte UTF-8 puncts are rare and never rule
                    // targets; collapse them to their lead byte as char.
                    self.push(Tok::Punct(b as char), line, col);
                }
            }
        }
        self.out
    }

    /// `// ...` including doc comments. Pragmas are only honored in plain
    /// `//` comments (a doc comment describing the pragma syntax must not
    /// accidentally suppress findings).
    fn line_comment(&mut self, line: u32) {
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("");
        let body = text.trim_start_matches('/');
        let is_doc = text.starts_with("///") || text.starts_with("//!");
        if !is_doc {
            if let Some(p) = parse_pragma(body, line) {
                self.out.pragmas.push(p);
            }
        }
    }

    /// `/* ... */` with nesting (Rust block comments nest).
    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some(b'*'), Some(b'/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    /// Body of a `"..."` string (opening quote already consumed). Returns
    /// the uninterpreted text between the quotes.
    fn string_body(&mut self) -> String {
        let start = self.pos;
        let mut end = self.pos;
        while let Some(b) = self.bump() {
            match b {
                b'\\' => {
                    self.bump();
                }
                b'"' => break,
                _ => {}
            }
            end = self.pos;
        }
        String::from_utf8_lossy(&self.src[start..end]).into_owned()
    }

    /// `'a'` / `'\n'` char literals vs `'a` lifetimes.
    fn char_or_lifetime(&mut self, line: u32, col: u32) {
        self.bump(); // opening '
        match self.peek(0) {
            Some(b'\\') => {
                // Escaped char literal: consume the backslash and the
                // escaped character, then scan to the closing quote
                // (covers \u{...} of any length and \' itself).
                self.bump();
                self.bump();
                while let Some(b) = self.bump() {
                    if b == b'\'' {
                        break;
                    }
                }
                self.push(Tok::Lit, line, col);
            }
            Some(c) if c == b'_' || c.is_ascii_alphanumeric() || c >= 0x80 => {
                // `'x'` is a char literal; `'x` followed by anything else
                // is a lifetime.
                if self.peek(1) == Some(b'\'') && c != b'_' {
                    self.bump();
                    self.bump();
                    self.push(Tok::Lit, line, col);
                } else if self.peek(1) == Some(b'\'') {
                    // `'_'` — the underscore char literal.
                    self.bump();
                    self.bump();
                    self.push(Tok::Lit, line, col);
                } else {
                    while let Some(b) = self.peek(0) {
                        if b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80 {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    // A trailing quote means this was a char literal whose
                    // payload is longer than one byte (multi-byte UTF-8
                    // like 'é'), not a lifetime: without this, the closing
                    // quote would start a bogus new literal and desync the
                    // stream ("lifetime in generic position" regression).
                    if self.peek(0) == Some(b'\'') {
                        self.bump();
                        self.push(Tok::Lit, line, col);
                    } else {
                        self.push(Tok::Lifetime, line, col);
                    }
                }
            }
            _ => {
                // Punctuation char literal such as '(' or '\''-less junk;
                // consume one char and an optional closing quote.
                self.bump();
                if self.peek(0) == Some(b'\'') {
                    self.bump();
                }
                self.push(Tok::Lit, line, col);
            }
        }
    }

    /// Try to lex `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, `b'x'`, or
    /// a raw identifier `r#type` starting at an `r`/`b`. Returns false if
    /// it is just an ordinary identifier.
    fn raw_or_byte_literal(&mut self, line: u32, col: u32) -> bool {
        let mut ahead = 1usize;
        let first = self.peek(0);
        if first == Some(b'b') {
            match self.peek(1) {
                Some(b'\'') => {
                    // Byte char literal b'x' / b'\n'.
                    self.bump();
                    self.bump();
                    if self.peek(0) == Some(b'\\') {
                        self.bump();
                    }
                    while let Some(b) = self.bump() {
                        if b == b'\'' {
                            break;
                        }
                    }
                    self.push(Tok::Lit, line, col);
                    return true;
                }
                Some(b'"') => {
                    self.bump();
                    self.bump();
                    let text = self.string_body();
                    self.push(Tok::Str(text), line, col);
                    return true;
                }
                Some(b'r') => ahead = 2,
                _ => return false,
            }
        }
        // At `r` (ahead = 1) or `br` (ahead = 2): raw string?
        let mut hashes = 0usize;
        while self.peek(ahead + hashes) == Some(b'#') {
            hashes += 1;
        }
        if self.peek(ahead + hashes) != Some(b'"') {
            // `r#ident` (exactly one hash, then an identifier start) is a
            // raw identifier: lex it as one Ident *keeping* the `r#`, so a
            // keyword-named binding (`let r#struct = …`) can never be
            // mistaken for the keyword, while `self.r#type` references
            // still compare equal to an `r#type` field declaration.
            if ahead == 1
                && hashes == 1
                && self
                    .peek(2)
                    .is_some_and(|b| b == b'_' || b.is_ascii_alphabetic() || b >= 0x80)
            {
                self.bump(); // r
                self.bump(); // #
                let start = self.pos;
                while let Some(b) = self.peek(0) {
                    if b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80 {
                        self.bump();
                    } else {
                        break;
                    }
                }
                let name = format!("r#{}", String::from_utf8_lossy(&self.src[start..self.pos]));
                self.push(Tok::Ident(name), line, col);
                return true;
            }
            return false;
        }
        for _ in 0..(ahead + hashes + 1) {
            self.bump();
        }
        let start = self.pos;
        let mut end = self.pos;
        // Scan for `"` followed by `hashes` hashes.
        'scan: while let Some(b) = self.bump() {
            if b == b'"' {
                for h in 0..hashes {
                    if self.peek(h) != Some(b'#') {
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
            end = self.pos;
        }
        let text = String::from_utf8_lossy(&self.src[start..end]).into_owned();
        self.push(Tok::Str(text), line, col);
        true
    }

    fn ident(&mut self, line: u32, col: u32) {
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80 {
                self.bump();
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.src[start..self.pos])
            .unwrap_or("")
            .to_string();
        self.push(Tok::Ident(s), line, col);
    }

    fn number(&mut self, line: u32, col: u32) {
        while let Some(b) = self.peek(0) {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.bump();
            } else if b == b'.' && self.peek(1).is_some_and(|n| n.is_ascii_digit()) {
                // `1.5` continues the literal; `0..n` and `1.max(..)` do not.
                self.bump();
            } else {
                break;
            }
        }
        self.push(Tok::Num, line, col);
    }
}

/// Parse `semloc-lint: allow(rule-a, rule-b): optional reason` from a
/// comment body (leading slashes already stripped).
fn parse_pragma(body: &str, line: u32) -> Option<AllowPragma> {
    let body = body.trim_start();
    let rest = body.strip_prefix("semloc-lint:")?.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    Some(AllowPragma { line, rules })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_produce_no_idents() {
        let src = r##"
            // HashMap in a line comment
            /* HashMap /* nested HashMap */ still comment */
            let a = "HashMap::new()";
            let b = r#"HashMap"#;
            let c = b"HashMap";
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
    }

    #[test]
    fn lifetimes_do_not_eat_following_code() {
        let ids = idents("fn f<'a>(x: &'a str) { x.unwrap() }");
        assert!(ids.contains(&"unwrap".to_string()));
        assert!(ids.contains(&"str".to_string()));
    }

    #[test]
    fn char_literals_lex_as_literals() {
        let toks = lex(r"let c = 'x'; let q = '\''; let u = '\u{1F600}'; let n = '_';").tokens;
        let lits = toks.iter().filter(|t| t.kind == Tok::Lit).count();
        assert_eq!(lits, 4);
    }

    #[test]
    fn numbers_lex_as_single_tokens() {
        let kinds: Vec<Tok> = lex("16 * 1024, 0x40, 2048usize, 1_000, 1.5, 0..n")
            .tokens
            .into_iter()
            .map(|t| t.kind)
            .collect();
        let nums = kinds.iter().filter(|k| **k == Tok::Num).count();
        assert_eq!(nums, 7, "{kinds:?}");
        // `0..n` is a number, a range and an identifier, not a float.
        assert_eq!(
            kinds[kinds.len() - 4..],
            [
                Tok::Num,
                Tok::Punct('.'),
                Tok::Punct('.'),
                Tok::Ident("n".into())
            ]
        );
    }

    #[test]
    fn pragma_parses_with_reason() {
        let out = lex("s.x += d; // semloc-lint: allow(snapshot-coverage, d6): debug-only field");
        assert_eq!(out.pragmas.len(), 1);
        assert_eq!(out.pragmas[0].rules, vec!["snapshot-coverage", "d6"]);
    }

    #[test]
    fn doc_comments_never_carry_pragmas() {
        let out = lex("/// semloc-lint: allow(snapshot-coverage)\nfn f() {}");
        assert!(out.pragmas.is_empty());
    }

    #[test]
    fn raw_ident_r_does_not_break_lexing() {
        let ids = idents("let r#type = 1; let rx = r; HashMap");
        assert!(ids.contains(&"HashMap".to_string()));
    }

    #[test]
    fn raw_idents_lex_as_single_idents_with_prefix() {
        // `r#type` is ONE identifier (with its prefix), so a declaration
        // and a field access spell the same token, and `r#struct` can
        // never satisfy a `== "struct"` keyword check in the item model.
        let ids = idents("struct S { r#type: u64 }\nfn f(s: &S) -> u64 { s.r#type }");
        assert_eq!(
            ids.iter().filter(|s| s.as_str() == "r#type").count(),
            2,
            "{ids:?}"
        );
        let ids = idents("let r#struct = 1; let r#fn = 2;");
        assert!(ids.contains(&"r#struct".to_string()), "{ids:?}");
        assert!(!ids.contains(&"struct".to_string()), "{ids:?}");
    }

    #[test]
    fn raw_ident_does_not_shadow_raw_strings() {
        // `r#"..."#` must still lex as a string, not a raw identifier.
        let out = lex(r###"let a = r#"text"#; let b = r#raw_id;"###);
        assert!(out.tokens.iter().any(|t| t.kind == Tok::Str("text".into())));
        assert!(out
            .tokens
            .iter()
            .any(|t| t.kind == Tok::Ident("r#raw_id".into())));
    }

    #[test]
    fn lifetimes_in_generic_position_stay_lifetimes() {
        let out = lex("fn f<'a, 'b: 'a>(x: &'a str, y: &'b [u8]) -> &'a str { x }");
        let lifetimes = out
            .tokens
            .iter()
            .filter(|t| t.kind == Tok::Lifetime)
            .count();
        assert_eq!(lifetimes, 6, "{:?}", out.tokens);
        // And the stream stays aligned: the trailing body ident survives.
        let ids = idents("impl<'a> Tr<'a> for S<'a> { fn g(&'a self) { h.unwrap(); } }");
        assert!(ids.contains(&"unwrap".to_string()), "{ids:?}");
    }

    #[test]
    fn multibyte_char_literal_is_not_a_lifetime() {
        // 'é' is a char literal; misreading it as a lifetime leaves the
        // closing quote to start a phantom literal and desync everything
        // after it.
        let ids = idents("let c = 'é'; x.unwrap()");
        assert!(ids.contains(&"unwrap".to_string()), "{ids:?}");
        let lifetimes = lex("let c = 'é';")
            .tokens
            .iter()
            .filter(|t| t.kind == Tok::Lifetime)
            .count();
        assert_eq!(lifetimes, 0);
    }

    #[test]
    fn string_literals_keep_their_text() {
        let out = lex(r#"std::env::var("SEMLOC_BUDGET"); let b = b"bytes";"#);
        assert!(out
            .tokens
            .iter()
            .any(|t| t.kind == Tok::Str("SEMLOC_BUDGET".into())));
        assert!(out
            .tokens
            .iter()
            .any(|t| t.kind == Tok::Str("bytes".into())));
        // Escapes are kept verbatim, not interpreted.
        let out = lex(r#"let s = "a\nb";"#);
        assert!(out
            .tokens
            .iter()
            .any(|t| t.kind == Tok::Str("a\\nb".into())));
    }
}
