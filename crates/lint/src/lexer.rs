//! A small hand-rolled Rust lexer — just enough structure for the
//! lint rules, no full parse.
//!
//! The scanner distinguishes the token classes that matter for
//! project-invariant linting: identifiers, punctuation, numeric /
//! string / char literals, lifetimes, and comments (kept separately so
//! suppression directives can be read from them). It handles every
//! literal form that appears in real Rust source — escaped strings,
//! raw strings with arbitrary `#` fences, byte and C strings, char
//! vs. lifetime disambiguation — and *nested* block comments, which
//! regex-based scanners get wrong.
//!
//! Positions are 1-based `(line, col)` in characters, matching what
//! editors and CI annotations expect.

/// The class of one code token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `fn`, `unwrap`, …).
    Ident,
    /// Single punctuation character (`.`/`:`/`!`/`[`/…).
    Punct,
    /// String literal of any form (`"…"`, `r#"…"#`, `b"…"`, `c"…"`).
    Str,
    /// Char or byte-char literal (`'a'`, `'\n'`, `b'x'`).
    Char,
    /// Numeric literal (integers and floats, any base).
    Num,
    /// Lifetime (`'a`, `'static`, `'_`).
    Lifetime,
}

/// One code token with its source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Source text. For strings this is the full literal including
    /// quotes and prefix; for punctuation a single character.
    pub text: String,
    /// 1-based line of the first character.
    pub line: u32,
    /// 1-based column (in characters) of the first character.
    pub col: u32,
}

/// One comment (line or block) with its source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comment {
    /// Full text including the `//` / `/*` markers.
    pub text: String,
    /// 1-based line of the comment start.
    pub line: u32,
    /// 1-based column of the comment start.
    pub col: u32,
    /// Line the comment ends on (same as `line` for `//` comments).
    pub end_line: u32,
}

/// Character cursor with line/column tracking.
struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn new(src: &str) -> Cursor {
        Cursor {
            chars: src.chars().collect(),
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

/// Tokenize `src`, returning code tokens and comments separately.
///
/// The lexer is total: any input produces a token stream (unterminated
/// literals run to end-of-file rather than erroring), so a half-edited
/// file still lints.
pub fn lex(src: &str) -> (Vec<Tok>, Vec<Comment>) {
    let mut cur = Cursor::new(src);
    let mut toks = Vec::new();
    let mut comments = Vec::new();

    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if c == '/' && cur.peek_at(1) == Some('/') {
            let mut text = String::new();
            while let Some(ch) = cur.peek() {
                if ch == '\n' {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            comments.push(Comment {
                text,
                line,
                col,
                end_line: line,
            });
            continue;
        }
        if c == '/' && cur.peek_at(1) == Some('*') {
            let mut text = String::new();
            let mut depth = 0usize;
            while let Some(ch) = cur.peek() {
                if ch == '/' && cur.peek_at(1) == Some('*') {
                    depth += 1;
                    text.push('/');
                    text.push('*');
                    cur.bump();
                    cur.bump();
                } else if ch == '*' && cur.peek_at(1) == Some('/') {
                    depth -= 1;
                    text.push('*');
                    text.push('/');
                    cur.bump();
                    cur.bump();
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(ch);
                    cur.bump();
                }
            }
            comments.push(Comment {
                text,
                line,
                col,
                end_line: cur.line,
            });
            continue;
        }
        // Identifiers — possibly a raw/byte/C string prefix.
        if c.is_alphabetic() || c == '_' {
            let mut ident = String::new();
            while let Some(ch) = cur.peek() {
                if ch.is_alphanumeric() || ch == '_' {
                    ident.push(ch);
                    cur.bump();
                } else {
                    break;
                }
            }
            // String-literal prefixes: r" r#" b" br" c" cr" b' — the
            // prefix ident is directly followed by the quote/fence.
            let is_str_prefix = matches!(ident.as_str(), "r" | "b" | "br" | "c" | "cr")
                && matches!(cur.peek(), Some('"') | Some('#'));
            let is_byte_char = ident == "b" && cur.peek() == Some('\'');
            if is_str_prefix {
                let body = scan_guarded_string(&mut cur);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: format!("{ident}{body}"),
                    line,
                    col,
                });
            } else if is_byte_char {
                let body = scan_char_or_lifetime(&mut cur);
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: format!("{ident}{body}"),
                    line,
                    col,
                });
            } else {
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: ident,
                    line,
                    col,
                });
            }
            continue;
        }
        // Numbers (loose: base prefixes, underscores, float dots and
        // exponents — precision is irrelevant to the rules).
        if c.is_ascii_digit() {
            let mut num = String::new();
            while let Some(ch) = cur.peek() {
                if ch.is_alphanumeric() || ch == '_' {
                    num.push(ch);
                    cur.bump();
                } else if ch == '.' {
                    // `1.0` is a float; `0..n` is a range.
                    match cur.peek_at(1) {
                        Some(d) if d.is_ascii_digit() => {
                            num.push('.');
                            cur.bump();
                        }
                        _ => break,
                    }
                } else if (ch == '+' || ch == '-')
                    && matches!(num.chars().last(), Some('e') | Some('E'))
                {
                    // Exponent sign: 1e-3.
                    num.push(ch);
                    cur.bump();
                } else {
                    break;
                }
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: num,
                line,
                col,
            });
            continue;
        }
        // Plain strings.
        if c == '"' {
            let text = scan_quoted(&mut cur, '"');
            toks.push(Tok {
                kind: TokKind::Str,
                text,
                line,
                col,
            });
            continue;
        }
        // Char literal or lifetime.
        if c == '\'' {
            let body = scan_char_or_lifetime(&mut cur);
            let kind = if body.ends_with('\'') && body.len() > 1 {
                TokKind::Char
            } else {
                TokKind::Lifetime
            };
            toks.push(Tok {
                kind,
                text: body,
                line,
                col,
            });
            continue;
        }
        // Everything else: single punctuation characters.
        cur.bump();
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
            col,
        });
    }
    (toks, comments)
}

/// Scan a `"…"`-style literal (cursor on the opening quote), honouring
/// backslash escapes. Returns the literal including quotes.
fn scan_quoted(cur: &mut Cursor, quote: char) -> String {
    let mut text = String::new();
    text.push(quote);
    cur.bump();
    while let Some(ch) = cur.peek() {
        if ch == '\\' {
            text.push(ch);
            cur.bump();
            if let Some(esc) = cur.peek() {
                text.push(esc);
                cur.bump();
            }
            continue;
        }
        text.push(ch);
        cur.bump();
        if ch == quote {
            break;
        }
    }
    text
}

/// Scan the quote part after a raw/byte/C prefix: either a plain
/// escaped string (`"…"`) or a `#`-fenced raw string (`#"…"#`,
/// `##"…"##`, …). Raw bodies take no escapes; the close must match
/// the fence length.
fn scan_guarded_string(cur: &mut Cursor) -> String {
    let mut text = String::new();
    let mut fence = 0usize;
    while cur.peek() == Some('#') {
        fence += 1;
        text.push('#');
        cur.bump();
    }
    if cur.peek() != Some('"') {
        return text; // malformed; give back what we have
    }
    if fence == 0 {
        // A raw string without fence still takes no escapes, but `r"\"`
        // *is* terminated by that quote — escape handling differs from
        // scan_quoted only for `r`/`br`/`cr` prefixes. Byte strings
        // (`b"…"`) do take escapes; treating `\"` as an escape there is
        // required, and for `r"…"` a `\` before `"` simply cannot occur
        // in valid code unless the string ends — either way we stay in
        // sync for everything the rules look at.
        text.push_str(&scan_quoted(cur, '"'));
        return text;
    }
    text.push('"');
    cur.bump();
    while let Some(ch) = cur.peek() {
        text.push(ch);
        cur.bump();
        if ch == '"' {
            let mut got = 0usize;
            while got < fence && cur.peek() == Some('#') {
                got += 1;
                text.push('#');
                cur.bump();
            }
            if got == fence {
                break;
            }
        }
    }
    text
}

/// Scan from a `'`: either a char literal (`'a'`, `'\u{1F600}'`) or a
/// lifetime (`'a`, `'static`, `'_`). Returns the raw text.
fn scan_char_or_lifetime(cur: &mut Cursor) -> String {
    let mut text = String::new();
    text.push('\'');
    cur.bump();
    match cur.peek() {
        Some('\\') => {
            // Escaped char literal.
            text.push('\\');
            cur.bump();
            while let Some(ch) = cur.peek() {
                text.push(ch);
                cur.bump();
                if ch == '\'' {
                    break;
                }
            }
            text
        }
        Some(c) if c.is_alphanumeric() || c == '_' => {
            // `'a'` = char, `'abc` / `'a` followed by non-quote =
            // lifetime.
            text.push(c);
            cur.bump();
            if cur.peek() == Some('\'') {
                text.push('\'');
                cur.bump();
                return text;
            }
            while let Some(ch) = cur.peek() {
                if ch.is_alphanumeric() || ch == '_' {
                    text.push(ch);
                    cur.bump();
                } else {
                    break;
                }
            }
            text
        }
        Some(c) => {
            // Punctuation char literal like '(' or ' '.
            text.push(c);
            cur.bump();
            if cur.peek() == Some('\'') {
                text.push('\'');
                cur.bump();
            }
            text
        }
        None => text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .0
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn idents_and_punct() {
        let (toks, _) = lex("let x = map.get(&k);");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            ["let", "x", "=", "map", ".", "get", "(", "&", "k", ")", ";"]
        );
    }

    #[test]
    fn positions_are_one_based() {
        let (toks, _) = lex("a\n  bb");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn string_contents_are_not_idents() {
        assert_eq!(idents(r#"let s = "HashMap::new()";"#), ["let", "s"]);
    }

    #[test]
    fn escaped_quotes_stay_inside_the_string() {
        let (toks, _) = lex(r#"f("a\"b", c)"#);
        let strs: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, [r#""a\"b""#]);
        assert!(idents(r#"f("a\"b", unwrap)"#).contains(&"unwrap".to_string()));
    }

    #[test]
    fn raw_strings_with_fences() {
        assert_eq!(
            idents(r###"let s = r#"unwrap() "quoted" inside"#;"###),
            ["let", "s"]
        );
        let (toks, _) = lex(r###"r##"fence "# not end"## x"###);
        assert_eq!(toks.last().map(|t| t.text.as_str()), Some("x"));
    }

    #[test]
    fn byte_and_c_strings() {
        assert_eq!(idents(r###"b"bytes" c"cstr" br#"raw"# y"###), ["y"]);
        let (toks, _) = lex("b'x' z");
        assert_eq!(toks[0].kind, TokKind::Char);
        assert_eq!(toks[1].text, "z");
    }

    #[test]
    fn char_vs_lifetime() {
        let (toks, _) = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, ["'a", "'a"]);
        let chars: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, ["'x'", "'\\n'"]);
    }

    #[test]
    fn static_lifetime_and_underscore() {
        let (toks, _) = lex("&'static str, &'_ T");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, ["'static", "'_"]);
    }

    #[test]
    fn line_comments_collected_separately() {
        let (toks, comments) = lex("x // pq-lint: allow(panic) -- invariant\ny");
        assert_eq!(toks.len(), 2);
        assert_eq!(comments.len(), 1);
        assert!(comments[0].text.contains("allow(panic)"));
        assert_eq!(comments[0].line, 1);
    }

    #[test]
    fn nested_block_comments() {
        let (toks, comments) = lex("a /* outer /* inner */ still comment */ b");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["a", "b"]);
        assert_eq!(comments.len(), 1);
        assert!(comments[0].text.contains("inner"));
    }

    #[test]
    fn unterminated_block_comment_is_total() {
        let (toks, comments) = lex("a /* runs to eof");
        assert_eq!(toks.len(), 1);
        assert_eq!(comments.len(), 1);
    }

    #[test]
    fn comment_markers_inside_strings() {
        assert_eq!(
            idents(r#"let s = "// not a comment"; y"#),
            ["let", "s", "y"]
        );
        let (_, comments) = lex(r#""/* nope */" // real"#);
        assert_eq!(comments.len(), 1);
        assert_eq!(comments[0].text, "// real");
    }

    #[test]
    fn numbers_including_floats_and_ranges() {
        let (toks, _) = lex("1.5e-3 0x1f 0..10 1_000");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, ["1.5e-3", "0x1f", "0", "10", "1_000"]);
    }

    #[test]
    fn multiline_string_tracks_lines() {
        let (toks, _) = lex("\"line1\nline2\" x");
        let x = toks.last().unwrap();
        assert_eq!((x.line, x.col), (2, 8));
    }
}
