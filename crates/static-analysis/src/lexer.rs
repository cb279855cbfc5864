//! A C-family lexer sufficient for CUDA and OpenMP-offload sources.
//!
//! Comments are dropped; preprocessor lines are kept as single
//! [`TokenKind::Pragma`] tokens (the OMP analyzer needs `#pragma omp
//! target` markers); everything else becomes identifiers, numbers, string
//! literals, or single/multi-character punctuation. Every token carries
//! its byte span in the original source so downstream diagnostics can
//! report stable locations.
//!
//! Tokens are zero-copy: a token's `text` is `&source[span.0..span.1]`,
//! borrowed from the lexed source, so lexing allocates only the token
//! vector and never a string per token.
//!
//! Pathological input degrades instead of mis-lexing: an unterminated
//! block comment swallows the rest of the file silently, an unterminated
//! string or char literal stops at the end of its line (it does not eat
//! the remainder of the file), and preprocessor continuations accept both
//! `\`+LF and `\`+CRLF line endings.

/// Lexical category of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (integer or floating, with suffixes).
    Number,
    /// String or char literal (contents preserved).
    Str,
    /// A whole preprocessor line (`#include …`, `#pragma …`).
    Pragma,
    /// Punctuation / operator (1–3 chars, e.g. `+`, `+=`, `<<<`).
    Punct,
}

/// One lexed token: kind, its exact source text, and its byte span.
///
/// The text is borrowed, never copied: `text == &source[span.0..span.1]`
/// for the source the token was lexed from, which is why a token is
/// `Copy` and lives no longer than that source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// Lexical category.
    pub kind: TokenKind,
    /// Source text of the token: the slice of the source at `span`.
    pub text: &'a str,
    /// Half-open byte range `[start, end)` of the token in the source.
    /// For `Pragma` tokens the end excludes trailing trimmed whitespace.
    pub span: (usize, usize),
}

impl Token<'_> {
    /// Convenience check against literal text.
    pub fn is(&self, s: &str) -> bool {
        self.text == s
    }
}

/// Multi-character operators, longest-match-first.
const MULTI_PUNCT: [&str; 26] = [
    "<<<", ">>>", "<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&",
    "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "::", "##",
];

/// Whether a byte can start one of [`MULTI_PUNCT`]: brackets, `;` and `,`
/// skip the operator scan entirely.
const MULTI_PUNCT_START: [bool; 256] = {
    let mut table = [false; 256];
    let mut i = 0;
    while i < MULTI_PUNCT.len() {
        table[MULTI_PUNCT[i].as_bytes()[0] as usize] = true;
        i += 1;
    }
    table
};

/// Lex a source string into tokens.
///
/// The lexer never fails: unrecognized bytes become single-char `Punct`
/// tokens, unterminated literals produce partial tokens, and the worst
/// malformed input yields a shorter-than-ideal but well-formed token
/// stream — the right degradation for an estimator that must accept
/// arbitrary benchmark code.
pub fn lex(source: &str) -> Vec<Token<'_>> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::with_capacity(source.len() / 4);
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        // Whitespace.
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // Block comment. An unterminated one swallows the rest of the
        // file — the partial token stream up to the `/*` is returned.
        if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            i += 2;
            while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                i += 1;
            }
            i = (i + 2).min(bytes.len());
            continue;
        }
        // Preprocessor line (with backslash continuations, LF or CRLF).
        if b == b'#' {
            let start = i;
            while i < bytes.len() {
                if bytes[i] == b'\n' {
                    let continued = (i >= 1 && bytes[i - 1] == b'\\')
                        || (i >= 2 && bytes[i - 1] == b'\r' && bytes[i - 2] == b'\\');
                    if continued {
                        i += 1;
                        continue;
                    }
                    break;
                }
                i += 1;
            }
            let text = source[start..i].trim_end();
            tokens.push(Token {
                kind: TokenKind::Pragma,
                text,
                span: (start, start + text.len()),
            });
            continue;
        }
        // Identifier.
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Ident,
                text: &source[start..i],
                span: (start, i),
            });
            continue;
        }
        // Number (ints, floats, hex, suffixes like f/u/l, exponents).
        if b.is_ascii_digit() || (b == b'.' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit())
        {
            let start = i;
            let mut seen_exp = false;
            while i < bytes.len() {
                let c = bytes[i];
                let ok = c.is_ascii_alphanumeric()
                    || c == b'.'
                    || ((c == b'+' || c == b'-')
                        && seen_exp
                        && matches!(bytes[i - 1], b'e' | b'E' | b'p' | b'P'));
                if !ok {
                    break;
                }
                if matches!(c, b'e' | b'E' | b'p' | b'P') {
                    seen_exp = true;
                }
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Number,
                text: &source[start..i],
                span: (start, i),
            });
            continue;
        }
        // String / char literal. An unterminated literal stops at the end
        // of its line (escaped newlines continue it), so a lone stray
        // quote cannot swallow the remainder of the file.
        if b == b'"' || b == b'\'' {
            let quote = b;
            let start = i;
            i += 1;
            let mut closed = false;
            while i < bytes.len() {
                let c = bytes[i];
                if c == quote {
                    closed = true;
                    break;
                }
                if c == b'\n' {
                    break; // unterminated: stop at the line end
                }
                if c == b'\\' && i + 1 < bytes.len() {
                    i += 1; // skip the escaped char (incl. escaped newline)
                }
                i += 1;
            }
            if closed {
                i += 1; // consume the closing quote
            }
            let end = i.min(bytes.len());
            tokens.push(Token {
                kind: TokenKind::Str,
                text: &source[start..end],
                span: (start, end),
            });
            i = end;
            continue;
        }
        // Multi-char punctuation, longest first; otherwise a single char
        // (UTF-8 aware).
        let rest = &source[i..];
        let multi = MULTI_PUNCT_START[usize::from(b)]
            .then(|| MULTI_PUNCT.iter().find(|op| rest.starts_with(**op)))
            .flatten();
        let len = match multi {
            Some(op) => op.len(),
            None => rest.chars().next().map_or(1, char::len_utf8),
        };
        tokens.push(Token {
            kind: TokenKind::Punct,
            text: &rest[..len],
            span: (i, i + len),
        });
        i += len;
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<&str> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn tokens_borrow_their_text() {
        // `Copy` rules out an owned field; the text must be the source's
        // own bytes at the span, not a copy of them.
        fn assert_copy<T: Copy>() {}
        assert_copy::<Token<'static>>();
        let src = "x += 1.5f; // tail";
        for t in lex(src) {
            assert_eq!(t.text.as_ptr(), src[t.span.0..].as_ptr(), "{t:?}");
        }
    }

    #[test]
    fn basic_statement_lexes() {
        let toks = texts("y[i] = a * x[i] + y[i];");
        assert_eq!(
            toks,
            vec![
                "y", "[", "i", "]", "=", "a", "*", "x", "[", "i", "]", "+", "y", "[", "i", "]", ";"
            ]
        );
    }

    #[test]
    fn comments_are_dropped() {
        let toks = texts("a // line\n/* block\nstill */ b");
        assert_eq!(toks, vec!["a", "b"]);
    }

    #[test]
    fn pragma_lines_are_single_tokens() {
        let toks = lex("#pragma omp target teams\nint x;");
        assert_eq!(toks[0].kind, TokenKind::Pragma);
        assert!(toks[0].text.contains("omp target teams"));
        assert_eq!(toks[1].text, "int");
    }

    #[test]
    fn pragma_continuation_lines_join() {
        let toks = lex("#pragma omp target \\\n  map(to: a)\nx");
        assert_eq!(toks[0].kind, TokenKind::Pragma);
        assert!(toks[0].text.contains("map(to: a)"));
        assert_eq!(toks[1].text, "x");
    }

    #[test]
    fn pragma_crlf_continuation_lines_join() {
        let toks = lex("#pragma omp target \\\r\n  map(to: a)\r\nx");
        assert_eq!(toks[0].kind, TokenKind::Pragma);
        assert!(toks[0].text.contains("map(to: a)"), "{:?}", toks[0].text);
        assert_eq!(toks[1].text, "x");
    }

    #[test]
    fn float_literals_keep_suffixes_and_exponents() {
        let toks = texts("1.0f 2.5e-3 0x1Fu 3.0");
        assert_eq!(toks, vec!["1.0f", "2.5e-3", "0x1Fu", "3.0"]);
    }

    #[test]
    fn cuda_launch_chevrons_lex_as_one_token() {
        let toks = texts("k<<<grid, block>>>(a);");
        assert!(toks.contains(&"<<<"));
        assert!(toks.contains(&">>>"));
    }

    #[test]
    fn compound_assignment_operators() {
        let toks = texts("a += b; c <<= 2;");
        assert!(toks.contains(&"+="));
        assert!(toks.contains(&"<<="));
    }

    #[test]
    fn string_literals_survive_with_escapes() {
        let toks = lex(r#"printf("%d \"quoted\"\n", x);"#);
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("quoted"));
    }

    #[test]
    fn leading_dot_floats_lex_as_numbers() {
        let toks = lex("x = .5f;");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Number && t.text == ".5f"));
    }

    #[test]
    fn empty_and_whitespace_sources() {
        assert!(lex("").is_empty());
        assert!(lex("   \n\t  ").is_empty());
    }

    #[test]
    fn spans_index_back_into_the_source() {
        let src = "y[i] = a * x[i];\n#pragma omp simd\ncall(\"str\", 1.5f);";
        for t in lex(src) {
            let (s, e) = t.span;
            assert!(
                s <= e && e <= src.len(),
                "bad span {:?} for {:?}",
                t.span,
                t
            );
            assert_eq!(&src[s..e], t.text, "span must reproduce the text");
        }
    }

    #[test]
    fn unterminated_string_stops_at_line_end() {
        // The stray quote must not swallow the next line.
        let toks = lex("s = \"oops;\nint next = 1;");
        assert!(toks.iter().any(|t| t.kind == TokenKind::Str));
        assert!(toks.iter().any(|t| t.is("next")), "{toks:?}");
        // Same for char literals (e.g. a lone apostrophe in text).
        let toks = lex("int a; ' stray\nint b;");
        assert!(toks.iter().any(|t| t.is("b")), "{toks:?}");
    }

    #[test]
    fn escaped_newline_continues_a_string() {
        let toks = lex("s = \"one \\\ntwo\"; x");
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("two"));
        assert!(toks.iter().any(|t| t.is("x")));
    }

    #[test]
    fn unterminated_block_comment_and_trailing_backslash_degrade() {
        // Unterminated block comment: everything after `/*` is dropped,
        // the tokens before it survive.
        let toks = lex("int a; /* never closed\nint b;");
        assert!(toks.iter().any(|t| t.is("a")));
        assert!(!toks.iter().any(|t| t.is("b")));
        // Trailing backslash at EOF inside a literal must not panic or
        // run past the buffer.
        let toks = lex("\"abc\\");
        assert_eq!(toks.len(), 1);
        let toks = lex("#define X \\");
        assert_eq!(toks.len(), 1);
    }
}
