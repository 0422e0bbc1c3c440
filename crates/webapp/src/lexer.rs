//! Tokenizer for MiniJS — the JavaScript subset the browser runtime
//! executes and the snapshot generator emits.

use crate::intern::Ident;
use crate::WebError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword, pre-interned — one interner hit per token,
    /// after which every comparison is a symbol compare.
    Ident(Ident),
    /// Numeric literal (always f64, like JS).
    Number(f64),
    /// String literal (already unescaped).
    Str(String),
    /// Punctuation or operator, e.g. `"=="`, `"{"`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

/// A token with its source line (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// 1-based source line.
    pub line: usize,
}

const PUNCTS2: &[&str] = &["==", "!=", "<=", ">=", "&&", "||", "+=", "-="];
/// One-byte punctuation: each token is a one-byte slice of this string.
const PUNCTS1: &str = "(){}[],;:.=<>+-*/%!";

/// Tokenizes MiniJS source.
///
/// The lexer walks UTF-8 bytes. Everything outside string literals is
/// ASCII, so a `char` is decoded only at a non-ASCII byte, which is either
/// whitespace (`U+00A0`, `U+2028`, … — skipped without counting a line),
/// string text (kept verbatim), or an unexpected character.
///
/// # Errors
///
/// Returns [`WebError::Lex`] for unterminated strings/comments or
/// unrecognized characters.
pub fn lex(src: &str) -> Result<Vec<Spanned>, WebError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while let Some(&c) = bytes.get(i) {
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if !c.is_ascii() {
            let ch = char_at(src, i)?;
            if ch.is_whitespace() {
                i += ch.len_utf8();
                continue;
            }
            return Err(WebError::Lex {
                line,
                message: format!("unexpected character {ch:?}"),
            });
        }
        // `char::is_whitespace` rather than `u8::is_ascii_whitespace`,
        // which leaves out the vertical tab.
        if char::from(c).is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == b'/' {
            match bytes.get(i + 1) {
                Some(b'/') => {
                    while bytes.get(i).is_some_and(|&b| b != b'\n') {
                        i += 1;
                    }
                    continue;
                }
                Some(b'*') => {
                    let body = &bytes[i + 2..];
                    let Some(end) = body.windows(2).position(|w| w == b"*/") else {
                        return Err(WebError::Lex {
                            line,
                            message: "unterminated block comment".to_string(),
                        });
                    };
                    line += body[..end].iter().filter(|&&b| b == b'\n').count();
                    i += 2 + end + 2;
                    continue;
                }
                _ => {}
            }
        }
        // Strings. Quotes, backslashes and newlines are ASCII and never
        // occur inside a multi-byte character, so the text between them
        // is copied over in verbatim runs.
        if c == b'"' || c == b'\'' {
            let start_line = line;
            i += 1;
            // Per-literal buffer; ownership moves into the emitted token.
            // lint: allow(collect-in-loop)
            let mut s = String::new();
            let mut run = i;
            loop {
                let Some(&ch) = bytes.get(i) else {
                    return Err(WebError::Lex {
                        line: start_line,
                        message: "unterminated string".to_string(),
                    });
                };
                if ch == c {
                    s.push_str(&src[run..i]);
                    i += 1;
                    break;
                }
                if ch == b'\n' {
                    return Err(WebError::Lex {
                        line: start_line,
                        message: "newline in string literal".to_string(),
                    });
                }
                if ch == b'\\' {
                    s.push_str(&src[run..i]);
                    i += 1;
                    let Some(&esc) = bytes.get(i) else {
                        return Err(WebError::Lex {
                            line: start_line,
                            message: "unterminated escape".to_string(),
                        });
                    };
                    s.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'0' => '\0',
                        b'\\' => '\\',
                        b'"' => '"',
                        b'\'' => '\'',
                        _ => {
                            return Err(WebError::Lex {
                                line,
                                message: format!("unknown escape \\{}", char_at(src, i)?),
                            })
                        }
                    });
                    i += 1;
                    run = i;
                    continue;
                }
                i += 1;
            }
            out.push(Spanned {
                token: Token::Str(s),
                line: start_line,
            });
            continue;
        }
        // Numbers (decimal, optional fraction/exponent; leading digit
        // required — `-x` lexes as unary minus).
        if c.is_ascii_digit() {
            let start = i;
            i = skip_digits(bytes, i);
            if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                i = skip_digits(bytes, i + 1);
            }
            if matches!(bytes.get(i), Some(b'e' | b'E')) {
                let mut j = i + 1;
                if matches!(bytes.get(j), Some(b'+' | b'-')) {
                    j += 1;
                }
                if bytes.get(j).is_some_and(u8::is_ascii_digit) {
                    i = skip_digits(bytes, j);
                }
            }
            let text = &src[start..i];
            let value = text.parse::<f64>().map_err(|e| WebError::Lex {
                line,
                message: format!("bad number {text:?}: {e}"),
            })?;
            out.push(Spanned {
                token: Token::Number(value),
                line,
            });
            continue;
        }
        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == b'_' || c == b'$' {
            let start = i;
            while bytes
                .get(i)
                .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_' || b == b'$')
            {
                i += 1;
            }
            out.push(Spanned {
                token: Token::Ident(Ident::new(&src[start..i])),
                line,
            });
            continue;
        }
        // Two-char punctuation first.
        if let Some(&next) = bytes.get(i + 1) {
            if let Some(p) = PUNCTS2.iter().find(|p| p.as_bytes() == [c, next]) {
                out.push(Spanned {
                    token: Token::Punct(p),
                    line,
                });
                i += 2;
                continue;
            }
        }
        if let Some(k) = PUNCTS1.find(char::from(c)) {
            out.push(Spanned {
                token: Token::Punct(&PUNCTS1[k..=k]),
                line,
            });
            i += 1;
            continue;
        }
        return Err(WebError::Lex {
            line,
            message: format!("unexpected character {:?}", char::from(c)),
        });
    }
    out.push(Spanned {
        token: Token::Eof,
        line,
    });
    Ok(out)
}

/// Index of the first non-digit byte at or after `i`.
fn skip_digits(bytes: &[u8], mut i: usize) -> usize {
    while bytes.get(i).is_some_and(u8::is_ascii_digit) {
        i += 1;
    }
    i
}

/// The `char` starting at byte `i`. The lexer steps over whole
/// characters, so `i` is always a char boundary inside `src`.
fn char_at(src: &str, i: usize) -> Result<char, WebError> {
    src.get(i..)
        .and_then(|rest| rest.chars().next())
        .ok_or_else(|| WebError::Internal(format!("lexer off a char boundary at byte {i}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lexes_var_declaration() {
        assert_eq!(
            tokens("var x = 1.5;"),
            vec![
                Token::Ident("var".into()),
                Token::Ident("x".into()),
                Token::Punct("="),
                Token::Number(1.5),
                Token::Punct(";"),
                Token::Eof
            ]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(
            tokens(r#"'a\'b' "c\n\"d""#),
            vec![
                Token::Str("a'b".into()),
                Token::Str("c\n\"d".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn lexes_numbers_with_exponents() {
        assert_eq!(
            tokens("3 3.25 1e3 2.5e-2"),
            vec![
                Token::Number(3.0),
                Token::Number(3.25),
                Token::Number(1000.0),
                Token::Number(0.025),
                Token::Eof
            ]
        );
    }

    #[test]
    fn member_access_vs_fraction() {
        // `a.b` must not lex `.b` as a number.
        assert_eq!(
            tokens("a.b"),
            vec![
                Token::Ident("a".into()),
                Token::Punct("."),
                Token::Ident("b".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            tokens("1 // line\n/* block\n2 */ 3"),
            vec![Token::Number(1.0), Token::Number(3.0), Token::Eof]
        );
    }

    #[test]
    fn two_char_ops_win() {
        assert_eq!(
            tokens("a==b<=c&&d"),
            vec![
                Token::Ident("a".into()),
                Token::Punct("=="),
                Token::Ident("b".into()),
                Token::Punct("<="),
                Token::Ident("c".into()),
                Token::Punct("&&"),
                Token::Ident("d".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn reports_line_numbers() {
        let err = lex("ok\n  @").unwrap_err();
        assert!(matches!(err, WebError::Lex { line: 2, .. }));
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(lex("'abc").is_err());
        assert!(lex("/* never closed").is_err());
    }

    fn lines(src: &str) -> Vec<(Token, usize)> {
        lex(src)
            .unwrap()
            .into_iter()
            .map(|s| (s.token, s.line))
            .collect()
    }

    #[test]
    fn unicode_whitespace_is_skipped_without_counting_lines() {
        assert_eq!(
            lines("a\u{00A0}b\u{2028}c\u{3000}\nd"),
            vec![
                (Token::Ident("a".into()), 1),
                (Token::Ident("b".into()), 1),
                (Token::Ident("c".into()), 1),
                (Token::Ident("d".into()), 2),
                (Token::Eof, 2),
            ]
        );
    }

    #[test]
    fn non_ascii_inside_strings_is_kept_byte_for_byte() {
        assert_eq!(
            tokens("'héllo ✓' \"日本\\n\u{2028}\" 'a\u{1F600}b'"),
            vec![
                Token::Str("héllo ✓".into()),
                Token::Str("日本\n\u{2028}".into()),
                Token::Str("a\u{1F600}b".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn non_ascii_outside_strings_is_an_unexpected_character() {
        let err = lex("x = 1;\ny é").unwrap_err();
        assert!(
            matches!(&err, WebError::Lex { line: 2, message } if message == "unexpected character 'é'"),
            "{err:?}"
        );
        let err = lex("\u{1F600}").unwrap_err();
        assert!(
            matches!(&err, WebError::Lex { line: 1, message } if message.contains("unexpected character")),
            "{err:?}"
        );
    }

    #[test]
    fn non_ascii_escape_is_unknown() {
        let err = lex("\n'a\\é'").unwrap_err();
        assert!(
            matches!(&err, WebError::Lex { line: 2, message } if message == "unknown escape \\é"),
            "{err:?}"
        );
    }

    #[test]
    fn incomplete_exponents_and_fractions_split_as_before() {
        assert_eq!(
            tokens("1e 2E+ 1.x 1.toString 3.e5"),
            vec![
                Token::Number(1.0),
                Token::Ident("e".into()),
                Token::Number(2.0),
                Token::Ident("E".into()),
                Token::Punct("+"),
                Token::Number(1.0),
                Token::Punct("."),
                Token::Ident("x".into()),
                Token::Number(1.0),
                Token::Punct("."),
                Token::Ident("toString".into()),
                Token::Number(3.0),
                Token::Punct("."),
                Token::Ident("e5".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn crlf_counts_one_line_and_lone_cr_none() {
        assert_eq!(
            lines("a\r\nb\r\n\r\nc\rd /* x\r\n */ e"),
            vec![
                (Token::Ident("a".into()), 1),
                (Token::Ident("b".into()), 2),
                (Token::Ident("c".into()), 4),
                (Token::Ident("d".into()), 4),
                (Token::Ident("e".into()), 5),
                (Token::Eof, 5),
            ]
        );
    }
}
