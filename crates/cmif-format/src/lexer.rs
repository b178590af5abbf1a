//! Tokenizer for the human-readable CMIF interchange format.
//!
//! The surface syntax is a small s-expression language: parenthesized
//! lists of identifiers, numbers, quoted strings and `&name` attribute
//! references, with `;` line comments. The paper stresses that CMIF
//! documents are "human-readable" (§5, §6); a parenthesized syntax keeps
//! the reader and writer small while remaining easy to inspect and diff.
//!
//! # A pull lexer over bytes
//!
//! [`Lexer`] hands out one token per [`Lexer::next_token`] call, so the
//! parser reads a document without a token vector or an expression tree in
//! between; [`tokenize`] is the same lexer collected into a vector. It walks
//! bytes: ASCII, which is all of canonical text, takes a fast path, and a
//! non-ASCII byte is decoded as a `char`, so Unicode whitespace still
//! separates tokens and columns still count characters.
//!
//! # Zero-copy
//!
//! Tokens **borrow** their text from the source: an identifier or `&name`
//! reference is a `&str` slice of the input, and a quoted string only
//! allocates when it contains escape sequences ([`Cow::Owned`]) — a plain
//! `"like this"` borrows too. The parser interns identifiers directly into
//! [`cmif_core::symbol::Symbol`]s, so the hot path from source text to
//! document carries no per-token `String` at all.

use std::borrow::Cow;

use crate::error::{FormatError, Position, Result, Span};

/// One lexical token, together with the source span it was read from.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// The token's kind and payload (borrowed from the source).
    pub kind: TokenKind<'a>,
    /// The bytes of the source text the token covers.
    pub span: Span,
}

impl Token<'_> {
    /// Where the token starts in the source text.
    pub fn position(&self) -> Position {
        self.span.start
    }
}

/// The kinds of token the format uses. Textual payloads borrow from the
/// source text being tokenized.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// A bare identifier (no whitespace, quotes or parentheses), borrowed
    /// from the source.
    Ident(&'a str),
    /// An integral number.
    Number(i64),
    /// A finite real number.
    Real(f64),
    /// A quoted string with escape sequences resolved. Borrowed when the
    /// literal contains no escapes, owned otherwise.
    Str(Cow<'a, str>),
    /// An `&name` reference to another attribute, borrowed from the source.
    Ref(&'a str),
}

/// Tokenizes an entire source text. Token payloads borrow from `source`.
pub fn tokenize(source: &str) -> Result<Vec<Token<'_>>> {
    let mut lexer = Lexer::new(source);
    let mut tokens = Vec::new();
    while let Some(token) = lexer.next_token()? {
        tokens.push(token);
    }
    Ok(tokens)
}

/// A pull lexer: reads one token at a time from a source text.
#[derive(Debug)]
pub struct Lexer<'a> {
    source: &'a str,
    offset: usize,
    line: u32,
    /// Where the current line starts.
    line_start: usize,
    /// Bytes past the first of each multi-byte char between `line_start`
    /// and `offset`: the column counts chars, not bytes.
    wide: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer positioned at the start of `source`.
    pub fn new(source: &'a str) -> Lexer<'a> {
        Lexer {
            source,
            offset: 0,
            line: 1,
            line_start: 0,
            wide: 0,
        }
    }

    /// The position of the next byte the lexer reads.
    #[inline]
    fn position(&self) -> Position {
        let column = self.offset - self.line_start - self.wide + 1;
        Position::new(self.line, column as u32, self.offset)
    }

    /// Reads the next token, or `None` once only whitespace and comments
    /// remain.
    // Inlined into the parser's per-item read, this is a fifth less decode
    // time than a call per token; `#[inline]` alone leaves it a call.
    #[inline(always)]
    pub fn next_token(&mut self) -> Result<Option<Token<'a>>> {
        self.skip_trivia();
        let Some(&byte) = self.source.as_bytes().get(self.offset) else {
            return Ok(None);
        };
        let start = self.position();
        let kind = match byte {
            b'(' => {
                self.offset += 1;
                TokenKind::LParen
            }
            b')' => {
                self.offset += 1;
                TokenKind::RParen
            }
            b'"' => {
                self.offset += 1;
                TokenKind::Str(self.read_string(start)?)
            }
            b'&' => {
                self.offset += 1;
                let name = self.read_bareword();
                if name.is_empty() {
                    return Err(FormatError::UnexpectedChar {
                        found: '&',
                        at: start,
                    });
                }
                TokenKind::Ref(name)
            }
            b'-' | b'0'..=b'9' => classify_number_or_ident(self.read_bareword(), start)?,
            // Trivia is skipped and every delimiter is matched above, so
            // whatever starts here is an identifier of at least one char.
            _ => TokenKind::Ident(self.read_bareword()),
        };
        Ok(Some(Token {
            kind,
            span: Span::new(start, self.position()),
        }))
    }

    /// The char starting at the current offset (always a char boundary).
    fn peek_char(&self) -> Option<char> {
        self.source.get(self.offset..)?.chars().next()
    }

    /// Records that a line break ends just before the current offset.
    fn newline(&mut self) {
        self.line += 1;
        self.line_start = self.offset;
        self.wide = 0;
    }

    /// Steps over one char.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek_char()?;
        self.offset += c.len_utf8();
        if c == '\n' {
            self.newline();
        } else {
            self.wide += c.len_utf8() - 1;
        }
        Some(c)
    }

    /// Skips whitespace (Unicode's, not just ASCII's) and `;` comments.
    #[inline]
    fn skip_trivia(&mut self) {
        let bytes = self.source.as_bytes();
        loop {
            match bytes.get(self.offset) {
                // The ASCII chars `char::is_whitespace` accepts, but `\n`.
                Some(b' ' | b'\t' | b'\r' | 0x0B | 0x0C) => self.offset += 1,
                Some(b'\n') => {
                    self.offset += 1;
                    self.newline();
                }
                Some(b';') => {
                    while let Some(&byte) = bytes.get(self.offset) {
                        self.offset += 1;
                        if byte == b'\n' {
                            self.newline();
                            break;
                        }
                        if is_continuation(byte) {
                            self.wide += 1;
                        }
                    }
                }
                Some(0x80..) if self.peek_char().is_some_and(char::is_whitespace) => {
                    self.bump();
                }
                _ => return,
            }
        }
    }

    /// Reads a run of identifier characters as a slice of the source — no
    /// per-token allocation.
    #[inline]
    fn read_bareword(&mut self) -> &'a str {
        let bytes = self.source.as_bytes();
        let start = self.offset;
        while let Some(&byte) = bytes.get(self.offset) {
            if byte.is_ascii() {
                if !IDENT_BYTE[byte as usize] {
                    break;
                }
                self.offset += 1;
            } else {
                match self.peek_char() {
                    Some(c) if !c.is_whitespace() => {
                        self.offset += c.len_utf8();
                        self.wide += c.len_utf8() - 1;
                    }
                    _ => break,
                }
            }
        }
        self.source.get(start..self.offset).unwrap_or_default()
    }

    /// Reads a quoted string whose opening quote was just consumed. When
    /// the literal contains no escapes the content is borrowed straight
    /// from the source; escapes force one owned buffer.
    fn read_string(&mut self, start: Position) -> Result<Cow<'a, str>> {
        let bytes = self.source.as_bytes();
        let content_start = self.offset;
        // Fast path: scan bytes to the closing quote; bail to the slow path
        // at the first backslash.
        while let Some(&byte) = bytes.get(self.offset) {
            match byte {
                b'"' => {
                    let content = self.source.get(content_start..self.offset);
                    self.offset += 1;
                    return Ok(Cow::Borrowed(content.unwrap_or_default()));
                }
                b'\\' => break,
                b'\n' => {
                    self.offset += 1;
                    self.newline();
                }
                _ => {
                    self.offset += 1;
                    if is_continuation(byte) {
                        self.wide += 1;
                    }
                }
            }
        }
        // Slow path: copy what was scanned so far, then resolve escapes.
        let mut out = String::from(
            self.source
                .get(content_start..self.offset)
                .unwrap_or_default(),
        );
        loop {
            match self.bump() {
                Some('"') => return Ok(Cow::Owned(out)),
                Some('\\') => match self.bump() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some(c) => out.push(c),
                    None => return Err(FormatError::UnterminatedString { at: start }),
                },
                Some(c) => out.push(c),
                None => return Err(FormatError::UnterminatedString { at: start }),
            }
        }
    }
}

fn classify_number_or_ident(word: &str, position: Position) -> Result<TokenKind<'_>> {
    // A lone `-` or a word that merely starts with a digit but contains
    // identifier characters (e.g. `3d-graph`) is an identifier.
    if word == "-" {
        return Ok(TokenKind::Ident(word));
    }
    if let Ok(n) = word.parse::<i64>() {
        return Ok(TokenKind::Number(n));
    }
    if let Ok(x) = word.parse::<f64>() {
        // `1e999`, `-inf` and `-nan` parse, but the writer prints a
        // non-finite real as `inf` or `NaN`, which reads back as an
        // identifier: refuse them here so text stays a fixed point.
        if x.is_finite() {
            return Ok(TokenKind::Real(x));
        }
        return Err(FormatError::BadNumber {
            text: word.to_string(),
            at: position,
        });
    }
    // Words like `-abc` or `12x` fall back to identifiers unless they
    // look overwhelmingly numeric, in which case report a bad number.
    if word
        .chars()
        .all(|c| c.is_ascii_digit() || c == '.' || c == '-' || c == '+')
    {
        return Err(FormatError::BadNumber {
            text: word.to_string(),
            at: position,
        });
    }
    Ok(TokenKind::Ident(word))
}

/// ASCII bytes permitted inside bare identifiers and numbers: everything but
/// whitespace, parentheses, `"`, `;` and `&`.
const IDENT_BYTE: [bool; 128] = {
    let mut table = [true; 128];
    let delimiters = b"\t\n\x0B\x0C\r ()\";&";
    let mut i = 0;
    while i < delimiters.len() {
        table[delimiters[i] as usize] = false;
        i += 1;
    }
    table
};

/// True for the second and later bytes of a multi-byte UTF-8 char.
fn is_continuation(byte: u8) -> bool {
    byte & 0xC0 == 0x80
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(source: &str) -> Vec<TokenKind<'_>> {
        tokenize(source)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    /// True when `slice` points into `source`'s buffer (i.e. was borrowed,
    /// not copied).
    fn borrows_from(source: &str, slice: &str) -> bool {
        let source_range = source.as_ptr() as usize..source.as_ptr() as usize + source.len();
        source_range.contains(&(slice.as_ptr() as usize))
    }

    #[test]
    fn tokenizes_parens_and_idents() {
        assert_eq!(
            kinds("(seq news)"),
            vec![
                TokenKind::LParen,
                TokenKind::Ident("seq"),
                TokenKind::Ident("news"),
                TokenKind::RParen,
            ]
        );
    }

    #[test]
    fn idents_and_refs_borrow_from_the_source() {
        let source = "(story-3 &other \"plain string\")".to_string();
        let tokens = tokenize(&source).unwrap();
        match &tokens[1].kind {
            TokenKind::Ident(text) => {
                assert!(borrows_from(&source, text), "ident was copied");
            }
            other => panic!("unexpected token {other:?}"),
        }
        match &tokens[2].kind {
            TokenKind::Ref(text) => {
                assert!(borrows_from(&source, text), "ref was copied");
            }
            other => panic!("unexpected token {other:?}"),
        }
        match &tokens[3].kind {
            TokenKind::Str(Cow::Borrowed(text)) => {
                assert!(borrows_from(&source, text), "escape-free string copied");
            }
            other => panic!("unexpected token {other:?}"),
        }
    }

    #[test]
    fn only_escaped_strings_allocate() {
        let source = r#""no escapes" "line\nbreak""#;
        let tokens = tokenize(source).unwrap();
        assert!(matches!(&tokens[0].kind, TokenKind::Str(Cow::Borrowed(_))));
        match &tokens[1].kind {
            TokenKind::Str(Cow::Owned(text)) => assert_eq!(text, "line\nbreak"),
            other => panic!("unexpected token {other:?}"),
        }
    }

    #[test]
    fn tokenizes_numbers_reals_and_negatives() {
        assert_eq!(
            kinds("42 -17 3.5 -0.25"),
            vec![
                TokenKind::Number(42),
                TokenKind::Number(-17),
                TokenKind::Real(3.5),
                TokenKind::Real(-0.25),
            ]
        );
    }

    #[test]
    fn tokenizes_strings_with_escapes() {
        assert_eq!(
            kinds(r#""hello world" "line\nbreak" "quote \" inside""#),
            vec![
                TokenKind::Str("hello world".into()),
                TokenKind::Str("line\nbreak".into()),
                TokenKind::Str("quote \" inside".into()),
            ]
        );
    }

    #[test]
    fn tokenizes_refs() {
        assert_eq!(kinds("&other"), vec![TokenKind::Ref("other")]);
    }

    #[test]
    fn skips_comments_and_whitespace() {
        let toks = kinds("; header comment\n(a ; trailing\n b)\n");
        assert_eq!(
            toks,
            vec![
                TokenKind::LParen,
                TokenKind::Ident("a"),
                TokenKind::Ident("b"),
                TokenKind::RParen,
            ]
        );
    }

    #[test]
    fn reports_positions() {
        let toks = tokenize("(a\n  b)").unwrap();
        assert_eq!(toks[0].position(), Position::new(1, 1, 0));
        assert_eq!(toks[2].position(), Position::new(2, 3, 5));
    }

    #[test]
    fn span_ends_carry_line_and_column() {
        let toks = tokenize("(a\n  bcd)").unwrap();
        // `(` ends where `a` starts.
        assert_eq!(toks[0].span.end, Position::new(1, 2, 1));
        // `bcd` starts at 2:3 and ends one past its last byte, same line.
        assert_eq!(toks[2].span.start, Position::new(2, 3, 5));
        assert_eq!(toks[2].span.end, Position::new(2, 6, 8));
        assert!(!toks[2].span.is_multiline());
    }

    #[test]
    fn spans_cover_exactly_the_token_text() {
        let source = "(story-3 \"two words\" 42)";
        let toks = tokenize(source).unwrap();
        let texts: Vec<&str> = toks
            .iter()
            .map(|t| t.span.text(source).expect("span in range"))
            .collect();
        assert_eq!(texts, vec!["(", "story-3", "\"two words\"", "42", ")"]);
        assert_eq!(toks[1].span.len(), "story-3".len());
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(matches!(
            tokenize("\"abc").unwrap_err(),
            FormatError::UnterminatedString { .. }
        ));
        assert!(matches!(
            tokenize("\"abc\\").unwrap_err(),
            FormatError::UnterminatedString { .. }
        ));
    }

    #[test]
    fn bad_number_is_an_error() {
        assert!(matches!(
            tokenize("1.2.3").unwrap_err(),
            FormatError::BadNumber { .. }
        ));
    }

    #[test]
    fn dangling_ref_is_an_error() {
        assert!(matches!(
            tokenize("& ").unwrap_err(),
            FormatError::UnexpectedChar { .. }
        ));
    }

    #[test]
    fn hyphenated_identifiers_are_idents() {
        assert_eq!(
            kinds("story-3 talking-head"),
            vec![
                TokenKind::Ident("story-3"),
                TokenKind::Ident("talking-head")
            ]
        );
        assert_eq!(kinds("-"), vec![TokenKind::Ident("-")]);
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        assert!(tokenize("").unwrap().is_empty());
        assert!(tokenize("   \n ; just a comment").unwrap().is_empty());
    }

    #[test]
    fn non_finite_literals_are_bad_numbers() {
        // `parse::<f64>` accepts all of these, but the writer would print
        // them as `inf` or `NaN`, which read back as identifiers.
        for literal in ["1e999", "-1e999", "-inf", "-infinity", "-nan", "-NaN"] {
            let source = format!("(x\n  {literal})");
            match tokenize(&source).unwrap_err() {
                FormatError::BadNumber { text, at } => {
                    assert_eq!(text, literal);
                    assert_eq!(at, Position::new(2, 3, 5));
                }
                other => panic!("{literal}: unexpected error {other:?}"),
            }
        }
        // A finite real past i64 still lexes, and so do identifiers that
        // merely spell a non-finite value.
        assert_eq!(kinds("1e300"), vec![TokenKind::Real(1e300)]);
        assert_eq!(
            kinds("inf nan"),
            vec![TokenKind::Ident("inf"), TokenKind::Ident("nan")]
        );
    }

    #[test]
    fn unicode_whitespace_separates_tokens_and_columns_count_chars() {
        // U+00A0 and U+2028 separate tokens but do not break lines; é and
        // 事 are one column each.
        let toks = tokenize("(é\u{a0}事件\u{2028}\"ü\"\n b)").unwrap();
        let kinds: Vec<_> = toks.iter().map(|t| t.kind.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::LParen,
                TokenKind::Ident("é"),
                TokenKind::Ident("事件"),
                TokenKind::Str("ü".into()),
                TokenKind::Ident("b"),
                TokenKind::RParen,
            ]
        );
        assert_eq!(toks[2].span.start, Position::new(1, 4, 5));
        assert_eq!(toks[2].span.end, Position::new(1, 6, 11));
        assert_eq!(toks[3].span.start, Position::new(1, 7, 14));
        assert_eq!(toks[4].span.start, Position::new(2, 2, 20));
    }

    #[test]
    fn crlf_line_endings_keep_lines_and_columns() {
        let toks = tokenize("(a\r\n  b\r\n)").unwrap();
        assert_eq!(toks[2].position(), Position::new(2, 3, 6));
        assert_eq!(toks[3].position(), Position::new(3, 1, 9));
    }

    #[test]
    fn the_pull_lexer_hands_out_what_tokenize_collects() {
        let source = "; comment\n(seq (name \"two words\") &ref 12 -3.5)";
        let mut lexer = Lexer::new(source);
        let mut pulled = Vec::new();
        while let Some(token) = lexer.next_token().unwrap() {
            pulled.push(token);
        }
        assert_eq!(pulled, tokenize(source).unwrap());
        assert_eq!(lexer.next_token(), Ok(None));
    }
}
