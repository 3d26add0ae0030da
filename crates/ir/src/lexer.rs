//! Lexer for the generic IR textual format.
//!
//! The same token stream serves the generic parser, dialect-defined custom
//! syntax hooks, the IRDL frontend and the rewrite DSL. Comments run from
//! `//` to end of line.
//!
//! Lexing is **streaming**: a [`Lexer`] yields one token per call, and the
//! parsers pull from it through a [`TokenStream`] holding two tokens of
//! lookahead, so no parse ever holds the whole source's tokens.
//!
//! Tokens are **zero-copy**: every payload is a `&str` slice of the source
//! buffer (string literals use a [`Cow`] that only owns its data when the
//! literal contains escapes), so lexing performs no heap allocation except
//! to unescape such a literal. Code that must match a stored text fragment
//! (format-spec literals) keeps the text and lexes it again where it is
//! matched.

use std::borrow::Cow;

use crate::diag::{Diagnostic, Result};

/// A half-open byte range `[start, end)` into the source buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first byte of the token.
    pub start: usize,
    /// Byte offset one past the last byte of the token.
    pub end: usize,
}

impl Span {
    /// Returns the source text covered by this span.
    pub fn text<'s>(&self, source: &'s str) -> &'s str {
        &source[self.start..self.end]
    }
}

/// A lexical token borrowing its payload from the source buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'s> {
    /// Bare identifier or keyword (may contain `.`, `_`, `$`, digits).
    Ident(&'s str),
    /// `%name` SSA value id (payload excludes the sigil).
    ValueId(&'s str),
    /// `^name` block label (payload excludes the sigil).
    BlockId(&'s str),
    /// `@name` symbol reference (payload excludes the sigil).
    SymbolRef(&'s str),
    /// `!name` type reference (payload excludes the sigil).
    TypeRef(&'s str),
    /// `#name` attribute reference (payload excludes the sigil).
    AttrRef(&'s str),
    /// Integer literal. `hex` records whether it was written as `0x...`.
    Integer {
        /// Parsed value.
        value: i128,
        /// Whether the literal was hexadecimal (used for float bit patterns).
        hex: bool,
    },
    /// Floating-point literal.
    Float(f64),
    /// String literal (unescaped payload; borrowed unless escapes occur).
    Str(Cow<'s, str>),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `=`
    Equals,
    /// `->`
    Arrow,
    /// `?`
    Question,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `.`
    Dot,
    /// End of input.
    Eof,
}

impl Token<'_> {
    /// A short human-readable description for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("`{s}`"),
            Token::ValueId(s) => format!("`%{s}`"),
            Token::BlockId(s) => format!("`^{s}`"),
            Token::SymbolRef(s) => format!("`@{s}`"),
            Token::TypeRef(s) => format!("`!{s}`"),
            Token::AttrRef(s) => format!("`#{s}`"),
            Token::Integer { value, .. } => format!("`{value}`"),
            Token::Float(v) => format!("`{v}`"),
            Token::Str(s) => format!("\"{s}\""),
            Token::LParen => "`(`".into(),
            Token::RParen => "`)`".into(),
            Token::LBrace => "`{`".into(),
            Token::RBrace => "`}`".into(),
            Token::LBracket => "`[`".into(),
            Token::RBracket => "`]`".into(),
            Token::Lt => "`<`".into(),
            Token::Gt => "`>`".into(),
            Token::Comma => "`,`".into(),
            Token::Colon => "`:`".into(),
            Token::Equals => "`=`".into(),
            Token::Arrow => "`->`".into(),
            Token::Question => "`?`".into(),
            Token::Star => "`*`".into(),
            Token::Plus => "`+`".into(),
            Token::Dot => "`.`".into(),
            Token::Eof => "end of input".into(),
        }
    }
}

/// A token plus its byte span in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned<'s> {
    /// The token.
    pub token: Token<'s>,
    /// Byte span of the token, including sigils and string quotes.
    pub span: Span,
}

impl Spanned<'_> {
    /// Byte offset of the token start (diagnostic anchor).
    pub fn offset(&self) -> usize {
        self.span.start
    }
}

/// A pull lexer over one source buffer: each [`Lexer::next_token`] call
/// lexes exactly one token, so nothing ever holds the whole source's
/// tokens at once.
#[derive(Debug, Clone)]
pub struct Lexer<'s> {
    source: &'s str,
    /// Byte offset of the next unlexed byte; after an error, the start of
    /// the token that failed.
    pos: usize,
}

impl<'s> Lexer<'s> {
    /// A lexer positioned at the start of `source`.
    pub fn new(source: &'s str) -> Self {
        Lexer { source, pos: 0 }
    }

    /// Lexes the next token, skipping whitespace and comments. At the end
    /// of the source this returns [`Token::Eof`], and keeps returning it.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic on malformed literals or unexpected characters.
    #[inline(always)]
    pub fn next_token(&mut self) -> Result<Spanned<'s>> {
        let mut spanned = eof(0);
        self.lex_into(&mut spanned)?;
        Ok(spanned)
    }

    /// [`Lexer::next_token`], writing the token into `slot`. Each arm
    /// stores its token straight into `slot` (both functions are always
    /// inlined, so that is the caller's slot): building every token in one
    /// temporary and copying it, 48 bytes while the stores that built it
    /// are still in flight, made lexing about twice as slow.
    #[inline(always)]
    fn lex_into(&mut self, slot: &mut Spanned<'s>) -> Result<()> {
        let source = self.source;
        let bytes = source.as_bytes();
        let mut pos = self.pos;
        loop {
            match bytes.get(pos) {
                Some(b' ' | b'\t' | b'\r' | b'\n') => pos += 1,
                Some(b'/') if bytes.get(pos + 1) == Some(&b'/') => {
                    while pos < bytes.len() && bytes[pos] != b'\n' {
                        pos += 1;
                    }
                }
                _ => break,
            }
        }
        let start = pos;
        self.pos = start;
        let Some(&byte) = bytes.get(start) else {
            *slot = eof(start);
            return Ok(());
        };
        let ch = byte as char;
        if let Some(token) = punctuation(byte) {
            pos += 1;
            slot.token = token;
        } else {
            match ch {
                '-' if bytes.get(pos + 1) == Some(&b'>') => {
                    pos += 2;
                    slot.token = Token::Arrow;
                }
                '-' if bytes.get(pos + 1).is_some_and(u8::is_ascii_digit) => {
                    pos += 1;
                    slot.token = lex_number(source, &mut pos, true)?;
                }
                '-' => return Err(Diagnostic::at(start, "unexpected `-`")),
                '"' => slot.token = lex_string(source, &mut pos)?,
                '%' | '^' | '@' | '!' | '#' => {
                    pos += 1;
                    let ident = lex_ident_text(source, &mut pos);
                    if ident.is_empty() {
                        return Err(Diagnostic::at(
                            start,
                            format!("expected identifier after `{ch}`"),
                        ));
                    }
                    slot.token = match ch {
                        '%' => Token::ValueId(ident),
                        '^' => Token::BlockId(ident),
                        '@' => Token::SymbolRef(ident),
                        '!' => Token::TypeRef(ident),
                        _ => Token::AttrRef(ident),
                    };
                }
                c if c.is_ascii_digit() => slot.token = lex_number(source, &mut pos, false)?,
                c if c.is_ascii_alphabetic() || c == '_' || c == '$' => {
                    slot.token = Token::Ident(lex_ident_text(source, &mut pos));
                }
                _ => {
                    // `start` is on a character boundary: every arm above
                    // consumes whole characters.
                    let other = source[start..].chars().next().unwrap_or(ch);
                    return Err(Diagnostic::at(start, format!("unexpected character `{other}`")));
                }
            }
        }
        self.pos = pos;
        slot.span = Span { start, end: pos };
        Ok(())
    }
}

/// An `Eof` token at byte offset `at`.
fn eof(at: usize) -> Spanned<'static> {
    Spanned { token: Token::Eof, span: Span { start: at, end: at } }
}

/// The single-byte punctuation tokens.
fn punctuation(byte: u8) -> Option<Token<'static>> {
    Some(match byte {
        b'(' => Token::LParen,
        b')' => Token::RParen,
        b'{' => Token::LBrace,
        b'}' => Token::RBrace,
        b'[' => Token::LBracket,
        b']' => Token::RBracket,
        b'<' => Token::Lt,
        b'>' => Token::Gt,
        b',' => Token::Comma,
        b':' => Token::Colon,
        b'=' => Token::Equals,
        b'?' => Token::Question,
        b'*' => Token::Star,
        b'+' => Token::Plus,
        b'.' => Token::Dot,
        _ => return None,
    })
}

/// Tokenizes `source` into a vector ending with [`Token::Eof`].
///
/// The parsers stream tokens through a [`TokenStream`] instead; this is
/// for callers that want every token at once.
///
/// # Errors
///
/// Returns a diagnostic on malformed literals or unexpected characters.
pub fn lex(source: &str) -> Result<Vec<Spanned<'_>>> {
    let mut lexer = Lexer::new(source);
    // One token spans ~4+ source bytes on average; sizing up front keeps
    // small-module lexing to a single buffer allocation.
    let mut tokens = Vec::with_capacity(source.len() / 4 + 4);
    loop {
        let spanned = lexer.next_token()?;
        let done = matches!(spanned.token, Token::Eof);
        tokens.push(spanned);
        if done {
            return Ok(tokens);
        }
    }
}

/// A parser's view of a [`Lexer`]: the current token plus one more of
/// lookahead, lexed on demand. The parsers never backtrack and never look
/// further than [`TokenStream::peek2`], so two slots are all they need.
///
/// A lex error does not stop the stream. It is recorded, and from then on
/// the stream yields [`Token::Eof`] at the failing token, so the parser
/// runs into an ordinary end of input. Every parse ends in
/// [`TokenStream::finish`], which reports the first lex error in the
/// source ahead of the parse's own result, exactly as if the whole source
/// had been lexed before parsing began.
#[derive(Debug)]
pub struct TokenStream<'s> {
    lexer: Lexer<'s>,
    current: Spanned<'s>,
    /// The token after `current`, once [`TokenStream::peek2`] has lexed it.
    next: Option<Spanned<'s>>,
    /// The first lex error, once the lexer has hit it.
    error: Option<Diagnostic>,
}

/// Lexes the next token into `slot`; once a lex error is recorded in
/// `error`, `Eof` at the failing token instead.
fn pull<'s>(lexer: &mut Lexer<'s>, error: &mut Option<Diagnostic>, slot: &mut Spanned<'s>) {
    if error.is_none() {
        match lexer.lex_into(slot) {
            Ok(()) => return,
            Err(diag) => *error = Some(diag),
        }
    }
    *slot = eof(lexer.pos);
}

impl<'s> TokenStream<'s> {
    /// A stream positioned at the first token of `source`.
    pub fn new(source: &'s str) -> Self {
        let mut stream =
            TokenStream { lexer: Lexer::new(source), current: eof(0), next: None, error: None };
        pull(&mut stream.lexer, &mut stream.error, &mut stream.current);
        stream
    }

    /// The current token.
    pub fn peek(&self) -> &Token<'s> {
        &self.current.token
    }

    /// The token after the current one.
    pub fn peek2(&mut self) -> &Token<'s> {
        let next = match &mut self.next {
            Some(next) => next,
            empty => {
                let slot = empty.insert(eof(0));
                pull(&mut self.lexer, &mut self.error, slot);
                slot
            }
        };
        &next.token
    }

    /// Byte offset of the current token (the diagnostic anchor).
    pub fn offset(&self) -> usize {
        self.current.span.start
    }

    /// The byte offset of `slice` in the source, when it is a slice of the
    /// source (as every token payload but an escaped string is).
    pub(crate) fn offset_of(&self, slice: &str) -> Option<usize> {
        let base = self.lexer.source.as_ptr() as usize;
        let start = (slice.as_ptr() as usize).checked_sub(base)?;
        (start + slice.len() <= self.lexer.source.len()).then_some(start)
    }

    /// Takes the current token and advances. At the end of input this
    /// returns `Eof` and stays there.
    pub fn bump(&mut self) -> Token<'s> {
        let token = std::mem::replace(&mut self.current.token, Token::Eof);
        match self.next.take() {
            Some(next) => self.current = next,
            None => pull(&mut self.lexer, &mut self.error, &mut self.current),
        }
        token
    }

    /// Ends a parse that produced `result`: the first lex error in the
    /// source, if there is one, is returned in its place. The rest of the
    /// source is lexed only when the parse failed before reaching it.
    ///
    /// # Errors
    ///
    /// Returns the first lex error, or else `result`'s diagnostic.
    pub fn finish<T>(&mut self, result: Result<T>) -> Result<T> {
        let lexed = match self.error.take() {
            Some(diag) => Err(diag),
            None if result.is_err() => self.lex_rest(),
            None => Ok(()),
        };
        lexed.and(result)
    }

    /// Lexes the rest of the source, stopping at the first lex error.
    fn lex_rest(&mut self) -> Result<()> {
        while self.lexer.next_token()?.token != Token::Eof {}
        Ok(())
    }

    /// A diagnostic at the current token.
    pub fn error(&self, message: impl Into<String>) -> Diagnostic {
        Diagnostic::at(self.offset(), message)
    }

    /// "expected `what`, found `found`", at the current token.
    pub fn expected(&self, what: &str, found: &Token<'_>) -> Diagnostic {
        self.error(format!("expected {what}, found {}", found.describe()))
    }

    /// Consumes the current token if it equals `expected`.
    pub fn consume_if(&mut self, expected: &Token<'_>) -> bool {
        let found = self.peek() == expected;
        if found {
            self.bump();
        }
        found
    }

    /// Consumes the current token, which must equal `expected`.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the token found instead.
    pub fn expect(&mut self, expected: &Token<'_>) -> Result<()> {
        if self.consume_if(expected) {
            Ok(())
        } else {
            Err(self.expected(&expected.describe(), self.peek()))
        }
    }

    /// Consumes the identifier `kw` if it is the current token.
    pub fn consume_keyword(&mut self, kw: &str) -> bool {
        let found = matches!(self.peek(), Token::Ident(s) if *s == kw);
        if found {
            self.bump();
        }
        found
    }

    /// Consumes the identifier `kw`, which must be the current token.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the token found instead.
    pub fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.consume_keyword(kw) {
            Ok(())
        } else {
            Err(self.expected(&format!("`{kw}`"), self.peek()))
        }
    }

    /// Consumes and returns an identifier (a source slice).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the token found instead.
    pub fn expect_ident(&mut self) -> Result<&'s str> {
        match self.peek() {
            Token::Ident(s) => {
                let s = *s;
                self.bump();
                Ok(s)
            }
            other => Err(self.expected("identifier", other)),
        }
    }

    /// Requires the end of input.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the trailing token.
    pub fn expect_eof(&self) -> Result<()> {
        match self.peek() {
            Token::Eof => Ok(()),
            other => Err(self.error(format!("unexpected trailing {}", other.describe()))),
        }
    }
}

/// Identifiers may contain letters, digits, `_`, `$`, and (for dialect
/// qualification and value suffixes) `.` and `#`.
/// Byte-class table: `true` for bytes that may continue an identifier
/// (`[A-Za-z0-9_$.#]`). One indexed load per byte in the hottest scan.
static IDENT_CONTINUE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0usize;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric()
            || c == b'_'
            || c == b'$'
            || c == b'.'
            || c == b'#';
        b += 1;
    }
    table
};

fn lex_ident_text<'s>(source: &'s str, pos: &mut usize) -> &'s str {
    let bytes = source.as_bytes();
    let start = *pos;
    while *pos < bytes.len() && IDENT_CONTINUE[bytes[*pos] as usize] {
        *pos += 1;
    }
    &source[start..*pos]
}

fn lex_number<'s>(source: &'s str, pos: &mut usize, negative: bool) -> Result<Token<'s>> {
    let bytes = source.as_bytes();
    let start = *pos;
    if bytes.get(*pos) == Some(&b'0')
        && matches!(bytes.get(*pos + 1), Some(&b'x') | Some(&b'X'))
    {
        *pos += 2;
        let hex_start = *pos;
        while *pos < bytes.len() && (bytes[*pos] as char).is_ascii_hexdigit() {
            *pos += 1;
        }
        let digits = &source[hex_start..*pos];
        if digits.is_empty() {
            return Err(Diagnostic::at(start, "expected hex digits after `0x`"));
        }
        let value = u128::from_str_radix(digits, 16)
            .ok()
            .and_then(|v| i128::try_from(v).ok())
            .ok_or_else(|| Diagnostic::at(start, "hex literal out of range"))?;
        return Ok(Token::Integer { value: if negative { -value } else { value }, hex: true });
    }
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    let mut is_float = false;
    // Fractional part: `.` followed by a digit (a bare `.` is left for
    // dialect-qualified names and parameter paths).
    if bytes.get(*pos) == Some(&b'.') && bytes.get(*pos + 1).is_some_and(|b| b.is_ascii_digit()) {
        is_float = true;
        *pos += 1;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    // Exponent.
    if matches!(bytes.get(*pos), Some(&b'e') | Some(&b'E')) {
        let mut look = *pos + 1;
        if matches!(bytes.get(look), Some(&b'+') | Some(&b'-')) {
            look += 1;
        }
        if bytes.get(look).is_some_and(|b| b.is_ascii_digit()) {
            is_float = true;
            *pos = look;
            while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
                *pos += 1;
            }
        }
    }
    let text = &source[start..*pos];
    if is_float {
        let value: f64 = text
            .parse()
            .map_err(|_| Diagnostic::at(start, format!("invalid float literal `{text}`")))?;
        Ok(Token::Float(if negative { -value } else { value }))
    } else {
        let value: i128 = text
            .parse()
            .map_err(|_| Diagnostic::at(start, format!("invalid integer literal `{text}`")))?;
        Ok(Token::Integer { value: if negative { -value } else { value }, hex: false })
    }
}

/// Lexes a string literal. The fast path — no escapes — returns a borrowed
/// slice of the source; escaped contents are unescaped into an owned copy.
fn lex_string<'s>(source: &'s str, pos: &mut usize) -> Result<Token<'s>> {
    let bytes = source.as_bytes();
    let start = *pos;
    *pos += 1; // opening quote
    let contents_start = *pos;
    // Scan ahead: an escape-free literal is a straight slice.
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                let contents = &source[contents_start..*pos];
                *pos += 1;
                return Ok(Token::Str(Cow::Borrowed(contents)));
            }
            b'\\' => break,
            _ => *pos += 1,
        }
    }
    if *pos >= bytes.len() {
        return Err(Diagnostic::at(start, "unterminated string literal"));
    }
    // Slow path: escapes present. Copy what was scanned, then unescape.
    let mut out = String::with_capacity(*pos - contents_start + 16);
    out.push_str(&source[contents_start..*pos]);
    while *pos < bytes.len() {
        let ch = bytes[*pos] as char;
        match ch {
            '"' => {
                *pos += 1;
                return Ok(Token::Str(Cow::Owned(out)));
            }
            '\\' => {
                *pos += 1;
                let esc = source[*pos..]
                    .chars()
                    .next()
                    .ok_or_else(|| Diagnostic::at(start, "unterminated string escape"))?;
                *pos += esc.len_utf8();
                match esc {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    other => {
                        return Err(Diagnostic::at(
                            *pos - other.len_utf8(),
                            format!("unknown escape `\\{other}`"),
                        ))
                    }
                }
            }
            _ => {
                // Multi-byte UTF-8: copy the full scalar.
                let s = &source[*pos..];
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
    Err(Diagnostic::at(start, "unterminated string literal"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(source: &str) -> Vec<Token<'_>> {
        lex(source).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lex_basic_op() {
        let toks = kinds("%0 = \"cmath.mul\"(%a, %b) : (f32) -> f32");
        assert_eq!(
            toks,
            vec![
                Token::ValueId("0"),
                Token::Equals,
                Token::Str("cmath.mul".into()),
                Token::LParen,
                Token::ValueId("a"),
                Token::Comma,
                Token::ValueId("b"),
                Token::RParen,
                Token::Colon,
                Token::LParen,
                Token::Ident("f32"),
                Token::RParen,
                Token::Arrow,
                Token::Ident("f32"),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(
            kinds("42 -7 1.5 -2.5e10 0x1F"),
            vec![
                Token::Integer { value: 42, hex: false },
                Token::Integer { value: -7, hex: false },
                Token::Float(1.5),
                Token::Float(-2.5e10),
                Token::Integer { value: 0x1F, hex: true },
                Token::Eof,
            ]
        );
    }

    #[test]
    fn negative_hex_literals() {
        assert_eq!(
            kinds("-0x1F"),
            vec![Token::Integer { value: -0x1F, hex: true }, Token::Eof]
        );
    }

    #[test]
    fn oversized_hex_literal_is_an_error() {
        // 33 hex digits: exceeds i128.
        assert!(lex("0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF").is_err());
    }

    #[test]
    fn lex_sigils() {
        assert_eq!(
            kinds("!cmath.complex #foo.bar ^bb0 @main"),
            vec![
                Token::TypeRef("cmath.complex"),
                Token::AttrRef("foo.bar"),
                Token::BlockId("bb0"),
                Token::SymbolRef("main"),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn lex_string_escapes() {
        assert_eq!(
            kinds(r#""a\"b\n\\c""#),
            vec![Token::Str("a\"b\n\\c".into()), Token::Eof]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // comment\nb"),
            vec![Token::Ident("a"), Token::Ident("b"), Token::Eof]
        );
    }

    #[test]
    fn value_id_with_result_number() {
        assert_eq!(kinds("%x#1"), vec![Token::ValueId("x#1"), Token::Eof]);
    }

    #[test]
    fn error_on_unterminated_string() {
        assert!(lex("\"abc").is_err());
    }

    #[test]
    fn non_ascii_characters_are_reported_whole() {
        let err = lex("{k = é}").unwrap_err();
        assert_eq!((err.offset(), err.message()), (Some(5), "unexpected character `é`"));
        let err = lex("\"a\\é\"").unwrap_err();
        assert_eq!((err.offset(), err.message()), (Some(3), "unknown escape `\\é`"));
    }

    #[test]
    fn dot_after_integer_stays_separate() {
        // `1.foo` is Integer(1), Dot, Ident — needed for parameter paths.
        assert_eq!(
            kinds("1.x"),
            vec![Token::Integer { value: 1, hex: false }, Token::Dot, Token::Ident("x"), Token::Eof]
        );
    }

    // ----- Zero-copy guarantees --------------------------------------------

    #[test]
    fn spans_cover_token_text() {
        let source = "%abc = foo.bar !t<0x1F, \"s\"> // tail";
        let toks = lex(source).unwrap();
        let texts: Vec<&str> = toks.iter().map(|s| s.span.text(source)).collect();
        assert_eq!(
            texts,
            vec!["%abc", "=", "foo.bar", "!t", "<", "0x1F", ",", "\"s\"", ">", ""]
        );
    }

    #[test]
    fn ident_payloads_are_source_slices() {
        let source = "%val ^blk @sym !ty #at name";
        for spanned in lex(source).unwrap() {
            let payload = match spanned.token {
                Token::ValueId(s)
                | Token::BlockId(s)
                | Token::SymbolRef(s)
                | Token::TypeRef(s)
                | Token::AttrRef(s)
                | Token::Ident(s) => s,
                _ => continue,
            };
            // The payload must literally be a sub-slice of the source buffer.
            let src_range = source.as_bytes().as_ptr_range();
            let pay_range = payload.as_bytes().as_ptr_range();
            assert!(src_range.start <= pay_range.start && pay_range.end <= src_range.end);
            // And the span (minus any sigil) must point at the same text.
            let text = spanned.span.text(source);
            assert!(text.ends_with(payload), "{text} should end with {payload}");
        }
    }

    #[test]
    fn escape_free_strings_borrow() {
        let toks = lex(r#""plain text""#).unwrap();
        match &toks[0].token {
            Token::Str(Cow::Borrowed(s)) => assert_eq!(*s, "plain text"),
            other => panic!("expected borrowed Str, got {other:?}"),
        }
    }

    #[test]
    fn escaped_strings_own() {
        let toks = lex(r#""a\tb""#).unwrap();
        match &toks[0].token {
            Token::Str(Cow::Owned(s)) => assert_eq!(s, "a\tb"),
            other => panic!("expected owned Str, got {other:?}"),
        }
    }

    #[test]
    fn hex_literal_span_includes_prefix() {
        let source = "0xFF";
        let toks = lex(source).unwrap();
        assert_eq!(toks[0].span, Span { start: 0, end: 4 });
        assert_eq!(toks[0].span.text(source), "0xFF");
        assert_eq!(toks[0].token, Token::Integer { value: 255, hex: true });
    }

    #[test]
    fn string_span_includes_quotes() {
        let source = r#"x "a\nb" y"#;
        let toks = lex(source).unwrap();
        assert_eq!(toks[1].span.text(source), r#""a\nb""#);
        assert_eq!(toks[1].token, Token::Str("a\nb".into()));
    }

    // ----- TokenStream ------------------------------------------------------

    #[test]
    fn token_stream_yields_the_lexed_tokens() {
        let source = "%a = \"x.y\"(%b) {k = [1, -2.5e3, \"s\\n\"]} : (f32) -> () // c";
        let mut stream = TokenStream::new(source);
        for (i, spanned) in lex(source).unwrap().into_iter().enumerate() {
            assert_eq!(stream.offset(), spanned.span.start);
            if i % 3 == 0 {
                stream.peek2();
            }
            assert_eq!(stream.bump(), spanned.token);
        }
        assert_eq!((stream.bump(), stream.offset()), (Token::Eof, source.len()));
        assert!(stream.finish(Ok(())).is_ok());
    }

    #[test]
    fn token_stream_ends_at_the_first_lex_error() {
        let mut stream = TokenStream::new("a `b \"\\q\"");
        assert_eq!(stream.bump(), Token::Ident("a"));
        assert_eq!((stream.peek(), stream.offset()), (&Token::Eof, 2));
        let err = stream.finish(Ok(())).unwrap_err();
        assert_eq!((err.offset(), err.message()), (Some(2), "unexpected character ```"));

        // A parse that fails first still reports a later lex error.
        let mut stream = TokenStream::new("a b \"\\q\"");
        let parse_error = stream.error("parse error");
        let err = stream.finish::<()>(Err(parse_error)).unwrap_err();
        assert_eq!((err.offset(), err.message()), (Some(6), "unknown escape `\\q`"));
        let mut stream = TokenStream::new("a b");
        let parse_error = stream.error("parse error");
        assert_eq!(stream.finish::<()>(Err(parse_error)).unwrap_err().message(), "parse error");
    }
}
