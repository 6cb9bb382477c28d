//! Lexer for the C-like surface syntax.

use crate::intern::{Interner, Symbol};
use std::fmt;

/// A lexical token. Identifiers are interned as they are scanned, so a
/// token is two words and copies freely.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tok {
    Ident(Symbol),
    Int(i64),
    // keywords
    Fn,
    Let,
    Global,
    Struct,
    Atomic,
    If,
    Else,
    While,
    Return,
    Break,
    Continue,
    Null,
    New,
    // punctuation
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Assign,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    AmpAmp,
    PipePipe,
    Bang,
    Arrow,
    Dot,
    Eof,
}

impl Tok {
    /// How diagnostics name this token; identifiers resolve through
    /// `names`, the interner the lexer filled.
    pub fn describe(self, names: &Interner) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{}`", names.resolve(s)),
            Tok::Int(n) => format!("integer `{n}`"),
            other => format!("`{}`", other.text()),
        }
    }

    fn text(&self) -> &'static str {
        match self {
            Tok::Ident(_) => "<ident>",
            Tok::Int(_) => "<int>",
            Tok::Fn => "fn",
            Tok::Let => "let",
            Tok::Global => "global",
            Tok::Struct => "struct",
            Tok::Atomic => "atomic",
            Tok::If => "if",
            Tok::Else => "else",
            Tok::While => "while",
            Tok::Return => "return",
            Tok::Break => "break",
            Tok::Continue => "continue",
            Tok::Null => "null",
            Tok::New => "new",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::LBracket => "[",
            Tok::RBracket => "]",
            Tok::Semi => ";",
            Tok::Comma => ",",
            Tok::Assign => "=",
            Tok::EqEq => "==",
            Tok::NotEq => "!=",
            Tok::Lt => "<",
            Tok::Le => "<=",
            Tok::Gt => ">",
            Tok::Ge => ">=",
            Tok::Plus => "+",
            Tok::Minus => "-",
            Tok::Star => "*",
            Tok::Slash => "/",
            Tok::Percent => "%",
            Tok::Amp => "&",
            Tok::AmpAmp => "&&",
            Tok::PipePipe => "||",
            Tok::Bang => "!",
            Tok::Arrow => "->",
            Tok::Dot => ".",
            Tok::Eof => "<eof>",
        }
    }
}

/// A token plus its source line (1-based), for diagnostics.
#[derive(Clone, Copy, Debug)]
pub struct Spanned {
    pub tok: Tok,
    pub line: u32,
}

/// A lexing error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    pub line: u32,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// A pull lexer over one source text: [`Lexer::token`] scans the next
/// token when the parser asks for it, interning every identifier into
/// the lexer's [`Interner`] as it goes, so no token list is ever built.
///
/// Line comments (`// ...`) and block comments (`/* ... */`) are skipped.
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    names: Interner,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `src`, with an empty interner.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            names: Interner::new(),
        }
    }

    /// The names interned so far, in source order.
    pub fn names(&self) -> &Interner {
        &self.names
    }

    /// The interner, once lexing is over.
    pub fn into_names(self) -> Interner {
        self.names
    }

    /// Scans the next token: `Eof` at the end of the source, and again
    /// on every later call.
    ///
    /// # Errors
    ///
    /// Returns a [`LexError`] on an unknown character, a malformed
    /// integer, or an unterminated block comment; the lexer stays at
    /// the offending character, so asking again repeats the error.
    pub fn token(&mut self) -> Result<Spanned, LexError> {
        let bytes = self.src.as_bytes();
        loop {
            let Some(&b) = bytes.get(self.pos) else {
                return Ok(Spanned {
                    tok: Tok::Eof,
                    line: self.line,
                });
            };
            let next = bytes.get(self.pos + 1).copied();
            // A one- or two-byte operator: `two` if `second` follows.
            let pick = |second: u8, two: Tok, one: Tok| {
                if next == Some(second) {
                    (two, 2)
                } else {
                    (one, 1)
                }
            };
            let (tok, len) = match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                    continue;
                }
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                    continue;
                }
                b'/' if next == Some(b'/') => {
                    while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                    continue;
                }
                b'/' if next == Some(b'*') => {
                    self.block_comment()?;
                    continue;
                }
                b'{' => (Tok::LBrace, 1),
                b'}' => (Tok::RBrace, 1),
                b'(' => (Tok::LParen, 1),
                b')' => (Tok::RParen, 1),
                b'[' => (Tok::LBracket, 1),
                b']' => (Tok::RBracket, 1),
                b';' => (Tok::Semi, 1),
                b',' => (Tok::Comma, 1),
                b'.' => (Tok::Dot, 1),
                b'+' => (Tok::Plus, 1),
                b'%' => (Tok::Percent, 1),
                b'/' => (Tok::Slash, 1),
                b'*' => (Tok::Star, 1),
                b'-' => pick(b'>', Tok::Arrow, Tok::Minus),
                b'=' => pick(b'=', Tok::EqEq, Tok::Assign),
                b'!' => pick(b'=', Tok::NotEq, Tok::Bang),
                b'<' => pick(b'=', Tok::Le, Tok::Lt),
                b'>' => pick(b'=', Tok::Ge, Tok::Gt),
                b'&' => pick(b'&', Tok::AmpAmp, Tok::Amp),
                b'|' if next == Some(b'|') => (Tok::PipePipe, 2),
                b'|' => return Err(self.error("single `|` is not an operator".into())),
                b if b.is_ascii_digit() => {
                    let text = self.word(u8::is_ascii_digit);
                    let n: i64 = text.parse().map_err(|_| {
                        self.error(format!("integer literal `{text}` out of range"))
                    })?;
                    (Tok::Int(n), text.len())
                }
                b if b.is_ascii_alphabetic() || b == b'_' => {
                    let word = self.word(|c| c.is_ascii_alphanumeric() || *c == b'_');
                    let tok = match word {
                        "fn" => Tok::Fn,
                        "let" => Tok::Let,
                        "global" => Tok::Global,
                        "struct" => Tok::Struct,
                        "atomic" => Tok::Atomic,
                        "if" => Tok::If,
                        "else" => Tok::Else,
                        "while" => Tok::While,
                        "return" => Tok::Return,
                        "break" => Tok::Break,
                        "continue" => Tok::Continue,
                        "null" => Tok::Null,
                        "new" => Tok::New,
                        _ => Tok::Ident(self.names.intern(word)),
                    };
                    (tok, word.len())
                }
                other => {
                    return Err(self.error(format!("unexpected character `{}`", other as char)))
                }
            };
            self.pos += len;
            return Ok(Spanned {
                tok,
                line: self.line,
            });
        }
    }

    /// The longest run of bytes matching `class` at the cursor.
    fn word(&self, class: impl Fn(&u8) -> bool) -> &'a str {
        let src: &'a str = self.src;
        let rest = &src.as_bytes()[self.pos..];
        let len = rest.iter().take_while(|c| class(c)).count();
        &src[self.pos..self.pos + len]
    }

    /// Skips a `/* ... */` comment starting at the cursor.
    fn block_comment(&mut self) -> Result<(), LexError> {
        let bytes = self.src.as_bytes();
        let start_line = self.line;
        self.pos += 2;
        loop {
            if self.pos + 1 >= bytes.len() {
                return Err(LexError {
                    line: start_line,
                    message: "unterminated block comment".into(),
                });
            }
            if bytes[self.pos] == b'\n' {
                self.line += 1;
            }
            if bytes[self.pos] == b'*' && bytes[self.pos + 1] == b'/' {
                self.pos += 2;
                return Ok(());
            }
            self.pos += 1;
        }
    }

    fn error(&self, message: String) -> LexError {
        LexError {
            line: self.line,
            message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `src` through `Eof`, and the interner.
    fn lex(src: &str) -> Result<(Vec<Spanned>, Interner), LexError> {
        let mut lexer = Lexer::new(src);
        let mut toks = Vec::new();
        loop {
            let t = lexer.token()?;
            toks.push(t);
            if t.tok == Tok::Eof {
                return Ok((toks, lexer.into_names()));
            }
        }
    }

    /// The tokens of `src`, space-separated, identifiers by name.
    fn toks(src: &str) -> String {
        let (toks, names) = lex(src).unwrap();
        let words: Vec<String> = toks
            .iter()
            .map(|s| match s.tok {
                Tok::Ident(sym) => names.resolve(sym).to_owned(),
                Tok::Int(n) => n.to_string(),
                other => other.text().to_owned(),
            })
            .collect();
        words.join(" ")
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            toks("a -> b == c != d <= e >= f && g || !h"),
            "a -> b == c != d <= e >= f && g || ! h <eof>"
        );
    }

    #[test]
    fn lexes_keywords_and_ints() {
        assert_eq!(
            toks("fn f() { let x = 42; }"),
            "fn f ( ) { let x = 42 ; } <eof>"
        );
    }

    #[test]
    fn interns_each_name_once() {
        let (ts, names) = lex("x y x fn x").unwrap();
        assert_eq!(names.len(), 2, "keywords are not interned");
        assert_eq!(ts[0].tok, ts[2].tok);
        assert_eq!(ts[0].tok, ts[4].tok);
        assert_ne!(ts[0].tok, ts[1].tok);
        assert_eq!(ts[1].tok.describe(&names), "identifier `y`");
        assert_eq!(ts[3].tok.describe(&names), "`fn`");
    }

    #[test]
    fn skips_comments_and_tracks_lines() {
        let (ts, names) = lex("// c1\nx /* multi\nline */ y\n").unwrap();
        assert_eq!(ts[0].tok, Tok::Ident(names.get("x").unwrap()));
        assert_eq!(ts[0].line, 2);
        assert_eq!(ts[1].tok, Tok::Ident(names.get("y").unwrap()));
        assert_eq!(ts[1].line, 3);
        assert_eq!((ts[2].tok, ts[2].line), (Tok::Eof, 4));
    }

    #[test]
    fn rejects_unknown_chars() {
        assert!(lex("x $ y").is_err());
        assert!(lex("/* open").is_err());
        assert!(lex("a | b").is_err());
    }

    /// Tokens before an error are handed out; the error then repeats,
    /// and the end of the source is `Eof` on every call.
    #[test]
    fn pulls_up_to_an_error_and_stays_there() {
        let mut lexer = Lexer::new("a\n$");
        assert!(matches!(lexer.token().unwrap().tok, Tok::Ident(_)));
        let err = lexer.token().unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (2, "unexpected character `$`")
        );
        assert_eq!(lexer.token().unwrap_err(), err);
        let mut lexer = Lexer::new("a");
        lexer.token().unwrap();
        assert_eq!(lexer.token().unwrap().tok, Tok::Eof);
        assert_eq!(lexer.token().unwrap().tok, Tok::Eof);
    }

    #[test]
    fn arrow_vs_minus() {
        assert_eq!(toks("a - b -> c"), "a - b -> c <eof>");
    }
}
