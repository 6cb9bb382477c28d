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

/// Tokenizes `src`, interning every identifier into `names`.
///
/// Line comments (`// ...`) and block comments (`/* ... */`) are skipped.
///
/// # Errors
///
/// Returns a [`LexError`] on unknown characters, malformed integers, or
/// unterminated block comments.
pub fn lex(src: &str, names: &mut Interner) -> Result<Vec<Spanned>, LexError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    macro_rules! push {
        ($t:expr) => {
            toks.push(Spanned { tok: $t, line })
        };
    }
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let start_line = line;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LexError {
                            line: start_line,
                            message: "unterminated block comment".into(),
                        });
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            '{' => {
                push!(Tok::LBrace);
                i += 1;
            }
            '}' => {
                push!(Tok::RBrace);
                i += 1;
            }
            '(' => {
                push!(Tok::LParen);
                i += 1;
            }
            ')' => {
                push!(Tok::RParen);
                i += 1;
            }
            '[' => {
                push!(Tok::LBracket);
                i += 1;
            }
            ']' => {
                push!(Tok::RBracket);
                i += 1;
            }
            ';' => {
                push!(Tok::Semi);
                i += 1;
            }
            ',' => {
                push!(Tok::Comma);
                i += 1;
            }
            '.' => {
                push!(Tok::Dot);
                i += 1;
            }
            '+' => {
                push!(Tok::Plus);
                i += 1;
            }
            '%' => {
                push!(Tok::Percent);
                i += 1;
            }
            '/' => {
                push!(Tok::Slash);
                i += 1;
            }
            '*' => {
                push!(Tok::Star);
                i += 1;
            }
            '-' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    push!(Tok::Arrow);
                    i += 2;
                } else {
                    push!(Tok::Minus);
                    i += 1;
                }
            }
            '=' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(Tok::EqEq);
                    i += 2;
                } else {
                    push!(Tok::Assign);
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(Tok::NotEq);
                    i += 2;
                } else {
                    push!(Tok::Bang);
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(Tok::Le);
                    i += 2;
                } else {
                    push!(Tok::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(Tok::Ge);
                    i += 2;
                } else {
                    push!(Tok::Gt);
                    i += 1;
                }
            }
            '&' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'&' {
                    push!(Tok::AmpAmp);
                    i += 2;
                } else {
                    push!(Tok::Amp);
                    i += 1;
                }
            }
            '|' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'|' {
                    push!(Tok::PipePipe);
                    i += 2;
                } else {
                    return Err(LexError {
                        line,
                        message: "single `|` is not an operator".into(),
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let n: i64 = text.parse().map_err(|_| LexError {
                    line,
                    message: format!("integer literal `{text}` out of range"),
                })?;
                push!(Tok::Int(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &src[start..i];
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
                    _ => Tok::Ident(names.intern(word)),
                };
                push!(tok);
            }
            other => {
                return Err(LexError {
                    line,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    toks.push(Spanned {
        tok: Tok::Eof,
        line,
    });
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tokens of `src`, space-separated, identifiers by name.
    fn toks(src: &str) -> String {
        let mut names = Interner::new();
        let toks = lex(src, &mut names).unwrap();
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
        let mut names = Interner::new();
        let ts = lex("x y x fn x", &mut names).unwrap();
        assert_eq!(names.len(), 2, "keywords are not interned");
        assert_eq!(ts[0].tok, ts[2].tok);
        assert_eq!(ts[0].tok, ts[4].tok);
        assert_ne!(ts[0].tok, ts[1].tok);
        assert_eq!(ts[1].tok.describe(&names), "identifier `y`");
        assert_eq!(ts[3].tok.describe(&names), "`fn`");
    }

    #[test]
    fn skips_comments_and_tracks_lines() {
        let mut names = Interner::new();
        let ts = lex("// c1\nx /* multi\nline */ y", &mut names).unwrap();
        assert_eq!(ts[0].tok, Tok::Ident(names.get("x").unwrap()));
        assert_eq!(ts[0].line, 2);
        assert_eq!(ts[1].tok, Tok::Ident(names.get("y").unwrap()));
        assert_eq!(ts[1].line, 3);
    }

    #[test]
    fn rejects_unknown_chars() {
        let mut names = Interner::new();
        assert!(lex("x $ y", &mut names).is_err());
        assert!(lex("/* open", &mut names).is_err());
        assert!(lex("a | b", &mut names).is_err());
    }

    #[test]
    fn arrow_vs_minus() {
        assert_eq!(toks("a - b -> c"), "a - b -> c <eof>");
    }
}
