//! Token definitions for the Maril lexer.

use crate::error::Span;
use std::fmt;

/// A single lexed token together with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where in the source it came from.
    pub span: Span,
}

/// The kinds of token Maril distinguishes.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// A `%`-prefixed directive, e.g. `%reg`, `%instr`. Stored without
    /// the leading `%` and lower-cased.
    Directive(String),
    /// An identifier: section names, register classes, mnemonics.
    /// Mnemonics may contain dots (`fadd.d`).
    Ident(String),
    /// An integer literal (decimal or `0x` hexadecimal).
    Int(i64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `::` — the generic-compare operator
    ColonColon,
    /// `#` — immediate/label operand marker
    Hash,
    /// `$` — operand reference sigil
    Dollar,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%` used as the modulo operator inside expressions
    Percent,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~`
    Tilde,
    /// `!`
    Bang,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `.` — used in `%aux` operand conditions like `1.$1`
    Dot,
    /// `=`
    Assign,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `==>` — the glue-transformation rewrite arrow
    Arrow,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Directive(d) => write!(f, "%{d}"),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::LBrace => f.write_str("{"),
            TokenKind::RBrace => f.write_str("}"),
            TokenKind::LBracket => f.write_str("["),
            TokenKind::RBracket => f.write_str("]"),
            TokenKind::LParen => f.write_str("("),
            TokenKind::RParen => f.write_str(")"),
            TokenKind::Semi => f.write_str(";"),
            TokenKind::Comma => f.write_str(","),
            TokenKind::Colon => f.write_str(":"),
            TokenKind::ColonColon => f.write_str("::"),
            TokenKind::Hash => f.write_str("#"),
            TokenKind::Dollar => f.write_str("$"),
            TokenKind::Star => f.write_str("*"),
            TokenKind::Plus => f.write_str("+"),
            TokenKind::Minus => f.write_str("-"),
            TokenKind::Slash => f.write_str("/"),
            TokenKind::Percent => f.write_str("%"),
            TokenKind::Amp => f.write_str("&"),
            TokenKind::Pipe => f.write_str("|"),
            TokenKind::Caret => f.write_str("^"),
            TokenKind::Tilde => f.write_str("~"),
            TokenKind::Bang => f.write_str("!"),
            TokenKind::Lt => f.write_str("<"),
            TokenKind::Gt => f.write_str(">"),
            TokenKind::Le => f.write_str("<="),
            TokenKind::Ge => f.write_str(">="),
            TokenKind::Shl => f.write_str("<<"),
            TokenKind::Shr => f.write_str(">>"),
            TokenKind::Dot => f.write_str("."),
            TokenKind::Assign => f.write_str("="),
            TokenKind::EqEq => f.write_str("=="),
            TokenKind::Ne => f.write_str("!="),
            TokenKind::Arrow => f.write_str("==>"),
            TokenKind::Eof => f.write_str("<eof>"),
        }
    }
}
