//! Hand-written tokenizer for the surface NRC syntax.
//!
//! Produces a flat token stream with byte spans and 1-based line/column
//! positions. Unicode alternates from the paper's notation (`⟨ ⟩ ∅ ⊎ ∪ ≠ ≤
//! ≥ ⇐`) lex to the same tokens as their ASCII spellings; `//` starts a line
//! comment.

use crate::error::CompileError;

/// A token of the surface syntax.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier (variable, input, field or assignment name).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Real (floating-point) literal.
    Real(f64),
    /// String literal (unescaped contents).
    Str(String),

    /// `for`
    For,
    /// `in`
    In,
    /// `union` / `⊎` / `∪`
    Union,
    /// `let`
    Let,
    /// `if`
    If,
    /// `then`
    Then,
    /// `else`
    Else,
    /// `dedup`
    Dedup,
    /// `get`
    Get,
    /// `groupBy`
    GroupBy,
    /// `sumBy`
    SumBy,
    /// `NewLabel`
    NewLabel,
    /// `true`
    True,
    /// `false`
    False,
    /// `NULL`
    Null,
    /// `date` (both the literal constructor and the scalar type)
    Date,

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
    /// `<` / `⟨` — tuple open or less-than, depending on position
    Lt,
    /// `>` / `⟩` — tuple close or greater-than, depending on position
    Gt,
    /// `<=` / `⇐` — assignment arrow at statement scope, less-or-equal otherwise
    Le,
    /// `>=` / `≥`
    Ge,
    /// `==`
    EqEq,
    /// `!=` / `≠`
    Ne,
    /// `∅` — empty bag glyph
    EmptySet,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `:=`
    Assign,
    /// `.`
    Dot,
    /// `#`
    Hash,
    /// `?`
    Question,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `=`
    Eq,
    /// End of input.
    Eof,
}

impl Tok {
    /// A short human-readable description used in "expected" sets.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(_) => "identifier".into(),
            Tok::Int(_) => "integer literal".into(),
            Tok::Real(_) => "real literal".into(),
            Tok::Str(_) => "string literal".into(),
            Tok::For => "'for'".into(),
            Tok::In => "'in'".into(),
            Tok::Union => "'union'".into(),
            Tok::Let => "'let'".into(),
            Tok::If => "'if'".into(),
            Tok::Then => "'then'".into(),
            Tok::Else => "'else'".into(),
            Tok::Dedup => "'dedup'".into(),
            Tok::Get => "'get'".into(),
            Tok::GroupBy => "'groupBy'".into(),
            Tok::SumBy => "'sumBy'".into(),
            Tok::NewLabel => "'NewLabel'".into(),
            Tok::True => "'true'".into(),
            Tok::False => "'false'".into(),
            Tok::Null => "'NULL'".into(),
            Tok::Date => "'date'".into(),
            Tok::LParen => "'('".into(),
            Tok::RParen => "')'".into(),
            Tok::LBrace => "'{'".into(),
            Tok::RBrace => "'}'".into(),
            Tok::LBracket => "'['".into(),
            Tok::RBracket => "']'".into(),
            Tok::Lt => "'<'".into(),
            Tok::Gt => "'>'".into(),
            Tok::Le => "'<='".into(),
            Tok::Ge => "'>='".into(),
            Tok::EqEq => "'=='".into(),
            Tok::Ne => "'!='".into(),
            Tok::EmptySet => "'∅'".into(),
            Tok::Comma => "','".into(),
            Tok::Semi => "';'".into(),
            Tok::Colon => "':'".into(),
            Tok::Assign => "':='".into(),
            Tok::Dot => "'.'".into(),
            Tok::Hash => "'#'".into(),
            Tok::Question => "'?'".into(),
            Tok::Plus => "'+'".into(),
            Tok::Minus => "'-'".into(),
            Tok::Star => "'*'".into(),
            Tok::Slash => "'/'".into(),
            Tok::AndAnd => "'&&'".into(),
            Tok::OrOr => "'||'".into(),
            Tok::Bang => "'!'".into(),
            Tok::Eq => "'='".into(),
            Tok::Eof => "end of input".into(),
        }
    }

    /// True for reserved words that cannot be used as binders.
    pub fn is_keyword(&self) -> bool {
        matches!(
            self,
            Tok::For
                | Tok::In
                | Tok::Union
                | Tok::Let
                | Tok::If
                | Tok::Then
                | Tok::Else
                | Tok::Dedup
                | Tok::Get
                | Tok::GroupBy
                | Tok::SumBy
                | Tok::NewLabel
                | Tok::True
                | Tok::False
                | Tok::Null
                | Tok::Date
        )
    }

    /// The keyword's spelling, for positions (like field names after `.`)
    /// where reserved words are acceptable as plain names.
    pub fn keyword_spelling(&self) -> Option<&'static str> {
        Some(match self {
            Tok::For => "for",
            Tok::In => "in",
            Tok::Union => "union",
            Tok::Let => "let",
            Tok::If => "if",
            Tok::Then => "then",
            Tok::Else => "else",
            Tok::Dedup => "dedup",
            Tok::Get => "get",
            Tok::GroupBy => "groupBy",
            Tok::SumBy => "sumBy",
            Tok::NewLabel => "NewLabel",
            Tok::True => "true",
            Tok::False => "false",
            Tok::Null => "NULL",
            Tok::Date => "date",
            _ => return None,
        })
    }
}

/// Byte span and 1-based source position of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the token's first character.
    pub offset: usize,
    /// Byte length of the token.
    pub len: usize,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number (in characters, not bytes).
    pub col: usize,
}

/// Returns the source line containing 1-based `line` (without its newline).
pub(crate) fn source_line(src: &str, line: usize) -> String {
    src.lines()
        .nth(line.saturating_sub(1))
        .unwrap_or("")
        .to_string()
}

fn keyword(word: &str) -> Option<Tok> {
    Some(match word {
        "for" => Tok::For,
        "in" => Tok::In,
        "union" => Tok::Union,
        "let" => Tok::Let,
        "if" => Tok::If,
        "then" => Tok::Then,
        "else" => Tok::Else,
        "dedup" => Tok::Dedup,
        "get" => Tok::Get,
        "groupBy" => Tok::GroupBy,
        "sumBy" => Tok::SumBy,
        "NewLabel" => Tok::NewLabel,
        "true" => Tok::True,
        "false" => Tok::False,
        "NULL" => Tok::Null,
        "date" => Tok::Date,
        _ => return None,
    })
}

struct Lexer<'a> {
    src: &'a str,
    chars: Vec<(usize, char)>,
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            chars: src.char_indices().collect(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).map(|&(_, c)| c)
    }

    fn offset(&self) -> usize {
        self.chars
            .get(self.pos)
            .map(|&(o, _)| o)
            .unwrap_or(self.src.len())
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn error(&self, message: impl Into<String>, line: usize, col: usize) -> CompileError {
        CompileError::new(message, line, col, Vec::new(), source_line(self.src, line))
    }

    fn here(&self) -> Span {
        Span {
            offset: self.offset(),
            len: 0,
            line: self.line,
            col: self.col,
        }
    }

    fn lex_number(&mut self) -> Result<(Tok, Span), CompileError> {
        let start = self.here();
        let begin = self.offset();
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        let mut is_real = false;
        // A '.' is part of the number only when a digit follows, so `x.1`
        // style projections never collide with reals.
        if self.peek() == Some('.') && matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
            is_real = true;
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some('e') | Some('E')) {
            let mut ahead = self.pos + 1;
            if matches!(self.chars.get(ahead), Some(&(_, '+')) | Some(&(_, '-'))) {
                ahead += 1;
            }
            if matches!(self.chars.get(ahead), Some(&(_, c)) if c.is_ascii_digit()) {
                is_real = true;
                while self.pos < ahead {
                    self.bump();
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.bump();
                }
            }
        }
        let text = &self.src[begin..self.offset()];
        let span = Span {
            offset: begin,
            len: self.offset() - begin,
            line: start.line,
            col: start.col,
        };
        if is_real {
            match text.parse::<f64>() {
                Ok(r) => Ok((Tok::Real(r), span)),
                Err(_) => Err(self.error(
                    format!("invalid real literal `{text}`"),
                    span.line,
                    span.col,
                )),
            }
        } else {
            match text.parse::<i64>() {
                Ok(i) => Ok((Tok::Int(i), span)),
                Err(_) => Err(self.error(
                    format!("integer literal `{text}` out of range"),
                    span.line,
                    span.col,
                )),
            }
        }
    }

    fn lex_string(&mut self) -> Result<(Tok, Span), CompileError> {
        let span_start = self.here();
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                None => {
                    return Err(self.error(
                        "unterminated string literal",
                        span_start.line,
                        span_start.col,
                    ))
                }
                Some('"') => break,
                Some('\\') => {
                    let (eline, ecol) = (self.line, self.col);
                    match self.bump() {
                        Some('\\') => out.push('\\'),
                        Some('"') => out.push('"'),
                        Some('n') => out.push('\n'),
                        Some('t') => out.push('\t'),
                        Some('r') => out.push('\r'),
                        Some('u') => {
                            if self.bump() != Some('{') {
                                return Err(self.error(
                                    "invalid escape: expected `{` after `\\u`",
                                    eline,
                                    ecol,
                                ));
                            }
                            let mut hex = String::new();
                            loop {
                                match self.bump() {
                                    Some('}') => break,
                                    Some(c) if c.is_ascii_hexdigit() => hex.push(c),
                                    _ => {
                                        return Err(self.error(
                                            "invalid `\\u{...}` escape",
                                            eline,
                                            ecol,
                                        ))
                                    }
                                }
                            }
                            let cp = u32::from_str_radix(&hex, 16)
                                .ok()
                                .and_then(char::from_u32)
                                .ok_or_else(|| {
                                    self.error("invalid `\\u{...}` escape", eline, ecol)
                                })?;
                            out.push(cp);
                        }
                        other => {
                            let shown = other.map(|c| c.to_string()).unwrap_or_default();
                            return Err(self.error(
                                format!("invalid escape `\\{shown}` in string literal"),
                                eline,
                                ecol,
                            ));
                        }
                    }
                }
                Some(c) => out.push(c),
            }
        }
        let span = Span {
            offset: span_start.offset,
            len: self.offset() - span_start.offset,
            line: span_start.line,
            col: span_start.col,
        };
        Ok((Tok::Str(out), span))
    }
}

/// Tokenizes `src` into a flat stream ending in [`Tok::Eof`].
pub(crate) fn lex(src: &str) -> Result<Vec<(Tok, Span)>, CompileError> {
    let mut lx = Lexer::new(src);
    let mut out = Vec::new();
    loop {
        // Skip whitespace and `//` comments.
        loop {
            match lx.peek() {
                Some(c) if c.is_whitespace() => {
                    lx.bump();
                }
                Some('/') if lx.peek2() == Some('/') => {
                    while !matches!(lx.peek(), None | Some('\n')) {
                        lx.bump();
                    }
                }
                _ => break,
            }
        }
        let span = lx.here();
        let c = match lx.peek() {
            None => {
                out.push((Tok::Eof, span));
                return Ok(out);
            }
            Some(c) => c,
        };
        if c.is_ascii_digit() {
            out.push(lx.lex_number()?);
            continue;
        }
        if c == '"' {
            out.push(lx.lex_string()?);
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let begin = lx.offset();
            while matches!(lx.peek(), Some(ch) if ch.is_ascii_alphanumeric() || ch == '_') {
                lx.bump();
            }
            let word = &src[begin..lx.offset()];
            let tok = keyword(word).unwrap_or_else(|| Tok::Ident(word.to_string()));
            out.push((
                tok,
                Span {
                    offset: begin,
                    len: lx.offset() - begin,
                    line: span.line,
                    col: span.col,
                },
            ));
            continue;
        }
        // Punctuation, multi-char operators and unicode alternates.
        let mut push1 = |lx: &mut Lexer, tok: Tok| {
            lx.bump();
            out.push((
                tok,
                Span {
                    offset: span.offset,
                    len: lx.offset() - span.offset,
                    line: span.line,
                    col: span.col,
                },
            ));
        };
        let two = |lx: &Lexer| lx.peek2();
        match c {
            '(' => push1(&mut lx, Tok::LParen),
            ')' => push1(&mut lx, Tok::RParen),
            '{' => push1(&mut lx, Tok::LBrace),
            '}' => push1(&mut lx, Tok::RBrace),
            '[' => push1(&mut lx, Tok::LBracket),
            ']' => push1(&mut lx, Tok::RBracket),
            ',' => push1(&mut lx, Tok::Comma),
            ';' => push1(&mut lx, Tok::Semi),
            '#' => push1(&mut lx, Tok::Hash),
            '?' => push1(&mut lx, Tok::Question),
            '+' => push1(&mut lx, Tok::Plus),
            '*' => push1(&mut lx, Tok::Star),
            '/' => push1(&mut lx, Tok::Slash),
            '.' => push1(&mut lx, Tok::Dot),
            '⟨' => push1(&mut lx, Tok::Lt),
            '⟩' => push1(&mut lx, Tok::Gt),
            '∅' => push1(&mut lx, Tok::EmptySet),
            '⊎' | '∪' => push1(&mut lx, Tok::Union),
            '≠' => push1(&mut lx, Tok::Ne),
            '≤' => push1(&mut lx, Tok::Le),
            '≥' => push1(&mut lx, Tok::Ge),
            '⇐' => push1(&mut lx, Tok::Le),
            '-' => push1(&mut lx, Tok::Minus),
            ':' => {
                if two(&lx) == Some('=') {
                    lx.bump();
                    push1(&mut lx, Tok::Assign);
                } else {
                    push1(&mut lx, Tok::Colon);
                }
            }
            '<' => {
                if two(&lx) == Some('=') {
                    lx.bump();
                    push1(&mut lx, Tok::Le);
                } else {
                    push1(&mut lx, Tok::Lt);
                }
            }
            '>' => {
                if two(&lx) == Some('=') {
                    lx.bump();
                    push1(&mut lx, Tok::Ge);
                } else {
                    push1(&mut lx, Tok::Gt);
                }
            }
            '=' => {
                if two(&lx) == Some('=') {
                    lx.bump();
                    push1(&mut lx, Tok::EqEq);
                } else {
                    push1(&mut lx, Tok::Eq);
                }
            }
            '!' => {
                if two(&lx) == Some('=') {
                    lx.bump();
                    push1(&mut lx, Tok::Ne);
                } else {
                    push1(&mut lx, Tok::Bang);
                }
            }
            '&' => {
                if two(&lx) == Some('&') {
                    lx.bump();
                    push1(&mut lx, Tok::AndAnd);
                } else {
                    return Err(lx.error(
                        "unexpected character `&` (did you mean `&&`?)",
                        span.line,
                        span.col,
                    ));
                }
            }
            '|' => {
                if two(&lx) == Some('|') {
                    lx.bump();
                    push1(&mut lx, Tok::OrOr);
                } else {
                    return Err(lx.error(
                        "unexpected character `|` (did you mean `||`?)",
                        span.line,
                        span.col,
                    ));
                }
            }
            other => {
                return Err(lx.error(
                    format!("unexpected character `{other}`"),
                    span.line,
                    span.col,
                ))
            }
        }
    }
}
