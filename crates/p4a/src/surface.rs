//! Surface syntax for P4 automata, closely following the paper's notation
//! (Figures 1, 7, 9–12).
//!
//! ```text
//! parser Reference {
//!   state q1 {
//!     extract(mpls, 32);
//!     select(mpls[23:23]) {
//!       0b0 => q1;
//!       0b1 => q2;
//!     }
//!   }
//!   state q2 {
//!     extract(udp, 64);
//!     goto accept;
//!   }
//! }
//! ```
//!
//! Headers are declared implicitly by `extract(h, n)` (as in the paper) or
//! explicitly with `header h : n;` for headers that are only assigned.
//! Literals: `0b1010` (width 4), `0x86dd` (width 16), `32w0` (explicit
//! width). In `select` patterns a bare decimal such as `(0, 1)` is widened
//! to the scrutinee's width, matching the paper's loose notation.

use std::collections::HashMap;
use std::fmt;

use leapfrog_bitvec::BitVec;

use crate::ast::{Automaton, Expr, Pattern, Target, Transition};
use crate::builder::Builder;
use crate::validate::ValidationError;

/// A parse or resolution error with a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<ValidationError> for ParseError {
    fn from(e: ValidationError) -> Self {
        ParseError {
            line: 0,
            col: 0,
            message: e.to_string(),
        }
    }
}

// ----- lexer -----

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Number(u64),
    /// A literal with intrinsic width (from 0b…, 0x… or Nw… forms).
    Bits(BitVec),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Colon,
    Semi,
    Comma,
    Arrow,
    PlusPlus,
    Assign,
    Underscore,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Number(n) => write!(f, "number `{n}`"),
            Tok::Bits(b) => write!(f, "bit literal `{b}`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Arrow => write!(f, "`=>`"),
            Tok::PlusPlus => write!(f, "`++`"),
            Tok::Assign => write!(f, "`:=`"),
            Tok::Underscore => write!(f, "`_`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn next_token(&mut self) -> Result<(Tok, usize, usize), ParseError> {
        self.skip_ws_and_comments();
        let (line, col) = (self.line, self.col);
        let Some(c) = self.peek() else {
            return Ok((Tok::Eof, line, col));
        };
        let tok = match c {
            b'{' => {
                self.bump();
                Tok::LBrace
            }
            b'}' => {
                self.bump();
                Tok::RBrace
            }
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b'[' => {
                self.bump();
                Tok::LBracket
            }
            b']' => {
                self.bump();
                Tok::RBracket
            }
            b';' => {
                self.bump();
                Tok::Semi
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b':' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Assign
                } else {
                    Tok::Colon
                }
            }
            b'=' => {
                self.bump();
                if self.peek() == Some(b'>') {
                    self.bump();
                    Tok::Arrow
                } else {
                    return Err(self.err("expected `=>` or `:=`"));
                }
            }
            b'+' => {
                self.bump();
                if self.peek() == Some(b'+') {
                    self.bump();
                    Tok::PlusPlus
                } else {
                    return Err(self.err("expected `++`"));
                }
            }
            b'_' if !self
                .peek2()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') =>
            {
                self.bump();
                Tok::Underscore
            }
            c if c.is_ascii_digit() => self.lex_number()?,
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut s = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' {
                        s.push(c as char);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Tok::Ident(s)
            }
            other => return Err(self.err(format!("unexpected character {:?}", other as char))),
        };
        Ok((tok, line, col))
    }

    fn lex_number(&mut self) -> Result<Tok, ParseError> {
        // 0b…, 0x…, plain decimal, or Nw<value> width literals.
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'b') | Some(b'x')) {
            let base = self.peek2().unwrap();
            self.bump();
            self.bump();
            let mut bv = BitVec::new();
            let mut any = false;
            while let Some(c) = self.peek() {
                match (base, c) {
                    (b'b', b'0') => bv.push(false),
                    (b'b', b'1') => bv.push(true),
                    (_, b'_') => {}
                    (b'x', c) if c.is_ascii_hexdigit() => {
                        let nib = (c as char).to_digit(16).unwrap() as u64;
                        bv.extend(&BitVec::from_u64(nib, 4));
                    }
                    _ => break,
                }
                any = true;
                self.bump();
            }
            if !any {
                return Err(self.err("empty bit literal"));
            }
            return Ok(Tok::Bits(bv));
        }
        let mut n: u64 = 0;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                n = n
                    .checked_mul(10)
                    .and_then(|n| n.checked_add((c - b'0') as u64))
                    .ok_or_else(|| self.err("number too large"))?;
                self.bump();
            } else {
                break;
            }
        }
        // Width literal: `32w0`, `16w0x86dd`, `4w0b1010`.
        if self.peek() == Some(b'w') {
            self.bump();
            let width = n as usize;
            if width > 64 && !matches!(self.peek(), Some(b'0')) {
                return Err(self.err("width literal wider than 64 bits needs 0b/0x digits"));
            }
            let value_tok = self.lex_number()?;
            let bv = match value_tok {
                Tok::Number(v) => {
                    if width > 64 {
                        return Err(self.err("decimal width literals are limited to 64 bits"));
                    }
                    if width < 64 && v >= (1u64 << width) {
                        return Err(self.err(format!("value {v} does not fit in {width} bits")));
                    }
                    BitVec::from_u64(v, width)
                }
                Tok::Bits(bits) => {
                    if bits.len() > width {
                        return Err(
                            self.err(format!("literal has {} bits, width is {width}", bits.len()))
                        );
                    }
                    // Zero-extend on the left.
                    BitVec::zeros(width - bits.len()).concat(&bits)
                }
                _ => return Err(self.err("expected a value after width prefix")),
            };
            return Ok(Tok::Bits(bv));
        }
        Ok(Tok::Number(n))
    }
}

// ----- parser -----

/// Deepest expression the surface parser accepts: every parenthesis,
/// `++` and slice adds a level to a leaf's one. The parser and everything
/// downstream of it recurse once per level, so parser text from outside
/// must not choose the depth. The suite's expressions nest at most one
/// parenthesis deep with at most one `++`.
pub const MAX_EXPR_DEPTH: usize = 64;

struct Parser {
    toks: Vec<(Tok, usize, usize)>,
    pos: usize,
}

/// Concrete syntax for a pattern, before width resolution.
#[derive(Debug, Clone)]
enum CstPat {
    Wildcard,
    Bits(BitVec),
    Number(u64),
}

#[derive(Debug, Clone)]
enum CstExpr {
    Ident(String),
    Bits(BitVec),
    Slice(Box<CstExpr>, usize, usize),
    Concat(Box<CstExpr>, Box<CstExpr>),
}

#[derive(Debug, Clone)]
enum CstOp {
    Extract(String, usize),
    Assign(String, CstExpr),
}

#[derive(Debug, Clone)]
enum CstTrans {
    Goto(String),
    Select(Vec<CstExpr>, Vec<(Vec<CstPat>, String)>),
}

struct CstState {
    name: String,
    ops: Vec<CstOp>,
    trans: CstTrans,
    line: usize,
    col: usize,
}

struct CstParser {
    name: String,
    headers: Vec<(String, usize)>,
    states: Vec<CstState>,
}

impl Parser {
    fn error_at(&self, message: impl Into<String>) -> ParseError {
        let (_, line, col) = &self.toks[self.pos.min(self.toks.len() - 1)];
        ParseError {
            line: *line,
            col: *col,
            message: message.into(),
        }
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)].0
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].0.clone();
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: &Tok) -> Result<(), ParseError> {
        if self.peek() == want {
            self.next();
            Ok(())
        } else {
            Err(self.error_at(format!("expected {want}, found {}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Tok::Ident(s) => Ok(s),
            other => {
                self.pos -= 1;
                Err(self.error_at(format!("expected identifier, found {other}")))
            }
        }
    }

    fn number(&mut self) -> Result<u64, ParseError> {
        match self.next() {
            Tok::Number(n) => Ok(n),
            other => {
                self.pos -= 1;
                Err(self.error_at(format!("expected number, found {other}")))
            }
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Tok::Ident(s) if s == kw => Ok(()),
            other => {
                self.pos -= 1;
                Err(self.error_at(format!("expected `{kw}`, found {other}")))
            }
        }
    }

    fn parse_parser(&mut self) -> Result<CstParser, ParseError> {
        self.keyword("parser")?;
        let name = self.ident()?;
        self.expect(&Tok::LBrace)?;
        let mut headers = Vec::new();
        let mut states = Vec::new();
        loop {
            match self.peek().clone() {
                Tok::RBrace => {
                    self.next();
                    break;
                }
                Tok::Ident(kw) if kw == "header" => {
                    self.next();
                    let h = self.ident()?;
                    self.expect(&Tok::Colon)?;
                    let n = self.number()? as usize;
                    self.expect(&Tok::Semi)?;
                    headers.push((h, n));
                }
                Tok::Ident(kw) if kw == "state" => {
                    self.next();
                    states.push(self.parse_state()?);
                }
                other => {
                    return Err(
                        self.error_at(format!("expected `header`, `state` or `}}`, found {other}"))
                    )
                }
            }
        }
        Ok(CstParser {
            name,
            headers,
            states,
        })
    }

    fn parse_state(&mut self) -> Result<CstState, ParseError> {
        let (_, line, col) = self.toks[self.pos.min(self.toks.len() - 1)];
        let name = self.ident()?;
        self.expect(&Tok::LBrace)?;
        let mut ops = Vec::new();
        let trans;
        loop {
            match self.peek().clone() {
                Tok::Ident(kw) if kw == "extract" => {
                    self.next();
                    self.expect(&Tok::LParen)?;
                    let h = self.ident()?;
                    self.expect(&Tok::Comma)?;
                    let n = self.number()? as usize;
                    self.expect(&Tok::RParen)?;
                    self.expect(&Tok::Semi)?;
                    ops.push(CstOp::Extract(h, n));
                }
                Tok::Ident(kw) if kw == "goto" => {
                    self.next();
                    let t = self.ident()?;
                    if self.peek() == &Tok::Semi {
                        self.next();
                    }
                    trans = CstTrans::Goto(t);
                    break;
                }
                Tok::Ident(kw) if kw == "select" => {
                    self.next();
                    trans = self.parse_select()?;
                    break;
                }
                Tok::Ident(_) => {
                    // Assignment: h := expr ;
                    let h = self.ident()?;
                    self.expect(&Tok::Assign)?;
                    let e = self.parse_expr()?;
                    self.expect(&Tok::Semi)?;
                    ops.push(CstOp::Assign(h, e));
                }
                other => {
                    return Err(self.error_at(format!(
                        "expected an operation or transition, found {other}"
                    )))
                }
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(CstState {
            name,
            ops,
            trans,
            line,
            col,
        })
    }

    fn parse_select(&mut self) -> Result<CstTrans, ParseError> {
        self.expect(&Tok::LParen)?;
        let mut exprs = vec![self.parse_expr()?];
        while self.peek() == &Tok::Comma {
            self.next();
            exprs.push(self.parse_expr()?);
        }
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::LBrace)?;
        let mut cases = Vec::new();
        while self.peek() != &Tok::RBrace {
            let pats = self.parse_pattern_tuple(exprs.len())?;
            self.expect(&Tok::Arrow)?;
            // Allow an optional `goto` keyword before the target, as used
            // in the paper's appendix figures.
            if matches!(self.peek(), Tok::Ident(k) if k == "goto") {
                self.next();
            }
            let target = self.ident()?;
            if matches!(self.peek(), Tok::Semi | Tok::Comma) {
                self.next();
            }
            cases.push((pats, target));
        }
        self.expect(&Tok::RBrace)?;
        Ok(CstTrans::Select(exprs, cases))
    }

    fn parse_pattern_tuple(&mut self, arity: usize) -> Result<Vec<CstPat>, ParseError> {
        if self.peek() == &Tok::LParen {
            self.next();
            let mut pats = vec![self.parse_pattern()?];
            while self.peek() == &Tok::Comma {
                self.next();
                pats.push(self.parse_pattern()?);
            }
            self.expect(&Tok::RParen)?;
            Ok(pats)
        } else {
            let p = self.parse_pattern()?;
            if arity != 1 {
                return Err(self.error_at(format!(
                    "select has {arity} scrutinees; parenthesize the pattern tuple"
                )));
            }
            Ok(vec![p])
        }
    }

    fn parse_pattern(&mut self) -> Result<CstPat, ParseError> {
        match self.next() {
            Tok::Underscore => Ok(CstPat::Wildcard),
            Tok::Bits(bv) => Ok(CstPat::Bits(bv)),
            Tok::Number(n) => Ok(CstPat::Number(n)),
            other => {
                self.pos -= 1;
                Err(self.error_at(format!("expected a pattern, found {other}")))
            }
        }
    }

    fn parse_expr(&mut self) -> Result<CstExpr, ParseError> {
        self.parse_concat(0).map(|(e, _)| e)
    }

    /// `depth + 1`, or an error once that exceeds [`MAX_EXPR_DEPTH`].
    fn deeper(&self, depth: usize) -> Result<usize, ParseError> {
        if depth >= MAX_EXPR_DEPTH {
            return Err(self.error_at(format!(
                "expression nests deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        Ok(depth + 1)
    }

    /// Parses `atom (++ atom)*` inside `open` parentheses, returning the
    /// expression and its depth.
    fn parse_concat(&mut self, open: usize) -> Result<(CstExpr, usize), ParseError> {
        let (mut e, mut depth) = self.parse_atom(open)?;
        while self.peek() == &Tok::PlusPlus {
            self.next();
            let (rhs, rhs_depth) = self.parse_atom(open)?;
            depth = self.deeper(depth.max(rhs_depth))?;
            e = CstExpr::Concat(Box::new(e), Box::new(rhs));
        }
        Ok((e, depth))
    }

    fn parse_atom(&mut self, open: usize) -> Result<(CstExpr, usize), ParseError> {
        let (mut e, mut depth) = match self.next() {
            Tok::Ident(s) => (CstExpr::Ident(s), 1),
            Tok::Bits(bv) => (CstExpr::Bits(bv), 1),
            Tok::LParen => {
                let (inner, depth) = self.parse_concat(self.deeper(open)?)?;
                self.expect(&Tok::RParen)?;
                (inner, self.deeper(depth)?)
            }
            other => {
                self.pos -= 1;
                return Err(self.error_at(format!("expected an expression, found {other}")));
            }
        };
        while self.peek() == &Tok::LBracket {
            self.next();
            let n1 = self.number()? as usize;
            self.expect(&Tok::Colon)?;
            let n2 = self.number()? as usize;
            self.expect(&Tok::RBracket)?;
            depth = self.deeper(depth)?;
            e = CstExpr::Slice(Box::new(e), n1, n2);
        }
        Ok((e, depth))
    }
}

// ----- resolution -----

/// Parses a parser declaration into a validated [`Automaton`].
///
/// The first declared state is the conventional start state; retrieve
/// others with [`Automaton::state_by_name`].
pub fn parse(src: &str) -> Result<Automaton, ParseError> {
    let (aut, _) = parse_named(src)?;
    Ok(aut)
}

/// Like [`parse`], also returning the parser's declared name.
pub fn parse_named(src: &str) -> Result<(Automaton, String), ParseError> {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    loop {
        let t = lexer.next_token()?;
        let eof = t.0 == Tok::Eof;
        toks.push(t);
        if eof {
            break;
        }
    }
    let mut p = Parser { toks, pos: 0 };
    let cst = p.parse_parser()?;
    if p.peek() != &Tok::Eof {
        return Err(p.error_at(format!("trailing input: {}", p.peek())));
    }
    let name = cst.name.clone();
    let aut = resolve(cst)?;
    Ok((aut, name))
}

fn resolve(cst: CstParser) -> Result<Automaton, ParseError> {
    let mut b = Builder::new();
    // Header sizes: explicit declarations first, then inference from
    // extracts (checking consistency).
    let mut sizes: HashMap<String, usize> = HashMap::new();
    for (h, n) in &cst.headers {
        sizes.insert(h.clone(), *n);
    }
    for st in &cst.states {
        for op in &st.ops {
            if let CstOp::Extract(h, n) = op {
                match sizes.get(h) {
                    Some(&m) if m != *n => {
                        return Err(ParseError {
                            line: st.line,
                            col: st.col,
                            message: format!(
                                "header {h} extracted with size {n} but declared/used with {m}"
                            ),
                        });
                    }
                    _ => {
                        sizes.insert(h.clone(), *n);
                    }
                }
            }
        }
    }
    let mut header_ids = HashMap::new();
    let mut names: Vec<&String> = sizes.keys().collect();
    names.sort();
    for h in names {
        header_ids.insert(h.clone(), b.header(h.clone(), sizes[h]));
    }

    // Declare all states up front for forward references.
    for st in &cst.states {
        b.state(st.name.clone());
    }

    let resolve_target =
        |b: &mut Builder, name: &str, st: &CstState| -> Result<Target, ParseError> {
            match name {
                "accept" => Ok(Target::Accept),
                "reject" => Ok(Target::Reject),
                other => {
                    if cst.states.iter().any(|s| s.name == other) {
                        Ok(Target::State(b.state(other.to_string())))
                    } else {
                        Err(ParseError {
                            line: st.line,
                            col: st.col,
                            message: format!("unknown state `{other}`"),
                        })
                    }
                }
            }
        };

    for st in &cst.states {
        let q = b.state(st.name.clone());
        let mut ops = Vec::new();
        for op in &st.ops {
            match op {
                CstOp::Extract(h, _) => ops.push(crate::ast::Op::Extract(header_ids[h])),
                CstOp::Assign(h, e) => {
                    let h = *header_ids.get(h).ok_or_else(|| ParseError {
                        line: st.line,
                        col: st.col,
                        message: format!(
                            "header {h} is assigned but never extracted or declared; \
                             add `header {h} : <width>;`"
                        ),
                    })?;
                    ops.push(crate::ast::Op::Assign(h, resolve_expr(e, &header_ids, st)?));
                }
            }
        }
        let trans = match &st.trans {
            CstTrans::Goto(t) => {
                let t = resolve_target(&mut b, t, st)?;
                Transition::Goto(t)
            }
            CstTrans::Select(cexprs, cases) => {
                let exprs: Vec<Expr> = cexprs
                    .iter()
                    .map(|e| resolve_expr(e, &header_ids, st))
                    .collect::<Result<_, _>>()?;
                let widths: Vec<usize> = cexprs.iter().map(|e| cst_expr_width(e, &sizes)).collect();
                let mut out_cases = Vec::new();
                for (pats, tname) in cases {
                    if pats.len() != exprs.len() {
                        return Err(ParseError {
                            line: st.line,
                            col: st.col,
                            message: format!(
                                "pattern tuple has {} entries for {} scrutinees",
                                pats.len(),
                                exprs.len()
                            ),
                        });
                    }
                    let target = resolve_target(&mut b, tname, st)?;
                    let pats = pats
                        .iter()
                        .zip(&widths)
                        .map(|(p, &w)| match p {
                            CstPat::Wildcard => Ok(Pattern::Wildcard),
                            CstPat::Bits(bv) => Ok(Pattern::Exact(bv.clone())),
                            CstPat::Number(n) => {
                                // Bare numbers take the scrutinee's width.
                                if w > 64 || (w < 64 && *n >= (1u64 << w)) {
                                    return Err(ParseError {
                                        line: st.line,
                                        col: st.col,
                                        message: format!(
                                            "numeric pattern {n} does not fit scrutinee \
                                             width {w}; use a 0b/0x literal"
                                        ),
                                    });
                                }
                                Ok(Pattern::Exact(BitVec::from_u64(*n, w)))
                            }
                        })
                        .collect::<Result<Vec<_>, ParseError>>()?;
                    out_cases.push((pats, target));
                }
                Transition::Select {
                    exprs,
                    cases: out_cases
                        .into_iter()
                        .map(|(pats, target)| crate::ast::Case { pats, target })
                        .collect(),
                }
            }
        };
        b.define(q, ops, trans);
    }
    b.build().map_err(ParseError::from)
}

/// The static width of a CST expression, given header sizes. Unknown
/// headers contribute width 0 here; they are reported properly during
/// expression resolution.
fn cst_expr_width(e: &CstExpr, sizes: &HashMap<String, usize>) -> usize {
    match e {
        CstExpr::Ident(h) => sizes.get(h).copied().unwrap_or(0),
        CstExpr::Bits(bv) => bv.len(),
        CstExpr::Slice(inner, n1, n2) => {
            crate::ast::clamped_slice_width(cst_expr_width(inner, sizes), *n1, *n2)
        }
        CstExpr::Concat(a, b) => cst_expr_width(a, sizes) + cst_expr_width(b, sizes),
    }
}

fn resolve_expr(
    e: &CstExpr,
    headers: &HashMap<String, crate::ast::HeaderId>,
    st: &CstState,
) -> Result<Expr, ParseError> {
    match e {
        CstExpr::Ident(h) => headers
            .get(h)
            .map(|&h| Expr::Hdr(h))
            .ok_or_else(|| ParseError {
                line: st.line,
                col: st.col,
                message: format!("unknown header `{h}`"),
            }),
        CstExpr::Bits(bv) => Ok(Expr::Lit(bv.clone())),
        CstExpr::Slice(inner, n1, n2) => {
            Ok(Expr::slice(resolve_expr(inner, headers, st)?, *n1, *n2))
        }
        CstExpr::Concat(a, b) => Ok(Expr::concat(
            resolve_expr(a, headers, st)?,
            resolve_expr(b, headers, st)?,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::Config;

    const MPLS_REF: &str = r#"
        parser Reference {
          state q1 {
            extract(mpls, 32);
            select(mpls[23:23]) {
              0b0 => q1;
              0b1 => q2;
            }
          }
          state q2 {
            extract(udp, 64);
            goto accept;
          }
        }
    "#;

    #[test]
    fn parses_reference_mpls() {
        let (aut, name) = parse_named(MPLS_REF).unwrap();
        assert_eq!(name, "Reference");
        assert_eq!(aut.num_states(), 2);
        assert_eq!(aut.num_headers(), 2);
        let q1 = aut.state_by_name("q1").unwrap();
        assert_eq!(aut.op_size(q1), 32);
        let mut pkt = BitVec::zeros(96);
        pkt.set(23, true);
        assert!(Config::initial(&aut, q1).accepts(&aut, &pkt));
    }

    #[test]
    fn parses_hex_and_width_literals() {
        let src = r#"
          parser P {
            header vlan : 32;
            state s {
              extract(eth, 16);
              vlan := 32w0;
              select(eth[0:15]) {
                0x86dd => accept;
                16w1 => reject;
                _ => reject;
              }
            }
          }
        "#;
        let aut = parse(src).unwrap();
        let s = aut.state_by_name("s").unwrap();
        match &aut.state(s).trans {
            Transition::Select { cases, .. } => {
                assert_eq!(
                    cases[0].pats[0],
                    Pattern::Exact("1000011011011101".parse().unwrap())
                );
                assert_eq!(cases[1].pats[0], Pattern::Exact(BitVec::from_u64(1, 16)));
            }
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn parses_tuple_patterns_and_multi_scrutinee() {
        let src = r#"
          parser P {
            state s {
              extract(a, 2);
              extract(c, 2);
              select(a, c) {
                (0b00, 0b01) => accept;
                (_, _) => reject;
              }
            }
          }
        "#;
        let aut = parse(src).unwrap();
        let s = aut.state_by_name("s").unwrap();
        let w: BitVec = "0001".parse().unwrap();
        assert!(Config::initial(&aut, s).accepts(&aut, &w));
        let w2: BitVec = "0011".parse().unwrap();
        assert!(!Config::initial(&aut, s).accepts(&aut, &w2));
    }

    #[test]
    fn rejects_unknown_state_and_header() {
        let src = r#"
          parser P { state s { extract(a, 2); goto nowhere; } }
        "#;
        let e = parse(src).unwrap_err();
        assert!(e.message.contains("unknown state"));
        let src2 = r#"
          parser P { state s { extract(a, 2); b := a; goto accept; } }
        "#;
        let e2 = parse(src2).unwrap_err();
        assert!(e2.message.contains("never extracted"));
    }

    #[test]
    fn rejects_inconsistent_extract_sizes() {
        let src = r#"
          parser P {
            state s { extract(a, 2); goto t; }
            state t { extract(a, 4); goto accept; }
          }
        "#;
        let e = parse(src).unwrap_err();
        assert!(e.message.contains("size"));
    }

    #[test]
    fn comments_and_goto_in_cases() {
        let src = r#"
          parser P { // top comment
            state s {
              extract(a, 2); // extract two bits
              select(a) {
                0b00 => goto accept;
                _ => reject;
              }
            }
          }
        "#;
        let aut = parse(src).unwrap();
        let s = aut.state_by_name("s").unwrap();
        assert!(Config::initial(&aut, s).accepts(&aut, &"00".parse().unwrap()));
    }

    #[test]
    fn lexer_position_in_errors() {
        let e = parse("parser P {\n  state s {\n    extract(a 2);\n  }\n}").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn expression_depth_is_bounded() {
        let select = |e: &str| {
            parse(&format!(
                "parser P {{ state s {{ extract(h, 8); select({e}) {{ _ => accept; }} }} }}"
            ))
        };
        let chain = |terms: usize| vec!["h"; terms].join(" ++ ");
        let parens = |n: usize| format!("{}h{}", "(".repeat(n), ")".repeat(n));
        let slices = |n: usize| format!("h{}", "[0:7]".repeat(n));
        // A leaf is one level; each `++`, parenthesis and slice adds one,
        // so `(63-term chain) ++ h` is 65 deep.
        for (n, ok) in [
            (MAX_EXPR_DEPTH, true),
            (MAX_EXPR_DEPTH + 1, false),
            (100_000, false),
        ] {
            assert_eq!(select(&chain(n)).is_ok(), ok, "chain of {n}");
            assert_eq!(select(&parens(n - 1)).is_ok(), ok, "{} parentheses", n - 1);
            assert_eq!(select(&slices(n - 1)).is_ok(), ok, "{} slices", n - 1);
        }
        let e = select(&format!("({}) ++ h", chain(MAX_EXPR_DEPTH - 1))).unwrap_err();
        assert!(e.message.contains("deeper than 64 levels"), "{e}");
    }

    #[test]
    fn underscore_prefixed_identifiers_are_idents() {
        let src = r#"
          parser P {
            state s {
              extract(_tmp, 2);
              goto accept;
            }
          }
        "#;
        let aut = parse(src).unwrap();
        assert!(aut.header_by_name("_tmp").is_some());
    }
}
