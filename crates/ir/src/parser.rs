//! The textual form of the IR (parsing side).
//!
//! Parses exactly the syntax produced by [`crate::print_module`]; the pair
//! round-trips. Both frameworks in the paper "share the same textual
//! representation to share infrastructure without tight coupling of code"
//! (§3) — the textual format is likewise the interchange surface of this
//! stack (frontends can hand IR across crate boundaries as text).

use crate::attributes::{Attribute, ExchangeAttr, FloatAttr};
use crate::op::{Block, Module, Op, Region};
use crate::types::{Bounds, FieldType, FunctionType, MemRefType, TempType, Type};
use crate::value::{Value, ValueTable};
use std::collections::HashMap;
use std::fmt;

/// A parse failure with line/column context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Percent(String),
    Caret(String),
    At(String),
    /// `!name` with no angle-bracket body (e.g. `!llvm.ptr`).
    BangIdent(String),
    /// `head<body>` for `memref`, `dense`, `!stencil.*`, `#dmp.*`.
    Lit {
        head: String,
        body: String,
    },
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Equal,
    Arrow,
    Eof,
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
}

impl Lexer {
    fn new(src: &str) -> Self {
        Lexer { chars: src.chars().collect(), pos: 0, line: 1, col: 1 }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.line, col: self.col, message: message.into() }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
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

    fn ident_tail(&mut self, first: char) -> String {
        let mut s = String::new();
        s.push(first);
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '.' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        s
    }

    /// Captures the raw text of a `<...>` body with balanced angle brackets.
    fn angle_body(&mut self) -> Result<String, ParseError> {
        debug_assert_eq!(self.peek(), Some('<'));
        self.bump();
        let mut depth = 1usize;
        let mut body = String::new();
        loop {
            let Some(c) = self.bump() else {
                return Err(self.err("unterminated '<'"));
            };
            match c {
                '<' => {
                    depth += 1;
                    body.push(c);
                }
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(body);
                    }
                    body.push(c);
                }
                _ => body.push(c),
            }
        }
    }

    fn number(&mut self, negative: bool) -> Result<Tok, ParseError> {
        let mut s = String::new();
        if negative {
            s.push('-');
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        let mut is_float = false;
        if self.peek() == Some('.') && self.peek2().map(|c| c.is_ascii_digit()).unwrap_or(false) {
            is_float = true;
            s.push('.');
            self.bump();
            while let Some(c) = self.peek() {
                if c.is_ascii_digit() {
                    s.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
        }
        if matches!(self.peek(), Some('e') | Some('E')) {
            let next = self.peek2();
            let exp_follows = match next {
                Some(c) if c.is_ascii_digit() => true,
                Some('-') | Some('+') => true,
                _ => false,
            };
            if exp_follows {
                is_float = true;
                s.push('e');
                self.bump();
                if matches!(self.peek(), Some('-') | Some('+')) {
                    s.push(self.bump().unwrap());
                }
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        s.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        if is_float {
            s.parse::<f64>().map(Tok::Float).map_err(|e| self.err(format!("bad float: {e}")))
        } else {
            s.parse::<i64>().map(Tok::Int).map_err(|e| self.err(format!("bad integer: {e}")))
        }
    }

    fn string(&mut self) -> Result<Tok, ParseError> {
        let mut s = String::new();
        loop {
            let Some(c) = self.bump() else {
                return Err(self.err("unterminated string"));
            };
            match c {
                '"' => return Ok(Tok::Str(s)),
                '\\' => match self.bump() {
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    other => return Err(self.err(format!("bad escape: {other:?}"))),
                },
                other => s.push(other),
            }
        }
    }

    fn lex(mut self) -> Result<Vec<Spanned>, ParseError> {
        let mut toks = Vec::new();
        loop {
            // Skip whitespace and `//` comments.
            loop {
                match self.peek() {
                    Some(c) if c.is_whitespace() => {
                        self.bump();
                    }
                    Some('/') if self.peek2() == Some('/') => {
                        while let Some(c) = self.peek() {
                            if c == '\n' {
                                break;
                            }
                            self.bump();
                        }
                    }
                    _ => break,
                }
            }
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else {
                toks.push(Spanned { tok: Tok::Eof, line, col });
                return Ok(toks);
            };
            let tok = match c {
                '(' => {
                    self.bump();
                    Tok::LParen
                }
                ')' => {
                    self.bump();
                    Tok::RParen
                }
                '{' => {
                    self.bump();
                    Tok::LBrace
                }
                '}' => {
                    self.bump();
                    Tok::RBrace
                }
                '[' => {
                    self.bump();
                    Tok::LBracket
                }
                ']' => {
                    self.bump();
                    Tok::RBracket
                }
                ',' => {
                    self.bump();
                    Tok::Comma
                }
                ':' => {
                    self.bump();
                    Tok::Colon
                }
                '=' => {
                    self.bump();
                    Tok::Equal
                }
                '"' => {
                    self.bump();
                    self.string()?
                }
                '%' => {
                    self.bump();
                    let name = self.ident_tail_allow_digits()?;
                    Tok::Percent(name)
                }
                '^' => {
                    self.bump();
                    let name = self.ident_tail_allow_digits()?;
                    Tok::Caret(name)
                }
                '@' => {
                    self.bump();
                    let name = self.ident_tail_allow_digits()?;
                    Tok::At(name)
                }
                '!' => {
                    self.bump();
                    let Some(first) = self.bump() else {
                        return Err(self.err("dangling '!'"));
                    };
                    let name = self.ident_tail(first);
                    if self.peek() == Some('<') {
                        let body = self.angle_body()?;
                        Tok::Lit { head: name, body }
                    } else {
                        Tok::BangIdent(name)
                    }
                }
                '#' => {
                    self.bump();
                    let Some(first) = self.bump() else {
                        return Err(self.err("dangling '#'"));
                    };
                    let name = self.ident_tail(first);
                    if self.peek() == Some('<') {
                        let body = self.angle_body()?;
                        Tok::Lit { head: name, body }
                    } else {
                        return Err(self.err("expected '<' after attribute literal head"));
                    }
                }
                '-' => {
                    self.bump();
                    if self.peek() == Some('>') {
                        self.bump();
                        Tok::Arrow
                    } else if self.peek().map(|c| c.is_ascii_digit()).unwrap_or(false) {
                        self.number(true)?
                    } else {
                        return Err(self.err("unexpected '-'"));
                    }
                }
                d if d.is_ascii_digit() => self.number(false)?,
                a if a.is_alphabetic() || a == '_' => {
                    self.bump();
                    let name = self.ident_tail(a);
                    // `memref<...>` and `dense<...>` carry raw bodies.
                    if self.peek() == Some('<') && (name == "memref" || name == "dense") {
                        let body = self.angle_body()?;
                        Tok::Lit { head: name, body }
                    } else {
                        Tok::Ident(name)
                    }
                }
                other => return Err(self.err(format!("unexpected character {other:?}"))),
            };
            toks.push(Spanned { tok, line, col });
        }
    }

    fn ident_tail_allow_digits(&mut self) -> Result<String, ParseError> {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '.' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if s.is_empty() {
            return Err(self.err("expected identifier"));
        }
        Ok(s)
    }
}

// ---------------------------------------------------------------------------
// Raw-body helpers for shaped type/attr literals.
// ---------------------------------------------------------------------------

fn parse_int_str(s: &str) -> Result<i64, String> {
    s.trim().parse::<i64>().map_err(|e| format!("bad integer '{s}': {e}"))
}

/// Parses "[a,b]" into a bounds pair.
fn parse_bounds_pair(s: &str) -> Result<(i64, i64), String> {
    let inner = s
        .trim()
        .strip_prefix('[')
        .and_then(|x| x.strip_suffix(']'))
        .ok_or_else(|| format!("expected [lb,ub], got '{s}'"))?;
    let mut parts = inner.splitn(2, ',');
    let lb = parse_int_str(parts.next().unwrap_or(""))?;
    let ub = parse_int_str(parts.next().ok_or("missing upper bound")?)?;
    Ok((lb, ub))
}

/// Splits a shaped body like `108x108xf32` / `[0,64]x[0,64]xf64` / `?x4xf64`
/// into dimension strings and the trailing element-type string.
fn split_shaped(body: &str) -> Result<(Vec<String>, String), String> {
    let mut dims = Vec::new();
    let mut rest = body;
    loop {
        let first = rest.chars().next().ok_or("empty shaped body")?;
        if first == '[' {
            let close = rest.find(']').ok_or("unterminated '[' in shape")?;
            dims.push(rest[..=close].to_string());
            rest = &rest[close + 1..];
        } else if first == '?' {
            dims.push("?".to_string());
            rest = &rest[1..];
        } else if first.is_ascii_digit() || first == '-' {
            let end = rest
                .char_indices()
                .skip(1)
                .find(|(_, c)| !c.is_ascii_digit())
                .map(|(i, _)| i)
                .unwrap_or(rest.len());
            dims.push(rest[..end].to_string());
            rest = &rest[end..];
        } else {
            // The element type.
            return Ok((dims, rest.to_string()));
        }
        rest = rest.strip_prefix('x').ok_or("expected 'x' between shape dimensions")?;
    }
}

/// Parses a type from a raw string (used inside shaped literals where the
/// element type is itself simple).
fn parse_type_str(s: &str) -> Result<Type, String> {
    match s.trim() {
        "i1" => Ok(Type::I1),
        "i32" => Ok(Type::I32),
        "i64" => Ok(Type::I64),
        "index" => Ok(Type::Index),
        "f32" => Ok(Type::F32),
        "f64" => Ok(Type::F64),
        "none" => Ok(Type::None),
        other => Err(format!("unsupported element type '{other}'")),
    }
}

fn parse_memref_body(body: &str) -> Result<Type, String> {
    let (dims, elem) = split_shaped(body)?;
    let mut shape = Vec::with_capacity(dims.len());
    for d in dims {
        if d == "?" {
            shape.push(-1);
        } else {
            shape.push(parse_int_str(&d)?);
        }
    }
    Ok(Type::MemRef(MemRefType::new(shape, parse_type_str(&elem)?)))
}

fn parse_stencil_body(head: &str, body: &str) -> Result<Type, String> {
    match head {
        "stencil.result" => Ok(Type::StencilResult(Box::new(parse_type_str(body)?))),
        "stencil.field" | "stencil.temp" => {
            let (dims, elem) = split_shaped(body)?;
            let elem_ty = parse_type_str(&elem)?;
            let unknown = dims.iter().any(|d| d == "?");
            if unknown {
                if head == "stencil.field" {
                    return Err("stencil.field bounds must be static".into());
                }
                return Ok(Type::Temp(TempType::unknown(dims.len(), elem_ty)));
            }
            let mut pairs = Vec::with_capacity(dims.len());
            for d in &dims {
                pairs.push(parse_bounds_pair(d)?);
            }
            let bounds = Bounds::new(pairs);
            if head == "stencil.field" {
                Ok(Type::Field(FieldType::new(bounds, elem_ty)))
            } else {
                Ok(Type::Temp(TempType::known(bounds, elem_ty)))
            }
        }
        other => Err(format!("unknown type literal '!{other}'")),
    }
}

/// Parses a `[a, b, c]` integer list from a raw string slice, returning the
/// list and the remainder.
fn take_int_list(s: &str) -> Result<(Vec<i64>, &str), String> {
    let s = s.trim_start();
    let rest = s.strip_prefix('[').ok_or_else(|| format!("expected '[' in '{s}'"))?;
    let close = rest.find(']').ok_or("unterminated '['")?;
    let inner = &rest[..close];
    let mut out = Vec::new();
    if !inner.trim().is_empty() {
        for part in inner.split(',') {
            out.push(parse_int_str(part)?);
        }
    }
    Ok((out, &rest[close + 1..]))
}

fn parse_exchange_body(body: &str) -> Result<ExchangeAttr, String> {
    let rest = body.trim_start();
    let rest = rest.strip_prefix("at").ok_or("exchange: expected 'at'")?;
    let (at, rest) = take_int_list(rest)?;
    let rest = rest.trim_start().strip_prefix("size").ok_or("exchange: expected 'size'")?;
    let (size, rest) = take_int_list(rest)?;
    let rest = rest
        .trim_start()
        .strip_prefix("source offset")
        .ok_or("exchange: expected 'source offset'")?;
    let (source_offset, rest) = take_int_list(rest)?;
    let rest = rest.trim_start().strip_prefix("to").ok_or("exchange: expected 'to'")?;
    let (to, rest) = take_int_list(rest)?;
    if !rest.trim().is_empty() {
        return Err(format!("exchange: trailing input '{rest}'"));
    }
    if at.len() != size.len()
        || size.len() != source_offset.len()
        || source_offset.len() != to.len()
    {
        return Err("exchange: component ranks differ".into());
    }
    Ok(ExchangeAttr::new(at, size, source_offset, to))
}

fn parse_grid_body(body: &str) -> Result<Vec<i64>, String> {
    body.split('x').map(parse_int_str).collect()
}

fn parse_dense_body(body: &str) -> Result<Vec<i64>, String> {
    let (list, rest) = take_int_list(body)?;
    if !rest.trim().is_empty() {
        return Err("dense: trailing input".into());
    }
    Ok(list)
}

// ---------------------------------------------------------------------------
// The token-stream parser.
// ---------------------------------------------------------------------------

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    values: ValueTable,
    names: HashMap<String, Value>,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn err_here(&self, message: impl Into<String>) -> ParseError {
        let s = &self.toks[self.pos.min(self.toks.len() - 1)];
        ParseError { line: s.line, col: s.col, message: message.into() }
    }

    fn lift<T>(&self, r: Result<T, String>) -> Result<T, ParseError> {
        r.map_err(|m| self.err_here(m))
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.err_here(format!("expected {tok:?}, found {:?}", self.peek())))
        }
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        match self.bump() {
            Tok::Ident(name) => self.lift(parse_type_str(&name)),
            Tok::BangIdent(name) => match name.as_str() {
                "llvm.ptr" => Ok(Type::LlvmPtr),
                "mpi.request" => Ok(Type::MpiRequest),
                "mpi.requests" => Ok(Type::MpiRequests),
                "mpi.datatype" => Ok(Type::MpiDatatype),
                "mpi.comm" => Ok(Type::MpiComm),
                "mpi.status" => Ok(Type::MpiStatus),
                other => Err(self.err_here(format!("unknown type '!{other}'"))),
            },
            Tok::Lit { head, body } => {
                if head == "memref" {
                    self.lift(parse_memref_body(&body))
                } else {
                    self.lift(parse_stencil_body(&head, &body))
                }
            }
            Tok::LParen => {
                // Function type: (tys) -> (tys) | ty
                let inputs = self.parse_type_list_until_rparen()?;
                self.expect(Tok::Arrow)?;
                let results = if *self.peek() == Tok::LParen {
                    self.bump();
                    self.parse_type_list_until_rparen()?
                } else {
                    vec![self.parse_type()?]
                };
                Ok(Type::Function(Box::new(FunctionType::new(inputs, results))))
            }
            other => Err(self.err_here(format!("expected type, found {other:?}"))),
        }
    }

    fn parse_type_list_until_rparen(&mut self) -> Result<Vec<Type>, ParseError> {
        let mut tys = Vec::new();
        if *self.peek() == Tok::RParen {
            self.bump();
            return Ok(tys);
        }
        loop {
            tys.push(self.parse_type()?);
            match self.bump() {
                Tok::Comma => continue,
                Tok::RParen => return Ok(tys),
                other => return Err(self.err_here(format!("expected ',' or ')', found {other:?}"))),
            }
        }
    }

    fn parse_attr(&mut self) -> Result<Attribute, ParseError> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                if *self.peek() == Tok::Colon {
                    self.bump();
                    let ty = self.parse_type()?;
                    Ok(Attribute::Int(v, ty))
                } else {
                    Ok(Attribute::Int(v, Type::I64))
                }
            }
            Tok::Float(v) => {
                self.bump();
                self.expect(Tok::Colon)?;
                let ty = self.parse_type()?;
                Ok(Attribute::Float(FloatAttr::new(v, ty)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Attribute::Str(s))
            }
            Tok::At(s) => {
                self.bump();
                Ok(Attribute::SymbolRef(s))
            }
            Tok::Ident(name) => match name.as_str() {
                "true" => {
                    self.bump();
                    Ok(Attribute::Bool(true))
                }
                "false" => {
                    self.bump();
                    Ok(Attribute::Bool(false))
                }
                "unit" => {
                    self.bump();
                    Ok(Attribute::Unit)
                }
                _ => {
                    let ty = self.parse_type()?;
                    Ok(Attribute::Type(ty))
                }
            },
            Tok::LBracket => {
                self.bump();
                let mut items = Vec::new();
                if *self.peek() == Tok::RBracket {
                    self.bump();
                    return Ok(Attribute::Array(items));
                }
                loop {
                    items.push(self.parse_attr()?);
                    match self.bump() {
                        Tok::Comma => continue,
                        Tok::RBracket => return Ok(Attribute::Array(items)),
                        other => {
                            return Err(
                                self.err_here(format!("expected ',' or ']', found {other:?}"))
                            )
                        }
                    }
                }
            }
            Tok::Lit { head, body } => {
                self.bump();
                match head.as_str() {
                    "dense" => Ok(Attribute::DenseI64(self.lift(parse_dense_body(&body))?)),
                    "dmp.grid" => Ok(Attribute::Grid(self.lift(parse_grid_body(&body))?)),
                    "dmp.exchange" => {
                        Ok(Attribute::Exchange(self.lift(parse_exchange_body(&body))?))
                    }
                    "memref" => Ok(Attribute::Type(self.lift(parse_memref_body(&body))?)),
                    other => {
                        let ty = self.lift(parse_stencil_body(other, &body))?;
                        Ok(Attribute::Type(ty))
                    }
                }
            }
            Tok::BangIdent(_) | Tok::LParen => {
                let ty = self.parse_type()?;
                Ok(Attribute::Type(ty))
            }
            other => Err(self.err_here(format!("expected attribute, found {other:?}"))),
        }
    }

    fn define(&mut self, name: String, ty: Type) -> Result<Value, ParseError> {
        if self.names.contains_key(&name) {
            return Err(self.err_here(format!("value %{name} redefined")));
        }
        let v = self.values.alloc(ty);
        self.names.insert(name, v);
        Ok(v)
    }

    fn use_value(&mut self, name: &str) -> Result<Value, ParseError> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| self.err_here(format!("use of undefined value %{name}")))
    }

    fn parse_region(&mut self) -> Result<Region, ParseError> {
        self.expect(Tok::LBrace)?;
        let mut blocks = Vec::new();
        // Anonymous single block (no header) or `^bbN(...)`-headed blocks.
        if matches!(self.peek(), Tok::Caret(_)) {
            while let Tok::Caret(_) = self.peek() {
                self.bump();
                let mut args = Vec::new();
                if *self.peek() == Tok::LParen {
                    self.bump();
                    if *self.peek() == Tok::RParen {
                        self.bump();
                    } else {
                        loop {
                            let Tok::Percent(name) = self.bump() else {
                                return Err(self.err_here("expected block argument"));
                            };
                            self.expect(Tok::Colon)?;
                            let ty = self.parse_type()?;
                            args.push(self.define(name, ty)?);
                            match self.bump() {
                                Tok::Comma => continue,
                                Tok::RParen => break,
                                other => {
                                    return Err(self
                                        .err_here(format!("expected ',' or ')', found {other:?}")))
                                }
                            }
                        }
                    }
                }
                self.expect(Tok::Colon)?;
                let mut block = Block::with_args(args);
                while !matches!(self.peek(), Tok::RBrace | Tok::Caret(_)) {
                    block.ops.push(self.parse_op()?);
                }
                blocks.push(block);
            }
        } else {
            let mut block = Block::new();
            while *self.peek() != Tok::RBrace {
                block.ops.push(self.parse_op()?);
            }
            blocks.push(block);
        }
        self.expect(Tok::RBrace)?;
        Ok(Region { blocks })
    }

    fn parse_op(&mut self) -> Result<Op, ParseError> {
        // Optional results.
        let mut result_names = Vec::new();
        if let Tok::Percent(_) = self.peek() {
            loop {
                if !matches!(self.peek(), Tok::Percent(_)) {
                    let found = format!("expected a result name, found {:?}", self.peek());
                    return Err(self.err_here(found));
                }
                let Tok::Percent(name) = self.bump() else { unreachable!("just peeked") };
                result_names.push(name);
                match self.peek() {
                    Tok::Comma => {
                        self.bump();
                    }
                    Tok::Equal => {
                        self.bump();
                        break;
                    }
                    other => {
                        return Err(self.err_here(format!("expected ',' or '=', found {other:?}")))
                    }
                }
            }
        }
        let Tok::Str(name) = self.bump() else {
            return Err(self.err_here("expected quoted op name"));
        };
        let mut op = Op::new(name);
        // Operands.
        self.expect(Tok::LParen)?;
        if *self.peek() == Tok::RParen {
            self.bump();
        } else {
            loop {
                let Tok::Percent(oname) = self.bump() else {
                    return Err(self.err_here("expected operand"));
                };
                let v = self.use_value(&oname)?;
                op.operands.push(v);
                match self.bump() {
                    Tok::Comma => continue,
                    Tok::RParen => break,
                    other => {
                        return Err(self.err_here(format!("expected ',' or ')', found {other:?}")))
                    }
                }
            }
        }
        // Optional attribute dictionary.
        if *self.peek() == Tok::LBrace {
            self.bump();
            if *self.peek() == Tok::RBrace {
                self.bump();
            } else {
                loop {
                    let key = match self.bump() {
                        Tok::Ident(k) => k,
                        Tok::Str(k) => k,
                        other => {
                            return Err(
                                self.err_here(format!("expected attribute key, found {other:?}"))
                            )
                        }
                    };
                    self.expect(Tok::Equal)?;
                    let value = self.parse_attr()?;
                    op.attrs.insert(key, value);
                    match self.bump() {
                        Tok::Comma => continue,
                        Tok::RBrace => break,
                        other => {
                            return Err(
                                self.err_here(format!("expected ',' or '}}', found {other:?}"))
                            )
                        }
                    }
                }
            }
        }
        // Optional region list.
        if *self.peek() == Tok::LParen {
            self.bump();
            loop {
                op.regions.push(self.parse_region()?);
                match self.bump() {
                    Tok::Comma => continue,
                    Tok::RParen => break,
                    other => {
                        return Err(self.err_here(format!("expected ',' or ')', found {other:?}")))
                    }
                }
            }
        }
        // Signature.
        self.expect(Tok::Colon)?;
        self.expect(Tok::LParen)?;
        let in_tys = self.parse_type_list_until_rparen()?;
        self.expect(Tok::Arrow)?;
        self.expect(Tok::LParen)?;
        let out_tys = self.parse_type_list_until_rparen()?;
        if in_tys.len() != op.operands.len() {
            return Err(self.err_here(format!(
                "op '{}' has {} operands but signature lists {} input types",
                op.name,
                op.operands.len(),
                in_tys.len()
            )));
        }
        for (i, (&operand, ty)) in op.operands.iter().zip(&in_tys).enumerate() {
            if self.values.ty(operand) != ty {
                return Err(self.err_here(format!(
                    "operand {i} of '{}' has type {:?} but signature says {ty:?}",
                    op.name,
                    self.values.ty(operand)
                )));
            }
        }
        if out_tys.len() != result_names.len() {
            return Err(self.err_here(format!(
                "op '{}' defines {} results but signature lists {} result types",
                op.name,
                result_names.len(),
                out_tys.len()
            )));
        }
        for (rname, ty) in result_names.into_iter().zip(out_tys) {
            let v = self.define(rname, ty)?;
            op.results.push(v);
        }
        Ok(op)
    }
}

/// Parses a module from its textual form.
///
/// # Errors
/// Returns a [`ParseError`] with line/column information on malformed input,
/// undefined or redefined values, and signature/type mismatches.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let toks = Lexer::new(text).lex()?;
    let mut p = Parser { toks, pos: 0, values: ValueTable::new(), names: HashMap::new() };
    let op = p.parse_op()?;
    if op.name != "builtin.module" {
        return Err(p.err_here(format!("expected builtin.module at top level, found {}", op.name)));
    }
    if *p.peek() != Tok::Eof {
        return Err(p.err_here("trailing input after module"));
    }
    Ok(Module { values: p.values, op })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::{print_module, type_to_string};

    fn round_trip(text: &str) {
        let m = parse_module(text).expect("first parse");
        let printed = print_module(&m);
        let m2 = parse_module(&printed).expect("reparse");
        assert_eq!(print_module(&m2), printed, "printer/parser must round-trip");
    }

    #[test]
    fn parses_empty_module() {
        round_trip("\"builtin.module\"() ({\n}) : () -> ()\n");
    }

    #[test]
    fn parses_constant_and_add() {
        round_trip(
            r#""builtin.module"() ({
  %0 = "arith.constant"() {value = 42 : i32} : () -> (i32)
  %1 = "arith.addi"(%0, %0) : (i32, i32) -> (i32)
}) : () -> ()
"#,
        );
    }

    #[test]
    fn parses_block_args_and_regions() {
        round_trip(
            r#""builtin.module"() ({
  %0 = "arith.constant"() {value = 0 : index} : () -> (index)
  "scf.for"(%0, %0, %0) ({
  ^bb0(%1: index):
    "scf.yield"() : () -> ()
  }) : (index, index, index) -> ()
}) : () -> ()
"#,
        );
    }

    #[test]
    fn parses_shaped_types() {
        round_trip(
            r#""builtin.module"() ({
  %0 = "memref.alloc"() : () -> (memref<108x108xf32>)
  %1 = "stencil.external_load"(%0) : (memref<108x108xf32>) -> (!stencil.field<[-4,104]x[-4,104]xf32>)
  %2 = "stencil.load"(%1) : (!stencil.field<[-4,104]x[-4,104]xf32>) -> (!stencil.temp<?x?xf32>)
}) : () -> ()
"#,
        );
    }

    #[test]
    fn parses_dmp_attributes_from_paper_listing2() {
        let text = r#""builtin.module"() ({
  %0 = "memref.alloc"() : () -> (memref<108x108xf32>)
  "dmp.swap"(%0) {grid = #dmp.grid<2x2>, swaps = [#dmp.exchange<at [4, 0] size [100, 4] source offset [0, 4] to [0, -1]>, #dmp.exchange<at [4, 104] size [100, 4] source offset [0, -4] to [0, 1]>]} : (memref<108x108xf32>) -> ()
}) : () -> ()
"#;
        let m = parse_module(text).unwrap();
        let swap = &m.body().ops[1];
        assert_eq!(swap.attr("grid").unwrap().as_grid(), Some(&[2i64, 2][..]));
        let swaps = swap.attr("swaps").unwrap().as_array().unwrap();
        assert_eq!(swaps.len(), 2);
        let ex = swaps[0].as_exchange().unwrap();
        assert_eq!(ex.at, vec![4, 0]);
        assert_eq!(ex.size, vec![100, 4]);
        assert_eq!(ex.source_offset, vec![0, 4]);
        assert_eq!(ex.to, vec![0, -1]);
        round_trip(text);
    }

    #[test]
    fn parses_floats_and_symbols() {
        round_trip(
            r#""builtin.module"() ({
  %0 = "arith.constant"() {value = 0.5 : f64} : () -> (f64)
  %1 = "arith.constant"() {value = 1e-10 : f64} : () -> (f64)
  "func.call"(%0, %1) {callee = @MPI_Send} : (f64, f64) -> ()
}) : () -> ()
"#,
        );
    }

    #[test]
    fn parses_function_type_attr() {
        round_trip(
            r#""builtin.module"() ({
  "func.func"() {function_type = (i32, f64) -> (f64), sym_name = "f"} ({
  ^bb0(%0: i32, %1: f64):
    "func.return"(%1) : (f64) -> ()
  }) : () -> ()
}) : () -> ()
"#,
        );
    }

    #[test]
    fn rejects_use_before_def() {
        let text = r#""builtin.module"() ({
  %1 = "arith.addi"(%0, %0) : (i32, i32) -> (i32)
}) : () -> ()
"#;
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("undefined value"), "{err}");
    }

    #[test]
    fn rejects_malformed_result_list() {
        let text = r#""builtin.module"() ({
  %2 , = "arith.constant"() {value = 1 : i32} : () -> (i32)
}) : () -> ()
"#;
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("expected a result name, found Equal"), "{err}");
        assert_eq!((err.line, err.col), (2, 8), "{err}");
    }

    #[test]
    fn rejects_redefinition() {
        let text = r#""builtin.module"() ({
  %0 = "arith.constant"() {value = 1 : i32} : () -> (i32)
  %0 = "arith.constant"() {value = 2 : i32} : () -> (i32)
}) : () -> ()
"#;
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("redefined"), "{err}");
    }

    #[test]
    fn rejects_signature_mismatch() {
        let text = r#""builtin.module"() ({
  %0 = "arith.constant"() {value = 1 : i32} : () -> (i32)
  %1 = "arith.addi"(%0, %0) : (i32) -> (i32)
}) : () -> ()
"#;
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("operands"), "{err}");
    }

    #[test]
    fn rejects_operand_type_mismatch() {
        let text = r#""builtin.module"() ({
  %0 = "arith.constant"() {value = 1 : i32} : () -> (i32)
  %1 = "arith.addi"(%0, %0) : (i64, i64) -> (i64)
}) : () -> ()
"#;
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("type"), "{err}");
    }

    #[test]
    fn error_carries_location() {
        let err = parse_module("\"builtin.module\"() ({\n  $bad\n}) : () -> ()\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.col >= 3);
    }

    #[test]
    fn split_shaped_handles_index_element() {
        let (dims, elem) = split_shaped("4xindex").unwrap();
        assert_eq!(dims, vec!["4"]);
        assert_eq!(elem, "index");
        let (dims, elem) = split_shaped("108x108xf32").unwrap();
        assert_eq!(dims, vec!["108", "108"]);
        assert_eq!(elem, "f32");
        let (dims, elem) = split_shaped("?x4xf64").unwrap();
        assert_eq!(dims, vec!["?", "4"]);
        assert_eq!(elem, "f64");
        let (dims, elem) = split_shaped("[-4,68]x[0,64]xf64").unwrap();
        assert_eq!(dims, vec!["[-4,68]", "[0,64]"]);
        assert_eq!(elem, "f64");
    }

    #[test]
    fn type_strings_round_trip_through_tokens() {
        for ty in [
            Type::I1,
            Type::Index,
            Type::F32,
            Type::MemRef(MemRefType::new(vec![64, 2], Type::F64)),
            Type::Field(FieldType::new(Bounds::new(vec![(0, 128)]), Type::F64)),
            Type::Temp(TempType::unknown(2, Type::F32)),
            Type::Temp(TempType::known(Bounds::new(vec![(1, 127)]), Type::F64)),
            Type::StencilResult(Box::new(Type::F64)),
            Type::LlvmPtr,
            Type::MpiRequest,
            Type::MpiDatatype,
        ] {
            let text = type_to_string(&ty);
            let toks = Lexer::new(&text).lex().unwrap();
            let mut p = Parser { toks, pos: 0, values: ValueTable::new(), names: HashMap::new() };
            let parsed = p.parse_type().unwrap();
            assert_eq!(parsed, ty, "type {text} failed to round-trip");
        }
    }
}
