//! The checker's own JSON parser and certificate decoder.
//!
//! The trust root must not share its input parsing with the engine, so
//! this module re-implements the small JSON subset the certificate
//! archive format uses (the engine's `leapfrog::json` writes it): objects,
//! arrays, strings with escapes, integers, booleans. The decoder also
//! *validates* the certificate against the automaton — state, header, and
//! packet-variable indices in range, template buffer lengths below the
//! state's operation size, slice bounds inside their operand, equality
//! widths matching — so that everything downstream can assume a
//! well-formed certificate.

use leapfrog_bitvec::BitVec;
use leapfrog_p4a::ast::{Automaton, HeaderId, StateId, Target};

use crate::rel::{BitExpr, ConfRel, ExprCtx, Pure, Side, Template, TemplatePair, VarId};
use crate::Certificate;

/// Total packet-variable bits allowed per relation — a hostile certificate
/// must not be able to force the checker to allocate unbounded solver
/// variables.
const MAX_VAR_BITS: usize = 1 << 16;

/// A JSON document tree (only what the certificate format needs).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(Vec<(String, Value)>),
}

/// Parses a JSON document, rejecting trailing characters.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing characters after JSON document".into());
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(format!("expected literal '{text}'"))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number '{text}'"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.skip_ws();
        if self.peek()? != b'"' {
            return Err("expected string".into());
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let c = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                c if c < 0x80 => out.push(c as char),
                c => {
                    let start = self.pos - 1;
                    let width = match c {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + width)
                        .ok_or_else(|| "truncated UTF-8 sequence".to_string())?;
                    out.push_str(
                        std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8 in string")?,
                    );
                    self.pos = start + width;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err("expected ',' or ']' in array".into()),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            let key = self.string()?;
            if self.peek()? != b':' {
                return Err("expected ':' after object key".into());
            }
            self.pos += 1;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err("expected ',' or '}' in object".into()),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding + validation

fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    match v {
        Value::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field '{key}'")),
        _ => Err(format!("expected object with field '{key}'")),
    }
}

fn as_bool(v: &Value) -> Result<bool, String> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err("expected a boolean".into()),
    }
}

fn as_usize(v: &Value) -> Result<usize, String> {
    match v {
        Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 9e15 => Ok(*n as usize),
        _ => Err("expected an unsigned integer".into()),
    }
}

fn as_str(v: &Value) -> Result<&str, String> {
    match v {
        Value::Str(s) => Ok(s),
        _ => Err("expected a string".into()),
    }
}

fn as_arr(v: &Value) -> Result<&[Value], String> {
    match v {
        Value::Arr(items) => Ok(items),
        _ => Err("expected an array".into()),
    }
}

fn untag(v: &Value) -> Result<(&str, &Value), String> {
    match v {
        Value::Obj(fields) if fields.len() == 1 => Ok((&fields[0].0, &fields[0].1)),
        _ => Err("expected a single-field tagged object".into()),
    }
}

fn bitvec_from(v: &Value) -> Result<BitVec, String> {
    let s = as_str(v)?;
    s.parse()
        .map_err(|e| format!("invalid bitvector literal: {e:?}"))
}

fn target_from(v: &Value, aut: &Automaton) -> Result<Target, String> {
    match v {
        Value::Str(s) if s == "Accept" => Ok(Target::Accept),
        Value::Str(s) if s == "Reject" => Ok(Target::Reject),
        _ => {
            let (t, payload) = untag(v)?;
            if t == "State" {
                let q = as_usize(payload)?;
                if q >= aut.num_states() {
                    return Err(format!("state id {q} out of range"));
                }
                Ok(Target::State(StateId(q as u32)))
            } else {
                Err(format!("unknown target tag '{t}'"))
            }
        }
    }
}

fn template_from(v: &Value, aut: &Automaton) -> Result<Template, String> {
    let target = target_from(get(v, "target")?, aut)?;
    let buf_len = as_usize(get(v, "buf_len")?)?;
    match target {
        Target::State(q) => {
            if buf_len >= aut.op_size(q) {
                return Err(format!(
                    "template buffer length {buf_len} not below ‖op({})‖ = {}",
                    aut.state_name(q),
                    aut.op_size(q)
                ));
            }
        }
        Target::Accept | Target::Reject => {
            if buf_len != 0 {
                return Err("accept/reject template with nonzero buffer".into());
            }
        }
    }
    Ok(Template { target, buf_len })
}

fn side_from(v: &Value) -> Result<Side, String> {
    match as_str(v)? {
        "Left" => Ok(Side::Left),
        "Right" => Ok(Side::Right),
        other => Err(format!("unknown side '{other}'")),
    }
}

fn expr_from(v: &Value, aut: &Automaton) -> Result<BitExpr, String> {
    let (t, payload) = untag(v)?;
    match t {
        "Lit" => Ok(BitExpr::Lit(bitvec_from(payload)?)),
        "Buf" => Ok(BitExpr::Buf(side_from(payload)?)),
        "Hdr" => {
            let items = as_arr(payload)?;
            if items.len() != 2 {
                return Err("Hdr expects [side, header]".into());
            }
            let h = as_usize(&items[1])?;
            if h >= aut.num_headers() {
                return Err(format!("header id {h} out of range"));
            }
            Ok(BitExpr::Hdr(side_from(&items[0])?, HeaderId(h as u32)))
        }
        "Var" => {
            let v = as_usize(payload)?;
            let v = u32::try_from(v).map_err(|_| format!("packet variable x{v} out of range"))?;
            Ok(BitExpr::Var(VarId(v)))
        }
        "Slice" => {
            let items = as_arr(payload)?;
            if items.len() != 3 {
                return Err("Slice expects [expr, start, len]".into());
            }
            Ok(BitExpr::Slice(
                Box::new(expr_from(&items[0], aut)?),
                as_usize(&items[1])?,
                as_usize(&items[2])?,
            ))
        }
        "Concat" => {
            let items = as_arr(payload)?;
            if items.len() != 2 {
                return Err("Concat expects [a, b]".into());
            }
            Ok(BitExpr::Concat(
                Box::new(expr_from(&items[0], aut)?),
                Box::new(expr_from(&items[1], aut)?),
            ))
        }
        other => Err(format!("unknown expression tag '{other}'")),
    }
}

fn pure_from(v: &Value, aut: &Automaton) -> Result<Pure, String> {
    let (t, payload) = untag(v)?;
    let pair = |payload: &Value| -> Result<(Pure, Pure), String> {
        let items = as_arr(payload)?;
        if items.len() != 2 {
            return Err("binary connective expects [a, b]".into());
        }
        Ok((pure_from(&items[0], aut)?, pure_from(&items[1], aut)?))
    };
    match t {
        "Const" => Ok(Pure::Const(as_bool(payload)?)),
        "Eq" => {
            let items = as_arr(payload)?;
            if items.len() != 2 {
                return Err("Eq expects [a, b]".into());
            }
            Ok(Pure::Eq(
                expr_from(&items[0], aut)?,
                expr_from(&items[1], aut)?,
            ))
        }
        "Not" => Ok(Pure::Not(Box::new(pure_from(payload, aut)?))),
        "And" => pair(payload).map(|(a, b)| Pure::And(Box::new(a), Box::new(b))),
        "Or" => pair(payload).map(|(a, b)| Pure::Or(Box::new(a), Box::new(b))),
        "Implies" => pair(payload).map(|(a, b)| Pure::Implies(Box::new(a), Box::new(b))),
        other => Err(format!("unknown formula tag '{other}'")),
    }
}

/// Checks an expression's well-formedness in its relation context and
/// returns its width: variable indices in range, slice bounds inside the
/// operand.
fn expr_width(e: &BitExpr, ctx: &ExprCtx<'_>, nvars: usize) -> Result<usize, String> {
    match e {
        BitExpr::Lit(bv) => Ok(bv.len()),
        BitExpr::Buf(s) => Ok(ctx.buf_len(*s)),
        BitExpr::Hdr(_, h) => Ok(ctx.aut.header_size(*h)),
        BitExpr::Var(v) => {
            if (v.0 as usize) >= nvars {
                return Err(format!("packet variable x{} out of range", v.0));
            }
            Ok(ctx.var_widths[v.0 as usize])
        }
        BitExpr::Slice(inner, start, len) => {
            let w = expr_width(inner, ctx, nvars)?;
            if start + len > w {
                return Err(format!("slice [{start};{len}] out of bounds for width {w}"));
            }
            Ok(*len)
        }
        BitExpr::Concat(a, b) => Ok(expr_width(a, ctx, nvars)? + expr_width(b, ctx, nvars)?),
    }
}

fn check_pure(p: &Pure, ctx: &ExprCtx<'_>, nvars: usize) -> Result<(), String> {
    match p {
        Pure::Const(_) => Ok(()),
        Pure::Eq(a, b) => {
            let wa = expr_width(a, ctx, nvars)?;
            let wb = expr_width(b, ctx, nvars)?;
            if wa != wb {
                return Err(format!("equality of mismatched widths {wa} and {wb}"));
            }
            Ok(())
        }
        Pure::Not(q) => check_pure(q, ctx, nvars),
        Pure::And(a, b) | Pure::Or(a, b) | Pure::Implies(a, b) => {
            check_pure(a, ctx, nvars)?;
            check_pure(b, ctx, nvars)
        }
    }
}

fn confrel_from(v: &Value, aut: &Automaton, what: &str) -> Result<ConfRel, String> {
    let guard = get(v, "guard")?;
    let rel = ConfRel {
        guard: TemplatePair {
            left: template_from(get(guard, "left")?, aut)?,
            right: template_from(get(guard, "right")?, aut)?,
        },
        vars: as_arr(get(v, "vars")?)?
            .iter()
            .map(as_usize)
            .collect::<Result<_, _>>()?,
        phi: pure_from(get(v, "phi")?, aut)?,
    };
    let total = rel
        .vars
        .iter()
        .try_fold(0usize, |acc, w| acc.checked_add(*w));
    if total.is_none_or(|t| t > MAX_VAR_BITS) {
        return Err(format!(
            "{what}: packet variables exceed {MAX_VAR_BITS} bits"
        ));
    }
    check_pure(&rel.phi, &rel.ctx(aut), rel.vars.len()).map_err(|e| format!("{what}: {e}"))?;
    Ok(rel)
}

/// Decodes and validates a certificate against the automaton it claims to
/// certify.
pub fn certificate_from_value(v: &Value, aut: &Automaton) -> Result<Certificate, String> {
    let decode_list = |key: &str| -> Result<Vec<ConfRel>, String> {
        as_arr(get(v, key)?)?
            .iter()
            .enumerate()
            .map(|(i, r)| confrel_from(r, aut, &format!("{key}[{i}]")))
            .collect()
    };
    Ok(Certificate {
        leaps: as_bool(get(v, "leaps")?)?,
        standard_init: as_bool(get(v, "standard_init")?)?,
        query: confrel_from(get(v, "query")?, aut, "query")?,
        init: decode_list("init")?,
        relation: decode_list("relation")?,
    })
}
