//! Self-contained JSON serialization for [`crate::Certificate`].
//!
//! The build environment has no network access, so `serde`/`serde_json`
//! are unavailable; this module hand-rolls the small amount of JSON the
//! certificate archive format needs. The encoding mirrors serde's
//! externally-tagged convention (`{"State": 3}`, `{"Eq": [a, b]}`), so a
//! certificate produced here reads naturally and the format would survive
//! a later migration back to derived serde.

use std::fmt;

use leapfrog_bitvec::BitVec;
use leapfrog_logic::confrel::{BitExpr, ConfRel, Pure, Side, VarId};
use leapfrog_logic::templates::{Template, TemplatePair};
use leapfrog_p4a::ast::{HeaderId, StateId, Target};

use crate::certificate::Certificate;

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (certificates only use unsigned integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Value)>),
}

/// A JSON syntax or schema error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    pub(crate) fn new(msg: impl Into<String>) -> JsonError {
        JsonError { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------------
// Writing

impl Value {
    /// Pretty-prints the value with two-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Renders the value with no whitespace at all: the compact form for
    /// files only programs read.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Writes the value; `indent` is the nesting level when
    /// pretty-printing, `None` when compact.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|d| d + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    new_line(out, inner);
                    item.write(out, inner);
                }
                new_line(out, indent);
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    new_line(out, inner);
                    write_escaped(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                new_line(out, indent);
                out.push('}');
            }
        }
    }
}

/// Starts a new, indented line when pretty-printing; nothing when compact.
fn new_line(out: &mut String, indent: Option<usize>) {
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parsing

/// Deepest array/object nesting [`parse`] accepts: it and the decoders
/// after it recurse once per level, so outside input must not choose the
/// depth. Documents this repository writes nest at most about 50 levels.
pub const MAX_DEPTH: usize = 256;

/// Parses a JSON document.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::new("trailing characters after JSON document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, JsonError> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| JsonError::new("unexpected end of input"))
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek()? == c {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected '{}' at byte {}",
                c as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::new(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, JsonError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(JsonError::new(format!("expected literal '{text}'")))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
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
            .map_err(|_| JsonError::new(format!("invalid number '{text}'")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| JsonError::new("unterminated string"))?;
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| JsonError::new("unterminated escape"))?;
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
                                .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| JsonError::new("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| JsonError::new("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError::new("invalid \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(JsonError::new(format!(
                                "unknown escape '\\{}'",
                                other as char
                            )))
                        }
                    }
                }
                c => {
                    // Re-decode multi-byte UTF-8 sequences.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let width = utf8_width(c);
                        let chunk = self
                            .bytes
                            .get(start..start + width)
                            .ok_or_else(|| JsonError::new("truncated UTF-8 sequence"))?;
                        out.push_str(
                            std::str::from_utf8(chunk)
                                .map_err(|_| JsonError::new("invalid UTF-8 in string"))?,
                        );
                        self.pos = start + width;
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(JsonError::new("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(JsonError::new("expected ',' or '}' in object")),
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

// ---------------------------------------------------------------------------
// Certificate encoding

/// Builds an object value from (key, value) pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn tag(name: &str, v: Value) -> Value {
    obj(vec![(name, v)])
}

/// Builds an unsigned-integer number value.
pub fn num(n: usize) -> Value {
    Value::Num(n as f64)
}

/// Encodes a bitvector as its binary-string literal.
pub fn bitvec_to_value(bv: &BitVec) -> Value {
    Value::Str(bv.to_string())
}

fn target_to_value(t: Target) -> Value {
    match t {
        Target::State(q) => tag("State", num(q.0 as usize)),
        Target::Accept => Value::Str("Accept".into()),
        Target::Reject => Value::Str("Reject".into()),
    }
}

/// Encodes a configuration template (shared with the wire protocol).
pub fn template_to_value(t: &Template) -> Value {
    obj(vec![
        ("target", target_to_value(t.target)),
        ("buf_len", num(t.buf_len)),
    ])
}

fn side_to_value(s: Side) -> Value {
    Value::Str(match s {
        Side::Left => "Left".into(),
        Side::Right => "Right".into(),
    })
}

fn expr_to_value(e: &BitExpr) -> Value {
    match e {
        BitExpr::Lit(bv) => tag("Lit", bitvec_to_value(bv)),
        BitExpr::Buf(s) => tag("Buf", side_to_value(*s)),
        BitExpr::Hdr(s, h) => tag(
            "Hdr",
            Value::Arr(vec![side_to_value(*s), num(h.0 as usize)]),
        ),
        BitExpr::Var(v) => tag("Var", num(v.0 as usize)),
        BitExpr::Slice(inner, start, len) => tag(
            "Slice",
            Value::Arr(vec![expr_to_value(inner), num(*start), num(*len)]),
        ),
        BitExpr::Concat(a, b) => tag(
            "Concat",
            Value::Arr(vec![expr_to_value(a), expr_to_value(b)]),
        ),
    }
}

fn pure_to_value(p: &Pure) -> Value {
    match p {
        Pure::Const(b) => tag("Const", Value::Bool(*b)),
        Pure::Eq(a, b) => tag("Eq", Value::Arr(vec![expr_to_value(a), expr_to_value(b)])),
        Pure::Not(q) => tag("Not", pure_to_value(q)),
        Pure::And(a, b) => tag("And", Value::Arr(vec![pure_to_value(a), pure_to_value(b)])),
        Pure::Or(a, b) => tag("Or", Value::Arr(vec![pure_to_value(a), pure_to_value(b)])),
        Pure::Implies(a, b) => tag(
            "Implies",
            Value::Arr(vec![pure_to_value(a), pure_to_value(b)]),
        ),
    }
}

/// Encodes a configuration relation (shared with the wire protocol and
/// the engine's warm-state persistence).
pub fn confrel_to_value(r: &ConfRel) -> Value {
    obj(vec![
        (
            "guard",
            obj(vec![
                ("left", template_to_value(&r.guard.left)),
                ("right", template_to_value(&r.guard.right)),
            ]),
        ),
        ("vars", Value::Arr(r.vars.iter().map(|w| num(*w)).collect())),
        ("phi", pure_to_value(&r.phi)),
    ])
}

/// Encodes a certificate as a JSON value tree.
pub fn certificate_to_value(cert: &Certificate) -> Value {
    obj(vec![
        ("leaps", Value::Bool(cert.leaps)),
        ("standard_init", Value::Bool(cert.standard_init)),
        ("query", confrel_to_value(&cert.query)),
        (
            "init",
            Value::Arr(cert.init.iter().map(confrel_to_value).collect()),
        ),
        (
            "relation",
            Value::Arr(cert.relation.iter().map(confrel_to_value).collect()),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Certificate decoding

/// Looks up a required object field.
pub fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, JsonError> {
    match v {
        Value::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| JsonError::new(format!("missing field '{key}'"))),
        _ => Err(JsonError::new(format!(
            "expected object with field '{key}'"
        ))),
    }
}

/// Interprets a value as a boolean.
pub fn as_bool(v: &Value) -> Result<bool, JsonError> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(JsonError::new("expected a boolean")),
    }
}

/// Interprets a value as an unsigned integer.
pub fn as_usize(v: &Value) -> Result<usize, JsonError> {
    match v {
        Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 => Ok(*n as usize),
        _ => Err(JsonError::new("expected an unsigned integer")),
    }
}

/// Interprets a value as a 32-bit id (state, header or packet variable);
/// `what` names it in the error for an id past `u32::MAX`.
pub fn as_u32(v: &Value, what: &str) -> Result<u32, JsonError> {
    let n = as_usize(v)?;
    u32::try_from(n).map_err(|_| JsonError::new(format!("{what} {n} out of range")))
}

/// Interprets a value as a string.
pub fn as_str(v: &Value) -> Result<&str, JsonError> {
    match v {
        Value::Str(s) => Ok(s),
        _ => Err(JsonError::new("expected a string")),
    }
}

/// Interprets a value as an array.
pub fn as_arr(v: &Value) -> Result<&[Value], JsonError> {
    match v {
        Value::Arr(items) => Ok(items),
        _ => Err(JsonError::new("expected an array")),
    }
}

/// The single `(tag, payload)` pair of an externally tagged enum value.
fn untag(v: &Value) -> Result<(&str, &Value), JsonError> {
    match v {
        Value::Obj(fields) if fields.len() == 1 => Ok((&fields[0].0, &fields[0].1)),
        _ => Err(JsonError::new("expected a single-field tagged object")),
    }
}

/// Decodes a bitvector from its binary-string literal.
pub fn bitvec_from_value(v: &Value) -> Result<BitVec, JsonError> {
    as_str(v)?
        .parse()
        .map_err(|e| JsonError::new(format!("invalid bitvector literal: {e:?}")))
}

fn target_from_value(v: &Value) -> Result<Target, JsonError> {
    match v {
        Value::Str(s) if s == "Accept" => Ok(Target::Accept),
        Value::Str(s) if s == "Reject" => Ok(Target::Reject),
        _ => {
            let (t, payload) = untag(v)?;
            if t == "State" {
                Ok(Target::State(StateId(as_u32(payload, "state id")?)))
            } else {
                Err(JsonError::new(format!("unknown target tag '{t}'")))
            }
        }
    }
}

/// Decodes a configuration template.
pub fn template_from_value(v: &Value) -> Result<Template, JsonError> {
    Ok(Template {
        target: target_from_value(get(v, "target")?)?,
        buf_len: as_usize(get(v, "buf_len")?)?,
    })
}

fn side_from_value(v: &Value) -> Result<Side, JsonError> {
    match as_str(v)? {
        "Left" => Ok(Side::Left),
        "Right" => Ok(Side::Right),
        other => Err(JsonError::new(format!("unknown side '{other}'"))),
    }
}

fn expr_from_value(v: &Value) -> Result<BitExpr, JsonError> {
    let (t, payload) = untag(v)?;
    match t {
        "Lit" => Ok(BitExpr::Lit(bitvec_from_value(payload)?)),
        "Buf" => Ok(BitExpr::Buf(side_from_value(payload)?)),
        "Hdr" => {
            let items = as_arr(payload)?;
            if items.len() != 2 {
                return Err(JsonError::new("Hdr expects [side, header]"));
            }
            Ok(BitExpr::Hdr(
                side_from_value(&items[0])?,
                HeaderId(as_u32(&items[1], "header id")?),
            ))
        }
        "Var" => Ok(BitExpr::Var(VarId(as_u32(payload, "packet variable")?))),
        "Slice" => {
            let items = as_arr(payload)?;
            if items.len() != 3 {
                return Err(JsonError::new("Slice expects [expr, start, len]"));
            }
            Ok(BitExpr::Slice(
                Box::new(expr_from_value(&items[0])?),
                as_usize(&items[1])?,
                as_usize(&items[2])?,
            ))
        }
        "Concat" => {
            let items = as_arr(payload)?;
            if items.len() != 2 {
                return Err(JsonError::new("Concat expects [a, b]"));
            }
            Ok(BitExpr::Concat(
                Box::new(expr_from_value(&items[0])?),
                Box::new(expr_from_value(&items[1])?),
            ))
        }
        other => Err(JsonError::new(format!("unknown expression tag '{other}'"))),
    }
}

fn pure_from_value(v: &Value) -> Result<Pure, JsonError> {
    let (t, payload) = untag(v)?;
    let pair = |payload: &Value| -> Result<(Pure, Pure), JsonError> {
        let items = as_arr(payload)?;
        if items.len() != 2 {
            return Err(JsonError::new("binary connective expects [a, b]"));
        }
        Ok((pure_from_value(&items[0])?, pure_from_value(&items[1])?))
    };
    match t {
        "Const" => Ok(Pure::Const(as_bool(payload)?)),
        "Eq" => {
            let items = as_arr(payload)?;
            if items.len() != 2 {
                return Err(JsonError::new("Eq expects [a, b]"));
            }
            Ok(Pure::Eq(
                expr_from_value(&items[0])?,
                expr_from_value(&items[1])?,
            ))
        }
        "Not" => Ok(Pure::Not(Box::new(pure_from_value(payload)?))),
        "And" => pair(payload).map(|(a, b)| Pure::And(Box::new(a), Box::new(b))),
        "Or" => pair(payload).map(|(a, b)| Pure::Or(Box::new(a), Box::new(b))),
        "Implies" => pair(payload).map(|(a, b)| Pure::Implies(Box::new(a), Box::new(b))),
        other => Err(JsonError::new(format!("unknown formula tag '{other}'"))),
    }
}

/// Decodes a configuration relation.
pub fn confrel_from_value(v: &Value) -> Result<ConfRel, JsonError> {
    let guard = get(v, "guard")?;
    Ok(ConfRel {
        guard: TemplatePair::new(
            template_from_value(get(guard, "left")?)?,
            template_from_value(get(guard, "right")?)?,
        ),
        vars: as_arr(get(v, "vars")?)?
            .iter()
            .map(as_usize)
            .collect::<Result<_, _>>()?,
        phi: pure_from_value(get(v, "phi")?)?,
    })
}

/// Decodes a certificate from a JSON value tree.
pub fn certificate_from_value(v: &Value) -> Result<Certificate, JsonError> {
    Ok(Certificate {
        leaps: as_bool(get(v, "leaps")?)?,
        standard_init: as_bool(get(v, "standard_init")?)?,
        query: confrel_from_value(get(v, "query")?)?,
        init: as_arr(get(v, "init")?)?
            .iter()
            .map(confrel_from_value)
            .collect::<Result<_, _>>()?,
        relation: as_arr(get(v, "relation")?)?
            .iter()
            .map(confrel_from_value)
            .collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        let v = obj(vec![
            (
                "a",
                Value::Arr(vec![num(1), Value::Bool(true), Value::Null]),
            ),
            ("s", Value::Str("hi \"there\"\n⟨q, 0⟩".into())),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
        let compact = v.render_compact();
        assert_eq!(
            compact,
            "{\"a\":[1,true,null],\"s\":\"hi \\\"there\\\"\\n⟨q, 0⟩\"}"
        );
        assert_eq!(parse(&compact).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        // Ids past u32::MAX are errors, not wrapped onto id 0.
        let doc = |text: &str| parse(text).unwrap();
        assert!(template_from_value(&doc(
            "{\"target\": {\"State\": 4294967296}, \"buf_len\": 0}"
        ))
        .is_err());
        assert!(expr_from_value(&doc("{\"Hdr\": [\"Left\", 4294967296]}")).is_err());
        assert!(expr_from_value(&doc("{\"Var\": 4294967296}")).is_err());
        // The largest id still decodes.
        assert_eq!(
            expr_from_value(&doc("{\"Var\": 4294967295}")).unwrap(),
            BitExpr::Var(VarId(u32::MAX))
        );
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"a\": ".repeat(n), "}".repeat(n));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok() && parse(&objects(MAX_DEPTH)).is_ok());
        for n in [MAX_DEPTH + 1, 100_000] {
            for doc in [arrays(n), objects(n), "[".repeat(n)] {
                let e = parse(&doc).unwrap_err();
                assert!(e.to_string().contains("deeper than 256 levels"), "{e}");
            }
        }
    }

    #[test]
    fn expr_and_pure_roundtrip() {
        let e = BitExpr::Concat(
            Box::new(BitExpr::Slice(Box::new(BitExpr::Buf(Side::Left)), 2, 3)),
            Box::new(BitExpr::Hdr(Side::Right, HeaderId(4))),
        );
        let p = Pure::Implies(
            Box::new(Pure::Eq(e.clone(), BitExpr::Var(VarId(1)))),
            Box::new(Pure::Not(Box::new(Pure::Const(false)))),
        );
        let back = pure_from_value(&parse(&pure_to_value(&p).render()).unwrap()).unwrap();
        assert_eq!(back, p);
    }
}
