//! Differential test of the JSON reader against the tree decode it
//! replaced.
//!
//! `serde_json::from_str::<T>` reads JSON text straight into `T`. Before
//! it did, every document was first parsed into a `Value` tree and each
//! type rebuilt itself from that tree. Module `reference` keeps that
//! parse and that decode verbatim as the oracle. Both are fed random
//! documents of the five persisted shapes (`CorpusFile` with its
//! `Paper`s, `ContextSetsFile`, `PrestigeColumnsFile`, `SnapshotHeader`)
//! written with shuffled keys, random whitespace, escapes (surrogate
//! pairs included), unknown keys, repeated keys (the first value
//! counts), every form of number text and, now and then, a value of the
//! wrong type. The two must agree: the same value, every float's bits
//! included, or both an error. Random `Value` trees must parse to the
//! same tree, float bits included.
//!
//! CI's exec-differential job runs it in release:
//! `cargo test --release --test json_reader_differential`.

use litsearch::context_search::persist::{ContextSetsFile, PrestigeColumnsFile, SnapshotHeader};
use litsearch::corpus::store::CorpusFile;
use litsearch::corpus::{AuthorId, Paper, PaperId};
use litsearch::ontology::TermId;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

/// The tree parse and the tree decode as they were, unchanged but for
/// the error type, which keeps only the message.
mod reference {
    use super::*;

    #[derive(Debug)]
    pub struct Error(pub String);

    impl Error {
        fn new(msg: impl Into<String>, _offset: usize) -> Self {
            Error(msg.into())
        }
    }

    /// Parse `s` into a tree, then decode the tree as `T`.
    pub fn from_str<T: FromValue>(s: &str) -> Result<T, Error> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::new("trailing characters", p.pos));
        }
        T::from_value(&v)
    }

    pub trait FromValue: Sized {
        fn from_value(v: &Value) -> Result<Self, Error>;
    }

    fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, Error> {
        match v {
            Value::Map(_) => v
                .get(name)
                .ok_or_else(|| Error(format!("missing field `{name}`"))),
            other => Err(Error(format!(
                "expected object with field `{name}`, got {other:?}"
            ))),
        }
    }

    macro_rules! impl_uint {
        ($($t:ty),*) => {$(
            impl FromValue for $t {
                fn from_value(v: &Value) -> Result<Self, Error> {
                    let raw = match *v {
                        Value::UInt(u) => u,
                        Value::Int(i) if i >= 0 => i as u64,
                        ref other => return Err(Error(format!(
                            "expected unsigned integer, got {other:?}"))),
                    };
                    <$t>::try_from(raw)
                        .map_err(|_| Error(format!("integer {raw} out of range for {}",
                            stringify!($t))))
                }
            }
        )*};
    }
    impl_uint!(u16, u32, usize);

    impl FromValue for f64 {
        fn from_value(v: &Value) -> Result<Self, Error> {
            v.as_f64()
                .ok_or_else(|| Error(format!("expected number, got {v:?}")))
        }
    }

    impl FromValue for String {
        fn from_value(v: &Value) -> Result<Self, Error> {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| Error(format!("expected string, got {v:?}")))
        }
    }

    impl<T: FromValue> FromValue for Vec<T> {
        fn from_value(v: &Value) -> Result<Self, Error> {
            match v {
                Value::Seq(items) => items.iter().map(T::from_value).collect(),
                other => Err(Error(format!("expected array, got {other:?}"))),
            }
        }
    }

    macro_rules! impl_tuple {
        ($len:expr => $($name:ident : $idx:tt),+) => {
            impl<$($name: FromValue),+> FromValue for ($($name,)+) {
                fn from_value(v: &Value) -> Result<Self, Error> {
                    match v {
                        Value::Seq(items) if items.len() == $len => {
                            Ok(($($name::from_value(&items[$idx])?,)+))
                        }
                        other => Err(Error(format!(
                            "expected array of length {}, got {other:?}", $len))),
                    }
                }
            }
        };
    }
    impl_tuple!(2 => A:0, B:1);
    impl_tuple!(3 => A:0, B:1, C:2);

    impl FromValue for Value {
        fn from_value(v: &Value) -> Result<Self, Error> {
            Ok(v.clone())
        }
    }

    // What the derive generated for the newtypes and the named structs.
    macro_rules! newtype {
        ($($t:ident),*) => {$(
            impl FromValue for $t {
                fn from_value(v: &Value) -> Result<Self, Error> {
                    Ok($t(FromValue::from_value(v)?))
                }
            }
        )*};
    }
    newtype!(PaperId, AuthorId, TermId);

    macro_rules! named {
        ($($t:ident { $($f:ident),* })*) => {$(
            impl FromValue for $t {
                fn from_value(v: &Value) -> Result<Self, Error> {
                    Ok($t { $($f: FromValue::from_value(field(v, stringify!($f))?)?,)* })
                }
            }
        )*};
    }
    named! {
        Paper { id, title, abstract_text, body, index_terms, authors, references, year, true_topics }
        CorpusFile { papers, author_names, evidence, extra_texts }
        ContextSetsFile { kind, members, representatives, inherited_from }
        PrestigeColumnsFile { function, columns }
        SnapshotHeader { magic, version, papers, terms, pairs }
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), Error> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(Error::new(format!("expected `{}`", b as char), self.pos))
            }
        }

        fn parse_value(&mut self) -> Result<Value, Error> {
            match self.peek() {
                None => Err(Error::new("unexpected end of input", self.pos)),
                Some(b'{') => self.parse_object(),
                Some(b'[') => self.parse_array(),
                Some(b'"') => Ok(Value::Str(self.parse_string()?)),
                Some(b't') => self.parse_keyword("true", Value::Bool(true)),
                Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
                Some(b'n') => self.parse_keyword("null", Value::Null),
                Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
                Some(other) => Err(Error::new(
                    format!("unexpected character `{}`", other as char),
                    self.pos,
                )),
            }
        }

        fn parse_keyword(&mut self, kw: &str, v: Value) -> Result<Value, Error> {
            if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
                self.pos += kw.len();
                Ok(v)
            } else {
                Err(Error::new(format!("expected `{kw}`"), self.pos))
            }
        }

        fn parse_object(&mut self) -> Result<Value, Error> {
            self.expect(b'{')?;
            let mut entries = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Map(entries));
            }
            loop {
                self.skip_ws();
                let key = self.parse_string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.parse_value()?;
                entries.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Map(entries));
                    }
                    _ => return Err(Error::new("expected `,` or `}`", self.pos)),
                }
            }
        }

        fn parse_array(&mut self) -> Result<Value, Error> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Seq(items));
            }
            loop {
                self.skip_ws();
                items.push(self.parse_value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Seq(items));
                    }
                    _ => return Err(Error::new("expected `,` or `]`", self.pos)),
                }
            }
        }

        fn parse_string(&mut self) -> Result<String, Error> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(Error::new("unterminated string", self.pos)),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{0008}'),
                            Some(b'f') => out.push('\u{000c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                self.pos += 1;
                                let cp = self.parse_hex4()?;
                                let c = if (0xd800..0xdc00).contains(&cp) {
                                    // Surrogate pair: expect a \uXXXX low half.
                                    if self.peek() == Some(b'\\') {
                                        self.pos += 1;
                                        if self.peek() != Some(b'u') {
                                            return Err(Error::new(
                                                "expected low surrogate",
                                                self.pos,
                                            ));
                                        }
                                        self.pos += 1;
                                        let low = self.parse_hex4()?;
                                        let combined = 0x10000
                                            + ((cp - 0xd800) << 10)
                                            + (low.wrapping_sub(0xdc00) & 0x3ff);
                                        char::from_u32(combined)
                                    } else {
                                        None
                                    }
                                } else {
                                    char::from_u32(cp)
                                };
                                out.push(c.ok_or_else(|| {
                                    Error::new("invalid unicode escape", self.pos)
                                })?);
                                continue; // parse_hex4 already advanced pos
                            }
                            _ => return Err(Error::new("invalid escape", self.pos)),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume the whole run of plain characters up to the
                        // next delimiter in one slice. `"` and `\` are ASCII,
                        // so they can never occur inside a multi-byte UTF-8
                        // sequence — stopping at either always lands on a char
                        // boundary, and validating just the segment keeps the
                        // string parse linear in input size.
                        let start = self.pos;
                        let mut end = self.pos;
                        while end < self.bytes.len() && !matches!(self.bytes[end], b'"' | b'\\') {
                            end += 1;
                        }
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| Error::new("invalid utf-8", start))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }

        fn parse_hex4(&mut self) -> Result<u32, Error> {
            let end = self.pos + 4;
            if end > self.bytes.len() {
                return Err(Error::new("truncated unicode escape", self.pos));
            }
            let hex = std::str::from_utf8(&self.bytes[self.pos..end])
                .map_err(|_| Error::new("invalid unicode escape", self.pos))?;
            let cp = u32::from_str_radix(hex, 16)
                .map_err(|_| Error::new("invalid unicode escape", self.pos))?;
            self.pos = end;
            Ok(cp)
        }

        fn parse_number(&mut self) -> Result<Value, Error> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            let mut is_float = false;
            if self.peek() == Some(b'.') {
                is_float = true;
                self.pos += 1;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e') | Some(b'E')) {
                is_float = true;
                self.pos += 1;
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| Error::new("invalid number", start))?;
            if text.is_empty() || text == "-" {
                return Err(Error::new("invalid number", start));
            }
            if !is_float {
                if let Some(stripped) = text.strip_prefix('-') {
                    if let Ok(i) = stripped.parse::<i64>() {
                        return Ok(Value::Int(-i));
                    }
                } else if let Ok(u) = text.parse::<u64>() {
                    return Ok(Value::UInt(u));
                }
            }
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new("invalid number", start))
        }
    }
}

/// Writes one value.
type Part<'a> = &'a dyn Fn(&mut Writer);

/// A random JSON writer: each choice it makes is one the text format
/// allows and one the two readers could disagree on.
struct Writer {
    rng: SmallRng,
    out: String,
    /// Chance that a typed value is replaced by one of another type.
    wrong: f64,
}

impl Writer {
    fn new(seed: u64, wrong: f64) -> Self {
        Writer {
            rng: SmallRng::seed_from_u64(seed),
            out: String::new(),
            wrong,
        }
    }

    fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    fn ws(&mut self) {
        while self.chance(0.2) {
            let c = [' ', '\t', '\n', '\r'][self.rng.gen_range(0..4usize)];
            self.out.push(c);
        }
    }

    fn text(&mut self, max: usize) -> String {
        const POOL: &[char] = &[
            'a',
            'b',
            'z',
            'Q',
            '0',
            '7',
            ' ',
            '-',
            '"',
            '\\',
            '/',
            '\n',
            '\t',
            '\r',
            '\u{8}',
            '\u{c}',
            '\u{1}',
            '\u{1f}',
            'é',
            'ß',
            'λ',
            '中',
            '\u{ffff}',
            '🦀',
            '\u{10ffff}',
        ];
        let len = self.rng.gen_range(0..=max);
        (0..len)
            .map(|_| POOL[self.rng.gen_range(0..POOL.len())])
            .collect()
    }

    /// `s` as a string literal, each character written plainly or as an
    /// escape: a short one, or `\u` (a surrogate pair above the BMP).
    fn string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '\n' => Some("\\n"),
                '\t' => Some("\\t"),
                '\r' => Some("\\r"),
                '\u{8}' => Some("\\b"),
                '\u{c}' => Some("\\f"),
                '/' => Some("\\/"),
                _ => None,
            };
            if c == '"' || c == '\\' || self.chance(0.3) {
                match short {
                    Some(escape) if self.chance(0.6) => self.out.push_str(escape),
                    _ => {
                        let mut units = [0u16; 2];
                        for unit in c.encode_utf16(&mut units) {
                            let hex = if self.chance(0.5) {
                                format!("\\u{unit:04x}")
                            } else {
                                format!("\\u{unit:04X}")
                            };
                            self.out.push_str(&hex);
                        }
                    }
                }
            } else {
                self.out.push(c);
            }
        }
        self.out.push('"');
    }

    /// Now and then, a value of another type in place of the one the
    /// field holds: both readers must refuse it.
    fn wrong_instead(&mut self) -> bool {
        if self.wrong == 0.0 || !self.chance(self.wrong) {
            return false;
        }
        let choices = [
            "3.0",
            "-1",
            "4294967296",
            "18446744073709551616",
            "\"7\"",
            "null",
            "true",
            "[]",
            "{}",
            "1e3",
        ];
        let pick = choices[self.rng.gen_range(0..choices.len())];
        self.out.push_str(pick);
        true
    }

    fn uint(&mut self, max: u64) {
        if self.wrong_instead() {
            return;
        }
        let v = match self.rng.gen_range(0..4u32) {
            0 => 0,
            1 => max,
            _ => self.rng.gen_range(0..=max),
        };
        // `-0` is integer text: it decodes to 0.
        if v == 0 && self.chance(0.3) {
            self.out.push_str("-0");
        } else {
            self.out.push_str(&v.to_string());
        }
    }

    fn float(&mut self) {
        if self.wrong_instead() {
            return;
        }
        let v: f64 = match self.rng.gen_range(0..7u32) {
            0 => 0.0,
            1 => -0.0,
            2 => self.rng.gen_range(0u64..1000) as f64,
            3 => f64::from_bits(self.rng.gen_range(0u64..0x7ff0_0000_0000_0000)),
            4 => -self.rng.gen_range(0.0f64..1e6),
            _ => self.rng.gen_range(0.0f64..1.0),
        };
        let text = match self.rng.gen_range(0..5u32) {
            0 => format!("{v:e}"),
            1 => format!("{v:E}"),
            // Integer text for an integral score: `-0` for a zero.
            2 if v == 0.0 => "-0".to_string(),
            3 if v.fract() == 0.0 && v.abs() < 1e30 => format!("{v:.0}"),
            _ => format!("{v:?}"),
        };
        self.out.push_str(&text);
    }

    fn str_value(&mut self, max: usize) {
        if self.wrong_instead() {
            return;
        }
        let s = self.text(max);
        self.string(&s);
    }

    fn array(&mut self, len: usize, element: &mut dyn FnMut(&mut Self, usize)) {
        self.out.push('[');
        self.ws();
        for i in 0..len {
            if i > 0 {
                self.out.push(',');
                self.ws();
            }
            element(self, i);
            self.ws();
        }
        self.out.push(']');
    }

    fn vec(&mut self, max: usize, mut element: impl FnMut(&mut Self)) {
        if self.wrong_instead() {
            return;
        }
        let len = self.rng.gen_range(0..=max);
        self.array(len, &mut |w, _| element(w));
    }

    fn tuple(&mut self, elements: &[Part]) {
        if self.wrong_instead() {
            return;
        }
        self.array(elements.len(), &mut |w, i| elements[i](w));
    }

    /// An object holding `fields` in a random order, with unknown keys
    /// and repeats of known ones (after the first) mixed in.
    fn object(&mut self, fields: &[(&str, Part)]) {
        if self.wrong_instead() {
            return;
        }
        let mut entries: Vec<(String, Option<usize>)> = (0..fields.len())
            .map(|i| (fields[i].0.to_string(), Some(i)))
            .collect();
        for i in (1..entries.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            entries.swap(i, j);
        }
        for _ in 0..self.rng.gen_range(0..3usize) {
            let key = if self.chance(0.5) {
                self.text(6)
            } else {
                fields[self.rng.gen_range(0..fields.len())].0.to_string()
            };
            let at = match entries.iter().position(|(k, _)| *k == key) {
                Some(first) => self.rng.gen_range(first + 1..=entries.len()),
                None => self.rng.gen_range(0..=entries.len()),
            };
            entries.insert(at, (key, None));
        }
        self.out.push('{');
        self.ws();
        for (n, (key, field)) in entries.iter().enumerate() {
            if n > 0 {
                self.out.push(',');
                self.ws();
            }
            self.string(key);
            self.ws();
            self.out.push(':');
            self.ws();
            match field {
                Some(i) => (fields[*i].1)(self),
                None => {
                    let v = self.random_value(3);
                    self.value(&v);
                }
            }
            self.ws();
        }
        self.out.push('}');
    }

    fn random_value(&mut self, depth: u32) -> Value {
        let top = if depth == 0 { 6 } else { 8 };
        match self.rng.gen_range(0..top) {
            0 => Value::Null,
            1 => Value::Bool(self.chance(0.5)),
            2 => Value::UInt(match self.rng.gen_range(0..3u32) {
                0 => u64::MAX,
                1 => self.rng.gen_range(0..100u64),
                _ => self.rng.gen_range(0..u64::MAX),
            }),
            3 => Value::Int(-self.rng.gen_range(1..i64::MAX)),
            4 => Value::Float(match self.rng.gen_range(0..4u32) {
                0 => -0.0,
                1 => 1e300,
                2 => f64::from_bits(self.rng.gen_range(0u64..0x7ff0_0000_0000_0000)),
                _ => self.rng.gen_range(-1e3f64..1e3),
            }),
            5 => Value::Str(self.text(8)),
            6 => Value::Seq(
                (0..self.rng.gen_range(0..4usize))
                    .map(|_| self.random_value(depth - 1))
                    .collect(),
            ),
            _ => Value::Map(
                (0..self.rng.gen_range(0..4usize))
                    .map(|_| (self.text(5), self.random_value(depth - 1)))
                    .collect(),
            ),
        }
    }

    /// A [`Value`] tree, written with the same freedom; what the tree
    /// parse makes of the text is the oracle, not the tree itself.
    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.out.push_str("null"),
            Value::Bool(b) => self.out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(u) => self.out.push_str(&u.to_string()),
            Value::Int(i) => self.out.push_str(&i.to_string()),
            Value::Float(f) => {
                let text = match self.rng.gen_range(0..3u32) {
                    0 => format!("{f:e}"),
                    1 if f.fract() == 0.0 && f.abs() < 1e30 => format!("{f:.0}"),
                    _ => format!("{f:?}"),
                };
                self.out.push_str(&text);
            }
            Value::Str(s) => self.string(s),
            Value::Seq(items) => self.array(items.len(), &mut |w, i| w.value(&items[i])),
            Value::Map(entries) => {
                self.out.push('{');
                self.ws();
                for (n, (k, v)) in entries.iter().enumerate() {
                    if n > 0 {
                        self.out.push(',');
                        self.ws();
                    }
                    self.string(k);
                    self.ws();
                    self.out.push(':');
                    self.ws();
                    self.value(v);
                    self.ws();
                }
                self.out.push('}');
            }
        }
    }

    fn paper(&mut self) {
        self.object(&[
            ("id", &|w| w.uint(u32::MAX as u64)),
            ("title", &|w| w.str_value(12)),
            ("abstract_text", &|w| w.str_value(30)),
            ("body", &|w| w.str_value(60)),
            ("index_terms", &|w| w.vec(3, |w| w.str_value(8))),
            ("authors", &|w| w.vec(4, |w| w.uint(u32::MAX as u64))),
            ("references", &|w| w.vec(5, |w| w.uint(500))),
            ("year", &|w| w.uint(u16::MAX as u64)),
            ("true_topics", &|w| w.vec(3, |w| w.uint(80))),
        ]);
    }

    fn id_list(&mut self) {
        self.tuple(&[&|w| w.uint(u32::MAX as u64), &|w| w.vec(6, |w| w.uint(400))]);
    }

    fn id_pair(&mut self) {
        self.tuple(&[&|w| w.uint(80), &|w| w.uint(u32::MAX as u64)]);
    }

    fn corpus_file(&mut self) {
        self.object(&[
            ("papers", &|w| w.vec(4, |w| w.paper())),
            ("author_names", &|w| w.vec(4, |w| w.str_value(10))),
            ("evidence", &|w| w.vec(4, |w| w.id_list())),
            ("extra_texts", &|w| w.vec(3, |w| w.str_value(10))),
        ]);
    }

    fn sets_file(&mut self) {
        self.object(&[
            ("kind", &|w| w.str_value(7)),
            ("members", &|w| w.vec(5, |w| w.id_list())),
            ("representatives", &|w| w.vec(5, |w| w.id_pair())),
            ("inherited_from", &|w| w.vec(5, |w| w.id_pair())),
        ]);
    }

    fn prestige_file(&mut self) {
        self.object(&[
            ("function", &|w| w.str_value(8)),
            ("columns", &|w| {
                w.vec(5, |w| {
                    w.tuple(&[&|w| w.uint(80), &|w| w.vec(6, |w| w.uint(400)), &|w| {
                        w.vec(6, |w| w.float())
                    }])
                })
            }),
        ]);
    }

    fn header(&mut self) {
        self.object(&[
            ("magic", &|w| w.str_value(18)),
            ("version", &|w| w.uint(u32::MAX as u64)),
            ("papers", &|w| w.uint(u64::MAX)),
            ("terms", &|w| w.uint(u64::MAX)),
            ("pairs", &|w| {
                w.vec(5, |w| w.tuple(&[&|w| w.str_value(7), &|w| w.str_value(8)]))
            }),
        ]);
    }
}

/// The outcome of a decode, rendered so two can be compared: `{:?}`
/// prints every `f64` in its shortest round-trip form (and JSON number
/// text never parses to a NaN), so equal renderings mean equal bits.
fn outcome<T: std::fmt::Debug, E>(decoded: Result<T, E>) -> Option<String> {
    decoded.ok().map(|v| format!("{v:?}"))
}

/// Decode a text as a type both ways and require the same outcome;
/// report whether the text decoded.
macro_rules! same_decode {
    ($t:ty) => {
        |text: &str| -> Result<bool, String> {
            let expected = outcome(reference::from_str::<$t>(text));
            let got = outcome(serde_json::from_str::<$t>(text));
            if got != expected {
                return Err(format!(
                    "{}: reader gave {got:?}, tree decode {expected:?}\n  text: {text}",
                    stringify!($t)
                ));
            }
            Ok(got.is_some())
        }
    };
}

/// `a` and `b` are the same tree, floats compared by their bits.
fn same_tree(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Seq(xs), Value::Seq(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_tree(x, y))
        }
        (Value::Map(xs), Value::Map(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same_tree(x, y))
        }
        _ => a == b,
    }
}

/// One document of each persisted shape, written from `seed`: how many
/// of the five decoded.
fn check_shapes(seed: u64, wrong: f64) -> Result<usize, String> {
    type Shape = (fn(&mut Writer), fn(&str) -> Result<bool, String>);
    let shapes: [Shape; 5] = [
        (Writer::paper, same_decode!(Paper)),
        (Writer::corpus_file, same_decode!(CorpusFile)),
        (Writer::sets_file, same_decode!(ContextSetsFile)),
        (Writer::prestige_file, same_decode!(PrestigeColumnsFile)),
        (Writer::header, same_decode!(SnapshotHeader)),
    ];
    let mut decoded = 0;
    for (i, (write, check)) in shapes.iter().enumerate() {
        let mut w = Writer::new(seed.wrapping_add(i as u64), wrong);
        w.ws();
        write(&mut w);
        w.ws();
        decoded += usize::from(check(&w.out)?);
    }
    Ok(decoded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Documents of the five persisted shapes decode to the same values.
    #[test]
    fn persisted_shapes_decode_as_the_tree_decode_did(seed in 0u64..u64::MAX) {
        prop_assert_eq!(check_shapes(seed, 0.0)?, 5, "a well-typed document was refused");
    }

    /// With values of the wrong type mixed in, both sides refuse the same
    /// documents and agree on the rest.
    #[test]
    fn wrong_types_are_refused_as_the_tree_decode_refused_them(seed in 0u64..u64::MAX) {
        check_shapes(seed, 0.05)?;
    }

    /// Random trees parse to the same `Value`, float bits included.
    #[test]
    fn value_trees_parse_as_the_tree_parse_did(seed in 0u64..u64::MAX) {
        let mut w = Writer::new(seed, 0.0);
        let v = w.random_value(4);
        w.ws();
        w.value(&v);
        w.ws();
        let text = w.out;
        let expected = reference::from_str::<Value>(&text).map_err(|e| e.0)?;
        let got = serde_json::from_str::<Value>(&text).map_err(|e| e.to_string())?;
        prop_assert!(same_tree(&got, &expected), "{:?} != {:?}\n  text: {}", got, expected, text);
    }
}

/// Number text at the edges of each class, and text both must refuse.
#[test]
fn edge_texts_agree() {
    let numbers = [
        "0",
        "-0",
        "-0.0",
        "0.0",
        "1",
        "-1",
        "1.0",
        "3.0",
        "1e2",
        "1E+2",
        "1e-2",
        "1.",
        "-",
        "01",
        "-01",
        "1e",
        "1e+",
        ".5",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
        "-9223372036854775809",
        "1e400",
        "-1e400",
        "5e-324",
        "2.2250738585072014e-308",
        "+1",
        "--1",
        "1.5.3",
    ];
    for text in numbers {
        for wrapped in [text.to_string(), format!(" [ {text} ] ")] {
            same_decode!(Value)(&wrapped).unwrap();
            same_decode!(Vec<u32>)(&format!("[{text}]")).unwrap();
            same_decode!(Vec<u16>)(&format!("[{text}]")).unwrap();
            same_decode!(Vec<f64>)(&format!("[{text}]")).unwrap();
            same_decode!(Vec<usize>)(&format!("[{text}]")).unwrap();
        }
    }
    let others = [
        "",
        " ",
        "[",
        "]",
        "[1,]",
        "[,1]",
        "{}",
        "{\"a\"}",
        "{\"a\":}",
        "{\"a\":1,}",
        "{,}",
        "{\"a\":1 \"b\":2}",
        "[1 2]",
        "nul",
        "nulll",
        "true false",
        "\"\\u12\"",
        "\"\\ud800\"",
        "\"\\ud800\\u0041\"",
        "\"\\udc00\"",
        "\"\\ud83e\\udd80\"",
        "\"\\x\"",
        "\"\\u+123\"",
        "\"abc",
        "\"a\\\"",
        "[\"\\u00e9\"]",
        "{\"\\u0061\":1}",
        "\t\n\r 1 \t",
    ];
    for text in others {
        same_decode!(Value)(text).unwrap();
    }
    // A key spelled with escapes is the same key.
    same_decode!(PrestigeColumnsFile)(r#"{"\u0066unction":"text","c\u006flumns":[]}"#).unwrap();
    assert!(serde_json::from_str::<PrestigeColumnsFile>(
        r#"{"\u0066unction":"text","c\u006flumns":[]}"#
    )
    .is_ok());
}
