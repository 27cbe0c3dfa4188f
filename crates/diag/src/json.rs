//! The one JSON writer. Every machine-readable document the tool emits —
//! lint and verify reports, batch and serve reports, Chrome traces, the
//! `BENCH_*.json` sweeps — is laid out here, so golden files, CI diffs
//! and the determinism properties all read one format.
//!
//! Members appear in call order. Numbers are `f64` `Display` (never an
//! exponent; a non-finite value panics), strings are escaped by
//! [`string`], and each container picks one of three [`Layout`]s. An
//! [`Object`] or [`Array`] writes its closing bracket when dropped, so
//! nested containers close in order by construction.

use std::fmt::{Display, Write as _};

/// How a container places its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `{"k":v,"k2":v2}` — Chrome trace records.
    Compact,
    /// `{"k": v, "k2": v2}` — one-line rows and small sub-objects.
    Inline,
    /// One member per line, indented by this many spaces; the closing
    /// bracket on a line of its own two spaces further left (column 0
    /// when the members are). An empty container stays `[]` / `{}`.
    Block(usize),
}

/// Integer types, written with `Display`.
pub trait Int: Display {}
impl Int for i32 {}
impl Int for i64 {}
impl Int for u32 {}
impl Int for u64 {}
impl Int for usize {}
impl<T: Int> Int for &T {}

/// Append `s` as a JSON string literal. Quotes, backslashes and control
/// characters are escaped (`\n`, `\r`, `\t` in their two-character
/// form); every other character is copied as is.
pub fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` as a JSON number: Rust's `f64` `Display`, which is
/// deterministic and never uses exponent notation.
///
/// # Panics
/// If `v` is not finite — JSON cannot spell it, and every number the
/// tool reports is a finite time, rate, ratio or size.
pub fn num(out: &mut String, v: f64) {
    assert!(v.is_finite(), "non-finite number in JSON output: {v}");
    let start = out.len();
    let _ = write!(out, "{v}");
    debug_assert!(
        !out[start..].contains(['e', 'E']),
        "exponent in JSON number: {}",
        &out[start..]
    );
}

/// A whole document: one top-level object laid out as `layout`, then a
/// newline.
pub fn document(layout: Layout, fill: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    fill(&mut Object::new(&mut out, layout));
    out.push('\n');
    out
}

/// What objects and arrays share: separators, line breaks, and the
/// closing bracket written on drop.
struct Seq<'a> {
    out: &'a mut String,
    layout: Layout,
    empty: bool,
    close: char,
}

impl<'a> Seq<'a> {
    fn open(out: &'a mut String, layout: Layout, open: char, close: char) -> Self {
        out.push(open);
        Seq {
            out,
            layout,
            empty: true,
            close,
        }
    }

    /// Write what precedes the next member and return the buffer.
    fn next(&mut self) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        match self.layout {
            Layout::Compact => {}
            Layout::Inline if self.empty => {}
            Layout::Inline => self.out.push(' '),
            Layout::Block(indent) => newline(self.out, indent),
        }
        self.empty = false;
        self.out
    }
}

impl Drop for Seq<'_> {
    fn drop(&mut self) {
        if let (Layout::Block(indent), false) = (self.layout, self.empty) {
            newline(self.out, indent.saturating_sub(2));
        }
        self.out.push(self.close);
    }
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', indent));
}

/// A JSON object being written; `}` follows when it is dropped.
pub struct Object<'a>(Seq<'a>);

impl<'a> Object<'a> {
    fn new(out: &'a mut String, layout: Layout) -> Self {
        Object(Seq::open(out, layout, '{', '}'))
    }

    /// Start member `key` and return the buffer its value goes into.
    fn key(&mut self, key: &str) -> &mut String {
        let colon = if self.0.layout == Layout::Compact {
            ":"
        } else {
            ": "
        };
        let out = self.0.next();
        string(out, key);
        out.push_str(colon);
        out
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        string(self.key(key), v);
        self
    }

    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        num(self.key(key), v);
        self
    }

    pub fn int(&mut self, key: &str, v: impl Int) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.raw(key, if v { "true" } else { "false" })
    }

    pub fn null(&mut self, key: &str) -> &mut Self {
        self.raw(key, "null")
    }

    /// `v` written by `put` (e.g. `Object::num`), or `null` when absent.
    pub fn opt<T>(
        &mut self,
        key: &str,
        v: Option<T>,
        put: impl for<'s> FnOnce(&'s mut Self, &str, T) -> &'s mut Self,
    ) -> &mut Self {
        match v {
            Some(v) => put(self, key, v),
            None => self.null(key),
        }
    }

    /// An already-rendered JSON value, copied verbatim.
    pub fn raw(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key).push_str(v);
        self
    }

    /// An inline array of integers: `[1, 2]`.
    pub fn ints<T: Int>(&mut self, key: &str, vs: impl IntoIterator<Item = T>) -> &mut Self {
        {
            let mut a = self.array(key, Layout::Inline);
            for v in vs {
                let _ = write!(a.0.next(), "{v}");
            }
        }
        self
    }

    pub fn object(&mut self, key: &str, layout: Layout) -> Object<'_> {
        Object::new(self.key(key), layout)
    }

    pub fn array(&mut self, key: &str, layout: Layout) -> Array<'_> {
        Array(Seq::open(self.key(key), layout, '[', ']'))
    }
}

/// A JSON array being written; `]` follows when it is dropped.
pub struct Array<'a>(Seq<'a>);

impl Array<'_> {
    /// Append an object element.
    pub fn object(&mut self, layout: Layout) -> Object<'_> {
        Object::new(self.0.next(), layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpce_testkit::prelude::*;

    fn quoted(s: &str) -> String {
        let mut out = String::new();
        string(&mut out, s);
        out
    }

    fn number(v: f64) -> String {
        let mut out = String::new();
        num(&mut out, v);
        out
    }

    #[test]
    fn three_layouts_nest() {
        let doc = document(Layout::Block(2), |o| {
            o.str("name", "p").int("n", 3usize);
            o.object("summary", Layout::Inline)
                .int("errors", 0)
                .bool("ok", true);
            o.ints("ranks", [1u64, 2]).ints("none", Vec::<u64>::new());
            {
                let mut rows = o.array("rows", Layout::Block(4));
                rows.object(Layout::Compact).num("t", 0.5).null("x");
                rows.object(Layout::Block(6))
                    .opt("v", Some(1.25), Object::num);
            }
            o.array("empty", Layout::Block(4));
        });
        assert_eq!(
            doc,
            "{\n  \"name\": \"p\",\n  \"n\": 3,\n  \"summary\": {\"errors\": 0, \"ok\": true},\n  \
             \"ranks\": [1, 2],\n  \"none\": [],\n  \"rows\": [\n    {\"t\":0.5,\"x\":null},\n    \
             {\n      \"v\": 1.25\n    }\n  ],\n  \"empty\": []\n}\n"
        );
    }

    #[test]
    fn block_at_column_zero_closes_at_column_zero() {
        // The Chrome trace envelope: one record per line, no indent.
        let doc = document(Layout::Compact, |o| {
            let mut recs = o.array("traceEvents", Layout::Block(0));
            recs.object(Layout::Compact).int("a", 1);
            recs.object(Layout::Compact)
                .opt("b", None::<f64>, Object::num);
        });
        assert_eq!(doc, "{\"traceEvents\":[\n{\"a\":1},\n{\"b\":null}\n]}\n");
    }

    #[test]
    fn string_escapes_quotes_backslash_and_controls() {
        // `\n`, `\r`, `\t` take the two-character form; other control
        // characters the `\u00XX` form; keys are escaped like values.
        assert_eq!(
            quoted("a\"b\\c\nd\re\tf\u{1}"),
            r#""a\"b\\c\nd\re\tf\u0001""#
        );
        assert_eq!(quoted("\u{1f}\u{7f}é日"), "\"\\u001f\u{7f}é日\"");
        assert_eq!(
            document(Layout::Compact, |o| {
                o.str("k\"", "v");
            }),
            "{\"k\\\"\":\"v\"}\n"
        );
    }

    /// Undo [`string`], accepting only the escapes it is allowed to
    /// produce — so a round trip also proves nothing else was escaped.
    fn decode(lit: &str) -> Result<String, String> {
        let body = lit
            .strip_prefix('"')
            .and_then(|b| b.strip_suffix('"'))
            .ok_or_else(|| format!("not a quoted literal: {lit:?}"))?;
        let mut out = String::new();
        let mut it = body.chars();
        while let Some(c) = it.next() {
            match c {
                '\\' => out.push(match it.next() {
                    Some('"') => '"',
                    Some('\\') => '\\',
                    Some('n') => '\n',
                    Some('r') => '\r',
                    Some('t') => '\t',
                    Some('u') => {
                        let hex: String = it.by_ref().take(4).collect();
                        let v =
                            u32::from_str_radix(&hex, 16).map_err(|e| format!("{hex:?}: {e}"))?;
                        let c = char::from_u32(v).filter(|c| (*c as u32) < 0x20);
                        match c {
                            Some(c) if !matches!(c, '\n' | '\r' | '\t') => c,
                            _ => return Err(format!("needless \\u{hex} escape")),
                        }
                    }
                    other => return Err(format!("unknown escape {other:?}")),
                }),
                '"' => return Err("unescaped quote".into()),
                c if (c as u32) < 0x20 => return Err(format!("raw control {:#x}", c as u32)),
                c => out.push(c),
            }
        }
        Ok(out)
    }

    #[test]
    fn escape_round_trips_and_touches_nothing_else() {
        let ch = weighted(vec![
            (
                2,
                u32_in(0, 0x1f).map(|v| char::from_u32(v).expect("below 0x20")),
            ),
            (1, elem_of(vec!['"', '\\', '/', '\u{7f}'])),
            (3, char_printable()),
            (
                1,
                u32_in(0x80, 0x10_ffff).map(|v| char::from_u32(v).unwrap_or('\u{fffd}')),
            ),
        ]);
        let strings = vec_of(ch, 0, 40).map(|cs| cs.into_iter().collect::<String>());
        Check::new("json::escape_round_trips")
            .cases(2000)
            .run(&strings, |s| {
                let lit = quoted(s);
                prop_assert_eq!(decode(&lit).map_err(PropError::fail)?, s.clone());
                Ok(())
            });
    }

    #[test]
    fn numbers_never_use_exponents() {
        assert_eq!(number(1.5e-9 * 1e6), "0.0015");
        assert_eq!(number(2e6), "2000000");
        assert_eq!(number(1e-7), "0.0000001");
        assert_eq!(number(1e21), "1000000000000000000000");
        assert_eq!(number(-0.25), "-0.25");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_numbers_are_refused() {
        number(f64::NAN);
    }
}
