//! The workspace's one JSON writer (there is no serde in the tree).
//!
//! Every checked-in `BENCH_*.json` is gated by `git diff --exit-code`,
//! so the bytes must be a pure function of the values: fields render in
//! insertion order, floats only as [`fixed`] at a precision the caller
//! names, and a non-finite float is refused, not written as invalid
//! JSON. An [`Object`] prints inline (`{"a": 1, "b": [2, 3]}`, one
//! table row per line) or, through [`Object::document`], one field per
//! line with [`Object::rows`] arrays one element per line beneath it.
//! No parser and no value tree: the writers only ever emit.

use std::fmt::{self, Display, Write as _};

/// Escapes `s` for the inside of a JSON string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A float at a fixed number of decimals — the only form a float is
/// written in, so how many digits a baseline shows is the caller's
/// decision, the same in every run.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(f64, usize);

/// `v` at exactly `precision` decimals.
///
/// # Panics
///
/// Panics on NaN or an infinity: JSON cannot carry them.
pub fn fixed(v: f64, precision: usize) -> Fixed {
    assert!(v.is_finite(), "JSON cannot carry the non-finite number {v}");
    Fixed(v, precision)
}

impl Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.*}", self.1, self.0)
    }
}

/// Values whose `Display` is already JSON: integers, booleans, [`Fixed`].
pub trait Literal: Display {}
impl Literal for bool {}
impl Literal for u64 {}
impl Literal for usize {}
impl Literal for Fixed {}

/// An inline array, `[a, b]`, for [`Object::raw`].
pub fn array<T: Literal>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// A JSON object under construction; `Display` renders it inline.
#[derive(Debug, Default)]
pub struct Object(Vec<String>);

impl Object {
    /// An already-rendered value, embedded as it stands: an [`array()`],
    /// a nested [`Object`], a document another writer produced.
    #[must_use]
    pub fn raw(mut self, key: &str, json: impl Display) -> Object {
        self.0.push(format!("\"{}\": {json}", escape(key)));
        self
    }

    /// An integer, boolean or [`fixed`]-precision float field.
    #[must_use]
    pub fn lit(self, key: &str, v: impl Literal) -> Object {
        self.raw(key, v)
    }

    /// A string field, escaped.
    #[must_use]
    pub fn str(self, key: &str, s: &str) -> Object {
        self.raw(key, format_args!("\"{}\"", escape(s)))
    }

    /// An array field of a [`document`](Object::document), one inline
    /// object per line.
    #[must_use]
    pub fn rows(self, key: &str, rows: impl IntoIterator<Item = Object>) -> Object {
        let rows: Vec<String> = rows.into_iter().map(|r| format!("    {r}")).collect();
        self.raw(key, format_args!("[\n{}\n  ]", rows.join(",\n")))
    }

    /// The object as a whole file: one field per line, newline-ended.
    pub fn document(&self) -> String {
        format!("{{\n  {}\n}}\n", self.0.join(",\n  "))
    }
}

impl Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.0.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}\t\r"), "\\u0001\\t\\r");
        let o = Object::default().str("k\"", "v\\\u{1f}");
        assert_eq!(o.to_string(), r#"{"k\"": "v\\\u001f"}"#);
    }

    #[test]
    fn fields_keep_insertion_order_and_floats_their_precision() {
        let row = Object::default()
            .str("name", "z")
            .lit("a", 3u64)
            .lit("ok", true)
            .lit("f", fixed(1.0, 4))
            .raw("s", array([0.5, 2.0 / 3.0].map(|v| fixed(v, 3))))
            .raw("n", array([7usize, 8]));
        assert_eq!(
            row.to_string(),
            r#"{"name": "z", "a": 3, "ok": true, "f": 1.0000, "s": [0.500, 0.667], "n": [7, 8]}"#
        );
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn a_non_finite_float_is_refused() {
        let _ = fixed(f64::NAN, 2);
    }

    #[test]
    fn a_document_is_line_per_field_with_rows_and_raw_embeds() {
        let rows = (1..=2u64).map(|i| Object::default().lit("i", i));
        let doc = Object::default()
            .lit("smoke", false)
            .rows("workloads", rows)
            .raw("trace", r#"{"traceEvents": []}"#)
            .document();
        assert_eq!(
            doc,
            "{\n  \"smoke\": false,\n  \"workloads\": [\n    {\"i\": 1},\n    {\"i\": 2}\n  ],\n  \
             \"trace\": {\"traceEvents\": []}\n}\n"
        );
    }
}
