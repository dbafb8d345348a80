//! A minimal JSON writer — just enough to render one flat object per line
//! (JSONL) without pulling a serialization dependency into the offline
//! workspace. Shared by the metrics/event dumps here and by every `repro`
//! lane, whose CSV and Markdown renderings read the same rows.

use std::fmt::{self, Write as _};

/// Escapes a string for inclusion inside JSON double quotes.
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a finite `f64` as a JSON number; non-finite values (which JSON
/// cannot represent) become `null`.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Builder for one flat JSON object, keys in insertion order.
///
/// The row keeps its fields, so the same row that renders as one JSON line
/// can also become a CSV line or a Markdown table row: [`JsonRow::fields`]
/// yields each key with its value's text.
///
/// ```
/// use rental_obs::json::JsonRow;
/// let row = JsonRow::new().str("name", "probe").u64("count", 3);
/// assert_eq!(row.get("name"), Some("probe"));
/// assert_eq!(row.finish(), r#"{"name":"probe","count":3}"#);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonRow {
    fields: Vec<(String, Value)>,
}

/// One field's value: a string (quoted and escaped in JSON) or a literal
/// already in JSON form (number, `true`/`false`, `null`, raw value).
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Literal(String),
}

impl JsonRow {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonRow { fields: Vec::new() }
    }

    fn push(mut self, key: &str, value: Value) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Adds a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.push(key, Value::Str(value.to_string()))
    }

    /// Adds an unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Self {
        self.push(key, Value::Literal(value.to_string()))
    }

    /// Adds a `usize` field.
    pub fn usize(self, key: &str, value: usize) -> Self {
        self.u64(key, value as u64)
    }

    /// Adds a float field (`null` when non-finite).
    pub fn f64(self, key: &str, value: f64) -> Self {
        self.push(key, Value::Literal(number(value)))
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.push(key, Value::Literal(value.to_string()))
    }

    /// Adds a pre-rendered JSON value verbatim (caller guarantees validity).
    pub fn raw(self, key: &str, value: &str) -> Self {
        self.push(key, Value::Literal(value.to_string()))
    }

    /// Each key with its value's text: a string field's own characters
    /// (unescaped), any other field's JSON literal (`3`, `0.5`, `true`,
    /// `null`, a raw value).
    pub fn fields(&self) -> impl Iterator<Item = (&str, &str)> {
        self.fields.iter().map(|(key, value)| match value {
            Value::Str(text) | Value::Literal(text) => (key.as_str(), text.as_str()),
        })
    }

    /// The text of the field named `key`, if the row has one.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields().find(|&(k, _)| k == key).map(|(_, text)| text)
    }

    /// Closes the object and returns it as a single line.
    pub fn finish(self) -> String {
        self.to_string()
    }
}

impl fmt::Display for JsonRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('{')?;
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                f.write_char(',')?;
            }
            write!(f, "\"{}\":", escape(key))?;
            match value {
                Value::Str(text) => write!(f, "\"{}\"", escape(text))?,
                Value::Literal(text) => f.write_str(text)?,
            }
        }
        f.write_char('}')
    }
}

/// Renders rows as JSON Lines: one object per line, each line ended by
/// `\n`.
pub fn lines(rows: &[JsonRow]) -> String {
    let mut out = String::new();
    for row in rows {
        let _ = writeln!(out, "{row}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{01}"), "\\u0001");
    }

    #[test]
    fn renders_flat_objects_in_insertion_order() {
        let row = JsonRow::new()
            .str("s", "x")
            .u64("n", 7)
            .f64("f", 0.5)
            .bool("b", true)
            .raw("arr", "[1,2]")
            .finish();
        assert_eq!(row, r#"{"s":"x","n":7,"f":0.5,"b":true,"arr":[1,2]}"#);
    }

    #[test]
    fn fields_keep_keys_in_order_with_unescaped_text() {
        let row = JsonRow::new()
            .str("s", "a,\"b\"")
            .f64("f", f64::INFINITY)
            .bool("b", false);
        let fields: Vec<(&str, &str)> = row.fields().collect();
        assert_eq!(fields, [("s", "a,\"b\""), ("f", "null"), ("b", "false")]);
        assert_eq!(row.get("f"), Some("null"));
        assert_eq!(row.get("missing"), None);
        assert_eq!(lines(&[row.clone(), row]).lines().count(), 2);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(JsonRow::new().f64("x", f64::NAN).finish(), r#"{"x":null}"#);
    }
}
