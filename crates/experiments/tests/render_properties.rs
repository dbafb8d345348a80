//! Property tests of the one renderer every `repro` lane and bench goes
//! through: arbitrary rows (strings holding `,`, `"`, `|`, CR or LF,
//! non-finite floats, rows missing keys, rows without a record kind) must
//! come back cell for cell from the CSV through a minimal RFC 4180 reader,
//! under a header that is the key union in first-appearance order; the
//! Markdown must hold one table per record kind with every `|` escaped.

use proptest::prelude::*;

use rental_experiments::{rows_csv, rows_markdown, MARKDOWN_ROWS};
use rental_obs::json::{number, JsonRow};

/// Characters string values are drawn from: every one the CSV quotes or
/// the Markdown escapes, plus ordinary text.
const ALPHABET: [char; 10] = ['a', 'Z', '7', ' ', ',', '"', '|', '\r', '\n', '\\'];
/// Field keys (never `record`, which carries the kind).
const KEYS: [&str; 6] = ["x", "y", "z", "cost", "name", "p,q"];
/// Record kinds; `None` leaves the row without a `record` key.
const KINDS: [Option<&str>; 4] = [Some("fleet"), Some("epoch"), Some("a|b"), None];

#[derive(Debug, Clone)]
enum Value {
    Str(String),
    F64(f64),
    U64(u64),
    Bool(bool),
}

impl Value {
    /// The cell text the renderings must carry for this value.
    fn text(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::F64(f) => number(*f),
            Value::U64(u) => u.to_string(),
            Value::Bool(b) => b.to_string(),
        }
    }
}

#[derive(Debug, Clone)]
struct Row {
    kind: Option<&'static str>,
    fields: Vec<(&'static str, Value)>,
}

impl Row {
    fn json(&self) -> JsonRow {
        let mut row = JsonRow::new();
        if let Some(kind) = self.kind {
            row = row.str("record", kind);
        }
        for (key, value) in &self.fields {
            row = match value {
                Value::Str(s) => row.str(key, s),
                Value::F64(f) => row.f64(key, *f),
                Value::U64(u) => row.u64(key, *u),
                Value::Bool(b) => row.bool(key, *b),
            };
        }
        row
    }

    /// `(key, text)` of every field, `record` first when present.
    fn cells(&self) -> Vec<(&'static str, String)> {
        let kind = self.kind.map(|kind| ("record", kind.to_string()));
        kind.into_iter()
            .chain(self.fields.iter().map(|(key, value)| (*key, value.text())))
            .collect()
    }
}

fn value() -> impl Strategy<Value = Value> {
    let text = proptest::collection::vec(0..ALPHABET.len(), 0..8)
        .prop_map(|chars| chars.into_iter().map(|i| ALPHABET[i]).collect::<String>());
    let float = (0usize..5, -1e6f64..1e6)
        .prop_map(|(pick, finite)| [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, finite][pick]);
    (0u8..4, text, float, any::<u64>(), any::<bool>()).prop_map(|(pick, s, f, u, b)| match pick {
        0 => Value::Str(s),
        1 => Value::F64(f),
        2 => Value::U64(u),
        _ => Value::Bool(b),
    })
}

fn row() -> impl Strategy<Value = Row> {
    let fields = proptest::collection::vec((0..KEYS.len(), value()), 1..6);
    (0..KINDS.len(), fields).prop_map(|(kind, fields)| {
        // At least one field, at most one per key: a row may lack keys,
        // never repeat one.
        let mut unique: Vec<(&'static str, Value)> = Vec::new();
        for (key, value) in fields {
            if unique.iter().all(|(k, _)| *k != KEYS[key]) {
                unique.push((KEYS[key], value));
            }
        }
        Row {
            kind: KINDS[kind],
            fields: unique,
        }
    })
}

/// The union of the rows' keys in first-appearance order.
fn key_union<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Vec<&'static str> {
    let mut keys = Vec::new();
    for row in rows {
        for (key, _) in row.cells() {
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
    }
    keys
}

/// A minimal RFC 4180 reader: records of fields, `"`-quoted fields may
/// hold commas, line breaks and doubled quotes.
fn read_csv(text: &str) -> Vec<Vec<String>> {
    let mut records = Vec::new();
    let mut record = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if field.is_empty() => {
                while let Some(q) = chars.next() {
                    match q {
                        '"' if chars.peek() == Some(&'"') => {
                            chars.next();
                            field.push('"');
                        }
                        '"' => break,
                        q => field.push(q),
                    }
                }
            }
            ',' => record.push(std::mem::take(&mut field)),
            '\n' => {
                record.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut record));
            }
            c => field.push(c),
        }
    }
    assert!(
        field.is_empty() && record.is_empty(),
        "CSV must end with a line break"
    );
    records
}

/// The cells of one Markdown table line, split on the `|` no backslash
/// escapes.
fn markdown_cells(line: &str) -> Vec<String> {
    let inner = line
        .strip_prefix("| ")
        .and_then(|l| l.strip_suffix(" |"))
        .unwrap_or_else(|| panic!("not a table line: {line:?}"));
    let mut cells = vec![String::new()];
    let mut previous = ' ';
    for c in inner.chars() {
        if c == '|' && previous != '\\' {
            let cell = cells.last_mut().unwrap();
            assert_eq!(
                cell.pop(),
                Some(' '),
                "a separator follows a space: {line:?}"
            );
            cells.push(String::new());
        } else if !(c == ' ' && previous == '|' && cells.last().unwrap().is_empty()) {
            cells.last_mut().unwrap().push(c);
        }
        previous = c;
    }
    cells
}

fn escaped(text: &str) -> String {
    text.replace('|', "\\|").replace(['\r', '\n'], " ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csv_recovers_every_cell_under_the_key_union(
        rows in proptest::collection::vec(row(), 1..12),
    ) {
        let keys = key_union(&rows);
        let json: Vec<JsonRow> = rows.iter().map(Row::json).collect();
        let records = read_csv(&rows_csv(&json));
        prop_assert_eq!(records.len(), 1 + rows.len());
        prop_assert_eq!(&records[0], &keys);
        for (row, record) in rows.iter().zip(&records[1..]) {
            let cells = row.cells();
            let expected: Vec<String> = keys
                .iter()
                .map(|key| {
                    cells
                        .iter()
                        .find(|(k, _)| k == key)
                        .map_or(String::new(), |(_, text)| text.clone())
                })
                .collect();
            prop_assert_eq!(record, &expected);
        }
    }

    #[test]
    fn markdown_has_one_escaped_table_per_record_kind(
        rows in proptest::collection::vec(row(), 0..80),
    ) {
        let json: Vec<JsonRow> = rows.iter().map(Row::json).collect();
        let markdown = rows_markdown(&json);
        let mut kinds: Vec<Option<&str>> = Vec::new();
        for row in &rows {
            if !kinds.contains(&row.kind) {
                kinds.push(row.kind);
            }
        }
        // Blocks are separated by one blank line: a table, then (when rows
        // were left out) the line counting them.
        let mut blocks = markdown.split_terminator("\n\n");
        for kind in &kinds {
            let group: Vec<&Row> = rows.iter().filter(|row| row.kind == *kind).collect();
            let keys = key_union(group.iter().copied());
            let table: Vec<&str> = blocks.next().expect("one table per kind").lines().collect();
            let header: Vec<String> = keys.iter().map(|key| escaped(key)).collect();
            prop_assert_eq!(markdown_cells(table[0]), header);
            prop_assert_eq!(markdown_cells(table[1]), vec!["---".to_string(); keys.len()]);
            prop_assert_eq!(table.len(), 2 + group.len().min(MARKDOWN_ROWS));
            for (row, line) in group.iter().zip(&table[2..]) {
                let cells = row.cells();
                let expected: Vec<String> = keys
                    .iter()
                    .map(|key| {
                        cells
                            .iter()
                            .find(|(k, _)| k == key)
                            .map_or(String::new(), |(_, text)| escaped(text))
                    })
                    .collect();
                prop_assert_eq!(markdown_cells(line), expected);
            }
            if group.len() > MARKDOWN_ROWS {
                let elided = blocks.next().expect("a count of the elided rows");
                let count = format!("… {} more `", group.len() - MARKDOWN_ROWS);
                prop_assert!(elided.starts_with(&count), "{elided:?}");
                prop_assert!(!elided.contains('\n'));
            }
        }
        prop_assert!(blocks.next().is_none(), "no table beyond the record kinds");
    }
}
