//! The one tabular report type: rows of typed cells under columns declared
//! once, rendered as an aligned text table, as CSV and as a BENCH JSON
//! document.

/// One value of a [`Table`].
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A count.
    Int(u64),
    /// A measurement: the value, its decimals in CSV and JSON (`None`: the
    /// shortest text that reads back exactly) and its decimals in the
    /// aligned table.
    Float(f64, Option<usize>, usize),
    /// Free text.
    Text(String),
    /// A yes/no: `0` / `1` in CSV, `false` / `true` in JSON and the given
    /// `[no, yes]` words in the aligned table.
    Flag(bool, [&'static str; 2]),
}

impl Cell {
    /// A measurement printed with `in_files` decimals in CSV and JSON and
    /// `in_table` in the aligned table.
    pub fn float(value: f64, in_files: usize, in_table: usize) -> Cell {
        Cell::Float(value, Some(in_files), in_table)
    }

    /// Free text.
    pub fn text(text: impl Into<String>) -> Cell {
        Cell::Text(text.into())
    }

    /// The cell as the aligned table prints it.
    fn shown(&self) -> String {
        match self {
            Cell::Float(value, _, decimals) => format!("{value:.decimals$}"),
            Cell::Flag(flag, words) => words[usize::from(*flag)].to_string(),
            other => other.in_csv(),
        }
    }

    /// The cell as one unquoted CSV field.
    pub(crate) fn in_csv(&self) -> String {
        match self {
            Cell::Int(value) => value.to_string(),
            Cell::Float(value, Some(decimals), _) => format!("{value:.decimals$}"),
            Cell::Float(value, None, _) => value.to_string(),
            Cell::Text(text) => text.clone(),
            Cell::Flag(flag, _) => u8::from(*flag).to_string(),
        }
    }

    /// The cell as a JSON value: a number that is not finite is `null` and
    /// text is escaped, so the document is well-formed whatever was measured.
    fn in_json(&self) -> String {
        match self {
            Cell::Float(value, ..) if !value.is_finite() => "null".to_string(),
            Cell::Flag(flag, _) => flag.to_string(),
            Cell::Text(text) => json_string(text),
            other => other.in_csv(),
        }
    }
}

/// `text` as a JSON string.
fn json_string(text: &str) -> String {
    let mut out = String::from('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out + "\""
}

/// A count, whatever unsigned width it was kept in.
impl<T: TryInto<u64>> From<T> for Cell
where
    T::Error: std::fmt::Debug,
{
    fn from(count: T) -> Cell {
        Cell::Int(count.try_into().expect("a count fits 64 bits"))
    }
}

/// One column of a row type `R`, declared once for every rendering: its key
/// in CSV and JSON (empty: in neither), its heading in the aligned table
/// (empty: not in it), and how a row yields its cell — value and precision.
pub struct Column<R> {
    key: &'static str,
    heading: &'static str,
    cell: fn(&R) -> Cell,
}

impl<R> Column<R> {
    /// A column; see the type for what an empty key or heading means.
    pub fn new(key: &'static str, heading: &'static str, cell: fn(&R) -> Cell) -> Self {
        Column { key, heading, cell }
    }
}

/// A titled table of [`Cell`]s. A column with an empty key is left out of
/// CSV and JSON; one with an empty heading is left out of the aligned table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    /// Scalars of the JSON document, written before its rows.
    meta: Vec<(&'static str, Cell)>,
    /// `(key, heading)` per column.
    columns: Vec<(String, String)>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with the given title and `(key, heading)` columns.
    pub fn new<K: Into<String>, H: Into<String>>(
        title: impl Into<String>,
        columns: impl IntoIterator<Item = (K, H)>,
    ) -> Table {
        Table {
            title: title.into(),
            meta: Vec::new(),
            columns: columns
                .into_iter()
                .map(|(key, heading)| (key.into(), heading.into()))
                .collect(),
            rows: Vec::new(),
        }
    }

    /// The table of `rows` under the columns declared for their type.
    pub fn of<'a, R: 'a>(
        title: impl Into<String>,
        columns: &[Column<R>],
        rows: impl IntoIterator<Item = &'a R>,
    ) -> Table {
        let mut table = Table::new(title, columns.iter().map(|c| (c.key, c.heading)));
        for row in rows {
            table.push_row(columns.iter().map(|c| (c.cell)(row)));
        }
        table
    }

    /// Add one scalar to the head of the JSON document.
    pub fn meta(mut self, key: &'static str, value: impl Into<Cell>) -> Table {
        self.meta.push((key, value.into()));
        self
    }

    /// Append a row: one cell per column.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = Cell>) {
        let row: Vec<Cell> = row.into_iter().collect();
        assert_eq!(row.len(), self.columns.len(), "one cell per column");
        self.rows.push(row);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The columns that have a key (`in_files`) or else a heading: their
    /// names, and every row's cells rendered by `text`.
    pub(crate) fn project(
        &self,
        in_files: bool,
        text: fn(&Cell) -> String,
    ) -> (Vec<&str>, Vec<Vec<String>>) {
        let name = |i: &usize| -> &str {
            let (key, heading) = &self.columns[*i];
            if in_files {
                key
            } else {
                heading
            }
        };
        let kept: Vec<usize> = (0..self.columns.len())
            .filter(|i| !name(i).is_empty())
            .collect();
        let cells = |row: &Vec<Cell>| kept.iter().map(|&i| text(&row[i])).collect();
        (
            kept.iter().map(name).collect(),
            self.rows.iter().map(cells).collect(),
        )
    }

    /// Render the aligned table: title, headings, a rule, and the rows,
    /// every column right-aligned to its widest cell.
    pub fn render(&self) -> String {
        let (header, rows) = self.project(false, Cell::shown);
        let widths: Vec<usize> = (0..header.len())
            .map(|i| {
                let cells = rows.iter().map(|row| row[i].len());
                cells.fold(header[i].len(), usize::max)
            })
            .collect();
        let line = |cells: &mut dyn Iterator<Item = &str>| -> String {
            let padded: Vec<String> = cells
                .zip(&widths)
                .map(|(cell, &width)| format!("{cell:>width$}"))
                .collect();
            padded.join("  ") + "\n"
        };

        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        if !header.is_empty() {
            out.push_str(&line(&mut header.iter().copied()));
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
            out.push('\n');
        }
        for row in &rows {
            out.push_str(&line(&mut row.iter().map(String::as_str)));
        }
        out
    }

    /// Render the BENCH JSON document: the scalars added with
    /// [`Table::meta`], then one object per row under `"rows"`.
    pub fn to_json(&self) -> String {
        let (keys, rows) = self.project(true, Cell::in_json);
        let mut out = String::from("{\n");
        for (key, value) in &self.meta {
            out.push_str(&format!("  {}: {},\n", json_string(key), value.in_json()));
        }
        out.push_str("  \"rows\": [\n");
        let object = |row: &Vec<String>| {
            let fields = keys
                .iter()
                .zip(row)
                .map(|(key, value)| format!("{}: {value}", json_string(key)));
            format!("    {{{}}}", fields.collect::<Vec<_>>().join(", "))
        };
        if !rows.is_empty() {
            out.push_str(&rows.iter().map(object).collect::<Vec<_>>().join(",\n"));
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_json;

    fn text_row<const N: usize>(cells: [&str; N]) -> [Cell; N] {
        cells.map(Cell::text)
    }

    #[test]
    fn renders_title_header_and_rows() {
        let mut t = Table::new("Figure A", [("x", "failed %"), ("g", "G"), ("ng", "NG")]);
        t.push_row(text_row(["0", "0.0", "0.1"]));
        t.push_row(text_row(["30", "10.2", "11.0"]));
        let s = t.render();
        assert!(s.starts_with("Figure A\n"));
        assert!(s.contains("failed %"));
        assert!(s.contains("10.2"));
        assert_eq!(s.lines().count(), 5, "{s}");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn columns_are_right_aligned_to_the_widest_cell() {
        let mut t = Table::new("", [("", "a"), ("", "bbbb"), ("only_in_files", "")]);
        t.push_row(text_row(["12345", "1", "unseen"]));
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "    a  bbbb");
        assert_eq!(lines[1], "-----------");
        assert_eq!(lines[2], "12345     1");
    }

    #[test]
    fn float_rows_are_formatted() {
        let mut t = Table::new("x", [("a", "a"), ("b", "b")]);
        t.push_row([Cell::float(1.23456, 2, 2), Cell::float(7.0, 3, 2)]);
        assert!(t.render().contains("1.23"));
        assert!(t.render().contains("7.00"));
        assert!(t.to_json().contains("{\"a\": 1.23, \"b\": 7.000}"));
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new("t", [("c", "c")]);
        t.push_row([Cell::text("v")]);
        assert_eq!(format!("{t}"), t.render());
    }

    #[test]
    fn empty_table_renders_only_the_title() {
        let t = Table::new("just a title", Vec::<(&str, &str)>::new());
        assert_eq!(t.render(), "just a title\n");
        assert!(t.is_empty());
        validate_json(&t.to_json()).expect("no rows is still a document");
    }

    #[test]
    fn declared_columns_feed_every_rendering() {
        // (engine, events, messages per delivery, replayed): the second leg
        // delivered nothing and carries a name no one escaped by hand.
        type Leg = (&'static str, u64, f64, bool);
        let columns = [
            Column::new("engine", "engine", |l: &Leg| Cell::text(l.0)),
            Column::new("events", "", |l| l.1.into()),
            Column::new("", "kevents", |l| Cell::float(l.1 as f64 / 1e3, 1, 1)),
            Column::new("per_delivery", "msgs/delivery", |l| Cell::float(l.2, 3, 2)),
            Column::new("replayed", "replayed", |l| Cell::Flag(l.3, ["NO", "yes"])),
        ];
        let legs: [Leg; 2] = [
            ("wheel", 6926, 1.1756, true),
            ("a \"quoted\\\" leg\n", 0, f64::INFINITY, false),
        ];
        let table = Table::of("legs", &columns, &legs)
            .meta("bench", Cell::text("legs"))
            .meta("speedup", Cell::float(f64::NAN, 2, 2));
        let json = table.to_json();
        validate_json(&json).unwrap_or_else(|e| panic!("{e}:\n{json}"));
        assert!(
            json.starts_with("{\n  \"bench\": \"legs\",\n  \"speedup\": null,\n  \"rows\": [\n")
        );
        assert!(json.contains(
            "{\"engine\": \"wheel\", \"events\": 6926, \"per_delivery\": 1.176, \"replayed\": true},\n"
        ));
        assert!(
            json.contains("\"a \\\"quoted\\\\\\\" leg\\u000a\""),
            "{json}"
        );
        assert!(json.ends_with("\"per_delivery\": null, \"replayed\": false}\n  ]\n}\n"));
        let shown = table.render();
        assert!(
            shown.contains("kevents  msgs/delivery  replayed\n"),
            "{shown}"
        );
        assert!(shown.contains("6.9           1.18       yes\n"), "{shown}");
        assert!(shown.contains("inf        NO\n"), "{shown}");
    }
}
