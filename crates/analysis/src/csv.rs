//! The CSV rendering of a [`Table`] (hand-rolled — the experiment output is
//! simple enough that a dedicated dependency is not justified) and the
//! file writer every rendered document goes through.

use crate::{Cell, Table};
use std::io;
use std::path::Path;

impl Table {
    /// Render the columns that have a key as RFC-4180-style CSV text
    /// (fields containing commas, quotes or newlines are quoted).
    pub fn to_csv(&self) -> String {
        let (keys, rows) = self.project(true, Cell::in_csv);
        let line = |fields: &mut dyn Iterator<Item = &str>| -> String {
            fields.map(escape).collect::<Vec<_>>().join(",") + "\n"
        };
        let mut out = String::new();
        if !keys.is_empty() {
            out.push_str(&line(&mut keys.iter().copied()));
        }
        for row in &rows {
            out.push_str(&line(&mut row.iter().map(String::as_str)));
        }
        out
    }
}

/// Write a rendered document to a file, creating parent directories as
/// needed.
pub fn write_document(path: impl AsRef<Path>, text: &str) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, text)
}

fn escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let columns = [
            ("failed", "failed %"),
            ("g", "G"),
            ("", "shown only"),
            ("ok", ""),
        ];
        let mut table = Table::new("", columns);
        let ok = Cell::Flag(true, ["NO", "yes"]);
        table.push_row([
            Cell::text("0"),
            Cell::float(1.5, 1, 1),
            Cell::Int(7),
            ok.clone(),
        ]);
        table.push_row([
            Cell::Float(30.0, None, 0),
            Cell::Float(10.25, None, 0),
            Cell::Int(8),
            ok.clone(),
        ]);
        let s = table.to_csv();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines, ["failed,g,ok", "0,1.5,1", "30,10.25,1"]);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn escapes_commas_and_quotes() {
        let mut table = Table::new("", [("a", "a")]);
        table.push_row([Cell::text("hello, \"world\"")]);
        assert_eq!(
            table.to_csv().lines().nth(1).unwrap(),
            "\"hello, \"\"world\"\"\""
        );
    }

    #[test]
    fn empty_document() {
        let table = Table::new("untitled", Vec::<(&str, &str)>::new());
        assert!(table.is_empty());
        assert_eq!(table.to_csv(), "");
    }

    #[test]
    fn writes_to_disk() {
        let dir = std::env::temp_dir().join("treep-analysis-csv-test");
        let path = dir.join("nested").join("out.csv");
        let mut table = Table::new("", [("x", "x"), ("y", "y")]);
        table.push_row([Cell::Float(1.0, None, 0), Cell::Float(2.0, None, 0)]);
        write_document(&path, &table.to_csv()).expect("write csv");
        let read = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(read, "x,y\n1,2\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
