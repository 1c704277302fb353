//! Result emission: CSV files and markdown summaries under `results/`.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A completed experiment's artifacts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Experiment id, e.g. `"fig9"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Markdown body: measured results and paper-vs-measured notes.
    pub markdown: String,
    /// CSV artifacts: `(file stem, contents)`.
    pub(crate) csv: Vec<(String, String)>,
}

impl Report {
    /// Creates an empty report.
    pub(crate) fn new(id: impl Into<String>, title: impl Into<String>) -> Report {
        Report {
            id: id.into(),
            title: title.into(),
            markdown: String::new(),
            csv: Vec::new(),
        }
    }

    /// Appends a markdown line.
    pub(crate) fn line(&mut self, s: impl AsRef<str>) {
        self.markdown.push_str(s.as_ref());
        self.markdown.push('\n');
    }

    /// Attaches a CSV artifact.
    pub(crate) fn attach_csv(&mut self, stem: impl Into<String>, contents: String) {
        self.csv.push((stem.into(), contents));
    }

    /// Writes all artifacts into `dir` (created if needed): each CSV as
    /// `<stem>.csv` and the markdown as `<id>.md`. Returns written paths.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (stem, contents) in &self.csv {
            let path = dir.join(format!("{stem}.csv"));
            fs::write(&path, contents)?;
            written.push(path);
        }
        let md_path = dir.join(format!("{}.md", self.id));
        let mut doc = format!("# {} — {}\n\n", self.id, self.title);
        doc.push_str(&self.markdown);
        fs::write(&md_path, doc)?;
        written.push(md_path);
        Ok(written)
    }
}

/// Builds a CSV string from a header and rows of formatted cells.
pub(crate) fn csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = header.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Builds a markdown table.
pub(crate) fn md_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", header.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// Formats a ratio as a percentage string like `"96.2%"`.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// A paper-vs-measured comparison row.
pub(crate) fn compare_line(what: &str, paper: &str, measured: &str) -> String {
    format!("- **{what}** — paper: {paper}; measured: {measured}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_joins_header_and_rows() {
        let s = csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(s, "a,b\n1,2\n");
    }

    #[test]
    fn md_table_renders_header_and_rows() {
        let t = md_table(&["x", "y"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| x | y |"));
        assert!(t.contains("| 1 | 2 |"));
    }

    #[test]
    fn csv_shapes() {
        let s = csv(
            &["h1", "h2"],
            &[vec!["a".into(), "b".into()], vec!["c".into(), "d".into()]],
        );
        assert_eq!(s.lines().count(), 3);
        assert!(s.starts_with("h1,h2\n"));
    }

    #[test]
    fn md_table_shapes() {
        let t = md_table(&["a"], &[vec!["v".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "|---|");
    }

    #[test]
    fn report_roundtrip() {
        let dir = std::env::temp_dir().join(format!("easched_report_{}", std::process::id()));
        let mut r = Report::new("figX", "test");
        r.line("hello");
        r.attach_csv("figX_data", "a,b\n1,2\n".into());
        let written = r.write_to(&dir).unwrap();
        assert_eq!(written.len(), 2);
        let md = fs::read_to_string(dir.join("figX.md")).unwrap();
        assert!(md.contains("hello"));
        let data = fs::read_to_string(dir.join("figX_data.csv")).unwrap();
        assert!(data.contains("1,2"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.962), "96.2%");
        assert_eq!(pct(1.0), "100.0%");
    }
}
