//! Report types: how regenerated tables and figures are represented and
//! rendered.

use std::fmt::Write as _;
use std::io::Write as _;

use estima_core::json::{append_utf8, write_json_string};

/// One regenerated experiment (a table or figure from the paper).
#[derive(Debug, Clone)]
pub struct Report {
    /// Short identifier, e.g. `fig05` or `table4`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Content sections in presentation order.
    pub sections: Vec<Section>,
    /// Machine-readable scalar metrics (e.g. per-workload max relative
    /// error), in insertion order. Rendered by [`Report::to_json`] so the
    /// accuracy trajectory can be tracked across commits.
    pub metrics: Vec<(String, f64)>,
}

/// A section of a report.
#[derive(Debug, Clone)]
pub enum Section {
    /// Free-form commentary.
    Text(String),
    /// A table with a header row and data rows.
    Table {
        /// Table caption.
        title: String,
        /// Column names.
        header: Vec<String>,
        /// Data rows (already formatted).
        rows: Vec<Vec<String>>,
    },
    /// One or more named series over core counts (a "figure").
    Series {
        /// Figure caption.
        title: String,
        /// Named `(cores, value)` series.
        series: Vec<(String, Vec<(u32, f64)>)>,
    },
}

impl Report {
    /// Create an empty report.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Report {
            id: id.into(),
            title: title.into(),
            sections: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Record a machine-readable scalar metric (e.g. a max relative error).
    pub fn metric(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Append a text section.
    pub fn text(&mut self, text: impl Into<String>) -> &mut Self {
        self.sections.push(Section::Text(text.into()));
        self
    }

    /// Append a table section.
    pub fn table(
        &mut self,
        title: impl Into<String>,
        header: Vec<String>,
        rows: Vec<Vec<String>>,
    ) -> &mut Self {
        self.sections.push(Section::Table {
            title: title.into(),
            header,
            rows,
        });
        self
    }

    /// Append a series (figure) section.
    pub fn series(
        &mut self,
        title: impl Into<String>,
        series: Vec<(String, Vec<(u32, f64)>)>,
    ) -> &mut Self {
        self.sections.push(Section::Series {
            title: title.into(),
            series,
        });
        self
    }

    /// Render the report as markdown (series become CSV-style blocks).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}\n", self.id, self.title);
        for section in &self.sections {
            match section {
                Section::Text(text) => {
                    let _ = writeln!(out, "{text}\n");
                }
                Section::Table {
                    title,
                    header,
                    rows,
                } => {
                    let _ = writeln!(out, "### {title}\n");
                    let _ = writeln!(out, "| {} |", header.join(" | "));
                    let _ = writeln!(
                        out,
                        "|{}|",
                        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
                    );
                    for row in rows {
                        let _ = writeln!(out, "| {} |", row.join(" | "));
                    }
                    out.push('\n');
                }
                Section::Series { title, series } => {
                    let _ = writeln!(out, "### {title}\n");
                    let _ = writeln!(out, "```csv");
                    let names: Vec<&str> = series.iter().map(|(n, _)| n.as_str()).collect();
                    let _ = writeln!(out, "cores,{}", names.join(","));
                    if let Some((_, first)) = series.first() {
                        for (idx, (cores, _)) in first.iter().enumerate() {
                            let mut line = format!("{cores}");
                            for (_, points) in series {
                                let value = points.get(idx).map(|(_, v)| *v).unwrap_or(f64::NAN);
                                let _ = write!(line, ",{value:.6}");
                            }
                            let _ = writeln!(out, "{line}");
                        }
                    }
                    let _ = writeln!(out, "```");
                    out.push('\n');
                }
            }
        }
        out
    }
}

impl Report {
    /// Render the report's identity and metrics as one JSON object:
    /// `{"id": ..., "title": ..., "metrics": {...}}`. Non-finite metric
    /// values become `null` (JSON has no NaN).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        append_utf8(&mut out, |out| {
            out.extend_from_slice(b"{\"id\":");
            write_json_string(&self.id, out);
            out.extend_from_slice(b",\"title\":");
            write_json_string(&self.title, out);
            out.extend_from_slice(b",\"metrics\":{");
            for (index, (name, value)) in self.metrics.iter().enumerate() {
                if index > 0 {
                    out.push(b',');
                }
                write_json_string(name, out);
                if value.is_finite() {
                    let _ = write!(out, ":{value:.6}");
                } else {
                    out.extend_from_slice(b":null");
                }
            }
            out.extend_from_slice(b"}}");
        });
        out
    }
}

/// Format a fraction as a percentage with one decimal, or `-` for NaN.
pub fn pct(value: f64) -> String {
    if value.is_finite() {
        format!("{:.1}", value * 100.0)
    } else {
        "-".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_contains_all_sections() {
        let mut r = Report::new("fig99", "demo");
        r.text("hello");
        r.table(
            "a table",
            vec!["Benchmark".into(), "Error".into()],
            vec![vec!["genome".into(), "4.4".into()]],
        );
        r.series("a figure", vec![("time".into(), vec![(1, 1.0), (2, 0.5)])]);
        let md = r.to_markdown();
        assert!(md.contains("fig99"));
        assert!(md.contains("hello"));
        assert!(md.contains("| genome | 4.4 |"));
        assert!(md.contains("cores,time"));
        assert!(md.contains("2,0.500000"));
    }

    #[test]
    fn pct_formats_fractions() {
        assert_eq!(pct(0.315), "31.5");
        assert_eq!(pct(f64::NAN), "-");
    }

    #[test]
    fn json_includes_metrics_and_nulls_nan() {
        let mut r = Report::new("table4", "errors \"quoted\"");
        r.metric("genome/max_rel_error", 0.044);
        r.metric("broken", f64::NAN);
        let json = r.to_json();
        assert_eq!(
            json,
            "{\"id\":\"table4\",\"title\":\"errors \\\"quoted\\\"\",\"metrics\":{\"genome/max_rel_error\":0.044000,\"broken\":null}}"
        );
    }
}
