//! Plain-text experiment reporting: aligned tables, ASCII boxplots and bar
//! charts (the figures), and CSV export for external plotting.

use crate::stats::BoxStats;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple aligned text table.
///
/// ```
/// use msim_core::report::Table;
/// let mut t = Table::new(&["scheduler", "median (s)"]);
/// t.row(&["Harmonic", "6.9"]);
/// t.row(&["Ratio", "10.9"]);
/// let s = t.render();
/// assert!(s.contains("Harmonic"));
/// ```
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must have as many cells as there are headers.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of already-owned cells.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with padded columns and a header rule.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let sep = if i + 1 == ncols { "\n" } else { "  " };
            let _ = write!(out, "{:<width$}{}", h, sep, width = widths[i]);
        }
        for (i, w) in widths.iter().enumerate() {
            let sep = if i + 1 == ncols { "\n" } else { "  " };
            let _ = write!(out, "{}{}", "-".repeat(*w), sep);
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                let sep = if i + 1 == ncols { "\n" } else { "  " };
                let _ = write!(out, "{:<width$}{}", cell, sep, width = widths[i]);
            }
        }
        out
    }

    /// Serialises the table as CSV (headers + rows, comma-separated, quoting
    /// cells that contain commas or quotes).
    pub fn to_csv(&self) -> String {
        fn esc(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let header_line: Vec<String> = self.headers.iter().map(|h| esc(h)).collect();
        let _ = writeln!(out, "{}", header_line.join(","));
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(|c| esc(c)).collect();
            let _ = writeln!(out, "{}", line.join(","));
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

/// Renders a labelled horizontal ASCII boxplot panel, like the paper's
/// Figs. 2–5. All rows share a common linear axis from `lo` to `hi`.
pub struct BoxPanel {
    title: String,
    axis_label: String,
    rows: Vec<(String, BoxStats)>,
    width: usize,
}

impl BoxPanel {
    /// Creates an empty panel. `width` is the plot width in characters.
    pub fn new(title: &str, axis_label: &str, width: usize) -> Self {
        BoxPanel {
            title: title.to_string(),
            axis_label: axis_label.to_string(),
            rows: Vec::new(),
            width: width.max(20),
        }
    }

    /// Adds one labelled box.
    pub fn add(&mut self, label: &str, stats: BoxStats) {
        self.rows.push((label.to_string(), stats));
    }

    /// Renders the panel. Each row shows whiskers (`|---`), the IQR box
    /// (`[===]`) and the median (`M`).
    pub fn render(&self) -> String {
        if self.rows.is_empty() {
            return format!("{}\n(no data)\n", self.title);
        }
        // Interpolated quartiles of small samples can lie outside the
        // whiskers (a whisker ends on a data point), so the axis spans both.
        let lo = self
            .rows
            .iter()
            .map(|(_, b)| b.whisker_lo.min(b.q1))
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .rows
            .iter()
            .map(|(_, b)| b.whisker_hi.max(b.q3))
            .fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).max(1e-12);
        let label_w = self.rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let scale =
            |x: f64| -> usize { (((x - lo) / span) * (self.width - 1) as f64).round() as usize };

        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        for (label, b) in &self.rows {
            let mut lane = vec![b' '; self.width];
            let wl = scale(b.whisker_lo);
            let wh = scale(b.whisker_hi);
            let q1 = scale(b.q1);
            let q3 = scale(b.q3);
            let med = scale(b.median);
            for c in lane.iter_mut().take(wh + 1).skip(wl) {
                *c = b'-';
            }
            lane[wl] = b'|';
            lane[wh] = b'|';
            for c in lane.iter_mut().take(q3 + 1).skip(q1) {
                *c = b'=';
            }
            lane[q1] = b'[';
            lane[q3] = b']';
            lane[med] = b'M';
            let _ = writeln!(
                out,
                "{:<label_w$}  {}",
                label,
                String::from_utf8(lane).expect("ascii lane"),
            );
        }
        let lo_str = format!("{lo:.1}");
        let hi_str = format!("{hi:.1}");
        let pad = self.width.saturating_sub(lo_str.len() + hi_str.len());
        let _ = writeln!(
            out,
            "{:<label_w$}  {}{}{}",
            "",
            lo_str,
            " ".repeat(pad),
            hi_str,
        );
        let _ = writeln!(
            out,
            "{:<label_w$}  {}",
            "",
            center(&self.axis_label, self.width)
        );
        out
    }
}

fn center(s: &str, width: usize) -> String {
    if s.len() >= width {
        return s.to_string();
    }
    let pad = (width - s.len()) / 2;
    format!("{}{}", " ".repeat(pad), s)
}

/// Renders a labelled horizontal bar chart (for single-value comparisons).
pub struct BarChart {
    title: String,
    rows: Vec<(String, f64)>,
    width: usize,
    unit: String,
}

impl BarChart {
    /// Creates an empty chart of the given plot width.
    pub fn new(title: &str, unit: &str, width: usize) -> Self {
        BarChart {
            title: title.to_string(),
            rows: Vec::new(),
            width: width.max(10),
            unit: unit.to_string(),
        }
    }

    /// Adds one labelled bar.
    pub fn add(&mut self, label: &str, value: f64) {
        self.rows.push((label.to_string(), value));
    }

    /// Renders; bars scale linearly from zero to the max value.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        if self.rows.is_empty() {
            let _ = writeln!(out, "(no data)");
            return out;
        }
        let max = self
            .rows
            .iter()
            .map(|(_, v)| *v)
            .fold(0.0, f64::max)
            .max(1e-12);
        let label_w = self.rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (label, v) in &self.rows {
            let n = ((v / max) * self.width as f64).round() as usize;
            let _ = writeln!(
                out,
                "{:<label_w$}  {:<width$}  {:.2} {}",
                label,
                "#".repeat(n),
                v,
                self.unit,
                width = self.width,
            );
        }
        out
    }
}

/// Standard output directory for regenerated figure data
/// (`<workspace>/target/figures`), creating it on first use.
///
/// Bench targets run with their *package* directory as CWD, so the helper
/// walks up to the workspace root (the nearest ancestor with a `target/`
/// build directory) before falling back to a local `target/figures`.
/// `MSP_FIGURES_DIR` overrides everything.
pub fn figures_dir() -> std::path::PathBuf {
    if let Ok(dir) = std::env::var("MSP_FIGURES_DIR") {
        let dir = std::path::PathBuf::from(dir);
        let _ = std::fs::create_dir_all(&dir);
        return dir;
    }
    let mut base = std::env::current_dir().unwrap_or_else(|_| ".".into());
    for _ in 0..4 {
        if base.join("target").is_dir() && base.join("Cargo.toml").is_file() {
            break;
        }
        if let Some(parent) = base.parent() {
            base = parent.to_path_buf();
        } else {
            break;
        }
    }
    let dir = base.join("target").join("figures");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["xxxxxx", "1"]);
        t.row(&["y", "2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a       "));
        assert!(lines[1].starts_with("------  "));
        assert!(lines[2].starts_with("xxxxxx  1"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_row() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["has,comma", "has\"quote"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    fn boxplot_renders_all_glyphs() {
        use crate::stats::BoxStats;
        let sample: Vec<f64> = (1..=20).map(|x| x as f64).collect();
        let mut p = BoxPanel::new("demo", "seconds", 40);
        p.add("row-a", BoxStats::from_sample(&sample));
        let s = p.render();
        assert!(s.contains('M'));
        assert!(s.contains('['));
        assert!(s.contains(']'));
        assert!(s.contains('|'));
        assert!(s.contains("seconds"));
    }

    #[test]
    fn boxplot_quartile_beyond_whisker_stays_on_the_axis() {
        use crate::stats::BoxStats;
        // q3 interpolates to 3.25; 10 is an outlier, so the upper whisker
        // stops at 1.
        let b = BoxStats::from_sample(&[1.0, 1.0, 1.0, 10.0]);
        assert!(b.q3 > b.whisker_hi, "{b:?}");
        let mut p = BoxPanel::new("demo", "seconds", 20);
        p.add("row", b);
        let s = p.render();
        assert!(s.lines().nth(1).unwrap().ends_with(']'), "{s}");
    }

    #[test]
    fn barchart_scales_to_max() {
        let mut c = BarChart::new("demo", "s", 20);
        c.add("full", 10.0);
        c.add("half", 5.0);
        let s = c.render();
        let full_line = s.lines().find(|l| l.starts_with("full")).unwrap();
        let half_line = s.lines().find(|l| l.starts_with("half")).unwrap();
        let count = |l: &str| l.chars().filter(|&c| c == '#').count();
        assert_eq!(count(full_line), 20);
        assert_eq!(count(half_line), 10);
    }

    #[test]
    fn empty_panels_do_not_panic() {
        assert!(BoxPanel::new("t", "x", 30).render().contains("no data"));
        assert!(BarChart::new("t", "x", 30).render().contains("no data"));
    }
}
