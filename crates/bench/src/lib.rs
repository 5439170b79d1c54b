//! # harvest-bench
//!
//! Shared formatting for the experiment harness: plain-text tables and
//! log-scale ASCII series that mirror the paper's tables and figures, plus
//! JSON artifact writing.
//!
//! The `experiments` binary regenerates every table and figure:
//!
//! ```text
//! cargo run -p harvest-bench --bin experiments --release            # all
//! cargo run -p harvest-bench --bin experiments --release -- table3  # one
//! cargo run -p harvest-bench --bin experiments --release -- --json out/
//! ```
//!
//! Real kernels are timed in two places only: `experiments bench` / `host`
//! here, and the repo benchmark (`benchmark/`, gated end to end).

use std::fmt::Write as _;

/// Render rows as a fixed-width text table. `headers.len()` must equal each
/// row's length.
pub fn text_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for &w in &widths {
            let _ = write!(out, "+-{}-", "-".repeat(w));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "| {:<w$} ", h, w = widths[i]);
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "| {:<w$} ", cell, w = widths[i]);
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// Render one numeric series as an ASCII sparkbar block: one line per point,
/// bar length log-scaled between the series min and max.
pub fn ascii_series(title: &str, points: &[(String, f64)], unit: &str) -> String {
    let mut out = format!("{title}\n");
    if points.is_empty() {
        out.push_str("  (empty)\n");
        return out;
    }
    let max = points.iter().map(|p| p.1).fold(f64::MIN, f64::max);
    let min = points
        .iter()
        .map(|p| p.1)
        .fold(f64::MAX, f64::min)
        .max(1e-12);
    let label_w = points.iter().map(|p| p.0.len()).max().unwrap_or(0);
    for (label, v) in points {
        let frac = if max <= min {
            1.0
        } else {
            ((v.max(1e-12) / min).ln() / (max / min).ln()).clamp(0.0, 1.0)
        };
        let bar = "#".repeat(1 + (frac * 40.0).round() as usize);
        let _ = writeln!(out, "  {label:<label_w$} | {bar} {v:.1} {unit}");
    }
    out
}

/// Format a float with thousands separators (table-style "22,879.3").
pub fn pretty(v: f64, decimals: usize) -> String {
    let s = format!("{v:.decimals$}");
    let (int_part, frac_part) = match s.split_once('.') {
        Some((i, f)) => (i.to_string(), Some(f.to_string())),
        None => (s, None),
    };
    let neg = int_part.starts_with('-');
    let digits: Vec<char> = int_part.trim_start_matches('-').chars().collect();
    let mut grouped = String::new();
    for (i, c) in digits.iter().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            grouped.push(',');
        }
        grouped.push(*c);
    }
    let mut out = String::new();
    if neg {
        out.push('-');
    }
    out.push_str(&grouped);
    if let Some(f) = frac_part {
        out.push('.');
        out.push_str(&f);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = text_table(
            &["model", "img/s"],
            &[
                vec!["ViT_Tiny".into(), "22879.3".into()],
                vec!["ResNet50".into(), "16230.7".into()],
            ],
        );
        assert!(t.contains("| model"));
        assert!(t.contains("| ViT_Tiny"));
        // All lines have equal width.
        let widths: std::collections::HashSet<usize> =
            t.lines().map(|l| l.chars().count()).collect();
        assert_eq!(widths.len(), 1, "{t}");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        text_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn series_scales_bars() {
        let s = ascii_series(
            "throughput",
            &[("bs1".into(), 10.0), ("bs64".into(), 1000.0)],
            "img/s",
        );
        let lines: Vec<&str> = s.lines().collect();
        let count = |l: &str| l.matches('#').count();
        assert!(count(lines[2]) > count(lines[1]), "{s}");
    }

    #[test]
    fn pretty_thousands() {
        assert_eq!(pretty(22879.3, 1), "22,879.3");
        assert_eq!(pretty(676.0, 0), "676");
        assert_eq!(pretty(172508.0, 0), "172,508");
        assert_eq!(pretty(-1234.5, 1), "-1,234.5");
        assert_eq!(pretty(0.5, 2), "0.50");
    }
}
