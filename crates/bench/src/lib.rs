//! Shared utilities for the experiment binaries that regenerate every
//! table and figure of the paper's evaluation (§6). See `DESIGN.md` for
//! the experiment index and `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![expect(clippy::disallowed_methods, reason = "experiments time real work")]

use std::time::Instant;

/// Renders an aligned text table: a header row plus data rows.
///
/// Column widths adapt to the widest cell; numeric-looking cells are
/// right-aligned, text cells left-aligned.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut width = vec![0usize; cols];
    for (i, h) in header.iter().enumerate() {
        width[i] = h.chars().count();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            width[i] = width[i].max(cell.chars().count());
        }
    }
    let is_numeric = |s: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'x' | '%' | '/'))
    };
    let mut out = String::new();
    let fmt_row = |cells: &[String], out: &mut String| {
        for (i, cell) in cells.iter().enumerate().take(cols) {
            if i > 0 {
                out.push_str("  ");
            }
            let pad = width[i].saturating_sub(cell.chars().count());
            if is_numeric(cell) {
                out.push_str(&" ".repeat(pad));
                out.push_str(cell);
            } else {
                out.push_str(cell);
                out.push_str(&" ".repeat(pad));
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    fmt_row(
        &header.iter().map(ToString::to_string).collect::<Vec<_>>(),
        &mut out,
    );
    let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        fmt_row(row, &mut out);
    }
    out
}

/// Times `op` over enough iterations to exceed ~20 ms of wall clock and
/// returns the mean microseconds per call.
pub fn measure_us<F: FnMut()>(mut op: F) -> f64 {
    // Warm up and estimate.
    let start = Instant::now();
    op();
    let one = start.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.02 / one) as usize).clamp(1, 2_000_000);
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// Formats a microsecond figure with sensible precision.
pub fn fmt_us(us: f64) -> String {
    if us < 10.0 {
        format!("{us:.2}")
    } else if us < 1000.0 {
        format!("{us:.1}")
    } else {
        format!("{:.2}ms", us / 1000.0)
    }
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("================================================================");
    println!("{id}");
    println!("paper: {claim}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["alpha".into(), "1".into()],
                vec!["b".into(), "23.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].contains("alpha"));
        // Numeric right-alignment: "23.5" ends both data lines' value col.
        assert!(lines[3].trim_end().ends_with("23.5"));
    }

    #[test]
    fn measure_us_returns_positive() {
        let mut x = 0u64;
        let us = measure_us(|| {
            x = x.wrapping_add(std::hint::black_box(1));
        });
        assert!((0.0..1000.0).contains(&us));
    }

    #[test]
    fn fmt_us_scales() {
        assert_eq!(fmt_us(1.234), "1.23");
        assert_eq!(fmt_us(123.4), "123.4");
        assert_eq!(fmt_us(12345.0), "12.35ms");
    }
}
