//! Shared report formatting: the one place rates and percentages are
//! turned into text (previously copy-pasted between `core::Stats`'s
//! `Display` and the `stats` bench binary).

/// Formats a rate in `[0, 1]` as a percentage with one decimal, e.g.
/// `0.25` → `"25.0%"`.
pub fn pct(rate: f64) -> String {
    format!("{:.1}%", 100.0 * rate)
}

/// Formats a rate in `[0, 1]` as a percentage with two decimals, e.g.
/// `0.0123` → `"1.23%"` (used for the paper's "<1%" inessential rate).
pub fn pct2(rate: f64) -> String {
    format!("{:.2}%", 100.0 * rate)
}

/// The ratio `num / den`, or `0.0` when the denominator is zero.
pub fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_formatting() {
        assert_eq!(pct(0.25), "25.0%");
        assert_eq!(pct(0.0), "0.0%");
        assert_eq!(pct2(0.0123), "1.23%");
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(3, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
