//! Summary statistics and the result line.

use obs::json::Json;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ms`, `count`, …).
    pub unit: &'static str,
    /// Sample count or provenance shown on the human-readable line.
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit, note: String::new() }
    }

    /// The same metric with a note for the human-readable line.
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// The final line of standard output: correctness counts and metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    let mut obj = Json::obj();
    for m in metrics {
        obj = obj.field(m.name, Json::obj().field("value", m.value).field("unit", m.unit));
    }
    Json::obj()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", obj)
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile by linear interpolation between order statistics;
/// 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 3, 0, &[Metric::new("gates", 42.0, "count")]).render();
        let back = Json::parse(&line).expect("renders valid JSON");
        assert_eq!(back.keys(), vec!["correct", "attempted", "failed", "metrics"]);
        let gates = back.get("metrics").and_then(|m| m.get("gates")).expect("metric present");
        assert_eq!(gates.get("value").and_then(Json::as_f64), Some(42.0));
        assert_eq!(gates.get("unit").and_then(Json::as_str), Some("count"));
    }
}
