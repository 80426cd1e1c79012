//! Decomposition statistics — the §7 instrumentation.
//!
//! The paper quotes three empirical rates for typical MCNC benchmarks:
//! inessential variables occur in "less than 1% of recursive calls", weak
//! decomposition is needed in "20–30% of recursive calls", and the cache
//! achieves "up to 20% component reuse". These counters let the `stats`
//! bench binary reproduce those numbers.

use std::fmt;

use obs::report::{pct, pct2, ratio};

/// Counters accumulated across one decomposition run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Stats {
    /// Total recursive `BiDecompose` calls.
    pub calls: usize,
    /// Calls resolved by the component cache.
    pub cache_hits: usize,
    /// Calls resolved by the cache through a complemented component.
    pub cache_hits_complement: usize,
    /// Calls that hit the ≤2-variable terminal case.
    pub terminal_cases: usize,
    /// Calls that performed a strong OR decomposition.
    pub strong_or: usize,
    /// Calls that performed a strong AND decomposition.
    pub strong_and: usize,
    /// Calls that performed a strong EXOR decomposition.
    pub strong_exor: usize,
    /// Calls that fell back to weak OR/AND decomposition.
    pub weak: usize,
    /// Calls that fell back to Shannon expansion (no useful weak form).
    pub shannon: usize,
    /// Calls in which at least one inessential variable was removed.
    pub calls_with_inessential: usize,
    /// Total inessential variables removed.
    pub inessential_removed: usize,
    /// Deepest recursion level reached (0 = a top-level call; the depth
    /// of [`TraceEvent`](crate::trace::TraceEvent)s).
    pub max_depth: usize,
}

impl Stats {
    /// Fraction of recursive calls resolved by component reuse.
    pub fn cache_hit_rate(&self) -> f64 {
        ratio(self.cache_hits + self.cache_hits_complement, self.calls)
    }

    /// Fraction of *decomposing* calls (strong + weak + Shannon) that had
    /// to use a weak decomposition — the paper's "20–30%".
    pub fn weak_rate(&self) -> f64 {
        let decomposing =
            self.strong_or + self.strong_and + self.strong_exor + self.weak + self.shannon;
        ratio(self.weak + self.shannon, decomposing)
    }

    /// Fraction of recursive calls that saw inessential variables — the
    /// paper's "less than 1%".
    pub fn inessential_rate(&self) -> f64 {
        ratio(self.calls_with_inessential, self.calls)
    }

    /// Adds another run's counters into these (aggregating the statistics of
    /// several PLAs, as the benchmark tools do); the depth is the deeper
    /// of the two.
    pub fn merge(&mut self, other: &Stats) {
        self.calls += other.calls;
        self.cache_hits += other.cache_hits;
        self.cache_hits_complement += other.cache_hits_complement;
        self.terminal_cases += other.terminal_cases;
        self.strong_or += other.strong_or;
        self.strong_and += other.strong_and;
        self.strong_exor += other.strong_exor;
        self.weak += other.weak;
        self.shannon += other.shannon;
        self.calls_with_inessential += other.calls_with_inessential;
        self.inessential_removed += other.inessential_removed;
        self.max_depth = self.max_depth.max(other.max_depth);
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "calls:            {}", self.calls)?;
        writeln!(
            f,
            "cache hits:       {} (+{} complemented, {})",
            self.cache_hits,
            self.cache_hits_complement,
            pct(self.cache_hit_rate())
        )?;
        writeln!(f, "terminal cases:   {}", self.terminal_cases)?;
        writeln!(
            f,
            "strong or/and/exor: {}/{}/{}",
            self.strong_or, self.strong_and, self.strong_exor
        )?;
        writeln!(
            f,
            "weak + shannon:   {} + {} ({} of decomposing calls)",
            self.weak,
            self.shannon,
            pct(self.weak_rate())
        )?;
        write!(
            f,
            "inessential vars: {} in {} calls ({} of calls)",
            self.inessential_removed,
            self.calls_with_inessential,
            pct2(self.inessential_rate())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let s = Stats {
            calls: 100,
            cache_hits: 15,
            cache_hits_complement: 5,
            strong_or: 30,
            strong_and: 20,
            strong_exor: 10,
            weak: 18,
            shannon: 2,
            calls_with_inessential: 1,
            inessential_removed: 2,
            terminal_cases: 20,
            max_depth: 6,
        };
        assert!((s.cache_hit_rate() - 0.20).abs() < 1e-12);
        assert!((s.weak_rate() - 0.25).abs() < 1e-12);
        assert!((s.inessential_rate() - 0.01).abs() < 1e-12);
        let shown = s.to_string();
        assert!(shown.contains("calls:            100"));
        assert!(shown.contains("25.0%"));
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = Stats { calls: 10, weak: 2, max_depth: 4, ..Default::default() };
        let b = Stats { calls: 5, strong_or: 3, max_depth: 7, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.calls, 15);
        assert_eq!(a.strong_or, 3);
        assert_eq!(a.weak, 2);
        assert_eq!(a.max_depth, 7, "the depth merges as a maximum, not a sum");
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = Stats::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.weak_rate(), 0.0);
    }
}
