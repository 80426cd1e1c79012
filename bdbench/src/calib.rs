//! Machine-speed calibration for the timed metrics.
//!
//! On a shared host the same pass can take twice as long from one minute
//! to the next, because other tenants load the caches and memory system. A
//! median over one run cannot remove drift that slow. So the benchmark
//! runs a fixed memory-bound kernel — random read-modify-writes over a
//! 4 MiB table, the access pattern of a BDD unique table or computed
//! cache — right before and right after every timed call, and rescales
//! the call's wall time by the kernel's speed at that moment:
//!
//! `scaled = raw × (REFERENCE_S / mean(kernel before, kernel after))^SENSITIVITY`.
//!
//! Before each timed kernel run the whole table is read once, untimed, so
//! every reading starts from the same cache state: the table resident,
//! whatever the decomposer left behind. The reading then reflects host
//! load and not the footprint of the call it follows. Without that read,
//! the kernel would run on a table the call had partly evicted, and a
//! change that grew the decomposer's working set would slow the kernel
//! and hide part of its own regression.
//!
//! The decomposer slows down somewhat more than the kernel when the host
//! is loaded: per pass, the regression slope of log wall time on log
//! kernel time was 1.04–1.10 on `wide` and `deep`, with correlations of
//! 0.85–0.93, so the true slope (the fit is diluted by the kernel's own
//! noise) lies between that and about 1.25. Medians over consecutive
//! windows of passes were steadiest with exponents of 1.0–1.25 on `wide`
//! and 1.25–1.5 on `deep`.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's wall time, after the table has been read, when the host
/// is unloaded, measured on the 2-vCPU x86-64 virtual machine the
/// benchmark was developed on.
pub const REFERENCE_S: f64 = 0.003;
/// How much more strongly the decomposer's time reacts to host load than
/// the kernel's (the exponent of the rescaling).
pub const SENSITIVITY: f64 = 1.25;

const TABLE_WORDS: usize = 1 << 20;
const KERNEL_STEPS: usize = 1 << 20;

/// The calibration kernel and the speed it measured last.
pub struct Calibrator {
    table: Vec<u32>,
    state: u64,
    last: f64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Allocates and touches the table, then takes a first measurement.
    pub fn new() -> Calibrator {
        let mut cal = Calibrator { table: vec![1; TABLE_WORDS], state: 0x9e37_79b9, last: 0.0 };
        cal.refresh();
        cal
    }

    /// Measures the kernel now, so the next [`Calibrator::factor`] does
    /// not lean on a stale reading.
    pub fn refresh(&mut self) {
        self.last = self.kernel();
    }

    /// Call right after a piece of timed work: measures the kernel again
    /// and returns the factor that rescales the work's wall time,
    /// [`REFERENCE_S`] over the mean of this and the previous reading,
    /// raised to [`SENSITIVITY`].
    pub fn factor(&mut self) -> f64 {
        let before = self.last;
        self.last = self.kernel();
        (REFERENCE_S / ((before + self.last) / 2.0)).powf(SENSITIVITY)
    }

    /// One reading: an untimed sequential read of the whole table, then
    /// the timed random read-modify-writes.
    fn kernel(&mut self) -> f64 {
        black_box(self.table.iter().fold(0u32, |acc, &w| acc.wrapping_add(w)));
        let mask = TABLE_WORDS - 1;
        let mut x = self.state;
        let start = Instant::now();
        for _ in 0..KERNEL_STEPS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 40) as usize & mask;
            self.table[i] = self.table[i].wrapping_add(x as u32);
        }
        let secs = start.elapsed().as_secs_f64();
        self.state = black_box(x);
        black_box(&self.table);
        secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_positive_and_finite() {
        let mut cal = Calibrator::new();
        let f = cal.factor();
        assert!(f.is_finite() && f > 0.0, "{f}");
    }
}
