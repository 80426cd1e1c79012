//! Named function families used throughout the benchmarks and tests.

use crate::TruthTable;

/// Totally symmetric function: the output depends only on the number of
/// input bits set; `values[k]` is the output when exactly `k` inputs are 1.
///
/// # Panics
///
/// Panics if `values.len() != num_vars + 1` or `num_vars > 24`.
///
/// ```
/// // 3-input majority as a symmetric function.
/// let maj = boolfn::builders::symmetric(3, &[false, false, true, true]);
/// assert_eq!(maj.count_ones(), 4);
/// ```
pub fn symmetric(num_vars: usize, values: &[bool]) -> TruthTable {
    assert_eq!(
        values.len(),
        num_vars + 1,
        "need one output value per possible ones-count (0..={num_vars})"
    );
    TruthTable::from_fn(num_vars, |m| values[m.count_ones() as usize])
}

/// Odd parity of `num_vars` inputs.
pub fn parity(num_vars: usize) -> TruthTable {
    TruthTable::from_fn(num_vars, |m| m.count_ones() % 2 == 1)
}

/// Majority of `num_vars` inputs (ties, for even arity, count as false).
pub fn majority(num_vars: usize) -> TruthTable {
    TruthTable::from_fn(num_vars, |m| m.count_ones() as usize * 2 > num_vars)
}

/// Threshold function: 1 iff at least `k` inputs are 1.
pub fn threshold(num_vars: usize, k: usize) -> TruthTable {
    TruthTable::from_fn(num_vars, |m| m.count_ones() as usize >= k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_is_symmetric() {
        let f = symmetric(4, &[true, false, true, false, true]);
        // Swapping any two inputs must not change the output.
        for m in 0..16u32 {
            let swapped = (m & !0b11) | ((m & 1) << 1) | ((m >> 1) & 1);
            assert_eq!(f.get(m), f.get(swapped));
        }
    }

    #[test]
    fn parity_and_majority() {
        assert_eq!(parity(3).count_ones(), 4);
        assert!(parity(3).get(0b111));
        assert!(!parity(3).get(0b110));
        let maj = majority(3);
        assert!(maj.get(0b011) && maj.get(0b111));
        assert!(!maj.get(0b001));
        assert_eq!(threshold(4, 0), TruthTable::ones(4));
        assert_eq!(threshold(4, 5), TruthTable::zeros(4));
    }

    #[test]
    #[should_panic(expected = "one output value per possible ones-count")]
    fn symmetric_wrong_length_panics() {
        let _ = symmetric(3, &[true, false]);
    }
}
