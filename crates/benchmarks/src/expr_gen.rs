//! Expression-tree synthetic benchmarks.
//!
//! The sparse cube generator (`cube_gen`) produces functions that are
//! already near-minimal two-level covers — unrealistically friendly to
//! SOP-based flows. Real MCNC control circuits have *multi-level*
//! structure whose two-level covers are large. This generator reproduces
//! that: each output is a random AND/OR/XOR expression tree over a window
//! of inputs, emitted as the window's on-set minterms (exactly how a
//! collapsed PLA represents multi-level logic).

use pla::{Cube, OutputValue, Pla, Trit};

use crate::rng::SplitMix64;

/// Parameters of an expression-tree benchmark.
#[derive(Clone, Copy, Debug)]
pub struct ExprSpec {
    /// Number of primary inputs.
    pub num_inputs: usize,
    /// Number of primary outputs.
    pub num_outputs: usize,
    /// Window of inputs each output's tree draws from (≤ 12).
    pub window: usize,
    /// Depth of the expression trees.
    pub depth: usize,
    /// Probability that an internal node is an XOR (vs. AND/OR).
    pub xor_weight: f64,
    /// Fraction of each output's off-set minterms converted to
    /// don't-cares (`d` rows).
    pub dc_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

#[derive(Debug)]
enum Expr {
    Leaf(usize, bool),
    Node(Op, Box<Expr>, Box<Expr>),
}

#[derive(Clone, Copy, Debug)]
enum Op {
    And,
    Or,
    Xor,
}

fn random_expr(rng: &mut SplitMix64, window: usize, depth: usize, xor_weight: f64) -> Expr {
    if depth == 0 {
        return Expr::Leaf(rng.gen_range(window), rng.gen_bool(0.5));
    }
    let op = if rng.gen_bool(xor_weight) {
        Op::Xor
    } else if rng.gen_bool(0.5) {
        Op::And
    } else {
        Op::Or
    };
    Expr::Node(
        op,
        Box::new(random_expr(rng, window, depth - 1, xor_weight)),
        Box::new(random_expr(rng, window, depth - 1, xor_weight)),
    )
}

fn eval(expr: &Expr, bits: u32) -> bool {
    match expr {
        Expr::Leaf(v, pos) => (bits >> v & 1 != 0) == *pos,
        Expr::Node(op, a, b) => {
            let (va, vb) = (eval(a, bits), eval(b, bits));
            match op {
                Op::And => va && vb,
                Op::Or => va || vb,
                Op::Xor => va ^ vb,
            }
        }
    }
}

/// Generates a multi-level-structured synthetic PLA from the spec.
///
/// Each output's window starts at a pseudo-random offset (wrapping), so
/// neighbouring outputs overlap in support. Constant trees are re-rolled.
///
/// # Panics
///
/// Panics if `window > min(num_inputs, 12)` or the fractions are outside
/// `[0, 1]`.
pub fn expression_pla(spec: &ExprSpec) -> Pla {
    assert!(spec.window <= spec.num_inputs && spec.window <= 12, "window must be ≤ 12");
    assert!((0.0..=1.0).contains(&spec.xor_weight), "xor_weight in [0,1]");
    assert!((0.0..=1.0).contains(&spec.dc_fraction), "dc_fraction in [0,1]");
    let mut rng = SplitMix64::new(spec.seed);
    let mut pla = Pla::new(spec.num_inputs, spec.num_outputs);
    for out in 0..spec.num_outputs {
        let window_start = rng.gen_range(spec.num_inputs);
        let positions: Vec<usize> =
            (0..spec.window).map(|k| (window_start + k) % spec.num_inputs).collect();
        // Re-roll until the tree is non-constant over its window.
        let (expr, table) = loop {
            let expr = random_expr(&mut rng, spec.window, spec.depth, spec.xor_weight);
            let table: Vec<bool> = (0..1u32 << spec.window).map(|bits| eval(&expr, bits)).collect();
            let ones = table.iter().filter(|&&v| v).count();
            if ones != 0 && ones != table.len() {
                break (expr, table);
            }
        };
        let _ = expr;
        for (bits, &on) in table.iter().enumerate() {
            let value = if on {
                OutputValue::One
            } else if spec.dc_fraction > 0.0 && rng.gen_bool(spec.dc_fraction) {
                OutputValue::DontCare
            } else {
                continue;
            };
            let mut cube = Cube::tautology(spec.num_inputs, spec.num_outputs, out);
            cube.set_output(out, value);
            for (k, &pos) in positions.iter().enumerate() {
                cube.set_input(pos, if bits & (1 << k) != 0 { Trit::One } else { Trit::Zero });
            }
            pla.push(cube);
        }
    }
    pla
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ExprSpec {
        ExprSpec {
            num_inputs: 20,
            num_outputs: 4,
            window: 7,
            depth: 4,
            xor_weight: 0.25,
            dc_fraction: 0.0,
            seed: 11,
        }
    }

    #[test]
    fn deterministic_and_shaped() {
        let a = expression_pla(&spec());
        let b = expression_pla(&spec());
        assert_eq!(a, b);
        assert_eq!(a.num_inputs(), 20);
        assert_eq!(a.num_outputs(), 4);
        assert!(!a.cubes().is_empty());
    }

    #[test]
    fn outputs_are_non_constant() {
        let pla = expression_pla(&spec());
        for out in 0..pla.num_outputs() {
            let ones = pla.on_cubes(out).count();
            assert!(ones > 0, "output {out} must have an on-set");
            assert!(ones < 128, "output {out} must not be a tautology");
        }
    }

    #[test]
    fn cubes_are_window_minterms() {
        let pla = expression_pla(&spec());
        for cube in pla.cubes() {
            assert_eq!(cube.literal_count(), 7, "all window positions specified");
        }
    }

    #[test]
    fn dc_fraction_emits_dont_care_rows() {
        let with_dc = expression_pla(&ExprSpec { dc_fraction: 0.4, ..spec() });
        let dc_entries = with_dc.cubes().iter().flat_map(|c| c.used_outputs());
        let total_dc = dc_entries.filter(|&(_, v)| v == OutputValue::DontCare).count();
        assert!(total_dc > 0, "dc rows must appear");
    }

    #[test]
    #[should_panic(expected = "window must be")]
    fn oversized_window_panics() {
        let _ = expression_pla(&ExprSpec { window: 13, num_inputs: 20, ..spec() });
    }
}
