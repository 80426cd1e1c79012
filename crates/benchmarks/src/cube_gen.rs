//! Seeded structured cube-list generator for the large MCNC circuits whose
//! exact contents are not publicly defined.
//!
//! Real PLA benchmarks have two structural properties that matter for
//! decomposition behaviour: each output depends on a limited *window* of
//! the inputs, and cubes are sparse (few literals relative to the input
//! count). The generator reproduces both, deterministically from a seed.

use pla::{Cube, OutputValue, Pla, Trit};

use crate::rng::SplitMix64;

/// Parameters of a synthetic cube-list benchmark.
#[derive(Clone, Copy, Debug)]
pub struct SynthSpec {
    /// Number of primary inputs.
    pub num_inputs: usize,
    /// Number of primary outputs.
    pub num_outputs: usize,
    /// On-set cubes generated per output.
    pub cubes_per_output: usize,
    /// Width of the input window each output draws its literals from.
    pub window: usize,
    /// Literals per cube (positions within the window).
    pub literals: usize,
    /// Don't-care cubes generated per output (espresso `d` rows).
    pub dc_cubes_per_output: usize,
    /// RNG seed; equal specs with equal seeds generate identical PLAs.
    pub seed: u64,
}

/// Generates a structured synthetic PLA from the spec.
///
/// Output `o`'s window starts at a pseudo-random offset, so neighbouring
/// outputs overlap in support (enabling component sharing) without every
/// output depending on every input.
///
/// # Panics
///
/// Panics if `window > num_inputs` or `literals > window`.
pub fn structured_pla(spec: &SynthSpec) -> Pla {
    assert!(spec.window <= spec.num_inputs, "window must fit the inputs");
    assert!(spec.literals <= spec.window, "cube literals must fit the window");
    let mut rng = SplitMix64::new(spec.seed);
    let mut pla = Pla::new(spec.num_inputs, spec.num_outputs);
    for out in 0..spec.num_outputs {
        let window_start = rng.gen_range(spec.num_inputs);
        let emit = |rng: &mut SplitMix64, pla: &mut Pla, value: OutputValue| {
            let mut inputs = vec![Trit::Dc; spec.num_inputs];
            // Choose distinct positions within the (wrapping) window.
            let mut chosen = Vec::with_capacity(spec.literals);
            while chosen.len() < spec.literals {
                let pos = (window_start + rng.gen_range(spec.window)) % spec.num_inputs;
                if !chosen.contains(&pos) {
                    chosen.push(pos);
                }
            }
            for &pos in &chosen {
                inputs[pos] = if rng.gen_bool(0.5) { Trit::One } else { Trit::Zero };
            }
            let mut outputs = vec![OutputValue::NotUsed; spec.num_outputs];
            outputs[out] = value;
            pla.push(Cube::new(inputs, outputs));
        };
        for _ in 0..spec.cubes_per_output {
            emit(&mut rng, &mut pla, OutputValue::One);
        }
        for _ in 0..spec.dc_cubes_per_output {
            emit(&mut rng, &mut pla, OutputValue::DontCare);
        }
    }
    pla
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SynthSpec {
        SynthSpec {
            num_inputs: 22,
            num_outputs: 5,
            cubes_per_output: 6,
            window: 9,
            literals: 4,
            dc_cubes_per_output: 1,
            seed: 7,
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = structured_pla(&spec());
        let b = structured_pla(&spec());
        assert_eq!(a, b);
        let c = structured_pla(&SynthSpec { seed: 8, ..spec() });
        assert_ne!(a, c);
    }

    #[test]
    fn dimensions_and_cube_counts() {
        let pla = structured_pla(&spec());
        assert_eq!(pla.num_inputs(), 22);
        assert_eq!(pla.num_outputs(), 5);
        assert_eq!(pla.cubes().len(), 5 * 7);
        assert_eq!(pla.on_cubes(0).count(), 6);
        let dc = pla.cubes().iter().filter(|c| c.outputs()[0] == OutputValue::DontCare);
        assert_eq!(dc.count(), 1);
    }

    #[test]
    fn cubes_respect_literal_budget() {
        let pla = structured_pla(&spec());
        for cube in pla.cubes() {
            assert_eq!(cube.literal_count(), 4);
        }
    }

    #[test]
    fn windows_limit_per_output_support() {
        let pla = structured_pla(&spec());
        // Every output's cubes touch at most `window` distinct inputs.
        for out in 0..pla.num_outputs() {
            let mut touched = std::collections::HashSet::new();
            let used =
                |c: &&Cube| matches!(c.outputs()[out], OutputValue::One | OutputValue::DontCare);
            for cube in pla.cubes().iter().filter(used) {
                for (k, &t) in cube.inputs().iter().enumerate() {
                    if t != Trit::Dc {
                        touched.insert(k);
                    }
                }
            }
            assert!(touched.len() <= 9, "output {out} support {}", touched.len());
        }
    }

    #[test]
    #[should_panic(expected = "window must fit")]
    fn oversized_window_panics() {
        let _ = structured_pla(&SynthSpec { window: 23, ..spec() });
    }
}
