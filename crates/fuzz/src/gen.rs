//! Seeded ISF case generators.
//!
//! Three modes, chosen pseudo-randomly per case:
//!
//! * **cube** — uniform random cube lists over all four espresso PLA
//!   types, sweeping input count, cube count, literal density and
//!   don't-care density. This is the widest net: it produces overlapping
//!   on/off/dc cubes whose conflicts exercise the espresso resolution
//!   order (on beats dc beats off).
//! * **structured** / **expression** — the realistic generators from the
//!   `benchmarks` crate (windowed sparse cubes, collapsed expression
//!   trees), reused with small parameter sweeps.
//! * **mutation** — a previously seen case with a few random edits (trit
//!   flips, output flips, cube insertion/removal/duplication), the
//!   classic coverage-feedback substitute for a deterministic harness.
//!
//! Cases are capped at [`MAX_INPUTS`] inputs so the `boolfn` enumeration
//! oracles stay trivially cheap (≤ 256 minterms).

use benchmarks::{expression_pla, structured_pla, ExprSpec, SplitMix64, SynthSpec};
use pla::{Cube, OutputValue, Pla, PlaType, Trit};

/// Largest input arity the generators produce; keeps every oracle an
/// enumeration over at most `2^MAX_INPUTS = 256` minterms.
pub const MAX_INPUTS: usize = 8;

/// A generated case plus the mode that produced it (for failure triage).
#[derive(Clone, Debug)]
pub struct GeneratedCase {
    /// The case itself.
    pub pla: Pla,
    /// Generator mode: `"cube"`, `"structured"`, `"expression"` or
    /// `"mutation"`.
    pub mode: &'static str,
}

/// Generates the next case from the stream. `pool` feeds the mutation
/// mode (typically recently generated cases plus the replay corpus); when
/// it is empty the mutation mode falls back to fresh cube lists.
pub fn generate(rng: &mut SplitMix64, pool: &[Pla]) -> GeneratedCase {
    match rng.gen_range(4) {
        0 => GeneratedCase { pla: cube_case(rng), mode: "cube" },
        1 => GeneratedCase { pla: structured_case(rng), mode: "structured" },
        2 => GeneratedCase { pla: expression_case(rng), mode: "expression" },
        _ => match mutation_case(rng, pool) {
            Some(pla) => GeneratedCase { pla, mode: "mutation" },
            None => GeneratedCase { pla: cube_case(rng), mode: "cube" },
        },
    }
}

/// A uniform value in `[0, 1)` (53 bits of the stream).
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn random_type(rng: &mut SplitMix64) -> PlaType {
    [PlaType::F, PlaType::Fd, PlaType::Fr, PlaType::Fdr][rng.gen_range(4)]
}

/// Output values a cube may carry in a PLA of the given type.
fn output_palette(ty: PlaType) -> &'static [OutputValue] {
    match ty {
        PlaType::F => &[OutputValue::One, OutputValue::NotUsed],
        PlaType::Fd => &[OutputValue::One, OutputValue::NotUsed, OutputValue::DontCare],
        PlaType::Fr => &[OutputValue::One, OutputValue::NotUsed, OutputValue::Zero],
        PlaType::Fdr => {
            &[OutputValue::One, OutputValue::NotUsed, OutputValue::Zero, OutputValue::DontCare]
        }
    }
}

fn random_cube(
    rng: &mut SplitMix64,
    num_inputs: usize,
    num_outputs: usize,
    ty: PlaType,
    dc_literal_prob: f64,
) -> Cube {
    let inputs: Vec<Trit> = (0..num_inputs)
        .map(|_| {
            if rng.gen_bool(dc_literal_prob) {
                Trit::Dc
            } else if rng.gen_bool(0.5) {
                Trit::One
            } else {
                Trit::Zero
            }
        })
        .collect();
    let palette = output_palette(ty);
    let outputs: Vec<OutputValue> =
        (0..num_outputs).map(|_| palette[rng.gen_range(palette.len())]).collect();
    Cube::new(&inputs, &outputs)
}

/// Uniform random cube lists over every PLA type.
fn cube_case(rng: &mut SplitMix64) -> Pla {
    let n = 3 + rng.gen_range(MAX_INPUTS - 2); // 3..=MAX_INPUTS
    let outs = 1 + rng.gen_range(3); // 1..=3
    let ty = random_type(rng);
    let dc_literal_prob = 0.2 + 0.6 * unit(rng);
    let num_cubes = 1 + rng.gen_range(3 * n);
    let mut pla = Pla::new(n, outs).with_type(ty);
    for _ in 0..num_cubes {
        pla.push(random_cube(rng, n, outs, ty, dc_literal_prob));
    }
    pla
}

/// Windowed sparse cube lists via `benchmarks::structured_pla`.
fn structured_case(rng: &mut SplitMix64) -> Pla {
    let n = 4 + rng.gen_range(MAX_INPUTS - 3); // 4..=MAX_INPUTS
    let window = 2 + rng.gen_range(n - 1); // 2..=n
    structured_pla(&SynthSpec {
        num_inputs: n,
        num_outputs: 1 + rng.gen_range(2),
        cubes_per_output: 2 + rng.gen_range(5),
        window,
        literals: 1 + rng.gen_range(window),
        dc_cubes_per_output: rng.gen_range(3),
        seed: rng.next_u64(),
    })
}

/// Collapsed expression trees via `benchmarks::expression_pla`.
fn expression_case(rng: &mut SplitMix64) -> Pla {
    let n = 3 + rng.gen_range(MAX_INPUTS - 2);
    expression_pla(&ExprSpec {
        num_inputs: n,
        num_outputs: 1 + rng.gen_range(2),
        window: 2 + rng.gen_range(n - 1),
        depth: 2 + rng.gen_range(2),
        xor_weight: 0.5 * unit(rng),
        dc_fraction: 0.5 * unit(rng),
        seed: rng.next_u64(),
    })
}

/// A previously seen case with 1–4 random edits. Returns `None` when the
/// pool has no usable base (empty, or the base exceeds [`MAX_INPUTS`]).
fn mutation_case(rng: &mut SplitMix64, pool: &[Pla]) -> Option<Pla> {
    if pool.is_empty() {
        return None;
    }
    let base = &pool[rng.gen_range(pool.len())];
    if base.num_inputs() > MAX_INPUTS || base.cubes().is_empty() {
        return None;
    }
    let (n, outs, ty) = (base.num_inputs(), base.num_outputs(), base.pla_type());
    let mut cubes: Vec<Cube> = base.cubes().to_vec();
    let edits = 1 + rng.gen_range(4);
    for _ in 0..edits {
        match rng.gen_range(5) {
            // Re-roll one input trit.
            0 => {
                let c = rng.gen_range(cubes.len());
                let pos = rng.gen_range(n);
                cubes[c].set_input(pos, [Trit::Zero, Trit::One, Trit::Dc][rng.gen_range(3)]);
            }
            // Re-roll one output value (within the type's palette).
            1 => {
                let c = rng.gen_range(cubes.len());
                let o = rng.gen_range(outs);
                let palette = output_palette(ty);
                cubes[c].set_output(o, palette[rng.gen_range(palette.len())]);
            }
            // Drop a cube.
            2 if cubes.len() > 1 => {
                let c = rng.gen_range(cubes.len());
                cubes.remove(c);
            }
            // Duplicate a cube with one trit changed.
            3 => {
                let c = rng.gen_range(cubes.len());
                let pos = rng.gen_range(n);
                let mut dup = cubes[c].clone();
                dup.set_input(pos, [Trit::Zero, Trit::One, Trit::Dc][rng.gen_range(3)]);
                cubes.push(dup);
            }
            // Insert a fresh random cube.
            _ => cubes.push(random_cube(rng, n, outs, ty, 0.5)),
        }
    }
    let mut pla = Pla::new(n, outs).with_type(ty);
    for cube in cubes {
        pla.push(cube);
    }
    Some(pla)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_bounded() {
        let mut a = SplitMix64::new(11);
        let mut b = SplitMix64::new(11);
        let mut pool = Vec::new();
        for _ in 0..50 {
            let ca = generate(&mut a, &pool);
            let cb = generate(&mut b, &pool);
            assert_eq!(ca.pla, cb.pla, "equal seeds generate identical cases");
            assert_eq!(ca.mode, cb.mode);
            assert!(ca.pla.num_inputs() <= MAX_INPUTS);
            assert!(ca.pla.num_inputs() >= 3);
            assert!(ca.pla.num_outputs() >= 1);
            assert!(!ca.pla.cubes().is_empty());
            pool.push(ca.pla);
        }
    }

    #[test]
    fn all_modes_appear() {
        let mut rng = SplitMix64::new(3);
        let mut pool = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let case = generate(&mut rng, &pool);
            seen.insert(case.mode);
            pool.push(case.pla);
        }
        for mode in ["cube", "structured", "expression", "mutation"] {
            assert!(seen.contains(mode), "mode {mode} never produced");
        }
    }

    #[test]
    fn cube_outputs_respect_the_pla_type() {
        let mut rng = SplitMix64::new(17);
        for _ in 0..100 {
            let pla = cube_case(&mut rng);
            let palette = output_palette(pla.pla_type());
            for cube in pla.cubes() {
                for value in cube.outputs().iter() {
                    assert!(palette.contains(value), "{value:?} invalid for {:?}", pla.pla_type());
                }
            }
        }
    }

    #[test]
    fn generated_cases_round_trip_through_the_pla_format() {
        let mut rng = SplitMix64::new(23);
        let pool = Vec::new();
        for _ in 0..50 {
            let case = generate(&mut rng, &pool);
            let text = case.pla.to_string();
            let back: Pla = text.parse().expect("generated PLA must parse");
            assert_eq!(back, case.pla, "Display/FromStr round trip");
        }
    }
}
