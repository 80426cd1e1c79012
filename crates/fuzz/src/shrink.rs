//! Delta-debugging minimizer for failing PLA cases.
//!
//! Given a case and a "still fails" predicate, repeatedly applies
//! semantics-shrinking edits and keeps any candidate the predicate still
//! rejects:
//!
//! * **cube removal** — ddmin-style chunked removal, halving chunk sizes
//!   down to single cubes;
//! * **output projection** — restrict a multi-output case to one output;
//! * **variable projection** — delete an input column entirely;
//! * **literal widening** — promote specified input literals to `-`;
//! * **output relaxation** — demote output entries to `-` (and to `d`
//!   where the PLA type has a don't-care set).
//!
//! The predicate budget bounds total work; the shrinker is greedy and
//! deterministic, so equal inputs and budgets minimize identically.

use pla::{Cube, OutputValue, Pla, PlaType, Trit};

/// The result of a shrink run.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The smallest failing case found.
    pub pla: Pla,
    /// Predicate invocations consumed.
    pub checks_used: usize,
}

struct Shrinker<'a> {
    still_fails: &'a mut dyn FnMut(&Pla) -> bool,
    used: usize,
    budget: usize,
}

impl Shrinker<'_> {
    /// Runs the predicate under the budget; over-budget candidates are
    /// treated as "does not fail" so every pass terminates.
    fn fails(&mut self, candidate: &Pla) -> bool {
        if self.used >= self.budget {
            return false;
        }
        self.used += 1;
        (self.still_fails)(candidate)
    }
}

fn rebuild(template: &Pla, num_inputs: usize, num_outputs: usize, cubes: Vec<Cube>) -> Pla {
    let mut pla = Pla::new(num_inputs, num_outputs).with_type(template.pla_type());
    for cube in cubes {
        pla.push(cube);
    }
    pla
}

/// Chunked (ddmin-style) then single-cube removal.
fn shrink_cubes(best: &mut Pla, s: &mut Shrinker<'_>) -> bool {
    let mut improved = false;
    let mut chunk = best.cubes().len() / 2;
    while chunk >= 1 {
        let mut start = 0;
        while start < best.cubes().len() && best.cubes().len() > 1 {
            let end = (start + chunk).min(best.cubes().len());
            let mut cubes = best.cubes().to_vec();
            cubes.drain(start..end);
            if cubes.is_empty() {
                start += chunk;
                continue;
            }
            let candidate = rebuild(best, best.num_inputs(), best.num_outputs(), cubes);
            if s.fails(&candidate) {
                *best = candidate;
                improved = true;
                // Re-scan the same position: the next chunk slid into it.
            } else {
                start += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    improved
}

/// Does this cube affect `output` at all (given the PLA type)?
fn output_used(cube: &Cube, output: usize, ty: PlaType) -> bool {
    match cube.outputs()[output] {
        OutputValue::One | OutputValue::DontCare => true,
        OutputValue::Zero => ty.zero_is_offset(),
        OutputValue::NotUsed => false,
    }
}

/// Try keeping a single output.
fn shrink_outputs(best: &mut Pla, s: &mut Shrinker<'_>) -> bool {
    if best.num_outputs() <= 1 {
        return false;
    }
    for o in 0..best.num_outputs() {
        let cubes: Vec<Cube> = best
            .cubes()
            .iter()
            .filter(|c| output_used(c, o, best.pla_type()))
            .map(|c| Cube::new(&c.inputs().to_vec(), &[c.outputs()[o]]))
            .collect();
        if cubes.is_empty() {
            continue;
        }
        let candidate = rebuild(best, best.num_inputs(), 1, cubes);
        if s.fails(&candidate) {
            *best = candidate;
            return true;
        }
    }
    false
}

/// Try deleting an input column.
fn shrink_inputs(best: &mut Pla, s: &mut Shrinker<'_>) -> bool {
    if best.num_inputs() <= 1 {
        return false;
    }
    for v in (0..best.num_inputs()).rev() {
        let cubes: Vec<Cube> = best
            .cubes()
            .iter()
            .map(|c| {
                let mut inputs = c.inputs().to_vec();
                inputs.remove(v);
                Cube::new(&inputs, &c.outputs().to_vec())
            })
            .collect();
        let candidate = rebuild(best, best.num_inputs() - 1, best.num_outputs(), cubes);
        if s.fails(&candidate) {
            *best = candidate;
            return true;
        }
    }
    false
}

/// Try widening individual literals to `-` and relaxing output entries.
fn shrink_entries(best: &mut Pla, s: &mut Shrinker<'_>) -> bool {
    let mut improved = false;
    let ty = best.pla_type();
    let mut i = 0;
    while i < best.cubes().len() {
        for pos in 0..best.num_inputs() {
            if best.cubes()[i].inputs()[pos] == Trit::Dc {
                continue;
            }
            let mut cubes = best.cubes().to_vec();
            cubes[i].set_input(pos, Trit::Dc);
            let candidate = rebuild(best, best.num_inputs(), best.num_outputs(), cubes);
            if s.fails(&candidate) {
                *best = candidate;
                improved = true;
            }
        }
        for o in 0..best.num_outputs() {
            let current = best.cubes()[i].outputs()[o];
            let mut replacements: Vec<OutputValue> = Vec::new();
            if matches!(current, OutputValue::One | OutputValue::Zero) {
                if matches!(ty, PlaType::Fd | PlaType::Fdr) {
                    replacements.push(OutputValue::DontCare);
                }
                replacements.push(OutputValue::NotUsed);
            } else if current == OutputValue::DontCare {
                replacements.push(OutputValue::NotUsed);
            }
            for replacement in replacements {
                let mut cubes = best.cubes().to_vec();
                cubes[i].set_output(o, replacement);
                let candidate = rebuild(best, best.num_inputs(), best.num_outputs(), cubes);
                if s.fails(&candidate) {
                    *best = candidate;
                    improved = true;
                    break;
                }
            }
        }
        i += 1;
    }
    improved
}

/// Minimizes `original` under `still_fails`, spending at most
/// `max_checks` predicate invocations.
///
/// The returned case is guaranteed to fail (it is only replaced by
/// candidates the predicate rejected); if the budget is 0 the original
/// is returned unchanged.
pub fn shrink(
    original: &Pla,
    still_fails: &mut dyn FnMut(&Pla) -> bool,
    max_checks: usize,
) -> ShrinkOutcome {
    let mut best = original.clone();
    let mut s = Shrinker { still_fails, used: 0, budget: max_checks };
    loop {
        let mut improved = false;
        improved |= shrink_cubes(&mut best, &mut s);
        improved |= shrink_outputs(&mut best, &mut s);
        improved |= shrink_inputs(&mut best, &mut s);
        improved |= shrink_entries(&mut best, &mut s);
        if !improved || s.used >= s.budget {
            break;
        }
    }
    ShrinkOutcome { pla: best, checks_used: s.used }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchmarks::SplitMix64;

    /// A synthetic "bug": the case fails iff some cube asserts output 0
    /// with input 0 fixed to 1.
    fn has_poison(pla: &Pla) -> bool {
        pla.cubes().iter().any(|c| {
            c.inputs().iter().next() == Some(&Trit::One) && c.outputs()[0] == OutputValue::One
        })
    }

    fn noisy_case(seed: u64) -> Pla {
        let mut rng = SplitMix64::new(seed);
        let mut pla = Pla::new(5, 2);
        for _ in 0..12 {
            let inputs = (0..5)
                .map(|_| [Trit::Zero, Trit::One, Trit::Dc][rng.gen_range(3)])
                .collect::<Vec<_>>();
            let outputs = (0..2)
                .map(|_| {
                    [OutputValue::One, OutputValue::NotUsed, OutputValue::DontCare]
                        [rng.gen_range(3)]
                })
                .collect::<Vec<_>>();
            pla.push(Cube::new(&inputs, &outputs));
        }
        // Plant the poison cube.
        pla.push(Cube::new(
            &[Trit::One, Trit::Zero, Trit::One, Trit::Zero, Trit::One],
            &[OutputValue::One, OutputValue::One],
        ));
        pla
    }

    #[test]
    fn shrinks_to_the_poison_cube() {
        for seed in 0..5 {
            let original = noisy_case(seed);
            assert!(has_poison(&original));
            let mut oracle = |p: &Pla| has_poison(p);
            let outcome = shrink(&original, &mut oracle, 2_000);
            assert!(has_poison(&outcome.pla), "minimized case still fails");
            assert_eq!(outcome.pla.cubes().len(), 1, "one cube suffices (seed {seed})");
            assert_eq!(outcome.pla.num_outputs(), 1, "one output suffices");
            assert!(outcome.pla.num_inputs() <= 1, "only input 0 matters");
            assert!(outcome.checks_used <= 2_000);
        }
    }

    #[test]
    fn respects_the_budget() {
        let original = noisy_case(1);
        let mut calls = 0usize;
        let mut oracle = |p: &Pla| {
            calls += 1;
            has_poison(p)
        };
        let outcome = shrink(&original, &mut oracle, 7);
        assert_eq!(outcome.checks_used, 7, "budget is consumed exactly");
        assert_eq!(calls, 7);
        assert!(has_poison(&outcome.pla));
    }

    #[test]
    fn zero_budget_returns_the_original() {
        let original = noisy_case(2);
        let mut oracle = |_: &Pla| true;
        let outcome = shrink(&original, &mut oracle, 0);
        assert_eq!(outcome.pla, original);
        assert_eq!(outcome.checks_used, 0);
    }

    #[test]
    fn never_keeps_a_passing_candidate() {
        // A predicate that only fails the exact original: the shrinker
        // must return the original untouched.
        let original = noisy_case(3);
        let reference = original.clone();
        let mut oracle = |p: &Pla| *p == reference;
        let outcome = shrink(&original, &mut oracle, 500);
        assert_eq!(outcome.pla, original);
    }
}
