//! The benchmark's workloads and their seeded set-up.
//!
//! Set-up is the path a user's file takes: generate each PLA, render it
//! to PLA text and parse the text back with the `pla` reader. The
//! decomposer only ever sees the parsed copies.

use std::time::{Duration, Instant};

use benchmarks::{expression_pla, ExprSpec, SplitMix64};
use obs::Recorder;
use pla::Pla;

/// A named set of PLAs the benchmark decomposes in a closed loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// 16sym8, alu4, t481: few outputs, 16-variable supports, large BDDs.
    Deep,
    /// The Table 2 multi-output control circuits: many narrow outputs.
    Wide,
    /// A seeded draw of expression-tree PLAs with don't-care sets.
    RandomDc,
}

/// Named circuits of the `deep` workload.
pub const DEEP: [&str; 3] = ["16sym8", "alu4", "t481"];
/// Named circuits of the `wide` workload.
pub const WIDE: [&str; 7] = ["cps", "duke2", "pdc", "spla", "vg2", "misex3", "e64"];
/// PLAs drawn per `random-dc` workload.
pub const RANDOM_DC_PLAS: usize = 24;
/// The draw seed of `random-dc` that every run uses unless told otherwise.
pub const DEFAULT_DRAW_SEED: u64 = 1;
/// A draw seed kept out of tuning, for re-checking a claimed gain on PLAs
/// the change was not developed against.
pub const HELD_OUT_DRAW_SEED: u64 = 2;

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [Workload::Deep, Workload::Wide, Workload::RandomDc];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Deep => "deep",
            Workload::Wide => "wide",
            Workload::RandomDc => "random-dc",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the draw seed chooses the PLAs themselves.
    pub fn is_drawn(self) -> bool {
        self == Workload::RandomDc
    }
}

/// One PLA of a workload, as parsed back from its text.
#[derive(Clone, Debug)]
pub struct Case {
    /// Circuit name (`16sym8`, `rdc07`, …).
    pub name: String,
    /// The parsed PLA.
    pub pla: Pla,
}

/// The workload's cases plus the timings of the set-up that built them.
#[derive(Debug)]
pub struct Setup {
    /// The cases in pass order.
    pub cases: Vec<Case>,
    /// Generation + rendering + parsing.
    pub total: Duration,
    /// Parsing alone.
    pub parse: Duration,
}

impl Setup {
    /// Cubes over all PLAs of the workload.
    pub fn cubes(&self) -> usize {
        self.cases.iter().map(|c| c.pla.cubes().len()).sum()
    }

    /// Primary outputs over all PLAs of the workload.
    pub fn outputs(&self) -> usize {
        self.cases.iter().map(|c| c.pla.num_outputs()).sum()
    }
}

/// Generates the workload's PLAs, renders each to PLA text and parses it
/// back. `seed` orders the PLAs within a pass; `draw_seed` chooses
/// `random-dc`'s PLAs. With a recorder, the parse runs under a `parse`
/// span.
///
/// # Panics
///
/// Panics if the `pla` reader rejects text its own writer produced, which
/// is a bug in that crate.
pub fn setup(workload: Workload, seed: u64, draw_seed: u64, recorder: Option<&Recorder>) -> Setup {
    let start = Instant::now();
    let generated = generate(workload, seed, draw_seed);
    let texts: Vec<(String, String)> =
        generated.into_iter().map(|(name, pla)| (name, pla.to_string())).collect();
    let span = recorder.map(|r| r.span("parse"));
    let parse_start = Instant::now();
    let cases = texts
        .into_iter()
        .map(|(name, text)| {
            let pla = text.parse().unwrap_or_else(|e| panic!("{name}: own PLA text rejected: {e}"));
            Case { name, pla }
        })
        .collect();
    let parse = parse_start.elapsed();
    drop(span);
    Setup { cases, total: start.elapsed(), parse }
}

/// The workload's PLAs in pass order, before the text round trip.
pub fn generate(workload: Workload, seed: u64, draw_seed: u64) -> Vec<(String, Pla)> {
    let mut plas = match workload {
        Workload::Deep => named(&DEEP),
        Workload::Wide => named(&WIDE),
        Workload::RandomDc => random_dc(draw_seed),
    };
    SplitMix64::new(seed).shuffle(&mut plas);
    plas
}

fn named(names: &[&str]) -> Vec<(String, Pla)> {
    names
        .iter()
        .map(|&n| {
            let b = benchmarks::by_name(n).expect("workload names are known benchmarks");
            (n.to_string(), b.pla)
        })
        .collect()
}

/// [`RANDOM_DC_PLAS`] expression-tree PLAs drawn from `draw_seed`.
///
/// Each parameter takes evenly spaced values over its range, one per PLA,
/// in a seeded order (a Latin-hypercube draw), so every draw covers the
/// same spread of sizes; the pairing of parameters and the expression
/// trees vary with the draw.
pub fn random_dc(draw_seed: u64) -> Vec<(String, Pla)> {
    let mut rng = SplitMix64::new(draw_seed);
    let n = RANDOM_DC_PLAS;
    let inputs = strata(&mut rng, n, 12.0, 20.0);
    let outputs = strata(&mut rng, n, 2.0, 8.0);
    let windows = strata(&mut rng, n, 9.0, 12.0);
    let depths = strata(&mut rng, n, 4.0, 6.0);
    let xor_weights = strata(&mut rng, n, 0.1, 0.4);
    let dc_fractions = strata(&mut rng, n, 0.2, 0.5);
    (0..n)
        .map(|k| {
            let num_inputs = inputs[k].round() as usize;
            let spec = ExprSpec {
                num_inputs,
                num_outputs: outputs[k].round() as usize,
                window: (windows[k].round() as usize).min(num_inputs),
                depth: depths[k].round() as usize,
                xor_weight: xor_weights[k],
                dc_fraction: dc_fractions[k],
                seed: rng.next_u64(),
            };
            (format!("rdc{k:02}"), expression_pla(&spec))
        })
        .collect()
}

/// `n` evenly spaced values covering `[lo, hi]`, in seeded order.
fn strata(rng: &mut SplitMix64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut values: Vec<f64> =
        (0..n).map(|k| lo + (hi - lo) * (k as f64 + 0.5) / n as f64).collect();
    rng.shuffle(&mut values);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn seeds_only_reorder() {
        let names =
            |w, seed| -> Vec<String> { generate(w, seed, 1).into_iter().map(|c| c.0).collect() };
        for w in Workload::ALL {
            let first = names(w, 1);
            let mut sorted_first = first.clone();
            sorted_first.sort();
            let mut reordered = false;
            for seed in 2..8 {
                let mut other = names(w, seed);
                reordered |= other != first;
                other.sort();
                assert_eq!(other, sorted_first, "{}: seeds pick the same circuits", w.name());
            }
            assert!(reordered, "{}: seeds change the order", w.name());
        }
    }

    #[test]
    fn random_dc_is_seeded_and_in_range() {
        let a = random_dc(5);
        let b = random_dc(5);
        assert_eq!(a.len(), RANDOM_DC_PLAS);
        for ((_, pa), (_, pb)) in a.iter().zip(&b) {
            assert_eq!(pa, pb, "same seed, same PLAs");
            assert!((12..=20).contains(&pa.num_inputs()));
            assert!((2..=8).contains(&pa.num_outputs()));
        }
        assert_ne!(a[0].1, random_dc(6)[0].1);
    }
}
