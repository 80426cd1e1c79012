//! An output oracle that does not share code with the decomposer.
//!
//! The specification comes straight from the PLA's cubes, resolved as
//! espresso does: on-set first, then the don't-care set, then the off-set
//! (explicit `0` rows in `fr`/`fdr` files, the uncovered remainder in
//! `f`/`fd` files). The netlist is simulated bit-parallel with
//! [`Netlist::simulate`], and an output fails if it is 0 on an on-set
//! point or 1 on an off-set point.
//!
//! PLAs with at most [`EXHAUSTIVE_INPUTS`] inputs are checked on every
//! input vector. Wider ones are checked on [`SAMPLE_WORDS`] × 64 seeded
//! vectors: half uniform, half centred on a random cube of the PLA (its
//! literals fixed, the other inputs random), so that sparse on-sets are
//! hit as well as the bulk off-set.

use benchmarks::SplitMix64;
use netlist::Netlist;
use pla::{OutputValue, Pla, Trit};

/// Largest input count checked exhaustively.
pub const EXHAUSTIVE_INPUTS: usize = 16;
/// 64-vector words simulated per PLA above [`EXHAUSTIVE_INPUTS`].
pub const SAMPLE_WORDS: usize = 128;

/// What the oracle found for one PLA.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Verdict {
    /// Outputs checked.
    pub outputs: usize,
    /// Outputs that disagreed with the PLA on at least one care vector.
    pub failed: usize,
    /// Input vectors simulated.
    pub vectors: u64,
}

/// Checks every output of `netlist` against `pla`. The seed chooses the
/// sampled vectors of wide PLAs.
pub fn check(pla: &Pla, netlist: &Netlist, seed: u64) -> Verdict {
    let n = pla.num_inputs();
    let outputs = pla.num_outputs();
    if netlist.inputs().len() != n || netlist.outputs().len() != outputs {
        return Verdict { outputs, failed: outputs, vectors: 0 };
    }
    let mut bad = vec![false; outputs];
    let mut vectors = 0;
    if n <= EXHAUSTIVE_INPUTS {
        let (on, off) = truth_tables(pla);
        // Below 6 inputs one word holds every vector, with bits to spare.
        let valid = if n >= 6 { u64::MAX } else { (1u64 << (1 << n)) - 1 };
        let mut patterns = vec![0u64; n];
        for (w, (on_w, off_w)) in on.iter().zip(&off).enumerate() {
            for (k, p) in patterns.iter_mut().enumerate() {
                *p = exhaustive_word(k, w);
            }
            compare(&netlist.simulate(&patterns), on_w, off_w, valid, &mut bad);
            vectors += valid.count_ones() as u64;
        }
    } else {
        let mut rng = SplitMix64::new(seed);
        for word in 0..SAMPLE_WORDS {
            let patterns = if word % 2 == 0 {
                (0..n).map(|_| rng.next_u64()).collect()
            } else {
                cube_centred_word(pla, &mut rng)
            };
            let (on, off) = spec_word(pla, &patterns);
            compare(&netlist.simulate(&patterns), &on, &off, u64::MAX, &mut bad);
            vectors += 64;
        }
    }
    Verdict { outputs, failed: bad.iter().filter(|&&b| b).count(), vectors }
}

/// Marks output `j` bad where the simulated word disagrees with a care bit.
fn compare(got: &[u64], on: &[u64], off: &[u64], valid: u64, bad: &mut [bool]) {
    for j in 0..bad.len() {
        if (on[j] & !got[j] | off[j] & got[j]) & valid != 0 {
            bad[j] = true;
        }
    }
}

/// Word `w` of the exhaustive enumeration for input `k`: vector `64·w + b`
/// sets input `k` to bit `k` of that index.
fn exhaustive_word(k: usize, w: usize) -> u64 {
    const LOW: [u64; 6] = [
        0xaaaa_aaaa_aaaa_aaaa,
        0xcccc_cccc_cccc_cccc,
        0xf0f0_f0f0_f0f0_f0f0,
        0xff00_ff00_ff00_ff00,
        0xffff_0000_ffff_0000,
        0xffff_ffff_0000_0000,
    ];
    if k < 6 {
        LOW[k]
    } else if w >> (k - 6) & 1 != 0 {
        u64::MAX
    } else {
        0
    }
}

/// Per-output on-set and off-set truth tables, one bit per input vector
/// (`table[w]` covers vectors `64·w .. 64·w + 63`), laid out word-major:
/// `table[w][j]` is output `j`'s word `w`.
fn truth_tables(pla: &Pla) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let n = pla.num_inputs();
    let outputs = pla.num_outputs();
    let words = (1usize << n).div_ceil(64);
    let mut on = vec![vec![0u64; outputs]; words];
    let mut dc = vec![vec![0u64; outputs]; words];
    let mut off = vec![vec![0u64; outputs]; words];
    for cube in pla.cubes() {
        let (mut fixed, mut free) = (0usize, 0usize);
        for (k, t) in cube.inputs().iter().enumerate() {
            match t {
                Trit::One => fixed |= 1 << k,
                Trit::Zero => {}
                Trit::Dc => free |= 1 << k,
            }
        }
        // Every subset of the free positions, from `free` down to 0.
        let mut sub = free;
        loop {
            let m = fixed | sub;
            let (w, bit) = (m / 64, 1u64 << (m % 64));
            for (j, value) in cube.outputs().iter().enumerate() {
                match value {
                    OutputValue::One => on[w][j] |= bit,
                    OutputValue::DontCare => dc[w][j] |= bit,
                    OutputValue::Zero if pla.pla_type().zero_is_offset() => off[w][j] |= bit,
                    _ => {}
                }
            }
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & free;
        }
    }
    for w in 0..words {
        for j in 0..outputs {
            off[w][j] = resolve_off(pla, on[w][j], dc[w][j], off[w][j]);
        }
    }
    (on, off)
}

/// The off-set word after the on-set and then the don't-care set win.
fn resolve_off(pla: &Pla, on: u64, dc: u64, off: u64) -> u64 {
    let off = if pla.pla_type().rest_is_offset() { !0 } else { off };
    off & !on & !dc
}

/// On-set and off-set words of every output for 64 arbitrary vectors
/// (`patterns[k]` packs input `k`).
fn spec_word(pla: &Pla, patterns: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let outputs = pla.num_outputs();
    let (mut on, mut dc, mut off) = (vec![0; outputs], vec![0; outputs], vec![0; outputs]);
    for cube in pla.cubes() {
        let mut mask = u64::MAX;
        for (k, t) in cube.inputs().iter().enumerate() {
            match t {
                Trit::One => mask &= patterns[k],
                Trit::Zero => mask &= !patterns[k],
                Trit::Dc => {}
            }
            if mask == 0 {
                break;
            }
        }
        if mask == 0 {
            continue;
        }
        for (j, value) in cube.outputs().iter().enumerate() {
            match value {
                OutputValue::One => on[j] |= mask,
                OutputValue::DontCare => dc[j] |= mask,
                OutputValue::Zero if pla.pla_type().zero_is_offset() => off[j] |= mask,
                _ => {}
            }
        }
    }
    for j in 0..outputs {
        off[j] = resolve_off(pla, on[j], dc[j], off[j]);
    }
    (on, off)
}

/// 64 vectors, each inside a random cube of the PLA: the cube's literals
/// are fixed and its free inputs are random.
fn cube_centred_word(pla: &Pla, rng: &mut SplitMix64) -> Vec<u64> {
    let mut patterns: Vec<u64> = (0..pla.num_inputs()).map(|_| rng.next_u64()).collect();
    let cubes = pla.cubes();
    if cubes.is_empty() {
        return patterns;
    }
    for bit in 0..64 {
        let cube = &cubes[rng.gen_range(cubes.len())];
        for (k, t) in cube.inputs().iter().enumerate() {
            match t {
                Trit::One => patterns[k] |= 1 << bit,
                Trit::Zero => patterns[k] &= !(1 << bit),
                Trit::Dc => {}
            }
        }
    }
    patterns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and2() -> Pla {
        ".i 2\n.o 1\n11 1\n.e\n".parse().expect("valid PLA")
    }

    fn netlist_with(op: netlist::Gate2) -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(op, a, b);
        nl.add_output("f", g);
        nl
    }

    #[test]
    fn exhaustive_accepts_and_rejects() {
        let good = check(&and2(), &netlist_with(netlist::Gate2::And), 0);
        assert_eq!(good, Verdict { outputs: 1, failed: 0, vectors: 4 });
        assert_eq!(check(&and2(), &netlist_with(netlist::Gate2::Or), 0).failed, 1);
    }

    #[test]
    fn dont_cares_are_free() {
        // f = 1 on a=b=1 and don't care on a=0, b=1 (the row `01`). OR is
        // also 1 on a=1, b=0, which is in the off-set.
        let pla: Pla = ".i 2\n.o 1\n11 1\n01 d\n.e\n".parse().expect("valid PLA");
        assert_eq!(check(&pla, &netlist_with(netlist::Gate2::And), 0).failed, 0);
        assert_eq!(check(&pla, &netlist_with(netlist::Gate2::Or), 0).failed, 1);
    }

    #[test]
    fn shape_mismatch_fails_every_output() {
        let pla: Pla = ".i 3\n.o 1\n111 1\n.e\n".parse().expect("valid PLA");
        assert_eq!(check(&pla, &netlist_with(netlist::Gate2::And), 0).failed, 1);
    }
}
