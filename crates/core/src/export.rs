//! Exporting synthesized netlists back to two-level form.
//!
//! Closes the loop of the §8 toolchain: PLA in → netlist out →
//! (optionally) minimized PLA back out, via BDD extraction and the
//! Minato–Morreale ISOP cover.

use bdd::Bdd;
use netlist::Netlist;
use pla::{Cube, Pla, Trit};

/// Re-expresses a netlist as a PLA whose cover is an irredundant SOP per
/// output (computed over the netlist's exact functions; no don't-cares).
///
/// Input/output names are carried over from the netlist.
///
/// # Panics
///
/// Panics if the netlist has more than 256 inputs (BDD manager limit).
pub fn pla_from_netlist(netlist: &Netlist) -> Pla {
    let num_inputs = netlist.inputs().len();
    let num_outputs = netlist.outputs().len();
    let mut mgr = Bdd::new(num_inputs);
    let bdds = netlist.to_bdds(&mut mgr);
    let input_labels: Vec<String> =
        netlist.inputs().iter().map(|&s| netlist.input_name(s).to_owned()).collect();
    let output_labels: Vec<String> = netlist.outputs().iter().map(|(n, _)| n.clone()).collect();
    let mut pla = Pla::new(num_inputs, num_outputs)
        .with_input_labels(input_labels)
        .with_output_labels(output_labels);
    for (out, &f) in bdds.iter().enumerate() {
        let (_, cubes) = mgr.isop(f, f);
        for cube in cubes {
            let mut row = Cube::tautology(num_inputs, num_outputs, out);
            for (v, pos) in cube {
                row.set_input(v as usize, if pos { Trit::One } else { Trit::Zero });
            }
            pla.push(row);
        }
    }
    pla
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decompose_pla, Options};

    #[test]
    fn roundtrip_pla_netlist_pla() {
        let original: Pla = "\
.i 4
.o 2
.ilb a b c d
.ob f g
11-- 10
--11 10
1--1 01
.e
"
        .parse()
        .expect("valid");
        let outcome = decompose_pla(&original, &Options::default());
        assert!(outcome.verified);
        let exported = pla_from_netlist(&outcome.netlist);
        assert_eq!(exported.num_inputs(), 4);
        assert_eq!(exported.num_outputs(), 2);
        assert_eq!(exported.input_labels().unwrap(), ["a", "b", "c", "d"]);
        // The exported cover computes the same functions.
        for m in 0..16u64 {
            for out in 0..2 {
                assert_eq!(exported.eval(out, m), original.eval(out, m), "m={m:04b} out={out}");
            }
        }
        // And it is compact: the two-cube ON-set of f is recovered.
        assert_eq!(exported.on_cubes(0).count(), 2);
        assert_eq!(exported.on_cubes(1).count(), 1);
    }

    #[test]
    fn exported_pla_redecomposes_identically() {
        let b: Pla = ".i 5\n.o 1\n11--- 1\n--11- 1\n----1 1\n.e\n".parse().expect("valid");
        let first = decompose_pla(&b, &Options::default());
        let exported = pla_from_netlist(&first.netlist);
        let second = decompose_pla(&exported, &Options::default());
        assert!(second.verified);
        assert_eq!(
            first.netlist.stats().gates,
            second.netlist.stats().gates,
            "stable fixed point through the loop"
        );
    }

    #[test]
    fn constant_outputs_export() {
        let pla: Pla = ".i 2\n.o 2\n-- 1-\n.e\n".parse().expect("valid");
        let outcome = decompose_pla(&pla, &Options::default());
        let exported = pla_from_netlist(&outcome.netlist);
        assert_eq!(exported.eval(0, 0), Some(true), "tautology survives");
        assert_eq!(exported.eval(1, 0), Some(false));
        // Constant 1 appears as the single tautology cube.
        assert_eq!(exported.on_cubes(0).count(), 1);
        assert_eq!(exported.on_cubes(0).next().unwrap().literal_count(), 0);
        assert_eq!(exported.on_cubes(1).count(), 0);
    }
}
