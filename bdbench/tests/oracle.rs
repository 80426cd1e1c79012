//! The oracle accepts the decomposer's netlists and rejects corrupted ones.

use bdbench::oracle::{check, EXHAUSTIVE_INPUTS};
use bidecomp::{decompose_pla, Options};
use netlist::{Gate, Gate2, Netlist};

/// Rebuilds `good` gate by gate, letting `edit` change each node. Output
/// `j` is driven by the rebuilt copy of its signal, inverted if
/// `invert_output == Some(j)`.
fn rebuild(
    good: &Netlist,
    mut edit: impl FnMut(usize, &Gate) -> Gate,
    invert_output: Option<usize>,
) -> Netlist {
    let mut bad = Netlist::new();
    let mut map = Vec::with_capacity(good.nodes().len());
    for (id, gate) in good.nodes().iter().enumerate() {
        let signal = match edit(id, gate) {
            Gate::Input(name) => bad.add_input(name),
            Gate::Const(v) => bad.constant(v),
            Gate::Not(a) => bad.add_not(map[a as usize]),
            Gate::Binary(op, a, b) => bad.add_gate(op, map[a as usize], map[b as usize]),
        };
        map.push(signal);
    }
    for (j, (name, s)) in good.outputs().iter().enumerate() {
        let s = map[*s as usize];
        let s = if invert_output == Some(j) { bad.add_not(s) } else { s };
        bad.add_output(name.clone(), s);
    }
    bad
}

fn benchmark(name: &str) -> pla::Pla {
    benchmarks::by_name(name).expect("known benchmark").pla
}

#[test]
fn accepts_decomposed_netlists_exhaustive_and_sampled() {
    for name in ["rd73", "alu2", "cps"] {
        let pla = benchmark(name);
        let outcome = decompose_pla(&pla, &Options::default());
        let verdict = check(&pla, &outcome.netlist, 7);
        assert_eq!(verdict.failed, 0, "{name}: {verdict:?}");
        assert_eq!(verdict.outputs, pla.num_outputs());
        if pla.num_inputs() <= EXHAUSTIVE_INPUTS {
            assert_eq!(verdict.vectors, 1 << pla.num_inputs(), "{name} is checked exhaustively");
        }
    }
}

#[test]
fn rejects_an_inverted_output() {
    for (name, out) in [("rd73", 1), ("cps", 5)] {
        let pla = benchmark(name);
        let good = decompose_pla(&pla, &Options::default()).netlist;
        let bad = rebuild(&good, |_, g| g.clone(), Some(out));
        let verdict = check(&pla, &bad, 7);
        assert_eq!(verdict.failed, 1, "{name}: exactly the inverted output fails: {verdict:?}");
    }
}

#[test]
fn rejects_a_swapped_gate() {
    // rd73 has no don't-cares, so changing the function of the gate that
    // drives output 0 must show on some vector.
    let pla = benchmark("rd73");
    let good = decompose_pla(&pla, &Options::default()).netlist;
    let mut target = good.outputs()[0].1 as usize;
    while let Gate::Not(a) = good.nodes()[target] {
        target = a as usize;
    }
    assert!(matches!(good.nodes()[target], Gate::Binary(..)), "output 0 is driven by a gate");
    let bad = rebuild(
        &good,
        |id, g| match *g {
            Gate::Binary(op, a, b) if id == target => {
                let swapped = match op {
                    Gate2::And => Gate2::Or,
                    Gate2::Or => Gate2::And,
                    other => other.complement(),
                };
                Gate::Binary(swapped, a, b)
            }
            _ => g.clone(),
        },
        None,
    );
    assert!(check(&pla, &bad, 7).failed >= 1, "a swapped gate must be caught");
}
