//! Cross-system differential tests: the SAT engine must confirm what the
//! BDD verifier accepts.

#[test]
fn sat_confirms_the_bdd_verifier_on_a_suite_slice() {
    // The decomposed netlist against its own exported-PLA redecomposition:
    // two genuinely different netlists for the same function, proven
    // equivalent by the SAT miter.
    for name in ["rd73", "misex1", "con1"] {
        let b = benchmarks::by_name(name).expect("known");
        let first = bidecomp::decompose_pla(&b.pla, &bidecomp::Options::default());
        let exported = bidecomp::pla_from_netlist(&first.netlist);
        let second = bidecomp::decompose_pla(&exported, &bidecomp::Options::default());
        assert!(first.verified && second.verified, "{name}");
        assert_eq!(
            sat::tseitin::check_equivalence(&first.netlist, &second.netlist),
            None,
            "{name}: the two decompositions must be equivalent"
        );
    }
}
