//! Golden netlist digests: the BLIF that the default configuration emits
//! for every small-suite benchmark and every committed corpus case must
//! stay byte-identical. Every decomposability check is a pure function, so
//! a speed-up of the grouping search or the BDD kernel must not move a
//! single gate; this test catches it when one does.
//!
//! The digests live in `artifacts/blif_digests.txt`, one `name hash` line
//! per netlist (64-bit FNV-1a of the BLIF text). Regenerate them with
//! `BLESS=1 cargo test --test golden_netlists` after an intentional change
//! of the decomposer's output, and say why in the change description.

use std::fmt::Write as _;
use std::path::Path;

use bidecomp::Options;
use pla::Pla;

/// 64-bit FNV-1a: stable across platforms and dependency-free.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn digest_line(out: &mut String, name: &str, pla: &Pla) {
    let outcome = bidecomp::decompose_pla(pla, &Options::default());
    assert!(outcome.verified, "{name}: verification failed");
    let blif = outcome.netlist.to_blif(name);
    writeln!(out, "{name} {:016x}", fnv1a(blif.as_bytes())).expect("writing to a String");
}

#[test]
fn blif_digests_match_the_committed_goldens() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut actual = String::new();
    for b in benchmarks::small() {
        digest_line(&mut actual, b.name, &b.pla);
    }
    let corpus = fuzz::corpus::load_dir(&root.join("artifacts/corpus")).expect("corpus readable");
    for (name, pla) in &corpus {
        digest_line(&mut actual, name, pla);
    }

    let path = root.join("artifacts/blif_digests.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("cannot bless {path:?}: {e}"));
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {path:?} (run with BLESS=1 to create): {e}"));
    assert_eq!(actual, expected, "netlists drifted from the goldens");
}
