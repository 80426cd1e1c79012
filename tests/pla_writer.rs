//! Writer goldens: the PLA writer must reproduce the committed PLA files
//! byte for byte. `artifacts/<name>.pla` is what `emit` wrote for each
//! benchmark, and each corpus file is its PLA's text under a `#` comment
//! header.

use std::fs;
use std::path::Path;

#[test]
fn writer_reproduces_the_committed_pla_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts");
    for b in benchmarks::all() {
        let path = root.join(format!("{}.pla", b.name));
        let committed = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        assert!(b.pla.to_string() == committed, "{}: writer output differs from the file", b.name);
    }

    let mut corpus: Vec<_> = fs::read_dir(root.join("corpus"))
        .expect("corpus directory is readable")
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "pla"))
        .collect();
    corpus.sort();
    assert!(corpus.len() >= 20, "only {} corpus files", corpus.len());
    for path in corpus {
        let text = fs::read_to_string(&path).expect("corpus file is readable");
        let pla: pla::Pla = text.parse().unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let body: String =
            text.lines().filter(|l| !l.starts_with('#')).map(|l| l.to_owned() + "\n").collect();
        assert!(pla.to_string() == body, "{}: re-written text differs", path.display());
    }
}
