//! Command-line decomposer: reads a PLA file (or a named builtin
//! benchmark), runs BI-DECOMP, writes BLIF next to it, and prints the
//! paper's measurement columns.
//!
//! Usage:
//!   cargo run --release --example decompose_pla -- <file.pla | benchmark-name> [out.blif]

use std::process::ExitCode;

use bidecomp::{decompose_pla, Options};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(source) = args.next() else {
        eprintln!("usage: decompose_pla <file.pla | benchmark-name> [out.blif]");
        eprintln!("builtin benchmarks: 9sym 16sym8 rd73 rd84 5xp1 t481 alu2 alu4 ...");
        return ExitCode::FAILURE;
    };
    let (name, pla) = if let Some(b) = benchmarks::by_name(&source) {
        (source.clone(), b.pla)
    } else {
        let text = match std::fs::read_to_string(&source) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {source}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match text.parse() {
            Ok(p) => (source.clone(), p),
            Err(e) => {
                eprintln!("cannot parse {source}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let outcome = decompose_pla(&pla, &Options::default());
    let s = outcome.netlist.stats();
    println!(
        "{name}: ins={} outs={} gates={} exors={} cascades={} area={} delay={:.1} \
         verified={} decompose={:?}",
        s.inputs,
        s.outputs,
        s.gates,
        s.exors,
        s.cascades,
        s.area,
        s.delay,
        outcome.verified,
        outcome.phases.decompose
    );
    if let Some(out_path) = args.next() {
        let blif = outcome.netlist.to_blif(&name);
        if let Err(e) = std::fs::write(&out_path, blif) {
            eprintln!("cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {out_path}");
    }
    ExitCode::SUCCESS
}
