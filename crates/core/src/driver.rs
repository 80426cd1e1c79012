//! End-to-end driver: PLA in → two-input gate netlist out.
//!
//! Mirrors the experimental flow of §8: read the PLA, build the on-set and
//! off-set BDDs per output, order the variables, run `BiDecompose` on each
//! output (one decomposer, so the §6 component cache is shared across
//! outputs), verify with the BDD verifier, and report statistics and
//! the wall-clock time of each phase.

use std::time::{Duration, Instant};

use bdd::{reorder, Analytics, Bdd, Func, MemReport, OpStats};
use netlist::Netlist;
use obs::Recorder;
use pla::{OutputValue, Pla};

use crate::decompose::ComponentCacheStats;
use crate::{verify, Decomposer, Isf, Options, Stats};

/// Wall-clock time of each phase of the [`decompose_pla`] flow.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PhaseTimes {
    /// Static variable ordering (literal-frequency heuristic).
    pub ordering: Duration,
    /// Building the specification ISF BDDs from the PLA cubes.
    pub bdd_build: Duration,
    /// The recursive bi-decomposition of every output (includes netlist
    /// assembly, which is interleaved with the recursion).
    pub decompose: Duration,
    /// BDD-based verification of the result.
    pub verify: Duration,
}

/// Result of decomposing a PLA.
#[derive(Debug)]
pub struct DecompOutcome {
    /// The synthesized two-input gate netlist.
    pub netlist: Netlist,
    /// Algorithm statistics (recursive calls, cache hits, weak rate, …).
    pub stats: Stats,
    /// Did the BDD-based verifier accept the result?
    pub verified: bool,
    /// Peak live BDD node count, sampled after the specification build,
    /// after every output and after verification. Live nodes only grow
    /// between collections, and collections run only after the sample
    /// that follows an output, so no peak is missed.
    pub bdd_nodes: usize,
    /// Per-phase wall-clock breakdown (always populated; cheap). As in
    /// the paper, PLA parsing is not timed.
    pub phases: PhaseTimes,
    /// BDD manager operation counters accumulated across the whole run
    /// (mk/apply/cache plus the GC counters).
    pub op_stats: OpStats,
    /// The decomposition trace (one event per recursive call, each with
    /// its measured cost). Empty unless [`Options::trace`] is on.
    pub trace: Vec<crate::trace::TraceEvent>,
    /// BDD manager heap footprint: per-table byte estimates and the peak
    /// sampled across the run (at every GC, after every output, and at
    /// the end).
    pub mem: MemReport,
    /// Structured unique-table and computed-cache analytics from the BDD
    /// manager. `None` unless [`Options::telemetry`] is on (building it
    /// walks the unique table once).
    pub analytics: Option<Analytics>,
    /// Component-cache occupancy (§6). Always populated; costs one pass
    /// over the bucket lengths.
    pub component_cache: ComponentCacheStats,
}

/// Builds the specification ISFs of every PLA output inside `mgr`.
///
/// Follows espresso semantics: the on-set comes from `1` entries, the
/// don't-care set from `d` entries, and the off-set from `0` entries
/// (`fr`/`fdr`) or the uncovered remainder (`f`/`fd`). Overlaps resolve in
/// favor of the on-set, then the don't-care set. One pass over the cubes
/// sorts their indices by output and entry; each set is then built
/// straight from its bucket by [`Bdd::cover_function`], in output order.
///
/// # Panics
///
/// Panics if the manager has fewer variables than the PLA has inputs.
pub fn isfs_from_pla(mgr: &mut Bdd, pla: &Pla) -> Vec<Isf> {
    assert!(
        mgr.num_vars() >= pla.num_inputs(),
        "manager needs at least {} variables",
        pla.num_inputs()
    );
    let rest_is_offset = pla.pla_type().rest_is_offset();
    // The bucket of each output entry: three per output, on, don't-care
    // and explicit off.
    let bucket = |out: usize, value: OutputValue| match value {
        OutputValue::One => Some(3 * out),
        OutputValue::DontCare => Some(3 * out + 1),
        OutputValue::Zero if !rest_is_offset => Some(3 * out + 2),
        _ => None,
    };
    // Counting sort of the cube indices: bucket `b` is
    // `members[start[b]..start[b + 1]]`, in cube order.
    let mut start = vec![0; 3 * pla.num_outputs() + 1];
    for cube in pla.cubes() {
        for (out, &value) in cube.outputs().iter().enumerate() {
            if let Some(b) = bucket(out, value) {
                start[b + 1] += 1;
            }
        }
    }
    for b in 1..start.len() {
        start[b] += start[b - 1];
    }
    let mut next = start.clone();
    let mut members = vec![0; start[start.len() - 1]];
    for (i, cube) in pla.cubes().iter().enumerate() {
        for (out, &value) in cube.outputs().iter().enumerate() {
            if let Some(b) = bucket(out, value) {
                members[next[b]] = i;
                next[b] += 1;
            }
        }
    }
    let cover = |mgr: &mut Bdd, b: usize| {
        let cubes = members[start[b]..start[b + 1]].iter().map(|&i| &pla.cubes()[i]);
        mgr.cover_function(cubes.map(pla::Cube::literals))
    };
    (0..pla.num_outputs())
        .map(|out| {
            let q = cover(mgr, 3 * out);
            let dc = cover(mgr, 3 * out + 1);
            let covered = mgr.or(q, dc);
            let r = if rest_is_offset {
                mgr.not(covered)
            } else {
                // On-set wins on overlap, then don't-care.
                let off = cover(mgr, 3 * out + 2);
                mgr.diff(off, covered)
            };
            Isf::new(mgr, q, r)
        })
        .collect()
}

/// The netlist names of a PLA's inputs and outputs: its `.ilb`/`.ob`
/// labels, or `x{k}`/`y{k}` where it declares none.
pub fn signal_names(pla: &Pla) -> (Vec<String>, Vec<String>) {
    let names = |labels: Option<&[String]>, prefix: char, count: usize| match labels {
        Some(labels) => labels.to_vec(),
        None => (0..count).map(|k| format!("{prefix}{k}")).collect(),
    };
    (
        names(pla.input_labels(), 'x', pla.num_inputs()),
        names(pla.output_labels(), 'y', pla.num_outputs()),
    )
}

/// Decomposes a multi-output PLA into a netlist of two-input gates —
/// the full BI-DECOMP flow of the paper.
///
/// See the [crate-level example](crate) for usage.
pub fn decompose_pla(pla: &Pla, options: &Options) -> DecompOutcome {
    decompose_pla_with_recorder(pla, options, None)
}

/// [`decompose_pla`] with a telemetry [`Recorder`] attached: the run, every
/// phase and every output run under a hierarchical span. The recorder
/// carries spans only; every count is in the returned [`DecompOutcome`],
/// and what is collected follows [`Options`] alone.
pub fn decompose_pla_with_recorder(
    pla: &Pla,
    options: &Options,
    recorder: Option<Recorder>,
) -> DecompOutcome {
    let run_span = recorder.as_ref().map(|r| r.span("decompose_pla"));
    let (input_names, output_names) = signal_names(pla);
    let mut dec = Decomposer::with_options(pla.num_inputs(), Some(&input_names), *options);
    let mut phases = PhaseTimes::default();

    let t = Instant::now();
    {
        let _span = recorder.as_ref().map(|r| r.span("order"));
        if options.order_by_frequency {
            let order = reorder::order_by_frequency(&pla.literal_frequencies());
            dec.set_variable_order(&order);
        }
    }
    phases.ordering = t.elapsed();

    let t = Instant::now();
    let isfs = {
        let _span = recorder.as_ref().map(|r| r.span("bdd_build"));
        isfs_from_pla(dec.manager(), pla)
    };
    phases.bdd_build = t.elapsed();

    let t = Instant::now();
    let mut peak_nodes = dec.manager().total_nodes();
    {
        let _span = recorder.as_ref().map(|r| r.span("decompose"));
        let mut components = Vec::with_capacity(isfs.len());
        for (k, isf) in isfs.iter().enumerate() {
            let _out_span =
                recorder.as_ref().map(|r| r.span(format!("output.{}", output_names[k])));
            let comp = dec.decompose(*isf);
            dec.add_output(output_names[k].clone(), comp);
            components.push(comp);
            peak_nodes = peak_nodes.max(dec.manager().total_nodes());
            dec.manager().sample_mem();
            if dec.manager().total_nodes() > options.gc_threshold {
                // Keep the remaining specifications and finished components.
                let mut roots: Vec<Func> = components.iter().map(|c| c.func).collect();
                for isf in &isfs[k + 1..] {
                    roots.push(isf.q);
                    roots.push(isf.r);
                }
                for isf in &isfs[..=k] {
                    roots.push(isf.q);
                    roots.push(isf.r);
                }
                dec.gc(&roots);
            }
        }
    }
    phases.decompose = t.elapsed();

    let trace = dec.take_trace();
    let component_cache = dec.component_cache_stats();
    let (netlist, stats, mut mgr) = dec.into_parts();

    let t = Instant::now();
    let verified = {
        let _span = recorder.as_ref().map(|r| r.span("verify"));
        verify::verify_netlist(&mut mgr, &netlist, &isfs)
    };
    phases.verify = t.elapsed();

    peak_nodes = peak_nodes.max(mgr.total_nodes());
    mgr.sample_mem();
    drop(run_span);
    DecompOutcome {
        netlist,
        stats,
        verified,
        bdd_nodes: peak_nodes,
        phases,
        op_stats: mgr.op_stats(),
        trace,
        mem: mgr.mem_report(),
        analytics: options.telemetry.then(|| mgr.analytics()),
        component_cache,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_pla_end_to_end() {
        let pla: Pla = "\
.i 4
.o 1
.ilb a b c d
.ob f
11-- 1
--11 1
.e
"
        .parse()
        .expect("valid pla");
        let outcome = decompose_pla(&pla, &Options::default());
        assert!(outcome.verified);
        let s = outcome.netlist.stats();
        assert_eq!(s.gates, 3);
        assert_eq!(s.exors, 0);
        // The netlist computes OR(a·b, c·d).
        for bits in 0..16u64 {
            let vals: Vec<bool> = (0..4).map(|k| bits & (1 << k) != 0).collect();
            let expected = (vals[0] && vals[1]) || (vals[2] && vals[3]);
            assert_eq!(outcome.netlist.eval_all(&vals), vec![expected]);
        }
    }

    #[test]
    fn fd_pla_with_dont_cares() {
        // On: 11, DC: 0-, off: rest (=10). f must be 1 at ab, 0 at a¬b.
        let pla: Pla = ".i 2\n.o 1\n11 1\n0- d\n.e\n".parse().expect("valid");
        let outcome = decompose_pla(&pla, &Options::default());
        assert!(outcome.verified);
        let nl = &outcome.netlist;
        assert_eq!(nl.eval_all(&[true, true]), vec![true]);
        assert_eq!(nl.eval_all(&[true, false]), vec![false]);
        // With the don't-cares the whole thing reduces to the literal b.
        assert_eq!(nl.stats().gates, 0);
    }

    /// The per-output filter [`isfs_from_pla`] replaced: every output
    /// rescans all cubes for each of its sets.
    fn isfs_by_filter(mgr: &mut Bdd, pla: &Pla) -> Vec<Isf> {
        let cover = |mgr: &mut Bdd, out: usize, value: OutputValue| {
            let cubes = pla.cubes().iter().filter(|c| c.outputs()[out] == value);
            mgr.cover_function(cubes.map(pla::Cube::literals))
        };
        (0..pla.num_outputs())
            .map(|out| {
                let q = cover(mgr, out, OutputValue::One);
                let dc = cover(mgr, out, OutputValue::DontCare);
                let covered = mgr.or(q, dc);
                let r = if pla.pla_type().rest_is_offset() {
                    mgr.not(covered)
                } else {
                    let off = cover(mgr, out, OutputValue::Zero);
                    mgr.diff(off, covered)
                };
                Isf::new(mgr, q, r)
            })
            .collect()
    }

    #[test]
    fn bucketed_spec_build_matches_the_per_output_filter() {
        // Every output sees `1`, `d`, `0`, `-` and `~` entries, interleaved
        // differently across the cubes, with overlaps between the sets.
        let body = "\
1-0- 1d0
-11- d~1
0--1 01-
11-- -1d
--00 1-0
0-1- d01
-1-1 ~d1
1111 0-~
00-- 1d0
";
        for ty in ["f", "fd", "fr", "fdr"] {
            let pla: Pla = format!(".i 4\n.o 3\n.type {ty}\n{body}.e\n").parse().expect("valid");
            let (mut fresh, mut reference) = (Bdd::new(4), Bdd::new(4));
            let got = isfs_from_pla(&mut fresh, &pla);
            let want = isfs_by_filter(&mut reference, &pla);
            assert_eq!(got.len(), 3, ".type {ty}");
            for (out, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!((g.q, g.r), (w.q, w.r), ".type {ty} output {out}");
            }
            assert_eq!(fresh.op_stats(), reference.op_stats(), ".type {ty}");
        }
    }

    #[test]
    fn fr_pla_interval_semantics() {
        let pla: Pla = ".i 2\n.o 1\n.type fr\n11 1\n00 0\n.e\n".parse().expect("valid");
        let mut mgr = Bdd::new(2);
        let isfs = isfs_from_pla(&mut mgr, &pla);
        assert_eq!(isfs.len(), 1);
        let isf = isfs[0];
        assert_eq!(mgr.sat_count(isf.q), 1.0);
        assert_eq!(mgr.sat_count(isf.r), 1.0);
        let dc = isf.dont_care(&mut mgr);
        assert_eq!(mgr.sat_count(dc), 2.0);
        let outcome = decompose_pla(&pla, &Options::default());
        assert!(outcome.verified);
    }

    #[test]
    fn fdr_pla_semantics() {
        // fdr: on, off and dc all explicit; the rest is don't-care.
        let pla: Pla = ".i 2\n.o 1\n.type fdr\n11 1\n00 0\n01 d\n.e\n".parse().expect("valid");
        let mut mgr = Bdd::new(2);
        let isfs = isfs_from_pla(&mut mgr, &pla);
        let isf = isfs[0];
        assert_eq!(mgr.sat_count(isf.q), 1.0);
        assert_eq!(mgr.sat_count(isf.r), 1.0);
        let dc = isf.dont_care(&mut mgr);
        assert_eq!(mgr.sat_count(dc), 2.0, "explicit d plus the uncovered 10");
        let outcome = decompose_pla(&pla, &Options::default());
        assert!(outcome.verified);
    }

    #[test]
    fn multi_output_sharing() {
        // Outputs f = a·b + c and g = a·b + d share the a·b component.
        let pla: Pla = "\
.i 4
.o 2
11-- 11
--1- 10
---1 01
.e
"
        .parse()
        .expect("valid");
        let outcome = decompose_pla(&pla, &Options::default());
        assert!(outcome.verified);
        assert_eq!(outcome.netlist.stats().gates, 3, "a·b shared between outputs");
    }

    #[test]
    fn weak_only_options_still_verify() {
        let pla: Pla = "\
.i 4
.o 1
11-- 1
--11 1
.e
"
        .parse()
        .expect("valid");
        let outcome = decompose_pla(&pla, &Options::weak_only());
        assert!(outcome.verified);
        let strong = decompose_pla(&pla, &Options::default());
        assert!(
            outcome.netlist.stats().gates >= strong.netlist.stats().gates,
            "weak-only must not beat the full algorithm here"
        );
    }

    #[test]
    fn constant_outputs() {
        // Output 0: constant 1 (tautology cube). Output 1: constant 0 (no cubes).
        let pla: Pla = ".i 2\n.o 2\n-- 1-\n.e\n".parse().expect("valid");
        let outcome = decompose_pla(&pla, &Options::default());
        assert!(outcome.verified);
        assert_eq!(outcome.netlist.stats().gates, 0);
        assert_eq!(outcome.netlist.eval_all(&[false, false]), vec![true, false]);
    }

    #[test]
    fn phases_and_nodes_are_populated() {
        let pla: Pla = ".i 3\n.o 1\n111 1\n.e\n".parse().expect("valid");
        let outcome = decompose_pla(&pla, &Options::default());
        assert!(outcome.bdd_nodes >= 2);
        // Phase times, op counters and the depth are always populated…
        assert!(outcome.phases.bdd_build.as_nanos() > 0);
        assert!(outcome.phases.decompose.as_nanos() > 0);
        assert!(outcome.phases.verify.as_nanos() > 0);
        assert!(outcome.op_stats.mk_calls > 0);
        assert_eq!(outcome.stats.max_depth, 1, "x0·x1·x2 splits once");
        // …but the trace needs its own flag, and then every event
        // carries its cost.
        assert!(outcome.trace.is_empty());
        let with_trace = decompose_pla(&pla, &Options { trace: true, ..Options::default() });
        assert_eq!(with_trace.trace.len(), with_trace.stats.calls);
        assert!(with_trace.trace.iter().all(|e| e.cost.elapsed_ns > 0));
    }

    #[test]
    fn mem_fields_are_populated() {
        let pla: Pla = ".i 3\n.o 2\n111 10\n-11 01\n.e\n".parse().expect("valid");
        let outcome = decompose_pla(&pla, &Options::default());
        // Memory accounting is always on.
        assert!(outcome.mem.total_bytes > 0);
        assert!(outcome.mem.peak_bytes >= outcome.mem.total_bytes);
        assert_eq!(
            outcome.mem.total_bytes,
            outcome.mem.unique_table_bytes
                + outcome.mem.computed_cache_bytes
                + outcome.mem.node_slab_bytes
        );
    }

    #[test]
    fn forensics_fields_follow_the_telemetry_opt_in() {
        let pla: Pla = ".i 3\n.o 2\n111 10\n-11 01\n.e\n".parse().expect("valid");
        let plain = decompose_pla(&pla, &Options::default());
        // Without telemetry analytics stay off…
        assert!(plain.analytics.is_none());
        // …while component-cache stats are plain bookkeeping, always on.
        assert!(plain.component_cache.components >= plain.component_cache.support_sets);
        let rich = decompose_pla(&pla, &Options { telemetry: true, ..Options::default() });
        let analytics = rich.analytics.as_ref().expect("telemetry enables analytics");
        assert!(analytics.probe.entries > 0, "unique table holds live nodes");
        assert!(
            analytics.cache_by_op.iter().any(|op| op.lookups > 0),
            "the decomposition exercises the computed cache"
        );
    }

    #[test]
    fn recorder_sees_nested_phase_spans() {
        use obs::profile::ProfileSink;
        use obs::Recorder;
        let pla: Pla = "\
.i 4
.o 2
11-- 11
--1- 10
---1 01
.e
"
        .parse()
        .expect("valid");
        let rec = Recorder::new();
        let sink = ProfileSink::new();
        rec.add_sink(Box::new(sink.clone()));
        let outcome = decompose_pla_with_recorder(&pla, &Options::default(), Some(rec.clone()));
        assert!(outcome.verified);
        let spans = sink.events();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        // Spans are kept as they close: the run span closes last.
        assert_eq!(
            names,
            [
                "order",
                "bdd_build",
                "output.y0",
                "output.y1",
                "decompose",
                "verify",
                "decompose_pla"
            ]
        );
        let span = |name: &str| spans.iter().find(|s| s.name == name).expect("span recorded");
        let inside = |child: &str, parent: &str| {
            let (c, p) = (span(child), span(parent));
            assert!(
                p.start <= c.start && c.start + c.duration <= p.start + p.duration,
                "{child} {c:?} escapes {parent} {p:?}"
            );
        };
        // The run span wraps the phases; per-output spans nest inside the
        // decompose phase. Both bounds of a span come from its own clock
        // reads, so containment is exact.
        for phase in ["order", "bdd_build", "decompose", "verify"] {
            inside(phase, "decompose_pla");
        }
        inside("output.y0", "decompose");
        inside("output.y1", "decompose");
        // A recorder turns nothing on; the options alone decide.
        assert!(outcome.trace.is_empty());
        assert!(outcome.analytics.is_none());
    }
}
