//! End-to-end driver: PLA in → two-input gate netlist out.
//!
//! Mirrors the experimental flow of §8: read the PLA, build the on-set and
//! off-set BDDs per output, order the variables, run `BiDecompose` on each
//! output (one decomposer, so the §6 component cache is shared across
//! outputs), verify with the BDD verifier, and report statistics and
//! wall-clock time.

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
    /// Wall-clock time of decomposition only (excludes PLA parsing,
    /// includes BDD construction and netlist assembly; as in the paper,
    /// input file reading is not included).
    pub elapsed: Duration,
    /// Peak live BDD node count, sampled after the specification build,
    /// after every output and after verification. Live nodes only grow
    /// between collections, and collections run only after the sample
    /// that follows an output, so no peak is missed.
    pub bdd_nodes: usize,
    /// Per-phase wall-clock breakdown (always populated; cheap).
    pub phases: PhaseTimes,
    /// BDD manager operation counters accumulated across the whole run
    /// (mk/apply/cache plus the GC counters).
    pub op_stats: OpStats,
    /// Recursive calls per depth. Empty unless [`Options::telemetry`] is
    /// on.
    pub depth_histogram: Vec<u64>,
    /// The decomposition trace (one event per recursive call). Empty
    /// unless [`Options::trace`] is on.
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
/// favor of the on-set, then the don't-care set. Each set is built
/// straight from its cube list by [`Bdd::cover_function`], one output at a
/// time, in output order.
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
                // On-set wins on overlap, then don't-care.
                let off = cover(mgr, out, OutputValue::Zero);
                mgr.diff(off, covered)
            };
            Isf::new(mgr, q, r)
        })
        .collect()
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
/// and what is collected follows [`Options::telemetry`] alone.
pub fn decompose_pla_with_recorder(
    pla: &Pla,
    options: &Options,
    recorder: Option<Recorder>,
) -> DecompOutcome {
    let start = Instant::now();
    let run_span = recorder.as_ref().map(|r| r.span("decompose_pla"));
    let n = pla.num_inputs();
    let input_names: Vec<String> = match pla.input_labels() {
        Some(labels) => labels.to_vec(),
        None => (0..n).map(|k| format!("x{k}")).collect(),
    };
    let output_names: Vec<String> = match pla.output_labels() {
        Some(labels) => labels.to_vec(),
        None => (0..pla.num_outputs()).map(|k| format!("y{k}")).collect(),
    };
    let mut dec = Decomposer::with_options(n, Some(&input_names), *options);
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
    let elapsed = start.elapsed();

    let depth_histogram = dec.depth_histogram().to_vec();
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
    if let Some(rec) = &recorder {
        rec.flush();
    }
    DecompOutcome {
        netlist,
        stats,
        verified,
        elapsed,
        bdd_nodes: peak_nodes,
        phases,
        op_stats: mgr.op_stats(),
        depth_histogram,
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
    fn elapsed_and_nodes_are_populated() {
        let pla: Pla = ".i 3\n.o 1\n111 1\n.e\n".parse().expect("valid");
        let outcome = decompose_pla(&pla, &Options::default());
        assert!(outcome.bdd_nodes >= 2);
        assert!(outcome.elapsed.as_nanos() > 0);
        // Phase times and op counters are always populated…
        assert!(outcome.phases.bdd_build.as_nanos() > 0);
        assert!(outcome.phases.decompose.as_nanos() > 0);
        assert!(outcome.phases.verify.as_nanos() > 0);
        assert!(outcome.op_stats.mk_calls > 0);
        // …but the depth histogram needs the telemetry opt-in, and the
        // trace its own flag.
        assert!(outcome.depth_histogram.is_empty());
        assert!(outcome.trace.is_empty());
        let with_trace = decompose_pla(&pla, &Options { trace: true, ..Options::default() });
        assert!(!with_trace.trace.is_empty());
        let with_telemetry =
            decompose_pla(&pla, &Options { telemetry: true, ..Options::default() });
        assert_eq!(with_telemetry.depth_histogram[0], 1);
        assert_eq!(
            with_telemetry.depth_histogram.iter().sum::<u64>(),
            with_telemetry.stats.calls as u64
        );
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
        use obs::{Event, MemorySink, Recorder};
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
        let sink = MemorySink::new();
        rec.add_sink(Box::new(sink.clone()));
        let outcome = decompose_pla_with_recorder(&pla, &Options::default(), Some(rec.clone()));
        assert!(outcome.verified);
        let events = sink.events();
        let starts: Vec<(String, usize)> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanStart { name, depth } => Some((name.clone(), *depth)),
                _ => None,
            })
            .collect();
        // The run span wraps the phases; per-output spans nest inside the
        // decompose phase.
        assert_eq!(starts[0], ("decompose_pla".to_owned(), 0));
        assert!(starts.contains(&("order".to_owned(), 1)));
        assert!(starts.contains(&("bdd_build".to_owned(), 1)));
        assert!(starts.contains(&("decompose".to_owned(), 1)));
        assert!(starts.contains(&("output.y0".to_owned(), 2)));
        assert!(starts.contains(&("output.y1".to_owned(), 2)));
        assert!(starts.contains(&("verify".to_owned(), 1)));
        // Every span closed (balanced start/end).
        let ends = events.iter().filter(|e| matches!(e, Event::SpanEnd { .. })).count();
        assert_eq!(starts.len(), ends);
        // Spans and nothing else: no point events reach the sinks.
        assert_eq!(events.len(), starts.len() + ends);
        // A recorder does not turn telemetry on; Options::telemetry alone
        // decides.
        assert!(outcome.depth_histogram.is_empty());
        assert!(outcome.analytics.is_none());
    }
}
