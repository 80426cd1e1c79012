//! The closed loop: set-up, a warm-up pass checked by the oracle, timed
//! passes, and (in the traced run) traced passes.
//!
//! Every decomposition runs on this thread, one after another, with
//! `Options::default()` — the configuration users get. The timed passes
//! attach no recorder and turn nothing on; the traced passes turn on
//! `trace` and `telemetry` and attach an in-memory recorder. Everything
//! per-layer is read from outside: the benchmark times its own calls and
//! reads the counters and phase timers `DecompOutcome` returns.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bdd::OpStats;
use bidecomp::trace::tree::DecompTree;
use bidecomp::trace::Step;
use bidecomp::{decompose_pla, decompose_pla_with_recorder, DecompOutcome, Options, Stats};
use obs::profile::{Profile, ProfileSink};
use obs::Recorder;

use crate::calib::Calibrator;
use crate::metrics::{geomean, median, peak_rss_mb, quantile, ratio, Metric};
use crate::oracle;
use crate::workload::{self, Case, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;
/// Timed passes per run, however short the budget.
pub const MIN_PASSES: usize = 3;

/// What to run.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Run seed: orders the PLAs within a pass and picks the oracle's
    /// sampled vectors.
    pub seed: u64,
    /// Draw seed: chooses `random-dc`'s PLAs (unused by the named
    /// workloads).
    pub draw_seed: u64,
    /// Measuring budget in seconds. The traced run gives half of it to
    /// timed passes and half to traced passes.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for the span trace and the determinism record.
    pub out_dir: PathBuf,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Outputs attempted (each PLA output once).
    pub attempted: u64,
    /// Outputs that failed the oracle, panicked, or broke determinism.
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones in the traced run.
    pub metrics: Vec<Metric>,
    /// One line per failure or warning, for standard error.
    pub messages: Vec<String>,
    /// Where the traced run wrote its spans.
    pub trace_file: Option<PathBuf>,
}

/// The counts that must repeat exactly between passes and between runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Signature {
    gates: u64,
    area_bits: u64,
    delay_bits: u64,
    apply_steps: u64,
    nodes_allocated: u64,
    theorem_checks: u64,
}

impl Signature {
    fn of(call: &Call) -> Signature {
        let stats = call.outcome.netlist.stats();
        Signature {
            gates: stats.gates as u64,
            area_bits: stats.area.to_bits(),
            delay_bits: stats.delay.to_bits(),
            apply_steps: call.outcome.op_stats.apply_steps,
            nodes_allocated: call.outcome.op_stats.nodes_allocated(),
            theorem_checks: call.theorem_checks,
        }
    }

    fn render(&self) -> String {
        format!(
            "gates={} area={} delay={} apply_steps={} nodes_allocated={} theorem_checks={}",
            self.gates,
            f64::from_bits(self.area_bits),
            f64::from_bits(self.delay_bits),
            self.apply_steps,
            self.nodes_allocated,
            self.theorem_checks
        )
    }
}

/// One `decompose_pla` call.
struct Call {
    time: Duration,
    outcome: DecompOutcome,
    theorem_checks: u64,
}

/// Runs `decompose_pla` (with `recorder` attached, if any) under
/// `catch_unwind`, timing only the call.
fn decompose(
    pla: &pla::Pla,
    options: &Options,
    recorder: Option<Recorder>,
) -> Result<Call, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let checks = bidecomp::check::theorem_checks();
        let start = Instant::now();
        let outcome = match recorder {
            None => decompose_pla(black_box(pla), options),
            Some(rec) => decompose_pla_with_recorder(black_box(pla), options, Some(rec)),
        };
        let time = start.elapsed();
        let theorem_checks = bidecomp::check::theorem_checks() - checks;
        Call { time, outcome: black_box(outcome), theorem_checks }
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string())
    })
}

/// A workload PLA and what the run learned about it.
struct CaseRun {
    case: Case,
    /// Counts of the warm-up call; `None` if it panicked.
    signature: Option<Signature>,
    /// Outputs counted as failed (at most every output, counted once).
    failed_outputs: usize,
    /// Timed-pass call times, seconds.
    times: Vec<f64>,
}

impl CaseRun {
    fn fail_all(&mut self) {
        self.failed_outputs = self.case.pla.num_outputs();
    }
}

/// Workload totals of the deterministic counters, from the warm-up pass.
#[derive(Default)]
struct Counts {
    gates: u64,
    area: f64,
    delay: f64,
    stats: Stats,
    ops: OpStats,
    theorem_checks: u64,
    peak_nodes: usize,
    mem_peak_bytes: usize,
}

/// Per-pass sums of the driver's phase timers, seconds.
#[derive(Clone, Copy, Default)]
struct Phases {
    ordering: f64,
    bdd_build: f64,
    decompose: f64,
    verify: f64,
}

/// What the traced passes measured.
#[derive(Default)]
struct Traced {
    pass_times: Vec<f64>,
    terminal_self_s: Vec<f64>,
    grouping_self_s: Vec<f64>,
    grouping_self_nodes: u64,
    max_depth: usize,
    output_ms: Vec<f64>,
    expected_probes: Vec<f64>,
    exists: [u64; 2],
    and_exists: [u64; 2],
}

/// Runs one workload as configured.
pub fn run(config: &Config) -> Report {
    let mut messages = Vec::new();
    let profile = config.trace.then(|| {
        let rec = Recorder::new();
        let sink = ProfileSink::new();
        rec.add_sink(Box::new(sink.clone()));
        (rec, sink)
    });
    let recorder = profile.as_ref().map(|(rec, _)| rec);
    let mut cal = Calibrator::new();

    // Set-up, several times; the last one's cases are used. The previous
    // set-up is dropped first, so only one is ever alive for `peak_rss_mb`.
    let mut setup_s = Vec::new();
    let mut parse_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        drop(setup.take());
        let _span = recorder.map(|r| r.span("setup"));
        let s = workload::setup(config.workload, config.seed, config.draw_seed, recorder);
        let f = cal.factor();
        setup_s.push(s.total.as_secs_f64() * f);
        parse_s.push(s.parse.as_secs_f64() * f);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let cubes = setup.cubes();
    let attempted = setup.outputs() as u64;
    let mut cases: Vec<CaseRun> = setup
        .cases
        .into_iter()
        .map(|case| CaseRun { case, signature: None, failed_outputs: 0, times: Vec::new() })
        .collect();

    // Warm-up pass: the oracle checks every netlist, outside any timing.
    let options = Options::default();
    let mut counts = Counts::default();
    for (k, cr) in cases.iter_mut().enumerate() {
        let call = match decompose(&cr.case.pla, &options, None) {
            Ok(call) => call,
            Err(msg) => {
                messages.push(format!("{}: decompose_pla panicked: {msg}", cr.case.name));
                cr.fail_all();
                continue;
            }
        };
        let verdict = {
            let _span = recorder.map(|r| r.span(format!("oracle.{}", cr.case.name)));
            oracle::check(&cr.case.pla, &call.outcome.netlist, config.seed ^ k as u64)
        };
        if verdict.failed > 0 {
            messages.push(format!(
                "{}: {} of {} outputs disagree with the PLA",
                cr.case.name, verdict.failed, verdict.outputs
            ));
            cr.failed_outputs = verdict.failed;
        }
        let sig = Signature::of(&call);
        cr.signature = Some(sig);
        let out = &call.outcome;
        counts.gates += sig.gates;
        counts.area += f64::from_bits(sig.area_bits);
        counts.delay += f64::from_bits(sig.delay_bits);
        counts.stats.merge(&out.stats);
        counts.ops.merge(&out.op_stats);
        counts.theorem_checks += call.theorem_checks;
        counts.peak_nodes = counts.peak_nodes.max(out.bdd_nodes);
        counts.mem_peak_bytes = counts.mem_peak_bytes.max(out.mem.peak_bytes);
    }
    check_against_record(config, &mut cases, &mut messages);

    // Timed passes.
    let budget = if config.trace { config.seconds / 2.0 } else { config.seconds };
    let mut pass_times = Vec::new();
    let mut raw_pass_times = Vec::new();
    let mut phases = Vec::new();
    let runnable = cases.iter().any(|cr| cr.signature.is_some());
    let start = Instant::now();
    cal.refresh();
    while runnable && (pass_times.len() < MIN_PASSES || start.elapsed().as_secs_f64() < budget) {
        let (mut total, mut raw_total) = (0.0, 0.0);
        let mut ph = Phases::default();
        for cr in cases.iter_mut().filter(|cr| cr.signature.is_some()) {
            let Some(call) = repeat_call(cr, &options, None, &mut messages) else { continue };
            let f = cal.factor();
            let secs = call.time.as_secs_f64();
            cr.times.push(secs * f);
            total += secs * f;
            raw_total += secs;
            let p = &call.outcome.phases;
            ph.ordering += p.ordering.as_secs_f64() * f;
            ph.bdd_build += p.bdd_build.as_secs_f64() * f;
            ph.decompose += p.decompose.as_secs_f64() * f;
            ph.verify += p.verify.as_secs_f64() * f;
        }
        pass_times.push(total);
        raw_pass_times.push(raw_total);
        phases.push(ph);
    }
    let passes = pass_times.len();

    let decomp_s = median(&pass_times);
    let mut trace_file = None;
    let metrics = match &profile {
        Some((rec, sink)) => {
            let traced = traced_passes(config, &mut cases, rec, &mut cal, &mut messages);
            trace_file = write_spans(config, sink, &mut messages);
            layer_metrics(&LayerInputs {
                counts: &counts,
                phases: &phases,
                traced: &traced,
                parse_s: median(&parse_s),
                cubes,
                decomp_s,
                wall_decomp_s: median(&raw_pass_times),
            })
        }
        None => {
            let per_case: Vec<f64> = cases
                .iter()
                .filter(|cr| !cr.times.is_empty())
                .map(|cr| median(&cr.times))
                .collect();
            let rss = peak_rss_mb().unwrap_or_else(|| {
                messages.push("VmHWM unavailable: peak_rss_mb reads 0".to_string());
                0.0
            });
            let failed = failed_outputs(&cases);
            let pass_rate = 1.0 - ratio(failed as f64, attempted as f64);
            vec![
                Metric::new("decomp_s", decomp_s, "s").note(format!(
                    "median of {passes} passes; raw wall median {:.4} s",
                    median(&raw_pass_times)
                )),
                Metric::new("decomp_geomean_ms", geomean(&per_case) * 1e3, "ms")
                    .note(format!("geomean over {} PLAs of each PLA's median", per_case.len())),
                Metric::new("setup_s", median(&setup_s), "s")
                    .note(format!("median of {SETUP_REPEATS} set-ups")),
                Metric::new("peak_rss_mb", rss, "MB").note("VmHWM"),
                Metric::new("gates", counts.gates as f64, "count"),
                Metric::new("area", counts.area, "units"),
                Metric::new("delay", counts.delay, "units"),
                Metric::new("pass_rate", pass_rate, "ratio").note(format!(
                    "fail_rate = {} ({failed} of {attempted} outputs)",
                    1.0 - pass_rate
                )),
            ]
        }
    };
    Report { attempted, failed: failed_outputs(&cases), metrics, messages, trace_file }
}

fn failed_outputs(cases: &[CaseRun]) -> u64 {
    cases.iter().map(|cr| cr.failed_outputs as u64).sum()
}

/// Writes the recorded spans as a Chrome `trace_event` file.
fn write_spans(config: &Config, sink: &ProfileSink, messages: &mut Vec<String>) -> Option<PathBuf> {
    let path =
        config.out_dir.join(format!("trace-{}-{}.json", config.workload.name(), config.seed));
    let spans = Profile::from_events(&sink.events()).chrome_trace().render();
    match std::fs::create_dir_all(&config.out_dir).and_then(|()| std::fs::write(&path, spans)) {
        Ok(()) => Some(path),
        Err(e) => {
            messages.push(format!("cannot write {}: {e}", path.display()));
            None
        }
    }
}

/// Decomposes a case again and checks that its counts repeat; a mismatch
/// or a panic fails the case's outputs.
fn repeat_call(
    cr: &mut CaseRun,
    options: &Options,
    recorder: Option<Recorder>,
    messages: &mut Vec<String>,
) -> Option<Call> {
    let call = match decompose(&cr.case.pla, options, recorder) {
        Ok(call) => call,
        Err(msg) => {
            messages.push(format!("{}: decompose_pla panicked on a repeat: {msg}", cr.case.name));
            cr.fail_all();
            return None;
        }
    };
    let sig = Signature::of(&call);
    if Some(sig) != cr.signature {
        if cr.failed_outputs < cr.case.pla.num_outputs() {
            messages.push(format!(
                "{}: counts changed between passes: {} then {}",
                cr.case.name,
                cr.signature.map_or_else(String::new, |s| s.render()),
                sig.render()
            ));
        }
        cr.fail_all();
    }
    Some(call)
}

/// Traced passes: trace and telemetry on, an in-memory recorder attached,
/// and a benchmark-side span around every call.
fn traced_passes(
    config: &Config,
    cases: &mut [CaseRun],
    rec: &Recorder,
    cal: &mut Calibrator,
    messages: &mut Vec<String>,
) -> Traced {
    let options = Options { trace: true, telemetry: true, ..Options::default() };
    let mut t = Traced::default();
    let runnable = cases.iter().any(|cr| cr.signature.is_some());
    let start = Instant::now();
    cal.refresh();
    while runnable
        && (t.pass_times.is_empty() || start.elapsed().as_secs_f64() < config.seconds / 2.0)
    {
        let first = t.pass_times.is_empty();
        let (mut total, mut terminal_s, mut grouping_s) = (0.0, 0.0, 0.0);
        let _pass = rec.span("pass");
        for cr in cases.iter_mut().filter(|cr| cr.signature.is_some()) {
            let call = {
                let _span = rec.span(format!("decompose_pla.{}", cr.case.name));
                repeat_call(cr, &options, Some(rec.clone()), messages)
            };
            let Some(call) = call else { continue };
            let f = cal.factor();
            total += call.time.as_secs_f64() * f;
            let tree = DecompTree::from_trace(&call.outcome.trace);
            for node in tree.nodes() {
                let self_s = node.exclusive.elapsed_ns as f64 / 1e9 * f;
                match node.event.step {
                    Step::Terminal { .. } => terminal_s += self_s,
                    Step::Strong { .. } | Step::Weak { .. } | Step::Shannon { .. } => {
                        grouping_s += self_s;
                        if first {
                            t.grouping_self_nodes += node.exclusive.nodes_allocated;
                        }
                    }
                    Step::CacheHit { .. } => {}
                }
            }
            t.output_ms.extend(
                tree.roots().iter().map(|&r| tree.nodes()[r].inclusive.elapsed_ns as f64 / 1e6 * f),
            );
            if first {
                t.max_depth = t.max_depth.max(tree.max_depth());
                if let Some(a) = &call.outcome.analytics {
                    t.expected_probes.push(a.probe.expected_probes);
                    for op in &a.cache_by_op {
                        let slot = match op.op {
                            "exists" => &mut t.exists,
                            "and_exists" => &mut t.and_exists,
                            _ => continue,
                        };
                        slot[0] += op.lookups;
                        slot[1] += op.hits;
                    }
                }
            }
        }
        t.pass_times.push(total);
        t.terminal_self_s.push(terminal_s);
        t.grouping_self_s.push(grouping_s);
    }
    t
}

struct LayerInputs<'a> {
    counts: &'a Counts,
    phases: &'a [Phases],
    traced: &'a Traced,
    parse_s: f64,
    cubes: usize,
    decomp_s: f64,
    wall_decomp_s: f64,
}

/// The per-layer metrics, named by module.
fn layer_metrics(i: &LayerInputs) -> Vec<Metric> {
    let (c, t) = (i.counts, i.traced);
    let phase = |f: fn(&Phases) -> f64| median(&i.phases.iter().map(f).collect::<Vec<_>>());
    let build_and_decompose = phase(|p| p.bdd_build + p.decompose);
    let ops = &c.ops;
    let timed = format!("median of {} timed passes", i.phases.len());
    let hit_rate = |slot: [u64; 2]| ratio(slot[1] as f64, slot[0] as f64);
    vec![
        Metric::new("pla.parse_s", i.parse_s, "s"),
        Metric::new("pla.cubes", i.cubes as f64, "count"),
        Metric::new("wall.decomp_s", i.wall_decomp_s, "s")
            .note(format!("{timed}, unscaled; scaled: {:.4} s", i.decomp_s)),
        Metric::new("driver.ordering_s", phase(|p| p.ordering), "s").note(timed.clone()),
        Metric::new("driver.bdd_build_s", phase(|p| p.bdd_build), "s").note(timed.clone()),
        Metric::new("driver.decompose_s", phase(|p| p.decompose), "s").note(timed.clone()),
        Metric::new("driver.verify_s", phase(|p| p.verify), "s").note(timed),
        Metric::new("driver.output_p50_ms", median(&t.output_ms), "ms"),
        Metric::new("driver.output_p90_ms", quantile(&t.output_ms, 0.9), "ms"),
        Metric::new("driver.output_samples", t.output_ms.len() as f64, "count"),
        Metric::new("bdd.apply_steps", ops.apply_steps as f64, "count"),
        Metric::new("bdd.mk_calls", ops.mk_calls as f64, "count"),
        Metric::new(
            "bdd.unique_hit_rate",
            ratio(ops.unique_hits as f64, ops.mk_calls as f64),
            "ratio",
        ),
        Metric::new("bdd.nodes_allocated", ops.nodes_allocated() as f64, "count"),
        Metric::new("bdd.peak_nodes", c.peak_nodes as f64, "count"),
        Metric::new("bdd.cache_lookups", ops.cache_lookups as f64, "count"),
        Metric::new("bdd.cache_hit_rate", ops.cache_hit_rate(), "ratio"),
        Metric::new("bdd.cache_evictions", ops.cache_evictions as f64, "count"),
        Metric::new("bdd.gc_runs", ops.gc_runs as f64, "count"),
        Metric::new("bdd.mem_peak_bytes", c.mem_peak_bytes as f64, "bytes"),
        Metric::new(
            "bdd.steps_per_us",
            ratio(ops.apply_steps as f64, build_and_decompose * 1e6),
            "1/us",
        ),
        Metric::new(
            "bdd.expected_probes",
            ratio(t.expected_probes.iter().sum(), t.expected_probes.len() as f64),
            "probes",
        ),
        Metric::new("bdd.exists_hit_rate", hit_rate(t.exists), "ratio"),
        Metric::new("bdd.and_exists_hit_rate", hit_rate(t.and_exists), "ratio"),
        Metric::new("decompose.calls", c.stats.calls as f64, "count"),
        Metric::new("decompose.terminal_cases", c.stats.terminal_cases as f64, "count"),
        Metric::new("decompose.strong_exor", c.stats.strong_exor as f64, "count"),
        Metric::new("decompose.weak_rate", c.stats.weak_rate(), "ratio"),
        Metric::new("decompose.shannon", c.stats.shannon as f64, "count"),
        Metric::new("decompose.component_hit_rate", c.stats.cache_hit_rate(), "ratio"),
        Metric::new("decompose.inessential_rate", c.stats.inessential_rate(), "ratio"),
        Metric::new("decompose.max_depth", t.max_depth as f64, "count"),
        Metric::new("decompose.terminal_self_s", median(&t.terminal_self_s), "s"),
        Metric::new("grouping.theorem_checks", c.theorem_checks as f64, "count"),
        Metric::new(
            "grouping.checks_per_call",
            ratio(c.theorem_checks as f64, c.stats.calls as f64),
            "ratio",
        ),
        Metric::new("grouping.self_s", median(&t.grouping_self_s), "s"),
        Metric::new("grouping.self_nodes", t.grouping_self_nodes as f64, "count"),
        Metric::new("obs.trace_overhead", ratio(median(&t.pass_times), i.decomp_s), "ratio")
            .note(format!(
                "median of {} traced passes over median of {} timed passes",
                t.pass_times.len(),
                i.phases.len()
            )),
    ]
}

/// Compares the warm-up counts with the record an earlier run of the same
/// binary left for the same PLAs, or leaves that record. The run seed
/// only orders the PLAs, so runs with different seeds share a record.
fn check_against_record(config: &Config, cases: &mut [CaseRun], messages: &mut Vec<String>) {
    let Some(build) = binary_fingerprint() else {
        messages.push("cannot read own binary: determinism across runs not checked".to_string());
        return;
    };
    let inputs = if config.workload.is_drawn() {
        format!("draw{}", config.draw_seed)
    } else {
        "named".to_string()
    };
    let path = config
        .out_dir
        .join("determinism")
        .join(format!("{}-{inputs}-{build:016x}.txt", config.workload.name()));
    let current: BTreeMap<String, String> = cases
        .iter()
        .filter_map(|cr| cr.signature.map(|s| (cr.case.name.clone(), s.render())))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            let recorded: BTreeMap<&str, &str> =
                text.lines().filter_map(|l| l.split_once(' ')).collect();
            for cr in cases.iter_mut() {
                let (Some(now), Some(&then)) =
                    (current.get(&cr.case.name), recorded.get(cr.case.name.as_str()))
                else {
                    continue;
                };
                if now != then {
                    messages.push(format!(
                        "{}: counts differ from an earlier run of this binary: {then} then {now}",
                        cr.case.name
                    ));
                    cr.fail_all();
                }
            }
        }
        Err(_) => {
            let text: String =
                current.iter().map(|(name, sig)| format!("{name} {sig}\n")).collect();
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&path, text));
            if let Err(e) = written {
                messages.push(format!("cannot write {}: {e}", path.display()));
            }
        }
    }
}

/// FNV-1a hash of this executable, so a record is only compared with
/// runs of the same build.
fn binary_fingerprint() -> Option<u64> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    Some(bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    }))
}
