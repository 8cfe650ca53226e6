//! # fedroad-perfbench — FedRoad's end-to-end and per-layer benchmark
//!
//! Builds a workload's federation on the Real Fed-SAC backend, drives it
//! with closed-loop query clients (and, on `fla-live`, an updater thread
//! streaming weight updates), checks every answer against `JointOracle`,
//! and reports the end-to-end metrics (untraced run) or the per-layer
//! split timed around the calls into each layer (traced run). See
//! `METRICS.md` for the catalogue.

pub mod drive;
pub mod metrics;
pub mod setup;
pub mod trace;
pub mod verify;
pub mod workload;

use drive::{check_scheduler, run_phase, Limit, Live, Phase};
use fedroad_core::BatchExecutor;
use metrics::{EndToEnd, Metric, PerLayer};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use workload::WorkloadSpec;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub spec: WorkloadSpec,
    /// Seed of the OD pairs and the congestion wave.
    pub seed: u64,
    /// Seconds the timed phases measure, together.
    pub seconds: f64,
    /// Traced run: report the per-layer metrics.
    pub trace: bool,
    /// Stop each phase after this many queries.
    pub max_ops: Option<usize>,
    /// Run the updater for exactly this many ticks per phase.
    pub ticks: Option<usize>,
}

impl Options {
    /// Options for `spec` with the benchmark's defaults.
    pub fn new(spec: WorkloadSpec, seed: u64, seconds: f64, trace: bool) -> Self {
        Options {
            spec,
            seed,
            seconds,
            trace,
            max_ops: None,
            ticks: None,
        }
    }
}

/// The result of one run.
pub struct Outcome {
    /// No op failed: every answer was correct (and, traced, equal to the
    /// untraced call's).
    pub correct: bool,
    /// Ops attempted: queries plus updater ticks, over every phase.
    pub attempted: usize,
    /// Ops failed: panics, wrong answers, traced answers that differ.
    pub failed: usize,
    /// The result line's metrics: end-to-end (untraced) or per-layer
    /// (traced).
    pub metrics: Vec<Metric>,
    /// Further metrics for the human-readable report.
    pub extra: Vec<Metric>,
    /// Human-readable notes: load, sample counts, checks.
    pub notes: Vec<String>,
    /// The untraced phase, then the traced one.
    pub phases: Vec<Phase>,
}

/// Cores this process may use.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (Linux `VmHWM`; 0 elsewhere).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the workload. Refuses (with `Err`) when its threads would exceed
/// the host's cores.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let spec = &opts.spec;
    let cores = host_cores();
    if spec.threads() > cores {
        return Err(format!(
            "{} needs {} threads ({} clients + {} updater) but the host has {} cores",
            spec.name,
            spec.threads(),
            spec.clients,
            usize::from(spec.updater),
            cores
        ));
    }
    let mut notes = vec![format!(
        "workload {} on {}: host cores {}, clients {}, updater threads {}, threads {} (each client blocks while the executor's worker answers)",
        spec.name,
        spec.city.name(),
        cores,
        spec.clients,
        usize::from(spec.updater),
        spec.threads()
    )];

    let pairs = spec.od_pairs(&spec.city.generate(), opts.seed);
    let warmup = &pairs[..spec.clients.min(pairs.len())];
    let reps = if opts.trace {
        1
    } else {
        spec.city.setup_reps()
    };
    let mut inst = setup::set_up(spec.city, warmup);
    let mut setups_s = vec![inst.setup_s];
    for _ in 1..reps {
        // Drop the previous federation first, so peak memory is one's.
        drop(inst);
        inst = setup::set_up(spec.city, warmup);
        setups_s.push(inst.setup_s);
    }
    let mut live = spec
        .updater
        .then(|| Live::new(&inst, WorkloadSpec::wave_seed(opts.seed)));
    // A traced run splits the measured time between its two phases, so
    // that it takes as long as an untraced one.
    let modes: &[bool] = if opts.trace { &[false, true] } else { &[false] };
    let limit = Limit {
        duration: Duration::from_secs_f64(opts.seconds / modes.len() as f64),
        max_ops: opts.max_ops,
        ticks: opts.ticks,
    };

    let mut phases: Vec<Phase> = modes
        .iter()
        .map(|&traced| run_phase(spec, &mut inst, live.as_mut(), &pairs, &limit, traced))
        .collect();
    let peak_rss_mb = peak_rss_mb();

    // Correctness, outside the timed phases.
    if opts.trace && !spec.updater {
        traced_vs_untraced(&inst, &pairs, &mut phases);
    }
    let ops: Vec<&drive::Op> = phases.iter().flat_map(|p| &p.ops).collect();
    let ticks: Vec<drive::Tick> = phases.iter().flat_map(|p| p.ticks.clone()).collect();
    let verdicts = verify::verify(&inst.graph, &inst.quiescent, &pairs, &ops, &ticks);
    let mut per_phase = Vec::new();
    let mut offset = 0;
    for p in &phases {
        per_phase.push(verdicts[offset..offset + p.ops.len()].to_vec());
        offset += p.ops.len();
    }
    let failed_ticks = ticks.iter().filter(|t| t.failed).count();
    let attempted = ops.len() + ticks.len();
    let failed = verdicts.iter().filter(|&&ok| !ok).count() + failed_ticks;
    let mismatches = ops
        .iter()
        .filter(|op| matches!(&op.result, Ok(a) if a.matches_untraced == Some(false)))
        .count();
    notes.push(format!(
        "checked {} answers against JointOracle at their epochs: {} wrong or failed; {} updater ticks, {} failed",
        ops.len(),
        verdicts.iter().filter(|&&ok| !ok).count(),
        ticks.len(),
        failed_ticks
    ));

    let (e2e, report_only, tail_note) = EndToEnd {
        phase: &phases[0],
        ok: &per_phase[0],
        setups_s: &setups_s,
        peak_rss_mb,
    }
    .compute();
    notes.push(format!(
        "untraced phase: {} queries in {:.3} s; {tail_note}; {} set-ups, setup_s is their median",
        phases[0].ops.len(),
        phases[0].wall_s,
        setups_s.len()
    ));

    let (metrics, extra) = if opts.trace {
        let untraced_p50_ms = e2e[0].value;
        let stats = inst.engine.fedch().map(|i| i.stats()).unwrap_or_default();
        let layers = PerLayer {
            traced: &phases[1],
            ok: &per_phase[1],
            untraced_p50_ms,
            build_s: inst.build_s,
            overlay_arcs: stats.overlay_arcs,
            shortcuts: stats.shortcuts,
        }
        .compute();
        notes.push(format!(
            "traced phase: {} queries in {:.3} s; {} traced answers differ from the untraced call's",
            phases[1].ops.len(),
            phases[1].wall_s,
            mismatches
        ));
        notes.push(share_note(&layers));
        (layers, e2e)
    } else {
        let mut extra = report_only;
        if !spec.updater {
            extra.retain(|m| m.name == "failed_frac");
        }
        (e2e, extra)
    };

    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        extra,
        notes,
        phases,
    })
}

/// Sets each traced op's `matches_untraced`: its path against the
/// untraced phase's answer to the same pair, or (for pairs the untraced
/// phase did not reach) the program's executor answering it now.
fn traced_vs_untraced(
    inst: &setup::Instance,
    pairs: &[(fedroad_graph::VertexId, fedroad_graph::VertexId)],
    phases: &mut [Phase],
) {
    let mut untraced: HashMap<usize, Option<fedroad_graph::Path>> = phases[0]
        .ops
        .iter()
        .filter_map(|op| Some((op.pair, op.result.as_ref().ok()?.path.clone())))
        .collect();
    let executor = BatchExecutor::new(Arc::clone(&inst.snapshot), check_scheduler(), 1);
    for op in &mut phases[1].ops {
        let Ok(answer) = &mut op.result else { continue };
        let expected = untraced.entry(op.pair).or_insert_with(|| {
            executor.run(&pairs[op.pair..=op.pair]).results[0]
                .path
                .clone()
        });
        answer.matches_untraced = Some(*expected == answer.path);
    }
}

/// The four parts of the traced query wall as shares.
fn share_note(layers: &[Metric]) -> String {
    let get = |name: &str| {
        layers
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let wall = get("query.wall_ms").max(f64::MIN_POSITIVE);
    format!(
        "traced query wall {:.4} ms = potential {:.1}% + spsp self {:.1}% + fedsac {:.1}% + unattributed {:.1}%",
        wall,
        100.0 * get("lb.potential_ms") / wall,
        100.0 * get("spsp.self_ms") / wall,
        100.0 * get("fedsac.ms") / wall,
        100.0 * get("query.unattributed_ms") / wall
    )
}

/// A number for the result line: JSON has no infinity, so a latency made
/// infinite by failed ops prints as `null`.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

impl Outcome {
    /// The human-readable report: notes, then every metric with its unit.
    pub fn report_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self.notes.iter().map(|n| format!("# {n}")).collect();
        for m in self.metrics.iter().chain(&self.extra) {
            lines.push(format!(
                "{:<36} {:>18} {}",
                m.name,
                json_number(m.value),
                m.unit
            ));
        }
        lines
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
