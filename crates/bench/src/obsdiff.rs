//! The bench-regression gate: structural diff of two schema-checked
//! telemetry artifacts (`fedroad.bench-run.v1`,
//! `fedroad.bench-throughput.v1`, `fedroad.bench-update.v1`,
//! `fedroad.bench-compare.v3`, `fedroad.metrics-snapshot.v1`).
//!
//! [`diff`] compares a *baseline* document against a *current* one and
//! yields [`Finding`]s. Severity encodes how trustworthy each metric is:
//!
//! * **deterministic cost counters** (bench-run counters, the sequential
//!   throughput row's rounds/invocations/bytes, metric-snapshot counters
//!   and histogram counts) are exact reproducible accounting — drifting
//!   past the threshold is a hard [`Severity::Fail`];
//! * **machine- or interleaving-dependent metrics** (`wall_qps`,
//!   `modeled_qps` — which folds wall time into the WAN model — batch-row
//!   scheduler counters, gauges, histogram sums of timing metrics) can
//!   move between hosts and runs, so they only ever [`Severity::Warn`];
//! * a **schema mismatch** between the two documents is not a finding at
//!   all but an error — the gate cannot reason across formats, and CI
//!   must hard-fail ([`JsonError::Schema`]).
//!
//! Improvements (metric got *better* past the threshold) warn too: the
//! committed baseline is stale and should be refreshed, but nothing is
//! broken.
//!
//! A metric present on one side only is judged like a drift of its
//! family: one that **vanished** from the current run fails when its
//! family is hard-gated (a counter that stops being reported would
//! otherwise escape the gate for good) and warns when it is soft; one
//! that is **new** in the current run always warns.

use crate::report::{expect_f64, expect_schema};
use fedroad_core::jsonio::{JsonError, Value};

/// Schema tag of obs metrics snapshots (mirrors
/// `fedroad_obs::METRICS_SCHEMA`; restated here so the bench crate's
/// validators are self-contained text-level checks).
pub const METRICS_SCHEMA: &str = "fedroad.metrics-snapshot.v1";

/// Regression-gate configuration.
#[derive(Clone, Debug)]
pub struct DiffOptions {
    /// Relative drift (percent) beyond which a finding is produced.
    pub threshold_pct: f64,
    /// Metric names (exact match on the reported metric path) demoted
    /// from Fail to Warn — e.g. `modeled_qps` in CI.
    pub warn_only: Vec<String>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            threshold_pct: 20.0,
            warn_only: Vec::new(),
        }
    }
}

/// How seriously the gate takes a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Informational drift on a metric known to vary between hosts/runs.
    Warn,
    /// Regression on a deterministic metric: the gate exits nonzero.
    Fail,
}

/// One detected drift between baseline and current.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Warn or Fail.
    pub severity: Severity,
    /// Metric path, e.g. `counters.sched.rounds` or
    /// `sequential.net_rounds`.
    pub metric: String,
    /// Human-readable description with both values and the drift.
    pub message: String,
}

/// Direction in which a metric regresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Worse {
    /// Cost metric: growing is a regression (rounds, bytes, wall time).
    Higher,
    /// Rate metric: shrinking is a regression (queries/second).
    Lower,
}

struct DiffCx<'o> {
    opts: &'o DiffOptions,
    findings: Vec<Finding>,
}

impl DiffCx<'_> {
    /// Compares one numeric metric and records a finding when the relative
    /// drift exceeds the threshold. `hard` drops to Warn when the metric
    /// is listed in `warn_only`; drift in the *improving* direction always
    /// warns (stale baseline, not a regression).
    fn compare(&mut self, metric: &str, base: f64, cur: f64, worse: Worse, hard: bool) {
        let drift = if base == 0.0 {
            if cur == 0.0 {
                return;
            }
            f64::INFINITY
        } else {
            (cur - base) / base
        };
        let threshold = self.opts.threshold_pct / 100.0;
        if drift.abs() <= threshold {
            return;
        }
        let regressed = match worse {
            Worse::Higher => drift > 0.0,
            Worse::Lower => drift < 0.0,
        };
        let severity = self.severity(metric, regressed && hard);
        let pct = drift * 100.0;
        let kind = if regressed { "regressed" } else { "improved" };
        self.findings.push(Finding {
            severity,
            metric: metric.to_string(),
            message: format!("{metric} {kind} {pct:+.1}% (baseline {base}, current {cur})"),
        });
    }

    /// Fail when `fails`, unless `metric` is listed in `warn_only`.
    fn severity(&self, metric: &str, fails: bool) -> Severity {
        if fails && !self.opts.warn_only.iter().any(|m| m == metric) {
            Severity::Fail
        } else {
            Severity::Warn
        }
    }

    /// Flags a metric the current run no longer reports. For a
    /// hard-gated family that is a Fail (unless listed in `warn_only`):
    /// a vanished counter can no longer be gated at all, so the baseline
    /// must be refreshed on purpose.
    fn vanished(&mut self, metric: &str, hard: bool) {
        self.findings.push(Finding {
            severity: self.severity(metric, hard),
            metric: metric.to_string(),
            message: format!("{metric} present only in baseline"),
        });
    }

    /// Flags a metric only the current run reports (always Warn: a newly
    /// added instrument is expected churn).
    fn added(&mut self, metric: &str) {
        self.findings.push(Finding {
            severity: Severity::Warn,
            metric: metric.to_string(),
            message: format!("{metric} present only in current"),
        });
    }
}

fn name_value_pairs(doc: &Value, key: &str) -> Result<Vec<(String, f64)>, JsonError> {
    doc.get(key)?
        .as_arr()?
        .iter()
        .map(|entry| {
            Ok((
                entry.get("name")?.as_str()?.to_string(),
                entry.get("value")?.as_u64()? as f64,
            ))
        })
        .collect()
}

/// Compares two `name`/`value` arrays entry-by-entry.
fn diff_named(
    cx: &mut DiffCx<'_>,
    prefix: &str,
    base: &[(String, f64)],
    cur: &[(String, f64)],
    worse: Worse,
    hard: bool,
) {
    for (name, b) in base {
        match cur.iter().find(|(n, _)| n == name) {
            Some((_, c)) => cx.compare(&format!("{prefix}.{name}"), *b, *c, worse, hard),
            None => cx.vanished(&format!("{prefix}.{name}"), hard),
        }
    }
    for (name, _) in cur {
        if !base.iter().any(|(n, _)| n == name) {
            cx.added(&format!("{prefix}.{name}"));
        }
    }
}

fn diff_bench_run(cx: &mut DiffCx<'_>, base: &Value, cur: &Value) -> Result<(), JsonError> {
    crate::runreport::validate(base)?;
    crate::runreport::validate(cur)?;
    // Counters are the protocol's own deterministic accounting (same seed
    // ⇒ same counts), the strongest signal the gate has.
    diff_named(
        cx,
        "counters",
        &name_value_pairs(base, "counters")?,
        &name_value_pairs(cur, "counters")?,
        Worse::Higher,
        true,
    );
    Ok(())
}

fn row_metrics(row: &Value) -> Result<Vec<(&'static str, f64, Worse, bool)>, JsonError> {
    // `validate` has checked that the counters are integers.
    let f = |key: &str| expect_f64(row, key);
    Ok(vec![
        // Deterministic protocol accounting: hard.
        (
            "sac_invocations",
            f("sac_invocations")?,
            Worse::Higher,
            true,
        ),
        ("net_rounds", f("net_rounds")?, Worse::Higher, true),
        ("net_bytes", f("net_bytes")?, Worse::Higher, true),
        (
            "rounds_per_query",
            f("rounds_per_query")?,
            Worse::Higher,
            true,
        ),
        // Scheduler rounds depend on thread interleaving: soft.
        ("sched_rounds", f("sched_rounds")?, Worse::Higher, false),
        // Wall-clock rates are host-dependent: soft. `modeled_qps` folds
        // wall time into the WAN model, so it inherits the host noise.
        ("wall_qps", f("wall_qps")?, Worse::Lower, false),
        ("modeled_qps", f("modeled_qps")?, Worse::Lower, false),
    ])
}

fn diff_row(
    cx: &mut DiffCx<'_>,
    label: &str,
    base: &Value,
    cur: &Value,
    hard_row: bool,
) -> Result<(), JsonError> {
    for ((metric, b, worse, hard), (_, c, _, _)) in
        row_metrics(base)?.into_iter().zip(row_metrics(cur)?)
    {
        cx.compare(&format!("{label}.{metric}"), b, c, worse, hard && hard_row);
    }
    Ok(())
}

fn diff_throughput(cx: &mut DiffCx<'_>, base: &Value, cur: &Value) -> Result<(), JsonError> {
    crate::throughput::validate(base)?;
    crate::throughput::validate(cur)?;
    // The sequential row never touches the scheduler, so its accounting is
    // fully deterministic — the hard half of the gate. Batch rows coalesce
    // by interleaving; everything there is advisory.
    diff_row(
        cx,
        "sequential",
        base.get("sequential")?,
        cur.get("sequential")?,
        true,
    )?;
    for b_row in base.get("batch")?.as_arr()? {
        let label = b_row.get("label")?.as_str()?.to_string();
        match cur
            .get("batch")?
            .as_arr()?
            .iter()
            .find(|r| r.get("label").and_then(|l| l.as_str()).ok() == Some(&label))
        {
            Some(c_row) => diff_row(cx, &label, b_row, c_row, false)?,
            None => cx.vanished(&label, false),
        }
    }
    Ok(())
}

/// Validates the shape of a `fedroad.metrics-snapshot.v1` document:
/// schema tag, `at_ns`, and the `counters`/`gauges`/`histograms` arrays
/// (the latter with count/sum/quantile fields per entry).
pub fn validate_metrics_snapshot(doc: &Value) -> Result<(), JsonError> {
    expect_schema(doc, METRICS_SCHEMA)?;
    doc.get("at_ns")?.as_u64()?;
    for key in ["counters", "gauges"] {
        for entry in doc.get(key)?.as_arr()? {
            entry.get("name")?.as_str()?;
            entry.get("value")?.as_u64()?;
        }
    }
    for entry in doc.get("histograms")?.as_arr()? {
        entry.get("name")?.as_str()?;
        for key in ["count", "sum", "p50", "p90", "p95", "p99"] {
            entry.get(key)?.as_u64()?;
        }
        for bucket in entry.get("buckets")?.as_arr()? {
            bucket.get("floor")?.as_u64()?;
            bucket.get("count")?.as_u64()?;
        }
    }
    Ok(())
}

fn diff_update(cx: &mut DiffCx<'_>, base: &Value, cur: &Value) -> Result<(), JsonError> {
    crate::liveupdate::validate(base)?;
    crate::liveupdate::validate(cur)?;
    // The congestion wave and the customize cone are fully seeded: these
    // counters reproduce exactly, so any drift is a real behaviour change.
    for key in [
        "ticks",
        "epochs",
        "updates_applied",
        "touched_shortcuts",
        "changed_shortcuts",
    ] {
        cx.compare(
            key,
            expect_f64(base, key)?,
            expect_f64(cur, key)?,
            Worse::Higher,
            true,
        );
    }
    // Everything folding in wall time is host-dependent: advisory only.
    for (key, worse) in [
        ("build_s", Worse::Higher),
        ("customize_p50_s", Worse::Higher),
        ("customize_p99_s", Worse::Higher),
        ("updates_per_sec", Worse::Lower),
        ("build_over_customize", Worse::Lower),
        ("quiescent_p50_s", Worse::Higher),
        ("live_p50_s", Worse::Higher),
        ("degradation", Worse::Higher),
    ] {
        cx.compare(
            key,
            expect_f64(base, key)?,
            expect_f64(cur, key)?,
            worse,
            false,
        );
    }
    Ok(())
}

fn diff_compare(cx: &mut DiffCx<'_>, base: &Value, cur: &Value) -> Result<(), JsonError> {
    crate::comparebench::validate(base)?;
    crate::comparebench::validate(cur)?;
    for b_row in base.get("rows")?.as_arr()? {
        let batch = b_row.get("batch")?.as_u64()?;
        let label = format!("batch-{batch}");
        let Some(c_row) = cur
            .get("rows")?
            .as_arr()?
            .iter()
            .find(|r| r.get("batch").and_then(|v| v.as_u64()).ok() == Some(batch))
        else {
            cx.vanished(&label, true);
            continue;
        };
        // The kernel consumes exactly the same rounds, bytes, edaBits and
        // correlation words per comparison whatever the host:
        // deterministic accounting, hard.
        for key in [
            "comparisons",
            "net_rounds",
            "net_bytes",
            "edabits",
            "corr_words",
        ] {
            cx.compare(
                &format!("{label}.{key}"),
                expect_f64(b_row, key)?,
                expect_f64(c_row, key)?,
                Worse::Higher,
                true,
            );
        }
        // Throughput folds in host CPU/cores: advisory.
        cx.compare(
            &format!("{label}.cps"),
            expect_f64(b_row, "cps")?,
            expect_f64(c_row, "cps")?,
            Worse::Lower,
            false,
        );
    }
    for c_row in cur.get("rows")?.as_arr()? {
        let batch = c_row.get("batch")?.as_u64()?;
        if !base
            .get("rows")?
            .as_arr()?
            .iter()
            .any(|r| r.get("batch").and_then(|v| v.as_u64()).ok() == Some(batch))
        {
            cx.added(&format!("batch-{batch}"));
        }
    }
    Ok(())
}

fn diff_metrics_snapshot(cx: &mut DiffCx<'_>, base: &Value, cur: &Value) -> Result<(), JsonError> {
    validate_metrics_snapshot(base)?;
    validate_metrics_snapshot(cur)?;
    diff_named(
        cx,
        "counters",
        &name_value_pairs(base, "counters")?,
        &name_value_pairs(cur, "counters")?,
        Worse::Higher,
        true,
    );
    // Gauges are point-in-time levels — whatever the process was doing at
    // snapshot instant — never gate-worthy.
    diff_named(
        cx,
        "gauges",
        &name_value_pairs(base, "gauges")?,
        &name_value_pairs(cur, "gauges")?,
        Worse::Higher,
        false,
    );
    let hist_pairs = |doc: &Value, field: &str| -> Result<Vec<(String, f64)>, JsonError> {
        doc.get("histograms")?
            .as_arr()?
            .iter()
            .map(|h| {
                Ok((
                    h.get("name")?.as_str()?.to_string(),
                    h.get(field)?.as_u64()? as f64,
                ))
            })
            .collect()
    };
    // Histogram *counts* are deterministic (how many things happened);
    // *sums* fold in timing values on `_ns` histograms, so they only warn.
    diff_named(
        cx,
        "hist_count",
        &hist_pairs(base, "count")?,
        &hist_pairs(cur, "count")?,
        Worse::Higher,
        true,
    );
    diff_named(
        cx,
        "hist_sum",
        &hist_pairs(base, "sum")?,
        &hist_pairs(cur, "sum")?,
        Worse::Higher,
        false,
    );
    Ok(())
}

/// Diffs two parsed telemetry documents of the same schema. Returns the
/// findings (empty when nothing drifted past the threshold); a schema
/// mismatch between the documents, an unknown schema, or a document
/// failing its own schema validation is an error.
pub fn diff(base: &Value, cur: &Value, opts: &DiffOptions) -> Result<Vec<Finding>, JsonError> {
    let base_schema = base.get("schema")?.as_str()?.to_string();
    let cur_schema = cur.get("schema")?.as_str()?;
    if base_schema != cur_schema {
        return Err(JsonError::Schema(format!(
            "cannot diff across schemas: baseline is {base_schema:?}, current is {cur_schema:?}"
        )));
    }
    let mut cx = DiffCx {
        opts,
        findings: Vec::new(),
    };
    match base_schema.as_str() {
        crate::runreport::RUN_SCHEMA => diff_bench_run(&mut cx, base, cur)?,
        crate::throughput::THROUGHPUT_SCHEMA => diff_throughput(&mut cx, base, cur)?,
        crate::liveupdate::UPDATE_SCHEMA => diff_update(&mut cx, base, cur)?,
        crate::comparebench::COMPARE_SCHEMA => diff_compare(&mut cx, base, cur)?,
        METRICS_SCHEMA => diff_metrics_snapshot(&mut cx, base, cur)?,
        other => {
            return Err(JsonError::Schema(format!(
                "unknown telemetry schema {other:?}"
            )))
        }
    }
    Ok(cx.findings)
}

/// True when any finding is a hard failure — the gate's exit condition.
pub fn has_failure(findings: &[Finding]) -> bool {
    findings.iter().any(|f| f.severity == Severity::Fail)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn run_report_json(rounds: u64) -> String {
        format!(
            "{{\"schema\":\"fedroad.bench-run.v1\",\"seed\":7,\"quick\":true,\
             \"experiments\":[],\"counters\":[{{\"name\":\"fedsac.rounds\",\"value\":{rounds}}},\
             {{\"name\":\"net.bytes\",\"value\":1000}}],\"histograms\":[],\"query\":null}}"
        )
    }

    fn parse(text: &str) -> Value {
        Value::parse(text).unwrap()
    }

    #[test]
    fn identical_reports_produce_no_findings() {
        let base = parse(&run_report_json(100));
        let findings = diff(&base, &base, &DiffOptions::default()).unwrap();
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn injected_20pct_counter_regression_hard_fails() {
        let base = parse(&run_report_json(100));
        let cur = parse(&run_report_json(121)); // +21% > 20% threshold
        let findings = diff(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(has_failure(&findings), "{findings:?}");
        assert!(findings[0].metric.contains("fedsac.rounds"));
    }

    #[test]
    fn drift_within_threshold_passes() {
        let base = parse(&run_report_json(100));
        let cur = parse(&run_report_json(119)); // +19% ≤ 20%
        let findings = diff(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn improvement_only_warns() {
        let base = parse(&run_report_json(100));
        let cur = parse(&run_report_json(50));
        let findings = diff(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(!findings.is_empty());
        assert!(!has_failure(&findings), "{findings:?}");
    }

    #[test]
    fn warn_only_demotes_a_named_metric() {
        let base = parse(&run_report_json(100));
        let cur = parse(&run_report_json(200));
        let opts = DiffOptions {
            warn_only: vec!["counters.fedsac.rounds".into()],
            ..DiffOptions::default()
        };
        let findings = diff(&base, &cur, &opts).unwrap();
        assert!(!has_failure(&findings), "{findings:?}");
    }

    #[test]
    fn schema_mismatch_is_an_error_not_a_finding() {
        let base = parse(&run_report_json(100));
        let cur = parse(
            "{\"schema\":\"fedroad.metrics-snapshot.v1\",\"at_ns\":1,\
             \"counters\":[],\"gauges\":[],\"histograms\":[]}",
        );
        assert!(matches!(
            diff(&base, &cur, &DiffOptions::default()),
            Err(JsonError::Schema(_))
        ));
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let doc = parse("{\"schema\":\"fedroad.mystery.v9\"}");
        assert!(matches!(
            diff(&doc, &doc, &DiffOptions::default()),
            Err(JsonError::Schema(_))
        ));
    }

    #[test]
    fn metrics_snapshot_diffs_counters_hard_and_gauges_soft() {
        let mk = |count: u64, gauge: u64| {
            parse(&format!(
                "{{\"schema\":\"{METRICS_SCHEMA}\",\"at_ns\":5,\
                 \"counters\":[{{\"name\":\"sched.rounds\",\"value\":{count}}}],\
                 \"gauges\":[{{\"name\":\"sched.pending\",\"value\":{gauge}}}],\
                 \"histograms\":[{{\"name\":\"w\",\"count\":3,\"sum\":12,\"p50\":5,\
                 \"p90\":5,\"p95\":5,\"p99\":5,\"buckets\":[{{\"floor\":4,\"count\":3}}]}}]}}"
            ))
        };
        let findings = diff(&mk(100, 1), &mk(100, 50), &DiffOptions::default()).unwrap();
        assert!(!has_failure(&findings), "{findings:?}"); // gauge drift warns
        let findings = diff(&mk(100, 1), &mk(200, 1), &DiffOptions::default()).unwrap();
        assert!(has_failure(&findings), "{findings:?}"); // counter drift fails
    }

    fn update_report_json(touched: u64, updates_per_sec: f64) -> String {
        format!(
            "{{\"schema\":\"fedroad.bench-update.v1\",\"seed\":7,\"quick\":true,\
             \"preset\":\"CAL-S\",\"ticks\":12,\"epochs\":12,\"updates_applied\":900,\
             \"touched_shortcuts\":{touched},\"changed_shortcuts\":500,\
             \"build_s\":1.2,\"customize_p50_s\":0.01,\"customize_p99_s\":0.03,\
             \"updates_per_sec\":{updates_per_sec},\"build_over_customize\":120.0,\
             \"quiescent_p50_s\":0.004,\"live_p50_s\":0.005,\"degradation\":1.25}}"
        )
    }

    #[test]
    fn update_counters_fail_hard_but_rates_only_warn() {
        let base = parse(&update_report_json(4000, 7000.0));
        // Deterministic cone counter regressed past the threshold: Fail.
        let findings = diff(
            &base,
            &parse(&update_report_json(6000, 7000.0)),
            &DiffOptions::default(),
        )
        .unwrap();
        assert!(has_failure(&findings), "{findings:?}");
        assert!(findings.iter().any(|f| f.metric == "touched_shortcuts"));
        // Host-dependent absorption rate halved: Warn only.
        let findings = diff(
            &base,
            &parse(&update_report_json(4000, 3000.0)),
            &DiffOptions::default(),
        )
        .unwrap();
        assert!(!findings.is_empty());
        assert!(!has_failure(&findings), "{findings:?}");
    }

    #[test]
    fn update_diff_rejects_schema_drift() {
        // The committed baseline guards the artifact format itself: a
        // current report whose schema tag moved on is a hard gate error,
        // not a finding.
        let base = parse(&update_report_json(4000, 7000.0));
        let drifted = parse(
            &update_report_json(4000, 7000.0)
                .replace("fedroad.bench-update.v1", "fedroad.bench-update.v2"),
        );
        assert!(matches!(
            diff(&base, &drifted, &DiffOptions::default()),
            Err(JsonError::Schema(_))
        ));
    }

    fn compare_report_json(edabits: u64, cps: f64) -> String {
        format!(
            "{{\"schema\":\"fedroad.bench-compare.v3\",\"seed\":7,\"quick\":true,\
             \"parties\":3,\"rows\":[{{\"batch\":64,\"reps\":8,\"comparisons\":512,\
             \"net_rounds\":40,\"net_bytes\":196608,\"edabits\":{edabits},\
             \"corr_words\":22528,\"cps\":{cps}}}]}}"
        )
    }

    #[test]
    fn compare_counters_fail_hard_but_rates_only_warn() {
        let base = parse(&compare_report_json(512, 4000.0));
        // Deterministic preprocessing consumption grew past the threshold:
        // the kernel is doing more cryptographic work per comparison. Fail.
        let findings = diff(
            &base,
            &parse(&compare_report_json(1024, 4000.0)),
            &DiffOptions::default(),
        )
        .unwrap();
        assert!(has_failure(&findings), "{findings:?}");
        assert!(findings.iter().any(|f| f.metric == "batch-64.edabits"));
        // Host-dependent throughput halved: Warn only.
        let findings = diff(
            &base,
            &parse(&compare_report_json(512, 2000.0)),
            &DiffOptions::default(),
        )
        .unwrap();
        assert!(!findings.is_empty());
        assert!(!has_failure(&findings), "{findings:?}");
        assert!(findings.iter().any(|f| f.metric == "batch-64.cps"));
    }

    #[test]
    fn compare_diff_rejects_schema_drift() {
        // Same contract as the other artifact families: a baseline whose
        // schema tag no longer matches the current report is a gate error,
        // not a finding the run could shrug off.
        let base = parse(&compare_report_json(512, 4000.0));
        let drifted = parse(
            &compare_report_json(512, 4000.0)
                .replace("fedroad.bench-compare.v3", "fedroad.bench-compare.v4"),
        );
        assert!(matches!(
            diff(&base, &drifted, &DiffOptions::default()),
            Err(JsonError::Schema(_))
        ));
    }

    #[test]
    fn sequential_row_fails_hard_but_batch_rows_only_warn() {
        let mk = |seq_rounds: u64, batch_rounds: u64| {
            let row = |label: &str, rounds: u64| {
                format!(
                    "{{\"label\":\"{label}\",\"workers\":1,\"wall_time_s\":0.5,\
                     \"sac_invocations\":10,\"net_rounds\":{rounds},\"net_bytes\":100,\
                     \"sched_rounds\":5,\"max_requests_per_round\":2,\"wall_qps\":32.0,\
                     \"modeled_time_s\":2.0,\"modeled_qps\":8.0,\"rounds_per_query\":1.0}}"
                )
            };
            parse(&format!(
                "{{\"schema\":\"fedroad.bench-throughput.v1\",\"seed\":7,\"quick\":true,\
                 \"preset\":\"CAL-S\",\"num_queries\":16,\
                 \"sequential\":{},\"batch\":[{}]}}",
                row("sequential", seq_rounds),
                row("batch-1", batch_rounds),
            ))
        };
        let findings = diff(&mk(100, 100), &mk(100, 200), &DiffOptions::default()).unwrap();
        assert!(!has_failure(&findings), "{findings:?}");
        let findings = diff(&mk(100, 100), &mk(200, 100), &DiffOptions::default()).unwrap();
        assert!(has_failure(&findings), "{findings:?}");
    }

    #[test]
    fn vanished_hard_counter_fails_but_a_new_one_only_warns() {
        let with = |extra: &str| {
            parse(&format!(
                "{{\"schema\":\"fedroad.bench-run.v1\",\"seed\":7,\"quick\":true,\
                 \"experiments\":[],\"counters\":[{{\"name\":\"fedsac.rounds\",\"value\":100}}\
                 {extra}],\"histograms\":[],\"query\":null}}"
            ))
        };
        let both = with(",{\"name\":\"net.input_share\",\"value\":40}");
        let one = with("");
        // A counter only the baseline has: the current run stopped
        // reporting it, so the gate could never see it regress again.
        let findings = diff(&both, &one, &DiffOptions::default()).unwrap();
        assert!(has_failure(&findings), "{findings:?}");
        assert_eq!(findings[0].metric, "counters.net.input_share");
        // `--warn-only` demotes it like any other hard metric.
        let opts = DiffOptions {
            warn_only: vec!["counters.net.input_share".into()],
            ..DiffOptions::default()
        };
        assert!(!has_failure(&diff(&both, &one, &opts).unwrap()));
        // A counter only the current run has is new instrumentation: warn.
        let findings = diff(&one, &both, &DiffOptions::default()).unwrap();
        assert_eq!(findings.len(), 1);
        assert!(!has_failure(&findings), "{findings:?}");
        // Soft families (metric-snapshot gauges) only warn either way.
        let snap = |gauges: &str| {
            parse(&format!(
                "{{\"schema\":\"{METRICS_SCHEMA}\",\"at_ns\":5,\"counters\":[],\
                 \"gauges\":[{gauges}],\"histograms\":[]}}"
            ))
        };
        let findings = diff(
            &snap("{\"name\":\"sched.pending\",\"value\":3}"),
            &snap(""),
            &DiffOptions::default(),
        )
        .unwrap();
        assert_eq!(findings.len(), 1);
        assert!(!has_failure(&findings), "{findings:?}");
    }
}
