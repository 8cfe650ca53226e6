//! Versioned, machine-readable run reports (`BENCH_run.json`).
//!
//! One report summarizes a whole harness run: which experiments executed,
//! the global recorder's counters and histograms, and (optionally) one
//! instrumented example query. The document carries an explicit schema
//! tag and is re-validated on save, so downstream tooling can fail fast
//! on drift instead of silently misreading fields.

use crate::report::{expect_run_params, expect_schema, expect_u64, save_checked, RESULTS_DIR};
use fedroad_core::jsonio::{JsonError, Value};
use fedroad_obs::{QueryTrace, Snapshot};
use std::path::{Path, PathBuf};

/// Schema identifier of the report format this module writes. Bump the
/// version suffix on any breaking change to the document shape.
pub const RUN_SCHEMA: &str = "fedroad.bench-run.v1";

/// Summary of one instrumented example query embedded in the report.
#[derive(Clone, Debug)]
pub struct QuerySummary {
    /// The query label, e.g. `"spsp 3->140"`.
    pub label: String,
    /// Phase names in first-occurrence order.
    pub phases: Vec<String>,
    /// Fed-SAC invocations in the capture window.
    pub sac_invocations: u64,
    /// Protocol executions (batches) in the capture window.
    pub sac_batches: u64,
    /// Communication rounds in the capture window.
    pub rounds: u64,
    /// Payload bytes in the capture window.
    pub bytes: u64,
    /// Wall-clock nanoseconds of the capture window.
    pub wall_ns: u64,
    /// Number of recorded trace events.
    pub num_events: u64,
}

impl QuerySummary {
    /// Builds a summary from a captured trace.
    pub fn from_trace(trace: &QueryTrace) -> Self {
        QuerySummary {
            label: trace.label.clone(),
            phases: trace.phase_names().iter().map(|s| s.to_string()).collect(),
            sac_invocations: trace.totals.sac_invocations,
            sac_batches: trace.totals.sac_batches,
            rounds: trace.totals.rounds,
            bytes: trace.totals.bytes,
            wall_ns: trace.wall_ns(),
            num_events: trace.events.len() as u64,
        }
    }
}

/// A versioned run report assembled from experiment reporters and the
/// recorder snapshot.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Seed the run used ([`crate::BENCH_SEED`] unless overridden).
    pub seed: u64,
    /// Whether the run was a `--quick` smoke run.
    pub quick: bool,
    /// `(experiment name, record count)` per executed experiment.
    pub experiments: Vec<(String, u64)>,
    /// Global recorder counters at the end of the run.
    pub counters: Vec<(String, u64)>,
    /// Global recorder histograms: `(name, [(bucket floor, count)])`.
    pub histograms: Vec<(String, Vec<(u64, u64)>)>,
    /// The instrumented example query, when one ran.
    pub query: Option<QuerySummary>,
}

impl RunReport {
    /// Creates an empty report for a run with the given parameters.
    pub fn new(seed: u64, quick: bool) -> Self {
        RunReport {
            seed,
            quick,
            experiments: Vec::new(),
            counters: Vec::new(),
            histograms: Vec::new(),
            query: None,
        }
    }

    /// Records one executed experiment and its record count.
    pub fn add_experiment(&mut self, name: &str, records: usize) {
        self.experiments.push((name.to_string(), records as u64));
    }

    /// Imports the recorder's counters and histograms from a snapshot.
    pub fn set_snapshot(&mut self, snap: &Snapshot) {
        self.counters = snap.counters.clone();
        self.histograms = snap
            .histograms
            .iter()
            .map(|(name, buckets)| {
                (
                    name.clone(),
                    buckets.iter().map(|b| (b.floor, b.count)).collect(),
                )
            })
            .collect();
    }

    /// The report as a JSON document.
    pub fn to_value(&self) -> Value {
        let experiments = self
            .experiments
            .iter()
            .map(|(name, records)| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(name.clone())),
                    ("records".into(), Value::Int(*records as i128)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(name.clone())),
                    ("value".into(), Value::Int(*v as i128)),
                ])
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, buckets)| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(name.clone())),
                    (
                        "buckets".into(),
                        Value::Arr(
                            buckets
                                .iter()
                                .map(|(floor, count)| {
                                    Value::Obj(vec![
                                        ("floor".into(), Value::Int(*floor as i128)),
                                        ("count".into(), Value::Int(*count as i128)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let mut fields = vec![
            ("schema".into(), Value::Str(RUN_SCHEMA.into())),
            ("seed".into(), Value::Int(self.seed as i128)),
            ("quick".into(), Value::Bool(self.quick)),
            ("experiments".into(), Value::Arr(experiments)),
            ("counters".into(), Value::Arr(counters)),
            ("histograms".into(), Value::Arr(histograms)),
        ];
        fields.push((
            "query".into(),
            match &self.query {
                None => Value::Null,
                Some(q) => Value::Obj(vec![
                    ("label".into(), Value::Str(q.label.clone())),
                    (
                        "phases".into(),
                        Value::Arr(q.phases.iter().map(|p| Value::Str(p.clone())).collect()),
                    ),
                    (
                        "sac_invocations".into(),
                        Value::Int(q.sac_invocations as i128),
                    ),
                    ("sac_batches".into(), Value::Int(q.sac_batches as i128)),
                    ("rounds".into(), Value::Int(q.rounds as i128)),
                    ("bytes".into(), Value::Int(q.bytes as i128)),
                    ("wall_ns".into(), Value::Int(q.wall_ns as i128)),
                    ("num_events".into(), Value::Int(q.num_events as i128)),
                ]),
            },
        ));
        Value::Obj(fields)
    }

    /// The report as compact JSON text.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Writes the report to `results/BENCH_run.json` (what the binaries do).
    pub fn save(&self) -> std::io::Result<PathBuf> {
        self.save_in(Path::new(RESULTS_DIR))
    }

    /// Writes the report to `dir/BENCH_run.json`, re-parsing and schema-checking
    /// the written bytes before reporting success.
    pub fn save_in(&self, dir: &Path) -> std::io::Result<PathBuf> {
        save_checked(dir, "BENCH_run.json", &self.to_json(), validate)
    }
}

/// Validates a parsed document against the `fedroad.bench-run.v1` schema:
/// schema tag, required top-level fields, and the per-entry shapes of
/// `experiments`, `counters`, `histograms`, and `query`.
pub fn validate(doc: &Value) -> Result<(), JsonError> {
    expect_schema(doc, RUN_SCHEMA)?;
    expect_run_params(doc)?;
    for entry in doc.get("experiments")?.as_arr()? {
        entry.get("name")?.as_str()?;
        expect_u64(entry, "records")?;
    }
    for entry in doc.get("counters")?.as_arr()? {
        entry.get("name")?.as_str()?;
        expect_u64(entry, "value")?;
    }
    for entry in doc.get("histograms")?.as_arr()? {
        entry.get("name")?.as_str()?;
        for bucket in entry.get("buckets")?.as_arr()? {
            expect_u64(bucket, "floor")?;
            expect_u64(bucket, "count")?;
        }
    }
    match doc.get("query")? {
        Value::Null => {}
        q => {
            q.get("label")?.as_str()?;
            let phases = q.get("phases")?.as_arr()?;
            if phases.is_empty() {
                return Err(JsonError::Schema(
                    "query summary has an empty phase list".into(),
                ));
            }
            for p in phases {
                p.as_str()?;
            }
            for key in [
                "sac_invocations",
                "sac_batches",
                "rounds",
                "bytes",
                "wall_ns",
                "num_events",
            ] {
                expect_u64(q, key)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport::new(7, true);
        r.add_experiment("fig7_8", 24);
        r.counters = vec![("fedsac.invocations".into(), 42)];
        r.histograms = vec![("fedsac.batch_size".into(), vec![(1, 3), (4, 2)])];
        r.query = Some(QuerySummary {
            label: "spsp 0->9".into(),
            phases: vec!["phase.shortcut_climb".into(), "phase.core_astar".into()],
            sac_invocations: 42,
            sac_batches: 10,
            rounds: 60,
            bytes: 9000,
            wall_ns: 1_000_000,
            num_events: 120,
        });
        r
    }

    #[test]
    fn report_roundtrips_and_validates() {
        let report = sample();
        let doc = Value::parse(&report.to_json()).unwrap();
        validate(&doc).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str().unwrap(), RUN_SCHEMA);
        assert_eq!(doc.get("seed").unwrap().as_u64().unwrap(), 7);
    }

    #[test]
    fn validation_rejects_wrong_schema_tag() {
        let mut report = sample();
        report.seed = 1;
        let text = report.to_json().replace(RUN_SCHEMA, "fedroad.bench-run.v0");
        let doc = Value::parse(&text).unwrap();
        assert!(matches!(validate(&doc), Err(JsonError::Schema(_))));
    }

    #[test]
    fn validation_rejects_missing_fields_and_empty_phases() {
        let doc = Value::parse(&format!("{{\"schema\":\"{RUN_SCHEMA}\"}}")).unwrap();
        assert!(validate(&doc).is_err());
        let mut report = sample();
        report.query.as_mut().unwrap().phases.clear();
        let doc = Value::parse(&report.to_json()).unwrap();
        assert!(validate(&doc).is_err());
    }

    #[test]
    fn report_without_query_is_valid() {
        let mut report = sample();
        report.query = None;
        let doc = Value::parse(&report.to_json()).unwrap();
        validate(&doc).unwrap();
    }
}
