//! Secure-comparison microbenchmark — scalar vs vectorized kernels.
//!
//! Measures raw Fed-SAC comparison throughput (`less_than_zero_many`) at
//! the kernel level, bypassing the query layer, across two arms:
//!
//! * **scalar** — the original per-gate `Vec<SharedWord>` kernels
//!   ([`less_than_zero_many_scalar`]) with an inline dealer,
//! * **vectorized** — the flat party-major [`ShareBlock`]
//!   kernels with an inline dealer.
//!
//! Every row cross-checks that both arms reveal identical bits and
//! consume identical network and dealer statistics
//! — the differential suite's invariant kept live inside the harness, so
//! a published speedup can never come from a protocol change.
//!
//! The report is written to `results/BENCH_compare.json` with an explicit
//! schema tag and re-validated on save, like
//! [`throughput`](crate::throughput).

use crate::report::{heading, save_checked, table, RESULTS_DIR};
use crate::BENCH_SEED;
use fedroad_core::jsonio::{JsonError, Value};
use fedroad_mpc::compare::{less_than_zero_many, less_than_zero_many_scalar, CompareScratch};
use fedroad_mpc::dealer::Dealer;
use fedroad_mpc::{Mesh, ShareBlock};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema identifier of the comparison-kernel report. Bump the version
/// suffix on any breaking change to the document shape.
pub const COMPARE_SCHEMA: &str = "fedroad.bench-compare.v2";

/// Batch widths the sweep measures (the scheduler produces exactly these
/// shapes: single duels up to wide coalesced rounds).
pub const BATCH_SIZES: [usize; 4] = [1, 8, 64, 512];

/// Parties in the kernel federation.
pub const PARTIES: usize = 3;

/// One batch width: throughput of each arm plus the (identical) protocol
/// cost counters.
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// Comparisons per protocol execution.
    pub batch: usize,
    /// Repetitions measured.
    pub reps: usize,
    /// Total comparisons per arm (`batch × reps`).
    pub comparisons: u64,
    /// Scalar-kernel comparisons/second.
    pub scalar_cps: f64,
    /// Vectorized-kernel comparisons/second.
    pub vectorized_cps: f64,
    /// `vectorized_cps / scalar_cps` — the layout win.
    pub vector_speedup: f64,
    /// Online rounds consumed by one arm (both arms identical, asserted).
    pub net_rounds: u64,
    /// edaBits consumed by one arm (both arms identical, asserted).
    pub edabits: u64,
    /// Triple words consumed by one arm (both arms identical, asserted).
    pub triple_words: u64,
}

/// The whole sweep: one row per entry of [`BATCH_SIZES`].
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// Seed the run used.
    pub seed: u64,
    /// Whether this was a `--quick` smoke run.
    pub quick: bool,
    /// Parties in the kernel federation.
    pub parties: usize,
    /// One row per batch width, in [`BATCH_SIZES`] order.
    pub rows: Vec<CompareRow>,
}

/// Pre-generated inputs for one row: `reps` batches of `batch` additive
/// sharings of arbitrary differences (input generation stays outside the
/// timed region).
fn make_inputs(batch: usize, reps: usize, seed: u64) -> Vec<Vec<Vec<u64>>> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    (0..reps)
        .map(|_| {
            (0..batch)
                .map(|_| (0..PARTIES).map(|_| rng.gen()).collect())
                .collect()
        })
        .collect()
}

fn measure_one_batch(quick: bool, batch: usize) -> CompareRow {
    let total = if quick { 512 } else { 4096 };
    let reps = (total / batch).max(1);
    let inputs = make_inputs(batch, reps, BENCH_SEED ^ batch as u64);
    let seed = BENCH_SEED ^ 0xC0_0000 ^ batch as u64;

    // Scalar reference arm.
    let mut mesh_s = Mesh::new(PARTIES);
    let mut dealer_s = Dealer::new(PARTIES, seed);
    let mut bits_s = Vec::with_capacity(reps);
    let start = Instant::now();
    for d_list in &inputs {
        bits_s.push(
            less_than_zero_many_scalar(&mut mesh_s, &mut dealer_s, d_list, None)
                .expect("well-formed bench inputs"),
        );
    }
    let scalar_s = start.elapsed().as_secs_f64();

    // Vectorized arm, inline dealer (same seed ⇒ same preprocessing
    // stream ⇒ bit-identical opens and stats). Its inputs are flat blocks,
    // packed outside the timed region, and it works in one reused scratch
    // as an engine does.
    let blocks: Vec<ShareBlock> = inputs
        .iter()
        .map(|d_list| ShareBlock::from_words(PARTIES, d_list))
        .collect();
    let mut scratch = CompareScratch::default();
    let mut mesh_v = Mesh::new(PARTIES);
    let mut dealer_v = Dealer::new(PARTIES, seed);
    let mut bits_v = Vec::with_capacity(reps);
    let start = Instant::now();
    for d in &blocks {
        bits_v.push(
            less_than_zero_many(&mut mesh_v, &mut dealer_v, d, None, &mut scratch)
                .expect("well-formed bench inputs"),
        );
    }
    let vectorized_s = start.elapsed().as_secs_f64();

    // Live accounting-twin checks: identical bits and cost counters.
    assert_eq!(bits_s, bits_v, "scalar and vectorized bits diverged");
    assert_eq!(
        mesh_s.stats(),
        mesh_v.stats(),
        "scalar and vectorized traffic diverged"
    );
    assert_eq!(
        dealer_s.stats(),
        dealer_v.stats(),
        "scalar and vectorized preprocessing diverged"
    );

    let comparisons = (batch * reps) as u64;
    let cps = |t: f64| comparisons as f64 / t.max(1e-9);
    let (scalar_cps, vectorized_cps) = (cps(scalar_s), cps(vectorized_s));
    CompareRow {
        batch,
        reps,
        comparisons,
        scalar_cps,
        vectorized_cps,
        vector_speedup: vectorized_cps / scalar_cps.max(1e-9),
        net_rounds: mesh_v.stats().rounds,
        edabits: dealer_v.stats().edabits,
        triple_words: dealer_v.stats().triple_words,
    }
}

/// Runs the sweep: every batch width of [`BATCH_SIZES`], two arms each.
pub fn run(quick: bool) -> CompareReport {
    heading(&format!(
        "Secure comparisons/sec — scalar vs vectorized kernels ({PARTIES} parties)"
    ));
    let rows: Vec<CompareRow> = BATCH_SIZES
        .iter()
        .map(|&batch| measure_one_batch(quick, batch))
        .collect();
    let printable: Vec<(String, Vec<f64>)> = rows
        .iter()
        .map(|r| {
            (
                format!("batch-{}", r.batch),
                vec![r.scalar_cps, r.vectorized_cps, r.vector_speedup],
            )
        })
        .collect();
    table("batch", &["scalar c/s", "vector c/s", "vec ×"], &printable);
    println!("(expected shape: the speedup column grows with batch width)");
    CompareReport {
        seed: BENCH_SEED,
        quick,
        parties: PARTIES,
        rows,
    }
}

fn row_to_value(row: &CompareRow) -> Value {
    Value::Obj(vec![
        ("batch".into(), Value::Int(row.batch as i128)),
        ("reps".into(), Value::Int(row.reps as i128)),
        ("comparisons".into(), Value::Int(row.comparisons as i128)),
        ("scalar_cps".into(), Value::Float(row.scalar_cps)),
        ("vectorized_cps".into(), Value::Float(row.vectorized_cps)),
        ("vector_speedup".into(), Value::Float(row.vector_speedup)),
        ("net_rounds".into(), Value::Int(row.net_rounds as i128)),
        ("edabits".into(), Value::Int(row.edabits as i128)),
        ("triple_words".into(), Value::Int(row.triple_words as i128)),
    ])
}

impl CompareReport {
    /// The report as a JSON document.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("schema".into(), Value::Str(COMPARE_SCHEMA.into())),
            ("seed".into(), Value::Int(self.seed as i128)),
            ("quick".into(), Value::Bool(self.quick)),
            ("parties".into(), Value::Int(self.parties as i128)),
            (
                "rows".into(),
                Value::Arr(self.rows.iter().map(row_to_value).collect()),
            ),
        ])
    }

    /// The report as compact JSON text.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Writes the report to `results/BENCH_compare.json` (what the binaries do).
    pub fn save(&self) -> std::io::Result<PathBuf> {
        self.save_in(Path::new(RESULTS_DIR))
    }

    /// Writes the report to `dir/BENCH_compare.json`, re-parsing and schema-checking
    /// the written bytes before reporting success.
    pub fn save_in(&self, dir: &Path) -> std::io::Result<PathBuf> {
        save_checked(dir, "BENCH_compare.json", &self.to_json(), validate)
    }
}

fn expect_u64(doc: &Value, key: &str) -> Result<u64, JsonError> {
    doc.get(key)?.as_u64()
}

fn expect_f64(doc: &Value, key: &str) -> Result<f64, JsonError> {
    match doc.get(key)? {
        Value::Float(x) => Ok(*x),
        Value::Int(i) => Ok(*i as f64),
        other => Err(JsonError::Schema(format!(
            "field `{key}` must be a number, found {other:?}"
        ))),
    }
}

fn validate_row(row: &Value) -> Result<(), JsonError> {
    for key in [
        "batch",
        "reps",
        "comparisons",
        "net_rounds",
        "edabits",
        "triple_words",
    ] {
        expect_u64(row, key)?;
    }
    if expect_u64(row, "batch")? == 0 {
        return Err(JsonError::Schema("row has batch width 0".into()));
    }
    for key in ["scalar_cps", "vectorized_cps", "vector_speedup"] {
        let x = expect_f64(row, key)?;
        if !x.is_finite() || x <= 0.0 {
            return Err(JsonError::Schema(format!(
                "field `{key}` must be finite and positive, found {x}"
            )));
        }
    }
    Ok(())
}

/// Validates a parsed document against the `fedroad.bench-compare.v2`
/// schema: schema tag, run parameters, and a non-empty array of
/// well-formed rows.
pub fn validate(doc: &Value) -> Result<(), JsonError> {
    let schema = doc.get("schema")?.as_str()?;
    if schema != COMPARE_SCHEMA {
        return Err(JsonError::Schema(format!(
            "schema mismatch: expected {COMPARE_SCHEMA:?}, found {schema:?}"
        )));
    }
    expect_u64(doc, "seed")?;
    match doc.get("quick")? {
        Value::Bool(_) => {}
        other => {
            return Err(JsonError::Schema(format!(
                "field `quick` must be a bool, found {other:?}"
            )))
        }
    }
    let parties = expect_u64(doc, "parties")?;
    if parties < 2 {
        return Err(JsonError::Schema(format!(
            "field `parties` must be at least 2, found {parties}"
        )));
    }
    let rows = doc.get("rows")?.as_arr()?;
    if rows.is_empty() {
        return Err(JsonError::Schema("sweep has no rows".into()));
    }
    for row in rows {
        validate_row(row)?;
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample_row(batch: usize) -> CompareRow {
        CompareRow {
            batch,
            reps: 512 / batch.max(1),
            comparisons: 512,
            scalar_cps: 10_000.0,
            vectorized_cps: 42_000.0,
            vector_speedup: 4.2,
            net_rounds: 4096,
            edabits: 512,
            triple_words: 6144,
        }
    }

    fn sample() -> CompareReport {
        CompareReport {
            seed: 7,
            quick: true,
            parties: 3,
            rows: vec![sample_row(1), sample_row(64)],
        }
    }

    #[test]
    fn report_roundtrips_and_validates() {
        let report = sample();
        let doc = Value::parse(&report.to_json()).unwrap();
        validate(&doc).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str().unwrap(), COMPARE_SCHEMA);
        assert_eq!(doc.get("rows").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn validation_rejects_wrong_schema_tag() {
        let text = sample()
            .to_json()
            .replace(COMPARE_SCHEMA, "fedroad.bench-compare.v0");
        let doc = Value::parse(&text).unwrap();
        assert!(matches!(validate(&doc), Err(JsonError::Schema(_))));
    }

    #[test]
    fn validation_rejects_missing_fields_and_empty_rows() {
        let doc = Value::parse(&format!("{{\"schema\":\"{COMPARE_SCHEMA}\"}}")).unwrap();
        assert!(validate(&doc).is_err());

        let mut report = sample();
        report.rows.clear();
        let doc = Value::parse(&report.to_json()).unwrap();
        assert!(validate(&doc).is_err());
    }

    #[test]
    fn validation_rejects_non_positive_rates() {
        let mut report = sample();
        report.rows[0].vector_speedup = 0.0;
        let doc = Value::parse(&report.to_json()).unwrap();
        assert!(matches!(validate(&doc), Err(JsonError::Schema(_))));
    }

    #[test]
    fn a_tiny_sweep_runs_with_consistent_counters() {
        // One real (tiny) measurement keeps the arm cross-checks honest in
        // debug CI; throughput numbers are only sanity-bounded here.
        let row = measure_one_batch(true, 8);
        assert_eq!(row.comparisons, 512);
        assert_eq!(row.edabits, 512);
        assert_eq!(row.triple_words, 512 * 12);
        assert_eq!(row.net_rounds, 8 * (row.reps as u64));
        assert!(row.scalar_cps > 0.0 && row.vectorized_cps > 0.0);
    }
}
