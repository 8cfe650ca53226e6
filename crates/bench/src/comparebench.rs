//! Secure-comparison microbenchmark.
//!
//! Measures raw Fed-SAC comparison throughput (`less_than_zero_many`) at
//! the kernel level, bypassing the query layer: the flat party-major
//! [`ShareBlock`] kernel with an inline dealer, working in one reused
//! scratch as an engine does.
//!
//! Every row checks the revealed bits against the plaintext sign of each
//! difference outside the timed region, so a published rate can never come
//! from a wrong answer; the differential suite (`tests/prop_vectorized.rs`)
//! pins the kernel to a per-lane reference of the protocol.
//!
//! The report is written to `results/BENCH_compare.json` with an explicit
//! schema tag and re-validated on save, like
//! [`throughput`](crate::throughput).

use crate::report::{
    expect_f64, expect_run_params, expect_schema, expect_u64, heading, save_checked, table,
    RESULTS_DIR,
};
use crate::BENCH_SEED;
use fedroad_core::jsonio::{JsonError, Value};
use fedroad_mpc::compare::{less_than_zero_many, CompareScratch};
use fedroad_mpc::dealer::{reconstruct_additive, Dealer};
use fedroad_mpc::{Mesh, ShareBlock};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema identifier of the comparison-kernel report. Bump the version
/// suffix on any breaking change to the document shape.
pub const COMPARE_SCHEMA: &str = "fedroad.bench-compare.v3";

/// Batch widths the sweep measures (the scheduler produces exactly these
/// shapes: single duels up to wide coalesced rounds).
pub const BATCH_SIZES: [usize; 4] = [1, 8, 64, 512];

/// Parties in the kernel federation.
pub const PARTIES: usize = 3;

/// One batch width: kernel throughput plus the protocol cost counters.
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// Comparisons per protocol execution.
    pub batch: usize,
    /// Repetitions measured.
    pub reps: usize,
    /// Total comparisons (`batch × reps`).
    pub comparisons: u64,
    /// Comparisons/second.
    pub cps: f64,
    /// Online rounds consumed.
    pub net_rounds: u64,
    /// Online bytes on the wire, all parties.
    pub net_bytes: u64,
    /// edaBits consumed.
    pub edabits: u64,
    /// Carry-correlation words consumed.
    pub corr_words: u64,
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

    // Inputs are packed into flat blocks outside the timed region.
    let blocks: Vec<ShareBlock> = inputs
        .iter()
        .map(|d_list| ShareBlock::from_words(PARTIES, d_list))
        .collect();
    let mut scratch = CompareScratch::default();
    let mut mesh = Mesh::new(PARTIES);
    let mut dealer = Dealer::new(PARTIES, seed);
    let mut bits = Vec::with_capacity(reps);
    let start = Instant::now();
    for d in &blocks {
        bits.push(
            less_than_zero_many(&mut mesh, &mut dealer, d, None, &mut scratch)
                .expect("well-formed bench inputs"),
        );
    }
    let elapsed_s = start.elapsed().as_secs_f64();

    // Every revealed bit is the sign of its difference.
    for (d_list, bits) in inputs.iter().zip(&bits) {
        for (d, &bit) in d_list.iter().zip(bits) {
            assert_eq!(
                bit,
                reconstruct_additive(d) >> 63 == 1,
                "wrong comparison bit"
            );
        }
    }

    let comparisons = (batch * reps) as u64;
    CompareRow {
        batch,
        reps,
        comparisons,
        cps: comparisons as f64 / elapsed_s.max(1e-9),
        net_rounds: mesh.stats().rounds,
        net_bytes: mesh.stats().bytes,
        edabits: dealer.stats().edabits,
        corr_words: dealer.stats().corr_words,
    }
}

/// Runs the sweep: every batch width of [`BATCH_SIZES`].
pub fn run(quick: bool) -> CompareReport {
    heading(&format!(
        "Secure comparisons/sec — block kernel ({PARTIES} parties)"
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
                vec![r.cps, 1e6 * r.batch as f64 / r.cps],
            )
        })
        .collect();
    table("batch", &["c/s", "µs/exec"], &printable);
    println!("(expected shape: comparisons/sec grow with batch width)");
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
        ("cps".into(), Value::Float(row.cps)),
        ("net_rounds".into(), Value::Int(row.net_rounds as i128)),
        ("net_bytes".into(), Value::Int(row.net_bytes as i128)),
        ("edabits".into(), Value::Int(row.edabits as i128)),
        ("corr_words".into(), Value::Int(row.corr_words as i128)),
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

/// The integer fields of a row: its shape and the protocol's deterministic
/// cost counters.
const COUNTER_FIELDS: [&str; 7] = [
    "batch",
    "reps",
    "comparisons",
    "net_rounds",
    "net_bytes",
    "edabits",
    "corr_words",
];

fn validate_row(row: &Value) -> Result<(), JsonError> {
    for key in COUNTER_FIELDS {
        expect_u64(row, key)?;
    }
    if expect_u64(row, "batch")? == 0 {
        return Err(JsonError::Schema("row has batch width 0".into()));
    }
    let cps = expect_f64(row, "cps")?;
    if !cps.is_finite() || cps <= 0.0 {
        return Err(JsonError::Schema(format!(
            "field `cps` must be finite and positive, found {cps}"
        )));
    }
    Ok(())
}

/// Validates a parsed document against the `fedroad.bench-compare.v3`
/// schema: schema tag, run parameters, and a non-empty array of
/// well-formed rows.
pub fn validate(doc: &Value) -> Result<(), JsonError> {
    expect_schema(doc, COMPARE_SCHEMA)?;
    expect_run_params(doc)?;
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
            cps: 42_000.0,
            net_rounds: 2560,
            net_bytes: 196_608,
            edabits: 512,
            corr_words: 512 * 44,
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
        report.rows[0].cps = 0.0;
        let doc = Value::parse(&report.to_json()).unwrap();
        assert!(matches!(validate(&doc), Err(JsonError::Schema(_))));
    }

    #[test]
    fn a_tiny_sweep_runs_with_consistent_counters() {
        // One real (tiny) measurement keeps the answer check and the
        // counters honest in debug CI; throughput is only sanity-bounded.
        let row = measure_one_batch(true, 8);
        assert_eq!(row.comparisons, 512);
        assert_eq!(row.edabits, 512);
        assert_eq!(row.corr_words, 512 * 44);
        assert_eq!(row.net_rounds, 5 * (row.reps as u64));
        // 8 words per party and comparison, P(P − 1) = 6 messages each.
        assert_eq!(row.net_bytes, 512 * 8 * 8 * 6);
        assert!(row.cps > 0.0);
    }
}
