//! The metrics registry: a typed, point-in-time view over every live
//! instrument — counters, gauges, and log2 histograms with quantile
//! estimates — plus a JSON snapshot format and a periodic exporter.
//!
//! The aggregate recorder stores raw material (bucket counts, monotonic
//! sums); this module turns it into the operational view a serving layer
//! exposes: [`MetricsRegistry::snapshot`] produces a [`MetricsSnapshot`]
//! whose histograms carry p50/p90/p95/p99 estimates, renderable as JSON
//! (`fedroad.metrics-snapshot.v1`) or Prometheus text
//! ([`crate::prometheus::render`]).
//!
//! ## Quantile error bound
//!
//! Histograms are log2-bucketed: bucket `b ≥ 1` covers `[2^(b-1), 2^b)`
//! and bucket 0 holds exactly 0. A quantile estimate is the *geometric
//! midpoint* `2^(b-1)·√2` of the bucket containing the rank. For any true
//! value `v` in that bucket the ratio `est/v` lies in `[1/√2, √2)`, so the
//! relative error is bounded by `√2 − 1 ≈ 41.5%` — a guaranteed bound at
//! every quantile, paid for with two-per-decade resolution. A unit test
//! pins the bound empirically for p99 over adversarial inputs.

use crate::export::escape_json;
use crate::recorder::{self, HistBucket, Snapshot};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Schema identifier of the JSON metrics snapshot this module writes.
pub const METRICS_SCHEMA: &str = "fedroad.metrics-snapshot.v1";

/// Maximum relative error of a log2-histogram quantile estimate
/// (`√2 − 1`), documented and pinned by tests.
pub const QUANTILE_MAX_RELATIVE_ERROR: f64 = std::f64::consts::SQRT_2 - 1.0;

/// Quantile estimates of one histogram (0 for an empty histogram).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuantileView {
    /// Estimated median.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

/// One histogram in a [`MetricsSnapshot`]: buckets, exact totals, and
/// bounded-error quantile estimates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramView {
    /// Metric name (dotted namespace, e.g. `sched.barrier_wait_ns`).
    pub name: String,
    /// Non-empty log2 buckets.
    pub buckets: Vec<HistBucket>,
    /// Exact number of recorded values.
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: u64,
    /// Quantile estimates (see the module-level error bound).
    pub quantiles: QuantileView,
}

/// A typed point-in-time copy of every live instrument.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Capture time, nanoseconds since the recording anchor.
    pub at_ns: u64,
    /// Monotonic counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// Histograms with totals and quantiles, name-sorted.
    pub histograms: Vec<HistogramView>,
}

/// Estimates the `q`-quantile (`0 < q ≤ 1`) of a log2 histogram from its
/// non-empty buckets: the geometric midpoint of the bucket containing the
/// `⌈q·count⌉`-th smallest value. Returns 0 for an empty histogram.
pub fn quantile(buckets: &[HistBucket], q: f64) -> u64 {
    let total: u64 = buckets.iter().map(|b| b.count).sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for b in buckets {
        seen += b.count;
        if seen >= rank {
            if b.bucket == 0 {
                return 0;
            }
            let floor = 1u64 << (b.bucket - 1);
            return (floor as f64 * std::f64::consts::SQRT_2) as u64;
        }
    }
    // Unreachable: seen == total ≥ rank after the last bucket; return the
    // top bucket's estimate defensively.
    buckets
        .last()
        .map(|b| {
            if b.bucket == 0 {
                0
            } else {
                ((1u64 << (b.bucket - 1)) as f64 * std::f64::consts::SQRT_2) as u64
            }
        })
        .unwrap_or(0)
}

fn histogram_views(snap: &Snapshot) -> Vec<HistogramView> {
    snap.histograms
        .iter()
        .zip(&snap.histogram_sums)
        .map(|((name, buckets), (sum_name, sum))| {
            debug_assert_eq!(name, sum_name, "snapshot fields are name-aligned");
            let count = buckets.iter().map(|b| b.count).sum();
            HistogramView {
                name: name.clone(),
                buckets: buckets.clone(),
                count,
                sum: *sum,
                quantiles: QuantileView {
                    p50: quantile(buckets, 0.50),
                    p90: quantile(buckets, 0.90),
                    p95: quantile(buckets, 0.95),
                    p99: quantile(buckets, 0.99),
                },
            }
        })
        .collect()
}

/// The registry façade over the process-global recorder: builds typed
/// snapshots and rendered exports. Stateless by design — instruments live
/// in the recorder so call sites below the engine's ownership graph can
/// reach them; the registry is the read side.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsRegistry;

impl MetricsRegistry {
    /// The process-global registry.
    pub fn global() -> MetricsRegistry {
        MetricsRegistry
    }

    /// Captures a typed snapshot of every live instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        from_recorder_snapshot(&recorder::snapshot())
    }

    /// Renders the current instruments in Prometheus text exposition
    /// format v0.0.4 (see [`crate::prometheus::render`]).
    pub fn render_prometheus(&self) -> String {
        crate::prometheus::render(&self.snapshot())
    }
}

/// Builds a typed [`MetricsSnapshot`] from a raw recorder [`Snapshot`].
pub fn from_recorder_snapshot(snap: &Snapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        at_ns: recorder::now_ns(),
        counters: snap.counters.clone(),
        gauges: snap.gauges.clone(),
        histograms: histogram_views(snap),
    }
}

impl MetricsSnapshot {
    /// The snapshot as a compact JSON document tagged
    /// [`METRICS_SCHEMA`] (hand-rolled like every writer in this
    /// dependency-free crate; the bench harness re-parses and
    /// schema-checks it).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"{METRICS_SCHEMA}\",\"at_ns\":{},\"counters\":[",
            self.at_ns
        );
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"value\":{v}}}", escape_json(name));
        }
        out.push_str("],\"gauges\":[");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"value\":{v}}}", escape_json(name));
        }
        out.push_str("],\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\
                 \"p95\":{},\"p99\":{},\"buckets\":[",
                escape_json(&h.name),
                h.count,
                h.sum,
                h.quantiles.p50,
                h.quantiles.p90,
                h.quantiles.p95,
                h.quantiles.p99,
            );
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"floor\":{},\"count\":{}}}", b.floor, b.count);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// A background thread that renders the registry to a Prometheus text
/// file on a fixed interval — the "periodic snapshotting" half of live
/// telemetry for processes nothing scrapes directly. Stops (and writes a
/// final snapshot) when dropped.
pub struct MetricsExporter {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    path: PathBuf,
}

impl MetricsExporter {
    /// Starts exporting to `path` every `interval`. The parent directory
    /// is created eagerly so the first write cannot race a reader's
    /// `open`.
    pub fn start(path: impl Into<PathBuf>, interval: Duration) -> std::io::Result<MetricsExporter> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let out_path = path.clone();
        // lint: lock-ok(the stop flag gates only loop exit, it publishes no data; the Drop-side join is the sync edge for the thread's writes)
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                let text = MetricsRegistry::global().render_prometheus();
                let _ = std::fs::write(&out_path, text);
                std::thread::park_timeout(interval);
            }
        });
        Ok(MetricsExporter {
            stop,
            handle: Some(handle),
            path,
        })
    }

    /// The file the exporter writes.
    pub fn path(&self) -> &PathBuf {
        &self.path
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        // lint: lock-ok(shutdown request only; the join below synchronises everything the exporter thread wrote)
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
        // Final snapshot so the file reflects the state at shutdown.
        let _ = std::fs::write(&self.path, MetricsRegistry::global().render_prometheus());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket(b: u32, count: u64) -> HistBucket {
        HistBucket {
            bucket: b,
            floor: if b == 0 { 0 } else { 1u64 << (b - 1) },
            count,
        }
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        assert_eq!(quantile(&[], 0.99), 0);
    }

    #[test]
    fn quantile_walks_cumulative_counts() {
        // 10 zeros, 10 values in [4,8), 80 values in [64,128).
        let buckets = vec![bucket(0, 10), bucket(3, 10), bucket(7, 80)];
        assert_eq!(quantile(&buckets, 0.05), 0);
        // rank 20 lands in bucket 3 → geometric midpoint of [4,8) ≈ 5.
        assert_eq!(quantile(&buckets, 0.20), 5);
        // p99 lands in bucket 7 → ⌊64·√2⌋ = 90.
        assert_eq!(quantile(&buckets, 0.99), 90);
    }

    #[test]
    fn p99_relative_error_stays_within_the_documented_bound() {
        // Adversarial: for every true p99 value v (bucket floors, bucket
        // ceilings, mid-bucket), build 98 zeros + 2 copies of v so the p99
        // rank (⌈0.99·100⌉ = 99) lands exactly on v's bucket, then check
        // |est − v|/v against the bound.
        for v in [
            1u64,
            2,
            3,
            5,
            7,
            8,
            9,
            100,
            1023,
            1024,
            1 << 20,
            (1 << 21) - 1,
        ] {
            let vb = 64 - v.leading_zeros();
            let buckets = vec![bucket(0, 98), bucket(vb, 2)];
            let est = quantile(&buckets, 0.99) as f64;
            let rel = (est - v as f64).abs() / v as f64;
            assert!(
                rel <= QUANTILE_MAX_RELATIVE_ERROR + 1e-9,
                "v={v}: estimate {est} has relative error {rel:.4} > bound \
                 {QUANTILE_MAX_RELATIVE_ERROR:.4}"
            );
        }
    }

    #[test]
    fn snapshot_json_is_schema_tagged_and_parseable_shape() {
        let snap = MetricsSnapshot {
            at_ns: 42,
            counters: vec![("fedsac.rounds".into(), 7)],
            gauges: vec![("sched.pending".into(), 3)],
            histograms: vec![HistogramView {
                name: "width".into(),
                buckets: vec![bucket(1, 2), bucket(3, 1)],
                count: 3,
                sum: 7,
                quantiles: QuantileView {
                    p50: 1,
                    p90: 5,
                    p95: 5,
                    p99: 5,
                },
            }],
        };
        let json = snap.to_json();
        assert!(json.starts_with(&format!("{{\"schema\":\"{METRICS_SCHEMA}\"")));
        assert!(json.contains("\"counters\":[{\"name\":\"fedsac.rounds\",\"value\":7}]"));
        assert!(json.contains("\"gauges\":[{\"name\":\"sched.pending\",\"value\":3}]"));
        assert!(json.contains("\"p99\":5"));
        assert!(json.contains("\"buckets\":[{\"floor\":1,\"count\":2},{\"floor\":4,\"count\":1}]"));
    }

    #[test]
    fn registry_snapshot_mirrors_recorder_state() {
        crate::recorder::tests::with_recorder_lock(|| {
            recorder::enable();
            recorder::counter_add("m.count", 2);
            recorder::gauge_set("m.gauge", 9);
            recorder::hist_record("m.hist", 6);
            recorder::hist_record("m.hist", 6);
            let snap = MetricsRegistry::global().snapshot();
            assert_eq!(snap.counters, vec![("m.count".to_string(), 2)]);
            assert_eq!(snap.gauges, vec![("m.gauge".to_string(), 9)]);
            assert_eq!(snap.histograms.len(), 1);
            let h = &snap.histograms[0];
            assert_eq!((h.count, h.sum), (2, 12));
            // Both values in [4,8) → every quantile is the bucket midpoint.
            assert_eq!(h.quantiles.p50, 5);
            assert_eq!(h.quantiles.p99, 5);
        });
    }

    #[test]
    fn exporter_writes_and_rewrites_the_prometheus_file() {
        crate::recorder::tests::with_recorder_lock(|| {
            recorder::enable();
            recorder::counter_add("exporter.test", 1);
            let path = std::env::temp_dir().join("fedroad_metrics_exporter_test.prom");
            let _ = std::fs::remove_file(&path);
            {
                let exporter = MetricsExporter::start(&path, Duration::from_millis(5))
                    .expect("exporter starts");
                // Dropping stops the thread and writes a final snapshot.
                drop(exporter);
            }
            let text = std::fs::read_to_string(&path).expect("exporter wrote the file");
            assert!(
                text.contains("fedroad_exporter_test_total 1"),
                "unexpected exposition: {text}"
            );
            let _ = std::fs::remove_file(&path);
        });
    }
}
