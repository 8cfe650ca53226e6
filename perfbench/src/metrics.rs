//! The metrics: names and units, and how each is computed from a run's
//! records.

use crate::drive::{Op, Phase, Tick};
use crate::trace::Split;
use fedroad_mpc::NetworkModel;

/// End-to-end metrics, measured with tracing off. `BENCHMARK.json` lists
/// the same names and units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("throughput_qps", "q/s"),
    ("fedsac_per_query", "count"),
    ("rounds_per_query", "count"),
    ("bytes_per_query", "bytes"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, from the traced run. `BENCHMARK.json` lists the
/// same names and units.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("lb.potential_ms", "ms"),
    ("lb.share", "ratio"),
    ("spsp.self_ms", "ms"),
    ("spsp.settled", "count"),
    ("queue.pushes", "count"),
    ("queue.cmp_build", "count"),
    ("queue.cmp_merge", "count"),
    ("queue.cmp_pop", "count"),
    ("fedsac.ms", "ms"),
    ("fedsac.calls", "count"),
    ("fedsac.pairs_per_call_p50", "count"),
    ("fedsac.pairs_per_call_max", "count"),
    ("fedsac.us_per_pair", "us"),
    ("scheduler.rounds", "count"),
    ("scheduler.requests_per_round", "count"),
    ("scheduler.max_requests_per_round", "count"),
    ("scheduler.coalesced_frac", "ratio"),
    ("scheduler.blocked_ms", "ms"),
    ("net.rounds", "count"),
    ("net.bytes", "bytes"),
    ("net.messages", "count"),
    ("net.wan_predicted_ms", "ms"),
    ("fedch.build_s", "s"),
    ("fedch.overlay_arcs", "count"),
    ("fedch.shortcuts", "count"),
    ("fedch.customize_ms", "ms"),
    ("fedch.customize_fedsac", "count"),
    ("fedch.touched", "count"),
    ("fedch.changed", "count"),
    ("federation.apply_ms", "ms"),
    ("executor.capture_ms", "ms"),
    ("executor.publish_ms", "ms"),
    ("executor.epoch_lag", "count"),
    ("query.unattributed_ms", "ms"),
    ("query.wall_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("updates_per_s", "1/s"),
    ("epoch_p50_ms", "ms"),
];

/// Metrics printed in the untraced report but not part of the result
/// line: `failed_frac` is the result line's `failed / attempted`; the
/// updater's rates exist on live workloads only.
pub const REPORT_ONLY: [(&str, &str); 3] = [
    ("failed_frac", "ratio"),
    ("updates_per_s", "1/s"),
    ("epoch_p50_ms", "ms"),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Looks `name` up in `table` and pairs it with `value`.
fn metric(table: &[(&'static str, &'static str)], name: &str, value: f64) -> Metric {
    let &(name, unit) = table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown metric {name}"));
    Metric { name, unit, value }
}

/// Median (the mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The percentile `query_tail_ms` reports. Every workload answers several
/// hundred queries in a 20 s run, so dozens of samples lie beyond it. The
/// highest percentile with ten samples beyond it (p99.5 on `cal-long`) is
/// printed too, but a vCPU preempted by the host for a moment moved it by
/// 2× between runs, past any bound a regression check can use.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// The `p`-th percentile by nearest rank, and how many samples lie beyond
/// it; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0);
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (v[rank - 1], n - rank)
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest value, with its percentile (the maximum, at 100, when
/// there are fewer than eleven samples).
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        (0.0, 100.0)
    } else if n <= 10 {
        (v[n - 1], 100.0)
    } else {
        (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
    }
}

fn mean(sum: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Query latencies in ms; a failed op counts as infinitely late.
pub fn latencies_ms(ops: &[Op], ok: &[bool]) -> Vec<f64> {
    ops.iter()
        .zip(ok)
        .map(|(op, &ok)| if ok { ms(op.wall_ns) } else { f64::INFINITY })
        .collect()
}

/// `updates_per_s` and `epoch_p50_ms` of an updater's ticks: updates
/// handed in per second spent in apply + customize + snapshot + publish,
/// and the median of that time over the ticks that published an epoch.
pub fn updater_rates(ticks: &[Tick]) -> (f64, f64) {
    let ok: Vec<&Tick> = ticks.iter().filter(|t| !t.failed).collect();
    let updates: usize = ok.iter().map(|t| t.changes.len()).sum();
    let busy_ns: u64 = ok.iter().map(|t| t.epoch_ns()).sum();
    let epochs: Vec<f64> = ok
        .iter()
        .filter(|t| t.published)
        .map(|t| ms(t.epoch_ns()))
        .collect();
    let rate = if busy_ns == 0 {
        0.0
    } else {
        updates as f64 / (busy_ns as f64 / 1e9)
    };
    (rate, median(&epochs))
}

/// Inputs of the end-to-end metrics.
pub struct EndToEnd<'a> {
    /// The untraced phase.
    pub phase: &'a Phase,
    /// Per op of the phase: answered correctly.
    pub ok: &'a [bool],
    /// Seconds of each set-up made.
    pub setups_s: &'a [f64],
    /// Peak resident set of the process, MiB.
    pub peak_rss_mb: f64,
}

impl EndToEnd<'_> {
    /// The end-to-end metrics, in [`END_TO_END`] order, then the
    /// [`REPORT_ONLY`] ones, then a note on the tail's sample counts.
    pub fn compute(&self) -> (Vec<Metric>, Vec<Metric>, String) {
        let phase = self.phase;
        let queries = phase.ops.len();
        let answered = self.ok.iter().filter(|&&ok| ok).count();
        let fedsac: u64 = phase
            .ops
            .iter()
            .zip(self.ok)
            .filter(|(_, &ok)| ok)
            .filter_map(|(op, _)| op.result.as_ref().ok())
            .map(|a| a.fedsac)
            .sum();
        let latencies = latencies_ms(&phase.ops, self.ok);
        let (tail_ms, beyond) = percentile(&latencies, TAIL_PERCENTILE);
        let (highest_ms, highest_pct) = tail(&latencies);
        let tail_note = format!(
            "query_tail_ms is p{TAIL_PERCENTILE} of {queries} latencies ({beyond} beyond it); the highest percentile with ten beyond it is p{highest_pct:.2} = {highest_ms:.3} ms"
        );
        let e = |name, value| metric(&END_TO_END, name, value);
        let end_to_end = vec![
            e("query_p50_ms", median(&latencies)),
            e("query_tail_ms", tail_ms),
            e("throughput_qps", answered as f64 / phase.wall_s),
            e("fedsac_per_query", mean(fedsac as f64, answered)),
            e(
                "rounds_per_query",
                mean(phase.sac.net.rounds as f64, queries),
            ),
            e("bytes_per_query", mean(phase.sac.net.bytes as f64, queries)),
            e("setup_s", median(self.setups_s)),
            e("peak_rss_mb", self.peak_rss_mb),
        ];
        let failed_ticks = phase.ticks.iter().filter(|t| t.failed).count();
        let attempted = queries + phase.ticks.len();
        let failed = queries - answered + failed_ticks;
        let (updates_per_s, epoch_p50_ms) = updater_rates(&phase.ticks);
        let r = |name, value| metric(&REPORT_ONLY, name, value);
        let report_only = vec![
            r("failed_frac", mean(failed as f64, attempted)),
            r("updates_per_s", updates_per_s),
            r("epoch_p50_ms", epoch_p50_ms),
        ];
        (end_to_end, report_only, tail_note)
    }
}

/// Inputs of the per-layer metrics.
pub struct PerLayer<'a> {
    /// The traced phase.
    pub traced: &'a Phase,
    /// Per op of the traced phase: answered correctly.
    pub ok: &'a [bool],
    /// Median untraced query latency, ms (for the tracing overhead).
    pub untraced_p50_ms: f64,
    /// Seconds `QueryEngine::build` took in set-up.
    pub build_s: f64,
    /// Overlay arcs of the built index.
    pub overlay_arcs: u64,
    /// Shortcuts of the built index.
    pub shortcuts: u64,
}

impl PerLayer<'_> {
    /// The per-layer metrics, in [`PER_LAYER`] order. Per query unless the
    /// catalogue says otherwise; 0 where the workload has no such layer.
    pub fn compute(&self) -> Vec<Metric> {
        let phase = self.traced;
        let queries = phase.ops.len();
        let splits: Vec<_> = phase
            .ops
            .iter()
            .filter_map(|op| op.split.as_ref())
            .collect();
        let n = splits.len();
        let sum = |f: &dyn Fn(&Split) -> u64| splits.iter().map(|s| f(s)).sum::<u64>();
        let mean_ms = |f: &dyn Fn(&Split) -> u64| mean(ms(sum(f)), n);
        let mean_count = |f: &dyn Fn(&Split) -> u64| mean(sum(f) as f64, n);

        let mut hist: Vec<u64> = Vec::new();
        for s in &splits {
            if hist.len() < s.pairs_per_call.len() {
                hist.resize(s.pairs_per_call.len(), 0);
            }
            for (k, c) in s.pairs_per_call.iter().enumerate() {
                hist[k] += c;
            }
        }
        let calls: u64 = hist.iter().sum();
        let pairs: u64 = hist.iter().enumerate().map(|(k, c)| k as u64 * c).sum();
        let mut seen = 0;
        let pairs_p50 = hist
            .iter()
            .position(|&c| {
                seen += c;
                2 * seen >= calls && calls > 0
            })
            .unwrap_or(0);
        let pairs_max = hist.iter().rposition(|&c| c > 0).unwrap_or(0);

        let sched = &phase.sched;
        let net = &phase.sac.net;
        let wan_ms = NetworkModel::wan().modeled_time_s(net) * 1e3;

        let ticks: Vec<&Tick> = phase.ticks.iter().filter(|t| !t.failed).collect();
        let published: Vec<&&Tick> = ticks.iter().filter(|t| t.published).collect();
        let tick_mean =
            |f: &dyn Fn(&Tick) -> f64| mean(ticks.iter().map(|t| f(t)).sum(), ticks.len());
        let pub_mean =
            |f: &dyn Fn(&Tick) -> f64| mean(published.iter().map(|t| f(t)).sum(), published.len());
        let (updates_per_s, epoch_p50_ms) = updater_rates(&phase.ticks);

        let lags: u64 = phase
            .ops
            .iter()
            .filter_map(|op| op.result.as_ref().ok())
            .map(|a| a.lag)
            .sum();
        let traced_walls: Vec<f64> = latencies_ms(&phase.ops, self.ok);

        let m = |name, value| metric(&PER_LAYER, name, value);
        vec![
            m("lb.potential_ms", mean_ms(&|s| s.potential)),
            m(
                "lb.share",
                sum(&|s| s.potential) as f64 / (sum(&|s| s.wall) as f64).max(1.0),
            ),
            m("spsp.self_ms", mean_ms(&|s| s.spsp_self)),
            m("spsp.settled", mean_count(&|s| s.settled as u64)),
            m("queue.pushes", mean_count(&|s| s.pushes)),
            m("queue.cmp_build", mean_count(&|s| s.queue_counts.build)),
            m("queue.cmp_merge", mean_count(&|s| s.queue_counts.merge)),
            m("queue.cmp_pop", mean_count(&|s| s.queue_counts.pop)),
            m("fedsac.ms", mean_ms(&|s| s.fedsac)),
            m("fedsac.calls", mean_count(&|s| s.calls())),
            m("fedsac.pairs_per_call_p50", pairs_p50 as f64),
            m("fedsac.pairs_per_call_max", pairs_max as f64),
            m(
                "fedsac.us_per_pair",
                mean(sum(&|s| s.fedsac) as f64 / 1e3, pairs as usize),
            ),
            m("scheduler.rounds", mean(sched.rounds as f64, queries)),
            m(
                "scheduler.requests_per_round",
                mean(sched.coalesced_requests as f64, sched.rounds as usize),
            ),
            m(
                "scheduler.max_requests_per_round",
                sched.max_requests_per_round as f64,
            ),
            m(
                "scheduler.coalesced_frac",
                mean(
                    sched.coalesced_requests.saturating_sub(sched.rounds) as f64,
                    sched.coalesced_requests as usize,
                ),
            ),
            m("scheduler.blocked_ms", mean_ms(&|s| s.blocked)),
            m("net.rounds", mean(net.rounds as f64, queries)),
            m("net.bytes", mean(net.bytes as f64, queries)),
            m("net.messages", mean(net.messages as f64, queries)),
            m("net.wan_predicted_ms", mean(wan_ms, queries)),
            m("fedch.build_s", self.build_s),
            m("fedch.overlay_arcs", self.overlay_arcs as f64),
            m("fedch.shortcuts", self.shortcuts as f64),
            m("fedch.customize_ms", tick_mean(&|t| ms(t.customize_ns))),
            m(
                "fedch.customize_fedsac",
                tick_mean(&|t| t.customize_fedsac as f64),
            ),
            m("fedch.touched", tick_mean(&|t| t.touched as f64)),
            m("fedch.changed", tick_mean(&|t| t.changed as f64)),
            m("federation.apply_ms", tick_mean(&|t| ms(t.apply_ns))),
            m("executor.capture_ms", pub_mean(&|t| ms(t.capture_ns))),
            m("executor.publish_ms", pub_mean(&|t| ms(t.publish_ns))),
            m("executor.epoch_lag", mean(lags as f64, queries)),
            m("query.unattributed_ms", mean_ms(&|s| s.unattributed)),
            m("query.wall_ms", mean_ms(&|s| s.wall)),
            m(
                "trace.overhead_ms",
                median(&traced_walls) - self.untraced_p50_ms,
            ),
            m("updates_per_s", updates_per_s),
            m("epoch_p50_ms", epoch_p50_ms),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_value_with_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), (90.0, 90.0));
        assert_eq!(tail(&values[..5]), (5.0, 100.0));
        assert_eq!(percentile(&values, 90.0), (90.0, 10));
        assert_eq!(percentile(&values[..5], 90.0), (5.0, 0));
        assert_eq!(median(&values), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
