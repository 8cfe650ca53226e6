//! Recorder overhead budgets on the Dijkstra microbench: instrumented
//! Dijkstra must stay within 5% of an identical uninstrumented copy both
//! with recording fully off and with only the flight recorder on (the
//! always-on crash telemetry must be cheap enough to leave enabled).
//!
//! This file is its own test binary (own process), so no other test can
//! enable the global recorder underneath the measurement; the tests in
//! here serialize on [`GATE`] for the same reason.

use fedroad::graph::{Graph, Weight, INFINITY};
use fedroad::{grid_city, GridCityParams, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Verbatim uninstrumented copy of `fedroad_graph::algo::sssp` (same
/// lazy-deletion Dijkstra, no span, no counters) — the baseline.
fn sssp_plain(g: &Graph, weights: &[Weight], source: VertexId) -> Vec<Weight> {
    let n = g.num_vertices();
    let mut dist = vec![INFINITY; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0;
    heap.push(Reverse((0u64, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if settled[v.index()] {
            continue;
        }
        settled[v.index()] = true;
        for arc in g.out_arcs(v) {
            let nd = d + weights[arc.id.index()];
            if nd < dist[arc.head.index()] {
                dist[arc.head.index()] = nd;
                heap.push(Reverse((nd, arc.head)));
            }
        }
    }
    dist
}

fn time_of(mut f: impl FnMut() -> u64) -> Duration {
    let t0 = Instant::now();
    let sink = f();
    let elapsed = t0.elapsed();
    assert!(sink > 0, "work must not be optimized away");
    elapsed
}

/// Serializes the overhead measurements: both tests read global recorder
/// state, so letting them interleave would corrupt each other's timing.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs the interleaved min-of-`rounds` measurement of plain vs
/// instrumented Dijkstra and asserts the 5% budget (plus 100µs of timer
/// granularity slack — the budget that matters is relative; the absolute
/// term only keeps sub-millisecond runs from flaking on quantization).
fn assert_overhead_within_budget(mode: &str) {
    let g = grid_city(&GridCityParams::with_target_vertices(2500), 3);
    let w = g.static_weights();
    let src = VertexId(0);

    // Alternate the two variants and keep the per-variant minimum:
    // the minimum over many rounds strips scheduler noise, and
    // interleaving strips cache/frequency drift between variants.
    let rounds = 25;
    let mut best_plain = Duration::MAX;
    let mut best_instr = Duration::MAX;
    // Warm-up: touch both code paths and the graph once.
    let _ = sssp_plain(&g, w, src);
    let _ = fedroad::graph::algo::sssp(&g, w, src);
    for _ in 0..rounds {
        let t = time_of(|| {
            sssp_plain(&g, w, src)
                .iter()
                .filter(|&&d| d < INFINITY)
                .count() as u64
        });
        best_plain = best_plain.min(t);
        let t = time_of(|| {
            fedroad::graph::algo::sssp(&g, w, src)
                .dist
                .iter()
                .filter(|&&d| d < INFINITY)
                .count() as u64
        });
        best_instr = best_instr.min(t);
    }

    // The 5% pin is a release-build contract: unoptimized builds don't
    // inline the atomic fast path, so debug runs get a loose 35% sanity
    // bound instead of flaking (the gate that matters runs `--release`).
    let relative = if cfg!(debug_assertions) {
        best_plain * 35 / 100
    } else {
        best_plain / 20
    };
    let budget = best_plain + relative + Duration::from_micros(100);
    assert!(
        best_instr <= budget,
        "instrumented Dijkstra too slow with {mode}: \
         baseline {best_plain:?}, instrumented {best_instr:?}, budget {budget:?}"
    );
}

#[test]
fn disabled_recorder_overhead_is_within_five_percent() {
    let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
    assert!(
        !fedroad::obs::is_active(),
        "this measurement must run with every sink off"
    );
    assert_overhead_within_budget("recording disabled");
}

/// Turns the flight sink off when dropped, so a failed measurement does
/// not leave it on under the next test.
struct FlightOff;

impl Drop for FlightOff {
    fn drop(&mut self) {
        fedroad::obs::flight::disable();
    }
}

#[test]
fn flight_recorder_overhead_is_within_five_percent() {
    let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
    // Flight sink on, aggregate recorder off — the always-on crash
    // telemetry configuration a serving process would run with.
    fedroad::obs::flight::enable(None);
    let _off = FlightOff;
    assert!(fedroad::obs::flight::is_enabled());
    assert!(
        !fedroad::obs::is_enabled(),
        "aggregate recorder must stay off for this measurement"
    );
    assert_overhead_within_budget("flight recorder enabled");
}
