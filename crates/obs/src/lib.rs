//! # fedroad-obs — secret-safe tracing & metrics for the FedRoad workspace
//!
//! The paper's entire evaluation (§VIII) argues in terms of *observable*
//! costs: Fed-SAC invocations, communication rounds, per-silo volume,
//! modeled wall-clock via `R · (L + S/B)`. This crate is the one pipeline
//! those observations flow through: a global recorder API with
//! spans, monotonic counters, and log2-bucketed histograms, a per-query
//! [`QueryTrace`] with a phase timeline, and exports to JSONL and Chrome
//! trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//!
//! On top of the recorder sit the *live telemetry* layers added for
//! serving: a [`MetricsRegistry`] with gauges and bounded-error quantile
//! views, Prometheus text exposition ([`prometheus::render`]), and an
//! always-on crash [`flight`] recorder that keeps per-thread rings of the
//! most recent events and dumps a redacted JSONL black box on panics and
//! protocol errors.
//!
//! Three properties are structural, not conventions:
//!
//! * **Near-zero overhead when disabled.** Every entry point first reads
//!   one relaxed atomic sink mask; no lock is taken, no allocation
//!   happens, and span guards are inert. An integration test pins both
//!   the disabled and the flight-recorder-enabled overhead to ≤ 5% on a
//!   Dijkstra microbenchmark.
//! * **Secrets are unrepresentable.** Span and metric payloads are the
//!   closed [`ObsValue`] enum — counts, byte volumes, durations, public
//!   ids. Ring elements and share words have no constructor, and event
//!   names are `&'static str`, so secret data cannot even be *formatted*
//!   into a trace. `fedroad-lint`'s `obs-no-secret-args` rule additionally
//!   rejects any recording call whose arguments mention a share-carrying
//!   identifier.
//! * **Deterministic accounting, wall-clock timing.** Counters mirror the
//!   protocol's own `NetStats`/`SacStats` deltas (tests pin them equal);
//!   only timestamps are non-deterministic.
//!
//! The recorder is process-global because instrumentation points live
//! below the engine's ownership graph (the TM-tree duels inside
//! `fedroad-queue`, the mesh accounting inside `fedroad-mpc`) where no
//! context handle can be threaded through the trait interfaces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod flight;
pub mod metrics;
pub mod prometheus;
pub mod recorder;
pub mod trace;

pub use export::{escape_json, to_chrome_json, to_jsonl, validate_nesting};
pub use metrics::{
    quantile, HistogramView, MetricsExporter, MetricsRegistry, MetricsSnapshot, QuantileView,
    METRICS_SCHEMA, QUANTILE_MAX_RELATIVE_ERROR,
};
pub use recorder::{
    capture, counter_add, counter_value, current_tid, disable, enable, gauge_add, gauge_set,
    gauge_sub, gauge_value, hist_record, instant, is_active, is_enabled, now_ns, reset, snapshot,
    span, span_begin, span_end, EventKind, HistBucket, ObsValue, Snapshot, SpanGuard, TraceEvent,
};
pub use trace::{QueryTotals, QueryTrace};
