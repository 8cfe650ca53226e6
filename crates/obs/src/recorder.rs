//! The global recorder: spans, monotonic counters, gauges, log2
//! histograms.
//!
//! All aggregate state lives behind one [`Mutex`] guarded by a relaxed
//! atomic sink-mask fast path, so a fully disabled recorder costs one
//! atomic load per call site. Timeline events go only to the
//! [`crate::flight`] ring buffers and, while the recorder is enabled, to
//! the calling thread's open [`capture`] scope; outside a scope an enabled
//! recorder keeps aggregates only, so its memory does not grow with the
//! length of a run. Timestamps are nanoseconds since a process-wide anchor
//! (`Instant`-based, monotonic); thread ids are small per-process indices
//! so Chrome-trace nesting validates per thread.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// The closed set of values a span, instant, or metric may carry.
///
/// This enum is the secret-hygiene boundary of the whole layer: there is
/// no variant for ring elements, share words, or arbitrary strings, so
/// protocol secrets are unrepresentable in a trace by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsValue {
    /// A cardinality: invocations, duels, settled vertices, rounds.
    Count(u64),
    /// A traffic volume in bytes.
    Bytes(u64),
    /// A duration in nanoseconds.
    DurationNs(u64),
    /// A public identifier (vertex id, silo index, level number).
    Id(u64),
    /// A public boolean flag.
    Flag(bool),
}

impl ObsValue {
    /// The numeric payload (`Flag` maps to 0/1).
    pub fn as_u64(self) -> u64 {
        match self {
            ObsValue::Count(v) | ObsValue::Bytes(v) | ObsValue::DurationNs(v) | ObsValue::Id(v) => {
                v
            }
            ObsValue::Flag(b) => u64::from(b),
        }
    }
}

/// What kind of timeline event a [`TraceEvent`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span opening (Chrome `ph: "B"`).
    Begin,
    /// Span closing (Chrome `ph: "E"`).
    End,
    /// A point event (Chrome `ph: "i"`).
    Instant,
}

/// One recorded timeline event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process-wide recording anchor.
    pub ts_ns: u64,
    /// Small per-process thread index (first use of the recorder on a
    /// thread assigns the next id).
    pub tid: u64,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Static event name; dotted namespaces (`fedsac.exec`,
    /// `phase.core_astar`) group related events.
    pub name: &'static str,
    /// Payload, restricted to [`ObsValue`].
    pub args: Vec<(&'static str, ObsValue)>,
}

/// One non-empty bucket of a log2 histogram: values `v` with
/// `bit_length(v) == bucket` (bucket 0 holds exactly the value 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistBucket {
    /// Bucket index = bit length of the recorded values.
    pub bucket: u32,
    /// Smallest value the bucket covers (`2^(bucket-1)`, or 0).
    pub floor: u64,
    /// Number of recorded values in the bucket.
    pub count: u64,
}

/// A point-in-time copy of every aggregate metric.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// Log2 histograms, name-sorted, non-empty buckets only.
    pub histograms: Vec<(String, Vec<HistBucket>)>,
    /// Raw value sums per histogram, aligned name-for-name with
    /// [`Snapshot::histograms`] (Prometheus `_sum` / mean estimation).
    pub histogram_sums: Vec<(String, u64)>,
}

/// Aggregate state of one log2 histogram: per-bucket counts plus the raw
/// sum, which is what Prometheus `_sum` exposition and mean estimation
/// need (bucket counts alone lose it).
#[derive(Clone, Copy)]
struct HistState {
    buckets: [u64; 65],
    sum: u64,
}

impl Default for HistState {
    fn default() -> Self {
        HistState {
            buckets: [0; 65],
            sum: 0,
        }
    }
}

#[derive(Default)]
struct State {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, HistState>,
}

/// Bit of the sink mask enabling the aggregate recorder.
const SINK_RECORDER: u8 = 1;
/// Bit of the sink mask enabling the flight-recorder ring buffers.
pub(crate) const SINK_FLIGHT: u8 = 2;

static SINKS: AtomicU8 = AtomicU8::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// The calling thread's open [`capture`] buffer, if any.
    static CAPTURE: RefCell<Option<Vec<TraceEvent>>> = const { RefCell::new(None) };
}

fn state() -> MutexGuard<'static, State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE
        .get_or_init(|| Mutex::new(State::default()))
        .lock()
        // A panic while holding the lock leaves intact (if partial) data;
        // observability must never take the process down with it.
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide recording anchor (monotonic).
pub fn now_ns() -> u64 {
    anchor().elapsed().as_nanos() as u64
}

/// The calling thread's small recorder thread id.
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// Turns recording on. Metrics accumulate until [`reset`]; timeline
/// events reach only open [`capture`] scopes (and the flight ring).
pub fn enable() {
    // Pin the time anchor no later than the first enable.
    let _ = anchor();
    // Release pairs with the Acquire loads in the is_* gates: a thread
    // that sees the bit set also sees the anchor pinned above.
    SINKS.fetch_or(SINK_RECORDER, Ordering::Release);
}

/// Turns recording off (the fast path at every call site).
pub fn disable() {
    SINKS.fetch_and(!SINK_RECORDER, Ordering::Release);
}

/// Whether the aggregate recorder is currently on.
#[inline]
pub fn is_enabled() -> bool {
    SINKS.load(Ordering::Acquire) & SINK_RECORDER != 0
}

/// Whether *any* event sink (aggregate recorder or flight recorder) is on
/// — the guard call sites use before assembling event payloads.
#[inline]
pub fn is_active() -> bool {
    SINKS.load(Ordering::Acquire) != 0
}

/// Whether the flight-recorder sink bit is set (the public query lives on
/// [`crate::flight::is_enabled`]).
#[inline]
pub(crate) fn is_flight_enabled() -> bool {
    SINKS.load(Ordering::Acquire) & SINK_FLIGHT != 0
}

/// Flips the flight-recorder bit of the sink mask (driven by
/// [`crate::flight::enable`]/[`crate::flight::disable`]).
pub(crate) fn set_flight_sink(on: bool) {
    if on {
        let _ = anchor();
        // Release for the same reason as `enable`: the sink bit
        // publishes the ring configuration done by `flight::enable`.
        SINKS.fetch_or(SINK_FLIGHT, Ordering::Release);
    } else {
        SINKS.fetch_and(!SINK_FLIGHT, Ordering::Release);
    }
}

/// Clears all counters, gauges, and histograms (the enabled flag is left
/// as-is).
pub fn reset() {
    let mut s = state();
    s.counters.clear();
    s.gauges.clear();
    s.histograms.clear();
}

/// Adds `delta` to the monotonic counter `name` (no-op when disabled).
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    *state().counters.entry(name).or_insert(0) += delta;
}

/// Current value of counter `name` (0 if never touched).
pub fn counter_value(name: &str) -> u64 {
    state().counters.get(name).copied().unwrap_or(0)
}

/// Sets the gauge `name` to `value` (no-op when disabled). Gauges are
/// point-in-time levels — queue depths, in-flight queries, busy workers —
/// as opposed to the monotonic counters.
#[inline]
pub fn gauge_set(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    state().gauges.insert(name, value);
}

/// Adds `delta` to the gauge `name` (no-op when disabled).
#[inline]
pub fn gauge_add(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    *state().gauges.entry(name).or_insert(0) += delta;
}

/// Subtracts `delta` from the gauge `name`, saturating at zero (no-op when
/// disabled). Saturation keeps a missed increment (e.g. a panicking
/// worker) from wrapping the level to 2⁶⁴.
#[inline]
pub fn gauge_sub(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    let mut s = state();
    let slot = s.gauges.entry(name).or_insert(0);
    *slot = slot.saturating_sub(delta);
}

/// Current value of gauge `name` (0 if never touched).
pub fn gauge_value(name: &str) -> u64 {
    state().gauges.get(name).copied().unwrap_or(0)
}

/// Records `value` into the log2 histogram `name` (no-op when disabled).
/// Bucket index is the bit length of `value`, so bucket `b` covers
/// `[2^(b-1), 2^b)` and bucket 0 holds zeros. The raw sum is tracked
/// alongside the bucket counts (Prometheus `_sum`).
#[inline]
pub fn hist_record(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    let bucket = (64 - value.leading_zeros()) as usize;
    let mut s = state();
    let h = s.histograms.entry(name).or_default();
    h.buckets[bucket] += 1;
    h.sum = h.sum.saturating_add(value);
}

fn push_event(kind: EventKind, name: &'static str, args: &[(&'static str, ObsValue)]) {
    let mask = SINKS.load(Ordering::Acquire);
    let to_flight = mask & SINK_FLIGHT != 0;
    let to_capture = mask & SINK_RECORDER != 0 && CAPTURE.with_borrow(Option::is_some);
    if !to_flight && !to_capture {
        return;
    }
    let ev = TraceEvent {
        ts_ns: now_ns(),
        tid: current_tid(),
        kind,
        name,
        args: args.to_vec(),
    };
    if to_flight {
        crate::flight::record(&ev);
    }
    if to_capture {
        CAPTURE.with_borrow_mut(|buf| {
            if let Some(buf) = buf {
                buf.push(ev);
            }
        });
    }
}

/// Records a point event (no-op when disabled).
#[inline]
pub fn instant(name: &'static str, args: &[(&'static str, ObsValue)]) {
    if !is_active() {
        return;
    }
    push_event(EventKind::Instant, name, args);
}

/// Opens a span explicitly. Pair with [`span_end`] of the same name on the
/// same thread; prefer [`span`] where scope-based closing works.
#[inline]
pub fn span_begin(name: &'static str, args: &[(&'static str, ObsValue)]) {
    if !is_active() {
        return;
    }
    push_event(EventKind::Begin, name, args);
}

/// Closes a span opened by [`span_begin`]; `args` land on the closing
/// event (the natural place for quantities known only at the end, such as
/// round/byte deltas).
#[inline]
pub fn span_end(name: &'static str, args: &[(&'static str, ObsValue)]) {
    if !is_active() {
        return;
    }
    push_event(EventKind::End, name, args);
}

/// RAII span: records Begin now and End when dropped. Inert (no events on
/// drop either) when the recorder was disabled at creation.
#[must_use = "a span closes when the guard drops; binding it to `_` closes immediately"]
pub struct SpanGuard {
    name: Option<&'static str>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            span_end(name, &[]);
        }
    }
}

/// Opens an RAII span (no-op guard when disabled).
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_active() {
        return SpanGuard { name: None };
    }
    span_begin(name, &[]);
    SpanGuard { name: Some(name) }
}

/// Runs `f` and returns, next to its result, the timeline events the
/// calling thread recorded while it ran — the capture primitive for
/// per-query traces. Events reach the scope only while the recorder is
/// enabled; other threads' events never do. A scope nested inside another
/// passes its events on to the outer one as well.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<TraceEvent>) {
    /// Closes the scope even when `f` unwinds, so a panicking capture
    /// leaves no buffer behind to grow. Holds the enclosing scope's buffer
    /// until it closes.
    struct Scope(Option<Option<Vec<TraceEvent>>>);
    impl Scope {
        fn close(&mut self) -> Vec<TraceEvent> {
            let Some(outer) = self.0.take() else {
                return Vec::new();
            };
            let events = CAPTURE
                .with_borrow_mut(|buf| std::mem::replace(buf, outer))
                .unwrap_or_default();
            CAPTURE.with_borrow_mut(|buf| {
                if let Some(outer) = buf {
                    outer.extend_from_slice(&events);
                }
            });
            events
        }
    }
    impl Drop for Scope {
        fn drop(&mut self) {
            self.close();
        }
    }
    let mut scope = Scope(Some(CAPTURE.with_borrow_mut(|buf| buf.replace(Vec::new()))));
    let result = f();
    let events = scope.close();
    (result, events)
}

/// Copies out every aggregate metric.
pub fn snapshot() -> Snapshot {
    let s = state();
    Snapshot {
        counters: s
            .counters
            .iter()
            .map(|(name, v)| (name.to_string(), *v))
            .collect(),
        gauges: s
            .gauges
            .iter()
            .map(|(name, v)| (name.to_string(), *v))
            .collect(),
        histograms: s
            .histograms
            .iter()
            .map(|(name, h)| {
                let nonzero = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c > 0)
                    .map(|(b, c)| HistBucket {
                        bucket: b as u32,
                        floor: if b == 0 { 0 } else { 1u64 << (b - 1) },
                        count: *c,
                    })
                    .collect();
                (name.to_string(), nonzero)
            })
            .collect(),
        histogram_sums: s
            .histograms
            .iter()
            .map(|(name, h)| (name.to_string(), h.sum))
            .collect(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes tests touching the global recorder.
    pub(crate) fn with_recorder_lock<R>(f: impl FnOnce() -> R) -> R {
        static GATE: Mutex<()> = Mutex::new(());
        let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        disable();
        let r = f();
        reset();
        disable();
        r
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        with_recorder_lock(|| {
            counter_add("c", 5);
            hist_record("h", 9);
            gauge_set("g", 7);
            gauge_add("g", 2);
            let ((), events) = capture(|| {
                instant("i", &[]);
                let _s = span("s");
            });
            assert!(events.is_empty());
            assert_eq!(counter_value("c"), 0);
            assert_eq!(gauge_value("g"), 0);
            let snap = snapshot();
            assert!(snap.counters.is_empty());
            assert!(snap.gauges.is_empty());
            assert!(snap.histograms.is_empty());
            assert!(snap.histogram_sums.is_empty());
        });
    }

    #[test]
    fn gauges_set_add_and_saturate_on_sub() {
        with_recorder_lock(|| {
            enable();
            gauge_set("sched.pending", 4);
            gauge_add("sched.pending", 3);
            gauge_sub("sched.pending", 2);
            assert_eq!(gauge_value("sched.pending"), 5);
            gauge_sub("sched.pending", 100);
            assert_eq!(gauge_value("sched.pending"), 0);
            gauge_add("executor.busy", 1);
            let snap = snapshot();
            assert_eq!(
                snap.gauges,
                vec![
                    ("executor.busy".to_string(), 1),
                    ("sched.pending".to_string(), 0),
                ]
            );
        });
    }

    #[test]
    fn histogram_sums_track_raw_values() {
        with_recorder_lock(|| {
            enable();
            hist_record("width", 3);
            hist_record("width", 5);
            hist_record("width", 0);
            let snap = snapshot();
            assert_eq!(snap.histogram_sums, vec![("width".to_string(), 8)]);
        });
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        with_recorder_lock(|| {
            enable();
            counter_add("fedsac.rounds", 3);
            counter_add("fedsac.rounds", 4);
            hist_record("batch", 0);
            hist_record("batch", 1);
            hist_record("batch", 5); // bit length 3
            hist_record("batch", 7); // bit length 3
            let snap = snapshot();
            assert_eq!(snap.counters, vec![("fedsac.rounds".to_string(), 7)]);
            let (name, buckets) = &snap.histograms[0];
            assert_eq!(name, "batch");
            assert_eq!(
                buckets,
                &vec![
                    HistBucket {
                        bucket: 0,
                        floor: 0,
                        count: 1
                    },
                    HistBucket {
                        bucket: 1,
                        floor: 1,
                        count: 1
                    },
                    HistBucket {
                        bucket: 3,
                        floor: 4,
                        count: 2
                    },
                ]
            );
        });
    }

    #[test]
    fn spans_nest_and_marks_capture() {
        with_recorder_lock(|| {
            enable();
            let ((), events) = capture(|| {
                let _outer = span("outer");
                instant("tick", &[("n", ObsValue::Count(1))]);
                let _inner = span("inner");
            });
            let shape: Vec<(EventKind, &str)> = events.iter().map(|e| (e.kind, e.name)).collect();
            assert_eq!(
                shape,
                vec![
                    (EventKind::Begin, "outer"),
                    (EventKind::Instant, "tick"),
                    (EventKind::Begin, "inner"),
                    (EventKind::End, "inner"),
                    (EventKind::End, "outer"),
                ]
            );
            assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        });
    }

    #[test]
    fn capture_scopes_nest_and_close_on_unwind() {
        with_recorder_lock(|| {
            enable();
            instant("before", &[]);
            let (inner, outer) = capture(|| {
                instant("outer", &[]);
                capture(|| instant("inner", &[])).1
            });
            instant("after", &[]);
            let names = |events: &[TraceEvent]| events.iter().map(|e| e.name).collect::<Vec<_>>();
            assert_eq!(names(&inner), ["inner"]);
            assert_eq!(names(&outer), ["outer", "inner"]);

            let unwound = std::panic::catch_unwind(|| capture(|| panic!("query failed")));
            assert!(unwound.is_err());
            assert!(CAPTURE.with_borrow(Option::is_none));
        });
    }

    #[test]
    fn obs_value_payloads_are_numeric() {
        assert_eq!(ObsValue::Count(4).as_u64(), 4);
        assert_eq!(ObsValue::Flag(true).as_u64(), 1);
        assert_eq!(ObsValue::Flag(false).as_u64(), 0);
    }
}
