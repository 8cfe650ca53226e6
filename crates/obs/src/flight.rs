//! The crash flight recorder: per-thread ring buffers of the most recent
//! obs events, dumped to a redacted JSONL "black box" when something goes
//! wrong.
//!
//! A live service cannot afford the full recorder (its timeline grows
//! without bound), but when a query panics or a protocol round fails the
//! operator needs the events *leading up to* the failure. The flight
//! recorder keeps exactly that: each thread appends every timeline event
//! into its own fixed-capacity ring, so steady-state memory is bounded and
//! writes never contend across threads (each write touches only the
//! owning thread's uncontended lock; the global registry is locked once
//! per thread lifetime, and at dump time).
//!
//! Secret hygiene is inherited structurally: rings store
//! [`TraceEvent`]s, whose payloads are the closed
//! [`ObsValue`](crate::ObsValue) enum
//! (no ring elements, no arbitrary strings), and dump *reasons* are
//! `&'static str` so a failure path cannot format secret values — or even
//! a panic payload — into the black box. The panic hook therefore records
//! *that* a panic happened, never its message.
//!
//! Enable with [`enable`]; events start flowing from the same
//! instrumentation points the aggregate recorder uses (the sink mask in
//! [`crate::recorder`] fans each event out to both sinks). Dump manually
//! with [`dump`]/[`dump_to_file`], or install the chained panic hook via
//! [`install_panic_hook`].

use crate::export::to_jsonl;
use crate::recorder::{self, TraceEvent};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Ring capacity used when [`enable`] is called with `None`.
pub const DEFAULT_CAPACITY: usize = 256;

/// Schema tag of the black-box dump header line.
pub const BLACKBOX_SCHEMA: &str = "fedroad.flight.v1";

/// One thread's ring: the last `capacity` events, overwritten oldest-first.
struct Ring {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Index the next event lands at (wraps).
    next: usize,
    /// Total events ever pushed (so dumps can report drops).
    total: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            events: Vec::with_capacity(capacity),
            capacity: capacity.max(1),
            next: 0,
            total: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.next] = ev;
        }
        self.next = (self.next + 1) % self.capacity;
        self.total += 1;
    }

    /// The retained events, oldest first.
    fn ordered(&self) -> Vec<TraceEvent> {
        if self.events.len() < self.capacity {
            return self.events.clone();
        }
        let (tail, head) = self.events.split_at(self.next);
        head.iter().chain(tail.iter()).cloned().collect()
    }
}

/// Shared flight state: the ring registry and configuration.
struct Shared {
    rings: Vec<Arc<Mutex<Ring>>>,
    capacity: usize,
    dump_dir: PathBuf,
}

impl Default for Shared {
    fn default() -> Self {
        Shared {
            rings: Vec::new(),
            capacity: DEFAULT_CAPACITY,
            dump_dir: PathBuf::from("target/flight"),
        }
    }
}

fn shared() -> MutexGuard<'static, Shared> {
    static SHARED: OnceLock<Mutex<Shared>> = OnceLock::new();
    SHARED
        .get_or_init(|| Mutex::new(Shared::default()))
        .lock()
        // Same poison policy as the recorder: observability never takes
        // the process down, least of all while it is already panicking.
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

thread_local! {
    static RING: OnceLock<Arc<Mutex<Ring>>> = const { OnceLock::new() };
}

/// Turns the flight recorder on with the given ring capacity per thread
/// (`None` for [`DEFAULT_CAPACITY`]). Rings of already-registered threads
/// are cleared and resized.
pub fn enable(capacity: Option<usize>) {
    let capacity = capacity.unwrap_or(DEFAULT_CAPACITY).max(1);
    {
        let mut sh = shared();
        sh.capacity = capacity;
        for ring in &sh.rings {
            let mut r = ring.lock().unwrap_or_else(|p| p.into_inner());
            *r = Ring::new(capacity);
        }
    }
    recorder::set_flight_sink(true);
}

/// Turns the flight recorder off (rings keep their contents so a dump can
/// still run after disabling).
pub fn disable() {
    recorder::set_flight_sink(false);
}

/// Whether the flight recorder is currently capturing events.
pub fn is_enabled() -> bool {
    crate::recorder::is_flight_enabled()
}

/// Sets the directory black-box dumps are written into (created on
/// demand; default `target/flight`).
pub fn set_dump_dir(dir: impl Into<PathBuf>) {
    shared().dump_dir = dir.into();
}

/// Appends `ev` to the calling thread's ring. Called from the recorder's
/// event fan-out; first use on a thread registers its ring.
pub(crate) fn record(ev: &TraceEvent) {
    RING.with(|slot| {
        let ring = slot.get_or_init(|| {
            let mut sh = shared();
            let ring = Arc::new(Mutex::new(Ring::new(sh.capacity)));
            sh.rings.push(Arc::clone(&ring));
            ring
        });
        ring.lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(ev.clone());
    });
}

/// Renders the black box: a JSON header line (schema tag, dump reason,
/// retained/total event counts, thread count) followed by every retained
/// event in global timestamp order, one JSON object per line — the same
/// line format as [`crate::export::to_jsonl`].
///
/// `reason` is deliberately `&'static str`: failure paths name a *kind*
/// (`"panic"`, `"protocol-error"`), they cannot format values into it.
pub fn dump(reason: &'static str) -> String {
    let rings: Vec<Arc<Mutex<Ring>>> = shared().rings.clone();
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut total: u64 = 0;
    for ring in &rings {
        let r = ring.lock().unwrap_or_else(|p| p.into_inner());
        total += r.total;
        events.extend(r.ordered());
    }
    events.sort_by_key(|e| e.ts_ns);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"blackbox\":\"{BLACKBOX_SCHEMA}\",\"reason\":\"{reason}\",\"dumped_at_ns\":{},\
         \"threads\":{},\"retained_events\":{},\"total_events\":{}}}",
        recorder::now_ns(),
        rings.len(),
        events.len(),
        total,
    );
    out.push_str(&to_jsonl(&events));
    out
}

/// Writes [`dump`] to `<dump_dir>/blackbox_<reason>.jsonl` and returns the
/// path. Repeated dumps with the same reason overwrite (last failure
/// wins — the black box documents the most recent crash).
pub fn dump_to_file(reason: &'static str) -> std::io::Result<PathBuf> {
    let dir = shared().dump_dir.clone();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("blackbox_{reason}.jsonl"));
    std::fs::write(&path, dump(reason))?;
    Ok(path)
}

/// [`dump_to_file`] guarded on [`is_enabled`] and swallowing IO errors —
/// the form error paths call: a failing disk must not mask the original
/// protocol failure. Returns the written path when a dump happened.
pub fn dump_on_error(reason: &'static str) -> Option<PathBuf> {
    if !is_enabled() {
        return None;
    }
    dump_to_file(reason).ok()
}

/// Installs a process-wide panic hook (once) that dumps the black box with
/// reason `"panic"` before chaining to the previous hook. The panic
/// *message* is never written — payloads can embed arbitrary values, and
/// the black box stays redacted by construction.
pub fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = dump_on_error("panic");
            previous(info);
        }));
    });
}

/// Test hook: empties every registered ring so flight tests sharing one
/// process start from a clean capture.
pub fn clear_for_test() {
    let sh = shared();
    let capacity = sh.capacity;
    for ring in &sh.rings {
        let mut r = ring.lock().unwrap_or_else(|p| p.into_inner());
        *r = Ring::new(capacity);
    }
}

/// The configured dump directory joined with the black-box filename the
/// given reason would produce (for tests and tooling that read dumps
/// back).
pub fn dump_path(reason: &str) -> PathBuf {
    shared().dump_dir.join(format!("blackbox_{reason}.jsonl"))
}

/// Convenience for callers outside the crate: the dump directory itself.
pub fn dump_dir() -> PathBuf {
    shared().dump_dir.clone()
}

/// Returns true when `path` looks like a black-box dump this module wrote
/// (used by artifact validation in the bench harness).
pub fn is_blackbox_header(line: &str) -> bool {
    line.starts_with("{\"blackbox\":\"") && line.contains(BLACKBOX_SCHEMA)
}

/// Validates the *shape* of a dump produced by [`dump`]: a header line
/// carrying the schema tag followed by JSONL event lines. Returns the
/// number of event lines.
pub fn validate_dump(text: &str) -> Result<usize, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| "empty dump".to_string())?;
    if !is_blackbox_header(header) {
        return Err(format!("first line is not a black-box header: {header}"));
    }
    let mut events = 0;
    for (i, line) in lines.enumerate() {
        if !line.starts_with('{') || !line.ends_with('}') {
            return Err(format!("line {} is not a JSON object: {line}", i + 2));
        }
        events += 1;
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{instant, ObsValue};
    use std::sync::Mutex as StdMutex;

    /// Serializes flight tests (the ring registry and sink mask are
    /// process-global).
    fn with_flight_lock<R>(f: impl FnOnce() -> R) -> R {
        static GATE: StdMutex<()> = StdMutex::new(());
        let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
        clear_for_test();
        let r = f();
        disable();
        clear_for_test();
        r
    }

    #[test]
    fn ring_keeps_only_the_newest_events_in_order() {
        let mut ring = Ring::new(3);
        for i in 0..5u64 {
            ring.push(TraceEvent {
                ts_ns: i,
                tid: 1,
                kind: crate::recorder::EventKind::Instant,
                name: "tick",
                args: vec![],
            });
        }
        let kept: Vec<u64> = ring.ordered().iter().map(|e| e.ts_ns).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(ring.total, 5);
    }

    #[test]
    fn dump_carries_header_and_ring_events() {
        with_flight_lock(|| {
            enable(Some(8));
            instant("flight.test", &[("n", ObsValue::Count(3))]);
            instant("flight.test", &[("n", ObsValue::Count(4))]);
            disable();
            let text = dump("unit-test");
            let events = validate_dump(&text).expect("well-formed dump");
            assert!(events >= 2, "{text}");
            assert!(text.contains("\"reason\":\"unit-test\""));
            assert!(text.contains("\"name\":\"flight.test\""));
        });
    }

    #[test]
    fn disabled_flight_records_nothing_even_with_recorder_off() {
        with_flight_lock(|| {
            disable();
            instant("flight.none", &[]);
            let text = dump("empty");
            assert!(
                !text.contains("flight.none"),
                "event leaked into a disabled flight recorder: {text}"
            );
        });
    }

    #[test]
    fn validate_dump_rejects_garbage() {
        assert!(validate_dump("").is_err());
        assert!(validate_dump("not json\n").is_err());
        let good = format!(
            "{{\"blackbox\":\"{BLACKBOX_SCHEMA}\",\"reason\":\"x\",\"dumped_at_ns\":1,\
             \"threads\":0,\"retained_events\":0,\"total_events\":0}}\n"
        );
        assert_eq!(validate_dump(&good).unwrap_or(99), 0);
        let bad_tail = format!("{good}broken line\n");
        assert!(validate_dump(&bad_tail).is_err());
    }
}
