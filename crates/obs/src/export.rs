//! Trace export: JSONL, Chrome trace-event JSON, and nesting validation.
//!
//! `fedroad-obs` is dependency-free by design (it sits below every other
//! crate), so it carries its own minimal JSON writer. Event names come
//! from `&'static str` literals and arg values from [`ObsValue`], so the
//! escaping here is defensive, not load-bearing for secrecy.

use crate::recorder::{EventKind, ObsValue, TraceEvent};
use std::fmt::Write as _;

/// Escapes a string for inclusion inside JSON quotes: quotes and
/// backslashes get a backslash, newline, carriage return and tab their
/// short escapes, and every other control character a `\u00XX` escape.
/// Every JSON writer in the workspace escapes through this function.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn args_json(args: &[(&'static str, ObsValue)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match v {
            ObsValue::Flag(b) => {
                let _ = write!(out, "\"{}\":{}", escape_json(k), b);
            }
            other => {
                let _ = write!(out, "\"{}\":{}", escape_json(k), other.as_u64());
            }
        }
    }
    out.push('}');
    out
}

fn phase_letter(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Instant => "i",
    }
}

/// One JSON object per line, one line per event — the streaming-friendly
/// archival format (`results/trace_*.jsonl`).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let _ = writeln!(
            out,
            "{{\"ts_ns\":{},\"tid\":{},\"ph\":\"{}\",\"name\":\"{}\",\"args\":{}}}",
            e.ts_ns,
            e.tid,
            phase_letter(e.kind),
            escape_json(e.name),
            args_json(&e.args),
        );
    }
    out
}

/// The Chrome trace-event format (JSON object with a `traceEvents` array),
/// loadable in Perfetto or `chrome://tracing`. Timestamps are microseconds
/// with nanosecond precision preserved in the fraction.
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let scope = match e.kind {
            EventKind::Instant => ",\"s\":\"t\"",
            _ => "",
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"fedroad\",\"ph\":\"{}\",\"ts\":{}.{:03},\
             \"pid\":0,\"tid\":{}{},\"args\":{}}}",
            escape_json(e.name),
            phase_letter(e.kind),
            e.ts_ns / 1_000,
            e.ts_ns % 1_000,
            e.tid,
            scope,
            args_json(&e.args),
        );
    }
    out.push_str("]}");
    out
}

/// Checks that span Begin/End events are strictly nested per thread (the
/// invariant Chrome's trace viewer requires): every End matches the most
/// recent open Begin of its thread, and no span stays open at the end.
pub fn validate_nesting(events: &[TraceEvent]) -> Result<(), String> {
    let mut stacks: std::collections::HashMap<u64, Vec<&'static str>> =
        std::collections::HashMap::new();
    for e in events {
        let stack = stacks.entry(e.tid).or_default();
        match e.kind {
            EventKind::Begin => stack.push(e.name),
            EventKind::End => match stack.pop() {
                Some(open) if open == e.name => {}
                Some(open) => {
                    return Err(format!(
                        "span `{}` closed while `{open}` was innermost (tid {})",
                        e.name, e.tid
                    ));
                }
                None => {
                    return Err(format!(
                        "span `{}` closed with no span open (tid {})",
                        e.name, e.tid
                    ));
                }
            },
            EventKind::Instant => {}
        }
    }
    for (tid, stack) in stacks {
        if let Some(open) = stack.last() {
            return Err(format!("span `{open}` never closed (tid {tid})"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ns: u64, tid: u64, kind: EventKind, name: &'static str) -> TraceEvent {
        TraceEvent {
            ts_ns,
            tid,
            kind,
            name,
            args: vec![],
        }
    }

    #[test]
    fn jsonl_has_one_object_per_line() {
        let events = vec![
            TraceEvent {
                ts_ns: 1500,
                tid: 1,
                kind: EventKind::Begin,
                name: "phase.core_astar",
                args: vec![("k", ObsValue::Count(3)), ("ok", ObsValue::Flag(true))],
            },
            ev(2500, 1, EventKind::End, "phase.core_astar"),
        ];
        let jsonl = to_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"ts_ns\":1500,\"tid\":1,\"ph\":\"B\",\"name\":\"phase.core_astar\",\
             \"args\":{\"k\":3,\"ok\":true}}"
        );
    }

    #[test]
    fn chrome_timestamps_are_microseconds_with_fraction() {
        let events = vec![ev(1_234_567, 2, EventKind::Instant, "tick")];
        let chrome = to_chrome_json(&events);
        assert!(chrome.contains("\"ts\":1234.567"), "{chrome}");
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"s\":\"t\""));
        assert!(chrome.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(chrome.ends_with("]}"));
    }

    #[test]
    fn nesting_validator_accepts_proper_traces() {
        let events = vec![
            ev(1, 1, EventKind::Begin, "a"),
            ev(2, 2, EventKind::Begin, "other-thread"),
            ev(3, 1, EventKind::Begin, "b"),
            ev(4, 1, EventKind::End, "b"),
            ev(5, 2, EventKind::End, "other-thread"),
            ev(6, 1, EventKind::End, "a"),
        ];
        assert!(validate_nesting(&events).is_ok());
    }

    #[test]
    fn nesting_validator_rejects_interleaved_and_dangling_spans() {
        let interleaved = vec![
            ev(1, 1, EventKind::Begin, "a"),
            ev(2, 1, EventKind::Begin, "b"),
            ev(3, 1, EventKind::End, "a"),
        ];
        assert!(validate_nesting(&interleaved).is_err());
        let dangling = vec![ev(1, 1, EventKind::Begin, "a")];
        assert!(validate_nesting(&dangling).is_err());
        let orphan_end = vec![ev(1, 1, EventKind::End, "a")];
        assert!(validate_nesting(&orphan_end).is_err());
    }

    #[test]
    fn escaping_is_defensive() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
