//! Chrome trace-event export and structural validation.
//!
//! [`trace_json`] drains every thread's event ring into the
//! `chrome://tracing` / Perfetto trace-event JSON format: duration
//! events (`ph: "B"`/`"E"`) keyed by `pid`/`tid`/`ts`, with the
//! sim-clock timestamp, charged modeled time and registered labels in
//! `args`. Because the rings overwrite their oldest events and spans
//! may still be open at export, the raw streams can contain orphan
//! boundaries; the exporter balance-filters each thread with a span
//! stack (an end without its begin is dropped, an unclosed begin is
//! dropped), so the emitted JSON is balanced by construction.
//!
//! [`validate_trace`] re-parses an exported trace with a dependency-
//! free JSON reader and re-checks the invariants from the outside —
//! shared by the `trace_check` CI binary and the structural proptests.

use crate::registry::{LABEL_KEYS, STAGES};
use crate::ring::{self, Event, Phase, NO_LABEL};

/// Keeps only events whose begin/end partner is also present,
/// preserving order. `events` must be one thread's stream in record
/// order; RAII guarantees LIFO nesting, so a stack suffices.
fn balance_filter(events: &[Event]) -> Vec<Event> {
    let mut keep = vec![false; events.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        match e.phase {
            Phase::Begin => stack.push(i),
            Phase::End => {
                // An end matches the innermost open begin of the same
                // stage; anything it would skip lost its own end to
                // ring overwrite and stays dropped.
                if let Some(pos) = stack.iter().rposition(|&b| events[b].stage == e.stage) {
                    keep[stack[pos]] = true;
                    keep[i] = true;
                    stack.truncate(pos);
                }
            }
        }
    }
    events
        .iter()
        .zip(keep)
        .filter_map(|(e, k)| k.then_some(*e))
        .collect()
}

fn push_event(out: &mut String, e: &Event, first: bool) {
    if !first {
        out.push_str(",\n");
    }
    let name = STAGES[e.stage as usize];
    let ph = match e.phase {
        Phase::Begin => "B",
        Phase::End => "E",
    };
    out.push_str(&format!(
        "    {{\"name\": \"{name}\", \"cat\": \"nymix\", \"ph\": \"{ph}\", \"pid\": 1, \
         \"tid\": {}, \"ts\": {}, \"args\": {{\"sim_us\": {}",
        e.tid, e.wall_us, e.sim_us
    ));
    if e.phase == Phase::End {
        out.push_str(&format!(", \"modeled_us\": {}", e.modeled_us));
    }
    for &(key, value) in &e.labels {
        if (key, value) == NO_LABEL {
            continue;
        }
        out.push_str(&format!(", \"{}\": {value}", LABEL_KEYS[key as usize]));
    }
    out.push_str("}}");
}

/// Exports every thread's recorded span events as Chrome trace-event
/// JSON. Events are balance-filtered per thread (see the module docs),
/// so the result always validates. Rings are left intact — exporting
/// is read-only.
#[must_use]
pub fn trace_json() -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("{\"traceEvents\": [\n");
    let mut first = true;
    for slab in ring::all_slabs() {
        let events = match slab.ring.lock() {
            Ok(r) => r.ordered(),
            Err(_) => continue,
        };
        for e in balance_filter(&events) {
            push_event(&mut out, &e, first);
            first = false;
        }
    }
    out.push_str("\n]}\n");
    out
}

// --- minimal JSON reader (cold path; validation only) ---------------

/// A parsed JSON value. Numbers are restricted to unsigned integers —
/// the only kind nymix traces and snapshots contain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer.
    Num(u64),
    /// String (escapes resolved).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, field order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'0'..=b'9') => self.number(),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad keyword at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut n: u64 = 0;
        while let Some(d @ b'0'..=b'9') = self.bytes.get(self.pos) {
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(d - b'0')))
                .ok_or_else(|| format!("number overflow at byte {start}"))?;
            self.pos += 1;
        }
        if matches!(self.bytes.get(self.pos), Some(b'.' | b'e' | b'E' | b'-')) {
            return Err(format!(
                "non-integer number at byte {start}: traces carry only unsigned integers"
            ));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                }
                Some(&b) if b < 0x80 => {
                    s.push(char::from(b));
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the full code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let c = rest.chars().next().ok_or("truncated string")?;
                    s.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("bad array at {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("bad object at {other:?}")),
            }
        }
    }
}

fn read_json(text: &str) -> Result<Json, String> {
    let mut r = Reader {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = r.value()?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(format!("trailing bytes after JSON at {}", r.pos));
    }
    Ok(v)
}

// --- structural validation ------------------------------------------

/// What [`validate_trace`] learned about a structurally valid trace.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Total events.
    pub events: usize,
    /// Distinct `tid`s.
    pub threads: usize,
    /// Completed (begin+end) spans.
    pub spans: usize,
    /// For each stage name seen, the sorted distinct `session` label
    /// values observed on its begin events (empty when unlabeled).
    pub stage_sessions: Vec<(String, Vec<u64>)>,
}

impl TraceSummary {
    /// Distinct `session` values recorded for `stage`.
    #[must_use]
    pub fn sessions_of(&self, stage: &str) -> &[u64] {
        self.stage_sessions
            .iter()
            .find(|(s, _)| s == stage)
            .map_or(&[], |(_, v)| v.as_slice())
    }
}

/// Parses a Chrome trace-event JSON document and checks the structural
/// invariants the exporter guarantees:
///
/// * top level is an object with a `traceEvents` array;
/// * every event has `name` (a registered stage), `ph` of `"B"`/`"E"`,
///   integer `pid`/`tid`/`ts`, and an `args` object carrying `sim_us`;
/// * end events carry `modeled_us`;
/// * label keys in `args` are registry-registered;
/// * per `tid`, timestamps are monotonically non-decreasing and
///   begin/end events balance with LIFO (same-stage) nesting.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = read_json(text)?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("missing traceEvents array".into());
    };
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    // Per-tid: (last ts, stack of open stage names).
    let mut threads: Vec<(u64, u64, Vec<String>)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        if !STAGES.contains(&name) {
            return Err(format!("event {i}: unregistered stage {name:?}"));
        }
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        e.get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = e
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let ts = e
            .get("ts")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let args = e
            .get("args")
            .ok_or_else(|| format!("event {i}: missing args"))?;
        args.get("sim_us")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: args.sim_us missing or not an integer"))?;
        if let Json::Obj(fields) = args {
            for (k, v) in fields {
                if k != "sim_us" && k != "modeled_us" && !LABEL_KEYS.contains(&k.as_str()) {
                    return Err(format!("event {i}: unregistered label key {k:?}"));
                }
                if v.as_u64().is_none() {
                    return Err(format!("event {i}: non-integer arg {k:?}"));
                }
            }
        } else {
            return Err(format!("event {i}: args is not an object"));
        }
        let slot = match threads.iter_mut().find(|(t, _, _)| *t == tid) {
            Some(s) => s,
            None => {
                threads.push((tid, 0, Vec::new()));
                threads.last_mut().expect("just pushed")
            }
        };
        if ts < slot.1 {
            return Err(format!(
                "event {i}: ts {ts} goes backwards on tid {tid} (last {})",
                slot.1
            ));
        }
        slot.1 = ts;
        match ph {
            "B" => slot.2.push(name.to_string()),
            "E" => {
                let open = slot
                    .2
                    .pop()
                    .ok_or_else(|| format!("event {i}: end with no open span on tid {tid}"))?;
                if open != name {
                    return Err(format!(
                        "event {i}: end of {name:?} but innermost open span is {open:?}"
                    ));
                }
                args.get("modeled_us")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {i}: end event missing args.modeled_us"))?;
                summary.spans += 1;
            }
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
        if ph == "B" {
            let session = args.get("session").and_then(Json::as_u64);
            if let Some(s) = session {
                match summary.stage_sessions.iter_mut().find(|(n, _)| n == name) {
                    Some((_, v)) => {
                        if !v.contains(&s) {
                            v.push(s);
                        }
                    }
                    None => summary.stage_sessions.push((name.to_string(), vec![s])),
                }
            } else if !summary.stage_sessions.iter().any(|(n, _)| n == name) {
                summary.stage_sessions.push((name.to_string(), Vec::new()));
            }
        }
    }
    for (tid, _, stack) in &threads {
        if !stack.is_empty() {
            return Err(format!(
                "tid {tid}: {} span(s) never closed: {stack:?}",
                stack.len()
            ));
        }
    }
    summary.threads = threads.len();
    for (_, v) in &mut summary.stage_sessions {
        v.sort_unstable();
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exported_trace_validates_round_trip() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let _ = crate::ring::take_thread_events();
        crate::sim_clock(100);
        {
            let _outer = crate::span!("capture", "session" => 4u64);
            crate::sim_clock(250);
            let mut inner = crate::span!("seal", "session" => 4u64, "bytes" => 512u64);
            inner.add_modeled_us(42);
        }
        let json = trace_json();
        crate::set_enabled(false);
        let summary = validate_trace(&json).expect("trace validates");
        assert!(summary.spans >= 2);
        assert!(summary.sessions_of("capture").contains(&4));
        assert!(summary.sessions_of("seal").contains(&4));
    }

    #[test]
    fn balance_filter_drops_orphans() {
        let mk = |phase, stage: u16| Event {
            phase,
            stage,
            tid: 1,
            wall_us: 0,
            sim_us: 0,
            modeled_us: 0,
            labels: [NO_LABEL, NO_LABEL],
        };
        // Orphan end (its begin was overwritten), a balanced pair, and
        // an unclosed begin.
        let events = vec![
            mk(Phase::End, 3),
            mk(Phase::Begin, 0),
            mk(Phase::End, 0),
            mk(Phase::Begin, 1),
        ];
        let kept = balance_filter(&events);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].stage, 0);
        assert_eq!(kept[1].stage, 0);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_trace("not json").is_err());
        assert!(validate_trace("{}").is_err());
        // Unbalanced: a bare end event.
        let bad = r#"{"traceEvents": [{"name": "seal", "cat": "nymix", "ph": "E",
            "pid": 1, "tid": 1, "ts": 5, "args": {"sim_us": 0, "modeled_us": 0}}]}"#;
        assert!(validate_trace(bad).unwrap_err().contains("no open span"));
        // Unregistered label key.
        let bad = r#"{"traceEvents": [{"name": "seal", "cat": "nymix", "ph": "B",
            "pid": 1, "tid": 1, "ts": 5, "args": {"sim_us": 0, "nym": 3}}]}"#;
        assert!(validate_trace(bad).unwrap_err().contains("nym"));
        // Backwards timestamps within a tid.
        let bad = r#"{"traceEvents": [
            {"name": "seal", "cat": "nymix", "ph": "B", "pid": 1, "tid": 1, "ts": 9,
             "args": {"sim_us": 0}},
            {"name": "seal", "cat": "nymix", "ph": "E", "pid": 1, "tid": 1, "ts": 3,
             "args": {"sim_us": 0, "modeled_us": 0}}]}"#;
        assert!(validate_trace(bad).unwrap_err().contains("backwards"));
    }

    #[test]
    fn json_reader_handles_nesting_and_escapes() {
        let v = read_json(r#"{"a": [1, {"b": "x\ny"}, true, null], "c": 18446744073709551615}"#)
            .expect("parses");
        assert_eq!(
            v.get("a").and_then(|a| match a {
                Json::Arr(items) => items[1].get("b").and_then(Json::as_str),
                _ => None,
            }),
            Some("x\ny")
        );
        assert_eq!(v.get("c").and_then(Json::as_u64), Some(u64::MAX));
        assert!(read_json("[1,]").is_err());
        assert!(read_json("1.5").is_err());
    }
}
