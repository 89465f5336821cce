//! Session flight recorder: bounded event history + typed postmortems.
//!
//! The flight recorder is a per-session [`RingRecorder`]: the last
//! `capacity` events of the session, memory bounded no matter how hostile
//! the session (pinned by `bounded_under_event_storm`). When the session
//! ends degraded, quarantined, or errored, the driver calls
//! [`Postmortem::from_ring`] to freeze the ring into a [`Postmortem`] — a
//! self-contained, schema-tagged artifact that travels on `SessionReport`
//! and renders to a single JSON object (`pm.postmortem.v1`) for offline
//! triage.
//!
//! Tee the ring next to the session's normal recorder with
//! [`crate::Obs::tee`] so the machines' own emissions land in it without
//! any extra plumbing at the call sites.

use serde::Value;

use crate::check::validate_event;
use crate::event::Event;
use crate::recorder::RingRecorder;

/// Schema tag stamped into every rendered postmortem.
pub const POSTMORTEM_SCHEMA: &str = "pm.postmortem.v1";

/// A frozen flight-recorder dump for one degraded/errored session.
///
/// Carried on `SessionReport` so callers get the artifact with the
/// result, and rendered to JSON (`pm.postmortem.v1`) for files and logs.
#[derive(Debug, Clone, PartialEq)]
pub struct Postmortem {
    /// Session id, when any recorded event (or the caller) named one.
    pub session: Option<u32>,
    /// Driver role (`"sender"` / `"receiver"`).
    pub role: String,
    /// Terminal outcome label (`"degraded"`, `"quarantined"`,
    /// `"stalled"`, an error string, ...).
    pub outcome: String,
    /// Events that fell off the ring before the dump.
    pub evicted_events: u64,
    /// The retained tail of the event stream, oldest first.
    pub events: Vec<(f64, Event)>,
}

impl Postmortem {
    /// Freeze a session's ring into a postmortem.
    ///
    /// `session` overrides the attribution; when `None` the id is derived
    /// from the first retained event that carries one (mux slots pass
    /// their token explicitly, other drivers let the trace speak).
    pub fn from_ring(ring: &RingRecorder, role: &str, outcome: &str, session: Option<u32>) -> Self {
        let events = ring.events();
        Postmortem {
            session: session.or_else(|| events.iter().find_map(|(_, e)| e.session())),
            role: role.to_string(),
            outcome: outcome.to_string(),
            evicted_events: ring.evicted(),
            events,
        }
    }

    /// Render the full artifact as one JSON object.
    pub fn to_json(&self) -> Value {
        let mut m = vec![
            ("schema".into(), Value::String(POSTMORTEM_SCHEMA.into())),
            ("role".into(), Value::String(self.role.clone())),
            ("outcome".into(), Value::String(self.outcome.clone())),
            (
                "evicted_events".into(),
                Value::Number(self.evicted_events as f64),
            ),
        ];
        if let Some(s) = self.session {
            m.push(("session".into(), Value::Number(f64::from(s))));
        }
        m.push((
            "events".into(),
            Value::Array(self.events.iter().map(|(t, e)| e.to_json(*t)).collect()),
        ));
        Value::Object(m)
    }

    /// Render as a single JSON line.
    pub fn to_string_json(&self) -> String {
        serde_json::to_string(&self.to_json()).expect("postmortem renders")
    }

    /// Validate a rendered postmortem against the `pm.postmortem.v1`
    /// schema: required keys, right types, every event a valid trace
    /// line by [`validate_event`].
    pub fn validate(value: &Value) -> Result<(), String> {
        let obj = match value {
            Value::Object(m) => m,
            _ => return Err("postmortem must be a JSON object".into()),
        };
        let get = |key: &str| obj.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        match get("schema") {
            Some(Value::String(s)) if s == POSTMORTEM_SCHEMA => {}
            Some(Value::String(s)) => return Err(format!("unknown schema {s:?}")),
            _ => return Err("missing schema tag".into()),
        }
        for key in ["role", "outcome"] {
            match get(key) {
                Some(Value::String(s)) if !s.is_empty() => {}
                _ => return Err(format!("missing or empty {key:?}")),
            }
        }
        match get("evicted_events") {
            Some(Value::Number(n)) if *n >= 0.0 => {}
            _ => return Err("missing evicted_events".into()),
        }
        let events = match get("events") {
            Some(Value::Array(evs)) => evs,
            _ => return Err("missing events array".into()),
        };
        for (i, ev) in events.iter().enumerate() {
            validate_event(ev).map_err(|e| format!("event {i}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn data_sent(session: u32, index: u16) -> Event {
        Event::DataSent {
            session,
            group: 0,
            index,
        }
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let fr = RingRecorder::new(4);
        for i in 0..10u16 {
            fr.record(i as f64, &data_sent(1, i));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.evicted(), 6);
        let pm = Postmortem::from_ring(&fr, "sender", "degraded", None);
        assert_eq!(pm.events.len(), 4);
        assert_eq!(pm.events[0].1, data_sent(1, 6));
        assert_eq!(pm.events[3].1, data_sent(1, 9));
    }

    #[test]
    fn bounded_under_event_storm() {
        // A hostile session emitting 10^5 events must not grow the ring
        // past its capacity.
        let fr = RingRecorder::new(256);
        for i in 0..100_000u32 {
            fr.record(i as f64 * 1e-4, &data_sent(7, (i % 1000) as u16));
        }
        assert_eq!(fr.len(), 256);
        assert_eq!(fr.evicted(), 100_000 - 256);
        let pm = Postmortem::from_ring(&fr, "receiver", "stalled", None);
        assert_eq!(pm.events.len(), 256);
        assert_eq!(pm.evicted_events, 100_000 - 256);
    }

    #[test]
    fn postmortem_derives_session_from_events() {
        let fr = RingRecorder::new(8);
        fr.record(0.0, &Event::CorruptDropped { total: 1 }); // unattributed
        fr.record(0.1, &data_sent(42, 0));
        let pm = Postmortem::from_ring(&fr, "sender", "degraded", None);
        assert_eq!(pm.session, Some(42));
        // Explicit override wins.
        let pm2 = Postmortem::from_ring(&fr, "sender", "degraded", Some(7));
        assert_eq!(pm2.session, Some(7));
    }

    #[test]
    fn rendered_postmortem_validates() {
        let fr = RingRecorder::new(8);
        for i in 0..12u16 {
            fr.record(i as f64 * 0.5, &data_sent(3, i));
        }
        let line = Postmortem::from_ring(&fr, "sender", "degraded", None).to_string_json();
        let back = serde_json::from_str(&line).unwrap();
        Postmortem::validate(&back).unwrap();
    }

    #[test]
    fn validate_holds_events_to_the_trace_line_check() {
        // One line validator: what `validate_trace` rejects in a trace, a
        // postmortem's `events` array may not carry either.
        let fr = RingRecorder::new(4);
        fr.record(0.5, &data_sent(3, 0));
        let line = Postmortem::from_ring(&fr, "sender", "degraded", None).to_string_json();
        assert!(line.contains("\"t\":0.5"), "{line}");
        let negative = serde_json::from_str(&line.replace("\"t\":0.5", "\"t\":-1.0")).unwrap();
        let err = Postmortem::validate(&negative).unwrap_err();
        assert!(
            err.contains("event 0") && err.contains("non-negative"),
            "{err}"
        );
    }

    #[test]
    fn validate_rejects_malformed() {
        assert!(Postmortem::validate(&Value::Null).is_err());
        // Wrong schema tag.
        let bad = Value::Object(vec![(
            "schema".into(),
            Value::String("pm.postmortem.v0".into()),
        )]);
        assert!(Postmortem::validate(&bad).is_err());
        // Event with unknown type.
        let bad_ev = Value::Object(vec![
            ("schema".into(), Value::String(POSTMORTEM_SCHEMA.into())),
            ("role".into(), Value::String("sender".into())),
            ("outcome".into(), Value::String("degraded".into())),
            ("evicted_events".into(), Value::Number(0.0)),
            (
                "events".into(),
                Value::Array(vec![Value::Object(vec![
                    ("t".into(), Value::Number(0.0)),
                    ("type".into(), Value::String("not_an_event".into())),
                ])]),
            ),
        ]);
        assert!(Postmortem::validate(&bad_ev).is_err());
    }
}
