//! Trace validation — the library behind the `obs-check` binary.
//!
//! [`validate_event`] is the one per-line check: a JSON object carrying a
//! finite, non-negative numeric `"t"` and a `"type"` drawn from
//! [`crate::event::EVENT_NAMES`]. [`validate_trace`] applies it to every
//! line of a JSONL trace and [`crate::Postmortem::validate`] to every
//! element of a postmortem's `events` array. Hostile input — malformed
//! JSON, truncated final lines, unknown event names, empty files —
//! produces a line-numbered [`TraceError`], never a panic.

use std::collections::BTreeMap;
use std::fmt;

use serde::Value;

use crate::event::EVENT_NAMES;

/// Per-event-type line counts of a valid trace.
pub type Census = BTreeMap<String, u64>;

/// Why a trace failed validation. Carries the 1-based line number where
/// applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The trace has no non-blank lines.
    Empty,
    /// A line did not parse as JSON (also the shape a truncated final
    /// line takes).
    BadJson {
        /// 1-based line number.
        line: usize,
        /// Parser diagnostic.
        detail: String,
    },
    /// A line is valid JSON but fails [`validate_event`]: a required field
    /// is missing or has the wrong type, or `type` names an event outside
    /// the vocabulary.
    BadField {
        /// 1-based line number.
        line: usize,
        /// What is wrong.
        detail: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace is empty"),
            TraceError::BadJson { line, detail } => {
                write!(f, "line {line}: not valid JSON: {detail}")
            }
            TraceError::BadField { line, detail } => write!(f, "line {line}: {detail}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Validate one trace event — a parsed JSONL line, or one element of a
/// postmortem's `events` array — and return its `type` name.
///
/// # Errors
/// A description of the first thing wrong with it.
pub fn validate_event(v: &Value) -> Result<&str, String> {
    let t = v.get("t").ok_or("missing \"t\" field")?;
    let t = t.as_f64().ok_or("\"t\" is not a number")?;
    if !t.is_finite() || t < 0.0 {
        return Err(format!("\"t\" = {t} is not a finite non-negative time"));
    }
    let ty = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or("missing string \"type\" field")?;
    if !EVENT_NAMES.contains(&ty) {
        return Err(format!(
            "unknown event type {ty:?} (not in the {}-name vocabulary)",
            EVENT_NAMES.len()
        ));
    }
    Ok(ty)
}

/// Validate the text of a JSONL trace.
///
/// # Errors
/// The first [`TraceError`] encountered, with its line number.
pub fn validate_trace(text: &str) -> Result<Census, TraceError> {
    let mut census: Census = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = i + 1;
        let v = serde_json::from_str(line).map_err(|e| TraceError::BadJson {
            line: lineno,
            detail: format!("{e:?}"),
        })?;
        let ty = validate_event(&v).map_err(|detail| TraceError::BadField {
            line: lineno,
            detail,
        })?;
        *census.entry(ty.to_string()).or_insert(0) += 1;
    }
    if census.is_empty() {
        return Err(TraceError::Empty);
    }
    Ok(census)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_trace_produces_census() {
        let text = "{\"t\": 0.0, \"type\": \"data_sent\"}\n\n{\"t\": 1.5, \"type\": \"data_sent\"}\n{\"t\": 2.0, \"type\": \"fin_sent\"}\n";
        let census = validate_trace(text).unwrap();
        assert_eq!(census["data_sent"], 2);
        assert_eq!(census["fin_sent"], 1);
    }

    #[test]
    fn empty_trace_is_an_error() {
        assert_eq!(validate_trace(""), Err(TraceError::Empty));
        assert_eq!(validate_trace("\n  \n"), Err(TraceError::Empty));
    }
}
