//! Trace exporters: the stable `suod-trace/1` JSON schema and the Chrome
//! `trace_event` format.
//!
//! [`to_json`] / [`from_json`] round-trip losslessly — the system tests
//! and the `suod-cli trace` subcommand validate every export by parsing
//! it back and comparing [`Trace`] equality. [`to_chrome_trace`] produces
//! a JSON object loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>: spans become complete (`ph:"X"`) events with
//! worker ids as `tid`s and counters become `ph:"C"` counter tracks.

use crate::json::{self, write_escaped, Value};
use crate::recording::{HistogramRecord, SpanRecord, Trace, HISTOGRAM_BUCKETS};
use crate::{Counter, Stage};
use std::fmt::Write as _;

/// Identifier embedded in every export of the current schema.
pub const SCHEMA: &str = "suod-trace/1";

fn write_opt_usize(out: &mut String, v: Option<usize>) {
    match v {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
}

/// Serializes `trace` to the stable `suod-trace/1` JSON schema.
///
/// Layout: `{"schema", "spans": [...], "counters": [...],
/// "histograms": [...]}` with spans in trace order, counters in
/// [`crate::COUNTERS`] order (each carrying its `deterministic` flag),
/// and per-stage latency histograms.
pub fn to_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(256 + trace.spans().len() * 96);
    out.push_str("{\n  \"schema\": ");
    write_escaped(&mut out, SCHEMA);
    out.push_str(",\n  \"spans\": [");
    for (i, s) in trace.spans().iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(out, "    {{\"id\": {}, \"stage\": ", s.id);
        write_escaped(&mut out, s.stage.name());
        out.push_str(", \"model\": ");
        write_opt_usize(&mut out, s.model);
        out.push_str(", \"task\": ");
        write_opt_usize(&mut out, s.task);
        out.push_str(", \"worker\": ");
        write_opt_usize(&mut out, s.worker);
        let _ = write!(
            out,
            ", \"start_us\": {}, \"dur_us\": {}}}",
            s.start_us, s.dur_us
        );
    }
    out.push_str("\n  ],\n  \"counters\": [");
    let mut first = true;
    for (c, v) in trace.counters() {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str("    {\"name\": ");
        write_escaped(&mut out, c.name());
        let _ = write!(
            out,
            ", \"value\": {v}, \"deterministic\": {}}}",
            c.is_deterministic()
        );
    }
    out.push_str("\n  ],\n  \"histograms\": [");
    for (i, h) in trace.histograms().iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"stage\": ");
        write_escaped(&mut out, h.stage.name());
        let _ = write!(
            out,
            ", \"count\": {}, \"total_us\": {}, \"buckets\": [",
            h.count, h.total_us
        );
        for (j, b) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// An export validation failure (parse error or schema violation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace schema error: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

fn field<'a>(v: &'a Value, ctx: &str, key: &str) -> Result<&'a Value, SchemaError> {
    v.get(key)
        .ok_or_else(|| SchemaError(format!("{ctx}: missing field \"{key}\"")))
}

fn u64_field(v: &Value, ctx: &str, key: &str) -> Result<u64, SchemaError> {
    field(v, ctx, key)?
        .as_u64()
        .ok_or_else(|| SchemaError(format!("{ctx}: \"{key}\" must be a non-negative integer")))
}

fn opt_usize_field(v: &Value, ctx: &str, key: &str) -> Result<Option<usize>, SchemaError> {
    match field(v, ctx, key)? {
        Value::Null => Ok(None),
        other => other
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or_else(|| SchemaError(format!("{ctx}: \"{key}\" must be null or an integer"))),
    }
}

/// Parses a `suod-trace/1` JSON document back into a [`Trace`],
/// validating the schema along the way. `to_json` → `from_json` is
/// lossless: the result compares equal to the original trace.
pub fn from_json(input: &str) -> Result<Trace, SchemaError> {
    let doc = json::parse(input).map_err(|e| SchemaError(e.to_string()))?;
    let schema = field(&doc, "document", "schema")?
        .as_str()
        .ok_or_else(|| SchemaError("document: \"schema\" must be a string".into()))?;
    if schema != SCHEMA {
        return Err(SchemaError(format!(
            "unsupported schema \"{schema}\" (expected \"{SCHEMA}\")"
        )));
    }

    let mut spans = Vec::new();
    for (i, s) in field(&doc, "document", "spans")?
        .as_array()
        .ok_or_else(|| SchemaError("document: \"spans\" must be an array".into()))?
        .iter()
        .enumerate()
    {
        let ctx = format!("spans[{i}]");
        let stage_name = field(s, &ctx, "stage")?
            .as_str()
            .ok_or_else(|| SchemaError(format!("{ctx}: \"stage\" must be a string")))?;
        let stage = Stage::from_name(stage_name)
            .ok_or_else(|| SchemaError(format!("{ctx}: unknown stage \"{stage_name}\"")))?;
        spans.push(SpanRecord {
            id: u64_field(s, &ctx, "id")?,
            stage,
            model: opt_usize_field(s, &ctx, "model")?,
            task: opt_usize_field(s, &ctx, "task")?,
            worker: opt_usize_field(s, &ctx, "worker")?,
            start_us: u64_field(s, &ctx, "start_us")?,
            dur_us: u64_field(s, &ctx, "dur_us")?,
        });
    }

    let mut counters = vec![0u64; crate::COUNTERS.len()];
    for (i, c) in field(&doc, "document", "counters")?
        .as_array()
        .ok_or_else(|| SchemaError("document: \"counters\" must be an array".into()))?
        .iter()
        .enumerate()
    {
        let ctx = format!("counters[{i}]");
        let name = field(c, &ctx, "name")?
            .as_str()
            .ok_or_else(|| SchemaError(format!("{ctx}: \"name\" must be a string")))?;
        let counter = Counter::from_name(name)
            .ok_or_else(|| SchemaError(format!("{ctx}: unknown counter \"{name}\"")))?;
        let det = field(c, &ctx, "deterministic")?
            .as_bool()
            .ok_or_else(|| SchemaError(format!("{ctx}: \"deterministic\" must be a bool")))?;
        if det != counter.is_deterministic() {
            return Err(SchemaError(format!(
                "{ctx}: \"deterministic\" flag disagrees with counter \"{name}\""
            )));
        }
        let idx = crate::COUNTERS.iter().position(|&k| k == counter).unwrap();
        counters[idx] = u64_field(c, &ctx, "value")?;
    }

    let mut histograms = Vec::new();
    for (i, h) in field(&doc, "document", "histograms")?
        .as_array()
        .ok_or_else(|| SchemaError("document: \"histograms\" must be an array".into()))?
        .iter()
        .enumerate()
    {
        let ctx = format!("histograms[{i}]");
        let stage_name = field(h, &ctx, "stage")?
            .as_str()
            .ok_or_else(|| SchemaError(format!("{ctx}: \"stage\" must be a string")))?;
        let stage = Stage::from_name(stage_name)
            .ok_or_else(|| SchemaError(format!("{ctx}: unknown stage \"{stage_name}\"")))?;
        let buckets_val = field(h, &ctx, "buckets")?
            .as_array()
            .ok_or_else(|| SchemaError(format!("{ctx}: \"buckets\" must be an array")))?;
        if buckets_val.len() != HISTOGRAM_BUCKETS {
            return Err(SchemaError(format!(
                "{ctx}: expected {HISTOGRAM_BUCKETS} buckets, got {}",
                buckets_val.len()
            )));
        }
        let mut buckets = Vec::with_capacity(HISTOGRAM_BUCKETS);
        for (j, b) in buckets_val.iter().enumerate() {
            buckets.push(b.as_u64().ok_or_else(|| {
                SchemaError(format!(
                    "{ctx}: buckets[{j}] must be a non-negative integer"
                ))
            })?);
        }
        let count = u64_field(h, &ctx, "count")?;
        if buckets.iter().sum::<u64>() != count {
            return Err(SchemaError(format!(
                "{ctx}: bucket sum disagrees with \"count\""
            )));
        }
        histograms.push(HistogramRecord {
            stage,
            buckets,
            count,
            total_us: u64_field(h, &ctx, "total_us")?,
        });
    }

    Ok(Trace::from_parts(spans, counters, histograms))
}

/// Serializes `trace` to the Chrome `trace_event` JSON format.
///
/// Spans become complete events (`ph:"X"`, `ts`/`dur` in µs) with the
/// worker id as `tid` (spans without a worker go to tid 0); model/task
/// attribution lands in `args`. Counters become `ph:"C"` counter tracks.
/// Load the output in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn to_chrome_trace(trace: &Trace) -> String {
    let mut out = String::with_capacity(256 + trace.spans().len() * 128);
    out.push_str("{\"traceEvents\": [");
    let mut first = true;
    for s in trace.spans() {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str("  {\"name\": ");
        write_escaped(&mut out, s.stage.name());
        let _ = write!(
            out,
            ", \"cat\": \"suod\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}",
            s.start_us,
            s.dur_us,
            s.worker.map_or(0, |w| w + 1)
        );
        let _ = write!(out, ", \"args\": {{\"id\": {}", s.id);
        if let Some(m) = s.model {
            let _ = write!(out, ", \"model\": {m}");
        }
        if let Some(t) = s.task {
            let _ = write!(out, ", \"task\": {t}");
        }
        out.push_str("}}");
    }
    let end_ts = trace
        .spans()
        .iter()
        .map(|s| s.start_us + s.dur_us)
        .max()
        .unwrap_or(0);
    for (c, v) in trace.counters() {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str("  {\"name\": ");
        write_escaped(&mut out, c.name());
        let _ = write!(
            out,
            ", \"cat\": \"suod\", \"ph\": \"C\", \"ts\": {end_ts}, \"pid\": 1, \"args\": {{\"value\": {v}}}}}"
        );
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Observer, RecordingObserver, SpanAttrs};

    fn sample_trace() -> Trace {
        let rec = RecordingObserver::new();
        let fit = rec.span_begin(Stage::Fit, SpanAttrs::none());
        let m0 = rec.span_begin(
            Stage::ModelFit,
            SpanAttrs::model(0).with_task(0).on_worker(2),
        );
        rec.counter(Counter::CacheMiss, 1);
        rec.span_end(m0);
        let m1 = rec.span_begin(Stage::ModelFit, SpanAttrs::model(1).with_task(1));
        rec.counter(Counter::CacheHit, 1);
        rec.counter(Counter::Steal, 3);
        rec.span_end(m1);
        rec.span_end(fit);
        rec.trace()
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let trace = sample_trace();
        let exported = to_json(&trace);
        let parsed = from_json(&exported).expect("export must satisfy its own schema");
        assert_eq!(parsed, trace);
        // And re-export is byte-stable.
        assert_eq!(to_json(&parsed), exported);
    }

    #[test]
    fn from_json_rejects_schema_violations() {
        assert!(from_json("not json").is_err());
        assert!(from_json("{}").is_err());
        let wrong_schema =
            r#"{"schema": "suod-trace/99", "spans": [], "counters": [], "histograms": []}"#;
        assert!(from_json(wrong_schema)
            .unwrap_err()
            .0
            .contains("unsupported schema"));
        let bad_stage = r#"{"schema": "suod-trace/1", "spans": [
            {"id": 1, "stage": "bogus", "model": null, "task": null, "worker": null, "start_us": 0, "dur_us": 0}
        ], "counters": [], "histograms": []}"#;
        assert!(from_json(bad_stage)
            .unwrap_err()
            .0
            .contains("unknown stage"));
        let bad_flag = r#"{"schema": "suod-trace/1", "spans": [], "counters": [
            {"name": "steal", "value": 1, "deterministic": true}
        ], "histograms": []}"#;
        assert!(from_json(bad_flag).unwrap_err().0.contains("disagrees"));
    }

    #[test]
    fn retired_mixed_kernel_counter_is_a_schema_error() {
        // Traces from builds that still had the mixed-precision kernel
        // carry a `mixed_kernel` counter; it is refused by name rather
        // than dropped, so no trace silently loses a column.
        let old = r#"{"schema": "suod-trace/1", "spans": [], "counters": [
            {"name": "mixed_kernel", "value": 3, "deterministic": true}
        ], "histograms": []}"#;
        let err = from_json(old).unwrap_err().0;
        assert!(err.contains("unknown counter \"mixed_kernel\""), "{err}");
        assert!(crate::COUNTERS.iter().all(|c| c.name() != "mixed_kernel"));
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = RecordingObserver::new().trace();
        assert_eq!(from_json(&to_json(&trace)).unwrap(), trace);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_events() {
        let trace = sample_trace();
        let chrome = to_chrome_trace(&trace);
        let doc = crate::json::parse(&chrome).expect("chrome export must be valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        // 3 spans + one counter track per counter.
        assert_eq!(events.len(), 3 + crate::COUNTERS.len());
        let span_events: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(span_events.len(), 3);
        assert_eq!(
            span_events[0].get("name").and_then(Value::as_str),
            Some("fit")
        );
        // Worker 2 lands on tid 3 (tid 0 is reserved for unattributed spans).
        assert!(span_events
            .iter()
            .any(|e| e.get("tid").and_then(Value::as_u64) == Some(3)));
        let counter_events: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
            .collect();
        assert_eq!(counter_events.len(), crate::COUNTERS.len());
    }
}
