//! Bench-side spans: the traced run wraps each call into a layer's public
//! function in a span recorded here, from outside the program. Spans stay
//! in memory and are written as a Chrome trace when the run ends, together
//! with the spans the program itself reported to a `RecordingObserver`.

use std::fmt::Write as _;
use std::time::Instant;

use suod_observe::json::write_escaped;
use suod_observe::Trace;

struct Span {
    name: String,
    start_us: u64,
    end_us: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
}

/// Handle of an open span.
pub struct Open(Option<usize>);

pub struct Spans {
    enabled: bool,
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A disabled recorder costs one branch per span and records nothing,
    /// so the untraced run measures the program and not the tracing.
    pub fn new(workload: &'static str, enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Microseconds since this recorder was made: the trace's clock.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Opens a span whose parent is the innermost span still open.
    pub fn begin(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes `open`, and any span opened inside it and left open.
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let now = self.now_us();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_us = now;
            if top == index {
                break;
            }
        }
    }

    /// Chrome `trace_event` JSON: bench-side spans as process 1, the first
    /// `max_program` of the program's own spans (offset to the same clock)
    /// as process 2.
    pub fn to_chrome_trace(&self, program: Option<(&Trace, u64)>, max_program: usize) -> String {
        let mut out = String::from("{\"traceEvents\": [");
        let mut first = true;
        let mut event =
            |out: &mut String, name: &str, ts: u64, dur: u64, pid: u32, tid: usize, args: &str| {
                out.push_str(if first { "\n  " } else { ",\n  " });
                first = false;
                out.push_str("{\"name\": ");
                write_escaped(out, name);
                let _ = write!(
                    out,
                    ", \"cat\": \"suod-e2e\", \"ph\": \"X\", \"ts\": {ts}, \"dur\": {dur}, \
                 \"pid\": {pid}, \"tid\": {tid}, \"args\": {{{args}}}}}"
                );
            };
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = format!("\"id\": {i}, \"workload\": ");
            write_escaped(&mut args, self.workload);
            if let Some(p) = s.parent {
                let _ = write!(args, ", \"parent\": {p}");
            }
            event(
                &mut out,
                &s.name,
                s.start_us,
                s.end_us - s.start_us,
                1,
                0,
                &args,
            );
        }
        if let Some((trace, offset_us)) = program {
            for s in trace.spans().iter().take(max_program) {
                let mut args = format!("\"id\": {}", s.id);
                if let Some(m) = s.model {
                    let _ = write!(args, ", \"model\": {m}");
                }
                event(
                    &mut out,
                    s.stage.name(),
                    s.start_us + offset_us,
                    s.dur_us,
                    2,
                    s.worker.map_or(0, |w| w + 1),
                    &args,
                );
            }
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut spans = Spans::new("w", true);
        let outer = spans.begin("outer");
        let inner = spans.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(3));
        spans.end(inner);
        spans.end(outer);
        let s = &spans.spans;
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert!(s[1].end_us - s[1].start_us >= 3000);
        assert!(s[0].start_us <= s[1].start_us && s[1].end_us <= s[0].end_us);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new("w", false);
        let open = spans.begin("x");
        spans.end(open);
        assert!(spans.spans.is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_parent_and_workload() {
        let mut spans = Spans::new("serve-small", true);
        let a = spans.begin("a \"quoted\"");
        let b = spans.begin("b");
        spans.end(b);
        spans.end(a);
        let json = suod_observe::json::parse(&spans.to_chrome_trace(None, 0)).expect("valid JSON");
        let events = json.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(
            args.get("workload").and_then(|w| w.as_str()),
            Some("serve-small")
        );
    }
}
