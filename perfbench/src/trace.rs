//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Disabled, a span costs one branch; enabled, it costs two clock
//! reads and a push. Spans are written out once, when the run ends.

use crate::catalogue::json_str;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Run or request id the span belongs to.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; one per run, single-threaded.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a no-op wrapper when disabled).
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, id, parent, start_ns, end_ns: start_ns });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Per span name: `(count, total ns, self ns)`. Self time is a span's
    /// duration minus the part its child spans cover; children of one
    /// single-threaded parent never overlap, so that part is their sum.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += span.duration_ns().saturating_sub(children);
        }
        out
    }

    /// Mean cost of recording one span on this machine, in nanoseconds.
    pub fn calibrate_span_ns() -> f64 {
        const SPANS: u64 = 20_000;
        let mut probe = Tracer::new(true);
        probe.spans.reserve(SPANS as usize);
        let start = Instant::now();
        for i in 0..SPANS {
            probe.span("calibrate", i, |_| ());
        }
        start.elapsed().as_nanos() as f64 / SPANS as f64
    }

    /// The spans and their self-time summary as JSON, under `header`.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(128 * self.spans.len() + header.len() + 256);
        out.push_str("{\n  \"provenance\": ");
        out.push_str(header);
        out.push_str(",\n  \"self_time\": {");
        let summary: Vec<String> = self
            .self_times()
            .into_iter()
            .map(|(name, (count, total, own))| {
                format!(
                    "\n    {}: {{\"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}",
                    json_str(name)
                )
            })
            .collect();
        out.push_str(&summary.join(","));
        out.push_str("\n  },\n  \"spans\": [");
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "\n    {{\"name\": {}, \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \
                     \"end_ns\": {}}}",
                    json_str(s.name),
                    s.id,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        out.push_str(&spans.join(","));
        out.push_str("\n  ]\n}\n");
        out
    }
}
