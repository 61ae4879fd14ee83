//! Span recorder of the traced run. Spans are recorded by the benchmark
//! around its calls into each layer (nothing is added inside `crates/`),
//! kept in memory, and written once as a Chrome trace when the run ends.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    /// The span that caused this one; `None` for an op's root span.
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub strategy: String,
    /// Durations and counts measured inside the span that are not spans
    /// themselves (the engine's `op_timings` buckets, the unattributed rest).
    pub args: Vec<(String, f64)>,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    workload: String,
    strategy: String,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            workload: workload.to_string(),
            strategy: String::new(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans opened from now on belong to `strategy`'s op.
    pub fn set_strategy(&mut self, strategy: &str) {
        self.strategy = strategy.to_string();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            strategy: self.strategy.clone(),
            args: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes `id` (the innermost open span) and returns its duration.
    pub fn end(&mut self, id: usize) -> Duration {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        Duration::from_nanos(end_ns - span.start_ns)
    }

    /// Runs `f` inside a span; returns its result and the span's duration.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    pub fn arg(&mut self, id: usize, key: &str, value: f64) {
        self.spans[id].args.push((key.to_string(), value));
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// Writes the spans in Chrome trace format (`chrome://tracing`,
    /// <https://ui.perfetto.dev>): one complete (`"ph": "X"`) event per span.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = vec![
                    ("id".to_string(), Json::Num(s.id as f64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("workload".to_string(), Json::str(&self.workload)),
                    ("strategy".to_string(), Json::str(&s.strategy)),
                    ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                    ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                    ("self_ns".to_string(), Json::Num(self.self_ns(s.id) as f64)),
                ];
                args.extend(s.args.iter().map(|(k, v)| (k.clone(), Json::Num(*v))));
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("cat", Json::str(&s.strategy)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut t = Tracer::new("w");
        t.set_strategy("STANDARD");
        let root = t.begin("op");
        let (_, _) = t.span("child", || std::thread::sleep(Duration::from_millis(2)));
        let total = t.end(root);
        assert_eq!(t.spans[1].parent, Some(root));
        assert_eq!(t.spans[root].parent, None);
        let child = t.spans[1].end_ns - t.spans[1].start_ns;
        assert_eq!(t.self_ns(root), total.as_nanos() as u64 - child);
    }
}
