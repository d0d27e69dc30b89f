//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; the library itself is untouched. Each span
//! has a name, start and end (nanoseconds since the tracer's epoch), an
//! optional parent and an optional request id. Nothing is written until
//! [`Tracer::write`] at the end of the run, so tracing adds no I/O to
//! the measured window.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: Option<u64>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &str, parent: Option<SpanId>, request: Option<u64>) -> SpanId {
        let now = self.ns(Instant::now());
        let mut spans = self.spans();
        spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        let now = self.ns(Instant::now());
        self.spans()[id].end_ns = now;
    }

    /// Records a finished span from explicit instants.
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        let mut spans = self.spans();
        spans.push(span);
        spans.len() - 1
    }

    /// Runs `f` under a span named `name`.
    pub fn time<T>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent, None);
        let out = f();
        self.close(id);
        out
    }

    /// Per-name totals of self time in milliseconds: each span's
    /// duration minus the part of it its children cover.
    pub fn self_ms(&self) -> BTreeMap<String, f64> {
        let spans = self.spans();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let covered = covered_ns(&mut children[i], s.start_ns, s.end_ns);
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name.clone()).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans().len()
    }

    /// Writes every span, the per-name self times and `header` (a JSON
    /// object's members, without braces) to `path` as one JSON document.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let self_ms = self.self_ms();
        let mut s = String::new();
        writeln!(s, "{{{header},").unwrap();
        s.push_str("\"self_ms\": {");
        for (i, (name, ms)) in self_ms.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(s, "{sep}\"{name}\": {ms}").unwrap();
        }
        s.push_str("},\n\"spans\": [\n");
        let spans = self.spans();
        for (i, sp) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let request = sp.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {request}}}{sep}",
                sp.name, sp.start_ns, sp.end_ns
            )
            .unwrap();
        }
        s.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_children() {
        let t = Tracer::new();
        let base = t.epoch;
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("root", None, Some(1), at(0), at(10));
        t.record("a", Some(root), Some(1), at(1), at(4));
        // Overlaps `a`: the union [1, 6] is covered once.
        t.record("b", Some(root), Some(1), at(3), at(6));
        let self_ms = t.self_ms();
        assert!((self_ms["root"] - 5.0).abs() < 1e-9);
        assert!((self_ms["a"] - 3.0).abs() < 1e-9);
        assert!((self_ms["b"] - 3.0).abs() < 1e-9);
    }
}
