//! In-memory spans for the traced run.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! request it belongs to. Spans are recorded by the benchmark around its
//! calls into each layer, kept in memory, and written out when the run
//! ends. A layer's self time is its span's duration minus the part of that
//! interval its child spans cover. With tracing off every call is a no-op.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: SpanId,
    request: Option<u64>,
}

/// Self-time totals of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Closed spans of this name.
    pub count: usize,
    /// Summed durations, in seconds.
    pub total_s: f64,
    /// Summed self times, in seconds.
    pub self_s: f64,
}

impl Totals {
    /// Mean self time per span, in microseconds; 0 when none was recorded.
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_s * 1e6 / self.count as f64
        }
    }
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
    }

    /// Opens a span that started at `start` (which may lie in the past, as
    /// an open-loop request's due time does).
    pub fn open_at(
        &self,
        name: &'static str,
        start: Instant,
        parent: SpanId,
        request: Option<u64>,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans();
        spans.push(Span {
            name,
            start,
            end: None,
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span starting now.
    pub fn open(&self, name: &'static str, parent: SpanId, request: Option<u64>) -> SpanId {
        if !self.enabled {
            return None;
        }
        self.open_at(name, Instant::now(), parent, request)
    }

    /// Closes `span` at `end`.
    pub fn close_at(&self, span: SpanId, end: Instant) {
        if let Some(i) = span {
            self.spans()[i].end = Some(end);
        }
    }

    /// Closes `span` now.
    pub fn close(&self, span: SpanId) {
        if span.is_some() {
            self.close_at(span, Instant::now());
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, parent, None);
        let out = f();
        self.close(span);
        out
    }

    /// Self-time totals per span name over every closed span.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let spans = self.spans();
        let self_times = self_times(&spans);
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, self_s) in spans.iter().zip(self_times) {
            let Some(end) = span.end else { continue };
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_s += end.saturating_duration_since(span.start).as_secs_f64();
            t.self_s += self_s;
        }
        out
    }

    /// Totals of one span name (zero when it never ran).
    pub fn totals_of(&self, name: &str) -> Totals {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// Every span as one JSON array, times in microseconds since the
    /// tracer was created.
    pub fn spans_json(&self) -> String {
        let spans = self.spans();
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut out = String::from("[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let opt = |v: Option<String>| v.unwrap_or_else(|| "null".into());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                us(s.start),
                opt(s.end.map(|e| format!("{:.3}", us(e)))),
                opt(s.parent.map(|p| p.to_string())),
                opt(s.request.map(|r| r.to_string())),
            );
        }
        out.push_str("\n]");
        out
    }
}

/// Self time of every span, in seconds: its duration minus the union of
/// its closed children's intervals clipped to it. Open spans get 0.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let (Some(p), Some(end)) = (s.parent, s.end) {
            children[p].push((s.start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let Some(end) = s.end else { return 0.0 };
            let mut covered = 0.0;
            let mut reach = s.start;
            kids.sort_by_key(|&(start, _)| start);
            for &(start, stop) in kids.iter() {
                let start = start.max(reach);
                let stop = stop.min(end);
                if stop > start {
                    covered += (stop - start).as_secs_f64();
                    reach = stop;
                }
            }
            end.saturating_duration_since(s.start).as_secs_f64() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tracer = Tracer::new(true);
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let root = tracer.open_at("root", ms(0), None, Some(1));
        // Two overlapping children covering 10..40, one reaching past the end.
        let a = tracer.open_at("child", ms(10), root, Some(1));
        tracer.close_at(a, ms(30));
        let b = tracer.open_at("child", ms(20), root, Some(1));
        tracer.close_at(b, ms(40));
        let c = tracer.open_at("late", ms(90), root, Some(1));
        tracer.close_at(c, ms(120));
        tracer.close_at(root, ms(100));

        let totals = tracer.totals();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(totals["root"].total_s, 0.100));
        // 100 ms minus 30 ms (10..40) minus 10 ms (90..100).
        assert!(close(totals["root"].self_s, 0.060));
        assert_eq!(totals["child"].count, 2);
        assert!(close(totals["child"].self_s, 0.040));
        assert!(close(tracer.totals_of("late").self_s, 0.030));
        assert_eq!(tracer.totals_of("absent"), Totals::default());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let span = tracer.open("x", None, None);
        assert!(span.is_none());
        tracer.close(span);
        assert_eq!(tracer.time("y", None, || 7), 7);
        assert!(tracer.totals().is_empty());
        assert_eq!(tracer.spans_json(), "[\n]");
    }
}
