//! The traced run's in-memory span recorder. Spans are recorded only
//! from the benchmark's own files, around its calls into each layer's
//! public functions (or synthesized from timings a layer reports about
//! itself); they are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span. Times are microseconds since the recorder's
/// origin; `parent` indexes the recorder's span list.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Span handle: the index of an open span, or `None` when tracing is
/// off (every recorder call is then a no-op).
pub type SpanId = Option<usize>;

pub struct Recorder {
    origin: Instant,
    spans: Option<Mutex<Vec<SpanRecord>>>,
}

/// Self time of one span name across the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub count: usize,
    pub total_us: f64,
    pub self_us: f64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a span with known bounds.
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let spans = self.spans.as_ref()?;
        let mut spans = spans.lock().expect("span list lock poisoned");
        spans.push(SpanRecord {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span now; close it with [`Self::exit`].
    pub fn enter(&self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, request, parent, now, now)
    }

    pub fn exit(&self, id: SpanId) {
        if let (Some(spans), Some(id)) = (self.spans.as_ref(), id) {
            let end = self.us(Instant::now());
            spans.lock().expect("span list lock poisoned")[id].end_us = end;
        }
    }

    /// Runs `f` inside a span; `f` receives the span id as the parent
    /// for nested spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        request: u64,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.enter(name, request, parent);
        let out = f(id);
        self.exit(id);
        out
    }

    /// Records consecutive child spans under `parent` from a list of
    /// (name, duration) stages a layer timed itself, starting at `start`.
    pub fn stages(
        &self,
        request: u64,
        parent: SpanId,
        start: Instant,
        stages: &[(&'static str, Duration)],
    ) {
        let mut at = start;
        for (name, d) in stages {
            self.record(name, request, parent, at, at + *d);
            at += *d;
        }
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans
            .as_ref()
            .map(|s| s.lock().expect("span list lock poisoned").clone())
            .unwrap_or_default()
    }

    /// Per span name: count, total duration and self time (duration
    /// minus the time its direct children cover).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let spans = self.spans();
        let mut child_us = vec![0.0; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, covered) in spans.iter().zip(child_us) {
            let dur = s.end_us - s.start_us;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_us += dur;
            e.self_us += (dur - covered).max(0.0);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let mut text = String::new();
        for (id, s) in self.spans().iter().enumerate() {
            text.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}\n",
                s.name,
                s.request,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_us,
                s.end_us
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let rec = Recorder::new(true);
        let t0 = Instant::now();
        let root = rec.record("root", 1, None, t0, t0 + Duration::from_millis(10));
        rec.stages(
            1,
            root,
            t0,
            &[
                ("a", Duration::from_millis(3)),
                ("b", Duration::from_millis(4)),
            ],
        );
        let st = rec.self_times();
        assert!((st["root"].self_us - 3000.0).abs() < 1.0);
        assert!((st["a"].self_us - 3000.0).abs() < 1.0);
        assert_eq!(st["b"].count, 1);
        let off = Recorder::new(false);
        assert_eq!(off.enter("x", 0, None), None);
        assert!(off.self_times().is_empty());
    }
}
