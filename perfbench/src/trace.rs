//! Spans recorded around the benchmark's calls into each layer.
//!
//! Spans are kept in memory and written out once, at the end of a traced
//! run. A disabled tracer records nothing, so untraced runs pay one branch
//! per call.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: layer-qualified name, interval in nanoseconds since the
/// tracer's epoch, the span that caused it and the request it served.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records an already-timed interval; returns its id (0 when disabled).
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span now; its id can parent spans opened before it ends.
    pub fn begin(&self, name: &'static str, request: u64, parent: Option<u64>) -> u64 {
        let now = self.now_ns();
        self.record(name, request, parent, now, now)
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&self, id: u64) {
        if id == 0 {
            return;
        }
        let now = self.now_ns();
        self.spans.lock().expect("span buffer poisoned")[id as usize - 1].end_ns = now;
    }

    /// Times `f` as one span; `f` receives the span's id to parent others.
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.begin(name, request, parent);
        let value = f(id);
        self.end(id);
        value
    }

    /// Duration of a recorded span in µs (0 when disabled).
    pub fn duration_us(&self, id: u64) -> f64 {
        if id == 0 {
            return 0.0;
        }
        self.spans.lock().expect("span buffer poisoned")[id as usize - 1].us()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Median duration (µs) of every span named `name`; `None` when absent.
pub fn median_us(spans: &[Span], name: &str) -> Option<f64> {
    let values: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::us)
        .collect();
    (!values.is_empty()).then(|| crate::stats::median(&values))
}

/// Median over requests of `outer`'s duration minus the durations of the
/// entry points [`LAYER_CHAIN`] lists beneath it for the same request id —
/// the self time of the layer whose entry point is `outer`.
pub fn median_self_us(spans: &[Span], outer: &str) -> Option<f64> {
    let (_, inner) = LAYER_CHAIN.iter().find(|(name, _)| *name == outer)?;
    let mut selves = Vec::new();
    for span in spans.iter().filter(|s| s.name == outer) {
        let below: Vec<&Span> = spans
            .iter()
            .filter(|s| s.request == span.request && inner.contains(&s.name))
            .collect();
        if below.len() == inner.len() {
            selves.push(span.us() - below.iter().map(|s| s.us()).sum::<f64>());
        }
    }
    (!selves.is_empty()).then(|| crate::stats::median(&selves))
}

/// Spans as JSON lines: `{"id","parent","name","request","start_ns","end_ns"}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.request, s.start_ns, s.end_ns
        );
    }
    out
}

/// Each probed entry point and the entry points of the layer beneath it for
/// the same request: self time is the first minus the sum of the rest.
pub const LAYER_CHAIN: &[(&str, &[&str])] = &[
    ("router.call", &["wire.call"]),
    ("wire.call", &["serve.call"]),
    ("serve.call", &["core.extract", "core.classify"]),
    ("core.extract", &["nn.backbone_b1", "core.fcr"]),
    ("nn.backbone_b1", &[]),
    ("core.fcr", &[]),
    ("core.classify", &[]),
    ("core.learn", &[]),
    ("nn.backbone_bN", &[]),
];

/// A plain-text table of span counts, median durations and median self
/// times per layer entry point.
pub fn self_time_table(spans: &[Span]) -> String {
    let mut out = format!(
        "{:<16} {:>7} {:>14} {:>14}\n",
        "span", "calls", "median_us", "self_us"
    );
    for (name, _) in LAYER_CHAIN {
        let calls = spans.iter().filter(|s| s.name == *name).count();
        if calls == 0 {
            continue;
        }
        let total = median_us(spans, name).unwrap_or(f64::NAN);
        let own = median_self_us(spans, name).unwrap_or(f64::NAN);
        let _ = writeln!(out, "{name:<16} {calls:>7} {total:>14.1} {own:>14.1}");
    }
    out
}
