//! Observability: structured tracing spans, fixed-bucket latency
//! histograms, and a metrics registry with Prometheus-style rendering.
//!
//! The design goal is **zero cost when off**: a disabled
//! [`Span::enter`] is one thread-local flag read and no clock access,
//! so instrumented hot paths (parse, plan, execute, WAL append) pay
//! nothing measurable with tracing disabled. When enabled, each span
//! records a complete event (name, start, duration) into a thread-local
//! buffer dumpable as chrome://tracing JSON, and feeds a per-phase
//! log2-bucket histogram for the aggregated latency table.
//!
//! The module is dependency-free and single-threaded by construction
//! (the engine itself is `Rc`/`Cell` based), so the tracer state lives
//! in a `thread_local!` — spans on different threads never contend.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Number of log2 buckets in a [`Histogram`]: one per power of two of
/// nanoseconds, which comfortably covers sub-ns to ~580 years.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Cap on buffered trace events; beyond it events are counted but
/// dropped so an unbounded trace session cannot exhaust memory.
const MAX_TRACE_EVENTS: usize = 1 << 20;

/// A fixed-bucket log2 latency histogram over nanosecond samples.
///
/// Bucket `i` holds samples whose `floor(log2(ns))` is `i` (bucket 0
/// also takes `ns == 0`), so quantiles are answered to within a factor
/// of two without storing samples. `max` is exact.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Bucket index for a nanosecond sample: `floor(log2(ns))`, with 0
    /// mapping to bucket 0.
    pub fn bucket_index(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `i` (`2^(i+1) - 1` ns).
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (2u64 << i) - 1
        }
    }

    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Largest sample recorded (exact), in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Raw bucket counts (for format-stability tests).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (0 for an empty histogram). `q` is clamped to `[0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bound(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median estimate in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th-percentile estimate in nanoseconds.
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }
}

/// One completed trace event (chrome://tracing "complete" semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Phase name (the string passed to [`Span::enter`]).
    pub name: &'static str,
    /// Start offset from the tracer's epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Aggregated statistics for one phase, derived from its histogram.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// Phase name.
    pub name: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Total time in nanoseconds.
    pub total_ns: u64,
    /// Median latency estimate in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile latency estimate in nanoseconds.
    pub p95_ns: u64,
    /// Maximum latency (exact) in nanoseconds.
    pub max_ns: u64,
}

struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    events: RefCell<Vec<TraceEvent>>,
    dropped: Cell<u64>,
    agg: RefCell<BTreeMap<&'static str, Histogram>>,
}

thread_local! {
    static TRACER: Tracer = Tracer {
        enabled: Cell::new(false),
        epoch: Instant::now(),
        events: RefCell::new(Vec::new()),
        dropped: Cell::new(0),
        agg: RefCell::new(BTreeMap::new()),
    };
}

/// Enable or disable span tracing on this thread. Disabling keeps the
/// buffered events (dump then [`clear_trace`] to reset).
pub fn set_tracing(on: bool) {
    TRACER.with(|t| t.enabled.set(on));
}

/// Whether span tracing is enabled on this thread.
pub fn tracing_enabled() -> bool {
    TRACER.with(|t| t.enabled.get())
}

/// Drop all buffered trace events and per-phase histograms.
pub fn clear_trace() {
    TRACER.with(|t| {
        t.events.borrow_mut().clear();
        t.dropped.set(0);
        t.agg.borrow_mut().clear();
    });
}

/// Snapshot of the buffered trace events (oldest first).
pub fn trace_events() -> Vec<TraceEvent> {
    TRACER.with(|t| t.events.borrow().clone())
}

/// Events dropped because the trace buffer was full.
pub fn trace_events_dropped() -> u64 {
    TRACER.with(|t| t.dropped.get())
}

/// Render the buffered events as a chrome://tracing-compatible JSON
/// array of complete (`"ph": "X"`) events; timestamps and durations are
/// microseconds with nanosecond precision.
pub fn trace_json() -> String {
    TRACER.with(|t| {
        let events = t.events.borrow();
        let mut out = String::with_capacity(events.len() * 96 + 2);
        out.push('[');
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{}.{:03},\"dur\":{}.{:03}}}",
                e.name,
                e.start_ns / 1_000,
                e.start_ns % 1_000,
                e.dur_ns / 1_000,
                e.dur_ns % 1_000,
            );
        }
        out.push(']');
        out
    })
}

/// Aggregated per-phase statistics, sorted by phase name.
pub fn phase_stats() -> Vec<PhaseStat> {
    TRACER.with(|t| {
        t.agg
            .borrow()
            .iter()
            .map(|(name, h)| PhaseStat {
                name,
                count: h.count(),
                total_ns: h.sum_ns(),
                p50_ns: h.p50_ns(),
                p95_ns: h.p95_ns(),
                max_ns: h.max_ns(),
            })
            .collect()
    })
}

/// The aggregated per-phase latency table as aligned text:
/// `phase  count  p50  p95  max  total` per row.
pub fn render_phase_table() -> String {
    let stats = phase_stats();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>10} {:>10} {:>10} {:>12}",
        "phase", "count", "p50", "p95", "max", "total"
    );
    for s in &stats {
        let _ = writeln!(
            out,
            "{:<18} {:>8} {:>10} {:>10} {:>10} {:>12}",
            s.name,
            s.count,
            fmt_ns(s.p50_ns),
            fmt_ns(s.p95_ns),
            fmt_ns(s.max_ns),
            fmt_ns(s.total_ns)
        );
    }
    out
}

/// An RAII tracing span. [`Span::enter`] starts timing a named phase;
/// dropping the span records the event. When tracing is off the span
/// is inert: no clock is read and nothing is recorded.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Open a span for `name`. Inert (no timestamp taken) unless
    /// tracing is enabled on this thread.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        let active = TRACER.with(|t| t.enabled.get());
        Span {
            name,
            start: if active { Some(Instant::now()) } else { None },
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        TRACER.with(|t| {
            let end = Instant::now();
            let dur_ns = end.duration_since(start).as_nanos() as u64;
            if t.enabled.get() {
                let start_ns = start.duration_since(t.epoch).as_nanos() as u64;
                let mut events = t.events.borrow_mut();
                if events.len() < MAX_TRACE_EVENTS {
                    events.push(TraceEvent {
                        name: self.name,
                        start_ns,
                        dur_ns,
                    });
                } else {
                    t.dropped.set(t.dropped.get() + 1);
                }
                t.agg
                    .borrow_mut()
                    .entry(self.name)
                    .or_default()
                    .record(dur_ns);
            }
        });
    }
}

/// Kind of a metric in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
}

/// One named metric sample: family name, optional labels, kind, help
/// text, and current value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric family name (e.g. `rdb_rows_scanned`).
    pub name: &'static str,
    /// Label pairs, rendered `{k="v",…}`.
    pub labels: Vec<(&'static str, String)>,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// One-line help text.
    pub help: &'static str,
    /// Current value.
    pub value: u64,
}

impl Metric {
    /// A label-free counter sample.
    pub fn counter(name: &'static str, help: &'static str, value: u64) -> Metric {
        Metric {
            name,
            labels: Vec::new(),
            kind: MetricKind::Counter,
            help,
            value,
        }
    }

    /// A label-free gauge sample.
    pub fn gauge(name: &'static str, help: &'static str, value: u64) -> Metric {
        Metric {
            name,
            labels: Vec::new(),
            kind: MetricKind::Gauge,
            help,
            value,
        }
    }
}

/// Render metrics in the Prometheus text exposition format: one
/// `# HELP` / `# TYPE` header per family (first occurrence wins),
/// then one sample line per metric.
pub fn render_prometheus(metrics: &[Metric]) -> String {
    let mut out = String::new();
    let mut last_family: Option<&'static str> = None;
    for m in metrics {
        if last_family != Some(m.name) {
            let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
            let _ = writeln!(
                out,
                "# TYPE {} {}",
                m.name,
                match m.kind {
                    MetricKind::Counter => "counter",
                    MetricKind::Gauge => "gauge",
                }
            );
            last_family = Some(m.name);
        }
        if m.labels.is_empty() {
            let _ = writeln!(out, "{} {}", m.name, m.value);
        } else {
            let labels: Vec<String> = m
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            let _ = writeln!(out, "{}{{{}}} {}", m.name, labels.join(","), m.value);
        }
    }
    out
}

/// Format a nanosecond duration with an adaptive unit (`ns`, `µs`,
/// `ms`, `s`), one decimal place above nanoseconds.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.1}s", ns as f64 / 1_000_000_000.0)
    }
}
