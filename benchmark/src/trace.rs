//! The benchmark's own spans. They are recorded from outside the
//! program, around the public calls into each layer, kept in memory and
//! written out when the run ends. The engine's existing `obs` spans
//! (`sql.parse`, `sql.execute`, `txn.commit`, …) are merged in after each
//! op, shifted onto this tracer's clock, so one tree per op covers every
//! layer and self time is computed the same way for all of them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use xmlup_rdb::obs;

/// No parent: the span is the root of its op.
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, filled in by [`resolve`].
    pub parent: u32,
    /// The op (or checkpoint, load, reopen) this span belongs to.
    pub op: u32,
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    /// Added to an engine event's start to express it on this clock.
    engine_offset_ns: i128,
    pub spans: Vec<SpanRec>,
    op: u32,
}

impl Tracer {
    /// Start a tracer and turn the engine's span tracing on for this
    /// thread. The engine stamps its events against an epoch of its own
    /// that it does not publish, so the offset between the two clocks is
    /// measured: the smallest gap seen between reading this clock and the
    /// start of an engine span opened right after.
    pub fn start() -> Tracer {
        let t0 = Instant::now();
        obs::set_tracing(true);
        let mut gap = i128::MAX;
        for _ in 0..256 {
            obs::clear_trace();
            let mine = t0.elapsed().as_nanos() as i128;
            drop(obs::Span::enter("calibrate"));
            if let Some(e) = obs::trace_events().last() {
                gap = gap.min(e.start_ns as i128 - mine);
            }
        }
        obs::clear_trace();
        Tracer {
            t0,
            engine_offset_ns: if gap == i128::MAX { 0 } else { -gap },
            spans: Vec::new(),
            op: 0,
        }
    }

    /// Turn the engine's tracing off again and hand back the spans with
    /// their parents resolved.
    pub fn finish(mut self) -> Vec<SpanRec> {
        obs::set_tracing(false);
        obs::clear_trace();
        resolve(&mut self.spans);
        self.spans
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent: NO_PARENT,
            op: self.op,
        });
        self.spans.len() - 1
    }

    pub fn exit(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// The id the next op's spans will carry.
    pub fn next_op(&self) -> u32 {
        self.op
    }

    /// Stop recording engine events, for statements the harness issues
    /// on its own behalf (warm-up, the document hash).
    pub fn pause(&mut self) {
        obs::set_tracing(false);
    }

    pub fn resume(&mut self) {
        obs::set_tracing(true);
    }

    /// Close the current op: move the engine events recorded during it
    /// onto this tracer and start the next op id.
    pub fn end_op(&mut self) {
        for e in obs::trace_events() {
            let start = (e.start_ns as i128 + self.engine_offset_ns).max(0) as u64;
            self.spans.push(SpanRec {
                name: e.name,
                start_ns: start,
                end_ns: start + e.dur_ns,
                parent: NO_PARENT,
                op: self.op,
            });
        }
        obs::clear_trace();
        self.op += 1;
    }
}

/// Give every span its parent: within one op, the innermost span whose
/// interval holds its start. One thread records them all, so spans nest;
/// the two clocks agree only to within tens of nanoseconds, so a child
/// that appears to outlast its parent is cut to the parent's end.
pub fn resolve(spans: &mut [SpanRec]) {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Stable: of two spans with one interval the earlier recorded is the
    // outer one, since a wrapper is entered before the call it wraps.
    order.sort_by_key(|&i| {
        (
            spans[i].op,
            spans[i].start_ns,
            std::cmp::Reverse(spans[i].end_ns),
        )
    });
    let mut stack: Vec<usize> = Vec::new();
    for i in order {
        while let Some(&top) = stack.last() {
            if spans[top].op == spans[i].op && spans[i].start_ns < spans[top].end_ns {
                break;
            }
            stack.pop();
        }
        if let Some(&top) = stack.last() {
            spans[i].parent = top as u32;
            spans[i].end_ns = spans[i].end_ns.min(spans[top].end_ns);
        }
        if spans[i].end_ns > spans[i].start_ns {
            stack.push(i);
        }
    }
}

/// Total self time (a span's duration minus its children's), inclusive
/// time and span count per span name, over the spans of the given ops.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub self_ns: u64,
    pub inclusive_ns: u64,
}

pub fn totals_by_name(
    spans: &[SpanRec],
    ops: std::ops::Range<u32>,
) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(child_ns) {
        if !ops.contains(&s.op) {
            continue;
        }
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += dur.saturating_sub(kids);
        t.inclusive_ns += dur;
    }
    out
}

/// Spans the trace file holds at most. A bulk-update pass records
/// millions; the layer metrics are computed over all of them, the file
/// keeps the first ops for reading.
pub const FILE_SPANS: usize = 100_000;

/// The first [`FILE_SPANS`] spans as a JSON array, one object per span.
pub fn to_json(spans: &[SpanRec]) -> String {
    let spans = &spans[..spans.len().min(FILE_SPANS)];
    let mut out = String::with_capacity(spans.len() * 80 + 2);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{sep}",
            s.name, s.start_ns, s.end_ns, s.op
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, op: u32) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            end_ns,
            parent: NO_PARENT,
            op,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // update [0,100] { parse [5,15], exec [20,80] { sql [30,50], sql [55,75] }, commit [82,98] }
        // Engine events arrive after the wrappers and children before
        // parents, as the engine records them on completion.
        let mut spans = vec![
            span("update", 0, 100, 0),
            span("parse", 5, 15, 0),
            span("exec", 20, 80, 0),
            span("commit", 82, 98, 0),
            span("sql", 55, 75, 0),
            span("sql", 30, 50, 0),
        ];
        resolve(&mut spans);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[3].parent, 0);
        assert_eq!(spans[4].parent, 2);
        assert_eq!(spans[5].parent, 2);
        let t = totals_by_name(&spans, 0..u32::MAX);
        assert_eq!(t["update"].self_ns, 100 - 10 - 60 - 16);
        assert_eq!(t["exec"].self_ns, 20);
        assert_eq!(t["sql"].self_ns, 40);
        assert_eq!(t["sql"].count, 2);
        assert_eq!(t["exec"].inclusive_ns, 60);
        // Self times of one tree add up to its root's duration.
        let total: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn ops_do_not_nest_into_each_other_and_skew_is_cut() {
        let mut spans = vec![
            span("update", 0, 100, 0),
            // Ends 3 ns after its parent on the shifted clock.
            span("sql", 90, 103, 0),
            // A later op whose interval overlaps nothing of op 0.
            span("query", 200, 300, 1),
            span("sql", 210, 220, 1),
            // Same op id but outside the root: stays a root of its own.
            span("checkpoint", 400, 450, 1),
        ];
        resolve(&mut spans);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].end_ns, 100);
        assert_eq!(spans[2].parent, NO_PARENT);
        assert_eq!(spans[3].parent, 2);
        assert_eq!(spans[4].parent, NO_PARENT);
        let t = totals_by_name(&spans, 0..u32::MAX);
        assert_eq!(t["update"].self_ns, 90);
    }

    #[test]
    fn nested_same_name_spans_count_once_each() {
        // sql.execute { trigger.fire { sql.execute } }
        let mut spans = vec![
            span("sql.execute", 11, 19, 0),
            span("trigger.fire", 10, 20, 0),
            span("sql.execute", 0, 30, 0),
        ];
        resolve(&mut spans);
        assert_eq!(spans[0].parent, 1);
        assert_eq!(spans[1].parent, 2);
        let t = totals_by_name(&spans, 0..u32::MAX);
        assert_eq!(t["sql.execute"].self_ns, 8 + 20);
        assert_eq!(t["trigger.fire"].self_ns, 2);
    }

    #[test]
    fn engine_events_land_inside_the_wrapper_that_caused_them() {
        let mut tr = Tracer::start();
        let outer = tr.enter("outer");
        {
            let _inner = obs::Span::enter("engine.inner");
            std::hint::black_box((0..2000).sum::<u64>());
        }
        tr.exit(outer);
        tr.end_op();
        let spans = tr.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].name, "engine.inner");
        assert_eq!(spans[1].parent, 0);
        assert!(!obs::tracing_enabled());
    }
}
