//! Harness-side tracing: a span at every call the harness makes into a
//! layer. Spans are kept in memory and written out as JSON lines when
//! the run ends; a layer's self time is its span minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept per tracer; past this the tracer only counts what it
/// dropped, so a long closed-loop phase cannot grow memory without bound.
const MAX_SPANS: usize = 400_000;

/// Index of a span within its tracer. `NONE` marks a root.
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Request or batch id shared by the spans of one unit of work.
    pub req: u64,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// One thread's span recorder. Disabled tracers cost a branch per call,
/// so the same workload code serves the untraced and the traced run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<SpanId>,
    dropped: u64,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (share one origin
    /// across threads so merged traces line up).
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return NONE;
        }
        let id = self.spans.len() as SpanId;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.stack.push(id);
        id
    }

    /// Closes the span `enter` returned.
    pub fn exit(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
        debug_assert_eq!(self.stack.last(), Some(&id), "spans close innermost first");
        self.stack.pop();
    }

    /// Records a finished root span another thread timed (tasks that
    /// cannot carry a tracer report their interval instead).
    pub fn add(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: NONE,
            req,
        });
    }

    /// Runs `f` inside a span and returns its result with the time it
    /// took — measured whether or not the tracer is enabled, so callers
    /// read their layer timings from one place.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.enter(name, req);
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.exit(id);
        (out, ns)
    }

    /// Appends another thread's spans, re-pointing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.dropped += other.dropped;
        for mut s in other.spans {
            if s.parent != NONE {
                s.parent += base;
            }
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        if self.dropped > 0 {
            writeln!(w, "{{\"dropped_spans\":{}}}", self.dropped)?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, each clipped to the parent's interval (so
/// overlapping children are not subtracted twice and a child that
/// outlives its parent only counts for the shared part).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: SpanId) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_child_interval() {
        let spans = [
            rec("respond", 0, 100, NONE),
            rec("decode", 10, 40, 0),
            rec("append", 40, 70, 0),
            rec("sync", 50, 60, 2),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            rec("p", 100, 200, NONE),
            // Two children overlapping on [140, 160): union is [120, 180).
            rec("a", 120, 160, 0),
            rec("b", 140, 180, 0),
            // Starts inside, ends after the parent: only [190, 200) counts.
            rec("c", 190, 260, 0),
            // Entirely outside the parent: covers nothing.
            rec("d", 300, 400, 0),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_and_totals_by_name() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.enter("outer", 7);
        t.time("inner", 7, || std::hint::black_box(1 + 1));
        t.time("inner", 7, || std::hint::black_box(2 + 2));
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NONE);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert!(spans.iter().all(|s| s.req == 7));
        let totals = t.totals();
        assert_eq!(totals["inner"].count, 2);
        let inner = totals["inner"].total_ns;
        assert_eq!(totals["outer"].self_ns, totals["outer"].total_ns - inner);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false, Instant::now());
        let (v, ns) = t.time("x", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            5
        });
        assert_eq!(v, 5);
        assert!(ns >= 2_000_000);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_repoints_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        a.time("a", 0, || ());
        let mut b = Tracer::new(true, origin);
        let outer = b.enter("b", 1);
        b.time("b.child", 1, || ());
        b.exit(outer);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].parent, NONE);
    }
}
