//! In-memory span tracer for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions: a name, start, end, parent span, and the
//! operation they belong to. Each finished operation is folded into
//! per-name accumulators — call durations, and self time (a span's
//! duration minus the union of its children's intervals, so spans of
//! concurrent worker threads are not double-subtracted) — and then
//! dropped, so memory stays bounded however many operations run. The
//! spans of the first operations (up to a span budget) and of every
//! probe are kept and can be written out at exit.
//!
//! TxUpdates that happen inside a guest run (`dlsym` binds, `dlopen`)
//! are invisible from outside `Process::run`. A `runtime.run` span
//! carries the number of TxUpdates its `RunResult` reported, and its
//! self time is split by attributing each of them the median cost of
//! one measured policy generation (`cfggen.generate`) and one measured
//! table install (`tables.update`), both timed by the probe phase.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Span name of a guest run (`Process::run`).
pub const RUN: &str = "runtime.run";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `runtime.checkpoint`.
    pub name: &'static str,
    /// Index of the parent span within the same operation.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// TxUpdates reported by the run inside this span.
    pub updates: u64,
    /// Whether the span belongs to a probe rather than a workload
    /// operation (probes count towards call durations, not shares).
    pub probe: bool,
}

/// Per-name accumulator.
#[derive(Clone, Debug, Default)]
pub struct Acc {
    /// Durations of every call, in nanoseconds.
    pub durations: Vec<u64>,
    /// Self time summed over workload operations, in nanoseconds.
    pub self_ns: u64,
    /// Duration summed over workload operations, in nanoseconds.
    pub op_ns: u64,
}

/// The tracer. Worker threads record into their own [`Tracer::fork`]
/// and are merged back with [`Tracer::join`].
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    probe: bool,
    kept: Vec<Span>,
    keep_spans: usize,
    per_update: Vec<(&'static str, u64)>,
    muted: bool,
    /// Per-name accumulators over every folded operation.
    pub acc: BTreeMap<&'static str, Acc>,
    /// Spans recorded so far.
    pub recorded: u64,
}

impl Tracer {
    /// A tracer that keeps whole operations' spans until it holds
    /// `keep_spans`, and every probe's.
    pub fn new(keep_spans: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            probe: false,
            kept: Vec::new(),
            keep_spans,
            per_update: Vec::new(),
            muted: false,
            acc: BTreeMap::new(),
            recorded: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts operation `op` (a probe when `probe` is set).
    pub fn begin_op(&mut self, op: u64, probe: bool) {
        debug_assert!(self.spans.is_empty(), "previous operation not folded");
        self.op = op;
        self.probe = probe;
    }

    /// Turns span recording off (`true`) or back on: a muted tracer runs
    /// the same code with no spans, the baseline of the tracing overhead.
    pub fn set_muted(&mut self, muted: bool) {
        self.muted = muted;
    }

    /// Records `f` as a span named `name`, nested in the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if self.muted {
            return f(self);
        }
        let idx = self.open(name);
        let r = f(self);
        self.close(idx);
        r
    }

    fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            op: self.op,
            start_ns,
            end_ns: start_ns,
            updates: 0,
            probe: self.probe,
        });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: usize) {
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    }

    /// Records the TxUpdates a run reported on the most recent
    /// `runtime.run` span.
    pub fn note_updates(&mut self, updates: u64) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.name == RUN) {
            s.updates += updates;
        }
    }

    /// A tracer for a worker thread: same epoch and operation, nested
    /// under this tracer's innermost open span once joined.
    pub fn fork(&self) -> Tracer {
        let mut t = Tracer::new(0);
        t.epoch = self.epoch;
        t.op = self.op;
        t.probe = self.probe;
        t.muted = self.muted;
        t
    }

    /// Merges a forked tracer's spans under the innermost open span.
    pub fn join(&mut self, child: Tracer) {
        let base = self.spans.len();
        let parent = self.stack.last().copied();
        for mut s in child.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(s);
        }
    }

    /// Sets the per-TxUpdate costs attributed out of `runtime.run`.
    pub fn set_update_costs(&mut self, costs: Vec<(&'static str, u64)>) {
        self.per_update = costs;
    }

    /// Folds the current operation into the accumulators.
    pub fn end_op(&mut self) {
        debug_assert!(
            self.stack.is_empty(),
            "open spans at the end of an operation"
        );
        let spans = std::mem::take(&mut self.spans);
        self.recorded += spans.len() as u64;
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            self.acc.entry(s.name).or_default().durations.push(dur);
            if s.probe {
                continue;
            }
            self.acc.entry(s.name).or_default().op_ns += dur;
            let mut self_ns = dur - covered(s, children[i].iter().map(|&c| &spans[c]));
            if s.name == RUN {
                for &(name, cost) in &self.per_update {
                    let moved = (s.updates * cost).min(self_ns);
                    self_ns -= moved;
                    self.acc.entry(name).or_default().self_ns += moved;
                }
            }
            self.acc.entry(s.name).or_default().self_ns += self_ns;
        }
        if self.probe || self.kept.len() < self.keep_spans {
            self.kept.extend(spans);
        }
    }

    /// Median duration of `name`'s calls, in nanoseconds.
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        let a = self.acc.get(name)?;
        let xs: Vec<f64> = a.durations.iter().map(|&d| d as f64).collect();
        (!xs.is_empty()).then(|| crate::stats::median(&xs))
    }

    /// Self time of the layer `prefix` — spans named `prefix` or
    /// `prefix.*` — as a share of all self time.
    pub fn self_share(&self, prefix: &str) -> f64 {
        let total: u64 = self.acc.values().map(|a| a.self_ns).sum();
        let own: u64 = self
            .acc
            .iter()
            .filter(|(name, _)| {
                name.strip_prefix(prefix)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
            })
            .map(|(_, a)| a.self_ns)
            .sum();
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    /// Writes the kept spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"updates\":{},\"probe\":{}}}",
                s.op,
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                s.updates,
                s.probe
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `span` covered by the union of `children`.
fn covered<'a>(span: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start_ns,
            end_ns,
            updates: 0,
            probe: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let root = span("root", None, 0, 100);
        let kids = [
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),
            span("c", Some(0), 80, 120),
        ];
        assert_eq!(covered(&root, kids.iter()), 50 + 20);
    }

    #[test]
    fn updates_move_self_time_from_the_run_to_the_update_layers() {
        let mut t = Tracer::new(1);
        t.set_update_costs(vec![("tables.update", 1)]);
        t.begin_op(0, false);
        t.span("op", |t| {
            t.span(RUN, |_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            })
        });
        t.note_updates(5);
        t.end_op();
        assert_eq!(t.acc["tables.update"].self_ns, 5);
        assert!(t.acc[RUN].self_ns > 900_000);
        assert_eq!(t.kept.len(), 2);
    }
}
