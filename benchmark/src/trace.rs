//! Outside-in spans: recorded by the benchmark around its calls into
//! the product, kept in memory, written out when the run ends.
//!
//! Everything here runs on the generator thread, so a `RefCell` is
//! enough. A disabled tracer costs one branch per span.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` indexes the span that was open when
/// this one started; `unit` is the timed unit it belongs to (−1 for
/// set-up and layer probes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub unit: i32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    unit: Cell<i32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: Cell::new(enabled),
            epoch: Instant::now(),
            unit: Cell::new(-1),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Switches recording on or off between units (the traced run
    /// times untraced units first to price the spans themselves).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Labels the spans that follow with a unit number.
    pub fn set_unit(&self, unit: i32) {
        self.unit.set(unit);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled.get() {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let start = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        spans.push(Span {
            name,
            parent: self.open.borrow().last().copied(),
            unit: self.unit.get(),
            start_ns: start,
            end_ns: start,
        });
        self.open.borrow_mut().push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn in_span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(name);
        f()
    }

    /// Records an already-measured child of the innermost open span:
    /// `total_ns` of work done in many calls too short to span one by
    /// one (a searcher's oracle queries). It is laid at the parent's
    /// start, so the parent's self time is what remains.
    pub fn aggregate(&self, name: &'static str, total_ns: u64) {
        if !self.enabled.get() {
            return;
        }
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let start = parent.map_or_else(|| self.now_ns(), |p| spans[p].start_ns);
        spans.push(Span {
            name,
            parent,
            unit: self.unit.get(),
            start_ns: start,
            end_ns: start + total_ns,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Writes one JSON object per span, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let selfs = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"unit\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.unit, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[index].end_ns = end;
            let popped = self.tracer.open.borrow_mut().pop();
            debug_assert_eq!(popped, Some(index), "spans close innermost first");
        }
    }
}

/// Self time per span: its duration minus the durations of its direct
/// children (saturating — an aggregate child may round a hair past its
/// parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.duration_ns());
        }
    }
    selfs
}

/// Sum of the self times of every span called `name`.
pub fn self_time_of(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| t)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            unit: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("unit", None, 0, 100),
            span("search", Some(0), 10, 70),
            span("oracle", Some(1), 10, 50),
            span("sweep", Some(0), 70, 95),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60 - 25, 60 - 40, 40, 25]);
        assert_eq!(self_time_of(&spans, "search"), 20);
    }

    #[test]
    fn self_time_saturates_instead_of_wrapping() {
        let spans = vec![span("p", None, 0, 10), span("c", Some(0), 0, 11)];
        assert_eq!(self_times(&spans), vec![0, 11]);
    }

    #[test]
    fn guards_nest_and_label_units() {
        let t = Tracer::new(true);
        t.set_unit(3);
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span("inner");
            }
            t.aggregate("many", 5);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].duration_ns(), 5);
        assert!(spans.iter().all(|s| s.unit == 3));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let _s = t.span("x");
            t.aggregate("y", 9);
        }
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        drop(t.span("z"));
        assert_eq!(t.spans().len(), 1);
    }
}
