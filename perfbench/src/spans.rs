//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A span carries its name, start, end, the span that caused it and the
//! id of the event or query it belongs to. Spans stay in memory while a
//! workload runs; [`Tracer::write_tsv`] writes them out at the end. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover ([`Tracer::self_times`]). A disabled
//! tracer records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The event or query the span worked on; spans of one share it.
    pub id: u64,
    /// Index of the causing span in the same tracer.
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// Span recorder of one thread.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Open {
    /// The span index, to pass as a child's parent.
    pub fn index(self) -> Option<usize> {
        self.0
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> Open {
        if !self.on {
            return Open(None);
        }
        let start = self.now();
        self.spans.push(Span { name, id, parent, start, end: start });
        Open(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i].end = self.now();
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, id, parent);
        let out = f();
        self.close(open);
        out
    }

    /// Record an interval measured elsewhere (start/end as `Instant`s).
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if self.on {
            let s = start.saturating_duration_since(self.origin).as_nanos() as u64;
            let e = end.saturating_duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span { name, id, parent: None, start: s, end: e.max(s) });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in nanoseconds of every span, grouped by name: duration
    /// minus the union of its children's intervals clipped to it.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let kids = &mut children[i];
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            let own = (s.end - s.start).saturating_sub(covered);
            out.entry(s.name).or_default().push(own as f64);
        }
        out
    }

    /// Write every span as one tab-separated line:
    /// `index name id parent start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\tid\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(w, "{i}\t{}\t{}\t{parent}\t{}\t{}", s.name, s.id, s.start, s.end)?;
        }
        w.flush()
    }
}

/// Merge the per-name self times of several tracers.
pub fn merged_self_times(tracers: &[&Tracer]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for t in tracers {
        for (name, v) in t.self_times() {
            out.entry(name).or_default().extend(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        // Hand-built intervals: parent 0..100, children 10..30 and 20..50
        // (overlapping) and 90..120 (clipped at the parent's end).
        t.spans = vec![
            Span { name: "p", id: 1, parent: None, start: 0, end: 100 },
            Span { name: "c", id: 1, parent: Some(0), start: 10, end: 30 },
            Span { name: "c", id: 1, parent: Some(0), start: 20, end: 50 },
            Span { name: "c", id: 1, parent: Some(0), start: 90, end: 120 },
        ];
        let st = t.self_times();
        assert_eq!(st["p"], vec![100.0 - 40.0 - 10.0]);
        assert_eq!(st["c"], vec![20.0, 30.0, 30.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.time("a", 0, None, || 7);
        assert_eq!(x, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", 3, None);
        t.time("inner", 3, outer.index(), || std::hint::black_box(1 + 1));
        t.close(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end >= t.spans()[1].end);
    }
}
