//! In-memory spans recorded around calls into each layer's public API,
//! their self-time arithmetic, and the per-name layer table.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `cache.filter_batch`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span belongs to (a pass, a rung, a range).
    pub req: u64,
}

/// Handle of an open span, closed by [`Tracer::exit`].
#[must_use = "an opened span must be closed with Tracer::exit"]
pub struct Open(Option<usize>);

/// Span recorder for one thread. A disabled recorder records nothing
/// and reads no clock, which is how the untraced runs use the same code.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new(Instant::now())
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: Open) {
        if let Some(id) = span.0 {
            let end = self.now();
            assert_eq!(
                self.open.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let s = self.enter(name, req);
        let r = f();
        self.exit(s);
        r
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Appends another recorder's spans (same epoch), keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children may overlap each other (spans recorded on
/// several threads under one parent); the covered part is the union of
/// their intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end.saturating_sub(s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed durations, in seconds.
    pub busy_s: f64,
    /// Summed self times, in seconds.
    pub self_s: f64,
}

/// Totals per span name over the spans `keep` selects, in name order.
/// Self times are computed over all of `spans`, so a selected span's
/// children count against it whether or not they are selected.
pub fn totals(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)).filter(|(s, _)| keep(s)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.busy_s += s.end.saturating_sub(s.start) as f64 * 1e-9;
        t.self_s += own as f64 * 1e-9;
    }
    out
}

/// Writes every span as a tab-separated line: id, parent, request, name,
/// start and end (ns since the epoch), and self time (ns).
pub fn dump(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns")?;
    for (id, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{id}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
            s.req, s.name, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two overlapping children cover 10..50, a third 70..80, and
            // a fourth pokes out past the parent's end (clipped at 100).
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 70, 80, Some(0)),
            span("d", 95, 120, Some(0)),
            // A grandchild counts against its parent only.
            span("g", 12, 20, Some(1)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 40 - 10 - 5, 30 - 8, 20, 10, 25, 8]
        );
    }

    #[test]
    fn nested_children_and_totals() {
        let spans = vec![
            span("pass", 0, 1_000, None),
            span("filter", 0, 300, Some(0)),
            span("filter", 300, 600, Some(0)),
            span("pass", 1_000, 1_500, None),
        ];
        let t = totals(&spans, |_| true);
        assert_eq!(t["filter"].calls, 2);
        assert!((t["pass"].busy_s - 1.5e-6).abs() < 1e-15);
        assert!((t["pass"].self_s - 0.9e-6).abs() < 1e-15);
        let first = totals(&spans, |s| s.start < 1_000);
        assert_eq!(first["pass"].calls, 1);
        assert!((first["pass"].self_s - 0.4e-6).abs() < 1e-15);
    }

    #[test]
    fn recorder_links_parents_and_absorbs() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let outer = a.enter("outer", 1);
        a.time("inner", 1, || ());
        a.exit(outer);
        let mut b = Tracer::new(epoch);
        let o = b.enter("other", 2);
        b.time("leaf", 2, || ());
        b.exit(o);
        a.absorb(b);
        let parents: Vec<_> = a.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
        assert!(a.spans().iter().all(|s| s.end >= s.start));

        let mut off = Tracer::disabled();
        let s = off.enter("x", 0);
        off.exit(s);
        assert!(off.spans().is_empty());
    }
}
