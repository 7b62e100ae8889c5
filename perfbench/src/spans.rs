//! In-memory spans around the benchmark's calls into the crates.
//!
//! A traced run wraps each public call it makes (`Network::new`,
//! `Network::run`, a layer probe, a dqos-d client or daemon call) in a
//! span with a name, start, end and parent. Spans stay in memory and are
//! written out when the run ends. A span's self time is its duration
//! minus the part of its interval that its children cover.
//!
//! With recording off, [`SpanLog::span`] only calls the closure, so the
//! timed runs share the traced runs' code without reading the clock.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the log's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a span tree.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(on: bool) -> SpanLog {
        SpanLog {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` (a child of the innermost open
    /// span). Nested calls made through the `&mut SpanLog` passed to `f`
    /// become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in ns.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_exact_on_a_hand_built_tree() {
        // root [0,100) has children a [10,30) and b [25,60) (overlapping,
        // as spans from two threads can be) and c [90,120) running past
        // its end; a has a grandchild [12,20).
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 30, Some(0)),
            sp("b", 25, 60, Some(0)),
            sp("c", 90, 120, Some(0)),
            sp("g", 12, 20, Some(1)),
        ];
        // root: children cover [10,60) + [90,100) = 60 ns.
        assert_eq!(self_times(&spans), vec![40, 12, 35, 30, 8]);
        let t = totals_by_name(&spans);
        assert_eq!(
            t["root"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(
            t["a"],
            NameTotals {
                count: 1,
                total_ns: 20,
                self_ns: 12
            }
        );
    }

    #[test]
    fn recorded_spans_nest_and_an_off_log_records_nothing() {
        let mut log = SpanLog::new(true);
        let v = log.span("outer", |l| l.span("inner", |_| 7) + l.span("inner", |_| 1));
        assert_eq!(v, 8);
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(log.durations_ns("inner").len(), 2);

        let mut off = SpanLog::new(false);
        assert_eq!(off.span("x", |l| l.span("y", |_| 3)), 3);
        assert!(off.spans().is_empty());
    }
}
