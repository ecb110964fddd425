//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer, on the benchmark thread only. Each span keeps its name, start
//! and end (nanoseconds since the tracer was created), the index of the
//! span that was open when it started, and the op id it belongs to. The
//! spans stay in memory until [`Tracer::write_jsonl`] writes them out at
//! the end of the run. A disabled tracer records nothing and only runs
//! the closure.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `"dta.train"`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall-clock duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans while enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between spans.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` belonging to op `op`.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            let idx = spans.len();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: open.last().copied(),
                op,
            });
            open.push(idx);
            idx
        };
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.borrow();
        let selfs = self_times_ns(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{},"self_ns":{self_ns}}}"#,
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(parent) = spans.get(p) {
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| {
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (lo, hi) in iv {
                match cur {
                    Some((a, b)) if lo <= b => cur = Some((a, b.max(hi))),
                    Some((a, b)) => {
                        covered += b - a;
                        cur = Some((lo, hi));
                    }
                    None => cur = Some((lo, hi)),
                }
            }
            if let Some((a, b)) = cur {
                covered += b - a;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Median self time, in ms, of the spans named `name` (0 when none).
pub fn median_self_ms(spans: &[Span], name: &str) -> f64 {
    let selfs = self_times_ns(spans);
    let xs: Vec<f64> = spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, ns)| ns as f64 / 1e6)
        .collect();
    crate::stats::median(&xs).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,30) ⊃ a1 [12,20); root ⊃ b [50,90).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("a1", 12, 20, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 12, 8, 40]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Children overlap each other and one overruns the parent.
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 40, Some(0)),
            span("y", 30, 60, Some(0)),
            span("z", 90, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn tracer_nests_spans_and_tags_ops() {
        let t = Tracer::new(true);
        t.span("outer", 7, || {
            t.span("inner", 7, || std::hint::black_box(1 + 1));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 5), 5);
        assert!(t.spans().is_empty());
    }
}
