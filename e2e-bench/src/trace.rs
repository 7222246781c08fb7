//! In-memory spans around the benchmark's calls into each layer's public
//! API, written out as JSONL when the run ends.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in the order spans were opened.
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Shared by every span of one request, repetition, pass or session.
    pub request_id: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled. Disabled, [`Tracer::span`] only calls its
/// closure, so the timed and the traced runs execute the same code.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Nanoseconds since the tracer was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; `f` gets the span's id to parent child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request_id: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let Some(spans) = &self.spans else {
            return f(None);
        };
        let start_ns = self.now_ns();
        let id = {
            let mut spans = spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request_id,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_ns = self.now_ns();
        spans.lock().expect("span list poisoned")[id].end_ns = end_ns;
        out
    }

    /// Records a span whose ends were stamped elsewhere.
    pub fn record(&self, span: Span) {
        if let Some(spans) = &self.spans {
            spans.lock().expect("span list poisoned").push(span);
        }
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.as_ref().map_or_else(Vec::new, |spans| {
            spans.lock().expect("span list poisoned").clone()
        })
    }
}

/// Total length of the union of `[start, end)` intervals.
#[must_use]
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            _ => {
                if let Some((s, e)) = current {
                    total += e - s;
                }
                current = Some((start, end.max(start)));
            }
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Children may overlap (parallel workers), so
/// the covered part is the union of their intervals, clipped to the parent.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, covered)| span.duration_ns().saturating_sub(union_ns(covered)))
        .collect()
}

/// Writes one JSON object per span: `id` (the span's line number),
/// `name`, `start_ns`, `end_ns`, `parent` (an `id` or null), `request_id`.
///
/// # Errors
///
/// Any I/O error from `out`.
pub fn write_jsonl(spans: &[Span], mut out: impl Write) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request_id
        )?;
    }
    out.flush()
}

/// Measured cost of recording one span, in ns: the basis of the
/// `trace_overhead_frac` estimate (spans recorded × cost ÷ traced wall).
#[must_use]
pub fn span_cost_ns() -> f64 {
    const N: u64 = 20_000;
    let tracer = Tracer::new(true);
    let start = Instant::now();
    for i in 0..N {
        tracer.span("calibration", None, i, |_| std::hint::black_box(i));
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("sweep", 0, 100, None),
            // Two workers: [10, 60) and [40, 90) overlap on [40, 60).
            span("device", 10, 60, Some(0)),
            span("device", 40, 90, Some(0)),
            // A grandchild does not reduce the grandparent directly.
            span("inner", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 50, 10]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 0, 15, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn union_merges_touching_and_nested_intervals() {
        assert_eq!(union_ns(vec![(0, 10), (10, 20), (2, 5), (30, 31)]), 21);
        assert_eq!(union_ns(Vec::new()), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nests_when_enabled() {
        let off = Tracer::new(false);
        assert_eq!(off.span("a", None, 0, |id| id), None);
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        on.span("outer", None, 3, |outer| {
            on.span("inner", outer, 3, |_| ());
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut jsonl = Vec::new();
        write_jsonl(&spans, &mut jsonl).unwrap();
        let text = String::from_utf8(jsonl).unwrap();
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
    }
}
