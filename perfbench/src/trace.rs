//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer's public API in a
//! span (name, start, end, parent, request id). Spans live in memory while
//! the run measures and are written out once it ends, so tracing costs a
//! clock read and a vector push per call.
//!
//! A span's *self time* is its duration minus the part of its interval that
//! its children cover. Children are merged as intervals first, so
//! overlapping children (possible once spans come from several threads) are
//! not subtracted twice, and a child reaching past its parent only counts
//! inside the parent.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Static span name, `layer.function`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, [`NO_PARENT`] for roots.
    pub parent: u32,
    /// The request this span served.
    pub request: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
    enabled: bool,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            enabled: true,
        }
    }

    /// A tracer that records nothing: code shared by the traced and the
    /// untraced path runs through it at the cost of a branch per call.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, nested under whatever span is
    /// open, tagged with the current request.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end = self.now();
        out
    }

    /// Runs `f` as the root span of request `id`; spans opened inside it
    /// carry that id.
    pub fn request<R>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.request = id;
        self.span(name, f)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines:
    /// `request name start_ns end_ns parent`.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "request\tname\tstart_ns\tend_ns\tparent")?;
        for span in &self.spans {
            let parent = if span.parent == NO_PARENT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                span.request, span.name, span.start, span.end, parent
            )?;
        }
        Ok(())
    }
}

/// Total length of the union of `intervals`.
pub fn union_length(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        if end <= start {
            continue;
        }
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            let parent = &spans[span.parent as usize];
            let start = span.start.max(parent.start);
            let end = span.end.min(parent.end);
            children[span.parent as usize].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, covered)| span.duration() - union_length(covered))
        .collect()
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotal {
    /// Calls recorded under the name.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Summed inclusive duration, nanoseconds.
    pub total_ns: u64,
}

/// How a trace's wall time divides among its stages.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Totals per stage span name (request roots excluded).
    pub stages: BTreeMap<&'static str, StageTotal>,
    /// Wall time: the summed duration of the request roots.
    pub wall_ns: u64,
    /// Wall time no stage span covers: the benchmark's own glue between
    /// layer calls.
    pub unattributed_ns: u64,
}

impl Breakdown {
    /// Summed self time of every stage.
    pub fn stage_self_ns(&self) -> u64 {
        self.stages.values().map(|stage| stage.self_ns).sum()
    }

    /// Summed self time of the named stages, µs.
    pub fn self_us(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|name| self.stage(name).self_ns)
            .sum::<u64>() as f64
            / 1e3
    }

    /// Totals of one stage (zero when it never ran).
    pub fn stage(&self, name: &str) -> StageTotal {
        self.stages.get(name).copied().unwrap_or_default()
    }
}

/// Splits a trace into per-stage self times plus an unattributed remainder.
///
/// Root spans are requests; every other span is a stage. The remainder is
/// computed independently of the self times — as the part of the requests'
/// intervals that no stage span covers — so `stage self times +
/// unattributed == wall` holds only when stages nest properly inside their
/// requests. An error names the first request that breaks the identity.
pub fn breakdown(spans: &[Span]) -> Result<Breakdown, String> {
    let selfs = self_times(spans);
    let mut out = Breakdown::default();
    let mut covered: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (index, span) in spans.iter().enumerate() {
        if span.parent == NO_PARENT {
            out.wall_ns += span.duration();
            continue;
        }
        let stage = out.stages.entry(span.name).or_default();
        stage.calls += 1;
        stage.self_ns += selfs[index];
        stage.total_ns += span.duration();
        // Attribute the interval to the span's request root.
        let mut root = index;
        while spans[root].parent != NO_PARENT {
            root = spans[root].parent as usize;
        }
        covered[root].push((span.start, span.end));
    }
    for (index, span) in spans.iter().enumerate() {
        if span.parent != NO_PARENT {
            continue;
        }
        let inside: Vec<(u64, u64)> = covered[index]
            .iter()
            .map(|&(s, e)| (s.max(span.start), e.min(span.end)))
            .collect();
        let stage_union = union_length(inside);
        out.unattributed_ns += span.duration() - stage_union;
    }
    let sum = out.stage_self_ns() + out.unattributed_ns;
    if sum != out.wall_ns {
        return Err(format!(
            "stage self times ({} ns) + unattributed ({} ns) != wall ({} ns)",
            out.stage_self_ns(),
            out.unattributed_ns,
            out.wall_ns
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_skips_empty_intervals() {
        assert_eq!(union_length(vec![]), 0);
        assert_eq!(union_length(vec![(10, 40), (30, 60)]), 50);
        assert_eq!(union_length(vec![(30, 60), (10, 40), (70, 80)]), 60);
        assert_eq!(union_length(vec![(5, 5), (9, 3)]), 0);
        assert_eq!(union_length(vec![(0, 100), (10, 20)]), 100);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = [
            span("request", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0),
            // Reaches past its parent: only [90, 100) is inside.
            span("c", 90, 120, 0),
            span("a.child", 15, 25, 1),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![100 - 60, 30 - 10, 30, 30, 10]);
    }

    #[test]
    fn breakdown_adds_up_to_the_wall_time() {
        let spans = [
            span("request", 0, 100, NO_PARENT),
            span("lint", 10, 40, 0),
            span("solve", 40, 70, 0),
            span("solve.inner", 50, 60, 2),
            span("request", 200, 260, NO_PARENT),
            span("lint", 210, 250, 4),
        ];
        let out = breakdown(&spans).unwrap();
        assert_eq!(out.wall_ns, 160);
        assert_eq!(out.stage("lint").self_ns, 70);
        assert_eq!(out.stage("lint").calls, 2);
        assert_eq!(out.stage("solve").self_ns, 20);
        assert_eq!(out.stage("solve").total_ns, 30);
        assert_eq!(out.stage("solve.inner").self_ns, 10);
        assert_eq!(out.unattributed_ns, 40 + 20);
        assert_eq!(out.stage_self_ns() + out.unattributed_ns, out.wall_ns);
    }

    #[test]
    fn overlapping_stages_break_the_identity() {
        // Two sibling stages overlapping in one request: their self times
        // double-count the overlap, so the sum cannot equal the wall.
        let spans = [
            span("request", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0),
        ];
        assert!(breakdown(&spans).is_err());
    }

    #[test]
    fn the_recorder_nests_spans_and_tags_requests() {
        let mut tracer = Tracer::new();
        let value = tracer.request("request", 7, |t| {
            t.span("outer", |t| t.span("inner", |_| 41)) + 1
        });
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert!(spans.iter().all(|s| s.request == 7 && s.start <= s.end));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let out = breakdown(spans).unwrap();
        assert_eq!(out.stage_self_ns() + out.unattributed_ns, out.wall_ns);
        let mut tsv = Vec::new();
        tracer.write_tsv(&mut tsv).unwrap();
        assert_eq!(String::from_utf8(tsv).unwrap().lines().count(), 4);
    }
}
