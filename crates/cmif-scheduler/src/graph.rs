//! The constraint graph and the one relaxation kernel behind every ASAP
//! fixpoint in the workspace.
//!
//! [`ConstraintGraph`] separates **derivation** ([`ConstraintGraph::derive`]:
//! structural arcs, leaf durations, explicit arcs) from **relaxation**
//! ([`ConstraintGraph::relax`]): the fixpoint of the document-derived
//! constraints is cached, and *injected* constraints (conditional arcs,
//! reader choices) re-relax from it. The warm start is sound because
//! relaxation is an inflationary monotone fixpoint over `max`: starting
//! anywhere below the least fixpoint of base ∪ injected converges to
//! exactly that fixpoint.
//!
//! `ConstraintKernel` is the relaxation itself, shared by solve (which
//! every live edit runs, see [`crate::author::EditSession`]), playback
//! ([`causal_times`], with per-leaf startup latencies) and `cmif-lint`.
//! Lint relaxes a document's graph once, through
//! [`ConstraintGraph::base_fixpoint`], and hands the graph on, so the solve
//! that follows does not relax again; only when that relax has found a
//! positive cycle does lint run [`relax_traced`] to recover the cycle's
//! route. A fixpoint lives only as long as its graph: every graph starts
//! unrelaxed, and nothing carries a fixpoint from one graph to the next.
//! The kernel:
//!
//! * **Dense points.** An event point lives at slot `2·node.index() +
//!   anchor` — arena ids are dense and stable across edits, so nothing is
//!   interned and [`PointTimes`] is a flat vector.
//! * **CSR adjacency.** One flat edge array grouped by source slot plus
//!   per-slot offsets, built once per constraint set. Constraints with an
//!   endpoint outside the document's points are ignored.
//! * **Ordering.** Kahn's algorithm orders the acyclic part; each of its
//!   edges is relaxed exactly once, in that order. Only points on or
//!   downstream of a cycle fall back to a FIFO worklist processed in
//!   rounds. Without a positive cycle every longest path is simple, so the
//!   worklist drains within |points| rounds; a round beyond that means a
//!   positive cycle, reported as [`SchedulerError::ConstraintCycle`] with
//!   the caller's phase name. Zero-weight cycles never raise a point and so
//!   converge.
//! * **Overflow.** Bounds are summed exactly (`i128`) and range-checked
//!   once the iteration has settled: a positive cycle takes precedence,
//!   otherwise a least fixpoint beyond `i64` milliseconds is
//!   [`SchedulerError::TimeOverflow`]. Window checks
//!   ([`window_violations`]) apply the same rule through
//!   [`Constraint::reference`]/[`Constraint::upper_bound`].

use std::ops::Index;

use cmif_core::descriptor::DescriptorResolver;
use cmif_core::node::NodeId;
use cmif_core::time::TimeMs;
use cmif_core::tree::Document;

use crate::defaults::derive_constraints;
use crate::error::{Result, SchedulerError};
use crate::solver::{build_schedule, SolveResult, WindowViolation};
use crate::types::{Constraint, EventPoint, OutOfRange, ScheduleOptions};

/// Marks a slot that is not an event point of the document.
const ABSENT: TimeMs = TimeMs(i64::MIN);

/// The event point at a dense slot.
fn point_at(slot: usize) -> EventPoint {
    // Slots come from `EventPoint::slot` over `u32` node indices, so this
    // fits.
    let node = NodeId::from_index((slot / 2) as u32);
    if slot % 2 == 0 {
        EventPoint::begin(node)
    } else {
        EventPoint::end(node)
    }
}

/// The assignment of a time to every event point of a document — the
/// output of one relaxation run, stored densely by point slot (see the
/// [module docs](self)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PointTimes {
    times: Vec<TimeMs>,
    len: usize,
}

impl PointTimes {
    /// Every event point of the document (begin and end of each node in
    /// preorder) at time zero.
    pub fn zeroed(doc: &Document) -> PointTimes {
        let mut times = PointTimes {
            times: vec![ABSENT; 2 * doc.node_count()],
            len: 0,
        };
        for node in doc.preorder() {
            times.insert_zero(EventPoint::begin(node));
            times.insert_zero(EventPoint::end(node));
        }
        times
    }

    /// The time of a point, `None` when it is not a point of the document.
    pub fn get(&self, point: &EventPoint) -> Option<TimeMs> {
        self.times
            .get(point.slot())
            .copied()
            .filter(|t| *t != ABSENT)
    }

    /// True when the point belongs to the document.
    pub fn contains(&self, point: &EventPoint) -> bool {
        self.get(point).is_some()
    }

    /// Number of event points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no event points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every event point with its time, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (EventPoint, TimeMs)> + '_ {
        self.times
            .iter()
            .enumerate()
            .filter(|(_, t)| **t != ABSENT)
            .map(|(slot, t)| (point_at(slot), *t))
    }

    /// Puts a point at time zero, adding it when it is new.
    pub(crate) fn insert_zero(&mut self, point: EventPoint) {
        let slot = point.slot();
        if slot >= self.times.len() {
            self.times.resize(slot + 1, ABSENT);
        }
        if self.times[slot] == ABSENT {
            self.len += 1;
        }
        self.times[slot] = TimeMs::ZERO;
    }

    fn present(&self, slot: usize) -> bool {
        self.times.get(slot).is_some_and(|t| *t != ABSENT)
    }
}

impl Index<&EventPoint> for PointTimes {
    type Output = TimeMs;

    /// The time of a point; panics when it is not a point of the document,
    /// like indexing a map with a missing key.
    fn index(&self, point: &EventPoint) -> &TimeMs {
        match self.times.get(point.slot()) {
            Some(t) if *t != ABSENT => t,
            _ => panic!("{point} is not an event point of the document"),
        }
    }
}

/// One CSR edge: a constraint from the slot whose range holds it.
#[derive(Debug, Clone, Copy)]
struct Edge {
    target: usize,
    /// Index of the constraint in the set the kernel was built from.
    constraint: usize,
    /// `offset + min_delay`, exactly.
    weight: i128,
}

/// Why a relaxation stopped short of a fixpoint.
enum Stop {
    /// A positive cycle; the slot was raised past the round budget.
    Cycle(usize),
    /// The least fixpoint puts this slot beyond `i64` milliseconds.
    Overflow(usize),
}

/// The relaxation kernel of one constraint set: CSR adjacency over the
/// dense point slots plus the set's topological split. See the
/// [module docs](self) for the algorithm. Every relaxation runs over the
/// point set the kernel was built from.
#[derive(Debug, Clone)]
pub(crate) struct ConstraintKernel {
    /// `offsets[s]..offsets[s + 1]` is slot `s`'s range of `edges`.
    offsets: Vec<usize>,
    edges: Vec<Edge>,
    /// Points whose every predecessor is acyclic, in Kahn order.
    order: Vec<usize>,
    /// Points on or downstream of a cycle, in slot order.
    cyclic: Vec<usize>,
    /// Number of event points (the round budget).
    points: usize,
}

impl ConstraintKernel {
    /// Builds the kernel of `constraints` over the points of `times`
    /// (usually [`PointTimes::zeroed`]). Constraint indices — in the
    /// traced route of a cycle — count positions in `constraints`.
    pub(crate) fn build<'c>(
        times: &PointTimes,
        constraints: impl IntoIterator<Item = &'c Constraint>,
    ) -> ConstraintKernel {
        let slots = times.times.len();
        let mut raw: Vec<(usize, Edge)> = Vec::new();
        for (index, constraint) in constraints.into_iter().enumerate() {
            let (source, target) = (constraint.source.slot(), constraint.target.slot());
            if times.present(source) && times.present(target) {
                let weight = i128::from(constraint.offset_ms) + i128::from(constraint.min_delay_ms);
                raw.push((
                    source,
                    Edge {
                        target,
                        constraint: index,
                        weight,
                    },
                ));
            }
        }

        // Group by source slot with a counting sort: it is stable, so each
        // slot's edges keep constraint order. `offsets[s + 1]` serves as
        // slot `s`'s fill cursor, so it ends at the end of `s`'s range.
        let mut offsets = vec![0usize; slots + 1];
        let mut in_degree = vec![0usize; slots];
        for (source, edge) in &raw {
            offsets[source + 1] += 1;
            in_degree[edge.target] += 1;
        }
        let mut start = 0;
        for slot in 0..slots {
            let count = offsets[slot + 1];
            offsets[slot + 1] = start;
            start += count;
        }
        let unset = Edge {
            target: 0,
            constraint: 0,
            weight: 0,
        };
        let mut edges = vec![unset; raw.len()];
        for (source, edge) in raw {
            edges[offsets[source + 1]] = edge;
            offsets[source + 1] += 1;
        }

        // Kahn: whatever never reaches in-degree zero is on or downstream
        // of a cycle.
        let mut order: Vec<usize> = (0..slots)
            .filter(|&s| times.present(s) && in_degree[s] == 0)
            .collect();
        let mut next = 0;
        while next < order.len() {
            let slot = order[next];
            next += 1;
            for edge in &edges[offsets[slot]..offsets[slot + 1]] {
                in_degree[edge.target] -= 1;
                if in_degree[edge.target] == 0 {
                    order.push(edge.target);
                }
            }
        }
        let cyclic = (0..slots)
            .filter(|&s| times.present(s) && in_degree[s] > 0)
            .collect();
        ConstraintKernel {
            offsets,
            edges,
            order,
            cyclic,
            points: times.len(),
        }
    }

    /// Raises `times` to the least fixpoint above them.
    pub(crate) fn relax(&self, times: &mut PointTimes, phase: &'static str) -> Result<()> {
        self.run(times, &[], None)
            .map_err(|stop| self.error(stop, phase))
    }

    fn error(&self, stop: Stop, phase: &'static str) -> SchedulerError {
        match stop {
            Stop::Cycle(_) => SchedulerError::ConstraintCycle {
                phase,
                points: self.points,
            },
            Stop::Overflow(slot) => SchedulerError::TimeOverflow {
                phase,
                point: point_at(slot),
            },
        }
    }

    fn out(&self, slot: usize) -> &[Edge] {
        &self.edges[self.offsets[slot]..self.offsets[slot + 1]]
    }

    /// The kernel proper. `push` (empty, or one entry per slot) is added to
    /// every bound on its slot; `preds` records, per slot, the source slot
    /// and constraint index of the bound that last raised it.
    fn run(
        &self,
        times: &mut PointTimes,
        push: &[i64],
        mut preds: Option<&mut [Option<(usize, usize)>]>,
    ) -> std::result::Result<(), Stop> {
        let mut value: Vec<i128> = times.times.iter().map(|t| i128::from(t.0)).collect();

        // The acyclic part: every edge once, sources final before use.
        for &slot in &self.order {
            for edge in self.out(slot) {
                raise(&mut value, push, preds.as_deref_mut(), slot, edge);
            }
        }

        // Points on or downstream of a cycle: FIFO rounds. Round r holds
        // the points raised during round r - 1, each at most once.
        if !self.cyclic.is_empty() {
            let mut queued = vec![false; value.len()];
            let mut round = self.cyclic.clone();
            for &slot in &round {
                queued[slot] = true;
            }
            let mut next = Vec::new();
            let mut rounds = 0;
            while let Some(&first) = round.first() {
                rounds += 1;
                if rounds > self.points {
                    return Err(Stop::Cycle(first));
                }
                for &slot in &round {
                    queued[slot] = false;
                    for edge in self.out(slot) {
                        if raise(&mut value, push, preds.as_deref_mut(), slot, edge)
                            && !queued[edge.target]
                        {
                            queued[edge.target] = true;
                            next.push(edge.target);
                        }
                    }
                }
                std::mem::swap(&mut round, &mut next);
                next.clear();
            }
        }

        // Values only ever rise from `i64` starting points, so the upper
        // end of the range is the only one to check. Reporting the first
        // offender in topological order names the cause, not a point
        // downstream of it.
        let overflowed = |slot: &&usize| value[**slot] > i128::from(i64::MAX);
        if let Some(&slot) = self.order.iter().chain(&self.cyclic).find(overflowed) {
            return Err(Stop::Overflow(slot));
        }
        for (time, exact) in times.times.iter_mut().zip(value) {
            // In range: checked just above.
            *time = TimeMs(exact as i64);
        }
        Ok(())
    }

    /// Walks the predecessor chain back from a point raised past the round
    /// budget. After |points| steps the walk is on a cycle of the
    /// predecessor graph (every chain into such a point is longer than any
    /// simple path could justify), and that cycle is a positive one.
    fn cycle_route(&self, preds: &[Option<(usize, usize)>], from: usize) -> Vec<usize> {
        let mut probe = from;
        for _ in 0..self.points {
            match preds[probe] {
                Some((source, _)) => probe = source,
                None => return Vec::new(),
            }
        }
        let anchor = probe;
        let mut route = Vec::new();
        let mut cursor = anchor;
        loop {
            let Some((source, constraint)) = preds[cursor] else {
                return Vec::new();
            };
            route.push(constraint);
            cursor = source;
            if cursor == anchor {
                break;
            }
            if route.len() > self.points {
                return Vec::new();
            }
        }
        route.reverse();
        route
    }
}

/// Relaxes `constraints` over the document's event points from zero and,
/// on [`SchedulerError::ConstraintCycle`], recovers the cycle: the second
/// value is its route as indices into `constraints`, in forward order (the
/// first one's source closes the loop), or empty when none was recovered.
/// Tracking predecessors costs a pass, so `cmif-lint` calls this only after
/// a plain relax ([`ConstraintGraph::base_fixpoint`]) has returned
/// `ConstraintCycle`.
pub fn relax_traced(
    doc: &Document,
    constraints: &[Constraint],
    phase: &'static str,
) -> (Result<PointTimes>, Vec<usize>) {
    let mut times = PointTimes::zeroed(doc);
    let kernel = ConstraintKernel::build(&times, constraints);
    let mut preds = vec![None; times.times.len()];
    let outcome = kernel.run(&mut times, &[], Some(&mut preds));
    let route = match outcome {
        Err(Stop::Cycle(slot)) => kernel.cycle_route(&preds, slot),
        _ => Vec::new(),
    };
    (
        outcome
            .map(|_| times)
            .map_err(|stop| kernel.error(stop, phase)),
        route,
    )
}

/// Playback's causal timeline: relaxes `constraints` over the document's
/// event points from zero, with each leaf's startup latency added to every
/// bound on its begin point. The result is what actually happened on a
/// jittery device — a late controlling event pushes everything it controls
/// later. Latencies of nodes that are not event points of the document are
/// ignored. [`crate::session::PlayerSession`] relaxes every revision it
/// plays through this function; the phase of its errors is `"playback"`.
pub fn causal_times<'c, 'l>(
    doc: &Document,
    constraints: impl IntoIterator<Item = &'c Constraint>,
    latencies: impl IntoIterator<Item = (&'l NodeId, &'l i64)>,
) -> Result<PointTimes> {
    let mut times = PointTimes::zeroed(doc);
    let kernel = ConstraintKernel::build(&times, constraints);
    let mut push = vec![0i64; times.times.len()];
    for (node, latency) in latencies {
        if let Some(slot) = push.get_mut(EventPoint::begin(*node).slot()) {
            *slot = *latency;
        }
    }
    kernel
        .run(&mut times, &push, None)
        .map_err(|stop| kernel.error(stop, "playback"))?;
    Ok(times)
}

/// Applies one edge: raises its target to the edge's bound when that is
/// higher, recording the predecessor. True when the target rose.
fn raise(
    value: &mut [i128],
    push: &[i64],
    preds: Option<&mut [Option<(usize, usize)>]>,
    source: usize,
    edge: &Edge,
) -> bool {
    let push = push.get(edge.target).copied().unwrap_or(0);
    let bound = value[source] + edge.weight + i128::from(push);
    if bound <= value[edge.target] {
        return false;
    }
    value[edge.target] = bound;
    if let Some(preds) = preds {
        preds[edge.target] = Some((source, edge.constraint));
    }
    true
}

/// Checks every constraint's upper-bound window against solved times.
///
/// A bound, reference or window edge outside `i64` milliseconds is
/// [`SchedulerError::TimeOverflow`] with the given phase.
pub fn window_violations<'c>(
    constraints: impl IntoIterator<Item = &'c Constraint>,
    times: &PointTimes,
    phase: &'static str,
) -> Result<Vec<WindowViolation>> {
    let mut violations = Vec::new();
    for constraint in constraints {
        let overflow = |OutOfRange| SchedulerError::TimeOverflow {
            phase,
            point: constraint.target,
        };
        let (Some(source_time), Some(actual)) =
            (times.get(&constraint.source), times.get(&constraint.target))
        else {
            continue;
        };
        if let Some(latest) = constraint.upper_bound(source_time).map_err(overflow)? {
            if actual > latest {
                violations.push(WindowViolation {
                    constraint: constraint.clone(),
                    reference: constraint.reference(source_time).map_err(overflow)?,
                    latest,
                    actual,
                });
            }
        }
    }
    Ok(violations)
}

/// A document's constraint set with cached relaxation state.
///
/// Build it once per document ([`ConstraintGraph::derive`] or
/// [`ConstraintGraph::from_constraints`]), then [`inject`] extra constraints
/// and [`relax`] as often as the presentation context changes: only the
/// first relaxation pays for the full fixpoint, later ones warm-start from
/// it.
///
/// [`inject`]: ConstraintGraph::inject
/// [`relax`]: ConstraintGraph::relax
#[derive(Debug, Clone)]
pub struct ConstraintGraph {
    /// Constraints derived from (or supplied for) the document itself.
    base: Vec<Constraint>,
    /// Constraints injected after construction (conditional arcs, reader
    /// choices). Cleared by [`ConstraintGraph::retract_injected`].
    injected: Vec<Constraint>,
    /// Every event point of the document at time zero.
    zero: PointTimes,
    /// Cached fixpoint over `base` alone, lazily computed.
    base_times: Option<PointTimes>,
}

impl ConstraintGraph {
    /// Derives the document's constraint set (structural arcs, leaf
    /// durations, explicit arcs) and prepares it for relaxation.
    pub fn derive(
        doc: &Document,
        resolver: &dyn DescriptorResolver,
        options: &ScheduleOptions,
    ) -> Result<ConstraintGraph> {
        let constraints = derive_constraints(doc, resolver, options)?;
        ConstraintGraph::from_constraints(doc, constraints)
    }

    /// Wraps a pre-built constraint set (the derivation has already
    /// happened, e.g. through `cmif-hyper`'s conditional-arc expansion).
    pub fn from_constraints(
        doc: &Document,
        constraints: Vec<Constraint>,
    ) -> Result<ConstraintGraph> {
        // `root()` also rejects empty documents up front.
        doc.root()?;
        Ok(ConstraintGraph {
            base: constraints,
            injected: Vec::new(),
            zero: PointTimes::zeroed(doc),
            base_times: None,
        })
    }

    /// Adds one constraint on top of the derived set without invalidating
    /// the cached base fixpoint.
    pub fn inject(&mut self, constraint: Constraint) {
        self.injected.push(constraint);
    }

    /// Adds several constraints on top of the derived set.
    pub fn inject_all(&mut self, constraints: impl IntoIterator<Item = Constraint>) {
        self.injected.extend(constraints);
    }

    /// Removes every injected constraint, returning the graph to the pure
    /// document-derived set. The cached base fixpoint survives.
    pub fn retract_injected(&mut self) {
        self.injected.clear();
    }

    /// The base (document-derived) constraints.
    pub fn base_constraints(&self) -> &[Constraint] {
        &self.base
    }

    /// The currently injected constraints.
    pub fn injected_constraints(&self) -> &[Constraint] {
        &self.injected
    }

    /// All constraints, base first, in relaxation order.
    pub fn constraints(&self) -> impl Iterator<Item = &Constraint> {
        self.base.iter().chain(self.injected.iter())
    }

    /// Number of constraints (base plus injected).
    pub fn len(&self) -> usize {
        self.base.len() + self.injected.len()
    }

    /// True when the graph holds no constraints at all.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.injected.is_empty()
    }

    /// Number of event points in the graph.
    pub fn point_count(&self) -> usize {
        self.zero.len()
    }

    /// The ASAP fixpoint of the base constraints alone, ignoring injected
    /// ones: relaxed on the first call and cached, so later calls and every
    /// [`ConstraintGraph::relax`] start from it. Fails like `relax`.
    pub fn base_fixpoint(&mut self) -> Result<&PointTimes> {
        let times = match self.base_times.take() {
            Some(times) => times,
            None => {
                let mut times = self.zero.clone();
                ConstraintKernel::build(&times, &self.base).relax(&mut times, "solve")?;
                times
            }
        };
        Ok(self.base_times.insert(times))
    }

    /// Relaxes the graph to its ASAP fixpoint.
    ///
    /// The fixpoint of the base constraints is computed once and cached
    /// ([`ConstraintGraph::base_fixpoint`]); when constraints have been
    /// injected, relaxation warm-starts from the cached fixpoint. Returns
    /// [`SchedulerError::ConstraintCycle`] when the constraints force events
    /// ever later and [`SchedulerError::TimeOverflow`] when they force one
    /// past the representable range.
    pub fn relax(&mut self) -> Result<PointTimes> {
        let mut times = self.base_fixpoint()?.clone();
        if !self.injected.is_empty() {
            let combined = self.base.iter().chain(self.injected.iter());
            ConstraintKernel::build(&times, combined).relax(&mut times, "solve")?;
        }
        Ok(times)
    }

    /// Relaxes the graph and assembles the full [`SolveResult`]: the ASAP
    /// schedule, the upper-bound (window) verification, and the constraint
    /// set the schedule was derived from.
    pub fn solve(
        &mut self,
        doc: &Document,
        resolver: &dyn DescriptorResolver,
    ) -> Result<SolveResult> {
        let times = self.relax()?;
        let violations = window_violations(self.constraints(), &times, "solve")?;
        let schedule = build_schedule(doc, resolver, &times)?;
        Ok(SolveResult {
            schedule,
            violations,
            constraints: self.constraints().cloned().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmif_core::arc::{Strictness, SyncArc};
    use cmif_core::prelude::*;
    use cmif_core::time::MediaTime;

    use crate::types::ConstraintOrigin;

    fn audio(key: &str, secs: i64) -> DataDescriptor {
        DataDescriptor::new(key, MediaKind::Audio, "pcm8").with_duration(TimeMs::from_secs(secs))
    }

    fn two_leaf_par() -> Document {
        DocumentBuilder::new("graph")
            .channel("audio", MediaKind::Audio)
            .channel("caption", MediaKind::Text)
            .descriptor(audio("a", 4))
            .root_par(|root| {
                root.ext("voice", "audio", "a");
                root.imm_text("line", "caption", "hi", 1_500);
            })
            .build()
            .unwrap()
    }

    fn arc_constraint(doc: &Document, source: &str, target: &str, offset_secs: i64) -> Constraint {
        let source = doc.find(source).unwrap();
        let target = doc.find(target).unwrap();
        Constraint {
            source: EventPoint::begin(source),
            target: EventPoint::begin(target),
            offset_ms: offset_secs * 1_000,
            min_delay_ms: 0,
            max_delay_ms: None,
            strictness: Strictness::Must,
            origin: ConstraintOrigin::Explicit {
                carrier: target,
                index: usize::MAX,
            },
        }
    }

    #[test]
    fn repeated_solves_of_one_graph_are_identical() {
        let doc = two_leaf_par();
        let mut graph =
            ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default()).unwrap();
        let first = graph.solve(&doc, &doc.catalog).unwrap();
        // The second solve reuses the cached base fixpoint.
        let second = graph.solve(&doc, &doc.catalog).unwrap();
        assert_eq!(first, second);
        let mut fresh =
            ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default()).unwrap();
        assert_eq!(fresh.solve(&doc, &doc.catalog).unwrap(), first);
    }

    #[test]
    fn injected_constraints_re_relax_without_re_deriving() {
        let doc = two_leaf_par();
        let mut graph =
            ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default()).unwrap();
        let line = doc.find("/line").unwrap();

        // Cold solve: the caption starts at t=0.
        let before = graph.solve(&doc, &doc.catalog).unwrap();
        assert_eq!(before.schedule.node_times[&line].0, TimeMs::ZERO);
        let base_len = graph.base_constraints().len();

        // Inject a "wait 2 s into the voice" constraint and re-relax: same
        // graph object, no re-derivation, new fixpoint.
        graph.inject(arc_constraint(&doc, "/voice", "/line", 2));
        let after = graph.solve(&doc, &doc.catalog).unwrap();
        assert_eq!(after.schedule.node_times[&line].0, TimeMs::from_secs(2));
        assert_eq!(graph.base_constraints().len(), base_len);
        assert_eq!(graph.injected_constraints().len(), 1);

        // Retracting the injection restores the original fixpoint.
        graph.retract_injected();
        let restored = graph.solve(&doc, &doc.catalog).unwrap();
        assert_eq!(restored.schedule.node_times[&line].0, TimeMs::ZERO);
    }

    #[test]
    fn warm_start_equals_cold_solve_of_the_combined_set() {
        let doc = two_leaf_par();
        let mut warm =
            ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default()).unwrap();
        warm.relax().unwrap(); // populate the base cache
        warm.inject(arc_constraint(&doc, "/voice", "/line", 3));
        let warm_result = warm.solve(&doc, &doc.catalog).unwrap();

        // Cold: derive and add the same arc through the document itself.
        let mut doc2 = two_leaf_par();
        let line = doc2.find("/line").unwrap();
        doc2.add_arc(
            line,
            SyncArc::hard_start("../voice", "").with_offset(MediaTime::seconds(3)),
        )
        .unwrap();
        let mut cold =
            ConstraintGraph::derive(&doc2, &doc2.catalog, &ScheduleOptions::default()).unwrap();
        let cold_result = cold.solve(&doc2, &doc2.catalog).unwrap();

        assert_eq!(
            warm_result.schedule.node_times[&line],
            cold_result.schedule.node_times[&line]
        );
        assert_eq!(
            warm_result.schedule.total_duration,
            cold_result.schedule.total_duration
        );
    }

    #[test]
    fn injected_cycle_is_detected_and_graph_stays_usable() {
        let doc = two_leaf_par();
        let mut graph =
            ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default()).unwrap();
        graph.inject(arc_constraint(&doc, "/voice", "/line", 1));
        graph.inject(arc_constraint(&doc, "/line", "/voice", 1));
        let err = graph.relax().unwrap_err();
        assert!(matches!(
            err,
            SchedulerError::ConstraintCycle { phase: "solve", .. }
        ));
        // The cycle lived in the injected set only: retract and recover.
        graph.retract_injected();
        assert!(graph.relax().is_ok());
    }

    #[test]
    fn latency_relaxation_pushes_begin_points_only() {
        let doc = two_leaf_par();
        let graph =
            ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default()).unwrap();
        let voice = doc.find("/voice").unwrap();
        let times = causal_times(&doc, graph.constraints(), [(&voice, &250)]).unwrap();
        assert_eq!(times[&EventPoint::begin(voice)], TimeMs::from_millis(250));
        // The leaf's rigid duration carries the latency to its end.
        assert_eq!(times[&EventPoint::end(voice)], TimeMs::from_millis(4_250));
    }

    #[test]
    fn accessors_report_sizes() {
        let doc = two_leaf_par();
        let mut graph =
            ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default()).unwrap();
        assert!(!graph.is_empty());
        assert_eq!(graph.point_count(), doc.preorder().len() * 2);
        let before = graph.len();
        graph.inject(arc_constraint(&doc, "/voice", "/line", 1));
        assert_eq!(graph.len(), before + 1);
        assert_eq!(graph.constraints().count(), graph.len());
    }
}
