//! Common types for the synchronization engine.

use std::fmt;

use cmif_core::arc::{Anchor, Strictness};
use cmif_core::node::NodeId;
use cmif_core::time::TimeMs;

/// One temporal point of an event: the beginning or the end of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventPoint {
    /// The node the point belongs to.
    pub node: NodeId,
    /// Whether this is the node's beginning or end.
    pub anchor: Anchor,
}

impl EventPoint {
    /// The beginning of a node.
    pub fn begin(node: NodeId) -> EventPoint {
        EventPoint {
            node,
            anchor: Anchor::Begin,
        }
    }

    /// The end of a node.
    pub fn end(node: NodeId) -> EventPoint {
        EventPoint {
            node,
            anchor: Anchor::End,
        }
    }

    /// The point's dense slot, `2·node.index() + anchor` with begin 0 and
    /// end 1. Arena ids are dense, so slots index flat per-point arrays,
    /// and slot order is (node, anchor) order with begin first.
    pub fn slot(&self) -> usize {
        2 * self.node.index() + usize::from(self.anchor == Anchor::End)
    }
}

impl fmt::Display for EventPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.anchor, self.node)
    }
}

/// Where a scheduling constraint came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOrigin {
    /// A default arc implied by a sequential parent (§5.3.1).
    SequentialOrder,
    /// A default arc implied by a parallel parent (§5.3.1: fork at the
    /// start, join at the end).
    ParallelFork,
    /// The join half of a parallel parent's default synchronization.
    ParallelJoin,
    /// The rigid relation between a leaf's beginning and its end
    /// (its intrinsic duration).
    LeafDuration,
    /// An explicit synchronization arc written in the document; the carrier
    /// is the node whose attribute list holds the arc.
    Explicit {
        /// The node carrying the arc.
        carrier: NodeId,
        /// Index of the arc in the document's arc list (for reporting).
        index: usize,
    },
}

impl ConstraintOrigin {
    /// True for constraints derived from the tree structure rather than
    /// written explicitly.
    pub fn is_default(&self) -> bool {
        !matches!(self, ConstraintOrigin::Explicit { .. })
    }
}

/// One scheduling constraint between two event points.
///
/// Semantics: let `ref = t(source) + offset`. Then the admissible window for
/// the target is `ref + min_delay ≤ t(target) ≤ ref + max_delay` (§5.3.1),
/// with `max_delay = None` meaning unbounded.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// The controlling point.
    pub source: EventPoint,
    /// The controlled point.
    pub target: EventPoint,
    /// Offset added to the source time to obtain the reference time, in
    /// milliseconds (already converted from media units).
    pub offset_ms: i64,
    /// Minimum acceptable delay δ in milliseconds (zero or negative).
    pub min_delay_ms: i64,
    /// Maximum tolerable delay ε in milliseconds, `None` when unbounded.
    pub max_delay_ms: Option<i64>,
    /// Must/May strictness. Default arcs are `Must`.
    pub strictness: Strictness,
    /// Provenance, for conflict reports.
    pub origin: ConstraintOrigin,
}

/// A time computation whose exact result leaves the `i64` millisecond range.
///
/// Bounds are summed exactly (in `i128`) and only then range-checked, so no
/// intermediate step wraps; callers turn this into
/// [`crate::SchedulerError::TimeOverflow`] with their phase name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRange;

/// `time + a + b`, exactly, when the result fits the `i64` millisecond range.
pub(crate) fn shifted(time: TimeMs, a: i64, b: i64) -> Result<TimeMs, OutOfRange> {
    let exact = i128::from(time.0) + i128::from(a) + i128::from(b);
    i64::try_from(exact).map(TimeMs).map_err(|_| OutOfRange)
}

impl Constraint {
    /// The reference time `t(source) + offset` of the constraint's window.
    pub fn reference(&self, source_time: TimeMs) -> Result<TimeMs, OutOfRange> {
        shifted(source_time, self.offset_ms, 0)
    }

    /// The lower bound the constraint imposes on the target given a source
    /// time.
    pub fn lower_bound(&self, source_time: TimeMs) -> Result<TimeMs, OutOfRange> {
        shifted(source_time, self.offset_ms, self.min_delay_ms)
    }

    /// The upper bound the constraint imposes on the target given a source
    /// time, or `None` when unbounded.
    pub fn upper_bound(&self, source_time: TimeMs) -> Result<Option<TimeMs>, OutOfRange> {
        self.max_delay_ms
            .map(|max| shifted(source_time, self.offset_ms, max))
            .transpose()
    }

    /// True when an actual target time satisfies the window.
    pub fn satisfied(&self, source_time: TimeMs, target_time: TimeMs) -> Result<bool, OutOfRange> {
        if target_time < self.lower_bound(source_time)? {
            return Ok(false);
        }
        Ok(match self.upper_bound(source_time)? {
            Some(upper) => target_time <= upper,
            None => true,
        })
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max = match self.max_delay_ms {
            Some(ms) => ms.to_string(),
            None => "inf".to_string(),
        };
        write!(
            f,
            "{} -> {} (+{}ms) window [{}, {}] {}",
            self.source, self.target, self.offset_ms, self.min_delay_ms, max, self.strictness
        )
    }
}

/// Policy options for constraint derivation and solving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleOptions {
    /// Duration assumed for discrete-media leaves (images, labels, text)
    /// that specify no duration of their own. The Evening News graphics, for
    /// example, are shown "for a while" unless an arc ends them.
    pub default_discrete_ms: i64,
    /// When true, a leaf with no known duration inside a parallel parent is
    /// stretched to fill its parent ("fill" behaviour typical of background
    /// graphics); when false it uses `default_discrete_ms`.
    pub fill_unknown_in_parallel: bool,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions {
            default_discrete_ms: 2_000,
            fill_unknown_in_parallel: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmif_core::node::NodeId;

    fn constraint(min: i64, max: Option<i64>) -> Constraint {
        Constraint {
            source: EventPoint::begin(NodeId::from_index(0)),
            target: EventPoint::begin(NodeId::from_index(1)),
            offset_ms: 100,
            min_delay_ms: min,
            max_delay_ms: max,
            strictness: Strictness::Must,
            origin: ConstraintOrigin::SequentialOrder,
        }
    }

    #[test]
    fn event_points_compare_and_display() {
        let a = EventPoint::begin(NodeId::from_index(1));
        let b = EventPoint::end(NodeId::from_index(1));
        assert_ne!(a, b);
        assert_eq!(a.to_string(), "begin(#1)");
        assert_eq!(b.to_string(), "end(#1)");
    }

    #[test]
    fn bounds_are_source_plus_offset_plus_delay() {
        let c = constraint(-50, Some(200));
        let source = TimeMs::from_millis(1_000);
        assert_eq!(c.lower_bound(source).unwrap().as_millis(), 1_050);
        assert_eq!(c.upper_bound(source).unwrap().unwrap().as_millis(), 1_300);
        assert_eq!(c.reference(source).unwrap().as_millis(), 1_100);
    }

    #[test]
    fn bounds_outside_the_time_range_are_errors_not_wraps() {
        let mut c = constraint(-50, Some(i64::MAX));
        c.offset_ms = i64::MAX;
        // MAX + (-50) + 40 fits: the sum is exact, not stepwise.
        assert_eq!(
            c.lower_bound(TimeMs::from_millis(40)),
            Ok(TimeMs(i64::MAX - 10))
        );
        assert_eq!(c.lower_bound(TimeMs::from_millis(60)), Err(OutOfRange));
        assert_eq!(c.upper_bound(TimeMs::ZERO), Err(OutOfRange));
        assert_eq!(c.satisfied(TimeMs::ZERO, TimeMs(i64::MAX)), Err(OutOfRange));
    }

    #[test]
    fn satisfied_checks_both_bounds() {
        let c = constraint(0, Some(100));
        let s = TimeMs::from_millis(0);
        assert_eq!(c.satisfied(s, TimeMs::from_millis(100)), Ok(true));
        assert_eq!(c.satisfied(s, TimeMs::from_millis(200)), Ok(true));
        assert_eq!(c.satisfied(s, TimeMs::from_millis(99)), Ok(false));
        assert_eq!(c.satisfied(s, TimeMs::from_millis(201)), Ok(false));
        let unbounded = constraint(0, None);
        assert_eq!(
            unbounded.satisfied(s, TimeMs::from_millis(10_000)),
            Ok(true)
        );
    }

    #[test]
    fn origin_classification() {
        assert!(ConstraintOrigin::SequentialOrder.is_default());
        assert!(ConstraintOrigin::LeafDuration.is_default());
        assert!(!ConstraintOrigin::Explicit {
            carrier: NodeId::from_index(0),
            index: 0
        }
        .is_default());
    }

    #[test]
    fn constraint_display_mentions_window() {
        let c = constraint(-10, None);
        let text = c.to_string();
        assert!(text.contains("[-10, inf]"));
        assert!(text.contains("must"));
    }

    #[test]
    fn default_options() {
        let options = ScheduleOptions::default();
        assert_eq!(options.default_discrete_ms, 2_000);
        assert!(!options.fill_unknown_in_parallel);
    }
}
