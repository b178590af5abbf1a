//! The scheduling solver.
//!
//! Given the constraint set of a document (default structural arcs, leaf
//! durations, explicit arcs — see [`crate::defaults`]), the solver computes
//! an **ASAP schedule**: the earliest admissible time for every event point,
//! respecting every lower bound (`t_ref + δ`). The sequential default
//! relation is "start the successor as soon as possible" and the parallel
//! default is "start the successor when the slowest parallel node finishes"
//! (§5.3.1); ASAP over the lower-bound graph realises exactly those rules.
//!
//! Upper bounds (`t_ref + ε`) are then *verified* against the ASAP times.
//! A violated `Must` window and a lower-bound cycle are the paper's first
//! conflict class ("an unreasonable synchronization constraint may have been
//! defined", §5.3.3); they are reported, not silently repaired, because the
//! paper assigns repair to authoring and filter tools, not to the document
//! layer.

use std::collections::HashMap;

use crate::error::Result;
use cmif_core::arc::{Anchor, Strictness};
use cmif_core::descriptor::DescriptorResolver;
use cmif_core::node::NodeId;
use cmif_core::time::TimeMs;
use cmif_core::tree::Document;

use crate::graph::PointTimes;
use crate::timeline::{Schedule, TimelineEntry};
use crate::types::{Constraint, EventPoint};

/// A window (upper-bound) violation discovered while verifying the ASAP
/// schedule against the constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowViolation {
    /// The violated constraint.
    pub constraint: Constraint,
    /// The reference time (`t(source) + offset`).
    pub reference: TimeMs,
    /// The latest admissible time (`reference + ε`).
    pub latest: TimeMs,
    /// The time the schedule actually assigns to the target.
    pub actual: TimeMs,
}

impl WindowViolation {
    /// How far past the window the target lands, in milliseconds.
    pub fn excess_ms(&self) -> i64 {
        self.actual.as_millis() - self.latest.as_millis()
    }

    /// True when the violated constraint was a `Must` constraint.
    pub fn is_must(&self) -> bool {
        self.constraint.strictness == Strictness::Must
    }
}

/// The result of solving a document's constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The ASAP schedule.
    pub schedule: Schedule,
    /// Upper-bound windows the ASAP schedule cannot satisfy.
    pub violations: Vec<WindowViolation>,
    /// The constraints the schedule was derived from (useful for reports
    /// and for the playback simulator).
    pub constraints: Vec<Constraint>,
}

impl SolveResult {
    /// True when no `Must` window is violated (the document is presentable
    /// as authored on an ideal device).
    pub fn is_consistent(&self) -> bool {
        !self.violations.iter().any(WindowViolation::is_must)
    }
}

pub(crate) fn build_schedule(
    doc: &Document,
    resolver: &dyn DescriptorResolver,
    times: &PointTimes,
) -> Result<Schedule> {
    let root = doc.root()?;
    let mut entries = Vec::new();
    for leaf in doc.leaves() {
        let begin = times[&EventPoint::begin(leaf)];
        let end = times[&EventPoint::end(leaf)].max(begin);
        let channel = doc
            .channel_of(leaf)?
            .unwrap_or_else(cmif_core::tree::unassigned_channel);
        // Named leaves copy their interned name. Unnamed leaves fall back
        // to the `#<index>` node-id form: its vocabulary is bounded by the
        // largest arena ever seen, so a server playing an unbounded stream
        // of documents cannot grow the pool through unnamed leaves (a path
        // rendering would leak one pool entry per distinct structure).
        let name = match doc.node(leaf)?.name_symbol() {
            Some(name) => name,
            None => cmif_core::symbol::Symbol::from_owned(format!("{leaf}")),
        };
        let medium = doc.medium_of(leaf, resolver)?;
        entries.push(TimelineEntry {
            node: leaf,
            name,
            channel,
            medium,
            begin,
            end,
        });
    }
    entries.sort_by_key(|e| (e.begin, e.node));

    let mut node_times: HashMap<NodeId, (TimeMs, TimeMs)> = HashMap::new();
    for node in doc.preorder() {
        let begin = times[&EventPoint::begin(node)];
        let end = times[&EventPoint::end(node)].max(begin);
        node_times.insert(node, (begin, end));
    }
    let total = node_times
        .get(&root)
        .map(|(_, end)| *end)
        .unwrap_or(TimeMs::ZERO);
    Ok(Schedule {
        entries,
        node_times,
        total_duration: total,
    })
}

/// Convenience: the time assigned to one event point in a solve result.
pub fn point_time(result: &SolveResult, node: NodeId, anchor: Anchor) -> Option<TimeMs> {
    result
        .schedule
        .node_times
        .get(&node)
        .map(|(begin, end)| match anchor {
            Anchor::Begin => *begin,
            Anchor::End => *end,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ConstraintGraph;
    use crate::types::ScheduleOptions;
    use cmif_core::arc::SyncArc;
    use cmif_core::prelude::*;

    fn audio(key: &str, secs: i64) -> DataDescriptor {
        DataDescriptor::new(key, MediaKind::Audio, "pcm8").with_duration(TimeMs::from_secs(secs))
    }

    fn solve_doc(doc: &Document) -> SolveResult {
        ConstraintGraph::derive(doc, &doc.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(doc, &doc.catalog)
            .unwrap()
    }

    #[test]
    fn sequential_children_run_back_to_back() {
        let doc = DocumentBuilder::new("seq")
            .channel("audio", MediaKind::Audio)
            .descriptor(audio("a", 2))
            .descriptor(audio("b", 3))
            .root_seq(|root| {
                root.ext("first", "audio", "a");
                root.ext("second", "audio", "b");
            })
            .build()
            .unwrap();
        let result = solve_doc(&doc);
        assert!(result.is_consistent());
        let first = doc.find("/first").unwrap();
        let second = doc.find("/second").unwrap();
        assert_eq!(
            result.schedule.node_times[&first],
            (TimeMs::ZERO, TimeMs::from_secs(2))
        );
        assert_eq!(
            result.schedule.node_times[&second],
            (TimeMs::from_secs(2), TimeMs::from_secs(5))
        );
        assert_eq!(result.schedule.total_duration, TimeMs::from_secs(5));
    }

    #[test]
    fn parallel_children_start_together_and_parent_ends_with_slowest() {
        let doc = DocumentBuilder::new("par")
            .channel("audio", MediaKind::Audio)
            .channel("caption", MediaKind::Text)
            .descriptor(audio("a", 4))
            .root_par(|root| {
                root.ext("voice", "audio", "a");
                root.imm_text("line", "caption", "hi", 1_500);
            })
            .build()
            .unwrap();
        let result = solve_doc(&doc);
        let voice = doc.find("/voice").unwrap();
        let line = doc.find("/line").unwrap();
        assert_eq!(result.schedule.node_times[&voice].0, TimeMs::ZERO);
        assert_eq!(result.schedule.node_times[&line].0, TimeMs::ZERO);
        // Parent (root) ends when the slowest child ends.
        assert_eq!(result.schedule.total_duration, TimeMs::from_secs(4));
    }

    #[test]
    fn nested_seq_of_pars_accumulates() {
        let doc = DocumentBuilder::new("news")
            .channel("audio", MediaKind::Audio)
            .channel("caption", MediaKind::Text)
            .descriptor(audio("s1", 5))
            .descriptor(audio("s2", 7))
            .root_seq(|news| {
                news.par("story-1", |s| {
                    s.ext("voice", "audio", "s1");
                    s.imm_text("line", "caption", "one", 2_000);
                });
                news.par("story-2", |s| {
                    s.ext("voice", "audio", "s2");
                    s.imm_text("line", "caption", "two", 2_000);
                });
            })
            .build()
            .unwrap();
        let result = solve_doc(&doc);
        assert!(result.is_consistent());
        assert_eq!(result.schedule.total_duration, TimeMs::from_secs(12));
        let story2_voice = doc.find("/story-2/voice").unwrap();
        assert_eq!(
            result.schedule.node_times[&story2_voice].0,
            TimeMs::from_secs(5)
        );
    }

    #[test]
    fn explicit_offset_arc_delays_the_target() {
        let mut doc = DocumentBuilder::new("offset")
            .channel("audio", MediaKind::Audio)
            .channel("graphic", MediaKind::Image)
            .descriptor(audio("speech", 10))
            .root_par(|root| {
                root.ext("voice", "audio", "speech");
                root.ext_with("painting", "graphic", "speech", |n| {
                    n.duration_ms(3_000);
                });
            })
            .build()
            .unwrap();
        let painting = doc.find("/painting").unwrap();
        doc.add_arc(
            painting,
            SyncArc::hard_start("../voice", "").with_offset(MediaTime::seconds(4)),
        )
        .unwrap();
        let result = solve_doc(&doc);
        assert_eq!(
            result.schedule.node_times[&painting].0,
            TimeMs::from_secs(4)
        );
        assert_eq!(
            result.schedule.node_times[&painting].1,
            TimeMs::from_secs(7)
        );
    }

    #[test]
    fn end_anchored_arc_forces_freeze_frame_gap() {
        // Figure 10: "a new video sequence may not start until the caption
        // text is over" — an arc from the end of a caption to the begin of
        // the next video block.
        let mut doc = DocumentBuilder::new("freeze")
            .channel("video", MediaKind::Video)
            .channel("caption", MediaKind::Text)
            .descriptor(
                DataDescriptor::new("v1", MediaKind::Video, "rgb24")
                    .with_duration(TimeMs::from_secs(2)),
            )
            .descriptor(
                DataDescriptor::new("v2", MediaKind::Video, "rgb24")
                    .with_duration(TimeMs::from_secs(2)),
            )
            .root_par(|root| {
                root.seq("video-track", |track| {
                    track.ext("shot-1", "video", "v1");
                    track.ext("shot-2", "video", "v2");
                });
                root.imm_text("long-caption", "caption", "...", 5_000);
            })
            .build()
            .unwrap();
        let shot2 = doc.find("/video-track/shot-2").unwrap();
        doc.add_arc(
            shot2,
            SyncArc::hard_start("/long-caption", "")
                .from_source_anchor(Anchor::End)
                .with_window(DelayMs::ZERO, MaxDelay::Unbounded),
        )
        .unwrap();
        let result = solve_doc(&doc);
        // shot-2 may not start before the caption ends at t=5s even though
        // shot-1 ends at t=2s: a 3 s freeze-frame gap.
        assert_eq!(result.schedule.node_times[&shot2].0, TimeMs::from_secs(5));
        assert_eq!(result.schedule.total_duration, TimeMs::from_secs(7));
    }

    #[test]
    fn violated_must_window_is_reported() {
        // The caption must start within 500 ms of the start of the second
        // audio block, but a 4-second first block pushes it to t=4s.
        let mut doc = DocumentBuilder::new("conflict")
            .channel("audio", MediaKind::Audio)
            .channel("caption", MediaKind::Text)
            .descriptor(audio("a", 4))
            .descriptor(audio("b", 4))
            .root_par(|root| {
                root.seq("sound-track", |track| {
                    track.ext("first", "audio", "a");
                    track.ext("second", "audio", "b");
                });
                root.imm_text("line", "caption", "hi", 1_000);
            })
            .build()
            .unwrap();
        let line = doc.find("/line").unwrap();
        // The line is controlled by the root (t=0) with a hard 500 ms window,
        // but also must not start before the second audio block.
        doc.add_arc(
            line,
            SyncArc::hard_start("/sound-track/second", "")
                .with_window(DelayMs::ZERO, MaxDelay::Unbounded),
        )
        .unwrap();
        doc.add_arc(
            line,
            SyncArc::hard_start("/", "")
                .with_window(DelayMs::ZERO, MaxDelay::Bounded(DelayMs::from_millis(500))),
        )
        .unwrap();
        let result = solve_doc(&doc);
        assert!(!result.is_consistent());
        assert_eq!(result.violations.len(), 1);
        let violation = &result.violations[0];
        assert!(violation.is_must());
        assert_eq!(violation.actual, TimeMs::from_secs(4));
        assert_eq!(violation.excess_ms(), 3_500);
    }

    #[test]
    fn may_violations_do_not_make_the_document_inconsistent() {
        let mut doc = DocumentBuilder::new("may")
            .channel("audio", MediaKind::Audio)
            .channel("label", MediaKind::Label)
            .descriptor(audio("a", 3))
            .root_seq(|root| {
                root.ext("voice", "audio", "a");
                root.imm_text("title", "label", "late title", 1_000);
            })
            .build()
            .unwrap();
        let title = doc.find("/title").unwrap();
        doc.add_arc(
            title,
            SyncArc::relaxed_start("/", "")
                .with_window(DelayMs::ZERO, MaxDelay::Bounded(DelayMs::from_millis(100))),
        )
        .unwrap();
        let result = solve_doc(&doc);
        assert_eq!(result.violations.len(), 1);
        assert!(!result.violations[0].is_must());
        assert!(result.is_consistent());
    }

    #[test]
    fn negative_min_delay_alone_does_not_move_events_earlier() {
        // ASAP semantics: a negative δ widens the admissible window but the
        // solver still starts events as early as their other constraints
        // allow, never earlier than the structural lower bounds.
        let mut doc = DocumentBuilder::new("neg")
            .channel("audio", MediaKind::Audio)
            .descriptor(audio("a", 2))
            .descriptor(audio("b", 2))
            .root_seq(|root| {
                root.ext("first", "audio", "a");
                root.ext("second", "audio", "b");
            })
            .build()
            .unwrap();
        let second = doc.find("/second").unwrap();
        doc.add_arc(
            second,
            SyncArc::hard_start("../first", "")
                .from_source_anchor(Anchor::End)
                .with_window(DelayMs::from_millis(-500), MaxDelay::Unbounded),
        )
        .unwrap();
        let result = solve_doc(&doc);
        assert_eq!(result.schedule.node_times[&second].0, TimeMs::from_secs(2));
    }

    #[test]
    fn cyclic_constraints_are_detected() {
        let mut doc = DocumentBuilder::new("cycle")
            .channel("audio", MediaKind::Audio)
            .descriptor(audio("a", 2))
            .descriptor(audio("b", 2))
            .root_par(|root| {
                root.ext("x", "audio", "a");
                root.ext("y", "audio", "b");
            })
            .build()
            .unwrap();
        let x = doc.find("/x").unwrap();
        let y = doc.find("/y").unwrap();
        // x must start 1s after y starts, and y must start 1s after x starts.
        doc.add_arc(
            x,
            SyncArc::hard_start("../y", "").with_offset(MediaTime::seconds(1)),
        )
        .unwrap();
        doc.add_arc(
            y,
            SyncArc::hard_start("../x", "").with_offset(MediaTime::seconds(1)),
        )
        .unwrap();
        let err = ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(&doc, &doc.catalog)
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::SchedulerError::ConstraintCycle { phase: "solve", .. }
        ));
    }

    #[test]
    fn timeline_entries_are_sorted_and_channelled() {
        let doc = DocumentBuilder::new("entries")
            .channel("audio", MediaKind::Audio)
            .channel("caption", MediaKind::Text)
            .descriptor(audio("a", 2))
            .root_seq(|root| {
                root.imm_text("line", "caption", "first", 1_000);
                root.ext("voice", "audio", "a");
            })
            .build()
            .unwrap();
        let result = solve_doc(&doc);
        assert_eq!(result.schedule.entries.len(), 2);
        assert_eq!(result.schedule.entries[0].name, "line");
        assert_eq!(result.schedule.entries[1].name, "voice");
        assert_eq!(result.schedule.entries[1].channel, "audio");
        assert_eq!(result.schedule.entries[1].begin, TimeMs::from_secs(1));
    }

    #[test]
    fn point_time_helper() {
        let doc = DocumentBuilder::new("pt")
            .channel("audio", MediaKind::Audio)
            .descriptor(audio("a", 2))
            .root_seq(|root| {
                root.ext("voice", "audio", "a");
            })
            .build()
            .unwrap();
        let result = solve_doc(&doc);
        let voice = doc.find("/voice").unwrap();
        assert_eq!(
            point_time(&result, voice, Anchor::Begin),
            Some(TimeMs::ZERO)
        );
        assert_eq!(
            point_time(&result, voice, Anchor::End),
            Some(TimeMs::from_secs(2))
        );
        assert_eq!(
            point_time(&result, NodeId::from_index(99), Anchor::Begin),
            None
        );
    }
}
