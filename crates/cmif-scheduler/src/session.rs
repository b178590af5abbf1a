//! Step-wise playback sessions.
//!
//! The old one-shot `play` entry point simulated a whole presentation run
//! inside one call. A real player, however, reacts to device timing *at
//! presentation time* (the paper's Figure 1 ends in exactly such a player),
//! and a server multiplexing many documents cannot afford a blocking loop
//! per document. [`PlayerSession`] is the incremental form: a small state
//! machine that is driven from outside with [`PlayerSession::tick`] and
//! reports what happened through [`PlayerSession::poll_events`].
//!
//! The causal timeline itself — every event's actual launch time under the
//! device's [`JitterModel`] — is computed once at session creation with the
//! same relaxation core the solver uses (see [`crate::graph`]), so a
//! session's final [`PlaybackReport`] is bit-identical to the one-shot
//! simulation for the same seed, no matter how the session is ticked,
//! paused or sought in between.

use std::collections::{HashMap, HashSet};
use std::mem;

use cmif_core::arc::Strictness;
use cmif_core::descriptor::DescriptorResolver;
use cmif_core::node::NodeId;
use cmif_core::symbol::Symbol;
use cmif_core::time::TimeMs;
use cmif_core::tree::{unassigned_channel, Document};

use crate::environment::{JitterModel, JitterSampler};
use crate::error::{Result, SchedulerError};
use crate::graph::{ConstraintKernel, PointTimes};
use crate::player::{PlaybackReport, PlayedEvent};
use crate::solver::SolveResult;
use crate::types::{Constraint, EventPoint, OutOfRange};

/// The lifecycle of a playback session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Created but not yet ticked; the first tick anchors the wall clock.
    Ready,
    /// Advancing: ticks move the presentation position forward.
    Playing,
    /// Frozen: ticks are ignored until [`PlayerSession::resume`].
    Paused,
    /// The presentation has run to its end; the report is available.
    Finished,
}

/// One observable occurrence during a session, drained with
/// [`PlayerSession::poll_events`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlaybackEvent {
    /// A leaf event was launched on its channel.
    Started {
        /// The leaf node presented.
        node: NodeId,
        /// The node's interned name.
        name: Symbol,
        /// The channel it plays on.
        channel: Symbol,
        /// The begin time the schedule intended.
        scheduled_begin: TimeMs,
        /// The begin time the simulated device achieved.
        at: TimeMs,
    },
    /// A leaf event finished presenting.
    Ended {
        /// The leaf node that finished.
        node: NodeId,
        /// The actual end time.
        at: TimeMs,
    },
    /// The session was paused at the given presentation position.
    Paused {
        /// Presentation position at the pause.
        at: TimeMs,
    },
    /// The session resumed from the given presentation position.
    Resumed {
        /// Presentation position at the resume.
        at: TimeMs,
    },
    /// The session jumped from one presentation position to another.
    Sought {
        /// Position before the jump.
        from: TimeMs,
        /// Position after the jump.
        to: TimeMs,
    },
    /// The presentation reached its end.
    Finished {
        /// The actual total duration.
        at: TimeMs,
    },
    /// A mid-playback revision swap re-scheduled the unplayed suffix.
    Revised {
        /// Presentation position (the tick boundary) the swap happened at.
        at: TimeMs,
    },
}

/// Which edge of a played event a timeline item marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ItemKind {
    Begin,
    End,
}

/// One deliverable point on the precomputed actual timeline.
#[derive(Debug, Clone, Copy)]
struct TimelineItem {
    at: TimeMs,
    kind: ItemKind,
    event: usize,
}

/// What a merged event contributes to the rebuilt timeline after a
/// mid-playback revision swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Begin and end already delivered: kept verbatim, no items.
    Closed,
    /// Begin delivered, end still pending: one end item.
    EndPending,
    /// New or re-scheduled event that lands before the swap boundary: in
    /// the report, but never delivered (its moment has passed).
    Skipped,
    /// Future event: begin and end items.
    Scheduled,
}

/// Relaxes the causal ("what actually happened") timeline: every event
/// point of the document from zero, with each leaf's startup latency added
/// to the bounds on its begin point.
fn causal_times(
    doc: &Document,
    constraints: &[Constraint],
    latencies: &HashMap<NodeId, i64>,
) -> Result<PointTimes> {
    let mut actual = PointTimes::zeroed(doc);
    ConstraintKernel::build(&actual, constraints).relax_with_latencies(
        &mut actual,
        latencies,
        "playback",
    )?;
    Ok(actual)
}

/// Counts (must, may) window violations of the constraints against the
/// actual times.
fn count_violations(constraints: &[Constraint], actual: &PointTimes) -> Result<(usize, usize)> {
    let mut must_violations = 0;
    let mut may_violations = 0;
    for constraint in constraints {
        let (Some(source_time), Some(target_time)) = (
            actual.get(&constraint.source),
            actual.get(&constraint.target),
        ) else {
            continue;
        };
        let satisfied = constraint
            .satisfied(source_time, target_time)
            .map_err(|OutOfRange| SchedulerError::TimeOverflow {
                phase: "playback",
                point: constraint.target,
            })?;
        if !satisfied {
            if constraint.strictness == Strictness::Must {
                must_violations += 1;
            } else {
                may_violations += 1;
            }
        }
    }
    Ok((must_violations, may_violations))
}

/// Builds the report entry of one leaf from the causal times.
fn make_event(
    doc: &Document,
    result: &SolveResult,
    actual: &PointTimes,
    channels: &HashMap<NodeId, Symbol>,
    leaf: NodeId,
) -> Result<PlayedEvent> {
    let scheduled_begin = result
        .schedule
        .node_times
        .get(&leaf)
        .map(|(begin, _)| *begin)
        .unwrap_or(TimeMs::ZERO);
    let actual_begin = actual[&EventPoint::begin(leaf)];
    let actual_end = actual[&EventPoint::end(leaf)].max(actual_begin);
    let channel = channels
        .get(&leaf)
        .copied()
        .unwrap_or_else(unassigned_channel);
    // The `#<index>` fallback keeps the pool bounded (see the same
    // choice in `solver::build_schedule`).
    let name = match doc.node(leaf)?.name_symbol() {
        Some(name) => name,
        None => Symbol::from_owned(format!("{leaf}")),
    };
    Ok(PlayedEvent {
        node: leaf,
        name,
        channel,
        scheduled_begin,
        actual_begin,
        actual_end,
    })
}

/// Freeze-frame time: gaps between consecutive events on channels that
/// carry continuous media (video keeps its last frame on screen, audio
/// goes silent) — the mechanism Figure 10 appeals to.
fn freeze_frame(
    doc: &Document,
    resolver: &dyn DescriptorResolver,
    events: &[PlayedEvent],
) -> Result<i64> {
    let mut freeze_frame_ms = 0;
    let mut per_channel: HashMap<Symbol, Vec<&PlayedEvent>> = HashMap::new();
    for event in events {
        per_channel.entry(event.channel).or_default().push(event);
    }
    for (channel, channel_events) in per_channel {
        let continuous = match doc.channels.get_symbol(channel) {
            Some(def) => def.medium.is_continuous(),
            // Channels that only exist on nodes: judge by the medium of
            // the first event presented on them.
            None => channel_events
                .first()
                .map(|event| doc.medium_of(event.node, resolver))
                .transpose()?
                .map(|medium| medium.is_continuous())
                .unwrap_or(false),
        };
        if !continuous {
            continue;
        }
        for pair in channel_events.windows(2) {
            let gap = pair[1].actual_begin.as_millis() - pair[0].actual_end.as_millis();
            if gap > 0 {
                freeze_frame_ms += gap;
            }
        }
    }
    Ok(freeze_frame_ms)
}

/// Both timeline items of every event, in delivery order.
fn full_timeline(events: &[PlayedEvent]) -> Vec<TimelineItem> {
    let mut timeline = Vec::with_capacity(events.len() * 2);
    for (index, event) in events.iter().enumerate() {
        timeline.push(TimelineItem {
            at: event.actual_begin,
            kind: ItemKind::Begin,
            event: index,
        });
        timeline.push(TimelineItem {
            at: event.actual_end,
            kind: ItemKind::End,
            event: index,
        });
    }
    timeline.sort_by_key(|item| (item.at, item.kind, item.event));
    timeline
}

/// An incremental playback run of one solved document.
///
/// ```
/// use cmif_core::prelude::*;
/// use cmif_scheduler::{ConstraintGraph, JitterModel, PlayerSession, ScheduleOptions, SessionState};
///
/// # fn main() -> std::result::Result<(), cmif_scheduler::SchedulerError> {
/// let doc = DocumentBuilder::new("demo")
///     .channel("audio", MediaKind::Audio)
///     .descriptor(
///         DataDescriptor::new("speech", MediaKind::Audio, "pcm8")
///             .with_duration(TimeMs::from_secs(4)),
///     )
///     .root_seq(|root| {
///         root.ext("part-1", "audio", "speech");
///         root.ext("part-2", "audio", "speech");
///     })
///     .build()?;
/// let mut graph = ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default())?;
/// let result = graph.solve(&doc, &doc.catalog)?;
///
/// let mut session = PlayerSession::new(&doc, &result, &doc.catalog, &JitterModel::ideal())?;
/// let mut now = 0;
/// while session.tick(now)? != SessionState::Finished {
///     now += 1_000;
///     let _events = session.poll_events();
/// }
/// let report = session.report().expect("finished sessions have a report");
/// assert_eq!(report.total_duration, TimeMs::from_secs(8));
/// # Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub struct PlayerSession {
    report: PlaybackReport,
    timeline: Vec<TimelineItem>,
    cursor: usize,
    position: TimeMs,
    wall_origin: Option<i64>,
    state: SessionState,
    pending: Vec<PlaybackEvent>,
    /// The device's jitter stream; revision swaps draw startup latencies for
    /// new leaves from it, re-jittered seeks resample the tail.
    sampler: JitterSampler,
    /// Sampled startup latency per leaf.
    latencies: HashMap<NodeId, i64>,
    /// Channel per leaf, as of the current revision.
    channels: HashMap<NodeId, Symbol>,
    /// Leaves whose begin / end the cursor has passed (delivered, or
    /// skipped by a forward seek) — the history a revision swap keeps. Kept
    /// as session state because a swapped timeline holds only undelivered
    /// items.
    begun: HashSet<NodeId>,
    ended: HashSet<NodeId>,
}

impl PlayerSession {
    /// Prepares a playback session: samples the device's startup latencies,
    /// relaxes the causal timeline and precomputes the final report.
    pub fn new(
        doc: &Document,
        result: &SolveResult,
        resolver: &dyn DescriptorResolver,
        jitter: &JitterModel,
    ) -> Result<PlayerSession> {
        let mut sampler = jitter.sampler();
        let leaves = doc.leaves();

        // Sample one startup latency per leaf, keyed by its channel. The
        // channel is a `Copy` symbol: fetched once, copied into the report
        // below — no per-leaf string clone anywhere in this pass.
        let mut latencies: HashMap<NodeId, i64> = HashMap::with_capacity(leaves.len());
        let mut channels: HashMap<NodeId, Symbol> = HashMap::with_capacity(leaves.len());
        for leaf in &leaves {
            let channel = doc.channel_of(*leaf)?.unwrap_or_else(unassigned_channel);
            latencies.insert(*leaf, sampler.sample(channel));
            channels.insert(*leaf, channel);
        }

        // Relax the same lower-bound constraint graph the solver used, with
        // each leaf's startup latency added to its begin point — the shared
        // relaxation core of `crate::graph`. The result is the causal "what
        // actually happened" timeline: a late controlling event pushes
        // everything it controls later, exactly like a slow device would.
        let actual = causal_times(doc, &result.constraints, &latencies)?;
        let (must_violations, may_violations) = count_violations(&result.constraints, &actual)?;

        // Build the per-event report.
        let mut events = Vec::with_capacity(leaves.len());
        for leaf in &leaves {
            events.push(make_event(doc, result, &actual, &channels, *leaf)?);
        }
        events.sort_by_key(|e| (e.actual_begin, e.node));

        let freeze_frame_ms = freeze_frame(doc, resolver, &events)?;
        let total_duration = events
            .iter()
            .map(|e| e.actual_end)
            .max()
            .unwrap_or(TimeMs::ZERO);

        let report = PlaybackReport {
            events,
            must_violations,
            may_violations,
            freeze_frame_ms,
            total_duration,
        };
        let timeline = full_timeline(&report.events);

        Ok(PlayerSession {
            report,
            timeline,
            cursor: 0,
            position: TimeMs::ZERO,
            wall_origin: None,
            state: SessionState::Ready,
            pending: Vec::new(),
            sampler,
            latencies,
            channels,
            begun: HashSet::new(),
            ended: HashSet::new(),
        })
    }

    /// The session's current state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// The current presentation position.
    pub fn position(&self) -> TimeMs {
        self.position
    }

    /// The actual total duration of the presentation.
    pub fn total_duration(&self) -> TimeMs {
        self.report.total_duration
    }

    /// The final report, once the session has [`SessionState::Finished`].
    pub fn report(&self) -> Option<&PlaybackReport> {
        (self.state == SessionState::Finished).then_some(&self.report)
    }

    /// The report as it currently stands. Unlike [`PlayerSession::report`]
    /// this is available in any state — but a later revision swap or
    /// re-jittered seek may still rewrite the unplayed tail.
    pub fn report_preview(&self) -> &PlaybackReport {
        &self.report
    }

    /// Advances the session to wall-clock time `now_ms` (milliseconds on
    /// any monotone clock the caller chooses — typically a simulated one).
    ///
    /// The first tick anchors the wall clock to the current presentation
    /// position; later ticks advance the position by the wall time elapsed.
    /// Launched and finished events are queued for
    /// [`PlayerSession::poll_events`]. Returns the state after the tick.
    pub fn tick(&mut self, now_ms: i64) -> Result<SessionState> {
        match self.state {
            SessionState::Finished | SessionState::Paused => return Ok(self.state),
            SessionState::Ready => {
                self.state = SessionState::Playing;
            }
            SessionState::Playing => {}
        }
        let origin = *self
            .wall_origin
            .get_or_insert(now_ms - self.position.as_millis());
        let target = TimeMs(now_ms - origin);
        if target > self.position {
            self.position = target;
        }
        self.deliver_due();
        Ok(self.state)
    }

    /// Pauses the session at wall-clock time `now_ms` (events due up to the
    /// pause position are still delivered).
    pub fn pause(&mut self, now_ms: i64) -> Result<SessionState> {
        if self.state == SessionState::Playing {
            self.tick(now_ms)?;
            if self.state == SessionState::Playing {
                self.state = SessionState::Paused;
                self.pending
                    .push(PlaybackEvent::Paused { at: self.position });
            }
        }
        Ok(self.state)
    }

    /// Resumes a paused session at wall-clock time `now_ms`: the
    /// presentation position continues where it was frozen.
    pub fn resume(&mut self, now_ms: i64) -> SessionState {
        if self.state == SessionState::Paused {
            self.wall_origin = Some(now_ms - self.position.as_millis());
            self.state = SessionState::Playing;
            self.pending
                .push(PlaybackEvent::Resumed { at: self.position });
        }
        self.state
    }

    /// Jumps to a presentation position. Events strictly before the target
    /// are skipped (seeking forward) or re-armed for delivery (seeking
    /// backward); the wall clock re-anchors on the next tick. A finished
    /// session becomes [`SessionState::Ready`] again so its tail can be
    /// replayed — the report is unaffected.
    pub fn seek(&mut self, to: TimeMs) {
        let from = self.position;
        self.position = to;
        self.wall_origin = None;
        let cursor = self.timeline.partition_point(|item| item.at < to);
        // Items a forward seek skips count as passed; a backward seek
        // re-arms the ones it moves back over.
        for index in cursor.min(self.cursor)..cursor.max(self.cursor) {
            self.mark(index, cursor > self.cursor);
        }
        self.cursor = cursor;
        if self.state == SessionState::Finished {
            self.state = SessionState::Ready;
        }
        self.pending.push(PlaybackEvent::Sought { from, to });
    }

    /// Swaps the session onto a new document revision at the current
    /// position (the tick boundary).
    ///
    /// Delivered history is never rewritten: every event whose `Started`
    /// was already polled keeps its begin time (and its end time too, once
    /// `Ended` was polled). The unplayed suffix is re-scheduled from the new
    /// revision's solve:
    ///
    /// * leaves that began but did not end keep playing; their end moves to
    ///   the new revision's end time, clamped to the boundary (a removed
    ///   leaf ends *at* the boundary — cut off, not erased);
    /// * un-begun leaves that the revision removed disappear from the
    ///   report;
    /// * new leaves sample a startup latency from the session's jitter
    ///   stream; a new event whose time lands before the boundary stays in
    ///   the report but is never delivered — its moment has passed;
    /// * violation counts are recomputed against the new revision's causal
    ///   times, and freeze-frame / total duration against the merged events.
    ///
    /// The rebuilt timeline holds only undelivered items, so replay-by-seek
    /// after a swap covers the unplayed suffix, not the rewritten history.
    /// What counts as delivered is the session's own record of every item
    /// its cursor passed, not that timeline, so history survives any number
    /// of swaps.
    /// A [`PlaybackEvent::Revised`] marks the swap in the event stream.
    pub fn swap_revision(
        &mut self,
        doc: &Document,
        result: &SolveResult,
        resolver: &dyn DescriptorResolver,
    ) -> Result<()> {
        let boundary = self.position;

        // What the cursor has passed so far, across every earlier swap —
        // the history that must survive verbatim.
        let (begun, ended) = (&self.begun, &self.ended);

        let leaves = doc.leaves();
        let leaf_set: HashSet<NodeId> = leaves.iter().copied().collect();
        // Surviving leaves keep their sampled latency; new leaves (and
        // un-begun leaves whose channel changed) draw the next sample from
        // the session's jitter stream.
        for leaf in &leaves {
            let channel = doc.channel_of(*leaf)?.unwrap_or_else(unassigned_channel);
            let rechannelled = self.channels.get(leaf) != Some(&channel);
            if !self.latencies.contains_key(leaf) || (rechannelled && !begun.contains(leaf)) {
                self.latencies.insert(*leaf, self.sampler.sample(channel));
            }
            self.channels.insert(*leaf, channel);
        }
        self.latencies
            .retain(|node, _| leaf_set.contains(node) || begun.contains(node));
        self.channels
            .retain(|node, _| leaf_set.contains(node) || begun.contains(node));

        let actual = causal_times(doc, &result.constraints, &self.latencies)?;
        let (must_violations, may_violations) = count_violations(&result.constraints, &actual)?;

        // Merge delivered history with the re-scheduled suffix.
        let mut merged: Vec<(PlayedEvent, Fate)> = Vec::new();
        for event in &self.report.events {
            if !begun.contains(&event.node) {
                continue;
            }
            let mut kept = event.clone();
            let fate = if ended.contains(&event.node) {
                Fate::Closed
            } else {
                kept.actual_end = if leaf_set.contains(&event.node) {
                    actual[&EventPoint::end(event.node)].max(boundary)
                } else {
                    boundary
                };
                Fate::EndPending
            };
            merged.push((kept, fate));
        }
        for leaf in &leaves {
            if begun.contains(leaf) {
                continue;
            }
            let event = make_event(doc, result, &actual, &self.channels, *leaf)?;
            let fate = if event.actual_begin < boundary {
                Fate::Skipped
            } else {
                Fate::Scheduled
            };
            merged.push((event, fate));
        }
        merged.sort_by_key(|(event, _)| (event.actual_begin, event.node));

        let events: Vec<PlayedEvent> = merged.iter().map(|(event, _)| event.clone()).collect();
        let freeze_frame_ms = freeze_frame(doc, resolver, &events)?;
        let total_duration = events
            .iter()
            .map(|e| e.actual_end)
            .max()
            .unwrap_or(TimeMs::ZERO);

        let mut timeline = Vec::new();
        for (index, (event, fate)) in merged.iter().enumerate() {
            match fate {
                Fate::Closed | Fate::Skipped => {}
                Fate::EndPending => timeline.push(TimelineItem {
                    at: event.actual_end,
                    kind: ItemKind::End,
                    event: index,
                }),
                Fate::Scheduled => {
                    timeline.push(TimelineItem {
                        at: event.actual_begin,
                        kind: ItemKind::Begin,
                        event: index,
                    });
                    timeline.push(TimelineItem {
                        at: event.actual_end,
                        kind: ItemKind::End,
                        event: index,
                    });
                }
            }
        }
        timeline.sort_by_key(|item| (item.at, item.kind, item.event));

        self.report = PlaybackReport {
            events,
            must_violations,
            may_violations,
            freeze_frame_ms,
            total_duration,
        };
        self.timeline = timeline;
        self.cursor = 0;
        if self.state == SessionState::Finished {
            // The swap may have appended new material past the old end.
            self.state = SessionState::Ready;
            self.wall_origin = None;
        }
        self.pending.push(PlaybackEvent::Revised { at: boundary });
        Ok(())
    }

    /// Seeks to `to` with fresh jitter for the unplayed tail: every leaf
    /// whose begin lies at or past the target resamples its startup latency
    /// from the session's jitter stream, and the causal timeline is
    /// re-relaxed — the head of the presentation keeps its times (its
    /// latencies are untouched), the tail lands on newly jittered ones.
    ///
    /// `doc` and `result` must be the revision the session is playing.
    pub fn seek_rejittered(
        &mut self,
        doc: &Document,
        result: &SolveResult,
        resolver: &dyn DescriptorResolver,
        to: TimeMs,
    ) -> Result<()> {
        for event in &self.report.events {
            if event.actual_begin >= to {
                if let Some(channel) = self.channels.get(&event.node).copied() {
                    self.latencies
                        .insert(event.node, self.sampler.sample(channel));
                }
            }
        }
        let actual = causal_times(doc, &result.constraints, &self.latencies)?;
        let (must_violations, may_violations) = count_violations(&result.constraints, &actual)?;
        let mut events = Vec::with_capacity(doc.leaves().len());
        for leaf in doc.leaves() {
            events.push(make_event(doc, result, &actual, &self.channels, leaf)?);
        }
        events.sort_by_key(|e| (e.actual_begin, e.node));
        let freeze_frame_ms = freeze_frame(doc, resolver, &events)?;
        let total_duration = events
            .iter()
            .map(|e| e.actual_end)
            .max()
            .unwrap_or(TimeMs::ZERO);
        self.report = PlaybackReport {
            events,
            must_violations,
            may_violations,
            freeze_frame_ms,
            total_duration,
        };
        // The rebuilt timeline is complete again: the seek below re-marks
        // its head as passed.
        self.timeline = full_timeline(&self.report.events);
        self.cursor = 0;
        self.begun.clear();
        self.ended.clear();
        self.seek(to);
        Ok(())
    }

    /// Drains the events that occurred since the last poll.
    pub fn poll_events(&mut self) -> Vec<PlaybackEvent> {
        mem::take(&mut self.pending)
    }

    /// Runs the remainder of the session in one step and returns the final
    /// report (the convenience the deprecated one-shot `play` is built on).
    pub fn run_to_completion(mut self) -> PlaybackReport {
        self.position = self.report.total_duration;
        if self.state == SessionState::Paused {
            self.state = SessionState::Playing;
        }
        self.deliver_due();
        self.report
    }

    /// Records (or, with `passed == false`, forgets) that the cursor
    /// passed the timeline item at `index`.
    fn mark(&mut self, index: usize, passed: bool) {
        let item = self.timeline[index];
        let node = self.report.events[item.event].node;
        let set = match item.kind {
            ItemKind::Begin => &mut self.begun,
            ItemKind::End => &mut self.ended,
        };
        if passed {
            set.insert(node);
        } else {
            set.remove(&node);
        }
    }

    fn deliver_due(&mut self) {
        while let Some(item) = self.timeline.get(self.cursor) {
            if item.at > self.position {
                break;
            }
            let item = *item;
            self.mark(self.cursor, true);
            let event = &self.report.events[item.event];
            self.pending.push(match item.kind {
                ItemKind::Begin => PlaybackEvent::Started {
                    node: event.node,
                    name: event.name,
                    channel: event.channel,
                    scheduled_begin: event.scheduled_begin,
                    at: event.actual_begin,
                },
                ItemKind::End => PlaybackEvent::Ended {
                    node: event.node,
                    at: event.actual_end,
                },
            });
            self.cursor += 1;
        }
        if self.cursor == self.timeline.len() && self.position >= self.report.total_duration {
            self.state = SessionState::Finished;
            self.pending.push(PlaybackEvent::Finished {
                at: self.report.total_duration,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ConstraintGraph;
    use crate::types::ScheduleOptions;
    use cmif_core::prelude::*;

    fn solved_doc() -> (Document, SolveResult) {
        let doc = DocumentBuilder::new("session")
            .channel("audio", MediaKind::Audio)
            .descriptor(
                DataDescriptor::new("speech", MediaKind::Audio, "pcm8")
                    .with_duration(TimeMs::from_secs(2)),
            )
            .root_seq(|root| {
                root.ext("first", "audio", "speech");
                root.ext("second", "audio", "speech");
            })
            .build()
            .unwrap();
        let result = ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(&doc, &doc.catalog)
            .unwrap();
        (doc, result)
    }

    fn session(doc: &Document, result: &SolveResult, jitter: &JitterModel) -> PlayerSession {
        PlayerSession::new(doc, result, &doc.catalog, jitter).unwrap()
    }

    #[test]
    fn ticking_to_the_end_finishes_and_reports() {
        let (doc, result) = solved_doc();
        let mut s = session(&doc, &result, &JitterModel::ideal());
        assert_eq!(s.state(), SessionState::Ready);
        assert!(s.report().is_none());
        assert_eq!(s.tick(0).unwrap(), SessionState::Playing);
        let started: Vec<_> = s.poll_events();
        assert!(matches!(started[0], PlaybackEvent::Started { .. }));
        assert_eq!(s.tick(1_000).unwrap(), SessionState::Playing);
        assert_eq!(s.tick(4_000).unwrap(), SessionState::Finished);
        let report = s.report().unwrap();
        assert_eq!(report.total_duration, TimeMs::from_secs(4));
        assert_eq!(report.events.len(), 2);
    }

    #[test]
    fn events_arrive_in_actual_time_order_exactly_once() {
        let (doc, result) = solved_doc();
        let mut s = session(&doc, &result, &JitterModel::ideal());
        let mut starts = Vec::new();
        let mut now = 0;
        loop {
            let state = s.tick(now).unwrap();
            for event in s.poll_events() {
                if let PlaybackEvent::Started { at, .. } = event {
                    starts.push(at);
                }
            }
            if state == SessionState::Finished {
                break;
            }
            now += 500;
        }
        assert_eq!(starts, vec![TimeMs::ZERO, TimeMs::from_secs(2)]);
    }

    #[test]
    fn pause_freezes_the_position_against_wall_time() {
        let (doc, result) = solved_doc();
        let mut s = session(&doc, &result, &JitterModel::ideal());
        s.tick(0).unwrap();
        s.pause(500).unwrap();
        assert_eq!(s.state(), SessionState::Paused);
        // Wall time marches on; the position does not.
        assert_eq!(s.tick(10_000).unwrap(), SessionState::Paused);
        assert_eq!(s.position(), TimeMs::from_millis(500));
        // Resume re-anchors: 3.5 s of playing remain.
        s.resume(60_000);
        assert_eq!(s.tick(63_499).unwrap(), SessionState::Playing);
        assert_eq!(s.tick(63_500).unwrap(), SessionState::Finished);
        let kinds: Vec<_> = s.poll_events();
        assert!(kinds
            .iter()
            .any(|e| matches!(e, PlaybackEvent::Finished { .. })));
    }

    #[test]
    fn seek_skips_events_before_the_target() {
        let (doc, result) = solved_doc();
        let mut s = session(&doc, &result, &JitterModel::ideal());
        s.seek(TimeMs::from_secs(3));
        s.tick(0).unwrap();
        let events = s.poll_events();
        // The first leaf (begin 0, end 2 s) is skipped entirely; the second
        // leaf's begin (2 s) is also before the target.
        assert!(events
            .iter()
            .all(|e| !matches!(e, PlaybackEvent::Started { at: TimeMs(0), .. })));
        assert!(matches!(events[0], PlaybackEvent::Sought { .. }));
        assert_eq!(s.tick(1_000).unwrap(), SessionState::Finished);
    }

    #[test]
    fn run_to_completion_matches_a_ticked_session() {
        let (doc, result) = solved_doc();
        let jitter = JitterModel::uniform(300, 17);
        let one_shot = session(&doc, &result, &jitter).run_to_completion();
        let mut ticked = session(&doc, &result, &jitter);
        let mut now = 0;
        while ticked.tick(now).unwrap() != SessionState::Finished {
            now += 250;
            ticked.poll_events();
        }
        assert_eq!(ticked.report(), Some(&one_shot));
    }

    fn solve(doc: &Document) -> SolveResult {
        ConstraintGraph::derive(doc, &doc.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(doc, &doc.catalog)
            .unwrap()
    }

    #[test]
    fn swap_revision_preserves_delivered_history() {
        use cmif_core::edit::{DocRevision, Edit, NodeSpec};
        use std::sync::Arc;

        let (doc, result) = solved_doc();
        let root = doc.root().unwrap();
        let mut s = session(&doc, &result, &JitterModel::ideal());
        // Play past the first leaf's begin (0 ms) and end (2 s), into the
        // second leaf (begin 2 s).
        s.tick(0).unwrap();
        s.tick(2_500).unwrap();
        let before: Vec<_> = s.poll_events();
        assert!(before.iter().any(
            |e| matches!(e, PlaybackEvent::Started { at, .. } if *at == TimeMs::from_secs(2))
        ));

        // Append a third part mid-broadcast.
        let rev = DocRevision::initial(Arc::new(doc.clone()));
        let (next, _) = rev
            .apply(&Edit::InsertSubtree {
                parent: root,
                spec: NodeSpec::ext("third", "speech").on_channel("audio"),
            })
            .unwrap();
        let new_doc = next.doc().clone();
        let new_result = solve(&new_doc);
        s.swap_revision(&new_doc, &new_result, &new_doc.catalog)
            .unwrap();

        let swap_events = s.poll_events();
        assert!(swap_events.iter().any(
            |e| matches!(e, PlaybackEvent::Revised { at } if *at == TimeMs::from_millis(2_500))
        ));
        // Delivered history is untouched in the report.
        let report_events = &s.report_preview().events;
        assert_eq!(report_events.len(), 3);
        assert_eq!(report_events[0].actual_begin, TimeMs::ZERO);
        assert_eq!(report_events[0].actual_end, TimeMs::from_secs(2));
        // Ticking on delivers the rest, including the new third part, and
        // nothing that was already polled is re-delivered.
        s.tick(4_000).unwrap();
        s.tick(6_000).unwrap();
        assert_eq!(s.state(), SessionState::Finished);
        let after: Vec<_> = s.poll_events();
        let restarted = after
            .iter()
            .filter(|e| matches!(e, PlaybackEvent::Started { at, .. } if *at < TimeMs::from_millis(2_500)))
            .count();
        assert_eq!(restarted, 0, "already-fired Started events never repeat");
        assert!(after.iter().any(
            |e| matches!(e, PlaybackEvent::Started { at, .. } if *at == TimeMs::from_secs(4))
        ));
        assert_eq!(s.total_duration(), TimeMs::from_secs(6));
    }

    #[test]
    fn swap_revision_cuts_a_removed_playing_leaf_at_the_boundary() {
        use cmif_core::edit::{DocRevision, Edit};
        use std::sync::Arc;

        let (doc, result) = solved_doc();
        let second = doc.find("/second").unwrap();
        let mut s = session(&doc, &result, &JitterModel::ideal());
        // Into the second leaf (2 s – 4 s).
        s.tick(0).unwrap();
        s.tick(3_000).unwrap();
        s.poll_events();

        let rev = DocRevision::initial(Arc::new(doc.clone()));
        let (next, _) = rev.apply(&Edit::RemoveSubtree { node: second }).unwrap();
        let new_doc = next.doc().clone();
        let new_result = solve(&new_doc);
        s.swap_revision(&new_doc, &new_result, &new_doc.catalog)
            .unwrap();

        let report = s.report_preview();
        let cut = report
            .events
            .iter()
            .find(|e| e.node == second)
            .expect("begun leaf stays in the report");
        assert_eq!(cut.actual_end, TimeMs::from_secs(3), "cut at the boundary");
        s.tick(3_000).unwrap();
        assert_eq!(s.state(), SessionState::Finished);
        let tail = s.poll_events();
        assert!(tail
            .iter()
            .any(|e| matches!(e, PlaybackEvent::Ended { node, at } if *node == second && *at == TimeMs::from_secs(3))));
    }

    #[test]
    fn seek_rejittered_resamples_only_the_tail() {
        let (doc, result) = solved_doc();
        let jitter = JitterModel::uniform(400, 99);
        let mut s = session(&doc, &result, &jitter);
        let head_begin = s.report_preview().events[0].actual_begin;
        s.tick(0).unwrap();
        s.seek_rejittered(&doc, &result, &doc.catalog, TimeMs::from_secs(2))
            .unwrap();
        let report = s.report_preview();
        assert_eq!(
            report.events[0].actual_begin, head_begin,
            "head keeps its jitter"
        );
        // The session still runs to completion on the re-jittered timeline.
        let mut now = 0;
        while s.tick(now).unwrap() != SessionState::Finished {
            now += 500;
            s.poll_events();
        }
    }

    #[test]
    fn finished_session_can_replay_its_tail_after_seek() {
        let (doc, result) = solved_doc();
        let mut s = session(&doc, &result, &JitterModel::ideal());
        s.tick(0).unwrap();
        s.tick(5_000).unwrap();
        assert_eq!(s.state(), SessionState::Finished);
        s.poll_events();
        s.seek(TimeMs::from_secs(2));
        assert_eq!(s.state(), SessionState::Ready);
        assert_eq!(s.tick(0).unwrap(), SessionState::Playing);
        let replayed = s.poll_events();
        assert!(replayed.iter().any(
            |e| matches!(e, PlaybackEvent::Started { at, .. } if *at == TimeMs::from_secs(2))
        ));
        assert_eq!(s.tick(2_000).unwrap(), SessionState::Finished);
    }
}
