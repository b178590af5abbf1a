//! Synchronization conflict detection.
//!
//! §5.3.3 names three conflict classes:
//!
//! 1. "an unreasonable synchronization constraint may have been defined" —
//!    detected by the solver as unsatisfiable cycles and violated `Must`
//!    windows, and here additionally as overlapping events on one channel;
//! 2. "device characteristics may limit the ability of a particular
//!    environment to support a given document" — detected by checking a
//!    schedule against [`EnvironmentLimits`];
//! 3. navigating (fast-forward / fast-reverse) to a document section whose
//!    relative synchronization constraints reference sources that are not
//!    active — detected by [`invalid_arcs_when_seeking`].
//!
//! "CMIF plays a role in signalling problems, allowing other mechanisms to
//! provide solutions" — so everything here reports and nothing repairs.

use std::collections::HashMap;
use std::fmt;

use crate::error::Result;
use cmif_core::channel::MediaKind;
use cmif_core::descriptor::DescriptorResolver;
use cmif_core::node::{NodeId, NodeKind};
use cmif_core::symbol::Symbol;
use cmif_core::time::TimeMs;
use cmif_core::tree::Document;

use crate::environment::EnvironmentLimits;
use crate::solver::{SolveResult, WindowViolation};
use crate::timeline::Schedule;

/// One detected conflict.
#[derive(Debug, Clone, PartialEq)]
pub enum Conflict {
    /// Class 1: a Must/May window cannot be met by any ASAP schedule.
    Window(WindowViolation),
    /// Class 1: two events overlap on the same channel, which a single-medium
    /// channel cannot present.
    ChannelOverlap {
        /// The channel with overlapping events.
        channel: Symbol,
        /// The first overlapping event.
        first: NodeId,
        /// The second overlapping event.
        second: NodeId,
    },
    /// Class 2: the environment cannot present this medium at all.
    UnsupportedMedium {
        /// The event that needs the medium.
        node: NodeId,
        /// The channel the event plays on.
        channel: Symbol,
        /// The unsupported medium.
        medium: MediaKind,
    },
    /// Class 2: more events are active at once than the environment allows.
    ConcurrencyExceeded {
        /// Peak simultaneous events in the schedule.
        peak: usize,
        /// What the environment allows.
        allowed: usize,
    },
    /// Class 2: sustained delivery bandwidth over the document exceeds the
    /// environment.
    BandwidthExceeded {
        /// Required average bandwidth in bytes per second.
        required_bps: u64,
        /// Available bandwidth in bytes per second.
        available_bps: u64,
    },
    /// Class 2: an image or video block is larger than the environment's
    /// display.
    ResolutionExceeded {
        /// The offending event.
        node: NodeId,
        /// Block resolution.
        required: (u32, u32),
        /// Display resolution.
        available: (u32, u32),
    },
    /// Class 2: a block needs deeper colour than the environment has.
    ColorDepthExceeded {
        /// The offending event.
        node: NodeId,
        /// Block colour depth in bits.
        required: u8,
        /// Display colour depth in bits.
        available: u8,
    },
    /// Class 3: an explicit arc whose source will not execute when playback
    /// starts from the seek target, making the arc invalid.
    InactiveArcSource {
        /// The node carrying the arc.
        carrier: NodeId,
        /// The arc's source node.
        source: NodeId,
        /// The arc's destination node.
        destination: NodeId,
    },
}

impl Conflict {
    /// The paper's conflict class (1, 2 or 3) this conflict belongs to.
    pub fn class(&self) -> u8 {
        match self {
            Conflict::Window(_) | Conflict::ChannelOverlap { .. } => 1,
            Conflict::UnsupportedMedium { .. }
            | Conflict::ConcurrencyExceeded { .. }
            | Conflict::BandwidthExceeded { .. }
            | Conflict::ResolutionExceeded { .. }
            | Conflict::ColorDepthExceeded { .. } => 2,
            Conflict::InactiveArcSource { .. } => 3,
        }
    }
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Conflict::Window(v) => write!(
                f,
                "window violated: {} lands at {} but must be within [{}, {}]",
                v.constraint.target, v.actual, v.reference, v.latest
            ),
            Conflict::ChannelOverlap {
                channel,
                first,
                second,
            } => {
                write!(
                    f,
                    "events {first} and {second} overlap on channel `{channel}`"
                )
            }
            Conflict::UnsupportedMedium {
                node,
                channel,
                medium,
            } => write!(
                f,
                "event {node} on channel `{channel}` needs medium `{medium}` which the \
                 environment cannot present"
            ),
            Conflict::ConcurrencyExceeded { peak, allowed } => {
                write!(
                    f,
                    "{peak} simultaneous events exceed the environment limit of {allowed}"
                )
            }
            Conflict::BandwidthExceeded {
                required_bps,
                available_bps,
            } => write!(
                f,
                "document needs {required_bps} B/s sustained but the environment delivers \
                 {available_bps} B/s"
            ),
            Conflict::ResolutionExceeded {
                node,
                required,
                available,
            } => write!(
                f,
                "event {node} needs {}x{} pixels but the display is {}x{}",
                required.0, required.1, available.0, available.1
            ),
            Conflict::ColorDepthExceeded {
                node,
                required,
                available,
            } => write!(
                f,
                "event {node} needs {required}-bit colour but the display has {available}-bit"
            ),
            Conflict::InactiveArcSource {
                carrier,
                source,
                destination,
            } => write!(
                f,
                "arc carried by {carrier} from {source} to {destination} is invalid: its source \
                 will not execute from the seek position"
            ),
        }
    }
}

/// A full conflict report for one document on one environment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConflictReport {
    /// Every conflict found, in detection order.
    pub conflicts: Vec<Conflict>,
}

impl ConflictReport {
    /// True when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.conflicts.is_empty()
    }

    /// The conflicts belonging to one of the paper's three classes.
    pub fn of_class(&self, class: u8) -> Vec<&Conflict> {
        self.conflicts
            .iter()
            .filter(|c| c.class() == class)
            .collect()
    }
}

impl fmt::Display for ConflictReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "no conflicts");
        }
        for conflict in &self.conflicts {
            writeln!(f, "[class {}] {}", conflict.class(), conflict)?;
        }
        Ok(())
    }
}

/// Detects class-1 (specification) conflicts in a solve result.
pub fn specification_conflicts(result: &SolveResult) -> Vec<Conflict> {
    let mut out: Vec<Conflict> = result
        .violations
        .iter()
        .cloned()
        .map(Conflict::Window)
        .collect();
    // Overlaps on a single channel, reported in channel-name order (the
    // timelines map iterates in intern order, which is not stable output).
    let mut timelines: Vec<_> = result.schedule.channel_timelines().into_iter().collect();
    timelines.sort_by_key(|(channel, _)| channel.as_str());
    for (channel, entries) in timelines {
        for window in entries.windows(2) {
            if window[0].overlaps(window[1]) {
                out.push(Conflict::ChannelOverlap {
                    channel,
                    first: window[0].node,
                    second: window[1].node,
                });
            }
        }
    }
    out
}

/// Detects class-2 (device) conflicts of a schedule on an environment.
pub fn device_conflicts(
    doc: &Document,
    schedule: &Schedule,
    resolver: &dyn DescriptorResolver,
    limits: &EnvironmentLimits,
) -> Result<Vec<Conflict>> {
    let mut out = Vec::new();

    for entry in &schedule.entries {
        if !limits.supports(entry.medium) {
            out.push(Conflict::UnsupportedMedium {
                node: entry.node,
                channel: entry.channel,
                medium: entry.medium,
            });
        }
    }

    let peak = schedule.peak_concurrency();
    if peak > limits.max_concurrent_events {
        out.push(Conflict::ConcurrencyExceeded {
            peak,
            allowed: limits.max_concurrent_events,
        });
    }

    // Sustained bandwidth: total bytes of presented external data divided by
    // the document duration.
    let mut total_bytes: u64 = 0;
    for entry in &schedule.entries {
        if doc.node(entry.node)?.kind == NodeKind::Ext {
            if let Some(key) = doc.file_of(entry.node)? {
                if let Some(descriptor) = resolver.resolve_symbol(key) {
                    total_bytes += descriptor.size_bytes;
                    if let (Some(required), Some(available)) =
                        (descriptor.resolution, limits.max_resolution)
                    {
                        if required.0 > available.0 || required.1 > available.1 {
                            out.push(Conflict::ResolutionExceeded {
                                node: entry.node,
                                required,
                                available,
                            });
                        }
                    }
                    if let (Some(required), Some(available)) =
                        (descriptor.color_depth, limits.max_color_depth)
                    {
                        if required > available {
                            out.push(Conflict::ColorDepthExceeded {
                                node: entry.node,
                                required,
                                available,
                            });
                        }
                    }
                }
            }
        }
    }
    let duration_s = (schedule.total_duration.as_millis() as f64 / 1000.0).max(0.001);
    let required_bps = (total_bytes as f64 / duration_s) as u64;
    if required_bps > limits.bandwidth_bps {
        out.push(Conflict::BandwidthExceeded {
            required_bps,
            available_bps: limits.bandwidth_bps,
        });
    }

    Ok(out)
}

/// Detects class-3 (navigation) conflicts: arcs whose source will not
/// execute when playback is started ("sought") at `seek_to`.
///
/// "We support the general notion within relative arcs that the source of
/// the arc must execute in order for a synchronization condition to be true;
/// if this is not the case, all incoming synchronization arcs are considered
/// to be invalid." (§5.3.3)
pub fn invalid_arcs_when_seeking(
    doc: &Document,
    schedule: &Schedule,
    seek_to: NodeId,
) -> Result<Vec<Conflict>> {
    let seek_time = schedule
        .node_times
        .get(&seek_to)
        .map(|(begin, _)| *begin)
        .unwrap_or(TimeMs::ZERO);
    let mut out = Vec::new();
    for (carrier, _arc, source, destination) in doc.resolved_arcs()? {
        // The source "executes" from the seek position if any part of it is
        // scheduled at or after the seek time. Sources that finished before
        // the seek position never run, so constraints hanging off them are
        // invalid.
        let source_executes = schedule
            .node_times
            .get(&source)
            .map(|(_, end)| *end > seek_time)
            .unwrap_or(false);
        // Only arcs whose destination is still to be presented matter.
        let destination_pending = schedule
            .node_times
            .get(&destination)
            .map(|(_, end)| *end > seek_time)
            .unwrap_or(false);
        if destination_pending && !source_executes {
            out.push(Conflict::InactiveArcSource {
                carrier,
                source,
                destination,
            });
        }
    }
    Ok(out)
}

/// Runs every detector and combines the results into one report.
pub fn full_report(
    doc: &Document,
    result: &SolveResult,
    resolver: &dyn DescriptorResolver,
    limits: Option<&EnvironmentLimits>,
) -> Result<ConflictReport> {
    let mut conflicts = specification_conflicts(result);
    if let Some(limits) = limits {
        conflicts.extend(device_conflicts(doc, &result.schedule, resolver, limits)?);
    }
    Ok(ConflictReport { conflicts })
}

/// Per-class conflict counts, handy for benches and summaries.
pub fn class_histogram(report: &ConflictReport) -> HashMap<u8, usize> {
    let mut out = HashMap::new();
    for conflict in &report.conflicts {
        *out.entry(conflict.class()).or_insert(0) += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ConstraintGraph;
    use crate::types::ScheduleOptions;
    use cmif_core::arc::SyncArc;
    use cmif_core::prelude::*;

    fn news_like_doc() -> Document {
        DocumentBuilder::new("news")
            .channel("audio", MediaKind::Audio)
            .channel("video", MediaKind::Video)
            .channel("caption", MediaKind::Text)
            .descriptor(
                DataDescriptor::new("speech", MediaKind::Audio, "pcm8")
                    .with_size(200_000)
                    .with_duration(TimeMs::from_secs(10)),
            )
            .descriptor(
                DataDescriptor::new("film", MediaKind::Video, "rgb24")
                    .with_size(18_000_000)
                    .with_duration(TimeMs::from_secs(10))
                    .with_resolution(1024, 768)
                    .with_color_depth(24),
            )
            .root_par(|story| {
                story.ext("voice", "audio", "speech");
                story.ext("film", "video", "film");
                story.imm_text("line-1", "caption", "first caption", 4_000);
            })
            .build()
            .unwrap()
    }

    /// A device that can present everything the test document holds; each
    /// test narrows the limits it is about.
    fn roomy_device() -> EnvironmentLimits {
        EnvironmentLimits {
            name: Symbol::intern("workstation"),
            supported_media: MediaKind::ALL.to_vec(),
            max_concurrent_events: 16,
            bandwidth_bps: 20_000_000,
            decode_capacity: 1_000,
            max_resolution: Some((1280, 1024)),
            max_color_depth: Some(24),
        }
    }

    /// An audio-only kiosk on a thin line.
    fn audio_kiosk() -> EnvironmentLimits {
        EnvironmentLimits {
            name: Symbol::intern("audio-kiosk"),
            supported_media: vec![MediaKind::Audio],
            bandwidth_bps: 256_000,
            max_resolution: None,
            max_color_depth: None,
            ..roomy_device()
        }
    }

    fn solved(doc: &Document) -> SolveResult {
        ConstraintGraph::derive(doc, &doc.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(doc, &doc.catalog)
            .unwrap()
    }

    #[test]
    fn clean_document_on_workstation_has_no_conflicts() {
        let doc = news_like_doc();
        let result = solved(&doc);
        let report = full_report(&doc, &result, &doc.catalog, Some(&roomy_device())).unwrap();
        assert!(report.is_clean(), "unexpected conflicts: {report}");
    }

    #[test]
    fn audio_kiosk_cannot_present_video_or_captions() {
        let doc = news_like_doc();
        let result = solved(&doc);
        let report = full_report(&doc, &result, &doc.catalog, Some(&audio_kiosk())).unwrap();
        assert!(!report.is_clean());
        let class2 = report.of_class(2);
        assert!(class2.iter().any(|c| matches!(
            c,
            Conflict::UnsupportedMedium {
                medium: MediaKind::Video,
                ..
            }
        )));
        assert!(class2
            .iter()
            .any(|c| matches!(c, Conflict::BandwidthExceeded { .. })));
    }

    #[test]
    fn low_end_pc_flags_resolution_and_colour() {
        let doc = news_like_doc();
        let result = solved(&doc);
        let conflicts = device_conflicts(
            &doc,
            &result.schedule,
            &doc.catalog,
            &EnvironmentLimits {
                name: Symbol::intern("low-end-pc"),
                max_resolution: Some((640, 480)),
                max_color_depth: Some(8),
                ..roomy_device()
            },
        )
        .unwrap();
        assert!(conflicts
            .iter()
            .any(|c| matches!(c, Conflict::ResolutionExceeded { .. })));
        assert!(conflicts
            .iter()
            .any(|c| matches!(c, Conflict::ColorDepthExceeded { .. })));
    }

    #[test]
    fn window_violations_become_class1_conflicts() {
        let mut doc = news_like_doc();
        let line = doc.find("/line-1").unwrap();
        doc.add_arc(
            line,
            SyncArc::hard_start("../voice", "")
                .from_source_anchor(Anchor::End)
                .with_window(DelayMs::ZERO, MaxDelay::Unbounded),
        )
        .unwrap();
        // And a hard window from the root that cannot also hold.
        doc.add_arc(
            line,
            SyncArc::hard_start("/", "")
                .with_window(DelayMs::ZERO, MaxDelay::Bounded(DelayMs::from_millis(100))),
        )
        .unwrap();
        let result = solved(&doc);
        let conflicts = specification_conflicts(&result);
        assert!(conflicts.iter().any(|c| matches!(c, Conflict::Window(_))));
        assert!(conflicts.iter().all(|c| c.class() == 1));
    }

    #[test]
    fn channel_overlap_is_detected() {
        // Two events forced to overlap on the same channel via an explicit
        // arc that starts the second before the first ends.
        let mut doc = DocumentBuilder::new("overlap")
            .channel("caption", MediaKind::Text)
            .root_par(|root| {
                root.imm_text("a", "caption", "first", 4_000);
                root.imm_text("b", "caption", "second", 4_000);
            })
            .build()
            .unwrap();
        let b = doc.find("/b").unwrap();
        doc.add_arc(
            b,
            SyncArc::hard_start("../a", "").with_offset(MediaTime::seconds(1)),
        )
        .unwrap();
        let result = solved(&doc);
        let conflicts = specification_conflicts(&result);
        assert!(conflicts
            .iter()
            .any(|c| matches!(c, Conflict::ChannelOverlap { .. })));
    }

    #[test]
    fn seeking_past_an_arc_source_invalidates_it() {
        let mut doc = DocumentBuilder::new("seek")
            .channel("audio", MediaKind::Audio)
            .channel("caption", MediaKind::Text)
            .descriptor(
                DataDescriptor::new("s1", MediaKind::Audio, "pcm8")
                    .with_duration(TimeMs::from_secs(5)),
            )
            .descriptor(
                DataDescriptor::new("s2", MediaKind::Audio, "pcm8")
                    .with_duration(TimeMs::from_secs(5)),
            )
            .root_seq(|news| {
                news.par("story-1", |s| {
                    s.ext("voice", "audio", "s1");
                });
                news.par("story-2", |s| {
                    s.ext("voice", "audio", "s2");
                    s.imm_text("line", "caption", "late caption", 2_000);
                });
            })
            .build()
            .unwrap();
        let line = doc.find("/story-2/line").unwrap();
        // The caption is synchronized off the *first* story's voice.
        doc.add_arc(
            line,
            SyncArc::hard_start("/story-1/voice", "").with_offset(MediaTime::seconds(1)),
        )
        .unwrap();
        let result = solved(&doc);
        // Seeking to story-2 skips story-1 entirely: the arc source never
        // executes, so the arc is invalid.
        let story2 = doc.find("/story-2").unwrap();
        let invalid = invalid_arcs_when_seeking(&doc, &result.schedule, story2).unwrap();
        assert_eq!(invalid.len(), 1);
        assert!(matches!(invalid[0], Conflict::InactiveArcSource { .. }));
        assert_eq!(invalid[0].class(), 3);
        // Seeking to the beginning invalidates nothing.
        let root = doc.root().unwrap();
        assert!(invalid_arcs_when_seeking(&doc, &result.schedule, root)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn report_display_and_histogram() {
        let doc = news_like_doc();
        let result = solved(&doc);
        let report = full_report(&doc, &result, &doc.catalog, Some(&audio_kiosk())).unwrap();
        let text = report.to_string();
        assert!(text.contains("[class 2]"));
        let histogram = class_histogram(&report);
        assert!(histogram[&2] >= 2);
        assert!(ConflictReport::default()
            .to_string()
            .contains("no conflicts"));
    }
}
