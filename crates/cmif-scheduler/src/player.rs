//! Playback reports and the one-shot simulation shim.
//!
//! The scheduler produces an *intended* schedule; a real presentation
//! environment then launches events with some per-channel sloppiness. The
//! δ/ε tolerance windows exist precisely so a document survives that
//! sloppiness on diverse hardware ("this is especially useful for documents
//! that need to run on diverse sets of hardware", §5.3.1).
//!
//! The simulation itself now lives in [`crate::session::PlayerSession`], a
//! step-wise state machine that many documents can share worker threads
//! through (see [`crate::engine::Engine`]). This module keeps the report
//! types — [`PlayedEvent`] and [`PlaybackReport`], the quantities the
//! Figure 8 bench sweeps against jitter and window width — plus the
//! multi-run [`must_satisfaction_rate`] sweep.

use std::fmt;

use crate::error::Result;
use cmif_core::descriptor::DescriptorResolver;
use cmif_core::node::NodeId;
use cmif_core::symbol::Symbol;
use cmif_core::time::TimeMs;
use cmif_core::tree::Document;

use crate::environment::JitterModel;
use crate::session::PlayerSession;
use crate::solver::SolveResult;

/// One presented event in a playback run: intended vs actual times.
#[derive(Debug, Clone, PartialEq)]
pub struct PlayedEvent {
    /// The leaf node presented.
    pub node: NodeId,
    /// The node's interned name.
    pub name: Symbol,
    /// The channel it played on.
    pub channel: Symbol,
    /// The begin time the schedule intended.
    pub scheduled_begin: TimeMs,
    /// The begin time the simulated device achieved.
    pub actual_begin: TimeMs,
    /// The end time the simulated device achieved.
    pub actual_end: TimeMs,
}

impl PlayedEvent {
    /// How late (positive) or early (negative) the event started relative to
    /// the intended schedule.
    pub fn drift_ms(&self) -> i64 {
        self.actual_begin.as_millis() - self.scheduled_begin.as_millis()
    }
}

/// The outcome of one simulated playback run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlaybackReport {
    /// Every presented event with intended and actual times.
    pub events: Vec<PlayedEvent>,
    /// Number of `Must` windows the actual times violated.
    pub must_violations: usize,
    /// Number of `May` windows the actual times violated.
    pub may_violations: usize,
    /// Total freeze-frame (gap-bridging) time needed on continuous channels,
    /// in milliseconds.
    pub freeze_frame_ms: i64,
    /// Actual end of the presentation.
    pub total_duration: TimeMs,
}

impl PlaybackReport {
    /// Largest absolute drift of any event.
    pub fn max_drift_ms(&self) -> i64 {
        self.events
            .iter()
            .map(|e| e.drift_ms().abs())
            .max()
            .unwrap_or(0)
    }

    /// Mean absolute drift over all events.
    pub fn mean_drift_ms(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        self.events
            .iter()
            .map(|e| e.drift_ms().abs() as f64)
            .sum::<f64>()
            / self.events.len() as f64
    }

    /// True when no `Must` window was violated in this run.
    pub fn meets_must_constraints(&self) -> bool {
        self.must_violations == 0
    }
}

impl fmt::Display for PlaybackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} events, {} must violations, {} may violations, max drift {} ms, freeze {} ms",
            self.events.len(),
            self.must_violations,
            self.may_violations,
            self.max_drift_ms(),
            self.freeze_frame_ms
        )?;
        write!(f, "actual duration: {}", self.total_duration)
    }
}

/// Runs `runs` playback simulations with different seeds and returns the
/// fraction of runs in which every `Must` window held.
///
/// This is the "Must-satisfaction rate" series of the Figure 8 bench.
pub fn must_satisfaction_rate(
    doc: &Document,
    result: &SolveResult,
    resolver: &dyn DescriptorResolver,
    base_jitter: &JitterModel,
    runs: u32,
) -> Result<f64> {
    if runs == 0 {
        return Ok(1.0);
    }
    let mut ok = 0u32;
    for run in 0..runs {
        let jitter = JitterModel {
            seed: base_jitter.seed.wrapping_add(run as u64),
            ..base_jitter.clone()
        };
        let report = PlayerSession::new(doc, result, resolver, &jitter)?.run_to_completion();
        if report.meets_must_constraints() {
            ok += 1;
        }
    }
    Ok(ok as f64 / runs as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ConstraintGraph;
    use crate::types::ScheduleOptions;
    use cmif_core::arc::{Anchor, SyncArc};
    use cmif_core::prelude::*;

    fn doc_with_window(window_ms: i64) -> Document {
        let mut doc = DocumentBuilder::new("win")
            .channel("audio", MediaKind::Audio)
            .channel("caption", MediaKind::Text)
            .descriptor(
                DataDescriptor::new("speech", MediaKind::Audio, "pcm8")
                    .with_duration(TimeMs::from_secs(6)),
            )
            .root_par(|root| {
                root.ext("voice", "audio", "speech");
                root.imm_text("line", "caption", "caption text", 3_000);
            })
            .build()
            .unwrap();
        let line = doc.find("/line").unwrap();
        doc.add_arc(
            line,
            SyncArc::hard_start("../voice", "").with_window(
                DelayMs::ZERO,
                MaxDelay::Bounded(DelayMs::from_millis(window_ms)),
            ),
        )
        .unwrap();
        doc
    }

    fn solved(doc: &Document) -> SolveResult {
        ConstraintGraph::derive(doc, &doc.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(doc, &doc.catalog)
            .unwrap()
    }

    fn simulate(doc: &Document, result: &SolveResult, jitter: &JitterModel) -> PlaybackReport {
        PlayerSession::new(doc, result, &doc.catalog, jitter)
            .unwrap()
            .run_to_completion()
    }

    #[test]
    fn ideal_device_matches_the_schedule_exactly() {
        let doc = doc_with_window(0);
        let result = solved(&doc);
        let report = simulate(&doc, &result, &JitterModel::ideal());
        assert_eq!(report.must_violations, 0);
        assert_eq!(report.may_violations, 0);
        assert_eq!(report.max_drift_ms(), 0);
        assert_eq!(report.total_duration, result.schedule.total_duration);
    }

    #[test]
    fn jitter_beyond_a_hard_window_causes_must_violations() {
        let doc = doc_with_window(0);
        let result = solved(&doc);
        // 400 ms of caption-channel jitter against a 0 ms window: essentially
        // every non-zero draw violates the hard window.
        let jitter = JitterModel::ideal().with_channel("caption", 400);
        let jitter = JitterModel { seed: 3, ..jitter };
        let report = simulate(&doc, &result, &jitter);
        assert!(report.must_violations >= 1);
        assert!(report.max_drift_ms() > 0);
    }

    #[test]
    fn wide_windows_absorb_the_same_jitter() {
        let doc = doc_with_window(500);
        let result = solved(&doc);
        let jitter = JitterModel {
            seed: 3,
            ..JitterModel::ideal().with_channel("caption", 400)
        };
        let report = simulate(&doc, &result, &jitter);
        assert_eq!(report.must_violations, 0);
    }

    #[test]
    fn satisfaction_rate_increases_with_window_width() {
        let narrow = doc_with_window(50);
        let wide = doc_with_window(1_000);
        let narrow_result = solved(&narrow);
        let wide_result = solved(&wide);
        let jitter = JitterModel::uniform(600, 11);
        let narrow_rate =
            must_satisfaction_rate(&narrow, &narrow_result, &narrow.catalog, &jitter, 40).unwrap();
        let wide_rate =
            must_satisfaction_rate(&wide, &wide_result, &wide.catalog, &jitter, 40).unwrap();
        assert!(wide_rate > narrow_rate);
        assert!(wide_rate > 0.9);
    }

    #[test]
    fn late_controlling_events_push_their_targets() {
        // The caption is hard-synchronized to the voice. If the voice starts
        // late, the caption moves with it and the Must window still holds.
        let doc = doc_with_window(0);
        let result = solved(&doc);
        let jitter = JitterModel {
            seed: 9,
            ..JitterModel::ideal().with_channel("audio", 300)
        };
        let report = simulate(&doc, &result, &jitter);
        let voice = report.events.iter().find(|e| e.name == "voice").unwrap();
        let line = report.events.iter().find(|e| e.name == "line").unwrap();
        assert!(voice.drift_ms() > 0);
        assert!(line.actual_begin >= voice.actual_begin);
        assert_eq!(report.must_violations, 0);
    }

    #[test]
    fn freeze_frames_are_accumulated_for_continuous_channels() {
        // Two video shots with a forced 2-second gap between them.
        let mut doc = DocumentBuilder::new("freeze")
            .channel("video", MediaKind::Video)
            .channel("caption", MediaKind::Text)
            .descriptor(
                DataDescriptor::new("v", MediaKind::Video, "rgb24")
                    .with_duration(TimeMs::from_secs(2)),
            )
            .root_par(|root| {
                root.seq("track", |t| {
                    t.ext("shot-1", "video", "v");
                    t.ext("shot-2", "video", "v");
                });
                root.imm_text("long", "caption", "slow caption", 6_000);
            })
            .build()
            .unwrap();
        let shot2 = doc.find("/track/shot-2").unwrap();
        doc.add_arc(
            shot2,
            SyncArc::hard_start("/long", "").from_source_anchor(Anchor::End),
        )
        .unwrap();
        let result = solved(&doc);
        let report = simulate(&doc, &result, &JitterModel::ideal());
        assert_eq!(report.freeze_frame_ms, 4_000);
    }

    #[test]
    fn report_display_and_mean_drift() {
        let doc = doc_with_window(1_000);
        let result = solved(&doc);
        let jitter = JitterModel::uniform(200, 5);
        let report = simulate(&doc, &result, &jitter);
        assert!(report.mean_drift_ms() >= 0.0);
        let text = report.to_string();
        assert!(text.contains("events"));
        assert!(text.contains("actual duration"));
    }

    #[test]
    fn empty_rate_run_count_defaults_to_full_satisfaction() {
        let doc = doc_with_window(100);
        let result = solved(&doc);
        let rate =
            must_satisfaction_rate(&doc, &result, &doc.catalog, &JitterModel::ideal(), 0).unwrap();
        assert_eq!(rate, 1.0);
    }
}
