//! A Muse-style flat timeline format.
//!
//! §3.2 compares CMIF with Muse \[Hodges89\], "where a time line concept is
//! employed for synchronization". The essential difference: a timeline
//! format pins every event to absolute start/stop times on named tracks,
//! with no structure, no tolerance windows and no controlling/controlled
//! relationships. [`MuseTimeline`] implements that model (populated from a
//! CMIF schedule), so the benches can measure what is lost and what editing
//! costs when a document is retargeted.

use std::collections::BTreeMap;

use cmif_core::node::NodeId;
use cmif_core::time::TimeMs;
use cmif_scheduler::Schedule;

/// One cue on a Muse-style timeline: absolute times on a named track.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineCue {
    /// The track (channel) the cue plays on.
    pub track: String,
    /// The presented block (leaf node in the originating document).
    pub node: NodeId,
    /// Human-readable label.
    pub label: String,
    /// Absolute start time.
    pub start: TimeMs,
    /// Absolute stop time.
    pub stop: TimeMs,
}

/// A flat timeline document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MuseTimeline {
    /// Cues in start-time order.
    pub cues: Vec<TimelineCue>,
}

impl MuseTimeline {
    /// Builds a timeline from a CMIF schedule — the conversion throws away
    /// the tree, the arcs and the tolerance windows and keeps only the
    /// solved absolute times.
    pub fn from_schedule(schedule: &Schedule) -> MuseTimeline {
        let mut cues: Vec<TimelineCue> = schedule
            .entries
            .iter()
            .map(|entry| TimelineCue {
                track: entry.channel.as_str().to_string(),
                node: entry.node,
                label: entry.name.as_str().to_string(),
                start: entry.begin,
                stop: entry.end,
            })
            .collect();
        cues.sort_by_key(|cue| (cue.start, cue.node));
        MuseTimeline { cues }
    }

    /// Number of cues.
    pub fn len(&self) -> usize {
        self.cues.len()
    }

    /// True when the timeline has no cues.
    pub fn is_empty(&self) -> bool {
        self.cues.is_empty()
    }

    /// The cues of one track, in time order.
    pub fn track(&self, name: &str) -> Vec<&TimelineCue> {
        self.cues.iter().filter(|c| c.track == name).collect()
    }

    /// Total duration of the timeline.
    pub fn duration(&self) -> TimeMs {
        self.cues
            .iter()
            .map(|c| c.stop)
            .max()
            .unwrap_or(TimeMs::ZERO)
    }

    /// Simulates the edit a timeline author must perform when one block's
    /// duration changes by `delta_ms`: every cue that starts at or after the
    /// changed cue's stop time must be moved by hand (absolute times know
    /// nothing about *why* they were placed where they are). Returns the
    /// number of cues whose times had to be edited (including the changed
    /// cue itself).
    ///
    /// The CMIF equivalent is zero hand edits: the duration lives in one
    /// data descriptor and the scheduler re-derives every other time.
    pub fn retarget_cost(&self, changed: NodeId, delta_ms: i64) -> usize {
        let changed_cue = match self.cues.iter().find(|c| c.node == changed) {
            Some(cue) => cue.clone(),
            None => return 0,
        };
        let mut edited = 1; // the changed cue itself
        if delta_ms == 0 {
            return edited;
        }
        for cue in &self.cues {
            if cue.node != changed && cue.start >= changed_cue.stop {
                edited += 1;
            }
        }
        edited
    }

    /// Applies the retarget edit, shifting affected cues (what the hand
    /// edits of [`MuseTimeline::retarget_cost`] would produce).
    pub fn retarget(&mut self, changed: NodeId, delta_ms: i64) {
        let changed_stop = match self.cues.iter().find(|c| c.node == changed) {
            Some(cue) => cue.stop,
            None => return,
        };
        for cue in &mut self.cues {
            if cue.node == changed {
                cue.stop = TimeMs::from_millis(cue.stop.as_millis() + delta_ms);
            } else if cue.start >= changed_stop {
                cue.start = TimeMs::from_millis(cue.start.as_millis() + delta_ms);
                cue.stop = TimeMs::from_millis(cue.stop.as_millis() + delta_ms);
            }
        }
        self.cues.sort_by_key(|cue| (cue.start, cue.node));
    }

    /// Renders the timeline as text, one track per block.
    pub fn render(&self) -> String {
        let mut by_track: BTreeMap<&str, Vec<&TimelineCue>> = BTreeMap::new();
        for cue in &self.cues {
            by_track.entry(cue.track.as_str()).or_default().push(cue);
        }
        let mut out = String::new();
        for (track, cues) in by_track {
            out.push_str(&format!("track {track}\n"));
            for cue in cues {
                out.push_str(&format!("  {} .. {}  {}\n", cue.start, cue.stop, cue.label));
            }
        }
        out
    }
}

/// What the conversion from CMIF to a flat timeline loses.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimelineLoss {
    /// Interior structure nodes (seq/par grouping) that have no counterpart.
    pub structure_nodes_lost: usize,
    /// Explicit synchronization arcs (and their Must/May + δ/ε windows)
    /// that have no counterpart.
    pub arcs_lost: usize,
    /// Styles that have no counterpart.
    pub styles_lost: usize,
}

/// Measures the information lost converting a document to a flat timeline.
pub fn conversion_loss(doc: &cmif_core::tree::Document) -> TimelineLoss {
    let interior = doc
        .preorder()
        .into_iter()
        .filter(|id| doc.node(*id).map(|n| !n.kind.is_leaf()).unwrap_or(false))
        .count();
    TimelineLoss {
        structure_nodes_lost: interior,
        arcs_lost: doc.arcs().len(),
        styles_lost: doc.styles.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmif_core::prelude::*;
    use cmif_scheduler::{ConstraintGraph, ScheduleOptions};

    fn doc() -> Document {
        DocumentBuilder::new("news")
            .channel("audio", MediaKind::Audio)
            .channel("caption", MediaKind::Text)
            .descriptor(
                DataDescriptor::new("s1", MediaKind::Audio, "pcm8")
                    .with_duration(TimeMs::from_secs(4)),
            )
            .descriptor(
                DataDescriptor::new("s2", MediaKind::Audio, "pcm8")
                    .with_duration(TimeMs::from_secs(3)),
            )
            .style(StyleDef::new("caption-style"))
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
            .unwrap()
    }

    fn timeline(d: &Document) -> MuseTimeline {
        let solved = ConstraintGraph::derive(d, &d.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(d, &d.catalog)
            .unwrap();
        MuseTimeline::from_schedule(&solved.schedule)
    }

    #[test]
    fn conversion_produces_absolute_cues_per_track() {
        let d = doc();
        let t = timeline(&d);
        assert_eq!(t.len(), 4);
        assert_eq!(t.track("audio").len(), 2);
        assert_eq!(t.track("caption").len(), 2);
        assert_eq!(t.duration(), TimeMs::from_secs(7));
        let second_voice = t.track("audio")[1];
        assert_eq!(second_voice.start, TimeMs::from_secs(4));
        let text = t.render();
        assert!(text.contains("track audio"));
        assert!(text.contains("4s .. 7s"));
    }

    #[test]
    fn retarget_cost_counts_downstream_cues() {
        let d = doc();
        let t = timeline(&d);
        let first_voice = d.find("/story-1/voice").unwrap();
        // Making story-1's voice longer forces hand edits of every cue that
        // follows it: story-2's voice and caption, plus the changed cue.
        assert_eq!(t.retarget_cost(first_voice, 1_000), 3);
        // Changing the last block touches only itself.
        let second_voice = d.find("/story-2/voice").unwrap();
        assert_eq!(t.retarget_cost(second_voice, 1_000), 1);
        // Unknown nodes cost nothing; zero deltas touch only the cue itself.
        assert_eq!(t.retarget_cost(NodeId::from_index(999), 1_000), 0);
        assert_eq!(t.retarget_cost(first_voice, 0), 1);
    }

    #[test]
    fn retarget_shifts_downstream_cues() {
        let d = doc();
        let mut t = timeline(&d);
        let first_voice = d.find("/story-1/voice").unwrap();
        t.retarget(first_voice, 1_000);
        assert_eq!(t.duration(), TimeMs::from_secs(8));
        let second_voice = d.find("/story-2/voice").unwrap();
        let cue = t.cues.iter().find(|c| c.node == second_voice).unwrap();
        assert_eq!(cue.start, TimeMs::from_secs(5));
        // The CMIF path: change the descriptor duration and re-solve; no cue
        // arithmetic, and the result agrees.
        let mut d2 = doc();
        d2.catalog.upsert(
            DataDescriptor::new("s1", MediaKind::Audio, "pcm8").with_duration(TimeMs::from_secs(5)),
        );
        let solved = ConstraintGraph::derive(&d2, &d2.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(&d2, &d2.catalog)
            .unwrap();
        assert_eq!(solved.schedule.total_duration, TimeMs::from_secs(8));
    }

    #[test]
    fn conversion_loss_counts_structure_arcs_and_styles() {
        let mut d = doc();
        let line = d.find("/story-2/line").unwrap();
        d.add_arc(line, SyncArc::hard_start("../voice", ""))
            .unwrap();
        let loss = conversion_loss(&d);
        assert_eq!(loss.structure_nodes_lost, 3); // root + two stories
        assert_eq!(loss.arcs_lost, 1);
        assert_eq!(loss.styles_lost, 1);
    }

    #[test]
    fn empty_timeline() {
        let t = MuseTimeline::default();
        assert!(t.is_empty());
        assert_eq!(t.duration(), TimeMs::ZERO);
    }
}
