//! Schedules and timeline rendering.
//!
//! A [`Schedule`] is the output of the solver: begin/end times for every
//! node plus a flat, per-leaf event list. [`Schedule::channel_timelines`]
//! regroups the events per channel — the columns of Figures 3 and 10 — and
//! [`Schedule::render_gantt`] draws a proportional text chart of them, which
//! is what the Figure 4/10 benches print when they regenerate the paper's
//! news-fragment artwork.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use cmif_core::channel::MediaKind;
use cmif_core::node::NodeId;
use cmif_core::symbol::Symbol;
use cmif_core::time::TimeMs;

/// One presented event on the timeline: a leaf node on its channel.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// The leaf node presented.
    pub node: NodeId,
    /// The node's interned name (or the `#<index>` node-id form when
    /// unnamed — a bounded vocabulary, unlike per-document paths).
    pub name: Symbol,
    /// The channel the event plays on.
    pub channel: Symbol,
    /// The medium presented.
    pub medium: MediaKind,
    /// Scheduled beginning.
    pub begin: TimeMs,
    /// Scheduled end.
    pub end: TimeMs,
}

impl TimelineEntry {
    /// The entry's scheduled duration.
    pub fn duration(&self) -> TimeMs {
        TimeMs(self.end.as_millis() - self.begin.as_millis())
    }

    /// True when two entries overlap in time.
    pub fn overlaps(&self, other: &TimelineEntry) -> bool {
        self.begin < other.end && other.begin < self.end
    }
}

impl fmt::Display for TimelineEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} .. {}] {:<10} {} ({})",
            self.begin, self.end, self.channel, self.name, self.medium
        )
    }
}

/// The complete schedule of a document.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Per-leaf events, ordered by begin time.
    pub entries: Vec<TimelineEntry>,
    /// Begin and end times of every node (interior nodes included).
    pub node_times: HashMap<NodeId, (TimeMs, TimeMs)>,
    /// The end time of the root node.
    pub total_duration: TimeMs,
}

impl Schedule {
    /// Groups the entries per channel, keeping begin-time order inside each
    /// channel.
    pub fn channel_timelines(&self) -> BTreeMap<Symbol, Vec<&TimelineEntry>> {
        let mut out: BTreeMap<Symbol, Vec<&TimelineEntry>> = BTreeMap::new();
        for entry in &self.entries {
            out.entry(entry.channel).or_default().push(entry);
        }
        out
    }

    /// The events active at a given instant.
    ///
    /// Each call scans every entry. A caller sampling many instants should
    /// sweep the entries in begin order instead, as the pipeline's
    /// storyboard does.
    pub fn active_at(&self, at: TimeMs) -> Vec<&TimelineEntry> {
        self.entries
            .iter()
            .filter(|e| e.begin <= at && at < e.end)
            .collect()
    }

    /// The maximum number of simultaneously active events on one channel.
    ///
    /// On a single channel events are serialized "in linear time order"
    /// (§3.1); a value greater than one means the schedule asks a channel to
    /// present two blocks at once, which a conflict detector reports as a
    /// device-class conflict.
    pub fn max_channel_concurrency(&self, channel: &str) -> usize {
        let Some(channel) = Symbol::lookup(channel) else {
            return 0;
        };
        peak_overlap(self.entries.iter().filter(|e| e.channel == channel))
    }

    /// Peak number of simultaneously active events across all channels.
    pub fn peak_concurrency(&self) -> usize {
        peak_overlap(self.entries.iter())
    }

    /// Renders a proportional text Gantt chart: one row per event, grouped
    /// by channel, `width` characters spanning the whole document.
    pub fn render_gantt(&self, width: usize) -> String {
        let total = self.total_duration.as_millis().max(1);
        let width = width.max(10);
        let mut out = String::new();
        // Symbol order is intern order; render channels alphabetically so
        // charts stay stable and human-scannable.
        let mut timelines: Vec<(Symbol, Vec<&TimelineEntry>)> =
            self.channel_timelines().into_iter().collect();
        timelines.sort_by_key(|(channel, _)| channel.as_str());
        for (channel, entries) in timelines {
            out.push_str(&format!("{channel}\n"));
            for entry in entries {
                let start = (entry.begin.as_millis() * width as i64 / total) as usize;
                let end = (entry.end.as_millis() * width as i64 / total) as usize;
                let end = end.max(start + 1).min(width);
                let mut bar = String::with_capacity(width);
                bar.push_str(&" ".repeat(start));
                bar.push_str(&"#".repeat(end - start));
                bar.push_str(&" ".repeat(width - end));
                out.push_str(&format!("  |{bar}| {}\n", entry.name));
            }
        }
        out.push_str(&format!("total: {}\n", self.total_duration));
        out
    }

    /// Renders the schedule as a plain event table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("begin      end        channel      event\n");
        for entry in &self.entries {
            out.push_str(&format!(
                "{:<10} {:<10} {:<12} {}\n",
                entry.begin.to_string(),
                entry.end.to_string(),
                entry.channel,
                entry.name
            ));
        }
        out
    }
}

/// The most entries active at once: a sweep over their begin and end
/// boundaries. An entry ending at the instant another begins does not
/// overlap it, and an empty entry overlaps nothing.
fn peak_overlap<'e>(entries: impl Iterator<Item = &'e TimelineEntry>) -> usize {
    let mut boundaries: Vec<(TimeMs, i64)> = Vec::new();
    for entry in entries {
        if entry.begin < entry.end {
            boundaries.push((entry.begin, 1));
            boundaries.push((entry.end, -1));
        }
    }
    boundaries.sort_by_key(|(t, delta)| (*t, *delta));
    let mut current = 0i64;
    let mut max = 0i64;
    for (_, delta) in boundaries {
        current += delta;
        max = max.max(current);
    }
    max.max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmif_core::node::NodeId;

    fn entry(name: &str, channel: &str, begin: i64, end: i64, index: u32) -> TimelineEntry {
        TimelineEntry {
            node: NodeId::from_index(index),
            name: Symbol::intern(name),
            channel: Symbol::intern(channel),
            medium: MediaKind::Text,
            begin: TimeMs::from_millis(begin),
            end: TimeMs::from_millis(end),
        }
    }

    fn schedule() -> Schedule {
        let entries = vec![
            entry("a", "audio", 0, 4_000, 1),
            entry("b", "caption", 0, 2_000, 2),
            entry("c", "caption", 2_000, 5_000, 3),
            entry("d", "audio", 4_000, 6_000, 4),
        ];
        let mut node_times = HashMap::new();
        for e in &entries {
            node_times.insert(e.node, (e.begin, e.end));
        }
        Schedule {
            entries,
            node_times,
            total_duration: TimeMs::from_millis(6_000),
        }
    }

    #[test]
    fn durations_and_overlap() {
        let a = entry("a", "audio", 0, 1_000, 1);
        let b = entry("b", "audio", 500, 1_500, 2);
        let c = entry("c", "audio", 1_000, 2_000, 3);
        assert_eq!(a.duration(), TimeMs::from_millis(1_000));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn channel_timelines_group_and_keep_order() {
        let s = schedule();
        let groups = s.channel_timelines();
        assert_eq!(groups[&Symbol::intern("audio")].len(), 2);
        assert_eq!(groups[&Symbol::intern("caption")].len(), 2);
        assert_eq!(groups[&Symbol::intern("caption")][0].name, "b");
        assert_eq!(groups[&Symbol::intern("caption")][1].name, "c");
    }

    #[test]
    fn active_at_finds_running_events() {
        let s = schedule();
        let names: Vec<_> = s
            .active_at(TimeMs::from_millis(2_500))
            .iter()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(names, vec!["a", "c"]);
        assert!(s.active_at(TimeMs::from_millis(6_000)).is_empty());
    }

    #[test]
    fn concurrency_measures() {
        let s = schedule();
        assert_eq!(s.max_channel_concurrency("audio"), 1);
        assert_eq!(s.max_channel_concurrency("caption"), 1);
        assert_eq!(s.max_channel_concurrency("video"), 0);
        assert_eq!(s.peak_concurrency(), 2);
    }

    #[test]
    fn overlapping_channel_events_are_detected() {
        let mut s = schedule();
        s.entries.push(entry("e", "audio", 3_000, 5_000, 5));
        assert_eq!(s.max_channel_concurrency("audio"), 2);
    }

    #[test]
    fn gantt_renders_rows_for_every_event() {
        let s = schedule();
        let chart = s.render_gantt(40);
        assert_eq!(chart.matches('|').count(), 8); // two bars per event row
        assert!(chart.contains("audio"));
        assert!(chart.contains("caption"));
        assert!(chart.contains("total: 6s"));
    }

    #[test]
    fn table_lists_all_events() {
        let s = schedule();
        let table = s.render_table();
        assert_eq!(table.lines().count(), 5);
        assert!(table.contains("caption"));
    }

    #[test]
    fn entry_display() {
        let e = entry("intro", "video", 0, 1_000, 1);
        let text = e.to_string();
        assert!(text.contains("intro"));
        assert!(text.contains("video"));
    }
}
