//! Document viewing and reading tools (pipeline stage 5).
//!
//! "These tools present a document (based on the document structure map, the
//! presentation map, and the local filter map) and provide a means for a
//! reader to 'view' or (possibly) edit a document. Note that the document
//! structure map provides a data-independent, position-independent and
//! system-independent view of the multimedia document being read, acting as
//! an internal table-of-contents function." (§2)
//!
//! Two textual renderings live here:
//!
//! * [`table_of_contents`] — the reading view: the document structure with
//!   per-node timing, exactly the "internal table-of-contents function";
//! * [`storyboard`] — the viewing view: what each channel shows at each
//!   moment, combining the schedule, the presentation map and the filter
//!   plan (dropped channels are marked rather than silently omitted).
//!
//! The storyboard is one sweep over the timeline: it costs
//! O(entries · log entries + frames + changes × active), where `changes` is
//! the number of sampled instants at which an entry joined or left and
//! `active` the number of entries playing there. Each entry is described
//! once, placement first, into one buffer the whole call reuses, so
//! describing an entry allocates only its shared line, besides what the
//! resolver's lookup costs. A frame at which nothing joined or left shares
//! its predecessor's line list. A document that would sample more than
//! [`MAX_STORYBOARD_FRAMES`] frames is refused with
//! [`PipelineError::TooManyFrames`] before anything is allocated.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::error::{PipelineError, Result};
use cmif_core::descriptor::DescriptorResolver;
use cmif_core::node::{NodeId, NodeKind};
use cmif_core::symbol::Symbol;
use cmif_core::time::TimeMs;
use cmif_core::tree::Document;
use cmif_scheduler::Schedule;

use crate::constraint::FilterPlan;
use crate::presentation::{Placement, PresentationMap};

/// The most frames [`storyboard`] samples: enough for a 36-hour document at
/// the default 1 s step. A longer document (or a finer step) is refused
/// with [`PipelineError::TooManyFrames`] instead of building a frame per
/// step of an arbitrarily long timeline.
pub const MAX_STORYBOARD_FRAMES: usize = 1 << 17;

/// The width, in characters, a table-of-contents name is padded to.
const NAME_WIDTH: usize = 24;

/// Renders the reading view: an indented table of contents with node kinds,
/// names and scheduled times.
pub fn table_of_contents(doc: &Document, schedule: &Schedule) -> Result<String> {
    let mut out = String::new();
    // Preorder, with a stack of (node, depth) rather than recursion.
    let mut stack = vec![(doc.root()?, 0)];
    while let Some((node, depth)) = stack.pop() {
        let n = doc.node(node)?;
        for _ in 0..depth {
            out.push_str("  ");
        }
        let name = n.name().unwrap_or("(unnamed)");
        out.push_str(n.kind.keyword());
        out.push(' ');
        out.push_str(name);
        // Padded by characters, not bytes, as `{:<24}` pads.
        for _ in name.chars().count()..NAME_WIDTH {
            out.push(' ');
        }
        out.push_str(" [");
        match schedule.node_times.get(&node) {
            Some((begin, end)) => {
                let _ = write!(out, "{begin} .. {end}");
            }
            None => out.push_str("unscheduled"),
        }
        out.push_str("]\n");
        stack.extend(n.children.iter().rev().map(|&child| (child, depth + 1)));
    }
    Ok(out)
}

/// One moment of the storyboard: what every channel is doing at `at`.
#[derive(Debug, Clone, PartialEq)]
pub struct StoryboardFrame {
    /// The instant described.
    pub at: TimeMs,
    /// `(channel, description)` pairs, one per channel with activity,
    /// ordered by channel name, then description. A description is shared
    /// by every frame its entry is active in, and frames between which no
    /// entry joined or left share one list.
    pub lines: Arc<[(Symbol, Arc<str>)]>,
}

/// An entry playing at the sweep's current instant.
struct Active {
    end: TimeMs,
    /// The channel's name, read from the pool once, for ordering.
    channel: &'static str,
    symbol: Symbol,
    text: Arc<str>,
}

/// Renders the viewing view: samples the schedule every `step_ms`
/// milliseconds (at least 1) from 0 up to, not including, the total
/// duration — one frame at 0 for an empty document — and describes, for
/// each channel, what is playing and where it appears in the virtual
/// presentation space.
///
/// The schedule is swept once in begin order: an entry joins the active
/// set when the sweep passes its begin and leaves at its end, and its line
/// is built the first time it is active at a sampled instant. A frame's
/// list is built only where an entry joined or left; every other frame
/// shares its predecessor's. Refuses with
/// [`PipelineError::TooManyFrames`] when the document would take more than
/// [`MAX_STORYBOARD_FRAMES`] frames; fails when an entry active at a
/// sampled instant names a node the document cannot describe.
pub fn storyboard(
    doc: &Document,
    schedule: &Schedule,
    presentation: &PresentationMap,
    filter: Option<&FilterPlan>,
    step_ms: i64,
    resolver: &dyn DescriptorResolver,
) -> Result<Vec<StoryboardFrame>> {
    let step = step_ms.max(1);
    let total = schedule.total_duration.as_millis();
    let count = match total {
        t if t < 0 => 0,
        0 => 1,
        t => t.unsigned_abs().div_ceil(step.unsigned_abs()),
    };
    if count > MAX_STORYBOARD_FRAMES as u64 {
        return Err(PipelineError::TooManyFrames {
            stage: "viewing",
            frames: count,
            limit: MAX_STORYBOARD_FRAMES,
        });
    }

    let entries = &schedule.entries;
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by_key(|&i| entries[i].begin);
    let mut pending = order.into_iter().peekable();
    // Kept in line order, so no frame needs sorting.
    let mut active: Vec<Active> = Vec::new();
    let mut fresh = Vec::new();
    // Every description is written here, then copied into its line.
    let mut text = String::new();
    let mut frames: Vec<StoryboardFrame> = Vec::with_capacity(count as usize);
    for k in 0..count as i64 {
        // k < count, so k · step < total: no instant can overflow.
        let at = TimeMs::from_millis(k * step);
        let playing = active.len();
        active.retain(|line| at < line.end);
        while let Some(i) = pending.next_if(|&i| entries[i].begin <= at) {
            if at < entries[i].end {
                fresh.push(i);
            }
        }
        let changed = active.len() != playing || !fresh.is_empty();
        // In schedule order, so an undescribable node fails with the same
        // error a per-instant scan of the schedule would report first.
        fresh.sort_unstable();
        for i in fresh.drain(..) {
            let entry = &entries[i];
            text.clear();
            write_place(&mut text, entry.channel, presentation, filter);
            describe_node(doc, entry.node, resolver, &mut text)?;
            let channel = entry.channel.as_str();
            let slot = active
                .partition_point(|line| (line.channel, &*line.text) <= (channel, text.as_str()));
            let line = Active {
                end: entry.end,
                channel,
                symbol: entry.channel,
                text: Arc::from(text.as_str()),
            };
            active.insert(slot, line);
        }
        let lines = match frames.last() {
            Some(previous) if !changed => Arc::clone(&previous.lines),
            _ => active
                .iter()
                .map(|line| (line.symbol, Arc::clone(&line.text)))
                .collect(),
        };
        frames.push(StoryboardFrame { at, lines });
    }
    Ok(frames)
}

/// Writes where a channel's lines say it appears (`screen (x,y) wxh: `,
/// `speaker n: ` or `unplaced: `), or that the device dropped it.
fn write_place(
    out: &mut String,
    channel: Symbol,
    presentation: &PresentationMap,
    filter: Option<&FilterPlan>,
) {
    if filter.is_some_and(|plan| plan.dropped_channels.contains(&channel)) {
        out.push_str("[dropped on this device] ");
        return;
    }
    let _ = match presentation.placement_symbol(channel) {
        Some(Placement::Screen(region)) => write!(out, "screen {region}: "),
        Some(Placement::Speaker { slot }) => write!(out, "speaker {slot}: "),
        None => write!(out, "unplaced: "),
    };
}

/// Renders a storyboard as plain text.
pub fn render_storyboard(frames: &[StoryboardFrame]) -> String {
    let mut out = String::new();
    for frame in frames {
        let _ = writeln!(out, "t = {}", frame.at);
        if frame.lines.is_empty() {
            let _ = writeln!(out, "  (silence / empty screen)");
        }
        for (channel, description) in frame.lines.iter() {
            let _ = writeln!(out, "  {channel:<10} {description}");
        }
    }
    out
}

/// Writes what `node` presents into `out`: its name, then a preview of its
/// text, its inline byte count or the media it references.
fn describe_node(
    doc: &Document,
    node: NodeId,
    resolver: &dyn DescriptorResolver,
    out: &mut String,
) -> Result<()> {
    let n = doc.node(node)?;
    out.push_str(n.name().unwrap_or("(unnamed)"));
    match &n.kind {
        NodeKind::Imm(data) => match data.as_text() {
            Some(text) => {
                // A preview of the first 32 characters.
                let end = text.char_indices().nth(32).map_or(text.len(), |(at, _)| at);
                out.push_str(" \u{201c}");
                out.push_str(&text[..end]);
                out.push('\u{201d}');
            }
            None => {
                let _ = write!(out, " ({} inline bytes)", data.len());
            }
        },
        NodeKind::Ext => {
            let key = doc.file_of(node)?.unwrap_or_else(|| Symbol::intern("?"));
            out.push_str(" <");
            out.push_str(key.as_str());
            if let Some(descriptor) = resolver.resolve_symbol(key) {
                out.push_str(": ");
                out.push_str(&descriptor.format);
                out.push(' ');
                write_size(out, descriptor.size_bytes);
            }
            out.push('>');
        }
        NodeKind::Seq | NodeKind::Par => {}
    }
    Ok(())
}

/// Writes a byte count in B, kB or MB, to one decimal above a kilobyte.
fn write_size(out: &mut String, bytes: u64) {
    let _ = if bytes >= 1_000_000 {
        write!(out, "{:.1} MB", bytes as f64 / 1_000_000.0)
    } else if bytes >= 1_000 {
        write!(out, "{:.1} kB", bytes as f64 / 1_000.0)
    } else {
        write!(out, "{bytes} B")
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presentation::map_presentation;
    use cmif_core::prelude::*;
    use cmif_scheduler::{ConstraintGraph, ScheduleOptions, TimelineEntry};

    fn doc() -> Document {
        DocumentBuilder::new("news")
            .channel("audio", MediaKind::Audio)
            .channel("caption", MediaKind::Text)
            .descriptor(
                DataDescriptor::new("speech", MediaKind::Audio, "pcm8")
                    .with_size(48_000)
                    .with_duration(TimeMs::from_secs(6)),
            )
            .root_seq(|news| {
                news.par("story-1", |story| {
                    story.ext("voice", "audio", "speech");
                    story.imm_text("line-1", "caption", "Paintings stolen from museum", 3_000);
                });
            })
            .build()
            .unwrap()
    }

    #[test]
    fn table_of_contents_lists_structure_with_times() {
        let d = doc();
        let result = ConstraintGraph::derive(&d, &d.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(&d, &d.catalog)
            .unwrap();
        let toc = table_of_contents(&d, &result.schedule).unwrap();
        assert!(toc.contains("seq news"));
        assert!(toc.contains("par story-1"));
        assert!(toc.contains("ext voice"));
        assert!(toc.contains("imm line-1"));
        assert!(toc.contains("0s .. 6s"));
        assert_eq!(toc.lines().count(), 4);
    }

    #[test]
    fn storyboard_shows_active_events_and_placements() {
        let d = doc();
        let result = ConstraintGraph::derive(&d, &d.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(&d, &d.catalog)
            .unwrap();
        let map = map_presentation(&d).unwrap();
        let frames = storyboard(&d, &result.schedule, &map, None, 2_000, &d.catalog).unwrap();
        assert_eq!(frames.len(), 3); // t = 0, 2s, 4s over a 6 s document
                                     // At t=0 both the voice and the caption are active.
        assert_eq!(frames[0].lines.len(), 2);
        let text = render_storyboard(&frames);
        assert!(text.contains("speaker 0"));
        assert!(text.contains("Paintings stolen"));
        assert!(text.contains("48.0 kB"));
        // At t=4s only the voice remains.
        assert_eq!(frames[2].lines.len(), 1);
    }

    #[test]
    fn storyboard_marks_dropped_channels() {
        let d = doc();
        let result = ConstraintGraph::derive(&d, &d.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(&d, &d.catalog)
            .unwrap();
        let map = map_presentation(&d).unwrap();
        let plan = FilterPlan {
            dropped_channels: vec![Symbol::intern("caption")],
            ..FilterPlan::default()
        };
        let frames =
            storyboard(&d, &result.schedule, &map, Some(&plan), 3_000, &d.catalog).unwrap();
        let text = render_storyboard(&frames);
        assert!(text.contains("[dropped on this device]"));
    }

    #[test]
    fn empty_schedule_produces_a_single_silent_frame() {
        let d = DocumentBuilder::new("empty")
            .channel("caption", MediaKind::Text)
            .root_par(|root| {
                root.imm_text("x", "caption", "t", 0);
            })
            .build()
            .unwrap();
        let result = ConstraintGraph::derive(&d, &d.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(&d, &d.catalog)
            .unwrap();
        let map = map_presentation(&d).unwrap();
        let frames = storyboard(&d, &result.schedule, &map, None, 1_000, &d.catalog).unwrap();
        assert!(!frames.is_empty());
        let text = render_storyboard(&frames);
        assert!(text.contains("t = 0s"));
    }

    /// The `format!`-based describer the storyboard's one-buffer writer
    /// replaced; the reference every description is checked against.
    fn describe_content(
        doc: &Document,
        node: NodeId,
        resolver: &dyn DescriptorResolver,
    ) -> crate::error::Result<String> {
        let n = doc.node(node)?;
        let name = n.name().unwrap_or("(unnamed)");
        match &n.kind {
            NodeKind::Imm(data) => match data.as_text() {
                Some(text) => {
                    let preview: String = text.chars().take(32).collect();
                    Ok(format!("{name} \u{201c}{preview}\u{201d}"))
                }
                None => Ok(format!("{name} ({} inline bytes)", data.len())),
            },
            NodeKind::Ext => {
                let key = doc.file_of(node)?.unwrap_or_else(|| Symbol::intern("?"));
                match resolver.resolve_symbol(key) {
                    Some(descriptor) => Ok(format!(
                        "{name} <{key}: {} {}>",
                        descriptor.format,
                        human_size(descriptor.size_bytes)
                    )),
                    None => Ok(format!("{name} <{key}>")),
                }
            }
            _ => Ok(name.to_string()),
        }
    }

    fn human_size(bytes: u64) -> String {
        if bytes >= 1_000_000 {
            format!("{:.1} MB", bytes as f64 / 1_000_000.0)
        } else if bytes >= 1_000 {
            format!("{:.1} kB", bytes as f64 / 1_000.0)
        } else {
            format!("{bytes} B")
        }
    }

    /// The `format!`-based table of contents the direct writer replaced.
    fn table_of_contents_reference(
        doc: &Document,
        schedule: &Schedule,
    ) -> crate::error::Result<String> {
        let mut out = String::new();
        render_toc(doc, schedule, doc.root()?, 0, &mut out)?;
        Ok(out)
    }

    fn render_toc(
        doc: &Document,
        schedule: &Schedule,
        node: NodeId,
        depth: usize,
        out: &mut String,
    ) -> crate::error::Result<()> {
        let n = doc.node(node)?;
        for _ in 0..depth {
            out.push_str("  ");
        }
        let name = n.name().unwrap_or("(unnamed)");
        let _ = write!(out, "{} {:<24} [", n.kind.keyword(), name);
        match schedule.node_times.get(&node) {
            Some((begin, end)) => {
                let _ = write!(out, "{begin} .. {end}");
            }
            None => out.push_str("unscheduled"),
        }
        out.push_str("]\n");
        for &child in &n.children {
            render_toc(doc, schedule, child, depth + 1, out)?;
        }
        Ok(())
    }

    fn size(bytes: u64) -> String {
        let mut out = String::new();
        write_size(&mut out, bytes);
        out
    }

    #[test]
    fn human_size_formats() {
        assert_eq!(size(12), "12 B");
        assert_eq!(size(2_300), "2.3 kB");
        assert_eq!(size(5_500_000), "5.5 MB");
        // Every unit boundary, the rounding ties around it, and the ends.
        let mut sizes = vec![0, 1, 999, u64::MAX];
        for unit in [1_000, 1_000_000, 1_000_000_000] {
            for bytes in [unit - 51, unit - 50, unit - 49, unit, unit + 49, unit + 50] {
                sizes.push(bytes);
            }
            sizes.extend((0..2_000).map(|i| unit / 20 * i + i % 7));
        }
        for bytes in sizes {
            assert_eq!(size(bytes), human_size(bytes), "{bytes} bytes");
        }
    }

    #[test]
    fn table_of_contents_matches_the_reference() {
        let mut d = doc();
        let root = d.root().unwrap();
        let names = [
            Some("ünïcödé — “quoted”"),
            Some("exactly-twenty-four-char"),
            Some("a name that runs well past twenty-four characters"),
            Some("漢字のなまえ"),
            None,
        ];
        let mut leaves = Vec::new();
        for name in names {
            let leaf = d.add_imm_text(root, "x").unwrap();
            if let Some(name) = name {
                d.set_attr(leaf, AttrName::Name, AttrValue::Str(name.into()))
                    .unwrap();
            }
            leaves.push(leaf);
        }
        assert_eq!(names[1].unwrap().chars().count(), 24);
        let result = ConstraintGraph::derive(&d, &d.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(&d, &d.catalog)
            .unwrap();
        let mut schedule = result.schedule;
        let toc = table_of_contents(&d, &schedule).unwrap();
        assert_eq!(toc, table_of_contents_reference(&d, &schedule).unwrap());
        // Times with a millisecond remainder or a sign, and one node the
        // schedule does not know.
        let times = [
            (1, 999),
            (-1_500, 250),
            (-2_000, 1_999),
            (i64::MIN, i64::MAX),
        ];
        for (&leaf, (begin, end)) in leaves.iter().zip(times) {
            schedule
                .node_times
                .insert(leaf, (TimeMs::from_millis(begin), TimeMs::from_millis(end)));
        }
        schedule.node_times.remove(&leaves[4]);
        schedule.node_times.remove(&root);
        let toc = table_of_contents(&d, &schedule).unwrap();
        assert_eq!(toc, table_of_contents_reference(&d, &schedule).unwrap());
        assert!(toc.contains("(unnamed)"), "{toc}");
        assert!(toc.contains("unscheduled"), "{toc}");
        assert!(toc.contains("-1500ms .. 250ms"), "{toc}");
        assert!(toc.contains("-2s .. 1999ms"), "{toc}");
        // A node the document lacks fails the same way in both.
        d.node_mut(root)
            .unwrap()
            .children
            .push(NodeId::from_index(99));
        assert!(table_of_contents(&d, &schedule).is_err());
        assert_eq!(
            table_of_contents(&d, &schedule),
            table_of_contents_reference(&d, &schedule)
        );
    }

    /// The per-instant definition the sweep must reproduce: every sampled
    /// instant scans the whole schedule and describes each active entry
    /// afresh.
    fn storyboard_reference(
        doc: &Document,
        schedule: &Schedule,
        presentation: &PresentationMap,
        filter: Option<&FilterPlan>,
        step_ms: i64,
        resolver: &dyn DescriptorResolver,
    ) -> crate::error::Result<Vec<StoryboardFrame>> {
        let mut frames = Vec::new();
        let step = step_ms.max(1);
        let total = schedule.total_duration.as_millis();
        let mut at = 0i64;
        while at < total || (at == 0 && total == 0) {
            let instant = TimeMs::from_millis(at);
            let mut lines = Vec::new();
            for entry in schedule.active_at(instant) {
                let dropped = filter
                    .map(|plan| plan.dropped_channels.contains(&entry.channel))
                    .unwrap_or(false);
                let place = match presentation.placement_symbol(entry.channel) {
                    Some(Placement::Screen(region)) => format!("screen {region}"),
                    Some(Placement::Speaker { slot }) => format!("speaker {slot}"),
                    None => "unplaced".to_string(),
                };
                let content = describe_content(doc, entry.node, resolver)?;
                let description = if dropped {
                    format!("[dropped on this device] {content}")
                } else {
                    format!("{place}: {content}")
                };
                lines.push((entry.channel, Arc::<str>::from(description)));
            }
            lines.sort_by(|a, b| (a.0.as_str(), &a.1).cmp(&(b.0.as_str(), &b.1)));
            frames.push(StoryboardFrame {
                at: instant,
                lines: lines.into(),
            });
            at += step;
            if total == 0 {
                break;
            }
        }
        Ok(frames)
    }

    /// Splitmix-style generator so every case derives from its seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }

        fn millis(&mut self, n: i64) -> i64 {
            self.below(n as usize) as i64
        }
    }

    /// The fixture plus every other kind of line a storyboard shows:
    /// unnamed leaves holding a caption longer than its preview, inline
    /// bytes, and ext references with and without a descriptor.
    fn varied_doc() -> Document {
        let mut d = doc();
        let root = d.root().unwrap();
        let long = "a caption that runs on well past its thirty-two character preview";
        let leaves = [
            (d.add_imm_text(root, long).unwrap(), None),
            (d.add_imm_binary(root, vec![7; 300]).unwrap(), None),
            (d.add_ext(root).unwrap(), Some("speech")),
            (d.add_ext(root).unwrap(), Some("nowhere")),
        ];
        for (leaf, file) in leaves {
            d.set_attr(leaf, AttrName::Channel, AttrValue::Id("caption".into()))
                .unwrap();
            if let Some(file) = file {
                d.set_attr(leaf, AttrName::File, AttrValue::Str(file.into()))
                    .unwrap();
            }
        }
        d
    }

    /// A random schedule over `nodes` (plus, rarely, one of two nodes the
    /// document does not have), with a step and a filter plan to view it
    /// with.
    fn random_case(rng: &mut Rng, nodes: &[NodeId]) -> (Schedule, i64, Option<FilterPlan>) {
        // Step ≤ 0 and step 1 both sample every millisecond, so they get
        // short documents; steps of 4 s or more exceed every total.
        let (step, span) = match rng.below(6) {
            0 => (-rng.millis(3), 400),
            1 => (1, 400),
            2 => (4_000 + rng.millis(4_000), 3_000),
            _ => (1 + rng.millis(1_500), 9_000),
        };
        let total = match rng.below(8) {
            0 => 0,
            1 => -1 - rng.millis(span),
            _ => 1 + rng.millis(span),
        };
        let stride = step.max(1);
        let instant = |rng: &mut Rng| rng.millis(span / stride + 2) * stride;
        let channels = ["audio", "caption", "ghost"].map(Symbol::intern);
        let mut entries = Vec::new();
        for _ in 0..rng.below(20) {
            let begin = match rng.below(5) {
                0 => -rng.millis(span),
                1 => total.max(0) + rng.millis(span),
                2 => instant(rng),
                _ => rng.millis(span),
            };
            let end = match rng.below(6) {
                0 => begin,
                1 => begin - 1 - rng.millis(span),
                2 => instant(rng),
                _ => begin + rng.millis(span),
            };
            let node = match rng.below(30) {
                0 => NodeId::from_index((nodes.len() + rng.below(2)) as u32),
                _ => nodes[rng.below(nodes.len())],
            };
            entries.push(TimelineEntry {
                node,
                name: Symbol::intern("entry"),
                channel: channels[rng.below(channels.len())],
                medium: MediaKind::Text,
                begin: TimeMs::from_millis(begin),
                end: TimeMs::from_millis(end),
            });
        }
        let filter = match rng.below(3) {
            0 => None,
            1 => Some(FilterPlan::default()),
            _ => Some(FilterPlan {
                dropped_channels: vec![channels[rng.below(channels.len())]],
                ..FilterPlan::default()
            }),
        };
        let schedule = Schedule {
            entries,
            node_times: Default::default(),
            total_duration: TimeMs::from_millis(total),
        };
        (schedule, step, filter)
    }

    #[test]
    fn storyboard_sweep_matches_the_per_instant_reference() {
        let d = varied_doc();
        let map = map_presentation(&d).unwrap();
        let nodes = d.preorder();
        let (mut described, mut refused, mut shared, mut built) = (0, 0, 0, 0);
        for seed in 0..400 {
            let mut rng = Rng(seed);
            let (schedule, step, filter) = random_case(&mut rng, &nodes);
            let filter = filter.as_ref();
            let expected = storyboard_reference(&d, &schedule, &map, filter, step, &d.catalog);
            let actual = storyboard(&d, &schedule, &map, filter, step, &d.catalog);
            assert_eq!(actual, expected, "seed {seed}");
            match (actual, expected) {
                (Ok(actual), Ok(expected)) => {
                    assert_eq!(
                        render_storyboard(&actual),
                        render_storyboard(&expected),
                        "seed {seed}"
                    );
                    // A frame shares its predecessor's list exactly when the
                    // same entries play at both instants; every frame equals
                    // its reference, so a shared list holds equal content.
                    for pair in actual.windows(2) {
                        let is_shared = Arc::ptr_eq(&pair[0].lines, &pair[1].lines);
                        assert_eq!(
                            is_shared,
                            same_entries_play(&schedule, pair[0].at, pair[1].at),
                            "seed {seed} at {}",
                            pair[1].at
                        );
                        if is_shared {
                            shared += 1;
                        } else {
                            built += 1;
                        }
                    }
                    described += 1;
                }
                _ => refused += 1,
            }
        }
        assert!(
            described > 300 && refused > 0 && shared > 0 && built > 0,
            "{described} described, {refused} refused; {shared} shared, {built} built"
        );
    }

    /// True when the same entries play at both instants.
    fn same_entries_play(schedule: &Schedule, a: TimeMs, b: TimeMs) -> bool {
        let plays = |entry: &TimelineEntry, at| entry.begin <= at && at < entry.end;
        schedule
            .entries
            .iter()
            .all(|entry| plays(entry, a) == plays(entry, b))
    }

    #[test]
    fn storyboard_reports_the_undescribable_entry_the_reference_reports() {
        let d = doc();
        let map = map_presentation(&d).unwrap();
        // Two missing nodes first sampled at the same instant, listed in
        // the opposite order to their begins.
        let mut schedule = empty_schedule(2_000);
        for (index, begin) in [(90, 300), (91, 100)] {
            schedule.entries.push(TimelineEntry {
                node: NodeId::from_index(index),
                name: Symbol::intern("missing"),
                channel: Symbol::intern("caption"),
                medium: MediaKind::Text,
                begin: TimeMs::from_millis(begin),
                end: TimeMs::from_millis(2_000),
            });
        }
        let expected = storyboard_reference(&d, &schedule, &map, None, 1_000, &d.catalog);
        assert!(expected.is_err());
        assert_eq!(
            storyboard(&d, &schedule, &map, None, 1_000, &d.catalog),
            expected
        );
    }

    fn empty_schedule(total_ms: i64) -> Schedule {
        Schedule {
            entries: Vec::new(),
            node_times: Default::default(),
            total_duration: TimeMs::from_millis(total_ms),
        }
    }

    #[test]
    fn storyboard_refuses_more_frames_than_the_limit() {
        let d = doc();
        let map = map_presentation(&d).unwrap();
        let limit = MAX_STORYBOARD_FRAMES as i64;
        let at_limit = storyboard(&d, &empty_schedule(limit), &map, None, 1, &d.catalog).unwrap();
        assert_eq!(at_limit.len(), MAX_STORYBOARD_FRAMES);
        let over = empty_schedule(limit + 1);
        assert_eq!(
            storyboard(&d, &over, &map, None, 1, &d.catalog),
            Err(PipelineError::TooManyFrames {
                stage: "viewing",
                frames: limit as u64 + 1,
                limit: MAX_STORYBOARD_FRAMES,
            })
        );
        // A coarser step brings the same document back under the limit.
        let coarse = storyboard(&d, &over, &map, None, 2, &d.catalog).unwrap();
        assert_eq!(coarse.len(), MAX_STORYBOARD_FRAMES / 2 + 1);
    }

    #[test]
    fn storyboard_instants_do_not_wrap_near_the_end_of_time() {
        let d = doc();
        let map = map_presentation(&d).unwrap();
        let mut schedule = empty_schedule(i64::MAX);
        schedule.entries.push(TimelineEntry {
            node: d.find("/story-1/voice").unwrap(),
            name: Symbol::intern("voice"),
            channel: Symbol::intern("audio"),
            medium: MediaKind::Audio,
            begin: TimeMs::from_millis(0),
            end: TimeMs::from_millis(i64::MAX),
        });
        let step = i64::MAX / 2;
        let frames = storyboard(&d, &schedule, &map, None, step, &d.catalog).unwrap();
        let instants: Vec<i64> = frames.iter().map(|f| f.at.as_millis()).collect();
        assert_eq!(instants, [0, step, 2 * step]);
        assert!(frames.iter().all(|f| f.lines.len() == 1));
    }
}
