//! Recorded output of the viewing tools (pipeline stage 5b).
//!
//! Each shape — the Evening News and three small `SyntheticNews`
//! broadcasts, with and without explicit arcs — is scheduled once and
//! rendered as a table of contents and as storyboards under three device
//! filter plans (so dropped channels show) at three sampling steps. The
//! descriptors come from a `BlockStore` that lacks some of the document's
//! media, so both the `<key: format size>` and the bare `<key>` forms
//! show. The renderings are compared byte for byte with the fixtures
//! under `tests/fixtures/viewing/`. A mismatching rendering is written to
//! `$CARGO_TARGET_TMPDIR/viewing/<shape>.txt` and its first differing
//! line is printed; copying that file over the fixture records a
//! deliberate change (a missing fixture is recorded the same way).
//!
//! A last test checks on full-size broadcasts that consecutive frames share
//! one line list exactly when their lines are equal.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use cmif::core::tree::Document;
use cmif::media::{BlockStore, MediaGenerator};
use cmif::news::evening_news;
use cmif::pipeline::constraint::{plan_filters, DeviceProfile};
use cmif::pipeline::presentation::map_presentation;
use cmif::pipeline::viewer::{render_storyboard, storyboard, table_of_contents};
use cmif::scheduler::{ConstraintGraph, ScheduleOptions};
use cmif::synthetic::SyntheticNews;

const STEPS_MS: [i64; 3] = [1_000, 777, 4_000];

fn devices() -> [DeviceProfile; 3] {
    [
        DeviceProfile::workstation(),
        DeviceProfile::low_end_pc(),
        DeviceProfile::audio_kiosk(),
    ]
}

fn synthetic(
    stories: usize,
    seconds: i64,
    captions: usize,
    graphics: usize,
    arcs: bool,
) -> Document {
    SyntheticNews {
        stories,
        story_seconds: seconds,
        captions_per_story: captions,
        graphics_per_story: graphics,
        explicit_arcs: arcs,
    }
    .build()
    .expect("the synthetic shape builds")
}

/// A store holding every descriptor of `doc` whose key contains none of
/// `missing`.
fn partial_store(doc: &Document, missing: &[&str]) -> BlockStore {
    let store = BlockStore::new();
    let mut generator = MediaGenerator::new(11);
    for descriptor in doc.catalog.iter() {
        let key = descriptor.key.as_str();
        if missing.iter().any(|gap| key.contains(gap)) {
            continue;
        }
        store
            .put_with_descriptor(generator.text(key, 4), descriptor.clone())
            .expect("catalog keys are unique");
    }
    store
}

/// The table of contents, then one storyboard per device and step.
fn render(doc: &Document, missing: &[&str]) -> String {
    let store = partial_store(doc, missing);
    let solved = ConstraintGraph::derive(doc, &doc.catalog, &ScheduleOptions::default())
        .unwrap()
        .solve(doc, &doc.catalog)
        .unwrap();
    let presentation = map_presentation(doc).unwrap();
    let mut out = String::new();
    let _ = writeln!(out, "== table of contents");
    out.push_str(&table_of_contents(doc, &solved.schedule).unwrap());
    for device in devices() {
        let plan = plan_filters(doc, &doc.catalog, &device).unwrap();
        let mut dropped: Vec<&str> = plan.dropped_channels.iter().map(|c| c.as_str()).collect();
        dropped.sort_unstable();
        for step in STEPS_MS {
            let _ = writeln!(
                out,
                "== storyboard: {}, step {step} ms, dropped {dropped:?}",
                device.name
            );
            let frames = storyboard(
                doc,
                &solved.schedule,
                &presentation,
                Some(&plan),
                step,
                &store,
            )
            .unwrap();
            out.push_str(&render_storyboard(&frames));
        }
    }
    out
}

fn shapes() -> Vec<(&'static str, String)> {
    vec![
        (
            "evening_news",
            render(&evening_news().unwrap(), &["crime-scene", "painting-two"]),
        ),
        (
            "synthetic_arcs",
            render(&synthetic(2, 4, 3, 2, true), &["video", "s1/graphic"]),
        ),
        (
            "synthetic_plain",
            render(&synthetic(1, 6, 2, 1, false), &["s0/video"]),
        ),
        (
            "synthetic_dense",
            render(&synthetic(1, 5, 5, 3, true), &["audio", "graphic-2"]),
        ),
    ]
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/viewing")
        .join(format!("{name}.txt"))
}

#[test]
fn viewing_renderings_match_the_recorded_fixtures() {
    let mut mismatches = Vec::new();
    for (name, rendering) in shapes() {
        let expected = std::fs::read_to_string(fixture_path(name)).unwrap_or_default();
        if rendering == expected {
            continue;
        }
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("viewing");
        std::fs::create_dir_all(&dir).expect("the target tmp dir is writable");
        let written = dir.join(format!("{name}.txt"));
        std::fs::write(&written, &rendering).expect("the rendering is writable");
        let line = rendering
            .lines()
            .zip(expected.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| rendering.lines().count().min(expected.lines().count()));
        eprintln!(
            "{name}: rendering differs from the fixture at line {}\n  got:  {:?}\n  want: {:?}\n  full rendering: {}",
            line + 1,
            rendering.lines().nth(line),
            expected.lines().nth(line),
            written.display()
        );
        mismatches.push(name);
    }
    assert!(mismatches.is_empty(), "renderings differ: {mismatches:?}");
}

#[test]
fn repeating_frames_share_one_line_list_on_broadcast_sized_documents() {
    // (captions, graphics) per story, and the frame pairs that repeat.
    for ((captions, graphics), repeats) in [((3, 1), 832), ((5, 2), 736), ((7, 4), 640)] {
        let doc = synthetic(32, 30, captions, graphics, true);
        let solved = ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(&doc, &doc.catalog)
            .unwrap();
        let presentation = map_presentation(&doc).unwrap();
        let plan = plan_filters(&doc, &doc.catalog, &DeviceProfile::workstation()).unwrap();
        let frames = storyboard(
            &doc,
            &solved.schedule,
            &presentation,
            Some(&plan),
            1_000,
            &doc.catalog,
        )
        .unwrap();
        assert_eq!(frames.len(), 960);
        let (mut shared, mut equal) = (0, 0);
        for pair in frames.windows(2) {
            let is_shared = Arc::ptr_eq(&pair[0].lines, &pair[1].lines);
            let is_equal = pair[0].lines == pair[1].lines;
            assert_eq!(
                is_shared, is_equal,
                "{captions}/{graphics} at {}",
                pair[1].at
            );
            shared += usize::from(is_shared);
            equal += usize::from(is_equal);
        }
        assert_eq!((shared, equal), (repeats, repeats), "{captions}/{graphics}");
    }
}
