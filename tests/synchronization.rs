//! Integration tests: synchronization semantics across the document model,
//! the scheduler and the playback simulator, including property-based
//! invariants over generated documents.

use cmif::core::arc::SyncArc;
use cmif::core::prelude::*;
use cmif::hyper::navigation::Navigator;
use cmif::news::evening_news;
use cmif::pipeline::DeviceProfile;
use cmif::scheduler::{
    full_report, invalid_arcs_when_seeking, must_satisfaction_rate, ConstraintGraph, JitterModel,
    PlayerSession, ScheduleOptions,
};

/// Derive-then-relax through the session API (the old one-shot `solve`).
fn solve_doc(doc: &cmif::core::tree::Document) -> cmif::scheduler::SolveResult {
    ConstraintGraph::derive(doc, &doc.catalog, &ScheduleOptions::default())
        .unwrap()
        .solve(doc, &doc.catalog)
        .unwrap()
}

/// One full playback run through a `PlayerSession` (the old one-shot `play`).
fn play_doc(
    doc: &cmif::core::tree::Document,
    result: &cmif::scheduler::SolveResult,
    jitter: &JitterModel,
) -> cmif::scheduler::PlaybackReport {
    PlayerSession::new(doc, result, &doc.catalog, jitter)
        .unwrap()
        .run_to_completion()
}
use cmif::synthetic::SyntheticNews;
use proptest::prelude::*;

#[test]
fn evening_news_schedule_matches_the_paper_narrative() {
    let doc = evening_news().unwrap();
    let result = solve_doc(&doc);
    assert!(result.is_consistent());
    let schedule = &result.schedule;

    // Start synchronization across all blocks at the beginning of the story.
    for path in [
        "/story-3/narration",
        "/story-3/video-track/talking-head-1",
        "/story-3/caption-track/caption-1",
        "/story-3/graphic-track/painting-one",
        "/story-3/label-track/story-name",
    ] {
        let node = doc.find(path).unwrap();
        assert_eq!(
            schedule.node_times[&node].0,
            TimeMs::ZERO,
            "{path} should start at t=0"
        );
    }

    // Events on one channel never overlap.
    for channel in ["audio", "video", "graphic", "caption", "label"] {
        assert!(
            schedule.max_channel_concurrency(channel) <= 1,
            "channel {channel} presents two blocks at once"
        );
    }

    // The freeze-frame arc of Figure 10 creates a real gap on the video
    // channel which the player bridges with freeze-frame time.
    let report = play_doc(&doc, &result, &JitterModel::ideal());
    assert_eq!(report.freeze_frame_ms, 2_000);
    assert_eq!(report.must_violations, 0);

    // A workstation has no device conflicts with this document.
    let conflicts = full_report(
        &doc,
        &result,
        &doc.catalog,
        Some(&DeviceProfile::workstation().limits()),
    )
    .unwrap();
    assert!(conflicts.is_clean(), "unexpected conflicts: {conflicts}");
}

#[test]
fn tolerance_windows_absorb_exactly_the_jitter_they_declare() {
    let doc = evening_news().unwrap();
    let result = solve_doc(&doc);
    // The tightest Must window in the news is 250 ms (captions onto video).
    let small = JitterModel::uniform(100, 42);
    let large = JitterModel::uniform(2_000, 42);
    let rate_small = must_satisfaction_rate(&doc, &result, &doc.catalog, &small, 30).unwrap();
    let rate_large = must_satisfaction_rate(&doc, &result, &doc.catalog, &large, 30).unwrap();
    assert!(rate_small >= rate_large);
    assert!(
        rate_small > 0.9,
        "small jitter should almost always satisfy, got {rate_small}"
    );
    assert!(
        rate_large < 0.5,
        "2 s of jitter must break 250 ms windows, got {rate_large}"
    );
}

#[test]
fn seeking_into_the_news_invalidates_cross_track_arcs() {
    let doc = evening_news().unwrap();
    let result = solve_doc(&doc);
    // Seek to the final talking head (t = 32 s): the captions and paintings
    // that controlled earlier events are over, so their arcs are invalid.
    let head2 = doc.find("/story-3/video-track/talking-head-2").unwrap();
    let invalid = invalid_arcs_when_seeking(&doc, &result.schedule, head2).unwrap();
    assert!(!invalid.is_empty());
    assert!(invalid.iter().all(|c| c.class() == 3));

    // The navigator reports the same thing and re-bases the rest.
    let navigator = Navigator::new(&doc, &result);
    let nav = navigator.seek(head2).unwrap();
    assert_eq!(nav.resume_at, TimeMs::from_secs(32));
    assert_eq!(nav.invalidated.len(), invalid.len());
    assert_eq!(nav.remaining_duration(), TimeMs::from_secs(10));
}

#[test]
fn must_and_may_strictness_differ_in_playback() {
    // One document, two arcs: a Must window and a May window of the same
    // width, both violated by construction via a long controlling block.
    let mut doc = DocumentBuilder::new("strictness")
        .channel("audio", MediaKind::Audio)
        .channel("label", MediaKind::Label)
        .descriptor(
            DataDescriptor::new("speech", MediaKind::Audio, "pcm8")
                .with_duration(TimeMs::from_secs(5)),
        )
        .root_seq(|root| {
            root.ext("voice", "audio", "speech");
            root.imm_text("late-title", "label", "late", 1_000);
            root.imm_text("late-credit", "label", "later", 1_000);
        })
        .build()
        .unwrap();
    let title = doc.find("/late-title").unwrap();
    let credit = doc.find("/late-credit").unwrap();
    doc.add_arc(
        title,
        SyncArc::hard_start("/", "")
            .with_window(DelayMs::ZERO, MaxDelay::Bounded(DelayMs::from_millis(100))),
    )
    .unwrap();
    doc.add_arc(
        credit,
        SyncArc::relaxed_start("/", "")
            .with_window(DelayMs::ZERO, MaxDelay::Bounded(DelayMs::from_millis(100))),
    )
    .unwrap();
    let result = solve_doc(&doc);
    // Both windows are violated by the ASAP schedule, but only the Must one
    // makes the document inconsistent.
    assert_eq!(result.violations.len(), 2);
    assert!(!result.is_consistent());
    let report = play_doc(&doc, &result, &JitterModel::ideal());
    assert_eq!(report.must_violations, 1);
    assert_eq!(report.may_violations, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Structural invariants of every synthetic broadcast: sequential
    /// stories accumulate, channels never overlap, playback on an ideal
    /// device reproduces the schedule exactly.
    #[test]
    fn synthetic_news_scheduling_invariants(
        stories in 1usize..5,
        captions in 1usize..5,
        graphics in 1usize..4,
        story_seconds in 10i64..40,
    ) {
        let config = SyntheticNews {
            stories,
            captions_per_story: captions,
            graphics_per_story: graphics,
            story_seconds,
            explicit_arcs: true,
        };
        let doc = config.build().unwrap();
        let result = solve_doc(&doc);
        prop_assert!(result.is_consistent());
        // Stories are sequential: the broadcast lasts stories * story_seconds.
        prop_assert_eq!(
            result.schedule.total_duration,
            TimeMs::from_secs(stories as i64 * story_seconds)
        );
        // No channel is asked to present two blocks at once.
        for channel in ["audio", "video", "graphic", "caption", "label"] {
            prop_assert!(result.schedule.max_channel_concurrency(channel) <= 1);
        }
        // Ideal playback reproduces the schedule with zero drift.
        let report = play_doc(&doc, &result, &JitterModel::ideal());
        prop_assert_eq!(report.max_drift_ms(), 0);
        prop_assert_eq!(report.must_violations, 0);
        prop_assert_eq!(report.total_duration, result.schedule.total_duration);
    }

    /// Every event of every story starts no earlier than its story and ends
    /// no later than the story's end (parent containment).
    #[test]
    fn parent_containment_holds(stories in 1usize..4) {
        let doc = SyntheticNews::with_stories(stories).build().unwrap();
        let result = solve_doc(&doc);
        for story in 0..stories {
            let story_node = doc.find(&format!("/story-{story}")).unwrap();
            let (story_begin, story_end) = result.schedule.node_times[&story_node];
            for leaf in doc.leaves() {
                let ancestors = doc.ancestors(leaf).unwrap();
                if !ancestors.contains(&story_node) {
                    continue;
                }
                let (begin, end) = result.schedule.node_times[&leaf];
                prop_assert!(begin >= story_begin);
                prop_assert!(end <= story_end);
            }
        }
    }

    /// Jitter within the declared tolerance windows never causes a Must
    /// violation on documents with 500 ms windows.
    #[test]
    fn jitter_within_windows_is_always_absorbed(seed in 0u64..500) {
        let doc = SyntheticNews { stories: 2, ..SyntheticNews::default() }.build().unwrap();
        let result = solve_doc(&doc);
        // The synthetic arcs declare 250-500 ms windows; 200 ms of jitter on
        // channels that are not controlling anything hard must be safe.
        let jitter = JitterModel::uniform(200, seed)
            .with_channel("graphic", 0)
            .with_channel("caption", 0);
        let report = play_doc(&doc, &result, &jitter);
        prop_assert_eq!(report.must_violations, 0);
    }
}
