//! Integration tests for the session-based scheduling engine: step-wise
//! `PlayerSession` playback, incremental `ConstraintGraph` re-relaxation,
//! and the multi-document `Engine` run queue.

use std::sync::Arc;

use cmif::core::arc::SyncArc;
use cmif::core::prelude::*;
use cmif::core::tree::Document;
use cmif::scheduler::{
    ConstraintGraph, DocId, Engine, EngineConfig, JitterModel, PlaybackEvent, PlaybackReport,
    PlayerSession, ScheduleOptions, SchedulerError, SessionState, SolveResult, Submission,
};
use cmif::synthetic::SyntheticNews;

fn broadcast(stories: usize) -> Document {
    SyntheticNews::with_stories(stories).build().unwrap()
}

fn solved(doc: &Document) -> SolveResult {
    ConstraintGraph::derive(doc, &doc.catalog, &ScheduleOptions::default())
        .unwrap()
        .solve(doc, &doc.catalog)
        .unwrap()
}

fn cyclic_doc() -> Document {
    let mut doc = DocumentBuilder::new("cycle")
        .channel("audio", MediaKind::Audio)
        .descriptor(
            DataDescriptor::new("a", MediaKind::Audio, "pcm8").with_duration(TimeMs::from_secs(2)),
        )
        .root_par(|root| {
            root.ext("x", "audio", "a");
            root.ext("y", "audio", "a");
        })
        .build()
        .unwrap();
    let x = doc.find("/x").unwrap();
    let y = doc.find("/y").unwrap();
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
    doc
}

/// Collect the `Started` event order and the final report of a session
/// driven at a given tick step.
fn drive(
    doc: &Document,
    result: &SolveResult,
    jitter: &JitterModel,
    step_ms: i64,
) -> (Vec<(Symbol, TimeMs)>, PlaybackReport) {
    let mut session = PlayerSession::new(doc, result, &doc.catalog, jitter).unwrap();
    let mut starts = Vec::new();
    let mut now = 0;
    loop {
        let state = session.tick(now).unwrap();
        for event in session.poll_events() {
            if let PlaybackEvent::Started { name, at, .. } = event {
                starts.push((name, at));
            }
        }
        if state == SessionState::Finished {
            break;
        }
        now += step_ms;
    }
    let report = session.report().unwrap().clone();
    (starts, report)
}

#[test]
fn tick_cadence_does_not_change_a_seeded_run() {
    // Determinism under a seeded JitterModel: the same session ticked at
    // 100 ms, 700 ms and 5 s cadences delivers the same events in the same
    // order and produces the identical report.
    let doc = broadcast(2);
    let result = solved(&doc);
    let jitter = JitterModel::uniform(180, 42);
    let (starts_fine, report_fine) = drive(&doc, &result, &jitter, 100);
    let (starts_mid, report_mid) = drive(&doc, &result, &jitter, 700);
    let (starts_coarse, report_coarse) = drive(&doc, &result, &jitter, 5_000);
    assert_eq!(starts_fine, starts_mid);
    assert_eq!(starts_fine, starts_coarse);
    assert_eq!(report_fine, report_mid);
    assert_eq!(report_fine, report_coarse);
    assert!(!starts_fine.is_empty());
}

#[test]
fn seek_then_tick_matches_a_cold_run() {
    let doc = broadcast(2);
    let result = solved(&doc);
    let jitter = JitterModel::uniform(120, 7);

    // Cold run: tick front to back.
    let (cold_starts, cold_report) = drive(&doc, &result, &jitter, 400);

    // Sought run: jump halfway in, then tick to the end.
    let mut session = PlayerSession::new(&doc, &result, &doc.catalog, &jitter).unwrap();
    let half = TimeMs(cold_report.total_duration.as_millis() / 2);
    session.seek(half);
    let mut sought_starts = Vec::new();
    let mut now = 0;
    loop {
        let state = session.tick(now).unwrap();
        for event in session.poll_events() {
            if let PlaybackEvent::Started { name, at, .. } = event {
                sought_starts.push((name, at));
            }
        }
        if state == SessionState::Finished {
            break;
        }
        now += 400;
    }

    // The report is independent of how the session was driven…
    assert_eq!(session.report().unwrap(), &cold_report);
    // …and the delivered tail is exactly the cold run's events from the
    // seek target onwards.
    let cold_tail: Vec<_> = cold_starts
        .iter()
        .filter(|(_, at)| *at >= half)
        .cloned()
        .collect();
    assert_eq!(sought_starts, cold_tail);
    assert!(sought_starts.len() < cold_starts.len());
}

#[test]
fn engine_rejects_a_cyclic_document_while_a_sibling_completes() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let bad = engine
        .admit(Submission::new(cyclic_doc(), JitterModel::ideal()).labeled("cyclic"))
        .unwrap();
    let good = engine
        .admit(Submission::new(broadcast(1), JitterModel::ideal()).labeled("news"))
        .unwrap();

    let bad_outcome = engine.wait(bad);
    assert!(matches!(
        bad_outcome.result,
        Err(SchedulerError::ConstraintCycle { .. })
    ));

    // The same worker that rejected the cycle plays the sibling to the end.
    let good_outcome = engine.wait(good);
    let report = good_outcome.result.expect("sibling document completes");
    assert_eq!(report.must_violations, 0);
    assert!(report.total_duration > TimeMs::ZERO);
}

#[test]
fn sixty_four_concurrent_documents_match_sequential_runs() {
    // The acceptance bar: 64 documents played concurrently on 8 workers
    // produce per-document reports identical (same seed) to sequential
    // single-session runs.
    let docs: Vec<(Arc<Document>, JitterModel)> = (0..64u64)
        .map(|i| {
            (
                Arc::new(broadcast(1 + (i as usize % 3))),
                JitterModel::uniform(100 + (i as i64 % 5) * 40, i),
            )
        })
        .collect();

    // Sequential reference, one session at a time.
    let sequential: Vec<PlaybackReport> = docs
        .iter()
        .map(|(doc, jitter)| {
            let result = solved(doc);
            PlayerSession::new(doc, &result, &doc.catalog, jitter)
                .unwrap()
                .run_to_completion()
        })
        .collect();

    // Concurrent: all 64 admitted up front, 8 workers.
    let engine = Engine::new(EngineConfig {
        workers: 8,
        ..EngineConfig::default()
    });
    // Submitting shares the `Arc` — 64 admissions, zero tree copies.
    let ids: Vec<DocId> = docs
        .iter()
        .map(|(doc, jitter)| {
            engine
                .admit(Submission::new(Arc::clone(doc), jitter.clone()))
                .unwrap()
        })
        .collect();
    let outcomes = engine.drain();
    assert_eq!(outcomes.len(), 64);

    for ((id, outcome), reference) in ids.iter().zip(&outcomes).zip(&sequential) {
        assert_eq!(*id, outcome.id);
        let report = outcome.result.as_ref().expect("document plays");
        assert_eq!(report, reference, "{id}: concurrent run diverged");
    }
}

#[test]
fn pause_resume_do_not_change_the_outcome() {
    let doc = broadcast(1);
    let result = solved(&doc);
    let jitter = JitterModel::uniform(90, 13);

    let (_, straight) = drive(&doc, &result, &jitter, 500);

    let mut session = PlayerSession::new(&doc, &result, &doc.catalog, &jitter).unwrap();
    session.tick(0).unwrap();
    session.tick(2_000).unwrap();
    session.pause(3_000).unwrap();
    assert_eq!(session.state(), SessionState::Paused);
    // A long wall-clock gap while paused is invisible to the presentation.
    session.resume(60_000);
    let total = straight.total_duration.as_millis();
    session.tick(60_000 + total).unwrap();
    assert_eq!(session.state(), SessionState::Finished);
    assert_eq!(session.report().unwrap(), &straight);
}
