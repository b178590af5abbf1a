//! Live authoring: a rundown edited while it plays.
//!
//! CMIFed's headline workflow is *edit while playing* — the author changes
//! a document whose presentation is running and the system re-schedules
//! it. This example walks both halves:
//!
//! 1. an [`EditSession`] applies a late-breaking script change to a
//!    16-story broadcast. Each edit builds a new revision and re-solves it
//!    cold, and the session commits both or neither: an edit whose
//!    re-solve fails leaves the session on its last revision;
//! 2. a [`PlayerSession`] plays the original cut to the mid-broadcast
//!    boundary, swaps onto the revised schedule, and finishes — the fired
//!    history survives the swap verbatim, only the unplayed tail moves.
//!
//! Run with `cargo run --example live_edit`.

use std::sync::Arc;

use cmif::core::edit::{DocRevision, Edit, NodeSpec};
use cmif::scheduler::{
    ConstraintGraph, EditSession, JitterModel, PlaybackEvent, PlayerSession, ScheduleOptions,
};
use cmif::synthetic::SyntheticNews;
use cmif::Result;

fn main() -> Result<()> {
    let doc = Arc::new(SyntheticNews::with_stories(16).build()?);
    let catalog = doc.catalog.clone();

    // ---- 1. Re-authoring. ----------------------------------------------
    let mut author = EditSession::begin(
        DocRevision::initial(Arc::clone(&doc)),
        &catalog,
        ScheduleOptions::default(),
    )?;
    println!(
        "opened a session on {} nodes / {} constraints",
        doc.node_count(),
        author.stats().constraints_total
    );

    // Breaking news for the second half of the broadcast: a caption
    // dropped into story 12, then the story's graphics→narration arc
    // pushed out to make room for it.
    let story = doc.find("/story-12")?;
    author.apply(&Edit::InsertSubtree {
        parent: story,
        spec: NodeSpec::imm_text("breaking", "BREAKING: late update")
            .on_channel("caption")
            .lasting_ms(2_500),
    })?;
    report("insert", &author)?;
    let retime = |offset_ms| Edit::RetimeArc {
        index: 24, // story 12's first explicit arc
        min_delay_ms: 0,
        max_delay_ms: None,
        offset_ms: Some(offset_ms),
    };
    author.apply(&retime(1_200))?;
    report("retime", &author)?;

    // An offset past the clock's range: the re-solve fails, and the
    // session stays on the revision it had.
    let before = author.revision().id();
    let refused = author
        .apply(&retime(i64::MAX))
        .expect_err("the time overflows");
    println!("refused retime: {refused}");
    assert_eq!(author.revision().id(), before);
    let revised = author.solve_result()?;
    println!(
        "kept the last revision: {} edits applied, rundown {}ms",
        author.stats().edits_applied,
        revised.schedule.total_duration.as_millis()
    );

    // ---- 2. Mid-broadcast swap. ----------------------------------------
    let original = ConstraintGraph::derive(&doc, &catalog, &ScheduleOptions::default())?
        .solve(&doc, &catalog)?;
    let jitter = JitterModel::uniform(80, 7);
    let mut session = PlayerSession::new(&doc, &original, &catalog, &jitter)?;
    session.tick(0)?;
    let total = session.total_duration().as_millis();
    let boundary = total / 2;
    session.tick(boundary)?;
    let fired = session
        .report_preview()
        .events
        .iter()
        .filter(|e| e.actual_end.as_millis() < boundary)
        .count();
    println!("\nplayed to {boundary}ms of {total}ms: {fired} events already fired before the swap");

    session.swap_revision(author.revision().doc(), &revised, &catalog)?;
    let swapped_at = session.poll_events().into_iter().find_map(|e| match e {
        PlaybackEvent::Revised { at } => Some(at),
        _ => None,
    });
    println!(
        "swapped onto the revised rundown at {}ms — fired history kept verbatim",
        swapped_at.expect("the swap marks the stream").as_millis()
    );

    session.tick(total + 60_000)?;
    let report = session.report_preview();
    let breaking = report
        .events
        .iter()
        .find(|e| e.name == cmif::core::Symbol::intern("breaking"))
        .expect("the inserted caption plays in the revised tail");
    println!(
        "revised tail played out: {} events total, 'breaking' ran {}..{}ms",
        report.events.len(),
        breaking.actual_begin.as_millis(),
        breaking.actual_end.as_millis()
    );
    Ok(())
}

/// Prints what the session reports after an edit: the size of the cold
/// re-solve and the rundown's new length.
fn report(step: &str, author: &EditSession<'_>) -> Result<()> {
    let stats = author.stats();
    println!(
        "{step}: re-solved {} points over {} constraints (was {}); rundown {}ms",
        stats.last_reset_points,
        stats.last_updates,
        stats.last_replaced,
        author.solve_result()?.schedule.total_duration.as_millis()
    );
    Ok(())
}
