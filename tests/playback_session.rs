//! Seeded transcripts of playback sessions.
//!
//! Each scenario plays one document under one jitter model through a fixed
//! script: ticks, a pause and a resume, seeks forward and backward, seeks
//! with fresh jitter, three rounds of live edits swapped in through an
//! [`EditSession`] (inserts, removals, a retimed arc, re-channelled leaves
//! and a descriptor swap; the last round lands after the presentation has
//! finished), and runs to completion. After every step the transcript
//! records the polled event batch, the session's state and position, and
//! how the report preview changed, so any change to what a session
//! delivers, when, or what it reports shows up as a diff against the
//! fixtures under `tests/fixtures/playback_session/`.
//!
//! A mismatching transcript is written to
//! `$CARGO_TARGET_TMPDIR/playback_session/<scenario>.txt` and its first
//! differing line is printed; copying that file over the fixture records a
//! deliberate change.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use cmif::core::descriptor::DescriptorCatalog;
use cmif::core::edit::{DocRevision, Edit, NodeSpec};
use cmif::core::node::{NodeId, NodeKind};
use cmif::core::time::TimeMs;
use cmif::core::tree::Document;
use cmif::core::Symbol;
use cmif::news::evening_news;
use cmif::scheduler::{
    ConstraintGraph, EditSession, JitterModel, PlaybackEvent, PlaybackReport, PlayedEvent,
    PlayerSession, ScheduleOptions, SolveResult,
};
use cmif::synthetic::SyntheticNews;

/// One line per report entry, every field of it.
fn played(event: &PlayedEvent) -> String {
    format!(
        "{} {} on {} scheduled {} actual {}..{}",
        event.node,
        event.name,
        event.channel,
        event.scheduled_begin.as_millis(),
        event.actual_begin.as_millis(),
        event.actual_end.as_millis()
    )
}

fn delivered(event: &PlaybackEvent) -> String {
    match event {
        PlaybackEvent::Started {
            node,
            name,
            channel,
            scheduled_begin,
            at,
        } => format!(
            "started {node} {name} on {channel} scheduled {} at {}",
            scheduled_begin.as_millis(),
            at.as_millis()
        ),
        PlaybackEvent::Ended { node, at } => format!("ended {node} at {}", at.as_millis()),
        PlaybackEvent::Paused { at } => format!("paused at {}", at.as_millis()),
        PlaybackEvent::Resumed { at } => format!("resumed at {}", at.as_millis()),
        PlaybackEvent::Sought { from, to } => {
            format!("sought {} -> {}", from.as_millis(), to.as_millis())
        }
        PlaybackEvent::Finished { at } => format!("finished at {}", at.as_millis()),
        PlaybackEvent::Revised { at } => format!("revised at {}", at.as_millis()),
    }
}

fn cold_solve(doc: &Document, catalog: &DescriptorCatalog) -> SolveResult {
    ConstraintGraph::derive(doc, catalog, &ScheduleOptions::default())
        .and_then(|mut graph| graph.solve(doc, catalog))
        .expect("the scenario documents solve")
}

/// A session under test plus the transcript of everything it reported.
struct Script {
    session: PlayerSession,
    /// The report entries the last checkpoint printed.
    shown: Vec<String>,
    out: String,
}

impl Script {
    fn new(session: PlayerSession) -> Script {
        let mut script = Script {
            session,
            shown: Vec::new(),
            out: String::new(),
        };
        script.checkpoint("new");
        script
    }

    fn line(&mut self, text: impl AsRef<str>) {
        self.out.push_str(text.as_ref());
        self.out.push('\n');
    }

    /// Writes the step, the polled batch, state and position, and the
    /// report entries that left (`-`) or joined (`+`) the preview.
    fn checkpoint(&mut self, step: &str) {
        self.line(format!("== {step}"));
        let batch = self.session.poll_events();
        self.line(format!("polled {} events", batch.len()));
        for event in &batch {
            let text = delivered(event);
            self.line(format!("  {text}"));
        }
        let state = self.session.state();
        let position = self.session.position().as_millis();
        self.line(format!("state {state:?} position {position}"));
        let report = self.session.report_preview().clone();
        self.report(&report);
    }

    fn report(&mut self, report: &PlaybackReport) {
        self.line(format!(
            "report {} events, must {}, may {}, freeze {} ms, total {}",
            report.events.len(),
            report.must_violations,
            report.may_violations,
            report.freeze_frame_ms,
            report.total_duration.as_millis()
        ));
        let now: Vec<String> = report.events.iter().map(played).collect();
        let mut changes = String::new();
        for gone in self.shown.iter().filter(|line| !now.contains(line)) {
            let _ = writeln!(changes, "  - {gone}");
        }
        for (index, entry) in now.iter().enumerate() {
            if !self.shown.contains(entry) {
                let _ = writeln!(changes, "  + [{index}] {entry}");
            }
        }
        self.out.push_str(&changes);
        let order: Vec<String> = report.events.iter().map(|e| e.node.to_string()).collect();
        self.line(format!("order {}", order.join(" ")));
        self.shown = now;
    }

    fn tick(&mut self, now_ms: i64) {
        let state = self.session.tick(now_ms).expect("ticks never fail");
        self.checkpoint(&format!("tick({now_ms}) -> {state:?}"));
    }

    fn pause(&mut self, now_ms: i64) {
        let state = self.session.pause(now_ms).expect("pauses never fail");
        self.checkpoint(&format!("pause({now_ms}) -> {state:?}"));
    }

    fn resume(&mut self, now_ms: i64) {
        let state = self.session.resume(now_ms);
        self.checkpoint(&format!("resume({now_ms}) -> {state:?}"));
    }

    fn seek(&mut self, to_ms: i64) {
        self.session.seek(TimeMs::from_millis(to_ms));
        self.checkpoint(&format!("seek({to_ms})"));
    }

    fn seek_rejittered(&mut self, author: &EditSession<'_>, to_ms: i64) {
        let doc = author.revision().doc();
        let result = author.solve_result().expect("the revision solves");
        let outcome =
            self.session
                .seek_rejittered(doc, &result, &doc.catalog, TimeMs::from_millis(to_ms));
        self.checkpoint(&format!("seek_rejittered({to_ms}) -> {outcome:?}"));
    }

    /// Applies `edits` through the authoring session, then swaps the
    /// player onto the revision.
    fn swap(&mut self, author: &mut EditSession<'_>, edits: &[Edit]) {
        for edit in edits {
            let outcome = author.apply(edit).map(|_| ());
            self.line(format!("edit {} -> {outcome:?}", edit.keyword()));
        }
        let doc = author.revision().doc();
        let result = author.solve_result().expect("the revision solves");
        let outcome = self.session.swap_revision(doc, &result, &doc.catalog);
        self.checkpoint(&format!("swap_revision -> {outcome:?}"));
    }

    /// Runs a copy of the session to its end and writes how its final
    /// report differs from the preview.
    fn run_to_completion(&mut self, step: &str) {
        let report = self.session.clone().run_to_completion();
        self.line(format!("== run_to_completion {step}"));
        let shown = self.shown.clone();
        self.report(&report);
        self.shown = shown;
    }

    fn total(&self) -> i64 {
        self.session.total_duration().as_millis()
    }

    /// The `nth` leaf of the preview that is playing at the position.
    fn playing(&self, nth: usize) -> Option<NodeId> {
        let at = self.session.position();
        self.session
            .report_preview()
            .events
            .iter()
            .filter(|e| e.actual_begin <= at && at < e.actual_end)
            .nth(nth)
            .map(|e| e.node)
    }

    /// The `nth` leaf of the preview that has not begun at the position,
    /// counting from the end, restricted to `kind`.
    fn upcoming(&self, doc: &Document, kind: NodeKind, nth: usize) -> Option<NodeId> {
        let at = self.session.position();
        self.session
            .report_preview()
            .events
            .iter()
            .rev()
            .filter(|e| e.actual_begin > at)
            .filter(|e| doc.node(e.node).map(|n| n.kind == kind).unwrap_or(false))
            .nth(nth)
            .map(|e| e.node)
    }
}

/// A descriptor of the same medium as the external leaf's own, other than
/// the one it shows: the greatest key, so the choice does not depend on
/// the catalog's intern order.
fn other_descriptor(doc: &Document, leaf: NodeId) -> Option<String> {
    let current = doc.file_of(leaf).ok()??;
    let medium = doc.catalog.get_symbol(current)?.medium;
    doc.catalog
        .iter()
        .map(|d| (d.key, d.medium))
        .filter(|(key, kind)| *key != current && *kind == medium)
        .map(|(key, _)| key.as_str())
        .max()
        .map(str::to_string)
}

/// The whole script on one document under one jitter model.
fn play(doc: Document, jitter: JitterModel) -> String {
    let catalog = doc.catalog.clone();
    let doc = Arc::new(doc);
    let root = doc.root().expect("the document has a root");
    let result = cold_solve(&doc, &catalog);
    let mut author = EditSession::begin(
        DocRevision::initial(Arc::clone(&doc)),
        &catalog,
        ScheduleOptions::default(),
    )
    .expect("the document derives");
    let session = PlayerSession::new(&doc, &result, &catalog, &jitter).expect("sessions start");
    let mut s = Script::new(session);
    s.run_to_completion("from the start");
    let total = s.total();

    // Transport: ticks, a pause the wall clock runs past, seeks.
    s.tick(1_000);
    s.tick(1_000 + total / 10);
    s.pause(1_000 + total / 8);
    s.tick(1_000 + total / 2);
    s.resume(500_000);
    s.tick(500_000 + total / 10);
    s.seek(total * 3 / 5);
    s.tick(600_000);
    s.tick(600_000 + total / 20);
    s.seek(total / 5);
    s.tick(700_000);
    s.tick(700_000 + total / 10);

    // Fresh jitter for the tail before any revision swap, then back.
    s.seek_rejittered(&author, total / 2);
    s.tick(800_000);
    s.seek_rejittered(&author, total / 4);
    s.tick(900_000);
    s.tick(900_000 + total / 20);

    // Round 1: insert a leaf and retime the first arc.
    let mut edits = vec![Edit::InsertSubtree {
        parent: root,
        spec: NodeSpec::imm_text("late-1", "breaking update")
            .on_channel("label")
            .lasting_ms(3_000),
    }];
    if !author.revision().doc().arcs().is_empty() {
        edits.push(Edit::RetimeArc {
            index: 0,
            min_delay_ms: -50,
            max_delay_ms: Some(120),
            offset_ms: Some(1_500),
        });
    }
    s.swap(&mut author, &edits);
    s.tick(900_000 + total / 8);
    s.tick(900_000 + total / 5);

    // Round 2: cut the playing leaf, remove an upcoming one, re-channel
    // another upcoming leaf and a playing one.
    let current = Arc::clone(author.revision().doc());
    let mut edits = Vec::new();
    if let Some(node) = s.playing(0) {
        edits.push(Edit::RemoveSubtree { node });
    }
    if let Some(node) = s.upcoming(&current, NodeKind::Ext, 0) {
        edits.push(Edit::RemoveSubtree { node });
    }
    for node in [
        s.upcoming(&current, NodeKind::Ext, 2),
        s.upcoming(&current, NodeKind::Ext, 4),
        s.playing(1),
    ]
    .into_iter()
    .flatten()
    {
        edits.push(Edit::AssignChannel {
            node,
            channel: Symbol::intern("label"),
        });
    }
    s.swap(&mut author, &edits);
    s.tick(900_000 + total / 4);
    s.seek_rejittered(&author, total * 2 / 5);
    s.tick(1_000_000);
    s.tick(1_000_000 + total / 10);
    s.run_to_completion("after two swaps");

    // Round 3, after the presentation has finished: repoint an external
    // leaf at another descriptor and append a coda.
    s.tick(2_000_000);
    let current = Arc::clone(author.revision().doc());
    let mut edits = Vec::new();
    let repointed = current
        .leaves()
        .into_iter()
        .rev()
        .find_map(|leaf| other_descriptor(&current, leaf).map(|file| (leaf, file)));
    if let Some((node, file)) = repointed {
        edits.push(Edit::SwapDescriptor { node, file });
    }
    edits.push(Edit::InsertSubtree {
        parent: root,
        spec: NodeSpec::imm_text("coda", "and one more thing")
            .on_channel("label")
            .lasting_ms(4_000),
    });
    s.swap(&mut author, &edits);
    s.tick(3_000_000);
    s.tick(3_000_000 + s.total());

    // Replay the tail, then fresh jitter after the swaps.
    s.seek(s.total() * 9 / 10);
    s.tick(4_000_000);
    s.tick(4_000_000 + s.total() / 20);
    s.seek_rejittered(&author, s.total() * 3 / 10);
    s.run_to_completion("after fresh jitter");
    s.tick(5_000_000);
    s.tick(5_000_000 + s.total());
    s.out
}

/// A broadcast shaped like the end-to-end benchmark's: one caption and
/// three graphics per story, with explicit arcs.
fn broadcast(stories: usize) -> Document {
    SyntheticNews {
        stories,
        story_seconds: 20,
        captions_per_story: 1,
        graphics_per_story: 3,
        explicit_arcs: true,
    }
    .build()
    .expect("the broadcast builds")
}

fn per_channel() -> JitterModel {
    JitterModel::uniform(60, 23)
        .with_channel("video", 400)
        .with_channel("caption", 0)
}

/// One scenario: builds its document, plays the script, returns the
/// transcript.
type Scenario = fn() -> String;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/playback_session")
        .join(format!("{name}.txt"))
}

#[test]
fn playback_session_transcripts_match_the_recorded_fixtures() {
    let scenarios: [(&str, Scenario); 7] = [
        ("news_ideal", || {
            play(evening_news().unwrap(), JitterModel::ideal())
        }),
        ("news_uniform", || {
            play(evening_news().unwrap(), JitterModel::uniform(300, 7))
        }),
        ("news_per_channel", || {
            play(evening_news().unwrap(), per_channel())
        }),
        ("broadcast_ideal", || {
            play(broadcast(4), JitterModel::ideal())
        }),
        ("broadcast_uniform", || {
            play(broadcast(4), JitterModel::uniform(40, 3))
        }),
        ("broadcast_per_channel", || {
            play(broadcast(3), per_channel())
        }),
        ("synthetic_uniform", || {
            play(
                SyntheticNews::with_stories(2).build().unwrap(),
                JitterModel::uniform(250, 11),
            )
        }),
    ];
    let mut mismatches = Vec::new();
    for (name, scenario) in scenarios {
        let transcript = scenario();
        let expected = std::fs::read_to_string(fixture_path(name)).unwrap_or_default();
        if transcript == expected {
            continue;
        }
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("playback_session");
        std::fs::create_dir_all(&dir).expect("the target tmp dir is writable");
        let written = dir.join(format!("{name}.txt"));
        std::fs::write(&written, &transcript).expect("the transcript is writable");
        let line = transcript
            .lines()
            .zip(expected.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| transcript.lines().count().min(expected.lines().count()));
        eprintln!(
            "{name}: transcript differs from the fixture at line {}\n  got:  {:?}\n  want: {:?}\n  full transcript: {}",
            line + 1,
            transcript.lines().nth(line),
            expected.lines().nth(line),
            written.display()
        );
        mismatches.push(name);
    }
    assert!(mismatches.is_empty(), "transcripts differ: {mismatches:?}");
}
