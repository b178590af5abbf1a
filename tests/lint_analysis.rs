//! One analysis per document: the pipeline's stage 2 lints a document and
//! hands the constraint graph it derived and relaxed to stage 5a, which
//! solves it instead of deriving its own. Sharing the analysis must change
//! no outcome, so every run here is compared with a cold reference that
//! lints with a fresh linter and derives and solves on its own — on every
//! broadcast shape of the benchmark, on the Evening News, across a stage 4
//! that materialises filtered media, on documents whose analysis fails,
//! and through the other entry points that share the seam.

use std::sync::Arc;

use cmif::core::arc::SyncArc;
use cmif::core::channel::MediaKind;
use cmif::core::diag::{codes, Code, SeverityConfig};
use cmif::core::prelude::{AttrName, AttrValue, DocumentBuilder};
use cmif::core::time::{DelayMs, MaxDelay, MediaTime, TimeMs};
use cmif::core::tree::Document;
use cmif::format::{document_to_bytes, read_document_bytes, WireEncoding};
use cmif::lint::Linter;
use cmif::media::{BlockStore, MediaBlock, MediaGenerator, MediaPayload};
use cmif::news::{capture_news_media, evening_news};
use cmif::pipeline::{
    apply_plan, map_presentation, plan_filters, run_structure_only, storyboard, CaptureRequest,
    CaptureTool, DeviceProfile, PipelineBuilder, PipelineError, PipelineRun, StoryboardFrame,
};
use cmif::scheduler::{
    derive_constraints, full_report, ConflictReport, ConstraintGraph, Engine, EngineConfig,
    JitterModel, ScheduleOptions, SolveResult, Submission,
};
use cmif::synthetic::SyntheticNews;

/// Stories per broadcast, as the benchmark submits them.
const STORIES: usize = 32;
/// Storyboard step of a default builder, milliseconds.
const STEP_MS: i64 = 1_000;

/// A broadcast of the benchmark's shape.
fn broadcast(captions: usize, graphics: usize, arcs: bool) -> Document {
    SyntheticNews {
        stories: STORIES,
        story_seconds: 30,
        captions_per_story: captions,
        graphics_per_story: graphics,
        explicit_arcs: arcs,
    }
    .build()
    .expect("synthetic news builds")
}

/// A store holding media for every broadcast shape: one small payload per
/// medium, stored under the widest broadcast's own descriptors (as the
/// benchmark fills its store), so schedules see the declared durations.
fn broadcast_store() -> BlockStore {
    let mut generator = MediaGenerator::new(3);
    let audio = generator.audio("audio", 30_000, 1_000).payload;
    let video = generator.video("video", 30_000, 4, 3, 25.0, 24).payload;
    let image = generator.image("image", 32, 24, 24).payload;
    let text = generator.text("text", 40).payload;
    let store = BlockStore::new();
    for descriptor in broadcast(1, 4, true).catalog.iter() {
        let payload: &MediaPayload = match descriptor.medium {
            MediaKind::Audio => &audio,
            MediaKind::Video => &video,
            MediaKind::Image => &image,
            _ => &text,
        };
        let block = MediaBlock::new(descriptor.key.as_str(), payload.clone());
        store
            .put_with_descriptor(block, descriptor.clone())
            .expect("fresh key");
    }
    store
}

/// What a run must produce, computed the way the pipeline did before its
/// stages shared an analysis.
#[derive(Debug)]
struct Reference {
    solve: SolveResult,
    conflicts: ConflictReport,
    storyboard: Vec<StoryboardFrame>,
    diagnostics: Vec<cmif::core::diag::Diagnostic>,
}

/// Stages 2–5b of `doc` against `store` with a fresh linter and a graph
/// derived and solved on its own.
fn cold_reference(
    doc: &Document,
    store: &BlockStore,
    device: &DeviceProfile,
) -> Result<Reference, PipelineError> {
    let diagnostics = Linter::new().check_resolved(doc, store).into_diagnostics();
    let presentation = map_presentation(doc)?;
    let plan = plan_filters(doc, store, device)?;
    let solve = cold_solve(doc, store)?;
    let conflicts = full_report(doc, &solve, store, Some(&device.limits()))
        .map_err(|e| PipelineError::from(e).in_stage("scheduling"))?;
    let storyboard = storyboard(
        doc,
        &solve.schedule,
        &presentation,
        Some(&plan),
        STEP_MS,
        store,
    )?;
    Ok(Reference {
        solve,
        conflicts,
        storyboard,
        diagnostics,
    })
}

/// A cold derive + solve, failing as stage 5a fails.
fn cold_solve(
    doc: &Document,
    resolver: &dyn cmif::core::descriptor::DescriptorResolver,
) -> Result<SolveResult, PipelineError> {
    ConstraintGraph::derive(doc, resolver, &ScheduleOptions::default())
        .and_then(|mut graph| graph.solve(doc, resolver))
        .map_err(|e| PipelineError::from(e).in_stage("scheduling"))
}

fn assert_matches(run: &PipelineRun, reference: &Reference, label: &str) {
    assert_eq!(run.solve, reference.solve, "{label}: solve result");
    assert_eq!(run.conflicts, reference.conflicts, "{label}: conflicts");
    assert_eq!(run.storyboard, reference.storyboard, "{label}: storyboard");
    assert_eq!(
        run.diagnostics, reference.diagnostics,
        "{label}: diagnostics"
    );
}

/// Descriptor reads `f` makes against `store`.
fn descriptor_reads<T>(store: &BlockStore, f: impl FnOnce() -> T) -> (T, u64) {
    store.reset_stats();
    let value = f();
    (value, store.access_stats().0)
}

#[test]
fn every_broadcast_shape_matches_a_cold_reference() {
    let store = broadcast_store();
    let device = DeviceProfile::workstation();
    let builder = PipelineBuilder::new(device.clone()).jitter(JitterModel::uniform(40, 3));
    for captions in 3..=7 {
        for graphics in 1..=4 {
            for arcs in [false, true] {
                let label = format!("{captions} captions x {graphics} graphics, arcs {arcs}");
                let bytes =
                    document_to_bytes(&broadcast(captions, graphics, arcs), WireEncoding::Text)
                        .expect("broadcast encodes");
                let (run, run_reads) =
                    descriptor_reads(&store, || builder.run_wire(&bytes, &store));
                let run = run.unwrap_or_else(|e| panic!("{label}: {e}"));

                let (doc, _) = read_document_bytes(&bytes).expect("broadcast decodes");
                let (reference, cold_reads) =
                    descriptor_reads(&store, || cold_reference(&doc, &store, &device));
                assert_matches(&run, &reference.expect("cold reference runs"), &label);

                // The run derives once where the reference derives twice
                // (in lint and in solve): two lookups per story for leaf
                // durations, two more for arc rates when the story has
                // arcs.
                let (_, derive_reads) = descriptor_reads(&store, || {
                    derive_constraints(&doc, &store, &ScheduleOptions::default())
                });
                let per_story = if arcs { 4 } else { 2 };
                assert_eq!(derive_reads, (per_story * STORIES) as u64, "{label}");
                assert_eq!(
                    run_reads + derive_reads,
                    cold_reads,
                    "{label}: descriptor reads"
                );
            }
        }
    }
}

#[test]
fn the_evening_news_matches_a_cold_reference() {
    let store = BlockStore::new();
    capture_news_media(&store, 7).expect("media captured");
    let doc = evening_news().expect("evening news builds");
    let device = DeviceProfile::workstation();
    let reference = cold_reference(&doc, &store, &device).expect("cold reference runs");
    let builder = PipelineBuilder::new(device);
    assert_matches(&builder.run(&doc, &store).unwrap(), &reference, "run");
    for encoding in [WireEncoding::Text, WireEncoding::Binary] {
        let bytes = document_to_bytes(&doc, encoding).unwrap();
        let run = builder.run_wire(&bytes, &store).unwrap();
        assert_matches(&run, &reference, &format!("run_wire {encoding:?}"));
    }
}

/// A video captured at 25 fps and a caption that starts 50 frames into it:
/// the arc's offset converts to milliseconds through the video's frame
/// rate, which a frame-subsampling filter changes.
fn frame_offset_document(store: &BlockStore) -> Document {
    let mut tool = CaptureTool::new(store, 17);
    let film = tool
        .capture(&CaptureRequest::video("film", 8_000, (64, 48), 24))
        .expect("video captured");
    let mut doc = DocumentBuilder::new("frames")
        .channel("video", MediaKind::Video)
        .channel("caption", MediaKind::Text)
        .descriptor(film)
        .root_par(|root| {
            root.ext("film", "video", "film");
            root.imm_text("line", "caption", "fifty frames in", 1_000);
        })
        .build()
        .expect("document builds");
    let line = doc.find("/line").unwrap();
    doc.add_arc(
        line,
        SyncArc::hard_start("../film", "").with_offset(MediaTime::frames(50)),
    )
    .unwrap();
    doc
}

#[test]
fn materialised_filters_re_derive_against_the_filtered_store() {
    let device = DeviceProfile::low_end_pc();
    let served = BlockStore::new();
    let doc = frame_offset_document(&served);
    let reference_store = BlockStore::new();
    frame_offset_document(&reference_store);
    let unfiltered = cold_solve(&doc, &reference_store).unwrap();

    let run = PipelineBuilder::new(device.clone())
        .materialize_filters(true)
        .run(&doc, &served)
        .unwrap();

    // The reference filters its own copy of the media, then solves cold.
    let plan = plan_filters(&doc, &reference_store, &device).unwrap();
    assert!(apply_plan(&plan, &reference_store).unwrap() > 0);
    let reference = cold_reference(&doc, &reference_store, &device).unwrap();
    assert_eq!(run.solve, reference.solve);
    assert_eq!(run.conflicts, reference.conflicts);
    assert_eq!(run.storyboard, reference.storyboard);
    // Stage 2 saw the unfiltered rate, so its graph would have placed the
    // caption elsewhere: only a fresh derivation gives this schedule.
    let line = doc.find("/line").unwrap();
    let begin = |solve: &SolveResult| solve.schedule.node_times[&line].0;
    assert_eq!(begin(&unfiltered), TimeMs::from_millis(2_000));
    assert!(begin(&run.solve) > begin(&unfiltered), "{run:?}");
}

/// The fixture store and a two-caption document every failure case edits.
fn failing_fixture() -> (Document, BlockStore) {
    let store = BlockStore::new();
    let mut tool = CaptureTool::new(&store, 31);
    let speech = tool
        .capture(&CaptureRequest::audio("speech", 4_000))
        .unwrap();
    let doc = DocumentBuilder::new("failing")
        .channel("audio", MediaKind::Audio)
        .channel("caption", MediaKind::Text)
        .channel("banner", MediaKind::Text)
        .descriptor(speech)
        .root_par(|root| {
            root.ext("voice", "audio", "speech");
            root.imm_text("line", "caption", "first", 3_000);
            root.imm_text("banner", "banner", "second", 3_000);
        })
        .build()
        .unwrap();
    (doc, store)
}

/// Documents stage 5a cannot schedule, each with the lint code whose
/// finding has to be allowed for the run to get that far.
fn failing_documents() -> Vec<(&'static str, Code, Document, BlockStore)> {
    let mut cases = Vec::new();

    // L101: a positive cycle of explicit arcs.
    let (mut doc, store) = failing_fixture();
    let line = doc.find("/line").unwrap();
    let banner = doc.find("/banner").unwrap();
    let offset = MediaTime::seconds(1);
    doc.add_arc(
        line,
        SyncArc::hard_start("../banner", "").with_offset(offset),
    )
    .unwrap();
    doc.add_arc(
        banner,
        SyncArc::hard_start("../line", "").with_offset(offset),
    )
    .unwrap();
    cases.push(("cycle", codes::ARC_CYCLE, doc, store));

    // L103: an arc whose source does not resolve, so derivation fails.
    let (mut doc, store) = failing_fixture();
    let line = doc.find("/line").unwrap();
    doc.add_arc(line, SyncArc::hard_start("../nowhere", ""))
        .unwrap();
    cases.push(("unresolved", codes::UNRESOLVED_ARC_ENDPOINT, doc, store));

    // L105: an offset that pushes the caption's end past i64 milliseconds.
    let (mut doc, store) = failing_fixture();
    let line = doc.find("/line").unwrap();
    let far = MediaTime::millis(i64::MAX - 1_000);
    doc.add_arc(line, SyncArc::hard_start("../voice", "").with_offset(far))
        .unwrap();
    cases.push(("relax overflow", codes::TIME_OVERFLOW, doc, store));

    // L105: every time fits, but the arc's window bound does not.
    let (mut doc, store) = failing_fixture();
    let line = doc.find("/line").unwrap();
    let far = MediaTime::millis(i64::MAX - 10_000);
    let window = (
        DelayMs::ZERO,
        MaxDelay::Bounded(DelayMs::from_millis(20_000)),
    );
    doc.add_arc(
        line,
        SyncArc::hard_start("../voice", "")
            .with_offset(far)
            .with_window(window.0, window.1),
    )
    .unwrap();
    cases.push(("window overflow", codes::TIME_OVERFLOW, doc, store));
    cases
}

#[test]
fn allowed_failures_fail_in_stage_5a_like_a_cold_solve() {
    for (label, code, doc, store) in failing_documents() {
        let denied = PipelineBuilder::new(DeviceProfile::workstation())
            .run(&doc, &store)
            .unwrap_err();
        assert_eq!(denied.stage(), "structure", "{label}");
        let PipelineError::Lint { diagnostics, .. } = &denied else {
            panic!("{label}: expected a lint refusal, got {denied:?}");
        };
        assert!(diagnostics.iter().any(|d| d.code == code), "{label}");

        let allowed = Linter::new().with_config(SeverityConfig::new().allow(code));
        let err = PipelineBuilder::new(DeviceProfile::workstation())
            .lint(allowed)
            .run(&doc, &store)
            .unwrap_err();
        let expected = cold_solve(&doc, &store).unwrap_err();
        assert_eq!(err.stage(), "scheduling", "{label}: {err}");
        assert_eq!(err, expected, "{label}");
    }
}

#[test]
fn structure_only_runs_match_a_cold_solve() {
    let news = evening_news().unwrap();
    let options = ScheduleOptions::default();
    for (label, doc) in [
        ("evening news", news),
        ("broadcast", broadcast(5, 2, true)),
        ("bare broadcast", broadcast(3, 1, false)),
    ] {
        let (presentation, solve) = run_structure_only(&doc, &doc.catalog, &options).unwrap();
        assert_eq!(presentation, map_presentation(&doc).unwrap(), "{label}");
        assert_eq!(solve, cold_solve(&doc, &doc.catalog).unwrap(), "{label}");
    }

    // A denied document is refused in the structure stage, as before.
    let (_, _, doc, _) = failing_documents().swap_remove(0);
    let err = run_structure_only(&doc, &doc.catalog, &options).unwrap_err();
    assert_eq!(err.stage(), "structure");
    assert!(matches!(err, PipelineError::Lint { .. }));
}

#[test]
fn live_playback_outcomes_match_a_plain_engine_submission() {
    let jitter = JitterModel::uniform(40, 5);
    let store = BlockStore::new();
    capture_news_media(&store, 7).unwrap();
    let mut cases = vec![(
        "evening news",
        Linter::new(),
        evening_news().unwrap(),
        store,
    )];
    for (label, code, doc, store) in failing_documents() {
        let allowed = Linter::new().with_config(SeverityConfig::new().allow(code));
        cases.push((label, allowed, doc, store));
    }

    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    for (label, linter, doc, store) in cases {
        let doc = Arc::new(doc);
        let builder = PipelineBuilder::new(DeviceProfile::workstation())
            .jitter(jitter.clone())
            .lint(linter);
        let ticket = builder.play_running(Arc::clone(&doc), &store).unwrap();
        let outcome = builder.wait_running(ticket).unwrap();

        // The engine on its own: no precomputed solve, so the job derives.
        let catalog = Arc::new(store.export_catalog());
        let reference = engine.admit(Submission::new(doc, jitter.clone()).resolver(catalog));
        let reference = engine.wait(reference.unwrap());
        assert_eq!(outcome.result, reference.result, "{label}");
        assert!(outcome.edits.is_empty(), "{label}");
    }
    engine.shutdown();
}

#[test]
fn repeated_analyses_of_one_revision_seed_the_graph_from_the_cache() {
    // Linting one revision twice through one linter relaxes it once; the
    // second run's graph is seeded from the cached fixpoint and must solve
    // exactly like a cold one.
    let doc = broadcast(4, 2, true);
    let linter = Linter::new();
    let first = linter.analyze(&doc, &doc.catalog);
    let second = linter.analyze(&doc, &doc.catalog);
    assert_eq!(linter.cache_stats(), (1, 1));
    assert_eq!(first.report, second.report);
    let cold = cold_solve(&doc, &doc.catalog).unwrap();
    for analysis in [first, second] {
        let mut graph = analysis.graph.expect("the broadcast derives");
        assert_eq!(graph.solve(&doc, &doc.catalog).unwrap(), cold);
    }

    // An edited revision misses, and its graph reflects the edit.
    let mut edited = doc.clone();
    let caption = edited.find("/story-0/captions/caption-0").unwrap();
    edited
        .set_attr(caption, AttrName::Duration, AttrValue::Number(1_234))
        .unwrap();
    let mut graph = linter.analyze(&edited, &edited.catalog).graph.unwrap();
    assert_eq!(linter.cache_stats(), (1, 2));
    assert_eq!(
        graph.solve(&edited, &edited.catalog).unwrap(),
        cold_solve(&edited, &edited.catalog).unwrap()
    );
}
