//! End-to-end orchestration of the CWI/Multimedia Pipeline (Figure 1).
//!
//! [`PipelineBuilder`] wires the five stages together for one document and
//! one target device:
//!
//! 1. **capture** (done by the caller — blocks already sit in the store);
//! 2. **document structure mapping** — the document itself, statically
//!    analysed: deny-severity lint findings refuse the run with every
//!    diagnostic attached, warnings ride along on the [`PipelineRun`];
//! 3. **presentation mapping** — the virtual layout of every channel;
//! 4. **constraint filtering** — plan and (optionally) apply the device
//!    mapping;
//! 5. **viewing** — schedule, conflict report, table of contents and
//!    storyboard, with playback driven through a
//!    [`cmif_scheduler::Engine`] (one per builder, kept across runs).
//!
//! Each stage is timed so the Figure 1 benchmark can report where pipeline
//! time goes as documents grow. The dividing line the paper draws —
//! target-system *independent* (stages 2–3) vs target-system *dependent*
//! (stages 4–5) — is visible in the [`PipelineRun`] type: everything up to
//! the presentation map is reusable across devices, everything after is
//! per-device.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::error::{PipelineError, Result};
use cmif_core::descriptor::DescriptorResolver;
use cmif_core::diag::Diagnostic;
use cmif_core::edit::Edit;
use cmif_core::tree::Document;
use cmif_lint::{Analysis, Linter};
use cmif_media::store::BlockStore;
use cmif_scheduler::{
    full_report, ConflictReport, ConstraintGraph, DocId, DocOutcome, Engine, EngineConfig,
    JitterModel, PlaybackReport, ScheduleOptions, SchedulerError, SolveResult, Submission,
};

use crate::constraint::{apply_plan, plan_filters, DeviceProfile, FilterPlan};
use crate::presentation::{map_presentation, PresentationMap};
use crate::viewer::{storyboard, table_of_contents, StoryboardFrame};

/// What a [`PipelineBuilder`] has been configured with; each field has the
/// builder setter of the same name.
#[derive(Debug, Clone)]
struct PipelineOptions {
    materialize_filters: bool,
    storyboard_step_ms: i64,
    jitter: JitterModel,
    playback_runs: u32,
    playback_workers: usize,
    lint: Linter,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            materialize_filters: false,
            storyboard_step_ms: 1_000,
            jitter: JitterModel::ideal(),
            playback_runs: 1,
            playback_workers: 1,
            lint: Linter::new(),
        }
    }
}

/// Wall-clock time spent in each pipeline stage.
#[derive(Debug, Clone, Default)]
pub struct StageTimings {
    /// Structural validation of the document.
    pub validate: Duration,
    /// Presentation mapping.
    pub presentation: Duration,
    /// Constraint-filter planning (and application when requested).
    pub filtering: Duration,
    /// Scheduling and conflict detection.
    pub scheduling: Duration,
    /// Viewing-tool rendering (table of contents + storyboard).
    pub viewing: Duration,
    /// Playback simulation.
    pub playback: Duration,
}

impl StageTimings {
    /// Total time across all stages.
    pub fn total(&self) -> Duration {
        self.validate
            + self.presentation
            + self.filtering
            + self.scheduling
            + self.viewing
            + self.playback
    }
}

/// Everything one pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// The device the run targeted.
    pub device: DeviceProfile,
    /// The presentation map (target-system independent).
    pub presentation: PresentationMap,
    /// The constraint mapping for this device.
    pub filter_plan: FilterPlan,
    /// The solved schedule and its constraints.
    pub solve: SolveResult,
    /// The conflict report against this device.
    pub conflicts: ConflictReport,
    /// The reading view.
    pub table_of_contents: String,
    /// The viewing view.
    pub storyboard: Vec<StoryboardFrame>,
    /// Playback simulation of the last run, when requested.
    pub playback: Option<PlaybackReport>,
    /// How the document's media arrived when the run came through
    /// [`PipelineBuilder::run_distributed`]: local hits, clean transfers,
    /// degraded fetches and the retries they recovered from. `None` for
    /// runs against a plain local store.
    pub fetch: Option<cmif_distrib::FetchReport>,
    /// Non-refusing lint findings from stage 2 (warn severity): the run
    /// went ahead, but these are worth surfacing to an author. Render
    /// them with [`cmif_core::diag::render_all`] against the document's
    /// `SourceMap`.
    pub diagnostics: Vec<Diagnostic>,
    /// Wall-clock cost of each stage.
    pub timings: StageTimings,
}

impl PipelineRun {
    /// True when the document can be presented on the device as planned
    /// (no Must violations and no unresolved device conflicts).
    pub fn is_presentable(&self) -> bool {
        self.solve.is_consistent() && self.conflicts.of_class(2).is_empty()
    }
}

/// Configures and runs pipeline passes for one target device.
///
/// The builder is reusable: configure it once, then [`PipelineBuilder::run`]
/// as many documents through it as needed. Each run derives and relaxes
/// the document's [`ConstraintGraph`] once, in stage 2's analysis
/// ([`Linter::analyze`]), solves that same graph in stage 5a (deriving
/// afresh only when stage 4 materialised filtered media), and drives
/// playback through a stage-5c [`cmif_scheduler::Engine`]. Every stage
/// schedules under [`ScheduleOptions::default`].
///
/// The engine is created lazily on the first run that plays anything and
/// then *kept*, so repeat runs (and clones of this builder, which share
/// it) pay no per-run thread spawn; it is shut down when the last sharing
/// builder drops. Outcomes are collected per admission ticket, so
/// concurrent `run` calls through one shared engine cannot steal each
/// other's reports.
#[derive(Clone)]
pub struct PipelineBuilder {
    device: DeviceProfile,
    options: PipelineOptions,
    /// Lazily initialised, shared by clones. Reset by any setter that
    /// changes the engine's configuration.
    engine: Arc<OnceLock<Engine>>,
    /// Test-only fault injection threaded into the engine's jobs.
    job_hook: Option<cmif_scheduler::JobHook>,
}

impl fmt::Debug for PipelineBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelineBuilder")
            .field("device", &self.device)
            .field("options", &self.options)
            .field("engine_started", &self.engine.get().is_some())
            .finish()
    }
}

impl PipelineBuilder {
    /// A builder targeting the given device with default options.
    pub fn new(device: DeviceProfile) -> PipelineBuilder {
        PipelineBuilder {
            device,
            options: PipelineOptions::default(),
            engine: Arc::new(OnceLock::new()),
            job_hook: None,
        }
    }

    /// The shared stage-5c engine, started on first use from the current
    /// options and kept across runs and clones.
    fn stage5_engine(&self) -> &Engine {
        self.engine.get_or_init(|| {
            Engine::new(EngineConfig {
                workers: self.options.playback_workers,
                job_hook: self.job_hook.clone(),
                ..EngineConfig::default()
            })
        })
    }

    /// Forget any already-started engine: the next run starts a fresh one
    /// from the current options. Called by every setter that feeds
    /// [`EngineConfig`], so configuration changes cannot be shadowed by a
    /// previously spawned pool.
    fn reset_engine(&mut self) {
        self.engine = Arc::new(OnceLock::new());
    }

    /// Whether the filter plan is applied to the block store.
    pub fn materialize_filters(mut self, materialize: bool) -> PipelineBuilder {
        self.options.materialize_filters = materialize;
        self
    }

    /// Step between storyboard frames, in milliseconds.
    pub fn storyboard_step_ms(mut self, step_ms: i64) -> PipelineBuilder {
        self.options.storyboard_step_ms = step_ms;
        self
    }

    /// Device jitter used for the playback sessions.
    pub fn jitter(mut self, jitter: JitterModel) -> PipelineBuilder {
        self.options.jitter = jitter;
        self
    }

    /// Number of playback sessions to run (0 disables playback).
    pub fn playback_runs(mut self, runs: u32) -> PipelineBuilder {
        self.options.playback_runs = runs;
        self
    }

    /// Worker threads of the stage-5c playback engine. Reports are
    /// deterministic per seed, so this only changes wall-clock time.
    pub fn playback_workers(mut self, workers: usize) -> PipelineBuilder {
        self.options.playback_workers = workers;
        self.reset_engine();
        self
    }

    /// The stage-2 linter. Its severity config decides which findings
    /// refuse a run (deny) and which merely ride along on the
    /// [`PipelineRun`] (warn); the registry defaults match what the old
    /// fail-fast validator rejected. The linter's schedule options are
    /// replaced by [`ScheduleOptions::default`], the policy every later
    /// stage schedules under, so the timing passes analyse the same
    /// constraint set stage 5a solves.
    pub fn lint(mut self, linter: Linter) -> PipelineBuilder {
        self.options.lint = linter.with_options(ScheduleOptions::default());
        self
    }

    /// Test-only fault injection for the stage-5c engine's jobs (see
    /// [`cmif_scheduler::JobHook`]). Leave unset.
    #[doc(hidden)]
    pub fn playback_hook(mut self, hook: cmif_scheduler::JobHook) -> PipelineBuilder {
        self.job_hook = Some(hook);
        self.reset_engine();
        self
    }

    /// Starts a *live* playback of `doc` on the shared stage-5c engine and
    /// returns its admission ticket without waiting for it to finish — the
    /// entry point of the paper's edit-while-playing authoring loop.
    ///
    /// The document passes stage-2 static analysis first (deny findings
    /// refuse it exactly like [`PipelineBuilder::run`]), and the graph that
    /// analysis derived is solved here and handed to the job, which then
    /// skips its own derivation; descriptors resolve against a snapshot of
    /// the store's catalog. While the
    /// presentation plays, feed revisions in with
    /// [`PipelineBuilder::edit_running`] and collect the final report —
    /// including one [`cmif_scheduler::EditOutcome`] per routed edit —
    /// with [`PipelineBuilder::wait_running`].
    pub fn play_running(&self, doc: impl Into<Arc<Document>>, store: &BlockStore) -> Result<DocId> {
        let shared = doc.into();
        let graph = self.structure(&shared, store)?.graph;
        let catalog: Arc<dyn DescriptorResolver + Send + Sync> = Arc::new(store.export_catalog());
        let mut submission =
            Submission::new(Arc::clone(&shared), self.options.jitter.clone()).resolver(catalog);
        // Solving stage 2's graph spares the job its own derive and relax.
        // A graph that does not solve is left to the job, which derives
        // afresh and ends with the same error as any other submission.
        if let Some(solve) = graph.and_then(|mut graph| graph.solve(&shared, store).ok()) {
            submission = submission.solved(solve);
        }
        self.stage5_engine()
            .admit(submission)
            .map_err(|e| PipelineError::from(e).in_stage("playback"))
    }

    /// Routes a live edit to a document playing under this builder's
    /// engine ([`PipelineBuilder::play_running`]). The edit is applied at
    /// the presentation's next tick boundary and the new revision is
    /// re-solved cold; the unplayed suffix moves onto it, already-fired
    /// events are never rewritten, and an edit that is invalid or does not
    /// solve leaves the presentation on its last revision. Its outcome
    /// lands in the document's [`cmif_scheduler::DocOutcome::edits`].
    ///
    /// Fails with an `"edit"`-stage error when the ticket is unknown or
    /// the presentation already completed (the edit then went nowhere).
    pub fn edit_running(&self, doc: DocId, edit: Edit) -> Result<()> {
        let Some(engine) = self.engine.get() else {
            return Err(PipelineError::from(SchedulerError::EditRejected {
                doc,
                reason: "no playback engine is running",
            })
            .in_stage("edit"));
        };
        engine
            .apply_edit(doc, edit)
            .map_err(|e| PipelineError::from(e).in_stage("edit"))
    }

    /// Collects the outcome of a live playback started with
    /// [`PipelineBuilder::play_running`], blocking until it finishes; like
    /// [`cmif_scheduler::Engine::wait`], it plays queued runs on the
    /// calling thread meanwhile. The outcome carries the playback report
    /// (or the error that ended the run) plus one entry per live edit
    /// routed to the document, in processing order.
    pub fn wait_running(&self, doc: DocId) -> Result<DocOutcome> {
        let Some(engine) = self.engine.get() else {
            return Err(PipelineError::from(SchedulerError::EditRejected {
                doc,
                reason: "no playback engine is running",
            })
            .in_stage("playback"));
        };
        Ok(engine.wait(doc))
    }

    /// Runs pipeline stages 2–5 for a document whose media already sit in
    /// `store`.
    ///
    /// Stage 5c's engine jobs need shared ownership of the document, so
    /// this clones the tree once, up front; a caller that already holds
    /// (or re-runs) the document should use [`PipelineBuilder::run_shared`]
    /// and pay a pointer clone instead.
    pub fn run(&self, doc: &Document, store: &BlockStore) -> Result<PipelineRun> {
        self.run_inner(Arc::new(doc.clone()), store)
    }

    /// Runs the pipeline for a document arriving as interchange bytes —
    /// the compact binary wire form or canonical text, auto-detected by
    /// leading magic (see [`cmif_format::WireEncoding::detect`]).
    ///
    /// This is the receiving end of a document transport: bytes come off
    /// the wire, decode (validated, hardened against truncation and depth
    /// bombs), and run stages 2–5 directly. A decoding failure surfaces as
    /// an `"ingest"`-stage [`PipelineError::Format`] carrying the byte
    /// span of the fault.
    pub fn run_wire(&self, bytes: &[u8], store: &BlockStore) -> Result<PipelineRun> {
        let (doc, _encoding) =
            cmif_format::read_document_bytes(bytes).map_err(PipelineError::from)?;
        self.run_shared(doc, store)
    }

    /// [`PipelineBuilder::run`] for a shared document: N runs of one
    /// `Arc<Document>` clone N pointers, never the tree (the same contract
    /// as [`cmif_scheduler::Submission::new`]).
    pub fn run_shared(
        &self,
        doc: impl Into<Arc<Document>>,
        store: &BlockStore,
    ) -> Result<PipelineRun> {
        self.run_inner(doc.into(), store)
    }

    /// The stages themselves, on a document stage 5c's engine jobs share.
    fn run_inner(&self, doc: Arc<Document>, store: &BlockStore) -> Result<PipelineRun> {
        let device = &self.device;
        let options = &self.options;
        let mut timings = StageTimings::default();

        // Stage 2: the document structure map — static analysis. Unlike
        // the old fail-fast validator this collects *every* finding: a
        // deny-severity diagnostic refuses the run with the whole report
        // attached, warn-severity findings ride along on the `PipelineRun`.
        // The analysis keeps the constraint graph it derived and relaxed,
        // for stage 5a.
        let started = Instant::now();
        let Analysis { report, graph } = self.structure(&doc, store)?;
        let diagnostics = report.into_diagnostics();
        timings.validate = started.elapsed();

        // Stage 3: presentation mapping (target-system independent).
        let started = Instant::now();
        let presentation = map_presentation(&doc).map_err(|e| e.in_stage("presentation"))?;
        timings.presentation = started.elapsed();

        // Stage 4: constraint filtering (target-system dependent).
        let started = Instant::now();
        let filter_plan = plan_filters(&doc, store, device).map_err(|e| e.in_stage("filtering"))?;
        let materialized = if options.materialize_filters {
            apply_plan(&filter_plan, store).map_err(|e| e.in_stage("filtering"))?
        } else {
            0
        };
        timings.filtering = started.elapsed();

        // Stage 5a: scheduling + conflict detection, on stage 2's graph
        // while the store still holds what stage 2 read. A materialised
        // block has a refreshed descriptor — a new duration, or a new
        // frame rate that frame-unit arc offsets convert through — so
        // then the graph is derived afresh.
        let started = Instant::now();
        let mut graph = match graph {
            Some(graph) if materialized == 0 => graph,
            _ => ConstraintGraph::derive(&doc, store, &ScheduleOptions::default())
                .map_err(|e| PipelineError::from(e).in_stage("scheduling"))?,
        };
        // Behind an `Arc` so stage 5c's engine jobs can share it; unwrapped
        // (clone-free) below once the jobs are done with their references.
        let solve_result = Arc::new(
            graph
                .solve(&doc, store)
                .map_err(|e| PipelineError::from(e).in_stage("scheduling"))?,
        );
        let conflicts = full_report(&doc, &solve_result, store, Some(&device.limits()))
            .map_err(|e| PipelineError::from(e).in_stage("scheduling"))?;
        timings.scheduling = started.elapsed();

        // Stage 5b: viewing tools.
        let started = Instant::now();
        let toc =
            table_of_contents(&doc, &solve_result.schedule).map_err(|e| e.in_stage("viewing"))?;
        let frames = storyboard(
            &doc,
            &solve_result.schedule,
            &presentation,
            Some(&filter_plan),
            options.storyboard_step_ms,
            store,
        )
        .map_err(|e| e.in_stage("viewing"))?;
        timings.viewing = started.elapsed();

        // Stage 5c: playback sessions, driven through the builder's engine
        // (started once per builder, shared across runs and clones — no
        // per-run thread spawn). Every run is admitted in one batch and
        // waited for, so the engine never holds more than the runs its
        // callers are waiting on. Each submission shares the stage-5a
        // solve (no per-run re-derivation) and resolves descriptors
        // against a snapshot of the store exported *after* filtering, so
        // materialised degradations are exactly what the sessions see.
        // The runs are played by the engine's workers and by this thread:
        // while it waits for an outcome, `Engine::wait` plays queued runs
        // here instead of paying a thread hand-off. Reports are
        // deterministic per seed, so who plays a run only changes
        // wall-clock time, never a report.
        let started = Instant::now();
        let playback = if options.playback_runs > 0 {
            let catalog: Arc<dyn DescriptorResolver + Send + Sync> =
                Arc::new(store.export_catalog());
            let engine = self.stage5_engine();
            let submissions = (0..options.playback_runs).map(|run| {
                let jitter = JitterModel {
                    seed: options.jitter.seed.wrapping_add(run as u64),
                    ..options.jitter.clone()
                };
                Submission::new(Arc::clone(&doc), jitter)
                    .resolver(Arc::clone(&catalog))
                    .solved(Arc::clone(&solve_result))
            });
            let ids = engine
                .submit_batch(submissions)
                .map_err(|e| PipelineError::from(e).in_stage("playback"))?;
            // Collect every outcome by its own ticket — even after a
            // failure, so nothing is left undelivered in the long-lived
            // engine — then report the first failure, else the last run.
            let mut last = Ok(None);
            for id in ids {
                let result = engine.wait(id).result;
                if last.is_ok() {
                    last = result.map(Some);
                }
            }
            last.map_err(|e| PipelineError::from(e).in_stage("playback"))?
        } else {
            None
        };
        timings.playback = started.elapsed();

        Ok(PipelineRun {
            device: device.clone(),
            presentation,
            filter_plan,
            // Every engine job has finished and dropped its reference by
            // now, so this unwraps without cloning; the fallback clone can
            // only run if a caller-side clone of the Arc survives.
            solve: Arc::try_unwrap(solve_result).unwrap_or_else(|shared| (*shared).clone()),
            conflicts,
            table_of_contents: toc,
            storyboard: frames,
            playback,
            fetch: None,
            diagnostics,
            timings,
        })
    }

    /// Stage 2: lints the document against `store`, refusing it on a
    /// deny finding.
    fn structure(&self, doc: &Document, store: &BlockStore) -> Result<Analysis> {
        refuse_denied(self.options.lint.analyze(doc, store))
    }

    /// Runs the pipeline for a document published on a distributed store,
    /// as `host` would present it: the document structure comes from the
    /// nearest surviving holder (free when `host` already holds a
    /// replica), every referenced media block is fetched
    /// nearest-replica-first — retrying past down hosts and cut links
    /// under the store's [`cmif_distrib::RetryPolicy`] — and the stages
    /// then run against the host's local shard. (Stages 2 and 4 resolve
    /// every external reference against the local store, so even blocks
    /// the device will drop must be present; a device-filtered *transport*
    /// comparison is [`cmif_distrib::compare_transport`]'s job.)
    ///
    /// Distribution failures surface as `"fetch"`-stage
    /// [`PipelineError::Distrib`] errors carrying the per-replica attempt
    /// trace; a successful run reports how its media arrived in
    /// [`PipelineRun::fetch`], so a caller can tell a clean run from one
    /// that survived cluster weather.
    pub fn run_distributed(
        &self,
        cluster: &cmif_distrib::DistributedStore,
        host: &str,
        name: &str,
    ) -> Result<PipelineRun> {
        let doc = cluster
            .fetch_document(host, name)
            .map_err(PipelineError::from)?;
        let keys: BTreeSet<cmif_core::Symbol> = cmif_distrib::referenced_keys(&doc, None)
            .into_iter()
            .collect();
        let fetch = cluster
            .fetch_blocks_for_traced(host, &keys)
            .map_err(PipelineError::from)?;
        let store = cluster.local_store(host).map_err(PipelineError::from)?;
        // The fetched tree is ours: stage 5c shares it instead of cloning.
        let mut run = self.run_shared(doc, store)?;
        run.fetch = Some(fetch);
        Ok(run)
    }
}

/// Convenience for self-contained documents (descriptors embedded in the
/// document's catalog, no block store): runs stages 2, 3 and 5a only.
pub fn run_structure_only(
    doc: &Document,
    resolver: &dyn DescriptorResolver,
    options: &ScheduleOptions,
) -> Result<(PresentationMap, SolveResult)> {
    let analysis = refuse_denied(Linter::new().with_options(*options).analyze(doc, resolver))?;
    let presentation = map_presentation(doc)?;
    let mut graph = match analysis.graph {
        Some(graph) => graph,
        None => ConstraintGraph::derive(doc, resolver, options)?,
    };
    let solve_result = graph.solve(doc, resolver)?;
    Ok((presentation, solve_result))
}

/// Refuses an analysed document on a deny finding, with every finding
/// attached.
fn refuse_denied(analysis: Analysis) -> Result<Analysis> {
    if analysis.report.has_deny() {
        return Err(PipelineError::Lint {
            stage: "structure",
            diagnostics: analysis.report.into_diagnostics(),
        });
    }
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{CaptureRequest, CaptureTool};
    use cmif_core::prelude::*;

    fn build_fixture() -> (Document, BlockStore) {
        let store = BlockStore::new();
        let mut tool = CaptureTool::new(&store, 31);
        tool.capture(&CaptureRequest::audio("speech", 4_000))
            .unwrap();
        tool.capture(&CaptureRequest::video("film", 4_000, (320, 240), 24))
            .unwrap();
        tool.capture(&CaptureRequest::image("map", (256, 192), 24))
            .unwrap();
        let catalog = store.export_catalog();
        let mut builder = DocumentBuilder::new("news")
            .channel("audio", MediaKind::Audio)
            .channel("video", MediaKind::Video)
            .channel("graphic", MediaKind::Image)
            .channel("caption", MediaKind::Text);
        for descriptor in catalog.iter() {
            builder = builder.descriptor(descriptor.clone());
        }
        let doc = builder
            .root_par(|story| {
                story.ext("voice", "audio", "speech");
                story.ext("film", "video", "film");
                story.ext_with("map", "graphic", "map", |n| {
                    n.duration_ms(4_000);
                });
                story.imm_text("line", "caption", "Paintings worth ten million", 4_000);
            })
            .build()
            .unwrap();
        (doc, store)
    }

    #[test]
    fn full_pipeline_on_a_workstation_is_presentable() {
        let (doc, store) = build_fixture();
        let run = PipelineBuilder::new(DeviceProfile::workstation())
            .run(&doc, &store)
            .unwrap();
        assert!(run.is_presentable(), "conflicts: {}", run.conflicts);
        assert!(run.filter_plan.is_identity());
        assert_eq!(run.presentation.len(), 4);
        assert!(run.table_of_contents.contains("par news"));
        assert!(!run.storyboard.is_empty());
        let playback = run.playback.as_ref().unwrap();
        assert_eq!(playback.must_violations, 0);
        assert_eq!(run.solve.schedule.total_duration, TimeMs::from_secs(4));
        assert!(run.timings.total() > Duration::ZERO);
    }

    #[test]
    fn audio_kiosk_run_reports_device_conflicts_but_still_plans() {
        let (doc, store) = build_fixture();
        let run = PipelineBuilder::new(DeviceProfile::audio_kiosk())
            .run(&doc, &store)
            .unwrap();
        assert!(!run.is_presentable());
        assert!(!run.conflicts.of_class(2).is_empty());
        assert!(run
            .filter_plan
            .dropped_channels
            .contains(&cmif_core::Symbol::intern("video")));
        // The storyboard still renders, marking dropped channels.
        let text = crate::viewer::render_storyboard(&run.storyboard);
        assert!(text.contains("[dropped on this device]"));
    }

    #[test]
    fn materializing_filters_makes_the_low_end_pc_presentable() {
        let (doc, store) = build_fixture();
        let run = PipelineBuilder::new(DeviceProfile::low_end_pc())
            .materialize_filters(true)
            .run(&doc, &store)
            .unwrap();
        assert!(
            run.conflicts.of_class(2).is_empty(),
            "device conflicts remain: {}",
            run.conflicts
        );
        // The store now holds the degraded media.
        assert_eq!(store.descriptor("film").unwrap().color_depth, Some(8));
    }

    #[test]
    fn playback_can_be_disabled() {
        let (doc, store) = build_fixture();
        let run = PipelineBuilder::new(DeviceProfile::workstation())
            .playback_runs(0)
            .run(&doc, &store)
            .unwrap();
        assert!(run.playback.is_none());
    }

    #[test]
    fn run_shared_matches_run() {
        let (doc, store) = build_fixture();
        let builder =
            PipelineBuilder::new(DeviceProfile::workstation()).jitter(JitterModel::uniform(70, 5));
        let borrowed = builder.run(&doc, &store).unwrap();
        // Same builder (shared engine), shared tree: identical results.
        let shared = builder.run_shared(Arc::new(doc), &store).unwrap();
        assert_eq!(borrowed.playback, shared.playback);
        assert_eq!(borrowed.solve, shared.solve);
        assert_eq!(borrowed.table_of_contents, shared.table_of_contents);
    }

    #[test]
    fn a_failed_playback_run_leaves_nothing_behind() {
        // Stage 5c waits for every run it admitted, even after one fails:
        // the middle run panics, the run fails with that panic, and the
        // long-lived engine holds no job and no uncollected outcome.
        use cmif_scheduler::JobHook;

        let (doc, store) = build_fixture();
        let builder = PipelineBuilder::new(DeviceProfile::workstation())
            .playback_runs(3)
            .playback_hook(JobHook::new(|label| {
                if label == "doc#1" {
                    panic!("injected playback fault in {label}");
                }
            }));
        let err = builder.run(&doc, &store).unwrap_err();
        assert_eq!(err.stage(), "playback");
        match err {
            PipelineError::Scheduler {
                source: SchedulerError::JobPanicked { ref message },
                ..
            } => assert!(message.contains("injected playback fault"), "{message}"),
            other => panic!("expected a panicked playback run, got {other:?}"),
        }
        let engine = builder.engine.get().expect("stage 5c started its engine");
        assert_eq!(engine.undelivered(), 0);
        assert_eq!(engine.backlog(), 0);
        // The next run's tickets are doc#3 onwards: it plays cleanly.
        let run = builder.run(&doc, &store).unwrap();
        assert_eq!(run.playback.unwrap().must_violations, 0);
    }

    #[test]
    fn live_playback_accepts_edits_and_reports_their_outcomes() {
        use cmif_core::edit::NodeSpec;
        use cmif_scheduler::JobHook;
        use std::sync::Barrier;

        let (doc, store) = build_fixture();
        let root = doc.root().unwrap();
        // Park the job at its start behind a barrier: the edit below is
        // guaranteed to arrive while the presentation is still live.
        let gate = Arc::new(Barrier::new(2));
        let parked = Arc::clone(&gate);
        let builder = PipelineBuilder::new(DeviceProfile::workstation()).playback_hook(
            JobHook::new(move |_| {
                parked.wait();
            }),
        );
        let id = builder.play_running(doc, &store).unwrap();
        builder
            .edit_running(
                id,
                Edit::InsertSubtree {
                    parent: root,
                    spec: NodeSpec::imm_text("coda", "breaking update")
                        .on_channel("caption")
                        .lasting_ms(6_000),
                },
            )
            .unwrap();
        gate.wait(); // release the job: the edit folds in before playback

        let outcome = builder.wait_running(id).unwrap();
        let report = outcome.result.expect("edited run still plays");
        assert_eq!(report.total_duration, TimeMs::from_secs(6));
        assert!(report
            .events
            .iter()
            .any(|e| e.name == cmif_core::Symbol::intern("coda")));
        assert_eq!(outcome.edits.len(), 1);
        assert!(outcome.edits[0].result.is_ok(), "{:?}", outcome.edits[0]);

        // A completed presentation no longer accepts edits…
        let err = builder
            .edit_running(id, Edit::RemoveSubtree { node: root })
            .unwrap_err();
        assert_eq!(err.stage(), "edit");
        // …and a builder that never played anything refuses outright.
        let idle = PipelineBuilder::new(DeviceProfile::workstation());
        let err = idle
            .edit_running(id, Edit::RemoveSubtree { node: root })
            .unwrap_err();
        assert_eq!(err.stage(), "edit");
        assert!(matches!(
            err,
            PipelineError::Scheduler {
                source: SchedulerError::EditRejected { .. },
                ..
            }
        ));
    }

    #[test]
    fn play_running_lints_before_admitting() {
        let (mut doc, store) = build_fixture();
        let root = doc.root().unwrap();
        let orphan = doc.add_ext(root).unwrap();
        doc.set_attr(orphan, AttrName::Channel, AttrValue::Id("audio".into()))
            .unwrap();
        let err = PipelineBuilder::new(DeviceProfile::workstation())
            .play_running(doc, &store)
            .unwrap_err();
        assert_eq!(err.stage(), "structure");
        assert!(matches!(err, PipelineError::Lint { .. }));
    }

    #[test]
    fn invalid_documents_are_rejected_at_stage_two() {
        let (mut doc, store) = build_fixture();
        let root = doc.root().unwrap();
        let orphan = doc.add_ext(root).unwrap();
        doc.set_attr(orphan, AttrName::Channel, AttrValue::Id("audio".into()))
            .unwrap();
        // No file attribute: stage 2 static analysis must refuse the run,
        // reporting the missing file as a deny-severity L007 diagnostic.
        let err = PipelineBuilder::new(DeviceProfile::workstation())
            .run(&doc, &store)
            .unwrap_err();
        assert_eq!(err.stage(), "structure");
        match err {
            crate::error::PipelineError::Lint { diagnostics, .. } => {
                assert!(diagnostics
                    .iter()
                    .any(|d| d.code == cmif_core::diag::codes::MISSING_FILE && d.is_deny()));
            }
            other => panic!("expected a lint refusal, got {other:?}"),
        }
    }

    #[test]
    fn stage_two_warnings_ride_along_without_refusing_the_run() {
        // Double-book the caption channel: the registry grades L203 as a
        // warning, so the run goes ahead and carries the finding.
        let (mut doc, store) = build_fixture();
        let root = doc.root().unwrap();
        let extra = doc.add_imm_text(root, "worth even more").unwrap();
        doc.set_attr(extra, AttrName::Name, AttrValue::Id("subtitle".into()))
            .unwrap();
        doc.set_attr(extra, AttrName::Channel, AttrValue::Id("caption".into()))
            .unwrap();
        doc.set_attr(extra, AttrName::Duration, AttrValue::Number(4_000))
            .unwrap();
        let run = PipelineBuilder::new(DeviceProfile::workstation())
            .run(&doc, &store)
            .unwrap();
        assert!(run
            .diagnostics
            .iter()
            .any(|d| d.code == cmif_core::diag::codes::CHANNEL_DOUBLE_BOOKING && !d.is_deny()));
    }

    #[test]
    fn a_configured_linter_can_wave_a_refusal_through() {
        // Allowing L007 at the pipeline level lets the same document run:
        // downstream stages tolerate a file-less ext (the scheduler gives
        // it a default duration), so the lint gate really is the only
        // thing standing between this document and a schedule.
        let (mut doc, store) = build_fixture();
        let root = doc.root().unwrap();
        let orphan = doc.add_ext(root).unwrap();
        doc.set_attr(orphan, AttrName::Channel, AttrValue::Id("audio".into()))
            .unwrap();
        let waved = Linter::new().with_config(
            cmif_core::diag::SeverityConfig::new().allow(cmif_core::diag::codes::MISSING_FILE),
        );
        let run = PipelineBuilder::new(DeviceProfile::workstation())
            .lint(waved)
            .run(&doc, &store)
            .unwrap();
        // The allowed code is dropped from the report entirely; what
        // remains is the warn-severity double-booking the orphan causes.
        assert!(run
            .diagnostics
            .iter()
            .all(|d| d.code != cmif_core::diag::codes::MISSING_FILE));
        assert!(run
            .diagnostics
            .iter()
            .any(|d| d.code == cmif_core::diag::codes::CHANNEL_DOUBLE_BOOKING));
    }

    #[test]
    fn wire_bytes_run_the_pipeline_in_either_encoding() {
        let (doc, store) = build_fixture();
        let builder = PipelineBuilder::new(DeviceProfile::workstation());
        let direct = builder.run(&doc, &store).unwrap();
        for encoding in [
            cmif_format::WireEncoding::Binary,
            cmif_format::WireEncoding::Text,
        ] {
            let bytes = cmif_format::document_to_bytes(&doc, encoding).unwrap();
            let run = builder.run_wire(&bytes, &store).unwrap();
            assert!(run.is_presentable(), "conflicts: {}", run.conflicts);
            assert_eq!(run.solve.schedule, direct.solve.schedule);
            assert_eq!(run.table_of_contents, direct.table_of_contents);
        }
    }

    #[test]
    fn undecodable_wire_bytes_fail_in_the_ingest_stage() {
        let (doc, store) = build_fixture();
        let builder = PipelineBuilder::new(DeviceProfile::workstation());
        let mut bytes =
            cmif_format::document_to_bytes(&doc, cmif_format::WireEncoding::Binary).unwrap();
        bytes.truncate(bytes.len() / 2);
        let err = builder.run_wire(&bytes, &store).unwrap_err();
        assert_eq!(err.stage(), "ingest");
        assert!(matches!(err, PipelineError::Format { .. }));
        assert!(builder.run_wire(b"not a document", &store).is_err());
    }

    fn build_cluster() -> (cmif_distrib::DistributedStore, Document) {
        use cmif_distrib::network::{Link, Network};
        let cluster = cmif_distrib::DistributedStore::with_replication(
            Network::uniform(&["server", "desk", "mirror"], Link::lan()),
            2,
        )
        .unwrap();
        let mut generator = cmif_media::MediaGenerator::new(17);
        for block in [
            generator.audio("speech", 4_000, 8_000),
            generator.video("film", 4_000, 160, 120, 24.0, 24),
        ] {
            let descriptor = block.describe();
            cluster.put_block("server", block, descriptor).unwrap();
        }
        let catalog = cluster.local_store("server").unwrap().export_catalog();
        let mut builder = DocumentBuilder::new("news")
            .channel("audio", MediaKind::Audio)
            .channel("video", MediaKind::Video);
        for descriptor in catalog.iter() {
            builder = builder.descriptor(descriptor.clone());
        }
        let doc = builder
            .root_par(|story| {
                story.ext("voice", "audio", "speech");
                story.ext("shot", "video", "film");
            })
            .build()
            .unwrap();
        cluster.publish_document("server", "news", &doc).unwrap();
        (cluster, doc)
    }

    #[test]
    fn run_distributed_fetches_media_and_reports_how_it_arrived() {
        let (cluster, _doc) = build_cluster();
        let builder = PipelineBuilder::new(DeviceProfile::workstation());
        let run = builder.run_distributed(&cluster, "desk", "news").unwrap();
        assert!(run.is_presentable(), "conflicts: {}", run.conflicts);
        let fetch = run.fetch.as_ref().unwrap();
        assert_eq!(fetch.requested, 2);
        assert!(fetch.fetched + fetch.local_hits == 2);
        assert_eq!(fetch.degraded, 0, "healthy cluster, no degraded fetches");
        // Second run on the same host: everything is local now.
        let again = builder.run_distributed(&cluster, "desk", "news").unwrap();
        let fetch = again.fetch.as_ref().unwrap();
        assert_eq!(fetch.local_hits, 2);
        assert_eq!(fetch.fetched, 0);
        assert_eq!(fetch.simulated_ms, 0);
    }

    #[test]
    fn run_distributed_survives_a_down_holder_and_reports_degradation() {
        let (cluster, _doc) = build_cluster();
        // Kill the publisher; RF 2 means a replica of every block and of
        // the document structure survives elsewhere.
        cluster.mark_down("server").unwrap();
        let run = PipelineBuilder::new(DeviceProfile::workstation())
            .run_distributed(&cluster, "desk", "news")
            .unwrap();
        assert!(run.is_presentable(), "conflicts: {}", run.conflicts);
        let fetch = run.fetch.as_ref().unwrap();
        assert_eq!(fetch.fetched + fetch.local_hits, 2, "nothing lost");
    }

    #[test]
    fn distributed_failures_surface_in_the_fetch_stage() {
        let (cluster, _doc) = build_cluster();
        let builder = PipelineBuilder::new(DeviceProfile::workstation());
        let err = builder
            .run_distributed(&cluster, "desk", "no-such-doc")
            .unwrap_err();
        assert_eq!(err.stage(), "fetch");
        assert!(matches!(err, PipelineError::Distrib { .. }));
        let err = builder
            .run_distributed(&cluster, "no-such-host", "news")
            .unwrap_err();
        assert_eq!(err.stage(), "fetch");
    }

    #[test]
    fn structure_only_run_needs_no_store() {
        let (doc, _store) = build_fixture();
        let (presentation, solve_result) =
            run_structure_only(&doc, &doc.catalog, &ScheduleOptions::default()).unwrap();
        assert_eq!(presentation.len(), 4);
        assert_eq!(solve_result.schedule.total_duration, TimeMs::from_secs(4));
    }
}
