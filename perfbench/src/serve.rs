//! The Figure 1 serving path, called one layer function at a time.
//!
//! [`PipelineBuilder::run_distributed`] and [`PipelineBuilder::run_wire`]
//! are what a presentation server calls; the untraced runs call exactly
//! those. The traced run instead calls the functions they are made of, in
//! the same order and with the same arguments, wrapping each call in a
//! span:
//!
//! `fetch_document → fetch_blocks_for_traced → check_resolved →
//! map_presentation → plan_filters → derive → solve → full_report →
//! table_of_contents + storyboard → export_catalog → submit_batch → wait`
//!
//! [`Served`] holds what the decomposition produced, and
//! [`Served::matches`] proves it equal to the builder's [`PipelineRun`] for
//! the same request, so the per-layer times describe the path the
//! end-to-end numbers measure.

use std::collections::BTreeSet;
use std::sync::Arc;

use cmif::core::descriptor::DescriptorResolver;
use cmif::core::diag::Diagnostic;
use cmif::core::prelude::Symbol;
use cmif::core::tree::Document;
use cmif::distrib::{referenced_keys, DistributedStore, FetchReport};
use cmif::lint::Linter;
use cmif::media::BlockStore;
use cmif::pipeline::{
    map_presentation, plan_filters, storyboard, table_of_contents, DeviceProfile, FilterPlan,
    PipelineBuilder, PipelineError, PipelineRun, PresentationMap, StoryboardFrame,
};
use cmif::scheduler::{
    full_report, ConflictReport, ConstraintGraph, Engine, EngineConfig, JitterModel,
    PlaybackReport, PlayerSession, ScheduleOptions, SolveResult, Submission, TenantId,
};

use crate::report::{time_ms, Checks};
use crate::trace::{Breakdown, Tracer};

/// Storyboard step of a default [`PipelineBuilder`], milliseconds.
const STORYBOARD_STEP_MS: i64 = 1_000;

/// The serving configuration one workload uses, shared by the builder the
/// untraced path drives and the decomposition the traced path calls, so
/// the two cannot drift apart.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Target device.
    pub device: DeviceProfile,
    /// Playback jitter of the first stage-5c run (later runs add the run
    /// index to the seed, as the builder does).
    pub jitter: JitterModel,
    /// Stage-5c sessions per document.
    pub playback_runs: u32,
    /// Stage-5c engine workers.
    pub playback_workers: usize,
}

impl ServeConfig {
    /// The builder a presentation server would configure.
    pub fn builder(&self, linter: &Linter) -> PipelineBuilder {
        PipelineBuilder::new(self.device.clone())
            .jitter(self.jitter.clone())
            .playback_runs(self.playback_runs)
            .playback_workers(self.playback_workers)
            .lint(linter.clone())
    }

    /// An engine configured like the builder's stage-5c engine.
    pub fn engine(&self, workers: usize) -> Engine {
        Engine::new(EngineConfig {
            workers,
            options: ScheduleOptions::default(),
            ..EngineConfig::default()
        })
    }

    /// The jitter of stage-5c run `run`.
    pub fn run_jitter(&self, run: u32) -> JitterModel {
        JitterModel {
            seed: self.jitter.seed.wrapping_add(u64::from(run)),
            ..self.jitter.clone()
        }
    }
}

/// What the decomposed path produced for one request.
#[derive(Debug, Clone)]
pub struct Served {
    /// The document as served (decoded or fetched).
    pub doc: Arc<Document>,
    /// Stage 3.
    pub presentation: PresentationMap,
    /// Stage 4.
    pub filter_plan: FilterPlan,
    /// Stage 5a schedule.
    pub solve: Arc<SolveResult>,
    /// Event points of the derived constraint graph.
    pub points: usize,
    /// Stage 5a conflicts.
    pub conflicts: ConflictReport,
    /// Stage 5b reading view.
    pub table_of_contents: String,
    /// Stage 5b viewing view.
    pub storyboard: Vec<StoryboardFrame>,
    /// Stage 5c report of the last run.
    pub playback: Option<PlaybackReport>,
    /// How the media arrived (distributed requests only).
    pub fetch: Option<FetchReport>,
    /// Warn-severity lint findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl Served {
    /// Proves the decomposition equal to the builder's run of the same
    /// request: schedule, conflicts, views, playback and fetch report.
    pub fn matches(&self, run: &PipelineRun) -> Result<(), String> {
        let mut differs = Vec::new();
        if self.presentation != run.presentation {
            differs.push("presentation map");
        }
        if self.filter_plan != run.filter_plan {
            differs.push("filter plan");
        }
        if *self.solve != run.solve {
            differs.push("schedule");
        }
        if self.conflicts != run.conflicts {
            differs.push("conflicts");
        }
        if self.table_of_contents != run.table_of_contents {
            differs.push("table of contents");
        }
        if self.storyboard != run.storyboard {
            differs.push("storyboard");
        }
        if self.playback != run.playback {
            differs.push("playback report");
        }
        if self.fetch != run.fetch {
            differs.push("fetch report");
        }
        if self.diagnostics != run.diagnostics {
            differs.push("diagnostics");
        }
        if differs.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "decomposed path differs from PipelineBuilder in: {}",
                differs.join(", ")
            ))
        }
    }
}

/// `run_distributed`, decomposed: fetch the structure and every referenced
/// block to `host`, then serve from the host's shard.
pub fn serve_distributed(
    t: &mut Tracer,
    cluster: &DistributedStore,
    host: &str,
    name: &str,
    cfg: &ServeConfig,
    linter: &Linter,
    engine: &Engine,
) -> Result<Served, PipelineError> {
    let doc = t
        .span("distrib.fetch_document", |_| {
            cluster.fetch_document(host, name)
        })
        .map_err(PipelineError::from)?;
    let keys: BTreeSet<Symbol> = t.span("distrib.referenced_keys", |_| {
        referenced_keys(&doc, None).into_iter().collect()
    });
    let fetch = t
        .span("distrib.fetch_blocks_for_traced", |_| {
            cluster.fetch_blocks_for_traced(host, &keys)
        })
        .map_err(PipelineError::from)?;
    let store = t
        .span("distrib.local_store", |_| cluster.local_store(host))
        .map_err(PipelineError::from)?;
    // `run_distributed` hands a borrowed tree to `run`, whose stage 5c
    // clones it into an `Arc`; the decomposition pays the same clone.
    let mut served = serve_stages(t, Source::Borrowed(&doc), store, cfg, linter, engine)?;
    served.fetch = Some(fetch);
    Ok(served)
}

/// `run_wire`, decomposed: decode the bytes, then serve from `store`.
pub fn serve_wire(
    t: &mut Tracer,
    bytes: &[u8],
    store: &BlockStore,
    cfg: &ServeConfig,
    linter: &Linter,
    engine: &Engine,
) -> Result<Served, PipelineError> {
    let (doc, _encoding) = t
        .span("format.read_document_bytes", |_| {
            cmif::format::read_document_bytes(bytes)
        })
        .map_err(PipelineError::from)?;
    serve_stages(t, Source::Shared(Arc::new(doc)), store, cfg, linter, engine)
}

/// How stage 5c gets shared ownership of the document.
enum Source<'a> {
    /// Cloned into a fresh `Arc` at stage 5c (`PipelineBuilder::run`).
    Borrowed(&'a Document),
    /// Already shared (`PipelineBuilder::run_shared`).
    Shared(Arc<Document>),
}

/// Stages 2–5 of `PipelineBuilder::run_inner`, one span per layer call.
fn serve_stages(
    t: &mut Tracer,
    source: Source<'_>,
    store: &BlockStore,
    cfg: &ServeConfig,
    linter: &Linter,
    engine: &Engine,
) -> Result<Served, PipelineError> {
    let doc: &Document = match &source {
        Source::Borrowed(doc) => doc,
        Source::Shared(doc) => doc,
    };
    let schedule = ScheduleOptions::default();

    let report = t.span("lint.check_resolved", |_| {
        linter
            .clone()
            .with_options(schedule)
            .check_resolved(doc, store)
    });
    if report.has_deny() {
        return Err(PipelineError::Lint {
            stage: "structure",
            diagnostics: report.into_diagnostics(),
        });
    }
    let diagnostics = report.into_diagnostics();

    let presentation = t
        .span("pipeline.map_presentation", |_| map_presentation(doc))
        .map_err(|e| e.in_stage("presentation"))?;
    let filter_plan = t
        .span("pipeline.plan_filters", |_| {
            plan_filters(doc, store, &cfg.device)
        })
        .map_err(|e| e.in_stage("filtering"))?;

    let scheduling = |e| PipelineError::from(e).in_stage("scheduling");
    let mut graph = t
        .span("graph.derive", |_| {
            ConstraintGraph::derive(doc, store, &schedule)
        })
        .map_err(scheduling)?;
    let points = graph.point_count();
    let solve = Arc::new(
        t.span("graph.solve", |_| graph.solve(doc, store))
            .map_err(scheduling)?,
    );
    let conflicts = t
        .span("conflict.full_report", |_| {
            full_report(doc, &solve, store, Some(&cfg.device.limits()))
        })
        .map_err(scheduling)?;

    let toc = t
        .span("pipeline.table_of_contents", |_| {
            table_of_contents(doc, &solve.schedule)
        })
        .map_err(|e| e.in_stage("viewing"))?;
    let frames = t
        .span("pipeline.storyboard", |_| {
            storyboard(
                doc,
                &solve.schedule,
                &presentation,
                Some(&filter_plan),
                STORYBOARD_STEP_MS,
                store,
            )
        })
        .map_err(|e| e.in_stage("viewing"))?;

    // Every workload plays at least one run, so stage 5c always runs.
    let catalog: Arc<dyn DescriptorResolver + Send + Sync> =
        Arc::new(t.span("media.export_catalog", |_| store.export_catalog()));
    let (doc, playback) = t.span("engine.stage5c", |t| {
        let doc = match &source {
            Source::Borrowed(doc) => Arc::new((*doc).clone()),
            Source::Shared(doc) => Arc::clone(doc),
        };
        let playback = stage5c(t, Arc::clone(&doc), catalog, &solve, cfg, engine)?;
        Ok::<_, PipelineError>((doc, playback))
    })?;
    Ok(Served {
        doc,
        presentation,
        filter_plan,
        solve,
        points,
        conflicts,
        table_of_contents: toc,
        storyboard: frames,
        playback,
        fetch: None,
        diagnostics,
    })
}

/// Stage 5c: admit every playback run in one batch, then collect each
/// outcome by its ticket; the last run's report is the run's report.
fn stage5c(
    t: &mut Tracer,
    doc: Arc<Document>,
    catalog: Arc<dyn DescriptorResolver + Send + Sync>,
    solve: &Arc<SolveResult>,
    cfg: &ServeConfig,
    engine: &Engine,
) -> Result<Option<PlaybackReport>, PipelineError> {
    let submissions = (0..cfg.playback_runs).map(|run| {
        Submission::new(Arc::clone(&doc), cfg.run_jitter(run))
            .tenant(TenantId::DEFAULT)
            .resolver(Arc::clone(&catalog))
            .solved(Arc::clone(solve))
    });
    let ids = t
        .span("engine.submit_batch", |_| engine.submit_batch(submissions))
        .map_err(|e| PipelineError::from(e).in_stage("playback"))?;
    let mut last = None;
    let mut job_error = None;
    for id in ids {
        match t.span("engine.wait", |_| engine.wait(id)).result {
            Ok(report) => last = Some(report),
            Err(e) => {
                job_error.get_or_insert(e);
            }
        }
    }
    match job_error {
        Some(e) => Err(PipelineError::from(e).in_stage("playback")),
        None => Ok(last),
    }
}

/// Plays `doc` on the client thread exactly as an engine job does —
/// `PlayerSession::new`, eight ticks spanning the presentation, then
/// `run_to_completion` — and returns the report. The side probe behind
/// `session.play_us`: it times the session layer without the engine.
pub fn play_directly(
    doc: &Document,
    solve: &SolveResult,
    resolver: &dyn DescriptorResolver,
    jitter: &JitterModel,
) -> Result<PlaybackReport, String> {
    const TICKS: i64 = 8;
    let mut session =
        PlayerSession::new(doc, solve, resolver, jitter).map_err(|e| e.to_string())?;
    let total = session.total_duration().as_millis();
    for step in 1..=TICKS {
        session
            .tick(total * step / TICKS)
            .map_err(|e| e.to_string())?;
        session.poll_events();
    }
    Ok(session.run_to_completion())
}

/// Counters read off the served results of a traced run, plus the
/// session side probe.
#[derive(Debug, Default)]
pub struct ServedTally {
    /// Requests served by both paths.
    pub requests: u64,
    findings: u64,
    constraints: u64,
    points: u64,
    frames: u64,
    events: u64,
    must_violations: u64,
    play_ms: f64,
}

impl ServedTally {
    /// Checks one request's decomposed result against the builder's run,
    /// replays its last playback run on this thread (the `session.play_us`
    /// probe, outside the stage sum) and counts what it produced.
    pub fn add(
        &mut self,
        checks: &mut Checks,
        served: &Served,
        run: &PipelineRun,
        resolver: &dyn DescriptorResolver,
        cfg: &ServeConfig,
    ) {
        checks.check("fidelity", served.matches(run));
        let jitter = cfg.run_jitter(cfg.playback_runs.saturating_sub(1));
        let (direct, ms) = time_ms(|| play_directly(&served.doc, &served.solve, resolver, &jitter));
        self.play_ms += ms;
        checks.require("session probe", direct.ok() == served.playback, || {
            "direct playback differs from stage 5c".to_string()
        });
        self.requests += 1;
        self.findings += served.diagnostics.len() as u64;
        self.constraints += served.solve.constraints.len() as u64;
        self.points += served.points as u64;
        self.frames += served.storyboard.len() as u64;
        if let Some(report) = &served.playback {
            self.events += report.events.len() as u64;
            self.must_violations += report.must_violations as u64;
        }
    }

    /// Per-layer metrics of the serving path, per request: stage self
    /// times in µs and work counts.
    pub fn layers(
        &self,
        trace: &Breakdown,
        engine: &Engine,
        linter: &Linter,
    ) -> Vec<(&'static str, f64)> {
        let per = self.requests.max(1) as f64;
        let us = |names: &[&str]| trace.self_us(names) / per;
        let queue = engine.queue_stats();
        let latency = engine
            .tenant_stats()
            .first()
            .map_or(0.0, |row| row.mean_latency_ms);
        let (hits, misses) = linter.cache_stats();
        vec![
            ("media.export_catalog_us", us(&["media.export_catalog"])),
            ("lint.check_us", us(&["lint.check_resolved"])),
            ("lint.cache_hit_ratio", share(hits, hits + misses)),
            ("lint.findings_per_doc", self.findings as f64 / per),
            ("graph.derive_us", us(&["graph.derive"])),
            ("graph.solve_us", us(&["graph.solve"])),
            ("graph.constraints", self.constraints as f64 / per),
            ("graph.points", self.points as f64 / per),
            ("conflict.report_us", us(&["conflict.full_report"])),
            ("pipeline.present_us", us(&["pipeline.map_presentation"])),
            ("pipeline.filter_us", us(&["pipeline.plan_filters"])),
            (
                "pipeline.view_us",
                us(&["pipeline.table_of_contents", "pipeline.storyboard"]),
            ),
            ("pipeline.frames", self.frames as f64 / per),
            ("engine.admit_us", us(&["engine.submit_batch"])),
            (
                "engine.stage5c_us",
                trace.stage("engine.stage5c").total_ns as f64 / 1e3 / per,
            ),
            ("engine.wait_us", us(&["engine.wait"])),
            ("engine.steal_ratio", queue.steal_ratio()),
            ("engine.refills_per_doc", queue.refills as f64 / per),
            ("engine.latency_ms", latency),
            ("session.play_us", self.play_ms * 1e3 / per),
            ("session.events", self.events as f64 / per),
            ("session.must_violations", self.must_violations as f64 / per),
        ]
    }
}

/// `part / whole`, zero for an empty whole.
pub fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}
