//! `live_edit`: an author editing a 16-story broadcast while it plays.
//!
//! One document plays in a `PlayerSession` that ticks forward a seeded step
//! between edits. Each edit is drawn from a seeded mix of valid edits and
//! applied the way the engine's `run_job` applies one —
//! `EditSession::apply`, then `solve_result`, then `swap_revision` — so
//! the incremental repair sits beside `broadcast`'s cold solves. When a
//! presentation finishes, the next one starts from the current revision.
//!
//! The edit mix: insert a caption subtree (at most [`MAX_INSERTED`] live
//! at once, so the document's size stays bounded) or remove one inserted
//! earlier; retime an explicit arc; point an external leaf at another
//! descriptor of the same medium; move a caption between the `caption`
//! and `label` channels.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use cmif::core::descriptor::DescriptorCatalog;
use cmif::core::edit::{DocRevision, Edit, NodeSpec};
use cmif::core::node::NodeId;
use cmif::core::prelude::Symbol;
use cmif::core::time::TimeMs;
use cmif::core::tree::Document;
use cmif::scheduler::{
    ConstraintGraph, EditSession, JitterModel, PlaybackEvent, PlayerSession, ScheduleOptions,
    SchedulerError, SessionState, SolveResult,
};

use crate::corpus::{build_synthetic, synthetic, Rng};
use crate::report::{time_ms, Checks, Outcome, RunClock, Windows};
use crate::trace::{breakdown, Tracer};
use crate::Workload;

/// Stories in the edited broadcast.
const STORIES: usize = 16;
/// Inserted caption subtrees alive at once.
const MAX_INSERTED: usize = 8;
/// Edits between untimed checkpoints.
const CHECK_EVERY: u64 = 64;
/// Presentation time the session advances between edits, milliseconds.
const STEP_MS: (u64, u64) = (250, 2_500);
/// Startup jitter bound of the playback device, milliseconds.
const JITTER_MAX_MS: i64 = 40;
/// Edits of the warm-up run.
const WARMUP_EDITS: u64 = 64;

/// The live-edit workload's inputs after set-up.
pub struct LiveEdit {
    seed: u64,
    doc: Arc<Document>,
    catalog: DescriptorCatalog,
    captions: usize,
    graphics: usize,
}

/// Counters of a run.
#[derive(Debug, Default)]
struct EditTally {
    edits: u64,
    ticks: u64,
    presentations: u64,
    events: u64,
    must_violations: u64,
    reset_points: u64,
    updates: u64,
    replaced: u64,
    kinds: BTreeMap<&'static str, u64>,
}

/// One playing presentation and the authoring session editing it.
struct Live<'r> {
    resolver: &'r DescriptorCatalog,
    edits: EditSession<'r>,
    /// The last good revision and its solve (what is playing).
    good: DocRevision,
    solve: SolveResult,
    session: PlayerSession,
    now: i64,
    rng: Rng,
    jitter_seed: u64,
    /// Slots of inserted subtrees still in the document, with their roots.
    inserted: Vec<(usize, NodeId)>,
    free: Vec<usize>,
    /// Times of every event delivered in the current presentation.
    delivered: HashMap<NodeId, (TimeMs, Option<TimeMs>)>,
    captions: usize,
    graphics: usize,
}

fn cold_solve(doc: &Document, resolver: &DescriptorCatalog) -> Result<SolveResult, SchedulerError> {
    ConstraintGraph::derive(doc, resolver, &ScheduleOptions::default())?.solve(doc, resolver)
}

impl Workload for LiveEdit {
    const NAME: &'static str = "live_edit";
    const OP: &'static str = "edit";
    const TAIL: f64 = 0.99;

    /// Builds the broadcast and warms up on a short editing run.
    fn setup(seed: u64) -> Result<LiveEdit, String> {
        let mut rng = Rng::new(seed, 3_000);
        let captions = rng.range(3, 6) as usize;
        let graphics = rng.range(2, 4) as usize;
        let (doc, _) = build_synthetic(&synthetic(STORIES, captions, graphics, true))?;
        let catalog = doc.catalog.clone();
        let live = LiveEdit {
            seed,
            doc: Arc::new(doc),
            catalog,
            captions,
            graphics,
        };
        let mut warm = Outcome::default();
        let mut state = live.start(&mut warm.checks, 1)?;
        let mut tally = EditTally::default();
        let mut clock = RunClock::start();
        let mut t = Tracer::disabled();
        // Output checks belong to the measured run; the warm-up only has
        // to get through its edits.
        while tally.edits < WARMUP_EDITS && warm.failures.failed() == 0 {
            let _ = state.step(&mut t, &mut clock, &mut warm, &mut tally);
        }
        if warm.failures.failed() > 0 {
            return Err(format!("warm-up edits failed: {:?}", warm.failures.lines()));
        }
        Ok(live)
    }

    /// Untraced edits until `seconds` of run time have passed.
    fn measure(&mut self, seconds: f64) -> Outcome {
        let mut out = Outcome::default();
        let mut tally = EditTally::default();
        let mut state = match self.start(&mut out.checks, 2) {
            Ok(state) => state,
            Err(e) => {
                out.checks.check("start", Err(e));
                return out;
            }
        };
        let mut t = Tracer::disabled();
        let mut clock = RunClock::start();
        let mut windows = Windows::open(&clock);
        while clock.elapsed().as_secs_f64() < seconds {
            if state.step(&mut t, &mut clock, &mut out, &mut tally) {
                // A window per two checkpoint intervals: 128 edits, enough
                // for a p90 with ten samples beyond it.
                if tally.edits % (2 * CHECK_EVERY) == 0 {
                    out.windows.extend(windows.close(&clock, &out.latencies_ms));
                }
                clock.exclude(|| state.checkpoint(&mut out.checks));
            }
        }
        out.run_s = clock.elapsed().as_secs_f64();
        state.checkpoint(&mut out.checks);
        tally.provenance(&mut out);
        out
    }

    /// The traced run: the measured stream runs twice in lockstep — traced,
    /// and untraced as the overhead reference — and the two presentations
    /// must stay identical.
    fn trace(&mut self, seconds: f64) -> Outcome {
        let mut out = Outcome::default();
        let (mut tally, mut twin_tally) = (EditTally::default(), EditTally::default());
        let mut twin_out = Outcome::default();
        let states = (
            self.start(&mut out.checks, 2),
            self.start(&mut out.checks, 2),
        );
        let (Ok(mut state), Ok(mut twin)) = states else {
            out.checks
                .check("start", Err("could not start the presentation".into()));
            return out;
        };
        let mut t = Tracer::new();
        let mut untraced = Tracer::disabled();
        let (mut traced_clock, mut twin_clock) = (RunClock::start(), RunClock::start());
        let mut reference_ms = 0.0;
        let started = Instant::now();
        let mut request = 0;
        while started.elapsed().as_secs_f64() < seconds {
            request += 1;
            let due = t.request("live_edit.step", request, |t| {
                state.step(t, &mut traced_clock, &mut out, &mut tally)
            });
            let (_, ms) = time_ms(|| {
                twin.step(
                    &mut untraced,
                    &mut twin_clock,
                    &mut twin_out,
                    &mut twin_tally,
                )
            });
            reference_ms += ms;
            if due {
                state.checkpoint(&mut out.checks);
                out.checks.require(
                    "twin",
                    state.session.report_preview() == twin.session.report_preview(),
                    || "traced and untraced presentations diverged".to_string(),
                );
            }
        }
        state.checkpoint(&mut out.checks);

        crate::write_spans("live_edit", &t);
        let trace = match breakdown(t.spans()) {
            Ok(trace) => trace,
            Err(e) => {
                out.checks.check("trace sum", Err(e));
                return out;
            }
        };
        let edits = tally.edits.max(1) as f64;
        let per = |count: u64| count as f64 / edits;
        out.layers.extend([
            ("author.apply_us", trace.self_us(&["author.apply"]) / edits),
            (
                "author.solve_result_us",
                trace.self_us(&["author.solve_result"]) / edits,
            ),
            ("author.reset_points", per(tally.reset_points)),
            ("author.updates", per(tally.updates)),
            ("author.replaced", per(tally.replaced)),
            (
                "session.swap_us",
                trace.self_us(&["session.swap_revision"]) / edits,
            ),
            (
                "session.tick_us",
                trace.self_us(&["session.tick", "session.poll_events"]) / tally.ticks.max(1) as f64,
            ),
            (
                "session.new_us",
                trace.self_us(&["session.new"]) / tally.presentations.max(1) as f64,
            ),
            (
                "session.events",
                tally.events as f64 / tally.presentations.max(1) as f64,
            ),
            (
                "session.must_violations",
                tally.must_violations as f64 / tally.presentations.max(1) as f64,
            ),
            (
                "trace.unattributed_us",
                trace.unattributed_ns as f64 / 1e3 / edits,
            ),
            (
                "trace.overhead",
                trace.wall_ns as f64 / 1e6 / f64::max(reference_ms, f64::MIN_POSITIVE),
            ),
        ]);
        out.run_s = trace.wall_ns as f64 / 1e9;
        out.breakdown = Some(trace);
        tally.provenance(&mut out);
        out
    }
}

impl LiveEdit {
    /// A fresh presentation of the initial revision with its own edit
    /// stream (`stream` separates the warm-up from the measured run).
    fn start(&self, checks: &mut Checks, stream: u64) -> Result<Live<'_>, String> {
        let revision = DocRevision::initial(Arc::clone(&self.doc));
        let edits = EditSession::begin(revision.clone(), &self.catalog, ScheduleOptions::default())
            .map_err(|e| e.to_string())?;
        let solve = edits.solve_result().map_err(|e| e.to_string())?;
        checks.require(
            "incremental == cold",
            cold_solve(&self.doc, &self.catalog).ok().as_ref() == Some(&solve),
            || "opening solve differs from a cold solve".to_string(),
        );
        let jitter_seed = self.seed.wrapping_mul(31).wrapping_add(stream << 32);
        let session = PlayerSession::new(
            &self.doc,
            &solve,
            &self.catalog,
            &JitterModel::uniform(JITTER_MAX_MS, jitter_seed),
        )
        .map_err(|e| e.to_string())?;
        Ok(Live {
            resolver: &self.catalog,
            edits,
            good: revision,
            solve,
            session,
            now: 0,
            rng: Rng::new(self.seed, 3_100 + stream),
            jitter_seed,
            inserted: Vec::new(),
            free: (0..MAX_INSERTED).rev().collect(),
            delivered: HashMap::new(),
            captions: self.captions,
            graphics: self.graphics,
        })
    }
}

impl EditTally {
    fn provenance(&self, out: &mut Outcome) {
        out.provenance.extend([
            ("edits", self.edits as f64),
            ("ticks", self.ticks as f64),
            ("presentations", self.presentations as f64),
        ]);
        out.provenance
            .extend(self.kinds.iter().map(|(kind, n)| (*kind, *n as f64)));
    }
}

impl Live<'_> {
    /// Ticks the presentation forward, restarting it when it finished,
    /// then applies one edit. Returns true when a checkpoint is due.
    #[must_use]
    fn step(
        &mut self,
        t: &mut Tracer,
        clock: &mut RunClock,
        out: &mut Outcome,
        tally: &mut EditTally,
    ) -> bool {
        self.now += self.rng.range(STEP_MS.0, STEP_MS.1) as i64;
        let state = t.span("session.tick", |_| self.session.tick(self.now));
        let events = t.span("session.poll_events", |_| self.session.poll_events());
        tally.ticks += 1;
        clock.exclude(|| self.record(events));
        match out.failures.record("tick", state) {
            Some(SessionState::Finished) => self.restart(t, out, tally),
            Some(_) => {}
            None => return false,
        }

        let edit = clock.exclude(|| self.next_edit());
        let Some(edit) = edit else {
            out.checks
                .check("edit", Err("no edit could be drawn".into()));
            return false;
        };
        let (applied, ms) = time_ms(|| self.apply(t, &edit));
        match out.failures.record("edit", applied) {
            Some(()) => {
                out.latencies_ms.push(ms);
                tally.edits += 1;
                *tally.kinds.entry(edit.keyword()).or_default() += 1;
                let stats = self.edits.stats();
                tally.reset_points += stats.last_reset_points as u64;
                tally.updates += stats.last_updates as u64;
                tally.replaced += stats.last_replaced as u64;
                tally.edits % CHECK_EVERY == 0
            }
            None => {
                // A failed repair may poison the incremental fixpoint:
                // reopen from the last good revision.
                if let Ok(reopened) =
                    EditSession::begin(self.good.clone(), self.resolver, ScheduleOptions::default())
                {
                    self.edits = reopened;
                }
                false
            }
        }
    }

    /// `EditSession::apply`, `solve_result`, then `swap_revision` — the
    /// engine's order. Bookkeeping for inserted subtrees rides along.
    fn apply(&mut self, t: &mut Tracer, edit: &Edit) -> Result<(), SchedulerError> {
        let delta = t.span("author.apply", |_| self.edits.apply(edit));
        if let Edit::InsertSubtree { spec, .. } = edit {
            let slot = slot_of(spec.name());
            match delta.as_ref().ok().and_then(|d| d.inserted) {
                Some(node) => self.inserted.push((slot, node)),
                None => self.free.push(slot),
            }
        }
        delta?;
        let solve = t.span("author.solve_result", |_| self.edits.solve_result())?;
        let revision = self.edits.revision().clone();
        t.span("session.swap_revision", |_| {
            self.session
                .swap_revision(revision.doc(), &solve, self.resolver)
        })?;
        self.good = revision;
        self.solve = solve;
        Ok(())
    }

    /// Starts the next presentation from the current revision.
    fn restart(&mut self, t: &mut Tracer, out: &mut Outcome, tally: &mut EditTally) {
        let report = self.session.report_preview();
        tally.presentations += 1;
        tally.events += report.events.len() as u64;
        tally.must_violations += report.must_violations as u64;
        self.jitter_seed = self.jitter_seed.wrapping_add(1);
        let jitter = JitterModel::uniform(JITTER_MAX_MS, self.jitter_seed);
        let session = t.span("session.new", |_| {
            PlayerSession::new(self.good.doc(), &self.solve, self.resolver, &jitter)
        });
        if let Some(session) = out.failures.record("restart", session) {
            self.session = session;
            self.now = 0;
            self.delivered.clear();
        }
    }

    /// Remembers when delivered events happened, for the history check.
    fn record(&mut self, events: Vec<PlaybackEvent>) {
        for event in events {
            match event {
                PlaybackEvent::Started { node, at, .. } => {
                    self.delivered.insert(node, (at, None));
                }
                PlaybackEvent::Ended { node, at } => {
                    if let Some(entry) = self.delivered.get_mut(&node) {
                        entry.1 = Some(at);
                    }
                }
                _ => {}
            }
        }
    }

    /// The untimed checks: the incremental schedule equals a cold solve of
    /// the same revision, and no delivered event changed its times.
    fn checkpoint(&self, checks: &mut Checks) {
        let doc = self.good.doc();
        checks.require(
            "incremental == cold",
            cold_solve(doc, self.resolver).ok().as_ref() == Some(&self.solve),
            || format!("revision {} differs from a cold solve", doc.revision_id()),
        );
        let report = self.session.report_preview();
        let by_node: HashMap<NodeId, _> = report.events.iter().map(|e| (e.node, e)).collect();
        for (node, (begin, end)) in &self.delivered {
            let holds = by_node.get(node).is_some_and(|event| {
                event.actual_begin == *begin && end.map_or(true, |end| event.actual_end == end)
            });
            checks.require("history", holds, || {
                let now = by_node
                    .get(node)
                    .map(|event| (event.actual_begin, event.actual_end));
                format!("delivered event {node} was rewritten: delivered ({begin:?}, {end:?}), now {now:?}")
            });
        }
    }

    /// Draws the next edit from the seeded mix.
    fn next_edit(&mut self) -> Option<Edit> {
        let doc = Arc::clone(self.edits.revision().doc());
        let story = self.rng.below(STORIES);
        let find = |path: String| doc.find(&path).ok();
        let roll = self.rng.below(100);
        let insert = (roll < 30 && !self.free.is_empty())
            || (roll < 50 && self.inserted.is_empty() && !self.free.is_empty());
        let remove = roll < 50 && !insert && !self.inserted.is_empty();
        Some(if insert {
            let parent = find(format!("/story-{story}"))?;
            let slot = self.free.pop()?;
            let lines = 1 + self.rng.below(2);
            let children = (0..lines)
                .map(|line| {
                    NodeSpec::imm_text(format!("line-{line}"), "breaking update")
                        .on_channel("caption")
                        .lasting_ms(self.rng.range(1_000, 4_000) as i64)
                })
                .collect();
            Edit::InsertSubtree {
                parent,
                spec: NodeSpec::seq(format!("late-{slot}"), children),
            }
        } else if remove {
            let (slot, node) = self
                .inserted
                .swap_remove(self.rng.below(self.inserted.len()));
            self.free.push(slot);
            Edit::RemoveSubtree { node }
        } else if roll < 70 {
            Edit::RetimeArc {
                index: self.rng.below(doc.arcs().len().max(1)),
                min_delay_ms: 0,
                max_delay_ms: Some(self.rng.range(100, 2_000) as i64),
                offset_ms: Some(self.rng.range(0, 1_500) as i64),
            }
        } else if roll < 85 {
            let other = self.rng.below(STORIES);
            if self.rng.below(2) == 0 {
                Edit::SwapDescriptor {
                    node: find(format!("/story-{story}/narration"))?,
                    file: format!("s{other}/audio"),
                }
            } else {
                let graphic = self.rng.below(self.graphics);
                Edit::SwapDescriptor {
                    node: find(format!("/story-{story}/graphics/graphic-{graphic}"))?,
                    file: format!("s{other}/graphic-{}", self.rng.below(self.graphics)),
                }
            }
        } else {
            let caption = self.rng.below(self.captions);
            let node = find(format!("/story-{story}/captions/caption-{caption}"))?;
            let current = doc.channel_of(node).ok().flatten();
            let channel = if current == Some(Symbol::intern("caption")) {
                "label"
            } else {
                "caption"
            };
            Edit::AssignChannel {
                node,
                channel: Symbol::intern(channel),
            }
        })
    }
}

/// The slot number encoded in an inserted subtree's name (`late-<slot>`).
fn slot_of(name: &str) -> usize {
    name.trim_start_matches("late-").parse().unwrap_or(0)
}
