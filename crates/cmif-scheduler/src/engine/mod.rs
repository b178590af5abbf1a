//! The multi-document, multi-tenant scheduling engine.
//!
//! The one-shot entry points processed one document per call and rebuilt
//! all state each time — a dead end for a server that must multiplex many
//! cheap client sessions over shared worker state (Gray's *Locally Served
//! Network Computers* argument). [`Engine`] is that server side: it admits
//! N documents, schedules and plays them concurrently, and returns one
//! [`PlaybackReport`] per document.
//!
//! Jobs are played by a fixed pool of worker threads *and* by the callers
//! waiting for outcomes. A caller blocked in [`Engine::wait`] or
//! [`Engine::drain`] takes the next queued job in dispatch order and plays
//! it on its own thread; it sleeps only when nothing is queued. The same
//! trade as Gray's: do the work where the request already is, rather than
//! pay a thread hand-off to move it. A waiter plays *any* queued job, not
//! only its own, so per-tenant FIFO order and the stride weights hold
//! whoever plays; it re-checks its own outcome after every job, so a
//! foreign job delays it by at most that one job.
//!
//! The run queue is hand-rolled on `std::sync::{Mutex, Condvar}` (no
//! registry access, so no tokio) and is one **tenant plane** (`tenant`):
//! one mutex holding a FIFO per [`TenantId`], dispatched by stride
//! scheduling so a noisy tenant with 10 000 queued documents cannot delay
//! a tenant submitting one, plus the token-bucket admission quotas and the
//! FIFO admission ticket gate (`ticket`). Workers and waiting callers take
//! the next job in weighted-fair order from it, one job per plane-lock
//! transaction, so dispatch follows the stride order exactly;
//! [`Engine::submit_batch`] admits N jobs under one transaction.
//!
//! Three calls admit work — [`Engine::admit`] (blocking),
//! [`Engine::try_admit`] (non-blocking) and [`Engine::submit_batch`] (N
//! submissions in one transaction) — and all three run one admission
//! path: lint gate, closed check, capacity, then quota and admission
//! under one lock.
//!
//! A job can only fail *as itself*: a document whose constraints are
//! unsatisfiable is rejected with [`SchedulerError::ConstraintCycle`] as
//! its outcome, and a job that *panics* is contained by `catch_unwind`
//! into a [`SchedulerError::JobPanicked`] outcome. Either way the thread
//! that played it — worker or waiting caller — keeps going and
//! `drain()`/`wait()` terminate.
//!
//! Admission is controlled on two axes:
//!
//! * **capacity** — with [`EngineConfig::max_backlog`] set, a full queue
//!   makes [`Engine::admit`] and [`Engine::submit_batch`] block until a
//!   worker takes a job or a job a waiting caller played completes, while
//!   [`Engine::try_admit`] refuses immediately with
//!   [`SchedulerError::Backpressure`]. Blocked submitters hold FIFO
//!   tickets: they are admitted in *arrival order*, however the condvar
//!   orders its wakeups.
//! * **policy** — a tenant with a [`QuotaConfig`] is refused with
//!   [`SchedulerError::QuotaExceeded`] (telling it when to retry) once its
//!   token bucket runs dry. Every admission, single or batch, is charged
//!   at the moment it is admitted, after any capacity wait; quota refusals
//!   are never queued.
//!
//! [`Engine::close`] stops admission (further admissions get
//! [`SchedulerError::EngineClosed`]) while the backlog already admitted
//! keeps draining — on the workers and on any caller still waiting.
//!
//! Determinism: each submission carries its own seeded [`JitterModel`], so
//! the report produced for a document is identical whether it played alone
//! or next to 63 concurrent siblings — and regardless of which thread
//! played it.
//!
//! **Live edits.** Every admitted document owns an edit mailbox for its
//! whole engine lifetime. [`Engine::apply_edit`] routes a
//! [`cmif_core::edit::Edit`] into that mailbox from any thread; the thread
//! playing the document drains it before solving and again at every tick
//! boundary. Every edit advances the document's revision
//! ([`cmif_core::edit::DocRevision::apply`]). Edits drained before the
//! solve fold into the revision it schedules; at a boundary, each edit's
//! revision is re-solved cold ([`ConstraintGraph::derive`] + `solve`) and
//! the playing session swaps onto it
//! ([`crate::session::PlayerSession::swap_revision`]), and an edit that
//! fails either step leaves the document on its last revision. Each routed
//! edit is accounted for exactly once in [`DocOutcome::edits`] — applied,
//! refused, or rejected because it arrived after the document completed.

mod tenant;
mod ticket;

pub use tenant::{QuotaConfig, TenantId, TenantPolicy, TenantStatsSnapshot};

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use cmif_core::descriptor::DescriptorResolver;
use cmif_core::diag::{Diagnostic, SeverityConfig};
use cmif_core::edit::{DocRevision, Edit};
use cmif_core::time::TimeMs;
use cmif_core::tree::Document;

use crate::environment::JitterModel;
use crate::error::{Result, SchedulerError};
use crate::graph::ConstraintGraph;
use crate::player::PlaybackReport;
use crate::session::PlayerSession;
use crate::solver::SolveResult;
use crate::types::ScheduleOptions;

use self::tenant::{LatencyStats, TenantRunQueue};
use self::ticket::TicketGate;

/// Test-only fault injection: runs at the start of every job with the
/// job's label. A panic raised here is deliberately indistinguishable from
/// a panic inside scheduling or playback — the panic-containment
/// regression tests use it to wedge or kill specific jobs on demand.
/// Production code has no reason to install one.
#[doc(hidden)]
#[derive(Clone)]
pub struct JobHook(Arc<dyn Fn(&str) + Send + Sync>);

impl JobHook {
    /// Wraps a closure as a job hook.
    pub fn new(hook: impl Fn(&str) + Send + Sync + 'static) -> JobHook {
        JobHook(Arc::new(hook))
    }

    fn fire(&self, label: &str) {
        (self.0)(label)
    }
}

impl fmt::Debug for JobHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JobHook(..)")
    }
}

/// Admission-time static analysis, installed via
/// [`EngineConfig::lint_gate`].
///
/// The gate wraps a callback so the scheduler does not depend on the lint
/// crate that sits above it: `cmif-lint` provides the canonical constructor
/// (`cmif_lint::admission_gate`). The callback receives the document, the
/// descriptor resolver its job will resolve against (the submission's
/// [`Submission::resolver`], else the document's own catalog) and an
/// optional per-submission [`SeverityConfig`] override
/// ([`LintPolicy::Configured`]), and returns every diagnostic it collected;
/// any deny-severity diagnostic refuses the submission with
/// [`SchedulerError::LintRejected`] **before** the plane lock is taken, a
/// quota token charged, or a worker costed.
#[derive(Clone)]
pub struct LintGate {
    check: Arc<GateCheck>,
}

/// The callback shape a [`LintGate`] wraps: document, the resolver its job
/// uses and an optional per-submission severity override, out come the
/// collected diagnostics.
type GateCheck = dyn Fn(&Document, &dyn DescriptorResolver, Option<&SeverityConfig>) -> Vec<Diagnostic>
    + Send
    + Sync;

impl LintGate {
    /// Wraps a diagnostic-collecting callback as an admission gate.
    pub fn new(
        check: impl Fn(&Document, &dyn DescriptorResolver, Option<&SeverityConfig>) -> Vec<Diagnostic>
            + Send
            + Sync
            + 'static,
    ) -> LintGate {
        LintGate {
            check: Arc::new(check),
        }
    }

    /// Runs the gate under the submission's policy, resolving descriptors
    /// against the document's own catalog. `Ok(())` admits;
    /// [`SchedulerError::LintRejected`] carries every collected diagnostic.
    pub fn inspect(&self, doc: &Document, policy: &LintPolicy) -> Result<()> {
        self.inspect_resolved(doc, &doc.catalog, policy)
    }

    /// [`LintGate::inspect`] against an external descriptor resolver — the
    /// one a store-backed document's job resolves against. The engine
    /// inspects every submission this way.
    pub fn inspect_resolved(
        &self,
        doc: &Document,
        resolver: &dyn DescriptorResolver,
        policy: &LintPolicy,
    ) -> Result<()> {
        let config = match policy {
            LintPolicy::Skip => return Ok(()),
            LintPolicy::Default => None,
            LintPolicy::Configured(config) => Some(config),
        };
        let diagnostics = (self.check)(doc, resolver, config);
        if diagnostics.iter().any(Diagnostic::is_deny) {
            return Err(SchedulerError::LintRejected { diagnostics });
        }
        Ok(())
    }
}

impl fmt::Debug for LintGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("LintGate(..)")
    }
}

/// How one [`Submission`] interacts with the engine's lint gate.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum LintPolicy {
    /// Run the gate with its own severity configuration.
    #[default]
    Default,
    /// Bypass the gate for this submission (pre-linted documents, e.g. the
    /// pipeline's, which already passed stage 2).
    Skip,
    /// Run the gate with this severity configuration instead of its own.
    Configured(SeverityConfig),
}

/// Configuration of an [`Engine`]. Tenant policies are not part of it:
/// set them with [`Engine::set_tenant_policy`] (untagged work runs as
/// [`TenantId::DEFAULT`]); a tenant never configured gets
/// [`TenantPolicy::default`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of worker threads. Zero is clamped to one.
    pub workers: usize,
    /// Scheduling policy applied to every admitted document.
    pub options: ScheduleOptions,
    /// Maximum number of admitted-but-unstarted documents (counting jobs
    /// a waiting caller is playing: such a job keeps its slot until its
    /// outcome publishes). `None` (the default) admits without bound — a
    /// fast producer can then grow the queue faster than the workers drain
    /// it. With `Some(k)`, a full queue makes [`Engine::admit`] and
    /// [`Engine::submit_batch`] block (FIFO, see
    /// [`Engine::waiting_submitters`]) until a worker takes a job or a job
    /// a caller played completes, and [`Engine::try_admit`] return
    /// [`SchedulerError::Backpressure`] immediately; a batch larger than
    /// `k` is refused. `Some(0)` is treated as `Some(1)`: jobs reach
    /// workers only through the queue, so a zero-slot queue would deadlock
    /// every blocking admission.
    pub max_backlog: Option<usize>,
    /// Admission-time static analysis: when set, every submission is
    /// checked **before** it takes the plane lock or charges a quota
    /// token, and documents with deny-severity findings are refused with
    /// [`SchedulerError::LintRejected`]. `None` (the default) admits
    /// everything unchecked. See [`LintGate`] and [`Submission::lint`].
    pub lint_gate: Option<LintGate>,
    /// Test-only fault injection; see [`JobHook`]. Leave `None`.
    #[doc(hidden)]
    pub job_hook: Option<JobHook>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(1),
            options: ScheduleOptions::default(),
            max_backlog: None,
            lint_gate: None,
            job_hook: None,
        }
    }
}

/// Identifier of one admitted document, in admission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub(crate) u64);

impl std::fmt::Display for DocId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "doc#{}", self.0)
    }
}

/// A mailbox of live edits routed to one admitted document
/// ([`Engine::apply_edit`]), drained by the thread playing the document
/// at tick boundaries. A leaf lock: it may be taken while holding any
/// engine lock, and no other lock is ever taken while it is held.
type Mailbox = Arc<Mutex<Vec<Edit>>>;

/// The fate of one live edit routed through [`Engine::apply_edit`],
/// reported in [`DocOutcome::edits`] in the order the thread playing the
/// document processed them.
#[derive(Debug, Clone)]
pub struct EditOutcome {
    /// The edit as routed.
    pub edit: Edit,
    /// The presentation time (tick boundary) at which the player processed
    /// the edit; [`TimeMs::ZERO`] when it was folded into the document
    /// before playback began — or never reached a running session at all.
    pub at: TimeMs,
    /// `Ok(())` when the revision applied and the playing session swapped
    /// onto it; otherwise the validation or re-solve error that refused it
    /// (the document keeps playing its previous revision), or
    /// [`SchedulerError::EditRejected`] when the edit arrived too late to
    /// be applied.
    pub result: Result<()>,
}

/// The engine's verdict on one admitted document.
#[derive(Debug, Clone)]
pub struct DocOutcome {
    /// The admission ticket the outcome belongs to.
    pub id: DocId,
    /// The tenant the document was submitted under.
    pub tenant: TenantId,
    /// The label given at submission.
    pub label: String,
    /// The playback report, or the scheduler error that made the engine
    /// reject the document — including [`SchedulerError::JobPanicked`]
    /// when the job panicked (its worker survives either way).
    pub result: Result<PlaybackReport>,
    /// One entry per live edit routed to this document
    /// ([`Engine::apply_edit`]), in processing order. Empty for documents
    /// never edited.
    pub edits: Vec<EditOutcome>,
}

impl DocOutcome {
    /// True when the document played to completion.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// One admission request: a document plus its playback context, handed to
/// [`Engine::admit`], [`Engine::try_admit`] or [`Engine::submit_batch`].
///
/// [`Submission::new`] takes the document and its jitter model; the
/// builder methods add a label, a descriptor resolver other than the
/// document's own catalog (the pipeline submits against a snapshot of its
/// block store so materialised degradations are what the sessions see), a
/// [`Submission::tenant`] so the engine's fair scheduler and quotas know
/// whose work this is, a precomputed solve, or a lint policy.
#[derive(Clone)]
pub struct Submission {
    doc: Arc<Document>,
    jitter: JitterModel,
    tenant: TenantId,
    label: Option<String>,
    resolver: Option<Arc<dyn DescriptorResolver + Send + Sync>>,
    solve: Option<Arc<SolveResult>>,
    lint: LintPolicy,
}

impl Submission {
    /// A submission resolving descriptors from the document's own catalog,
    /// owned by [`TenantId::DEFAULT`].
    pub fn new(doc: impl Into<Arc<Document>>, jitter: JitterModel) -> Submission {
        Submission {
            doc: doc.into(),
            jitter,
            tenant: TenantId::DEFAULT,
            label: None,
            resolver: None,
            solve: None,
            lint: LintPolicy::default(),
        }
    }

    /// Sets the label used in reports and logs (default: the ticket id).
    pub fn labeled(mut self, label: impl Into<String>) -> Submission {
        self.label = Some(label.into());
        self
    }

    /// Attributes the document to `tenant`: its dispatch order follows the
    /// tenant's fair-queuing weight, its admission counts against the
    /// tenant's quota, and its outcome lands in the tenant's stats row.
    pub fn tenant(mut self, tenant: TenantId) -> Submission {
        self.tenant = tenant;
        self
    }

    /// Resolves descriptors through `resolver` instead of the document's
    /// catalog.
    pub fn resolver(mut self, resolver: Arc<dyn DescriptorResolver + Send + Sync>) -> Submission {
        self.resolver = Some(resolver);
        self
    }

    /// Supplies a precomputed solve result, so the job skips its own
    /// derive + solve pass and goes straight to playback — the pipeline
    /// submits the stage-5a result this way, and N submissions of one
    /// solved document share the `Arc`. The result must belong to this
    /// document: playback over a mismatched solve fails with the usual
    /// typed `UnscheduledNode` outcome, never a panic.
    pub fn solved(mut self, solve: impl Into<Arc<SolveResult>>) -> Submission {
        self.solve = Some(solve.into());
        self
    }

    /// Sets how this submission interacts with the engine's lint gate
    /// (when [`EngineConfig::lint_gate`] is set): bypass it, or override
    /// its severity configuration. The default runs the gate as
    /// configured. Without a gate the policy is ignored.
    pub fn lint(mut self, policy: LintPolicy) -> Submission {
        self.lint = policy;
        self
    }
}

impl fmt::Debug for Submission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Submission")
            .field("doc", &Arc::as_ptr(&self.doc))
            .field("jitter", &self.jitter)
            .field("tenant", &self.tenant)
            .field("label", &self.label)
            .field(
                "resolver",
                &self.resolver.as_ref().map(|_| "<custom resolver>"),
            )
            .field("solve", &self.solve.as_ref().map(|_| "<precomputed>"))
            .field("lint", &self.lint)
            .finish()
    }
}

/// How queued jobs reached the threads that played them. Snapshot via
/// [`Engine::queue_stats`]; both counters are cumulative since engine
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Jobs worker threads took off the run queue, one plane-lock
    /// transaction each (perfbench's `engine.refills_per_doc`).
    pub refills: u64,
    /// Jobs callers waiting in [`Engine::wait`] or [`Engine::drain`] took
    /// off the run queue and played on their own threads.
    pub helped: u64,
}

impl QueueStats {
    /// Total jobs dispatched so far, to workers and to waiting callers.
    pub fn dispatched(&self) -> u64 {
        self.refills + self.helped
    }

    /// Always zero: every job leaves the one run queue, so none is ever
    /// stolen. It stays only because the committed benchmark reads it
    /// (perfbench's `engine.steal_ratio`).
    pub fn steal_ratio(&self) -> f64 {
        0.0
    }
}

struct Job {
    id: DocId,
    tenant: TenantId,
    label: String,
    doc: Arc<Document>,
    jitter: JitterModel,
    resolver: Option<Arc<dyn DescriptorResolver + Send + Sync>>,
    solve: Option<Arc<SolveResult>>,
    /// The document's edit mailbox; the registry in [`Shared::mailboxes`]
    /// holds the other reference until the job completes.
    edits: Mailbox,
    admitted_at: Instant,
}

/// The engine's run queue and admission state, under one mutex: submitters
/// push jobs, and workers and waiting callers take them, one per
/// transaction.
struct Plane {
    run: TenantRunQueue<Job>,
    /// Who took the jobs that left `run`.
    stats: QueueStats,
    gate: TicketGate,
    next_id: u64,
    /// Admission is closed (`close()`); the backlog still drains.
    closed: bool,
    /// Workers exit once the queue is empty (`shutdown()`/drop).
    shutdown: bool,
}

/// The delivery side: finished outcomes and who already collected what.
struct Outcomes {
    finished: Vec<DocOutcome>,
    /// Every id below this has had its outcome handed out by
    /// `wait`/`drain`.
    delivered_floor: u64,
    /// Out-of-order deliveries at or above the floor. Pruned as the floor
    /// advances, so a long-lived engine's delivery bookkeeping stays
    /// proportional to the out-of-order window — never to every document
    /// it ever played.
    delivered: HashSet<u64>,
    /// Completion-side per-tenant stats (admission→completion latency and
    /// outcome counts); the admission-side half lives in the plane.
    latency: HashMap<TenantId, LatencyStats>,
}

impl Outcomes {
    fn mark_delivered(&mut self, id: u64) {
        if id == self.delivered_floor {
            self.delivered_floor += 1;
            while self.delivered.remove(&self.delivered_floor) {
                self.delivered_floor += 1;
            }
        } else {
            self.delivered.insert(id);
        }
    }

    fn is_delivered(&self, id: u64) -> bool {
        id < self.delivered_floor || self.delivered.contains(&id)
    }
}

/// Lock order (a thread may take locks only downward in this list):
///
/// 1. `outcomes` (a waiting caller holds it while it looks for a job to
///    play, and drain's completion predicate peeks at the plane);
/// 2. `plane`.
///
/// Every job taken off the plane is counted until its outcome publishes:
/// in `in_flight` when a worker plays it, in `helping` when a waiting
/// caller does. The counter is raised under the plane lock, in the
/// transaction that shrinks the plane, and lowered under the `outcomes`
/// lock, both `SeqCst` — so a `drain()` that holds `outcomes` and reads the
/// plane empty and both counters zero has proof that no job is in transit
/// between the two. Jobs counted in `helping` keep their queue slot (they
/// count in [`Shared::unstarted`]), so callers that play jobs never push
/// [`Engine::backlog`] past `max_backlog + workers`.
struct Shared {
    plane: Mutex<Plane>,
    outcomes: Mutex<Outcomes>,
    /// Edit mailboxes of every admitted-but-unfinished document, keyed by
    /// raw [`DocId`]. Registered under the plane lock at admission (so a
    /// mailbox exists before its job is visible to any worker), removed by
    /// `run_and_complete` before the outcome publishes. A leaf lock — see
    /// [`Mailbox`].
    mailboxes: Mutex<HashMap<u64, Mailbox>>,
    in_flight: AtomicUsize,
    helping: AtomicUsize,
    /// Signalled when a job reaches the tenant plane or when shutdown
    /// begins (workers wait, with `plane`).
    work: Condvar,
    /// Signalled when a job completes (waiters wait, with `outcomes`).
    done: Condvar,
    /// Signalled when capacity frees on a bounded queue, when the ticket
    /// head advances, and on close/shutdown (blocked submitters wait,
    /// with `plane`).
    capacity: Condvar,
    config: EngineConfig,
}

impl Shared {
    fn lock_plane(&self) -> MutexGuard<'_, Plane> {
        self.plane.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_outcomes(&self) -> MutexGuard<'_, Outcomes> {
        self.outcomes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_mailboxes(&self) -> MutexGuard<'_, HashMap<u64, Mailbox>> {
        self.mailboxes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Admitted-but-unstarted documents: the tenant plane plus the jobs
    /// waiting callers are playing, which keep their slot. This is what
    /// `max_backlog` bounds.
    fn unstarted(&self, plane: &Plane) -> usize {
        plane.run.len() + self.helping.load(Ordering::SeqCst)
    }

    /// The one way a job leaves the queue: the next job in weighted-fair
    /// order, counted in `player`'s counter (which it stays in until its
    /// outcome publishes) and in the queue stats. Both happen under the
    /// plane lock that every reader of the plane's length holds, so no
    /// reader sees the job in neither place.
    fn take(&self, plane: &mut Plane, player: Player) -> Option<Job> {
        let job = plane.run.pop_fair()?;
        self.taken(player).fetch_add(1, Ordering::SeqCst);
        match player {
            Player::Worker => plane.stats.refills += 1,
            Player::Caller => plane.stats.helped += 1,
        }
        Some(job)
    }

    /// The counter a job taken by `player` stays in until it completes.
    fn taken(&self, player: Player) -> &AtomicUsize {
        match player {
            Player::Worker => &self.in_flight,
            Player::Caller => &self.helping,
        }
    }

    /// The clamped bound, if any.
    fn backlog_limit(&self) -> Option<usize> {
        self.config.max_backlog.map(|limit| limit.max(1))
    }

    /// Wakes blocked submitters after a job a waiting caller played
    /// completed, which frees its backlog slot *outside* the plane lock.
    /// Taking and releasing the plane lock first closes the race against a
    /// submitter that already read the old backlog but has not yet parked
    /// on the condvar (the condvar releases the plane mutex atomically, so
    /// after this lock round-trip the notify must land).
    fn poke_capacity(&self) {
        if self.config.max_backlog.is_none() {
            return;
        }
        drop(self.lock_plane());
        self.capacity.notify_all();
    }
}

/// A pool of worker threads playing many documents concurrently, fairly
/// across tenants. A caller blocked in [`Engine::wait`] or
/// [`Engine::drain`] plays queued jobs too, on its own thread, rather than
/// sleep while work waits for a worker. Workers and waiting callers take
/// jobs from one run queue, one at a time, in weighted-fair order.
///
/// Each outcome is delivered exactly once — by the `wait(id)` or `drain()`
/// call that first sees it. Memory is bounded by the admission bound
/// ([`EngineConfig::max_backlog`]) *plus* the finished-but-undelivered
/// outcomes, which accumulate until a `wait`/`drain` collects them —
/// [`Engine::undelivered`] counts that half, [`Engine::backlog`] the
/// other. A long-lived engine therefore stays bounded exactly when its
/// producers keep collecting outcomes (delivery bookkeeping is a watermark
/// plus the out-of-order window, not a record of every document ever
/// played). Asking again for an already-delivered outcome panics with a
/// clear message rather than blocking forever.
///
/// ```
/// use std::sync::Arc;
///
/// use cmif_core::prelude::*;
/// use cmif_scheduler::{Engine, EngineConfig, JitterModel, Submission};
///
/// # fn main() -> std::result::Result<(), cmif_scheduler::SchedulerError> {
/// let doc = Arc::new(
///     DocumentBuilder::new("spot")
///         .channel("audio", MediaKind::Audio)
///         .descriptor(
///             DataDescriptor::new("jingle", MediaKind::Audio, "pcm8")
///                 .with_duration(TimeMs::from_secs(3)),
///         )
///         .root_seq(|root| {
///             root.ext("jingle", "audio", "jingle");
///         })
///         .build()?,
/// );
///
/// let engine = Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
/// // Submitting an `Arc<Document>` clones a pointer, never the tree.
/// let a = engine.admit(Submission::new(Arc::clone(&doc), JitterModel::ideal()))?;
/// let b = engine.admit(Submission::new(Arc::clone(&doc), JitterModel::uniform(100, 7)))?;
/// let outcome = engine.wait(a);
/// assert!(outcome.is_ok());
/// assert!(engine.wait(b).is_ok());
/// // No new work after close(), but anything admitted still drains:
/// engine.close();
/// assert!(engine.try_admit(Submission::new(doc, JitterModel::ideal())).is_err());
/// # Ok(()) }
/// ```
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Starts an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Engine {
        let workers = config.workers.max(1);
        Engine::spawn(config, workers)
    }

    /// An engine with no worker threads: its jobs play only on callers
    /// waiting in `wait` or `drain`, so one thread replays it exactly from
    /// a seed (the deterministic simulation drives it).
    #[cfg(test)]
    fn without_workers(config: EngineConfig) -> Engine {
        Engine::spawn(config, 0)
    }

    /// Builds the shared state and starts `worker_count` worker threads.
    fn spawn(config: EngineConfig, worker_count: usize) -> Engine {
        let shared = Arc::new(Shared {
            plane: Mutex::new(Plane {
                run: TenantRunQueue::new(),
                stats: QueueStats::default(),
                gate: TicketGate::default(),
                next_id: 0,
                closed: false,
                shutdown: false,
            }),
            outcomes: Mutex::new(Outcomes {
                finished: Vec::new(),
                delivered_floor: 0,
                delivered: HashSet::new(),
                latency: HashMap::new(),
            }),
            mailboxes: Mutex::new(HashMap::new()),
            in_flight: AtomicUsize::new(0),
            helping: AtomicUsize::new(0),
            work: Condvar::new(),
            done: Condvar::new(),
            capacity: Condvar::new(),
            config,
        });
        let workers = (0..worker_count)
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("cmif-engine-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .unwrap_or_else(|e| panic!("spawning engine worker {index} failed: {e}"))
            })
            .collect();
        Engine { shared, workers }
    }

    /// Starts an engine with `workers` worker threads and default policy.
    pub fn with_workers(workers: usize) -> Engine {
        Engine::new(EngineConfig {
            workers,
            ..EngineConfig::default()
        })
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Admits a [`Submission`] for scheduling and playback under its
    /// (seeded, hence deterministic) jitter model.
    ///
    /// The document travels as an [`Arc`]: submitting the same tree 64
    /// times clones a pointer 64 times, never the tree.
    ///
    /// With a bounded queue ([`EngineConfig::max_backlog`]) and the queue
    /// full, this *blocks* until a slot frees; submitters blocked this way
    /// are admitted in arrival order. Errors with
    /// [`SchedulerError::EngineClosed`] if the engine was closed or shut
    /// down — including while blocked waiting for capacity — with
    /// [`SchedulerError::LintRejected`] when the lint gate refuses the
    /// document, and with [`SchedulerError::QuotaExceeded`] when the
    /// tenant's bucket is empty at the moment of admission.
    pub fn admit(&self, submission: Submission) -> Result<DocId> {
        self.enqueue([submission], true)
    }

    /// Admits a [`Submission`] without blocking: a full bounded queue — or
    /// one with blocked submitters already queued ahead, whose FIFO turn
    /// must not be stolen — is [`SchedulerError::Backpressure`] at once.
    /// Otherwise it refuses exactly like [`Engine::admit`].
    pub fn try_admit(&self, submission: Submission) -> Result<DocId> {
        self.enqueue([submission], false)
    }

    /// Admits N submissions under **one** queue transaction: one lock
    /// acquisition, one quota charge (all-or-nothing per tenant — either
    /// every document is admitted or none is and no token is consumed),
    /// and contiguous [`DocId`]s in the order given.
    ///
    /// On a bounded queue the batch blocks (FIFO with every other blocked
    /// submitter) until the *whole* batch fits, so a batch is never
    /// half-admitted; a batch larger than `max_backlog` can never fit and
    /// is refused immediately with [`SchedulerError::Backpressure`]. Like
    /// every admission, the batch is charged when it is admitted, after
    /// the wait.
    pub fn submit_batch(
        &self,
        submissions: impl IntoIterator<Item = Submission>,
    ) -> Result<Vec<DocId>> {
        let submissions: Vec<Submission> = submissions.into_iter().collect();
        if submissions.is_empty() {
            return Ok(Vec::new());
        }
        let count = submissions.len() as u64;
        let first = self.enqueue(submissions, true)?;
        Ok((first.0..first.0 + count).map(DocId).collect())
    }

    /// Sets the scheduling policy (fair-queuing weight, admission quota)
    /// for one tenant. Takes effect for subsequent dispatches and
    /// admissions; the tenant's quota bucket restarts full under the new
    /// configuration. Tenants never configured use
    /// [`TenantPolicy::default`] (weight 1, no quota); untagged work is
    /// configured through [`TenantId::DEFAULT`].
    pub fn set_tenant_policy(&self, tenant: TenantId, policy: TenantPolicy) {
        let mut plane = self.shared.lock_plane();
        plane.run.set_policy(tenant, policy, Instant::now());
    }

    /// Per-tenant statistics — admissions, quota refusals, outcomes and
    /// admission→completion latency (mean / approximate p99 / max) — for
    /// every tenant the engine has seen, sorted by tenant id. The two
    /// halves (admission side, completion side) are snapshotted one lock
    /// at a time, so a row can transiently show a submission whose
    /// completion is not counted yet — never the reverse.
    pub fn tenant_stats(&self) -> Vec<TenantStatsSnapshot> {
        let rows = {
            let plane = self.shared.lock_plane();
            plane.run.admission_rows()
        };
        let outcomes = self.shared.lock_outcomes();
        let mut stats: Vec<TenantStatsSnapshot> = rows
            .into_iter()
            .map(|row| {
                let latency = outcomes.latency.get(&row.tenant);
                TenantStatsSnapshot::merge(row, latency)
            })
            .collect();
        stats.sort_by_key(|row| row.tenant);
        stats
    }

    /// How many queued jobs the worker threads (`refills`) and the waiting
    /// callers (`helped`) have taken so far.
    pub fn queue_stats(&self) -> QueueStats {
        self.shared.lock_plane().stats
    }

    /// Routes a live edit to an admitted document's mailbox. The thread
    /// playing the document drains the mailbox before solving and at every
    /// tick boundary: it applies the edit to the document's revision chain,
    /// re-solves the new revision cold, and swaps the playing session onto
    /// it without rewriting any event already delivered. An edit that is
    /// invalid or whose re-solve fails leaves the document on its last
    /// revision.
    ///
    /// `Ok(())` means *routed*, not *applied* — the per-edit verdict
    /// arrives in [`DocOutcome::edits`] when the document's outcome is
    /// collected. Errors with [`SchedulerError::EditRejected`] when the id
    /// was never admitted here or the document already completed.
    pub fn apply_edit(&self, doc: DocId, edit: Edit) -> Result<()> {
        {
            let plane = self.shared.lock_plane();
            if doc.0 >= plane.next_id {
                return Err(SchedulerError::EditRejected {
                    doc,
                    reason: "unknown document",
                });
            }
        }
        let mailboxes = self.shared.lock_mailboxes();
        match mailboxes.get(&doc.0) {
            Some(mailbox) => {
                mailbox
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(edit);
                Ok(())
            }
            None => Err(SchedulerError::EditRejected {
                doc,
                reason: "document already completed",
            }),
        }
    }

    /// Number of submitters currently blocked on a full bounded queue
    /// (holding FIFO admission tickets). Observability for tests and
    /// monitoring; racy by nature.
    pub fn waiting_submitters(&self) -> usize {
        let plane = self.shared.lock_plane();
        plane.gate.waiting() as usize
    }

    /// The one admission path for one or more submissions: lint gate,
    /// closed check, capacity (a FIFO ticket when `block`,
    /// [`SchedulerError::Backpressure`] otherwise), then the quota charge
    /// and the admission itself under one plane lock. Returns the first of
    /// the contiguous ids the submissions were admitted under.
    fn enqueue<S>(&self, submissions: S, block: bool) -> Result<DocId>
    where
        S: AsRef<[Submission]> + IntoIterator<Item = Submission>,
    {
        let shared = &self.shared;
        // Lint before anything is locked or charged: a refused document
        // costs neither a quota token nor a queue slot, one deny-level
        // document refuses its whole batch, and concurrent submitters are
        // not serialized behind the analysis.
        if let Some(gate) = &shared.config.lint_gate {
            for submission in submissions.as_ref() {
                let resolver = job_resolver(&submission.resolver, &submission.doc);
                gate.inspect_resolved(&submission.doc, resolver, &submission.lint)?;
            }
        }
        let need = submissions.as_ref().len();
        let limit = shared.backlog_limit();
        let mut counts: Vec<(TenantId, usize)> = Vec::new();
        for submission in submissions.as_ref() {
            match counts.iter_mut().find(|(t, _)| *t == submission.tenant) {
                Some((_, n)) => *n += 1,
                None => counts.push((submission.tenant, 1)),
            }
        }
        let backpressure = |plane: &Plane| SchedulerError::Backpressure {
            backlog: shared.unstarted(plane) + shared.in_flight.load(Ordering::SeqCst),
        };

        let mut plane = shared.lock_plane();
        if plane.closed || plane.shutdown {
            return Err(SchedulerError::EngineClosed);
        }
        if limit.is_some_and(|limit| need > limit) {
            // Could never fit in one transaction, no matter how long we wait.
            return Err(backpressure(&plane));
        }
        // Admit at once only when nobody is queued ahead and everything
        // fits — jumping ahead of a blocked ticket would reintroduce the
        // starvation the gate exists to prevent. Otherwise refuse, or hold
        // a ticket until it is the head and the whole batch fits.
        let mut ticket = None;
        loop {
            let fits = limit.map_or(true, |limit| shared.unstarted(&plane) + need <= limit);
            let turn = match ticket {
                None => plane.gate.waiting() == 0,
                Some(ticket) => plane.gate.is_head(ticket),
            };
            if turn && fits {
                break;
            }
            if !block {
                return Err(backpressure(&plane));
            }
            if ticket.is_none() {
                ticket = Some(plane.gate.enter());
            }
            plane = shared
                .capacity
                .wait(plane)
                .unwrap_or_else(PoisonError::into_inner);
            if plane.closed || plane.shutdown {
                // Abandoning mid-queue only happens when *everyone* is
                // abandoning (the engine closed), so the bakery head can
                // advance unconditionally.
                plane.gate.leave();
                drop(plane);
                shared.capacity.notify_all();
                return Err(SchedulerError::EngineClosed);
            }
        }
        // Quota is charged at the admission moment — *after* the capacity
        // wait, so a refusal for capacity, a long block or a close never
        // burns a token.
        let admitted = plane.run.charge(&counts, Instant::now()).map(|()| {
            let first = DocId(plane.next_id);
            for submission in submissions {
                admit_locked(shared, &mut plane, submission);
            }
            first
        });
        if ticket.is_some() {
            plane.gate.leave();
        }
        drop(plane);
        if limit.is_some() {
            // Let the next ticket observe the advanced head.
            shared.capacity.notify_all();
        }
        if admitted.is_ok() {
            if need == 1 {
                shared.work.notify_one();
            } else {
                shared.work.notify_all();
            }
        }
        admitted
    }

    /// Blocks until the given document has finished (or been rejected) and
    /// returns its outcome.
    ///
    /// While the outcome is missing, the calling thread plays the next
    /// queued job in dispatch order — any tenant's, not only this one —
    /// and re-checks after each; it sleeps only when nothing is queued. A
    /// job it plays is contained like a worker's: a panic, a `job_hook`
    /// panic included, becomes that job's
    /// [`SchedulerError::JobPanicked`] outcome, and this call still
    /// returns its own. After [`Engine::close`] it keeps playing queued
    /// jobs until its own outcome arrives, just as the workers keep
    /// draining the backlog.
    ///
    /// The outcome is delivered exactly once. Panics if the id was never
    /// issued by this engine, or if its outcome was already taken by an
    /// earlier `wait(id)` or [`Engine::drain`] — a clear error instead of
    /// the silent permanent block that re-waiting would otherwise be.
    pub fn wait(&self, id: DocId) -> DocOutcome {
        {
            let plane = self.shared.lock_plane();
            assert!(id.0 < plane.next_id, "{id} was never admitted here");
        }
        let mut outcomes = self.shared.lock_outcomes();
        loop {
            if let Some(pos) = outcomes.finished.iter().position(|o| o.id == id) {
                outcomes.mark_delivered(id.0);
                return outcomes.finished.swap_remove(pos);
            }
            assert!(
                !outcomes.is_delivered(id.0),
                "the outcome of {id} was already delivered by a previous wait() or drain()"
            );
            outcomes = self.play_or_sleep(outcomes);
        }
    }

    /// Blocks until every admitted document has finished and returns the
    /// not-yet-delivered outcomes in admission order (outcomes already
    /// taken by `wait(id)` are not repeated). Like [`Engine::wait`], the
    /// calling thread plays queued jobs meanwhile and sleeps only when
    /// nothing is queued.
    ///
    /// "Every admitted" is a snapshot: producers admitting concurrently
    /// with a `drain` may land their documents after it returned.
    pub fn drain(&self) -> Vec<DocOutcome> {
        let mut outcomes = self.shared.lock_outcomes();
        loop {
            // Holding `outcomes` freezes both completion (outcomes are
            // recorded under it) and the counters' decrements; a counter
            // is incremented before any queue length visibly drops. So
            // "all queues empty and nothing taken", observed in this
            // order, proves no job is anywhere.
            let unstarted = {
                let plane = self.shared.lock_plane();
                self.shared.unstarted(&plane)
            };
            if unstarted == 0 && self.shared.in_flight.load(Ordering::SeqCst) == 0 {
                break;
            }
            outcomes = self.play_or_sleep(outcomes);
        }
        let mut finished = std::mem::take(&mut outcomes.finished);
        finished.sort_by_key(|o| o.id);
        // Ascending marks let the delivered floor swallow each id as it
        // comes — after a full drain the out-of-order set is empty.
        for outcome in &finished {
            outcomes.mark_delivered(outcome.id.0);
        }
        finished
    }

    /// One step of a waiting caller: plays the next queued job on this
    /// thread, or, with nothing queued, sleeps until some job completes.
    /// The `outcomes` lock is released while the job plays and held again
    /// on return. Deciding to sleep under that lock cannot miss a
    /// completion; a job admitted after the check is the workers' to play.
    fn play_or_sleep<'a>(&'a self, outcomes: MutexGuard<'a, Outcomes>) -> MutexGuard<'a, Outcomes> {
        let job = self
            .shared
            .take(&mut self.shared.lock_plane(), Player::Caller);
        match job {
            Some(job) => {
                drop(outcomes);
                run_and_complete(&self.shared, job, Player::Caller);
                self.shared.lock_outcomes()
            }
            None => self
                .shared
                .done
                .wait(outcomes)
                .unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Number of documents admitted but not yet finished (queued — in the
    /// tenant plane or playing on a waiting caller — plus in flight on a
    /// worker).
    /// Finished-but-undelivered outcomes are *not* counted here — see
    /// [`Engine::undelivered`].
    pub fn backlog(&self) -> usize {
        let plane = self.shared.lock_plane();
        self.shared.unstarted(&plane) + self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Number of finished outcomes no `wait`/`drain` has collected yet.
    /// This is the half of the engine's memory [`Engine::backlog`] does
    /// not cover: it grows without bound if producers never collect.
    pub fn undelivered(&self) -> usize {
        self.shared.lock_outcomes().finished.len()
    }

    /// (delivered watermark, parked out-of-order deliveries) — the
    /// boundedness regression test reads these.
    #[cfg(test)]
    fn delivery_bookkeeping(&self) -> (u64, usize) {
        let outcomes = self.shared.lock_outcomes();
        (outcomes.delivered_floor, outcomes.delivered.len())
    }

    /// Stops admission: every later `admit`/`try_admit`/`submit_batch`
    /// (and any admission currently blocked on a full queue) gets
    /// [`SchedulerError::EngineClosed`]. The backlog already admitted
    /// keeps draining, and `wait`/`drain` keep delivering — the graceful
    /// half of [`Engine::shutdown`]'s "no new work, then stop". Idempotent.
    pub fn close(&self) {
        {
            let mut plane = self.shared.lock_plane();
            plane.closed = true;
        }
        // Submitters blocked on capacity must observe the closure.
        self.shared.capacity.notify_all();
    }

    /// True once [`Engine::close`] (or shutdown) stopped admission.
    pub fn is_closed(&self) -> bool {
        let plane = self.shared.lock_plane();
        plane.closed || plane.shutdown
    }

    /// Stops the workers after the queue drains and joins them.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        {
            let mut plane = self.shared.lock_plane();
            plane.shutdown = true;
        }
        self.shared.work.notify_all();
        // Admissions blocked on a full queue must fail, not wait forever
        // for workers that are about to exit.
        self.shared.capacity.notify_all();
        for worker in self.workers.drain(..) {
            // Worker threads contain job panics themselves; a panic in the
            // loop machinery would abort if propagated out of drop, so
            // swallow it.
            let _ = worker.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Allocates the next id, registers the document's edit mailbox, and
/// enqueues the job on the tenant plane. Caller holds the plane lock and
/// has already charged the quota — registering under that lock guarantees
/// the mailbox exists before any worker can see (let alone complete) the
/// job.
fn admit_locked(shared: &Shared, plane: &mut Plane, submission: Submission) -> DocId {
    let id = DocId(plane.next_id);
    plane.next_id += 1;
    let mailbox: Mailbox = Arc::new(Mutex::new(Vec::new()));
    shared.lock_mailboxes().insert(id.0, Arc::clone(&mailbox));
    let admitted_at = Instant::now();
    let tenant = submission.tenant;
    let job = Job {
        id,
        tenant,
        label: submission.label.unwrap_or_else(|| id.to_string()),
        doc: submission.doc,
        jitter: submission.jitter,
        resolver: submission.resolver,
        solve: submission.solve,
        edits: mailbox,
        admitted_at,
    };
    plane.run.push(tenant, job, admitted_at);
    id
}

/// Renders a caught panic payload (the usual `&str`/`String` cases).
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(message) => (*message).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Who plays a job: a worker thread, or a caller waiting in
/// [`Engine::wait`] or [`Engine::drain`].
#[derive(Clone, Copy)]
enum Player {
    Worker,
    Caller,
}

/// A worker thread: takes the next job off the plane and plays it, and
/// sleeps under the plane lock only while the plane is empty, so no job
/// admitted meanwhile is missed. Exits at shutdown once the plane is empty.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut plane = shared.lock_plane();
            loop {
                if let Some(job) = shared.take(&mut plane, Player::Worker) {
                    break job;
                }
                if plane.shutdown {
                    return;
                }
                plane = shared
                    .work
                    .wait(plane)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if shared.config.max_backlog.is_some() {
            // The take freed backlog capacity.
            shared.capacity.notify_all();
        }
        run_and_complete(shared, job, Player::Worker);
    }
}

/// Runs one job with panic containment and publishes its outcome (with
/// per-tenant latency accounting) exactly once. `player` is who took the
/// job, and so which counter it leaves.
fn run_and_complete(shared: &Shared, job: Job, player: Player) {
    // Contain a panicking job: it must not take its thread down with the
    // job still counted (that wedged every later `drain()`/`wait()`
    // forever), nor unwind a caller out of `wait`. `AssertUnwindSafe` is
    // sound here: `run_job` only reads the config and the job, all its
    // mutable state is local to the call, and no engine lock is held.
    let caught = catch_unwind(AssertUnwindSafe(|| run_job(&shared.config, &job)));
    let (result, mut edits) = match caught {
        Ok(Ok((report, edits))) => (Ok(report), edits),
        Ok(Err(error)) => (Err(error), Vec::new()),
        Err(payload) => (
            Err(SchedulerError::JobPanicked {
                message: panic_message(payload),
            }),
            Vec::new(),
        ),
    };
    let Job {
        id,
        tenant,
        label,
        doc,
        jitter,
        resolver,
        solve,
        edits: mailbox,
        admitted_at,
    } = job;
    // Retire the mailbox before the outcome publishes: later apply_edit
    // calls fail fast with EditRejected, and anything that raced in after
    // the job's final drain (or that a failed job never drained) is
    // accounted for as a rejected outcome rather than silently lost.
    {
        let mut mailboxes = shared.lock_mailboxes();
        mailboxes.remove(&id.0);
    }
    let stranded = std::mem::take(&mut *mailbox.lock().unwrap_or_else(PoisonError::into_inner));
    for edit in stranded {
        edits.push(EditOutcome {
            edit,
            at: TimeMs::ZERO,
            result: Err(SchedulerError::EditRejected {
                doc: id,
                reason: "document already completed",
            }),
        });
    }
    // Release the job's shared references (document, resolver, precomputed
    // solve) *before* the outcome becomes observable, so a producer that
    // sees the outcome can reclaim sole ownership of what it shared
    // (`Arc::try_unwrap`) without racing this thread.
    drop((doc, jitter, resolver, solve, mailbox));
    let latency = admitted_at.elapsed();
    let outcome = DocOutcome {
        id,
        tenant,
        label,
        result,
        edits,
    };
    let mut outcomes = shared.lock_outcomes();
    outcomes
        .latency
        .entry(tenant)
        .or_default()
        .record(latency, outcome.is_ok());
    outcomes.finished.push(outcome);
    // Under the outcomes lock, so drain() (which holds it) never sees the
    // decrement without the outcome.
    shared.taken(player).fetch_sub(1, Ordering::SeqCst);
    drop(outcomes);
    shared.done.notify_all();
    if let Player::Caller = player {
        // The job held its queue slot until now.
        shared.poke_capacity();
    }
}

/// Empties a document's edit mailbox, returning the routed edits in
/// arrival order.
fn drain_mailbox(mailbox: &Mailbox) -> Vec<Edit> {
    std::mem::take(&mut *mailbox.lock().unwrap_or_else(PoisonError::into_inner))
}

/// How many clock steps the thread playing a document drives its session
/// through. Playback outcomes do not depend on this (the causal timeline is
/// fixed at session creation); it only exercises the step-wise machinery.
/// The benchmark's session probe (`play_directly`) mirrors it.
const TICKS_PER_DOCUMENT: i64 = 8;

/// What a job resolves descriptors against: its submission's resolver,
/// else the document's own catalog. The lint gate inspects against the
/// same one.
fn job_resolver<'a>(
    resolver: &'a Option<Arc<dyn DescriptorResolver + Send + Sync>>,
    doc: &'a Document,
) -> &'a dyn DescriptorResolver {
    match resolver {
        Some(resolver) => resolver.as_ref(),
        None => &doc.catalog,
    }
}

/// One document's full trip through the engine: derive, relax, play —
/// draining its live-edit mailbox before the solve and again at every tick
/// boundary. Any scheduler error — a `ConstraintCycle` above all — is the
/// document's outcome, not the worker's death.
fn run_job(config: &EngineConfig, job: &Job) -> Result<(PlaybackReport, Vec<EditOutcome>)> {
    if let Some(hook) = &config.job_hook {
        hook.fire(&job.label);
    }
    let resolver = job_resolver(&job.resolver, &job.doc);
    let mut edits: Vec<EditOutcome> = Vec::new();
    let mut revision = DocRevision::initial(Arc::clone(&job.doc));
    // Edits that raced admission fold into the revision before anything is
    // solved: cheaper than a swap, and a precomputed solve for the
    // unedited tree must not be trusted past the first applied edit.
    let mut edited_before_start = false;
    for edit in drain_mailbox(&job.edits) {
        let result = revision.apply(&edit).map(|(next, _)| revision = next);
        edited_before_start |= result.is_ok();
        edits.push(EditOutcome {
            edit,
            at: TimeMs::ZERO,
            result: result.map_err(SchedulerError::from),
        });
    }
    let solve = |doc: &Document| {
        ConstraintGraph::derive(doc, resolver, &config.options)?.solve(doc, resolver)
    };
    let owned_solve;
    let solved: &SolveResult = match &job.solve {
        Some(precomputed) if !edited_before_start => precomputed,
        _ => {
            owned_solve = solve(revision.doc())?;
            &owned_solve
        }
    };
    let mut session = PlayerSession::new(revision.doc(), solved, resolver, &job.jitter)?;
    let mut last_boundary = 0i64;
    for step in 1..=TICKS_PER_DOCUMENT {
        // Applied edits can lengthen (or shorten) the presentation, so the
        // remaining boundaries re-span the *current* total; the clamp
        // keeps the tick sequence monotone when an edit shortened it.
        let total = session.total_duration().as_millis();
        let boundary = (total * step / TICKS_PER_DOCUMENT).max(last_boundary);
        session.tick(boundary)?;
        session.poll_events();
        last_boundary = boundary;
        for edit in drain_mailbox(&job.edits) {
            // The revision and the playing session move only when both the
            // edit and the re-solve succeed.
            let applied = revision
                .apply(&edit)
                .map_err(SchedulerError::from)
                .and_then(|(next, _)| Ok((solve(next.doc())?, next)));
            let result = match applied {
                Ok((solved, next)) => {
                    session.swap_revision(next.doc(), &solved, resolver)?;
                    revision = next;
                    Ok(())
                }
                Err(refusal) => Err(refusal),
            };
            edits.push(EditOutcome {
                edit,
                at: TimeMs::from_millis(boundary),
                result,
            });
        }
    }
    // The loop's final boundary already reached the then-current total;
    // this closes out anything a very last edit appended (and zero-length
    // documents, for which the loop never advanced).
    let total = session.total_duration().as_millis().max(last_boundary);
    session.tick(total)?;
    session.poll_events();
    Ok((session.run_to_completion(), edits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmif_core::arc::SyncArc;
    use cmif_core::prelude::*;
    use cmif_core::time::MediaTime;
    use std::time::Duration;

    use crate::error::SchedulerError;

    fn story(name: &str, secs: i64) -> Document {
        DocumentBuilder::new(name)
            .channel("audio", MediaKind::Audio)
            .channel("caption", MediaKind::Text)
            .descriptor(
                DataDescriptor::new("speech", MediaKind::Audio, "pcm8")
                    .with_duration(TimeMs::from_secs(secs)),
            )
            .root_par(|root| {
                root.ext("voice", "audio", "speech");
                root.imm_text("line", "caption", "hello", 1_000);
            })
            .build()
            .unwrap()
    }

    fn cyclic_doc() -> Document {
        let mut doc = story("cycle", 2);
        let voice = doc.find("/voice").unwrap();
        let line = doc.find("/line").unwrap();
        doc.add_arc(
            voice,
            SyncArc::hard_start("../line", "").with_offset(MediaTime::seconds(1)),
        )
        .unwrap();
        doc.add_arc(
            line,
            SyncArc::hard_start("../voice", "").with_offset(MediaTime::seconds(1)),
        )
        .unwrap();
        doc
    }

    /// A manually opened barrier the stall-hook tests park workers on.
    struct Gate {
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl Gate {
        fn new() -> Arc<Gate> {
            Arc::new(Gate {
                open: Mutex::new(false),
                cv: Condvar::new(),
            })
        }

        fn wait(&self) {
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.cv.wait(open).unwrap();
            }
        }

        fn release(&self) {
            *self.open.lock().unwrap() = true;
            self.cv.notify_all();
        }
    }

    /// An engine whose workers park on `gate` at the start of every job.
    fn stalled_engine(workers: usize, max_backlog: Option<usize>, gate: &Arc<Gate>) -> Engine {
        let gate = Arc::clone(gate);
        Engine::new(EngineConfig {
            workers,
            max_backlog,
            job_hook: Some(JobHook::new(move |_| gate.wait())),
            ..EngineConfig::default()
        })
    }

    #[test]
    fn engine_plays_a_batch_and_reports_each() {
        let engine = Engine::with_workers(4);
        let ids: Vec<DocId> = (0..12)
            .map(|i| {
                engine
                    .admit(Submission::new(
                        story("batch", 2 + (i % 3)),
                        JitterModel::uniform(100, i as u64),
                    ))
                    .unwrap()
            })
            .collect();
        let outcomes = engine.drain();
        assert_eq!(outcomes.len(), 12);
        for (id, outcome) in ids.iter().zip(&outcomes) {
            assert_eq!(*id, outcome.id);
            assert!(outcome.is_ok(), "{:?}", outcome.result);
        }
    }

    #[test]
    fn concurrent_reports_match_sequential_runs() {
        let engine = Engine::with_workers(4);
        let mut ids = Vec::new();
        for seed in 0..8u64 {
            ids.push(
                engine
                    .admit(Submission::new(
                        story("det", 3),
                        JitterModel::uniform(200, seed),
                    ))
                    .unwrap(),
            );
        }
        let outcomes = engine.drain();

        let sequential = Engine::with_workers(1);
        let mut seq_ids = Vec::new();
        for seed in 0..8u64 {
            seq_ids.push(
                sequential
                    .admit(Submission::new(
                        story("det", 3),
                        JitterModel::uniform(200, seed),
                    ))
                    .unwrap(),
            );
        }
        let seq_outcomes = sequential.drain();

        for (a, b) in outcomes.iter().zip(&seq_outcomes) {
            assert_eq!(
                a.result.as_ref().unwrap(),
                b.result.as_ref().unwrap(),
                "concurrency changed a playback report"
            );
        }
    }

    #[test]
    fn bad_document_is_rejected_without_tearing_down_the_worker() {
        // One worker: the cyclic document and the good one share it, so the
        // good one only completes if the worker survives the rejection.
        let engine = Engine::with_workers(1);
        let bad = engine
            .admit(Submission::new(cyclic_doc(), JitterModel::ideal()).labeled("bad"))
            .unwrap();
        let good = engine
            .admit(Submission::new(story("good", 2), JitterModel::ideal()).labeled("good"))
            .unwrap();
        let bad_outcome = engine.wait(bad);
        assert!(matches!(
            bad_outcome.result,
            Err(SchedulerError::ConstraintCycle { .. })
        ));
        let good_outcome = engine.wait(good);
        assert!(good_outcome.is_ok());
        assert_eq!(good_outcome.label, "good");
    }

    #[test]
    fn panicking_job_is_an_outcome_not_a_wedge() {
        // The panic twin of the test above — the regression that motivated
        // `catch_unwind`: before it, a panic killed the worker with
        // `in_flight` still incremented and every later `drain()`/`wait()`
        // blocked forever. One worker: the sibling only completes if that
        // worker survived the panic.
        let engine = Engine::new(EngineConfig {
            workers: 1,
            job_hook: Some(JobHook::new(|label| {
                if label == "boom" {
                    panic!("injected playback fault in {label}");
                }
            })),
            ..EngineConfig::default()
        });
        let bad = engine
            .admit(Submission::new(story("doomed", 2), JitterModel::ideal()).labeled("boom"))
            .unwrap();
        let good = engine
            .admit(Submission::new(story("fine", 2), JitterModel::ideal()).labeled("survivor"))
            .unwrap();
        let bad_outcome = engine.wait(bad);
        match bad_outcome.result {
            Err(SchedulerError::JobPanicked { ref message }) => {
                assert!(message.contains("injected playback fault"), "{message}");
            }
            other => panic!("expected JobPanicked, got {other:?}"),
        }
        // The same worker still serves; drain() terminates.
        let good_outcome = engine.wait(good);
        assert!(good_outcome.is_ok(), "{:?}", good_outcome.result);
        assert!(engine.drain().is_empty());
        assert_eq!(engine.backlog(), 0);
    }

    #[test]
    fn every_job_panicking_still_drains() {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            job_hook: Some(JobHook::new(|_| panic!("nothing works today"))),
            ..EngineConfig::default()
        });
        for _ in 0..6 {
            engine
                .admit(Submission::new(story("cursed", 2), JitterModel::ideal()))
                .unwrap();
        }
        let outcomes = engine.drain();
        assert_eq!(outcomes.len(), 6);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o.result, Err(SchedulerError::JobPanicked { .. }))));
    }

    #[test]
    fn try_submit_backpressure_when_saturated() {
        let gate = Gate::new();
        let engine = stalled_engine(1, Some(1), &gate);
        // First job: popped by the worker, which then parks on the gate.
        let first = engine
            .admit(Submission::new(story("a", 2), JitterModel::ideal()))
            .unwrap();
        // Second: sits in the queue's single slot once the worker took the
        // first (the blocking submit waits for exactly that).
        let second = engine
            .admit(Submission::new(story("b", 2), JitterModel::ideal()))
            .unwrap();
        // Third: the slot is provably full and the worker parked.
        let refused = engine.try_admit(Submission::new(story("c", 2), JitterModel::ideal()));
        match refused {
            Err(SchedulerError::Backpressure { backlog }) => assert_eq!(backlog, 2),
            other => panic!("expected Backpressure, got {other:?}"),
        }
        assert_eq!(engine.backlog(), 2);
        gate.release();
        assert!(engine.wait(first).is_ok());
        assert!(engine.wait(second).is_ok());
    }

    #[test]
    fn blocked_submit_resumes_when_capacity_frees() {
        let gate = Gate::new();
        let engine = Arc::new(stalled_engine(1, Some(1), &gate));
        engine
            .admit(Submission::new(story("a", 2), JitterModel::ideal()))
            .unwrap();
        engine
            .admit(Submission::new(story("b", 2), JitterModel::ideal()))
            .unwrap();

        let (tx, rx) = std::sync::mpsc::channel();
        let submitter = {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                let id = engine.admit(Submission::new(story("c", 2), JitterModel::ideal()));
                tx.send(()).unwrap();
                id
            })
        };
        // While the worker is parked the queue stays full, so the submit
        // cannot have returned (a false pass here is impossible: returning
        // would need a queue slot only the parked worker can free).
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        gate.release();
        let id = submitter.join().unwrap().expect("unblocked submit admits");
        assert!(engine.wait(id).is_ok());
        assert_eq!(engine.drain().len(), 2);
    }

    #[test]
    fn close_stops_admission_while_the_backlog_drains() {
        let gate = Gate::new();
        let engine = stalled_engine(1, None, &gate);
        let ids: Vec<DocId> = (0..3)
            .map(|i| {
                engine
                    .admit(Submission::new(
                        story("queued", 2),
                        JitterModel::uniform(50, i),
                    ))
                    .unwrap()
            })
            .collect();
        engine.close();
        assert!(engine.is_closed());
        assert!(matches!(
            engine.admit(Submission::new(story("late", 2), JitterModel::ideal())),
            Err(SchedulerError::EngineClosed)
        ));
        assert!(matches!(
            engine.try_admit(Submission::new(story("late", 2), JitterModel::ideal())),
            Err(SchedulerError::EngineClosed)
        ));
        // The already-admitted backlog still drains to completion.
        gate.release();
        let outcomes = engine.drain();
        assert_eq!(outcomes.len(), ids.len());
        assert!(outcomes.iter().all(DocOutcome::is_ok));
        // close() is idempotent and keeps delivering nothing new.
        engine.close();
        assert!(engine.drain().is_empty());
    }

    #[test]
    fn close_unblocks_a_submitter_waiting_for_capacity() {
        let gate = Gate::new();
        let engine = Arc::new(stalled_engine(1, Some(1), &gate));
        engine
            .admit(Submission::new(story("a", 2), JitterModel::ideal()))
            .unwrap();
        engine
            .admit(Submission::new(story("b", 2), JitterModel::ideal()))
            .unwrap();
        let blocked = {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                engine.admit(Submission::new(story("c", 2), JitterModel::ideal()))
            })
        };
        // Whether the close lands before or after the thread starts
        // waiting, the submit must come back with EngineClosed.
        thread::sleep(Duration::from_millis(50));
        engine.close();
        assert!(matches!(
            blocked.join().unwrap(),
            Err(SchedulerError::EngineClosed)
        ));
        gate.release();
        assert_eq!(engine.drain().len(), 2);
    }

    #[test]
    fn zero_backlog_is_clamped_so_blocking_submits_make_progress() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            max_backlog: Some(0),
            ..EngineConfig::default()
        });
        let id = engine
            .admit(Submission::new(story("only", 2), JitterModel::ideal()))
            .unwrap();
        assert!(engine.wait(id).is_ok());
    }

    #[test]
    fn delivery_bookkeeping_stays_bounded_on_a_long_lived_engine() {
        let engine = Engine::with_workers(1);
        for i in 0..40 {
            let id = engine
                .admit(Submission::new(
                    story("long", 2),
                    JitterModel::uniform(30, i),
                ))
                .unwrap();
            assert!(engine.wait(id).is_ok());
        }
        let (floor, parked) = engine.delivery_bookkeeping();
        assert_eq!(floor, 40);
        assert_eq!(
            parked, 0,
            "delivery set must not grow with documents played"
        );

        // Out-of-order delivery parks an id only until the floor catches up.
        let a = engine
            .admit(Submission::new(story("a", 2), JitterModel::ideal()))
            .unwrap();
        let b = engine
            .admit(Submission::new(story("b", 2), JitterModel::ideal()))
            .unwrap();
        assert!(engine.wait(b).is_ok());
        let (_, parked) = engine.delivery_bookkeeping();
        assert_eq!(parked, 1);
        assert!(engine.wait(a).is_ok());
        let (floor, parked) = engine.delivery_bookkeeping();
        assert_eq!(floor, 42);
        assert_eq!(parked, 0);
    }

    #[test]
    fn undelivered_counts_finished_outcomes_until_collected() {
        let engine = Engine::with_workers(2);
        for i in 0..3 {
            engine
                .admit(Submission::new(
                    story("idle", 2),
                    JitterModel::uniform(40, i),
                ))
                .unwrap();
        }
        // Wait for the jobs to finish without delivering their outcomes.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while engine.backlog() > 0 {
            assert!(std::time::Instant::now() < deadline, "jobs never finished");
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(engine.undelivered(), 3);
        assert_eq!(engine.backlog(), 0);
        assert_eq!(engine.drain().len(), 3);
        assert_eq!(engine.undelivered(), 0);
    }

    #[test]
    fn precomputed_solve_skips_derivation_but_matches_it() {
        let doc = Arc::new(story("pre", 3));
        let jitter = JitterModel::uniform(150, 11);
        let engine = Engine::with_workers(1);
        let derived = engine
            .admit(Submission::new(Arc::clone(&doc), jitter.clone()))
            .unwrap();
        let solve = ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(&doc, &doc.catalog)
            .unwrap();
        let precomputed = engine
            .admit(Submission::new(Arc::clone(&doc), jitter).solved(solve))
            .unwrap();
        assert_eq!(
            engine.wait(derived).result.unwrap(),
            engine.wait(precomputed).result.unwrap(),
            "the precomputed-solve path diverged from the derive path"
        );
    }

    #[test]
    fn drain_on_an_idle_engine_returns_empty() {
        let engine = Engine::with_workers(2);
        assert!(engine.drain().is_empty());
        assert_eq!(engine.backlog(), 0);
        engine.shutdown();
    }

    #[test]
    #[should_panic(expected = "never admitted")]
    fn waiting_for_a_foreign_ticket_panics() {
        let engine = Engine::with_workers(1);
        engine.wait(DocId(99));
    }

    #[test]
    #[should_panic(expected = "already delivered")]
    fn waiting_twice_for_one_outcome_panics_instead_of_hanging() {
        let engine = Engine::with_workers(1);
        let id = engine
            .admit(Submission::new(story("once", 2), JitterModel::ideal()))
            .unwrap();
        assert!(engine.wait(id).is_ok());
        engine.wait(id);
    }

    #[test]
    #[should_panic(expected = "already delivered")]
    fn waiting_after_drain_panics_instead_of_hanging() {
        let engine = Engine::with_workers(1);
        let id = engine
            .admit(Submission::new(story("drained", 2), JitterModel::ideal()))
            .unwrap();
        assert_eq!(engine.drain().len(), 1);
        engine.wait(id);
    }

    #[test]
    fn drain_returns_each_outcome_once_across_batches() {
        let engine = Engine::with_workers(2);
        for _ in 0..3 {
            engine
                .admit(Submission::new(story("batch-a", 2), JitterModel::ideal()))
                .unwrap();
        }
        assert_eq!(engine.drain().len(), 3);
        for _ in 0..2 {
            engine
                .admit(Submission::new(story("batch-b", 2), JitterModel::ideal()))
                .unwrap();
        }
        // The second drain sees only the second batch.
        assert_eq!(engine.drain().len(), 2);
    }

    #[test]
    fn submit_batch_admits_contiguously_and_plays_everything() {
        let engine = Engine::with_workers(2);
        let doc = Arc::new(story("batched", 2));
        let ids = engine
            .submit_batch((0..10u64).map(|i| {
                Submission::new(Arc::clone(&doc), JitterModel::uniform(60, i))
                    .labeled(format!("job-{i}"))
            }))
            .unwrap();
        assert_eq!(ids.len(), 10);
        // One transaction, contiguous admission-order ids.
        for pair in ids.windows(2) {
            assert_eq!(pair[1].0, pair[0].0 + 1);
        }
        let outcomes = engine.drain();
        assert_eq!(outcomes.len(), 10);
        assert!(outcomes.iter().all(DocOutcome::is_ok));
        assert_eq!(outcomes[3].label, "job-3");
        assert!(engine.submit_batch(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn oversized_batch_on_a_bounded_queue_is_refused_not_deadlocked() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            max_backlog: Some(2),
            ..EngineConfig::default()
        });
        let doc = Arc::new(story("big", 2));
        let err = engine
            .submit_batch((0..5).map(|_| Submission::new(Arc::clone(&doc), JitterModel::ideal())))
            .expect_err("a 5-doc batch can never fit a 2-slot queue");
        assert!(matches!(err, SchedulerError::Backpressure { .. }));
        // A batch that exactly fits the bound goes through.
        let ids = engine
            .submit_batch((0..2).map(|_| Submission::new(Arc::clone(&doc), JitterModel::ideal())))
            .unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(engine.drain().len(), 2);
    }

    #[test]
    fn quota_refuses_with_retry_hint_and_spares_capacity_refusals() {
        let tenant = TenantId::new(7);
        let engine = Engine::with_workers(1);
        engine.set_tenant_policy(
            tenant,
            TenantPolicy::default().with_quota(QuotaConfig::new(2, 1000.0)),
        );
        let doc = Arc::new(story("metered", 2));
        let submit = || Submission::new(Arc::clone(&doc), JitterModel::ideal()).tenant(tenant);
        let a = engine.admit(submit()).unwrap();
        let b = engine.admit(submit()).unwrap();
        // Third admission in the same burst: over quota, with a finite
        // retry hint (the bucket refills at 1000/s).
        match engine.try_admit(submit()) {
            Err(SchedulerError::QuotaExceeded {
                tenant: refused,
                retry_after_ms,
            }) => {
                assert_eq!(refused, tenant);
                assert!(retry_after_ms <= 1_000, "hint {retry_after_ms}ms");
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        assert!(engine.wait(a).is_ok());
        assert!(engine.wait(b).is_ok());
        let stats = engine.tenant_stats();
        let row = stats.iter().find(|r| r.tenant == tenant).unwrap();
        assert_eq!(row.submitted, 2);
        assert_eq!(row.quota_refusals, 1);
        assert_eq!(row.completed, 2);
        assert_eq!(row.ok, 2);
        assert!(row.max_latency_ms >= row.mean_latency_ms);
    }

    #[test]
    fn batch_quota_is_all_or_nothing() {
        let tenant = TenantId::new(3);
        let engine = Engine::with_workers(1);
        engine.set_tenant_policy(
            tenant,
            // Never refills: 3 admissions, ever.
            TenantPolicy::default().with_quota(QuotaConfig::new(3, 0.0)),
        );
        let doc = Arc::new(story("burst", 2));
        let batch = |n: usize| {
            (0..n)
                .map(|_| Submission::new(Arc::clone(&doc), JitterModel::ideal()).tenant(tenant))
                .collect::<Vec<_>>()
        };
        // A 4-doc batch over a 3-token bucket: nothing admitted, nothing
        // charged.
        let err = engine.submit_batch(batch(4)).expect_err("over quota");
        assert!(matches!(
            err,
            SchedulerError::QuotaExceeded {
                retry_after_ms: u64::MAX,
                ..
            }
        ));
        assert_eq!(engine.backlog() + engine.undelivered(), 0);
        // The refusal consumed no tokens: a 3-doc batch still fits.
        let ids = engine.submit_batch(batch(3)).unwrap();
        assert_eq!(ids.len(), 3);
        assert_eq!(engine.drain().len(), 3);
    }

    #[test]
    fn outcomes_carry_their_tenant_and_stats_split_by_tenant() {
        let news = TenantId::new(1);
        let sport = TenantId::new(2);
        let engine = Engine::with_workers(2);
        let doc = Arc::new(story("tagged", 2));
        let mut expected = HashMap::new();
        for (tenant, n) in [(news, 3usize), (sport, 2usize)] {
            for _ in 0..n {
                engine
                    .admit(Submission::new(Arc::clone(&doc), JitterModel::ideal()).tenant(tenant))
                    .unwrap();
            }
            expected.insert(tenant, n);
        }
        let outcomes = engine.drain();
        let mut by_tenant: HashMap<TenantId, usize> = HashMap::new();
        for outcome in &outcomes {
            *by_tenant.entry(outcome.tenant).or_default() += 1;
        }
        assert_eq!(by_tenant, expected);
        for row in engine.tenant_stats() {
            assert_eq!(row.submitted as usize, expected[&row.tenant]);
            assert_eq!(row.completed as usize, expected[&row.tenant]);
            assert_eq!(row.failed, 0);
        }
    }

    #[test]
    fn dispatch_accounts_for_every_admitted_job() {
        let engine = Engine::with_workers(4);
        let doc = Arc::new(story("spread", 2));
        let ids = engine
            .submit_batch(
                (0..32u64).map(|i| Submission::new(Arc::clone(&doc), JitterModel::uniform(40, i))),
            )
            .unwrap();
        assert_eq!(engine.drain().len(), ids.len());
        let stats = engine.queue_stats();
        // Every admitted job left the run queue exactly once, to a worker
        // (`refills`) or to the draining caller (`helped`).
        assert_eq!(stats.dispatched(), 32, "{stats:?}");
        assert_eq!(stats.steal_ratio(), 0.0);
    }

    #[test]
    fn apply_edit_rejects_unknown_and_completed_documents() {
        let engine = Engine::with_workers(1);
        let doc = story("target", 2);
        let line = doc.find("/line").unwrap();
        let edit = Edit::RemoveSubtree { node: line };
        match engine.apply_edit(DocId(5), edit.clone()) {
            Err(SchedulerError::EditRejected { doc, reason }) => {
                assert_eq!(doc, DocId(5));
                assert_eq!(reason, "unknown document");
            }
            other => panic!("expected EditRejected, got {other:?}"),
        }
        let id = engine
            .admit(Submission::new(doc, JitterModel::ideal()))
            .unwrap();
        assert!(engine.wait(id).is_ok());
        // The mailbox retires with the job: late routing fails fast.
        assert!(matches!(
            engine.apply_edit(id, edit),
            Err(SchedulerError::EditRejected {
                reason: "document already completed",
                ..
            })
        ));
    }

    #[test]
    fn pre_start_edits_fold_into_the_document_and_report_outcomes() {
        use cmif_core::edit::NodeSpec;
        let gate = Gate::new();
        let engine = stalled_engine(1, None, &gate);
        let doc = story("edited", 2);
        let root = doc.root().unwrap();
        let id = engine
            .admit(Submission::new(doc, JitterModel::ideal()))
            .unwrap();
        // The worker is parked at the job hook, which fires before the
        // pre-start drain: both edits provably land before the solve.
        engine
            .apply_edit(
                id,
                Edit::InsertSubtree {
                    parent: root,
                    spec: NodeSpec::imm_text("coda", "and one more thing")
                        .on_channel("caption")
                        .lasting_ms(5_000),
                },
            )
            .unwrap();
        // Removing the root is invalid: refused, document unharmed.
        engine
            .apply_edit(id, Edit::RemoveSubtree { node: root })
            .unwrap();
        gate.release();
        let outcome = engine.wait(id);
        let report = outcome.result.expect("edited document still plays");
        // The par root now holds a 5s caption next to the 2s voice.
        assert_eq!(report.total_duration, TimeMs::from_secs(5));
        assert!(report.events.iter().any(|e| e.name.as_str() == "coda"));
        assert_eq!(outcome.edits.len(), 2);
        assert!(outcome.edits[0].result.is_ok(), "{:?}", outcome.edits[0]);
        assert_eq!(outcome.edits[0].at, TimeMs::ZERO);
        assert!(outcome.edits[1].result.is_err(), "{:?}", outcome.edits[1]);
    }

    /// Delegates to the document's catalog — and the first time anything
    /// resolves through it, drops the prepared edit into the mailbox.
    /// Resolution first happens during constraint derivation, i.e. *after*
    /// the job's pre-start drain, so the edit deterministically arrives
    /// mid-playback and must be picked up at a tick boundary. No threads,
    /// no races.
    struct EditingResolver {
        doc: Arc<Document>,
        mailbox: Mailbox,
        edit: Mutex<Option<Edit>>,
    }

    impl DescriptorResolver for EditingResolver {
        fn resolve(&self, key: &str) -> Option<DataDescriptor> {
            if let Some(edit) = self.edit.lock().unwrap().take() {
                self.mailbox.lock().unwrap().push(edit);
            }
            self.doc.catalog.resolve(key)
        }
    }

    #[test]
    fn mid_playback_edits_swap_at_a_tick_boundary() {
        use cmif_core::edit::NodeSpec;
        let doc = Arc::new(story("live", 2));
        let root = doc.root().unwrap();
        let mailbox: Mailbox = Arc::new(Mutex::new(Vec::new()));
        let edit = Edit::InsertSubtree {
            parent: root,
            spec: NodeSpec::imm_text("coda", "breaking update")
                .on_channel("caption")
                .lasting_ms(6_000),
        };
        let resolver = EditingResolver {
            doc: Arc::clone(&doc),
            mailbox: Arc::clone(&mailbox),
            edit: Mutex::new(Some(edit)),
        };
        let job = Job {
            id: DocId(0),
            tenant: TenantId::DEFAULT,
            label: "live".to_string(),
            doc: Arc::clone(&doc),
            jitter: JitterModel::ideal(),
            resolver: Some(Arc::new(resolver)),
            solve: None,
            edits: Arc::clone(&mailbox),
            admitted_at: Instant::now(),
        };
        let (report, outcomes) = run_job(&EngineConfig::default(), &job).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].result.is_ok(), "{:?}", outcomes[0].result);
        assert!(
            outcomes[0].at.as_millis() > 0,
            "a mid-playback edit lands at a boundary, not pre-start: {:?}",
            outcomes[0].at
        );
        assert_eq!(report.total_duration, TimeMs::from_secs(6));
        assert!(report.events.iter().any(|e| e.name.as_str() == "coda"));
        assert!(mailbox.lock().unwrap().is_empty());
    }

    /// Like [`EditingResolver`], but drops a whole burst of edits into the
    /// mailbox at once, so a single boundary drain holds all of them.
    struct BurstResolver {
        doc: Arc<Document>,
        mailbox: Mailbox,
        burst: Mutex<Vec<Edit>>,
    }

    impl DescriptorResolver for BurstResolver {
        fn resolve(&self, key: &str) -> Option<DataDescriptor> {
            let mut burst = self.burst.lock().unwrap();
            self.mailbox.lock().unwrap().append(&mut burst);
            self.doc.catalog.resolve(key)
        }
    }

    #[test]
    fn a_mid_playback_edit_whose_re_solve_fails_leaves_the_next_one_applicable() {
        use cmif_core::edit::NodeSpec;
        // `voice` (2 s) plays before `line`. An arc on `voice` from
        // `line`'s begin that tolerates starting 5 s early closes a cycle
        // of weight 2 - 5 < 0; retiming that window to 0 makes it positive.
        let mut doc = DocumentBuilder::new("retimed")
            .channel("audio", MediaKind::Audio)
            .channel("caption", MediaKind::Text)
            .descriptor(
                DataDescriptor::new("speech", MediaKind::Audio, "pcm8")
                    .with_duration(TimeMs::from_secs(2)),
            )
            .root_seq(|root| {
                root.ext("voice", "audio", "speech");
                root.imm_text("line", "caption", "hello", 1_000);
            })
            .build()
            .unwrap();
        let voice = doc.find("/voice").unwrap();
        doc.add_arc(
            voice,
            SyncArc::hard_start("../line", "")
                .with_window(DelayMs::from_millis(-5_000), MaxDelay::Unbounded),
        )
        .unwrap();
        let doc = Arc::new(doc);
        let root = doc.root().unwrap();
        let mailbox: Mailbox = Arc::new(Mutex::new(Vec::new()));
        let burst = vec![
            Edit::RetimeArc {
                index: 0,
                min_delay_ms: 0,
                max_delay_ms: None,
                offset_ms: None,
            },
            Edit::InsertSubtree {
                parent: root,
                spec: NodeSpec::imm_text("coda", "and one more thing")
                    .on_channel("caption")
                    .lasting_ms(3_000),
            },
        ];
        let resolver = BurstResolver {
            doc: Arc::clone(&doc),
            mailbox: Arc::clone(&mailbox),
            burst: Mutex::new(burst),
        };
        let job = Job {
            id: DocId(0),
            tenant: TenantId::DEFAULT,
            label: "retimed".to_string(),
            doc: Arc::clone(&doc),
            jitter: JitterModel::ideal(),
            resolver: Some(Arc::new(resolver)),
            solve: None,
            edits: Arc::clone(&mailbox),
            admitted_at: Instant::now(),
        };
        let (report, outcomes) = run_job(&EngineConfig::default(), &job).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(
            matches!(
                outcomes[0].result,
                Err(SchedulerError::ConstraintCycle { phase: "solve", .. })
            ),
            "{:?}",
            outcomes[0]
        );
        assert!(outcomes[1].result.is_ok(), "{:?}", outcomes[1]);
        assert!(outcomes[0].at.as_millis() > 0, "{:?}", outcomes[0].at);
        assert_eq!(outcomes[0].at, outcomes[1].at, "one drain held both");
        // voice, line, then the 3 s coda.
        assert_eq!(report.total_duration, TimeMs::from_secs(6));
        assert!(report.events.iter().any(|e| e.name.as_str() == "coda"));
    }

    #[test]
    fn edits_stranded_by_a_failed_job_become_rejected_outcomes() {
        let gate = Gate::new();
        let hook_gate = Arc::clone(&gate);
        let engine = Engine::new(EngineConfig {
            workers: 1,
            job_hook: Some(JobHook::new(move |_| {
                hook_gate.wait();
                panic!("wedged mid-broadcast");
            })),
            ..EngineConfig::default()
        });
        let doc = story("doomed", 2);
        let line = doc.find("/line").unwrap();
        let id = engine
            .admit(Submission::new(doc, JitterModel::ideal()))
            .unwrap();
        engine
            .apply_edit(id, Edit::RemoveSubtree { node: line })
            .unwrap();
        gate.release();
        let outcome = engine.wait(id);
        assert!(matches!(
            outcome.result,
            Err(SchedulerError::JobPanicked { .. })
        ));
        // The routed edit was never drained — accounted for, not lost.
        assert_eq!(outcome.edits.len(), 1);
        assert!(matches!(
            outcome.edits[0].result,
            Err(SchedulerError::EditRejected {
                reason: "document already completed",
                ..
            })
        ));
    }

    #[test]
    fn default_tenant_policy_applies_quota_to_untagged_work() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        engine.set_tenant_policy(
            TenantId::DEFAULT,
            TenantPolicy::default().with_quota(QuotaConfig::new(1, 0.0)),
        );
        let doc = Arc::new(story("default", 2));
        engine
            .admit(Submission::new(Arc::clone(&doc), JitterModel::ideal()))
            .unwrap();
        assert!(matches!(
            engine.admit(Submission::new(Arc::clone(&doc), JitterModel::ideal())),
            Err(SchedulerError::QuotaExceeded { tenant, .. }) if tenant == TenantId::DEFAULT
        ));
        assert_eq!(engine.drain().len(), 1);
    }
}

#[cfg(test)]
mod sim {
    //! Deterministic simulation of the engine against a sequential model.
    //!
    //! An engine without worker threads plays its jobs only on the caller
    //! waiting in `wait` or `drain`, so one thread replays it exactly from a
    //! seed. Workers and waiting callers take jobs through the same
    //! `Shared::take`, so the simulation replays the only path a job can
    //! take off the run queue. A seeded script drives such an engine
    //! through `admit`, `try_admit` and `submit_batch` on a bounded queue,
    //! `wait` on random undelivered ids, `drain`, live edits routed before a
    //! job starts and after it completes, one `close`, three tenants
    //! weighted 1, 2 and 3 (the middle one under a quota that never
    //! refills), and a job hook that panics on seeded labels. Each step is
    //! checked against the model:
    //!
    //! * each admitted id is delivered exactly once;
    //! * `Backpressure`, `EngineClosed` and `QuotaExceeded` occur exactly where
    //!   the model predicts;
    //! * start order, which the hook records, is FIFO within each tenant;
    //! * each routed edit appears exactly once in its outcome;
    //! * each `Ok` report equals the report a 4-worker engine gives for the
    //!   same submission.
    //!
    //! A failing seed prints itself. Replay it with [`simulate`], and keep it
    //! as a named regression test once it is understood.

    use std::collections::HashMap;
    use std::panic::resume_unwind;
    use std::sync::{Arc, Mutex};

    use cmif_core::edit::{DocRevision, Edit, NodeSpec};
    use cmif_core::prelude::*;
    use cmif_core::tree::Document;

    use super::{
        DocId, DocOutcome, EditOutcome, Engine, EngineConfig, JobHook, QuotaConfig, Submission,
        TenantId, TenantPolicy,
    };
    use crate::environment::JitterModel;
    use crate::error::{Result, SchedulerError};
    use crate::player::PlaybackReport;

    #[cfg(not(miri))]
    const SEEDS: u64 = 96;
    #[cfg(miri)]
    const SEEDS: u64 = 2;
    #[cfg(not(miri))]
    const STEPS: usize = 48;
    #[cfg(miri)]
    const STEPS: usize = 12;

    /// The tenants and their stride weights.
    const TENANTS: [(TenantId, u32); 3] = [
        (TenantId::new(1), 1),
        (TenantId::new(2), 2),
        (TenantId::new(3), 3),
    ];
    /// The tenant whose quota never refills.
    const METERED: TenantId = TenantId::new(2);
    /// The payload of the hook's injected panics.
    const FAULT: &str = "injected fault";

    /// SplitMix64: the script's only source of choices.
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
            (self.next() % n as u64) as usize
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }
    }

    /// A voice and a caption playing in parallel for `secs` seconds.
    fn story(secs: i64) -> Arc<Document> {
        let doc = DocumentBuilder::new("story")
            .channel("audio", MediaKind::Audio)
            .channel("caption", MediaKind::Text)
            .descriptor(
                DataDescriptor::new("speech", MediaKind::Audio, "pcm8")
                    .with_duration(TimeMs::from_secs(secs)),
            )
            .root_par(|root| {
                root.ext("voice", "audio", "speech");
                root.imm_text("line", "caption", "hello", 1_000);
            })
            .build()
            .expect("the story document is valid");
        Arc::new(doc)
    }

    /// What the model knows of one submission, admitted or not.
    struct Draft {
        tenant: TenantId,
        label: String,
        doc: Arc<Document>,
        jitter: JitterModel,
        /// The hook panics when this job starts.
        doomed: bool,
    }

    impl Draft {
        fn submission(&self) -> Submission {
            Submission::new(Arc::clone(&self.doc), self.jitter.clone())
                .tenant(self.tenant)
                .labeled(self.label.clone())
        }
    }

    /// An admitted job, as the model tracks it.
    struct Admitted {
        draft: Draft,
        /// Edits routed while it was queued, in routing order.
        edits: Vec<Edit>,
        started: bool,
        delivered: bool,
    }

    /// What an admission must do, per the model.
    enum Verdict {
        Admit,
        /// The bounded queue has no room: `try_admit` refuses, a blocking
        /// call would wait for a job to start.
        Full,
        Refuse(SchedulerError),
    }

    /// The sequential model of one engine.
    struct Model {
        /// Admitted jobs, indexed by raw [`DocId`] (ids are contiguous).
        admitted: Vec<Admitted>,
        by_label: HashMap<String, usize>,
        limit: usize,
        /// The metered tenant's remaining quota.
        tokens: usize,
        quota_refusals: u64,
        closed: bool,
        /// Hook-log entries already matched to jobs.
        seen: usize,
        /// Labels counter: labels are unique and rise with submission order.
        drafted: usize,
        /// Each `Ok` outcome's report, with the document and jitter the
        /// reference engine replays.
        played: Vec<(PlaybackReport, Arc<Document>, JitterModel)>,
    }

    impl Model {
        fn queued(&self) -> usize {
            self.admitted.iter().filter(|job| !job.started).count()
        }

        /// The ids of the admitted jobs that `keep` selects.
        fn ids(&self, keep: impl Fn(&Admitted) -> bool) -> Vec<usize> {
            (0..self.admitted.len())
                .filter(|&id| keep(&self.admitted[id]))
                .collect()
        }

        fn draft(&mut self, rng: &mut Rng, docs: &[Arc<Document>]) -> Draft {
            let (tenant, _) = TENANTS[rng.below(TENANTS.len())];
            let doomed = rng.one_in(8);
            self.drafted += 1;
            Draft {
                tenant,
                label: format!(
                    "{}/{}{}",
                    tenant.as_u64(),
                    self.drafted,
                    if doomed { "!" } else { "" }
                ),
                doc: Arc::clone(&docs[rng.below(docs.len())]),
                jitter: JitterModel::uniform(rng.below(200) as i64, rng.next()),
                doomed,
            }
        }

        /// The engine's admission path, sequentially: closed, oversized,
        /// capacity, then quota.
        fn verdict(&self, drafts: &[Draft]) -> Verdict {
            let backpressure = SchedulerError::Backpressure {
                backlog: self.queued(),
            };
            if self.closed {
                return Verdict::Refuse(SchedulerError::EngineClosed);
            }
            if drafts.len() > self.limit {
                return Verdict::Refuse(backpressure);
            }
            if self.queued() + drafts.len() > self.limit {
                return Verdict::Full;
            }
            if self.metered(drafts) > self.tokens {
                return Verdict::Refuse(SchedulerError::QuotaExceeded {
                    tenant: METERED,
                    retry_after_ms: u64::MAX,
                });
            }
            Verdict::Admit
        }

        fn metered(&self, drafts: &[Draft]) -> usize {
            drafts.iter().filter(|d| d.tenant == METERED).count()
        }

        /// Checks an admission's result against `verdict` (never `Full` for a
        /// blocking call) and records it.
        fn admit(&mut self, drafts: Vec<Draft>, verdict: Verdict, got: Result<Vec<DocId>>) {
            let refusal = match verdict {
                Verdict::Admit => None,
                Verdict::Full => Some(SchedulerError::Backpressure {
                    backlog: self.queued(),
                }),
                Verdict::Refuse(error) => Some(error),
            };
            match (refusal, got) {
                (None, Ok(ids)) => {
                    let first = self.admitted.len() as u64;
                    let expected: Vec<DocId> =
                        (first..first + drafts.len() as u64).map(DocId).collect();
                    assert_eq!(ids, expected, "admitted under unexpected ids");
                    self.tokens -= self.metered(&drafts);
                    for draft in drafts {
                        self.by_label
                            .insert(draft.label.clone(), self.admitted.len());
                        self.admitted.push(Admitted {
                            draft,
                            edits: Vec::new(),
                            started: false,
                            delivered: false,
                        });
                    }
                }
                (Some(expected), Err(error)) => {
                    assert_eq!(format!("{error:?}"), format!("{expected:?}"));
                    if matches!(error, SchedulerError::QuotaExceeded { .. }) {
                        self.quota_refusals += self.metered(&drafts) as u64;
                    }
                }
                (expected, got) => panic!("admission: expected {expected:?}, got {got:?}"),
            }
        }

        /// Marks every job the hook saw start since the last call.
        fn sync_starts(&mut self, log: &Mutex<Vec<String>>) {
            let log = log.lock().expect("hook log");
            for label in &log[self.seen..] {
                let id = self.by_label[label];
                assert!(!self.admitted[id].started, "{label} started twice");
                self.admitted[id].started = true;
            }
            self.seen = log.len();
        }

        /// Checks one delivered outcome against the model.
        fn deliver(&mut self, outcome: DocOutcome) {
            let id = outcome.id;
            let job = &mut self.admitted[id.0 as usize];
            assert!(job.started, "{id} delivered without starting");
            assert!(!job.delivered, "{id} delivered twice");
            job.delivered = true;
            assert_eq!(outcome.tenant, job.draft.tenant);
            assert_eq!(outcome.label, job.draft.label);
            let mut expected = Vec::new();
            let mut revision = DocRevision::initial(Arc::clone(&job.draft.doc));
            for edit in &job.edits {
                // A doomed job panics in the hook, before its mailbox is ever
                // drained: every routed edit is stranded.
                let result = if job.draft.doomed {
                    Err(SchedulerError::EditRejected {
                        doc: id,
                        reason: "document already completed",
                    })
                } else {
                    match revision.apply(edit) {
                        Ok((next, _)) => {
                            revision = next;
                            Ok(())
                        }
                        Err(refusal) => Err(refusal.into()),
                    }
                };
                expected.push(EditOutcome {
                    edit: edit.clone(),
                    at: TimeMs::ZERO,
                    result,
                });
            }
            assert_eq!(format!("{:?}", outcome.edits), format!("{expected:?}"));
            match (job.draft.doomed, outcome.result) {
                (true, Err(SchedulerError::JobPanicked { message })) => assert_eq!(message, FAULT),
                (false, Ok(report)) => {
                    let doc = Arc::clone(revision.doc());
                    self.played.push((report, doc, job.draft.jitter.clone()));
                }
                (doomed, result) => panic!("{id} (doomed: {doomed}) ended in {result:?}"),
            }
        }
    }

    /// Runs the script for `seed`, checking each step, and returns the hook's
    /// log: the order the jobs started in.
    fn simulate(seed: u64, reference: &Engine) -> Vec<String> {
        let mut rng = Rng(seed);
        let limit = 1 + rng.below(4);
        let burst = 1 + rng.below(4);
        let log: Arc<Mutex<Vec<String>>> = Arc::default();
        let hook_log = Arc::clone(&log);
        let engine = Engine::without_workers(EngineConfig {
            max_backlog: Some(limit),
            job_hook: Some(JobHook::new(move |label| {
                hook_log.lock().expect("hook log").push(label.to_string());
                if label.ends_with('!') {
                    // Unwinds without the panic hook's report on stderr.
                    resume_unwind(Box::new(FAULT));
                }
            })),
            ..EngineConfig::default()
        });
        for (tenant, weight) in TENANTS {
            let mut policy = TenantPolicy::weighted(weight);
            if tenant == METERED {
                policy = policy.with_quota(QuotaConfig::new(burst as u32, 0.0));
            }
            engine.set_tenant_policy(tenant, policy);
        }
        let docs: Vec<Arc<Document>> = (1..=3).map(story).collect();
        let mut model = Model {
            admitted: Vec::new(),
            by_label: HashMap::new(),
            limit,
            tokens: burst,
            quota_refusals: 0,
            closed: false,
            seen: 0,
            drafted: 0,
            played: Vec::new(),
        };
        let drain = |model: &mut Model| {
            let outcomes = engine.drain();
            model.sync_starts(&log);
            let ids: Vec<usize> = outcomes.iter().map(|o| o.id.0 as usize).collect();
            let expected = model.ids(|job| !job.delivered);
            assert_eq!(ids, expected, "drain delivered the wrong outcomes");
            for outcome in outcomes {
                model.deliver(outcome);
            }
        };
        let close_at = STEPS / 2 + rng.below(STEPS / 2);
        for step in 0..STEPS {
            if step == close_at {
                engine.close();
                model.closed = true;
                continue;
            }
            match rng.below(11) {
                // `admit`, `try_admit` and `submit_batch` (at times one larger
                // than the bound).
                op @ 0..=4 => {
                    let batch = op == 4;
                    let count = if batch { 1 + rng.below(limit + 1) } else { 1 };
                    let drafts: Vec<Draft> =
                        (0..count).map(|_| model.draft(&mut rng, &docs)).collect();
                    let blocking = batch || op < 2;
                    let mut verdict = model.verdict(&drafts);
                    if blocking && matches!(verdict, Verdict::Full) {
                        // Here only this thread can free capacity, by playing
                        // queued jobs: drain first, so the call fits.
                        drain(&mut model);
                        verdict = model.verdict(&drafts);
                    }
                    let submissions = drafts.iter().map(Draft::submission);
                    let got = if batch {
                        engine.submit_batch(submissions)
                    } else if blocking {
                        engine.admit(drafts[0].submission()).map(|id| vec![id])
                    } else {
                        engine.try_admit(drafts[0].submission()).map(|id| vec![id])
                    };
                    model.admit(drafts, verdict, got);
                }
                // `wait` on a random undelivered id.
                5..=7 => {
                    let pending = model.ids(|job| !job.delivered);
                    if pending.is_empty() {
                        continue;
                    }
                    let id = pending[rng.below(pending.len())];
                    let was_started = model.admitted[id].started;
                    let outcome = engine.wait(DocId(id as u64));
                    model.sync_starts(&log);
                    if !was_started {
                        // The waiter stops playing as soon as its own outcome
                        // exists: its own job was the last one it started.
                        let last = log.lock().expect("hook log").last().cloned();
                        assert_eq!(last.as_ref(), Some(&model.admitted[id].draft.label));
                    }
                    assert_eq!(outcome.id, DocId(id as u64));
                    model.deliver(outcome);
                }
                8 => drain(&mut model),
                // A live edit: mostly to a queued job, else to any id, a
                // finished job's or one never issued.
                _ => {
                    let queued = model.ids(|job| !job.started);
                    let id = if queued.is_empty() || rng.one_in(3) {
                        rng.below(model.admitted.len() + 1)
                    } else {
                        queued[rng.below(queued.len())]
                    };
                    let root = docs[0].root().expect("story root");
                    let edit = if rng.one_in(3) {
                        Edit::RemoveSubtree { node: root }
                    } else {
                        Edit::InsertSubtree {
                            parent: root,
                            spec: NodeSpec::imm_text(format!("coda{step}"), "late news")
                                .on_channel("caption")
                                .lasting_ms(500 + rng.below(4_000) as i64),
                        }
                    };
                    let got = engine.apply_edit(DocId(id as u64), edit.clone());
                    let expected = match model.admitted.get_mut(id) {
                        None => Err(SchedulerError::EditRejected {
                            doc: DocId(id as u64),
                            reason: "unknown document",
                        }),
                        Some(job) if job.started => Err(SchedulerError::EditRejected {
                            doc: DocId(id as u64),
                            reason: "document already completed",
                        }),
                        Some(job) => {
                            job.edits.push(edit);
                            Ok(())
                        }
                    };
                    assert_eq!(format!("{got:?}"), format!("{expected:?}"));
                }
            }
        }
        drain(&mut model);

        // Every admitted job played exactly once, on this thread.
        let played = model.admitted.len() as u64;
        let stats = engine.queue_stats();
        assert_eq!((stats.helped, stats.dispatched()), (played, played));
        assert_eq!((engine.backlog(), engine.undelivered()), (0, 0));

        // Start order is FIFO within each tenant.
        let log = log.lock().expect("hook log").clone();
        let mut last_start: HashMap<&str, usize> = HashMap::new();
        for label in &log {
            let (tenant, rest) = label.split_once('/').expect("tenant/number label");
            let number: usize = rest.trim_end_matches('!').parse().expect("label number");
            let previous = last_start.insert(tenant, number);
            assert!(
                previous < Some(number),
                "tenant {tenant} started {label} after its #{previous:?}"
            );
        }

        let rows: Vec<_> = engine
            .tenant_stats()
            .into_iter()
            .map(|row| {
                (
                    row.tenant,
                    row.submitted,
                    row.quota_refusals,
                    row.ok,
                    row.failed,
                )
            })
            .collect();
        let expected: Vec<_> = TENANTS
            .iter()
            .map(|&(tenant, _)| {
                let jobs = model
                    .admitted
                    .iter()
                    .filter(|job| job.draft.tenant == tenant);
                let failed = jobs.clone().filter(|job| job.draft.doomed).count() as u64;
                let submitted = jobs.count() as u64;
                let refusals = if tenant == METERED {
                    model.quota_refusals
                } else {
                    0
                };
                (tenant, submitted, refusals, submitted - failed, failed)
            })
            .collect();
        assert_eq!(rows, expected, "tenant stats");

        // Each report equals the one a threaded engine plays.
        let ids = reference
            .submit_batch(
                model
                    .played
                    .iter()
                    .map(|(_, doc, jitter)| Submission::new(Arc::clone(doc), jitter.clone())),
            )
            .expect("the reference engine admits everything");
        for (id, (report, _, _)) in ids.into_iter().zip(&model.played) {
            let threaded = reference.wait(id).result.expect("the reference plays");
            assert_eq!(&threaded, report, "{id} played differently on 4 workers");
        }
        log
    }

    /// Runs `simulate(seed)`, naming the seed if a check fails.
    fn check(seed: u64, reference: &Engine) -> Vec<String> {
        struct NameSeed(u64);
        impl Drop for NameSeed {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    eprintln!("engine simulation failed at seed {}", self.0);
                }
            }
        }
        let _name = NameSeed(seed);
        simulate(seed, reference)
    }

    fn reference() -> Engine {
        Engine::with_workers(4)
    }

    #[test]
    fn seeded_scripts_match_the_sequential_model() {
        let reference = reference();
        for seed in 0..SEEDS {
            check(seed, &reference);
        }
    }

    #[test]
    fn a_seed_replays_the_same_start_order() {
        let reference = reference();
        for seed in [SEEDS, SEEDS + 1] {
            assert_eq!(check(seed, &reference), check(seed, &reference));
        }
    }
}
