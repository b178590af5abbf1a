//! The multi-document, multi-tenant scheduling engine.
//!
//! The one-shot entry points processed one document per call and rebuilt
//! all state each time — a dead end for a server that must multiplex many
//! cheap client sessions over shared worker state (Gray's *Locally Served
//! Network Computers* argument). [`Engine`] is that server side: it admits
//! N documents, schedules and plays them concurrently across a fixed pool
//! of worker threads, and returns one [`PlaybackReport`] per document.
//!
//! The run queue is hand-rolled on `std::sync::{Mutex, Condvar}` (no
//! registry access, so no tokio) and split into two planes so the shared
//! lock stops being the serialization point as workers multiply:
//!
//! * the **tenant plane** (`tenant`) — one mutex holding a FIFO per
//!   [`TenantId`], dispatched by stride scheduling so a noisy tenant with
//!   10 000 queued documents cannot delay a tenant submitting one, plus
//!   the token-bucket admission quotas and the FIFO admission ticket gate
//!   (`ticket`);
//! * the **worker plane** (`queue`) — one deque per worker. A worker
//!   runs out of its own shard, refills a small batch
//!   ([`EngineConfig::refill_batch`]) from the tenant plane when its shard
//!   runs dry, and steals from a sibling when the plane is empty too.
//!   Submitters and workers therefore contend on the shared lock once per
//!   *batch*, not once per job — and [`Engine::submit_batch`] amortises
//!   the submitter side the same way.
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
//! into a [`SchedulerError::JobPanicked`] outcome. Either way the worker
//! keeps serving and `drain()`/`wait()` terminate.
//!
//! Admission is controlled on two axes:
//!
//! * **capacity** — with [`EngineConfig::max_backlog`] set, a full queue
//!   makes [`Engine::admit`] and [`Engine::submit_batch`] block until a
//!   worker frees capacity while [`Engine::try_admit`] refuses immediately
//!   with [`SchedulerError::Backpressure`]. Blocked submitters hold FIFO
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
//! keeps draining.
//!
//! Determinism: each submission carries its own seeded [`JitterModel`], so
//! the report produced for a document is identical whether it played alone
//! or next to 63 concurrent siblings — and regardless of which worker
//! stole it.
//!
//! **Live edits.** Every admitted document owns an edit mailbox for its
//! whole engine lifetime. [`Engine::apply_edit`] routes a
//! [`cmif_core::edit::Edit`] into that mailbox from any thread; the owning
//! worker drains it before solving and again at every tick boundary,
//! repairing the constraint fixpoint incrementally
//! ([`crate::author::EditSession`]) and swapping the playing session onto
//! the new revision ([`crate::session::PlayerSession::swap_revision`]).
//! Each routed edit is accounted for exactly once in
//! [`DocOutcome::edits`] — applied at a boundary, refused by validation,
//! or rejected because it arrived after the document completed.

mod queue;
mod tenant;
mod ticket;

pub use queue::QueueStats;
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

use crate::author::EditSession;
use crate::environment::JitterModel;
use crate::error::{Result, SchedulerError};
use crate::graph::ConstraintGraph;
use crate::player::PlaybackReport;
use crate::session::PlayerSession;
use crate::solver::SolveResult;
use crate::types::ScheduleOptions;

use self::queue::WorkerShards;
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
/// (`cmif_lint::admission_gate`). The callback receives the document and an
/// optional per-submission [`SeverityConfig`] override
/// ([`LintPolicy::Configured`]) and returns every diagnostic it collected;
/// any deny-severity diagnostic refuses the submission with
/// [`SchedulerError::LintRejected`] **before** the plane lock is taken, a
/// quota token charged, or a worker costed.
#[derive(Clone)]
pub struct LintGate {
    check: Arc<GateCheck>,
}

/// The callback shape a [`LintGate`] wraps: document plus optional
/// per-submission severity override, out come the collected diagnostics.
type GateCheck = dyn Fn(&Document, Option<&SeverityConfig>) -> Vec<Diagnostic> + Send + Sync;

impl LintGate {
    /// Wraps a diagnostic-collecting callback as an admission gate.
    pub fn new(
        check: impl Fn(&Document, Option<&SeverityConfig>) -> Vec<Diagnostic> + Send + Sync + 'static,
    ) -> LintGate {
        LintGate {
            check: Arc::new(check),
        }
    }

    /// Runs the gate under the submission's policy. `Ok(())` admits;
    /// [`SchedulerError::LintRejected`] carries every collected diagnostic.
    pub fn inspect(&self, doc: &Document, policy: &LintPolicy) -> Result<()> {
        let config = match policy {
            LintPolicy::Skip => return Ok(()),
            LintPolicy::Default => None,
            LintPolicy::Configured(config) => Some(config),
        };
        let diagnostics = (self.check)(doc, config);
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

/// Configuration of an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of worker threads. Zero is clamped to one.
    pub workers: usize,
    /// Scheduling policy applied to every admitted document.
    pub options: ScheduleOptions,
    /// How many clock steps each worker drives a session through. Playback
    /// outcomes do not depend on this (the causal timeline is fixed at
    /// session creation); it only exercises the step-wise machinery.
    pub ticks_per_document: u32,
    /// Maximum number of admitted-but-unstarted documents (counting jobs
    /// parked in worker shards). `None` (the default) admits without bound
    /// — a fast producer can then grow the queue faster than the workers
    /// drain it. With `Some(k)`, a full queue makes [`Engine::admit`] and
    /// [`Engine::submit_batch`] block (FIFO, see
    /// [`Engine::waiting_submitters`]) until a worker takes a job, and
    /// [`Engine::try_admit`] return [`SchedulerError::Backpressure`]
    /// immediately; a batch larger than `k` is refused. `Some(0)` is treated
    /// as `Some(1)`: jobs reach workers only through the queue, so a
    /// zero-slot queue would deadlock every blocking admission.
    pub max_backlog: Option<usize>,
    /// How many jobs a worker moves from the shared tenant plane into its
    /// own shard per refill — the batch size that amortises the shared
    /// lock. The first job runs immediately; the extras are parked where
    /// idle siblings can steal them. Zero is clamped to one. Larger
    /// batches mean fewer shared-lock acquisitions but a coarser
    /// interleaving of the weighted-fair dispatch order.
    pub refill_batch: usize,
    /// Policy applied to tenants that never got an explicit
    /// [`Engine::set_tenant_policy`]: by default weight 1, no quota.
    pub default_tenant_policy: TenantPolicy,
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
            ticks_per_document: 8,
            max_backlog: None,
            refill_batch: 4,
            default_tenant_policy: TenantPolicy::default(),
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
/// ([`Engine::apply_edit`]), drained by the owning worker at tick
/// boundaries. A leaf lock: it may be taken while holding any engine lock,
/// and no other lock is ever taken while it is held.
type Mailbox = Arc<Mutex<Vec<Edit>>>;

/// The fate of one live edit routed through [`Engine::apply_edit`],
/// reported in [`DocOutcome::edits`] in the order the owning worker
/// processed them.
#[derive(Debug, Clone)]
pub struct EditOutcome {
    /// The edit as routed.
    pub edit: Edit,
    /// The presentation time (tick boundary) at which the worker processed
    /// the edit; [`TimeMs::ZERO`] when it was folded into the document
    /// before playback began — or never reached a running session at all.
    pub at: TimeMs,
    /// `Ok(())` when the revision applied and the playing session swapped
    /// onto it; otherwise the validation or repair error that refused it
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

/// The admission side of the engine: everything a submitter touches, under
/// one mutex. Workers touch it once per refill batch, not once per job.
struct Plane {
    run: TenantRunQueue<Job>,
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

/// Lock order (a thread may take locks only downward in this list, and at
/// most one shard lock at a time):
///
/// 1. `outcomes` (drain's completion predicate peeks at the plane);
/// 2. `plane` (refill parks shard extras under it, so sleeping workers —
///    who decide to sleep under the plane lock — cannot miss parked work);
/// 3. one shard mutex inside `shards`.
///
/// `in_flight` counts jobs popped from any queue but not yet completed. It
/// is incremented *before* the pop becomes visible in any queue length and
/// decremented under the `outcomes` lock, both `SeqCst` — so a `drain()`
/// that holds `outcomes` and reads every queue empty and `in_flight == 0`
/// has proof that no job is in transit between the two.
struct Shared {
    plane: Mutex<Plane>,
    outcomes: Mutex<Outcomes>,
    /// Edit mailboxes of every admitted-but-unfinished document, keyed by
    /// raw [`DocId`]. Registered under the plane lock at admission (so a
    /// mailbox exists before its job is visible to any worker), removed by
    /// `run_and_complete` before the outcome publishes. A leaf lock — see
    /// [`Mailbox`].
    mailboxes: Mutex<HashMap<u64, Mailbox>>,
    shards: WorkerShards<Job>,
    in_flight: AtomicUsize,
    /// Signalled when a job reaches the tenant plane, when refill extras
    /// are parked, or when shutdown begins (workers wait, with `plane`).
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

    /// Admitted-but-unstarted documents: tenant plane plus parked shards.
    /// This is what `max_backlog` bounds.
    fn unstarted(&self, plane: &Plane) -> usize {
        plane.run.len() + self.shards.parked()
    }

    /// The clamped bound, if any.
    fn backlog_limit(&self) -> Option<usize> {
        self.config.max_backlog.map(|limit| limit.max(1))
    }

    /// Wakes blocked submitters after a shard pop freed backlog capacity
    /// *outside* the plane lock. Taking and releasing the plane lock first
    /// closes the race against a submitter that already read the old queue
    /// lengths but has not yet parked on the condvar (the condvar releases
    /// the plane mutex atomically, so after this lock round-trip the
    /// notify must land).
    fn poke_capacity(&self) {
        if self.config.max_backlog.is_none() {
            return;
        }
        drop(self.lock_plane());
        self.capacity.notify_all();
    }
}

/// A pool of worker threads playing many documents concurrently, fairly
/// across tenants.
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
        let worker_count = config.workers.max(1);
        let default_policy = config.default_tenant_policy.clone();
        let shared = Arc::new(Shared {
            plane: Mutex::new(Plane {
                run: TenantRunQueue::new(default_policy),
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
            shards: WorkerShards::new(worker_count),
            in_flight: AtomicUsize::new(0),
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
                    .spawn(move || worker_loop(&shared, index))
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
    /// full, this *blocks* until a worker frees a slot; submitters blocked
    /// this way are admitted in arrival order. Errors with
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
    /// [`EngineConfig::default_tenant_policy`].
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

    /// How jobs have reached the workers so far: own-shard pops, direct
    /// plane pops, refill transactions, steals. The steal ratio is the
    /// load-imbalance indicator the `ext_engine` bench banners.
    pub fn queue_stats(&self) -> QueueStats {
        self.shared.shards.stats()
    }

    /// Routes a live edit to an admitted document's mailbox. The owning
    /// worker drains the mailbox before solving and at every tick
    /// boundary: it applies the edit to the document's revision chain,
    /// repairs the constraint fixpoint incrementally, and swaps the
    /// playing session onto the new revision without rewriting any event
    /// already delivered.
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
                gate.inspect(&submission.doc, &submission.lint)?;
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
            outcomes = self
                .shared
                .done
                .wait(outcomes)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until every admitted document has finished and returns the
    /// not-yet-delivered outcomes in admission order (outcomes already
    /// taken by `wait(id)` are not repeated).
    ///
    /// "Every admitted" is a snapshot: producers admitting concurrently
    /// with a `drain` may land their documents after it returned.
    pub fn drain(&self) -> Vec<DocOutcome> {
        let mut outcomes = self.shared.lock_outcomes();
        loop {
            // Holding `outcomes` freezes both completion (workers record
            // outcomes under it) and `in_flight` decrements; `in_flight`
            // is incremented before any queue length visibly drops. So
            // "all queues empty and nothing in flight", observed in this
            // order, proves no job is anywhere.
            let unstarted = {
                let plane = self.shared.lock_plane();
                self.shared.unstarted(&plane)
            };
            if unstarted == 0 && self.shared.in_flight.load(Ordering::SeqCst) == 0 {
                break;
            }
            outcomes = self
                .shared
                .done
                .wait(outcomes)
                .unwrap_or_else(PoisonError::into_inner);
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

    /// Number of documents admitted but not yet finished (queued — in the
    /// tenant plane or parked in a worker shard — plus in flight).
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

/// What the shared-plane check told an out-of-work worker to do next.
enum Next {
    /// Run this refilled job (`true`: extras were parked, wake a sibling).
    Run(Job, bool),
    /// The plane is empty but some shard is not: try stealing.
    Steal,
    /// Shutdown with nothing left anywhere.
    Exit,
}

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        // 1. Own shard first: the contention-free path.
        if let Some(job) = shared.shards.pop_own(me, &shared.in_flight) {
            // The pop freed one bounded-queue slot (parked jobs count
            // against `max_backlog`).
            shared.poke_capacity();
            run_and_complete(shared, job);
            continue;
        }
        // 2. Refill a batch from the tenant plane, or find out why not.
        let next = {
            let mut plane = shared.lock_plane();
            loop {
                if plane.run.len() > 0 {
                    // `in_flight` rises before the queue length visibly
                    // drops — the drain() invariant.
                    shared.in_flight.fetch_add(1, Ordering::SeqCst);
                    let first = plane
                        .run
                        .pop_fair()
                        // repo_lint: allow(guarded by the !is_empty() wake condition above)
                        .expect("nonempty tenant plane dispenses a job");
                    let mut extras = Vec::new();
                    for _ in 1..shared.config.refill_batch.max(1) {
                        match plane.run.pop_fair() {
                            Some(job) => extras.push(job),
                            None => break,
                        }
                    }
                    let parked = !extras.is_empty();
                    shared.shards.note_refill(1);
                    // Parked under the plane lock: a sibling deciding to
                    // sleep decides under this lock, so it cannot miss them.
                    shared.shards.park_own(me, extras);
                    break Next::Run(first, parked);
                }
                if shared.shards.parked() > 0 {
                    break Next::Steal;
                }
                if plane.shutdown {
                    break Next::Exit;
                }
                plane = shared
                    .work
                    .wait(plane)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match next {
            Next::Run(job, parked_extras) => {
                if parked_extras {
                    // The extras are stealable: wake one sibling in case
                    // every other worker is asleep.
                    shared.work.notify_one();
                }
                if shared.config.max_backlog.is_some() {
                    // The refill freed backlog capacity.
                    shared.capacity.notify_all();
                }
                run_and_complete(shared, job);
            }
            Next::Steal => {
                if let Some(job) = shared.shards.steal(me, &shared.in_flight) {
                    shared.poke_capacity();
                    run_and_complete(shared, job);
                }
                // Steal lost the race: loop around — the plane is
                // re-checked under its lock before any sleep, so nothing
                // admitted meanwhile is missed.
            }
            Next::Exit => return,
        }
    }
}

/// Runs one job with panic containment and publishes its outcome (with
/// per-tenant latency accounting) exactly once.
fn run_and_complete(shared: &Shared, job: Job) {
    // Contain a panicking job: it must not take the worker down with
    // `in_flight` still incremented (that wedged every later
    // `drain()`/`wait()` forever). `AssertUnwindSafe` is sound here:
    // `run_job` only reads the config and the job, all its mutable state
    // is local to the call, and no engine lock is held.
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
    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    drop(outcomes);
    shared.done.notify_all();
}

/// Empties a document's edit mailbox, returning the routed edits in
/// arrival order.
fn drain_mailbox(mailbox: &Mailbox) -> Vec<Edit> {
    std::mem::take(&mut *mailbox.lock().unwrap_or_else(PoisonError::into_inner))
}

/// One document's full trip through the engine: derive, relax, play —
/// draining its live-edit mailbox before the solve and again at every tick
/// boundary. Any scheduler error — a `ConstraintCycle` above all — is the
/// document's outcome, not the worker's death.
fn run_job(config: &EngineConfig, job: &Job) -> Result<(PlaybackReport, Vec<EditOutcome>)> {
    if let Some(hook) = &config.job_hook {
        hook.fire(&job.label);
    }
    let resolver: &dyn DescriptorResolver = match &job.resolver {
        Some(resolver) => resolver.as_ref(),
        None => &job.doc.catalog,
    };
    let mut edits: Vec<EditOutcome> = Vec::new();
    let mut revision = DocRevision::initial(Arc::clone(&job.doc));
    // Edits that raced admission fold into the revision before anything is
    // solved: cheaper than a swap, and a precomputed solve for the
    // unedited tree must not be trusted past the first applied edit.
    let mut edited_before_start = false;
    for edit in drain_mailbox(&job.edits) {
        match revision.apply(&edit) {
            Ok((next, _delta)) => {
                revision = next;
                edited_before_start = true;
                edits.push(EditOutcome {
                    edit,
                    at: TimeMs::ZERO,
                    result: Ok(()),
                });
            }
            Err(refusal) => edits.push(EditOutcome {
                edit,
                at: TimeMs::ZERO,
                result: Err(refusal.into()),
            }),
        }
    }
    let owned_solve;
    let solved: &SolveResult = match &job.solve {
        Some(precomputed) if !edited_before_start => precomputed,
        _ => {
            let doc = revision.doc();
            let mut graph = ConstraintGraph::derive(doc, resolver, &config.options)?;
            owned_solve = graph.solve(doc, resolver)?;
            &owned_solve
        }
    };
    let mut session = PlayerSession::new(revision.doc(), solved, resolver, &job.jitter)?;
    let ticks = i64::from(config.ticks_per_document.max(1));
    // The incremental repair session is opened lazily on the first
    // mid-playback edit (its cold fixpoint costs one full relax) and kept
    // warm across later edits of the same document.
    let mut edit_session: Option<EditSession<'_>> = None;
    let mut last_boundary = 0i64;
    for step in 1..=ticks {
        // Applied edits can lengthen (or shorten) the presentation, so the
        // remaining boundaries re-span the *current* total; the clamp
        // keeps the tick sequence monotone when an edit shortened it.
        let total = session.total_duration().as_millis();
        let boundary = (total * step / ticks).max(last_boundary);
        session.tick(boundary)?;
        session.poll_events();
        last_boundary = boundary;
        for edit in drain_mailbox(&job.edits) {
            let mut repair = match edit_session.take() {
                Some(open) => open,
                None => EditSession::begin(revision.clone(), resolver, config.options)?,
            };
            let applied = repair.apply(&edit).and_then(|_| repair.solve_result());
            match applied {
                Ok(solve) => {
                    revision = repair.revision().clone();
                    session.swap_revision(revision.doc(), &solve, resolver)?;
                    edits.push(EditOutcome {
                        edit,
                        at: TimeMs::from_millis(boundary),
                        result: Ok(()),
                    });
                    edit_session = Some(repair);
                }
                Err(refusal) => {
                    // A failed repair may leave the session's fixpoint
                    // poisoned (e.g. a constraint cycle detected
                    // mid-relaxation); drop it and reopen from the last
                    // good revision on the next edit. The playing session
                    // is untouched either way.
                    edits.push(EditOutcome {
                        edit,
                        at: TimeMs::from_millis(boundary),
                        result: Err(refusal),
                    });
                }
            }
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
    fn work_stealing_accounts_for_every_dispatched_job() {
        let engine = Engine::new(EngineConfig {
            workers: 4,
            refill_batch: 8,
            ..EngineConfig::default()
        });
        let doc = Arc::new(story("spread", 2));
        let ids = engine
            .submit_batch(
                (0..32u64).map(|i| Submission::new(Arc::clone(&doc), JitterModel::uniform(40, i))),
            )
            .unwrap();
        assert_eq!(engine.drain().len(), ids.len());
        let stats = engine.queue_stats();
        assert_eq!(stats.dispatched(), 32, "{stats:?}");
        // Large refill batches on a multi-worker engine must leave parked
        // work behind at least once.
        assert!(stats.refills > 0);
        assert!(stats.steal_ratio() >= 0.0 && stats.steal_ratio() <= 1.0);
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
            default_tenant_policy: TenantPolicy::default().with_quota(QuotaConfig::new(1, 0.0)),
            ..EngineConfig::default()
        });
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
