//! # cmif-scheduler — the CMIF synchronization engine
//!
//! This crate turns a CMIF document (see `cmif-core`) into presentable
//! timelines and checks whether a presentation environment can honour them:
//!
//! * [`defaults`] derives the constraint set of a document — the default
//!   structural arcs of §5.3.1 (sequential chains, parallel fork/join), the
//!   rigid begin→end duration of every leaf, and the explicit arcs with
//!   their offsets converted from media units;
//! * [`graph`] holds the reusable [`graph::ConstraintGraph`]: derivation
//!   split from relaxation, with incremental re-relaxation when extra
//!   constraints (e.g. conditional arcs) are injected;
//! * [`solver`] assembles the ASAP schedule over those constraints and
//!   verifies every δ/ε window against it;
//! * [`timeline`] holds the resulting [`timeline::Schedule`] and renders the
//!   per-channel views and Gantt charts of Figures 3, 4 and 10;
//! * [`conflict`] detects the paper's three conflict classes (§5.3.3):
//!   unreasonable specifications, device limitations, and navigation past an
//!   arc's source;
//! * [`session`] drives actual playback on a jittery device step by step
//!   ([`session::PlayerSession`]: `tick`/`seek`/`pause`/`resume`), measuring
//!   how well the Must/May tolerance windows absorb the jitter (the
//!   Figure 8 experiment); [`player`] keeps the report types;
//! * [`engine`] multiplexes many documents over a pool of worker threads
//!   with a hand-rolled, work-stealing run queue ([`engine::Engine`]):
//!   per-worker sharded deques fed by a weighted-fair tenant plane
//!   ([`engine::TenantId`], [`engine::TenantPolicy`]), bounded FIFO
//!   admission (blocking `admit` vs failing `try_admit`, batched
//!   `submit_batch`), token-bucket quotas per tenant, graceful `close`,
//!   and panic containment (a panicking job is a
//!   [`SchedulerError::JobPanicked`] outcome, never a dead worker);
//! * [`environment`] models the device: supported media, bandwidth, decode
//!   capacity, and per-channel startup jitter.
//!
//! ```
//! use cmif_core::prelude::*;
//! use cmif_scheduler::{ConstraintGraph, ScheduleOptions};
//!
//! # fn main() -> std::result::Result<(), cmif_scheduler::SchedulerError> {
//! let doc = DocumentBuilder::new("demo")
//!     .channel("audio", MediaKind::Audio)
//!     .descriptor(
//!         DataDescriptor::new("speech", MediaKind::Audio, "pcm8")
//!             .with_duration(TimeMs::from_secs(4)),
//!     )
//!     .root_seq(|root| {
//!         root.ext("part-1", "audio", "speech");
//!         root.ext("part-2", "audio", "speech");
//!     })
//!     .build()?;
//!
//! let mut graph = ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default())?;
//! let result = graph.solve(&doc, &doc.catalog)?;
//! assert_eq!(result.schedule.total_duration, TimeMs::from_secs(8));
//! assert!(result.is_consistent());
//! # Ok(()) }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod author;
pub mod conflict;
pub mod defaults;
pub mod engine;
pub mod environment;
pub mod error;
pub mod graph;
pub mod player;
pub mod session;
pub mod solver;
pub mod timeline;
pub mod types;

pub use error::{Result, SchedulerError};

pub use author::{EditSession, EditStats};
pub use conflict::{
    class_histogram, device_conflicts, full_report, invalid_arcs_when_seeking,
    specification_conflicts, Conflict, ConflictReport,
};
pub use defaults::{derive_constraints, derive_structural, rates_of};
#[doc(hidden)]
pub use engine::JobHook;
pub use engine::{
    DocId, DocOutcome, EditOutcome, Engine, EngineConfig, LintGate, LintPolicy, QueueStats,
    QuotaConfig, Submission, TenantId, TenantPolicy, TenantStatsSnapshot,
};
pub use environment::{EnvironmentLimits, JitterModel, JitterSampler};
pub use graph::{causal_times, ConstraintGraph, PointTimes};
pub use player::{must_satisfaction_rate, PlaybackReport, PlayedEvent};
pub use session::{PlaybackEvent, PlayerSession, SessionState};
pub use solver::{point_time, SolveResult, WindowViolation};
pub use timeline::{Schedule, TimelineEntry};
pub use types::{Constraint, ConstraintOrigin, EventPoint, OutOfRange, ScheduleOptions};
