//! Error types for the synchronization layer.
//!
//! Before the workspace-wide error unification the scheduler smuggled its
//! failures through `CoreError::Invariant` with free-form strings. The
//! variants here are typed instead: a constraint cycle names the phase that
//! diverged and the size of the event-point graph, so callers (the pipeline,
//! the hypermedia navigator, distributed players) can react programmatically
//! and error chains keep their context across crate boundaries.

use std::fmt;

use cmif_core::diag::Diagnostic;
use cmif_core::error::CoreError;

use crate::engine::{DocId, TenantId};
use crate::types::EventPoint;

/// Result alias used throughout `cmif-scheduler`.
pub type Result<T> = std::result::Result<T, SchedulerError>;

/// Errors raised while deriving, solving or playing a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerError {
    /// The constraint graph contains a positive cycle, so longest-path
    /// relaxation cannot converge (§5.3.3, conflict class 1: an
    /// unsatisfiable specification).
    ConstraintCycle {
        /// The computation that diverged (`"solve"`, `"playback"` or
        /// `"lint"`).
        phase: &'static str,
        /// Number of event points in the graph when relaxation was
        /// abandoned.
        points: usize,
    },
    /// A time the computation needs — an event time, a window bound, a
    /// window's reference point — lies outside the `i64` millisecond range.
    /// Raised instead of wrapping (release) or panicking (debug); a positive
    /// cycle takes precedence, so this means the least fixpoint itself is
    /// too large.
    TimeOverflow {
        /// The computation that overflowed (`"solve"`, `"playback"` or
        /// `"lint"`).
        phase: &'static str,
        /// The event point whose time (or bound) is out of range.
        point: EventPoint,
    },
    /// A schedule or playback query referenced a node the solve result does
    /// not cover (e.g. seeking to a node of a different document).
    UnscheduledNode {
        /// The node missing from the schedule.
        node: cmif_core::node::NodeId,
        /// The operation that needed the node's times.
        operation: &'static str,
    },
    /// An engine job panicked while scheduling or playing its document.
    /// The panic is contained: it becomes this per-document outcome, the
    /// worker thread keeps serving, and `drain()`/`wait()` still terminate.
    JobPanicked {
        /// The panic payload, when it was a string (the usual case).
        message: String,
    },
    /// A non-blocking admission (`Engine::try_admit`) found the engine's
    /// bounded queue full, or a batch (`Engine::submit_batch`) larger than
    /// the queue's bound can never fit.
    Backpressure {
        /// The engine's backlog (admitted but unfinished documents) at the
        /// moment the admission was refused.
        backlog: usize,
    },
    /// An admission was refused by the submitting tenant's token-bucket
    /// quota (`Engine::set_tenant_policy`). Unlike
    /// [`SchedulerError::Backpressure`] this is policy, not capacity: the
    /// engine may be idle and still refuse. Refused work is never queued
    /// and no quota token is consumed by the refusal itself.
    QuotaExceeded {
        /// The tenant whose bucket ran dry.
        tenant: TenantId,
        /// Milliseconds until the bucket has refilled enough for this
        /// admission to fit; `u64::MAX` when the quota never refills
        /// (`per_second == 0`).
        retry_after_ms: u64,
    },
    /// The engine was closed (or shut down): it no longer admits documents,
    /// though outcomes already admitted can still be collected.
    EngineClosed,
    /// The engine's lint gate ([`crate::engine::EngineConfig::lint_gate`])
    /// refused the document at admission: static analysis found at least
    /// one deny-severity finding, so the document never reached a worker.
    /// Carries every collected diagnostic (warnings included), ready to
    /// render against the document's `SourceMap`.
    LintRejected {
        /// Every diagnostic the gate collected; at least one is deny.
        diagnostics: Vec<Diagnostic>,
    },
    /// A live edit could not be routed to a running document
    /// ([`crate::engine::Engine::apply_edit`]): the document id is unknown
    /// or its presentation already completed.
    EditRejected {
        /// The document the edit targeted.
        doc: DocId,
        /// Why the engine refused to route it.
        reason: &'static str,
    },
    /// A structural error from the document model.
    Core(CoreError),
}

impl fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerError::ConstraintCycle { phase, points } => write!(
                f,
                "the synchronization constraints contain a cycle that forces events ever later \
                 (unsatisfiable specification): {phase} did not converge over {points} event points"
            ),
            SchedulerError::TimeOverflow { phase, point } => write!(
                f,
                "{phase}: the time of {point} leaves the representable range \
                 (i64 milliseconds)"
            ),
            SchedulerError::UnscheduledNode { node, operation } => {
                write!(
                    f,
                    "{operation}: node {node} is not covered by the solved schedule"
                )
            }
            SchedulerError::JobPanicked { message } => {
                write!(f, "the engine job panicked: {message}")
            }
            SchedulerError::Backpressure { backlog } => write!(
                f,
                "the engine's bounded queue is full ({backlog} documents in the backlog)"
            ),
            SchedulerError::QuotaExceeded {
                tenant,
                retry_after_ms,
            } => {
                write!(f, "{tenant} exceeded its admission quota")?;
                if *retry_after_ms == u64::MAX {
                    write!(f, " (the quota does not refill)")
                } else {
                    write!(f, " (retry in ~{retry_after_ms}ms)")
                }
            }
            SchedulerError::EngineClosed => {
                write!(f, "the engine is closed and admits no new documents")
            }
            SchedulerError::LintRejected { diagnostics } => {
                let denies = diagnostics.iter().filter(|d| d.is_deny()).count();
                write!(
                    f,
                    "the lint gate refused the document at admission: {denies} deny-severity \
                     finding(s) out of {} diagnostic(s)",
                    diagnostics.len()
                )?;
                if let Some(first) = diagnostics.iter().find(|d| d.is_deny()) {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            SchedulerError::EditRejected { doc, reason } => {
                write!(f, "live edit rejected for {doc}: {reason}")
            }
            SchedulerError::Core(e) => write!(f, "document error: {e}"),
        }
    }
}

impl std::error::Error for SchedulerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedulerError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for SchedulerError {
    fn from(e: CoreError) -> Self {
        SchedulerError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_errors_convert_and_chain() {
        use std::error::Error;
        let err: SchedulerError = CoreError::EmptyDocument.into();
        assert!(matches!(err, SchedulerError::Core(_)));
        assert!(err.source().is_some());
    }

    #[test]
    fn cycle_display_names_the_phase() {
        let err = SchedulerError::ConstraintCycle {
            phase: "solve",
            points: 42,
        };
        let text = err.to_string();
        assert!(text.contains("solve"));
        assert!(text.contains("42"));
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn overflow_display_names_the_phase_and_point() {
        let err = SchedulerError::TimeOverflow {
            phase: "edit",
            point: EventPoint::end(cmif_core::node::NodeId::from_index(3)),
        };
        let text = err.to_string();
        assert!(text.contains("edit"), "{text}");
        assert!(text.contains("end(#3)"), "{text}");
    }

    #[test]
    fn admission_errors_render_their_context() {
        let panicked = SchedulerError::JobPanicked {
            message: "index out of bounds".to_string(),
        };
        assert!(panicked.to_string().contains("index out of bounds"));
        let full = SchedulerError::Backpressure { backlog: 9 };
        assert!(full.to_string().contains('9'));
        assert!(SchedulerError::EngineClosed.to_string().contains("closed"));
    }

    #[test]
    fn lint_refusals_count_denies_and_show_the_first() {
        use cmif_core::diag::codes;
        let err = SchedulerError::LintRejected {
            diagnostics: vec![
                Diagnostic::new(codes::ARC_CYCLE, "arcs form a cycle"),
                Diagnostic::new(codes::CHANNEL_DOUBLE_BOOKING, "overlap"),
            ],
        };
        let text = err.to_string();
        assert!(text.contains("1 deny-severity"), "{text}");
        assert!(text.contains("2 diagnostic"), "{text}");
        assert!(text.contains("L101"), "{text}");
    }

    #[test]
    fn edit_rejections_name_the_document_and_reason() {
        let err = SchedulerError::EditRejected {
            doc: DocId(7),
            reason: "document already completed",
        };
        let text = err.to_string();
        assert!(text.contains("doc#7"), "{text}");
        assert!(text.contains("already completed"), "{text}");
    }

    #[test]
    fn quota_refusals_render_the_tenant_and_the_retry_hint() {
        let refused = SchedulerError::QuotaExceeded {
            tenant: TenantId::new(4),
            retry_after_ms: 250,
        };
        let text = refused.to_string();
        assert!(text.contains("tenant#4"), "{text}");
        assert!(text.contains("250"), "{text}");
        let never = SchedulerError::QuotaExceeded {
            tenant: TenantId::new(4),
            retry_after_ms: u64::MAX,
        };
        assert!(never.to_string().contains("does not refill"));
    }
}
