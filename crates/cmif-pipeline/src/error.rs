//! Error types for the CWI/Multimedia Pipeline.
//!
//! A pipeline failure always happens inside a named stage (Figure 1:
//! capture, structure, presentation, filtering, scheduling, viewing,
//! playback). Every variant therefore carries the stage it surfaced in plus
//! the lower-layer error as a typed source, so a caller can both route on
//! the failing layer and report *where in the pipeline* the document broke.

use std::fmt;

use cmif_core::diag::Diagnostic;
use cmif_core::error::CoreError;
use cmif_distrib::DistribError;
use cmif_format::FormatError;
use cmif_media::MediaError;
use cmif_scheduler::SchedulerError;

/// Result alias used throughout `cmif-pipeline`.
pub type Result<T> = std::result::Result<T, PipelineError>;

/// Errors raised while running pipeline stages.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// A document-model error surfaced by a pipeline stage.
    Core {
        /// The pipeline stage that was running.
        stage: &'static str,
        /// The underlying document error.
        source: CoreError,
    },
    /// A media-store error surfaced by a pipeline stage.
    Media {
        /// The pipeline stage that was running.
        stage: &'static str,
        /// The underlying media error.
        source: MediaError,
    },
    /// A scheduling error surfaced by a pipeline stage.
    Scheduler {
        /// The pipeline stage that was running.
        stage: &'static str,
        /// The underlying scheduler error.
        source: SchedulerError,
    },
    /// A wire-decoding error surfaced by a pipeline stage (a document fed
    /// in as interchange bytes failed to decode). The inner error keeps
    /// the byte span / source position of the failure.
    Format {
        /// The pipeline stage that was running.
        stage: &'static str,
        /// The underlying interchange-format error.
        source: FormatError,
    },
    /// A distributed-store error surfaced by a pipeline stage (a document
    /// or media fetch over the cluster failed — host down, partition,
    /// retries exhausted). The inner error keeps the per-replica attempt
    /// trace when the fetch walked multiple replicas.
    Distrib {
        /// The pipeline stage that was running.
        stage: &'static str,
        /// The underlying distributed-store error.
        source: DistribError,
    },
    /// Static analysis refused the document: at least one deny-severity
    /// finding. Unlike the single [`CoreError`] the old stage-2 validator
    /// raised, this carries *every* collected diagnostic (warnings
    /// included), ready to render against the document's `SourceMap`.
    Lint {
        /// The pipeline stage that was running.
        stage: &'static str,
        /// Every diagnostic the lint run collected; at least one is deny.
        diagnostics: Vec<Diagnostic>,
    },
    /// The storyboard would sample more frames than
    /// [`crate::viewer::MAX_STORYBOARD_FRAMES`]: the document is too long
    /// for the storyboard step. Raised before any frame is built.
    TooManyFrames {
        /// The pipeline stage that was running.
        stage: &'static str,
        /// The frames the document would take at the requested step.
        frames: u64,
        /// The limit that was crossed.
        limit: usize,
    },
}

impl PipelineError {
    /// The pipeline stage the error surfaced in.
    pub fn stage(&self) -> &'static str {
        match self {
            PipelineError::Core { stage, .. }
            | PipelineError::Media { stage, .. }
            | PipelineError::Scheduler { stage, .. }
            | PipelineError::Format { stage, .. }
            | PipelineError::Distrib { stage, .. }
            | PipelineError::Lint { stage, .. }
            | PipelineError::TooManyFrames { stage, .. } => stage,
        }
    }

    /// Re-attributes the error to `stage` (used by `run_pipeline` to tag
    /// errors with the stage that was executing when they surfaced).
    pub fn in_stage(self, stage: &'static str) -> PipelineError {
        match self {
            PipelineError::Core { source, .. } => PipelineError::Core { stage, source },
            PipelineError::Media { source, .. } => PipelineError::Media { stage, source },
            PipelineError::Scheduler { source, .. } => PipelineError::Scheduler { stage, source },
            PipelineError::Format { source, .. } => PipelineError::Format { stage, source },
            PipelineError::Distrib { source, .. } => PipelineError::Distrib { stage, source },
            PipelineError::Lint { diagnostics, .. } => PipelineError::Lint { stage, diagnostics },
            PipelineError::TooManyFrames { frames, limit, .. } => PipelineError::TooManyFrames {
                stage,
                frames,
                limit,
            },
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Core { stage, source } => {
                write!(f, "pipeline stage `{stage}`: document error: {source}")
            }
            PipelineError::Media { stage, source } => {
                write!(f, "pipeline stage `{stage}`: media error: {source}")
            }
            PipelineError::Scheduler { stage, source } => {
                write!(f, "pipeline stage `{stage}`: scheduling error: {source}")
            }
            PipelineError::Format { stage, source } => {
                write!(f, "pipeline stage `{stage}`: wire format error: {source}")
            }
            PipelineError::Distrib { stage, source } => {
                write!(
                    f,
                    "pipeline stage `{stage}`: distributed store error: {source}"
                )
            }
            PipelineError::Lint { stage, diagnostics } => {
                let denies = diagnostics.iter().filter(|d| d.is_deny()).count();
                write!(
                    f,
                    "pipeline stage `{stage}`: static analysis refused the document: \
                     {denies} deny-severity finding(s) out of {} diagnostic(s)",
                    diagnostics.len()
                )?;
                if let Some(first) = diagnostics.iter().find(|d| d.is_deny()) {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            PipelineError::TooManyFrames {
                stage,
                frames,
                limit,
            } => write!(
                f,
                "pipeline stage `{stage}`: the storyboard would take {frames} frames, \
                 over the limit of {limit}; use a larger `storyboard_step_ms`"
            ),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Core { source, .. } => Some(source),
            PipelineError::Media { source, .. } => Some(source),
            PipelineError::Scheduler { source, .. } => Some(source),
            PipelineError::Format { source, .. } => Some(source),
            PipelineError::Distrib { source, .. } => Some(source),
            PipelineError::Lint { .. } | PipelineError::TooManyFrames { .. } => None,
        }
    }
}

impl From<CoreError> for PipelineError {
    fn from(source: CoreError) -> Self {
        PipelineError::Core {
            stage: "structure",
            source,
        }
    }
}

impl From<MediaError> for PipelineError {
    fn from(source: MediaError) -> Self {
        PipelineError::Media {
            stage: "media",
            source,
        }
    }
}

impl From<FormatError> for PipelineError {
    fn from(source: FormatError) -> Self {
        PipelineError::Format {
            stage: "ingest",
            source,
        }
    }
}

impl From<DistribError> for PipelineError {
    fn from(source: DistribError) -> Self {
        PipelineError::Distrib {
            stage: "fetch",
            source,
        }
    }
}

impl From<SchedulerError> for PipelineError {
    fn from(source: SchedulerError) -> Self {
        PipelineError::Scheduler {
            stage: "scheduling",
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_tag_a_default_stage() {
        let err: PipelineError = CoreError::EmptyDocument.into();
        assert_eq!(err.stage(), "structure");
        let err = err.in_stage("viewing");
        assert_eq!(err.stage(), "viewing");
        assert!(err.to_string().contains("viewing"));
    }

    #[test]
    fn distrib_errors_default_to_the_fetch_stage() {
        let err: PipelineError = PipelineError::from(DistribError::HostDown { host: "d2".into() });
        assert_eq!(err.stage(), "fetch");
        assert!(err.to_string().contains("distributed store error"));
        assert!(err.to_string().contains("d2"));
        let err = err.in_stage("viewing");
        assert_eq!(err.stage(), "viewing");
    }

    #[test]
    fn too_many_frames_keeps_its_counts_across_stages() {
        use std::error::Error;
        let err = PipelineError::TooManyFrames {
            stage: "viewing",
            frames: 1_000_000_000,
            limit: 1 << 17,
        };
        assert_eq!(err.stage(), "viewing");
        assert!(err.source().is_none());
        let text = err.to_string();
        assert!(text.contains("1000000000 frames"), "{text}");
        assert!(text.contains("131072"), "{text}");
        assert!(text.contains("storyboard_step_ms"), "{text}");
        let err = err.in_stage("playback");
        assert_eq!(
            err,
            PipelineError::TooManyFrames {
                stage: "playback",
                frames: 1_000_000_000,
                limit: 1 << 17,
            }
        );
    }

    #[test]
    fn sources_chain_to_the_originating_layer() {
        use std::error::Error;
        let err = PipelineError::from(MediaError::UnknownBlock { key: "film".into() })
            .in_stage("filtering");
        let source = err.source().expect("media source");
        assert!(source.to_string().contains("film"));
    }
}
