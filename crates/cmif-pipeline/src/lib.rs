//! # cmif-pipeline — the CWI/Multimedia Pipeline
//!
//! The stages of Figure 1 of the paper, built around the CMIF document
//! format:
//!
//! * [`capture`] — media block capture tools (stage 1), synthesizing media
//!   into a block store and compiling data descriptors;
//! * the document structure mapping tool (stage 2) is the `cmif-core`
//!   builder plus validation — the pipeline consumes its output;
//! * [`presentation`] — the presentation mapping tool (stage 3): allocate
//!   virtual presentation real estate (screen regions, loudspeaker slots)
//!   per channel, editable separately from the document;
//! * [`constraint`] — constraint filtering tools (stage 4): device profiles,
//!   per-block degradation plans, and their application to stored media;
//! * [`viewer`] — viewing and reading tools (stage 5): table of contents and
//!   storyboard renderings;
//! * [`pipeline`] — end-to-end orchestration with per-stage timings, the
//!   artifact the Figure 1 benchmark measures.
//!
//! ```
//! use cmif_core::prelude::*;
//! use cmif_media::store::BlockStore;
//! use cmif_pipeline::capture::{CaptureRequest, CaptureTool};
//! use cmif_pipeline::constraint::DeviceProfile;
//! use cmif_pipeline::pipeline::PipelineBuilder;
//!
//! # fn main() -> std::result::Result<(), cmif_pipeline::PipelineError> {
//! let store = BlockStore::new();
//! let mut capture = CaptureTool::new(&store, 1);
//! capture.capture(&CaptureRequest::audio("speech", 3_000))?;
//!
//! let doc = DocumentBuilder::new("demo")
//!     .channel("audio", MediaKind::Audio)
//!     .root_seq(|root| {
//!         root.ext("voice", "audio", "speech");
//!     })
//!     .build()?;
//!
//! let run = PipelineBuilder::new(DeviceProfile::workstation()).run(&doc, &store)?;
//! assert!(run.is_presentable());
//! # Ok(()) }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capture;
pub mod constraint;
pub mod error;
pub mod pipeline;
pub mod presentation;
pub mod viewer;

pub use error::{PipelineError, Result};

pub use capture::{CaptureRequest, CaptureTool};
pub use constraint::{apply_plan, plan_filters, DeviceProfile, FilterAction, FilterPlan};
pub use pipeline::{run_structure_only, PipelineBuilder, PipelineRun, StageTimings};

pub use presentation::{map_presentation, render_map, Placement, PresentationMap, VirtualRegion};
pub use viewer::{render_storyboard, storyboard, table_of_contents, StoryboardFrame};
