//! # cmif-core — the CMIF document model
//!
//! This crate implements the primary contribution of *"A Structure for
//! Transportable, Dynamic Multimedia Documents"* (Bulterman, van Rossum,
//! van Liere — USENIX 1991): the **CWI Multimedia Interchange Format**
//! document structure.
//!
//! A CMIF document separates three things that contemporaneous systems
//! entangled:
//!
//! * **content** — media data blocks, referenced through [`descriptor`]s
//!   rather than embedded;
//! * **structure** — a [`tree::Document`] of sequential, parallel, external
//!   and immediate [`node`]s carrying [`attr`]ibutes;
//! * **synchronization** — [`channel`]s that serialize events of one medium
//!   and [`arc`]s that constrain events across channels with Must/May
//!   strictness and `[δ, ε]` tolerance windows.
//!
//! The crate is deliberately free of I/O, scheduling and rendering: those
//! live in `cmif-format`, `cmif-scheduler` and `cmif-pipeline`. Everything
//! here is pure data modelling plus the structural queries (inheritance,
//! path resolution, validation, statistics) the rest of the system needs.
//!
//! ## Quick start
//!
//! ```
//! use cmif_core::prelude::*;
//!
//! # fn main() -> Result<()> {
//! let doc = DocumentBuilder::new("hello")
//!     .channel("audio", MediaKind::Audio)
//!     .channel("caption", MediaKind::Text)
//!     .descriptor(
//!         DataDescriptor::new("greeting", MediaKind::Audio, "pcm8")
//!             .with_duration(TimeMs::from_secs(3))
//!             .with_size(24_000),
//!     )
//!     .root_par(|scene| {
//!         scene.ext("voice", "audio", "greeting");
//!         scene.imm_text("subtitle", "caption", "Hello, world", 3_000);
//!     })
//!     .build()?;
//!
//! let stats = cmif_core::stats::stats(&doc, &doc.catalog)?;
//! assert_eq!(stats.events(), 2);
//! # Ok(()) }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arc;
pub mod attr;
pub mod builder;
pub mod channel;
pub mod descriptor;
pub mod diag;
pub mod edit;
pub mod error;
pub mod node;
pub mod path;
pub mod span;
pub mod stats;
pub mod style;
pub mod symbol;
pub mod time;
pub mod tree;
pub mod validate;
pub mod value;

/// The most commonly used types, re-exported for glob import.
pub mod prelude {
    pub use crate::arc::{Anchor, Strictness, SyncArc};
    pub use crate::attr::{Attr, AttrList, AttrName, TextFormatting};
    pub use crate::builder::{DocumentBuilder, NodeBuilder};
    pub use crate::channel::{ChannelDef, ChannelDictionary, MediaKind};
    pub use crate::descriptor::{
        DataDescriptor, DescriptorCatalog, DescriptorResolver, EventDescriptor, ResourceNeeds,
        Selection,
    };
    pub use crate::diag::{Code, Diagnostic, Related, Severity, SeverityConfig, SourceMap};
    pub use crate::edit::{DocRevision, Edit, EditDelta, NodeSpec};
    pub use crate::error::{CoreError, Result};
    pub use crate::node::{ImmediateData, Node, NodeId, NodeKind};
    pub use crate::path::NodePath;
    pub use crate::span::{Position, Span};
    pub use crate::stats::{stats, DocumentStats};
    pub use crate::style::{StyleDef, StyleDictionary};
    pub use crate::symbol::Symbol;
    pub use crate::time::{DelayMs, MaxDelay, MediaTime, MediaUnit, RateInfo, TimeMs};
    pub use crate::tree::{Document, RevisionToken};
    pub use crate::validate::validate;
    pub use crate::value::AttrValue;
}

pub use prelude::*;
