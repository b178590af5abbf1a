//! # cmif — umbrella crate for the CMIF reproduction
//!
//! This crate re-exports every crate of the workspace under one roof and
//! provides the shared example documents (the paper's Evening News and a
//! parameterised synthetic news generator) used by the runnable examples,
//! the integration tests and the benchmark harness.
//!
//! The individual crates:
//!
//! * [`core`] (`cmif-core`) — the CMIF document model;
//! * [`format`](mod@format) (`cmif-format`) — the human-readable interchange format;
//! * [`scheduler`] (`cmif-scheduler`) — synchronization, conflicts, playback;
//! * [`media`] (`cmif-media`) — synthetic media, stores, DDBMS;
//! * [`pipeline`] (`cmif-pipeline`) — the CWI/Multimedia Pipeline stages;
//! * [`distrib`] (`cmif-distrib`) — the simulated distributed store;
//! * [`hyper`] (`cmif-hyper`) — conditional arcs and navigation;
//! * [`lint`] (`cmif-lint`) — static analysis with coded diagnostics;
//! * [`baselines`] (`cmif-baselines`) — Muse- and MIF-style comparators.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use cmif_baselines as baselines;
pub use cmif_core as core;
pub use cmif_distrib as distrib;
pub use cmif_format as format;
pub use cmif_hyper as hyper;
pub use cmif_lint as lint;
pub use cmif_media as media;
pub use cmif_pipeline as pipeline;
pub use cmif_scheduler as scheduler;

pub mod error;
pub mod news;
pub mod synthetic;

pub use error::{Error, Result};
