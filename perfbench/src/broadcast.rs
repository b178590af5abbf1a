//! `broadcast`: unique 32-story broadcasts arriving as canonical text
//! through `PipelineBuilder::run_wire`, against a local `BlockStore` that
//! holds their media.
//!
//! At this size the superlinear constraint relaxation dominates (lint
//! fixpoint, solve, playback's causal relax) and distribution and engine
//! overhead are nil, so a kernel change shows here and a per-document
//! overhead change should not. The engine keeps the builder's defaults:
//! one playback run on one worker, with jitter.
//!
//! Documents come in blocks of twenty: every block holds each pairing of
//! 3–7 captions with 1–4 graphics per story once, in a seeded order, and a
//! seeded five of them carry no explicit arcs — so every seed submits the
//! same mix of acyclic graphs and graphs with back-edges, in its own order.
//! A serial number in the metadata makes every document unique. Documents
//! are generated off the clock, just before they are submitted.

use std::time::Instant;

use cmif::core::prelude::AttrValue;
use cmif::format::{document_to_bytes, WireEncoding};
use cmif::lint::Linter;
use cmif::media::BlockStore;
use cmif::pipeline::{DeviceProfile, PipelineBuilder, PipelineRun};
use cmif::scheduler::JitterModel;

use crate::corpus::{build_synthetic, synthetic, Expect, MediaKit, Rng};
use crate::report::{time_ms, Checks, Outcome, RunClock, Windows};
use crate::serve::{serve_wire, share, ServeConfig, ServedTally};
use crate::trace::{breakdown, Tracer};
use crate::Workload;

/// Stories per broadcast.
const STORIES: usize = 32;
/// Caption counts per story, one block entry each.
const CAPTIONS: [usize; 5] = [3, 4, 5, 6, 7];
/// Graphic counts per story, one block entry each.
const GRAPHICS: [usize; 4] = [1, 2, 3, 4];
/// Documents per block: one per caption and graphic count pairing.
const SHAPES: usize = CAPTIONS.len() * GRAPHICS.len();
/// Blocks per measurement window: 100 documents, enough for a p90 with
/// ten samples beyond it.
const BLOCKS_PER_WINDOW: usize = 5;
/// Documents per block without explicit arcs.
const WITHOUT_ARCS: usize = 5;
/// Startup jitter bound of the playback device, milliseconds.
const JITTER_MAX_MS: i64 = 40;
/// Warm-up documents, numbered apart from the measured ones.
const WARMUP: u64 = 2;
const WARMUP_SERIAL: u64 = 1 << 40;

/// One submission: the wire bytes and what they must produce.
struct Submission {
    bytes: Vec<u8>,
    expect: Expect,
    arcs: bool,
}

/// The broadcast workload's state after set-up.
pub struct Broadcast {
    seed: u64,
    store: BlockStore,
    cfg: ServeConfig,
    builder: PipelineBuilder,
}

impl Workload for Broadcast {
    const NAME: &'static str = "broadcast";
    const OP: &'static str = "doc";
    const TAIL: f64 = 0.90;

    /// Fills the media store, starts the serving builder and warms up.
    fn setup(seed: u64) -> Result<Broadcast, String> {
        let kit = MediaKit::new(seed);
        let (widest, _) = build_synthetic(&synthetic(STORIES, 1, GRAPHICS[3], true))?;
        let store = BlockStore::new();
        for (block, descriptor) in kit.blocks_for(&widest) {
            store
                .put_with_descriptor(block, descriptor)
                .map_err(|e| e.to_string())?;
        }
        let cfg = ServeConfig {
            device: DeviceProfile::workstation(),
            jitter: JitterModel::uniform(JITTER_MAX_MS, seed),
            playback_runs: 1,
            playback_workers: 1,
        };
        let builder = cfg.builder(&Linter::new());
        let broadcast = Broadcast {
            seed,
            store,
            cfg,
            builder,
        };
        for serial in WARMUP_SERIAL..WARMUP_SERIAL + WARMUP {
            // Output checks belong to the measured run; the warm-up only
            // has to get through its submissions.
            let submission = broadcast.submission(serial)?;
            broadcast
                .builder
                .run_wire(&submission.bytes, &broadcast.store)
                .map_err(|e| format!("warm-up submission failed: {e}"))?;
        }
        Ok(broadcast)
    }

    /// Untraced submissions until `seconds` of run time have passed.
    fn measure(&mut self, seconds: f64) -> Outcome {
        let mut out = Outcome::default();
        let mut clock = RunClock::start();
        let (mut serial, mut bare) = (0u64, 0u64);
        let mut windows = Windows::open(&clock);
        while clock.elapsed().as_secs_f64() < seconds {
            let Some(submission) = clock.exclude(|| self.generated(serial, &mut out)) else {
                break;
            };
            serial += 1;
            bare += u64::from(!submission.arcs);
            let (run, ms) = time_ms(|| self.builder.run_wire(&submission.bytes, &self.store));
            if let Some(run) = out.failures.record("submission", run) {
                out.latencies_ms.push(ms);
                clock.exclude(|| check_run(&mut out.checks, &submission, &run));
            }
            // Windows end on block boundaries, so every window submits the
            // same mix.
            if serial % (SHAPES * BLOCKS_PER_WINDOW) as u64 == 0 {
                out.windows.extend(windows.close(&clock, &out.latencies_ms));
            }
        }
        out.run_s = clock.elapsed().as_secs_f64();
        out.provenance.extend([
            ("submissions", serial as f64),
            ("no_arc_share", share(bare, serial)),
        ]);
        out
    }

    /// The traced run: each submission goes through the decomposed, traced
    /// path and through the builder, and the two results must match.
    fn trace(&mut self, seconds: f64) -> Outcome {
        let cfg = &self.cfg;
        let engine = cfg.engine(cfg.playback_workers);
        let linter = Linter::new();
        let catalog = self.store.export_catalog();
        let mut out = Outcome::default();
        let mut tally = ServedTally::default();
        let mut t = Tracer::new();
        let mut reference_ms = 0.0;
        let (mut serial, mut bare, mut wire_bytes) = (0u64, 0u64, 0u64);
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < seconds {
            let Some(submission) = self.generated(serial, &mut out) else {
                break;
            };
            serial += 1;
            bare += u64::from(!submission.arcs);
            wire_bytes += submission.bytes.len() as u64;
            let served = t.request("broadcast.submission", serial, |t| {
                serve_wire(t, &submission.bytes, &self.store, cfg, &linter, &engine)
            });
            let (run, ms) = time_ms(|| self.builder.run_wire(&submission.bytes, &self.store));
            reference_ms += ms;
            let (Some(served), Some(run)) = (
                out.failures.record("submission", served),
                out.failures.record("submission", run),
            ) else {
                continue;
            };
            out.latencies_ms.push(ms);
            check_run(&mut out.checks, &submission, &run);
            tally.add(&mut out.checks, &served, &run, &catalog, cfg);
        }

        crate::write_spans("broadcast", &t);
        let trace = match breakdown(t.spans()) {
            Ok(trace) => trace,
            Err(e) => {
                out.checks.check("trace sum", Err(e));
                return out;
            }
        };
        let docs = serial.max(1) as f64;
        out.layers.extend(tally.layers(&trace, &engine, &linter));
        out.layers.extend([
            (
                "format.parse_us",
                trace.self_us(&["format.read_document_bytes"]) / docs,
            ),
            ("format.wire_bytes", wire_bytes as f64 / docs),
            (
                "trace.unattributed_us",
                trace.unattributed_ns as f64 / 1e3 / docs,
            ),
            (
                "trace.overhead",
                trace.wall_ns as f64 / 1e6 / reference_ms.max(f64::MIN_POSITIVE),
            ),
        ]);
        out.run_s = trace.wall_ns as f64 / 1e9;
        out.breakdown = Some(trace);
        out.provenance.extend([
            ("submissions", serial as f64),
            ("no_arc_share", share(bare, serial)),
        ]);
        out
    }
}

impl Broadcast {
    /// The `serial`-th document of the seeded stream, as canonical text.
    fn submission(&self, serial: u64) -> Result<Submission, String> {
        let block = serial / SHAPES as u64;
        let mut rng = Rng::new(self.seed, 2_000 + block);
        let mut order: Vec<usize> = (0..SHAPES).collect();
        rng.shuffle(&mut order);
        let position = (serial % SHAPES as u64) as usize;
        let shape = order[position];
        // The first WITHOUT_ARCS positions of the shuffled block go bare.
        let arcs = position >= WITHOUT_ARCS;
        let params = synthetic(
            STORIES,
            CAPTIONS[shape / GRAPHICS.len()],
            GRAPHICS[shape % GRAPHICS.len()],
            arcs,
        );
        let (mut doc, expect) = build_synthetic(&params)?;
        doc.meta
            .insert("serial".to_string(), AttrValue::Number(serial as i64));
        let bytes = document_to_bytes(&doc, WireEncoding::Text).map_err(|e| e.to_string())?;
        Ok(Submission {
            bytes,
            expect,
            arcs,
        })
    }

    /// Generates a submission, recording a generator failure as a failed
    /// check.
    fn generated(&self, serial: u64, out: &mut Outcome) -> Option<Submission> {
        match self.submission(serial) {
            Ok(submission) => Some(submission),
            Err(e) => {
                out.checks.check("generate", Err(e));
                None
            }
        }
    }
}

/// The output checks every submission must pass.
fn check_run(checks: &mut Checks, submission: &Submission, run: &PipelineRun) {
    let schedule = &run.solve.schedule;
    checks.check(
        "schedule",
        submission
            .expect
            .check(schedule.entries.len(), schedule.total_duration.as_millis()),
    );
    checks.require("lint", run.diagnostics.iter().all(|d| !d.is_deny()), || {
        "deny finding served".to_string()
    });
}
