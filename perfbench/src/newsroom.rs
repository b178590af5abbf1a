//! `newsroom`: a news desk publishing small documents to a six-host,
//! replication-factor-2 cluster while viewers on every host present them.
//!
//! The run is a sequence of epochs. Each epoch rebuilds the cluster (so the
//! share of views that fetch media remotely does not drift with run
//! length), publishes a seeded batch of 1–4-story broadcasts plus the
//! Evening News from seeded origin hosts, serves a seeded stream of views
//! through `PipelineBuilder::run_distributed` from seeded viewer hosts, and
//! ends with `repair_all`. A seeded fault plan drops transfers at a rate
//! the retry budget always absorbs, so no operation fails.
//!
//! The batch is stratified — three documents of each story count plus the
//! Evening News, and views spread evenly over the five classes — so every
//! seed serves the same mix; the seed picks caption and graphic counts,
//! origins, viewers, the popularity order inside each class, and faults.
//! Epochs cycle through [`PLANS`] seeded plans, names and keys repeating
//! across epochs so the global symbol pool stays bounded.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use cmif::core::descriptor::{DataDescriptor, DescriptorResolver};
use cmif::core::tree::Document;
use cmif::distrib::{
    DistribError, DistributedStore, FaultPlan, HealthPolicy, Link, Network, RetryPolicy,
};
use cmif::lint::Linter;
use cmif::media::MediaBlock;
use cmif::pipeline::{DeviceProfile, PipelineBuilder, PipelineRun};
use cmif::scheduler::{ConstraintGraph, Engine, JitterModel, ScheduleOptions, Submission};

use crate::corpus::{build_evening_news, build_synthetic, rekey, synthetic, Expect, MediaKit, Rng};
use crate::report::{time_ms, Checks, Outcome, RunClock, Windows};
use crate::serve::{serve_distributed, share, ServeConfig, ServedTally};
use crate::stats::median;
use crate::trace::{breakdown, Tracer};
use crate::Workload;

/// The cluster's hosts.
pub const HOSTS: [&str; 6] = ["h0", "h1", "h2", "h3", "h4", "h5"];
/// Copies of every block and document.
const REPLICATION: usize = 2;
/// Synthetic documents per story count (1..=[`MAX_STORIES`]).
const DOCS_PER_CLASS: usize = 3;
/// Largest synthetic document, in stories.
const MAX_STORIES: usize = 4;
/// View classes: one per story count plus the Evening News.
const CLASSES: usize = MAX_STORIES + 1;
/// Views per published document and epoch.
const VIEWS_PER_DOC: usize = 8;
/// Distinct epoch plans; epochs cycle through them.
const PLANS: usize = 32;
/// Epochs per measurement window (1 040 views, about a second and a half).
const EPOCHS_PER_WINDOW: usize = 10;
/// Share of transfers the fault plan drops.
const DROP_RATE: f64 = 0.02;
/// Attempts per read: a block or document is lost only if all of them
/// drop (`0.02^8`), which no run comes near.
const RETRY_ATTEMPTS: u32 = 8;
/// Startup jitter bound of the playback device, milliseconds.
const JITTER_MAX_MS: i64 = 40;

/// One document of a publish batch.
#[derive(Debug)]
struct NewsDoc {
    /// Published name; also the prefix of its media keys.
    name: String,
    doc: Document,
    blocks: Vec<(MediaBlock, DataDescriptor)>,
    /// Index into [`HOSTS`] of the publishing host.
    origin: usize,
    expect: Expect,
}

/// One view: which document, from which host.
#[derive(Debug, Clone, Copy)]
struct View {
    doc: usize,
    host: usize,
    /// The host already viewed this document in this epoch, so its media
    /// are local.
    repeat: bool,
}

/// One epoch's inputs.
#[derive(Debug)]
struct Plan {
    docs: Vec<NewsDoc>,
    views: Vec<View>,
    fault_seed: u64,
}

fn plan(seed: u64, index: usize, kit: &MediaKit) -> Result<Plan, String> {
    let mut rng = Rng::new(seed, 1_000 + index as u64);
    let mut docs = Vec::new();
    let mut classes: Vec<Vec<usize>> = vec![Vec::new(); CLASSES];
    for stories in 1..=MAX_STORIES {
        for _ in 0..DOCS_PER_CLASS {
            let captions = rng.range(2, 6) as usize;
            let graphics = rng.range(1, 4) as usize;
            let built = build_synthetic(&synthetic(stories, captions, graphics, true))?;
            classes[stories - 1].push(docs.len());
            docs.push(built);
        }
    }
    classes[MAX_STORIES].push(docs.len());
    docs.push(build_evening_news()?);

    let docs = docs
        .into_iter()
        .enumerate()
        .map(|(slot, (mut doc, expect))| {
            let name = format!("n{slot}");
            rekey(&mut doc, &name)?;
            Ok(NewsDoc {
                blocks: kit.blocks_for(&doc),
                name,
                doc,
                origin: rng.below(HOSTS.len()),
                expect,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;

    // Popularity: inside each class a seeded order, weighted 1/rank.
    for members in &mut classes {
        rng.shuffle(members);
    }
    let mut sequence: Vec<usize> = (0..docs.len() * VIEWS_PER_DOC)
        .map(|i| i % CLASSES)
        .collect();
    rng.shuffle(&mut sequence);
    let mut seen = HashSet::new();
    let views = sequence
        .into_iter()
        .map(|class| {
            let members = &classes[class];
            let weights: Vec<f64> = (1..=members.len()).map(|rank| 1.0 / rank as f64).collect();
            let doc = members[rng.weighted(&weights)];
            let host = rng.below(HOSTS.len());
            View {
                doc,
                host,
                repeat: !seen.insert((doc, host)),
            }
        })
        .collect();
    Ok(Plan {
        docs,
        views,
        fault_seed: rng.next_u64(),
    })
}

/// A fresh cluster under the epoch's fault plan. Drops are transient, so
/// hosts are suspected after one failure but never declared down by
/// observation; reads retry past them.
fn build_cluster(fault_seed: u64) -> Result<DistributedStore, DistribError> {
    Ok(
        DistributedStore::with_replication(Network::uniform(&HOSTS, Link::lan()), REPLICATION)?
            .with_fault_plan(FaultPlan::seeded(fault_seed).fail_transfers(DROP_RATE))
            .with_retry_policy(RetryPolicy::with_attempts(RETRY_ATTEMPTS))
            .with_health_policy(HealthPolicy::new(1, u32::MAX)),
    )
}

/// Publishes one document: every media block, then the structure.
/// Returns the structure's wire size.
fn publish(
    t: &mut Tracer,
    cluster: &DistributedStore,
    doc: &NewsDoc,
    blocks: Vec<(MediaBlock, DataDescriptor)>,
) -> Result<usize, DistribError> {
    let host = HOSTS[doc.origin];
    for (block, descriptor) in blocks {
        t.span("distrib.put_block", |_| {
            cluster.put_block(host, block, descriptor)
        })?;
    }
    t.span("distrib.publish_document", |_| {
        cluster.publish_document(host, &doc.name, &doc.doc)
    })
}

/// The output checks every served view must pass.
fn check_view(checks: &mut Checks, doc: &NewsDoc, run: &PipelineRun) {
    let schedule = &run.solve.schedule;
    checks.check(
        "schedule",
        doc.expect
            .check(schedule.entries.len(), schedule.total_duration.as_millis()),
    );
    checks.require("lint", run.diagnostics.iter().all(|d| !d.is_deny()), || {
        format!("{}: deny finding served", doc.name)
    });
    match &run.fetch {
        Some(f) => checks.require("fetch", f.fetched + f.local_hits == f.requested, || {
            format!("{}: {f:?}", doc.name)
        }),
        None => checks.check("fetch", Err(format!("{}: no fetch report", doc.name))),
    }
}

/// Per-run counters beside the latencies.
#[derive(Debug, Default)]
struct Tally {
    epochs: u64,
    views: u64,
    repeats: u64,
    publish_ms: Vec<f64>,
    requested: u64,
    fetched: u64,
    retries: u64,
    /// `(simulated ms, views)` of each plan's first run.
    first_pass: Vec<Option<(u64, u64)>>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            first_pass: vec![None; PLANS],
            ..Tally::default()
        }
    }

    fn view(&mut self, view: &View, run: &PipelineRun) {
        self.views += 1;
        self.repeats += u64::from(view.repeat);
        if let Some(fetch) = &run.fetch {
            self.requested += fetch.requested as u64;
            self.fetched += fetch.fetched as u64;
            self.retries += u64::from(fetch.retries);
        }
    }

    /// Closes an epoch of plan `index % PLANS` that served `views` views
    /// over `sim_ms` simulated network milliseconds.
    fn epoch_done(&mut self, index: usize, sim_ms: u64, views: usize) {
        self.epochs += 1;
        self.first_pass[index % PLANS].get_or_insert((sim_ms, views as u64));
    }

    /// Mean simulated network time per view over every plan's first run:
    /// simulated time does not depend on timing, so this is exact for a
    /// seed once every plan has run.
    fn sim_net_ms_per_view(&self) -> f64 {
        let (ms, views) = self
            .first_pass
            .iter()
            .flatten()
            .fold((0, 0), |(ms, views), (m, v)| (ms + m, views + v));
        ms as f64 / views.max(1) as f64
    }

    fn provenance(&self, out: &mut Outcome) {
        out.provenance.extend([
            ("epochs", self.epochs as f64),
            ("views", self.views as f64),
            ("publishes", self.publish_ms.len() as f64),
            ("repeat_view_share", share(self.repeats, self.views)),
            ("remote_block_share", share(self.fetched, self.requested)),
            ("no_arc_share", 0.0),
        ]);
    }
}

/// The newsroom workload's state after set-up.
pub struct Newsroom {
    plans: Vec<Plan>,
    cfg: ServeConfig,
    builder: PipelineBuilder,
}

impl Workload for Newsroom {
    const NAME: &'static str = "newsroom";
    const OP: &'static str = "doc";
    const TAIL: f64 = 0.99;

    /// Generates the plans and media, starts the serving builder (and its
    /// stage-5c engine), and warms up on one epoch.
    fn setup(seed: u64) -> Result<Newsroom, String> {
        let kit = MediaKit::new(seed);
        let plans = (0..PLANS)
            .map(|index| plan(seed, index, &kit))
            .collect::<Result<Vec<_>, String>>()?;
        let cfg = ServeConfig {
            device: DeviceProfile::workstation(),
            jitter: JitterModel::uniform(JITTER_MAX_MS, seed),
            playback_runs: 2,
            playback_workers: 2,
        };
        let builder = cfg.builder(&Linter::new());
        let newsroom = Newsroom {
            plans,
            cfg,
            builder,
        };
        let mut warm = Outcome::default();
        newsroom.epoch(0, &mut RunClock::start(), &mut warm, &mut Tally::new());
        // Output checks belong to the measured run; the warm-up only has
        // to get through its operations.
        if warm.failures.failed() > 0 {
            return Err(format!("warm-up epoch failed: {:?}", warm.failures.lines()));
        }
        Ok(newsroom)
    }

    /// Untraced epochs until `seconds` of run time have passed.
    fn measure(&mut self, seconds: f64) -> Outcome {
        let mut out = Outcome::default();
        let mut tally = Tally::new();
        let mut clock = RunClock::start();
        let mut windows = Windows::open(&clock);
        let mut index = 0;
        while clock.elapsed().as_secs_f64() < seconds {
            self.epoch(index, &mut clock, &mut out, &mut tally);
            index += 1;
            if index % EPOCHS_PER_WINDOW == 0 {
                out.windows.extend(windows.close(&clock, &out.latencies_ms));
            }
        }
        out.run_s = clock.elapsed().as_secs_f64();
        out.extra.push((
            "publish_p50_ms",
            median(&tally.publish_ms).unwrap_or(f64::NAN),
            "ms",
        ));
        out.extra
            .push(("sim_net_ms_per_view", tally.sim_net_ms_per_view(), "sim-ms"));
        tally.provenance(&mut out);
        out
    }

    /// The traced run: every epoch is served twice on twin clusters built
    /// from the same plan — once through the decomposed, traced path and
    /// once through the builder — and each view's two results must match.
    fn trace(&mut self, seconds: f64) -> Outcome {
        let cfg = &self.cfg;
        let engine = cfg.engine(cfg.playback_workers);
        let linter = Linter::new();
        let mut out = Outcome::default();
        let mut tally = Tally::new();
        let mut served_tally = ServedTally::default();
        let mut net = NetTally::default();
        let mut t = Tracer::new();
        let mut reference_ms = 0.0;
        let mut request = 0u64;
        let started = Instant::now();
        let mut index = 0;
        while started.elapsed().as_secs_f64() < seconds {
            let plan = &self.plans[index % PLANS];
            request += 1;
            let traced = t.request("newsroom.cluster", request, |t| {
                t.span("distrib.new_cluster", |_| build_cluster(plan.fault_seed))
            });
            let (twin, ms) = time_ms(|| build_cluster(plan.fault_seed));
            reference_ms += ms;
            let (Some(a), Some(b)) = (
                out.failures.record("cluster", traced),
                out.failures.record("cluster", twin),
            ) else {
                break;
            };

            for doc in &plan.docs {
                let (blocks_a, blocks_b) = (doc.blocks.clone(), doc.blocks.clone());
                request += 1;
                let size_a = t.request("newsroom.publish", request, |t| {
                    publish(t, &a, doc, blocks_a)
                });
                let (size_b, ms) = time_ms(|| publish(&mut Tracer::disabled(), &b, doc, blocks_b));
                reference_ms += ms;
                tally.publish_ms.push(ms);
                let size_a = out.failures.record("publish", size_a);
                let size_b = out.failures.record("publish", size_b);
                out.checks.require("twin publish", size_a == size_b, || {
                    format!("{}: {size_a:?} vs {size_b:?}", doc.name)
                });
                if let Some(size) = size_a {
                    net.wire_bytes += size as u64;
                    net.publishes += 1;
                }
            }

            let before = a.traffic();
            let mut sim_ms = 0;
            for view in &plan.views {
                let doc = &plan.docs[view.doc];
                let host = HOSTS[view.host];
                request += 1;
                let served = t.request("newsroom.view", request, |t| {
                    serve_distributed(t, &a, host, &doc.name, cfg, &linter, &engine)
                });
                let (run, ms) = time_ms(|| self.builder.run_distributed(&b, host, &doc.name));
                reference_ms += ms;
                let (Some(served), Some(run)) = (
                    out.failures.record("view", served),
                    out.failures.record("view", run),
                ) else {
                    continue;
                };
                out.latencies_ms.push(ms);
                check_view(&mut out.checks, doc, &run);
                tally.view(view, &run);
                sim_ms += run.fetch.map_or(0, |f| f.simulated_ms);
                match a.local_store(host) {
                    Ok(store) => served_tally.add(
                        &mut out.checks,
                        &served,
                        &run,
                        &store.export_catalog(),
                        cfg,
                    ),
                    Err(e) => out.checks.check("local store", Err(e.to_string())),
                }
            }
            let after = a.traffic();
            net.view_transfers += after.transfers - before.transfers;
            net.view_failed += after.failed_transfers - before.failed_transfers;
            net.view_bytes += (after.structure_bytes + after.media_bytes)
                - (before.structure_bytes + before.media_bytes);

            request += 1;
            let repair_a = t.request("newsroom.repair", request, |t| {
                let report = t.span("distrib.repair_all", |_| a.repair_all());
                t.span("distrib.drop_cluster", |_| drop(a));
                report
            });
            let (repair_b, ms) = time_ms(|| {
                let report = b.repair_all();
                drop(b);
                report
            });
            reference_ms += ms;
            out.checks.require("twin repair", repair_a == repair_b, || {
                "twin clusters repaired differently".to_string()
            });
            out.checks.require("repair", repair_a.lost.is_empty(), || {
                format!("{repair_a:?}")
            });
            net.repair_actions += repair_a.actions.len() as u64;
            tally.epoch_done(index, sim_ms, plan.views.len());
            index += 1;
        }

        crate::write_spans("newsroom", &t);
        let trace = match breakdown(t.spans()) {
            Ok(trace) => trace,
            Err(e) => {
                out.checks.check("trace sum", Err(e));
                return out;
            }
        };
        let views = tally.views.max(1) as f64;
        let epochs = tally.epochs.max(1) as f64;
        let publishes = net.publishes.max(1) as f64;
        out.layers
            .extend(served_tally.layers(&trace, &engine, &linter));
        out.layers.extend([
            ("format.wire_bytes", net.wire_bytes as f64 / publishes),
            (
                "distrib.publish_us",
                trace.self_us(&["distrib.put_block", "distrib.publish_document"]) / publishes,
            ),
            (
                "distrib.fetch_document_us",
                trace.self_us(&["distrib.fetch_document"]) / views,
            ),
            (
                "distrib.fetch_blocks_us",
                trace.self_us(&["distrib.fetch_blocks_for_traced"]) / views,
            ),
            (
                "distrib.remote_block_share",
                share(tally.fetched, tally.requested),
            ),
            ("distrib.retries_per_view", tally.retries as f64 / views),
            (
                "distrib.transfer_success_ratio",
                share(net.view_transfers, net.view_transfers + net.view_failed),
            ),
            ("distrib.bytes_per_view", net.view_bytes as f64 / views),
            (
                "distrib.repair_us",
                trace.self_us(&["distrib.repair_all"]) / epochs,
            ),
            ("distrib.repair_actions", net.repair_actions as f64 / epochs),
            ("distrib.sim_net_ms_per_view", tally.sim_net_ms_per_view()),
            ("engine.scaling_2v1", self.scaling_probe()),
            (
                "trace.unattributed_us",
                trace.unattributed_ns as f64 / 1e3 / views,
            ),
            (
                "trace.overhead",
                trace.wall_ns as f64 / 1e6 / reference_ms.max(f64::MIN_POSITIVE),
            ),
        ]);
        out.run_s = trace.wall_ns as f64 / 1e9;
        out.breakdown = Some(trace);
        tally.provenance(&mut out);
        out
    }
}

impl Newsroom {
    /// One untraced epoch through the serving builder.
    fn epoch(&self, index: usize, clock: &mut RunClock, out: &mut Outcome, tally: &mut Tally) {
        let plan = &self.plans[index % PLANS];
        let Some(cluster) = out
            .failures
            .record("cluster", build_cluster(plan.fault_seed))
        else {
            return;
        };
        let mut untraced = Tracer::disabled();
        for doc in &plan.docs {
            let blocks = clock.exclude(|| doc.blocks.clone());
            let (published, ms) = time_ms(|| publish(&mut untraced, &cluster, doc, blocks));
            if out.failures.record("publish", published).is_some() {
                tally.publish_ms.push(ms);
            }
        }
        let mut sim_ms = 0;
        for view in &plan.views {
            let doc = &plan.docs[view.doc];
            let (run, ms) = time_ms(|| {
                self.builder
                    .run_distributed(&cluster, HOSTS[view.host], &doc.name)
            });
            let Some(run) = out.failures.record("view", run) else {
                continue;
            };
            out.latencies_ms.push(ms);
            clock.exclude(|| {
                check_view(&mut out.checks, doc, &run);
                tally.view(view, &run);
                sim_ms += run.fetch.map_or(0, |f| f.simulated_ms);
            });
        }
        let repair = cluster.repair_all();
        drop(cluster);
        clock.exclude(|| {
            out.checks
                .require("repair", repair.lost.is_empty(), || format!("{repair:?}"));
            tally.epoch_done(index, sim_ms, plan.views.len());
        });
    }

    /// `engine.scaling_2v1`: stage-5c throughput of a 2-worker engine over
    /// a 1-worker engine, on the first plan's documents (two sessions
    /// each, as the pipeline plays them), median of five alternating
    /// rounds.
    fn scaling_probe(&self) -> f64 {
        const COPIES: u32 = 16;
        const ROUNDS: usize = 5;
        let cfg = &self.cfg;
        let jobs: Vec<_> = self.plans[0]
            .docs
            .iter()
            .filter_map(|d| {
                let doc = Arc::new(d.doc.clone());
                let solve =
                    ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default())
                        .and_then(|mut graph| graph.solve(&doc, &doc.catalog))
                        .ok()?;
                let catalog: Arc<dyn DescriptorResolver + Send + Sync> =
                    Arc::new(doc.catalog.clone());
                Some((doc, Arc::new(solve), catalog))
            })
            .collect();
        let batch = |engine: &Engine| {
            let submissions = (0..COPIES).flat_map(|copy| {
                jobs.iter().flat_map(move |(doc, solve, catalog)| {
                    (0..cfg.playback_runs).map(move |run| {
                        Submission::new(Arc::clone(doc), cfg.run_jitter(run + copy))
                            .resolver(Arc::clone(catalog))
                            .solved(Arc::clone(solve))
                    })
                })
            });
            let started = Instant::now();
            if let Ok(ids) = engine.submit_batch(submissions) {
                for id in ids {
                    engine.wait(id);
                }
            }
            started.elapsed().as_secs_f64()
        };
        let (one, two) = (cfg.engine(1), cfg.engine(2));
        batch(&one);
        batch(&two);
        let (mut t1, mut t2) = (Vec::new(), Vec::new());
        for round in 0..ROUNDS {
            if round % 2 == 0 {
                t1.push(batch(&one));
                t2.push(batch(&two));
            } else {
                t2.push(batch(&two));
                t1.push(batch(&one));
            }
        }
        match (median(&t1), median(&t2)) {
            (Some(t1), Some(t2)) if t2 > 0.0 => t1 / t2,
            _ => 0.0,
        }
    }
}

/// Distribution counters of a traced run.
#[derive(Debug, Default)]
struct NetTally {
    wire_bytes: u64,
    publishes: u64,
    view_transfers: u64,
    view_failed: u64,
    view_bytes: u64,
    repair_actions: u64,
}
