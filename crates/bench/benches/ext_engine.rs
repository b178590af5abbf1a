//! Extension — the session-based scheduling engine under concurrent load.
//!
//! The paper's Figure 1 ends in a player for *one* document; the ROADMAP
//! north-star is a server multiplexing many. This bench regenerates the
//! engine scaling artifact (documents per second as the worker pool grows)
//! and measures batch throughput at 1, 8 and 64 concurrent documents.
//!
//! Expected shape: per-document work is independent (derive → relax → play
//! a session) and workers never hold the queue lock while playing, so an
//! 8-worker engine clears a 64-document backlog several times faster than a
//! single worker; the acceptance bar for this PR is >2x docs/sec at 8
//! workers vs 1. That bar only makes sense on a multi-core host — the
//! banner prints the detected parallelism so a ~1.0x column on a single-CPU
//! container reads as the hardware limit it is, not as a queue bottleneck.
//!
//! The `bounded_backlog` targets price the *admission* path instead: a
//! saturated producer pushing the same 64 documents through
//! `max_backlog` 1/8/64, so the blocking `submit` (capacity-condvar
//! park/unpark per document) is measured and gated in CI alongside the
//! unbounded throughput targets.
//!
//! The `tenants` targets price the multi-tenant plane: the same 256
//! documents spread round-robin over 1, 16 and 256 tenants, admitted with
//! `submit_batch` and dispatched by the weighted-fair stride scheduler.
//! The acceptance bar is *flatness*, not speed: per-submission admission
//! p99 at 256 tenants must stay within 2x of the single-tenant p99 (the
//! tenant plane is a HashMap lookup plus an O(log T) heap push — growing
//! the tenant table must not grow the admission constant). The banner
//! prints the measured p99s, and the whole probe is written to
//! `BENCH_ext_engine.json` at the repo root so the perf trajectory is
//! versioned next to the code instead of expiring with CI artifacts.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cmif::core::tree::Document;
use cmif::scheduler::{Engine, EngineConfig, JitterModel, Submission, TenantId};
use cmif::synthetic::SyntheticNews;
use cmif_bench::trajectory::{self, TrajectoryRun};
use cmif_bench::{banner, ratio};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// A small mixed batch: story counts 1..=3, one seeded jitter model each.
/// Documents are built once and shared as `Arc`s — the engine's submission
/// path clones pointers, never trees.
fn batch(size: usize) -> Vec<(Arc<Document>, JitterModel)> {
    (0..size)
        .map(|i| {
            let doc = SyntheticNews::with_stories(1 + i % 3)
                .build()
                .expect("synthetic news builds");
            (Arc::new(doc), JitterModel::uniform(120, i as u64))
        })
        .collect()
}

/// Plays the whole batch through an engine and returns the wall time.
/// `admit` blocks when the engine's queue is bounded and full, so on a
/// bounded engine this measures the producer-throttled admission path.
fn play_batch(engine: &Engine, docs: &[(Arc<Document>, JitterModel)]) -> Duration {
    let started = Instant::now();
    for (doc, jitter) in docs {
        engine
            .admit(Submission::new(Arc::clone(doc), jitter.clone()))
            .expect("engine is open");
    }
    let outcomes = engine.drain();
    assert_eq!(outcomes.len(), docs.len());
    assert!(outcomes.iter().all(|o| o.is_ok()));
    started.elapsed()
}

/// One submission per document, tagged round-robin across `tenants` ids.
fn tagged(docs: &[(Arc<Document>, JitterModel)], tenants: usize) -> Vec<Submission> {
    docs.iter()
        .enumerate()
        .map(|(i, (doc, jitter))| {
            Submission::new(Arc::clone(doc), jitter.clone())
                .tenant(TenantId::new((i % tenants.max(1)) as u64))
        })
        .collect()
}

/// Admits the batch in one queue transaction and drains the engine.
fn play_batch_tagged(engine: &Engine, docs: &[(Arc<Document>, JitterModel)], tenants: usize) {
    engine
        .submit_batch(tagged(docs, tenants))
        .expect("engine is open and unquota'd");
    let outcomes = engine.drain();
    assert_eq!(outcomes.len(), docs.len());
    assert!(outcomes.iter().all(|o| o.is_ok()));
}

/// Result of one admission-latency probe at a fixed tenant count.
struct TenantProbe {
    tenants: usize,
    docs_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
}

/// Times every individual `admit` call at `tenants` distinct tenant ids and
/// reports the latency distribution plus the end-to-end rate. This is the
/// flatness probe: admission cost must not scale with the tenant table.
fn probe_admission(docs: &[(Arc<Document>, JitterModel)], tenants: usize) -> TenantProbe {
    let engine = Engine::with_workers(4);
    // Warm the tenant table and the worker pool once.
    play_batch_tagged(&engine, docs, tenants);

    let submissions = tagged(docs, tenants);
    let started = Instant::now();
    let mut latencies: Vec<Duration> = submissions
        .into_iter()
        .map(|submission| {
            let admit_started = Instant::now();
            engine.admit(submission).expect("engine is open");
            admit_started.elapsed()
        })
        .collect();
    let outcomes = engine.drain();
    let elapsed = started.elapsed();
    assert_eq!(outcomes.len(), docs.len());

    latencies.sort_unstable();
    let micros = |q: f64| -> f64 {
        let index = ((latencies.len() as f64 * q).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[index].as_secs_f64() * 1e6
    };
    engine.shutdown();
    TenantProbe {
        tenants,
        docs_per_sec: docs.len() as f64 / elapsed.as_secs_f64(),
        p50_us: micros(0.50),
        p99_us: micros(0.99),
        max_us: micros(1.0),
    }
}

/// Times admission only (not playback) for a loop of single `admit` calls
/// vs one `submit_batch`, on a fresh engine each.
fn probe_batch_speedup(docs: &[(Arc<Document>, JitterModel)], tenants: usize) -> (f64, f64, f64) {
    let time_admissions = |as_batch: bool| -> f64 {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        // Warm-up round, then best-of-two timed rounds.
        play_batch_tagged(&engine, docs, tenants);
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let submissions = tagged(docs, tenants);
            let started = Instant::now();
            if as_batch {
                engine.submit_batch(submissions).expect("engine is open");
            } else {
                for submission in submissions {
                    engine.admit(submission).expect("engine is open");
                }
            }
            best = best.min(started.elapsed().as_secs_f64());
            engine.drain();
        }
        engine.shutdown();
        best
    };
    let loop_secs = time_admissions(false);
    let batch_secs = time_admissions(true);
    (
        loop_secs * 1e6,
        batch_secs * 1e6,
        ratio(loop_secs, batch_secs),
    )
}

fn bench_engine(c: &mut Criterion) {
    // Regenerate the artifact: docs/sec for a 64-document backlog as the
    // worker pool grows.
    let docs = batch(64);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut lines =
        format!("host parallelism: {cores} core(s)\nworkers   docs/sec   speedup vs 1 worker\n");
    let mut baseline = None;
    for workers in [1usize, 2, 4, 8] {
        let engine = Engine::new(EngineConfig {
            workers,
            ..EngineConfig::default()
        });
        // Warm one batch, then time the better of two runs (the queue is
        // steady-state either way; this damps scheduler noise).
        play_batch(&engine, &docs);
        let elapsed = play_batch(&engine, &docs).min(play_batch(&engine, &docs));
        let docs_per_sec = docs.len() as f64 / elapsed.as_secs_f64();
        let baseline_rate = *baseline.get_or_insert(docs_per_sec);
        lines.push_str(&format!(
            "{workers:<9} {docs_per_sec:<10.0} {:.2}x\n",
            docs_per_sec / baseline_rate
        ));
        engine.shutdown();
    }
    banner(
        "ext: engine throughput, 64 concurrent documents (docs/sec vs workers)",
        &lines,
    );

    // Multi-tenant probe: 256 documents spread over 1/16/256 tenants. The
    // JSON trajectory records what the banner prints.
    let tenant_docs = batch(256);
    let mut run = TrajectoryRun::now("cargo bench ext_engine");
    let mut lines = format!(
        "host parallelism: {cores} core(s)\n\
         tenants   docs/sec   admit p50 µs   admit p99 µs   admit max µs\n"
    );
    let mut probes = Vec::new();
    for tenants in [1usize, 16, 256] {
        let probe = probe_admission(&tenant_docs, tenants);
        lines.push_str(&format!(
            "{:<9} {:<10.0} {:<14.1} {:<14.1} {:.1}\n",
            probe.tenants, probe.docs_per_sec, probe.p50_us, probe.p99_us, probe.max_us,
        ));
        run = run
            .metric(
                format!("tenants/{tenants}/docs_per_sec"),
                probe.docs_per_sec,
            )
            .metric(format!("tenants/{tenants}/p99_admission_us"), probe.p99_us);
        probes.push(probe);
    }
    let p99_spread = ratio(
        probes.last().map(|p| p.p99_us).unwrap_or(0.0),
        probes.first().map(|p| p.p99_us).unwrap_or(0.0),
    );
    lines.push_str(&format!(
        "p99 admission spread 1 → 256 tenants: {p99_spread:.2}x (acceptance bar: within 2x)\n"
    ));
    run = run.metric("tenants/p99_spread_1_to_256", p99_spread);

    let (loop_us, batch_us, speedup) = probe_batch_speedup(&tenant_docs, 16);
    lines.push_str(&format!(
        "admitting 256 docs, 16 tenants: loop-of-admit {loop_us:.0} µs, \
         submit_batch {batch_us:.0} µs ({speedup:.2}x)\n"
    ));
    run = run.metric("batch_admission_speedup", speedup);
    banner(
        "ext: multi-tenant admission (p99 flatness across tenant counts)",
        &lines,
    );
    match trajectory::record_run("ext_engine", run) {
        Ok(path) => println!("perf trajectory appended to {}", path.display()),
        Err(e) => eprintln!("could not write the perf trajectory: {e}"),
    }

    let mut group = c.benchmark_group("ext_engine");
    for concurrency in [1usize, 8, 64] {
        let docs = batch(concurrency);
        let engine = Engine::new(EngineConfig {
            workers: 8,
            ..EngineConfig::default()
        });
        group.bench_with_input(
            BenchmarkId::new("play_documents", concurrency),
            &docs,
            |b, docs| {
                b.iter(|| play_batch(&engine, docs));
            },
        );
        engine.shutdown();
    }

    // Saturated producer: 64 documents forced through a *bounded* queue on
    // 2 workers. At backlog 1 the producer spends most of its time parked
    // on the capacity condvar — the target prices the blocking admission
    // path itself (park/unpark per document), which the unbounded targets
    // above never touch; at 64 the bound never binds and the number should
    // track `play_documents/64` modulo the worker count.
    let docs = batch(64);
    for backlog in [1usize, 8, 64] {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            max_backlog: Some(backlog),
            ..EngineConfig::default()
        });
        group.bench_with_input(
            BenchmarkId::new("bounded_backlog", backlog),
            &docs,
            |b, docs| {
                b.iter(|| play_batch(&engine, docs));
            },
        );
        engine.shutdown();
    }

    // The gated tenants targets: same 256 documents, one `submit_batch`
    // admission, fair dispatch over 1/16/256 tenants. The tenant plane must
    // be invisible here — a regression on `tenants/256` relative to
    // `tenants/1` means the stride heap or the tenant table leaked into the
    // per-document constant.
    for tenants in [1usize, 16, 256] {
        let engine = Engine::with_workers(4);
        group.bench_with_input(
            BenchmarkId::new("tenants", tenants),
            &tenant_docs,
            |b, docs| {
                b.iter(|| play_batch_tagged(&engine, docs, tenants));
            },
        );
        engine.shutdown();
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_engine
}
criterion_main!(benches);
