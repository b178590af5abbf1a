//! Extension — the static analyser's cost envelope.
//!
//! The lint engine fronts both the pipeline's stage 2 and the scheduling
//! engine's admission gate, so its cost is paid per document *before* any
//! worker is spent. This bench prices the two sides of that bargain:
//!
//! * `check_clean` — the full 19-pass registry over lint-clean synthetic
//!   news documents at 4/16/64 stories. This is the admission overhead an
//!   honest document pays. The structural passes are preorder walks and
//!   the timing passes share one relaxation of the derived constraint
//!   graph on the scheduler's kernel (each edge once in topological order,
//!   a worklist only for cyclic regions), so the envelope should grow
//!   linearly — the per-size figures keep any departure visible. Each
//!   target re-lints one revision.
//! * `check_fresh` — the same registry at 16/64 stories, but every
//!   iteration lints a revision the linter has not seen in its last 64
//!   checks: the loop cycles through 65 separately built documents, each a
//!   revision of its own. This is what stage 2 runs, since a served request
//!   decodes a fresh document.
//! * `check_broken` / `render_broken` — a parsed document with findings in
//!   every code family (structure, timing, resources), checked and then
//!   rendered rustc-style against its `SourceMap`. Rendering prices the
//!   source-line lookup and caret assembly, which only failing documents
//!   pay.
//!
//! The banner prints checks/sec per size, both re-linting one revision
//! (`clean/stories*`) and cycling through fresh revisions as
//! `check_fresh` does (`fresh/stories*`, the rate stage 2 pays), plus the
//! broken-document figures, and the probe is appended to
//! `BENCH_ext_lint.json` at the repo root so the analyser's perf
//! trajectory is versioned next to the code.

use std::time::{Duration, Instant};

use cmif::core::tree::Document;
use cmif::format::parse_document_unvalidated;
use cmif::lint::Linter;
use cmif::synthetic::SyntheticNews;
use cmif_bench::banner;
use cmif_bench::trajectory::{self, TrajectoryRun};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// A document with at least one finding per code family: an undefined
/// style (L005), an undeclared channel (L201), a descriptor-less external
/// (L202), a double-booked channel (L203) and a two-arc cycle (L101).
const BROKEN: &str = r#"(cmif
  (channels
    (channel audio audio)
    (channel caption text))
  (seq (name bulletin)
    (par (name story)
      (ext (name voice) (channel audio) (file "story-audio")
        (sync_arc begin must begin "../line" 1000 ms "" 0 inf))
      (imm (name line) (channel caption) (duration 3000)
        (style headline)
        (sync_arc begin must begin "../voice" 1000 ms "" 0 inf)
        (data "Van Gogh recovered"))
      (imm (name lower-third) (channel caption) (duration 2000)
        (data "Amsterdam"))
      (imm (name ticker) (channel wire) (duration 2000)
        (data "more at eleven")))))
"#;

/// Distinct revisions a `check_fresh` target cycles through: more than the
/// last 64 checks, so no iteration lints a revision seen recently.
const FRESH_REVISIONS: usize = 65;

fn clean_doc(stories: usize) -> Document {
    SyntheticNews::with_stories(stories)
        .build()
        .expect("synthetic news builds")
}

/// Checks `rounds` documents per pass, cycling through `docs` (the cycle
/// runs on from one pass to the next), and returns documents/sec (best of
/// two passes).
fn docs_per_sec(linter: &Linter, docs: &[Document], rounds: usize) -> f64 {
    let mut best = f64::INFINITY;
    let mut cycle = docs.iter().cycle();
    for _ in 0..2 {
        let started = Instant::now();
        for doc in cycle.by_ref().take(rounds) {
            let report = linter.check(doc);
            assert!(!report.has_deny(), "clean fixture must stay clean");
        }
        best = best.min(started.elapsed().as_secs_f64());
    }
    rounds as f64 / best
}

fn bench_lint(c: &mut Criterion) {
    let linter = Linter::new();

    // Every build mints a fresh revision id.
    let fresh: Vec<(usize, Vec<Document>)> = [16usize, 64]
        .into_iter()
        .map(|stories| {
            let docs = (0..FRESH_REVISIONS).map(|_| clean_doc(stories)).collect();
            (stories, docs)
        })
        .collect();

    // Regenerate the artifact: full-registry checks/sec as documents grow,
    // re-linting one revision and linting fresh ones.
    let mut run = TrajectoryRun::now("cargo bench ext_lint");
    let mut lines = String::from("stories   nodes   re-lint/sec   fresh/sec\n");
    for stories in [4usize, 16, 64] {
        let doc = clean_doc(stories);
        let nodes = doc.node_count();
        let rate = docs_per_sec(&linter, std::slice::from_ref(&doc), 64);
        run = run.metric(format!("clean/stories{stories}/checks_per_sec"), rate);
        let fresh_rate = match fresh.iter().find(|(size, _)| *size == stories) {
            Some((_, docs)) => {
                let rate = docs_per_sec(&linter, docs, 64);
                run = run.metric(format!("fresh/stories{stories}/checks_per_sec"), rate);
                format!("{rate:.0}")
            }
            None => "-".to_string(),
        };
        lines.push_str(&format!(
            "{stories:<9} {nodes:<7} {rate:<13.0} {fresh_rate}\n"
        ));
    }

    let broken = parse_document_unvalidated(BROKEN).expect("broken fixture parses");
    let report = linter.check(&broken);
    let findings = report.diagnostics().len();
    assert!(report.has_deny(), "broken fixture must keep its findings");
    let started = Instant::now();
    let rounds = 256;
    for _ in 0..rounds {
        let report = linter.check(&broken);
        assert_eq!(report.diagnostics().len(), findings);
    }
    let broken_rate = rounds as f64 / started.elapsed().as_secs_f64();
    let rendered = report.render(broken.sources.as_deref());
    lines.push_str(&format!(
        "broken document: {findings} findings/check, {broken_rate:.0} checks/sec, \
         {} rendered bytes\n",
        rendered.len()
    ));
    run = run
        .metric("broken/findings_per_check", findings as f64)
        .metric("broken/checks_per_sec", broken_rate);
    banner(
        "ext: static analysis cost (full registry per document)",
        &lines,
    );
    match trajectory::record_run("ext_lint", run) {
        Ok(path) => println!("perf trajectory appended to {}", path.display()),
        Err(e) => eprintln!("could not write the perf trajectory: {e}"),
    }

    // The gated targets.
    let mut group = c.benchmark_group("ext_lint");
    for stories in [4usize, 16, 64] {
        let doc = clean_doc(stories);
        group.bench_with_input(BenchmarkId::new("check_clean", stories), &doc, |b, doc| {
            b.iter(|| linter.check(doc));
        });
    }
    for (stories, docs) in &fresh {
        let mut next = 0;
        group.bench_with_input(BenchmarkId::new("check_fresh", stories), docs, |b, docs| {
            b.iter(|| {
                next = (next + 1) % docs.len();
                linter.check(&docs[next])
            });
        });
    }
    group.bench_function("check_broken", |b| {
        b.iter(|| linter.check(&broken));
    });
    group.bench_function("render_broken", |b| {
        b.iter(|| linter.check(&broken).render(broken.sources.as_deref()));
    });
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
    targets = bench_lint
}
criterion_main!(benches);
