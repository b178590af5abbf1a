//! Extension — live authoring: an edit session against a bare cold
//! re-solve, per edit.
//!
//! CMIFed's edit-while-playing loop re-schedules a document after every
//! authoring gesture, so the cost that matters is *per edit*. This bench
//! runs one edit script — single-subtree insert/remove pairs rotating
//! across stories — two ways at 4/16/64 stories:
//!
//! * `incremental` — [`EditSession::apply`], then
//!   [`EditSession::solve_result`];
//! * `full` — [`DocRevision::apply`], then a cold
//!   [`ConstraintGraph::derive`] + `solve` of the edited document.
//!
//! Both sides run one cold re-solve per edit, because that is what a
//! session edit is. The session adds only the clone `solve_result` returns
//! (3–4, 4–7 and 14–20 µs at 4, 16 and 64 stories on a 2-vCPU VM, a few
//! per cent of an edit), so the ratio reads about 1.0. The target and
//! metric names date from when the session repaired its fixpoint in place;
//! they are kept so the gated targets and the trajectory stay comparable.
//! The two sides produce identical `SolveResult`s (asserted once per
//! size). The banner prints edits/sec for both and their ratio, and the
//! probe is appended to `BENCH_ext_author.json`.
//!
//! The criterion targets edit one revision chain for thousands of
//! iterations. Removed nodes stay in the arena, so their per-edit time
//! grows with the number of iterations run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cmif::core::edit::{DocRevision, Edit, NodeSpec};
use cmif::core::tree::Document;
use cmif::scheduler::{ConstraintGraph, EditSession, ScheduleOptions, SolveResult};
use cmif::synthetic::SyntheticNews;
use cmif_bench::banner;
use cmif_bench::trajectory::{self, TrajectoryRun};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn corpus(stories: usize) -> Arc<Document> {
    Arc::new(
        SyntheticNews::with_stories(stories)
            .build()
            .expect("synthetic news builds"),
    )
}

fn cold_solve(doc: &Document) -> SolveResult {
    ConstraintGraph::derive(doc, &doc.catalog, &ScheduleOptions::default())
        .expect("corpus derives")
        .solve(doc, &doc.catalog)
        .expect("corpus solves")
}

/// The `serial`-th edit of the script: an insert of a fresh caption into a
/// rotating story (even serials) or the removal of the node the previous
/// insert created (odd serials). Both are single-subtree edits — the
/// document returns to its original shape after every pair.
fn insert_edit(doc: &Document, stories: usize, serial: usize) -> Edit {
    let story = (serial / 2) % stories;
    let parent = doc
        .find(&format!("/story-{story}"))
        .expect("story par exists");
    Edit::InsertSubtree {
        parent,
        spec: NodeSpec::imm_text(format!("late-{serial}"), "breaking update")
            .on_channel("caption")
            .lasting_ms(2_500),
    }
}

/// Runs `rounds` insert/remove pairs through an [`EditSession`], reading
/// its result after every edit. Returns edits/sec.
fn incremental_edits_per_sec(doc: &Arc<Document>, stories: usize, rounds: usize) -> f64 {
    let catalog = doc.catalog.clone();
    let mut session = EditSession::begin(
        DocRevision::initial(Arc::clone(doc)),
        &catalog,
        ScheduleOptions::default(),
    )
    .expect("session opens");
    let started = Instant::now();
    for round in 0..rounds {
        let edit = insert_edit(session.revision().doc(), stories, round * 2);
        let delta = session.apply(&edit).expect("insert applies");
        session.solve_result().expect("insert solves");
        let inserted = delta.inserted.expect("insert reports its subtree");
        session
            .apply(&Edit::RemoveSubtree { node: inserted })
            .expect("remove applies");
        session.solve_result().expect("remove solves");
    }
    (rounds * 2) as f64 / started.elapsed().as_secs_f64()
}

/// The same edit script on a bare revision chain, with a cold re-solve of
/// the edited document after every edit. Returns edits/sec.
fn full_edits_per_sec(doc: &Arc<Document>, stories: usize, rounds: usize) -> f64 {
    let mut revision = DocRevision::initial(Arc::clone(doc));
    let started = Instant::now();
    for round in 0..rounds {
        let edit = insert_edit(revision.doc(), stories, round * 2);
        let (next, delta) = revision.apply(&edit).expect("insert applies");
        revision = next;
        cold_solve(revision.doc());
        let inserted = delta.inserted.expect("insert reports its subtree");
        let (next, _) = revision
            .apply(&Edit::RemoveSubtree { node: inserted })
            .expect("remove applies");
        revision = next;
        cold_solve(revision.doc());
    }
    (rounds * 2) as f64 / started.elapsed().as_secs_f64()
}

/// One-off equivalence spot check: the two paths agree on the edited
/// document (the `edit_sessions` proptest covers the general claim).
fn assert_equivalent(doc: &Arc<Document>, stories: usize) {
    let catalog = doc.catalog.clone();
    let mut session = EditSession::begin(
        DocRevision::initial(Arc::clone(doc)),
        &catalog,
        ScheduleOptions::default(),
    )
    .expect("session opens");
    let edit = insert_edit(doc, stories, 0);
    session.apply(&edit).expect("insert applies");
    let incremental = session.solve_result().expect("insert solves");
    let cold = cold_solve(session.revision().doc());
    assert_eq!(incremental, cold, "incremental must equal cold re-solve");
}

fn bench_author(c: &mut Criterion) {
    let mut run = TrajectoryRun::now("cargo bench ext_author");
    let mut lines = String::from("stories   session edits/s   cold edits/s   ratio\n");
    for stories in [4usize, 16, 64] {
        let doc = corpus(stories);
        assert_equivalent(&doc, stories);
        let rounds = if stories >= 64 { 24 } else { 64 };
        let incremental = incremental_edits_per_sec(&doc, stories, rounds);
        let full = full_edits_per_sec(&doc, stories, rounds);
        let speedup = incremental / full;
        lines.push_str(&format!(
            "{stories:<9} {incremental:<17.0} {full:<14.0} {speedup:.2}x\n"
        ));
        run = run
            .metric(
                format!("stories{stories}/incremental_edits_per_sec"),
                incremental,
            )
            .metric(format!("stories{stories}/full_edits_per_sec"), full)
            .metric(format!("stories{stories}/speedup"), speedup);
    }
    banner(
        "ext: live authoring (edit session vs bare cold re-solve per edit; both re-solve cold)",
        &lines,
    );
    match trajectory::record_run("ext_author", run) {
        Ok(path) => println!("perf trajectory appended to {}", path.display()),
        Err(e) => eprintln!("could not write the perf trajectory: {e}"),
    }

    // The gated targets.
    let mut group = c.benchmark_group("ext_author");
    for stories in [4usize, 64] {
        let doc = corpus(stories);
        group.bench_with_input(
            BenchmarkId::new("incremental_edit", stories),
            &doc,
            |b, doc| {
                let catalog = doc.catalog.clone();
                let mut session = EditSession::begin(
                    DocRevision::initial(Arc::clone(doc)),
                    &catalog,
                    ScheduleOptions::default(),
                )
                .expect("session opens");
                let mut serial = 0usize;
                b.iter(|| {
                    let edit = insert_edit(session.revision().doc(), stories, serial * 2);
                    let delta = session.apply(&edit).expect("insert applies");
                    session.solve_result().expect("insert solves");
                    session
                        .apply(&Edit::RemoveSubtree {
                            node: delta.inserted.expect("insert reports its subtree"),
                        })
                        .expect("remove applies");
                    session.solve_result().expect("remove solves");
                    serial += 1;
                });
            },
        );
        let doc = corpus(stories);
        group.bench_with_input(BenchmarkId::new("full_resolve", stories), &doc, |b, doc| {
            let mut revision = DocRevision::initial(Arc::clone(doc));
            let mut serial = 0usize;
            b.iter(|| {
                let edit = insert_edit(revision.doc(), stories, serial * 2);
                let (next, delta) = revision.apply(&edit).expect("insert applies");
                revision = next;
                cold_solve(revision.doc());
                let (next, _) = revision
                    .apply(&Edit::RemoveSubtree {
                        node: delta.inserted.expect("insert reports its subtree"),
                    })
                    .expect("remove applies");
                revision = next;
                cold_solve(revision.doc());
                serial += 1;
            });
        });
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
    targets = bench_author
}
criterion_main!(benches);
