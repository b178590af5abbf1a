//! Figure 10 — the news report fragment with its explicit synchronization
//! arcs, and the three conflict classes of §5.3.3.
//!
//! Regenerates the scheduled fragment (Gantt chart), shows the freeze-frame
//! behaviour the figure describes, and measures conflict detection for all
//! three classes: specification conflicts, device conflicts on three
//! environments, and navigation (seek) conflicts.

use std::time::Duration;

use cmif::news::evening_news;
use cmif::pipeline::DeviceProfile;
use cmif::scheduler::{
    device_conflicts, full_report, invalid_arcs_when_seeking, specification_conflicts,
    ConstraintGraph, JitterModel, PlayerSession, ScheduleOptions,
};
use cmif_bench::{banner, news_fixture};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_news_fragment(c: &mut Criterion) {
    let doc = evening_news().unwrap();
    let solved = ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default())
        .unwrap()
        .solve(&doc, &doc.catalog)
        .unwrap();
    let playback = PlayerSession::new(&doc, &solved, &doc.catalog, &JitterModel::ideal())
        .unwrap()
        .run_to_completion();
    banner(
        "Figure 10: the scheduled news fragment",
        &format!(
            "{}\nfreeze-frame time on continuous channels: {} ms",
            solved.schedule.render_gantt(72),
            playback.freeze_frame_ms
        ),
    );

    let (_, store) = news_fixture();
    let environments = [
        DeviceProfile::workstation().limits(),
        DeviceProfile::low_end_pc().limits(),
        DeviceProfile::audio_kiosk().limits(),
    ];
    let mut summary = String::new();
    for limits in &environments {
        let report = full_report(&doc, &solved, &store, Some(limits)).unwrap();
        summary.push_str(&format!(
            "{:<14} class1={} class2={} class3(seek to final shot)={}\n",
            limits.name,
            report.of_class(1).len(),
            report.of_class(2).len(),
            invalid_arcs_when_seeking(
                &doc,
                &solved.schedule,
                doc.find("/story-3/video-track/talking-head-2").unwrap()
            )
            .unwrap()
            .len(),
        ));
    }
    banner("§5.3.3: conflicts per class per environment", &summary);

    let mut group = c.benchmark_group("fig10_news_fragment");
    group.bench_function("schedule_fragment", |b| {
        b.iter(|| {
            ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default())
                .unwrap()
                .solve(&doc, &doc.catalog)
                .unwrap()
        })
    });
    group.bench_function("specification_conflicts", |b| {
        b.iter(|| specification_conflicts(&solved))
    });
    for limits in &environments {
        group.bench_with_input(
            BenchmarkId::new("device_conflicts", limits.name),
            limits,
            |b, limits| {
                b.iter(|| device_conflicts(&doc, &solved.schedule, &store, limits).unwrap())
            },
        );
    }
    let seek_target = doc.find("/story-3/video-track/talking-head-2").unwrap();
    group.bench_function("navigation_conflicts", |b| {
        b.iter(|| invalid_arcs_when_seeking(&doc, &solved.schedule, seek_target).unwrap())
    });
    group.bench_function("playback_with_freeze_frames", |b| {
        b.iter(|| {
            PlayerSession::new(&doc, &solved, &doc.catalog, &JitterModel::uniform(100, 3))
                .unwrap()
                .run_to_completion()
        })
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
    targets = bench_news_fragment
}
criterion_main!(benches);
