//! Integration tests: the whole pipeline, the distributed store and the
//! baselines working together on the paper's example document.

use std::collections::BTreeSet;

use cmif::baselines::{conversion_loss, to_static, MuseTimeline};
use cmif::core::channel::MediaKind;
use cmif::distrib::network::{Link, Network};
use cmif::distrib::store::DistributedStore;
use cmif::distrib::transport::referenced_keys;
use cmif::media::store::BlockStore;
use cmif::media::{index_store, MediaGenerator, Query};
use cmif::news::{capture_news_media, evening_news};
use cmif::pipeline::constraint::DeviceProfile;
use cmif::pipeline::pipeline::PipelineBuilder;
use cmif::pipeline::viewer::MAX_STORYBOARD_FRAMES;
use cmif::pipeline::PipelineError;
use cmif::scheduler::{ConstraintGraph, JitterModel, ScheduleOptions};

#[test]
fn evening_news_presents_on_a_workstation() {
    let store = BlockStore::new();
    capture_news_media(&store, 7).unwrap();
    let doc = evening_news().unwrap();
    let run = PipelineBuilder::new(DeviceProfile::workstation())
        .run(&doc, &store)
        .unwrap();
    assert!(run.is_presentable(), "conflicts: {}", run.conflicts);
    assert!(run.filter_plan.is_identity());
    assert_eq!(run.presentation.len(), 5);
    assert!(run.presentation.overlapping_regions().is_empty());
    let playback = run.playback.unwrap();
    assert_eq!(playback.must_violations, 0);
    assert_eq!(playback.total_duration, run.solve.schedule.total_duration);
}

#[test]
fn constraint_filtering_shrinks_media_for_the_low_end_pc() {
    let store = BlockStore::new();
    capture_news_media(&store, 7).unwrap();
    let before = store.total_bytes();
    let doc = evening_news().unwrap();
    let run = PipelineBuilder::new(DeviceProfile::low_end_pc())
        .materialize_filters(true)
        .jitter(JitterModel::uniform(150, 5))
        .playback_runs(3)
        .run(&doc, &store)
        .unwrap();
    assert!(run.filter_plan.degraded_blocks() >= 3);
    assert!(store.total_bytes() < before / 2);
    // The tolerance windows absorb 150 ms of jitter: no Must violations.
    assert_eq!(run.playback.unwrap().must_violations, 0);
    // Resolution and colour-depth conflicts are gone after filtering.
    assert!(run
        .conflicts
        .of_class(2)
        .iter()
        .all(|c| matches!(c, cmif::scheduler::Conflict::ConcurrencyExceeded { .. })));
}

#[test]
fn audio_kiosk_presents_the_narration_only() {
    let store = BlockStore::new();
    capture_news_media(&store, 7).unwrap();
    let doc = evening_news().unwrap();
    let run = PipelineBuilder::new(DeviceProfile::audio_kiosk())
        .run(&doc, &store)
        .unwrap();
    assert!(!run.is_presentable());
    let dropped: BTreeSet<&str> = run
        .filter_plan
        .dropped_channels
        .iter()
        .map(|channel| channel.as_str())
        .collect();
    assert!(dropped.contains("video"));
    assert!(dropped.contains("graphic"));
    assert!(dropped.contains("caption"));
    assert!(dropped.contains("label"));
    assert!(!dropped.contains("audio"));
}

#[test]
fn an_endless_caption_is_refused_at_viewing_instead_of_sampled() {
    // One lint-clean caption lasting 10^12 ms: at the default 1 s step the
    // storyboard would need 10^9 frames.
    let doc = cmif::core::DocumentBuilder::new("endless")
        .channel("caption", MediaKind::Text)
        .root_seq(|root| {
            root.imm_text("line", "caption", "still going", 1_000_000_000_000);
        })
        .build()
        .unwrap();
    let bytes = cmif::format::write_document(&doc).unwrap();
    let err = PipelineBuilder::new(DeviceProfile::workstation())
        .run_wire(bytes.as_bytes(), &BlockStore::new())
        .unwrap_err();
    assert_eq!(
        err,
        PipelineError::TooManyFrames {
            stage: "viewing",
            frames: 1_000_000_000,
            limit: MAX_STORYBOARD_FRAMES,
        }
    );
}

#[test]
fn distributed_presentation_fetches_only_what_the_device_presents() {
    let cluster = DistributedStore::new(Network::uniform(&["server", "kiosk"], Link::wan()));
    let doc = evening_news().unwrap();
    // Server-side media.
    let mut generator = MediaGenerator::new(3);
    for descriptor in doc.catalog.iter() {
        let block = match descriptor.medium {
            MediaKind::Audio => generator.audio(descriptor.key.as_str(), 40_000, 8_000),
            MediaKind::Video => generator.video(descriptor.key.as_str(), 10_000, 64, 48, 25.0, 24),
            _ => generator.image(descriptor.key.as_str(), 128, 96, 24),
        };
        cluster
            .put_block("server", block, descriptor.clone())
            .unwrap();
    }
    cluster.publish_document("server", "news", &doc).unwrap();
    cluster.reset_traffic();

    // The kiosk receives the structure, decides what it can present, and
    // fetches only those blocks.
    let received = cluster
        .transport_document("server", "kiosk", "news")
        .unwrap();
    let wanted: BTreeSet<cmif::core::Symbol> =
        referenced_keys(&received, Some(&[MediaKind::Audio]))
            .into_iter()
            .collect();
    cluster.fetch_blocks_for_traced("kiosk", &wanted).unwrap();

    let traffic = cluster.traffic();
    assert_eq!(wanted.len(), 1);
    // 40 s of 8 kHz 8-bit PCM narration.
    assert_eq!(traffic.media_bytes, 320_000);
    assert!(traffic.structure_bytes < 10_000);
    // All of it crossed the single server→kiosk WAN link.
    let link = traffic.link("server", "kiosk");
    assert_eq!(link.media_bytes, 320_000);
    assert_eq!(link.structure_bytes, traffic.structure_bytes);
    assert_eq!(traffic.links_used(), 1);
    // The kiosk can schedule the full document from structure alone; its
    // local shard is reachable without holding any store-wide lock.
    let local = cluster.local_store("kiosk").unwrap();
    assert_eq!(local.len(), 1);
    let solved = ConstraintGraph::derive(&received, &received.catalog, &ScheduleOptions::default())
        .unwrap()
        .solve(&received, &received.catalog)
        .unwrap();
    assert_eq!(
        solved.schedule.total_duration,
        cmif::core::time::TimeMs::from_secs(42)
    );
}

#[test]
fn ddbms_queries_find_news_material_without_touching_payloads() {
    let store = BlockStore::new();
    capture_news_media(&store, 7).unwrap();
    let db = index_store(&store).unwrap();
    store.reset_stats();
    let paintings = db.query(&Query::any().with_medium(MediaKind::Image));
    assert_eq!(paintings.len(), 3);
    let dutch = db.query(&Query::any().with_attribute("language", "nl"));
    assert_eq!(dutch.len(), 1);
    let (_, payload_reads, _) = store.access_stats();
    assert_eq!(payload_reads, 0);
}

#[test]
fn baselines_lose_what_cmif_keeps() {
    let doc = evening_news().unwrap();
    let solved = ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default())
        .unwrap()
        .solve(&doc, &doc.catalog)
        .unwrap();

    // The Muse-style timeline has the events but none of the structure or
    // tolerance information.
    let timeline = MuseTimeline::from_schedule(&solved.schedule);
    assert_eq!(timeline.len(), doc.leaves().len());
    let loss = conversion_loss(&doc);
    assert!(loss.structure_nodes_lost >= 6);
    assert_eq!(loss.arcs_lost, doc.arcs().len());

    // Retargeting: lengthening the first caption forces hand edits of many
    // downstream cues in the timeline, none in CMIF.
    let caption_1 = doc.find("/story-3/caption-track/caption-1").unwrap();
    assert!(timeline.retarget_cost(caption_1, 2_000) > 5);

    // The MIF-style static document keeps structure but loses all timing.
    let (static_doc, report) = to_static(&doc).unwrap();
    assert_eq!(report.elements_kept, doc.preorder().len());
    assert_eq!(report.channels_lost, 5);
    assert!(report.continuous_media_lost >= 4);
    assert!(static_doc.render().contains("# story-3"));
}
