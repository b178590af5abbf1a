//! Structure-only vs structure-plus-data transport comparison.
//!
//! The §6 experiment: a reader on another host wants to present a document.
//! Either the whole thing moves (structure plus every referenced media
//! block) or only the structure moves and blocks are fetched lazily — and
//! then only the blocks the local device can actually present.
//! [`compare_transport`] runs both strategies against the same cluster and
//! reports the bytes and simulated time each one costs.

use std::collections::BTreeSet;

use cmif_core::channel::MediaKind;
use cmif_core::node::NodeKind;
use cmif_core::symbol::Symbol;
use cmif_core::tree::Document;

use crate::error::Result;
use crate::store::DistributedStore;
use crate::traffic::TrafficStats;

/// The cost of one transport strategy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TransportCost {
    /// Bytes of document structure moved.
    pub structure_bytes: u64,
    /// Bytes of media moved.
    pub media_bytes: u64,
    /// Simulated transfer time in milliseconds.
    pub simulated_ms: u64,
    /// Number of media blocks moved.
    pub blocks_moved: usize,
}

impl TransportCost {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.structure_bytes + self.media_bytes
    }
}

/// Side-by-side costs of the two strategies, with the full per-link
/// traffic breakdown of each phase.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TransportComparison {
    /// Ship structure and every referenced block eagerly.
    pub eager: TransportCost,
    /// Ship structure only, then fetch just the presentable blocks.
    pub lazy: TransportCost,
    /// Per-link traffic recorded during the eager phase.
    pub eager_traffic: TrafficStats,
    /// Per-link traffic recorded during the lazy phase.
    pub lazy_traffic: TrafficStats,
}

impl TransportComparison {
    /// How many times more bytes the eager strategy moves.
    pub fn byte_ratio(&self) -> f64 {
        if self.lazy.total_bytes() == 0 {
            return f64::INFINITY;
        }
        self.eager.total_bytes() as f64 / self.lazy.total_bytes() as f64
    }
}

/// The descriptor keys referenced by a document's external nodes, optionally
/// restricted to media a device can present.
pub fn referenced_keys(doc: &Document, presentable: Option<&[MediaKind]>) -> Vec<Symbol> {
    let mut keys = BTreeSet::new();
    for leaf in doc.leaves() {
        if doc
            .node(leaf)
            .map(|n| n.kind != NodeKind::Ext)
            .unwrap_or(true)
        {
            continue;
        }
        let key = match doc.file_of(leaf) {
            Ok(Some(key)) => key,
            _ => continue,
        };
        if let Some(presentable) = presentable {
            let medium = doc.medium_of(leaf, &doc.catalog).unwrap_or(MediaKind::Text);
            if !presentable.contains(&medium) {
                continue;
            }
        }
        keys.insert(key);
    }
    // Symbol order is intern order; return the keys alphabetically so the
    // listing is deterministic across runs.
    let mut keys: Vec<Symbol> = keys.into_iter().collect();
    keys.sort_by_key(|key| key.as_str());
    keys
}

/// Runs both transport strategies for a published document and reports their
/// costs.
///
/// * `name` must already be published on `from` (see
///   [`DistributedStore::publish_document`]).
/// * `presentable` restricts the lazy strategy to the media the destination
///   device can present (e.g. only audio for a kiosk); `None` fetches every
///   referenced block lazily.
///
/// The function resets the store's traffic counters around each phase, so it
/// is intended for measurement setups rather than production transport.
pub fn compare_transport(
    store: &DistributedStore,
    doc: &Document,
    from: &str,
    to_eager: &str,
    to_lazy: &str,
    name: &str,
    presentable: Option<&[MediaKind]>,
) -> Result<TransportComparison> {
    // Eager: structure plus every referenced block.
    store.reset_traffic();
    store.transport_document(from, to_eager, name)?;
    let all_keys: BTreeSet<Symbol> = referenced_keys(doc, None).into_iter().collect();
    store.fetch_blocks_for_traced(to_eager, &all_keys)?;
    let eager_traffic = store.traffic();
    let eager = TransportCost {
        structure_bytes: eager_traffic.structure_bytes,
        media_bytes: eager_traffic.media_bytes,
        simulated_ms: eager_traffic.simulated_ms,
        blocks_moved: all_keys.len(),
    };

    // Lazy: structure only, then just the presentable blocks.
    store.reset_traffic();
    store.transport_document(from, to_lazy, name)?;
    let wanted: BTreeSet<Symbol> = referenced_keys(doc, presentable).into_iter().collect();
    store.fetch_blocks_for_traced(to_lazy, &wanted)?;
    let lazy_traffic = store.traffic();
    let lazy = TransportCost {
        structure_bytes: lazy_traffic.structure_bytes,
        media_bytes: lazy_traffic.media_bytes,
        simulated_ms: lazy_traffic.simulated_ms,
        blocks_moved: wanted.len(),
    };

    Ok(TransportComparison {
        eager,
        lazy,
        eager_traffic,
        lazy_traffic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Link, Network};
    use cmif_core::prelude::*;
    use cmif_media::MediaGenerator;

    fn fixture() -> (DistributedStore, Document) {
        let store =
            DistributedStore::new(Network::uniform(&["server", "desk", "kiosk"], Link::lan()));
        let mut generator = MediaGenerator::new(3);
        let speech = generator.audio("speech", 5_000, 8_000);
        let descriptor = speech.describe();
        store.put_block("server", speech, descriptor).unwrap();
        let film = generator.video("film", 2_000, 160, 120, 25.0, 24);
        let descriptor = film.describe();
        store.put_block("server", film, descriptor).unwrap();

        let catalog = store.local_store("server").unwrap().export_catalog();
        let mut builder = DocumentBuilder::new("news")
            .channel("audio", MediaKind::Audio)
            .channel("video", MediaKind::Video);
        for descriptor in catalog.iter() {
            builder = builder.descriptor(descriptor.clone());
        }
        let doc = builder
            .root_par(|story| {
                story.ext("voice", "audio", "speech");
                story.ext("shot", "video", "film");
            })
            .build()
            .unwrap();
        store.publish_document("server", "news", &doc).unwrap();
        (store, doc)
    }

    #[test]
    fn referenced_keys_respect_presentable_media() {
        let (_store, doc) = fixture();
        assert_eq!(
            referenced_keys(&doc, None),
            vec![Symbol::intern("film"), Symbol::intern("speech")]
        );
        assert_eq!(
            referenced_keys(&doc, Some(&[MediaKind::Audio])),
            vec![Symbol::intern("speech")]
        );
        assert!(referenced_keys(&doc, Some(&[MediaKind::Label])).is_empty());
    }

    #[test]
    fn lazy_transport_to_an_audio_device_moves_far_fewer_bytes() {
        let (store, doc) = fixture();
        let comparison = compare_transport(
            &store,
            &doc,
            "server",
            "desk",
            "kiosk",
            "news",
            Some(&[MediaKind::Audio]),
        )
        .unwrap();
        assert_eq!(comparison.eager.blocks_moved, 2);
        assert_eq!(comparison.lazy.blocks_moved, 1);
        assert!(comparison.eager.media_bytes > comparison.lazy.media_bytes);
        assert!(comparison.byte_ratio() > 10.0);
        assert!(comparison.eager.simulated_ms > comparison.lazy.simulated_ms);

        // Each phase's traffic rode exactly one directed link, and the
        // per-link counters agree with the phase totals.
        let eager_link = comparison.eager_traffic.link("server", "desk");
        assert_eq!(eager_link.media_bytes, comparison.eager.media_bytes);
        assert_eq!(eager_link.structure_bytes, comparison.eager.structure_bytes);
        assert_eq!(comparison.eager_traffic.links_used(), 1);
        // The eager phase left a replica of the speech on `desk`, so the
        // kiosk is served by the nearest holder (lexical tie-break on a
        // uniform LAN picks `desk` over `server`) — the media rides the
        // desk→kiosk link, only the structure comes from the server.
        let lazy_link = comparison.lazy_traffic.link("desk", "kiosk");
        assert_eq!(lazy_link.media_bytes, comparison.lazy.media_bytes);
        assert_eq!(
            comparison
                .lazy_traffic
                .link("server", "kiosk")
                .structure_bytes,
            comparison.lazy.structure_bytes
        );
        assert_eq!(comparison.lazy_traffic.links_used(), 2);
    }

    #[test]
    fn lazy_without_a_device_filter_still_defers_nothing_extra() {
        let (store, doc) = fixture();
        let comparison =
            compare_transport(&store, &doc, "server", "desk", "kiosk", "news", None).unwrap();
        // Same blocks move either way; the strategies differ only in when.
        assert_eq!(comparison.eager.blocks_moved, comparison.lazy.blocks_moved);
        assert_eq!(comparison.eager.media_bytes, comparison.lazy.media_bytes);
    }
}
