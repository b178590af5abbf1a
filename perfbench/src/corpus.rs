//! Seeded inputs: documents, their media, and the values the outputs must
//! reproduce.
//!
//! Every document is a [`SyntheticNews`] broadcast or the paper's Evening
//! News, so the expected leaf-event count and schedule total follow from
//! the generator parameters alone. Media payloads are generated once per
//! medium and cloned per key (payload bytes are reference-counted), and
//! each block is stored under the document's own descriptor, so the
//! schedule sees exactly the durations the document declares.

use cmif::core::channel::MediaKind;
use cmif::core::descriptor::{DataDescriptor, DescriptorCatalog};
use cmif::core::prelude::{AttrName, AttrValue, Symbol};
use cmif::core::tree::Document;
use cmif::media::{MediaBlock, MediaGenerator, MediaPayload};
use cmif::news::evening_news;
use cmif::synthetic::SyntheticNews;

/// Seconds of narration per synthetic story.
pub const STORY_SECONDS: i64 = 30;

/// Leaf events of the Evening News: narration, three video shots, three
/// graphics, five captions and three labels.
const EVENING_NEWS_LEAVES: usize = 15;
/// Schedule total of the Evening News: the freeze-frame arc holds the last
/// shot until the fourth caption ends (32 s), and it runs 10 s (Figure 10).
const EVENING_NEWS_TOTAL_MS: i64 = 42_000;

/// What a correct run of a document must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Leaf events in the schedule.
    pub leaves: usize,
    /// Schedule total, milliseconds.
    pub total_ms: i64,
}

impl Expect {
    /// Checks a schedule against the expectation.
    pub fn check(&self, leaves: usize, total_ms: i64) -> Result<(), String> {
        if leaves == self.leaves && total_ms == self.total_ms {
            Ok(())
        } else {
            Err(format!(
                "expected {} leaf events over {} ms, got {leaves} over {total_ms} ms",
                self.leaves, self.total_ms
            ))
        }
    }
}

/// A synthetic broadcast's generator parameters.
pub fn synthetic(stories: usize, captions: usize, graphics: usize, arcs: bool) -> SyntheticNews {
    SyntheticNews {
        stories,
        story_seconds: STORY_SECONDS,
        captions_per_story: captions,
        graphics_per_story: graphics,
        explicit_arcs: arcs,
    }
}

/// Builds a synthetic broadcast and its expectation. Captions and graphics
/// split the narration evenly (rounding down), so every story lasts exactly
/// its narration.
pub fn build_synthetic(params: &SyntheticNews) -> Result<(Document, Expect), String> {
    let doc = params.build().map_err(|e| e.to_string())?;
    let expect = Expect {
        leaves: params.expected_events(),
        total_ms: params.stories as i64 * params.story_seconds * 1_000,
    };
    Ok((doc, expect))
}

/// Builds the Evening News and its expectation.
pub fn build_evening_news() -> Result<(Document, Expect), String> {
    let doc = evening_news().map_err(|e| e.to_string())?;
    let expect = Expect {
        leaves: EVENING_NEWS_LEAVES,
        total_ms: EVENING_NEWS_TOTAL_MS,
    };
    Ok((doc, expect))
}

/// Moves every media key of `doc` under `prefix/`: catalog descriptors and
/// the `file` attribute of every external leaf.
pub fn rekey(doc: &mut Document, prefix: &str) -> Result<(), String> {
    let mut catalog = DescriptorCatalog::new();
    for descriptor in doc.catalog.iter() {
        let mut moved = descriptor.clone();
        moved.key = Symbol::intern(&format!("{prefix}/{}", descriptor.key));
        catalog.register(moved).map_err(|e| e.to_string())?;
    }
    doc.catalog = catalog;
    for leaf in doc.leaves() {
        if let Some(key) = doc.file_of(leaf).map_err(|e| e.to_string())? {
            let moved = AttrValue::Str(format!("{prefix}/{key}"));
            doc.set_attr(leaf, AttrName::File, moved)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// One payload per medium, generated once and shared by every key.
#[derive(Debug, Clone)]
pub struct MediaKit {
    audio: MediaPayload,
    video: MediaPayload,
    image: MediaPayload,
    text: MediaPayload,
}

impl MediaKit {
    /// Generates the payloads from `seed`. They are small: the cluster
    /// moves and accounts real bytes, but the schedule reads durations from
    /// the documents' descriptors.
    pub fn new(seed: u64) -> MediaKit {
        let mut generator = MediaGenerator::new(seed);
        let millis = STORY_SECONDS * 1_000;
        MediaKit {
            audio: generator.audio("audio", millis, 1_000).payload,
            video: generator.video("video", millis, 4, 3, 25.0, 24).payload,
            image: generator.image("image", 32, 24, 24).payload,
            text: generator.text("text", 40).payload,
        }
    }

    /// A block for `descriptor`'s key, carrying the payload of its medium.
    pub fn block(&self, descriptor: &DataDescriptor) -> MediaBlock {
        let payload = match descriptor.medium {
            MediaKind::Audio => &self.audio,
            MediaKind::Video => &self.video,
            MediaKind::Image => &self.image,
            _ => &self.text,
        };
        MediaBlock::new(descriptor.key.as_str(), payload.clone())
    }

    /// Blocks for every descriptor of `doc`'s catalog, each stored under
    /// the document's own descriptor.
    pub fn blocks_for(&self, doc: &Document) -> Vec<(MediaBlock, DataDescriptor)> {
        doc.catalog
            .iter()
            .map(|descriptor| (self.block(descriptor), descriptor.clone()))
            .collect()
    }
}

/// SplitMix64: a tiny, seedable generator for the benchmark's own choices
/// (which document, which host, which edit). The program under test never
/// sees it — only the inputs it produces.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on `stream`; distinct streams of one seed
    /// are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Index drawn from `weights` (non-negative, not all zero).
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut pick = self.unit() * total;
        for (index, weight) in weights.iter().enumerate() {
            if pick < *weight {
                return index;
            }
            pick -= weight;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        let mut r = Rng::new(1, 0);
        assert!((0..1_000).all(|_| (3..=5).contains(&r.range(3, 5))));
    }

    #[test]
    fn rekeyed_documents_reference_only_prefixed_keys() {
        let (mut doc, _) = build_synthetic(&synthetic(2, 3, 2, true)).unwrap();
        rekey(&mut doc, "n4").unwrap();
        assert!(doc
            .catalog
            .iter()
            .all(|d| d.key.as_str().starts_with("n4/s")));
        for leaf in doc.leaves() {
            if let Some(key) = doc.file_of(leaf).unwrap() {
                assert!(doc.catalog.get(key.as_str()).is_some(), "{key}");
            }
        }
        let kit = MediaKit::new(3);
        let blocks = kit.blocks_for(&doc);
        assert_eq!(blocks.len(), doc.catalog.len());
        assert!(blocks.iter().all(|(block, d)| block.key == d.key.as_str()));
    }
}
