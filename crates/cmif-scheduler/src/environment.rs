//! Presentation-environment models.
//!
//! The paper's second conflict class is "device characteristics may limit
//! the ability of a particular environment to support a given document"
//! (§5.3.3). [`EnvironmentLimits`] is the scheduler-side abstraction of such
//! a device: which media it can present, how many things it can do at once,
//! and how much delivery bandwidth and decode capacity it has.
//! `cmif-pipeline` builds richer device profiles on top of this, keeps the
//! preset devices (workstation, low-end PC, audio kiosk), and maps them down
//! to these limits for conflict checking.
//!
//! [`JitterModel`] describes how sloppily a device launches events — the
//! reason the δ/ε tolerance windows of §5.3.1 exist at all. The playback
//! simulator draws per-event startup latencies from it.

use std::collections::BTreeMap;

use cmif_core::channel::MediaKind;
use cmif_core::symbol::Symbol;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Resource and capability limits of a presentation environment.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvironmentLimits {
    /// A short name for reports ("workstation", "laptop", "audio kiosk").
    /// Interned: device names are a small fixed vocabulary.
    pub name: Symbol,
    /// The media this environment can present at all.
    pub supported_media: Vec<MediaKind>,
    /// Maximum number of simultaneously active events across all channels.
    pub max_concurrent_events: usize,
    /// Sustained delivery bandwidth in bytes per second.
    pub bandwidth_bps: u64,
    /// Decode/render capacity in abstract work units per second (compare
    /// with [`cmif_core::descriptor::ResourceNeeds::decode_cost`]).
    pub decode_capacity: u32,
    /// Largest raster the environment can show, if it can show images at
    /// all.
    pub max_resolution: Option<(u32, u32)>,
    /// Deepest colour it can show.
    pub max_color_depth: Option<u8>,
}

impl EnvironmentLimits {
    /// True when the environment can present the given medium.
    pub fn supports(&self, medium: MediaKind) -> bool {
        self.supported_media.contains(&medium)
    }
}

/// Per-channel event startup jitter of a device.
///
/// Each event launched on a channel suffers a uniformly distributed startup
/// latency in `[0, max_latency_ms]`. A `max_latency_ms` of zero models an
/// ideal device.
#[derive(Debug, Clone, PartialEq)]
pub struct JitterModel {
    /// Default maximum startup latency for channels with no specific entry.
    pub default_max_latency_ms: i64,
    /// Per-channel maximum startup latencies, keyed by the interned
    /// channel name — the playback simulator looks these up once per leaf
    /// with the `Copy` symbol it already holds, no string hashing.
    pub per_channel_max_ms: BTreeMap<Symbol, i64>,
    /// Seed for the deterministic random source.
    pub seed: u64,
}

impl JitterModel {
    /// An ideal device: no jitter anywhere.
    pub fn ideal() -> JitterModel {
        JitterModel {
            default_max_latency_ms: 0,
            per_channel_max_ms: BTreeMap::new(),
            seed: 0,
        }
    }

    /// A uniform jitter model: every channel may delay launches by up to
    /// `max_latency_ms`.
    pub fn uniform(max_latency_ms: i64, seed: u64) -> JitterModel {
        JitterModel {
            default_max_latency_ms: max_latency_ms,
            per_channel_max_ms: BTreeMap::new(),
            seed,
        }
    }

    /// Overrides the maximum latency for one channel.
    pub fn with_channel(mut self, channel: impl Into<Symbol>, max_latency_ms: i64) -> JitterModel {
        self.per_channel_max_ms
            .insert(channel.into(), max_latency_ms);
        self
    }

    /// The maximum latency that applies to a channel (the `Copy` symbol a
    /// playback session already holds).
    pub fn max_for(&self, channel: Symbol) -> i64 {
        *self
            .per_channel_max_ms
            .get(&channel)
            .unwrap_or(&self.default_max_latency_ms)
    }

    /// `&str` convenience for [`JitterModel::max_for`]. A query path: the
    /// name is *looked up*, never interned, so probing with never-seen
    /// channel names cannot grow the global symbol pool — they simply get
    /// the default latency, exactly as an interned-but-unlisted channel
    /// would.
    pub fn max_for_str(&self, channel: &str) -> i64 {
        Symbol::lookup(channel)
            .map(|channel| self.max_for(channel))
            .unwrap_or(self.default_max_latency_ms)
    }

    /// Creates the deterministic sampler for one playback run.
    pub fn sampler(&self) -> JitterSampler {
        JitterSampler {
            model: self.clone(),
            rng: SmallRng::seed_from_u64(self.seed),
        }
    }
}

/// Draws per-event startup latencies from a [`JitterModel`].
#[derive(Debug, Clone)]
pub struct JitterSampler {
    model: JitterModel,
    rng: SmallRng,
}

impl JitterSampler {
    /// Samples the startup latency for one event on `channel`.
    pub fn sample(&mut self, channel: Symbol) -> i64 {
        let max = self.model.max_for(channel);
        if max <= 0 {
            0
        } else {
            self.rng.gen_range(0..=max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supports_reads_the_media_list() {
        let kiosk = EnvironmentLimits {
            name: Symbol::intern("audio-kiosk"),
            supported_media: vec![MediaKind::Audio],
            max_concurrent_events: 2,
            bandwidth_bps: 256_000,
            decode_capacity: 20,
            max_resolution: None,
            max_color_depth: None,
        };
        assert!(!kiosk.supports(MediaKind::Video));
        assert!(kiosk.supports(MediaKind::Audio));
    }

    #[test]
    fn jitter_model_per_channel_override() {
        let model = JitterModel::uniform(200, 7).with_channel("video", 500);
        assert_eq!(model.max_for(Symbol::intern("audio")), 200);
        assert_eq!(model.max_for(Symbol::intern("video")), 500);
        assert_eq!(JitterModel::ideal().max_for(Symbol::intern("anything")), 0);
    }

    #[test]
    fn max_for_str_queries_without_interning() {
        let model = JitterModel::uniform(200, 7).with_channel("video", 500);
        assert_eq!(model.max_for_str("video"), 500);
        // A name nobody ever interned gets the default — and stays out of
        // the pool.
        assert_eq!(model.max_for_str("channel-that-was-never-interned"), 200);
        assert_eq!(Symbol::lookup("channel-that-was-never-interned"), None);
    }

    #[test]
    fn sampler_is_deterministic_for_a_seed() {
        let model = JitterModel::uniform(300, 42);
        let mut a = model.sampler();
        let mut b = model.sampler();
        let seq_a: Vec<i64> = (0..10).map(|_| a.sample(Symbol::intern("audio"))).collect();
        let seq_b: Vec<i64> = (0..10).map(|_| b.sample(Symbol::intern("audio"))).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().all(|v| (0..=300).contains(v)));
    }

    #[test]
    fn ideal_sampler_returns_zero() {
        let mut sampler = JitterModel::ideal().sampler();
        assert_eq!(sampler.sample(Symbol::intern("video")), 0);
        assert_eq!(sampler.sample(Symbol::intern("audio")), 0);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let mut a = JitterModel::uniform(1_000, 1).sampler();
        let mut b = JitterModel::uniform(1_000, 2).sampler();
        let seq_a: Vec<i64> = (0..20).map(|_| a.sample(Symbol::intern("x"))).collect();
        let seq_b: Vec<i64> = (0..20).map(|_| b.sample(Symbol::intern("x"))).collect();
        assert_ne!(seq_a, seq_b);
    }
}
