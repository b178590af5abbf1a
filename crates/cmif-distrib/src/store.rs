//! The distributed document and media store, sharded per host.
//!
//! Each host of the simulated cluster holds a set of CMIF documents (as
//! wire bytes — the compact binary form by default, canonical text on
//! request, see [`WireEncoding`]) and a local [`BlockStore`] of media
//! blocks. Documents are small and travel freely; media blocks are large
//! and travel only when something actually needs the bytes. That asymmetry
//! is the paper's §6 point: "the value of document sharing and multiple
//! access to information is vital", and it is the *description* that is
//! shared, not the data.
//!
//! # Replicated objects
//!
//! Blocks and documents are two kinds of one replicated object, a
//! [`RepairItem`]. Both kinds share one placement index (object → holders
//! and size, so locating an object is one map lookup instead of a scan
//! over every host), one holder ranking, one retry walk for degraded reads,
//! one repair loop, and one copy step per kind used by fetches, replica
//! puts, publishes and repair. They differ only in what a copy moves (a
//! payload with its descriptor, or wire bytes) and in how a new version
//! replaces an old one (a republish replaces a document's holder set).
//!
//! # Sharding
//!
//! The host map is built once at construction and never changes shape
//! afterwards, so it needs no lock of its own. All mutable state is per
//! host: a host's documents sit behind that host's own `RwLock`, and its
//! media blocks behind the [`BlockStore`]'s internal locks. No lock spans
//! more than one host's state — a publisher writing host A never blocks a
//! reader of host B, and a caller holding one host's store
//! ([`DistributedStore::local_store`]) can re-enter the distributed store
//! freely.
//!
//! Cross-host bookkeeping lives in small, short-held structures: the
//! placement index, the per-host health map, the repair queue, and the
//! [`TrafficStats`] accumulator.
//!
//! # Fault tolerance
//!
//! The store survives a hostile cluster. Every transfer funnels through a
//! single choke point that (a) consults the optional seeded [`FaultPlan`]
//! — scripted host kills, transfer failures/delays, partitions — (b)
//! gates on per-host health (`Up → Suspect → Down`, driven by observed
//! failures), and (c) charges failed transfers to the failed-traffic
//! counters. Degraded reads walk the surviving replicas nearest-first
//! under a [`RetryPolicy`], holding the destination's in-flight
//! reservation for the object so racing reads of one object to one host
//! move it once; hosts that go down get their blocks and documents queued
//! for re-replication, which [`DistributedStore::repair_all`] (or a
//! background [`crate::RepairWorker`]) drains until the replication factor
//! is restored.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Condvar, Mutex as StdMutex, MutexGuard, PoisonError};

use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use cmif_core::descriptor::DataDescriptor;
use cmif_core::symbol::Symbol;
use cmif_core::tree::Document;
use cmif_format::{document_to_bytes, read_document_bytes, WireEncoding};
use cmif_media::store::BlockStore;
use cmif_media::{MediaBlock, MediaError};

use crate::error::{DistribError, FetchAttempt, Result};
use crate::fault::{FaultPlan, InjectedFault};
use crate::health::{HealthPolicy, HealthState, HealthTransition, HostHealth};
use crate::network::{HostId, Network};
use crate::placement::PlacementRing;
use crate::repair::{RepairAction, RepairItem, RepairQueue, RepairReport};
use crate::retry::RetryPolicy;
pub use crate::traffic::{LinkStats, TrafficStats};

/// One host's storage shard. Everything mutable in here is guarded by this
/// host's own locks; nothing reaches across to another host.
#[derive(Debug, Default)]
struct HostShard {
    /// Documents held by this host, as wire bytes keyed by interned name.
    /// The bytes are whatever encoding the publisher chose; readers
    /// auto-detect by magic when opening.
    documents: RwLock<BTreeMap<Symbol, Vec<u8>>>,
    /// Media blocks held by this host (internally locked).
    blocks: BlockStore,
    /// Objects currently being fetched *to* this host. A fetch reserves
    /// the object here before moving any bytes, so concurrent fetches of
    /// one block or document charge exactly one transfer. Items are `Copy`
    /// — reserving one never allocates.
    inflight: StdMutex<BTreeSet<RepairItem>>,
    /// Signalled when an in-flight fetch to this host finishes (either way).
    arrived: Condvar,
}

impl HostShard {
    /// True when this host stores a copy of the object.
    fn holds(&self, item: RepairItem) -> bool {
        match item {
            RepairItem::Block(key) => self.blocks.contains(key.as_str()),
            RepairItem::Document(name) => self.documents.read().contains_key(&name),
        }
    }
}

/// Locks an in-flight set, ignoring poisoning (a panicked fetch must not
/// wedge every later fetch to the host).
fn lock_inflight(shard: &HostShard) -> MutexGuard<'_, BTreeSet<RepairItem>> {
    shard
        .inflight
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Drop guard for an object reserved in a host's in-flight set: releases
/// the reservation and wakes waiters on every exit path, panics included.
struct InflightReservation<'a> {
    shard: &'a HostShard,
    item: RepairItem,
}

impl Drop for InflightReservation<'_> {
    fn drop(&mut self) {
        let mut inflight = lock_inflight(self.shard);
        inflight.remove(&self.item);
        self.shard.arrived.notify_all();
    }
}

/// Where one replicated object's copies live, plus its size for cost
/// ranking.
#[derive(Debug)]
struct Placement {
    /// Payload (block) or wire (document) bytes, used to rank candidate
    /// sources by transfer cost without touching any host's store.
    bytes: u64,
    /// The hosts currently holding a copy (of a document's current
    /// version).
    holders: BTreeSet<HostId>,
}

/// The error for an object `host` looked for and nobody holds.
fn missing(item: RepairItem, host: &str) -> DistribError {
    match item {
        RepairItem::Block(key) => DistribError::Media(MediaError::UnknownBlock {
            key: key.as_str().to_string(),
        }),
        RepairItem::Document(name) => DistribError::UnknownDocument {
            host: host.to_string(),
            name: name.as_str().to_string(),
        },
    }
}

/// The holders an object can be read from for one destination.
struct Sources {
    /// The object's indexed size: what transfers are charged.
    bytes: u64,
    /// True when the destination itself is indexed as a holder.
    local: bool,
    /// Every other holder except decommissioned ones, nearest-first:
    /// `Up` before `Suspect` before `Down`, by transfer cost within a rank,
    /// ties in host order.
    ranked: Vec<HostId>,
    /// Holders with no link to the destination, kept apart so exhaustion
    /// can tell a configuration gap from cluster weather.
    unreachable: Vec<HostId>,
}

/// How a block fetch brought its blocks to the destination — one block
/// ([`DistributedStore::fetch_block`]) or a key set
/// ([`DistributedStore::fetch_blocks_for_traced`]); what a pipeline's
/// media-staging step reports about the cluster weather it saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchReport {
    /// Blocks requested.
    pub requested: usize,
    /// Blocks that moved over the network.
    pub fetched: usize,
    /// Blocks already local to the destination.
    pub local_hits: usize,
    /// Blocks that arrived only after at least one failed attempt.
    pub degraded: usize,
    /// Failed attempts recovered from across all blocks.
    pub retries: u32,
    /// Total simulated milliseconds (transfers plus retry backoff).
    pub simulated_ms: u64,
}

impl FetchReport {
    /// One object the destination already held: nothing moved.
    fn local_hit() -> FetchReport {
        FetchReport {
            requested: 1,
            local_hits: 1,
            ..FetchReport::default()
        }
    }

    /// Adds another fetch's counts to this one.
    fn absorb(&mut self, other: FetchReport) {
        self.requested += other.requested;
        self.fetched += other.fetched;
        self.local_hits += other.local_hits;
        self.degraded += other.degraded;
        self.retries += other.retries;
        self.simulated_ms += other.simulated_ms;
    }
}

/// The distributed store: a cluster of per-host shards, a consistent-hash
/// placement policy with a configurable replication factor, and per-link
/// traffic accounting.
#[derive(Debug)]
pub struct DistributedStore {
    network: Network,
    /// One shard per host; append-frozen at construction, hence lock-free.
    shards: BTreeMap<HostId, HostShard>,
    /// Consistent-hash ring choosing replica hosts for new blocks/documents.
    /// Behind a lock because decommissioning removes the host from the ring.
    ring: RwLock<PlacementRing>,
    /// Number of hosts that receive a copy of each block/document.
    replication: usize,
    /// Object → holders index (replaces scanning every host's contents).
    /// Keyed by kind and interned name: lookups and inserts compare
    /// integers, and blocks sort before documents.
    placement: RwLock<BTreeMap<RepairItem, Placement>>,
    traffic: Mutex<TrafficStats>,
    /// The wire form new documents are published in (binary by default).
    wire: WireEncoding,
    /// Per-host health records driving the `Up → Suspect → Down` machine.
    health: RwLock<BTreeMap<HostId, HostHealth>>,
    /// When observed failures suspect/down a host.
    health_policy: HealthPolicy,
    /// Every health transition, in order — the cluster's churn history.
    health_log: Mutex<Vec<HealthTransition>>,
    /// Optional seeded fault schedule every transfer is submitted to.
    fault: Mutex<Option<FaultPlan>>,
    /// How degraded fetches retry.
    retry: RetryPolicy,
    /// Jitter source for retry backoff (seeded; deterministic per store).
    retry_rng: Mutex<SmallRng>,
    /// Under-replicated objects awaiting re-replication.
    repairs: Mutex<RepairQueue>,
}

impl DistributedStore {
    /// Creates a store over the given network with one (empty) shard per
    /// network host and no replication (each block/document lives only
    /// where it is put).
    pub fn new(network: Network) -> DistributedStore {
        Self::build(network, 1)
    }

    /// Creates a store that replicates every `put_block`/`publish_document`
    /// onto `factor` hosts chosen by consistent hashing (the origin host
    /// counts as one replica). Fails with
    /// [`DistribError::InvalidReplication`] when `factor` is zero or larger
    /// than the cluster.
    pub fn with_replication(network: Network, factor: usize) -> Result<DistributedStore> {
        // Count distinct hosts: the shard map and the placement ring both
        // deduplicate, so a duplicated host name must not let an
        // unsatisfiable factor through.
        let hosts = network.hosts().iter().collect::<BTreeSet<_>>().len();
        if factor == 0 || factor > hosts {
            return Err(DistribError::InvalidReplication {
                requested: factor,
                hosts,
            });
        }
        Ok(Self::build(network, factor))
    }

    fn build(network: Network, replication: usize) -> DistributedStore {
        let mut shards = BTreeMap::new();
        let mut health = BTreeMap::new();
        for host in network.hosts() {
            shards.insert(host.clone(), HostShard::default());
            health.insert(host.clone(), HostHealth::default());
        }
        let ring = PlacementRing::new(network.hosts());
        DistributedStore {
            network,
            shards,
            ring: RwLock::new(ring),
            replication,
            placement: RwLock::new(BTreeMap::new()),
            traffic: Mutex::new(TrafficStats::default()),
            wire: WireEncoding::default(),
            health: RwLock::new(health),
            health_policy: HealthPolicy::default(),
            health_log: Mutex::new(Vec::new()),
            fault: Mutex::new(None),
            retry: RetryPolicy::default(),
            retry_rng: Mutex::new(SmallRng::seed_from_u64(0xC31F)),
            repairs: Mutex::new(RepairQueue::default()),
        }
    }

    /// Chooses the wire form new documents are published in. Binary is the
    /// default; text keeps the stored bytes human-readable at the cost of
    /// larger structure transfers. Already-published documents keep the
    /// encoding they were published with — readers auto-detect.
    pub fn with_wire_encoding(mut self, encoding: WireEncoding) -> DistributedStore {
        self.wire = encoding;
        self
    }

    /// The wire form new documents are published in.
    pub fn wire_encoding(&self) -> WireEncoding {
        self.wire
    }

    /// Installs a seeded fault schedule: every later transfer is submitted
    /// to the plan, which may fail it, delay it, or fire scripted host
    /// kills/partitions. The retry jitter source is reseeded from the
    /// plan's seed, so the whole degraded run replays bit-for-bit.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> DistributedStore {
        *self.retry_rng.get_mut() = SmallRng::seed_from_u64(plan.seed() ^ 0x9E37_79B9_7F4A_7C15);
        *self.fault.get_mut() = Some(plan);
        self
    }

    /// Chooses how degraded fetches retry (attempt budget, backoff shape).
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> DistributedStore {
        self.retry = policy;
        self
    }

    /// Chooses when observed transfer failures suspect/down a host.
    pub fn with_health_policy(mut self, policy: HealthPolicy) -> DistributedStore {
        self.health_policy = policy;
        self
    }

    /// The retry policy degraded fetches run under.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The thresholds driving observed health transitions.
    pub fn health_policy(&self) -> HealthPolicy {
        self.health_policy
    }

    /// The network this store simulates traffic over.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// How many hosts receive a copy of each newly stored block/document.
    pub fn replication_factor(&self) -> usize {
        self.replication
    }

    /// Looks a host's shard up, as a typed error instead of a panic when
    /// the host is unknown.
    fn shard(&self, host: &str) -> Result<&HostShard> {
        self.shards
            .get(host)
            .ok_or_else(|| DistribError::UnknownHost {
                host: host.to_string(),
            })
    }

    /// The single choke point every simulated transfer goes through.
    ///
    /// Order matters: (1) the fault plan judges the attempt first, so
    /// scripted churn due at this point of the sequence lands before the
    /// health gate sees it; (2) the health gate rejects transfers touching
    /// a down host; (3) the network prices the transfer (a missing link is
    /// the legacy [`DistribError::Unreachable`] — topology, not weather);
    /// (4) the injected verdict is applied — failures go to the
    /// failed-traffic counters and blame `blame`'s health record,
    /// deliveries are charged (plus any injected delay) and clear it.
    ///
    /// No lock is held across any other lock: fault, health, repair and
    /// traffic are taken and released strictly in sequence.
    fn attempt_transfer(
        &self,
        from: &str,
        to: &str,
        bytes: u64,
        is_structure: bool,
        blame: &str,
    ) -> Result<u64> {
        let decision = {
            let mut fault = self.fault.lock();
            fault.as_mut().map(|plan| plan.decide(from, to))
        };
        let (verdict, extra_ms) = match decision {
            Some(decision) => {
                for host in &decision.killed {
                    self.force_health(host, HealthState::Down, "fault-kill");
                }
                for host in &decision.revived {
                    self.force_health(host, HealthState::Up, "fault-revive");
                }
                (decision.fault, decision.extra_ms)
            }
            None => (None, 0),
        };
        for host in [from, to] {
            self.ensure_serviceable(host)?;
        }
        let cost =
            self.network
                .transfer_ms(from, to, bytes)
                .ok_or_else(|| DistribError::Unreachable {
                    from: from.to_string(),
                    to: to.to_string(),
                })?;
        match verdict {
            Some(InjectedFault::Partitioned) => {
                // Blocked before any bytes move: the attempt counts, the
                // wire is never occupied.
                self.traffic.lock().record_failure(from, to, 0, 0);
                Err(DistribError::TransferPartitioned {
                    from: from.to_string(),
                    to: to.to_string(),
                })
            }
            Some(InjectedFault::TransferFailed) => {
                // The transfer died mid-flight: the link was busy for the
                // full window, the bytes delivered nothing.
                self.traffic.lock().record_failure(from, to, bytes, cost);
                self.observe_failure(blame);
                Err(DistribError::TransferFailed {
                    from: from.to_string(),
                    to: to.to_string(),
                    bytes,
                })
            }
            None => {
                let total = cost + extra_ms;
                self.traffic
                    .lock()
                    .record(from, to, bytes, is_structure, total);
                self.observe_success(blame);
                Ok(total)
            }
        }
    }

    // ------------------------------------------------------------------
    // Health and churn
    // ------------------------------------------------------------------

    /// The health state of one host.
    pub fn health_of(&self, host: &str) -> Result<HealthState> {
        self.shard(host)?;
        Ok(self
            .health
            .read()
            .get(host)
            .map(|record| record.state())
            .unwrap_or(HealthState::Up))
    }

    /// Every host with its current health state, in host order.
    pub fn health_snapshot(&self) -> Vec<(HostId, HealthState)> {
        self.health
            .read()
            .iter()
            .map(|(host, record)| (host.clone(), record.state()))
            .collect()
    }

    /// Every health transition observed so far, in order.
    pub fn health_log(&self) -> Vec<HealthTransition> {
        self.health_log.lock().clone()
    }

    /// True when the host may serve or receive transfers.
    fn is_serviceable(&self, host: &str) -> bool {
        self.health
            .read()
            .get(host)
            .map(|record| record.state().is_serviceable())
            .unwrap_or(false)
    }

    /// Errors with [`DistribError::HostDown`] when the host cannot serve.
    fn ensure_serviceable(&self, host: &str) -> Result<()> {
        if self.is_serviceable(host) {
            Ok(())
        } else {
            Err(DistribError::HostDown {
                host: host.to_string(),
            })
        }
    }

    /// Moves a host's health record one step and logs the transition.
    /// `step` returns the record's new state when it changed; a host that
    /// leaves service (`Down`, `Decommissioned`) has its objects queued for
    /// repair.
    fn transition(
        &self,
        host: &str,
        cause: &'static str,
        step: impl FnOnce(&mut HostHealth) -> Option<HealthState>,
    ) {
        let moved = {
            let mut health = self.health.write();
            health.get_mut(host).and_then(|record| {
                let from = record.state();
                step(record).map(|to| (from, to))
            })
        };
        if let Some((from, to)) = moved {
            self.health_log.lock().push(HealthTransition {
                host: host.to_string(),
                from,
                to,
                cause,
            });
            if !to.is_serviceable() {
                self.scan_for_repairs(host);
            }
        }
    }

    /// Forces a host's health state (an administrative or scripted move).
    fn force_health(&self, host: &str, state: HealthState, cause: &'static str) {
        self.transition(host, cause, |record| record.force(state).map(|_| state));
    }

    /// Records a failed transfer against a host's health.
    fn observe_failure(&self, host: &str) {
        self.transition(host, "observed-failure", |record| {
            record.observe_failure(&self.health_policy)
        });
    }

    /// Records a successful transfer against a host's health (one good
    /// round trip recovers a `Suspect` host).
    fn observe_success(&self, host: &str) {
        self.transition(host, "observed-success", HostHealth::observe_success);
    }

    /// Administratively marks a host down (maintenance, or a drill). Its
    /// blocks and documents are queued for re-replication; fetches skip it
    /// until [`DistributedStore::mark_up`]. Errors on unknown or
    /// decommissioned hosts.
    pub fn mark_down(&self, host: &str) -> Result<()> {
        self.shard(host)?;
        if self.health_of(host)? == HealthState::Decommissioned {
            return Err(DistribError::HostDown {
                host: host.to_string(),
            });
        }
        self.force_health(host, HealthState::Down, "mark-down");
        Ok(())
    }

    /// Returns a down (or suspect) host to service. Errors on unknown or
    /// decommissioned hosts — decommissioning is terminal.
    pub fn mark_up(&self, host: &str) -> Result<()> {
        self.shard(host)?;
        if self.health_of(host)? == HealthState::Decommissioned {
            return Err(DistribError::HostDown {
                host: host.to_string(),
            });
        }
        self.force_health(host, HealthState::Up, "mark-up");
        Ok(())
    }

    /// Permanently removes a host from service: terminal health state,
    /// off the placement ring (survivors keep their ring points — only
    /// the departed host's ~`1/n` of the keys re-home), stripped from
    /// every holder set, and everything it held queued for repair.
    pub fn decommission(&self, host: &str) -> Result<()> {
        self.shard(host)?;
        // The repair scan inside runs while the holder sets still name the
        // host, so everything it held is considered.
        self.force_health(host, HealthState::Decommissioned, "decommission");
        self.ring.write().remove_host(host);
        for entry in self.placement.write().values_mut() {
            entry.holders.remove(host);
        }
        Ok(())
    }

    /// Queues every under-replicated object the (newly unserviceable)
    /// host holds.
    fn scan_for_repairs(&self, host: &str) {
        let found: Vec<RepairItem> = {
            let placement = self.placement.read();
            let health = self.health.read();
            let live = |candidate: &HostId| {
                health
                    .get(candidate)
                    .map(|record| record.state().is_serviceable())
                    .unwrap_or(false)
            };
            placement
                .iter()
                .filter(|(_, entry)| {
                    entry.holders.contains(host)
                        && entry.holders.iter().filter(|h| live(h)).count() < self.replication
                })
                .map(|(item, _)| *item)
                .collect()
        };
        let mut repairs = self.repairs.lock();
        for item in found {
            repairs.enqueue(item);
        }
    }

    /// Marks `host` as a holder of `item` in the placement index, recording
    /// `bytes` as the object's size.
    fn index_holder(&self, item: RepairItem, bytes: u64, host: &str) {
        let mut placement = self.placement.write();
        let entry = placement.entry(item).or_insert_with(|| Placement {
            bytes,
            holders: BTreeSet::new(),
        });
        entry.bytes = bytes;
        entry.holders.insert(host.to_string());
    }

    /// Traffic accumulated so far (totals plus per-link breakdown).
    pub fn traffic(&self) -> TrafficStats {
        self.traffic.lock().clone()
    }

    /// Resets the traffic counters (between benchmark phases).
    pub fn reset_traffic(&self) {
        *self.traffic.lock() = TrafficStats::default();
    }

    /// Plans the replica fan-out for a new block/document while the calling
    /// operation is still side-effect free: the first `replication - 1`
    /// *serviceable* ring-chosen hosts distinct from the origin (down hosts
    /// are skipped — the walk continues along the ring), each validated to
    /// exist and be reachable for `bytes`. Empty without replication. May
    /// return fewer targets than the factor asks for when too few hosts
    /// are serviceable; the fan-out queues the object for repair then.
    fn plan_replicas(&self, key: &str, origin: &str, bytes: u64) -> Result<Vec<HostId>> {
        if self.replication <= 1 {
            return Ok(Vec::new());
        }
        let candidates: Vec<HostId> = {
            let ring = self.ring.read();
            ring.hosts_for(key, ring.len())
                .into_iter()
                .cloned()
                .collect()
        };
        let targets: Vec<HostId> = candidates
            .into_iter()
            .filter(|candidate| candidate.as_str() != origin && self.is_serviceable(candidate))
            .take(self.replication - 1)
            .collect();
        for target in &targets {
            self.shard(target)?;
            if self.network.transfer_ms(origin, target, bytes).is_none() {
                return Err(DistribError::Unreachable {
                    from: origin.to_string(),
                    to: target.clone(),
                });
            }
        }
        Ok(targets)
    }

    /// Copies a freshly put object from `origin` to its planned replica
    /// targets, handing each delivered copy to `landed` with its cost. A
    /// block a target already holds needs no copy; a document is a new
    /// version and always moves. A copy lost to a fault does not fail the
    /// put — the origin holds the data — it queues the object for repair,
    /// as does a plan short of the replication factor.
    fn fan_out(
        &self,
        item: RepairItem,
        origin: &str,
        bytes: u64,
        targets: &[HostId],
        mut landed: impl FnMut(&HostId, u64),
    ) -> Result<()> {
        for target in targets {
            if matches!(item, RepairItem::Block(_)) && self.shard(target)?.holds(item) {
                continue;
            }
            match self.copy(item, origin, target, bytes, target) {
                Ok(cost) => landed(target, cost),
                Err(e) if e.is_retryable() => self.enqueue_repair(item),
                Err(e) => return Err(e),
            }
        }
        if targets.len() + 1 < self.replication {
            self.enqueue_repair(item);
        }
        Ok(())
    }

    /// The copy step every replica move shares — fetch, replica put,
    /// publish, transport and repair. Charges the transfer of `bytes` from
    /// `from` to `to` first (a transfer the fault plan or the health gate
    /// refuses moves nothing; `blame` is the host a mid-flight failure
    /// counts against), then copies the object into `to`'s shard: a block
    /// as payload plus descriptor, a document as its wire bytes. Indexing
    /// the new holder is left to the caller.
    fn copy(&self, item: RepairItem, from: &str, to: &str, bytes: u64, blame: &str) -> Result<u64> {
        let is_document = matches!(item, RepairItem::Document(_));
        let cost = self.attempt_transfer(from, to, bytes, is_document, blame)?;
        let (source, dest) = (self.shard(from)?, self.shard(to)?);
        match item {
            RepairItem::Block(key) => {
                let payload = source.blocks.payload(key.as_str())?;
                let descriptor = source.blocks.descriptor(key.as_str())?;
                match dest
                    .blocks
                    .put_with_descriptor(MediaBlock::new(key.as_str(), payload), descriptor)
                {
                    // A direct `put_block` to this host landed first: the
                    // block is local; the bytes moved anyway stay charged.
                    Ok(()) | Err(MediaError::DuplicateBlock { .. }) => {}
                    Err(e) => return Err(e.into()),
                }
            }
            RepairItem::Document(name) => {
                let wire = source.documents.read().get(&name).cloned();
                let wire = wire.ok_or_else(|| missing(item, from))?;
                dest.documents.write().insert(name, wire);
            }
        }
        Ok(cost)
    }

    // ------------------------------------------------------------------
    // Reads: ranking and the retry walk
    // ------------------------------------------------------------------

    /// Sort rank of a host's health for source selection: `Up` hosts
    /// first, then `Suspect`, then `Down`/`Decommissioned`.
    fn health_rank(&self, host: &str) -> u8 {
        match self
            .health
            .read()
            .get(host)
            .map(|record| record.state())
            .unwrap_or(HealthState::Up)
        {
            HealthState::Up => 0,
            HealthState::Suspect => 1,
            HealthState::Down => 2,
            HealthState::Decommissioned => 3,
        }
    }

    /// Ranks the holders of `item` as sources for `to` — the one holder
    /// ranking every read uses. Costs are priced for the object's size, or
    /// for `priced_for` bytes when given (descriptor reads pass zero: they
    /// are latency-dominated). Errors with [`missing`]'s error when nobody
    /// holds the object.
    fn ranked_sources(
        &self,
        to: &str,
        item: RepairItem,
        priced_for: Option<u64>,
    ) -> Result<Sources> {
        let (bytes, holders) = {
            let placement = self.placement.read();
            let entry = placement.get(&item).ok_or_else(|| missing(item, to))?;
            (
                entry.bytes,
                entry.holders.iter().cloned().collect::<Vec<_>>(),
            )
        };
        let mut sources = Sources {
            bytes,
            local: false,
            ranked: Vec::new(),
            unreachable: Vec::new(),
        };
        let mut ranked: Vec<(u8, u64, HostId)> = Vec::new();
        for holder in holders {
            if holder == to {
                sources.local = true;
                continue;
            }
            let rank = self.health_rank(&holder);
            if rank > 2 {
                continue;
            }
            match self
                .network
                .transfer_ms(&holder, to, priced_for.unwrap_or(bytes))
            {
                Some(cost) => ranked.push((rank, cost, holder)),
                None => sources.unreachable.push(holder),
            }
        }
        ranked.sort();
        sources.ranked = ranked.into_iter().map(|(_, _, host)| host).collect();
        Ok(sources)
    }

    /// Picks the holder to serve `item` to `to`: the destination itself
    /// when it holds a copy, otherwise the first pick of the ranking.
    /// Errors distinguish an object nobody holds from one whose holders
    /// are all unreachable ([`DistribError::Unreachable`]).
    fn select_source(&self, to: &str, item: RepairItem, priced_for: Option<u64>) -> Result<HostId> {
        let sources = self.ranked_sources(to, item, priced_for)?;
        if sources.local {
            return Ok(to.to_string());
        }
        sources
            .ranked
            .into_iter()
            .next()
            .ok_or_else(|| DistribError::Unreachable {
                from: sources.unreachable.into_iter().next().unwrap_or_default(),
                to: to.to_string(),
            })
    }

    /// Brings `item` to `to`: a local hit, or the retry walk under `to`'s
    /// in-flight reservation for the object. When N callers race for one
    /// object to one host, one walks (and is charged) while the others
    /// wait on the reservation and then find the object local — exactly
    /// one transfer lands in [`TrafficStats`]. Nothing is decoded or
    /// copied while the in-flight set is locked.
    fn fetch_object(&self, to: &str, item: RepairItem) -> Result<FetchReport> {
        let dest = self.shard(to)?;
        {
            let mut inflight = lock_inflight(dest);
            loop {
                if dest.holds(item) {
                    return Ok(FetchReport::local_hit());
                }
                if inflight.insert(item) {
                    break;
                }
                // Another fetch of this object to this host is in flight;
                // wait for it to finish, then re-check (it may have failed,
                // in which case we take over the reservation).
                inflight = dest
                    .arrived
                    .wait(inflight)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        // Release the reservation on every exit path — including a panic
        // inside the transfer — so a failed fetch never wedges later
        // fetches of the same object to this host.
        let _reservation = InflightReservation { shard: dest, item };
        self.walk(to, item)
    }

    /// The retry walk behind every degraded read; runs with the object
    /// reserved on the destination host.
    ///
    /// Each round re-ranks the surviving holders nearest-first (health
    /// before cost — a holder that just failed us is `Suspect` and sinks)
    /// and tries them in order, charging exponential backoff with jitter
    /// between attempts, until the object arrives or the [`RetryPolicy`]
    /// budget runs out. Exhaustion is classified: any mid-flight transfer
    /// failure in the trace ⇒ [`DistribError::RetriesExhausted`];
    /// otherwise every path was cut by down hosts or partitions ⇒
    /// [`DistribError::Partitioned`]. When no transfer was ever attempted
    /// because no holder has a link to `to`, the legacy
    /// [`DistribError::Unreachable`] names the topology gap.
    fn walk(&self, to: &str, item: RepairItem) -> Result<FetchReport> {
        let mut failed: Vec<FetchAttempt> = Vec::new();
        let mut attempt: u32 = 0;
        let mut backoff_total: u64 = 0;
        'rounds: loop {
            let sources = self.ranked_sources(to, item, None)?;
            if sources.ranked.is_empty() {
                match sources.unreachable.into_iter().next() {
                    // Pure topology gap, no dynamic faults involved: keep
                    // the legacy error operators already know.
                    Some(from) if failed.is_empty() => {
                        return Err(DistribError::Unreachable {
                            from,
                            to: to.to_string(),
                        })
                    }
                    _ => break,
                }
            }
            for from in sources.ranked {
                if attempt >= self.retry.max_attempts {
                    break 'rounds;
                }
                attempt += 1;
                let backoff = self.retry.backoff_ms(attempt, &mut self.retry_rng.lock());
                backoff_total += backoff;
                match self.copy(item, &from, to, sources.bytes, &from) {
                    Ok(cost) => {
                        self.index_holder(item, sources.bytes, to);
                        return Ok(FetchReport {
                            requested: 1,
                            fetched: 1,
                            local_hits: 0,
                            degraded: usize::from(attempt > 1),
                            retries: attempt - 1,
                            simulated_ms: cost + backoff_total,
                        });
                    }
                    Err(error) if error.is_retryable() => failed.push(FetchAttempt {
                        attempt,
                        source: from,
                        error: Box::new(error),
                        backoff_ms: backoff,
                    }),
                    Err(error) => return Err(error),
                }
            }
        }
        let (to, key) = (to.to_string(), item.key().as_str().to_string());
        if failed
            .iter()
            .any(|a| matches!(*a.error, DistribError::TransferFailed { .. }))
        {
            Err(DistribError::RetriesExhausted {
                to,
                key,
                attempts: failed,
            })
        } else {
            Err(DistribError::Partitioned {
                to,
                key,
                attempts: failed,
            })
        }
    }

    // ------------------------------------------------------------------
    // Media blocks
    // ------------------------------------------------------------------

    /// Stores a media block on a host and, when the replication factor is
    /// above one, copies it to further ring-chosen hosts, charging each
    /// replica transfer. Returns the simulated milliseconds spent on
    /// replication (zero without replication).
    ///
    /// Replica targets and their reachability are validated *before* the
    /// origin insert, so an unreachable ring target fails the whole call
    /// cleanly: nothing is stored, indexed or charged, and the caller can
    /// retry after fixing the topology.
    pub fn put_block(
        &self,
        host: &str,
        block: MediaBlock,
        descriptor: DataDescriptor,
    ) -> Result<u64> {
        let shard = self.shard(host)?;
        self.ensure_serviceable(host)?;
        let item = RepairItem::Block(Symbol::intern(&block.key));
        let bytes = block.payload.size_bytes();
        let replicas = self.plan_replicas(item.key().as_str(), host, bytes)?;
        shard.blocks.put_with_descriptor(block, descriptor)?;
        self.index_holder(item, bytes, host);
        let mut total_cost = 0;
        self.fan_out(item, host, bytes, &replicas, |target, cost| {
            self.index_holder(item, bytes, target);
            total_cost += cost;
        })?;
        Ok(total_cost)
    }

    /// The keys of the blocks a host holds locally.
    pub fn local_blocks(&self, host: &str) -> Result<Vec<String>> {
        Ok(self.shard(host)?.blocks.keys())
    }

    /// Finds a host holding the block (the first holder in lexical order;
    /// use [`DistributedStore::nearest_source`] for cost-aware selection).
    /// Never interns: unknown keys miss without growing the pool.
    pub fn locate_block(&self, key: &str) -> Option<HostId> {
        self.replicas_of(key).into_iter().next()
    }

    /// Every host currently holding a copy of the block, in lexical order.
    pub fn replicas_of(&self, key: &str) -> Vec<HostId> {
        let Some(key) = Symbol::lookup(key) else {
            return Vec::new();
        };
        self.placement
            .read()
            .get(&RepairItem::Block(key))
            .map(|entry| entry.holders.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// The cheapest source to fetch the block to `to` from, ranked by the
    /// network's transfer cost for the block's actual size (ties break in
    /// lexical host order). `None` when no host holds the block or no
    /// holder is reachable.
    pub fn nearest_source(&self, to: &str, key: &str) -> Option<HostId> {
        // Validate the destination like every other API: a default link
        // must not make an unknown host look reachable.
        if !self.shards.contains_key(to) {
            return None;
        }
        let item = RepairItem::Block(Symbol::lookup(key)?);
        self.select_source(to, item, None).ok()
    }

    /// Fetches a block's descriptor to `to` from the holder cheapest for
    /// descriptor-sized data (latency-dominated, unlike payload fetches).
    /// Only descriptor bytes move; when `to` itself holds the block the
    /// read is local and no transfer is recorded.
    pub fn fetch_descriptor(&self, to: &str, key: &str) -> Result<DataDescriptor> {
        self.shard(to)?;
        let key = Symbol::lookup(key).ok_or_else(|| MediaError::UnknownBlock {
            key: key.to_string(),
        })?;
        let from = self.select_source(to, RepairItem::Block(key), Some(0))?;
        let descriptor = self.shard(&from)?.blocks.descriptor(key.as_str())?;
        if from != to {
            let bytes = descriptor.approx_descriptor_size() as u64;
            self.attempt_transfer(&from, to, bytes, true, &from)?;
        }
        Ok(descriptor)
    }

    /// Fetches a block's payload to `to` from the nearest holder, copying it
    /// into `to`'s local store (so later fetches are local hits) and
    /// charging the media transfer. The report says how the block arrived:
    /// a local hit, a clean transfer, or a degraded fetch that had to walk
    /// past failed replicas (`retries` counts them). Racing fetches of one
    /// block to one host charge one transfer.
    pub fn fetch_block(&self, to: &str, key: &str) -> Result<FetchReport> {
        // Never interns: a block that exists anywhere was interned when it
        // was put, so a pool miss is an unknown block — failing lookups of
        // caller-supplied keys must not grow the pool.
        let key = Symbol::lookup(key).ok_or_else(|| MediaError::UnknownBlock {
            key: key.to_string(),
        })?;
        self.fetch_object(to, RepairItem::Block(key))
    }

    /// Fetches to `host` the payloads of exactly the given descriptor keys
    /// (e.g. only the blocks a device can present), one after the other in
    /// key order, and reports how they arrived — local hits, clean
    /// transfers, degraded fetches and the retries they recovered from.
    pub fn fetch_blocks_for_traced(
        &self,
        host: &str,
        keys: &BTreeSet<Symbol>,
    ) -> Result<FetchReport> {
        let mut report = FetchReport::default();
        for key in keys {
            report.absorb(self.fetch_object(host, RepairItem::Block(*key))?);
        }
        Ok(report)
    }

    /// One host's local block store (for presentation pipelines running on
    /// that host). No distributed-store lock is held by the reference: the
    /// shard map is frozen and the [`BlockStore`] locks itself per call, so
    /// the caller may re-enter the distributed store freely.
    ///
    /// The reference is a *host-local* view: blocks inserted through it
    /// directly (e.g. `BlockStore::put`) are not registered in the cluster
    /// placement index and stay invisible to
    /// [`DistributedStore::locate_block`]/[`DistributedStore::fetch_block`].
    /// Use [`DistributedStore::put_block`] to store blocks the cluster
    /// should know about.
    pub fn local_store(&self, host: &str) -> Result<&BlockStore> {
        Ok(&self.shard(host)?.blocks)
    }

    // ------------------------------------------------------------------
    // Documents
    // ------------------------------------------------------------------

    /// Publishes a document on a host under a name, serializing it in the
    /// store's wire encoding (binary by default, see
    /// [`DistributedStore::with_wire_encoding`]) and replicating the wire
    /// bytes to further ring-chosen hosts when the replication factor is
    /// above one (each replica transfer is charged as structure bytes).
    /// Only the structure is stored; media blocks stay wherever they are.
    /// Returns the structure size in bytes.
    ///
    /// Like [`DistributedStore::put_block`], replica targets are validated
    /// before anything is stored or charged, so an unreachable ring target
    /// fails the whole call with no partial state and no phantom traffic.
    pub fn publish_document(&self, host: &str, name: &str, doc: &Document) -> Result<usize> {
        let origin = self.shard(host)?;
        self.ensure_serviceable(host)?;
        let name = Symbol::intern(name);
        let item = RepairItem::Document(name);
        let bytes = document_to_bytes(doc, self.wire)?;
        let size = bytes.len() as u64;
        let replicas = self.plan_replicas(name.as_str(), host, size)?;

        // Republish invalidation: a host holding an older version that the
        // new replica set no longer names drops its stale bytes *before*
        // the new version lands anywhere, so no reader is served the old
        // document from a holder the placement no longer knows about.
        let stale: Vec<HostId> = self
            .placement
            .read()
            .get(&item)
            .map(|entry| {
                entry
                    .holders
                    .iter()
                    .filter(|holder| holder.as_str() != host && !replicas.contains(holder))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        for stale_host in &stale {
            if let Ok(shard) = self.shard(stale_host) {
                shard.documents.write().remove(&name);
            }
        }

        origin.documents.write().insert(name, bytes);
        let mut holders = BTreeSet::from([host.to_string()]);
        self.fan_out(item, host, size, &replicas, |target, _| {
            holders.insert(target.clone());
        })?;
        // The new version's holder set replaces the old one wholesale.
        self.placement.write().insert(
            item,
            Placement {
                bytes: size,
                holders,
            },
        );
        Ok(size as usize)
    }

    /// The documents a host holds, in name order.
    pub fn documents_on(&self, host: &str) -> Result<Vec<String>> {
        let mut names: Vec<String> = self
            .shard(host)?
            .documents
            .read()
            .keys()
            .map(|name| name.as_str().to_string())
            .collect();
        names.sort();
        Ok(names)
    }

    /// Transports a document's structure from one host to another, charging
    /// only the structure bytes (as many as the wire form actually
    /// occupies). The bytes move verbatim — a text-published document stays
    /// text on the destination. Returns the decoded document.
    pub fn transport_document(&self, from: &str, to: &str, name: &str) -> Result<Document> {
        self.shard(to)?;
        let missing = || DistribError::UnknownDocument {
            host: from.to_string(),
            name: name.to_string(),
        };
        let item = RepairItem::Document(Symbol::lookup(name).ok_or_else(missing)?);
        let held = self
            .shard(from)?
            .documents
            .read()
            .get(&item.key())
            .map(Vec::len);
        let size = held.ok_or_else(missing)? as u64;
        self.copy(item, from, to, size, from)?;
        self.index_holder(item, size, to);
        self.open_document(to, name)
    }

    /// Reads a document a host already holds (no traffic), auto-detecting
    /// the wire form it was published in.
    pub fn open_document(&self, host: &str, name: &str) -> Result<Document> {
        let shard = self.shard(host)?;
        let missing = || DistribError::UnknownDocument {
            host: host.to_string(),
            name: name.to_string(),
        };
        let name = Symbol::lookup(name).ok_or_else(missing)?;
        let documents = shard.documents.read();
        let bytes = documents.get(&name).ok_or_else(missing)?;
        Ok(read_document_bytes(bytes)?.0)
    }

    /// Opens `name` on `to`, fetching the wire bytes from the nearest
    /// surviving holder first when the host has no local copy. The fetch
    /// is the block fetch's walk: it retries past down hosts and cut links
    /// under the store's [`RetryPolicy`], racing fetches of one document
    /// to one host move it once, and the fetched copy lands in `to`'s
    /// shard so later opens are free. Exhaustion is classified the same
    /// way: mid-flight failures ⇒ [`DistribError::RetriesExhausted`],
    /// otherwise [`DistribError::Partitioned`] — both carrying the
    /// per-replica attempt trace.
    pub fn fetch_document(&self, to: &str, name: &str) -> Result<Document> {
        // A name the pool never saw was never published: opening it reports
        // the unknown document (or the unknown host) without a walk.
        if let Some(symbol) = Symbol::lookup(name) {
            self.fetch_object(to, RepairItem::Document(symbol))?;
        }
        self.open_document(to, name)
    }

    // ------------------------------------------------------------------
    // Self-healing repair
    // ------------------------------------------------------------------

    /// Queues an object for re-replication (deduplicated).
    fn enqueue_repair(&self, item: RepairItem) {
        self.repairs.lock().enqueue(item);
    }

    /// Number of objects currently queued for repair.
    pub fn pending_repairs(&self) -> usize {
        self.repairs.lock().len()
    }

    /// Drains the repair queue once: every queued block/document is
    /// re-replicated from its nearest surviving holder onto serviceable
    /// ring-chosen hosts until the replication factor is restored, each
    /// copy charged to [`TrafficStats`] like any other transfer. Items
    /// whose copy fails transiently are re-queued for the next pass; items
    /// with zero surviving holders are reported lost (impossible for a
    /// single host loss at RF ≥ 2). The pass works on a snapshot of the
    /// queue, so it always terminates even while faults keep enqueueing.
    pub fn repair_all(&self) -> RepairReport {
        let batch: Vec<RepairItem> = {
            let mut repairs = self.repairs.lock();
            std::iter::from_fn(|| repairs.pop()).collect()
        };
        let mut report = RepairReport::default();
        for item in batch {
            self.repair(item, &mut report);
        }
        report
    }

    /// The next ring-chosen serviceable host that does not already hold
    /// the object — where a fresh replica should land.
    fn repair_target(&self, key: &str, holders: &BTreeSet<HostId>) -> Option<HostId> {
        let candidates: Vec<HostId> = {
            let ring = self.ring.read();
            ring.hosts_for(key, ring.len())
                .into_iter()
                .cloned()
                .collect()
        };
        candidates.into_iter().find(|candidate| {
            !holders.contains(candidate)
                && self.is_serviceable(candidate)
                && self.shards.contains_key(candidate.as_str())
        })
    }

    /// Re-replicates one object until it has `replication` live copies,
    /// each copied from the live holder cheapest for the next target.
    fn repair(&self, item: RepairItem, report: &mut RepairReport) {
        let Some((bytes, holders)) = self
            .placement
            .read()
            .get(&item)
            .map(|entry| (entry.bytes, entry.holders.clone()))
        else {
            return;
        };
        let mut live: BTreeSet<HostId> = holders
            .into_iter()
            .filter(|holder| {
                self.is_serviceable(holder)
                    && self
                        .shards
                        .get(holder.as_str())
                        .is_some_and(|shard| shard.holds(item))
            })
            .collect();
        if live.is_empty() {
            report.lost.push(item);
            return;
        }
        while live.len() < self.replication {
            let cheapest = |target: &HostId| {
                live.iter()
                    .filter_map(|holder| {
                        self.network
                            .transfer_ms(holder, target, bytes)
                            .map(|cost| (cost, holder))
                    })
                    .min_by_key(|(cost, _)| *cost)
                    .map(|(_, holder)| holder.clone())
            };
            // Too few serviceable hosts, or none linked to a live holder:
            // nothing to retry until the cluster's membership changes.
            let planned = self
                .repair_target(item.key().as_str(), &live)
                .and_then(|target| Some((cheapest(&target)?, target)));
            let Some((source, target)) = planned else {
                report.deferred.push(item);
                return;
            };
            match self.copy(item, &source, &target, bytes, &target) {
                Ok(simulated_ms) => {
                    self.index_holder(item, bytes, &target);
                    report.actions.push(RepairAction {
                        item,
                        from: source,
                        to: target.clone(),
                        bytes,
                        simulated_ms,
                    });
                    report.bytes_copied += bytes;
                    report.simulated_ms += simulated_ms;
                    live.insert(target);
                }
                Err(e) => {
                    report.deferred.push(item);
                    // Transient (injected fault, host mid-flap): try again
                    // on the next pass.
                    if e.is_retryable() {
                        self.enqueue_repair(item);
                    }
                    return;
                }
            }
        }
        report.repaired.push(item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Link;
    use cmif_core::prelude::*;
    use cmif_media::MediaGenerator;
    use std::sync::{mpsc, Arc};
    use std::thread;
    use std::time::Duration;

    fn cluster() -> DistributedStore {
        DistributedStore::new(Network::uniform(&["server", "desk", "laptop"], Link::lan()))
    }

    fn seed_media(store: &DistributedStore, host: &str) {
        let mut generator = MediaGenerator::new(13);
        for (key, ms) in [("speech", 4_000), ("jingle", 1_000)] {
            let block = generator.audio(key, ms, 8_000);
            let descriptor = block.describe();
            store.put_block(host, block, descriptor).unwrap();
        }
        let image = generator.image("painting", 128, 128, 24);
        let descriptor = image.describe();
        store.put_block(host, image, descriptor).unwrap();
    }

    fn news_doc() -> Document {
        DocumentBuilder::new("news")
            .channel("audio", MediaKind::Audio)
            .channel("graphic", MediaKind::Image)
            .descriptor(
                DataDescriptor::new("speech", MediaKind::Audio, "pcm8")
                    .with_duration(TimeMs::from_secs(4))
                    .with_size(32_000),
            )
            .descriptor(
                DataDescriptor::new("painting", MediaKind::Image, "raster24")
                    .with_size(128 * 128 * 3),
            )
            .root_par(|story| {
                story.ext("voice", "audio", "speech");
                story.ext_with("art", "graphic", "painting", |n| {
                    n.duration_ms(4_000);
                });
            })
            .build()
            .unwrap()
    }

    #[test]
    fn unknown_hosts_are_rejected() {
        let store = cluster();
        assert!(matches!(
            store.documents_on("mainframe").unwrap_err(),
            DistribError::UnknownHost { .. }
        ));
    }

    #[test]
    fn blocks_are_located_and_fetched_lazily() {
        let store = cluster();
        seed_media(&store, "server");
        assert_eq!(store.locate_block("speech").as_deref(), Some("server"));
        assert!(store.locate_block("missing").is_none());
        assert!(store.local_blocks("desk").unwrap().is_empty());

        let cost = store.fetch_block("desk", "speech").unwrap().simulated_ms;
        assert!(cost > 0);
        assert_eq!(store.local_blocks("desk").unwrap(), vec!["speech"]);
        // A second fetch is free: the block is now local.
        assert_eq!(store.fetch_block("desk", "speech").unwrap().simulated_ms, 0);
        let traffic = store.traffic();
        assert_eq!(traffic.media_bytes, 32_000);
        assert_eq!(traffic.transfers, 1);
        // The transfer is attributed to the link that carried it.
        let link = traffic.link("server", "desk");
        assert_eq!(link.media_bytes, 32_000);
        assert_eq!(link.transfers, 1);
        assert_eq!(traffic.links_used(), 1);
        // The fetched copy is indexed as a replica.
        assert_eq!(store.replicas_of("speech"), vec!["desk", "server"]);
    }

    #[test]
    fn descriptor_fetches_move_only_kilobytes() {
        let store = cluster();
        seed_media(&store, "server");
        let descriptor = store.fetch_descriptor("laptop", "painting").unwrap();
        assert_eq!(descriptor.medium, MediaKind::Image);
        let traffic = store.traffic();
        assert!(traffic.structure_bytes < 1_000);
        assert_eq!(traffic.media_bytes, 0);
        assert_eq!(
            traffic.link("server", "laptop").structure_bytes,
            traffic.structure_bytes
        );
    }

    #[test]
    fn documents_transport_without_their_media() {
        let store = cluster();
        seed_media(&store, "server");
        let doc = news_doc();
        let published = store
            .publish_document("server", "evening-news", &doc)
            .unwrap();
        assert!(published > 0);
        store.reset_traffic();

        let received = store
            .transport_document("server", "desk", "evening-news")
            .unwrap();
        assert_eq!(received.leaves().len(), 2);
        assert!(store
            .documents_on("desk")
            .unwrap()
            .contains(&"evening-news".to_string()));
        let traffic = store.traffic();
        assert!(traffic.structure_bytes > 0);
        assert_eq!(
            traffic.media_bytes, 0,
            "transporting the structure must not move media"
        );
        // The structure is tiny compared to the media it references.
        assert!(traffic.structure_bytes < 10_000);
    }

    #[test]
    fn open_document_requires_prior_transport_or_publish() {
        let store = cluster();
        let doc = news_doc();
        store.publish_document("server", "news", &doc).unwrap();
        assert!(store.open_document("server", "news").is_ok());
        assert!(matches!(
            store.open_document("desk", "news").unwrap_err(),
            DistribError::UnknownDocument { .. }
        ));
        assert!(matches!(
            store
                .transport_document("server", "desk", "absent")
                .unwrap_err(),
            DistribError::UnknownDocument { .. }
        ));
    }

    #[test]
    fn selective_fetch_moves_only_requested_blocks() {
        let store = cluster();
        seed_media(&store, "server");
        store.reset_traffic();
        // An audio-only device needs only the speech, not the painting.
        let wanted: BTreeSet<cmif_core::Symbol> =
            [cmif_core::Symbol::intern("speech")].into_iter().collect();
        let cost = store
            .fetch_blocks_for_traced("laptop", &wanted)
            .unwrap()
            .simulated_ms;
        assert!(cost > 0);
        let traffic = store.traffic();
        assert_eq!(traffic.media_bytes, 32_000);
        assert_eq!(store.local_blocks("laptop").unwrap(), vec!["speech"]);
    }

    #[test]
    fn local_store_supports_presentation_on_the_destination_host() {
        let store = cluster();
        seed_media(&store, "server");
        store.fetch_block("desk", "speech").unwrap();
        let local = store.local_store("desk").unwrap();
        let duration = local.descriptor("speech").unwrap().duration.unwrap();
        assert_eq!(duration.as_millis(), 4_000);
        assert_eq!(local.len(), 1);
    }

    #[test]
    fn fetch_prefers_the_nearest_replica() {
        // `alpha` sorts before `zulu`, so a first-holder-in-order policy
        // (the old `locate_block` behaviour) would pick the WAN replica.
        let mut network = Network::uniform(&["alpha", "reader", "zulu"], Link::lan());
        network.connect("alpha", "reader", Link::wan());
        let store = DistributedStore::new(network);
        let descriptor = MediaGenerator::new(1)
            .audio("speech", 4_000, 8_000)
            .describe();
        store
            .put_block(
                "alpha",
                MediaGenerator::new(1).audio("speech", 4_000, 8_000),
                descriptor.clone(),
            )
            .unwrap();
        store
            .put_block(
                "zulu",
                MediaGenerator::new(1).audio("speech", 4_000, 8_000),
                descriptor,
            )
            .unwrap();
        assert_eq!(store.replicas_of("speech"), vec!["alpha", "zulu"]);
        assert_eq!(
            store.nearest_source("reader", "speech").as_deref(),
            Some("zulu")
        );
        // Unknown destinations are rejected, default link or not.
        assert!(store.nearest_source("reader_typo", "speech").is_none());

        let cost = store.fetch_block("reader", "speech").unwrap().simulated_ms;
        let traffic = store.traffic();
        assert_eq!(traffic.link("zulu", "reader").transfers, 1);
        assert_eq!(traffic.link("alpha", "reader"), LinkStats::default());
        assert!(
            cost < Link::wan().transfer_ms(32_000),
            "fetch was charged the WAN replica's cost"
        );
    }

    #[test]
    fn replication_copies_blocks_to_ring_chosen_hosts_and_charges_links() {
        let network = Network::uniform(&["a", "b", "c", "d"], Link::lan());
        let store = DistributedStore::with_replication(network, 3).unwrap();
        let block = MediaGenerator::new(2).audio("speech", 1_000, 8_000);
        let descriptor = block.describe();
        let cost = store.put_block("a", block, descriptor).unwrap();
        assert!(cost > 0);

        let replicas = store.replicas_of("speech");
        assert_eq!(replicas.len(), 3);
        assert!(
            replicas.contains(&"a".to_string()),
            "origin must hold a copy"
        );
        let traffic = store.traffic();
        assert_eq!(traffic.transfers, 2, "two replica copies moved");
        assert_eq!(traffic.media_bytes, 2 * 8_000);
        assert!(
            traffic.per_link().all(|(from, _, _)| from == "a"),
            "every replica transfer originates at the publishing host"
        );
    }

    #[test]
    fn replication_copies_documents_and_charges_structure_bytes() {
        let network = Network::uniform(&["a", "b", "c", "d"], Link::lan());
        let store = DistributedStore::with_replication(network, 2).unwrap();
        let size = store.publish_document("a", "news", &news_doc()).unwrap();
        let holders: Vec<&str> = ["a", "b", "c", "d"]
            .into_iter()
            .filter(|h| store.documents_on(h).unwrap().contains(&"news".to_string()))
            .collect();
        assert_eq!(holders.len(), 2);
        assert!(holders.contains(&"a"), "origin must hold the document");
        let traffic = store.traffic();
        assert_eq!(traffic.transfers, 1);
        assert_eq!(traffic.structure_bytes, size as u64);
        assert_eq!(traffic.media_bytes, 0);
    }

    #[test]
    fn local_descriptor_reads_record_no_traffic() {
        let store = cluster();
        seed_media(&store, "server");
        store.reset_traffic();
        // The server already holds the block: a descriptor "fetch" to it is
        // a local read, not a transfer.
        let descriptor = store.fetch_descriptor("server", "speech").unwrap();
        assert_eq!(descriptor.medium, MediaKind::Audio);
        let traffic = store.traffic();
        assert_eq!(traffic.transfers, 0);
        assert_eq!(traffic.links_used(), 0);
    }

    #[test]
    fn unreachable_holders_surface_as_unreachable_not_unknown() {
        let mut network = Network::new();
        network.add_host("a");
        network.add_host("b");
        network.add_host("c");
        network.connect("a", "b", Link::lan());
        let store = DistributedStore::new(network);
        let block = MediaGenerator::new(6).audio("speech", 1_000, 8_000);
        let descriptor = block.describe();
        store.put_block("c", block, descriptor).unwrap();
        // The block exists — the problem is topology, and the error says so.
        assert!(matches!(
            store.fetch_block("a", "speech").unwrap_err(),
            DistribError::Unreachable { .. }
        ));
        assert!(matches!(
            store.fetch_descriptor("a", "speech").unwrap_err(),
            DistribError::Unreachable { .. }
        ));
        // A block nobody holds is still UnknownBlock.
        assert!(matches!(
            store.fetch_block("a", "missing").unwrap_err(),
            DistribError::Media(MediaError::UnknownBlock { .. })
        ));
    }

    #[test]
    fn local_replica_serves_descriptors_even_over_free_links() {
        // Zero-latency links make every source cost 0; the destination's
        // own copy must still win so no phantom transfer is recorded.
        let free = Link {
            latency_ms: 0,
            bandwidth_bps: u64::MAX,
        };
        let store = DistributedStore::new(Network::uniform(&["alpha", "desk"], free));
        let descriptor = MediaGenerator::new(8)
            .audio("speech", 1_000, 8_000)
            .describe();
        store
            .put_block(
                "alpha",
                MediaGenerator::new(8).audio("speech", 1_000, 8_000),
                descriptor.clone(),
            )
            .unwrap();
        store
            .put_block(
                "desk",
                MediaGenerator::new(8).audio("speech", 1_000, 8_000),
                descriptor,
            )
            .unwrap();
        store.fetch_descriptor("desk", "speech").unwrap();
        assert_eq!(store.traffic().transfers, 0);
        assert_eq!(store.traffic().links_used(), 0);
    }

    #[test]
    fn unreachable_replica_targets_fail_before_any_state_changes() {
        // No default link and only a partial topology: some ring-chosen
        // replica target is unreachable from `a`.
        let mut network = Network::new();
        network.add_host("a");
        network.add_host("b");
        network.add_host("c");
        network.connect("a", "b", Link::lan());
        let store = DistributedStore::with_replication(network, 3).unwrap();
        let block = MediaGenerator::new(4).audio("speech", 1_000, 8_000);
        let descriptor = block.describe();
        let err = store.put_block("a", block, descriptor.clone()).unwrap_err();
        assert!(matches!(err, DistribError::Unreachable { .. }));
        // The failed put left nothing behind: no holders, no traffic, and
        // the origin can retry once the topology is fixed.
        assert!(store.replicas_of("speech").is_empty());
        assert!(store.local_blocks("a").unwrap().is_empty());
        assert_eq!(store.traffic().transfers, 0);
        let retry = MediaGenerator::new(4).audio("speech", 1_000, 8_000);
        assert!(matches!(
            store.put_block("a", retry, descriptor).unwrap_err(),
            DistribError::Unreachable { .. },
        ));
    }

    #[test]
    fn unreachable_publish_targets_fail_before_any_state_changes() {
        let mut network = Network::new();
        network.add_host("a");
        network.add_host("b");
        network.add_host("c");
        network.connect("a", "b", Link::lan());
        let store = DistributedStore::with_replication(network, 3).unwrap();
        let err = store
            .publish_document("a", "news", &news_doc())
            .unwrap_err();
        assert!(matches!(err, DistribError::Unreachable { .. }));
        // No host holds the document and nothing was charged, so a retry
        // after fixing the topology does not double-count traffic.
        for host in ["a", "b", "c"] {
            assert!(store.documents_on(host).unwrap().is_empty());
        }
        assert_eq!(store.traffic().transfers, 0);
        assert_eq!(store.traffic().structure_bytes, 0);
    }

    #[test]
    fn invalid_replication_factors_are_rejected() {
        let network = Network::uniform(&["a", "b", "c"], Link::lan());
        assert!(matches!(
            DistributedStore::with_replication(network.clone(), 0).unwrap_err(),
            DistribError::InvalidReplication {
                requested: 0,
                hosts: 3
            }
        ));
        assert!(matches!(
            DistributedStore::with_replication(network.clone(), 4).unwrap_err(),
            DistribError::InvalidReplication {
                requested: 4,
                hosts: 3
            }
        ));
        assert!(DistributedStore::with_replication(network, 3).is_ok());
        // Duplicate host names must not inflate the satisfiable factor.
        let duplicated = Network::uniform(&["a", "a", "b"], Link::lan());
        assert!(matches!(
            DistributedStore::with_replication(duplicated, 3).unwrap_err(),
            DistribError::InvalidReplication {
                requested: 3,
                hosts: 2
            }
        ));
    }

    #[test]
    fn documents_publish_as_binary_wire_bytes_by_default() {
        let store = cluster();
        let doc = news_doc();
        let size = store.publish_document("server", "news", &doc).unwrap();
        // The stored bytes open with the binary magic.
        let shard = store.shards.get("server").unwrap();
        let documents = shard.documents.read();
        let bytes = documents.get(&Symbol::intern("news")).unwrap();
        assert_eq!(
            cmif_format::WireEncoding::detect(bytes),
            WireEncoding::Binary
        );
        assert_eq!(bytes.len(), size);
        drop(documents);
        // And they decode back to the same document.
        let opened = store.open_document("server", "news").unwrap();
        assert_eq!(
            cmif_format::write_document(&opened).unwrap(),
            cmif_format::write_document(&doc).unwrap()
        );
    }

    #[test]
    fn binary_publishing_moves_fewer_structure_bytes_than_text() {
        let doc = news_doc();
        let network = Network::uniform(&["server", "desk", "laptop"], Link::lan());
        let binary_store = DistributedStore::new(network.clone());
        let text_store = DistributedStore::new(network).with_wire_encoding(WireEncoding::Text);
        assert_eq!(binary_store.wire_encoding(), WireEncoding::Binary);
        assert_eq!(text_store.wire_encoding(), WireEncoding::Text);

        let binary_size = binary_store
            .publish_document("server", "news", &doc)
            .unwrap();
        let text_size = text_store.publish_document("server", "news", &doc).unwrap();
        assert!(
            binary_size < text_size,
            "binary wire form ({binary_size} B) must beat text ({text_size} B)"
        );

        // TrafficStats record the smaller binary byte count on transport.
        binary_store.reset_traffic();
        text_store.reset_traffic();
        binary_store
            .transport_document("server", "desk", "news")
            .unwrap();
        text_store
            .transport_document("server", "desk", "news")
            .unwrap();
        assert_eq!(binary_store.traffic().structure_bytes, binary_size as u64);
        assert!(binary_store.traffic().structure_bytes < text_store.traffic().structure_bytes);
    }

    #[test]
    fn text_published_documents_stay_text_and_still_open_everywhere() {
        let store = cluster().with_wire_encoding(WireEncoding::Text);
        store
            .publish_document("server", "news", &news_doc())
            .unwrap();
        let received = store.transport_document("server", "desk", "news").unwrap();
        assert_eq!(received.leaves().len(), 2);
        // The destination holds the same text bytes the origin published.
        let shard = store.shards.get("desk").unwrap();
        let documents = shard.documents.read();
        let bytes = documents.get(&Symbol::intern("news")).unwrap();
        assert_eq!(cmif_format::WireEncoding::detect(bytes), WireEncoding::Text);
        drop(documents);
        assert!(store.open_document("desk", "news").is_ok());
    }

    #[test]
    fn writes_to_one_host_do_not_block_reads_of_another() {
        let store = Arc::new(cluster());
        store.publish_document("desk", "news", &news_doc()).unwrap();

        // Hold host `server`'s document write lock, as a publisher stuck
        // mid-write would, and read host `desk` from another thread. Under
        // the old global `RwLock<BTreeMap<HostId, HostStore>>` this
        // deadlocks until the guard drops; sharded, it must complete.
        let server_guard = store
            .shards
            .get("server")
            .expect("server shard exists")
            .documents
            .write();
        let (tx, rx) = mpsc::channel();
        let reader_store = Arc::clone(&store);
        let reader = thread::spawn(move || {
            let names = reader_store.documents_on("desk").unwrap();
            let doc = reader_store.open_document("desk", "news").unwrap();
            tx.send((names, doc.leaves().len())).unwrap();
        });
        let (names, leaves) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("reading host `desk` blocked behind a write lock on host `server`");
        drop(server_guard);
        reader.join().unwrap();
        assert_eq!(names, vec!["news"]);
        assert_eq!(leaves, 2);
    }
}
