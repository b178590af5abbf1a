//! Tenants: identity, admission quotas, weighted fair queuing, stats.
//!
//! The ROADMAP's "millions of users" story needs the engine to serve many
//! *clients*, not just many documents — and a shared engine without tenant
//! isolation hands the whole machine to whichever client submits fastest.
//! This module supplies the three isolation mechanisms:
//!
//! * **identity** — [`TenantId`], a `Copy` handle carried by every
//!   [`Submission`](super::Submission) (untagged work belongs to
//!   [`TenantId::DEFAULT`]);
//! * **admission quota** — an optional token bucket per tenant
//!   ([`QuotaConfig`]): a tenant may burst to `burst` admissions and then
//!   sustain `per_second`, and beyond that admission fails fast with
//!   [`SchedulerError::QuotaExceeded`] — the engine never buffers work the
//!   policy already refused;
//! * **weighted fair queuing** — the run queue is one FIFO *per tenant*,
//!   scheduled by stride scheduling: each dispatch advances the chosen
//!   tenant's virtual time (`pass`) by `STRIDE_ONE / weight`, and the
//!   tenant with the smallest pass dispatches next. A tenant with 10 000
//!   queued documents therefore advances its pass 10 000 strides while a
//!   1-document tenant advances one — the small tenant's document
//!   dispatches within a bounded number of slots of its arrival instead
//!   of behind the whole flood. Weights buy proportional throughput:
//!   weight 3 dispatches 3× as often as weight 1 while both are backlogged.
//!
//! A tenant (re)entering the ready set starts at
//! `max(own pass, global pass)`, so idling never banks credit: you cannot
//! go quiet for an hour and then monopolise the engine with a burst.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::time::{Duration, Instant};

use crate::error::SchedulerError;

/// Identity of one engine client. A plain `Copy` handle — the engine
/// creates tenant state lazily on first sight, so any id is valid without
/// registration. Work submitted without an explicit tenant belongs to
/// [`TenantId::DEFAULT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(u64);

impl TenantId {
    /// The tenant untagged submissions belong to.
    pub const DEFAULT: TenantId = TenantId(0);

    /// A tenant id from a raw integer (stable across engines).
    pub const fn new(id: u64) -> TenantId {
        TenantId(id)
    }

    /// The raw id.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Token-bucket admission quota: a tenant may burst to `burst` admissions
/// at once and sustain `per_second` admissions per second thereafter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaConfig {
    /// Bucket capacity: admissions available after a long quiet period.
    /// Clamped to at least 1 (a zero-burst bucket could never admit).
    pub burst: u32,
    /// Sustained admission rate, tokens per second. Zero means the bucket
    /// never refills: the tenant gets `burst` admissions, ever.
    pub per_second: f64,
}

impl QuotaConfig {
    /// A quota sustaining `per_second` with bursts up to `burst`.
    pub fn new(burst: u32, per_second: f64) -> QuotaConfig {
        QuotaConfig { burst, per_second }
    }
}

/// Per-tenant scheduling policy: fair-queuing weight plus optional quota.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPolicy {
    /// Relative throughput share while backlogged: a weight-3 tenant
    /// dispatches 3× as often as a weight-1 tenant. Zero is clamped to 1.
    pub weight: u32,
    /// Admission quota; `None` admits without rate limit.
    pub quota: Option<QuotaConfig>,
}

impl Default for TenantPolicy {
    fn default() -> TenantPolicy {
        TenantPolicy {
            weight: 1,
            quota: None,
        }
    }
}

impl TenantPolicy {
    /// A policy with the given weight and no quota.
    pub fn weighted(weight: u32) -> TenantPolicy {
        TenantPolicy {
            weight,
            quota: None,
        }
    }

    /// Sets the admission quota.
    pub fn with_quota(mut self, quota: QuotaConfig) -> TenantPolicy {
        self.quota = Some(quota);
        self
    }
}

/// Stride-scheduling quantum: a weight-`w` tenant's pass advances by
/// `STRIDE_ONE / w` per dispatched job.
const STRIDE_ONE: u64 = 1 << 20;

fn stride_of(weight: u32) -> u64 {
    (STRIDE_ONE / u64::from(weight.max(1))).max(1)
}

/// The classic leaky bucket, refilled lazily from elapsed wall time.
#[derive(Debug, Clone)]
struct TokenBucket {
    tokens: f64,
    config: QuotaConfig,
    last: Instant,
}

impl TokenBucket {
    fn new(config: QuotaConfig, now: Instant) -> TokenBucket {
        TokenBucket {
            tokens: f64::from(config.burst.max(1)),
            config,
            last: now,
        }
    }

    fn refill(&mut self, now: Instant) {
        // `checked_duration_since`: callers may pass an Instant captured
        // before another thread's later charge advanced `last`.
        let elapsed = now.checked_duration_since(self.last).unwrap_or_default();
        if elapsed.is_zero() {
            return;
        }
        let burst = f64::from(self.config.burst.max(1));
        self.tokens = (self.tokens + elapsed.as_secs_f64() * self.config.per_second).min(burst);
        self.last = now;
    }

    /// Milliseconds until `deficit` more tokens exist; `u64::MAX` when the
    /// bucket never refills.
    fn retry_after_ms(&self, deficit: f64) -> u64 {
        if self.config.per_second <= 0.0 {
            return u64::MAX;
        }
        (deficit / self.config.per_second * 1_000.0).ceil() as u64
    }
}

struct TenantState<T> {
    queue: VecDeque<T>,
    /// Stride-scheduling virtual time; smallest pass dispatches next.
    pass: u64,
    /// Sequence number of this tenant's live ready-heap entry; heap
    /// entries with any other sequence are stale and skipped.
    live_entry: Option<u64>,
    policy: TenantPolicy,
    bucket: Option<TokenBucket>,
    submitted: u64,
    quota_refusals: u64,
}

impl<T> TenantState<T> {
    fn new(policy: TenantPolicy, now: Instant) -> TenantState<T> {
        let bucket = policy.quota.map(|q| TokenBucket::new(q, now));
        TenantState {
            queue: VecDeque::new(),
            pass: 0,
            live_entry: None,
            policy,
            bucket,
            submitted: 0,
            quota_refusals: 0,
        }
    }
}

/// Admission-side counters for one tenant (the completion-side half lives
/// with the engine's outcome bookkeeping and is merged into
/// [`TenantStatsSnapshot`] by `Engine::tenant_stats`).
pub(super) struct TenantAdmissionRow {
    pub(super) tenant: TenantId,
    pub(super) weight: u32,
    pub(super) submitted: u64,
    pub(super) quota_refusals: u64,
}

/// The shared run queue: one FIFO per tenant, dispatched by stride
/// scheduling. Generic over the job type so the scheduling discipline is
/// testable without building documents.
pub(super) struct TenantRunQueue<T> {
    tenants: HashMap<TenantId, TenantState<T>>,
    /// Min-heap of `(pass, entry_seq, tenant)`; entries are lazily
    /// invalidated via `TenantState::live_entry`.
    ready: BinaryHeap<Reverse<(u64, u64, TenantId)>>,
    /// Pass of the most recently dispatched tenant: the floor newly
    /// activated tenants start from, so idling banks no credit.
    global_pass: u64,
    entry_seq: u64,
    len: usize,
}

impl<T> TenantRunQueue<T> {
    pub(super) fn new() -> TenantRunQueue<T> {
        TenantRunQueue {
            tenants: HashMap::new(),
            ready: BinaryHeap::new(),
            global_pass: 0,
            entry_seq: 0,
            len: 0,
        }
    }

    /// Queued jobs across all tenants.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    fn state_mut(&mut self, tenant: TenantId, now: Instant) -> &mut TenantState<T> {
        self.tenants
            .entry(tenant)
            .or_insert_with(|| TenantState::new(TenantPolicy::default(), now))
    }

    /// Replaces a tenant's policy. The quota bucket restarts full under
    /// the new configuration; the fair-queuing pass is preserved.
    pub(super) fn set_policy(&mut self, tenant: TenantId, policy: TenantPolicy, now: Instant) {
        let state = self.state_mut(tenant, now);
        state.bucket = policy.quota.map(|q| TokenBucket::new(q, now));
        state.policy = policy;
    }

    /// Takes `count` quota tokens from each listed tenant, all-or-nothing
    /// across the whole batch: either every tenant had the tokens and all
    /// are consumed, or nothing is consumed and the first exhausted tenant
    /// is reported via [`SchedulerError::QuotaExceeded`].
    pub(super) fn charge(
        &mut self,
        counts: &[(TenantId, usize)],
        now: Instant,
    ) -> Result<(), SchedulerError> {
        for &(tenant, count) in counts {
            let state = self.state_mut(tenant, now);
            let Some(bucket) = state.bucket.as_mut() else {
                continue;
            };
            bucket.refill(now);
            let needed = count as f64;
            if bucket.tokens + 1e-9 < needed {
                let retry_after_ms = bucket.retry_after_ms(needed - bucket.tokens);
                state.quota_refusals += count as u64;
                return Err(SchedulerError::QuotaExceeded {
                    tenant,
                    retry_after_ms,
                });
            }
        }
        for &(tenant, count) in counts {
            if let Some(bucket) = self
                .tenants
                .get_mut(&tenant)
                .and_then(|state| state.bucket.as_mut())
            {
                bucket.tokens -= count as f64;
            }
        }
        Ok(())
    }

    /// Enqueues one job for `tenant`, activating it in the ready heap if
    /// its queue was empty.
    pub(super) fn push(&mut self, tenant: TenantId, item: T, now: Instant) {
        self.entry_seq += 1;
        let seq = self.entry_seq;
        let global_pass = self.global_pass;
        let activation = {
            let state = self.state_mut(tenant, now);
            state.queue.push_back(item);
            state.submitted += 1;
            if state.live_entry.is_none() {
                state.pass = state.pass.max(global_pass);
                state.live_entry = Some(seq);
                Some(state.pass)
            } else {
                None
            }
        };
        if let Some(pass) = activation {
            self.ready.push(Reverse((pass, seq, tenant)));
        }
        self.len += 1;
    }

    /// Dispatches the next job in weighted-fair order: the ready tenant
    /// with the smallest pass (ties broken by activation order, so equal
    /// weights interleave FIFO).
    pub(super) fn pop_fair(&mut self) -> Option<T> {
        loop {
            let Reverse((pass, seq, tenant)) = self.ready.pop()?;
            let Some(state) = self.tenants.get_mut(&tenant) else {
                continue;
            };
            if state.live_entry != Some(seq) {
                continue; // stale entry, superseded by a later activation
            }
            let item = state
                .queue
                .pop_front()
                // repo_lint: allow(live_entry is cleared whenever the queue drains)
                .expect("a live ready entry implies a nonempty tenant queue");
            self.len -= 1;
            self.global_pass = pass;
            state.pass = pass.saturating_add(stride_of(state.policy.weight));
            if state.queue.is_empty() {
                state.live_entry = None;
            } else {
                self.entry_seq += 1;
                let next_seq = self.entry_seq;
                let state = self
                    .tenants
                    .get_mut(&tenant)
                    // repo_lint: allow(the same key was read a few lines up)
                    .expect("tenant state just touched");
                state.live_entry = Some(next_seq);
                self.ready.push(Reverse((state.pass, next_seq, tenant)));
            }
            return Some(item);
        }
    }

    /// Admission-side stats rows for every tenant ever seen.
    pub(super) fn admission_rows(&self) -> Vec<TenantAdmissionRow> {
        self.tenants
            .iter()
            .map(|(&tenant, state)| TenantAdmissionRow {
                tenant,
                weight: state.policy.weight.max(1),
                submitted: state.submitted,
                quota_refusals: state.quota_refusals,
            })
            .collect()
    }
}

/// Number of log2 latency buckets: bucket `i` counts completions whose
/// admission→completion latency was in `[2^i, 2^(i+1))` microseconds, so
/// the range spans 1 µs to ~17 minutes with constant memory.
const LATENCY_BUCKETS: usize = 30;

/// Completion-side accumulator: outcome counts plus a log2 latency
/// histogram (bounded memory, approximate upper-bound percentiles).
#[derive(Debug, Clone)]
pub(super) struct LatencyStats {
    completed: u64,
    ok: u64,
    sum_ms: f64,
    max_ms: f64,
    buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyStats {
    fn default() -> LatencyStats {
        LatencyStats {
            completed: 0,
            ok: 0,
            sum_ms: 0.0,
            max_ms: 0.0,
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl LatencyStats {
    /// Records one completed job's admission→completion latency.
    pub(super) fn record(&mut self, latency: Duration, is_ok: bool) {
        self.completed += 1;
        if is_ok {
            self.ok += 1;
        }
        let ms = latency.as_secs_f64() * 1_000.0;
        self.sum_ms += ms;
        self.max_ms = self.max_ms.max(ms);
        let micros = latency.as_micros().max(1);
        let bucket = (micros.ilog2() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    fn mean_ms(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.sum_ms / self.completed as f64
    }

    /// Approximate p99: the upper bound of the smallest histogram bucket
    /// covering 99 % of completions, capped by the observed maximum.
    fn p99_ms(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        let target = (self.completed as f64 * 0.99).ceil() as u64;
        let mut seen = 0;
        for (bucket, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= target {
                let upper_micros = 1u64 << (bucket as u32 + 1).min(63);
                return (upper_micros as f64 / 1_000.0).min(self.max_ms);
            }
        }
        self.max_ms
    }
}

/// Point-in-time per-tenant statistics, merged from the admission side
/// (submissions, quota refusals) and the completion side (outcomes,
/// latency). Returned by `Engine::tenant_stats`, sorted by tenant id.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStatsSnapshot {
    /// The tenant the row describes.
    pub tenant: TenantId,
    /// Effective fair-queuing weight.
    pub weight: u32,
    /// Documents admitted (quota refusals are *not* included).
    pub submitted: u64,
    /// Admissions refused by the tenant's token bucket.
    pub quota_refusals: u64,
    /// Outcomes produced (delivered or not).
    pub completed: u64,
    /// Completions that played to a report.
    pub ok: u64,
    /// Completions that ended in a scheduler error.
    pub failed: u64,
    /// Mean admission→completion latency, milliseconds.
    pub mean_latency_ms: f64,
    /// Approximate 99th-percentile latency (log2-histogram upper bound).
    pub p99_latency_ms: f64,
    /// Worst observed latency, milliseconds.
    pub max_latency_ms: f64,
}

impl TenantStatsSnapshot {
    pub(super) fn merge(row: TenantAdmissionRow, latency: Option<&LatencyStats>) -> Self {
        let stats = latency.cloned().unwrap_or_default();
        TenantStatsSnapshot {
            tenant: row.tenant,
            weight: row.weight,
            submitted: row.submitted,
            quota_refusals: row.quota_refusals,
            completed: stats.completed,
            ok: stats.ok,
            failed: stats.completed - stats.ok,
            mean_latency_ms: stats.mean_ms(),
            p99_latency_ms: stats.p99_ms(),
            max_latency_ms: stats.max_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_order(queue: &mut TenantRunQueue<&'static str>) -> Vec<&'static str> {
        std::iter::from_fn(|| queue.pop_fair()).collect()
    }

    #[test]
    fn equal_weights_interleave_instead_of_draining_the_flood_first() {
        let now = Instant::now();
        let mut queue = TenantRunQueue::new();
        let flood = TenantId::new(1);
        let small = TenantId::new(2);
        for _ in 0..100 {
            queue.push(flood, "flood", now);
        }
        queue.push(small, "small", now);
        // The single-document tenant dispatches within a couple of slots,
        // not behind the 100-document backlog.
        let order = drain_order(&mut queue);
        let position = order.iter().position(|&j| j == "small").unwrap();
        assert!(position <= 2, "small tenant waited {position} slots");
        assert_eq!(order.len(), 101);
    }

    #[test]
    fn weights_buy_proportional_dispatch_share() {
        let now = Instant::now();
        let mut queue = TenantRunQueue::new();
        let heavy = TenantId::new(1);
        let light = TenantId::new(2);
        queue.set_policy(heavy, TenantPolicy::weighted(3), now);
        for _ in 0..90 {
            queue.push(heavy, "heavy", now);
            queue.push(light, "light", now);
        }
        // While both stay backlogged, the first 40 dispatches should split
        // roughly 3:1.
        let first: Vec<_> = (0..40).map(|_| queue.pop_fair().unwrap()).collect();
        let heavy_share = first.iter().filter(|&&j| j == "heavy").count();
        assert!(
            (28..=32).contains(&heavy_share),
            "weight-3 tenant got {heavy_share}/40 dispatch slots"
        );
    }

    #[test]
    fn idling_banks_no_credit() {
        let now = Instant::now();
        let mut queue = TenantRunQueue::new();
        let active = TenantId::new(1);
        let sleeper = TenantId::new(2);
        // The active tenant dispatches 1000 jobs while the sleeper idles.
        for _ in 0..1000 {
            queue.push(active, "active", now);
        }
        for _ in 0..1000 {
            queue.pop_fair().unwrap();
        }
        // When the sleeper finally shows up with a burst, it starts from
        // the global pass: the two tenants now alternate instead of the
        // sleeper draining its whole burst first.
        for _ in 0..10 {
            queue.push(active, "active", now);
            queue.push(sleeper, "sleeper", now);
        }
        let first_six: Vec<_> = (0..6).map(|_| queue.pop_fair().unwrap()).collect();
        assert!(
            first_six.iter().filter(|&&j| j == "sleeper").count() <= 4,
            "sleeper monopolised the queue after idling: {first_six:?}"
        );
    }

    #[test]
    fn charge_is_all_or_nothing_across_the_batch() {
        let now = Instant::now();
        let mut queue: TenantRunQueue<&str> = TenantRunQueue::new();
        let limited = TenantId::new(1);
        let free = TenantId::new(2);
        queue.set_policy(
            limited,
            TenantPolicy::default().with_quota(QuotaConfig::new(2, 0.0)),
            now,
        );
        // Batch needs 3 tokens from a 2-token bucket: refused, and the
        // unlimited tenant is not charged either (nothing to observe — but
        // the limited bucket keeps both its tokens).
        let err = queue
            .charge(&[(free, 5), (limited, 3)], now)
            .expect_err("over-quota batch admitted");
        assert!(matches!(
            err,
            SchedulerError::QuotaExceeded { tenant, retry_after_ms }
                if tenant == limited && retry_after_ms == u64::MAX
        ));
        // The 2 tokens survived the refusal: a batch that fits succeeds.
        queue.charge(&[(limited, 2)], now).expect("within quota");
        let err = queue.charge(&[(limited, 1)], now).expect_err("exhausted");
        assert!(matches!(err, SchedulerError::QuotaExceeded { .. }));
        let rows = queue.admission_rows();
        let row = rows.iter().find(|r| r.tenant == limited).unwrap();
        assert_eq!(row.quota_refusals, 4);
    }

    #[test]
    fn token_bucket_refills_from_elapsed_time() {
        let start = Instant::now();
        let mut bucket = TokenBucket::new(QuotaConfig::new(4, 10.0), start);
        bucket.tokens = 0.0;
        bucket.refill(start + Duration::from_millis(250));
        assert!((bucket.tokens - 2.5).abs() < 1e-9);
        // Refill saturates at the burst capacity.
        bucket.refill(start + Duration::from_secs(60));
        assert!((bucket.tokens - 4.0).abs() < 1e-9);
        // A stale `now` (earlier than `last`) is a no-op, not a panic.
        bucket.refill(start);
        assert!((bucket.tokens - 4.0).abs() < 1e-9);
        assert_eq!(bucket.retry_after_ms(5.0), 500);
    }

    #[test]
    fn latency_stats_percentiles_are_ordered_and_capped() {
        let mut stats = LatencyStats::default();
        for micros in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 5_000] {
            stats.record(Duration::from_micros(micros), true);
        }
        stats.record(Duration::from_micros(100), false);
        let snapshot = TenantStatsSnapshot::merge(
            TenantAdmissionRow {
                tenant: TenantId::DEFAULT,
                weight: 1,
                submitted: 11,
                quota_refusals: 0,
            },
            Some(&stats),
        );
        assert_eq!(snapshot.completed, 11);
        assert_eq!(snapshot.ok, 10);
        assert_eq!(snapshot.failed, 1);
        assert!(snapshot.mean_latency_ms > 0.0);
        assert!(snapshot.mean_latency_ms <= snapshot.p99_latency_ms);
        assert!(snapshot.p99_latency_ms <= snapshot.max_latency_ms + 1e-9);
        assert!((snapshot.max_latency_ms - 5.0).abs() < 0.5);
    }

    #[test]
    fn empty_queue_and_unknown_tenants_are_harmless() {
        let now = Instant::now();
        let mut queue: TenantRunQueue<&str> = TenantRunQueue::new();
        assert_eq!(queue.pop_fair(), None);
        assert_eq!(queue.len(), 0);
        // Charging a never-seen tenant with no default quota succeeds and
        // creates its stats row.
        queue.charge(&[(TenantId::new(9), 3)], now).unwrap();
        assert_eq!(queue.admission_rows().len(), 1);
    }
}
