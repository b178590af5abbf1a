//! Per-worker sharded run deques with work stealing.
//!
//! The engine's old run queue was a single `Mutex<VecDeque>` that every
//! submitter *and* every worker hit for every job — the central resource
//! became the serialization point exactly as the worker count grew. The
//! sharded layout splits the two planes:
//!
//! * submitters touch only the shared tenant plane (one lock, amortised
//!   further by `submit_batch`);
//! * workers run out of their *own* shard (`pop_own`, uncontended in the
//!   common case), refill a small batch from the tenant plane only when
//!   their shard runs dry, and **steal** from a sibling's shard when the
//!   plane is empty too — so parked work never waits for the worker that
//!   happened to refill it.
//!
//! Thieves take from the *back* of a victim's deque while the owner pops
//! the front, which keeps the two ends from colliding and preserves the
//! victim's FIFO order for the jobs it keeps. One job moves per steal: a
//! stolen job is executed immediately by the thief, so work in transit is
//! never parked anywhere a sleeping worker would need to be woken for.
//!
//! A caller blocked in `Engine::wait` or `Engine::drain` takes work the
//! way an out-of-work worker does, but owns no shard: it parks the extras
//! of its refills in the emptiest shard, and once the tenant plane is
//! empty it takes the back of any shard, the way a thief does.
//!
//! Every transfer is counted ([`QueueStats`]): the `ext_engine` bench
//! prints the local/refill/steal/helped split so a run shows *where* jobs
//! came from, not just how fast they went.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// How jobs reached the threads that played them: one counter per
/// acquisition path, plus the number of plane→shard refill transactions.
/// Snapshot via `Engine::queue_stats`; all counters are cumulative since
/// engine start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Jobs a worker popped from its own shard (the contention-free path).
    pub local_pops: u64,
    /// Jobs taken straight off the shared tenant plane by a refilling
    /// worker (the first job of every refill batch).
    pub direct_pops: u64,
    /// Jobs moved from the tenant plane into a worker's shard by refill
    /// batches (each is counted again where it is taken out: `local_pops`,
    /// `steals` or `helped`).
    pub refilled: u64,
    /// Plane→shard refill transactions: each moves `direct + refilled`
    /// jobs under one plane-lock acquisition. A worker refills when its
    /// shard runs dry; a waiting caller's plane take counts as one only
    /// when it parked extras.
    pub refills: u64,
    /// Jobs stolen from a sibling worker's shard.
    pub steals: u64,
    /// Jobs a caller waiting in `Engine::wait` or `Engine::drain` took
    /// off the tenant plane or a shard and played on its own thread.
    pub helped: u64,
}

impl QueueStats {
    /// Total jobs dispatched so far, to workers and to waiting callers.
    pub fn dispatched(&self) -> u64 {
        self.local_pops + self.direct_pops + self.steals + self.helped
    }

    /// Fraction of dispatched jobs that arrived by stealing — the
    /// imbalance indicator the bench banner prints. Zero when nothing ran.
    pub fn steal_ratio(&self) -> f64 {
        let dispatched = self.dispatched();
        if dispatched == 0 {
            return 0.0;
        }
        self.steals as f64 / dispatched as f64
    }
}

struct Shard<T> {
    jobs: Mutex<VecDeque<T>>,
    /// Mirror of `jobs.len()`, readable without the shard lock: the
    /// admission path sums these against `max_backlog`, and idle workers
    /// scan them to decide between stealing and sleeping.
    len: AtomicUsize,
}

/// One deque per worker plus the transfer counters.
///
/// Every pop takes a counter (`in_flight` for a worker, `helping` for a
/// waiting caller) and raises it *before* the job's shard length visibly
/// drops, so an `Engine::drain` that observes the queue empty still sees
/// the job counted (SeqCst on both sides makes the orders compose).
///
/// Lock ordering: a shard lock may be taken *while holding* the engine's
/// plane lock (refill pushes extras under it), but never the other way
/// around; at most one shard lock is ever held at a time.
pub(super) struct WorkerShards<T> {
    shards: Vec<Shard<T>>,
    local_pops: AtomicU64,
    direct_pops: AtomicU64,
    refilled: AtomicU64,
    refills: AtomicU64,
    steals: AtomicU64,
    helped: AtomicU64,
}

impl<T> WorkerShards<T> {
    pub(super) fn new(workers: usize) -> WorkerShards<T> {
        WorkerShards {
            shards: (0..workers)
                .map(|_| Shard {
                    jobs: Mutex::new(VecDeque::new()),
                    len: AtomicUsize::new(0),
                })
                .collect(),
            local_pops: AtomicU64::new(0),
            direct_pops: AtomicU64::new(0),
            refilled: AtomicU64::new(0),
            refills: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            helped: AtomicU64::new(0),
        }
    }

    /// Total jobs parked across all shards. Monotonic-consistent, not a
    /// snapshot: concurrent pops can make the sum stale by the time it is
    /// read, which only ever causes an extra scan or a spurious capacity
    /// check — never lost work (pushes happen under the plane lock, so a
    /// sleeping worker deciding under that lock cannot miss one).
    pub(super) fn parked(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.len.load(Ordering::SeqCst))
            .sum()
    }

    /// Pops the front of `me`'s own shard, counting it in `taken` first.
    pub(super) fn pop_own(&self, me: usize, taken: &AtomicUsize) -> Option<T> {
        let shard = &self.shards[me];
        let mut jobs = shard.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        if jobs.is_empty() {
            return None;
        }
        taken.fetch_add(1, Ordering::SeqCst);
        let job = jobs.pop_front();
        shard.len.fetch_sub(1, Ordering::SeqCst);
        self.local_pops.fetch_add(1, Ordering::Relaxed);
        job
    }

    /// Parks refill-batch extras at the back of `me`'s own shard. Must be
    /// called while holding the plane lock, so sleeping workers (who check
    /// for parked work under that lock) cannot miss the new jobs.
    pub(super) fn park_own(&self, me: usize, extras: Vec<T>) {
        if extras.is_empty() {
            return;
        }
        let shard = &self.shards[me];
        let mut jobs = shard.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        shard.len.fetch_add(extras.len(), Ordering::SeqCst);
        self.refilled
            .fetch_add(extras.len() as u64, Ordering::Relaxed);
        jobs.extend(extras);
    }

    /// Records one refill transaction taking `first_jobs` jobs directly.
    pub(super) fn note_refill(&self, direct: u64) {
        self.refills.fetch_add(1, Ordering::Relaxed);
        self.direct_pops.fetch_add(direct, Ordering::Relaxed);
    }

    /// The shard with the fewest parked jobs, if there is any shard: where
    /// a waiting caller, which owns none, parks the extras of its refills.
    pub(super) fn emptiest(&self) -> Option<usize> {
        (0..self.shards.len()).min_by_key(|&index| self.shards[index].len.load(Ordering::SeqCst))
    }

    /// Records one job a waiting caller took off the tenant plane.
    pub(super) fn note_helped(&self) {
        self.helped.fetch_add(1, Ordering::Relaxed);
    }

    /// Steals one job from the back of a sibling's shard, scanning victims
    /// round-robin from `me + 1` and counting it in `taken` first. Returns
    /// `None` when every sibling came up empty (the caller re-checks the
    /// plane and may sleep).
    pub(super) fn steal(&self, me: usize, taken: &AtomicUsize) -> Option<T> {
        self.take_back(me + 1, self.shards.len() - 1, taken, &self.steals)
    }

    /// [`WorkerShards::steal`] for a waiting caller, which owns no shard
    /// and so scans them all.
    pub(super) fn help(&self, taken: &AtomicUsize) -> Option<T> {
        self.take_back(0, self.shards.len(), taken, &self.helped)
    }

    /// Takes the back job of the first nonempty shard among `victims`
    /// shards from `start`, counting it in `taken` and then in `count`.
    fn take_back(
        &self,
        start: usize,
        victims: usize,
        taken: &AtomicUsize,
        count: &AtomicU64,
    ) -> Option<T> {
        let workers = self.shards.len();
        for offset in 0..victims {
            let victim = &self.shards[(start + offset) % workers];
            if victim.len.load(Ordering::SeqCst) == 0 {
                continue;
            }
            let mut jobs = victim.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            if jobs.is_empty() {
                continue;
            }
            taken.fetch_add(1, Ordering::SeqCst);
            let job = jobs.pop_back();
            victim.len.fetch_sub(1, Ordering::SeqCst);
            count.fetch_add(1, Ordering::Relaxed);
            return job;
        }
        None
    }

    /// Cumulative transfer counters.
    pub(super) fn stats(&self) -> QueueStats {
        QueueStats {
            local_pops: self.local_pops.load(Ordering::Relaxed),
            direct_pops: self.direct_pops.load(Ordering::Relaxed),
            refilled: self.refilled.load(Ordering::Relaxed),
            refills: self.refills.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            helped: self.helped.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_pops_are_fifo_and_counted() {
        let shards: WorkerShards<u32> = WorkerShards::new(2);
        let in_flight = AtomicUsize::new(0);
        shards.park_own(0, vec![1, 2, 3]);
        assert_eq!(shards.parked(), 3);
        assert_eq!(shards.pop_own(0, &in_flight), Some(1));
        assert_eq!(shards.pop_own(0, &in_flight), Some(2));
        assert_eq!(in_flight.load(Ordering::SeqCst), 2);
        assert_eq!(shards.parked(), 1);
        assert_eq!(shards.stats().local_pops, 2);
    }

    #[test]
    fn stealing_takes_from_the_back_of_a_sibling() {
        let shards: WorkerShards<u32> = WorkerShards::new(3);
        let in_flight = AtomicUsize::new(0);
        shards.park_own(1, vec![10, 11, 12]);
        // Worker 2 steals the newest parked job; worker 1's FIFO head is
        // untouched.
        assert_eq!(shards.steal(2, &in_flight), Some(12));
        assert_eq!(shards.pop_own(1, &in_flight), Some(10));
        assert_eq!(shards.stats().steals, 1);
        assert_eq!(in_flight.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn stealing_from_empty_siblings_returns_none_without_in_flight_bump() {
        let shards: WorkerShards<u32> = WorkerShards::new(4);
        let in_flight = AtomicUsize::new(0);
        assert_eq!(shards.steal(0, &in_flight), None);
        assert_eq!(in_flight.load(Ordering::SeqCst), 0);
        // A worker never steals from itself.
        shards.park_own(0, vec![7]);
        assert_eq!(shards.steal(0, &in_flight), None);
    }

    #[test]
    fn a_waiting_caller_takes_from_any_shard_and_is_counted_as_helped() {
        let shards: WorkerShards<u32> = WorkerShards::new(2);
        let helping = AtomicUsize::new(0);
        assert_eq!(shards.help(&helping), None);
        shards.park_own(0, vec![1, 2]);
        // A caller parks its refill extras where the fewest jobs wait.
        assert_eq!(shards.emptiest(), Some(1));
        // A caller owns no shard, so worker 0's own shard is fair game.
        assert_eq!(shards.help(&helping), Some(2));
        assert_eq!(helping.load(Ordering::SeqCst), 1);
        let stats = shards.stats();
        assert_eq!((stats.steals, stats.helped), (0, 1));
        assert_eq!(stats.dispatched(), 1);
        // An engine without workers has no shard to park in.
        assert_eq!(WorkerShards::<u32>::new(0).emptiest(), None);
    }

    #[test]
    fn steal_ratio_reflects_the_dispatch_split() {
        let stats = QueueStats {
            local_pops: 6,
            direct_pops: 2,
            refilled: 6,
            refills: 2,
            steals: 2,
            helped: 0,
        };
        assert_eq!(stats.dispatched(), 10);
        assert!((stats.steal_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(QueueStats::default().steal_ratio(), 0.0);
    }
}
