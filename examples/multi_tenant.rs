//! One engine, three tenants: weighted fair scheduling and admission
//! quotas over a shared worker pool.
//!
//! The paper's player serves one reader; the ROADMAP north-star is a
//! server multiplexing many. This example runs a "broadcast" tenant
//! flooding the queue, a "kiosk" tenant with triple dispatch weight, and
//! a "guest" tenant held to a 10-admission quota — all on the same
//! two-worker engine — then prints the per-tenant scoreboard
//! (`tenant_stats`) and how many jobs the workers and the waiting caller
//! each took off the run queue (`queue_stats`).
//!
//! Run with `cargo run --example multi_tenant`.

use std::sync::Arc;
use std::time::Instant;

use cmif::scheduler::{
    Engine, EngineConfig, JitterModel, QuotaConfig, SchedulerError, Submission, TenantId,
    TenantPolicy,
};
use cmif::synthetic::SyntheticNews;
use cmif::Result;

fn main() -> Result<()> {
    let doc = Arc::new(SyntheticNews::with_stories(2).build()?);
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });

    let broadcast = TenantId::new(1); // floods, default weight
    let kiosk = TenantId::new(2); // 3x dispatch share
    let guest = TenantId::new(3); // quota: 10 admissions, no refill
    engine.set_tenant_policy(kiosk, TenantPolicy::weighted(3));
    engine.set_tenant_policy(
        guest,
        TenantPolicy::default().with_quota(QuotaConfig::new(10, 0.0)),
    );

    // The broadcast tenant dumps 500 documents in one batched admission
    // (one queue transaction, contiguous ids).
    let submit = |tenant: TenantId, seed: u64| {
        Submission::new(Arc::clone(&doc), JitterModel::uniform(120, seed)).tenant(tenant)
    };
    engine.submit_batch((0..500).map(|i| submit(broadcast, i)))?;

    // The kiosk tenant submits one urgent document *behind* the flood;
    // weighted fair dispatch pulls it forward anyway.
    let urgent_started = Instant::now();
    let urgent = engine.admit(submit(kiosk, 1_000))?;
    let outcome = engine.wait(urgent);
    println!(
        "kiosk document finished in {:.1}ms with {} broadcast documents still queued ({})",
        urgent_started.elapsed().as_secs_f64() * 1e3,
        engine.backlog(),
        if outcome.is_ok() { "ok" } else { "failed" },
    );

    // The guest hammers 25 admissions against a 10-token bucket.
    let mut refusals = 0;
    for i in 0..25 {
        match engine.admit(submit(guest, 2_000 + i)) {
            Ok(_) => {}
            Err(SchedulerError::QuotaExceeded { tenant, .. }) => {
                assert_eq!(tenant, guest);
                refusals += 1;
            }
            Err(other) => return Err(other.into()),
        }
    }
    println!("guest quota refused {refusals}/25 admissions\n");

    engine.drain();
    println!("tenant        weight  submitted  refused  ok  p99 ms");
    for stats in engine.tenant_stats() {
        println!(
            "{:<13} {:<7} {:<10} {:<8} {:<3} {:.1}",
            stats.tenant.to_string(),
            stats.weight,
            stats.submitted,
            stats.quota_refusals,
            stats.ok,
            stats.p99_latency_ms,
        );
    }
    let queue = engine.queue_stats();
    println!(
        "\nqueue: {} dispatched, {} to workers, {} played by waiting callers",
        queue.dispatched(),
        queue.refills,
        queue.helped
    );
    engine.shutdown();
    Ok(())
}
