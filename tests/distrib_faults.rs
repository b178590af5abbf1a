//! Fault-tolerance coverage for the distributed store: scripted host kills
//! mid-run never break replicated reads, the repair queue restores the
//! replication factor after a loss, a full partition surfaces as a typed
//! error carrying the per-replica attempt trace, and no single-host loss
//! can lose an RF ≥ 2 block.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cmif::distrib::network::{Link, Network};
use cmif::distrib::store::DistributedStore;
use cmif::distrib::{DistribError, FaultPlan, HealthState, RepairWorker, RetryPolicy};
use cmif::media::MediaGenerator;
use cmif::news::evening_news;

use proptest::prelude::*;

fn audio_block(
    key: &str,
    seed: u64,
) -> (
    cmif::media::MediaBlock,
    cmif::core::descriptor::DataDescriptor,
) {
    let block = MediaGenerator::new(seed).audio(key, 4_000, 8_000);
    let descriptor = block.describe();
    (block, descriptor)
}

/// An RF-2 LAN cluster with `blocks` audio blocks put via host `a`.
fn replicated_cluster(hosts: &[&str], blocks: usize) -> DistributedStore {
    let store = DistributedStore::with_replication(Network::uniform(hosts, Link::lan()), 2)
        .expect("cluster large enough for RF 2");
    for i in 0..blocks {
        let (block, descriptor) = audio_block(&format!("clip-{i:02}"), 7 + i as u64);
        store.put_block(hosts[0], block, descriptor).unwrap();
    }
    store
}

#[test]
fn a_scripted_host_kill_mid_run_never_breaks_replicated_reads() {
    let hosts = ["a", "b", "c", "d"];
    // Kill the origin after the third transfer: replication already copied
    // every block somewhere else, so all later fetches must be served by
    // the surviving replicas.
    let store =
        replicated_cluster(&hosts, 6).with_fault_plan(FaultPlan::seeded(41).kill_host_at(3, "a"));
    for i in 0..6 {
        let key = format!("clip-{i:02}");
        for dest in ["b", "c", "d"] {
            store
                .fetch_block(dest, &key)
                .unwrap_or_else(|e| panic!("fetch of `{key}` to `{dest}` failed: {e}"));
        }
    }
    assert_eq!(store.health_of("a").unwrap(), HealthState::Down);
    assert!(store
        .health_log()
        .iter()
        .any(|t| t.host == "a" && t.to == HealthState::Down && t.cause == "fault-kill"));
}

#[test]
fn repair_restores_the_replication_factor_after_a_host_loss() {
    let hosts = ["a", "b", "c", "d"];
    let store = replicated_cluster(&hosts, 8);
    store.mark_down("a").unwrap();
    assert!(store.pending_repairs() > 0, "loss must enqueue repairs");

    let before = store.traffic();
    let report = store.repair_all();
    assert!(report.is_clean(), "report: {report:?}");
    assert!(report.lost.is_empty());
    assert!(!report.actions.is_empty());
    assert!(report.bytes_copied > 0);
    assert_eq!(store.pending_repairs(), 0);

    // Repair traffic is real traffic, charged per link, and none of it
    // touches the down host.
    let after = store.traffic();
    assert!(after.media_bytes > before.media_bytes);
    assert!(report
        .actions
        .iter()
        .all(|action| action.from != "a" && action.to != "a"));

    // Every block is back to two *serviceable* replicas.
    for i in 0..8 {
        let key = format!("clip-{i:02}");
        let live = store
            .replicas_of(&key)
            .into_iter()
            .filter(|h| store.health_of(h).unwrap() == HealthState::Up)
            .count();
        assert!(live >= 2, "block `{key}` has {live} live replicas");
    }
}

#[test]
fn a_full_partition_surfaces_as_partitioned_with_an_attempt_trace() {
    let hosts = ["a", "b", "c", "d"];
    let store = replicated_cluster(&hosts, 2);
    // Cut a non-holder off from the rest of the cluster: no replica of
    // anything is reachable from its side of the split.
    let holders = store.replicas_of("clip-00");
    let isolated = *hosts
        .iter()
        .find(|h| !holders.contains(&h.to_string()))
        .unwrap();
    let majority: Vec<&str> = hosts.iter().copied().filter(|h| *h != isolated).collect();
    let store = store.with_fault_plan(FaultPlan::seeded(5).partition(&majority, &[isolated]));
    let err = store.fetch_block(isolated, "clip-00").unwrap_err();
    match err {
        DistribError::Partitioned { to, key, attempts } => {
            assert_eq!(to, isolated);
            assert_eq!(key, "clip-00");
            assert!(!attempts.is_empty(), "trace must list the replicas tried");
            for attempt in &attempts {
                assert!(
                    matches!(
                        *attempt.error,
                        DistribError::TransferPartitioned { .. } | DistribError::HostDown { .. }
                    ),
                    "unexpected attempt error: {}",
                    attempt.error
                );
            }
        }
        other => panic!("expected Partitioned, got: {other}"),
    }
}

#[test]
fn total_transfer_loss_exhausts_retries_and_charges_failed_traffic() {
    let hosts = ["a", "b", "c"];
    let store = replicated_cluster(&hosts, 1)
        .with_fault_plan(FaultPlan::seeded(11).fail_transfers(1.0))
        .with_retry_policy(RetryPolicy::with_attempts(3));
    // Forget the setup traffic so the counters below are the fetch's own.
    store.reset_traffic();
    let holders = store.replicas_of("clip-00");
    let reader = *hosts
        .iter()
        .find(|h| !holders.contains(&h.to_string()))
        .unwrap();
    let err = store.fetch_block(reader, "clip-00").unwrap_err();
    match err {
        DistribError::RetriesExhausted { attempts, .. } => {
            assert_eq!(attempts.len(), 3, "the whole retry budget was spent");
        }
        other => panic!("expected RetriesExhausted, got: {other}"),
    }
    let traffic = store.traffic();
    assert_eq!(traffic.failed_transfers, 3);
    assert!(traffic.failed_bytes > 0);
    assert_eq!(
        traffic.media_bytes, 0,
        "failed transfers must not count as delivered media"
    );
}

#[test]
fn a_degraded_fetch_recovers_via_a_surviving_replica() {
    let hosts = ["a", "b", "c", "d"];
    let store = replicated_cluster(&hosts, 1);
    // Both holders of clip-00 are known; cut the first-ranked source's
    // link once so the fetch has to walk to the next replica.
    let holders = store.replicas_of("clip-00");
    assert_eq!(holders.len(), 2);
    let dest = hosts
        .iter()
        .find(|h| !holders.contains(&h.to_string()))
        .unwrap();
    let mut plan = FaultPlan::seeded(23);
    for holder in &holders {
        plan = plan.fail_link(holder.clone(), *dest, 1);
    }
    let store = store.with_fault_plan(plan);
    let report = store.fetch_block(dest, "clip-00").unwrap();
    assert_eq!(report.degraded, 1, "the fetch had to walk past a failure");
    assert!(report.retries >= 1);
    assert!(store.local_store(dest).unwrap().contains("clip-00"));
    assert_eq!(store.traffic().failed_transfers, u64::from(report.retries));
}

#[test]
fn observed_transfer_failures_drive_the_health_machine() {
    // Every transfer dies; replica copies of each publish blame the
    // receiving host, so repeated publishes walk `b` Up → Suspect → Down.
    let store = DistributedStore::with_replication(Network::uniform(&["a", "b"], Link::lan()), 2)
        .unwrap()
        .with_fault_plan(FaultPlan::seeded(2).fail_transfers(1.0));
    let doc = evening_news().unwrap();
    // A lost replica copy does not fail the publish — the origin holds the
    // document and repair owes the copy.
    for i in 0..4 {
        store
            .publish_document("a", &format!("bulletin-{i}"), &doc)
            .unwrap();
    }
    assert_eq!(store.health_of("b").unwrap(), HealthState::Down);
    let log = store.health_log();
    assert!(log
        .iter()
        .any(|t| t.host == "b" && t.to == HealthState::Suspect && t.cause == "observed-failure"));
    assert!(log
        .iter()
        .any(|t| t.host == "b" && t.to == HealthState::Down && t.cause == "observed-failure"));
    assert!(
        store.pending_repairs() > 0,
        "lost replica copies owe repairs"
    );
}

#[test]
fn document_fetches_walk_replicas_like_block_fetches() {
    let hosts = ["a", "b", "c", "d"];
    let store = replicated_cluster(&hosts, 0);
    let doc = evening_news().unwrap();
    store.publish_document("a", "news", &doc).unwrap();
    store.mark_down("a").unwrap();
    // Some host that never saw the publish can still open it: the fetch
    // walks to the surviving replica.
    let reader = hosts
        .iter()
        .find(|h| {
            store.health_of(h).unwrap() == HealthState::Up
                && !store.documents_on(h).unwrap().contains(&"news".to_string())
        })
        .expect("a host without the document");
    let fetched = store.fetch_document(reader, "news").unwrap();
    assert_eq!(fetched.node_count(), doc.node_count());
    // And it is now cached locally: a second open costs nothing.
    let transfers = store.traffic().transfers;
    store.fetch_document(reader, "news").unwrap();
    assert_eq!(store.traffic().transfers, transfers);
}

#[test]
fn a_background_repair_worker_drains_the_queue() {
    let hosts = ["a", "b", "c", "d"];
    let store = Arc::new(replicated_cluster(&hosts, 4));
    let worker = RepairWorker::spawn(Arc::clone(&store));
    store.mark_down("a").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while store.pending_repairs() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    worker.stop();
    assert_eq!(store.pending_repairs(), 0, "worker never drained the queue");
    for i in 0..4 {
        let key = format!("clip-{i:02}");
        let live = store
            .replicas_of(&key)
            .into_iter()
            .filter(|h| store.health_of(h).unwrap() == HealthState::Up)
            .count();
        assert!(live >= 2, "block `{key}` has {live} live replicas");
    }
}

#[test]
fn decommission_removes_the_host_from_placement_and_ring() {
    let hosts = ["a", "b", "c", "d"];
    let store = replicated_cluster(&hosts, 6);
    store.decommission("a").unwrap();
    assert_eq!(store.health_of("a").unwrap(), HealthState::Decommissioned);
    // New puts never land on the decommissioned host, old blocks no longer
    // name it as a replica, and repair restores the factor elsewhere.
    store.repair_all();
    for i in 0..6 {
        let key = format!("clip-{i:02}");
        let replicas = store.replicas_of(&key);
        assert!(!replicas.contains(&"a".to_string()), "`{key}` still on a");
        assert!(
            replicas.len() >= 2,
            "`{key}` under-replicated: {replicas:?}"
        );
    }
    let (block, descriptor) = audio_block("fresh", 99);
    store.put_block("b", block, descriptor).unwrap();
    assert!(!store.replicas_of("fresh").contains(&"a".to_string()));
    // A decommissioned host cannot come back with `mark_up`.
    assert!(store.mark_up("a").is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With RF 2, losing any single host loses no block: every block stays
    /// fetchable by every surviving host, and a repair pass restores two
    /// live replicas everywhere.
    #[test]
    fn any_single_host_loss_never_loses_a_replicated_block(
        cluster_size in 3usize..6,
        victim in 0usize..6,
        blocks in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let names: Vec<String> = (0..cluster_size).map(|i| format!("node-{i}")).collect();
        let hosts: Vec<&str> = names.iter().map(String::as_str).collect();
        let victim = &names[victim % cluster_size];
        let store = DistributedStore::with_replication(
            Network::uniform(&hosts, Link::lan()),
            2,
        ).unwrap();
        for i in 0..blocks {
            let (block, descriptor) = audio_block(&format!("clip-{i:02}"), seed + i as u64);
            store.put_block(hosts[i % cluster_size], block, descriptor).unwrap();
        }
        store.mark_down(victim).unwrap();
        for i in 0..blocks {
            let key = format!("clip-{i:02}");
            for reader in names.iter().filter(|h| *h != victim) {
                prop_assert!(
                    store.fetch_block(reader, &key).is_ok(),
                    "block `{key}` unreadable from `{reader}` after losing `{victim}`"
                );
            }
        }
        let report = store.repair_all();
        prop_assert!(report.lost.is_empty(), "lost: {:?}", report.lost);
        for i in 0..blocks {
            let key = format!("clip-{i:02}");
            let live = store
                .replicas_of(&key)
                .into_iter()
                .filter(|h| h != victim)
                .count();
            prop_assert!(live >= 2, "block `{key}` has {live} live replicas");
        }
    }
}
