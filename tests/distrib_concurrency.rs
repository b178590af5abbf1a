//! Concurrency coverage for the sharded distributed store: raced fetches
//! charge exactly one transfer, concurrent publishers on distinct hosts
//! keep per-link accounting exact, and the consistent-hash placement stays
//! stable as the cluster grows.

use std::sync::{Arc, Barrier};
use std::thread;

use cmif::distrib::network::{Link, Network};
use cmif::distrib::placement::PlacementRing;
use cmif::distrib::store::DistributedStore;
use cmif::media::MediaGenerator;
use cmif::news::evening_news;

fn audio_block(
    key: &str,
) -> (
    cmif::media::MediaBlock,
    cmif::core::descriptor::DataDescriptor,
) {
    let block = MediaGenerator::new(7).audio(key, 4_000, 8_000);
    let descriptor = block.describe();
    (block, descriptor)
}

#[test]
fn racing_fetches_of_one_block_charge_exactly_one_transfer() {
    let store = Arc::new(DistributedStore::new(Network::uniform(
        &["server", "desk", "laptop"],
        Link::lan(),
    )));
    let (block, descriptor) = audio_block("speech");
    let bytes = block.payload.size_bytes();
    store.put_block("server", block, descriptor).unwrap();

    let threads = 8;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                store.fetch_block("desk", "speech").unwrap().simulated_ms
            })
        })
        .collect();
    let costs: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // One racer performed (and was charged for) the transfer; the rest
    // waited on the reservation and found the block local.
    assert_eq!(costs.iter().filter(|&&c| c > 0).count(), 1);
    let traffic = store.traffic();
    assert_eq!(
        traffic.transfers, 1,
        "a raced block must charge one transfer"
    );
    assert_eq!(traffic.media_bytes, bytes);
    assert_eq!(traffic.link("server", "desk").transfers, 1);
    assert_eq!(store.local_blocks("desk").unwrap(), vec!["speech"]);
}

#[test]
fn racing_fetches_of_one_document_charge_exactly_one_transfer() {
    // Documents take the same in-flight reservation as blocks: however the
    // racers interleave, one of them moves the wire bytes and the others
    // find the document local. Enough rounds that a fetch without the
    // reservation would double-charge in some of them.
    const ROUNDS: usize = 200;
    const THREADS: usize = 8;
    let store = Arc::new(DistributedStore::new(Network::uniform(
        &["server", "desk", "laptop"],
        Link::lan(),
    )));
    let doc = evening_news().unwrap();
    let names: Vec<String> = (0..ROUNDS)
        .map(|round| format!("bulletin-{round:03}"))
        .collect();
    let mut size = 0;
    for name in &names {
        size = store.publish_document("server", name, &doc).unwrap() as u64;
    }
    store.reset_traffic();

    let start = Arc::new(Barrier::new(THREADS + 1));
    let done = Arc::new(Barrier::new(THREADS + 1));
    let racers: Vec<_> = (0..THREADS)
        .map(|_| {
            let store = Arc::clone(&store);
            let (start, done) = (Arc::clone(&start), Arc::clone(&done));
            let names = names.clone();
            // Outcomes are collected, not asserted, so a failing fetch
            // cannot strand the other racers at a barrier.
            thread::spawn(move || {
                let mut nodes = Vec::new();
                for name in &names {
                    start.wait();
                    nodes.push(store.fetch_document("desk", name).map(|d| d.node_count()));
                    done.wait();
                }
                nodes
            })
        })
        .collect();
    let mut double_charged = Vec::new();
    for name in &names {
        let before = store.traffic();
        start.wait();
        done.wait();
        let after = store.traffic();
        let transfers = after.transfers - before.transfers;
        let bytes = after.structure_bytes - before.structure_bytes;
        if transfers != 1 || bytes != size {
            double_charged.push((name.clone(), transfers, bytes));
        }
    }
    for racer in racers {
        for nodes in racer.join().unwrap() {
            assert_eq!(nodes.unwrap(), doc.node_count());
        }
    }
    assert!(
        double_charged.is_empty(),
        "rounds charged other than one {size}-byte transfer: {double_charged:?}"
    );
    assert_eq!(
        store.traffic().link("server", "desk").transfers,
        ROUNDS as u64
    );
}

#[test]
fn repeated_fetch_races_never_double_charge() {
    let store = Arc::new(DistributedStore::new(Network::uniform(
        &["server", "desk"],
        Link::lan(),
    )));
    let keys: Vec<String> = (0..16).map(|i| format!("clip-{i:02}")).collect();
    for key in &keys {
        let (block, descriptor) = audio_block(key);
        store.put_block("server", block, descriptor).unwrap();
    }
    for key in &keys {
        let barrier = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                let barrier = Arc::clone(&barrier);
                let key = key.clone();
                thread::spawn(move || {
                    barrier.wait();
                    store.fetch_block("desk", &key).unwrap();
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    }
    let traffic = store.traffic();
    assert_eq!(traffic.transfers, keys.len() as u64);
    assert_eq!(traffic.link("server", "desk").transfers, keys.len() as u64);
}

#[test]
fn every_host_fetching_the_same_block_charges_once_per_destination() {
    let hosts = ["server", "d0", "d1", "d2", "d3", "d4"];
    let store = Arc::new(DistributedStore::new(Network::uniform(&hosts, Link::lan())));
    let (block, descriptor) = audio_block("anthem");
    let bytes = block.payload.size_bytes();
    store.put_block("server", block, descriptor).unwrap();

    let destinations: Vec<&str> = hosts[1..].to_vec();
    let barrier = Arc::new(Barrier::new(destinations.len()));
    let handles: Vec<_> = destinations
        .iter()
        .map(|dest| {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            let dest = dest.to_string();
            thread::spawn(move || {
                barrier.wait();
                store.fetch_block(&dest, "anthem").unwrap();
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let traffic = store.traffic();
    assert_eq!(traffic.transfers, destinations.len() as u64);
    assert_eq!(traffic.media_bytes, bytes * destinations.len() as u64);
    // Sources may be any replica that existed at fetch time, but each
    // destination received the payload exactly once.
    for dest in &destinations {
        let inbound: u64 = traffic
            .per_link()
            .filter(|(_, to, _)| to == dest)
            .map(|(_, _, link)| link.transfers)
            .sum();
        assert_eq!(inbound, 1, "host {dest} was charged {inbound} transfers");
    }
    assert_eq!(store.replicas_of("anthem").len(), hosts.len());
}

#[test]
fn concurrent_publishers_on_distinct_hosts_account_links_exactly() {
    let network = Network::uniform(&["a", "b", "c", "d"], Link::lan());
    let store = Arc::new(DistributedStore::with_replication(network, 2).unwrap());
    let doc = evening_news().unwrap();
    let docs_per_host = 10;

    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = ["a", "b", "c", "d"]
        .into_iter()
        .map(|origin| {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            let doc = doc.clone();
            thread::spawn(move || {
                barrier.wait();
                let mut published = 0u64;
                for i in 0..docs_per_host {
                    published += store
                        .publish_document(origin, &format!("{origin}-doc-{i}"), &doc)
                        .unwrap() as u64;
                }
                (origin, published)
            })
        })
        .collect();
    let results: Vec<(&str, u64)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let traffic = store.traffic();
    // Replication factor 2: every publish moved the structure exactly once.
    assert_eq!(traffic.transfers, 4 * docs_per_host as u64);
    let total_published: u64 = results.iter().map(|(_, bytes)| bytes).sum();
    assert_eq!(traffic.structure_bytes, total_published);
    assert_eq!(traffic.media_bytes, 0);
    // Per-link accounting is exact per origin: each origin's outbound
    // transfers equal its own publishes, with no self-links and no
    // cross-origin bleed under concurrency.
    for (origin, published) in &results {
        let outbound: u64 = traffic
            .per_link()
            .filter(|(from, _, _)| from == origin)
            .map(|(_, _, link)| link.transfers)
            .sum();
        assert_eq!(outbound, docs_per_host as u64);
        let outbound_bytes: u64 = traffic
            .per_link()
            .filter(|(from, _, _)| from == origin)
            .map(|(_, _, link)| link.structure_bytes)
            .sum();
        assert_eq!(outbound_bytes, *published);
    }
    assert!(traffic.per_link().all(|(from, to, _)| from != to));
}

#[test]
fn consistent_hash_placement_is_stable_as_the_cluster_grows() {
    let hosts: Vec<String> = (0..4).map(|i| format!("node-{i}")).collect();
    let grown: Vec<String> = (0..5).map(|i| format!("node-{i}")).collect();
    let before = PlacementRing::new(&hosts);
    let after = PlacementRing::new(&grown);

    let keys = 1_000;
    let mut moved = 0;
    for i in 0..keys {
        let key = format!("block-{i}");
        let old = before.primary(&key).unwrap();
        let new = after.primary(&key).unwrap();
        if old != new {
            moved += 1;
            assert_eq!(
                new, "node-4",
                "key `{key}` moved between pre-existing hosts"
            );
        }
    }
    // ~1/5 of keys should move to the new host; far from a full reshuffle.
    assert!(moved > keys / 20, "implausibly few keys moved: {moved}");
    assert!(moved < 2 * keys / 5, "too many keys moved: {moved}");
}

#[test]
fn consistent_hash_placement_is_stable_as_the_cluster_shrinks() {
    // The inverse of the growth test: removing one of five hosts must move
    // only the departed host's keys, each landing on a surviving host.
    let hosts: Vec<String> = (0..5).map(|i| format!("node-{i}")).collect();
    let before = PlacementRing::new(&hosts);
    let mut after = PlacementRing::new(&hosts);
    assert!(after.remove_host("node-2"));
    assert!(!after.contains("node-2"));

    let keys = 1_000;
    let mut moved = 0;
    for i in 0..keys {
        let key = format!("block-{i}");
        let old = before.primary(&key).unwrap();
        let new = after.primary(&key).unwrap();
        assert_ne!(new, "node-2", "key `{key}` routed to the removed host");
        if old != new {
            moved += 1;
            assert_eq!(
                old, "node-2",
                "key `{key}` moved despite its host surviving"
            );
        }
    }
    // ~1/5 of keys lived on the removed host; far from a full reshuffle.
    assert!(moved > keys / 20, "implausibly few keys moved: {moved}");
    assert!(moved < 2 * keys / 5, "too many keys moved: {moved}");
}
