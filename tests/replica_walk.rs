//! Seeded transcripts of the distributed store's replica walk.
//!
//! Each scenario drives one cluster through publishes, degraded reads,
//! churn and repair passes, and writes a transcript of everything the
//! store reports: every call's value or error (with its per-replica
//! attempt trace), the traffic totals and per-link counters, the health
//! log, each repair report, and what every host holds. The transcripts
//! are compared byte for byte with the fixtures under
//! `tests/fixtures/replica_walk/`, so any change to which replica serves a
//! read, how a retry walk draws its backoff, what a fault plan decides, or
//! what repair copies shows up as a diff.
//!
//! Every scenario runs inside one test, one after the other, in a fixed
//! order: the placement index and the repair queue iterate in symbol
//! order, and a symbol's id depends on every name interned before it, so
//! the scenarios must not intern names concurrently (and a new scenario
//! goes at the end). Block fetches go one key per
//! `fetch_blocks_for_traced` call for the same reason. A mismatching transcript is written to
//! `$CARGO_TARGET_TMPDIR/replica_walk/<scenario>.txt` and its first
//! differing line is printed; copying that file over the fixture records
//! a deliberate change.

use std::collections::BTreeSet;
use std::fmt::{Debug, Write as _};
use std::path::PathBuf;

use cmif::core::prelude::*;
use cmif::core::Symbol;
use cmif::distrib::network::{Link, Network};
use cmif::distrib::placement::PlacementRing;
use cmif::distrib::store::DistributedStore;
use cmif::distrib::{
    DistribError, FaultPlan, HealthPolicy, RepairReport, RetryPolicy, WireEncoding,
};
use cmif::media::{MediaBlock, MediaGenerator};

/// A cluster under test plus the transcript of everything it reported.
struct Walk {
    store: DistributedStore,
    hosts: Vec<&'static str>,
    /// Every block key put so far, in put order (for `replicas_of`).
    keys: Vec<String>,
    /// How much of the health log the last checkpoint printed.
    health_seen: usize,
    out: String,
}

impl Walk {
    fn new(store: DistributedStore, hosts: &[&'static str]) -> Walk {
        Walk {
            store,
            hosts: hosts.to_vec(),
            keys: Vec::new(),
            health_seen: 0,
            out: String::new(),
        }
    }

    fn line(&mut self, text: impl AsRef<str>) {
        self.out.push_str(text.as_ref());
        self.out.push('\n');
    }

    fn record<T>(
        &mut self,
        call: String,
        result: std::result::Result<T, DistribError>,
        show: impl Fn(&T) -> String,
    ) {
        match result {
            Ok(value) => self.line(format!("{call} -> {}", show(&value))),
            Err(error) => self.line(format!("{call} -> error: {error}")),
        }
    }

    fn put(&mut self, host: &str, block: MediaBlock) {
        let key = block.key.clone();
        let descriptor = block.describe();
        let result = self.store.put_block(host, block, descriptor);
        self.record(format!("put_block({host}, {key})"), result, |ms| {
            format!("{ms} ms")
        });
        if !self.keys.contains(&key) {
            self.keys.push(key);
        }
    }

    fn publish(&mut self, host: &str, name: &str, doc: &Document) {
        let result = self.store.publish_document(host, name, doc);
        self.record(
            format!("publish_document({host}, {name})"),
            result,
            |size| format!("{size} bytes"),
        );
    }

    fn fetch_document(&mut self, to: &str, name: &str) {
        let result = self.store.fetch_document(to, name);
        self.record(
            format!("fetch_document({to}, {name})"),
            result,
            describe_doc,
        );
    }

    fn transport(&mut self, from: &str, to: &str, name: &str) {
        let result = self.store.transport_document(from, to, name);
        self.record(
            format!("transport_document({from}, {to}, {name})"),
            result,
            describe_doc,
        );
    }

    fn descriptor(&mut self, to: &str, key: &str) {
        let result = self.store.fetch_descriptor(to, key);
        self.record(format!("fetch_descriptor({to}, {key})"), result, |d| {
            format!(
                "{} {:?} size={:?} duration={:?}",
                d.key.as_str(),
                d.medium,
                d.size_bytes,
                d.duration
            )
        });
    }

    /// One block per call: a multi-key set would fetch in symbol order.
    fn fetch_block(&mut self, to: &str, key: &str) {
        let keys: BTreeSet<Symbol> = [Symbol::intern(key)].into_iter().collect();
        let result = self.store.fetch_blocks_for_traced(to, &keys);
        self.record(
            format!("fetch_blocks_for_traced({to}, [{key}])"),
            result,
            debug,
        );
    }

    fn repair(&mut self, label: &str) {
        let report = self.store.repair_all();
        self.line(format!("repair_all ({label}):"));
        self.line(render_repair(&report));
        let pending = self.store.pending_repairs();
        self.line(format!("  pending after pass: {pending}"));
    }

    fn admin(&mut self, call: &str, result: std::result::Result<(), DistribError>) {
        self.record(call.to_string(), result, |()| "ok".to_string());
    }

    /// Everything the cluster reports about itself right now.
    fn checkpoint(&mut self, label: &str) {
        let mut text = format!("== checkpoint: {label}\n");
        let traffic = self.store.traffic();
        let _ = writeln!(
            text,
            "traffic: transfers={} failed={} structure={} media={} failed_bytes={} ms={}",
            traffic.transfers,
            traffic.failed_transfers,
            traffic.structure_bytes,
            traffic.media_bytes,
            traffic.failed_bytes,
            traffic.simulated_ms
        );
        for (from, to, link) in traffic.per_link() {
            let _ = writeln!(
                text,
                "  link {from} -> {to}: transfers={} failed={} structure={} media={} failed_bytes={} ms={}",
                link.transfers,
                link.failed_transfers,
                link.structure_bytes,
                link.media_bytes,
                link.failed_bytes,
                link.simulated_ms
            );
        }
        let log = self.store.health_log();
        for transition in &log[self.health_seen..] {
            let _ = writeln!(text, "health: {transition}");
        }
        self.health_seen = log.len();
        for (host, state) in self.store.health_snapshot() {
            let _ = writeln!(text, "state {host}: {state}");
        }
        for host in self.hosts.clone() {
            let docs = self.store.documents_on(host);
            let blocks = self.store.local_blocks(host);
            let _ = writeln!(text, "host {host}: documents={docs:?} blocks={blocks:?}");
        }
        for key in &self.keys {
            let _ = writeln!(
                text,
                "replicas_of({key}) = {:?}",
                self.store.replicas_of(key)
            );
        }
        let _ = writeln!(text, "pending repairs: {}", self.store.pending_repairs());
        self.out.push_str(&text);
    }
}

fn debug<T: Debug>(value: &T) -> String {
    format!("{value:?}")
}

/// FNV-1a: a stable digest of a document's canonical text.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn describe_doc(doc: &Document) -> String {
    let text = cmif::format::write_document(doc).expect("a fetched document writes back");
    format!(
        "document: {} nodes, {} leaves, {} text bytes, digest {:016x}",
        doc.node_count(),
        doc.leaves().len(),
        text.len(),
        fnv(text.as_bytes())
    )
}

fn render_repair(report: &RepairReport) -> String {
    let mut text = String::new();
    for action in &report.actions {
        let _ = writeln!(text, "  {action}");
    }
    let list = |items: &[cmif::distrib::RepairItem]| {
        items
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(text, "  repaired: [{}]", list(&report.repaired));
    let _ = writeln!(text, "  lost: [{}]", list(&report.lost));
    let _ = writeln!(text, "  deferred: [{}]", list(&report.deferred));
    let _ = write!(
        text,
        "  bytes_copied={} simulated_ms={}",
        report.bytes_copied, report.simulated_ms
    );
    text
}

/// A story document over `keys`: one audio leaf per key after the first,
/// and the first key as a 2 s still.
fn story_doc(name: &str, keys: &[String], stories: usize) -> Document {
    let mut builder = DocumentBuilder::new(name)
        .channel("audio", MediaKind::Audio)
        .channel("graphic", MediaKind::Image)
        .channel("caption", MediaKind::Text);
    for (index, key) in keys.iter().enumerate() {
        let medium = if index == 0 {
            MediaKind::Image
        } else {
            MediaKind::Audio
        };
        let mut descriptor = DataDescriptor::new(key.as_str(), medium, "raw");
        if index > 0 {
            descriptor = descriptor.with_duration(TimeMs::from_millis(500 * index as i64));
        }
        builder = builder.descriptor(descriptor);
    }
    builder
        .root_seq(|root| {
            for story in 0..stories {
                root.par(&format!("story{story}"), |par| {
                    par.ext_with("still", "graphic", keys[0].as_str(), |n| {
                        n.duration_ms(2_000);
                    });
                    for (index, key) in keys.iter().enumerate().skip(1) {
                        par.ext(&format!("voice{index}"), "audio", key.as_str());
                    }
                    par.imm_text("line", "caption", format!("story {story} of {name}"), 1_000);
                });
            }
        })
        .build()
        .expect("story documents are valid")
}

/// The blocks a story document references.
fn story_blocks(generator: &mut MediaGenerator, keys: &[String]) -> Vec<MediaBlock> {
    keys.iter()
        .enumerate()
        .map(|(index, key)| {
            if index == 0 {
                generator.image(key, 16, 12, 8)
            } else {
                generator.audio(key, 250 * index as i64, 8_000)
            }
        })
        .collect()
}

fn keys_for(prefix: &str, count: usize) -> Vec<String> {
    (0..count).map(|i| format!("{prefix}-{i}")).collect()
}

/// A small deterministic stream for choosing readers and documents.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// The newsroom shape: six hosts, RF 2, 2 % transfer loss, eight attempts
/// per fetch, hosts suspected after one failure but never declared down by
/// observation. Several epochs of publishes, views and repair passes.
fn newsroom() -> String {
    let hosts = ["cwi", "desk", "kiosk", "studio", "archive", "laptop"];
    let store = DistributedStore::with_replication(Network::uniform(&hosts, Link::lan()), 2)
        .expect("six hosts hold RF 2")
        .with_fault_plan(FaultPlan::seeded(3).fail_transfers(0.02))
        .with_retry_policy(RetryPolicy::with_attempts(8))
        .with_health_policy(HealthPolicy::new(1, u32::MAX));
    let mut walk = Walk::new(store, &hosts);
    let mut generator = MediaGenerator::new(19);
    let mut pick = Lcg(3);
    let mut published: Vec<(String, Vec<String>)> = Vec::new();
    for epoch in 0..5 {
        for slot in 0..4 {
            let name = format!("nr-e{epoch}-d{slot}");
            let keys = keys_for(&format!("{name}-clip"), 2 + (epoch + slot) % 3);
            let origin = hosts[pick.below(hosts.len())];
            for block in story_blocks(&mut generator, &keys) {
                walk.put(origin, block);
            }
            let doc = story_doc(&name, &keys, 1 + slot % 4);
            walk.publish(origin, &name, &doc);
            published.push((name, keys));
        }
        for _ in 0..40 {
            let host = hosts[pick.below(hosts.len())];
            let (name, keys) = published[pick.below(published.len())].clone();
            walk.fetch_document(host, &name);
            for key in &keys {
                walk.fetch_block(host, key);
            }
        }
        walk.repair(&format!("epoch {epoch}"));
        walk.checkpoint(&format!("epoch {epoch}"));
    }
    walk.out
}

/// RF 3 under heavy weather: transfer loss and delays, a host killed and
/// revived by the plan, a partition that later heals, a forced link
/// failure, administrative downs, a republish, transports, descriptor
/// reads, and a decommission.
fn churn() -> String {
    let hosts = ["a", "b", "c", "d", "e"];
    let store = DistributedStore::with_replication(Network::uniform(&hosts, Link::lan()), 3)
        .expect("five hosts hold RF 3")
        .with_fault_plan(
            FaultPlan::seeded(17)
                .fail_transfers(0.15)
                .delay_transfers(0.3, 40)
                .kill_host_at(9, "b")
                .revive_host_at(30, "b")
                .partition_at(45, &["a", "b"], &["c", "d", "e"])
                .heal_at(70)
                .kill_host_at(80, "c")
                .fail_link("d", "e", 2),
        )
        .with_retry_policy(RetryPolicy::with_attempts(4));
    let mut walk = Walk::new(store, &hosts);
    let mut generator = MediaGenerator::new(5);
    let mut docs: Vec<(String, Vec<String>, Document)> = Vec::new();
    for (index, origin) in ["a", "c", "e", "b"].into_iter().enumerate() {
        let name = format!("churn-{index}");
        let keys = keys_for(&format!("{name}-clip"), 2 + index % 2);
        for block in story_blocks(&mut generator, &keys) {
            walk.put(origin, block);
        }
        let doc = story_doc(&name, &keys, 1 + index);
        walk.publish(origin, &name, &doc);
        docs.push((name, keys, doc));
    }
    walk.checkpoint("published");

    for reader in hosts {
        for (name, keys, _) in docs.clone() {
            walk.fetch_document(reader, &name);
            walk.fetch_block(reader, &keys[0]);
        }
    }
    walk.checkpoint("first reads");
    walk.repair("after first reads");

    // A republish from another origin invalidates stale holders.
    let (name, keys, _) = docs[0].clone();
    let revised = story_doc(&name, &keys, 3);
    walk.publish("d", &name, &revised);
    walk.fetch_document("a", &name);
    walk.fetch_document("e", &name);
    walk.checkpoint("republished");

    walk.transport("a", "e", "churn-1");
    walk.transport("d", "b", "churn-3");
    walk.transport("a", "b", "no-such-document");
    walk.fetch_document("a", "no-such-document");
    walk.fetch_document("mainframe", "churn-1");
    walk.descriptor("c", "churn-2-clip-1");
    walk.descriptor("a", "churn-3-clip-0");
    walk.descriptor("e", "no-such-clip");
    walk.fetch_block("e", "no-such-clip");
    let result = walk.store.mark_down("d");
    walk.admin("mark_down(d)", result);
    for (name, keys, _) in docs.clone() {
        walk.fetch_document("e", &name);
        for key in &keys {
            walk.fetch_block("b", key);
        }
    }
    walk.repair("d down");
    walk.checkpoint("d down");

    let result = walk.store.mark_up("d");
    walk.admin("mark_up(d)", result);
    let result = walk.store.decommission("e");
    walk.admin("decommission(e)", result);
    let result = walk.store.mark_up("e");
    walk.admin("mark_up(e)", result);
    walk.repair("after decommission");
    walk.repair("second pass");
    for (name, keys, _) in docs.clone() {
        walk.fetch_document("c", &name);
        walk.fetch_block("a", keys.last().expect("two keys or more"));
    }
    walk.fetch_document("e", "churn-2");
    walk.fetch_block("e", "churn-2-clip-0");
    for block in story_blocks(&mut generator, &keys_for("late", 2)) {
        walk.put("c", block);
    }
    walk.repair("late puts");
    walk.checkpoint("end");
    walk.out
}

/// A partition that heals: with no other weather, the setup's transfers
/// are countable (four replica copies, then one), so the split lands right
/// after the publish and heals partway through the far side's reads —
/// reads first walk into the cut (`Partitioned`, with the trace), then get
/// through.
fn partition() -> String {
    let hosts = ["west1", "west2", "east1", "east2"];
    let store = DistributedStore::with_replication(Network::uniform(&hosts, Link::lan()), 2)
        .expect("four hosts hold RF 2")
        .with_fault_plan(
            FaultPlan::seeded(7)
                .partition_at(6, &["west1", "west2"], &["east1", "east2"])
                .heal_at(20),
        )
        .with_retry_policy(RetryPolicy::with_attempts(3));
    let mut walk = Walk::new(store, &hosts);
    let mut generator = MediaGenerator::new(37);
    let keys = keys_for("split-clip", 4);
    for block in story_blocks(&mut generator, &keys) {
        walk.put("west1", block);
    }
    let doc = story_doc("split-news", &keys, 2);
    walk.publish("west1", "split-news", &doc);
    walk.checkpoint("published");
    for round in 0..3 {
        for reader in ["east1", "east2"] {
            walk.fetch_document(reader, "split-news");
            for key in &keys {
                walk.fetch_block(reader, key);
            }
        }
        walk.checkpoint(&format!("read round {round}"));
    }
    walk.repair("healed");
    walk.checkpoint("end");
    walk.out
}

/// Text-encoded documents on RF 2 with a flaky cluster whose observed
/// failures can take hosts down: republishes, transports, fetches and
/// repair of documents kept as canonical text.
fn text_wire() -> String {
    let hosts = ["origin", "mirror", "reader", "spare"];
    let store = DistributedStore::with_replication(Network::uniform(&hosts, Link::lan()), 2)
        .expect("four hosts hold RF 2")
        .with_wire_encoding(WireEncoding::Text)
        .with_fault_plan(
            FaultPlan::seeded(99)
                .fail_transfers(0.25)
                .kill_host_at(6, "origin")
                .revive_host_at(20, "origin"),
        )
        .with_retry_policy(RetryPolicy::with_attempts(5))
        .with_health_policy(HealthPolicy::new(1, 3));
    let mut walk = Walk::new(store, &hosts);
    let mut generator = MediaGenerator::new(23);
    let keys = keys_for("tw-clip", 3);
    for block in story_blocks(&mut generator, &keys) {
        walk.put("origin", block);
    }
    for version in 0..3 {
        let doc = story_doc("tw-news", &keys, 1 + version);
        walk.publish("origin", "tw-news", &doc);
        for host in hosts {
            walk.fetch_document(host, "tw-news");
        }
        walk.checkpoint(&format!("version {version}"));
    }
    walk.transport("mirror", "spare", "tw-news");
    walk.transport("reader", "origin", "tw-news");
    for host in hosts {
        for key in &keys {
            walk.fetch_block(host, key);
        }
        walk.descriptor(host, &keys[1]);
    }
    let result = walk.store.mark_up("origin");
    walk.admin("mark_up(origin)", result);
    walk.repair("first pass");
    walk.repair("second pass");
    walk.checkpoint("repaired");

    // Fresh two-copy blocks whose origin then goes down, so repair has
    // copies to make under the 25 % loss: a copy that dies mid-flight
    // defers its object and blames the target.
    for block in story_blocks(&mut generator, &keys_for("tw-late", 6)) {
        walk.put("spare", block);
    }
    let result = walk.store.mark_down("spare");
    walk.admin("mark_down(spare)", result);
    for pass in 0..4 {
        walk.repair(&format!("spare down, pass {pass}"));
    }
    walk.checkpoint("end");
    walk.out
}

/// No fault plan and RF 1 over a partial topology: nearest-replica
/// selection, local hits, and topology gaps (`Unreachable`) for blocks,
/// descriptors and documents.
fn topology() -> String {
    let hosts = ["alpha", "beta", "gamma", "delta"];
    let mut network = Network::new();
    for host in hosts {
        network.add_host(host);
    }
    network.connect("alpha", "beta", Link::lan());
    network.connect("beta", "gamma", Link::wan());
    network.connect("alpha", "gamma", Link::lan());
    let store = DistributedStore::new(network);
    let mut walk = Walk::new(store, &hosts);
    let mut generator = MediaGenerator::new(31);
    let keys = keys_for("topo-clip", 3);
    for block in story_blocks(&mut generator, &keys) {
        walk.put("alpha", block);
    }
    walk.put("gamma", generator.audio(&keys[1], 250, 8_000));
    let doc = story_doc("topo-news", &keys, 2);
    walk.publish("alpha", "topo-news", &doc);
    walk.publish("delta", "topo-island", &doc);
    for host in hosts {
        walk.fetch_document(host, "topo-news");
        walk.fetch_document(host, "topo-island");
        for key in &keys {
            walk.fetch_block(host, key);
            walk.descriptor(host, key);
        }
    }
    walk.transport("beta", "gamma", "topo-news");
    walk.transport("delta", "alpha", "topo-island");
    walk.repair("rf 1");
    walk.checkpoint("end");
    walk.out
}

/// Kills aimed inside a publish's replica fan-out. A host-down scan that
/// runs mid-publish sees the index as it was before the publish (none on a
/// first publish, the previous version's holders on a republish), which
/// decides whether the document is queued for repair.
fn publish_kills() -> String {
    let hosts = ["p1", "p2", "p3", "p4"];
    let names: Vec<String> = hosts.iter().map(|h| h.to_string()).collect();
    let ring = PlacementRing::new(&names);
    let targets: Vec<String> = ring
        .hosts_for("pk-news", hosts.len())
        .into_iter()
        .filter(|host| host.as_str() != "p1")
        .take(2)
        .cloned()
        .collect();
    let store = DistributedStore::with_replication(Network::uniform(&hosts, Link::lan()), 3)
        .expect("four hosts hold RF 3")
        .with_fault_plan(
            FaultPlan::seeded(11)
                .kill_host_at(2, targets[0].as_str())
                .kill_host_at(4, targets[1].as_str()),
        );
    let mut walk = Walk::new(store, &hosts);
    let keys = keys_for("pk-clip", 2);
    // The first target dies as the second copy starts: its copy landed.
    walk.publish("p1", "pk-news", &story_doc("pk-news", &keys, 1));
    walk.checkpoint("first publish");
    let result = walk.store.mark_up(&targets[0]);
    walk.admin(&format!("mark_up({})", targets[0]), result);
    // The second target dies as the republish's first copy starts.
    walk.publish("p1", "pk-news", &story_doc("pk-news", &keys, 2));
    walk.checkpoint("republish");
    walk.repair("first pass");
    walk.repair("second pass");
    for host in hosts {
        walk.fetch_document(host, "pk-news");
    }
    walk.checkpoint("end");
    walk.out
}

/// One scenario: builds its cluster, drives it, returns the transcript.
type Scenario = fn() -> String;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/replica_walk")
        .join(format!("{name}.txt"))
}

#[test]
fn replica_walk_transcripts_match_the_recorded_fixtures() {
    let scenarios: [(&str, Scenario); 6] = [
        ("newsroom", newsroom),
        ("churn", churn),
        ("partition", partition),
        ("text_wire", text_wire),
        ("topology", topology),
        ("publish_kills", publish_kills),
    ];
    let mut mismatches = Vec::new();
    for (name, scenario) in scenarios {
        let transcript = scenario();
        let expected = std::fs::read_to_string(fixture_path(name)).unwrap_or_default();
        if transcript == expected {
            continue;
        }
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("replica_walk");
        std::fs::create_dir_all(&dir).expect("the target tmp dir is writable");
        let written = dir.join(format!("{name}.txt"));
        std::fs::write(&written, &transcript).expect("the transcript is writable");
        let line = transcript
            .lines()
            .zip(expected.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| transcript.lines().count().min(expected.lines().count()));
        eprintln!(
            "{name}: transcript differs from the fixture at line {}\n  got:  {:?}\n  want: {:?}\n  full transcript: {}",
            line + 1,
            transcript.lines().nth(line),
            expected.lines().nth(line),
            written.display()
        );
        mismatches.push(name);
    }
    assert!(mismatches.is_empty(), "transcripts differ: {mismatches:?}");
}
