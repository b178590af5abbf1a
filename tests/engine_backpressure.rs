//! Concurrent-admission tests for the engine's bounded queue: N producer
//! threads racing `try_admit`/`admit`/`wait` against a small
//! `max_backlog`, with a final `drain` — no outcome may be lost or
//! delivered twice, the drained tail must come back in admission order,
//! and the backlog must respect its bound the whole time. The three
//! admission calls share one path: they refuse and admit alike, and quota
//! is charged when a document is admitted, after any capacity wait.

use std::collections::HashSet;
use std::fmt::Debug;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use cmif::core::tree::Document;
use cmif::format::parse_document_unvalidated;
use cmif::lint::{admission_gate, Linter};
use cmif::scheduler::{
    DocId, DocOutcome, Engine, EngineConfig, JitterModel, JobHook, QuotaConfig, SchedulerError,
    Submission, TenantId, TenantPolicy,
};
use cmif::synthetic::SyntheticNews;

fn doc() -> Arc<Document> {
    Arc::new(SyntheticNews::with_stories(1).build().unwrap())
}

fn submission(document: &Arc<Document>) -> Submission {
    Submission::new(Arc::clone(document), JitterModel::ideal())
}

const MAX_BACKLOG: usize = 4;
const WORKERS: usize = 2;
const PRODUCERS: usize = 4;
const DOCS_PER_PRODUCER: usize = 24;

/// What one producer thread brought home: the ids it was issued and the
/// outcomes it already collected itself via `wait`.
struct ProducerReport {
    admitted: Vec<DocId>,
    collected: Vec<DocOutcome>,
}

#[test]
fn racing_producers_lose_no_outcome_and_drain_in_admission_order() {
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: WORKERS,
        max_backlog: Some(MAX_BACKLOG),
        ..EngineConfig::default()
    }));
    let document = doc();

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|producer| {
            let engine = Arc::clone(&engine);
            let document = Arc::clone(&document);
            thread::spawn(move || {
                let mut admitted = Vec::new();
                let mut collected = Vec::new();
                for i in 0..DOCS_PER_PRODUCER {
                    let jitter = JitterModel::uniform(80, (producer * 1_000 + i) as u64);
                    let id = if i % 2 == 0 {
                        // Non-blocking half: spin on Backpressure like a
                        // latency-sensitive client would.
                        loop {
                            match engine
                                .try_admit(Submission::new(Arc::clone(&document), jitter.clone()))
                            {
                                Ok(id) => break id,
                                Err(SchedulerError::Backpressure { backlog }) => {
                                    // The refusal itself must respect the bound.
                                    assert!(backlog <= MAX_BACKLOG + WORKERS);
                                    thread::yield_now();
                                }
                                Err(other) => panic!("unexpected admission error: {other}"),
                            }
                        }
                    } else {
                        // Blocking half.
                        engine
                            .admit(Submission::new(Arc::clone(&document), jitter))
                            .expect("engine is open")
                    };
                    assert!(
                        engine.backlog() <= MAX_BACKLOG + WORKERS,
                        "backlog exceeded its bound"
                    );
                    admitted.push(id);
                    // Collect a third of our own outcomes concurrently with
                    // everyone else's admissions and the final drain.
                    if i % 3 == 0 {
                        collected.push(engine.wait(id));
                    }
                }
                ProducerReport {
                    admitted,
                    collected,
                }
            })
        })
        .collect();

    let reports: Vec<ProducerReport> = producers
        .into_iter()
        .map(|p| p.join().expect("producer thread panicked"))
        .collect();
    let drained = engine.drain();

    // Drained outcomes come back in admission order.
    let drained_ids: Vec<DocId> = drained.iter().map(|o| o.id).collect();
    let mut sorted = drained_ids.clone();
    sorted.sort();
    assert_eq!(drained_ids, sorted, "drain broke admission order");

    // Every admitted document has exactly one outcome, delivered either to
    // the producer that waited on it or to the final drain — none lost,
    // none duplicated.
    let mut seen: HashSet<DocId> = HashSet::new();
    for outcome in reports.iter().flat_map(|r| &r.collected).chain(&drained) {
        assert!(seen.insert(outcome.id), "{} delivered twice", outcome.id);
        assert!(outcome.is_ok(), "{}: {:?}", outcome.id, outcome.result);
    }
    let admitted: HashSet<DocId> = reports.iter().flat_map(|r| &r.admitted).copied().collect();
    assert_eq!(admitted.len(), PRODUCERS * DOCS_PER_PRODUCER);
    assert_eq!(seen, admitted, "outcomes lost or invented");
    assert_eq!(engine.undelivered(), 0);
}

/// A manually opened gate the job hook parks every running job on.
struct StallGate {
    stalled: Mutex<bool>,
    opened: Condvar,
}

impl StallGate {
    fn new() -> Arc<StallGate> {
        Arc::new(StallGate {
            stalled: Mutex::new(true),
            opened: Condvar::new(),
        })
    }

    fn hold(&self) {
        let mut stalled = self.stalled.lock().unwrap();
        while *stalled {
            stalled = self.opened.wait(stalled).unwrap();
        }
    }

    fn open(&self) {
        *self.stalled.lock().unwrap() = false;
        self.opened.notify_all();
    }
}

#[test]
fn blocked_submitters_are_admitted_in_arrival_order() {
    // Regression test for condvar wake-order starvation: before the FIFO
    // ticket gate, submitters parked on the capacity condvar raced on
    // every wakeup, so an unlucky early submitter could be overtaken
    // indefinitely by late arrivals. Arrival order is sequenced here via
    // `waiting_submitters()`, so the assertion below is deterministic:
    // admission order (DocId order) must equal arrival order.
    const LATE_PRODUCERS: usize = 8;
    let gate = StallGate::new();
    let hook_gate = Arc::clone(&gate);
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 1,
        max_backlog: Some(1),
        job_hook: Some(JobHook::new(move |_| hook_gate.hold())),
        ..EngineConfig::default()
    }));
    let document = doc();

    // One document stalled inside the worker, one filling the single
    // backlog slot: every further submit must park in the ticket gate.
    engine.admit(submission(&document)).unwrap();
    while engine.queue_stats().dispatched() == 0 {
        thread::yield_now();
    }
    engine.admit(submission(&document)).unwrap();

    let admissions: Arc<Mutex<Vec<(usize, DocId)>>> = Arc::new(Mutex::new(Vec::new()));
    let producers: Vec<_> = (0..LATE_PRODUCERS)
        .map(|producer| {
            let worker_engine = Arc::clone(&engine);
            let document = Arc::clone(&document);
            let admissions = Arc::clone(&admissions);
            let handle = thread::spawn(move || {
                let id = worker_engine
                    .admit(submission(&document))
                    .expect("engine stays open");
                admissions.lock().unwrap().push((producer, id));
            });
            // Only spawn the next producer once this one is parked in the
            // gate — that pins the arrival order to the producer index.
            while engine.waiting_submitters() < producer + 1 {
                thread::yield_now();
            }
            handle
        })
        .collect();

    gate.open();
    for producer in producers {
        producer.join().expect("producer thread panicked");
    }

    let mut admissions = Arc::into_inner(admissions)
        .expect("all producers joined")
        .into_inner()
        .unwrap();
    admissions.sort_by_key(|&(_, id)| id);
    let admitted_order: Vec<usize> = admissions.iter().map(|&(producer, _)| producer).collect();
    assert_eq!(
        admitted_order,
        (0..LATE_PRODUCERS).collect::<Vec<_>>(),
        "a late submitter overtook an earlier one"
    );

    let outcomes = engine.drain();
    assert_eq!(outcomes.len(), 2 + LATE_PRODUCERS);
    assert!(outcomes.iter().all(DocOutcome::is_ok));
}

#[test]
fn close_races_cleanly_with_producers() {
    // Producers hammer a bounded engine while the main thread closes it:
    // every admission must either succeed (outcome delivered) or fail with
    // EngineClosed/Backpressure — and drain must account for exactly the
    // successful ones.
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 2,
        max_backlog: Some(2),
        ..EngineConfig::default()
    }));
    let document = doc();

    let producers: Vec<_> = (0..3)
        .map(|producer| {
            let engine = Arc::clone(&engine);
            let document = Arc::clone(&document);
            thread::spawn(move || {
                let mut admitted = 0usize;
                for i in 0..64 {
                    let jitter = JitterModel::uniform(50, (producer * 64 + i) as u64);
                    match engine.admit(Submission::new(Arc::clone(&document), jitter)) {
                        Ok(_) => admitted += 1,
                        Err(SchedulerError::EngineClosed) => break,
                        Err(other) => panic!("unexpected admission error: {other}"),
                    }
                }
                admitted
            })
        })
        .collect();

    // Let some admissions through, then slam the door.
    while engine.backlog() == 0 && engine.undelivered() == 0 {
        thread::yield_now();
    }
    engine.close();
    let admitted: usize = producers
        .into_iter()
        .map(|p| p.join().expect("producer thread panicked"))
        .sum();
    let outcomes = engine.drain();
    assert_eq!(outcomes.len(), admitted, "drain lost an admitted outcome");
    assert!(outcomes.iter().all(DocOutcome::is_ok));
    assert!(matches!(
        engine.try_admit(submission(&document)),
        Err(SchedulerError::EngineClosed)
    ));
}

/// A one-worker engine whose worker parks on `gate` at the start of every
/// job, with a one-slot queue.
fn stalled_engine(gate: &Arc<StallGate>) -> Engine {
    let gate = Arc::clone(gate);
    Engine::new(EngineConfig {
        workers: 1,
        max_backlog: Some(1),
        job_hook: Some(JobHook::new(move |_| gate.hold())),
        ..EngineConfig::default()
    })
}

/// Admits `first` (which the worker takes and stalls on) and then
/// `second` (which fills the one slot): the queue is full afterwards.
fn fill(engine: &Engine, first: Submission, second: Submission) -> (DocId, DocId) {
    let first = engine.admit(first).unwrap();
    while engine.queue_stats().dispatched() == 0 {
        thread::yield_now();
    }
    (first, engine.admit(second).unwrap())
}

fn show<T: Debug>(value: T) -> String {
    format!("{value:?}")
}

/// `(tenant, submitted, quota refusals, completed)` for every tenant seen.
fn rows(engine: &Engine) -> Vec<(TenantId, u64, u64, u64)> {
    engine
        .tenant_stats()
        .into_iter()
        .map(|row| (row.tenant, row.submitted, row.quota_refusals, row.completed))
        .collect()
}

#[test]
fn a_waiting_batch_is_charged_when_admitted_not_when_it_starts_waiting() {
    let gate = StallGate::new();
    let engine = Arc::new(stalled_engine(&gate));
    let metered = TenantId::new(9);
    // One token, refilled at two per second: empty right after the first
    // admission, full again half a second later.
    engine.set_tenant_policy(
        metered,
        TenantPolicy::default().with_quota(QuotaConfig::new(1, 2.0)),
    );
    let document = doc();
    let (first, second) = fill(
        &engine,
        submission(&document).tenant(metered),
        submission(&document),
    );
    let spent = Instant::now();

    let batch = {
        let engine = Arc::clone(&engine);
        let document = Arc::clone(&document);
        thread::spawn(move || engine.submit_batch([submission(&document).tenant(metered)]))
    };
    // The batch parks for capacity with an empty bucket.
    while engine.waiting_submitters() == 0 && !batch.is_finished() {
        thread::yield_now();
    }
    // Capacity frees only once the bucket has refilled.
    thread::sleep(Duration::from_millis(600).saturating_sub(spent.elapsed()));
    gate.open();
    let ids = batch
        .join()
        .unwrap()
        .expect("the bucket refilled while the batch waited for capacity");
    assert_eq!(ids.len(), 1);
    assert!(ids[0] > second && second > first);
    assert_eq!(engine.drain().len(), 3);
    assert_eq!(
        rows(&engine),
        vec![(TenantId::DEFAULT, 1, 0, 1), (metered, 2, 0, 2)]
    );
}

#[test]
fn admit_try_admit_and_submit_batch_refuse_and_admit_alike() {
    let document = doc();

    // A closed engine refuses every call; an empty batch is still empty.
    let engine = Engine::with_workers(1);
    engine.close();
    assert_eq!(
        show(engine.admit(submission(&document))),
        "Err(EngineClosed)"
    );
    assert_eq!(
        show(engine.try_admit(submission(&document))),
        "Err(EngineClosed)"
    );
    assert_eq!(
        show(engine.submit_batch([submission(&document)])),
        "Err(EngineClosed)"
    );
    assert_eq!(show(engine.submit_batch([])), "Ok([])");
    assert!(rows(&engine).is_empty());

    // A full bounded queue: the non-blocking call is refused at once, the
    // blocking ones wait their turn and are admitted in arrival order.
    let gate = StallGate::new();
    let engine = Arc::new(stalled_engine(&gate));
    fill(&engine, submission(&document), submission(&document));
    assert_eq!(
        show(engine.try_admit(submission(&document))),
        "Err(Backpressure { backlog: 2 })"
    );
    let single = {
        let (engine, document) = (Arc::clone(&engine), Arc::clone(&document));
        thread::spawn(move || engine.admit(submission(&document)))
    };
    while engine.waiting_submitters() < 1 {
        thread::yield_now();
    }
    let batch = {
        let (engine, document) = (Arc::clone(&engine), Arc::clone(&document));
        thread::spawn(move || engine.submit_batch([submission(&document)]))
    };
    while engine.waiting_submitters() < 2 {
        thread::yield_now();
    }
    gate.open();
    assert_eq!(show(single.join().unwrap()), "Ok(DocId(2))");
    assert_eq!(show(batch.join().unwrap()), "Ok([DocId(3)])");
    assert_eq!(engine.drain().len(), 4);
    assert_eq!(rows(&engine), vec![(TenantId::DEFAULT, 4, 0, 4)]);

    // A batch larger than the bound can never fit.
    let engine = Engine::new(EngineConfig {
        workers: 1,
        max_backlog: Some(2),
        ..EngineConfig::default()
    });
    assert_eq!(
        show(engine.submit_batch((0..3).map(|_| submission(&document)))),
        "Err(Backpressure { backlog: 0 })"
    );
    assert!(rows(&engine).is_empty());
    assert_eq!(show(engine.admit(submission(&document))), "Ok(DocId(0))");

    // A lint refusal consumes no id and creates no tenant row.
    const CYCLED: &str = r#"(cmif
  (channels (channel caption text) (channel banner text))
  (par (name story)
    (imm (name line) (channel caption) (duration 3000)
      (sync_arc begin must begin "../banner" 1000 ms "" 0 inf) (data "first"))
    (imm (name banner) (channel banner) (duration 3000)
      (sync_arc begin must begin "../line" 1000 ms "" 0 inf) (data "second"))))
"#;
    let cycled = Arc::new(parse_document_unvalidated(CYCLED).unwrap());
    let engine = Engine::new(EngineConfig {
        workers: 1,
        lint_gate: Some(admission_gate(Linter::new())),
        ..EngineConfig::default()
    });
    let refused = |result: Result<_, SchedulerError>| matches!(result, Err(SchedulerError::LintRejected { ref diagnostics }) if !diagnostics.is_empty());
    assert!(refused(
        engine.admit(submission(&cycled)).map(|id| vec![id])
    ));
    assert!(refused(
        engine.try_admit(submission(&cycled)).map(|id| vec![id])
    ));
    assert!(refused(
        engine.submit_batch([submission(&document), submission(&cycled)])
    ));
    assert!(rows(&engine).is_empty());
    assert_eq!(show(engine.admit(submission(&document))), "Ok(DocId(0))");
    assert_eq!(engine.drain().len(), 1);
    assert_eq!(rows(&engine), vec![(TenantId::DEFAULT, 1, 0, 1)]);

    // A quota refusal is all-or-nothing and counted per refused document.
    let metered = TenantId::new(4);
    let engine = Engine::with_workers(1);
    engine.set_tenant_policy(
        metered,
        TenantPolicy::default().with_quota(QuotaConfig::new(1, 0.0)),
    );
    let charged = || submission(&document).tenant(metered);
    let exceeded = "QuotaExceeded { tenant: TenantId(4), retry_after_ms: 18446744073709551615 }";
    assert_eq!(show(engine.admit(charged())), "Ok(DocId(0))");
    assert_eq!(show(engine.admit(charged())), format!("Err({exceeded})"));
    assert_eq!(
        show(engine.try_admit(charged())),
        format!("Err({exceeded})")
    );
    assert_eq!(
        show(engine.submit_batch([charged()])),
        format!("Err({exceeded})")
    );
    assert_eq!(
        show(engine.submit_batch([submission(&document), charged()])),
        format!("Err({exceeded})")
    );
    assert_eq!(show(engine.admit(submission(&document))), "Ok(DocId(1))");
    assert_eq!(engine.drain().len(), 2);
    assert_eq!(
        rows(&engine),
        vec![(TenantId::DEFAULT, 1, 0, 1), (metered, 1, 4, 1)]
    );
}
