//! Threaded tests of waiting callers that play queued jobs: a caller in
//! `Engine::wait` or `Engine::drain` takes the next queued job and plays
//! it on its own thread while its outcome is missing. A job it plays is
//! contained like a worker's, admission still closes under it, and jobs it
//! plays keep their queue slot, so `backlog()` stays within
//! `max_backlog + workers`.
//!
//! No hook here blocks on something only the waiting thread can release:
//! with helping, that thread may be the one playing the job.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, ThreadId};

use cmif::core::tree::Document;
use cmif::scheduler::{
    ConstraintGraph, DocId, DocOutcome, Engine, EngineConfig, JitterModel, JobHook, PlaybackReport,
    PlayerSession, ScheduleOptions, SchedulerError, Submission,
};
use cmif::synthetic::SyntheticNews;

fn broadcast(stories: usize) -> Arc<Document> {
    Arc::new(SyntheticNews::with_stories(stories).build().unwrap())
}

fn labeled(document: &Arc<Document>, label: &str) -> Submission {
    Submission::new(Arc::clone(document), JitterModel::ideal()).labeled(label)
}

/// A gate a hook parks its job on until another thread opens it.
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            open: Mutex::new(false),
            opened: Condvar::new(),
        })
    }

    fn pass(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

#[test]
fn a_waiting_caller_plays_a_queued_job_while_the_only_worker_is_parked() {
    let gate = Gate::new();
    let (started, a_started) = mpsc::channel();
    let b_thread: Arc<Mutex<Option<ThreadId>>> = Arc::default();
    let engine = {
        let gate = Arc::clone(&gate);
        let started = Mutex::new(started);
        let b_thread = Arc::clone(&b_thread);
        Engine::new(EngineConfig {
            workers: 1,
            job_hook: Some(JobHook::new(move |label| match label {
                "A" => {
                    started.lock().unwrap().send(()).unwrap();
                    gate.pass();
                }
                "B" => {
                    *b_thread.lock().unwrap() = Some(thread::current().id());
                    panic!("injected fault in B");
                }
                _ => {}
            })),
            ..EngineConfig::default()
        })
    };
    let document = broadcast(1);
    let a = engine.admit(labeled(&document, "A")).unwrap();
    // The only worker now holds A at the gate, which this thread opens
    // only after B's outcome is back: B can play nowhere but here.
    a_started.recv().unwrap();
    let b = engine.admit(labeled(&document, "B")).unwrap();
    let outcome = engine.wait(b);
    match outcome.result {
        Err(SchedulerError::JobPanicked { ref message }) => {
            assert!(message.contains("injected fault in B"), "{message}");
        }
        ref other => panic!("expected B's JobPanicked, got {other:?}"),
    }
    assert_eq!(*b_thread.lock().unwrap(), Some(thread::current().id()));
    assert_eq!(engine.queue_stats().helped, 1);

    gate.open();
    let outcome = engine.wait(a);
    assert!(outcome.is_ok(), "{:?}", outcome.result);
    assert_eq!((engine.backlog(), engine.undelivered()), (0, 0));
}

#[test]
fn close_during_a_helping_drain_refuses_admissions_and_delivers_every_outcome() {
    let release = Gate::new();
    let (started, starts) = mpsc::channel::<String>();
    let engine = {
        let release = Arc::clone(&release);
        let started = Mutex::new(started);
        Arc::new(Engine::new(EngineConfig {
            workers: 1,
            job_hook: Some(JobHook::new(move |label| {
                if label == "A" || label == "pivot" {
                    started.lock().unwrap().send(label.to_string()).unwrap();
                    release.pass();
                }
            })),
            ..EngineConfig::default()
        }))
    };
    let document = broadcast(1);
    let mut admitted = vec![engine.admit(labeled(&document, "A")).unwrap()];
    // The worker holds A until the closer opens the gate, so the drain
    // below plays the queued jobs itself, "pivot" included.
    assert_eq!(starts.recv().unwrap(), "A");
    for label in ["one", "two", "pivot", "three", "four"] {
        admitted.push(engine.admit(labeled(&document, label)).unwrap());
    }
    let closer = {
        let engine = Arc::clone(&engine);
        let document = Arc::clone(&document);
        let release = Arc::clone(&release);
        thread::spawn(move || {
            // The drain is playing "pivot" now.
            assert_eq!(starts.recv().unwrap(), "pivot");
            engine.close();
            let refusals = [
                engine.admit(labeled(&document, "late")).map(|id| vec![id]),
                engine
                    .try_admit(labeled(&document, "late"))
                    .map(|id| vec![id]),
                engine.submit_batch([labeled(&document, "late")]),
            ];
            release.open();
            refusals
        })
    };
    let outcomes = engine.drain();
    for refusal in closer.join().unwrap() {
        assert!(
            matches!(refusal, Err(SchedulerError::EngineClosed)),
            "{refusal:?}"
        );
    }
    let delivered: Vec<DocId> = outcomes.iter().map(|o| o.id).collect();
    assert_eq!(delivered, admitted);
    assert!(outcomes.iter().all(DocOutcome::is_ok));
    // Everything queued before "pivot" was released played on this thread.
    assert!(
        engine.queue_stats().helped >= 3,
        "{:?}",
        engine.queue_stats()
    );
    assert!(matches!(
        engine.try_admit(labeled(&document, "later")),
        Err(SchedulerError::EngineClosed)
    ));
    assert!(engine.drain().is_empty());
}

#[test]
fn racing_waiters_deliver_each_outcome_once_within_the_backlog_bound() {
    const MAX_BACKLOG: usize = 3;
    const WORKERS: usize = 2;
    const PRODUCERS: usize = 4;
    const DOCS_PER_PRODUCER: usize = 16;
    let documents: Vec<Arc<Document>> = (1..=3).map(broadcast).collect();
    let job = |producer: usize, i: usize| {
        let document = &documents[(producer + i) % documents.len()];
        let jitter = JitterModel::uniform(60 + (i as i64 % 4) * 30, (producer * 100 + i) as u64);
        (Arc::clone(document), jitter)
    };
    // Each job played alone, one session at a time.
    let sequential: Vec<Vec<PlaybackReport>> = (0..PRODUCERS)
        .map(|producer| {
            (0..DOCS_PER_PRODUCER)
                .map(|i| {
                    let (doc, jitter) = job(producer, i);
                    let solved =
                        ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default())
                            .and_then(|mut graph| graph.solve(&doc, &doc.catalog))
                            .unwrap();
                    PlayerSession::new(&doc, &solved, &doc.catalog, &jitter)
                        .unwrap()
                        .run_to_completion()
                })
                .collect()
        })
        .collect();

    let engine = Engine::new(EngineConfig {
        workers: WORKERS,
        max_backlog: Some(MAX_BACKLOG),
        ..EngineConfig::default()
    });
    let bound = MAX_BACKLOG + WORKERS;
    let done = AtomicBool::new(false);
    let delivered: Vec<Vec<DocOutcome>> = thread::scope(|scope| {
        let engine = &engine;
        let done = &done;
        let monitor = scope.spawn(move || {
            while !done.load(Ordering::SeqCst) {
                let backlog = engine.backlog();
                assert!(backlog <= bound, "backlog {backlog} over {bound}");
                thread::yield_now();
            }
        });
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|producer| {
                let job = &job;
                scope.spawn(move || {
                    let mut pending = Vec::new();
                    let mut collected = Vec::new();
                    for i in 0..DOCS_PER_PRODUCER {
                        let (doc, jitter) = job(producer, i);
                        let submission =
                            Submission::new(doc, jitter).labeled(format!("{producer}/{i}"));
                        let id = if i % 2 == 0 {
                            engine.admit(submission).unwrap()
                        } else {
                            loop {
                                match engine.try_admit(submission.clone()) {
                                    Ok(id) => break id,
                                    Err(SchedulerError::Backpressure { backlog }) => {
                                        assert!(backlog <= bound, "refused at {backlog}");
                                        thread::yield_now();
                                    }
                                    Err(other) => panic!("unexpected refusal: {other}"),
                                }
                            }
                        };
                        assert!(engine.backlog() <= bound);
                        pending.push((i, id));
                        // Wait on two at a time, newest first, so waits
                        // find their own job queued, running or done.
                        if pending.len() == 2 {
                            for (i, id) in pending.drain(..).rev() {
                                collected.push((i, engine.wait(id)));
                            }
                        }
                    }
                    for (i, id) in pending {
                        collected.push((i, engine.wait(id)));
                    }
                    collected.sort_by_key(|(i, _)| *i);
                    collected.into_iter().map(|(_, outcome)| outcome).collect()
                })
            })
            .collect();
        let delivered = producers
            .into_iter()
            .map(|producer| producer.join().unwrap())
            .collect();
        done.store(true, Ordering::SeqCst);
        monitor.join().unwrap();
        delivered
    });

    let mut seen = HashSet::new();
    for (producer, outcomes) in delivered.iter().enumerate() {
        assert_eq!(outcomes.len(), DOCS_PER_PRODUCER);
        for (i, outcome) in outcomes.iter().enumerate() {
            assert!(seen.insert(outcome.id), "{} delivered twice", outcome.id);
            assert_eq!(outcome.label, format!("{producer}/{i}"));
            let report = outcome.result.as_ref().expect("every job plays");
            assert_eq!(report, &sequential[producer][i], "{producer}/{i} diverged");
        }
    }
    assert_eq!(seen.len(), PRODUCERS * DOCS_PER_PRODUCER);
    assert!(engine.drain().is_empty());
    assert_eq!((engine.backlog(), engine.undelivered()), (0, 0));
}
