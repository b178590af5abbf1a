//! The acceptance scenario for the admission lint gate: a document whose
//! explicit arcs chase each other forever is refused at admission with a
//! rendered, span-carrying cycle diagnostic naming the arcs of the cycle —
//! while the *same* document, submitted with the cycle code set to
//! `allow`, reaches the solver and fails there exactly as it did before
//! static analysis existed. The gate resolves descriptors against the
//! resolver the submission's job uses, so a store-backed document is
//! judged by the catalog it will play against.

use std::sync::Arc;

use cmif::core::channel::MediaKind;
use cmif::core::diag::{codes, render_all, SeverityConfig};
use cmif::core::prelude::DocumentBuilder;
use cmif::core::tree::Document;
use cmif::format::parse_document_unvalidated;
use cmif::lint::{admission_gate, Linter};
use cmif::media::BlockStore;
use cmif::pipeline::{CaptureRequest, CaptureTool};
use cmif::scheduler::{Engine, EngineConfig, JitterModel, LintPolicy, SchedulerError, Submission};

/// Structurally sound except for one thing: `line` begins a second after
/// `banner`, which begins a second after `line`. Distinct channels, so the
/// cycle is the only finding.
const CYCLED: &str = r#"(cmif
  (channels
    (channel caption text)
    (channel banner text))
  (par (name story)
    (imm (name line) (channel caption) (duration 3000)
      (sync_arc begin must begin "../banner" 1000 ms "" 0 inf)
      (data "first"))
    (imm (name banner) (channel banner) (duration 3000)
      (sync_arc begin must begin "../line" 1000 ms "" 0 inf)
      (data "second"))))
"#;

fn gated_engine() -> Engine {
    Engine::new(EngineConfig {
        workers: 1,
        lint_gate: Some(admission_gate(Linter::new())),
        ..EngineConfig::default()
    })
}

#[test]
fn a_cycled_document_is_refused_at_admission_with_the_arc_route() {
    let doc = Arc::new(parse_document_unvalidated(CYCLED).unwrap());
    let engine = gated_engine();

    let err = engine
        .admit(Submission::new(Arc::clone(&doc), JitterModel::ideal()))
        .unwrap_err();
    let SchedulerError::LintRejected { diagnostics } = err else {
        panic!("expected LintRejected, got {err:?}");
    };
    let cycle = diagnostics
        .iter()
        .find(|d| d.code == codes::ARC_CYCLE)
        .expect("the cycle is reported");
    assert!(cycle.is_deny());
    // The message names the cycle's route through both arcs.
    assert!(cycle.message.contains("/line"), "{}", cycle.message);
    assert!(cycle.message.contains("/banner"), "{}", cycle.message);

    // Rendered against the document's own source map, the diagnostic
    // underlines the offending `sync_arc` source text.
    let rendered = render_all(&diagnostics, doc.sources.as_deref());
    assert!(rendered.contains("L101"), "{rendered}");
    assert!(rendered.contains("sync_arc"), "{rendered}");
    assert!(rendered.contains('^'), "{rendered}");

    engine.shutdown();
}

#[test]
fn allowing_the_cycle_code_hands_the_document_to_the_solver() {
    let doc = Arc::new(parse_document_unvalidated(CYCLED).unwrap());
    let engine = gated_engine();

    // Same document, same engine — but this submission's policy downgrades
    // L101 to allow, so admission succeeds and the solver diverges where
    // it always did.
    let waved = SeverityConfig::new().allow(codes::ARC_CYCLE);
    let id = engine
        .admit(
            Submission::new(Arc::clone(&doc), JitterModel::ideal())
                .lint(LintPolicy::Configured(waved)),
        )
        .expect("allow-listed submission is admitted");
    let result = engine.wait(id).result;
    assert!(
        matches!(result, Err(SchedulerError::ConstraintCycle { .. })),
        "expected the solver's cycle error, got {result:?}"
    );

    engine.shutdown();
}

#[test]
fn skipping_the_gate_or_running_ungated_admits_the_document() {
    let doc = Arc::new(parse_document_unvalidated(CYCLED).unwrap());

    // LintPolicy::Skip bypasses the gate wholesale.
    let gated = gated_engine();
    let id = gated
        .admit(Submission::new(Arc::clone(&doc), JitterModel::ideal()).lint(LintPolicy::Skip))
        .expect("skip policy bypasses the gate");
    assert!(gated.wait(id).result.is_err());
    gated.shutdown();

    // An engine with no gate configured behaves exactly as before this
    // subsystem existed.
    let ungated = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let id = ungated
        .admit(Submission::new(doc, JitterModel::ideal()))
        .expect("ungated engine admits anything parseable");
    assert!(ungated.wait(id).result.is_err());
    ungated.shutdown();
}

#[test]
fn clean_documents_pass_the_gate_untouched() {
    let doc = Arc::new(
        cmif::synthetic::SyntheticNews::with_stories(2)
            .build()
            .unwrap(),
    );
    let engine = gated_engine();
    let id = engine
        .admit(Submission::new(doc, JitterModel::ideal()))
        .expect("a clean document is admitted");
    assert!(engine.wait(id).result.is_ok());
    engine.shutdown();
}

/// A store-backed document: its own catalog is empty, and the descriptor of
/// its one external leaf lives in a block store.
fn store_backed() -> (Arc<Document>, BlockStore) {
    let store = BlockStore::new();
    CaptureTool::new(&store, 5)
        .capture(&CaptureRequest::audio("speech", 2_000))
        .unwrap();
    let doc = DocumentBuilder::new("store-backed")
        .channel("audio", MediaKind::Audio)
        .root_seq(|root| {
            root.ext("voice", "audio", "speech");
        })
        .build()
        .unwrap();
    (Arc::new(doc), store)
}

#[test]
fn the_gate_resolves_descriptors_against_the_submissions_resolver() {
    let (doc, store) = store_backed();
    let catalog = Arc::new(store.export_catalog());
    let engine = gated_engine();

    // Without a resolver the job reads the document's own, empty catalog,
    // where the leaf's descriptor dangles: the gate refuses it (L202).
    let err = engine
        .admit(Submission::new(Arc::clone(&doc), JitterModel::ideal()))
        .unwrap_err();
    let SchedulerError::LintRejected { diagnostics } = err else {
        panic!("expected LintRejected, got {err:?}");
    };
    assert!(
        diagnostics
            .iter()
            .any(|d| d.code == codes::DANGLING_DESCRIPTOR && d.is_deny()),
        "{diagnostics:?}"
    );

    // With the store's catalog as its resolver, the descriptor resolves
    // where the job will look for it: admitted, and played to completion.
    let id = engine
        .admit(Submission::new(Arc::clone(&doc), JitterModel::ideal()).resolver(catalog.clone()))
        .expect("the descriptor resolves against the submission's resolver");
    let gated = engine.wait(id);
    assert!(gated.is_ok(), "{:?}", gated.result);
    engine.shutdown();

    // An ungated engine plays the same submission to the same outcome.
    let ungated = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let id = ungated
        .admit(Submission::new(doc, JitterModel::ideal()).resolver(catalog))
        .unwrap();
    assert_eq!(ungated.wait(id).result, gated.result);
    ungated.shutdown();
}
