//! Soundness of the static analyser, property-tested over the synthetic
//! news generator: a lint-clean verdict must imply the scheduler can
//! actually schedule the document (no structural error, no cycle), and
//! every span the analyser attaches must point inside the source buffer
//! it claims to describe.

use cmif::core::diag::codes;
use cmif::format::{parse_document_unvalidated, write_document};
use cmif::lint::Linter;
use cmif::scheduler::{ConstraintGraph, ScheduleOptions};
use cmif::synthetic::SyntheticNews;
use proptest::{prop_assert, proptest, ProptestConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lint-clean implies schedulable: whatever the generator produces,
    /// if the full registry reports no deny-severity finding then solving
    /// must succeed — the analyser is only allowed to err on the side of
    /// reporting, never to wave a truly broken document through.
    #[test]
    fn lint_clean_documents_always_solve(
        stories in 1usize..5,
        captions in 0usize..5,
        graphics in 0usize..4,
        explicit_arcs in proptest::bool::ANY,
    ) {
        let doc = SyntheticNews {
            stories,
            story_seconds: 10,
            captions_per_story: captions,
            graphics_per_story: graphics,
            explicit_arcs,
        }
        .build()
        .unwrap();
        let report = Linter::new().check(&doc);
        prop_assert!(
            !report.has_deny(),
            "generator produced a denied document: {}",
            report.render(None)
        );
        let solved = ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default())
            .and_then(|mut g| g.solve(&doc, &doc.catalog));
        prop_assert!(solved.is_ok(), "lint-clean but unsolvable: {solved:?}");
    }

    /// Every diagnostic produced for a *parsed* document carries spans that
    /// lie within the source buffer, start before end, and survive the
    /// write → parse round trip of the document itself.
    #[test]
    fn diagnostic_spans_stay_inside_the_source_buffer(
        stories in 1usize..4,
        captions in 0usize..4,
    ) {
        let doc = SyntheticNews {
            stories,
            story_seconds: 5,
            captions_per_story: captions,
            graphics_per_story: 1,
            explicit_arcs: true,
        }
        .build()
        .unwrap();
        let text = write_document(&doc).unwrap();
        let parsed = parse_document_unvalidated(&text).unwrap();
        // Lint with depth/size limits tightened until *something* fires,
        // so the span property is exercised on every case.
        let limits = cmif::lint::Limits { max_depth: 1, max_nodes: 1 };
        let report = Linter::new().with_limits(limits).check(&parsed);
        prop_assert!(!report.is_clean());
        for diag in report.diagnostics() {
            let spans = diag
                .span
                .iter()
                .chain(diag.related.iter().filter_map(|r| r.span.as_ref()));
            for span in spans {
                prop_assert!(span.start.offset <= span.end.offset, "inverted span {span:?}");
                prop_assert!(
                    span.end.offset <= text.len(),
                    "span {span:?} escapes the {}-byte buffer",
                    text.len()
                );
            }
        }
    }
}

/// Regression: the cycle diagnostic must list the exact route of the
/// injected arcs — both node paths, in the begin-to-begin chain the two
/// arcs form — not merely report "a cycle exists somewhere".
#[test]
fn the_cycle_diagnostic_lists_the_injected_arc_route() {
    let source = r#"(cmif
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
    let doc = parse_document_unvalidated(source).unwrap();
    let report = Linter::new().check(&doc);
    let cycle = report
        .diagnostics()
        .iter()
        .find(|d| d.code == codes::ARC_CYCLE)
        .expect("the cycle is reported");

    // The route walks begin(line) -> begin(banner) -> begin(line) (or the
    // rotation starting at banner); either way both paths appear, and the
    // route is phrased in event points.
    assert!(cycle.message.contains("begin(/line)"), "{}", cycle.message);
    assert!(
        cycle.message.contains("begin(/banner)"),
        "{}",
        cycle.message
    );
    // Each arc of the cycle is attached as a related note carrying the
    // carrier's path and the arc's source span.
    let arcs: Vec<_> = cycle
        .related
        .iter()
        .filter(|r| r.message.contains("explicit arc"))
        .collect();
    assert_eq!(arcs.len(), 2, "{:#?}", cycle.related);
    assert!(arcs.iter().any(|r| r.message.contains("/line")));
    assert!(arcs.iter().any(|r| r.message.contains("/banner")));
    assert!(arcs.iter().all(|r| r.span.is_some()));
}

/// Regression: two explicit arcs of 5·10¹⁸ ms chained along a `seq` put
/// the third caption past `i64` milliseconds. Lint used to saturate and
/// call the document clean while solve overflowed (a panic in debug
/// builds, a wrapped total in release). Both sides now agree: lint denies
/// it as L105 and solve, like a live-edit session, reports a typed
/// `TimeOverflow`.
#[test]
fn a_time_overflow_is_denied_by_lint_and_typed_by_solve() {
    use cmif::core::edit::DocRevision;
    use cmif::scheduler::{EditSession, SchedulerError};
    use std::sync::Arc;

    let source = r#"(cmif
  (channels
    (channel caption text))
  (seq (name crawl)
    (imm (name caption-1) (channel caption) (duration 1000)
      (data "first"))
    (imm (name caption-2) (channel caption) (duration 1000)
      (sync_arc begin must begin "../caption-1" 5000000000000000000 ms "" 0 inf)
      (data "second"))
    (imm (name caption-3) (channel caption) (duration 1000)
      (sync_arc begin must begin "../caption-2" 5000000000000000000 ms "" 0 inf)
      (data "third"))))
"#;
    let doc = parse_document_unvalidated(source).unwrap();

    let report = Linter::new().check(&doc);
    assert!(report.has_deny(), "{}", report.render(None));
    let overflow = report
        .diagnostics()
        .iter()
        .find(|d| d.code == codes::TIME_OVERFLOW)
        .expect("the overflow is reported");
    assert!(overflow.is_deny());
    assert!(
        overflow.message.contains("/caption-3"),
        "{}",
        overflow.message
    );

    let solved = ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default())
        .and_then(|mut g| g.solve(&doc, &doc.catalog));
    assert!(
        matches!(
            solved,
            Err(SchedulerError::TimeOverflow { phase: "solve", .. })
        ),
        "{solved:?}"
    );

    let doc = Arc::new(doc);
    let edits = EditSession::begin(
        DocRevision::initial(Arc::clone(&doc)),
        &doc.catalog,
        ScheduleOptions::default(),
    );
    assert!(
        matches!(
            edits,
            Err(SchedulerError::TimeOverflow { phase: "solve", .. })
        ),
        "the live-edit session applies the same rule"
    );
}
