//! # cmif-lint — static analysis for CMIF documents
//!
//! Where `cmif_core::validate` answers "is this document well-formed?" with
//! the first `CoreError` it meets, this crate runs a *registry* of coded
//! analyses ([`passes::registry`]) and collects every finding as a
//! [`Diagnostic`] — renderable against the source text a parsed document
//! carries in its `SourceMap`, and gradable per code through a
//! [`SeverityConfig`] (`allow`/`warn`/`deny`).
//!
//! The registry covers three namespaces:
//!
//! * **L0xx structure** — the document model's structural rules (duplicate
//!   sibling names, root-only attributes, unresolved and cyclic styles,
//!   missing files/channels, unreachable nodes). They live once, in
//!   `cmif_core::validate`, whose `Findings` pass also decides `validate`'s
//!   verdict; these passes, like L102, L103 and L201, render the findings
//!   of one run of it;
//! * **L1xx timing** — analyses over the *derived* constraint graph:
//!   positive synchronization cycles with the offending arc path (L101),
//!   invalid and mutually unsatisfiable delay windows, and times past the
//!   representable range (L105, the condition solve reports as
//!   `TimeOverflow`);
//! * **L2xx channels and resources** — dangling channel and descriptor
//!   references, static channel double-booking from declared durations, and
//!   configurable depth/size ceilings ([`Limits`]).
//!
//! [`Linter::analyze`] is the one lint run: it runs the structural rule set
//! once, derives the document's constraint graph once, relaxes the graph's
//! base fixpoint once, runs the registry over all three, and returns the
//! report together with the graph, so a caller about to schedule the same
//! revision — the pipeline's stage 5a — solves without deriving or relaxing
//! again. [`Linter::check`] and [`Linter::check_resolved`] are its report
//! half. A linter keeps nothing between runs: every call analyses its
//! document afresh.
//!
//! [`admission_gate`] packages a configured [`Linter`] as an engine-side
//! [`cmif_scheduler::LintGate`], so deny-level documents are refused at
//! admission (`SchedulerError::LintRejected`) before they cost a worker.
//! The gate resolves descriptors against the resolver the submission's job
//! will use.
//!
//! ```
//! use cmif_core::prelude::*;
//! use cmif_lint::Linter;
//!
//! # fn main() -> Result<()> {
//! let mut doc = Document::with_root(NodeKind::Seq);
//! let root = doc.root()?;
//! let leaf = doc.add_imm_text(root, "hello")?;
//! doc.set_attr(leaf, AttrName::Channel, AttrValue::Id("nowhere".into()))?;
//!
//! let report = Linter::new().check(&doc);
//! assert!(report.has_deny()); // L201: channel `nowhere` is not declared
//! # Ok(()) }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod passes;

use cmif_core::descriptor::DescriptorResolver;
use cmif_core::diag::{Diagnostic, Severity, SeverityConfig, SourceMap};
use cmif_core::tree::Document;
use cmif_scheduler::{ConstraintGraph, LintGate, ScheduleOptions};

pub use cmif_core::diag::{codes, Code};
pub use passes::{LintContext, Pass};

/// Resource ceilings enforced by the L204/L205 passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum tree depth before L204 fires.
    pub max_depth: usize,
    /// Maximum node count before L205 fires.
    pub max_nodes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_depth: 256,
            max_nodes: 65_536,
        }
    }
}

/// A configured lint run: severity policy, resource limits, and the
/// derivation options used when passes consult the constraint graph. It
/// holds nothing else: every run analyses its document afresh.
#[derive(Debug, Clone, Default)]
pub struct Linter {
    config: SeverityConfig,
    limits: Limits,
    options: ScheduleOptions,
}

impl Linter {
    /// A linter with registry-default severities and default limits.
    pub fn new() -> Linter {
        Linter::default()
    }

    /// Replaces the severity policy.
    pub fn with_config(mut self, config: SeverityConfig) -> Linter {
        self.config = config;
        self
    }

    /// Replaces the resource ceilings.
    pub fn with_limits(mut self, limits: Limits) -> Linter {
        self.limits = limits;
        self
    }

    /// Replaces the constraint-derivation options (they decide, for example,
    /// the assumed duration of discrete media, which feeds L203).
    pub fn with_options(mut self, options: ScheduleOptions) -> Linter {
        self.options = options;
        self
    }

    /// The severity policy in force.
    pub fn config(&self) -> &SeverityConfig {
        &self.config
    }

    /// Always `(0, 0)`: the linter keeps no state between runs, so no run
    /// hits or misses a cache. It stays only because the committed
    /// benchmark reads it (perfbench's `lint.cache_hit_ratio`).
    pub fn cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Runs every registered pass over the document and grades the findings
    /// through the severity policy. `Allow`ed findings are dropped.
    /// External data references resolve against the document's own catalog;
    /// use [`Linter::check_resolved`] for store-backed documents.
    pub fn check(&self, doc: &Document) -> LintReport {
        self.check_resolved(doc, &doc.catalog)
    }

    /// [`Linter::check`] with an external descriptor resolver — e.g. a
    /// block store's catalog when the document's media live in a store
    /// rather than its own catalog. The report half of
    /// [`Linter::analyze`].
    pub fn check_resolved(&self, doc: &Document, resolver: &dyn DescriptorResolver) -> LintReport {
        self.analyze(doc, resolver).report
    }

    /// Analyses the document once: runs the structural rule set, derives
    /// its constraint graph against `resolver`, relaxes the graph's base
    /// fixpoint, runs every registered pass over them, and returns the
    /// graded report together with the graph. A caller about to schedule
    /// the same revision against the same resolver solves that graph
    /// ([`ConstraintGraph::solve`]) instead of deriving and relaxing it
    /// again — the pipeline's stage 5a does this.
    pub fn analyze(&self, doc: &Document, resolver: &dyn DescriptorResolver) -> Analysis {
        let ctx = LintContext::with_resolver(doc, resolver, &self.options, &self.limits);
        let mut raw = Vec::new();
        for pass in passes::registry() {
            pass.run(&ctx, &mut raw);
        }
        let diagnostics = raw
            .into_iter()
            .filter_map(|diag| match self.config.severity_of(diag.code) {
                Severity::Allow => None,
                severity => Some(diag.with_severity(severity)),
            })
            .collect();
        Analysis {
            report: LintReport { diagnostics },
            graph: ctx.into_graph(),
        }
    }
}

/// One analysis of a document ([`Linter::analyze`]).
#[derive(Debug)]
pub struct Analysis {
    /// Every graded finding, in pass order.
    pub report: LintReport,
    /// The derived constraint graph, its base fixpoint already relaxed
    /// unless relaxation failed (a positive cycle or an overflow, which a
    /// solve of the graph reports again). Derived with the linter's
    /// schedule options against the resolver the analysis was given, so
    /// it is only valid for a solve of the same revision against an
    /// unchanged resolver. `None` when derivation failed.
    pub graph: Option<ConstraintGraph>,
}

/// The outcome of one lint run: every graded finding, in pass order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Every finding, in pass order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Consumes the report, yielding the findings.
    pub fn into_diagnostics(self) -> Vec<Diagnostic> {
        self.diagnostics
    }

    /// True when no pass found anything (at warn level or above).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one finding is deny-severity.
    pub fn has_deny(&self) -> bool {
        self.diagnostics.iter().any(Diagnostic::is_deny)
    }

    /// The deny-severity findings only.
    pub fn denials(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_deny())
    }

    /// Renders every finding, rustc-style, against the given source map
    /// (usually `doc.sources.as_deref()`).
    pub fn render(&self, sources: Option<&SourceMap>) -> String {
        cmif_core::diag::render_all(&self.diagnostics, sources)
    }
}

/// Packages a linter as an engine admission gate
/// ([`cmif_scheduler::EngineConfig::lint_gate`]).
///
/// Each submission is checked ([`Linter::check_resolved`]) against the
/// descriptor resolver its job will resolve against: the submission's
/// resolver, else the document's own catalog. A submission's
/// `LintPolicy::Configured` severity config replaces the linter's own for
/// that document; `LintPolicy::Default` uses the linter as given (and
/// `LintPolicy::Skip` never reaches the closure).
pub fn admission_gate(linter: Linter) -> LintGate {
    LintGate::new(move |doc, resolver, config| {
        let run = match config {
            Some(config) => linter.clone().with_config(config.clone()),
            None => linter.clone(),
        };
        run.check_resolved(doc, resolver).into_diagnostics()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmif_core::arc::SyncArc;
    use cmif_core::attr::AttrName;
    use cmif_core::channel::{ChannelDef, MediaKind};
    use cmif_core::descriptor::DataDescriptor;
    use cmif_core::diag::codes;
    use cmif_core::node::NodeKind;
    use cmif_core::style::StyleDef;
    use cmif_core::time::{MediaTime, TimeMs};
    use cmif_core::value::AttrValue;

    fn valid_doc() -> Document {
        let mut doc = Document::with_root(NodeKind::Seq);
        let root = doc.root().unwrap();
        doc.channels
            .define(ChannelDef::new("audio", MediaKind::Audio))
            .unwrap();
        doc.catalog
            .register(
                DataDescriptor::new("clip", MediaKind::Audio, "pcm8")
                    .with_duration(TimeMs::from_secs(4)),
            )
            .unwrap();
        let leaf = doc.add_ext(root).unwrap();
        doc.set_attr(leaf, AttrName::Name, AttrValue::Id("voice".into()))
            .unwrap();
        doc.set_attr(leaf, AttrName::Channel, AttrValue::Id("audio".into()))
            .unwrap();
        doc.set_attr(leaf, AttrName::File, AttrValue::Str("clip".into()))
            .unwrap();
        doc
    }

    fn codes_of(report: &LintReport) -> Vec<&'static str> {
        report
            .diagnostics()
            .iter()
            .map(|d| d.code.as_str())
            .collect()
    }

    #[test]
    fn a_valid_document_is_clean() {
        let report = Linter::new().check(&valid_doc());
        assert!(report.is_clean(), "{}", report.render(None));
    }

    #[test]
    fn an_empty_document_reports_l001() {
        let report = Linter::new().check(&Document::new());
        assert_eq!(codes_of(&report), ["L001"]);
        assert!(report.has_deny());
    }

    #[test]
    fn every_migrated_structural_rule_has_a_coded_pass() {
        let mut doc = valid_doc();
        let root = doc.root().unwrap();
        // L002: duplicate sibling name.
        let dup = doc.add_imm_text(root, "x").unwrap();
        doc.set_attr(dup, AttrName::Name, AttrValue::Id("voice".into()))
            .unwrap();
        doc.set_attr(dup, AttrName::Channel, AttrValue::Id("audio".into()))
            .unwrap();
        // L005 + L006: a style cycle plus a dangling style reference.
        doc.styles
            .define(StyleDef::new("a").with_parent("b"))
            .unwrap();
        doc.styles
            .define(StyleDef::new("b").with_parent("a"))
            .unwrap();
        doc.set_attr(dup, AttrName::Style, AttrValue::Id("missing".into()))
            .unwrap();
        // L007: external node without a file; L008 is covered by a bare leaf.
        let bare_ext = doc.add_ext(root).unwrap();
        doc.set_attr(bare_ext, AttrName::Channel, AttrValue::Id("audio".into()))
            .unwrap();
        doc.add_imm_text(root, "orphan").unwrap();
        // L201: undefined channel.
        let misrouted = doc.add_imm_text(root, "y").unwrap();
        doc.set_attr(misrouted, AttrName::Channel, AttrValue::Id("video".into()))
            .unwrap();

        let report = Linter::new().check(&doc);
        let found = codes_of(&report);
        for expected in ["L002", "L005", "L006", "L007", "L008", "L201"] {
            assert!(found.contains(&expected), "missing {expected} in {found:?}");
        }
    }

    #[test]
    fn arc_cycles_are_reported_with_their_route() {
        let mut doc = valid_doc();
        let root = doc.root().unwrap();
        let line = doc.add_imm_text(root, "caption line").unwrap();
        doc.set_attr(line, AttrName::Name, AttrValue::Id("line".into()))
            .unwrap();
        doc.set_attr(line, AttrName::Channel, AttrValue::Id("audio".into()))
            .unwrap();
        let voice = doc.find("/voice").unwrap();
        doc.add_arc(
            line,
            SyncArc::hard_start("../voice", "").with_offset(MediaTime::seconds(1)),
        )
        .unwrap();
        doc.add_arc(
            voice,
            SyncArc::hard_start("../line", "").with_offset(MediaTime::seconds(1)),
        )
        .unwrap();

        let report = Linter::new().check(&doc);
        let cycle = report
            .diagnostics()
            .iter()
            .find(|d| d.code == codes::ARC_CYCLE)
            .expect("cycle diagnostic");
        assert!(cycle.is_deny());
        // The route names both nodes by path, and the related entries name
        // the explicit arcs that close the loop.
        assert!(cycle.message.contains("/voice"), "{}", cycle.message);
        assert!(cycle.message.contains("/line"), "{}", cycle.message);
        assert!(
            cycle
                .related
                .iter()
                .any(|r| r.message.contains("explicit arc")),
            "{:?}",
            cycle.related
        );
    }

    #[test]
    fn conflicting_windows_on_one_event_pair_are_reported() {
        use cmif_core::time::{DelayMs, MaxDelay};
        let mut doc = valid_doc();
        let root = doc.root().unwrap();
        let line = doc.add_imm_text(root, "caption line").unwrap();
        doc.set_attr(line, AttrName::Name, AttrValue::Id("line".into()))
            .unwrap();
        doc.set_attr(line, AttrName::Channel, AttrValue::Id("audio".into()))
            .unwrap();
        // Two arcs over the same pair: one demands ≥ 2 s, the other ≤ 0.5 s.
        doc.add_arc(
            line,
            SyncArc::hard_start("../voice", "").with_offset(MediaTime::seconds(2)),
        )
        .unwrap();
        doc.add_arc(
            line,
            SyncArc::hard_start("../voice", "")
                .with_window(DelayMs::ZERO, MaxDelay::Bounded(DelayMs::from_millis(500))),
        )
        .unwrap();

        let report = Linter::new().check(&doc);
        assert!(
            codes_of(&report).contains(&"L104"),
            "{}",
            report.render(None)
        );
    }

    #[test]
    fn double_booked_channels_warn_but_do_not_deny() {
        let mut doc = valid_doc();
        let root = doc.root().unwrap();
        let par = doc.add_par(root).unwrap();
        for name in ["first", "second"] {
            let leaf = doc.add_imm_text(par, "text").unwrap();
            doc.set_attr(leaf, AttrName::Name, AttrValue::Id(name.into()))
                .unwrap();
            doc.set_attr(leaf, AttrName::Channel, AttrValue::Id("audio".into()))
                .unwrap();
        }
        let report = Linter::new().check(&doc);
        let booking = report
            .diagnostics()
            .iter()
            .find(|d| d.code == codes::CHANNEL_DOUBLE_BOOKING)
            .expect("double-booking diagnostic");
        assert!(!booking.is_deny());
        assert!(!report.has_deny(), "{}", report.render(None));
    }

    #[test]
    fn unreachable_nodes_and_dangling_descriptors_are_found() {
        let mut doc = valid_doc();
        // Orphan the whole original tree by installing a fresh root…
        let new_root = doc.set_root(NodeKind::Seq);
        // …and hang a leaf with a descriptor the catalog does not know.
        let leaf = doc.add_ext(new_root).unwrap();
        doc.set_attr(leaf, AttrName::Channel, AttrValue::Id("audio".into()))
            .unwrap();
        doc.set_attr(leaf, AttrName::File, AttrValue::Str("nowhere".into()))
            .unwrap();

        let report = Linter::new().check(&doc);
        let found = codes_of(&report);
        assert!(found.contains(&"L009"), "{found:?}");
        assert!(found.contains(&"L202"), "{found:?}");
    }

    #[test]
    fn limits_gate_depth_and_size() {
        let doc = valid_doc();
        let tight = Limits {
            max_depth: 0,
            max_nodes: 1,
        };
        let report = Linter::new().with_limits(tight).check(&doc);
        let found = codes_of(&report);
        assert!(found.contains(&"L204"), "{found:?}");
        assert!(found.contains(&"L205"), "{found:?}");
    }

    #[test]
    fn severity_config_regrades_and_drops_findings() {
        let mut doc = valid_doc();
        let root = doc.root().unwrap();
        doc.add_imm_text(root, "orphan").unwrap(); // L008, deny by default

        let allowed =
            Linter::new().with_config(SeverityConfig::new().allow(codes::MISSING_CHANNEL));
        assert!(allowed.check(&doc).is_clean());

        let warned = Linter::new().with_config(SeverityConfig::new().warn(codes::MISSING_CHANNEL));
        let report = warned.check(&doc);
        assert!(!report.is_clean());
        assert!(!report.has_deny());
    }

    #[test]
    fn parsed_documents_get_spans_on_their_diagnostics() {
        let source = "\
(cmif
  (channels (channel audio audio))
  (seq (name news)
    (ext (name voice) (channel audio) (file \"missing-clip\"))))";
        let doc = cmif_format::parse_document(source).expect("document parses");
        let report = Linter::new().check(&doc);
        let dangling = report
            .diagnostics()
            .iter()
            .find(|d| d.code == codes::DANGLING_DESCRIPTOR)
            .expect("L202 diagnostic");
        let span = dangling.span.expect("parsed docs carry spans");
        let text = span.text(source).expect("span lies inside the source");
        assert!(text.contains("missing-clip"), "{text}");
        // The rendered form underlines the offending bytes.
        let rendered = dangling.render(doc.sources.as_deref());
        assert!(rendered.contains('^'), "{rendered}");
    }

    #[test]
    fn the_admission_gate_refuses_deny_documents() {
        use cmif_scheduler::{LintPolicy, SchedulerError};
        let gate = admission_gate(Linter::new());
        let mut doc = valid_doc();
        let root = doc.root().unwrap();
        doc.add_imm_text(root, "orphan").unwrap(); // L008

        let err = gate
            .inspect(&doc, &LintPolicy::Default)
            .expect_err("deny finding refuses admission");
        assert!(matches!(err, SchedulerError::LintRejected { .. }));

        assert!(gate.inspect(&doc, &LintPolicy::Skip).is_ok());
        let relaxed = LintPolicy::Configured(SeverityConfig::new().allow(codes::MISSING_CHANNEL));
        assert!(gate.inspect(&doc, &relaxed).is_ok());
        assert!(gate.inspect(&valid_doc(), &LintPolicy::Default).is_ok());
    }

    #[test]
    fn cached_and_cold_cycle_reports_are_identical() {
        let mut doc = valid_doc();
        let root = doc.root().unwrap();
        let line = doc.add_imm_text(root, "caption line").unwrap();
        doc.set_attr(line, AttrName::Name, AttrValue::Id("line".into()))
            .unwrap();
        doc.set_attr(line, AttrName::Channel, AttrValue::Id("audio".into()))
            .unwrap();
        let voice = doc.find("/voice").unwrap();
        doc.add_arc(
            line,
            SyncArc::hard_start("../voice", "").with_offset(MediaTime::seconds(1)),
        )
        .unwrap();
        doc.add_arc(
            voice,
            SyncArc::hard_start("../line", "").with_offset(MediaTime::seconds(1)),
        )
        .unwrap();

        let linter = Linter::new();
        let cold = linter.check(&doc);
        let warm = linter.check(&doc);
        assert_eq!(cold, warm, "a cached fixpoint must not change findings");
        assert!(cold
            .diagnostics()
            .iter()
            .any(|d| d.code == codes::ARC_CYCLE));
    }

    #[test]
    fn concurrent_checks_through_one_linter_match_sequential_runs() {
        // Distinct revisions: every document is built afresh, and every
        // third one carries an arc cycle, so reports differ between them.
        let docs: Vec<Document> = (0..12)
            .map(|i| {
                let mut doc = valid_doc();
                let root = doc.root().unwrap();
                let par = doc.add_par(root).unwrap();
                doc.set_attr(par, AttrName::Name, AttrValue::Id("captions".into()))
                    .unwrap();
                for caption in 0..=i {
                    let leaf = doc.add_imm_text(par, "caption").unwrap();
                    let name = AttrValue::Id(format!("caption-{caption}").into());
                    doc.set_attr(leaf, AttrName::Name, name).unwrap();
                    doc.set_attr(leaf, AttrName::Channel, AttrValue::Id("audio".into()))
                        .unwrap();
                    doc.set_attr(leaf, AttrName::Duration, AttrValue::Number(500 * i))
                        .unwrap();
                }
                if i % 3 == 0 {
                    let voice = doc.find("/voice").unwrap();
                    let first = doc.children(par).unwrap()[0];
                    let offset = MediaTime::seconds(1);
                    doc.add_arc(
                        voice,
                        SyncArc::hard_start("../captions/caption-0", "").with_offset(offset),
                    )
                    .unwrap();
                    doc.add_arc(
                        first,
                        SyncArc::hard_start("../../voice", "").with_offset(offset),
                    )
                    .unwrap();
                }
                doc
            })
            .collect();
        let sequential: Vec<LintReport> = docs.iter().map(|doc| Linter::new().check(doc)).collect();
        assert!(sequential
            .iter()
            .any(|r| r.diagnostics().iter().any(|d| d.code == codes::ARC_CYCLE)));

        const THREADS: usize = 4;
        const ROUNDS: usize = 3;
        let linter = Linter::new();
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (linter, docs, sequential) = (linter.clone(), &docs, &sequential);
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        for i in (thread..docs.len()).step_by(THREADS) {
                            assert_eq!(linter.check(&docs[i]), sequential[i], "document {i}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn the_registry_runs_at_least_eight_passes_with_unique_codes() {
        let registry = passes::registry();
        assert!(registry.len() >= 8, "only {} passes", registry.len());
        let mut seen = std::collections::BTreeSet::new();
        for pass in registry {
            assert!(seen.insert(pass.code), "duplicate code {}", pass.code);
            assert!(!pass.name.is_empty());
        }
    }
}
