//! The diagnostics framework: coded, severity-graded, span-carrying
//! findings about a document.
//!
//! The paper spreads its consistency rules over §5.1–§5.3 and expects the
//! authoring environment to show the author *every* violation, not just the
//! first one. A [`Diagnostic`] is one such finding: an error [`Code`] from
//! the registered namespace (L0xx structure, L1xx timing/synchronization,
//! L2xx channels/resources), a [`Severity`] after configuration, a message,
//! and — when the document was parsed from text and a [`SourceMap`] was
//! recorded — the span of the offending source bytes.
//!
//! The analyses that *produce* diagnostics live in `cmif-lint`; this module
//! only defines the vocabulary, so that lower layers (the scheduler's
//! admission gate, the pipeline) can carry diagnostics without depending on
//! the linter.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::node::NodeId;
use crate::span::Span;

// ---------------------------------------------------------------------------
// Codes
// ---------------------------------------------------------------------------

/// A registered lint code, e.g. `L101`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Code(&'static str);

impl Code {
    /// The code's text, e.g. `"L101"`.
    pub fn as_str(&self) -> &'static str {
        self.0
    }

    /// Looks a code up by its text in the registry.
    pub fn parse(text: &str) -> Option<Code> {
        REGISTRY
            .iter()
            .find(|info| info.code.0 == text)
            .map(|info| info.code)
    }

    /// The registry entry for this code.
    pub fn info(&self) -> &'static CodeInfo {
        REGISTRY
            .iter()
            .find(|info| info.code == *self)
            .unwrap_or(&UNREGISTERED)
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// One entry of the code registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeInfo {
    /// The code itself.
    pub code: Code,
    /// One-line summary of what the code reports.
    pub summary: &'static str,
    /// Severity applied when no [`SeverityConfig`] overrides it.
    pub default_severity: Severity,
}

const fn info(code: &'static str, summary: &'static str, severity: Severity) -> CodeInfo {
    CodeInfo {
        code: Code(code),
        summary,
        default_severity: severity,
    }
}

static UNREGISTERED: CodeInfo = info("L000", "unregistered code", Severity::Deny);

/// The registered code namespace: L0xx structure, L1xx timing and
/// synchronization, L2xx channels and resources.
pub static REGISTRY: &[CodeInfo] = &[
    info("L001", "the document has no root node", Severity::Deny),
    info(
        "L002",
        "two direct children of one parent share a name",
        Severity::Deny,
    ),
    info(
        "L003",
        "a root-only attribute appears below the root",
        Severity::Deny,
    ),
    info(
        "L004",
        "an attribute occurs more than once on one node",
        Severity::Deny,
    ),
    info("L005", "a style reference does not resolve", Severity::Deny),
    info(
        "L006",
        "the style dictionary contains a definition cycle",
        Severity::Deny,
    ),
    info(
        "L007",
        "an external node has no file attribute",
        Severity::Deny,
    ),
    info("L008", "a leaf node has no channel", Severity::Deny),
    info(
        "L009",
        "a node is not reachable from the root",
        Severity::Warn,
    ),
    info(
        "L101",
        "synchronization arcs form a positive cycle",
        Severity::Deny,
    ),
    info(
        "L102",
        "a synchronization arc has an invalid delay window",
        Severity::Deny,
    ),
    info(
        "L103",
        "a synchronization arc endpoint does not resolve",
        Severity::Deny,
    ),
    info(
        "L104",
        "constraints on one event pair have no common window",
        Severity::Deny,
    ),
    info(
        "L105",
        "an event time or window bound leaves the representable time range",
        Severity::Deny,
    ),
    info(
        "L201",
        "a channel reference does not resolve",
        Severity::Deny,
    ),
    info(
        "L202",
        "a file attribute names no descriptor in the catalog",
        Severity::Deny,
    ),
    info("L203", "two events overlap on one channel", Severity::Warn),
    info("L204", "the tree exceeds the depth limit", Severity::Deny),
    info(
        "L205",
        "the document exceeds the node-count limit",
        Severity::Deny,
    ),
];

/// Convenient constants for every registered code.
pub mod codes {
    use super::Code;

    /// L001: the document has no root node.
    pub const EMPTY_DOCUMENT: Code = Code("L001");
    /// L002: two direct children of one parent share a name.
    pub const DUPLICATE_SIBLING_NAME: Code = Code("L002");
    /// L003: a root-only attribute appears below the root.
    pub const ROOT_ONLY_ATTRIBUTE: Code = Code("L003");
    /// L004: an attribute occurs more than once on one node.
    pub const DUPLICATE_ATTRIBUTE: Code = Code("L004");
    /// L005: a style reference does not resolve.
    pub const UNKNOWN_STYLE: Code = Code("L005");
    /// L006: the style dictionary contains a definition cycle.
    pub const STYLE_CYCLE: Code = Code("L006");
    /// L007: an external node has no file attribute.
    pub const MISSING_FILE: Code = Code("L007");
    /// L008: a leaf node has no channel.
    pub const MISSING_CHANNEL: Code = Code("L008");
    /// L009: a node is not reachable from the root.
    pub const UNREACHABLE_NODE: Code = Code("L009");
    /// L101: synchronization arcs form a positive cycle.
    pub const ARC_CYCLE: Code = Code("L101");
    /// L102: a synchronization arc has an invalid delay window.
    pub const INVALID_DELAY_WINDOW: Code = Code("L102");
    /// L103: a synchronization arc endpoint does not resolve.
    pub const UNRESOLVED_ARC_ENDPOINT: Code = Code("L103");
    /// L104: constraints on one event pair have no common window.
    pub const CONFLICTING_WINDOWS: Code = Code("L104");
    /// L105: an event time or window bound leaves the representable time
    /// range.
    pub const TIME_OVERFLOW: Code = Code("L105");
    /// L201: a channel reference does not resolve.
    pub const UNKNOWN_CHANNEL: Code = Code("L201");
    /// L202: a file attribute names no descriptor in the catalog.
    pub const DANGLING_DESCRIPTOR: Code = Code("L202");
    /// L203: two events overlap on one channel.
    pub const CHANNEL_DOUBLE_BOOKING: Code = Code("L203");
    /// L204: the tree exceeds the depth limit.
    pub const DEPTH_LIMIT: Code = Code("L204");
    /// L205: the document exceeds the node-count limit.
    pub const NODE_LIMIT: Code = Code("L205");
}

// ---------------------------------------------------------------------------
// Severity
// ---------------------------------------------------------------------------

/// How a diagnostic is acted on. Ordered: `Allow < Warn < Deny`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The finding is suppressed entirely.
    Allow,
    /// The finding is reported but does not gate anything.
    Warn,
    /// The finding rejects the document (at pipeline stage 2 or at engine
    /// admission, wherever the check runs).
    Deny,
}

impl Severity {
    /// The renderer's headline word for this severity.
    pub fn headline(&self) -> &'static str {
        match self {
            Severity::Allow => "allowed",
            Severity::Warn => "warning",
            Severity::Deny => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Allow => f.write_str("allow"),
            Severity::Warn => f.write_str("warn"),
            Severity::Deny => f.write_str("deny"),
        }
    }
}

/// Per-code severity overrides over the registry defaults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeverityConfig {
    /// When set, replaces the registry default for codes with no explicit
    /// override.
    default: Option<Severity>,
    overrides: BTreeMap<Code, Severity>,
}

impl SeverityConfig {
    /// Registry defaults, no overrides.
    pub fn new() -> SeverityConfig {
        SeverityConfig::default()
    }

    /// Replaces the registry default for every code without an explicit
    /// override.
    pub fn default_severity(mut self, severity: Severity) -> SeverityConfig {
        self.default = Some(severity);
        self
    }

    /// Sets one code's severity.
    pub fn set(mut self, code: Code, severity: Severity) -> SeverityConfig {
        self.overrides.insert(code, severity);
        self
    }

    /// Shorthand for [`SeverityConfig::set`] with [`Severity::Allow`].
    pub fn allow(self, code: Code) -> SeverityConfig {
        self.set(code, Severity::Allow)
    }

    /// Shorthand for [`SeverityConfig::set`] with [`Severity::Warn`].
    pub fn warn(self, code: Code) -> SeverityConfig {
        self.set(code, Severity::Warn)
    }

    /// Shorthand for [`SeverityConfig::set`] with [`Severity::Deny`].
    pub fn deny(self, code: Code) -> SeverityConfig {
        self.set(code, Severity::Deny)
    }

    /// The effective severity of a code under this configuration.
    pub fn severity_of(&self, code: Code) -> Severity {
        if let Some(severity) = self.overrides.get(&code) {
            return *severity;
        }
        self.default.unwrap_or(code.info().default_severity)
    }
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// A secondary location or note attached to a [`Diagnostic`] — for cycles,
/// every participating arc becomes one related entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Related {
    /// What this location contributes to the finding.
    pub message: String,
    /// The source bytes, when provenance is available.
    pub span: Option<Span>,
    /// The document path of the node involved, when one exists.
    pub node_path: Option<String>,
}

impl Related {
    /// Creates a related note with neither span nor path.
    pub fn new(message: impl Into<String>) -> Related {
        Related {
            message: message.into(),
            span: None,
            node_path: None,
        }
    }

    /// Attaches the source span.
    pub fn with_span(mut self, span: Span) -> Related {
        self.span = Some(span);
        self
    }

    /// Attaches the document path.
    pub fn at_path(mut self, path: impl Into<String>) -> Related {
        self.node_path = Some(path.into());
        self
    }
}

/// One coded finding about a document.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The registered code.
    pub code: Code,
    /// The effective severity (after configuration).
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// The offending source bytes, when the document carries a
    /// [`SourceMap`].
    pub span: Option<Span>,
    /// The document path of the offending node, when one exists.
    pub node_path: Option<String>,
    /// Secondary locations (e.g. every arc of a cycle).
    pub related: Vec<Related>,
    /// A suggestion for fixing the finding.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with the code's registry-default severity.
    pub fn new(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.info().default_severity,
            message: message.into(),
            span: None,
            node_path: None,
            related: Vec::new(),
            help: None,
        }
    }

    /// Replaces the severity (the linter applies its [`SeverityConfig`]
    /// this way).
    pub fn with_severity(mut self, severity: Severity) -> Diagnostic {
        self.severity = severity;
        self
    }

    /// Attaches the offending source span.
    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = Some(span);
        self
    }

    /// Attaches the offending node's document path.
    pub fn at_path(mut self, path: impl Into<String>) -> Diagnostic {
        self.node_path = Some(path.into());
        self
    }

    /// Attaches a secondary location.
    pub fn with_related(mut self, related: Related) -> Diagnostic {
        self.related.push(related);
        self
    }

    /// Attaches a fix suggestion.
    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }

    /// True when this diagnostic rejects the document.
    pub fn is_deny(&self) -> bool {
        self.severity == Severity::Deny
    }

    /// Renders the diagnostic in the compiler style: headline, location
    /// arrow, the offending source line underlined (when `sources` holds
    /// the text the document was parsed from), related notes, help.
    pub fn render(&self, sources: Option<&SourceMap>) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{}[{}]: {}\n",
            self.severity.headline(),
            self.code,
            self.message
        ));
        let location = match (&self.node_path, self.span) {
            (Some(path), Some(span)) => format!("{path} ({})", span.start),
            (Some(path), None) => path.clone(),
            (None, Some(span)) => span.start.to_string(),
            (None, None) => String::new(),
        };
        if !location.is_empty() {
            out.push_str(&format!("  --> {location}\n"));
        }
        if let (Some(span), Some(sources)) = (self.span, sources) {
            render_snippet(&mut out, span, sources);
        }
        for related in &self.related {
            let suffix = match (&related.node_path, related.span) {
                (Some(path), Some(span)) => format!(" [{path} ({})]", span.start),
                (Some(path), None) => format!(" [{path}]"),
                (None, Some(span)) => format!(" [{}]", span.start),
                (None, None) => String::new(),
            };
            out.push_str(&format!("  = note: {}{suffix}\n", related.message));
        }
        if let Some(help) = &self.help {
            out.push_str(&format!("  = help: {help}\n"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.headline(),
            self.code,
            self.message
        )
    }
}

/// Writes the underlined source excerpt for `span` into `out`.
fn render_snippet(out: &mut String, span: Span, sources: &SourceMap) {
    let Some(line_text) = sources.line(span.start.line) else {
        return;
    };
    let number = span.start.line.to_string();
    let gutter = " ".repeat(number.len());
    // Underline from the start column to the end column on single-line
    // spans, to the end of the line on multi-line ones.
    let start_col = (span.start.column.max(1) as usize) - 1;
    let end_col = if span.is_multiline() {
        line_text.chars().count()
    } else {
        ((span.end.column.max(1) as usize) - 1).min(line_text.chars().count())
    };
    let width = end_col.saturating_sub(start_col).max(1);
    out.push_str(&format!(" {gutter} |\n"));
    out.push_str(&format!(" {number} | {line_text}\n"));
    out.push_str(&format!(
        " {gutter} | {}{}\n",
        " ".repeat(start_col),
        "^".repeat(width)
    ));
    if span.is_multiline() {
        out.push_str(&format!(
            " {gutter} | ...continues through line {}\n",
            span.end.line
        ));
    }
}

/// Renders a batch of diagnostics, separated by blank lines, followed by a
/// one-line tally.
pub fn render_all(diagnostics: &[Diagnostic], sources: Option<&SourceMap>) -> String {
    let mut out = String::new();
    for diagnostic in diagnostics {
        out.push_str(&diagnostic.render(sources));
        out.push('\n');
    }
    let denies = diagnostics.iter().filter(|d| d.is_deny()).count();
    let warns = diagnostics.len() - denies;
    out.push_str(&format!(
        "{} diagnostic(s): {denies} deny, {warns} warn\n",
        diagnostics.len()
    ));
    out
}

// ---------------------------------------------------------------------------
// SourceMap
// ---------------------------------------------------------------------------

/// Provenance of a parsed document: the original source text plus the span
/// of every node expression and every explicit synchronization arc.
///
/// The parser records one of these and hangs it on
/// [`crate::tree::Document::sources`]; documents built programmatically
/// have none, and their diagnostics fall back to node paths.
///
/// Structural edits of a playing document mutate the tree *without*
/// rewriting the source text, so an edited or inserted node's "span" would
/// point at bytes that no longer describe it. Such nodes (and retimed arcs)
/// are marked **synthetic** instead: [`SourceMap::node_span`] /
/// [`SourceMap::arc_span`] return `None` for them, and the diagnostic
/// renderer falls back to the node path — it never caret-underlines the
/// wrong source line.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SourceMap {
    text: String,
    nodes: BTreeMap<u32, Span>,
    /// Arc spans, aligned with `Document::arcs()` order.
    arcs: Vec<Span>,
    /// Nodes whose recorded span (if any) no longer describes them.
    synthetic_nodes: BTreeSet<u32>,
    /// Arc indices whose recorded span no longer describes them.
    synthetic_arcs: BTreeSet<u32>,
}

impl SourceMap {
    /// Creates a source map over the given text.
    pub fn new(text: impl Into<String>) -> SourceMap {
        SourceMap {
            text: text.into(),
            nodes: BTreeMap::new(),
            arcs: Vec::new(),
            synthetic_nodes: BTreeSet::new(),
            synthetic_arcs: BTreeSet::new(),
        }
    }

    /// The source text the document was parsed from.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Records the span of one node's expression.
    pub fn set_node(&mut self, node: NodeId, span: Span) {
        self.nodes.insert(node.index() as u32, span);
    }

    /// Records the span of the next explicit arc, in `Document::arcs()`
    /// order.
    pub fn push_arc(&mut self, span: Span) {
        self.arcs.push(span);
    }

    /// The span of a node's expression, when recorded and still accurate.
    ///
    /// Returns `None` for nodes marked synthetic by a structural edit.
    pub fn node_span(&self, node: NodeId) -> Option<Span> {
        if self.synthetic_nodes.contains(&(node.index() as u32)) {
            return None;
        }
        self.nodes.get(&(node.index() as u32)).copied()
    }

    /// The span of the `index`-th explicit arc (in `Document::arcs()`
    /// order), when recorded and still accurate.
    ///
    /// Returns `None` for arcs marked synthetic by a retime edit.
    pub fn arc_span(&self, index: usize) -> Option<Span> {
        if self.synthetic_arcs.contains(&(index as u32)) {
            return None;
        }
        self.arcs.get(index).copied()
    }

    /// Marks a node's span as synthetic: the node was inserted or rewritten
    /// by a live edit, so whatever span was recorded no longer describes it.
    pub fn mark_synthetic(&mut self, node: NodeId) {
        let index = node.index() as u32;
        self.nodes.remove(&index);
        self.synthetic_nodes.insert(index);
    }

    /// Whether a node's span was invalidated by a live edit.
    pub fn is_synthetic(&self, node: NodeId) -> bool {
        self.synthetic_nodes.contains(&(node.index() as u32))
    }

    /// Marks the `index`-th explicit arc's span as synthetic: the arc was
    /// retimed by a live edit, so its recorded span no longer describes it.
    pub fn mark_arc_synthetic(&mut self, index: usize) {
        self.synthetic_arcs.insert(index as u32);
    }

    /// Whether an arc's span was invalidated by a live edit.
    pub fn is_arc_synthetic(&self, index: usize) -> bool {
        self.synthetic_arcs.contains(&(index as u32))
    }

    /// Drops the span slot of a removed arc, keeping the remaining spans
    /// aligned with `Document::arcs()` after the removal shifts indices
    /// above `index` down by one.
    pub fn remove_arc_span(&mut self, index: usize) {
        if index < self.arcs.len() {
            self.arcs.remove(index);
        }
        let index = index as u32;
        self.synthetic_arcs = self
            .synthetic_arcs
            .iter()
            .filter(|&&i| i != index)
            .map(|&i| if i > index { i - 1 } else { i })
            .collect();
    }

    /// The 1-based `number`-th line of the source, without its terminator.
    pub fn line(&self, number: u32) -> Option<&str> {
        self.text.lines().nth((number.max(1) as usize) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Position;

    #[test]
    fn registry_codes_parse_back() {
        for entry in REGISTRY {
            assert_eq!(Code::parse(entry.code.as_str()), Some(entry.code));
            assert_eq!(entry.code.info().summary, entry.summary);
        }
        assert_eq!(Code::parse("L999"), None);
    }

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in REGISTRY.windows(2) {
            assert!(pair[0].code < pair[1].code, "{} repeats", pair[1].code);
        }
    }

    #[test]
    fn severity_config_layers_overrides_over_defaults() {
        let config = SeverityConfig::new();
        assert_eq!(config.severity_of(codes::ARC_CYCLE), Severity::Deny);
        assert_eq!(
            config.severity_of(codes::CHANNEL_DOUBLE_BOOKING),
            Severity::Warn
        );

        let config = SeverityConfig::new()
            .allow(codes::ARC_CYCLE)
            .deny(codes::CHANNEL_DOUBLE_BOOKING);
        assert_eq!(config.severity_of(codes::ARC_CYCLE), Severity::Allow);
        assert_eq!(
            config.severity_of(codes::CHANNEL_DOUBLE_BOOKING),
            Severity::Deny
        );

        let config = SeverityConfig::new()
            .default_severity(Severity::Warn)
            .deny(codes::ARC_CYCLE);
        assert_eq!(config.severity_of(codes::MISSING_FILE), Severity::Warn);
        assert_eq!(config.severity_of(codes::ARC_CYCLE), Severity::Deny);
    }

    #[test]
    fn severities_order_allow_warn_deny() {
        assert!(Severity::Allow < Severity::Warn);
        assert!(Severity::Warn < Severity::Deny);
    }

    #[test]
    fn render_underlines_the_span() {
        let source = "(seq (name news)\n  (sync_arc begin))";
        let mut sources = SourceMap::new(source);
        let span = Span::new(Position::new(2, 3, 19), Position::new(2, 19, 35));
        sources.set_node(NodeId::from_index(0), span);
        let diagnostic = Diagnostic::new(codes::ARC_CYCLE, "arcs form a cycle")
            .with_span(span)
            .at_path("/news")
            .with_related(Related::new("arc #0").at_path("/news"))
            .with_help("remove one arc");
        let rendered = diagnostic.render(Some(&sources));
        assert!(rendered.contains("error[L101]: arcs form a cycle"));
        assert!(rendered.contains("--> /news (2:3)"));
        assert!(rendered.contains("(sync_arc begin)"));
        assert!(rendered.contains("^^^^^^^^^^^^^^^^"));
        assert!(rendered.contains("= note: arc #0"));
        assert!(rendered.contains("= help: remove one arc"));
    }

    #[test]
    fn render_without_sources_still_names_the_path() {
        let diagnostic = Diagnostic::new(codes::MISSING_FILE, "no file").at_path("/a/b");
        let rendered = diagnostic.render(None);
        assert!(rendered.contains("--> /a/b"));
        assert!(!rendered.contains('^'));
    }

    #[test]
    fn source_map_round_trips_spans() {
        let mut sources = SourceMap::new("(a)\n(b)");
        let a = Span::new(Position::new(1, 1, 0), Position::new(1, 4, 3));
        let b = Span::new(Position::new(2, 1, 4), Position::new(2, 4, 7));
        sources.set_node(NodeId::from_index(0), a);
        sources.push_arc(b);
        assert_eq!(sources.node_span(NodeId::from_index(0)), Some(a));
        assert_eq!(sources.node_span(NodeId::from_index(1)), None);
        assert_eq!(sources.arc_span(0), Some(b));
        assert_eq!(sources.arc_span(1), None);
        assert_eq!(sources.line(2), Some("(b)"));
        assert_eq!(sources.line(9), None);
    }
}
