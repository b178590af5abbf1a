//! The pass registry: every analysis the linter runs, one diagnostic code
//! each.
//!
//! The L0xx codes, L102, L103 and L201 are the structural rules of the
//! document model. They are implemented once, in `cmif_core::validate`,
//! whose [`Findings`] pass both decides `validate`'s verdict and, run once
//! per [`LintContext`], supplies these passes: each renders the findings
//! under its code and walks nothing itself. The other L1xx passes consult
//! the *derived* constraint graph (`cmif_scheduler::ConstraintGraph`,
//! derived and relaxed once per [`LintContext`]), so they catch timing
//! contradictions — positive synchronization cycles, empty delay windows —
//! statically, before a document ever costs an engine worker. The other
//! L2xx passes cover descriptors and resources.

use std::sync::Arc;

use cmif_core::descriptor::DescriptorResolver;
use cmif_core::diag::{codes, Code, Diagnostic, Related};
use cmif_core::error::CoreError;
use cmif_core::node::{NodeId, NodeKind};
use cmif_core::span::Span;
use cmif_core::tree::{unassigned_channel, Document};
use cmif_core::validate::{Endpoint, Finding, Findings, Subject};
use cmif_scheduler::graph::{relax_traced, window_violations};
use cmif_scheduler::{
    derive_constraints, Constraint, ConstraintGraph, ConstraintOrigin, EventPoint, PointTimes,
    ScheduleOptions, SchedulerError,
};

use crate::{Limits, LintCache};

/// The relaxed ASAP fixpoint of one document revision's derived constraint
/// set — or the positive cycle or time overflow that prevents one.
///
/// Computed once per analysis, through the document's [`ConstraintGraph`]
/// itself ([`ConstraintGraph::base_fixpoint`]): the graph keeps the
/// fixpoint, so the solve that follows a lint run on the same graph
/// (`crate::Analysis::graph`) does not relax again. Every timing pass
/// shares it — L101 reports the cycle, L105 the overflow, L203 reads the
/// event times — and no pass relaxes on its own. A cycle's route is
/// recovered with [`relax_traced`] only after the plain relax has found the
/// cycle. The [`crate::Linter`] caches fixpoints per document revision (see
/// [`LintCache`]); a cached one seeds the next graph of that revision
/// ([`ConstraintGraph::from_relaxed`]).
#[derive(Debug)]
pub struct Fixpoint {
    /// The base fixpoint; `None` when relaxation failed.
    times: Option<PointTimes>,
    /// The recovered cycle when relaxation diverged.
    cycle: Option<CycleTrace>,
    /// The point whose time or window bound leaves the `i64` range, when
    /// the fixpoint (or solve's window check over it) overflows.
    overflow: Option<EventPoint>,
}

/// The positive cycle recovered from a diverging relaxation: constraint
/// indices along the loop (empty when recovery failed) and the size of the
/// event-point graph (for the fallback message).
#[derive(Debug)]
struct CycleTrace {
    route: Vec<usize>,
    points: usize,
}

impl Fixpoint {
    /// Wraps `constraints` in a graph and relaxes its base fixpoint, which
    /// the graph keeps. `None` only when the document has no root.
    pub(crate) fn analyze(
        doc: &Document,
        constraints: Vec<Constraint>,
    ) -> Option<(ConstraintGraph, Arc<Fixpoint>)> {
        let mut graph = ConstraintGraph::from_constraints(doc, constraints).ok()?;
        let fixpoint = Arc::new(Fixpoint::compute(doc, &mut graph));
        Some((graph, fixpoint))
    }

    /// Relaxes the graph's base constraints, caching the fixpoint in the
    /// graph. Windows are checked over the fixpoint exactly as solve checks
    /// them, so an overflowing bound surfaces here rather than in the
    /// solver; on a positive cycle the kernel re-runs with predecessor
    /// tracking to recover the arcs that form it.
    fn compute(doc: &Document, graph: &mut ConstraintGraph) -> Fixpoint {
        let relaxed = graph.base_fixpoint().cloned();
        let constraints = graph.base_constraints();
        let checked = match &relaxed {
            Ok(times) => window_violations(constraints, times, "lint").map(drop),
            Err(error) => Err(error.clone()),
        };
        let (cycle, overflow) = match checked {
            Err(SchedulerError::ConstraintCycle { points, .. }) => {
                let (_, route) = relax_traced(doc, constraints, "lint");
                (Some(CycleTrace { route, points }), None)
            }
            Err(SchedulerError::TimeOverflow { point, .. }) => (None, Some(point)),
            _ => (None, None),
        };
        Fixpoint {
            times: relaxed.ok(),
            cycle,
            overflow,
        }
    }

    /// A graph over `constraints` — the set this fixpoint was computed
    /// from, re-derived for the same revision — that starts from this
    /// fixpoint instead of relaxing again.
    pub(crate) fn seed(
        &self,
        doc: &Document,
        constraints: Vec<Constraint>,
    ) -> Option<ConstraintGraph> {
        match &self.times {
            Some(times) => ConstraintGraph::from_relaxed(doc, constraints, times.clone()),
            None => ConstraintGraph::from_constraints(doc, constraints),
        }
        .ok()
    }

    /// The event times at the fixpoint; `None` when relaxation failed or a
    /// time or window bound overflowed.
    pub(crate) fn times(&self) -> Option<&PointTimes> {
        if self.overflow.is_some() {
            None
        } else {
            self.times.as_ref()
        }
    }
}

/// Everything a pass may look at: the document, the derivation policy, the
/// resource ceilings, the structural rule set's findings, and the
/// document's analysed constraint graph (derived and relaxed once, shared
/// by the L1xx/L2xx passes).
pub struct LintContext<'a> {
    /// The document under analysis.
    pub doc: &'a Document,
    /// Derivation policy used when consulting the constraint graph.
    pub options: &'a ScheduleOptions,
    /// Resource ceilings enforced by L204/L205.
    pub limits: &'a Limits,
    /// Where external data references resolve: the document's own catalog
    /// by default, a block store's catalog when the pipeline lints a
    /// store-backed document. Consulted by L202 and by derivation (leaf
    /// durations come from descriptors).
    resolver: &'a dyn DescriptorResolver,
    /// The derived constraint graph with its base fixpoint relaxed, and
    /// that fixpoint; `None` when derivation itself failed (dangling
    /// endpoints and the like — reported by their own passes).
    analysis: Option<(ConstraintGraph, Arc<Fixpoint>)>,
    /// The structural rule set's findings, which the structural passes
    /// render.
    findings: Findings,
}

impl<'a> LintContext<'a> {
    /// Prepares a context resolving descriptors against the document's own
    /// catalog (self-contained documents).
    pub fn new(doc: &'a Document, options: &'a ScheduleOptions, limits: &'a Limits) -> Self {
        LintContext::with_resolver(doc, &doc.catalog, options, limits)
    }

    /// Prepares a context with an external descriptor resolver (e.g. a
    /// block store's catalog), deriving the constraint graph and relaxing
    /// it once up front.
    pub fn with_resolver(
        doc: &'a Document,
        resolver: &'a dyn DescriptorResolver,
        options: &'a ScheduleOptions,
        limits: &'a Limits,
    ) -> Self {
        LintContext::analyzed(doc, resolver, options, limits, None)
    }

    /// [`LintContext::with_resolver`], consulting `cache` for the fixpoint.
    pub(crate) fn analyzed(
        doc: &'a Document,
        resolver: &'a dyn DescriptorResolver,
        options: &'a ScheduleOptions,
        limits: &'a Limits,
        cache: Option<&LintCache>,
    ) -> Self {
        let analysis = derive_constraints(doc, resolver, options)
            .ok()
            .and_then(|constraints| match cache {
                Some(cache) => cache.lookup_or_compute(doc, options, constraints),
                None => Fixpoint::analyze(doc, constraints),
            });
        LintContext {
            doc,
            options,
            limits,
            resolver,
            analysis,
            findings: Findings::of(doc),
        }
    }

    /// Gives up the analysed graph (see [`crate::Analysis::graph`]).
    pub(crate) fn into_graph(self) -> Option<ConstraintGraph> {
        self.analysis.map(|(graph, _)| graph)
    }

    /// The derived constraint set, when derivation succeeded.
    fn constraints(&self) -> Option<&[Constraint]> {
        self.analysis
            .as_ref()
            .map(|(graph, _)| graph.base_constraints())
    }

    /// The shared relaxation fixpoint; `None` when constraint derivation
    /// failed.
    fn fixpoint(&self) -> Option<&Fixpoint> {
        self.analysis.as_ref().map(|(_, fixpoint)| &**fixpoint)
    }

    fn node_span(&self, node: NodeId) -> Option<Span> {
        self.doc.sources.as_ref().and_then(|s| s.node_span(node))
    }

    fn arc_span(&self, index: usize) -> Option<Span> {
        self.doc.sources.as_ref().and_then(|s| s.arc_span(index))
    }

    fn path_str(&self, node: NodeId) -> String {
        self.doc
            .path_of(node)
            .map(|p| p.to_string())
            .unwrap_or_else(|_| node.to_string())
    }

    fn point_str(&self, point: &EventPoint) -> String {
        format!("{}({})", point.anchor, self.path_str(point.node))
    }

    /// Anchors a diagnostic on a node: its path plus, when the document was
    /// parsed from text, its source span.
    fn at_node(&self, diag: Diagnostic, node: NodeId) -> Diagnostic {
        let diag = diag.at_path(self.path_str(node));
        match self.node_span(node) {
            Some(span) => diag.with_span(span),
            None => diag,
        }
    }

    /// Anchors a diagnostic on an explicit arc: the carrier's path plus the
    /// arc's own source span.
    fn at_arc(&self, diag: Diagnostic, carrier: NodeId, index: usize) -> Diagnostic {
        let diag = diag.at_path(self.path_str(carrier));
        match self.arc_span(index) {
            Some(span) => diag.with_span(span),
            None => diag,
        }
    }

    /// One human-readable line for a constraint, naming explicit arcs by
    /// carrier and index and default arcs by their structural origin.
    fn describe_constraint(&self, constraint: &Constraint) -> Related {
        let window = match constraint.max_delay_ms {
            Some(max) => format!("[{}, {}]ms", constraint.min_delay_ms, max),
            None => format!("[{}, inf]ms", constraint.min_delay_ms),
        };
        let ends = format!(
            "{} -> {} (+{}ms, window {window})",
            self.point_str(&constraint.source),
            self.point_str(&constraint.target),
            constraint.offset_ms,
        );
        match constraint.origin {
            ConstraintOrigin::Explicit { carrier, index } => {
                let related = Related::new(format!(
                    "explicit arc #{index} carried by {}: {ends}",
                    self.path_str(carrier)
                ))
                .at_path(self.path_str(carrier));
                match self.arc_span(index) {
                    Some(span) => related.with_span(span),
                    None => related,
                }
            }
            ConstraintOrigin::SequentialOrder => {
                Related::new(format!("implicit sequential-order constraint: {ends}"))
            }
            ConstraintOrigin::ParallelFork => {
                Related::new(format!("implicit parallel-fork constraint: {ends}"))
            }
            ConstraintOrigin::ParallelJoin => {
                Related::new(format!("implicit parallel-join constraint: {ends}"))
            }
            ConstraintOrigin::LeafDuration => {
                Related::new(format!("intrinsic leaf-duration constraint: {ends}"))
            }
        }
    }

    /// A structural finding as a diagnostic: the message its error calls
    /// for, anchored on its node or arc.
    fn render(&self, finding: &Finding) -> Diagnostic {
        let path = |node| self.path_str(node);
        let at = match finding.subject {
            Subject::Node(node) => path(node),
            Subject::Arc(index, _) => path(self.carrier(index)),
            Subject::Document | Subject::Style(_) => String::new(),
        };
        let message = match (&finding.error, finding.subject) {
            (None, Subject::Node(id)) => {
                let kind = self.doc.node(id).map_or("node", |n| n.kind.keyword());
                format!("{kind} node {id} is not reachable from the root")
            }
            (Some(CoreError::EmptyDocument), _) => {
                "the document has no root node, so there is nothing to present".into()
            }
            (Some(CoreError::DuplicateSiblingName { parent, name }), _) => {
                let parent = path(*parent);
                format!("the name `{name}` is used by more than one child of {parent}")
            }
            (Some(CoreError::UnknownNode { node }), _) => {
                format!("{at} lists child {node}, which is not a node of the document")
            }
            (Some(CoreError::RootOnlyAttribute { name, .. }), _) => {
                format!("attribute `{name}` may only appear on the root, not on {at}")
            }
            (Some(CoreError::DuplicateAttribute { name, .. }), _) => {
                format!("attribute `{name}` occurs more than once on {at}")
            }
            (Some(CoreError::UnknownStyle { style }), Subject::Style(position)) => {
                let def = self.doc.styles.iter().nth(position);
                let name = def.map_or("", |def| def.name.as_str());
                format!("style `{name}` builds on `{style}`, which is not defined")
            }
            (Some(CoreError::UnknownStyle { style }), _) => {
                format!("{at} references style `{style}`, which is not defined")
            }
            (Some(CoreError::StyleCycle { style }), _) => {
                format!("style `{style}` is part of a definition cycle")
            }
            (Some(CoreError::MissingFile { .. }), _) => {
                format!("external node {at} has no file attribute, own or inherited")
            }
            (Some(CoreError::MissingChannel { .. }), _) => {
                format!("leaf {at} has no channel, so no output device would play it")
            }
            (Some(CoreError::UnknownChannel { channel }), _) => {
                format!("{at} references channel `{channel}`, which is not declared")
            }
            (Some(CoreError::UnresolvedArcEndpoint { path }), Subject::Arc(index, end)) => {
                let role = match end {
                    Some(Endpoint::Destination) => "destination",
                    _ => "source",
                };
                format!("arc #{index} carried by {at}: {role} `{path}` does not resolve to a node")
            }
            (Some(error), Subject::Arc(index, _)) => {
                format!("arc #{index} carried by {at}: {error}")
            }
            // A `style` value that is neither a name nor a list of names.
            (Some(error), _) => format!("{at}: {error}"),
            (None, _) => String::new(),
        };
        let help = match &finding.error {
            None => Some("the node was detached (or orphaned by set_root) and will never play"),
            Some(CoreError::EmptyDocument) => Some("give the document a seq or par root"),
            Some(CoreError::DuplicateSiblingName { .. }) => {
                Some("sibling names must be unique so paths resolve unambiguously")
            }
            Some(CoreError::StyleCycle { .. }) => {
                Some("style expansion would recurse forever; break the parent loop")
            }
            Some(CoreError::UnresolvedArcEndpoint { .. }) => {
                Some("arc endpoints are resolved relative to the carrier node")
            }
            Some(CoreError::UnknownChannel { .. }) => {
                Some("declare the channel in the document's channel dictionary")
            }
            Some(_) => None,
        };
        let diag = Diagnostic::new(finding.code, message);
        let diag = match help {
            Some(help) => diag.with_help(help),
            None => diag,
        };
        match finding.subject {
            Subject::Node(node) => self.at_node(diag, node),
            Subject::Arc(index, _) => self.at_arc(diag, self.carrier(index), index),
            Subject::Document | Subject::Style(_) => diag,
        }
    }

    /// The node carrying the `index`-th explicit arc.
    fn carrier(&self, index: usize) -> NodeId {
        self.doc
            .arcs()
            .get(index)
            .map_or(NodeId::detached(), |(carrier, _)| *carrier)
    }
}

/// One registered analysis: a code, a short name, and the function that
/// appends its findings to the diagnostic list.
pub struct Pass {
    /// The diagnostic code this pass emits.
    pub code: Code,
    /// Short kebab-case name, for `--pass` style selection and reports.
    pub name: &'static str,
    /// The pass's own analysis; `None` for a structural code, whose
    /// findings come from the context's one run of the rule set.
    run: Option<fn(&LintContext<'_>, &mut Vec<Diagnostic>)>,
}

impl Pass {
    /// Runs the pass, appending findings to `out`.
    pub fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        match self.run {
            Some(run) => run(ctx, out),
            None => out.extend(
                ctx.findings
                    .iter()
                    .filter(|finding| finding.code == self.code)
                    .map(|finding| ctx.render(finding)),
            ),
        }
    }

    /// A structural pass: it renders the rule set's findings under `code`.
    const fn rule(code: Code, name: &'static str) -> Pass {
        Pass {
            code,
            name,
            run: None,
        }
    }

    /// A pass with an analysis of its own.
    const fn analysis(
        code: Code,
        name: &'static str,
        run: fn(&LintContext<'_>, &mut Vec<Diagnostic>),
    ) -> Pass {
        Pass {
            code,
            name,
            run: Some(run),
        }
    }
}

/// Every registered pass, in execution (and code) order.
pub fn registry() -> &'static [Pass] {
    PASSES
}

static PASSES: &[Pass] = &[
    Pass::rule(codes::EMPTY_DOCUMENT, "empty-document"),
    Pass::rule(codes::DUPLICATE_SIBLING_NAME, "duplicate-sibling-names"),
    Pass::rule(codes::ROOT_ONLY_ATTRIBUTE, "root-only-attributes"),
    Pass::rule(codes::DUPLICATE_ATTRIBUTE, "duplicate-attributes"),
    Pass::rule(codes::UNKNOWN_STYLE, "unknown-styles"),
    Pass::rule(codes::STYLE_CYCLE, "style-cycles"),
    Pass::rule(codes::MISSING_FILE, "missing-files"),
    Pass::rule(codes::MISSING_CHANNEL, "missing-channels"),
    Pass::rule(codes::UNREACHABLE_NODE, "unreachable-nodes"),
    Pass::analysis(codes::ARC_CYCLE, "arc-cycles", arc_cycles),
    Pass::rule(codes::INVALID_DELAY_WINDOW, "invalid-delay-windows"),
    Pass::rule(codes::UNRESOLVED_ARC_ENDPOINT, "unresolved-arc-endpoints"),
    Pass::analysis(
        codes::CONFLICTING_WINDOWS,
        "conflicting-windows",
        conflicting_windows,
    ),
    Pass::analysis(codes::TIME_OVERFLOW, "time-overflow", time_overflow),
    Pass::rule(codes::UNKNOWN_CHANNEL, "unknown-channels"),
    Pass::analysis(
        codes::DANGLING_DESCRIPTOR,
        "dangling-descriptors",
        dangling_descriptors,
    ),
    Pass::analysis(
        codes::CHANNEL_DOUBLE_BOOKING,
        "channel-double-booking",
        channel_double_booking,
    ),
    Pass::analysis(codes::DEPTH_LIMIT, "depth-limit", depth_limit),
    Pass::analysis(codes::NODE_LIMIT, "node-limit", node_limit),
];

// ---------------------------------------------------------------------------
// L1xx — timing and synchronization
// ---------------------------------------------------------------------------

/// Reports the positive cycle recovered by the shared [`Fixpoint`]
/// relaxation (computed once per lint run — or reused from the linter's
/// per-revision cache — instead of per check).
fn arc_cycles(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.doc.root().is_err() {
        return;
    }
    let (Some(fixpoint), Some(constraints)) = (ctx.fixpoint(), ctx.constraints()) else {
        return;
    };
    let Some(trace) = &fixpoint.cycle else {
        return; // reached the fixpoint: no positive cycle
    };
    let mut diag = match trace.route.first() {
        Some(&first) => {
            let mut route: Vec<String> = trace
                .route
                .iter()
                .map(|&i| ctx.point_str(&constraints[i].source))
                .collect();
            route.push(ctx.point_str(&constraints[first].source));
            let mut diag = Diagnostic::new(
                codes::ARC_CYCLE,
                format!(
                    "synchronization arcs force these events ever later: {}",
                    route.join(" -> ")
                ),
            );
            let mut anchored = false;
            for &i in &trace.route {
                let constraint = &constraints[i];
                if let ConstraintOrigin::Explicit { carrier, index } = constraint.origin {
                    if !anchored {
                        diag = ctx.at_arc(diag, carrier, index);
                        anchored = true;
                    }
                }
                diag = diag.with_related(ctx.describe_constraint(constraint));
            }
            diag
        }
        None => Diagnostic::new(
            codes::ARC_CYCLE,
            format!(
                "the derived synchronization constraints contain a positive cycle \
                 over {} event points",
                trace.points
            ),
        ),
    };
    diag = diag.with_help(
        "a loop of positive offsets and delays is unsatisfiable (§5.3.3, conflict \
         class 1); remove or relax one of the listed arcs",
    );
    out.push(diag);
}

/// Reports an event time or window bound the shared [`Fixpoint`] found
/// outside the `i64` millisecond range — the condition solve reports as
/// `SchedulerError::TimeOverflow`.
fn time_overflow(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let Some(point) = ctx.fixpoint().and_then(|fixpoint| fixpoint.overflow) else {
        return;
    };
    out.push(
        ctx.at_node(
            Diagnostic::new(
                codes::TIME_OVERFLOW,
                format!(
                    "the time of {} leaves the representable range: the offsets and delays \
                     leading to it add up past i64 milliseconds",
                    ctx.point_str(&point)
                ),
            )
            .with_help("an offset or delay this large is almost certainly a unit mistake"),
            point.node,
        ),
    );
}

/// Finds the (source, target) pairs that two or more constraints share by
/// sorting constraint indices on the dense slots of their endpoints —
/// `(source slot, target slot, index)` — and walking the runs of equal
/// pairs, so nothing is allocated per pair. Slot order is (node, anchor)
/// order with begin first, which is the order pairs are reported in, and
/// the index keeps each run in constraint order.
fn conflicting_windows(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let Some(constraints) = ctx.constraints() else {
        return;
    };
    let mut keyed: Vec<(usize, usize, usize)> = constraints
        .iter()
        .enumerate()
        .map(|(index, c)| (c.source.slot(), c.target.slot(), index))
        .collect();
    keyed.sort_unstable();
    for run in keyed.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        if run.len() < 2 {
            continue;
        }
        let group = run.iter().map(|&(_, _, index)| &constraints[index]);
        // All windows in a group are relative to the same reference point, so
        // their intersection is directly comparable: the largest lower bound
        // against the smallest bounded upper bound.
        // Summed exactly: an extreme offset is L105's report, not a panic.
        let lower_of = |c: &Constraint| i128::from(c.offset_ms) + i128::from(c.min_delay_ms);
        let Some(lowest) = group.clone().max_by_key(|c| lower_of(c)) else {
            continue;
        };
        let highest = group
            .filter_map(|c| {
                c.max_delay_ms
                    .map(|max| (c, i128::from(c.offset_ms) + i128::from(max)))
            })
            .min_by_key(|(_, upper)| *upper);
        let Some((tightest, upper)) = highest else {
            continue;
        };
        let lower = lower_of(lowest);
        if lower > upper {
            out.push(
                Diagnostic::new(
                    codes::CONFLICTING_WINDOWS,
                    format!(
                        "no delay satisfies every window between {} and {}: one \
                         constraint requires at least {lower}ms, another at most {upper}ms",
                        ctx.point_str(&lowest.source),
                        ctx.point_str(&lowest.target),
                    ),
                )
                .with_related(ctx.describe_constraint(lowest))
                .with_related(ctx.describe_constraint(tightest))
                .with_help("the windows have an empty intersection; widen one of them"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// L2xx — channels and resources
// ---------------------------------------------------------------------------

fn dangling_descriptors(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for id in ctx.doc.preorder() {
        let Ok(node) = ctx.doc.node(id) else { continue };
        if node.kind != NodeKind::Ext {
            continue;
        }
        let Ok(Some(key)) = ctx.doc.file_of(id) else {
            continue;
        };
        if ctx.resolver.resolve_symbol(key).is_none() {
            out.push(
                ctx.at_node(
                    Diagnostic::new(
                        codes::DANGLING_DESCRIPTOR,
                        format!(
                            "external node {} names data `{key}`, which has no descriptor \
                         in the catalog",
                            ctx.path_str(id)
                        ),
                    )
                    .with_help(
                        "without a descriptor the scheduler knows neither duration nor \
                     resource needs and falls back to defaults",
                    ),
                    id,
                ),
            );
        }
    }
}

fn channel_double_booking(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    // A diverging graph is L101's report; without a fixpoint there are no
    // times to compare. The times come from the shared (possibly cached)
    // relaxation — this pass no longer builds and relaxes its own graph.
    let Some(times) = ctx.fixpoint().and_then(Fixpoint::times) else {
        return;
    };
    let Ok(by_channel) = ctx.doc.leaves_by_channel() else {
        return;
    };
    for (channel, leaves) in by_channel {
        if channel == unassigned_channel() {
            continue; // channel-less leaves are L008's report
        }
        let mut intervals: Vec<(i64, i64, NodeId)> = leaves
            .iter()
            .filter_map(|leaf| {
                let begin = times.get(&EventPoint::begin(*leaf))?.as_millis();
                let end = times.get(&EventPoint::end(*leaf))?.as_millis();
                Some((begin, end, *leaf))
            })
            .collect();
        intervals.sort_unstable();
        for pair in intervals.windows(2) {
            let (begin_a, end_a, a) = pair[0];
            let (begin_b, _, b) = pair[1];
            if begin_b < end_a {
                let related = Related::new(format!(
                    "{} also plays on `{channel}` from {begin_a}ms to {end_a}ms",
                    ctx.path_str(a)
                ));
                let related = match ctx.node_span(a) {
                    Some(span) => related.with_span(span),
                    None => related.at_path(ctx.path_str(a)),
                };
                out.push(
                    ctx.at_node(
                        Diagnostic::new(
                            codes::CHANNEL_DOUBLE_BOOKING,
                            format!(
                                "channel `{channel}` is double-booked: {} starts at \
                                 {begin_b}ms while {} still plays (until {end_a}ms)",
                                ctx.path_str(b),
                                ctx.path_str(a),
                            ),
                        )
                        .with_related(related)
                        .with_help(
                            "one channel presents one thing at a time; resequence the \
                             leaves or move one to another channel",
                        ),
                        b,
                    ),
                );
            }
        }
    }
}

fn depth_limit(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let depth = ctx.doc.depth();
    if depth > ctx.limits.max_depth {
        out.push(
            Diagnostic::new(
                codes::DEPTH_LIMIT,
                format!(
                    "the tree is {depth} levels deep, above the configured limit of {}",
                    ctx.limits.max_depth
                ),
            )
            .with_help("deep nesting usually indicates a generator bug; raise Limits::max_depth if intended"),
        );
    }
}

fn node_limit(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let count = ctx.doc.node_count();
    if count > ctx.limits.max_nodes {
        out.push(
            Diagnostic::new(
                codes::NODE_LIMIT,
                format!(
                    "the document holds {count} nodes, above the configured limit of {}",
                    ctx.limits.max_nodes
                ),
            )
            .with_help("raise Limits::max_nodes if a document this large is intended"),
        );
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use cmif_core::arc::Strictness;
    use cmif_core::attr::AttrName;
    use cmif_core::value::AttrValue;

    use super::*;

    /// L104 as it grouped constraints before the dense-slot sort: one map
    /// entry per (source, target) pair, keys sorted by node and anchor
    /// name. The reference for the differential below.
    fn conflicting_windows_by_map(
        ctx: &LintContext<'_>,
        constraints: &[Constraint],
        out: &mut Vec<Diagnostic>,
    ) {
        let mut groups: HashMap<(EventPoint, EventPoint), Vec<&Constraint>> = HashMap::new();
        for constraint in constraints {
            groups
                .entry((constraint.source, constraint.target))
                .or_default()
                .push(constraint);
        }
        let mut keys: Vec<&(EventPoint, EventPoint)> = groups.keys().collect();
        keys.sort_by_key(|(s, t)| (s.node, s.anchor.as_str(), t.node, t.anchor.as_str()));
        for key in keys {
            let group = &groups[key];
            if group.len() < 2 {
                continue;
            }
            let lower_of = |c: &Constraint| i128::from(c.offset_ms) + i128::from(c.min_delay_ms);
            let Some(lowest) = group.iter().copied().max_by_key(|c| lower_of(c)) else {
                continue;
            };
            let highest = group
                .iter()
                .filter_map(|c| {
                    c.max_delay_ms
                        .map(|max| (c, i128::from(c.offset_ms) + i128::from(max)))
                })
                .min_by_key(|(_, upper)| *upper);
            let Some((tightest, upper)) = highest else {
                continue;
            };
            let lower = lower_of(lowest);
            if lower > upper {
                let (source, target) = key;
                out.push(
                    Diagnostic::new(
                        codes::CONFLICTING_WINDOWS,
                        format!(
                            "no delay satisfies every window between {} and {}: one \
                             constraint requires at least {lower}ms, another at most {upper}ms",
                            ctx.point_str(source),
                            ctx.point_str(target),
                        ),
                    )
                    .with_related(ctx.describe_constraint(lowest))
                    .with_related(ctx.describe_constraint(tightest))
                    .with_help("the windows have an empty intersection; widen one of them"),
                );
            }
        }
    }

    /// SplitMix64: every case replays from the seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }
    }

    #[test]
    fn l104_dense_slot_grouping_matches_the_map_reference() {
        // Named leaves under a seq and a par, so findings name real paths.
        let mut doc = Document::with_root(NodeKind::Seq);
        let root = doc.root().unwrap();
        let par = doc.add_par(root).unwrap();
        for (parent, name) in [
            (root, "a"),
            (root, "b"),
            (par, "c"),
            (par, "d"),
            (root, "e"),
        ] {
            let leaf = doc.add_imm_text(parent, "x").unwrap();
            doc.set_attr(leaf, AttrName::Name, AttrValue::Id(name.into()))
                .unwrap();
        }
        let options = ScheduleOptions::default();
        let limits = Limits::default();
        let nodes = doc.preorder();

        // Small values tie often; the extremes sit at the edges of i64.
        let values = [
            i64::MIN,
            i64::MIN + 1,
            -1_000,
            -1,
            0,
            0,
            1,
            250,
            250,
            1_000,
            i64::MAX - 1,
            i64::MAX,
        ];
        let origins = |rng: &mut Rng| match rng.below(6) {
            0 => ConstraintOrigin::SequentialOrder,
            1 => ConstraintOrigin::ParallelFork,
            2 => ConstraintOrigin::ParallelJoin,
            3 => ConstraintOrigin::LeafDuration,
            _ => ConstraintOrigin::Explicit {
                carrier: rng.pick(&nodes),
                index: rng.below(4),
            },
        };
        let mut rng = Rng(0x0c1f_5eed);
        let (mut findings, mut grouped) = (0, 0);
        for case in 0..2_000 {
            // A few pairs shared by many constraints: duplicates,
            // triplicates and longer runs, plus lone pairs.
            let pairs: Vec<(EventPoint, EventPoint)> = (0..1 + rng.below(6))
                .map(|_| {
                    let point = |rng: &mut Rng| {
                        let node = rng.pick(&nodes);
                        if rng.below(2) == 0 {
                            EventPoint::begin(node)
                        } else {
                            EventPoint::end(node)
                        }
                    };
                    (point(&mut rng), point(&mut rng))
                })
                .collect();
            let constraints: Vec<Constraint> = (0..rng.below(16))
                .map(|_| {
                    let (source, target) = rng.pick(&pairs);
                    Constraint {
                        source,
                        target,
                        offset_ms: rng.pick(&values),
                        min_delay_ms: rng.pick(&values),
                        max_delay_ms: (rng.below(4) != 0).then(|| rng.pick(&values)),
                        strictness: Strictness::Must,
                        origin: origins(&mut rng),
                    }
                })
                .collect();
            grouped += usize::from(constraints.len() > pairs.len());

            let ctx = LintContext {
                doc: &doc,
                options: &options,
                limits: &limits,
                resolver: &doc.catalog,
                analysis: Fixpoint::analyze(&doc, constraints.clone()),
                findings: Findings::of(&doc),
            };
            let mut sorted = Vec::new();
            conflicting_windows(&ctx, &mut sorted);
            let mut mapped = Vec::new();
            conflicting_windows_by_map(&ctx, &constraints, &mut mapped);
            assert_eq!(sorted, mapped, "case {case}: {constraints:?}");
            findings += sorted.len();
        }
        // The generator does reach the interesting cases.
        assert!(grouped > 1_000, "only {grouped} cases share a pair");
        assert!(findings > 1_000, "only {findings} conflicts found");
    }
}
