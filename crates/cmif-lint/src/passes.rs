//! The pass registry: every analysis the linter runs, one diagnostic code
//! each.
//!
//! The L0xx passes are the structural rules that used to live inside
//! `cmif_core::validate::validate_all`, split into individually coded,
//! individually configurable analyses. The L1xx passes consult the *derived*
//! constraint graph (`cmif_scheduler::derive_constraints`), so they catch
//! timing contradictions — positive synchronization cycles, empty delay
//! windows — statically, before a document ever costs an engine worker. The
//! L2xx passes cover channels and resources.

use std::cell::OnceCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use cmif_core::attr::AttrName;
use cmif_core::descriptor::DescriptorResolver;
use cmif_core::diag::{codes, Code, Diagnostic, Related};
use cmif_core::error::CoreError;
use cmif_core::node::{NodeId, NodeKind};
use cmif_core::span::Span;
use cmif_core::style::style_names;
use cmif_core::tree::{unassigned_channel, Document};
use cmif_core::value::AttrValue;
use cmif_scheduler::graph::{relax_traced, window_violations};
use cmif_scheduler::{
    derive_constraints, Constraint, ConstraintOrigin, EventPoint, PointTimes, ScheduleOptions,
    SchedulerError,
};

use crate::Limits;

/// The relaxed ASAP fixpoint of one document revision's derived constraint
/// set — or the positive cycle or time overflow that prevents one.
///
/// Computed at most once per lint run by the scheduler's relaxation kernel
/// (the one solve, playback and live edits use) and shared by every timing
/// pass (L101 consumes the cycle trace, L105 the overflow, L203 the event
/// times), so no pass runs its own relaxation. The [`crate::Linter`] additionally caches entries per
/// document revision, so re-linting an unchanged revision — the hot path of
/// a live authoring loop, where every accepted edit triggers a fresh lint —
/// skips relaxation entirely.
#[derive(Debug)]
pub struct Fixpoint {
    /// The constraints the fixpoint was computed from, in derivation
    /// order. Cache validation compares these on a revision-id hit: a
    /// changed resolver or catalog changes the derived set even when the
    /// tree itself is untouched.
    constraints: Vec<Constraint>,
    /// Event times at the fixpoint; empty when relaxation failed.
    times: PointTimes,
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
    /// Relaxes with predecessor tracking; on a positive cycle the kernel
    /// recovers the arcs that form it. Windows are checked over the
    /// fixpoint exactly as solve checks them, so an overflowing bound
    /// surfaces here rather than in the solver.
    pub(crate) fn compute(doc: &Document, constraints: Vec<Constraint>) -> Fixpoint {
        let (relaxed, route) = relax_traced(doc, &constraints, "lint");
        let checked = relaxed
            .and_then(|times| window_violations(&constraints, &times, "lint").map(|_| times));
        let (times, cycle, overflow) = match checked {
            Ok(times) => (times, None, None),
            Err(SchedulerError::ConstraintCycle { points, .. }) => (
                PointTimes::default(),
                Some(CycleTrace { route, points }),
                None,
            ),
            Err(SchedulerError::TimeOverflow { point, .. }) => {
                (PointTimes::default(), None, Some(point))
            }
            Err(_) => (PointTimes::default(), None, None),
        };
        Fixpoint {
            constraints,
            times,
            cycle,
            overflow,
        }
    }

    /// The event times at the fixpoint; `None` when relaxation failed.
    pub(crate) fn times(&self) -> Option<&PointTimes> {
        if self.cycle.is_some() || self.overflow.is_some() {
            None
        } else {
            Some(&self.times)
        }
    }

    /// Whether this fixpoint was computed from exactly `other`.
    pub(crate) fn constraints_match(&self, other: &[Constraint]) -> bool {
        self.constraints.as_slice() == other
    }
}

/// Everything a pass may look at: the document, the derivation policy, the
/// resource ceilings, and the pre-derived constraint set (shared by the
/// L1xx/L2xx passes so derivation runs once per lint, not once per pass).
pub struct LintContext<'a> {
    /// The document under analysis.
    pub doc: &'a Document,
    /// Derivation policy used when consulting the constraint graph.
    pub options: &'a ScheduleOptions,
    /// Resource ceilings enforced by L204/L205.
    pub limits: &'a Limits,
    /// The derived constraint set, `None` when derivation itself failed
    /// (dangling endpoints and the like — reported by their own passes).
    constraints: Option<Vec<Constraint>>,
    /// Where external data references resolve: the document's own catalog
    /// by default, a block store's catalog when the pipeline lints a
    /// store-backed document. Consulted by L202 and by derivation (leaf
    /// durations come from descriptors).
    resolver: &'a dyn DescriptorResolver,
    /// The shared relaxation fixpoint, computed lazily on first use — or
    /// installed up front from the linter's per-revision cache.
    fixpoint: OnceCell<Option<Arc<Fixpoint>>>,
}

impl<'a> LintContext<'a> {
    /// Prepares a context resolving descriptors against the document's own
    /// catalog (self-contained documents).
    pub fn new(doc: &'a Document, options: &'a ScheduleOptions, limits: &'a Limits) -> Self {
        LintContext::with_resolver(doc, &doc.catalog, options, limits)
    }

    /// Prepares a context with an external descriptor resolver (e.g. a
    /// block store's catalog), deriving the constraint set once up front.
    pub fn with_resolver(
        doc: &'a Document,
        resolver: &'a dyn DescriptorResolver,
        options: &'a ScheduleOptions,
        limits: &'a Limits,
    ) -> Self {
        let constraints = derive_constraints(doc, resolver, options).ok();
        LintContext {
            doc,
            options,
            limits,
            constraints,
            resolver,
            fixpoint: OnceCell::new(),
        }
    }

    /// The derived constraint set, when derivation succeeded.
    pub(crate) fn constraints(&self) -> Option<&[Constraint]> {
        self.constraints.as_deref()
    }

    /// Installs a precomputed (cached) fixpoint. A no-op when one was
    /// already computed for this context.
    pub(crate) fn install_fixpoint(&self, fixpoint: Arc<Fixpoint>) {
        let _ = self.fixpoint.set(Some(fixpoint));
    }

    /// The shared relaxation fixpoint, computed on first use when the
    /// linter did not install a cached one. `None` when constraint
    /// derivation failed (dangling endpoints and the like — reported by
    /// their own passes).
    fn fixpoint(&self) -> Option<&Fixpoint> {
        self.fixpoint
            .get_or_init(|| {
                self.constraints
                    .as_ref()
                    .map(|c| Arc::new(Fixpoint::compute(self.doc, c.clone())))
            })
            .as_deref()
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
}

/// One registered analysis: a code, a short name, and the function that
/// appends its findings to the diagnostic list.
pub struct Pass {
    /// The diagnostic code this pass emits.
    pub code: Code,
    /// Short kebab-case name, for `--pass` style selection and reports.
    pub name: &'static str,
    run: fn(&LintContext<'_>, &mut Vec<Diagnostic>),
}

impl Pass {
    /// Runs the pass, appending findings to `out`.
    pub fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        (self.run)(ctx, out);
    }
}

/// Every registered pass, in execution (and code) order.
pub fn registry() -> &'static [Pass] {
    PASSES
}

static PASSES: &[Pass] = &[
    Pass {
        code: codes::EMPTY_DOCUMENT,
        name: "empty-document",
        run: empty_document,
    },
    Pass {
        code: codes::DUPLICATE_SIBLING_NAME,
        name: "duplicate-sibling-names",
        run: duplicate_sibling_names,
    },
    Pass {
        code: codes::ROOT_ONLY_ATTRIBUTE,
        name: "root-only-attributes",
        run: root_only_attributes,
    },
    Pass {
        code: codes::DUPLICATE_ATTRIBUTE,
        name: "duplicate-attributes",
        run: duplicate_attributes,
    },
    Pass {
        code: codes::UNKNOWN_STYLE,
        name: "unknown-styles",
        run: unknown_styles,
    },
    Pass {
        code: codes::STYLE_CYCLE,
        name: "style-cycles",
        run: style_cycles,
    },
    Pass {
        code: codes::MISSING_FILE,
        name: "missing-files",
        run: missing_files,
    },
    Pass {
        code: codes::MISSING_CHANNEL,
        name: "missing-channels",
        run: missing_channels,
    },
    Pass {
        code: codes::UNREACHABLE_NODE,
        name: "unreachable-nodes",
        run: unreachable_nodes,
    },
    Pass {
        code: codes::ARC_CYCLE,
        name: "arc-cycles",
        run: arc_cycles,
    },
    Pass {
        code: codes::INVALID_DELAY_WINDOW,
        name: "invalid-delay-windows",
        run: invalid_delay_windows,
    },
    Pass {
        code: codes::UNRESOLVED_ARC_ENDPOINT,
        name: "unresolved-arc-endpoints",
        run: unresolved_arc_endpoints,
    },
    Pass {
        code: codes::CONFLICTING_WINDOWS,
        name: "conflicting-windows",
        run: conflicting_windows,
    },
    Pass {
        code: codes::TIME_OVERFLOW,
        name: "time-overflow",
        run: time_overflow,
    },
    Pass {
        code: codes::UNKNOWN_CHANNEL,
        name: "unknown-channels",
        run: unknown_channels,
    },
    Pass {
        code: codes::DANGLING_DESCRIPTOR,
        name: "dangling-descriptors",
        run: dangling_descriptors,
    },
    Pass {
        code: codes::CHANNEL_DOUBLE_BOOKING,
        name: "channel-double-booking",
        run: channel_double_booking,
    },
    Pass {
        code: codes::DEPTH_LIMIT,
        name: "depth-limit",
        run: depth_limit,
    },
    Pass {
        code: codes::NODE_LIMIT,
        name: "node-limit",
        run: node_limit,
    },
];

// ---------------------------------------------------------------------------
// L0xx — structure
// ---------------------------------------------------------------------------

fn empty_document(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.doc.root().is_err() {
        out.push(
            Diagnostic::new(
                codes::EMPTY_DOCUMENT,
                "the document has no root node, so there is nothing to present",
            )
            .with_help("give the document a seq or par root"),
        );
    }
}

fn duplicate_sibling_names(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let name_of = |id: NodeId| ctx.doc.node(id).ok().and_then(|n| n.name_symbol());
    for id in ctx.doc.preorder() {
        let Ok(node) = ctx.doc.node(id) else { continue };
        if !node.kind.is_composite() {
            continue;
        }
        for (i, child) in node.children.iter().enumerate() {
            let Some(name) = name_of(*child) else {
                continue;
            };
            if node.children[..i].iter().any(|o| name_of(*o) == Some(name)) {
                out.push(
                    ctx.at_node(
                        Diagnostic::new(
                            codes::DUPLICATE_SIBLING_NAME,
                            format!(
                                "the name `{name}` is used by more than one child of {}",
                                ctx.path_str(id)
                            ),
                        )
                        .with_help("sibling names must be unique so paths resolve unambiguously"),
                        *child,
                    ),
                );
            }
        }
    }
}

fn root_only_attributes(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let Ok(root) = ctx.doc.root() else { return };
    for id in ctx.doc.preorder() {
        if id == root {
            continue;
        }
        let Ok(node) = ctx.doc.node(id) else { continue };
        for attr in node.attrs.iter() {
            if attr.name.is_root_only() {
                out.push(ctx.at_node(
                    Diagnostic::new(
                        codes::ROOT_ONLY_ATTRIBUTE,
                        format!(
                            "attribute `{}` may only appear on the root, not on {}",
                            attr.name,
                            ctx.path_str(id)
                        ),
                    ),
                    id,
                ));
            }
        }
    }
}

fn duplicate_attributes(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for id in ctx.doc.preorder() {
        let Ok(node) = ctx.doc.node(id) else { continue };
        if let Err(e) = node.attrs.validate_unique(id) {
            let message = match e {
                CoreError::DuplicateAttribute { name, .. } => format!(
                    "attribute `{name}` occurs more than once on {}",
                    ctx.path_str(id)
                ),
                other => other.to_string(),
            };
            out.push(ctx.at_node(Diagnostic::new(codes::DUPLICATE_ATTRIBUTE, message), id));
        }
    }
}

fn unknown_styles(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for def in ctx.doc.styles.iter() {
        for parent in &def.parents {
            if !ctx.doc.styles.contains(parent) {
                out.push(Diagnostic::new(
                    codes::UNKNOWN_STYLE,
                    format!(
                        "style `{}` builds on `{parent}`, which is not defined",
                        def.name
                    ),
                ));
            }
        }
    }
    for id in ctx.doc.preorder() {
        let Ok(node) = ctx.doc.node(id) else { continue };
        let Some(value) = node.attrs.get(&AttrName::Style) else {
            continue;
        };
        let Ok(names) = style_names(value) else {
            continue;
        };
        for name in names {
            if !ctx.doc.styles.contains(name.as_str()) {
                out.push(ctx.at_node(
                    Diagnostic::new(
                        codes::UNKNOWN_STYLE,
                        format!(
                            "{} references style `{name}`, which is not defined",
                            ctx.path_str(id)
                        ),
                    ),
                    id,
                ));
            }
        }
    }
}

fn style_cycles(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let mut reported = BTreeSet::new();
    for def in ctx.doc.styles.iter() {
        if let Err(CoreError::StyleCycle { style }) = ctx.doc.styles.nesting_depth(&def.name) {
            if reported.insert(style.clone()) {
                out.push(
                    Diagnostic::new(
                        codes::STYLE_CYCLE,
                        format!("style `{style}` is part of a definition cycle"),
                    )
                    .with_help("style expansion would recurse forever; break the parent loop"),
                );
            }
        }
    }
}

fn missing_files(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for id in ctx.doc.preorder() {
        let Ok(node) = ctx.doc.node(id) else { continue };
        if node.kind != NodeKind::Ext {
            continue;
        }
        if matches!(ctx.doc.file_of(id), Ok(None)) {
            out.push(ctx.at_node(
                Diagnostic::new(
                    codes::MISSING_FILE,
                    format!(
                        "external node {} has no file attribute, own or inherited",
                        ctx.path_str(id)
                    ),
                ),
                id,
            ));
        }
    }
}

fn missing_channels(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for id in ctx.doc.preorder() {
        let Ok(node) = ctx.doc.node(id) else { continue };
        if !node.kind.is_leaf() {
            continue;
        }
        if matches!(ctx.doc.channel_of(id), Ok(None)) {
            out.push(ctx.at_node(
                Diagnostic::new(
                    codes::MISSING_CHANNEL,
                    format!(
                        "leaf {} has no channel, so no output device would play it",
                        ctx.path_str(id)
                    ),
                ),
                id,
            ));
        }
    }
}

fn unreachable_nodes(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.doc.root().is_err() {
        return;
    }
    let reachable: HashSet<NodeId> = ctx.doc.preorder().into_iter().collect();
    for index in 0..ctx.doc.node_count() {
        let id = NodeId::from_index(index as u32);
        if reachable.contains(&id) {
            continue;
        }
        let kind = ctx.doc.node(id).map(|n| n.kind.keyword()).unwrap_or("node");
        out.push(
            ctx.at_node(
                Diagnostic::new(
                    codes::UNREACHABLE_NODE,
                    format!("{kind} node {id} is not reachable from the root"),
                )
                .with_help("the node was detached (or orphaned by set_root) and will never play"),
                id,
            ),
        );
    }
}

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
    let Some(fixpoint) = ctx.fixpoint() else {
        return;
    };
    let Some(trace) = &fixpoint.cycle else {
        return; // reached the fixpoint: no positive cycle
    };
    let constraints = &fixpoint.constraints;
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

fn invalid_delay_windows(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for (index, (carrier, arc)) in ctx.doc.arcs().iter().enumerate() {
        if let Err(e) = arc.validate() {
            out.push(ctx.at_arc(
                Diagnostic::new(
                    codes::INVALID_DELAY_WINDOW,
                    format!("arc #{index} carried by {}: {e}", ctx.path_str(*carrier)),
                ),
                *carrier,
                index,
            ));
        }
    }
}

fn unresolved_arc_endpoints(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for (index, (carrier, arc)) in ctx.doc.arcs().iter().enumerate() {
        for (role, path) in [("source", &arc.source), ("destination", &arc.destination)] {
            if ctx.doc.resolve_path(*carrier, path).is_err() {
                out.push(
                    ctx.at_arc(
                        Diagnostic::new(
                            codes::UNRESOLVED_ARC_ENDPOINT,
                            format!(
                                "arc #{index} carried by {}: {role} `{path}` does not \
                             resolve to a node",
                                ctx.path_str(*carrier)
                            ),
                        )
                        .with_help("arc endpoints are resolved relative to the carrier node"),
                        *carrier,
                        index,
                    ),
                );
            }
        }
    }
}

fn conflicting_windows(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let Some(constraints) = &ctx.constraints else {
        return;
    };
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
        // All windows in a group are relative to the same reference point, so
        // their intersection is directly comparable: the largest lower bound
        // against the smallest bounded upper bound.
        // Summed exactly: an extreme offset is L105's report, not a panic.
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

// ---------------------------------------------------------------------------
// L2xx — channels and resources
// ---------------------------------------------------------------------------

fn unknown_channels(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for id in ctx.doc.preorder() {
        let Ok(node) = ctx.doc.node(id) else { continue };
        let Some(channel) = node
            .attrs
            .get(&AttrName::Channel)
            .and_then(AttrValue::as_symbol)
        else {
            continue;
        };
        if !ctx.doc.channels.contains_symbol(channel) {
            out.push(
                ctx.at_node(
                    Diagnostic::new(
                        codes::UNKNOWN_CHANNEL,
                        format!(
                            "{} references channel `{channel}`, which is not declared",
                            ctx.path_str(id)
                        ),
                    )
                    .with_help("declare the channel in the document's channel dictionary"),
                    id,
                ),
            );
        }
    }
}

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
