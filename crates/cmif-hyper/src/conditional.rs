//! Conditional synchronization arcs.
//!
//! §3.2: "While we suspect that this general problem can be addressed via
//! the definition of conditional synchronization arcs that point to events
//! on separate channels, we have not developed these ideas in sufficient
//! detail to discuss them here." This module develops exactly that idea:
//! an arc guarded by a condition over the presentation context (reader
//! choices, presented channels, seek position). When the condition holds
//! the arc contributes a constraint; when it does not, the arc simply does
//! not exist for that presentation — which also gives a clean answer to the
//! §5.3.3 navigation conflict (arcs whose source was skipped are disabled
//! rather than invalid).

use std::collections::BTreeSet;

use crate::error::Result;
use cmif_core::arc::SyncArc;
use cmif_core::node::NodeId;
use cmif_core::symbol::Symbol;
use cmif_core::tree::Document;
use cmif_scheduler::{
    derive_constraints, rates_of, Constraint, ConstraintGraph, ConstraintOrigin, EventPoint,
    ScheduleOptions,
};

/// The condition guarding a conditional arc.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// The arc always applies (equivalent to a plain explicit arc).
    Always,
    /// The arc applies when the reader has set a named flag (a choice made
    /// through the user interface, e.g. "captions-on").
    Flag(Symbol),
    /// The arc applies when the named channel is being presented on the
    /// local device (not dropped by constraint filtering).
    ChannelPresented(Symbol),
    /// The arc applies only when its source node is part of the presented
    /// region (i.e. not skipped by navigation).
    SourceExecutes,
}

/// The presentation context a condition is evaluated against.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PresentationContext {
    /// Reader-set flags.
    pub flags: BTreeSet<Symbol>,
    /// Channels the local device presents.
    pub presented_channels: BTreeSet<Symbol>,
    /// Nodes that will execute in this presentation (empty means "all").
    pub executing_nodes: BTreeSet<NodeId>,
}

impl PresentationContext {
    /// A context in which everything is presented and no flags are set.
    pub fn full() -> PresentationContext {
        PresentationContext::default()
    }

    /// Sets a reader flag (builder style).
    pub fn with_flag(mut self, flag: impl Into<Symbol>) -> Self {
        self.flags.insert(flag.into());
        self
    }

    /// Marks a channel as presented (builder style). A context with no
    /// presented channels recorded treats every channel as presented.
    pub fn with_channel(mut self, channel: impl Into<Symbol>) -> Self {
        self.presented_channels.insert(channel.into());
        self
    }

    /// Restricts execution to the given nodes (builder style).
    pub fn with_executing(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.executing_nodes.extend(nodes);
        self
    }

    fn channel_presented(&self, channel: Symbol) -> bool {
        self.presented_channels.is_empty() || self.presented_channels.contains(&channel)
    }

    fn node_executes(&self, node: NodeId) -> bool {
        self.executing_nodes.is_empty() || self.executing_nodes.contains(&node)
    }
}

/// A synchronization arc guarded by a condition.
#[derive(Debug, Clone, PartialEq)]
pub struct ConditionalArc {
    /// The node carrying the arc (paths resolve relative to it).
    pub carrier: NodeId,
    /// The guard.
    pub condition: Condition,
    /// The arc itself.
    pub arc: SyncArc,
}

impl ConditionalArc {
    /// Creates a conditional arc.
    pub fn new(carrier: NodeId, condition: Condition, arc: SyncArc) -> ConditionalArc {
        ConditionalArc {
            carrier,
            condition,
            arc,
        }
    }

    /// Evaluates the guard against a context (needs the document to resolve
    /// the source endpoint for [`Condition::SourceExecutes`]).
    pub fn applies(&self, doc: &Document, context: &PresentationContext) -> Result<bool> {
        Ok(match &self.condition {
            Condition::Always => true,
            Condition::Flag(flag) => context.flags.contains(flag),
            Condition::ChannelPresented(channel) => context.channel_presented(*channel),
            Condition::SourceExecutes => {
                let source = doc.resolve_path(self.carrier, &self.arc.source)?;
                context.node_executes(source)
            }
        })
    }

    /// Converts the arc into a scheduler constraint (when its guard holds).
    pub fn to_constraint(
        &self,
        doc: &Document,
        resolver: &dyn cmif_core::descriptor::DescriptorResolver,
    ) -> Result<Constraint> {
        let source = doc.resolve_path(self.carrier, &self.arc.source)?;
        let destination = doc.resolve_path(self.carrier, &self.arc.destination)?;
        let rates = rates_of(doc, source, resolver)?;
        let offset_ms = self.arc.offset.to_millis(&rates)?.as_millis();
        Ok(Constraint {
            source: EventPoint {
                node: source,
                anchor: self.arc.source_anchor,
            },
            target: EventPoint {
                node: destination,
                anchor: self.arc.anchor,
            },
            offset_ms,
            min_delay_ms: self.arc.min_delay.as_millis(),
            max_delay_ms: self.arc.max_delay.bound().map(|d| d.as_millis()),
            strictness: self.arc.strictness,
            origin: ConstraintOrigin::Explicit {
                carrier: self.carrier,
                index: usize::MAX,
            },
        })
    }
}

/// Derives the document's constraints plus the conditional arcs whose guards
/// hold in the given context. Feed the result to
/// [`ConstraintGraph::from_constraints`] and [`ConstraintGraph::solve`].
///
/// This is the one-shot form: it re-derives the document's constraints on
/// every call. A player that re-evaluates guards as the reader flips flags
/// should derive one [`ConstraintGraph`] and use
/// [`apply_conditionals`] per context instead — injected arcs re-relax
/// incrementally from the cached document fixpoint.
pub fn constraints_with_conditionals(
    doc: &Document,
    resolver: &dyn cmif_core::descriptor::DescriptorResolver,
    options: &ScheduleOptions,
    conditionals: &[ConditionalArc],
    context: &PresentationContext,
) -> Result<Vec<Constraint>> {
    let mut constraints = derive_constraints(doc, resolver, options)?;
    for conditional in conditionals {
        if conditional.applies(doc, context)? {
            constraints.push(conditional.to_constraint(doc, resolver)?);
        }
    }
    Ok(constraints)
}

/// Replaces the graph's injected constraints with the conditional arcs whose
/// guards hold in `context`.
///
/// The graph keeps its derived (document) constraints and their cached
/// relaxation fixpoint, so switching contexts costs only the incremental
/// re-relaxation — the document is never re-derived. Returns the number of
/// arcs injected.
pub fn apply_conditionals(
    graph: &mut ConstraintGraph,
    doc: &Document,
    resolver: &dyn cmif_core::descriptor::DescriptorResolver,
    conditionals: &[ConditionalArc],
    context: &PresentationContext,
) -> Result<usize> {
    // Evaluate every guard before touching the graph: an error mid-list
    // must leave the previously applied context intact, never a partial
    // injection of the new one.
    let mut constraints = Vec::new();
    for conditional in conditionals {
        if conditional.applies(doc, context)? {
            constraints.push(conditional.to_constraint(doc, resolver)?);
        }
    }
    let injected = constraints.len();
    graph.retract_injected();
    graph.inject_all(constraints);
    Ok(injected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmif_core::prelude::*;

    fn doc() -> Document {
        DocumentBuilder::new("cond")
            .channel("audio", MediaKind::Audio)
            .channel("caption", MediaKind::Text)
            .descriptor(
                DataDescriptor::new("speech", MediaKind::Audio, "pcm8")
                    .with_duration(TimeMs::from_secs(6)),
            )
            .root_par(|story| {
                story.ext("voice", "audio", "speech");
                story.imm_text("subtitle", "caption", "translated text", 3_000);
            })
            .build()
            .unwrap()
    }

    #[test]
    fn flag_condition_gates_the_arc() {
        let d = doc();
        let subtitle = d.find("/subtitle").unwrap();
        let conditional = ConditionalArc::new(
            subtitle,
            Condition::Flag("captions-on".into()),
            SyncArc::hard_start("../voice", "").with_offset(MediaTime::seconds(2)),
        );
        let off = PresentationContext::full();
        let on = PresentationContext::full().with_flag("captions-on");
        assert!(!conditional.applies(&d, &off).unwrap());
        assert!(conditional.applies(&d, &on).unwrap());

        // Without the flag the subtitle starts at t=0; with it, at t=2s.
        // One graph serves both contexts: the document is derived once and
        // the conditional arc re-relaxes incrementally.
        let options = ScheduleOptions::default();
        let mut graph = ConstraintGraph::derive(&d, &d.catalog, &options).unwrap();
        let injected = apply_conditionals(
            &mut graph,
            &d,
            &d.catalog,
            std::slice::from_ref(&conditional),
            &off,
        )
        .unwrap();
        assert_eq!(injected, 0);
        let result = graph.solve(&d, &d.catalog).unwrap();
        assert_eq!(result.schedule.node_times[&subtitle].0, TimeMs::ZERO);

        let injected = apply_conditionals(
            &mut graph,
            &d,
            &d.catalog,
            std::slice::from_ref(&conditional),
            &on,
        )
        .unwrap();
        assert_eq!(injected, 1);
        let result = graph.solve(&d, &d.catalog).unwrap();
        assert_eq!(
            result.schedule.node_times[&subtitle].0,
            TimeMs::from_secs(2)
        );

        // The one-shot form agrees with the incremental graph.
        let constraints =
            constraints_with_conditionals(&d, &d.catalog, &options, &[conditional], &on).unwrap();
        let one_shot = ConstraintGraph::from_constraints(&d, constraints)
            .unwrap()
            .solve(&d, &d.catalog)
            .unwrap();
        assert_eq!(
            one_shot.schedule.node_times[&subtitle],
            result.schedule.node_times[&subtitle]
        );
    }

    #[test]
    fn failed_apply_leaves_the_previous_context_intact() {
        let d = doc();
        let subtitle = d.find("/subtitle").unwrap();
        let good = ConditionalArc::new(
            subtitle,
            Condition::Always,
            SyncArc::hard_start("../voice", "").with_offset(MediaTime::seconds(2)),
        );
        let bad = ConditionalArc::new(
            subtitle,
            Condition::Always,
            SyncArc::hard_start("../missing", ""),
        );
        let mut graph =
            ConstraintGraph::derive(&d, &d.catalog, &ScheduleOptions::default()).unwrap();
        let context = PresentationContext::full();
        apply_conditionals(
            &mut graph,
            &d,
            &d.catalog,
            std::slice::from_ref(&good),
            &context,
        )
        .unwrap();
        assert_eq!(graph.injected_constraints().len(), 1);

        // The second list errors on the unresolvable arc: the graph must
        // keep the previously applied context, not half of the new one.
        let result = apply_conditionals(&mut graph, &d, &d.catalog, &[good.clone(), bad], &context);
        assert!(result.is_err());
        assert_eq!(graph.injected_constraints().len(), 1);
        assert_eq!(
            graph.injected_constraints()[0],
            good.to_constraint(&d, &d.catalog).unwrap()
        );
    }

    #[test]
    fn channel_condition_follows_device_capabilities() {
        let d = doc();
        let subtitle = d.find("/subtitle").unwrap();
        let conditional = ConditionalArc::new(
            subtitle,
            Condition::ChannelPresented("caption".into()),
            SyncArc::hard_start("../voice", ""),
        );
        let everything = PresentationContext::full();
        assert!(conditional.applies(&d, &everything).unwrap());
        let audio_only = PresentationContext::full().with_channel("audio");
        assert!(!conditional.applies(&d, &audio_only).unwrap());
    }

    #[test]
    fn source_executes_condition_disables_skipped_sources() {
        let d = doc();
        let voice = d.find("/voice").unwrap();
        let subtitle = d.find("/subtitle").unwrap();
        let conditional = ConditionalArc::new(
            subtitle,
            Condition::SourceExecutes,
            SyncArc::hard_start("../voice", ""),
        );
        let full = PresentationContext::full();
        assert!(conditional.applies(&d, &full).unwrap());
        // A navigation that skips the voice disables the arc instead of
        // leaving it dangling.
        let skipped = PresentationContext::full().with_executing([subtitle]);
        assert!(!conditional.applies(&d, &skipped).unwrap());
        let includes_voice = PresentationContext::full().with_executing([voice, subtitle]);
        assert!(includes_voice.node_executes(voice));
        assert!(conditional.applies(&d, &includes_voice).unwrap());
    }

    #[test]
    fn always_condition_matches_plain_explicit_arcs() {
        let d = doc();
        let subtitle = d.find("/subtitle").unwrap();
        let voice = d.find("/voice").unwrap();
        let conditional = ConditionalArc::new(
            subtitle,
            Condition::Always,
            SyncArc::hard_start("../voice", "").from_source_anchor(Anchor::End),
        );
        let constraint = conditional.to_constraint(&d, &d.catalog).unwrap();
        assert_eq!(
            constraint.source,
            EventPoint {
                node: voice,
                anchor: Anchor::End
            }
        );
        assert_eq!(
            constraint.target,
            EventPoint {
                node: subtitle,
                anchor: Anchor::Begin
            }
        );
        assert_eq!(constraint.strictness, Strictness::Must);
    }
}
