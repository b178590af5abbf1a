//! Derivation of the constraint set for a document.
//!
//! §5.3.1: "The basic tree structure of CMIF documents imposes a default
//! synchronization that is based on the node type of the ancestors of a data
//! (leaf) node. Within a sequential node, a default synchronization arc
//! exists from the starting node of the arc to its sequentially first child.
//! There are also arcs from the end of leaf nodes to the start of the
//! successor leaf. Finally, an arc exists from the last child of a
//! sequential node to the end of its parent. Parallel nodes have default
//! arcs from the parallel parent node to each of the children of that
//! parent. Similarly, synchronization arcs also exist from the end of each
//! of the children to the end of the parent."
//!
//! [`derive_constraints`] produces those default arcs, the rigid
//! begin→end duration relation of every leaf, and the explicit arcs of the
//! document (with their offsets converted from media units to the document
//! clock).

use crate::error::Result;
use cmif_core::arc::Strictness;
use cmif_core::descriptor::DescriptorResolver;
use cmif_core::node::{NodeId, NodeKind};
use cmif_core::time::{MaxDelay, RateInfo};
use cmif_core::tree::Document;

use crate::types::{Constraint, ConstraintOrigin, EventPoint, ScheduleOptions};

/// Derives the complete constraint set of a document: default structural
/// arcs, leaf durations and explicit arcs.
pub fn derive_constraints(
    doc: &Document,
    resolver: &dyn DescriptorResolver,
    options: &ScheduleOptions,
) -> Result<Vec<Constraint>> {
    let mut constraints = Vec::new();
    let root = doc.root()?;
    derive_structural(doc, root, &mut constraints)?;
    derive_durations(doc, resolver, options, &mut constraints)?;
    derive_explicit(doc, resolver, &mut constraints)?;
    Ok(constraints)
}

/// Default arcs from the tree structure (fork/join shapes of §5.3.1): the
/// shell of `node` and of every node below it, in preorder. The walk keeps
/// its own stack instead of recursing, so a deep tree cannot overflow the
/// thread's.
pub fn derive_structural(doc: &Document, node: NodeId, out: &mut Vec<Constraint>) -> Result<()> {
    let mut pending = vec![node];
    while let Some(node) = pending.pop() {
        shell_constraints(doc, node, out)?;
        pending.extend(doc.children(node)?.iter().rev());
    }
    Ok(())
}

/// The structural *shell* of one composite node: the default arcs §5.3.1
/// derives from the node's own child list, without recursing into the
/// children. Incremental re-solvers re-derive exactly the shells of nodes
/// whose child list changed.
pub fn shell_constraints(doc: &Document, node: NodeId, out: &mut Vec<Constraint>) -> Result<()> {
    let kind = doc.node(node)?.kind.clone();
    let children = doc.children(node)?.to_vec();
    match kind {
        NodeKind::Seq => {
            if let Some(first) = children.first() {
                out.push(hard(
                    EventPoint::begin(node),
                    EventPoint::begin(*first),
                    ConstraintOrigin::SequentialOrder,
                ));
            }
            for pair in children.windows(2) {
                out.push(hard(
                    EventPoint::end(pair[0]),
                    EventPoint::begin(pair[1]),
                    ConstraintOrigin::SequentialOrder,
                ));
            }
            if let Some(last) = children.last() {
                out.push(hard(
                    EventPoint::end(*last),
                    EventPoint::end(node),
                    ConstraintOrigin::SequentialOrder,
                ));
            }
            // An empty composite still needs its end to follow its begin.
            if children.is_empty() {
                out.push(hard(
                    EventPoint::begin(node),
                    EventPoint::end(node),
                    ConstraintOrigin::SequentialOrder,
                ));
            }
        }
        NodeKind::Par => {
            for child in &children {
                out.push(hard(
                    EventPoint::begin(node),
                    EventPoint::begin(*child),
                    ConstraintOrigin::ParallelFork,
                ));
                out.push(hard(
                    EventPoint::end(*child),
                    EventPoint::end(node),
                    ConstraintOrigin::ParallelJoin,
                ));
            }
            if children.is_empty() {
                out.push(hard(
                    EventPoint::begin(node),
                    EventPoint::end(node),
                    ConstraintOrigin::ParallelFork,
                ));
            }
        }
        NodeKind::Ext | NodeKind::Imm(_) => {}
    }
    Ok(())
}

/// The rigid begin → end relation of every leaf: its intrinsic duration.
fn derive_durations(
    doc: &Document,
    resolver: &dyn DescriptorResolver,
    options: &ScheduleOptions,
    out: &mut Vec<Constraint>,
) -> Result<()> {
    for leaf in doc.leaves() {
        out.push(leaf_duration_constraint(doc, resolver, options, leaf)?);
    }
    Ok(())
}

/// The rigid begin → end relation of one leaf: its intrinsic duration, or
/// the fill policy of [`ScheduleOptions`] when the duration is unknown.
pub fn leaf_duration_constraint(
    doc: &Document,
    resolver: &dyn DescriptorResolver,
    options: &ScheduleOptions,
    leaf: NodeId,
) -> Result<Constraint> {
    let duration = match doc.duration_of(leaf, resolver)? {
        Some(d) => d.as_millis(),
        None => {
            let parent_is_par = match doc.parent(leaf)? {
                Some(parent) => doc.node(parent)?.kind == NodeKind::Par,
                None => false,
            };
            if options.fill_unknown_in_parallel && parent_is_par {
                // Filling leaves impose no duration of their own; the
                // parallel join will still hold the parent open for the
                // other children, and the player stretches the fill leaf
                // to its parent's extent.
                0
            } else {
                options.default_discrete_ms
            }
        }
    };
    Ok(Constraint {
        source: EventPoint::begin(leaf),
        target: EventPoint::end(leaf),
        offset_ms: duration,
        min_delay_ms: 0,
        max_delay_ms: None,
        strictness: Strictness::Must,
        origin: ConstraintOrigin::LeafDuration,
    })
}

/// Explicit arcs, with offsets converted onto the document clock using the
/// controlling node's rate table.
fn derive_explicit(
    doc: &Document,
    resolver: &dyn DescriptorResolver,
    out: &mut Vec<Constraint>,
) -> Result<()> {
    out.extend(explicit_constraints(doc, resolver)?);
    Ok(())
}

/// The explicit arc constraints of a document, in [`Document::arcs`] order
/// (constraint `i` corresponds to arc `i`).
pub fn explicit_constraints(
    doc: &Document,
    resolver: &dyn DescriptorResolver,
) -> Result<Vec<Constraint>> {
    let mut out = Vec::with_capacity(doc.arcs().len());
    for (index, (carrier, arc, source, destination)) in doc.resolved_arcs()?.into_iter().enumerate()
    {
        let rates = rates_of(doc, source, resolver)?;
        let offset_ms = arc.offset.to_millis(&rates)?.as_millis();
        let max_delay_ms = match arc.max_delay {
            MaxDelay::Unbounded => None,
            MaxDelay::Bounded(d) => Some(d.as_millis()),
        };
        out.push(Constraint {
            source: EventPoint {
                node: source,
                anchor: arc.source_anchor,
            },
            target: EventPoint {
                node: destination,
                anchor: arc.anchor,
            },
            offset_ms,
            min_delay_ms: arc.min_delay.as_millis(),
            max_delay_ms,
            strictness: arc.strictness,
            origin: ConstraintOrigin::Explicit { carrier, index },
        });
    }
    Ok(out)
}

/// The rate table of a node: its descriptor's rates when it is an external
/// node with a resolvable descriptor, otherwise no rates (only seconds and
/// milliseconds convert).
pub fn rates_of(
    doc: &Document,
    node: NodeId,
    resolver: &dyn DescriptorResolver,
) -> Result<RateInfo> {
    if doc.node(node)?.kind == NodeKind::Ext {
        if let Some(key) = doc.file_of(node)? {
            if let Some(descriptor) = resolver.resolve_symbol(key) {
                return Ok(descriptor.rates);
            }
        }
    }
    Ok(RateInfo::NONE)
}

fn hard(source: EventPoint, target: EventPoint, origin: ConstraintOrigin) -> Constraint {
    Constraint {
        source,
        target,
        offset_ms: 0,
        min_delay_ms: 0,
        max_delay_ms: None,
        strictness: Strictness::Must,
        origin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmif_core::arc::SyncArc;
    use cmif_core::prelude::*;

    fn seq_doc() -> Document {
        DocumentBuilder::new("seq-demo")
            .channel("audio", MediaKind::Audio)
            .descriptor(
                DataDescriptor::new("a", MediaKind::Audio, "pcm8")
                    .with_duration(TimeMs::from_secs(2)),
            )
            .descriptor(
                DataDescriptor::new("b", MediaKind::Audio, "pcm8")
                    .with_duration(TimeMs::from_secs(3)),
            )
            .root_seq(|root| {
                root.ext("first", "audio", "a");
                root.ext("second", "audio", "b");
            })
            .build()
            .unwrap()
    }

    fn par_doc() -> Document {
        DocumentBuilder::new("par-demo")
            .channel("audio", MediaKind::Audio)
            .channel("caption", MediaKind::Text)
            .descriptor(
                DataDescriptor::new("a", MediaKind::Audio, "pcm8")
                    .with_duration(TimeMs::from_secs(2)),
            )
            .root_par(|root| {
                root.ext("voice", "audio", "a");
                root.imm_text("line", "caption", "hi", 1_000);
            })
            .build()
            .unwrap()
    }

    #[test]
    fn sequential_node_produces_chain_constraints() {
        let doc = seq_doc();
        let constraints =
            derive_constraints(&doc, &doc.catalog, &ScheduleOptions::default()).unwrap();
        let root = doc.root().unwrap();
        let first = doc.find("/first").unwrap();
        let second = doc.find("/second").unwrap();
        // parent begin -> first child begin
        assert!(constraints
            .iter()
            .any(|c| c.source == EventPoint::begin(root)
                && c.target == EventPoint::begin(first)
                && c.origin == ConstraintOrigin::SequentialOrder));
        // end of first -> begin of second
        assert!(constraints
            .iter()
            .any(|c| c.source == EventPoint::end(first) && c.target == EventPoint::begin(second)));
        // end of last child -> end of parent
        assert!(constraints
            .iter()
            .any(|c| c.source == EventPoint::end(second) && c.target == EventPoint::end(root)));
    }

    #[test]
    fn parallel_node_produces_fork_and_join() {
        let doc = par_doc();
        let constraints =
            derive_constraints(&doc, &doc.catalog, &ScheduleOptions::default()).unwrap();
        let root = doc.root().unwrap();
        let forks = constraints
            .iter()
            .filter(|c| {
                c.origin == ConstraintOrigin::ParallelFork && c.source == EventPoint::begin(root)
            })
            .count();
        let joins = constraints
            .iter()
            .filter(|c| {
                c.origin == ConstraintOrigin::ParallelJoin && c.target == EventPoint::end(root)
            })
            .count();
        assert_eq!(forks, 2);
        assert_eq!(joins, 2);
    }

    #[test]
    fn leaf_durations_become_rigid_constraints() {
        let doc = seq_doc();
        let constraints =
            derive_constraints(&doc, &doc.catalog, &ScheduleOptions::default()).unwrap();
        let first = doc.find("/first").unwrap();
        let duration = constraints
            .iter()
            .find(|c| {
                c.origin == ConstraintOrigin::LeafDuration && c.source == EventPoint::begin(first)
            })
            .unwrap();
        assert_eq!(duration.offset_ms, 2_000);
        assert_eq!(duration.target, EventPoint::end(first));
    }

    #[test]
    fn unknown_duration_uses_default_policy() {
        let mut doc = par_doc();
        let root = doc.root().unwrap();
        let extra = doc.add_imm_text(root, "no duration").unwrap();
        doc.set_attr(extra, AttrName::Name, AttrValue::Id("still".into()))
            .unwrap();
        doc.set_attr(extra, AttrName::Channel, AttrValue::Id("caption".into()))
            .unwrap();

        let options = ScheduleOptions {
            default_discrete_ms: 1_234,
            ..Default::default()
        };
        let constraints = derive_constraints(&doc, &doc.catalog, &options).unwrap();
        let duration = constraints
            .iter()
            .find(|c| {
                c.origin == ConstraintOrigin::LeafDuration && c.source == EventPoint::begin(extra)
            })
            .unwrap();
        assert_eq!(duration.offset_ms, 1_234);

        let fill = ScheduleOptions {
            fill_unknown_in_parallel: true,
            ..Default::default()
        };
        let constraints = derive_constraints(&doc, &doc.catalog, &fill).unwrap();
        let duration = constraints
            .iter()
            .find(|c| {
                c.origin == ConstraintOrigin::LeafDuration && c.source == EventPoint::begin(extra)
            })
            .unwrap();
        assert_eq!(duration.offset_ms, 0);
    }

    #[test]
    fn explicit_arcs_are_converted_to_milliseconds() {
        let mut doc = par_doc();
        let voice = doc.find("/voice").unwrap();
        let line = doc.find("/line").unwrap();
        doc.add_arc(
            line,
            SyncArc::hard_start("../voice", "")
                .with_offset(MediaTime::seconds(1))
                .with_window(
                    DelayMs::from_millis(-50),
                    MaxDelay::Bounded(DelayMs::from_millis(200)),
                ),
        )
        .unwrap();
        let constraints =
            derive_constraints(&doc, &doc.catalog, &ScheduleOptions::default()).unwrap();
        let explicit = constraints
            .iter()
            .find(|c| matches!(c.origin, ConstraintOrigin::Explicit { .. }))
            .unwrap();
        assert_eq!(explicit.source, EventPoint::begin(voice));
        assert_eq!(explicit.target, EventPoint::begin(line));
        assert_eq!(explicit.offset_ms, 1_000);
        assert_eq!(explicit.min_delay_ms, -50);
        assert_eq!(explicit.max_delay_ms, Some(200));
    }

    #[test]
    fn frame_offsets_use_the_source_descriptor_rates() {
        let doc = DocumentBuilder::new("frames")
            .channel("video", MediaKind::Video)
            .channel("caption", MediaKind::Text)
            .descriptor(
                DataDescriptor::new("clip", MediaKind::Video, "rgb24")
                    .with_duration(TimeMs::from_secs(4))
                    .with_rates(RateInfo::video(25.0)),
            )
            .root_par(|root| {
                root.ext("film", "video", "clip");
                root.imm_text("caption-1", "caption", "x", 1_000);
            })
            .build()
            .unwrap();
        let mut doc = doc;
        let caption = doc.find("/caption-1").unwrap();
        doc.add_arc(
            caption,
            SyncArc::hard_start("../film", "").with_offset(MediaTime::frames(50)),
        )
        .unwrap();
        let constraints =
            derive_constraints(&doc, &doc.catalog, &ScheduleOptions::default()).unwrap();
        let explicit = constraints
            .iter()
            .find(|c| matches!(c.origin, ConstraintOrigin::Explicit { .. }))
            .unwrap();
        assert_eq!(explicit.offset_ms, 2_000);
    }

    #[test]
    fn empty_composites_still_relate_begin_and_end() {
        let doc = DocumentBuilder::new("empty")
            .channel("audio", MediaKind::Audio)
            .root_seq(|root| {
                root.par("empty-par", |_| {});
            })
            .build()
            .unwrap();
        let constraints =
            derive_constraints(&doc, &doc.catalog, &ScheduleOptions::default()).unwrap();
        let empty_par = doc.find("/empty-par").unwrap();
        assert!(constraints
            .iter()
            .any(|c| c.source == EventPoint::begin(empty_par)
                && c.target == EventPoint::end(empty_par)));
    }
}
