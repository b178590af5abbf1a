//! Live structural edits over revisioned documents.
//!
//! CMIFed is an *authoring* environment: the paper's headline workflow is
//! editing a document while it plays. This module provides the document-plane
//! half of that story — a typed [`Edit`] vocabulary and a [`DocRevision`]
//! wrapper that applies edits by copy-on-write, so concurrent readers (the
//! scheduler, a playing session, the lint pipeline) keep the revision they
//! started with while authors advance to new ones.
//!
//! Each successful application also reports an [`EditDelta`]: the nodes the
//! edit created or removed, so the author can refer to them afterwards. The
//! scheduler re-solves every new revision whole (its `EditSession`).

use std::sync::Arc;

use crate::arc::SyncArc;
use crate::attr::AttrName;
use crate::error::{CoreError, Result};
use crate::node::{ImmediateData, NodeId, NodeKind};
use crate::symbol::Symbol;
use crate::time::{DelayMs, MaxDelay, MediaTime};
use crate::tree::Document;
use crate::value::AttrValue;

/// A subtree to insert into a document, described structurally.
///
/// Specs are plain data: they can be built up-front (e.g. decoded from a
/// remote authoring tool) and applied later. Every spawned node is marked
/// synthetic in the document's [`crate::diag::SourceMap`], because no source
/// text describes it.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeSpec {
    /// A sequential composite.
    Seq {
        /// Node name, unique among its future siblings.
        name: String,
        /// Children, presented in sequence order.
        children: Vec<NodeSpec>,
    },
    /// A parallel composite.
    Par {
        /// Node name, unique among its future siblings.
        name: String,
        /// Children, presented together.
        children: Vec<NodeSpec>,
    },
    /// An external data leaf.
    Ext {
        /// Node name, unique among its future siblings.
        name: String,
        /// Channel assignment, when not inherited.
        channel: Option<Symbol>,
        /// Data descriptor key (the `file` attribute).
        file: String,
        /// Explicit duration in milliseconds, when known.
        duration_ms: Option<i64>,
    },
    /// An immediate text leaf.
    ImmText {
        /// Node name, unique among its future siblings.
        name: String,
        /// Channel assignment, when not inherited.
        channel: Option<Symbol>,
        /// The text payload.
        text: String,
        /// Explicit duration in milliseconds, when known.
        duration_ms: Option<i64>,
    },
}

impl NodeSpec {
    /// A sequential composite with the given children.
    pub fn seq(name: impl Into<String>, children: Vec<NodeSpec>) -> NodeSpec {
        NodeSpec::Seq {
            name: name.into(),
            children,
        }
    }

    /// A parallel composite with the given children.
    pub fn par(name: impl Into<String>, children: Vec<NodeSpec>) -> NodeSpec {
        NodeSpec::Par {
            name: name.into(),
            children,
        }
    }

    /// An external data leaf.
    pub fn ext(name: impl Into<String>, file: impl Into<String>) -> NodeSpec {
        NodeSpec::Ext {
            name: name.into(),
            channel: None,
            file: file.into(),
            duration_ms: None,
        }
    }

    /// An immediate text leaf.
    pub fn imm_text(name: impl Into<String>, text: impl Into<String>) -> NodeSpec {
        NodeSpec::ImmText {
            name: name.into(),
            channel: None,
            text: text.into(),
            duration_ms: None,
        }
    }

    /// Returns the spec with a channel assignment (leaves only; ignored on
    /// composites).
    pub fn on_channel(mut self, channel: impl Into<Symbol>) -> NodeSpec {
        match &mut self {
            NodeSpec::Ext { channel: c, .. } | NodeSpec::ImmText { channel: c, .. } => {
                *c = Some(channel.into());
            }
            NodeSpec::Seq { .. } | NodeSpec::Par { .. } => {}
        }
        self
    }

    /// Returns the spec with an explicit duration (leaves only; ignored on
    /// composites).
    pub fn lasting_ms(mut self, duration_ms: i64) -> NodeSpec {
        match &mut self {
            NodeSpec::Ext { duration_ms: d, .. } | NodeSpec::ImmText { duration_ms: d, .. } => {
                *d = Some(duration_ms);
            }
            NodeSpec::Seq { .. } | NodeSpec::Par { .. } => {}
        }
        self
    }

    /// The spec's node name.
    pub fn name(&self) -> &str {
        match self {
            NodeSpec::Seq { name, .. }
            | NodeSpec::Par { name, .. }
            | NodeSpec::Ext { name, .. }
            | NodeSpec::ImmText { name, .. } => name,
        }
    }
}

/// One atomic structural edit of a live document.
///
/// Edits apply through [`DocRevision::apply`], which validates them against
/// the current revision and produces a new revision plus an [`EditDelta`]
/// naming the nodes the edit created or removed.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// Append a new subtree under an existing composite node.
    InsertSubtree {
        /// The composite node the subtree is appended under.
        parent: NodeId,
        /// The subtree to build.
        spec: NodeSpec,
    },
    /// Detach a subtree (and prune every sync arc touching it).
    RemoveSubtree {
        /// Root of the subtree to remove; must not be the document root.
        node: NodeId,
    },
    /// Replace the delay window (and optionally the offset) of the
    /// `index`-th explicit sync arc.
    RetimeArc {
        /// Index into [`Document::arcs`].
        index: usize,
        /// New minimum acceptable delay δ in milliseconds (zero or negative).
        min_delay_ms: i64,
        /// New maximum tolerable delay ε in milliseconds; `None` leaves the
        /// window unbounded above.
        max_delay_ms: Option<i64>,
        /// New offset in milliseconds, when the offset changes too.
        offset_ms: Option<i64>,
    },
    /// Point an external leaf at a different data descriptor.
    SwapDescriptor {
        /// The external leaf to repoint.
        node: NodeId,
        /// The new descriptor key (`file` attribute value).
        file: String,
    },
    /// Assign (or reassign) a node's channel.
    AssignChannel {
        /// The node receiving the assignment; descendants inherit it.
        node: NodeId,
        /// The channel to assign.
        channel: Symbol,
    },
    /// Remove a node's own channel assignment, falling back to inheritance.
    ClearChannel {
        /// The node whose own assignment is dropped.
        node: NodeId,
    },
}

impl Edit {
    /// A short keyword naming the edit kind, for reports and logs.
    pub fn keyword(&self) -> &'static str {
        match self {
            Edit::InsertSubtree { .. } => "insert-subtree",
            Edit::RemoveSubtree { .. } => "remove-subtree",
            Edit::RetimeArc { .. } => "retime-arc",
            Edit::SwapDescriptor { .. } => "swap-descriptor",
            Edit::AssignChannel { .. } => "assign-channel",
            Edit::ClearChannel { .. } => "clear-channel",
        }
    }
}

/// The nodes one [`Edit`] created or removed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EditDelta {
    /// Root of a freshly inserted subtree, when the edit inserted one.
    pub inserted: Option<NodeId>,
    /// Every node of a removed subtree (preorder), when the edit removed one.
    pub removed: Vec<NodeId>,
}

/// One immutable revision of a document.
///
/// Revisions form a chain: [`DocRevision::apply`] clones the document
/// (copy-on-write — concurrent readers of the old [`Arc`] are unaffected),
/// mutates the clone, and wraps it as the child revision. Node ids are
/// stable across revisions, so the nodes one revision reports stay
/// meaningful in the next.
#[derive(Debug, Clone)]
pub struct DocRevision {
    doc: Arc<Document>,
    parent: Option<u64>,
}

impl DocRevision {
    /// Wraps an existing document as the initial revision of a chain.
    pub fn initial(doc: Arc<Document>) -> DocRevision {
        DocRevision { doc, parent: None }
    }

    /// The revision's unique id.
    pub fn id(&self) -> u64 {
        self.doc.revision_id()
    }

    /// The id of the revision this one was derived from, when any.
    pub fn parent_id(&self) -> Option<u64> {
        self.parent
    }

    /// The document at this revision.
    pub fn doc(&self) -> &Arc<Document> {
        &self.doc
    }

    /// Applies one edit, producing the successor revision and the nodes the
    /// edit created or removed. `self` is untouched: readers holding the
    /// current [`Arc`] keep a consistent document.
    pub fn apply(&self, edit: &Edit) -> Result<(DocRevision, EditDelta)> {
        let mut doc = Document::clone(&self.doc);
        let delta = apply_to(&mut doc, edit)?;
        Ok((
            DocRevision {
                doc: Arc::new(doc),
                parent: Some(self.id()),
            },
            delta,
        ))
    }
}

/// Collects `node` and all its descendants in preorder.
fn subtree_preorder(doc: &Document, node: NodeId) -> Result<Vec<NodeId>> {
    let mut out = Vec::new();
    let mut stack = vec![node];
    while let Some(id) = stack.pop() {
        out.push(id);
        let n = doc.node(id)?;
        for child in n.children.iter().rev() {
            stack.push(*child);
        }
    }
    Ok(out)
}

/// Marks a node synthetic in the document's source map, when it has one.
fn mark_node_synthetic(doc: &mut Document, node: NodeId) {
    if let Some(sources) = &mut doc.sources {
        Arc::make_mut(sources).mark_synthetic(node);
    }
}

/// Builds a [`NodeSpec`] subtree under `parent`, returning its root.
fn build_spec(doc: &mut Document, parent: NodeId, spec: &NodeSpec) -> Result<NodeId> {
    let (kind, name) = match spec {
        NodeSpec::Seq { name, .. } => (NodeKind::Seq, name),
        NodeSpec::Par { name, .. } => (NodeKind::Par, name),
        NodeSpec::Ext { name, .. } => (NodeKind::Ext, name),
        NodeSpec::ImmText { name, text, .. } => {
            (NodeKind::Imm(ImmediateData::Text(text.clone())), name)
        }
    };
    let id = doc.add_child(parent, kind)?;
    doc.set_attr(id, AttrName::Name, AttrValue::Id(Symbol::intern(name)))?;
    let (channel, duration_ms) = match spec {
        NodeSpec::Seq { children, .. } | NodeSpec::Par { children, .. } => {
            for child in children {
                build_spec(doc, id, child)?;
            }
            (None, None)
        }
        NodeSpec::Ext {
            channel,
            file,
            duration_ms,
            ..
        } => {
            doc.set_attr(id, AttrName::File, AttrValue::Str(file.clone()))?;
            (*channel, *duration_ms)
        }
        NodeSpec::ImmText {
            channel,
            duration_ms,
            ..
        } => (*channel, *duration_ms),
    };
    if let Some(channel) = channel {
        doc.set_attr(id, AttrName::Channel, AttrValue::Id(channel))?;
    }
    if let Some(ms) = duration_ms {
        doc.set_attr(id, AttrName::Duration, AttrValue::Number(ms))?;
    }
    mark_node_synthetic(doc, id);
    Ok(id)
}

/// Applies one edit to a (cloned) document, in place.
fn apply_to(doc: &mut Document, edit: &Edit) -> Result<EditDelta> {
    let mut delta = EditDelta::default();
    match edit {
        Edit::InsertSubtree { parent, spec } => {
            let parent_node = doc.node(*parent)?;
            if !parent_node.kind.is_composite() {
                return Err(CoreError::InvalidEdit {
                    reason: format!("insertion parent {parent} is a leaf"),
                });
            }
            delta.inserted = Some(build_spec(doc, *parent, spec)?);
            mark_node_synthetic(doc, *parent);
        }
        Edit::RemoveSubtree { node } => {
            let root = doc.root()?;
            if *node == root {
                return Err(CoreError::InvalidEdit {
                    reason: "the document root cannot be removed".to_string(),
                });
            }
            let parent = doc
                .node(*node)?
                .parent
                .ok_or_else(|| CoreError::InvalidEdit {
                    reason: format!("node {node} is already detached"),
                })?;
            let subtree = subtree_preorder(doc, *node)?;
            let in_subtree: std::collections::HashSet<NodeId> = subtree.iter().copied().collect();
            // Prune arcs touching the subtree *before* detaching, while the
            // endpoint paths still resolve. Unresolvable endpoints are kept:
            // they were dangling before the edit, and lint owns reporting
            // them (L103).
            let mut doomed = Vec::new();
            for (index, (carrier, arc)) in doc.arcs().iter().enumerate() {
                let touches = in_subtree.contains(carrier)
                    || doc
                        .resolve_path(*carrier, &arc.source)
                        .map(|id| in_subtree.contains(&id))
                        .unwrap_or(false)
                    || doc
                        .resolve_path(*carrier, &arc.destination)
                        .map(|id| in_subtree.contains(&id))
                        .unwrap_or(false);
                if touches {
                    doomed.push(index);
                }
            }
            for index in doomed.iter().rev() {
                doc.remove_arc(*index)?;
            }
            doc.detach(*node)?;
            for id in &subtree {
                mark_node_synthetic(doc, *id);
            }
            mark_node_synthetic(doc, parent);
            delta.removed = subtree;
        }
        Edit::RetimeArc {
            index,
            min_delay_ms,
            max_delay_ms,
            offset_ms,
        } => {
            let (_, arc) = doc
                .arcs()
                .get(*index)
                .ok_or(CoreError::UnknownArc { index: *index })?;
            let mut arc: SyncArc = arc.clone();
            arc.min_delay = DelayMs::from_millis(*min_delay_ms);
            arc.max_delay = match max_delay_ms {
                Some(ms) => MaxDelay::Bounded(DelayMs::from_millis(*ms)),
                None => MaxDelay::Unbounded,
            };
            if let Some(ms) = offset_ms {
                arc.offset = MediaTime::millis(*ms);
            }
            doc.replace_arc(*index, arc)?;
        }
        Edit::SwapDescriptor { node, file } => {
            let n = doc.node(*node)?;
            if n.kind != NodeKind::Ext {
                return Err(CoreError::InvalidEdit {
                    reason: format!("node {node} is not an external leaf"),
                });
            }
            doc.set_attr(*node, AttrName::File, AttrValue::Str(file.clone()))?;
            mark_node_synthetic(doc, *node);
        }
        Edit::AssignChannel { node, channel } => {
            doc.node(*node)?;
            doc.set_attr(*node, AttrName::Channel, AttrValue::Id(*channel))?;
            mark_node_synthetic(doc, *node);
        }
        Edit::ClearChannel { node } => {
            let n = doc.node_mut(*node)?;
            if n.attrs.remove(&AttrName::Channel).is_none() {
                return Err(CoreError::InvalidEdit {
                    reason: format!("node {node} has no own channel assignment"),
                });
            }
            mark_node_synthetic(doc, *node);
        }
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arc::SyncArc;
    use crate::builder::DocumentBuilder;
    use crate::channel::MediaKind;

    fn story_doc() -> Document {
        DocumentBuilder::new("bulletin")
            .channel("video", MediaKind::Video)
            .channel("captions", MediaKind::Text)
            .channel("alt", MediaKind::Video)
            .channel("b", MediaKind::Video)
            .root_seq(|root| {
                root.ext("lead", "video", "lead.mpg");
                root.ext("follow", "video", "follow.mpg");
            })
            .build()
            .unwrap()
    }

    #[test]
    fn insert_subtree_appends_a_child_in_a_new_revision() {
        let rev = DocRevision::initial(Arc::new(story_doc()));
        let root = rev.doc().root().unwrap();
        let edit = Edit::InsertSubtree {
            parent: root,
            spec: NodeSpec::par(
                "breaking",
                vec![
                    NodeSpec::ext("anchor", "anchor.mpg").on_channel("video"),
                    NodeSpec::imm_text("caption", "BREAKING")
                        .on_channel("captions")
                        .lasting_ms(1500),
                ],
            ),
        };
        let (next, delta) = rev.apply(&edit).unwrap();
        assert_eq!(next.parent_id(), Some(rev.id()));
        assert_ne!(next.id(), rev.id());
        // Old revision is untouched.
        assert_eq!(rev.doc().node(root).unwrap().children.len(), 2);
        assert_eq!(next.doc().node(root).unwrap().children.len(), 3);
        assert!(delta.inserted.is_some());
    }

    #[test]
    fn insert_under_leaf_is_rejected() {
        let rev = DocRevision::initial(Arc::new(story_doc()));
        let leaf = rev.doc().leaves()[0];
        let edit = Edit::InsertSubtree {
            parent: leaf,
            spec: NodeSpec::ext("x", "x.mpg"),
        };
        assert!(matches!(
            rev.apply(&edit),
            Err(CoreError::InvalidEdit { .. })
        ));
    }

    #[test]
    fn remove_subtree_prunes_touching_arcs() {
        let mut doc = story_doc();
        let root = doc.root().unwrap();
        doc.add_arc(root, SyncArc::hard_start("lead", "follow"))
            .unwrap();
        let follow = doc.leaves()[1];
        let rev = DocRevision::initial(Arc::new(doc));
        let (next, delta) = rev.apply(&Edit::RemoveSubtree { node: follow }).unwrap();
        assert_eq!(next.doc().arcs().len(), 0, "arc into removed leaf pruned");
        assert_eq!(delta.removed, vec![follow]);
        // Old revision keeps its arc.
        assert_eq!(rev.doc().arcs().len(), 1);
    }

    #[test]
    fn root_removal_is_rejected() {
        let rev = DocRevision::initial(Arc::new(story_doc()));
        let root = rev.doc().root().unwrap();
        assert!(matches!(
            rev.apply(&Edit::RemoveSubtree { node: root }),
            Err(CoreError::InvalidEdit { .. })
        ));
    }

    #[test]
    fn retime_arc_replaces_window() {
        let mut doc = story_doc();
        let root = doc.root().unwrap();
        doc.add_arc(root, SyncArc::hard_start("lead", "follow"))
            .unwrap();
        let rev = DocRevision::initial(Arc::new(doc));
        let (next, _) = rev
            .apply(&Edit::RetimeArc {
                index: 0,
                min_delay_ms: -40,
                max_delay_ms: Some(250),
                offset_ms: Some(500),
            })
            .unwrap();
        let (_, arc) = &next.doc().arcs()[0];
        assert_eq!(arc.min_delay, DelayMs::from_millis(-40));
        assert_eq!(arc.max_delay, MaxDelay::Bounded(DelayMs::from_millis(250)));
        assert_eq!(arc.offset, MediaTime::millis(500));
    }

    #[test]
    fn retime_missing_arc_is_rejected() {
        let rev = DocRevision::initial(Arc::new(story_doc()));
        assert!(matches!(
            rev.apply(&Edit::RetimeArc {
                index: 3,
                min_delay_ms: 0,
                max_delay_ms: None,
                offset_ms: None,
            }),
            Err(CoreError::UnknownArc { index: 3 })
        ));
    }

    #[test]
    fn swap_descriptor_requires_external_leaf() {
        let rev = DocRevision::initial(Arc::new(story_doc()));
        let root = rev.doc().root().unwrap();
        assert!(rev
            .apply(&Edit::SwapDescriptor {
                node: root,
                file: "other.mpg".to_string(),
            })
            .is_err());
        let leaf = rev.doc().leaves()[0];
        let (next, _) = rev
            .apply(&Edit::SwapDescriptor {
                node: leaf,
                file: "other.mpg".to_string(),
            })
            .unwrap();
        let value = next.doc().own_attr(leaf, &AttrName::File).unwrap().cloned();
        assert_eq!(value, Some(AttrValue::Str("other.mpg".to_string())));
    }

    #[test]
    fn channel_edits_mark_subtree_leaves() {
        let rev = DocRevision::initial(Arc::new(story_doc()));
        let root = rev.doc().root().unwrap();
        let (next, _) = rev
            .apply(&Edit::AssignChannel {
                node: root,
                channel: Symbol::intern("alt"),
            })
            .unwrap();
        let own_channel = |rev: &DocRevision| {
            rev.doc()
                .own_attr(root, &AttrName::Channel)
                .unwrap()
                .cloned()
        };
        assert_eq!(
            own_channel(&next),
            Some(AttrValue::Id(Symbol::intern("alt")))
        );
        let (cleared, _) = next.apply(&Edit::ClearChannel { node: root }).unwrap();
        assert_eq!(own_channel(&cleared), None);
        // Clearing an assignment that is not there is an error.
        assert!(cleared.apply(&Edit::ClearChannel { node: root }).is_err());
    }

    #[test]
    fn revision_ids_advance_monotonically_along_a_chain() {
        let rev = DocRevision::initial(Arc::new(story_doc()));
        let leaf = rev.doc().leaves()[0];
        let (next, _) = rev
            .apply(&Edit::AssignChannel {
                node: leaf,
                channel: Symbol::intern("b"),
            })
            .unwrap();
        assert!(next.id() > rev.id());
        assert_eq!(next.parent_id(), Some(rev.id()));
    }
}
