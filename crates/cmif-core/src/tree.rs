//! The CMIF document tree.
//!
//! "CMIF defines a document tree that is used to encode the hierarchical and
//! peer relationships among document events. The tree is a human-readable
//! document that can be passed from one location to another with or without
//! the underlying data." (§5)
//!
//! [`Document`] owns the node arena, the root node, the channel and style
//! dictionaries, the (optional) embedded descriptor catalog, and the
//! explicit synchronization arcs. All structural queries that the rest of
//! the system needs — inherited attribute resolution, path resolution,
//! per-leaf event descriptors, traversals — live here.

use std::collections::BTreeMap;

use crate::arc::SyncArc;
use crate::attr::{Attr, AttrName};
use crate::channel::{ChannelDictionary, MediaKind};
use crate::descriptor::{DescriptorCatalog, DescriptorResolver, EventDescriptor, Selection};
use crate::error::{CoreError, Result};
use crate::node::{ImmediateData, Node, NodeId, NodeKind};
use crate::path::{NodePath, PathSegment};
use crate::style::{style_names, StyleDictionary};
use crate::symbol::Symbol;
use crate::time::TimeMs;
use crate::value::AttrValue;

/// Identity of one mutable state of a [`Document`].
///
/// Every mutation of a document (adding nodes, setting attributes, touching
/// arcs) replaces its token with a fresh one drawn from a process-global
/// counter, so two documents share a token id only when one is an unmutated
/// clone of the other — in which case their contents are identical and any
/// cache keyed by the id (the linter's constraint-fixpoint cache, an edit
/// session's derived state) may serve both.
///
/// The token deliberately compares equal to every other token: it is an
/// identity, not content, and must not disturb the document's structural
/// `PartialEq` (wire round-trips produce equal documents with distinct
/// tokens).
#[derive(Debug, Clone)]
pub struct RevisionToken {
    id: u64,
}

impl RevisionToken {
    fn fresh() -> RevisionToken {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(1);
        RevisionToken {
            id: NEXT.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The token's process-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl PartialEq for RevisionToken {
    fn eq(&self, _: &RevisionToken) -> bool {
        true
    }
}

impl Default for RevisionToken {
    fn default() -> RevisionToken {
        RevisionToken::fresh()
    }
}

/// A complete CMIF document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Document {
    nodes: Vec<Node>,
    root: Option<NodeId>,
    /// The root node's channel dictionary.
    pub channels: ChannelDictionary,
    /// The root node's style dictionary.
    pub styles: StyleDictionary,
    /// Descriptor catalog embedded in the document (the in-document stand-in
    /// for the optional DDBMS of Figure 2).
    pub catalog: DescriptorCatalog,
    /// Explicit synchronization arcs, keyed by the node that carries them.
    arcs: Vec<(NodeId, SyncArc)>,
    /// Free-form document-level attributes (title, author, version, …).
    pub meta: BTreeMap<String, AttrValue>,
    /// Source provenance, present when the document was parsed from text:
    /// the original source plus per-node and per-arc spans, so diagnostics
    /// can underline the offending bytes. Shared by `Arc` — cloning the
    /// document never copies the source text.
    pub sources: Option<std::sync::Arc<crate::diag::SourceMap>>,
    /// Identity of this mutable state; replaced on every mutation. Always
    /// compares equal, so structural document equality is unaffected.
    revision: RevisionToken,
}

impl Document {
    /// Creates an empty document with no root node.
    pub fn new() -> Document {
        Document::default()
    }

    /// Creates a document whose root is a node of the given kind.
    pub fn with_root(kind: NodeKind) -> Document {
        let mut doc = Document::new();
        let root = doc.alloc(kind);
        doc.root = Some(root);
        doc
    }

    // ------------------------------------------------------------------
    // Node management
    // ------------------------------------------------------------------

    fn alloc(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId::from_index(self.nodes.len() as u32);
        self.nodes.push(Node::new(id, kind));
        id
    }

    /// Replaces the revision token: called by every mutation path.
    fn touch(&mut self) {
        self.revision = RevisionToken::fresh();
    }

    /// The id of this document's current revision token.
    ///
    /// Two documents report the same id only when one is an unmutated clone
    /// of the other, so the id is a safe cache key for anything derived
    /// purely from document content (constraint sets, relaxation fixpoints).
    pub fn revision_id(&self) -> u64 {
        self.revision.id()
    }

    /// The root node id.
    pub fn root(&self) -> Result<NodeId> {
        self.root.ok_or(CoreError::EmptyDocument)
    }

    /// Sets the root node when the document was created empty.
    pub fn set_root(&mut self, kind: NodeKind) -> NodeId {
        let root = self.alloc(kind);
        self.root = Some(root);
        self.touch();
        root
    }

    /// Total number of nodes in the document (including detached ones).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes
            .get(id.index())
            .ok_or(CoreError::UnknownNode { node: id })
    }

    /// Mutable access to a node. Conservatively counts as a mutation: the
    /// revision token is replaced even if the caller changes nothing.
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut Node> {
        self.touch();
        self.nodes
            .get_mut(id.index())
            .ok_or(CoreError::UnknownNode { node: id })
    }

    /// Adds a child node of the given kind under `parent`.
    ///
    /// Fails when the parent is a leaf node ("each data block can not be
    /// further decomposed or sub-scheduled", §3.1 — leaves have no
    /// children).
    pub fn add_child(&mut self, parent: NodeId, kind: NodeKind) -> Result<NodeId> {
        let parent_node = self.node(parent)?;
        if parent_node.kind.is_leaf() {
            return Err(CoreError::InvalidChild { parent });
        }
        let id = self.alloc(kind);
        self.nodes[id.index()].parent = Some(parent);
        self.nodes[parent.index()].children.push(id);
        self.touch();
        Ok(id)
    }

    /// Adds a sequential child node.
    pub fn add_seq(&mut self, parent: NodeId) -> Result<NodeId> {
        self.add_child(parent, NodeKind::Seq)
    }

    /// Adds a parallel child node.
    pub fn add_par(&mut self, parent: NodeId) -> Result<NodeId> {
        self.add_child(parent, NodeKind::Par)
    }

    /// Adds an external leaf node.
    pub fn add_ext(&mut self, parent: NodeId) -> Result<NodeId> {
        self.add_child(parent, NodeKind::Ext)
    }

    /// Adds an immediate leaf node carrying inline text.
    pub fn add_imm_text(&mut self, parent: NodeId, text: impl Into<String>) -> Result<NodeId> {
        self.add_child(parent, NodeKind::Imm(ImmediateData::Text(text.into())))
    }

    /// Adds an immediate leaf node carrying inline binary data.
    pub fn add_imm_binary(&mut self, parent: NodeId, data: Vec<u8>) -> Result<NodeId> {
        self.add_child(parent, NodeKind::Imm(ImmediateData::Binary(data)))
    }

    /// Detaches a node (and its subtree) from its parent. The nodes remain
    /// in the arena but are no longer reachable from the root.
    pub fn detach(&mut self, id: NodeId) -> Result<()> {
        let parent = self.node(id)?.parent;
        if let Some(parent) = parent {
            let siblings = &mut self.nodes[parent.index()].children;
            siblings.retain(|c| *c != id);
        }
        self.nodes[id.index()].parent = None;
        self.touch();
        Ok(())
    }

    /// Re-attaches a detached node under a new parent, refusing cycles and
    /// leaf parents.
    pub fn attach(&mut self, id: NodeId, new_parent: NodeId) -> Result<()> {
        self.node(id)?;
        let parent_node = self.node(new_parent)?;
        if parent_node.kind.is_leaf() {
            return Err(CoreError::InvalidChild { parent: new_parent });
        }
        // Refuse to attach a node beneath itself.
        let mut cursor = Some(new_parent);
        while let Some(c) = cursor {
            if c == id {
                return Err(CoreError::TreeCycle { node: id });
            }
            cursor = self.nodes[c.index()].parent;
        }
        if self.nodes[id.index()].parent.is_some() {
            self.detach(id)?;
        }
        self.nodes[id.index()].parent = Some(new_parent);
        self.nodes[new_parent.index()].children.push(id);
        self.touch();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Attributes
    // ------------------------------------------------------------------

    /// Sets (or replaces) an attribute on a node.
    pub fn set_attr(
        &mut self,
        id: NodeId,
        name: impl Into<AttrName>,
        value: AttrValue,
    ) -> Result<()> {
        let name = name.into();
        if name.is_root_only() && Some(id) != self.root {
            return Err(CoreError::RootOnlyAttribute { node: id, name });
        }
        // `node_mut` replaces the revision token.
        self.node_mut(id)?.attrs.set(Attr::new(name, value));
        Ok(())
    }

    /// The node's own attribute value, without inheritance or styles.
    pub fn own_attr(&self, id: NodeId, name: &AttrName) -> Result<Option<&AttrValue>> {
        Ok(self.node(id)?.attrs.get(name))
    }

    /// Resolves the *effective* value of an attribute on a node.
    ///
    /// Resolution order (most specific wins):
    /// 1. the node's own attribute;
    /// 2. the node's own `style` expansion;
    /// 3. the nearest ancestor's own attribute or style expansion — but only
    ///    for attributes that are inherited (§5.2, Figure 7).
    pub fn effective_attr(&self, id: NodeId, name: &AttrName) -> Result<Option<AttrValue>> {
        self.effective_attr_as(id, name, |value| Some(value.clone()))
    }

    /// Resolves an attribute like [`Document::effective_attr`] and maps the
    /// value where it is found, without cloning it.
    fn effective_attr_as<T>(
        &self,
        id: NodeId,
        name: &AttrName,
        map: impl Fn(&AttrValue) -> Option<T>,
    ) -> Result<Option<T>> {
        let mut current = Some(id);
        let mut first = true;
        while let Some(node_id) = current {
            let node = self.node(node_id)?;
            if first || name.is_inherited() {
                if let Some(value) = node.attrs.get(name) {
                    return Ok(map(value));
                }
                if name != &AttrName::Style {
                    if let Some(style_value) = node.attrs.get(&AttrName::Style) {
                        let names = style_names(style_value)?;
                        let expanded = self.styles.expand_all(names.iter().map(|n| n.as_str()))?;
                        if let Some(value) = expanded.get(name) {
                            return Ok(map(value));
                        }
                    }
                }
            }
            first = false;
            current = node.parent;
        }
        Ok(None)
    }

    /// The effective channel name of a node, if any, as a `Copy` symbol.
    pub fn channel_of(&self, id: NodeId) -> Result<Option<Symbol>> {
        self.effective_attr_as(id, &AttrName::Channel, AttrValue::as_symbol)
    }

    /// The effective file / descriptor key of a node, if any, as a `Copy`
    /// symbol.
    pub fn file_of(&self, id: NodeId) -> Result<Option<Symbol>> {
        self.effective_attr_as(id, &AttrName::File, AttrValue::as_symbol)
    }

    /// The node's selection (slice, crop or clip attribute), if any.
    ///
    /// When several are present the temporal clip wins for scheduling
    /// purposes (it is the only one that affects duration).
    pub fn selection_of(&self, id: NodeId) -> Result<Option<Selection>> {
        let node = self.node(id)?;
        if let Some(value) = node.attrs.get(&AttrName::Clip) {
            let items = Self::numbers(value, &AttrName::Clip, 2)?;
            return Ok(Some(Selection::Clip {
                start_ms: items[0],
                duration_ms: items[1],
            }));
        }
        if let Some(value) = node.attrs.get(&AttrName::Crop) {
            let items = Self::numbers(value, &AttrName::Crop, 4)?;
            return Ok(Some(Selection::Crop {
                x: items[0] as u32,
                y: items[1] as u32,
                width: items[2] as u32,
                height: items[3] as u32,
            }));
        }
        if let Some(value) = node.attrs.get(&AttrName::Slice) {
            let items = Self::numbers(value, &AttrName::Slice, 2)?;
            return Ok(Some(Selection::Slice {
                start: items[0] as u64,
                length: items[1] as u64,
            }));
        }
        Ok(None)
    }

    fn numbers(value: &AttrValue, name: &AttrName, expected: usize) -> Result<Vec<i64>> {
        let items = value.as_list().ok_or(CoreError::AttributeType {
            name: *name,
            expected: "a list of numbers",
        })?;
        if items.len() != expected {
            return Err(CoreError::AttributeType {
                name: *name,
                expected: "a list with the documented number of elements",
            });
        }
        items
            .iter()
            .map(|v| {
                v.as_number().ok_or(CoreError::AttributeType {
                    name: *name,
                    expected: "numeric list elements",
                })
            })
            .collect()
    }

    /// The intrinsic duration of a leaf node's event on the document clock.
    ///
    /// Resolution order: a temporal clip selection, the node's own (or
    /// styled/inherited) `duration` attribute, then the data descriptor's
    /// duration. Returns `Ok(None)` when none of these is known — discrete
    /// media such as a still image have no natural duration and the
    /// scheduler applies its own policy.
    pub fn duration_of(
        &self,
        id: NodeId,
        resolver: &dyn DescriptorResolver,
    ) -> Result<Option<TimeMs>> {
        if let Some(Selection::Clip { duration_ms, .. }) = self.selection_of(id)? {
            return Ok(Some(TimeMs::from_millis(duration_ms)));
        }
        if let Some(value) = self.effective_attr(id, &AttrName::Duration)? {
            let ms = value.as_number().ok_or(CoreError::AttributeType {
                name: AttrName::Duration,
                expected: "a duration in milliseconds",
            })?;
            return Ok(Some(TimeMs::from_millis(ms)));
        }
        if self.node(id)?.kind == NodeKind::Ext {
            if let Some(key) = self.file_of(id)? {
                if let Some(descriptor) = resolver.resolve_symbol(key) {
                    return Ok(descriptor.duration);
                }
            }
        }
        Ok(None)
    }

    /// The medium presented by a leaf node: from its effective channel's
    /// definition when available, otherwise from the referenced descriptor,
    /// defaulting to text for immediate nodes.
    pub fn medium_of(&self, id: NodeId, resolver: &dyn DescriptorResolver) -> Result<MediaKind> {
        if let Some(channel) = self.channel_of(id)? {
            if let Some(def) = self.channels.get_symbol(channel) {
                return Ok(def.medium);
            }
        }
        if self.node(id)?.kind == NodeKind::Ext {
            if let Some(key) = self.file_of(id)? {
                if let Some(descriptor) = resolver.resolve_symbol(key) {
                    return Ok(descriptor.medium);
                }
            }
        }
        Ok(MediaKind::Text)
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    /// The children of a node, in document order.
    pub fn children(&self, id: NodeId) -> Result<&[NodeId]> {
        Ok(&self.node(id)?.children)
    }

    /// The parent of a node.
    pub fn parent(&self, id: NodeId) -> Result<Option<NodeId>> {
        Ok(self.node(id)?.parent)
    }

    /// The ancestors of a node, nearest first, ending with the root.
    pub fn ancestors(&self, id: NodeId) -> Result<Vec<NodeId>> {
        let mut out = Vec::new();
        let mut cursor = self.node(id)?.parent;
        while let Some(c) = cursor {
            out.push(c);
            cursor = self.node(c)?.parent;
        }
        Ok(out)
    }

    /// The nearest common ancestor of two nodes (used by §5.3.3 case 3:
    /// "the parents of a synchronization node can be traced until the common
    /// ancestor containing the source and destination of the arc is found").
    pub fn common_ancestor(&self, a: NodeId, b: NodeId) -> Result<Option<NodeId>> {
        let mut a_chain = vec![a];
        a_chain.extend(self.ancestors(a)?);
        let mut b_chain = vec![b];
        b_chain.extend(self.ancestors(b)?);
        for candidate in &a_chain {
            if b_chain.contains(candidate) {
                return Ok(Some(*candidate));
            }
        }
        Ok(None)
    }

    /// Pre-order traversal of the tree reachable from the root. A child id
    /// that is not a node of the document (only `node_mut` can list one)
    /// is skipped, not followed.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut pending: Vec<NodeId> = self.root.into_iter().collect();
        while let Some(id) = pending.pop() {
            if let Some(node) = self.nodes.get(id.index()) {
                out.push(id);
                pending.extend(node.children.iter().rev());
            }
        }
        out
    }

    /// All leaf nodes reachable from the root, in document order.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.preorder()
            .into_iter()
            .filter(|id| self.nodes[id.index()].kind.is_leaf())
            .collect()
    }

    /// Depth of the tree (root alone = 1; empty document = 0). Child ids
    /// that are not nodes of the document are skipped, as in
    /// [`Document::preorder`].
    pub fn depth(&self) -> usize {
        let mut deepest = 0;
        let mut pending: Vec<(NodeId, usize)> =
            self.root.map(|root| (root, 1)).into_iter().collect();
        while let Some((id, depth)) = pending.pop() {
            if let Some(node) = self.nodes.get(id.index()) {
                deepest = deepest.max(depth);
                pending.extend(node.children.iter().map(|child| (*child, depth + 1)));
            }
        }
        deepest
    }

    /// Finds the direct child of `parent` with the given `name` attribute.
    ///
    /// The name is looked up in the symbol pool once and never interned: a
    /// text the pool has never seen names no `Id`-valued child. `Id` names
    /// compare by symbol; only `Str`-valued names compare as text.
    pub fn named_child(&self, parent: NodeId, name: &str) -> Result<Option<NodeId>> {
        let symbol = Symbol::lookup(name);
        for child in self.children(parent)? {
            let matches = match self.node(*child)?.attrs.get(&AttrName::Name) {
                Some(AttrValue::Id(id)) => Some(*id) == symbol,
                Some(AttrValue::Str(text)) => text == name,
                _ => false,
            };
            if matches {
                return Ok(Some(*child));
            }
        }
        Ok(None)
    }

    /// Finds a node by absolute path from the root.
    pub fn find(&self, path: &str) -> Result<NodeId> {
        let root = self.root()?;
        self.resolve_path(root, &NodePath::parse(path))
    }

    /// Resolves a [`NodePath`] starting from `base` (the node carrying the
    /// arc or reference). The empty relative path designates `base` itself.
    pub fn resolve_path(&self, base: NodeId, path: &NodePath) -> Result<NodeId> {
        let mut current = if path.absolute { self.root()? } else { base };
        for segment in &path.segments {
            match segment {
                PathSegment::Parent => {
                    current = self
                        .parent(current)?
                        .ok_or_else(|| CoreError::UnresolvedPath {
                            path: path.to_string(),
                            base,
                        })?;
                }
                PathSegment::Child(name) => {
                    current = self.named_child(current, name)?.ok_or_else(|| {
                        CoreError::UnresolvedPath {
                            path: path.to_string(),
                            base,
                        }
                    })?;
                }
            }
        }
        Ok(current)
    }

    /// The absolute path of a node, built from `name` attributes. Unnamed
    /// nodes contribute a positional segment `@<index>` so the result is
    /// still unique and printable (used in diagnostics and views).
    pub fn path_of(&self, id: NodeId) -> Result<NodePath> {
        let mut segments = Vec::new();
        let mut cursor = id;
        loop {
            let node = self.node(cursor)?;
            let parent = match node.parent {
                Some(p) => p,
                None => break,
            };
            let segment = match node.name() {
                Some(name) => name.to_string(),
                None => {
                    let position = self
                        .children(parent)?
                        .iter()
                        .position(|c| *c == cursor)
                        .unwrap_or(0);
                    format!("@{position}")
                }
            };
            segments.push(PathSegment::Child(segment));
            cursor = parent;
        }
        segments.reverse();
        Ok(NodePath {
            absolute: true,
            segments,
        })
    }

    // ------------------------------------------------------------------
    // Synchronization arcs
    // ------------------------------------------------------------------

    /// Attaches an explicit synchronization arc to `carrier` (the node whose
    /// attribute list contains it). The arc is validated first.
    pub fn add_arc(&mut self, carrier: NodeId, arc: SyncArc) -> Result<()> {
        self.node(carrier)?;
        arc.validate()?;
        self.arcs.push((carrier, arc));
        self.touch();
        Ok(())
    }

    /// Replaces the `index`-th explicit arc (in [`Document::arcs`] order)
    /// with a new, validated arc on the same carrier. The arc's recorded
    /// source span — if any — is marked synthetic: the source text no longer
    /// describes the arc, so diagnostics fall back to paths instead of
    /// underlining a stale line.
    pub fn replace_arc(&mut self, index: usize, arc: SyncArc) -> Result<()> {
        if index >= self.arcs.len() {
            return Err(CoreError::UnknownArc { index });
        }
        arc.validate()?;
        self.arcs[index].1 = arc;
        if let Some(sources) = &mut self.sources {
            std::sync::Arc::make_mut(sources).mark_arc_synthetic(index);
        }
        self.touch();
        Ok(())
    }

    /// Removes the `index`-th explicit arc, returning its carrier and body.
    /// The [`crate::diag::SourceMap`] arc spans are kept index-aligned: the
    /// matching span entry is removed along with the arc.
    pub fn remove_arc(&mut self, index: usize) -> Result<(NodeId, SyncArc)> {
        if index >= self.arcs.len() {
            return Err(CoreError::UnknownArc { index });
        }
        let removed = self.arcs.remove(index);
        if let Some(sources) = &mut self.sources {
            std::sync::Arc::make_mut(sources).remove_arc_span(index);
        }
        self.touch();
        Ok(removed)
    }

    /// All explicit arcs with their carrying node.
    pub fn arcs(&self) -> &[(NodeId, SyncArc)] {
        &self.arcs
    }

    /// The explicit arcs carried by one node.
    pub fn arcs_of(&self, carrier: NodeId) -> Vec<&SyncArc> {
        self.arcs
            .iter()
            .filter(|(c, _)| *c == carrier)
            .map(|(_, a)| a)
            .collect()
    }

    /// Resolves the source and destination endpoints of every explicit arc.
    ///
    /// Returns `(carrier, arc, source, destination)` tuples or the first
    /// resolution error encountered.
    pub fn resolved_arcs(&self) -> Result<Vec<(NodeId, &SyncArc, NodeId, NodeId)>> {
        let mut out = Vec::with_capacity(self.arcs.len());
        for (carrier, arc) in &self.arcs {
            let source = self.resolve_path(*carrier, &arc.source).map_err(|_| {
                CoreError::UnresolvedArcEndpoint {
                    path: arc.source.to_string(),
                }
            })?;
            let destination = self.resolve_path(*carrier, &arc.destination).map_err(|_| {
                CoreError::UnresolvedArcEndpoint {
                    path: arc.destination.to_string(),
                }
            })?;
            out.push((*carrier, arc, source, destination));
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Events
    // ------------------------------------------------------------------

    /// Builds the event descriptor for one leaf node.
    pub fn event_of(
        &self,
        id: NodeId,
        resolver: &dyn DescriptorResolver,
    ) -> Result<EventDescriptor> {
        let node = self.node(id)?;
        if !node.kind.is_leaf() {
            return Err(CoreError::Invariant {
                message: format!("node {id} is not a leaf and has no event descriptor"),
            });
        }
        let channel = self
            .channel_of(id)?
            .ok_or(CoreError::MissingChannel { node: id })?;
        let selection = self.selection_of(id)?;
        let medium = self.medium_of(id, resolver)?;
        let duration = self.duration_of(id, resolver)?.unwrap_or(TimeMs::ZERO);
        let (descriptor, data_bytes) = match &node.kind {
            NodeKind::Ext => {
                let key = self
                    .file_of(id)?
                    .ok_or(CoreError::MissingFile { node: id })?;
                let bytes = match (&selection, resolver.resolve_symbol(key)) {
                    (Some(Selection::Slice { length, .. }), _) => *length,
                    (_, Some(d)) => d.size_bytes,
                    (_, None) => 0,
                };
                (Some(key), bytes)
            }
            NodeKind::Imm(data) => (None, data.len() as u64),
            _ => unreachable!("leaf check above"),
        };
        Ok(EventDescriptor {
            node: id,
            channel,
            descriptor,
            selection,
            duration,
            medium,
            data_bytes,
        })
    }

    /// Builds event descriptors for every leaf, in document order.
    pub fn events(&self, resolver: &dyn DescriptorResolver) -> Result<Vec<EventDescriptor>> {
        self.leaves()
            .into_iter()
            .map(|leaf| self.event_of(leaf, resolver))
            .collect()
    }

    /// Groups leaves by their effective channel, preserving document order
    /// inside each channel ("events that are placed on a single channel are
    /// synchronized in linear time order", §3.1).
    pub fn leaves_by_channel(&self) -> Result<BTreeMap<Symbol, Vec<NodeId>>> {
        let mut out: BTreeMap<Symbol, Vec<NodeId>> = BTreeMap::new();
        for leaf in self.leaves() {
            let channel = self.channel_of(leaf)?.unwrap_or_else(unassigned_channel);
            out.entry(channel).or_default().push(leaf);
        }
        Ok(out)
    }
}

/// The symbol leaves with no channel assignment are grouped under —
/// interned once, copied everywhere (the old code allocated the string per
/// leaf per pass).
pub fn unassigned_channel() -> Symbol {
    use std::sync::OnceLock;
    static UNASSIGNED: OnceLock<Symbol> = OnceLock::new();
    *UNASSIGNED.get_or_init(|| Symbol::intern("(unassigned)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelDef;
    use crate::descriptor::DataDescriptor;
    use crate::style::StyleDef;
    use crate::time::{DelayMs, MaxDelay};

    /// Builds a miniature two-channel document used by most tests:
    ///
    /// ```text
    /// root(seq, name=news)
    ///   story(par, name=story-1)
    ///     video(ext, name=video, channel=video, file=clip-v)
    ///     caption(imm "Gestolen van Goghs", name=caption, channel=caption)
    /// ```
    fn mini_doc() -> (Document, NodeId, NodeId, NodeId) {
        let mut doc = Document::with_root(NodeKind::Seq);
        let root = doc.root().unwrap();
        doc.set_attr(root, AttrName::Name, AttrValue::Id("news".into()))
            .unwrap();
        doc.channels
            .define(ChannelDef::new("video", MediaKind::Video))
            .unwrap();
        doc.channels
            .define(ChannelDef::new("caption", MediaKind::Text))
            .unwrap();
        doc.catalog
            .register(
                DataDescriptor::new("clip-v", MediaKind::Video, "rgb24")
                    .with_size(1_000_000)
                    .with_duration(TimeMs::from_secs(8)),
            )
            .unwrap();

        let story = doc.add_par(root).unwrap();
        doc.set_attr(story, AttrName::Name, AttrValue::Id("story-1".into()))
            .unwrap();

        let video = doc.add_ext(story).unwrap();
        doc.set_attr(video, AttrName::Name, AttrValue::Id("video".into()))
            .unwrap();
        doc.set_attr(video, AttrName::Channel, AttrValue::Id("video".into()))
            .unwrap();
        doc.set_attr(video, AttrName::File, AttrValue::Str("clip-v".into()))
            .unwrap();

        let caption = doc.add_imm_text(story, "Gestolen van Goghs").unwrap();
        doc.set_attr(caption, AttrName::Name, AttrValue::Id("caption".into()))
            .unwrap();
        doc.set_attr(caption, AttrName::Channel, AttrValue::Id("caption".into()))
            .unwrap();
        doc.set_attr(caption, AttrName::Duration, AttrValue::Number(4000))
            .unwrap();

        (doc, story, video, caption)
    }

    #[test]
    fn empty_document_has_no_root() {
        let doc = Document::new();
        assert!(matches!(doc.root().unwrap_err(), CoreError::EmptyDocument));
        assert_eq!(doc.depth(), 0);
        assert!(doc.preorder().is_empty());
    }

    #[test]
    fn with_root_and_children() {
        let (doc, story, video, caption) = mini_doc();
        let root = doc.root().unwrap();
        assert_eq!(doc.children(root).unwrap(), &[story]);
        assert_eq!(doc.children(story).unwrap(), &[video, caption]);
        assert_eq!(doc.parent(video).unwrap(), Some(story));
        assert_eq!(doc.depth(), 3);
        assert_eq!(doc.node_count(), 4);
        assert_eq!(doc.leaves(), vec![video, caption]);
    }

    #[test]
    fn leaves_cannot_have_children() {
        let (mut doc, _, video, _) = mini_doc();
        let err = doc.add_seq(video).unwrap_err();
        assert!(matches!(err, CoreError::InvalidChild { .. }));
    }

    #[test]
    fn root_only_attributes_are_rejected_elsewhere() {
        let (mut doc, story, _, _) = mini_doc();
        let err = doc
            .set_attr(story, AttrName::ChannelDictionary, AttrValue::list([]))
            .unwrap_err();
        assert!(matches!(err, CoreError::RootOnlyAttribute { .. }));
        let root = doc.root().unwrap();
        assert!(doc
            .set_attr(root, AttrName::ChannelDictionary, AttrValue::list([]))
            .is_ok());
    }

    #[test]
    fn effective_attr_inherits_channel_but_not_name() {
        let (mut doc, story, video, _) = mini_doc();
        // Remove the leaf's own channel: it should now inherit the parent's.
        doc.node_mut(video)
            .unwrap()
            .attrs
            .remove(&AttrName::Channel);
        doc.set_attr(story, AttrName::Channel, AttrValue::Id("video".into()))
            .unwrap();
        assert_eq!(
            doc.channel_of(video).unwrap(),
            Some(Symbol::intern("video"))
        );
        // Name is not inherited.
        assert_eq!(
            doc.effective_attr(video, &AttrName::Name)
                .unwrap()
                .unwrap()
                .as_text(),
            Some("video")
        );
        let unnamed = doc.add_ext(story).unwrap();
        assert!(doc
            .effective_attr(unnamed, &AttrName::Name)
            .unwrap()
            .is_none());
    }

    #[test]
    fn effective_attr_consults_styles() {
        let (mut doc, _, video, _) = mini_doc();
        doc.styles
            .define(
                StyleDef::new("fullscreen")
                    .with_attr(Attr::new(AttrName::Duration, AttrValue::Number(9000))),
            )
            .unwrap();
        doc.node_mut(video)
            .unwrap()
            .attrs
            .remove(&AttrName::Duration);
        doc.set_attr(video, AttrName::Style, AttrValue::Id("fullscreen".into()))
            .unwrap();
        assert_eq!(
            doc.effective_attr(video, &AttrName::Duration)
                .unwrap()
                .unwrap()
                .as_number(),
            Some(9000)
        );
        // The node's own attribute would still win over its style.
        doc.set_attr(video, AttrName::Duration, AttrValue::Number(100))
            .unwrap();
        assert_eq!(
            doc.effective_attr(video, &AttrName::Duration)
                .unwrap()
                .unwrap()
                .as_number(),
            Some(100)
        );
    }

    #[test]
    fn duration_resolution_order() {
        let (mut doc, _, video, caption) = mini_doc();
        // caption: explicit duration attribute.
        assert_eq!(
            doc.duration_of(caption, &doc.catalog).unwrap(),
            Some(TimeMs::from_millis(4000))
        );
        // video: falls back to the descriptor's duration.
        assert_eq!(
            doc.duration_of(video, &doc.catalog).unwrap(),
            Some(TimeMs::from_secs(8))
        );
        // A clip selection wins over everything.
        doc.set_attr(
            video,
            AttrName::Clip,
            AttrValue::list([AttrValue::Number(0), AttrValue::Number(1500)]),
        )
        .unwrap();
        assert_eq!(
            doc.duration_of(video, &doc.catalog).unwrap(),
            Some(TimeMs::from_millis(1500))
        );
    }

    #[test]
    fn selection_parsing() {
        let (mut doc, _, video, _) = mini_doc();
        doc.set_attr(
            video,
            AttrName::Crop,
            AttrValue::list([
                AttrValue::Number(10),
                AttrValue::Number(20),
                AttrValue::Number(320),
                AttrValue::Number(240),
            ]),
        )
        .unwrap();
        assert_eq!(
            doc.selection_of(video).unwrap(),
            Some(Selection::Crop {
                x: 10,
                y: 20,
                width: 320,
                height: 240
            })
        );
        doc.set_attr(
            video,
            AttrName::Slice,
            AttrValue::list([AttrValue::Number(0), AttrValue::Number(4096)]),
        )
        .unwrap();
        // Crop still wins over slice in the resolution order used here.
        assert!(matches!(
            doc.selection_of(video).unwrap(),
            Some(Selection::Crop { .. })
        ));
        // Malformed selection values are type errors.
        doc.set_attr(video, AttrName::Clip, AttrValue::Number(3))
            .unwrap();
        assert!(doc.selection_of(video).is_err());
    }

    #[test]
    fn medium_resolution() {
        let (doc, _, video, caption) = mini_doc();
        assert_eq!(
            doc.medium_of(video, &doc.catalog).unwrap(),
            MediaKind::Video
        );
        assert_eq!(
            doc.medium_of(caption, &doc.catalog).unwrap(),
            MediaKind::Text
        );
    }

    #[test]
    fn path_resolution_absolute_relative_and_parent() {
        let (doc, story, video, caption) = mini_doc();
        let root = doc.root().unwrap();
        assert_eq!(doc.find("/story-1/video").unwrap(), video);
        assert_eq!(
            doc.resolve_path(video, &NodePath::parse("../caption"))
                .unwrap(),
            caption
        );
        assert_eq!(
            doc.resolve_path(video, &NodePath::parse("")).unwrap(),
            video
        );
        assert_eq!(
            doc.resolve_path(caption, &NodePath::parse("/")).unwrap(),
            root
        );
        assert_eq!(
            doc.resolve_path(root, &NodePath::parse("story-1")).unwrap(),
            story
        );
        assert!(doc.resolve_path(root, &NodePath::parse("missing")).is_err());
        assert!(doc.resolve_path(root, &NodePath::parse("..")).is_err());
    }

    #[test]
    fn path_of_uses_names_and_positions() {
        let (mut doc, story, video, _) = mini_doc();
        assert_eq!(doc.path_of(video).unwrap().to_string(), "/story-1/video");
        let unnamed = doc.add_ext(story).unwrap();
        assert_eq!(doc.path_of(unnamed).unwrap().to_string(), "/story-1/@2");
        assert_eq!(doc.path_of(doc.root().unwrap()).unwrap().to_string(), "/");
    }

    #[test]
    fn named_child_lookup() {
        let (doc, story, video, _) = mini_doc();
        assert_eq!(doc.named_child(story, "video").unwrap(), Some(video));
        assert_eq!(doc.named_child(story, "nope").unwrap(), None);
    }

    #[test]
    fn paths_resolve_id_and_str_names_without_interning() {
        let (mut doc, story, video, _) = mini_doc();
        let by_text = doc.add_ext(story).unwrap();
        doc.set_attr(by_text, AttrName::Name, AttrValue::Str("by-text".into()))
            .unwrap();
        assert_eq!(doc.named_child(story, "video").unwrap(), Some(video));
        assert_eq!(doc.named_child(story, "by-text").unwrap(), Some(by_text));
        assert_eq!(doc.find("/story-1/video").unwrap(), video);
        assert_eq!(doc.find("/story-1/by-text").unwrap(), by_text);
        let sibling = |path: &str| doc.resolve_path(by_text, &NodePath::parse(path));
        assert_eq!(sibling("../video").unwrap(), video);
        assert_eq!(sibling("../by-text").unwrap(), by_text);

        // A segment the pool has never seen resolves nothing and is not
        // interned by the attempt.
        let unseen = "a-path-segment-no-document-names";
        assert_eq!(Symbol::lookup(unseen), None);
        assert_eq!(doc.named_child(story, unseen).unwrap(), None);
        assert!(matches!(
            doc.find(&format!("/story-1/{unseen}")),
            Err(CoreError::UnresolvedPath { .. })
        ));
        assert!(matches!(
            sibling(&format!("../{unseen}")),
            Err(CoreError::UnresolvedPath { .. })
        ));
        assert_eq!(Symbol::lookup(unseen), None);
    }

    #[test]
    fn ancestors_and_common_ancestor() {
        let (doc, story, video, caption) = mini_doc();
        let root = doc.root().unwrap();
        assert_eq!(doc.ancestors(video).unwrap(), vec![story, root]);
        assert_eq!(doc.common_ancestor(video, caption).unwrap(), Some(story));
        assert_eq!(doc.common_ancestor(video, root).unwrap(), Some(root));
        assert_eq!(doc.common_ancestor(video, video).unwrap(), Some(video));
    }

    #[test]
    fn detach_and_attach() {
        let (mut doc, story, video, caption) = mini_doc();
        let root = doc.root().unwrap();
        doc.detach(caption).unwrap();
        assert_eq!(doc.children(story).unwrap(), &[video]);
        assert_eq!(doc.leaves(), vec![video]);
        doc.attach(caption, root).unwrap();
        assert_eq!(doc.children(root).unwrap(), &[story, caption]);
        // Cannot attach a node beneath itself or under a leaf.
        assert!(matches!(
            doc.attach(story, video).unwrap_err(),
            CoreError::InvalidChild { .. }
        ));
        assert!(matches!(
            doc.attach(root, story).unwrap_err(),
            CoreError::TreeCycle { .. }
        ));
    }

    #[test]
    fn arcs_are_validated_and_resolved() {
        let (mut doc, _, video, caption) = mini_doc();
        doc.add_arc(caption, SyncArc::hard_start("../video", ""))
            .unwrap();
        let resolved = doc.resolved_arcs().unwrap();
        assert_eq!(resolved.len(), 1);
        let (carrier, _, source, destination) = resolved[0];
        assert_eq!(carrier, caption);
        assert_eq!(source, video);
        assert_eq!(destination, caption);
        assert_eq!(doc.arcs_of(caption).len(), 1);
        assert!(doc.arcs_of(video).is_empty());

        // Invalid windows are rejected at insertion time.
        let bad = SyncArc::hard_start("../video", "")
            .with_window(DelayMs::from_millis(5), MaxDelay::HARD);
        assert!(doc.add_arc(caption, bad).is_err());

        // Dangling endpoints are caught at resolution time.
        doc.add_arc(caption, SyncArc::hard_start("../no-such-node", ""))
            .unwrap();
        assert!(matches!(
            doc.resolved_arcs().unwrap_err(),
            CoreError::UnresolvedArcEndpoint { .. }
        ));
    }

    #[test]
    fn events_are_built_for_leaves() {
        let (doc, _, video, caption) = mini_doc();
        let events = doc.events(&doc.catalog).unwrap();
        assert_eq!(events.len(), 2);
        let video_event = events.iter().find(|e| e.node == video).unwrap();
        assert_eq!(video_event.channel, "video");
        assert_eq!(video_event.descriptor, Some(Symbol::intern("clip-v")));
        assert_eq!(video_event.data_bytes, 1_000_000);
        assert_eq!(video_event.duration, TimeMs::from_secs(8));
        let caption_event = events.iter().find(|e| e.node == caption).unwrap();
        assert!(caption_event.is_immediate());
        assert_eq!(caption_event.data_bytes, "Gestolen van Goghs".len() as u64);
    }

    #[test]
    fn event_of_interior_node_is_error() {
        let (doc, story, _, _) = mini_doc();
        assert!(doc.event_of(story, &doc.catalog).is_err());
    }

    #[test]
    fn missing_channel_is_reported() {
        let (mut doc, story, _, _) = mini_doc();
        let orphan = doc.add_imm_text(story, "no channel").unwrap();
        assert!(matches!(
            doc.event_of(orphan, &doc.catalog).unwrap_err(),
            CoreError::MissingChannel { .. }
        ));
    }

    #[test]
    fn leaves_by_channel_groups_in_document_order() {
        let (doc, _, video, caption) = mini_doc();
        let groups = doc.leaves_by_channel().unwrap();
        assert_eq!(groups[&Symbol::intern("video")], vec![video]);
        assert_eq!(groups[&Symbol::intern("caption")], vec![caption]);
    }

    #[test]
    fn unknown_node_errors() {
        let doc = Document::new();
        let bogus = NodeId::from_index(42);
        assert!(matches!(
            doc.node(bogus).unwrap_err(),
            CoreError::UnknownNode { .. }
        ));
    }
}
