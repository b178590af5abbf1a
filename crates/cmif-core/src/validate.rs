//! The structural rules of CMIF documents, implemented once.
//!
//! The paper spreads its consistency rules over §5.1–§5.3: sibling name
//! uniqueness, root-only dictionaries, resolvable and acyclic styles,
//! channel references, the `file` requirement on external nodes, and the
//! sign rules of synchronization delay windows. [`Findings::of`] checks all
//! of them in one pass — the style dictionary's resolution, one preorder
//! walk for every node rule with a reachability bitmap for detached nodes,
//! one loop over the arcs — and yields each violation as a coded
//! [`Finding`]. Two readers share that pass:
//!
//! * [`validate`] returns the first error it meets, as the decoders and
//!   `DocumentBuilder::build` require;
//! * `cmif-lint` renders every finding as a diagnostic under its code
//!   (L001–L009, L102, L103 and L201).
//!
//! A finding is a code, a [`Subject`] and the [`CoreError`] `validate`
//! reports for it: the pass builds no message text, so a clean document
//! costs the walk and nothing more.

use crate::attr::AttrName;
use crate::diag::codes::*;
use crate::diag::Code;
use crate::error::{CoreError, Result};
use crate::node::{NodeId, NodeKind};
use crate::style::style_names;
use crate::symbol::Symbol;
use crate::tree::Document;
use crate::value::AttrValue;

/// Finds the children that repeat an earlier sibling's name (§5.1: sibling
/// names must be unique), for one composite at a time.
///
/// The check sorts `(name, position)` pairs instead of comparing every
/// child with every earlier sibling, so a composite with `n` children costs
/// `O(n log n)` rather than `O(n²)`. Its buffers are kept between calls:
/// reuse one `SiblingNames` across a document's composites and the scan
/// allocates nothing per composite.
#[derive(Debug, Default)]
pub struct SiblingNames {
    named: Vec<(Symbol, usize)>,
    repeats: Vec<(usize, Symbol)>,
}

impl SiblingNames {
    /// Every child of `children` whose name an earlier sibling already
    /// carries, as `(position, name)`: one entry per later duplicate, in
    /// child order. Unnamed children, and ids that are not nodes of `doc`,
    /// never match.
    pub fn repeats(&mut self, doc: &Document, children: &[NodeId]) -> &[(usize, Symbol)] {
        self.named.clear();
        self.named
            .extend(children.iter().enumerate().filter_map(|(position, child)| {
                let name = doc.node(*child).ok()?.name_symbol()?;
                Some((name, position))
            }));
        // Within a run of equal names the first position is the original;
        // every later one is a repeat.
        self.named.sort_unstable();
        self.repeats.clear();
        self.repeats.extend(
            self.named
                .windows(2)
                .filter(|pair| pair[0].0 == pair[1].0)
                .map(|pair| (pair[1].1, pair[1].0)),
        );
        self.repeats.sort_unstable_by_key(|(position, _)| *position);
        &self.repeats
    }
}

/// What a [`Finding`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject {
    /// The document as a whole.
    Document,
    /// A style definition, by its position in declaration order.
    Style(usize),
    /// A node of the tree.
    Node(NodeId),
    /// An explicit arc, by its position in [`Document::arcs`], and the
    /// endpoint that does not resolve (`None` for the arc's delay window).
    Arc(usize, Option<Endpoint>),
}

/// One end of an explicit synchronization arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// The controlling node.
    Source,
    /// The controlled node.
    Destination,
}

/// One violation of a structural rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The lint code the rule reports under.
    pub code: Code,
    /// What the finding is about.
    pub subject: Subject,
    /// The error [`validate`] reports for it; `None` for a node the root no
    /// longer reaches, which does not make a document invalid.
    pub error: Option<CoreError>,
}

/// The findings of one run of the structural rule set, in the order the
/// pass meets them: the root, the style dictionary, the nodes in preorder
/// (each node's rules in a fixed order), the detached nodes, the arcs.
#[derive(Debug, Default)]
pub struct Findings {
    found: Vec<Finding>,
    /// The first error met, which [`validate`] reports. For the style
    /// dictionary that is the first error its resolution meets, definition
    /// by definition, rather than its first finding.
    error: Option<CoreError>,
}

impl Findings {
    /// Runs every structural rule over `doc`.
    pub fn of(doc: &Document) -> Findings {
        let mut findings = Findings::default();
        let root = doc.root();
        if let Err(error) = &root {
            findings.push(EMPTY_DOCUMENT, Subject::Document, error.clone());
        }
        findings.styles(doc);
        if let Ok(root) = root {
            findings.tree(doc, root);
        }
        findings.arcs(doc);
        findings
    }

    /// Every finding, in pass order.
    pub fn iter(&self) -> std::slice::Iter<'_, Finding> {
        self.found.iter()
    }

    fn push(&mut self, code: Code, subject: Subject, error: CoreError) {
        self.error.get_or_insert_with(|| error.clone());
        self.found.push(Finding {
            code,
            subject,
            error: Some(error),
        });
    }

    /// L005 and L006 over the dictionary, definition by definition: each
    /// parent it names that is not defined, and whether it lies on a
    /// definition cycle. Neither exists when every style resolves.
    fn styles(&mut self, doc: &Document) {
        let Some(error) = doc.styles.first_error() else {
            return;
        };
        self.error.get_or_insert_with(|| error.clone());
        for (position, def) in doc.styles.iter().enumerate() {
            let at = Subject::Style(position);
            for parent in def.parents.iter().filter(|p| !doc.styles.contains(p)) {
                let style = parent.clone();
                self.push(UNKNOWN_STYLE, at, CoreError::UnknownStyle { style });
            }
            if doc.styles.cyclic()[position] {
                let style = def.name.clone();
                self.push(STYLE_CYCLE, at, CoreError::StyleCycle { style });
            }
        }
    }

    /// Every node rule, node by node in preorder, then L009 for each node
    /// the walk never reached, in arena order.
    fn tree(&mut self, doc: &Document, root: NodeId) {
        let mut reached = vec![false; doc.node_count()];
        let mut sibling_names = SiblingNames::default();
        for id in doc.preorder() {
            let Ok(node) = doc.node(id) else { continue };
            reached[id.index()] = true;
            let at = Subject::Node(id);
            if let Err(error) = node.attrs.validate_unique(id) {
                self.push(DUPLICATE_ATTRIBUTE, at, error);
            }
            let names = node.attrs.iter().map(|attr| attr.name);
            for name in names.filter(|name| name.is_root_only() && id != root) {
                let error = CoreError::RootOnlyAttribute { node: id, name };
                self.push(ROOT_ONLY_ATTRIBUTE, at, error);
            }
            // Repeated names are reported on the repeating child, in child
            // order alongside any child that is not a node.
            if node.kind.is_composite() {
                let mut repeats = sibling_names.repeats(doc, &node.children).iter().peekable();
                for (position, &child) in node.children.iter().enumerate() {
                    if let Err(error) = doc.node(child) {
                        self.push(DUPLICATE_SIBLING_NAME, at, error);
                    } else if let Some(&(_, name)) = repeats.next_if(|(p, _)| *p == position) {
                        let error = CoreError::DuplicateSiblingName { parent: id, name };
                        self.push(DUPLICATE_SIBLING_NAME, Subject::Node(child), error);
                    }
                }
            }
            match node.attrs.get(&AttrName::Style).map(style_names) {
                Some(Ok(names)) => {
                    for name in names {
                        if !doc.styles.contains(name.as_str()) {
                            let style = name.as_str().to_string();
                            self.push(UNKNOWN_STYLE, at, CoreError::UnknownStyle { style });
                        }
                    }
                }
                Some(Err(error)) => self.push(UNKNOWN_STYLE, at, error),
                None => {}
            }
            // Checked where the attribute is set: inheritance then cannot
            // introduce a dangling reference.
            let channel = node.attrs.get(&AttrName::Channel);
            if let Some(channel) = channel.and_then(AttrValue::as_symbol) {
                if !doc.channels.contains_symbol(channel) {
                    self.push(UNKNOWN_CHANNEL, at, CoreError::UnknownChannel { channel });
                }
            }
            // A style that fails to resolve fails these lookups too; its
            // own finding came first.
            if node.kind == NodeKind::Ext && matches!(doc.file_of(id), Ok(None)) {
                self.push(MISSING_FILE, at, CoreError::MissingFile { node: id });
            }
            if node.kind.is_leaf() && matches!(doc.channel_of(id), Ok(None)) {
                self.push(MISSING_CHANNEL, at, CoreError::MissingChannel { node: id });
            }
        }
        for (index, _) in reached.iter().enumerate().filter(|(_, reached)| !**reached) {
            self.found.push(Finding {
                code: UNREACHABLE_NODE,
                subject: Subject::Node(NodeId::from_index(index as u32)),
                error: None,
            });
        }
    }

    /// L102 and L103, arc by arc: the delay window, then each endpoint.
    fn arcs(&mut self, doc: &Document) {
        for (index, (carrier, arc)) in doc.arcs().iter().enumerate() {
            if let Err(error) = arc.validate() {
                self.push(INVALID_DELAY_WINDOW, Subject::Arc(index, None), error);
            }
            for (end, path) in [
                (Endpoint::Source, &arc.source),
                (Endpoint::Destination, &arc.destination),
            ] {
                if doc.resolve_path(*carrier, path).is_err() {
                    let path = path.to_string();
                    let error = CoreError::UnresolvedArcEndpoint { path };
                    self.push(
                        UNRESOLVED_ARC_ENDPOINT,
                        Subject::Arc(index, Some(end)),
                        error,
                    );
                }
            }
        }
    }
}

/// Validates a document, returning the first violation of a structural
/// rule that [`Findings::of`] meets.
pub fn validate(doc: &Document) -> Result<()> {
    match Findings::of(doc).error {
        Some(error) => Err(error),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arc::SyncArc;
    use crate::attr::AttrName;
    use crate::channel::{ChannelDef, MediaKind};
    use crate::descriptor::DataDescriptor;
    use crate::node::NodeKind;
    use crate::style::StyleDef;
    use crate::time::TimeMs;
    use crate::value::AttrValue;

    /// Every error the rule set finds, in pass order.
    fn errors(doc: &Document) -> Vec<CoreError> {
        Findings::of(doc)
            .iter()
            .filter_map(|f| f.error.clone())
            .collect()
    }

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

    #[test]
    fn a_valid_document_passes() {
        assert!(validate(&valid_doc()).is_ok());
        assert!(Findings::of(&valid_doc()).iter().next().is_none());
    }

    #[test]
    fn empty_document_fails() {
        let doc = Document::new();
        assert!(matches!(
            validate(&doc).unwrap_err(),
            CoreError::EmptyDocument
        ));
    }

    #[test]
    fn duplicate_sibling_names_are_reported() {
        let mut doc = valid_doc();
        let root = doc.root().unwrap();
        let second = doc.add_imm_text(root, "x").unwrap();
        doc.set_attr(second, AttrName::Name, AttrValue::Id("voice".into()))
            .unwrap();
        doc.set_attr(second, AttrName::Channel, AttrValue::Id("audio".into()))
            .unwrap();
        let problems = errors(&doc);
        assert!(problems
            .iter()
            .any(|p| matches!(p, CoreError::DuplicateSiblingName { .. })));
    }

    #[test]
    fn same_name_under_different_parents_is_fine() {
        // "otherwise a name may occur more than once in the tree" (Fig. 7).
        let mut doc = valid_doc();
        let root = doc.root().unwrap();
        let group_a = doc.add_par(root).unwrap();
        doc.set_attr(group_a, AttrName::Name, AttrValue::Id("block".into()))
            .unwrap();
        let group_b = doc.add_par(root).unwrap();
        doc.set_attr(group_b, AttrName::Name, AttrValue::Id("other".into()))
            .unwrap();
        for group in [group_a, group_b] {
            let leaf = doc.add_imm_text(group, "t").unwrap();
            doc.set_attr(leaf, AttrName::Name, AttrValue::Id("shared-name".into()))
                .unwrap();
            doc.set_attr(leaf, AttrName::Channel, AttrValue::Id("audio".into()))
                .unwrap();
        }
        assert!(validate(&doc).is_ok());
    }

    #[test]
    fn missing_file_on_external_node_is_reported() {
        let mut doc = valid_doc();
        let root = doc.root().unwrap();
        let bad = doc.add_ext(root).unwrap();
        doc.set_attr(bad, AttrName::Channel, AttrValue::Id("audio".into()))
            .unwrap();
        let problems = errors(&doc);
        assert!(problems
            .iter()
            .any(|p| matches!(p, CoreError::MissingFile { .. })));
    }

    #[test]
    fn inherited_file_satisfies_external_node() {
        let mut doc = valid_doc();
        let root = doc.root().unwrap();
        doc.set_attr(root, AttrName::File, AttrValue::Str("clip".into()))
            .unwrap();
        let leaf = doc.add_ext(root).unwrap();
        doc.set_attr(leaf, AttrName::Channel, AttrValue::Id("audio".into()))
            .unwrap();
        assert!(validate(&doc).is_ok());
    }

    #[test]
    fn unknown_channel_and_style_references_are_reported() {
        let mut doc = valid_doc();
        let root = doc.root().unwrap();
        let leaf = doc.add_imm_text(root, "x").unwrap();
        doc.set_attr(leaf, AttrName::Channel, AttrValue::Id("video".into()))
            .unwrap();
        doc.set_attr(leaf, AttrName::Style, AttrValue::Id("missing-style".into()))
            .unwrap();
        let problems = errors(&doc);
        assert!(problems
            .iter()
            .any(|p| matches!(p, CoreError::UnknownChannel { .. })));
        assert!(problems
            .iter()
            .any(|p| matches!(p, CoreError::UnknownStyle { .. })));
    }

    #[test]
    fn style_cycles_are_reported() {
        let mut doc = valid_doc();
        doc.styles
            .define(StyleDef::new("a").with_parent("b"))
            .unwrap();
        doc.styles
            .define(StyleDef::new("b").with_parent("a"))
            .unwrap();
        let problems = errors(&doc);
        assert!(problems
            .iter()
            .any(|p| matches!(p, CoreError::StyleCycle { .. })));
    }

    #[test]
    fn dangling_arc_endpoints_are_reported() {
        let mut doc = valid_doc();
        let leaf = doc.find("/voice").unwrap();
        doc.add_arc(leaf, SyncArc::hard_start("/no-such", ""))
            .unwrap();
        let problems = errors(&doc);
        assert!(problems
            .iter()
            .any(|p| matches!(p, CoreError::UnresolvedArcEndpoint { .. })));
    }

    /// The pairwise scan [`SiblingNames`] replaced: every named child
    /// against every earlier sibling.
    fn repeats_by_pairwise_scan(doc: &Document, children: &[NodeId]) -> Vec<(usize, Symbol)> {
        let name_of = |id: &NodeId| doc.node(*id).ok().and_then(|n| n.name_symbol());
        children
            .iter()
            .enumerate()
            .filter_map(|(position, child)| {
                let name = name_of(child)?;
                children[..position]
                    .iter()
                    .any(|other| name_of(other) == Some(name))
                    .then_some((position, name))
            })
            .collect()
    }

    #[test]
    fn sibling_name_repeats_match_the_pairwise_scan() {
        // SplitMix64, so every case replays from the seed.
        let mut state = 0x0c1f_5eed_u64;
        let mut below = move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let mut names = SiblingNames::default();
        for case in 0..300 {
            // A root seq whose children — leaves and pars, some unnamed —
            // draw names from a small pool, and whose pars hold children
            // of their own, so one `SiblingNames` serves many composites.
            let mut doc = Document::with_root(NodeKind::Seq);
            let root = doc.root().unwrap();
            let pool = 1 + below(6);
            let mut parents = vec![root];
            for _ in 0..below(48) {
                let parent = parents[below(parents.len() as u64) as usize];
                let child = if below(4) == 0 {
                    let par = doc.add_par(parent).unwrap();
                    parents.push(par);
                    par
                } else {
                    doc.add_imm_text(parent, "x").unwrap()
                };
                if below(5) != 0 {
                    let name = format!("n{}", below(pool));
                    doc.set_attr(child, AttrName::Name, AttrValue::Id(name.into()))
                        .unwrap();
                }
            }

            let mut expected = Vec::new();
            for parent in doc.preorder() {
                let children = doc.children(parent).unwrap().to_vec();
                let scanned = repeats_by_pairwise_scan(&doc, &children);
                assert_eq!(names.repeats(&doc, &children), scanned, "case {case}");
                expected.extend(scanned.into_iter().map(|(_, name)| (parent, name)));
            }
            let reported: Vec<(NodeId, Symbol)> = errors(&doc)
                .into_iter()
                .filter_map(|problem| match problem {
                    CoreError::DuplicateSiblingName { parent, name } => Some((parent, name)),
                    _ => None,
                })
                .collect();
            assert_eq!(reported, expected, "case {case}");
        }

        // An id outside the arena is never a repeat.
        let doc = valid_doc();
        let voice = doc.find("/voice").unwrap();
        let stray = NodeId::from_index(10_000);
        let children = [voice, stray, voice, stray];
        assert_eq!(
            names.repeats(&doc, &children),
            repeats_by_pairwise_scan(&doc, &children)
        );
        assert_eq!(names.repeats(&doc, &children).len(), 1);
    }

    #[test]
    fn leaf_without_channel_is_reported() {
        let mut doc = valid_doc();
        let root = doc.root().unwrap();
        doc.add_imm_text(root, "orphan").unwrap();
        let problems = errors(&doc);
        assert!(problems
            .iter()
            .any(|p| matches!(p, CoreError::MissingChannel { .. })));
    }
}
