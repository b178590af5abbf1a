//! Structural validation of CMIF documents.
//!
//! The paper spreads its consistency rules over §5.1–§5.3: sibling name
//! uniqueness, root-only dictionaries, style acyclicity, channel references,
//! the `file` requirement on external nodes, and the sign rules of
//! synchronization delay windows. [`validate`] checks all of them and
//! returns the first violation; [`validate_all`] collects every violation,
//! which is what an authoring tool wants to show its user.

use crate::attr::AttrName;
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

/// Validates a document, returning the first violation found.
pub fn validate(doc: &Document) -> Result<()> {
    match validate_all(doc) {
        problems if problems.is_empty() => Ok(()),
        mut problems => Err(problems.remove(0)),
    }
}

/// Validates a document, returning every violation found.
pub fn validate_all(doc: &Document) -> Vec<CoreError> {
    let mut problems = Vec::new();
    let root = match doc.root() {
        Ok(root) => root,
        Err(e) => return vec![e],
    };

    // Style dictionary consistency (dangling references, cycles).
    if let Err(e) = doc.styles.validate() {
        problems.push(e);
    }

    let mut sibling_names = SiblingNames::default();
    for id in doc.preorder() {
        let node = match doc.node(id) {
            Ok(node) => node,
            Err(e) => {
                problems.push(e);
                continue;
            }
        };

        // Attribute list uniqueness (cheap to re-check after bulk edits).
        if let Err(e) = node.attrs.validate_unique(id) {
            problems.push(e);
        }

        // Root-only attributes.
        for attr in node.attrs.iter() {
            if attr.name.is_root_only() && id != root {
                problems.push(CoreError::RootOnlyAttribute {
                    node: id,
                    name: attr.name,
                });
            }
        }

        // Sibling name uniqueness, reported in child order alongside any
        // child that is not a node.
        if node.kind.is_composite() {
            let mut repeats = sibling_names.repeats(doc, &node.children).iter().peekable();
            for (position, child) in node.children.iter().enumerate() {
                if let Err(e) = doc.node(*child) {
                    problems.push(e);
                } else if let Some((_, name)) = repeats.next_if(|(at, _)| *at == position) {
                    problems.push(CoreError::DuplicateSiblingName {
                        parent: id,
                        name: *name,
                    });
                }
            }
        }

        // Style references must resolve.
        if let Some(style_value) = node.attrs.get(&AttrName::Style) {
            match style_names(style_value) {
                Ok(names) => {
                    for name in names {
                        if !doc.styles.contains(name.as_str()) {
                            problems.push(CoreError::UnknownStyle {
                                style: name.as_str().to_string(),
                            });
                        }
                    }
                }
                Err(e) => problems.push(e),
            }
        }

        // Channel references must resolve (checked on the node that sets the
        // attribute; inheritance then cannot introduce dangling references).
        if let Some(channel) = node
            .attrs
            .get(&AttrName::Channel)
            .and_then(AttrValue::as_symbol)
        {
            if !doc.channels.contains_symbol(channel) {
                problems.push(CoreError::UnknownChannel { channel });
            }
        }

        // Leaf-specific rules.
        match &node.kind {
            NodeKind::Ext => match doc.file_of(id) {
                Ok(Some(_)) => {}
                Ok(None) => problems.push(CoreError::MissingFile { node: id }),
                Err(e) => problems.push(e),
            },
            NodeKind::Imm(_) | NodeKind::Seq | NodeKind::Par => {}
        }
        if node.kind.is_leaf() {
            match doc.channel_of(id) {
                Ok(Some(_)) => {}
                Ok(None) => problems.push(CoreError::MissingChannel { node: id }),
                Err(e) => problems.push(e),
            }
        }
    }

    // Synchronization arcs: window validity and endpoint resolution.
    for (carrier, arc) in doc.arcs() {
        if let Err(e) = arc.validate() {
            problems.push(e);
        }
        if doc.resolve_path(*carrier, &arc.source).is_err() {
            problems.push(CoreError::UnresolvedArcEndpoint {
                path: arc.source.to_string(),
            });
        }
        if doc.resolve_path(*carrier, &arc.destination).is_err() {
            problems.push(CoreError::UnresolvedArcEndpoint {
                path: arc.destination.to_string(),
            });
        }
    }

    problems
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
        assert!(validate_all(&valid_doc()).is_empty());
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
        let problems = validate_all(&doc);
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
        let problems = validate_all(&doc);
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
        let problems = validate_all(&doc);
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
        let problems = validate_all(&doc);
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
        let problems = validate_all(&doc);
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
            let reported: Vec<(NodeId, Symbol)> = validate_all(&doc)
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
        let problems = validate_all(&doc);
        assert!(problems
            .iter()
            .any(|p| matches!(p, CoreError::MissingChannel { .. })));
    }
}
