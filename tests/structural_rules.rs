//! Equivalence suite for the structural rule set.
//!
//! `cmif_core::validate` runs every structural rule in one pass, which both
//! `validate` and the twelve structural lint codes (L001–L009, L102, L103,
//! L201) read, and the style dictionary flattens each style once. This
//! suite keeps what that replaced as references — the per-rule
//! `validate_all`, the twelve lint passes that re-implemented it, and the
//! recursive, unmemoised style expansion — and checks over the benchmark's
//! broadcast shapes, the Evening News, rootless documents and seeded random
//! documents carrying defects from every rule that:
//!
//! * `validate` returns the reference's verdict and error;
//! * lint reports equal the reference byte for byte, apart from two
//!   deliberate changes: a malformed `style` value is an L005 finding on its
//!   node, and L006 names each style on a definition cycle once, in
//!   declaration order;
//! * under default severities, `validate` errs exactly when lint denies on
//!   a structural code;
//! * `expand`, `expand_all` and `effective_attr` return the reference's
//!   values or errors.
//!
//! Two rules cannot be broken through the document API — `add_arc` and
//! `replace_arc` validate delay windows, and attribute lists refuse
//! duplicates — so L004 and L102 are compared only as silent.

use std::collections::{BTreeMap, HashSet};

use cmif::core::arc::SyncArc;
use cmif::core::attr::{Attr, AttrList, AttrName};
use cmif::core::channel::{ChannelDef, MediaKind};
use cmif::core::descriptor::DataDescriptor;
use cmif::core::diag::{codes, render_all, Code, Diagnostic};
use cmif::core::error::{CoreError, Result};
use cmif::core::node::{NodeId, NodeKind};
use cmif::core::style::{style_names, StyleDef, StyleDictionary};
use cmif::core::time::{DelayMs, MaxDelay, MediaTime, TimeMs};
use cmif::core::tree::Document;
use cmif::core::validate::{validate, SiblingNames};
use cmif::core::value::AttrValue;
use cmif::format::{parse_document_unvalidated, write_document};
use cmif::lint::{passes, Limits, LintContext, Linter};
use cmif::news::evening_news;
use cmif::scheduler::ScheduleOptions;
use cmif::synthetic::SyntheticNews;

/// The codes the structural rule set reports.
const STRUCTURAL: [Code; 12] = [
    codes::EMPTY_DOCUMENT,
    codes::DUPLICATE_SIBLING_NAME,
    codes::ROOT_ONLY_ATTRIBUTE,
    codes::DUPLICATE_ATTRIBUTE,
    codes::UNKNOWN_STYLE,
    codes::STYLE_CYCLE,
    codes::MISSING_FILE,
    codes::MISSING_CHANNEL,
    codes::UNREACHABLE_NODE,
    codes::INVALID_DELAY_WINDOW,
    codes::UNRESOLVED_ARC_ENDPOINT,
    codes::UNKNOWN_CHANNEL,
];

/// The implementations the rule set replaced, kept verbatim apart from
/// taking the document instead of a lint context.
mod reference {
    use super::*;

    // -- The recursive style expansion -----------------------------------

    fn expand_into(
        dict: &StyleDictionary,
        name: &str,
        out: &mut AttrList,
        visiting: &mut Vec<String>,
    ) -> Result<()> {
        if visiting.iter().any(|n| n == name) {
            return Err(CoreError::StyleCycle {
                style: name.to_string(),
            });
        }
        let def = dict.get(name).ok_or_else(|| CoreError::UnknownStyle {
            style: name.to_string(),
        })?;
        visiting.push(name.to_string());
        for parent in &def.parents {
            expand_into(dict, parent, out, visiting)?;
        }
        for attr in &def.attrs {
            out.set(attr.clone());
        }
        visiting.pop();
        Ok(())
    }

    pub fn expand(dict: &StyleDictionary, name: &str) -> Result<AttrList> {
        let mut out = AttrList::new();
        expand_into(dict, name, &mut out, &mut Vec::new())?;
        Ok(out)
    }

    pub fn expand_all<'a>(
        dict: &StyleDictionary,
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<AttrList> {
        let mut out = AttrList::new();
        for name in names {
            expand_into(dict, name, &mut out, &mut Vec::new())?;
        }
        Ok(out)
    }

    fn validate_styles(dict: &StyleDictionary) -> Result<()> {
        for def in dict.iter() {
            expand(dict, &def.name)?;
        }
        Ok(())
    }

    fn nesting_depth(dict: &StyleDictionary, name: &str) -> Result<usize> {
        fn depth(dict: &StyleDictionary, name: &str, visiting: &mut Vec<String>) -> Result<usize> {
            if visiting.iter().any(|n| n == name) {
                return Err(CoreError::StyleCycle {
                    style: name.to_string(),
                });
            }
            let def = dict.get(name).ok_or_else(|| CoreError::UnknownStyle {
                style: name.to_string(),
            })?;
            visiting.push(name.to_string());
            let mut max_parent = 0;
            for parent in &def.parents {
                max_parent = max_parent.max(depth(dict, parent, visiting)?);
            }
            visiting.pop();
            Ok(max_parent + 1)
        }
        depth(dict, name, &mut Vec::new())
    }

    pub fn effective_attr(
        doc: &Document,
        id: NodeId,
        name: &AttrName,
    ) -> Result<Option<AttrValue>> {
        let mut current = Some(id);
        let mut first = true;
        while let Some(node_id) = current {
            let node = doc.node(node_id)?;
            if first || name.is_inherited() {
                if let Some(value) = node.attrs.get(name) {
                    return Ok(Some(value.clone()));
                }
                if name != &AttrName::Style {
                    if let Some(style_value) = node.attrs.get(&AttrName::Style) {
                        let names = style_names(style_value)?;
                        let expanded = expand_all(&doc.styles, names.iter().map(|n| n.as_str()))?;
                        if let Some(value) = expanded.get(name) {
                            return Ok(Some(value.clone()));
                        }
                    }
                }
            }
            first = false;
            current = node.parent;
        }
        Ok(None)
    }

    fn symbol_of(
        doc: &Document,
        id: NodeId,
        name: AttrName,
    ) -> Result<Option<cmif::core::symbol::Symbol>> {
        Ok(effective_attr(doc, id, &name)?.and_then(|v| v.as_symbol()))
    }

    // -- validate_all ------------------------------------------------------

    pub fn validate_all(doc: &Document) -> Vec<CoreError> {
        let mut problems = Vec::new();
        let root = match doc.root() {
            Ok(root) => root,
            Err(e) => return vec![e],
        };
        if let Err(e) = validate_styles(&doc.styles) {
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
            if let Err(e) = node.attrs.validate_unique(id) {
                problems.push(e);
            }
            for attr in node.attrs.iter() {
                if attr.name.is_root_only() && id != root {
                    problems.push(CoreError::RootOnlyAttribute {
                        node: id,
                        name: attr.name,
                    });
                }
            }
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
            if let Some(channel) = node
                .attrs
                .get(&AttrName::Channel)
                .and_then(AttrValue::as_symbol)
            {
                if !doc.channels.contains_symbol(channel) {
                    problems.push(CoreError::UnknownChannel { channel });
                }
            }
            match &node.kind {
                NodeKind::Ext => match symbol_of(doc, id, AttrName::File) {
                    Ok(Some(_)) => {}
                    Ok(None) => problems.push(CoreError::MissingFile { node: id }),
                    Err(e) => problems.push(e),
                },
                NodeKind::Imm(_) | NodeKind::Seq | NodeKind::Par => {}
            }
            if node.kind.is_leaf() {
                match symbol_of(doc, id, AttrName::Channel) {
                    Ok(Some(_)) => {}
                    Ok(None) => problems.push(CoreError::MissingChannel { node: id }),
                    Err(e) => problems.push(e),
                }
            }
        }
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

    // -- The twelve structural lint passes ---------------------------------

    /// Which lint behaviour to reproduce: exactly the passes as they were,
    /// or with the two deliberate changes applied.
    #[derive(Clone, Copy, PartialEq)]
    pub enum Changes {
        None,
        Deliberate,
    }

    /// A full lint report: the structural codes from the reference passes,
    /// every other code from the registry's own pass.
    pub fn lint(doc: &Document, changes: Changes) -> Vec<Diagnostic> {
        let (options, limits) = (ScheduleOptions::default(), Limits::default());
        let ctx = LintContext::new(doc, &options, &limits);
        let head = Head { doc, changes };
        let mut out = Vec::new();
        for pass in passes::registry() {
            if !head.pass(pass.code, &mut out) {
                pass.run(&ctx, &mut out);
            }
        }
        out
    }

    struct Head<'a> {
        doc: &'a Document,
        changes: Changes,
    }

    impl Head<'_> {
        /// Runs the reference pass for `code`; false when `code` is not
        /// structural.
        fn pass(&self, code: Code, out: &mut Vec<Diagnostic>) -> bool {
            match code.as_str() {
                "L001" => self.empty_document(out),
                "L002" => self.duplicate_sibling_names(out),
                "L003" => self.root_only_attributes(out),
                "L004" => self.duplicate_attributes(out),
                "L005" => self.unknown_styles(out),
                "L006" => self.style_cycles(out),
                "L007" => self.missing_files(out),
                "L008" => self.missing_channels(out),
                "L009" => self.unreachable_nodes(out),
                "L102" => self.invalid_delay_windows(out),
                "L103" => self.unresolved_arc_endpoints(out),
                "L201" => self.unknown_channels(out),
                _ => return false,
            }
            true
        }

        fn path_str(&self, node: NodeId) -> String {
            self.doc
                .path_of(node)
                .map(|p| p.to_string())
                .unwrap_or_else(|_| node.to_string())
        }

        fn at_node(&self, diag: Diagnostic, node: NodeId) -> Diagnostic {
            let diag = diag.at_path(self.path_str(node));
            match self.doc.sources.as_ref().and_then(|s| s.node_span(node)) {
                Some(span) => diag.with_span(span),
                None => diag,
            }
        }

        fn at_arc(&self, diag: Diagnostic, carrier: NodeId, index: usize) -> Diagnostic {
            let diag = diag.at_path(self.path_str(carrier));
            match self.doc.sources.as_ref().and_then(|s| s.arc_span(index)) {
                Some(span) => diag.with_span(span),
                None => diag,
            }
        }

        fn empty_document(&self, out: &mut Vec<Diagnostic>) {
            if self.doc.root().is_err() {
                out.push(
                    Diagnostic::new(
                        codes::EMPTY_DOCUMENT,
                        "the document has no root node, so there is nothing to present",
                    )
                    .with_help("give the document a seq or par root"),
                );
            }
        }

        fn duplicate_sibling_names(&self, out: &mut Vec<Diagnostic>) {
            let mut sibling_names = SiblingNames::default();
            for id in self.doc.preorder() {
                let Ok(node) = self.doc.node(id) else {
                    continue;
                };
                if !node.kind.is_composite() {
                    continue;
                }
                for &(position, name) in sibling_names.repeats(self.doc, &node.children) {
                    out.push(
                        self.at_node(
                            Diagnostic::new(
                                codes::DUPLICATE_SIBLING_NAME,
                                format!(
                                    "the name `{name}` is used by more than one child of {}",
                                    self.path_str(id)
                                ),
                            )
                            .with_help(
                                "sibling names must be unique so paths resolve unambiguously",
                            ),
                            node.children[position],
                        ),
                    );
                }
            }
        }

        fn root_only_attributes(&self, out: &mut Vec<Diagnostic>) {
            let Ok(root) = self.doc.root() else { return };
            for id in self.doc.preorder() {
                if id == root {
                    continue;
                }
                let Ok(node) = self.doc.node(id) else {
                    continue;
                };
                for attr in node.attrs.iter() {
                    if attr.name.is_root_only() {
                        out.push(self.at_node(
                            Diagnostic::new(
                                codes::ROOT_ONLY_ATTRIBUTE,
                                format!(
                                    "attribute `{}` may only appear on the root, not on {}",
                                    attr.name,
                                    self.path_str(id)
                                ),
                            ),
                            id,
                        ));
                    }
                }
            }
        }

        fn duplicate_attributes(&self, out: &mut Vec<Diagnostic>) {
            for id in self.doc.preorder() {
                let Ok(node) = self.doc.node(id) else {
                    continue;
                };
                if let Err(e) = node.attrs.validate_unique(id) {
                    let message = match e {
                        CoreError::DuplicateAttribute { name, .. } => format!(
                            "attribute `{name}` occurs more than once on {}",
                            self.path_str(id)
                        ),
                        other => other.to_string(),
                    };
                    out.push(
                        self.at_node(Diagnostic::new(codes::DUPLICATE_ATTRIBUTE, message), id),
                    );
                }
            }
        }

        fn unknown_styles(&self, out: &mut Vec<Diagnostic>) {
            for def in self.doc.styles.iter() {
                for parent in &def.parents {
                    if !self.doc.styles.contains(parent) {
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
            for id in self.doc.preorder() {
                let Ok(node) = self.doc.node(id) else {
                    continue;
                };
                let Some(value) = node.attrs.get(&AttrName::Style) else {
                    continue;
                };
                let names = match style_names(value) {
                    Ok(names) => names,
                    // Deliberate change: a malformed value is a finding.
                    Err(e) if self.changes == Changes::Deliberate => {
                        out.push(self.at_node(
                            Diagnostic::new(
                                codes::UNKNOWN_STYLE,
                                format!("{}: {e}", self.path_str(id)),
                            ),
                            id,
                        ));
                        continue;
                    }
                    Err(_) => continue,
                };
                for name in names {
                    if !self.doc.styles.contains(name.as_str()) {
                        out.push(self.at_node(
                            Diagnostic::new(
                                codes::UNKNOWN_STYLE,
                                format!(
                                    "{} references style `{name}`, which is not defined",
                                    self.path_str(id)
                                ),
                            ),
                            id,
                        ));
                    }
                }
            }
        }

        fn style_cycles(&self, out: &mut Vec<Diagnostic>) {
            let cycle = |style: &str| {
                Diagnostic::new(
                    codes::STYLE_CYCLE,
                    format!("style `{style}` is part of a definition cycle"),
                )
                .with_help("style expansion would recurse forever; break the parent loop")
            };
            if self.changes == Changes::Deliberate {
                // Deliberate change: every style on a cycle, once, in
                // declaration order.
                for def in self.doc.styles.iter() {
                    if on_cycle(&self.doc.styles, &def.name) {
                        out.push(cycle(&def.name));
                    }
                }
                return;
            }
            let mut reported = std::collections::BTreeSet::new();
            for def in self.doc.styles.iter() {
                if let Err(CoreError::StyleCycle { style }) =
                    nesting_depth(&self.doc.styles, &def.name)
                {
                    if reported.insert(style.clone()) {
                        out.push(cycle(&style));
                    }
                }
            }
        }

        fn missing_files(&self, out: &mut Vec<Diagnostic>) {
            for id in self.doc.preorder() {
                let Ok(node) = self.doc.node(id) else {
                    continue;
                };
                if node.kind != NodeKind::Ext {
                    continue;
                }
                if matches!(symbol_of(self.doc, id, AttrName::File), Ok(None)) {
                    out.push(self.at_node(
                        Diagnostic::new(
                            codes::MISSING_FILE,
                            format!(
                                "external node {} has no file attribute, own or inherited",
                                self.path_str(id)
                            ),
                        ),
                        id,
                    ));
                }
            }
        }

        fn missing_channels(&self, out: &mut Vec<Diagnostic>) {
            for id in self.doc.preorder() {
                let Ok(node) = self.doc.node(id) else {
                    continue;
                };
                if !node.kind.is_leaf() {
                    continue;
                }
                if matches!(symbol_of(self.doc, id, AttrName::Channel), Ok(None)) {
                    out.push(self.at_node(
                        Diagnostic::new(
                            codes::MISSING_CHANNEL,
                            format!(
                                "leaf {} has no channel, so no output device would play it",
                                self.path_str(id)
                            ),
                        ),
                        id,
                    ));
                }
            }
        }

        fn unreachable_nodes(&self, out: &mut Vec<Diagnostic>) {
            if self.doc.root().is_err() {
                return;
            }
            let reachable: HashSet<NodeId> = self.doc.preorder().into_iter().collect();
            for index in 0..self.doc.node_count() {
                let id = NodeId::from_index(index as u32);
                if reachable.contains(&id) {
                    continue;
                }
                let kind = self
                    .doc
                    .node(id)
                    .map(|n| n.kind.keyword())
                    .unwrap_or("node");
                out.push(
                    self.at_node(
                        Diagnostic::new(
                            codes::UNREACHABLE_NODE,
                            format!("{kind} node {id} is not reachable from the root"),
                        )
                        .with_help(
                            "the node was detached (or orphaned by set_root) and will never play",
                        ),
                        id,
                    ),
                );
            }
        }

        fn invalid_delay_windows(&self, out: &mut Vec<Diagnostic>) {
            for (index, (carrier, arc)) in self.doc.arcs().iter().enumerate() {
                if let Err(e) = arc.validate() {
                    out.push(self.at_arc(
                        Diagnostic::new(
                            codes::INVALID_DELAY_WINDOW,
                            format!("arc #{index} carried by {}: {e}", self.path_str(*carrier)),
                        ),
                        *carrier,
                        index,
                    ));
                }
            }
        }

        fn unresolved_arc_endpoints(&self, out: &mut Vec<Diagnostic>) {
            for (index, (carrier, arc)) in self.doc.arcs().iter().enumerate() {
                for (role, path) in [("source", &arc.source), ("destination", &arc.destination)] {
                    if self.doc.resolve_path(*carrier, path).is_err() {
                        out.push(
                            self.at_arc(
                                Diagnostic::new(
                                    codes::UNRESOLVED_ARC_ENDPOINT,
                                    format!(
                                        "arc #{index} carried by {}: {role} `{path}` does not \
                                     resolve to a node",
                                        self.path_str(*carrier)
                                    ),
                                )
                                .with_help(
                                    "arc endpoints are resolved relative to the carrier node",
                                ),
                                *carrier,
                                index,
                            ),
                        );
                    }
                }
            }
        }

        fn unknown_channels(&self, out: &mut Vec<Diagnostic>) {
            for id in self.doc.preorder() {
                let Ok(node) = self.doc.node(id) else {
                    continue;
                };
                let Some(channel) = node
                    .attrs
                    .get(&AttrName::Channel)
                    .and_then(AttrValue::as_symbol)
                else {
                    continue;
                };
                if !self.doc.channels.contains_symbol(channel) {
                    out.push(
                        self.at_node(
                            Diagnostic::new(
                                codes::UNKNOWN_CHANNEL,
                                format!(
                                    "{} references channel `{channel}`, which is not declared",
                                    self.path_str(id)
                                ),
                            )
                            .with_help("declare the channel in the document's channel dictionary"),
                            id,
                        ),
                    );
                }
            }
        }
    }

    /// Whether `name` reaches itself through defined parents, by plain
    /// search.
    pub fn on_cycle(dict: &StyleDictionary, name: &str) -> bool {
        let mut seen = HashSet::new();
        let mut pending: Vec<&str> = dict.get(name).map_or(Vec::new(), |def| {
            def.parents.iter().map(String::as_str).collect()
        });
        while let Some(style) = pending.pop() {
            if style == name {
                return true;
            }
            if let (true, Some(def)) = (seen.insert(style), dict.get(style)) {
                pending.extend(def.parents.iter().map(String::as_str));
            }
        }
        false
    }
}

use reference::Changes;

// ---------------------------------------------------------------------------
// The corpus
// ---------------------------------------------------------------------------

/// SplitMix64, so every case replays from its seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound.max(1) as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// One way to break a document, per structural rule that the document API
/// lets a caller break.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Defect {
    SiblingName,
    RootOnly,
    DanglingParent,
    StyleCycle,
    UnknownStyleRef,
    MalformedStyle,
    MissingFile,
    MissingChannel,
    UnknownChannel,
    Unreachable,
    UnresolvedEndpoint,
}

const DEFECTS: [Defect; 11] = [
    Defect::SiblingName,
    Defect::RootOnly,
    Defect::DanglingParent,
    Defect::StyleCycle,
    Defect::UnknownStyleRef,
    Defect::MalformedStyle,
    Defect::MissingFile,
    Defect::MissingChannel,
    Defect::UnknownChannel,
    Defect::Unreachable,
    Defect::UnresolvedEndpoint,
];

const CHANNELS: [&str; 3] = ["audio", "video", "caption"];

/// An attribute a style may set. The names overlap between styles with
/// different values, so the order parents apply in shows in the result.
fn random_attr(rng: &mut Rng) -> Attr {
    match rng.below(5) {
        0 => Attr::new(
            AttrName::Channel,
            AttrValue::Id((*rng.pick(&CHANNELS)).into()),
        ),
        1 => Attr::new(
            AttrName::Duration,
            AttrValue::Number(500 * (1 + rng.below(6) as i64)),
        ),
        2 => Attr::new(
            AttrName::File,
            AttrValue::Str((*rng.pick(&["clip-a", "clip-b"])).into()),
        ),
        3 => Attr::new(
            AttrName::custom("mood"),
            AttrValue::Id((*rng.pick(&["calm", "tense", "grave"])).into()),
        ),
        _ => Attr::new(
            AttrName::TFormatting,
            AttrValue::list([AttrValue::list([
                AttrValue::Id("size".into()),
                AttrValue::Number(10 + rng.below(4) as i64),
            ])]),
        ),
    }
}

/// A small dictionary, acyclic and complete unless `defects` asks
/// otherwise. Styles build on lower-ranked ones, often twice over (repeated
/// parents, diamonds); declaration order is shuffled, so forward
/// references are common.
fn random_styles(rng: &mut Rng, defects: &[Defect]) -> StyleDictionary {
    let broken = defects
        .iter()
        .any(|d| matches!(d, Defect::DanglingParent | Defect::StyleCycle));
    let count = rng.below(7) + usize::from(broken);
    let name = |rank: usize| format!("st{rank}");
    let mut defs: Vec<StyleDef> = (0..count)
        .map(|rank| {
            let mut def = StyleDef::new(name(rank));
            for _ in 0..rng.below(4) {
                if rank > 0 {
                    def = def.with_parent(name(rng.below(rank)));
                }
            }
            for _ in 0..rng.below(3) {
                def = def.with_attr(random_attr(rng));
            }
            def
        })
        .collect();
    for defect in defects {
        match defect {
            Defect::DanglingParent => {
                let at = rng.below(count);
                let position = rng.below(defs[at].parents.len() + 1);
                defs[at].parents.insert(position, "ghost".into());
            }
            Defect::StyleCycle => {
                // A loop between a style and one ranked at or above it (a
                // self-reference when they coincide).
                let low = rng.below(count);
                let high = low + rng.below(count - low);
                let position = rng.below(defs[low].parents.len() + 1);
                defs[low].parents.insert(position, name(high));
                let position = rng.below(defs[high].parents.len() + 1);
                defs[high].parents.insert(position, name(low));
            }
            _ => {}
        }
    }
    for at in (1..defs.len()).rev() {
        defs.swap(at, rng.below(at + 1));
    }
    defs.into_iter().collect()
}

/// A random style value naming defined styles (or, rarely, none).
fn style_value(rng: &mut Rng, names: &[String]) -> AttrValue {
    let pick = |rng: &mut Rng| AttrValue::Id(rng.pick(names).as_str().into());
    if rng.chance(60) {
        pick(rng)
    } else {
        AttrValue::List((0..1 + rng.below(3)).map(|_| pick(rng)).collect())
    }
}

/// A seeded document carrying 0–3 defects.
fn random_document(seed: u64) -> Document {
    let mut rng = Rng(seed);
    let defects: Vec<Defect> = (0..rng.below(4)).map(|_| *rng.pick(&DEFECTS)).collect();
    let mut doc = Document::with_root(if rng.chance(50) {
        NodeKind::Seq
    } else {
        NodeKind::Par
    });
    for (name, medium) in [
        ("audio", MediaKind::Audio),
        ("video", MediaKind::Video),
        ("caption", MediaKind::Text),
    ] {
        doc.channels.define(ChannelDef::new(name, medium)).unwrap();
    }
    for key in ["clip-a", "clip-b"] {
        doc.catalog
            .register(
                DataDescriptor::new(key, MediaKind::Audio, "pcm8")
                    .with_duration(TimeMs::from_secs(2)),
            )
            .unwrap();
    }
    doc.styles = random_styles(&mut rng, &defects);
    let styles: Vec<String> = doc.styles.iter().map(|d| d.name.clone()).collect();

    let root = doc.root().unwrap();
    doc.set_attr(root, AttrName::Name, AttrValue::Id("news".into()))
        .unwrap();
    doc.set_attr(root, AttrName::Channel, AttrValue::Id("audio".into()))
        .unwrap();
    let mut composites = vec![root];
    let mut nodes = vec![root];
    for index in 0..1 + rng.below(12) {
        let parent = *rng.pick(&composites);
        let kind = match rng.below(6) {
            0 => NodeKind::Seq,
            1 => NodeKind::Par,
            2 | 3 => NodeKind::Ext,
            _ => NodeKind::Imm(cmif::core::node::ImmediateData::Text("x".into())),
        };
        let id = doc.add_child(parent, kind.clone()).unwrap();
        nodes.push(id);
        if kind.is_composite() {
            composites.push(id);
        }
        if rng.chance(85) {
            let name = AttrValue::Id(format!("n{index}").into());
            doc.set_attr(id, AttrName::Name, name).unwrap();
        }
        if rng.chance(if kind.is_leaf() { 50 } else { 20 }) {
            let channel = AttrValue::Id((*rng.pick(&CHANNELS)).into());
            doc.set_attr(id, AttrName::Channel, channel).unwrap();
        }
        if kind == NodeKind::Ext || (kind.is_composite() && rng.chance(20)) {
            let file = AttrValue::Str((*rng.pick(&["clip-a", "clip-b", "clip-x"])).into());
            doc.set_attr(id, AttrName::File, file).unwrap();
        }
        if kind.is_leaf() && rng.chance(50) {
            doc.set_attr(id, AttrName::Duration, AttrValue::Number(1000))
                .unwrap();
        }
        if !styles.is_empty() && rng.chance(30) {
            let value = style_value(&mut rng, &styles);
            doc.set_attr(id, AttrName::Style, value).unwrap();
        }
    }

    // Arcs between nodes whose paths resolve (every segment named), with
    // windows at and inside the sign rules' edges.
    let named: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|id| !doc.path_of(*id).unwrap().to_string().contains('@'))
        .collect();
    for _ in 0..rng.below(4) {
        let carrier = *rng.pick(&nodes);
        let source = doc.path_of(*rng.pick(&named)).unwrap().to_string();
        let destination = if rng.chance(50) {
            String::new()
        } else {
            doc.path_of(*rng.pick(&named)).unwrap().to_string()
        };
        let window = match rng.below(3) {
            0 => MaxDelay::HARD,
            1 => MaxDelay::Unbounded,
            _ => MaxDelay::Bounded(DelayMs::from_millis(rng.below(500) as i64)),
        };
        let arc = SyncArc::hard_start(source.as_str(), destination.as_str())
            .with_offset(MediaTime::millis(rng.below(3) as i64 * 250))
            .with_window(DelayMs::from_millis(-(rng.below(3) as i64) * 100), window);
        doc.add_arc(carrier, arc).unwrap();
    }

    for defect in defects {
        let node = *rng.pick(&nodes);
        match defect {
            Defect::SiblingName => {
                let parent = *rng.pick(&composites);
                let name = doc
                    .children(parent)
                    .unwrap()
                    .iter()
                    .find_map(|c| doc.node(*c).unwrap().name_symbol());
                let copy = doc.add_imm_text(parent, "copy").unwrap();
                let name = name.unwrap_or_else(|| "twin".into());
                doc.set_attr(copy, AttrName::Name, AttrValue::Id(name))
                    .unwrap();
                if rng.chance(50) {
                    let twin = doc.add_imm_text(parent, "twin").unwrap();
                    doc.set_attr(twin, AttrName::Name, AttrValue::Id(name))
                        .unwrap();
                }
            }
            Defect::RootOnly => {
                let target = if node == root {
                    doc.add_par(root).unwrap()
                } else {
                    node
                };
                let name = *rng.pick(&[AttrName::ChannelDictionary, AttrName::StyleDictionary]);
                doc.node_mut(target)
                    .unwrap()
                    .set_attr(name, AttrValue::Id("misplaced".into()));
            }
            Defect::UnknownStyleRef => {
                let ghost = AttrValue::Id("ghost-style".into());
                let value = if rng.chance(50) || styles.is_empty() {
                    ghost
                } else {
                    AttrValue::list([AttrValue::Id(rng.pick(&styles).as_str().into()), ghost])
                };
                doc.set_attr(node, AttrName::Style, value).unwrap();
            }
            Defect::MalformedStyle => {
                let value = if rng.chance(50) {
                    AttrValue::Number(5)
                } else {
                    AttrValue::list([AttrValue::Id("st0".into()), AttrValue::Number(3)])
                };
                doc.set_attr(node, AttrName::Style, value).unwrap();
            }
            Defect::MissingFile => {
                let parent = *rng.pick(&composites);
                let leaf = doc.add_ext(parent).unwrap();
                if rng.chance(50) {
                    doc.set_attr(leaf, AttrName::Channel, AttrValue::Id("video".into()))
                        .unwrap();
                } else {
                    // A bare external leaf, missing its channel as well.
                    doc.node_mut(root).unwrap().attrs.remove(&AttrName::Channel);
                }
            }
            Defect::MissingChannel => {
                doc.node_mut(root).unwrap().attrs.remove(&AttrName::Channel);
                doc.add_imm_text(*rng.pick(&composites), "mute").unwrap();
            }
            Defect::UnknownChannel => {
                doc.set_attr(
                    node,
                    AttrName::Channel,
                    AttrValue::Id("ghost-channel".into()),
                )
                .unwrap();
            }
            Defect::Unreachable => {
                if node == root {
                    doc.set_root(NodeKind::Seq);
                } else {
                    doc.detach(node).unwrap();
                }
            }
            Defect::UnresolvedEndpoint => {
                let path = *rng.pick(&["../ghost", "/ghost", "ghost/deeper"]);
                doc.add_arc(node, SyncArc::hard_start(path, "")).unwrap();
            }
            Defect::DanglingParent | Defect::StyleCycle => {}
        }
    }
    doc
}

/// A document with no root, only dictionaries.
fn rootless_document(seed: u64) -> Document {
    let mut rng = Rng(seed);
    let defects: Vec<Defect> = (0..rng.below(3))
        .map(|_| *rng.pick(&[Defect::DanglingParent, Defect::StyleCycle]))
        .collect();
    let mut doc = Document::new();
    doc.channels
        .define(ChannelDef::new("audio", MediaKind::Audio))
        .unwrap();
    doc.styles = random_styles(&mut rng, &defects);
    doc
}

fn broadcast(stories: usize, captions: usize, graphics: usize, arcs: bool) -> Document {
    SyntheticNews {
        stories,
        story_seconds: 30,
        captions_per_story: captions,
        graphics_per_story: graphics,
        explicit_arcs: arcs,
    }
    .build()
    .unwrap()
}

// ---------------------------------------------------------------------------
// The checks
// ---------------------------------------------------------------------------

/// What one document exercised, for the coverage assertions.
#[derive(Default)]
struct Coverage {
    documents: usize,
    valid: usize,
    codes: BTreeMap<&'static str, usize>,
    errors: BTreeMap<String, usize>,
    malformed: usize,
    hidden_cycles: usize,
}

fn error_kind(error: &CoreError) -> String {
    format!("{error:?}")
        .split([' ', '{', '('])
        .next()
        .unwrap_or_default()
        .to_string()
}

/// Runs every equivalence check on `doc`.
fn check(doc: &Document, label: &str, coverage: &mut Coverage) {
    // validate: verdict and error.
    let expected = match reference::validate_all(doc).into_iter().next() {
        Some(error) => Err(error),
        None => Ok(()),
    };
    let verdict = validate(doc);
    assert_eq!(verdict, expected, "{label}: validate");

    // Lint: byte for byte against the reference with the deliberate
    // changes, and those changes are the only difference from the passes
    // as they were.
    let report = Linter::new().check(doc);
    let changed = reference::lint(doc, Changes::Deliberate);
    let head = reference::lint(doc, Changes::None);
    assert_eq!(report.diagnostics(), changed.as_slice(), "{label}: lint");
    let sources = doc.sources.as_deref();
    assert_eq!(
        report.render(sources),
        render_all(&changed, sources),
        "{label}: rendered lint"
    );
    let is_malformed = |d: &&Diagnostic| {
        d.code == codes::UNKNOWN_STYLE && d.message.ends_with("a list of style names")
    };
    let unchanged = |diags: &[Diagnostic]| -> Vec<Diagnostic> {
        diags
            .iter()
            .filter(|d| d.code != codes::STYLE_CYCLE && !is_malformed(d))
            .cloned()
            .collect()
    };
    assert_eq!(
        unchanged(&head),
        unchanged(&changed),
        "{label}: only deliberate changes"
    );
    assert!(!head.iter().any(|d| is_malformed(&d)), "{label}");

    // L006 names each style on a cycle once, including every style the old
    // pass named, and fires exactly when the dictionary has a cycle.
    let cycles = |diags: &[Diagnostic]| -> Vec<String> {
        diags
            .iter()
            .filter(|d| d.code == codes::STYLE_CYCLE)
            .map(|d| d.message.clone())
            .collect()
    };
    let (old, new) = (cycles(&head), cycles(report.diagnostics()));
    assert!(
        old.iter().all(|m| new.contains(m)),
        "{label}: {old:?} vs {new:?}"
    );
    assert_eq!(
        new.iter().collect::<HashSet<_>>().len(),
        new.len(),
        "{label}"
    );
    let has_cycle = doc
        .styles
        .iter()
        .any(|def| reference::on_cycle(&doc.styles, &def.name));
    assert_eq!(
        !new.is_empty(),
        has_cycle,
        "{label}: L006 fires iff a cycle exists"
    );

    // Under default severities, validate errs exactly when lint denies on a
    // structural code.
    let denies = report
        .diagnostics()
        .iter()
        .any(|d| d.is_deny() && STRUCTURAL.contains(&d.code));
    assert_eq!(verdict.is_err(), denies, "{label}: verdict vs deny");

    check_styles(doc, label);

    coverage.documents += 1;
    coverage.valid += usize::from(verdict.is_ok());
    if let Err(error) = &verdict {
        *coverage.errors.entry(error_kind(error)).or_default() += 1;
    }
    for diag in report.diagnostics() {
        *coverage.codes.entry(diag.code.as_str()).or_default() += 1;
    }
    coverage.malformed += report
        .diagnostics()
        .iter()
        .filter(|d| is_malformed(d))
        .count();
    coverage.hidden_cycles += usize::from(old.len() < new.len());
}

/// `expand` for every style, `expand_all` over lists that mix defined and
/// undefined names, and `effective_attr` for every node, against the
/// recursive reference.
fn check_styles(doc: &Document, label: &str) {
    let mut names: Vec<&str> = doc.styles.iter().map(|d| d.name.as_str()).collect();
    for name in &names {
        assert_eq!(
            doc.styles.expand(name),
            reference::expand(&doc.styles, name),
            "{label}: expand {name}"
        );
    }
    names.push("ghost");
    let mut rng = Rng(names.len() as u64);
    for _ in 0..names.len() * 2 {
        let list: Vec<&str> = (0..rng.below(4)).map(|_| *rng.pick(&names)).collect();
        assert_eq!(
            doc.styles.expand_all(list.iter().copied()),
            reference::expand_all(&doc.styles, list.iter().copied()),
            "{label}: expand_all {list:?}"
        );
    }
    let attrs = [
        AttrName::Channel,
        AttrName::File,
        AttrName::Duration,
        AttrName::TFormatting,
        AttrName::Style,
        AttrName::Name,
        AttrName::custom("mood"),
    ];
    for index in 0..doc.node_count() {
        let id = NodeId::from_index(index as u32);
        for name in &attrs {
            assert_eq!(
                doc.effective_attr(id, name),
                reference::effective_attr(doc, id, name),
                "{label}: effective {name} of {id}"
            );
        }
    }
}

/// `doc` as parsed back from its canonical text, so findings carry spans;
/// `None` when the text form cannot carry the document.
fn reparsed(doc: &Document) -> Option<Document> {
    let text = write_document(doc).ok()?;
    parse_document_unvalidated(&text).ok()
}

#[test]
fn broadcast_shapes_and_the_evening_news_match_the_references() {
    let mut coverage = Coverage::default();
    for stories in 1..=2 {
        for captions in 3..=7 {
            for graphics in 1..=4 {
                for arcs in [false, true] {
                    let doc = broadcast(stories, captions, graphics, arcs);
                    let label = format!("{stories} x {captions} x {graphics}, arcs {arcs}");
                    check(&doc, &label, &mut coverage);
                }
            }
        }
    }
    let news = evening_news().unwrap();
    check(&news, "evening news", &mut coverage);
    check(
        &reparsed(&news).unwrap(),
        "evening news, parsed",
        &mut coverage,
    );
    assert_eq!(coverage.valid, coverage.documents);
}

#[test]
fn seeded_random_documents_match_the_references() {
    let mut coverage = Coverage::default();
    for seed in 0..600 {
        let doc = random_document(seed);
        check(&doc, &format!("seed {seed}"), &mut coverage);
        if let Some(parsed) = reparsed(&doc) {
            check(&parsed, &format!("seed {seed}, parsed"), &mut coverage);
        }
    }
    for seed in 0..100 {
        let doc = rootless_document(seed);
        check(&doc, &format!("rootless seed {seed}"), &mut coverage);
    }

    // The generator reaches every rule the document API lets a caller
    // break, and valid documents too.
    assert!(
        coverage.valid > 50,
        "only {} valid documents",
        coverage.valid
    );
    for code in STRUCTURAL {
        if [codes::DUPLICATE_ATTRIBUTE, codes::INVALID_DELAY_WINDOW].contains(&code) {
            continue;
        }
        let found = coverage.codes.get(code.as_str()).copied().unwrap_or(0);
        assert!(
            found >= 10,
            "{code} found only {found} times: {:?}",
            coverage.codes
        );
    }
    for kind in [
        "EmptyDocument",
        "DuplicateSiblingName",
        "RootOnlyAttribute",
        "AttributeType",
        "UnknownStyle",
        "StyleCycle",
        "UnknownChannel",
        "MissingFile",
        "MissingChannel",
        "UnresolvedArcEndpoint",
    ] {
        let found = coverage.errors.get(kind).copied().unwrap_or(0);
        assert!(
            found >= 5,
            "validate returned {kind} only {found} times: {:?}",
            coverage.errors
        );
    }
    assert!(coverage.malformed >= 10, "{}", coverage.malformed);
    assert!(coverage.hidden_cycles >= 5, "{}", coverage.hidden_cycles);
}

#[test]
fn lint_denies_what_decode_rejects() {
    const CHANNELS_AND_STYLES: &str = "(channels (channel caption text))";
    let cases = [
        (
            "(style 5), own channel",
            format!(
                "(cmif {CHANNELS_AND_STYLES} (seq (name s) \
                 (imm (name a) (channel caption) (style 5) (data \"x\"))))"
            ),
            codes::UNKNOWN_STYLE,
        ),
        (
            "(style 5), inherited channel",
            format!(
                "(cmif {CHANNELS_AND_STYLES} (seq (name s) (channel caption) \
                 (imm (name a) (style 5) (data \"x\"))))"
            ),
            codes::UNKNOWN_STYLE,
        ),
        (
            "a cycle behind a dangling parent",
            format!(
                "(cmif {CHANNELS_AND_STYLES} \
                 (styles (style a (parents missing b)) (style b (parents a))) \
                 (seq (name s) (imm (name a) (channel caption) (data \"x\"))))"
            ),
            codes::STYLE_CYCLE,
        ),
    ];
    for (label, text, code) in cases {
        let doc = parse_document_unvalidated(&text).unwrap();
        let head = reference::validate_all(&doc);
        let expected = head.first().expect("the reference rejects the document");
        match cmif::format::parse_document(&text) {
            Err(cmif::format::FormatError::Core(error)) => assert_eq!(&error, expected, "{label}"),
            other => panic!("{label}: decode returned {other:?}"),
        }
        let report = Linter::new().check(&doc);
        assert!(
            report.denials().any(|d| d.code == code),
            "{label}: {}",
            report.render(doc.sources.as_deref())
        );
        // The passes as they were let each of these through.
        let old = reference::lint(&doc, Changes::None);
        assert!(
            !old.iter().any(|d| d.code == code && d.is_deny()),
            "{label}"
        );
    }
}

#[test]
fn a_child_outside_the_arena_is_an_error_not_a_panic() {
    let mut doc = evening_news().unwrap();
    let root = doc.root().unwrap();
    let stray = NodeId::from_index(doc.node_count() as u32 + 7);
    doc.node_mut(root).unwrap().children.push(stray);
    assert_eq!(validate(&doc), Err(CoreError::UnknownNode { node: stray }));
    let report = Linter::new().check(&doc);
    let finding = report
        .denials()
        .find(|d| d.code == codes::DUPLICATE_SIBLING_NAME)
        .expect("the stray child is a deny finding");
    assert!(
        finding.message.contains(&stray.to_string()),
        "{}",
        finding.message
    );
}
