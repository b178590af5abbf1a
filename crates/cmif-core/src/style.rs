//! Styles and the style dictionary.
//!
//! "There is one attribute, 'style', which is a shorthand for placing a set
//! of attributes on a node." (§5.2)  The root node's style dictionary
//! "defines one or more new styles […] Style definitions may refer to other
//! style definitions as long as no style refers to itself, directly or
//! indirectly." (Figure 7)
//!
//! A dictionary resolves itself once per state: the first lookup after a
//! [`StyleDictionary::define`] flattens every style into the attribute list
//! it stands for, or records the error its expansion meets, in one
//! iterative depth-first walk of the parent graph that visits each
//! definition once. A style's flattened list is its parents' lists applied
//! in order, then its own attributes; because [`AttrList::set`] replaces a
//! name in place and appends new names in first-occurrence order, applying
//! a parent's flattened list equals replaying its expansion, so the table
//! is exact. [`StyleDictionary::expand`], [`StyleDictionary::expand_all`]
//! and `Document::effective_attr` read the table, and neither a chain nor a
//! diamond of references costs more than its size. The same resolution
//! marks every style that lies on a definition cycle (strongly connected
//! components, also iterative), which the structural rule set reports.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::attr::{Attr, AttrList, AttrName};
use crate::error::{CoreError, Result};

/// One style definition: a name bound to a set of attributes, possibly
/// including references to other styles.
#[derive(Debug, Clone, PartialEq)]
pub struct StyleDef {
    /// The style's name, referenced by `style` attributes.
    pub name: String,
    /// Names of other styles this style builds on (applied first, in order,
    /// so that this style's own attributes override theirs).
    pub parents: Vec<String>,
    /// The attributes the style places on a node.
    pub attrs: Vec<Attr>,
}

impl StyleDef {
    /// Creates a style with no parents and no attributes.
    pub fn new(name: impl Into<String>) -> StyleDef {
        StyleDef {
            name: name.into(),
            parents: Vec::new(),
            attrs: Vec::new(),
        }
    }

    /// Adds a parent style reference (builder style).
    pub fn with_parent(mut self, parent: impl Into<String>) -> StyleDef {
        self.parents.push(parent.into());
        self
    }

    /// Adds an attribute the style sets (builder style).
    pub fn with_attr(mut self, attr: Attr) -> StyleDef {
        self.attrs.push(attr);
        self
    }
}

/// The style dictionary of the root node.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StyleDictionary {
    /// Definitions in declaration order, preserved for round-tripping.
    defs: Vec<StyleDef>,
    /// Each style's position in `defs`.
    positions: HashMap<String, usize>,
    /// The resolution of the current definitions, built by the first
    /// lookup after a change.
    resolved: Resolved,
}

/// A dictionary's resolution: by declaration position, each style's
/// flattened attribute list or the error its expansion meets, and whether
/// it lies on a definition cycle.
#[derive(Debug)]
struct Resolution {
    flat: Vec<Result<Arc<AttrList>>>,
    cyclic: Vec<bool>,
}

/// The lazily built [`Resolution`]. Derived state, so it compares equal to
/// every other and never disturbs the dictionary's structural `PartialEq`.
#[derive(Debug, Clone, Default)]
struct Resolved(OnceLock<Arc<Resolution>>);

impl PartialEq for Resolved {
    fn eq(&self, _: &Resolved) -> bool {
        true
    }
}

impl StyleDictionary {
    /// Creates an empty dictionary.
    pub fn new() -> StyleDictionary {
        StyleDictionary::default()
    }

    /// Number of styles defined.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True when no styles are defined.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Defines a style, rejecting duplicate names.
    pub fn define(&mut self, def: StyleDef) -> Result<()> {
        if self.positions.contains_key(&def.name) {
            return Err(CoreError::DuplicateStyle { style: def.name });
        }
        self.positions.insert(def.name.clone(), self.defs.len());
        self.defs.push(def);
        self.resolved = Resolved::default();
        Ok(())
    }

    /// Looks up a style definition by name.
    pub fn get(&self, name: &str) -> Option<&StyleDef> {
        self.positions.get(name).map(|&at| &self.defs[at])
    }

    /// True when a style with the given name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.positions.contains_key(name)
    }

    /// Iterates over the style definitions in declaration order.
    pub fn iter(&self) -> std::slice::Iter<'_, StyleDef> {
        self.defs.iter()
    }

    /// Expands a style name into the flat attribute list it stands for.
    ///
    /// Parent styles are applied first (in declaration order of the
    /// references), then the style's own attributes, so that the most
    /// specific definition wins — the same override rule the paper gives for
    /// inherited attributes.
    ///
    /// Returns [`CoreError::UnknownStyle`] for dangling references and
    /// [`CoreError::StyleCycle`] when a style refers to itself directly or
    /// indirectly: the first such reference a depth-first expansion meets.
    pub fn expand(&self, name: &str) -> Result<AttrList> {
        self.flattened(name).cloned()
    }

    /// Expands every style referenced by a `style` attribute value (one name
    /// or a list of names, applied in order).
    pub fn expand_all<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> Result<AttrList> {
        let mut out = AttrList::new();
        for name in names {
            for attr in self.flattened(name)?.iter() {
                out.set(attr.clone());
            }
        }
        Ok(out)
    }

    /// The error the first style in declaration order that does not resolve
    /// meets; `None` when every style resolves.
    pub(crate) fn first_error(&self) -> Option<&CoreError> {
        self.resolution()
            .flat
            .iter()
            .find_map(|style| style.as_ref().err())
    }

    /// Whether each style, by declaration position, lies on a definition
    /// cycle.
    pub(crate) fn cyclic(&self) -> &[bool] {
        &self.resolution().cyclic
    }

    fn flattened(&self, name: &str) -> Result<&AttrList> {
        match self.positions.get(name) {
            Some(&at) => self.resolution().flat[at]
                .as_deref()
                .map_err(CoreError::clone),
            None => Err(CoreError::UnknownStyle { style: name.into() }),
        }
    }

    fn resolution(&self) -> &Resolution {
        self.resolved.0.get_or_init(|| {
            let (flat, cyclic) = (self.flatten_all(), self.cycles());
            Arc::new(Resolution { flat, cyclic })
        })
    }

    /// Flattens every style with one depth-first walk that keeps its path
    /// on an explicit stack.
    ///
    /// A style is flattened once all its parents are. The first parent
    /// that cannot be — undefined, already on the path (a cycle), or failed
    /// before — fails the style and every style on the path below it, with
    /// the error a recursive expansion of each would meet first: a style on
    /// the cycle meets itself, every other one the error of the style above
    /// it. Styles the walk leaves unvisited start walks of their own.
    fn flatten_all(&self) -> Vec<Result<Arc<AttrList>>> {
        let mut table: Vec<Option<Result<Arc<AttrList>>>> = vec![None; self.defs.len()];
        // Each path entry is a style and the number of its parents visited;
        // `depth` holds the path position of every style on it.
        let mut path: Vec<(usize, usize)> = Vec::new();
        let mut depth: Vec<Option<usize>> = vec![None; self.defs.len()];
        for start in 0..self.defs.len() {
            if table[start].is_some() {
                continue;
            }
            depth[start] = Some(0);
            path.push((start, 0));
            while let Some(top) = path.last_mut() {
                let (style, visited) = *top;
                let def = &self.defs[style];
                let Some(parent) = def.parents.get(visited) else {
                    table[style] = Some(Ok(self.flatten(def, &table)));
                    depth[style] = None;
                    path.pop();
                    continue;
                };
                top.1 += 1;
                let named = || parent.clone();
                let (error, cycle) = match self.positions.get(parent) {
                    None => (CoreError::UnknownStyle { style: named() }, None),
                    Some(&p) => match (depth[p], &table[p]) {
                        (Some(at), _) => (CoreError::StyleCycle { style: named() }, Some(at)),
                        (None, Some(Ok(_))) => continue,
                        (None, Some(Err(error))) => (error.clone(), None),
                        (None, None) => {
                            depth[p] = Some(path.len());
                            path.push((p, 0));
                            continue;
                        }
                    },
                };
                while let Some((style, _)) = path.pop() {
                    depth[style] = None;
                    let name = &self.defs[style].name;
                    table[style] = Some(Err(match cycle {
                        Some(at) if path.len() > at => CoreError::StyleCycle { style: name.into() },
                        _ => error.clone(),
                    }));
                }
            }
        }
        // Every walk resolves each style it visits.
        table.into_iter().flatten().collect()
    }

    /// `def`'s parents' flattened lists applied in order, then its own
    /// attributes. A style that only names one parent shares its list.
    fn flatten(&self, def: &StyleDef, table: &[Option<Result<Arc<AttrList>>>]) -> Arc<AttrList> {
        let mut parents = def.parents.iter().filter_map(|parent| {
            let at = *self.positions.get(parent)?;
            table[at].as_ref()?.as_ref().ok()
        });
        if def.attrs.is_empty() && def.parents.len() == 1 {
            if let Some(list) = parents.next() {
                return Arc::clone(list);
            }
        }
        let mut out = AttrList::new();
        for attr in parents.flat_map(|list| list.iter()).chain(&def.attrs) {
            out.set(attr.clone());
        }
        Arc::new(out)
    }

    /// Marks every style on a definition cycle: a member of a strongly
    /// connected component of the parent graph with more than one style,
    /// or a style that names itself. Tarjan's algorithm, with the
    /// depth-first path on an explicit stack.
    fn cycles(&self) -> Vec<bool> {
        const UNSEEN: usize = usize::MAX;
        let count = self.defs.len();
        let (mut order, mut low) = (vec![UNSEEN; count], vec![0; count]);
        let (mut open, mut cyclic) = (vec![false; count], vec![false; count]);
        let (mut component, mut path, mut next) = (Vec::new(), Vec::new(), 0);
        for start in 0..count {
            if order[start] != UNSEEN {
                continue;
            }
            path.push((start, 0));
            while let Some(top) = path.last_mut() {
                let (style, visited) = *top;
                if order[style] == UNSEEN {
                    (order[style], low[style], open[style]) = (next, next, true);
                    next += 1;
                    component.push(style);
                }
                if let Some(parent) = self.defs[style].parents.get(visited) {
                    top.1 += 1;
                    let Some(&p) = self.positions.get(parent) else {
                        continue;
                    };
                    cyclic[style] |= p == style;
                    if order[p] == UNSEEN {
                        path.push((p, 0));
                    } else if open[p] {
                        low[style] = low[style].min(order[p]);
                    }
                    continue;
                }
                path.pop();
                if let Some(&(caller, _)) = path.last() {
                    low[caller] = low[caller].min(low[style]);
                }
                if low[style] == order[style] {
                    let root = component.iter().rposition(|&s| s == style).unwrap_or(0);
                    let members = component.len() - root;
                    for member in component.drain(root..) {
                        open[member] = false;
                        cyclic[member] |= members > 1;
                    }
                }
            }
        }
        cyclic
    }
}

impl FromIterator<StyleDef> for StyleDictionary {
    fn from_iter<T: IntoIterator<Item = StyleDef>>(iter: T) -> Self {
        let mut dict = StyleDictionary::new();
        for def in iter {
            if let Some(&at) = dict.positions.get(&def.name) {
                dict.defs[at] = def;
            } else {
                // `define` cannot fail here because of the lookup above.
                let _ = dict.define(def);
            }
        }
        dict
    }
}

/// Extracts the style names referenced by a `style` attribute value.
///
/// Accepts a single identifier/string or a list of them. Names come back as
/// interned symbols — no allocation when the value is already an `Id`.
pub fn style_names(value: &crate::value::AttrValue) -> Result<Vec<crate::symbol::Symbol>> {
    use crate::value::AttrValue;
    match value {
        // repo_lint: allow(both arms are textual, as_symbol cannot miss)
        AttrValue::Id(_) | AttrValue::Str(_) => Ok(vec![value.as_symbol().expect("textual value")]),
        AttrValue::List(items) => {
            let mut names = Vec::with_capacity(items.len());
            for item in items {
                let name = item.as_symbol().ok_or(CoreError::AttributeType {
                    name: AttrName::Style,
                    expected: "a style name or a list of style names",
                })?;
                names.push(name);
            }
            Ok(names)
        }
        _ => Err(CoreError::AttributeType {
            name: AttrName::Style,
            expected: "a style name or a list of style names",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AttrValue;

    fn caption_style() -> StyleDef {
        StyleDef::new("caption-text")
            .with_attr(Attr::new(
                AttrName::Channel,
                AttrValue::Id("caption".into()),
            ))
            .with_attr(Attr::new(
                AttrName::TFormatting,
                AttrValue::list([AttrValue::list([
                    AttrValue::Id("font".into()),
                    AttrValue::Id("helvetica".into()),
                ])]),
            ))
    }

    #[test]
    fn define_and_lookup() {
        let mut dict = StyleDictionary::new();
        dict.define(caption_style()).unwrap();
        assert_eq!(dict.len(), 1);
        assert!(dict.contains("caption-text"));
        assert!(dict.get("caption-text").is_some());
        assert!(!dict.is_empty());
    }

    #[test]
    fn duplicate_definition_is_rejected() {
        let mut dict = StyleDictionary::new();
        dict.define(caption_style()).unwrap();
        let err = dict.define(caption_style()).unwrap_err();
        assert!(matches!(err, CoreError::DuplicateStyle { .. }));
    }

    #[test]
    fn expand_flat_style() {
        let mut dict = StyleDictionary::new();
        dict.define(caption_style()).unwrap();
        let attrs = dict.expand("caption-text").unwrap();
        assert_eq!(attrs.get_text(&AttrName::Channel), Some("caption"));
        assert!(attrs.contains(&AttrName::TFormatting));
    }

    #[test]
    fn expand_nested_style_child_overrides_parent() {
        let mut dict = StyleDictionary::new();
        dict.define(
            StyleDef::new("base")
                .with_attr(Attr::new(
                    AttrName::Channel,
                    AttrValue::Id("caption".into()),
                ))
                .with_attr(Attr::new(AttrName::Duration, AttrValue::Number(1000))),
        )
        .unwrap();
        dict.define(
            StyleDef::new("highlight")
                .with_parent("base")
                .with_attr(Attr::new(AttrName::Duration, AttrValue::Number(2000))),
        )
        .unwrap();
        let attrs = dict.expand("highlight").unwrap();
        assert_eq!(attrs.get_text(&AttrName::Channel), Some("caption"));
        assert_eq!(attrs.get_number(&AttrName::Duration), Some(2000));
    }

    #[test]
    fn expand_unknown_style_is_error() {
        let dict = StyleDictionary::new();
        assert!(matches!(
            dict.expand("nope").unwrap_err(),
            CoreError::UnknownStyle { .. }
        ));
    }

    #[test]
    fn direct_cycle_is_detected() {
        let mut dict = StyleDictionary::new();
        dict.define(StyleDef::new("a").with_parent("a")).unwrap();
        assert!(matches!(
            dict.expand("a").unwrap_err(),
            CoreError::StyleCycle { .. }
        ));
        assert!(dict.first_error().is_some());
        assert_eq!(dict.cyclic(), [true]);
    }

    #[test]
    fn indirect_cycle_is_detected() {
        let mut dict = StyleDictionary::new();
        dict.define(StyleDef::new("a").with_parent("b")).unwrap();
        dict.define(StyleDef::new("b").with_parent("c")).unwrap();
        dict.define(StyleDef::new("c").with_parent("a")).unwrap();
        assert!(matches!(
            dict.expand("a").unwrap_err(),
            CoreError::StyleCycle { .. }
        ));
    }

    #[test]
    fn diamond_reference_is_not_a_cycle() {
        // a -> b, a -> c, b -> d, c -> d: d is reached twice but no cycle.
        let mut dict = StyleDictionary::new();
        dict.define(
            StyleDef::new("d").with_attr(Attr::new(AttrName::Duration, AttrValue::Number(5))),
        )
        .unwrap();
        dict.define(StyleDef::new("b").with_parent("d")).unwrap();
        dict.define(StyleDef::new("c").with_parent("d")).unwrap();
        dict.define(StyleDef::new("a").with_parent("b").with_parent("c"))
            .unwrap();
        let attrs = dict.expand("a").unwrap();
        assert_eq!(attrs.get_number(&AttrName::Duration), Some(5));
        assert!(dict.first_error().is_none());
        assert_eq!(dict.cyclic(), [false; 4]);
    }

    fn dictionary(defs: &[(&str, &[&str])]) -> StyleDictionary {
        defs.iter()
            .map(|(name, parents)| {
                parents
                    .iter()
                    .fold(StyleDef::new(*name), |def, parent| def.with_parent(*parent))
            })
            .collect()
    }

    fn error_of(dict: &StyleDictionary, name: &str) -> CoreError {
        dict.expand(name).unwrap_err()
    }

    #[test]
    fn each_style_reports_the_error_its_own_expansion_meets_first() {
        let cycle = |style: &str| CoreError::StyleCycle {
            style: style.into(),
        };
        let unknown = |style: &str| CoreError::UnknownStyle {
            style: style.into(),
        };
        // `x` leads into the cycle a -> b -> a: it meets `a` again, while
        // each style on the cycle meets itself.
        let dict = dictionary(&[("x", &["a"]), ("a", &["b"]), ("b", &["a"])]);
        assert_eq!(error_of(&dict, "x"), cycle("a"));
        assert_eq!(error_of(&dict, "a"), cycle("a"));
        assert_eq!(error_of(&dict, "b"), cycle("b"));
        assert_eq!(dict.first_error(), Some(&cycle("a")));
        assert_eq!(dict.cyclic(), [false, true, true]);

        // A dangling parent ahead of the cycle stops every expansion before
        // it closes; both styles still lie on the cycle.
        let dict = dictionary(&[("a", &["missing", "b"]), ("b", &["a"])]);
        assert_eq!(error_of(&dict, "a"), unknown("missing"));
        assert_eq!(error_of(&dict, "b"), unknown("missing"));
        assert_eq!(dict.cyclic(), [true, true]);

        // `d` closes a second loop through the first one without a back
        // edge of its own; a style that only reaches the loop is not on it.
        let dict = dictionary(&[
            ("a", &["b", "d"]),
            ("b", &["c"]),
            ("c", &["a"]),
            ("d", &["b"]),
            ("tail", &["d"]),
            ("fine", &[]),
        ]);
        assert_eq!(dict.cyclic(), [true, true, true, true, false, false]);
        assert!(dict.expand("fine").is_ok());
        // Walking d -> b -> c -> a -> b, both meet `b` again first.
        assert_eq!(error_of(&dict, "tail"), cycle("b"));
        assert_eq!(error_of(&dict, "d"), cycle("b"));
    }

    #[test]
    fn deep_chains_and_wide_diamonds_resolve_without_recursion() {
        // Declared deepest-first, so a recursive walk would nest once per
        // style; run on a small stack to prove nothing does.
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                const DEPTH: usize = 100_000;
                let mut dict = StyleDictionary::new();
                for level in (0..DEPTH).rev() {
                    let mut def = StyleDef::new(format!("s{level}"));
                    if level + 1 < DEPTH {
                        def = def.with_parent(format!("s{}", level + 1));
                    } else {
                        def = def.with_attr(Attr::new(AttrName::Duration, AttrValue::Number(7)));
                    }
                    dict.define(def).unwrap();
                }
                let attrs = dict.expand("s0").unwrap();
                assert_eq!(attrs.get_number(&AttrName::Duration), Some(7));
                // Styles that only rename their parent share its list.
                let flat = &dict.resolution().flat;
                let (base, top) = (&flat[0], &flat[DEPTH - 1]);
                assert!(Arc::ptr_eq(base.as_ref().unwrap(), top.as_ref().unwrap()));

                // Each of 64 levels names the one below twice: 2^64 paths.
                let mut dict = StyleDictionary::new();
                dict.define(StyleDef::new("d0").with_attr(Attr::new(
                    AttrName::Channel,
                    AttrValue::Id("caption".into()),
                )))
                .unwrap();
                for level in 1..=64 {
                    let below = format!("d{}", level - 1);
                    let def = StyleDef::new(format!("d{level}"))
                        .with_parent(below.clone())
                        .with_parent(below)
                        .with_attr(Attr::new(AttrName::Duration, AttrValue::Number(level)));
                    dict.define(def).unwrap();
                }
                let attrs = dict.expand_all(["d64"]).unwrap();
                assert_eq!(attrs.get_text(&AttrName::Channel), Some("caption"));
                assert_eq!(attrs.get_number(&AttrName::Duration), Some(64));
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn defining_a_style_invalidates_the_resolution() {
        let mut dict = dictionary(&[("a", &["b"])]);
        assert!(dict.expand("a").is_err());
        let resolved = dict.clone();
        dict.define(
            StyleDef::new("b").with_attr(Attr::new(AttrName::Duration, AttrValue::Number(3))),
        )
        .unwrap();
        assert_eq!(
            dict.expand("a").unwrap().get_number(&AttrName::Duration),
            Some(3)
        );
        // The clone kept its own resolution, and equality ignores both.
        assert!(resolved.expand("a").is_err());
        assert_eq!(resolved, dictionary(&[("a", &["b"])]));
    }

    #[test]
    fn expand_all_applies_styles_in_order() {
        let mut dict = StyleDictionary::new();
        dict.define(
            StyleDef::new("first").with_attr(Attr::new(AttrName::Duration, AttrValue::Number(1))),
        )
        .unwrap();
        dict.define(
            StyleDef::new("second").with_attr(Attr::new(AttrName::Duration, AttrValue::Number(2))),
        )
        .unwrap();
        let attrs = dict.expand_all(["first", "second"]).unwrap();
        assert_eq!(attrs.get_number(&AttrName::Duration), Some(2));
        let attrs = dict.expand_all(["second", "first"]).unwrap();
        assert_eq!(attrs.get_number(&AttrName::Duration), Some(1));
    }

    #[test]
    fn style_names_accepts_single_and_list() {
        assert_eq!(style_names(&AttrValue::Id("a".into())).unwrap(), vec!["a"]);
        assert_eq!(
            style_names(&AttrValue::list([
                AttrValue::Id("a".into()),
                AttrValue::Id("b".into())
            ]))
            .unwrap(),
            vec!["a", "b"]
        );
        assert!(style_names(&AttrValue::Number(3)).is_err());
        assert!(style_names(&AttrValue::list([AttrValue::Number(3)])).is_err());
    }

    #[test]
    fn iteration_preserves_declaration_order() {
        let mut dict = StyleDictionary::new();
        dict.define(StyleDef::new("z")).unwrap();
        dict.define(StyleDef::new("a")).unwrap();
        let names: Vec<_> = dict.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["z", "a"]);
    }
}
