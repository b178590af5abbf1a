//! Parser: reads the human-readable interchange form back into a
//! [`Document`].
//!
//! The grammar accepted here is exactly what [`crate::writer`] produces,
//! plus the usual freedoms of an s-expression syntax (whitespace, comments,
//! section order). The parser validates delay windows and rebuilds the
//! channel dictionary, style dictionary and descriptor catalog, but does
//! *not* run the full structural validator — callers decide whether a
//! freshly transported document must already be presentable
//! ([`parse_document`] vs [`parse_document_unvalidated`]).
//!
//! # One pass
//!
//! The parser is recursive descent over the pull [`Lexer`], one token at a
//! time, and builds the document as the tokens arrive: each section goes
//! straight into its dictionary, each node item becomes an `add_child`,
//! `set_attr` or `add_arc` call, and attribute values are built from the
//! tokens directly. No token vector or expression tree exists in between.
//! Items the grammar ignores are still lexed, and every list — ignored
//! ones and attribute values included — counts against
//! [`crate::MAX_NESTING`].
//!
//! Errors rank as if the input were tokenized, then read as a tree, then
//! interpreted: the first lexer error anywhere in the input wins, then the
//! first structural one (unbalanced parentheses, nesting too deep,
//! trailing content), then the error of meaning the parser met. So once
//! the parser fails, it reads on to the end of the input to rank the error;
//! a document that parses pays nothing for this.

use std::any::type_name;
use std::borrow::Cow;
use std::sync::Arc;

use cmif_core::arc::{Anchor, Strictness, SyncArc};
use cmif_core::attr::{Attr, AttrName};
use cmif_core::channel::{ChannelDef, MediaKind};
use cmif_core::descriptor::{DataDescriptor, ResourceNeeds};
use cmif_core::diag::SourceMap;
use cmif_core::node::{NodeId, NodeKind};
use cmif_core::path::NodePath;
use cmif_core::style::StyleDef;
use cmif_core::symbol::Symbol;
use cmif_core::time::{DelayMs, MaxDelay, MediaTime, MediaUnit, RateInfo, TimeMs};
use cmif_core::tree::Document;
use cmif_core::validate;
use cmif_core::value::AttrValue;

use crate::error::{FormatError, Position, Result, Span};
use crate::lexer::{Lexer, Token, TokenKind};
use crate::writer::hex_decode;
use crate::MAX_NESTING;

/// Parses a document and runs the structural validator on the result.
pub fn parse_document(source: &str) -> Result<Document> {
    let doc = parse_document_unvalidated(source)?;
    validate::validate(&doc)?;
    Ok(doc)
}

/// Parses a document without running the structural validator.
///
/// Useful for tools that operate on partial documents (e.g. a constraint
/// filter inspecting a document whose media channels the local device cannot
/// support).
pub fn parse_document_unvalidated(source: &str) -> Result<Document> {
    let mut parser = Parser {
        lexer: Lexer::new(source),
        open: Vec::new(),
        closed: Position::default(),
        doc: Document::new(),
        sources: SourceMap::new(source),
    };
    if let Err(error) = parser.document() {
        return Err(parser.rank(error));
    }
    let mut doc = parser.doc;
    doc.sources = Some(Arc::new(parser.sources));
    Ok(doc)
}

/// How the errors of one kind of `(key value)` pair read.
struct PairErrors {
    context: &'static str,
    not_a_list: &'static str,
    wrong_length: &'static str,
    bad_key: &'static str,
}

const META_ENTRY: PairErrors = PairErrors {
    context: "meta entry",
    not_a_list: "expected a (key value) pair",
    wrong_length: "expected exactly a key and a value",
    bad_key: "key must be an identifier",
};

const CHANNEL_EXTRA: PairErrors = PairErrors {
    context: "channel",
    not_a_list: "extras must be (key value) pairs",
    wrong_length: "extras must be (key value) pairs",
    bad_key: "extra key must be an identifier",
};

const DESCRIPTOR_EXTRA: PairErrors = PairErrors {
    context: "descriptor",
    not_a_list: "extra must be (key value) pairs",
    wrong_length: "extra must be (key value) pairs",
    bad_key: "extra key must be an identifier",
};

/// The decoder's state while it reads one document.
///
/// Lists are read with [`Parser::item`], which reads the next item of the
/// innermost open list: a `(` it hands out has already been entered
/// (counted against the nesting limit), and the `)` that ends a list leaves
/// it and records where it ended in `closed`.
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// Where each open list starts, innermost last.
    open: Vec<Position>,
    /// The end of the last `)` read: where the list that just closed ends.
    closed: Position,
    doc: Document,
    sources: SourceMap,
}

impl<'a> Parser<'a> {
    /// Reads the one `(cmif ...)` expression the source must hold.
    fn document(&mut self) -> Result<()> {
        let first = self.lexer.next_token()?.ok_or(FormatError::UnexpectedEof)?;
        let open = first.span.start;
        let not_a_document = || malformed(open, "document", "expected a (cmif ...) expression");
        match first.kind {
            TokenKind::LParen => self.enter(open)?,
            TokenKind::RParen => return Err(FormatError::UnbalancedParens { at: open }),
            _ => return Err(not_a_document()),
        }
        match self.tag(&first)? {
            Some("cmif") => {}
            Some(tag) => {
                return Err(malformed(
                    open,
                    "document",
                    format!("expected tag `cmif`, found `{tag}`"),
                ))
            }
            None => return Err(not_a_document()),
        }

        let mut has_root = false;
        while let Some(section) = self.item()? {
            let at = section.span.start;
            let tag = self
                .tag(&section)?
                .ok_or_else(|| malformed(at, "section", "expected a tagged list"))?;
            match tag {
                "meta" => self.meta()?,
                "channels" => self.channels()?,
                "styles" => self.styles()?,
                "descriptors" => self.descriptors()?,
                "seq" | "par" | "ext" | "imm" => {
                    if has_root {
                        return Err(malformed(at, "document", "multiple root nodes"));
                    }
                    self.node(None, at, tag)?;
                    has_root = true;
                }
                other => {
                    return Err(malformed(
                        at,
                        "section",
                        format!("unknown section `{other}`"),
                    ))
                }
            }
        }
        // The document expression is closed: anything after it trails it.
        self.skip_structure()?;
        if !has_root {
            return Err(FormatError::UnexpectedEof);
        }
        Ok(())
    }

    fn meta(&mut self) -> Result<()> {
        while let Some(item) = self.item()? {
            let (key, value) = self.pair(item, &META_ENTRY)?;
            self.doc.meta.insert(key.into_owned(), value);
        }
        Ok(())
    }

    fn channels(&mut self) -> Result<()> {
        while let Some(item) = self.item()? {
            let at = item.span.start;
            let shape = || malformed(at, "channel", "expected (channel name medium ...)");
            if self.tag(&item)? != Some("channel") {
                return Err(shape());
            }
            let name = self.element()?.ok_or_else(shape)?;
            let medium = self.element()?.ok_or_else(shape)?;
            let name = text_of(name)
                .ok_or_else(|| malformed(at, "channel", "channel name must be text"))?;
            let medium = medium_of(
                medium,
                at,
                "channel",
                "channel medium must be an identifier",
            )?;
            let mut def = ChannelDef::new(name, medium);
            while let Some(extra) = self.item()? {
                let (key, value) = self.pair(extra, &CHANNEL_EXTRA)?;
                def = def.with_extra(key, value);
            }
            self.doc.channels.define(def)?;
        }
        Ok(())
    }

    fn styles(&mut self) -> Result<()> {
        while let Some(item) = self.item()? {
            let at = item.span.start;
            let shape = || malformed(at, "style", "expected (style name ...)");
            if self.tag(&item)? != Some("style") {
                return Err(shape());
            }
            let name = self.element()?.ok_or_else(shape)?;
            let name =
                text_of(name).ok_or_else(|| malformed(at, "style", "style name must be text"))?;
            let mut def = StyleDef::new(name);
            while let Some(part) = self.item()? {
                let part_at = part.span.start;
                match self.tag(&part)? {
                    Some("parents") => {
                        while let Some(parent) = self.element()? {
                            let parent_at = parent.span.start;
                            let name = text_of(parent).ok_or_else(|| {
                                malformed(parent_at, "style", "parent names must be identifiers")
                            })?;
                            def = def.with_parent(name);
                        }
                    }
                    Some("attrs") => {
                        while let Some(attr) = self.item()? {
                            let attr_at = attr.span.start;
                            let not_a_pair =
                                || malformed(attr_at, "style", "attrs must be (name value) pairs");
                            if !is_list(&attr) {
                                return Err(not_a_pair());
                            }
                            let name = self.element()?.ok_or_else(not_a_pair)?;
                            let name = text_of(name).ok_or_else(|| {
                                malformed(attr_at, "style", "attribute name must be an identifier")
                            })?;
                            let value = self.tail_value()?;
                            def = def.with_attr(Attr::new(AttrName::parse(&name), value));
                        }
                    }
                    Some(other) => {
                        return Err(malformed(
                            part_at,
                            "style",
                            format!("unknown style part `{other}`"),
                        ))
                    }
                    None => {
                        return Err(malformed(
                            part_at,
                            "style",
                            "expected (parents ...) or (attrs ...)",
                        ))
                    }
                }
            }
            self.doc.styles.define(def)?;
        }
        Ok(())
    }

    fn descriptors(&mut self) -> Result<()> {
        while let Some(item) = self.item()? {
            let at = item.span.start;
            let shape = || {
                malformed(
                    at,
                    "descriptor",
                    "expected (descriptor key medium format ...)",
                )
            };
            if self.tag(&item)? != Some("descriptor") {
                return Err(shape());
            }
            let key = self.element()?.ok_or_else(shape)?;
            let medium = self.element()?.ok_or_else(shape)?;
            let format = self.element()?.ok_or_else(shape)?;
            let key = text_of(key)
                .ok_or_else(|| malformed(at, "descriptor", "descriptor key must be text"))?;
            let medium = medium_of(medium, at, "descriptor", "medium must be an identifier")?;
            let format = text_of(format)
                .ok_or_else(|| malformed(at, "descriptor", "format must be text"))?;
            let mut descriptor = DataDescriptor::new(key, medium, format);
            let mut rates = RateInfo::NONE;
            let mut resources = ResourceNeeds::default();
            while let Some(field) = self.item()? {
                let field_at = field.span.start;
                let tag = self.tag(&field)?.ok_or_else(|| {
                    malformed(field_at, "descriptor", "fields must be tagged lists")
                })?;
                match tag {
                    "size" => descriptor.size_bytes = self.field_number(field_at)?,
                    "duration" => {
                        descriptor.duration =
                            Some(TimeMs::from_millis(self.field_number(field_at)?))
                    }
                    "resolution" => {
                        descriptor.resolution =
                            Some((self.field_number(field_at)?, self.field_number(field_at)?))
                    }
                    "color_depth" => descriptor.color_depth = Some(self.field_number(field_at)?),
                    "fps" => {
                        let value = match self.element()?.map(|t| t.kind) {
                            Some(TokenKind::Real(x)) => x,
                            Some(TokenKind::Number(n)) => n as f64,
                            _ => {
                                return Err(malformed(field_at, "descriptor", "fps needs a number"))
                            }
                        };
                        rates.frames_per_second = Some(value);
                    }
                    "sample_rate" => rates.samples_per_second = Some(self.field_number(field_at)?),
                    "byte_rate" => rates.bytes_per_second = Some(self.field_number(field_at)?),
                    "resources" => {
                        resources = ResourceNeeds {
                            bandwidth_bps: self.field_number(field_at)?,
                            decode_cost: self.field_number(field_at)?,
                            memory_bytes: self.field_number(field_at)?,
                        }
                    }
                    "location" => {
                        let text = self.element()?.and_then(text_of).ok_or_else(|| {
                            malformed(field_at, "descriptor", "location needs text")
                        })?;
                        descriptor.location = Some(text.into_owned());
                    }
                    "extra" => {
                        while let Some(pair) = self.item()? {
                            let (key, value) = self.pair(pair, &DESCRIPTOR_EXTRA)?;
                            descriptor.extra.insert(Symbol::from(key), value);
                        }
                        // The loop read the field's `)`.
                        continue;
                    }
                    other => {
                        return Err(malformed(
                            field_at,
                            "descriptor",
                            format!("unknown field `{other}`"),
                        ))
                    }
                }
                // Items past the ones a field uses are ignored.
                self.skip_rest()?;
            }
            descriptor.rates = rates;
            descriptor.resources = resources;
            self.doc.catalog.register(descriptor)?;
        }
        Ok(())
    }

    /// Reads the node list opened at `open` with tag `tag`, adding the node
    /// under `parent` (or as the root) before its items.
    fn node(&mut self, parent: Option<NodeId>, open: Position, tag: &str) -> Result<NodeId> {
        let kind = match tag {
            "seq" => NodeKind::Seq,
            "par" => NodeKind::Par,
            "ext" => NodeKind::Ext,
            // The payload is filled in from the node's (data ...) item.
            "imm" => NodeKind::Imm(cmif_core::node::ImmediateData::Text(String::new())),
            other => {
                return Err(malformed(
                    open,
                    "node",
                    format!("unknown node kind `{other}`"),
                ))
            }
        };
        let immediate = matches!(kind, NodeKind::Imm(_));
        let id = match parent {
            Some(parent) => self.doc.add_child(parent, kind)?,
            None => self.doc.set_root(kind),
        };

        let mut payload = None;
        while let Some(item) = self.item()? {
            let at = item.span.start;
            let tag = self
                .tag(&item)?
                .ok_or_else(|| malformed(at, "node item", "expected a tagged list"))?;
            match tag {
                "seq" | "par" | "ext" | "imm" => {
                    self.node(Some(id), at, tag)?;
                }
                "data" | "bindata" if immediate => {
                    // The last payload item wins.
                    payload = Some(self.payload(at, tag)?);
                    self.skip_rest()?;
                }
                // Only an immediate node carries a payload.
                "data" | "bindata" => self.skip_rest()?,
                "sync_arc" => {
                    let arc = self.arc(at)?;
                    self.doc.add_arc(id, arc)?;
                    // Aligned with `doc.arcs()` order: one push per added arc.
                    self.sources.push_arc(Span::new(at, self.closed));
                }
                name => {
                    let value = self.tail_value()?;
                    self.doc.set_attr(id, AttrName::parse(name), value)?;
                }
            }
        }
        self.sources.set_node(id, Span::new(open, self.closed));
        if let Some(payload) = payload {
            self.doc.node_mut(id)?.kind = NodeKind::Imm(payload);
        }
        Ok(id)
    }

    /// Reads the first item of a `(data ...)` or `(bindata ...)` item.
    fn payload(&mut self, at: Position, tag: &str) -> Result<cmif_core::node::ImmediateData> {
        let text = self.element()?.and_then(text_of);
        if tag == "data" {
            let text = text.ok_or_else(|| malformed(at, "imm node", "data needs text"))?;
            return Ok(cmif_core::node::ImmediateData::Text(text.into_owned()));
        }
        let text = text.ok_or_else(|| malformed(at, "imm node", "bindata needs a hex string"))?;
        let bytes = hex_decode(&text)
            .ok_or_else(|| malformed(at, "imm node", "bindata is not valid hex"))?;
        Ok(cmif_core::node::ImmediateData::Binary(bytes))
    }

    /// Reads the body of the `(sync_arc ...)` list opened at `open`.
    fn arc(&mut self, open: Position) -> Result<SyncArc> {
        let shape = || {
            malformed(
                open,
                "sync_arc",
                "expected anchor strictness source-anchor source offset unit destination min max",
            )
        };
        // All nine fields are read before any is checked, as a list of the
        // wrong length is reported before a bad field.
        let mut field = || self.element()?.ok_or_else(shape);
        let anchor = field()?;
        let strictness = field()?;
        let source_anchor = field()?;
        let source = field()?;
        let offset = field()?;
        let unit = field()?;
        let destination = field()?;
        let min_delay = field()?;
        let max_delay = field()?;
        if self.element()?.is_some() {
            return Err(shape());
        }

        let bad = |message: &str| malformed(open, "sync_arc", message);
        let anchor_text = text_of(anchor).ok_or_else(|| bad("anchor must be begin or end"))?;
        let anchor = Anchor::parse(&anchor_text)
            .ok_or_else(|| bad(&format!("unknown anchor `{anchor_text}`")))?;
        let strict_text =
            text_of(strictness).ok_or_else(|| bad("strictness must be must or may"))?;
        let strictness = Strictness::parse(&strict_text)
            .ok_or_else(|| bad(&format!("unknown strictness `{strict_text}`")))?;
        let source_anchor_text =
            text_of(source_anchor).ok_or_else(|| bad("source anchor must be begin or end"))?;
        let source_anchor = Anchor::parse(&source_anchor_text)
            .ok_or_else(|| bad(&format!("unknown anchor `{source_anchor_text}`")))?;
        let source = text_of(source).ok_or_else(|| bad("source must be a path"))?;
        let offset_value = integer(&offset.kind).ok_or_else(|| bad("offset must be a number"))?;
        let unit_text = text_of(unit).ok_or_else(|| bad("offset unit must be an identifier"))?;
        let unit =
            parse_unit(&unit_text).ok_or_else(|| bad(&format!("unknown unit `{unit_text}`")))?;
        let destination = text_of(destination).ok_or_else(|| bad("destination must be a path"))?;
        let min_delay =
            integer(&min_delay.kind).ok_or_else(|| bad("min delay must be a number"))?;
        let max_delay = match (&max_delay.kind, integer(&max_delay.kind)) {
            (TokenKind::Ident("inf"), _) => MaxDelay::Unbounded,
            (_, Some(ms)) => MaxDelay::Bounded(DelayMs::from_millis(ms)),
            _ => return Err(bad("max delay must be a number or `inf`")),
        };
        Ok(SyncArc {
            anchor,
            strictness,
            source_anchor,
            source: NodePath::parse(&source),
            offset: MediaTime {
                value: offset_value,
                unit,
            },
            destination: NodePath::parse(&destination),
            min_delay: DelayMs::from_millis(min_delay),
            max_delay,
        })
    }

    /// Reads a `(key value)` pair whose `(` is `item`.
    fn pair(&mut self, item: Token<'a>, errors: &PairErrors) -> Result<(Cow<'a, str>, AttrValue)> {
        let at = item.span.start;
        if !is_list(&item) {
            return Err(malformed(at, errors.context, errors.not_a_list));
        }
        let wrong_length = || malformed(at, errors.context, errors.wrong_length);
        let key = self.element()?.ok_or_else(wrong_length)?;
        let value = self.item()?.ok_or_else(wrong_length)?;
        let value = self.value(value)?;
        if self.element()?.is_some() {
            return Err(wrong_length());
        }
        let key = text_of(key).ok_or_else(|| malformed(at, errors.context, errors.bad_key))?;
        Ok((key, value))
    }

    /// Reads the next item of the descriptor field opened at `field` as a
    /// number of type `T`, refusing one that does not fit.
    fn field_number<T: TryFrom<i64>>(&mut self, field: Position) -> Result<T> {
        let token = self.element()?;
        let (n, at) = token
            .and_then(|t| Some((integer(&t.kind)?, t.span.start)))
            .ok_or_else(|| malformed(field, "descriptor", "expected a numeric field"))?;
        T::try_from(n).map_err(|_| {
            malformed(
                at,
                "descriptor",
                format!("{n} does not fit in {}", type_name::<T>()),
            )
        })
    }

    /// Builds an attribute value from `token`; a `(` builds a list from the
    /// items up to its `)`.
    fn value(&mut self, token: Token<'a>) -> Result<AttrValue> {
        Ok(match token.kind {
            TokenKind::Ident(s) => AttrValue::Id(Symbol::intern(s)),
            TokenKind::Number(n) => AttrValue::Number(n),
            TokenKind::Real(x) => AttrValue::Real(x),
            TokenKind::Str(s) => AttrValue::Str(s.into_owned()),
            TokenKind::Ref(s) => AttrValue::Ref(Symbol::intern(s)),
            TokenKind::LParen => {
                let mut items = Vec::new();
                while let Some(item) = self.item()? {
                    items.push(self.value(item)?);
                }
                AttrValue::List(items)
            }
            // `item` never hands out a `)`.
            TokenKind::RParen => {
                return Err(FormatError::UnbalancedParens {
                    at: token.span.start,
                })
            }
        })
    }

    /// Reads the rest of the innermost open list as an attribute value: a
    /// single item stays scalar, none or several become a list.
    fn tail_value(&mut self) -> Result<AttrValue> {
        let Some(first) = self.item()? else {
            return Ok(AttrValue::List(Vec::new()));
        };
        let first = self.value(first)?;
        let Some(second) = self.item()? else {
            return Ok(first);
        };
        let mut items = vec![first, self.value(second)?];
        while let Some(item) = self.item()? {
            items.push(self.value(item)?);
        }
        Ok(AttrValue::List(items))
    }

    /// For `item`, a `(`, reads the identifier its list opens with: the tag
    /// of a tagged list. `None` when `item` is not a list or its first item
    /// is not an identifier.
    fn tag(&mut self, item: &Token<'a>) -> Result<Option<&'a str>> {
        if !is_list(item) {
            return Ok(None);
        }
        Ok(match self.item()? {
            Some(Token {
                kind: TokenKind::Ident(tag),
                ..
            }) => Some(tag),
            _ => None,
        })
    }

    /// Reads the next item of the innermost open list, or `None` at its
    /// `)`. A `(` comes back already entered.
    fn item(&mut self) -> Result<Option<Token<'a>>> {
        let Some(token) = self.lexer.next_token()? else {
            return Err(match self.open.last() {
                Some(&at) => FormatError::UnbalancedParens { at },
                None => FormatError::UnexpectedEof,
            });
        };
        match token.kind {
            TokenKind::RParen => {
                self.open.pop();
                self.closed = token.span.end;
                Ok(None)
            }
            TokenKind::LParen => {
                self.enter(token.span.start)?;
                Ok(Some(token))
            }
            _ => Ok(Some(token)),
        }
    }

    /// Reads the next item of the innermost open list for a check made
    /// later. A nested list is skipped and comes back as its `(`, which
    /// fails every check an atom can pass.
    fn element(&mut self) -> Result<Option<Token<'a>>> {
        let token = self.item()?;
        if token.as_ref().is_some_and(is_list) {
            self.skip_rest()?;
        }
        Ok(token)
    }

    /// Skips the rest of the innermost open list. The skipped items are
    /// still lexed, and their lists still count against the nesting limit.
    fn skip_rest(&mut self) -> Result<()> {
        while let Some(token) = self.item()? {
            if is_list(&token) {
                self.skip_rest()?;
            }
        }
        Ok(())
    }

    /// Enters the list whose `(` is at `at`, refusing to nest deeper than
    /// [`MAX_NESTING`]: a parenthesis bomb becomes a typed error, not a
    /// stack overflow.
    fn enter(&mut self, at: Position) -> Result<()> {
        if self.open.len() >= MAX_NESTING {
            return Err(FormatError::TooDeep {
                at,
                limit: MAX_NESTING,
            });
        }
        self.open.push(at);
        Ok(())
    }

    /// Reads the rest of the input for its structure alone: lists must
    /// balance and stay within the nesting limit, and nothing may follow
    /// the document expression.
    fn skip_structure(&mut self) -> Result<()> {
        while let Some(token) = self.lexer.next_token()? {
            if self.open.is_empty() {
                return Err(FormatError::TrailingContent {
                    at: token.position(),
                });
            }
            match token.kind {
                TokenKind::LParen => self.enter(token.span.start)?,
                TokenKind::RParen => {
                    self.open.pop();
                }
                _ => {}
            }
        }
        match self.open.last() {
            Some(&at) => Err(FormatError::UnbalancedParens { at }),
            None => Ok(()),
        }
    }

    /// Ranks `error`, which stopped the parse, against what the rest of the
    /// input holds: a lexer error anywhere outranks a structural error,
    /// which outranks an error of meaning.
    fn rank(&mut self, error: FormatError) -> FormatError {
        // The lexer stops at the first bad token: all before it lexed.
        if is_lexical(&error) {
            return error;
        }
        let error = if is_structural(&error) {
            error
        } else {
            match self.skip_structure() {
                // The whole input was read without a lexer error.
                Ok(()) => return error,
                Err(found) => found,
            }
        };
        if is_lexical(&error) {
            return error;
        }
        loop {
            match self.lexer.next_token() {
                Ok(Some(_)) => {}
                Ok(None) => return error,
                Err(lexical) => return lexical,
            }
        }
    }
}

fn is_lexical(error: &FormatError) -> bool {
    matches!(
        error,
        FormatError::UnexpectedChar { .. }
            | FormatError::UnterminatedString { .. }
            | FormatError::BadNumber { .. }
    )
}

fn is_structural(error: &FormatError) -> bool {
    matches!(
        error,
        FormatError::UnbalancedParens { .. }
            | FormatError::TooDeep { .. }
            | FormatError::TrailingContent { .. }
    )
}

fn is_list(token: &Token<'_>) -> bool {
    matches!(token.kind, TokenKind::LParen)
}

/// The text of an identifier or string token.
fn text_of(token: Token<'_>) -> Option<Cow<'_, str>> {
    match token.kind {
        TokenKind::Ident(s) => Some(Cow::Borrowed(s)),
        TokenKind::Str(s) => Some(s),
        _ => None,
    }
}

/// The medium a channel or descriptor names in `token`.
fn medium_of(
    token: Token<'_>,
    at: Position,
    context: &'static str,
    not_text: &'static str,
) -> Result<MediaKind> {
    let text = text_of(token).ok_or_else(|| malformed(at, context, not_text))?;
    MediaKind::parse(&text)
        .ok_or_else(|| malformed(at, context, format!("unknown medium `{text}`")))
}

/// The integer a number token holds. A real counts only when it is
/// integral and inside `i64`: an `as` cast would turn `1e300` into
/// `i64::MAX`.
fn integer(kind: &TokenKind<'_>) -> Option<i64> {
    // 2^63, the first integral real past `i64::MAX`.
    const LIMIT: f64 = 9_223_372_036_854_775_808.0;
    match *kind {
        TokenKind::Number(n) => Some(n),
        TokenKind::Real(x) if x.fract() == 0.0 && (-LIMIT..LIMIT).contains(&x) => Some(x as i64),
        _ => None,
    }
}

fn parse_unit(text: &str) -> Option<MediaUnit> {
    match text {
        "ms" | "milliseconds" => Some(MediaUnit::Milliseconds),
        "s" | "seconds" => Some(MediaUnit::Seconds),
        "frames" | "frame" => Some(MediaUnit::Frames),
        "samples" | "sample" => Some(MediaUnit::Samples),
        "bytes" | "byte" => Some(MediaUnit::Bytes),
        _ => None,
    }
}

fn malformed(at: Position, context: &'static str, message: impl Into<String>) -> FormatError {
    FormatError::Malformed {
        context,
        message: message.into(),
        at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_document;
    use cmif_core::prelude::*;

    const SMALL: &str = r#"
    ; A miniature news document.
    (cmif
      (meta (author "CWI") (year 1991))
      (channels
        (channel audio audio)
        (channel caption text (language en)))
      (styles
        (style base (attrs (duration 1000)))
        (style caption-style (parents base) (attrs (channel caption))))
      (descriptors
        (descriptor story-audio audio pcm8 (size 64000) (duration 8000)
          (sample_rate 8000) (byte_rate 8000) (location "store://host/a")))
      (seq (name news)
        (par (name story-1)
          (ext (name voice) (channel audio) (file "story-audio"))
          (imm (name line) (channel caption) (duration 3000)
            (sync_arc begin must begin "../voice" 0 ms "" 0 250)
            (data "Gestolen van Goghs")))))
    "#;

    #[test]
    fn parses_a_complete_document() {
        let doc = parse_document(SMALL).unwrap();
        assert_eq!(doc.meta["author"].as_text(), Some("CWI"));
        assert_eq!(doc.meta["year"].as_number(), Some(1991));
        assert_eq!(doc.channels.len(), 2);
        assert_eq!(doc.styles.len(), 2);
        assert_eq!(doc.catalog.len(), 1);
        assert_eq!(doc.leaves().len(), 2);
        let voice = doc.find("/story-1/voice").unwrap();
        assert_eq!(
            doc.channel_of(voice).unwrap().map(|s| s.as_str()),
            Some("audio")
        );
        let line = doc.find("/story-1/line").unwrap();
        assert_eq!(
            doc.duration_of(line, &doc.catalog).unwrap(),
            Some(TimeMs::from_millis(3000))
        );
        assert_eq!(doc.arcs().len(), 1);
        let descriptor = doc.catalog.get("story-audio").unwrap();
        assert_eq!(descriptor.rates.samples_per_second, Some(8000));
    }

    #[test]
    fn parsing_records_node_and_arc_provenance() {
        let doc = parse_document(SMALL).unwrap();
        let sources = doc.sources.as_deref().expect("parsed docs carry sources");
        // Every reachable node has a recorded span that slices a node
        // expression of the right kind back out of the source.
        for id in doc.preorder() {
            let span = sources.node_span(id).expect("every node has a span");
            let text = span.text(sources.text()).expect("span inside the source");
            assert!(text.starts_with('('), "node span starts at its paren");
            assert!(text.ends_with(')'), "node span ends at its paren");
        }
        let voice = doc.find("/story-1/voice").unwrap();
        let span = sources.node_span(voice).unwrap();
        assert!(span.text(sources.text()).unwrap().contains("story-audio"));
        // The one arc's span covers exactly its (sync_arc ...) expression.
        let arc_span = sources.arc_span(0).expect("arc provenance recorded");
        let arc_text = arc_span.text(sources.text()).unwrap();
        assert!(arc_text.starts_with("(sync_arc"));
        assert!(arc_text.ends_with("250)"));
        assert_eq!(sources.arc_span(1), None);
    }

    #[test]
    fn built_documents_have_no_sources() {
        let doc = Document::with_root(NodeKind::Seq);
        assert!(doc.sources.is_none());
    }

    #[test]
    fn immediate_text_payload_is_preserved() {
        let doc = parse_document(SMALL).unwrap();
        let line = doc.find("/story-1/line").unwrap();
        match &doc.node(line).unwrap().kind {
            NodeKind::Imm(ImmediateData::Text(text)) => {
                assert_eq!(text, "Gestolen van Goghs");
            }
            other => panic!("unexpected node kind {other:?}"),
        }
    }

    #[test]
    fn binary_immediate_data_round_trips() {
        let source = r#"
        (cmif
          (channels (channel label label))
          (par (name root)
            (imm (name blob) (channel label) (duration 100)
              (bindata "00ff10"))))
        "#;
        let doc = parse_document(source).unwrap();
        let blob = doc.find("/blob").unwrap();
        match &doc.node(blob).unwrap().kind {
            NodeKind::Imm(ImmediateData::Binary(bytes)) => assert_eq!(bytes, &vec![0u8, 255, 16]),
            other => panic!("unexpected node kind {other:?}"),
        }
        let text = write_document(&doc).unwrap();
        let again = parse_document(&text).unwrap();
        assert_eq!(
            doc.node(blob).unwrap().kind,
            again.node(again.find("/blob").unwrap()).unwrap().kind
        );
    }

    #[test]
    fn arc_fields_are_parsed() {
        let doc = parse_document(SMALL).unwrap();
        let (carrier, arc) = &doc.arcs()[0];
        assert_eq!(*carrier, doc.find("/story-1/line").unwrap());
        assert_eq!(arc.anchor, Anchor::Begin);
        assert_eq!(arc.strictness, Strictness::Must);
        assert_eq!(arc.source.to_string(), "../voice");
        assert!(arc.destination.is_current());
        assert_eq!(arc.max_delay, MaxDelay::Bounded(DelayMs::from_millis(250)));
    }

    #[test]
    fn rejects_wrong_top_level_tag() {
        assert!(parse_document("(html (body))").is_err());
        assert!(parse_document("42").is_err());
    }

    #[test]
    fn rejects_unknown_sections_and_node_kinds() {
        assert!(parse_document("(cmif (bogus) (seq (name x)))").is_err());
        assert!(parse_document("(cmif (loop (name x)))").is_err());
    }

    #[test]
    fn rejects_multiple_roots() {
        let source = "(cmif (seq (name a)) (seq (name b)))";
        assert!(parse_document(source).is_err());
    }

    #[test]
    fn rejects_document_without_root() {
        assert!(matches!(
            parse_document("(cmif (channels (channel a audio)))").unwrap_err(),
            FormatError::UnexpectedEof
        ));
    }

    #[test]
    fn validated_parse_rejects_dangling_channel() {
        let source = r#"
        (cmif
          (seq (name x)
            (imm (name y) (channel ghost) (duration 10) (data "t"))))
        "#;
        assert!(parse_document(source).is_err());
        assert!(parse_document_unvalidated(source).is_ok());
    }

    #[test]
    fn malformed_arc_is_rejected() {
        let source = r#"
        (cmif
          (channels (channel audio audio))
          (seq (name x)
            (imm (name y) (channel audio) (duration 10)
              (sync_arc begin must "" 0 ms "" 0 0)
              (data "t"))))
        "#;
        assert!(parse_document(source).is_err());
    }

    #[test]
    fn round_trip_write_then_parse() {
        let doc = parse_document(SMALL).unwrap();
        let text = write_document(&doc).unwrap();
        let again = parse_document(&text).unwrap();
        assert_eq!(doc.channels, again.channels);
        assert_eq!(doc.styles, again.styles);
        assert_eq!(doc.catalog, again.catalog);
        assert_eq!(doc.meta, again.meta);
        assert_eq!(doc.leaves().len(), again.leaves().len());
        assert_eq!(doc.arcs().len(), again.arcs().len());
        // The second generation must be textually stable.
        let text2 = write_document(&again).unwrap();
        assert_eq!(text, text2);
    }

    #[test]
    fn unit_spellings() {
        assert_eq!(parse_unit("ms"), Some(MediaUnit::Milliseconds));
        assert_eq!(parse_unit("s"), Some(MediaUnit::Seconds));
        assert_eq!(parse_unit("frames"), Some(MediaUnit::Frames));
        assert_eq!(parse_unit("samples"), Some(MediaUnit::Samples));
        assert_eq!(parse_unit("bytes"), Some(MediaUnit::Bytes));
        assert_eq!(parse_unit("furlongs"), None);
    }

    /// A document whose catalog holds one descriptor with `field`.
    fn with_descriptor_field(field: &str) -> String {
        format!(
            "(cmif (channels (channel c text)) \
             (descriptors (descriptor d text plain {field})) \
             (seq (name root) (imm (name leaf) (channel c) (duration 1) (data \"t\"))))"
        )
    }

    /// Parses a document whose one descriptor has `field`, expecting a
    /// positioned `Malformed` error anchored on `literal`.
    fn refused_field(field: &str, literal: &str) -> String {
        let source = with_descriptor_field(field);
        match parse_document(&source).unwrap_err() {
            FormatError::Malformed { message, at, .. } => {
                assert_eq!(at.offset, source.find(literal).unwrap(), "{message}");
                message
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn descriptor_size_refuses_negative_values() {
        // -1 must not wrap to 18446744073709551615.
        assert!(refused_field("(size -1)", "-1").contains("u64"));
        let doc = parse_document(&with_descriptor_field("(size 64000)")).unwrap();
        assert_eq!(doc.catalog.get("d").unwrap().size_bytes, 64_000);
    }

    #[test]
    fn descriptor_resolution_refuses_values_past_u32() {
        // 4294967301 must not wrap to 5.
        refused_field("(resolution 4294967301 2)", "4294967301");
        refused_field("(resolution 640 -480)", "-480");
    }

    #[test]
    fn descriptor_color_depth_refuses_values_past_u8() {
        // 300 must not wrap to 44.
        assert!(refused_field("(color_depth 300)", "300").contains("u8"));
        let doc = parse_document(&with_descriptor_field("(color_depth 255)")).unwrap();
        assert_eq!(doc.catalog.get("d").unwrap().color_depth, Some(255));
    }

    #[test]
    fn descriptor_sample_rate_refuses_negative_values() {
        // -8000 must not wrap to 4294959296.
        refused_field("(sample_rate -8000)", "-8000");
    }

    #[test]
    fn descriptor_byte_rate_refuses_negative_values() {
        refused_field("(byte_rate -1)", "-1");
    }

    #[test]
    fn descriptor_resources_refuse_values_their_fields_cannot_hold() {
        refused_field("(resources -1 0 0)", "-1");
        refused_field("(resources 1 4294967296 1)", "4294967296");
        refused_field("(resources 1 2 -3)", "-3");
        let doc = parse_document(&with_descriptor_field("(resources 1 2 3)")).unwrap();
        assert_eq!(doc.catalog.get("d").unwrap().resources.decode_cost, 2);
    }

    /// A document with one arc whose offset, minimum and maximum delay are
    /// the given literals.
    fn with_arc(offset: &str, min: &str, max: &str) -> String {
        format!(
            "(cmif (channels (channel c text)) (seq (name root) \
             (imm (name a) (channel c) (duration 1) (data \"t\")) \
             (imm (name b) (channel c) (duration 1) (data \"t\") \
               (sync_arc begin must begin \"../a\" {offset} ms \"\" {min} {max}))))"
        )
    }

    fn arc_error(offset: &str, min: &str, max: &str) -> String {
        match parse_document(&with_arc(offset, min, max)).unwrap_err() {
            FormatError::Malformed { message, .. } => message,
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn arc_offsets_refuse_reals_outside_i64() {
        // Neither may saturate to i64::MAX; the second does not fit in i64,
        // so it lexes as a real.
        assert!(arc_error("1e300", "0", "250").contains("offset"));
        assert!(arc_error("99999999999999999999", "0", "250").contains("offset"));
        // An integral real inside i64 still counts.
        let doc = parse_document(&with_arc("2.0", "0", "250")).unwrap();
        assert_eq!(doc.arcs()[0].1.offset.value, 2);
    }

    #[test]
    fn delay_bounds_refuse_reals_outside_i64() {
        assert!(arc_error("0", "-1e300", "250").contains("min delay"));
        assert!(arc_error("0", "0", "1e300").contains("max delay"));
        assert!(arc_error("0", "0", "99999999999999999999").contains("max delay"));
    }

    #[test]
    fn descriptor_fields_refuse_reals_outside_i64() {
        let source = with_descriptor_field("(size 1e300)");
        assert!(matches!(
            parse_document(&source).unwrap_err(),
            FormatError::Malformed { .. }
        ));
    }

    #[test]
    fn rejects_depth_bombs_with_a_typed_error() {
        // One level under the limit still reads (and then fails on meaning)...
        let deep = format!(
            "{}a{}",
            "(".repeat(crate::MAX_NESTING),
            ")".repeat(crate::MAX_NESTING)
        );
        assert!(matches!(
            parse_document(&deep).unwrap_err(),
            FormatError::Malformed { .. }
        ));
        // ...one over stops with TooDeep where the limit is crossed, even
        // though an error of meaning comes first in the text.
        let bomb = format!("{}a{}", "(".repeat(100_000), ")".repeat(100_000));
        match parse_document(&bomb).unwrap_err() {
            FormatError::TooDeep { limit, at } => {
                assert_eq!(limit, crate::MAX_NESTING);
                assert_eq!(at.offset, crate::MAX_NESTING);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn errors_rank_lexical_then_structural_then_meaning() {
        // The unknown section comes first, but a bad number anywhere wins...
        let source = "(cmif (bogus) (seq (name x) (duration 1.2.3)) (((";
        assert!(matches!(
            parse_document(source).unwrap_err(),
            FormatError::BadNumber { .. }
        ));
        // ...and without it, the unclosed list does.
        let source = "(cmif (bogus) (seq (name x) (duration 1)) (((";
        match parse_document(source).unwrap_err() {
            FormatError::UnbalancedParens { at } => assert_eq!(at.offset, source.len() - 1),
            other => panic!("unexpected error {other:?}"),
        }
        // Trailing content outranks a missing root.
        assert!(matches!(
            parse_document("(cmif (channels)) (more)").unwrap_err(),
            FormatError::TrailingContent { .. }
        ));
    }
}
