//! The reference text decoder the one-pass parser is checked against.
//!
//! This is the three-stage decoder the one-pass parser replaced, kept only
//! for tests: a `char`-at-a-time lexer collects a token vector, an
//! s-expression reader folds it into a tree, and a tree-walking parser
//! builds the [`Document`]. It carries the same numeric rules as the
//! library — non-finite literals are bad numbers, an integer field takes a
//! real only when it is integral and inside `i64`, and descriptor fields
//! refuse values their type cannot hold — so the differential suite
//! compares like with like.

use std::any::type_name;
use std::borrow::Cow;

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
use cmif_core::value::AttrValue;

use crate::error::{FormatError, Position, Result, Span};
use crate::lexer::{Token, TokenKind};
use crate::writer::hex_decode;

// ---------------------------------------------------------------------
// Lexer: one char at a time, collected into a vector.
// ---------------------------------------------------------------------

/// Tokenizes an entire source text. Token payloads borrow from `source`.
pub fn tokenize(source: &str) -> Result<Vec<Token<'_>>> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    source: &'a str,
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
    column: u32,
    offset: usize,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Lexer<'a> {
        Lexer {
            source,
            chars: source.chars().peekable(),
            line: 1,
            column: 1,
            offset: 0,
        }
    }

    fn position(&self) -> Position {
        Position::new(self.line, self.column, self.offset)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        self.offset += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Result<Vec<Token<'a>>> {
        let mut tokens = Vec::new();
        loop {
            // Skip whitespace and comments.
            match self.chars.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                    continue;
                }
                Some(';') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                    continue;
                }
                None => break,
                _ => {}
            }

            let position = self.position();
            let c = match self.chars.peek() {
                Some(&c) => c,
                None => break,
            };
            let kind = match c {
                '(' => {
                    self.bump();
                    TokenKind::LParen
                }
                ')' => {
                    self.bump();
                    TokenKind::RParen
                }
                '"' => {
                    self.bump();
                    TokenKind::Str(self.read_string(position)?)
                }
                '&' => {
                    self.bump();
                    let name = self.read_bareword();
                    if name.is_empty() {
                        return Err(FormatError::UnexpectedChar {
                            found: '&',
                            at: position,
                        });
                    }
                    TokenKind::Ref(name)
                }
                c if c == '-' || c.is_ascii_digit() => {
                    let word = self.read_bareword();
                    Self::classify_number_or_ident(word, position)?
                }
                c if is_ident_char(c) => TokenKind::Ident(self.read_bareword()),
                other => {
                    return Err(FormatError::UnexpectedChar {
                        found: other,
                        at: position,
                    });
                }
            };
            tokens.push(Token {
                kind,
                span: Span::new(position, self.position()),
            });
        }
        Ok(tokens)
    }

    fn classify_number_or_ident(word: &'a str, position: Position) -> Result<TokenKind<'a>> {
        // A lone `-` or a word that merely starts with a digit but contains
        // identifier characters (e.g. `3d-graph`) is an identifier.
        if word == "-" {
            return Ok(TokenKind::Ident(word));
        }
        if let Ok(n) = word.parse::<i64>() {
            return Ok(TokenKind::Number(n));
        }
        if let Ok(x) = word.parse::<f64>() {
            if x.is_finite() {
                return Ok(TokenKind::Real(x));
            }
            return Err(FormatError::BadNumber {
                text: word.to_string(),
                at: position,
            });
        }
        // Words like `-abc` or `12x` fall back to identifiers unless they
        // look overwhelmingly numeric, in which case report a bad number.
        if word
            .chars()
            .all(|c| c.is_ascii_digit() || c == '.' || c == '-' || c == '+')
        {
            return Err(FormatError::BadNumber {
                text: word.to_string(),
                at: position,
            });
        }
        Ok(TokenKind::Ident(word))
    }

    /// Reads a run of identifier characters as a slice of the source — no
    /// per-token allocation.
    fn read_bareword(&mut self) -> &'a str {
        let start = self.offset;
        while let Some(&c) = self.chars.peek() {
            if is_ident_char(c) {
                self.bump();
            } else {
                break;
            }
        }
        &self.source[start..self.offset]
    }

    /// Reads a quoted string. When the literal contains no escapes the
    /// content is borrowed straight from the source; escapes force one
    /// owned buffer.
    fn read_string(&mut self, start: Position) -> Result<Cow<'a, str>> {
        let content_start = self.offset;
        // Fast path: scan to the closing quote; bail to the slow path at
        // the first backslash.
        loop {
            match self.chars.peek() {
                Some('"') => {
                    let content = &self.source[content_start..self.offset];
                    self.bump();
                    return Ok(Cow::Borrowed(content));
                }
                Some('\\') => break,
                Some(_) => {
                    self.bump();
                }
                None => return Err(FormatError::UnterminatedString { at: start }),
            }
        }
        // Slow path: copy what was scanned so far, then resolve escapes.
        let mut out = String::from(&self.source[content_start..self.offset]);
        loop {
            match self.bump() {
                Some('"') => return Ok(Cow::Owned(out)),
                Some('\\') => match self.bump() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some(c) => out.push(c),
                    None => return Err(FormatError::UnterminatedString { at: start }),
                },
                Some(c) => out.push(c),
                None => return Err(FormatError::UnterminatedString { at: start }),
            }
        }
    }
}

/// Characters permitted inside bare identifiers and numbers.
fn is_ident_char(c: char) -> bool {
    !(c.is_whitespace() || c == '(' || c == ')' || c == '"' || c == ';' || c == '&')
}

// ---------------------------------------------------------------------
// S-expression reader: tokens folded into a tree.
// ---------------------------------------------------------------------

/// One expression of the interchange format, borrowing from the source
/// text it was read from.
#[derive(Debug, Clone, PartialEq)]
pub struct SExpr<'a> {
    /// Where the expression starts.
    pub position: Position,
    /// The source bytes the expression covers — for a list, from its
    /// opening to its closing parenthesis. The document parser records
    /// these as per-node provenance.
    pub span: Span,
    /// The expression's shape.
    pub kind: SExprKind<'a>,
}

/// The shapes an expression can take.
#[derive(Debug, Clone, PartialEq)]
pub enum SExprKind<'a> {
    /// A bare identifier, borrowed from the source.
    Ident(&'a str),
    /// An integral number.
    Number(i64),
    /// A real number.
    Real(f64),
    /// A quoted string (borrowed unless it contained escapes).
    Str(Cow<'a, str>),
    /// An `&name` attribute reference, borrowed from the source.
    Ref(&'a str),
    /// A parenthesized list of expressions.
    List(Vec<SExpr<'a>>),
}

impl<'a> SExpr<'a> {
    /// Returns the identifier text when the expression is a bare identifier.
    pub fn as_ident(&self) -> Option<&str> {
        match &self.kind {
            SExprKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the text of an identifier or string expression.
    pub fn as_text(&self) -> Option<&str> {
        match &self.kind {
            SExprKind::Ident(s) => Some(s),
            SExprKind::Str(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// Returns the integral value of a number expression; a real only when
    /// it is integral and inside `i64`.
    pub fn as_number(&self) -> Option<i64> {
        // 2^63, the first integral real past `i64::MAX`.
        const LIMIT: f64 = 9_223_372_036_854_775_808.0;
        match &self.kind {
            SExprKind::Number(n) => Some(*n),
            SExprKind::Real(x) if x.fract() == 0.0 && (-LIMIT..LIMIT).contains(x) => {
                Some(*x as i64)
            }
            _ => None,
        }
    }

    /// Returns the list elements of a list expression.
    pub fn as_list(&self) -> Option<&[SExpr<'a>]> {
        match &self.kind {
            SExprKind::List(items) => Some(items),
            _ => None,
        }
    }

    /// For a list whose first element is an identifier, returns that
    /// identifier (the list's "tag") and the remaining elements.
    pub fn as_tagged(&self) -> Option<(&str, &[SExpr<'a>])> {
        let items = self.as_list()?;
        let tag = items.first()?.as_ident()?;
        Some((tag, &items[1..]))
    }

    /// Produces a malformed-expression error at this expression's position.
    pub fn malformed(&self, context: &'static str, message: impl Into<String>) -> FormatError {
        FormatError::Malformed {
            context,
            message: message.into(),
            at: self.position,
        }
    }
}

/// Reads every top-level expression from a source text.
pub fn read_all(source: &str) -> Result<Vec<SExpr<'_>>> {
    let tokens = tokenize(source)?;
    let mut reader = Reader { tokens, index: 0 };
    let mut out = Vec::new();
    while !reader.at_end() {
        out.push(reader.read_expr(0)?);
    }
    Ok(out)
}

/// Reads exactly one top-level expression, rejecting trailing content.
pub fn read_one(source: &str) -> Result<SExpr<'_>> {
    let tokens = tokenize(source)?;
    let mut reader = Reader { tokens, index: 0 };
    let expr = reader.read_expr(0)?;
    if let Some(extra) = reader.peek() {
        return Err(FormatError::TrailingContent {
            at: extra.position(),
        });
    }
    Ok(expr)
}

struct Reader<'a> {
    tokens: Vec<Token<'a>>,
    index: usize,
}

impl<'a> Reader<'a> {
    fn at_end(&self) -> bool {
        self.index >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.index)
    }

    fn read_expr(&mut self, depth: usize) -> Result<SExpr<'a>> {
        let token = self
            .tokens
            .get(self.index)
            .ok_or(FormatError::UnexpectedEof)?;
        self.index += 1;
        let position = token.position();
        let mut span = token.span;
        let kind = match &token.kind {
            TokenKind::Ident(s) => SExprKind::Ident(s),
            TokenKind::Number(n) => SExprKind::Number(*n),
            TokenKind::Real(x) => SExprKind::Real(*x),
            TokenKind::Str(s) => SExprKind::Str(s.clone()),
            TokenKind::Ref(s) => SExprKind::Ref(s),
            TokenKind::RParen => return Err(FormatError::UnbalancedParens { at: position }),
            TokenKind::LParen => {
                // A parenthesis bomb must become a typed error, not a stack
                // overflow: the reader recurses per nesting level.
                if depth >= crate::MAX_NESTING {
                    return Err(FormatError::TooDeep {
                        at: position,
                        limit: crate::MAX_NESTING,
                    });
                }
                let mut items = Vec::new();
                loop {
                    match self.peek() {
                        Some(t) if t.kind == TokenKind::RParen => {
                            span = span.to(t.span);
                            self.index += 1;
                            break;
                        }
                        Some(_) => items.push(self.read_expr(depth + 1)?),
                        None => return Err(FormatError::UnbalancedParens { at: position }),
                    }
                }
                SExprKind::List(items)
            }
        };
        Ok(SExpr {
            position,
            span,
            kind,
        })
    }
}

// ---------------------------------------------------------------------
// Parser: the tree walked into a document.
// ---------------------------------------------------------------------

/// Parses a document without running the structural validator.
///
/// Useful for tools that operate on partial documents (e.g. a constraint
/// filter inspecting a document whose media channels the local device cannot
/// support).
pub fn parse_document_unvalidated(source: &str) -> Result<Document> {
    let expr = read_one(source)?;
    let (tag, body) = expr
        .as_tagged()
        .ok_or_else(|| expr.malformed("document", "expected a (cmif ...) expression"))?;
    if tag != "cmif" {
        return Err(expr.malformed("document", format!("expected tag `cmif`, found `{tag}`")));
    }

    let mut doc = Document::new();
    let mut sources = SourceMap::new(source);
    let mut root_expr = None;
    for section in body {
        let (section_tag, items) = section
            .as_tagged()
            .ok_or_else(|| section.malformed("section", "expected a tagged list"))?;
        match section_tag {
            "meta" => parse_meta(&mut doc, items)?,
            "channels" => parse_channels(&mut doc, items)?,
            "styles" => parse_styles(&mut doc, items)?,
            "descriptors" => parse_descriptors(&mut doc, items)?,
            "seq" | "par" | "ext" | "imm" => {
                if root_expr.is_some() {
                    return Err(section.malformed("document", "multiple root nodes"));
                }
                root_expr = Some(section);
            }
            other => return Err(section.malformed("section", format!("unknown section `{other}`"))),
        }
    }

    let root_expr = root_expr.ok_or(FormatError::UnexpectedEof)?;
    parse_node(&mut doc, &mut sources, None, root_expr)?;
    doc.sources = Some(std::sync::Arc::new(sources));
    Ok(doc)
}

fn parse_meta(doc: &mut Document, items: &[SExpr]) -> Result<()> {
    for item in items {
        let list = item
            .as_list()
            .ok_or_else(|| item.malformed("meta entry", "expected a (key value) pair"))?;
        if list.len() != 2 {
            return Err(item.malformed("meta entry", "expected exactly a key and a value"));
        }
        let key = list[0]
            .as_text()
            .ok_or_else(|| item.malformed("meta entry", "key must be an identifier"))?;
        doc.meta.insert(key.to_string(), expr_to_value(&list[1]));
    }
    Ok(())
}

fn parse_channels(doc: &mut Document, items: &[SExpr]) -> Result<()> {
    for item in items {
        let (tag, body) = item
            .as_tagged()
            .ok_or_else(|| item.malformed("channel", "expected (channel name medium ...)"))?;
        if tag != "channel" || body.len() < 2 {
            return Err(item.malformed("channel", "expected (channel name medium ...)"));
        }
        let name = body[0]
            .as_text()
            .ok_or_else(|| item.malformed("channel", "channel name must be text"))?;
        let medium_text = body[1]
            .as_text()
            .ok_or_else(|| item.malformed("channel", "channel medium must be an identifier"))?;
        let medium = MediaKind::parse(medium_text)
            .ok_or_else(|| item.malformed("channel", format!("unknown medium `{medium_text}`")))?;
        let mut def = ChannelDef::new(name, medium);
        for extra in &body[2..] {
            let pair = extra
                .as_list()
                .ok_or_else(|| extra.malformed("channel", "extras must be (key value) pairs"))?;
            if pair.len() != 2 {
                return Err(extra.malformed("channel", "extras must be (key value) pairs"));
            }
            let key = pair[0]
                .as_text()
                .ok_or_else(|| extra.malformed("channel", "extra key must be an identifier"))?;
            def = def.with_extra(Symbol::intern(key), expr_to_value(&pair[1]));
        }
        doc.channels.define(def)?;
    }
    Ok(())
}

fn parse_styles(doc: &mut Document, items: &[SExpr]) -> Result<()> {
    for item in items {
        let (tag, body) = item
            .as_tagged()
            .ok_or_else(|| item.malformed("style", "expected (style name ...)"))?;
        if tag != "style" || body.is_empty() {
            return Err(item.malformed("style", "expected (style name ...)"));
        }
        let name = body[0]
            .as_text()
            .ok_or_else(|| item.malformed("style", "style name must be text"))?;
        let mut def = StyleDef::new(name);
        for part in &body[1..] {
            let (part_tag, part_body) = part
                .as_tagged()
                .ok_or_else(|| part.malformed("style", "expected (parents ...) or (attrs ...)"))?;
            match part_tag {
                "parents" => {
                    for parent in part_body {
                        let parent_name = parent.as_text().ok_or_else(|| {
                            parent.malformed("style", "parent names must be identifiers")
                        })?;
                        def = def.with_parent(parent_name);
                    }
                }
                "attrs" => {
                    for attr_expr in part_body {
                        let pair = attr_expr.as_list().ok_or_else(|| {
                            attr_expr.malformed("style", "attrs must be (name value) pairs")
                        })?;
                        if pair.is_empty() {
                            return Err(
                                attr_expr.malformed("style", "attrs must be (name value) pairs")
                            );
                        }
                        let attr_name = pair[0].as_text().ok_or_else(|| {
                            attr_expr.malformed("style", "attribute name must be an identifier")
                        })?;
                        let value = tail_to_value(&pair[1..]);
                        def = def.with_attr(Attr::new(AttrName::parse(attr_name), value));
                    }
                }
                other => {
                    return Err(part.malformed("style", format!("unknown style part `{other}`")))
                }
            }
        }
        doc.styles.define(def)?;
    }
    Ok(())
}

fn parse_descriptors(doc: &mut Document, items: &[SExpr]) -> Result<()> {
    for item in items {
        let (tag, body) = item.as_tagged().ok_or_else(|| {
            item.malformed("descriptor", "expected (descriptor key medium format ...)")
        })?;
        if tag != "descriptor" || body.len() < 3 {
            return Err(item.malformed("descriptor", "expected (descriptor key medium format ...)"));
        }
        let key = body[0]
            .as_text()
            .ok_or_else(|| item.malformed("descriptor", "descriptor key must be text"))?;
        let medium_text = body[1]
            .as_text()
            .ok_or_else(|| item.malformed("descriptor", "medium must be an identifier"))?;
        let medium = MediaKind::parse(medium_text).ok_or_else(|| {
            item.malformed("descriptor", format!("unknown medium `{medium_text}`"))
        })?;
        let format = body[2]
            .as_text()
            .ok_or_else(|| item.malformed("descriptor", "format must be text"))?;
        let mut descriptor = DataDescriptor::new(key, medium, format);
        let mut rates = RateInfo::NONE;
        let mut resources = ResourceNeeds::default();
        for field in &body[3..] {
            let (field_tag, field_body) = field
                .as_tagged()
                .ok_or_else(|| field.malformed("descriptor", "fields must be tagged lists"))?;
            match field_tag {
                "size" => descriptor.size_bytes = number_as(field, field_body, 0)?,
                "duration" => {
                    descriptor.duration =
                        Some(TimeMs::from_millis(number_at(field, field_body, 0)?))
                }
                "resolution" => {
                    descriptor.resolution = Some((
                        number_as(field, field_body, 0)?,
                        number_as(field, field_body, 1)?,
                    ))
                }
                "color_depth" => descriptor.color_depth = Some(number_as(field, field_body, 0)?),
                "fps" => {
                    let value = field_body
                        .first()
                        .and_then(|e| match e.kind {
                            SExprKind::Real(x) => Some(x),
                            SExprKind::Number(n) => Some(n as f64),
                            _ => None,
                        })
                        .ok_or_else(|| field.malformed("descriptor", "fps needs a number"))?;
                    rates.frames_per_second = Some(value);
                }
                "sample_rate" => rates.samples_per_second = Some(number_as(field, field_body, 0)?),
                "byte_rate" => rates.bytes_per_second = Some(number_as(field, field_body, 0)?),
                "resources" => {
                    resources = ResourceNeeds {
                        bandwidth_bps: number_as(field, field_body, 0)?,
                        decode_cost: number_as(field, field_body, 1)?,
                        memory_bytes: number_as(field, field_body, 2)?,
                    }
                }
                "location" => {
                    let text = field_body
                        .first()
                        .and_then(SExpr::as_text)
                        .ok_or_else(|| field.malformed("descriptor", "location needs text"))?;
                    descriptor.location = Some(text.to_string());
                }
                "extra" => {
                    for pair_expr in field_body {
                        let pair = pair_expr.as_list().ok_or_else(|| {
                            pair_expr.malformed("descriptor", "extra must be (key value) pairs")
                        })?;
                        if pair.len() != 2 {
                            return Err(pair_expr
                                .malformed("descriptor", "extra must be (key value) pairs"));
                        }
                        let extra_key = pair[0].as_text().ok_or_else(|| {
                            pair_expr.malformed("descriptor", "extra key must be an identifier")
                        })?;
                        descriptor
                            .extra
                            .insert(Symbol::intern(extra_key), expr_to_value(&pair[1]));
                    }
                }
                other => {
                    return Err(field.malformed("descriptor", format!("unknown field `{other}`")))
                }
            }
        }
        descriptor.rates = rates;
        descriptor.resources = resources;
        doc.catalog.register(descriptor)?;
    }
    Ok(())
}

fn parse_node(
    doc: &mut Document,
    sources: &mut SourceMap,
    parent: Option<NodeId>,
    expr: &SExpr,
) -> Result<NodeId> {
    let (tag, body) = expr
        .as_tagged()
        .ok_or_else(|| expr.malformed("node", "expected a (seq|par|ext|imm ...) list"))?;

    // Immediate nodes need their payload before the node can be allocated,
    // so scan for it first.
    let kind = match tag {
        "seq" => NodeKind::Seq,
        "par" => NodeKind::Par,
        "ext" => NodeKind::Ext,
        "imm" => {
            let mut data = cmif_core::node::ImmediateData::Text(String::new());
            for item in body {
                if let Some((item_tag, item_body)) = item.as_tagged() {
                    match item_tag {
                        "data" => {
                            let text = item_body
                                .first()
                                .and_then(SExpr::as_text)
                                .ok_or_else(|| item.malformed("imm node", "data needs text"))?;
                            data = cmif_core::node::ImmediateData::Text(text.to_string());
                        }
                        "bindata" => {
                            let text =
                                item_body.first().and_then(SExpr::as_text).ok_or_else(|| {
                                    item.malformed("imm node", "bindata needs a hex string")
                                })?;
                            let bytes = hex_decode(text).ok_or_else(|| {
                                item.malformed("imm node", "bindata is not valid hex")
                            })?;
                            data = cmif_core::node::ImmediateData::Binary(bytes);
                        }
                        _ => {}
                    }
                }
            }
            NodeKind::Imm(data)
        }
        other => return Err(expr.malformed("node", format!("unknown node kind `{other}`"))),
    };

    let id = match parent {
        Some(parent) => doc.add_child(parent, kind)?,
        None => doc.set_root(kind),
    };
    sources.set_node(id, expr.span);

    for item in body {
        let (item_tag, item_body) = item
            .as_tagged()
            .ok_or_else(|| item.malformed("node item", "expected a tagged list"))?;
        match item_tag {
            "seq" | "par" | "ext" | "imm" => {
                parse_node(doc, sources, Some(id), item)?;
            }
            "data" | "bindata" => {
                // Already handled while determining the node kind.
            }
            "sync_arc" => {
                let arc = parse_arc(item, item_body)?;
                doc.add_arc(id, arc)?;
                // Aligned with `doc.arcs()` order: one push per added arc.
                sources.push_arc(item.span);
            }
            attr_name => {
                let value = tail_to_value(item_body);
                doc.set_attr(id, AttrName::parse(attr_name), value)?;
            }
        }
    }
    Ok(id)
}

fn parse_arc(expr: &SExpr, body: &[SExpr]) -> Result<SyncArc> {
    if body.len() != 9 {
        return Err(expr.malformed(
            "sync_arc",
            "expected anchor strictness source-anchor source offset unit destination min max",
        ));
    }
    let anchor_text = body[0]
        .as_text()
        .ok_or_else(|| expr.malformed("sync_arc", "anchor must be begin or end"))?;
    let anchor = Anchor::parse(anchor_text)
        .ok_or_else(|| expr.malformed("sync_arc", format!("unknown anchor `{anchor_text}`")))?;
    let strict_text = body[1]
        .as_text()
        .ok_or_else(|| expr.malformed("sync_arc", "strictness must be must or may"))?;
    let strictness = Strictness::parse(strict_text)
        .ok_or_else(|| expr.malformed("sync_arc", format!("unknown strictness `{strict_text}`")))?;
    let source_anchor_text = body[2]
        .as_text()
        .ok_or_else(|| expr.malformed("sync_arc", "source anchor must be begin or end"))?;
    let source_anchor = Anchor::parse(source_anchor_text).ok_or_else(|| {
        expr.malformed("sync_arc", format!("unknown anchor `{source_anchor_text}`"))
    })?;
    let source = body[3]
        .as_text()
        .ok_or_else(|| expr.malformed("sync_arc", "source must be a path"))?;
    let offset_value = body[4]
        .as_number()
        .ok_or_else(|| expr.malformed("sync_arc", "offset must be a number"))?;
    let unit_text = body[5]
        .as_text()
        .ok_or_else(|| expr.malformed("sync_arc", "offset unit must be an identifier"))?;
    let unit = parse_unit(unit_text)
        .ok_or_else(|| expr.malformed("sync_arc", format!("unknown unit `{unit_text}`")))?;
    let destination = body[6]
        .as_text()
        .ok_or_else(|| expr.malformed("sync_arc", "destination must be a path"))?;
    let min_delay = body[7]
        .as_number()
        .ok_or_else(|| expr.malformed("sync_arc", "min delay must be a number"))?;
    let max_delay = match (&body[8].kind, body[8].as_number()) {
        (SExprKind::Ident(word), _) if *word == "inf" => MaxDelay::Unbounded,
        (_, Some(ms)) => MaxDelay::Bounded(DelayMs::from_millis(ms)),
        _ => return Err(expr.malformed("sync_arc", "max delay must be a number or `inf`")),
    };
    Ok(SyncArc {
        anchor,
        strictness,
        source_anchor,
        source: NodePath::parse(source),
        offset: MediaTime {
            value: offset_value,
            unit,
        },
        destination: NodePath::parse(destination),
        min_delay: DelayMs::from_millis(min_delay),
        max_delay,
    })
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

fn number_at(expr: &SExpr, body: &[SExpr], index: usize) -> Result<i64> {
    body.get(index)
        .and_then(SExpr::as_number)
        .ok_or_else(|| expr.malformed("descriptor", "expected a numeric field"))
}

/// Like [`number_at`], refusing a value `T` cannot hold.
fn number_as<T: TryFrom<i64>>(expr: &SExpr, body: &[SExpr], index: usize) -> Result<T> {
    let n = number_at(expr, body, index)?;
    T::try_from(n).map_err(|_| {
        body[index].malformed(
            "descriptor",
            format!("{n} does not fit in {}", type_name::<T>()),
        )
    })
}

/// Converts a single expression into an attribute value. Identifiers and
/// references intern straight from the borrowed source text — no
/// intermediate `String` per token.
fn expr_to_value(expr: &SExpr) -> AttrValue {
    match &expr.kind {
        SExprKind::Ident(s) => AttrValue::Id(Symbol::intern(s)),
        SExprKind::Number(n) => AttrValue::Number(*n),
        SExprKind::Real(x) => AttrValue::Real(*x),
        SExprKind::Str(s) => AttrValue::Str(s.clone().into_owned()),
        SExprKind::Ref(s) => AttrValue::Ref(Symbol::intern(s)),
        SExprKind::List(items) => AttrValue::List(items.iter().map(expr_to_value).collect()),
    }
}

/// Converts an attribute tail (everything after the name) into a value:
/// a single expression stays scalar, several become a list.
fn tail_to_value(tail: &[SExpr]) -> AttrValue {
    match tail.len() {
        0 => AttrValue::List(Vec::new()),
        1 => expr_to_value(&tail[0]),
        _ => AttrValue::List(tail.iter().map(expr_to_value).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_nested_lists() {
        let expr = read_one("(seq (name news) (par (name story)))").unwrap();
        let (tag, rest) = expr.as_tagged().unwrap();
        assert_eq!(tag, "seq");
        assert_eq!(rest.len(), 2);
        let (tag, _) = rest[1].as_tagged().unwrap();
        assert_eq!(tag, "par");
    }

    #[test]
    fn reads_atoms() {
        let exprs = read_all("news 42 3.5 \"hi\" &other").unwrap();
        assert_eq!(exprs.len(), 5);
        assert_eq!(exprs[0].as_ident(), Some("news"));
        assert_eq!(exprs[1].as_number(), Some(42));
        assert!(matches!(exprs[2].kind, SExprKind::Real(x) if (x - 3.5).abs() < 1e-9));
        assert_eq!(exprs[3].as_text(), Some("hi"));
        assert!(matches!(exprs[4].kind, SExprKind::Ref(s) if s == "other"));
    }

    #[test]
    fn atoms_borrow_from_the_source() {
        let source = "(atom \"plain\")".to_string();
        let range = source.as_ptr() as usize..source.as_ptr() as usize + source.len();
        let expr = read_one(&source).unwrap();
        let items = expr.as_list().unwrap();
        let ident = items[0].as_ident().unwrap();
        assert!(range.contains(&(ident.as_ptr() as usize)), "ident copied");
        match &items[1].kind {
            SExprKind::Str(std::borrow::Cow::Borrowed(text)) => {
                assert!(range.contains(&(text.as_ptr() as usize)), "string copied");
            }
            other => panic!("unexpected expression {other:?}"),
        }
    }

    #[test]
    fn rejects_unbalanced_parens() {
        assert!(matches!(
            read_one("(a (b)").unwrap_err(),
            FormatError::UnbalancedParens { .. }
        ));
        assert!(matches!(
            read_one(")").unwrap_err(),
            FormatError::UnbalancedParens { .. }
        ));
    }

    #[test]
    fn rejects_depth_bombs_with_a_typed_error() {
        // One level under the limit still parses...
        let deep = format!(
            "{}a{}",
            "(".repeat(crate::MAX_NESTING),
            ")".repeat(crate::MAX_NESTING)
        );
        assert!(read_one(&deep).is_ok());
        // ...one over stops with TooDeep, not a stack overflow.
        let bomb = format!("{}a{}", "(".repeat(100_000), ")".repeat(100_000));
        match read_one(&bomb).unwrap_err() {
            FormatError::TooDeep { limit, at } => {
                assert_eq!(limit, crate::MAX_NESTING);
                assert_eq!(at.offset, crate::MAX_NESTING);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_content() {
        assert!(matches!(
            read_one("(a) (b)").unwrap_err(),
            FormatError::TrailingContent { .. }
        ));
    }

    #[test]
    fn rejects_empty_input_for_read_one() {
        assert!(matches!(
            read_one("").unwrap_err(),
            FormatError::UnexpectedEof
        ));
    }

    #[test]
    fn as_tagged_requires_leading_ident() {
        let expr = read_one("(42 a)").unwrap();
        assert!(expr.as_tagged().is_none());
        let expr = read_one("()").unwrap();
        assert!(expr.as_tagged().is_none());
        assert_eq!(expr.as_list().unwrap().len(), 0);
    }

    #[test]
    fn list_spans_run_paren_to_paren() {
        let source = "(a (b\n  c) d)";
        let expr = read_one(source).unwrap();
        assert_eq!(expr.span.text(source), Some(source));
        let items = expr.as_list().unwrap();
        assert_eq!(items[1].span.text(source), Some("(b\n  c)"));
        assert!(items[1].span.is_multiline());
        assert_eq!(items[2].span.text(source), Some("d"));
    }

    #[test]
    fn malformed_error_carries_position() {
        let expr = read_one("\n  (oops)").unwrap();
        let err = expr.malformed("node", "bad");
        match err {
            FormatError::Malformed { at, .. } => assert_eq!(at, Position::new(2, 3, 3)),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
