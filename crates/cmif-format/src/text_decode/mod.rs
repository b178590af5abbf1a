//! Differential suite: the one-pass text decoder against the three-stage
//! decoder it replaced, kept in [`reference`].
//!
//! Every input goes through both decoders and both lexers, which must
//! agree:
//!
//! * the lexers produce identical tokens and spans, or the identical error;
//! * the decoders accept or reject the same inputs;
//! * on accept, the documents are equal, `write_document` gives identical
//!   bytes and the source maps record identical node and arc spans;
//! * on reject, a position the error carries lies inside the input, with
//!   the line and column of its byte offset, and the errors are identical
//!   — with one allowance. An input with two defects of meaning may have
//!   them met in a different order by each decoder, so two errors of
//!   meaning anchored at different places (or nowhere) may differ. Lexer
//!   and structural errors rank first in both decoders and never differ.
//!
//! The inputs are the documents the benchmark serves — every synthetic
//! broadcast shape, the Evening News — plus the parser's unit-test sources,
//! each also with its root section moved first, and seeded mutations of
//! their canonical text.

mod reference;

// The module is compiled only for tests; the block marks the suite as test
// code within this file too.
#[cfg(test)]
mod tests {
    use super::reference;
    use cmif::news::evening_news;
    use cmif::synthetic::SyntheticNews;
    use cmif_core::node::{ImmediateData, NodeId, NodeKind};
    use cmif_core::tree::Document;
    use cmif_core::value::AttrValue;

    use crate::error::{FormatError, Position, Result, Span};
    use crate::lexer::{tokenize, TokenKind};
    use crate::parser::parse_document_unvalidated;
    use crate::writer::write_document;
    use crate::MAX_NESTING;

    /// The seed every mutation stream in the suite derives from.
    const SEED: u64 = 0x0c1f_5eed;

    /// A splitmix64 stream.
    struct Rng(u64);

    impl Rng {
        fn new(stream: u64) -> Rng {
            Rng(SEED ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        }

        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// A number in `0..n`.
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    // ---------------------------------------------------------------------
    // The check
    // ---------------------------------------------------------------------

    /// Runs both lexers and both decoders on `source`, checks that they agree,
    /// and returns whether the input decoded.
    fn agree(label: &str, source: &str) -> bool {
        assert_eq!(
            tokenize(source),
            reference::tokenize(source),
            "{label}: the lexers disagree"
        );
        let one_pass = parse_document_unvalidated(source);
        let three_stage = reference::parse_document_unvalidated(source);
        match (&one_pass, &three_stage) {
            (Ok(doc), Ok(expected)) => {
                assert_eq!(
                    write_document(doc),
                    write_document(expected),
                    "{label}: the canonical texts differ"
                );
                assert_eq!(spans(doc), spans(expected), "{label}: the spans differ");
                assert!(doc == expected, "{label}: the documents differ");
                true
            }
            (Err(error), Err(expected)) => {
                for e in [error, expected] {
                    if let Some(at) = e.position() {
                        assert_eq!(
                            Some(at),
                            position_at(source, at.offset),
                            "{label}: `{e}` does not point into the input"
                        );
                    }
                }
                // Two defects of meaning sit at two places; the decoders
                // may meet them in a different order, but never report
                // different errors for the same place.
                let two_defects = !ranks_first(error)
                    && !ranks_first(expected)
                    && (error.position().is_none() || error.position() != expected.position());
                if !two_defects {
                    assert_eq!(error, expected, "{label}: the errors differ");
                }
                false
            }
            _ => panic!(
                "{label}: the one-pass decoder {}, the reference {}",
                verdict(&one_pass),
                verdict(&three_stage)
            ),
        }
    }

    fn verdict(outcome: &Result<Document>) -> String {
        match outcome {
            Ok(_) => "accepts".to_string(),
            Err(e) => format!("rejects with `{e}`"),
        }
    }

    /// Lexer and structural errors: both decoders report the first of these in
    /// the input before any error of meaning.
    fn ranks_first(error: &FormatError) -> bool {
        matches!(
            error,
            FormatError::UnexpectedChar { .. }
                | FormatError::UnterminatedString { .. }
                | FormatError::BadNumber { .. }
                | FormatError::UnbalancedParens { .. }
                | FormatError::TooDeep { .. }
                | FormatError::TrailingContent { .. }
        )
    }

    /// Every node and arc span the document's source map records.
    fn spans(doc: &Document) -> (Vec<Option<Span>>, Vec<Option<Span>>) {
        let sources = doc
            .sources
            .as_deref()
            .expect("parsed documents carry sources");
        let nodes = (0..doc.node_count() as u32)
            .map(|index| sources.node_span(NodeId::from_index(index)))
            .collect();
        let arcs = (0..doc.arcs().len())
            .map(|index| sources.arc_span(index))
            .collect();
        (nodes, arcs)
    }

    /// The position of byte `offset` of `source`, when it is a char boundary
    /// inside the input.
    fn position_at(source: &str, offset: usize) -> Option<Position> {
        if offset >= source.len() || !source.is_char_boundary(offset) {
            return None;
        }
        let before = &source[..offset];
        let line_start = before.rfind('\n').map_or(0, |newline| newline + 1);
        let line = 1 + before.matches('\n').count();
        let column = 1 + before[line_start..].chars().count();
        Some(Position::new(line as u32, column as u32, offset))
    }

    // ---------------------------------------------------------------------
    // The inputs
    // ---------------------------------------------------------------------

    /// The sources of the parser's unit tests.
    const UNIT_TEST_SOURCES: [&str; 9] = [
        r#"
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
        "#,
        r#"
            (cmif
              (channels (channel label label))
              (par (name root)
                (imm (name blob) (channel label) (duration 100)
                  (bindata "00ff10"))))
            "#,
        "(html (body))",
        "42",
        "(cmif (bogus) (seq (name x)))",
        "(cmif (loop (name x)))",
        "(cmif (seq (name a)) (seq (name b)))",
        "(cmif (channels (channel a audio)))",
        r#"
            (cmif
              (channels (channel audio audio))
              (seq (name x)
                (imm (name y) (channel audio) (duration 10)
                  (sync_arc begin must "" 0 ms "" 0 0)
                  (data "t"))))
            "#,
    ];

    /// A synthetic broadcast as the benchmark serves it: canonical text with
    /// a serial number in its meta section.
    fn broadcast(stories: usize, captions: usize, graphics: usize, arcs: bool) -> Document {
        let mut doc = SyntheticNews {
            stories,
            story_seconds: 30,
            captions_per_story: captions,
            graphics_per_story: graphics,
            explicit_arcs: arcs,
        }
        .build()
        .expect("synthetic news builds");
        doc.meta
            .insert("serial".to_string(), AttrValue::Number(stories as i64));
        doc
    }

    fn canonical(doc: &Document) -> String {
        write_document(doc).expect("the document writes")
    }

    /// The same document text with its root section moved before every other
    /// section.
    fn root_first(source: &str) -> String {
        let expr = reference::read_one(source).expect("the base document reads");
        let sections = &expr.as_list().expect("a (cmif ...) list")[1..];
        let is_root = |section: &&reference::SExpr<'_>| {
            matches!(
                section.as_tagged(),
                Some(("seq" | "par" | "ext" | "imm", _))
            )
        };
        let text = |section: &reference::SExpr<'_>| {
            section.span.text(source).expect("spans slice the source")
        };
        let mut out = String::from("(cmif\n");
        for section in sections.iter().filter(is_root) {
            out.push_str(text(section));
            out.push('\n');
        }
        for section in sections.iter().filter(|s| !is_root(s)) {
            out.push_str(text(section));
            out.push('\n');
        }
        out.push_str(")\n");
        out
    }

    /// The Evening News and the accepted unit-test sources, canonical and as
    /// written, each also with its root section first.
    fn small_bases() -> Vec<(String, String)> {
        let mut bases = vec![(
            "evening news".to_string(),
            canonical(&evening_news().expect("the news builds")),
        )];
        for (index, source) in UNIT_TEST_SOURCES.iter().enumerate() {
            if parse_document_unvalidated(source).is_ok() {
                bases.push((format!("unit source {index}"), source.to_string()));
            }
        }
        bases.push((
            "one-story broadcast".to_string(),
            canonical(&broadcast(1, 3, 1, true)),
        ));
        let reordered: Vec<(String, String)> = bases
            .iter()
            .map(|(label, text)| (format!("{label}, root first"), root_first(text)))
            .collect();
        bases.extend(reordered);
        bases
    }

    // ---------------------------------------------------------------------
    // Mutations
    // ---------------------------------------------------------------------

    /// Bytes a single-byte insertion picks from: every delimiter, the chars
    /// that start numbers and references, and some plain ones.
    const INSERTED: &[u8] = b"()\"\\;&-+.0123456789eE \n\tax";

    /// `source` with the char at `at` (a char boundary) deleted.
    fn delete_char(source: &str, at: usize) -> String {
        let len = source[at..].chars().next().map_or(0, char::len_utf8);
        format!("{}{}", &source[..at], &source[at + len..])
    }

    /// `source` with the char at `at` written twice.
    fn duplicate_char(source: &str, at: usize) -> String {
        let len = source[at..].chars().next().map_or(0, char::len_utf8);
        format!("{}{}", &source[..at + len], &source[at..])
    }

    /// A seeded char boundary of `source`.
    fn boundary(rng: &mut Rng, source: &str) -> usize {
        let mut at = rng.below(source.len());
        while !source.is_char_boundary(at) {
            at -= 1;
        }
        at
    }

    /// Checks `count` seeded single-char deletions, insertions and
    /// duplications of `source`.
    fn single_byte_mutations(label: &str, source: &str, rng: &mut Rng, count: usize) {
        for _ in 0..count {
            let at = boundary(rng, source);
            let inserted = INSERTED[rng.below(INSERTED.len())] as char;
            let (what, mutated) = match rng.below(3) {
                0 => ("deleted", delete_char(source, at)),
                1 => (
                    "inserted",
                    format!("{}{inserted}{}", &source[..at], &source[at..]),
                ),
                _ => ("duplicated", duplicate_char(source, at)),
            };
            agree(&format!("{label}, byte {at} {what}"), &mutated);
        }
    }

    /// Checks `count` seeded swaps of two adjacent tokens of `source`.
    fn token_swaps(label: &str, source: &str, rng: &mut Rng, count: usize) {
        let tokens = tokenize(source).expect("the base document lexes");
        for _ in 0..count {
            let first = rng.below(tokens.len() - 1);
            let (a, b) = (tokens[first].span, tokens[first + 1].span);
            let swapped = format!(
                "{}{}{}{}{}",
                &source[..a.start.offset],
                &source[b.start.offset..b.end.offset],
                &source[a.end.offset..b.start.offset],
                &source[a.start.offset..a.end.offset],
                &source[b.end.offset..]
            );
            agree(
                &format!("{label}, tokens {first} and {} swapped", first + 1),
                &swapped,
            );
        }
    }

    /// Checks every atom of `source` (up to `count` seeded ones) replaced by
    /// a list: each slot that takes an atom must refuse a list the same way
    /// in both decoders, and each that takes a value must read it alike.
    fn atoms_as_lists(label: &str, source: &str, rng: &mut Rng, count: usize) {
        const LISTS: [&str; 4] = ["()", "(x)", "(x (y) \"z\")", "((()))"];
        let tokens = tokenize(source).expect("the base document lexes");
        let atoms: Vec<Span> = tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokenKind::LParen | TokenKind::RParen))
            .map(|t| t.span)
            .collect();
        let picks: Vec<usize> = if atoms.len() <= count {
            (0..atoms.len()).collect()
        } else {
            (0..count).map(|_| rng.below(atoms.len())).collect()
        };
        for index in picks {
            let span = atoms[index];
            let list = LISTS[rng.below(LISTS.len())];
            let replaced = format!(
                "{}{list}{}",
                &source[..span.start.offset],
                &source[span.end.offset..]
            );
            agree(&format!("{label}, atom {index} as {list}"), &replaced);
        }
    }

    /// `source` with a comment after `count` seeded line breaks, and one more
    /// at the end without a line break.
    fn with_comments(source: &str, rng: &mut Rng, count: usize) -> String {
        let mut out = source.to_string();
        for _ in 0..count {
            let newlines: Vec<usize> = out.match_indices('\n').map(|(at, _)| at).collect();
            let at = newlines[rng.below(newlines.len())];
            out.insert_str(at + 1, "  ; a comment (with parens) \"and quotes\" é\n");
        }
        out.push_str("; the end, without a line break");
        out
    }

    /// `source` with `count` seeded plain spaces replaced by `space`.
    fn with_unicode_space(source: &str, space: char, rng: &mut Rng, count: usize) -> String {
        let mut out = source.to_string();
        for _ in 0..count {
            let spaces: Vec<usize> = out.match_indices(' ').map(|(at, _)| at).collect();
            let at = spaces[rng.below(spaces.len())];
            out.replace_range(at..at + 1, space.encode_utf8(&mut [0; 4]));
        }
        out
    }

    /// The Evening News with multi-byte chars in its node names and texts, and
    /// escapes in its strings.
    fn evening_news_respelled() -> Document {
        let mut doc = evening_news().expect("the news builds");
        let names = ["nœud-ü", "новости", "事件-🎨", "Gogh’s"];
        let texts = [
            "Gestolen van Gogh’s — ÿ 🎨",
            "quote \" backslash \\ tab \t newline \n done",
            "「ニュース」",
        ];
        for (index, id) in doc.preorder().into_iter().enumerate() {
            if index % 3 == 1 {
                let name = AttrValue::Id(names[index % names.len()].into());
                doc.set_attr(id, cmif_core::attr::AttrName::Name, name)
                    .expect("nodes take names");
            }
            let node = doc.node_mut(id).expect("preorder nodes exist");
            if let NodeKind::Imm(ImmediateData::Text(text)) = &mut node.kind {
                *text = texts[index % texts.len()].to_string();
            }
        }
        doc
    }

    /// A document whose root holds `item`, with channels for an `imm` leaf.
    fn holding(item: &str) -> String {
        format!(
            "(cmif\n  (channels (channel c text))\n  (seq (name root)\n    \
             (imm (name leaf) (channel c) (duration 1) (data \"t\"))\n    {item}))\n"
        )
    }

    /// `depth` nested lists around an atom.
    fn nested(depth: usize) -> String {
        format!("{}a{}", "(".repeat(depth), ")".repeat(depth))
    }

    // ---------------------------------------------------------------------
    // The suite
    // ---------------------------------------------------------------------

    #[test]
    fn every_broadcast_shape_decodes_identically() {
        let mut rng = Rng::new(1);
        for captions in 3..=7 {
            for graphics in 1..=4 {
                for arcs in [true, false] {
                    // Each shape at one story and at the broadcast's 32, and at
                    // a seeded count in between.
                    for stories in [1, 2 + rng.below(30), 32] {
                        let label = format!("{stories}x{captions}x{graphics} arcs={arcs}");
                        let text = canonical(&broadcast(stories, captions, graphics, arcs));
                        assert!(agree(&label, &text), "{label}: rejected");
                        let reordered = root_first(&text);
                        assert!(agree(&format!("{label}, root first"), &reordered));
                        single_byte_mutations(&label, &reordered, &mut rng, 2);
                    }
                }
            }
        }
    }

    #[test]
    fn every_story_count_decodes_identically() {
        let mut rng = Rng::new(2);
        for stories in 1..=32 {
            let captions = 3 + rng.below(5);
            let graphics = 1 + rng.below(4);
            let label = format!("{stories}x{captions}x{graphics}");
            let text = canonical(&broadcast(stories, captions, graphics, stories % 4 != 0));
            assert!(agree(&label, &text), "{label}: rejected");
        }
    }

    #[test]
    fn small_documents_decode_identically() {
        for (label, text) in small_bases() {
            assert!(agree(&label, &text), "{label}: rejected");
        }
        for (index, source) in UNIT_TEST_SOURCES.iter().enumerate() {
            agree(&format!("unit source {index}"), source);
        }
        agree("empty input", "");
        agree("only a comment", "; nothing here");
    }

    #[test]
    fn single_byte_mutations_agree() {
        let mut rng = Rng::new(3);
        for (label, text) in small_bases() {
            single_byte_mutations(&label, &text, &mut rng, 120);
        }
    }

    #[test]
    fn atoms_replaced_by_lists_agree() {
        let mut rng = Rng::new(7);
        for (label, text) in small_bases() {
            atoms_as_lists(&label, &text, &mut rng, 300);
        }
    }

    #[test]
    fn adjacent_token_swaps_agree() {
        let mut rng = Rng::new(4);
        for (label, text) in small_bases() {
            token_swaps(&label, &text, &mut rng, 80);
        }
    }

    #[test]
    fn truncation_at_every_offset_agrees() {
        let bases = small_bases();
        for (label, text) in bases
            .iter()
            .filter(|(label, _)| label.starts_with("unit source 0"))
        {
            for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
                agree(&format!("{label}, cut at {end}"), &text[..end]);
            }
        }
        let news = canonical(&broadcast(1, 3, 1, true));
        for end in 0..news.len() {
            agree(&format!("one-story broadcast, cut at {end}"), &news[..end]);
        }
    }

    #[test]
    fn line_endings_comments_and_escapes_agree() {
        let mut rng = Rng::new(5);
        let mut bases = small_bases();
        bases.push((
            "evening news respelled".to_string(),
            canonical(&evening_news_respelled()),
        ));
        for (label, text) in &bases {
            let crlf = text.replace('\n', "\r\n");
            assert!(
                agree(&format!("{label}, CRLF"), &crlf),
                "{label}: CRLF rejected"
            );
            let commented = with_comments(text, &mut rng, 12);
            assert!(
                agree(&format!("{label}, commented"), &commented),
                "{label}: comments rejected"
            );
        }
        // Escapes the writer never emits: an unknown one stands for its char,
        // and an escaped line break is a line break.
        let escaped = holding("(note \"\\q \\( \\\\ \\\"\\\n end\")");
        assert!(agree("hand-written escapes", &escaped));
        agree("a dangling escape", &holding("(note \"end\\"));
    }

    #[test]
    fn unicode_whitespace_and_multibyte_text_agree() {
        let mut rng = Rng::new(6);
        let respelled = canonical(&evening_news_respelled());
        assert!(agree("evening news respelled", &respelled));
        assert!(agree("respelled, root first", &root_first(&respelled)));
        single_byte_mutations("evening news respelled", &respelled, &mut rng, 120);
        token_swaps("evening news respelled", &respelled, &mut rng, 40);
        for (label, text) in small_bases()
            .iter()
            .chain([("respelled".to_string(), respelled)].iter())
        {
            for space in ['\u{a0}', '\u{2028}', '\u{85}', '\u{3000}'] {
                let spaced = with_unicode_space(text, space, &mut rng, 20);
                let label = format!("{label}, U+{:04X} spaces", space as u32);
                assert!(agree(&label, &spaced), "{label}: rejected");
            }
        }
    }

    #[test]
    fn nesting_limits_agree_in_ignored_items_and_values() {
        // List depths count from the document list at 0, so in `holding` an
        // item of the root is at depth 2 and its first nested list at 3. The
        // deepest list allowed sits at MAX_NESTING - 1.
        let fits = MAX_NESTING - 3;
        let cases = [
            ("an attribute value", "(deep {})"),
            ("an ignored data item", "(data {})"),
            (
                "an ignored extra item of an imm",
                "(imm (name x) (channel c) (duration 1) (data \"t\" {}))",
            ),
        ];
        for (what, template) in cases {
            // The imm case nests one level deeper.
            let fits = if what.contains("imm") { fits - 1 } else { fits };
            let at_limit = holding(&template.replace("{}", &nested(fits)));
            assert!(
                agree(&format!("{what} at the limit"), &at_limit),
                "{what}: rejected at the limit"
            );
            let past = holding(&template.replace("{}", &nested(fits + 1)));
            assert!(!agree(&format!("{what} past the limit"), &past));
            assert!(matches!(
                parse_document_unvalidated(&past),
                Err(FormatError::TooDeep {
                    limit: MAX_NESTING,
                    ..
                })
            ));
        }
        // A parenthesis bomb ends in TooDeep, not a stack overflow, in both.
        let bomb = nested(100_000);
        assert!(!agree("a parenthesis bomb", &bomb));
        assert!(matches!(
            parse_document_unvalidated(&bomb),
            Err(FormatError::TooDeep { .. })
        ));
    }

    #[test]
    fn numeric_edge_literals_agree() {
        let arc = |offset: &str, min: &str, max: &str| {
            holding(&format!(
                "(seq (name s) (sync_arc begin must begin \"../leaf\" {offset} ms \"\" {min} {max}))"
            ))
        };
        let descriptor = |field: &str| {
            format!(
                "(cmif (channels (channel c text)) (descriptors (descriptor d text plain {field})) \
                 (seq (name root) (imm (name leaf) (channel c) (duration 1) (data \"t\"))))"
            )
        };
        let inputs = [
            arc("0", "0", "250"),
            arc("1e300", "0", "250"),
            arc("99999999999999999999", "0", "250"),
            arc("9223372036854775807", "0", "inf"),
            arc("0", "-1e300", "250"),
            arc("0", "0", "1e300"),
            arc("0", "-0.0", "2.0"),
            arc("0", "0", "2.5"),
            arc("1e999", "0", "250"),
            arc("0", "-inf", "250"),
            arc("0", "0", "-nan"),
            descriptor("(size -1)"),
            descriptor("(size 18446744073709551615)"),
            descriptor("(color_depth 300)"),
            descriptor("(color_depth 255)"),
            descriptor("(resolution 4294967301 2)"),
            descriptor("(resolution 640 -480)"),
            descriptor("(sample_rate -8000)"),
            descriptor("(byte_rate -1)"),
            descriptor("(resources 1 4294967296 1)"),
            descriptor("(resources 1 2 3 4)"),
            descriptor("(duration 1e300)"),
            descriptor("(fps -inf)"),
        ];
        for (index, input) in inputs.iter().enumerate() {
            agree(&format!("numeric input {index}"), input);
        }
    }

    #[test]
    fn two_defects_of_meaning_may_be_reported_in_a_different_order() {
        // The three-stage decoder read every other section before the root;
        // the one-pass decoder meets this root first. Both reject.
        let source = "(cmif (seq (name x) oops) (channels (bogus)))";
        assert!(!agree("two defects of meaning", source));
        assert!(matches!(
            parse_document_unvalidated(source),
            Err(FormatError::Malformed {
                context: "node item",
                ..
            })
        ));
        assert!(matches!(
            reference::parse_document_unvalidated(source),
            Err(FormatError::Malformed {
                context: "channel",
                ..
            })
        ));
    }
}
