//! Hardening tests for the wire decoders: hostile, truncated and corrupted
//! inputs must always surface as a typed [`FormatError`] — never a panic,
//! never a stack overflow, never an allocation unbounded by input length.
//!
//! The unit tests inside `cmif-format` cover each decoder mechanism; this
//! suite attacks the public wire entry points ([`read_document_bytes`],
//! [`Document::from_read`]) the way a transport peer would.

use cmif::core::tree::Document;
use cmif::format::{document_to_bytes, read_document_bytes, FormatError, WireEncoding, WireFormat};
use cmif::news::evening_news;
use cmif::synthetic::SyntheticNews;
use proptest::prelude::*;

fn wire_corpus() -> Vec<Vec<u8>> {
    let news = evening_news().unwrap();
    let synthetic = SyntheticNews::with_stories(3).build().unwrap();
    vec![
        document_to_bytes(&news, WireEncoding::Binary).unwrap(),
        document_to_bytes(&news, WireEncoding::Text).unwrap(),
        document_to_bytes(&synthetic, WireEncoding::Binary).unwrap(),
        document_to_bytes(&synthetic, WireEncoding::Text).unwrap(),
    ]
}

#[test]
fn truncation_at_every_byte_offset_is_a_typed_error() {
    for bytes in wire_corpus() {
        let binary = WireEncoding::detect(&bytes) == WireEncoding::Binary;
        for end in 0..bytes.len() {
            match read_document_bytes(&bytes[..end]) {
                // The checksummed binary frame rejects *every* strict
                // prefix, and (past the magic) says where it gave up.
                Err(err) => {
                    if binary && end >= 4 {
                        assert!(
                            err.span().is_some() || err.position().is_some(),
                            "truncation at {end} lost its location: {err}"
                        );
                    }
                }
                // Text has no frame: a prefix that only lost trailing
                // whitespace can still be a complete document. The binary
                // form must never accept one.
                Ok(_) => assert!(
                    !binary,
                    "a strict prefix of a binary document decoded (cut at {end})"
                ),
            }
        }
    }
}

#[test]
fn single_byte_corruption_of_binary_documents_is_always_detected() {
    let doc = evening_news().unwrap();
    let bytes = document_to_bytes(&doc, WireEncoding::Binary).unwrap();
    for i in 0..bytes.len() {
        let mut hostile = bytes.clone();
        hostile[i] ^= 0xFF;
        assert!(
            read_document_bytes(&hostile).is_err(),
            "flipping byte {i} went unnoticed"
        );
    }
}

#[test]
fn depth_bombs_in_either_form_are_rejected_with_too_deep() {
    // Text: a 100k-deep parenthesis bomb.
    let bomb = format!("{}a{}", "(".repeat(100_000), ")".repeat(100_000));
    assert!(matches!(
        read_document_bytes(bomb.as_bytes()).unwrap_err(),
        FormatError::TooDeep { .. }
    ));
    // The same nesting arriving through the io::Read entry point.
    assert!(Document::from_read(&mut bomb.as_bytes()).is_err());
}

#[test]
fn huge_declared_lengths_fail_before_allocating() {
    // A syntactically plausible binary header whose payload length claims
    // 4 GiB: the decoder must refuse from the *actual* byte count, not
    // trust the declaration and allocate.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&[0xC3, b'M', b'I', b'F']);
    hostile.extend_from_slice(&1u16.to_le_bytes()); // version
    hostile.extend_from_slice(&0u16.to_le_bytes()); // flags
    hostile.extend_from_slice(&u32::MAX.to_le_bytes()); // payload length
    hostile.extend_from_slice(&0u32.to_le_bytes()); // checksum
    hostile.extend_from_slice(&[0u8; 64]); // far less than declared
    let err = read_document_bytes(&hostile).unwrap_err();
    assert!(err.span().is_some() || err.position().is_some());
}

#[test]
fn bad_versions_flags_and_trailing_bytes_are_rejected() {
    let doc = evening_news().unwrap();
    let good = document_to_bytes(&doc, WireEncoding::Binary).unwrap();

    let mut wrong_version = good.clone();
    wrong_version[4] = 0xFF;
    wrong_version[5] = 0x7F;
    assert!(matches!(
        read_document_bytes(&wrong_version).unwrap_err(),
        FormatError::UnsupportedVersion { .. }
    ));

    let mut reserved_flags = good.clone();
    reserved_flags[6] = 0x01;
    assert!(read_document_bytes(&reserved_flags).is_err());

    let mut trailing = good.clone();
    trailing.push(0x00);
    assert!(read_document_bytes(&trailing).is_err());
}

#[test]
fn decoded_hostile_documents_never_bypass_validation() {
    // The binary decoder validates like the text parser does: a decoded
    // document is presentable or the decode fails. Round-tripping a valid
    // document must therefore still validate.
    let doc = evening_news().unwrap();
    let bytes = document_to_bytes(&doc, WireEncoding::Binary).unwrap();
    let (decoded, _) = read_document_bytes(&bytes).unwrap();
    assert!(cmif::core::validate::validate(&decoded).is_ok());
}

/// Canonical text of a root `seq` with `children` caption leaves, where
/// `name_of` names each child.
fn wide_document(children: usize, name_of: impl Fn(usize) -> usize) -> String {
    let mut text = String::from(
        "(cmif\n  (channels (channel caption text))\n  (seq (name wide) (channel caption)\n",
    );
    for child in 0..children {
        let name = name_of(child);
        text.push_str(&format!(
            "    (imm (name c{name}) (duration 10) (data \"x\"))\n"
        ));
    }
    text.push_str("))\n");
    text
}

#[test]
fn a_very_wide_document_decodes_and_lints_in_linear_time() {
    // Sibling names used to be checked against every earlier sibling, at
    // decode and again in lint: a hostile peer could send one wide `seq`
    // and spend minutes of server time per request. 65 536 children must
    // now take seconds even unoptimised.
    const CHILDREN: usize = 65_536;
    let started = std::time::Instant::now();
    let unique = wide_document(CHILDREN, |child| child);
    let (doc, _) = read_document_bytes(unique.as_bytes()).unwrap();
    assert_eq!(doc.node_count(), CHILDREN + 1);
    let report = cmif::lint::Linter::new().check(&doc);
    let codes: Vec<&str> = report
        .diagnostics()
        .iter()
        .map(|d| d.code.as_str())
        .collect();
    // One node over the default limit, and nothing else.
    assert_eq!(codes, ["L205"], "{}", report.render(None));

    // Every 4 096th child repeats the first one's name: decoding refuses
    // the document, and lint reports each repeat once, in child order.
    let repeating = wide_document(CHILDREN, |child| if child % 4_096 == 0 { 0 } else { child });
    assert!(read_document_bytes(repeating.as_bytes()).is_err());
    let doc = cmif::format::parse_document_unvalidated(&repeating).unwrap();
    let report = cmif::lint::Linter::new().check(&doc);
    let repeats: Vec<usize> = report
        .diagnostics()
        .iter()
        .filter(|d| d.code.as_str() == "L002")
        .map(|d| d.span.expect("parsed nodes carry spans").start.offset)
        .collect();
    assert_eq!(repeats.len(), CHILDREN / 4_096 - 1, "{repeats:?}");
    assert!(
        repeats.windows(2).all(|pair| pair[0] < pair[1]),
        "{repeats:?}"
    );

    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(60),
        "two decodes and two lints of {CHILDREN} siblings took {elapsed:?}"
    );
}

/// Canonical text of a root `seq` of `leaves` caption leaves, each styled
/// `style`, under the style definitions `styles` (one per line).
fn styled_document(styles: &str, leaves: usize, style: &str) -> String {
    let mut text = format!(
        "(cmif\n  (channels (channel caption text))\n  (styles\n{styles}  )\n  (seq (name root)\n"
    );
    for leaf in 0..leaves {
        text.push_str(&format!(
            "    (imm (name l{leaf}) (style {style}) (duration 10) (data \"x\"))\n"
        ));
    }
    text.push_str("))\n");
    text
}

/// Decodes `text`, and the binary form of what it decodes to; lints,
/// derives and solves both documents; and returns the time all that took.
fn decode_lint_and_solve(text: &str) -> std::time::Duration {
    let started = std::time::Instant::now();
    let (doc, _) = read_document_bytes(text.as_bytes()).unwrap();
    let binary = document_to_bytes(&doc, WireEncoding::Binary).unwrap();
    let (decoded, _) = read_document_bytes(&binary).unwrap();
    for doc in [doc, decoded] {
        let report = cmif::lint::Linter::new().check(&doc);
        assert!(!report.has_deny(), "{}", report.render(None));
        let options = cmif::scheduler::ScheduleOptions::default();
        let solved = cmif::scheduler::ConstraintGraph::derive(&doc, &doc.catalog, &options)
            .and_then(|mut graph| graph.solve(&doc, &doc.catalog));
        assert!(solved.is_ok(), "{solved:?}");
    }
    started.elapsed()
}

#[test]
fn a_deep_diamond_of_styles_resolves_in_linear_time() {
    // Each of 64 styles names the one below it twice: a style expansion
    // that re-walks shared parents would visit 2^64 paths.
    let mut styles = String::from("    (style d0 (attrs (channel caption)))\n");
    for level in 1..=64 {
        let below = level - 1;
        styles.push_str(&format!(
            "    (style d{level} (parents d{below} d{below}))\n"
        ));
    }
    let elapsed = decode_lint_and_solve(&styled_document(&styles, 1, "d64"));
    assert!(
        elapsed < std::time::Duration::from_secs(60),
        "a 64-deep style diamond took {elapsed:?}"
    );
}

#[test]
fn a_long_style_chain_used_by_every_leaf_resolves_in_linear_time() {
    // 4 000 styles, each building on the previous one, and 4 000 leaves
    // styled with the last: resolving the chain once per leaf, or walking
    // it with a linear search of the path, is cubic.
    const STYLES: usize = 4_000;
    let mut styles = String::from("    (style s0 (attrs (channel caption)))\n");
    for level in 1..STYLES {
        styles.push_str(&format!("    (style s{level} (parents s{}))\n", level - 1));
    }
    let last = format!("s{}", STYLES - 1);
    let elapsed = decode_lint_and_solve(&styled_document(&styles, 4_000, &last));
    assert!(
        elapsed < std::time::Duration::from_secs(60),
        "a {STYLES}-style chain under 4 000 leaves took {elapsed:?}"
    );
}

#[test]
fn a_very_deep_style_chain_resolves_on_a_small_stack() {
    // 60 000 styles declared deepest-first: the first one names the
    // second, and so on. A recursive expansion nests once per style and
    // overflows any thread stack; this one runs on 1 MiB.
    const STYLES: usize = 60_000;
    let mut styles = String::new();
    for level in 0..STYLES - 1 {
        styles.push_str(&format!("    (style s{level} (parents s{}))\n", level + 1));
    }
    styles.push_str(&format!(
        "    (style s{} (attrs (channel caption)))\n",
        STYLES - 1
    ));
    let text = styled_document(&styles, 1, "s0");
    let elapsed = std::thread::Builder::new()
        .stack_size(1 << 20)
        .spawn(move || decode_lint_and_solve(&text))
        .unwrap()
        .join()
        .unwrap();
    assert!(
        elapsed < std::time::Duration::from_secs(60),
        "a {STYLES}-style chain took {elapsed:?}"
    );
}

#[test]
fn a_very_deep_chain_derives_lints_and_solves_on_a_small_stack() {
    // 100 000 nested `seq` nodes over one caption. Lint refuses the depth
    // (L204), but only after deriving the constraint set, and a derivation
    // that recursed once per level would overflow the thread stack first;
    // this one walks the tree with its own stack, so lint, derive and solve
    // all finish on 1 MiB.
    const DEPTH: usize = 100_000;
    let mut doc = Document::with_root(cmif::core::node::NodeKind::Seq);
    let mut parent = doc.root().unwrap();
    for _ in 1..DEPTH {
        parent = doc.add_seq(parent).unwrap();
    }
    doc.add_imm_text(parent, "x").unwrap();
    std::thread::Builder::new()
        .stack_size(1 << 20)
        .spawn(move || {
            let analysis = cmif::lint::Linter::new().analyze(&doc, &doc.catalog);
            assert!(
                analysis
                    .report
                    .denials()
                    .any(|d| d.code == cmif::core::diag::codes::DEPTH_LIMIT),
                "{}",
                analysis.report.render(None)
            );
            assert!(analysis.graph.is_some(), "lint derived the constraint set");
            let options = cmif::scheduler::ScheduleOptions::default();
            let solved = cmif::scheduler::ConstraintGraph::derive(&doc, &doc.catalog, &options)
                .and_then(|mut graph| graph.solve(&doc, &doc.catalog))
                .unwrap();
            assert_eq!(solved.schedule.entries.len(), 1);
        })
        .unwrap()
        .join()
        .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic either decoder, whichever form the
    /// detector routes them to.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = read_document_bytes(&bytes);
        let _ = Document::from_read(&mut bytes.as_slice());
    }

    /// Arbitrary bytes stamped with the binary magic exercise the hardened
    /// binary path specifically — header parsing, checksum verification and
    /// section decoding — and still never panic.
    #[test]
    fn arbitrary_binary_framed_bytes_never_panic(
        tail in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let mut bytes = vec![0xC3, b'M', b'I', b'F'];
        bytes.extend_from_slice(&tail);
        prop_assert!(read_document_bytes(&bytes).is_err() || !tail.is_empty());
    }

    /// Random mutations of a real binary document (any byte, any value)
    /// either decode to a validated document or fail with a typed error.
    #[test]
    fn mutated_real_documents_decode_or_fail_cleanly(
        index in 0usize..4096,
        value in any::<u8>(),
    ) {
        let doc = SyntheticNews::with_stories(2).build().unwrap();
        let mut bytes = document_to_bytes(&doc, WireEncoding::Binary).unwrap();
        let index = index % bytes.len();
        bytes[index] = value;
        if let Ok((decoded, _)) = read_document_bytes(&bytes) {
            prop_assert!(cmif::core::validate::validate(&decoded).is_ok());
        }
    }
}
