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
