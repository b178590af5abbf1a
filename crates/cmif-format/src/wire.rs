//! One wire read and one wire write over both interchange forms.
//!
//! A CMIF document travels either as canonical text ([`crate::writer`]) or
//! as the compact binary form ([`crate::binary`]). Transports should not
//! care which: [`read_document_bytes`] decodes either form in place,
//! auto-detecting it by its leading bytes, and [`document_to_bytes`] (or
//! [`WireEncoding::encode`], onto any [`io::Write`]) writes the form the
//! caller names. Binary documents start with [`BINARY_MAGIC`]; text
//! documents start with `(`, whitespace or a `;` comment — the first magic
//! byte is outside ASCII, so the two can never be confused.

use std::io;

use cmif_core::tree::Document;

use crate::binary::{decode_document, encode_document_to, MAGIC};
use crate::error::{FormatError, Position, Result, Span};
use crate::parser::parse_document;
use crate::writer::write_document_to;

/// The magic bytes that open every binary wire document (re-exported from
/// [`crate::binary`] for format detection).
pub const BINARY_MAGIC: [u8; 4] = MAGIC;

/// Which interchange form a document is (or should be) carried in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireEncoding {
    /// The human-readable canonical s-expression text.
    Text,
    /// The compact, checksummed binary form — the default on the wire.
    #[default]
    Binary,
}

impl WireEncoding {
    /// Detects the encoding of raw wire bytes by their leading magic.
    ///
    /// Anything that does not open with [`BINARY_MAGIC`] is treated as
    /// text; the text parser then produces its own positioned error if the
    /// bytes are not a document at all.
    pub fn detect(bytes: &[u8]) -> WireEncoding {
        if bytes.len() >= BINARY_MAGIC.len() && bytes[..BINARY_MAGIC.len()] == BINARY_MAGIC {
            WireEncoding::Binary
        } else {
            WireEncoding::Text
        }
    }

    /// Serializes `doc` in this encoding, streaming into `w`.
    pub fn encode<W: io::Write>(&self, doc: &Document, w: &mut W) -> Result<()> {
        match self {
            WireEncoding::Text => write_document_to(doc, w),
            WireEncoding::Binary => encode_document_to(doc, w),
        }
    }

    /// A short human-readable label (`"text"` / `"binary"`).
    pub fn label(&self) -> &'static str {
        match self {
            WireEncoding::Text => "text",
            WireEncoding::Binary => "binary",
        }
    }
}

impl std::fmt::Display for WireEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Decodes a document from raw wire bytes, reporting which form it was in.
///
/// Both decode paths validate the document structurally — a transported
/// document must arrive presentable.
pub fn read_document_bytes(bytes: &[u8]) -> Result<(Document, WireEncoding)> {
    match WireEncoding::detect(bytes) {
        WireEncoding::Binary => Ok((decode_document(bytes)?, WireEncoding::Binary)),
        WireEncoding::Text => {
            let text = std::str::from_utf8(bytes).map_err(|e| FormatError::Wire {
                context: "text document",
                message: format!("not valid UTF-8: {e}"),
                at: {
                    let at = Position::new(0, 0, e.valid_up_to());
                    Span::new(at, at)
                },
            })?;
            Ok((parse_document(text)?, WireEncoding::Text))
        }
    }
}

/// Serializes a document into a fresh byte buffer in the given encoding.
pub fn document_to_bytes(doc: &Document, encoding: WireEncoding) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    encoding.encode(doc, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_document;
    use cmif_core::prelude::*;

    fn sample_doc() -> Document {
        DocumentBuilder::new("wire demo")
            .channel("caption", MediaKind::Text)
            .root_seq(|root| {
                root.imm_text("hello", "caption", "Hello, CMIF", 1000);
            })
            .build()
            .unwrap()
    }

    #[test]
    fn detection_by_magic_bytes() {
        let doc = sample_doc();
        let binary = document_to_bytes(&doc, WireEncoding::Binary).unwrap();
        let text = document_to_bytes(&doc, WireEncoding::Text).unwrap();
        assert_eq!(WireEncoding::detect(&binary), WireEncoding::Binary);
        assert_eq!(WireEncoding::detect(&text), WireEncoding::Text);
        assert_eq!(WireEncoding::detect(b""), WireEncoding::Text);
        assert_eq!(WireEncoding::detect(b"(cmif"), WireEncoding::Text);
    }

    #[test]
    fn both_forms_decode_to_the_same_document() {
        let doc = sample_doc();
        let text = document_to_bytes(&doc, WireEncoding::Text).unwrap();
        let binary = document_to_bytes(&doc, WireEncoding::Binary).unwrap();
        assert!(binary.len() < text.len(), "binary must be the smaller form");
        let (from_text, e1) = read_document_bytes(&text).unwrap();
        let (from_binary, e2) = read_document_bytes(&binary).unwrap();
        assert_eq!(e1, WireEncoding::Text);
        assert_eq!(e2, WireEncoding::Binary);
        assert_eq!(
            write_document(&from_text).unwrap(),
            write_document(&from_binary).unwrap()
        );
    }

    #[test]
    fn invalid_utf8_text_is_a_wire_error() {
        let err = read_document_bytes(&[b'(', 0xFF, 0xFE]).unwrap_err();
        assert!(matches!(err, FormatError::Wire { .. }));
        assert!(err.span().is_some());
    }

    #[test]
    fn garbage_never_panics() {
        assert!(read_document_bytes(b"not a document").is_err());
        assert!(read_document_bytes(&[0xC3, 0x00]).is_err());
        assert!(read_document_bytes(b"\xc3MIF").is_err());
    }
}
