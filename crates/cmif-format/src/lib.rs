//! # cmif-format — the human-readable CMIF interchange format
//!
//! The paper stresses twice (§5, §6) that the CMIF document tree "is a
//! human-readable document that can be passed from one location to another
//! with or without the underlying data". This crate is that textual form:
//!
//! * [`writer::write_document`] serializes a [`cmif_core::tree::Document`]
//!   into a parenthesized, commented, diff-friendly text;
//! * [`lexer::Lexer`] is a byte-level pull lexer over that text;
//! * [`parser::parse_document`] reads it back in one pass over the lexer,
//!   rebuilding the channel and style dictionaries, the descriptor catalog,
//!   the node tree and the synchronization arcs as the tokens arrive — no
//!   token vector or expression tree sits in between;
//! * [`treeview`] renders the "conventional" and "embedded" tree views of
//!   Figure 5 and the per-channel columns of Figures 3 and 10.
//!
//! The format is intentionally small: s-expressions with identifiers,
//! numbers, strings and `&ref`s. Parsing a document never touches media
//! data — exactly the transportability property the paper is after.
//!
//! Next to the text form lives the **binary wire form** ([`binary`]): a
//! versioned, checksummed, length-prefixed encoding of the same document
//! model that round-trips exactly with the canonical text. The [`wire`]
//! module ties the two together: [`read_document_bytes`] decodes either
//! form, detected by its magic bytes, so transports never need to know
//! which form a peer sent.
//!
//! ```
//! use cmif_format::{parse_document, write_document};
//!
//! # fn main() -> Result<(), cmif_format::FormatError> {
//! let source = r#"
//! (cmif
//!   (channels (channel caption text))
//!   (seq (name demo)
//!     (imm (name hello) (channel caption) (duration 1000)
//!       (data "Hello, CMIF"))))
//! "#;
//! let doc = parse_document(source)?;
//! let text = write_document(&doc)?;
//! let again = parse_document(&text)?;
//! assert_eq!(doc.leaves().len(), again.leaves().len());
//! # Ok(()) }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binary;
pub mod error;
pub mod lexer;
pub mod parser;
#[cfg(test)]
mod text_decode;
pub mod treeview;
pub mod wire;
pub mod writer;

/// The deepest nesting either decoder will follow before raising
/// [`FormatError::TooDeep`].
///
/// Shared by the text reader (parenthesis depth) and the binary decoder
/// (node/value recursion): a depth bomb in either form becomes a typed
/// error instead of a stack overflow. 128 levels is far beyond any real
/// document — the paper's deepest example nests 4.
pub const MAX_NESTING: usize = 128;

pub use binary::{decode_document, decode_document_unvalidated, encode_document_to};
pub use error::{FormatError, Position, Result, Span};
pub use parser::{parse_document, parse_document_unvalidated};
pub use treeview::{channel_view, conventional_view, embedded_view};
pub use wire::{document_to_bytes, read_document_bytes, WireEncoding};
pub use writer::{write_arc, write_document, write_document_to};
