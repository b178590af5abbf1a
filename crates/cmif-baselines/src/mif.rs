//! A MIF/Diamond-style static structured document format.
//!
//! §3.2 also compares CMIF with FrameMaker's MIF \[Frame89\] and the Diamond
//! multimedia message system \[Thomas85\]: structured documents that carry
//! text and graphics "without explicit time constraints" — pages of frames,
//! no channels, no synchronization. [`StaticDocument`] implements that
//! model. Converting a CMIF document into it keeps the hierarchy and the
//! content references but drops everything temporal, which
//! [`StaticConversion`] quantifies.

use cmif_core::error::Result;
use cmif_core::node::{NodeId, NodeKind};
use cmif_core::tree::Document;

/// One element of the static document.
#[derive(Debug, Clone, PartialEq)]
pub enum StaticElement {
    /// A grouping element (was a seq or par node).
    Group {
        /// The group's name.
        name: String,
        /// Nested elements.
        children: Vec<StaticElement>,
    },
    /// A text paragraph (was an immediate text node).
    Paragraph {
        /// The paragraph text.
        text: String,
    },
    /// An anchored frame referencing external content (was an external
    /// node).
    Frame {
        /// The referenced data descriptor key.
        reference: String,
        /// A caption derived from the node name.
        caption: String,
    },
}

impl StaticElement {
    /// Counts the elements in this subtree (including `self`).
    pub fn count(&self) -> usize {
        match self {
            StaticElement::Group { children, .. } => {
                1 + children.iter().map(StaticElement::count).sum::<usize>()
            }
            _ => 1,
        }
    }
}

/// A static, pageable document: structure and content, no time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StaticDocument {
    /// Top-level elements.
    pub elements: Vec<StaticElement>,
}

impl StaticDocument {
    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.elements.iter().map(StaticElement::count).sum()
    }

    /// True when the document is empty.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Renders the document as indented text (a crude page view).
    pub fn render(&self) -> String {
        fn render_element(element: &StaticElement, depth: usize, out: &mut String) {
            let indent = "  ".repeat(depth);
            match element {
                StaticElement::Group { name, children } => {
                    out.push_str(&format!("{indent}# {name}\n"));
                    for child in children {
                        render_element(child, depth + 1, out);
                    }
                }
                StaticElement::Paragraph { text } => {
                    out.push_str(&format!("{indent}{text}\n"));
                }
                StaticElement::Frame { reference, caption } => {
                    out.push_str(&format!("{indent}[frame: {caption} <{reference}>]\n"));
                }
            }
        }
        let mut out = String::new();
        for element in &self.elements {
            render_element(element, 0, &mut out);
        }
        out
    }
}

/// What converting a CMIF document to the static format keeps and loses.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StaticConversion {
    /// Elements the static document keeps.
    pub elements_kept: usize,
    /// Synchronization channels dropped (the format has none).
    pub channels_lost: usize,
    /// Explicit arcs dropped.
    pub arcs_lost: usize,
    /// Leaves whose timing (duration attributes, descriptor durations)
    /// became meaningless.
    pub timed_leaves_lost: usize,
    /// Continuous-media leaves (audio/video) the static format cannot
    /// present at all.
    pub continuous_media_lost: usize,
}

/// Converts a CMIF document into a static document plus a loss report.
pub fn convert(doc: &Document) -> Result<(StaticDocument, StaticConversion)> {
    let root = doc.root()?;
    let element = convert_node(doc, root)?;
    let mut report = StaticConversion {
        elements_kept: element.count(),
        channels_lost: doc.channels.len(),
        arcs_lost: doc.arcs().len(),
        ..StaticConversion::default()
    };
    for leaf in doc.leaves() {
        if doc.duration_of(leaf, &doc.catalog)?.is_some() {
            report.timed_leaves_lost += 1;
        }
        let medium = doc.medium_of(leaf, &doc.catalog)?;
        if medium.is_continuous() {
            report.continuous_media_lost += 1;
        }
    }
    Ok((
        StaticDocument {
            elements: vec![element],
        },
        report,
    ))
}

fn convert_node(doc: &Document, id: NodeId) -> Result<StaticElement> {
    let node = doc.node(id)?;
    let name = node.name().unwrap_or("(unnamed)").to_string();
    Ok(match &node.kind {
        NodeKind::Seq | NodeKind::Par => {
            let mut children = Vec::new();
            for child in node.children.clone() {
                children.push(convert_node(doc, child)?);
            }
            StaticElement::Group { name, children }
        }
        NodeKind::Imm(data) => StaticElement::Paragraph {
            text: data
                .as_text()
                .map(str::to_string)
                .unwrap_or_else(|| format!("({} bytes of inline data)", data.len())),
        },
        NodeKind::Ext => StaticElement::Frame {
            reference: doc
                .file_of(id)?
                .map(|key| key.as_str().to_string())
                .unwrap_or_else(|| "?".to_string()),
            caption: name,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmif_core::arc::SyncArc;
    use cmif_core::prelude::*;

    fn doc() -> Document {
        let mut doc = DocumentBuilder::new("news")
            .channel("audio", MediaKind::Audio)
            .channel("video", MediaKind::Video)
            .channel("caption", MediaKind::Text)
            .descriptor(
                DataDescriptor::new("speech", MediaKind::Audio, "pcm8")
                    .with_duration(TimeMs::from_secs(5)),
            )
            .descriptor(
                DataDescriptor::new("film", MediaKind::Video, "rgb24")
                    .with_duration(TimeMs::from_secs(5)),
            )
            .root_seq(|news| {
                news.par("story-1", |s| {
                    s.ext("voice", "audio", "speech");
                    s.ext("shot", "video", "film");
                    s.imm_text("line", "caption", "Paintings stolen", 3_000);
                });
            })
            .build()
            .unwrap();
        let line = doc.find("/story-1/line").unwrap();
        doc.add_arc(line, SyncArc::hard_start("../voice", ""))
            .unwrap();
        doc
    }

    #[test]
    fn conversion_keeps_structure_and_content_references() {
        let (static_doc, report) = convert(&doc()).unwrap();
        assert_eq!(report.elements_kept, 5);
        assert_eq!(static_doc.len(), 5);
        let text = static_doc.render();
        assert!(text.contains("# news"));
        assert!(text.contains("# story-1"));
        assert!(text.contains("[frame: voice <speech>]"));
        assert!(text.contains("Paintings stolen"));
    }

    #[test]
    fn conversion_reports_what_is_lost() {
        let (_, report) = convert(&doc()).unwrap();
        assert_eq!(report.channels_lost, 3);
        assert_eq!(report.arcs_lost, 1);
        assert_eq!(report.timed_leaves_lost, 3);
        assert_eq!(report.continuous_media_lost, 2);
    }

    #[test]
    fn binary_immediate_data_becomes_a_placeholder_paragraph() {
        let mut d = DocumentBuilder::new("x")
            .channel("label", MediaKind::Label)
            .root_par(|root| {
                root.imm_text("t", "label", "text", 100);
            })
            .build()
            .unwrap();
        let root = d.root().unwrap();
        let blob = d.add_imm_binary(root, vec![1, 2, 3]).unwrap();
        d.set_attr(blob, AttrName::Channel, AttrValue::Id("label".into()))
            .unwrap();
        let (static_doc, _) = convert(&d).unwrap();
        assert!(static_doc.render().contains("(3 bytes of inline data)"));
    }

    #[test]
    fn empty_static_document() {
        let d = StaticDocument::default();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.render(), "");
    }
}
