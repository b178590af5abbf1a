//! Live-authoring equivalence and swap-safety properties.
//!
//! Two invariants pin the edit-while-playing refactor down:
//!
//! 1. **Session ≡ cold.** For a random script of edits applied through an
//!    [`EditSession`], the session's [`SolveResult`] must be *identical* to
//!    the one a cold full re-solve of its current revision produces — after
//!    every single edit, applied or refused, not just at the end.
//! 2. **History is immutable.** Mid-playback revision swaps
//!    ([`PlayerSession::swap_revision`]), however many, never rewrite
//!    already-fired events: everything that finished before a swap
//!    boundary survives verbatim, and everything that began keeps its
//!    begin times.

use std::collections::HashMap;
use std::sync::Arc;

use cmif::core::edit::{DocRevision, Edit, NodeSpec};
use cmif::core::node::NodeId;
use cmif::core::time::TimeMs;
use cmif::core::tree::Document;
use cmif::core::Symbol;
use cmif::scheduler::{
    ConstraintGraph, EditSession, JitterModel, PlaybackEvent, PlaybackReport, PlayerSession,
    ScheduleOptions, SolveResult,
};
use cmif::synthetic::SyntheticNews;

use proptest::prelude::*;

/// Splitmix-style generator so edit scripts derive deterministically from a
/// proptest-chosen seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One random edit against the current state of `doc`. Some choices are
/// deliberately allowed to be invalid (removing a node that would orphan
/// the root, swapping a descriptor across media kinds): the session must
/// reject those without disturbing its state, and the equivalence check
/// afterwards proves it did.
fn random_edit(doc: &Document, rng: &mut Rng, serial: usize) -> Edit {
    let composites: Vec<_> = doc
        .preorder()
        .into_iter()
        .filter(|&id| doc.node(id).map(|n| n.kind.is_composite()).unwrap_or(false))
        .collect();
    let leaves = doc.leaves();
    let keys: Vec<Symbol> = doc.catalog.iter().map(|d| d.key).collect();
    let non_root: Vec<_> = {
        let root = doc.root().unwrap();
        doc.preorder()
            .into_iter()
            .filter(|&id| id != root)
            .collect()
    };

    match rng.below(6) {
        0 => Edit::InsertSubtree {
            parent: composites[rng.below(composites.len())],
            spec: NodeSpec::imm_text(format!("late-{serial}"), "breaking update")
                .on_channel("caption")
                .lasting_ms(500 + (rng.below(8_000) as i64)),
        },
        1 if !keys.is_empty() => Edit::InsertSubtree {
            parent: composites[rng.below(composites.len())],
            spec: NodeSpec::ext(
                format!("clip-{serial}"),
                keys[rng.below(keys.len())].as_str(),
            )
            .on_channel("audio"),
        },
        2 if !non_root.is_empty() => Edit::RemoveSubtree {
            node: non_root[rng.below(non_root.len())],
        },
        3 if !doc.arcs().is_empty() => Edit::RetimeArc {
            index: rng.below(doc.arcs().len()),
            min_delay_ms: -(rng.below(200) as i64),
            max_delay_ms: Some(rng.below(2_000) as i64),
            offset_ms: Some(rng.below(3_000) as i64),
        },
        4 if !leaves.is_empty() && !keys.is_empty() => Edit::SwapDescriptor {
            node: leaves[rng.below(leaves.len())],
            file: keys[rng.below(keys.len())].as_str().to_string(),
        },
        _ if !leaves.is_empty() => Edit::AssignChannel {
            node: leaves[rng.below(leaves.len())],
            channel: Symbol::intern("label"),
        },
        _ => Edit::InsertSubtree {
            parent: composites[rng.below(composites.len())],
            spec: NodeSpec::imm_text(format!("fallback-{serial}"), "…").on_channel("caption"),
        },
    }
}

/// Begin (and, once ended, end) time of every delivered leaf.
type Delivered = HashMap<NodeId, (TimeMs, Option<TimeMs>)>;

fn record(delivered: &mut Delivered, events: Vec<PlaybackEvent>) {
    for event in events {
        match event {
            PlaybackEvent::Started { node, at, .. } => {
                delivered.insert(node, (at, None));
            }
            PlaybackEvent::Ended { node, at } => {
                if let Some(entry) = delivered.get_mut(&node) {
                    entry.1 = Some(at);
                }
            }
            _ => {}
        }
    }
}

/// True when the report still shows every delivered time.
fn keeps_history(report: &PlaybackReport, delivered: &Delivered) -> bool {
    delivered.iter().all(|(node, (begin, end))| {
        report.events.iter().any(|e| {
            e.node == *node
                && e.actual_begin == *begin
                && end.map_or(true, |end| e.actual_end == end)
        })
    })
}

fn cold_solve(doc: &Document, resolver: &cmif::core::descriptor::DescriptorCatalog) -> SolveResult {
    ConstraintGraph::derive(doc, resolver, &ScheduleOptions::default())
        .unwrap()
        .solve(doc, resolver)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariant 1: after every edit of a random script, the session's
    /// result equals a cold full re-solve of its current revision — same
    /// schedule, same constraints, same violations.
    #[test]
    fn random_edit_scripts_match_a_cold_full_resolve(
        stories in 1usize..5,
        script_len in 1usize..12,
        seed in 0u64..100_000,
    ) {
        let doc = Arc::new(SyntheticNews::with_stories(stories).build().unwrap());
        let catalog = doc.catalog.clone();
        let mut session = EditSession::begin(
            DocRevision::initial(doc),
            &catalog,
            ScheduleOptions::default(),
        )
        .unwrap();
        let mut rng = Rng(seed.wrapping_mul(2).wrapping_add(1));
        let mut applied = 0usize;
        let mut rejected = 0usize;
        for serial in 0..script_len {
            let edit = random_edit(session.revision().doc(), &mut rng, serial);
            match session.apply(&edit) {
                Ok(_) => applied += 1,
                Err(_) => rejected += 1, // session must be undisturbed
            }
            let held = session.solve_result().unwrap();
            let cold = cold_solve(session.revision().doc(), &catalog);
            prop_assert_eq!(
                &held, &cold,
                "divergence after {} applied / {} rejected edits (last: {:?})",
                applied, rejected, edit
            );
        }
    }

    /// Invariant 2: a revision swap at a mid-playback boundary keeps every
    /// already-finished event byte-identical and never moves the begin
    /// times of events that already started — and keeps doing so over
    /// further tick → edit → swap rounds: every `Started`/`Ended` the
    /// session ever delivered keeps its times in the report.
    #[test]
    fn a_revision_swap_never_rewrites_already_fired_events(
        stories in 1usize..4,
        boundary_pct in 10i64..90,
        jitter_ms in 0i64..200,
        seed in 0u64..1_000,
    ) {
        let doc = Arc::new(SyntheticNews::with_stories(stories).build().unwrap());
        let catalog = doc.catalog.clone();
        let result = cold_solve(&doc, &catalog);
        let jitter = JitterModel::uniform(jitter_ms, seed.wrapping_add(11));
        let mut session = PlayerSession::new(&doc, &result, &catalog, &jitter).unwrap();

        // Anchor the wall clock, then advance to the swap boundary.
        let mut delivered = HashMap::new();
        session.tick(0).unwrap();
        let total = session.total_duration().as_millis();
        let boundary = total * boundary_pct / 100;
        session.tick(boundary).unwrap();
        record(&mut delivered, session.poll_events());

        // Snapshot the fired history (strict inequalities dodge the
        // delivered-at-exactly-the-boundary edge in either direction).
        let before = session.report_preview().clone();
        let finished: Vec<_> = before
            .events
            .iter()
            .filter(|e| e.actual_end.as_millis() < boundary)
            .cloned()
            .collect();
        let begun: Vec<_> = before
            .events
            .iter()
            .filter(|e| e.actual_begin.as_millis() < boundary)
            .cloned()
            .collect();

        // Edit the document mid-flight: append a coda story and re-solve
        // the new revision, then swap the session onto it.
        let mut rng = Rng(seed.wrapping_mul(3).wrapping_add(7));
        let mut author = EditSession::begin(
            DocRevision::initial(Arc::clone(&doc)),
            &catalog,
            ScheduleOptions::default(),
        )
        .unwrap();
        let root = doc.root().unwrap();
        author
            .apply(&Edit::InsertSubtree {
                parent: root,
                spec: NodeSpec::imm_text("coda", "and one more thing")
                    .on_channel("caption")
                    .lasting_ms(4_000),
            })
            .unwrap();
        for serial in 0..2usize {
            let edit = random_edit(author.revision().doc(), &mut rng, serial);
            let _ = author.apply(&edit); // rejections leave the session intact
        }
        let revised = author.solve_result().unwrap();
        session
            .swap_revision(author.revision().doc(), &revised, &catalog)
            .unwrap();

        let after = session.report_preview();
        for event in &finished {
            prop_assert!(
                after.events.iter().any(|e| e == event),
                "finished event {:?} was rewritten by the swap",
                event
            );
        }
        for event in &begun {
            prop_assert!(
                after.events.iter().any(|e| e.node == event.node
                    && e.name == event.name
                    && e.scheduled_begin == event.scheduled_begin
                    && e.actual_begin == event.actual_begin),
                "begun event {:?} lost its begin time in the swap",
                event
            );
        }

        prop_assert!(keeps_history(after, &delivered), "round 1 rewrote history");

        // Two more rounds: play on, edit, swap — history delivered before
        // *any* earlier swap must survive each later one.
        let mut now = boundary;
        for round in 2..=3 {
            now += (session.total_duration().as_millis() - now).max(0) / 3 + 1;
            session.tick(now).unwrap();
            record(&mut delivered, session.poll_events());
            author
                .apply(&Edit::InsertSubtree {
                    parent: root,
                    spec: NodeSpec::imm_text(format!("coda-{round}"), "still more")
                        .on_channel("caption")
                        .lasting_ms(2_000),
                })
                .unwrap();
            let edit = random_edit(author.revision().doc(), &mut rng, round);
            let _ = author.apply(&edit);
            let revised = author.solve_result().unwrap();
            session
                .swap_revision(author.revision().doc(), &revised, &catalog)
                .unwrap();
            record(&mut delivered, session.poll_events());
            prop_assert!(
                keeps_history(session.report_preview(), &delivered),
                "round {} rewrote history",
                round
            );
        }

        // Playing the tail out never revisits the history either.
        session.tick(total.max(now) + 60_000).unwrap();
        record(&mut delivered, session.poll_events());
        let final_report = session.report_preview();
        for event in &finished {
            prop_assert!(final_report.events.iter().any(|e| e == event));
        }
        prop_assert!(keeps_history(final_report, &delivered), "the tail rewrote history");
    }
}
