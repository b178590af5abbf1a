//! Live authoring: edit sessions over a document's revision chain.
//!
//! CMIFed's headline workflow is *edit while playing*: the author changes a
//! document whose presentation is running, and the system re-schedules it.
//! [`EditSession`] is the scheduling half of that loop, on top of the
//! revision chain of [`cmif_core::edit::DocRevision`]. An edit takes the
//! one path lint, the pipeline and the engine take: [`DocRevision::apply`]
//! builds the successor revision, then a cold
//! [`ConstraintGraph::derive`] + [`ConstraintGraph::solve`] schedules it.
//! The session commits the revision and its [`SolveResult`] only when both
//! steps succeed, so a refused edit leaves it on its last revision, ready
//! for the next one. [`EditSession::solve_result`] is therefore the cold
//! solve of the current revision by construction.

use cmif_core::descriptor::DescriptorResolver;
use cmif_core::edit::{DocRevision, Edit, EditDelta};

use crate::error::Result;
use crate::graph::ConstraintGraph;
use crate::solver::SolveResult;
use crate::types::ScheduleOptions;

/// Counters describing the last edit's re-solve, for telemetry and the
/// `live_edit` workload. Every edit re-solves the whole revision, so the
/// per-edit counters grow with the document, not with the edit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EditStats {
    /// Edits applied over the session's lifetime.
    pub edits_applied: u64,
    /// Event points the last edit's re-solve relaxed.
    pub last_reset_points: usize,
    /// Constraints the last edit dropped: the previous revision's set.
    pub last_replaced: usize,
    /// Constraints the last edit's re-solve relaxed.
    pub last_updates: usize,
    /// Total constraints in the current revision's set.
    pub constraints_total: usize,
}

/// An authoring session over one document revision chain: the current
/// [`DocRevision`], its [`SolveResult`] and the [`EditStats`] of the last
/// edit.
pub struct EditSession<'r> {
    resolver: &'r dyn DescriptorResolver,
    options: ScheduleOptions,
    revision: DocRevision,
    solve: SolveResult,
    stats: EditStats,
}

impl<'r> EditSession<'r> {
    /// Opens a session on a revision and solves it. Fails like
    /// [`ConstraintGraph::solve`], with phase `"solve"`.
    pub fn begin(
        revision: DocRevision,
        resolver: &'r dyn DescriptorResolver,
        options: ScheduleOptions,
    ) -> Result<EditSession<'r>> {
        let doc = revision.doc();
        let solve = ConstraintGraph::derive(doc, resolver, &options)?.solve(doc, resolver)?;
        let stats = EditStats {
            constraints_total: solve.constraints.len(),
            ..EditStats::default()
        };
        Ok(EditSession {
            resolver,
            options,
            revision,
            solve,
            stats,
        })
    }

    /// The current revision.
    pub fn revision(&self) -> &DocRevision {
        &self.revision
    }

    /// Counters describing the last edit.
    pub fn stats(&self) -> &EditStats {
        &self.stats
    }

    /// Applies one edit atomically: advances the revision and re-solves
    /// it cold, committing both only when both succeed.
    ///
    /// An invalid edit (removing the root, retiming a missing arc, …)
    /// fails with the document layer's error. An edit whose re-solve fails
    /// — it closes a positive cycle
    /// ([`crate::SchedulerError::ConstraintCycle`]) or pushes a time past
    /// the representable range ([`crate::SchedulerError::TimeOverflow`]),
    /// both with phase `"solve"` — fails likewise. Either way the session
    /// stays on its last revision and takes the next edit as usual.
    pub fn apply(&mut self, edit: &Edit) -> Result<EditDelta> {
        let (next, delta) = self.revision.apply(edit)?;
        let doc = next.doc();
        let mut graph = ConstraintGraph::derive(doc, self.resolver, &self.options)?;
        let solve = graph.solve(doc, self.resolver)?;
        self.stats = EditStats {
            edits_applied: self.stats.edits_applied + 1,
            last_reset_points: graph.point_count(),
            last_replaced: self.solve.constraints.len(),
            last_updates: graph.len(),
            constraints_total: graph.len(),
        };
        self.revision = next;
        self.solve = solve;
        Ok(delta)
    }

    /// The [`SolveResult`] of the current revision: a cold
    /// [`ConstraintGraph::derive`] + `solve` of its document.
    pub fn solve_result(&self) -> Result<SolveResult> {
        Ok(self.solve.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ConstraintGraph;
    use cmif_core::arc::SyncArc;
    use cmif_core::edit::NodeSpec;
    use cmif_core::prelude::*;
    use std::sync::Arc;

    fn bulletin() -> Document {
        DocumentBuilder::new("bulletin")
            .channel("video", MediaKind::Video)
            .channel("caption", MediaKind::Text)
            .descriptor(
                DataDescriptor::new("lead.mpg", MediaKind::Video, "mpeg")
                    .with_duration(TimeMs::from_secs(20)),
            )
            .descriptor(
                DataDescriptor::new("follow.mpg", MediaKind::Video, "mpeg")
                    .with_duration(TimeMs::from_secs(15)),
            )
            .descriptor(
                DataDescriptor::new("recap.mpg", MediaKind::Video, "mpeg")
                    .with_duration(TimeMs::from_secs(5)),
            )
            .root_seq(|root| {
                root.par("story-1", |story| {
                    story.ext("lead", "video", "lead.mpg");
                    story.imm_text("line-1", "caption", "Lead story", 4_000);
                });
                root.par("story-2", |story| {
                    story.ext("follow", "video", "follow.mpg");
                    story.imm_text("line-2", "caption", "Follow-up", 4_000);
                });
            })
            .build()
            .unwrap()
    }

    fn cold_solve(doc: &Document) -> SolveResult {
        ConstraintGraph::derive(doc, &doc.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(doc, &doc.catalog)
            .unwrap()
    }

    fn check_equivalence(session: &EditSession<'_>) {
        let held = session.solve_result().unwrap();
        let cold = cold_solve(session.revision().doc());
        assert_eq!(held, cold);
    }

    #[test]
    fn cold_open_matches_graph_solve() {
        let doc = Arc::new(bulletin());
        let catalog = doc.catalog.clone();
        let session = EditSession::begin(
            DocRevision::initial(doc),
            &catalog,
            ScheduleOptions::default(),
        )
        .unwrap();
        check_equivalence(&session);
    }

    #[test]
    fn insert_subtree_matches_a_cold_solve() {
        let doc = Arc::new(bulletin());
        let catalog = doc.catalog.clone();
        let root = doc.root().unwrap();
        let mut session = EditSession::begin(
            DocRevision::initial(doc),
            &catalog,
            ScheduleOptions::default(),
        )
        .unwrap();
        session
            .apply(&Edit::InsertSubtree {
                parent: root,
                spec: NodeSpec::par(
                    "story-3",
                    vec![
                        NodeSpec::ext("recap", "recap.mpg").on_channel("video"),
                        NodeSpec::imm_text("line-3", "Recap")
                            .on_channel("caption")
                            .lasting_ms(3_000),
                    ],
                ),
            })
            .unwrap();
        check_equivalence(&session);
        assert!(session.stats().last_reset_points > 0);
    }

    #[test]
    fn remove_subtree_matches_a_cold_solve() {
        let doc = Arc::new(bulletin());
        let catalog = doc.catalog.clone();
        let story_1 = doc.find("/story-1").unwrap();
        let mut session = EditSession::begin(
            DocRevision::initial(doc),
            &catalog,
            ScheduleOptions::default(),
        )
        .unwrap();
        session
            .apply(&Edit::RemoveSubtree { node: story_1 })
            .unwrap();
        check_equivalence(&session);
    }

    #[test]
    fn retime_arc_matches_a_cold_solve() {
        let mut doc = bulletin();
        let line_2 = doc.find("/story-2/line-2").unwrap();
        doc.add_arc(
            line_2,
            SyncArc::hard_start("../follow", "").with_offset(MediaTime::seconds(2)),
        )
        .unwrap();
        let doc = Arc::new(doc);
        let catalog = doc.catalog.clone();
        let mut session = EditSession::begin(
            DocRevision::initial(doc),
            &catalog,
            ScheduleOptions::default(),
        )
        .unwrap();
        session
            .apply(&Edit::RetimeArc {
                index: 0,
                min_delay_ms: 0,
                max_delay_ms: Some(100),
                offset_ms: Some(6_000),
            })
            .unwrap();
        check_equivalence(&session);
    }

    #[test]
    fn descriptor_and_channel_edits_match_a_cold_solve() {
        let doc = Arc::new(bulletin());
        let catalog = doc.catalog.clone();
        let lead = doc.find("/story-1/lead").unwrap();
        let mut session = EditSession::begin(
            DocRevision::initial(doc),
            &catalog,
            ScheduleOptions::default(),
        )
        .unwrap();
        session
            .apply(&Edit::SwapDescriptor {
                node: lead,
                file: "recap.mpg".to_string(),
            })
            .unwrap();
        check_equivalence(&session);
        session
            .apply(&Edit::AssignChannel {
                node: lead,
                channel: Symbol::intern("caption"),
            })
            .unwrap();
        check_equivalence(&session);
    }

    #[test]
    fn edits_chain_and_stats_accumulate() {
        let doc = Arc::new(bulletin());
        let catalog = doc.catalog.clone();
        let root = doc.root().unwrap();
        let story_2 = doc.find("/story-2").unwrap();
        let mut session = EditSession::begin(
            DocRevision::initial(doc),
            &catalog,
            ScheduleOptions::default(),
        )
        .unwrap();
        session
            .apply(&Edit::InsertSubtree {
                parent: root,
                spec: NodeSpec::ext("tail", "recap.mpg").on_channel("video"),
            })
            .unwrap();
        session
            .apply(&Edit::RemoveSubtree { node: story_2 })
            .unwrap();
        check_equivalence(&session);
        assert_eq!(session.stats().edits_applied, 2);
        assert_eq!(
            session.revision().doc().leaves().len(),
            3,
            "story-2's two leaves gone, tail added"
        );
    }

    #[test]
    fn rejected_edit_leaves_the_session_intact() {
        let doc = Arc::new(bulletin());
        let catalog = doc.catalog.clone();
        let root = doc.root().unwrap();
        let mut session = EditSession::begin(
            DocRevision::initial(doc),
            &catalog,
            ScheduleOptions::default(),
        )
        .unwrap();
        let before = session.revision().id();
        assert!(session.apply(&Edit::RemoveSubtree { node: root }).is_err());
        assert_eq!(session.revision().id(), before);
        check_equivalence(&session);
    }

    #[test]
    fn a_failed_re_solve_keeps_the_last_revision() {
        // `lead` (20 s) plays before `follow`. An arc on `lead` from
        // `follow`'s begin that tolerates starting 30 s early closes a
        // cycle of weight 20 - 30 < 0; retiming that window to 0 makes
        // the cycle positive.
        let mut doc = bulletin();
        let lead = doc.find("/story-1/lead").unwrap();
        doc.add_arc(
            lead,
            SyncArc::hard_start("/story-2/follow", "")
                .with_window(DelayMs::from_millis(-30_000), MaxDelay::Unbounded),
        )
        .unwrap();
        let doc = Arc::new(doc);
        let catalog = doc.catalog.clone();
        let root = doc.root().unwrap();
        let mut session = EditSession::begin(
            DocRevision::initial(doc),
            &catalog,
            ScheduleOptions::default(),
        )
        .unwrap();
        let before = session.revision().id();
        let solved = session.solve_result().unwrap();

        let refused = session.apply(&Edit::RetimeArc {
            index: 0,
            min_delay_ms: 0,
            max_delay_ms: None,
            offset_ms: Some(0),
        });
        assert!(
            matches!(
                refused,
                Err(crate::SchedulerError::ConstraintCycle { phase: "solve", .. })
            ),
            "{refused:?}"
        );
        assert_eq!(session.revision().id(), before);
        assert_eq!(session.solve_result().unwrap(), solved);
        assert_eq!(session.stats().edits_applied, 0);

        // The next valid edit applies on the same session.
        session
            .apply(&Edit::InsertSubtree {
                parent: root,
                spec: NodeSpec::ext("tail", "recap.mpg").on_channel("video"),
            })
            .unwrap();
        assert_eq!(session.revision().parent_id(), Some(before));
        assert_eq!(session.stats().edits_applied, 1);
        check_equivalence(&session);
    }
}
