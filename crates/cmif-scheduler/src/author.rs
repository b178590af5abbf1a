//! Live authoring: incremental re-solve of edited documents.
//!
//! CMIFed's headline workflow is *edit while playing*: the author changes a
//! document whose presentation is running, and the system re-schedules only
//! what the change could affect. [`EditSession`] implements the scheduling
//! half of that story on top of the revision chain of
//! [`cmif_core::edit::DocRevision`]:
//!
//! 1. every edit reports a dirty region ([`cmif_core::edit::EditDelta`]);
//! 2. the session re-derives constraints only for that region — the
//!    structural *shells* of composites whose child list changed, the
//!    duration relations of dirty leaves, and the explicit arc set when it
//!    changed;
//! 3. the ASAP fixpoint is repaired in place. A **support check** first
//!    proves whether any discarded constraint was actually holding its
//!    target up (tight at the old fixpoint and not re-derived at least as
//!    strong): if none was, no point time can decrease and the repair is
//!    pure increase-only propagation from the dirty region. Only a
//!    genuinely lost support triggers the **reset cone** — every point
//!    downstream of a discarded constraint's target drops back to zero.
//!    Either way every point then sits at or below the new least
//!    fixpoint, and one run of the shared
//!    relaxation kernel ([`crate::graph`]) — one pass over the edges in
//!    topological order — raises exactly the dirty region to it.
//!
//! The repaired vector equals the least fixpoint of the new constraint set,
//! so [`EditSession::solve_result`] is *identical* to a cold
//! [`crate::graph::ConstraintGraph::solve`] of the edited document — the
//! equivalence the `edit_sessions` proptest pins down. The win over a cold
//! re-solve is everything but the relaxation: only the dirty region is
//! re-derived, and the fixpoint of the rest is kept.

use std::collections::{HashMap, HashSet, VecDeque};

use cmif_core::descriptor::DescriptorResolver;
use cmif_core::edit::{DocRevision, Edit, EditDelta};
use cmif_core::node::NodeId;
use cmif_core::tree::Document;

use crate::defaults::{explicit_constraints, leaf_duration_constraint, shell_constraints};
use crate::error::Result;
use crate::graph::{window_violations, ConstraintKernel, PointTimes};
use crate::solver::{build_schedule, SolveResult};
use crate::types::{Constraint, EventPoint, ScheduleOptions};

/// Counters describing the last incremental repair, for telemetry and the
/// `ext_author` bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EditStats {
    /// Edits applied over the session's lifetime.
    pub edits_applied: u64,
    /// Event points reset to zero by the last edit's dirty cone.
    pub last_reset_points: usize,
    /// Constraints removed or replaced by the last edit.
    pub last_replaced: usize,
    /// Constraints freshly derived by the last edit.
    pub last_added: usize,
    /// Fixpoint value updates the last repair performed.
    pub last_updates: usize,
    /// Total constraints in the current revision's set.
    pub constraints_total: usize,
}

/// An incremental authoring session over one document revision chain.
///
/// The session owns the current [`DocRevision`], the grouped constraint set
/// derived from it, and the ASAP fixpoint of that set. [`EditSession::apply`]
/// advances all three together; [`EditSession::solve_result`] assembles the
/// same [`SolveResult`] a cold solve of the current revision would produce.
pub struct EditSession<'r> {
    resolver: &'r dyn DescriptorResolver,
    options: ScheduleOptions,
    revision: DocRevision,
    /// Structural shell constraints, per composite node.
    structural: HashMap<NodeId, Vec<Constraint>>,
    /// Duration constraint, per leaf.
    durations: HashMap<NodeId, Constraint>,
    /// Explicit arc constraints, index-aligned with `Document::arcs()`.
    explicit: Vec<Constraint>,
    /// The ASAP fixpoint of the current constraint set.
    times: PointTimes,
    stats: EditStats,
}

impl<'r> EditSession<'r> {
    /// Opens a session on a revision: derives the full constraint set once
    /// and computes its cold fixpoint. Every later [`EditSession::apply`]
    /// repairs incrementally.
    pub fn begin(
        revision: DocRevision,
        resolver: &'r dyn DescriptorResolver,
        options: ScheduleOptions,
    ) -> Result<EditSession<'r>> {
        let doc = revision.doc().clone();
        let mut structural = HashMap::new();
        for node in doc.preorder() {
            let mut shell = Vec::new();
            shell_constraints(&doc, node, &mut shell)?;
            structural.insert(node, shell);
        }
        let mut durations = HashMap::new();
        for leaf in doc.leaves() {
            durations.insert(
                leaf,
                leaf_duration_constraint(&doc, resolver, &options, leaf)?,
            );
        }
        let explicit = explicit_constraints(&doc, resolver)?;

        let mut session = EditSession {
            resolver,
            options,
            revision,
            structural,
            durations,
            explicit,
            times: PointTimes::default(),
            stats: EditStats::default(),
        };
        let all = session.assemble();
        session.stats.constraints_total = all.len();
        let mut times = PointTimes::zeroed(&doc);
        ConstraintKernel::build(&times, &all).relax(&mut times, "edit")?;
        session.times = times;
        Ok(session)
    }

    /// The current revision.
    pub fn revision(&self) -> &DocRevision {
        &self.revision
    }

    /// The ASAP fixpoint of the current revision's constraints.
    pub fn times(&self) -> &PointTimes {
        &self.times
    }

    /// Counters describing the last repair.
    pub fn stats(&self) -> &EditStats {
        &self.stats
    }

    /// Applies one edit: advances the revision, re-derives the dirty
    /// region's constraints, and repairs the fixpoint in place.
    ///
    /// When the edit itself is invalid (removing the root, retiming a
    /// missing arc, …) the session is unchanged. When the *repair* fails —
    /// the edit introduced a positive cycle
    /// ([`crate::SchedulerError::ConstraintCycle`]) or a time past the
    /// representable range ([`crate::SchedulerError::TimeOverflow`]), both
    /// with phase `"edit"` — the session must be discarded and reopened
    /// with [`EditSession::begin`].
    pub fn apply(&mut self, edit: &Edit) -> Result<EditDelta> {
        let (next, delta) = self.revision.apply(edit)?;
        self.revision = next;
        let doc = self.revision.doc().clone();

        // ---- 1. Re-derive the dirty region's constraint groups. --------
        // Targets of every removed or replaced constraint seed the reset
        // cone.
        let mut seeds: Vec<EventPoint> = Vec::new();
        let mut replaced = 0usize;
        let mut added = 0usize;
        // The constraints an edit discards and the ones it derives, kept so
        // the repair below can prove point times cannot *decrease* and skip
        // the reset cone entirely (the common case for single-subtree edits).
        let mut discarded: Vec<Constraint> = Vec::new();
        let mut fresh: Vec<Constraint> = Vec::new();

        let removed_set: HashSet<NodeId> = delta.removed.iter().copied().collect();
        for &node in &delta.removed {
            if let Some(old) = self.structural.remove(&node) {
                replaced += old.len();
                seeds.extend(old.iter().map(|c| c.target));
                discarded.extend(old);
            }
            if let Some(old) = self.durations.remove(&node) {
                replaced += 1;
                seeds.push(old.target);
                discarded.push(old);
            }
        }
        for &parent in &delta.dirty_parents {
            if let Some(old) = self.structural.remove(&parent) {
                replaced += old.len();
                seeds.extend(old.iter().map(|c| c.target));
                discarded.extend(old);
            }
            let mut shell = Vec::new();
            shell_constraints(&doc, parent, &mut shell)?;
            added += shell.len();
            fresh.extend(shell.iter().cloned());
            self.structural.insert(parent, shell);
        }
        let mut inserted_points: Vec<EventPoint> = Vec::new();
        if let Some(subtree_root) = delta.inserted {
            for node in subtree_preorder(&doc, subtree_root)? {
                let mut shell = Vec::new();
                shell_constraints(&doc, node, &mut shell)?;
                added += shell.len();
                fresh.extend(shell.iter().cloned());
                self.structural.insert(node, shell);
                inserted_points.push(EventPoint::begin(node));
                inserted_points.push(EventPoint::end(node));
            }
        }
        for &leaf in &delta.duration_dirty {
            if removed_set.contains(&leaf) {
                continue;
            }
            if let Some(old) = self.durations.remove(&leaf) {
                replaced += 1;
                seeds.push(old.target);
                discarded.push(old);
            }
            let constraint = leaf_duration_constraint(&doc, self.resolver, &self.options, leaf)?;
            added += 1;
            fresh.push(constraint.clone());
            self.durations.insert(leaf, constraint);
        }
        // Index-aligned positional diff of the explicit set: a retime
        // changes exactly one slot, a structural edit may shift or re-derive
        // many. Slots that compare equal cost nothing downstream.
        if delta.arcs_changed {
            let new_explicit = explicit_constraints(&doc, self.resolver)?;
            let slots = self.explicit.len().max(new_explicit.len());
            for i in 0..slots {
                if self.explicit.get(i) == new_explicit.get(i) {
                    continue;
                }
                if let Some(old) = self.explicit.get(i) {
                    replaced += 1;
                    seeds.push(old.target);
                    discarded.push(old.clone());
                }
                if let Some(new) = new_explicit.get(i) {
                    added += 1;
                    fresh.push(new.clone());
                }
            }
            self.explicit = new_explicit;
        }

        // ---- 2. Decide whether point times can decrease. ---------------
        // In the old fixpoint every value is justified by a well-founded
        // chain of *tight* constraints grounded at zero. A discarded
        // constraint that was slack was not part of any such chain, and a
        // tight one that is re-derived no weaker (same endpoints, bound at
        // least as high) still justifies the same value. When every
        // discarded constraint falls in one of those buckets — or its
        // target vanished with a removed node — no surviving point can end
        // up above the new least fixpoint, so the reset cone is provably
        // empty and the repair is pure increase-only propagation from the
        // dirty region. Only a genuinely lost support forces the cone.
        let removed_points: HashSet<EventPoint> = delta
            .removed
            .iter()
            .flat_map(|&n| [EventPoint::begin(n), EventPoint::end(n)])
            .collect();
        let needs_cone = discarded.iter().any(|old| {
            if removed_points.contains(&old.target) {
                return false;
            }
            let (Some(source_time), Some(target_time)) =
                (self.times.get(&old.source), self.times.get(&old.target))
            else {
                return false;
            };
            // An out-of-range bound proves nothing: take the cone.
            let Ok(bound) = old.lower_bound(source_time) else {
                return true;
            };
            if bound < target_time {
                return false; // slack: never supported the target's value
            }
            !fresh.iter().any(|new| {
                new.source == old.source
                    && new.target == old.target
                    && new.lower_bound(source_time).is_ok_and(|b| b >= bound)
            })
        });

        // ---- 3. Update the point set. ----------------------------------
        for &node in &delta.removed {
            self.times.remove(&EventPoint::begin(node));
            self.times.remove(&EventPoint::end(node));
        }
        for point in &inserted_points {
            self.times.insert_zero(*point);
        }

        // ---- 4. Reset cone + repair. -----------------------------------
        let all = self.assemble();
        let kernel = ConstraintKernel::build(&self.times, &all);

        // The reset cone: everything downstream (over the *new* edges) of a
        // removed constraint's target returns to zero. Values of points
        // outside the cone never depended on a removed constraint, so they
        // are already at most their new-fixpoint value. When step 2 proved
        // no support was lost, the cone is skipped outright — this is what
        // keeps a single-subtree edit from resetting the whole downstream
        // half of the document.
        let mut reset: HashSet<EventPoint> = HashSet::new();
        if needs_cone {
            let mut frontier: VecDeque<EventPoint> = VecDeque::new();
            for seed in seeds {
                if self.times.contains(&seed) && reset.insert(seed) {
                    frontier.push_back(seed);
                }
            }
            while let Some(point) = frontier.pop_front() {
                for target in kernel.successors(&point) {
                    if reset.insert(target) {
                        frontier.push_back(target);
                    }
                }
            }
            for point in &reset {
                self.times.insert_zero(*point);
            }
        }

        // Every point now sits at or below the new least fixpoint, so one
        // kernel run from here lands exactly on it; only the dirty region
        // actually rises.
        let updates = kernel.relax(&mut self.times, "edit")?;

        self.stats.edits_applied += 1;
        self.stats.last_reset_points = reset.len();
        self.stats.last_replaced = replaced;
        self.stats.last_added = added;
        self.stats.last_updates = updates;
        self.stats.constraints_total = all.len();
        Ok(delta)
    }

    /// Assembles the [`SolveResult`] of the current revision — identical,
    /// constraint order included, to a cold
    /// [`crate::graph::ConstraintGraph::derive`] + `solve` of the same
    /// document.
    pub fn solve_result(&self) -> Result<SolveResult> {
        let doc = self.revision.doc();
        let constraints = self.assemble();
        let violations = window_violations(&constraints, &self.times, "edit")?;
        let schedule = build_schedule(doc, self.resolver, &self.times)?;
        Ok(SolveResult {
            schedule,
            violations,
            constraints,
        })
    }

    /// The current constraint set in canonical (cold-derive) order:
    /// structural shells in preorder, leaf durations in `leaves()` order,
    /// explicit arcs in arc-index order.
    fn assemble(&self) -> Vec<Constraint> {
        let doc = self.revision.doc();
        let mut all = Vec::new();
        for node in doc.preorder() {
            if let Some(shell) = self.structural.get(&node) {
                all.extend(shell.iter().cloned());
            }
        }
        for leaf in doc.leaves() {
            if let Some(duration) = self.durations.get(&leaf) {
                all.push(duration.clone());
            }
        }
        all.extend(self.explicit.iter().cloned());
        all
    }
}

/// Collects `node` and all its descendants in preorder.
fn subtree_preorder(doc: &Document, node: NodeId) -> Result<Vec<NodeId>> {
    let mut out = Vec::new();
    let mut stack = vec![node];
    while let Some(id) = stack.pop() {
        out.push(id);
        for child in doc.node(id)?.children.iter().rev() {
            stack.push(*child);
        }
    }
    Ok(out)
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
        let incremental = session.solve_result().unwrap();
        let cold = cold_solve(session.revision().doc());
        assert_eq!(incremental, cold);
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
    fn insert_subtree_repairs_to_the_cold_fixpoint() {
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
    fn remove_subtree_repairs_to_the_cold_fixpoint() {
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
    fn retime_arc_repairs_to_the_cold_fixpoint() {
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
    fn descriptor_and_channel_edits_repair_to_the_cold_fixpoint() {
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
}
