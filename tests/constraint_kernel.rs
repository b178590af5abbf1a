//! Equivalence of the one relaxation kernel with a naive reference.
//!
//! Solve, playback, lint and live edits all relax through
//! `ConstraintKernel` (Kahn order over the acyclic part, a FIFO worklist in
//! rounds for points on or downstream of a cycle). This suite pins it
//! against the simplest correct algorithm — repeated full passes over every
//! constraint until nothing changes, computed in `i128` so overflow can be
//! classified — on random trees with random explicit constraints:
//! back-edges, zero-weight and positive cycles, negative minimum delays and
//! offsets near `i64::MAX`. Each case runs cold, with per-leaf startup
//! latencies, and with injected constraints warm-started from the base
//! fixpoint. Both sides must agree on every event time or on the error
//! kind: a positive cycle is `ConstraintCycle`; otherwise a least fixpoint
//! beyond `i64` milliseconds is `TimeOverflow`.

use std::collections::HashMap;

use cmif::core::arc::Strictness;
use cmif::core::node::{NodeId, NodeKind};
use cmif::core::time::TimeMs;
use cmif::core::tree::Document;
use cmif::scheduler::{
    causal_times, derive_structural, Constraint, ConstraintGraph, ConstraintOrigin, EventPoint,
    PointTimes, SchedulerError,
};

use proptest::prelude::*;

/// Splitmix-style generator so cases derive deterministically from a
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

    fn millis(&mut self, n: usize) -> i64 {
        self.below(n) as i64
    }
}

/// The outcome both sides are compared on.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Times(Vec<(EventPoint, i64)>),
    Cycle,
    Overflow,
}

impl Outcome {
    fn of(result: Result<PointTimes, SchedulerError>) -> Outcome {
        match result {
            Ok(times) => {
                let mut times: Vec<_> = times.iter().map(|(p, t)| (p, t.as_millis())).collect();
                times.sort_by_key(|(p, _)| (p.node, p.anchor.as_str()));
                Outcome::Times(times)
            }
            Err(SchedulerError::ConstraintCycle { .. }) => Outcome::Cycle,
            Err(SchedulerError::TimeOverflow { .. }) => Outcome::Overflow,
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
}

/// The reference: full passes over every constraint until nothing changes,
/// exact in `i128`. A graph still changing after |points| + 1 passes holds
/// a positive cycle; otherwise a settled time beyond `i64` is an overflow.
fn reference(
    points: &[EventPoint],
    constraints: &[&Constraint],
    latencies: Option<&HashMap<NodeId, i64>>,
    start: &HashMap<EventPoint, i128>,
) -> Result<HashMap<EventPoint, i128>, Outcome> {
    let mut times: HashMap<EventPoint, i128> = points
        .iter()
        .map(|p| (*p, start.get(p).copied().unwrap_or(0)))
        .collect();
    let max_passes = points.len() + 1;
    for _ in 0..max_passes {
        let mut changed = false;
        for constraint in constraints {
            let (Some(&source), Some(&target)) =
                (times.get(&constraint.source), times.get(&constraint.target))
            else {
                continue;
            };
            let mut bound =
                source + i128::from(constraint.offset_ms) + i128::from(constraint.min_delay_ms);
            if constraint.target == EventPoint::begin(constraint.target.node) {
                if let Some(latency) = latencies.and_then(|l| l.get(&constraint.target.node)) {
                    bound += i128::from(*latency);
                }
            }
            if bound > target {
                times.insert(constraint.target, bound);
                changed = true;
            }
        }
        if !changed {
            if times.values().any(|t| *t > i128::from(i64::MAX)) {
                return Err(Outcome::Overflow);
            }
            return Ok(times);
        }
    }
    Err(Outcome::Cycle)
}

fn settled(times: HashMap<EventPoint, i128>) -> Outcome {
    let mut times: Vec<_> = times.into_iter().map(|(p, t)| (p, t as i64)).collect();
    times.sort_by_key(|(p, _)| (p.node, p.anchor.as_str()));
    Outcome::Times(times)
}

fn explicit(source: EventPoint, target: EventPoint, offset_ms: i64, min: i64) -> Constraint {
    Constraint {
        source,
        target,
        offset_ms,
        min_delay_ms: min,
        max_delay_ms: None,
        strictness: Strictness::May,
        origin: ConstraintOrigin::Explicit {
            carrier: target.node,
            index: 0,
        },
    }
}

/// One random arc, or a pair forming a zero-weight or positive cycle.
fn random_arcs(rng: &mut Rng, points: &[EventPoint], out: &mut Vec<Constraint>) {
    let a = points[rng.below(points.len())];
    let b = points[rng.below(points.len())];
    let offset = match rng.below(10) {
        0 => i64::MAX - rng.millis(2_000),
        1 => i64::MAX / 2 + rng.millis(2_000),
        2..=4 => -rng.millis(100_000),
        5 => 0,
        6 => i64::MIN + rng.millis(2_000),
        _ => rng.millis(5_000),
    };
    let min = match rng.below(5) {
        0 => -rng.millis(3_000),
        1 => i64::MIN / 2,
        _ => 0,
    };
    match rng.below(8) {
        // A back-and-forth pair: weights w and -w (zero-weight cycle) or
        // -w + 1 (positive cycle).
        0 | 1 => {
            let w = rng.millis(4_000);
            out.push(explicit(a, b, w, 0));
            out.push(explicit(b, a, -w + rng.millis(2), 0));
        }
        _ => out.push(explicit(a, b, offset, min)),
    }
}

struct Case {
    doc: Document,
    points: Vec<EventPoint>,
    base: Vec<Constraint>,
    injected: Vec<Constraint>,
    latencies: HashMap<NodeId, i64>,
}

fn random_case(seed: u64) -> Case {
    let mut rng = Rng(seed);
    let kind = |rng: &mut Rng| {
        if rng.below(2) == 0 {
            NodeKind::Seq
        } else {
            NodeKind::Par
        }
    };
    let mut doc = Document::with_root(kind(&mut rng));
    let root = doc.root().unwrap();
    let mut composites = vec![root];
    for _ in 0..1 + rng.below(16) {
        let parent = composites[rng.below(composites.len())];
        if rng.below(3) == 0 {
            let child = kind(&mut rng);
            composites.push(doc.add_child(parent, child).unwrap());
        } else {
            doc.add_imm_text(parent, "x").unwrap();
        }
    }

    let mut base = Vec::new();
    derive_structural(&doc, root, &mut base).unwrap();
    let mut latencies = HashMap::new();
    for leaf in doc.leaves() {
        let duration = if rng.below(12) == 0 {
            i64::MAX / 3
        } else {
            rng.millis(5_000)
        };
        base.push(Constraint {
            source: EventPoint::begin(leaf),
            target: EventPoint::end(leaf),
            offset_ms: duration,
            min_delay_ms: 0,
            max_delay_ms: None,
            strictness: Strictness::Must,
            origin: ConstraintOrigin::LeafDuration,
        });
        let latency = if rng.below(20) == 0 {
            i64::MAX - rng.millis(10)
        } else {
            rng.millis(300)
        };
        latencies.insert(leaf, latency);
    }
    let points: Vec<EventPoint> = doc
        .preorder()
        .into_iter()
        .flat_map(|n| [EventPoint::begin(n), EventPoint::end(n)])
        .collect();
    for _ in 0..rng.below(4) {
        random_arcs(&mut rng, &points, &mut base);
    }
    let mut injected = Vec::new();
    for _ in 0..rng.below(3) {
        random_arcs(&mut rng, &points, &mut injected);
    }
    Case {
        doc,
        points,
        base,
        injected,
        latencies,
    }
}

fn check(case: &Case) {
    let base: Vec<&Constraint> = case.base.iter().collect();
    let combined: Vec<&Constraint> = case.base.iter().chain(&case.injected).collect();
    let zero = HashMap::new();

    // Cold, over the base set.
    let mut graph = ConstraintGraph::from_constraints(&case.doc, case.base.clone()).unwrap();
    let expected_base = reference(&case.points, &base, None, &zero);
    let cold = Outcome::of(graph.relax());
    let expected = match &expected_base {
        Ok(times) => settled(times.clone()),
        Err(kind) => kind.clone(),
    };
    prop_assert_eq!(&cold, &expected, "cold base relaxation");

    // Warm: inject on top of the cached base fixpoint.
    graph.inject_all(case.injected.iter().cloned());
    let warm = Outcome::of(graph.relax());
    let expected_warm = match expected_base {
        Ok(start) => match reference(&case.points, &combined, None, &start) {
            Ok(times) => settled(times),
            Err(kind) => kind,
        },
        Err(kind) => kind,
    };
    prop_assert_eq!(&warm, &expected_warm, "warm-started injected relaxation");

    // Cold with startup latencies over base ∪ injected: playback's causal
    // relaxation, the one `PlayerSession` runs.
    let played = Outcome::of(causal_times(
        &case.doc,
        graph.constraints(),
        &case.latencies,
    ));
    let expected_played = match reference(&case.points, &combined, Some(&case.latencies), &zero) {
        Ok(times) => settled(times),
        Err(kind) => kind,
    };
    prop_assert_eq!(&played, &expected_played, "latency relaxation");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The kernel agrees with the naive reference on every random case:
    /// same times, or the same error kind.
    #[test]
    fn the_kernel_matches_the_naive_reference(seed in 0u64..u64::MAX) {
        check(&random_case(seed));
    }
}

/// A two-leaf `seq` plus hand-written arcs between its leaves' points.
fn two_leaves(arcs: &[(usize, usize, i64)]) -> Case {
    let mut doc = Document::with_root(NodeKind::Seq);
    let root = doc.root().unwrap();
    let first = doc.add_imm_text(root, "a").unwrap();
    let second = doc.add_imm_text(root, "b").unwrap();
    let mut base = Vec::new();
    derive_structural(&doc, root, &mut base).unwrap();
    let points: Vec<EventPoint> = doc
        .preorder()
        .into_iter()
        .flat_map(|n| [EventPoint::begin(n), EventPoint::end(n)])
        .collect();
    for &(from, to, weight) in arcs {
        base.push(explicit(points[from], points[to], weight, 0));
    }
    let latencies = [(first, 10), (second, 20)].into_iter().collect();
    Case {
        doc,
        points,
        base,
        injected: Vec::new(),
        latencies,
    }
}

fn relax(case: &Case) -> Outcome {
    Outcome::of(
        ConstraintGraph::from_constraints(&case.doc, case.base.clone())
            .unwrap()
            .relax(),
    )
}

#[test]
fn zero_weight_cycles_converge() {
    // begin(first) <-> begin(second), +700 one way and -700 back.
    let case = two_leaves(&[(2, 4, 700), (4, 2, -700)]);
    assert!(matches!(relax(&case), Outcome::Times(_)));
    check(&case);
}

#[test]
fn positive_cycles_are_cycles_even_when_they_would_overflow() {
    // A positive cycle whose weights overflow within a few laps: the
    // cycle, not the overflow, is the verdict.
    let case = two_leaves(&[(2, 4, i64::MAX / 2), (4, 2, 1 - i64::MAX / 2)]);
    assert_eq!(relax(&case), Outcome::Cycle);
    check(&case);
}

#[test]
fn an_overflowing_chain_is_an_overflow() {
    let case = two_leaves(&[(2, 4, i64::MAX / 2 + 1), (4, 5, i64::MAX / 2 + 1)]);
    assert_eq!(relax(&case), Outcome::Overflow);
    check(&case);
}

#[test]
fn a_bound_that_fits_only_exactly_is_not_an_overflow() {
    // offset MAX and min-delay -MAX/2 wrap if summed stepwise; exactly,
    // the bound fits.
    let mut case = two_leaves(&[]);
    case.base.push(explicit(
        case.points[2],
        case.points[4],
        i64::MAX,
        -i64::MAX / 2,
    ));
    let Outcome::Times(times) = relax(&case) else {
        panic!("expected times");
    };
    assert!(times.contains(&(case.points[4], i64::MAX - i64::MAX / 2)));
    check(&case);
}

#[test]
fn points_report_their_times_densely() {
    let case = two_leaves(&[]);
    let times = ConstraintGraph::from_constraints(&case.doc, case.base.clone())
        .unwrap()
        .relax()
        .unwrap();
    assert_eq!(times.len(), case.points.len());
    for point in &case.points {
        assert_eq!(times.get(point), Some(times[point]));
        assert!(times[point] >= TimeMs::ZERO);
    }
    let stranger = EventPoint::begin(NodeId::from_index(999));
    assert_eq!(times.get(&stranger), None);
}
