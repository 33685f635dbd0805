//! A small safety (invariant) checker on the BFV engine — the "symbolic
//! simulation based model checker" the paper's conclusion aims at.
//!
//! [`check_invariant`] runs the shared fixed-point driver on a
//! [`BfvBackend`] and stops it at the first set (initial or image) that
//! meets the bad set under the §2.4 intersection.
//!
//! That hit is depth-exact whichever set the frontier rule iterates
//! from: image `i` holds every state at exact depth `i` and none deeper,
//! since it is taken of a set that holds those of depth `i − 1`.

use std::fmt;

use bfvr_bdd::BddManager;
use bfvr_bfv::{ops, Bfv, StateSet};
use bfvr_sim::EncodedFsm;

use crate::backends::BfvBackend;
use crate::common::{EngineKind, Outcome, ReachOptions};
use crate::driver::run_fixed_point;

/// The verdict of an invariant check.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckResult {
    /// No reachable state intersects the bad set; the full reachable set
    /// was explored in the given number of iterations.
    Holds {
        /// Image iterations to the fixed point.
        iterations: usize,
    },
    /// A bad state is reachable; `witness` is one such state (component
    /// order) and `depth` the number of image steps at which it appeared
    /// (0 = the initial state itself).
    Violated {
        /// Steps from the initial state.
        depth: usize,
        /// A reachable bad state.
        witness: Vec<bool>,
    },
}

/// A [`check_invariant`] or [`find_trace`](crate::find_trace) search
/// that ended without a verdict: its run stopped on a limit or an error
/// before any image met the target and before the fixed point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoVerdict {
    /// How the run ended.
    pub outcome: Outcome,
    /// Image iterations completed before it ended.
    pub iterations: usize,
}

impl fmt::Display for NoVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let why = match self.outcome {
            Outcome::MemOut => "bdd node limit exceeded",
            Outcome::TimeOut => "bdd operation deadline exceeded",
            Outcome::IterationLimit => "iteration cap reached",
            Outcome::Error | Outcome::FixedPoint => "internal error",
        };
        let (n, label) = (self.iterations, self.outcome.label());
        write!(f, "no verdict at iteration {n}: {why} ({label})")
    }
}

impl std::error::Error for NoVerdict {}

/// Runs the driver on a [`BfvBackend`] until the initial set or an image
/// meets `target`; `keep` sees each of those sets first. Returns the
/// run's iterations, which on a hit are the hit's depth, and the witness
/// of a hit: the hit evaluated at the all-false choice point, which for
/// a canonical vector is its lexicographically smallest member.
pub(crate) fn search(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    target: &StateSet,
    opts: &ReachOptions,
    mut keep: impl FnMut(&BddManager, &Bfv),
) -> Result<(usize, Option<Vec<bool>>), NoVerdict> {
    let space = fsm.space();
    let target = target.as_bfv();
    // The driver collects against its own loop state only.
    let _target_pins = target.map(|t| t.pin(m));
    let mut witness = None;
    let stop = |m: &mut BddManager, set: &Bfv| {
        keep(m, set);
        let Some(t) = target else { return Ok(false) };
        let Some(hit) = ops::intersect(m, &space, set, t)? else {
            return Ok(false);
        };
        witness = Some(hit.eval(m, &space, &vec![false; space.len()])?);
        Ok(true)
    };
    let mut backend = BfvBackend::new(fsm, opts.schedule);
    let r = run_fixed_point(EngineKind::Bfv, &mut backend, m, fsm, opts, None, stop);
    if witness.is_none() && r.outcome != Outcome::FixedPoint {
        let (outcome, iterations) = (r.outcome, r.iterations);
        return Err(NoVerdict {
            outcome,
            iterations,
        });
    }
    Ok((r.iterations, witness))
}

/// Checks that no state of `bad` is reachable from the initial state.
///
/// The run collects garbage as `bfvr reach` does: pin any other set
/// that must outlive it.
///
/// # Errors
///
/// Returns [`NoVerdict`] when the run stops short of both a bad state
/// and the fixed point: on the node, time or iteration limits of `opts`,
/// which are armed for the duration of the check, or on an internal
/// error.
pub fn check_invariant(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    bad: &StateSet,
    opts: &ReachOptions,
) -> Result<CheckResult, NoVerdict> {
    Ok(match search(m, fsm, bad, opts, |_, _| {})? {
        (iterations, None) => CheckResult::Holds { iterations },
        (depth, Some(witness)) => CheckResult::Violated { depth, witness },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfvr_netlist::generators;
    use bfvr_sim::OrderHeuristic;

    #[test]
    fn one_hot_invariant_holds_on_rotator() {
        let net = generators::rotator(5);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let space = fsm.space();
        // Bad: all-zero state (token lost).
        let bad = StateSet::singleton(&mut m, &space, &[false; 5]).unwrap();
        let r = check_invariant(&mut m, &fsm, &bad, &ReachOptions::default()).unwrap();
        assert!(matches!(r, CheckResult::Holds { .. }));
    }

    #[test]
    fn johnson_cannot_reach_alternating_pattern() {
        let net = generators::johnson(4);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let space = fsm.space();
        // 1010 is not a Johnson code word.
        let comp_state: Vec<bool> = (0..4)
            .map(|c| {
                let l = fsm.latch_of_component(c);
                [true, false, true, false][l]
            })
            .collect();
        let bad = StateSet::singleton(&mut m, &space, &comp_state).unwrap();
        let r = check_invariant(&mut m, &fsm, &bad, &ReachOptions::default()).unwrap();
        assert!(matches!(r, CheckResult::Holds { .. }));
    }

    #[test]
    fn counter_reaches_its_max_with_correct_depth() {
        let net = generators::counter(4);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let space = fsm.space();
        // Bad: value 15 (all ones), reachable in exactly 15 steps.
        let comp_state: Vec<bool> = (0..4).map(|_| true).collect();
        let bad = StateSet::singleton(&mut m, &space, &comp_state).unwrap();
        match check_invariant(&mut m, &fsm, &bad, &ReachOptions::default()).unwrap() {
            CheckResult::Violated { depth, witness } => {
                assert_eq!(depth, 15);
                assert_eq!(witness, comp_state);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn initial_state_violation_found_at_depth_zero() {
        let net = generators::counter(3);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let space = fsm.space();
        let bad = StateSet::singleton(&mut m, &space, &fsm.initial_state()).unwrap();
        match check_invariant(&mut m, &fsm, &bad, &ReachOptions::default()).unwrap() {
            CheckResult::Violated { depth, .. } => assert_eq!(depth, 0),
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn queue_never_overflows() {
        let net = generators::queue_controller(2);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let space = fsm.space();
        // Bad: count > capacity, i.e. count bit k set AND another bit set.
        // Find the component positions of count bits q2 (msb) and q0.
        let mut pattern = vec![None; space.len()];
        #[allow(clippy::needless_range_loop)] // pattern[c] written by latch position
        for c in 0..space.len() {
            let l = fsm.latch_of_component(c);
            // Latch order: h0,h1,q0,q1,q2,t0,t1 (declaration order of the
            // generator). count msb = q2 = latch index 4; q0 = index 2.
            if l == 4 {
                pattern[c] = Some(true);
            }
            if l == 2 {
                pattern[c] = Some(true);
            }
        }
        let bad = StateSet::from_cube(&m, &space, &pattern).unwrap();
        let r = check_invariant(&mut m, &fsm, &bad, &ReachOptions::default()).unwrap();
        assert!(
            matches!(r, CheckResult::Holds { .. }),
            "count exceeded capacity: {r:?}"
        );
    }

    #[test]
    fn verdicts_on_assorted_circuits() {
        // (circuit, bad state by latch index, invariant holds)
        let cases: Vec<(bfvr_netlist::Netlist, Vec<bool>, bool)> = vec![
            // counter(4) reaches all states: bad = 1111 is reachable.
            (generators::counter(4), vec![true; 4], false),
            // johnson(4) cannot reach 0101 (latch order).
            (generators::johnson(4), vec![false, true, false, true], true),
            // mod-5 counter never shows value 7 (binary 111).
            (generators::counter_modk(3, 5), vec![true, true, true], true),
        ];
        for (net, bad_latch_bits, expect_holds) in cases {
            let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
            let space = fsm.space();
            let comp_bits: Vec<bool> = (0..space.len())
                .map(|c| bad_latch_bits[fsm.latch_of_component(c)])
                .collect();
            let bad = StateSet::singleton(&mut m, &space, &comp_bits).unwrap();
            let r = check_invariant(&mut m, &fsm, &bad, &ReachOptions::default()).unwrap();
            let holds = matches!(r, CheckResult::Holds { .. });
            assert_eq!(holds, expect_holds, "{} wrong verdict", net.name());
        }
    }

    #[test]
    fn a_capped_run_is_no_verdict() {
        // 1111 is 15 images away: three images decide nothing.
        let net = generators::counter(4);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let bad = StateSet::singleton(&mut m, &fsm.space(), &[true; 4]).unwrap();
        let opts = ReachOptions {
            max_iterations: Some(3),
            ..ReachOptions::default()
        };
        let stopped = NoVerdict {
            outcome: Outcome::IterationLimit,
            iterations: 3,
        };
        assert_eq!(check_invariant(&mut m, &fsm, &bad, &opts), Err(stopped));
        assert_eq!(crate::find_trace(&mut m, &fsm, &bad, &opts), Err(stopped));
        let text = "no verdict at iteration 3: iteration cap reached (I.L.)";
        assert_eq!(stopped.to_string(), text);
    }

    #[test]
    fn forced_collections_change_no_verdict_witness_or_trace() {
        // Non-cube targets: their components are not plain variables or
        // constants, so only their pins keep them across a collection.
        let net = generators::counter(5);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let comp = |v: u32| -> Vec<bool> {
            let bit = |c| v >> fsm.latch_of_component(c) & 1 == 1;
            (0..5).map(bit).collect()
        };
        let observer: crate::IterationObserver = std::rc::Rc::new(|_, _, _| {});
        let observed = ReachOptions {
            observer: Some(observer),
            ..ReachOptions::default()
        };
        for values in [&[4, 19, 22][..], &[9, 30]] {
            let points: Vec<Vec<bool>> = values.iter().map(|&v| comp(v)).collect();
            // Not pinned here: each run must pin its target itself.
            let target = StateSet::from_points(&mut m, &fsm.space(), &points).unwrap();
            let [plain, forced] = [&ReachOptions::default(), &observed].map(|opts| {
                let verdict = check_invariant(&mut m, &fsm, &target, opts).unwrap();
                (
                    verdict,
                    crate::find_trace(&mut m, &fsm, &target, opts).unwrap(),
                )
            });
            assert_eq!(forced, plain, "{values:?}");
            // The counter reaches value v at depth v: the smallest value
            // is the witness, alone at its depth.
            let (depth, witness) = (values[0] as usize, points[0].clone());
            assert_eq!(forced.0, CheckResult::Violated { depth, witness });
        }
    }
}
