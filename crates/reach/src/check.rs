//! A small safety (invariant) checker on the BFV engine — the "symbolic
//! simulation based model checker" the paper's conclusion aims at.
//!
//! Forward reachability with intersection tests against a bad-state set
//! each iteration (the §2.4 intersection algorithm doing real work), with
//! counterexample extraction on violation.

use bfvr_bdd::BddManager;
use bfvr_bfv::{BfvError, StateSet};
use bfvr_sim::{simulate_image_with, EncodedFsm};

use crate::common::{arm_limits, disarm_limits, ReachOptions};

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

/// Checks that no state of `bad` is reachable from the initial state.
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion: the node, time and cache
/// limits of `opts` are armed for the duration of the check.
pub fn check_invariant(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    bad: &StateSet,
    opts: &ReachOptions,
) -> Result<CheckResult, BfvError> {
    arm_limits(m, opts);
    let verdict = check_armed(m, fsm, bad, opts);
    disarm_limits(m);
    verdict
}

/// [`check_invariant`] under already-armed limits.
fn check_armed(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    bad: &StateSet,
    opts: &ReachOptions,
) -> Result<CheckResult, BfvError> {
    let space = fsm.space();
    let init = StateSet::singleton(m, &space, &fsm.initial_state())?;
    let mut reached = init;
    // Depth 0: the initial state itself may be bad.
    let mut depth = 0usize;
    let mut hit = reached.intersect(m, &space, bad)?;
    let mut from = reached.clone();
    while hit.is_empty() {
        if opts.max_iterations.is_some_and(|cap| depth >= cap) {
            return Ok(CheckResult::Holds { iterations: depth });
        }
        m.check_deadline()?;
        // The from-set grows from a non-empty singleton and images of
        // non-empty sets are non-empty; an empty one means exploration
        // is already complete.
        let Some(from_bfv) = from.as_bfv() else {
            return Ok(CheckResult::Holds { iterations: depth });
        };
        let img = simulate_image_with(m, fsm, from_bfv, opts.schedule)?;
        let img_set = StateSet::NonEmpty(img);
        let new_reached = reached.union(m, &space, &img_set)?;
        depth += 1;
        if new_reached == reached {
            return Ok(CheckResult::Holds { iterations: depth });
        }
        // Only new states can newly violate; checking the image set keeps
        // the witness depth-minimal for the frontier strategy.
        hit = img_set.intersect(m, &space, bad)?;
        reached = new_reached;
        from = if opts.use_frontier {
            img_set
        } else {
            reached.clone()
        };
    }
    // The loop only exits on a non-empty intersection, which has a member.
    match hit.members(m, &space)?.into_iter().next() {
        Some(witness) => Ok(CheckResult::Violated { depth, witness }),
        None => Ok(CheckResult::Holds { iterations: depth }),
    }
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
}
