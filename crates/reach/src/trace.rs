//! Counterexample trace extraction: a concrete run from the initial
//! state to a target state, with the input vector driving every step.
//!
//! [`find_trace`] runs the invariant checker's search and keeps every
//! image as an "onion ring"; a target found in ring `d` is then walked
//! backwards: for each step, a predecessor in the previous ring and a
//! concrete input are extracted from the BDD
//! `⋀_l (δ_l(v,w) ↔ s_{i}[l]) ∧ χ_{ring_{i-1}}(v)` with a single
//! `pick_minterm`. Ring `i − 1` holds every state of exact depth `i − 1`
//! and none deeper, so it holds a predecessor of a state of exact depth
//! `i`, and only ones of depth `i − 1`. The result is checked against
//! the netlist-level semantics by the tests.

use std::time::Instant;

use bfvr_bdd::{BddManager, Func};
use bfvr_bfv::{convert, Bfv, BfvError, StateSet};
use bfvr_sim::EncodedFsm;

use crate::check::{search, NoVerdict};
use crate::common::{arm_limits, disarm_limits, outcome_of_bfv_error, Outcome, ReachOptions};

/// A concrete run of the machine: `states[0]` is the initial state,
/// `inputs[i]` drives the step from `states[i]` to `states[i+1]`.
///
/// All bit-vectors are in *component order* (see
/// [`bfvr_sim::EncodedFsm::latch_of_component`] to map back to latches).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Visited states, component order, length `k+1` for a depth-`k` trace.
    pub states: Vec<Vec<bool>>,
    /// Inputs applied at each step (netlist input order), length `k`.
    pub inputs: Vec<Vec<bool>>,
}

impl Trace {
    /// Number of steps.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.inputs.len()
    }
}

/// Finds a minimal-depth concrete trace from the initial state into
/// `target`, or `None` if `target` is unreachable.
///
/// ```
/// use bfvr_bfv::StateSet;
/// use bfvr_netlist::generators;
/// use bfvr_reach::{find_trace, ReachOptions};
/// use bfvr_sim::{EncodedFsm, OrderHeuristic};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = generators::shift_register(4);
/// let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin)?;
/// let space = fsm.space();
/// // All-ones takes exactly 4 shifts of d=1 to reach.
/// let target = StateSet::singleton(&mut m, &space, &vec![true; 4])?;
/// let trace = find_trace(&mut m, &fsm, &target, &ReachOptions::default())?.unwrap();
/// assert_eq!(trace.depth(), 4);
/// assert!(trace.inputs.iter().all(|i| i[0]));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`NoVerdict`] when the search stops short of both the target
/// and the fixed point (see [`crate::check_invariant`]), or when the
/// backward pass runs out of what is left of the node and time limits of
/// `opts`.
pub fn find_trace(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    target: &StateSet,
    opts: &ReachOptions,
) -> Result<Option<Trace>, NoVerdict> {
    let start = Instant::now();
    // Ring `i` is image `i`, ring 0 the initial set; pinned, since the
    // driver collects against its own loop state only.
    let mut rings: Vec<(Bfv, Vec<Func>)> = Vec::new();
    let keep = |m: &BddManager, set: &Bfv| rings.push((set.clone(), set.pin(m)));
    let (depth, Some(end)) = search(m, fsm, target, opts, keep)? else {
        return Ok(None);
    };
    // The backward pass spends what is left of the run's budget.
    arm_limits(m, opts, start);
    let mut states = vec![end];
    let mut inputs = Vec::new();
    let walked = rings[..depth].iter().rev().try_for_each(|(ring, _)| {
        let (prev, input) = step_back(m, fsm, ring, &states[states.len() - 1])?;
        states.push(prev);
        inputs.push(input);
        Ok(())
    });
    disarm_limits(m);
    walked.map_err(|outcome| NoVerdict {
        outcome,
        iterations: depth,
    })?;
    states.reverse();
    inputs.reverse();
    Ok(Some(Trace { states, inputs }))
}

/// Finds some `(state ∈ ring, input)` with `δ(state, input) = next`, in
/// component and input order.
/// There is one for a state of the ring after `ring` (see the module
/// docs); failing that, the outcome is [`Outcome::Error`].
fn step_back(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    ring: &Bfv,
    next: &[bool],
) -> Result<(Vec<bool>, Vec<bool>), Outcome> {
    let space = fsm.space();
    let outcome = |e: BfvError| outcome_of_bfv_error(&e);
    // cond(v, w) = ⋀_c (δ_c(v,w) ↔ next[c]) ∧ χ_ring(v)
    let mut cond = convert::to_characteristic(m, &space, ring).map_err(outcome)?;
    for (c, next_fn) in fsm.next_fns_in_component_order().into_iter().enumerate() {
        let lit = if next[c] { next_fn } else { m.not(next_fn) };
        cond = m.and(cond, lit).map_err(|e| outcome(e.into()))?;
        if cond.is_false() {
            break;
        }
    }
    let asg = m.pick_minterm(cond, m.num_vars()).ok_or(Outcome::Error)?;
    let state: Vec<bool> = space.vars().iter().map(|v| asg[v.0 as usize]).collect();
    let inputs: Vec<bool> = (0..fsm.num_inputs())
        .map(|i| asg[fsm.input_var(i).0 as usize])
        .collect();
    Ok((state, inputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfvr_netlist::{generators, Netlist};
    use bfvr_sim::OrderHeuristic;

    /// Replays a trace on one lane of the netlist interpreter and checks
    /// every step.
    fn validate(net: &Netlist, fsm: &EncodedFsm, trace: &Trace) {
        // Component-order state to one lane in latch order.
        let lane = |comp_state: &[bool]| -> Vec<u64> {
            let mut latch = vec![0; comp_state.len()];
            for (c, &b) in comp_state.iter().enumerate() {
                latch[fsm.latch_of_component(c)] = u64::from(b);
            }
            latch
        };
        let reset: Vec<u64> = net.initial_state().into_iter().map(u64::from).collect();
        assert_eq!(lane(&trace.states[0]), reset, "trace must start at reset");
        for (i, inp) in trace.inputs.iter().enumerate() {
            let inputs: Vec<u64> = inp.iter().map(|&b| u64::from(b)).collect();
            let (next, _) = net.step_words(&lane(&trace.states[i]), &inputs).unwrap();
            let got: Vec<u64> = next.iter().map(|w| w & 1).collect();
            assert_eq!(
                got,
                lane(&trace.states[i + 1]),
                "replay diverged at step {i}"
            );
        }
    }

    #[test]
    fn counter_trace_to_seven() {
        let net = generators::counter(4);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let space = fsm.space();
        // Target: counter value 7 (latch bits 1110 lsb-first).
        let comp: Vec<bool> = (0..4)
            .map(|c| [true, true, true, false][fsm.latch_of_component(c)])
            .collect();
        let target = StateSet::singleton(&mut m, &space, &comp).unwrap();
        let trace = find_trace(&mut m, &fsm, &target, &ReachOptions::default())
            .unwrap()
            .expect("7 is reachable");
        assert_eq!(trace.depth(), 7, "minimal depth to value 7");
        validate(&net, &fsm, &trace);
        // Every step of a counter trace must have en = 1.
        assert!(
            trace.inputs.iter().all(|i| i[0]),
            "counter must be enabled every step"
        );
    }

    #[test]
    fn unreachable_target_returns_none() {
        let net = generators::johnson(5);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let space = fsm.space();
        // 10101 is not a Johnson code word.
        let comp: Vec<bool> = (0..5)
            .map(|c| [true, false, true, false, true][fsm.latch_of_component(c)])
            .collect();
        let target = StateSet::singleton(&mut m, &space, &comp).unwrap();
        assert!(find_trace(&mut m, &fsm, &target, &ReachOptions::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn depth_zero_trace_for_initial_state() {
        let net = generators::rotator(4);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::Declaration).unwrap();
        let space = fsm.space();
        let target = StateSet::singleton(&mut m, &space, &fsm.initial_state()).unwrap();
        let trace = find_trace(&mut m, &fsm, &target, &ReachOptions::default())
            .unwrap()
            .unwrap();
        assert_eq!(trace.depth(), 0);
        assert_eq!(trace.states, vec![fsm.initial_state()]);
    }

    #[test]
    fn queue_trace_reaches_full() {
        let net = generators::queue_controller(2);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let space = fsm.space();
        // Target cube: the capacity bit of count (latch index 4 = q2) set.
        let mut pattern = vec![None; space.len()];
        #[allow(clippy::needless_range_loop)]
        for c in 0..space.len() {
            if fsm.latch_of_component(c) == 4 {
                pattern[c] = Some(true);
            }
        }
        let target = StateSet::from_cube(&m, &space, &pattern).unwrap();
        let trace = find_trace(&mut m, &fsm, &target, &ReachOptions::default())
            .unwrap()
            .unwrap();
        // Filling a 4-slot FIFO takes exactly 4 pushes.
        assert_eq!(trace.depth(), 4);
        validate(&net, &fsm, &trace);
    }

    #[test]
    fn trace_on_multi_state_target_picks_minimal_depth() {
        let net = generators::shift_register(5);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let space = fsm.space();
        // Target: any state with stage 0 set — reachable in one step.
        let mut pattern = vec![None; space.len()];
        #[allow(clippy::needless_range_loop)]
        for c in 0..space.len() {
            if fsm.latch_of_component(c) == 0 {
                pattern[c] = Some(true);
            }
        }
        let target = StateSet::from_cube(&m, &space, &pattern).unwrap();
        let trace = find_trace(&mut m, &fsm, &target, &ReachOptions::default())
            .unwrap()
            .unwrap();
        assert_eq!(trace.depth(), 1);
        validate(&net, &fsm, &trace);
        assert!(trace.inputs[0][0], "d must be 1 to set stage 0");
    }
}
