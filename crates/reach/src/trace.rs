//! Counterexample trace extraction: a concrete run from the initial
//! state to a target state, with the input vector driving every step.
//!
//! Forward reachability remembers its frontier "onion rings"; a target
//! found in ring `d` is then walked backwards — for each step, a
//! predecessor in the previous ring and a concrete input are extracted
//! from the BDD `⋀_l (δ_l(v,w) ↔ s_{i}[l]) ∧ χ_{ring_{i-1}}(v)` with a
//! single `pick_minterm`. The result is checked against the netlist-level
//! semantics by the tests (and can be replayed on any simulator).

use bfvr_bdd::BddManager;
use bfvr_bfv::{BfvError, StateSet};
use bfvr_sim::{simulate_image_with, EncodedFsm};

use crate::common::{arm_limits, disarm_limits, ReachOptions};

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
/// Fails on BDD resource-limit exhaustion: the node, time and cache
/// limits of `opts` are armed for the duration of the search.
pub fn find_trace(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    target: &StateSet,
    opts: &ReachOptions,
) -> Result<Option<Trace>, BfvError> {
    arm_limits(m, opts);
    let trace = find_armed(m, fsm, target, opts);
    disarm_limits(m);
    trace
}

/// [`find_trace`] under already-armed limits.
fn find_armed(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    target: &StateSet,
    opts: &ReachOptions,
) -> Result<Option<Trace>, BfvError> {
    let space = fsm.space();
    let init = StateSet::singleton(m, &space, &fsm.initial_state())?;
    // Forward pass, remembering each frontier ring.
    let mut rings: Vec<StateSet> = vec![init.clone()];
    let mut reached = init;
    let mut hit_depth: Option<usize> = None;
    if !reached.intersect(m, &space, target)?.is_empty() {
        hit_depth = Some(0);
    }
    while hit_depth.is_none() {
        if opts.max_iterations.is_some_and(|cap| rings.len() > cap) {
            return Ok(None);
        }
        m.check_deadline()?;
        // Rings grow from the non-empty initial singleton and images of
        // non-empty sets are non-empty; a missing ring or vector means
        // there is nothing left to explore.
        let Some(from_bfv) = rings.last().and_then(StateSet::as_bfv) else {
            return Ok(None);
        };
        let img = simulate_image_with(m, fsm, from_bfv, opts.schedule)?;
        let img_set = StateSet::NonEmpty(img);
        let new_reached = reached.union(m, &space, &img_set)?;
        if new_reached == reached {
            return Ok(None); // fix point, target unreachable
        }
        if !img_set.intersect(m, &space, target)?.is_empty() {
            hit_depth = Some(rings.len());
        }
        rings.push(img_set);
        reached = new_reached;
    }
    // The loop only exits with a hit at a recorded depth.
    let Some(depth) = hit_depth else {
        return Ok(None);
    };
    // Pick the endpoint.
    let hit = rings[depth].intersect(m, &space, target)?;
    let Some(mut cur) = hit.members(m, &space)?.into_iter().next() else {
        return Ok(None);
    };
    // Backward pass: predecessor + input per step.
    let mut states = vec![cur.clone()];
    let mut inputs_rev: Vec<Vec<bool>> = Vec::new();
    for i in (1..=depth).rev() {
        let Some((prev, inp)) = step_back(m, fsm, &rings[i - 1], &cur)? else {
            return Ok(None);
        };
        states.push(prev.clone());
        inputs_rev.push(inp);
        cur = prev;
    }
    states.reverse();
    inputs_rev.reverse();
    Ok(Some(Trace {
        states,
        inputs: inputs_rev,
    }))
}

/// A concrete `(state, input)` pair in component/input order.
type StepBack = (Vec<bool>, Vec<bool>);

/// Finds some `(state ∈ ring, input)` with `δ(state, input) = next`.
/// Returns `None` when no predecessor exists (cannot happen for states
/// taken from the successor ring).
fn step_back(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    ring: &StateSet,
    next: &[bool],
) -> Result<Option<StepBack>, BfvError> {
    let space = fsm.space();
    // cond(v, w) = ⋀_c (δ_c(v,w) ↔ next[c]) ∧ χ_ring(v)
    let mut cond = ring.to_characteristic(m, &space)?;
    for (c, next_fn) in fsm.next_fns_in_component_order().into_iter().enumerate() {
        let lit = if next[c] { next_fn } else { m.not(next_fn) };
        cond = m.and(cond, lit)?;
        if cond.is_false() {
            break;
        }
    }
    let Some(asg) = m.pick_minterm(cond, m.num_vars()) else {
        return Ok(None);
    };
    let state: Vec<bool> = space.vars().iter().map(|v| asg[v.0 as usize]).collect();
    let inputs: Vec<bool> = (0..fsm.num_inputs())
        .map(|i| asg[fsm.input_var(i).0 as usize])
        .collect();
    Ok(Some((state, inputs)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfvr_netlist::{generators, Netlist};
    use bfvr_sim::OrderHeuristic;

    /// Replays a trace on the netlist interpreter and checks every step.
    fn validate(net: &Netlist, fsm: &EncodedFsm, trace: &Trace) {
        let order = bfvr_netlist::topo::order(net).unwrap();
        // Convert component-order state to latch order.
        let to_latch = |comp_state: &[bool]| -> Vec<bool> {
            let mut latch = vec![false; comp_state.len()];
            for (c, &b) in comp_state.iter().enumerate() {
                latch[fsm.latch_of_component(c)] = b;
            }
            latch
        };
        assert_eq!(
            to_latch(&trace.states[0]),
            net.initial_state(),
            "trace must start at reset"
        );
        for (i, inp) in trace.inputs.iter().enumerate() {
            let state = to_latch(&trace.states[i]);
            let mut vals = vec![false; net.num_signals()];
            for (k, &s) in net.inputs().iter().enumerate() {
                vals[s.index()] = inp[k];
            }
            for (k, l) in net.latches().iter().enumerate() {
                vals[l.output.index()] = state[k];
            }
            for &g in &order {
                let gate = &net.gates()[g];
                let ins: Vec<bool> = gate.inputs.iter().map(|&x| vals[x.index()]).collect();
                vals[gate.output.index()] = gate.kind.eval(&ins);
            }
            let got: Vec<bool> = net
                .latches()
                .iter()
                .map(|l| vals[l.input.index()])
                .collect();
            assert_eq!(
                got,
                to_latch(&trace.states[i + 1]),
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
