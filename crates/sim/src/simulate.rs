//! Symbolic simulation: image computation by functional composition.
//!
//! The image step of the paper's Figure 2 flow: compose the next-state
//! functions `δ(v, w)` with the components of the current state set's
//! canonical vector `R(v)` (simultaneous composition, because the
//! components themselves depend on the `v` variables), then re-parameterize
//! the resulting vector — whose parameters are the current-state choice
//! variables and the inputs — onto the next-state space, and finally
//! rename next-state variables back to current.
//!
//! One state `s` of a circuit without inputs has one successor, `δ(s)`.
//! Its image is evaluated, not simulated: each next-state function is
//! read at `s`, and the image is the constant vector of those values.

use bfvr_bdd::{Bdd, BddManager, Var};
use bfvr_bfv::reparam::{reparameterize_with, Schedule};
use bfvr_bfv::{Bfv, BfvError};

use crate::encode::EncodedFsm;

/// Reusable per-call scratch of the image step: the substitution map
/// (sized by the manager's variable count), the re-parameterization
/// variable list and the u→v rename pairs. Holding one of these across
/// a fixed-point run makes every image after the first allocation-free
/// on these buffers instead of rebuilding them per call.
///
/// A scratch is keyed to one manager × FSM pair: do not share it across
/// encodings (the cached parameter list would be stale).
#[derive(Default)]
pub struct ImageScratch {
    map: Vec<Option<Bdd>>,
    params: Vec<Var>,
    pairs: Vec<(Var, Var)>,
    /// The point route's assignment, indexed by variable.
    point: Vec<bool>,
    warm: bool,
    /// How many image calls ran on warm (reused) buffers — test
    /// observability for the reuse contract.
    pub(crate) reuses: usize,
}

impl ImageScratch {
    /// Sizes the substitution map for `num_vars` and counts a reuse when
    /// the buffers were already warm.
    fn prepare_for(&mut self, fsm: &EncodedFsm, num_vars: usize) {
        if self.warm {
            self.reuses += 1;
        } else {
            self.params.extend(fsm.space().vars());
            self.params.extend(fsm.input_vars());
            self.pairs = fsm.swap_pairs();
            self.warm = true;
        }
        // The map entries are reset after every compose loop, so a warm
        // map is already all-`None`; only the length may need fixing.
        self.map.resize(num_vars, None);
    }
}

/// Computes the canonical vector of the image
/// `{ δ(s, w) : s ∈ R, w ∈ inputs }` of a reached set `R` under the
/// quantification `schedule` (paper §3), reusing the caller-held
/// [`ImageScratch`] buffers across calls — the fixed-point backends
/// hold one scratch for every iteration of a run.
///
/// A point of a circuit without inputs steps to its successor by
/// evaluation: every component of the result is the constant its
/// next-state function takes at the point. Every other set takes
/// [`compose_image`]. Both return the same vector; neither allocates a
/// node on such a point.
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn simulate_image_scratch(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    reached: &Bfv,
    schedule: Schedule,
    scratch: &mut ImageScratch,
) -> Result<Bfv, BfvError> {
    if fsm.num_inputs() == 0 && reached.components().iter().all(|c| c.is_const()) {
        return point_successor(m, fsm, reached, &mut scratch.point);
    }
    compose_image(m, fsm, reached, schedule, scratch)
}

/// The successor `δ(s)` of the point `s` of an input-free circuit: each
/// next-state function, in component order, evaluated at `s`.
fn point_successor(
    m: &BddManager,
    fsm: &EncodedFsm,
    point: &Bfv,
    assignment: &mut Vec<bool>,
) -> Result<Bfv, BfvError> {
    let space = fsm.space();
    // Only the current-state variables are read: nothing else is in the
    // support of an input-free circuit's next-state functions.
    assignment.resize(m.num_vars() as usize, false);
    for (&c, &var) in point.components().iter().zip(space.vars()) {
        assignment[var.0 as usize] = c.is_true();
    }
    let successor = fsm
        .next_fns_in_component_order()
        .into_iter()
        .map(|f| {
            if m.eval(f, assignment) {
                Bdd::TRUE
            } else {
                Bdd::FALSE
            }
        })
        .collect();
    Bfv::from_components(&space, successor)
}

/// The image by symbolic simulation proper, for any set: compose the
/// next-state functions with the set's vector, re-parameterize onto the
/// next-state space (§2.6), rename back to current-state variables.
/// [`simulate_image_scratch`] takes this route for every set that is
/// not a point of an input-free circuit; it is public as the reference
/// its point route is checked against.
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn compose_image(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    reached: &Bfv,
    schedule: Schedule,
    scratch: &mut ImageScratch,
) -> Result<Bfv, BfvError> {
    let space = fsm.space();
    scratch.prepare_for(fsm, m.num_vars() as usize);
    // Substitution map: current-state variable of latch l ← component of
    // the reached vector representing that latch.
    for (c, &var) in space.vars().iter().enumerate() {
        scratch.map[var.0 as usize] = Some(reached.component(c));
    }
    // Symbolic simulation: one simultaneous composition per latch.
    let mut composed = Vec::with_capacity(fsm.num_latches());
    let mut compose_result = Ok(());
    for next_fn in fsm.next_fns_in_component_order() {
        match m.vector_compose(next_fn, &scratch.map) {
            Ok(c) => composed.push(c),
            Err(e) => {
                compose_result = Err(e);
                break;
            }
        }
    }
    // Leave the scratch map all-`None` for the next call even when a
    // resource limit tripped mid-loop.
    for &var in space.vars() {
        scratch.map[var.0 as usize] = None;
    }
    compose_result?;
    let next_space = fsm.next_space();
    let simulated = Bfv::from_components(&next_space, composed)?;
    // Parameters: the current-state choice variables and the inputs.
    let image_next = reparameterize_with(m, &next_space, &simulated, &scratch.params, schedule)?;
    // Rename u → v so the image lives in the current-state space again.
    let mut renamed = Vec::with_capacity(image_next.len());
    for &c in image_next.components() {
        renamed.push(m.swap_vars(c, &scratch.pairs)?);
    }
    Bfv::from_components(&space, renamed)
}

/// Evaluates the primary outputs over a state set: returns, per output,
/// the condition (over current-state and input variables) under which the
/// output is 1 *restricted to* states in the set — i.e. the output
/// function composed with the set's vector.
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn simulate_outputs(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    reached: &Bfv,
) -> Result<Vec<Bdd>, BfvError> {
    let space = fsm.space();
    let mut map: Vec<Option<Bdd>> = vec![None; m.num_vars() as usize];
    for (c, &var) in space.vars().iter().enumerate() {
        map[var.0 as usize] = Some(reached.component(c));
    }
    let mut out = Vec::with_capacity(fsm.output_fns().len());
    for &f in fsm.output_fns() {
        out.push(m.vector_compose(f, &map)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::OrderHeuristic;
    use bfvr_bfv::StateSet;
    use bfvr_netlist::generators;

    #[test]
    fn counter_image_steps() {
        let net = generators::counter(3);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let space = fsm.space();
        let init = StateSet::singleton(&mut m, &space, &fsm.initial_state()).unwrap();
        // Image of {0} = {0, 1}; of that = {0, 1, 2}; etc.
        let mut cur = init.as_bfv().unwrap().clone();
        let (schedule, mut scratch) = (Schedule::DynamicSupport, ImageScratch::default());
        for step in 1..=4u64 {
            cur = simulate_image_scratch(&mut m, &fsm, &cur, schedule, &mut scratch).unwrap();
            assert!(
                cur.is_canonical(&mut m, &space).unwrap(),
                "step {step} not canonical"
            );
            let s = StateSet::NonEmpty(cur.clone());
            assert_eq!(
                s.len(&mut m, &space).unwrap() as u64,
                step + 1,
                "step {step}"
            );
        }
    }

    #[test]
    fn image_matches_relational_oracle() {
        // Cross-check symbolic simulation against the transition-relation
        // image on s27 for a couple of steps.
        let net = bfvr_netlist::circuits::s27();
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let space = fsm.space();
        let init = StateSet::singleton(&mut m, &space, &fsm.initial_state()).unwrap();
        // Build the monolithic transition relation over (v, u, w).
        let mut t = bfvr_bdd::Bdd::TRUE;
        for c in 0..fsm.num_latches() {
            let l = fsm.latch_of_component(c);
            let (_, u) = fsm.state_vars(l);
            let uu = m.var(u);
            let eq = m.xnor(uu, fsm.next_fn(l)).unwrap();
            t = m.and(t, eq).unwrap();
        }
        let mut quant_vars: Vec<Var> = space.vars().to_vec();
        quant_vars.extend(fsm.input_vars());
        let cube = m.cube_from_vars(&quant_vars).unwrap();
        let mut cur = init.as_bfv().unwrap().clone();
        let (schedule, mut scratch) = (Schedule::DynamicSupport, ImageScratch::default());
        let mut chi = StateSet::NonEmpty(cur.clone())
            .to_characteristic(&mut m, &space)
            .unwrap();
        for step in 0..3 {
            // Oracle image.
            let img = m.and_exists(t, chi, cube).unwrap();
            let img_v = m.swap_vars(img, &fsm.swap_pairs()).unwrap();
            // Symbolic simulation image.
            cur = simulate_image_scratch(&mut m, &fsm, &cur, schedule, &mut scratch).unwrap();
            let got = StateSet::NonEmpty(cur.clone())
                .to_characteristic(&mut m, &space)
                .unwrap();
            assert_eq!(got, img_v, "image mismatch at step {step}");
            chi = img_v;
        }
    }

    #[test]
    fn fixed_and_dynamic_schedules_agree() {
        let net = generators::johnson(5);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::Declaration).unwrap();
        let space = fsm.space();
        let init = StateSet::singleton(&mut m, &space, &fsm.initial_state()).unwrap();
        let f = init.as_bfv().unwrap();
        let mut scratch = ImageScratch::default();
        let mut image = |s| simulate_image_scratch(&mut m, &fsm, f, s, &mut scratch).unwrap();
        let (a, b) = (image(Schedule::DynamicSupport), image(Schedule::Fixed));
        assert_eq!(a.components(), b.components());
    }

    #[test]
    fn scratch_buffers_are_reused_across_iterations() {
        let net = generators::counter(4);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let space = fsm.space();
        let init = StateSet::singleton(&mut m, &space, &fsm.initial_state()).unwrap();
        let mut scratch = ImageScratch::default();
        let mut warm = init.as_bfv().unwrap().clone();
        let mut fresh = warm.clone();
        for step in 0..5 {
            warm =
                simulate_image_scratch(&mut m, &fsm, &warm, Schedule::DynamicSupport, &mut scratch)
                    .unwrap();
            let mut cold = ImageScratch::default();
            fresh =
                simulate_image_scratch(&mut m, &fsm, &fresh, Schedule::DynamicSupport, &mut cold)
                    .unwrap();
            assert_eq!(warm.components(), fresh.components(), "step {step}");
        }
        // First call warmed the buffers, the next four reused them …
        assert_eq!(scratch.reuses, 4);
        // … and reuse left no stale substitution entries behind.
        assert!(scratch.map.iter().all(Option::is_none));
        assert_eq!(scratch.params.len(), 4 + 1);
        assert_eq!(scratch.pairs.len(), 4);
    }

    /// xorshift64*: seedable, no dependencies.
    struct Rng(u64);

    impl Rng {
        fn bit(&mut self) -> bool {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 63 == 1
        }
    }

    /// An `n`-bit binary counter without an enable input: every state
    /// has one successor, and the high bits read several latches.
    fn autonomous_counter(n: usize) -> bfvr_netlist::Netlist {
        let mut text = String::from("OUTPUT(q0)\nn0 = NOT(q0)\nc0 = BUF(q0)\n");
        for i in 0..n {
            text += &format!("q{i} = DFF(n{i})\n");
        }
        for i in 1..n {
            text += &format!("n{i} = XOR(q{i}, c{})\n", i - 1);
            if i + 1 < n {
                text += &format!("c{i} = AND(q{i}, c{})\n", i - 1);
            }
        }
        bfvr_netlist::bench::parse_named(&text, "acnt").unwrap()
    }

    #[test]
    fn point_successor_is_the_composed_image() {
        // Random points, reachable or not, under orders whose component
        // order differs from the latch order. Both routes run in one
        // manager, so equal vectors are equal handles.
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let nets = [
            generators::lfsr(6),
            generators::lfsr(8),
            generators::lfsr(10),
            autonomous_counter(6),
        ];
        let orders = [
            OrderHeuristic::DfsFanin,
            OrderHeuristic::Declaration,
            OrderHeuristic::Reversed,
            OrderHeuristic::Random(3),
            OrderHeuristic::Random(17),
        ];
        for net in &nets {
            for order in orders {
                let what = format!("{} {order:?}", net.name());
                let (mut m, fsm) = EncodedFsm::encode(net, order).unwrap();
                assert_eq!(fsm.num_inputs(), 0, "{what}");
                let space = fsm.space();
                let mut scratch = ImageScratch::default();
                let mut reference = ImageScratch::default();
                for case in 0..40 {
                    if case == 20 {
                        m.collect_garbage(&[]);
                    }
                    let s: Vec<bool> = (0..space.len()).map(|_| rng.bit()).collect();
                    let point = StateSet::singleton(&mut m, &space, &s).unwrap();
                    let point = point.as_bfv().unwrap();
                    let allocated = m.allocated();
                    let schedule = Schedule::DynamicSupport;
                    let got = simulate_image_scratch(&mut m, &fsm, point, schedule, &mut scratch)
                        .unwrap();
                    assert_eq!(m.allocated(), allocated, "{what} case {case}");
                    let want =
                        compose_image(&mut m, &fsm, point, schedule, &mut reference).unwrap();
                    assert_eq!(got.components(), want.components(), "{what} case {case}");
                }
                assert!(!scratch.warm, "{what}: a point took the general route");
            }
        }
    }

    #[test]
    fn a_point_of_a_circuit_with_inputs_is_simulated() {
        // The image of one state under an enabled counter is two states,
        // parameterized by the enable input.
        let net = generators::counter(4);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let space = fsm.space();
        let init = StateSet::singleton(&mut m, &space, &fsm.initial_state()).unwrap();
        let init = init.as_bfv().unwrap();
        let mut scratch = ImageScratch::default();
        let schedule = Schedule::DynamicSupport;
        let got = simulate_image_scratch(&mut m, &fsm, init, schedule, &mut scratch).unwrap();
        assert!(scratch.warm);
        assert!(got.components().iter().any(|c| !c.is_const()));
        let mut reference = ImageScratch::default();
        let want = compose_image(&mut m, &fsm, init, schedule, &mut reference).unwrap();
        assert_eq!(got.components(), want.components());
    }

    #[test]
    fn outputs_over_state_set() {
        let net = generators::counter(2);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::Declaration).unwrap();
        let space = fsm.space();
        // At state 3 (both bits set) with en=1, the overflow output fires.
        let s3 = StateSet::singleton(&mut m, &space, &[true, true]).unwrap();
        let outs = simulate_outputs(&mut m, &fsm, s3.as_bfv().unwrap()).unwrap();
        // Output = en (since c0=c1=1 inside this set).
        let en = m.var(fsm.input_var(0));
        assert_eq!(outs[0], en);
    }
}
