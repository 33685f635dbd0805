//! Netlist → BDD encoding with paired current/next state variables.

use std::error::Error;
use std::fmt;

use bfvr_bdd::{Bdd, BddError, BddManager, Func, Var};
use bfvr_bfv::Space;
use bfvr_netlist::{GateKind, Netlist};

use crate::order::{OrderHeuristic, Slot};

/// Why a netlist could not be encoded for state traversal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// The netlist has no latch: a purely combinational circuit has no
    /// state to traverse.
    NoLatches {
        /// The netlist's name.
        circuit: String,
    },
    /// BDD resource-limit exhaustion while building the next-state and
    /// output functions.
    Bdd(BddError),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::NoLatches { circuit } => write!(
                f,
                "`{circuit}` has no latches: state traversal needs at least one \
                 (combinational circuit?)"
            ),
            EncodeError::Bdd(e) => e.fmt(f),
        }
    }
}

impl Error for EncodeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EncodeError::NoLatches { .. } => None,
            EncodeError::Bdd(e) => Some(e),
        }
    }
}

impl From<BddError> for EncodeError {
    fn from(e: BddError) -> Self {
        EncodeError::Bdd(e)
    }
}

/// A BDD encoding of a finite state machine.
///
/// Variable layout: the slot order (from the [`OrderHeuristic`]) is walked
/// once; each latch slot receives two adjacent levels — current-state
/// variable `v` then next-state variable `u` — and each input slot one
/// level. Pairing `v`/`u` makes the current↔next rename an adjacent swap
/// and gives both representations their preferred interleaving.
#[derive(Debug)]
pub struct EncodedFsm {
    /// `(v, u)` variable pair per latch (indexed by latch index).
    state_vars: Vec<(Var, Var)>,
    /// Variable per primary input (indexed by input index).
    input_vars: Vec<Var>,
    /// Next-state function per latch over `(v, w)` variables.
    next: Vec<Bdd>,
    /// Primary-output functions over `(v, w)` variables.
    outputs: Vec<Bdd>,
    /// RAII roots pinning `next` and `outputs` against garbage collection
    /// for the lifetime of the encoding.
    #[allow(dead_code)]
    roots: Vec<Func>,
    /// Latch indices in component (variable) order.
    comp_to_latch: Vec<usize>,
    init: Vec<bool>,
    name: String,
}

impl EncodedFsm {
    /// Encodes a netlist, creating the manager with the variable order
    /// produced by `heuristic`.
    ///
    /// # Errors
    ///
    /// [`EncodeError::NoLatches`] for a netlist without latches;
    /// [`EncodeError::Bdd`] on BDD resource-limit exhaustion (unbounded
    /// by default).
    pub fn encode(
        net: &Netlist,
        heuristic: OrderHeuristic,
    ) -> Result<(BddManager, EncodedFsm), EncodeError> {
        Self::encode_with_slots(net, &heuristic.slots(net))
    }

    /// Encodes with an explicit slot order (for custom order studies).
    ///
    /// # Errors
    ///
    /// As [`encode`](Self::encode).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a complete, duplicate-free cover of the
    /// netlist's latches and inputs.
    pub fn encode_with_slots(
        net: &Netlist,
        slots: &[Slot],
    ) -> Result<(BddManager, EncodedFsm), EncodeError> {
        Self::require_latches(net)?;
        let nl = net.latches().len();
        let ni = net.inputs().len();
        assert_eq!(
            slots.len(),
            nl + ni,
            "slot order must cover all latches and inputs"
        );
        let num_vars = 2 * nl as u32 + ni as u32;
        let mut m = BddManager::new(num_vars);
        let mut state_vars = vec![(Var(0), Var(0)); nl];
        let mut input_vars = vec![Var(0); ni];
        let mut comp_to_latch = Vec::with_capacity(nl);
        let mut level = 0u32;
        for &slot in slots {
            match slot {
                Slot::Latch(l) => {
                    state_vars[l] = (Var(level), Var(level + 1));
                    comp_to_latch.push(l);
                    level += 2;
                }
                Slot::Input(i) => {
                    input_vars[i] = Var(level);
                    level += 1;
                }
            }
        }
        debug_assert_eq!(level, num_vars);
        // Build every signal's function over (v, w).
        // Cycles are rejected by netlist validation before encoding starts.
        #[allow(clippy::expect_used)]
        let order = bfvr_netlist::topo::order(net).expect("validated netlists are acyclic");
        let mut funcs: Vec<Bdd> = vec![Bdd::FALSE; net.num_signals()];
        for (i, &s) in net.inputs().iter().enumerate() {
            funcs[s.index()] = m.var(input_vars[i]);
        }
        for (l, latch) in net.latches().iter().enumerate() {
            funcs[latch.output.index()] = m.var(state_vars[l].0);
        }
        for g in order {
            let gate = &net.gates()[g];
            let ins: Vec<Bdd> = gate.inputs.iter().map(|&x| funcs[x.index()]).collect();
            funcs[gate.output.index()] = encode_gate(&mut m, &gate.kind, &ins)?;
        }
        let next: Vec<Bdd> = net
            .latches()
            .iter()
            .map(|l| funcs[l.input.index()])
            .collect();
        let outputs: Vec<Bdd> = net.outputs().iter().map(|&o| funcs[o.index()]).collect();
        let roots: Vec<Func> = next
            .iter()
            .chain(outputs.iter())
            .map(|&f| m.func(f))
            .collect();
        let fsm = EncodedFsm {
            state_vars,
            input_vars,
            next,
            outputs,
            roots,
            comp_to_latch,
            init: net.initial_state(),
            name: net.name().to_string(),
        };
        Ok((m, fsm))
    }

    /// Refuses a latch-free netlist: the first check of
    /// [`encode`](Self::encode), for callers that must refuse before
    /// they start work that encodes later (racing lanes encode in their
    /// own threads).
    ///
    /// # Errors
    ///
    /// [`EncodeError::NoLatches`] when `net` has no latch.
    pub fn require_latches(net: &Netlist) -> Result<(), EncodeError> {
        if net.latches().is_empty() {
            return Err(EncodeError::NoLatches {
                circuit: net.name().to_string(),
            });
        }
        Ok(())
    }

    /// The FSM's name (from the netlist).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of latches (state bits).
    #[must_use]
    pub fn num_latches(&self) -> usize {
        self.next.len()
    }

    /// `(current, next)` variable pair of latch `l`.
    #[must_use]
    pub fn state_vars(&self, l: usize) -> (Var, Var) {
        self.state_vars[l]
    }

    /// Variable of primary input `i`.
    #[must_use]
    pub fn input_var(&self, i: usize) -> Var {
        self.input_vars[i]
    }

    /// Number of primary inputs; 0 for an autonomous circuit.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.input_vars.len()
    }

    /// All input variables.
    #[must_use]
    pub fn input_vars(&self) -> Vec<Var> {
        self.input_vars.clone()
    }

    /// Next-state function of latch `l`, over current-state and input
    /// variables.
    #[must_use]
    pub fn next_fn(&self, l: usize) -> Bdd {
        self.next[l]
    }

    /// Primary-output functions over current-state and input variables.
    #[must_use]
    pub fn output_fns(&self) -> &[Bdd] {
        &self.outputs
    }

    /// The component space of state sets: current-state variables in
    /// variable order (component order = BDD order, the paper's §3
    /// configuration).
    #[must_use]
    // Encoding allocates one distinct variable per latch, so the space is
    // non-empty and duplicate-free by construction.
    #[allow(clippy::expect_used)]
    pub fn space(&self) -> Space {
        let vars = self
            .comp_to_latch
            .iter()
            .map(|&l| self.state_vars[l].0)
            .collect();
        Space::new(vars).expect("state spaces are non-empty and duplicate-free")
    }

    /// Like [`EncodedFsm::space`] but over the *next*-state variables —
    /// the re-parameterization target of the Figure 2 flow.
    #[must_use]
    // Same construction argument as [`EncodedFsm::space`].
    #[allow(clippy::expect_used)]
    pub fn next_space(&self) -> Space {
        let vars = self
            .comp_to_latch
            .iter()
            .map(|&l| self.state_vars[l].1)
            .collect();
        Space::new(vars).expect("state spaces are non-empty and duplicate-free")
    }

    /// Latch index of component `c` of the state space.
    #[must_use]
    pub fn latch_of_component(&self, c: usize) -> usize {
        self.comp_to_latch[c]
    }

    /// The initial state in *component* order (ready for
    /// [`bfvr_bfv::StateSet::singleton`]).
    #[must_use]
    pub fn initial_state(&self) -> Vec<bool> {
        self.comp_to_latch.iter().map(|&l| self.init[l]).collect()
    }

    /// Next-state functions in component order.
    #[must_use]
    pub fn next_fns_in_component_order(&self) -> Vec<Bdd> {
        self.comp_to_latch.iter().map(|&l| self.next[l]).collect()
    }

    /// The `(v, u)` rename pairs, for swapping a set between the current
    /// and next spaces.
    #[must_use]
    pub fn swap_pairs(&self) -> Vec<(Var, Var)> {
        self.state_vars.to_vec()
    }
}

fn encode_gate(
    m: &mut BddManager,
    kind: &GateKind,
    ins: &[Bdd],
) -> Result<Bdd, bfvr_bdd::BddError> {
    Ok(match kind {
        GateKind::And => m.and_all(ins)?,
        GateKind::Or => m.or_all(ins)?,
        GateKind::Nand => {
            let a = m.and_all(ins)?;
            m.not(a)
        }
        GateKind::Nor => {
            let o = m.or_all(ins)?;
            m.not(o)
        }
        GateKind::Not => m.not(ins[0]),
        GateKind::Buf => ins[0],
        GateKind::Xor | GateKind::Xnor => {
            let mut acc = Bdd::FALSE;
            for &i in ins {
                acc = m.xor(acc, i)?;
            }
            if matches!(kind, GateKind::Xnor) {
                m.not(acc)
            } else {
                acc
            }
        }
        GateKind::Const0 => Bdd::FALSE,
        GateKind::Const1 => Bdd::TRUE,
        GateKind::Cover(rows) => {
            let mut acc = Bdd::FALSE;
            for row in rows {
                let mut cube = Bdd::TRUE;
                for (lit, &f) in row.iter().zip(ins) {
                    match lit {
                        Some(true) => cube = m.and(cube, f)?,
                        Some(false) => {
                            let nf = m.not(f);
                            cube = m.and(cube, nf)?;
                        }
                        None => {}
                    }
                }
                acc = m.or(acc, cube)?;
            }
            acc
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfvr_netlist::generators;

    /// One lane of the reference interpreter, [`Netlist::step_words`].
    fn step(net: &Netlist, state: &[bool], inputs: &[bool]) -> Vec<bool> {
        let lane = |bits: &[bool]| bits.iter().map(|&b| u64::from(b)).collect::<Vec<_>>();
        let (next, _) = net.step_words(&lane(state), &lane(inputs)).unwrap();
        next.iter().map(|w| w & 1 == 1).collect()
    }

    #[test]
    fn encoding_matches_interpreter() {
        for net in [
            generators::counter(4),
            generators::queue_controller(2),
            bfvr_netlist::circuits::s27(),
        ] {
            let (m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
            let nl = net.latches().len();
            let ni = net.inputs().len();
            let mut rng = 0xA5A5_5A5A_1234_5678u64;
            for _ in 0..64 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let st: Vec<bool> = (0..nl).map(|i| rng >> i & 1 == 1).collect();
                let ins: Vec<bool> = (0..ni).map(|i| rng >> (i + nl) & 1 == 1).collect();
                let expect = step(&net, &st, &ins);
                // Build the full-variable assignment.
                let mut asg = vec![false; m.num_vars() as usize];
                for (l, &(v, _)) in fsm.state_vars.iter().enumerate() {
                    asg[v.0 as usize] = st[l];
                }
                for (i, &w) in fsm.input_vars.iter().enumerate() {
                    asg[w.0 as usize] = ins[i];
                }
                #[allow(clippy::needless_range_loop)]
                for l in 0..nl {
                    assert_eq!(
                        m.eval(fsm.next_fn(l), &asg),
                        expect[l],
                        "{} latch {l} mismatch",
                        net.name()
                    );
                }
            }
        }
    }

    #[test]
    fn variable_pairs_are_adjacent() {
        let net = generators::johnson(5);
        for h in [
            OrderHeuristic::DfsFanin,
            OrderHeuristic::Declaration,
            OrderHeuristic::Random(3),
        ] {
            let (_, fsm) = EncodedFsm::encode(&net, h).unwrap();
            #[allow(clippy::needless_range_loop)]
            for l in 0..fsm.num_latches() {
                let (v, u) = fsm.state_vars(l);
                assert_eq!(u.0, v.0 + 1, "pair for latch {l} not adjacent under {h:?}");
            }
        }
    }

    #[test]
    fn space_is_sorted_by_level() {
        let net = generators::counter(5);
        let (_, fsm) = EncodedFsm::encode(&net, OrderHeuristic::Random(9)).unwrap();
        let space = fsm.space();
        for w in space.vars().windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "component order must follow variable order"
            );
        }
        // next_space mirrors it one level down.
        let nspace = fsm.next_space();
        for (v, u) in space.vars().iter().zip(nspace.vars()) {
            assert_eq!(u.0, v.0 + 1);
        }
    }

    #[test]
    fn initial_state_is_permuted_with_components() {
        let net = generators::rotator(4); // latch 0 resets to 1
        let (_, fsm) = EncodedFsm::encode(&net, OrderHeuristic::Reversed).unwrap();
        let init = fsm.initial_state();
        assert_eq!(init.iter().filter(|&&b| b).count(), 1);
        // The hot bit must sit at the component mapped to latch 0.
        let hot = init.iter().position(|&b| b).unwrap();
        assert_eq!(fsm.latch_of_component(hot), 0);
    }

    #[test]
    fn outputs_encoded() {
        let net = generators::counter(3);
        let (m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::Declaration).unwrap();
        assert_eq!(fsm.output_fns().len(), 1);
        // ov = en ∧ c0 ∧ c1 ∧ c2: exactly one satisfying assignment over
        // the 4 relevant variables.
        let ov = fsm.output_fns()[0];
        assert_eq!(
            m.sat_count(ov, m.num_vars()) as u64,
            1 << (m.num_vars() - 4)
        );
    }

    #[test]
    fn latch_free_netlist_is_an_error_not_a_panic() {
        let net =
            bfvr_netlist::bench::parse_named("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "comb").unwrap();
        let err = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap_err();
        assert_eq!(
            err,
            EncodeError::NoLatches {
                circuit: "comb".into()
            }
        );
        assert!(err.to_string().contains("`comb` has no latches"), "{err}");
        let slots = OrderHeuristic::Declaration.slots(&net);
        assert_eq!(
            EncodedFsm::encode_with_slots(&net, &slots).unwrap_err(),
            err
        );
    }
}
