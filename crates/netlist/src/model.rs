//! The in-memory netlist model and its builder.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A handle to a named signal in a [`Netlist`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Raw index of this signal in the netlist's signal table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a handle from a raw index (the inverse of
    /// [`SignalId::index`]); the caller is responsible for the index
    /// being in range for the netlist it is used against.
    #[must_use]
    pub fn from_index(i: usize) -> SignalId {
        SignalId(i as u32)
    }
}

/// The logic function of a combinational gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GateKind {
    /// Conjunction of all fan-ins.
    And,
    /// Disjunction of all fan-ins.
    Or,
    /// Negated conjunction.
    Nand,
    /// Negated disjunction.
    Nor,
    /// Inversion (exactly one fan-in).
    Not,
    /// Identity (exactly one fan-in).
    Buf,
    /// Parity of all fan-ins.
    Xor,
    /// Negated parity.
    Xnor,
    /// Constant 0 (no fan-ins).
    Const0,
    /// Constant 1 (no fan-ins).
    Const1,
    /// A sum-of-products cover over the fan-ins (BLIF `.names`):
    /// each row is a cube (`Some(v)` = literal, `None` = don't care);
    /// the output is 1 exactly on the union of the cubes.
    Cover(Vec<Vec<Option<bool>>>),
}

impl GateKind {
    /// Evaluates the gate on concrete fan-in values.
    ///
    /// # Panics
    ///
    /// Panics if the arity is invalid for the kind (e.g. `Not` with two
    /// fan-ins) — construction validates this, so only hand-rolled gates
    /// can trip it.
    #[must_use]
    pub fn eval(&self, ins: &[bool]) -> bool {
        match self {
            GateKind::And => ins.iter().all(|&b| b),
            GateKind::Or => ins.iter().any(|&b| b),
            GateKind::Nand => !ins.iter().all(|&b| b),
            GateKind::Nor => !ins.iter().any(|&b| b),
            GateKind::Not => !ins[0],
            GateKind::Buf => ins[0],
            GateKind::Xor => ins.iter().filter(|&&b| b).count() % 2 == 1,
            GateKind::Xnor => ins.iter().filter(|&&b| b).count() % 2 == 0,
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Cover(rows) => rows.iter().any(|row| {
                row.iter()
                    .zip(ins)
                    .all(|(lit, &v)| lit.is_none_or(|want| want == v))
            }),
        }
    }

    /// Evaluates the gate on 64 input vectors at once: bit `k` of each
    /// fan-in word is that fan-in's value in vector `k`, and bit `k` of
    /// the result equals [`GateKind::eval`] on vector `k`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid arity, as [`GateKind::eval`] does.
    #[must_use]
    pub fn eval_words(&self, ins: &[u64]) -> u64 {
        let and = || ins.iter().fold(!0, |acc, &w| acc & w);
        let or = || ins.iter().fold(0, |acc, &w| acc | w);
        let xor = || ins.iter().fold(0, |acc, &w| acc ^ w);
        match self {
            GateKind::And => and(),
            GateKind::Or => or(),
            GateKind::Nand => !and(),
            GateKind::Nor => !or(),
            GateKind::Not => !ins[0],
            GateKind::Buf => ins[0],
            GateKind::Xor => xor(),
            GateKind::Xnor => !xor(),
            GateKind::Const0 => 0,
            GateKind::Const1 => !0,
            GateKind::Cover(rows) => rows.iter().fold(0, |acc, row| {
                acc | row.iter().zip(ins).fold(!0, |cube, (lit, &w)| match lit {
                    None => cube,
                    Some(true) => cube & w,
                    Some(false) => cube & !w,
                })
            }),
        }
    }

    /// Whether `n` fan-ins are legal for this gate kind.
    #[must_use]
    pub fn arity_ok(&self, n: usize) -> bool {
        match self {
            GateKind::Not | GateKind::Buf => n == 1,
            GateKind::Const0 | GateKind::Const1 => n == 0,
            GateKind::Cover(rows) => rows.iter().all(|r| r.len() == n),
            _ => n >= 1,
        }
    }
}

/// A combinational gate driving one signal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gate {
    /// The driven signal.
    pub output: SignalId,
    /// The logic function.
    pub kind: GateKind,
    /// Fan-in signals, in order.
    pub inputs: Vec<SignalId>,
}

/// A D flip-flop (state element).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Latch {
    /// The latch output (current-state signal).
    pub output: SignalId,
    /// The next-state (data) signal.
    pub input: SignalId,
    /// Reset value (ISCAS89 convention: 0).
    pub init: bool,
}

/// How a signal is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// Primary input.
    Input,
    /// Output of the latch with this index.
    Latch(usize),
    /// Output of the gate with this index.
    Gate(usize),
}

/// A sequential gate-level netlist.
///
/// Build one with [`NetlistBuilder`] or the [`crate::bench`]/
/// [`crate::blif`] parsers. Every signal is driven exactly once (by an
/// input, a latch or a gate); [`NetlistBuilder::finish`] verifies this and
/// the absence of combinational cycles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) names: Vec<String>,
    pub(crate) drivers: Vec<Option<Driver>>,
    pub(crate) inputs: Vec<SignalId>,
    pub(crate) outputs: Vec<SignalId>,
    pub(crate) latches: Vec<Latch>,
    pub(crate) gates: Vec<Gate>,
}

/// Size summary of a netlist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetlistStats {
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// State elements.
    pub latches: usize,
    /// Combinational gates.
    pub gates: usize,
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} inputs, {} outputs, {} latches, {} gates",
            self.inputs, self.outputs, self.latches, self.gates
        )
    }
}

impl Netlist {
    /// The netlist's name (model name for BLIF, file stem for bench).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of signals (inputs + latch outputs + gate outputs).
    #[must_use]
    pub fn num_signals(&self) -> usize {
        self.names.len()
    }

    /// The name of a signal.
    #[must_use]
    pub fn signal_name(&self, s: SignalId) -> &str {
        &self.names[s.index()]
    }

    /// Looks a signal up by name.
    #[must_use]
    pub fn find_signal(&self, name: &str) -> Option<SignalId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| SignalId(i as u32))
    }

    /// Primary inputs, in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// Primary outputs, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[SignalId] {
        &self.outputs
    }

    /// State elements, in declaration order.
    #[must_use]
    pub fn latches(&self) -> &[Latch] {
        &self.latches
    }

    /// Combinational gates (unordered; see [`crate::topo::order`]).
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// What drives a signal.
    ///
    /// # Panics
    ///
    /// Panics if `s` has no driver — impossible for a finished netlist,
    /// where the builder has checked that every signal is driven.
    #[must_use]
    #[allow(clippy::expect_used)] // documented invariant of finished netlists
    pub fn driver(&self, s: SignalId) -> Driver {
        self.drivers[s.index()].expect("finished netlists have all signals driven")
    }

    /// What drives a signal, or `None` if nothing does.
    ///
    /// Finished netlists always have every signal driven (see
    /// [`Netlist::driver`]); this non-panicking variant exists for
    /// analysis tooling that inspects netlists produced by
    /// [`NetlistBuilder::finish_unchecked`], where undriven signals are
    /// a *finding*, not a precondition violation.
    #[must_use]
    pub fn driver_opt(&self, s: SignalId) -> Option<Driver> {
        self.drivers[s.index()]
    }

    /// Size summary.
    #[must_use]
    pub fn stats(&self) -> NetlistStats {
        NetlistStats {
            inputs: self.inputs.len(),
            outputs: self.outputs.len(),
            latches: self.latches.len(),
            gates: self.gates.len(),
        }
    }

    /// The initial state, one bit per latch in declaration order.
    #[must_use]
    pub fn initial_state(&self) -> Vec<bool> {
        self.latches.iter().map(|l| l.init).collect()
    }

    /// One clock cycle on 64 independent lanes, the reference interpreter:
    /// bit `k` of every word is lane `k`. Takes a word per latch and per
    /// input and returns `(next, outputs)`, a word per latch and per
    /// output, all in declaration order. A single run uses one lane.
    ///
    /// # Errors
    ///
    /// Fails on a combinational cycle ([`NetlistBuilder::finish_unchecked`]).
    ///
    /// # Panics
    ///
    /// Panics if `state` or `inputs` has the wrong length.
    pub fn step_words(
        &self,
        state: &[u64],
        inputs: &[u64],
    ) -> Result<(Vec<u64>, Vec<u64>), NetlistError> {
        let order = crate::topo::order(self)?;
        let mut vals = Vec::new();
        self.eval_signals(&order, &mut vals, state, inputs);
        let next = self.latches.iter().map(|l| vals[l.input.index()]);
        let outputs = self.outputs.iter().map(|&o| vals[o.index()]);
        Ok((next.collect(), outputs.collect()))
    }

    /// Fills `vals` with one word per signal for one clock cycle, the
    /// gates evaluated in the topological `order`. The buffer is resized,
    /// not reallocated, so a caller stepping many times keeps one.
    fn eval_signals(&self, order: &[usize], vals: &mut Vec<u64>, state: &[u64], inputs: &[u64]) {
        assert_eq!(state.len(), self.latches.len(), "one word per latch");
        assert_eq!(inputs.len(), self.inputs.len(), "one word per input");
        vals.clear();
        vals.resize(self.num_signals(), 0);
        for (&s, &w) in self.inputs.iter().zip(inputs) {
            vals[s.index()] = w;
        }
        for (l, &w) in self.latches.iter().zip(state) {
            vals[l.output.index()] = w;
        }
        let mut ins = Vec::new();
        for &g in order {
            let gate = &self.gates[g];
            ins.clear();
            ins.extend(gate.inputs.iter().map(|&x| vals[x.index()]));
            vals[gate.output.index()] = gate.kind.eval_words(&ins);
        }
    }

    /// Every state reachable from reset with its breadth-first depth, the
    /// least number of clock cycles that reach it (reset has depth 0): the
    /// oracle the symbolic engines, the invariant checker and the trace
    /// search are checked against on small circuits. The search steps
    /// every state of one depth under all `2^inputs` input vectors, 64 per
    /// step. A state is a bit mask, bit `l` the value of latch `l`.
    ///
    /// # Errors
    ///
    /// Fails on a combinational cycle, as [`Netlist::step_words`] does.
    ///
    /// # Panics
    ///
    /// Panics beyond 64 latches or 63 inputs.
    pub fn reachable_states(&self) -> Result<HashMap<u64, usize>, NetlistError> {
        assert!(self.latches.len() <= 64 && self.inputs.len() < 64);
        let order = crate::topo::order(self)?;
        // Batch `b` packs input vectors `64b … 64b + 63`, one per lane.
        let combos = 1u64 << self.inputs.len();
        let batches: Vec<(u64, Vec<u64>)> = (0..combos)
            .step_by(64)
            .map(|base| {
                let lanes = |i| (0..64).fold(0, |w, k| w | ((base + k) >> i & 1) << k);
                (base, (0..self.inputs.len()).map(lanes).collect())
            })
            .collect();
        let reset = self
            .latches
            .iter()
            .rev()
            .fold(0, |s, l| s << 1 | u64::from(l.init));
        let mut depth = HashMap::from([(reset, 0)]);
        let (mut layer, mut d) = (vec![reset], 0);
        let (mut state, mut vals) = (Vec::new(), Vec::new());
        while !layer.is_empty() {
            d += 1;
            for s in std::mem::take(&mut layer) {
                state.clear();
                state.extend((0..self.latches.len()).map(|l| 0u64.wrapping_sub(s >> l & 1)));
                for (base, inputs) in &batches {
                    self.eval_signals(&order, &mut vals, &state, inputs);
                    for k in 0..(combos - base).min(64) {
                        let bit = |l: &Latch| vals[l.input.index()] >> k & 1;
                        let t = self.latches.iter().rev().fold(0, |t, l| t << 1 | bit(l));
                        if let Entry::Vacant(e) = depth.entry(t) {
                            e.insert(d);
                            layer.push(t);
                        }
                    }
                }
            }
        }
        Ok(depth)
    }
}

/// Errors raised while building or parsing netlists.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A signal is referenced but never driven.
    Undriven {
        /// The signal's name.
        name: String,
    },
    /// A signal is driven more than once.
    MultiplyDriven {
        /// The signal's name.
        name: String,
    },
    /// The combinational logic contains a cycle.
    CombinationalCycle {
        /// The name of a signal on the cycle.
        name: String,
    },
    /// A gate has an illegal number of fan-ins for its kind.
    BadArity {
        /// The driven signal's name.
        name: String,
        /// Fan-ins supplied.
        got: usize,
    },
    /// A signal name `.bench` text cannot express, so writing it would
    /// describe a different circuit.
    Unwritable {
        /// The signal's name.
        name: String,
    },
    /// A syntax error in a parsed description.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::Undriven { name } => write!(f, "signal `{name}` is never driven"),
            NetlistError::MultiplyDriven { name } => {
                write!(f, "signal `{name}` is driven more than once")
            }
            NetlistError::CombinationalCycle { name } => {
                write!(f, "combinational cycle through signal `{name}`")
            }
            NetlistError::BadArity { name, got } => {
                write!(f, "gate driving `{name}` has invalid fan-in count {got}")
            }
            NetlistError::Unwritable { name } => {
                write!(f, "signal name `{name}` cannot be written as .bench")
            }
            NetlistError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl Error for NetlistError {}

/// Incrementally constructs a [`Netlist`].
///
/// Signals are created on first mention (by name); [`NetlistBuilder::finish`]
/// checks that every signal is driven exactly once and that the
/// combinational logic is acyclic.
#[derive(Debug, Default)]
pub struct NetlistBuilder {
    name: String,
    names: Vec<String>,
    by_name: HashMap<String, SignalId>,
    drivers: Vec<Option<Driver>>,
    inputs: Vec<SignalId>,
    outputs: Vec<SignalId>,
    latches: Vec<Latch>,
    gates: Vec<Gate>,
}

impl NetlistBuilder {
    /// Starts building a netlist with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Interns (or finds) a signal by name.
    pub fn signal(&mut self, name: impl AsRef<str>) -> SignalId {
        let name = name.as_ref();
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = SignalId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        self.drivers.push(None);
        id
    }

    /// Declares a primary input.
    ///
    /// # Errors
    ///
    /// Fails if the signal is already driven.
    pub fn input(&mut self, name: impl AsRef<str>) -> Result<SignalId, NetlistError> {
        let id = self.signal(&name);
        self.drive(id, Driver::Input)?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Declares a primary output (a reference to an existing or future
    /// signal).
    pub fn output(&mut self, name: impl AsRef<str>) -> SignalId {
        let id = self.signal(&name);
        self.outputs.push(id);
        id
    }

    /// Adds a D flip-flop: `out` holds the registered value of `next`.
    ///
    /// # Errors
    ///
    /// Fails if `out` is already driven.
    pub fn latch(
        &mut self,
        out: impl AsRef<str>,
        next: impl AsRef<str>,
        init: bool,
    ) -> Result<SignalId, NetlistError> {
        let output = self.signal(&out);
        let input = self.signal(&next);
        self.drive(output, Driver::Latch(self.latches.len()))?;
        self.latches.push(Latch {
            output,
            input,
            init,
        });
        Ok(output)
    }

    /// Adds a combinational gate driving `out`.
    ///
    /// # Errors
    ///
    /// Fails if `out` is already driven or the fan-in count is illegal for
    /// `kind`.
    pub fn gate<S: AsRef<str>>(
        &mut self,
        out: impl AsRef<str>,
        kind: GateKind,
        ins: &[S],
    ) -> Result<SignalId, NetlistError> {
        let output = self.signal(&out);
        if !kind.arity_ok(ins.len()) {
            return Err(NetlistError::BadArity {
                name: self.names[output.index()].clone(),
                got: ins.len(),
            });
        }
        let inputs = ins.iter().map(|s| self.signal(s)).collect();
        self.drive(output, Driver::Gate(self.gates.len()))?;
        self.gates.push(Gate {
            output,
            kind,
            inputs,
        });
        Ok(output)
    }

    fn drive(&mut self, id: SignalId, d: Driver) -> Result<(), NetlistError> {
        let slot = &mut self.drivers[id.index()];
        if slot.is_some() {
            return Err(NetlistError::MultiplyDriven {
                name: self.names[id.index()].clone(),
            });
        }
        *slot = Some(d);
        Ok(())
    }

    /// Validates and produces the netlist.
    ///
    /// # Errors
    ///
    /// Fails if a signal is undriven or the combinational logic is cyclic.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        for (i, d) in self.drivers.iter().enumerate() {
            if d.is_none() {
                return Err(NetlistError::Undriven {
                    name: self.names[i].clone(),
                });
            }
        }
        let net = Netlist {
            name: self.name,
            names: self.names,
            drivers: self.drivers,
            inputs: self.inputs,
            outputs: self.outputs,
            latches: self.latches,
            gates: self.gates,
        };
        // Cycle check doubles as a build of the topological order.
        crate::topo::order(&net).map(|_| net)
    }

    /// Produces the netlist **without** the undriven-signal and
    /// combinational-cycle checks of [`NetlistBuilder::finish`].
    ///
    /// Exists for analysis tooling (the `bfvr-nlint` mutation harness in
    /// particular) that needs to construct deliberately broken netlists
    /// and then watch the analyzer diagnose them. Anything downstream
    /// that calls [`Netlist::driver`] on an undriven signal will panic;
    /// use [`Netlist::driver_opt`] when walking such a netlist.
    #[must_use]
    pub fn finish_unchecked(self) -> Netlist {
        Netlist {
            name: self.name,
            names: self.names,
            drivers: self.drivers,
            inputs: self.inputs,
            outputs: self.outputs,
            latches: self.latches,
            gates: self.gates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> NetlistBuilder {
        let mut b = NetlistBuilder::new("toy");
        b.input("a").unwrap();
        b.input("b").unwrap();
        b.latch("q", "d", false).unwrap();
        b.gate("x", GateKind::And, &["a", "q"]).unwrap();
        b.gate("d", GateKind::Xor, &["x", "b"]).unwrap();
        b.output("x");
        b
    }

    #[test]
    fn reachable_states_records_bfs_depths() {
        // A counter reaches count k after exactly k cycles; a 3-bit
        // shift register adds 1, 2 and 4 states in its first 3 cycles.
        let counter = crate::generators::counter(4).reachable_states().unwrap();
        assert_eq!(counter.len(), 16);
        assert!(counter.iter().all(|(&s, &d)| s as usize == d));
        let shift = crate::generators::shift_register(3)
            .reachable_states()
            .unwrap();
        let mut depths: Vec<usize> = shift.values().copied().collect();
        depths.sort_unstable();
        assert_eq!(depths, [0, 1, 2, 2, 3, 3, 3, 3]);
    }

    #[test]
    fn eval_words_matches_eval_on_every_lane() {
        // splitmix64: deterministic random words without a dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let lit = |r: u64| match r % 3 {
            0 => None,
            1 => Some(false),
            _ => Some(true),
        };
        for round in 0..200 {
            let n = 1 + (round % 5);
            let rows = (0..1 + round % 4)
                .map(|_| (0..n).map(|_| lit(next())).collect())
                .collect();
            let kinds = [
                GateKind::And,
                GateKind::Or,
                GateKind::Nand,
                GateKind::Nor,
                GateKind::Not,
                GateKind::Buf,
                GateKind::Xor,
                GateKind::Xnor,
                GateKind::Const0,
                GateKind::Const1,
                GateKind::Cover(rows),
            ];
            let words: Vec<u64> = (0..n).map(|_| next()).collect();
            for kind in &kinds {
                let arity = (0..=n).rev().find(|&a| kind.arity_ok(a)).unwrap();
                let ins = &words[..arity];
                let got = kind.eval_words(ins);
                for k in 0..64 {
                    let lane: Vec<bool> = ins.iter().map(|w| (w >> k) & 1 == 1).collect();
                    assert_eq!(
                        (got >> k) & 1 == 1,
                        kind.eval(&lane),
                        "{kind:?} on lane {k} of {ins:x?}"
                    );
                }
            }
        }
    }

    #[test]
    fn build_and_query() {
        let net = toy().finish().unwrap();
        assert_eq!(net.name(), "toy");
        assert_eq!(
            net.stats().to_string(),
            "2 inputs, 1 outputs, 1 latches, 2 gates"
        );
        assert_eq!(net.signal_name(net.inputs()[0]), "a");
        let q = net.find_signal("q").unwrap();
        assert_eq!(net.driver(q), Driver::Latch(0));
        assert!(net.find_signal("nope").is_none());
        assert_eq!(net.initial_state(), vec![false]);
    }

    #[test]
    fn undriven_detected() {
        let mut b = NetlistBuilder::new("bad");
        b.input("a").unwrap();
        b.gate("x", GateKind::And, &["a", "ghost"]).unwrap();
        assert_eq!(
            b.finish().unwrap_err(),
            NetlistError::Undriven {
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn multiply_driven_detected() {
        let mut b = NetlistBuilder::new("bad");
        b.input("a").unwrap();
        let err = b.input("a").unwrap_err();
        assert_eq!(err, NetlistError::MultiplyDriven { name: "a".into() });
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut b = NetlistBuilder::new("cyc");
        b.input("a").unwrap();
        b.gate("x", GateKind::And, &["a", "y"]).unwrap();
        b.gate("y", GateKind::Or, &["x", "a"]).unwrap();
        assert!(matches!(
            b.finish().unwrap_err(),
            NetlistError::CombinationalCycle { .. }
        ));
    }

    #[test]
    fn latch_breaks_cycles() {
        // Feedback through a latch is sequential, not combinational.
        let mut b = NetlistBuilder::new("seq");
        b.latch("q", "d", true).unwrap();
        b.gate("d", GateKind::Not, &["q"]).unwrap();
        let net = b.finish().unwrap();
        assert_eq!(net.initial_state(), vec![true]);
    }

    #[test]
    fn arity_validation() {
        let mut b = NetlistBuilder::new("bad");
        b.input("a").unwrap();
        b.input("b").unwrap();
        let err = b.gate("x", GateKind::Not, &["a", "b"]).unwrap_err();
        assert_eq!(
            err,
            NetlistError::BadArity {
                name: "x".into(),
                got: 2
            }
        );
    }

    #[test]
    fn gate_eval_truth_tables() {
        use GateKind::*;
        assert!(And.eval(&[true, true]));
        assert!(!And.eval(&[true, false]));
        assert!(Or.eval(&[false, true]));
        assert!(Nand.eval(&[true, false]));
        assert!(!Nor.eval(&[false, true]));
        assert!(Not.eval(&[false]));
        assert!(Buf.eval(&[true]));
        assert!(Xor.eval(&[true, false, false]));
        assert!(!Xor.eval(&[true, true]));
        assert!(Xnor.eval(&[true, true]));
        assert!(!Const0.eval(&[]));
        assert!(Const1.eval(&[]));
        let cover = Cover(vec![vec![Some(true), None], vec![Some(false), Some(false)]]);
        assert!(cover.eval(&[true, false]));
        assert!(cover.eval(&[false, false]));
        assert!(!cover.eval(&[false, true]));
    }

    #[test]
    fn cover_arity() {
        let cover = GateKind::Cover(vec![vec![Some(true), None]]);
        assert!(cover.arity_ok(2));
        assert!(!cover.arity_ok(3));
    }
}
