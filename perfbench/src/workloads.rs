//! The four workloads, their circuits, and the expected-count oracle.
//!
//! A cell is circuit × order × engine. Every workload runs one engine on
//! a fixed circuit list under the Table 2 orders (`S1`, `S2`, `D`, `O17`;
//! see [`bfvr_bench::table_orders`]). The limits never bind: every cell
//! of every workload must reach its fixed point, so a `T.O.`/`M.O.` is a
//! failure, never an expected outcome.

use bfvr_netlist::{circuits, generators, Netlist};
use bfvr_reach::{EngineKind, ReachOptions};
use bfvr_sim::OrderHeuristic;

/// A generator family with its parameters. The family decides both the
/// netlist and — through [`Family::expected_states`] — the reached-state
/// count the benchmark checks every run against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// ISCAS89 `s27`.
    S27,
    /// Modulo-`k` counter over `bits` latches.
    ModK {
        /// Latches.
        bits: u32,
        /// Modulus.
        k: u64,
    },
    /// `n`-bit shift register.
    Shift(u32),
    /// `n`-stage Johnson counter.
    Johnson(u32),
    /// `p` paired registers.
    Pair(u32),
    /// Queue controller of depth `k`.
    Queue(u32),
    /// `n`-bit one-hot rotator.
    Rot(u32),
    /// Chain of `k` traffic-light controllers.
    Traffic(u32),
    /// `n`-bit loadable register.
    Load(u32),
    /// `n`-bit masked accumulator.
    Mask(u32),
    /// `n`-bit Gray-code counter.
    Gray(u32),
    /// `n`-bit maximal-length LFSR.
    Lfsr(u32),
}

impl Family {
    /// Builds the netlist.
    #[must_use]
    pub fn netlist(self) -> Netlist {
        match self {
            Family::S27 => circuits::s27(),
            Family::ModK { bits, k } => generators::counter_modk(bits, k),
            Family::Shift(n) => generators::shift_register(n),
            Family::Johnson(n) => generators::johnson(n),
            Family::Pair(p) => generators::paired_registers(p),
            Family::Queue(k) => generators::queue_controller(k),
            Family::Rot(n) => generators::rotator(n),
            Family::Traffic(k) => generators::traffic_chain(k),
            Family::Load(n) => generators::loadable_register(n),
            Family::Mask(n) => generators::masked_accumulator(n),
            Family::Gray(n) => generators::gray(n),
            Family::Lfsr(n) => generators::lfsr(n),
        }
    }

    /// The oracle: how many states a correct traversal reaches. Written
    /// by hand, never taken from the program under test — closed forms
    /// per family, and for the families without one the counts pinned by
    /// the repository's CI and `BENCH_*.json` records. Returns `None` for
    /// a size no count is known for.
    #[must_use]
    pub fn expected_states(self) -> Option<f64> {
        let pow2 = |n: u32| 2f64.powi(n as i32);
        match self {
            Family::S27 => Some(6.0),
            Family::ModK { k, .. } => Some(k as f64),
            Family::Shift(n) | Family::Pair(n) | Family::Mask(n) | Family::Gray(n) => Some(pow2(n)),
            Family::Johnson(n) => Some(f64::from(2 * n)),
            Family::Rot(n) => Some(f64::from(n)),
            Family::Lfsr(n) => Some(pow2(n) - 1.0),
            Family::Queue(4) => Some(272.0),
            Family::Queue(5) => Some(1056.0),
            Family::Traffic(4) => Some(256.0),
            Family::Load(12) => Some(1587.0),
            Family::Load(16) => Some(26334.0),
            Family::Queue(_) | Family::Traffic(_) | Family::Load(_) => None,
        }
    }
}

/// One workload: an engine, its options, and the circuits it runs.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// The engine every cell runs.
    pub engine: EngineKind,
    /// Dynamic variable reordering armed (χ lanes only).
    pub sift: bool,
    /// Circuits, by name.
    pub circuits: Vec<(&'static str, Family)>,
}

/// One cell's inputs: the circuit as `.bench` text (parsed anew in every
/// pass, as set-up) and the static order to encode it under.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Circuit name.
    pub circuit: &'static str,
    /// Static variable order.
    pub order: OrderHeuristic,
    /// The circuit serialized as ISCAS89 `.bench` text.
    pub bench: String,
    /// The oracle's reached-state count.
    pub expected: f64,
    /// Latch count (cheapest-cell selection in the smoke test).
    pub latches: usize,
}

/// Per-cell limits of every workload: far above what any cell needs, so
/// they never bind (the busiest cell, `mask14`/S2 under IWLS95, peaks
/// near 442K nodes; `mask10` under BFV passes 400K).
const LIMIT_SECONDS: u64 = 60;
const LIMIT_NODES: usize = 4_000_000;

/// The `table2` suite's circuits the BFV engine branches on: input-driven
/// next-state logic, so re-parameterization does the work.
fn branching_circuits() -> Vec<(&'static str, Family)> {
    vec![
        ("s27", Family::S27),
        ("mod10x4", Family::ModK { bits: 4, k: 10 }),
        ("shift16", Family::Shift(16)),
        ("johnson12", Family::Johnson(12)),
        ("pair8", Family::Pair(8)),
        ("queue4", Family::Queue(4)),
        ("rot12", Family::Rot(12)),
        ("traffic4", Family::Traffic(4)),
        ("load12", Family::Load(12)),
        ("mask10", Family::Mask(10)),
        ("gray8", Family::Gray(8)),
    ]
}

/// All workloads, in `BENCHMARK.json` order.
#[must_use]
pub fn all() -> Vec<Workload> {
    let mut iwls = branching_circuits();
    iwls.extend([
        ("lfsr10", Family::Lfsr(10)),
        ("lfsr12", Family::Lfsr(12)),
        ("gray10", Family::Gray(10)),
        ("queue5", Family::Queue(5)),
        ("load16", Family::Load(16)),
        ("mask14", Family::Mask(14)),
    ]);
    vec![
        Workload {
            // The paper's Figure 2 flow on input-driven circuits: §2.6
            // re-parameterization takes 90-99% of the image, union ~1%.
            name: "fig2-branching",
            engine: EngineKind::Bfv,
            sift: false,
            circuits: branching_circuits(),
        },
        Workload {
            // Autonomous LFSRs: thousands of cheap iterations, where the
            // §2.3 union and per-iteration driver overhead dominate.
            name: "fig2-deep",
            engine: EngineKind::Bfv,
            sift: false,
            circuits: vec![("lfsr10", Family::Lfsr(10)), ("lfsr12", Family::Lfsr(12))],
        },
        Workload {
            // The paper's VIS-IWLS95 column: and-exists and clustering
            // only. It bypasses bfvr-bfv and bfvr-sim, so a BFV-side change
            // must leave it unmoved.
            name: "chi-iwls",
            engine: EngineKind::Iwls95,
            sift: false,
            circuits: iwls,
        },
        Workload {
            // Sifting rewrites the unique table in place where every other
            // workload only reads and extends it; the cells include both
            // sifting wins and sifting losses.
            name: "chi-sift",
            engine: EngineKind::Monolithic,
            sift: true,
            circuits: vec![
                // pair7, not table2's pair8: the same win under D and loss
                // under S2 at an eighth of the cost (pair8/S2 alone would
                // take half of every pass).
                ("pair7", Family::Pair(7)),
                ("queue4", Family::Queue(4)),
                ("queue5", Family::Queue(5)),
                ("mask10", Family::Mask(10)),
                ("load12", Family::Load(12)),
                ("lfsr10", Family::Lfsr(10)),
                ("gray8", Family::Gray(8)),
                ("traffic4", Family::Traffic(4)),
                ("johnson12", Family::Johnson(12)),
                ("rot12", Family::Rot(12)),
            ],
        },
    ]
}

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The options every cell of this workload runs with.
    #[must_use]
    pub fn options(&self) -> ReachOptions {
        let mut opts = bfvr_bench::cell_limits(LIMIT_SECONDS, LIMIT_NODES);
        opts.sift = self.sift;
        opts
    }

    /// The cells, circuit-major, each circuit under every Table 2 order.
    ///
    /// # Errors
    ///
    /// A circuit the oracle has no count for, or one the `.bench` writer
    /// cannot serialize.
    pub fn cells(&self) -> Result<Vec<Cell>, String> {
        let mut cells = Vec::new();
        for &(circuit, family) in &self.circuits {
            let expected = family
                .expected_states()
                .ok_or_else(|| format!("{circuit}: the oracle has no count for {family:?}"))?;
            let net = family.netlist();
            let bench = bfvr_netlist::bench::write(&net).map_err(|e| format!("{circuit}: {e}"))?;
            for order in bfvr_bench::table_orders() {
                cells.push(Cell {
                    circuit,
                    order,
                    bench: bench.clone(),
                    expected,
                    latches: net.latches().len(),
                });
            }
        }
        Ok(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_every_circuit_has_an_oracle_count() {
        let all = all();
        for (i, w) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|o| o.name != w.name),
                "{} twice",
                w.name
            );
            for &(c, f) in &w.circuits {
                assert!(f.expected_states().is_some(), "{}/{c}", w.name);
            }
        }
    }

    #[test]
    fn closed_forms() {
        assert_eq!(Family::Lfsr(10).expected_states(), Some(1023.0));
        assert_eq!(Family::Johnson(12).expected_states(), Some(24.0));
        assert_eq!(Family::Rot(12).expected_states(), Some(12.0));
        assert_eq!(Family::Shift(16).expected_states(), Some(65536.0));
        assert_eq!(Family::Queue(6).expected_states(), None);
    }
}
