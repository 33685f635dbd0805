//! Parameterized benchmark-circuit generators.
//!
//! These families stand in for the larger ISCAS89 circuits of the paper's
//! Table 2 (see `DESIGN.md` §3): each reproduces a structural phenomenon
//! the paper's evaluation exercises —
//!
//! | family | phenomenon |
//! |---|---|
//! | [`counter`], [`counter_modk`], [`gray`] | arithmetic next-state logic; deep fix-points with mod-k wrap |
//! | [`lfsr`] | maximal-period autonomous cycling (very deep fix-points) |
//! | [`shift_register`] | wide images, fast saturation |
//! | [`johnson`] | sparse reachable ring (2n of 2ⁿ states) |
//! | [`paired_registers`] | the §3 functional-dependency example `χ = ⋀(v₂ᵢ↔v₂ᵢ₊₁)` |
//! | [`queue_controller`] | pointer/counter dependency (`count = tail − head`) |
//! | [`rotator`] | one-hot token ring (n of 2ⁿ states) |
//! | [`traffic_chain`] | coupled small FSMs |
//! | [`loadable_register`], [`masked_accumulator`] | datapath updates guarded by wide pure-input decode cones |
//!
//! Every generator returns a validated [`Netlist`]; `Netlist::to_bench()`
//! style serialization is available via [`crate::bench::write`], and the
//! test suite round-trips each family through the ISCAS89 parser.

mod counters;
mod datapath;
mod shift;
mod structured;
#[cfg(test)]
pub(crate) mod testutil;

pub use counters::{counter, counter_modk, gray};
pub use datapath::{loadable_register, masked_accumulator};
pub use shift::{johnson, lfsr, shift_register};
pub use structured::{paired_registers, queue_controller, rotator, traffic_chain};

use std::ops::RangeInclusive;

use crate::model::{GateKind, Netlist, NetlistBuilder};

/// Widths [`counter`], [`counter_modk`] and [`gray`] accept.
pub const COUNTER_BITS: RangeInclusive<u32> = 1..=u32::MAX;
/// Stage counts [`shift_register`] accepts.
pub const SHIFT_STAGES: RangeInclusive<u32> = 1..=u32::MAX;
/// Stage counts [`lfsr`] accepts: those of its maximal-length tap table.
pub const LFSR_STAGES: RangeInclusive<u32> = 2..=16;
/// Stage counts [`johnson`] accepts.
pub const JOHNSON_STAGES: RangeInclusive<u32> = 2..=u32::MAX;
/// Pair counts [`paired_registers`] accepts.
pub const PAIRS: RangeInclusive<u32> = 1..=u32::MAX;
/// Pointer widths [`queue_controller`] accepts.
pub const QUEUE_POINTER_BITS: RangeInclusive<u32> = 1..=8;
/// Station counts [`rotator`] accepts.
pub const ROTATOR_STATIONS: RangeInclusive<u32> = 2..=u32::MAX;
/// Stage counts [`traffic_chain`] accepts.
pub const TRAFFIC_STAGES: RangeInclusive<u32> = 1..=u32::MAX;
/// Widths [`loadable_register`] accepts.
pub const LOAD_BITS: RangeInclusive<u32> = 3..=24;
/// Widths [`masked_accumulator`] accepts.
pub const MASK_BITS: RangeInclusive<u32> = 4..=24;

/// Moduli [`counter_modk`] accepts at width `n`: 2 to `2^n`.
#[must_use]
pub fn modk_moduli(n: u32) -> RangeInclusive<u64> {
    2..=1u64.checked_shl(n).unwrap_or(u64::MAX)
}

/// Extension helpers shared by the generators.
pub(crate) trait BuilderExt {
    /// `out = sel ? a : b` as three gates.
    fn mux(&mut self, out: &str, sel: &str, a: &str, b: &str);
    /// `out = ¬x` as one gate, returning the output name for chaining.
    fn inv(&mut self, out: &str, x: &str);
}

impl BuilderExt for NetlistBuilder {
    fn mux(&mut self, out: &str, sel: &str, a: &str, b: &str) {
        let nsel = format!("{out}$nsel");
        let ta = format!("{out}$t");
        let tb = format!("{out}$e");
        self.inv(&nsel, sel);
        self.gate(&ta, GateKind::And, &[sel, a])
            .expect("generator signals are fresh");
        self.gate(&tb, GateKind::And, &[nsel.as_str(), b])
            .expect("generator signals are fresh");
        self.gate(out, GateKind::Or, &[ta.as_str(), tb.as_str()])
            .expect("generator signals are fresh");
    }

    fn inv(&mut self, out: &str, x: &str) {
        self.gate(out, GateKind::Not, &[x])
            .expect("generator signals are fresh");
    }
}

/// A convenient serialization alias so examples read naturally.
pub trait ToBench {
    /// Serializes to ISCAS89 `.bench` text.
    fn to_bench(&self) -> String;
}

impl ToBench for Netlist {
    fn to_bench(&self) -> String {
        crate::bench::write(self).expect("generated netlists contain no covers")
    }
}

/// The standard benchmark suite used by the Table 2 reproduction: pairs of
/// `(name, netlist)` at the sizes the experiments run at.
#[must_use]
pub fn standard_suite() -> Vec<(String, Netlist)> {
    vec![
        ("s27".to_string(), crate::circuits::s27()),
        ("cnt12".to_string(), counter(12)),
        ("mod10x4".to_string(), counter_modk(4, 10)),
        ("gray8".to_string(), gray(8)),
        ("lfsr10".to_string(), lfsr(10)),
        ("shift16".to_string(), shift_register(16)),
        ("johnson12".to_string(), johnson(12)),
        ("pair8".to_string(), paired_registers(8)),
        ("queue4".to_string(), queue_controller(4)),
        ("rot12".to_string(), rotator(12)),
        ("traffic4".to_string(), traffic_chain(4)),
        ("load12".to_string(), loadable_register(12)),
        ("mask10".to_string(), masked_accumulator(10)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_parses_through_iscas89_front_end() {
        // Signal interning order differs between the builder and the
        // parser, so compare shape and behaviour, not structure.
        for (name, net) in standard_suite() {
            let text = net.to_bench();
            let again = crate::bench::parse_named(&text, &name).unwrap();
            assert_eq!(again.stats(), net.stats(), "{name} shape changed");
            assert_eq!(
                again.initial_state(),
                net.initial_state(),
                "{name} reset changed"
            );
            let mut st_a = net.initial_state();
            let mut st_b = again.initial_state();
            let mut rng = 0xD1B54A32D192ED03u64;
            for step_no in 0..40 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let ins: Vec<bool> = (0..net.inputs().len()).map(|i| rng >> i & 1 == 1).collect();
                st_a = testutil::step(&net, &st_a, &ins);
                st_b = testutil::step(&again, &st_b, &ins);
                assert_eq!(st_a, st_b, "{name} diverged at step {step_no}");
            }
        }
    }

    #[test]
    fn suite_members_are_nontrivial() {
        for (name, net) in standard_suite() {
            assert!(net.latches().len() >= 3, "{name} too small");
            assert!(!net.outputs().is_empty(), "{name} has no outputs");
        }
    }
}
