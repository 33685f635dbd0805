//! Shift-register-style generators: serial shift, LFSR, Johnson ring.

use crate::model::{GateKind, Netlist, NetlistBuilder};

use super::{BuilderExt, JOHNSON_STAGES, LFSR_STAGES, SHIFT_STAGES};

/// An `n`-bit serial-in shift register.
///
/// Input `d` shifts into `s0`; output is `s{n-1}`. All `2^n` states are
/// reachable after `n` steps — the "wide image" family (the frontier
/// doubles each step until saturation).
///
/// # Panics
///
/// Panics if `n` is outside [`SHIFT_STAGES`].
#[must_use]
pub fn shift_register(n: u32) -> Netlist {
    assert!(SHIFT_STAGES.contains(&n));
    let mut b = NetlistBuilder::new(format!("shift{n}"));
    b.input("d").expect("fresh");
    for i in 0..n {
        b.latch(format!("s{i}"), format!("ns{i}"), false)
            .expect("fresh");
    }
    b.gate("ns0", GateKind::Buf, &["d"]).expect("fresh");
    for i in 1..n {
        b.gate(
            format!("ns{i}"),
            GateKind::Buf,
            &[format!("s{}", i - 1).as_str()],
        )
        .expect("fresh");
    }
    b.gate("serout", GateKind::Buf, &[format!("s{}", n - 1).as_str()])
        .expect("fresh");
    b.output("serout");
    b.finish().expect("shift register is structurally valid")
}

/// Maximal-length feedback taps (1-based stage numbers) for XNOR-feedback
/// Fibonacci LFSRs of 2–16 stages.
const MAXIMAL_TAPS: [&[u32]; 15] = [
    &[2, 1],
    &[3, 2],
    &[4, 3],
    &[5, 3],
    &[6, 5],
    &[7, 6],
    &[8, 6, 5, 4],
    &[9, 5],
    &[10, 7],
    &[11, 9],
    &[12, 11, 10, 4],
    &[13, 12, 11, 8],
    &[14, 13, 12, 2],
    &[15, 14],
    &[16, 15, 13, 4],
];

/// An `n`-stage maximal-length LFSR with XNOR feedback (autonomous: no
/// inputs).
///
/// Starting from the all-zero reset it cycles through `2^n − 1` states
/// (all but all-ones) — the deepest fix-point family per state bit: the
/// frontier is a single state at every iteration.
///
/// # Panics
///
/// Panics if `n` is outside [`LFSR_STAGES`].
pub fn lfsr(n: u32) -> Netlist {
    assert!(LFSR_STAGES.contains(&n));
    let taps = MAXIMAL_TAPS[(n - 2) as usize];
    let mut b = NetlistBuilder::new(format!("lfsr{n}"));
    for i in 0..n {
        b.latch(format!("s{i}"), format!("ns{i}"), false)
            .expect("fresh");
    }
    // Feedback = XNOR of the tapped stages (stage k taps signal s{k-1}).
    let tap_names: Vec<String> = taps.iter().map(|&t| format!("s{}", t - 1)).collect();
    let refs: Vec<&str> = tap_names.iter().map(String::as_str).collect();
    b.gate("fb", GateKind::Xnor, &refs).expect("fresh");
    b.gate("ns0", GateKind::Buf, &["fb"]).expect("fresh");
    for i in 1..n {
        b.gate(
            format!("ns{i}"),
            GateKind::Buf,
            &[format!("s{}", i - 1).as_str()],
        )
        .expect("fresh");
    }
    b.gate("tap", GateKind::Buf, &[format!("s{}", n - 1).as_str()])
        .expect("fresh");
    b.output("tap");
    b.finish().expect("lfsr is structurally valid")
}

/// An `n`-stage Johnson (twisted-ring) counter with an enable input.
///
/// Only `2n` of the `2^n` states are reachable — a sparse set saturated
/// with functional dependencies between neighbouring stages, the shape
/// §3 of the paper credits for the BFV representation's compactness.
///
/// # Panics
///
/// Panics if `n` is outside [`JOHNSON_STAGES`].
#[must_use]
pub fn johnson(n: u32) -> Netlist {
    assert!(JOHNSON_STAGES.contains(&n));
    let mut b = NetlistBuilder::new(format!("johnson{n}"));
    b.input("en").expect("fresh");
    for i in 0..n {
        b.latch(format!("s{i}"), format!("ns{i}"), false)
            .expect("fresh");
    }
    b.inv("last_n", format!("s{}", n - 1).as_str());
    b.mux("ns0", "en", "last_n", "s0");
    for i in 1..n {
        let prev = format!("s{}", i - 1);
        let cur = format!("s{i}");
        b.mux(&format!("ns{i}"), "en", &prev, &cur);
    }
    b.gate("head", GateKind::Buf, &["s0"]).expect("fresh");
    b.output("head");
    b.finish().expect("johnson counter is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{as_u64, step};
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn shift_register_shifts() {
        let net = shift_register(4);
        let mut st = net.initial_state();
        let pattern = [true, false, true, true];
        for &d in &pattern {
            st = step(&net, &st, &[d]);
        }
        // Oldest bit reaches the top stage.
        assert_eq!(st, vec![true, true, false, true]);
    }

    #[test]
    fn lfsr_has_maximal_period() {
        for n in [2u32, 3, 4, 5, 6, 7, 8] {
            let net = lfsr(n);
            let mut st = net.initial_state();
            let mut seen = HashSet::new();
            seen.insert(as_u64(&st));
            let mut period = 0u64;
            loop {
                st = step(&net, &st, &[]);
                period += 1;
                if !seen.insert(as_u64(&st)) {
                    break;
                }
            }
            assert_eq!(period, (1u64 << n) - 1, "lfsr{n} period");
            assert!(
                !seen.contains(&((1u64 << n) - 1)),
                "all-ones must be unreachable"
            );
        }
    }

    #[test]
    fn johnson_visits_2n_states() {
        let n = 5;
        let net = johnson(n);
        let mut st = net.initial_state();
        let mut seen = HashSet::new();
        seen.insert(as_u64(&st));
        for _ in 0..4 * n {
            st = step(&net, &st, &[true]);
            seen.insert(as_u64(&st));
        }
        assert_eq!(seen.len(), 2 * n as usize);
        // Hold when disabled.
        let held = step(&net, &st, &[false]);
        assert_eq!(held, st);
    }
}
