//! Counter-style generators: binary, mod-k and Gray-code counters.

use crate::model::{GateKind, Netlist, NetlistBuilder};

use super::{modk_moduli, COUNTER_BITS};

/// An `n`-bit binary up-counter with an enable input.
///
/// Latches `c0` (LSB) … `c{n-1}`; input `en`; output `ov` (carry out of
/// the top bit). All `2^n` states are reachable; the fix-point takes `2^n`
/// image steps from the all-zero reset when stepping one count per cycle,
/// but the enable keeps every prefix set closed (reached sets are the
/// intervals `[0, t]` — a dense, well-conditioned family).
///
/// # Panics
///
/// Panics if `n` is outside [`COUNTER_BITS`].
#[must_use]
pub fn counter(n: u32) -> Netlist {
    assert!(COUNTER_BITS.contains(&n));
    let mut b = NetlistBuilder::new(format!("cnt{n}"));
    b.input("en").expect("fresh");
    for i in 0..n {
        b.latch(format!("c{i}"), format!("nc{i}"), false)
            .expect("fresh");
    }
    b.gate("cr0", GateKind::Buf, &["en"]).expect("fresh");
    for i in 0..n {
        let c = format!("c{i}");
        let cr = format!("cr{i}");
        let ncr = format!("cr{}", i + 1);
        b.gate(format!("nc{i}"), GateKind::Xor, &[c.as_str(), cr.as_str()])
            .expect("fresh");
        b.gate(&ncr, GateKind::And, &[cr.as_str(), c.as_str()])
            .expect("fresh");
    }
    b.gate("ov", GateKind::Buf, &[format!("cr{n}").as_str()])
        .expect("fresh");
    b.output("ov");
    b.finish().expect("counter is structurally valid")
}

/// An `n`-bit mod-`k` counter: counts `0 … k-1` and wraps to 0.
///
/// Exactly `k` of the `2^n` states are reachable and the traversal needs
/// `k` image computations — the "deep fix-point" family.
///
/// # Panics
///
/// Panics if `n` is outside [`COUNTER_BITS`] or `k` outside [`modk_moduli`].
pub fn counter_modk(n: u32, k: u64) -> Netlist {
    assert!(COUNTER_BITS.contains(&n));
    assert!(modk_moduli(n).contains(&k));
    let mut b = NetlistBuilder::new(format!("mod{k}x{n}"));
    b.input("en").expect("fresh");
    for i in 0..n {
        b.latch(format!("c{i}"), format!("nc{i}"), false)
            .expect("fresh");
    }
    // eq = (counter == k-1)
    let top = k - 1;
    let mut eq_terms = Vec::new();
    for i in 0..n {
        let bit = (top >> i) & 1 == 1;
        let t = format!("eq{i}");
        if bit {
            b.gate(&t, GateKind::Buf, &[format!("c{i}").as_str()])
                .expect("fresh");
        } else {
            b.gate(&t, GateKind::Not, &[format!("c{i}").as_str()])
                .expect("fresh");
        }
        eq_terms.push(t);
    }
    let refs: Vec<&str> = eq_terms.iter().map(String::as_str).collect();
    b.gate("eq", GateKind::And, &refs).expect("fresh");
    b.gate("wrap", GateKind::And, &["eq", "en"]).expect("fresh");
    b.gate("keep", GateKind::Not, &["wrap"]).expect("fresh");
    // Incrementer with the wrap squashing each next bit to 0.
    b.gate("cr0", GateKind::Buf, &["en"]).expect("fresh");
    for i in 0..n {
        let c = format!("c{i}");
        let cr = format!("cr{i}");
        b.gate(format!("inc{i}"), GateKind::Xor, &[c.as_str(), cr.as_str()])
            .expect("fresh");
        b.gate(
            format!("cr{}", i + 1),
            GateKind::And,
            &[cr.as_str(), c.as_str()],
        )
        .expect("fresh");
        b.gate(
            format!("nc{i}"),
            GateKind::And,
            &[format!("inc{i}").as_str(), "keep"],
        )
        .expect("fresh");
    }
    b.gate("atmax", GateKind::Buf, &["eq"]).expect("fresh");
    b.output("atmax");
    b.finish().expect("mod-k counter is structurally valid")
}

/// An `n`-bit Gray-code counter with an enable input.
///
/// State bits hold a Gray code; the next state is the Gray encoding of the
/// incremented binary value. Adjacent states differ in one bit, all `2^n`
/// states are reachable, and the traversal takes `2^n` steps — a deep
/// fix-point with XOR-rich logic.
///
/// # Panics
///
/// Panics if `n` is outside [`COUNTER_BITS`].
#[must_use]
pub fn gray(n: u32) -> Netlist {
    assert!(COUNTER_BITS.contains(&n));
    let mut b = NetlistBuilder::new(format!("gray{n}"));
    b.input("en").expect("fresh");
    for i in 0..n {
        b.latch(format!("g{i}"), format!("ng{i}"), false)
            .expect("fresh");
    }
    // Decode to binary: b_{n-1} = g_{n-1}; b_i = b_{i+1} ⊕ g_i.
    b.gate(
        format!("b{}", n - 1),
        GateKind::Buf,
        &[format!("g{}", n - 1).as_str()],
    )
    .expect("fresh");
    for i in (0..n - 1).rev() {
        b.gate(
            format!("b{i}"),
            GateKind::Xor,
            &[format!("b{}", i + 1).as_str(), format!("g{i}").as_str()],
        )
        .expect("fresh");
    }
    // Increment the binary value (gated by en).
    b.gate("cr0", GateKind::Buf, &["en"]).expect("fresh");
    for i in 0..n {
        b.gate(
            format!("s{i}"),
            GateKind::Xor,
            &[format!("b{i}").as_str(), format!("cr{i}").as_str()],
        )
        .expect("fresh");
        b.gate(
            format!("cr{}", i + 1),
            GateKind::And,
            &[format!("cr{i}").as_str(), format!("b{i}").as_str()],
        )
        .expect("fresh");
    }
    // Re-encode to Gray: ng_{n-1} = s_{n-1}; ng_i = s_i ⊕ s_{i+1}.
    b.gate(
        format!("ng{}", n - 1),
        GateKind::Buf,
        &[format!("s{}", n - 1).as_str()],
    )
    .expect("fresh");
    for i in 0..n - 1 {
        b.gate(
            format!("ng{i}"),
            GateKind::Xor,
            &[format!("s{i}").as_str(), format!("s{}", i + 1).as_str()],
        )
        .expect("fresh");
    }
    b.gate("msb", GateKind::Buf, &[format!("g{}", n - 1).as_str()])
        .expect("fresh");
    b.output("msb");
    b.finish().expect("gray counter is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{as_u64, step};
    use super::*;

    #[test]
    fn counter_counts() {
        let net = counter(4);
        let mut st = net.initial_state();
        for expect in 1..=20u64 {
            st = step(&net, &st, &[true]);
            assert_eq!(as_u64(&st), expect % 16);
        }
        // Disabled: holds.
        let held = step(&net, &st, &[false]);
        assert_eq!(held, st);
    }

    #[test]
    fn modk_wraps() {
        let net = counter_modk(4, 10);
        let mut st = net.initial_state();
        for expect in 1..=25u64 {
            st = step(&net, &st, &[true]);
            assert_eq!(as_u64(&st), expect % 10, "step {expect}");
        }
    }

    #[test]
    fn gray_cycles_through_all_codes() {
        let n = 4;
        let net = gray(n);
        let mut st = net.initial_state();
        let mut seen = std::collections::HashSet::new();
        seen.insert(as_u64(&st));
        for _ in 0..(1 << n) - 1 {
            let next = step(&net, &st, &[true]);
            // Gray property: exactly one bit flips.
            let diff = as_u64(&st) ^ as_u64(&next);
            assert_eq!(diff.count_ones(), 1, "not a Gray transition");
            st = next;
            seen.insert(as_u64(&st));
        }
        assert_eq!(seen.len(), 1 << n, "did not visit all codes");
        // One more step returns to 0.
        st = step(&net, &st, &[true]);
        assert_eq!(as_u64(&st), 0);
    }
}
