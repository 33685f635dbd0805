//! Generators with strong structural invariants: paired registers, FIFO
//! queue controller, one-hot rotator and coupled traffic controllers.

use crate::model::{GateKind, Netlist, NetlistBuilder};

use super::{BuilderExt, PAIRS, QUEUE_POINTER_BITS, ROTATOR_STATIONS, TRAFFIC_STAGES};

/// `p` pairs of twin registers: both registers of pair `i` load the same
/// value `a_i ⊕ d_i` each cycle, so `a_i = b_i` invariantly.
///
/// The reachable set is exactly the paper's §3 variable-ordering example
/// `χ = ⋀ᵢ (a_i ↔ b_i)`: its characteristic-function BDD is linear when
/// the pairs are interleaved in the order and *exponential* when all `a`s
/// precede all `b`s, while the Boolean functional vector stays linear
/// under **any** order (the dependency `b_i = a_i` is factored out by the
/// representation). The latch declaration order is `a0 … a{p-1} b0 …
/// b{p-1}` — the hostile order — so ordering heuristics must work for it.
///
/// # Panics
///
/// Panics if `p` is outside [`PAIRS`].
#[must_use]
pub fn paired_registers(p: u32) -> Netlist {
    assert!(PAIRS.contains(&p));
    let mut b = NetlistBuilder::new(format!("pair{p}"));
    for i in 0..p {
        b.input(format!("d{i}")).expect("fresh");
    }
    for i in 0..p {
        b.latch(format!("a{i}"), format!("n{i}"), false)
            .expect("fresh");
    }
    for i in 0..p {
        b.latch(format!("b{i}"), format!("nb{i}"), false)
            .expect("fresh");
    }
    for i in 0..p {
        b.gate(
            format!("n{i}"),
            GateKind::Xor,
            &[format!("a{i}").as_str(), format!("d{i}").as_str()],
        )
        .expect("fresh");
        b.gate(format!("nb{i}"), GateKind::Buf, &[format!("n{i}").as_str()])
            .expect("fresh");
    }
    let eq0 = "eq0".to_string();
    b.gate(&eq0, GateKind::Xnor, &["a0", "b0"]).expect("fresh");
    b.gate("match", GateKind::Buf, &[eq0.as_str()])
        .expect("fresh");
    b.output("match");
    b.finish().expect("paired registers are structurally valid")
}

/// A FIFO queue controller with `2^k` slots: `head` and `tail` pointers
/// (`k` bits each) and a `count` register (`k+1` bits), driven by `push`
/// and `pop` requests that are ignored when full/empty.
///
/// Reachable states satisfy `tail = head + count (mod 2^k)` — a functional
/// dependency across register *groups* that the BFV representation factors
/// out while the characteristic function must encode it across the
/// variable order.
///
/// # Panics
///
/// Panics if `k` is outside [`QUEUE_POINTER_BITS`].
pub fn queue_controller(k: u32) -> Netlist {
    assert!(QUEUE_POINTER_BITS.contains(&k));
    let mut b = NetlistBuilder::new(format!("queue{k}"));
    b.input("push").expect("fresh");
    b.input("pop").expect("fresh");
    for i in 0..k {
        b.latch(format!("h{i}"), format!("nh{i}"), false)
            .expect("fresh");
    }
    for i in 0..=k {
        b.latch(format!("q{i}"), format!("nq{i}"), false)
            .expect("fresh");
    }
    for i in 0..k {
        b.latch(format!("t{i}"), format!("nt{i}"), false)
            .expect("fresh");
    }
    // full = count == 2^k (bit k set); empty = count == 0.
    b.gate("full", GateKind::Buf, &[format!("q{k}").as_str()])
        .expect("fresh");
    let qrefs: Vec<String> = (0..=k).map(|i| format!("q{i}")).collect();
    let qr: Vec<&str> = qrefs.iter().map(String::as_str).collect();
    b.gate("empty", GateKind::Nor, &qr).expect("fresh");
    b.gate("nfull", GateKind::Not, &["full"]).expect("fresh");
    b.gate("nempty", GateKind::Not, &["empty"]).expect("fresh");
    b.gate("do_push", GateKind::And, &["push", "nfull"])
        .expect("fresh");
    b.gate("do_pop", GateKind::And, &["pop", "nempty"])
        .expect("fresh");
    // head' = head + do_pop ; tail' = tail + do_push (k-bit wrap-around).
    incrementer(&mut b, "h", "nh", k, "do_pop");
    incrementer(&mut b, "t", "nt", k, "do_push");
    // count' = count + do_push − do_pop: up when push-only, down when
    // pop-only, hold otherwise.
    b.gate("npop", GateKind::Not, &["do_pop"]).expect("fresh");
    b.gate("npush", GateKind::Not, &["do_push"]).expect("fresh");
    b.gate("up", GateKind::And, &["do_push", "npop"])
        .expect("fresh");
    b.gate("down", GateKind::And, &["do_pop", "npush"])
        .expect("fresh");
    // Increment and decrement candidates for count.
    incrementer(&mut b, "q", "qinc", k + 1, "up");
    decrementer(&mut b, "q", "qdec", k + 1, "down");
    for i in 0..=k {
        // If up: qinc; if down: qdec; else hold. up/down are exclusive and
        // the candidate networks already hold when their enable is low, so
        // nq = down ? qdec : qinc covers all three cases.
        b.mux(
            &format!("nq{i}"),
            "down",
            &format!("qdec{i}"),
            &format!("qinc{i}"),
        );
    }
    b.output("full");
    b.output("empty");
    b.finish().expect("queue controller is structurally valid")
}

/// Ripple incrementer: `dst = src + en` over `n` bits.
fn incrementer(b: &mut NetlistBuilder, src: &str, dst: &str, n: u32, en: &str) {
    b.gate(format!("{dst}$c0"), GateKind::Buf, &[en])
        .expect("fresh");
    for i in 0..n {
        let s = format!("{src}{i}");
        let c = format!("{dst}$c{i}");
        let nc = format!("{dst}$c{}", i + 1);
        b.gate(
            format!("{dst}{i}"),
            GateKind::Xor,
            &[s.as_str(), c.as_str()],
        )
        .expect("fresh");
        b.gate(&nc, GateKind::And, &[c.as_str(), s.as_str()])
            .expect("fresh");
    }
}

/// Ripple decrementer: `dst = src − en` over `n` bits.
fn decrementer(b: &mut NetlistBuilder, src: &str, dst: &str, n: u32, en: &str) {
    b.gate(format!("{dst}$b0"), GateKind::Buf, &[en])
        .expect("fresh");
    for i in 0..n {
        let s = format!("{src}{i}");
        let c = format!("{dst}$b{i}");
        let nc = format!("{dst}$b{}", i + 1);
        b.gate(
            format!("{dst}{i}"),
            GateKind::Xor,
            &[s.as_str(), c.as_str()],
        )
        .expect("fresh");
        let sn = format!("{dst}$n{i}");
        b.gate(&sn, GateKind::Not, &[s.as_str()]).expect("fresh");
        b.gate(&nc, GateKind::And, &[c.as_str(), sn.as_str()])
            .expect("fresh");
    }
}

/// An `n`-station one-hot token rotator (round-robin arbiter core).
///
/// Exactly one of the `n` grant flops holds the token (reset: station 0);
/// the `adv` input rotates it. Only `n` of `2^n` states are reachable —
/// an extremely sparse constraint set.
///
/// # Panics
///
/// Panics if `n` is outside [`ROTATOR_STATIONS`].
#[must_use]
pub fn rotator(n: u32) -> Netlist {
    assert!(ROTATOR_STATIONS.contains(&n));
    let mut b = NetlistBuilder::new(format!("rot{n}"));
    b.input("adv").expect("fresh");
    b.latch("t0", "nt0", true).expect("fresh");
    for i in 1..n {
        b.latch(format!("t{i}"), format!("nt{i}"), false)
            .expect("fresh");
    }
    for i in 0..n {
        let prev = format!("t{}", (i + n as usize as u32 - 1) % n);
        let cur = format!("t{i}");
        b.mux(&format!("nt{i}"), "adv", &prev, &cur);
    }
    b.gate("grant0", GateKind::Buf, &["t0"]).expect("fresh");
    b.output("grant0");
    b.finish().expect("rotator is structurally valid")
}

/// A chain of `k` two-bit cyclic controllers; stage `i` advances only when
/// stage `i-1` is in its final phase (stage 0 advances on the `go` input).
///
/// The coupling creates a long sequential depth with a product-structured
/// but constrained reachable set.
///
/// # Panics
///
/// Panics if `k` is outside [`TRAFFIC_STAGES`].
#[must_use]
pub fn traffic_chain(k: u32) -> Netlist {
    assert!(TRAFFIC_STAGES.contains(&k));
    let mut b = NetlistBuilder::new(format!("traffic{k}"));
    b.input("go").expect("fresh");
    for i in 0..k {
        b.latch(format!("p0_{i}"), format!("np0_{i}"), false)
            .expect("fresh");
        b.latch(format!("p1_{i}"), format!("np1_{i}"), false)
            .expect("fresh");
    }
    b.gate("en_0", GateKind::Buf, &["go"]).expect("fresh");
    for i in 0..k {
        let p0 = format!("p0_{i}");
        let p1 = format!("p1_{i}");
        let en = format!("en_{i}");
        // Two-bit counter: p0' = p0 ⊕ en; p1' = p1 ⊕ (en ∧ p0).
        b.gate(
            format!("x0_{i}"),
            GateKind::Xor,
            &[p0.as_str(), en.as_str()],
        )
        .expect("fresh");
        b.gate(format!("c_{i}"), GateKind::And, &[en.as_str(), p0.as_str()])
            .expect("fresh");
        b.gate(
            format!("x1_{i}"),
            GateKind::Xor,
            &[p1.as_str(), format!("c_{i}").as_str()],
        )
        .expect("fresh");
        b.gate(
            format!("np0_{i}"),
            GateKind::Buf,
            &[format!("x0_{i}").as_str()],
        )
        .expect("fresh");
        b.gate(
            format!("np1_{i}"),
            GateKind::Buf,
            &[format!("x1_{i}").as_str()],
        )
        .expect("fresh");
        // Next stage advances when this stage is in phase 3 and advancing.
        let both = format!("ph3_{i}");
        b.gate(&both, GateKind::And, &[p0.as_str(), p1.as_str()])
            .expect("fresh");
        b.gate(
            format!("en_{}", i + 1),
            GateKind::And,
            &[both.as_str(), en.as_str()],
        )
        .expect("fresh");
    }
    b.gate("done", GateKind::Buf, &[format!("en_{k}").as_str()])
        .expect("fresh");
    b.output("done");
    b.finish().expect("traffic chain is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::super::testutil::step;
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn paired_registers_keep_twins_equal() {
        let p = 4;
        let net = paired_registers(p);
        let mut st = net.initial_state();
        let mut rng = 0x2545F4914F6CDD1Du64;
        for _ in 0..50 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let ins: Vec<bool> = (0..p).map(|i| rng >> i & 1 == 1).collect();
            st = step(&net, &st, &ins);
            for i in 0..p as usize {
                assert_eq!(st[i], st[p as usize + i], "twin {i} diverged");
            }
        }
    }

    #[test]
    fn queue_invariant_holds() {
        let k = 3;
        let net = queue_controller(k);
        let cap = 1u64 << k;
        let mut st = net.initial_state();
        let mut rng = 0x9E3779B97F4A7C15u64;
        let read = |st: &[bool]| {
            let h: u64 = (0..k as usize).map(|i| (st[i] as u64) << i).sum();
            let q: u64 = (0..=k as usize)
                .map(|i| (st[k as usize + i] as u64) << i)
                .sum();
            let t: u64 = (0..k as usize)
                .map(|i| (st[(2 * k as usize + 1) + i] as u64) << i)
                .sum();
            (h, q, t)
        };
        for _ in 0..300 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            st = step(&net, &st, &[rng & 1 == 1, rng & 2 == 2]);
            let (h, q, t) = read(&st);
            assert!(q <= cap, "count overflow: {q}");
            assert_eq!(t, (h + q) % cap, "pointer invariant violated");
        }
    }

    #[test]
    fn rotator_is_one_hot() {
        let n = 5;
        let net = rotator(n);
        let mut st = net.initial_state();
        let mut seen = HashSet::new();
        for i in 0..3 * n as usize {
            assert_eq!(
                st.iter().filter(|&&b| b).count(),
                1,
                "not one-hot at step {i}"
            );
            seen.insert(st.clone());
            st = step(&net, &st, &[true]);
        }
        assert_eq!(seen.len(), n as usize);
        let held = step(&net, &st, &[false]);
        assert_eq!(held, st);
    }

    #[test]
    fn traffic_chain_counts_slowly() {
        let net = traffic_chain(2);
        let mut st = net.initial_state();
        // Stage 1 advances once per 4 advances of stage 0.
        for _ in 0..4 {
            st = step(&net, &st, &[true]);
        }
        // After 4 go-steps: stage 0 back to phase 0, stage 1 in phase 1.
        assert_eq!(st, vec![false, false, true, false]);
    }
}
