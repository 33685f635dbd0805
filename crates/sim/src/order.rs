//! Static variable-ordering heuristics.
//!
//! The paper (§3) uses *fixed* variable orders from several sources: the
//! VIS static order (S1), their own tool's static order (S2), orders from
//! dynamic-reordering runs (D), and third-party orders (P/O). We model the
//! spectrum with four heuristics over *slots* (latches and primary
//! inputs); the encoder then assigns each latch slot a pair of adjacent
//! BDD levels (current, next) and each input slot a single level.

use bfvr_netlist::{Netlist, SignalId};

/// One position in the variable order: a latch (by index) or a primary
/// input (by index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Latch `latches()[i]` (will occupy two adjacent levels).
    Latch(usize),
    /// Input `inputs()[i]` (one level).
    Input(usize),
}

/// A recipe for computing a static slot order for a netlist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderHeuristic {
    /// Depth-first traversal from the outputs through the combinational
    /// logic and across latch boundaries, recording inputs and latches in
    /// first-visit order — the classic fan-in ordering used by VIS-style
    /// static ordering (the paper's `S1` flavor).
    DfsFanin,
    /// Declaration order: latches then inputs as the netlist lists them
    /// (the paper's "our tool's static ordering" `S2` flavor).
    Declaration,
    /// Declaration order reversed — a deliberately degraded order standing
    /// in for the paper's externally-sourced `D`/`P` orders on circuits
    /// where those were bad for one representation.
    Reversed,
    /// A seeded random permutation (the paper's "other orders available to
    /// us", `O`).
    Random(u64),
    /// Cone-of-influence interleaving: output cones are laid out smallest
    /// first, each cone's latches and inputs in first-visit order from
    /// its output — so slots that interact through shared logic sit on
    /// adjacent levels. Derived from the `bfvr-nlint` COI analysis.
    Coi,
    /// FORCE (Aloul–Markov–Sakallah): iterative center-of-gravity
    /// placement over the support hypergraph (one hyperedge per latch
    /// next-state function and per output), keeping the lowest-span
    /// order encountered. Derived from the `bfvr-nlint` support
    /// analysis.
    Force,
}

impl OrderHeuristic {
    /// Computes the slot order for a netlist.
    #[must_use]
    pub fn slots(self, net: &Netlist) -> Vec<Slot> {
        match self {
            OrderHeuristic::DfsFanin => dfs_fanin(net),
            OrderHeuristic::Declaration => declaration(net),
            OrderHeuristic::Reversed => {
                let mut s = declaration(net);
                s.reverse();
                s
            }
            OrderHeuristic::Random(seed) => {
                let mut s = declaration(net);
                let mut state = seed | 1;
                for i in (1..s.len()).rev() {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let j = (state % (i as u64 + 1)) as usize;
                    s.swap(i, j);
                }
                s
            }
            OrderHeuristic::Coi => coi_interleaved(net),
            OrderHeuristic::Force => force(net),
        }
    }

    /// Parses a CLI/config order token. Accepts `s1` (DFS fan-in),
    /// `decl` (declaration order; `s2` kept as a legacy alias), `d`
    /// (reversed), `coi`, `force`, and `o:<seed>` for a seeded random
    /// order. Case-insensitive. Returns `None` on anything else.
    #[must_use]
    pub fn parse_token(token: &str) -> Option<Self> {
        match token.to_ascii_lowercase().as_str() {
            "s1" => Some(OrderHeuristic::DfsFanin),
            "s2" | "decl" => Some(OrderHeuristic::Declaration),
            "d" => Some(OrderHeuristic::Reversed),
            "coi" => Some(OrderHeuristic::Coi),
            "force" => Some(OrderHeuristic::Force),
            t => t
                .strip_prefix("o:")
                .and_then(|s| s.parse().ok())
                .map(OrderHeuristic::Random),
        }
    }

    /// The order's token, the inverse of [`OrderHeuristic::parse_token`]:
    /// `s1`, `decl`, `d`, `coi`, `force` or `o:<seed>`. Durable
    /// checkpoint headers record it so a resume rebuilds the exact
    /// manager the checkpoint was taken in.
    #[must_use]
    pub fn token(self) -> String {
        match self {
            OrderHeuristic::DfsFanin => "s1".to_string(),
            OrderHeuristic::Declaration => "decl".to_string(),
            OrderHeuristic::Reversed => "d".to_string(),
            OrderHeuristic::Random(seed) => format!("o:{seed}"),
            OrderHeuristic::Coi => "coi".to_string(),
            OrderHeuristic::Force => "force".to_string(),
        }
    }

    /// Short label used in benchmark tables (mirrors the paper's columns).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            OrderHeuristic::DfsFanin => "S1".to_string(),
            OrderHeuristic::Declaration => "S2".to_string(),
            OrderHeuristic::Reversed => "D".to_string(),
            OrderHeuristic::Random(seed) => format!("O{seed}"),
            OrderHeuristic::Coi => "COI".to_string(),
            OrderHeuristic::Force => "FORCE".to_string(),
        }
    }
}

fn declaration(net: &Netlist) -> Vec<Slot> {
    let mut slots: Vec<Slot> = (0..net.latches().len()).map(Slot::Latch).collect();
    slots.extend((0..net.inputs().len()).map(Slot::Input));
    slots
}

fn dfs_fanin(net: &Netlist) -> Vec<Slot> {
    // Roots: primary outputs first, then latch next-state functions, so
    // the traversal eventually covers every slot.
    let mut roots: Vec<SignalId> = net.outputs().to_vec();
    roots.extend(net.latches().iter().map(|l| l.input));
    dfs_from(net, &roots)
}

/// First-visit depth-first slot collection from `roots`, crossing latch
/// boundaries into next-state cones; slots never reached are appended in
/// declaration order so the cover is complete.
fn dfs_from(net: &Netlist, roots: &[SignalId]) -> Vec<Slot> {
    use bfvr_netlist::Driver;
    let mut seen = vec![false; net.num_signals()];
    let mut order = Vec::new();
    let latch_of: std::collections::HashMap<SignalId, usize> = net
        .latches()
        .iter()
        .enumerate()
        .map(|(i, l)| (l.output, i))
        .collect();
    let input_of: std::collections::HashMap<SignalId, usize> = net
        .inputs()
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i))
        .collect();
    for &root in roots {
        // Iterative DFS; latch boundaries enqueue their next-state cone
        // immediately after the latch is first seen (interleaving related
        // state variables, which is what makes fan-in orders effective).
        let mut stack = vec![root];
        while let Some(s) = stack.pop() {
            if seen[s.index()] {
                continue;
            }
            seen[s.index()] = true;
            if let Some(&l) = latch_of.get(&s) {
                order.push(Slot::Latch(l));
                stack.push(net.latches()[l].input);
            } else if let Some(&i) = input_of.get(&s) {
                order.push(Slot::Input(i));
            } else if let Driver::Gate(g) = net.driver(s) {
                stack.extend(net.gates()[g].inputs.iter().rev().copied());
            }
        }
    }
    // Latches/inputs whose outputs feed nothing are never *visited*; append
    // them in declaration order so the cover is complete.
    for (l, latch) in net.latches().iter().enumerate() {
        if !seen[latch.output.index()] {
            order.push(Slot::Latch(l));
        }
    }
    for (i, &inp) in net.inputs().iter().enumerate() {
        if !seen[inp.index()] {
            order.push(Slot::Input(i));
        }
    }
    order
}

/// COI interleaving: rank the outputs by cone size (smallest cone first)
/// and lay out each cone's slots in first-visit order from its output.
/// Small cones get compact, low-level variable blocks; big cones reuse
/// whatever of their support is already placed and append the rest.
fn coi_interleaved(net: &Netlist) -> Vec<Slot> {
    use bfvr_netlist::topo;
    let mut outs: Vec<(usize, SignalId)> = net
        .outputs()
        .iter()
        .map(|&o| {
            let (lat, inp) = topo::cone_of_influence(net, &[o]);
            (lat.len() + inp.len(), o)
        })
        .collect();
    outs.sort_by_key(|&(size, s)| (size, s.index()));
    let mut roots: Vec<SignalId> = outs.into_iter().map(|(_, s)| s).collect();
    // Latches outside every output cone still need positions near their
    // own next-state support; root their next functions after the cones.
    roots.extend(net.latches().iter().map(|l| l.input));
    dfs_from(net, &roots)
}

/// FORCE (Aloul–Markov–Sakallah DAC'03): treat each latch next-state
/// support (plus the latch itself) and each output support as a
/// hyperedge over the slots, then repeatedly move every slot to the
/// mean of the centers of gravity of its edges and re-sort. Total edge
/// span monotonically shrinks in practice; we keep the best order seen.
fn force(net: &Netlist) -> Vec<Slot> {
    let nl = net.latches().len();
    let ni = net.inputs().len();
    let n = nl + ni;
    if n == 0 {
        return Vec::new();
    }
    // Vertices 0..nl are latches, nl..n are inputs.
    let mut edges: Vec<Vec<usize>> = Vec::new();
    for (l, sup) in bfvr_nlint::support::latch_supports(net).iter().enumerate() {
        let mut e: Vec<usize> = vec![l];
        e.extend(sup.latches.iter().copied());
        e.extend(sup.inputs.iter().map(|&i| nl + i));
        e.sort_unstable();
        e.dedup();
        if e.len() >= 2 {
            edges.push(e);
        }
    }
    for sup in &bfvr_nlint::support::output_supports(net) {
        let mut e: Vec<usize> = sup.latches.clone();
        e.extend(sup.inputs.iter().map(|&i| nl + i));
        e.sort_unstable();
        e.dedup();
        if e.len() >= 2 {
            edges.push(e);
        }
    }
    let span_of = |order: &[usize]| -> usize {
        let mut rank = vec![0usize; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v] = r;
        }
        edges
            .iter()
            .map(|e| {
                let lo = e.iter().map(|&v| rank[v]).min().unwrap_or(0);
                let hi = e.iter().map(|&v| rank[v]).max().unwrap_or(0);
                hi - lo
            })
            .sum()
    };
    let mut order: Vec<usize> = (0..n).collect();
    if edges.is_empty() {
        // Nothing to optimise (e.g. every latch holds a constant).
        return order
            .into_iter()
            .map(|v| {
                if v < nl {
                    Slot::Latch(v)
                } else {
                    Slot::Input(v - nl)
                }
            })
            .collect();
    }
    let mut best = order.clone();
    let mut best_span = span_of(&best);
    for _ in 0..50 {
        let mut rank = vec![0usize; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v] = r;
        }
        // Center of gravity of each hyperedge…
        let cogs: Vec<f64> = edges
            .iter()
            .map(|e| e.iter().map(|&v| rank[v] as f64).sum::<f64>() / e.len() as f64)
            .collect();
        // …pulls each member vertex toward the mean of its edges' COGs.
        let mut acc = vec![0.0f64; n];
        let mut cnt = vec![0usize; n];
        for (ei, e) in edges.iter().enumerate() {
            for &v in e {
                acc[v] += cogs[ei];
                cnt[v] += 1;
            }
        }
        let pos: Vec<f64> = (0..n)
            .map(|v| {
                if cnt[v] > 0 {
                    acc[v] / cnt[v] as f64
                } else {
                    rank[v] as f64
                }
            })
            .collect();
        let mut next: Vec<usize> = (0..n).collect();
        // Stable: ties keep their previous relative order, so the
        // iteration is deterministic and converges to a fixpoint.
        next.sort_by(|&a, &b| pos[a].total_cmp(&pos[b]).then(rank[a].cmp(&rank[b])));
        if next == order {
            break;
        }
        order = next;
        let s = span_of(&order);
        if s < best_span {
            best_span = s;
            best = order.clone();
        }
    }
    best.into_iter()
        .map(|v| {
            if v < nl {
                Slot::Latch(v)
            } else {
                Slot::Input(v - nl)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfvr_netlist::generators;

    fn check_complete(net: &Netlist, slots: &[Slot]) {
        let latches = slots.iter().filter(|s| matches!(s, Slot::Latch(_))).count();
        let inputs = slots.iter().filter(|s| matches!(s, Slot::Input(_))).count();
        assert_eq!(latches, net.latches().len());
        assert_eq!(inputs, net.inputs().len());
        // No duplicates.
        let mut seen = std::collections::HashSet::new();
        for s in slots {
            assert!(seen.insert(format!("{s:?}")), "duplicate slot {s:?}");
        }
    }

    #[test]
    fn all_heuristics_produce_complete_orders() {
        let nets = [
            generators::counter(5),
            generators::paired_registers(3),
            generators::queue_controller(2),
        ];
        for net in &nets {
            for h in [
                OrderHeuristic::DfsFanin,
                OrderHeuristic::Declaration,
                OrderHeuristic::Reversed,
                OrderHeuristic::Random(42),
                OrderHeuristic::Coi,
                OrderHeuristic::Force,
            ] {
                check_complete(net, &h.slots(net));
            }
        }
    }

    #[test]
    fn random_orders_differ_by_seed() {
        let net = generators::counter(8);
        let a = OrderHeuristic::Random(1).slots(&net);
        let b = OrderHeuristic::Random(2).slots(&net);
        assert_ne!(a, b);
        // Same seed is deterministic.
        assert_eq!(a, OrderHeuristic::Random(1).slots(&net));
    }

    #[test]
    fn reversed_is_reverse_of_declaration() {
        let net = generators::johnson(4);
        let mut d = OrderHeuristic::Declaration.slots(&net);
        d.reverse();
        assert_eq!(d, OrderHeuristic::Reversed.slots(&net));
    }

    #[test]
    fn tokens_round_trip_through_the_parser() {
        let mut orders = vec![
            OrderHeuristic::DfsFanin,
            OrderHeuristic::Declaration,
            OrderHeuristic::Reversed,
            OrderHeuristic::Coi,
            OrderHeuristic::Force,
        ];
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..64 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            orders.push(OrderHeuristic::Random(seed));
        }
        orders.extend([0, 1, 99, u64::MAX].map(OrderHeuristic::Random));
        for h in orders {
            assert_eq!(OrderHeuristic::parse_token(&h.token()), Some(h), "{h:?}");
        }
        // The legacy alias parses but is never written.
        assert_eq!(OrderHeuristic::Declaration.token(), "decl");
        assert_eq!(
            OrderHeuristic::parse_token("s2"),
            Some(OrderHeuristic::Declaration)
        );
    }

    #[test]
    fn labels() {
        assert_eq!(OrderHeuristic::DfsFanin.label(), "S1");
        assert_eq!(OrderHeuristic::Random(7).label(), "O7");
        assert_eq!(OrderHeuristic::Coi.label(), "COI");
        assert_eq!(OrderHeuristic::Force.label(), "FORCE");
    }

    #[test]
    fn force_never_worse_than_declaration_span() {
        // FORCE keeps the best order it sees, starting from declaration
        // order — so its support span can only shrink or stay put.
        for (name, net) in generators::standard_suite() {
            let span = |slots: &[Slot]| -> usize {
                let nl = net.latches().len();
                let mut rank = std::collections::HashMap::new();
                for (r, s) in slots.iter().enumerate() {
                    let v = match s {
                        Slot::Latch(l) => *l,
                        Slot::Input(i) => nl + i,
                    };
                    rank.insert(v, r);
                }
                let mut total = 0usize;
                for (l, sup) in bfvr_nlint::support::latch_supports(&net).iter().enumerate() {
                    let mut vs: Vec<usize> = vec![l];
                    vs.extend(sup.latches.iter().copied());
                    vs.extend(sup.inputs.iter().map(|&i| nl + i));
                    vs.sort_unstable();
                    vs.dedup();
                    if vs.len() < 2 {
                        continue;
                    }
                    let lo = vs.iter().map(|v| rank[v]).min().unwrap();
                    let hi = vs.iter().map(|v| rank[v]).max().unwrap();
                    total += hi - lo;
                }
                total
            };
            let decl = span(&OrderHeuristic::Declaration.slots(&net));
            let forced = span(&OrderHeuristic::Force.slots(&net));
            assert!(forced <= decl, "{name}: FORCE span {forced} > decl {decl}");
        }
    }
}
