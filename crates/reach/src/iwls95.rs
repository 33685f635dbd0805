//! Partitioned transition relation with IWLS95-style clustering and early
//! quantification — the configuration of the paper's "VIS-IWLS" baseline.
//!
//! The schedule orders clusters by variable lifetime, the quantity the
//! IWLS95 cost function (Ranjan et al., IWLS'95) and the MLP schedule
//! (Moon, Hachtel and Somenzi, FMCAD 2000) both weigh: each step takes
//! the cluster that leaves the fewest variables live in the product,
//! counting the ones it brings in against the ones it retires (see
//! [`schedule`]). Each quantifiable variable is smoothed out right after
//! its last occurrence.

use std::cmp::Reverse;

use bfvr_bdd::{Bdd, BddManager, Var};
use bfvr_sim::EncodedFsm;

/// A processed cluster: its relation and the quantifiable variables whose
/// last occurrence is this cluster.
pub(crate) struct Cluster {
    /// The cluster's conjoined per-latch relations.
    pub(crate) relation: Bdd,
    /// Cube of the quantifiable variables retired at this step.
    pub(crate) retire_cube: Bdd,
}

/// Builds clusters of per-latch relations, greedily conjoined until the
/// BDD size threshold is exceeded [IWLS95].
pub(crate) fn build_clusters(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    threshold: usize,
) -> Result<Vec<Bdd>, bfvr_bdd::BddError> {
    let mut clusters = Vec::new();
    let mut acc = Bdd::TRUE;
    for c in 0..fsm.num_latches() {
        let l = fsm.latch_of_component(c);
        let (_, u) = fsm.state_vars(l);
        let uu = m.var(u);
        let r = m.xnor(uu, fsm.next_fn(l))?;
        let joined = m.and(acc, r)?;
        // Only "over the threshold?" matters: stop walking one node past it.
        if !acc.is_true()
            && m.shared_size_capped(&[joined], threshold.saturating_add(1)) > threshold
        {
            clusters.push(acc);
            acc = r;
        } else {
            acc = joined;
        }
    }
    if !acc.is_true() || clusters.is_empty() {
        clusters.push(acc);
    }
    Ok(clusters)
}

/// Orders clusters by variable lifetime and computes each step's retire
/// cube.
///
/// Let `A` be the variables that the clusters chosen so far brought into
/// the product and that are not yet retired (`A` starts empty). Each step
/// picks the remaining cluster `T` that minimises
/// `|A ∪ supp(T)| − |retired(T)|`, the live variables the product carries
/// after the step. Ties go to the cluster that retires more, then to the
/// smaller support. `supp(T)` is the full support, next-state variables
/// included; `retired(T)` holds the quantifiable variables of `supp(T)`
/// that no other remaining cluster reads. A variable retires at its last
/// occurrence, so it is in exactly one retire cube and no later cluster
/// reads it. Each support is computed once.
pub(crate) fn schedule(
    m: &mut BddManager,
    clusters: Vec<Bdd>,
    quantifiable: &[Var],
) -> Result<Vec<Cluster>, bfvr_bdd::BddError> {
    let n = m.num_vars() as usize;
    let mut is_q = vec![false; n];
    for &v in quantifiable {
        is_q[v.0 as usize] = true;
    }
    let mut remaining: Vec<(Bdd, Vec<Var>)> = clusters
        .into_iter()
        .map(|c| (c, m.support(c).vars()))
        .collect();
    // How many remaining clusters read each variable.
    let mut readers = vec![0usize; n];
    for (_, support) in &remaining {
        for v in support {
            readers[v.0 as usize] += 1;
        }
    }
    let retires = |readers: &[usize], v: &Var| is_q[v.0 as usize] && readers[v.0 as usize] == 1;
    // `A`: the variables the product carries, as a flag per variable.
    let mut live = vec![false; n];
    let mut live_len = 0usize;
    let mut ordered = Vec::with_capacity(remaining.len());
    while let Some(best) = (0..remaining.len()).min_by_key(|&i| {
        let support = &remaining[i].1;
        let retired = support.iter().filter(|v| retires(&readers, v)).count();
        let introduced = support.iter().filter(|v| !live[v.0 as usize]).count();
        // Retired variables are in `A ∪ supp(T)`: no underflow.
        (
            live_len + introduced - retired,
            Reverse(retired),
            support.len(),
        )
    }) {
        let (relation, support) = remaining.swap_remove(best);
        let mut retire = Vec::new();
        for v in support {
            let i = v.0 as usize;
            if retires(&readers, &v) {
                retire.push(v);
                live_len -= usize::from(live[i]);
                live[i] = false;
            } else if !live[i] {
                live[i] = true;
                live_len += 1;
            }
            readers[i] -= 1;
        }
        let retire_cube = m.cube_from_vars(&retire)?;
        ordered.push(Cluster {
            relation,
            retire_cube,
        });
    }
    Ok(ordered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Outcome;
    use crate::{run, EngineKind, ReachOptions};
    use bfvr_netlist::generators;
    use bfvr_sim::OrderHeuristic;

    /// The Table 2 orders, `bfvr_bench::table_orders`: S1, S2, D, O17.
    const TABLE_ORDERS: [OrderHeuristic; 4] = [
        OrderHeuristic::DfsFanin,
        OrderHeuristic::Declaration,
        OrderHeuristic::Reversed,
        OrderHeuristic::Random(17),
    ];

    #[test]
    fn iwls_agrees_with_monolithic_and_bfv() {
        for net in [
            generators::counter(6),
            generators::johnson(6),
            generators::queue_controller(2),
            bfvr_netlist::circuits::s27(),
            generators::paired_registers(4),
            // Mask and load share inputs across clusters.
            generators::masked_accumulator(6),
            generators::loadable_register(6),
            generators::gray(6),
            generators::lfsr(8),
            generators::queue_controller(3),
        ] {
            for order in TABLE_ORDERS {
                let (mut m, fsm) = EncodedFsm::encode(&net, order).unwrap();
                let a = run(EngineKind::Iwls95, &mut m, &fsm, &ReachOptions::default());
                let b = run(
                    EngineKind::Monolithic,
                    &mut m,
                    &fsm,
                    &ReachOptions::default(),
                );
                let c = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
                let name = format!("{} under {order:?}", net.name());
                assert_eq!(a.outcome, Outcome::FixedPoint, "{name}");
                assert_eq!(a.reached_chi, b.reached_chi, "{name}: iwls vs mono");
                assert_eq!(a.iterations, b.iterations, "{name}: iwls vs mono");
                assert_eq!(a.reached_chi, c.reached_chi, "{name}: iwls vs bfv");
            }
        }
    }

    #[test]
    fn schedule_retires_each_variable_once_at_its_last_occurrence() {
        for net in [
            generators::masked_accumulator(6),
            generators::loadable_register(6),
            generators::gray(6),
            generators::lfsr(8),
            generators::queue_controller(3),
            generators::paired_registers(4),
            bfvr_netlist::circuits::s27(),
        ] {
            for order in TABLE_ORDERS {
                let (mut m, fsm) = EncodedFsm::encode(&net, order).unwrap();
                let mut qvars: Vec<Var> = fsm.space().vars().to_vec();
                qvars.extend(fsm.input_vars());
                for threshold in [5, 500] {
                    let name = format!("{} under {order:?}, threshold {threshold}", net.name());
                    let mut raw = build_clusters(&mut m, &fsm, threshold).unwrap();
                    let ordered = schedule(&mut m, raw.clone(), &qvars).unwrap();
                    let mut relations: Vec<Bdd> = ordered.iter().map(|c| c.relation).collect();
                    raw.sort();
                    relations.sort();
                    assert_eq!(relations, raw, "{name}: not a permutation");
                    let reads: Vec<_> = ordered.iter().map(|c| m.support(c.relation)).collect();
                    let retires: Vec<_> =
                        ordered.iter().map(|c| m.support(c.retire_cube)).collect();
                    for &v in &qvars {
                        let last = reads.iter().rposition(|s| s.contains(v));
                        let at: Vec<usize> = (0..retires.len())
                            .filter(|&i| retires[i].contains(v))
                            .collect();
                        assert_eq!(at, Vec::from_iter(last), "{name}: {v:?}");
                    }
                    for (i, retire) in retires.iter().enumerate() {
                        assert!(
                            reads[i + 1..].iter().all(|s| !s.intersects(retire)),
                            "{name}: step {i} retires a variable a later cluster reads"
                        );
                    }
                }
            }
        }
    }

    /// Schedules clusters that conjoin the given variables, with
    /// `0..quantifiable` quantifiable; returns the order as indices into
    /// `clusters` and each step's retired variables.
    fn schedule_by_support(
        vars: u32,
        quantifiable: u32,
        clusters: &[&[u32]],
    ) -> (Vec<usize>, Vec<Vec<u32>>) {
        let mut m = BddManager::new(vars);
        let relations: Vec<Bdd> = clusters
            .iter()
            .map(|vs| {
                let lits: Vec<Bdd> = vs.iter().map(|&v| m.var(Var(v))).collect();
                m.and_all(&lits).unwrap()
            })
            .collect();
        let q: Vec<Var> = (0..quantifiable).map(Var).collect();
        let ordered = schedule(&mut m, relations.clone(), &q).unwrap();
        let picks = ordered
            .iter()
            .map(|c| relations.iter().position(|&r| r == c.relation).unwrap())
            .collect();
        let retired = ordered
            .iter()
            .map(|c| {
                m.support(c.retire_cube)
                    .vars()
                    .iter()
                    .map(|v| v.0)
                    .collect()
            })
            .collect();
        (picks, retired)
    }

    #[test]
    fn schedule_minimises_the_live_variables() {
        // 0..=7 quantifiable, 8..=10 next-state. T0 retires the most
        // (0..=3) but leaves 7 − 4 = 3 live; T2 leaves {4, 9}, 2 live.
        // Then T0 and T1 would both leave 4 live; T0 retires more.
        let (picks, retired) =
            schedule_by_support(11, 8, &[&[0, 1, 2, 3, 4, 5, 8], &[4, 5, 7, 10], &[4, 6, 9]]);
        assert_eq!(picks, vec![2, 0, 1]);
        assert_eq!(retired, vec![vec![6], vec![0, 1, 2, 3], vec![4, 5, 7]]);
        // 0..=3 quantifiable. Next-state variables count as live: T0
        // retires variable 0 but brings three of them in, 4 − 1 = 3; T1
        // leaves {2, 7}, 2 live.
        let (picks, retired) =
            schedule_by_support(10, 4, &[&[0, 4, 5, 6], &[1, 2, 7], &[2, 3, 8, 9]]);
        assert_eq!(picks, vec![1, 2, 0]);
        assert_eq!(retired, vec![vec![1], vec![2, 3], vec![0]]);
    }

    #[test]
    fn small_threshold_makes_many_clusters() {
        let net = generators::counter(8);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let tiny = build_clusters(&mut m, &fsm, 1).unwrap();
        let big = build_clusters(&mut m, &fsm, 100_000).unwrap();
        assert!(tiny.len() > big.len());
        assert_eq!(big.len(), 1);
        // Both cluster sets conjoin to the same relation.
        let t1 = m.and_all(&tiny).unwrap();
        let t2 = m.and_all(&big).unwrap();
        assert_eq!(t1, t2);
    }

    /// `build_clusters` with the full size walk in its threshold test.
    fn build_clusters_full_walk(
        m: &mut BddManager,
        fsm: &EncodedFsm,
        threshold: usize,
    ) -> Vec<Bdd> {
        let mut clusters = Vec::new();
        let mut acc = Bdd::TRUE;
        for c in 0..fsm.num_latches() {
            let l = fsm.latch_of_component(c);
            let (_, u) = fsm.state_vars(l);
            let uu = m.var(u);
            let r = m.xnor(uu, fsm.next_fn(l)).unwrap();
            let joined = m.and(acc, r).unwrap();
            if !acc.is_true() && m.size(joined) > threshold {
                clusters.push(acc);
                acc = r;
            } else {
                acc = joined;
            }
        }
        if !acc.is_true() || clusters.is_empty() {
            clusters.push(acc);
        }
        clusters
    }

    #[test]
    fn capped_threshold_test_builds_the_full_walk_clusters() {
        for net in [
            generators::counter(8),
            generators::queue_controller(3),
            generators::lfsr(8),
        ] {
            let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
            for threshold in [0, 1, 5, 20, 100, usize::MAX] {
                assert_eq!(
                    build_clusters(&mut m, &fsm, threshold).unwrap(),
                    build_clusters_full_walk(&mut m, &fsm, threshold),
                    "{} threshold {threshold}",
                    net.name()
                );
            }
        }
    }

    #[test]
    fn threshold_does_not_change_result() {
        let net = generators::traffic_chain(3);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let r1 = run(
            EngineKind::Iwls95,
            &mut m,
            &fsm,
            &ReachOptions {
                cluster_threshold: 5,
                ..Default::default()
            },
        );
        let r2 = run(
            EngineKind::Iwls95,
            &mut m,
            &fsm,
            &ReachOptions {
                cluster_threshold: 10_000,
                ..Default::default()
            },
        );
        assert_eq!(r1.reached_chi, r2.reached_chi);
    }
}
