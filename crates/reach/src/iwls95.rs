//! Partitioned transition relation with IWLS95-style clustering and early
//! quantification — the configuration of the paper's "VIS-IWLS" baseline.

use bfvr_bdd::{Bdd, BddManager, Var};
use bfvr_sim::EncodedFsm;

use crate::backends::ChiBackend;
use crate::common::{ReachOptions, ReachResult};
use crate::driver::run_fixed_point;
use crate::EngineKind;

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

/// Orders clusters and computes each step's retire cube: the greedy
/// IWLS95-flavored schedule — at every step pick the cluster that retires
/// the most quantifiable variables (variables absent from all remaining
/// clusters), breaking ties toward smaller support.
pub(crate) fn schedule(
    m: &mut BddManager,
    clusters: Vec<Bdd>,
    quantifiable: &[Var],
) -> Result<Vec<Cluster>, bfvr_bdd::BddError> {
    let mut remaining: Vec<Bdd> = clusters;
    let mut ordered = Vec::with_capacity(remaining.len());
    let is_q = |v: Var| quantifiable.contains(&v);
    while !remaining.is_empty() {
        let supports: Vec<Vec<Var>> = remaining
            .iter()
            .map(|&c| {
                m.support(c)
                    .vars()
                    .into_iter()
                    .filter(|&v| is_q(v))
                    .collect()
            })
            .collect();
        let mut best = 0usize;
        let mut best_score = (usize::MIN, usize::MAX);
        for i in 0..remaining.len() {
            let retired = supports[i]
                .iter()
                .filter(|v| {
                    supports
                        .iter()
                        .enumerate()
                        .all(|(j, s)| j == i || !s.contains(v))
                })
                .count();
            let score = (retired, usize::MAX - supports[i].len());
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        let chosen = remaining.swap_remove(best);
        let chosen_support: Vec<Var> = m
            .support(chosen)
            .vars()
            .into_iter()
            .filter(|&v| is_q(v))
            .collect();
        // Retire the chosen cluster's quantifiable vars that no remaining
        // cluster mentions.
        let remaining_supports: Vec<Vec<Var>> = remaining
            .iter()
            .map(|&c| {
                m.support(c)
                    .vars()
                    .into_iter()
                    .filter(|&v| is_q(v))
                    .collect()
            })
            .collect();
        let retire: Vec<Var> = chosen_support
            .into_iter()
            .filter(|v| remaining_supports.iter().all(|s| !s.contains(v)))
            .collect();
        let retire_cube = m.cube_from_vars(&retire)?;
        ordered.push(Cluster {
            relation: chosen,
            retire_cube,
        });
    }
    Ok(ordered)
}

/// Runs reachability with the partitioned transition relation.
pub fn reach_iwls95(m: &mut BddManager, fsm: &EncodedFsm, opts: &ReachOptions) -> ReachResult {
    let mut backend = ChiBackend::iwls95(fsm, opts.cluster_threshold);
    run_fixed_point(EngineKind::Iwls95, &mut backend, m, fsm, opts, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Outcome;
    use crate::{reach_bfv, reach_monolithic};
    use bfvr_netlist::generators;
    use bfvr_sim::OrderHeuristic;

    #[test]
    fn iwls_agrees_with_monolithic_and_bfv() {
        for net in [
            generators::counter(6),
            generators::johnson(6),
            generators::queue_controller(2),
            bfvr_netlist::circuits::s27(),
            generators::paired_registers(4),
        ] {
            let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
            let a = reach_iwls95(&mut m, &fsm, &ReachOptions::default());
            let b = reach_monolithic(&mut m, &fsm, &ReachOptions::default());
            let c = reach_bfv(&mut m, &fsm, &ReachOptions::default());
            assert_eq!(a.outcome, Outcome::FixedPoint, "{}", net.name());
            assert_eq!(a.reached_chi, b.reached_chi, "{} iwls vs mono", net.name());
            assert_eq!(a.reached_chi, c.reached_chi, "{} iwls vs bfv", net.name());
        }
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
        let r1 = reach_iwls95(
            &mut m,
            &fsm,
            &ReachOptions {
                cluster_threshold: 5,
                ..Default::default()
            },
        );
        let r2 = reach_iwls95(
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
