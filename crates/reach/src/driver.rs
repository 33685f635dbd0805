//! The shared fixed-point driver: the one copy of the reachability loop,
//! written against [`SetRepr`] and instantiated per backend.
//!
//! Every engine lane runs this exact sequence —
//! prepare (or restore), initial set, then
//! `reached ← reached ∪ image(from)` until the union stops growing —
//! with the backend supplying the representation-specific steps and the
//! driver owning everything lane-independent: resource-limit arming,
//! iteration caps and deadlines, the frontier heuristic, GC root
//! assembly, per-iteration telemetry, checkpointing, and the final
//! canonicalization into χ for cross-engine comparison. The invariant
//! checker and the trace search stop it early through its `stop` hook.

use std::time::{Duration, Instant};

use bfvr_bdd::{Bdd, BddManager, SiftConfig, SIFT_SIZE_FLOOR};
use bfvr_sim::EncodedFsm;

use crate::common::{
    arm_limits, disarm_limits, failed_result, notify_iteration, outcome_of_bfv_error, unlimited,
    Checkpoint, EngineKind, IterMetrics, IterationView, Outcome, ReachOptions, ReachResult,
};
use crate::{ReprCheckpoint, SetRepr};

/// Runs the shared traversal loop on `backend`, optionally resuming from
/// a prior checkpoint's representation state and iteration count.
///
/// `stop` is called on the initial set of a fresh run and on the image
/// of every growing iteration. When it returns `true` the run ends as a
/// fixed point does, with no checkpoint; an error from it ends the run
/// as an error of the loop would. Sets the hook keeps past the call must
/// be pinned: the loop collects garbage against its own state only.
pub(crate) fn run_fixed_point<B: SetRepr>(
    engine: EngineKind,
    backend: &mut B,
    m: &mut BddManager,
    fsm: &EncodedFsm,
    opts: &ReachOptions,
    seed: Option<(&ReprCheckpoint, usize)>,
    mut stop: impl FnMut(&mut BddManager, &B::Set) -> Result<bool, bfvr_bfv::BfvError>,
) -> ReachResult {
    let start = Instant::now();
    arm_limits(m, opts, start);
    let mut conversion_time = Duration::ZERO;
    // Dynamic reordering: on only when asked for *and* the backend's
    // representation survives a permuted order (see
    // `SetRepr::supports_reorder` — the BFV/CDEC lanes
    // decline). The baseline is the live count right after the last
    // reorder; growth past `sift_trigger` × baseline re-triggers.
    let sift_enabled = opts.sift && backend.supports_reorder();
    let sift_config = SiftConfig {
        max_growth: opts.sift_max_growth,
        converge: false,
    };
    let mut sift_baseline = m.allocated().max(1);
    let mut reorders = 0usize;
    let mut reorder_before = 0usize;
    let mut reorder_after = 0usize;

    if let Err(e) = backend.prepare(m) {
        return failed_result(m, engine, outcome_of_bfv_error(&e), start.elapsed());
    }

    let (mut reached, mut from, mut iterations) = match seed {
        Some((cp, iters)) => match backend.restore(m, cp) {
            Ok(Some((r, f))) => (r, f, iters),
            // A checkpoint from a different representation is a caller
            // bug, not a resource limit: report it as such.
            Ok(None) => return failed_result(m, engine, Outcome::Error, start.elapsed()),
            Err(e) => return failed_result(m, engine, outcome_of_bfv_error(&e), start.elapsed()),
        },
        None => match backend.initial(m) {
            Ok(init) => (init.clone(), init, 0),
            Err(e) => return failed_result(m, engine, outcome_of_bfv_error(&e), start.elapsed()),
        },
    };
    // Account conversions made during setup (restore / initial import).
    conversion_time += backend.take_conversion();

    // The manager's loop-root slot holds the loop state against
    // mid-operation reclaim passes; each safepoint refills it as
    // reached/from move. An image needs no hold: its operations'
    // result pins keep it until the next safepoint.
    m.set_loop_roots(&loop_roots(backend, &reached, &from));

    let mut outcome_opt = None;
    let run = (|| -> Result<(), bfvr_bfv::BfvError> {
        if seed.is_none() && stop(m, &from)? {
            return Ok(());
        }
        loop {
            if opts.max_iterations.is_some_and(|cap| iterations >= cap) {
                outcome_opt = Some(Outcome::IterationLimit);
                break;
            }
            let iter_start = Instant::now();
            m.check_deadline()?;
            let op_start = Instant::now();
            let img = backend.image(m, &from)?;
            let image_time = op_start.elapsed();
            let op_start = Instant::now();
            let new_reached = backend.union(m, &reached, &img)?;
            let union_time = op_start.elapsed();
            iterations += 1;
            if backend.set_eq(m, &new_reached, &reached) {
                break;
            }
            reached = new_reached;
            if stop(m, &img)? {
                break;
            }
            // Frontier choice: the image when it is no larger than the
            // reached set. The reached-set walk stops after |img| nodes.
            let take_img = opts.use_frontier && {
                let k = backend.size(m, &img);
                backend.size_capped(m, &reached, k) >= k
            };
            from = if take_img { img } else { reached.clone() };
            let roots = loop_roots(backend, &reached, &from);
            m.set_loop_roots(&roots);
            let gc = m.maybe_collect_garbage(&roots);
            // Dynamic reorder trigger: once the live graph grows past
            // the configured multiple of the post-reorder baseline (and
            // past the absolute floor below which sifting costs more
            // than it saves), run a sift pass over this iteration's
            // roots. Resource limits are suspended around the pass —
            // like the checkpoint hook, the machinery that *shrinks* the
            // graph must never trip the budget it exists to relieve.
            if sift_enabled
                && gc.live >= SIFT_SIZE_FLOOR
                && gc.live as f64 >= sift_baseline as f64 * opts.sift_trigger.max(1.0)
            {
                let sift_start = Instant::now();
                let stats = unlimited(m, |m| m.sift(&roots, &sift_config));
                let sift_dur = sift_start.elapsed();
                reorders += 1;
                reorder_before += stats.before;
                reorder_after += stats.after;
                sift_baseline = stats.after.max(1);
                if let Some(trace) = &opts.trace {
                    trace.borrow_mut().reorder(
                        engine.label(),
                        iterations as u64,
                        stats.before as u64,
                        stats.after as u64,
                        sift_dur.as_micros() as u64,
                    );
                }
            }
            let conv = backend.take_conversion();
            conversion_time += conv;
            // Op-class timers in loop order; the conversion slice of the
            // image/union timers is also broken out under its own label
            // when the backend reported any.
            let mut ops: Vec<(&'static str, Duration)> = Vec::with_capacity(3);
            ops.push(("image", image_time));
            if conv > Duration::ZERO {
                ops.push(("convert", conv));
            }
            ops.push(("union", union_time));
            notify_iteration(
                m,
                fsm,
                opts,
                &IterationView {
                    engine,
                    iteration: iterations,
                    roots: &roots,
                    set: backend.view(&reached, &from),
                },
                &IterMetrics {
                    gc,
                    elapsed: iter_start.elapsed(),
                    ops: &ops,
                },
            );
            // Periodic durable checkpoint, with resource limits
            // suspended: persisting the loop state must never trip the
            // very budget it exists to survive, and a failure to *build*
            // the checkpoint (injected faults, a mid-GC race) skips this
            // period rather than aborting the traversal.
            if let (Some(every), Some(hook)) = (opts.checkpoint_every, &opts.checkpoint_hook) {
                if every > 0 && iterations % every == 0 {
                    unlimited(m, |m| {
                        if let Ok(state) = backend.checkpoint(m, &reached, &from) {
                            let cp = Checkpoint {
                                engine,
                                iterations,
                                state,
                            };
                            hook(m, &cp);
                        }
                    });
                }
            }
        }
        Ok(())
    })();
    let outcome = match (&run, outcome_opt) {
        (_, Some(o)) => o,
        (Ok(()), None) => Outcome::FixedPoint,
        (Err(e), None) => outcome_of_bfv_error(e),
    };
    conversion_time += backend.take_conversion();
    let elapsed = start.elapsed();
    let peak_nodes = m.peak_nodes();
    disarm_limits(m);

    // Resumable state for interrupted-but-recoverable runs only: a fixed
    // point needs no resume, and an internal error must not be retried.
    let checkpoint = if outcome == Outcome::FixedPoint || outcome == Outcome::Error {
        None
    } else {
        backend
            .checkpoint(m, &reached, &from)
            .ok()
            .map(|state| Checkpoint {
                engine,
                iterations,
                state,
            })
    };

    // Final canonicalization — untimed by design: the paper's tables
    // account the traversal, and the χ here exists purely for result
    // reporting and cross-engine validation.
    let chi = backend.to_chi(m, &reached).ok();
    let reached_states = backend
        .count_states(m, &reached)
        .or_else(|| chi.map(|c| crate::cf::count_states(m, fsm, c)));
    m.set_loop_roots(&[]);
    ReachResult {
        engine,
        outcome,
        iterations,
        reached_states,
        reached_chi: chi.map(|c| m.func(c)),
        representation_nodes: Some(backend.repr_nodes(m, &reached)),
        peak_nodes,
        elapsed,
        conversion_time,
        reorders,
        reorder_nodes: (reorder_before, reorder_after),
        checkpoint,
    }
}

/// The loop's GC roots: `reached`, `from` and the backend's persistent
/// structures.
fn loop_roots<B: SetRepr>(backend: &B, reached: &B::Set, from: &B::Set) -> Vec<Bdd> {
    let mut roots = Vec::new();
    backend.append_roots(reached, &mut roots);
    backend.append_roots(from, &mut roots);
    backend.persistent_roots(&mut roots);
    roots
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use bfvr_bdd::{Bdd, BddManager, Func};
    use bfvr_bfv::cdec::CDec;
    use bfvr_bfv::reparam::Schedule;
    use bfvr_bfv::{ops, Bfv, BfvError};
    use bfvr_netlist::{generators, Netlist};
    use bfvr_obs::{EventKind, Tracer};
    use bfvr_sim::{compose_image, EncodedFsm, ImageScratch, OrderHeuristic};

    use super::run_fixed_point;
    use crate::backends::{BfvBackend, CdecBackend, CdecSet, ChiBackend};
    use crate::common::{EngineKind, ReachOptions, ReachResult};
    use crate::telemetry::trace_handle;
    use crate::{ReprCheckpoint, Restored, SetRepr, SetView};

    /// The `stop` hook of a run to its fixed point or its limits.
    fn never<S>(_: &mut BddManager, _: &S) -> Result<bool, BfvError> {
        Ok(false)
    }

    /// The one method a [`Reference`] backend replaces.
    enum Rule<'a, S> {
        /// `size_capped` keeps the trait's default: a full `size` walk,
        /// cut to the cap afterwards. The reference for the capped
        /// overrides.
        FullWalk,
        /// `union` calls this instead. The reference for the dispatch
        /// that grafts a point.
        Union(UnionFn<'a, S>),
        /// `image` calls this instead. The reference for the image's
        /// point route.
        Image(ImageFn<'a, S>),
    }

    type UnionFn<'a, S> = Box<dyn Fn(&mut BddManager, &S, &S) -> Result<S, BfvError> + 'a>;
    type ImageFn<'a, S> = Box<dyn Fn(&mut BddManager, &S) -> Result<S, BfvError> + 'a>;

    /// Forwards every [`SetRepr`] method to the wrapped backend except
    /// the one its [`Rule`] replaces.
    struct Reference<'a, B: SetRepr>(B, Rule<'a, B::Set>);

    impl<B: SetRepr> SetRepr for Reference<'_, B> {
        type Set = B::Set;

        fn prepare(&mut self, m: &mut BddManager) -> Result<(), BfvError> {
            self.0.prepare(m)
        }
        fn initial(&mut self, m: &mut BddManager) -> Result<B::Set, BfvError> {
            self.0.initial(m)
        }
        fn image(&mut self, m: &mut BddManager, from: &B::Set) -> Result<B::Set, BfvError> {
            match &self.1 {
                Rule::Image(image) => image(m, from),
                Rule::FullWalk | Rule::Union(_) => self.0.image(m, from),
            }
        }
        fn union(
            &mut self,
            m: &mut BddManager,
            a: &B::Set,
            b: &B::Set,
        ) -> Result<B::Set, BfvError> {
            match &self.1 {
                Rule::Union(union) => union(m, a, b),
                Rule::FullWalk | Rule::Image(_) => self.0.union(m, a, b),
            }
        }
        fn set_eq(&self, m: &BddManager, a: &B::Set, b: &B::Set) -> bool {
            self.0.set_eq(m, a, b)
        }
        fn size(&self, m: &BddManager, s: &B::Set) -> usize {
            self.0.size(m, s)
        }
        fn size_capped(&self, m: &BddManager, s: &B::Set, cap: usize) -> usize {
            match self.1 {
                Rule::FullWalk => self.0.size(m, s).min(cap),
                Rule::Union(_) | Rule::Image(_) => self.0.size_capped(m, s, cap),
            }
        }
        fn repr_nodes(&self, m: &BddManager, s: &B::Set) -> usize {
            self.0.repr_nodes(m, s)
        }
        fn append_roots(&self, s: &B::Set, out: &mut Vec<Bdd>) {
            self.0.append_roots(s, out);
        }
        fn persistent_roots(&self, out: &mut Vec<Bdd>) {
            self.0.persistent_roots(out);
        }
        fn view<'a>(&'a self, reached: &'a B::Set, from: &'a B::Set) -> SetView<'a> {
            self.0.view(reached, from)
        }
        fn count_states(&self, m: &BddManager, s: &B::Set) -> Option<f64> {
            self.0.count_states(m, s)
        }
        fn to_chi(&mut self, m: &mut BddManager, s: &B::Set) -> Result<Bdd, BfvError> {
            self.0.to_chi(m, s)
        }
        fn checkpoint(
            &mut self,
            m: &mut BddManager,
            reached: &B::Set,
            from: &B::Set,
        ) -> Result<ReprCheckpoint, BfvError> {
            self.0.checkpoint(m, reached, from)
        }
        fn restore(
            &mut self,
            m: &mut BddManager,
            cp: &ReprCheckpoint,
        ) -> Result<Restored<B::Set>, BfvError> {
            self.0.restore(m, cp)
        }
        fn supports_reorder(&self) -> bool {
            self.0.supports_reorder()
        }
        fn take_conversion(&mut self) -> Duration {
            self.0.take_conversion()
        }
    }

    /// Generators whose frontier test meets every case: images smaller
    /// than the reached set, of equal size (the counters, whose image is
    /// the new reached set), larger (lfsr6 under χ), and BFV singleton
    /// images of size 0 (lfsr6), where the capped walk does not walk.
    fn circuits() -> Vec<(&'static str, Netlist)> {
        vec![
            ("s27", bfvr_netlist::circuits::s27()),
            ("counter5", generators::counter(5)),
            ("lfsr6", generators::lfsr(6)),
            ("johnson6", generators::johnson(6)),
            ("queue3", generators::queue_controller(3)),
            ("traffic3", generators::traffic_chain(3)),
        ]
    }

    /// Runs the driver with a stride-1 trace. Returns the result and the
    /// frontier size of every growing iteration, the trace of every
    /// frontier decision.
    fn traced<B: SetRepr>(
        engine: EngineKind,
        backend: &mut B,
        m: &mut BddManager,
        fsm: &EncodedFsm,
        opts: &ReachOptions,
    ) -> (ReachResult, Vec<u64>) {
        let trace = trace_handle(Tracer::collector(1));
        let opts = ReachOptions {
            trace: Some(trace.clone()),
            ..opts.clone()
        };
        let r = run_fixed_point(engine, backend, m, fsm, &opts, None, never);
        let events = trace.borrow_mut().drain();
        let frontiers = events
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Iter(rec) => Some(rec.frontier_nodes),
                _ => None,
            })
            .collect();
        (r, frontiers)
    }

    /// Runs `engine` on `net` in a fresh manager, with the backend's own
    /// `size_capped` or (`full_walk`) with the default full walk.
    fn run(engine: EngineKind, net: &Netlist, full_walk: bool) -> (ReachResult, Vec<u64>) {
        let (mut m, fsm) = EncodedFsm::encode(net, OrderHeuristic::DfsFanin).unwrap();
        let opts = ReachOptions::default();
        assert!(opts.use_frontier);
        let m = &mut m;
        macro_rules! go {
            ($backend:expr) => {
                if full_walk {
                    let mut reference = Reference($backend, Rule::FullWalk);
                    traced(engine, &mut reference, m, &fsm, &opts)
                } else {
                    traced(engine, &mut $backend, m, &fsm, &opts)
                }
            };
        }
        match engine {
            EngineKind::Monolithic => go!(ChiBackend::monolithic(&fsm)),
            EngineKind::Cbm => go!(ChiBackend::cbm(&fsm)),
            EngineKind::Iwls95 => go!(ChiBackend::iwls95(&fsm, opts.cluster_threshold)),
            EngineKind::Bfv => go!(BfvBackend::new(&fsm, Schedule::DynamicSupport)),
            EngineKind::Cdec => go!(CdecBackend::new(&fsm, Schedule::DynamicSupport)),
        }
    }

    #[test]
    fn capped_frontier_test_takes_the_full_walk_decisions() {
        for (name, net) in circuits() {
            for engine in EngineKind::all() {
                let what = format!("{name} {}", engine.label());
                let (capped, capped_frontiers) = run(engine, &net, false);
                let (full, full_frontiers) = run(engine, &net, true);
                assert_eq!(capped.outcome, full.outcome, "{what}");
                assert_eq!(capped.iterations, full.iterations, "{what}");
                assert_eq!(capped.peak_nodes, full.peak_nodes, "{what}");
                assert_eq!(capped.reached_states, full.reached_states, "{what}");
                // Same operations in fresh managers: the same handle.
                let chi = |r: &ReachResult| r.reached_chi.as_ref().map(Func::bdd);
                assert_eq!(chi(&capped), chi(&full), "{what}");
                assert_eq!(capped_frontiers, full_frontiers, "{what}");
                assert_eq!(capped_frontiers.len(), capped.iterations - 1, "{what}");
            }
        }
    }

    /// Runs `backend` and then `reference` in one manager and asserts
    /// they took the same decisions: equal reached sets are equal χ
    /// handles there.
    fn assert_same_decisions<B: SetRepr, R: SetRepr>(
        engine: EngineKind,
        (mut backend, mut reference): (B, R),
        m: &mut BddManager,
        fsm: &EncodedFsm,
        opts: &ReachOptions,
        what: &str,
    ) {
        let (got, got_frontiers) = traced(engine, &mut backend, m, fsm, opts);
        let (want, want_frontiers) = traced(engine, &mut reference, m, fsm, opts);
        assert_eq!(got.outcome, want.outcome, "{what}");
        assert_eq!(got.iterations, want.iterations, "{what}");
        assert_eq!(got.reached_states, want.reached_states, "{what}");
        let chi = |r: &ReachResult| r.reached_chi.as_ref().map(Func::bdd);
        assert!(chi(&got).is_some(), "{what}");
        assert_eq!(chi(&got), chi(&want), "{what}");
        assert_eq!(got_frontiers, want_frontiers, "{what}");
    }

    #[test]
    fn point_graft_takes_the_general_union_decisions() {
        // The first union of every run grafts the initial state onto the
        // image. The LFSRs have no inputs, so every image is one state
        // and every union grafts. The iteration cap turns a
        // non-canonical union, which never converges, into a failure.
        let opts = ReachOptions {
            max_iterations: Some(1000),
            ..ReachOptions::default()
        };
        let lfsr8 = ("lfsr8", generators::lfsr(8));
        for (name, net) in circuits().into_iter().chain([lfsr8]) {
            let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
            let schedule = Schedule::DynamicSupport;
            let space = fsm.space();
            let general: UnionFn<Bfv> = Box::new(move |m, a, b| ops::union(m, &space, a, b));
            let pair = (
                BfvBackend::new(&fsm, schedule),
                Reference(BfvBackend::new(&fsm, schedule), Rule::Union(general)),
            );
            assert_same_decisions(EngineKind::Bfv, pair, &mut m, &fsm, &opts, name);
        }
    }

    #[test]
    fn point_image_takes_the_general_image_decisions() {
        // An LFSR has no inputs, so every image is of one state and
        // steps by evaluation; the reference composes, re-parameterizes
        // and renames. s27 has inputs: both sides compose there.
        let opts = ReachOptions {
            max_iterations: Some(2000),
            ..ReachOptions::default()
        };
        let nets = [
            ("lfsr6", generators::lfsr(6)),
            ("lfsr8", generators::lfsr(8)),
            ("lfsr10", generators::lfsr(10)),
            ("s27", bfvr_netlist::circuits::s27()),
        ];
        let schedule = Schedule::DynamicSupport;
        for (name, net) in nets {
            let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
            let fsm = &fsm;
            let general = move |m: &mut BddManager, from: &Bfv| {
                compose_image(m, fsm, from, schedule, &mut ImageScratch::default())
            };
            let image: ImageFn<Bfv> = Box::new(general);
            let pair = (
                BfvBackend::new(fsm, schedule),
                Reference(BfvBackend::new(fsm, schedule), Rule::Image(image)),
            );
            assert_same_decisions(EngineKind::Bfv, pair, &mut m, fsm, &opts, name);
            let space = fsm.space();
            let image: ImageFn<CdecSet> = Box::new(move |m, from| {
                let bfv = general(m, &from.bfv)?;
                let dec = CDec::from_bfv(m, &space, &bfv)?;
                Ok(CdecSet { dec, bfv })
            });
            let pair = (
                CdecBackend::new(fsm, schedule),
                Reference(CdecBackend::new(fsm, schedule), Rule::Image(image)),
            );
            assert_same_decisions(EngineKind::Cdec, pair, &mut m, fsm, &opts, name);
        }
    }

    /// Checks `size_capped` against `size` at caps around the true size,
    /// on every reached set of a plain traversal.
    fn check_capped_sizes<B: SetRepr>(b: &mut B, m: &mut BddManager, what: &str) {
        b.prepare(m).unwrap();
        let mut reached = b.initial(m).unwrap();
        let mut sizes = Vec::new();
        loop {
            let size = b.size(m, &reached);
            sizes.push(size);
            for cap in [0, 1, size.saturating_sub(1), size, size + 1, usize::MAX] {
                assert_eq!(
                    b.size_capped(m, &reached, cap),
                    size.min(cap),
                    "{what}: cap {cap} of size {size}"
                );
            }
            let img = b.image(m, &reached).unwrap();
            let next = b.union(m, &reached, &img).unwrap();
            if b.set_eq(m, &next, &reached) {
                break;
            }
            reached = next;
        }
        assert!(sizes.iter().any(|&s| s > 1), "{what}: only trivial sets");
    }

    #[test]
    fn backend_size_capped_is_the_min_of_size_and_cap() {
        for (name, net) in circuits() {
            let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
            let m = &mut m;
            check_capped_sizes(&mut ChiBackend::monolithic(&fsm), m, &format!("{name} χ"));
            let schedule = Schedule::DynamicSupport;
            check_capped_sizes(
                &mut BfvBackend::new(&fsm, schedule),
                m,
                &format!("{name} BFV"),
            );
            check_capped_sizes(
                &mut CdecBackend::new(&fsm, schedule),
                m,
                &format!("{name} CDEC"),
            );
        }
    }
}
