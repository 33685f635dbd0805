//! The shared fixed-point driver: the one copy of the reachability loop,
//! written against [`SetRepr`] and instantiated per backend.
//!
//! Every engine × representation lane runs this exact sequence —
//! prepare (or restore), initial set, then
//! `reached ← reached ∪ image(from)` until the union stops growing —
//! with the backend supplying the representation-specific steps and the
//! driver owning everything lane-independent: resource-limit arming,
//! iteration caps and deadlines, the frontier heuristic, GC root
//! assembly, per-iteration telemetry, checkpointing, and the final
//! canonicalization into χ for cross-engine comparison.

use std::time::{Duration, Instant};

use bfvr_bdd::{BddManager, SiftConfig, SIFT_SIZE_FLOOR};
use bfvr_setrepr::{ReprCheckpoint, SetRepr};
use bfvr_sim::EncodedFsm;

use crate::common::{
    arm_limits, disarm_limits, failed_result, lane_label, notify_iteration, outcome_of_bfv_error,
    Checkpoint, EngineKind, IterMetrics, IterationView, Outcome, ReachOptions, ReachResult,
};

/// Runs the shared traversal loop on `backend`, optionally resuming from
/// a prior checkpoint's representation state and iteration count.
pub(crate) fn run_fixed_point<B: SetRepr>(
    engine: EngineKind,
    backend: &mut B,
    m: &mut BddManager,
    fsm: &EncodedFsm,
    opts: &ReachOptions,
    seed: Option<(&ReprCheckpoint, usize)>,
) -> ReachResult {
    let start = Instant::now();
    arm_limits(m, opts);
    let repr = backend.kind();
    let mut per_iteration = Vec::new();
    let mut conversion_time = Duration::ZERO;
    // Dynamic reordering: on only when asked for *and* the backend's
    // representation survives a permuted order (see
    // `SetRepr::supports_reorder` — the BFV/CDEC/zonotope lanes
    // decline). The baseline is the live count right after the last
    // reorder; growth past `sift_trigger` × baseline re-triggers.
    let sift_enabled = opts.sift && backend.supports_reorder();
    let mut sift_baseline = m.allocated().max(1);
    let mut reorders = 0usize;
    let mut reorder_before = 0usize;
    let mut reorder_after = 0usize;

    if let Err(e) = backend.prepare(m) {
        return failed_result(m, engine, repr, outcome_of_bfv_error(&e), start.elapsed());
    }

    let (mut reached, mut from, mut iterations) = match seed {
        Some((cp, iters)) => match backend.restore(m, cp) {
            Ok(Some((r, f))) => (r, f, iters),
            // A checkpoint from a different representation is a caller
            // bug, not a resource limit: report it as such.
            Ok(None) => return failed_result(m, engine, repr, Outcome::Error, start.elapsed()),
            Err(e) => {
                return failed_result(m, engine, repr, outcome_of_bfv_error(&e), start.elapsed())
            }
        },
        None => match backend.initial(m) {
            Ok(init) => (init.clone(), init, 0),
            Err(e) => {
                return failed_result(m, engine, repr, outcome_of_bfv_error(&e), start.elapsed())
            }
        },
    };
    // Account conversions made during setup (restore / initial import).
    conversion_time += backend.take_conversion();

    // Pin the loop state against mid-operation reclaim passes; rebound
    // each iteration as reached/from move.
    let mut _state_guards = (backend.pin(m, &reached), backend.pin(m, &from));

    let mut outcome_opt = None;
    let run = (|| -> Result<(), bfvr_bfv::BfvError> {
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
            let _img_guard = backend.pin(m, &img);
            let op_start = Instant::now();
            let new_reached = backend.union(m, &reached, &img)?;
            let union_time = op_start.elapsed();
            iterations += 1;
            if backend.set_eq(m, &new_reached, &reached) {
                break;
            }
            reached = new_reached;
            from = if opts.use_frontier && backend.size(m, &img) <= backend.size(m, &reached) {
                img
            } else {
                reached.clone()
            };
            _state_guards = (backend.pin(m, &reached), backend.pin(m, &from));
            let mut roots = Vec::new();
            backend.append_roots(&reached, &mut roots);
            backend.append_roots(&from, &mut roots);
            backend.persistent_roots(&mut roots);
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
                let saved_limit = m.node_limit();
                let saved_deadline = m.deadline();
                m.clear_node_limit();
                m.set_deadline(None);
                let sift_start = Instant::now();
                let stats = m.sift(
                    &roots,
                    &SiftConfig {
                        max_growth: opts.sift_max_growth,
                        converge: false,
                    },
                );
                let sift_dur = sift_start.elapsed();
                if let Some(n) = saved_limit {
                    m.set_node_limit(n);
                }
                m.set_deadline(saved_deadline);
                reorders += 1;
                reorder_before += stats.before;
                reorder_after += stats.after;
                sift_baseline = stats.after.max(1);
                if let Some(trace) = &opts.trace {
                    trace.borrow_mut().reorder(
                        lane_label(engine, repr),
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
                    repr,
                    iteration: iterations,
                    roots: &roots,
                    set: backend.view(&reached, &from),
                },
                &IterMetrics {
                    gc,
                    elapsed: iter_start.elapsed(),
                    conversion: conv,
                    ops: &ops,
                },
                &mut per_iteration,
            );
            // Periodic durable checkpoint, with resource limits
            // suspended: persisting the loop state must never trip the
            // very budget it exists to survive, and a failure to *build*
            // the checkpoint (injected faults, a mid-GC race) skips this
            // period rather than aborting the traversal.
            if let (Some(every), Some(hook)) = (opts.checkpoint_every, &opts.checkpoint_hook) {
                if every > 0 && iterations % every == 0 {
                    let saved_limit = m.node_limit();
                    let saved_deadline = m.deadline();
                    m.clear_node_limit();
                    m.set_deadline(None);
                    if let Ok(state) = backend.checkpoint(m, &reached, &from) {
                        let cp = Checkpoint {
                            engine,
                            repr,
                            iterations,
                            state,
                        };
                        hook(m, &cp);
                    }
                    if let Some(n) = saved_limit {
                        m.set_node_limit(n);
                    }
                    m.set_deadline(saved_deadline);
                }
            }
            backend.end_of_iteration(&reached, &from);
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
                repr,
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
    ReachResult {
        engine,
        repr,
        over_approx: backend.over_approximates(),
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
        per_iteration,
        checkpoint,
    }
}
