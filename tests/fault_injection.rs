//! Deterministic fault-injection sweep over every reachability engine.
//!
//! For each engine × fault kind (forced `NodeLimit` allocation failures,
//! forced `Deadline` trips) × several injection points, asserts the full
//! recovery contract:
//!
//! 1. no panic — the engine returns a partial [`ReachResult`];
//! 2. the partial result carries non-empty statistics and, once at least
//!    one state is reached, a checkpoint;
//! 3. `check_invariants()` holds on the manager right after the fault;
//! 4. the manager stays usable (fresh operations succeed);
//! 5. `resume()` (or a rerun when nothing was checkpointed) under
//!    restored budgets reaches the identical fixed point — same
//!    reached-state count — as an uninterrupted run;
//! 6. after every result and checkpoint is dropped, a collection returns
//!    the live-node count to the post-baseline baseline (no `Func` leaks
//!    on the error path).

use std::rc::Rc;

use bfvr::bdd::{BddManager, FaultPlan, Var};
use bfvr::netlist::generators;
use bfvr::reach::{resume, run, EngineKind, Outcome, ReachOptions, ReachResult};
use bfvr::sim::{EncodedFsm, OrderHeuristic};

/// Which fault the plan injects.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Fail every allocation with ordinal ≥ k (reports `M.O.`).
    NodeLimit(u64),
    /// Trip every `check_deadline` with ordinal ≥ k (reports `T.O.`).
    Deadline(u64),
}

impl Fault {
    fn plan(self) -> FaultPlan {
        match self {
            Fault::NodeLimit(k) => FaultPlan::node_limit_at(k),
            Fault::Deadline(k) => FaultPlan::deadline_at(k),
        }
    }

    fn expected_outcome(self) -> Outcome {
        match self {
            Fault::NodeLimit(_) => Outcome::MemOut,
            Fault::Deadline(_) => Outcome::TimeOut,
        }
    }
}

/// Allocation-ordinal injection points: during engine setup, in the
/// early iterations, and deep into the traversal. The deepest point must
/// stay below the *total* allocations of the leanest engine×circuit in
/// the sweep (~290 for IWLS95/Monolithic on `counter(5)` from a cold
/// manager): with adaptive GC nothing is re-allocated mid-run, so a run
/// that completes in fewer allocations never reaches the ordinal.
const ALLOC_POINTS: [u64; 3] = [25, 150, 250];
/// `check_deadline`-ordinal injection points (one check per iteration).
const DEADLINE_POINTS: [u64; 3] = [1, 3, 9];

/// The sweep body for one engine: baseline run, then every injection
/// point of the given fault kind against the same manager.
fn sweep(kind: EngineKind, faults: &[Fault]) {
    let net = generators::counter(5);
    let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
    let opts = ReachOptions::default();

    // Uninterrupted reference run.
    let baseline = run(kind, &mut m, &fsm, &opts);
    assert_eq!(baseline.outcome, Outcome::FixedPoint, "{kind:?} baseline");
    let expect_states = baseline.reached_states.expect("baseline counts states");
    let expect_iterations = baseline.iterations;
    drop(baseline);
    m.collect_garbage(&[]);
    let base_live = m.allocated();

    for &fault in faults {
        // Cold-start each injection: sweep garbage and flush the computed
        // caches so the run re-allocates its graph and the allocation
        // ordinals actually reach the injection point (a warm manager
        // would serve the whole traversal from cache without allocating).
        m.collect_garbage(&[]);
        m.clear_cache();
        m.set_fault_plan(fault.plan());
        let mut partial: ReachResult = run(kind, &mut m, &fsm, &opts);
        m.clear_fault_plan();

        // (2) A partial result, not a panic, with non-empty stats.
        assert_eq!(
            partial.outcome,
            fault.expected_outcome(),
            "{kind:?} {fault:?}: fault did not fire — lower the injection point"
        );
        assert!(partial.peak_nodes > 0, "{kind:?} {fault:?}: empty stats");
        assert!(
            partial.iterations <= expect_iterations,
            "{kind:?} {fault:?}: partial run overshot the fixed point"
        );
        if partial.iterations > 0 {
            assert!(
                partial.checkpoint.is_some(),
                "{kind:?} {fault:?}: progress was made but nothing checkpointed"
            );
        }

        // (3) Structural invariants hold right after the failure.
        m.check_invariants()
            .unwrap_or_else(|e| panic!("{kind:?} {fault:?}: invariants broken: {e}"));

        // (4) The manager stays usable for unrelated fresh work.
        let probe = m.and(m.var(Var(0)), m.var(Var(1))).unwrap();
        assert!(!probe.is_const());

        // (5) Resume under restored budgets reaches the identical fixed
        // point; without a checkpoint the raised-budget retry restarts.
        let checkpoint = partial.checkpoint.take();
        let resumed_from_checkpoint = checkpoint.is_some();
        let resumed = match checkpoint {
            Some(c) => resume(&mut m, &fsm, &opts, c),
            None => run(kind, &mut m, &fsm, &opts),
        };
        assert_eq!(
            resumed.outcome,
            Outcome::FixedPoint,
            "{kind:?} {fault:?}: recovery did not complete"
        );
        assert_eq!(
            resumed.reached_states,
            Some(expect_states),
            "{kind:?} {fault:?}: recovered fixed point differs from baseline"
        );
        if resumed_from_checkpoint {
            assert!(
                resumed.iterations >= partial.iterations,
                "{kind:?} {fault:?}: resume lost iteration progress"
            );
        }
        m.check_invariants()
            .unwrap_or_else(|e| panic!("{kind:?} {fault:?}: invariants broken post-resume: {e}"));

        // (6) No leaks: dropping every handle returns the manager to the
        // post-baseline live set.
        drop(partial);
        drop(resumed);
        m.collect_garbage(&[]);
        assert_eq!(
            m.allocated(),
            base_live,
            "{kind:?} {fault:?}: live nodes leaked across the fault cycle"
        );
    }
}

fn alloc_faults() -> Vec<Fault> {
    ALLOC_POINTS.iter().map(|&k| Fault::NodeLimit(k)).collect()
}

fn deadline_faults() -> Vec<Fault> {
    DEADLINE_POINTS
        .iter()
        .map(|&k| Fault::Deadline(k))
        .collect()
}

#[test]
fn bfv_recovers_from_allocation_faults() {
    sweep(EngineKind::Bfv, &alloc_faults());
}

#[test]
fn bfv_recovers_from_deadline_faults() {
    sweep(EngineKind::Bfv, &deadline_faults());
}

#[test]
fn cbm_recovers_from_allocation_faults() {
    sweep(EngineKind::Cbm, &alloc_faults());
}

#[test]
fn cbm_recovers_from_deadline_faults() {
    sweep(EngineKind::Cbm, &deadline_faults());
}

#[test]
fn monolithic_recovers_from_allocation_faults() {
    sweep(EngineKind::Monolithic, &alloc_faults());
}

#[test]
fn monolithic_recovers_from_deadline_faults() {
    sweep(EngineKind::Monolithic, &deadline_faults());
}

#[test]
fn iwls95_recovers_from_allocation_faults() {
    sweep(EngineKind::Iwls95, &alloc_faults());
}

#[test]
fn iwls95_recovers_from_deadline_faults() {
    sweep(EngineKind::Iwls95, &deadline_faults());
}

#[test]
fn cdec_recovers_from_allocation_faults() {
    sweep(EngineKind::Cdec, &alloc_faults());
}

#[test]
fn cdec_recovers_from_deadline_faults() {
    sweep(EngineKind::Cdec, &deadline_faults());
}

/// Arms `plan` from the iteration observer once `ARMED_AT` iterations of
/// lfsr10 under BFV are done, then resumes from the partial result's
/// checkpoint. An LFSR has no inputs: the image of its one-state frontier
/// is a constant vector and allocates nothing, so the first allocations
/// after arming are those of the next union, the point graft. Ordinal 3
/// falls partway through its vector.
fn fault_in_point_graft(plan: FaultPlan, expect: Outcome) {
    const ARMED_AT: usize = 300;
    let net = generators::lfsr(10);
    let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
    let armed = ReachOptions {
        observer: Some(Rc::new(move |m, _, view| {
            if view.iteration == ARMED_AT {
                m.set_fault_plan(plan);
            }
        })),
        ..ReachOptions::default()
    };
    let mut partial = run(EngineKind::Bfv, &mut m, &fsm, &armed);
    m.clear_fault_plan();
    assert_eq!(partial.outcome, expect, "{plan:?}");
    assert_eq!(
        partial.iterations, ARMED_AT,
        "{plan:?}: the fault missed the next union"
    );
    m.check_invariants()
        .unwrap_or_else(|e| panic!("{plan:?}: invariants broken: {e}"));
    let checkpoint = partial
        .checkpoint
        .take()
        .expect("the partial run checkpoints");
    let resumed = resume(&mut m, &fsm, &ReachOptions::default(), checkpoint);
    assert_eq!(resumed.outcome, Outcome::FixedPoint, "{plan:?}");
    assert_eq!(resumed.reached_states, Some(1023.0), "{plan:?}");
    m.check_invariants().unwrap();
}

#[test]
fn point_graft_recovers_from_an_allocation_fault() {
    fault_in_point_graft(FaultPlan::node_limit_at(3), Outcome::MemOut);
}

#[test]
fn point_graft_recovers_from_a_deadline_trip() {
    fault_in_point_graft(FaultPlan::deadline_in_alloc_at(3), Outcome::TimeOut);
}

/// A capacity fault is an internal error, never `M.O.`, and is never
/// checkpointed as recoverable.
#[test]
fn capacity_faults_report_error_not_memout() {
    for kind in EngineKind::all() {
        let net = generators::counter(4);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        m.set_fault_plan(FaultPlan::capacity_at(40));
        let r = run(kind, &mut m, &fsm, &ReachOptions::default());
        m.clear_fault_plan();
        assert_eq!(r.outcome, Outcome::Error, "{kind:?}");
        assert!(r.checkpoint.is_none(), "{kind:?}: errors must not resume");
        m.check_invariants().unwrap();
    }
}

/// Post-error reuse without fault plans: a run that mem-outs against a
/// real node ceiling completes after the ceiling is raised.
#[test]
fn natural_node_limit_then_raised_budget_completes() {
    let net = generators::queue_controller(2);
    let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
    let tight = ReachOptions {
        node_limit: Some(m.allocated() + 30),
        ..Default::default()
    };
    let mut first = run(EngineKind::Monolithic, &mut m, &fsm, &tight);
    assert_eq!(first.outcome, Outcome::MemOut);
    let open = ReachOptions::default();
    let second = match first.checkpoint.take() {
        Some(c) => resume(&mut m, &fsm, &open, c),
        None => run(EngineKind::Monolithic, &mut m, &fsm, &open),
    };
    assert_eq!(second.outcome, Outcome::FixedPoint);
    let fresh = BddManager::new(m.num_vars());
    drop(fresh); // managers stay independently constructible throughout
    m.check_invariants().unwrap();
}

// --------------------------------------------- durable-write failures

/// Disk faults on the durable-checkpoint write path must never take the
/// traversal down with them: the hook's write fails (the checkpoint
/// target's parent is a regular file, the cheapest deterministic stand-
/// in for a full or read-only disk), the failure is latched for
/// reporting, and the run itself continues to its exact fixed point.
#[test]
fn checkpoint_write_failure_is_reported_not_fatal() {
    use std::cell::RefCell;

    use bfvr::serve::{level_map_of, write_checkpoint, CkptError, CkptMeta};

    let net = generators::counter(5);
    let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
    let baseline = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
    let expect_states = baseline.reached_states;
    drop(baseline);

    // A checkpoint path whose parent is a file: every write attempt
    // fails with a structured I/O error, exactly like ENOSPC would.
    let dir = std::env::temp_dir().join(format!("bfvr-ckpt-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("not-a-directory");
    std::fs::write(&blocker, b"occupied").unwrap();
    let doomed = blocker.join("inner.ckpt");

    let failures: Rc<RefCell<Vec<CkptError>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&failures);
    let opts = ReachOptions {
        checkpoint_every: Some(1),
        checkpoint_hook: Some(Rc::new(move |m, cp| {
            let meta = CkptMeta {
                engine: cp.engine,
                order: "s1".to_string(),
                circuit: "gen:counter:5".to_string(),
                fingerprint: 0,
                num_vars: m.num_vars(),
                level2var: level_map_of(m),
                iterations: cp.iterations,
            };
            if let Err(e) = write_checkpoint(&doomed, m, &meta, cp.state()) {
                sink.borrow_mut().push(e);
            }
        })),
        ..Default::default()
    };
    let r = run(EngineKind::Bfv, &mut m, &fsm, &opts);

    // The run is whole: fixed point, baseline-equal count, no panic.
    assert_eq!(r.outcome, Outcome::FixedPoint);
    assert_eq!(r.reached_states, expect_states);
    // Every periodic write failed, each as a structured I/O error.
    let failures = failures.borrow();
    assert!(!failures.is_empty(), "fault never fired");
    assert!(failures.iter().all(|e| matches!(e, CkptError::Io(_))));
    // And no partial temp files leaked next to the target.
    assert!(!blocker.join("inner.ckpt.tmp").exists());
    m.check_invariants().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
