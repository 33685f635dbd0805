//! Durable-checkpoint round-trip over every engine lane: interrupt a run mid-traversal via the periodic checkpoint
//! hook, persist the checkpoint through the binary container format,
//! re-intern it into a **fresh manager**, resume, and require the
//! resumed fixed point to be semantically identical to an
//! uninterrupted baseline — equal state counts, graph-level equality of
//! the reached characteristic function, and a clean `bfvr-audit` pass
//! over the resumed set.

use std::cell::Cell;
use std::path::PathBuf;
use std::rc::Rc;

use bfvr_audit::{run_passes, AuditTargets, Report};
use bfvr_netlist::generators;
use bfvr_reach::portfolio::Lane;
use bfvr_reach::{resume, run, Outcome, ReachOptions};
use bfvr_serve::{fnv1a64, level_map_of, read_checkpoint, write_checkpoint, CkptMeta};
use bfvr_sim::{EncodedFsm, OrderHeuristic};

/// A collision-free scratch path under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bfvr-ckpt-rt-{}-{name}.ckpt", std::process::id()))
}

/// The iteration the mid-run checkpoint is taken at: late enough that
/// real state exists, early enough that resume has real work left.
const CKPT_AT: usize = 2;

fn roundtrip_lane(lane: Lane) {
    let net = generators::counter(5);
    let circuit = "gen:counter:5".to_string();
    let bench = bfvr_netlist::bench::write(&net).unwrap();
    let fingerprint = fnv1a64(bench.as_bytes());

    // Uninterrupted reference run.
    let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
    let opts = ReachOptions::default();
    let baseline = run(lane.engine, &mut m, &fsm, &opts);
    assert_eq!(baseline.outcome, Outcome::FixedPoint, "{lane:?} baseline");
    let expect_states = baseline.reached_states.unwrap();
    let expect_iters = baseline.iterations;
    assert!(
        expect_iters > CKPT_AT,
        "{lane:?}: baseline too short to interrupt at {CKPT_AT}"
    );
    // Keep the baseline's reached χ portable for the graph-equality
    // check in the resumed manager.
    let baseline_dag = baseline
        .reached_chi
        .as_ref()
        .map(|f| m.export_dag(&[f.bdd()]));

    // Interrupted run: the checkpoint hook persists the state at
    // iteration CKPT_AT; the run itself continues to its fixed point —
    // what matters is that the *persisted mid-run snapshot* resumes to
    // the same answer in a different process's manager.
    let path = scratch(lane.label());
    let (mut m1, fsm1) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
    let wrote = Rc::new(Cell::new(false));
    let hook_wrote = Rc::clone(&wrote);
    let hook_path = path.clone();
    let hook_circuit = circuit.clone();
    let opts1 = ReachOptions {
        checkpoint_every: Some(1),
        checkpoint_hook: Some(Rc::new(move |m, cp| {
            if cp.iterations != CKPT_AT || hook_wrote.get() {
                return;
            }
            let meta = CkptMeta {
                engine: cp.engine,
                order: "s1".to_string(),
                circuit: hook_circuit.clone(),
                fingerprint,
                num_vars: m.num_vars(),
                level2var: level_map_of(m),
                iterations: cp.iterations,
            };
            write_checkpoint(&hook_path, m, &meta, cp.state()).unwrap();
            hook_wrote.set(true);
        })),
        ..ReachOptions::default()
    };
    let r1 = run(lane.engine, &mut m1, &fsm1, &opts1);
    assert_eq!(r1.outcome, Outcome::FixedPoint, "{lane:?} hooked run");
    assert!(wrote.get(), "{lane:?}: checkpoint hook never fired");
    drop((m1, fsm1));

    // Re-intern into a fresh manager (a new process in miniature) and
    // resume to the fixed point.
    let (mut m2, fsm2) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
    let (meta, cp) = read_checkpoint(&path, &mut m2).unwrap();
    assert_eq!(meta.engine, lane.engine, "{lane:?} meta engine");
    assert_eq!(meta.iterations, CKPT_AT, "{lane:?} meta iterations");
    assert_eq!(meta.circuit, circuit, "{lane:?} meta circuit");
    assert_eq!(meta.fingerprint, fingerprint, "{lane:?} meta fingerprint");
    let resumed = resume(&mut m2, &fsm2, &opts, cp);
    assert_eq!(resumed.outcome, Outcome::FixedPoint, "{lane:?} resume");
    assert_eq!(
        resumed.reached_states,
        Some(expect_states),
        "{lane:?}: resumed fixed point differs from baseline"
    );
    assert!(
        resumed.iterations >= expect_iters,
        "{lane:?}: cumulative iterations lost progress"
    );

    // Graph-level equivalence of the reached χ (canonical ROBDDs in one
    // manager are equal iff identical), then a full bfvr-audit pass over
    // the resumed set.
    let resumed_chi = resumed.reached_chi.as_ref().unwrap();
    let imported = m2.import_dag(&baseline_dag.unwrap()).unwrap();
    assert_eq!(
        imported[0],
        resumed_chi.bdd(),
        "{lane:?}: resumed reached set is not the baseline set"
    );
    let space = fsm2.space();
    let mut report = Report::new();
    run_passes(
        &mut m2,
        &AuditTargets::for_chi(&space, resumed_chi.bdd()),
        &format!("{}/resumed", lane.label()),
        &mut report,
    )
    .unwrap();
    assert!(report.is_empty(), "{lane:?}:\n{}", report.render());

    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_lane_roundtrips_through_a_fresh_manager() {
    let lanes = Lane::all_lanes();
    assert_eq!(lanes.len(), 5, "lane matrix changed; update this test");
    for lane in lanes {
        roundtrip_lane(lane);
    }
}

/// A checkpoint written mid-run *after dynamic sifting permuted the
/// variable order* must still resume — in a fresh manager encoded under
/// the original static order — to the same fixed point as a plain,
/// never-sifted run. The container's `level2var` map is what carries the
/// permutation across: `read_checkpoint` replays it onto the fresh
/// manager before re-interning the level-labeled DAG.
///
/// pair6 under the reversed order separates every register from its
/// twin, so its live graph outgrows the sift trigger whether or not the
/// collector defers (the audit build collects every iteration).
#[test]
fn permuted_order_checkpoint_resumes_to_the_static_count() {
    let net = generators::paired_registers(6);
    let circuit = "gen:pair:6".to_string();
    let bench = bfvr_netlist::bench::write(&net).unwrap();
    let fingerprint = fnv1a64(bench.as_bytes());
    let order = OrderHeuristic::Reversed;

    // Plain, never-sifted baseline.
    let (mut m0, fsm0) = EncodedFsm::encode(&net, order).unwrap();
    let lane = Lane::native(bfvr_reach::EngineKind::Monolithic);
    let baseline = run(lane.engine, &mut m0, &fsm0, &ReachOptions::default());
    assert_eq!(baseline.outcome, Outcome::FixedPoint);
    let expect_states = baseline.reached_states.unwrap();
    drop((m0, fsm0));

    // Sifted run with a checkpoint hook that persists the *first*
    // snapshot taken while the manager's order is actually permuted.
    let path = scratch("permuted");
    let (mut m1, fsm1) = EncodedFsm::encode(&net, order).unwrap();
    let wrote = Rc::new(Cell::new(false));
    let hook_wrote = Rc::clone(&wrote);
    let hook_path = path.clone();
    let hook_circuit = circuit.clone();
    let opts1 = ReachOptions {
        sift: true,
        sift_trigger: 1.2,
        checkpoint_every: Some(1),
        checkpoint_hook: Some(Rc::new(move |m, cp| {
            if hook_wrote.get() || !m.order_is_permuted() {
                return;
            }
            let meta = CkptMeta {
                engine: cp.engine,
                order: "d".to_string(),
                circuit: hook_circuit.clone(),
                fingerprint,
                num_vars: m.num_vars(),
                level2var: level_map_of(m),
                iterations: cp.iterations,
            };
            assert!(
                !meta.level2var.is_empty(),
                "permuted manager produced an identity level map"
            );
            write_checkpoint(&hook_path, m, &meta, cp.state()).unwrap();
            hook_wrote.set(true);
        })),
        ..ReachOptions::default()
    };
    let r1 = run(lane.engine, &mut m1, &fsm1, &opts1);
    assert_eq!(r1.outcome, Outcome::FixedPoint, "sifted run");
    assert!(r1.reorders > 0, "sifting never fired; checkpoint untested");
    assert!(wrote.get(), "no checkpoint written under a permuted order");
    assert_eq!(
        r1.reached_states,
        Some(expect_states),
        "sifted run disagrees with the static baseline"
    );
    drop((m1, fsm1));

    // Fresh manager under the original static order: read_checkpoint
    // must replay the recorded permutation, and a plain (sift-off)
    // resume must land on the static count.
    let (mut m2, fsm2) = EncodedFsm::encode(&net, order).unwrap();
    assert!(!m2.order_is_permuted());
    let (meta, cp) = read_checkpoint(&path, &mut m2).unwrap();
    assert!(
        !meta.level2var.is_empty(),
        "checkpoint lost its level map in the container round-trip"
    );
    assert!(
        m2.order_is_permuted(),
        "read_checkpoint did not replay the permutation"
    );
    let resumed = resume(&mut m2, &fsm2, &ReachOptions::default(), cp);
    assert_eq!(resumed.outcome, Outcome::FixedPoint, "resume");
    assert_eq!(
        resumed.reached_states,
        Some(expect_states),
        "resumed permuted-order checkpoint missed the static count"
    );

    let _ = std::fs::remove_file(&path);
}
