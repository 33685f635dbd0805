//! # bfvr-reach — symbolic reachability engines
//!
//! The evaluation substrate of the `bfvr` reproduction: five reachability
//! engines over the same [`bfvr_sim::EncodedFsm`] encoding, producing
//! directly comparable [`ReachResult`]s (iterations, reached-state count,
//! peak live BDD nodes, wall time, and a resource-limit outcome mirroring
//! the `T.O.`/`M.O.` cells of the paper's Table 2):
//!
//! * [`reach_bfv`] — **the paper's Figure 2 flow**: symbolic simulation,
//!   re-parameterization and Boolean-functional-vector set union; no
//!   characteristic function is ever built.
//! * [`reach_cbm`] — the Coudert–Berthet–Madre Figure 1 flow: set
//!   manipulation on characteristic functions, image computation by
//!   constrained range computation with recursive splitting; the
//!   representation conversions the paper eliminates are timed separately.
//! * [`reach_monolithic`] — a single conjoined transition relation with
//!   one relational product per step (the textbook baseline).
//! * [`reach_iwls95`] — partitioned transition relation with clustering
//!   and early quantification \[IWLS95\], the configuration of the "VIS"
//!   column in Table 2.
//! * [`reach_cdec`] — the same Figure 2 flow storing sets as McMillan's
//!   conjunctive decomposition (§2.7 correspondence).
//!
//! All five run through one shared fixed-point driver written against the
//! [`SetRepr`] trait (see [`backends`]); [`run_repr`] names a lane by its
//! engine × representation pair.
//!
//! [`check_invariant`] layers a simple safety checker on the BFV engine —
//! the "symbolic simulation based model checker" the paper names as the
//! goal of this line of work. [`find_trace`] extracts a concrete
//! minimal-depth input trace to any target set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod backends;
mod bfv_engine;
mod cbm;
mod cdec_engine;
mod cf;
mod check;
mod common;
mod driver;
mod iwls95;
pub mod portfolio;
#[cfg(feature = "audit")]
mod selfcheck;
pub mod telemetry;
mod trace;

pub use bfv_engine::reach_bfv;
pub use bfvr_setrepr::{ReprCheckpoint, ReprKind, SetRepr, SetView};
pub use cbm::reach_cbm;
pub use cdec_engine::reach_cdec;
pub use cf::reach_monolithic;
pub use check::{check_invariant, CheckResult};
pub use common::{
    lane_label, Checkpoint, CheckpointHook, EngineKind, IterationObserver, IterationStats,
    IterationView, Outcome, ReachOptions, ReachResult,
};
pub use iwls95::reach_iwls95;
pub use telemetry::TraceHandle;
pub use trace::{find_trace, Trace};

use bfvr_bdd::BddManager;
use bfvr_sim::EncodedFsm;

/// Internal: build the backend for an engine × representation pair and
/// run the shared driver on it (fresh or seeded). The single place the
/// lane matrix is enumerated.
fn dispatch(
    engine: EngineKind,
    repr: ReprKind,
    m: &mut BddManager,
    fsm: &EncodedFsm,
    opts: &ReachOptions,
    seed: Option<(&ReprCheckpoint, usize)>,
) -> ReachResult {
    use driver::run_fixed_point;
    match (engine, repr) {
        (EngineKind::Monolithic, ReprKind::Chi) => {
            let mut b = backends::ChiBackend::monolithic(fsm);
            run_fixed_point(engine, &mut b, m, fsm, opts, seed)
        }
        (EngineKind::Cbm, ReprKind::Chi) => {
            let mut b = backends::ChiBackend::cbm(fsm);
            run_fixed_point(engine, &mut b, m, fsm, opts, seed)
        }
        (EngineKind::Iwls95, ReprKind::Chi) => {
            let mut b = backends::ChiBackend::iwls95(fsm, opts.cluster_threshold);
            run_fixed_point(engine, &mut b, m, fsm, opts, seed)
        }
        (EngineKind::Bfv, ReprKind::Bfv) => {
            let mut b = backends::BfvBackend::new(fsm, opts.schedule);
            run_fixed_point(engine, &mut b, m, fsm, opts, seed)
        }
        (EngineKind::Cdec, ReprKind::Cdec) => {
            let mut b = backends::CdecBackend::new(fsm, opts.schedule);
            run_fixed_point(engine, &mut b, m, fsm, opts, seed)
        }
        // Unsupported pair: a caller bug, not a resource limit.
        _ => {
            let start = std::time::Instant::now();
            common::failed_result(m, engine, repr, Outcome::Error, start.elapsed())
        }
    }
}

/// Runs the engine selected by `kind` on its native set representation
/// (convenience dispatcher for the benchmark harness).
///
/// When [`ReachOptions::trace`] is set, the dispatcher brackets the
/// traversal in an `engine` span and records the end-of-traversal
/// summary (and any tripped resource limit) — callers invoking the
/// `reach_*` functions directly still get per-iteration events, but
/// only the dispatchers emit the engine-level framing.
pub fn run(
    kind: EngineKind,
    m: &mut BddManager,
    fsm: &EncodedFsm,
    opts: &ReachOptions,
) -> ReachResult {
    run_repr(kind, kind.native_repr(), m, fsm, opts)
}

/// Runs one engine × representation lane: `kind`'s image computation
/// iterating on the `repr` set representation. Supported pairs are
/// [`EngineKind::supported_reprs`]; an unsupported pair reports
/// [`Outcome::Error`].
pub fn run_repr(
    kind: EngineKind,
    repr: ReprKind,
    m: &mut BddManager,
    fsm: &EncodedFsm,
    opts: &ReachOptions,
) -> ReachResult {
    let span = telemetry::engine_span_open(opts, m, kind);
    let r = dispatch(kind, repr, m, fsm, opts, None);
    telemetry::engine_span_close(opts, m, span, &r);
    r
}

/// Continues an interrupted traversal from its [`Checkpoint`], typically
/// with raised limits in `opts`. The checkpoint must come from a run on
/// the same manager/FSM pair. The continuation reaches the same fixed
/// point the uninterrupted run would have reached: the reached set only
/// ever grows toward the unique least fixed point, and the seeded
/// iteration restarts from a `from ⊆ reached` start set.
///
/// Reported `iterations` are cumulative across the original run and all
/// resumptions. Resume re-enters the same engine × representation lane
/// the checkpoint came from.
pub fn resume(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    opts: &ReachOptions,
    checkpoint: Checkpoint,
) -> ReachResult {
    let Checkpoint {
        engine,
        repr,
        iterations,
        state,
    } = checkpoint;
    let span = telemetry::engine_span_open(opts, m, engine);
    // `state` stays alive across the dispatch, keeping its `Func`
    // handles pinned until the seeded driver has re-pinned the sets.
    let r = dispatch(engine, repr, m, fsm, opts, Some((&state, iterations)));
    drop(state);
    telemetry::engine_span_close(opts, m, span, &r);
    r
}
