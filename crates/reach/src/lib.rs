//! # bfvr-reach — symbolic reachability engines
//!
//! The evaluation substrate of the `bfvr` reproduction: five reachability
//! engines over the same [`bfvr_sim::EncodedFsm`] encoding, producing
//! directly comparable [`ReachResult`]s (iterations, reached-state count,
//! peak live BDD nodes, wall time, and a resource-limit outcome mirroring
//! the `T.O.`/`M.O.` cells of the paper's Table 2):
//!
//! * [`EngineKind::Bfv`] — **the paper's Figure 2 flow**: symbolic
//!   simulation, re-parameterization and Boolean-functional-vector set
//!   union; no characteristic function is ever built.
//! * [`EngineKind::Cbm`] — the Coudert–Berthet–Madre Figure 1 flow: set
//!   manipulation on characteristic functions, image computation by
//!   constrained range computation with recursive splitting; the
//!   representation conversions the paper eliminates are timed separately.
//! * [`EngineKind::Monolithic`] — a single conjoined transition relation
//!   with one relational product per step (the textbook baseline).
//! * [`EngineKind::Iwls95`] — partitioned transition relation with
//!   clustering and early quantification \[IWLS95\], the configuration of
//!   the "VIS" column in Table 2.
//! * [`EngineKind::Cdec`] — the same Figure 2 flow storing sets as
//!   McMillan's conjunctive decomposition (§2.7 correspondence).
//!
//! Each engine iterates on one set representation, so the engine alone
//! names a lane. [`run`] builds the engine's backend (see [`backends`])
//! and runs the one fixed-point driver, written against the [`SetRepr`]
//! trait, on it; [`resume`] continues a [`Checkpoint`] the same way.
//!
//! [`check_invariant`] layers a simple safety checker on the BFV engine —
//! the "symbolic simulation based model checker" the paper names as the
//! goal of this line of work. [`find_trace`] extracts a concrete
//! minimal-depth input trace to any target set. Both run that driver on
//! the BFV backend and stop it at the first image that meets their
//! target; a run that stops on a limit first is a [`NoVerdict`] error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod backends;
#[cfg(test)]
mod bfv_engine;
mod cbm;
#[cfg(test)]
mod cdec_engine;
mod cf;
mod check;
mod common;
mod driver;
mod iwls95;
pub mod portfolio;
mod repr;
#[cfg(feature = "audit")]
mod selfcheck;
pub mod telemetry;
mod trace;

pub use bfvr_audit::SetView;
pub use check::{check_invariant, CheckResult, NoVerdict};
pub use common::{
    Checkpoint, CheckpointHook, EngineKind, IterationObserver, IterationView, Outcome,
    ReachOptions, ReachResult,
};
pub use repr::{ReprCheckpoint, Restored, SetRepr};
pub use telemetry::TraceHandle;
pub use trace::{find_trace, Trace};

use bfvr_bdd::BddManager;
use bfvr_sim::EncodedFsm;

/// Internal: build the backend of `engine` and run the shared driver on
/// it (fresh or seeded). The single place a backend is chosen.
fn dispatch(
    engine: EngineKind,
    m: &mut BddManager,
    fsm: &EncodedFsm,
    opts: &ReachOptions,
    seed: Option<(&ReprCheckpoint, usize)>,
) -> ReachResult {
    use driver::run_fixed_point;
    macro_rules! go {
        ($backend:expr) => {
            run_fixed_point(engine, &mut $backend, m, fsm, opts, seed, |_, _| Ok(false))
        };
    }
    match engine {
        EngineKind::Monolithic => go!(backends::ChiBackend::monolithic(fsm)),
        EngineKind::Cbm => go!(backends::ChiBackend::cbm(fsm)),
        EngineKind::Iwls95 => go!(backends::ChiBackend::iwls95(fsm, opts.cluster_threshold)),
        EngineKind::Bfv => go!(backends::BfvBackend::new(fsm, opts.schedule)),
        EngineKind::Cdec => go!(backends::CdecBackend::new(fsm, opts.schedule)),
    }
}

/// Runs the engine selected by `kind` to its least fixed point (or to a
/// resource limit in `opts`).
///
/// ```
/// use bfvr_netlist::generators;
/// use bfvr_reach::{run, EngineKind, ReachOptions};
/// use bfvr_sim::{EncodedFsm, OrderHeuristic};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = generators::johnson(6);
/// let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin)?;
/// let r = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
/// assert_eq!(r.reached_states, Some(12.0)); // 2n of 2^n states
/// # Ok(())
/// # }
/// ```
///
/// When [`ReachOptions::trace`] is set, the run is bracketed in an
/// `engine` span that records the end-of-traversal summary (and any
/// tripped resource limit), around the driver's per-iteration events.
pub fn run(
    kind: EngineKind,
    m: &mut BddManager,
    fsm: &EncodedFsm,
    opts: &ReachOptions,
) -> ReachResult {
    let span = telemetry::engine_span_open(opts, m, kind);
    let r = dispatch(kind, m, fsm, opts, None);
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
/// resumptions. Resume re-enters the engine the checkpoint came from.
pub fn resume(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    opts: &ReachOptions,
    checkpoint: Checkpoint,
) -> ReachResult {
    let Checkpoint {
        engine,
        iterations,
        state,
    } = checkpoint;
    let span = telemetry::engine_span_open(opts, m, engine);
    // `state` stays alive across the dispatch, keeping its `Func`
    // handles pinned until the seeded driver has re-pinned the sets.
    let r = dispatch(engine, m, fsm, opts, Some((&state, iterations)));
    drop(state);
    telemetry::engine_span_close(opts, m, span, &r);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use backends::{BfvBackend, CdecBackend, ChiBackend};
    use bfvr_sim::OrderHeuristic;

    /// The engine-level capability the CLI shows (`~S`) is the one the
    /// driver reads off the backend [`dispatch`] builds.
    #[test]
    fn engine_supports_reorder_agrees_with_its_backend() {
        let net = bfvr_netlist::circuits::s27();
        let (_, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let opts = ReachOptions::default();
        for e in EngineKind::all() {
            let backend = match e {
                EngineKind::Monolithic => ChiBackend::monolithic(&fsm).supports_reorder(),
                EngineKind::Cbm => ChiBackend::cbm(&fsm).supports_reorder(),
                EngineKind::Iwls95 => {
                    ChiBackend::iwls95(&fsm, opts.cluster_threshold).supports_reorder()
                }
                EngineKind::Bfv => BfvBackend::new(&fsm, opts.schedule).supports_reorder(),
                EngineKind::Cdec => CdecBackend::new(&fsm, opts.schedule).supports_reorder(),
            };
            assert_eq!(e.supports_reorder(), backend, "{e:?}");
        }
    }
}
