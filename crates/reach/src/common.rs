//! Shared options, statistics and outcome types for the engines.

use std::fmt;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bfvr_bdd::{Bdd, BddError, BddManager, Func};
use bfvr_bfv::reparam::Schedule;
use bfvr_bfv::BfvError;
use bfvr_sim::{EncodedFsm, OrderHeuristic};

use crate::{ReprCheckpoint, SetView};

/// Which reachability engine to run (see the crate docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's Figure 2 flow (Boolean functional vectors).
    Bfv,
    /// Coudert–Berthet–Madre Figure 1 flow (χ + range computation).
    Cbm,
    /// Monolithic transition relation.
    Monolithic,
    /// Partitioned transition relation with IWLS95-style scheduling.
    Iwls95,
    /// Figure 2 flow over McMillan's conjunctive decomposition (§2.7).
    Cdec,
}

impl EngineKind {
    /// Short label used in benchmark tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Bfv => "BFV",
            EngineKind::Cbm => "CBM",
            EngineKind::Monolithic => "MONO",
            EngineKind::Iwls95 => "IWLS95",
            EngineKind::Cdec => "CDEC",
        }
    }

    /// All engines, for sweeps.
    #[must_use]
    pub fn all() -> [EngineKind; 5] {
        [
            EngineKind::Bfv,
            EngineKind::Cbm,
            EngineKind::Monolithic,
            EngineKind::Iwls95,
            EngineKind::Cdec,
        ]
    }

    /// Parses a benchmark-table label (case-insensitive) back into an
    /// engine — the inverse of [`EngineKind::label`], used by durable
    /// checkpoint headers and the job store.
    #[must_use]
    pub fn parse(s: &str) -> Option<EngineKind> {
        EngineKind::all()
            .into_iter()
            .find(|e| e.label().eq_ignore_ascii_case(s))
    }

    /// Whether this engine's lane honors a dynamic-reordering request
    /// (`--sift`): only the χ engines survive a mid-run level
    /// permutation — BFV/CDEC tie component order to variable order
    /// (paper §3). Agrees with [`crate::SetRepr::supports_reorder`]
    /// of the backend [`crate::run`] builds for the engine.
    #[must_use]
    pub fn supports_reorder(self) -> bool {
        matches!(
            self,
            EngineKind::Cbm | EngineKind::Monolithic | EngineKind::Iwls95
        )
    }
}

/// Everything an [`IterationObserver`] sees at one iteration boundary:
/// the engine, the iteration count, the engine's full garbage-collection
/// root set, and the live set representation.
#[derive(Clone, Copy, Debug)]
pub struct IterationView<'a> {
    /// The engine producing this iteration.
    pub engine: EngineKind,
    /// Iterations completed so far (1-based at the first callback).
    pub iteration: usize,
    /// The complete root set the engine just collected garbage against
    /// (its loop state plus any engine-private relations, e.g. the
    /// IWLS95 cluster relations). Anything live but unreachable from
    /// these — plus the manager's pinned handles — is a leak.
    pub roots: &'a [Bdd],
    /// The set representation the engine iterates on.
    pub set: SetView<'a>,
}

/// Per-iteration callback, invoked at every completed (growing)
/// fixed-point iteration right after the engine's garbage collection.
/// Receives the manager so it can inspect — or audit — the live graph.
///
/// `Rc` keeps [`ReachOptions`] cheaply cloneable; the engines never
/// retain the observer beyond the run.
pub type IterationObserver = Rc<dyn Fn(&mut BddManager, &EncodedFsm, &IterationView<'_>)>;

/// Resource limits and tuning knobs shared by all engines.
#[derive(Clone)]
pub struct ReachOptions {
    /// Ceiling on allocated BDD nodes (reproduces `M.O.`).
    pub node_limit: Option<usize>,
    /// Wall-clock budget (reproduces `T.O.`).
    pub time_limit: Option<Duration>,
    /// Ceiling on computed-table slots per op cache (see
    /// [`BddManager::set_cache_limit`]); `None` keeps the manager's
    /// default. Unlike `node_limit` this is not an abort threshold — the
    /// caches are lossy and simply stop growing, trading hit rate for a
    /// bounded resident footprint (visible in `cache_stats`).
    pub cache_limit: Option<usize>,
    /// Safety cap on image iterations.
    pub max_iterations: Option<usize>,
    /// Static variable-ordering heuristic for the drivers that own the
    /// netlist encoding — the racing portfolio (each lane encodes the
    /// netlist in its own thread) and the CLI front end. Engines called
    /// with an already-encoded [`EncodedFsm`] inherit whatever order the
    /// caller encoded with; this field does not re-order them.
    pub order: OrderHeuristic,
    /// Parameter-elimination schedule for the BFV/CDEC engines (§3).
    pub schedule: Schedule,
    /// Cluster size threshold for the partitioned-TR engine \[IWLS95\].
    pub cluster_threshold: usize,
    /// Use the smaller of frontier/reached as the image source (the
    /// selection heuristic of Figures 1–2). When false, always iterate
    /// from the full reached set.
    pub use_frontier: bool,
    /// Enable dynamic variable reordering (Rudell sifting) between
    /// iterations (CLI `--sift`). The driver watches live-node growth
    /// after each iteration's collection and, once the graph has grown
    /// past [`ReachOptions::sift_trigger`] × the post-reorder baseline
    /// (and past [`bfvr_bdd::SIFT_SIZE_FLOOR`]), runs
    /// [`BddManager::sift`] over the loop roots with resource limits
    /// suspended. Only backends whose loop state survives a permuted
    /// order honor the flag ([`crate::SetRepr::supports_reorder`]);
    /// the BFV/CDEC lanes silently decline — their
    /// representations hard-code the component-order-equals-variable-
    /// order constraint of the paper's §3.
    pub sift: bool,
    /// Per-variable growth bound of a sift pass: moving one variable may
    /// let the graph grow to at most this multiple of its size before
    /// the move is aborted and undone (Rudell's `maxGrowth`).
    pub sift_max_growth: f64,
    /// Live-node growth multiple (relative to the last post-reorder
    /// baseline) at which the driver triggers the next sift.
    pub sift_trigger: f64,
    /// Per-iteration callback (see [`IterationObserver`]); used by the
    /// `bfvr audit` subcommand to run the analysis passes against every
    /// intermediate set. `None` costs nothing.
    pub observer: Option<IterationObserver>,
    /// Telemetry stream (see [`crate::telemetry::TraceHandle`]). Unlike
    /// `observer`, tracing is read-only: it records sampled iteration
    /// events, engine spans and outcome/limit events without forcing
    /// collections or otherwise changing what the engine computes.
    /// `None` costs nothing.
    pub trace: Option<crate::telemetry::TraceHandle>,
    /// Invoke [`ReachOptions::checkpoint_hook`] every this many growing
    /// iterations. `None` disables periodic checkpoints (the default);
    /// the driver still builds a final checkpoint on recoverable
    /// exhaustion either way.
    pub checkpoint_every: Option<usize>,
    /// Periodic durable-checkpoint callback (see [`CheckpointHook`]).
    /// Called with the manager's resource limits suspended, so writing a
    /// checkpoint can never itself trip the budget it exists to survive.
    /// `None` costs nothing.
    pub checkpoint_hook: Option<CheckpointHook>,
}

/// Periodic checkpoint callback, invoked by the shared fixed-point
/// driver every [`ReachOptions::checkpoint_every`] growing iterations
/// with a freshly built [`Checkpoint`] of the loop state. The CLI uses
/// it to write durable checkpoint files mid-run so a killed process
/// resumes from the last completed multiple of `checkpoint_every`
/// instead of iteration zero.
///
/// The hook must not panic; failures (a full disk, say) should be
/// latched by the caller and surfaced after the run — a failed periodic
/// checkpoint must never abort the in-memory traversal.
pub type CheckpointHook = Rc<dyn Fn(&mut BddManager, &Checkpoint)>;

impl Default for ReachOptions {
    fn default() -> Self {
        ReachOptions {
            node_limit: None,
            time_limit: None,
            cache_limit: None,
            max_iterations: None,
            order: OrderHeuristic::DfsFanin,
            schedule: Schedule::DynamicSupport,
            cluster_threshold: 500,
            use_frontier: true,
            sift: false,
            sift_max_growth: 1.2,
            sift_trigger: 2.0,
            observer: None,
            trace: None,
            checkpoint_every: None,
            checkpoint_hook: None,
        }
    }
}

// Hand-written: `Rc<dyn Fn>` has no `Debug`.
impl fmt::Debug for ReachOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReachOptions")
            .field("node_limit", &self.node_limit)
            .field("time_limit", &self.time_limit)
            .field("cache_limit", &self.cache_limit)
            .field("max_iterations", &self.max_iterations)
            .field("order", &self.order)
            .field("schedule", &self.schedule)
            .field("cluster_threshold", &self.cluster_threshold)
            .field("use_frontier", &self.use_frontier)
            .field("sift", &self.sift)
            .field("sift_max_growth", &self.sift_max_growth)
            .field("sift_trigger", &self.sift_trigger)
            .field("observer", &self.observer.as_ref().map(|_| "<callback>"))
            .field("trace", &self.trace.as_ref().map(|_| "<tracer>"))
            .field("checkpoint_every", &self.checkpoint_every)
            .field(
                "checkpoint_hook",
                &self.checkpoint_hook.as_ref().map(|_| "<callback>"),
            )
            .finish()
    }
}

/// Internal: one iteration's measurements, as only the engine's loop
/// knows them — its (possibly deferred) collection result and its own
/// wall-clock/op-class timers. Everything else recorded at the boundary
/// is derived from `&self` reads inside [`notify_iteration`].
pub(crate) struct IterMetrics<'a> {
    /// Result of the engine's adaptive per-iteration collection.
    pub gc: bfvr_bdd::GcStats,
    /// Wall time of the whole iteration.
    pub elapsed: Duration,
    /// Op-class durations (`image`, `union`, `convert`), in loop order.
    pub ops: &'a [(&'static str, Duration)],
}

/// Internal: the per-iteration boundary hook shared by all five engines —
/// records telemetry, runs the `audit`-feature self-check, then the
/// caller-supplied observer.
///
/// Ordering is load-bearing. Telemetry comes **first**,
/// from `&self` reads only, so a traced run measures exactly the state
/// an untraced run would be in. The observer/audit path comes second
/// and is allowed to perturb: the engines' own per-iteration collection
/// is adaptive ([`BddManager::maybe_collect_garbage`]) and defers on
/// small graphs, leaving garbage in the arena on purpose — but
/// observers and the audit's leak pass are promised a freshly-collected
/// heap (anything live but unreachable from `view.roots` is a finding
/// to them), so when anyone is *observing* we force the full collection
/// the engines skipped. Tracing alone never triggers that collection.
pub(crate) fn notify_iteration(
    m: &mut BddManager,
    fsm: &EncodedFsm,
    opts: &ReachOptions,
    view: &IterationView<'_>,
    metrics: &IterMetrics<'_>,
) {
    if let Some(trace) = &opts.trace {
        let mut t = trace.borrow_mut();
        if t.should_record(view.iteration as u64) {
            let record = crate::telemetry::iter_record(m, fsm, view, metrics);
            t.iteration(record);
        }
    }
    #[cfg(not(feature = "audit"))]
    let observed = opts.observer.is_some();
    #[cfg(feature = "audit")]
    let observed = true;
    if observed {
        m.collect_garbage(view.roots);
    }
    #[cfg(feature = "audit")]
    crate::selfcheck::selfcheck_iteration(m, fsm, view);
    if let Some(obs) = &opts.observer {
        obs(m, fsm, view);
    }
}

/// How a traversal ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The least fixed point was reached.
    FixedPoint,
    /// The wall-clock budget was exhausted (`T.O.` in Table 2).
    TimeOut,
    /// The node ceiling was hit (`M.O.` in Table 2).
    MemOut,
    /// The iteration cap was hit.
    IterationLimit,
    /// An internal failure that is *not* a legitimate resource exhaustion
    /// (index-space capacity, a variable out of range). Kept distinct so
    /// bugs are never reported as `M.O.` — and never retried with a
    /// bigger budget.
    Error,
}

impl Outcome {
    /// The paper's table notation: `ok`, `T.O.`, `M.O.`, `I.L.` (plus
    /// `ERR` for internal failures, which Table 2 never shows).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Outcome::FixedPoint => "ok",
            Outcome::TimeOut => "T.O.",
            Outcome::MemOut => "M.O.",
            Outcome::IterationLimit => "I.L.",
            Outcome::Error => "ERR",
        }
    }

    /// Whether the run stopped on its time or node budget, so a resume
    /// under a larger budget could still reach the fixed point.
    #[must_use]
    pub fn is_resource_exhaustion(self) -> bool {
        matches!(self, Outcome::TimeOut | Outcome::MemOut)
    }
}

/// The result of a reachability run.
#[derive(Clone, Debug)]
pub struct ReachResult {
    /// The engine that produced this result.
    pub engine: EngineKind,
    /// How the traversal ended.
    pub outcome: Outcome,
    /// Image iterations completed.
    pub iterations: usize,
    /// Number of reached states (exact when the state count fits; present
    /// even on resource-limited runs, for the states found so far).
    pub reached_states: Option<f64>,
    /// Characteristic function of the reached set over the current-state
    /// variables (present when the engine completed; the BFV engine
    /// converts once at the end purely for cross-engine validation).
    ///
    /// The [`Func`] handle roots the BDD, so later engine runs in the same
    /// manager cannot collect it; it is released when the result (and all
    /// clones of the handle) are dropped.
    pub reached_chi: Option<Func>,
    /// Shared size of the final reached-set representation (BDD nodes).
    pub representation_nodes: Option<usize>,
    /// Peak allocated BDD nodes during the run (the paper's `Peak(K)`).
    pub peak_nodes: usize,
    /// Wall time.
    pub elapsed: Duration,
    /// Total time spent in representation conversions (χ↔BFV); zero for
    /// the Figure 2 flow — that is the paper's headline.
    pub conversion_time: Duration,
    /// Dynamic reorder (sift) passes the driver triggered during the
    /// run. Zero when [`ReachOptions::sift`] was off, the backend
    /// declined ([`crate::SetRepr::supports_reorder`]), or the
    /// graph never crossed the growth trigger.
    pub reorders: usize,
    /// Live-node counts summed across reorders: `(before, after)` totals
    /// of every triggered sift pass, for the `Peak(K)`-style tables.
    pub reorder_nodes: (usize, usize),
    /// Resumable state, present when the run stopped short of its fixed
    /// point for a recoverable reason (time-out, mem-out, iteration cap)
    /// with at least one state reached. Feed it to [`crate::resume`] —
    /// typically with raised limits — to continue from where this run
    /// stopped instead of restarting.
    pub checkpoint: Option<Checkpoint>,
}

/// Resumable traversal state captured at the last completed iteration.
///
/// All BDD state is held through [`Func`] handles, so the checkpoint's
/// nodes survive garbage collection for as long as the checkpoint lives;
/// drop it to release them. Checkpoints are tied to the
/// manager/[`bfvr_sim::EncodedFsm`] pair that produced them.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Engine that produced this checkpoint (resume rebuilds its
    /// backend; a state of another representation is rejected as an
    /// error).
    pub engine: EngineKind,
    /// Image iterations completed before the interruption.
    pub iterations: usize,
    /// Backend-specific reached/frontier representation, re-expressed in
    /// manager-stable handles (see [`crate::SetRepr::checkpoint`]).
    pub(crate) state: ReprCheckpoint,
}

impl Checkpoint {
    /// Assembles a checkpoint from its parts — the deserialization
    /// entry point for durable on-disk checkpoints, which reconstruct
    /// the representation state in a fresh manager and hand it back to
    /// [`crate::resume`]. In-memory checkpoints come from the driver.
    #[must_use]
    pub fn new(engine: EngineKind, iterations: usize, state: ReprCheckpoint) -> Checkpoint {
        Checkpoint {
            engine,
            iterations,
            state,
        }
    }

    /// The representation half of the checkpoint — what a durable
    /// serializer persists (the engine half is the public fields).
    #[must_use]
    pub fn state(&self) -> &ReprCheckpoint {
        &self.state
    }
}

/// Internal: classify a BDD failure as an outcome.
pub(crate) fn outcome_of_bdd_error(e: &BddError) -> Outcome {
    match e {
        BddError::NodeLimit { .. } => Outcome::MemOut,
        BddError::Deadline => Outcome::TimeOut,
        // Capacity / VarOutOfRange are internal failures, not legitimate
        // memory-outs: never classify them as `M.O.`.
        _ => Outcome::Error,
    }
}

/// Internal: classify a BFV failure as an outcome.
pub(crate) fn outcome_of_bfv_error(e: &BfvError) -> Outcome {
    match e {
        BfvError::Bdd(b) => outcome_of_bdd_error(b),
        _ => Outcome::Error,
    }
}

/// Internal: a result for a run that failed before completing a single
/// iteration (no partial state to report or checkpoint).
pub(crate) fn failed_result(
    m: &mut BddManager,
    engine: EngineKind,
    outcome: Outcome,
    elapsed: Duration,
) -> ReachResult {
    let peak_nodes = m.peak_nodes();
    disarm_limits(m);
    ReachResult {
        engine,
        outcome,
        iterations: 0,
        reached_states: None,
        reached_chi: None,
        representation_nodes: None,
        peak_nodes,
        elapsed,
        conversion_time: Duration::ZERO,
        reorders: 0,
        reorder_nodes: (0, 0),
        checkpoint: None,
    }
}

/// Internal: arm the manager's limits, the time limit counted from `start`.
pub(crate) fn arm_limits(m: &mut BddManager, opts: &ReachOptions, start: Instant) {
    if let Some(n) = opts.node_limit {
        m.set_node_limit(n);
    }
    if let Some(c) = opts.cache_limit {
        m.set_cache_limit(c);
    }
    m.set_deadline(opts.time_limit.map(|d| start + d));
    m.reset_peak_nodes();
}

/// Internal: disarm limits after a run.
pub(crate) fn disarm_limits(m: &mut BddManager) {
    m.clear_node_limit();
    m.set_deadline(None);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(EngineKind::Bfv.label(), "BFV");
        assert_eq!(Outcome::TimeOut.label(), "T.O.");
        assert_eq!(Outcome::MemOut.label(), "M.O.");
        assert_eq!(EngineKind::all().len(), 5);
    }

    #[test]
    fn default_options_are_unbounded() {
        let o = ReachOptions::default();
        assert!(o.node_limit.is_none());
        assert!(o.time_limit.is_none());
        assert!(o.use_frontier);
    }

    #[test]
    fn error_classification() {
        assert_eq!(
            outcome_of_bdd_error(&BddError::NodeLimit { limit: 1 }),
            Outcome::MemOut
        );
        assert_eq!(outcome_of_bdd_error(&BddError::Deadline), Outcome::TimeOut);
        assert_eq!(
            outcome_of_bfv_error(&BfvError::Bdd(BddError::Deadline)),
            Outcome::TimeOut
        );
    }

    #[test]
    fn internal_failures_are_not_memouts() {
        assert_eq!(outcome_of_bdd_error(&BddError::Capacity), Outcome::Error);
        assert_eq!(
            outcome_of_bdd_error(&BddError::VarOutOfRange {
                var: 9,
                num_vars: 4
            }),
            Outcome::Error
        );
        assert_eq!(
            outcome_of_bfv_error(&BfvError::Bdd(BddError::Capacity)),
            Outcome::Error
        );
        assert_eq!(Outcome::Error.label(), "ERR");
        assert!(!Outcome::Error.is_resource_exhaustion());
        assert!(Outcome::MemOut.is_resource_exhaustion());
        assert!(Outcome::TimeOut.is_resource_exhaustion());
        assert!(!Outcome::FixedPoint.is_resource_exhaustion());
    }
}
