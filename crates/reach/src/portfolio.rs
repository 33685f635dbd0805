//! Engine racing. The paper's Table 2 story is that different engines
//! win on different circuits, and no static chooser predicts the winner.
//! [`run_racing`] runs a set of engine × ordering lanes (see [`Lane`])
//! concurrently on the same netlist and returns the first fixed point any
//! lane reaches. Because [`BddManager`](bfvr_bdd::BddManager) is
//! deliberately `!Send` (its [`bfvr_bdd::Func`] root handles share an
//! `Rc` root table), each lane runs a *private* manager built by encoding
//! the netlist in its own worker thread — there is no shared mutable BDD
//! state and therefore no locking on the op-cache and unique-table hot
//! paths. Losers are cancelled cooperatively: the winner trips a shared
//! [`AtomicBool`] that every manager polls at the same points as its
//! deadline (each fixed-point iteration and every few thousand node
//! allocations), so a cancelled lane unwinds as a clean `T.O.`-shaped
//! partial result, never an error.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bfvr_netlist::Netlist;
use bfvr_sim::{EncodedFsm, OrderHeuristic};

use crate::{run, EngineKind, Outcome, ReachOptions};

/// One engine × ordering lane of a race: which engine runs and —
/// optionally — a variable order overriding the race-wide base order
/// [`run_racing`] takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lane {
    /// The engine the lane runs.
    pub engine: EngineKind,
    /// Variable-ordering override for this lane's private encoding;
    /// `None` inherits the race's base order.
    pub order: Option<OrderHeuristic>,
}

impl Lane {
    /// An engine on the race-wide base order.
    #[must_use]
    pub fn native(engine: EngineKind) -> Self {
        Lane {
            engine,
            order: None,
        }
    }

    /// This lane with an explicit variable-ordering override — the
    /// second axis of the portfolio (engine × ordering).
    #[must_use]
    pub fn with_order(mut self, order: OrderHeuristic) -> Self {
        self.order = Some(order);
        self
    }

    /// The lane's display label (`BFV`, `MONO`, `CDEC`, …).
    /// Ordering overrides do not change the label (the trace schema keys
    /// race events by static engine labels); use [`Lane::display`] where
    /// the override matters.
    #[must_use]
    pub fn label(self) -> &'static str {
        self.engine.label()
    }

    /// The lane's full display name: the label, tagged `@ORDER` when the
    /// lane overrides the race's base order (`MONO@COI`, `BFV@FORCE`).
    #[must_use]
    pub fn display(self) -> String {
        match self.order {
            Some(o) => format!("{}@{}", self.label(), o.label()),
            None => self.label().to_string(),
        }
    }

    /// Every engine on the base order, in [`EngineKind::all`] order.
    #[must_use]
    pub fn all_lanes() -> Vec<Lane> {
        EngineKind::all().into_iter().map(Lane::native).collect()
    }
}

/// One lane's report in a race.
#[derive(Clone, Debug)]
pub struct LaneReport {
    /// The engine this lane ran.
    pub engine: EngineKind,
    /// The variable-ordering heuristic the lane's private encoding used
    /// (its override if it had one, else the race's base order).
    pub order: OrderHeuristic,
    /// How the lane's traversal ended; `None` when the lane was skipped
    /// because the race was already decided before it could start.
    pub outcome: Option<Outcome>,
    /// Image iterations the lane completed.
    pub iterations: usize,
    /// States the lane had reached when it stopped.
    pub reached_states: Option<f64>,
    /// Final representation size (completed lanes only).
    pub representation_nodes: Option<usize>,
    /// Peak allocated nodes in the lane's private manager.
    pub peak_nodes: usize,
    /// Lane wall time, including its private FSM encoding.
    pub elapsed: Duration,
    /// Whether the lane was stopped by the race (a winner finished first)
    /// rather than by its own budget. Cancellation rides the deadline
    /// path, so a cancelled lane reports [`Outcome::TimeOut`] — never
    /// [`Outcome::Error`].
    pub cancelled: bool,
    /// Dynamic reorder (sift) passes the lane's driver triggered; zero
    /// unless the lane requested sifting and its engine supports it
    /// ([`EngineKind::supports_reorder`]).
    pub reorders: usize,
}

/// The race's verdict: every lane's report and the winner among them.
///
/// Reports are plain data: a lane's private manager — and every `Func`
/// rooted in it, the reached set included — dies with its thread. Race
/// when you want the answer fast; run a single engine when you need the
/// reached set itself afterwards.
#[derive(Clone, Debug)]
pub struct RaceReport {
    /// Index into `lanes` of the winner — the first lane to reach its
    /// fixed point, or the best partial result when none did (completion
    /// beats iteration cap beats resource exhaustion; ties go to the lane
    /// with more iterations). `None` only when `lanes` was empty.
    pub winner: Option<usize>,
    /// One report per lane, in the order given.
    pub lanes: Vec<LaneReport>,
    /// Wall time of the whole race.
    pub elapsed: Duration,
}

/// The `Send`able subset of [`ReachOptions`] shipped to lane threads: the
/// per-iteration observer is an `Rc` callback and stays on the caller's
/// thread (lanes run unobserved), and the tracer is `!Send` — lanes get
/// only its sampling stride and rebuild a private collector tracer.
#[derive(Clone, Copy)]
struct LaneOpts {
    node_limit: Option<usize>,
    time_limit: Option<Duration>,
    cache_limit: Option<usize>,
    max_iterations: Option<usize>,
    schedule: bfvr_bfv::reparam::Schedule,
    cluster_threshold: usize,
    use_frontier: bool,
    sift: bool,
    sift_max_growth: f64,
    sift_trigger: f64,
    /// `Some(stride)` when the race driver traces: the lane records its
    /// own stream into a collector tracer and ships the events home.
    trace_sample: Option<u64>,
}

impl LaneOpts {
    fn of(opts: &ReachOptions) -> Self {
        LaneOpts {
            node_limit: opts.node_limit,
            time_limit: opts.time_limit,
            cache_limit: opts.cache_limit,
            max_iterations: opts.max_iterations,
            schedule: opts.schedule,
            cluster_threshold: opts.cluster_threshold,
            use_frontier: opts.use_frontier,
            sift: opts.sift,
            sift_max_growth: opts.sift_max_growth,
            sift_trigger: opts.sift_trigger,
            trace_sample: opts.trace.as_ref().map(|t| t.borrow().sample_every()),
        }
    }

    fn into_options(self) -> ReachOptions {
        ReachOptions {
            node_limit: self.node_limit,
            time_limit: self.time_limit,
            cache_limit: self.cache_limit,
            max_iterations: self.max_iterations,
            schedule: self.schedule,
            cluster_threshold: self.cluster_threshold,
            use_frontier: self.use_frontier,
            sift: self.sift,
            sift_max_growth: self.sift_max_growth,
            sift_trigger: self.sift_trigger,
            observer: None,
            trace: self
                .trace_sample
                .map(|s| crate::telemetry::trace_handle(bfvr_obs::Tracer::collector(s))),
            // Periodic durable checkpointing is a single-lane facility:
            // the hook is an `Rc` callback and cannot cross the lane
            // thread boundary (racing lanes still checkpoint in memory
            // on exhaustion, as before).
            checkpoint_every: None,
            checkpoint_hook: None,
        }
    }
}

/// Everything a lane thread sends home. All fields are plain data, so
/// the message is `Send` even though the result it summarizes was
/// produced by a `!Send` manager.
struct LaneMessage {
    lane: usize,
    report: LaneReport,
    won: bool,
    /// The lane's collected trace stream ([`bfvr_obs::Event`] is plain
    /// data), empty when the race is untraced.
    events: Vec<bfvr_obs::Event>,
}

impl LaneMessage {
    /// The message of a lane the race skipped because a winner was
    /// declared before it could start.
    fn skipped(lane: usize, spec: Lane, base_order: OrderHeuristic) -> Self {
        LaneMessage {
            lane,
            report: LaneReport {
                engine: spec.engine,
                order: spec.order.unwrap_or(base_order),
                outcome: None,
                iterations: 0,
                reached_states: None,
                representation_nodes: None,
                peak_nodes: 0,
                elapsed: Duration::ZERO,
                cancelled: true,
                reorders: 0,
            },
            won: false,
            events: Vec::new(),
        }
    }
}

/// Runs one lane to completion (or cancellation) on the current thread.
fn race_lane(
    lane: usize,
    spec: Lane,
    net: &Netlist,
    order: OrderHeuristic,
    opts: LaneOpts,
    cancel: &Arc<AtomicBool>,
) -> LaneMessage {
    let start = Instant::now();
    let mut msg = LaneMessage::skipped(lane, spec, order);
    if cancel.load(Ordering::Relaxed) {
        return msg;
    }
    let Ok((mut m, fsm)) = EncodedFsm::encode(net, msg.report.order) else {
        msg.report.outcome = Some(Outcome::Error);
        msg.report.elapsed = start.elapsed();
        msg.report.cancelled = false;
        return msg;
    };
    m.set_cancel_token(Some(Arc::clone(cancel)));
    let opts = opts.into_options();
    let result = run(spec.engine, &mut m, &fsm, &opts);
    // First fixed point wins; `swap` makes exactly one lane the winner
    // even if two finish back-to-back.
    let won = result.outcome == Outcome::FixedPoint && !cancel.swap(true, Ordering::AcqRel);
    // A loser whose run ended while the flag was up was (or would have
    // been) stopped by the race, not by its own budget.
    let cancelled =
        !won && result.outcome.is_resource_exhaustion() && cancel.load(Ordering::Acquire);
    let events = opts
        .trace
        .as_ref()
        .map_or_else(Vec::new, |t| t.borrow_mut().drain());
    LaneMessage {
        lane,
        report: LaneReport {
            outcome: Some(result.outcome),
            iterations: result.iterations,
            reached_states: result.reached_states,
            representation_nodes: result.representation_nodes,
            peak_nodes: result.peak_nodes,
            elapsed: start.elapsed(),
            cancelled,
            reorders: result.reorders,
            ..msg.report
        },
        won,
        events,
    }
}

/// Lower ranks make better fallback winners when no lane completed.
fn outcome_rank(outcome: Option<Outcome>) -> u8 {
    match outcome {
        Some(Outcome::FixedPoint) => 0,
        Some(Outcome::IterationLimit) => 1,
        Some(Outcome::TimeOut | Outcome::MemOut) => 2,
        Some(Outcome::Error) => 3,
        None => 4,
    }
}

/// Races `lanes` on `net`: every engine × ordering lane
/// encodes the netlist in its own worker thread with its own private
/// [`BddManager`](bfvr_bdd::BddManager) — under `order` unless the lane
/// carries an override ([`Lane::with_order`]) — and the first lane to
/// reach the fixed point cancels the rest through the managers'
/// cooperative deadline poll.
///
/// The returned [`RaceReport`] carries a [`LaneReport`] per lane and
/// names the winner among them (reached-state count, iterations, peak
/// nodes — but not the reached set itself). Reached-state counts are
/// deterministic: every lane converges to the same unique least fixed
/// point, so whichever lane wins, the count matches a sequential run
/// bit for bit.
///
/// `jobs` caps the worker threads: at most this many lanes run at once
/// (`0` means one thread per lane). Lanes beyond the cap queue and start
/// as threads free up; queued lanes are skipped outright once a winner
/// has been declared.
#[must_use]
pub fn run_racing(
    lanes: &[Lane],
    net: &Netlist,
    order: OrderHeuristic,
    opts: &ReachOptions,
    jobs: usize,
) -> RaceReport {
    let start = Instant::now();
    let n = lanes.len();
    let jobs = if jobs == 0 { n } else { jobs.min(n) };
    let lane_opts = LaneOpts::of(opts);
    let cancel = Arc::new(AtomicBool::new(false));
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<LaneMessage>();
    let mut messages: Vec<Option<LaneMessage>> = Vec::new();
    messages.resize_with(n, || None);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let cancel = Arc::clone(&cancel);
            let next = &next;
            scope.spawn(move || {
                // Work-stealing loop: each thread pulls the next unstarted
                // lane until the queue is drained, so `jobs` caps
                // concurrency without dedicating a thread per engine.
                loop {
                    let lane = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&spec) = lanes.get(lane) else {
                        return;
                    };
                    let msg = race_lane(lane, spec, net, order, lane_opts, &cancel);
                    if tx.send(msg).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);
        for msg in rx {
            let lane = msg.lane;
            messages[lane] = Some(msg);
        }
    });
    // Winner: the lane that won the swap; otherwise the best-ranked
    // partial result (best outcome, then most iterations, then lowest
    // lane index).
    let winner = messages
        .iter()
        .enumerate()
        .filter_map(|(i, m)| m.as_ref().map(|m| (i, m)))
        .min_by_key(|(i, m)| {
            (
                !m.won,
                outcome_rank(m.report.outcome),
                std::cmp::Reverse(m.report.iterations),
                *i,
            )
        })
        .map(|(i, _)| i);
    let mut reports = Vec::with_capacity(n);
    for (i, slot) in messages.into_iter().enumerate() {
        // Every spawned lane sends exactly one message, so the slot is
        // always populated; guard anyway so a panicked lane degrades to
        // a skipped report instead of poisoning the race.
        let mut msg = slot.unwrap_or_else(|| LaneMessage::skipped(i, lanes[i], order));
        // Merge the lane's stream into the driver's trace, tagged with
        // its lane index, then synthesize the race-level events: one
        // `winner`, and one `cancel` per lane the race stopped (or
        // skipped) rather than its own budget.
        if let Some(trace) = &opts.trace {
            let mut t = trace.borrow_mut();
            t.ingest(i as u64, std::mem::take(&mut msg.events));
            if msg.report.cancelled {
                t.cancel(msg.report.engine.label());
            }
            if winner == Some(i) {
                t.winner(msg.report.engine.label());
            }
        }
        reports.push(msg.report);
    }
    RaceReport {
        winner,
        lanes: reports,
        elapsed: start.elapsed(),
    }
}
