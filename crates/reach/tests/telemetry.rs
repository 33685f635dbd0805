//! Integration tests for the `bfvr-obs` wiring: the non-perturbation
//! contract, sampling, counter deltas, span nesting, JSONL round-trips,
//! and the race/fault-injection event semantics documented
//! in `docs/observability.md`.

use std::cell::RefCell;
use std::rc::Rc;

use bfvr_bdd::{FaultPlan, Func};
use bfvr_netlist::generators;
use bfvr_obs::{Event, EventKind, JsonlSink, LimitKind, SpanKind, Tracer};
use bfvr_reach::portfolio::{run_racing, Lane};
use bfvr_reach::telemetry::trace_handle;
use bfvr_reach::{resume, run, EngineKind, Outcome, ReachOptions, ReachResult, TraceHandle};
use bfvr_sim::{EncodedFsm, OrderHeuristic};

const ORDER: OrderHeuristic = OrderHeuristic::DfsFanin;

/// Runs one engine on a fresh manager with a collector trace attached,
/// returning the result and the drained event stream.
fn traced_run(
    net: &bfvr_netlist::Netlist,
    engine: EngineKind,
    base: &ReachOptions,
    stride: u64,
) -> (ReachResult, Vec<Event>) {
    let (mut m, fsm) = EncodedFsm::encode(net, ORDER).unwrap();
    let trace = trace_handle(Tracer::collector(stride));
    let mut opts = base.clone();
    opts.trace = Some(trace.clone());
    let r = run(engine, &mut m, &fsm, &opts);
    let events = trace.borrow_mut().drain();
    (r, events)
}

fn iter_events(events: &[Event]) -> Vec<&bfvr_obs::IterRecord> {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Iter(r) => Some(r),
            _ => None,
        })
        .collect()
}

/// Attaching a trace must not change what the engine computes or how
/// it computes it: for every engine, a traced run ends with the same
/// outcome, iterations, reached-state bits, peak, reached-set handle and
/// manager counters (node creations, collections, per-cache lookups and
/// hits) as an untraced one. A tracer that allocated a node or touched a
/// computed cache would move them. (The audit observer path
/// deliberately perturbs; tracing must never.)
#[test]
fn tracing_does_not_perturb_the_run() {
    let net = generators::counter(6);
    for engine in EngineKind::all() {
        let run_with = |trace: Option<TraceHandle>| {
            let (mut m, fsm) = EncodedFsm::encode(&net, ORDER).unwrap();
            let opts = ReachOptions {
                trace,
                ..ReachOptions::default()
            };
            let r = run(engine, &mut m, &fsm, &opts);
            (r, m.stats(), m.cache_stats())
        };
        let (plain, plain_stats, plain_caches) = run_with(None);
        let trace = trace_handle(Tracer::collector(1));
        let (traced, traced_stats, traced_caches) = run_with(Some(trace.clone()));

        assert_eq!(plain.outcome, traced.outcome, "{engine:?}");
        assert_eq!(plain.iterations, traced.iterations, "{engine:?}");
        assert_eq!(
            plain.reached_states.map(f64::to_bits),
            traced.reached_states.map(f64::to_bits),
            "{engine:?}: tracing changed the reached-state count"
        );
        assert_eq!(plain.peak_nodes, traced.peak_nodes, "{engine:?}: peak");
        // Same operations in fresh managers: the same handle.
        let chi = |r: &ReachResult| r.reached_chi.as_ref().map(Func::bdd);
        assert!(chi(&plain).is_some(), "{engine:?}");
        assert_eq!(chi(&plain), chi(&traced), "{engine:?}: reached χ");
        assert_eq!(plain_stats, traced_stats, "{engine:?}: manager counters");
        assert_eq!(plain_caches, traced_caches, "{engine:?}: cache counters");
        // One record per iteration *boundary*: the final iteration that
        // discovers the fixed point adds no state and posts no record.
        let events = trace.borrow_mut().drain();
        assert_eq!(
            iter_events(&events).len(),
            plain.iterations - 1,
            "{engine:?}: one iter event per growing iteration"
        );
    }
}

/// The per-iteration record survives a resume. Every engine is stopped
/// by the iteration cap at k and resumed on the same trace: the records
/// are numbered 1..n with no gap or repeat, and carry the reached and
/// frontier sizes of an uninterrupted run.
#[test]
fn iteration_records_survive_resume() {
    let sizes = |iters: &[&bfvr_obs::IterRecord]| -> Vec<(u64, u64)> {
        iters
            .iter()
            .map(|r| (r.reached_nodes, r.frontier_nodes))
            .collect()
    };
    let nets = [
        ("counter6", generators::counter(6)),
        ("queue3", generators::queue_controller(3)),
    ];
    for (name, net) in &nets {
        for engine in EngineKind::all() {
            let (full, events) = traced_run(net, engine, &ReachOptions::default(), 1);
            assert_eq!(full.outcome, Outcome::FixedPoint, "{name} {engine:?}");
            let want = sizes(&iter_events(&events));
            let n = want.len();
            assert!(n >= 4, "{name}: too shallow to stop midway");
            for k in [1, n / 2, n] {
                let what = format!("{name} {engine:?} stopped at {k}");
                let (mut m, fsm) = EncodedFsm::encode(net, ORDER).unwrap();
                let trace = trace_handle(Tracer::collector(1));
                let capped = ReachOptions {
                    trace: Some(trace.clone()),
                    max_iterations: Some(k),
                    ..ReachOptions::default()
                };
                let stopped = run(engine, &mut m, &fsm, &capped);
                assert_eq!(stopped.outcome, Outcome::IterationLimit, "{what}");
                let checkpoint = stopped.checkpoint.expect("a capped run checkpoints");
                let opts = ReachOptions {
                    trace: Some(trace.clone()),
                    ..ReachOptions::default()
                };
                let resumed = resume(&mut m, &fsm, &opts, checkpoint);
                assert_eq!(resumed.outcome, Outcome::FixedPoint, "{what}");
                assert_eq!(resumed.iterations, full.iterations, "{what}");

                let events = trace.borrow_mut().drain();
                let iters = iter_events(&events);
                let numbers: Vec<u64> = iters.iter().map(|r| r.iteration).collect();
                assert_eq!(numbers, (1..=n as u64).collect::<Vec<_>>(), "{what}");
                assert_eq!(sizes(&iters), want, "{what}");
            }
        }
    }
}

/// `--trace-sample N` records iteration 1 and every N-th iteration;
/// stride 1 records each iteration exactly once.
#[test]
fn sampling_stride_records_first_and_every_nth() {
    let net = generators::counter(6);
    let base = ReachOptions::default();
    // Stride 1 establishes the full set of recorded boundaries...
    let (r1, events1) = traced_run(&net, EngineKind::Bfv, &base, 1);
    let got1: Vec<u64> = iter_events(&events1).iter().map(|r| r.iteration).collect();
    let n = got1.len() as u64;
    assert!(n >= 16, "circuit too small to exercise the stride");
    assert_eq!(got1, (1..=n).collect::<Vec<_>>());
    assert_eq!(r1.outcome, Outcome::FixedPoint);

    // ...and stride 4 records exactly the first plus every fourth.
    let (_, events4) = traced_run(&net, EngineKind::Bfv, &base, 4);
    let got4: Vec<u64> = iter_events(&events4).iter().map(|r| r.iteration).collect();
    let want4: Vec<u64> = (1..=n).filter(|&i| i == 1 || i % 4 == 0).collect();
    assert_eq!(got4, want4);
}

/// Counter snapshots are cumulative and survive garbage collections:
/// monotone counters keep rising across a forced-GC run, the per-span
/// delta reflects the whole traversal, and the GC the observer forces
/// is visible in the `gc_runs` counter.
#[test]
fn counter_deltas_stay_coherent_under_gc() {
    let net = generators::counter(6);
    // An observer (even a no-op) makes notify_iteration force a full
    // collection per iteration — the perturbing path tracing must ride
    // along with, not trigger.
    let base = ReachOptions {
        observer: Some(Rc::new(|_m, _fsm, _view| {})),
        ..ReachOptions::default()
    };
    let (r, events) = traced_run(&net, EngineKind::Iwls95, &base, 1);
    assert_eq!(r.outcome, Outcome::FixedPoint);

    let iters = iter_events(&events);
    assert!(iters.len() >= 16);
    let mut prev_mk = -1.0;
    for rec in &iters {
        let mk = rec.snapshot.get("mk_calls").expect("mk_calls snapshotted");
        assert!(
            mk >= prev_mk,
            "cumulative mk_calls regressed at iter {}",
            rec.iteration
        );
        prev_mk = mk;
        assert!(rec.snapshot.get("cache.ite.lookups").is_some());
    }
    // The forced collections of earlier iterations show up in later
    // cumulative snapshots.
    let last = iters.last().unwrap();
    assert!(
        last.snapshot.get("gc_runs").unwrap() >= (iters.len() - 2) as f64,
        "observer-forced GCs missing from the counter registry"
    );
    // The engine span's delta covers the whole traversal.
    let delta = events
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::SpanClose {
                kind: SpanKind::Engine,
                delta,
                ..
            } => Some(delta),
            _ => None,
        })
        .expect("engine span closes");
    // The delta is relative to the span open (which already includes the
    // encode-phase mk_calls), so only its sign and the GC count are
    // deterministic claims.
    assert!(delta.get("mk_calls").unwrap() > 0.0);
    assert!(delta.get("gc_runs").unwrap() >= (iters.len() - 1) as f64);
}

/// Engine spans nest under a caller-opened run span, and the stream
/// closes inside-out.
#[test]
fn spans_nest_run_over_engine() {
    let net = generators::counter(4);
    let (mut m, fsm) = EncodedFsm::encode(&net, ORDER).unwrap();
    let trace = trace_handle(Tracer::collector(1));
    let run_id = trace
        .borrow_mut()
        .open_span(SpanKind::Run, "counter4", bfvr_obs::Counters::new());
    let opts = ReachOptions {
        trace: Some(trace.clone()),
        ..ReachOptions::default()
    };
    let _ = run(EngineKind::Bfv, &mut m, &fsm, &opts);
    trace
        .borrow_mut()
        .close_span(run_id, &bfvr_obs::Counters::new());
    assert_eq!(trace.borrow().open_spans(), 0);

    let events = trace.borrow_mut().drain();
    let run_span = events
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::SpanOpen {
                id,
                kind: SpanKind::Run,
                ..
            } => Some(*id),
            _ => None,
        })
        .expect("run span opened");
    let (engine_id, parent) = events
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::SpanOpen {
                id,
                parent,
                kind: SpanKind::Engine,
                ..
            } => Some((*id, *parent)),
            _ => None,
        })
        .expect("engine span opened");
    assert_eq!(parent, Some(run_span), "engine nests under run");
    let close_order: Vec<u64> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::SpanClose { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(close_order, vec![engine_id, run_span]);
}

/// A shared in-memory buffer standing in for the trace file.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A real traced run serialized through `JsonlSink` parses back with
/// `parse_jsonl` and re-encodes byte-identically.
#[test]
fn jsonl_stream_from_a_real_run_round_trips() {
    let net = generators::counter(5);
    let buf = SharedBuf::default();
    let (mut m, fsm) = EncodedFsm::encode(&net, ORDER).unwrap();
    let mut t = Tracer::with_sampling(Box::new(JsonlSink::new(buf.clone())), 1);
    t.meta("telemetry round-trip test");
    let trace = trace_handle(t);
    let opts = ReachOptions {
        trace: Some(trace.clone()),
        ..ReachOptions::default()
    };
    let r = run(EngineKind::Cbm, &mut m, &fsm, &opts);
    assert_eq!(r.outcome, Outcome::FixedPoint);
    trace.borrow_mut().finish();

    let text = String::from_utf8(buf.0.borrow().clone()).unwrap();
    let events = bfvr_obs::parse_jsonl(&text).expect("stream validates");
    assert!(matches!(events[0].kind, EventKind::Meta { .. }));
    assert!(events.iter().any(|e| matches!(e.kind, EventKind::Iter(_))));
    let reencoded: String = events.iter().map(|e| e.encode() + "\n").collect();
    assert_eq!(reencoded, text, "encode → parse → encode is the identity");
}

/// A completed race emits exactly one `winner` and one `cancel` per
/// losing lane, with lane events tagged and driver verdicts untagged.
/// `jobs = 1` makes the outcome deterministic: the first lane finishes,
/// every queued lane is skipped (= cancelled).
#[test]
fn raced_trace_has_one_winner_and_cancels_the_rest() {
    let net = generators::queue_controller(4);
    let lanes = Lane::all_lanes();
    let trace = trace_handle(Tracer::collector(8));
    let opts = ReachOptions {
        trace: Some(trace.clone()),
        ..ReachOptions::default()
    };
    let report = run_racing(&lanes, &net, &opts, 1);
    assert!(report.result.is_some());

    let events = trace.borrow_mut().drain();
    let winners: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Winner { .. }))
        .collect();
    let cancels: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Cancel { .. }))
        .collect();
    assert_eq!(winners.len(), 1, "exactly one winner");
    assert_eq!(cancels.len(), lanes.len() - 1, "N-1 cancels");
    // Driver verdicts ride the main stream; engine activity is lane-tagged.
    assert!(winners[0].lane.is_none() && cancels.iter().all(|e| e.lane.is_none()));
    assert!(events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Iter(_) | EventKind::EngineEnd { .. }))
        .all(|e| e.lane.is_some()));
    // The merged stream is re-stamped dense.
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64);
    }
}

/// An injected fault takes the real exhaustion path, so the trace shows
/// the same `limit` event a genuine `M.O.`/`T.O.` would — there is no
/// "injected" marker, by design.
#[test]
fn fault_injected_limits_surface_as_limit_events() {
    let net = generators::counter(5);
    for (plan, want_kind, want_outcome) in [
        (
            FaultPlan::node_limit_at(150),
            LimitKind::NodeLimit,
            Outcome::MemOut,
        ),
        (
            FaultPlan::deadline_at(3),
            LimitKind::Deadline,
            Outcome::TimeOut,
        ),
    ] {
        let (mut m, fsm) = EncodedFsm::encode(&net, ORDER).unwrap();
        m.set_fault_plan(plan);
        let trace = trace_handle(Tracer::collector(1));
        let opts = ReachOptions {
            trace: Some(trace.clone()),
            ..ReachOptions::default()
        };
        let r = run(EngineKind::Bfv, &mut m, &fsm, &opts);
        assert_eq!(r.outcome, want_outcome);

        let events = trace.borrow_mut().drain();
        let (kind, iterations) = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Limit {
                    kind, iterations, ..
                } => Some((*kind, *iterations)),
                _ => None,
            })
            .expect("fault surfaces as a limit event");
        assert_eq!(kind, want_kind);
        assert_eq!(iterations, r.iterations as u64);
        // The engine_end mirror carries the matching outcome label.
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            EventKind::EngineEnd { outcome, .. } if outcome == r.outcome.label()
        )));
    }
}
