//! Bridges the engines into the `bfvr-obs` telemetry layer.
//!
//! The contract of everything in this module is **non-perturbation**:
//! only `&self` accessors of [`BddManager`] (and the set
//! representations) are read, so recording a trace never allocates BDD
//! nodes, never runs a garbage collection, and never touches a computed
//! cache. A traced run and an untraced run execute the exact same BDD
//! operations — unlike the `audit` observer path, which deliberately
//! forces a full collection per iteration (see `docs/observability.md`).

use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;

use bfvr_bdd::BddManager;
use bfvr_obs::{Counters, IterRecord, LimitKind, SpanId, SpanKind, Tracer};
use bfvr_sim::EncodedFsm;

use crate::common::{IterMetrics, IterationView, Outcome, ReachOptions, ReachResult};
use crate::{EngineKind, SetView};

/// A shared handle to a [`Tracer`], as carried by
/// [`ReachOptions::trace`](crate::ReachOptions::trace).
///
/// The tracer is single-threaded by design (like [`BddManager`] itself);
/// the `Rc<RefCell<…>>` lets the caller keep a handle for writing
/// meta/run-span events while the engines record iterations through the
/// same stream. Racing lanes do **not** share this handle — each lane
/// runs a private collector tracer and the race driver merges the lane
/// streams afterwards (see [`crate::portfolio::run_racing`]).
pub type TraceHandle = Rc<RefCell<Tracer>>;

/// Wraps a tracer into the handle form [`crate::ReachOptions`] carries.
#[must_use]
pub fn trace_handle(tracer: Tracer) -> TraceHandle {
    Rc::new(RefCell::new(tracer))
}

/// Snapshots the manager's cumulative counters: [`bfvr_bdd::ManagerStats`],
/// unique-table occupancy ([`bfvr_bdd::UniqueTableStats`]) and the
/// per-operation computed caches. Read-only.
#[must_use]
pub fn counters_of(m: &BddManager) -> Counters {
    let s = m.stats();
    let u = m.unique_stats();
    let mut c = Counters::new()
        .with("allocated_nodes", s.allocated_nodes as f64)
        .with("peak_nodes", s.peak_nodes as f64)
        .with("mk_calls", s.mk_calls as f64)
        .with("cache_lookups", s.cache_lookups as f64)
        .with("cache_hits", s.cache_hits as f64)
        .with("gc_runs", s.gc_runs as f64)
        .with("gc_reclaimed", s.gc_reclaimed as f64)
        .with("reclaim_attempts", s.reclaim_attempts as f64)
        .with("reclaimed_nodes", s.reclaimed_nodes as f64)
        .with("cache_bytes", s.cache_bytes as f64)
        .with("unique_bytes", s.unique_bytes as f64)
        .with("unique_entries", u.entries as f64)
        .with("unique_slots", u.slots as f64)
        .with("unique_levels", u.levels as f64)
        .with("unique_occupied_levels", u.occupied_levels as f64);
    for cs in m.cache_stats() {
        // Interned names for the stock caches keep this allocation-free
        // on the per-iteration hot path; an unknown cache (a future
        // addition) falls back to formatting.
        match cache_counter_names(cs.name) {
            Some((lookups, hits, entries)) => {
                c.set(lookups, cs.lookups as f64);
                c.set(hits, cs.hits as f64);
                c.set(entries, cs.entries as f64);
            }
            None => {
                c.set(format!("cache.{}.lookups", cs.name), cs.lookups as f64);
                c.set(format!("cache.{}.hits", cs.name), cs.hits as f64);
                c.set(format!("cache.{}.entries", cs.name), cs.entries as f64);
            }
        }
    }
    c
}

/// `cache.<name>.{lookups,hits,entries}` as `&'static str` triples for
/// the caches [`BddManager`] is known to own.
fn cache_counter_names(name: &str) -> Option<(&'static str, &'static str, &'static str)> {
    Some(match name {
        "ite" => ("cache.ite.lookups", "cache.ite.hits", "cache.ite.entries"),
        "exists" => (
            "cache.exists.lookups",
            "cache.exists.hits",
            "cache.exists.entries",
        ),
        "and_exists" => (
            "cache.and_exists.lookups",
            "cache.and_exists.hits",
            "cache.and_exists.entries",
        ),
        "constrain" => (
            "cache.constrain.lookups",
            "cache.constrain.hits",
            "cache.constrain.entries",
        ),
        "restrict" => (
            "cache.restrict.lookups",
            "cache.restrict.hits",
            "cache.restrict.entries",
        ),
        "cofactor" => (
            "cache.cofactor.lookups",
            "cache.cofactor.hits",
            "cache.cofactor.entries",
        ),
        "subst" => (
            "cache.subst.lookups",
            "cache.subst.hits",
            "cache.subst.entries",
        ),
        "union" => (
            "cache.union.lookups",
            "cache.union.hits",
            "cache.union.entries",
        ),
        "quantify" => (
            "cache.quantify.lookups",
            "cache.quantify.hits",
            "cache.quantify.entries",
        ),
        _ => return None,
    })
}

/// Shared BDD sizes of `(reached, from)` for whatever representation the
/// engine iterates on. Pure graph walks — no allocation.
fn view_sizes(m: &BddManager, set: &SetView<'_>) -> (usize, usize) {
    match set {
        SetView::Chi { reached, from } => (m.size(*reached), m.size(*from)),
        SetView::Vector { reached, from } => (reached.shared_size(m), from.shared_size(m)),
        SetView::Cdec { reached, from } => (reached.shared_size(m), from.shared_size(m)),
    }
}

/// Reached-state count when the representation makes it free to read:
/// χ-based engines only ([`BddManager::sat_count`] is `&self`). The
/// vector/decomposition engines would have to *build* a χ to count —
/// an allocation the engine itself never performs, so telemetry must not
/// either; their traces carry `None` and the count appears once in the
/// final `engine_end` event (computed by the engine's own untimed
/// post-run accounting).
fn view_states(m: &BddManager, fsm: &EncodedFsm, set: &SetView<'_>) -> Option<f64> {
    match set {
        SetView::Chi { reached, .. } => Some(crate::cf::count_states(m, fsm, *reached)),
        SetView::Vector { .. } | SetView::Cdec { .. } => None,
    }
}

/// Builds one iteration's trace record from the engine's measurements
/// plus read-only manager state.
pub(crate) fn iter_record(
    m: &BddManager,
    fsm: &EncodedFsm,
    view: &IterationView<'_>,
    metrics: &IterMetrics<'_>,
) -> IterRecord {
    let (reached_nodes, frontier_nodes) = view_sizes(m, &view.set);
    IterRecord {
        engine: Cow::Borrowed(view.engine.label()),
        iteration: view.iteration as u64,
        dur_us: metrics.elapsed.as_micros() as u64,
        frontier_nodes: frontier_nodes as u64,
        reached_nodes: reached_nodes as u64,
        live_nodes: metrics.gc.live as u64,
        allocated_nodes: m.allocated() as u64,
        peak_nodes: m.peak_nodes() as u64,
        gc_collected: metrics.gc.collected as u64,
        states: view_states(m, fsm, &view.set),
        snapshot: counters_of(m),
        ops: metrics
            .ops
            .iter()
            .map(|&(name, dur)| (Cow::Borrowed(name), dur.as_micros() as f64))
            .collect(),
    }
}

/// Opens the engine span for a dispatched run (no-op without a trace).
pub(crate) fn engine_span_open(
    opts: &ReachOptions,
    m: &BddManager,
    kind: EngineKind,
) -> Option<SpanId> {
    opts.trace.as_ref().map(|t| {
        t.borrow_mut()
            .open_span(SpanKind::Engine, kind.label(), counters_of(m))
    })
}

/// Closes the engine span and records the end-of-traversal summary plus
/// a `limit` event when the run tripped a resource ceiling. A
/// fault-injected `NodeLimit`/`Deadline` takes the same error path as a
/// real exhaustion, so it produces the same `limit` event — by design.
pub(crate) fn engine_span_close(
    opts: &ReachOptions,
    m: &BddManager,
    span: Option<SpanId>,
    r: &ReachResult,
) {
    let Some(trace) = &opts.trace else {
        return;
    };
    let mut t = trace.borrow_mut();
    if let Some(id) = span {
        t.close_span(id, &counters_of(m));
    }
    let lane = r.engine.label();
    t.engine_end(
        lane,
        r.outcome.label(),
        r.iterations as u64,
        r.reached_states,
        r.peak_nodes as u64,
        r.elapsed.as_micros() as u64,
    );
    match r.outcome {
        Outcome::MemOut => t.limit(lane, LimitKind::NodeLimit, r.iterations as u64),
        Outcome::TimeOut => t.limit(lane, LimitKind::Deadline, r.iterations as u64),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_manager_cache_has_interned_counter_names() {
        // `cache_stats` lists every table of the manager's cache registry,
        // the five-operand `union` and `quantify` kernels included.
        let m = BddManager::new(2);
        let names: Vec<&str> = m.cache_stats().iter().map(|cs| cs.name).collect();
        assert!(
            names.contains(&"union") && names.contains(&"quantify"),
            "{names:?}"
        );
        for cs in m.cache_stats() {
            let (lookups, hits, entries) = cache_counter_names(cs.name)
                .unwrap_or_else(|| panic!("cache {:?} has no interned names", cs.name));
            let prefix = format!("cache.{}.", cs.name);
            assert_eq!(lookups, format!("{prefix}lookups"));
            assert_eq!(hits, format!("{prefix}hits"));
            assert_eq!(entries, format!("{prefix}entries"));
        }
    }
}
