//! # bfvr-perfbench — one benchmark for the whole reachability stack
//!
//! The `suite` binary runs one [`workloads`] entry for a fixed number of
//! seconds and prints its metrics; see `README.md` for the workloads, the
//! metrics, and how to read them. This library holds everything the
//! binary and the smoke test share:
//!
//! | piece | item |
//! |---|---|
//! | workload definitions and the expected-count oracle | [`workloads`] |
//! | one untraced pass (`bfvr_reach::run` per cell) | [`run_pass`] |
//! | one traced pass (the driver replayed from outside) | [`replay_pass`], [`replay`] |
//! | the host-speed probe time metrics are scaled by | [`host`] |
//! | the five end-to-end metrics | [`end_to_end`] |
//! | the per-layer metrics | [`per_layer`] |
//! | the result line | [`result_line`] |
//!
//! The benchmark drives the crates only through their public functions;
//! every cell runs in a fresh `BddManager`, on one thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod replay;
pub mod workloads;

use std::time::{Duration, Instant};

use bfvr_bdd::BddManager;
use bfvr_netlist::bench::parse_named;
use bfvr_reach::Outcome;
use bfvr_sim::EncodedFsm;

use replay::{replay_cell, Layers, Replayed, CACHE_OPS};
use workloads::{Cell, Workload};

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// One untraced `bfvr_reach::run` of one cell.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// Parse plus encode.
    pub setup: Duration,
    /// Wall clock of the `run` call: prepare, fixed point, final count.
    pub run: Duration,
    /// `ReachResult::peak_nodes`.
    pub peak_nodes: usize,
    /// `ReachResult::iterations`.
    pub iterations: usize,
    /// `ReachResult::reorders`.
    pub reorders: usize,
    /// `ReachResult::reached_states`.
    pub states: Option<f64>,
    /// `ReachResult::outcome`.
    pub outcome: Outcome,
}

impl CellRun {
    /// Reached the fixed point with the oracle's count.
    #[must_use]
    pub fn solved(&self, cell: &Cell) -> bool {
        self.outcome == Outcome::FixedPoint && self.states == Some(cell.expected)
    }

    /// Reached a fixed point with a count the oracle rejects.
    #[must_use]
    pub fn wrong(&self, cell: &Cell) -> bool {
        self.outcome == Outcome::FixedPoint && !self.solved(cell)
    }
}

/// Parses and encodes one cell: the benchmark's set-up.
fn set_up(cell: &Cell) -> Result<(BddManager, EncodedFsm, Duration, Duration), String> {
    let t = Instant::now();
    let net =
        parse_named(&cell.bench, cell.circuit).map_err(|e| format!("{}: {e}", cell.circuit))?;
    let parse = t.elapsed();
    let t = Instant::now();
    let (m, fsm) =
        EncodedFsm::encode(&net, cell.order).map_err(|e| format!("{}: {e}", cell.circuit))?;
    Ok((m, fsm, parse, t.elapsed()))
}

/// The order cells run in during pass `pass`: a seeded shuffle, so no
/// cell always inherits the same allocator state.
#[must_use]
pub fn pass_order(cells: usize, seed: u64, pass: u64) -> Vec<usize> {
    // splitmix64
    let mut state = seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..cells).collect();
    for i in (1..cells).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Runs every cell once, in `order`, through `bfvr_reach::run`. Results
/// come back indexed like `cells`.
///
/// # Errors
///
/// A cell whose `.bench` text fails to parse or encode.
pub fn run_pass(w: &Workload, cells: &[Cell], order: &[usize]) -> Result<Vec<CellRun>, String> {
    let opts = w.options();
    let mut runs: Vec<Option<CellRun>> = vec![None; cells.len()];
    for &i in order {
        let (mut m, fsm, parse, encode) = set_up(&cells[i])?;
        let t = Instant::now();
        let r = bfvr_reach::run(w.engine, &mut m, &fsm, &opts);
        let run = t.elapsed();
        runs[i] = Some(CellRun {
            setup: parse + encode,
            run,
            peak_nodes: r.peak_nodes,
            iterations: r.iterations,
            reorders: r.reorders,
            states: r.reached_states,
            outcome: r.outcome,
        });
    }
    runs.into_iter()
        .enumerate()
        .map(|(i, r)| r.ok_or_else(|| format!("cell {i} missing from the pass order")))
        .collect()
}

/// Replays every cell once, in `order`, timing each layer, and checks
/// replay parity against `reference` (an untraced pass of the same
/// cells): iterations, state count, reorders and peak nodes must all
/// match.
///
/// # Errors
///
/// A set-up failure, or the first cell whose replay disagrees with
/// `run` — the layer numbers would describe another program.
pub fn replay_pass(
    w: &Workload,
    cells: &[Cell],
    order: &[usize],
    reference: &[CellRun],
) -> Result<Layers, String> {
    let opts = w.options();
    let mut layers = Layers::default();
    for &i in order {
        let cell = &cells[i];
        let (mut m, fsm, parse, encode) = set_up(cell)?;
        layers.parse += parse;
        layers.encode += encode;
        let replayed = replay_cell(w.engine, &mut m, &fsm, &opts, &mut layers).map_err(|e| {
            format!(
                "{}/{}: replay failed: {e}",
                cell.circuit,
                cell.order.label()
            )
        })?;
        let r = &reference[i];
        let want = Replayed {
            iterations: r.iterations,
            reached_states: r.states,
            reorders: r.reorders,
            peak_nodes: r.peak_nodes,
        };
        if replayed != want {
            return Err(format!(
                "{}/{}: replay parity broken: replay {replayed:?}, run {want:?}",
                cell.circuit,
                cell.order.label()
            ));
        }
    }
    Ok(layers)
}

/// The median (mean of the middle two for an even count); 0 when empty.
#[must_use]
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Raw wall clock of one pass's `run` calls.
#[must_use]
pub fn pass_seconds(pass: &[CellRun]) -> f64 {
    pass.iter().map(|r| r.run.as_secs_f64()).sum()
}

/// The factor that scales a time measured in a run whose median probe
/// took `probe_ms` to the reference host speed (see [`host`]).
fn host_scale(probe_ms: f64) -> f64 {
    ratio(host::REFERENCE_MS, probe_ms)
}

/// The end-to-end metrics over the timed passes (tracing off); times
/// are scaled to the reference host speed by the run's median probe
/// time `probe_ms`.
///
/// The two per-pass sums, `pass_s` and `setup_s`, add up each cell's
/// median over the passes: the typical pass, assembled cell by cell, so
/// a host hiccup that slows one cell of one pass moves neither.
#[must_use]
pub fn end_to_end(cells: &[Cell], passes: &[Vec<CellRun>], probe_ms: f64) -> Vec<Metric> {
    let scale = host_scale(probe_ms);
    let per_cell = |f: &dyn Fn(&CellRun) -> f64| -> Vec<f64> {
        (0..cells.len())
            .map(|i| median(passes.iter().map(|p| f(&p[i])).collect()))
            .collect()
    };
    let attempted = passes.len() * cells.len();
    let solved = passes
        .iter()
        .flat_map(|p| p.iter().zip(cells).filter(|(r, c)| r.solved(c)))
        .count();
    let run_s = per_cell(&|r| r.run.as_secs_f64() * scale);
    vec![
        metric("pass_s", run_s.iter().sum(), "s"),
        metric(
            "cell_ms_geomean",
            geomean(run_s.iter().map(|s| s * 1e3)),
            "ms",
        ),
        metric(
            "peak_nodes_geomean",
            geomean(per_cell(&|r| r.peak_nodes as f64).into_iter()),
            "nodes",
        ),
        metric(
            "solved_frac",
            ratio(solved as f64, attempted as f64),
            "ratio",
        ),
        metric(
            "setup_s",
            per_cell(&|r| r.setup.as_secs_f64() * scale).iter().sum(),
            "s",
        ),
    ]
}

/// One traced pass's per-layer metrics; `untraced` is the paired
/// untraced pass, the base of `trace.overhead_frac`.
fn layer_metrics(l: &Layers, untraced: &[CellRun], scale: f64) -> Vec<Metric> {
    let ms = |d: Duration| d.as_secs_f64() * 1e3 * scale;
    let image = ms(l.image);
    let mut out = vec![
        metric("bfv.reparam_ms", ms(l.reparam), "ms"),
        metric("bfv.reparam_share", ratio(ms(l.reparam), image), "ratio"),
        metric("reach.union_ms", ms(l.union), "ms"),
        metric(
            "reach.union_share",
            ratio(ms(l.union), ms(l.fixed_point)),
            "ratio",
        ),
        metric("sim.compose_ms", ms(l.compose), "ms"),
        metric("sim.compose_share", ratio(ms(l.compose), image), "ratio"),
        metric("sim.rename_ms", ms(l.rename), "ms"),
        metric("reach.image_ms", image, "ms"),
        metric("reach.prepare_ms", ms(l.prepare), "ms"),
        metric("reach.iterations", l.iterations as f64, "count"),
        metric(
            "reach.frontier_frac",
            ratio(l.frontier_steps as f64, l.growing_steps as f64),
            "ratio",
        ),
        metric("reach.gc_ms", ms(l.gc), "ms"),
        metric("reach.gc_runs", l.gc_runs as f64, "count"),
        metric("reach.gc_reclaimed", l.gc_reclaimed as f64, "nodes"),
        metric("reach.final_ms", ms(l.final_count), "ms"),
        metric("bdd.sift_ms", ms(l.sift), "ms"),
        metric("bdd.sift.passes", l.sift_passes as f64, "count"),
        metric("bdd.sift.swaps", l.sift_swaps as f64, "count"),
        metric("bdd.sift.live_cut", l.sift_live_cut as f64, "nodes"),
        metric("bdd.mk_calls", l.mk_calls as f64, "count"),
    ];
    for (op, &(lookups, hits)) in CACHE_OPS.iter().zip(&l.cache) {
        out.push(metric(
            format!("bdd.cache.{op}.lookups"),
            lookups as f64,
            "count",
        ));
        out.push(metric(
            format!("bdd.cache.{op}.hit_rate"),
            ratio(hits as f64, lookups as f64),
            "ratio",
        ));
    }
    out.extend([
        metric("bdd.cache_bytes", l.cache_bytes as f64, "bytes"),
        metric("bdd.unique_bytes", l.unique_bytes as f64, "bytes"),
        metric(
            "bdd.unique_load",
            ratio(l.unique_entries as f64, l.unique_slots as f64),
            "ratio",
        ),
        metric("netlist.parse_ms", ms(l.parse), "ms"),
        metric("sim.encode_ms", ms(l.encode), "ms"),
        metric(
            "trace.overhead_frac",
            ratio(l.wall.as_secs_f64(), pass_seconds(untraced)) - 1.0,
            "ratio",
        ),
    ]);
    out
}

/// The per-layer metrics: each metric's median over the traced passes,
/// each traced pass paired with the untraced pass run just before it.
/// Times are scaled like [`end_to_end`]'s; `host.probe_ms` reports the
/// probe median itself, so raw times can be recovered.
#[must_use]
pub fn per_layer(traced: &[(Layers, Vec<CellRun>)], probe_ms: f64) -> Vec<Metric> {
    let scale = host_scale(probe_ms);
    let each: Vec<Vec<Metric>> = traced
        .iter()
        .map(|(l, u)| layer_metrics(l, u, scale))
        .collect();
    let Some(first) = each.first() else {
        return Vec::new();
    };
    let mut out: Vec<Metric> = first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            metric(
                m.name.clone(),
                median(each.iter().map(|p| p[i].value).collect()),
                m.unit,
            )
        })
        .collect();
    out.push(metric("host.probe_ms", probe_ms, "ms"));
    out
}

/// The result line: one JSON object, printed last.
#[must_use]
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; no metric should produce one.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let a = pass_order(40, 7, 1);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<_>>());
        assert_eq!(a, pass_order(40, 7, 1));
        assert_ne!(a, pass_order(40, 7, 2));
        assert_ne!(a, pass_order(40, 8, 1));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[metric("pass_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"pass_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
