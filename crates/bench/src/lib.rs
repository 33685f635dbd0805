//! # bfvr-bench — the paper's evaluation, regenerated
//!
//! Shared plumbing for the table/figure binaries and timing benches.
//! Each artifact of the paper's evaluation section maps to one binary
//! (see `DESIGN.md` §4):
//!
//! | paper artifact | binary |
//! |---|---|
//! | Table 1 (set encodings) | `table1` |
//! | Figures 1 vs 2 (flow comparison) | `fig1_fig2` |
//! | Table 2 (reachability, engines × orders) | `table2` |
//! | Table 3 (χ vs BFV sizes of reached sets) | `table3` |
//! | §3 ordering example | `ordering_study` (plus `examples/ordering_study.rs`) |
//! | §2.7 correspondence cost | `cdec_ablation` |
//! | §3 quantification schedule | `schedule_ablation` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::time::Duration;

use bfvr_netlist::Netlist;
use bfvr_reach::{run, EngineKind, ReachOptions, ReachResult};
use bfvr_sim::{EncodedFsm, OrderHeuristic};

/// The variable orders of the Table 2 reproduction, labeled like the
/// paper's columns.
#[must_use]
pub fn table_orders() -> Vec<OrderHeuristic> {
    vec![
        OrderHeuristic::DfsFanin,
        OrderHeuristic::Declaration,
        OrderHeuristic::Reversed,
        OrderHeuristic::Random(17),
    ]
}

/// Runs one engine on one circuit under one order in a fresh manager.
///
/// # Panics
///
/// Panics if the circuit cannot be encoded (generator circuits always can).
#[must_use]
// The suite only feeds bundled, known-good circuits; an encode failure
// here means the suite definition itself is broken.
#[allow(clippy::expect_used)]
pub fn run_cell(
    net: &Netlist,
    order: OrderHeuristic,
    engine: EngineKind,
    opts: &ReachOptions,
) -> ReachResult {
    let (mut m, fsm) = EncodedFsm::encode(net, order).expect("suite circuits encode");
    run(engine, &mut m, &fsm, opts)
}

/// Runs one cell like [`run_cell`], but warmed up and sampled: one
/// untimed warm-up run decides the outcome, and — when it completed —
/// `samples` further timed runs are taken and the median-elapsed result
/// is returned, so table timings stop wobbling with cold caches.
///
/// Resource-limited cells (`T.O.`/`M.O.`) are returned from the warm-up
/// run directly: their outcome is deterministic and their "timing" is the
/// budget itself, so resampling would only multiply the suite's wall
/// clock by the limit.
///
/// # Panics
///
/// Panics if the circuit cannot be encoded (generator circuits always can).
#[must_use]
pub fn run_cell_sampled(
    net: &Netlist,
    order: OrderHeuristic,
    engine: EngineKind,
    opts: &ReachOptions,
    samples: usize,
) -> ReachResult {
    run_cell_sampled_traced(net, order, engine, opts, samples, None)
}

/// Like [`run_cell_sampled`], but the untimed warm-up run carries the
/// telemetry handle (`table2 --trace-out`): the trace captures one full
/// representative traversal per cell, while the timed sample runs stay
/// untraced so telemetry can never contaminate the reported medians.
///
/// # Panics
///
/// Panics if the circuit cannot be encoded (generator circuits always can).
#[must_use]
pub fn run_cell_sampled_traced(
    net: &Netlist,
    order: OrderHeuristic,
    engine: EngineKind,
    opts: &ReachOptions,
    samples: usize,
    trace: Option<bfvr_reach::TraceHandle>,
) -> ReachResult {
    let warmup = if let Some(trace) = trace {
        let mut traced = opts.clone();
        traced.trace = Some(trace);
        run_cell(net, order, engine, &traced)
    } else {
        run_cell(net, order, engine, opts)
    };
    if warmup.outcome != bfvr_reach::Outcome::FixedPoint || samples <= 1 {
        return warmup;
    }
    let mut runs: Vec<ReachResult> = (0..samples)
        .map(|_| run_cell(net, order, engine, opts))
        .collect();
    runs.sort_by_key(|r| r.elapsed);
    runs.swap_remove(runs.len() / 2)
}

/// Default per-cell limits for table runs (scaled-down analogue of the
/// paper's 10 h / 1 GB budget).
#[must_use]
pub fn cell_limits(seconds: u64, nodes: usize) -> ReachOptions {
    ReachOptions {
        time_limit: Some(Duration::from_secs(seconds)),
        node_limit: Some(nodes),
        ..Default::default()
    }
}

/// Formats a result like a Table 2 cell: `time(s)  peak(K)` or the
/// outcome marker.
#[must_use]
pub fn format_cell(r: &ReachResult) -> String {
    match r.outcome {
        bfvr_reach::Outcome::FixedPoint => format!(
            "{:>8.2} {:>8.1}",
            r.elapsed.as_secs_f64(),
            r.peak_nodes as f64 / 1000.0
        ),
        other => format!("{:>8} {:>8}", other.label(), "-"),
    }
}

/// Minimal wall-clock timing harness for the `benches/` binaries.
///
/// The benches are plain `fn main()` programs (`harness = false`), so
/// they build and run without any external benchmarking dependency —
/// the whole workspace stays compilable offline.
pub mod timing {
    use std::time::{Duration, Instant};

    /// Default sample count for the table/ablation binaries.
    pub const DEFAULT_SAMPLES: usize = 3;

    /// Parses a `--samples N` flag (default [`DEFAULT_SAMPLES`]).
    ///
    /// # Errors
    ///
    /// Rejects a missing, unparsable, or zero `N`.
    pub fn samples_from_args(args: &[String]) -> Result<usize, String> {
        let Some(i) = args.iter().position(|a| a == "--samples") else {
            return Ok(DEFAULT_SAMPLES);
        };
        let n: usize = args
            .get(i + 1)
            .ok_or("--samples needs a count")?
            .parse()
            .map_err(|e| format!("bad --samples: {e}"))?;
        if n == 0 {
            return Err("--samples must be at least 1".into());
        }
        Ok(n)
    }

    /// Runs `f` once untimed (warm-up), then `samples` timed runs, and
    /// returns the run with the median duration (its value and the
    /// duration itself). `f` reports its own duration so callers can
    /// time a sub-region instead of the whole call.
    pub fn median_run<T>(samples: usize, mut f: impl FnMut() -> (T, Duration)) -> (T, Duration) {
        drop(f()); // warm-up: populate caches, fault in pages
        let mut runs: Vec<(T, Duration)> = (0..samples.max(1)).map(|_| f()).collect();
        runs.sort_by_key(|&(_, d)| d);
        let mid = runs.len() / 2;
        runs.swap_remove(mid)
    }

    /// Times `samples` runs of `f` (after one untimed warm-up) and
    /// prints a `min / median / mean` row under `label`.
    pub fn bench(label: &str, samples: usize, mut f: impl FnMut()) {
        f(); // warm-up: populate caches, fault in pages
        let mut times: Vec<Duration> = (0..samples.max(1))
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed()
            })
            .collect();
        times.sort();
        let median = times[times.len() / 2];
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        println!(
            "{label:<44} min {:>12?}  median {:>12?}  mean {:>12?}",
            times[0], median, mean
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfvr_netlist::generators;

    #[test]
    fn cell_runner_smoke() {
        let net = generators::rotator(4);
        let r = run_cell(
            &net,
            OrderHeuristic::DfsFanin,
            EngineKind::Bfv,
            &ReachOptions::default(),
        );
        assert_eq!(r.reached_states, Some(4.0));
        assert!(format_cell(&r).contains('.'));
    }

    #[test]
    fn limited_cell_reports_marker() {
        let net = generators::gray(12);
        let r = run_cell(
            &net,
            OrderHeuristic::DfsFanin,
            EngineKind::Bfv,
            &cell_limits(0, usize::MAX),
        );
        assert!(format_cell(&r).contains("T.O."));
    }

    #[test]
    fn sampled_cell_matches_single_run() {
        let net = generators::rotator(4);
        let single = run_cell(
            &net,
            OrderHeuristic::DfsFanin,
            EngineKind::Bfv,
            &ReachOptions::default(),
        );
        let sampled = run_cell_sampled(
            &net,
            OrderHeuristic::DfsFanin,
            EngineKind::Bfv,
            &ReachOptions::default(),
            3,
        );
        assert_eq!(sampled.outcome, single.outcome);
        assert_eq!(sampled.reached_states, single.reached_states);
        assert_eq!(sampled.iterations, single.iterations);
    }

    #[test]
    fn sampled_cell_does_not_resample_exhausted_runs() {
        // A 0-second budget times out; resampling it would multiply the
        // wall clock by the limit, so only the warm-up run happens.
        let net = generators::gray(12);
        let t = std::time::Instant::now();
        let r = run_cell_sampled(
            &net,
            OrderHeuristic::DfsFanin,
            EngineKind::Bfv,
            &cell_limits(0, usize::MAX),
            100,
        );
        assert_eq!(r.outcome, bfvr_reach::Outcome::TimeOut);
        assert!(t.elapsed() < Duration::from_secs(30), "ran only once");
    }

    #[test]
    fn samples_flag_parses_with_default() {
        let none: Vec<String> = vec!["table2".into(), "--quick".into()];
        assert_eq!(
            timing::samples_from_args(&none),
            Ok(timing::DEFAULT_SAMPLES)
        );
        let five: Vec<String> = vec!["--samples".into(), "5".into()];
        assert_eq!(timing::samples_from_args(&five), Ok(5));
        let zero: Vec<String> = vec!["--samples".into(), "0".into()];
        assert!(timing::samples_from_args(&zero).is_err());
        let missing: Vec<String> = vec!["--samples".into()];
        assert!(timing::samples_from_args(&missing).is_err());
    }

    #[test]
    fn median_run_returns_a_sampled_value() {
        let mut calls = 0u32;
        let (value, d) = timing::median_run(3, || {
            calls += 1;
            (calls, Duration::from_millis(u64::from(calls)))
        });
        // One warm-up + three samples; the median sample is returned.
        assert_eq!(calls, 4);
        assert_eq!(value, 3);
        assert_eq!(d, Duration::from_millis(3));
    }

    #[test]
    fn orders_cover_the_papers_spectrum() {
        let labels: Vec<String> = table_orders().iter().map(|o| o.label()).collect();
        assert_eq!(labels, vec!["S1", "S2", "D", "O17"]);
    }
}
