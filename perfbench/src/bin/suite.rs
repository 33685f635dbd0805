//! Runs one benchmark workload and prints its metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin suite -- \
//!     --workload <name> [--seed S] [--seconds N] [--trace [0|1]]
//! ```
//!
//! One untimed warm-up pass runs first; timed passes follow until the
//! next one would end past `--seconds` (at least [`MIN_PASSES`]). Every
//! cell of every pass is checked against the expected-count oracle. The
//! last line of standard output is one JSON object: the end-to-end
//! metrics, or with `--trace` the per-layer metrics, each with its unit.
//! With `--trace`, every timed pass is followed by a traced replay of the
//! same cells. The exit code is 1 when a cell reached a wrong count or a
//! replay disagreed with `run`, 2 on a usage or set-up error.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use bfvr_perfbench::workloads::{self, Cell};
use bfvr_perfbench::{
    end_to_end, host, median, pass_order, pass_seconds, per_layer, replay_pass, result_line,
    run_pass, CellRun,
};

/// Fewest timed passes a run takes, however long they last.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut pending = it.next();
    while let Some(flag) = pending.take() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                // `--trace 0|1`, or a bare `--trace`.
                args.trace = true;
                match it.next() {
                    Some(v) if v == "0" => args.trace = false,
                    Some(v) if v == "1" => {}
                    other => pending = other,
                }
                continue;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        pending = it.next();
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: suite --workload <{}> [--seed S] [--seconds N] [--trace [0|1]]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::by_name(&args.workload) else {
        eprintln!(
            "error: unknown workload `{}` (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let cells = match workload.cells() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match measure(&workload, &cells, &args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn measure(w: &workloads::Workload, cells: &[Cell], args: &Args) -> Result<ExitCode, String> {
    let budget = Duration::from_secs(args.seconds);
    let warm_up = run_pass(w, cells, &pass_order(cells.len(), args.seed, 0))?;
    let mut wrong = count_wrong(cells, &warm_up);
    let mut passes: Vec<Vec<CellRun>> = Vec::new();
    let mut probes = Vec::new();
    let mut traced = Vec::new();
    let mut parity_error = None;
    let start = Instant::now();
    for round in 1u64.. {
        let t = Instant::now();
        probes.push(host::probe().as_secs_f64() * 1e3);
        let order = pass_order(cells.len(), args.seed, round);
        let pass = run_pass(w, cells, &order)?;
        wrong += count_wrong(cells, &pass);
        if args.trace && parity_error.is_none() {
            match replay_pass(w, cells, &order, &pass) {
                Ok(layers) => traced.push((layers, pass.clone())),
                Err(e) => parity_error = Some(e),
            }
        }
        passes.push(pass);
        if passes.len() >= MIN_PASSES && start.elapsed() + t.elapsed() > budget {
            break;
        }
    }

    let probe_ms = median(probes);
    print_cells(w, cells, &passes, probe_ms);
    let attempted = passes.len() * cells.len();
    let failed = passes
        .iter()
        .flat_map(|p| p.iter().zip(cells).filter(|(r, c)| !r.solved(c)))
        .count();
    let metrics = if args.trace {
        per_layer(&traced, probe_ms)
    } else {
        end_to_end(cells, &passes, probe_ms)
    };
    if let Some(e) = &parity_error {
        eprintln!("error: {e}");
    }
    let correct = wrong == 0 && parity_error.is_none();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn count_wrong(cells: &[Cell], pass: &[CellRun]) -> usize {
    pass.iter()
        .zip(cells)
        .filter(|(r, c)| {
            let bad = r.wrong(c);
            if bad {
                eprintln!(
                    "error: {}/{} reached {:?} states, expected {}",
                    c.circuit,
                    c.order.label(),
                    r.states,
                    c.expected
                );
            }
            bad
        })
        .count()
}

/// A human-readable per-cell table: medians over the timed passes, in
/// raw wall-clock time (unscaled by the host probe).
fn print_cells(w: &workloads::Workload, cells: &[Cell], passes: &[Vec<CellRun>], probe_ms: f64) {
    println!(
        "workload {} ({} engine{}), {} cells, {} timed passes",
        w.name,
        w.engine.label(),
        if w.sift { ", sift" } else { "" },
        cells.len(),
        passes.len()
    );
    let secs: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", pass_seconds(p)))
        .collect();
    println!("raw pass seconds: {}", secs.join(" "));
    println!(
        "host probe median: {probe_ms:.3} ms (reference {} ms)",
        host::REFERENCE_MS
    );
    println!("| circuit    | order | median ms |  peak nodes |  states | outcome |");
    for (i, c) in cells.iter().enumerate() {
        let ms = median(
            passes
                .iter()
                .map(|p| p[i].run.as_secs_f64() * 1e3)
                .collect(),
        );
        let r = &passes[0][i];
        println!(
            "| {:10} | {:5} | {:>9.3} | {:>11} | {:>7} | {:7} |",
            c.circuit,
            c.order.label(),
            ms,
            r.peak_nodes,
            r.states.map_or("-".into(), |s| s.to_string()),
            r.outcome.label()
        );
    }
}
