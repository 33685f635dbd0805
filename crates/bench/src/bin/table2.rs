//! Regenerates the paper's **Table 2**: reachability analysis across the
//! benchmark suite and fixed variable orders, comparing the
//! characteristic-function baseline (IWLS95 partitioned transition
//! relations — the paper's "VIS-IWLS" column) with the Boolean functional
//! vector engine, reporting run time, peak BDD nodes and the
//! `T.O.`/`M.O.` outcomes.
//!
//! The peak column is the manager's arena high-water mark
//! (`BddManager::peak_nodes`), not a count of live nodes: it includes
//! garbage the per-iteration collection has not yet swept, and that
//! collection is deferred while the arena is below
//! `BddManager::GC_DEFER_FLOOR` nodes (or half the node limit). A run
//! whose live graph stays small therefore reports roughly the floor.
//!
//! ```sh
//! cargo run --release -p bfvr-bench --bin table2 \
//!     [--quick] [--all-engines] [--samples N] [--order TOKEN]
//!     [--sift] [--trace-out FILE] [--trace-sample N]
//! ```
//!
//! `--order` restricts the sweep to one fixed order instead of the
//! default S1/S2/D/O row set; it takes the same tokens as
//! `bfvr reach --order` (`s1`, `decl`, `d`, `coi`, `force`,
//! `o:<seed>`), so the structural orders from `bfvr-nlint` can be
//! benchmarked against the paper's columns.
//!
//! `--sift` arms dynamic variable reordering in every cell (same
//! semantics as `bfvr reach --sift`): the fixed orders become starting
//! points the χ engines may escape mid-run, while the BFV column keeps
//! its static order — the representation is tied to it — so the table
//! then contrasts "dynamic χ" against "static BFV" the way the
//! dynamic-reordering literature frames the comparison.
//!
//! Completed cells are re-run `--samples` times (default 3) after an
//! untimed warm-up and report the median; `T.O.`/`M.O.` cells run once —
//! their timing is the budget itself.
//!
//! With `--trace-out FILE`, every cell's warm-up run is traced into one
//! JSONL telemetry stream (one `run` span per circuit × order cell;
//! render with `bfvr report FILE`). The timed sample runs stay untraced,
//! so the table's medians are never polluted by telemetry.
//! `--trace-sample N` records every n-th iteration (default 1): on
//! iteration-heavy cells the per-iteration record costs O(reached-set
//! nodes) to read while the iteration itself can be O(frontier), so a
//! stride is what keeps whole-binary tracing overhead negligible (see
//! `EXPERIMENTS.md` for the measurement).

use bfvr_bench::timing::samples_from_args;
use bfvr_bench::{cell_limits, format_cell, run_cell_sampled_traced, table_orders};
use bfvr_netlist::generators;
use bfvr_obs::{Counters, JsonlSink, SpanKind, Tracer};
use bfvr_reach::telemetry::trace_handle;
use bfvr_reach::EngineKind;
use bfvr_sim::OrderHeuristic;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let all_engines = args.iter().any(|a| a == "--all-engines");
    let samples = match samples_from_args(&args) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let orders: Vec<OrderHeuristic> = match args.iter().position(|a| a == "--order") {
        None => table_orders(),
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some(tok) => match OrderHeuristic::parse_token(tok) {
                Some(o) => vec![o],
                None => {
                    eprintln!("error: unknown order `{tok}`");
                    std::process::exit(2);
                }
            },
            None => {
                eprintln!("error: --order needs a token (s1|decl|d|coi|force|o:<seed>)");
                std::process::exit(2);
            }
        },
    };
    let stride: u64 = match args.iter().position(|a| a == "--trace-sample") {
        None => 1,
        Some(i) => match args.get(i + 1).and_then(|s| s.parse().ok()) {
            Some(n) if n >= 1 => n,
            _ => {
                eprintln!("error: --trace-sample needs a positive integer");
                std::process::exit(2);
            }
        },
    };
    let trace = args
        .iter()
        .position(|a| a == "--trace-out")
        .map(|i| match args.get(i + 1) {
            Some(path) => match std::fs::File::create(path) {
                Ok(f) => {
                    let sink = JsonlSink::new(std::io::BufWriter::new(f));
                    let mut t = Tracer::with_sampling(Box::new(sink), stride);
                    t.meta(&format!("table2{}", if quick { " --quick" } else { "" }));
                    trace_handle(t)
                }
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    std::process::exit(2);
                }
            },
            None => {
                eprintln!("error: --trace-out needs a file");
                std::process::exit(2);
            }
        });
    let (secs, nodes) = if quick { (5, 400_000) } else { (60, 4_000_000) };
    let mut opts = cell_limits(secs, nodes);
    opts.sift = args.iter().any(|a| a == "--sift");
    let engines: Vec<EngineKind> = if all_engines {
        EngineKind::all().to_vec()
    } else {
        vec![EngineKind::Iwls95, EngineKind::Bfv]
    };
    let mut suite = generators::standard_suite();
    let suite: Vec<_> = if quick {
        suite
            .into_iter()
            .filter(|(n, _)| !matches!(n.as_str(), "gray8" | "cnt12"))
            .collect()
    } else {
        // The full run adds larger instances where the two representations
        // part ways, reproducing the paper's asymmetric T.O./M.O. cells.
        suite.extend([
            ("pair16".to_string(), generators::paired_registers(16)),
            ("pair22".to_string(), generators::paired_registers(22)),
            ("queue5".to_string(), generators::queue_controller(5)),
            ("johnson24".to_string(), generators::johnson(24)),
            ("lfsr12".to_string(), generators::lfsr(12)),
            ("gray10".to_string(), generators::gray(10)),
        ]);
        suite
    };

    println!(
        "Table 2: reachability with fixed variable orders (limits: {}s / {} nodes per cell)",
        secs, nodes
    );
    if opts.sift {
        println!("Dynamic sifting armed: χ cells may reorder mid-run; BFV cells stay static.");
    }
    println!("Each engine cell: time(s)  peak(K nodes); T.O. = timeout, M.O. = node limit.");
    println!("Completed cells: median of {samples} sample(s) after warm-up.");
    println!();
    print!("| {:10} | {:5} |", "circuit", "order");
    for e in &engines {
        print!(" {:^17} |", e.label());
    }
    println!(" {:>9} |", "states");
    print!("|{:-<12}|{:-<7}|", "", "");
    for _ in &engines {
        print!("{:-<19}|", "");
    }
    println!("{:-<11}|", "");
    for (name, net) in &suite {
        for &order in &orders {
            print!("| {:10} | {:5} |", name, order.label());
            let cell_span = trace.as_ref().map(|t| {
                t.borrow_mut().open_span(
                    SpanKind::Run,
                    &format!("{name}/{}", order.label()),
                    Counters::new(),
                )
            });
            let mut states: Option<f64> = None;
            for &engine in &engines {
                let r = run_cell_sampled_traced(net, order, engine, &opts, samples, trace.clone());
                print!(" {:>17} |", format_cell(&r));
                if r.outcome == bfvr_reach::Outcome::FixedPoint {
                    if let (Some(prev), Some(cur)) = (states, r.reached_states) {
                        assert_eq!(prev, cur, "{name}/{}: engines disagree", order.label());
                    }
                    states = states.or(r.reached_states);
                }
            }
            if let (Some(t), Some(id)) = (&trace, cell_span) {
                t.borrow_mut().close_span(id, &Counters::new());
            }
            println!(" {:>9} |", states.map_or("-".into(), |s| format!("{s}")));
        }
    }
    if let Some(t) = &trace {
        t.borrow_mut().finish();
    }
    println!();
    println!("(Substitute suite for the paper's ISCAS89 circuits; see DESIGN.md §3.)");
}
