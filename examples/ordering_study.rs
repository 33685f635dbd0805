//! The ordering axis end to end: static orders (declaration — the
//! paper's `S2` — against the structural COI/FORCE orders from
//! `bfvr-nlint` support analysis) crossed with dynamic sifting
//! `{off, sift}` on the order-sensitive monolithic χ engine.
//!
//! Each cell of the static × dynamic matrix runs as **interleaved
//! off/sift pairs** on fresh managers, a drift-proof protocol: both
//! sides of a pair run back-to-back so
//! machine drift cancels in the ratio, every pair asserts identical
//! reached-state and iteration counts (sifting is a graph-shape change,
//! never a semantic one), and the reported time ratio is the median
//! over pairs. Peak live nodes are deterministic, so the peak columns
//! are exact; they are the headline — on the datapath families
//! (`mask*`, `load*`) declaration order scatters the decode cone and
//! one sift pass cuts the peak by well over the 20% acceptance bar,
//! while under a structural order that already keeps supports adjacent
//! the trigger often never fires (0 passes, ±0%): sifting is the
//! escape hatch for a bad static choice, not a tax on a good one.
//!
//! ```sh
//! cargo run --release --example ordering_study
//! ```
//!
//! Measured tables are recorded in `EXPERIMENTS.md` (§ structural
//! static orders, § dynamic sifting) and `BENCH_ordering.json`.

use bfvr::netlist::{generators, Netlist};
use bfvr::reach::{EngineKind, Outcome, ReachOptions, ReachResult};
use bfvr::sim::{EncodedFsm, OrderHeuristic};

const ORDERS: [OrderHeuristic; 4] = [
    OrderHeuristic::Declaration,
    // The paper's D row — deliberately bad, the regime sifting exists for.
    OrderHeuristic::Reversed,
    OrderHeuristic::Coi,
    OrderHeuristic::Force,
];

/// Interleaved off/sift pairs per cell; the time ratio is their median.
const PAIRS: usize = 3;

fn suite() -> Vec<(&'static str, Netlist)> {
    vec![
        // Datapath families: wide pure-input decode cones that
        // declaration order scatters — the sift showcase.
        ("mask10", generators::masked_accumulator(10)),
        ("load12", generators::loadable_register(12)),
        // Coupled-counter control logic; moderate order sensitivity.
        ("queue4", generators::queue_controller(4)),
        // XNOR equality cones (the static-order showcase of PR 8).
        ("pair8", generators::paired_registers(8)),
        // Contrast row: order-friendly one-hot structure.
        ("johnson12", generators::johnson(12)),
    ]
}

fn run(net: &Netlist, h: OrderHeuristic, sift: bool) -> Result<ReachResult, String> {
    let (mut m, fsm) = EncodedFsm::encode(net, h).map_err(|e| e.to_string())?;
    let opts = ReachOptions {
        time_limit: Some(std::time::Duration::from_secs(60)),
        node_limit: Some(4_000_000),
        sift,
        // Fire eagerly: the study's circuits are sized for the sweep,
        // not for the default 2.0 growth multiple of hour-long runs.
        sift_trigger: 1.2,
        ..Default::default()
    };
    Ok(bfvr::reach::run(
        EngineKind::Monolithic,
        &mut m,
        &fsm,
        &opts,
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Monolithic χ engine: static order × dynamic sifting (trigger 1.2)");
    println!("{PAIRS} interleaved off/sift pairs per cell; time ratio = median over pairs");
    println!();
    println!(
        "| circuit    | order | states | passes | peak off | peak sift | Δpeak | sift/off time |"
    );
    println!(
        "|------------|-------|--------|--------|----------|-----------|-------|---------------|"
    );
    for (name, net) in suite() {
        for h in ORDERS {
            let mut ratios = Vec::with_capacity(PAIRS);
            let mut cell: Option<(ReachResult, ReachResult)> = None;
            for _ in 0..PAIRS {
                let off = run(&net, h, false)?;
                let sift = run(&net, h, true)?;
                assert_eq!(off.outcome, Outcome::FixedPoint, "{name}/{h:?} off");
                assert_eq!(sift.outcome, Outcome::FixedPoint, "{name}/{h:?} sift");
                // The drift-proof pair doubles as a differential test.
                assert_eq!(
                    off.reached_states, sift.reached_states,
                    "{name}/{h:?}: sifting changed the reached count"
                );
                assert_eq!(
                    off.iterations, sift.iterations,
                    "{name}/{h:?}: sifting changed the iteration count"
                );
                if let Some((o, s)) = &cell {
                    assert_eq!(
                        o.peak_nodes, off.peak_nodes,
                        "{name}/{h:?}: off peak drifted"
                    );
                    assert_eq!(
                        s.peak_nodes, sift.peak_nodes,
                        "{name}/{h:?}: sift peak drifted"
                    );
                }
                ratios.push(sift.elapsed.as_secs_f64() / off.elapsed.as_secs_f64().max(1e-9));
                cell = Some((off, sift));
            }
            ratios.sort_by(|a, b| a.total_cmp(b));
            let median = ratios[ratios.len() / 2];
            let (off, sift) = cell.ok_or("no pairs ran")?;
            let states = off.reached_states.map_or("-".into(), |s| format!("{s}"));
            let dpeak = 100.0 * (sift.peak_nodes as f64 / off.peak_nodes.max(1) as f64 - 1.0);
            println!(
                "| {:10} | {:5} | {:>6} | {:>6} | {:>8} | {:>9} | {:>4.0}% | {:>12.2}x |",
                name,
                h.label(),
                states,
                sift.reorders,
                off.peak_nodes,
                sift.peak_nodes,
                dpeak,
                median,
            );
        }
    }
    println!();
    println!("Reached-state counts are order- and sift-invariant (asserted per pair;");
    println!("the least fixed point is unique). Only peak/time move. Zero passes");
    println!("means the trigger never fired: the static order kept live nodes under");
    println!("max(2048, 1.2 x baseline), so sifting cost nothing.");
    Ok(())
}
