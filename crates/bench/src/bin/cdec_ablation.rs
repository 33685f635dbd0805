//! Regenerates the §2.7 comparison: the Figure 2 traversal with sets
//! stored as Boolean functional vectors versus McMillan's conjunctive
//! decomposition, isolating the correspondence-conversion overhead and
//! comparing BDD operation counts.
//!
//! ```sh
//! cargo run --release -p bfvr-bench --bin cdec_ablation [--samples N]
//! ```

use bfvr_bench::timing::{median_run, samples_from_args};
use bfvr_netlist::generators;
use bfvr_reach::{run, EngineKind, ReachOptions};
use bfvr_sim::{EncodedFsm, OrderHeuristic};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let samples = samples_from_args(&args)?;
    println!("§2.7 ablation: BFV engine vs conjunctive-decomposition engine");
    println!("(median of {samples} sample(s) per cell after warm-up)");
    println!();
    println!(
        "| circuit    | BFV ms | BFV mk-calls | CDEC ms | CDEC mk-calls | conv ms | same set |"
    );
    println!(
        "|------------|--------|--------------|---------|---------------|---------|----------|"
    );
    for (name, net) in generators::standard_suite() {
        if matches!(name.as_str(), "gray8" | "cnt12" | "lfsr10") {
            continue; // deep fix-points dominate; the shallow suite shows the overhead
        }
        // Each sample re-encodes in a fresh manager so runs are
        // independent; the median-elapsed run is reported.
        let ((a, a_mk), _) = median_run(samples, || {
            let (mut m, fsm) =
                EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).expect("suite encodes");
            let mk0 = m.stats().mk_calls;
            let r = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
            let mk = m.stats().mk_calls - mk0;
            let elapsed = r.elapsed;
            ((r, mk), elapsed)
        });
        let ((b, b_mk), _) = median_run(samples, || {
            let (mut m, fsm) =
                EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).expect("suite encodes");
            let mk0 = m.stats().mk_calls;
            let r = run(EngineKind::Cdec, &mut m, &fsm, &ReachOptions::default());
            let mk = m.stats().mk_calls - mk0;
            let elapsed = r.elapsed;
            ((r, mk), elapsed)
        });
        println!(
            "| {:10} | {:>6.1} | {:>12} | {:>7.1} | {:>13} | {:>7.1} | {:>8} |",
            name,
            a.elapsed.as_secs_f64() * 1e3,
            a_mk,
            b.elapsed.as_secs_f64() * 1e3,
            b_mk,
            b.conversion_time.as_secs_f64() * 1e3,
            if a.reached_states == b.reached_states {
                "yes"
            } else {
                "NO"
            },
        );
        assert_eq!(
            a.reached_states, b.reached_states,
            "{name}: engines disagree"
        );
    }
    println!();
    println!("The constraint view performs the same per-component work (paper §2.7:");
    println!("\"in essence performing the same operations\"); the conv column is the");
    println!("price of moving between the two views each iteration.");
    Ok(())
}
