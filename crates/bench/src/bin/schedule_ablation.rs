//! Regenerates the §3 quantification-schedule ablation: the BFV engine's
//! re-parameterization with the paper's dynamic support-based cost
//! heuristic versus a fixed elimination order.
//!
//! ```sh
//! cargo run --release -p bfvr-bench --bin schedule_ablation [--samples N]
//! ```

use bfvr_bench::timing::{median_run, samples_from_args};
use bfvr_bfv::reparam::Schedule;
use bfvr_netlist::generators;
use bfvr_reach::{run, EngineKind, ReachOptions};
use bfvr_sim::{EncodedFsm, OrderHeuristic};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let samples = samples_from_args(&args)?;
    println!("§3 ablation: dynamic support-based quantification schedule vs fixed order");
    println!("(median of {samples} sample(s) per cell after warm-up)");
    println!();
    println!("| circuit    | dynamic ms | dyn peak | fixed ms | fixed peak | same set |");
    println!("|------------|------------|----------|----------|------------|----------|");
    for (name, net) in generators::standard_suite() {
        if matches!(name.as_str(), "gray8" | "cnt12") {
            continue;
        }
        let mut results = Vec::new();
        for schedule in [Schedule::DynamicSupport, Schedule::Fixed] {
            let (r, _) = median_run(samples, || {
                let (mut m, fsm) =
                    EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).expect("suite encodes");
                let opts = ReachOptions {
                    schedule,
                    ..Default::default()
                };
                let r = run(EngineKind::Bfv, &mut m, &fsm, &opts);
                let elapsed = r.elapsed;
                (r, elapsed)
            });
            results.push(r);
        }
        let (d, f) = (&results[0], &results[1]);
        println!(
            "| {:10} | {:>10.1} | {:>8} | {:>8.1} | {:>10} | {:>8} |",
            name,
            d.elapsed.as_secs_f64() * 1e3,
            d.peak_nodes,
            f.elapsed.as_secs_f64() * 1e3,
            f.peak_nodes,
            if d.reached_states == f.reached_states {
                "yes"
            } else {
                "NO"
            },
        );
        assert_eq!(
            d.reached_states, f.reached_states,
            "{name}: schedules disagree"
        );
    }
    Ok(())
}
