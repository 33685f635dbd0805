//! Regenerates the comparison between the paper's **Figure 1** flow
//! (Coudert–Berthet–Madre: characteristic functions + conversions) and
//! **Figure 2** flow (pure Boolean functional vectors): per-iteration
//! traversal cost with the representation-conversion time isolated.
//!
//! ```sh
//! cargo run --release -p bfvr-bench --bin fig1_fig2 [circuit]
//! ```

use bfvr_netlist::generators;
use bfvr_reach::{run, EngineKind, ReachOptions, ReachResult};
use bfvr_sim::{EncodedFsm, OrderHeuristic};

fn report(label: &str, r: &ReachResult) {
    println!(
        "{label}: {} in {:.1} ms over {} iterations, {:.1} ms ({:.0}%) in conversions, peak {} nodes",
        r.outcome.label(),
        r.elapsed.as_secs_f64() * 1e3,
        r.iterations,
        r.conversion_time.as_secs_f64() * 1e3,
        100.0 * r.conversion_time.as_secs_f64() / r.elapsed.as_secs_f64().max(1e-9),
        r.peak_nodes,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let which = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "queue4".to_string());
    let suite = generators::standard_suite();
    let net = suite
        .iter()
        .find(|(name, _)| *name == which)
        .map(|(_, n)| n.clone())
        .ok_or_else(|| format!("unknown circuit `{which}`"))?;
    println!("circuit {which}: {}", net.stats());
    println!();

    let opts = ReachOptions {
        record_iterations: true,
        ..Default::default()
    };

    let (mut m1, fsm1) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin)?;
    let fig1 = run(EngineKind::Cbm, &mut m1, &fsm1, &opts);
    report("Figure 1 flow (CBM, χ + conversions)   ", &fig1);

    let (mut m2, fsm2) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin)?;
    let fig2 = run(EngineKind::Bfv, &mut m2, &fsm2, &opts);
    report("Figure 2 flow (BFV, conversion-free)   ", &fig2);

    assert_eq!(
        fig1.reached_states, fig2.reached_states,
        "the two flows must compute the same reachable set"
    );
    println!();
    println!("per-iteration trace (Figure 1 flow): states / reached-χ nodes / conv ms");
    for (i, s) in fig1.per_iteration.iter().enumerate() {
        println!(
            "  iter {:3}: {:>10.0} states  {:>7} nodes  {:>7.2} ms conv",
            i + 1,
            s.reached_states,
            s.reached_nodes,
            s.conversion.as_secs_f64() * 1e3
        );
    }
    println!();
    println!("per-iteration trace (Figure 2 flow): reached-BFV shared nodes");
    for (i, s) in fig2.per_iteration.iter().enumerate() {
        println!(
            "  iter {:3}: {:>7} nodes  (no conversions)",
            i + 1,
            s.reached_nodes
        );
    }
    Ok(())
}
