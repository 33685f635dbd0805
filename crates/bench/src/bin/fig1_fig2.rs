//! Regenerates the comparison between the paper's **Figure 1** flow
//! (Coudert–Berthet–Madre: characteristic functions + conversions) and
//! **Figure 2** flow (pure Boolean functional vectors): per-iteration
//! traversal cost with the representation-conversion time isolated.
//!
//! ```sh
//! cargo run --release -p bfvr-bench --bin fig1_fig2 [circuit]
//! ```

use bfvr_netlist::{generators, Netlist};
use bfvr_obs::{EventKind, IterRecord, Tracer};
use bfvr_reach::telemetry::trace_handle;
use bfvr_reach::{run, EngineKind, ReachOptions, ReachResult};
use bfvr_sim::{EncodedFsm, OrderHeuristic};

/// Runs `engine` on `net` with a stride-1 trace: the result plus one
/// record per growing iteration.
fn traced(
    engine: EngineKind,
    net: &Netlist,
) -> Result<(ReachResult, Vec<IterRecord>), Box<dyn std::error::Error>> {
    let (mut m, fsm) = EncodedFsm::encode(net, OrderHeuristic::DfsFanin)?;
    let trace = trace_handle(Tracer::collector(1));
    let opts = ReachOptions {
        trace: Some(trace.clone()),
        ..Default::default()
    };
    let r = run(engine, &mut m, &fsm, &opts);
    let events = trace.borrow_mut().drain();
    let iters = events
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::Iter(rec) => Some(rec),
            _ => None,
        })
        .collect();
    Ok((r, iters))
}

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

    let (fig1, fig1_iters) = traced(EngineKind::Cbm, &net)?;
    report("Figure 1 flow (CBM, χ + conversions)   ", &fig1);

    let (fig2, fig2_iters) = traced(EngineKind::Bfv, &net)?;
    report("Figure 2 flow (BFV, conversion-free)   ", &fig2);

    assert_eq!(
        fig1.reached_states, fig2.reached_states,
        "the two flows must compute the same reachable set"
    );
    println!();
    println!("per-iteration trace (Figure 1 flow): states / reached-χ nodes / conv ms");
    for rec in &fig1_iters {
        println!(
            "  iter {:3}: {:>10.0} states  {:>7} nodes  {:>7.2} ms conv",
            rec.iteration,
            rec.states.unwrap_or(f64::NAN),
            rec.reached_nodes,
            rec.ops.get("convert").unwrap_or(0.0) / 1e3
        );
    }
    println!();
    println!("per-iteration trace (Figure 2 flow): reached-BFV shared nodes");
    for rec in &fig2_iters {
        println!(
            "  iter {:3}: {:>7} nodes  (no conversions)",
            rec.iteration, rec.reached_nodes
        );
    }
    Ok(())
}
