//! Regenerates the paper's §3 ordering claim as a parameter sweep: for
//! `χ = ⋀ᵢ (aᵢ ↔ bᵢ)` the characteristic function needs related variables
//! adjacent (exponential otherwise) while the functional vector is linear
//! under every order. Sweeps the pair count and reports both
//! representations under the friendly and hostile orders, for both the
//! BFV engine and the IWLS95 baseline.
//!
//! ```sh
//! cargo run --release -p bfvr-bench --bin ordering_study
//! ```

use bfvr_netlist::generators;
use bfvr_reach::{run, EngineKind, ReachOptions};
use bfvr_sim::{EncodedFsm, Slot};

fn orders(p: u32) -> [(&'static str, Vec<Slot>); 2] {
    let interleaved: Vec<Slot> = (0..p as usize)
        .flat_map(|i| [Slot::Latch(i), Slot::Latch(p as usize + i)])
        .chain((0..p as usize).map(Slot::Input))
        .collect();
    let separated: Vec<Slot> = (0..2 * p as usize)
        .map(Slot::Latch)
        .chain((0..p as usize).map(Slot::Input))
        .collect();
    [("paired", interleaved), ("split", separated)]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let limits = ReachOptions {
        time_limit: Some(std::time::Duration::from_secs(20)),
        node_limit: Some(2_000_000),
        ..Default::default()
    };
    println!("§3 ordering sweep on the twin-register family");
    println!();
    println!("| pairs | order  | BFV time(ms) | BFV peak | IWLS time(ms) | IWLS peak | χ nodes | BFV nodes |");
    println!("|-------|--------|--------------|----------|---------------|-----------|---------|-----------|");
    for p in [4u32, 6, 8, 10, 12, 14] {
        let net = generators::paired_registers(p);
        for (label, slots) in orders(p) {
            let (mut m1, fsm1) = EncodedFsm::encode_with_slots(&net, &slots)?;
            let b = run(EngineKind::Bfv, &mut m1, &fsm1, &limits);
            let (mut m2, fsm2) = EncodedFsm::encode_with_slots(&net, &slots)?;
            let c = run(EngineKind::Iwls95, &mut m2, &fsm2, &limits);
            let chi_nodes = c
                .reached_chi
                .map(|chi| m2.size(chi.bdd()).to_string())
                .unwrap_or_else(|| c.outcome.label().to_string());
            let bfv_nodes = b
                .representation_nodes
                .map(|n| n.to_string())
                .unwrap_or_else(|| "-".into());
            println!(
                "| {:5} | {:6} | {:>12.1} | {:>8} | {:>13.1} | {:>9} | {:>7} | {:>9} |",
                p,
                label,
                b.elapsed.as_secs_f64() * 1e3,
                b.peak_nodes,
                c.elapsed.as_secs_f64() * 1e3,
                c.peak_nodes,
                chi_nodes,
                bfv_nodes,
            );
        }
    }
    println!();
    println!("Expected shape (paper §3): the split order blows the χ representation");
    println!("up exponentially while the BFV column stays linear in the pair count.");
    Ok(())
}
