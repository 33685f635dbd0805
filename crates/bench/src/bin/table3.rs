//! Regenerates the paper's **Table 3**: for the reached state sets of the
//! dependency-rich circuits (the stand-ins for s4863), the size of the
//! characteristic-function BDD versus the shared size of the Boolean
//! functional vector, across variable orders.
//!
//! The χ size is obtained by converting the final BFV — exactly how the
//! paper produced its numbers ("the size of the characteristic function
//! BDD was obtained by converting the Boolean functional vector").
//!
//! ```sh
//! cargo run --release -p bfvr-bench --bin table3
//! ```

use bfvr_bench::table_orders;
use bfvr_bfv::StateSet;
use bfvr_netlist::generators;
use bfvr_reach::{run, EngineKind, Outcome, ReachOptions};
use bfvr_sim::EncodedFsm;

fn main() {
    let circuits = vec![
        ("pair10", generators::paired_registers(10)),
        ("queue4", generators::queue_controller(4)),
        ("johnson16", generators::johnson(16)),
        ("rot16", generators::rotator(16)),
    ];
    println!("Table 3: BDD size of χ(reached) vs shared BFV size of the reached set");
    println!();
    println!("| circuit    | order | χ nodes | BFV nodes | ratio |");
    println!("|------------|-------|---------|-----------|-------|");
    for (name, net) in &circuits {
        for order in table_orders() {
            let (mut m, fsm) = EncodedFsm::encode(net, order).expect("suite circuits encode");
            let r = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
            assert_eq!(r.outcome, Outcome::FixedPoint, "{name} did not complete");
            let chi = r.reached_chi.expect("completed runs produce χ").bdd();
            let chi_nodes = m.size(chi);
            // Rebuild the canonical vector from χ to measure its size (it
            // equals the engine's final representation, by canonicity).
            let space = fsm.space();
            let set = StateSet::from_characteristic(&mut m, &space, chi)
                .expect("conversion fits in memory");
            let bfv_nodes = set.as_bfv().expect("non-empty").shared_size(&m);
            println!(
                "| {:10} | {:5} | {:7} | {:9} | {:5.1} |",
                name,
                order.label(),
                chi_nodes,
                bfv_nodes,
                chi_nodes as f64 / bfv_nodes as f64
            );
        }
    }
    println!();
    println!("The BFV stays compact where χ must encode cross-register dependencies");
    println!("(paper Table 3 showed the same shape for s4863).");
}
