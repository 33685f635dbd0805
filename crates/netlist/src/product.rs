//! Product machines and miters for sequential equivalence checking.

use crate::model::{GateKind, Netlist, NetlistBuilder};
use crate::Result;

/// Builds the synchronous product of two machines driven by *shared*
/// primary inputs, with one XNOR **miter** output per output pair
/// (`1` = the outputs agree this cycle).
///
/// The two machines must have the same number of inputs (matched
/// positionally) and the same number of outputs. Internal signals are
/// prefixed `l$`/`r$` to avoid collisions; inputs keep `a`'s names.
///
/// Together with the reachability engines this gives sequential
/// equivalence checking: the machines are equivalent from their reset
/// states iff every miter output is 1 on every reachable state under
/// every input.
///
/// ```
/// use bfvr_netlist::{generators, product};
///
/// # fn main() -> Result<(), bfvr_netlist::NetlistError> {
/// let a = generators::counter(4);
/// let b = generators::counter(4);
/// let p = product::product_miter(&a, &b)?;
/// assert_eq!(p.latches().len(), 8);
/// assert_eq!(p.outputs().len(), 1); // one miter per output pair
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns a [`crate::NetlistError`] if the interfaces do not match or a
/// netlist is malformed.
pub fn product_miter(a: &Netlist, b: &Netlist) -> Result<Netlist> {
    if a.inputs().len() != b.inputs().len() {
        return Err(crate::NetlistError::Parse {
            line: 0,
            message: format!(
                "input count mismatch: {} vs {}",
                a.inputs().len(),
                b.inputs().len()
            ),
        });
    }
    if a.outputs().len() != b.outputs().len() {
        return Err(crate::NetlistError::Parse {
            line: 0,
            message: format!(
                "output count mismatch: {} vs {}",
                a.outputs().len(),
                b.outputs().len()
            ),
        });
    }
    let mut builder = NetlistBuilder::new(format!("{}_x_{}", a.name(), b.name()));
    // Shared inputs, named after `a`'s.
    let input_names: Vec<String> = a
        .inputs()
        .iter()
        .map(|&s| a.signal_name(s).to_string())
        .collect();
    for name in &input_names {
        builder.input(name)?;
    }
    copy_side(&mut builder, a, "l$", &input_names)?;
    copy_side(&mut builder, b, "r$", &input_names)?;
    for (i, (&oa, &ob)) in a.outputs().iter().zip(b.outputs()).enumerate() {
        let la = format!("l${}", a.signal_name(oa));
        let rb = format!("r${}", b.signal_name(ob));
        let miter = format!("eq{i}");
        builder.gate(&miter, GateKind::Xnor, &[la.as_str(), rb.as_str()])?;
        builder.output(&miter);
    }
    builder.finish()
}

/// Copies one machine into the product under a signal prefix, mapping its
/// primary inputs to the shared ones.
fn copy_side(
    builder: &mut NetlistBuilder,
    net: &Netlist,
    prefix: &str,
    shared_inputs: &[String],
) -> Result<()> {
    let rename = |net: &Netlist, s: crate::SignalId| -> String {
        if let Some(pos) = net.inputs().iter().position(|&i| i == s) {
            shared_inputs[pos].clone()
        } else {
            format!("{prefix}{}", net.signal_name(s))
        }
    };
    for l in net.latches() {
        builder.latch(rename(net, l.output), rename(net, l.input), l.init)?;
    }
    for g in net.gates() {
        let ins: Vec<String> = g.inputs.iter().map(|&s| rename(net, s)).collect();
        let refs: Vec<&str> = ins.iter().map(String::as_str).collect();
        builder.gate(rename(net, g.output), g.kind.clone(), &refs)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn product_shape() {
        let a = generators::counter(3);
        let b = generators::counter(3);
        let p = product_miter(&a, &b).unwrap();
        assert_eq!(p.inputs().len(), 1);
        assert_eq!(p.latches().len(), 6);
        assert_eq!(p.outputs().len(), 1);
        assert_eq!(p.name(), "cnt3_x_cnt3");
    }

    #[test]
    fn identical_machines_always_agree() {
        let a = generators::johnson(4);
        let b = generators::johnson(4);
        let p = product_miter(&a, &b).unwrap();
        // Simulate a while, 64 input streams at once: the miter must
        // stay 1 on every lane.
        let reset = p.initial_state();
        let mut state: Vec<u64> = reset.iter().map(|&b| if b { !0 } else { 0 }).collect();
        let mut rng = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..100 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let (next, outs) = p.step_words(&state, &[rng]).unwrap();
            assert_eq!(outs[0], !0, "miter dropped on identical machines");
            state = next;
        }
    }

    #[test]
    fn interface_mismatch_rejected() {
        let a = generators::counter(3); // 1 input
        let b = generators::queue_controller(2); // 2 inputs
        assert!(product_miter(&a, &b).is_err());
    }

    #[test]
    fn different_machines_can_disagree() {
        // A counter vs a Gray counter share the interface (1 input,
        // 1 output) but differ behaviourally.
        let a = generators::counter(3);
        let b = generators::gray(3);
        let p = product_miter(&a, &b).unwrap();
        let mut state: Vec<u64> = p.initial_state().iter().map(|&b| u64::from(b)).collect();
        let mut disagreed = false;
        for _ in 0..16 {
            let (next, outs) = p.step_words(&state, &[1]).unwrap();
            if outs[0] & 1 == 0 {
                disagreed = true;
            }
            state = next;
        }
        assert!(disagreed, "expected the outputs to diverge somewhere");
    }
}
