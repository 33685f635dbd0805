//! Helpers for the generator tests: single-lane stepping, state masks.

use crate::model::Netlist;

/// Steps a netlist's state once under given inputs, on one lane of
/// [`Netlist::step_words`].
pub(crate) fn step(net: &Netlist, state: &[bool], inputs: &[bool]) -> Vec<bool> {
    let lane = |bits: &[bool]| bits.iter().map(|&b| u64::from(b)).collect::<Vec<_>>();
    let (next, _) = net.step_words(&lane(state), &lane(inputs)).unwrap();
    next.iter().map(|w| w & 1 == 1).collect()
}

/// A state as a bit mask, bit `i` the value of latch `i`.
pub(crate) fn as_u64(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .map(|(i, &b)| u64::from(b) << i)
        .sum()
}
