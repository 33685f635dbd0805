//! The host-speed probe every time metric is scaled by.
//!
//! On a shared host the same binary runs up to twice as slow from one
//! minute to the next, for minutes at a time: other tenants contend for
//! memory bandwidth, caches and page zeroing. Medians over passes cannot
//! remove a slowdown that lasts the whole run. So before every timed pass
//! the benchmark also times a fixed probe that pays the same two costs a
//! BDD cell pays: faulting in fresh pages (every cell allocates a new
//! manager) and random reads and writes across a table far larger than
//! the caches (unique-table, computed-cache and node accesses). Each time
//! metric is reported as measured × [`REFERENCE_MS`] ÷ the median probe
//! time of the run: the time the run would have taken on the host in a
//! quiet minute. The probe is this package's own code, so a change to
//! the program under test cannot move it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The probe's time in a quiet minute on the host the baseline was taken
/// on (`README.md`): the speed every time metric is reported at.
pub const REFERENCE_MS: f64 = 80.0;

/// Table size: 64 MiB, well past any last-level cache.
const SLOTS: usize = 1 << 23;

/// Read-modify-writes per probe (about 80 ms in a quiet minute).
const STEPS: u64 = 1 << 21;

/// Runs the probe once: allocate a fresh zeroed table, then update
/// pseudo-random slots. Page faults happen inside the timed loop.
#[must_use]
pub fn probe() -> Duration {
    let t = Instant::now();
    let mut table = vec![0u64; SLOTS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..STEPS {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (SLOTS - 1);
        table[slot] = table[slot].wrapping_mul(31).wrapping_add(i);
    }
    black_box(&table);
    t.elapsed()
}
