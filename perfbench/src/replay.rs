//! Per-layer timing from outside the program.
//!
//! [`replay_cell`] re-enacts the shared fixed-point driver of
//! `bfvr-reach` (`driver.rs`) step for step, calling each layer's public
//! functions itself and timing every call: the same operations in the
//! same order, the same pins and collection roots, the same sift trigger.
//! The engines themselves carry no timers beyond `image`/`union`, so this
//! is what splits an image into compose, re-parameterization and rename.
//! The replay must reproduce `run`'s iterations, state count, reorder
//! count and peak node count ([`Replayed`]), which keeps the layer
//! numbers tied to the program they describe.

use std::time::{Duration, Instant};

use bfvr_bdd::{Bdd, BddManager, SiftConfig, Var, SIFT_SIZE_FLOOR};
use bfvr_bfv::reparam::{reparameterize_with, Schedule};
use bfvr_bfv::{Bfv, BfvError, Space};
use bfvr_reach::backends::{BfvBackend, ChiBackend};
use bfvr_reach::{EngineKind, ReachOptions, SetRepr};
use bfvr_sim::EncodedFsm;

/// The computed caches reported per operation, in the order of
/// [`BddManager::cache_stats`].
pub const CACHE_OPS: [&str; 6] = [
    "ite",
    "exists",
    "and_exists",
    "constrain",
    "restrict",
    "subst",
];

/// Per-layer time and counters, summed over the cells of one pass
/// (the byte gauges keep the largest cell's value).
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `bfvr-netlist`: `.bench` parsing.
    pub parse: Duration,
    /// `bfvr-sim`: `EncodedFsm::encode`.
    pub encode: Duration,
    /// `SetRepr::prepare` plus the initial set.
    pub prepare: Duration,
    /// Whole image steps.
    pub image: Duration,
    /// BFV image: `vector_compose` of every latch.
    pub compose: Duration,
    /// BFV image: `reparameterize_with` (§2.6).
    pub reparam: Duration,
    /// BFV image: `swap_vars` renaming next-state back to current.
    pub rename: Duration,
    /// Driver-level union (`bfv::ops::union` §2.3, or χ disjunction).
    pub union: Duration,
    /// `maybe_collect_garbage`.
    pub gc: Duration,
    /// `BddManager::sift`.
    pub sift: Duration,
    /// Final conversion to χ and the state count.
    pub final_count: Duration,
    /// The fixed-point loop as a whole (union-share denominator).
    pub fixed_point: Duration,
    /// Wall clock of the replays (prepare, loop, final) of the pass.
    pub wall: Duration,
    /// Image iterations.
    pub iterations: u64,
    /// Growing iterations that iterated from the image (the frontier)
    /// rather than the whole reached set.
    pub frontier_steps: u64,
    /// Growing iterations.
    pub growing_steps: u64,
    /// Garbage collections (`ManagerStats::gc_runs`).
    pub gc_runs: u64,
    /// Nodes the collections reclaimed.
    pub gc_reclaimed: u64,
    /// Sift passes.
    pub sift_passes: u64,
    /// Adjacent-level swaps across all sift passes.
    pub sift_swaps: u64,
    /// Live nodes removed by sifting (before − after, summed).
    pub sift_live_cut: u64,
    /// Node creations, unique-table hits included.
    pub mk_calls: u64,
    /// `(lookups, hits)` per [`CACHE_OPS`] entry.
    pub cache: [(u64, u64); 6],
    /// Largest computed-cache residency at a fixed point, in bytes.
    pub cache_bytes: usize,
    /// Largest unique-table residency at a fixed point, in bytes.
    pub unique_bytes: usize,
    /// Unique-table entries at the fixed points, summed.
    pub unique_entries: usize,
    /// Unique-table slots at the fixed points, summed.
    pub unique_slots: usize,
}

/// What the replay computed — compared against `run`'s result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Replayed {
    /// Image iterations.
    pub iterations: usize,
    /// Reached-state count.
    pub reached_states: Option<f64>,
    /// Sift passes the trigger fired.
    pub reorders: usize,
    /// Peak allocated nodes over the fixed point, which every
    /// operation, pin and collection moves.
    pub peak_nodes: usize,
}

/// Replays one cell on a freshly encoded manager, adding its layer times
/// and counters to `layers`.
///
/// # Errors
///
/// A resource limit tripped (no workload cell is expected to trip one).
///
/// # Panics
///
/// On an engine no workload runs.
pub fn replay_cell(
    engine: EngineKind,
    m: &mut BddManager,
    fsm: &EncodedFsm,
    opts: &ReachOptions,
    layers: &mut Layers,
) -> Result<Replayed, BfvError> {
    let start = Instant::now();
    let r = match engine {
        EngineKind::Bfv => {
            let mut image = BfvImage::new(m, fsm, opts.schedule);
            fixed_point(
                &mut BfvBackend::new(fsm, opts.schedule),
                m,
                fsm,
                opts,
                layers,
                |_, m, from, l| image.step(m, fsm, from, l),
            )
        }
        EngineKind::Iwls95 => fixed_point(
            &mut ChiBackend::iwls95(fsm, opts.cluster_threshold),
            m,
            fsm,
            opts,
            layers,
            |b, m, from, _| b.image(m, from),
        ),
        EngineKind::Monolithic => fixed_point(
            &mut ChiBackend::monolithic(fsm),
            m,
            fsm,
            opts,
            layers,
            |b, m, from, _| b.image(m, from),
        ),
        other => panic!("no workload runs the {} engine", other.label()),
    };
    layers.wall += start.elapsed();
    r
}

/// The driver's loop, with a timer around every layer call.
fn fixed_point<B: SetRepr>(
    b: &mut B,
    m: &mut BddManager,
    fsm: &EncodedFsm,
    opts: &ReachOptions,
    l: &mut Layers,
    mut image: impl FnMut(&mut B, &mut BddManager, &B::Set, &mut Layers) -> Result<B::Set, BfvError>,
) -> Result<Replayed, BfvError> {
    // Limits armed exactly as the driver arms them: the node limit also
    // caps the collector's deferral floor, so it changes when GC runs.
    if let Some(n) = opts.node_limit {
        m.set_node_limit(n);
    }
    if let Some(c) = opts.cache_limit {
        m.set_cache_limit(c);
    }
    m.set_deadline(opts.time_limit.map(|d| Instant::now() + d));
    m.reset_peak_nodes();
    let sift_enabled = opts.sift && b.supports_reorder();
    let mut sift_baseline = m.allocated().max(1);
    let mut reorders = 0usize;

    let t = Instant::now();
    b.prepare(m)?;
    let init = b.initial(m)?;
    l.prepare += t.elapsed();
    let (mut reached, mut from) = (init.clone(), init);
    let mut _state_guards = (b.pin(m, &reached), b.pin(m, &from));
    let mut iterations = 0usize;

    let loop_start = Instant::now();
    loop {
        m.check_deadline()?;
        let t = Instant::now();
        let img = image(b, m, &from, l)?;
        l.image += t.elapsed();
        let _img_guard = b.pin(m, &img);
        let t = Instant::now();
        let new_reached = b.union(m, &reached, &img)?;
        l.union += t.elapsed();
        iterations += 1;
        if b.set_eq(m, &new_reached, &reached) {
            break;
        }
        reached = new_reached;
        l.growing_steps += 1;
        from = if opts.use_frontier && b.size(m, &img) <= b.size(m, &reached) {
            l.frontier_steps += 1;
            img
        } else {
            reached.clone()
        };
        _state_guards = (b.pin(m, &reached), b.pin(m, &from));
        let mut roots = Vec::new();
        b.append_roots(&reached, &mut roots);
        b.append_roots(&from, &mut roots);
        b.persistent_roots(&mut roots);
        let t = Instant::now();
        let gc = m.maybe_collect_garbage(&roots);
        l.gc += t.elapsed();
        if sift_enabled
            && gc.live >= SIFT_SIZE_FLOOR
            && gc.live as f64 >= sift_baseline as f64 * opts.sift_trigger.max(1.0)
        {
            let saved_limit = m.node_limit();
            let saved_deadline = m.deadline();
            m.clear_node_limit();
            m.set_deadline(None);
            let t = Instant::now();
            let s = m.sift(
                &roots,
                &SiftConfig {
                    max_growth: opts.sift_max_growth,
                    converge: false,
                },
            );
            l.sift += t.elapsed();
            if let Some(n) = saved_limit {
                m.set_node_limit(n);
            }
            m.set_deadline(saved_deadline);
            reorders += 1;
            l.sift_passes += u64::from(s.passes);
            l.sift_swaps += s.swaps;
            l.sift_live_cut += s.before.saturating_sub(s.after) as u64;
            sift_baseline = s.after.max(1);
        }
        b.end_of_iteration(&reached, &from);
    }
    l.fixed_point += loop_start.elapsed();
    l.iterations += iterations as u64;
    let unique = m.unique_stats();
    l.unique_entries += unique.entries;
    l.unique_slots += unique.slots;
    l.unique_bytes = l.unique_bytes.max(unique.bytes);
    l.cache_bytes = l.cache_bytes.max(m.stats().cache_bytes);
    let peak_nodes = m.peak_nodes();
    m.clear_node_limit();
    m.set_deadline(None);

    let t = Instant::now();
    let chi = b.to_chi(m, &reached).ok();
    let reached_states = b
        .count_states(m, &reached)
        .or_else(|| chi.map(|c| count_states(m, fsm, c)));
    l.final_count += t.elapsed();

    let stats = m.stats();
    l.mk_calls += stats.mk_calls;
    l.gc_runs += stats.gc_runs;
    l.gc_reclaimed += stats.gc_reclaimed;
    for c in m.cache_stats() {
        if let Some(i) = CACHE_OPS.iter().position(|&n| n == c.name) {
            l.cache[i].0 += c.lookups;
            l.cache[i].1 += c.hits;
        }
    }
    Ok(Replayed {
        iterations,
        reached_states,
        reorders,
        peak_nodes,
    })
}

/// States of a χ over the current-state variables (the driver's count
/// for representations that cannot count themselves).
fn count_states(m: &BddManager, fsm: &EncodedFsm, chi: Bdd) -> f64 {
    let free = m.num_vars() as i32 - fsm.space().len() as i32;
    m.sat_count(chi, m.num_vars()) / 2f64.powi(free)
}

/// The Figure 2 image step (`bfvr_sim::simulate_image_scratch`) spelled
/// out call by call: compose every next-state function with the from-set's
/// vector, re-parameterize onto the next-state space, rename back.
struct BfvImage {
    space: Space,
    next_space: Space,
    params: Vec<Var>,
    pairs: Vec<(Var, Var)>,
    map: Vec<Option<Bdd>>,
    schedule: Schedule,
}

impl BfvImage {
    fn new(m: &BddManager, fsm: &EncodedFsm, schedule: Schedule) -> Self {
        let space = fsm.space();
        let mut params = space.vars().to_vec();
        params.extend(fsm.input_vars());
        BfvImage {
            space,
            next_space: fsm.next_space(),
            params,
            pairs: fsm.swap_pairs(),
            map: vec![None; m.num_vars() as usize],
            schedule,
        }
    }

    fn step(
        &mut self,
        m: &mut BddManager,
        fsm: &EncodedFsm,
        from: &Bfv,
        l: &mut Layers,
    ) -> Result<Bfv, BfvError> {
        for (c, &var) in self.space.vars().iter().enumerate() {
            self.map[var.0 as usize] = Some(from.component(c));
        }
        let t = Instant::now();
        let composed: Result<Vec<Bdd>, _> = fsm
            .next_fns_in_component_order()
            .into_iter()
            .map(|f| m.vector_compose(f, &self.map))
            .collect();
        l.compose += t.elapsed();
        for &var in self.space.vars() {
            self.map[var.0 as usize] = None;
        }
        let simulated = Bfv::from_components(&self.next_space, composed?)?;
        let t = Instant::now();
        let next =
            reparameterize_with(m, &self.next_space, &simulated, &self.params, self.schedule)?;
        l.reparam += t.elapsed();
        let t = Instant::now();
        let renamed: Result<Vec<Bdd>, _> = next
            .components()
            .iter()
            .map(|&c| m.swap_vars(c, &self.pairs))
            .collect();
        l.rename += t.elapsed();
        Bfv::from_components(&self.space, renamed?)
    }
}
