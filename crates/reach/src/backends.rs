//! The concrete [`SetRepr`] backends the fixed-point driver runs on.
//!
//! Each backend packages one set representation — the transition
//! structure it needs for image computation and the conversion bridges
//! — behind the [`SetRepr`] trait, so the driver's loop
//! (`driver.rs`) is written once:
//!
//! * [`ChiBackend`] — characteristic functions, in three image flavors
//!   (monolithic relational product, CBM constrain + range-splitting,
//!   IWLS95 partitioned early quantification);
//! * [`BfvBackend`] — the paper's Figure 2 flow on canonical Boolean
//!   functional vectors;
//! * [`CdecBackend`] — Figure 2 over McMillan's conjunctive
//!   decomposition (§2.7), carrying a companion vector for simulation.

use std::time::{Duration, Instant};

use bfvr_bdd::{Bdd, BddManager, Func, Var};
use bfvr_bfv::cdec::CDec;
use bfvr_bfv::reparam::Schedule;
use bfvr_bfv::{convert, ops, Bfv, BfvError, Space, StateSet};
use bfvr_sim::{simulate_image_scratch, EncodedFsm, ImageScratch};

use crate::cf::{count_states, initial_chi};
use crate::{ReprCheckpoint, SetRepr, SetView};

/// Which χ image computation a [`ChiBackend`] runs. Built by
/// [`ChiBackend::prepare`]; the `Func` guards pinning the relations live
/// in the backend.
enum ChiOp {
    /// One conjoined relation, one relational product per step.
    Monolithic {
        /// `T(v,u,w) = ⋀ᵢ (uᵢ ↔ δᵢ(v,w))`.
        t: Bdd,
        /// Quantification cube: current-state and input variables.
        cube: Bdd,
    },
    /// CBM: constrain the next-state functions by the from-set, then
    /// compute their range by recursive splitting (the χ↔BFV bridges
    /// the paper's Figure 2 flow eliminates; timed as conversion).
    Cbm {
        /// Next-state functions in component order.
        deltas: Vec<Bdd>,
        /// Next-state variables, component order.
        next_vars: Vec<Var>,
    },
    /// IWLS95: clustered partitioned relation with early quantification.
    Iwls {
        /// Scheduled clusters (relation + per-step retire cube).
        clusters: Vec<crate::iwls95::Cluster>,
        /// Cube of quantifiable variables no cluster mentions.
        presmooth: Bdd,
    },
}

/// Which [`ChiOp`] flavor a [`ChiBackend`] builds in `prepare`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChiFlavor {
    Monolithic,
    Cbm,
    Iwls95 { cluster_threshold: usize },
}

/// χ-based set representation: the three characteristic-function engines
/// share everything except the image step, so one backend hosts all
/// three flavors.
pub struct ChiBackend<'a> {
    fsm: &'a EncodedFsm,
    flavor: ChiFlavor,
    op: Option<ChiOp>,
    pairs: Vec<(Var, Var)>,
    /// Pins for the relations/cubes in `op`, so mid-operation reclaim
    /// passes and observer-forced collections never free them.
    guards: Vec<Func>,
    conversion: Duration,
}

impl<'a> ChiBackend<'a> {
    /// Monolithic-relation flavor ([`crate::EngineKind::Monolithic`]): one
    /// relation `T(v,u,w) = ⋀ᵢ (uᵢ ↔ δᵢ(v,w))`, one relational product
    /// per step.
    #[must_use]
    pub fn monolithic(fsm: &'a EncodedFsm) -> Self {
        ChiBackend::new(fsm, ChiFlavor::Monolithic)
    }

    /// Coudert–Berthet–Madre flavor ([`crate::EngineKind::Cbm`]), the
    /// paper's Figure 1 flow.
    #[must_use]
    pub fn cbm(fsm: &'a EncodedFsm) -> Self {
        ChiBackend::new(fsm, ChiFlavor::Cbm)
    }

    /// Partitioned-relation flavor ([`crate::EngineKind::Iwls95`]).
    #[must_use]
    pub fn iwls95(fsm: &'a EncodedFsm, cluster_threshold: usize) -> Self {
        ChiBackend::new(fsm, ChiFlavor::Iwls95 { cluster_threshold })
    }

    fn new(fsm: &'a EncodedFsm, flavor: ChiFlavor) -> Self {
        ChiBackend {
            fsm,
            flavor,
            op: None,
            pairs: fsm.swap_pairs(),
            guards: Vec::new(),
            conversion: Duration::ZERO,
        }
    }
}

impl SetRepr for ChiBackend<'_> {
    type Set = Bdd;

    /// χ state is plain BDD edges plus *semantic* [`Var`] lists
    /// (`pairs`, the CBM `next_vars`), which resolve their current
    /// levels at the manager's API boundary — so a sift pass between
    /// iterations preserves every captured function and the flavor's
    /// image stays correct under the permuted order.
    fn supports_reorder(&self) -> bool {
        true
    }

    fn prepare(&mut self, m: &mut BddManager) -> Result<(), BfvError> {
        let fsm = self.fsm;
        let op = match self.flavor {
            ChiFlavor::Monolithic => {
                let mut t = Bdd::TRUE;
                for l in 0..fsm.num_latches() {
                    let (_, u) = fsm.state_vars(l);
                    let uu = m.var(u);
                    let eq = m.xnor(uu, fsm.next_fn(l))?;
                    t = m.and(t, eq)?;
                }
                self.guards.push(m.func(t));
                let mut qvars: Vec<Var> = fsm.space().vars().to_vec();
                qvars.extend(fsm.input_vars());
                let cube = m.cube_from_vars(&qvars)?;
                self.guards.push(m.func(cube));
                ChiOp::Monolithic { t, cube }
            }
            ChiFlavor::Cbm => ChiOp::Cbm {
                deltas: fsm.next_fns_in_component_order(),
                next_vars: fsm.next_space().vars().to_vec(),
            },
            ChiFlavor::Iwls95 { cluster_threshold } => {
                let mut qvars: Vec<Var> = fsm.space().vars().to_vec();
                qvars.extend(fsm.input_vars());
                let raw = crate::iwls95::build_clusters(m, fsm, cluster_threshold)?;
                let clusters = crate::iwls95::schedule(m, raw, &qvars)?;
                for c in &clusters {
                    self.guards.push(m.func(c.relation));
                    self.guards.push(m.func(c.retire_cube));
                }
                // Variables in no cluster at all can be smoothed out of
                // the from-set up front (inputs the next-state logic
                // ignores, say).
                let unused: Vec<Var> = {
                    let mut used = bfvr_bdd::Support::empty(m.num_vars());
                    for c in &clusters {
                        used.union_with(&m.support(c.relation));
                    }
                    qvars
                        .iter()
                        .copied()
                        .filter(|&v| !used.contains(v))
                        .collect()
                };
                let presmooth = m.cube_from_vars(&unused)?;
                self.guards.push(m.func(presmooth));
                ChiOp::Iwls {
                    clusters,
                    presmooth,
                }
            }
        };
        self.op = Some(op);
        Ok(())
    }

    fn initial(&mut self, m: &mut BddManager) -> Result<Bdd, BfvError> {
        Ok(initial_chi(m, self.fsm)?)
    }

    fn image(&mut self, m: &mut BddManager, from: &Bdd) -> Result<Bdd, BfvError> {
        let from = *from;
        let Some(op) = &self.op else {
            // `prepare` not run: no engine of this crate does that.
            return Err(BfvError::EmptySpace);
        };
        // Image of the empty set is empty for every flavor; the CBM
        // bridge in particular cannot constrain by an empty care set.
        if from.is_false() {
            return Ok(Bdd::FALSE);
        }
        let img = match op {
            ChiOp::Monolithic { t, cube } => {
                let img_u = m.and_exists(*t, from, *cube)?;
                m.swap_vars(img_u, &self.pairs)?
            }
            ChiOp::Cbm { deltas, next_vars } => {
                // χ → functional vector bridge: constrain δ by the care
                // set; vector → χ bridge: range by recursive splitting.
                let conv_start = Instant::now();
                let mut constrained = Vec::with_capacity(deltas.len());
                for &d in deltas {
                    constrained.push(m.constrain(d, from)?);
                }
                let img_u = crate::cbm::range_by_splitting(m, &constrained, next_vars)?;
                self.conversion += conv_start.elapsed();
                m.swap_vars(img_u, &self.pairs)?
            }
            ChiOp::Iwls {
                clusters,
                presmooth,
            } => {
                let mut acc = m.exists(from, *presmooth)?;
                for c in clusters {
                    acc = m.and_exists(acc, c.relation, c.retire_cube)?;
                }
                m.swap_vars(acc, &self.pairs)?
            }
        };
        Ok(img)
    }

    fn union(&mut self, m: &mut BddManager, a: &Bdd, b: &Bdd) -> Result<Bdd, BfvError> {
        Ok(m.or(*a, *b)?)
    }

    fn set_eq(&self, _m: &BddManager, a: &Bdd, b: &Bdd) -> bool {
        a == b
    }

    fn size(&self, m: &BddManager, s: &Bdd) -> usize {
        m.size(*s)
    }

    fn size_capped(&self, m: &BddManager, s: &Bdd, cap: usize) -> usize {
        m.shared_size_capped(&[*s], cap)
    }

    fn append_roots(&self, s: &Bdd, out: &mut Vec<Bdd>) {
        out.push(*s);
    }

    fn persistent_roots(&self, out: &mut Vec<Bdd>) {
        match &self.op {
            Some(ChiOp::Monolithic { t, cube }) => out.extend([*t, *cube]),
            Some(ChiOp::Iwls { clusters, .. }) => {
                out.extend(clusters.iter().map(|c| c.relation));
            }
            Some(ChiOp::Cbm { .. }) | None => {}
        }
    }

    fn view<'b>(&'b self, reached: &'b Bdd, from: &'b Bdd) -> SetView<'b> {
        SetView::Chi {
            reached: *reached,
            from: *from,
        }
    }

    fn count_states(&self, m: &BddManager, s: &Bdd) -> Option<f64> {
        Some(count_states(m, self.fsm, *s))
    }

    fn to_chi(&mut self, _m: &mut BddManager, s: &Bdd) -> Result<Bdd, BfvError> {
        Ok(*s)
    }

    fn checkpoint(
        &mut self,
        m: &mut BddManager,
        reached: &Bdd,
        from: &Bdd,
    ) -> Result<ReprCheckpoint, BfvError> {
        Ok(ReprCheckpoint::Chi {
            reached: m.func(*reached),
            from: m.func(*from),
        })
    }

    fn restore(
        &mut self,
        _m: &mut BddManager,
        cp: &ReprCheckpoint,
    ) -> Result<Option<(Bdd, Bdd)>, BfvError> {
        match cp {
            ReprCheckpoint::Chi { reached, from } => Ok(Some((reached.bdd(), from.bdd()))),
            _ => Ok(None),
        }
    }

    fn take_conversion(&mut self) -> Duration {
        std::mem::take(&mut self.conversion)
    }
}

/// The paper's Figure 2 representation: canonical Boolean functional
/// vectors. No characteristic function is built anywhere in the loop;
/// the fixpoint test is componentwise handle equality, which canonicity
/// makes sound.
pub struct BfvBackend<'a> {
    fsm: &'a EncodedFsm,
    space: Space,
    schedule: Schedule,
    scratch: ImageScratch,
}

impl<'a> BfvBackend<'a> {
    /// A BFV backend simulating with the given re-parameterization
    /// schedule (§3).
    #[must_use]
    pub fn new(fsm: &'a EncodedFsm, schedule: Schedule) -> Self {
        BfvBackend {
            fsm,
            space: fsm.space(),
            schedule,
            scratch: ImageScratch::default(),
        }
    }
}

/// One handle per function, constants included. A checkpoint rebuilds
/// its vectors from these, so unlike [`Bfv::pin`] it keeps every
/// component.
fn handles(m: &BddManager, fs: &[Bdd]) -> Vec<Func> {
    fs.iter().map(|&f| m.func(f)).collect()
}

impl SetRepr for BfvBackend<'_> {
    type Set = Bfv;

    fn initial(&mut self, m: &mut BddManager) -> Result<Bfv, BfvError> {
        let init = StateSet::singleton(m, &self.space, &self.fsm.initial_state())?;
        // A singleton set is never empty; treat absence as internal.
        init.as_bfv().cloned().ok_or(BfvError::EmptySpace)
    }

    fn image(&mut self, m: &mut BddManager, from: &Bfv) -> Result<Bfv, BfvError> {
        simulate_image_scratch(m, self.fsm, from, self.schedule, &mut self.scratch)
    }

    fn union(&mut self, m: &mut BddManager, a: &Bfv, b: &Bfv) -> Result<Bfv, BfvError> {
        ops::union_canonical(m, &self.space, a, b)
    }

    fn set_eq(&self, _m: &BddManager, a: &Bfv, b: &Bfv) -> bool {
        a.components() == b.components()
    }

    fn size(&self, m: &BddManager, s: &Bfv) -> usize {
        s.shared_size(m)
    }

    fn size_capped(&self, m: &BddManager, s: &Bfv, cap: usize) -> usize {
        m.shared_size_capped(s.components(), cap)
    }

    fn append_roots(&self, s: &Bfv, out: &mut Vec<Bdd>) {
        out.extend_from_slice(s.components());
    }

    fn view<'b>(&'b self, reached: &'b Bfv, from: &'b Bfv) -> SetView<'b> {
        SetView::Vector { reached, from }
    }

    fn count_states(&self, _m: &BddManager, _s: &Bfv) -> Option<f64> {
        None
    }

    fn to_chi(&mut self, m: &mut BddManager, s: &Bfv) -> Result<Bdd, BfvError> {
        convert::to_characteristic(m, &self.space, s)
    }

    fn checkpoint(
        &mut self,
        m: &mut BddManager,
        reached: &Bfv,
        from: &Bfv,
    ) -> Result<ReprCheckpoint, BfvError> {
        Ok(ReprCheckpoint::Vector {
            reached: handles(m, reached.components()),
            from: handles(m, from.components()),
        })
    }

    fn restore(
        &mut self,
        _m: &mut BddManager,
        cp: &ReprCheckpoint,
    ) -> Result<Option<(Bfv, Bfv)>, BfvError> {
        let ReprCheckpoint::Vector { reached, from } = cp else {
            return Ok(None);
        };
        let rv = Bfv::from_components(&self.space, reached.iter().map(Func::bdd).collect());
        let fv = Bfv::from_components(&self.space, from.iter().map(Func::bdd).collect());
        match (rv, fv) {
            (Ok(rv), Ok(fv)) => Ok(Some((rv, fv))),
            // A malformed vector cannot come from this crate's engines.
            _ => Ok(None),
        }
    }
}

/// A reached/from pair in the conjunctive-decomposition lane: the §2.7
/// constraint view for set algebra, plus the companion vector the
/// simulation image step consumes.
#[derive(Clone)]
pub struct CdecSet {
    /// The set as McMillan's conjunctive decomposition.
    pub(crate) dec: CDec,
    /// The same set as a functional vector (simulation input).
    pub(crate) bfv: Bfv,
}

/// Figure 2 flow storing sets as McMillan's conjunctive decomposition;
/// the per-step translations between the constraint and vector views are
/// reported as conversion time.
pub struct CdecBackend<'a> {
    fsm: &'a EncodedFsm,
    space: Space,
    schedule: Schedule,
    scratch: ImageScratch,
    conversion: Duration,
}

impl<'a> CdecBackend<'a> {
    /// A CDEC backend simulating with the given schedule.
    #[must_use]
    pub fn new(fsm: &'a EncodedFsm, schedule: Schedule) -> Self {
        CdecBackend {
            fsm,
            space: fsm.space(),
            schedule,
            scratch: ImageScratch::default(),
            conversion: Duration::ZERO,
        }
    }

    fn wrap(&mut self, m: &mut BddManager, bfv: Bfv) -> Result<CdecSet, BfvError> {
        let conv = Instant::now();
        let dec = CDec::from_bfv(m, &self.space, &bfv)?;
        self.conversion += conv.elapsed();
        Ok(CdecSet { dec, bfv })
    }
}

impl SetRepr for CdecBackend<'_> {
    type Set = CdecSet;

    fn initial(&mut self, m: &mut BddManager) -> Result<CdecSet, BfvError> {
        let init = StateSet::singleton(m, &self.space, &self.fsm.initial_state())?;
        let bfv = init.as_bfv().cloned().ok_or(BfvError::EmptySpace)?;
        // The initial decomposition predates the loop: not conversion
        // time (parity with the dedicated engine's accounting).
        let dec = CDec::from_bfv(m, &self.space, &bfv)?;
        Ok(CdecSet { dec, bfv })
    }

    fn image(&mut self, m: &mut BddManager, from: &CdecSet) -> Result<CdecSet, BfvError> {
        let img = simulate_image_scratch(m, self.fsm, &from.bfv, self.schedule, &mut self.scratch)?;
        self.wrap(m, img)
    }

    fn union(&mut self, m: &mut BddManager, a: &CdecSet, b: &CdecSet) -> Result<CdecSet, BfvError> {
        let dec = a.dec.union(m, &self.space, &b.dec)?;
        // Back to the vector view for the next simulation step.
        let conv = Instant::now();
        let bfv = dec.to_bfv(m, &self.space)?;
        self.conversion += conv.elapsed();
        Ok(CdecSet { dec, bfv })
    }

    fn set_eq(&self, _m: &BddManager, a: &CdecSet, b: &CdecSet) -> bool {
        a.dec.constraints() == b.dec.constraints()
    }

    fn size(&self, m: &BddManager, s: &CdecSet) -> usize {
        s.bfv.shared_size(m)
    }

    fn size_capped(&self, m: &BddManager, s: &CdecSet, cap: usize) -> usize {
        m.shared_size_capped(s.bfv.components(), cap)
    }

    fn repr_nodes(&self, m: &BddManager, s: &CdecSet) -> usize {
        s.dec.shared_size(m)
    }

    fn append_roots(&self, s: &CdecSet, out: &mut Vec<Bdd>) {
        out.extend_from_slice(s.dec.constraints());
        out.extend_from_slice(s.bfv.components());
    }

    fn view<'b>(&'b self, reached: &'b CdecSet, from: &'b CdecSet) -> SetView<'b> {
        SetView::Cdec {
            reached: &reached.dec,
            from: &from.bfv,
        }
    }

    fn count_states(&self, _m: &BddManager, _s: &CdecSet) -> Option<f64> {
        None
    }

    fn to_chi(&mut self, m: &mut BddManager, s: &CdecSet) -> Result<Bdd, BfvError> {
        s.dec.conjoin_all(m)
    }

    fn checkpoint(
        &mut self,
        m: &mut BddManager,
        reached: &CdecSet,
        from: &CdecSet,
    ) -> Result<ReprCheckpoint, BfvError> {
        Ok(ReprCheckpoint::Cdec {
            constraints: handles(m, reached.dec.constraints()),
            from: handles(m, from.bfv.components()),
        })
    }

    fn restore(
        &mut self,
        m: &mut BddManager,
        cp: &ReprCheckpoint,
    ) -> Result<Option<(CdecSet, CdecSet)>, BfvError> {
        let ReprCheckpoint::Cdec { constraints, from } = cp else {
            return Ok(None);
        };
        let dec = CDec::from_constraints(constraints.iter().map(Func::bdd).collect());
        let Ok(from_bfv) = Bfv::from_components(&self.space, from.iter().map(Func::bdd).collect())
        else {
            return Ok(None);
        };
        // The reached set needs its companion vector back for the
        // frontier heuristic; a conversion resume pays once.
        let reached_bfv = dec.to_bfv(m, &self.space)?;
        let from_dec = CDec::from_bfv(m, &self.space, &from_bfv)?;
        Ok(Some((
            CdecSet {
                dec,
                bfv: reached_bfv,
            },
            CdecSet {
                dec: from_dec,
                bfv: from_bfv,
            },
        )))
    }

    fn take_conversion(&mut self) -> Duration {
        std::mem::take(&mut self.conversion)
    }
}
