//! Property tests: the BFV set algebra against the characteristic-function
//! oracle, on random sets and random parameterized vectors.
//!
//! Deterministic xorshift generation keeps the suite dependency-free; a
//! failing case is reproducible from the printed case number.

use bfvr_bdd::{Bdd, BddManager, Var};
use bfvr_bfv::convert::{from_characteristic, to_characteristic};
use bfvr_bfv::reparam::{reparameterize_with, Schedule};
use bfvr_bfv::{ops, Bfv, Space, StateSet};

const N: usize = 4; // state bits
const CASES: u64 = 200;

/// xorshift64* — deterministic, seedable, no dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Non-empty 16-point set mask.
    fn mask(&mut self) -> u16 {
        let m = self.next() as u16;
        if m == 0 {
            1
        } else {
            m
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

fn for_cases(seed: u64, mut check: impl FnMut(u64, &mut Rng)) {
    let mut rng = Rng::new(seed);
    for case in 0..CASES {
        check(case, &mut rng);
    }
}

/// Builds the characteristic function of a set given as a 16-bit mask over
/// {0,1}^4 (bit k of the mask = membership of the point with value k,
/// reading component 0 as the MSB).
fn chi_of_mask(m: &mut BddManager, space: &Space, mask: u16) -> Bdd {
    let mut chi = Bdd::FALSE;
    for pt in 0..16u16 {
        if mask & (1 << pt) != 0 {
            let mut cube = Bdd::TRUE;
            #[allow(clippy::needless_range_loop)]
            for i in 0..N {
                let bit = (pt >> (N - 1 - i)) & 1 == 1;
                let v = space.var(i);
                let lit = if bit { m.var(v) } else { m.nvar(v) };
                cube = m.and(cube, lit).unwrap();
            }
            chi = m.or(chi, cube).unwrap();
        }
    }
    chi
}

fn set_of_mask(m: &mut BddManager, space: &Space, mask: u16) -> Option<Bfv> {
    let chi = chi_of_mask(m, space, mask);
    from_characteristic(m, space, chi).unwrap()
}

#[test]
fn union_matches_oracle() {
    for_cases(0xBF01, |case, rng| {
        let (a, b) = (rng.mask(), rng.mask());
        let mut m = BddManager::new(N as u32);
        let space = Space::contiguous(N as u32);
        let fa = set_of_mask(&mut m, &space, a).unwrap();
        let fb = set_of_mask(&mut m, &space, b).unwrap();
        let h = ops::union(&mut m, &space, &fa, &fb).unwrap();
        assert!(h.is_canonical(&mut m, &space).unwrap(), "case {case}");
        let got = to_characteristic(&mut m, &space, &h).unwrap();
        let expect = chi_of_mask(&mut m, &space, a | b);
        assert_eq!(got, expect, "case {case}: {a:#06x} ∪ {b:#06x}");
    });
}

/// The textbook union, kept as the bit-identity reference for
/// `ops::union`: full conditions per component, reassembly as
/// `one ∨ (choice ∧ v)`, and the identical-component shortcut taken only
/// while both exclusions are ⊥. Also reports whether an identical pair
/// was met after an exclusion fired, where only `ops::union` shortcuts.
fn reference_union(m: &mut BddManager, space: &Space, f: &Bfv, g: &Bfv) -> (Bfv, bool) {
    fn three_way(m: &mut BddManager, a: Bdd, b: Bdd, ax: Bdd, bx: Bdd) -> Bdd {
        let t1 = m.and(a, b).unwrap();
        let t2 = m.and(a, bx).unwrap();
        let t3 = m.and(ax, b).unwrap();
        m.or_all(&[t1, t2, t3]).unwrap()
    }
    let (mut fx, mut gx) = (Bdd::FALSE, Bdd::FALSE);
    let mut late_identical = false;
    let mut comps = Vec::new();
    for i in 0..space.len() {
        if f.component(i) == g.component(i) {
            if fx.is_false() && gx.is_false() {
                comps.push(f.component(i));
                continue;
            }
            late_identical = true;
        }
        let cf = f.conditions(m, space, i).unwrap();
        let cg = g.conditions(m, space, i).unwrap();
        let h1 = three_way(m, cf.one, cg.one, fx, gx);
        let h0 = three_way(m, cf.zero, cg.zero, fx, gx);
        let forced = m.or(h1, h0).unwrap();
        let hc = m.not(forced);
        let v = m.var(space.var(i));
        let cv = m.and(hc, v).unwrap();
        let h = m.or(h1, cv).unwrap();
        let nh = m.not(h);
        for (x, c) in [(&mut fx, cf), (&mut gx, cg)] {
            let z = m.and(c.zero, h).unwrap();
            let o = m.and(c.one, nh).unwrap();
            *x = m.or_all(&[*x, z, o]).unwrap();
        }
        comps.push(h);
    }
    (Bfv::from_components(space, comps).unwrap(), late_identical)
}

#[test]
fn union_bit_identical_to_reference_on_canonical_pairs() {
    for_cases(0xBF0A, |case, rng| {
        let (a, b) = (rng.mask(), rng.mask());
        let mut m = BddManager::new(N as u32);
        let space = Space::contiguous(N as u32);
        let fa = set_of_mask(&mut m, &space, a).unwrap();
        let fb = set_of_mask(&mut m, &space, b).unwrap();
        let got = ops::union(&mut m, &space, &fa, &fb).unwrap();
        let (expect, _) = reference_union(&mut m, &space, &fa, &fb);
        assert_eq!(
            got.components(),
            expect.components(),
            "case {case}: {a:#06x} ∪ {b:#06x}"
        );
    });
}

/// A function of `params` given by a truth table over them (row bit `j`
/// is the value of `params[j]`, the first parameter as the MSB).
fn fn_of_table(m: &mut BddManager, params: &[Var], tt: u64) -> Bdd {
    let k = params.len();
    let mut f = Bdd::FALSE;
    for row in 0..1u64 << k {
        if tt & (1 << row) != 0 {
            let mut cube = Bdd::TRUE;
            for (j, &p) in params.iter().enumerate() {
                let bit = (row >> (k - 1 - j)) & 1 == 1;
                let lit = if bit { m.var(p) } else { m.nvar(p) };
                cube = m.and(cube, lit).unwrap();
            }
            f = m.or(f, cube).unwrap();
        }
    }
    f
}

#[test]
fn union_bit_identical_to_reference_on_reparam_operands() {
    // The operand shape re-parameterization produces: (N|p=0, N|p=1) for a
    // parameterized vector N midway through elimination. Components that
    // do not depend on p are identical in both cofactors, and one that
    // does, placed earlier, lets an exclusion fire before them.
    let mut late_identical_cases = 0;
    for_cases(0xBF0B, |case, rng| {
        let mut m = BddManager::new(8);
        let space = Space::contiguous(4);
        let params: Vec<Var> = (4..8).map(Var).collect();
        let mut comps = Vec::new();
        for _ in 0..4 {
            // Each component reads a random subset of the parameters.
            let mine: Vec<Var> = params.iter().copied().filter(|_| rng.flip()).collect();
            comps.push(fn_of_table(&mut m, &mine, rng.next()));
        }
        let n = Bfv::from_components(&space, comps).unwrap();
        // Eliminate a random prefix of the parameters first.
        let done = rng.below(4) as usize;
        let mid =
            reparameterize_with(&mut m, &space, &n, &params[..done], Schedule::Fixed).unwrap();
        let p = params[done + rng.below((4 - done) as u64) as usize];
        let f0 = ops::cofactor(&mut m, &space, &mid, p, false).unwrap();
        let f1 = ops::cofactor(&mut m, &space, &mid, p, true).unwrap();
        let got = ops::union(&mut m, &space, &f0, &f1).unwrap();
        let (expect, late_identical) = reference_union(&mut m, &space, &f0, &f1);
        assert_eq!(got.components(), expect.components(), "case {case}");
        late_identical_cases += usize::from(late_identical);
    });
    assert!(
        late_identical_cases > 0,
        "no case met an identical pair after an exclusion"
    );
}

#[test]
fn intersect_matches_oracle() {
    for_cases(0xBF02, |case, rng| {
        let (a, b) = (rng.mask(), rng.mask());
        let mut m = BddManager::new(N as u32);
        let space = Space::contiguous(N as u32);
        let fa = set_of_mask(&mut m, &space, a).unwrap();
        let fb = set_of_mask(&mut m, &space, b).unwrap();
        let h = ops::intersect(&mut m, &space, &fa, &fb).unwrap();
        if a & b == 0 {
            assert!(h.is_none(), "case {case}");
        } else {
            let h = h.unwrap();
            assert!(h.is_canonical(&mut m, &space).unwrap(), "case {case}");
            let got = to_characteristic(&mut m, &space, &h).unwrap();
            let expect = chi_of_mask(&mut m, &space, a & b);
            assert_eq!(got, expect, "case {case}: {a:#06x} ∩ {b:#06x}");
        }
    });
}

#[test]
fn conversion_roundtrip_is_identity() {
    for_cases(0xBF03, |case, rng| {
        let a = rng.mask();
        let mut m = BddManager::new(N as u32);
        let space = Space::contiguous(N as u32);
        let f = set_of_mask(&mut m, &space, a).unwrap();
        assert!(f.is_canonical(&mut m, &space).unwrap(), "case {case}");
        let chi = to_characteristic(&mut m, &space, &f).unwrap();
        let g = from_characteristic(&mut m, &space, chi).unwrap().unwrap();
        assert_eq!(f.components(), g.components(), "case {case}");
    });
}

#[test]
fn union_associative_via_canonicity() {
    for_cases(0xBF04, |case, rng| {
        let (a, b, c) = (rng.mask(), rng.mask(), rng.mask());
        let mut m = BddManager::new(N as u32);
        let space = Space::contiguous(N as u32);
        let fa = set_of_mask(&mut m, &space, a).unwrap();
        let fb = set_of_mask(&mut m, &space, b).unwrap();
        let fc = set_of_mask(&mut m, &space, c).unwrap();
        let ab = ops::union(&mut m, &space, &fa, &fb).unwrap();
        let ab_c = ops::union(&mut m, &space, &ab, &fc).unwrap();
        let bc = ops::union(&mut m, &space, &fb, &fc).unwrap();
        let a_bc = ops::union(&mut m, &space, &fa, &bc).unwrap();
        assert_eq!(ab_c.components(), a_bc.components(), "case {case}");
    });
}

#[test]
fn quantification_matches_oracle() {
    for_cases(0xBF05, |case, rng| {
        let a = rng.mask();
        let comp = rng.below(N as u64) as usize;
        let mut m = BddManager::new(N as u32);
        let space = Space::contiguous(N as u32);
        let f = set_of_mask(&mut m, &space, a).unwrap();
        let v = space.var(comp);
        // Oracle via characteristic functions.
        let chi = to_characteristic(&mut m, &space, &f).unwrap();
        let chi0 = m.cofactor(chi, v, false).unwrap();
        let chi1 = m.cofactor(chi, v, true).unwrap();
        let e = ops::exists(&mut m, &space, &f, v).unwrap();
        assert!(e.is_canonical(&mut m, &space).unwrap(), "case {case}");
        let got = to_characteristic(&mut m, &space, &e).unwrap();
        let expect = m.or(chi0, chi1).unwrap();
        // ∃v F as a set = (F|v=0) ∪ (F|v=1): the oracle is the union of
        // the two cofactor sets.
        let f0 = ops::cofactor(&mut m, &space, &f, v, false).unwrap();
        let f1 = ops::cofactor(&mut m, &space, &f, v, true).unwrap();
        let c0 = to_characteristic(&mut m, &space, &f0).unwrap();
        let c1 = to_characteristic(&mut m, &space, &f1).unwrap();
        let set_expect = m.or(c0, c1).unwrap();
        assert_eq!(got, set_expect, "case {case}");
        // The smoothing view must contain the set view.
        let gap = m.diff(got, expect).unwrap();
        assert!(gap.is_false(), "case {case}");
    });
}

#[test]
fn forall_matches_cofactor_intersection() {
    for_cases(0xBF06, |case, rng| {
        let a = rng.mask();
        let comp = rng.below(N as u64) as usize;
        let mut m = BddManager::new(N as u32);
        let space = Space::contiguous(N as u32);
        let f = set_of_mask(&mut m, &space, a).unwrap();
        let v = space.var(comp);
        let fa = ops::forall(&mut m, &space, &f, v).unwrap();
        let f0 = ops::cofactor(&mut m, &space, &f, v, false).unwrap();
        let f1 = ops::cofactor(&mut m, &space, &f, v, true).unwrap();
        let c0 = to_characteristic(&mut m, &space, &f0).unwrap();
        let c1 = to_characteristic(&mut m, &space, &f1).unwrap();
        let expect = m.and(c0, c1).unwrap();
        match fa {
            None => assert!(expect.is_false(), "case {case}"),
            Some(h) => {
                assert!(h.is_canonical(&mut m, &space).unwrap(), "case {case}");
                let got = to_characteristic(&mut m, &space, &h).unwrap();
                assert_eq!(got, expect, "case {case}");
            }
        }
    });
}

#[test]
fn cofactor_members_are_subset() {
    for_cases(0xBF07, |case, rng| {
        let a = rng.mask();
        let comp = rng.below(N as u64) as usize;
        let val = rng.flip();
        let mut m = BddManager::new(N as u32);
        let space = Space::contiguous(N as u32);
        let f = set_of_mask(&mut m, &space, a).unwrap();
        let g = ops::cofactor(&mut m, &space, &f, space.var(comp), val).unwrap();
        assert!(g.is_canonical(&mut m, &space).unwrap(), "case {case}");
        let sg = StateSet::NonEmpty(g);
        let sf = StateSet::NonEmpty(f);
        for mem in sg.members(&mut m, &space).unwrap() {
            assert!(sf.contains(&m, &space, &mem).unwrap(), "case {case}");
        }
    });
}

#[test]
fn reparam_matches_relational_image() {
    for_cases(0xBF08, |case, rng| {
        // Four random next-state functions of 4 parameters, given as
        // 16-entry truth tables. Oracle: χ_img(x) = ∃p. ⋀ x_i ↔ n_i(p).
        let tts = [
            rng.next() as u16,
            rng.next() as u16,
            rng.next() as u16,
            rng.next() as u16,
        ];
        let dynamic = rng.flip();
        let mut m = BddManager::new(8);
        let space = Space::contiguous(4);
        let params: Vec<Var> = (4..8).map(Var).collect();
        let mut comps = Vec::new();
        for tt in tts {
            comps.push(fn_of_table(&mut m, &params, u64::from(tt)));
        }
        let n = Bfv::from_components(&space, comps.clone()).unwrap();
        let sched = if dynamic {
            Schedule::DynamicSupport
        } else {
            Schedule::Fixed
        };
        let r = reparameterize_with(&mut m, &space, &n, &params, sched).unwrap();
        assert!(r.is_canonical(&mut m, &space).unwrap(), "case {case}");
        let got = to_characteristic(&mut m, &space, &r).unwrap();
        // Oracle.
        let mut rel = Bdd::TRUE;
        #[allow(clippy::needless_range_loop)]
        for i in 0..4 {
            let xi = m.var(space.var(i));
            let eq = m.xnor(xi, comps[i]).unwrap();
            rel = m.and(rel, eq).unwrap();
        }
        let pcube = m.cube_from_vars(&params).unwrap();
        let expect = m.exists(rel, pcube).unwrap();
        assert_eq!(got, expect, "case {case}: tts {tts:?}");
    });
}

#[test]
fn permuted_component_order_still_canonical() {
    for_cases(0xBF09, |case, rng| {
        // The set algebra is correct for any component order over the
        // same variables (the future-work reordering experiments rely on
        // this).
        let a = rng.mask();
        let mut m = BddManager::new(N as u32);
        let mut perm: Vec<usize> = (0..N).collect();
        for i in (1..N).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        let space = Space::contiguous(N as u32).permuted(&perm);
        let chi = chi_of_mask(&mut m, &Space::contiguous(N as u32), a);
        // chi is over vars 0..4 which are exactly the permuted space's
        // vars, just weighted differently.
        let f = from_characteristic(&mut m, &space, chi).unwrap().unwrap();
        assert!(f.is_canonical(&mut m, &space).unwrap(), "case {case}");
        let back = to_characteristic(&mut m, &space, &f).unwrap();
        assert_eq!(back, chi, "case {case}");
        // Union in the permuted space matches the oracle too.
        let g = ops::union(&mut m, &space, &f, &f).unwrap();
        assert_eq!(g.components(), f.components(), "case {case}");
    });
}

/// Which shapes of `F ∪ {s}` a case met, for the coverage assertion of
/// [`union_with_a_point_is_the_general_union`].
#[derive(Default)]
struct GraftCoverage {
    member: bool,
    first: bool,
    last: bool,
    unread_cube_var: bool,
    off_cube_above_vk: bool,
}

impl GraftCoverage {
    /// Classifies one union of the canonical `f` with the point `s`
    /// independently of the kernel: `k` is the first component where
    /// `F(s)` differs from `s`, and the cube holds the positions before
    /// `k` that are free along `s`, plus `v_k`.
    fn record(&mut self, m: &BddManager, space: &Space, f: &Bfv, s: &[bool]) {
        let image = f.eval(m, space, s).unwrap();
        let Some(k) = (0..space.len()).find(|&i| image[i] != s[i]) else {
            self.member = true;
            return;
        };
        self.first |= k == 0;
        self.last |= k == space.len() - 1;
        let mut cube = vec![space.var(k)];
        for j in 0..k {
            let mut t = s.to_vec();
            t[j] = !t[j];
            if f.eval(m, space, &t).unwrap()[j] != s[j] {
                cube.push(space.var(j));
            }
        }
        let vk = m.var_to_level(space.var(k));
        for i in k..space.len() {
            let sup = m.support(f.component(i));
            self.unread_cube_var |= cube.iter().any(|&v| !sup.contains(v));
            self.off_cube_above_vk |= sup
                .vars()
                .iter()
                .any(|v| !cube.contains(v) && m.var_to_level(*v) < vk);
        }
    }
}

/// The dispatch for canonical, parameter-free sets returns the general
/// union's vector handle for handle when one operand is a point (the
/// path graft), with the point on either side, under random component
/// orders, random variable orders and across collections. A member
/// point costs no `mk` call.
#[test]
fn union_with_a_point_is_the_general_union() {
    const BITS: u32 = 6;
    let mut seen = GraftCoverage::default();
    for_cases(0xBF10, |case, rng| {
        let mut m = BddManager::new(BITS);
        let mut perm: Vec<usize> = (0..BITS as usize).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let space = Space::contiguous(BITS).permuted(&perm);
        // Sparse, medium and dense random sets over the 64 points.
        let mask = match rng.below(3) {
            0 => rng.next() & rng.next() & rng.next(),
            1 => rng.next(),
            _ => rng.next() | rng.next(),
        }
        .max(1);
        let mut chi = Bdd::FALSE;
        for pt in (0..64).filter(|pt| mask >> pt & 1 == 1) {
            let bits: Vec<bool> = (0..BITS).map(|i| pt >> i & 1 == 1).collect();
            let minterm = StateSet::singleton(&mut m, &space, &bits).unwrap();
            let c = minterm.to_characteristic(&mut m, &space).unwrap();
            chi = m.or(chi, c).unwrap();
        }
        let mut reached = from_characteristic(&mut m, &space, chi).unwrap().unwrap();
        // A chain of unions, like the driver's, with a flush point before
        // each: nothing, a collection, or a reorder to a random order.
        for step in 0..6 {
            let what = format!("case {case} step {step}");
            match rng.below(3) {
                0 => {}
                1 => {
                    m.collect_garbage(reached.components());
                }
                _ => {
                    let mut order: Vec<u32> = (0..BITS).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                    m.reorder_to(&order, reached.components()).unwrap();
                }
            }
            let s: Vec<bool> = (0..BITS).map(|_| rng.flip()).collect();
            let point = StateSet::singleton(&mut m, &space, &s).unwrap();
            let point = point.as_bfv().unwrap();
            seen.record(&m, &space, &reached, &s);
            let (mk_before, alloc_before) = (m.stats().mk_calls, m.allocated());
            let member = reached.contains(&m, &space, &s).unwrap();
            let grafted = ops::union_canonical(&mut m, &space, &reached, point).unwrap();
            if member {
                assert_eq!(grafted, reached, "{what}: a member point changed the set");
                assert_eq!(
                    m.stats().mk_calls,
                    mk_before,
                    "{what}: member point called mk"
                );
                assert_eq!(m.allocated(), alloc_before, "{what}");
            }
            let swapped = ops::union_canonical(&mut m, &space, point, &reached).unwrap();
            let expect = ops::union(&mut m, &space, &reached, point).unwrap();
            assert_eq!(grafted.components(), expect.components(), "{what}");
            assert_eq!(
                swapped.components(),
                expect.components(),
                "{what}: point first"
            );
            reached = grafted;
        }
    });
    let GraftCoverage {
        member,
        first,
        last,
        unread_cube_var,
        off_cube_above_vk,
    } = seen;
    assert!(member, "no member point");
    assert!(first, "no case with k = 0");
    assert!(last, "no case with k = n - 1");
    assert!(
        unread_cube_var,
        "no component that leaves a cube variable unread"
    );
    assert!(off_cube_above_vk, "no off-cube variable above v_k");
}
