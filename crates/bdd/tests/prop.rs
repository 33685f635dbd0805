//! Property tests: random formulas checked against a truth-table oracle.
//!
//! Deterministic xorshift generation keeps the suite dependency-free (the
//! container builds offline), while covering the same ground a proptest
//! harness would: every case derives from a seeded PRNG, so failures are
//! reproducible from the printed case number.

use bfvr_bdd::{Bdd, BddManager, SiftConfig, Var};

const NVARS: u32 = 5;
const CASES: u64 = 128;

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

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// A tiny formula AST used to generate random functions.
#[derive(Clone, Debug)]
enum Expr {
    Var(u32),
    Const(bool),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Random expression over `nvars` variables, depth-bounded.
    fn random(rng: &mut Rng, nvars: u32, depth: u32) -> Expr {
        if depth == 0 || rng.below(8) == 0 {
            return if rng.below(4) == 0 {
                Expr::Const(rng.flip())
            } else {
                Expr::Var(rng.below(nvars as u64) as u32)
            };
        }
        let sub = |rng: &mut Rng| Box::new(Expr::random(rng, nvars, depth - 1));
        match rng.below(5) {
            0 => Expr::Not(sub(rng)),
            1 => Expr::And(sub(rng), sub(rng)),
            2 => Expr::Or(sub(rng), sub(rng)),
            3 => Expr::Xor(sub(rng), sub(rng)),
            _ => Expr::Ite(sub(rng), sub(rng), sub(rng)),
        }
    }

    fn eval(&self, asg: &[bool]) -> bool {
        match self {
            Expr::Var(v) => asg[*v as usize],
            Expr::Const(b) => *b,
            Expr::Not(a) => !a.eval(asg),
            Expr::And(a, b) => a.eval(asg) && b.eval(asg),
            Expr::Or(a, b) => a.eval(asg) || b.eval(asg),
            Expr::Xor(a, b) => a.eval(asg) ^ b.eval(asg),
            Expr::Ite(c, t, e) => {
                if c.eval(asg) {
                    t.eval(asg)
                } else {
                    e.eval(asg)
                }
            }
        }
    }

    fn build(&self, m: &mut BddManager) -> Bdd {
        match self {
            Expr::Var(v) => m.var(Var(*v)),
            Expr::Const(true) => Bdd::TRUE,
            Expr::Const(false) => Bdd::FALSE,
            Expr::Not(a) => {
                let a = a.build(m);
                m.not(a)
            }
            Expr::And(a, b) => {
                let (a, b) = (a.build(m), b.build(m));
                m.and(a, b).unwrap()
            }
            Expr::Or(a, b) => {
                let (a, b) = (a.build(m), b.build(m));
                m.or(a, b).unwrap()
            }
            Expr::Xor(a, b) => {
                let (a, b) = (a.build(m), b.build(m));
                m.xor(a, b).unwrap()
            }
            Expr::Ite(c, t, e) => {
                let (c, t, e) = (c.build(m), t.build(m), e.build(m));
                m.ite(c, t, e).unwrap()
            }
        }
    }
}

fn assignments_over(nvars: u32) -> impl Iterator<Item = Vec<bool>> {
    (0u32..1 << nvars).map(move |bits| {
        (0..nvars)
            .map(|i| (bits >> (nvars - 1 - i)) & 1 == 1)
            .collect()
    })
}

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    assignments_over(NVARS)
}

/// Runs `CASES` random cases, each with its own manager and expression.
fn for_cases(seed: u64, mut check: impl FnMut(u64, &mut Rng)) {
    let mut rng = Rng::new(seed);
    for case in 0..CASES {
        check(case, &mut rng);
    }
}

#[test]
fn bdd_matches_oracle() {
    for_cases(0xB001, |case, rng| {
        let e = Expr::random(rng, NVARS, 4);
        let mut m = BddManager::new(NVARS);
        let f = e.build(&mut m);
        for asg in assignments() {
            assert_eq!(m.eval(f, &asg), e.eval(&asg), "case {case}: {e:?}");
        }
    });
}

#[test]
fn semantically_equal_exprs_get_same_node() {
    // Canonicity: ¬¬e and e ∨ e must give the identical edge handle.
    for_cases(0xB002, |case, rng| {
        let e = Expr::random(rng, NVARS, 4);
        let mut m = BddManager::new(NVARS);
        let f = e.build(&mut m);
        let nf = m.not(f);
        let nnf = m.not(nf);
        assert_eq!(f, nnf, "case {case}: ¬¬f != f");
        let ff = m.or(f, f).unwrap();
        assert_eq!(f, ff, "case {case}: f ∨ f != f");
    });
}

#[test]
fn negation_is_involutive_and_free() {
    // The complement-edge acceptance property: ¬ is O(1), allocation-free
    // and involutive on arbitrary functions.
    for_cases(0xB003, |case, rng| {
        let e = Expr::random(rng, NVARS, 4);
        let mut m = BddManager::new(NVARS);
        let f = e.build(&mut m);
        let allocated = m.allocated();
        let nf = m.not(f);
        assert_eq!(
            m.allocated(),
            allocated,
            "case {case}: not() allocated nodes"
        );
        assert_eq!(m.not(nf), f, "case {case}");
        for asg in assignments() {
            assert_eq!(m.eval(nf, &asg), !e.eval(&asg), "case {case}");
        }
    });
}

#[test]
fn ite_duality_laws() {
    // ite(f,g,h) == ite(¬f,h,g) and ite(f,g,h) == ¬ite(¬f,¬h,¬g):
    // the two complement-edge normalization identities the ITE core uses.
    for_cases(0xB004, |case, rng| {
        let ef = Expr::random(rng, NVARS, 3);
        let eg = Expr::random(rng, NVARS, 3);
        let eh = Expr::random(rng, NVARS, 3);
        let mut m = BddManager::new(NVARS);
        let f = ef.build(&mut m);
        let g = eg.build(&mut m);
        let h = eh.build(&mut m);
        let nf = m.not(f);
        let lhs = m.ite(f, g, h).unwrap();
        let swapped = m.ite(nf, h, g).unwrap();
        assert_eq!(lhs, swapped, "case {case}: ite(f,g,h) != ite(¬f,h,g)");
        let ng = m.not(g);
        let nh = m.not(h);
        let dual = m.ite(nf, nh, ng).unwrap();
        assert_eq!(
            lhs,
            m.not(dual),
            "case {case}: ite(f,g,h) != ¬ite(¬f,¬h,¬g)"
        );
    });
}

#[test]
fn sat_count_matches_all_sat() {
    for_cases(0xB005, |case, rng| {
        let e = Expr::random(rng, NVARS, 4);
        let mut m = BddManager::new(NVARS);
        let f = e.build(&mut m);
        let sats = m.all_sat(f, NVARS);
        assert_eq!(m.sat_count(f, NVARS) as usize, sats.len(), "case {case}");
        assert_eq!(
            m.sat_count_exact(f, NVARS),
            Some(sats.len() as u128),
            "case {case}"
        );
    });
}

#[test]
fn exists_matches_oracle() {
    for_cases(0xB006, |case, rng| {
        let e = Expr::random(rng, NVARS, 4);
        let v = rng.below(NVARS as u64) as u32;
        let mut m = BddManager::new(NVARS);
        let f = e.build(&mut m);
        let cube = m.cube_from_vars(&[Var(v)]).unwrap();
        let ex = m.exists(f, cube).unwrap();
        let fa = m.forall(f, cube).unwrap();
        for asg in assignments() {
            let mut a0 = asg.clone();
            a0[v as usize] = false;
            let mut a1 = asg.clone();
            a1[v as usize] = true;
            let or = e.eval(&a0) || e.eval(&a1);
            let and = e.eval(&a0) && e.eval(&a1);
            assert_eq!(m.eval(ex, &asg), or, "case {case}: ∃v{v}");
            assert_eq!(m.eval(fa, &asg), and, "case {case}: ∀v{v}");
        }
    });
}

#[test]
fn and_exists_is_relational_product() {
    for_cases(0xB007, |case, rng| {
        let e1 = Expr::random(rng, NVARS, 3);
        let e2 = Expr::random(rng, NVARS, 3);
        let v1 = rng.below(NVARS as u64) as u32;
        let v2 = rng.below(NVARS as u64) as u32;
        let mut m = BddManager::new(NVARS);
        let f = e1.build(&mut m);
        let g = e2.build(&mut m);
        let vars = if v1 == v2 {
            vec![Var(v1)]
        } else {
            vec![Var(v1), Var(v2)]
        };
        let cube = m.cube_from_vars(&vars).unwrap();
        let direct = m.and_exists(f, g, cube).unwrap();
        let fg = m.and(f, g).unwrap();
        let two_step = m.exists(fg, cube).unwrap();
        assert_eq!(direct, two_step, "case {case}");
    });
}

#[test]
fn constrain_and_restrict_agree_on_care_set() {
    for_cases(0xB008, |case, rng| {
        let e = Expr::random(rng, NVARS, 4);
        let c = Expr::random(rng, NVARS, 4);
        let mut m = BddManager::new(NVARS);
        let f = e.build(&mut m);
        let care = c.build(&mut m);
        if care.is_false() {
            return;
        }
        let con = m.constrain(f, care).unwrap();
        let res = m.restrict(f, care).unwrap();
        for asg in assignments() {
            if m.eval(care, &asg) {
                assert_eq!(m.eval(con, &asg), e.eval(&asg), "case {case}: constrain");
                assert_eq!(m.eval(res, &asg), e.eval(&asg), "case {case}: restrict");
            }
        }
        // restrict never grows the support beyond f's.
        let sup_f = m.support(f);
        let sup_r = m.support(res);
        for v in sup_r.vars() {
            assert!(sup_f.contains(v), "case {case}: restrict introduced {v}");
        }
    });
}

/// The ISSUE's equivalence check: `apply`/`exists`/`constrain` on random
/// 8-variable functions agree with the truth-table semantics on all 256
/// assignments — the new complement-edge core computes the same functions
/// the seed core did.
#[test]
fn eight_var_operations_match_semantics() {
    const N8: u32 = 8;
    for_cases(0xB009, |case, rng| {
        let ef = Expr::random(rng, N8, 4);
        let eg = Expr::random(rng, N8, 4);
        let v = rng.below(N8 as u64) as u32;
        let mut m = BddManager::new(N8);
        let f = ef.build(&mut m);
        let g = eg.build(&mut m);
        let conj = m.and(f, g).unwrap();
        let disj = m.or(f, g).unwrap();
        let xo = m.xor(f, g).unwrap();
        let cube = m.cube_from_vars(&[Var(v)]).unwrap();
        let ex = m.exists(conj, cube).unwrap();
        let con = if g.is_false() {
            None
        } else {
            Some(m.constrain(f, g).unwrap())
        };
        for asg in assignments_over(N8) {
            let (bf, bg) = (ef.eval(&asg), eg.eval(&asg));
            assert_eq!(m.eval(conj, &asg), bf && bg, "case {case}: and");
            assert_eq!(m.eval(disj, &asg), bf || bg, "case {case}: or");
            assert_eq!(m.eval(xo, &asg), bf ^ bg, "case {case}: xor");
            let mut a0 = asg.clone();
            a0[v as usize] = false;
            let mut a1 = asg.clone();
            a1[v as usize] = true;
            let sem = (ef.eval(&a0) && eg.eval(&a0)) || (ef.eval(&a1) && eg.eval(&a1));
            assert_eq!(m.eval(ex, &asg), sem, "case {case}: exists");
            if let Some(con) = con {
                if bg {
                    assert_eq!(m.eval(con, &asg), bf, "case {case}: constrain");
                }
            }
        }
    });
}

#[test]
fn vector_compose_matches_semantic_substitution() {
    for_cases(0xB00A, |case, rng| {
        let e = Expr::random(rng, NVARS, 3);
        let g0 = Expr::random(rng, NVARS, 3);
        let g1 = Expr::random(rng, NVARS, 3);
        let mut m = BddManager::new(NVARS);
        let f = e.build(&mut m);
        let s0 = g0.build(&mut m);
        let s1 = g1.build(&mut m);
        let mut map = vec![None; NVARS as usize];
        map[0] = Some(s0);
        map[1] = Some(s1);
        let composed = m.vector_compose(f, &map).unwrap();
        for asg in assignments() {
            let mut sub = asg.clone();
            sub[0] = g0.eval(&asg);
            sub[1] = g1.eval(&asg);
            assert_eq!(m.eval(composed, &asg), e.eval(&sub), "case {case}");
        }
    });
}

#[test]
fn cofactor_matches_oracle() {
    for_cases(0xB00B, |case, rng| {
        let e = Expr::random(rng, NVARS, 4);
        let v = rng.below(NVARS as u64) as u32;
        let val = rng.flip();
        let mut m = BddManager::new(NVARS);
        let f = e.build(&mut m);
        let cf = m.cofactor(f, Var(v), val).unwrap();
        for asg in assignments() {
            let mut a = asg.clone();
            a[v as usize] = val;
            assert_eq!(m.eval(cf, &asg), e.eval(&a), "case {case}");
        }
        // The cofactor no longer depends on v.
        assert!(!m.support(cf).contains(Var(v)), "case {case}");
    });
}

#[test]
fn gc_preserves_rooted_functions() {
    for_cases(0xB00C, |case, rng| {
        let e = Expr::random(rng, NVARS, 4);
        let mut m = BddManager::new(NVARS);
        let f = e.build(&mut m);
        let truth: Vec<bool> = assignments().map(|a| e.eval(&a)).collect();
        // Root half the cases through the RAII handle, half via the
        // explicit root list — both must pin the function.
        let guard = if case % 2 == 0 { Some(m.func(f)) } else { None };
        let roots: &[Bdd] = if guard.is_some() {
            &[]
        } else {
            std::slice::from_ref(&f)
        };
        m.collect_garbage(roots);
        for (asg, expect) in assignments().zip(truth) {
            assert_eq!(m.eval(f, &asg), expect, "case {case}");
        }
        drop(guard);
    });
}

#[test]
fn permute_roundtrip() {
    for_cases(0xB00D, |case, rng| {
        let e = Expr::random(rng, NVARS, 4);
        let mut m = BddManager::new(NVARS);
        let f = e.build(&mut m);
        // Random permutation (Fisher–Yates).
        let mut perm: Vec<Var> = (0..NVARS).map(Var).collect();
        for i in (1..perm.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        let g = m.permute(f, &perm).unwrap();
        // Inverse permutation restores f.
        let mut inv = vec![Var(0); NVARS as usize];
        for (old, &new) in perm.iter().enumerate() {
            inv[new.0 as usize] = Var(old as u32);
        }
        let back = m.permute(g, &inv).unwrap();
        assert_eq!(back, f, "case {case}");
    });
}

/// Variables for the persistent-memo schedule: enough levels for sifting
/// and explicit reorders to move every cofactor variable around.
const MEMO_VARS: u32 = 6;

#[test]
fn persistent_cofactor_memo_survives_sweeps_and_reorders() {
    // Interleaves every cache flush point (partial-root collection,
    // sifting, explicit reorders, cache resizing) with cofactors of a
    // few live functions. A memo entry surviving a flush it should not
    // would either reference a freed slot (residue audit) or serve a
    // recycled slot's function (truth-table oracle).
    let mut rng = Rng::new(0xC0FA);
    for case in 0..24 {
        let mut m = BddManager::new(MEMO_VARS);
        let exprs: Vec<Expr> = (0..4)
            .map(|_| Expr::random(&mut rng, MEMO_VARS, 5))
            .collect();
        let mut fs: Vec<Bdd> = exprs.iter().map(|e| e.build(&mut m)).collect();
        for step in 0..30 {
            match rng.below(5) {
                0 => {
                    let keep: Vec<bool> = fs.iter().map(|_| rng.flip()).collect();
                    let roots: Vec<Bdd> =
                        (0..fs.len()).filter(|&i| keep[i]).map(|i| fs[i]).collect();
                    m.collect_garbage(&roots);
                    for i in (0..fs.len()).filter(|&i| !keep[i]) {
                        fs[i] = exprs[i].build(&mut m);
                    }
                }
                1 => {
                    m.sift(&fs, &SiftConfig::default());
                }
                2 => {
                    let mut order: Vec<u32> = (0..MEMO_VARS).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                    m.reorder_to(&order, &fs).unwrap();
                }
                3 => m.set_cache_limit(if rng.flip() { 1 } else { 1 << 12 }),
                _ => {}
            }
            for (i, e) in exprs.iter().enumerate() {
                let neg = rng.flip();
                let f = if neg { m.not(fs[i]) } else { fs[i] };
                for v in 0..MEMO_VARS {
                    for val in [false, true] {
                        let cf = m.cofactor(f, Var(v), val).unwrap();
                        for asg in assignments_over(MEMO_VARS) {
                            let mut a = asg.clone();
                            a[v as usize] = val;
                            assert_eq!(
                                m.eval(cf, &asg),
                                e.eval(&a) ^ neg,
                                "case {case} step {step}: f{i}|v{v}={val}"
                            );
                        }
                    }
                }
            }
            let residue = m.audit_cache_residue();
            assert!(residue.is_empty(), "case {case} step {step}: {residue:?}");
        }
    }
}

/// The closed forms of one §2.3 union step, on one point:
/// `(f, g, fˣ, gˣ, v) ↦ (h, fˣ', gˣ')`.
fn union_closed_forms([f, g, fx, gx, v]: [bool; 5]) -> [bool; 3] {
    let maj = (f && g) || (v && (f || g));
    let h = if gx {
        f
    } else if fx {
        g
    } else {
        maj
    };
    let fx1 = fx || (!gx && f != g && v == g);
    let gx1 = gx || (!fx && f != g && v == f);
    [h, fx1, gx1]
}

/// Random operands of one union step that satisfy the kernel's
/// invariants, as formulas. With `v` the choice variable and every part
/// read at `v = 0` (so no part depends on `v`):
///
/// * `f = a ∨ (v ∧ b)` and `g = c ∨ (v ∧ d)` are monotone in `v`;
/// * `fˣ = x ∧ y` and `gˣ = ¬x ∧ z` are disjoint, or one of them is `⊤`
///   and the other `⊥`, or both are `⊥`.
///
/// `g` often shares a part with `f`, so the walk meets identical
/// sub-operands (and sometimes `f = g` outright).
struct UnionCase {
    v: u32,
    /// `a, b, c, d, x, y, z`.
    parts: [Expr; 7],
    /// 0–1: general exclusions; 2: `fˣ = ⊤`; 3: `gˣ = ⊤`; 4: both `⊥`.
    shape: u64,
}

impl UnionCase {
    fn random(rng: &mut Rng, nvars: u32) -> UnionCase {
        let mut parts: [Expr; 7] = std::array::from_fn(|_| Expr::random(rng, nvars, 4));
        if rng.flip() {
            parts[2] = parts[0].clone();
        }
        if rng.flip() {
            parts[3] = parts[1].clone();
        }
        UnionCase {
            v: rng.below(u64::from(nvars)) as u32,
            parts,
            shape: rng.below(5),
        }
    }

    /// `[f, g, fˣ, gˣ, v]` on one point.
    fn eval(&self, asg: &[bool]) -> [bool; 5] {
        let mut at0 = asg.to_vec();
        at0[self.v as usize] = false;
        let [a, b, c, d, x, y, z] = self.parts.each_ref().map(|e| e.eval(&at0));
        let v = asg[self.v as usize];
        let (fx, gx) = match self.shape {
            2 => (true, false),
            3 => (false, true),
            4 => (false, false),
            _ => (x && y, !x && z),
        };
        [a || (v && b), c || (v && d), fx, gx, v]
    }

    /// `[f, g, fˣ, gˣ]` as BDDs.
    fn build(&self, m: &mut BddManager) -> [Bdd; 4] {
        let v = Var(self.v);
        let [a, b, c, d, x, y, z] = self.parts.each_ref().map(|e| {
            let p = e.build(m);
            m.cofactor(p, v, false).unwrap()
        });
        let lit = m.var(v);
        let vb = m.and(lit, b).unwrap();
        let f = m.or(a, vb).unwrap();
        let vd = m.and(lit, d).unwrap();
        let g = m.or(c, vd).unwrap();
        let (fx, gx) = match self.shape {
            2 => (Bdd::TRUE, Bdd::FALSE),
            3 => (Bdd::FALSE, Bdd::TRUE),
            4 => (Bdd::FALSE, Bdd::FALSE),
            _ => {
                let nx = m.not(x);
                (m.and(x, y).unwrap(), m.and(nx, z).unwrap())
            }
        };
        [f, g, fx, gx]
    }
}

/// One random cache flush point for the memo tests: a partial-root
/// collection, after which `build(i, m)` rebuilds every operand set `i`
/// that was not kept, a sift, an explicit reorder, a cache resize, or
/// nothing.
fn random_flush_point<const N: usize>(
    m: &mut BddManager,
    rng: &mut Rng,
    ops: &mut [[Bdd; N]],
    build: impl Fn(usize, &mut BddManager) -> [Bdd; N],
) {
    let live: Vec<Bdd> = ops.iter().flatten().copied().collect();
    match rng.below(5) {
        0 => {
            let keep: Vec<bool> = ops.iter().map(|_| rng.flip()).collect();
            let roots: Vec<Bdd> = (0..ops.len())
                .filter(|&i| keep[i])
                .flat_map(|i| ops[i])
                .collect();
            m.collect_garbage(&roots);
            for i in (0..ops.len()).filter(|&i| !keep[i]) {
                ops[i] = build(i, m);
            }
        }
        1 => {
            m.sift(&live, &SiftConfig::default());
        }
        2 => {
            let mut order: Vec<u32> = (0..MEMO_VARS).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            m.reorder_to(&order, &live).unwrap();
        }
        3 => m.set_cache_limit(if rng.flip() { 1 } else { 1 << 12 }),
        _ => {}
    }
}

/// Checks every result of `union_step` on `ops` against the closed forms
/// over all assignments.
fn check_union_step(m: &mut BddManager, case: &UnionCase, ops: [Bdd; 4], what: &str) {
    let [f, g, fx, gx] = ops;
    let (h, fx1, gx1) = m.union_step(f, g, fx, gx, Var(case.v)).unwrap();
    let overlap = m.and(fx1, gx1).unwrap();
    assert!(overlap.is_false(), "{what}: updated exclusions overlap");
    for asg in assignments_over(MEMO_VARS) {
        let got = [h, fx1, gx1].map(|r| m.eval(r, &asg));
        let expect = union_closed_forms(case.eval(&asg));
        assert_eq!(got, expect, "{what}: (h, fˣ', gˣ') at {asg:?}");
    }
}

#[test]
fn union_step_matches_closed_forms_across_sweeps_and_reorders() {
    // The persistent union memo meets every cache flush point: partial-
    // root collection, sifting, explicit reorders and cache resizing. An
    // entry surviving a flush it should not would either reference a
    // freed slot (residue audit) or serve a recycled slot's function
    // (truth-table oracle).
    let mut rng = Rng::new(0x0B1F);
    let mut memo_hits = 0;
    for case in 0..24 {
        let mut m = BddManager::new(MEMO_VARS);
        let cases: Vec<UnionCase> = (0..4)
            .map(|_| UnionCase::random(&mut rng, MEMO_VARS))
            .collect();
        let mut ops: Vec<[Bdd; 4]> = cases.iter().map(|c| c.build(&mut m)).collect();
        for step in 0..30 {
            random_flush_point(&mut m, &mut rng, &mut ops, |i, m| cases[i].build(m));
            for (i, c) in cases.iter().enumerate() {
                check_union_step(
                    &mut m,
                    c,
                    ops[i],
                    &format!("case {case} step {step} op {i}"),
                );
            }
            let residue = m.audit_cache_residue();
            assert!(residue.is_empty(), "case {case} step {step}: {residue:?}");
        }
        let stats = m.cache_stats();
        memo_hits += stats.iter().find(|s| s.name == "union").unwrap().hits;
    }
    assert!(memo_hits > 0, "the union memo never hit");
}

#[test]
fn union_step_memo_keys_on_the_variable_and_both_exclusions() {
    // Each call differs from the one before it in exactly one of v, fˣ
    // and gˣ, and its results differ too. A memo key missing that operand
    // would serve the previous call's entry.
    let mut m = BddManager::new(3);
    let x2 = m.var(Var(2));
    let (f, g) = (Bdd::FALSE, Bdd::TRUE);
    let calls = [
        (Bdd::FALSE, Bdd::FALSE, 0),
        (Bdd::FALSE, Bdd::FALSE, 1), // v changed
        (x2, Bdd::FALSE, 1),         // fˣ changed
        (Bdd::FALSE, x2, 1),         // gˣ changed
    ];
    for (fx, gx, v) in calls {
        let (h, fx1, gx1) = m.union_step(f, g, fx, gx, Var(v)).unwrap();
        for asg in assignments_over(3) {
            let point = [
                false,
                true,
                m.eval(fx, &asg),
                m.eval(gx, &asg),
                asg[v as usize],
            ];
            let got = [h, fx1, gx1].map(|r| m.eval(r, &asg));
            assert_eq!(
                got,
                union_closed_forms(point),
                "v{v}, fˣ {fx:?}, gˣ {gx:?} at {asg:?}"
            );
        }
    }
}

#[test]
fn union_step_on_constant_operands_matches_closed_forms() {
    // Every constant operand tuple with disjoint exclusions, v the
    // literal: the kernel's terminal cases and its split on v alone.
    let mut m = BddManager::new(1);
    let c = |b: bool| if b { Bdd::TRUE } else { Bdd::FALSE };
    for bits in 0..16u32 {
        let [f, g, fx, gx] = [0, 1, 2, 3].map(|i| bits & (1 << i) != 0);
        if fx && gx {
            continue;
        }
        let (h, fx1, gx1) = m.union_step(c(f), c(g), c(fx), c(gx), Var(0)).unwrap();
        for v in [false, true] {
            let got = [h, fx1, gx1].map(|r| m.eval(r, &[v]));
            assert_eq!(
                got,
                union_closed_forms([f, g, fx, gx, v]),
                "{bits:04b} v={v}"
            );
        }
    }
}

/// Random operands of one fused §2.6 step: a component `n` over every
/// variable, in either polarity, a choice variable `v`, a parameter
/// `p ≠ v`, and exclusions shaped as in [`UnionCase`] but read at `p = 0`,
/// so that they do not depend on `p`.
struct QuantifyCase {
    n: Expr,
    neg: bool,
    v: u32,
    p: u32,
    /// `x, y, z`: `fˣ = x ∧ y` and `gˣ = ¬x ∧ z` in the general shapes.
    parts: [Expr; 3],
    /// 0–1: general exclusions; 2: `fˣ = ⊤`; 3: `gˣ = ⊤`; 4: both `⊥`.
    shape: u64,
}

impl QuantifyCase {
    fn random(rng: &mut Rng, nvars: u32) -> QuantifyCase {
        let v = rng.below(u64::from(nvars)) as u32;
        let p = (v + 1 + rng.below(u64::from(nvars) - 1) as u32) % nvars;
        QuantifyCase {
            n: Expr::random(rng, nvars, 5),
            neg: rng.flip(),
            v,
            p,
            parts: std::array::from_fn(|_| Expr::random(rng, nvars, 3)),
            shape: rng.below(5),
        }
    }

    /// `[n, fˣ, gˣ]` as BDDs.
    fn build(&self, m: &mut BddManager) -> [Bdd; 3] {
        let n = self.n.build(m);
        let n = if self.neg { m.not(n) } else { n };
        let p = Var(self.p);
        let [x, y, z] = self.parts.each_ref().map(|e| {
            let f = e.build(m);
            m.cofactor(f, p, false).unwrap()
        });
        let (fx, gx) = match self.shape {
            2 => (Bdd::TRUE, Bdd::FALSE),
            3 => (Bdd::FALSE, Bdd::TRUE),
            4 => (Bdd::FALSE, Bdd::FALSE),
            _ => {
                let nx = m.not(x);
                (m.and(x, y).unwrap(), m.and(nx, z).unwrap())
            }
        };
        [n, fx, gx]
    }
}

/// Where `p`'s level lies against the tops of `v` and the non-constant
/// exclusions: 0 above all of them, 1 between, 2 below all of them.
fn parameter_position(m: &BddManager, case: &QuantifyCase, fx: Bdd, gx: Bdd) -> usize {
    let mut tops = vec![m.var_to_level(Var(case.v))];
    for b in [fx, gx].into_iter().filter(|b| !b.is_const()) {
        tops.push(m.var_to_level(m.top_var(b)));
    }
    let pl = m.var_to_level(Var(case.p));
    match tops.iter().filter(|&&t| t < pl).count() {
        0 => 0,
        k if k == tops.len() => 2,
        _ => 1,
    }
}

/// `quantify_step` against its definition, handle for handle: both
/// cofactors built, then one `union_step`.
fn check_quantify_step(m: &mut BddManager, case: &QuantifyCase, ops: [Bdd; 3], what: &str) {
    let [n, fx, gx] = ops;
    let (v, p) = (Var(case.v), Var(case.p));
    let fused = m.quantify_step(n, fx, gx, v, p).unwrap();
    let n0 = m.cofactor(n, p, false).unwrap();
    let n1 = m.cofactor(n, p, true).unwrap();
    let split = m.union_step(n0, n1, fx, gx, v).unwrap();
    assert_eq!(fused, split, "{what}: fused vs split step");
}

#[test]
fn quantify_step_equals_cofactors_then_union_step_across_sweeps_and_reorders() {
    // The fused §2.6 kernel against its definition. The persistent
    // quantify memo meets every cache flush point, as the union memo
    // does above; random reorders move p above, between and below v and
    // the exclusions.
    let mut rng = Rng::new(0x0A7F);
    let mut positions = [0usize; 3];
    let mut polarities = [0usize; 2];
    let mut shapes = [0usize; 5];
    let mut memo_hits = 0;
    for case in 0..24 {
        let mut m = BddManager::new(MEMO_VARS);
        let cases: Vec<QuantifyCase> = (0..4)
            .map(|_| QuantifyCase::random(&mut rng, MEMO_VARS))
            .collect();
        let mut ops: Vec<[Bdd; 3]> = cases.iter().map(|c| c.build(&mut m)).collect();
        for step in 0..30 {
            random_flush_point(&mut m, &mut rng, &mut ops, |i, m| cases[i].build(m));
            for (i, c) in cases.iter().enumerate() {
                let [_, fx, gx] = ops[i];
                positions[parameter_position(&m, c, fx, gx)] += 1;
                polarities[usize::from(c.neg)] += 1;
                shapes[c.shape as usize] += 1;
                check_quantify_step(
                    &mut m,
                    c,
                    ops[i],
                    &format!("case {case} step {step} op {i}"),
                );
            }
            let residue = m.audit_cache_residue();
            assert!(residue.is_empty(), "case {case} step {step}: {residue:?}");
        }
        let stats = m.cache_stats();
        memo_hits += stats.iter().find(|s| s.name == "quantify").unwrap().hits;
    }
    assert!(
        positions.iter().all(|&k| k > 0),
        "p above/between/below: {positions:?}"
    );
    assert!(polarities.iter().all(|&k| k > 0), "{polarities:?}");
    assert!(shapes.iter().all(|&k| k > 0), "{shapes:?}");
    assert!(memo_hits > 0, "the quantify memo never hit");
}

#[test]
fn quantify_step_memo_keys_on_the_parameter() {
    // The same (n, fˣ, gˣ, v) under two parameters: n = x1 ⊕ x2 with v
    // the top variable, so both calls memoize an entry above p's level,
    // and their fˣ' differ (v ↔ ¬x2 against v ↔ ¬x1). A key without p
    // would serve the first call's entry to the second.
    let mut m = BddManager::new(3);
    let (x1, x2) = (m.var(Var(1)), m.var(Var(2)));
    let n = m.xor(x1, x2).unwrap();
    let (fx, gx, v) = (Bdd::FALSE, Bdd::FALSE, Var(0));
    let quantify_hits = |m: &BddManager| {
        m.cache_stats()
            .iter()
            .find(|s| s.name == "quantify")
            .unwrap()
            .hits
    };
    let mut seen = Vec::new();
    for p in [Var(1), Var(2), Var(1), Var(2)] {
        let hits = quantify_hits(&m);
        let fused = m.quantify_step(n, fx, gx, v, p).unwrap();
        let n0 = m.cofactor(n, p, false).unwrap();
        let n1 = m.cofactor(n, p, true).unwrap();
        assert_eq!(fused, m.union_step(n0, n1, fx, gx, v).unwrap(), "{p}");
        if seen.len() >= 2 {
            assert!(quantify_hits(&m) > hits, "repeat call for {p} missed");
        }
        seen.push(fused);
    }
    assert_ne!(seen[0], seen[1], "the two parameters gave one step");
}

#[test]
fn quantify_step_on_constant_exclusions_reads_one_cofactor() {
    // fˣ = ⊤ keeps only the second operand of the union, n|p=1; gˣ = ⊤
    // keeps n|p=0. Both polarities of n, p above and below v.
    let mut m = BddManager::new(4);
    let x: Vec<Bdd> = (0..4).map(|i| m.var(Var(i))).collect();
    let a = m.and(x[0], x[2]).unwrap();
    let n = m.xor(a, x[3]).unwrap();
    for n in [n, m.not(n)] {
        for (v, p) in [(Var(1), Var(0)), (Var(1), Var(2)), (Var(0), Var(3))] {
            let hi = m.cofactor(n, p, true).unwrap();
            let lo = m.cofactor(n, p, false).unwrap();
            let got = m.quantify_step(n, Bdd::TRUE, Bdd::FALSE, v, p).unwrap();
            assert_eq!(got, (hi, Bdd::TRUE, Bdd::FALSE), "fˣ = ⊤, {v}, {p}");
            let got = m.quantify_step(n, Bdd::FALSE, Bdd::TRUE, v, p).unwrap();
            assert_eq!(got, (lo, Bdd::FALSE, Bdd::TRUE), "gˣ = ⊤, {v}, {p}");
        }
    }
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "must not depend on p")]
fn quantify_step_rejects_exclusions_that_read_the_parameter() {
    let mut m = BddManager::new(3);
    let n = m.var(Var(2));
    let fx = m.var(Var(2));
    let _ = m.quantify_step(n, fx, Bdd::FALSE, Var(0), Var(2));
}

/// Interior nodes under `roots`, counted by a walk of its own over the
/// public `low`/`high` cofactors: the reference for the size walks.
fn reference_shared_size(m: &BddManager, roots: &[Bdd]) -> usize {
    let mut seen = std::collections::HashSet::new();
    let mut stack: Vec<Bdd> = roots.to_vec();
    while let Some(f) = stack.pop() {
        // The edge word's low bit is the complement flag; a node and its
        // complement are one node.
        if f.is_const() || !seen.insert(f.index() >> 1) {
            continue;
        }
        stack.push(m.low(f));
        stack.push(m.high(f));
    }
    seen.len()
}

/// Checks `shared_size_capped` at the caps either side of the true size.
fn check_capped_walk(m: &BddManager, roots: &[Bdd], what: &str) {
    let size = m.shared_size(roots);
    assert_eq!(size, reference_shared_size(m, roots), "{what}: shared_size");
    let caps = [
        0,
        1,
        size.saturating_sub(1),
        size,
        size + 1,
        size + 7,
        usize::MAX,
    ];
    for cap in caps {
        assert_eq!(
            m.shared_size_capped(roots, cap),
            size.min(cap),
            "{what}: cap {cap} of size {size}"
        );
    }
}

#[test]
fn capped_size_walk_is_the_min_of_size_and_cap() {
    // Multi-root sets with complemented roots, duplicates, constants and
    // subgraphs shared between roots, checked on the fresh graph (with
    // its garbage), after a sweep to the roots, and after a sift.
    let mut rng = Rng::new(0x51CA);
    for case in 0..64 {
        let mut m = BddManager::new(MEMO_VARS);
        let exprs: Vec<Expr> = (0..3)
            .map(|_| Expr::random(&mut rng, MEMO_VARS, 5))
            .collect();
        let fs: Vec<Bdd> = exprs.iter().map(|e| e.build(&mut m)).collect();
        let mut roots = Vec::new();
        for &f in &fs {
            roots.push(if rng.flip() { m.not(f) } else { f });
        }
        // A root built from the others shares their subgraphs.
        let joined = m.ite(fs[0], fs[1], fs[2]).unwrap();
        roots.push(joined);
        roots.push(m.not(roots[0]));
        roots.push(if rng.flip() { Bdd::TRUE } else { Bdd::FALSE });
        let what = format!("case {case}");
        check_capped_walk(&m, &roots, &what);
        for k in 0..roots.len() {
            check_capped_walk(&m, &roots[k..=k], &format!("{what} root {k}"));
        }
        check_capped_walk(&m, &[], &format!("{what} no roots"));
        m.collect_garbage(&roots);
        check_capped_walk(&m, &roots, &format!("{what} after sweep"));
        m.sift(&roots, &SiftConfig::default());
        check_capped_walk(&m, &roots, &format!("{what} after sift"));
    }
}
