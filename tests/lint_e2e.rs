//! End-to-end `bfvr-nlint`: count-preserving simplification must leave
//! the reached-state count of every exact engine × representation lane
//! bit-identical on every generator family, the simplified netlist must
//! audit clean, and the `bfvr lint` CLI holds its exit-code contract.

use std::process::{Command, Output};

use bfvr::audit::{run_passes as audit_passes, AuditTargets, Report as AuditReport};
use bfvr::netlist::{circuits, generators, Netlist};
use bfvr::nlint::{run_passes, simplify, simplify_with, SimplifyOptions};
use bfvr::reach::portfolio::Lane;
use bfvr::reach::{run_repr, Outcome, ReachOptions};
use bfvr::sim::{EncodedFsm, OrderHeuristic};

/// One modest instance per generator family, plus the bundled s27 —
/// small enough that the full exact lane matrix stays fast in debug.
fn family_suite() -> Vec<Netlist> {
    vec![
        circuits::s27(),
        generators::counter(6),
        generators::counter_modk(4, 10),
        generators::gray(5),
        generators::lfsr(6),
        generators::shift_register(6),
        generators::johnson(6),
        generators::paired_registers(5),
        generators::queue_controller(3),
        generators::rotator(7),
        generators::traffic_chain(2),
    ]
}

fn exact_count(net: &Netlist, lane: Lane) -> f64 {
    let (mut m, fsm) = EncodedFsm::encode(net, OrderHeuristic::DfsFanin).unwrap();
    let r = run_repr(
        lane.engine,
        lane.repr,
        &mut m,
        &fsm,
        &ReachOptions::default(),
    );
    assert_eq!(r.outcome, Outcome::FixedPoint, "{lane:?} on {}", net.name());
    r.reached_states.unwrap()
}

/// Default (count-preserving) simplification: every exact lane reaches
/// the identical state count on the simplified netlist, and the
/// simplified netlist never grew.
#[test]
fn simplification_preserves_reached_counts_across_all_exact_lanes() {
    for net in family_suite() {
        let s = simplify(&net).unwrap();
        let name = net.name();
        assert!(
            s.netlist.gates().len() <= net.gates().len()
                && s.netlist.latches().len() <= net.latches().len(),
            "{name}: simplification must not grow the netlist"
        );
        for lane in Lane::all_lanes() {
            if lane.over_approximates() {
                continue;
            }
            let before = exact_count(&net, lane);
            let after = exact_count(&s.netlist, lane);
            assert_eq!(
                before.to_bits(),
                after.to_bits(),
                "{name}/{lane:?}: simplification changed the reached count \
                 ({before} -> {after})"
            );
        }
    }
}

/// The simplified netlist lints clean of the findings simplification
/// claims to discharge (stuck gates, duplicate gates), and its final
/// reached set audits clean.
#[test]
fn simplified_netlists_lint_and_audit_clean() {
    for net in family_suite() {
        let s = simplify_with(&net, SimplifyOptions { prune_dead: true }).unwrap();
        let name = net.name();
        let report = run_passes(&s.netlist);
        assert!(!report.has_errors(), "{name}: {}", report.render());
        for f in report.sorted() {
            assert!(
                !matches!(
                    f.pass,
                    bfvr::nlint::Pass::ConstProp | bfvr::nlint::Pass::DupGate
                ),
                "{name}: simplification left a discharged finding: {f}"
            );
        }
        // Exactness audit of the final reached χ on the simplified FSM.
        let (mut m, fsm) = EncodedFsm::encode(&s.netlist, OrderHeuristic::DfsFanin).unwrap();
        let r = bfvr::reach::reach_bfv(&mut m, &fsm, &ReachOptions::default());
        assert_eq!(r.outcome, Outcome::FixedPoint, "{name}");
        let chi = r.reached_chi.as_ref().unwrap();
        let space = fsm.space();
        let mut audit = AuditReport::new();
        audit_passes(
            &mut m,
            &AuditTargets::for_chi(&space, chi.bdd()),
            &format!("{name}/simplified"),
            &mut audit,
        )
        .unwrap();
        assert!(audit.is_empty(), "{name}: {}", audit.render());
    }
}

/// Dead-latch pruning is opt-in because it projects the state space:
/// pair5 has dead shadow registers, so the pruned count differs while
/// the default (count-preserving) path keeps them.
#[test]
fn dead_latch_pruning_is_opt_in() {
    let net = generators::paired_registers(5);
    let kept = simplify(&net).unwrap();
    assert!(kept.dead_latches.is_empty());
    assert_eq!(kept.netlist.latches().len(), net.latches().len());
    let pruned = simplify_with(&net, SimplifyOptions { prune_dead: true }).unwrap();
    assert!(!pruned.dead_latches.is_empty());
    assert!(pruned.netlist.latches().len() < net.latches().len());
}

fn bfvr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bfvr"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// `bfvr lint` exit-code contract: clean circuits exit 0, `--selftest`
/// detects every seeded corruption, `--fix` writes a parseable netlist
/// with the identical reached count, `--prune` requires `--fix`.
#[test]
fn lint_cli_contract() {
    let clean = bfvr(&["lint", "gen:s27", "--selftest"]);
    assert!(clean.status.success(), "{clean:?}");
    let out = String::from_utf8_lossy(&clean.stdout).to_string();
    assert!(out.contains("0 error(s)"), "{out}");
    assert!(out.contains("detected by"), "{out}");
    assert!(!out.contains("NOT DETECTED"), "{out}");

    let dir = std::env::temp_dir().join("bfvr_lint_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let fixed = dir.join("pair5.bench");
    let fix = bfvr(&["lint", "gen:pair:5", "--fix", fixed.to_str().unwrap()]);
    assert!(fix.status.success(), "{fix:?}");
    let reach_fixed = bfvr(&["reach", fixed.to_str().unwrap()]);
    assert!(reach_fixed.status.success());
    let reach_orig = bfvr(&["reach", "gen:pair:5"]);
    let states = |o: &Output| {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .last()
            .unwrap()
            .split_whitespace()
            .nth(2)
            .unwrap()
            .to_string()
    };
    assert_eq!(states(&reach_fixed), states(&reach_orig));

    let bad = bfvr(&["lint", "gen:s27", "--prune"]);
    assert!(!bad.status.success());
}

/// `--selftest` on a netlist the seeded corruptions cannot act on (no
/// gate to splice, no latch to hold) is an error naming the requirement,
/// never a panic.
#[test]
fn lint_selftest_on_degenerate_netlists_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("bfvr_lint_degenerate_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, text, want) in [
        (
            "nogate.bench",
            "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n",
            "lint self-test needs a gate with at least one fan-in",
        ),
        (
            "constgate.bench",
            "OUTPUT(q)\nq = DFF(one)\none = CONST1()\n",
            "lint self-test needs a gate with at least one fan-in",
        ),
        (
            "nolatch.bench",
            "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
            "lint self-test needs a latch",
        ),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let o = bfvr(&["lint", path.to_str().unwrap(), "--selftest"]);
        assert!(!o.status.success(), "{name} must fail");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.contains(want), "{name}: {err}");
        assert!(!err.contains("panicked"), "{name}: {err}");
    }
}

/// `--order coi|force` preserves reached-state counts through the CLI on
/// s27 and queue4 (the acceptance circuits).
#[test]
fn cli_order_flags_preserve_counts() {
    for (spec, expect) in [("gen:s27", "6"), ("gen:queue:4", "272")] {
        for order in ["s1", "decl", "coi", "force"] {
            let o = bfvr(&["reach", spec, "--order", order]);
            assert!(o.status.success(), "{spec}/{order}: {o:?}");
            let out = String::from_utf8_lossy(&o.stdout).to_string();
            let row = out.lines().last().unwrap();
            assert_eq!(
                row.split_whitespace().nth(2),
                Some(expect),
                "{spec}/{order}: {row}"
            );
        }
    }
}

fn corrupt_fixture() -> String {
    format!(
        "{}/tests/fixtures/corrupt.bench",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Golden output: the exact stdout of `bfvr lint` on the seeded-corrupt
/// fixture — finding order, rendering and the summary tally.
#[test]
fn lint_corrupt_fixture_golden_stdout() {
    let o = bfvr(&["lint", &corrupt_fixture()]);
    assert!(o.status.success(), "{o:?}");
    assert_eq!(
        String::from_utf8_lossy(&o.stdout),
        "\
warning[const-prop]: latch `dead` never leaves its reset value 0
  --> latch/dead
  witness: stuck-at-0
warning[const-prop]: gate `ndead` is stuck at 0 in every reachable state
  --> signal/ndead
  witness: stuck-at-0
warning[dead-latch]: latch `dead` lies outside every output cone of influence
  --> latch/dead
warning[dup-gate]: gate `g1` is structurally identical to `g2`
  --> signal/g1
  witness: g2, g1
warning[unread]: gate output `orphan` is never read by a gate, latch or output
  --> signal/orphan
info[support]: next-state support: 2 slot(s) (1 latches, 1 inputs)
  --> latch/dead
  witness: dead, b
info[support]: next-state support: 2 slot(s) (1 latches, 1 inputs)
  --> latch/q0
  witness: q0, a
lint: 7 finding(s) — 0 error(s), 5 warning(s), 2 note(s)
"
    );
}

/// Golden output: the exact stdout of `bfvr lint gen:s27 --selftest` —
/// the report followed by the mutation table.
#[test]
fn lint_selftest_golden_stdout() {
    let o = bfvr(&["lint", "gen:s27", "--selftest"]);
    assert!(o.status.success(), "{o:?}");
    assert_eq!(
        String::from_utf8_lossy(&o.stdout),
        "\
info[support]: next-state support: 6 slot(s) (3 latches, 3 inputs)
  --> latch/G5
  witness: G5, G6, G7, G0, G1, G3
info[support]: next-state support: 6 slot(s) (3 latches, 3 inputs)
  --> latch/G6
  witness: G5, G6, G7, G0, G1, G3
info[support]: next-state support: 3 slot(s) (1 latches, 2 inputs)
  --> latch/G7
  witness: G7, G1, G2
lint: 3 finding(s) — 0 error(s), 0 warning(s), 3 note(s)
netlist mutation self-test on s27:
  cycle/splice     -> detected by comb-cycle, with witness (1 finding(s))
  undriven/ghost   -> detected by undriven (1 finding(s))
  unread/orphan    -> detected by unread (1 finding(s))
  unread/input     -> detected by unread (1 finding(s))
  stuck/and0       -> detected by const-prop, with witness (1 finding(s))
  stuck/or1        -> detected by const-prop, with witness (1 finding(s))
  latch/constant   -> detected by const-prop, with witness (1 finding(s))
  latch/dead       -> detected by dead-latch (1 finding(s))
  gate/duplicate   -> detected by dup-gate, with witness (1 finding(s))
"
    );
}
