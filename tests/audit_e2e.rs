//! End-to-end audit: every engine's every intermediate set audits clean
//! on bundled circuits (via the per-iteration observer), and the `bfvr
//! audit` CLI holds its exit-code contract.

use std::cell::RefCell;
use std::process::Command;
use std::rc::Rc;

use bfvr::audit::{run_passes, AuditTargets, Report};
use bfvr::netlist::{circuits, generators, Netlist};
use bfvr::reach::portfolio::Lane;
use bfvr::reach::{run, Outcome, ReachOptions};
use bfvr::sim::{EncodedFsm, OrderHeuristic};

/// Runs every engine lane over `net` with an observer
/// that audits each iteration's live set — graph, leaks, all semantic
/// passes, and the cross-representation converters — then audits the
/// final reached χ. Any finding anywhere fails the test.
fn audit_all_engines(net: &Netlist) {
    audit_all_engines_under(net, OrderHeuristic::DfsFanin, &ReachOptions::default());
}

/// [`audit_all_engines`] with an explicit static order and base options
/// (the sifted-traversal tests arm `--sift` through `base`).
fn audit_all_engines_under(net: &Netlist, order: OrderHeuristic, base: &ReachOptions) {
    for lane in Lane::all_lanes() {
        let (mut m, fsm) = EncodedFsm::encode(net, order).unwrap();
        let report = Rc::new(RefCell::new(Report::new()));
        let sink = Rc::clone(&report);
        let opts = ReachOptions {
            observer: Some(Rc::new(move |m, fsm, view| {
                let space = fsm.space();
                let targets = AuditTargets::for_view(&space, &view.set).with_leak_roots(view.roots);
                let scope = format!("{}/iter[{}]", view.engine.label(), view.iteration);
                run_passes(m, &targets, &scope, &mut sink.borrow_mut()).unwrap();
            })),
            ..base.clone()
        };
        let r = run(lane.engine, &mut m, &fsm, &opts);
        assert_eq!(r.outcome, Outcome::FixedPoint, "{lane:?} on {}", net.name());
        assert!(r.iterations > 1, "{lane:?} on {}: trivial run", net.name());
        let chi = r.reached_chi.as_ref().unwrap();
        let space = fsm.space();
        run_passes(
            &mut m,
            &AuditTargets::for_chi(&space, chi.bdd()),
            &format!("{}/final", lane.label()),
            &mut report.borrow_mut(),
        )
        .unwrap();
        let report = report.borrow();
        assert!(
            report.is_empty(),
            "{lane:?} on {}:\n{}",
            net.name(),
            report.render()
        );
    }
}

#[test]
fn s27_audits_clean_on_all_engines() {
    audit_all_engines(&circuits::s27());
}

#[test]
fn counter_audits_clean_on_all_engines() {
    audit_all_engines(&generators::counter(5));
}

#[test]
fn queue_controller_audits_clean_on_all_engines() {
    audit_all_engines(&generators::queue_controller(2));
}

#[test]
fn paired_registers_audit_clean_on_all_engines() {
    audit_all_engines(&generators::paired_registers(4));
}

#[test]
fn sifted_traversal_audits_clean_on_all_engines() {
    // A deliberately bad static order (reversed declaration) over a
    // pair circuit large enough to cross the sifting floor: the χ
    // lanes reorder mid-run, and every intermediate and final set —
    // audited across the reorder boundary, including the χ↔BFV
    // converters running against a permuted manager — must still pass
    // the full battery.
    let opts = ReachOptions {
        sift: true,
        sift_trigger: 1.2,
        ..ReachOptions::default()
    };
    audit_all_engines_under(
        &generators::paired_registers(6),
        OrderHeuristic::Reversed,
        &opts,
    );
}

// ------------------------------------------------ CLI contract

#[test]
fn cli_audit_clean_circuit_exits_zero_with_summary() {
    let out = Command::new(env!("CARGO_BIN_EXE_bfvr"))
        .args(["audit", "gen:s27"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 error(s)"), "{stdout}");
    // All five engines ran and were audited.
    for label in ["BFV", "CBM", "MONO", "IWLS95", "CDEC"] {
        assert!(stdout.contains(label), "missing {label}: {stdout}");
    }
}

#[test]
fn cli_audit_with_sift_exits_zero_and_tags_the_lane() {
    let out = Command::new(env!("CARGO_BIN_EXE_bfvr"))
        .args([
            "audit",
            "gen:pair:6",
            "--engine",
            "mono",
            "--order",
            "d",
            "--sift",
            "--sift-trigger",
            "1.2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 error(s)"), "{stdout}");
    assert!(stdout.contains("MONO~S"), "missing sift lane tag: {stdout}");
}

#[test]
fn cli_audit_selftest_reports_every_mutation_detected() {
    let out = Command::new(env!("CARGO_BIN_EXE_bfvr"))
        .args(["audit", "gen:counter:4", "--engine", "bfv", "--selftest"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.matches("-> detected by").count(),
        9,
        "every mutation must be detected: {stdout}"
    );
    assert!(!stdout.contains("NOT DETECTED"), "{stdout}");
}

#[test]
fn cli_audit_bad_input_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_bfvr"))
        .args(["audit", "gen:nosuchfamily:3"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn cli_audit_of_a_lane_that_stops_early_fails() {
    // The node limit stops the run at M.O. long before lfsr10's 1023
    // iterations; the iterations it reached audit clean.
    let out = Command::new(env!("CARGO_BIN_EXE_bfvr"))
        .args([
            "audit",
            "gen:lfsr:10",
            "--engine",
            "bfv",
            "--node-limit",
            "1000",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
    let lane = stdout.lines().find(|l| l.starts_with("BFV")).unwrap();
    assert!(lane.contains("M.O."), "{stdout}");
    assert!(
        stderr.starts_with("error: audit incomplete: BFV ended M.O. after "),
        "{stderr}"
    );
}

fn bfvr_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bfvr"))
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).to_string()
}

/// Golden output: the exact stdout of the audit mutation self-test —
/// lane row, mutation table (labels, passes, witnesses, finding counts)
/// and the summary tally.
#[test]
fn cli_audit_selftest_golden_stdout() {
    assert_eq!(
        bfvr_stdout(&["audit", "gen:counter:4", "--engine", "bfv", "--selftest"]),
        "\
BFV            ok    16 iteration(s), 16 state(s), audited
mutation self-test over cnt4's reached set:
  graph/complement-hi    -> detected by graph-wf, with witness (4 finding(s))
  graph/free-live-slot   -> detected by leak (4 finding(s))
  leak/unrooted-survivor -> detected by leak, with witness (1 finding(s))
  bfv/widen-support      -> detected by bfv-support, with witness (4 finding(s))
  bfv/flip-complement    -> detected by bfv-partition, with witness (2 finding(s))
  bfv/negate-head        -> detected by bfv-idempotence, with witness (2 finding(s))
  cdec/widen-constraint  -> detected by cdec-prefix, with witness (3 finding(s))
  cdec/drop-constraint   -> detected by cdec-prefix (1 finding(s))
  chi/flip-member        -> detected by cross-equiv, with witness (1 finding(s))
audit: 0 finding(s) — 0 error(s), 0 warning(s), 0 note(s)
"
    );
}

/// Golden output: the exact stdout of `bfvr audit gen:s27` over all five
/// engines.
#[test]
fn cli_audit_s27_golden_stdout() {
    assert_eq!(
        bfvr_stdout(&["audit", "gen:s27"]),
        "\
BFV            ok     2 iteration(s), 6 state(s), audited
CBM            ok     2 iteration(s), 6 state(s), audited
MONO           ok     2 iteration(s), 6 state(s), audited
IWLS95         ok     2 iteration(s), 6 state(s), audited
CDEC           ok     2 iteration(s), 6 state(s), audited
audit: 0 finding(s) — 0 error(s), 0 warning(s), 0 note(s)
"
    );
}
