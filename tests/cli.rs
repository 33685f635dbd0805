//! End-to-end tests of the `bfvr` command-line tool.

use std::process::{Command, Output};

fn bfvr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bfvr"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).to_string()
}

#[test]
fn help_prints_usage() {
    let o = bfvr(&["help"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("USAGE"));
    let none = bfvr(&[]);
    assert!(none.status.success());
}

#[test]
fn unknown_command_fails() {
    let o = bfvr(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("unknown command"));
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).to_string()
}

#[test]
fn unknown_flags_are_usage_errors() {
    for (args, flag) in [
        (&["reach", "gen:s27", "--parallel"][..], "--parallel"),
        (
            &["reach", "gen:s27", "--engine", "bfv", "--jobz", "2"],
            "--jobz",
        ),
        (&["audit", "gen:s27", "--jobs", "2"], "--jobs"),
        (&["lint", "gen:s27", "--bogus-flag"], "--bogus-flag"),
        (
            &["resume", "--from", "missing.ckpt", "--engine", "bfv"],
            "--engine",
        ),
    ] {
        let o = bfvr(args);
        assert!(!o.status.success(), "{args:?} must fail");
        let want = format!("unknown flag `{flag}`");
        assert!(stderr(&o).contains(&want), "{args:?}: {}", stderr(&o));
    }
}

/// A purely combinational circuit has no state to traverse: every
/// traversal command exits nonzero with an error, never a panic.
#[test]
fn latch_free_circuit_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("bfvr_cli_latchfree_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("comb.bench");
    std::fs::write(&path, "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
    let file = path.to_str().unwrap();
    for args in [
        &["reach", file][..],
        &["reach", file, "--race"],
        &["audit", file],
        &["check", file, "--bad", "1"],
        &["trace", file, "--to", "1"],
    ] {
        let o = bfvr(args);
        assert!(!o.status.success(), "{args:?} must fail");
        let err = stderr(&o);
        assert!(err.contains("has no latches"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn jobs_requires_race() {
    let o = bfvr(&["reach", "gen:s27", "--jobs", "2"]);
    assert!(!o.status.success());
    assert!(
        stderr(&o).contains("--jobs requires --race"),
        "{}",
        stderr(&o)
    );
    let raced = bfvr(&["reach", "gen:s27", "--race", "--jobs", "1"]);
    assert!(raced.status.success(), "{}", stderr(&raced));
    assert!(stdout(&raced).contains("<- winner"), "{}", stdout(&raced));
}

#[test]
fn gen_emits_parseable_bench() {
    let o = bfvr(&["gen", "counter:5"]);
    assert!(o.status.success());
    let net = bfvr::netlist::bench::parse(&stdout(&o)).expect("gen output parses");
    assert_eq!(net.latches().len(), 5);
    let bad = bfvr(&["gen", "nonsense:1"]);
    assert!(!bad.status.success());
}

#[test]
fn stats_via_gen_pseudofile() {
    let o = bfvr(&["stats", "gen:s27"]);
    assert!(o.status.success());
    let out = stdout(&o);
    assert!(out.contains("3 latches"));
    assert!(out.contains("logic depth"));
}

#[test]
fn convert_roundtrip_through_files() {
    let dir = std::env::temp_dir().join("bfvr_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let bench_path = dir.join("c.bench");
    let blif_path = dir.join("c.blif");
    let gen = bfvr(&["gen", "johnson:5"]);
    std::fs::write(&bench_path, stdout(&gen)).unwrap();
    let to_blif = bfvr(&["convert", bench_path.to_str().unwrap(), "--to", "blif"]);
    assert!(to_blif.status.success());
    std::fs::write(&blif_path, stdout(&to_blif)).unwrap();
    let back = bfvr(&["convert", blif_path.to_str().unwrap(), "--to", "bench"]);
    assert!(
        back.status.success(),
        "blif did not convert back: {}",
        String::from_utf8_lossy(&back.stderr)
    );
    let net = bfvr::netlist::bench::parse(&stdout(&back)).expect("round trip parses");
    assert_eq!(net.latches().len(), 5);
}

#[test]
fn reach_reports_states() {
    let o = bfvr(&["reach", "gen:modk:4:10", "--engine", "all"]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let out = stdout(&o);
    // All five engine rows complete and report 10 states.
    let rows: Vec<&str> = out.lines().skip(1).collect();
    assert_eq!(rows.len(), 5, "{out}");
    for row in rows {
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cols[1], "ok", "{row}");
        assert_eq!(cols[2], "10", "{row}");
    }
}

#[test]
fn check_holds_and_violated() {
    // mod-5 counter never shows 111 (value 7).
    let holds = bfvr(&["check", "gen:modk:3:5", "--bad", "111"]);
    assert!(holds.status.success());
    assert!(stdout(&holds).contains("HOLDS"));
    // Plain counter does reach 111.
    let violated = bfvr(&["check", "gen:counter:3", "--bad", "111"]);
    assert!(!violated.status.success());
    assert!(stdout(&violated).contains("VIOLATED at depth 7"));
}

#[test]
fn trace_prints_steps() {
    let o = bfvr(&["trace", "gen:counter:3", "--to", "101"]);
    assert!(o.status.success());
    let out = stdout(&o);
    assert!(out.contains("in 5 steps"), "{out}");
    assert!(out.contains("en=1"));
    let unreach = bfvr(&["trace", "gen:modk:3:5", "--to", "111"]);
    assert!(unreach.status.success());
    assert!(stdout(&unreach).contains("UNREACHABLE"));
}

#[test]
fn bad_cube_width_reported() {
    let o = bfvr(&["check", "gen:counter:3", "--bad", "1"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("3 latches"));
}

#[test]
fn dump_reached_prints_cubes() {
    let o = bfvr(&["reach", "gen:johnson:4", "--dump-reached"]);
    assert!(o.status.success());
    let out = stdout(&o);
    assert!(out.contains("one cube per line"));
    // The 8 Johnson codes pack into exactly 4 cubes.
    let cubes: Vec<&str> = out
        .lines()
        .filter(|l| l.trim_start().chars().all(|c| "01-".contains(c)) && !l.trim().is_empty())
        .collect();
    assert_eq!(cubes.len(), 4, "{out}");
}

#[test]
fn convert_to_verilog() {
    let o = bfvr(&["convert", "gen:rot:4", "--to", "verilog"]);
    assert!(o.status.success());
    let v = stdout(&o);
    assert!(v.contains("module rot4"));
    assert!(v.contains("endmodule"));
    assert_eq!(v.matches("always").count(), 4);
}

#[test]
fn trace_out_then_report_renders_timelines() {
    let dir = std::env::temp_dir().join("bfvr_cli_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("run.jsonl");
    let path = trace.to_str().unwrap();
    let run = bfvr(&[
        "reach",
        "gen:modk:3:5",
        "--engine",
        "all",
        "--trace-out",
        path,
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    // The recorded stream is valid JSONL starting with the meta header.
    let raw = std::fs::read_to_string(&trace).unwrap();
    assert!(
        raw.lines().next().unwrap().contains("\"ev\":\"meta\""),
        "{raw}"
    );
    let text = bfvr(&["report", path]);
    assert!(
        text.status.success(),
        "{}",
        String::from_utf8_lossy(&text.stderr)
    );
    let out = stdout(&text);
    // Summary row per engine plus a per-iteration timeline for each.
    for engine in ["BFV", "CBM", "MONO", "IWLS95", "CDEC"] {
        assert!(out.contains(&format!("-- {engine} timeline --")), "{out}");
    }
    assert!(out.contains("cache-hit"), "{out}");
    let md = bfvr(&["report", path, "--format", "md"]);
    assert!(md.status.success());
    assert!(stdout(&md).contains("| engine |"), "{}", stdout(&md));
    // A missing file is a clean error, not a panic.
    let missing = bfvr(&["report", dir.join("nope.jsonl").to_str().unwrap()]);
    assert!(!missing.status.success());
}
