//! End-to-end tests of the `bfvr` command-line tool.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Output, Stdio};

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
fn closed_stdout_ends_quietly() {
    // The generated netlist is far larger than a pipe buffer, so `bfvr`
    // is still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_bfvr"))
        .args(["gen", "shift:20000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("# shift20000"), "{first}");
    let mut err = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut err)
        .unwrap();
    let status = child.wait().unwrap();
    assert!(!err.contains("panicked"), "{err}");
    assert!(err.is_empty(), "{err}");
    assert!(status.success(), "{status}");
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
    let dir = std::env::temp_dir().join(format!("bfvr_cli_flags_{}", std::process::id()));
    let d = dir.to_str().unwrap();
    for (args, want) in [
        (
            &["reach", "gen:s27", "--parallel"][..],
            "unknown flag `--parallel`",
        ),
        (
            &["reach", "gen:s27", "--engine", "bfv", "--jobz", "2"],
            "unknown flag `--jobz`",
        ),
        (
            &["audit", "gen:s27", "--jobs", "2"],
            "unknown flag `--jobs`",
        ),
        (
            &["lint", "gen:s27", "--bogus-flag"],
            "unknown flag `--bogus-flag`",
        ),
        (
            &["resume", "--from", "missing.ckpt", "--engine", "bfv"],
            "unknown flag `--engine`",
        ),
        (
            &["submit", "gen:s27", "--dir", d, "--bogus-flag", "3"],
            "unknown flag `--bogus-flag`",
        ),
        (
            &["serve", "--dir", d, "--bogus-flag"],
            "unknown flag `--bogus-flag`",
        ),
        (
            &["convert", "gen:s27", "--to", "bench", "--bogus"],
            "unknown flag `--bogus`",
        ),
        (
            &["check", "gen:modk:3:5", "--bad", "111", "--bogus"],
            "unknown flag `--bogus`",
        ),
        (
            &["trace", "gen:counter:3", "--to", "111", "--bogus"],
            "unknown flag `--bogus`",
        ),
        (
            &["report", "missing.jsonl", "--format", "md", "--bogus"],
            "unknown flag `--bogus`",
        ),
        // The engine names its lane: `--repr` is gone, and with it the
        // `zdd` and `zono` labels of older builds.
        (
            &["reach", "gen:s27", "--repr", "zdd"],
            "unknown flag `--repr`",
        ),
        (
            &["audit", "gen:s27", "--repr", "zdd"],
            "unknown flag `--repr`",
        ),
        (
            &["submit", "gen:s27", "--dir", d, "--repr", "zdd"],
            "unknown flag `--repr`",
        ),
        (
            &["reach", "gen:s27", "--repr", "zono"],
            "unknown flag `--repr`",
        ),
        (
            &["audit", "gen:s27", "--repr", "zono"],
            "unknown flag `--repr`",
        ),
        (
            &["submit", "gen:s27", "--dir", d, "--repr", "zono"],
            "unknown flag `--repr`",
        ),
        (&["stats", "gen:s27", "--bogus"], "unknown flag `--bogus`"),
        (&["gen", "s27", "--bogus"], "unknown flag `--bogus`"),
        // Budget escalation is gone: an exhausted run continues through
        // `--checkpoint-out` and `bfvr resume` with a larger budget.
        (
            &["reach", "gen:s27", "--node-limit", "900", "--escalate"],
            "unknown flag `--escalate`",
        ),
        (
            &["reach", "gen:s27", "--escalate-factor", "2"],
            "unknown flag `--escalate-factor`",
        ),
        (
            &["reach", "gen:s27", "--max-budget", "9"],
            "unknown flag `--max-budget`",
        ),
        // `check` and `trace` run the BFV flow, which sifting never
        // reorders: they take the resource limits only.
        (
            &["check", "gen:modk:3:5", "--bad", "111", "--sift"],
            "unknown flag `--sift`",
        ),
        (
            &["trace", "gen:counter:3", "--to", "111", "--sift"],
            "unknown flag `--sift`",
        ),
    ] {
        let o = bfvr(args);
        assert!(!o.status.success(), "{args:?} must fail");
        assert!(stderr(&o).contains(want), "{args:?}: {}", stderr(&o));
        assert!(!stderr(&o).contains("panicked"), "{args:?}: {}", stderr(&o));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rejected submit leaves no trace: every flag is validated before the
/// job directory and its journal are created.
#[test]
fn rejected_submit_creates_no_directory() {
    let base = std::env::temp_dir().join(format!("bfvr_cli_submit_{}", std::process::id()));
    for (i, bad) in [
        &["--repr", "zdd"][..],
        &["--repr", "zono"],
        &["--engine", "warp"],
        &["--order", "sideways"],
        &["--bogus-flag", "3"],
    ]
    .into_iter()
    .enumerate()
    {
        let dir = base.join(format!("d{i}"));
        let mut args = vec!["submit", "gen:s27", "--dir", dir.to_str().unwrap()];
        args.extend_from_slice(bad);
        let o = bfvr(&args);
        assert!(!o.status.success(), "{args:?} must fail");
        assert!(!dir.exists(), "{args:?} created {}", dir.display());
    }
    // The same directory is created once the flags are valid.
    let dir = base.join("ok");
    let o = bfvr(&["submit", "gen:s27", "--dir", dir.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(dir.join("journal.jsonl").exists());
    let _ = std::fs::remove_dir_all(&base);
}

/// Every engine is submitted by `--engine` alone: the engine names its
/// representation, so no second flag is needed.
#[test]
fn submit_journals_each_engine_without_a_representation_flag() {
    let dir = std::env::temp_dir().join(format!("bfvr_cli_submit_engines_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap();
    let engines = [
        ("cbm", bfvr::reach::EngineKind::Cbm),
        ("mono", bfvr::reach::EngineKind::Monolithic),
        ("iwls95", bfvr::reach::EngineKind::Iwls95),
        ("cdec", bfvr::reach::EngineKind::Cdec),
    ];
    for (flag, _) in engines {
        let o = bfvr(&[
            "submit", "gen:s27", "--dir", d, "--id", flag, "--engine", flag,
        ]);
        assert!(o.status.success(), "{flag}: {}", stderr(&o));
    }
    let ledger = bfvr::serve::replay(&dir.join("journal.jsonl")).unwrap();
    for (flag, engine) in engines {
        let spec = &ledger.get(flag).unwrap().spec;
        assert_eq!(
            bfvr::reach::EngineKind::parse(&spec.engine),
            Some(engine),
            "{flag}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
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

/// `check` and `trace` arm their resource limits: a tripped limit is an
/// error without a verdict, never `HOLDS`/`UNREACHABLE` or a full trace.
#[test]
fn check_and_trace_stop_at_their_limits() {
    for (args, want) in [
        (
            &[
                "check",
                "gen:lfsr:10",
                "--bad",
                "1111111111",
                "--node-limit",
                "200",
            ][..],
            "node limit",
        ),
        (
            &[
                "check",
                "gen:lfsr:10",
                "--bad",
                "1111111111",
                "--time-limit",
                "0",
            ],
            "deadline",
        ),
        (
            &[
                "trace",
                "gen:counter:12",
                "--to",
                "111111111111",
                "--node-limit",
                "50",
            ],
            "node limit",
        ),
        (
            &[
                "trace",
                "gen:counter:12",
                "--to",
                "111111111111",
                "--time-limit",
                "0",
            ],
            "deadline",
        ),
    ] {
        let o = bfvr(args);
        assert_eq!(o.status.code(), Some(1), "{args:?}: {}", stdout(&o));
        assert!(stderr(&o).contains(want), "{args:?}: {}", stderr(&o));
        let out = stdout(&o);
        assert!(
            !out.contains("HOLDS") && !out.contains("UNREACHABLE") && !out.contains("steps"),
            "{args:?}: {out}"
        );
    }
    // The same limits leave room for small cases to finish.
    let o = bfvr(&[
        "check",
        "gen:modk:3:5",
        "--bad",
        "111",
        "--node-limit",
        "10000",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("HOLDS"));
}

/// A run with `--checkpoint-out` that stops short of its fixed point
/// before any checkpoint reached disk exits 1 and says so; only a run
/// that left a checkpoint to resume from exits 75.
#[test]
fn checkpoint_out_without_a_checkpoint_exits_1() {
    let dir = std::env::temp_dir().join(format!("bfvr_cli_nockpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("q.ckpt");
    let path = ckpt.to_str().unwrap();
    // MONO's transition relation does not fit 1200 nodes: the run stops
    // before its first iteration, with no state to checkpoint.
    let o = bfvr(&[
        "reach",
        "gen:queue:4",
        "--engine",
        "mono",
        "--node-limit",
        "1200",
        "--checkpoint-out",
        path,
    ]);
    assert_eq!(o.status.code(), Some(1), "{}", stderr(&o));
    let row: Vec<String> = stdout(&o)
        .lines()
        .nth(1)
        .unwrap()
        .split_whitespace()
        .map(String::from)
        .collect();
    assert_eq!(row[..4], ["MONO", "M.O.", "-", "0"], "{}", stdout(&o));
    assert_eq!(
        stderr(&o),
        format!(
            "error: MONO ended M.O. after 0 iteration(s); no checkpoint was written to {path}\n"
        )
    );
    assert!(!ckpt.exists());
    // With room for the relation it stops in the loop, checkpoints and
    // exits 75.
    let o = bfvr(&[
        "reach",
        "gen:queue:4",
        "--engine",
        "mono",
        "--node-limit",
        "1330",
        "--checkpoint-out",
        path,
    ]);
    assert_eq!(o.status.code(), Some(75), "{}", stderr(&o));
    assert!(ckpt.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_and_trace_collect_garbage_like_reach() {
    // queue4's reached set fits 6000 nodes only when the loop collects.
    let holds = "HOLDS: no state matching 1111111111111 is reachable (32 images)";
    for (cmd, flag, want) in [("check", "--bad", holds), ("trace", "--to", "UNREACHABLE")] {
        let o = bfvr(&[
            cmd,
            "gen:queue:4",
            flag,
            "1111111111111",
            "--node-limit",
            "6000",
        ]);
        assert!(o.status.success(), "{cmd}: {}", stderr(&o));
        assert!(stdout(&o).contains(want), "{cmd}: {}", stdout(&o));
    }
}

#[test]
fn out_of_range_gen_specs_are_errors_not_panics() {
    for (spec, want) in [
        ("gen:counter:0", "1 or more"),
        ("gen:modk:3:9", "2 to 8"),
        ("gen:gray:0", "1 or more"),
        ("gen:lfsr:17", "2 to 16"),
        ("gen:shift:0", "1 or more"),
        ("gen:johnson:1", "2 or more"),
        ("gen:pair:0", "1 or more"),
        ("gen:queue:9", "1 to 8"),
        ("gen:rot:1", "2 or more"),
        ("gen:traffic:0", "1 or more"),
        ("gen:load:25", "3 to 24"),
        ("gen:mask:2", "4 to 24"),
    ] {
        let o = bfvr(&["stats", spec]);
        assert_eq!(o.status.code(), Some(1), "{spec}: {}", stderr(&o));
        assert!(stderr(&o).contains(want), "{spec}: {}", stderr(&o));
    }
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

/// Older builds traced budget escalation as `round` events; the schema no
/// longer has them, so `report` refuses such a trace and names the line.
#[test]
fn report_refuses_a_trace_with_a_round_event() {
    let dir = std::env::temp_dir().join(format!("bfvr_cli_round_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("old.jsonl");
    std::fs::write(
        &trace,
        concat!(
            r#"{"ev":"meta","label":"bfvr reach s27","sample_every":1,"seq":0,"t_us":0,"v":1}"#,
            "\n",
            r#"{"engine":"BFV","ev":"round","node_limit":900,"outcome":"M.O.","resumed":false,"round":0,"seq":1,"t_us":5}"#,
            "\n",
        ),
    )
    .unwrap();
    let o = bfvr(&["report", trace.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(1));
    let err = stderr(&o);
    assert!(
        err.contains("line 2") && err.contains("unknown event tag `round`"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
