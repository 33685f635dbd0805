//! Process-level crash-safety end-to-end: kill-resume equivalence for
//! every exact lane through the real `bfvr` binary, the supervised
//! daemon recovering a fault-injected job, journal replay idempotence
//! across daemon restarts, and the degraded-disk CLI contracts
//! (checkpoint write failure is a warning, trace write failure is a
//! nonzero exit).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use bfvr::reach::portfolio::Lane;

fn bfvr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bfvr"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bfvr-serve-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Pulls `(states, iterations)` out of a reach/resume summary row:
/// `LANE  ok  <states>  <iters>  <time>  <peak>`.
fn parse_row(out: &Output) -> (u64, u64) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = stdout
        .lines()
        .find(|l| l.split_whitespace().nth(1) == Some("ok"))
        .unwrap_or_else(|| panic!("no ok row in:\n{stdout}"));
    let cols: Vec<&str> = row.split_whitespace().collect();
    (cols[2].parse().unwrap(), cols[3].parse().unwrap())
}

/// CLI `--engine` value for one lane. The flag accepts the label
/// case-insensitively.
fn lane_flags(lane: Lane) -> &'static str {
    lane.engine.label()
}

/// The acceptance property: for an exact lane, SIGABRT-killing the
/// child at iteration 2 and resuming from its last durable checkpoint
/// lands on the identical fixed point as an uninterrupted run.
fn kill_resume_equivalent(lane: Lane, dir: &Path) {
    let engine = lane_flags(lane);
    let circuit = "gen:counter:4";

    let baseline = bfvr()
        .args(["reach", circuit, "--engine", engine])
        .output()
        .unwrap();
    assert!(baseline.status.success(), "{lane:?} baseline failed");
    let (expect_states, expect_iters) = parse_row(&baseline);

    let ckpt = dir.join(format!("{engine}.ckpt"));
    let killed = bfvr()
        .args([
            "reach",
            circuit,
            "--engine",
            engine,
            "--checkpoint-out",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "1",
            "--kill-at-iter",
            "2",
        ])
        .output()
        .unwrap();
    assert!(!killed.status.success(), "{lane:?}: kill did not fire");
    #[cfg(unix)]
    assert!(
        killed.status.code().is_none(),
        "{lane:?}: expected death by signal, got exit {:?}",
        killed.status.code()
    );
    assert!(ckpt.exists(), "{lane:?}: no durable checkpoint survived");

    let resumed = bfvr()
        .args(["resume", "--from", ckpt.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        resumed.status.success(),
        "{lane:?} resume failed:\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let (states, iters) = parse_row(&resumed);
    assert_eq!(
        states, expect_states,
        "{lane:?}: kill-resume changed the fixed point"
    );
    assert!(
        iters >= expect_iters,
        "{lane:?}: cumulative iterations went backwards"
    );
    // Success removes the checkpoint: nothing stale left to resume.
    assert!(!ckpt.exists(), "{lane:?}: stale checkpoint after success");
}

#[test]
fn kill_resume_is_equivalent_on_every_exact_lane() {
    let dir = scratch("kill-resume");
    for lane in Lane::all_lanes() {
        kill_resume_equivalent(lane, &dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_recovers_fault_injected_job_and_replay_is_idempotent() {
    let dir = scratch("daemon");
    let d = dir.to_str().unwrap();

    let s27 = bfvr()
        .args(["submit", "gen:s27", "--dir", d, "--id", "s27"])
        .output()
        .unwrap();
    assert!(
        s27.status.success(),
        "{}",
        String::from_utf8_lossy(&s27.stderr)
    );
    // queue4's first attempt aborts at iteration 2, after one durable
    // periodic checkpoint: the supervisor must retry and resume it.
    let q4 = bfvr()
        .args([
            "submit",
            "gen:queue:4",
            "--dir",
            d,
            "--id",
            "q4",
            "--fault",
            "kill@2",
            "--checkpoint-every",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        q4.status.success(),
        "{}",
        String::from_utf8_lossy(&q4.stderr)
    );

    let drain = bfvr().args(["serve", "--dir", d]).output().unwrap();
    assert!(
        drain.status.success(),
        "{}",
        String::from_utf8_lossy(&drain.stderr)
    );
    let summary = String::from_utf8_lossy(&drain.stdout);

    let ledger = bfvr::serve::replay(&dir.join("journal.jsonl")).unwrap();
    let s27 = ledger.get("s27").unwrap();
    assert_eq!(
        s27.phase,
        bfvr::serve::JobPhase::Done,
        "summary:\n{summary}"
    );
    assert_eq!(s27.states, Some(6.0));
    let q4 = ledger.get("q4").unwrap();
    assert_eq!(q4.phase, bfvr::serve::JobPhase::Done, "summary:\n{summary}");
    assert_eq!(q4.states, Some(272.0));
    assert!(q4.attempts >= 2, "fault did not force a retry");
    assert!(
        q4.reason.as_deref().is_some_and(|r| r.contains("signal")),
        "crash reason not journaled: {:?}",
        q4.reason
    );

    // Restarting the drained daemon is a pure no-op: replay alone.
    let journal_before = std::fs::read(dir.join("journal.jsonl")).unwrap();
    for _ in 0..2 {
        let again = bfvr().args(["serve", "--dir", d]).output().unwrap();
        assert!(again.status.success());
        assert_eq!(
            std::fs::read(dir.join("journal.jsonl")).unwrap(),
            journal_before,
            "idle restart mutated the journal"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// mask10 under the declaration order M.O.s at iteration 0 within 2000
/// nodes, so every attempt checkpoints where it started. The daemon
/// fails the job instead of resuming it forever, and returns.
#[test]
fn daemon_fails_a_job_its_own_budget_stalls() {
    let dir = scratch("stall");
    let d = dir.to_str().unwrap();
    let submit = bfvr()
        .args([
            "submit",
            "gen:mask:10",
            "--dir",
            d,
            "--id",
            "m10",
            "--engine",
            "bfv",
            "--order",
            "decl",
            "--node-limit",
            "2000",
        ])
        .output()
        .unwrap();
    assert!(
        submit.status.success(),
        "{}",
        String::from_utf8_lossy(&submit.stderr)
    );
    let mut daemon = bfvr()
        .args(["serve", "--dir", d])
        .stdout(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let started = std::time::Instant::now();
    let status = loop {
        if let Some(status) = daemon.try_wait().unwrap() {
            break status;
        }
        if started.elapsed() > std::time::Duration::from_secs(60) {
            let _ = daemon.kill();
            let _ = daemon.wait();
            panic!("bfvr serve did not return on a stalled job");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(status.success());
    let ledger = bfvr::serve::replay(&dir.join("journal.jsonl")).unwrap();
    let job = ledger.get("m10").unwrap();
    assert_eq!(job.phase, bfvr::serve::JobPhase::Failed);
    assert_eq!(job.attempts, 1);
    let reason = job.reason.as_deref().unwrap_or_default();
    assert!(
        reason.contains("iteration 0") && reason.contains("resubmit"),
        "{reason}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_write_failure_warns_but_run_succeeds() {
    let dir = scratch("degraded-ckpt");
    let blocker = dir.join("not-a-directory");
    std::fs::write(&blocker, b"occupied").unwrap();
    let doomed = blocker.join("x.ckpt");

    let out = bfvr()
        .args([
            "reach",
            "gen:s27",
            "--engine",
            "bfv",
            "--checkpoint-out",
            doomed.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    // Failure to persist progress must not fail a run that completed.
    assert!(out.status.success(), "degraded disk failed the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checkpoint write failed"),
        "no diagnostic on stderr:\n{stderr}"
    );
    let (states, _) = parse_row(&out);
    assert_eq!(states, 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(target_os = "linux")]
#[test]
fn latched_trace_write_error_is_a_nonzero_exit() {
    // /dev/full accepts the open and fails every write with ENOSPC —
    // the exact latched-error shape JsonlSink is built to surface.
    let out = bfvr()
        .args([
            "reach",
            "gen:s27",
            "--engine",
            "bfv",
            "--trace-out",
            "/dev/full",
        ])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "trace data was silently dropped without failing the run"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("trace write failed"),
        "no diagnostic on stderr:\n{stderr}"
    );
}

#[test]
fn resume_refuses_a_corrupt_checkpoint_with_a_structured_error() {
    let dir = scratch("resume-corrupt");
    let p = dir.join("evil.ckpt");
    std::fs::write(&p, b"BFVRCKPTgarbage-that-is-not-a-checkpoint").unwrap();
    let out = bfvr()
        .args(["resume", "--from", p.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    #[cfg(unix)]
    assert!(
        out.status.code().is_some(),
        "loader must not crash by signal"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checkpoint"),
        "no structured diagnostic:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes a genuine queue4 checkpoint on `engine`'s lane, swaps
/// its representation label `old` for the retired label `new` (same
/// length, so only the label bytes and the trailing checksum change),
/// and requires `bfvr resume` to refuse it with a structured error.
fn resume_refuses_relabelled_checkpoint(engine: &str, old: &[u8], new: &[u8]) {
    let label = String::from_utf8_lossy(new).into_owned();
    let dir = scratch(&format!("resume-stale-{label}"));
    let p = dir.join(format!("{engine}.ckpt"));
    let killed = bfvr()
        .args([
            "reach",
            "gen:queue:4",
            "--engine",
            engine,
            "--checkpoint-out",
            p.to_str().unwrap(),
            "--checkpoint-every",
            "1",
            "--kill-at-iter",
            "2",
        ])
        .output()
        .unwrap();
    assert!(!killed.status.success(), "kill did not fire");
    assert!(bfvr::serve::read_meta(&p).is_ok(), "valid checkpoint");
    let mut bytes = std::fs::read(&p).unwrap();
    // magic (8) + version (4), then the length-prefixed engine label.
    let engine_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let repr_at = 16 + engine_len;
    let label_end = repr_at + 4 + old.len();
    assert_eq!(
        &bytes[repr_at..repr_at + 4],
        &(old.len() as u32).to_le_bytes()
    );
    assert_eq!(&bytes[repr_at + 4..label_end], old);
    bytes[repr_at + 4..label_end].copy_from_slice(new);
    let body = bytes.len() - 8;
    let sum = bfvr::serve::fnv1a64(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&p, &bytes).unwrap();

    let out = bfvr()
        .args(["resume", "--from", p.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    #[cfg(unix)]
    assert!(
        out.status.code().is_some(),
        "loader must not crash by signal"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown representation label"),
        "no structured diagnostic:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_stale_zdd_checkpoint_with_a_structured_error() {
    // Older builds wrote ZDD-lane checkpoints with the header label `zdd`
    // and a χ body: forge one from a MONO checkpoint.
    resume_refuses_relabelled_checkpoint("mono", b"chi", b"zdd");
}

#[test]
fn resume_refuses_a_stale_zono_checkpoint_with_a_structured_error() {
    // Older builds wrote zonotope-lane checkpoints with the header label
    // `zono`: forge one from a CDEC checkpoint (`cdec` has the same
    // length).
    resume_refuses_relabelled_checkpoint("cdec", b"cdec", b"zono");
}

/// Checkpoints written by an earlier build (`bfvr reach gen:queue:4
/// --engine E --node-limit N --checkpoint-every 2`, one per representation:
/// BFV vector, CDEC conjuncts, χ) still resume to the fixed point.
#[test]
fn committed_checkpoints_resume_to_the_fixed_point() {
    let dir = scratch("fixtures");
    for engine in ["bfv", "cdec", "cbm"] {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(format!("queue4-{engine}.ckpt"));
        // A finished resume deletes its input, so run on a copy.
        let p = dir.join(format!("{engine}.ckpt"));
        std::fs::copy(&fixture, &p).unwrap();
        let out = bfvr()
            .args(["resume", "--from", p.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{engine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(parse_row(&out).0, 272, "{engine}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
