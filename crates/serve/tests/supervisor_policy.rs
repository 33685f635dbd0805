//! Supervisor policy, exercised through scripted [`JobRunner`]s — no
//! child processes: crash → backoff → retry, poison-job quarantine,
//! fatal fast-fail, checkpoint → requeue → resume, a checkpoint that
//! made no progress failing the job, load shedding, and journal-driven
//! recovery across a simulated daemon restart.

use std::path::{Path, PathBuf};
use std::time::Duration;

use bfvr_obs::json::Value;
use bfvr_serve::{
    replay, JobPhase, JobRunner, JobSpec, Journal, RunOutcome, Supervisor, SupervisorConfig,
};

/// A scratch pool directory (journal + checkpoint files).
fn pool(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bfvr-sup-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Fast-retry config: single worker makes scheduling deterministic.
fn cfg() -> SupervisorConfig {
    SupervisorConfig {
        workers: 1,
        max_attempts: 3,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
        shed_after_crashes: 100,
        jitter_seed: 7,
    }
}

/// Scripted runner: each job id maps to a sequence of outcomes, one per
/// attempt (the last entry repeats).
struct Scripted {
    script: Vec<(&'static str, Vec<RunOutcome>)>,
}

impl Scripted {
    fn new(script: Vec<(&'static str, Vec<RunOutcome>)>) -> Self {
        Scripted { script }
    }
}

impl JobRunner for Scripted {
    fn run(
        &self,
        spec: &JobSpec,
        attempt: u32,
        _resume_from: Option<&Path>,
        ckpt_out: &Path,
    ) -> RunOutcome {
        let seq = self
            .script
            .iter()
            .find(|(id, _)| *id == spec.id)
            .map(|(_, s)| s.as_slice())
            .unwrap_or(&[]);
        let idx = (attempt as usize - 1).min(seq.len().saturating_sub(1));
        let outcome = seq.get(idx).cloned().unwrap_or(RunOutcome::Fatal {
            detail: "unscripted".to_string(),
        });
        // A checkpointed attempt must leave its durable file behind.
        if matches!(outcome, RunOutcome::Checkpointed { .. }) {
            std::fs::write(ckpt_out, b"stub").unwrap();
        }
        outcome
    }
}

fn done() -> RunOutcome {
    RunOutcome::Done {
        states: Some(6.0),
        iterations: Some(2),
    }
}

fn checkpointed(iterations: u64) -> RunOutcome {
    RunOutcome::Checkpointed { iterations }
}

fn crashed() -> RunOutcome {
    RunOutcome::Crashed {
        detail: "child killed by signal 9".to_string(),
    }
}

#[test]
fn crash_retries_with_growing_attempts_then_completes() {
    let dir = pool("retry");
    let runner = Scripted::new(vec![("j1", vec![crashed(), crashed(), done()])]);
    let sup = Supervisor::new(&dir, cfg(), runner).unwrap();
    sup.submit(&JobSpec::new("j1", "gen:s27")).unwrap();
    sup.drain().unwrap();

    let ledger = replay(&dir.join("journal.jsonl")).unwrap();
    let j = ledger.get("j1").unwrap();
    assert_eq!(j.phase, JobPhase::Done);
    assert_eq!(j.attempts, 3);
    assert_eq!(j.states, Some(6.0));
    assert_eq!(j.iterations, Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poison_job_is_quarantined_after_max_attempts() {
    let dir = pool("poison");
    let runner = Scripted::new(vec![("bad", vec![crashed()]), ("good", vec![done()])]);
    let sup = Supervisor::new(&dir, cfg(), runner).unwrap();
    sup.submit(&JobSpec::new("bad", "gen:s27")).unwrap();
    sup.submit(&JobSpec::new("good", "gen:s27")).unwrap();
    sup.drain().unwrap();

    let ledger = replay(&dir.join("journal.jsonl")).unwrap();
    let bad = ledger.get("bad").unwrap();
    assert_eq!(bad.phase, JobPhase::Quarantined);
    assert_eq!(bad.attempts, 3, "quarantine respects max_attempts");
    assert!(bad.reason.as_deref().unwrap().contains("poison"));
    // The poison job never starves its neighbour.
    assert_eq!(ledger.get("good").unwrap().phase, JobPhase::Done);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fatal_failure_is_terminal_without_retry() {
    let dir = pool("fatal");
    let runner = Scripted::new(vec![(
        "j1",
        vec![RunOutcome::Fatal {
            detail: "unsupported lane".to_string(),
        }],
    )]);
    let sup = Supervisor::new(&dir, cfg(), runner).unwrap();
    sup.submit(&JobSpec::new("j1", "gen:s27")).unwrap();
    sup.drain().unwrap();

    let ledger = replay(&dir.join("journal.jsonl")).unwrap();
    let j = ledger.get("j1").unwrap();
    assert_eq!(j.phase, JobPhase::Failed);
    assert_eq!(j.attempts, 1, "fatal outcomes must not burn retries");
    assert_eq!(j.reason.as_deref(), Some("unsupported lane"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointed_attempt_requeues_and_resumes_from_its_file() {
    let dir = pool("ckpt");
    let runner = Scripted::new(vec![("j1", vec![checkpointed(4), done()])]);
    let sup = Supervisor::new(&dir, cfg(), runner).unwrap();
    sup.submit(&JobSpec::new("j1", "gen:queue:4")).unwrap();
    sup.drain().unwrap();

    let ledger = replay(&dir.join("journal.jsonl")).unwrap();
    let j = ledger.get("j1").unwrap();
    assert_eq!(j.phase, JobPhase::Done);
    assert_eq!(j.attempts, 2);
    assert!(
        j.checkpoint.as_deref().unwrap().ends_with("j1.ckpt"),
        "checkpoint path journaled"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_without_progress_fails_the_job() {
    // `fresh` stalls at iteration 0 on its first attempt; `stuck`
    // progresses to 3, then its resume stalls there. Re-queueing either
    // under the same budgets would loop forever.
    let dir = pool("stall");
    let runner = Scripted::new(vec![
        ("fresh", vec![checkpointed(0), done()]),
        ("stuck", vec![checkpointed(3), checkpointed(3), done()]),
    ]);
    let sup = Supervisor::new(&dir, cfg(), runner).unwrap();
    sup.submit(&JobSpec::new("fresh", "gen:mask:10")).unwrap();
    sup.submit(&JobSpec::new("stuck", "gen:mask:10")).unwrap();
    sup.drain().unwrap();

    let ledger = replay(&dir.join("journal.jsonl")).unwrap();
    for (id, attempts, iteration) in [("fresh", 1, 0), ("stuck", 2, 3)] {
        let j = ledger.get(id).unwrap();
        assert_eq!(j.phase, JobPhase::Failed, "{id}");
        assert_eq!(j.attempts, attempts, "{id}");
        assert_eq!(j.iterations, Some(iteration), "{id}");
        let reason = j.reason.as_deref().unwrap();
        assert!(
            reason.contains(&format!("iteration {iteration}")) && reason.contains("resubmit"),
            "{id}: {reason}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replayed_checkpoint_iteration_is_the_progress_baseline() {
    // A daemon died after journaling a checkpoint at iteration 5; the
    // restarted daemon's resume stalls there and must fail the job.
    let dir = pool("stall-replay");
    {
        let mut j = Journal::open(&dir.join("journal.jsonl")).unwrap();
        let spec = JobSpec::new("j1", "gen:mask:10");
        j.append("j1", "submitted", vec![("spec", spec.to_json())])
            .unwrap();
        j.append("j1", "started", vec![("attempt", Value::Num(1.0))])
            .unwrap();
        let file = dir.join("j1.ckpt");
        std::fs::write(&file, b"stub").unwrap();
        j.append(
            "j1",
            "checkpointed",
            vec![
                ("file", Value::Str(file.to_string_lossy().into_owned())),
                ("iterations", Value::Num(5.0)),
            ],
        )
        .unwrap();
    }
    let runner = Scripted::new(vec![("j1", vec![checkpointed(5)])]);
    let sup = Supervisor::new(&dir, cfg(), runner).unwrap();
    sup.drain().unwrap();

    let ledger = replay(&dir.join("journal.jsonl")).unwrap();
    let j = ledger.get("j1").unwrap();
    assert_eq!(j.phase, JobPhase::Failed, "reason: {:?}", j.reason);
    assert_eq!(j.attempts, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_attempt_receives_the_crash_survivor_checkpoint() {
    // A crashed attempt that managed a periodic durable write resumes
    // from that file on retry (the supervisor probes ckpt_out.exists()).
    let dir = pool("crash-resume");
    struct CrashThenCheck;
    impl JobRunner for CrashThenCheck {
        fn run(
            &self,
            _spec: &JobSpec,
            attempt: u32,
            resume_from: Option<&Path>,
            ckpt_out: &Path,
        ) -> RunOutcome {
            if attempt == 1 {
                // Simulate a periodic checkpoint flushed before death.
                std::fs::write(ckpt_out, b"survivor").unwrap();
                return crashed();
            }
            // The ledger can only show Done if the retry was handed the
            // survivor file — a missing handoff is a journaled failure.
            if resume_from.is_some_and(|p| p.ends_with("j1.ckpt")) {
                done()
            } else {
                RunOutcome::Fatal {
                    detail: "retry was not resumed from the survivor checkpoint".to_string(),
                }
            }
        }
    }
    let sup = Supervisor::new(&dir, cfg(), CrashThenCheck).unwrap();
    sup.submit(&JobSpec::new("j1", "gen:queue:4")).unwrap();
    sup.drain().unwrap();

    let ledger = replay(&dir.join("journal.jsonl")).unwrap();
    let j = ledger.get("j1").unwrap();
    assert_eq!(j.phase, JobPhase::Done, "reason: {:?}", j.reason);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_crashes_shed_the_lowest_priority_queued_job() {
    let dir = pool("shed");
    // One incurable crasher and two bystanders that would succeed. With
    // a single worker, a shed threshold of 2 and the crasher holding the
    // highest priority, the pool sheds a bystander before ever reaching
    // it — and sheds the *lowest* priority one.
    let runner = Scripted::new(vec![
        ("crasher", vec![crashed()]),
        ("mid", vec![done()]),
        ("low", vec![done()]),
    ]);
    let mut c = cfg();
    c.max_attempts = 2;
    c.shed_after_crashes = 2;
    c.backoff_base = Duration::ZERO; // retries beat the bystanders to the worker
    let sup = Supervisor::new(&dir, c, runner).unwrap();
    let mut crasher = JobSpec::new("crasher", "gen:s27");
    crasher.priority = 9;
    let mut mid = JobSpec::new("mid", "gen:s27");
    mid.priority = 5;
    let mut low = JobSpec::new("low", "gen:s27");
    low.priority = 1;
    sup.submit(&crasher).unwrap();
    sup.submit(&mid).unwrap();
    sup.submit(&low).unwrap();
    sup.drain().unwrap();

    let ledger = replay(&dir.join("journal.jsonl")).unwrap();
    assert_eq!(ledger.get("crasher").unwrap().phase, JobPhase::Quarantined);
    assert_eq!(
        ledger.get("low").unwrap().phase,
        JobPhase::Shed,
        "the lowest-priority queued job pays for the pool's crashing"
    );
    assert_eq!(ledger.get("mid").unwrap().phase, JobPhase::Done);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_requeues_interrupted_jobs_from_the_journal() {
    let dir = pool("restart");
    // Phase 1: a runner whose process "dies" mid-job — scripted here as
    // a supervisor that records `started` and then is dropped without a
    // terminal event, exactly what a SIGKILLed daemon leaves behind.
    {
        let journal = dir.join("journal.jsonl");
        let mut j = Journal::open(&journal).unwrap();
        let spec = JobSpec::new("j1", "gen:s27");
        j.append("j1", "submitted", vec![("spec", spec.to_json())])
            .unwrap();
        j.append("j1", "started", vec![("attempt", Value::Num(1.0))])
            .unwrap();
    }
    // Phase 2: a fresh supervisor replays the journal; the orphaned
    // `running` job re-enters the queue and completes.
    let runner = Scripted::new(vec![("j1", vec![done()])]);
    let sup = Supervisor::new(&dir, cfg(), runner).unwrap();
    sup.drain().unwrap();

    let ledger = replay(&dir.join("journal.jsonl")).unwrap();
    let j = ledger.get("j1").unwrap();
    assert_eq!(j.phase, JobPhase::Done, "interrupted job recovered");
    assert!(j.attempts >= 2, "replayed attempt count carried forward");
    let _ = std::fs::remove_dir_all(&dir);
}
