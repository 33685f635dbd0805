//! The supervised worker pool: runs journaled jobs in child processes,
//! survives their deaths, and degrades gracefully when they keep dying.
//!
//! Policy, all journaled as it happens:
//!
//! * **Isolation** — each job runs in a spawned `bfvr` child (via
//!   [`ProcessRunner`]); a segfaulting or SIGKILLed job costs one worker
//!   slot for one attempt, never the daemon.
//! * **Timeouts** — a child exceeding the per-job wall-clock budget gets
//!   SIGTERM (it checkpoints and exits, see the CLI's graceful-interrupt
//!   path), then SIGKILL after a grace period.
//! * **Retry with backoff** — a crashed job re-queues with exponential
//!   backoff plus deterministic jitter; a checkpointed job re-queues
//!   immediately and resumes from its file.
//! * **Stall detection** — a checkpointed attempt that ended at or below
//!   the iteration it resumed from (0 for a fresh run) made no progress
//!   under the job's own budgets and would make none on a retry: the job
//!   fails terminally, asking for a resubmit with larger budgets.
//! * **Quarantine** — after `max_attempts` crashed attempts a job is
//!   declared poison and parked terminally.
//! * **Shedding** — when crashes keep coming pool-wide, the
//!   lowest-priority queued job is shed per trigger, protecting the
//!   high-priority work that still has a chance.

use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use bfvr_obs::json::{self, Value};

use crate::job::JobSpec;
use crate::journal::{Journal, JournalError};
use crate::signal::{kill_process, SIGKILL, SIGTERM};

/// What one attempt of one job came to.
#[derive(Clone, Debug, PartialEq)]
pub enum RunOutcome {
    /// Fixed point reached; the job is finished.
    Done {
        /// Reached-state count reported by the child.
        states: Option<f64>,
        /// Cumulative iterations reported by the child.
        iterations: Option<u64>,
    },
    /// The child stopped cleanly after writing a durable checkpoint
    /// (timeout, SIGTERM, or a tripped resource budget).
    Checkpointed {
        /// Cumulative iterations the checkpoint holds.
        iterations: u64,
    },
    /// The child died without a clean exit (signal, panic, OOM-kill).
    Crashed {
        /// Human-readable cause.
        detail: String,
    },
    /// Structured failure that retrying cannot fix (bad spec, rejected
    /// checkpoint file).
    Fatal {
        /// Human-readable cause.
        detail: String,
    },
}

/// Runs one attempt of one job. [`ProcessRunner`] is the real
/// implementation; tests script outcomes to drive the supervisor's
/// policy paths without spawning processes.
pub trait JobRunner: Send + Sync {
    /// Executes `spec` (attempt `attempt`, 1-based). `resume_from` is
    /// the job's last durable checkpoint when it has one; `ckpt_out` is
    /// where this attempt must leave its own checkpoint if interrupted.
    fn run(
        &self,
        spec: &JobSpec,
        attempt: u32,
        resume_from: Option<&Path>,
        ckpt_out: &Path,
    ) -> RunOutcome;
}

/// Pool policy knobs.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Concurrent workers.
    pub workers: usize,
    /// Attempts before a crashing job is quarantined as poison.
    pub max_attempts: u32,
    /// Base retry delay; attempt `k` waits `base · 2^(k-1)` + jitter.
    pub backoff_base: Duration,
    /// Ceiling on the computed backoff (before jitter).
    pub backoff_cap: Duration,
    /// Pool-wide consecutive-crash count that triggers shedding one
    /// lowest-priority queued job.
    pub shed_after_crashes: u32,
    /// Seed for deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            workers: 2,
            max_attempts: 3,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(5),
            shed_after_crashes: 5,
            jitter_seed: 0x5eed,
        }
    }
}

/// One queued attempt.
struct Queued {
    id: String,
    priority: u8,
    attempt: u32,
    not_before: Instant,
    resume_from: Option<PathBuf>,
    /// Iterations `resume_from` holds, as journaled (0 for a fresh run).
    resumed_iterations: u64,
}

struct Inner {
    queue: Vec<Queued>,
    journal: Journal,
    consecutive_crashes: u32,
    in_flight: usize,
    fatal: Option<String>,
}

/// The worker pool. Create with [`Supervisor::new`], seed it from a
/// replayed ledger and/or [`Supervisor::submit`] calls, then
/// [`Supervisor::drain`] to run everything to a terminal state.
pub struct Supervisor<R: JobRunner> {
    cfg: SupervisorConfig,
    dir: PathBuf,
    runner: R,
    inner: Mutex<Inner>,
    wake: Condvar,
}

/// splitmix64 — the jitter generator (deterministic per job × attempt).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl<R: JobRunner> Supervisor<R> {
    /// A pool over `dir` (checkpoint/result files and the journal live
    /// there), replaying `dir/journal.jsonl` to recover prior state:
    /// queued and interrupted jobs re-enter the queue (resuming from
    /// their last durable checkpoint when one was journaled), terminal
    /// jobs stay terminal.
    ///
    /// # Errors
    ///
    /// Journal open/replay errors.
    pub fn new(dir: &Path, cfg: SupervisorConfig, runner: R) -> Result<Self, JournalError> {
        let journal = Journal::open(&dir.join("journal.jsonl"))?;
        let now = Instant::now();
        let mut queue = Vec::new();
        for job in journal.ledger().runnable() {
            queue.push(Queued {
                id: job.spec.id.clone(),
                priority: job.spec.priority,
                attempt: job.attempts,
                not_before: now,
                resume_from: job.checkpoint.clone().map(PathBuf::from),
                resumed_iterations: job.iterations.unwrap_or(0),
            });
        }
        Ok(Supervisor {
            cfg,
            dir: dir.to_path_buf(),
            runner,
            inner: Mutex::new(Inner {
                queue,
                journal,
                consecutive_crashes: 0,
                in_flight: 0,
                fatal: None,
            }),
            wake: Condvar::new(),
        })
    }

    /// Journals and enqueues a new job. Re-submitting an existing id is
    /// a no-op (the journal's `submitted` event is first-wins).
    ///
    /// # Errors
    ///
    /// Journal append failure.
    pub fn submit(&self, spec: &JobSpec) -> Result<(), JournalError> {
        let mut inner = lock(&self.inner);
        if inner.journal.ledger().get(&spec.id).is_some() {
            return Ok(());
        }
        inner
            .journal
            .append(&spec.id, "submitted", vec![("spec", spec.to_json())])?;
        inner.queue.push(Queued {
            id: spec.id.clone(),
            priority: spec.priority,
            attempt: 0,
            not_before: Instant::now(),
            resume_from: None,
            resumed_iterations: 0,
        });
        self.wake.notify_all();
        Ok(())
    }

    /// Runs workers until every job is terminal (drain mode — the shape
    /// both the CLI daemon and the smoke tests use; a long-lived daemon
    /// is drain in a loop around a submission channel).
    ///
    /// # Errors
    ///
    /// The first journal failure any worker hit: a job store that can
    /// no longer record transitions must stop taking work.
    pub fn drain(&self) -> Result<(), JournalError> {
        std::thread::scope(|s| {
            for _ in 0..self.cfg.workers.max(1) {
                s.spawn(|| self.worker());
            }
        });
        let inner = lock(&self.inner);
        match &inner.fatal {
            Some(msg) => Err(JournalError::Malformed {
                line: 0,
                reason: format!("supervisor stopped: {msg}"),
            }),
            None => Ok(()),
        }
    }

    /// One worker's loop: claim → run → record, until the pool is idle
    /// and the queue empty.
    fn worker(&self) {
        loop {
            let claimed = {
                let mut inner = lock(&self.inner);
                loop {
                    if inner.fatal.is_some() {
                        return;
                    }
                    let now = Instant::now();
                    // Highest priority among ready entries; FIFO within
                    // a priority (stable scan keeps submission order).
                    let ready = inner
                        .queue
                        .iter()
                        .enumerate()
                        .filter(|(_, q)| q.not_before <= now)
                        .max_by_key(|(i, q)| (q.priority, usize::MAX - i));
                    if let Some((idx, _)) = ready {
                        let mut q = inner.queue.remove(idx);
                        q.attempt += 1;
                        inner.in_flight += 1;
                        break Some(q);
                    }
                    if inner.queue.is_empty() && inner.in_flight == 0 {
                        // Nothing left anywhere: wake the others so they
                        // see the same emptiness and exit.
                        self.wake.notify_all();
                        return;
                    }
                    // Backoff timers pending or peers still running:
                    // sleep until something changes.
                    let (next, _) = self
                        .wake
                        .wait_timeout(inner, Duration::from_millis(20))
                        .unwrap_or_else(|e| e.into_inner());
                    inner = next;
                }
            };
            let Some(q) = claimed else { return };
            if let Err(e) = self.run_one(q) {
                let mut inner = lock(&self.inner);
                inner.fatal = Some(e.to_string());
                inner.in_flight -= 1;
                self.wake.notify_all();
                return;
            }
            let mut inner = lock(&self.inner);
            inner.in_flight -= 1;
            self.wake.notify_all();
        }
    }

    /// Runs one claimed attempt and journals its outcome.
    fn run_one(&self, q: Queued) -> Result<(), JournalError> {
        let spec = {
            let inner = lock(&self.inner);
            match inner.journal.ledger().get(&q.id) {
                Some(j) => j.spec.clone(),
                None => return Ok(()), // shed/unknown: nothing to do
            }
        };
        {
            let mut inner = lock(&self.inner);
            inner.journal.append(
                &q.id,
                "started",
                vec![("attempt", Value::Num(f64::from(q.attempt)))],
            )?;
        }
        let ckpt_out = self.dir.join(format!("{}.ckpt", q.id));
        let outcome = self
            .runner
            .run(&spec, q.attempt, q.resume_from.as_deref(), &ckpt_out);
        let mut inner = lock(&self.inner);
        match outcome {
            RunOutcome::Done { states, iterations } => {
                inner.consecutive_crashes = 0;
                let mut fields = Vec::new();
                if let Some(s) = states {
                    fields.push(("states", Value::Num(s)));
                }
                if let Some(i) = iterations {
                    fields.push(("iterations", Value::Num(i as f64)));
                }
                inner.journal.append(&q.id, "done", fields)?;
            }
            RunOutcome::Checkpointed { iterations } => {
                inner.consecutive_crashes = 0;
                inner.journal.append(
                    &q.id,
                    "checkpointed",
                    vec![
                        ("file", Value::Str(ckpt_out.to_string_lossy().into_owned())),
                        ("iterations", Value::Num(iterations as f64)),
                    ],
                )?;
                if iterations <= q.resumed_iterations {
                    // The job's own budgets stop it where it started, so
                    // a retry under the same budgets would only repeat it.
                    inner.journal.append(
                        &q.id,
                        "failed",
                        vec![
                            (
                                "reason",
                                Value::Str(format!(
                                    "no progress: checkpointed at iteration {iterations}, \
                                     where the attempt started; resubmit with larger \
                                     --node-limit/--time-limit budgets"
                                )),
                            ),
                            ("fatal", Value::Bool(true)),
                        ],
                    )?;
                } else {
                    // Durable progress: back of the ready queue, no backoff.
                    inner.queue.push(Queued {
                        id: q.id,
                        priority: q.priority,
                        attempt: q.attempt,
                        not_before: Instant::now(),
                        resume_from: Some(ckpt_out),
                        resumed_iterations: iterations,
                    });
                }
            }
            RunOutcome::Crashed { detail } => {
                inner.consecutive_crashes += 1;
                if q.attempt >= self.cfg.max_attempts {
                    inner.journal.append(
                        &q.id,
                        "quarantined",
                        vec![(
                            "reason",
                            Value::Str(format!(
                                "poison job: {} crashed attempts (last: {detail})",
                                q.attempt
                            )),
                        )],
                    )?;
                } else {
                    inner
                        .journal
                        .append(&q.id, "failed", vec![("reason", Value::Str(detail))])?;
                    // Exponential backoff with deterministic jitter.
                    let shift = q.attempt.saturating_sub(1).min(16);
                    let base = self
                        .cfg
                        .backoff_base
                        .saturating_mul(1 << shift)
                        .min(self.cfg.backoff_cap);
                    let jitter_ns = if self.cfg.backoff_base.is_zero() {
                        0
                    } else {
                        mix64(
                            self.cfg
                                .jitter_seed
                                .wrapping_add(u64::from(q.attempt))
                                .wrapping_add(crate::ckpt::fnv1a64(q.id.as_bytes())),
                        ) % self.cfg.backoff_base.as_nanos().min(u128::from(u64::MAX)) as u64
                    };
                    let delay = base + Duration::from_nanos(jitter_ns);
                    // A crashed attempt may still have flushed a periodic
                    // checkpoint before dying: resume from it if present.
                    let resume = ckpt_out.exists().then_some(ckpt_out).or(q.resume_from);
                    inner.queue.push(Queued {
                        id: q.id,
                        priority: q.priority,
                        attempt: q.attempt,
                        not_before: Instant::now() + delay,
                        resume_from: resume,
                        resumed_iterations: q.resumed_iterations,
                    });
                }
                if inner.consecutive_crashes >= self.cfg.shed_after_crashes {
                    self.shed_one(&mut inner)?;
                    inner.consecutive_crashes = 0;
                }
            }
            RunOutcome::Fatal { detail } => {
                inner.journal.append(
                    &q.id,
                    "failed",
                    vec![("reason", Value::Str(detail)), ("fatal", Value::Bool(true))],
                )?;
            }
        }
        self.wake.notify_all();
        Ok(())
    }

    /// Sheds the lowest-priority queued job (degrade-gracefully policy):
    /// the pool is burning attempts on crashes, so the job least likely
    /// to matter gives up its slot.
    fn shed_one(&self, inner: &mut Inner) -> Result<(), JournalError> {
        let victim = inner
            .queue
            .iter()
            .enumerate()
            .min_by_key(|(i, q)| (q.priority, usize::MAX - i))
            .map(|(i, _)| i);
        if let Some(i) = victim {
            let q = inner.queue.remove(i);
            inner.journal.append(
                &q.id,
                "shed",
                vec![(
                    "reason",
                    Value::Str("load shedding: pool crashing repeatedly".to_string()),
                )],
            )?;
        }
        Ok(())
    }
}

/// Recovers a poisoned mutex: the shared state is only ever mutated
/// under short, panic-free critical sections, so the data is sound even
/// if a worker thread panicked elsewhere.
fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ------------------------------------------------------------- processes

/// The real [`JobRunner`]: spawns `bfvr reach`/`bfvr resume` children
/// with durable-checkpoint flags, enforces the per-job wall-clock
/// timeout (SIGTERM, grace, SIGKILL), and maps exit status to
/// [`RunOutcome`] — exit 0 is done, exit [`EXIT_CHECKPOINTED`] is a
/// clean interrupted stop, death by signal is a crash.
pub struct ProcessRunner {
    /// The `bfvr` binary to spawn.
    pub bfvr_bin: PathBuf,
    /// Directory for per-job result files.
    pub dir: PathBuf,
    /// Per-job wall-clock budget; `None` is unlimited.
    pub job_timeout: Option<Duration>,
    /// SIGTERM-to-SIGKILL grace.
    pub term_grace: Duration,
}

/// Child exit code meaning "interrupted but checkpointed durably" (the
/// BSD `EX_TEMPFAIL` convention: try again later).
pub const EXIT_CHECKPOINTED: i32 = 75;

impl ProcessRunner {
    /// Reads the child's `--result-out` line; a missing or unreadable
    /// file is a crash.
    fn read_result(path: &Path, code: i32) -> Result<Value, RunOutcome> {
        let crashed = |detail: String| RunOutcome::Crashed { detail };
        let text = std::fs::read_to_string(path)
            .map_err(|_| crashed(format!("child exited {code} without a result file")))?;
        json::parse(text.trim()).map_err(|_| crashed("child result file is not valid JSON".into()))
    }

    fn parse_result(path: &Path) -> RunOutcome {
        let v = match Self::read_result(path, 0) {
            Ok(v) => v,
            Err(crash) => return crash,
        };
        match v.get("outcome").and_then(Value::as_str) {
            Some("ok") => RunOutcome::Done {
                states: v.get("states").and_then(Value::as_num),
                iterations: v.get("iterations").and_then(Value::as_u64),
            },
            Some(other) => RunOutcome::Fatal {
                detail: format!("child reported outcome `{other}`"),
            },
            None => RunOutcome::Crashed {
                detail: "child result file lacks an outcome".to_string(),
            },
        }
    }
}

impl JobRunner for ProcessRunner {
    fn run(
        &self,
        spec: &JobSpec,
        attempt: u32,
        resume_from: Option<&Path>,
        ckpt_out: &Path,
    ) -> RunOutcome {
        let result_path = self.dir.join(format!("{}.result.json", spec.id));
        let _ = std::fs::remove_file(&result_path);
        let mut cmd = std::process::Command::new(&self.bfvr_bin);
        match resume_from {
            Some(from) => {
                cmd.arg("resume").arg("--from").arg(from);
            }
            None => {
                cmd.arg("reach")
                    .arg(&spec.circuit)
                    .arg("--engine")
                    .arg(&spec.engine)
                    .arg("--order")
                    .arg(&spec.order);
            }
        }
        cmd.arg("--checkpoint-out")
            .arg(ckpt_out)
            .arg("--checkpoint-every")
            .arg(spec.checkpoint_every.max(1).to_string())
            .arg("--result-out")
            .arg(&result_path);
        if let Some(n) = spec.node_limit {
            cmd.arg("--node-limit").arg(n.to_string());
        }
        if let Some(t) = spec.time_limit_secs {
            cmd.arg("--time-limit").arg(t.to_string());
        }
        // The fault-injection harness: first attempt only, so the
        // supervised resume is what completes the job.
        if attempt == 1 {
            if let Some(k) = spec.kill_at_iteration() {
                cmd.arg("--kill-at-iter").arg(k.to_string());
            }
        }
        cmd.stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => {
                return RunOutcome::Fatal {
                    detail: format!("spawn failed: {e}"),
                }
            }
        };
        let started = Instant::now();
        let mut termed_at: Option<Instant> = None;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => {}
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return RunOutcome::Crashed {
                        detail: format!("wait failed: {e}"),
                    };
                }
            }
            match termed_at {
                Some(t) if t.elapsed() >= self.term_grace => {
                    // Grace expired: no mercy.
                    let _ = child.kill();
                }
                Some(_) => {}
                None => {
                    if self.job_timeout.is_some_and(|t| started.elapsed() >= t) {
                        // Ask politely first — the child checkpoints on
                        // SIGTERM and exits EXIT_CHECKPOINTED.
                        if !kill_process(child.id(), SIGTERM) {
                            let _ = child.kill();
                        }
                        termed_at = Some(Instant::now());
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        match status.code() {
            Some(0) => Self::parse_result(&result_path),
            Some(EXIT_CHECKPOINTED) if !ckpt_out.exists() => RunOutcome::Crashed {
                detail: "child claimed a checkpoint it never wrote".to_string(),
            },
            Some(EXIT_CHECKPOINTED) => match Self::read_result(&result_path, EXIT_CHECKPOINTED) {
                Ok(v) => match v.get("iterations").and_then(Value::as_u64) {
                    Some(iterations) => RunOutcome::Checkpointed { iterations },
                    None => RunOutcome::Crashed {
                        detail: "child result file lacks an iteration count".to_string(),
                    },
                },
                Err(crash) => crash,
            },
            Some(code) => RunOutcome::Fatal {
                detail: format!("child exited with code {code}"),
            },
            None => {
                let sig = unix_signal(&status);
                let _ = kill_process(child.id(), SIGKILL); // belt and braces
                RunOutcome::Crashed {
                    detail: match sig {
                        Some(s) => format!("child killed by signal {s}"),
                        None => "child terminated without an exit code".to_string(),
                    },
                }
            }
        }
    }
}

#[cfg(unix)]
fn unix_signal(status: &std::process::ExitStatus) -> Option<i32> {
    use std::os::unix::process::ExitStatusExt as _;
    status.signal()
}

#[cfg(not(unix))]
fn unix_signal(_status: &std::process::ExitStatus) -> Option<i32> {
    None
}
