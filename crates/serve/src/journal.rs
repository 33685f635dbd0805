//! The crash-safe job store: an append-only JSONL journal of job state
//! transitions, replayed on startup to recover the queue.
//!
//! One line per transition, encoded with the `bfvr-obs` canonical JSON
//! encoder (sorted keys, deterministic numbers), so the journal is
//! greppable, diffable and byte-stable for identical histories:
//!
//! ```text
//! {"event":"submitted","job":"j1","seq":0,"spec":{...},"t_ms":0}
//! {"attempt":1,"event":"started","job":"j1","seq":1,"t_ms":3}
//! {"event":"checkpointed","file":"j1.ckpt","iterations":4,"job":"j1","seq":2,"t_ms":90}
//! {"event":"done","iterations":9,"job":"j1","seq":3,"states":272,"t_ms":130}
//! ```
//!
//! ## Crash model
//!
//! Appends go through a single `O_APPEND`-style writer and are flushed
//! per record. A crash can tear at most the **final** line, so
//! [`replay`] tolerates exactly one trailing malformed/partial line and
//! rejects garbage anywhere earlier ([`JournalError::Malformed`] with
//! the line number). Replay is a pure fold over events — replaying the
//! same file any number of times yields the same [`JobLedger`], which is
//! what makes repeated daemon restarts idempotent. [`Journal::open`]
//! additionally truncates a torn trailing record before appending, so
//! the one-torn-line allowance is never consumed by history: a daemon
//! that crashes mid-append on every run still leaves a journal whose
//! damage is confined to its final line.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Write as _};
use std::path::Path;

use bfvr_obs::json::{self, Value};

use crate::job::JobSpec;

/// A job's current position in the lifecycle state machine (the fold of
/// its journal events).
///
/// ```text
/// submitted ──► running ──► done
///     ▲            │  ├───► failed ──► (requeue | quarantined)
///     │            │  └───► checkpointed ─► running (resumed)
///     └── shed ◄───┘          (daemon restart: running ─► interrupted)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobPhase {
    /// Submitted, waiting for a worker.
    Queued,
    /// A worker had it when the journal ends — on replay this means the
    /// daemon died mid-run; the job re-queues (from its checkpoint, if
    /// any).
    Running,
    /// Reached its fixed point; terminal.
    Done,
    /// Exhausted its retry budget or failed fatally; terminal.
    Failed,
    /// Poison job: quarantined after repeated worker deaths; terminal.
    Quarantined,
    /// Shed while degrading under load; terminal.
    Shed,
}

impl JobPhase {
    /// Whether no further transitions are possible.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobPhase::Done | JobPhase::Failed | JobPhase::Quarantined | JobPhase::Shed
        )
    }

    /// Journal/event label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Quarantined => "quarantined",
            JobPhase::Shed => "shed",
        }
    }
}

/// Replayed knowledge about one job.
#[derive(Clone, Debug)]
pub struct JobState {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Current phase.
    pub phase: JobPhase,
    /// Attempts started so far.
    pub attempts: u32,
    /// Path of the job's last durable checkpoint, if one was journaled.
    pub checkpoint: Option<String>,
    /// Final reached-state count (set by `done`).
    pub states: Option<f64>,
    /// Iterations of the last journaled checkpoint, then the final
    /// count once `done`.
    pub iterations: Option<u64>,
    /// Last failure/quarantine/shed reason.
    pub reason: Option<String>,
}

/// The fold of a whole journal: every job ever submitted, in submission
/// order (`BTreeMap` over the submission sequence).
#[derive(Clone, Debug, Default)]
pub struct JobLedger {
    jobs: BTreeMap<String, JobState>,
    order: Vec<String>,
    next_seq: u64,
}

impl JobLedger {
    /// The job ids in submission order.
    #[must_use]
    pub fn job_ids(&self) -> &[String] {
        &self.order
    }

    /// Looks up one job.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<&JobState> {
        self.jobs.get(id)
    }

    /// The next journal sequence number (continues the replayed file).
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Jobs that need a worker after a restart: queued, plus any the
    /// crashed daemon left `running` (they restart from their last
    /// durable checkpoint when one was journaled).
    #[must_use]
    pub fn runnable(&self) -> Vec<&JobState> {
        self.order
            .iter()
            .filter_map(|id| self.jobs.get(id))
            .filter(|j| matches!(j.phase, JobPhase::Queued | JobPhase::Running))
            .collect()
    }

    /// Applies one event to the ledger (the single transition function
    /// used by both replay and the live daemon).
    fn apply(&mut self, rec: &Value) -> Result<(), &'static str> {
        let event = rec
            .get("event")
            .and_then(Value::as_str)
            .ok_or("missing event")?;
        let job = rec
            .get("job")
            .and_then(Value::as_str)
            .ok_or("missing job id")?;
        if let Some(seq) = rec.get("seq").and_then(Value::as_u64) {
            self.next_seq = self.next_seq.max(seq + 1);
        }
        if event == "submitted" {
            let spec_val = rec.get("spec").ok_or("submitted without spec")?;
            let spec = JobSpec::from_json(spec_val).ok_or("invalid job spec")?;
            // Re-submission of a known id is idempotent: first wins.
            if !self.jobs.contains_key(job) {
                self.order.push(job.to_string());
                self.jobs.insert(
                    job.to_string(),
                    JobState {
                        spec,
                        phase: JobPhase::Queued,
                        attempts: 0,
                        checkpoint: None,
                        states: None,
                        iterations: None,
                        reason: None,
                    },
                );
            }
            return Ok(());
        }
        let state = self.jobs.get_mut(job).ok_or("event for unknown job")?;
        if state.phase.is_terminal() {
            // Terminal states absorb stragglers (a worker's late event
            // racing a shed decision): replay stays idempotent.
            return Ok(());
        }
        match event {
            "started" => {
                state.phase = JobPhase::Running;
                if let Some(a) = rec.get("attempt").and_then(Value::as_u64) {
                    #[allow(clippy::cast_possible_truncation)]
                    {
                        state.attempts = state.attempts.max(a as u32);
                    }
                }
            }
            "checkpointed" => {
                if let Some(f) = rec.get("file").and_then(Value::as_str) {
                    state.checkpoint = Some(f.to_string());
                }
                if let Some(i) = rec.get("iterations").and_then(Value::as_u64) {
                    state.iterations = Some(i);
                }
                // Still the worker's job; a later `started` resumes it.
                state.phase = JobPhase::Queued;
            }
            "done" => {
                state.phase = JobPhase::Done;
                state.states = rec.get("states").and_then(Value::as_num);
                state.iterations = rec.get("iterations").and_then(Value::as_u64);
            }
            "failed" => {
                state.phase = JobPhase::Queued;
                state.reason = rec.get("reason").and_then(Value::as_str).map(String::from);
                if rec.get("fatal").and_then(Value::as_bool) == Some(true) {
                    state.phase = JobPhase::Failed;
                }
            }
            "quarantined" => {
                state.phase = JobPhase::Quarantined;
                state.reason = rec.get("reason").and_then(Value::as_str).map(String::from);
            }
            "shed" => {
                state.phase = JobPhase::Shed;
                state.reason = rec.get("reason").and_then(Value::as_str).map(String::from);
            }
            _ => return Err("unknown event"),
        }
        Ok(())
    }
}

/// Why a journal could not be replayed.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A non-final line failed to parse or apply — the file is damaged
    /// beyond what the crash model allows.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o: {e}"),
            JournalError::Malformed { line, reason } => {
                write!(f, "journal line {line} is malformed: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Replays a journal file into a [`JobLedger`]. A missing file is an
/// empty ledger (first boot). Exactly one trailing torn line is
/// tolerated; see the module docs for the crash model.
///
/// # Errors
///
/// [`JournalError::Io`] on read failure, [`JournalError::Malformed`]
/// when a non-final line is damaged.
pub fn replay(path: &Path) -> Result<JobLedger, JournalError> {
    let mut ledger = JobLedger::default();
    let mut text = String::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_string(&mut text)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ledger),
        Err(e) => return Err(e.into()),
    }
    let lines: Vec<&str> = text.split('\n').collect();
    let last_content = lines.iter().rposition(|l| !l.trim().is_empty());
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = json::parse(line).map(|v| ledger.apply(&v).map_err(String::from));
        let failure = match parsed {
            Ok(Ok(())) => None,
            Ok(Err(reason)) => Some(reason),
            Err(e) => Some(e.to_string()),
        };
        if let Some(reason) = failure {
            // The final record may be torn by a crash mid-append; any
            // earlier damage violates the append-only crash model.
            if Some(i) == last_content {
                break;
            }
            return Err(JournalError::Malformed {
                line: i + 1,
                reason,
            });
        }
    }
    Ok(ledger)
}

/// The live, append-only journal writer. Owns the ledger it feeds, so
/// the daemon's in-memory view can never drift from what is on disk:
/// every [`Journal::append`] both persists and applies the event.
pub struct Journal {
    w: BufWriter<File>,
    ledger: JobLedger,
    start: std::time::Instant,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path`, replaying any
    /// existing records first.
    ///
    /// # Errors
    ///
    /// Replay errors, or an open/append failure.
    pub fn open(path: &Path) -> Result<Journal, JournalError> {
        let ledger = replay(path)?;
        // Drop a torn trailing record before appending: replay already
        // ignored it (crash-mid-append model), and appending after the
        // torn bytes would weld two records into one corrupt interior
        // line, poisoning every later replay.
        match std::fs::read(path) {
            Ok(bytes) if !bytes.is_empty() && bytes.last() != Some(&b'\n') => {
                let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(keep as u64)?;
                f.sync_all()?;
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let f = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal {
            w: BufWriter::new(f),
            ledger,
            start: std::time::Instant::now(),
        })
    }

    /// The replayed + live ledger.
    #[must_use]
    pub fn ledger(&self) -> &JobLedger {
        &self.ledger
    }

    /// Appends one event. `fields` supplements the mandatory
    /// `seq`/`t_ms`/`job`/`event` envelope. The record is flushed before
    /// this returns — a reported append is on its way to disk.
    ///
    /// # Errors
    ///
    /// Write/flush failures (the daemon treats these as fatal: a job
    /// store that cannot record transitions must stop taking work), or
    /// an event the state machine rejects.
    pub fn append(
        &mut self,
        job: &str,
        event: &str,
        fields: Vec<(&'static str, Value)>,
    ) -> Result<(), JournalError> {
        let mut pairs = vec![
            ("seq", Value::Num(self.ledger.next_seq as f64)),
            (
                "t_ms",
                Value::Num(self.start.elapsed().as_millis().min(u128::from(u64::MAX)) as f64),
            ),
            ("job", Value::Str(job.to_string())),
            ("event", Value::Str(event.to_string())),
        ];
        pairs.extend(fields);
        let rec = json::obj(pairs);
        self.ledger
            .apply(&rec)
            .map_err(|reason| JournalError::Malformed {
                line: 0,
                reason: reason.to_string(),
            })?;
        self.w.write_all(rec.encode().as_bytes())?;
        self.w.write_all(b"\n")?;
        self.w.flush()?;
        Ok(())
    }
}
