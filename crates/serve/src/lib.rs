//! # bfvr-serve — crash-safe reachability as a service
//!
//! The robustness layer of the `bfvr` project: long-running fixed-point
//! reachability jobs (the paper's §2.3–§2.7 traversals) that survive
//! being killed, at three nested levels:
//!
//! * [`ckpt`] — the **durable checkpoint format**: a versioned,
//!   checksummed binary container serializing a
//!   [`bfvr_reach::Checkpoint`]'s representation state (reduced BDD DAGs
//!   via [`bfvr_bdd::BddManager::export_dag`]) with temp-file +
//!   atomic-rename writes; the loader re-interns into a fresh manager
//!   and rejects corrupt, truncated or version-mismatched files with
//!   structured errors, never a panic.
//! * [`journal`] — the **crash-safe job store**: an append-only JSONL
//!   journal of job state transitions (submitted → running →
//!   checkpointed → done/failed/quarantined/shed) in the `bfvr-obs`
//!   canonical JSON encoding, replayed idempotently on startup.
//! * [`supervisor`] — the **supervised worker pool**: jobs run in
//!   spawned `bfvr` child processes under per-job wall-clock timeouts
//!   (SIGTERM → checkpoint → grace → SIGKILL), with exponential-backoff
//!   retry, poison-job quarantine after repeated crashes, and
//!   lowest-priority-first load shedding when the pool keeps dying.
//!
//! [`signal`] holds the workspace's only `unsafe`: two hand-declared
//! POSIX calls (`signal`, `kill`) behind safe wrappers, because the
//! workspace builds offline with no external crates.
//!
//! The engine-level mechanisms this builds on live elsewhere: in-memory
//! checkpoints, `resume` and the representation half of a checkpoint
//! (`ReprCheckpoint`) in `bfvr-reach`, and the cooperative cancel token
//! in `bfvr-bdd`.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod ckpt;
pub mod job;
pub mod journal;
pub mod signal;
pub mod supervisor;

pub use ckpt::{
    decode_checkpoint, decode_meta, encode_checkpoint, fnv1a64, level_map_of, read_checkpoint,
    read_meta, write_checkpoint, CkptError, CkptMeta,
};
pub use job::JobSpec;
pub use journal::{replay, JobLedger, JobPhase, JobState, Journal, JournalError};
pub use supervisor::{
    JobRunner, ProcessRunner, RunOutcome, Supervisor, SupervisorConfig, EXIT_CHECKPOINTED,
};
