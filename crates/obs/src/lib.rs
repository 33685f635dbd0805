//! # bfvr-obs — structured run telemetry for `bfvr`
//!
//! A zero-dependency observability layer: **spans** (nested, timed
//! against a monotonic clock, carrying counter deltas), a **counter**
//! model for snapshotting manager/cache/unique-table statistics, and an
//! append-only **JSONL event stream** that `bfvr report` renders back
//! into per-engine timelines.
//!
//! It also holds [`diag`], the diagnostics vocabulary (severities,
//! findings, the sorted report, mutation self-test outcomes) shared by
//! the `bfvr-audit` and `bfvr-nlint` analysis passes.
//!
//! ## Design constraints
//!
//! * **Non-perturbing.** Everything a tracer records comes from `&self`
//!   accessors on the instrumented structures; recording a trace must
//!   not change allocation, garbage collection, or cache behaviour of
//!   the traced run (see `docs/observability.md` for the contract and
//!   the regression test that enforces it).
//! * **Cheap.** One small heap-free-ish event per *sampled* iteration;
//!   the sampling stride ([`Tracer::with_sampling`]) bounds overhead on
//!   long traversals. Un-sampled iterations cost one branch.
//! * **Offline.** No serde, no tracing-rs: the JSON encoder/parser in
//!   [`json`] is hand-rolled and deterministic (sorted keys), so traces
//!   diff cleanly and the crate builds in the no-network container.
//! * **Thread-strategy, not thread-safety.** [`Tracer`] is deliberately
//!   `!Sync`; racing lanes each run a private collector tracer
//!   ([`Tracer::collector`]) and the race driver merges the plain-data
//!   event vectors with [`Tracer::ingest`], tagging each with its lane.
//!
//! ## Stream shape
//!
//! A well-formed trace starts with a `meta` header, then nests
//! `run > engine` span pairs around flat `iter` records:
//!
//! ```text
//! meta        schema version, sampling stride, label
//! span_open   kind=run    name="queue4/S1"
//! span_open   kind=engine name="BFV"    (parent = run span)
//! iter        per-iteration measurements + counter snapshot
//! ...
//! span_close  kind=engine (duration + counter delta across the engine)
//! engine_end  outcome, iterations, states, peak nodes
//! span_close  kind=run
//! ```
//!
//! Race traces add `cancel`/`winner` events and lane-tagged copies of
//! each lane's stream; escalation traces add `round` events; resource
//! exhaustion (real or fault-injected — indistinguishable by design)
//! adds `limit` events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod diag;
pub mod event;
pub mod json;
pub mod report;
pub mod sink;
mod tracer;

pub use event::{Counters, Event, EventKind, IterRecord, LimitKind, SpanKind, SCHEMA_VERSION};
pub use report::{parse_jsonl, render, Format, TraceError};
pub use sink::{JsonlSink, NullSink, RingSink, Sink, VecSink};
pub use tracer::{SpanId, Tracer};
