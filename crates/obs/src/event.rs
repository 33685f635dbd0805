//! The trace event model and its JSONL encoding (schema version 1).
//!
//! One [`Event`] encodes as one JSON object per line. Every line carries
//! the envelope fields `seq` (per-stream sequence number), `t_us`
//! (microseconds since the emitting tracer's epoch, monotonic) and an
//! optional `lane` (set when a racing lane's stream was merged into the
//! main trace — lane timestamps are relative to the *lane's* epoch). The
//! `ev` field selects the payload variant.
//!
//! The full schema is documented in `docs/observability.md`; the
//! round-trip guarantee (`encode` → [`Event::parse`] → identical event)
//! is what `bfvr report` and the CI trace validation build on.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::json::{self, Value};

/// Current schema version, written into the [`EventKind::Meta`] header.
pub const SCHEMA_VERSION: u64 = 1;

/// Where a span sits in the taxonomy `run > engine > iteration > op`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One traced activity: a CLI invocation or one benchmark cell.
    Run,
    /// One engine's traversal inside a run.
    Engine,
    /// One fixed-point iteration (usually emitted as an [`EventKind::Iter`]
    /// complete-event instead of an open/close pair; see the tracer docs).
    Iteration,
    /// One operation class inside an iteration (image, union, convert).
    Op,
}

impl SpanKind {
    /// Stable schema label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Engine => "engine",
            SpanKind::Iteration => "iteration",
            SpanKind::Op => "op",
        }
    }

    fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "run" => SpanKind::Run,
            "engine" => SpanKind::Engine,
            "iteration" => SpanKind::Iteration,
            "op" => SpanKind::Op,
            _ => return None,
        })
    }
}

/// Which resource ceiling an [`EventKind::Limit`] event reports. Injected
/// faults (see `bfvr_bdd::FaultPlan`) surface through the same two kinds:
/// a deterministic fault is indistinguishable from the real exhaustion it
/// simulates, by design.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LimitKind {
    /// The node ceiling tripped (`M.O.`).
    NodeLimit,
    /// The wall-clock deadline tripped (`T.O.`).
    Deadline,
}

impl LimitKind {
    /// Stable schema label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LimitKind::NodeLimit => "node_limit",
            LimitKind::Deadline => "deadline",
        }
    }

    fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "node_limit" => LimitKind::NodeLimit,
            "deadline" => LimitKind::Deadline,
            _ => return None,
        })
    }
}

/// A named counter set: an ordered list of `(name, value)` pairs.
///
/// The registry pattern: producers snapshot whatever counters they own
/// (manager stats, cache stats, unique-table stats, GC stats) under
/// stable names; [`Counters::delta`] subtracts snapshots pairwise, which
/// is how per-span counter deltas are derived. Values are `f64` — every
/// counter in the system is an integer far below 2^53, and f64 keeps the
/// JSON mapping exact.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    pairs: Vec<(Cow<'static, str>, f64)>,
}

impl Counters {
    /// An empty counter set.
    #[must_use]
    pub fn new() -> Self {
        Counters::default()
    }

    /// Inserts (or overwrites) a counter. Pairs are kept sorted by name
    /// so a `Counters` has exactly one representation: the JSON object
    /// encoding (sorted keys) round-trips back to an equal value.
    pub fn set(&mut self, name: impl Into<Cow<'static, str>>, value: f64) {
        let name = name.into();
        match self.pairs.binary_search_by(|(n, _)| n.cmp(&name)) {
            Ok(i) => self.pairs[i].1 = value,
            Err(i) => self.pairs.insert(i, (name, value)),
        }
    }

    /// Builder-style [`Counters::set`].
    #[must_use]
    pub fn with(mut self, name: impl Into<Cow<'static, str>>, value: f64) -> Self {
        self.set(name, value);
        self
    }

    /// Reads a counter by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.pairs.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.pairs.iter().map(|(n, v)| (n.as_ref(), *v))
    }

    /// Number of counters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// `self − earlier`, pairwise by name: the per-span delta of two
    /// cumulative snapshots. Counters missing from `earlier` are treated
    /// as starting at zero; counters only in `earlier` are dropped
    /// (a producer stopped reporting them — nothing to say).
    #[must_use]
    pub fn delta(&self, earlier: &Counters) -> Counters {
        let mut out = Counters::new();
        for (name, v) in &self.pairs {
            let before = earlier.get(name).unwrap_or(0.0);
            out.set(name.clone(), v - before);
        }
        out
    }

    #[cfg(test)]
    fn to_value(&self) -> Value {
        Value::Obj(
            self.pairs
                .iter()
                .map(|(n, v)| (n.to_string(), Value::Num(*v)))
                .collect(),
        )
    }

    /// Writes the counter set as a compact JSON object. Pairs are
    /// already sorted by name, so this matches the `Value::Obj`
    /// encoding byte for byte without building a map.
    fn write_obj(&self, out: &mut String) {
        out.push('{');
        for (i, (n, v)) in self.pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(n, out);
            out.push(':');
            json::write_num(*v, out);
        }
        out.push('}');
    }

    fn from_value(v: &Value) -> Option<Self> {
        let map = v.as_obj()?;
        let mut c = Counters::new();
        for (k, v) in map {
            c.set(k.clone(), v.as_num()?);
        }
        Some(c)
    }
}

impl FromIterator<(Cow<'static, str>, f64)> for Counters {
    fn from_iter<T: IntoIterator<Item = (Cow<'static, str>, f64)>>(iter: T) -> Self {
        // Route through `set` so the sorted-pairs invariant (and with it
        // the one-representation guarantee) holds regardless of the
        // producer's insertion order.
        let mut c = Counters::new();
        for (name, value) in iter {
            c.set(name, value);
        }
        c
    }
}

/// Per-iteration telemetry record — the workhorse event of the stream,
/// emitted once per *sampled* fixed-point iteration. Carries the
/// engine-level iteration stats the paper's evaluation plots (frontier
/// size, representation size, live/peak nodes, reached states) plus a
/// cumulative counter snapshot and per-op-class durations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IterRecord {
    /// Engine label (`BFV`, `CBM`, `MONO`, `IWLS95`, `CDEC`).
    pub engine: Cow<'static, str>,
    /// 1-based iteration number.
    pub iteration: u64,
    /// Wall time of this iteration, microseconds.
    pub dur_us: u64,
    /// BDD nodes of the iteration's start set (the frontier).
    pub frontier_nodes: u64,
    /// Shared BDD nodes of the reached-set representation.
    pub reached_nodes: u64,
    /// Live nodes after the engine's (possibly deferred) collection.
    pub live_nodes: u64,
    /// Nodes currently allocated in the arena (live + deferred garbage).
    pub allocated_nodes: u64,
    /// Peak allocated nodes so far in this traversal.
    pub peak_nodes: u64,
    /// Nodes reclaimed by this iteration's collection (0 when deferred).
    pub gc_collected: u64,
    /// Reached-state count, when the representation makes counting free
    /// (χ-based engines); `None` for vector/CDec engines, where counting
    /// would require a conversion the engine itself never performs.
    pub states: Option<f64>,
    /// Cumulative manager counter snapshot (see the counter registry in
    /// `docs/observability.md`).
    pub snapshot: Counters,
    /// Op-class durations within this iteration, microseconds
    /// (`image`, `union`, `convert`, … — engine-dependent).
    pub ops: Counters,
}

/// The payload of one trace line.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// Stream header: always the first event of a stream.
    Meta {
        /// Schema version ([`SCHEMA_VERSION`]).
        version: u64,
        /// Iteration sampling stride (1 = every iteration).
        sample_every: u64,
        /// Free-form producer label (CLI invocation, bench binary).
        label: String,
    },
    /// A span opened (kinds `run`/`engine`; iterations and ops are
    /// emitted as complete events instead).
    SpanOpen {
        /// Stream-unique span id.
        id: u64,
        /// Enclosing span, if any.
        parent: Option<u64>,
        /// Taxonomy level.
        kind: SpanKind,
        /// Human-readable name (circuit/order, engine label, …).
        name: String,
    },
    /// A span closed; carries its duration and the counter delta between
    /// open and close.
    SpanClose {
        /// Id from the matching [`EventKind::SpanOpen`].
        id: u64,
        /// Taxonomy level (repeated so lines are self-describing).
        kind: SpanKind,
        /// Name (repeated so lines are self-describing).
        name: String,
        /// Wall time between open and close, microseconds.
        dur_us: u64,
        /// Counter movement across the span (`close − open`).
        delta: Counters,
    },
    /// One sampled fixed-point iteration.
    Iter(IterRecord),
    /// An engine finished (in any way); the trace-level mirror of
    /// `ReachResult`.
    EngineEnd {
        /// Engine label.
        engine: Cow<'static, str>,
        /// Outcome label (`ok`, `T.O.`, `M.O.`, `I.L.`, `ERR`).
        outcome: Cow<'static, str>,
        /// Iterations completed.
        iterations: u64,
        /// Reached-state count, when known.
        states: Option<f64>,
        /// Peak allocated nodes.
        peak_nodes: u64,
        /// Traversal wall time, microseconds.
        dur_us: u64,
    },
    /// A resource ceiling stopped an engine — real or fault-injected,
    /// the stream does not distinguish (that is the point of injection).
    Limit {
        /// Engine label.
        engine: Cow<'static, str>,
        /// Which ceiling.
        kind: LimitKind,
        /// Iterations completed when it tripped.
        iterations: u64,
    },
    /// A racing lane was stopped (or skipped) because another lane won.
    Cancel {
        /// Engine label of the cancelled lane.
        engine: Cow<'static, str>,
    },
    /// A racing lane won.
    Winner {
        /// Engine label of the winning lane.
        engine: Cow<'static, str>,
    },
    /// A dynamic variable reorder (sift pass) ran between iterations.
    Reorder {
        /// Engine label.
        engine: Cow<'static, str>,
        /// Iterations completed when the reorder triggered.
        iteration: u64,
        /// Live nodes before the pass.
        before: u64,
        /// Live nodes after the pass.
        after: u64,
        /// Wall time of the pass, microseconds.
        dur_us: u64,
    },
}

impl EventKind {
    /// The `ev` discriminator string of this payload.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::Meta { .. } => "meta",
            EventKind::SpanOpen { .. } => "span_open",
            EventKind::SpanClose { .. } => "span_close",
            EventKind::Iter(_) => "iter",
            EventKind::EngineEnd { .. } => "engine_end",
            EventKind::Limit { .. } => "limit",
            EventKind::Cancel { .. } => "cancel",
            EventKind::Winner { .. } => "winner",
            EventKind::Reorder { .. } => "reorder",
        }
    }
}

/// One trace line: envelope plus payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Per-stream sequence number (0-based, dense).
    pub seq: u64,
    /// Microseconds since the emitting tracer's monotonic epoch.
    pub t_us: u64,
    /// Racing lane index, set when this event was merged from a lane
    /// stream (lane `t_us` values are relative to the lane's own epoch).
    pub lane: Option<u64>,
    /// The payload.
    pub kind: EventKind,
}

/// A schema decoding failure (structurally valid JSON that is not a
/// valid event).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schema error: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

/// Incremental writer for one event line. Fields must be appended in
/// globally sorted key order: the `Value::Obj` encoding this replaces
/// sorted all keys alphabetically, and byte-identical output is part of
/// the round-trip contract (asserted against the map-based oracle in
/// the tests below). Writing fields directly skips the per-event
/// `BTreeMap<String, Value>` the oracle builds — this is the hot path
/// of every sink, called once per sampled iteration from inside engine
/// fixed-point loops.
struct FieldWriter {
    out: String,
}

impl FieldWriter {
    fn new() -> Self {
        let mut out = String::with_capacity(192);
        out.push('{');
        FieldWriter { out }
    }

    fn key(&mut self, k: &str) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        json::write_str(k, &mut self.out);
        self.out.push(':');
    }

    fn int(&mut self, k: &str, v: u64) {
        self.key(k);
        json::write_num(v as f64, &mut self.out);
    }

    fn opt_int(&mut self, k: &str, v: Option<u64>) {
        self.key(k);
        match v {
            Some(x) => json::write_num(x as f64, &mut self.out),
            None => self.out.push_str("null"),
        }
    }

    fn opt_num(&mut self, k: &str, v: Option<f64>) {
        self.key(k);
        match v {
            Some(x) => json::write_num(x, &mut self.out),
            None => self.out.push_str("null"),
        }
    }

    fn text(&mut self, k: &str, v: &str) {
        self.key(k);
        json::write_str(v, &mut self.out);
    }

    fn counters(&mut self, k: &str, c: &Counters) {
        self.key(k);
        c.write_obj(&mut self.out);
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

fn opt_u64_field(map: &BTreeMap<String, Value>, key: &str) -> Result<Option<u64>, SchemaError> {
    match map.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| SchemaError(format!("field `{key}` is not a non-negative integer"))),
    }
}

fn u64_field(map: &BTreeMap<String, Value>, key: &str) -> Result<u64, SchemaError> {
    opt_u64_field(map, key)?.ok_or_else(|| SchemaError(format!("missing field `{key}`")))
}

fn str_field(map: &BTreeMap<String, Value>, key: &str) -> Result<String, SchemaError> {
    map.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| SchemaError(format!("missing string field `{key}`")))
}

fn counters_field(map: &BTreeMap<String, Value>, key: &str) -> Result<Counters, SchemaError> {
    match map.get(key) {
        None => Ok(Counters::new()),
        Some(v) => Counters::from_value(v)
            .ok_or_else(|| SchemaError(format!("field `{key}` is not a counter object"))),
    }
}

impl Event {
    /// Encodes the event as one compact JSON line (no trailing newline).
    ///
    /// Fields appear in sorted key order, exactly as a `Value::Obj`
    /// encoding would produce them; the optional `lane` envelope field
    /// is interleaved at its alphabetical position in each variant.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut w = FieldWriter::new();
        match &self.kind {
            EventKind::Meta {
                version,
                sample_every,
                label,
            } => {
                w.text("ev", "meta");
                w.text("label", label);
                if let Some(l) = self.lane {
                    w.int("lane", l);
                }
                w.int("sample_every", *sample_every);
                w.int("seq", self.seq);
                w.int("t_us", self.t_us);
                w.int("v", *version);
            }
            EventKind::SpanOpen {
                id,
                parent,
                kind,
                name,
            } => {
                w.text("ev", "span_open");
                w.int("id", *id);
                w.text("kind", kind.label());
                if let Some(l) = self.lane {
                    w.int("lane", l);
                }
                w.text("name", name);
                w.opt_int("parent", *parent);
                w.int("seq", self.seq);
                w.int("t_us", self.t_us);
            }
            EventKind::SpanClose {
                id,
                kind,
                name,
                dur_us,
                delta,
            } => {
                w.counters("delta", delta);
                w.int("dur_us", *dur_us);
                w.text("ev", "span_close");
                w.int("id", *id);
                w.text("kind", kind.label());
                if let Some(l) = self.lane {
                    w.int("lane", l);
                }
                w.text("name", name);
                w.int("seq", self.seq);
                w.int("t_us", self.t_us);
            }
            EventKind::Iter(r) => {
                w.int("allocated_nodes", r.allocated_nodes);
                w.int("dur_us", r.dur_us);
                w.text("engine", &r.engine);
                w.text("ev", "iter");
                w.int("frontier_nodes", r.frontier_nodes);
                w.int("gc_collected", r.gc_collected);
                w.int("iter", r.iteration);
                if let Some(l) = self.lane {
                    w.int("lane", l);
                }
                w.int("live_nodes", r.live_nodes);
                w.counters("ops", &r.ops);
                w.int("peak_nodes", r.peak_nodes);
                w.int("reached_nodes", r.reached_nodes);
                w.int("seq", self.seq);
                w.counters("snapshot", &r.snapshot);
                w.opt_num("states", r.states);
                w.int("t_us", self.t_us);
            }
            EventKind::EngineEnd {
                engine,
                outcome,
                iterations,
                states,
                peak_nodes,
                dur_us,
            } => {
                w.int("dur_us", *dur_us);
                w.text("engine", engine);
                w.text("ev", "engine_end");
                w.int("iterations", *iterations);
                if let Some(l) = self.lane {
                    w.int("lane", l);
                }
                w.text("outcome", outcome);
                w.int("peak_nodes", *peak_nodes);
                w.int("seq", self.seq);
                w.opt_num("states", *states);
                w.int("t_us", self.t_us);
            }
            EventKind::Limit {
                engine,
                kind,
                iterations,
            } => {
                w.text("engine", engine);
                w.text("ev", "limit");
                w.int("iterations", *iterations);
                w.text("kind", kind.label());
                if let Some(l) = self.lane {
                    w.int("lane", l);
                }
                w.int("seq", self.seq);
                w.int("t_us", self.t_us);
            }
            EventKind::Cancel { engine } | EventKind::Winner { engine } => {
                w.text("engine", engine);
                w.text("ev", self.kind.tag());
                if let Some(l) = self.lane {
                    w.int("lane", l);
                }
                w.int("seq", self.seq);
                w.int("t_us", self.t_us);
            }
            EventKind::Reorder {
                engine,
                iteration,
                before,
                after,
                dur_us,
            } => {
                w.int("after", *after);
                w.int("before", *before);
                w.int("dur_us", *dur_us);
                w.text("engine", engine);
                w.text("ev", "reorder");
                w.int("iter", *iteration);
                if let Some(l) = self.lane {
                    w.int("lane", l);
                }
                w.int("seq", self.seq);
                w.int("t_us", self.t_us);
            }
        }
        w.finish()
    }

    /// Parses one JSONL line back into an event.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a structurally valid object that does
    /// not match the schema (unknown `ev`, missing/mistyped fields).
    pub fn parse(line: &str) -> Result<Event, SchemaError> {
        let v = json::parse(line).map_err(|e| SchemaError(e.to_string()))?;
        let map = v
            .as_obj()
            .ok_or_else(|| SchemaError("event line is not an object".into()))?;
        let seq = u64_field(map, "seq")?;
        let t_us = u64_field(map, "t_us")?;
        let lane = opt_u64_field(map, "lane")?;
        let tag = str_field(map, "ev")?;
        let kind = match tag.as_str() {
            "meta" => EventKind::Meta {
                version: u64_field(map, "v")?,
                sample_every: u64_field(map, "sample_every")?,
                label: str_field(map, "label")?,
            },
            "span_open" => EventKind::SpanOpen {
                id: u64_field(map, "id")?,
                parent: opt_u64_field(map, "parent")?,
                kind: SpanKind::from_label(&str_field(map, "kind")?)
                    .ok_or_else(|| SchemaError("unknown span kind".into()))?,
                name: str_field(map, "name")?,
            },
            "span_close" => EventKind::SpanClose {
                id: u64_field(map, "id")?,
                kind: SpanKind::from_label(&str_field(map, "kind")?)
                    .ok_or_else(|| SchemaError("unknown span kind".into()))?,
                name: str_field(map, "name")?,
                dur_us: u64_field(map, "dur_us")?,
                delta: counters_field(map, "delta")?,
            },
            "iter" => EventKind::Iter(IterRecord {
                engine: str_field(map, "engine")?.into(),
                iteration: u64_field(map, "iter")?,
                dur_us: u64_field(map, "dur_us")?,
                frontier_nodes: u64_field(map, "frontier_nodes")?,
                reached_nodes: u64_field(map, "reached_nodes")?,
                live_nodes: u64_field(map, "live_nodes")?,
                allocated_nodes: u64_field(map, "allocated_nodes")?,
                peak_nodes: u64_field(map, "peak_nodes")?,
                gc_collected: u64_field(map, "gc_collected")?,
                states: match map.get("states") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(
                        v.as_num()
                            .ok_or_else(|| SchemaError("`states` is not a number".into()))?,
                    ),
                },
                snapshot: counters_field(map, "snapshot")?,
                ops: counters_field(map, "ops")?,
            }),
            "engine_end" => EventKind::EngineEnd {
                engine: str_field(map, "engine")?.into(),
                outcome: str_field(map, "outcome")?.into(),
                iterations: u64_field(map, "iterations")?,
                states: match map.get("states") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(
                        v.as_num()
                            .ok_or_else(|| SchemaError("`states` is not a number".into()))?,
                    ),
                },
                peak_nodes: u64_field(map, "peak_nodes")?,
                dur_us: u64_field(map, "dur_us")?,
            },
            "limit" => EventKind::Limit {
                engine: str_field(map, "engine")?.into(),
                kind: LimitKind::from_label(&str_field(map, "kind")?)
                    .ok_or_else(|| SchemaError("unknown limit kind".into()))?,
                iterations: u64_field(map, "iterations")?,
            },
            "cancel" => EventKind::Cancel {
                engine: str_field(map, "engine")?.into(),
            },
            "winner" => EventKind::Winner {
                engine: str_field(map, "engine")?.into(),
            },
            "reorder" => EventKind::Reorder {
                engine: str_field(map, "engine")?.into(),
                iteration: u64_field(map, "iter")?,
                before: u64_field(map, "before")?,
                after: u64_field(map, "after")?,
                dur_us: u64_field(map, "dur_us")?,
            },
            other => return Err(SchemaError(format!("unknown event tag `{other}`"))),
        };
        Ok(Event {
            seq,
            t_us,
            lane,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_delta_subtracts_pairwise() {
        let a = Counters::new().with("x", 10.0).with("y", 3.0);
        let b = Counters::new()
            .with("x", 25.0)
            .with("y", 2.0)
            .with("z", 7.0);
        let d = b.delta(&a);
        assert_eq!(d.get("x"), Some(15.0));
        assert_eq!(d.get("y"), Some(-1.0));
        assert_eq!(d.get("z"), Some(7.0));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn counters_set_overwrites() {
        let mut c = Counters::new();
        c.set("a", 1.0);
        c.set("a", 2.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("a"), Some(2.0));
    }

    /// The map-based encoder the direct [`FieldWriter`] path replaced,
    /// kept as the ordering oracle: `Value::Obj` sorts keys globally,
    /// so any field the fast path emits out of alphabetical order (or
    /// forgets) shows up as a byte diff here.
    fn encode_via_value(e: &Event) -> String {
        fn opt_num(v: Option<f64>) -> Value {
            v.map_or(Value::Null, Value::Num)
        }
        let mut map: BTreeMap<String, Value> = BTreeMap::new();
        map.insert("seq".into(), Value::Num(e.seq as f64));
        map.insert("t_us".into(), Value::Num(e.t_us as f64));
        if let Some(lane) = e.lane {
            map.insert("lane".into(), Value::Num(lane as f64));
        }
        map.insert("ev".into(), Value::Str(e.kind.tag().into()));
        match &e.kind {
            EventKind::Meta {
                version,
                sample_every,
                label,
            } => {
                map.insert("v".into(), Value::Num(*version as f64));
                map.insert("sample_every".into(), Value::Num(*sample_every as f64));
                map.insert("label".into(), Value::Str(label.clone()));
            }
            EventKind::SpanOpen {
                id,
                parent,
                kind,
                name,
            } => {
                map.insert("id".into(), Value::Num(*id as f64));
                map.insert("parent".into(), opt_num(parent.map(|p| p as f64)));
                map.insert("kind".into(), Value::Str(kind.label().into()));
                map.insert("name".into(), Value::Str(name.clone()));
            }
            EventKind::SpanClose {
                id,
                kind,
                name,
                dur_us,
                delta,
            } => {
                map.insert("id".into(), Value::Num(*id as f64));
                map.insert("kind".into(), Value::Str(kind.label().into()));
                map.insert("name".into(), Value::Str(name.clone()));
                map.insert("dur_us".into(), Value::Num(*dur_us as f64));
                map.insert("delta".into(), delta.to_value());
            }
            EventKind::Iter(r) => {
                map.insert("engine".into(), Value::Str(r.engine.to_string()));
                map.insert("iter".into(), Value::Num(r.iteration as f64));
                map.insert("dur_us".into(), Value::Num(r.dur_us as f64));
                map.insert("frontier_nodes".into(), Value::Num(r.frontier_nodes as f64));
                map.insert("reached_nodes".into(), Value::Num(r.reached_nodes as f64));
                map.insert("live_nodes".into(), Value::Num(r.live_nodes as f64));
                map.insert(
                    "allocated_nodes".into(),
                    Value::Num(r.allocated_nodes as f64),
                );
                map.insert("peak_nodes".into(), Value::Num(r.peak_nodes as f64));
                map.insert("gc_collected".into(), Value::Num(r.gc_collected as f64));
                map.insert("states".into(), opt_num(r.states));
                map.insert("snapshot".into(), r.snapshot.to_value());
                map.insert("ops".into(), r.ops.to_value());
            }
            EventKind::EngineEnd {
                engine,
                outcome,
                iterations,
                states,
                peak_nodes,
                dur_us,
            } => {
                map.insert("engine".into(), Value::Str(engine.to_string()));
                map.insert("outcome".into(), Value::Str(outcome.to_string()));
                map.insert("iterations".into(), Value::Num(*iterations as f64));
                map.insert("states".into(), opt_num(*states));
                map.insert("peak_nodes".into(), Value::Num(*peak_nodes as f64));
                map.insert("dur_us".into(), Value::Num(*dur_us as f64));
            }
            EventKind::Limit {
                engine,
                kind,
                iterations,
            } => {
                map.insert("engine".into(), Value::Str(engine.to_string()));
                map.insert("kind".into(), Value::Str(kind.label().into()));
                map.insert("iterations".into(), Value::Num(*iterations as f64));
            }
            EventKind::Cancel { engine } | EventKind::Winner { engine } => {
                map.insert("engine".into(), Value::Str(engine.to_string()));
            }
            EventKind::Reorder {
                engine,
                iteration,
                before,
                after,
                dur_us,
            } => {
                map.insert("engine".into(), Value::Str(engine.to_string()));
                map.insert("iter".into(), Value::Num(*iteration as f64));
                map.insert("before".into(), Value::Num(*before as f64));
                map.insert("after".into(), Value::Num(*after as f64));
                map.insert("dur_us".into(), Value::Num(*dur_us as f64));
            }
        }
        Value::Obj(map).encode()
    }

    fn every_variant() -> Vec<EventKind> {
        let counters = Counters::new()
            .with("mk_calls", 42.0)
            .with("cache.ite.hits", 7.0);
        vec![
            EventKind::Meta {
                version: SCHEMA_VERSION,
                sample_every: 4,
                label: "unit \"quoted\" label".into(),
            },
            EventKind::SpanOpen {
                id: 3,
                parent: Some(1),
                kind: SpanKind::Engine,
                name: "BFV".into(),
            },
            EventKind::SpanOpen {
                id: 0,
                parent: None,
                kind: SpanKind::Run,
                name: "s27/S1".into(),
            },
            EventKind::SpanClose {
                id: 3,
                kind: SpanKind::Engine,
                name: "BFV".into(),
                dur_us: 1234,
                delta: counters.clone(),
            },
            EventKind::Iter(IterRecord {
                engine: "CBM".into(),
                iteration: 9,
                dur_us: 55,
                frontier_nodes: 1,
                reached_nodes: 2,
                live_nodes: 3,
                allocated_nodes: 4,
                peak_nodes: 5,
                gc_collected: 6,
                states: Some(17.0),
                snapshot: counters.clone(),
                ops: Counters::new().with("image", 40.5),
            }),
            EventKind::Iter(IterRecord {
                engine: "BFV".into(),
                states: None,
                ..IterRecord::default()
            }),
            EventKind::EngineEnd {
                engine: "MONO".into(),
                outcome: "ok".into(),
                iterations: 12,
                states: Some(4096.0),
                peak_nodes: 99,
                dur_us: 100,
            },
            EventKind::Limit {
                engine: "IWLS95".into(),
                kind: LimitKind::NodeLimit,
                iterations: 7,
            },
            EventKind::Limit {
                engine: "CDEC".into(),
                kind: LimitKind::Deadline,
                iterations: 2,
            },
            EventKind::Cancel {
                engine: "BFV".into(),
            },
            EventKind::Winner {
                engine: "CBM".into(),
            },
            EventKind::Reorder {
                engine: "MONO".into(),
                iteration: 5,
                before: 120_000,
                after: 44_000,
                dur_us: 8_700,
            },
        ]
    }

    #[test]
    fn direct_encoder_matches_the_map_based_oracle_on_every_variant() {
        for (i, kind) in every_variant().into_iter().enumerate() {
            for lane in [None, Some(2)] {
                let e = Event {
                    seq: i as u64,
                    t_us: 1000 + i as u64,
                    lane,
                    kind: kind.clone(),
                };
                assert_eq!(
                    e.encode(),
                    encode_via_value(&e),
                    "variant #{i}, lane {lane:?}"
                );
            }
        }
    }

    #[test]
    fn every_variant_round_trips_through_parse() {
        for (i, kind) in every_variant().into_iter().enumerate() {
            let e = Event {
                seq: i as u64,
                t_us: 7 * i as u64,
                lane: if i % 2 == 0 { None } else { Some(i as u64) },
                kind,
            };
            let back = Event::parse(&e.encode()).expect("round trip");
            assert_eq!(back, e, "variant #{i}");
        }
    }

    #[test]
    fn unknown_tag_is_a_schema_error() {
        let line = r#"{"seq":0,"t_us":1,"ev":"bogus"}"#;
        assert!(Event::parse(line).is_err());
    }

    #[test]
    fn missing_field_is_a_schema_error() {
        let line = r#"{"seq":0,"t_us":1,"ev":"cancel"}"#;
        assert!(Event::parse(line)
            .unwrap_err()
            .to_string()
            .contains("engine"));
    }
}
