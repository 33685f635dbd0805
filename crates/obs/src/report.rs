//! Turns a JSONL trace back into human-readable per-engine timelines —
//! the `bfvr report` backend.
//!
//! The renderer is schema-checking by construction: it refuses traces
//! whose first line is not a supported [`EventKind::Meta`] header or
//! whose lines fail to decode, which is what the CI trace-validation
//! step relies on.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::event::{Event, EventKind, IterRecord, SpanKind};

/// Output style for [`render`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Fixed-width columns for terminals.
    Text,
    /// GitHub-flavored markdown pipe tables.
    Markdown,
}

/// A trace that failed to parse or validate, with its 1-based line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number in the JSONL input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

/// Parses and validates a JSONL trace: every line must decode against
/// the schema, and the first line must be a `meta` header with a
/// supported version. Blank lines are permitted and skipped.
///
/// # Errors
///
/// Returns the first offending line.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, TraceError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = Event::parse(line).map_err(|e| TraceError {
            line: i + 1,
            message: e.to_string(),
        })?;
        if events.is_empty() {
            match &event.kind {
                EventKind::Meta { version, .. } if *version == crate::event::SCHEMA_VERSION => {}
                EventKind::Meta { version, .. } => {
                    return Err(TraceError {
                        line: i + 1,
                        message: format!("unsupported schema version {version}"),
                    })
                }
                _ => {
                    return Err(TraceError {
                        line: i + 1,
                        message: "first event is not a `meta` header".into(),
                    })
                }
            }
        }
        events.push(event);
    }
    if events.is_empty() {
        return Err(TraceError {
            line: 1,
            message: "empty trace".into(),
        });
    }
    Ok(events)
}

/// One engine traversal reconstructed from the stream.
#[derive(Clone, Debug, Default)]
struct EngineRun {
    engine: String,
    lane: Option<u64>,
    outcome: Option<String>,
    iterations: u64,
    states: Option<f64>,
    peak_nodes: u64,
    dur_us: u64,
    winner: bool,
    cancelled: bool,
    limit: Option<String>,
    /// Dynamic reorder (sift) passes, with summed before/after live nodes.
    reorders: u64,
    reorder_before: u64,
    reorder_after: u64,
    /// `(cache_lookups, cache_hits)` movement across the engine span.
    cache: Option<(f64, f64)>,
    iters: Vec<IterRecord>,
}

impl EngineRun {
    fn hit_rate(&self) -> Option<f64> {
        let (lookups, hits) = self.cache.or_else(|| {
            // Fall back to the last iteration's cumulative snapshot when
            // no engine span closed (e.g. a truncated trace).
            let last = self.iters.last()?;
            Some((
                last.snapshot.get("cache_lookups")?,
                last.snapshot.get("cache_hits")?,
            ))
        })?;
        (lookups > 0.0).then(|| hits / lookups * 100.0)
    }
}

/// One `run`-span group (a CLI invocation or one benchmark cell).
#[derive(Clone, Debug, Default)]
struct RunGroup {
    name: String,
    engines: Vec<EngineRun>,
}

#[derive(Default)]
struct Model {
    label: String,
    sample_every: u64,
    groups: Vec<RunGroup>,
}

/// Key for "the engine run currently being filled" — racing lanes get
/// distinct keys even when they run the same engine.
type StreamKey = (Option<u64>, String);

fn build(events: &[Event]) -> Model {
    let mut model = Model::default();
    // Index into `model.groups` of the innermost open run span (main
    // stream only; lanes never open run spans).
    let mut open_run: Option<usize> = None;
    // (group, index) of the engine run currently accepting events.
    let mut current: HashMap<StreamKey, (usize, usize)> = HashMap::new();
    // Map engine span id -> stream key, to attribute span_close deltas.
    let mut engine_spans: HashMap<(Option<u64>, u64), StreamKey> = HashMap::new();

    let group_of = |model: &mut Model, open_run: Option<usize>| -> usize {
        if let Some(g) = open_run {
            return g;
        }
        if model.groups.is_empty() {
            model.groups.push(RunGroup {
                name: "(untitled run)".into(),
                engines: Vec::new(),
            });
        }
        model.groups.len() - 1
    };

    for event in events {
        let lane = event.lane;
        match &event.kind {
            EventKind::Meta {
                label,
                sample_every,
                ..
            } => {
                if model.label.is_empty() {
                    model.label = label.clone();
                    model.sample_every = *sample_every;
                }
            }
            EventKind::SpanOpen {
                id,
                kind: SpanKind::Run,
                name,
                ..
            } if lane.is_none() => {
                model.groups.push(RunGroup {
                    name: name.clone(),
                    engines: Vec::new(),
                });
                open_run = Some(model.groups.len() - 1);
                let _ = id;
            }
            EventKind::SpanClose {
                kind: SpanKind::Run,
                ..
            } if lane.is_none() => {
                open_run = None;
            }
            EventKind::SpanOpen {
                id,
                kind: SpanKind::Engine,
                name,
                ..
            } => {
                let g = group_of(&mut model, open_run);
                model.groups[g].engines.push(EngineRun {
                    engine: name.clone(),
                    lane,
                    ..EngineRun::default()
                });
                let key: StreamKey = (lane, name.clone());
                current.insert(key.clone(), (g, model.groups[g].engines.len() - 1));
                engine_spans.insert((lane, *id), key);
            }
            EventKind::SpanClose {
                id,
                kind: SpanKind::Engine,
                delta,
                ..
            } => {
                if let Some(key) = engine_spans.remove(&(lane, *id)) {
                    if let Some(&(g, i)) = current.get(&key) {
                        if let (Some(lookups), Some(hits)) =
                            (delta.get("cache_lookups"), delta.get("cache_hits"))
                        {
                            model.groups[g].engines[i].cache = Some((lookups, hits));
                        }
                    }
                }
            }
            EventKind::Iter(record) => {
                let run = run_for(&mut model, &mut current, open_run, lane, &record.engine);
                run.iterations = run.iterations.max(record.iteration);
                run.iters.push(record.clone());
            }
            EventKind::EngineEnd {
                engine,
                outcome,
                iterations,
                states,
                peak_nodes,
                dur_us,
            } => {
                let run = run_for(&mut model, &mut current, open_run, lane, engine);
                run.outcome = Some(outcome.to_string());
                run.iterations = *iterations;
                run.states = *states;
                run.peak_nodes = *peak_nodes;
                run.dur_us = *dur_us;
            }
            EventKind::Limit {
                engine,
                kind,
                iterations,
            } => {
                let run = run_for(&mut model, &mut current, open_run, lane, engine);
                run.limit = Some(kind.label().to_string());
                run.iterations = run.iterations.max(*iterations);
            }
            EventKind::Cancel { engine } => {
                let run = run_for_note(&mut model, &mut current, open_run, lane, engine);
                run.cancelled = true;
            }
            EventKind::Winner { engine } => {
                let run = run_for_note(&mut model, &mut current, open_run, lane, engine);
                run.winner = true;
            }
            EventKind::Reorder {
                engine,
                before,
                after,
                ..
            } => {
                let run = run_for(&mut model, &mut current, open_run, lane, engine);
                run.reorders += 1;
                run.reorder_before += before;
                run.reorder_after += after;
            }
            EventKind::SpanOpen { .. } | EventKind::SpanClose { .. } => {}
        }
    }
    model
}

/// The engine run events for `(lane, engine)` currently accumulate into,
/// creating one (inside the open run group) if none exists — traces that
/// lost their engine span_open (ring eviction) still report.
fn run_for<'m>(
    model: &'m mut Model,
    current: &mut HashMap<StreamKey, (usize, usize)>,
    open_run: Option<usize>,
    lane: Option<u64>,
    engine: &str,
) -> &'m mut EngineRun {
    let key: StreamKey = (lane, engine.to_string());
    if let Some(&(g, i)) = current.get(&key) {
        return &mut model.groups[g].engines[i];
    }
    let g = match open_run {
        Some(g) => g,
        None => {
            if model.groups.is_empty() {
                model.groups.push(RunGroup {
                    name: "(untitled run)".into(),
                    engines: Vec::new(),
                });
            }
            model.groups.len() - 1
        }
    };
    model.groups[g].engines.push(EngineRun {
        engine: engine.to_string(),
        lane,
        ..EngineRun::default()
    });
    let i = model.groups[g].engines.len() - 1;
    current.insert(key, (g, i));
    &mut model.groups[g].engines[i]
}

/// The run a race-driver annotation (`cancel`/`winner`) refers to: the
/// driver emits these on the main stream (no lane tag) naming the
/// engine, while the lane's own events carry the lane tag — so match by
/// engine name within the group, taking the most recent run. Lanes that
/// never produced events (cancelled before starting) get a fresh row via
/// [`run_for`].
fn run_for_note<'m>(
    model: &'m mut Model,
    current: &mut HashMap<StreamKey, (usize, usize)>,
    open_run: Option<usize>,
    lane: Option<u64>,
    engine: &str,
) -> &'m mut EngineRun {
    let g_opt = match open_run {
        Some(g) => Some(g),
        None => model.groups.len().checked_sub(1),
    };
    let found = g_opt.and_then(|g| {
        model.groups[g]
            .engines
            .iter()
            .rposition(|r| r.engine == engine)
            .map(|i| (g, i))
    });
    match found {
        Some((g, i)) => &mut model.groups[g].engines[i],
        None => run_for(model, current, open_run, lane, engine),
    }
}

fn fmt_states(states: Option<f64>) -> String {
    states.map_or_else(|| "-".into(), |s| format!("{s}"))
}

fn fmt_ms(us: u64) -> String {
    format!("{:.1}", us as f64 / 1e3)
}

fn fmt_hit(rate: Option<f64>) -> String {
    rate.map_or_else(|| "-".into(), |r| format!("{r:.1}%"))
}

fn notes(run: &EngineRun) -> String {
    let mut notes = Vec::new();
    if run.winner {
        notes.push("winner".to_string());
    }
    if run.cancelled {
        notes.push("cancelled".to_string());
    }
    if let Some(limit) = &run.limit {
        notes.push(limit.clone());
    }
    if run.reorders > 0 {
        notes.push(format!(
            "{} reorder{} ({}→{} live)",
            run.reorders,
            if run.reorders == 1 { "" } else { "s" },
            run.reorder_before,
            run.reorder_after,
        ));
    }
    notes.join(", ")
}

/// Renders a parsed trace as per-engine timelines: one summary row per
/// engine traversal (iterations, wall clock, peak nodes, cache hit rate,
/// race/limit annotations) and one iteration table per traversal that
/// recorded iteration events.
#[must_use]
pub fn render(events: &[Event], format: Format) -> String {
    let model = build(events);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} (schema v{}, iteration sampling 1/{})",
        if model.label.is_empty() {
            "(unlabeled)"
        } else {
            &model.label
        },
        crate::event::SCHEMA_VERSION,
        model.sample_every.max(1),
    );
    for group in &model.groups {
        if group.engines.is_empty() {
            continue;
        }
        let _ = writeln!(out);
        match format {
            Format::Text => {
                let _ = writeln!(out, "== {} ==", group.name);
            }
            Format::Markdown => {
                let _ = writeln!(out, "### {}\n", group.name);
            }
        }
        summary_table(&mut out, group, format);
        for run in &group.engines {
            if run.iters.is_empty() {
                continue;
            }
            let _ = writeln!(out);
            let lane = run.lane.map_or(String::new(), |l| format!(" (lane {l})"));
            match format {
                Format::Text => {
                    let _ = writeln!(out, "-- {}{} timeline --", run.engine, lane);
                }
                Format::Markdown => {
                    let _ = writeln!(out, "#### {}{} timeline\n", run.engine, lane);
                }
            }
            iter_table(&mut out, run, format);
        }
    }
    out
}

const SUMMARY_COLS: [&str; 8] = [
    "engine",
    "lane",
    "outcome",
    "iters",
    "states",
    "time(ms)",
    "peak-nodes",
    "cache-hit",
];

fn summary_table(out: &mut String, group: &RunGroup, format: Format) {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for run in &group.engines {
        rows.push(vec![
            run.engine.clone(),
            run.lane.map_or_else(|| "-".into(), |l| l.to_string()),
            run.outcome.clone().unwrap_or_else(|| "?".into()),
            run.iterations.to_string(),
            fmt_states(run.states),
            fmt_ms(run.dur_us),
            run.peak_nodes.to_string(),
            fmt_hit(run.hit_rate()),
        ]);
    }
    let mut notes_col: Vec<String> = group.engines.iter().map(notes).collect();
    let has_notes = notes_col.iter().any(|n| !n.is_empty());
    let mut cols: Vec<&str> = SUMMARY_COLS.to_vec();
    if has_notes {
        cols.push("notes");
        for (row, note) in rows.iter_mut().zip(notes_col.drain(..)) {
            row.push(note);
        }
    }
    table(out, &cols, &rows, format);
}

const ITER_COLS: [&str; 9] = [
    "iter", "dur(ms)", "frontier", "reached", "live", "alloc", "gc", "hit%", "states",
];

/// Preferred ordering for the per-iteration op-phase columns; keys the
/// trace emits that are not listed here follow in first-seen order.
const OP_ORDER: [&str; 3] = ["image", "convert", "union"];

/// The union of op-phase keys across a run's iterations, in [`OP_ORDER`]
/// then first-seen order, so a run's table shows exactly the phases its
/// engine recorded — including keys this build no longer emits, such as
/// the `freeze`/`compose`/`intern` phases of traces from older binaries.
fn op_keys(run: &EngineRun) -> Vec<String> {
    let mut seen: Vec<String> = Vec::new();
    for r in &run.iters {
        for (name, _) in r.ops.iter() {
            if !seen.iter().any(|s| s == name) {
                seen.push(name.to_string());
            }
        }
    }
    seen.sort_by_key(|name| {
        OP_ORDER
            .iter()
            .position(|o| o == name)
            .unwrap_or(OP_ORDER.len())
    });
    seen
}

fn iter_table(out: &mut String, run: &EngineRun, format: Format) {
    let ops = op_keys(run);
    let op_headers: Vec<String> = ops.iter().map(|k| format!("{k}(ms)")).collect();
    let mut cols: Vec<&str> = ITER_COLS.to_vec();
    cols.extend(op_headers.iter().map(String::as_str));
    let rows: Vec<Vec<String>> = run
        .iters
        .iter()
        .map(|r| {
            let hit = match (
                r.snapshot.get("cache_lookups"),
                r.snapshot.get("cache_hits"),
            ) {
                (Some(l), Some(h)) if l > 0.0 => format!("{:.1}", h / l * 100.0),
                _ => "-".into(),
            };
            let mut row = vec![
                r.iteration.to_string(),
                fmt_ms(r.dur_us),
                r.frontier_nodes.to_string(),
                r.reached_nodes.to_string(),
                r.live_nodes.to_string(),
                r.allocated_nodes.to_string(),
                r.gc_collected.to_string(),
                hit,
                fmt_states(r.states),
            ];
            for key in &ops {
                row.push(
                    r.ops
                        .get(key)
                        .map_or_else(|| "-".into(), |us| format!("{:.1}", us / 1e3)),
                );
            }
            row
        })
        .collect();
    table(out, &cols, &rows, format);
}

/// Writes a table in either format, sizing text columns to content.
fn table(out: &mut String, cols: &[&str], rows: &[Vec<String>], format: Format) {
    match format {
        Format::Markdown => {
            let _ = writeln!(out, "| {} |", cols.join(" | "));
            let _ = writeln!(
                out,
                "|{}|",
                cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
            );
            for row in rows {
                let _ = writeln!(out, "| {} |", row.join(" | "));
            }
        }
        Format::Text => {
            let mut widths: Vec<usize> = cols.iter().map(|c| c.len()).collect();
            for row in rows {
                for (w, cell) in widths.iter_mut().zip(row) {
                    *w = (*w).max(cell.len());
                }
            }
            let mut line = String::new();
            for (w, c) in widths.iter().zip(cols) {
                let _ = write!(line, "{c:>w$}  ");
            }
            let _ = writeln!(out, "{}", line.trim_end());
            for row in rows {
                let mut line = String::new();
                for (w, cell) in widths.iter().zip(row) {
                    let _ = write!(line, "{cell:>w$}  ");
                }
                let _ = writeln!(out, "{}", line.trim_end());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Counters;
    use crate::tracer::Tracer;
    use crate::SpanKind;

    fn sample_trace() -> Vec<Event> {
        let mut t = Tracer::collector(1);
        t.meta("unit test");
        let run = t.open_span(SpanKind::Run, "counter4/S1", Counters::new());
        let e = t.open_span(
            SpanKind::Engine,
            "BFV",
            Counters::new()
                .with("cache_lookups", 0.0)
                .with("cache_hits", 0.0),
        );
        t.iteration(IterRecord {
            engine: "BFV".into(),
            iteration: 1,
            dur_us: 1500,
            frontier_nodes: 4,
            reached_nodes: 4,
            live_nodes: 30,
            allocated_nodes: 40,
            peak_nodes: 40,
            gc_collected: 0,
            states: Some(2.0),
            snapshot: Counters::new()
                .with("cache_lookups", 10.0)
                .with("cache_hits", 5.0),
            ops: Counters::new().with("image", 900.0),
        });
        t.close_span(
            e,
            &Counters::new()
                .with("cache_lookups", 100.0)
                .with("cache_hits", 80.0),
        );
        t.engine_end("BFV", "ok", 5, Some(16.0), 40, 2500);
        t.close_span(run, &Counters::new());
        t.drain()
    }

    #[test]
    fn round_trips_through_jsonl() {
        let events = sample_trace();
        let text: String = events.iter().map(|e| e.encode() + "\n").collect();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn renders_summary_and_timeline() {
        let events = sample_trace();
        let text = render(&events, Format::Text);
        assert!(text.contains("counter4/S1"), "{text}");
        assert!(text.contains("BFV"), "{text}");
        assert!(text.contains("80.0%"), "cache hit from span delta: {text}");
        assert!(text.contains("16"), "states: {text}");
        let md = render(&events, Format::Markdown);
        assert!(md.contains("| BFV |") || md.contains("| BFV "), "{md}");
        assert!(md.contains("### counter4/S1"), "{md}");
    }

    /// One iteration record carrying just these op-phase timings (µs).
    fn ops_record(engine: &'static str, iteration: u64, ops: Counters) -> IterRecord {
        IterRecord {
            engine: engine.into(),
            iteration,
            dur_us: 2000,
            frontier_nodes: 1,
            reached_nodes: 1,
            live_nodes: 1,
            allocated_nodes: 1,
            peak_nodes: 1,
            gc_collected: 0,
            states: None,
            snapshot: Counters::new(),
            ops,
        }
    }

    /// Byte offsets of `cols` in `text`, panicking on a missing column.
    fn column_offsets(text: &str, cols: &[&str]) -> Vec<usize> {
        cols.iter()
            .map(|c| {
                text.find(c)
                    .unwrap_or_else(|| panic!("{c} missing: {text}"))
            })
            .collect()
    }

    #[test]
    fn renders_op_phase_columns() {
        let mut t = Tracer::collector(1);
        t.meta("phases");
        t.iteration(ops_record(
            "CBM",
            1,
            Counters::new()
                .with("union", 100.0)
                .with("image", 1500.0)
                .with("convert", 900.0),
        ));
        let text = render(&t.drain(), Format::Text);
        // Canonical order, not the Counters' sorted-key order.
        let cols = column_offsets(&text, &["image(ms)", "convert(ms)", "union(ms)"]);
        assert!(cols.windows(2).all(|w| w[0] < w[1]), "order: {text}");
        assert!(text.contains("0.9"), "convert ms: {text}");
    }

    #[test]
    fn renders_legacy_op_keys_in_first_seen_order() {
        // Older binaries split the image into `freeze`/`compose`/`intern`
        // phases; their traces must still render, the unknown keys after
        // the canonical ones in the order the trace first mentions them.
        let mut t = Tracer::collector(1);
        t.meta("legacy phases");
        t.iteration(ops_record(
            "BFV*F",
            1,
            Counters::new()
                .with("image", 1500.0)
                .with("intern", 150.0)
                .with("union", 100.0),
        ));
        t.iteration(ops_record(
            "BFV*F",
            2,
            Counters::new()
                .with("image", 1400.0)
                .with("freeze", 200.0)
                .with("compose", 700.0)
                .with("union", 90.0),
        ));
        let text = render(&t.drain(), Format::Text);
        let cols = column_offsets(
            &text,
            &[
                "image(ms)",
                "union(ms)",
                "intern(ms)",
                "compose(ms)",
                "freeze(ms)",
            ],
        );
        assert!(cols.windows(2).all(|w| w[0] < w[1]), "order: {text}");
        assert!(text.contains("0.7"), "compose ms: {text}");
    }

    #[test]
    fn rejects_headerless_trace() {
        let line = Event {
            seq: 0,
            t_us: 0,
            lane: None,
            kind: EventKind::Cancel {
                engine: "BFV".into(),
            },
        }
        .encode();
        let err = parse_jsonl(&line).unwrap_err();
        assert!(err.message.contains("meta"), "{err}");
        assert!(parse_jsonl("").is_err());
    }

    #[test]
    fn rejects_malformed_line_with_location() {
        let mut t = Tracer::collector(1);
        t.meta("x");
        let good: String = t.drain().iter().map(|e| e.encode() + "\n").collect();
        let text = format!("{good}{{not json\n");
        let err = parse_jsonl(&text).unwrap_err();
        assert_eq!(err.line, 2);
    }
}
