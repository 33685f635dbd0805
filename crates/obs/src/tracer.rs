//! The [`Tracer`]: span stack, sampling, sequence/time stamping, and
//! lane-stream merging.

use std::time::Instant;

use crate::event::{Counters, Event, EventKind, IterRecord, LimitKind, SpanKind, SCHEMA_VERSION};
use crate::sink::{Sink, VecSink};

/// Opaque handle to an open span (returned by [`Tracer::open_span`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u64);

struct OpenSpan {
    id: u64,
    kind: SpanKind,
    name: String,
    start_us: u64,
    at_open: Counters,
}

/// Emits a single telemetry stream: monotonically timestamped events,
/// nested spans with per-span counter deltas, and an iteration sampling
/// stride.
///
/// A tracer owns its [`Sink`] and its monotonic epoch ([`Instant`] taken
/// at construction); every event is stamped with a dense sequence number
/// and microseconds since that epoch. Tracers are deliberately not
/// thread-safe — each racing lane builds its own collector tracer
/// ([`Tracer::collector`]) and the driver merges the lane streams with
/// [`Tracer::ingest`].
pub struct Tracer {
    sink: Box<dyn Sink>,
    epoch: Instant,
    seq: u64,
    next_span: u64,
    stack: Vec<OpenSpan>,
    sample_every: u64,
}

impl Tracer {
    /// A tracer recording every iteration into `sink`.
    #[must_use]
    pub fn new(sink: Box<dyn Sink>) -> Self {
        Tracer::with_sampling(sink, 1)
    }

    /// A tracer recording every `sample_every`-th iteration (plus the
    /// first); `0` is treated as `1`.
    #[must_use]
    pub fn with_sampling(sink: Box<dyn Sink>, sample_every: u64) -> Self {
        Tracer {
            sink,
            epoch: Instant::now(),
            seq: 0,
            next_span: 0,
            stack: Vec::new(),
            sample_every: sample_every.max(1),
        }
    }

    /// An in-memory collector tracer (unbounded [`VecSink`]) — the
    /// racing-lane configuration; retrieve the stream with
    /// [`Tracer::drain`].
    #[must_use]
    pub fn collector(sample_every: u64) -> Self {
        Tracer::with_sampling(Box::new(VecSink::new()), sample_every)
    }

    /// The iteration sampling stride.
    #[must_use]
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Whether iteration `iteration` (1-based) should be recorded under
    /// the sampling stride. The first iteration is always recorded so a
    /// trace is never empty of iteration data.
    #[must_use]
    pub fn should_record(&self, iteration: u64) -> bool {
        iteration == 1 || iteration.is_multiple_of(self.sample_every)
    }

    fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn emit(&mut self, kind: EventKind) {
        let event = Event {
            seq: self.seq,
            t_us: self.now_us(),
            lane: None,
            kind,
        };
        self.seq += 1;
        self.sink.emit(&event);
    }

    /// Writes the stream header (call once, first).
    pub fn meta(&mut self, label: &str) {
        let sample_every = self.sample_every;
        self.emit(EventKind::Meta {
            version: SCHEMA_VERSION,
            sample_every,
            label: label.to_string(),
        });
    }

    /// Opens a span nested under the innermost open span. `at_open` is
    /// the counter snapshot the eventual [`Tracer::close_span`] delta is
    /// computed against (pass [`Counters::new`] when no counters apply).
    pub fn open_span(&mut self, kind: SpanKind, name: &str, at_open: Counters) -> SpanId {
        let id = self.next_span;
        self.next_span += 1;
        let parent = self.stack.last().map(|s| s.id);
        let start_us = self.now_us();
        self.emit(EventKind::SpanOpen {
            id,
            parent,
            kind,
            name: name.to_string(),
        });
        self.stack.push(OpenSpan {
            id,
            kind,
            name: name.to_string(),
            start_us,
            at_open,
        });
        SpanId(id)
    }

    /// Closes a span, emitting its duration and the delta `now − open`.
    ///
    /// Spans close strictly LIFO; closing a span that is not the
    /// innermost one first closes every span nested inside it (with the
    /// same `now` snapshot), so the stream always nests properly even if
    /// a caller unwinds past intermediate spans. Closing an id that is
    /// not on the stack (already closed) is a no-op.
    pub fn close_span(&mut self, id: SpanId, now: &Counters) {
        if !self.stack.iter().any(|s| s.id == id.0) {
            return;
        }
        while let Some(span) = self.stack.pop() {
            let dur_us = self.now_us().saturating_sub(span.start_us);
            self.emit(EventKind::SpanClose {
                id: span.id,
                kind: span.kind,
                name: span.name.clone(),
                dur_us,
                delta: now.delta(&span.at_open),
            });
            if span.id == id.0 {
                break;
            }
        }
    }

    /// Depth of the open-span stack (diagnostics/tests).
    #[must_use]
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    /// Records one sampled iteration. Callers are expected to check
    /// [`Tracer::should_record`] *before* gathering the record's
    /// measurements, so skipped iterations cost nothing.
    pub fn iteration(&mut self, record: IterRecord) {
        self.emit(EventKind::Iter(record));
    }

    /// Records an engine's end-of-traversal summary.
    pub fn engine_end(
        &mut self,
        engine: &'static str,
        outcome: &'static str,
        iterations: u64,
        states: Option<f64>,
        peak_nodes: u64,
        dur_us: u64,
    ) {
        self.emit(EventKind::EngineEnd {
            engine: engine.into(),
            outcome: outcome.into(),
            iterations,
            states,
            peak_nodes,
            dur_us,
        });
    }

    /// Records a tripped resource ceiling (real or fault-injected).
    pub fn limit(&mut self, engine: &'static str, kind: LimitKind, iterations: u64) {
        self.emit(EventKind::Limit {
            engine: engine.into(),
            kind,
            iterations,
        });
    }

    /// Records a cancelled (or skipped) racing lane.
    pub fn cancel(&mut self, engine: &'static str) {
        self.emit(EventKind::Cancel {
            engine: engine.into(),
        });
    }

    /// Records the winning racing lane.
    pub fn winner(&mut self, engine: &'static str) {
        self.emit(EventKind::Winner {
            engine: engine.into(),
        });
    }

    /// Records a dynamic variable reorder (sift pass) with its
    /// before/after live-node counts.
    pub fn reorder(
        &mut self,
        engine: &'static str,
        iteration: u64,
        before: u64,
        after: u64,
        dur_us: u64,
    ) {
        self.emit(EventKind::Reorder {
            engine: engine.into(),
            iteration,
            before,
            after,
            dur_us,
        });
    }

    /// Merges a lane's collected stream into this tracer: every event is
    /// re-stamped with this stream's sequence numbers and tagged with
    /// `lane`; the lane-relative `t_us` values are preserved (each lane
    /// has its own epoch — document readers group by `lane` before
    /// comparing times).
    pub fn ingest(&mut self, lane: u64, events: Vec<Event>) {
        for mut event in events {
            event.seq = self.seq;
            event.lane = Some(lane);
            self.seq += 1;
            self.sink.emit(&event);
        }
    }

    /// Retrieves everything a retaining sink buffered (collector/ring).
    pub fn drain(&mut self) -> Vec<Event> {
        self.sink.drain()
    }

    /// Closes any stray spans and flushes the sink. Call when the traced
    /// activity ends; dropping without finishing loses buffered output
    /// for buffered sinks.
    pub fn finish(&mut self) {
        while let Some(span) = self.stack.pop() {
            let dur_us = self.now_us().saturating_sub(span.start_us);
            self.emit(EventKind::SpanClose {
                id: span.id,
                kind: span.kind,
                name: span.name.clone(),
                dur_us,
                delta: Counters::new(),
            });
        }
        self.sink.flush();
    }

    /// Returns (and clears) the sink's latched write error, if any —
    /// check after [`Tracer::finish`]. A trace that silently lost its
    /// tail (full disk mid-run) reports here so the CLI can exit
    /// nonzero instead of pretending the trace is complete.
    pub fn take_error(&mut self) -> Option<std::io::Error> {
        self.sink.take_error()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("seq", &self.seq)
            .field("open_spans", &self.stack.len())
            .field("sample_every", &self.sample_every)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(t: &mut Tracer) -> Vec<Event> {
        t.drain()
    }

    #[test]
    fn spans_nest_and_link_parents() {
        let mut t = Tracer::collector(1);
        t.meta("test");
        let run = t.open_span(SpanKind::Run, "cell", Counters::new());
        let engine = t.open_span(SpanKind::Engine, "BFV", Counters::new().with("mk", 5.0));
        assert_eq!(t.open_spans(), 2);
        t.close_span(engine, &Counters::new().with("mk", 9.0));
        t.close_span(run, &Counters::new());
        let events = collect(&mut t);
        // meta, open run, open engine, close engine, close run.
        assert_eq!(events.len(), 5);
        let (run_id, engine_id) = match (&events[1].kind, &events[2].kind) {
            (
                EventKind::SpanOpen {
                    id: r,
                    parent: None,
                    ..
                },
                EventKind::SpanOpen {
                    id: e,
                    parent: Some(p),
                    ..
                },
            ) => {
                assert_eq!(p, r, "engine span's parent is the run span");
                (*r, *e)
            }
            other => panic!("unexpected opens: {other:?}"),
        };
        match &events[3].kind {
            EventKind::SpanClose { id, delta, .. } => {
                assert_eq!(*id, engine_id);
                assert_eq!(delta.get("mk"), Some(4.0));
            }
            other => panic!("expected engine close, got {other:?}"),
        }
        match &events[4].kind {
            EventKind::SpanClose { id, .. } => assert_eq!(*id, run_id),
            other => panic!("expected run close, got {other:?}"),
        }
        // Sequence numbers are dense and ordered.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        // Timestamps are monotonic in sequence order (same epoch).
        assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    }

    #[test]
    fn closing_an_outer_span_closes_inner_spans_first() {
        let mut t = Tracer::collector(1);
        let run = t.open_span(SpanKind::Run, "r", Counters::new());
        let _engine = t.open_span(SpanKind::Engine, "e", Counters::new());
        let _iter = t.open_span(SpanKind::Iteration, "i", Counters::new());
        t.close_span(run, &Counters::new());
        assert_eq!(t.open_spans(), 0);
        let events = collect(&mut t);
        let closes: Vec<&str> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::SpanClose { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        // Inner spans close before outer ones: proper nesting preserved.
        assert_eq!(closes, vec!["i", "e", "r"]);
    }

    #[test]
    fn closing_twice_is_a_no_op() {
        let mut t = Tracer::collector(1);
        let s = t.open_span(SpanKind::Run, "r", Counters::new());
        t.close_span(s, &Counters::new());
        t.close_span(s, &Counters::new());
        assert_eq!(collect(&mut t).len(), 2); // one open + one close
    }

    #[test]
    fn sampling_keeps_first_and_every_nth() {
        let t = Tracer::collector(3);
        let recorded: Vec<u64> = (1..=10).filter(|&i| t.should_record(i)).collect();
        assert_eq!(recorded, vec![1, 3, 6, 9]);
        let every = Tracer::collector(1);
        assert!((1..=5).all(|i| every.should_record(i)));
        // Stride 0 degrades to 1 rather than dividing by zero.
        assert_eq!(Tracer::collector(0).sample_every(), 1);
    }

    #[test]
    fn ingest_restamps_seq_and_tags_lane() {
        let mut lane = Tracer::collector(1);
        lane.meta("lane");
        lane.cancel("CBM");
        let lane_events = lane.drain();
        let mut main = Tracer::collector(1);
        main.meta("main");
        main.ingest(3, lane_events);
        let events = main.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].lane, None);
        assert_eq!(events[1].lane, Some(3));
        assert_eq!(events[2].lane, Some(3));
        assert_eq!(events[2].seq, 2, "seq restamped into the main stream");
    }

    #[test]
    fn finish_closes_stray_spans() {
        let mut t = Tracer::collector(1);
        t.open_span(SpanKind::Run, "r", Counters::new());
        t.open_span(SpanKind::Engine, "e", Counters::new());
        t.finish();
        assert_eq!(t.open_spans(), 0);
        let closes = t
            .drain()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SpanClose { .. }))
            .count();
        assert_eq!(closes, 2);
    }
}
