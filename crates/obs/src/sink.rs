//! Event sinks: where a [`crate::Tracer`]'s stream goes.

use std::io::Write;

use crate::event::Event;

/// Consumes a tracer's event stream.
///
/// Implementations must be cheap per event — the tracer calls
/// [`Sink::emit`] from inside engine fixed-point loops.
pub trait Sink {
    /// Receives one event.
    fn emit(&mut self, event: &Event);

    /// Flushes any buffering (called by [`crate::Tracer::finish`]).
    fn flush(&mut self) {}

    /// Removes and returns all retained events. Write-through sinks
    /// retain nothing and return an empty vector.
    fn drain(&mut self) -> Vec<Event> {
        Vec::new()
    }

    /// Returns (and clears) the sink's latched write error, if any.
    /// Sinks that cannot fail return `None` (the default). Callers that
    /// must not lose telemetry silently — `reach --trace-out`, the job
    /// journal — check this after [`Sink::flush`] and turn `Some` into a
    /// nonzero exit.
    fn take_error(&mut self) -> Option<std::io::Error> {
        None
    }
}

/// Serializes each event as one JSON line into a [`Write`] target
/// (wrap files in a `BufWriter` — the tracer emits one small line per
/// sampled iteration).
pub struct JsonlSink<W: Write> {
    w: W,
    /// First write error, if any: subsequent emits become no-ops and the
    /// error is surfaced by [`JsonlSink::take_error`] / logged on flush.
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> Self {
        JsonlSink { w, error: None }
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn emit(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        let line = event.encode();
        if let Err(e) = self
            .w
            .write_all(line.as_bytes())
            .and_then(|()| self.w.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.w.flush() {
                self.error = Some(e);
            }
        }
        if let Some(e) = &self.error {
            // Telemetry is best-effort: a trace write failure must never
            // abort the traced run, but it must not be silent either.
            eprintln!("bfvr-obs: trace write failed: {e}");
        }
    }

    fn take_error(&mut self) -> Option<std::io::Error> {
        self.error.take()
    }
}

/// Unbounded collector — used by racing lanes, which buffer their whole
/// (short-lived) stream and ship it across the thread boundary for the
/// race driver to merge.
#[derive(Default)]
pub struct VecSink {
    buf: Vec<Event>,
}

impl VecSink {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        VecSink::default()
    }
}

impl Sink for VecSink {
    fn emit(&mut self, event: &Event) {
        self.buf.push(event.clone());
    }

    fn drain(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(seq: u64) -> Event {
        Event {
            seq,
            t_us: seq * 10,
            lane: None,
            kind: EventKind::Cancel {
                engine: "BFV".into(),
            },
        }
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&ev(0));
        sink.emit(&ev(1));
        sink.flush();
        assert!(sink.take_error().is_none());
        let text = String::from_utf8(sink.w).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(Event::parse(lines[0]).unwrap(), ev(0));
        assert_eq!(Event::parse(lines[1]).unwrap(), ev(1));
    }

    #[test]
    fn vec_sink_drains_in_order() {
        let mut sink = VecSink::new();
        sink.emit(&ev(7));
        sink.emit(&ev(8));
        let drained = sink.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].seq, 7);
        assert!(sink.drain().is_empty());
    }
}
