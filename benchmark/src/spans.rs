//! The in-memory span recorder of the traced ladder.
//!
//! One span per call into a layer's public entry point: name, start,
//! end, the span that caused it, and the request it belongs to. Spans
//! are recorded from the benchmark's side of the call (spans inside
//! the crates are a later change), kept in a pre-sized vector so that
//! recording never allocates inside a counted rung, and written out
//! once when the run ends.

use crate::json::Json;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: Option<u64>,
}

/// Records spans against one clock origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses others (a phase or a rung); close it
    /// with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: None,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Ends a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records one call as a span and returns its result and duration
    /// in nanoseconds.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            request: Some(request),
        });
        (out, end_ns - start_ns)
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a JSON array, in recording order (a span's id is
    /// its index).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                        (
                            "request",
                            s.request.map_or(Json::Null, |r| Json::Num(r as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}
