//! Spans recorded around the benchmark's calls into each layer.
//!
//! A [`Tracer`] keeps its spans in a buffer allocated once, up front, so
//! recording allocates nothing while the program runs; spans past the
//! buffer's capacity are counted and dropped. Each span has a name, a
//! start and end (nanoseconds since the tracer was made), the span open
//! around it when it began, and the frame or round id shared by all
//! spans of that frame or round. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of the parent span for spans opened at top level.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called, as `layer.call` (e.g. `pipeline.submit`).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The frame or round this span belongs to.
    pub frame: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A fixed-capacity span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    frame: u64,
    dropped: u64,
}

/// Handle for a span opened by [`Tracer::begin`].
#[must_use = "close the span with Tracer::end"]
pub struct SpanGuard(u32);

impl Tracer {
    /// A tracer holding up to `capacity` spans; `enabled == false`
    /// makes every call a no-op.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        let capacity = if enabled { capacity } else { 0 };
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(if enabled { 64 } else { 0 }),
            frame: 0,
            dropped: 0,
        }
    }

    /// Turns recording on or off. A tracer made disabled has no buffer
    /// and stays off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled && self.spans.capacity() > 0;
    }

    /// Sets the frame or round id stamped on spans opened from now on.
    pub fn set_frame(&mut self, frame: u64) {
        self.frame = frame;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanGuard {
        if !self.enabled {
            return SpanGuard(NO_PARENT);
        }
        if self.spans.len() == self.spans.capacity() || self.open.len() == self.open.capacity() {
            self.dropped += 1;
            return SpanGuard(NO_PARENT);
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            frame: self.frame,
        });
        self.open.push(id);
        SpanGuard(id)
    }

    /// Closes a span opened by [`Tracer::begin`]. Spans close in the
    /// reverse order they were opened.
    pub fn end(&mut self, guard: SpanGuard) {
        if guard.0 == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(guard.0), "spans close innermost first");
        self.spans[guard.0 as usize].end_ns = end_ns;
    }

    /// The recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans lost because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Index of the next span to be recorded: spans from here on can be
    /// selected with `&spans()[mark..]`.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Durations in milliseconds of the spans named `name` recorded
    /// since `mark`.
    pub fn durations_ms(&self, mark: usize, name: &str) -> Vec<f64> {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// The spans as CSV: `id,name,start_ns,end_ns,parent,frame`, with
    /// an empty parent for top-level spans.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,name,start_ns,end_ns,parent,frame\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.frame
            );
        }
        out
    }
}

/// Total and self time of every span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus the time the spans' children cover.
    pub self_ns: u64,
}

/// Per-name total and self time: a span's self time is its duration
/// minus the part of it its child spans cover. Children of one span are
/// sequential (one calling thread), so their durations add up.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.dur_ns();
            }
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(children);
    }
    out
}

/// The layer a span belongs to: the part of its name before the first
/// `.` (`pipeline.submit` → `pipeline`).
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "frame",
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
                frame: 0,
            },
            Span {
                name: "pipeline.submit",
                start_ns: 10,
                end_ns: 30,
                parent: 0,
                frame: 0,
            },
            Span {
                name: "pipeline.wait",
                start_ns: 30,
                end_ns: 90,
                parent: 0,
                frame: 0,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["frame"].total_ns, 100);
        assert_eq!(t["frame"].self_ns, 20);
        assert_eq!(t["pipeline.wait"].self_ns, 60);
        assert_eq!(layer_of("pipeline.wait"), "pipeline");
    }

    #[test]
    fn recording_is_bounded_and_nested() {
        let mut t = Tracer::new(true, 3);
        t.set_frame(7);
        let a = t.begin("frame");
        let b = t.begin("pipeline.submit");
        t.end(b);
        let c = t.begin("pipeline.wait");
        let d = t.begin("view.mip"); // over capacity: dropped
        t.end(d);
        t.end(c);
        t.end(a);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.spans()[2].parent, 0);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.frame == 7 && s.end_ns >= s.start_ns));
        let off = Tracer::new(false, 100);
        assert!(off.spans().is_empty());
    }
}
