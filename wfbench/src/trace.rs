//! In-memory spans for the traced replay.
//!
//! A span records a request id, its parent, a layer name and its start and
//! end.  Spans stay in a `Vec` while the replay runs and are summarised
//! (self times, counts) only after it ends, so recording costs one clock
//! read and one push.  The replay is single-threaded, so the recorder needs
//! no lock.

use std::collections::BTreeMap;
use std::time::Instant;

/// Sentinel parent of a request's root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The request (or set-up step) the span belongs to.
    pub request: u32,
    /// Index of this span in the recorder.
    pub id: u32,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Layer name, e.g. `"core.prepare"`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; when disabled every call is a no-op, so the
/// same replay code runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Starts attributing spans to request `id`.
    pub fn set_request(&mut self, id: u32) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request: self.request,
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id as usize].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The recorded spans, consuming the tracer.
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span was closed");
        self.spans
    }
}

/// Self time of every span: its duration minus the part its children cover.
/// Children of one parent are disjoint (checked by [`check_nesting`]), so the
/// covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            covered[s.parent as usize] += s.duration_ns();
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

/// Checks the span hierarchy: every child lies inside its parent and
/// belongs to the same request, siblings are disjoint, and children sum to
/// no more than their parent.  Returns the first violation.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        if s.parent == ROOT {
            continue;
        }
        let Some(p) = spans.get(s.parent as usize) else {
            return Err(format!("span {} has unknown parent {}", s.id, s.parent));
        };
        if p.request != s.request {
            return Err(format!("span {} ({}) crosses requests", s.id, s.name));
        }
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!("span {} ({}) escapes parent {} ({})", s.id, s.name, p.id, p.name));
        }
        children.entry(s.parent).or_default().push(s);
    }
    for (parent, mut kids) in children {
        kids.sort_by_key(|s| (s.start_ns, s.end_ns));
        for w in kids.windows(2) {
            if w[1].start_ns < w[0].end_ns {
                return Err(format!("siblings {} and {} overlap", w[0].id, w[1].id));
            }
        }
        let sum: u64 = kids.iter().map(|s| s.duration_ns()).sum();
        if sum > spans[parent as usize].duration_ns() {
            return Err(format!("children of span {parent} sum past their parent"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { request: 0, id, parent, name: "x", start_ns, end_ns }
    }

    #[test]
    fn recorded_spans_nest_and_children_fit_their_parent() {
        let mut t = Tracer::new(true);
        for request in 0..3 {
            t.set_request(request);
            t.enter("request");
            t.span("parse", || std::hint::black_box((0..100).sum::<u64>()));
            t.enter("dispatch");
            t.span("lookup", || std::hint::black_box(1));
            t.span("dp", || std::hint::black_box(2));
            t.exit();
            t.exit();
        }
        let spans = t.finish();
        assert_eq!(spans.len(), 3 * 5);
        check_nesting(&spans).expect("recorder output is well nested");
        let selfs = self_times(&spans);
        for (s, own) in spans.iter().zip(&selfs) {
            assert!(*own <= s.duration_ns());
        }
        // A parent's self time plus its children's durations is its duration.
        let dispatch = spans.iter().find(|s| s.name == "dispatch").unwrap();
        let kids: u64 =
            spans.iter().filter(|s| s.parent == dispatch.id).map(Span::duration_ns).sum();
        assert_eq!(selfs[dispatch.id as usize] + kids, dispatch.duration_ns());
    }

    #[test]
    fn nesting_violations_are_reported() {
        // Child escaping its parent.
        assert!(check_nesting(&[span(0, ROOT, 10, 20), span(1, 0, 5, 15)]).is_err());
        // Overlapping siblings.
        let overlap = [span(0, ROOT, 0, 100), span(1, 0, 10, 50), span(2, 0, 40, 60)];
        assert!(check_nesting(&overlap).is_err());
        // Child from another request.
        let mut other = span(1, 0, 1, 2);
        other.request = 9;
        assert!(check_nesting(&[span(0, ROOT, 0, 10), other]).is_err());
        // Disjoint, properly nested siblings pass.
        let ok =
            [span(0, ROOT, 0, 100), span(1, 0, 10, 40), span(2, 0, 40, 60), span(3, 2, 41, 59)];
        assert!(check_nesting(&ok).is_ok());
        assert_eq!(self_times(&ok), vec![50, 30, 2, 18]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("a");
        t.span("b", || ());
        t.exit();
        assert!(t.finish().is_empty());
    }
}
