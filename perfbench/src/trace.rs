//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. Spans live in memory while the run measures and
//! are written out when it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function, e.g. `vm.run`.
    pub name: &'static str,
    /// Identifier shared by every span of one op (set-up spans use the
    /// set-up repetition).
    pub op: u64,
    /// Index of this span within its op's span list.
    pub id: u32,
    /// Index of the enclosing span within the same op, if any.
    pub parent: Option<u32>,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

impl Span {
    /// The span's interval.
    pub fn interval(&self) -> (u64, u64) {
        (self.start, self.end)
    }

    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Nanoseconds from `epoch` to now.
pub fn now_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
}

/// The span recorder of one op. When off, [`OpTrace::span`] only calls
/// its closure.
pub struct OpTrace {
    on: bool,
    op: u64,
    epoch: Instant,
    stack: Vec<u32>,
    /// Spans recorded so far, in start order.
    pub spans: Vec<Span>,
}

impl OpTrace {
    /// A recorder for op `op`, recording only when `on`.
    pub fn new(on: bool, op: u64, epoch: Instant) -> OpTrace {
        OpTrace {
            on,
            op,
            epoch,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; nested calls through the
    /// recorder `f` receives become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut OpTrace) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per op");
        self.spans.push(Span {
            name,
            op: self.op,
            id,
            parent: self.stack.last().copied(),
            start: now_ns(self.epoch),
            end: 0,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id as usize].end = now_ns(self.epoch);
        r
    }
}

/// Total duration of the spans named `name`, and how many there are.
pub fn total(spans: &[Span], name: &str) -> (u64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(t, n), s| (t + s.dur(), n + 1))
}

/// Total self time of the spans named `name` within one op's span list
/// (each span's duration minus the union of its direct children).
pub fn self_total(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.op == s.op && c.parent == Some(s.id))
                .map(Span::interval)
                .collect();
            crate::stats::self_time(s.interval(), &kids)
        })
        .sum()
}

/// Renders spans as JSON lines (`round` tags the measuring round).
pub fn jsonl(out: &mut String, round: usize, spans: &[Span]) {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"round\":{round},\"op\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.id, s.name, s.start, s.end
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = OpTrace::new(true, 7, Instant::now());
        t.span("op", |t| {
            t.span("vm.new", |_| ());
            t.span("vm.run", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [("op", None), ("vm.new", Some(0)), ("vm.run", Some(0))]
        );
        assert!(t.spans.iter().all(|s| s.op == 7 && s.end >= s.start));
        let op = &t.spans[0];
        let kids = t.spans[1].dur() + t.spans[2].dur();
        assert_eq!(self_total(&t.spans, "op"), op.dur() - kids);
        assert_eq!(self_total(&t.spans, "vm.run"), t.spans[2].dur());
        assert_eq!(total(&t.spans, "vm.run").1, 1);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = OpTrace::new(false, 0, Instant::now());
        assert_eq!(t.span("op", |t| t.span("vm.run", |_| 3)), 3);
        assert!(t.spans.is_empty());
    }
}
