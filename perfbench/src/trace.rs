//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span holds a name, start, end, parent and op id.  Spans nest
//! strictly (the benchmark is single-threaded), so a span's self time is
//! its duration minus the durations of its direct children.  A disabled
//! tracer records nothing and reads no clock.

use crate::clock::CpuInstant;
use std::collections::BTreeMap;
use std::io::Write;

/// One recorded span; times are nanoseconds of the thread's CPU time
/// since the tracer started (see [`crate::clock`]).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: CpuInstant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: CpuInstant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` for op `op`, as a child of the innermost
    /// open span.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: Open) {
        if let Some(id) = span.0 {
            let top = self.open.pop();
            assert_eq!(top, Some(id), "spans must close innermost first");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn timed<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, op);
        let out = f();
        self.exit(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *totals.entry(span.name).or_insert(0) += (span.end_ns - span.start_ns) - children;
        }
        totals
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","op":{},"parent":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.op, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        let op = t.enter("op", 0);
        let a = t.enter("a", 0);
        t.timed("b", 0, || {
            (0..200_000u64).fold(0u64, |acc, i| {
                std::hint::black_box(acc ^ i.wrapping_mul(31))
            })
        });
        t.exit(a);
        t.exit(op);
        let spans = t.spans().to_vec();
        let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
        let own = t.self_ns();
        assert_eq!(own["op"], dur(0) - dur(1));
        assert_eq!(own["a"], dur(1) - dur(2));
        assert_eq!(own["b"], dur(2));
        assert_eq!(spans[2].parent, Some(1));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.timed("a", 0, || 7);
        assert_eq!(x, 7);
        assert!(t.spans().is_empty());
    }
}
