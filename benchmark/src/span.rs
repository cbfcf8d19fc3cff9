//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic over them.
//!
//! Nothing outside `benchmark/` is instrumented: a span is what the
//! benchmark's own clock read before and after a public call. Spans of
//! one script operation share an `op_id`; `parent` is the index of the
//! span that caused this one.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `server.wait`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// Index (in the same log) of the causing span; `None` for a root.
    pub parent: Option<u32>,
    /// The script operation this span belongs to.
    pub op_id: u32,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span recorder with its own epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose epoch is now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op_id: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the log.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans carrying the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus what their children cover.
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its direct children cover. Children are clipped to the
/// parent and overlapping or adjacent children are covered once, so the
/// self times of a tree sum exactly to the duration of its root.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(slot) = children.get_mut(p as usize) {
                slot.push((s.start_ns, s.end_ns));
            }
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for &(start, end) in kids.iter() {
            let start = start.max(cursor);
            let end = end.min(s.end_ns);
            if end > start {
                covered += end - start;
                cursor = end;
            }
        }
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += s.duration_ns();
        entry.self_ns += s.duration_ns() - covered.min(s.duration_ns());
    }
    out
}

/// Sum of the durations of the root spans (those without a parent).
pub fn root_total_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum()
}

/// Writes `spans` as a JSON array of
/// `{name, start_ns, end_ns, parent, op_id}` objects.
pub fn write_spans_json(w: &mut impl Write, spans: &[Span]) -> std::io::Result<()> {
    w.write_all(b"[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        write!(
            w,
            "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.op_id
        )?;
    }
    w.write_all(b"\n]")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // op [0,100] ⊃ wait [10,90] ⊃ exec [20,60] ⊃ parse [20,30]
        let spans = vec![
            span("op", 0, 100, None),
            span("wait", 10, 90, Some(0)),
            span("exec", 20, 60, Some(1)),
            span("parse", 20, 30, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"].self_ns, 20);
        assert_eq!(t["wait"].self_ns, 40);
        assert_eq!(t["exec"].self_ns, 30);
        assert_eq!(t["parse"].self_ns, 10);
        let sum: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, root_total_ns(&spans), "self times sum to the root");
    }

    #[test]
    fn adjacent_and_overlapping_children_cover_once() {
        // Adjacent: [0,40] and [40,70]; overlapping: [60,90]; one child
        // spills past the parent and is clipped at 100.
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 0, 40, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 60, 90, Some(0)),
            span("d", 95, 130, Some(0)),
        ];
        let t = self_times(&spans);
        // Covered: [0,90] and [95,100] = 95, so 5 ns are the parent's own.
        assert_eq!(t["op"].self_ns, 5);
        assert_eq!(t["op"].total_ns, 100);
        assert_eq!(t["d"].self_ns, 35);
    }

    #[test]
    fn same_name_spans_accumulate() {
        let spans = vec![
            span("op", 0, 10, None),
            span("op", 10, 30, None),
            span("x", 12, 20, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"].count, 2);
        assert_eq!(t["op"].total_ns, 30);
        assert_eq!(t["op"].self_ns, 22);
        assert_eq!(root_total_ns(&spans), 30);
    }

    #[test]
    fn json_has_one_object_per_span() {
        let spans = vec![span("op", 1, 2, None), span("x", 1, 2, Some(0))];
        let mut buf = Vec::new();
        write_spans_json(&mut buf, &spans).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with('[') && text.ends_with(']'));
        assert_eq!(text.matches("\"name\"").count(), 2);
        assert!(
            text.contains("{\"name\":\"x\",\"start_ns\":1,\"end_ns\":2,\"parent\":0,\"op_id\":0}")
        );
        assert!(text.contains("\"parent\":null"));
    }

    #[test]
    fn log_hands_out_indices_in_order() {
        let mut log = SpanLog::new();
        let a = log.now_ns();
        let root = log.push("op", a, a + 5, None, 7);
        let child = log.push("x", a + 1, a + 2, Some(root), 7);
        assert_eq!((root, child), (0, 1));
        assert_eq!(log.spans()[1].parent, Some(0));
        assert_eq!(log.into_spans().len(), 2);
    }
}
