//! Spans recorded around calls into the program, and the self-time
//! arithmetic that turns them into a per-layer cycle budget.
//!
//! A span is a layer id, a parent span, and start/end TSC readings. The
//! recorder keeps spans in a buffer allocated before the run and hands
//! them out when the run ends; nothing is written while timing.

use retina_core::util::rdtsc;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer the call belongs to (an index into the caller's layer list).
    pub layer: u16,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// TSC at entry.
    pub start: u64,
    /// TSC at exit.
    pub end: u64,
}

/// Records spans into a preallocated buffer. A disabled recorder reads
/// no clock and stores nothing, so the same driver code gives the
/// untraced baseline for the tracing-overhead figure.
#[derive(Debug)]
pub struct Recorder {
    spans: Vec<Span>,
    capacity: usize,
    on: bool,
}

impl Recorder {
    /// A recorder with room for `capacity` spans; records only if `on`.
    pub fn new(capacity: usize, on: bool) -> Self {
        Recorder {
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            capacity,
            on,
        }
    }

    /// Opens a span of `layer` under `parent`; returns its id.
    #[inline]
    pub fn open(&mut self, layer: u16, parent: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let id = u32::try_from(self.spans.len()).expect("span ids fit in u32");
        self.spans.push(Span {
            layer,
            parent,
            start: rdtsc(),
            end: 0,
        });
        id
    }

    /// Closes span `id`.
    #[inline]
    pub fn close(&mut self, id: u32) {
        if self.on {
            self.spans[id as usize].end = rdtsc();
        }
    }

    /// The recorded spans, or an error if the run outgrew the buffer
    /// allocated for it (a reallocation would have been timed).
    pub fn finish(self) -> Result<Vec<Span>, String> {
        if self.spans.len() > self.capacity {
            return Err(format!(
                "span buffer overflowed: {} spans recorded, {} preallocated",
                self.spans.len(),
                self.capacity
            ));
        }
        Ok(self.spans)
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children are clipped to the parent and overlapping
/// children are counted once, so a badly nested trace shows up as a
/// budget that does not add up rather than as negative time.
///
/// # Panics
/// Panics if a span's parent index is out of range.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent != ROOT)
        .collect();
    order.sort_by_key(|&i| (spans[i].parent, spans[i].start));
    let mut covered = vec![0u64; spans.len()];
    let mut frontier = vec![0u64; spans.len()];
    for &c in &order {
        let p = spans[c].parent as usize;
        let lo = spans[c].start.max(spans[p].start).max(frontier[p]);
        let hi = spans[c].end.min(spans[p].end);
        if hi > lo {
            covered[p] += hi - lo;
            frontier[p] = hi;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.end.saturating_sub(s.start) - c)
        .collect()
}

/// Per-layer totals of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Budget {
    /// Summed self time per layer.
    pub self_cycles: Vec<u64>,
    /// Spans recorded per layer.
    pub calls: Vec<u64>,
    /// Summed duration of the root spans.
    pub total: u64,
}

impl Budget {
    /// Sums self time and call counts per layer (`layers` ids).
    pub fn of(spans: &[Span], layers: usize) -> Budget {
        let mut self_cycles = vec![0u64; layers];
        let mut calls = vec![0u64; layers];
        let mut total = 0u64;
        for (span, own) in spans.iter().zip(self_times(spans)) {
            self_cycles[span.layer as usize] += own;
            calls[span.layer as usize] += 1;
            if span.parent == ROOT {
                total += span.end.saturating_sub(span.start);
            }
        }
        Budget {
            self_cycles,
            calls,
            total,
        }
    }

    /// The budget identity: the layers' self times add up to the traced
    /// total exactly. Holds when every span lies inside its parent and
    /// siblings do not overlap.
    pub fn adds_up(&self) -> bool {
        self.self_cycles.iter().sum::<u64>() == self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: u16, parent: u32, start: u64, end: u64) -> Span {
        Span {
            layer,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span(0, ROOT, 10, 50)];
        assert_eq!(self_times(&spans), vec![40]);
        let b = Budget::of(&spans, 1);
        assert_eq!(b.total, 40);
        assert!(b.adds_up());
    }

    #[test]
    fn nested_spans_subtract_children_at_every_level() {
        // root [0,100) > burst [10,90) > {parse [20,30), filter [30,45)}
        //                              > process [50,80) > (none)
        let spans = [
            span(0, ROOT, 0, 100),
            span(1, 0, 10, 90),
            span(2, 1, 20, 30),
            span(3, 1, 30, 45),
            span(4, 1, 50, 80),
        ];
        assert_eq!(self_times(&spans), vec![20, 25, 10, 15, 30]);
        let b = Budget::of(&spans, 5);
        assert_eq!(b.self_cycles, vec![20, 25, 10, 15, 30]);
        assert_eq!(b.calls, vec![1, 1, 1, 1, 1]);
        assert!(b.adds_up());
    }

    #[test]
    fn zero_length_spans_cost_nothing_and_keep_the_identity() {
        let spans = [
            span(0, ROOT, 0, 10),
            span(1, 0, 5, 5),
            span(1, 0, 5, 5),
            span(2, 0, 6, 9),
            span(2, 3, 7, 7),
        ];
        assert_eq!(self_times(&spans), vec![7, 0, 0, 3, 0]);
        let b = Budget::of(&spans, 3);
        assert_eq!(b.calls, vec![1, 2, 2]);
        assert!(b.adds_up());
    }

    #[test]
    fn sibling_order_in_the_buffer_does_not_matter() {
        let spans = [
            span(0, ROOT, 0, 100),
            span(1, 0, 60, 70),
            span(1, 0, 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![80, 10, 10]);
    }

    #[test]
    fn badly_nested_spans_break_the_identity() {
        // A child that outlives its parent: the overhang is not covered
        // time of the parent, so the layers sum to more than the root.
        let escaping = [span(0, ROOT, 0, 10), span(1, 0, 5, 15)];
        assert_eq!(self_times(&escaping), vec![5, 10]);
        assert!(!Budget::of(&escaping, 2).adds_up());
        // Overlapping siblings: the overlap is counted in both children.
        let overlapping = [span(0, ROOT, 0, 10), span(1, 0, 2, 6), span(1, 0, 4, 8)];
        assert_eq!(self_times(&overlapping), vec![4, 4, 4]);
        assert!(!Budget::of(&overlapping, 2).adds_up());
    }

    #[test]
    fn recorder_nests_and_a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(4, true);
        let root = rec.open(0, ROOT);
        let child = rec.open(1, root);
        rec.close(child);
        rec.close(root);
        let spans = rec.finish().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(Budget::of(&spans, 2).adds_up());

        let mut off = Recorder::new(4, false);
        let id = off.open(0, ROOT);
        off.close(id);
        assert!(off.finish().unwrap().is_empty());
    }

    #[test]
    fn recorder_reports_overflow() {
        let mut rec = Recorder::new(1, true);
        for _ in 0..3 {
            let id = rec.open(0, ROOT);
            rec.close(id);
        }
        assert!(rec.finish().is_err());
    }
}
