//! The per-layer latency ledger: self times of the spans the program emits
//! (`server_route`, `net_hop`, `worker_queue`, `worker_*`, `tree_exec`),
//! summed per layer over every sampled trace.
//!
//! A span's self time is its duration minus the *union* of its children's
//! intervals. Query fan-out sends one `net_hop` per worker at once, so
//! sibling hops overlap; subtracting their plain sum would count the
//! overlap twice and drive the parent's self time below zero.

use std::collections::HashMap;

use volap_obs::SpanRecord;

/// Total length of the union of the intervals `[start, end)`, each clipped
/// to `[lo, hi)`.
pub fn covered_len(intervals: impl IntoIterator<Item = (u64, u64)>, lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of the span `parent`: its duration minus the union of its
/// children's intervals, clipped to the parent.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let dur = parent.1.saturating_sub(parent.0);
    dur.saturating_sub(covered_len(children.iter().copied(), parent.0, parent.1))
}

/// The layers a span can belong to, in blocking-path order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `server_route`: routing on the server's local image.
    ServerRoute,
    /// `net_hop`: one request/reply leg through the message fabric.
    NetHop,
    /// `worker_queue`: time the envelope waited in the worker's inbox.
    WorkerQueue,
    /// `worker_insert` / `worker_query` / …: the worker's op handler.
    WorkerOp,
    /// `tree_exec`: one shard's tree descent and leaf scan.
    TreeExec,
}

impl Layer {
    /// The layer of a span name; `None` for markers such as
    /// `insertion_queue`, which have no duration.
    pub fn of(name: &str) -> Option<Layer> {
        match name {
            "server_route" => Some(Layer::ServerRoute),
            "net_hop" => Some(Layer::NetHop),
            "worker_queue" => Some(Layer::WorkerQueue),
            "tree_exec" => Some(Layer::TreeExec),
            n if n.starts_with("worker_") => Some(Layer::WorkerOp),
            _ => None,
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Layer totals over a set of sampled traces.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ledger {
    /// Traces rooted at a `server_route` span.
    pub traces: u64,
    /// Of which queries.
    pub query_traces: u64,
    /// Sum of root (`server_route`) durations, µs.
    pub root_us: u64,
    /// Sum over traces of the time covered by any of the trace's spans, µs.
    pub covered_us: u64,
    /// Sum of self times per layer, in `Layer` declaration order, µs.
    pub self_us: [u64; 5],
    /// `tree_exec` spans seen.
    pub tree_execs: u64,
    /// Sums of the `tree_exec` traversal annotations.
    pub nodes_visited: u64,
    /// Items tested by leaf scans.
    pub items_scanned: u64,
    /// Subtrees answered from a cached aggregate without descending.
    pub covered_hits: u64,
    /// Cells answered from materialized rollups.
    pub rollup_hits: u64,
}

impl Ledger {
    /// Self time of one layer, µs, summed over traces.
    pub fn layer_us(&self, layer: Layer) -> u64 {
        self.self_us[layer.idx()]
    }

    /// Fold every complete trace in `spans` into the ledger. A trace counts
    /// when its `server_route` root was collected; spans of other roots
    /// (none exist with ingest coalescing off) are ignored.
    pub fn build(spans: &[SpanRecord]) -> Ledger {
        let mut by_trace: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
        for s in spans {
            by_trace.entry(s.trace_id).or_default().push(s);
        }
        let mut led = Ledger::default();
        for trace in by_trace.values() {
            let Some(root) = trace
                .iter()
                .find(|s| s.parent_span_id == 0 && s.name == "server_route")
            else {
                continue;
            };
            led.traces += 1;
            if root.annotation("op") == Some("query") {
                led.query_traces += 1;
            }
            led.root_us += root.duration_us();
            led.covered_us +=
                covered_len(trace.iter().map(|s| (s.start_us, s.end_us)), 0, u64::MAX);
            for s in trace {
                let Some(layer) = Layer::of(&s.name) else {
                    continue;
                };
                let children: Vec<(u64, u64)> = trace
                    .iter()
                    .filter(|c| c.parent_span_id == s.span_id)
                    .map(|c| (c.start_us, c.end_us))
                    .collect();
                led.self_us[layer.idx()] += self_time((s.start_us, s.end_us), &children);
                if layer == Layer::TreeExec {
                    let n = |k: &str| {
                        s.annotation(k)
                            .and_then(|v| v.parse::<u64>().ok())
                            .unwrap_or(0)
                    };
                    led.tree_execs += 1;
                    led.nodes_visited += n("nodes_visited");
                    led.items_scanned += n("items_scanned");
                    led.covered_hits += n("covered_hits");
                    led.rollup_hits += n("rollup_hits");
                }
            }
        }
        led
    }
}

/// Spans held per recording thread. Each span lands in the collector
/// shard of the thread that recorded it: the server's service thread
/// records `server_route` and its `net_hop`s; a worker's service thread
/// records that worker's queue, op and `tree_exec` spans (and the hops of
/// any forwards it makes). Returns `(largest per-thread load, spans not yet
/// attributable)`: a `tree_exec` whose op span is still open has no
/// recorded parent to name its worker.
pub fn recorder_load(spans: &[SpanRecord]) -> (usize, usize) {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span_id, s)).collect();
    let mut loads: HashMap<&str, usize> = HashMap::new();
    let mut unknown = 0;
    for s in spans {
        let group = if let Some(w) = s.annotation("worker") {
            Some(w)
        } else if s.name == "server_route" {
            Some("server")
        } else {
            match by_id.get(&s.parent_span_id) {
                Some(p) if p.name == "server_route" => Some("server"),
                Some(p) => p.annotation("worker"),
                None => None,
            }
        };
        match group {
            Some(g) => *loads.entry(g).or_default() += 1,
            None => unknown += 1,
        }
    }
    (loads.values().copied().max().unwrap_or(0), unknown)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent_span_id: parent,
            name: name.into(),
            start_us: start,
            end_us: end,
            annotations: Vec::new(),
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(covered_len([(10, 50), (30, 70)], 0, 100), 60);
        assert_eq!(covered_len([(10, 20), (30, 40)], 0, 100), 20);
        assert_eq!(covered_len([(10, 20), (20, 30)], 0, 100), 20);
        assert_eq!(covered_len([(0, 200)], 50, 100), 50);
        assert_eq!(covered_len(Vec::<(u64, u64)>::new(), 0, 100), 0);
        assert_eq!(covered_len([(30, 40), (10, 60), (15, 20)], 0, 100), 50);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Two fan-out hops overlapping by 20 µs: the union is 60 µs, so the
        // parent keeps 40 µs (the plain sum of 80 µs would leave 20).
        assert_eq!(self_time((0, 100), &[(10, 50), (30, 70)]), 40);
        // A child leaking past its parent is clipped, never negative.
        assert_eq!(self_time((0, 100), &[(90, 150)]), 90);
        assert_eq!(self_time((0, 100), &[(0, 100), (20, 30)]), 0);
        assert_eq!(self_time((5, 5), &[]), 0);
    }

    #[test]
    fn ledger_attributes_a_fanned_out_query() {
        let mut root = span(1, 1, 0, "server_route", 0, 100);
        root.annotations.push(("op".into(), "query".into()));
        let mut exec = span(1, 8, 6, "tree_exec", 30, 60);
        exec.annotations.push(("items_scanned".into(), "12".into()));
        exec.annotations.push(("nodes_visited".into(), "3".into()));
        let spans = vec![
            root,
            span(1, 2, 1, "net_hop", 10, 80),
            span(1, 3, 1, "net_hop", 20, 90),
            span(1, 4, 2, "worker_queue", 15, 25),
            span(1, 5, 2, "worker_query", 25, 75),
            span(1, 6, 3, "worker_query", 22, 85),
            exec,
        ];
        let led = Ledger::build(&spans);
        assert_eq!(led.traces, 1);
        assert_eq!(led.query_traces, 1);
        assert_eq!(led.root_us, 100);
        assert_eq!(led.covered_us, 100);
        // Root keeps [0,10) and [90,100) outside the hop union [10,90).
        assert_eq!(led.layer_us(Layer::ServerRoute), 20);
        // Hop 2: 70 - |[15,75)| = 10; hop 3: 70 - |[22,85)| = 7.
        assert_eq!(led.layer_us(Layer::NetHop), 17);
        assert_eq!(led.layer_us(Layer::WorkerQueue), 10);
        // worker_query 5 has no children (50); 6 loses its tree_exec (63 - 30).
        assert_eq!(led.layer_us(Layer::WorkerOp), 83);
        assert_eq!(led.layer_us(Layer::TreeExec), 30);
        assert_eq!(
            (led.tree_execs, led.items_scanned, led.nodes_visited),
            (1, 12, 3)
        );
    }

    #[test]
    fn traces_without_a_collected_root_are_skipped() {
        let spans = vec![span(7, 2, 1, "net_hop", 0, 10)];
        assert_eq!(Ledger::build(&spans), Ledger::default());
    }

    #[test]
    fn recorder_load_groups_by_thread() {
        let mut q = span(1, 4, 2, "worker_queue", 0, 1);
        q.annotations.push(("worker".into(), "worker-0".into()));
        let mut op = span(1, 5, 2, "worker_query", 0, 1);
        op.annotations.push(("worker".into(), "worker-0".into()));
        let spans = vec![
            span(1, 1, 0, "server_route", 0, 9),
            span(1, 2, 1, "net_hop", 0, 5),
            span(1, 3, 1, "net_hop", 0, 5),
            q,
            op,
            span(1, 6, 5, "tree_exec", 0, 1),
            span(1, 7, 99, "tree_exec", 0, 1),
        ];
        assert_eq!(recorder_load(&spans), (3, 1));
    }
}
