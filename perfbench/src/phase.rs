//! Timed phases: closed-loop sessions for a fixed time, cut into slices,
//! each slice stamped with the share of CPU time the host stole from this
//! machine while it ran.
//!
//! On a shared host, stolen time arrives in stretches of seconds and slows
//! every stage of a request pipeline at once: measured on a 2-vCPU guest,
//! `query` throughput fell from ~1100 ops/s in slices with under 2% steal
//! to ~780 at 13% and ~280 at 30%. Wall-clock metrics are therefore taken
//! over the quieter half of a phase's slices, ranked by measured steal and
//! never by the metric itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use volap::Cluster;

use crate::ledger;
use crate::workload::{self, Inputs, Op, OpRec, SessionLog, Workload};

/// Length of one slice.
pub const SLICE: Duration = Duration::from_millis(500);
/// Spans one recording thread may hold before sampling is switched off.
/// The collector keeps 512 spans per shard and evicts beyond that; 240
/// leaves room for two threads sharing a shard plus the spans still in
/// flight when the guard trips.
const SPAN_CAP: usize = 240;
/// Spans per recording thread the sample rate aims at over a phase.
const SPAN_TARGET: f64 = 200.0;
/// How often the guard reads the collector during a traced slice.
const GUARD_POLL: Duration = Duration::from_millis(50);

/// What a timed phase produced.
pub struct Phase {
    /// Each session's ops.
    pub logs: Vec<SessionLog>,
    /// Slice length, ns.
    pub slice_ns: u64,
    /// Slices in the phase.
    pub slices: usize,
    /// Host steal share of each slice.
    pub steal: Vec<f64>,
    /// Whether odd slices were traced.
    pub traced: bool,
    /// Sampling rate of the traced slices (1-in-N; 0 when untraced).
    pub sample_every: u32,
}

impl Phase {
    /// Every op of every session.
    pub fn ops(&self) -> impl Iterator<Item = &OpRec> {
        self.logs.iter().flat_map(|l| &l.ops)
    }

    fn slice_of(&self, ns: u64) -> usize {
        ((ns / self.slice_ns) as usize).min(self.slices - 1)
    }

    fn is_traced(&self, i: usize) -> bool {
        self.traced && i % 2 == 1
    }

    /// The quieter half of the traced (or untraced) slices.
    pub fn quiet(&self, traced: bool) -> Vec<bool> {
        quietest_half(&self.steal, |i| self.is_traced(i) == traced)
    }

    /// Every traced (or untraced) slice.
    pub fn all(&self, traced: bool) -> Vec<bool> {
        (0..self.slices)
            .map(|i| self.is_traced(i) == traced)
            .collect()
    }

    /// Ops completed per second in each selected slice.
    pub fn rates(&self, sel: &[bool]) -> Vec<f64> {
        let mut done = vec![0u64; self.slices];
        let end = self.slice_ns * self.slices as u64;
        for op in self.ops().filter(|o| o.ret_ns < end) {
            done[self.slice_of(op.ret_ns)] += 1;
        }
        let secs = self.slice_ns as f64 / 1e9;
        (0..self.slices)
            .filter(|&i| sel[i])
            .map(|i| done[i] as f64 / secs)
            .collect()
    }

    /// Ops sent in a selected slice.
    pub fn ops_in<'a>(&'a self, sel: &'a [bool]) -> impl Iterator<Item = &'a OpRec> + 'a {
        self.ops().filter(move |o| sel[self.slice_of(o.sent_ns)])
    }

    /// Mean host steal share over the selected slices.
    pub fn mean_steal(&self, sel: &[bool]) -> f64 {
        let v: Vec<f64> = (0..self.slices)
            .filter(|&i| sel[i])
            .map(|i| self.steal[i])
            .collect();
        crate::stats::mean(&v)
    }
}

/// Select the `ceil(n / 2)` eligible slices with the least steal. Ties,
/// the common case on a quiet host, go to every other eligible slice
/// first, so the selection spans the whole phase: `ingest` slows as its
/// database grows, and a selection leaning on early slices would follow
/// where the few stolen ticks happened to fall.
pub fn quietest_half(steal: &[f64], eligible: impl Fn(usize) -> bool) -> Vec<bool> {
    let mut idx: Vec<(usize, usize)> = (0..steal.len())
        .filter(|&i| eligible(i))
        .enumerate()
        .collect();
    idx.sort_by(|&(ja, a), &(jb, b)| {
        steal[a]
            .total_cmp(&steal[b])
            .then((ja % 2).cmp(&(jb % 2)))
            .then(a.cmp(&b))
    });
    let mut sel = vec![false; steal.len()];
    for &(_, i) in &idx[..idx.len().div_ceil(2)] {
        sel[i] = true;
    }
    sel
}

/// `(steal, total)` CPU ticks of the whole machine, from `/proc/stat`.
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Sleep until `ns` after `base`.
fn sleep_until(base: Instant, ns: u64) {
    let now = base.elapsed().as_nanos() as u64;
    if ns > now {
        std::thread::sleep(Duration::from_nanos(ns - now));
    }
}

/// Run the sessions for `dur`, drawing ops from `next`. With `trace`, odd
/// slices sample requests for the ledger.
pub fn run<N>(
    cluster: &Cluster,
    inputs: &Inputs,
    dur: Duration,
    trace: Option<Workload>,
    next: N,
) -> Phase
where
    N: Fn(usize) -> Box<dyn FnMut(usize) -> Op + Send> + Send + Sync,
{
    let slices = ((dur.as_nanos() / SLICE.as_nanos()) as usize).max(2);
    let slice_ns = dur.as_nanos() as u64 / slices as u64;
    let end_ns = slice_ns * slices as u64;
    let done = AtomicU64::new(0);
    let base = Instant::now();
    std::thread::scope(|sc| {
        let sessions = sc.spawn(|| workload::drive(cluster, inputs, base, end_ns, &done, next));
        let steal = sc.spawn(|| {
            let mut prev = host_ticks();
            (1..=slices)
                .map(|i| {
                    sleep_until(base, slice_ns * i as u64);
                    let cur = host_ticks();
                    let stolen = cur.0.saturating_sub(prev.0) as f64;
                    let share = stolen / cur.1.saturating_sub(prev.1).max(1) as f64;
                    prev = cur;
                    share
                })
                .collect()
        });
        let sample_every = trace.map_or(0, |wl| {
            control_sampling(cluster, wl, base, &done, slice_ns, slices)
        });
        Phase {
            logs: sessions.join().expect("session thread panicked"),
            slice_ns,
            slices,
            steal: steal.join().expect("steal sampler panicked"),
            traced: trace.is_some(),
            sample_every,
        }
    })
}

/// Switch sampling on for odd slices and off for even ones. The rate is set
/// once, from the first slice's throughput and an estimate of the spans
/// each op leaves on its busiest recording thread, so the traced slices
/// together aim at `SPAN_TARGET` spans per thread; the guard switches
/// sampling off for good if a thread nears `SPAN_CAP` anyway. The guard
/// polls in every slice, traced or not, so both sides of the traced vs
/// untraced comparison carry its cost.
fn control_sampling(
    cluster: &Cluster,
    workload: Workload,
    base: Instant,
    done: &AtomicU64,
    slice_ns: u64,
    slices: usize,
) -> u32 {
    let tracer = cluster.tracer();
    // Poll the collector until `end_ns`; returns early, with `true`, once
    // a recording thread nears `SPAN_CAP`.
    let guard = |end_ns: u64| {
        while (base.elapsed().as_nanos() as u64) < end_ns {
            std::thread::sleep(GUARD_POLL);
            let (busiest, unattributed) = ledger::recorder_load(&tracer.spans());
            if busiest + unattributed >= SPAN_CAP {
                return true;
            }
        }
        false
    };
    let mut exhausted = guard(slice_ns);
    let rate = done.load(Ordering::Relaxed) as f64 / (slice_ns as f64 / 1e9);
    let workers = cluster.config().workers as f64;
    let per_worker_shards = (cluster.shard_count() as f64 / workers).ceil();
    // Spans per op on the busiest thread: an insert leaves its route and
    // hop on the server thread; a query leaves its route and one hop per
    // worker there, and queue, op and one `tree_exec` per local shard on
    // each worker thread.
    let insert_spans = 2.0;
    let query_spans = (1.0 + workers).max(2.0 + per_worker_shards);
    let spans_per_op = match workload {
        Workload::Ingest => insert_spans,
        Workload::Query => query_spans,
        Workload::Mixed => (insert_spans + query_spans) / 2.0,
    };
    let traced_secs = (slices / 2) as f64 * slice_ns as f64 / 1e9;
    let every = ((rate * traced_secs * spans_per_op / SPAN_TARGET).ceil() as u32).max(1);
    for i in 1..slices {
        let end = slice_ns * (i as u64 + 1);
        let traced = i % 2 == 1 && !exhausted;
        if traced {
            tracer.set_sample_every(every);
        }
        let tripped = guard(end);
        tracer.set_sample_every(0);
        if tripped {
            exhausted = true;
            sleep_until(base, end);
        }
    }
    every
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quietest_half_ranks_by_steal_among_eligible_slices() {
        let steal = [0.30, 0.01, 0.20, 0.02, 0.05, 0.40];
        let sel = quietest_half(&steal, |_| true);
        assert_eq!(sel, vec![false, true, false, true, true, false]);
        // Odd slices only: 0.01, 0.02 and 0.40 -> the two quietest.
        let odd = quietest_half(&steal, |i| i % 2 == 1);
        assert_eq!(odd, vec![false, true, false, true, false, false]);
        // Ties go to every other eligible slice first; an odd count rounds
        // up.
        assert_eq!(
            quietest_half(&[0.0, 0.0, 0.0], |_| true),
            vec![true, false, true]
        );
        assert_eq!(
            quietest_half(&[0.0; 6], |i| i % 2 == 0),
            vec![true, false, false, false, true, false]
        );
        // A stolen slice is left out and the next tied one fills in.
        assert_eq!(
            quietest_half(&[0.0, 0.0, 0.5, 0.0], |_| true),
            vec![true, true, false, false]
        );
        assert_eq!(quietest_half(&[], |_| true), Vec::<bool>::new());
    }
}
