//! Brute-force answers that every cluster answer is checked against.

use volap_dims::{Aggregate, Item, QueryBox};

/// Count and sum of the items inside each query, by scanning every item.
/// Splits the queries over `threads` scoped threads.
pub fn brute_force(items: &[Item], queries: &[QueryBox], threads: usize) -> Vec<Aggregate> {
    let chunk = queries.len().div_ceil(threads.max(1)).max(1);
    let mut out = vec![Aggregate::empty(); queries.len()];
    std::thread::scope(|s| {
        for (qs, outs) in queries.chunks(chunk).zip(out.chunks_mut(chunk)) {
            s.spawn(move || {
                for (q, o) in qs.iter().zip(outs) {
                    for it in items.iter().filter(|it| q.contains_item(it)) {
                        o.merge(&Aggregate::of(it.measure));
                    }
                }
            });
        }
    });
    out
}

/// Whether a cluster answer equals the brute-force one: the count exactly,
/// the sum up to floating-point reassociation. Shards merge partial sums in
/// another order than the brute-force scan, which moves the last bits; the
/// tolerance (1e-9 of the sum) stays far below the smallest measure
/// `DataGen` produces (25·e^-1.5 ≈ 5.6), so one missing or doubled item
/// always fails the check.
pub fn agrees(got: &Aggregate, want: &Aggregate) -> bool {
    got.count == want.count && (got.sum - want.sum).abs() <= 1e-9 * want.sum.abs().max(1.0)
}

/// One insert as the client saw it, for the concurrent-write oracle.
#[derive(Clone, Debug)]
pub struct InsertEvent {
    /// When the request was sent (ns since the window opened).
    pub sent_ns: u64,
    /// When the ack came back; `None` if the insert returned an error (it
    /// may or may not have landed).
    pub acked_ns: Option<u64>,
    /// Pool queries whose box contains the item.
    pub matches: Vec<u32>,
}

/// One query as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct QueryEvent {
    /// When the request was sent.
    pub sent_ns: u64,
    /// When the answer came back.
    pub returned_ns: u64,
    /// Index into the query pool.
    pub qid: u32,
}

/// Bounds on how many of the concurrent inserts each query may count,
/// beyond the preloaded items: at least those acknowledged before the
/// query was sent, at most those sent before it returned. Two sweeps over
/// time-sorted events keep this linear in events times matches.
pub fn concurrent_bounds(
    inserts: &[InsertEvent],
    queries: &[QueryEvent],
    pool: usize,
) -> Vec<(u64, u64)> {
    fn sweep(
        mut ins: Vec<(u64, &[u32])>,
        queries: &[QueryEvent],
        pool: usize,
        at: impl Fn(&QueryEvent) -> u64,
    ) -> Vec<u64> {
        ins.sort_unstable_by_key(|(t, _)| *t);
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_unstable_by_key(|&i| at(&queries[i]));
        let mut counts = vec![0u64; pool];
        let mut out = vec![0u64; queries.len()];
        let mut next = 0;
        for i in order {
            let t = at(&queries[i]);
            while next < ins.len() && ins[next].0 < t {
                for &q in ins[next].1 {
                    counts[q as usize] += 1;
                }
                next += 1;
            }
            out[i] = counts[queries[i].qid as usize];
        }
        out
    }
    let acked: Vec<(u64, &[u32])> = inserts
        .iter()
        .filter_map(|e| e.acked_ns.map(|t| (t, e.matches.as_slice())))
        .collect();
    let sent: Vec<(u64, &[u32])> = inserts
        .iter()
        .map(|e| (e.sent_ns, e.matches.as_slice()))
        .collect();
    let lo = sweep(acked, queries, pool, |q| q.sent_ns);
    let hi = sweep(sent, queries, pool, |q| q.returned_ns);
    lo.into_iter().zip(hi).collect()
}

/// Pool queries containing `item`.
pub fn matching(pool: &[QueryBox], item: &Item) -> Vec<u32> {
    (0..pool.len() as u32)
        .filter(|&i| pool[i as usize].contains_item(item))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(x: u64, m: f64) -> Item {
        Item::new(vec![x], m)
    }

    #[test]
    fn brute_force_counts_and_sums_per_query() {
        let items = vec![item(1, 10.0), item(2, 20.0), item(5, 40.0)];
        let queries = vec![
            QueryBox::from_ranges(vec![(0, 2)]),
            QueryBox::from_ranges(vec![(3, 9)]),
            QueryBox::from_ranges(vec![(7, 9)]),
        ];
        for threads in [1, 2, 8] {
            let got = brute_force(&items, &queries, threads);
            assert_eq!(
                got.iter().map(|a| a.count).collect::<Vec<_>>(),
                vec![2, 1, 0]
            );
            assert_eq!(got[0].sum, 30.0);
            assert_eq!(got[1].sum, 40.0);
        }
    }

    #[test]
    fn agreement_tolerates_reassociation_but_not_a_lost_item() {
        let want = Aggregate {
            count: 3,
            sum: 0.1 + 0.2 + 0.3,
            ..Aggregate::empty()
        };
        let reassociated = Aggregate {
            count: 3,
            sum: 0.3 + 0.2 + 0.1,
            ..Aggregate::empty()
        };
        assert!(agrees(&reassociated, &want));
        assert!(!agrees(
            &Aggregate {
                count: 2,
                ..reassociated
            },
            &want
        ));
        let big = Aggregate {
            count: 1_000_000,
            sum: 4.0e7,
            ..Aggregate::empty()
        };
        let lost = Aggregate {
            count: 1_000_000,
            sum: 4.0e7 - 5.6,
            ..Aggregate::empty()
        };
        assert!(!agrees(&lost, &big));
    }

    #[test]
    fn concurrent_bounds_follow_ack_and_send_times() {
        let ins = vec![
            // Acked at 10: inside every query sent after 10.
            InsertEvent {
                sent_ns: 5,
                acked_ns: Some(10),
                matches: vec![0],
            },
            // In flight 20..40: optional for a query overlapping it.
            InsertEvent {
                sent_ns: 20,
                acked_ns: Some(40),
                matches: vec![0, 1],
            },
            // Failed: never required, allowed once sent.
            InsertEvent {
                sent_ns: 50,
                acked_ns: None,
                matches: vec![0],
            },
        ];
        let qs = vec![
            QueryEvent {
                sent_ns: 0,
                returned_ns: 4,
                qid: 0,
            },
            QueryEvent {
                sent_ns: 11,
                returned_ns: 30,
                qid: 0,
            },
            QueryEvent {
                sent_ns: 41,
                returned_ns: 60,
                qid: 0,
            },
            QueryEvent {
                sent_ns: 41,
                returned_ns: 60,
                qid: 1,
            },
            QueryEvent {
                sent_ns: 10,
                returned_ns: 12,
                qid: 0,
            },
        ];
        let b = concurrent_bounds(&ins, &qs, 2);
        assert_eq!(b, vec![(0, 0), (1, 2), (2, 3), (1, 1), (0, 1)]);
    }

    #[test]
    fn matching_lists_every_containing_query() {
        let pool = vec![
            QueryBox::from_ranges(vec![(0, 2)]),
            QueryBox::from_ranges(vec![(2, 9)]),
            QueryBox::from_ranges(vec![(5, 9)]),
        ];
        assert_eq!(matching(&pool, &item(2, 1.0)), vec![0, 1]);
        assert_eq!(matching(&pool, &item(9, 1.0)), vec![1, 2]);
    }
}
