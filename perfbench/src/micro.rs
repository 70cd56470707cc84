//! Isolated, single-threaded calls into each layer's public functions, on
//! the run's own items and queries. Each figure is the median over
//! `REPS` repetitions of the mean cost per call.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use volap::{Request, Response, ServerIndex, ShardRecord, VolapConfig};
use volap_dims::{Aggregate, Item};
use volap_hilbert::HilbertCurve;
use volap_net::Network;
use volap_tree::build_store;

use crate::stats::median;
use crate::workload::{Inputs, POOL_PER_BAND};

/// Repetitions per micro measurement.
const REPS: usize = 3;
/// Items the tree-insert and routing micros push per repetition.
const MICRO_INSERTS: usize = 10_000;
/// Round trips per repetition of the bare-network echo.
const NET_ROUND_TRIPS: usize = 5_000;

/// Micro costs, each per call.
#[derive(Debug, Default, Clone)]
pub struct Micro {
    /// `HilbertCurve::index` on an item's level-expanded coordinates, ns.
    pub hilbert_index_ns: f64,
    /// `ShardStore::insert` into a store holding the preload, µs.
    pub tree_insert_us: f64,
    /// `ShardStore::query` per coverage band (low, medium, high), µs.
    pub tree_query_us: [f64; 3],
    /// `ServerIndex::route_insert`, ns.
    pub route_insert_ns: f64,
    /// `ServerIndex::route_query`, µs.
    pub route_query_us: f64,
    /// Client insert request + ack, encode plus decode, ns.
    pub proto_insert_ns: f64,
    /// Client query request + aggregate reply, encode plus decode, ns.
    pub proto_query_ns: f64,
    /// `Endpoint::request` echo round trip on a bare `Network`, µs.
    pub net_rtt_us: f64,
}

impl Micro {
    /// Proto round trip weighted by the op mix (`insert_share` of ops are
    /// inserts), ns.
    pub fn proto_roundtrip_ns(&self, insert_share: f64) -> f64 {
        insert_share * self.proto_insert_ns + (1.0 - insert_share) * self.proto_query_ns
    }

    /// Sum of the micro costs on one insert's path: two proto round trips
    /// and two network round trips (client↔server, server↔worker), one
    /// routing decision and one tree insert, µs.
    pub fn insert_path_us(&self) -> f64 {
        2.0 * self.proto_insert_ns / 1e3
            + 2.0 * self.net_rtt_us
            + self.route_insert_ns / 1e3
            + self.tree_insert_us
    }

    /// The same for one query: the scatter legs run in parallel, so the
    /// path holds two network round trips; the tree cost is the mean over
    /// the three equally sized bands, µs.
    pub fn query_path_us(&self) -> f64 {
        let tree = self.tree_query_us.iter().sum::<f64>() / 3.0;
        2.0 * self.proto_query_ns / 1e3 + 2.0 * self.net_rtt_us + self.route_query_us + tree
    }
}

/// Median over `REPS` runs of `f`'s returned (total, calls) as a per-call
/// cost in `unit` seconds.
fn per_call(unit: f64, mut f: impl FnMut() -> (Duration, usize)) -> f64 {
    let costs: Vec<f64> = (0..REPS)
        .map(|_| {
            let (d, n) = f();
            d.as_secs_f64() / unit / n.max(1) as f64
        })
        .collect();
    median(&costs).unwrap_or(0.0)
}

/// Measure every micro cost. `inserts` are items of the workload's insert
/// stream; `shards` is the image the run ended with.
pub fn measure(
    cfg: &VolapConfig,
    inputs: &Inputs,
    inserts: &[Item],
    shards: &[ShardRecord],
) -> Micro {
    let schema = &inputs.schema;
    let inserts = &inserts[..inserts.len().min(MICRO_INSERTS)];
    let mut m = Micro::default();

    // Hilbert keys: the tree's level expansion widens each level to its
    // schema-wide maximum width (DESIGN.md, Figure 3).
    let widths: Vec<u32> = schema
        .dimensions()
        .iter()
        .map(|d| (1..=d.depth()).map(|l| schema.max_level_bits(l)).sum())
        .collect();
    let mapper = volap_dims::HilbertMapper::new(schema, true);
    let curve = HilbertCurve::new(&widths);
    let points: Vec<Vec<u64>> = inputs
        .preload
        .iter()
        .map(|it| {
            it.coords
                .iter()
                .enumerate()
                .map(|(d, &c)| mapper.expand_ordinal(d, c))
                .collect()
        })
        .collect();
    m.hilbert_index_ns = per_call(1e-9, || {
        let t = Instant::now();
        for p in &points {
            black_box(curve.index(black_box(p)));
        }
        (t.elapsed(), points.len())
    });

    // Tree: one store of the cluster's kind and tree config holding the
    // preload; query it first, then insert into it.
    let store = build_store(cfg.store_kind, schema, &cfg.tree_config());
    store.bulk_insert(inputs.preload.clone());
    for band in 0..3 {
        let qs = &inputs.pool[band * POOL_PER_BAND..(band + 1) * POOL_PER_BAND];
        m.tree_query_us[band] = per_call(1e-6, || {
            let t = Instant::now();
            let mut acc = Aggregate::empty();
            for q in qs {
                acc.merge(&store.query(black_box(q)));
            }
            black_box(acc);
            (t.elapsed(), qs.len())
        });
    }
    m.tree_insert_us = per_call(1e-6, || {
        let t = Instant::now();
        for it in inserts {
            store.insert(black_box(it));
        }
        (t.elapsed(), inserts.len())
    });
    drop(store);

    // Routing: a fresh server index over the run's final image.
    let build_index = || {
        let mut idx = ServerIndex::new(schema.clone(), cfg.index_dir_cap);
        for rec in shards {
            idx.add_shard(rec.id, rec.mbr.clone());
        }
        idx
    };
    m.route_insert_ns = per_call(1e-9, || {
        let mut idx = build_index();
        let t = Instant::now();
        for it in inserts {
            black_box(idx.route_insert(black_box(it)));
        }
        (t.elapsed(), inserts.len())
    });
    let idx = build_index();
    m.route_query_us = per_call(1e-6, || {
        let t = Instant::now();
        for q in &inputs.pool {
            black_box(idx.route_query(black_box(q)));
        }
        (t.elapsed(), inputs.pool.len())
    });

    // Wire format: what a client session encodes and the server decodes,
    // then the reply the other way.
    m.proto_insert_ns = per_call(1e-9, || {
        let t = Instant::now();
        for it in inserts {
            let req = Request::ClientInsert {
                item: it.clone(),
                principal: 0,
            }
            .encode();
            black_box(Request::decode(&req).expect("decode own insert"));
            black_box(Response::decode(schema, &Response::Ack.encode()).expect("decode own ack"));
        }
        (t.elapsed(), inserts.len())
    });
    m.proto_query_ns = per_call(1e-9, || {
        let t = Instant::now();
        for (q, agg) in inputs.pool.iter().zip(&inputs.oracle) {
            let req = Request::ClientQuery {
                query: q.clone(),
                principal: 0,
            }
            .encode();
            black_box(Request::decode(&req).expect("decode own query"));
            let resp = Response::Agg {
                agg: *agg,
                shards_searched: 4,
            }
            .encode();
            black_box(Response::decode(schema, &resp).expect("decode own aggregate"));
        }
        (t.elapsed(), inputs.pool.len())
    });

    m.net_rtt_us = net_rtt_us(
        Request::ClientInsert {
            item: inserts[0].clone(),
            principal: 0,
        }
        .encode(),
    );
    m
}

/// Echo round trip through a bare `Network` (no cluster, no observability
/// attached): one endpoint requests, a thread on the other replies with
/// the payload.
fn net_rtt_us(payload: Vec<u8>) -> f64 {
    let net = Network::new();
    let client = net.endpoint("micro-client");
    let echo = net.endpoint("micro-echo");
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                if let Ok(msg) = echo.recv(Duration::from_millis(10)) {
                    let _ = msg.reply(msg.payload.clone());
                }
            }
        });
        let rtt = per_call(1e-6, || {
            let t = Instant::now();
            for _ in 0..NET_ROUND_TRIPS {
                black_box(
                    client
                        .request("micro-echo", payload.clone(), Duration::from_secs(10))
                        .expect("echo reply"),
                );
            }
            (t.elapsed(), NET_ROUND_TRIPS)
        });
        stop.store(true, Ordering::Release);
        rtt
    })
}
