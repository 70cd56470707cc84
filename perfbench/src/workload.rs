//! Inputs, cluster set-up and the closed-loop client sessions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use volap::{ClientSession, Cluster, VolapConfig};
use volap_data::{DataGen, QueryGen};
use volap_dims::{Aggregate, Item, QueryBox, Schema};

use crate::oracle;

/// Items bulk-loaded before timing starts: Figure 8's preload (`fig8`
/// in the bench crate).
pub const PRELOAD: usize = 120_000;
/// Seed of the preload, Figure 8's. It is fixed, like a benchmark's scale
/// factor, so every run measures the same database and shard layout: the
/// manager leaves workers up to `migrate_slack` (25%) apart, and with a
/// seeded preload the two workers' shares moved between 36/64 and 50/50
/// from seed to seed, which alone moved `query` throughput by 30%.
/// `--seed` drives every session's op stream.
pub const PRELOAD_SEED: u64 = 8800;
/// Seed of the query pool, Figure 8's, fixed for the same reason: with a
/// seeded pool, `ingest`'s `query_p50_ms` moved between 0.69 and 1.42 ms
/// from seed to seed while repeating one seed gave 1.039 and 1.044 ms.
/// The median of a pool that is one third cheap high-coverage queries
/// sits where a few queries moving between bands shift it a lot.
pub const POOL_SEED: u64 = 8801;
/// Pool queries per coverage band (low, medium, high).
pub const POOL_PER_BAND: usize = 300;
/// Preloaded items the query generator measures coverage on (Figure 8's
/// coverage sample).
pub const BIN_SAMPLE: usize = 20_000;
/// Query candidates `QueryGen::binned` may draw to fill the bands.
pub const BIN_ATTEMPTS: usize = 1_000_000;
/// `DataGen` skew exponent (the experiments' default).
pub const SKEW: f64 = 1.5;
/// `QueryGen` probability of leaving a dimension unconstrained (the value
/// every figure binary and bench in the bench crate uses).
pub const ROOT_PROB: f64 = 0.65;
/// Closed-loop client sessions.
pub const SESSIONS: usize = 2;
/// Cluster set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Fresh clusters tried before a run gives up on getting one to measure.
pub const SETUP_ATTEMPTS: usize = 3;
/// Items per `bulk_insert` call during the preload.
pub const BULK_CHUNK: usize = 10_000;
/// Manager rounds the shard layout must hold still before timing starts.
pub const SETTLE_PERIODS: u32 = 5;

/// The cluster shape: one server, two workers, one service thread each and
/// no worker query pool, so the service threads fit the two cores instead
/// of time-slicing ~20 of them. Every other knob is `VolapConfig::new`'s
/// default: manager, history sampler and observability stay on, and
/// `ingest_batch` stays 1 (no server-side coalescing).
pub fn config() -> VolapConfig {
    let mut cfg = VolapConfig::new(Schema::tpcds());
    cfg.servers = 1;
    cfg.server_threads = 1;
    cfg.workers = 2;
    cfg.worker_threads = 1;
    cfg.query_threads = 1;
    cfg
}

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 100% `ClientSession::insert`; shards split and migrate under load.
    Ingest,
    /// 100% `ClientSession::query` on the static preloaded database.
    Query,
    /// The Figure 8 50/50 interleave of inserts and queries.
    Mixed,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "ingest" => Some(Workload::Ingest),
            "query" => Some(Workload::Query),
            "mixed" => Some(Workload::Mixed),
            _ => None,
        }
    }
}

/// SplitMix64: the sessions' op-choice generator (seeded, dependency-free).
pub struct SplitMix(u64);

impl SplitMix {
    /// Seed a generator.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Everything generated from the seed, before any cluster exists.
pub struct Inputs {
    /// The seed the run was given.
    pub seed: u64,
    /// The TPC-DS schema.
    pub schema: Schema,
    /// Items bulk-loaded at set-up.
    pub preload: Vec<Item>,
    /// The query pool: `POOL_PER_BAND` low, then medium, then high
    /// coverage queries.
    pub pool: Vec<QueryBox>,
    /// Brute-force answer of each pool query over the preload.
    pub oracle: Vec<Aggregate>,
}

impl Inputs {
    /// Generate the preload and query pool and answer the pool by brute
    /// force.
    pub fn generate(seed: u64) -> Result<Inputs, String> {
        let schema = Schema::tpcds();
        let preload = DataGen::new(&schema, PRELOAD_SEED, SKEW).items(PRELOAD);
        let bins = QueryGen::new(&schema, POOL_SEED, ROOT_PROB).binned(
            &preload[..BIN_SAMPLE],
            POOL_PER_BAND,
            BIN_ATTEMPTS,
        );
        if let Some(short) = bins.iter().position(|b| b.len() < POOL_PER_BAND) {
            return Err(format!("coverage band {short} has too few queries"));
        }
        let pool: Vec<QueryBox> = bins.into_iter().flatten().collect();
        let oracle = oracle::brute_force(&preload, &pool, SESSIONS);
        Ok(Inputs {
            seed,
            schema,
            preload,
            pool,
            oracle,
        })
    }

    /// The item stream session `s` inserts (disjoint from the preload's).
    pub fn session_gen(&self, s: usize) -> DataGen {
        DataGen::new(
            &self.schema,
            self.seed
                .wrapping_add(1 + s as u64)
                .wrapping_mul(0x2545_F491_4F6C_DD1D),
            SKEW,
        )
    }
}

/// Every set-up attempt of a run. Each attempt is one checked operation:
/// its settled database must count exactly the preload.
#[derive(Default)]
pub struct SetupLog {
    /// Set-up attempts made.
    pub attempts: u64,
    /// Attempts that failed with an error (preload, layout or query).
    pub errors: Vec<String>,
    /// Attempts whose settled full-space aggregate was wrong.
    pub wrong: Vec<String>,
}

/// Start a cluster, bulk-load the preload, wait until the manager has
/// stopped reshaping it and query the full space once. Returns the cluster
/// and the seconds that took. An attempt that fails or answers wrong is
/// recorded in `log`, where it counts against the run, and shut down; up
/// to `SETUP_ATTEMPTS` fresh clusters are tried only to get one to
/// measure on.
pub fn setup(
    cfg: &VolapConfig,
    inputs: &Inputs,
    log: &mut SetupLog,
) -> Result<(Cluster, f64), String> {
    let mut want = Aggregate::empty();
    for it in &inputs.preload {
        want.merge(&Aggregate::of(it.measure));
    }
    for _ in 0..SETUP_ATTEMPTS {
        log.attempts += 1;
        let t0 = Instant::now();
        let cluster = Cluster::start(cfg.clone());
        let client = cluster.client();
        let settled = inputs
            .preload
            .chunks(BULK_CHUNK)
            .try_for_each(|chunk| {
                client
                    .bulk_insert(chunk.to_vec())
                    .map_err(|e| format!("preload: {e}"))
            })
            .and_then(|()| {
                if wait_for_layout(&cluster) {
                    Ok(())
                } else {
                    Err("shard layout did not settle within 60 s".to_string())
                }
            })
            .and_then(|()| {
                client
                    .query(&QueryBox::all(cluster.schema()))
                    .map_err(|e| format!("full-space query: {e}"))
            });
        let secs = t0.elapsed().as_secs_f64();
        let failure = match settled {
            Ok((got, _)) if oracle::agrees(&got, &want) => return Ok((cluster, secs)),
            Ok((got, _)) => {
                let msg = format!("settled database answers {got:?}, want {want:?}");
                log.wrong.push(msg.clone());
                msg
            }
            Err(e) => {
                log.errors.push(e.clone());
                e
            }
        };
        eprintln!("perfbench: set-up attempt failed: {failure}");
        cluster.shutdown();
    }
    Err(format!(
        "{SETUP_ATTEMPTS} set-up attempts failed: errors {:?}, wrong answers {:?}",
        log.errors, log.wrong
    ))
}

/// Wait (up to 60 s) until the manager has completed `SETTLE_PERIODS`
/// balance rounds in a row without the shard count or its split and
/// migration counts moving. Counting completed rounds (not elapsed time)
/// matters: a long split holds its round open, and the counts still while
/// it runs. Returns whether the layout settled.
pub fn wait_for_layout(cluster: &Cluster) -> bool {
    let rounds = cluster
        .obs()
        .registry()
        .histogram("volap_manager_round_seconds");
    let deadline = Instant::now() + Duration::from_secs(60);
    let shape = || (cluster.shard_count(), cluster.balance_counts());
    let (mut last, mut since) = (shape(), rounds.count());
    loop {
        if Instant::now() > deadline {
            eprintln!(
                "perfbench: layout unsettled after 60 s: (shards, (splits, migrations)) {:?}",
                shape()
            );
            return false;
        }
        std::thread::sleep(cluster.config().manager_period);
        let now = shape();
        if now != last {
            (last, since) = (now, rounds.count());
        } else if rounds.count() >= since + u64::from(SETTLE_PERIODS) {
            return true;
        }
    }
}

/// One client operation as its session saw it.
#[derive(Clone, Copy, Debug)]
pub struct OpRec {
    /// Insert (`true`) or query.
    pub insert: bool,
    /// Sent, ns since the window's base instant.
    pub sent_ns: u64,
    /// Returned, ns since the base instant.
    pub ret_ns: u64,
    /// Whether the call returned `Ok`.
    pub ok: bool,
    /// Insert: index into the session's `items`. Query: pool index.
    pub arg: u32,
    /// Query answer (empty for inserts and errors).
    pub agg: Aggregate,
    /// Shards the server searched for a query.
    pub shards: u32,
}

impl OpRec {
    /// Client-observed latency, ns.
    pub fn lat_ns(&self) -> u64 {
        self.ret_ns - self.sent_ns
    }
}

/// What a session sends next.
pub enum Op {
    /// Insert this item.
    Insert(Item),
    /// Run this pool query.
    Query(usize),
}

/// One session's record of a phase.
#[derive(Default)]
pub struct SessionLog {
    /// Every op, in send order.
    pub ops: Vec<OpRec>,
    /// Items this session inserted, indexed by `OpRec::arg`.
    pub items: Vec<Item>,
}

/// Run `SESSIONS` closed-loop sessions against `cluster` until `end_ns`
/// after `base`: each sends its next op only after the previous one
/// returned. Session `s` draws its `k`-th op from `next(s)(k)`. `done`
/// counts completed ops across sessions for the caller to watch.
pub fn drive<N>(
    cluster: &Cluster,
    inputs: &Inputs,
    base: Instant,
    end_ns: u64,
    done: &AtomicU64,
    next: N,
) -> Vec<SessionLog>
where
    N: Fn(usize) -> Box<dyn FnMut(usize) -> Op + Send> + Sync,
{
    let now_ns = || base.elapsed().as_nanos() as u64;
    let clients: Vec<ClientSession> = (0..SESSIONS).map(|_| cluster.client()).collect();
    std::thread::scope(|sc| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(s, client)| {
                let next = &next;
                sc.spawn(move || {
                    let mut gen_op = next(s);
                    let mut log = SessionLog::default();
                    while now_ns() < end_ns {
                        let rec = match gen_op(log.ops.len()) {
                            Op::Insert(item) => {
                                let sent_ns = now_ns();
                                let r = client.insert(&item);
                                let ret_ns = now_ns();
                                log.items.push(item);
                                OpRec {
                                    insert: true,
                                    sent_ns,
                                    ret_ns,
                                    ok: r.is_ok(),
                                    arg: (log.items.len() - 1) as u32,
                                    agg: Aggregate::empty(),
                                    shards: 0,
                                }
                            }
                            Op::Query(qid) => {
                                let sent_ns = now_ns();
                                let r = client.query(&inputs.pool[qid]);
                                let ret_ns = now_ns();
                                let ok = r.is_ok();
                                let (agg, shards) = r.unwrap_or((Aggregate::empty(), 0));
                                OpRec {
                                    insert: false,
                                    sent_ns,
                                    ret_ns,
                                    ok,
                                    arg: qid as u32,
                                    agg,
                                    shards,
                                }
                            }
                        };
                        log.ops.push(rec);
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client session panicked"))
            .collect()
    })
}

/// The op stream of `workload` for session `s`: fresh items from the
/// session's generator and pool queries drawn uniformly, in the workload's
/// proportion.
pub fn workload_ops(
    inputs: &Inputs,
    workload: Workload,
    s: usize,
) -> Box<dyn FnMut(usize) -> Op + Send> {
    let mut gen = inputs.session_gen(s);
    let mut rng = SplitMix::new(inputs.seed ^ (0xA5A5_0000 + s as u64));
    let pool = inputs.pool.len();
    Box::new(move |_| {
        let insert = match workload {
            Workload::Ingest => true,
            Workload::Query => false,
            Workload::Mixed => rng.next_u64() & 1 == 0,
        };
        if insert {
            Op::Insert(gen.item())
        } else {
            Op::Query(rng.below(pool))
        }
    })
}
