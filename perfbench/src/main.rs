//! End-to-end VOLAP benchmark.
//!
//! Drives a full in-process `Cluster` (server → net → workers → Hilbert
//! PDC trees) with two closed-loop `ClientSession`s through one of three
//! workloads, checks every answer against a brute-force oracle, and prints
//! every metric by name and unit, ending with one JSON line.
//!
//! ```text
//! perfbench --workload <ingest|query|mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced window.
//! `--trace 1` alternates untraced and traced one-second slices, and
//! reports the per-layer ledger from the traced slices, the counters the
//! program keeps, and isolated micro costs. See README.md.

mod ledger;
mod micro;
mod oracle;
mod phase;
mod stats;
mod workload;

use std::time::{Duration, Instant};

use volap::{Cluster, Snapshot};
use volap_dims::{Aggregate, Item, QueryBox};

use ledger::{Layer, Ledger};
use oracle::{InsertEvent, QueryEvent};
use phase::Phase;
use stats::{mean, median, percentile, ratio};
use workload::{Inputs, Op, OpRec, SessionLog, Workload, PRELOAD, SESSIONS};

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&workload_name)
            .ok_or_else(|| format!("unknown workload {workload_name}"))?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace takes 0 or 1, not {t}")),
        },
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

#[derive(Default)]
struct Report {
    /// Printed and, when `in_json`, emitted in the final JSON line.
    metrics: Vec<(Metric, bool)>,
    attempted: u64,
    errors: u64,
    wrong: u64,
}

impl Report {
    fn put(
        &mut self,
        in_json: bool,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push((
            Metric {
                name,
                value,
                unit,
                note: note.into(),
            },
            in_json,
        ));
    }

    fn failed(&self) -> u64 {
        self.errors + self.wrong
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <ingest|query|mixed> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for (m, _) in &report.metrics {
        println!(
            "{:<8} {:<36} {:>14.4} {:<6} {}",
            args.workload_name, m.name, m.value, m.unit, m.note
        );
    }
    let correct = report.failed() == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .filter(|(_, json)| *json)
        .map(|(m, _)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed(),
        metrics.join(", ")
    );
    if !correct {
        eprintln!(
            "perfbench: {} errors and {} wrong answers",
            report.errors, report.wrong
        );
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let t_gen = Instant::now();
    let inputs = Inputs::generate(args.seed)?;
    let gen_s = t_gen.elapsed().as_secs_f64();
    let cfg = workload::config();

    let mut setup_log = workload::SetupLog::default();
    let (cluster, first_setup_s) = workload::setup(&cfg, &inputs, &mut setup_log)?;
    // The loaded database's footprint, before the window: how far an
    // ingest window grows the database depends on its throughput.
    let rss_mb = peak_rss_mb();
    let settled_shards = cluster.shard_count();

    let dur = Duration::from_secs(args.seconds);
    let probe_dur = (dur / 2).max(2 * phase::SLICE);
    let pool = inputs.pool.len();
    // A workload reports percentiles for the op type it does not send from
    // a probe on the settled database: `ingest` reads before its window
    // (the grown database's size would follow ingest throughput), `query`
    // writes after its window (its window needs the static preload).
    let read_probe = (args.workload == Workload::Ingest && !args.trace).then(|| {
        phase::run(&cluster, &inputs, probe_dur, None, |s| {
            Box::new(move |k| Op::Query((k * SESSIONS + s) % pool))
        })
    });
    let snap0 = cluster.snapshot();
    let dropped0 = cluster.tracer().dropped();
    let window = phase::run(
        &cluster,
        &inputs,
        dur,
        args.trace.then_some(args.workload),
        |s| workload::workload_ops(&inputs, args.workload, s),
    );
    let snap1 = cluster.snapshot();
    let spans = if args.trace {
        cluster.tracer().spans()
    } else {
        Vec::new()
    };
    let dropped = cluster.tracer().dropped() - dropped0;
    let write_probe = (args.workload == Workload::Query && !args.trace).then(|| {
        phase::run(&cluster, &inputs, probe_dur, None, |s| {
            let mut gen = inputs.session_gen(s);
            Box::new(move |_| Op::Insert(gen.item()))
        })
    });

    let mut rep = Report::default();
    let phases: Vec<&Phase> = [read_probe.as_ref(), Some(&window), write_probe.as_ref()]
        .into_iter()
        .flatten()
        .collect();
    for p in &phases {
        rep.attempted += p.ops().count() as u64;
        rep.errors += p.ops().filter(|o| !o.ok).count() as u64;
    }
    rep.wrong = check_window(&inputs, args.workload, &window)
        + read_probe
            .as_ref()
            .map_or(0, |p| check_window(&inputs, Workload::Query, p));
    let logs: Vec<&SessionLog> = phases.iter().flat_map(|p| &p.logs).collect();
    verify(
        &mut rep,
        &cluster,
        &inputs,
        args.workload == Workload::Ingest,
        &logs,
    );
    let final_shards = cluster.image().shards();
    cluster.shutdown();
    // Set-up time is the median of several set-ups; the extra ones run
    // after the window so they cannot disturb it.
    let mut setups = vec![first_setup_s];
    if !args.trace {
        for _ in 1..workload::SETUP_REPS {
            let (c, secs) = workload::setup(&cfg, &inputs, &mut setup_log)?;
            c.shutdown();
            setups.push(secs);
        }
    }
    // Each set-up attempt is one checked operation. A failed one never
    // carries a measurement, but it counts against the run.
    rep.attempted += setup_log.attempts;
    rep.errors += setup_log.errors.len() as u64;
    rep.wrong += setup_log.wrong.len() as u64;
    println!(
        "# set-up attempts: {}, errors {:?}, wrong answers {:?}",
        setup_log.attempts, setup_log.errors, setup_log.wrong
    );

    println!(
        "# workload={} seed={} seconds={} trace={} preload={PRELOAD} pool={}x3 sessions={SESSIONS} \
         gen_s={gen_s:.3} shards_settled={settled_shards} shards_final={} window_steal={:.3}",
        args.workload_name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::POOL_PER_BAND,
        final_shards.len(),
        window.mean_steal(&vec![true; window.slices]),
    );

    let rates = window.rates(&vec![true; window.slices]);
    let slices: Vec<String> = (0..window.slices)
        .map(|i| format!("{:.0}@{:.3}", rates[i], window.steal[i]))
        .collect();
    println!("# window slices, ops/s@steal: {}", slices.join(" "));
    if args.trace {
        if dropped != 0 {
            return Err(format!(
                "trace collector dropped {dropped} spans during the window: refusing to publish the ledger"
            ));
        }
        println!("# trace collector: {dropped} spans dropped in the window");
        per_layer(
            &mut rep,
            &cfg,
            &inputs,
            &window,
            &spans,
            (&snap0, &snap1),
            &final_shards,
        );
    } else {
        end_to_end(
            &mut rep,
            args.workload,
            &window,
            read_probe.as_ref().or(write_probe.as_ref()),
            &setups,
            rss_mb,
        );
    }
    Ok(rep)
}

/// Wrong answers among the window's queries: on `query` each must equal
/// the oracle over the preload; on `mixed` each count must lie between the
/// oracle over inserts acked before it was sent and over inserts sent
/// before it returned.
fn check_window(inputs: &Inputs, workload: Workload, w: &Phase) -> u64 {
    match workload {
        Workload::Ingest => 0,
        Workload::Query => w
            .ops()
            .filter(|o| o.ok && !oracle::agrees(&o.agg, &inputs.oracle[o.arg as usize]))
            .count() as u64,
        Workload::Mixed => {
            let (inserts, queries, answers) = events(inputs, &w.logs);
            let bounds = oracle::concurrent_bounds(&inserts, &queries, inputs.pool.len());
            answers
                .iter()
                .zip(&queries)
                .zip(&bounds)
                .filter(|((got, q), (lo, hi))| {
                    let base = inputs.oracle[q.qid as usize].count;
                    !(base + lo..=base + hi).contains(got)
                })
                .count() as u64
        }
    }
}

/// The concurrent-write oracle's view of the sessions' logs: every insert,
/// and every query that returned, with its answered count.
fn events(inputs: &Inputs, logs: &[SessionLog]) -> (Vec<InsertEvent>, Vec<QueryEvent>, Vec<u64>) {
    let mut inserts = Vec::new();
    let mut queries = Vec::new();
    let mut answers = Vec::new();
    for log in logs {
        for op in &log.ops {
            if op.insert {
                inserts.push(InsertEvent {
                    sent_ns: op.sent_ns,
                    acked_ns: op.ok.then_some(op.ret_ns),
                    matches: oracle::matching(&inputs.pool, &log.items[op.arg as usize]),
                });
            } else if op.ok {
                queries.push(QueryEvent {
                    sent_ns: op.sent_ns,
                    returned_ns: op.ret_ns,
                    qid: op.arg,
                });
                answers.push(op.agg.count);
            }
        }
    }
    (inserts, queries, answers)
}

/// After the window, once background splits and migrations have finished:
/// on `ingest`, run the pool's low-coverage band once against the grown
/// database and check each answer against the preload oracle plus the
/// acknowledged inserts; on every workload, check that the full-space
/// count holds every acknowledged insert and nothing never sent. Each
/// check counts as one attempted op.
fn verify(
    rep: &mut Report,
    cluster: &Cluster,
    inputs: &Inputs,
    grown_reads: bool,
    logs: &[&SessionLog],
) {
    let settled = workload::wait_for_layout(cluster);
    let acked: Vec<Item> = logs
        .iter()
        .flat_map(|l| {
            l.ops
                .iter()
                .filter(|o| o.insert && o.ok)
                .map(move |o| l.items[o.arg as usize].clone())
        })
        .collect();
    let sent = logs
        .iter()
        .flat_map(|l| &l.ops)
        .filter(|o| o.insert)
        .count() as u64;
    // A failed insert may or may not have landed: only then is a count a
    // range rather than exact.
    let unsure = sent - acked.len() as u64;
    let client = cluster.client();
    let check = |rep: &mut Report, q: &QueryBox, want: &Aggregate, what: &str| {
        rep.attempted += 1;
        match client.query(q) {
            Err(e) => {
                rep.errors += 1;
                eprintln!("perfbench: {what}: {e}");
            }
            Ok((got, _)) => {
                let ok = if unsure == 0 {
                    oracle::agrees(&got, want)
                } else {
                    (want.count..=want.count + unsure).contains(&got.count)
                };
                if !ok {
                    rep.wrong += 1;
                    eprintln!("perfbench: {what}: got {got:?}, want {want:?} (+{unsure} unacked; settled: {settled})");
                }
            }
        }
    };
    if grown_reads {
        let low = &inputs.pool[..workload::POOL_PER_BAND];
        let extra = oracle::brute_force(&acked, low, SESSIONS);
        for (i, q) in low.iter().enumerate() {
            let mut want = inputs.oracle[i];
            want.merge(&extra[i]);
            check(rep, q, &want, "grown-database query");
        }
    }
    let mut total = Aggregate::empty();
    for it in inputs.preload.iter().chain(&acked) {
        total.merge(&Aggregate::of(it.measure));
    }
    check(
        rep,
        &QueryBox::all(&inputs.schema),
        &total,
        "final full-space count",
    );
}

/// Sorted latencies in ms.
fn latencies_ms<'a>(ops: impl Iterator<Item = &'a OpRec>) -> Vec<f64> {
    let mut v: Vec<f64> = ops.map(|o| o.lat_ns() as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn end_to_end(
    rep: &mut Report,
    wl: Workload,
    w: &Phase,
    probe: Option<&Phase>,
    setups: &[f64],
    rss_mb: f64,
) {
    let quiet = w.quiet(false);
    let rates = w.rates(&quiet);
    let note = format!(
        "median of the {} quietest of {} slices (steal {:.3} vs {:.3} overall)",
        rates.len(),
        w.slices,
        w.mean_steal(&quiet),
        w.mean_steal(&vec![true; w.slices])
    );
    rep.put(
        true,
        "ops_per_s",
        median(&rates).unwrap_or(0.0),
        "1/s",
        note,
    );
    // Each percentile comes from the window where the workload sends that
    // op type, otherwise from the probe. Both use their quieter slices.
    for (insert, p50, p99) in [
        (true, "insert_p50_ms", "insert_p99_ms"),
        (false, "query_p50_ms", "query_p99_ms"),
    ] {
        let in_window = match wl {
            Workload::Ingest => insert,
            Workload::Query => !insert,
            Workload::Mixed => true,
        };
        let (phase, src) = match probe {
            Some(p) if !in_window => (p, "probe"),
            _ => (w, "window"),
        };
        let sel = phase.quiet(false);
        let lat = latencies_ms(phase.ops_in(&sel).filter(|o| o.ok && o.insert == insert));
        let note = format!("n={} ({src}, quieter half)", lat.len());
        rep.put(
            true,
            p50,
            percentile(&lat, 0.50).unwrap_or(0.0),
            "ms",
            note.clone(),
        );
        rep.put(true, p99, percentile(&lat, 0.99).unwrap_or(0.0), "ms", note);
    }
    let failed_note = format!(
        "{} errors + {} wrong of {} attempted",
        rep.errors, rep.wrong, rep.attempted
    );
    rep.put(
        false,
        "failed_frac",
        ratio(rep.failed() as f64, rep.attempted as f64),
        "frac",
        failed_note,
    );
    rep.put(
        true,
        "setup_s",
        median(setups).unwrap_or(0.0),
        "s",
        format!("median of {setups:.3?}"),
    );
    rep.put(
        true,
        "peak_rss_mb",
        rss_mb,
        "MB",
        "VmHWM once the preload has settled",
    );
}

/// Peak resident set size of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn per_layer(
    rep: &mut Report,
    cfg: &volap::VolapConfig,
    inputs: &Inputs,
    w: &Phase,
    spans: &[volap_obs::SpanRecord],
    (s0, s1): (&Snapshot, &Snapshot),
    final_shards: &[volap::ShardRecord],
) {
    let led = Ledger::build(spans);
    let traces = led.traces as f64;
    let queries = led.query_traces as f64;
    let per_trace = |layer: Layer| ratio(led.layer_us(layer) as f64, traces);
    let window_ops = w.ops().count() as f64;
    let d = |name: &str| s1.counter(name).saturating_sub(s0.counter(name)) as f64;

    // Client side: mean client_call over the traced slices minus the mean
    // server_route of the traces sampled in them.
    let traced_lat: Vec<f64> = w
        .ops_in(&w.all(true))
        .map(|o| o.lat_ns() as f64 / 1e3)
        .collect();
    let client_call_us = mean(&traced_lat);
    let root_us = ratio(led.root_us as f64, traces);
    let note = format!(
        "{} sampled traces ({} queries), 1-in-{}",
        led.traces, led.query_traces, w.sample_every
    );
    let hop_note = format!("client_call {client_call_us:.1} - server_route {root_us:.1}");
    rep.put(
        true,
        "client.encode_hop_us",
        client_call_us - root_us,
        "us",
        hop_note,
    );
    rep.put(
        true,
        "server.route_us",
        per_trace(Layer::ServerRoute),
        "us",
        note,
    );
    let shards: Vec<f64> = w
        .ops()
        .filter(|o| o.ok && !o.insert)
        .map(|o| f64::from(o.shards))
        .collect();
    rep.put(
        true,
        "server.shards_per_query",
        mean(&shards),
        "count",
        format!("{} queries", shards.len()),
    );
    let expansions = ratio(
        d("volap_server_box_expansions_total"),
        d("volap_server_inserts_total"),
    );
    rep.put(
        true,
        "server.box_expansions_per_insert",
        expansions,
        "ratio",
        "",
    );
    rep.put(
        true,
        "server.route_misses",
        d("volap_server_route_misses_total"),
        "count",
        "",
    );
    rep.put(
        true,
        "net.hop_us",
        per_trace(Layer::NetHop),
        "us",
        "self time, summed over the op's legs",
    );
    rep.put(
        true,
        "net.messages_per_op",
        ratio(d("volap_net_messages_total"), window_ops),
        "count",
        "",
    );
    rep.put(
        true,
        "net.bytes_per_op",
        ratio(d("volap_net_bytes_total"), window_ops),
        "B",
        "",
    );
    rep.put(
        true,
        "net.timeouts",
        d("volap_net_timeouts_total"),
        "count",
        "",
    );
    rep.put(
        true,
        "worker.queue_us",
        per_trace(Layer::WorkerQueue),
        "us",
        "",
    );
    rep.put(
        true,
        "worker.op_us",
        per_trace(Layer::WorkerOp),
        "us",
        "self time",
    );
    let split_s = |s: &Snapshot| {
        s.histogram("volap_worker_split_seconds")
            .map_or(0.0, |h| h.sum_seconds)
    };
    rep.put(
        true,
        "worker.split_s",
        split_s(s1) - split_s(s0),
        "s",
        "background split time in the window",
    );
    rep.put(
        true,
        "tree.exec_us",
        per_trace(Layer::TreeExec),
        "us",
        format!("{} tree_exec spans", led.tree_execs),
    );
    rep.put(
        true,
        "tree.nodes_visited_per_query",
        ratio(led.nodes_visited as f64, queries),
        "count",
        "",
    );
    rep.put(
        true,
        "tree.items_scanned_per_query",
        ratio(led.items_scanned as f64, queries),
        "count",
        "",
    );
    rep.put(
        true,
        "tree.covered_hits_per_query",
        ratio(led.covered_hits as f64, queries),
        "count",
        "",
    );
    rep.put(
        true,
        "tree.rollup_hits_per_query",
        ratio(led.rollup_hits as f64, queries),
        "count",
        "",
    );
    let rows: Vec<f64> = w
        .ops()
        .filter(|o| o.ok && !o.insert)
        .map(|o| o.agg.count as f64)
        .collect();
    let scan_yield = ratio(mean(&rows), ratio(led.items_scanned as f64, queries));
    rep.put(
        true,
        "tree.scan_yield",
        scan_yield,
        "ratio",
        "rows returned per item scanned",
    );
    rep.put(
        true,
        "image.sync_rounds",
        d("volap_server_sync_rounds_total"),
        "count",
        "",
    );
    let merges = d("volap_image_merges_total");
    let cas = ratio(d("volap_image_cas_retries_total"), merges);
    rep.put(
        true,
        "image.cas_retries_per_merge",
        cas,
        "ratio",
        format!("{merges} merges"),
    );
    rep.put(
        true,
        "manager.splits",
        d("volap_manager_splits_total"),
        "count",
        "",
    );
    rep.put(
        true,
        "manager.migrations",
        d("volap_manager_migrations_total"),
        "count",
        "",
    );
    let lock = |class: &str| {
        let get = |s: &Snapshot| {
            s.lock_class(class)
                .map_or((0, 0), |l| (l.acquisitions, l.contended))
        };
        let ((a0, c0), (a1, c1)) = (get(s0), get(s1));
        ratio((c1 - c0) as f64, (a1 - a0) as f64)
    };
    rep.put(
        true,
        "lock.tree_node.contended_frac",
        lock("tree.node"),
        "frac",
        "",
    );
    rep.put(
        true,
        "lock.server_index.contended_frac",
        lock("server.index"),
        "frac",
        "",
    );
    let wait = |s: &Snapshot| s.locks.iter().map(|l| l.wait_sum_seconds).sum::<f64>();
    let wait_us = ratio((wait(s1) - wait(s0)) * 1e6, window_ops);
    rep.put(
        true,
        "lock.wait_us_per_op",
        wait_us,
        "us",
        "all lock classes",
    );
    let covered_us = ratio(led.covered_us as f64, traces);
    let residual = ratio(client_call_us - covered_us, client_call_us);
    rep.put(
        true,
        "ledger.residual_frac",
        residual,
        "frac",
        "client_call time outside every program span",
    );
    let untraced = median(&w.rates(&w.quiet(false))).unwrap_or(0.0);
    let traced = median(&w.rates(&w.quiet(true))).unwrap_or(0.0);
    let overhead_note = format!(
        "traced {traced:.0} vs untraced {untraced:.0} ops/s, quieter halves, at 1-in-{}",
        w.sample_every
    );
    rep.put(
        true,
        "obs.trace_overhead_frac",
        1.0 - ratio(traced, untraced),
        "frac",
        overhead_note,
    );

    // Micro costs on the run's own inputs, after the cluster has stopped.
    let items: Vec<Item> = inputs.session_gen(0).items(10_000);
    let m = micro::measure(cfg, inputs, &items, final_shards);
    let quiet_untraced = w.quiet(false);
    let untraced_ops: Vec<&OpRec> = w.ops_in(&quiet_untraced).filter(|o| o.ok).collect();
    let insert_share = ratio(
        untraced_ops.iter().filter(|o| o.insert).count() as f64,
        untraced_ops.len() as f64,
    );
    rep.put(true, "micro.hilbert_index_ns", m.hilbert_index_ns, "ns", "");
    rep.put(true, "micro.tree_insert_us", m.tree_insert_us, "us", "");
    rep.put(
        true,
        "micro.tree_query_us.low",
        m.tree_query_us[0],
        "us",
        "",
    );
    rep.put(
        true,
        "micro.tree_query_us.medium",
        m.tree_query_us[1],
        "us",
        "",
    );
    rep.put(
        true,
        "micro.tree_query_us.high",
        m.tree_query_us[2],
        "us",
        "",
    );
    rep.put(
        true,
        "micro.route_insert_ns",
        m.route_insert_ns,
        "ns",
        format!("{} shards", final_shards.len()),
    );
    rep.put(true, "micro.route_query_us", m.route_query_us, "us", "");
    let proto_note = format!(
        "insert {:.0} / query {:.0}",
        m.proto_insert_ns, m.proto_query_ns
    );
    rep.put(
        true,
        "micro.proto_roundtrip_ns",
        m.proto_roundtrip_ns(insert_share),
        "ns",
        proto_note,
    );
    rep.put(true, "micro.net_rtt_us", m.net_rtt_us, "us", "");
    let e2e_us = mean(
        &untraced_ops
            .iter()
            .map(|o| o.lat_ns() as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let path_us = insert_share * m.insert_path_us() + (1.0 - insert_share) * m.query_path_us();
    let gap_note = format!("e2e mean {e2e_us:.1} us vs micro path {path_us:.1} us");
    rep.put(
        true,
        "ledger.micro_gap_frac",
        ratio(e2e_us - path_us, e2e_us),
        "frac",
        gap_note,
    );
}
