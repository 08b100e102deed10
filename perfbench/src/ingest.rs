//! `ingest`: the per-datum metadata path under a closed loop.
//!
//! One client `Session` keeps a window of small data in flight: create,
//! put, then schedule with `replica = 2`. The plane has 4 shards on a
//! durable catalog (`DewDb::open`, `SyncPolicy::EveryAppend`, a fresh
//! directory per set-up). One driver thread runs `heartbeat_round` on 16
//! reservoir nodes back to back and the generator admits a new datum
//! whenever one is held by R distinct hosts. Set-up pre-populates |Θ| to
//! its working size; from then on the oldest fully replicated datum is
//! deleted per new one, so |Θ| holds.
//!
//! Exercises: session batching and the executor pool (`core::api`), the
//! sync shell (`core::runtime`), Algorithm 1 on every shard
//! (`core::shard`, `services::scheduler`), the catalog and its WAL
//! (`services::catalog`, `bitdew-storage`), per-transfer set-up on the
//! fabric and FTP (`bitdew-transport`), the announce plane. Bypasses:
//! chunks, versions, the simulator.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bitdew_core::api::{ExecutorPool, OpFuture, Session};
use bitdew_core::{BitdewNode, Data, DataAttributes, DataId};

use crate::plane::{deploy, wal_bytes, Catalog, Deployment};
use crate::trace::{self, Counters};
use crate::util::{
    median, median_rate, ms, quantile, Deadline, Metrics, Seeded, Tally, ThreadPeak,
};
use crate::{Outcome, RunCfg};

const SHARDS: usize = 4;
const HOSTS: usize = 16; // at most 32: `Rec::holders` is a bit set
const REPLICA: u32 = 2;
const PAYLOAD: usize = 1024;
/// Data in flight (submitted, not yet at R copies).
const WINDOW: usize = 32;
/// |Θ| once set-up has pre-populated it.
const WORKING_SET: usize = 2048;
/// Every `SAMPLE`-th datum has its bytes read back on a holder.
const SAMPLE: u64 = 8;
/// How long in-flight data may take to reach R copies after the window.
const DRAIN: Duration = Duration::from_secs(20);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn payload(seed: &Seeded, n: u64) -> Vec<u8> {
    seed.stream(&format!("ingest.payload.{n}")).bytes(PAYLOAD)
}

fn attrs() -> DataAttributes {
    DataAttributes::default().with_replica(REPLICA as i64)
}

struct Rec {
    n: u64,
    data: Data,
    submit: Instant,
    ack: Option<Instant>,
    ack_pass: u64,
    /// Distinct hosts (bit per host index) that reported a completed copy.
    holders: u32,
    replicated: Option<(Instant, u64)>,
}

#[derive(Default)]
struct Shared {
    recs: HashMap<DataId, Rec>,
    /// Fully replicated data, oldest first — the deletion order.
    replicated: VecDeque<Data>,
    /// `(ack, R-th copy instant, driver passes in between)` per datum.
    latencies: Vec<(Instant, Instant, u64)>,
    /// Submit to put and schedule both resolved, ms.
    acks: Vec<f64>,
    pass: u64,
    tally: Tally,
}

impl Shared {
    fn in_flight(&self) -> usize {
        self.recs.len()
    }

    /// Retire a record once it is both acknowledged and replicated.
    fn settle(&mut self, id: DataId) {
        let done =
            matches!(self.recs.get(&id), Some(r) if r.ack.is_some() && r.replicated.is_some());
        if done {
            let r = self.recs.remove(&id).expect("checked");
            let (at, pass) = r.replicated.expect("checked");
            let ack = r.ack.expect("checked");
            self.latencies
                .push((ack, at, pass.saturating_sub(r.ack_pass)));
            self.replicated.push_back(r.data);
        }
    }
}

/// Driver-side statistics of the sync shell.
#[derive(Default)]
struct DriverStats {
    rounds: u64,
    full: u64,
    idle: u64,
    items: u64,
    started: u64,
    copies: u64,
}

struct Run<'a> {
    seed: &'a Seeded,
    dep: Deployment,
    session: Session<Arc<BitdewNode>>,
    shared: Mutex<Shared>,
    cv: Condvar,
    stop: AtomicBool,
    threads: ThreadPeak,
    next: std::sync::atomic::AtomicU64,
}

/// One driver pass: a heartbeat round on every host, back to back.
fn driver_pass(run: &Run, stats: &mut DriverStats) {
    let pass = run.shared.lock().expect("ingest state").pass;
    for (hi, host) in run.dep.hosts.iter().enumerate() {
        let summary = {
            let _g = trace::span("runtime", "heartbeat_round", None);
            host.heartbeat_round()
        };
        stats.rounds += 1;
        let Some(summary) = summary else { continue };
        stats.full += 1;
        let profile = host.last_sync_profile();
        stats.items += profile.per_shard.iter().sum::<usize>() as u64;
        stats.started += summary.started.len() as u64;
        if summary.started.is_empty() && summary.completed.is_empty() && summary.deleted.is_empty()
        {
            stats.idle += 1;
        }
        if summary.completed.is_empty() {
            continue;
        }
        stats.copies += summary.completed.len() as u64;
        let now = Instant::now();
        let mut verify = Vec::new();
        {
            let mut sh = run.shared.lock().expect("ingest state");
            for id in &summary.completed {
                let Some(rec) = sh.recs.get_mut(id) else {
                    continue;
                };
                rec.holders |= 1 << hi;
                if rec.n % SAMPLE == 0 {
                    verify.push((rec.data.clone(), rec.n));
                }
                if rec.replicated.is_none() && rec.holders.count_ones() >= REPLICA {
                    rec.replicated = Some((now, pass));
                    sh.settle(*id);
                }
            }
        }
        run.cv.notify_all();
        for (data, n) in verify {
            let ok = host
                .read_local(&data)
                .is_ok_and(|b| b == payload(run.seed, n));
            let mut sh = run.shared.lock().expect("ingest state");
            sh.tally
                .check(ok, || format!("read_local bytes of datum {n} differ"));
        }
    }
    run.shared.lock().expect("ingest state").pass += 1;
}

fn drive(run: &Run) -> DriverStats {
    let mut stats = DriverStats::default();
    let mut passes = 0u64;
    while !run.stop.load(Ordering::Relaxed) {
        driver_pass(run, &mut stats);
        passes += 1;
        if passes.is_multiple_of(16) {
            run.threads.sample();
        }
    }
    stats
}

/// Create, put and schedule `k` new data through the session, recording
/// each datum's submit-call time (µs) in `submit_us`.
fn submit(run: &Run, k: usize, submit_us: &mut Vec<f64>) {
    let start = run.next.fetch_add(k as u64, Ordering::Relaxed);
    let submitted = Instant::now();
    let items: Vec<(String, Vec<u8>)> = (start..start + k as u64)
        .map(|n| (format!("ingest.{n}"), payload(run.seed, n)))
        .collect();
    let refs: Vec<(&str, &[u8])> = items
        .iter()
        .map(|(n, p)| (n.as_str(), p.as_slice()))
        .collect();
    let created = trace::timed("api", "create_many", None, || {
        run.dep.client.create_many(&refs)
    });
    let data = match created {
        Ok(d) => d,
        Err(e) => {
            run.shared
                .lock()
                .expect("ingest state")
                .tally
                .fail(format!("create_many: {e}"));
            return;
        }
    };
    {
        let mut sh = run.shared.lock().expect("ingest state");
        sh.tally.ok(k as u64);
        for (i, d) in data.iter().enumerate() {
            sh.recs.insert(
                d.id,
                Rec {
                    n: start + i as u64,
                    data: d.clone(),
                    submit: submitted,
                    ack: None,
                    ack_pass: 0,
                    holders: 0,
                    replicated: None,
                },
            );
        }
    }
    let mut futures: Vec<(DataId, OpFuture<()>, OpFuture<()>)> = Vec::with_capacity(k);
    for (d, (_, bytes)) in data.iter().zip(&items) {
        let t = Instant::now();
        let put = trace::timed("api", "submit", Some(d.id.fold64()), || {
            run.session.put(d, bytes)
        });
        let sched = run.session.schedule(d, attrs());
        submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        futures.push((d.id, put, sched));
    }
    for (id, put, sched) in futures {
        let res = {
            let _g = trace::span("api", "wait_ack", Some(id.fold64()));
            put.wait().and_then(|_| sched.wait())
        };
        let now = Instant::now();
        let mut sh = run.shared.lock().expect("ingest state");
        match res {
            Ok(()) => {
                sh.tally.ok(2);
                let pass = sh.pass;
                let waited = sh.recs.get_mut(&id).map(|rec| {
                    rec.ack = Some(now);
                    rec.ack_pass = pass;
                    ms(now - rec.submit)
                });
                sh.acks.extend(waited);
                sh.settle(id);
            }
            Err(e) => {
                sh.tally.fail(format!("put/schedule: {e}"));
                sh.recs.remove(&id);
            }
        }
    }
}

/// Delete the oldest replicated data until |Θ| is back at its working size.
fn retire(run: &Run, live: &mut usize) {
    let mut victims = Vec::new();
    {
        let mut sh = run.shared.lock().expect("ingest state");
        while *live > WORKING_SET {
            let Some(d) = sh.replicated.pop_front() else {
                break;
            };
            victims.push(d);
            *live -= 1;
        }
    }
    let futures: Vec<OpFuture<()>> = victims
        .iter()
        .map(|d| {
            trace::timed("api", "submit", Some(d.id.fold64()), || {
                run.session.delete(d)
            })
        })
        .collect();
    for (f, d) in futures.into_iter().zip(&victims) {
        let res = f.wait();
        let mut sh = run.shared.lock().expect("ingest state");
        match res {
            Ok(()) => sh.tally.ok(1),
            Err(e) => sh.tally.fail(format!("delete {}: {e}", d.name)),
        }
    }
}

/// Build the deployment and pre-populate |Θ| to its working size.
fn setup<'a>(seed: &'a Seeded, dir: &Path, traced: bool) -> Run<'a> {
    let _ = std::fs::remove_dir_all(dir);
    let dep = deploy(SHARDS, &Catalog::Durable(dir.to_path_buf()), HOSTS, traced);
    let session = dep.client.session().expect("client session");
    let run = Run {
        seed,
        dep,
        session,
        shared: Mutex::new(Shared::default()),
        cv: Condvar::new(),
        stop: AtomicBool::new(false),
        threads: ThreadPeak::default(),
        next: std::sync::atomic::AtomicU64::new(0),
    };
    let mut sink = Vec::new();
    for _ in 0..WORKING_SET / WINDOW {
        submit(&run, WINDOW, &mut sink);
    }
    let mut stats = DriverStats::default();
    let give_up = Instant::now() + Duration::from_secs(60);
    while run.shared.lock().expect("ingest state").in_flight() > 0 && Instant::now() < give_up {
        driver_pass(&run, &mut stats);
    }
    let mut sh = run.shared.lock().expect("ingest state");
    let n = sh.in_flight();
    if n > 0 {
        let what = format!("{n} pre-populated data never reached {REPLICA} copies");
        sh.tally.fail_n(n as u64, what);
    }
    sh.latencies.clear();
    sh.acks.clear();
    drop(sh);
    run
}

pub fn run(cfg: &RunCfg, seconds: f64, traced: bool) -> Outcome {
    let seed = Seeded::new(cfg.seed);
    let mut setups = Vec::new();
    let mut run = None;
    for rep in 0..SETUPS {
        let dir = cfg.work.join(format!("ingest-catalog-{rep}"));
        let t = Instant::now();
        let r = setup(&seed, &dir, traced);
        setups.push(t.elapsed().as_secs_f64());
        if rep + 1 == SETUPS {
            run = Some((r, dir));
        } else {
            drop(r);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (run, dir) = run.expect("at least one set-up");

    let pool = ExecutorPool::shared().expect("executor pool");
    let steals0 = pool.steals();
    let ops0 = run.session.ops_submitted();
    let batches0 = run.session.batches_flushed();
    let announce0 = run
        .dep
        .container
        .announce_stats()
        .map_or(0, |s| s.announces_rx());
    let fallback0: u64 = run.dep.hosts.iter().map(|h| h.fallback_syncs()).sum();
    let wal0 = wal_bytes(&dir);
    trace::counters().reset();
    let next0 = run.next.load(Ordering::Relaxed);
    let spans_from = trace::now_ns();

    let mut submit_us = Vec::new();
    let started = Instant::now();
    let (stats, window_end) = std::thread::scope(|s| {
        let driver = s.spawn(|| drive(&run));
        let deadline = Deadline::after(seconds);
        let mut live = WORKING_SET;
        while !deadline.passed() {
            let k = {
                let mut sh = run.shared.lock().expect("ingest state");
                while sh.in_flight() >= WINDOW && !deadline.passed() {
                    sh = run
                        .cv
                        .wait_timeout(sh, Duration::from_millis(20))
                        .expect("ingest state")
                        .0;
                }
                WINDOW.saturating_sub(sh.in_flight())
            };
            if k == 0 || deadline.passed() {
                break;
            }
            retire(&run, &mut live);
            submit(&run, k, &mut submit_us);
            live += k;
        }
        let window_end = Instant::now();
        let give_up = Instant::now() + DRAIN;
        while run.shared.lock().expect("ingest state").in_flight() > 0 && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(5));
        }
        run.stop.store(true, Ordering::Relaxed);
        (driver.join().expect("driver thread"), window_end)
    });
    let window = (window_end - started).as_secs_f64();
    run.threads.sample();

    let mut sh = run.shared.lock().expect("ingest state");
    let stuck = sh.in_flight();
    if stuck > 0 {
        sh.tally.fail_n(
            stuck as u64,
            format!("{stuck} acknowledged data never reached {REPLICA} copies"),
        );
    }
    let in_window: Vec<&(Instant, Instant, u64)> = sh
        .latencies
        .iter()
        .filter(|(_, at, _)| *at <= window_end)
        .collect();
    let replicate_ms: Vec<f64> = in_window
        .iter()
        .map(|(ack, at, _)| ms(at.saturating_duration_since(*ack)))
        .collect();
    let done_at: Vec<Instant> = in_window.iter().map(|(_, at, _)| *at).collect();
    let rate = median_rate(&done_at, started, window_end);

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups).unwrap_or(0.0), "s");
    m.set("ops_per_s", rate, "1/s");
    m.set(
        "mb_per_s",
        rate * (REPLICA as usize * PAYLOAD) as f64 / 1e6,
        "MB/s",
    );
    m.set("p50_ms", median(&replicate_ms).unwrap_or(0.0), "ms");
    m.set(
        "tail_ms",
        quantile(&replicate_ms, 0.99).unwrap_or(0.0),
        "ms",
    );
    println!(
        "ingest: {} data replicated in {window:.2} s, {} latency samples (p99 has {} beyond)",
        in_window.len(),
        replicate_ms.len(),
        replicate_ms.len() / 100
    );

    let mut l = Metrics::default();
    if traced {
        trace::counter_metrics(&mut l);
        let spans = trace::spans();
        let submitted = run.next.load(Ordering::Relaxed) - next0;
        let c = trace::counters();
        let batches = run.session.batches_flushed() - batches0;
        l.set(
            "api.ops_per_batch",
            (run.session.ops_submitted() - ops0) as f64 / batches.max(1) as f64,
            "ops",
        );
        l.set("api.submit_us", median(&submit_us).unwrap_or(0.0), "us");
        l.set("api.pool_steals", (pool.steals() - steals0) as f64, "count");
        l.set(
            "bus.deferred_events",
            run.dep
                .hosts
                .iter()
                .map(|h| h.event_bus().deferred_events())
                .sum::<u64>() as f64,
            "count",
        );
        l.set("sync.rounds", stats.rounds as f64, "count");
        l.set(
            "sync.full_share",
            stats.full as f64 / stats.rounds.max(1) as f64,
            "ratio",
        );
        let self_ms = trace::self_ms_of(&spans, "heartbeat_round", spans_from);
        l.set(
            "sync.self_ms",
            self_ms.iter().sum::<f64>() / self_ms.len().max(1) as f64,
            "ms",
        );
        let passes: Vec<f64> = in_window.iter().map(|(_, _, p)| *p as f64).collect();
        l.set(
            "sync.rounds_to_replicate",
            median(&passes).unwrap_or(0.0),
            "rounds",
        );
        l.set(
            "sched.items_examined_per_sync",
            stats.items as f64 / stats.full.max(1) as f64,
            "items",
        );
        l.set(
            "sched.assigned_per_sync",
            stats.started as f64 / stats.full.max(1) as f64,
            "data",
        );
        l.set(
            "sched.idle_sync_ratio",
            stats.idle as f64 / stats.full.max(1) as f64,
            "ratio",
        );
        let db_ops = Counters::get(&c.db_ops);
        l.set(
            "catalog.ops_per_datum",
            db_ops as f64 / submitted.max(1) as f64,
            "ops",
        );
        l.set(
            "catalog.wal_bytes_per_op",
            (wal_bytes(&dir) - wal0) as f64 / db_ops.max(1) as f64,
            "bytes",
        );
        let read = |r: usize| Counters::get(&c.read_bytes[r]) as f64;
        l.set(
            "store.write_bytes_per_useful_byte",
            c.write_bytes_total() as f64 / (stats.copies.max(1) as usize * PAYLOAD) as f64,
            "ratio",
        );
        l.set(
            "store.peer_read_share",
            read(1) / (read(0) + read(1)).max(1.0),
            "ratio",
        );
        l.set(
            "xfer.transfers_per_replica",
            stats.started as f64 / stats.copies.max(1) as f64,
            "ratio",
        );
        l.set(
            "announce.rx_per_round",
            (run.dep
                .container
                .announce_stats()
                .map_or(0, |s| s.announces_rx())
                - announce0) as f64
                / stats.rounds.max(1) as f64,
            "datagrams",
        );
        l.set(
            "announce.fallback_syncs",
            (run.dep
                .hosts
                .iter()
                .map(|h| h.fallback_syncs())
                .sum::<u64>()
                - fallback0) as f64,
            "count",
        );
        l.set("api.ack_p50_ms", median(&sh.acks).unwrap_or(0.0), "ms");
        l.set("proc.threads_peak", run.threads.get() as f64, "count");
    }
    let tally = std::mem::take(&mut sh.tally);
    drop(sh);
    drop(run);
    let _ = std::fs::remove_dir_all(&dir);
    Outcome {
        tally,
        metrics: m,
        layers: l,
        rate,
    }
}
