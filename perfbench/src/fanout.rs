//! `fanout`: bulk distribution of a few large blobs to every host.
//!
//! Each iteration a client publishes `BLOBS` blobs with `put_chunked`
//! (256 KiB chunks) and schedules each with `replica = ALL` onto 8
//! `enable_serving` hosts. The driver runs heartbeat rounds on the hosts
//! back to back until every host is a full holder of every blob. The
//! measured window starts at the first `put_chunked` and ends at the last
//! `Copy`. The blobs are then checked byte for byte on every host and
//! deleted (outside the window) before the next iteration.
//!
//! Exercises: fabric frames, FTP range serving, `MultiSourceFetcher`
//! stealing from the repository and from peers, CRC32 chunk verification
//! and store writes (`bitdew-transport`, `core::chunks`). Only tens of
//! data exist, so the scheduler and catalog nearly idle. Bypasses:
//! versions, the simulator.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bitdew_core::{Data, DataAttributes, DataId, REPLICA_ALL};

use crate::plane::{deploy, Catalog, Deployment};
use crate::trace::{self, Counters};
use crate::util::{median, ms, quantile, Deadline, Metrics, Seeded, Tally, ThreadPeak};
use crate::{Outcome, RunCfg};

const HOSTS: usize = 8;
const BLOBS: usize = 4;
const BLOB_BYTES: usize = 2 << 20;
const CHUNK: u64 = 256 << 10;
/// How long one iteration may take to reach every host.
const ITERATION_LIMIT: Duration = Duration::from_secs(30);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// What one iteration measured.
struct Iteration {
    window_s: f64,
    /// Per (host, blob): schedule ack → `Copy`, ms.
    fetch_ms: Vec<f64>,
    publish_s: f64,
    partial_peak: usize,
    started: u64,
    copies: u64,
    rounds: u64,
    full: u64,
}

/// Heartbeat rounds on every host until each holds every blob; returns
/// `(host, blob) → Copy instant` and how many transfers the hosts started,
/// and counts `(rounds, full syncs)` into `rounds`.
fn distribute(
    dep: &Deployment,
    ids: &[DataId],
    threads: &ThreadPeak,
    partial_peak: &mut Option<usize>,
    rounds: &mut (u64, u64),
) -> (HashMap<(usize, DataId), Instant>, u64) {
    let mut copies = HashMap::new();
    let mut started = 0u64;
    let give_up = Instant::now() + ITERATION_LIMIT;
    let mut passes = 0u64;
    while copies.len() < HOSTS * ids.len() && Instant::now() < give_up {
        for (h, host) in dep.hosts.iter().enumerate() {
            let summary = {
                let _g = trace::span("runtime", "heartbeat_round", None);
                host.heartbeat_round()
            };
            rounds.0 += 1;
            let Some(summary) = summary else { continue };
            rounds.1 += 1;
            started += summary.started.len() as u64;
            let now = Instant::now();
            for id in summary.completed {
                if ids.contains(&id) {
                    copies.entry((h, id)).or_insert(now);
                }
            }
        }
        passes += 1;
        if passes.is_multiple_of(8) {
            threads.sample();
            // Sampled in the traced run only (`Some`): it takes shard locks.
            if let Some(peak) = partial_peak {
                let sched = dep.container.plane.scheduler();
                let partial: usize = ids.iter().map(|&id| sched.partial_holders(id).len()).sum();
                *peak = (*peak).max(partial);
            }
        }
        // Transfers run on their own threads; yield between passes so a
        // pass with nothing to reap does not starve them of a core.
        std::thread::yield_now();
    }
    (copies, started)
}

/// Publish, schedule and distribute one set of blobs, then check and
/// delete them.
fn iteration(
    dep: &Deployment,
    seed: &Seeded,
    it: u64,
    tally: &mut Tally,
    threads: &ThreadPeak,
    traced: bool,
) -> Option<Iteration> {
    let blobs: Vec<Vec<u8>> = (0..BLOBS)
        .map(|b| {
            seed.stream(&format!("fanout.blob.{it}.{b}"))
                .bytes(BLOB_BYTES)
        })
        .collect();
    let client = &dep.client;
    let start = Instant::now();
    let mut data: Vec<(Data, Instant)> = Vec::with_capacity(BLOBS);
    for (b, bytes) in blobs.iter().enumerate() {
        let name = format!("fanout.{it}.{b}");
        let published = client
            .create_slot(&name, bytes.len() as u64)
            .and_then(|d| {
                trace::timed("chunks", "put_chunked", Some(d.id.fold64()), || {
                    client.put_chunked(&d, bytes, CHUNK)
                })
                .map(|_| d)
            })
            .and_then(|d| {
                trace::timed("api", "schedule", Some(d.id.fold64()), || {
                    client.schedule(&d, DataAttributes::default().with_replica(REPLICA_ALL))
                })
                .map(|_| d)
            });
        match published {
            Ok(d) => {
                tally.ok(3);
                data.push((d, Instant::now()));
            }
            Err(e) => {
                tally.fail(format!("publish {name}: {e}"));
                return None;
            }
        }
    }
    let publish_s = start.elapsed().as_secs_f64();
    let ids: Vec<DataId> = data.iter().map(|(d, _)| d.id).collect();
    let mut partial_peak = traced.then_some(0);
    let mut rounds = (0, 0);
    let (copies, started) = distribute(dep, &ids, threads, &mut partial_peak, &mut rounds);
    let end = copies.values().max().copied().unwrap_or_else(Instant::now);
    let mut fetch_ms = Vec::with_capacity(copies.len());
    for (h, host) in dep.hosts.iter().enumerate() {
        for ((d, acked), bytes) in data.iter().zip(&blobs) {
            match copies.get(&(h, d.id)) {
                Some(at) => {
                    fetch_ms.push(ms(at.saturating_duration_since(*acked)));
                    let ok = host.read_local(d).is_ok_and(|got| got == *bytes);
                    tally.check(ok, || format!("host {h} holds wrong bytes of {}", d.name));
                }
                None => tally.fail(format!("host {h} never completed {}", d.name)),
            }
        }
    }
    for (d, _) in &data {
        match client.delete(d) {
            Ok(()) => tally.ok(1),
            Err(e) => tally.fail(format!("delete {}: {e}", d.name)),
        }
    }
    // Let every host drop its copies before the next iteration.
    let give_up = Instant::now() + ITERATION_LIMIT;
    while dep
        .hosts
        .iter()
        .any(|h| ids.iter().any(|&id| h.has_cached(id)))
        && Instant::now() < give_up
    {
        for host in &dep.hosts {
            host.heartbeat_round();
        }
    }
    Some(Iteration {
        window_s: (end - start).as_secs_f64(),
        fetch_ms,
        publish_s,
        partial_peak: partial_peak.unwrap_or(0),
        started,
        copies: copies.len() as u64,
        rounds: rounds.0,
        full: rounds.1,
    })
}

fn setup(seed: &Seeded, traced: bool, tally: &mut Tally) -> Deployment {
    let dep = deploy(1, &Catalog::InMemory, HOSTS, traced);
    for host in &dep.hosts {
        host.enable_serving();
    }
    // One warm-up distribution: serving threads and first connections are
    // paid here, not in the first measured iteration.
    let threads = ThreadPeak::default();
    iteration(
        &dep,
        &seed.stream("fanout.warmup"),
        0,
        tally,
        &threads,
        traced,
    );
    dep
}

pub fn run(cfg: &RunCfg, seconds: f64, traced: bool) -> Outcome {
    let seed = Seeded::new(cfg.seed);
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut dep = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let d = setup(&seed, traced, &mut tally);
        setups.push(t.elapsed().as_secs_f64());
        dep = Some(d);
    }
    let dep = dep.expect("at least one set-up");

    trace::counters().reset();
    let window_from = trace::now_ns();
    let threads = ThreadPeak::default();
    let deadline = Deadline::after(seconds);
    let mut iters = Vec::new();
    let mut it = 1;
    while !deadline.passed() || iters.len() < 3 {
        match iteration(&dep, &seed, it, &mut tally, &threads, traced) {
            Some(i) => iters.push(i),
            None => break,
        }
        it += 1;
    }
    threads.sample();

    let useful = (HOSTS * BLOBS * BLOB_BYTES) as f64;
    let mb_per_s: Vec<f64> = iters.iter().map(|i| useful / i.window_s / 1e6).collect();
    let copies_per_s: Vec<f64> = iters.iter().map(|i| i.copies as f64 / i.window_s).collect();
    let fetch_ms: Vec<f64> = iters
        .iter()
        .flat_map(|i| i.fetch_ms.iter().copied())
        .collect();
    println!(
        "fanout: {} iterations, {} fetch samples (p90 has {} beyond)",
        iters.len(),
        fetch_ms.len(),
        fetch_ms.len() / 10
    );

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups).unwrap_or(0.0), "s");
    m.set("ops_per_s", median(&copies_per_s).unwrap_or(0.0), "1/s");
    m.set("mb_per_s", median(&mb_per_s).unwrap_or(0.0), "MB/s");
    m.set("p50_ms", median(&fetch_ms).unwrap_or(0.0), "ms");
    m.set("tail_ms", quantile(&fetch_ms, 0.9).unwrap_or(0.0), "ms");

    let mut l = Metrics::default();
    if traced {
        trace::counter_metrics(&mut l);
        let c = trace::counters();
        let read = |r: usize| Counters::get(&c.read_bytes[r]) as f64;
        let total_window: f64 = iters.iter().map(|i| i.window_s).sum();
        let copies: u64 = iters.iter().map(|i| i.copies).sum();
        let started: u64 = iters.iter().map(|i| i.started).sum();
        l.set(
            "store.write_bytes_per_useful_byte",
            Counters::get(&c.write_bytes[1]) as f64 / (copies.max(1) as usize * BLOB_BYTES) as f64,
            "ratio",
        );
        l.set(
            "store.peer_read_share",
            read(1) / (read(0) + read(1)).max(1.0),
            "ratio",
        );
        l.set(
            "xfer.transfers_per_replica",
            started as f64 / copies.max(1) as f64,
            "ratio",
        );
        l.set("proc.threads_peak", threads.get() as f64, "count");
        let publish: f64 = iters.iter().map(|i| i.publish_s).sum();
        l.set(
            "chunks.publish_mb_per_s",
            (iters.len() * BLOBS * BLOB_BYTES) as f64 / publish.max(1e-9) / 1e6,
            "MB/s",
        );
        l.set(
            "chunks.fetch_mb_per_s_per_host",
            useful * iters.len() as f64 / total_window.max(1e-9) / 1e6 / HOSTS as f64,
            "MB/s",
        );
        l.set(
            "chunks.partial_holders_peak",
            iters.iter().map(|i| i.partial_peak).max().unwrap_or(0) as f64,
            "count",
        );
        let spans = trace::spans();
        let self_ms = trace::self_ms_of(&spans, "heartbeat_round", window_from);
        let rounds: u64 = iters.iter().map(|i| i.rounds).sum();
        l.set("sync.rounds", rounds as f64, "count");
        l.set(
            "sync.full_share",
            iters.iter().map(|i| i.full).sum::<u64>() as f64 / rounds.max(1) as f64,
            "ratio",
        );
        l.set(
            "sync.self_ms",
            self_ms.iter().sum::<f64>() / self_ms.len().max(1) as f64,
            "ms",
        );
        l.set(
            "catalog.ops_per_datum",
            Counters::get(&c.db_ops) as f64 / (iters.len() * BLOBS).max(1) as f64,
            "ops",
        );
    }
    let rate = median(&mb_per_s).unwrap_or(0.0);
    Outcome {
        tally,
        metrics: m,
        layers: l,
        rate,
    }
}
