//! `mutate`: concurrent versioned writers and snapshot readers on one datum.
//!
//! Set-up publishes one large chunked datum. Two generator threads each
//! own a disjoint chunk region and alternate: open a snapshot, commit a
//! small patch inside their region with `commit_update` (retrying on
//! `VersionConflict`), then read a window of both regions through the
//! snapshot with `get_range_at`. Writer 0 runs `gc_versions` every
//! `GC_EVERY` of its commits.
//!
//! Checks: the snapshot opened before a commit still returns the
//! pre-commit bytes of the writer's own window afterwards; the final head
//! equals each writer's model of what it committed; the head advanced
//! exactly once per commit; a second `gc_versions` reclaims nothing.
//!
//! Exercises: the version plane (`core::versions`: copy-on-write
//! pre-images, re-digest, the head CAS, pins, GC), the chunk store as a
//! writer (`core::chunks`), `dc_version` rows in the catalog
//! (`services::catalog`, `bitdew-storage`), the repository store.
//! Bypasses: the scheduler, transfers, the announce plane, the simulator.

use std::sync::Arc;
use std::time::Instant;

use bitdew_core::{BitdewError, BitdewNode, Data};

use crate::plane::{deploy, Catalog, Deployment};
use crate::trace::{self, Counters};
use crate::util::{
    median, median_rate, ms, quantile, Deadline, Metrics, Seeded, Tally, ThreadPeak,
};
use crate::{Outcome, RunCfg};

const CHUNK: u64 = 64 << 10;
const CHUNKS: u64 = 256;
const TOTAL: u64 = CHUNK * CHUNKS;
const WRITERS: u64 = 2;
/// Each writer's region.
const REGION: u64 = TOTAL / WRITERS;
const PATCH: usize = 2 << 10;
/// Bytes read through the snapshot from each region per iteration.
const READ_WINDOW: usize = 64 << 10;
const GC_EVERY: u64 = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Writer {
    commit_ms: Vec<f64>,
    /// When each commit succeeded.
    commit_at: Vec<Instant>,
    retries: u64,
    commits: u64,
    patch_bytes: u64,
    read_bytes: u64,
    read_s: f64,
    open_us: Vec<f64>,
    gc_ms: Vec<f64>,
    gc_bytes: u64,
    /// This writer's model of its region.
    model: Vec<u8>,
    tally: Tally,
}

/// Commit with the documented optimistic retry: on `VersionConflict`
/// re-read the head and resubmit. Returns the retries needed.
fn commit(node: &BitdewNode, data: &Data, writes: &[(u64, Vec<u8>)]) -> Result<u64, BitdewError> {
    let mut base = node.version_head(data.id)?;
    let mut retries = 0;
    loop {
        match node.commit_update(data, base, writes) {
            Ok(_) => return Ok(retries),
            Err(BitdewError::VersionConflict { head, .. }) if retries < 64 => {
                base = head;
                retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

fn writer(
    w: u64,
    node: &BitdewNode,
    data: &Data,
    seed: &Seeded,
    initial: &[u8],
    deadline: &Deadline,
    threads: &ThreadPeak,
) -> Writer {
    let mut rng = seed.stream(&format!("mutate.writer.{w}"));
    let base = w * REGION;
    let other = ((w + 1) % WRITERS) * REGION;
    let mut out = Writer {
        commit_ms: Vec::new(),
        commit_at: Vec::new(),
        retries: 0,
        commits: 0,
        patch_bytes: 0,
        read_bytes: 0,
        read_s: 0.0,
        open_us: Vec::new(),
        gc_ms: Vec::new(),
        gc_bytes: 0,
        model: initial[base as usize..(base + REGION) as usize].to_vec(),
        tally: Tally::default(),
    };
    while !deadline.passed() {
        let at = rng.below(REGION - PATCH as u64);
        let patch = rng.bytes(PATCH);
        // The window of the writer's own region the snapshot check reads:
        // READ_WINDOW bytes that contain the patch.
        let win = at
            .saturating_sub(rng.below((READ_WINDOW - PATCH) as u64))
            .min(REGION - READ_WINDOW as u64);
        let other_at = rng.below(REGION - READ_WINDOW as u64);

        let t = Instant::now();
        let snap = trace::timed("versions", "open_snapshot", Some(data.id.fold64()), || {
            node.open_snapshot(data)
        });
        out.open_us.push(t.elapsed().as_secs_f64() * 1e6);
        let snap = match snap {
            Ok(s) => s,
            Err(e) => {
                out.tally.fail(format!("open_snapshot: {e}"));
                continue;
            }
        };
        let pre = out.model[win as usize..win as usize + READ_WINDOW].to_vec();

        let t = Instant::now();
        let res = trace::timed("versions", "commit_update", Some(data.id.fold64()), || {
            commit(node, data, &[(base + at, patch.clone())])
        });
        match res {
            Ok(retries) => {
                out.commit_ms.push(ms(t.elapsed()));
                out.commit_at.push(Instant::now());
                out.retries += retries;
                out.commits += 1;
                out.patch_bytes += PATCH as u64;
                out.tally.ok(1);
                out.model[at as usize..at as usize + PATCH].copy_from_slice(&patch);
            }
            Err(e) => out.tally.fail(format!("commit_update: {e}")),
        }

        let t = Instant::now();
        let own = trace::timed("versions", "get_range_at", Some(data.id.fold64()), || {
            node.get_range_at(data, &snap, base + win, READ_WINDOW)
        });
        let theirs = trace::timed("versions", "get_range_at", Some(data.id.fold64()), || {
            node.get_range_at(data, &snap, other + other_at, READ_WINDOW)
        });
        out.read_s += t.elapsed().as_secs_f64();
        out.read_bytes += 2 * READ_WINDOW as u64;
        out.tally.check(own.is_ok_and(|b| b == pre), || {
            format!("writer {w}: snapshot read after a commit returned post-commit bytes")
        });
        out.tally
            .check(theirs.is_ok_and(|b| b.len() == READ_WINDOW), || {
                format!("writer {w}: short snapshot read of the other region")
            });
        drop(snap);

        if w == 0 && out.commits.is_multiple_of(GC_EVERY) {
            let t = Instant::now();
            match trace::timed("versions", "gc_versions", Some(data.id.fold64()), || {
                node.gc_versions(data)
            }) {
                Ok(r) => {
                    out.gc_ms.push(ms(t.elapsed()));
                    out.gc_bytes += r.bytes_reclaimed;
                    out.tally.ok(1);
                }
                Err(e) => out.tally.fail(format!("gc_versions: {e}")),
            }
        }
        if out.commits.is_multiple_of(64) {
            threads.sample();
        }
    }
    out
}

struct Setup {
    dep: Deployment,
    data: Data,
    content: Vec<u8>,
    writers: Vec<Arc<BitdewNode>>,
}

fn setup(seed: &Seeded, traced: bool) -> Result<Setup, BitdewError> {
    let dep = deploy(1, &Catalog::InMemory, 0, traced);
    let content = seed.stream("mutate.content").bytes(TOTAL as usize);
    let data = dep.client.create_slot("mutate.blob", TOTAL)?;
    trace::timed("chunks", "put_chunked", Some(data.id.fold64()), || {
        dep.client.put_chunked(&data, &content, CHUNK)
    })?;
    let writers = (0..WRITERS)
        .map(|_| BitdewNode::new_client(Arc::clone(&dep.container)))
        .collect();
    Ok(Setup {
        dep,
        data,
        content,
        writers,
    })
}

pub fn run(cfg: &RunCfg, seconds: f64, traced: bool) -> Outcome {
    let seed = Seeded::new(cfg.seed);
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let s = setup(&seed, traced);
        setups.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    let s = match last.expect("at least one set-up") {
        Ok(s) => s,
        Err(e) => {
            tally.fail(format!("publish: {e}"));
            return Outcome {
                tally,
                metrics: Metrics::default(),
                layers: Metrics::default(),
                rate: 0.0,
            };
        }
    };
    tally.ok(2);

    trace::counters().reset();
    let threads = ThreadPeak::default();
    let deadline = Deadline::after(seconds);
    let started = Instant::now();
    let writers: Vec<Writer> = std::thread::scope(|sc| {
        let handles: Vec<_> = s
            .writers
            .iter()
            .enumerate()
            .map(|(w, node)| {
                let (data, content, seed, deadline, threads) =
                    (&s.data, &s.content, &seed, &deadline, &threads);
                sc.spawn(move || writer(w as u64, node, data, seed, content, deadline, threads))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .collect()
    });
    let ended = Instant::now();
    let window = (ended - started).as_secs_f64();
    threads.sample();
    // The window's counters, before the checks below add their own work.
    let c = trace::counters();
    let (db_ops, repo_written) = (Counters::get(&c.db_ops), Counters::get(&c.write_bytes[0]));
    let mut l = Metrics::default();
    if traced {
        trace::counter_metrics(&mut l);
    }

    // The final head must equal every writer's model of its region.
    let client = &s.dep.client;
    let commits: u64 = writers.iter().map(|w| w.commits).sum();
    match client.version_head(s.data.id) {
        Ok(head) => tally.check(head == 1 + commits, || {
            format!("head {head} after {commits} commits")
        }),
        Err(e) => tally.fail(format!("version_head: {e}")),
    }
    match client.open_snapshot(&s.data) {
        Ok(snap) => {
            for (w, wr) in writers.iter().enumerate() {
                let got = client.get_range_at(&s.data, &snap, w as u64 * REGION, REGION as usize);
                tally.check(got.is_ok_and(|b| b == wr.model), || {
                    format!("final head differs from writer {w}'s model")
                });
            }
        }
        Err(e) => tally.fail(format!("open_snapshot at the head: {e}")),
    }
    // With every snapshot dropped, one sweep drains the pre-images and a
    // second finds nothing.
    let first = client.gc_versions(&s.data);
    let second = client.gc_versions(&s.data);
    tally.check(first.is_ok(), || "final gc_versions failed".into());
    tally.check(
        second.is_ok_and(|r| r.chunks_reclaimed == 0 && r.bytes_reclaimed == 0),
        || "a second gc_versions still reclaimed pre-images".into(),
    );

    let commit_ms: Vec<f64> = writers
        .iter()
        .flat_map(|w| w.commit_ms.iter().copied())
        .collect();
    let read_bytes: u64 = writers.iter().map(|w| w.read_bytes).sum();
    let read_s: f64 = writers.iter().map(|w| w.read_s).sum();
    println!(
        "mutate: {commits} commits in {window:.2} s, {} latency samples (p99 has {} beyond)",
        commit_ms.len(),
        commit_ms.len() / 100
    );
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups).unwrap_or(0.0), "s");
    let commit_at: Vec<Instant> = writers
        .iter()
        .flat_map(|w| w.commit_at.iter().copied())
        .collect();
    let rate = median_rate(&commit_at, started, ended);
    m.set("ops_per_s", rate, "1/s");
    m.set(
        "mb_per_s",
        read_bytes as f64 / read_s.max(1e-9) / 1e6,
        "MB/s",
    );
    m.set("p50_ms", median(&commit_ms).unwrap_or(0.0), "ms");
    m.set("tail_ms", quantile(&commit_ms, 0.99).unwrap_or(0.0), "ms");

    if traced {
        let retries: u64 = writers.iter().map(|w| w.retries).sum();
        let patch: u64 = writers.iter().map(|w| w.patch_bytes).sum();
        let gc_ms: Vec<f64> = writers
            .iter()
            .flat_map(|w| w.gc_ms.iter().copied())
            .collect();
        let open_us: Vec<f64> = writers
            .iter()
            .flat_map(|w| w.open_us.iter().copied())
            .collect();
        l.set(
            "versions.cas_retries_per_commit",
            retries as f64 / commits.max(1) as f64,
            "ratio",
        );
        l.set(
            "versions.write_amp",
            repo_written as f64 / patch.max(1) as f64,
            "ratio",
        );
        l.set("versions.gc_ms", median(&gc_ms).unwrap_or(0.0), "ms");
        l.set(
            "versions.gc_reclaimed_bytes",
            writers.iter().map(|w| w.gc_bytes).sum::<u64>() as f64,
            "bytes",
        );
        l.set(
            "versions.snapshot_open_us",
            median(&open_us).unwrap_or(0.0),
            "us",
        );
        l.set(
            "catalog.ops_per_commit",
            db_ops as f64 / commits.max(1) as f64,
            "ops",
        );
        l.set("proc.threads_peak", threads.get() as f64, "count");
    }
    for w in writers {
        tally.absorb(w.tally);
    }
    Outcome {
        tally,
        metrics: m,
        layers: l,
        rate,
    }
}
