//! `churn_sim`: the simulator as a program.
//!
//! The `net_contention` churn scenario at a fleet of `HOSTS` hosts on the
//! oversubscribed datacenter fabric with contended control traffic: |Θ| =
//! 200 data × replica 3, fault tolerant; 1% of the hosts die silently at
//! t = 40 s; the datagram path is down for t = 50..61 s. The run goes to a
//! fixed virtual horizon in one-virtual-second `run_until` slices, which
//! keeps the event order identical to a single `run_until` and gives a
//! time per simulated second. Each slice is timed by the CPU time of the
//! simulating thread (the simulator is single-threaded), so a slice does
//! not count time the thread spent waiting for a CPU held by another
//! process. The scenario repeats, set-up included, each repeat in a fresh
//! child process (untraced and traced runs alike), until the measured time
//! is used up; the figures take each slice at its fastest across repeats.
//!
//! Checks: every datum owned at the horizon, no shared link loaded over its
//! capacity at any slice boundary, and `sim.events` / `net.bytes_delivered`
//! identical across the repeats of one seed.
//!
//! Exercises: the event loop (`bitdew_sim::engine`), the flow allocator
//! (`bitdew_sim::net`), the control-plane model (`core::simdriver`) and
//! the scheduler it runs. No threaded layer runs.

use std::time::Instant;

use bitdew_core::simdriver::SimBitdew;
use bitdew_core::{Data, DataAttributes};
use bitdew_sim::{topology, Sim, SimDuration, SimTime, Trace};
use bitdew_util::Auid;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::trace;
use crate::util::{median, quantile, thread_cpu_ns, Deadline, Metrics, Seeded, Tally};
use crate::{Outcome, RunCfg};

const HOSTS: usize = 10_000;
const DATA: usize = 200;
const REPLICA: i64 = 3;
const HORIZON_S: u64 = 100;
const HOSTS_PER_RACK: usize = 40;
const OVERSUB: f64 = 4.0;
/// The datagram outage, in virtual seconds. Its slices carry the fallback
/// TCP sync storm and are the heaviest of the run; at 11 of the 100 they
/// hold the p90 slice and the 10 beyond it. (With a 5 s outage the p90
/// fell on the join storm of t = 1..7 s, whose speed varied 1.75× with the
/// machine's state between runs.)
const OUTAGE_S: (u64, u64) = (50, 61);

/// One repeat of the scenario.
struct Repeat {
    setup_s: f64,
    events: u64,
    bytes: f64,
    /// CPU ms per simulated second.
    slice_ms: Vec<f64>,
    /// ns per event, per slice that executed events.
    ns_per_event: Vec<f64>,
    pending_peak: usize,
    flows: Vec<usize>,
    syncs_served: u64,
    tcp_syncs: u64,
    announce_datagrams: u64,
    fallback_syncs: u64,
    /// Spans recorded (traced runs) and their self time, ms.
    spans: usize,
    span_ms: f64,
}

fn repeat(seed: &Seeded, tally: &mut Tally) -> Repeat {
    let t = Instant::now();
    let topo = topology::gdx_datacenter(HOSTS, HOSTS_PER_RACK, OVERSUB);
    let mut sim = Sim::new(seed.stream("churn.sim").next_u64());
    let bd = SimBitdew::new(
        topo.net.clone(),
        topo.service,
        SimDuration::from_secs(1),
        Trace::new(),
    );
    bd.enable_announce(32, 128);
    bd.set_contended_control(&mut sim, true);
    let mut rng = SmallRng::seed_from_u64(seed.stream("churn.ids").next_u64());
    let data: Vec<Data> = (0..DATA)
        .map(|i| {
            Data::slot(
                Auid::generate(i as u64 + 1, &mut rng),
                format!("churn.{i}"),
                64_000,
            )
        })
        .collect();
    for d in &data {
        bd.schedule_data(
            d.clone(),
            DataAttributes::default()
                .with_replica(REPLICA)
                .with_fault_tolerance(true),
        );
    }
    for (i, &w) in topo.workers.iter().enumerate() {
        bd.add_node(&mut sim, w, SimTime::from_secs((i % 8) as u64));
    }
    let offset = seed.stream("churn.victims").below(100) as usize;
    let victims: Vec<_> = topo
        .workers
        .iter()
        .skip(offset)
        .step_by(100)
        .copied()
        .collect();
    let (bd2, net) = (bd.clone(), topo.net.clone());
    sim.schedule_at(SimTime::from_secs(40), move |sim| {
        for &v in &victims {
            bd2.kill_host(sim, v);
            net.set_host_enabled(sim, v, false);
        }
    });
    let bd3 = bd.clone();
    sim.schedule_at(SimTime::from_secs(OUTAGE_S.0), move |_| {
        bd3.set_udp_up(false)
    });
    let bd4 = bd.clone();
    sim.schedule_at(SimTime::from_secs(OUTAGE_S.1), move |_| {
        bd4.set_udp_up(true)
    });
    let setup_s = t.elapsed().as_secs_f64();

    let mut slice_ms = Vec::with_capacity(HORIZON_S as usize);
    let mut ns_per_event = Vec::with_capacity(HORIZON_S as usize);
    let mut flows = Vec::with_capacity(HORIZON_S as usize);
    let mut pending_peak = 0;
    let shared = topo.net.shared_links();
    for s in 1..=HORIZON_S {
        let before = sim.events_executed();
        let cpu = thread_cpu_ns();
        {
            let _g = trace::span("sim", "run_until", None);
            sim.run_until(SimTime::from_secs(s));
        }
        let ns = thread_cpu_ns().saturating_sub(cpu);
        let events = sim.events_executed() - before;
        slice_ms.push(ns as f64 / 1e6);
        if events > 0 {
            ns_per_event.push(ns as f64 / events as f64);
        }
        pending_peak = pending_peak.max(sim.events_pending());
        flows.push(topo.net.active_flows());
        for &link in &shared {
            let (load, cap) = (topo.net.link_load(link), topo.net.link_capacity(link));
            tally.check(load <= cap * (1.0 + 1e-9), || {
                format!("shared link {link:?} at {load:.0} of {cap:.0} B/s at t = {s} s")
            });
        }
    }

    for d in &data {
        let owners = bd.owners_of(d.id).len();
        tally.check(owners >= 1, || format!("{} unowned at the horizon", d.name));
    }
    let stats = bd.sync_stats();
    let spans = trace::spans();
    Repeat {
        setup_s,
        events: sim.events_executed(),
        bytes: topo.net.bytes_delivered(),
        slice_ms,
        ns_per_event,
        pending_peak,
        flows,
        syncs_served: bd.syncs_served(),
        tcp_syncs: stats.tcp_syncs,
        announce_datagrams: stats.announce_datagrams,
        fallback_syncs: stats.fallback_syncs,
        spans: spans.len(),
        span_ms: trace::layer_self_ms(&spans)
            .get("sim")
            .copied()
            .unwrap_or(0.0),
    }
}

impl Repeat {
    /// One line for a child process to hand its repeat to the parent.
    fn to_line(&self, rss_mb: f64, tally: &Tally) -> String {
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:?}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let flows: Vec<f64> = self.flows.iter().map(|&f| f as f64).collect();
        format!(
            "{CHILD_TAG} setup_s={:?};events={};bytes={:?};slice_ms={};ns_per_event={};\
             pending_peak={};flows={};syncs_served={};tcp_syncs={};announce_datagrams={};\
             fallback_syncs={};spans={};span_ms={:?};rss_mb={rss_mb:?};attempted={};failed={}",
            self.setup_s,
            self.events,
            self.bytes,
            list(&self.slice_ms),
            list(&self.ns_per_event),
            self.pending_peak,
            list(&flows),
            self.syncs_served,
            self.tcp_syncs,
            self.announce_datagrams,
            self.fallback_syncs,
            self.spans,
            self.span_ms,
            tally.attempted,
            tally.failed,
        )
    }

    /// Parse [`Repeat::to_line`]: the repeat, the child's peak RSS (MB) and
    /// its `(attempted, failed)` checks.
    fn from_line(line: &str) -> Option<(Repeat, f64, u64, u64)> {
        let body = line.strip_prefix(CHILD_TAG)?.trim();
        let field = |key: &str| -> Option<&str> {
            body.split(';')
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        };
        let num = |key: &str| -> Option<f64> { field(key)?.parse().ok() };
        let list = |key: &str| -> Option<Vec<f64>> {
            let v = field(key)?;
            if v.is_empty() {
                return Some(Vec::new());
            }
            v.split(',').map(|x| x.parse().ok()).collect()
        };
        let repeat = Repeat {
            setup_s: num("setup_s")?,
            events: field("events")?.parse().ok()?,
            bytes: num("bytes")?,
            slice_ms: list("slice_ms")?,
            ns_per_event: list("ns_per_event")?,
            pending_peak: field("pending_peak")?.parse().ok()?,
            flows: list("flows")?.into_iter().map(|f| f as usize).collect(),
            syncs_served: field("syncs_served")?.parse().ok()?,
            tcp_syncs: field("tcp_syncs")?.parse().ok()?,
            announce_datagrams: field("announce_datagrams")?.parse().ok()?,
            fallback_syncs: field("fallback_syncs")?.parse().ok()?,
            spans: field("spans")?.parse().ok()?,
            span_ms: num("span_ms")?,
        };
        if repeat.slice_ms.len() != HORIZON_S as usize {
            return None;
        }
        let counts = (
            field("attempted")?.parse().ok()?,
            field("failed")?.parse().ok()?,
        );
        Some((repeat, num("rss_mb")?, counts.0, counts.1))
    }
}

const CHILD_TAG: &str = "churn-repeat";

/// Entry point of a child process: one repeat, handed back on stdout. A
/// traced child appends its spans to the run's span log.
pub fn child(cfg: &RunCfg) -> std::process::ExitCode {
    let mut tally = Tally::default();
    trace::set_enabled(cfg.trace_run);
    let r = repeat(&Seeded::new(cfg.seed), &mut tally);
    trace::set_enabled(false);
    if cfg.trace_run {
        if let Err(e) = trace::write_spans(&cfg.span_log, &trace::spans()) {
            eprintln!("perfbench: writing {}: {e}", cfg.span_log.display());
        }
    }
    for note in &tally.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    println!("{}", r.to_line(crate::util::proc_status().0, &tally));
    std::process::ExitCode::SUCCESS
}

/// Run one repeat in a fresh child process, traced when `traced`. Each
/// process gets its own address-space layout and hash keys, so the median
/// over several processes does not inherit one layout's luck.
fn repeat_in_child(
    cfg: &RunCfg,
    traced: bool,
    tally: &mut Tally,
    rss_mb: &mut f64,
) -> Option<Repeat> {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            tally.fail(format!("cannot locate the benchmark executable: {e}"));
            return None;
        }
    };
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            "churn_sim",
            "--child",
            "--seed",
            &cfg.seed.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output();
    let parsed = out.ok().filter(|o| o.status.success()).and_then(|o| {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .rev()
            .find_map(Repeat::from_line)
    });
    match parsed {
        Some((r, rss, attempted, failed)) => {
            *rss_mb = rss_mb.max(rss);
            tally.attempted += attempted;
            tally.failed += failed;
            Some(r)
        }
        None => {
            tally.fail("a churn_sim child process failed");
            None
        }
    }
}

pub fn run(cfg: &RunCfg, seconds: f64, traced: bool) -> Outcome {
    let mut tally = Tally::default();
    let deadline = Deadline::after(seconds);
    let mut reps: Vec<Repeat> = Vec::new();
    let mut rss_mb = 0.0f64;
    // At least two repeats: their event counts and delivered bytes must
    // agree exactly.
    while reps.len() < 2 || !deadline.passed() {
        match repeat_in_child(cfg, traced, &mut tally, &mut rss_mb) {
            Some(r) => reps.push(r),
            None => break,
        }
    }
    if reps.is_empty() {
        return Outcome {
            tally,
            metrics: Metrics::default(),
            layers: Metrics::default(),
            rate: 0.0,
        };
    }
    let first = &reps[0];
    for (i, r) in reps.iter().enumerate().skip(1) {
        tally.check(r.events == first.events && r.bytes == first.bytes, || {
            format!(
                "repeat {i} of one seed diverged: {} events / {} bytes vs {} / {}",
                r.events, r.bytes, first.events, first.bytes
            )
        });
    }
    // Each one-second slice at its fastest across the repeats. Every repeat
    // runs the identical event sequence, so the slices differ only by what
    // else the machine was doing; the minimum is the figure least disturbed
    // by it. Over six seeds on a 2-vCPU VM, events/s ranged ±10% this way
    // and ±22% with the per-slice median.
    let slice_ms: Vec<f64> = (0..HORIZON_S as usize)
        .map(|k| {
            reps.iter()
                .map(|r| r.slice_ms[k])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let horizon_s = slice_ms.iter().sum::<f64>() / 1e3;
    let rate = first.events as f64 / horizon_s;
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.events as f64 / (r.slice_ms.iter().sum::<f64>() / 1e3))
        .collect();
    println!(
        "churn_sim: {} repeats of {} events, {} slices (p90 has {} beyond), events/s per repeat {:.0?}",
        reps.len(),
        first.events,
        slice_ms.len(),
        slice_ms.len() / 10,
        rates
    );
    let mut m = Metrics::default();
    m.set(
        "setup_s",
        median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()).unwrap_or(0.0),
        "s",
    );
    m.set("ops_per_s", rate, "1/s");
    m.set("mb_per_s", first.bytes / horizon_s / 1e6, "MB/s");
    m.set("p50_ms", median(&slice_ms).unwrap_or(0.0), "ms");
    m.set("tail_ms", quantile(&slice_ms, 0.9).unwrap_or(0.0), "ms");
    if !cfg.trace_run {
        m.set("peak_rss_mb", rss_mb, "MB");
    }

    let mut l = Metrics::default();
    let per_slice: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.ns_per_event.iter().copied())
        .collect();
    let flows: Vec<f64> = first.flows.iter().map(|&f| f as f64).collect();
    l.set("sim.events", first.events as f64, "count");
    l.set("sim.ns_per_event", median(&per_slice).unwrap_or(0.0), "ns");
    l.set(
        "sim.events_pending_peak",
        first.pending_peak as f64,
        "count",
    );
    l.set(
        "net.active_flows_mean",
        flows.iter().sum::<f64>() / flows.len().max(1) as f64,
        "flows",
    );
    l.set(
        "net.active_flows_peak",
        first.flows.iter().copied().max().unwrap_or(0) as f64,
        "flows",
    );
    l.set("net.bytes_delivered", first.bytes, "bytes");
    l.set(
        "trace.spans",
        reps.iter().map(|r| r.spans).sum::<usize>() as f64,
        "count",
    );
    l.set(
        "self.sim_ms",
        reps.iter().map(|r| r.span_ms).sum::<f64>(),
        "ms",
    );
    l.set("simdriver.syncs_served", first.syncs_served as f64, "count");
    l.set("simdriver.tcp_syncs", first.tcp_syncs as f64, "count");
    l.set(
        "simdriver.announce_datagrams",
        first.announce_datagrams as f64,
        "count",
    );
    l.set(
        "simdriver.fallback_syncs",
        first.fallback_syncs as f64,
        "count",
    );
    l.set(
        "proc.threads_peak",
        crate::util::proc_status().1 as f64,
        "count",
    );
    Outcome {
        tally,
        metrics: m,
        layers: l,
        rate,
    }
}
