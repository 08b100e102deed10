//! Seeded inputs, order statistics, the process sampler and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// SplitMix64: the one generator every seeded input comes from. Each
/// workload input draws from its own stream (`Seeded::stream`), so adding a
/// draw to one input never shifts another.
#[derive(Clone)]
pub struct Seeded(u64);

impl Seeded {
    pub fn new(seed: u64) -> Seeded {
        Seeded(seed)
    }

    /// An independent stream for the input named `tag`.
    pub fn stream(&self, tag: &str) -> Seeded {
        let mut h = self.0 ^ 0xcbf2_9ce4_8422_2325;
        for b in tag.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        Seeded(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `n` pseudo-random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(n);
        out
    }
}

/// Linear-interpolated quantile of unsorted samples (`q` in `[0, 1]`);
/// `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Events per second as the median over consecutive groups of events,
/// one group per whole second of the window: each group's rate is its
/// event count over the time from the previous group's last event to its
/// own last event. A short stall slows one group, not the figure.
pub fn median_rate(at: &[Instant], start: Instant, end: Instant) -> f64 {
    let mut times: Vec<Instant> = at
        .iter()
        .copied()
        .filter(|t| *t >= start && *t <= end)
        .collect();
    times.sort_unstable();
    let window = (end - start).as_secs_f64();
    let groups = (window.floor() as usize).clamp(1, times.len().max(1));
    let per = times.len() / groups;
    if per == 0 {
        return times.len() as f64 / window.max(1e-9);
    }
    let rates: Vec<f64> = (0..groups)
        .map(|g| {
            let from = if g == 0 { start } else { times[g * per - 1] };
            let to = times[(g + 1) * per - 1];
            per as f64 / (to - from).as_secs_f64().max(1e-9)
        })
        .collect();
    median(&rates).unwrap_or(0.0)
}

/// CPU time the calling thread has used, in ns (`CLOCK_THREAD_CPUTIME_ID`).
/// Unlike the wall clock it stands still while the thread waits for a CPU
/// that another process holds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Elsewhere: the wall clock, since the first call.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Readings of `/proc/self/status`: peak resident set (`VmHWM`, MB) and the
/// current thread count. Zero where the file is unreadable (non-Linux).
pub fn proc_status() -> (f64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0.0, 0);
    };
    let field = |key: &str| -> u64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or(0)
    };
    (field("VmHWM:") as f64 / 1024.0, field("Threads:"))
}

/// Peak thread count, sampled by the generators at their loop boundaries.
#[derive(Default)]
pub struct ThreadPeak(std::sync::atomic::AtomicU64);

impl ThreadPeak {
    pub fn sample(&self) {
        let (_, threads) = proc_status();
        self.0
            .fetch_max(threads, std::sync::atomic::Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Metrics of one run, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// Operation tally behind `attempted`, `failed` and `error_rate`, with the
/// first few failure descriptions kept for the log.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        self.fail_n(1, what);
    }

    /// `n` failed operations sharing one description.
    pub fn fail_n(&mut self, n: u64, what: impl Into<String>) {
        self.attempted += n;
        self.failed += n;
        if self.notes.len() < 16 {
            self.notes.push(what.into());
        }
    }

    pub fn check(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if cond {
            self.ok(1);
        } else {
            self.fail(what());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 16 {
                self.notes.push(n);
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// JSON number with all its digits (`{:?}` round-trips an f64 exactly).
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The result line: the last line the benchmark prints on stdout.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(name),
                num(*v),
                escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// The run header: what produced the figures below it.
pub fn header_line(workload: &str, seed: u64, rev: &str, trace: bool, seconds: f64) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{{\"perfbench\": \"{}\", \"seed\": {seed}, \"rev\": \"{}\", \"cores\": {cores}, \
         \"trace\": {trace}, \"seconds\": {}}}",
        escape(workload),
        escape(rev),
        num(seconds)
    )
}

/// Wall-clock budget of one measured phase.
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(secs: f64) -> Deadline {
        Deadline(Instant::now() + Duration::from_secs_f64(secs.max(0.0)))
    }

    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}
