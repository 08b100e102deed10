//! Outside-in tracer for the traced run.
//!
//! Nothing here reaches inside the program. Spans are opened by the
//! benchmark around each call it makes into a layer, and by two timing
//! decorators on the pluggable public traits:
//!
//! * [`TimedDriver`] / `TimedConn` wrap `bitdew_storage::DbDriver` /
//!   `DbConnection`, injected through `ServiceContainer::start_with_db`:
//!   every catalog operation, batch and connection (layer `catalog`).
//! * [`TimedStore`] wraps `bitdew_transport::FileStore`, injected as the
//!   repository store of `start_with_db` and through
//!   `BitdewNode::with_store`: every read and write of content bytes
//!   (layer `store`), split by whose store it is.
//!
//! A span records its name, layer, start, end, thread, parent (the span
//! open on the same thread when it began) and datum. Spans stay in memory
//! and are written as JSON lines when the run ends. A layer's self time is
//! the total of its spans' durations minus the parts their child spans
//! cover. The decorators are installed only in the traced run, so the
//! untraced end-to-end figures come from the plain program.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use bitdew_storage::{DbConnection, DbDriver, DbOp, DbReply, DbResult};
use bitdew_transport::{FileStore, StoreError};
use bitdew_util::md5::Md5Digest;
use bytes::Bytes;

use crate::util::Metrics;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u32,
    pub parent: Option<usize>,
    pub datum: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Whose content store a [`TimedStore`] wraps.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum StoreRole {
    /// The Data Repository's store (service side).
    Repository = 0,
    /// A volatile host's local store.
    Host = 1,
}

/// Counters the decorators keep at the layer boundaries.
#[derive(Default)]
pub struct Counters {
    pub db_ops: AtomicU64,
    pub db_batches: AtomicU64,
    pub db_ns: AtomicU64,
    /// Indexed by [`StoreRole`].
    pub read_bytes: [AtomicU64; 2],
    pub read_ns: [AtomicU64; 2],
    pub write_bytes: [AtomicU64; 2],
    pub write_ns: [AtomicU64; 2],
}

/// The decorators' counters as per-layer metrics: catalog operations,
/// batches and busy time, and store read and write time.
pub fn counter_metrics(l: &mut Metrics) {
    let c = counters();
    let get = Counters::get;
    l.set("catalog.ops", get(&c.db_ops) as f64, "count");
    l.set("catalog.batches", get(&c.db_batches) as f64, "count");
    l.set("catalog.busy_ms", get(&c.db_ns) as f64 / 1e6, "ms");
    let read_ns = get(&c.read_ns[0]) + get(&c.read_ns[1]);
    let write_ns = get(&c.write_ns[0]) + get(&c.write_ns[1]);
    l.set("store.read_ms", read_ns as f64 / 1e6, "ms");
    l.set("store.write_ms", write_ns as f64 / 1e6, "ms");
}

impl Counters {
    /// Zero every counter (at the start of a measured window).
    pub fn reset(&self) {
        for c in [&self.db_ops, &self.db_batches, &self.db_ns] {
            c.store(0, Ordering::Relaxed);
        }
        for role in 0..2 {
            self.read_bytes[role].store(0, Ordering::Relaxed);
            self.read_ns[role].store(0, Ordering::Relaxed);
            self.write_bytes[role].store(0, Ordering::Relaxed);
            self.write_ns[role].store(0, Ordering::Relaxed);
        }
    }

    pub fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    pub fn write_bytes_total(&self) -> u64 {
        Self::get(&self.write_bytes[0]) + Self::get(&self.write_bytes[1])
    }
}

struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Counters,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        counters: Counters::default(),
    })
}

thread_local! {
    static THREAD: Cell<u32> = const { Cell::new(0) };
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Start (or stop) recording spans. Starting clears earlier spans and
/// counters, so one process can run an untraced and a traced phase.
pub fn set_enabled(on: bool) {
    let t = tracer();
    if on {
        t.spans.lock().expect("span log poisoned").clear();
        t.counters.reset();
    }
    t.on.store(on, Ordering::SeqCst);
}

pub fn counters() -> &'static Counters {
    &tracer().counters
}

/// Nanoseconds on the span clock.
pub fn now_ns() -> u64 {
    tracer().epoch.elapsed().as_nanos() as u64
}

/// Closes its span when dropped; inert while tracing is off.
pub struct SpanGuard(Option<usize>);

/// Open a span around one call into `layer`.
pub fn span(layer: &'static str, name: &'static str, datum: Option<u64>) -> SpanGuard {
    let t = tracer();
    if !t.on.load(Ordering::Relaxed) {
        return SpanGuard(None);
    }
    let thread = thread_id();
    let parent = STACK.with(|s| s.borrow().last().copied());
    let idx = {
        let mut spans = t.spans.lock().expect("span log poisoned");
        spans.push(Span {
            layer,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            thread,
            parent,
            datum,
        });
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(idx));
    SpanGuard(Some(idx))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        let end = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&i| i == idx) {
                s.truncate(pos);
            }
        });
        if let Ok(mut spans) = tracer().spans.lock() {
            if let Some(sp) = spans.get_mut(idx) {
                sp.end_ns = end;
            }
        }
    }
}

/// Every span recorded since tracing was last enabled.
pub fn spans() -> Vec<Span> {
    tracer().spans.lock().expect("span log poisoned").clone()
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Total self time per layer, in milliseconds.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Self times (ms) of the spans called `name` that began at or after
/// `from_ns` (see [`now_ns`]).
pub fn self_ms_of(spans: &[Span], name: &str, from_ns: u64) -> Vec<f64> {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name == name && s.start_ns >= from_ns)
        .map(|(_, own)| own as f64 / 1e6)
        .collect()
}

/// Append the spans to `path` as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let datum = s
            .datum
            .map_or("null".to_string(), |d| format!("\"{d:016x}\""));
        writeln!(
            out,
            "{{\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"thread\":{},\"parent\":{parent},\"datum\":{datum}}}",
            s.layer, s.name, s.start_ns, s.end_ns, s.thread
        )?;
    }
    out.flush()
}

/// Times a closure as a span and returns its result.
pub fn timed<R>(
    layer: &'static str,
    name: &'static str,
    datum: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    let _g = span(layer, name, datum);
    f()
}

// ---------------------------------------------------------------------------
// Catalog decorator
// ---------------------------------------------------------------------------

/// Timing decorator over a catalog database driver.
pub struct TimedDriver(pub Arc<dyn DbDriver>);

struct TimedConn(Box<dyn DbConnection>);

fn charge_db(started: Instant) {
    counters()
        .db_ns
        .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

impl DbDriver for TimedDriver {
    fn connect(&self) -> DbResult<Box<dyn DbConnection>> {
        let _g = span("catalog", "db.connect", None);
        let started = Instant::now();
        let conn = self.0.connect();
        charge_db(started);
        Ok(Box::new(TimedConn(conn?)))
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl DbConnection for TimedConn {
    fn exec(&mut self, op: DbOp) -> DbResult<DbReply> {
        let _g = span("catalog", "db.exec", None);
        let started = Instant::now();
        let reply = self.0.exec(op);
        charge_db(started);
        counters().db_ops.fetch_add(1, Ordering::Relaxed);
        reply
    }

    fn exec_batch(&mut self, ops: Vec<DbOp>) -> DbResult<Vec<DbReply>> {
        let _g = span("catalog", "db.exec_batch", None);
        let n = ops.len() as u64;
        let started = Instant::now();
        let reply = self.0.exec_batch(ops);
        charge_db(started);
        counters().db_ops.fetch_add(n, Ordering::Relaxed);
        counters().db_batches.fetch_add(1, Ordering::Relaxed);
        reply
    }
}

// ---------------------------------------------------------------------------
// Content-store decorator
// ---------------------------------------------------------------------------

/// Timing decorator over a content store.
pub struct TimedStore {
    inner: Arc<dyn FileStore>,
    role: StoreRole,
}

impl TimedStore {
    pub fn wrap(inner: Arc<dyn FileStore>, role: StoreRole) -> Arc<dyn FileStore> {
        Arc::new(TimedStore { inner, role })
    }
}

impl FileStore for TimedStore {
    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, StoreError> {
        let _g = span("store", "store.read", None);
        let started = Instant::now();
        let out = self.inner.read_at(name, offset, len);
        let c = counters();
        let r = self.role as usize;
        c.read_ns[r].fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Ok(b) = &out {
            c.read_bytes[r].fetch_add(b.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        let _g = span("store", "store.write", None);
        let started = Instant::now();
        let out = self.inner.write_at(name, offset, data);
        let c = counters();
        let r = self.role as usize;
        c.write_ns[r].fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        c.write_bytes[r].fetch_add(data.len() as u64, Ordering::Relaxed);
        out
    }

    fn size(&self, name: &str) -> Result<u64, StoreError> {
        self.inner.size(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn remove(&self, name: &str) -> Result<(), StoreError> {
        let _g = span("store", "store.remove", None);
        self.inner.remove(name)
    }

    fn checksum(&self, name: &str) -> Result<Md5Digest, StoreError> {
        let _g = span("store", "store.checksum", None);
        let started = Instant::now();
        let out = self.inner.checksum(name);
        let c = counters();
        let r = self.role as usize;
        c.read_ns[r].fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if out.is_ok() {
            let size = self.inner.size(name).unwrap_or(0);
            c.read_bytes[r].fetch_add(size, Ordering::Relaxed);
        }
        out
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}
