//! In-memory span recording around the benchmark's calls into each
//! layer's public functions. Nothing inside the library is instrumented:
//! a span brackets one call made from this crate.
//!
//! Spans are kept in memory and written out as JSON lines when the run
//! ends. With tracing off, `record` is a no-op and the timings the
//! benchmark takes for its end-to-end metrics are the only clock reads.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::util::{median, Json};

/// One closed span: `name` ran from `start` to `end` (nanoseconds since
/// the tracer's epoch), caused by span `parent` (0 = none), on behalf of
/// request `request`.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Turns recording on or off; the tracing-overhead measurement
    /// alternates between the two.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Reserves a span id so children can name their parent before the
    /// parent closes.
    pub fn id(&self) -> u32 {
        if self.on() {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a closed span under a reserved `id` (0 allocates one).
    pub fn record(
        &self,
        id: u32,
        name: &'static str,
        parent: u32,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on() {
            return 0;
        }
        let id = if id == 0 { self.id() } else { id };
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.lock().unwrap().push(Span {
            id,
            parent,
            name,
            request,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        });
        id
    }

    /// Runs `f` inside a span and returns its result and wall time in ms.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(0, name, parent, request, start, end);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Span count and median duration per name.
    pub fn summary(&self) -> Json {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in self.spans.lock().unwrap().iter() {
            by_name.entry(s.name).or_default().push(s.ms());
        }
        Json::Obj(
            by_name
                .into_iter()
                .map(|(name, d)| {
                    (
                        name.to_string(),
                        Json::obj([
                            ("count", Json::Int(d.len() as i64)),
                            ("median_ms", Json::Num(median(&d))),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().unwrap().iter() {
            let line = Json::obj([
                ("id", Json::Int(s.id as i64)),
                ("parent", Json::Int(s.parent as i64)),
                ("name", Json::str(s.name)),
                ("request", Json::Int(s.request as i64)),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Mean cost of recording one span, measured on a scratch tracer.
pub fn record_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let t = Tracer::new(true);
    let start = Instant::now();
    for i in 0..N {
        let now = Instant::now();
        t.record(0, "bench.probe", 0, i as u64, now, now);
    }
    start.elapsed().as_nanos() as f64 / N as f64
}
