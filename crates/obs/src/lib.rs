//! Pipeline observability: hierarchical spans, named counters/gauges,
//! and two exporters (a versioned JSON metrics document and Chrome
//! `chrome://tracing` trace-event format), with zero dependencies.
//!
//! The compile pipeline (build → optimize → lower → tape → evaluate) is
//! instrumented against a [`Recorder`]: each stage opens a [`Span`]
//! (monotonic wall-clock timing, per-thread nesting) and flushes named
//! counters (gates emitted, gates folded/CSE'd/DCE'd, cons-table hit
//! rates, bit-level AND counts). A recorder
//! is either *enabled* — everything is kept under one mutex — or
//! *disabled*, in which case every call returns after one unsynchronized
//! field read. Disabled is the default ([`TRACE_ENV`] = `QEC_TRACE`
//! unset or `0`), so the untraced pipeline pays a branch per *stage*,
//! never per gate.
//!
//! Two sinks exist:
//!
//! * an explicit recorder handed around by the driver layer
//!   (`qec-circuit`'s `CompileOptions`), which owns the stage spans; and
//! * the process-global recorder ([`global`]/[`install`]), which the
//!   low-level layers (the builder's hash-cons table) flush into,
//!   because threading a handle through every builder would put
//!   observability into hot signatures.
//!
//! With `QEC_TRACE=1` the driver layer defaults to the global recorder,
//! so both sinks are the same object and one export contains the whole
//! pipeline. A programmatically created recorder can opt into the same
//! unification via [`install`].

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod json;

/// Environment variable that enables the process-global recorder:
/// anything other than unset, empty, or `0` turns tracing on.
pub const TRACE_ENV: &str = "QEC_TRACE";

/// Version of the metrics-document schema emitted by
/// [`Recorder::metrics_json`] (and embedded by downstream artifacts such
/// as the bench harness's `BENCH_*.json`).
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// One closed (or still-open) span as stored by the recorder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name, e.g. `"build"`, `"optimize"`, `"tape"`.
    pub name: Cow<'static, str>,
    /// Dense per-recorder thread index (0 = first thread seen).
    pub tid: u32,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<u32>,
    /// Nanoseconds since the recorder's epoch at span open.
    pub start_ns: u64,
    /// Span duration in nanoseconds (`0` while still open).
    pub dur_ns: u64,
}

/// A point-in-time copy of everything a recorder has collected.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// All spans in open order.
    pub spans: Vec<SpanRec>,
    /// Counter/gauge values, sorted by name (a `BTreeMap`, so exporter
    /// key order is stable by construction).
    pub counters: BTreeMap<String, u64>,
}

impl Snapshot {
    /// Sum of the durations of all spans named `name`.
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<SpanRec>,
    counters: BTreeMap<String, u64>,
    /// OS thread id → dense tid, in first-seen order.
    threads: Vec<std::thread::ThreadId>,
    /// Per-dense-tid stack of open span indices (the nesting structure).
    stacks: Vec<Vec<u32>>,
}

impl State {
    fn tid(&mut self) -> u32 {
        let id = std::thread::current().id();
        if let Some(i) = self.threads.iter().position(|&t| t == id) {
            return i as u32;
        }
        self.threads.push(id);
        self.stacks.push(Vec::new());
        (self.threads.len() - 1) as u32
    }
}

struct Inner {
    /// Immutable after construction: the no-op fast path is one plain
    /// `bool` read, no atomics, no lock.
    enabled: bool,
    epoch: Instant,
    state: Mutex<State>,
}

/// A thread-safe span/counter recorder. Cheap to clone (an `Arc`); all
/// clones observe and feed the same store. A disabled recorder turns
/// every method into a near-free early return.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.inner.enabled)
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// A recorder that is collecting (`enabled = true`) or permanently
    /// inert (`enabled = false`).
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            inner: Arc::new(Inner {
                enabled,
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            }),
        }
    }

    /// The always-inert recorder.
    pub fn disabled() -> Recorder {
        Recorder::new(false)
    }

    /// Enabled iff [`TRACE_ENV`] (`QEC_TRACE`) is set to something other
    /// than empty or `0`.
    pub fn from_env() -> Recorder {
        Recorder::new(env_wants_trace())
    }

    /// Whether this recorder collects anything at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Opens a span; it closes (records its duration) when the returned
    /// guard drops. Spans opened while another span from this recorder
    /// is open **on the same thread** become its children.
    #[inline]
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> Span {
        if !self.inner.enabled {
            return Span { rec: None };
        }
        self.span_slow(name.into())
    }

    fn span_slow(&self, name: Cow<'static, str>) -> Span {
        let start_ns = self.inner.epoch.elapsed().as_nanos() as u64;
        let mut st = self.inner.state.lock().expect("recorder poisoned");
        let tid = st.tid();
        let parent = st.stacks[tid as usize].last().copied();
        let idx = st.spans.len() as u32;
        st.spans.push(SpanRec {
            name,
            tid,
            parent,
            start_ns,
            dur_ns: 0,
        });
        st.stacks[tid as usize].push(idx);
        Span {
            rec: Some((self.clone(), idx)),
        }
    }

    fn close_span(&self, idx: u32) {
        let end_ns = self.inner.epoch.elapsed().as_nanos() as u64;
        let mut st = self.inner.state.lock().expect("recorder poisoned");
        let tid = st.spans[idx as usize].tid as usize;
        let span = &mut st.spans[idx as usize];
        span.dur_ns = end_ns.saturating_sub(span.start_ns);
        // Guards normally drop in LIFO order; tolerate leaks by removing
        // the index wherever it sits on the stack.
        if let Some(pos) = st.stacks[tid].iter().rposition(|&i| i == idx) {
            st.stacks[tid].remove(pos);
        }
    }

    /// Adds `delta` to the named counter.
    #[inline]
    pub fn add(&self, name: &str, delta: u64) {
        if !self.inner.enabled || delta == 0 {
            return;
        }
        let mut st = self.inner.state.lock().expect("recorder poisoned");
        *st.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Raises the named gauge to `value` if it is below it (peak-style
    /// gauges: peak live registers, widest level, …).
    #[inline]
    pub fn gauge_max(&self, name: &str, value: u64) {
        if !self.inner.enabled {
            return;
        }
        let mut st = self.inner.state.lock().expect("recorder poisoned");
        let g = st.counters.entry(name.to_string()).or_insert(0);
        *g = (*g).max(value);
    }

    /// Sets the named gauge to `value` unconditionally.
    #[inline]
    pub fn gauge_set(&self, name: &str, value: u64) {
        if !self.inner.enabled {
            return;
        }
        let mut st = self.inner.state.lock().expect("recorder poisoned");
        st.counters.insert(name.to_string(), value);
    }

    /// A counter's current value (0 when disabled or never touched).
    pub fn counter(&self, name: &str) -> u64 {
        if !self.inner.enabled {
            return 0;
        }
        let st = self.inner.state.lock().expect("recorder poisoned");
        st.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of the durations of all closed spans named `name`.
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.snapshot().span_total_ns(name)
    }

    /// Copies out everything collected so far.
    pub fn snapshot(&self) -> Snapshot {
        if !self.inner.enabled {
            return Snapshot::default();
        }
        let st = self.inner.state.lock().expect("recorder poisoned");
        Snapshot {
            spans: st.spans.clone(),
            counters: st.counters.clone(),
        }
    }

    /// The versioned JSON metrics document:
    ///
    /// ```json
    /// {"schema_version":1,
    ///  "counters":{"build.gates":123,...},
    ///  "spans":[{"name":"build","tid":0,"parent":null,
    ///            "start_ns":12,"dur_ns":3456},...]}
    /// ```
    ///
    /// Counter keys are sorted (the store is a `BTreeMap`) and spans are
    /// emitted in open order, so the document is deterministic up to the
    /// recorded values.
    pub fn metrics_json(&self) -> String {
        self.metrics_json_capped(usize::MAX)
    }

    /// [`Self::metrics_json`] with a span budget: at most `max_spans` spans
    /// (kept in open order, so the leading pipeline spans survive) and,
    /// when anything was cut, a trailing `"spans_dropped":N` key. The
    /// key is omitted at zero so uncapped documents stay byte-identical
    /// to [`Self::metrics_json`] output. Fuzzing sweeps record millions of
    /// spans; artifacts that get committed need this bound.
    pub fn metrics_json_capped(&self, max_spans: usize) -> String {
        let snap = self.snapshot();
        let kept = snap.spans.len().min(max_spans);
        let dropped = snap.spans.len() - kept;
        let mut out = String::with_capacity(256 + kept * 96);
        out.push_str(&format!(
            "{{\"schema_version\":{METRICS_SCHEMA_VERSION},\"counters\":{{"
        ));
        let mut first = true;
        for (k, v) in &snap.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&json::escape(k));
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"spans\":[");
        for (i, s) in snap.spans.iter().take(kept).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".into(),
            };
            out.push_str(&format!(
                "{{\"name\":{},\"tid\":{},\"parent\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                json::escape(&s.name),
                s.tid,
                parent,
                s.start_ns,
                s.dur_ns
            ));
        }
        out.push(']');
        if dropped > 0 {
            out.push_str(&format!(",\"spans_dropped\":{dropped}"));
        }
        out.push('}');
        out
    }

    /// The Chrome trace-event document (load it at `chrome://tracing`
    /// or <https://ui.perfetto.dev>): one `"X"` (complete) event per
    /// span with microsecond timestamps, plus one `"C"` (counter) event
    /// per counter so the totals show up in the same view.
    pub fn chrome_trace(&self) -> String {
        let snap = self.snapshot();
        let mut events: Vec<String> = Vec::with_capacity(snap.spans.len() + snap.counters.len());
        for s in &snap.spans {
            events.push(format!(
                "{{\"name\":{},\"cat\":\"qec\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                json::escape(&s.name),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            ));
        }
        let end_ts = snap
            .spans
            .iter()
            .map(|s| s.start_ns + s.dur_ns)
            .max()
            .unwrap_or(0) as f64
            / 1e3;
        for (k, v) in &snap.counters {
            events.push(format!(
                "{{\"name\":{},\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{end_ts:.3},\"args\":{{\"value\":{v}}}}}",
                json::escape(k)
            ));
        }
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"schema_version\":{METRICS_SCHEMA_VERSION}}}}}",
            events.join(",")
        )
    }
}

/// An RAII span guard from [`Recorder::span`]; records the span's
/// duration on drop. A guard from a disabled recorder is a no-op shell.
#[must_use = "a span measures the scope it lives in; bind it to a `_guard`"]
pub struct Span {
    rec: Option<(Recorder, u32)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((rec, idx)) = self.rec.take() {
            rec.close_span(idx);
        }
    }
}

fn env_wants_trace() -> bool {
    match std::env::var(TRACE_ENV) {
        Ok(v) => {
            let v = v.trim();
            !v.is_empty() && v != "0"
        }
        Err(_) => false,
    }
}

static GLOBAL: OnceLock<Mutex<Recorder>> = OnceLock::new();

fn global_slot() -> &'static Mutex<Recorder> {
    GLOBAL.get_or_init(|| Mutex::new(Recorder::from_env()))
}

/// The process-global recorder. Initialized from [`TRACE_ENV`] on first
/// touch (so `QEC_TRACE=1` traces every pipeline in the process without
/// code changes); replaceable with [`install`]. Low-level layers (the
/// builders' cons tables) flush here.
pub fn global() -> Recorder {
    global_slot()
        .lock()
        .expect("global recorder poisoned")
        .clone()
}

/// Replaces the process-global recorder, returning the previous one.
/// Lets a caller that created an enabled [`Recorder`] programmatically
/// (rather than via `QEC_TRACE`) route the low-level layers into it for
/// the duration of a measurement; restore the returned recorder after.
pub fn install(rec: Recorder) -> Recorder {
    std::mem::replace(
        &mut *global_slot().lock().expect("global recorder poisoned"),
        rec,
    )
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux / when procfs is
/// unreadable. The X20 bench and `tape_eval lower` use this to report
/// the memory a run actually reached; it is a high-water mark, so it
/// only ever grows within a process.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        {
            let _g = r.span("x");
            r.add("c", 5);
            r.gauge_max("g", 9);
        }
        assert!(!r.is_enabled());
        let snap = r.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert_eq!(r.counter("c"), 0);
    }

    #[test]
    fn spans_nest_per_thread_and_time_monotonically() {
        let r = Recorder::new(true);
        {
            let _a = r.span("outer");
            {
                let _b = r.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let outer = &snap.spans[0];
        let inner = &snap.spans[1];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(0));
        assert!(inner.dur_ns > 0);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn sibling_threads_get_distinct_tids_and_no_false_nesting() {
        let r = Recorder::new(true);
        let _root = r.span("root");
        std::thread::scope(|s| {
            for _ in 0..2 {
                let r = r.clone();
                s.spawn(move || {
                    let _w = r.span("worker");
                });
            }
        });
        let snap = r.snapshot();
        let workers: Vec<_> = snap.spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 2);
        for w in &workers {
            assert_ne!(w.tid, 0, "worker threads are not the root thread");
            assert_eq!(w.parent, None, "no cross-thread nesting");
        }
        assert_ne!(workers[0].tid, workers[1].tid);
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Recorder::new(true);
        r.add("hits", 3);
        r.add("hits", 4);
        r.gauge_max("peak", 10);
        r.gauge_max("peak", 7);
        r.gauge_set("exact", 42);
        assert_eq!(r.counter("hits"), 7);
        assert_eq!(r.counter("peak"), 10);
        assert_eq!(r.counter("exact"), 42);
        assert_eq!(r.counter("absent"), 0);
    }

    #[test]
    fn metrics_json_roundtrips_through_the_parser() {
        let r = Recorder::new(true);
        r.add("a\"quoted\"", 1);
        r.add("z.last", 2);
        {
            let _g = r.span("stage");
        }
        let doc = r.metrics_json();
        let v = json::parse(&doc).expect("valid JSON");
        assert_eq!(
            v.get("schema_version").and_then(json::Value::as_f64),
            Some(METRICS_SCHEMA_VERSION as f64)
        );
        let counters = v.get("counters").expect("counters object");
        assert_eq!(
            counters.get("a\"quoted\"").and_then(json::Value::as_f64),
            Some(1.0)
        );
        let spans = v
            .get("spans")
            .and_then(json::Value::as_array)
            .expect("spans");
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].get("name").and_then(json::Value::as_str),
            Some("stage")
        );
    }

    #[test]
    fn chrome_trace_roundtrips_through_the_parser() {
        let r = Recorder::new(true);
        {
            let _g = r.span("build");
        }
        r.add("gates", 12);
        let doc = r.chrome_trace();
        let v = json::parse(&doc).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .expect("traceEvents");
        assert_eq!(events.len(), 2, "one X event + one C event");
        let x = &events[0];
        assert_eq!(x.get("ph").and_then(json::Value::as_str), Some("X"));
        assert_eq!(x.get("name").and_then(json::Value::as_str), Some("build"));
        assert!(x.get("ts").and_then(json::Value::as_f64).is_some());
        assert!(x.get("dur").and_then(json::Value::as_f64).is_some());
        let c = &events[1];
        assert_eq!(c.get("ph").and_then(json::Value::as_str), Some("C"));
    }

    #[test]
    fn install_swaps_the_global_recorder() {
        let mine = Recorder::new(true);
        let old = install(mine.clone());
        global().add("swapped", 1);
        assert_eq!(mine.counter("swapped"), 1);
        install(old);
    }
}
