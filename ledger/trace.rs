//! Reading a traced run: per-span self time, per-name totals, and the
//! span-capped artifacts written next to a ledger output.

use qec_obs::{json, Recorder, Snapshot, SpanRec, METRICS_SCHEMA_VERSION};

use crate::Outcome;

/// Spans kept in a written artifact, the cap committed artifacts use.
pub const MAX_SPANS: usize = 2048;

/// A recorder snapshot with each span's self time: its duration minus
/// the durations of its direct children (spans opened inside it on the
/// same thread).
pub struct Spans {
    snap: Snapshot,
    self_ns: Vec<u64>,
}

impl Spans {
    pub fn new(rec: &Recorder) -> Spans {
        let snap = rec.snapshot();
        let mut self_ns: Vec<u64> = snap.spans.iter().map(|s| s.dur_ns).collect();
        for s in &snap.spans {
            if let Some(p) = s.parent {
                self_ns[p as usize] = self_ns[p as usize].saturating_sub(s.dur_ns);
            }
        }
        Spans { snap, self_ns }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a SpanRec, u64)> + 'a {
        self.snap
            .spans
            .iter()
            .zip(&self.self_ns)
            .filter(move |(s, _)| s.name == name)
            .map(|(s, &own)| (s, own))
    }

    /// `(count, total duration ns, total self ns)` of the spans named
    /// `name`.
    pub fn totals(&self, name: &str) -> (u64, u64, u64) {
        self.named(name).fold((0, 0, 0), |(n, d, o), (s, own)| {
            (n + 1, d + s.dur_ns, o + own)
        })
    }

    /// Total duration of the spans named `name` opened at or after
    /// `from_ns`.
    pub fn total_since(&self, name: &str, from_ns: u64) -> u64 {
        self.named(name)
            .filter(|(s, _)| s.start_ns >= from_ns)
            .map(|(s, _)| s.dur_ns)
            .sum()
    }

    /// Mean duration in milliseconds of the spans named `name` (0 when
    /// none ran).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let (n, dur, _) = self.totals(name);
        if n == 0 {
            0.0
        } else {
            dur as f64 / n as f64 / 1e6
        }
    }

    /// Mean self time in milliseconds of the spans named `name`.
    pub fn mean_self_ms(&self, name: &str) -> f64 {
        let (n, _, own) = self.totals(name);
        if n == 0 {
            0.0
        } else {
            own as f64 / n as f64 / 1e6
        }
    }

    /// The one span named `name` (the harness's timed-phase span).
    pub fn only(&self, name: &str) -> Option<&SpanRec> {
        self.snap.spans.iter().find(|s| s.name == name)
    }

    /// Total self time of the spans opened on `tid` at or after
    /// `from_ns`, excluding the span at `skip` (the enclosing phase span).
    pub fn self_ns_on_thread(&self, tid: u32, from_ns: u64, skip: &str) -> u64 {
        self.snap
            .spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.tid == tid && s.start_ns >= from_ns && s.name != skip)
            .map(|(_, &own)| own)
            .sum()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.snap.counter(name)
    }
}

/// Per-compile word build, optimizer and tape metrics.
pub fn word_pipeline(out: &mut Outcome, spans: &Spans) {
    let (builds, _, _) = spans.totals("build");
    let gates = spans.counter("build.gates");
    let hits = spans.counter("build.cse_hits") + spans.counter("build.cons_hits");
    out.set("build_ms", spans.mean_ms("build"));
    out.set("build.gates", gates as f64 / builds.max(1) as f64);
    out.set(
        "build.cse_hit_ratio",
        hits as f64 / (hits + gates).max(1) as f64,
    );
    out.set("optimize_ms", spans.mean_ms("optimize"));
    let before = spans.counter("opt.gates_before");
    let after = spans.counter("opt.gates_after");
    if before > 0 {
        out.set("opt.removed_ratio", 1.0 - after as f64 / before as f64);
    }
    out.set("tape_ms", spans.mean_ms("tape"));
    out.set("engine.tape_len", spans.counter("engine.tape_len") as f64);
    out.set(
        "engine.peak_registers",
        spans.counter("engine.peak_registers") as f64,
    );
}

/// `Recorder::chrome_trace` with the span cap of `metrics_json_capped`:
/// the first [`MAX_SPANS`] spans plus every counter.
///
/// TODO: delete this copy once `Recorder::chrome_trace` takes a span cap
/// the way `metrics_json_capped` does; until then keep the two in step.
pub fn chrome_trace_capped(snap: &Snapshot) -> String {
    let mut events: Vec<String> = snap
        .spans
        .iter()
        .take(MAX_SPANS)
        .map(|s| {
            format!(
                "{{\"name\":{},\"cat\":\"qec\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                json::escape(&s.name),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            )
        })
        .collect();
    let end_us = snap
        .spans
        .iter()
        .map(|s| s.start_ns + s.dur_ns)
        .max()
        .unwrap_or(0) as f64
        / 1e3;
    for (k, v) in &snap.counters {
        events.push(format!(
            "{{\"name\":{},\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{end_us:.3},\"args\":{{\"value\":{v}}}}}",
            json::escape(k)
        ));
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"schema_version\":{METRICS_SCHEMA_VERSION},\"spans_dropped\":{}}}}}",
        events.join(","),
        snap.spans.len().saturating_sub(MAX_SPANS)
    )
}
