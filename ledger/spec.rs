//! The benchmark's declared names: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repository root declares the same lists; a unit test keeps the
//! two identical.

/// An end-to-end metric: what a user of the system sees. Every one is
/// better lower, and every workload reports it.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric: one layer's work, time or waste. No bound.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// Length in seconds of one run's timed phase (`run_seconds`): the
/// longest that lets a full evaluation, 4 + 22 runs per workload with
/// their set-ups plus two builds, finish within 3420 s on the calibration
/// host.
pub const RUN_SECONDS: u32 = 20;

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "serve-warm",
        "open loop at 150 qps then 192 in flight over three cached plans: admission, queueing, batching and evaluation do the work",
    ),
    (
        "serve-cold",
        "closed loop where every request renames its relations and so misses the plan cache: parse, plan, build, optimize and tape do the work",
    ),
    (
        "serve-mixed",
        "the warm mix at 100 qps plus one relation-renamed cold request every 2 s: a compile and the warm batches compete for the two workers",
    ),
    (
        "secure-triangle",
        "sequential two-party GMW triangle counts at N=16 over Duplex: bit lowering, the BitEngine and the protocol do the work",
    ),
];

pub const END_TO_END: [EndToEnd; 2] = [
    // Work moved into set-up shows here. Its bound is the largest: the
    // host's own speed moves its median, and three set-ups are all a run
    // has room for.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    // The memory a process needs before it can answer its first request.
    EndToEnd {
        name: "setup_rss_mib",
        unit: "MiB",
        bound: 0.1,
    },
];

pub const PER_LAYER: [Layer; 46] = [
    // qec-serve
    lower("serve.admit_us.p50", "us"),
    lower("serve.queue_ms.p50", "ms"),
    lower("serve.queue_ms.p99", "ms"),
    lower("serve.service_ms.p50", "ms"),
    higher("serve.batch_jobs", "jobs"),
    higher("serve.batch_jobs.sat", "jobs"),
    higher("serve.max_qps", "req/s"),
    higher("serve.cache.hit_ratio", "ratio"),
    lower("serve.cache.misses", "count"),
    lower("serve.cache.waits", "count"),
    lower("serve.cache.evictions", "count"),
    lower("serve.compile_ms", "ms"),
    lower("serve.compile.self_ms", "ms"),
    lower("serve.evaluate_ms", "ms"),
    lower("serve.cold_p50_ms", "ms"),
    // load generator
    lower("gen.late_ms.p99", "ms"),
    // qec-core -> qec-circuit word build
    lower("build_ms", "ms"),
    lower("build.gates", "count"),
    higher("build.cse_hit_ratio", "ratio"),
    // qec-circuit optimizer
    lower("optimize_ms", "ms"),
    higher("opt.removed_ratio", "ratio"),
    // qec-circuit word engine
    lower("tape_ms", "ms"),
    lower("engine.tape_len", "count"),
    lower("engine.peak_registers", "count"),
    lower("evaluate.us_per_job", "us"),
    // qec-core relational circuit, secure path
    lower("rc_build_ms", "ms"),
    // qec-circuit bit lowering
    lower("lower_ms", "ms"),
    lower("lower.bit_gates", "count"),
    lower("lower.and_gates", "count"),
    lower("lower.and_depth", "count"),
    // qec-circuit BitEngine
    lower("bitengine.compile_ms", "ms"),
    lower("bitengine.tape_len", "count"),
    lower("bitengine.and_levels", "count"),
    // qec-mpc
    lower("mpc.share_ms", "ms"),
    lower("mpc.deal_ms", "ms"),
    lower("mpc.session_ms", "ms"),
    lower("mpc.level_us.p50", "us"),
    lower("mpc.frames", "count"),
    lower("mpc.rounds", "count"),
    lower("mpc.mib_sent", "MiB"),
    // decode
    lower("mpc.decode_ms", "ms"),
    // whole request and process: the host's speed moves the latencies,
    // and thread timing in the allocator moves the peak, by more than a
    // 10% bound (README, "Why only these two")
    lower("p50_ms", "ms"),
    lower("p90_ms", "ms"),
    lower("p99_ms", "ms"),
    lower("peak_rss_mib", "MiB"),
    higher("coverage", "fraction"),
];

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "higher",
    }
}

/// Every declared metric as `(name, unit, bound)`, end-to-end first; a
/// per-layer metric has no bound.
pub fn all_metrics() -> impl Iterator<Item = (&'static str, &'static str, Option<f64>)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, Some(m.bound)))
        .chain(PER_LAYER.iter().map(|l| (l.name, l.unit, None)))
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}
