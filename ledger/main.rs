//! `ledger` — one seeded benchmark for the whole stack: serving (warm,
//! cold and mixed traffic through `qec-serve`) and secure two-party
//! triangle counting (bit lowering, BitEngine, GMW over `Duplex`). It
//! calls only the program's public entry points, checks every output
//! against a RAM reference, and attributes time to layers named after
//! the crates in a separate traced run. See `README.md` next to this
//! file.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--trace-out <prefix>]
//! ledger run --seed <n> --out <file.json> [--runs K] [--workload <name>] [--traced] [--seconds S] [--smoke]
//! ledger compare <old.json> <new.json>
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, `{"correct", "attempted", "failed",
//! "metrics"}` with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). It exits nonzero when an output
//! disagrees with its reference, or when a traced run's layer account
//! covers less than [`COVERAGE_MIN`] of its time.

mod compare;
mod run;
mod secure;
mod serve;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use qec_obs::{json, Recorder};
use qec_relation::Relation;

/// Set-ups per run; `setup_s` is their median (see [`measured`]).
pub const SETUP_REPEATS: usize = 3;

/// A request or query not answered within this time is a failure.
pub const DEADLINE: Duration = Duration::from_secs(30);

pub const MIB: f64 = 1024.0 * 1024.0;

/// Share of a traced run's time its layer account must explain. Work
/// moved out of the server's timed window, or out of the spans the
/// harness records, lowers the coverage below it.
pub const COVERAGE_MIN: f64 = 0.95;

/// Input sizes. The full scale is the benchmark; the smoke scale keeps
/// every workload near one second for the unit test.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Cardinality bound of the triangle query.
    pub triangle_n: u64,
    /// Cardinality bound of the path projection.
    pub path_n: u64,
    /// Domain and edge bound of transitive closure.
    pub tc_n: u64,
    /// Cardinality bound of the secure heavy/light triangle.
    pub secure_n: u64,
    /// Seeded databases per serve query family.
    pub pool: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        triangle_n: 8,
        path_n: 16,
        tc_n: 4,
        secure_n: 16,
        pool: 64,
    };
    pub const SMOKE: Scale = Scale {
        triangle_n: 4,
        path_n: 4,
        tc_n: 4,
        secure_n: 4,
        pool: 8,
    };
}

/// Everything a workload run depends on.
#[derive(Clone, Debug)]
pub struct Params {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub scale: Scale,
    pub traced: bool,
    /// Corrupts reference answers once set-up has checked its own, so a
    /// test can see the timed phase's check fail the run.
    pub plant_wrong_reference: bool,
}

impl Params {
    pub fn timed(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Typed errors, refusals and deadline misses.
    pub failed: u64,
    /// Outputs that disagree with their reference.
    pub wrong: u64,
    /// End-to-end and per-layer metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// `(metrics document, Chrome trace)` of a traced run.
    pub artifacts: Option<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::END_TO_END.iter().any(|m| m.name == name)
                || spec::PER_LAYER.iter().any(|l| l.name == name),
            "metric {name} is not declared in spec.rs"
        );
        self.metrics.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// Why the run fails, if it does: an output disagrees with its
    /// reference, or a traced run covers less than [`COVERAGE_MIN`].
    pub fn failure(&self, traced: bool) -> Option<String> {
        if !self.correct() {
            return Some(format!(
                "{} of {} outputs disagree with their reference",
                self.wrong, self.attempted
            ));
        }
        let coverage = self.metrics.get("coverage").copied().unwrap_or(0.0);
        (traced && coverage < COVERAGE_MIN)
            .then(|| format!("traced coverage {coverage:.3} is below {COVERAGE_MIN}"))
    }

    /// Counts one answered request: `ok` when it matched its reference.
    pub fn answered(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.wrong += 1;
        }
    }

    /// Counts one request that got no answer.
    pub fn unanswered(&mut self, why: &dyn std::fmt::Display) {
        if self.failed < 5 {
            eprintln!("ledger: request failed: {why}");
        }
        self.attempted += 1;
        self.failed += 1;
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with the end-to-end metrics (untraced) or every per-layer metric
    /// (traced). A layer the workload bypasses did no work and reads 0.
    pub fn result_line(&self, traced: bool) -> String {
        let declared: Vec<(&str, &str)> = if traced {
            spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let metrics: Vec<String> = declared
            .into_iter()
            .map(|(name, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::escape(name),
                    number(self.metrics.get(name).copied().unwrap_or(0.0)),
                    json::escape(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric the run measured, end-to-end and per-layer, as one
    /// JSON object; `ledger run` reads it from the line before the
    /// result line.
    pub fn detail_line(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{}: {}", json::escape(k), number(*v)))
            .collect();
        format!("{{\"detail\": {{{}}}}}", fields.join(", "))
    }
}

/// A metric value as JSON, with every digit the measurement has.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// splitmix64: all inputs derive from `--seed` through this.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `setup`, then `timed` on what it built, then `setup`
/// [`SETUP_REPEATS`] − 1 more times only to time it; sets `setup_s` to
/// the median set-up time and `peak_rss_mib` to the peak before the
/// extra set-ups.
///
/// The process a user starts runs one set-up. What an earlier set-up
/// leaves in the allocator's per-thread arenas would add to the peak an
/// amount that depends on thread timing. The extra set-ups record
/// nothing, so the per-layer metrics and the coverage describe the first
/// set-up and the timed phase.
pub fn measured<T>(
    rec: &Recorder,
    mut setup: impl FnMut(&Recorder) -> Result<T, String>,
    timed: impl FnOnce(T, &mut Outcome) -> Result<(), String>,
) -> Result<Outcome, String> {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let t = Instant::now();
    let built = setup(rec)?;
    secs.push(t.elapsed().as_secs_f64());
    let mut out = Outcome::default();
    out.set("setup_rss_mib", peak_rss_mib()?);
    timed(built, &mut out)?;
    out.set("peak_rss_mib", peak_rss_mib()?);

    let quiet = Recorder::disabled();
    let traced = qec_obs::install(quiet.clone());
    let repeats: Result<(), String> = (1..SETUP_REPEATS).try_for_each(|_| {
        let t = Instant::now();
        let built = setup(&quiet)?;
        secs.push(t.elapsed().as_secs_f64());
        drop(built);
        Ok(())
    });
    qec_obs::install(traced);
    repeats?;
    out.set("setup_s", stats::median(&secs));
    Ok(out)
}

/// The process's peak resident set so far (VmHWM).
fn peak_rss_mib() -> Result<f64, String> {
    let bytes = qec_obs::peak_rss_bytes().ok_or("peak RSS unreadable (needs /proc)")?;
    Ok(bytes as f64 / MIB)
}

/// `r` with one extra row: a reference no correct output can match.
pub fn planted(r: &Relation) -> Relation {
    let mut rows = r.rows().to_vec();
    rows.push(vec![u64::from(u32::MAX); r.arity()]);
    Relation::from_rows(r.schema().to_vec(), rows)
}

/// Runs one workload in this process.
pub fn run_workload(name: &str, p: &Params) -> Result<Outcome, String> {
    let rec = Recorder::new(p.traced);
    // The builder and optimizer flush their counters to the global
    // recorder; route them into this run's.
    let previous = qec_obs::install(rec.clone());
    let result = match name {
        "serve-warm" => serve::warm(p, &rec),
        "serve-cold" => serve::cold(p, &rec),
        "serve-mixed" => serve::mixed(p, &rec),
        "secure-triangle" => secure::run(p, &rec),
        _ => Err(format!("unknown workload {name:?}")),
    };
    qec_obs::install(previous);
    let mut out = result?;
    if p.traced {
        out.artifacts = Some((
            rec.metrics_json_capped(trace::MAX_SPANS),
            trace::chrome_trace_capped(&rec.snapshot()),
        ));
    }
    Ok(out)
}

const USAGE: &str = "usage:
  ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--trace-out <prefix>]
  ledger run --seed <n> --out <file.json> [--runs K] [--workload <name>] [--traced] [--seconds S] [--smoke]
  ledger compare <old.json> <new.json>";

fn usage(why: &str) -> ExitCode {
    eprintln!("ledger: {why}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => one_workload(&args),
    }
}

fn one_workload(args: &[String]) -> ExitCode {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut smoke = false;
    let mut trace_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--trace-out" => trace_out = Some(value.clone()),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds (> 0) and --trace (0 or 1) are required");
    };
    if !spec::is_workload(&workload) {
        return usage(&format!("unknown workload {workload:?}"));
    }
    let p = Params {
        seed,
        seconds,
        scale: if smoke { Scale::SMOKE } else { Scale::FULL },
        traced,
        plant_wrong_reference: false,
    };
    let out = match run_workload(&workload, &p) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("ledger: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let (Some(prefix), Some((metrics, chrome))) = (&trace_out, &out.artifacts) {
        for (path, doc) in [
            (format!("{prefix}.metrics.json"), metrics),
            (format!("{prefix}.trace.json"), chrome),
        ] {
            if let Err(e) = std::fs::write(&path, doc) {
                eprintln!("ledger: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", out.detail_line());
    println!("{}", out.result_line(traced));
    match out.failure(traced) {
        None => ExitCode::SUCCESS,
        Some(why) => {
            eprintln!("ledger: {workload}: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> json::Value {
        json::parse(include_str!("../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    /// The `[profile.release]` table of a manifest, as its lines.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The benchmark builds the program with the repository's release
    /// profile, which it has to copy because it is a workspace of its own.
    #[test]
    fn release_profile_matches_the_repository() {
        let ours = release_profile(include_str!("Cargo.toml"));
        assert!(
            !ours.is_empty(),
            "ledger/Cargo.toml has no [profile.release]"
        );
        assert_eq!(ours, release_profile(include_str!("../Cargo.toml")));
    }

    fn names<'a>(v: &'a json::Value, key: &str) -> Vec<&'a json::Value> {
        v.get(key)
            .and_then(json::Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .collect()
    }

    fn str_of<'a>(v: &'a json::Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(json::Value::as_str)
            .unwrap_or_else(|| panic!("no {key}"))
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_ledger_emits() {
        let file = benchmark_json();
        assert_eq!(
            file.get("run_seconds").and_then(json::Value::as_f64),
            Some(f64::from(spec::RUN_SECONDS))
        );
        let workloads: Vec<&str> = names(&file, "workloads")
            .into_iter()
            .map(|w| str_of(w, "name"))
            .collect();
        let ours: Vec<&str> = spec::WORKLOADS.iter().map(|(w, _)| *w).collect();
        assert_eq!(workloads, ours);
        for (w, (name, why)) in names(&file, "workloads").into_iter().zip(spec::WORKLOADS) {
            assert_eq!(str_of(w, "why"), why, "why of {name}");
        }

        let e2e = names(&file, "end_to_end");
        assert_eq!(e2e.len(), spec::END_TO_END.len());
        for (m, ours) in e2e.into_iter().zip(&spec::END_TO_END) {
            assert_eq!(str_of(m, "name"), ours.name);
            assert_eq!(str_of(m, "unit"), ours.unit, "{}", ours.name);
            assert_eq!(str_of(m, "better"), "lower", "{}", ours.name);
            assert_eq!(
                m.get("bound").and_then(json::Value::as_f64),
                Some(ours.bound),
                "{}",
                ours.name
            );
        }

        let layers = names(&file, "per_layer");
        assert_eq!(layers.len(), spec::PER_LAYER.len());
        for (m, ours) in layers.into_iter().zip(&spec::PER_LAYER) {
            assert_eq!(str_of(m, "name"), ours.name);
            assert_eq!(str_of(m, "unit"), ours.unit, "{}", ours.name);
            assert_eq!(str_of(m, "better"), ours.better, "{}", ours.name);
            assert!(matches!(ours.better, "lower" | "higher"), "{}", ours.name);
        }

        let mut seen = BTreeSet::new();
        let all = ours
            .iter()
            .copied()
            .chain(spec::END_TO_END.iter().map(|m| m.name))
            .chain(spec::PER_LAYER.iter().map(|m| m.name));
        for name in all {
            assert!(valid_name(name) && name.len() <= 64, "bad name {name:?}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!((2..=8).contains(&spec::WORKLOADS.len()));
        assert!((1..=16).contains(&spec::END_TO_END.len()));
        assert!((1..=128).contains(&spec::PER_LAYER.len()));
        assert!(spec::END_TO_END
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(spec::WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }

    /// Runs serialized: a run installs the process-global recorder.
    fn smoke(workload: &str, traced: bool, plant: bool) -> Result<Outcome, String> {
        static GLOBAL_RECORDER: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _one_at_a_time = GLOBAL_RECORDER.lock().unwrap_or_else(|e| e.into_inner());
        run_workload(
            workload,
            &Params {
                seed: 7,
                seconds: 1.0,
                scale: Scale::SMOKE,
                traced,
                plant_wrong_reference: plant,
            },
        )
    }

    /// Every workload at smoke scale, untraced and traced: no failures,
    /// every output checked and right, the result line parses with
    /// exactly the declared metric names, traced coverage ≥ 95 %, and
    /// each traced artifact stays under 1 MiB.
    #[test]
    fn smoke_runs_every_workload_untraced_and_traced() {
        for (workload, _) in spec::WORKLOADS {
            for traced in [false, true] {
                let out =
                    smoke(workload, traced, false).unwrap_or_else(|e| panic!("{workload}: {e}"));
                assert!(out.attempted > 0, "{workload}: nothing attempted");
                assert_eq!(out.failed, 0, "{workload}: failures");
                assert!(out.correct(), "{workload}: wrong outputs");

                let line = json::parse(&out.result_line(traced)).expect("result line parses");
                assert_eq!(
                    line.keys(),
                    vec!["correct", "attempted", "failed", "metrics"]
                );
                let metrics = line.get("metrics").expect("metrics");
                let declared: Vec<&str> = if traced {
                    spec::PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    spec::END_TO_END.iter().map(|m| m.name).collect()
                };
                assert_eq!(metrics.keys(), declared, "{workload}");
                json::parse(&out.detail_line()).expect("detail line parses");

                assert_eq!(out.failure(traced), None, "{workload}");
                if traced {
                    let coverage = out.metrics["coverage"];
                    assert!(coverage >= COVERAGE_MIN, "{workload}: coverage {coverage}");
                    let (doc, chrome) = out.artifacts.as_ref().expect("traced artifacts");
                    for artifact in [doc, chrome] {
                        json::parse(artifact).expect("artifact parses");
                        assert!(artifact.len() < 1 << 20, "{workload}: artifact over 1 MiB");
                    }
                } else {
                    for m in &spec::END_TO_END {
                        assert!(out.metrics[m.name] > 0.0, "{workload}: {} is 0", m.name);
                    }
                }
            }
        }
    }

    /// The reference is planted after set-up, so it is the timed phase's
    /// check that has to catch it.
    #[test]
    fn a_planted_wrong_reference_fails_the_run() {
        for (workload, _) in spec::WORKLOADS {
            let out = smoke(workload, false, true).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(
                !out.correct(),
                "{workload}: a wrong reference went unnoticed"
            );
            assert!(out.failure(false).is_some(), "{workload}");
        }
    }

    #[test]
    fn a_traced_run_that_covers_too_little_fails() {
        let mut out = Outcome::default();
        out.answered(true);
        out.set("coverage", 0.64);
        assert_eq!(out.failure(false), None, "untraced runs report no coverage");
        assert!(out.failure(true).is_some());
        out.set("coverage", COVERAGE_MIN);
        assert_eq!(out.failure(true), None);
    }
}
