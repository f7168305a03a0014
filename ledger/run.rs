//! `ledger run`: every workload (or one) K times untraced, each run in
//! its own child process so `peak_rss_mib` is that workload's alone,
//! then optionally once traced; writes one JSON document with the host,
//! every run, per-metric quartiles, and the traced run's per-layer
//! metrics, coverage and tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use qec_circuit::BitKernel;
use qec_obs::json::{self, Value};

use crate::spec;
use crate::stats::quartiles;
use crate::usage;

/// What `ledger run` passes to each child.
struct Settings {
    seconds: f64,
    smoke: bool,
}

/// One child run, as read back from its last two lines.
struct ChildRun {
    seed: u64,
    correct: bool,
    /// The child exited 0: its outputs were right and, when traced, its
    /// coverage reached `COVERAGE_MIN`.
    passed: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

pub fn main(args: &[String]) -> ExitCode {
    let mut seed = None;
    let mut out = None;
    let mut runs = 5usize;
    let mut only: Option<String> = None;
    let mut traced = false;
    let mut settings = Settings {
        seconds: f64::from(spec::RUN_SECONDS),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--traced" => traced = true,
            "--smoke" => settings.smoke = true,
            _ => {
                let Some(v) = it.next() else {
                    return usage(&format!("{flag} needs a value"));
                };
                match flag.as_str() {
                    "--seed" => seed = v.parse::<u64>().ok(),
                    "--out" => out = Some(v.clone()),
                    "--runs" => match v.parse::<usize>() {
                        Ok(k) if k > 0 => runs = k,
                        _ => return usage("--runs must be a positive integer"),
                    },
                    "--workload" => only = Some(v.clone()),
                    "--seconds" => match v.parse::<f64>() {
                        Ok(s) if s > 0.0 => settings.seconds = s,
                        _ => return usage("--seconds must be positive"),
                    },
                    _ => return usage(&format!("unknown flag {flag}")),
                }
            }
        }
    }
    let (Some(seed), Some(out)) = (seed, out) else {
        return usage("run needs --seed and --out");
    };
    if let Some(w) = &only {
        if !spec::is_workload(w) {
            return usage(&format!("unknown workload {w:?}"));
        }
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("ledger: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut ok = true;
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\"ledger\": 1, \"host\": {}, \"seed\": {seed}, \"seconds\": {}, \"smoke\": {}, \"workloads\": {{",
        host(seed),
        settings.seconds,
        settings.smoke
    );
    let selected: Vec<&str> = spec::WORKLOADS
        .iter()
        .map(|(w, _)| *w)
        .filter(|w| only.as_deref().is_none_or(|o| o == *w))
        .collect();
    for (wi, workload) in selected.iter().enumerate() {
        let mut children = Vec::with_capacity(runs);
        for k in 0..runs as u64 {
            match child(&exe, workload, seed + k, &settings, None) {
                Ok(c) => {
                    ok &= c.passed && c.failed == 0;
                    eprintln!("ledger: {workload} run {} of {runs} done", k + 1);
                    children.push(c);
                }
                Err(e) => {
                    eprintln!("ledger: {workload} seed {}: {e}", seed + k);
                    ok = false;
                }
            }
        }
        let _ = write!(
            doc,
            "{}{}: {{\"runs\": [{}], \"summary\": {}",
            if wi == 0 { "" } else { ", " },
            json::escape(workload),
            children.iter().map(run_json).collect::<Vec<_>>().join(", "),
            summary_json(&children)
        );
        if traced {
            let prefix = Path::new(&out).with_extension("");
            let prefix = format!("{}.{workload}", prefix.display());
            match child(&exe, workload, seed, &settings, Some(&prefix)) {
                Ok(t) => {
                    ok &= t.passed && t.failed == 0;
                    let _ = write!(
                        doc,
                        ", \"traced\": {{\"run\": {}, \"overhead\": {}, \"trace\": {}}}",
                        run_json(&t),
                        overhead_json(&children, &t),
                        json::escape(&format!("{prefix}.trace.json"))
                    );
                }
                Err(e) => {
                    eprintln!("ledger: {workload} traced: {e}");
                    ok = false;
                }
            }
        }
        doc.push('}');
    }
    doc.push_str("}}\n");
    if let Err(e) = std::fs::write(&out, &doc) {
        eprintln!("ledger: writing {out}: {e}");
        return ExitCode::FAILURE;
    }
    print_summary(&doc);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process and reads its detail and
/// result lines.
fn child(
    exe: &Path,
    workload: &str,
    seed: u64,
    s: &Settings,
    trace_out: Option<&str>,
) -> Result<ChildRun, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &s.seconds.to_string()])
        .args(["--trace", if trace_out.is_some() { "1" } else { "0" }]);
    if s.smoke {
        cmd.arg("--smoke");
    }
    if let Some(prefix) = trace_out {
        cmd.args(["--trace-out", prefix]);
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., detail, result] = lines.as_slice() else {
        return Err(format!("exited with {} and no result", output.status));
    };
    let detail = json::parse(detail).map_err(|e| format!("detail line: {e}"))?;
    let result = json::parse(result).map_err(|e| format!("result line: {e}"))?;
    let count = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    Ok(ChildRun {
        seed,
        correct: result.get("correct") == Some(&Value::Bool(true)),
        passed: output.status.success(),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics: detail
            .get("detail")
            .map(|d| {
                d.as_map()
                    .into_iter()
                    .filter_map(|(k, v)| Some((k.to_string(), v.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default(),
    })
}

fn run_json(c: &ChildRun) -> String {
    let metrics: Vec<String> = c
        .metrics
        .iter()
        .map(|(k, v)| format!("{}: {v}", json::escape(k)))
        .collect();
    format!(
        "{{\"seed\": {}, \"correct\": {}, \"passed\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.seed,
        c.correct,
        c.passed,
        c.attempted,
        c.failed,
        metrics.join(", ")
    )
}

/// Quartiles and spread of every metric the runs report: the end-to-end
/// metrics with their bounds, then the per-layer ones.
fn summary_json(runs: &[ChildRun]) -> String {
    let rows: Vec<String> = spec::all_metrics()
        .filter_map(|(name, unit, bound)| {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.metrics.get(name).copied()).collect();
            if values.is_empty() {
                return None;
            }
            let (q1, med, q3) = quartiles(&values);
            Some(format!(
                "{}: {{\"unit\": {}, \"q1\": {q1}, \"median\": {med}, \"q3\": {q3}, \"spread\": {}, \"bound\": {}}}",
                json::escape(name),
                json::escape(unit),
                spread(q1, med, q3),
                bound.map_or("null".to_string(), |b| b.to_string())
            ))
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// Interquartile distance as a share of the median.
pub fn spread(q1: f64, med: f64, q3: f64) -> f64 {
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Traced minus untraced, as a share of the untraced median, per metric
/// both report.
fn overhead_json(untraced: &[ChildRun], traced: &ChildRun) -> String {
    let rows: Vec<String> = spec::all_metrics()
        .filter_map(|(name, _, _)| {
            let values: Vec<f64> = untraced
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            let (_, base, _) = quartiles(&values);
            let t = traced.metrics.get(name)?;
            (base != 0.0).then(|| format!("{}: {}", json::escape(name), (t - base) / base))
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// Cores, CPU model, BitEngine kernels, commit, `QEC_*` environment and
/// seed: what a reader needs to tell two outputs' hosts apart.
fn host(seed: u64) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        });
    let kernels: Vec<String> = BitKernel::available()
        .into_iter()
        .map(|k| json::escape(k.name()))
        .collect();
    let sha = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("QEC_"))
        .collect();
    env.sort();
    let opt = |s: Option<String>| s.map_or("null".to_string(), |s| json::escape(&s));
    format!(
        "{{\"cores\": {cores}, \"cpu_model\": {}, \"kernels\": [{}], \"git_sha\": {}, \"qec_env\": {{{}}}, \"seed\": {seed}}}",
        opt(cpu),
        kernels.join(", "),
        opt(sha),
        env.iter()
            .map(|(k, v)| format!("{}: {}", json::escape(k), json::escape(v)))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// One line per (workload, end-to-end metric): median and quartiles.
fn print_summary(doc: &str) {
    let Ok(v) = json::parse(doc) else { return };
    let Some(workloads) = v.get("workloads") else {
        return;
    };
    println!(
        "{:<16} {:<24} {:>12} {:>12} {:>12} {:>8}",
        "workload", "metric", "q1", "median", "q3", "spread"
    );
    for (w, body) in workloads.as_map() {
        for (m, s) in body.get("summary").map(Value::as_map).unwrap_or_default() {
            let f = |k: &str| s.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            println!(
                "{w:<16} {m:<24} {:>12.4} {:>12.4} {:>12.4} {:>7.1}%",
                f("q1"),
                f("median"),
                f("q3"),
                100.0 * f("spread")
            );
        }
    }
}
