//! `ledger compare old.json new.json`: one row per (workload,
//! end-to-end metric) with both sides' quartiles, the change, the bound
//! and a verdict, then the same per per-layer metric, over the untraced
//! runs where they report it and the traced run otherwise. Either
//! side may be a comma-separated list of outputs (one per alternating
//! pair); their runs concatenate in the order given.
//!
//! Verdicts follow the rule for measuring in a small sandbox: a gain
//! needs at least ten pairs, the new side winning at least nine in ten
//! of them, and its median moving by more than the old side's
//! interquartile distance; a metric whose run-to-run spread exceeds its
//! bound is `unresolved` unless every new run beats every old run;
//! otherwise a median worse by more than the bound is `worse`.

use std::process::ExitCode;

use qec_obs::json::{self, Value};

use crate::run::spread;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::usage;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Paired runs a gain needs before it can be claimed.
const MIN_PAIRS: usize = 10;

/// The verdict on one lower-is-better metric. `old` and `new` are the
/// runs of each side, paired by index (the same seed on both sides).
pub fn verdict(bound: f64, old: &[f64], new: &[f64]) -> Verdict {
    // How much better (lower) `a` is than `b`; negative when worse.
    let gain = |a: f64, b: f64| b - a;
    let (oq1, om, oq3) = quartiles(old);
    let (nq1, nm, nq3) = quartiles(new);
    let pairs = old.len().min(new.len());
    let wins = old
        .iter()
        .zip(new)
        .filter(|(o, n)| gain(**n, **o) > 0.0)
        .count();
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain(nm, om) > oq3 - oq1 {
        return Verdict::Better;
    }
    let noisy = spread(oq1, om, oq3).max(spread(nq1, nm, nq3)) > bound;
    let all_beat = new.iter().all(|n| old.iter().all(|o| gain(*n, *o) > 0.0));
    if noisy && !all_beat {
        return Verdict::Unresolved;
    }
    if om != 0.0 && -gain(nm, om) / om.abs() > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// The outputs named by a comma-separated list.
fn load(paths: &str) -> Result<Vec<Value>, String> {
    paths
        .split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

/// Values of end-to-end metric `metric` over the runs of `workload`.
fn runs_of(docs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|d| d.get("workloads")?.get(workload)?.get("runs")?.as_array())
        .flatten()
        .filter_map(|r| r.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

/// The traced value of a per-layer metric (the first output that has it).
fn traced_of(docs: &[Value], workload: &str, metric: &str) -> Option<f64> {
    docs.iter().find_map(|d| {
        d.get("workloads")?
            .get(workload)?
            .get("traced")?
            .get("run")?
            .get("metrics")?
            .get(metric)?
            .as_f64()
    })
}

fn change(old: f64, new: f64) -> String {
    if old == 0.0 {
        "-".into()
    } else {
        format!("{:+.1}%", 100.0 * (new - old) / old.abs())
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let [old_path, new_path] = args else {
        return usage("compare needs two ledger outputs");
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ledger: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<String> = old
        .first()
        .and_then(|d| d.get("workloads"))
        .map(|w| w.keys().into_iter().map(String::from).collect())
        .unwrap_or_default();

    println!(
        "{:<16} {:<24} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "old q1 / median / q3", "new q1 / median / q3", "change", "bound"
    );
    for w in &workloads {
        for m in &END_TO_END {
            row(w, m.name, Some(m.bound), false, &old, &new);
        }
    }
    println!("\nper-layer, over the untraced runs where they report it, else the traced run:");
    for w in &workloads {
        for l in &PER_LAYER {
            row(w, l.name, None, l.better == "higher", &old, &new);
        }
    }
    ExitCode::SUCCESS
}

/// One (workload, metric) row. A per-layer metric has no bound: its
/// verdict takes a bound of 0, so a count that repeats exactly is `worse`
/// on any loss, and a timing is `unresolved` unless it meets the rule for
/// a gain or every new run beats every old one. A traced-only metric has
/// one run per side and no verdict.
fn row(w: &str, name: &str, bound: Option<f64>, higher: bool, old: &[Value], new: &[Value]) {
    let (mut o, mut n) = (runs_of(old, w, name), runs_of(new, w, name));
    let traced_only = o.is_empty() || n.is_empty();
    if traced_only {
        if bound.is_some() {
            // End-to-end metrics come from untraced runs only.
            return;
        }
        match (traced_of(old, w, name), traced_of(new, w, name)) {
            (Some(to), Some(tn)) => (o, n) = (vec![to], vec![tn]),
            _ => return,
        }
    }
    let ((oq1, om, oq3), (nq1, nm, nq3)) = (quartiles(&o), quartiles(&n));
    let verdict = if traced_only {
        "-"
    } else {
        // `verdict` reads lower as better.
        let flip = |v: &mut Vec<f64>| v.iter_mut().for_each(|x| *x = -*x);
        if higher {
            flip(&mut o);
            flip(&mut n);
        }
        verdict(bound.unwrap_or(0.0), &o, &n).name()
    };
    println!(
        "{w:<16} {name:<24} {:>30} {:>30} {:>8} {:>6}  {verdict}",
        format!("{oq1:.4} / {om:.4} / {oq3:.4}"),
        format!("{nq1:.4} / {nm:.4} / {nq3:.4}"),
        change(om, nm),
        bound.map_or("-".into(), |b| format!("{:.0}%", 100.0 * b)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUND: f64 = 0.1;

    #[test]
    fn a_consistent_drop_in_latency_is_better() {
        let old = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let new: Vec<f64> = old.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(BOUND, &old, &new), Verdict::Better);
        // Fewer than ten pairs claim no gain.
        assert_eq!(verdict(BOUND, &old[..9], &new[..9]), Verdict::Same);
    }

    #[test]
    fn latency_lost_beyond_the_bound_is_worse() {
        let old = [100.0, 101.0, 99.0, 100.5, 100.0];
        let new = [120.0, 121.0, 119.0, 120.5, 120.0];
        assert_eq!(verdict(BOUND, &old, &new), Verdict::Worse);
    }

    #[test]
    fn a_change_within_the_bound_is_the_same() {
        let old = [10.0, 10.2, 9.9, 10.1, 10.0];
        let new = [10.1, 10.3, 10.0, 10.2, 10.1];
        assert_eq!(verdict(BOUND, &old, &new), Verdict::Same);
        // Counts that repeat exactly are the same too.
        assert_eq!(verdict(0.0, &[4260.0; 5], &[4260.0; 5]), Verdict::Same);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let old = [10.0, 14.0, 8.0, 12.0, 9.0];
        let new = [11.0, 8.5, 13.0, 10.0, 12.5];
        assert_eq!(verdict(BOUND, &old, &new), Verdict::Unresolved);
        // Every new run beating every old run resolves it, though a
        // shift inside the old interquartile range is no claimable gain.
        let new = [7.5, 7.0, 7.9, 7.2, 7.6];
        assert_eq!(verdict(BOUND, &old, &new), Verdict::Same);
    }
}
