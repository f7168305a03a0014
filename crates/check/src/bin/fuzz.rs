//! Differential fuzz driver.
//!
//! ```text
//! fuzz [--seed S] [--cases N] [--bits-every K] [--datalog-every K] [--corpus-dir DIR]
//! ```
//!
//! Runs `N` seeded cases through the full engine-option matrix and
//! exits non-zero on the first divergence, after shrinking it and (when
//! `--corpus-dir` is given) writing the minimal replayable case there as
//! `shrunk-<seed>.case`.

use qec_check::{fuzz_many, run_case, shrink_case, Case, Divergence};
use std::time::Instant;

struct Args {
    seed: u64,
    cases: usize,
    bits_every: usize,
    datalog_every: usize,
    corpus_dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 0xC1C0,
        cases: 200,
        bits_every: 16,
        datalog_every: 16,
        corpus_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = parse(&value("--seed")?)?,
            "--cases" => args.cases = parse(&value("--cases")?)? as usize,
            "--bits-every" => args.bits_every = parse(&value("--bits-every")?)? as usize,
            "--datalog-every" => args.datalog_every = parse(&value("--datalog-every")?)? as usize,
            "--corpus-dir" => args.corpus_dir = Some(value("--corpus-dir")?.into()),
            "--help" | "-h" => {
                println!(
                    "usage: fuzz [--seed S] [--cases N] [--bits-every K] \
                     [--datalog-every K] [--corpus-dir DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn parse(s: &str) -> Result<u64, String> {
    s.parse().map_err(|e| format!("bad number {s:?}: {e}"))
}

/// The shrink oracle: the candidate still fails (for a real reason)
/// under its own single recorded configuration.
fn still_fails(c: &Case) -> bool {
    matches!(run_case(c, &[c.options], None, false, false), Err(d) if d.is_real())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz: {e}");
            std::process::exit(2);
        }
    };

    let start = Instant::now();
    let summary = fuzz_many(args.seed, args.cases, args.bits_every, args.datalog_every);
    let elapsed = start.elapsed();
    let rate = summary.cases_passed as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "fuzz: seed={:#x} cases={} classical={} panda-c={} datalog={} configs={} word-gates={} \
         elapsed={:.2}s rate={:.1} cases/s",
        args.seed,
        summary.cases_passed,
        summary.classical_cases,
        summary.panda_c_cases,
        summary.datalog_passed,
        summary.configs,
        summary.word_gates,
        elapsed.as_secs_f64(),
        rate
    );

    if let Some((dcase, d)) = summary.datalog_failure {
        // Datalog cases have no shrinker; the serialized case is small
        // enough to replay directly.
        eprintln!("fuzz: DATALOG DIVERGENCE on seed {}: {d}", dcase.seed);
        if let Some(dir) = &args.corpus_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("fuzz: cannot create {}: {e}", dir.display());
            } else {
                let path = dir.join(format!("failed-{}.dlcase", dcase.seed));
                match std::fs::write(&path, qec_check::format_datalog_case(&dcase)) {
                    Ok(()) => eprintln!("fuzz: wrote {}", path.display()),
                    Err(e) => eprintln!("fuzz: cannot write {}: {e}", path.display()),
                }
            }
        }
        std::process::exit(1);
    }

    let Some((case, divergence)) = summary.failure else {
        println!("fuzz: 0 divergences");
        return;
    };

    eprintln!("fuzz: DIVERGENCE on seed {}: {divergence}", case.seed);
    let mut case = case;
    if let Some(opts) = divergence.options() {
        case.options = opts;
    }
    if matches!(divergence, Divergence::Harness(_)) {
        // A harness bug has no engine configuration to pin; report it
        // without shrinking (the shrink oracle only accepts real
        // divergences).
        eprintln!("fuzz: harness error, nothing to shrink");
        std::process::exit(1);
    }

    eprintln!("fuzz: shrinking...");
    let small = shrink_case(&case, &still_fails);
    let replay = run_case(&small, &[small.options], None, false, false);
    eprintln!(
        "fuzz: shrunk to query {:?}, {} rows total, n={}, options {:?}",
        small.query,
        small.rels.iter().map(|(_, r)| r.len()).sum::<usize>(),
        small.n,
        small.options
    );
    if let Err(d) = replay {
        eprintln!("fuzz: shrunk case still fails with: {d}");
    }

    if let Some(dir) = args.corpus_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("fuzz: cannot create {}: {e}", dir.display());
        } else {
            let path = dir.join(format!("shrunk-{}.case", small.seed));
            match std::fs::write(&path, qec_check::format_case(&small)) {
                Ok(()) => eprintln!("fuzz: wrote {}", path.display()),
                Err(e) => eprintln!("fuzz: cannot write {}: {e}", path.display()),
            }
        }
    }
    std::process::exit(1);
}
