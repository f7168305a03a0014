//! Differential checking for recursive Datalog fixpoints.
//!
//! A [`DatalogCase`] is a seeded (program, graph, bounds) triple. The
//! stage runs the RAM semi-naive reference, the provenance extraction
//! (whose evaluation under the concrete semiring must reproduce the
//! reference annotations), the compiled circuit's RAM interpretation,
//! and the lowered word circuit under the full engine-options matrix —
//! every decoded output must be bit-identical to the reference.
//!
//! Cases serialize as `*.dlcase` text files (see [`format_datalog_case`])
//! so failures become permanent corpus regressions, mirroring the CQ
//! corpus format.

use crate::case::EngineOptions;
use crate::differ::{digest, harness, Divergence};
use qec_circuit::{decode_relation, CompileOptions, CompiledCircuit, Mode};
use qec_datalog::{
    compile, database, eval_provenance, provenance, result_relation, seminaive, workloads,
    DatalogProgram, FixpointBounds,
};
use std::path::{Path, PathBuf};

/// A self-contained Datalog differential case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatalogCase {
    /// Generator seed (provenance only).
    pub seed: u64,
    /// Key values range over `0..domain`; also the per-EDB row capacity
    /// and (by default) the delta-round count, so Boolean/min-tropical
    /// circuits compute the *true* fixpoint.
    pub domain: u64,
    /// Delta rounds unrolled after round 0.
    pub rounds: usize,
    /// The program, one line of `parse_program` syntax.
    pub program: String,
    /// Rows per EDB predicate (canonical column order: keys, then the
    /// weight column for `*`-annotated predicates).
    pub rels: Vec<(String, Vec<Vec<u64>>)>,
}

/// Statistics from one passed Datalog case.
#[derive(Clone, Copy, Debug, Default)]
pub struct DatalogOutcome {
    /// Engine configurations compiled and evaluated.
    pub configs: usize,
    /// Word-level gate count of the lowered fixpoint circuit.
    pub word_gates: usize,
    /// Provenance DAG nodes over the output predicate.
    pub prov_nodes: usize,
}

/// Generates a seeded case, rotating through the three graph workloads
/// (transitive closure, reachability, shortest path) with a random
/// graph over a small domain.
pub fn gen_datalog_case(seed: u64) -> DatalogCase {
    let mut rng = crate::rng::Rng::new(seed ^ 0x0da7_a106);
    let domain = 3 + rng.below(3); // 3..=5
    let edges = domain as usize + rng.below(domain + 1) as usize;
    match seed % 3 {
        0 => DatalogCase {
            seed,
            domain,
            rounds: domain as usize,
            program: workloads::TRANSITIVE_CLOSURE.to_string(),
            rels: vec![(
                "edge".into(),
                workloads::random_edges(domain, edges, rng.next_u64()),
            )],
        },
        1 => DatalogCase {
            seed,
            domain,
            rounds: domain as usize,
            program: workloads::REACHABILITY.to_string(),
            rels: vec![
                (
                    "edge".into(),
                    workloads::random_edges(domain, edges, rng.next_u64()),
                ),
                ("start".into(), workloads::start_rows(1 + rng.below(2))),
            ],
        },
        _ => DatalogCase {
            seed,
            domain,
            rounds: domain as usize,
            program: workloads::SHORTEST_PATH.to_string(),
            rels: vec![(
                "edge".into(),
                workloads::random_weighted_edges(domain, edges, 6, rng.next_u64()),
            )],
        },
    }
}

/// Runs one Datalog case through reference → provenance → compiled
/// circuit (RAM) → lowered word circuit under every matrix point.
pub fn run_datalog_case(
    case: &DatalogCase,
    matrix: &[EngineOptions],
) -> Result<DatalogOutcome, Divergence> {
    let dp = DatalogProgram::parse(&case.program)
        .map_err(|e| harness(format!("program rejected: {e}")))?;
    let rels: Vec<(&str, Vec<Vec<u64>>)> = case
        .rels
        .iter()
        .map(|(n, r)| (n.as_str(), r.clone()))
        .collect();
    let db = database(&dp, &rels).map_err(|e| harness(format!("bad instance: {e}")))?;
    let edb_rows = case
        .rels
        .iter()
        .map(|(_, r)| r.len() as u64)
        .max()
        .unwrap_or(1)
        .max(1);
    let bounds = FixpointBounds {
        domain: case.domain,
        edb_rows,
        rounds: case.rounds,
    };

    // Stage 1: the RAM semi-naive reference is ground truth.
    let reference =
        seminaive(&dp, &db, bounds.rounds).map_err(|e| harness(format!("reference: {e}")))?;
    let want = result_relation(&dp, &reference);

    // Stage 2: provenance polynomials must evaluate back to the
    // reference annotations under the concrete semiring.
    let pr = provenance(&dp, &db, bounds.rounds).map_err(|e| Divergence::Datalog {
        detail: format!("provenance extraction failed: {e}"),
    })?;
    let back = eval_provenance(&dp, &pr);
    if back != reference.tuples {
        return Err(Divergence::Datalog {
            detail: format!(
                "provenance evaluation disagrees with the reference: got {back:?}, want {:?}",
                reference.tuples
            ),
        });
    }
    let roots: Vec<u32> = pr.outputs.values().copied().collect();

    // Stage 3: the compiled fixpoint circuit, RAM-interpreted.
    let fx = compile(&dp, &bounds).map_err(|e| Divergence::Datalog {
        detail: format!("compile failed: {e}"),
    })?;
    let ram = fx
        .rc
        .evaluate_ram(&db)
        .map_err(|e| Divergence::Datalog {
            detail: format!("circuit RAM interpretation failed: {e}"),
        })?
        .pop()
        .ok_or_else(|| Divergence::Datalog {
            detail: "circuit has no output".into(),
        })?;
    if ram != want {
        return Err(Divergence::Datalog {
            detail: format!(
                "circuit RAM interpretation diverged: got {}, want {}",
                digest(&ram),
                digest(&want)
            ),
        });
    }

    // Stage 4: the lowered word circuit under the options matrix.
    let lowered = fx.rc.lower_with(Mode::Build, &CompileOptions::sequential());
    let inputs = lowered
        .layout
        .values(&db)
        .map_err(|e| harness(e.to_string()))?;
    let mut outcome = DatalogOutcome {
        word_gates: lowered.circuit.size() as usize,
        prov_nodes: pr.circuit.dag_size(&roots),
        ..DatalogOutcome::default()
    };
    for opts in matrix {
        let co = opts.compile_options();
        let engine = CompiledCircuit::compile_with(&lowered.circuit, &co).map_err(|e| {
            Divergence::Engine {
                options: *opts,
                stage: "compile",
                error: e.to_string(),
            }
        })?;
        let raw = engine.evaluate(&inputs).map_err(|e| Divergence::Engine {
            options: *opts,
            stage: "evaluate",
            error: e.to_string(),
        })?;
        for (schema, start, len) in &lowered.outputs {
            let got = decode_relation(schema, &raw[*start..*start + *len]);
            if got != want {
                return Err(Divergence::Output {
                    options: *opts,
                    got: digest(&got),
                    want: digest(&want),
                });
            }
        }
        outcome.configs += 1;
    }
    Ok(outcome)
}

/// Serializes `case` in the `.dlcase` corpus format;
/// [`parse_datalog_case`] inverts this.
///
/// ```text
/// qec-dlcase v1
/// seed 7
/// domain 4
/// rounds 4
/// program path(x, y) :- edge(x, y). path(x, z) :- path(x, y), edge(y, z).
/// rel edge 2
/// 0,1
/// 1,2
/// ```
pub fn format_datalog_case(case: &DatalogCase) -> String {
    let mut out = String::new();
    out.push_str("qec-dlcase v1\n");
    out.push_str(&format!("seed {}\n", case.seed));
    out.push_str(&format!("domain {}\n", case.domain));
    out.push_str(&format!("rounds {}\n", case.rounds));
    out.push_str(&format!("program {}\n", case.program));
    for (name, rows) in &case.rels {
        out.push_str(&format!("rel {} {}\n", name, rows.len()));
        for row in rows {
            let cells: Vec<String> = row.iter().map(u64::to_string).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
    }
    out
}

/// Parses the `.dlcase` corpus format; strictly error-returning, like
/// [`crate::corpus::parse_case`].
pub fn parse_datalog_case(text: &str) -> Result<DatalogCase, String> {
    let err = |line: usize, msg: String| format!("dlcase line {line}: {msg}");
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
    let mut next = |what: &str| {
        lines
            .next()
            .ok_or_else(|| format!("dlcase ended early, expected {what}"))
    };
    let field = |(ln, line): (usize, &str), key: &str| -> Result<String, String> {
        line.strip_prefix(key)
            .and_then(|r| r.strip_prefix(' '))
            .map(str::to_string)
            .ok_or_else(|| err(ln, format!("expected \"{key} ...\", found {line:?}")))
    };
    let parse_u64 = |ln: usize, what: &str, s: &str| -> Result<u64, String> {
        s.parse::<u64>()
            .map_err(|e| err(ln, format!("bad {what} {s:?}: {e}")))
    };

    let (ln, header) = next("header")?;
    if header != "qec-dlcase v1" {
        return Err(err(
            ln,
            format!("expected \"qec-dlcase v1\", found {header:?}"),
        ));
    }
    let at = next("seed")?;
    let seed = parse_u64(at.0, "seed", &field(at, "seed")?)?;
    let at = next("domain")?;
    let domain = parse_u64(at.0, "domain", &field(at, "domain")?)?;
    if domain == 0 || domain > 64 {
        return Err(err(
            at.0,
            format!("domain must be in 1..=64, found {domain}"),
        ));
    }
    let at = next("rounds")?;
    let rounds = parse_u64(at.0, "rounds", &field(at, "rounds")?)? as usize;
    if rounds > 64 {
        return Err(err(at.0, format!("implausible round count {rounds}")));
    }
    let at = next("program")?;
    let program = field(at, "program")?;

    let mut rels: Vec<(String, Vec<Vec<u64>>)> = Vec::new();
    while let Some((ln, line)) = lines.next() {
        let rest = line.strip_prefix("rel ").ok_or_else(|| {
            err(
                ln,
                format!("expected \"rel <name> <count>\", found {line:?}"),
            )
        })?;
        let mut toks = rest.split_whitespace();
        let name = toks
            .next()
            .ok_or_else(|| err(ln, "missing relation name".into()))?
            .to_string();
        let count_tok = toks
            .next()
            .ok_or_else(|| err(ln, "missing row count".into()))?;
        let count = parse_u64(ln, "row count", count_tok)? as usize;
        if count > 10_000 {
            return Err(err(ln, format!("implausible row count {count}")));
        }
        if rels.iter().any(|(n, _)| *n == name) {
            return Err(err(ln, format!("duplicate relation {name:?}")));
        }
        let mut rows = Vec::with_capacity(count);
        for _ in 0..count {
            let (rln, rline) = lines.next().ok_or_else(|| {
                err(
                    ln,
                    format!("relation {name} declares {count} rows, file ended early"),
                )
            })?;
            let row: Result<Vec<u64>, String> = rline
                .split(',')
                .map(|cell| parse_u64(rln, "cell", cell.trim()))
                .collect();
            rows.push(row?);
        }
        rels.push((name, rows));
    }
    Ok(DatalogCase {
        seed,
        domain,
        rounds,
        program,
        rels,
    })
}

/// Loads every `*.dlcase` file under `dir`, sorted by file name.
///
/// # Errors
/// Returns a description naming the offending file on IO or parse
/// failure.
pub fn load_datalog_corpus(dir: &Path) -> Result<Vec<(PathBuf, DatalogCase)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "dlcase"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let case = parse_datalog_case(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((path, case));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differ::options_matrix;

    #[test]
    fn all_three_workloads_pass_the_matrix() {
        for seed in [0u64, 1, 2] {
            let case = gen_datalog_case(seed);
            let outcome = run_datalog_case(&case, &options_matrix(seed))
                .unwrap_or_else(|d| panic!("seed {seed} ({}): {d}", case.program));
            assert_eq!(outcome.configs, 4);
            assert!(outcome.word_gates > 0);
        }
    }

    #[test]
    fn dlcase_format_roundtrips() {
        let case = gen_datalog_case(5);
        let text = format_datalog_case(&case);
        let back = parse_datalog_case(&text).unwrap();
        assert_eq!(back, case);
    }

    #[test]
    fn malformed_dlcase_files_error_with_line_numbers() {
        let cases = [
            ("", "ended early"),
            ("qec-dlcase v2\n", "qec-dlcase v1"),
            ("qec-dlcase v1\nseed x\n", "bad seed"),
            ("qec-dlcase v1\nseed 1\ndomain 0\n", "domain must be"),
            (
                "qec-dlcase v1\nseed 1\ndomain 4\nrounds 4\nprogram p(x) :- e(x).\nrel e 2\n0\n",
                "ended early",
            ),
            (
                "qec-dlcase v1\nseed 1\ndomain 4\nrounds 4\nprogram p(x) :- e(x).\nrel e 1\nzz\n",
                "bad cell",
            ),
        ];
        for (text, needle) in cases {
            let e = parse_datalog_case(text).expect_err(text);
            assert!(e.contains(needle), "error {e:?} missing {needle:?}");
        }
    }

    #[test]
    fn a_broken_instance_is_a_harness_error_not_a_panic() {
        let mut case = gen_datalog_case(0);
        case.rels[0].1[0].push(9); // wrong arity
        let d = run_datalog_case(&case, &options_matrix(0)).unwrap_err();
        assert!(!d.is_real(), "setup failures are harness errors: {d}");
    }
}
