//! `qec` — the query-circuits command line.
//!
//! Compiles a conjunctive query into an oblivious circuit and reports the
//! bound, proof sequence, circuit sizes, and (optionally) evaluates it on
//! a random conforming instance.
//!
//! ```text
//! qec "Q(a, b, c) :- R(a, b), S(b, c), T(a, c)" --n 256
//! qec "Q(a, c) :- R(a, b), S(b, c)" --n 128 --evaluate
//! qec "Q(a, b, c) :- R(a, b), S(b, c), T(a, c)" --n 64 --deg "S:b:4" --lower
//! ```
//!
//! Options:
//! * `--n <N>`        cardinality bound for every atom (default 64)
//! * `--deg A:v:d`    extra degree constraint `deg_A(rest | v) ≤ d`
//! * `--lower`        also lower to a word-level circuit and print size/depth
//! * `--netlist <f>`  write the lowered circuit as a textual netlist to `f`
//! * `--plan`         print the relational circuit gate by gate
//! * `--proof`        print the Shannon-flow proof sequence (Sec. 3.4 style)
//! * `--dot <f>`      write the relational circuit as Graphviz DOT to `f`
//! * `--load R=f.csv` evaluate on CSV data for atom `R` (repeatable; atoms
//!   without `--load` get random data)
//! * `--evaluate`     evaluate on a random instance and cross-check the
//!   RAM baseline
//! * `--seed <s>`     RNG seed for `--evaluate` (default 1)

use std::process::ExitCode;

use query_circuits::core::{compile_fcq, naive_circuit, paper_cost, OutputSensitive};
use query_circuits::query::{baseline::evaluate_pairwise, parse_cq, Cq};
use query_circuits::relation::{random_relation, Database, DcSet, DegreeConstraint, Var, VarSet};

struct Options {
    query: String,
    n: u64,
    degs: Vec<(String, String, u64)>,
    lower: bool,
    evaluate: bool,
    seed: u64,
    netlist: Option<String>,
    plan: bool,
    proof: bool,
    dot: Option<String>,
    loads: Vec<(String, String)>,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        query: String::new(),
        n: 64,
        degs: Vec::new(),
        lower: false,
        evaluate: false,
        seed: 1,
        netlist: None,
        plan: false,
        proof: false,
        dot: None,
        loads: Vec::new(),
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--n" => {
                opts.n = args
                    .next()
                    .ok_or("--n needs a value")?
                    .parse()
                    .map_err(|e| format!("--n: {e}"))?;
            }
            "--deg" => {
                let spec = args.next().ok_or("--deg needs atom:var:bound")?;
                let parts: Vec<&str> = spec.split(':').collect();
                if parts.len() != 3 {
                    return Err(format!("--deg expects atom:var:bound, got {spec}"));
                }
                let bound = parts[2].parse().map_err(|e| format!("--deg bound: {e}"))?;
                opts.degs
                    .push((parts[0].to_string(), parts[1].to_string(), bound));
            }
            "--lower" => opts.lower = true,
            "--plan" => opts.plan = true,
            "--proof" => opts.proof = true,
            "--dot" => opts.dot = Some(args.next().ok_or("--dot needs a path")?),
            "--load" => {
                let spec = args.next().ok_or("--load needs name=path.csv")?;
                let (name, path) = spec.split_once('=').ok_or("--load expects name=path.csv")?;
                opts.loads.push((name.to_string(), path.to_string()));
            }
            "--netlist" => opts.netlist = Some(args.next().ok_or("--netlist needs a path")?),
            "--evaluate" => opts.evaluate = true,
            "--seed" => {
                opts.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--help" | "-h" => {
                return Err("usage: qec \"Q(a,b) :- R(a,b), ...\" [--n N] [--deg atom:var:d] [--lower] [--netlist f] [--dot f] [--plan] [--proof] [--load R=f.csv] [--evaluate] [--seed s]".into());
            }
            q if opts.query.is_empty() => opts.query = q.to_string(),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if opts.query.is_empty() {
        return Err("missing query (try --help)".into());
    }
    Ok(opts)
}

fn build_dc(cq: &Cq, opts: &Options) -> Result<DcSet, String> {
    let mut v: Vec<DegreeConstraint> = cq
        .atoms
        .iter()
        .map(|a| DegreeConstraint::cardinality(a.vars, opts.n))
        .collect();
    for (atom_name, var_name, bound) in &opts.degs {
        let atom = cq
            .atoms
            .iter()
            .find(|a| &a.name == atom_name)
            .ok_or_else(|| format!("--deg: no atom named {atom_name}"))?;
        let var_idx = cq
            .var_names
            .iter()
            .position(|n| n == var_name)
            .ok_or_else(|| format!("--deg: no variable named {var_name}"))?;
        let on = VarSet::singleton(Var(var_idx as u32));
        if !on.is_subset(atom.vars) {
            return Err(format!(
                "--deg: {var_name} is not an attribute of {atom_name}"
            ));
        }
        v.push(DegreeConstraint::degree(on, atom.vars, *bound));
    }
    Ok(DcSet::from_vec(v))
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    let cq = parse_cq(&opts.query).map_err(|e| e.to_string())?;
    let dc = build_dc(&cq, &opts)?;
    println!("query      : {cq}");
    println!(
        "constraints: {}",
        dc.iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );

    if cq.is_full() {
        let compiled = compile_fcq(&cq, &dc).map_err(|e| e.to_string())?;
        println!(
            "LOGDAPB    : {} (worst-case output ≤ 2^{})",
            compiled.bound.log_value, compiled.bound.log_value
        );
        println!(
            "proof      : {} steps, order {:?}, certificate cost {}",
            compiled.proof.steps.len(),
            compiled
                .proof
                .order
                .iter()
                .map(|v| cq.var_name(*v).to_string())
                .collect::<Vec<_>>(),
            compiled.proof.log_cost
        );
        println!(
            "rel circuit: {} gates, {} branches, paper cost {}",
            compiled.rc.nodes.len(),
            compiled.branches,
            paper_cost(&compiled.rc)
        );
        if opts.proof {
            print!("{}", compiled.proof);
        }
        if opts.plan {
            print!("{}", compiled.rc);
        }
        if let Some(path) = &opts.dot {
            std::fs::write(path, compiled.rc.to_dot()).map_err(|e| format!("--dot: {e}"))?;
            println!("dot        : wrote circuit graph to {path}");
        }
        let (naive, _) = naive_circuit(&cq, &dc).map_err(|e| e.to_string())?;
        println!(
            "vs naive   : cost {} ({:.1}x)",
            paper_cost(&naive),
            paper_cost(&naive).to_f64() / paper_cost(&compiled.rc).to_f64()
        );
        if opts.lower || opts.netlist.is_some() {
            let lowered = compiled.rc.lower();
            println!(
                "word circuit: {} gates, depth {}",
                lowered.circuit.size(),
                lowered.circuit.depth()
            );
            if let Some(path) = &opts.netlist {
                let text = query_circuits::circuit::write_netlist(&lowered.circuit);
                std::fs::write(path, &text).map_err(|e| format!("--netlist: {e}"))?;
                println!("netlist    : wrote {} bytes to {path}", text.len());
            }
        }
        if opts.evaluate {
            let db = build_db(&cq, &opts)?;
            let got = compiled.rc.evaluate_ram(&db).map_err(|e| e.to_string())?;
            let expect = evaluate_pairwise(&cq, &db).map_err(|e| e.to_string())?;
            if got[0] != expect {
                return Err("MISMATCH against RAM baseline (bug)".into());
            }
            println!(
                "evaluate   : {} result tuples — matches the RAM baseline",
                got[0].len()
            );
        }
    } else {
        let os = OutputSensitive::build(&cq, &dc, 10_000).map_err(|e| e.to_string())?;
        println!("da-fhtw    : {} (log₂)", os.width);
        let count_rc = os.count_circuit().map_err(|e| e.to_string())?;
        println!("family 1   : cost {} (computes OUT)", paper_cost(&count_rc));
        if opts.evaluate {
            let db = build_db(&cq, &opts)?;
            let out = os.count_ram(&db).map_err(|e| e.to_string())?;
            let query_rc = os.query_circuit(out).map_err(|e| e.to_string())?;
            println!("family 2   : cost {} at OUT = {out}", paper_cost(&query_rc));
            let got = os.evaluate_ram(&db).map_err(|e| e.to_string())?;
            let expect = evaluate_pairwise(&cq, &db).map_err(|e| e.to_string())?;
            if got != expect {
                return Err("MISMATCH against RAM baseline (bug)".into());
            }
            println!(
                "evaluate   : {} result tuples — matches the RAM baseline",
                got.len()
            );
        } else {
            let query_rc = os.query_circuit(opts.n).map_err(|e| e.to_string())?;
            println!(
                "family 2   : cost {} at OUT = {} (pass --evaluate for the real OUT)",
                paper_cost(&query_rc),
                opts.n
            );
        }
    }
    Ok(())
}

fn random_db(cq: &Cq, rows: usize, seed: u64) -> Database {
    let mut db = Database::new();
    for (i, a) in cq.atoms.iter().enumerate() {
        db.insert(
            a.name.clone(),
            random_relation(a.vars.to_vec(), rows, seed * 37 + i as u64),
        );
    }
    db
}

/// Random data for every atom, overridden by `--load` CSVs.
fn build_db(cq: &Cq, opts: &Options) -> Result<Database, String> {
    let mut db = random_db(cq, (opts.n - opts.n / 8).max(1) as usize, opts.seed);
    for (name, path) in &opts.loads {
        let atom = cq
            .atoms
            .iter()
            .find(|a| &a.name == name)
            .ok_or_else(|| format!("--load: no atom named {name}"))?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("--load {path}: {e}"))?;
        let rel = query_circuits::relation::Relation::from_csv(atom.vars.to_vec(), &text)
            .map_err(|(line, msg)| format!("--load {path}:{line}: {msg}"))?;
        if rel.len() as u64 > opts.n {
            return Err(format!(
                "--load {name}: {} tuples exceed the declared bound {} (raise --n)",
                rel.len(),
                opts.n
            ));
        }
        db.insert(name.clone(), rel);
    }
    Ok(db)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qec: {e}");
            ExitCode::FAILURE
        }
    }
}
