//! The differential driver.
//!
//! [`run_case`] pushes one [`Case`] through every layer of the stack and
//! cross-checks the results:
//!
//! 1. RAM references: `evaluate_pairwise` (ground truth), `generic_join`,
//!    the flat `yannakakis` baseline (acyclic queries), and
//!    `OutputSensitive::evaluate_ram` must all agree.
//! 2. The relational circuits' RAM interpreter must match, on the
//!    classical circuit and on the one the planner ([`qec_core::plan`])
//!    keeps, which is what `qec-serve` compiles. Every later stage runs
//!    the planned circuit.
//! 3. The lowered word circuit is checked for a flat-tape
//!    serialize/decode round-trip (gate-for-gate equality). The builder's
//!    rewrite rules are checked next: the same relational circuit built
//!    by the oracle builder (`lower_without_cse`: no rule, no hash-cons)
//!    must give the rule-built circuit's outcome, in `Circuit::evaluate`
//!    and in the word engine. Then the rule-built circuit is compiled
//!    and evaluated under every [`EngineOptions`] point in the sweep
//!    matrix; each decoded output must equal the RAM ground truth.
//! 4. Optionally the bit-level lowering and bit optimizer run as well,
//!    plus a bit-tape round-trip and the bitsliced `BitEngine`: the tape
//!    is compiled once (the bit compile takes no options) and every
//!    available kernel must reproduce per-instance
//!    `BitCircuit::evaluate` lane for lane on a random batch, and the
//!    case input's unpacked output must match the word interpreter.
//!    Finally two networked GMW sessions must reproduce the same
//!    reference on a small batch, failing assertion gate included.
//!
//! Structural validity needs no stage of its own: every circuit is
//! checked where it is made ([`Circuit::from_raw`],
//! [`BitCircuit::from_raw`](qec_circuit::BitCircuit::from_raw)), and an
//! optimizing compile checks the optimizer's assertion-provenance map.
//!
//! Any disagreement comes back as a [`Divergence`] naming the stage and
//! configuration, ready for the shrinker.

use crate::case::{Case, EngineOptions};
use qec_circuit::{
    decode_relation, lower_with, optimize_bits_with, BitEvalScratch, BitKernel, BitTape, Circuit,
    CompileOptions, CompiledBitCircuit, CompiledCircuit, EvalError, Gate, Mode, WordTape,
};
use qec_core::{naive_circuit, plan, Construction, OutputSensitive};
use qec_query::baseline::{evaluate_pairwise, generic_join, yannakakis};
use qec_relation::Relation;
use std::fmt;

/// Why a case failed. Every variant names the stage precisely enough to
/// replay by hand.
#[derive(Clone, Debug)]
pub enum Divergence {
    /// The harness itself could not set the case up (unparseable query,
    /// missing rows, …) — a generator or corpus bug, not an engine bug.
    Harness(String),
    /// Two RAM-level reference evaluators disagree.
    Baseline {
        /// Which reference broke ranks with `evaluate_pairwise`.
        family: &'static str,
        /// Human-readable got/want detail.
        detail: String,
    },
    /// A stage's own cross-check failed: the planner failed on a case
    /// whose classical circuit was built, a tape round trip did not give
    /// back the circuit it encoded, or the `BitEngine` disagreed with the
    /// bit interpreter.
    Check {
        /// The stage whose check failed.
        stage: &'static str,
        /// What the check found.
        error: String,
    },
    /// Compilation or evaluation errored under one configuration.
    Engine {
        /// The failing configuration.
        options: EngineOptions,
        /// `compile` or `evaluate`.
        stage: &'static str,
        /// The engine's error.
        error: String,
    },
    /// The decoded circuit output differs from the RAM ground truth.
    Output {
        /// The failing configuration.
        options: EngineOptions,
        /// Decoded circuit output.
        got: String,
        /// RAM reference output.
        want: String,
    },
    /// The serving layer (plan cache + request coalescing) returned a
    /// result that differs from direct evaluation, or failed a request
    /// it should have served.
    Serve {
        /// What went wrong, including got/want digests on mismatch.
        detail: String,
    },
    /// The networked two-party GMW session diverged from the in-process
    /// batched reference or from plaintext evaluation, or errored where
    /// the reference did not.
    Mpc {
        /// What went wrong, including got/want digests on mismatch.
        detail: String,
    },
    /// A Datalog fixpoint stage diverged: provenance evaluation,
    /// compilation, or the circuit's RAM interpretation broke ranks
    /// with the semi-naive reference (engine-sweep mismatches reuse
    /// [`Divergence::Engine`]/[`Divergence::Output`]).
    Datalog {
        /// What went wrong, including got/want digests on mismatch.
        detail: String,
    },
}

impl Divergence {
    /// The engine configuration implicated, when the failure is tied to
    /// one; the shrinker pins replay to it.
    pub fn options(&self) -> Option<EngineOptions> {
        match self {
            Divergence::Engine { options, .. } | Divergence::Output { options, .. } => {
                Some(*options)
            }
            _ => None,
        }
    }

    /// True for real engine bugs (anything except a harness setup
    /// failure).
    pub fn is_real(&self) -> bool {
        !matches!(self, Divergence::Harness(_))
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Harness(msg) => write!(f, "harness error: {msg}"),
            Divergence::Baseline { family, detail } => {
                write!(f, "RAM baseline {family} disagrees: {detail}")
            }
            Divergence::Check { stage, error } => write!(f, "{stage} check failed: {error}"),
            Divergence::Engine {
                options,
                stage,
                error,
            } => write!(f, "{stage} failed under {options:?}: {error}"),
            Divergence::Output { options, got, want } => {
                write!(
                    f,
                    "output mismatch under {options:?}: got {got}, want {want}"
                )
            }
            Divergence::Serve { detail } => {
                write!(f, "serving layer diverged from direct evaluation: {detail}")
            }
            Divergence::Mpc { detail } => {
                write!(f, "networked GMW session diverged: {detail}")
            }
            Divergence::Datalog { detail } => {
                write!(f, "Datalog fixpoint diverged: {detail}")
            }
        }
    }
}

impl std::error::Error for Divergence {}

/// Statistics from one passed case.
#[derive(Clone, Copy, Debug)]
pub struct CaseOutcome {
    /// The construction the planner kept for the case.
    pub construction: Construction,
    /// Engine configurations compiled and evaluated.
    pub configs: usize,
    /// Word-level gate count of the lowered (planned) circuit.
    pub word_gates: usize,
    /// Bit-level gate count, when the bit pipeline was checked.
    pub bit_gates: usize,
}

/// The sweep matrix for one case: optimizer {off, on} × tracing
/// {off, on} — four configurations. Every case seed gets the same
/// matrix; the seed is part of the signature so callers stay free of
/// that choice.
pub fn options_matrix(_seed: u64) -> Vec<EngineOptions> {
    let mut matrix = Vec::with_capacity(4);
    for optimize in [false, true] {
        for traced in [false, true] {
            matrix.push(EngineOptions { optimize, traced });
        }
    }
    matrix
}

/// Test-only miscompile injection: swaps the variant of one binary gate
/// (the `index`-th swappable one, wrapping) so the acceptance check "an
/// injected miscompile is caught and shrunk" has a hook. The edited gate
/// list goes back through the checked [`Circuit::from_raw`], so the
/// mutated circuit stays structurally well-formed; only its semantics
/// change, which is exactly what the differential layer must catch.
#[derive(Clone, Copy, Debug)]
pub struct Mutation {
    /// Index into the circuit's swappable gates (taken modulo their
    /// count).
    pub index: usize,
}

/// The gate a mutation puts in place of `g`; `None` when `g` is not a
/// swappable binary gate.
fn swapped(g: Gate) -> Option<Gate> {
    Some(match g {
        Gate::Add(a, b) => Gate::Sub(a, b),
        Gate::Sub(a, b) => Gate::Add(a, b),
        Gate::Mul(a, b) => Gate::Add(a, b),
        Gate::Eq(a, b) => Gate::Lt(a, b),
        Gate::Lt(a, b) => Gate::Eq(a, b),
        Gate::And(a, b) => Gate::Or(a, b),
        Gate::Or(a, b) => Gate::And(a, b),
        Gate::Xor(a, b) => Gate::Or(a, b),
        _ => return None,
    })
}

/// Applies `m` to `c`; `None` when the circuit has no swappable gate.
pub fn mutate_circuit(c: &Circuit, m: &Mutation) -> Option<Circuit> {
    let mut gates: Vec<Gate> = c.gates().collect();
    let sites: Vec<usize> = (0..gates.len())
        .filter(|&i| swapped(gates[i]).is_some())
        .collect();
    if sites.is_empty() {
        return None;
    }
    let at = sites[m.index % sites.len()];
    gates[at] = swapped(gates[at])?;
    Circuit::from_raw(gates, c.outputs().to_vec(), c.num_inputs()).ok()
}

pub(crate) fn digest(r: &Relation) -> String {
    let rows: Vec<String> = r
        .rows()
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(u64::to_string).collect();
            format!("({})", cells.join(","))
        })
        .collect();
    format!("{:?}{{{}}}", r.schema(), rows.join(" "))
}

pub(crate) fn harness(msg: impl fmt::Display) -> Divergence {
    Divergence::Harness(msg.to_string())
}

/// Whether two builds of one program had the same outcome: equal
/// outputs, or a failing assert that observed the same value, or the
/// same other error.
fn same_outcome(a: &Result<Vec<u64>, EvalError>, b: &Result<Vec<u64>, EvalError>) -> bool {
    match (a, b) {
        (
            Err(EvalError::AssertionFailed { value: x, .. }),
            Err(EvalError::AssertionFailed { value: y, .. }),
        ) => x == y,
        _ => a == b,
    }
}

fn outcome_digest(r: &Result<Vec<u64>, EvalError>) -> String {
    match r {
        Ok(v) => {
            let bytes: Vec<u8> = v.iter().flat_map(|w| w.to_le_bytes()).collect();
            format!(
                "{} outputs (fnv {:016x})",
                v.len(),
                qec_circuit::fnv1a64(&bytes)
            )
        }
        Err(e) => e.to_string(),
    }
}

/// Runs one case through the full differential stack.
///
/// `matrix` is the engine-option sweep; `mutation` optionally injects a
/// miscompile into the word circuit before the sweep; `check_bits` also
/// pushes the circuit through the bit-level lowering and optimizer, the
/// bit tape, the `BitEngine` and GMW (markedly slower, so the fuzz loop
/// samples it); `check_serve` replays the case through the `qec-serve`
/// batching server (also sampled — it pays one extra canonical-plan
/// compile) and demands results identical to direct evaluation.
/// `check_serve` is skipped under a mutation: the server compiles from
/// query source, so an injected miscompile of the direct circuit is
/// invisible to it by construction.
pub fn run_case(
    case: &Case,
    matrix: &[EngineOptions],
    mutation: Option<&Mutation>,
    check_bits: bool,
    check_serve: bool,
) -> Result<CaseOutcome, Divergence> {
    let (cq, db, dc) = case.materialize().map_err(harness)?;

    // Stage 1: RAM references against ground truth.
    let expect = evaluate_pairwise(&cq, &db).map_err(harness)?;
    let gj = generic_join(&cq, &db).map_err(harness)?;
    if gj != expect {
        return Err(Divergence::Baseline {
            family: "generic-join",
            detail: format!("got {}, want {}", digest(&gj), digest(&expect)),
        });
    }
    if let Some(y) = yannakakis(&cq, &db).map_err(harness)? {
        if y != expect {
            return Err(Divergence::Baseline {
                family: "yannakakis",
                detail: format!("got {}, want {}", digest(&y), digest(&expect)),
            });
        }
    }
    if let Ok(os) = OutputSensitive::build(&cq, &dc, 8) {
        match os.evaluate_ram(&db) {
            Ok(r) if r != expect => {
                return Err(Divergence::Baseline {
                    family: "output-sensitive-ram",
                    detail: format!("got {}, want {}", digest(&r), digest(&expect)),
                });
            }
            Ok(_) => {}
            Err(e) => {
                return Err(Divergence::Baseline {
                    family: "output-sensitive-ram",
                    detail: format!("evaluation error: {e}"),
                });
            }
        }
    }

    // Stage 2: the classical relational circuit and the planned one,
    // RAM-interpreted. A planner error is a real divergence: the
    // classical circuit of the same case was built.
    let (classical, _) = naive_circuit(&cq, &dc).map_err(harness)?;
    let planned = plan(&cq, &dc).map_err(|e| Divergence::Check {
        stage: "plan",
        error: e.to_string(),
    })?;
    let mut ram_stages = vec![("naive-ram", &classical)];
    if planned.construction == Construction::PandaC {
        ram_stages.push(("planned-ram", &planned.rc));
    }
    for (family, rc) in ram_stages {
        let ram = rc.evaluate_ram(&db).map_err(|e| Divergence::Baseline {
            family,
            detail: format!("evaluation error: {e}"),
        })?;
        if ram.len() != 1 || ram[0] != expect {
            let got = ram.first().map(digest).unwrap_or_else(|| "<none>".into());
            return Err(Divergence::Baseline {
                family,
                detail: format!("got {got}, want {}", digest(&expect)),
            });
        }
    }
    let rc = &planned.rc;

    // Stage 3: lower the planned circuit to the word IR.
    let lowered = rc.lower_with(Mode::Build, &CompileOptions::sequential());

    // Stage 3b: flat-tape round-trip — encode the lowered word circuit
    // to an instruction tape, serialize, reload, decode, and demand the
    // exact same gates, outputs and input count back. This is the
    // persistence contract: a tape written today and decoded tomorrow is
    // the circuit, not a semantically-equivalent cousin.
    {
        let tape = WordTape::encode(&lowered.circuit);
        let bytes = tape.to_bytes();
        let back = WordTape::from_bytes(&bytes)
            .and_then(|t| t.decode())
            .map_err(|e| Divergence::Check {
                stage: "word-tape-roundtrip",
                error: format!("reload: {e}"),
            })?;
        if !back.gates().eq(lowered.circuit.gates())
            || back.outputs() != lowered.circuit.outputs()
            || back.num_inputs() != lowered.circuit.num_inputs()
        {
            return Err(Divergence::Check {
                stage: "word-tape-roundtrip",
                error: "decoded tape produced a different circuit".into(),
            });
        }
    }

    let circuit = match mutation {
        Some(m) => mutate_circuit(&lowered.circuit, m)
            .ok_or_else(|| harness("circuit has no swappable gate to mutate"))?,
        None => lowered.circuit.clone(),
    };
    let inputs = lowered.layout.values(&db).map_err(harness)?;

    // Stage 3c: the builder's rewrite rules, against the oracle build.
    // Assert gates are numbered differently in the two builds, so a
    // failing assert is compared by the value it observed.
    {
        let raw = rc.lower_without_cse();
        let raw_inputs = raw.layout.values(&db).map_err(harness)?;
        let ruled = lowered.circuit.evaluate(&inputs);
        let interpreted = raw.circuit.evaluate(&raw_inputs);
        let compiled = CompiledCircuit::compile_with(&raw.circuit, &CompileOptions::sequential())
            .and_then(|eng| eng.evaluate(&raw_inputs));
        for (evaluator, got) in [("interpreter", interpreted), ("engine", compiled)] {
            if !same_outcome(&got, &ruled) {
                return Err(Divergence::Check {
                    stage: "rules",
                    error: format!(
                        "the oracle build's {evaluator} gave {}, the rule-built circuit {}",
                        outcome_digest(&got),
                        outcome_digest(&ruled)
                    ),
                });
            }
        }
    }

    // Stage 4: the engine-option sweep.
    let mut outcome = CaseOutcome {
        construction: planned.construction,
        configs: 0,
        word_gates: circuit.size() as usize,
        bit_gates: 0,
    };
    for opts in matrix {
        let co = opts.compile_options();
        let engine =
            CompiledCircuit::compile_with(&circuit, &co).map_err(|e| Divergence::Engine {
                options: *opts,
                stage: "compile",
                error: e.to_string(),
            })?;
        let raw = engine.evaluate(&inputs).map_err(|e| Divergence::Engine {
            options: *opts,
            stage: "evaluate",
            error: e.to_string(),
        })?;
        for (schema, start, len) in &lowered.outputs {
            let got = decode_relation(schema, &raw[*start..*start + *len]);
            if got != expect {
                return Err(Divergence::Output {
                    options: *opts,
                    got: digest(&got),
                    want: digest(&expect),
                });
            }
        }
        outcome.configs += 1;
    }

    // Stage 4b (sampled): the serving layer. The case goes through the
    // whole serve path — canonicalization, plan cache, capacity
    // bucketing, request coalescing — three times concurrently against
    // one server, and every response must be bit-identical to the RAM
    // ground truth. This is the "coalescing never changes answers"
    // contract, and because the plan is compiled at the *bucketed*
    // capacity it also checks that padding to a larger capacity leaves
    // the decoded relation untouched.
    if check_serve && mutation.is_none() {
        check_serve_stage(case, &expect)?;
    }

    // Stage 5 (sampled): bit-level lowering + optimizer.
    if check_bits {
        let bits = lower_with(&circuit, 64, &CompileOptions::sequential());
        let (opt_bits, _) = optimize_bits_with(&bits, &CompileOptions::sequential());
        outcome.bit_gates = opt_bits.gates().len();

        // Stage 5b: bit-tape round-trip, same contract as the word tape.
        let tape = BitTape::encode(&bits);
        let back = BitTape::from_bytes(&tape.to_bytes())
            .and_then(|t| t.decode())
            .map_err(|e| Divergence::Check {
                stage: "bit-tape-roundtrip",
                error: format!("reload: {e}"),
            })?;
        if !back.gates().eq(bits.gates())
            || back.outputs() != bits.outputs()
            || back.num_inputs() != bits.num_inputs()
        {
            return Err(Divergence::Check {
                stage: "bit-tape-roundtrip",
                error: "decoded tape produced a different bit circuit".into(),
            });
        }

        // Stage 5c: the bitsliced BitEngine. Reference once: the
        // interpreter per instance (scratch-buffered) over the case's real
        // input plus a word-boundary-straddling random batch. The bit
        // compile takes no options, so the tape is compiled once, and
        // every available kernel must reproduce the reference lane for
        // lane. The case input's output, unpacked to words, must also
        // match the word interpreter (itself already cross-checked
        // against the engine sweep above).
        let eng = CompiledBitCircuit::compile_gmw(&bits);
        let mut brng = crate::rng::Rng::new(case.seed ^ 0xb17_e461);
        let mut instances: Vec<Vec<bool>> = vec![bits.pack_inputs(&inputs)];
        instances.extend((0..67).map(|_| {
            (0..bits.num_inputs())
                .map(|_| brng.next_u64() & 1 == 1)
                .collect::<Vec<bool>>()
        }));
        let mut scratch = BitEvalScratch::default();
        let reference: Vec<_> = instances
            .iter()
            .map(|inst| bits.evaluate_with(inst, &mut scratch).map(<[bool]>::to_vec))
            .collect();
        let word_want = circuit.evaluate(&inputs).map_err(|e| Divergence::Check {
            stage: "bitengine-batch",
            error: format!("word interpreter rejected the case input: {e}"),
        })?;
        for kernel in BitKernel::available() {
            let got = eng.clone().with_kernel(kernel).evaluate_batch(&instances);
            if got != reference {
                let lane = got
                    .iter()
                    .zip(&reference)
                    .position(|(g, r)| g != r)
                    .unwrap_or(0);
                return Err(Divergence::Check {
                    stage: "bitengine-batch",
                    error: format!(
                        "kernel {} diverged from BitCircuit::evaluate at lane {lane}",
                        kernel.name()
                    ),
                });
            }
        }
        let words = eng
            .evaluate_batch(&instances[..1])
            .remove(0)
            .map(|out| bits.unpack_outputs(&out));
        if words.as_ref() != Ok(&word_want) {
            return Err(Divergence::Check {
                stage: "bitengine-words",
                error: format!(
                    "unpacked BitEngine output diverged from the word interpreter: \
                     got {words:?}, want {word_want:?}"
                ),
            });
        }

        // Stage 5d: the networked two-party GMW session. Two `Session`s
        // wired through a `Duplex` pair on the round-optimal gmw
        // schedule must reproduce the bit level's reference interpreter
        // (`BitCircuit::evaluate`, the `reference` above) result for
        // result on both parties — the outputs, and for an instance that
        // fails an assertion the same gate index — at exactly one
        // message per AND-bearing level.
        {
            use qec_mpc::{run_sessions, share_instances, Duplex, MpcError, PackedDealer};
            let batch = &instances[..3];
            let mut want = Vec::with_capacity(batch.len());
            for r in &reference[..batch.len()] {
                want.push(match r {
                    Ok(out) => Ok(out.clone()),
                    Err(qec_circuit::EvalError::AssertionFailed { gate, .. }) => {
                        Err(MpcError::AssertionFailed(*gate))
                    }
                    Err(e) => return Err(harness(format!("bit interpreter rejected: {e}"))),
                });
            }
            let (s0, s1) = share_instances(batch, case.seed ^ 0x6a3);
            let triples =
                PackedDealer::new(eng.stats().and_ops as usize, 1, case.seed ^ 0x15e).split();
            let (o0, o1) = run_sessions(&eng, 1, Duplex::pair(), triples, (&s0, &s1));
            for (party, o) in [(0, o0), (1, o1)] {
                let o = o.map_err(|e| Divergence::Mpc {
                    detail: format!("party {party} session failed: {e}"),
                })?;
                if o.results != want {
                    return Err(Divergence::Mpc {
                        detail: format!(
                            "party {party} session results differ from BitCircuit::evaluate: \
                             got {:?}, want {want:?}",
                            o.results
                        ),
                    });
                }
                if o.stats.rounds != eng.stats().and_levels as u64 {
                    return Err(Divergence::Mpc {
                        detail: format!(
                            "party {party} used {} rounds for {} AND levels",
                            o.stats.rounds,
                            eng.stats().and_levels
                        ),
                    });
                }
            }
        }
    }

    Ok(outcome)
}

/// Replays `case` through a coalescing [`qec_serve::Server`] and
/// compares every response against `expect`.
fn check_serve_stage(case: &Case, expect: &Relation) -> Result<(), Divergence> {
    let mut server = qec_serve::Server::start(qec_serve::ServerConfig {
        workers: 2,
        max_batch: 8,
        flush: std::time::Duration::from_millis(2),
        ..qec_serve::ServerConfig::default()
    });
    let request = qec_serve::Request {
        tenant: "differ".into(),
        query: case.query.clone(),
        n: case.n,
        rels: case.rels.clone(),
    };
    let tickets: Vec<_> = (0..3)
        .map(|i| {
            server
                .submit(request.clone())
                .map_err(|e| Divergence::Serve {
                    detail: format!("submit {i} rejected: {e}"),
                })
        })
        .collect::<Result<_, _>>()?;
    for (i, ticket) in tickets.into_iter().enumerate() {
        let resp = ticket.wait().map_err(|e| Divergence::Serve {
            detail: format!("request {i} failed: {e}"),
        })?;
        for rel in &resp.relations {
            if rel != expect {
                return Err(Divergence::Serve {
                    detail: format!(
                        "request {i} (batch of {}): got {}, want {}",
                        resp.batch_size,
                        digest(rel),
                        digest(expect)
                    ),
                });
            }
        }
    }
    server.shutdown();
    Ok(())
}

/// Aggregate result of a fuzz sweep.
#[derive(Debug, Default)]
pub struct FuzzSummary {
    /// Cases that passed the full matrix.
    pub cases_passed: usize,
    /// Engine configurations compiled+evaluated across all cases.
    pub configs: usize,
    /// Total word gates across lowered circuits (a work proxy).
    pub word_gates: usize,
    /// Passed cases whose planned circuit is the classical one.
    pub classical_cases: usize,
    /// Passed cases whose planned circuit is PANDA-C's.
    pub panda_c_cases: usize,
    /// Datalog fixpoint cases that passed (interleaved sampling).
    pub datalog_passed: usize,
    /// The first failing case, if any, with its divergence.
    pub failure: Option<(Case, Divergence)>,
    /// The first failing Datalog case, if any, with its divergence.
    /// Datalog cases have no shrinker; the serialized case replays it.
    pub datalog_failure: Option<(crate::datalog::DatalogCase, Divergence)>,
}

/// Runs `cases` generated cases starting at `seed`, stopping at the
/// first divergence. Every `bits_every`-th case (0 disables) also runs
/// the bit-level pipeline checks; every `datalog_every`-th case (0
/// disables) additionally pushes a seeded recursive-Datalog fixpoint
/// case through [`crate::datalog::run_datalog_case`].
pub fn fuzz_many(seed: u64, cases: usize, bits_every: usize, datalog_every: usize) -> FuzzSummary {
    let mut summary = FuzzSummary::default();
    for i in 0..cases {
        let case_seed = seed.wrapping_add(i as u64);
        let matrix = options_matrix(case_seed);
        if datalog_every != 0 && i % datalog_every == 0 {
            let dcase = crate::datalog::gen_datalog_case(case_seed);
            match crate::datalog::run_datalog_case(&dcase, &matrix) {
                Ok(o) => {
                    summary.datalog_passed += 1;
                    summary.configs += o.configs;
                    summary.word_gates += o.word_gates;
                }
                Err(d) => {
                    summary.datalog_failure = Some((dcase, d));
                    break;
                }
            }
        }
        let case = crate::gen::gen_case(case_seed);
        let check_bits = bits_every != 0 && i % bits_every == 0;
        // The serve stage rides the same sampling cadence: both pay an
        // extra compile, and both are configuration-independent checks.
        match run_case(&case, &matrix, None, check_bits, check_bits) {
            Ok(o) => {
                summary.cases_passed += 1;
                summary.configs += o.configs;
                summary.word_gates += o.word_gates;
                match o.construction {
                    Construction::Classical => summary.classical_cases += 1,
                    Construction::PandaC => summary.panda_c_cases += 1,
                }
            }
            Err(d) => {
                summary.failure = Some((case, d));
                break;
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::EngineOptions;

    #[test]
    fn matrix_has_four_distinct_points() {
        let m = options_matrix(3);
        assert_eq!(m.len(), 4);
        for (i, a) in m.iter().enumerate() {
            for b in &m[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert!(m.iter().any(|o| o.optimize));
        assert!(m.iter().any(|o| o.traced));
    }

    #[test]
    fn a_known_good_case_passes_the_full_matrix() {
        let case = crate::gen::gen_case(11);
        let matrix = options_matrix(11);
        let outcome = run_case(&case, &matrix, None, true, true).unwrap();
        assert_eq!(outcome.configs, 4);
        assert!(outcome.word_gates > 0);
        assert!(outcome.bit_gates > 0);
    }

    #[test]
    fn mutation_produces_a_structurally_valid_different_circuit() {
        let case = crate::gen::gen_case(5);
        let (cq, _db, dc) = case.materialize().unwrap();
        let (rc, _) = naive_circuit(&cq, &dc).unwrap();
        let lowered = rc.lower_with(Mode::Build, &CompileOptions::sequential());
        // `mutate_circuit` rebuilds through the checked `Circuit::from_raw`.
        let mutated = mutate_circuit(&lowered.circuit, &Mutation { index: 0 }).unwrap();
        assert!(
            !mutated.gates().eq(lowered.circuit.gates()),
            "mutation must change a gate"
        );
        assert_eq!(mutated.num_wires(), lowered.circuit.num_wires());
    }

    #[test]
    fn divergence_reports_carry_the_failing_options() {
        let opts = EngineOptions {
            optimize: true,
            traced: false,
        };
        let d = Divergence::Output {
            options: opts,
            got: "g".into(),
            want: "w".into(),
        };
        assert_eq!(d.options(), Some(opts));
        assert!(d.is_real());
        assert!(!Divergence::Harness("x".into()).is_real());
    }
}
