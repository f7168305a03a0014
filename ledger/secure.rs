//! `secure-triangle`: sequential secure triangle counts, the call chain
//! of `bin/qec2pc` with both parties in this process over `Duplex`.
//!
//! Set-up builds the heavy/light triangle circuit at capacity N, lowers
//! it to bits at width 8 and compiles the GMW tape; it also evaluates
//! each database in the plaintext bit interpreter and the RAM join, and
//! requires the two to agree. Each timed query then shares fresh inputs,
//! deals fresh packed triples, runs P0 here and P1 on a second thread,
//! and decodes the opened output. Databases alternate between the AGM
//! worst case and seeded random relations.

use std::time::Instant;

use qec_circuit::{
    decode_relation, lower_with, BitCircuit, CompileOptions, CompiledBitCircuit, Mode,
};
use qec_core::{triangle_heavy_light, LoweredCircuit};
use qec_mpc::{share_instances, Duplex, PackedDealer, Role, Session};
use qec_obs::Recorder;
use qec_query::{baseline::evaluate_pairwise, parse_cq};
use qec_relation::{agm_worst_case_triangle, random_relation_with_domain, Database, Relation, Var};

use crate::stats::{median, percentile};
use crate::trace::Spans;
use crate::{measured, ms, planted, Outcome, Params, Rng, MIB};

/// Bit width of the lowering, as `qec2pc` uses.
const WIDTH: u32 = 8;
/// Seeded random databases next to the AGM worst case.
const RANDOM_DBS: usize = 3;

/// One database, prepared: its bit inputs and both reference answers.
struct Input {
    bits: Vec<bool>,
    /// `BitCircuit::evaluate` on `bits`.
    plain: Vec<bool>,
    /// `evaluate_pairwise` on the database.
    expected: Relation,
}

struct Prepared {
    lowered: LoweredCircuit,
    bits: BitCircuit,
    eng: CompiledBitCircuit,
    inputs: Vec<Input>,
    rc_build_ms: f64,
    lower_ms: f64,
    gmw_ms: f64,
}

fn triangle_db(r: Relation, s: Relation, t: Relation) -> Database {
    let mut db = Database::new();
    db.insert("R", r);
    db.insert("S", s);
    db.insert("T", t);
    db
}

fn decode(bits: &BitCircuit, lowered: &LoweredCircuit, out: &[bool]) -> Relation {
    let words = bits.unpack_outputs(out);
    let (schema, start, len) = &lowered.outputs[0];
    decode_relation(schema, &words[*start..*start + *len])
}

fn prepare(p: &Params, rec: &Recorder) -> Result<Prepared, String> {
    let n = p.scale.secure_n;
    let opts = CompileOptions::from_env().with_recorder(rec.clone());

    let t = Instant::now();
    let lowered = {
        let _span = rec.span("rc_build");
        let (rc, _) = triangle_heavy_light(n);
        rc.lower_with(Mode::Build, &opts)
    };
    let rc_build_ms = ms(t.elapsed());
    let t = Instant::now();
    let bits = lower_with(&lowered.circuit, WIDTH, &opts);
    let lower_ms = ms(t.elapsed());
    let t = Instant::now();
    let eng = {
        let _span = rec.span("bitengine.compile_gmw");
        CompiledBitCircuit::compile_gmw(&bits)
    };
    let gmw_ms = ms(t.elapsed());

    let (a, b, c) = (Var(0), Var(1), Var(2));
    let (r, s, t) = agm_worst_case_triangle(a, b, c, n as usize);
    let mut dbs = vec![triangle_db(r, s, t)];
    let mut rng = Rng::new(p.seed ^ 0x5ec0_0001);
    // Domain ⌈√N⌉+1 holds N distinct pairs and keeps values inside the
    // 8-bit lowering.
    let domain = (n as f64).sqrt().ceil() as u64 + 1;
    for _ in 0..RANDOM_DBS {
        let mut rel =
            |x, y| random_relation_with_domain(vec![x, y], n as usize, domain, rng.next_u64());
        let (r, s, t) = (rel(a, b), rel(b, c), rel(a, c));
        dbs.push(triangle_db(r, s, t));
    }

    let cq = parse_cq("Q(a, b, c) :- R(a, b), S(b, c), T(a, c)").map_err(|e| e.to_string())?;
    let mut inputs = Vec::with_capacity(dbs.len());
    for db in &dbs {
        let words = lowered.layout.values(db).map_err(|e| format!("{e:?}"))?;
        let input_bits = bits.pack_inputs(&words);
        let plain = bits.evaluate(&input_bits).map_err(|e| format!("{e:?}"))?;
        let expected = evaluate_pairwise(&cq, db).map_err(|e| e.to_string())?;
        if decode(&bits, &lowered, &plain) != expected {
            return Err("the plaintext bit circuit disagrees with evaluate_pairwise".into());
        }
        inputs.push(Input {
            bits: input_bits,
            plain,
            expected,
        });
    }
    if p.plant_wrong_reference {
        inputs[0].expected = planted(&inputs[0].expected);
    }
    Ok(Prepared {
        lowered,
        bits,
        eng,
        inputs,
        rc_build_ms,
        lower_ms,
        gmw_ms,
    })
}

/// Per-query harness timings and the protocol's own accounting.
struct Query {
    latency_ms: f64,
    share_ms: f64,
    deal_ms: f64,
    session_ms: f64,
    decode_ms: f64,
    level_us: f64,
}

pub fn run(p: &Params, rec: &Recorder) -> Result<Outcome, String> {
    measured(
        rec,
        |r| prepare(p, r),
        |prep, out| timed(p, rec, &prep, out),
    )
}

/// Secure triangle counts until `p.seconds` have passed.
fn timed(p: &Params, rec: &Recorder, prep: &Prepared, out: &mut Outcome) -> Result<(), String> {
    let and_ops = prep.eng.stats().and_ops as usize;
    let and_depth = u64::from(prep.bits.and_depth());
    let mut rng = Rng::new(p.seed ^ 0x5ec0_0002);
    let mut queries: Vec<Query> = Vec::new();
    let mut traffic = None;

    let phase = rec.span("timed");
    let start = Instant::now();
    let mut q = 0usize;
    while start.elapsed() < p.timed() {
        // Even queries run the AGM worst case, odd ones the random
        // databases in turn.
        let which = if q.is_multiple_of(2) {
            0
        } else {
            1 + (q / 2) % RANDOM_DBS
        };
        let input = &prep.inputs[which];
        q += 1;
        let t0 = Instant::now();
        let (s0, s1) = {
            let _span = rec.span("share");
            share_instances(std::slice::from_ref(&input.bits), rng.next_u64())
        };
        let t_share = Instant::now();
        let (d0, d1) = {
            let _span = rec.span("deal");
            PackedDealer::new(and_ops, 1, rng.next_u64()).split()
        };
        let t_deal = Instant::now();
        let outcomes = {
            let _span = rec.span("session");
            let (a, b) = Duplex::pair();
            std::thread::scope(|scope| {
                let p1 = scope.spawn(|| {
                    Session::new(&prep.eng, Role::P1, b, d1)
                        .with_words(1)
                        .with_recorder(rec)
                        .run(&s1)
                });
                let o0 = Session::new(&prep.eng, Role::P0, a, d0)
                    .with_words(1)
                    .with_recorder(rec)
                    .run(&s0);
                let o1 = p1.join().expect("party 1 thread panicked");
                o0.and_then(|o0| Ok((o0, o1?)))
            })
        };
        let t_session = Instant::now();
        let (o0, o1) = match outcomes {
            Ok(o) => o,
            Err(e) => {
                out.unanswered(&e);
                continue;
            }
        };
        let out_bits = match &o0.results[0] {
            Ok(bits) => bits,
            Err(e) => {
                out.unanswered(e);
                continue;
            }
        };
        let relation = {
            let _span = rec.span("decode");
            decode(&prep.bits, &prep.lowered, out_bits)
        };
        let t_decode = Instant::now();
        {
            let _span = rec.span("check");
            let both_open_alike = o1.results[0].as_ref().ok() == Some(out_bits);
            out.answered(
                both_open_alike
                    && *out_bits == input.plain
                    && relation == input.expected
                    && o0.stats.rounds == and_depth,
            );
        }
        let mut levels: Vec<f64> = o0.level_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        levels.retain(|&us| us > 0.0);
        queries.push(Query {
            latency_ms: ms(t_decode - t0),
            share_ms: ms(t_share - t0),
            deal_ms: ms(t_deal - t_share),
            session_ms: ms(t_session - t_deal),
            decode_ms: ms(t_decode - t_session),
            level_us: median(&levels),
        });
        traffic = Some(o0.stats);
    }
    drop(phase);

    let col = |f: fn(&Query) -> f64| -> Vec<f64> { queries.iter().map(f).collect() };
    let latency = col(|q| q.latency_ms);
    out.set("p50_ms", median(&latency));
    out.set("p90_ms", percentile(&latency, 0.9));
    out.set("p99_ms", percentile(&latency, 0.99));

    out.set("rc_build_ms", prep.rc_build_ms);
    out.set("lower_ms", prep.lower_ms);
    out.set("lower.bit_gates", prep.bits.gate_count() as f64);
    out.set("lower.and_gates", prep.bits.and_count() as f64);
    out.set("lower.and_depth", and_depth as f64);
    out.set("bitengine.compile_ms", prep.gmw_ms);
    out.set("bitengine.tape_len", prep.eng.stats().tape_len as f64);
    out.set("bitengine.and_levels", prep.eng.stats().and_levels as f64);
    out.set("mpc.share_ms", median(&col(|q| q.share_ms)));
    out.set("mpc.deal_ms", median(&col(|q| q.deal_ms)));
    out.set("mpc.session_ms", median(&col(|q| q.session_ms)));
    out.set("mpc.decode_ms", median(&col(|q| q.decode_ms)));
    out.set("mpc.level_us.p50", median(&col(|q| q.level_us)));
    if let Some(stats) = traffic {
        out.set("mpc.rounds", stats.rounds as f64);
        out.set("mpc.frames", (stats.rounds + stats.open_rounds) as f64);
        out.set("mpc.mib_sent", stats.bytes_sent as f64 / MIB);
    }

    if rec.is_enabled() {
        let spans = Spans::new(rec);
        crate::trace::word_pipeline(out, &spans);
        // Closed loop: the timed phase is the sum of the steps this
        // thread blocks on.
        let phase = spans.only("timed").ok_or("no timed span")?;
        let steps = spans.self_ns_on_thread(phase.tid, phase.start_ns, "timed");
        out.set("coverage", steps as f64 / phase.dur_ns.max(1) as f64);
    }
    Ok(())
}
