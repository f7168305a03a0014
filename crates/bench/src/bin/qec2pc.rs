//! `qec2pc` — two-terminal networked two-party GMW secure triangle
//! counting over TCP.
//!
//! ```text
//! # offline: deal correlated Beaver-triple files, one per party
//! qec2pc dealer --n 8 --out0 p0.trip --out1 p1.trip [--seed 7]
//!
//! # terminal 1 (party 0 listens):
//! qec2pc party --role 0 --listen 127.0.0.1:7700 --n 8 --triples p0.trip --verify
//! # terminal 2 (party 1 connects):
//! qec2pc party --role 1 --connect 127.0.0.1:7700 --n 8 --triples p1.trip --verify
//!
//! # or skip the dealer with common-seed triples (INSECURE, demo only):
//! qec2pc party --role 0 --listen 127.0.0.1:7700 --n 8 --insecure-seed 7
//! ```
//!
//! Both parties build the same heavy/light triangle circuit for
//! capacity `--n`, load the AGM worst-case database (⌊√N⌋² grid per
//! relation, N^1.5 triangles), run the `qec_mpc::Session` protocol —
//! one framed message per AND level — and print one machine-parseable
//! summary line. `--verify` additionally asserts the round count equals
//! the tape's AND depth and the reconstructed output is bit-identical
//! to plaintext evaluation, exiting nonzero otherwise.

use qec_circuit::lower_with;
use qec_circuit::{CompileOptions, CompiledBitCircuit};
use qec_core::triangle_heavy_light;
use qec_mpc::{
    share_instances, write_triple_files, InsecureSeedTriples, Role, Session, TcpTransport,
    TripleSource, TripleStream, DEFAULT_TIMEOUT,
};
use qec_relation::{agm_worst_case_triangle, Database, Var};
use std::path::PathBuf;

/// Input-share derivation seed; must agree between the two parties (the
/// demo derives both parties' shares from shared randomness instead of
/// running an input-sharing phase).
const SHARE_SEED: u64 = 0x2bc_517a;

fn usage() -> ! {
    eprintln!(
        "usage:\n  qec2pc dealer --n <N> --out0 <file> --out1 <file> [--seed <s>]\n  \
         qec2pc party --role <0|1> (--listen <addr> | --connect <addr>) --n <N> \
         (--triples <file> | --insecure-seed <s>) [--verify]"
    );
    std::process::exit(2);
}

struct Prepared {
    eng: CompiledBitCircuit,
    bit_inputs: Vec<bool>,
    plain: Vec<bool>,
    triangles: usize,
    and_depth: u64,
}

/// Builds the capacity-`n` heavy/light triangle circuit, binds the AGM
/// worst-case database, and lowers to the round-optimal GMW tape.
fn prepare(n: u64) -> Prepared {
    let (rc, _) = triangle_heavy_light(n);
    let lowered = rc.lower();
    let (r, s, t) = agm_worst_case_triangle(Var(0), Var(1), Var(2), n as usize);
    let mut db = Database::new();
    db.insert("R", r);
    db.insert("S", s);
    db.insert("T", t);
    let triangles = lowered.run(&db).expect("plaintext word run")[0].len();
    let word_inputs = lowered.layout.values(&db).expect("layout inputs");
    let bits = lower_with(&lowered.circuit, 8, &CompileOptions::from_env());
    let bit_inputs = bits.pack_inputs(&word_inputs);
    let plain = bits.evaluate(&bit_inputs).expect("plaintext bit run");
    let eng = CompiledBitCircuit::compile_gmw(&bits);
    let and_depth = bits.and_depth() as u64;
    Prepared {
        eng,
        bit_inputs,
        plain,
        triangles,
        and_depth,
    }
}

fn fnv_bits(bits: &[bool]) -> u64 {
    let bytes: Vec<u8> = bits.iter().map(|&b| b as u8).collect();
    qec_circuit::fnv1a64(&bytes)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };

    let mut n: Option<u64> = None;
    let mut seed: u64 = 7;
    let mut out0: Option<PathBuf> = None;
    let mut out1: Option<PathBuf> = None;
    let mut role: Option<u8> = None;
    let mut listen: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut triples: Option<PathBuf> = None;
    let mut insecure_seed: Option<u64> = None;
    let mut verify = false;

    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--n" => n = val().parse().ok(),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--out0" => out0 = Some(val().into()),
            "--out1" => out1 = Some(val().into()),
            "--role" => role = val().parse().ok(),
            "--listen" => listen = Some(val()),
            "--connect" => connect = Some(val()),
            "--triples" => triples = Some(val().into()),
            "--insecure-seed" => insecure_seed = val().parse().ok(),
            "--verify" => verify = true,
            _ => usage(),
        }
    }
    let n = n.unwrap_or_else(|| usage());

    match cmd.as_str() {
        "dealer" => {
            let (out0, out1) = match (out0, out1) {
                (Some(a), Some(b)) => (a, b),
                _ => usage(),
            };
            let p = prepare(n);
            let steps = p.eng.stats().and_ops as usize;
            write_triple_files(&out0, &out1, steps, 1, seed).unwrap_or_else(|e| {
                eprintln!("dealer failed: {e}");
                std::process::exit(1);
            });
            println!(
                "dealt n={n} steps={steps} words=1 seed={seed} files={},{}",
                out0.display(),
                out1.display()
            );
        }
        "party" => {
            let role = match role {
                Some(0) => Role::P0,
                Some(1) => Role::P1,
                _ => usage(),
            };
            let p = prepare(n);
            let transport = match (&listen, &connect) {
                (Some(addr), None) => {
                    let l = std::net::TcpListener::bind(addr).unwrap_or_else(|e| {
                        eprintln!("bind {addr}: {e}");
                        std::process::exit(1);
                    });
                    TcpTransport::accept(&l, DEFAULT_TIMEOUT).unwrap_or_else(|e| {
                        eprintln!("accept: {e}");
                        std::process::exit(1);
                    })
                }
                (None, Some(addr)) => TcpTransport::connect(addr.as_str(), DEFAULT_TIMEOUT)
                    .unwrap_or_else(|e| {
                        eprintln!("connect {addr}: {e}");
                        std::process::exit(1);
                    }),
                _ => usage(),
            };
            let source: Box<dyn TripleSource> = match (&triples, insecure_seed) {
                (Some(path), None) => Box::new(TripleStream::open(path).unwrap_or_else(|e| {
                    eprintln!("triple file {}: {e}", path.display());
                    std::process::exit(1);
                })),
                (None, Some(s)) => Box::new(InsecureSeedTriples::new(1, s, role)),
                _ => usage(),
            };
            let (s0, s1) = share_instances(std::slice::from_ref(&p.bit_inputs), SHARE_SEED);
            let my_shares = if role == Role::P0 { s0 } else { s1 };
            let t0 = std::time::Instant::now();
            let outcome = Session::new(&p.eng, role, transport, source)
                .with_words(1)
                .run(&my_shares)
                .unwrap_or_else(|e| {
                    eprintln!("session failed: {e}");
                    std::process::exit(1);
                });
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let out = outcome.results[0].as_ref().unwrap_or_else(|e| {
                eprintln!("instance failed: {e}");
                std::process::exit(1);
            });
            println!(
                "role={} n={n} count={} rounds={} and_depth={} bytes_sent={} bytes_recv={} \
                 output_fnv={:016x} ms={ms:.1}",
                role.index(),
                p.triangles,
                outcome.stats.rounds,
                p.and_depth,
                outcome.stats.bytes_sent,
                outcome.stats.bytes_recv,
                fnv_bits(out),
            );
            if verify {
                if outcome.stats.rounds != p.and_depth {
                    eprintln!(
                        "VERIFY FAILED: {} rounds != AND depth {}",
                        outcome.stats.rounds, p.and_depth
                    );
                    std::process::exit(1);
                }
                if out != &p.plain {
                    eprintln!("VERIFY FAILED: secure output differs from plaintext");
                    std::process::exit(1);
                }
                println!("verify: rounds == AND depth, output bit-identical to plaintext");
            }
        }
        _ => usage(),
    }
}
