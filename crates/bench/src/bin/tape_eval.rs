//! Child-process tape evaluator: loads a serialized circuit tape,
//! compiles it into the level's engine (`CompiledCircuit` for word
//! tapes, `CompiledBitCircuit` for bit tapes) and evaluates it on inputs
//! read from stdin — the "load-and-evaluate-many" half of the
//! compile-once contract, exercised across a real process boundary by
//! experiment X20 and the corpus replay tests.
//!
//! ```text
//! tape_eval word <tape-file>   # stdin: whitespace-separated u64 inputs
//! tape_eval bit  <tape-file>   # stdin: whitespace-separated 0/1 bits
//! tape_eval stream-lower <seed> <width> <out-file>
//! ```
//!
//! Outputs are printed space-separated on one stdout line. Any load or
//! evaluation error goes to stderr with a non-zero exit, so a corrupted
//! or version-skewed tape fails loudly instead of producing output.
//!
//! `stream-lower` is the producer half for CI's bounded-memory smoke:
//! it compiles the seeded conjunctive-query case, bit-lowers it through
//! the spillable streaming path ([`StreamOptions::from_env`] reads
//! `QEC_STREAM_CHUNK` / `QEC_STREAM_WINDOW` / `QEC_SPILL_DIR`), saves
//! the tape, reloads it, and verifies the round-trip — all inside
//! whatever `ulimit` the caller imposed.

use qec_circuit::{
    lower_streamed, BitTape, CompileOptions, CompiledBitCircuit, CompiledCircuit, Mode,
    StreamOptions, WordTape,
};
use std::io::Read;

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("tape_eval: {msg}");
    std::process::exit(1);
}

fn stream_lower(seed: &str, width: &str, out: &str) {
    let seed: u64 = seed
        .parse()
        .unwrap_or_else(|_| fail(format!("bad seed {seed:?}")));
    let width: u32 = width
        .parse()
        .unwrap_or_else(|_| fail(format!("bad width {width:?}")));
    let case = qec_check::gen_case(seed);
    let (cq, _db, dc) = case.materialize().unwrap_or_else(|e| fail(e));
    let (rc, _) = qec_core::naive_circuit(&cq, &dc).unwrap_or_else(|e| fail(e));
    let lowered = rc.lower_with(Mode::Build, &CompileOptions::sequential());
    let (tape, stats) = lower_streamed(&lowered.circuit, width, &StreamOptions::from_env())
        .unwrap_or_else(|e| fail(e));
    tape.save(out).unwrap_or_else(|e| fail(e));
    let back = BitTape::load(out).unwrap_or_else(|e| fail(e));
    if back != tape {
        fail("saved tape did not reload identically");
    }
    println!(
        "stream-lower seed={seed} width={width}: {} instructions, {} spill(s), \
         window ≤ {} bytes, {} bytes on disk, round-trip identical",
        tape.num_instructions(),
        stats.spills,
        stats.peak_window_bytes,
        std::fs::metadata(out).map(|m| m.len()).unwrap_or(0),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (kind, path) = match args.as_slice() {
        [kind, seed, width, out] if kind == "stream-lower" => {
            stream_lower(seed, width, out);
            return;
        }
        [kind, path] => (kind.as_str(), path.as_str()),
        _ => fail(
            "usage: tape_eval <word|bit> <tape-file>  (inputs on stdin)\n\
             \x20      tape_eval stream-lower <seed> <width> <out-file>",
        ),
    };
    let mut text = String::new();
    if std::io::stdin().read_to_string(&mut text).is_err() {
        fail("could not read stdin");
    }
    match kind {
        "word" => {
            let tape = WordTape::load(path).unwrap_or_else(|e| fail(e));
            let inputs: Vec<u64> = text
                .split_whitespace()
                .map(|t| {
                    t.parse()
                        .unwrap_or_else(|_| fail(format!("bad input word {t:?}")))
                })
                .collect();
            let (engine, _) =
                CompiledCircuit::compile_tape_with(&tape, &CompileOptions::sequential())
                    .unwrap_or_else(|e| fail(e));
            let out = engine.evaluate(&inputs).unwrap_or_else(|e| fail(e));
            let words: Vec<String> = out.iter().map(u64::to_string).collect();
            println!("{}", words.join(" "));
        }
        "bit" => {
            let tape = BitTape::load(path).unwrap_or_else(|e| fail(e));
            let inputs: Vec<bool> = text
                .split_whitespace()
                .map(|t| match t {
                    "0" => false,
                    "1" => true,
                    _ => fail(format!("bad input bit {t:?}")),
                })
                .collect();
            let circuit = tape.decode().unwrap_or_else(|e| fail(e));
            let out = CompiledBitCircuit::compile(&circuit)
                .evaluate_batch(&[inputs])
                .remove(0)
                .unwrap_or_else(|e| fail(e));
            let bits: Vec<String> = out
                .iter()
                .map(|&b| (if b { "1" } else { "0" }).to_string())
                .collect();
            println!("{}", bits.join(" "));
        }
        other => fail(format!("unknown tape kind {other:?} (want word|bit)")),
    }
}
