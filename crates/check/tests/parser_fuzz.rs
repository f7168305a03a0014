//! Fuzzes the front ends that read queries and circuits from bytes:
//! `parse_cq` and the tape loader must return typed
//! errors on malformed input, never panic.

use qec_check::Rng;
use qec_circuit::{
    fnv1a64, lower_with, BitTape, Builder, CompileOptions, CompiledBitCircuit, CompiledCircuit,
    WordTape,
};
use qec_query::{parse_cq, CqError};

/// Random byte soup, lossily decoded. Exercises the lexer's handling of
/// arbitrary garbage.
#[test]
fn parse_cq_survives_random_bytes() {
    let mut rng = Rng::new(0xB17E5);
    for _ in 0..1500 {
        let len = rng.below(64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_cq(&text);
    }
}

/// Random strings over the token alphabet — much likelier to get deep
/// into the parser than raw bytes.
#[test]
fn parse_cq_survives_token_soup() {
    const ALPHABET: &[&str] = &[
        "Q", "R", "a", "b", "c", "abc", "R0", "(", ")", ",", ":-", ".", " ", "\t", "\n", "1", "_",
        "é", ":", "-",
    ];
    let mut rng = Rng::new(0x50FA);
    for _ in 0..2000 {
        let len = rng.below(24) as usize;
        let text: String = (0..len)
            .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
            .collect();
        let _ = parse_cq(&text);
    }
}

/// Mutations of valid queries: deletions, duplications, and swaps of
/// single bytes. These reach the error paths closest to accepting
/// states.
#[test]
fn parse_cq_survives_mutated_valid_queries() {
    const SEEDS: &[&str] = &[
        "Q(a, b, c) :- R(a, b), S(b, c), T(a, c).",
        "Q() :- R(a, b), S(b)",
        "Q(x) :- Edge(x, y), Edge(y, z), Edge(z, x)",
    ];
    let mut rng = Rng::new(0xD00D);
    for _ in 0..2000 {
        let base = SEEDS[rng.below(SEEDS.len() as u64) as usize]
            .as_bytes()
            .to_vec();
        let mut bytes = base.clone();
        for _ in 0..1 + rng.below(3) {
            if bytes.is_empty() {
                break;
            }
            let i = rng.below(bytes.len() as u64) as usize;
            match rng.below(3) {
                0 => {
                    bytes.remove(i);
                }
                1 => {
                    let b = bytes[i];
                    bytes.insert(i, b);
                }
                _ => bytes[i] = base[rng.below(base.len() as u64) as usize],
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_cq(&text);
    }
}

#[test]
fn duplicate_head_variables_are_a_typed_error() {
    let err = parse_cq("Q(a, a) :- R(a, b)").unwrap_err();
    match err {
        CqError::Parse(msg) => assert!(
            msg.contains("repeated head variable a"),
            "unexpected message: {msg}"
        ),
        other => panic!("expected CqError::Parse, got {other:?}"),
    }
}

/// Tape container header: magic, four `u32` fields, then the four `u64`
/// counts (inputs, wires, code words, outputs).
const TAPE_HEADER_BYTES: usize = 8 + 4 * 4 + 4 * 8;
/// Byte offset of the header's four `u64` counts.
const TAPE_COUNTS_AT: usize = 8 + 4 * 4;
/// Largest input count the fuzz loop evaluates a zero instance for.
const EVAL_INPUT_CAP: usize = 1 << 12;

/// A small word circuit touching every gate kind, asserts included.
fn every_kind_circuit() -> qec_circuit::Circuit {
    let mut b = Builder::new();
    let x = b.input();
    let y = b.input();
    let c5 = b.constant(5);
    let s = b.add(x, y);
    let p = b.mul(s, c5);
    let lt = b.lt(x, y);
    let m = b.mux(lt, s, p);
    let e = b.eq(m, c5);
    let n = b.not(e);
    let d = b.sub(m, x);
    let o = b.or(n, lt);
    let xr = b.xor(o, e);
    let an = b.and(xr, lt);
    b.assert_zero(an);
    b.finish(vec![m, d, xr])
}

/// Applies mutation `kind` to a serialized tape, then recomputes the
/// FNV-1a-64 trailer so the mutation reaches the structural checks
/// instead of stopping at the checksum. Kinds 0–3 touch only the code
/// and output words; kind 4 rewrites one of the header's counts.
fn mutate_tape(base: &[u8], kind: u64, rng: &mut Rng) -> Vec<u8> {
    let mut b = base.to_vec();
    let body = TAPE_HEADER_BYTES..b.len() - 8;
    let words = body.len() / 8;
    let word_at = |rng: &mut Rng| TAPE_HEADER_BYTES + 8 * rng.below(words as u64) as usize;
    match kind {
        0 => {
            // flip one bit
            let i = body.start + rng.below(body.len() as u64) as usize;
            b[i] ^= 1 << rng.below(8);
        }
        1 => {
            // overwrite one byte
            let i = body.start + rng.below(body.len() as u64) as usize;
            b[i] = rng.next_u64() as u8;
        }
        2 => {
            // overwrite one word with a small opcode and small operands,
            // which decode as plausible instructions more often than noise
            let at = word_at(rng);
            let w = rng.below(16) | rng.below(64) << 4 | rng.below(64) << 34;
            b[at..at + 8].copy_from_slice(&w.to_le_bytes());
        }
        3 => {
            // swap two words
            let (i, j) = (word_at(rng), word_at(rng));
            for k in 0..8 {
                b.swap(i + k, j + k);
            }
        }
        _ => {
            // rewrite one header count: near its old value, or huge
            let at = TAPE_COUNTS_AT + 8 * rng.below(4) as usize;
            let old = u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
            let v = match rng.below(3) {
                0 => old.wrapping_add(rng.below(5)).wrapping_sub(2),
                1 => u64::MAX - rng.below(1 << 20),
                _ => rng.next_u64() >> rng.below(64),
            };
            b[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
    }
    let n = b.len() - 8;
    let sum = fnv1a64(&b[..n]);
    b[n..].copy_from_slice(&sum.to_le_bytes());
    b
}

/// The tape is the one circuit format the stack reloads from bytes
/// (serve warm starts, `tape_eval`). Every mutation of a word tape must
/// come back from `from_bytes` → `decode` → `compile_with` → evaluate
/// as `Ok` or a typed error, never a panic.
#[test]
fn word_tape_loader_survives_mutations() {
    let base = WordTape::encode(&every_kind_circuit()).to_bytes();
    let opts = CompileOptions::sequential();
    let mut rng = Rng::new(0x7A9E);
    let mut reached_compile = 0;
    for kind in 0..5 {
        for _ in 0..500 {
            let bytes = mutate_tape(&base, kind, &mut rng);
            let Ok(tape) = WordTape::from_bytes(&bytes) else {
                continue;
            };
            let Ok(circuit) = tape.decode() else {
                continue;
            };
            reached_compile += 1;
            if let Ok(eng) = CompiledCircuit::compile_with(&circuit, &opts) {
                if circuit.num_inputs() <= EVAL_INPUT_CAP {
                    let zeros = vec![0u64; circuit.num_inputs()];
                    assert_eq!(eng.evaluate(&zeros), circuit.evaluate(&zeros));
                }
            }
        }
    }
    assert!(
        reached_compile > 100,
        "only {reached_compile} mutants loaded"
    );
}

/// The same contract for bit tapes: `from_bytes` → `decode` →
/// `CompiledBitCircuit::compile` → evaluate.
#[test]
fn bit_tape_loader_survives_mutations() {
    let bits = lower_with(&every_kind_circuit(), 8, &CompileOptions::sequential());
    let base = BitTape::encode(&bits).to_bytes();
    let mut rng = Rng::new(0xB17A9E);
    let mut reached_compile = 0;
    for kind in 0..5 {
        for _ in 0..500 {
            let bytes = mutate_tape(&base, kind, &mut rng);
            let Ok(tape) = BitTape::from_bytes(&bytes) else {
                continue;
            };
            let Ok(circuit) = tape.decode() else {
                continue;
            };
            reached_compile += 1;
            let eng = CompiledBitCircuit::compile_gmw(&circuit);
            if circuit.num_inputs() <= EVAL_INPUT_CAP {
                let zeros = vec![false; circuit.num_inputs()];
                assert_eq!(
                    eng.evaluate_batch(std::slice::from_ref(&zeros)),
                    vec![circuit.evaluate(&zeros)]
                );
            }
        }
    }
    assert!(
        reached_compile > 100,
        "only {reached_compile} mutants loaded"
    );
}
