//! Corpus replay through the persistence path: every checked-in corpus
//! case (`tests/corpus/*.case`) is compiled, tape-encoded, saved to
//! disk, and re-evaluated by the `tape_eval` child binary from the
//! serialized bytes alone. The child's outputs must equal the
//! in-process compiled engine's — the compile-once /
//! load-and-evaluate-many contract across a real process boundary, on
//! real regression cases rather than synthetic circuits.

use qec_check::load_corpus;
use qec_circuit::{lower_with, BitTape, CompileOptions, CompiledCircuit, Mode, WordTape};
use qec_core::naive_circuit;
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

fn run_child(kind: &str, tape_path: &Path, stdin_line: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tape_eval"))
        .arg(kind)
        .arg(tape_path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tape_eval spawns");
    child
        .stdin
        .take()
        .expect("child stdin")
        .write_all(stdin_line.as_bytes())
        .expect("child accepts inputs");
    let out = child.wait_with_output().expect("tape_eval exits");
    assert!(
        out.status.success(),
        "tape_eval {kind} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).trim().to_string()
}

#[test]
fn corpus_cases_replay_through_save_load_evaluate_in_a_child_process() {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let cases = load_corpus(&corpus).expect("corpus loads");
    assert!(!cases.is_empty(), "corpus must not be empty");
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    for (case_path, case) in cases {
        let name = case_path
            .file_stem()
            .expect("corpus file stem")
            .to_string_lossy()
            .to_string();
        let (cq, db, dc) = case.materialize().expect("case materializes");
        let (rc, _) = naive_circuit(&cq, &dc).expect("naive circuit builds");
        let lowered = rc.lower_with(Mode::Build, &CompileOptions::sequential());
        let inputs = lowered.layout.values(&db).expect("layout inputs");

        // In-process reference: the compiled engine on the same circuit.
        let engine = CompiledCircuit::compile_with(&lowered.circuit, &CompileOptions::sequential())
            .expect("circuit compiles");
        let expect: Vec<String> = engine
            .evaluate(&inputs)
            .expect("in-process evaluation")
            .iter()
            .map(u64::to_string)
            .collect();

        // Word tape: save → child load + evaluate.
        let tape = WordTape::encode(&lowered.circuit);
        let tape_path = dir.join(format!("qec-corpus-{pid}-{name}.wtape"));
        tape.save(&tape_path).expect("word tape saves");
        let line: Vec<String> = inputs.iter().map(u64::to_string).collect();
        let got = run_child("word", &tape_path, &line.join(" "));
        let _ = std::fs::remove_file(&tape_path);
        assert_eq!(
            got.split_whitespace().collect::<Vec<_>>(),
            expect.iter().map(String::as_str).collect::<Vec<_>>(),
            "case {name}: child word-tape outputs diverge from the engine"
        );

        // Bit tape: the same contract at the bit level.
        let bits = lower_with(&lowered.circuit, 64, &CompileOptions::sequential());
        let bit_tape = BitTape::encode(&bits);
        let bit_path = dir.join(format!("qec-corpus-{pid}-{name}.btape"));
        bit_tape.save(&bit_path).expect("bit tape saves");
        let in_bits = bits.pack_inputs(&inputs);
        let bit_line: Vec<&str> = in_bits.iter().map(|&b| if b { "1" } else { "0" }).collect();
        let expect_bits: Vec<&str> = bits
            .evaluate(&in_bits)
            .expect("in-process bit evaluation")
            .iter()
            .map(|&b| if b { "1" } else { "0" })
            .collect();
        let got = run_child("bit", &bit_path, &bit_line.join(" "));
        let _ = std::fs::remove_file(&bit_path);
        assert_eq!(
            got.split_whitespace().collect::<Vec<_>>(),
            expect_bits,
            "case {name}: child bit-tape outputs diverge"
        );
    }
}

#[test]
fn a_corrupted_tape_makes_the_child_fail_loudly() {
    let case = qec_check::gen_case(3);
    let (cq, db, dc) = case.materialize().expect("case materializes");
    let (rc, _) = naive_circuit(&cq, &dc).expect("naive circuit builds");
    let lowered = rc.lower_with(Mode::Build, &CompileOptions::sequential());
    let inputs = lowered.layout.values(&db).expect("layout inputs");
    let tape = WordTape::encode(&lowered.circuit);
    let mut bytes = tape.to_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let path = std::env::temp_dir().join(format!("qec-corrupt-{}.wtape", std::process::id()));
    std::fs::write(&path, &bytes).expect("corrupt tape writes");
    let line: Vec<String> = inputs.iter().map(u64::to_string).collect();
    let mut child = Command::new(env!("CARGO_BIN_EXE_tape_eval"))
        .arg("word")
        .arg(&path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tape_eval spawns");
    child
        .stdin
        .take()
        .expect("child stdin")
        .write_all(line.join(" ").as_bytes())
        .expect("child accepts inputs");
    let out = child.wait_with_output().expect("tape_eval exits");
    let _ = std::fs::remove_file(&path);
    assert!(
        !out.status.success(),
        "a corrupted tape must be rejected, not evaluated"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checksum"),
        "rejection should name the checksum, got: {stderr}"
    );
}
