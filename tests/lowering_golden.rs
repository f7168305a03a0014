//! Golden figures for the heavy/light triangle of Figure 1 at N=4, on
//! both circuit levels of the secure path's call chain.
//!
//! Word level: the relational circuit's word lowering (`rc.lower_with`
//! in build mode) and the word optimizer's liveness mark. Bit level: the
//! live gates of that word circuit lowered at width 8, and the bit
//! optimizer's output. Each
//! gate list is a pure function of its input and the creation order of
//! one sequential pass, so its size, depth (AND count and AND depth at
//! the bit level) and a fingerprint of every gate are pinned here. A
//! change that reorders gate creation, drops a fold or misses a CSE hit
//! moves at least one of them. The GMW tape `compile_gmw` builds from
//! the width-8 lowering is pinned the same way: its schedule shape and
//! the fingerprint of every instruction and register. So are the word
//! engine's compile of the word circuit (its register allocation's
//! shape) and the bytes of the word circuit's tape container.
//!
//! Two kinds of figure are pinned. The mark's live counts and the word
//! engine's schedule shape are what the word pipeline produces: they do
//! not depend on how its work is split between the builder's rewrite
//! rules and the optimizer's mark. Everything else depends on the built
//! circuit itself and moves with the builder: the build's figures, the
//! word engine's fingerprint (an `Assert` instruction carries its source
//! gate index), the word tape bytes, the bit lowering and the GMW tape.
//!
//! The figures were recorded while parallel versions of these passes
//! still existed and were checked byte-identical to the sequential
//! ones, so they also pin the sequential creation order those passes
//! reproduced.

use qec_circuit::lower::BGate;
use qec_circuit::{
    fnv1a64, lower_with, optimize_bits_with, BitCircuit, Circuit, CompileOptions,
    CompiledBitCircuit, CompiledCircuit, Gate, Mode, WordTape,
};
use qec_core::triangle_heavy_light;

/// FNV-1a over a fixed little-endian encoding of every word gate (a
/// kind byte and three 64-bit operand words, zero-padded), then the
/// outputs and the input arity.
fn word_fingerprint(c: &Circuit) -> u64 {
    let mut bytes = Vec::with_capacity(c.num_wires() * 25 + c.outputs().len() * 4 + 8);
    for g in c.gates() {
        let (k, ops): (u8, [u64; 3]) = match g {
            Gate::Input(i) => (0, [i as u64, 0, 0]),
            Gate::Const(v) => (1, [v, 0, 0]),
            Gate::Add(a, b) => (2, [a.into(), b.into(), 0]),
            Gate::Sub(a, b) => (3, [a.into(), b.into(), 0]),
            Gate::Mul(a, b) => (4, [a.into(), b.into(), 0]),
            Gate::Eq(a, b) => (5, [a.into(), b.into(), 0]),
            Gate::Lt(a, b) => (6, [a.into(), b.into(), 0]),
            Gate::And(a, b) => (7, [a.into(), b.into(), 0]),
            Gate::Or(a, b) => (8, [a.into(), b.into(), 0]),
            Gate::Xor(a, b) => (9, [a.into(), b.into(), 0]),
            Gate::Not(a) => (10, [a.into(), 0, 0]),
            Gate::Mux(s, a, b) => (11, [s.into(), a.into(), b.into()]),
            Gate::AssertZero(a) => (12, [a.into(), 0, 0]),
        };
        bytes.push(k);
        for w in ops {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
    }
    for &o in c.outputs() {
        bytes.extend_from_slice(&o.to_le_bytes());
    }
    bytes.extend_from_slice(&(c.num_inputs() as u64).to_le_bytes());
    fnv1a64(&bytes)
}

#[test]
fn triangle_word_circuit_matches_its_golden_figures() {
    let (rc, _) = triangle_heavy_light(4);
    let opts = CompileOptions::sequential();
    let word = rc.lower_with(Mode::Build, &opts).circuit;
    assert_eq!(
        (
            word.size(),
            word.depth(),
            word.num_wires(),
            word.num_inputs(),
            word.outputs().len()
        ),
        (14_810, 542, 14_851, 36, 64),
        "word sizes"
    );
    assert_eq!(
        word_fingerprint(&word),
        10_478_690_716_984_892_045,
        "word gate list"
    );

    // The optimizer's mark: independent of where the rules run.
    let eng = CompiledCircuit::compile_with(&word, &opts).unwrap();
    let st = eng.stats();
    let opt = st.opt.as_ref().expect("the optimizer ran");
    assert_eq!(
        (
            opt.gates_before,
            opt.gates_after,
            opt.wires_before,
            opt.wires_after,
            st.circuit_depth,
            st.optimized_depth,
            opt.dead
        ),
        (14_810, 13_621, 14_851, 13_662, 542, 542, 1189),
        "OptStats sizes"
    );
}

/// FNV-1a over a fixed little-endian encoding of every bit gate (a kind
/// byte and two operand words), then the outputs and the input arity.
fn fingerprint(bc: &BitCircuit) -> u64 {
    let mut bytes = Vec::with_capacity(bc.gates().len() * 9 + bc.outputs().len() * 4 + 8);
    for &g in bc.gates() {
        let (k, a, b) = match g {
            BGate::Input(i) => (0u8, i, 0),
            BGate::Const(v) => (1, u32::from(v), 0),
            BGate::Xor(a, b) => (2, a, b),
            BGate::And(a, b) => (3, a, b),
            BGate::Not(a) => (4, a, 0),
            BGate::AssertFalse(a) => (5, a, 0),
        };
        bytes.push(k);
        bytes.extend_from_slice(&a.to_le_bytes());
        bytes.extend_from_slice(&b.to_le_bytes());
    }
    for &o in bc.outputs() {
        bytes.extend_from_slice(&o.to_le_bytes());
    }
    bytes.extend_from_slice(&(bc.num_inputs() as u64).to_le_bytes());
    fnv1a64(&bytes)
}

#[test]
fn triangle_lowering_at_width_8_matches_its_golden_figures() {
    let (rc, _) = triangle_heavy_light(4);
    // The environment's options (tracing, validation) must not change a
    // single gate.
    for opts in [CompileOptions::sequential(), CompileOptions::from_env()] {
        let word = rc.lower_with(Mode::Build, &opts).circuit;
        let bc = lower_with(&word, 8, &opts);
        assert_eq!(
            (
                bc.gates().len(),
                bc.gate_count(),
                bc.and_count(),
                bc.and_depth(),
                bc.num_inputs(),
                bc.outputs().len(),
            ),
            (146_803, 146_513, 48_902, 938, 288, 512),
            "lowered sizes"
        );
        assert_eq!(
            fingerprint(&bc),
            9_230_628_456_119_878_212,
            "lowered gate list"
        );

        let (opt, st) = optimize_bits_with(&bc, &opts);
        assert_eq!(
            (
                opt.gate_count(),
                opt.and_count(),
                opt.and_depth(),
                st.cse_hits,
                st.folds,
                st.dead
            ),
            (145_712, 48_902, 938, 0, 0, 802),
            "optimized sizes and counters"
        );
        assert_eq!(
            fingerprint(&opt),
            3_279_906_439_116_801_657,
            "optimized gate list"
        );
    }
}

/// The GMW schedule of the width-8 lowering: `compile_gmw` is a pure
/// function of the gate list, so its tape fingerprint (every
/// instruction, the output registers, the input arity and the register
/// count) and its schedule shape are pinned here.
#[test]
fn triangle_gmw_tape_at_width_8_matches_its_golden_figures() {
    let (rc, _) = triangle_heavy_light(4);
    let opts = CompileOptions::sequential();
    let word = rc.lower_with(Mode::Build, &opts).circuit;
    let bc = lower_with(&word, 8, &opts);
    let eng = CompiledBitCircuit::compile_gmw(&bc);
    let st = eng.stats();
    assert_eq!(
        (
            st.tape_len,
            st.peak_registers,
            st.num_levels,
            st.and_levels,
            eng.level_starts().len()
        ),
        (146_803, 2841, 2288, 938, 2289),
        "schedule shape"
    );
    assert_eq!(eng.fingerprint(), 14_794_465_252_452_928_758, "GMW tape");
}

/// The word engine's compile of the N=4 word circuit (optimizer on) and
/// the word tape container of that circuit. The engine figures pin the
/// level-major schedule's shape, and its fingerprint pins every
/// instruction and register; the tape bytes pin the on-disk format a
/// persisted plan is read back from. The schedule is compiled from the
/// live gates of the built circuit and skips whatever the builder leaves
/// to the mark;
/// the fingerprint also covers the source gate index each `Assert`
/// instruction reports, so it moves with the built circuit.
#[test]
fn triangle_word_engine_and_tape_match_their_golden_figures() {
    let (rc, _) = triangle_heavy_light(4);
    let opts = CompileOptions::sequential();
    let word = rc.lower_with(Mode::Build, &opts).circuit;
    let eng = CompiledCircuit::compile_with(&word, &opts).unwrap();
    let st = eng.stats();
    let widths: Vec<u8> = st
        .level_widths
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    let counts: Vec<u8> = st
        .gate_counts
        .iter()
        .flat_map(|c| c.to_le_bytes())
        .collect();
    let got = (
        st.tape_len,
        st.peak_registers,
        st.num_levels,
        fnv1a64(&widths),
        fnv1a64(&counts),
        st.bytes_per_instance,
    );
    let tape = WordTape::encode(&word).to_bytes();
    let got_tape = (tape.len(), fnv1a64(&tape));
    assert_eq!(
        got,
        (
            13_662,
            403,
            543,
            13_345_298_467_173_007_043,
            13_248_649_428_540_488_977,
            382_496
        ),
        "word engine schedule"
    );
    assert_eq!(
        eng.fingerprint(),
        11_151_614_958_702_044_676,
        "word engine tape"
    );
    assert_eq!(
        got_tape,
        (179_456, 9_070_359_793_085_467_397),
        "word tape bytes"
    );
}
