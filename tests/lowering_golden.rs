//! Golden figures for the heavy/light triangle of Figure 1 at N=4, on
//! both circuit levels of the secure path's call chain.
//!
//! Word level: the relational circuit's word lowering (`rc.lower_with`
//! in build mode) and the word optimizer's output. Bit level: that word
//! circuit lowered at width 8, and the bit optimizer's output. Each
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
//! The figures were recorded while parallel versions of these passes
//! still existed and were checked byte-identical to the sequential
//! ones, so they also pin the sequential creation order those passes
//! reproduced.

use qec_circuit::lower::BGate;
use qec_circuit::{
    fnv1a64, lower_with, optimize_bits_with, optimize_with, BitCircuit, Circuit, CompileOptions,
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
        (34_343, 896, 34_384, 36, 64),
        "word sizes"
    );
    assert_eq!(
        word_fingerprint(&word),
        9_581_872_792_511_545_602,
        "word gate list"
    );

    let (opt, st) = optimize_with(&word, &opts);
    assert_eq!(
        (opt.size(), opt.depth(), opt.num_wires()),
        (24_851, 593, 24_892),
        "optimized word sizes"
    );
    assert_eq!(
        word_fingerprint(&opt),
        6_537_638_602_661_442_145,
        "optimized word gate list"
    );
    assert_eq!(
        (
            st.gates_before,
            st.gates_after,
            st.wires_before,
            st.wires_after,
            st.depth_before,
            st.depth_after
        ),
        (34_343, 24_851, 34_384, 24_892, 896, 593),
        "OptStats sizes"
    );
    assert_eq!(
        (
            st.folded,
            st.identities,
            st.cse_hits,
            st.dead,
            st.asserts_before,
            st.asserts_after,
            st.always_fail
        ),
        (2263, 3433, 332, 3537, 130, 130, 0),
        "OptStats counters"
    );
    assert_eq!(
        st.phase_gates,
        vec![("rewrite", 34_343, 28_388), ("dce", 28_388, 24_851)],
        "OptStats phases"
    );
    let origin: Vec<u8> = st
        .assert_origin
        .iter()
        .flat_map(|&(o, s)| o.to_le_bytes().into_iter().chain(s.to_le_bytes()))
        .collect();
    assert_eq!(st.assert_origin.len(), 130);
    assert_eq!(
        fnv1a64(&origin),
        10_463_166_425_369_042_985,
        "OptStats assert_origin"
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
            (278_050, 277_760, 94_257, 1599, 288, 512),
            "lowered sizes"
        );
        assert_eq!(
            fingerprint(&bc),
            3_143_217_094_529_180_472,
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
            (259_467, 87_168, 1599, 0, 0, 18_294),
            "optimized sizes and counters"
        );
        assert_eq!(
            fingerprint(&opt),
            12_396_890_191_819_475_653,
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
        (278_050, 4857, 4069, 1599, 4070),
        "schedule shape"
    );
    assert_eq!(eng.fingerprint(), 18_178_047_808_494_733_995, "GMW tape");
}

/// The word engine's compile of the N=4 word circuit (optimizer on) and
/// the word tape container of that circuit. The engine figures pin the
/// level-major schedule's shape, and its fingerprint pins every
/// instruction and register; the tape bytes pin the on-disk format a
/// persisted plan is read back from.
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
            24_892,
            1013,
            594,
            16_983_956_828_374_211_489,
            3_569_573_965_597_128_180,
            714_672
        ),
        "word engine schedule"
    );
    assert_eq!(
        eng.fingerprint(),
        12_410_777_380_844_984_844,
        "word engine tape"
    );
    assert_eq!(
        got_tape,
        (427_544, 11_960_629_841_009_027_391),
        "word tape bytes"
    );
}
