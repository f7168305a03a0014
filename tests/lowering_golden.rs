//! Golden figures for bit lowering: the heavy/light triangle of Figure 1
//! at N=4, lowered at width 8 (the secure path's call chain). The bit
//! gate list is a pure function of the word circuit and the creation
//! order of the sequential lowering, so its size, AND count, AND depth
//! and a fingerprint of every gate are pinned here. A change that
//! reorders gate creation, drops a fold or misses a CSE hit moves at
//! least one of them. The bit optimizer's output is pinned the same way.
//!
//! The figures were recorded while the level-parallel bit passes still
//! existed and were checked byte-identical to the sequential ones, so
//! they also pin the sequential creation order those passes reproduced.

use qec_circuit::lower::BGate;
use qec_circuit::{fnv1a64, lower_with, optimize_bits_with, BitCircuit, CompileOptions, Mode};
use qec_core::triangle_heavy_light;

/// FNV-1a over a fixed little-endian encoding of every gate (a kind
/// byte and two operand words), then the outputs and the input arity.
fn fingerprint(bc: &BitCircuit) -> u64 {
    let mut bytes = Vec::with_capacity(bc.gates().len() * 9 + bc.outputs().len() * 4 + 8);
    for &g in bc.gates() {
        let (k, a, b) = match g {
            BGate::Input(i) => (0u8, i as u32, 0),
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
    // Every worker count lowers on the calling thread; the pool in the
    // options must not change a single gate.
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
