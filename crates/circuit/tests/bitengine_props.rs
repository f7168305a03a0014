//! Property tests pinning the bitsliced [`CompiledBitCircuit`] to the
//! reference interpreter: for random lowered circuits and random
//! batches, every kernel must reproduce per-instance
//! [`BitCircuit::evaluate`] lane for lane — outputs, input-arity
//! errors, and the gate index of the first failing assertion — at
//! every batch size, including ragged final blocks and batches that
//! straddle lane-word boundaries.

use proptest::prelude::*;
use qec_circuit::lower::BitCircuit;
use qec_circuit::{
    lower_with, BitEvalScratch, BitKernel, BitOp, Builder, CompileOptions, CompiledBitCircuit,
};
use std::collections::HashSet;

/// Raw material for one random word gate (same recipe as
/// `engine_props.rs`): kind selector plus operand seeds, reduced modulo
/// the live wire count at build time.
type GateSeed = (u8, u32, u32, u32, u64);

/// Builds a random word circuit and lowers it at `width`. Deterministic
/// in its arguments, so the interpreter and the engine see the
/// identical bit circuit.
fn build_random_bits(num_inputs: usize, seeds: &[GateSeed], width: u32) -> BitCircuit {
    let mut b = Builder::new();
    let mut wires: Vec<_> = (0..num_inputs).map(|_| b.input()).collect();
    for &(kind, a, bb, s, v) in seeds {
        let pick = |x: u32| wires[x as usize % wires.len()];
        let (wa, wb, ws) = (pick(a), pick(bb), pick(s));
        let w = match kind % 12 {
            0 => b.add(wa, wb),
            1 => b.sub(wa, wb),
            2 => b.mul(wa, wb),
            3 => b.eq(wa, wb),
            4 => b.lt(wa, wb),
            5 => b.and(wa, wb),
            6 => b.or(wa, wb),
            7 => b.xor(wa, wb),
            8 => b.not(wa),
            9 => b.mux(ws, wa, wb),
            10 => b.constant(v),
            11 => {
                // assert on a masked value so batches mix passing and
                // failing lanes instead of failing everywhere
                let c = b.constant(v & 0x3);
                let e = b.eq(wa, c);
                b.assert_zero(e); // fires when wa == v & 3
                continue;
            }
            _ => unreachable!(),
        };
        wires.push(w);
    }
    let outputs: Vec<_> = wires
        .iter()
        .copied()
        .step_by(2)
        .chain(wires.last().copied())
        .collect();
    let c = b.finish(outputs);
    lower_with(&c, width, &CompileOptions::sequential())
}

/// Deterministic pseudo-random bit instances (xorshift), with every
/// `7`-th instance given a wrong arity so error lanes interleave with
/// good ones.
fn random_instances(bits: &BitCircuit, count: usize, mut state: u64) -> Vec<Vec<bool>> {
    (0..count)
        .map(|i| {
            let arity = if i % 7 == 6 {
                bits.num_inputs() + 1
            } else {
                bits.num_inputs()
            };
            (0..arity)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state & 1 == 1
                })
                .collect()
        })
        .collect()
}

/// Per-instance reference results via the scratch-buffered interpreter.
fn reference(
    bits: &BitCircuit,
    instances: &[Vec<bool>],
) -> Vec<Result<Vec<bool>, qec_circuit::EvalError>> {
    let mut scratch = BitEvalScratch::default();
    instances
        .iter()
        .map(|inst| bits.evaluate_with(inst, &mut scratch).map(<[bool]>::to_vec))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched bitsliced evaluation equals per-instance interpretation
    /// on every lane, for every available kernel, at batch sizes that
    /// cover singleton, one-under/at/over a lane word, and multi-block
    /// with ragged tails.
    #[test]
    fn bitengine_matches_interpreter(
        num_inputs in 1usize..5,
        seeds in prop::collection::vec(any::<GateSeed>(), 1..80),
        width in 1u32..9,
        state in any::<u64>(),
    ) {
        let bits = build_random_bits(num_inputs, &seeds, width);
        let eng = CompiledBitCircuit::compile_gmw(&bits);
        prop_assert!(eng.stats().peak_registers <= bits.gates().len());
        prop_assert_eq!(eng.stats().tape_len, bits.gates().len());

        let all = random_instances(&bits, 512, state | 1);
        let want_all = reference(&bits, &all);
        for kernel in BitKernel::available() {
            let eng = eng.clone().with_kernel(kernel);
            for batch in [1usize, 63, 64, 65, 512] {
                let got = eng.evaluate_batch(&all[..batch]);
                prop_assert_eq!(&got, &want_all[..batch], "kernel {} batch {}", kernel.name(), batch);
            }
        }
    }

    /// Ragged final blocks: sizes around every lane-count boundary
    /// (64/256/512 ± 1) agree with sequential interpretation, and a
    /// batch is always answered instance-for-instance in order.
    #[test]
    fn ragged_final_blocks(
        seeds in prop::collection::vec(any::<GateSeed>(), 1..40),
        state in any::<u64>(),
    ) {
        let bits = build_random_bits(2, &seeds, 6);
        let eng = CompiledBitCircuit::compile_gmw(&bits);
        let all = random_instances(&bits, 513, state | 1);
        let want_all = reference(&bits, &all);
        for batch in [63usize, 65, 127, 255, 257, 511, 513] {
            let got = eng.evaluate_batch(&all[..batch]);
            prop_assert_eq!(got.len(), batch);
            prop_assert_eq!(&got, &want_all[..batch], "batch {}", batch);
        }
    }

    /// Circuits whose outputs are all constants (no inputs read) still
    /// evaluate correctly — the constant-broadcast path must not leak
    /// padding lanes into results or assertions.
    #[test]
    fn all_constant_circuits(vals in prop::collection::vec(any::<u64>(), 1..6), batch in 1usize..130) {
        let mut b = Builder::new();
        let consts: Vec<_> = vals.iter().map(|&v| b.constant(v)).collect();
        let c = b.finish(consts);
        let bits = lower_with(&c, 8, &CompileOptions::sequential());
        let eng = CompiledBitCircuit::compile_gmw(&bits);
        let instances = vec![Vec::new(); batch];
        let want = bits.evaluate(&[]).expect("constants never fail");
        for r in eng.evaluate_batch(&instances) {
            prop_assert_eq!(r.as_ref().expect("constants never fail"), &want);
        }
    }

    /// Scalar-vs-AVX parity on wide batches of random lowerings.
    /// Vacuously scalar-vs-scalar where the CPU lacks the wide kernels.
    /// The tape is the GMW round schedule: its AND-bearing levels
    /// number exactly the circuit's AND depth.
    #[test]
    fn scalar_vs_avx_kernel_parity(
        seeds in prop::collection::vec(any::<GateSeed>(), 1..60),
        state in any::<u64>(),
    ) {
        let bits = build_random_bits(3, &seeds, 8);
        let eng = CompiledBitCircuit::compile_gmw(&bits);
        prop_assert_eq!(eng.stats().and_levels, bits.and_depth() as usize);
        let instances = random_instances(&bits, 300, state | 1);
        let base = eng.clone().with_kernel(BitKernel::Scalar).evaluate_batch(&instances);
        for kernel in BitKernel::available() {
            let got = eng.clone().with_kernel(kernel).evaluate_batch(&instances);
            prop_assert_eq!(&got, &base, "kernel {} vs scalar", kernel.name());
        }
    }

    /// The register allocator's invariants, level by level, on the
    /// decoded tape: a level's destinations are distinct, none of them
    /// is read as a source in the same level (registers are freed only
    /// at level boundaries), and a level holding an AND holds only ANDs.
    #[test]
    fn tape_levels_keep_allocator_invariants(
        num_inputs in 1usize..5,
        seeds in prop::collection::vec(any::<GateSeed>(), 1..80),
        width in 1u32..9,
    ) {
        let bits = build_random_bits(num_inputs, &seeds, width);
        let eng = CompiledBitCircuit::compile_gmw(&bits);
        let starts = eng.level_starts();
        prop_assert_eq!(*starts.last().unwrap() as usize, eng.stats().tape_len);
        for (l, span) in starts.windows(2).enumerate() {
            let ops: Vec<BitOp> = eng.ops(span[0] as usize..span[1] as usize).collect();
            let mut dsts = HashSet::new();
            let mut srcs = HashSet::new();
            for op in &ops {
                let dst = match *op {
                    BitOp::Input { dst, .. } | BitOp::Const { dst, .. } => dst,
                    BitOp::Xor { dst, a, b } | BitOp::And { dst, a, b } => {
                        srcs.extend([a, b]);
                        dst
                    }
                    BitOp::Not { dst, a } | BitOp::AssertFalse { dst, a, .. } => {
                        srcs.insert(a);
                        dst
                    }
                };
                prop_assert!(dsts.insert(dst), "level {} writes register {} twice", l, dst);
            }
            prop_assert!(dsts.is_disjoint(&srcs), "level {} reads a register it writes", l);
            let ands = ops.iter().filter(|o| matches!(o, BitOp::And { .. })).count();
            prop_assert!(ands == 0 || ands == ops.len(), "level {} mixes ANDs", l);
        }
    }
}
