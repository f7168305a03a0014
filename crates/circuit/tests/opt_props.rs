//! Property tests pinning the optimizer to the reference interpreter:
//! compiled with the liveness mark on or off, a random gate DAG must be
//! observationally identical to `c` — outputs, arity errors, and the
//! exact source-level lowest failing assert gate and its value. The bit
//! lowering reads the same mark: lowering only the live gates answers
//! like lowering all of them.
//!
//! The rewrite rules live in the builder, so they are pinned here too:
//! a random program built by `Builder::new()` evaluates as the same
//! program built by the oracle `Builder::without_cse()`, and replaying a
//! rule-built circuit through a fresh `Builder::new()` gives back its
//! gate list unchanged.

use proptest::prelude::*;
use qec_circuit::{
    lower_with, optimize_bits_with, Builder, Circuit, CompileOptions, CompiledCircuit, EvalError,
    Gate, WireId,
};

/// Raw material for one random gate: kind selector plus operand seeds,
/// reduced modulo the live wire count at build time.
type GateSeed = (u8, u32, u32, u32, u64);

/// Builds a random circuit from seeds. Hash-consing is disabled so the
/// source keeps every structural duplicate — the offline pass gets raw
/// material to chew on, and the equivalence claim is tested against the
/// least-preprocessed circuit we can build.
fn build_random(num_inputs: usize, seeds: &[GateSeed]) -> Circuit {
    build_random_with(Builder::without_cse(), num_inputs, seeds)
}

/// The program of [`build_random`], built by `b`.
fn build_random_with(mut b: Builder, num_inputs: usize, seeds: &[GateSeed]) -> Circuit {
    let mut wires: Vec<_> = (0..num_inputs).map(|_| b.input()).collect();
    for &(kind, a, bb, s, v) in seeds {
        let pick = |x: u32| wires[x as usize % wires.len()];
        let (wa, wb, ws) = (pick(a), pick(bb), pick(s));
        let w = match kind % 13 {
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
            11 | 12 => {
                // assert on a masked comparison so random inputs mix
                // passing and failing evaluations
                let c = b.constant(v & 0x7);
                let e = b.eq(wa, c);
                b.assert_zero(e); // fires when wa == v & 7
                continue;
            }
            _ => unreachable!(),
        };
        wires.push(w);
    }
    let outputs: Vec<_> = wires
        .iter()
        .copied()
        .step_by(3)
        .chain(wires.last().copied())
        .collect();
    b.finish(outputs)
}

/// Builds `c` again, gate by gate, through a fresh `Builder::new()`.
fn replay(c: &Circuit) -> Circuit {
    let mut b = Builder::new();
    let mut map: Vec<WireId> = Vec::with_capacity(c.num_wires());
    for g in c.gates() {
        let m = |w: WireId| map[w as usize];
        let w = match g {
            Gate::Input(_) => b.input(),
            Gate::Const(v) => b.constant(v),
            Gate::Add(x, y) => b.add(m(x), m(y)),
            Gate::Sub(x, y) => b.sub(m(x), m(y)),
            Gate::Mul(x, y) => b.mul(m(x), m(y)),
            Gate::Eq(x, y) => b.eq(m(x), m(y)),
            Gate::Lt(x, y) => b.lt(m(x), m(y)),
            Gate::And(x, y) => b.and(m(x), m(y)),
            Gate::Or(x, y) => b.or(m(x), m(y)),
            Gate::Xor(x, y) => b.xor(m(x), m(y)),
            Gate::Not(x) => b.not(m(x)),
            Gate::Mux(s, x, y) => b.mux(m(s), m(x), m(y)),
            Gate::AssertZero(x) => b.assert_zero(m(x)),
        };
        map.push(w);
    }
    let outputs = c.outputs().iter().map(|&o| map[o as usize]).collect();
    b.finish(outputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The builder's rules keep the program's meaning: built raw and
    /// built with rules, a random program gives the same outputs, the
    /// same first failing assert value and the same arity errors.
    #[test]
    fn rule_built_circuits_match_the_raw_build(
        num_inputs in 1usize..6,
        seeds in prop::collection::vec(any::<GateSeed>(), 1..120),
        raw_instances in prop::collection::vec(
            prop::collection::vec(0u64..16, 0..8), 1..10),
    ) {
        let raw = build_random(num_inputs, &seeds);
        let ruled = build_random_with(Builder::new(), num_inputs, &seeds);
        prop_assert!(ruled.size() <= raw.size(), "the rules never grow a circuit");
        prop_assert_eq!(ruled.num_inputs(), raw.num_inputs());
        for vals in &raw_instances {
            let inst: Vec<u64> =
                (0..num_inputs).map(|i| vals.get(i).copied().unwrap_or(3)).collect();
            match (raw.evaluate(&inst), ruled.evaluate(&inst)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "inputs {:?}", inst),
                (
                    Err(EvalError::AssertionFailed { value: rv, .. }),
                    Err(EvalError::AssertionFailed { gate, value }),
                ) => {
                    prop_assert_eq!(rv, value, "first failing assert value");
                    prop_assert!(matches!(ruled.gate(gate), Gate::AssertZero(_)));
                }
                (a, b) => prop_assert!(false, "outcome diverged: raw {a:?} vs ruled {b:?}"),
            }
        }
        let short = vec![0u64; num_inputs - 1];
        prop_assert_eq!(raw.evaluate(&short).err(), ruled.evaluate(&short).err());
    }

    /// A rule-built circuit is a fixpoint of the rules: replayed through
    /// a fresh `Builder::new()` it comes back gate for gate.
    #[test]
    fn rule_built_circuits_replay_to_themselves(
        num_inputs in 1usize..6,
        seeds in prop::collection::vec(any::<GateSeed>(), 1..120),
    ) {
        let c = build_random_with(Builder::new(), num_inputs, &seeds);
        let again = replay(&c);
        prop_assert!(again.gates().eq(c.gates()), "the replay rewrote a gate");
        prop_assert_eq!(again.outputs(), c.outputs());
        prop_assert_eq!((again.size(), again.depth()), (c.size(), c.depth()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine compiled with the optimizer on and off reports exactly
    /// what the interpreter does: outputs, arity errors, and the
    /// source-level lowest failing assert gate and its value. The
    /// optimizing compile never holds more instructions or levels.
    #[test]
    fn compiled_engines_match_the_interpreter(
        num_inputs in 1usize..6,
        seeds in prop::collection::vec(any::<GateSeed>(), 1..120),
        raw_instances in prop::collection::vec(
            prop::collection::vec(0u64..16, 0..8), 1..10),
    ) {
        let c = build_random(num_inputs, &seeds);
        let mut instances: Vec<Vec<u64>> = raw_instances
            .iter()
            .map(|vals| (0..num_inputs).map(|i| vals.get(i).copied().unwrap_or(3)).collect())
            .collect();
        instances.push(vec![0u64; num_inputs - 1]);
        let expected: Vec<_> = instances.iter().map(|i| c.evaluate(i)).collect();
        let on = CompiledCircuit::compile_with(&c, &CompileOptions::from_env())
            .expect("circuit compiles");
        let off = CompiledCircuit::compile_with(
            &c,
            &CompileOptions::sequential().with_optimize(false),
        )
        .expect("circuit compiles");
        prop_assert_eq!(on.evaluate_batch(&instances), expected.clone());
        prop_assert_eq!(off.evaluate_batch(&instances), expected);

        let (st, raw) = (on.stats(), off.stats());
        let opt = st.opt.as_ref().expect("compile runs the optimizer");
        prop_assert!(raw.opt.is_none());
        prop_assert_eq!(raw.tape_len, c.num_wires());
        prop_assert_eq!((raw.optimized_size, raw.optimized_depth), (c.size(), c.depth()));
        prop_assert_eq!(st.tape_len, opt.wires_after);
        prop_assert_eq!(opt.gates_after, st.optimized_size);
        prop_assert!(st.optimized_size <= c.size() && st.optimized_depth <= c.depth());
        prop_assert_eq!(st.num_levels as u32, st.optimized_depth + 1);
        prop_assert!(st.level_widths.iter().all(|&w| w > 0), "every level holds a gate");
    }

    /// The bit lowering reads the mark: lowering only the live word
    /// gates gives no more bit gates, and the same outputs and the same
    /// pass/fail outcome, as lowering every gate.
    #[test]
    fn marked_lowering_matches_the_full_lowering(
        num_inputs in 1usize..5,
        seeds in prop::collection::vec(any::<GateSeed>(), 1..40),
        raw_instances in prop::collection::vec(
            prop::collection::vec(0u64..16, 0..6), 1..6),
    ) {
        let c = build_random(num_inputs, &seeds);
        let live = lower_with(&c, 8, &CompileOptions::sequential());
        let all = lower_with(&c, 8, &CompileOptions::sequential().with_optimize(false));
        prop_assert!(live.gate_count() <= all.gate_count());
        prop_assert!(live.and_count() <= all.and_count());
        prop_assert_eq!(live.num_inputs(), all.num_inputs());
        for vals in &raw_instances {
            let inst: Vec<u64> =
                (0..num_inputs).map(|i| vals.get(i).copied().unwrap_or(3)).collect();
            match (live.evaluate(&live.pack_inputs(&inst)), all.evaluate(&all.pack_inputs(&inst))) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "inputs {:?}", inst),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "bit outcome diverged: {a:?} vs {b:?}"),
            }
        }
    }

    /// Bit-level: `optimize_bits` over a lowered circuit is
    /// observationally equivalent and never AND-larger.
    #[test]
    fn optimize_bits_matches_bit_interpreter(
        num_inputs in 1usize..5,
        seeds in prop::collection::vec(any::<GateSeed>(), 1..40),
        raw_instances in prop::collection::vec(
            prop::collection::vec(0u64..16, 0..6), 1..6),
    ) {
        let c = build_random(num_inputs, &seeds);
        let bc = lower_with(&c, 8, &CompileOptions::sequential());
        let (opt, st) = optimize_bits_with(&bc, &CompileOptions::sequential());
        prop_assert!(st.and_after <= st.and_before);
        prop_assert!(st.gates_after <= st.gates_before);
        prop_assert!(st.and_depth_after <= st.and_depth_before);
        for vals in &raw_instances {
            let inst: Vec<u64> =
                (0..num_inputs).map(|i| vals.get(i).copied().unwrap_or(3)).collect();
            let src = bc.evaluate(&bc.pack_inputs(&inst));
            let got = opt.evaluate(&opt.pack_inputs(&inst));
            match (src, got) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    bc.unpack_outputs(&a),
                    opt.unpack_outputs(&b),
                    "inputs {:?}", inst
                ),
                (Err(_), Err(_)) => {} // both fail an assert
                (a, b) => prop_assert!(false, "bit outcome diverged: {a:?} vs {b:?}"),
            }
        }
    }
}
