//! Property tests pinning the compiled engine to the reference
//! interpreter: for random gate DAGs and random input batches,
//! [`CompiledCircuit`] must reproduce [`Circuit::evaluate`]
//! gate-for-gate — outputs, input-arity errors, and the index/value of
//! the first failing assertion — on every lane.

use proptest::prelude::*;
use qec_circuit::{Builder, Circuit, CompileOptions, CompiledCircuit, EvalError};

/// Raw material for one random gate: kind selector plus operand seeds,
/// reduced modulo the live wire count at build time.
type GateSeed = (u8, u32, u32, u32, u64);

/// Builds a random circuit from seeds. Deterministic in its arguments,
/// so the interpreter and the engine see the identical circuit.
fn build_random(num_inputs: usize, seeds: &[GateSeed]) -> Circuit {
    let mut b = Builder::new();
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
                // assert on a masked value so batches mix passing and
                // failing lanes instead of failing everywhere
                let c = b.constant(v & 0x7);
                let e = b.eq(wa, c);
                b.assert_zero(e); // fires when wa == v & 7
                continue;
            }
            _ => unreachable!(),
        };
        wires.push(w);
    }
    // take a spread of wires as outputs, always including the last
    let outputs: Vec<_> = wires
        .iter()
        .copied()
        .step_by(3)
        .chain(wires.last().copied())
        .collect();
    b.finish(outputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batched engine evaluation equals per-instance interpretation on
    /// every lane — including lanes that fail assertions mid-batch and
    /// lanes with wrong input arity.
    #[test]
    fn engine_matches_interpreter(
        num_inputs in 1usize..6,
        seeds in prop::collection::vec(any::<GateSeed>(), 1..120),
        raw_instances in prop::collection::vec(
            (prop::collection::vec(0u64..16, 0..8), any::<bool>()), 1..12),
    ) {
        let c = build_random(num_inputs, &seeds);
        let eng = CompiledCircuit::compile_with(&c, &CompileOptions::from_env())
            .expect("circuit compiles");

        // register allocation must beat the interpreter's O(wires) buffer
        // whenever there is anything to reuse; never exceed it. The tape
        // covers the *optimized* circuit, so it can only be shorter.
        prop_assert!(eng.stats().peak_registers <= c.num_wires());
        prop_assert!(eng.stats().tape_len <= c.num_wires());

        // instances: right arity unless the flag says to corrupt it
        let instances: Vec<Vec<u64>> = raw_instances
            .iter()
            .map(|(vals, corrupt)| {
                let mut inst: Vec<u64> =
                    (0..num_inputs).map(|i| vals.get(i).copied().unwrap_or(3)).collect();
                if *corrupt {
                    inst.push(0); // arity num_inputs + 1
                }
                inst
            })
            .collect();

        let batch = eng.evaluate_batch(&instances);
        prop_assert_eq!(batch.len(), instances.len());
        for (inst, got) in instances.iter().zip(&batch) {
            prop_assert_eq!(got.clone(), c.evaluate(inst));
        }

        // the batch-of-one form agrees too
        prop_assert_eq!(eng.evaluate(&instances[0]), c.evaluate(&instances[0]));
    }

    /// The engine reports the size, depth and wire count of the source
    /// circuit, not of the live gates it runs.
    #[test]
    fn engine_reports_source_size_and_depth(
        num_inputs in 1usize..6,
        seeds in prop::collection::vec(any::<GateSeed>(), 1..40),
    ) {
        let c = build_random(num_inputs, &seeds);
        let eng = CompiledCircuit::compile_with(&c, &CompileOptions::sequential())
            .expect("circuit compiles");
        let st = eng.stats();
        prop_assert_eq!(st.circuit_size, c.size());
        prop_assert_eq!(st.circuit_depth, c.depth());
        prop_assert_eq!(st.circuit_wires, c.num_wires());
        let opt = st.opt.as_ref().expect("the optimizer ran");
        prop_assert_eq!((opt.gates_before, opt.wires_before), (c.size(), c.num_wires()));
        prop_assert_eq!((opt.gates_after, opt.wires_after), (st.optimized_size, st.tape_len));
    }
}

/// Non-random pin: a batch where a middle lane fails an assertion while
/// its neighbours succeed, and two assertions race in one level.
#[test]
fn mid_batch_assertion_failure_is_isolated() {
    let mut b = Builder::new();
    let x = b.input();
    let y = b.input();
    b.assert_zero(x); // gate 2
    b.assert_zero(y); // gate 3
    let s = b.add(x, y);
    let c = b.finish(vec![s]);
    let eng = CompiledCircuit::compile_with(&c, &CompileOptions::from_env()).unwrap();
    let instances: Vec<Vec<u64>> = vec![vec![0, 0], vec![9, 9], vec![0, 4]];
    let got = eng.evaluate_batch(&instances);
    assert_eq!(got[0], Ok(vec![0]));
    assert_eq!(
        got[1],
        Err(EvalError::AssertionFailed { gate: 2, value: 9 })
    );
    assert_eq!(
        got[2],
        Err(EvalError::AssertionFailed { gate: 3, value: 4 })
    );
    for (inst, got) in instances.iter().zip(got) {
        assert_eq!(got, c.evaluate(inst));
    }
}

/// Empty-circuit edge: no gates, no outputs — every well-formed lane
/// yields an empty output row.
#[test]
fn empty_circuit_batches() {
    let b = Builder::new();
    let c = b.finish(vec![]);
    let eng = CompiledCircuit::compile_with(&c, &CompileOptions::from_env()).unwrap();
    let instances: Vec<Vec<u64>> = vec![vec![], vec![1], vec![]];
    let got = eng.evaluate_batch(&instances);
    assert_eq!(got[0], Ok(vec![]));
    assert_eq!(
        got[1],
        Err(EvalError::InputArity {
            expected: 0,
            got: 1
        })
    );
    assert_eq!(got[2], Ok(vec![]));
}
