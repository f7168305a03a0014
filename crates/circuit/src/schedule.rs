//! Brent's theorem, operationally (Sec. 1): a circuit of size `W` and
//! depth `D` runs on a `P`-processor PRAM in `O(W/P + D)` steps by
//! executing it level by level. This module counts those steps;
//! [`CompiledCircuit::evaluate_batch_threaded`](crate::CompiledCircuit::evaluate_batch_threaded)
//! runs the schedule.

use crate::Circuit;

/// Number of logic gates at each depth level `1..=depth` (level `d` holds
/// gates whose longest input path is `d`).
pub fn level_widths(c: &Circuit) -> Vec<u64> {
    let depth = c.depth() as usize;
    let mut widths = vec![0u64; depth];
    for &d in c.wire_depths() {
        if d >= 1 {
            widths[d as usize - 1] += 1;
        }
    }
    widths
}

/// PRAM steps for a levelized schedule on `p` processors:
/// `Σ_levels ⌈width/p⌉`. Equals the circuit depth when `p = ∞` and the
/// size when `p = 1`; Brent's bound `W/P + D` in between.
pub fn brent_steps(c: &Circuit, p: u64) -> u64 {
    assert!(p >= 1, "at least one processor");
    level_widths(c).iter().map(|&w| w.div_ceil(p)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Builder, CompileOptions, CompiledCircuit, EvalError, Mode};

    /// One instance through the engine's level-parallel schedule.
    fn levelized(c: &Circuit, inputs: &[u64], threads: usize) -> Result<Vec<u64>, EvalError> {
        let (eng, _) = CompiledCircuit::compile_with(c, &CompileOptions::sequential())?;
        eng.evaluate_batch_threaded(&[inputs], threads).remove(0)
    }

    fn sample_circuit() -> Circuit {
        let mut b = Builder::new(Mode::Count);
        let xs: Vec<_> = (0..64).map(|_| b.input()).collect();
        // balanced reduction tree: 63 gates, depth 6
        let mut layer = xs;
        while layer.len() > 1 {
            layer = layer.chunks(2).map(|ch| b.add(ch[0], ch[1])).collect();
        }
        b.finish(vec![layer[0]])
    }

    #[test]
    fn one_processor_costs_size() {
        let c = sample_circuit();
        assert_eq!(brent_steps(&c, 1), c.size());
    }

    #[test]
    fn unlimited_processors_cost_depth() {
        let c = sample_circuit();
        assert_eq!(brent_steps(&c, 1 << 40), u64::from(c.depth()));
    }

    #[test]
    fn brent_bound_holds() {
        let c = sample_circuit();
        for p in [1u64, 2, 3, 4, 8, 16, 64] {
            let steps = brent_steps(&c, p);
            let bound = c.size() / p + u64::from(c.depth());
            assert!(steps <= bound, "p = {p}: {steps} > {bound}");
            assert!(steps >= (c.size() / p).max(u64::from(c.depth())));
        }
    }

    #[test]
    fn levelized_evaluation_matches_sequential() {
        use crate::rel::{encode_relation, relation_to_values};
        use crate::sort::{sort_slots, SortKey};
        use qec_relation::{Relation, Var};
        let mut b = Builder::new(Mode::Build);
        let w = encode_relation(&mut b, vec![Var(0), Var(1)], 32);
        let s = sort_slots(&mut b, &w, &SortKey::Columns(vec![Var(0)]));
        let c = b.finish(s.flatten());
        let r = Relation::from_rows(
            vec![Var(0), Var(1)],
            (0..30u64).map(|i| vec![97 - 3 * i, i]).collect(),
        );
        let inputs = relation_to_values(&r, 32).unwrap();
        let seq = c.evaluate(&inputs).unwrap();
        for threads in [1, 2, 4, 8] {
            assert_eq!(levelized(&c, &inputs, threads).unwrap(), seq, "{threads}");
        }
    }

    #[test]
    fn levelized_assertions_fire() {
        let mut b = Builder::new(Mode::Build);
        let xs: Vec<_> = (0..64).map(|_| b.input()).collect();
        // wide level of asserts so the parallel path actually engages
        for &x in &xs {
            let y = b.not(x);
            b.assert_zero(y); // fires when x == 0
        }
        let c = b.finish(vec![]);
        let ones = vec![1u64; 64];
        assert!(levelized(&c, &ones, 4).is_ok());
        let mut bad = ones.clone();
        bad[17] = 0;
        assert!(matches!(
            levelized(&c, &bad, 4),
            Err(EvalError::AssertionFailed { .. })
        ));
    }

    #[test]
    fn levelized_assertion_failure_is_deterministic() {
        // Two assertions in the same level, both violated: every thread
        // count must report the lowest-index gate, like the sequential
        // interpreter — not whichever worker lost the race. Regression
        // test for the old shared failure slot that was overwritten by
        // the last worker to fail.
        let mut b = Builder::new(Mode::Build);
        let xs: Vec<_> = (0..64).map(|_| b.input()).collect();
        // enough padding that the engine's threaded path engages (it
        // falls back to sequential below ~4k instructions); the padding
        // gates must be unique and observable or hash-consing + DCE in
        // `CompiledCircuit::compile` would strip them back out
        let mut pad = Vec::new();
        for i in 0..70u64 {
            for (j, &x) in xs.iter().enumerate() {
                let k = b.constant(1 + i * 64 + j as u64);
                pad.push(b.add(x, k));
            }
        }
        for &x in &xs {
            // all asserts share one level; every one fires on input 1
            b.assert_zero(x);
        }
        let c = b.finish(pad);
        let ones = vec![1u64; 64];
        let expected = c.evaluate(&ones);
        let Err(EvalError::AssertionFailed {
            gate: expect_gate, ..
        }) = expected
        else {
            panic!("sequential evaluation must fail");
        };
        for threads in 1..=8 {
            let got = levelized(&c, &ones, threads);
            assert_eq!(
                got,
                Err(EvalError::AssertionFailed {
                    gate: expect_gate,
                    value: 1
                }),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn level_widths_sum_to_size() {
        let c = sample_circuit();
        assert_eq!(level_widths(&c).iter().sum::<u64>(), c.size());
        assert_eq!(level_widths(&c), vec![32, 16, 8, 4, 2, 1]);
    }
}
