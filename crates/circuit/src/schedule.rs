//! Brent's theorem, operationally (Sec. 1): a circuit of size `W` and
//! depth `D` runs on a `P`-processor PRAM in `O(W/P + D)` steps by
//! executing it level by level. This module counts those steps. The
//! compiled engine ([`CompiledCircuit`](crate::CompiledCircuit)) orders
//! its tape by the same levels and runs them in one sequential pass.

use crate::Circuit;

/// Number of logic gates at each depth level `1..=depth` (level `d` holds
/// gates whose longest input path is `d`).
pub fn level_widths(c: &Circuit) -> Vec<u64> {
    let depth = c.depth() as usize;
    let mut widths = vec![0u64; depth];
    for d in c.wire_depths() {
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
    use crate::{Builder, CompileOptions, CompiledCircuit, EvalError};

    /// One instance through the engine's level-major tape.
    fn levelized(c: &Circuit, inputs: &[u64]) -> Result<Vec<u64>, EvalError> {
        let eng = CompiledCircuit::compile_with(c, &CompileOptions::sequential())?;
        eng.evaluate(inputs)
    }

    fn sample_circuit() -> Circuit {
        let mut b = Builder::new();
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
    fn levelized_assertions_fire() {
        let mut b = Builder::new();
        let xs: Vec<_> = (0..64).map(|_| b.input()).collect();
        // one wide level of asserts
        for &x in &xs {
            let y = b.not(x);
            b.assert_zero(y); // fires when x == 0
        }
        let c = b.finish(vec![]);
        let ones = vec![1u64; 64];
        assert!(levelized(&c, &ones).is_ok());
        let mut bad = ones.clone();
        bad[17] = 0;
        assert!(matches!(
            levelized(&c, &bad),
            Err(EvalError::AssertionFailed { .. })
        ));
    }

    #[test]
    fn level_widths_sum_to_size() {
        let c = sample_circuit();
        assert_eq!(level_widths(&c).iter().sum::<u64>(), c.size());
        assert_eq!(level_widths(&c), vec![32, 16, 8, 4, 2, 1]);
    }
}
