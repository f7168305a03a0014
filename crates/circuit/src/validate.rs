//! Structural invariants of word- and bit-level circuits.
//!
//! A circuit is valid by construction. The word
//! [`Builder`](crate::Builder) only makes valid circuits, and every gate
//! list made outside it goes through [`Circuit::from_raw`] or
//! [`BitCircuit::from_raw`](crate::BitCircuit::from_raw): the optimizer,
//! the bit lowering, the bit optimizer and tape decoding all do. Both
//! check that gates read only earlier wires (so the DAG is topologically
//! ordered and acyclicity is a per-gate index check), that input indices
//! are dense, and that outputs name real wires; the bit constructor also
//! checks that the outputs are whole `width`-bit words. A violation is a
//! typed [`ValidateError`].
//!
//! The one invariant no type carries is the optimizer's
//! [`OptStats::assert_origin`] map, which [`validate_opt`] checks in
//! `O(assert gates)`.
//! [`CompiledCircuit::compile_with`](crate::CompiledCircuit::compile_with)
//! runs it whenever it optimizes.

use crate::ir::{Circuit, Gate, WireId};
use crate::opt::OptStats;

/// A structural invariant violation found by [`Circuit::from_raw`],
/// [`BitCircuit::from_raw`](crate::BitCircuit::from_raw), or
/// [`validate_opt`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// Gate `gate` reads wire `operand` that is not strictly earlier —
    /// the wiring is not acyclic/topologically ordered.
    ForwardReference {
        /// Index of the offending gate.
        gate: usize,
        /// The operand wire that is not earlier than `gate`.
        operand: WireId,
    },
    /// `Input` gates must carry indices `0, 1, 2, …` in wire order.
    InputIndexOutOfOrder {
        /// Index of the offending gate.
        gate: usize,
        /// The input index it declares.
        declared: usize,
        /// The input index its position demands.
        expected: usize,
    },
    /// The circuit declares a different input count than its gate list.
    InputCountMismatch {
        /// The input count the constructor (or the tape header) was given.
        declared: usize,
        /// `Input` gates actually present.
        found: usize,
    },
    /// An output names a wire outside the circuit.
    OutputOutOfRange {
        /// Position in the output list.
        position: usize,
        /// The out-of-range wire.
        wire: WireId,
    },
    /// The output list is not a whole number of `width`-bit words.
    OutputWidthMismatch {
        /// Output bits the circuit lists.
        outputs: usize,
        /// The word width the bits are grouped by.
        width: u32,
    },
    /// An `assert_origin` entry points outside a circuit or at a gate
    /// that is not an assertion.
    AssertOriginInvalid {
        /// Optimized-circuit gate index of the entry.
        optimized: u32,
        /// Source-circuit gate index of the entry.
        source: u32,
        /// What is wrong with the entry.
        reason: &'static str,
    },
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::ForwardReference { gate, operand } => {
                write!(f, "gate {gate} reads wire {operand}, which is not earlier")
            }
            ValidateError::InputIndexOutOfOrder {
                gate,
                declared,
                expected,
            } => write!(
                f,
                "input gate {gate} declares index {declared}, expected {expected}"
            ),
            ValidateError::InputCountMismatch { declared, found } => {
                write!(f, "circuit declares {declared} inputs but has {found}")
            }
            ValidateError::OutputOutOfRange { position, wire } => {
                write!(f, "output {position} names out-of-range wire {wire}")
            }
            ValidateError::OutputWidthMismatch { outputs, width } => write!(
                f,
                "{outputs} output bits are not a whole number of {width}-bit words"
            ),
            ValidateError::AssertOriginInvalid {
                optimized,
                source,
                reason,
            } => write!(
                f,
                "assert_origin entry ({optimized} -> {source}) invalid: {reason}"
            ),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Checks that the optimizer's assertion provenance map is sound: every
/// `(optimized, source)` entry of [`OptStats::assert_origin`] names an
/// `AssertZero` gate on both sides and the optimized indices are sorted
/// (binary-searchable by the engine's error reporting).
pub fn validate_opt(
    source: &Circuit,
    optimized: &Circuit,
    stats: &OptStats,
) -> Result<(), ValidateError> {
    let mut prev: Option<u32> = None;
    for &(opt_idx, src_idx) in &stats.assert_origin {
        if let Some(p) = prev {
            if opt_idx <= p {
                return Err(ValidateError::AssertOriginInvalid {
                    optimized: opt_idx,
                    source: src_idx,
                    reason: "optimized indices not strictly sorted",
                });
            }
        }
        prev = Some(opt_idx);
        match (opt_idx < optimized.num_wires() as u32).then(|| optimized.gate(opt_idx as usize)) {
            Some(Gate::AssertZero(_)) => {}
            Some(_) => {
                return Err(ValidateError::AssertOriginInvalid {
                    optimized: opt_idx,
                    source: src_idx,
                    reason: "optimized gate is not an assertion",
                })
            }
            None => {
                return Err(ValidateError::AssertOriginInvalid {
                    optimized: opt_idx,
                    source: src_idx,
                    reason: "optimized index out of range",
                })
            }
        }
        match (src_idx < source.num_wires() as u32).then(|| source.gate(src_idx as usize)) {
            Some(Gate::AssertZero(_)) => {}
            Some(_) => {
                return Err(ValidateError::AssertOriginInvalid {
                    optimized: opt_idx,
                    source: src_idx,
                    reason: "source gate is not an assertion",
                })
            }
            None => {
                return Err(ValidateError::AssertOriginInvalid {
                    optimized: opt_idx,
                    source: src_idx,
                    reason: "source index out of range",
                })
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Builder;
    use crate::lower::{BGate, BitCircuit};
    use crate::{optimize_with, CompileOptions};

    fn sample_simple() -> Circuit {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let s = b.add(x, y);
        let p = b.mul(s, s);
        let d = b.sub(x, y);
        b.assert_zero(d);
        b.finish(vec![p])
    }

    #[test]
    fn optimized_circuits_and_origins_validate() {
        let c = sample_simple();
        let (opt, stats) = optimize_with(&c, &CompileOptions::sequential());
        validate_opt(&c, &opt, &stats).unwrap();
    }

    #[test]
    fn forward_reference_is_caught() {
        // With `Const(true)` at wire 2 the interpreter read a default
        // `false` there while the BitEngine read `true`: the two
        // evaluators disagreed on a circuit nothing rejected.
        for v in [false, true] {
            let bc = BitCircuit::from_raw(
                vec![BGate::Input(0), BGate::And(0, 2), BGate::Const(v)],
                vec![1],
                1,
                1,
            );
            assert_eq!(
                bc.err(),
                Some(ValidateError::ForwardReference {
                    gate: 1,
                    operand: 2
                })
            );
        }
    }

    #[test]
    fn bad_bit_output_is_caught() {
        let bc = BitCircuit::from_raw(vec![BGate::Input(0)], vec![9], 1, 1);
        assert_eq!(
            bc.err(),
            Some(ValidateError::OutputOutOfRange {
                position: 0,
                wire: 9
            })
        );
    }

    #[test]
    fn bad_bit_inputs_and_widths_are_caught() {
        let repeated = vec![BGate::Input(0), BGate::Input(0)];
        assert_eq!(
            BitCircuit::from_raw(repeated, vec![], 2, 1).err(),
            Some(ValidateError::InputIndexOutOfOrder {
                gate: 1,
                declared: 0,
                expected: 1
            })
        );
        assert_eq!(
            BitCircuit::from_raw(vec![BGate::Input(0)], vec![], 2, 1).err(),
            Some(ValidateError::InputCountMismatch {
                declared: 2,
                found: 1
            })
        );
        let gates = vec![BGate::Input(0), BGate::Input(1), BGate::Xor(0, 1)];
        assert_eq!(
            BitCircuit::from_raw(gates, vec![2, 2, 2], 2, 2).err(),
            Some(ValidateError::OutputWidthMismatch {
                outputs: 3,
                width: 2
            })
        );
    }

    #[test]
    fn bad_origin_is_caught() {
        let c = sample_simple();
        let (opt, mut stats) = optimize_with(&c, &CompileOptions::sequential());
        stats.assert_origin = vec![(0, 0)]; // gate 0 is an input, not an assert
        assert!(matches!(
            validate_opt(&c, &opt, &stats),
            Err(ValidateError::AssertOriginInvalid { .. })
        ));
    }
}
