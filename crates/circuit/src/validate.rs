//! Structural invariants of word- and bit-level circuits.
//!
//! A circuit is valid by construction. The word
//! [`Builder`](crate::Builder) only makes valid circuits, and every gate
//! list made outside it goes through [`Circuit::from_raw`](crate::Circuit::from_raw) or
//! [`BitCircuit::from_raw`](crate::BitCircuit::from_raw): the bit
//! lowering, the bit optimizer and tape decoding all do. Both
//! check that gates read only earlier wires (so the DAG is topologically
//! ordered and acyclicity is a per-gate index check), that input indices
//! are dense, and that outputs name real wires; the bit constructor also
//! checks that the outputs are whole `width`-bit words. A violation is a
//! typed [`ValidateError`].
//!
//! The optimizer makes no circuit: it marks the live gates of its source,
//! and the engine and the bit lowering read the mark in place (see
//! [`crate::opt`]), so there is no renumbering and no gate map to check.

use crate::ir::WireId;

/// A structural invariant violation found by [`Circuit::from_raw`](crate::Circuit::from_raw) or
/// [`BitCircuit::from_raw`](crate::BitCircuit::from_raw).
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
        }
    }
}

impl std::error::Error for ValidateError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Circuit, Gate};
    use crate::lower::{BGate, BitCircuit};
    use crate::{CompileOptions, CompiledCircuit};

    #[test]
    fn compiled_raw_circuits_match_the_interpreter() {
        // A checked raw list with a dead gate, a duplicate assert and an
        // always-failing one compiles, with the optimizer on or off, to
        // an engine that reports the interpreter's outputs and its lowest
        // failing source gate.
        let gates = vec![
            Gate::Input(0),
            Gate::Input(1),
            Gate::Const(1),
            Gate::Sub(0, 1),
            Gate::Mul(0, 0),
            Gate::AssertZero(3),
            Gate::AssertZero(3),
            Gate::Add(0, 1),
            Gate::AssertZero(2),
        ];
        let c = Circuit::from_raw(gates, vec![7], 2).unwrap();
        for optimize in [true, false] {
            let opts = CompileOptions::sequential().with_optimize(optimize);
            let eng = CompiledCircuit::compile_with(&c, &opts).unwrap();
            for inst in [[3u64, 3], [5, 1]] {
                assert_eq!(eng.evaluate(&inst), c.evaluate(&inst));
            }
            assert_eq!(eng.stats().tape_len, 9 - usize::from(optimize));
        }
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
}
