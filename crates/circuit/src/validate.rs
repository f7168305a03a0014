//! Structural validation of word- and bit-level circuits.
//!
//! Every pipeline stage (build, optimize, tape, bit lowering, bit
//! optimization) must preserve a small set of structural invariants:
//! gates reference only earlier wires (the DAG is topologically ordered
//! by construction, so acyclicity is a per-gate index check), input
//! indices are dense, outputs name real wires, the cached size/depth
//! metadata matches the gate list, and the optimizer's
//! [`OptStats::assert_origin`] map points every surviving assertion at a
//! real assertion gate of the source circuit. The differential fuzzing
//! harness (`qec-check`) runs these checkers after every stage; the
//! compile driver runs them on demand via
//! [`CompileOptions::with_validate`](crate::CompileOptions::with_validate).
//!
//! Validation is `O(gates)` and allocation-light — cheap enough to leave
//! on in any test or fuzz configuration, while the default (off) keeps
//! the production compile path free of redundant passes.

use crate::ir::{Circuit, Gate, WireId};
use crate::lower::{BGate, BitCircuit};
use crate::opt::OptStats;

/// A structural invariant violation found by [`validate`],
/// [`validate_bits`], or [`validate_opt`].
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
        /// `Circuit::num_inputs()`.
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
    /// Cached per-wire depth disagrees with the recomputed value — the
    /// level structure (and any levelized schedule built from it) is
    /// inconsistent.
    DepthMismatch {
        /// Index of the offending wire.
        gate: usize,
        /// Depth recomputed from the operands.
        expected: u32,
        /// Depth the circuit caches.
        cached: u32,
    },
    /// Cached aggregate metadata (logic-gate count or circuit depth)
    /// disagrees with the gate list.
    MetadataMismatch {
        /// Which aggregate disagrees (`"size"` or `"depth"`).
        what: &'static str,
        /// Value recomputed from the gate list.
        expected: u64,
        /// Value the circuit caches.
        cached: u64,
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
            ValidateError::DepthMismatch {
                gate,
                expected,
                cached,
            } => write!(
                f,
                "wire {gate} depth is {expected} by recomputation but cached as {cached}"
            ),
            ValidateError::MetadataMismatch {
                what,
                expected,
                cached,
            } => write!(f, "circuit {what} is {expected} but cached as {cached}"),
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

/// Checks the structural invariants of a word-level [`Circuit`]:
/// topologically ordered (acyclic) wiring, dense input indices, in-range
/// outputs, and cached depth/size metadata consistent with the gate
/// list.
pub fn validate(c: &Circuit) -> Result<(), ValidateError> {
    let gates = c.gates();
    let depths = c.wire_depths();
    let mut num_inputs = 0usize;
    let mut size = 0u64;
    let mut depth = 0u32;
    for (i, g) in gates.iter().enumerate() {
        if let Gate::Input(declared) = *g {
            if declared != num_inputs {
                return Err(ValidateError::InputIndexOutOfOrder {
                    gate: i,
                    declared,
                    expected: num_inputs,
                });
            }
            num_inputs += 1;
        }
        let mut d = 0u32;
        for &w in c.gate_operands(i).iter().flatten() {
            if w as usize >= i {
                return Err(ValidateError::ForwardReference {
                    gate: i,
                    operand: w,
                });
            }
            d = d.max(depths[w as usize] + 1);
        }
        if !matches!(g, Gate::Input(_) | Gate::Const(_)) {
            size += 1;
        }
        if depths[i] != d {
            return Err(ValidateError::DepthMismatch {
                gate: i,
                expected: d,
                cached: depths[i],
            });
        }
        depth = depth.max(d);
    }
    if num_inputs != c.num_inputs() {
        return Err(ValidateError::InputCountMismatch {
            declared: c.num_inputs(),
            found: num_inputs,
        });
    }
    if size != c.size() {
        return Err(ValidateError::MetadataMismatch {
            what: "size",
            expected: size,
            cached: c.size(),
        });
    }
    if depth != c.depth() {
        return Err(ValidateError::MetadataMismatch {
            what: "depth",
            expected: u64::from(depth),
            cached: u64::from(c.depth()),
        });
    }
    for (position, &wire) in c.outputs().iter().enumerate() {
        if wire as usize >= c.num_wires() {
            return Err(ValidateError::OutputOutOfRange { position, wire });
        }
    }
    Ok(())
}

/// Checks the structural invariants of a bit-level [`BitCircuit`]:
/// topologically ordered wiring, dense input-bit indices, in-range
/// outputs, and an output count that is a whole number of `width`-bit
/// words.
pub fn validate_bits(bc: &BitCircuit) -> Result<(), ValidateError> {
    let gates = bc.gates();
    let mut num_inputs = 0usize;
    for (i, g) in gates.iter().enumerate() {
        let ops: [Option<u32>; 2] = match *g {
            BGate::Input(declared) => {
                let declared = declared as usize;
                if declared != num_inputs {
                    return Err(ValidateError::InputIndexOutOfOrder {
                        gate: i,
                        declared,
                        expected: num_inputs,
                    });
                }
                num_inputs += 1;
                [None, None]
            }
            BGate::Const(_) => [None, None],
            BGate::Xor(a, b) | BGate::And(a, b) => [Some(a), Some(b)],
            BGate::Not(a) | BGate::AssertFalse(a) => [Some(a), None],
        };
        for w in ops.into_iter().flatten() {
            if w as usize >= i {
                return Err(ValidateError::ForwardReference {
                    gate: i,
                    operand: w,
                });
            }
        }
    }
    if num_inputs != bc.num_inputs() {
        return Err(ValidateError::InputCountMismatch {
            declared: bc.num_inputs(),
            found: num_inputs,
        });
    }
    if bc.width() != 0 && !bc.outputs().len().is_multiple_of(bc.width() as usize) {
        return Err(ValidateError::MetadataMismatch {
            what: "size",
            expected: (bc.outputs().len() - bc.outputs().len() % bc.width() as usize) as u64,
            cached: bc.outputs().len() as u64,
        });
    }
    for (position, &wire) in bc.outputs().iter().enumerate() {
        if wire as usize >= gates.len() {
            return Err(ValidateError::OutputOutOfRange { position, wire });
        }
    }
    Ok(())
}

/// Validates a flat word tape without materializing its gates: opcode
/// table membership, topological operand order, input indices within
/// the declared arity, header/stream wire-count agreement, and output
/// range. [`WordTape::from_bytes`](crate::tape::WordTape::from_bytes)
/// runs this on every load, so a tape that parses is structurally
/// sound.
pub fn validate_word_tape(t: &crate::tape::WordTape) -> Result<(), crate::tape::TapeError> {
    crate::tape::check_word_tape(t)
}

/// Validates a flat bit tape; same checks as [`validate_word_tape`] at
/// the bit level, run by
/// [`BitTape::from_bytes`](crate::tape::BitTape::from_bytes) on every
/// load.
pub fn validate_bit_tape(t: &crate::tape::BitTape) -> Result<(), crate::tape::TapeError> {
    crate::tape::check_bit_tape(t)
}

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
        match optimized.gates().get(opt_idx as usize) {
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
        match source.gates().get(src_idx as usize) {
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
    use crate::{lower_with, optimize_with, CompileOptions};

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
    fn builder_circuits_validate() {
        let c = sample_simple();
        validate(&c).unwrap();
    }

    #[test]
    fn optimized_circuits_and_origins_validate() {
        let c = sample_simple();
        let (opt, stats) = optimize_with(&c, &CompileOptions::sequential());
        validate(&opt).unwrap();
        validate_opt(&c, &opt, &stats).unwrap();
    }

    #[test]
    fn lowered_circuits_validate() {
        let c = sample_simple();
        let bc = lower_with(&c, 8, &CompileOptions::sequential());
        validate_bits(&bc).unwrap();
        let (obc, _) = crate::optimize_bits_with(&bc, &CompileOptions::sequential());
        validate_bits(&obc).unwrap();
    }

    #[test]
    fn forward_reference_is_caught() {
        let bc = BitCircuit::new(
            vec![BGate::Input(0), BGate::And(0, 2), BGate::Const(false)],
            vec![1],
            1,
            1,
        );
        assert!(matches!(
            validate_bits(&bc),
            Err(ValidateError::ForwardReference {
                gate: 1,
                operand: 2
            })
        ));
    }

    #[test]
    fn bad_bit_output_is_caught() {
        let bc = BitCircuit::new(vec![BGate::Input(0)], vec![9], 1, 1);
        assert!(matches!(
            validate_bits(&bc),
            Err(ValidateError::OutputOutOfRange {
                position: 0,
                wire: 9
            })
        ));
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
