//! Word-level circuit IR: gates, builder, evaluator.
//!
//! A circuit stores its gates packed, as the bit level does: per wire one
//! opcode byte (the gate kind's [`GATE_KINDS`](crate::GATE_KINDS) slot)
//! and three `u32` operand words, 13 bytes a gate, in two parallel
//! arrays. A constant keeps its 64-bit value in its first two operand
//! words and an input its index in the first, so a stored record is the
//! gate itself: the hash-cons compares records as they are stored, and
//! the engine and the tape encoder read them without a lookup. Unused
//! operand words are zero. [`Gate`] is the decoded view
//! ([`Circuit::gate`], [`Circuit::gates`]), and [`Circuit::from_raw`]
//! packs a gate list made outside a [`Builder`] through the same check
//! every packed circuit passes.
//!
//! A circuit keeps its depth, not one per wire: the constructors
//! ([`Builder::finish`] among them) compute per-wire depths in one pass
//! and drop them, and [`Circuit::wire_depths`] recomputes them on demand.

use crate::cons::{hash_fields, ConsArena, ConsIndex, ConsKey};
use crate::validate::ValidateError;
use std::fmt;

/// A wire identifier.
pub type WireId = u32;

/// A word-level gate. Comparison and logic gates produce `0`/`1`;
/// arithmetic is wrapping (the planner sizes words so wrapping never
/// triggers on conforming inputs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Gate {
    /// The `i`-th circuit input.
    Input(usize),
    /// A compile-time constant.
    Const(u64),
    /// Wrapping addition.
    Add(WireId, WireId),
    /// Wrapping subtraction.
    Sub(WireId, WireId),
    /// Wrapping multiplication.
    Mul(WireId, WireId),
    /// Equality test (`0`/`1`).
    Eq(WireId, WireId),
    /// Unsigned less-than (`0`/`1`).
    Lt(WireId, WireId),
    /// Logical AND (inputs treated as booleans).
    And(WireId, WireId),
    /// Logical OR.
    Or(WireId, WireId),
    /// Logical XOR.
    Xor(WireId, WireId),
    /// Logical NOT.
    Not(WireId),
    /// Multiplexer: `sel ≠ 0 ? a : b`.
    Mux(WireId, WireId, WireId),
    /// Runtime assertion: the wire must evaluate to `0`. Used to make
    /// capacity obligations (e.g. "truncation only drops dummies")
    /// checkable during evaluation.
    AssertZero(WireId),
}

impl Gate {
    pub(crate) fn operands(&self) -> [Option<WireId>; 3] {
        match *self {
            Gate::Input(_) | Gate::Const(_) => [None, None, None],
            Gate::Not(a) | Gate::AssertZero(a) => [Some(a), None, None],
            Gate::Add(a, b)
            | Gate::Sub(a, b)
            | Gate::Mul(a, b)
            | Gate::Eq(a, b)
            | Gate::Lt(a, b)
            | Gate::And(a, b)
            | Gate::Or(a, b)
            | Gate::Xor(a, b) => [Some(a), Some(b), None],
            Gate::Mux(s, a, b) => [Some(s), Some(a), Some(b)],
        }
    }

    /// The packed record of this gate. An input index past `u32` packs
    /// as `u32::MAX`, which no dense input numbering reaches, so the
    /// circuit check still rejects it.
    #[inline]
    pub(crate) fn pack(self) -> Rec {
        let (op, args) = match self {
            Gate::Input(i) => (op::INPUT, [u32::try_from(i).unwrap_or(u32::MAX), 0, 0]),
            Gate::Const(v) => (op::CONST, [v as u32, (v >> 32) as u32, 0]),
            Gate::Add(a, b) => (op::ADD, [a, b, 0]),
            Gate::Sub(a, b) => (op::SUB, [a, b, 0]),
            Gate::Mul(a, b) => (op::MUL, [a, b, 0]),
            Gate::Eq(a, b) => (op::EQ, [a, b, 0]),
            Gate::Lt(a, b) => (op::LT, [a, b, 0]),
            Gate::And(a, b) => (op::AND, [a, b, 0]),
            Gate::Or(a, b) => (op::OR, [a, b, 0]),
            Gate::Xor(a, b) => (op::XOR, [a, b, 0]),
            Gate::Not(a) => (op::NOT, [a, 0, 0]),
            Gate::Mux(s, a, b) => (op::MUX, [s, a, b]),
            Gate::AssertZero(a) => (op::ASSERT, [a, 0, 0]),
        };
        Rec { op, args }
    }
}

/// Opcodes of the packed records: each is its gate kind's slot in
/// [`GATE_KINDS`](crate::GATE_KINDS), which the engine's stats and
/// instructions share.
pub(crate) mod op {
    pub(crate) const INPUT: u8 = 0;
    pub(crate) const CONST: u8 = 1;
    pub(crate) const ADD: u8 = 2;
    pub(crate) const SUB: u8 = 3;
    pub(crate) const MUL: u8 = 4;
    pub(crate) const EQ: u8 = 5;
    pub(crate) const LT: u8 = 6;
    pub(crate) const AND: u8 = 7;
    pub(crate) const OR: u8 = 8;
    pub(crate) const XOR: u8 = 9;
    pub(crate) const NOT: u8 = 10;
    pub(crate) const MUX: u8 = 11;
    pub(crate) const ASSERT: u8 = 12;
}

/// One packed gate: its opcode and three operand words (see the module
/// docs). It is also the hash-cons key of the word level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Rec {
    pub(crate) op: u8,
    pub(crate) args: [u32; 3],
}

impl Rec {
    /// Wire operands: 0 for inputs and constants, whose words are data.
    #[inline]
    pub(crate) fn arity(self) -> usize {
        match self.op {
            op::INPUT | op::CONST => 0,
            op::NOT | op::ASSERT => 1,
            op::MUX => 3,
            _ => 2,
        }
    }

    /// The wire operands, in order.
    #[inline]
    pub(crate) fn operands(&self) -> &[WireId] {
        &self.args[..self.arity()]
    }

    /// The value of a constant record.
    #[inline]
    pub(crate) fn value(self) -> u64 {
        u64::from(self.args[0]) | u64::from(self.args[1]) << 32
    }

    /// The decoded gate.
    #[inline]
    pub(crate) fn gate(self) -> Gate {
        let [a, b, c] = self.args;
        match self.op {
            op::INPUT => Gate::Input(a as usize),
            op::CONST => Gate::Const(self.value()),
            op::ADD => Gate::Add(a, b),
            op::SUB => Gate::Sub(a, b),
            op::MUL => Gate::Mul(a, b),
            op::EQ => Gate::Eq(a, b),
            op::LT => Gate::Lt(a, b),
            op::AND => Gate::And(a, b),
            op::OR => Gate::Or(a, b),
            op::XOR => Gate::Xor(a, b),
            op::NOT => Gate::Not(a),
            op::MUX => Gate::Mux(a, b, c),
            op::ASSERT => Gate::AssertZero(a),
            _ => unreachable!("a packed record holds one of the 13 opcodes"),
        }
    }
}

impl ConsKey for Rec {
    /// The largest operand word: unused words are zero.
    #[inline]
    fn youngest(&self) -> Option<u32> {
        let [a, b, c] = self.args;
        match self.op {
            op::INPUT | op::CONST => None,
            _ => Some(a.max(b).max(c)),
        }
    }

    fn cons_hash(&self) -> u64 {
        let [a, b, c] = self.args;
        hash_fields(self.op, a, b, c)
    }
}

/// The packed gate arena: per wire an opcode byte and three operand
/// words, in two arrays.
#[derive(Clone, Default)]
pub(crate) struct Gates {
    ops: Vec<u8>,
    args: Vec<[u32; 3]>,
}

impl Gates {
    pub(crate) fn with_capacity(n: usize) -> Gates {
        Gates {
            ops: Vec::with_capacity(n),
            args: Vec::with_capacity(n),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    /// The opcode of wire `w`.
    #[inline]
    pub(crate) fn op(&self, w: usize) -> u8 {
        self.ops[w]
    }

    /// The record of wire `w`.
    #[inline]
    pub(crate) fn get(&self, w: usize) -> Rec {
        Rec {
            op: self.ops[w],
            args: self.args[w],
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, r: Rec) {
        self.ops.push(r.op);
        self.args.push(r.args);
    }

    /// Returns the spare capacity growth left behind.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.ops.shrink_to_fit();
        self.args.shrink_to_fit();
    }

    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = Rec> + '_ {
        self.ops
            .iter()
            .zip(&self.args)
            .map(|(&op, &args)| Rec { op, args })
    }

    /// Heap bytes held, by capacity.
    pub(crate) fn bytes(&self) -> usize {
        self.ops.capacity() + self.args.capacity() * std::mem::size_of::<[u32; 3]>()
    }
}

impl ConsArena for Gates {
    type Key = Rec;
    #[inline]
    fn record(&self, w: u32) -> Rec {
        self.get(w as usize)
    }
}

/// The first parameter of `RelationalCircuit::lower_with` in `qec-core`.
/// Every builder materializes its gates, so this has one variant; it
/// stays only so that existing `lower_with(Mode::Build, ..)` calls keep
/// compiling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Materialize gates (evaluable).
    Build,
}

/// Evaluation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// Wrong number of inputs supplied.
    InputArity {
        /// Inputs the circuit declares.
        expected: usize,
        /// Inputs supplied.
        got: usize,
    },
    /// An [`Gate::AssertZero`] fired.
    AssertionFailed {
        /// Index of the failing gate.
        gate: usize,
        /// The non-zero value observed.
        value: u64,
    },
    /// Wire-id allocation ran past the 32-bit id space of the in-memory
    /// IR. Construction used to wrap silently here. No builder, decoder
    /// or engine handles a circuit past this limit.
    CircuitTooLarge {
        /// Wires the construction attempted to allocate.
        wires: u64,
        /// The id-space limit that was exceeded.
        limit: u64,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::InputArity { expected, got } => {
                write!(f, "expected {expected} inputs, got {got}")
            }
            EvalError::AssertionFailed { gate, value } => {
                write!(f, "assertion gate {gate} observed non-zero value {value}")
            }
            EvalError::CircuitTooLarge { wires, limit } => write!(
                f,
                "circuit too large: {wires} wires exceed the {limit}-wire limit \
                 of the 32-bit wire ids"
            ),
        }
    }
}

/// The number of wires the 32-bit in-memory IR can address. `u32::MAX`
/// itself is reserved (the engines use it as a "no wire" sentinel), so the
/// last allocatable id is `u32::MAX - 1`.
pub(crate) const MAX_WIRES: u64 = u32::MAX as u64;

/// Checked wire-id allocation: the id for the `n`-th wire (0-based), or
/// a typed [`EvalError::CircuitTooLarge`] once the 32-bit id space is
/// exhausted. Allocation used to wrap silently via `as u32` at this
/// boundary (>4.29B wires).
pub(crate) fn checked_wire_id(n: u64) -> Result<WireId, EvalError> {
    if n >= MAX_WIRES {
        return Err(EvalError::CircuitTooLarge {
            wires: n + 1,
            limit: MAX_WIRES,
        });
    }
    Ok(n as WireId)
}

impl std::error::Error for EvalError {}

/// Incremental circuit builder. It materializes every gate it keeps, so
/// the finished [`Circuit`] is both measured (size, depth) and evaluated.
///
/// [`Builder::new`] rewrites each logic gate before it interns it. The
/// rules are local and forward-only: each reads only the operands, which
/// are already built, and from them only their constant value, whether
/// they are provably `0`/`1`, and whether one is a `Not`.
///
/// * Constant folding. An assert's own wire counts as the constant `0`:
///   whenever evaluation gets past the assert, the wire carries 0, and
///   when it fails nothing downstream is observable.
/// * The identities `x + 0`, `x - 0`, `x * 1`, `x * 0`, `x - x`,
///   `Eq(x, x)`, `Lt(x, x)`, `Lt(x, 0)`, `Xor(x, x)`, and for `Mux` a
///   constant selector, equal arms, `Mux(s, 1, 0) = bool(s)` and
///   `Mux(s, 0, 1) = Not(s)`.
/// * The logic gates treat their operands as truthy (`v != 0`), so
///   `And(x, x)`, `And(x, 1)`, `Or(x, 0)`, `Xor(x, 0)` and `Not(Not(x))`
///   become `x` only when `x` is provably boolean, and the canonical
///   coercion `Or(x, x)` otherwise.
/// * An assert over a provable `0` is dropped, and so is a second assert
///   over the same wire: the first fires first, with the same value. An
///   assert over a non-zero constant stays, failing on every input.
///
/// Then it hash-conses the gate: a gate structurally identical to an
/// earlier one (after sorting the operands of commutative gates) returns
/// the existing wire. The cons index stores wire ids and compares keys
/// against the builder's own packed records; constants go through it
/// too. A circuit from `Builder::new()` is therefore a fixpoint of the
/// rules: replayed through a fresh `Builder::new()`, it comes back gate
/// for gate.
///
/// [`Builder::without_cse`] is the oracle build: no rule and no
/// hash-cons, so the circuit is the program as written, one logic wire
/// per push (constants are still shared). Tests and the differential
/// checker compare the two builds.
pub struct Builder {
    /// Every wire's packed gate: the key arena of `cons`.
    gates: Gates,
    /// Every wire's [`BOOLISH`] and [`ASSERTED`] bits, read by the rules.
    facts: Vec<u8>,
    num_inputs: usize,
    size: u64,
    /// Rewrite and hash-cons logic gates (`new`), or push them as
    /// written (`without_cse`).
    rewrite: bool,
    /// Hash-cons over `gates`: constants always, logic gates when
    /// `rewrite` is on.
    cons: ConsIndex,
    /// Gates the rules replaced by a constant.
    folded: u64,
    /// Gates the rules replaced by an existing wire or a simpler gate.
    identities: u64,
}

/// The wire is provably `0`/`1`: a comparison or logic output, an assert,
/// the constant `0` or `1`, or a mux of two such wires.
const BOOLISH: u8 = 1;
/// An assert over the wire has been built.
const ASSERTED: u8 = 2;

/// Sorts the operands of commutative gates so `add(a, b)` and
/// `add(b, a)` share one cache entry. `Sub`, `Lt`, and `Mux` are order
/// sensitive and pass through unchanged.
#[inline]
pub(crate) fn canon(r: Rec) -> Rec {
    match r.op {
        op::ADD | op::MUL | op::EQ | op::AND | op::OR | op::XOR if r.args[0] > r.args[1] => Rec {
            op: r.op,
            args: [r.args[1], r.args[0], 0],
        },
        _ => r,
    }
}

impl Default for Builder {
    fn default() -> Builder {
        Builder::new()
    }
}

impl Builder {
    /// Creates an empty builder that rewrites and hash-conses every
    /// logic gate (see [`Builder`]).
    pub fn new() -> Builder {
        Builder {
            gates: Gates::default(),
            facts: Vec::new(),
            num_inputs: 0,
            size: 0,
            rewrite: true,
            cons: ConsIndex::new(),
            folded: 0,
            identities: 0,
        }
    }

    /// Creates the oracle builder: no rewrite rule and no hash-cons, so
    /// every logic push allocates a fresh wire and structurally
    /// duplicate gates stay distinct (constants are still deduplicated).
    pub fn without_cse() -> Builder {
        Builder {
            rewrite: false,
            ..Builder::new()
        }
    }

    /// Current gate count (inputs and constants excluded: they carry no
    /// logic; this matches how circuit size is counted in Sec. 4.1, where
    /// input gates exist but the interesting quantity is the work).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of inputs declared so far.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Appends `r` as a new wire with its facts.
    ///
    /// # Panics
    /// Panics if an operand is not an earlier wire of this builder.
    #[inline(always)]
    fn push(&mut self, r: Rec) -> WireId {
        let id = match checked_wire_id(self.gates.len() as u64) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        };
        if let Some(y) = r.youngest() {
            assert!(
                y < id,
                "operand wire {y} is not one of the builder's {id} wires"
            );
        }
        let boolish = match r.op {
            op::INPUT | op::ADD | op::SUB | op::MUL => false,
            op::CONST => r.value() <= 1,
            op::MUX => self.is_bool(r.args[1]) && self.is_bool(r.args[2]),
            _ => true,
        };
        if !matches!(r.op, op::INPUT | op::CONST) {
            self.size += 1;
        }
        self.facts.push(if boolish { BOOLISH } else { 0 });
        self.gates.push(r);
        id
    }

    /// Returns the wire of an earlier gate equal to `key`, or pushes
    /// `key` and records it in the cons index.
    #[inline(always)]
    fn intern(&mut self, key: Rec) -> WireId {
        match self.cons.find(&self.gates, key) {
            Ok(w) => w,
            Err(miss) => {
                let w = self.push(key);
                self.cons.insert(miss, w);
                w
            }
        }
    }

    /// Builds a logic gate: rewritten, then hash-consed, under
    /// [`Builder::new`]; pushed as written under [`Builder::without_cse`].
    /// Always inlined, so each public gate method gets the rules for its
    /// own opcode: left to the compiler, a build ran 15–25% slower.
    #[inline(always)]
    fn logic(&mut self, op: u8, args: [WireId; 3]) -> WireId {
        let r = Rec { op, args };
        if !self.rewrite {
            return self.push(r);
        }
        match self.simplify(r) {
            Some(w) => w,
            None => self.emit(r),
        }
    }

    /// Hash-conses `r` as it stands, with no rule.
    #[inline(always)]
    fn emit(&mut self, r: Rec) -> WireId {
        self.intern(canon(r))
    }

    /// Compile-time value of wire `w`, when provable: a constant's
    /// value, or `0` for an assert's own wire.
    #[inline]
    fn value(&self, w: WireId) -> Option<u64> {
        match self.gates.op(w as usize) {
            op::CONST => Some(self.gates.get(w as usize).value()),
            op::ASSERT => Some(0),
            _ => None,
        }
    }

    fn is_bool(&self, w: WireId) -> bool {
        self.facts[w as usize] & BOOLISH != 0
    }

    fn fold(&mut self, v: u64) -> WireId {
        self.folded += 1;
        self.constant(v)
    }

    fn identity(&mut self, w: WireId) -> WireId {
        self.identities += 1;
        w
    }

    /// Canonical `bool(w)`: `w` itself when provably boolean, otherwise
    /// the gate `Or(w, w)`.
    fn coerce_bool(&mut self, w: WireId) -> WireId {
        if let Some(v) = self.value(w) {
            return self.fold(u64::from(v != 0));
        }
        self.identities += 1;
        if self.is_bool(w) {
            w
        } else {
            self.emit(Rec {
                op: op::OR,
                args: [w, w, 0],
            })
        }
    }

    /// The rewrite rules (see [`Builder`]), all of them: the wire that
    /// stands for gate `r` when a rule replaces it, or `None` when `r` is
    /// interned as it stands. The operands are already rewritten, so one
    /// application per gate reaches the fixpoint.
    fn simplify(&mut self, r: Rec) -> Option<WireId> {
        let [a, b, c] = r.args;
        let w = match r.op {
            op::NOT => {
                if let Some(x) = self.value(a) {
                    return Some(self.fold(u64::from(x == 0)));
                }
                // Double negation is boolean coercion of the inner wire.
                if self.gates.op(a as usize) != op::NOT {
                    return None;
                }
                let inner = self.gates.get(a as usize).args[0];
                self.coerce_bool(inner)
            }
            // `Mux(a, b, c)` is `a ≠ 0 ? b : c`.
            op::MUX => {
                if let Some(s) = self.value(a) {
                    return Some(self.identity(if s != 0 { b } else { c }));
                }
                if b == c {
                    return Some(self.identity(b));
                }
                match (self.value(b), self.value(c)) {
                    (Some(1), Some(0)) => self.coerce_bool(a),
                    (Some(0), Some(1)) => {
                        self.identities += 1;
                        self.not(a)
                    }
                    _ => return None,
                }
            }
            op::ADD => match (self.value(a), self.value(b)) {
                (Some(x), Some(y)) => self.fold(x.wrapping_add(y)),
                (Some(0), _) => self.identity(b),
                (_, Some(0)) => self.identity(a),
                _ => return None,
            },
            op::SUB => match (self.value(a), self.value(b)) {
                _ if a == b => self.fold(0),
                (Some(x), Some(y)) => self.fold(x.wrapping_sub(y)),
                (_, Some(0)) => self.identity(a),
                _ => return None,
            },
            op::MUL => match (self.value(a), self.value(b)) {
                (Some(x), Some(y)) => self.fold(x.wrapping_mul(y)),
                (Some(0), _) | (_, Some(0)) => self.fold(0),
                (Some(1), _) => self.identity(b),
                (_, Some(1)) => self.identity(a),
                _ => return None,
            },
            op::EQ => match (self.value(a), self.value(b)) {
                _ if a == b => self.fold(1),
                (Some(x), Some(y)) => self.fold(u64::from(x == y)),
                _ => return None,
            },
            op::LT => match (self.value(a), self.value(b)) {
                _ if a == b => self.fold(0),
                (Some(x), Some(y)) => self.fold(u64::from(x < y)),
                // Nothing is below 0; nothing is above MAX.
                (_, Some(0)) | (Some(u64::MAX), _) => self.fold(0),
                _ => return None,
            },
            op::AND => match (self.value(a), self.value(b)) {
                (Some(x), Some(y)) => self.fold(u64::from(x != 0 && y != 0)),
                (Some(0), _) | (_, Some(0)) => self.fold(0),
                (Some(_), _) => self.coerce_bool(b),
                (_, Some(_)) => self.coerce_bool(a),
                _ if a == b => self.coerce_bool(a),
                _ => return None,
            },
            op::OR => match (self.value(a), self.value(b)) {
                (Some(x), Some(y)) => self.fold(u64::from(x != 0 || y != 0)),
                (Some(0), _) => self.coerce_bool(b),
                (_, Some(0)) => self.coerce_bool(a),
                (Some(_), _) | (_, Some(_)) => self.fold(1),
                _ if a == b => self.coerce_bool(a),
                _ => return None,
            },
            op::XOR => match (self.value(a), self.value(b)) {
                _ if a == b => self.fold(0),
                (Some(x), Some(y)) => self.fold(u64::from((x != 0) != (y != 0))),
                (Some(0), _) => self.coerce_bool(b),
                (_, Some(0)) => self.coerce_bool(a),
                // Xor with a truthy constant is logical negation.
                (Some(_), _) => self.not(b),
                (_, Some(_)) => self.not(a),
                _ => return None,
            },
            _ => unreachable!("only logic gates are rewritten"),
        };
        Some(w)
    }

    /// Declares the next circuit input.
    pub fn input(&mut self) -> WireId {
        let idx = self.num_inputs;
        self.num_inputs += 1;
        self.push(Gate::Input(idx).pack())
    }

    /// A constant wire (deduplicated).
    pub fn constant(&mut self, v: u64) -> WireId {
        self.intern(Gate::Const(v).pack())
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: WireId, b: WireId) -> WireId {
        self.logic(op::ADD, [a, b, 0])
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: WireId, b: WireId) -> WireId {
        self.logic(op::SUB, [a, b, 0])
    }

    /// Wrapping multiplication.
    pub fn mul(&mut self, a: WireId, b: WireId) -> WireId {
        self.logic(op::MUL, [a, b, 0])
    }

    /// Equality test.
    pub fn eq(&mut self, a: WireId, b: WireId) -> WireId {
        self.logic(op::EQ, [a, b, 0])
    }

    /// Unsigned less-than.
    pub fn lt(&mut self, a: WireId, b: WireId) -> WireId {
        self.logic(op::LT, [a, b, 0])
    }

    /// Logical AND.
    pub fn and(&mut self, a: WireId, b: WireId) -> WireId {
        self.logic(op::AND, [a, b, 0])
    }

    /// Logical OR.
    pub fn or(&mut self, a: WireId, b: WireId) -> WireId {
        self.logic(op::OR, [a, b, 0])
    }

    /// Logical XOR.
    pub fn xor(&mut self, a: WireId, b: WireId) -> WireId {
        self.logic(op::XOR, [a, b, 0])
    }

    /// Logical NOT.
    pub fn not(&mut self, a: WireId) -> WireId {
        self.logic(op::NOT, [a, 0, 0])
    }

    /// Multiplexer `sel ≠ 0 ? a : b`.
    pub fn mux(&mut self, sel: WireId, a: WireId, b: WireId) -> WireId {
        self.logic(op::MUX, [sel, a, b])
    }

    /// Asserts a wire is zero at evaluation time, returning the assert
    /// gate's wire (which carries value `0` when the assert passes).
    /// Asserts are effects, not expressions: they are never hash-consed.
    /// [`Builder::new`] drops an assert over a provable `0` and a second
    /// assert over the same wire, returning the constant `0` for them.
    pub fn assert_zero(&mut self, a: WireId) -> WireId {
        if self.rewrite {
            if self.value(a) == Some(0) || self.facts[a as usize] & ASSERTED != 0 {
                return self.constant(0);
            }
            self.facts[a as usize] |= ASSERTED;
        }
        self.push(Gate::AssertZero(a).pack())
    }

    // ---- small derived helpers used by every operator circuit ----

    /// `a != b` as a boolean wire.
    pub fn ne(&mut self, a: WireId, b: WireId) -> WireId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Lexicographic less-than over equal-length wire vectors.
    ///
    /// # Panics
    /// Panics if the vectors have different lengths.
    pub fn lex_lt(&mut self, a: &[WireId], b: &[WireId]) -> WireId {
        assert_eq!(a.len(), b.len(), "lexicographic compare needs equal arity");
        let mut acc = self.constant(0);
        for (&x, &y) in a.iter().zip(b.iter()).rev() {
            let lt = self.lt(x, y);
            let eq = self.eq(x, y);
            let tail = self.and(eq, acc);
            // `lt` and `eq` are never both 1, so XOR joins them as OR
            // would, and costs no AND once lowered to bits.
            acc = self.xor(lt, tail);
        }
        acc
    }

    /// Component-wise equality of wire vectors (AND of field equalities).
    pub fn vec_eq(&mut self, a: &[WireId], b: &[WireId]) -> WireId {
        assert_eq!(a.len(), b.len());
        let mut acc = self.constant(1);
        for (&x, &y) in a.iter().zip(b.iter()) {
            let e = self.eq(x, y);
            acc = self.and(acc, e);
        }
        acc
    }

    /// Component-wise mux of wire vectors.
    pub fn vec_mux(&mut self, sel: WireId, a: &[WireId], b: &[WireId]) -> Vec<WireId> {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| self.mux(sel, x, y))
            .collect()
    }

    /// Finalizes the circuit with the given output wires. The cons index
    /// and the per-wire facts are dropped here, and the circuit's depth
    /// is computed in one pass over the gates.
    ///
    /// # Panics
    /// Panics if an output is not a wire of this builder, as every other
    /// method does on a foreign [`WireId`].
    pub fn finish(self, outputs: Vec<WireId>) -> Circuit {
        if let Some(&w) = outputs.iter().find(|&&w| w as usize >= self.gates.len()) {
            panic!(
                "output wire {w} is not one of the builder's {} wires",
                self.gates.len()
            );
        }
        let rec = qec_obs::global();
        if rec.is_enabled() {
            rec.add("build.gates", self.size);
            rec.add("build.wires", self.gates.len() as u64);
            rec.add("build.folded", self.folded);
            rec.add("build.identities", self.identities);
        }
        self.cons.flush(&rec, "build");
        drop(self.facts);
        let mut gates = self.gates;
        gates.shrink_to_fit();
        if rec.is_enabled() {
            rec.gauge_max("build.arena_bytes", gates.bytes() as u64);
        }
        Circuit::from_gates(gates, outputs, self.num_inputs)
            .expect("a builder's gate list is valid")
    }
}

/// A finalized circuit: its packed gates, outputs, input arity, size and
/// depth.
#[derive(Clone)]
pub struct Circuit {
    gates: Gates,
    outputs: Vec<WireId>,
    num_inputs: usize,
    size: u64,
    depth: u32,
}

impl Circuit {
    /// Builds a materialized circuit from a raw gate list, computing
    /// depth and size: the checked constructor for gate lists made
    /// outside a [`Builder`] (hand-built or mutated circuits). The list
    /// is packed and then checked as every packed circuit is: every
    /// operand must name an earlier wire, the `Input` gates must carry
    /// `0, 1, 2, …` in wire order and number `num_inputs`, and every
    /// output must name a wire of the list; otherwise the typed
    /// [`ValidateError`] comes back (an input index past `u32` is
    /// reported as `u32::MAX`).
    pub fn from_raw(
        gates: Vec<Gate>,
        outputs: Vec<WireId>,
        num_inputs: usize,
    ) -> Result<Circuit, ValidateError> {
        let mut arena = Gates::with_capacity(gates.len());
        for g in gates {
            arena.push(g.pack());
        }
        Circuit::from_gates(arena, outputs, num_inputs)
    }

    /// The check behind every constructor of packed gates (see
    /// [`Circuit::from_raw`]), which computes size and depth on the way.
    pub(crate) fn from_gates(
        gates: Gates,
        outputs: Vec<WireId>,
        num_inputs: usize,
    ) -> Result<Circuit, ValidateError> {
        let mut depths: Vec<u32> = Vec::with_capacity(gates.len());
        let mut size = 0u64;
        let mut found = 0usize;
        for (i, r) in gates.iter().enumerate() {
            match r.op {
                op::INPUT if r.args[0] as usize != found => {
                    return Err(ValidateError::InputIndexOutOfOrder {
                        gate: i,
                        declared: r.args[0] as usize,
                        expected: found,
                    })
                }
                op::INPUT => found += 1,
                op::CONST => {}
                _ => size += 1,
            }
            let mut d = 0;
            for &w in r.operands() {
                let Some(&dw) = depths.get(w as usize) else {
                    return Err(ValidateError::ForwardReference {
                        gate: i,
                        operand: w,
                    });
                };
                d = d.max(dw + 1);
            }
            depths.push(d);
        }
        if found != num_inputs {
            return Err(ValidateError::InputCountMismatch {
                declared: num_inputs,
                found,
            });
        }
        if let Some(position) = outputs.iter().position(|&w| w as usize >= gates.len()) {
            return Err(ValidateError::OutputOutOfRange {
                position,
                wire: outputs[position],
            });
        }
        let depth = depths.iter().copied().max().unwrap_or(0);
        Ok(Circuit {
            gates,
            outputs,
            num_inputs,
            size,
            depth,
        })
    }

    /// Gate count (logic gates; inputs/constants excluded).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Depth (longest path through logic gates).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of declared inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Output wires.
    pub fn outputs(&self) -> &[WireId] {
        &self.outputs
    }

    /// Total wires (inputs + constants + gates).
    pub fn num_wires(&self) -> usize {
        self.gates.len()
    }

    /// The gate of wire `i`, decoded.
    ///
    /// # Panics
    /// Panics if `i` is not below [`Circuit::num_wires`].
    pub fn gate(&self, i: usize) -> Gate {
        self.gates.get(i).gate()
    }

    /// The gates, one per wire, decoded.
    pub fn gates(&self) -> impl ExactSizeIterator<Item = Gate> + '_ {
        self.gates.iter().map(Rec::gate)
    }

    /// The packed records.
    pub(crate) fn arena(&self) -> &Gates {
        &self.gates
    }

    /// Per-wire depths (the Brent step count and the engine's
    /// level-major schedule use them), computed on each call: a circuit
    /// stores only its [`depth`](Circuit::depth).
    pub fn wire_depths(&self) -> Vec<u32> {
        let mut depths: Vec<u32> = Vec::with_capacity(self.gates.len());
        for r in self.gates.iter() {
            let d = r.operands().iter().map(|&w| depths[w as usize] + 1).max();
            depths.push(d.unwrap_or(0));
        }
        depths
    }

    /// Evaluates the circuit on `inputs`, returning output values.
    ///
    /// The evaluation order is the construction order (topological by
    /// construction); assertion gates abort with [`EvalError`].
    pub fn evaluate(&self, inputs: &[u64]) -> Result<Vec<u64>, EvalError> {
        if inputs.len() != self.num_inputs {
            return Err(EvalError::InputArity {
                expected: self.num_inputs,
                got: inputs.len(),
            });
        }
        let mut values = vec![0u64; self.gates.len()];
        let as_bool = |v: u64| -> u64 { u64::from(v != 0) };
        for (i, g) in self.gates().enumerate() {
            values[i] = match g {
                Gate::Input(idx) => inputs[idx],
                Gate::Const(v) => v,
                Gate::Add(a, b) => values[a as usize].wrapping_add(values[b as usize]),
                Gate::Sub(a, b) => values[a as usize].wrapping_sub(values[b as usize]),
                Gate::Mul(a, b) => values[a as usize].wrapping_mul(values[b as usize]),
                Gate::Eq(a, b) => u64::from(values[a as usize] == values[b as usize]),
                Gate::Lt(a, b) => u64::from(values[a as usize] < values[b as usize]),
                Gate::And(a, b) => as_bool(values[a as usize]) & as_bool(values[b as usize]),
                Gate::Or(a, b) => as_bool(values[a as usize]) | as_bool(values[b as usize]),
                Gate::Xor(a, b) => as_bool(values[a as usize]) ^ as_bool(values[b as usize]),
                Gate::Not(a) => u64::from(values[a as usize] == 0),
                Gate::Mux(s, a, b) => {
                    if values[s as usize] != 0 {
                        values[a as usize]
                    } else {
                        values[b as usize]
                    }
                }
                Gate::AssertZero(a) => {
                    let v = values[a as usize];
                    if v != 0 {
                        return Err(EvalError::AssertionFailed { gate: i, value: v });
                    }
                    0
                }
            };
        }
        Ok(self.outputs.iter().map(|&w| values[w as usize]).collect())
    }

    /// Fan-in lists per gate (for the bit-level lowering).
    pub fn gate_operands(&self, i: usize) -> [Option<WireId>; 3] {
        self.gate(i).operands()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_gates_evaluate() {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let s = b.add(x, y);
        let d = b.sub(x, y);
        let p = b.mul(x, y);
        let e = b.eq(x, y);
        let l = b.lt(x, y);
        let c = b.finish(vec![s, d, p, e, l]);
        assert_eq!(c.evaluate(&[7, 3]).unwrap(), vec![10, 4, 21, 0, 0]);
        assert_eq!(
            c.evaluate(&[3, 7]).unwrap(),
            vec![10, u64::MAX - 3, 21, 0, 1]
        );
        assert_eq!(c.evaluate(&[5, 5]).unwrap(), vec![10, 0, 25, 1, 0]);
    }

    #[test]
    fn logic_gates_are_logical() {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let a = b.and(x, y);
        let o = b.or(x, y);
        let n = b.not(x);
        let xo = b.xor(x, y);
        let c = b.finish(vec![a, o, n, xo]);
        // non-0/1 values behave as booleans
        assert_eq!(c.evaluate(&[5, 0]).unwrap(), vec![0, 1, 0, 1]);
        assert_eq!(c.evaluate(&[5, 9]).unwrap(), vec![1, 1, 0, 0]);
        assert_eq!(c.evaluate(&[0, 0]).unwrap(), vec![0, 0, 1, 0]);
    }

    #[test]
    fn mux_and_vectors() {
        let mut b = Builder::new();
        let s = b.input();
        let xs: Vec<WireId> = (0..3).map(|_| b.input()).collect();
        let ys: Vec<WireId> = (0..3).map(|_| b.input()).collect();
        let m = b.vec_mux(s, &xs, &ys);
        let c = b.finish(m);
        assert_eq!(c.evaluate(&[1, 1, 2, 3, 4, 5, 6]).unwrap(), vec![1, 2, 3]);
        assert_eq!(c.evaluate(&[0, 1, 2, 3, 4, 5, 6]).unwrap(), vec![4, 5, 6]);
    }

    #[test]
    fn lex_lt_orders_vectors() {
        let mut b = Builder::new();
        let a: Vec<WireId> = (0..2).map(|_| b.input()).collect();
        let c: Vec<WireId> = (0..2).map(|_| b.input()).collect();
        let lt = b.lex_lt(&a, &c);
        let circ = b.finish(vec![lt]);
        assert_eq!(circ.evaluate(&[1, 9, 2, 0]).unwrap(), vec![1]); // (1,9) < (2,0)
        assert_eq!(circ.evaluate(&[2, 0, 1, 9]).unwrap(), vec![0]);
        assert_eq!(circ.evaluate(&[1, 2, 1, 3]).unwrap(), vec![1]);
        assert_eq!(circ.evaluate(&[1, 3, 1, 3]).unwrap(), vec![0]);
    }

    /// `lex_lt` joins its terms with `Xor`, which is only right because
    /// they are exclusive: check it against lexicographic order on every
    /// pair of keys over a domain of 3, equal keys included.
    #[test]
    fn lex_lt_matches_lexicographic_order_on_every_small_key_pair() {
        for len in 1..=3usize {
            for mut b in [Builder::new(), Builder::without_cse()] {
                let a: Vec<WireId> = (0..len).map(|_| b.input()).collect();
                let c: Vec<WireId> = (0..len).map(|_| b.input()).collect();
                let lt = b.lex_lt(&a, &c);
                let circ = b.finish(vec![lt]);
                for code in 0..3u64.pow(2 * len as u32) {
                    let vals: Vec<u64> = (0..2 * len as u32)
                        .map(|d| code / 3u64.pow(d) % 3)
                        .collect();
                    let (x, y) = vals.split_at(len);
                    let got = circ.evaluate(&vals).unwrap();
                    assert_eq!(got, vec![u64::from(x < y)], "{x:?} < {y:?}");
                }
            }
        }
    }

    #[test]
    fn assertion_gates_fire() {
        let mut b = Builder::new();
        let x = b.input();
        b.assert_zero(x);
        let c = b.finish(vec![]);
        assert!(c.evaluate(&[0]).is_ok());
        assert!(matches!(
            c.evaluate(&[3]),
            Err(EvalError::AssertionFailed { value: 3, .. })
        ));
    }

    #[test]
    fn const_dedup_and_size_accounting() {
        let mut b = Builder::new();
        let c1 = b.constant(42);
        let c2 = b.constant(42);
        assert_eq!(c1, c2);
        assert_eq!(b.size(), 0); // constants are not logic
        let x = b.input();
        let _ = b.add(x, c1);
        assert_eq!(b.size(), 1);
        assert_eq!(b.finish(vec![]).depth(), 1);
    }

    #[test]
    fn add_chain_size_and_depth() {
        let mut b = Builder::new();
        let xs: Vec<WireId> = (0..8).map(|_| b.input()).collect();
        let mut acc = b.constant(0);
        for &x in &xs {
            acc = b.add(acc, x);
        }
        let k = b.constant(100);
        let flag = b.lt(acc, k);
        let c = b.finish(vec![flag]);
        // `0 + x0` is `x0`: seven adds and the compare remain.
        assert_eq!((c.size(), c.depth()), (8, 8));
        assert_eq!(c.evaluate(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap(), vec![1]);
    }

    #[test]
    fn input_arity_checked() {
        let mut b = Builder::new();
        let x = b.input();
        let c = b.finish(vec![x]);
        assert_eq!(
            c.evaluate(&[]),
            Err(EvalError::InputArity {
                expected: 1,
                got: 0
            })
        );
    }

    #[test]
    fn depth_tracks_longest_path() {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let a = b.add(x, y); // depth 1
        let z = b.add(a, y); // depth 2
        let w = b.add(x, y); // hash-consed to `a`
        let f = b.add(z, w); // depth 3
        let c = b.finish(vec![f]);
        assert_eq!(w, a);
        assert_eq!(c.depth(), 3);
        assert_eq!(c.size(), 3);
    }

    #[test]
    fn hash_consing_dedups_and_canonicalizes() {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let a1 = b.add(x, y);
        let a2 = b.add(y, x); // commutative: same wire
        assert_eq!(a1, a2);
        let s1 = b.sub(x, y);
        let s2 = b.sub(y, x); // order-sensitive: distinct wires
        assert_ne!(s1, s2);
        let m1 = b.mux(x, a1, s1);
        let m2 = b.mux(x, a1, s1);
        assert_eq!(m1, m2);
        assert_eq!(b.size(), 4); // a1, s1, s2, m1
        let c = b.finish(vec![a1, m1]);
        assert_eq!(c.evaluate(&[7, 3]).unwrap(), vec![10, 10]);
    }

    #[test]
    fn without_cse_keeps_duplicate_gates() {
        let mut b = Builder::without_cse();
        let x = b.input();
        let y = b.input();
        let a1 = b.add(x, y);
        let a2 = b.add(x, y);
        assert_ne!(a1, a2);
        assert_eq!(b.size(), 2);
    }

    #[test]
    fn asserts_are_never_consed() {
        // A second assert over the same wire is dropped, not consed onto
        // the first: its wire is the constant 0, not the first assert's.
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let g1 = b.assert_zero(x);
        let g2 = b.assert_zero(x);
        let g3 = b.assert_zero(y);
        assert_ne!(g1, g2);
        assert_ne!(g1, g3);
        assert_eq!(b.size(), 2);
        let c = b.finish(vec![g2]);
        assert_eq!(c.gate(g2 as usize), Gate::Const(0));
        // The oracle build keeps both.
        let mut b = Builder::without_cse();
        let x = b.input();
        let g1 = b.assert_zero(x);
        let g2 = b.assert_zero(x);
        assert_ne!(g1, g2);
        assert_eq!(b.size(), 2);
    }

    /// Builds `program` with the oracle builder (no rule, no hash-cons)
    /// and with the rewriting one.
    fn raw_and_ruled(program: impl Fn(&mut Builder) -> Vec<WireId>) -> (Circuit, Circuit) {
        let build = |mut b: Builder| {
            let outs = program(&mut b);
            b.finish(outs)
        };
        (build(Builder::without_cse()), build(Builder::new()))
    }

    fn asserts(c: &Circuit) -> usize {
        c.gates()
            .filter(|g| matches!(g, Gate::AssertZero(_)))
            .count()
    }

    #[test]
    fn folds_constants_and_identities() {
        let (raw, c) = raw_and_ruled(|b| {
            let x = b.input();
            let zero = b.constant(0);
            let one = b.constant(1);
            let a = b.add(x, zero); // x + 0 → x
            let m = b.mul(a, one); // x * 1 → x
            let e = b.eq(m, m); // Eq(x, x) → 1
            let s = b.sub(x, x); // x - x → 0
            let k = b.add(e, s); // 1 + 0 → 1
            vec![a, m, k]
        });
        assert_eq!((raw.size(), c.size()), (5, 0), "everything folds away");
        for inp in [[0u64], [5], [u64::MAX]] {
            assert_eq!(raw.evaluate(&inp).unwrap(), c.evaluate(&inp).unwrap());
        }
        assert_eq!(c.evaluate(&[9]).unwrap(), vec![9, 9, 1]);
    }

    #[test]
    fn boolean_guard_blocks_unsound_rewrites() {
        // And(x, x) must NOT become x for a non-boolean word: it becomes
        // the coercion Or(x, x).
        let (raw, c) = raw_and_ruled(|b| {
            let x = b.input();
            vec![b.and(x, x)]
        });
        assert_eq!(c.gate(c.outputs()[0] as usize), Gate::Or(0, 0));
        for inp in [[5u64], [0]] {
            assert_eq!(raw.evaluate(&inp).unwrap(), c.evaluate(&inp).unwrap());
        }
        assert_eq!(c.evaluate(&[5]).unwrap(), vec![1]);
        // But And(e, e) for boolean e is e itself.
        let (raw, c) = raw_and_ruled(|b| {
            let x = b.input();
            let y = b.input();
            let e = b.eq(x, y);
            vec![b.and(e, e)]
        });
        assert_eq!((raw.size(), c.size()), (2, 1), "only the Eq survives");
        for inp in [[3u64, 3], [3, 4]] {
            assert_eq!(raw.evaluate(&inp).unwrap(), c.evaluate(&inp).unwrap());
        }
    }

    #[test]
    fn truthy_constants_coerce_wide_words() {
        // A truthy constant (7) or a 0 beside a wide word x leaves bool(x)
        // or Not(x), never x itself.
        let (raw, c) = raw_and_ruled(|b| {
            let x = b.input();
            let seven = b.constant(7);
            let zero = b.constant(0);
            vec![
                b.and(seven, x),
                b.and(x, seven),
                b.or(zero, x),
                b.or(x, zero),
                b.xor(zero, x),
                b.xor(x, zero),
                b.xor(seven, x),
                b.xor(x, seven),
            ]
        });
        for inp in [[5u64], [1], [0]] {
            assert_eq!(raw.evaluate(&inp).unwrap(), c.evaluate(&inp).unwrap());
        }
        assert_eq!(c.evaluate(&[5]).unwrap(), vec![1, 1, 1, 1, 1, 1, 0, 0]);
        assert_eq!(c.size(), 2, "one Or(x, x) and one Not(x)");
    }

    #[test]
    fn double_not_coerces() {
        let (raw, c) = raw_and_ruled(|b| {
            let x = b.input();
            let n1 = b.not(x);
            vec![b.not(n1)] // bool(x), x not provably boolean
        });
        // Not(Not(x)) is one coercion gate; the inner Not stays, dead.
        assert_eq!(c.gate(c.outputs()[0] as usize), Gate::Or(0, 0));
        assert_eq!((raw.size(), c.size()), (2, 2));
        for inp in [[7u64], [0]] {
            assert_eq!(raw.evaluate(&inp).unwrap(), c.evaluate(&inp).unwrap());
        }
        assert_eq!(c.evaluate(&[7]).unwrap(), vec![1]);
    }

    #[test]
    fn mux_rewrites() {
        let (raw, c) = raw_and_ruled(|b| {
            let s = b.input();
            let x = b.input();
            let y = b.input();
            let same = b.mux(s, x, x); // → x
            let one = b.constant(1);
            let zero = b.constant(0);
            let csel = b.mux(one, x, y); // → x
            let boolify = b.mux(s, one, zero); // → bool(s)
            let negate = b.mux(s, zero, one); // → Not(s)
            vec![same, csel, boolify, negate]
        });
        for inp in [[0u64, 4, 9], [2, 4, 9]] {
            assert_eq!(raw.evaluate(&inp).unwrap(), c.evaluate(&inp).unwrap());
        }
        assert_eq!(raw.size(), 4);
        assert_eq!(c.size(), 2, "only bool(s) and Not(s) remain");
        assert_eq!(&c.outputs()[..2], &[1, 1]);
    }

    #[test]
    fn passing_asserts_on_const_zero_are_dropped() {
        let (raw, c) = raw_and_ruled(|b| {
            let x = b.input();
            let z = b.sub(x, x); // folds to 0
            b.assert_zero(z);
            vec![b.add(x, x)]
        });
        assert_eq!((asserts(&raw), asserts(&c)), (1, 0));
        assert_eq!((raw.size(), c.size()), (3, 1));
        assert_eq!(raw.evaluate(&[4]).unwrap(), vec![8]);
        assert_eq!(c.evaluate(&[4]).unwrap(), vec![8]);
    }

    #[test]
    fn failing_asserts_are_never_dropped() {
        let (raw, c) = raw_and_ruled(|b| {
            let x = b.input();
            let one = b.constant(1);
            let k = b.mul(one, one); // folds to const 1
            b.assert_zero(k); // always fails with value 1
            vec![x]
        });
        assert_eq!((asserts(&raw), asserts(&c)), (1, 1));
        assert_eq!(c.size(), 1, "the assert over the constant 1");
        for circuit in [&raw, &c] {
            match circuit.evaluate(&[0]) {
                Err(EvalError::AssertionFailed { value, .. }) => assert_eq!(value, 1),
                other => panic!("expected assertion failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_asserts_dedup_to_the_first() {
        let (raw, c) = raw_and_ruled(|b| {
            let x = b.input();
            let y = b.input();
            let d1 = b.sub(x, y);
            let d2 = b.sub(x, y); // the same wire after CSE
            b.assert_zero(d1);
            b.assert_zero(d2);
            vec![]
        });
        assert_eq!((asserts(&raw), asserts(&c)), (2, 1));
        // The surviving assert is the first, over the one `Sub`; the
        // second is the constant 0.
        assert!(c.gates().eq([
            Gate::Input(0),
            Gate::Input(1),
            Gate::Sub(0, 1),
            Gate::AssertZero(2),
            Gate::Const(0),
        ]));
        assert!(raw.evaluate(&[3, 3]).is_ok() && c.evaluate(&[3, 3]).is_ok());
        for circuit in [&raw, &c] {
            assert!(matches!(
                circuit.evaluate(&[5, 3]),
                Err(EvalError::AssertionFailed { value: 2, .. })
            ));
        }
    }

    /// An operand shape for [`rules_match_the_oracle_on_every_operand_shape`].
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Shape {
        Const(u64),
        /// `Lt(x, 2)`: provably boolean.
        Bool,
        /// The input `x` itself.
        Wide,
        /// `Not(x)`.
        Not,
        /// `x`, with an assert over it built first.
        Asserted,
        /// The wire of `AssertZero(x)`.
        Assert,
    }

    const SHAPES: [Shape; 9] = [
        Shape::Const(0),
        Shape::Const(1),
        Shape::Const(2),
        Shape::Const(u64::MAX),
        Shape::Bool,
        Shape::Wide,
        Shape::Not,
        Shape::Asserted,
        Shape::Assert,
    ];

    /// Every way `arity` operands can share input slots: slot `i` is at
    /// most one above the largest slot before it.
    fn slot_patterns(arity: usize) -> Vec<Vec<usize>> {
        let mut out = vec![vec![0]];
        for _ in 1..arity {
            out = out
                .into_iter()
                .flat_map(|p| {
                    let top = p.iter().max().copied().unwrap_or(0);
                    (0..=top + 1).map(move |s| {
                        let mut q = p.clone();
                        q.push(s);
                        q
                    })
                })
                .collect();
        }
        out
    }

    /// Builds `kind` over operands of the given shapes and slots: the
    /// gate's wire is the one output. Operands with the same shape and
    /// slot are one wire.
    fn shaped_gate(b: &mut Builder, kind: &str, shapes: &[Shape], slots: &[usize]) -> WireId {
        let inputs: Vec<WireId> = (0..3).map(|_| b.input()).collect();
        let mut made: Vec<((Shape, usize), WireId)> = Vec::new();
        let mut ops = Vec::new();
        for (&shape, &slot) in shapes.iter().zip(slots) {
            if let Some(&(_, w)) = made.iter().find(|(k, _)| *k == (shape, slot)) {
                ops.push(w);
                continue;
            }
            let x = inputs[slot];
            let w = match shape {
                Shape::Const(v) => b.constant(v),
                Shape::Bool => {
                    let two = b.constant(2);
                    b.lt(x, two)
                }
                Shape::Wide => x,
                Shape::Not => b.not(x),
                Shape::Asserted => {
                    b.assert_zero(x);
                    x
                }
                Shape::Assert => b.assert_zero(x),
            };
            made.push(((shape, slot), w));
            ops.push(w);
        }
        match (kind, ops.as_slice()) {
            ("add", &[x, y]) => b.add(x, y),
            ("sub", &[x, y]) => b.sub(x, y),
            ("mul", &[x, y]) => b.mul(x, y),
            ("eq", &[x, y]) => b.eq(x, y),
            ("lt", &[x, y]) => b.lt(x, y),
            ("and", &[x, y]) => b.and(x, y),
            ("or", &[x, y]) => b.or(x, y),
            ("xor", &[x, y]) => b.xor(x, y),
            ("not", &[x]) => b.not(x),
            ("assert", &[x]) => b.assert_zero(x),
            ("mux", &[s, x, y]) => b.mux(s, x, y),
            _ => unreachable!("{kind} over {} operands", ops.len()),
        }
    }

    /// The builder's rewrite rules against the oracle build, for every
    /// gate kind over every combination of operand shapes (constants 0,
    /// 1, 2 and `u64::MAX`, a boolean wire, a wide wire, a `Not`, an
    /// asserted wire and an assert's own wire), with operands on one
    /// input or on distinct ones, at every input value in a small domain
    /// that straddles the boolean range and the word's top. A failing
    /// assert is compared by the value it observed, since the two builds
    /// number their gates differently.
    #[test]
    fn rules_match_the_oracle_on_every_operand_shape() {
        const DOMAIN: [u64; 5] = [0, 1, 2, 3, u64::MAX];
        let kinds = [
            ("add", 2),
            ("sub", 2),
            ("mul", 2),
            ("eq", 2),
            ("lt", 2),
            ("and", 2),
            ("or", 2),
            ("xor", 2),
            ("not", 1),
            ("assert", 1),
            ("mux", 3),
        ];
        let outcome = |r: Result<Vec<u64>, EvalError>| match r {
            Ok(v) => Ok(v),
            Err(EvalError::AssertionFailed { value, .. }) => Err(value),
            Err(e) => panic!("unexpected evaluation error {e}"),
        };
        let mut checked = 0usize;
        for (kind, arity) in kinds {
            let mut shapes = vec![vec![]];
            for _ in 0..arity {
                shapes = shapes
                    .into_iter()
                    .flat_map(|p: Vec<Shape>| {
                        SHAPES.iter().map(move |&s| {
                            let mut q = p.clone();
                            q.push(s);
                            q
                        })
                    })
                    .collect();
            }
            for shape in &shapes {
                for slots in slot_patterns(arity) {
                    let build = |mut b: Builder| {
                        let out = shaped_gate(&mut b, kind, shape, &slots);
                        b.finish(vec![out])
                    };
                    let raw = build(Builder::without_cse());
                    let ruled = build(Builder::new());
                    for x in DOMAIN {
                        for y in DOMAIN {
                            for z in DOMAIN {
                                let input = [x, y, z];
                                assert_eq!(
                                    outcome(ruled.evaluate(&input)),
                                    outcome(raw.evaluate(&input)),
                                    "{kind} over {shape:?} on slots {slots:?} at {input:?}"
                                );
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        // 8·81·2 + 2·9 + 729·5 shaped gates, each at 125 inputs.
        assert_eq!(checked, (8 * 81 * 2 + 2 * 9 + 729 * 5) * 125);
    }

    #[test]
    fn from_raw_rebuilds_and_rejects_bad_wiring() {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let s = b.add(x, y);
        let n = b.not(s);
        let c = b.finish(vec![s, n]);
        let back = Circuit::from_raw(c.gates().collect(), c.outputs().to_vec(), 2).unwrap();
        assert!(back.gates().eq(c.gates()));
        assert_eq!(back.wire_depths(), vec![0, 0, 1, 2]);
        assert_eq!(back.wire_depths(), c.wire_depths());
        assert_eq!((back.size(), back.depth()), (c.size(), c.depth()));

        // an operand naming the gate itself or a later wire
        let fwd = vec![Gate::Input(0), Gate::Add(0, 2), Gate::Not(0)];
        assert_eq!(
            Circuit::from_raw(fwd, vec![1], 1).err(),
            Some(ValidateError::ForwardReference {
                gate: 1,
                operand: 2
            })
        );
        let own = vec![Gate::Input(0), Gate::Not(1)];
        assert_eq!(
            Circuit::from_raw(own, vec![1], 1).err(),
            Some(ValidateError::ForwardReference {
                gate: 1,
                operand: 1
            })
        );
        // an output past the last wire
        let gates = vec![Gate::Input(0), Gate::Not(0)];
        assert_eq!(
            Circuit::from_raw(gates, vec![1, 2], 1).err(),
            Some(ValidateError::OutputOutOfRange {
                position: 1,
                wire: 2
            })
        );
    }

    #[test]
    fn from_raw_rejects_sparse_or_miscounted_inputs() {
        // Accepted unchecked, this circuit made the interpreter and the
        // word engine index past their one-element input slice.
        assert_eq!(
            Circuit::from_raw(vec![Gate::Input(5)], vec![0], 1).err(),
            Some(ValidateError::InputIndexOutOfOrder {
                gate: 0,
                declared: 5,
                expected: 0
            })
        );
        assert_eq!(
            Circuit::from_raw(vec![Gate::Input(0)], vec![0], 2).err(),
            Some(ValidateError::InputCountMismatch {
                declared: 2,
                found: 1
            })
        );
    }

    #[test]
    #[should_panic(expected = "is not one of the builder's")]
    fn the_oracle_build_rejects_a_foreign_operand() {
        let mut b = Builder::without_cse();
        let x = b.input();
        b.add(x, 7);
    }

    #[test]
    #[should_panic(expected = "is not one of the builder's")]
    fn finish_rejects_a_foreign_output() {
        let mut b = Builder::new();
        b.input();
        b.finish(vec![1]);
    }

    #[test]
    fn a_word_gate_record_is_13_bytes() {
        // One opcode byte and three operand words per wire, in two
        // arrays: constants and input indices live in the operand words.
        let mut gates = Gates::with_capacity(4);
        for g in [
            Gate::Input(0),
            Gate::Const(u64::MAX),
            Gate::Mux(0, 1, 0),
            Gate::AssertZero(2),
        ] {
            gates.push(g.pack());
        }
        assert_eq!(gates.bytes(), 4 * 13);
    }

    #[test]
    fn cse_size_and_depth() {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let a = b.add(x, y);
        let _dup = b.add(y, x);
        let m = b.mul(a, a);
        let e = b.eq(m, a);
        let c = b.finish(vec![e]);
        assert_eq!((c.size(), c.depth()), (3, 3));
        assert_eq!(c.evaluate(&[1, 0]).unwrap(), vec![1]);
    }
}
