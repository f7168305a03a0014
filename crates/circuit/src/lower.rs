//! Bit-level lowering: word circuits → AND/XOR/NOT circuits.
//!
//! The paper treats Boolean and arithmetic circuits interchangeably up to
//! `poly(log u)` factors (Sec. 4.1). This module makes the translation
//! concrete: every live word wire becomes at most `width` bit wires (the
//! word optimizer's liveness mark, [`crate::opt`], read in place: a gate
//! no output or assert reads is not lowered); word gates expand to
//! textbook Boolean blocks. The result is exactly what garbled-circuit or
//! GMW-style protocols consume — XOR gates are "free" in both, so
//! [`BitCircuit`] reports AND count and AND depth separately.
//!
//! **Templates.** Each costs one AND per bit where an AND is needed
//! (Kolesnikov–Sadeghi–Schneider's majority forms):
//! - `Add`/`Sub`: a ripple-carry adder whose carry is the majority
//!   `c' = x ⊕ ((x ⊕ y) ∧ (x ⊕ c))`, with no carry out of the top bit;
//!   `a − b` is `a + ¬b + 1`, the `+ 1` as the carry in;
//! - `Lt`: the chain `lt' = y ⊕ (¬(x ⊕ y) ∧ (y ⊕ lt))` from the LSB, whose
//!   `¬(x ⊕ y)` is the XNOR `Eq` also builds;
//! - `Eq`: the AND of the bit XNORs; `Mux`: `b ⊕ (s ∧ (a ⊕ b))` per bit;
//!   `Mul`: shift-and-add; the logical gates work on OR-reductions.
//!
//! A word wire's bit vector holds no trailing constant-0 bits, and the
//! templates read the missing bits as 0: a 0/1 word (any `Eq`, `Lt` or
//! `And` result) is one bit wide, and a constant 0 none. A bit is a
//! literal, a wire plus a pending negation: XOR absorbs a NOT and only an
//! AND operand, an assert or an output emits one, so no NOT is emitted
//! that a later rule cancels. A word read by two or more gates gets its
//! NOTs at once, so its readers share them. Chains start at the top bit
//! where two constants already decide them, and no carry leaves the top
//! bit, so the lowered triangles of `tests/lowering_golden.rs` carry no
//! gate that nothing reads.
//!
//! **Store.** A [`BitCircuit`] keeps its gates packed: an opcode byte and
//! two `u32` operand words per gate (9 bytes), in two arrays, with
//! [`BGate`] as the decoded view. Both passes here, [`lower_with`] and
//! the bit optimizer [`optimize_bits_with`], are one sequential walk
//! over a topologically ordered gate list that interns straight into
//! that store (`Lowerer`: the packed store plus a cons index that files
//! each gate under its youngest operand), so a wire's id is its creation
//! order. This is the only bit lowering;
//! [`BitTape::encode`](crate::BitTape::encode) turns its result into the
//! storage and transfer format.

use std::sync::OnceLock;

use crate::cons::{hash_fields, ConsArena, ConsIndex, ConsKey};
use crate::driver::CompileOptions;
use crate::opt::{mark_live, DEAD};
use crate::validate::ValidateError;
use crate::{Circuit, Gate, WireId};

/// A bit-level gate over GF(2) with NOT: the decoded view of one record
/// of a [`BitCircuit`]'s packed store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BGate {
    /// The `i`-th input bit. Each input bit is its own gate, so its
    /// index lives in the bit-wire id space and fits `u32`, like an
    /// operand.
    Input(u32),
    /// A constant bit.
    Const(bool),
    /// XOR (free in GMW/garbling).
    Xor(u32, u32),
    /// AND (the expensive gate).
    And(u32, u32),
    /// NOT (free).
    Not(u32),
    /// Assertion: the bit must be 0 at evaluation time.
    AssertFalse(u32),
}

/// Opcodes of the packed bit store. They are the GMW tape's opcodes as
/// well, so `compile_gmw` copies a gate's opcode onto the tape unchanged,
/// and the tape fingerprint hashes them, so the values are fixed.
pub(crate) mod bop {
    pub(crate) const INPUT: u8 = 0;
    pub(crate) const CONST: u8 = 1;
    pub(crate) const XOR: u8 = 2;
    pub(crate) const AND: u8 = 3;
    pub(crate) const NOT: u8 = 4;
    pub(crate) const ASSERT: u8 = 5;
}

impl BGate {
    /// The packed record: opcode and two operand words, with the input
    /// index or the constant in the first word and unused words 0.
    #[inline]
    pub(crate) fn pack(self) -> (u8, [u32; 2]) {
        match self {
            BGate::Input(i) => (bop::INPUT, [i, 0]),
            BGate::Const(v) => (bop::CONST, [u32::from(v), 0]),
            BGate::Xor(a, b) => (bop::XOR, [a, b]),
            BGate::And(a, b) => (bop::AND, [a, b]),
            BGate::Not(a) => (bop::NOT, [a, 0]),
            BGate::AssertFalse(a) => (bop::ASSERT, [a, 0]),
        }
    }

    /// Inverse of [`pack`](BGate::pack).
    #[inline]
    pub(crate) fn unpack(op: u8, [a, b]: [u32; 2]) -> BGate {
        match op {
            bop::INPUT => BGate::Input(a),
            bop::CONST => BGate::Const(a != 0),
            bop::XOR => BGate::Xor(a, b),
            bop::AND => BGate::And(a, b),
            bop::NOT => BGate::Not(a),
            bop::ASSERT => BGate::AssertFalse(a),
            _ => unreachable!("a packed bit record holds one of the six opcodes"),
        }
    }
}

/// The packed bit-gate store: per wire an opcode byte and two operand
/// words, in two arrays (9 bytes a gate). The lowering interns straight
/// into it, [`BitCircuit`] keeps it, and `compile_gmw` reads it in gate
/// order.
#[derive(Clone, Default)]
pub(crate) struct BitGates {
    ops: Vec<u8>,
    args: Vec<[u32; 2]>,
}

impl BitGates {
    pub(crate) fn with_capacity(n: usize) -> BitGates {
        BitGates {
            ops: Vec::with_capacity(n),
            args: Vec::with_capacity(n),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    /// The opcodes, by wire.
    pub(crate) fn ops(&self) -> &[u8] {
        &self.ops
    }

    /// The operand words, by wire.
    pub(crate) fn args(&self) -> &[[u32; 2]] {
        &self.args
    }

    /// The decoded gate of wire `w`.
    #[inline]
    pub(crate) fn get(&self, w: usize) -> BGate {
        BGate::unpack(self.ops[w], self.args[w])
    }

    #[inline]
    pub(crate) fn push(&mut self, g: BGate) {
        self.push_rec(g.into());
    }

    #[inline]
    fn push_rec(&mut self, r: BRec) {
        self.ops.push(r.op);
        self.args.push(r.args);
    }

    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = BGate> + '_ {
        self.ops
            .iter()
            .zip(&self.args)
            .map(|(&op, &args)| BGate::unpack(op, args))
    }
}

impl FromIterator<BGate> for BitGates {
    fn from_iter<I: IntoIterator<Item = BGate>>(iter: I) -> BitGates {
        let iter = iter.into_iter();
        let mut gates = BitGates::with_capacity(iter.size_hint().0);
        for g in iter {
            gates.push(g);
        }
        gates
    }
}

/// A packed bit record as the lowering's cons index compares it: the
/// opcode and operand words of [`BGate::pack`], so a lookup compares a
/// candidate's record without decoding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BRec {
    op: u8,
    args: [u32; 2],
}

impl From<BGate> for BRec {
    #[inline]
    fn from(g: BGate) -> BRec {
        let (op, args) = g.pack();
        BRec { op, args }
    }
}

impl ConsKey for BRec {
    #[inline]
    fn youngest(&self) -> Option<u32> {
        let [a, b] = self.args;
        match self.op {
            bop::INPUT | bop::CONST => None,
            bop::XOR | bop::AND => Some(a.max(b)),
            _ => Some(a),
        }
    }

    fn cons_hash(&self) -> u64 {
        let [a, b] = self.args;
        hash_fields(self.op, a, b, 0)
    }
}

impl ConsArena for BitGates {
    type Key = BRec;
    #[inline]
    fn record(&self, w: u32) -> BRec {
        BRec {
            op: self.ops[w as usize],
            args: self.args[w as usize],
        }
    }
}

/// A lowered Boolean circuit.
///
/// The circuit is sealed at construction: the gate list, outputs, input
/// arity, and width are only readable (via [`BitCircuit::gates`] and
/// friends), never mutable. The size/depth metrics
/// ([`BitCircuit::and_count`] &c.) are computed lazily on first use and
/// cached in a `OnceLock`; sealing is what makes that cache sound — a
/// circuit mutated after the first metrics read would silently keep
/// reporting the stale numbers. To change a circuit, build a new one
/// with [`BitCircuit::from_raw`], which also makes sure the gate list is
/// a valid circuit.
///
/// The gates are stored packed, an opcode byte and two `u32` operand
/// words each, so [`BitCircuit::gates`] yields decoded [`BGate`]s.
pub struct BitCircuit {
    /// Gates in topological order.
    gates: BitGates,
    /// Output bit wires (the word outputs, `width` bits each, LSB first).
    outputs: Vec<u32>,
    /// Number of input bits.
    num_inputs: usize,
    /// Word width used by the lowering.
    width: u32,
    /// Lazily computed metrics (one pass over `gates`, then cached —
    /// `report` calls `and_depth` per table row).
    metrics: OnceLock<BitMetrics>,
}

/// Single-pass size/depth metrics for a [`BitCircuit`].
#[derive(Clone, Copy, Debug, Default)]
struct BitMetrics {
    gate_count: u64,
    and_count: u64,
    xor_count: u64,
    and_depth: u32,
}

impl BitCircuit {
    /// Assembles a bit circuit from a raw gate list: the one checked
    /// constructor, which [`lower_with`], [`optimize_bits_with`] and
    /// [`BitTape::decode`](crate::BitTape::decode) reach through the
    /// packed store they build. Every operand must name an earlier wire,
    /// the `Input` gates must carry `0, 1, 2, …` in wire order and number
    /// `num_inputs`, every output must name a wire of the list, and the
    /// outputs must be whole `width`-bit words; otherwise the typed
    /// [`ValidateError`] comes back.
    pub fn from_raw(
        gates: Vec<BGate>,
        outputs: Vec<u32>,
        num_inputs: usize,
        width: u32,
    ) -> Result<BitCircuit, ValidateError> {
        BitCircuit::from_store(gates.into_iter().collect(), outputs, num_inputs, width)
    }

    /// [`BitCircuit::from_raw`] over a packed store, with the same checks.
    pub(crate) fn from_store(
        gates: BitGates,
        outputs: Vec<u32>,
        num_inputs: usize,
        width: u32,
    ) -> Result<BitCircuit, ValidateError> {
        let mut found = 0usize;
        for (i, (&op, &[a, b])) in gates.ops.iter().zip(&gates.args).enumerate() {
            let ops = match op {
                bop::INPUT if a as usize != found => {
                    return Err(ValidateError::InputIndexOutOfOrder {
                        gate: i,
                        declared: a as usize,
                        expected: found,
                    })
                }
                bop::INPUT => {
                    found += 1;
                    [None, None]
                }
                bop::CONST => [None, None],
                bop::XOR | bop::AND => [Some(a), Some(b)],
                _ => [Some(a), None],
            };
            if let Some(operand) = ops.into_iter().flatten().find(|&w| w as usize >= i) {
                return Err(ValidateError::ForwardReference { gate: i, operand });
            }
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
        if width != 0 && !outputs.len().is_multiple_of(width as usize) {
            return Err(ValidateError::OutputWidthMismatch {
                outputs: outputs.len(),
                width,
            });
        }
        Ok(BitCircuit {
            gates,
            outputs,
            num_inputs,
            width,
            metrics: OnceLock::new(),
        })
    }

    /// The gates, decoded, in topological order.
    pub fn gates(&self) -> impl ExactSizeIterator<Item = BGate> + '_ {
        self.gates.iter()
    }

    /// The packed store, for the GMW compile.
    pub(crate) fn store(&self) -> &BitGates {
        &self.gates
    }

    /// Output bit wires (the word outputs, `width` bits each, LSB first).
    pub fn outputs(&self) -> &[u32] {
        &self.outputs
    }

    /// Number of input bits.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Word width used by the lowering.
    pub fn width(&self) -> u32 {
        self.width
    }

    fn metrics(&self) -> &BitMetrics {
        self.metrics.get_or_init(|| {
            let mut m = BitMetrics::default();
            let mut depth = vec![0u32; self.gates.len()];
            for (i, g) in self.gates.iter().enumerate() {
                depth[i] = match g {
                    BGate::Input(_) | BGate::Const(_) => 0,
                    BGate::Xor(a, b) => {
                        m.xor_count += 1;
                        depth[a as usize].max(depth[b as usize])
                    }
                    BGate::Not(a) | BGate::AssertFalse(a) => depth[a as usize],
                    BGate::And(a, b) => {
                        m.and_count += 1;
                        depth[a as usize].max(depth[b as usize]) + 1
                    }
                };
                if !matches!(g, BGate::Input(_) | BGate::Const(_)) {
                    m.gate_count += 1;
                }
                m.and_depth = m.and_depth.max(depth[i]);
            }
            m
        })
    }

    /// Number of AND gates (the MPC/garbling cost driver).
    pub fn and_count(&self) -> u64 {
        self.metrics().and_count
    }

    /// Number of XOR gates (free in GMW/garbling).
    pub fn xor_count(&self) -> u64 {
        self.metrics().xor_count
    }

    /// Total gate count (excluding inputs and constants).
    pub fn gate_count(&self) -> u64 {
        self.metrics().gate_count
    }

    /// Multiplicative (AND) depth — the round count of a GMW evaluation.
    pub fn and_depth(&self) -> u32 {
        self.metrics().and_depth
    }

    /// Plaintext evaluation (reference for the MPC protocols).
    /// Allocates a fresh wire store per call; loops should hold a
    /// [`BitEvalScratch`] and use [`BitCircuit::evaluate_with`].
    pub fn evaluate(&self, inputs: &[bool]) -> Result<Vec<bool>, crate::EvalError> {
        let mut scratch = BitEvalScratch::default();
        self.evaluate_with(inputs, &mut scratch)
            .map(|out| out.to_vec())
    }

    /// [`BitCircuit::evaluate`] into caller-owned scratch buffers: the
    /// wire store and output vector live in `scratch` and are reused
    /// across calls (the returned slice borrows from it). One scratch
    /// serves circuits of any size — buffers regrow on demand.
    pub fn evaluate_with<'s>(
        &self,
        inputs: &[bool],
        scratch: &'s mut BitEvalScratch,
    ) -> Result<&'s [bool], crate::EvalError> {
        if inputs.len() != self.num_inputs {
            return Err(crate::EvalError::InputArity {
                expected: self.num_inputs,
                got: inputs.len(),
            });
        }
        let vals = &mut scratch.vals;
        vals.clear();
        vals.resize(self.gates.len(), false);
        for (i, g) in self.gates.iter().enumerate() {
            vals[i] = match g {
                BGate::Input(idx) => inputs[idx as usize],
                BGate::Const(v) => v,
                BGate::Xor(a, b) => vals[a as usize] ^ vals[b as usize],
                BGate::And(a, b) => vals[a as usize] & vals[b as usize],
                BGate::Not(a) => !vals[a as usize],
                BGate::AssertFalse(a) => {
                    if vals[a as usize] {
                        return Err(crate::EvalError::AssertionFailed { gate: i, value: 1 });
                    }
                    false
                }
            };
        }
        scratch.outs.clear();
        scratch
            .outs
            .extend(self.outputs.iter().map(|&w| vals[w as usize]));
        Ok(&scratch.outs)
    }

    /// Packs word inputs into the bit layout the lowering expects
    /// (LSB-first per word).
    pub fn pack_inputs(&self, words: &[u64]) -> Vec<bool> {
        let mut bits = Vec::with_capacity(words.len() * self.width as usize);
        for &w in words {
            for i in 0..self.width {
                bits.push((w >> i) & 1 == 1);
            }
        }
        bits
    }

    /// Unpacks output bits back into words.
    pub fn unpack_outputs(&self, bits: &[bool]) -> Vec<u64> {
        bits.chunks(self.width as usize)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
            })
            .collect()
    }
}

/// Reusable wire-store + output buffers for
/// [`BitCircuit::evaluate_with`], so per-instance reference evaluation
/// in tight loops (the fuzzer's sampled bit checks, BitEngine parity
/// tests) stops allocating a fresh `Vec<bool>` per call.
#[derive(Default)]
pub struct BitEvalScratch {
    vals: Vec<bool>,
    outs: Vec<bool>,
}

/// The constant-`false` wire: always id 0 (every [`Lowerer`] seeds it
/// first).
pub(crate) const B_FALSE: u32 = 0;
/// The constant-`true` wire: always id 1.
pub(crate) const B_TRUE: u32 = 1;

/// The last allocatable bit id: the two ids above it stay free as
/// sentinels (`u32::MAX` marks "no wire" in the DCE sweep and in the
/// BitEngine's register allocator).
pub(crate) const MAX_BIT_WIRES: u64 = (u32::MAX - 2) as u64;

/// Checked bit-wire allocation: the id for the `n`-th bit wire
/// (0-based), or a typed [`EvalError`](crate::EvalError) once the id
/// space is exhausted. Allocation used to wrap silently via `as u32` at
/// this boundary (>4.29B bit gates, reached around N=4096 on the X1
/// family).
pub(crate) fn checked_bit_id(n: u64) -> Result<u32, crate::EvalError> {
    if n > MAX_BIT_WIRES {
        return Err(crate::EvalError::CircuitTooLarge {
            wires: n + 1,
            limit: MAX_BIT_WIRES + 1,
        });
    }
    Ok(n as u32)
}

/// Sorts commutative operands (both binary bit gates commute).
fn canon_bit(g: BGate) -> BGate {
    match g {
        BGate::Xor(a, b) if a > b => BGate::Xor(b, a),
        BGate::And(a, b) if a > b => BGate::And(b, a),
        g => g,
    }
}

/// Rewrites every operand of `g` through `renum`.
fn remap_bgate(g: BGate, renum: &[u32]) -> BGate {
    let r = |w: u32| renum[w as usize];
    match g {
        BGate::Input(i) => BGate::Input(i),
        BGate::Const(v) => BGate::Const(v),
        BGate::Xor(a, b) => BGate::Xor(r(a), r(b)),
        BGate::And(a, b) => BGate::And(r(a), r(b)),
        BGate::Not(a) => BGate::Not(r(a)),
        BGate::AssertFalse(a) => BGate::AssertFalse(r(a)),
    }
}

/// A bit of a word during the lowering: a wire plus a pending
/// negation, `2 · wire + neg`. A NOT costs nothing until a consumer
/// needs it as a wire: XOR absorbs it (`¬a ⊕ b = ¬(a ⊕ b)`), NOT flips
/// it, and only an AND operand, an assert or an output bit emits the
/// NOT gate ([`Lowerer::wire`]). So no NOT is emitted that a later
/// rule would cancel. The constants are the literals of wire 0:
/// [`L_FALSE`] and its negation [`L_TRUE`].
type Lit = u32;
/// The constant-0 literal (wire [`B_FALSE`]).
const L_FALSE: Lit = 0;
/// The constant-1 literal, `¬L_FALSE`; [`Lowerer::wire`] maps it to
/// wire [`B_TRUE`].
const L_TRUE: Lit = 1;
/// Wires past this id have no literal.
const LIT_WIRES: u64 = 1 << 31;

/// The positive literal of wire `w`.
#[inline]
fn lit(w: u32) -> Lit {
    match w {
        B_FALSE => L_FALSE,
        B_TRUE => L_TRUE,
        w => w << 1,
    }
}

/// Bit `k` of a word's bit vector. A vector holds no trailing
/// constant-0 bits, so every bit past its end is 0.
#[inline]
fn bit(x: &[Lit], k: usize) -> Lit {
    x.get(k).copied().unwrap_or(L_FALSE)
}

/// Whether two bits are different constants.
#[inline]
fn differ_const(x: Lit, y: Lit) -> bool {
    x <= L_TRUE && y <= L_TRUE && x != y
}

/// Drops the trailing constant-0 bits of a word's bit vector.
fn trimmed(mut bits: Vec<Lit>) -> Vec<Lit> {
    while bits.last() == Some(&L_FALSE) {
        bits.pop();
    }
    bits
}

/// The bit-gate store behind [`lower_with`] and [`optimize_bits_with`]:
/// the packed gate store plus the cons index over it, with a fold
/// counter for [`BitOptStats`] (its CSE hits are the index's hits).
///
/// Its construction rules work on [`Lit`]s, fold online and hash-cons:
/// XOR and AND fold against the constants and equal operands, NOT
/// cancels NOT, and structurally repeated gates (operands sorted)
/// return the existing wire. All bit wires carry `0`/`1`, so unlike the
/// word level every identity here is unconditionally sound.
struct Lowerer {
    gates: BitGates,
    cons: ConsIndex,
    folds: u64,
}

impl Lowerer {
    fn new() -> Lowerer {
        let mut gates = BitGates::default();
        gates.push(BGate::Const(false));
        gates.push(BGate::Const(true));
        Lowerer {
            gates,
            cons: ConsIndex::new(),
            folds: 0,
        }
    }

    /// Appends an uncached gate (inputs, asserts).
    fn push(&mut self, g: BGate) -> u32 {
        self.push_rec(g.into())
    }

    fn push_rec(&mut self, r: BRec) -> u32 {
        let n = self.gates.len() as u64;
        let id = match checked_bit_id(n) {
            Ok(id) if u64::from(id) < LIT_WIRES => id,
            Ok(_) => panic!(
                "{}",
                crate::EvalError::CircuitTooLarge {
                    wires: n + 1,
                    limit: LIT_WIRES,
                }
            ),
            Err(e) => panic!("{e}"),
        };
        self.gates.push_rec(r);
        id
    }

    /// Returns the wire of an earlier gate equal to `g` (operands
    /// sorted), or appends `g` and records it in the cons index.
    fn emit(&mut self, g: BGate) -> u32 {
        self.intern(canon_bit(g).into())
    }

    /// The cons-index lookup behind [`Lowerer::emit`]. Kept out of line:
    /// inlined, it bloats every folding rule that calls it, and the
    /// lowering runs about 30% slower.
    #[inline(never)]
    fn intern(&mut self, key: BRec) -> u32 {
        match self.cons.find(&self.gates, key) {
            Ok(w) => w,
            Err(miss) => {
                let w = self.push_rec(key);
                self.cons.insert(miss, w);
                w
            }
        }
    }

    /// The wire carrying `l`: a constant wire, its own wire, or the NOT
    /// of it, emitted now (the cons index shares it) unless its operand
    /// is itself a NOT.
    fn wire(&mut self, l: Lit) -> u32 {
        match l {
            L_FALSE => B_FALSE,
            L_TRUE => B_TRUE,
            _ if l & 1 == 0 => l >> 1,
            _ => {
                let w = l >> 1;
                if self.gates.ops[w as usize] == bop::NOT {
                    self.folds += 1;
                    return self.gates.args[w as usize][0];
                }
                self.emit(BGate::Not(w))
            }
        }
    }

    /// `¬a`: a flag flip, no gate.
    #[inline]
    fn not(a: Lit) -> Lit {
        a ^ 1
    }

    fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a <= L_TRUE || b <= L_TRUE {
            self.folds += 1;
            return a ^ b;
        }
        let neg = (a ^ b) & 1;
        let (x, y) = (a >> 1, b >> 1);
        if x == y {
            self.folds += 1;
            return neg;
        }
        lit(self.emit(BGate::Xor(x, y))) | neg
    }

    fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == L_FALSE || b == L_FALSE {
            self.folds += 1;
            return L_FALSE;
        }
        if a == L_TRUE {
            self.folds += 1;
            return b;
        }
        if b == L_TRUE || a == b {
            self.folds += 1;
            return a;
        }
        let (x, y) = (self.wire(a), self.wire(b));
        if x == y {
            self.folds += 1;
            return lit(x);
        }
        lit(self.emit(BGate::And(x, y)))
    }

    /// `¬(a ⊕ b)`, the bit equality.
    fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        let d = self.xor(a, b);
        Lowerer::not(d)
    }

    /// `a ∨ b = ¬(¬a ∧ ¬b)`: one AND, and a NOT only for an operand
    /// that is not already negated.
    fn or(&mut self, a: Lit, b: Lit) -> Lit {
        let n = self.and(Lowerer::not(a), Lowerer::not(b));
        Lowerer::not(n)
    }

    fn mux_bit(&mut self, s: Lit, a: Lit, b: Lit) -> Lit {
        match s {
            L_FALSE => b,
            L_TRUE => a,
            _ => {
                // b ^ (s & (a ^ b)) — one AND per bit
                let d = self.xor(a, b);
                let m = self.and(s, d);
                self.xor(b, m)
            }
        }
    }

    /// OR-reduction: "is any bit set" (word truthiness).
    fn truthy(&mut self, bits: &[Lit]) -> Lit {
        let mut acc = L_FALSE;
        for &b in bits {
            acc = self.or(acc, b);
        }
        acc
    }

    /// `a + b` mod `2^w`, or `a - b = a + ¬b + 1` with `sub`: a
    /// ripple-carry adder with one AND per bit. With `y` the bit of `b`
    /// (of `¬b` under `sub`, a free negation), the carry is the majority
    /// `c' = x ⊕ ((x ⊕ y) ∧ (x ⊕ c))`, or the AND of the other two when
    /// one of `x`, `y`, `c` is 0, and none is computed out of the top
    /// bit.
    fn add_words(&mut self, a: &[Lit], b: &[Lit], sub: bool, w: usize) -> Vec<Lit> {
        let n = if sub { w } else { a.len().max(b.len()) };
        let flip = Lit::from(sub);
        let mut carry = flip;
        let mut out = Vec::with_capacity(w.min(n + 1));
        for k in 0..n {
            let (x, y) = (bit(a, k), bit(b, k) ^ flip);
            let xy = self.xor(x, y);
            out.push(self.xor(xy, carry));
            if k + 1 == w {
                return trimmed(out);
            }
            carry = if x == L_FALSE {
                self.and(y, carry)
            } else if y == L_FALSE {
                self.and(x, carry)
            } else if carry == L_FALSE {
                self.and(x, y)
            } else {
                match xy {
                    L_FALSE => x,
                    L_TRUE => carry,
                    _ => {
                        let xc = self.xor(x, carry);
                        let m = self.and(xy, xc);
                        self.xor(x, m)
                    }
                }
            };
        }
        if n < w {
            out.push(carry);
        }
        trimmed(out)
    }

    /// `a == b`: the AND of the bit equalities. A bit where the two words
    /// hold different constants decides it before any gate is emitted.
    fn eq_words(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let n = a.len().max(b.len());
        if (0..n).any(|k| differ_const(bit(a, k), bit(b, k))) {
            self.folds += 1;
            return L_FALSE;
        }
        let mut acc = L_TRUE;
        for k in 0..n {
            let same = self.xnor(bit(a, k), bit(b, k));
            acc = self.and(acc, same);
        }
        acc
    }

    /// `a < b`: the majority chain from the LSB, one AND per bit,
    /// `lt' = y ⊕ (¬(x ⊕ y) ∧ (y ⊕ lt))` — where `x = y` it keeps `lt`,
    /// elsewhere it is `y`. A constant `x` makes the step `y ∨ lt` or
    /// `y ∧ lt`. The chain starts at the top bit where the words hold
    /// different constants, since that bit alone sets `lt`; no gate
    /// below it is emitted.
    fn lt_words(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let n = a.len().max(b.len());
        let start = (0..n)
            .rev()
            .find(|&k| differ_const(bit(a, k), bit(b, k)))
            .map_or(0, |k| k + 1);
        let mut lt = if start == 0 {
            L_FALSE
        } else {
            bit(b, start - 1)
        };
        for k in start..n {
            let (x, y) = (bit(a, k), bit(b, k));
            lt = match x {
                L_TRUE if lt == L_FALSE => L_FALSE,
                // ¬x ∧ y, through the XOR `eq_words` shares
                _ if lt == L_FALSE => {
                    let d = self.xor(x, y);
                    self.and(d, y)
                }
                L_FALSE => self.or(y, lt),
                L_TRUE => self.and(y, lt),
                _ if x == y => lt,
                _ => match self.xor(y, lt) {
                    L_FALSE => y,
                    t => {
                        let same = self.xnor(x, y);
                        let m = self.and(same, t);
                        self.xor(y, m)
                    }
                },
            };
        }
        lt
    }

    /// `a * b` mod `2^w`: shift-and-add over the set bits of `b`.
    fn mul_words(&mut self, a: &[Lit], b: &[Lit], w: usize) -> Vec<Lit> {
        let mut acc = Vec::new();
        for (i, &bi) in b.iter().enumerate() {
            // partial product: (a << i) & bi, truncated to w bits
            let mut pp = vec![L_FALSE; i];
            for &x in a.iter().take(w - i) {
                pp.push(self.and(x, bi));
            }
            acc = self.add_words(&acc, &trimmed(pp), false, w);
        }
        acc
    }

    /// Expands one word gate into its Boolean block. `word_bits[op]`
    /// holds the bits of word wire `op`, already lowered — word gate
    /// lists are topological, so operands always precede their consumers.
    /// Every vector, this one's result included, holds at most `w` bits
    /// and no trailing constant 0: a 0/1 word is one bit wide, and a
    /// constant 0 none.
    fn lower_gate(&mut self, g: Gate, word_bits: &[Vec<Lit>], w: usize) -> Vec<Lit> {
        let wb = |x: WireId| &word_bits[x as usize];
        match g {
            Gate::Input(idx) => (0..w)
                .map(|k| match checked_bit_id((idx * w + k) as u64) {
                    Ok(bit) => lit(self.push(BGate::Input(bit))),
                    Err(e) => panic!("{e}"),
                })
                .collect(),
            Gate::Const(v) => trimmed(
                (0..w)
                    .map(|k| if (v >> k) & 1 == 1 { L_TRUE } else { L_FALSE })
                    .collect(),
            ),
            Gate::Add(a, b) => self.add_words(wb(a), wb(b), false, w),
            Gate::Sub(a, b) => self.add_words(wb(a), wb(b), true, w),
            Gate::Mul(a, b) => self.mul_words(wb(a), wb(b), w),
            Gate::Eq(a, b) => {
                let e = self.eq_words(wb(a), wb(b));
                bit_word(e)
            }
            Gate::Lt(a, b) => {
                let l = self.lt_words(wb(a), wb(b));
                bit_word(l)
            }
            Gate::And(a, b) => {
                let (ta, tb) = (self.truthy(wb(a)), self.truthy(wb(b)));
                let r = self.and(ta, tb);
                bit_word(r)
            }
            Gate::Or(a, b) => {
                let (ta, tb) = (self.truthy(wb(a)), self.truthy(wb(b)));
                let r = self.or(ta, tb);
                bit_word(r)
            }
            Gate::Xor(a, b) => {
                let (ta, tb) = (self.truthy(wb(a)), self.truthy(wb(b)));
                let r = self.xor(ta, tb);
                bit_word(r)
            }
            Gate::Not(a) => {
                let ta = self.truthy(wb(a));
                bit_word(Lowerer::not(ta))
            }
            Gate::Mux(s, a, b) => {
                let ts = self.truthy(wb(s));
                let (a, b) = (wb(a), wb(b));
                let bits = (0..a.len().max(b.len()))
                    .map(|k| self.mux_bit(ts, bit(a, k), bit(b, k)))
                    .collect();
                trimmed(bits)
            }
            Gate::AssertZero(a) => {
                let ta = self.truthy(wb(a));
                // A truthiness that folded to constant 0 can never fire;
                // anything else (including constant 1 = always-fail)
                // keeps its assert so failure semantics survive.
                if ta != L_FALSE {
                    let w = self.wire(ta);
                    self.push(BGate::AssertFalse(w));
                }
                Vec::new()
            }
        }
    }
}

/// The bit vector of a 0/1 word: `bit` alone, or nothing when it is the
/// constant 0.
fn bit_word(bit: Lit) -> Vec<Lit> {
    if bit == L_FALSE {
        Vec::new()
    } else {
        vec![bit]
    }
}

/// Lowers a word circuit to bits under `opts`. Every word input becomes
/// `width` input bits (LSB first); word values must fit in `width` bits
/// for the semantics to agree with the word evaluator (checked by tests
/// over the operating domain).
///
/// Width contract: choose `width` so that every domain value is
/// `< 2^width − 1`. The all-ones word is the image of the reserved `?`
/// sentinel (`QMARK = u64::MAX`, Sec. 5.3), which truncates consistently:
/// order and equality comparisons against domain values behave as at word
/// level, but a domain value equal to `2^width − 1` would collide with it.
///
/// With `opts.optimize` set (the default) only the live word gates are
/// lowered: the liveness mark ([`crate::opt`]) the word engine compiles
/// from is read in place, so a gate no output or assert reads gets no
/// bits, and the inputs keep theirs. With it off every gate is lowered.
///
/// The pass is one sequential walk over the word gates on the calling
/// thread. When `opts.recorder` is enabled it records a `lower` span,
/// the headline bit-level gate counts and the hash-cons counters
/// (`lower.cons_*`); the produced circuit never depends on whether
/// tracing was on.
pub fn lower_with(c: &Circuit, width: u32, opts: &CompileOptions) -> BitCircuit {
    let rec = &opts.recorder;
    let _span = rec.span("lower");
    let bc = lower_seq(c, width, opts.optimize, rec);
    if rec.is_enabled() {
        rec.add("lower.bit_gates", bc.gate_count());
        rec.add("lower.and_gates", bc.and_count());
        rec.add("lower.xor_gates", bc.xor_count());
        rec.gauge_max("lower.and_depth", bc.and_depth() as u64);
    }
    bc
}

fn lower_seq(c: &Circuit, width: u32, optimize: bool, rec: &qec_obs::Recorder) -> BitCircuit {
    let w = width as usize;
    let n = c.num_wires();
    // The mark becomes the last live consumer of each live word wire (0:
    // none, since a consumer always comes after its operand); a dead
    // wire keeps `DEAD`, and outputs are pinned to `n`, which no
    // consumer's index reaches. `uses` counts the live consumers, up to
    // 255.
    let (mut last_use, _) = mark_live(c, optimize);
    let mut uses = vec![0u8; n];
    for (i, g) in c.gates().enumerate() {
        if last_use[i] == DEAD {
            continue;
        }
        for op in g.operands().into_iter().flatten() {
            last_use[op as usize] = i as u32;
            uses[op as usize] = uses[op as usize].saturating_add(1);
        }
    }
    for &o in c.outputs() {
        last_use[o as usize] = n as u32;
    }

    let mut lw = Lowerer::new();
    // A word wire's bit vector is replaced by the (allocation-free) empty
    // vector after its last consumer, or at once when it has none; a dead
    // wire never gets one. Topological order means a freed slot is never
    // read again.
    let mut word_bits: Vec<Vec<Lit>> = Vec::with_capacity(n);
    for (i, g) in c.gates().enumerate() {
        if last_use[i] == DEAD {
            word_bits.push(Vec::new());
            continue;
        }
        let mut bits = lw.lower_gate(g, &word_bits, w);
        // A word two gates read gets its NOTs now, shared by both; with
        // one reader a pending NOT is emitted there, or never.
        if uses[i] >= 2 {
            for l in &mut bits {
                *l = lit(lw.wire(*l));
            }
        }
        word_bits.push(if last_use[i] == 0 { Vec::new() } else { bits });
        for op in g.operands().into_iter().flatten() {
            if last_use[op as usize] == i as u32 {
                word_bits[op as usize] = Vec::new();
            }
        }
    }
    drop(last_use);
    // Outputs are whole words: each is zero-extended back to `w` bits,
    // and a negated bit gets its NOT.
    let mut outputs = Vec::with_capacity(c.outputs().len() * w);
    for &o in c.outputs() {
        for k in 0..w {
            outputs.push(lw.wire(bit(&word_bits[o as usize], k)));
        }
    }
    // The walk is done: its counters go out and the cons index is freed
    // before the bit circuit is sealed.
    std::mem::take(&mut lw.cons).flush(rec, "lower");
    BitCircuit::from_store(lw.gates, outputs, c.num_inputs() * w, width)
        .expect("lowering a valid word circuit yields a valid bit circuit")
}

/// Counters describing one [`optimize_bits_with`] run.
#[derive(Clone, Debug, Default)]
pub struct BitOptStats {
    /// Logic gates before (XOR + AND + NOT + asserts).
    pub gates_before: u64,
    /// Logic gates after.
    pub gates_after: u64,
    /// AND gates before — the MPC/garbling cost driver.
    pub and_before: u64,
    /// AND gates after.
    pub and_after: u64,
    /// AND depth before — the GMW round count.
    pub and_depth_before: u32,
    /// AND depth after.
    pub and_depth_after: u32,
    /// Structural CSE hits during the rewrite.
    pub cse_hits: u64,
    /// Constant/identity folds during the rewrite.
    pub folds: u64,
    /// Wires removed by mark-and-sweep DCE.
    pub dead: u64,
}

impl BitOptStats {
    /// Fraction of AND gates removed, in `[0, 1]`.
    pub fn and_reduction(&self) -> f64 {
        if self.and_before == 0 {
            0.0
        } else {
            1.0 - self.and_after as f64 / self.and_before as f64
        }
    }
}

/// Offline optimizer for bit circuits under `opts`: XOR/AND/NOT constant
/// folding and identity rewrites, structural CSE, and assertion-safe DCE
/// (asserts are roots; only an assert whose input folds to constant
/// `false` is dropped). Circuits freshly produced by [`lower_with`] are
/// already folded online, so this pass mostly pays off on hand-assembled
/// or deserialized bit circuits — and as the place where
/// AND-count/AND-depth deltas are measured. Runs regardless of
/// `opts.optimize` (that flag gates the *word-level* pass inside the
/// compile driver; calling this function is already the opt-in).
///
/// The pass runs sequentially on the calling thread. When
/// `opts.recorder` is enabled it records an `opt_bits` span and its
/// headline counters.
pub fn optimize_bits_with(bc: &BitCircuit, opts: &CompileOptions) -> (BitCircuit, BitOptStats) {
    let rec = &opts.recorder;
    let _span = rec.span("opt_bits");
    let (opt, st) = optimize_bits_seq(bc);
    if rec.is_enabled() {
        rec.add("opt_bits.gates_before", st.gates_before);
        rec.add("opt_bits.gates_after", st.gates_after);
        rec.add("opt_bits.cse_hits", st.cse_hits);
        rec.add("opt_bits.folds", st.folds);
        rec.add("opt_bits.dead", st.dead);
    }
    (opt, st)
}

/// Rewrite, mark and sweep: every source gate goes through the
/// [`Lowerer`] rules into a fresh store, then the gates no root reaches
/// are dropped.
fn optimize_bits_seq(bc: &BitCircuit) -> (BitCircuit, BitOptStats) {
    let mut lw = Lowerer::new();
    // Source wire → rewritten literal.
    let mut map: Vec<Lit> = Vec::with_capacity(bc.gates.len());
    for g in bc.gates.iter() {
        let l = rewrite_bit_gate(&mut lw, &map, g);
        map.push(l);
    }
    let outputs: Vec<u32> = bc
        .outputs
        .iter()
        .map(|&o| lw.wire(map[o as usize]))
        .collect();

    // Mark: outputs, asserts and inputs are roots; one reverse pass
    // suffices because the gate list is topologically ordered.
    let n = lw.gates.len();
    let mut live = vec![false; n];
    for &o in &outputs {
        live[o as usize] = true;
    }
    for w in (0..n).rev() {
        let g = lw.gates.get(w);
        if !live[w] && !matches!(g, BGate::AssertFalse(_) | BGate::Input(_)) {
            continue;
        }
        live[w] = true;
        match g {
            BGate::Xor(a, b) | BGate::And(a, b) => {
                live[a as usize] = true;
                live[b as usize] = true;
            }
            BGate::Not(a) | BGate::AssertFalse(a) => live[a as usize] = true,
            BGate::Input(_) | BGate::Const(_) => {}
        }
    }

    // Sweep: compact the live gates in id order.
    let mut remap = vec![u32::MAX; n];
    let mut gates = BitGates::with_capacity(n);
    for w in 0..n {
        if live[w] {
            remap[w] = gates.len() as u32;
            gates.push(remap_bgate(lw.gates.get(w), &remap));
        }
    }
    let dead = (n - gates.len()) as u64;
    let outputs = outputs.iter().map(|&o| remap[o as usize]).collect();
    let opt = BitCircuit::from_store(gates, outputs, bc.num_inputs, bc.width)
        .expect("the rewrite keeps inputs in order and operands earlier");
    let stats = BitOptStats {
        gates_before: bc.gate_count(),
        gates_after: opt.gate_count(),
        and_before: bc.and_count(),
        and_after: opt.and_count(),
        and_depth_before: bc.and_depth(),
        and_depth_after: opt.and_depth(),
        cse_hits: lw.cons.hits(),
        folds: lw.folds,
        dead,
    };
    (opt, stats)
}

/// Applies the [`Lowerer`] rules to one source gate against the
/// committed `map`: the single definition of what "rewriting a bit gate"
/// means. A NOT gate is emitted where the source has it, so the rewrite
/// of a lowered circuit replays it gate for gate.
fn rewrite_bit_gate(lw: &mut Lowerer, map: &[Lit], g: BGate) -> Lit {
    let m = |w: u32| map[w as usize];
    match g {
        BGate::Input(i) => lit(lw.push(BGate::Input(i))),
        BGate::Const(v) => Lit::from(v),
        BGate::Xor(a, b) => lw.xor(m(a), m(b)),
        BGate::And(a, b) => lw.and(m(a), m(b)),
        BGate::Not(a) => lit(lw.wire(Lowerer::not(m(a)))),
        BGate::AssertFalse(a) => match lw.wire(m(a)) {
            B_FALSE => L_FALSE,
            a => lit(lw.push(BGate::AssertFalse(a))),
        },
    }
}

/// The cons-table hash of a bit gate: its kind tag and operands.
impl ConsKey for BGate {
    #[inline]
    fn youngest(&self) -> Option<u32> {
        match *self {
            BGate::Input(_) | BGate::Const(_) => None,
            BGate::Xor(a, b) | BGate::And(a, b) => Some(a.max(b)),
            BGate::Not(a) | BGate::AssertFalse(a) => Some(a),
        }
    }

    fn cons_hash(&self) -> u64 {
        let (k, a, b) = match *self {
            BGate::Const(v) => (1, u32::from(v), 0),
            BGate::Input(i) => (2, i, 0),
            BGate::Xor(a, b) => (3, a, b),
            BGate::And(a, b) => (4, a, b),
            BGate::Not(a) => (5, a, 0),
            BGate::AssertFalse(a) => (6, a, 0),
        };
        hash_fields(k, a, b, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;

    fn check_against_words(
        build: impl Fn(&mut Builder) -> Vec<WireId>,
        inputs: &[u64],
        width: u32,
    ) {
        let mut b = Builder::new();
        let outs = build(&mut b);
        let c = b.finish(outs);
        let word_result = c.evaluate(inputs).unwrap();
        let bc = lower_with(&c, width, &CompileOptions::sequential());
        let bit_result = bc.unpack_outputs(&bc.evaluate(&bc.pack_inputs(inputs)).unwrap());
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let masked: Vec<u64> = word_result.iter().map(|&v| v & mask).collect();
        assert_eq!(bit_result, masked, "inputs {inputs:?}");
    }

    #[test]
    fn arithmetic_gates_agree_with_word_semantics() {
        let build = |b: &mut Builder| {
            let x = b.input();
            let y = b.input();
            vec![b.add(x, y), b.sub(x, y), b.mul(x, y)]
        };
        for (x, y) in [(3u64, 5u64), (200, 55), (255, 255), (0, 0), (17, 4)] {
            check_against_words(build, &[x, y], 16);
        }
    }

    #[test]
    fn comparison_and_logic_agree() {
        let build = |b: &mut Builder| {
            let x = b.input();
            let y = b.input();
            let e = b.eq(x, y);
            let l = b.lt(x, y);
            let a = b.and(x, y);
            let o = b.or(x, y);
            let n = b.not(x);
            let xo = b.xor(x, y);
            vec![e, l, a, o, n, xo]
        };
        for (x, y) in [(3u64, 5u64), (5, 3), (7, 7), (0, 9), (0, 0)] {
            check_against_words(build, &[x, y], 12);
        }
    }

    #[test]
    fn mux_agrees() {
        let build = |b: &mut Builder| {
            let s = b.input();
            let x = b.input();
            let y = b.input();
            vec![b.mux(s, x, y)]
        };
        for (s, x, y) in [(0u64, 11u64, 22u64), (1, 11, 22), (9, 11, 22)] {
            check_against_words(build, &[s, x, y], 8);
        }
    }

    #[test]
    fn assertion_lowering_fires() {
        let mut b = Builder::new();
        let x = b.input();
        b.assert_zero(x);
        let c = b.finish(vec![]);
        let bc = lower_with(&c, 8, &CompileOptions::sequential());
        assert!(bc.evaluate(&bc.pack_inputs(&[0])).is_ok());
        assert!(bc.evaluate(&bc.pack_inputs(&[4])).is_err());
    }

    #[test]
    fn and_metrics() {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let s = b.add(x, y);
        let c = b.finish(vec![s]);
        let bc = lower_with(&c, 16, &CompileOptions::sequential());
        // ripple-carry: one AND per carry (the majority), and no carry
        // out of the top bit
        assert_eq!(bc.and_count(), 15);
        assert_eq!(bc.and_depth(), 15, "carry chain depth");
        assert!(bc.gate_count() > bc.and_count());
        // metrics are cached: repeated calls agree
        assert_eq!(bc.and_depth(), bc.and_depth());
        assert_eq!(bc.gate_count(), bc.xor_count() + bc.and_count());
    }

    #[test]
    fn online_folding_preserves_semantics_with_consts() {
        // x + 0 and x * 1 exercise the zero/one fold paths heavily.
        let build = |b: &mut Builder| {
            let x = b.input();
            let zero = b.constant(0);
            let one = b.constant(1);
            let s = b.add(x, zero);
            let p = b.mul(x, one);
            let e = b.eq(s, p);
            vec![s, p, e]
        };
        for x in [0u64, 1, 77, 255] {
            check_against_words(build, &[x], 8);
        }
    }

    #[test]
    fn optimize_bits_is_equivalent_and_no_larger() {
        // Hand-assembled redundancy (circuits from `lower` are already
        // folded online, so build the duplicates directly).
        let gates = vec![
            BGate::Input(0),  // 0
            BGate::Input(1),  // 1
            BGate::And(0, 1), // 2
            BGate::And(1, 0), // 3: commutative duplicate of 2
            BGate::Xor(2, 3), // 4: x ^ x = 0
            BGate::Not(4),    // 5: = 1
            BGate::And(2, 5), // 6: (x & y) & 1 = x & y
        ];
        let bc = BitCircuit::from_raw(gates, vec![6], 2, 1).unwrap();
        let (opt, st) = optimize_bits_with(&bc, &CompileOptions::sequential());
        assert_eq!(st.and_before, 3);
        assert_eq!(st.and_after, 1, "only one real AND remains");
        assert!(st.cse_hits >= 1);
        assert!(st.dead >= 1);
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(
                bc.evaluate(&[x, y]).unwrap(),
                opt.evaluate(&[x, y]).unwrap(),
                "({x}, {y})"
            );
        }
    }

    #[test]
    fn optimize_bits_keeps_failing_asserts() {
        // An assert over constant-true must survive as always-fail.
        let gates = vec![
            BGate::Const(false),
            BGate::Const(true),
            BGate::AssertFalse(1),
        ];
        let bc = BitCircuit::from_raw(gates, vec![], 0, 1).unwrap();
        let (opt, _) = optimize_bits_with(&bc, &CompileOptions::sequential());
        assert!(
            opt.evaluate(&[]).is_err(),
            "always-fail assert must survive"
        );
        // And an assert over constant-false is dropped.
        let gates = vec![
            BGate::Const(false),
            BGate::Const(true),
            BGate::AssertFalse(0),
        ];
        let bc = BitCircuit::from_raw(gates, vec![], 0, 1).unwrap();
        let (opt, _) = optimize_bits_with(&bc, &CompileOptions::sequential());
        assert!(opt.evaluate(&[]).is_ok());
        assert_eq!(opt.gate_count(), 0);
    }

    /// A word circuit exercising every gate kind, structural duplicates
    /// (commutative and literal), constant folds, asserts (passing and
    /// redundant), and a deep dependency chain.
    fn gnarly_word_circuit() -> Circuit {
        let mut b = Builder::without_cse();
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let c1 = b.constant(1);
        let c0 = b.constant(0);
        let mut acc = x;
        for i in 0..6 {
            let s = b.add(acc, y);
            let p = b.mul(s, z);
            let e = b.eq(p, x);
            let l = b.lt(acc, p);
            let m = b.mux(e, s, l);
            let o = b.or(m, c1);
            let xo = b.xor(o, c0);
            let n = b.not(xo);
            let a2 = b.and(n, m);
            // structurally duplicate adds (also commuted) and an
            // always-passing assert over their difference
            let dup = b.add(acc, y);
            let du2 = b.add(y, acc);
            let su = b.sub(dup, du2);
            b.assert_zero(su);
            let pick = if i % 2 == 0 { s } else { m };
            acc = b.add(a2, pick);
        }
        b.finish(vec![acc, x])
    }

    /// A hand-assembled bit DAG with duplicates (plain and commuted),
    /// folds, NOT chains, droppable and surviving asserts, and dead
    /// gates, from a fixed xorshift stream.
    fn gnarly_bit_circuit() -> BitCircuit {
        let mut gates = vec![BGate::Const(false), BGate::Const(true)];
        for i in 0..4 {
            gates.push(BGate::Input(i));
        }
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..400 {
            let n = gates.len() as u32;
            let a = (rng() % n as u64) as u32;
            let b = (rng() % n as u64) as u32;
            gates.push(match rng() % 8 {
                0 | 1 => BGate::Xor(a, b),
                2 | 3 => BGate::And(a, b),
                4 => BGate::Xor(b, a),
                5 => BGate::Not(a),
                6 => BGate::And(a, a),
                _ => BGate::Xor(a, a),
            });
        }
        let n = gates.len() as u32;
        gates.push(BGate::Xor(n - 1, n - 1)); // identically 0
        gates.push(BGate::AssertFalse(n)); // folds away
        gates.push(BGate::AssertFalse(0)); // folds away
        gates.push(BGate::AssertFalse(5)); // survives (input wire)
        BitCircuit::from_raw(gates, vec![n - 1, n - 3, 7], 4, 1).unwrap()
    }

    /// The optimized circuit answers like its source on every input: the
    /// same outputs, and a failing assert exactly when the source fails.
    fn assert_same_semantics(bc: &BitCircuit, opt: &BitCircuit, inputs: &[Vec<bool>]) {
        for x in inputs {
            match (bc.evaluate(x), opt.evaluate(x)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{x:?}"),
                (a, b) => assert!(a.is_err() && b.is_err(), "{x:?}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn bit_optimizer_preserves_a_random_dag() {
        let bc = gnarly_bit_circuit();
        let (opt, st) = optimize_bits_with(&bc, &CompileOptions::sequential());
        assert!(st.cse_hits > 0 && st.folds > 0 && st.dead > 0, "{st:?}");
        assert!(st.and_after <= st.and_before && st.gates_after <= st.gates_before);
        let all: Vec<Vec<bool>> = (0..16u32)
            .map(|m| (0..4).map(|i| m >> i & 1 == 1).collect())
            .collect();
        assert_same_semantics(&bc, &opt, &all);
    }

    #[test]
    fn a_lowered_circuit_is_a_fixpoint_of_the_rewrite() {
        // Lowering applies the same rules online, so the rewrite finds
        // nothing left to fold or share; only the sweep can remove gates.
        let c = gnarly_word_circuit();
        let lowered = lower_with(&c, 10, &CompileOptions::sequential());
        let (opt, st) = optimize_bits_with(&lowered, &CompileOptions::sequential());
        assert_eq!((st.cse_hits, st.folds), (0, 0), "{st:?}");
        let inputs: Vec<Vec<bool>> = [[1u64, 2, 3], [0, 0, 0], [7, 5, 1], [9, 1, 2]]
            .iter()
            .map(|w| lowered.pack_inputs(w))
            .collect();
        assert_same_semantics(&lowered, &opt, &inputs);
    }

    #[test]
    fn sealed_metrics_stay_consistent_with_gate_list() {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let s = b.add(x, y);
        let p = b.mul(s, y);
        let c = b.finish(vec![p]);
        let bc = lower_with(&c, 8, &CompileOptions::sequential());
        // Prime the metrics cache, then recount from the sealed
        // accessors: the gate list is immutable after construction, so
        // the cache can never disagree with it.
        let and_cached = bc.and_count();
        let xor_cached = bc.xor_count();
        let gates_cached = bc.gate_count();
        let and_recount = bc.gates().filter(|g| matches!(g, BGate::And(_, _))).count() as u64;
        let xor_recount = bc.gates().filter(|g| matches!(g, BGate::Xor(_, _))).count() as u64;
        let logic_recount = bc
            .gates()
            .filter(|g| !matches!(g, BGate::Input(_) | BGate::Const(_)))
            .count() as u64;
        assert_eq!(and_cached, and_recount);
        assert_eq!(xor_cached, xor_recount);
        assert_eq!(gates_cached, logic_recount);
        // repeated reads keep returning the cached values
        assert_eq!(bc.and_count(), and_cached);
        assert_eq!(bc.gate_count(), gates_cached);
    }

    #[test]
    fn a_stored_bit_gate_is_nine_bytes() {
        let gates: BitGates = [BGate::Input(0), BGate::Not(0), BGate::And(0, 1)]
            .into_iter()
            .collect();
        let stored = std::mem::size_of_val(gates.ops()) + std::mem::size_of_val(gates.args());
        assert_eq!(stored, 3 * 9);
        // The packed record round-trips every kind.
        for g in [
            BGate::Input(7),
            BGate::Const(true),
            BGate::Const(false),
            BGate::Xor(3, 9),
            BGate::And(4, 2),
            BGate::Not(5),
            BGate::AssertFalse(6),
        ] {
            let (op, args) = g.pack();
            assert_eq!(BGate::unpack(op, args), g);
        }
    }

    /// Lowers the one-gate circuit `build` makes over `arity` inputs at
    /// width `w`, runs every case through the BitEngine in one batch, and
    /// checks each against the word evaluator masked to `w` bits: equal
    /// outputs, or a failed assertion on both sides.
    fn check_template(
        name: &str,
        w: u32,
        arity: usize,
        build: impl Fn(&mut Builder, &[WireId]) -> WireId,
        cases: &[Vec<u64>],
    ) {
        assert!(
            cases.len() <= 1 << 16,
            "{name} w={w}: {} cases",
            cases.len()
        );
        let mut b = Builder::new();
        let xs: Vec<WireId> = (0..arity).map(|_| b.input()).collect();
        let out = build(&mut b, &xs);
        let c = b.finish(vec![out]);
        let bits = lower_with(&c, w, &CompileOptions::sequential());
        let instances: Vec<Vec<bool>> = cases.iter().map(|x| bits.pack_inputs(x)).collect();
        let got = crate::CompiledBitCircuit::compile_gmw(&bits).evaluate_batch(&instances);
        let mask = (1u64 << w) - 1;
        for (x, got) in cases.iter().zip(got) {
            let want = c.evaluate(x).map(|o| o[0] & mask);
            match (want, got) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(bits.unpack_outputs(&got), [want], "{name} w={w} {x:?}")
                }
                (want, got) => assert!(
                    want.is_err() && got.is_err(),
                    "{name} w={w} {x:?}: {want:?} vs {got:?}"
                ),
            }
        }
    }

    type Build = fn(&mut Builder, &[WireId]) -> WireId;

    /// Every binary word gate, as a template under test.
    fn binary_templates() -> [(&'static str, Build); 8] {
        [
            ("add", |b, x| b.add(x[0], x[1])),
            ("sub", |b, x| b.sub(x[0], x[1])),
            ("mul", |b, x| b.mul(x[0], x[1])),
            ("eq", |b, x| b.eq(x[0], x[1])),
            ("lt", |b, x| b.lt(x[0], x[1])),
            ("and", |b, x| b.and(x[0], x[1])),
            ("or", |b, x| b.or(x[0], x[1])),
            ("xor", |b, x| b.xor(x[0], x[1])),
        ]
    }

    #[test]
    fn every_template_matches_word_semantics_exhaustively() {
        let binary = binary_templates();
        for w in 1..=8u32 {
            let values = 0..1u64 << w;
            let singles: Vec<Vec<u64>> = values.clone().map(|x| vec![x]).collect();
            let pairs: Vec<Vec<u64>> = values
                .clone()
                .flat_map(|x| values.clone().map(move |y| vec![x, y]))
                .collect();
            for (name, build) in binary {
                check_template(name, w, 2, build, &pairs);
            }
            check_template("not", w, 1, |b, x| b.not(x[0]), &singles);
            check_template(
                "assert",
                w,
                1,
                |b, x| {
                    b.assert_zero(x[0]);
                    x[0]
                },
                &singles,
            );
            // Every selector; every (a, b) pair up to w=5, and past it an
            // odd-stride walk over the pairs that keeps 2^16 cases.
            let mux_pairs: Vec<&Vec<u64>> = if w <= 5 {
                pairs.iter().collect()
            } else {
                (0..1usize << (16 - w))
                    .map(|j| &pairs[j * 0x9E37 % pairs.len()])
                    .collect()
            };
            let mux: Vec<Vec<u64>> = values
                .clone()
                .flat_map(|s| mux_pairs.iter().map(move |ab| vec![s, ab[0], ab[1]]))
                .collect();
            check_template("mux", w, 3, |b, x| b.mux(x[0], x[1], x[2]), &mux);
        }
    }

    /// A template operand whose high bits the lowering knows are 0,
    /// built from one input. Its values stay below `2^w`, as the width
    /// contract asks.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        /// The input itself: no known bit.
        Full,
        /// `!x`, a 0/1 word: one bit wide.
        Bool,
        /// A constant.
        Const(u64),
        /// `!x + 2`, in {2, 3}: bit 1 the constant 1, bit 0 a wire.
        PlusTwo,
        /// `!x * 6`, in {0, 6}: a constant 0 below two wire bits.
        TimesSix,
    }

    impl Shape {
        /// The shapes whose values fit `w` bits.
        fn all(w: u32) -> Vec<Shape> {
            let top = (1u64 << w) - 1;
            let mut shapes = vec![Shape::Full, Shape::Bool];
            let mut consts = vec![0, 1, 5 & top, top];
            consts.dedup();
            shapes.extend(consts.into_iter().map(Shape::Const));
            if w >= 2 {
                shapes.push(Shape::PlusTwo);
            }
            if w >= 3 {
                shapes.push(Shape::TimesSix);
            }
            shapes
        }

        fn build(self, b: &mut Builder, x: WireId) -> WireId {
            match self {
                Shape::Full => x,
                Shape::Bool => b.not(x),
                Shape::Const(v) => b.constant(v),
                Shape::PlusTwo => {
                    let (t, two) = (b.not(x), b.constant(2));
                    b.add(t, two)
                }
                Shape::TimesSix => {
                    let (t, six) = (b.not(x), b.constant(6));
                    b.mul(t, six)
                }
            }
        }

        /// Input values that reach every value of the shape (and, for
        /// `Full`, every value).
        fn inputs(self, w: u32) -> Vec<u64> {
            match self {
                Shape::Full => (0..1u64 << w).collect(),
                Shape::Const(_) => vec![0],
                _ => vec![0, 1, (1u64 << w) - 1],
            }
        }
    }

    /// All pairs of two input lists, as template cases.
    fn pairs_of(xs: &[u64], ys: &[u64]) -> Vec<Vec<u64>> {
        xs.iter()
            .flat_map(|&x| ys.iter().map(move |&y| vec![x, y]))
            .collect()
    }

    /// The templates read a word's missing high bits as 0: operands
    /// that are 0/1 words, constants and narrow words, in every mix of
    /// widths, give the word evaluator's answers at widths 1–8 (the
    /// full-by-full pairs are the exhaustive test above).
    #[test]
    fn every_template_matches_word_semantics_on_known_zero_high_bits() {
        for w in 1..=8u32 {
            let shapes = Shape::all(w);
            for &sa in &shapes {
                let name = format!("{sa:?}");
                check_template(
                    &format!("not {name}"),
                    w,
                    1,
                    |b, x| {
                        let a = sa.build(b, x[0]);
                        b.not(a)
                    },
                    &sa.inputs(w)
                        .into_iter()
                        .map(|x| vec![x])
                        .collect::<Vec<_>>(),
                );
                for &sb in &shapes {
                    if matches!((sa, sb), (Shape::Full, Shape::Full)) {
                        continue;
                    }
                    let cases = pairs_of(&sa.inputs(w), &sb.inputs(w));
                    for (op, build) in binary_templates() {
                        check_template(
                            &format!("{op} {sa:?} {sb:?}"),
                            w,
                            2,
                            |b, x| {
                                let (a, c) = (sa.build(b, x[0]), sb.build(b, x[1]));
                                build(b, &[a, c])
                            },
                            &cases,
                        );
                    }
                    // The selector is an input: 0, 1 and a multi-bit
                    // truthy value.
                    let mux: Vec<Vec<u64>> = [0, 1, (1u64 << w) - 1]
                        .into_iter()
                        .flat_map(|s| cases.iter().map(move |ab| vec![s, ab[0], ab[1]]))
                        .collect();
                    check_template(
                        &format!("mux {sa:?} {sb:?}"),
                        w,
                        3,
                        |b, x| {
                            let (a, c) = (sa.build(b, x[1]), sb.build(b, x[2]));
                            b.mux(x[0], a, c)
                        },
                        &mux,
                    );
                }
            }
        }
    }

    #[test]
    fn wrapping_matches_width() {
        let build = |b: &mut Builder| {
            let x = b.input();
            let y = b.input();
            vec![b.add(x, y)]
        };
        // 250 + 10 wraps mod 2^8 = 4
        check_against_words(build, &[250, 10], 8);
    }
}
