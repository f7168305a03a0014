//! Bit-level lowering: word circuits → AND/XOR/NOT circuits.
//!
//! The paper treats Boolean and arithmetic circuits interchangeably up to
//! `poly(log u)` factors (Sec. 4.1). This module makes the translation
//! concrete: every live word wire becomes `width` bit wires (the word
//! optimizer's liveness mark, [`crate::opt`], read in place: a gate no
//! output or assert reads is not lowered); word gates expand
//! to textbook Boolean blocks (ripple-carry adders, comparators,
//! multiplexers). The result is exactly what garbled-circuit or GMW-style
//! protocols consume — XOR gates are "free" in both, so [`BitCircuit`]
//! reports AND count and AND depth separately.
//!
//! Both passes here, [`lower_with`] and the bit optimizer
//! [`optimize_bits_with`], are one sequential walk over a topologically
//! ordered gate list into one store (`Lowerer`: a gate vector plus a
//! cons index that files each gate under its youngest operand), so a
//! wire's id is its creation order. This is
//! the only bit lowering; [`BitTape::encode`](crate::BitTape::encode)
//! turns its result into the storage and transfer format.

use std::sync::OnceLock;

use crate::cons::{hash_fields, ConsIndex, ConsKey};
use crate::driver::CompileOptions;
use crate::opt::{mark_live, DEAD};
use crate::validate::ValidateError;
use crate::{Circuit, Gate, WireId};

/// A bit-level gate over GF(2) with NOT.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BGate {
    /// The `i`-th input bit. Each input bit is its own gate, so its
    /// index lives in the bit-wire id space and fits `u32`, which keeps
    /// a bit gate at 12 bytes.
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
pub struct BitCircuit {
    /// Gates in topological order.
    gates: Vec<BGate>,
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
    /// Assembles a bit circuit from a raw gate list: the one
    /// constructor, used by [`lower_with`], [`optimize_bits_with`] and
    /// [`BitTape::decode`](crate::BitTape::decode). Every operand must
    /// name an earlier wire, the `Input` gates must carry `0, 1, 2, …` in
    /// wire order and number `num_inputs`, every output must name a wire
    /// of the list, and the outputs must be whole `width`-bit words;
    /// otherwise the typed [`ValidateError`] comes back.
    pub fn from_raw(
        gates: Vec<BGate>,
        outputs: Vec<u32>,
        num_inputs: usize,
        width: u32,
    ) -> Result<BitCircuit, ValidateError> {
        let mut found = 0usize;
        for (i, g) in gates.iter().enumerate() {
            let ops = match *g {
                BGate::Input(declared) if declared as usize != found => {
                    return Err(ValidateError::InputIndexOutOfOrder {
                        gate: i,
                        declared: declared as usize,
                        expected: found,
                    })
                }
                BGate::Input(_) => {
                    found += 1;
                    [None, None]
                }
                BGate::Const(_) => [None, None],
                BGate::Xor(a, b) | BGate::And(a, b) => [Some(a), Some(b)],
                BGate::Not(a) | BGate::AssertFalse(a) => [Some(a), None],
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

    /// The gates, in topological order.
    pub fn gates(&self) -> &[BGate] {
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
                depth[i] = match *g {
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
            vals[i] = match *g {
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

/// The bit-gate store behind [`lower_with`] and [`optimize_bits_with`]:
/// a gate vector plus the cons index over it, with a fold counter for
/// [`BitOptStats`] (its CSE hits are the index's hits).
///
/// Its construction rules fold online and hash-cons: XOR and AND fold
/// against the constant wires and equal operands, NOT cancels NOT, and
/// structurally repeated gates (operands sorted) return the existing
/// wire. All bit wires carry `0`/`1`, so unlike the word level every
/// identity here is unconditionally sound.
struct Lowerer {
    gates: Vec<BGate>,
    cons: ConsIndex,
    folds: u64,
}

impl Lowerer {
    fn new() -> Lowerer {
        Lowerer {
            gates: vec![BGate::Const(false), BGate::Const(true)],
            cons: ConsIndex::new(),
            folds: 0,
        }
    }

    /// Appends an uncached gate (inputs, asserts).
    fn push(&mut self, g: BGate) -> u32 {
        let id = match checked_bit_id(self.gates.len() as u64) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        };
        self.gates.push(g);
        id
    }

    /// Returns the wire of an earlier gate equal to `g` (operands
    /// sorted), or appends `g` and records it in the cons index.
    fn emit(&mut self, g: BGate) -> u32 {
        self.intern(canon_bit(g))
    }

    /// The cons-index lookup behind [`Lowerer::emit`]. Kept out of line:
    /// inlined, it bloats every folding rule that calls it, and the
    /// lowering runs about 30% slower.
    #[inline(never)]
    fn intern(&mut self, key: BGate) -> u32 {
        match self.cons.find(&self.gates, key) {
            Ok(w) => w,
            Err(miss) => {
                let w = self.push(key);
                self.cons.insert(miss, w);
                w
            }
        }
    }

    fn xor(&mut self, a: u32, b: u32) -> u32 {
        if a == b {
            self.folds += 1;
            return B_FALSE;
        }
        if a == B_FALSE {
            self.folds += 1;
            return b;
        }
        if b == B_FALSE {
            self.folds += 1;
            return a;
        }
        if a == B_TRUE {
            self.folds += 1;
            return self.not(b);
        }
        if b == B_TRUE {
            self.folds += 1;
            return self.not(a);
        }
        self.emit(BGate::Xor(a, b))
    }

    fn and(&mut self, a: u32, b: u32) -> u32 {
        if a == B_FALSE || b == B_FALSE {
            self.folds += 1;
            return B_FALSE;
        }
        if a == B_TRUE {
            self.folds += 1;
            return b;
        }
        if b == B_TRUE {
            self.folds += 1;
            return a;
        }
        if a == b {
            self.folds += 1;
            return a;
        }
        self.emit(BGate::And(a, b))
    }

    fn not(&mut self, a: u32) -> u32 {
        if a == B_FALSE {
            return B_TRUE;
        }
        if a == B_TRUE {
            return B_FALSE;
        }
        if let BGate::Not(x) = self.gates[a as usize] {
            self.folds += 1;
            return x;
        }
        self.emit(BGate::Not(a))
    }

    fn or(&mut self, a: u32, b: u32) -> u32 {
        // a | b = (a ^ b) ^ (a & b)
        let x = self.xor(a, b);
        let n = self.and(a, b);
        self.xor(x, n)
    }

    fn mux_bit(&mut self, s: u32, a: u32, b: u32) -> u32 {
        // b ^ (s & (a ^ b)) — one AND per bit
        let d = self.xor(a, b);
        let m = self.and(s, d);
        self.xor(b, m)
    }

    /// OR-reduction: "is any bit set" (word truthiness).
    fn truthy(&mut self, bits: &[u32]) -> u32 {
        let mut acc = B_FALSE;
        for &b in bits {
            acc = self.or(acc, b);
        }
        acc
    }

    fn add_words(&mut self, a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut carry = B_FALSE;
        let mut out = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b.iter()) {
            let xy = self.xor(x, y);
            let s = self.xor(xy, carry);
            // carry' = (x & y) ^ (carry & (x ^ y))
            let g = self.and(x, y);
            let p = self.and(carry, xy);
            carry = self.xor(g, p);
            out.push(s);
        }
        out
    }

    fn neg_words(&mut self, a: &[u32]) -> Vec<u32> {
        // two's complement: ~a + 1
        let inv: Vec<u32> = a.iter().map(|&x| self.not(x)).collect();
        let mut one_word = vec![B_FALSE; a.len()];
        one_word[0] = B_TRUE;
        self.add_words(&inv, &one_word)
    }

    fn eq_words(&mut self, a: &[u32], b: &[u32]) -> u32 {
        let mut acc = B_TRUE;
        for (&x, &y) in a.iter().zip(b.iter()) {
            let d = self.xor(x, y);
            let same = self.not(d);
            acc = self.and(acc, same);
        }
        acc
    }

    fn lt_words(&mut self, a: &[u32], b: &[u32]) -> u32 {
        // ripple from LSB: lt = (!a & b) ^ (!(a^b) & lt_prev). The two
        // terms are never both 1, so XOR joins them as OR would, with
        // one AND level per bit instead of two.
        let mut lt = B_FALSE;
        for (&x, &y) in a.iter().zip(b.iter()) {
            let nx = self.not(x);
            let here = self.and(nx, y);
            let d = self.xor(x, y);
            let same = self.not(d);
            let keep = self.and(same, lt);
            lt = self.xor(here, keep);
        }
        lt
    }

    fn mul_words(&mut self, a: &[u32], b: &[u32]) -> Vec<u32> {
        let w = a.len();
        let mut acc = vec![B_FALSE; w];
        for (i, &bi) in b.iter().enumerate() {
            // partial product: (a << i) & bi, truncated to w bits
            let mut pp = vec![B_FALSE; w];
            for j in 0..w - i {
                pp[i + j] = self.and(a[j], bi);
            }
            acc = self.add_words(&acc, &pp);
        }
        acc
    }

    /// Expands one word gate into its Boolean block. `word_bits[op]`
    /// holds the bit wires of word wire `op`, already lowered — word gate
    /// lists are topological, so operands always precede their consumers.
    fn lower_gate(&mut self, g: Gate, word_bits: &[Vec<u32>], w: usize) -> Vec<u32> {
        let wb = |x: WireId| &word_bits[x as usize];
        match g {
            Gate::Input(idx) => (0..w)
                .map(|k| match checked_bit_id((idx * w + k) as u64) {
                    Ok(bit) => self.push(BGate::Input(bit)),
                    Err(e) => panic!("{e}"),
                })
                .collect(),
            Gate::Const(v) => (0..w)
                .map(|k| if (v >> k) & 1 == 1 { B_TRUE } else { B_FALSE })
                .collect(),
            Gate::Add(a, b) => self.add_words(wb(a), wb(b)),
            Gate::Sub(a, b) => {
                let nb = self.neg_words(wb(b));
                self.add_words(wb(a), &nb)
            }
            Gate::Mul(a, b) => self.mul_words(wb(a), wb(b)),
            Gate::Eq(a, b) => {
                let e = self.eq_words(wb(a), wb(b));
                bit_word(e, w)
            }
            Gate::Lt(a, b) => {
                let l = self.lt_words(wb(a), wb(b));
                bit_word(l, w)
            }
            Gate::And(a, b) => {
                let (ta, tb) = (self.truthy(wb(a)), self.truthy(wb(b)));
                let r = self.and(ta, tb);
                bit_word(r, w)
            }
            Gate::Or(a, b) => {
                let (ta, tb) = (self.truthy(wb(a)), self.truthy(wb(b)));
                let r = self.or(ta, tb);
                bit_word(r, w)
            }
            Gate::Xor(a, b) => {
                let (ta, tb) = (self.truthy(wb(a)), self.truthy(wb(b)));
                let r = self.xor(ta, tb);
                bit_word(r, w)
            }
            Gate::Not(a) => {
                let ta = self.truthy(wb(a));
                let r = self.not(ta);
                bit_word(r, w)
            }
            Gate::Mux(s, a, b) => {
                let ts = self.truthy(wb(s));
                wb(a)
                    .iter()
                    .zip(wb(b).iter())
                    .map(|(&x, &y)| self.mux_bit(ts, x, y))
                    .collect()
            }
            Gate::AssertZero(a) => {
                let ta = self.truthy(wb(a));
                // A truthiness that folded to constant 0 can never fire;
                // anything else (including constant 1 = always-fail)
                // keeps its assert so failure semantics survive.
                if ta != B_FALSE {
                    self.push(BGate::AssertFalse(ta));
                }
                vec![B_FALSE; w]
            }
        }
    }
}

/// A word wired to a single result bit: `out[0] = bit`, upper bits zero.
fn bit_word(bit: u32, w: usize) -> Vec<u32> {
    let mut out = vec![B_FALSE; w];
    out[0] = bit;
    out
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
    // consumer's index reaches.
    let (mut last_use, _) = mark_live(c, optimize);
    for (i, g) in c.gates().enumerate() {
        if last_use[i] == DEAD {
            continue;
        }
        for op in g.operands().into_iter().flatten() {
            last_use[op as usize] = i as u32;
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
    let mut word_bits: Vec<Vec<u32>> = Vec::with_capacity(n);
    for (i, g) in c.gates().enumerate() {
        if last_use[i] == DEAD {
            word_bits.push(Vec::new());
            continue;
        }
        let bits = lw.lower_gate(g, &word_bits, w);
        word_bits.push(if last_use[i] == 0 { Vec::new() } else { bits });
        for op in g.operands().into_iter().flatten() {
            if last_use[op as usize] == i as u32 {
                word_bits[op as usize] = Vec::new();
            }
        }
    }
    drop(last_use);
    // The walk is done: its counters go out and the cons index is freed
    // before the bit circuit is sealed.
    std::mem::take(&mut lw.cons).flush(rec, "lower");

    let outputs = c
        .outputs()
        .iter()
        .flat_map(|&w_id: &WireId| word_bits[w_id as usize].clone())
        .collect();
    BitCircuit::from_raw(lw.gates, outputs, c.num_inputs() * w, width)
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
    // Source wire → rewritten wire.
    let mut map: Vec<u32> = Vec::with_capacity(bc.gates.len());
    for &g in &bc.gates {
        let w = rewrite_bit_gate(&mut lw, &map, g);
        map.push(w);
    }

    // Mark: outputs, asserts and inputs are roots; one reverse pass
    // suffices because the gate list is topologically ordered.
    let n = lw.gates.len();
    let mut live = vec![false; n];
    for &o in &bc.outputs {
        live[map[o as usize] as usize] = true;
    }
    for w in (0..n).rev() {
        let g = lw.gates[w];
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
    let mut gates = Vec::with_capacity(n);
    for w in 0..n {
        if live[w] {
            remap[w] = gates.len() as u32;
            gates.push(remap_bgate(lw.gates[w], &remap));
        }
    }
    let dead = (n - gates.len()) as u64;
    let outputs = bc
        .outputs
        .iter()
        .map(|&o| remap[map[o as usize] as usize])
        .collect();
    let opt = BitCircuit::from_raw(gates, outputs, bc.num_inputs, bc.width)
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
/// means.
fn rewrite_bit_gate(lw: &mut Lowerer, map: &[u32], g: BGate) -> u32 {
    match g {
        BGate::Input(i) => lw.push(BGate::Input(i)),
        BGate::Const(v) => {
            if v {
                B_TRUE
            } else {
                B_FALSE
            }
        }
        BGate::Xor(a, b) => lw.xor(map[a as usize], map[b as usize]),
        BGate::And(a, b) => lw.and(map[a as usize], map[b as usize]),
        BGate::Not(a) => lw.not(map[a as usize]),
        BGate::AssertFalse(a) => {
            let a = map[a as usize];
            if a == B_FALSE {
                B_FALSE
            } else {
                lw.push(BGate::AssertFalse(a))
            }
        }
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
        // ripple-carry: 2 ANDs per bit (generate + propagate), except
        // the LSB where carry-in = 0 folds the propagate AND away
        assert_eq!(bc.and_count(), 31);
        assert!(bc.and_depth() >= 15, "carry chain depth");
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
        let and_recount = bc
            .gates()
            .iter()
            .filter(|g| matches!(g, BGate::And(_, _)))
            .count() as u64;
        let xor_recount = bc
            .gates()
            .iter()
            .filter(|g| matches!(g, BGate::Xor(_, _)))
            .count() as u64;
        let logic_recount = bc
            .gates()
            .iter()
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
    fn a_bit_gate_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<BGate>(), 12);
    }

    /// Lowers the one-gate circuit `build` makes over `arity` inputs at
    /// width `w`, runs every case through the BitEngine in one batch, and
    /// checks each against the word evaluator masked to `w` bits: equal
    /// outputs, or a failed assertion on both sides.
    fn check_template(
        name: &str,
        w: u32,
        arity: usize,
        build: fn(&mut Builder, &[WireId]) -> WireId,
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

    #[test]
    fn every_template_matches_word_semantics_exhaustively() {
        type Build = fn(&mut Builder, &[WireId]) -> WireId;
        let binary: [(&str, Build); 8] = [
            ("add", |b, x| b.add(x[0], x[1])),
            ("sub", |b, x| b.sub(x[0], x[1])),
            ("mul", |b, x| b.mul(x[0], x[1])),
            ("eq", |b, x| b.eq(x[0], x[1])),
            ("lt", |b, x| b.lt(x[0], x[1])),
            ("and", |b, x| b.and(x[0], x[1])),
            ("or", |b, x| b.or(x[0], x[1])),
            ("xor", |b, x| b.xor(x[0], x[1])),
        ];
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
