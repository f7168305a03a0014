//! Offline circuit optimizer: constant folding, algebraic identity
//! rewrites, structural CSE, and assertion-safe dead-gate elimination.
//!
//! The pass is semantics-preserving in a strict sense:
//!
//! * every surviving wire evaluates to the same value as its source wire
//!   on every input vector;
//! * a circuit fails an assertion after optimization iff it failed one
//!   before, and the *first* failing assert corresponds to the first
//!   failing assert of the source circuit ([`OptStats::assert_origin`]
//!   maps optimized assert gates back to source gate indices, which is
//!   how [`crate::engine::CompiledCircuit`] reports source-level errors);
//! * an assert whose input folds to a non-zero constant is kept as a
//!   canonical always-fail gate (`AssertZero` over that constant), never
//!   silently dropped. Only asserts over a provable constant `0` — which
//!   can never fire — are removed.
//!
//! Word-level subtlety: the logic gates (`And`/`Or`/`Xor`/`Not`) treat
//! their operands as *truthy* (`v != 0`) and produce `0`/`1`, so
//! rewrites like `And(x, x) → x` are only sound when `x` is provably
//! boolean. The pass tracks per-wire boolean-ness (comparison/logic
//! outputs, constants `0`/`1`, muxes of booleans) and falls back to the
//! canonical coercion `Or(x, x)` (= `bool(x)`) when the operand may be a
//! wide word.

use std::collections::HashSet;

use qec_par::Pool;

use crate::cons::ConsTable;
use crate::driver::CompileOptions;
use crate::ir::{canon, gate_hash, Circuit, Gate, WireId};

/// Counters describing one [`optimize_with`] run.
#[derive(Clone, Debug, Default)]
pub struct OptStats {
    /// Logic gates in the source circuit.
    pub gates_before: u64,
    /// Logic gates after optimization.
    pub gates_after: u64,
    /// Total wires (inputs + constants + gates) before.
    pub wires_before: usize,
    /// Total wires after.
    pub wires_after: usize,
    /// Depth before.
    pub depth_before: u32,
    /// Depth after.
    pub depth_after: u32,
    /// Gates whose value folded to a compile-time constant.
    pub folded: u64,
    /// Algebraic identity rewrites (`x + 0`, `x * 1`, `Mux(c, a, b)`, …)
    /// that replaced a gate with an existing wire or a simpler gate.
    pub identities: u64,
    /// Structural CSE hits during the rewrite.
    pub cse_hits: u64,
    /// Wires removed by mark-and-sweep DCE.
    pub dead: u64,
    /// `AssertZero` gates in the source circuit.
    pub asserts_before: u64,
    /// `AssertZero` gates kept (deduplicated; provably-passing dropped).
    pub asserts_after: u64,
    /// Asserts whose input folded to a non-zero constant (kept as
    /// canonical always-fail gates).
    pub always_fail: u64,
    /// `(optimized gate index, source gate index)` for every surviving
    /// assert, sorted by optimized index.
    pub assert_origin: Vec<(u32, u32)>,
    /// Per-phase `(name, logic gates before, logic gates after)` in
    /// execution order — currently `rewrite` (fold/identity/CSE) then
    /// `dce`. Deterministic: the sequential and parallel passes produce
    /// identical vectors, and no timing data lives here (wall times
    /// belong to the recorder, not to stats that parity tests compare).
    pub phase_gates: Vec<(&'static str, u64, u64)>,
}

impl OptStats {
    /// Fraction of logic gates removed, in `[0, 1]`.
    pub fn gate_reduction(&self) -> f64 {
        if self.gates_before == 0 {
            0.0
        } else {
            1.0 - self.gates_after as f64 / self.gates_before as f64
        }
    }

    /// Source gate index of the assert at `opt_gate` in the optimized
    /// circuit, if `opt_gate` is a surviving assert.
    pub fn origin_of(&self, opt_gate: u32) -> Option<u32> {
        self.assert_origin
            .binary_search_by_key(&opt_gate, |&(ng, _)| ng)
            .ok()
            .map(|i| self.assert_origin[i].1)
    }

    fn passthrough(c: &Circuit) -> OptStats {
        OptStats {
            gates_before: c.size(),
            gates_after: c.size(),
            wires_before: c.num_wires(),
            wires_after: c.num_wires(),
            depth_before: c.depth(),
            depth_after: c.depth(),
            ..OptStats::default()
        }
    }
}

/// Gate-list rewriter with value/boolean-ness dataflow and CSE.
struct Rewriter {
    gates: Vec<Gate>,
    /// Is the wire provably `0`/`1`?
    boolish: Vec<bool>,
    /// Index-only hash-cons over `gates`: constants and logic gates.
    cons: ConsTable,
    folded: u64,
    identities: u64,
    cse_hits: u64,
}

impl Rewriter {
    fn new(cap: usize) -> Rewriter {
        Rewriter {
            gates: Vec::with_capacity(cap),
            boolish: Vec::with_capacity(cap),
            cons: ConsTable::new(),
            folded: 0,
            identities: 0,
            cse_hits: 0,
        }
    }

    /// Compile-time value of wire `w`, when provable: a constant's value,
    /// or `0` for an assert's own wire, which carries 0 whenever
    /// evaluation proceeds past it (on failure nothing downstream is
    /// observable).
    fn value(&self, w: WireId) -> Option<u64> {
        match self.gates[w as usize] {
            Gate::Const(v) => Some(v),
            Gate::AssertZero(_) => Some(0),
            _ => None,
        }
    }

    /// The wire already interned for `key`, if any.
    fn lookup(&self, key: Gate) -> Option<WireId> {
        self.cons
            .find(gate_hash(key), |w| self.gates[w as usize] == key)
            .ok()
    }

    /// Returns the wire interned for `key` and whether it already
    /// existed, pushing and recording `key` when it did not.
    fn intern(&mut self, key: Gate) -> (WireId, bool) {
        let h = gate_hash(key);
        let gates = &self.gates;
        self.cons.reserve_one(|w| gate_hash(gates[w as usize]));
        match self.cons.find(h, |w| gates[w as usize] == key) {
            Ok(w) => (w, true),
            Err(at) => {
                let w = self.raw_push(key);
                self.cons.insert(at, h, w);
                (w, false)
            }
        }
    }

    fn raw_push(&mut self, g: Gate) -> WireId {
        let b = match g {
            Gate::Const(v) => v <= 1,
            Gate::Eq(..)
            | Gate::Lt(..)
            | Gate::And(..)
            | Gate::Or(..)
            | Gate::Xor(..)
            | Gate::Not(_)
            | Gate::AssertZero(_) => true,
            Gate::Mux(_, a, b) => self.boolish[a as usize] && self.boolish[b as usize],
            _ => false,
        };
        let id = self.gates.len() as WireId;
        self.gates.push(g);
        self.boolish.push(b);
        id
    }
}

impl Rewrite for Rewriter {
    fn v(&self, w: WireId) -> Option<u64> {
        self.value(w)
    }

    fn is_bool(&self, w: WireId) -> bool {
        self.boolish[w as usize]
    }

    fn peek(&self, w: WireId) -> Gate {
        self.gates[w as usize]
    }

    fn konst(&mut self, v: u64) -> WireId {
        self.intern(Gate::Const(v)).0
    }

    fn emit(&mut self, g: Gate) -> WireId {
        let (w, hit) = self.intern(canon(g));
        if hit {
            self.cse_hits += 1;
        }
        w
    }

    fn count_fold(&mut self) {
        self.folded += 1;
    }

    fn count_identity(&mut self) {
        self.identities += 1;
    }
}

/// The rewrite rules, written once against an abstract state interface.
///
/// Two implementors exist: [`Rewriter`] (the committing state used by the
/// sequential pass and by the per-level commit step of the parallel pass)
/// and [`Spec`] (a read-only speculative view of a `Rewriter` used by the
/// parallel decision phase — it records the single would-be table action
/// instead of mutating). Keeping one copy of the rule bodies is what
/// makes the parallel pass byte-identical by construction: there is no
/// second implementation to drift.
trait Rewrite {
    fn v(&self, w: WireId) -> Option<u64>;
    fn is_bool(&self, w: WireId) -> bool;
    /// The gate defining wire `w` (for the double-`Not` peephole).
    fn peek(&self, w: WireId) -> Gate;
    fn konst(&mut self, v: u64) -> WireId;
    fn emit(&mut self, g: Gate) -> WireId;
    fn count_fold(&mut self);
    fn count_identity(&mut self);

    fn fold(&mut self, v: u64) -> WireId {
        self.count_fold();
        self.konst(v)
    }

    /// Canonical `bool(w)`: `w` itself when provably boolean, otherwise
    /// the gate `Or(w, w)`.
    fn coerce_bool(&mut self, w: WireId) -> WireId {
        if let Some(v) = self.v(w) {
            return self.fold(u64::from(v != 0));
        }
        if self.is_bool(w) {
            self.count_identity();
            w
        } else {
            self.count_identity();
            self.emit(Gate::Or(w, w))
        }
    }

    fn add(&mut self, a: WireId, b: WireId) -> WireId {
        match (self.v(a), self.v(b)) {
            (Some(x), Some(y)) => self.fold(x.wrapping_add(y)),
            (Some(0), _) => {
                self.count_identity();
                b
            }
            (_, Some(0)) => {
                self.count_identity();
                a
            }
            _ => self.emit(Gate::Add(a, b)),
        }
    }

    fn sub(&mut self, a: WireId, b: WireId) -> WireId {
        if a == b {
            return self.fold(0);
        }
        match (self.v(a), self.v(b)) {
            (Some(x), Some(y)) => self.fold(x.wrapping_sub(y)),
            (_, Some(0)) => {
                self.count_identity();
                a
            }
            _ => self.emit(Gate::Sub(a, b)),
        }
    }

    fn mul(&mut self, a: WireId, b: WireId) -> WireId {
        match (self.v(a), self.v(b)) {
            (Some(x), Some(y)) => self.fold(x.wrapping_mul(y)),
            (Some(0), _) | (_, Some(0)) => self.fold(0),
            (Some(1), _) => {
                self.count_identity();
                b
            }
            (_, Some(1)) => {
                self.count_identity();
                a
            }
            _ => self.emit(Gate::Mul(a, b)),
        }
    }

    fn eq(&mut self, a: WireId, b: WireId) -> WireId {
        if a == b {
            return self.fold(1);
        }
        match (self.v(a), self.v(b)) {
            (Some(x), Some(y)) => self.fold(u64::from(x == y)),
            _ => self.emit(Gate::Eq(a, b)),
        }
    }

    fn lt(&mut self, a: WireId, b: WireId) -> WireId {
        if a == b {
            return self.fold(0);
        }
        match (self.v(a), self.v(b)) {
            (Some(x), Some(y)) => self.fold(u64::from(x < y)),
            // Nothing is below 0; nothing is above MAX.
            (_, Some(0)) | (Some(u64::MAX), _) => self.fold(0),
            _ => self.emit(Gate::Lt(a, b)),
        }
    }

    fn and(&mut self, a: WireId, b: WireId) -> WireId {
        match (self.v(a), self.v(b)) {
            (Some(x), Some(y)) => self.fold(u64::from(x != 0) & u64::from(y != 0)),
            (Some(0), _) | (_, Some(0)) => self.fold(0),
            (Some(_), _) => self.coerce_bool(b),
            (_, Some(_)) => self.coerce_bool(a),
            _ if a == b => self.coerce_bool(a),
            _ => self.emit(Gate::And(a, b)),
        }
    }

    fn or(&mut self, a: WireId, b: WireId) -> WireId {
        match (self.v(a), self.v(b)) {
            (Some(x), Some(y)) => self.fold(u64::from(x != 0) | u64::from(y != 0)),
            (Some(0), _) => self.coerce_bool(b),
            (_, Some(0)) => self.coerce_bool(a),
            (Some(_), _) | (_, Some(_)) => self.fold(1),
            _ if a == b => self.coerce_bool(a),
            _ => self.emit(Gate::Or(a, b)),
        }
    }

    fn xor(&mut self, a: WireId, b: WireId) -> WireId {
        if a == b {
            return self.fold(0);
        }
        match (self.v(a), self.v(b)) {
            (Some(x), Some(y)) => self.fold(u64::from(x != 0) ^ u64::from(y != 0)),
            (Some(0), _) => self.coerce_bool(b),
            (_, Some(0)) => self.coerce_bool(a),
            // Xor with a truthy constant is logical negation.
            (Some(_), _) => self.not(b),
            (_, Some(_)) => self.not(a),
            _ => self.emit(Gate::Xor(a, b)),
        }
    }

    fn not(&mut self, a: WireId) -> WireId {
        if let Some(x) = self.v(a) {
            return self.fold(u64::from(x == 0));
        }
        // Double negation is boolean coercion of the inner wire.
        if let Gate::Not(y) = self.peek(a) {
            return self.coerce_bool(y);
        }
        self.emit(Gate::Not(a))
    }

    fn mux(&mut self, s: WireId, a: WireId, b: WireId) -> WireId {
        if let Some(sv) = self.v(s) {
            self.count_identity();
            return if sv != 0 { a } else { b };
        }
        if a == b {
            self.count_identity();
            return a;
        }
        match (self.v(a), self.v(b)) {
            (Some(1), Some(0)) => self.coerce_bool(s),
            (Some(0), Some(1)) => {
                self.count_identity();
                self.not(s)
            }
            _ => self.emit(Gate::Mux(s, a, b)),
        }
    }
}

/// The sequential rewrite + DCE pass (see [`optimize_with`] for the
/// public entry point and the semantics contract).
fn optimize_seq(c: &Circuit) -> (Circuit, OptStats) {
    if !c.is_evaluable() {
        return (c.clone(), OptStats::passthrough(c));
    }
    let src = c.gates();
    let mut rw = Rewriter::new(src.len());
    let mut map: Vec<WireId> = Vec::with_capacity(src.len());
    let mut seen_asserts: HashSet<WireId> = HashSet::new();
    // (pre-DCE new index, source index) per surviving assert.
    let mut assert_origin: Vec<(u32, u32)> = Vec::new();
    let mut asserts_before = 0u64;
    let mut always_fail = 0u64;

    for (i, g) in src.iter().enumerate() {
        let new = match *g {
            Gate::Input(idx) => rw.raw_push(Gate::Input(idx)),
            Gate::Const(v) => rw.konst(v),
            Gate::Add(a, b) => rw.add(map[a as usize], map[b as usize]),
            Gate::Sub(a, b) => rw.sub(map[a as usize], map[b as usize]),
            Gate::Mul(a, b) => rw.mul(map[a as usize], map[b as usize]),
            Gate::Eq(a, b) => rw.eq(map[a as usize], map[b as usize]),
            Gate::Lt(a, b) => rw.lt(map[a as usize], map[b as usize]),
            Gate::And(a, b) => rw.and(map[a as usize], map[b as usize]),
            Gate::Or(a, b) => rw.or(map[a as usize], map[b as usize]),
            Gate::Xor(a, b) => rw.xor(map[a as usize], map[b as usize]),
            Gate::Not(a) => rw.not(map[a as usize]),
            Gate::Mux(s, a, b) => rw.mux(map[s as usize], map[a as usize], map[b as usize]),
            Gate::AssertZero(a) => {
                asserts_before += 1;
                let a = map[a as usize];
                match rw.v(a) {
                    // Provably passes: the assert can never fire; its own
                    // wire value is 0.
                    Some(0) => rw.konst(0),
                    opt_v => {
                        if seen_asserts.insert(a) {
                            if opt_v.is_some() {
                                always_fail += 1;
                            }
                            let w = rw.raw_push(Gate::AssertZero(a));
                            assert_origin.push((w, i as u32));
                            w
                        } else {
                            // Duplicate assert on the same wire: the
                            // earlier (lower-index) one fires first with
                            // the same value, so this one is redundant.
                            rw.konst(0)
                        }
                    }
                }
            }
        };
        map.push(new);
    }

    let out = RewriteOut {
        gates: rw.gates,
        map,
        assert_origin,
        folded: rw.folded,
        identities: rw.identities,
        cse_hits: rw.cse_hits,
        asserts_before,
        always_fail,
    };
    let live = mark_live_seq(c, &out);
    assemble(c, out, &live)
}

/// The rewritten (pre-DCE) gate list plus everything the sweep and the
/// final stats need. Produced by both the sequential rewrite loop and the
/// parallel level pipeline.
struct RewriteOut {
    gates: Vec<Gate>,
    /// Source wire → rewritten wire.
    map: Vec<WireId>,
    /// (pre-DCE new index, source index) per surviving assert, sorted by
    /// new index.
    assert_origin: Vec<(u32, u32)>,
    folded: u64,
    identities: u64,
    cse_hits: u64,
    asserts_before: u64,
    always_fail: u64,
}

/// Sequential liveness mark. Roots: circuit outputs, every surviving
/// assert, and all input gates (arity must be preserved). A single
/// reverse pass suffices because the gate list is topologically ordered.
fn mark_live_seq(c: &Circuit, out: &RewriteOut) -> Vec<bool> {
    let n = out.gates.len();
    let mut live = vec![false; n];
    for &o in c.outputs() {
        live[out.map[o as usize] as usize] = true;
    }
    for (w, g) in out.gates.iter().enumerate() {
        if matches!(g, Gate::AssertZero(_) | Gate::Input(_)) {
            live[w] = true;
        }
    }
    for w in (0..n).rev() {
        if live[w] {
            for op in out.gates[w].operands().iter().flatten() {
                live[*op as usize] = true;
            }
        }
    }
    live
}

/// Sweep (compaction in id order) and final stats assembly, shared by the
/// sequential and parallel passes so the produced `(Circuit, OptStats)`
/// agree byte for byte whenever the rewrite outputs and live sets agree.
fn assemble(c: &Circuit, out: RewriteOut, live: &[bool]) -> (Circuit, OptStats) {
    let n = out.gates.len();
    let mut remap = vec![WireId::MAX; n];
    let mut out_gates: Vec<Gate> = Vec::with_capacity(n);
    for w in 0..n {
        if !live[w] {
            continue;
        }
        remap[w] = out_gates.len() as WireId;
        out_gates.push(remap_gate(out.gates[w], &remap));
    }
    let dead = (n - out_gates.len()) as u64;
    let outputs: Vec<WireId> = c
        .outputs()
        .iter()
        .map(|&o| remap[out.map[o as usize] as usize])
        .collect();
    let assert_origin: Vec<(u32, u32)> = out
        .assert_origin
        .into_iter()
        .map(|(nw, oi)| (remap[nw as usize], oi))
        .collect();
    let asserts_after = assert_origin.len() as u64;

    // Logic-gate count of the rewritten-but-unswept list: the boundary
    // between the rewrite and DCE phases.
    let pre_dce_gates = out
        .gates
        .iter()
        .filter(|g| !matches!(g, Gate::Input(_) | Gate::Const(_)))
        .count() as u64;
    let opt = Circuit::from_raw(out_gates, outputs, c.num_inputs());
    let stats = OptStats {
        gates_before: c.size(),
        gates_after: opt.size(),
        wires_before: c.num_wires(),
        wires_after: opt.num_wires(),
        depth_before: c.depth(),
        depth_after: opt.depth(),
        folded: out.folded,
        identities: out.identities,
        cse_hits: out.cse_hits,
        dead,
        asserts_before: out.asserts_before,
        asserts_after,
        always_fail: out.always_fail,
        assert_origin,
        phase_gates: vec![
            ("rewrite", c.size(), pre_dce_gates),
            ("dce", pre_dce_gates, opt.size()),
        ],
    };
    (opt, stats)
}

/// Rewrites every operand of `g` through `renum`.
fn remap_gate(g: Gate, renum: &[WireId]) -> Gate {
    let r = |w: WireId| renum[w as usize];
    match g {
        Gate::Input(idx) => Gate::Input(idx),
        Gate::Const(v) => Gate::Const(v),
        Gate::Add(a, b) => Gate::Add(r(a), r(b)),
        Gate::Sub(a, b) => Gate::Sub(r(a), r(b)),
        Gate::Mul(a, b) => Gate::Mul(r(a), r(b)),
        Gate::Eq(a, b) => Gate::Eq(r(a), r(b)),
        Gate::Lt(a, b) => Gate::Lt(r(a), r(b)),
        Gate::And(a, b) => Gate::And(r(a), r(b)),
        Gate::Or(a, b) => Gate::Or(r(a), r(b)),
        Gate::Xor(a, b) => Gate::Xor(r(a), r(b)),
        Gate::Not(a) => Gate::Not(r(a)),
        Gate::Mux(s, a, b) => Gate::Mux(r(s), r(a), r(b)),
        Gate::AssertZero(a) => Gate::AssertZero(r(a)),
    }
}

// ---------------------------------------------------------------------
// Parallel pass.
//
// The sequential pass above is the reference; the parallel pass promises
// the *byte-identical* `(Circuit, OptStats)`. It works in level waves
// over the source circuit (a gate's operands sit at strictly smaller
// depths, so by the time a level is processed every operand image is
// committed):
//
//   1. decision phase (parallel): every gate of the level runs the full
//      rule set (`Rewrite` impl'd by `Spec`) against the committed state
//      only, recording the exact counter deltas and the single would-be
//      table action (a rule fires at most one `konst`/`emit`);
//   2. commit phase (sequential, in source order within the level):
//      deltas are applied and pending actions resolve against the live
//      tables — a same-level predecessor may have created the gate, in
//      which case the commit becomes the CSE hit the sequential pass
//      would have counted.
//
// Wire numbering under this schedule differs from the sequential pass
// (levels interleave differently than source order), so every table
// attempt records the *source index* of its gate; since any wire's first
// attempt is the one that creates it sequentially, renumbering created
// wires by minimum attempt index restores the exact sequential
// numbering. Asserts are deferred to a post-pass in source order (their
// dedup winner is the lowest source index, which a level schedule cannot
// know in-flight); the renumbering slots their gates correctly anyway.
// The one construct the schedule cannot reproduce is a gate *consuming*
// an assert's own wire before the post-pass resolves it — detected via a
// sentinel image, and the whole pass falls back to the sequential
// reference (operator circuits never feed assert wires forward).
// ---------------------------------------------------------------------

/// Unresolved assert image in `map` (asserts resolve in the post-pass).
const SENTINEL: WireId = WireId::MAX;
/// Placeholder returned by `Spec` for a not-yet-committed creation.
const SPEC_WIRE: WireId = WireId::MAX - 1;

/// The single table action a gate's rule run performs, if any.
#[derive(Clone, Copy, Debug)]
enum Attempt {
    /// Identity rewrite: the result is an existing wire, no table lookup.
    None,
    /// Decision-time lookup hit this existing wire.
    Hit(WireId),
    /// Missed the const table; commit must `konst(v)`.
    CreateConst(u64),
    /// Missed the CSE table; commit must `emit` (key already canonical).
    CreateGate(Gate),
}

/// One gate's planned rewrite: its result (or [`SPEC_WIRE`]), the pending
/// table action, and the exact counter deltas the sequential pass would
/// record for it.
struct Decision {
    result: WireId,
    attempt: Attempt,
    folded: u64,
    identities: u64,
    cse_hits: u64,
}

enum Planned {
    /// Resolved in the post-pass.
    Assert,
    /// An operand is an unresolved assert wire: take the sequential path.
    Fallback,
    Do(Decision),
}

/// Read-only speculative view of a [`Rewriter`] for the decision phase:
/// same rules, but table misses record the pending action instead of
/// mutating.
struct Spec<'a> {
    rw: &'a Rewriter,
    folded: u64,
    identities: u64,
    cse_hits: u64,
    attempt: Attempt,
}

impl Rewrite for Spec<'_> {
    fn v(&self, w: WireId) -> Option<u64> {
        self.rw.value(w)
    }

    fn is_bool(&self, w: WireId) -> bool {
        self.rw.boolish[w as usize]
    }

    fn peek(&self, w: WireId) -> Gate {
        self.rw.gates[w as usize]
    }

    fn konst(&mut self, v: u64) -> WireId {
        debug_assert!(
            matches!(self.attempt, Attempt::None),
            "a rule performs at most one table action"
        );
        match self.rw.lookup(Gate::Const(v)) {
            Some(w) => {
                self.attempt = Attempt::Hit(w);
                w
            }
            None => {
                self.attempt = Attempt::CreateConst(v);
                SPEC_WIRE
            }
        }
    }

    fn emit(&mut self, g: Gate) -> WireId {
        debug_assert!(
            matches!(self.attempt, Attempt::None),
            "a rule performs at most one table action"
        );
        let key = canon(g);
        match self.rw.lookup(key) {
            Some(w) => {
                self.cse_hits += 1;
                self.attempt = Attempt::Hit(w);
                w
            }
            None => {
                self.attempt = Attempt::CreateGate(key);
                SPEC_WIRE
            }
        }
    }

    fn count_fold(&mut self) {
        self.folded += 1;
    }

    fn count_identity(&mut self) {
        self.identities += 1;
    }
}

/// Runs the rule set for one source gate against committed state only.
fn decide(rw: &Rewriter, map: &[WireId], g: Gate) -> Planned {
    for op in g.operands().iter().flatten() {
        if map[*op as usize] >= SPEC_WIRE {
            return Planned::Fallback;
        }
    }
    let m = |w: WireId| map[w as usize];
    let mut sp = Spec {
        rw,
        folded: 0,
        identities: 0,
        cse_hits: 0,
        attempt: Attempt::None,
    };
    let result = match g {
        Gate::Add(a, b) => sp.add(m(a), m(b)),
        Gate::Sub(a, b) => sp.sub(m(a), m(b)),
        Gate::Mul(a, b) => sp.mul(m(a), m(b)),
        Gate::Eq(a, b) => sp.eq(m(a), m(b)),
        Gate::Lt(a, b) => sp.lt(m(a), m(b)),
        Gate::And(a, b) => sp.and(m(a), m(b)),
        Gate::Or(a, b) => sp.or(m(a), m(b)),
        Gate::Xor(a, b) => sp.xor(m(a), m(b)),
        Gate::Not(a) => sp.not(m(a)),
        Gate::Mux(s, a, b) => sp.mux(m(s), m(a), m(b)),
        Gate::Input(_) | Gate::Const(_) | Gate::AssertZero(_) => {
            unreachable!("handled outside the decision phase")
        }
    };
    Planned::Do(Decision {
        result,
        attempt: sp.attempt,
        folded: sp.folded,
        identities: sp.identities,
        cse_hits: sp.cse_hits,
    })
}

/// Records a table attempt by source gate `i` that resolved to wire `w`:
/// a fresh creation appends its creator, a hit lowers the existing one.
/// `total` is the wire count *after* the attempt.
fn note_attempt(creator: &mut Vec<u32>, total: usize, w: WireId, i: u32) {
    if creator.len() < total {
        debug_assert_eq!(creator.len() + 1, total);
        debug_assert_eq!(w as usize, total - 1);
        creator.push(i);
    } else if i < creator[w as usize] {
        creator[w as usize] = i;
    }
}

/// The level-parallel rewrite. `None` means an assert wire was consumed
/// before its post-pass resolution — take the sequential path instead.
fn rewrite_par(c: &Circuit, pool: &Pool) -> Option<RewriteOut> {
    let src = c.gates();
    let depths = c.wire_depths();
    let mut levels: Vec<Vec<u32>> = vec![Vec::new(); c.depth() as usize + 1];
    for (i, &d) in depths.iter().enumerate() {
        levels[d as usize].push(i as u32);
    }

    let mut rw = Rewriter::new(src.len());
    // Per created wire: lowest source index that attempted it. Distinct
    // across wires (a source gate makes at most one attempt), and the
    // first attempt is the one that creates the wire sequentially.
    let mut creator: Vec<u32> = Vec::with_capacity(src.len());
    let mut map: Vec<WireId> = vec![SENTINEL; src.len()];
    // (source index, image wire) per assert, resolved in the post-pass.
    let mut assert_images: Vec<(u32, WireId)> = Vec::new();

    for (lvl, idxs) in levels.iter().enumerate() {
        if lvl == 0 {
            // Inputs and constants; sequential, they are trivially cheap.
            for &i in idxs {
                let w = match src[i as usize] {
                    Gate::Input(idx) => {
                        let w = rw.raw_push(Gate::Input(idx));
                        creator.push(i);
                        w
                    }
                    Gate::Const(v) => {
                        let w = rw.konst(v);
                        note_attempt(&mut creator, rw.gates.len(), w, i);
                        w
                    }
                    _ => unreachable!("depth-0 gates are inputs and constants"),
                };
                map[i as usize] = w;
            }
            continue;
        }
        let planned = pool.map(idxs.len(), |k| {
            let i = idxs[k] as usize;
            match src[i] {
                Gate::AssertZero(_) => Planned::Assert,
                g => decide(&rw, &map, g),
            }
        });
        for (k, &i) in idxs.iter().enumerate() {
            match &planned[k] {
                Planned::Fallback => return None,
                Planned::Assert => {
                    let Gate::AssertZero(a) = src[i as usize] else {
                        unreachable!()
                    };
                    let img = map[a as usize];
                    if img >= SPEC_WIRE {
                        // Assert over an assert's own wire.
                        return None;
                    }
                    assert_images.push((i, img));
                    // map[i] stays SENTINEL; any consumer falls back.
                }
                Planned::Do(d) => {
                    rw.folded += d.folded;
                    rw.identities += d.identities;
                    rw.cse_hits += d.cse_hits;
                    let w = match d.attempt {
                        Attempt::None => d.result,
                        Attempt::Hit(w0) => {
                            note_attempt(&mut creator, rw.gates.len(), w0, i);
                            d.result
                        }
                        Attempt::CreateConst(v) => {
                            let w = rw.konst(v);
                            note_attempt(&mut creator, rw.gates.len(), w, i);
                            w
                        }
                        // A same-level predecessor may have committed the
                        // same key, in which case this becomes the CSE
                        // hit the sequential pass would count.
                        Attempt::CreateGate(g) => {
                            let w = rw.emit(g);
                            note_attempt(&mut creator, rw.gates.len(), w, i);
                            w
                        }
                    };
                    map[i as usize] = w;
                }
            }
        }
    }

    // Deferred asserts, in source order: the dedup winner for a given
    // image is the lowest source index, exactly the sequential choice.
    assert_images.sort_unstable_by_key(|&(i, _)| i);
    let mut seen_asserts: HashSet<WireId> = HashSet::new();
    let mut assert_origin: Vec<(u32, u32)> = Vec::new();
    let mut asserts_before = 0u64;
    let mut always_fail = 0u64;
    for &(i, img) in &assert_images {
        asserts_before += 1;
        let w = match rw.v(img) {
            Some(0) => {
                let w = rw.konst(0);
                note_attempt(&mut creator, rw.gates.len(), w, i);
                w
            }
            opt_v => {
                if seen_asserts.insert(img) {
                    if opt_v.is_some() {
                        always_fail += 1;
                    }
                    let w = rw.raw_push(Gate::AssertZero(img));
                    creator.push(i);
                    assert_origin.push((w, i));
                    w
                } else {
                    let w = rw.konst(0);
                    note_attempt(&mut creator, rw.gates.len(), w, i);
                    w
                }
            }
        };
        map[i as usize] = w;
    }

    // Renumber into sequential creation order (= ascending creator), and
    // re-canonicalize: commutative operand order depends on numbering.
    // The cons table, the level lists and the creator keys are freed as
    // soon as they are done with, so their peaks do not stack on the
    // renumbered gate list.
    let Rewriter {
        gates: pre,
        folded,
        identities,
        cse_hits,
        ..
    } = rw;
    drop(levels);
    let n = pre.len();
    debug_assert_eq!(creator.len(), n);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&w| creator[w as usize]);
    drop(creator);
    let mut renum = vec![0u32; n];
    for (new, &old) in order.iter().enumerate() {
        renum[old as usize] = new as u32;
    }
    let gates: Vec<Gate> = order
        .iter()
        .map(|&old| canon(remap_gate(pre[old as usize], &renum)))
        .collect();
    drop((pre, order));
    for m in &mut map {
        *m = renum[*m as usize];
    }
    let mut assert_origin: Vec<(u32, u32)> = assert_origin
        .into_iter()
        .map(|(w, i)| (renum[w as usize], i))
        .collect();
    assert_origin.sort_unstable_by_key(|&(w, _)| w);

    Some(RewriteOut {
        gates,
        map,
        assert_origin,
        folded,
        identities,
        cse_hits,
        asserts_before,
        always_fail,
    })
}

/// Parallel liveness mark: same closure as [`mark_live_seq`], computed in
/// descending level waves (a gate's own flag is settled before its wave;
/// it only stores into strictly lower levels, so waves never race).
fn mark_live_par(c: &Circuit, out: &RewriteOut, pool: &Pool) -> Vec<bool> {
    use std::sync::atomic::{AtomicBool, Ordering};
    let n = out.gates.len();
    let mut depth = vec![0u32; n];
    let mut max_d = 0u32;
    for w in 0..n {
        let d = out.gates[w]
            .operands()
            .iter()
            .flatten()
            .map(|&op| depth[op as usize] + 1)
            .max()
            .unwrap_or(0);
        depth[w] = d;
        max_d = max_d.max(d);
    }
    let mut glevels: Vec<Vec<u32>> = vec![Vec::new(); max_d as usize + 1];
    for (w, &d) in depth.iter().enumerate() {
        glevels[d as usize].push(w as u32);
    }

    let live: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    for &o in c.outputs() {
        live[out.map[o as usize] as usize].store(true, Ordering::Relaxed);
    }
    pool.run_chunks(n, pool.grain_for(n), |r| {
        for w in r {
            if matches!(out.gates[w], Gate::AssertZero(_) | Gate::Input(_)) {
                live[w].store(true, Ordering::Relaxed);
            }
        }
    });
    for lvl in glevels.iter().rev() {
        pool.run_chunks(lvl.len(), pool.grain_for(lvl.len()), |r| {
            for k in r {
                let w = lvl[k] as usize;
                if live[w].load(Ordering::Relaxed) {
                    for op in out.gates[w].operands().iter().flatten() {
                        live[*op as usize].store(true, Ordering::Relaxed);
                    }
                }
            }
        });
    }
    live.into_iter().map(|b| b.into_inner()).collect()
}

/// [`optimize_seq`], scheduled across `pool`'s workers. Produces the
/// byte-identical `(Circuit, OptStats)` — including [`OptStats::assert_origin`]
/// — for every circuit; a single-worker pool (and the rare circuit that
/// feeds an assert's own wire into a later gate) delegates to the
/// sequential pass directly.
fn optimize_pooled(c: &Circuit, pool: &Pool) -> (Circuit, OptStats) {
    if !c.is_evaluable() {
        return (c.clone(), OptStats::passthrough(c));
    }
    if pool.is_sequential() {
        return optimize_seq(c);
    }
    match rewrite_par(c, pool) {
        Some(out) => {
            let live = mark_live_par(c, &out, pool);
            assemble(c, out, &live)
        }
        None => optimize_seq(c),
    }
}

/// Optimizes a circuit under `opts`: constant folding, algebraic
/// identity rewrites, structural CSE, and assertion-safe mark-and-sweep
/// DCE, scheduled across `opts.pool` (byte-identical result — including
/// [`OptStats::assert_origin`] — for every worker count).
///
/// Count-only circuits, and any circuit when `opts.optimize` is off,
/// pass through unchanged. Output order and input arity are always
/// preserved; every declared input wire survives even if unused, so
/// optimized circuits accept the exact same input vectors.
///
/// When `opts.recorder` is enabled the pass records an `optimize` span
/// and its headline counters; the produced [`OptStats`] never depends on
/// whether tracing was on.
pub fn optimize_with(c: &Circuit, opts: &CompileOptions) -> (Circuit, OptStats) {
    if !opts.optimize {
        return (c.clone(), OptStats::passthrough(c));
    }
    let rec = &opts.recorder;
    let _span = rec.span("optimize");
    let (opt, st) = optimize_pooled(c, &opts.pool);
    if rec.is_enabled() {
        rec.add("opt.gates_before", st.gates_before);
        rec.add("opt.gates_after", st.gates_after);
        rec.add("opt.folded", st.folded);
        rec.add("opt.identities", st.identities);
        rec.add("opt.cse_hits", st.cse_hits);
        rec.add("opt.dead", st.dead);
    }
    (opt, st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Builder, EvalError, Mode};

    #[test]
    fn folds_constants_and_identities() {
        // Build without CSE so the source actually contains the
        // redundancy the optimizer is supposed to remove.
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let zero = b.constant(0);
        let one = b.constant(1);
        let a = b.add(x, zero); // x + 0 → x
        let m = b.mul(a, one); // x * 1 → x
        let e = b.eq(m, m); // Eq(x, x) → 1
        let s = b.sub(x, x); // x - x → 0
        let k = b.add(e, s); // 1 + 0 → 1
        let c = b.finish(vec![a, m, k]);
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(opt.size(), 0, "everything folds away");
        assert!(st.folded > 0);
        for inp in [[0u64], [5], [u64::MAX]] {
            assert_eq!(c.evaluate(&inp).unwrap(), opt.evaluate(&inp).unwrap());
        }
        assert_eq!(opt.evaluate(&[9]).unwrap(), vec![9, 9, 1]);
    }

    #[test]
    fn boolean_guard_blocks_unsound_rewrites() {
        // And(x, x) must NOT become x for a non-boolean word.
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let a = b.and(x, x);
        let c = b.finish(vec![a]);
        let (opt, _) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(opt.evaluate(&[5]).unwrap(), vec![1]);
        assert_eq!(opt.evaluate(&[0]).unwrap(), vec![0]);
        // But And(e, e) for boolean e is e itself.
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let y = b.input();
        let e = b.eq(x, y);
        let a = b.and(e, e);
        let c = b.finish(vec![a]);
        let (opt, _) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(opt.size(), 1, "only the Eq survives");
        assert_eq!(opt.evaluate(&[3, 3]).unwrap(), vec![1]);
    }

    #[test]
    fn double_not_coerces() {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let n1 = b.not(x);
        let n2 = b.not(n1); // bool(x), x not provably boolean
        let c = b.finish(vec![n2]);
        let (opt, _) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(opt.evaluate(&[7]).unwrap(), vec![1]);
        assert_eq!(opt.evaluate(&[0]).unwrap(), vec![0]);
        assert!(
            opt.size() <= 1,
            "Not(Not(x)) collapses to one coercion gate"
        );
    }

    #[test]
    fn mux_rewrites() {
        let mut b = Builder::without_cse(Mode::Build);
        let s = b.input();
        let x = b.input();
        let y = b.input();
        let same = b.mux(s, x, x); // → x
        let one = b.constant(1);
        let zero = b.constant(0);
        let csel = b.mux(one, x, y); // → x
        let boolify = b.mux(s, one, zero); // → bool(s)
        let c = b.finish(vec![same, csel, boolify]);
        let (opt, _) = optimize_with(&c, &CompileOptions::sequential());
        for inp in [[0u64, 4, 9], [2, 4, 9]] {
            assert_eq!(c.evaluate(&inp).unwrap(), opt.evaluate(&inp).unwrap());
        }
        assert_eq!(opt.size(), 1, "only the boolean coercion of s remains");
    }

    #[test]
    fn dce_keeps_outputs_and_inputs() {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let y = b.input();
        let _dead = b.mul(x, y); // unused
        let live = b.add(x, y);
        let c = b.finish(vec![live]);
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(opt.size(), 1);
        assert_eq!(opt.num_inputs(), 2);
        assert_eq!(st.dead, 1);
        assert_eq!(opt.evaluate(&[2, 3]).unwrap(), vec![5]);
    }

    #[test]
    fn passing_asserts_on_const_zero_are_dropped() {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let z = b.sub(x, x); // folds to 0
        b.assert_zero(z);
        let out = b.add(x, x);
        let c = b.finish(vec![out]);
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(st.asserts_before, 1);
        assert_eq!(st.asserts_after, 0);
        assert_eq!(opt.evaluate(&[4]).unwrap(), vec![8]);
    }

    #[test]
    fn failing_asserts_never_optimize_away() {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let one = b.constant(1);
        let k = b.mul(one, one); // folds to const 1
        b.assert_zero(k); // always fails with value 1
        let c = b.finish(vec![x]);
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(st.always_fail, 1);
        assert_eq!(st.asserts_after, 1);
        match opt.evaluate(&[0]) {
            Err(EvalError::AssertionFailed { value, .. }) => assert_eq!(value, 1),
            other => panic!("expected assertion failure, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_asserts_dedup_to_the_first() {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let y = b.input();
        let d1 = b.sub(x, y);
        let d2 = b.sub(x, y); // same wire after CSE in the rewriter
        b.assert_zero(d1);
        b.assert_zero(d2);
        let c = b.finish(vec![]);
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(st.asserts_before, 2);
        assert_eq!(st.asserts_after, 1);
        // The surviving assert maps to the FIRST source assert.
        let (ng, orig) = st.assert_origin[0];
        assert!(matches!(opt.gates()[ng as usize], Gate::AssertZero(_)));
        assert!(matches!(c.gates()[orig as usize], Gate::AssertZero(_)));
        let first_src_assert = c
            .gates()
            .iter()
            .position(|g| matches!(g, Gate::AssertZero(_)))
            .unwrap();
        assert_eq!(orig as usize, first_src_assert);
        assert!(opt.evaluate(&[3, 3]).is_ok());
        assert!(matches!(
            opt.evaluate(&[5, 3]),
            Err(EvalError::AssertionFailed { value: 2, .. })
        ));
    }

    #[test]
    fn assert_origin_maps_reported_gate_to_source_gate() {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let y = b.input();
        let _pad = b.mul(x, x); // dead gate before the assert
        let d = b.sub(x, y);
        b.assert_zero(d);
        let e = b.eq(x, y);
        let n = b.not(e);
        b.assert_zero(n);
        let c = b.finish(vec![]);
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        // Fail the first assert: both circuits must report corresponding
        // gates and identical values.
        let (src_err, opt_err) = (
            c.evaluate(&[9, 2]).unwrap_err(),
            opt.evaluate(&[9, 2]).unwrap_err(),
        );
        match (src_err, opt_err) {
            (
                EvalError::AssertionFailed {
                    gate: sg,
                    value: sv,
                },
                EvalError::AssertionFailed {
                    gate: og,
                    value: ov,
                },
            ) => {
                assert_eq!(sv, ov);
                assert_eq!(st.origin_of(og as u32), Some(sg as u32));
            }
            other => panic!("expected assertion failures, got {other:?}"),
        }
    }

    #[test]
    fn count_mode_passes_through() {
        let mut b = Builder::new(Mode::Count);
        let x = b.input();
        let y = b.not(x);
        let c = b.finish(vec![y]);
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        assert!(!opt.is_evaluable());
        assert_eq!(opt.size(), c.size());
        assert_eq!(st.gates_before, st.gates_after);
    }

    /// A circuit exercising every rewrite family at once: folds,
    /// identities, coercions, CSE duplicates, passing / failing /
    /// duplicated asserts, dead gates.
    fn gnarly_circuit() -> Circuit {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let zero = b.constant(0);
        let one = b.constant(1);
        let a1 = b.add(x, zero); // x
        let m1 = b.mul(a1, one); // x
        let d1 = b.sub(x, y);
        let d2 = b.sub(x, y); // CSE dup of d1
        b.assert_zero(d1);
        b.assert_zero(d2); // dedups to the first
        let pz = b.sub(z, z); // folds to 0
        b.assert_zero(pz); // provably passes, dropped
        let k = b.mul(one, one); // const 1
        b.assert_zero(k); // always fails
        let e = b.eq(m1, y);
        let n1 = b.not(e);
        let n2 = b.not(n1); // bool coercion of e
        let mx = b.mux(e, one, zero); // bool(e)
        let w = b.and(n2, mx);
        let o = b.or(w, zero);
        let xr = b.xor(o, one); // logical negation
        let lt = b.lt(z, zero); // folds to 0
        let _dead = b.mul(y, z); // dead
        let deep = {
            let mut acc = x;
            for i in 0..12 {
                let c = b.constant(i % 3);
                acc = b.add(acc, c);
                let t = b.mul(acc, y);
                acc = b.sub(t, acc);
            }
            acc
        };
        b.finish(vec![m1, xr, lt, deep, x])
    }

    fn assert_same_opt(c: &Circuit, threads: usize) {
        let (seq_c, seq_st) = optimize_with(c, &CompileOptions::sequential());
        let (par_c, par_st) = optimize_with(
            c,
            &CompileOptions::sequential().with_pool(Pool::new(threads)),
        );
        assert_eq!(par_c.gates(), seq_c.gates(), "threads={threads}");
        assert_eq!(par_c.outputs(), seq_c.outputs(), "threads={threads}");
        assert_eq!(par_c.num_inputs(), seq_c.num_inputs());
        assert_eq!(
            format!("{par_st:?}"),
            format!("{seq_st:?}"),
            "threads={threads}"
        );
    }

    #[test]
    fn parallel_optimize_is_byte_identical() {
        let c = gnarly_circuit();
        for threads in [1, 2, 3, 8] {
            assert_same_opt(&c, threads);
        }
    }

    #[test]
    fn parallel_optimize_falls_back_on_consumed_assert_wires() {
        // The level schedule cannot resolve an assert wire in-flight;
        // consuming one must fall back to (and so agree with) the
        // sequential pass.
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let y = b.input();
        let d = b.sub(x, y);
        let aw = b.assert_zero(d);
        let o = b.add(aw, x); // consumes the assert's own wire
        let c = b.finish(vec![o]);
        for threads in [2, 4] {
            assert_same_opt(&c, threads);
        }
    }

    #[test]
    fn parallel_optimize_matches_on_wide_flat_circuits() {
        // Many independent same-level gates: exercises same-level CSE
        // commits and the creator renumbering.
        let mut b = Builder::without_cse(Mode::Build);
        let xs: Vec<_> = (0..32).map(|_| b.input()).collect();
        let mut outs = Vec::new();
        for i in 0..32 {
            for j in 0..4 {
                let s = b.add(xs[i], xs[(i + j) % 32]);
                let t = b.add(xs[(i + j) % 32], xs[i]); // canon dup
                let u = b.mul(s, t);
                outs.push(u);
            }
        }
        let c = b.finish(outs);
        for threads in [2, 8] {
            assert_same_opt(&c, threads);
        }
    }

    #[test]
    fn output_order_and_arity_survive() {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let y = b.input();
        let _unused_input_is_fine = b.input();
        let a = b.add(x, y);
        let m = b.mul(x, y);
        let c = b.finish(vec![m, a, x]);
        let (opt, _) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(opt.num_inputs(), 3);
        assert_eq!(opt.evaluate(&[2, 3, 99]).unwrap(), vec![6, 5, 2]);
    }
}
