//! Word-level circuit IR: gates, builder, evaluator.

use crate::cons::{hash_fields, ConsTable, SharedConsTable};
use crate::shared::Pages;
use qec_par::Pool;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

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
}

/// Builder mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Materialize gates (evaluable).
    Build,
    /// Track only size and depth (for large scaling sweeps). Gate and
    /// depth accounting is identical to [`Mode::Build`].
    Count,
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
    /// The circuit was built in [`Mode::Count`] and has no gates.
    CountOnly,
    /// A structural invariant violation found by the validator
    /// ([`crate::validate`]) when compiling with
    /// [`CompileOptions::with_validate`](crate::CompileOptions::with_validate).
    Invalid(crate::validate::ValidateError),
    /// Wire-id allocation ran past the 32-bit id space of the in-memory
    /// IR. Construction used to wrap silently here; the wide (64-bit id)
    /// tape format in [`crate::tape`] is the supported path beyond this
    /// size.
    CircuitTooLarge {
        /// Wires the construction attempted to allocate.
        wires: u64,
        /// The id-space limit that was exceeded.
        limit: u64,
    },
    /// A tape encode/decode/serialization failure surfaced through an
    /// evaluation entry point.
    Tape(crate::tape::TapeError),
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
            EvalError::CountOnly => write!(f, "circuit was built in count-only mode"),
            EvalError::Invalid(e) => write!(f, "circuit failed structural validation: {e}"),
            EvalError::CircuitTooLarge { wires, limit } => write!(
                f,
                "circuit too large: {wires} wires exceed the {limit}-wire id space \
                 (use the wide tape encoding / streaming lowering for larger circuits)"
            ),
            EvalError::Tape(e) => write!(f, "tape error: {e}"),
        }
    }
}

/// The number of wires the 32-bit in-memory IR can address. `u32::MAX`
/// itself is reserved (the parallel cores use it as a sentinel), so the
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

/// Incremental circuit builder.
///
/// In [`Mode::Count`] the builder performs the exact same bookkeeping
/// (including constant deduplication and hash-consing) without
/// materializing gates, so size/depth numbers from the two modes are
/// identical — a property the test suite checks.
///
/// By default the builder hash-conses logic gates: pushing a gate that is
/// structurally identical to an earlier one (after sorting the operands
/// of commutative gates) returns the existing wire instead of a new one.
/// The cons table is index-only: it stores wire ids and compares keys
/// against the builder's own gate records, which both modes keep while
/// building, so consing never breaks Build/Count parity. Constants go
/// through the same table. Use [`Builder::without_cse`]
/// when wire ids must track pushes one-for-one (the netlist reader does).
pub struct Builder {
    inner: BuilderInner,
}

/// The builder's engine. `Seq` is the original single-threaded builder,
/// byte-for-byte: same caches, same wire numbering, same everything —
/// the default construction path never pays for parallelism. `Par` is a
/// handle onto a shared concurrent core ([`ParCore`]) used by
/// [`Builder::with_pool`] and the child builders that
/// [`Builder::fork_join`] spawns.
enum BuilderInner {
    Seq(SeqBuilder),
    Par(ParBuilder),
}

struct SeqBuilder {
    mode: Mode,
    /// Every wire's gate, in both modes: the key arena of `cons`. Count
    /// mode drops it at `finish`.
    gates: Vec<Gate>,
    depths: Vec<u32>,
    num_inputs: usize,
    size: u64,
    cse: bool,
    /// Index-only hash-cons over `gates`: constants always, logic gates
    /// when `cse` is on.
    cons: ConsTable,
    /// Interning lookups answered by an existing wire.
    cons_hits: u64,
    /// Interning lookups that created a wire.
    cons_misses: u64,
}

/// Sorts the operands of commutative gates so `add(a, b)` and
/// `add(b, a)` share one cache entry. `Sub`, `Lt`, and `Mux` are order
/// sensitive and pass through unchanged.
pub(crate) fn canon(gate: Gate) -> Gate {
    match gate {
        Gate::Add(a, b) if a > b => Gate::Add(b, a),
        Gate::Mul(a, b) if a > b => Gate::Mul(b, a),
        Gate::Eq(a, b) if a > b => Gate::Eq(b, a),
        Gate::And(a, b) if a > b => Gate::And(b, a),
        Gate::Or(a, b) if a > b => Gate::Or(b, a),
        Gate::Xor(a, b) if a > b => Gate::Xor(b, a),
        g => g,
    }
}

impl SeqBuilder {
    fn new(mode: Mode) -> SeqBuilder {
        SeqBuilder {
            mode,
            gates: Vec::new(),
            depths: Vec::new(),
            num_inputs: 0,
            size: 0,
            cse: true,
            cons: ConsTable::new(),
            cons_hits: 0,
            cons_misses: 0,
        }
    }

    fn size(&self) -> u64 {
        self.size
    }

    fn depth(&self) -> u32 {
        self.depths.iter().copied().max().unwrap_or(0)
    }

    fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    fn push(&mut self, gate: Gate, depth: u32, is_logic: bool) -> WireId {
        let id = match checked_wire_id(self.depths.len() as u64) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        };
        self.depths.push(depth);
        if is_logic {
            self.size += 1;
        }
        self.gates.push(gate);
        id
    }

    /// Returns the wire of an earlier gate equal to `key`, or pushes
    /// `key` and records it in the cons table.
    fn intern(&mut self, key: Gate, depth: u32, is_logic: bool) -> WireId {
        let h = gate_hash(key);
        let gates = &self.gates;
        self.cons.reserve_one(|w| gate_hash(gates[w as usize]));
        match self.cons.find(h, |w| gates[w as usize] == key) {
            Ok(w) => {
                self.cons_hits += 1;
                w
            }
            Err(at) => {
                self.cons_misses += 1;
                let w = self.push(key, depth, is_logic);
                self.cons.insert(at, h, w);
                w
            }
        }
    }

    /// Pushes a logic gate through the hash-cons.
    fn logic(&mut self, gate: Gate, depth: u32) -> WireId {
        if !self.cse {
            return self.push(gate, depth, true);
        }
        self.intern(canon(gate), depth, true)
    }

    fn depth_of(&self, w: WireId) -> u32 {
        self.depths[w as usize]
    }

    fn binary_depth(&self, a: WireId, b: WireId) -> u32 {
        self.depth_of(a).max(self.depth_of(b)) + 1
    }

    /// Declares the next circuit input.
    pub fn input(&mut self) -> WireId {
        let idx = self.num_inputs;
        self.num_inputs += 1;
        self.push(Gate::Input(idx), 0, false)
    }

    /// A constant wire (deduplicated).
    pub fn constant(&mut self, v: u64) -> WireId {
        self.intern(Gate::Const(v), 0, false)
    }

    /// A constant wire without deduplication (used by the netlist reader,
    /// which must keep wire ids aligned with the source text).
    pub fn raw_const(&mut self, v: u64) -> WireId {
        self.push(Gate::Const(v), 0, false)
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: WireId, b: WireId) -> WireId {
        let d = self.binary_depth(a, b);
        self.logic(Gate::Add(a, b), d)
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: WireId, b: WireId) -> WireId {
        let d = self.binary_depth(a, b);
        self.logic(Gate::Sub(a, b), d)
    }

    /// Wrapping multiplication.
    pub fn mul(&mut self, a: WireId, b: WireId) -> WireId {
        let d = self.binary_depth(a, b);
        self.logic(Gate::Mul(a, b), d)
    }

    /// Equality test.
    pub fn eq(&mut self, a: WireId, b: WireId) -> WireId {
        let d = self.binary_depth(a, b);
        self.logic(Gate::Eq(a, b), d)
    }

    /// Unsigned less-than.
    pub fn lt(&mut self, a: WireId, b: WireId) -> WireId {
        let d = self.binary_depth(a, b);
        self.logic(Gate::Lt(a, b), d)
    }

    /// Logical AND.
    pub fn and(&mut self, a: WireId, b: WireId) -> WireId {
        let d = self.binary_depth(a, b);
        self.logic(Gate::And(a, b), d)
    }

    /// Logical OR.
    pub fn or(&mut self, a: WireId, b: WireId) -> WireId {
        let d = self.binary_depth(a, b);
        self.logic(Gate::Or(a, b), d)
    }

    /// Logical XOR.
    pub fn xor(&mut self, a: WireId, b: WireId) -> WireId {
        let d = self.binary_depth(a, b);
        self.logic(Gate::Xor(a, b), d)
    }

    /// Logical NOT.
    pub fn not(&mut self, a: WireId) -> WireId {
        let d = self.depth_of(a) + 1;
        self.logic(Gate::Not(a), d)
    }

    /// Multiplexer `sel ≠ 0 ? a : b`.
    pub fn mux(&mut self, sel: WireId, a: WireId, b: WireId) -> WireId {
        let d = self
            .depth_of(sel)
            .max(self.depth_of(a))
            .max(self.depth_of(b))
            + 1;
        self.logic(Gate::Mux(sel, a, b), d)
    }

    /// Asserts a wire is zero at evaluation time, returning the assert
    /// gate's wire (which carries value `0` when the assert passes).
    /// Asserts are effects, not expressions: they are never hash-consed.
    pub fn assert_zero(&mut self, a: WireId) -> WireId {
        let d = self.depth_of(a) + 1;
        self.push(Gate::AssertZero(a), d, true)
    }

    /// Finalizes the circuit with the given output wires.
    fn finish(self, outputs: Vec<WireId>) -> Circuit {
        let rec = qec_obs::global();
        if rec.is_enabled() {
            rec.add("build.gates", self.size);
            rec.add("build.wires", self.depths.len() as u64);
            rec.add("build.cons_hits", self.cons_hits);
            rec.add("build.cons_misses", self.cons_misses);
            rec.gauge_max("build.cons_bytes", self.cons.bytes() as u64);
        }
        let depth = self.depth();
        let num_wires = self.depths.len();
        let gates = match self.mode {
            Mode::Build => self.gates,
            Mode::Count => Vec::new(),
        };
        Circuit {
            mode: self.mode,
            gates,
            depths: self.depths,
            outputs,
            num_inputs: self.num_inputs,
            size: self.size,
            depth,
            num_wires,
        }
    }
}

// ---- gate records: the cons-table hash and the parallel arena ----
//
// Gate kind tags for the struct-of-arrays encoding. 1-based, so a
// zeroed (never written) record decodes to no gate.
const K_INPUT: u8 = 1;
const K_CONST: u8 = 2;
const K_ADD: u8 = 3;
const K_SUB: u8 = 4;
const K_MUL: u8 = 5;
const K_EQ: u8 = 6;
const K_LT: u8 = 7;
const K_AND: u8 = 8;
const K_OR: u8 = 9;
const K_XOR: u8 = 10;
const K_NOT: u8 = 11;
const K_MUX: u8 = 12;
const K_ASSERT: u8 = 13;

/// Splits a gate into `(kind, a, b, c)` columns. `Const` packs its value
/// as (low 32, high 32); `Input` stores the input index in `a`.
fn encode_gate(g: Gate) -> (u8, u32, u32, u32) {
    match g {
        Gate::Input(i) => (
            K_INPUT,
            u32::try_from(i).expect("input index fits u32"),
            0,
            0,
        ),
        Gate::Const(v) => (K_CONST, v as u32, (v >> 32) as u32, 0),
        Gate::Add(a, b) => (K_ADD, a, b, 0),
        Gate::Sub(a, b) => (K_SUB, a, b, 0),
        Gate::Mul(a, b) => (K_MUL, a, b, 0),
        Gate::Eq(a, b) => (K_EQ, a, b, 0),
        Gate::Lt(a, b) => (K_LT, a, b, 0),
        Gate::And(a, b) => (K_AND, a, b, 0),
        Gate::Or(a, b) => (K_OR, a, b, 0),
        Gate::Xor(a, b) => (K_XOR, a, b, 0),
        Gate::Not(a) => (K_NOT, a, 0, 0),
        Gate::Mux(s, a, b) => (K_MUX, s, a, b),
        Gate::AssertZero(a) => (K_ASSERT, a, 0, 0),
    }
}

fn decode_gate(kind: u8, a: u32, b: u32, c: u32) -> Gate {
    match kind {
        K_INPUT => Gate::Input(a as usize),
        K_CONST => Gate::Const(a as u64 | (b as u64) << 32),
        K_ADD => Gate::Add(a, b),
        K_SUB => Gate::Sub(a, b),
        K_MUL => Gate::Mul(a, b),
        K_EQ => Gate::Eq(a, b),
        K_LT => Gate::Lt(a, b),
        K_AND => Gate::And(a, b),
        K_OR => Gate::Or(a, b),
        K_XOR => Gate::Xor(a, b),
        K_NOT => Gate::Not(a),
        K_MUX => Gate::Mux(a, b, c),
        K_ASSERT => Gate::AssertZero(a),
        _ => unreachable!("corrupt gate record"),
    }
}

/// The cons-table hash of a gate. The encoding is exact (`Const` values
/// span the a/b fields), so equal gates hash equally in every builder.
pub(crate) fn gate_hash(g: Gate) -> u64 {
    let (kind, a, b, c) = encode_gate(g);
    hash_fields(kind, a, b, c)
}

/// The shared state behind every parallel builder handle: the sharded
/// hash-cons, the struct-of-arrays gate arena, and the atomic counters
/// that replace the sequential builder's scalar bookkeeping.
///
/// Invariant: a gate's depth and SoA record are written *before* its id
/// is published in the cons table, both under the owning shard's lock,
/// so any handle that can name a wire can read its depth and record. The
/// table stores ids only and compares keys against these records, so
/// count mode writes them too.
struct ParCore {
    mode: Mode,
    table: SharedConsTable,
    depths: Pages<AtomicU32>,
    kinds: Pages<AtomicU8>,
    opa: Pages<AtomicU32>,
    opb: Pages<AtomicU32>,
    opc: Pages<AtomicU32>,
    next_id: AtomicU32,
    num_inputs: AtomicUsize,
    size: AtomicU64,
    depth: AtomicU32,
}

impl ParCore {
    fn new(mode: Mode) -> ParCore {
        ParCore {
            mode,
            table: SharedConsTable::new(),
            depths: Pages::new(),
            kinds: Pages::new(),
            opa: Pages::new(),
            opb: Pages::new(),
            opc: Pages::new(),
            next_id: AtomicU32::new(0),
            num_inputs: AtomicUsize::new(0),
            size: AtomicU64::new(0),
            depth: AtomicU32::new(0),
        }
    }

    fn depth_of(&self, w: WireId) -> u32 {
        self.depths.at(w).load(Ordering::Acquire)
    }

    /// Allocates a fresh wire for `g` and records its depth and SoA row.
    /// Callers interning must run this under the shard lock via
    /// `SharedConsTable::intern_with`.
    fn create(&self, g: Gate, depth: u32, is_logic: bool) -> WireId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = checked_wire_id(id as u64) {
            panic!("{e}");
        }
        self.depths.at(id).store(depth, Ordering::Release);
        let (kind, a, b, c) = encode_gate(g);
        self.opa.at(id).store(a, Ordering::Release);
        self.opb.at(id).store(b, Ordering::Release);
        self.opc.at(id).store(c, Ordering::Release);
        self.kinds.at(id).store(kind, Ordering::Release);
        if is_logic {
            self.size.fetch_add(1, Ordering::Relaxed);
        }
        self.depth.fetch_max(depth, Ordering::Relaxed);
        id
    }

    /// Returns the wire of an earlier gate equal to `key` (compared
    /// against the SoA records), or creates one.
    fn intern(&self, key: Gate, depth: u32, is_logic: bool) -> WireId {
        let fields = encode_gate(key);
        let (kind, a, b, c) = fields;
        let (id, _created) = self.table.intern_with(
            hash_fields(kind, a, b, c),
            |w| self.record(w) == fields,
            |w| {
                let (kind, a, b, c) = self.record(w);
                hash_fields(kind, a, b, c)
            },
            || self.create(key, depth, is_logic),
        );
        id
    }

    /// Hash-consed logic gate: canonicalize, then intern-or-create.
    fn logic(&self, g: Gate, depth: u32) -> WireId {
        self.intern(canon(g), depth, true)
    }

    fn record(&self, w: WireId) -> (u8, u32, u32, u32) {
        (
            self.kinds.at(w).load(Ordering::Acquire),
            self.opa.at(w).load(Ordering::Acquire),
            self.opb.at(w).load(Ordering::Acquire),
            self.opc.at(w).load(Ordering::Acquire),
        )
    }

    fn read_gate(&self, w: WireId) -> Gate {
        let (kind, a, b, c) = self.record(w);
        decode_gate(kind, a, b, c)
    }
}

/// One handle onto the shared core. The root handle is the one returned
/// by [`Builder::with_pool`]; [`Builder::fork_join`] hands children
/// non-root handles that share the core but keep their own attempt log.
struct ParBuilder {
    core: Arc<ParCore>,
    pool: Pool,
    root: bool,
    /// Build-mode attempt log: the wire id returned by *every* builder
    /// call on this handle, in program order (creations and cache hits
    /// alike). Child logs are spliced in at the fork point in task order,
    /// so the root log is exactly the id sequence a sequential run of the
    /// same program would observe — replaying it at `finish` renumbers
    /// the schedule-dependent ids back into sequential creation order.
    log: Vec<WireId>,
}

impl ParBuilder {
    fn note(&mut self, w: WireId) -> WireId {
        if self.core.mode == Mode::Build {
            self.log.push(w);
        }
        w
    }

    fn input(&mut self) -> WireId {
        assert!(
            self.root,
            "inputs must be declared before forking: the input order is the circuit's I/O layout"
        );
        let idx = self.core.num_inputs.fetch_add(1, Ordering::Relaxed);
        let w = self.core.create(Gate::Input(idx), 0, false);
        self.note(w)
    }

    fn constant(&mut self, v: u64) -> WireId {
        let w = self.core.intern(Gate::Const(v), 0, false);
        self.note(w)
    }

    fn raw_const(&mut self, v: u64) -> WireId {
        let w = self.core.create(Gate::Const(v), 0, false);
        self.note(w)
    }

    fn binary(&mut self, g: Gate, a: WireId, b: WireId) -> WireId {
        let d = self.core.depth_of(a).max(self.core.depth_of(b)) + 1;
        let w = self.core.logic(g, d);
        self.note(w)
    }

    fn not(&mut self, a: WireId) -> WireId {
        let d = self.core.depth_of(a) + 1;
        let w = self.core.logic(Gate::Not(a), d);
        self.note(w)
    }

    fn mux(&mut self, s: WireId, a: WireId, b: WireId) -> WireId {
        let d = self
            .core
            .depth_of(s)
            .max(self.core.depth_of(a))
            .max(self.core.depth_of(b))
            + 1;
        let w = self.core.logic(Gate::Mux(s, a, b), d);
        self.note(w)
    }

    fn assert_zero(&mut self, a: WireId) -> WireId {
        let d = self.core.depth_of(a) + 1;
        let w = self.core.create(Gate::AssertZero(a), d, true);
        self.note(w)
    }

    /// Finalizes a parallel build. Count mode reads the atomic totals;
    /// build mode replays the root attempt log, numbering each wire at
    /// its first occurrence — which is precisely the sequential builder's
    /// creation order for the same program — and rebuilds the dense gate
    /// list through [`Circuit::from_raw`].
    fn finish(self, outputs: Vec<WireId>) -> Circuit {
        assert!(self.root, "finish must be called on the root builder");
        let ParBuilder { core, log, .. } = self;
        let rec = qec_obs::global();
        if rec.is_enabled() {
            rec.add("build.gates", core.size.load(Ordering::Relaxed));
            rec.add("build.wires", core.next_id.load(Ordering::Relaxed) as u64);
            let (hits, misses) = core.table.hit_stats();
            rec.add("build.cons_hits", hits);
            rec.add("build.cons_misses", misses);
            rec.gauge_max("build.cons_bytes", core.table.bytes() as u64);
        }
        let num_inputs = core.num_inputs.load(Ordering::Relaxed);
        if core.mode == Mode::Count {
            return Circuit {
                mode: Mode::Count,
                gates: Vec::new(),
                depths: Vec::new(),
                outputs,
                num_inputs,
                size: core.size.load(Ordering::Relaxed),
                depth: core.depth.load(Ordering::Relaxed),
                num_wires: core.next_id.load(Ordering::Relaxed) as usize,
            };
        }
        let replay_start = rec.is_enabled().then(std::time::Instant::now);
        const UNSET: u32 = u32::MAX;
        let total = core.next_id.load(Ordering::Relaxed) as usize;
        let mut remap = vec![UNSET; total];
        let mut gates: Vec<Gate> = Vec::with_capacity(total);
        let map = |remap: &[u32], w: WireId| {
            let m = remap[w as usize];
            debug_assert_ne!(m, UNSET, "operand must be logged before use");
            m
        };
        for &w in &log {
            if remap[w as usize] != UNSET {
                continue;
            }
            let g = match core.read_gate(w) {
                g @ (Gate::Input(_) | Gate::Const(_)) => g,
                Gate::Add(a, b) => Gate::Add(map(&remap, a), map(&remap, b)),
                Gate::Sub(a, b) => Gate::Sub(map(&remap, a), map(&remap, b)),
                Gate::Mul(a, b) => Gate::Mul(map(&remap, a), map(&remap, b)),
                Gate::Eq(a, b) => Gate::Eq(map(&remap, a), map(&remap, b)),
                Gate::Lt(a, b) => Gate::Lt(map(&remap, a), map(&remap, b)),
                Gate::And(a, b) => Gate::And(map(&remap, a), map(&remap, b)),
                Gate::Or(a, b) => Gate::Or(map(&remap, a), map(&remap, b)),
                Gate::Xor(a, b) => Gate::Xor(map(&remap, a), map(&remap, b)),
                Gate::Not(a) => Gate::Not(map(&remap, a)),
                Gate::Mux(s, a, b) => Gate::Mux(map(&remap, s), map(&remap, a), map(&remap, b)),
                Gate::AssertZero(a) => Gate::AssertZero(map(&remap, a)),
            };
            remap[w as usize] = gates.len() as u32;
            // Re-canonicalize: commutative operands were sorted under the
            // schedule-dependent global numbering; the sequential builder
            // sorts them under the replayed numbering.
            gates.push(canon(g));
        }
        let outputs = outputs.iter().map(|&w| map(&remap, w)).collect();
        if let Some(t0) = replay_start {
            rec.record_span("build.replay", t0, t0.elapsed().as_nanos() as u64);
        }
        // Free the arena, the cons table and the log before the depth
        // pass allocates, so their peaks do not stack.
        drop((core, log, remap));
        Circuit::from_raw(gates, outputs, num_inputs)
    }
}

impl Builder {
    /// Creates an empty builder with hash-consing enabled.
    pub fn new(mode: Mode) -> Builder {
        Builder {
            inner: BuilderInner::Seq(SeqBuilder::new(mode)),
        }
    }

    /// Creates a builder that never hash-conses: every push allocates a
    /// fresh wire, keeping wire ids aligned with the push sequence. The
    /// netlist reader needs this so ids match the source text.
    pub fn without_cse(mode: Mode) -> Builder {
        let mut s = SeqBuilder::new(mode);
        s.cse = false;
        Builder {
            inner: BuilderInner::Seq(s),
        }
    }

    /// Creates a builder whose [`Builder::fork_join`] regions run on
    /// `pool`: gates are emitted into a sharded concurrent hash-cons with
    /// struct-of-arrays storage, and `finish` replays the construction
    /// log so the resulting circuit is byte-identical to a sequential
    /// build of the same program (same wire numbering, same gate list,
    /// same size/depth accounting) for any worker count.
    pub fn with_pool(mode: Mode, pool: Pool) -> Builder {
        Builder {
            inner: BuilderInner::Par(ParBuilder {
                core: Arc::new(ParCore::new(mode)),
                pool,
                root: true,
                log: Vec::new(),
            }),
        }
    }

    /// Current gate count (inputs and constants excluded: they carry no
    /// logic; this matches how circuit size is counted in Sec. 4.1, where
    /// input gates exist but the interesting quantity is the work).
    pub fn size(&self) -> u64 {
        match &self.inner {
            BuilderInner::Seq(s) => s.size(),
            BuilderInner::Par(p) => p.core.size.load(Ordering::Relaxed),
        }
    }

    /// Current depth (longest input→wire path, counting logic gates).
    pub fn depth(&self) -> u32 {
        match &self.inner {
            BuilderInner::Seq(s) => s.depth(),
            BuilderInner::Par(p) => p.core.depth.load(Ordering::Relaxed),
        }
    }

    /// Number of inputs declared so far.
    pub fn num_inputs(&self) -> usize {
        match &self.inner {
            BuilderInner::Seq(s) => s.num_inputs(),
            BuilderInner::Par(p) => p.core.num_inputs.load(Ordering::Relaxed),
        }
    }

    /// Declares the next circuit input.
    ///
    /// # Panics
    /// Panics on a forked child handle: inputs fix the circuit's I/O
    /// layout and must all be declared before the first `fork_join`.
    pub fn input(&mut self) -> WireId {
        match &mut self.inner {
            BuilderInner::Seq(s) => s.input(),
            BuilderInner::Par(p) => p.input(),
        }
    }

    /// A constant wire (deduplicated).
    pub fn constant(&mut self, v: u64) -> WireId {
        match &mut self.inner {
            BuilderInner::Seq(s) => s.constant(v),
            BuilderInner::Par(p) => p.constant(v),
        }
    }

    /// A constant wire without deduplication (used by the netlist reader,
    /// which must keep wire ids aligned with the source text).
    pub fn raw_const(&mut self, v: u64) -> WireId {
        match &mut self.inner {
            BuilderInner::Seq(s) => s.raw_const(v),
            BuilderInner::Par(p) => p.raw_const(v),
        }
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: WireId, b: WireId) -> WireId {
        match &mut self.inner {
            BuilderInner::Seq(s) => s.add(a, b),
            BuilderInner::Par(p) => p.binary(Gate::Add(a, b), a, b),
        }
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: WireId, b: WireId) -> WireId {
        match &mut self.inner {
            BuilderInner::Seq(s) => s.sub(a, b),
            BuilderInner::Par(p) => p.binary(Gate::Sub(a, b), a, b),
        }
    }

    /// Wrapping multiplication.
    pub fn mul(&mut self, a: WireId, b: WireId) -> WireId {
        match &mut self.inner {
            BuilderInner::Seq(s) => s.mul(a, b),
            BuilderInner::Par(p) => p.binary(Gate::Mul(a, b), a, b),
        }
    }

    /// Equality test.
    pub fn eq(&mut self, a: WireId, b: WireId) -> WireId {
        match &mut self.inner {
            BuilderInner::Seq(s) => s.eq(a, b),
            BuilderInner::Par(p) => p.binary(Gate::Eq(a, b), a, b),
        }
    }

    /// Unsigned less-than.
    pub fn lt(&mut self, a: WireId, b: WireId) -> WireId {
        match &mut self.inner {
            BuilderInner::Seq(s) => s.lt(a, b),
            BuilderInner::Par(p) => p.binary(Gate::Lt(a, b), a, b),
        }
    }

    /// Logical AND.
    pub fn and(&mut self, a: WireId, b: WireId) -> WireId {
        match &mut self.inner {
            BuilderInner::Seq(s) => s.and(a, b),
            BuilderInner::Par(p) => p.binary(Gate::And(a, b), a, b),
        }
    }

    /// Logical OR.
    pub fn or(&mut self, a: WireId, b: WireId) -> WireId {
        match &mut self.inner {
            BuilderInner::Seq(s) => s.or(a, b),
            BuilderInner::Par(p) => p.binary(Gate::Or(a, b), a, b),
        }
    }

    /// Logical XOR.
    pub fn xor(&mut self, a: WireId, b: WireId) -> WireId {
        match &mut self.inner {
            BuilderInner::Seq(s) => s.xor(a, b),
            BuilderInner::Par(p) => p.binary(Gate::Xor(a, b), a, b),
        }
    }

    /// Logical NOT.
    pub fn not(&mut self, a: WireId) -> WireId {
        match &mut self.inner {
            BuilderInner::Seq(s) => s.not(a),
            BuilderInner::Par(p) => p.not(a),
        }
    }

    /// Multiplexer `sel ≠ 0 ? a : b`.
    pub fn mux(&mut self, sel: WireId, a: WireId, b: WireId) -> WireId {
        match &mut self.inner {
            BuilderInner::Seq(s) => s.mux(sel, a, b),
            BuilderInner::Par(p) => p.mux(sel, a, b),
        }
    }

    /// Asserts a wire is zero at evaluation time, returning the assert
    /// gate's wire (which carries value `0` when the assert passes).
    /// Asserts are effects, not expressions: they are never hash-consed.
    pub fn assert_zero(&mut self, a: WireId) -> WireId {
        match &mut self.inner {
            BuilderInner::Seq(s) => s.assert_zero(a),
            BuilderInner::Par(p) => p.assert_zero(a),
        }
    }

    /// Runs `f(i, builder)` for `i in 0..n` and returns the results in
    /// index order. On a sequential builder (or a forked child, or a
    /// one-thread pool) this is a plain loop over `self` — the gate
    /// emission order is exactly the loop's. On a parallel root builder
    /// the tasks run on the pool, each against its own child handle onto
    /// the shared hash-cons; the children's construction logs are spliced
    /// back in task order, so `finish` produces the same circuit the
    /// plain loop would have.
    ///
    /// Tasks must be independent: a task must not use wires returned by a
    /// sibling of the same `fork_join` (wires from before the fork, and
    /// results of earlier fork_joins, are fine). Forks from child handles
    /// run inline — parallelism is one level deep.
    pub fn fork_join<R, F>(&mut self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut Builder) -> R + Sync,
    {
        match &mut self.inner {
            BuilderInner::Par(p) if p.root && p.pool.threads() > 1 && n > 1 => {
                let rec = qec_obs::global();
                if rec.is_enabled() {
                    rec.add("build.fork_joins", 1);
                    rec.add("build.fork_tasks", n as u64);
                }
                let core = &p.core;
                let pool = p.pool;
                let results = pool.map(n, |i| {
                    let mut child = Builder {
                        inner: BuilderInner::Par(ParBuilder {
                            core: Arc::clone(core),
                            pool,
                            root: false,
                            log: Vec::new(),
                        }),
                    };
                    let r = f(i, &mut child);
                    let log = match child.inner {
                        BuilderInner::Par(pb) => pb.log,
                        BuilderInner::Seq(_) => unreachable!(),
                    };
                    (r, log)
                });
                let mut out = Vec::with_capacity(n);
                for (r, log) in results {
                    p.log.extend_from_slice(&log);
                    out.push(r);
                }
                out
            }
            _ => (0..n).map(|i| f(i, self)).collect(),
        }
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
            acc = self.or(lt, tail);
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

    /// Finalizes the circuit with the given output wires.
    pub fn finish(self, outputs: Vec<WireId>) -> Circuit {
        match self.inner {
            BuilderInner::Seq(s) => s.finish(outputs),
            BuilderInner::Par(p) => p.finish(outputs),
        }
    }
}

/// A finalized circuit.
#[derive(Clone)]
pub struct Circuit {
    mode: Mode,
    gates: Vec<Gate>,
    depths: Vec<u32>,
    outputs: Vec<WireId>,
    num_inputs: usize,
    size: u64,
    depth: u32,
    /// Total wires. Equal to `depths.len()` for materialized circuits;
    /// kept as an explicit field so huge count-mode circuits built by the
    /// parallel core don't have to materialize a per-wire depth vector.
    num_wires: usize,
}

impl Circuit {
    /// Rebuilds a materialized circuit from a raw gate list, recomputing
    /// depths and size. Used by the offline optimizer, which constructs
    /// gate lists directly. The list must be topologically ordered.
    pub(crate) fn from_raw(gates: Vec<Gate>, outputs: Vec<WireId>, num_inputs: usize) -> Circuit {
        let mut depths = Vec::with_capacity(gates.len());
        let mut size = 0u64;
        for g in &gates {
            let is_logic = !matches!(g, Gate::Input(_) | Gate::Const(_));
            if is_logic {
                size += 1;
            }
            let d = g
                .operands()
                .iter()
                .flatten()
                .map(|&w| depths[w as usize])
                .max()
                .map_or(0, |m: u32| m + 1);
            depths.push(d);
        }
        let depth = depths.iter().copied().max().unwrap_or(0);
        let num_wires = depths.len();
        Circuit {
            mode: Mode::Build,
            gates,
            depths,
            outputs,
            num_inputs,
            size,
            depth,
            num_wires,
        }
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
        self.num_wires
    }

    /// The gates (empty in count-only mode).
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Per-wire depths (used by the Brent scheduler).
    pub fn wire_depths(&self) -> &[u32] {
        &self.depths
    }

    /// Was this circuit materialized?
    pub fn is_evaluable(&self) -> bool {
        self.mode == Mode::Build
    }

    /// Evaluates the circuit on `inputs`, returning output values.
    ///
    /// The evaluation order is the construction order (topological by
    /// construction); assertion gates abort with [`EvalError`].
    pub fn evaluate(&self, inputs: &[u64]) -> Result<Vec<u64>, EvalError> {
        if self.mode == Mode::Count {
            return Err(EvalError::CountOnly);
        }
        if inputs.len() != self.num_inputs {
            return Err(EvalError::InputArity {
                expected: self.num_inputs,
                got: inputs.len(),
            });
        }
        let mut values = vec![0u64; self.gates.len()];
        let as_bool = |v: u64| -> u64 { u64::from(v != 0) };
        for (i, g) in self.gates.iter().enumerate() {
            values[i] = match *g {
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
        self.gates[i].operands()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_gates_evaluate() {
        let mut b = Builder::new(Mode::Build);
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
        let mut b = Builder::new(Mode::Build);
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
        let mut b = Builder::new(Mode::Build);
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
        let mut b = Builder::new(Mode::Build);
        let a: Vec<WireId> = (0..2).map(|_| b.input()).collect();
        let c: Vec<WireId> = (0..2).map(|_| b.input()).collect();
        let lt = b.lex_lt(&a, &c);
        let circ = b.finish(vec![lt]);
        assert_eq!(circ.evaluate(&[1, 9, 2, 0]).unwrap(), vec![1]); // (1,9) < (2,0)
        assert_eq!(circ.evaluate(&[2, 0, 1, 9]).unwrap(), vec![0]);
        assert_eq!(circ.evaluate(&[1, 2, 1, 3]).unwrap(), vec![1]);
        assert_eq!(circ.evaluate(&[1, 3, 1, 3]).unwrap(), vec![0]);
    }

    #[test]
    fn assertion_gates_fire() {
        let mut b = Builder::new(Mode::Build);
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
        let mut b = Builder::new(Mode::Build);
        let c1 = b.constant(42);
        let c2 = b.constant(42);
        assert_eq!(c1, c2);
        assert_eq!(b.size(), 0); // constants are not logic
        let x = b.input();
        let _ = b.add(x, c1);
        assert_eq!(b.size(), 1);
        assert_eq!(b.depth(), 1);
    }

    #[test]
    fn count_mode_matches_build_mode() {
        fn build(mode: Mode) -> (u64, u32) {
            let mut b = Builder::new(mode);
            let xs: Vec<WireId> = (0..8).map(|_| b.input()).collect();
            let mut acc = b.constant(0);
            for &x in &xs {
                acc = b.add(acc, x);
            }
            let k = b.constant(100);
            let flag = b.lt(acc, k);
            let c = b.finish(vec![flag]);
            (c.size(), c.depth())
        }
        assert_eq!(build(Mode::Build), build(Mode::Count));
    }

    #[test]
    fn count_mode_rejects_evaluation() {
        let mut b = Builder::new(Mode::Count);
        let x = b.input();
        let y = b.not(x);
        let c = b.finish(vec![y]);
        assert_eq!(c.evaluate(&[1]), Err(EvalError::CountOnly));
        assert_eq!(c.size(), 1);
    }

    #[test]
    fn input_arity_checked() {
        let mut b = Builder::new(Mode::Build);
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
        let mut b = Builder::new(Mode::Build);
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
        let mut b = Builder::new(Mode::Build);
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
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let y = b.input();
        let a1 = b.add(x, y);
        let a2 = b.add(x, y);
        assert_ne!(a1, a2);
        assert_eq!(b.size(), 2);
    }

    #[test]
    fn asserts_are_never_consed() {
        let mut b = Builder::new(Mode::Build);
        let x = b.input();
        let g1 = b.assert_zero(x);
        let g2 = b.assert_zero(x);
        assert_ne!(g1, g2);
        assert_eq!(b.size(), 2);
    }

    /// A small forked program with cross-task duplicate gates, pre-fork
    /// shared wires, post-fork sequential work, and asserts.
    fn forked_program(b: &mut Builder) -> Vec<WireId> {
        let xs: Vec<WireId> = (0..8).map(|_| b.input()).collect();
        let k = b.constant(5);
        let pre = b.add(xs[0], k);
        let per_task = b.fork_join(4, |i, b| {
            let shared = b.add(xs[0], xs[1]); // duplicated by every task
            let a = b.add(xs[i], xs[i + 4]);
            let m = b.mul(a, pre);
            let lt = b.lt(m, xs[7 - i]);
            let sel = b.mux(lt, a, shared);
            let c = b.constant(7); // duplicated constant
            let e = b.eq(sel, c);
            b.assert_zero(e);
            vec![shared, m, sel]
        });
        let mut outs: Vec<WireId> = per_task.into_iter().flatten().collect();
        let tail = b.xor(outs[0], outs[1]);
        outs.push(tail);
        outs
    }

    #[test]
    fn par_build_replay_is_byte_identical_to_sequential() {
        let seq = {
            let mut b = Builder::new(Mode::Build);
            let outs = forked_program(&mut b);
            b.finish(outs)
        };
        for threads in [1usize, 2, 3, 8] {
            let mut b = Builder::with_pool(Mode::Build, qec_par::Pool::new(threads));
            let outs = forked_program(&mut b);
            let par = b.finish(outs);
            assert_eq!(par.gates(), seq.gates(), "threads={threads}");
            assert_eq!(par.outputs(), seq.outputs(), "threads={threads}");
            assert_eq!(par.wire_depths(), seq.wire_depths());
            assert_eq!(par.size(), seq.size());
            assert_eq!(par.depth(), seq.depth());
            assert_eq!(par.num_wires(), seq.num_wires());
            assert_eq!(par.num_inputs(), seq.num_inputs());
            let inputs: Vec<u64> = (0..8).collect();
            assert_eq!(par.evaluate(&inputs), seq.evaluate(&inputs));
        }
    }

    #[test]
    fn par_count_mode_matches_sequential_accounting() {
        let seq = {
            let mut b = Builder::new(Mode::Count);
            let outs = forked_program(&mut b);
            b.finish(outs)
        };
        for threads in [1usize, 4] {
            let mut b = Builder::with_pool(Mode::Count, qec_par::Pool::new(threads));
            let outs = forked_program(&mut b);
            let par = b.finish(outs);
            assert_eq!(par.size(), seq.size(), "threads={threads}");
            assert_eq!(par.depth(), seq.depth());
            assert_eq!(par.num_wires(), seq.num_wires());
            assert_eq!(par.num_inputs(), seq.num_inputs());
            assert!(!par.is_evaluable());
        }
    }

    #[test]
    #[should_panic(expected = "inputs must be declared before forking")]
    fn par_child_input_panics() {
        let mut b = Builder::with_pool(Mode::Build, qec_par::Pool::new(2));
        // every task tries to declare an input; whichever runs on the
        // calling thread raises the expected panic message
        b.fork_join(2, |_, c| {
            c.input();
        });
    }

    #[test]
    fn cse_preserves_count_mode_parity() {
        fn build(mode: Mode) -> (u64, u32) {
            let mut b = Builder::new(mode);
            let x = b.input();
            let y = b.input();
            let a = b.add(x, y);
            let _dup = b.add(y, x);
            let m = b.mul(a, a);
            let e = b.eq(m, a);
            let c = b.finish(vec![e]);
            (c.size(), c.depth())
        }
        assert_eq!(build(Mode::Build), build(Mode::Count));
    }
}
