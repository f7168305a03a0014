//! Compiled, batched circuit evaluation engine.
//!
//! [`Circuit::evaluate`] walks the gate list with a match per gate and
//! an `O(size)` value buffer — fine for one instance, wasteful for the
//! paper's real promise (Sec. 1): a circuit's *static topology* can be
//! compiled once and then streamed over arbitrarily many inputs. This
//! module adds that missing layer:
//!
//! 1. **Compilation** ([`CompiledCircuit::compile_with`]): the live
//!    gates of the DAG (the optimizer's liveness mark, [`crate::opt`];
//!    every gate with the optimizer off) are reordered into a
//!    level-major instruction tape (all gates of equal depth are
//!    adjacent) and run through a **wire-liveness register allocator**.
//!    A wire's register is recycled once the last level reading it has
//!    executed, so the working set shrinks from `O(size)` slots to
//!    `O(peak live width)` registers — the hot data fits in cache
//!    instead of streaming the whole value buffer per instance. The
//!    schedule is flat, in the GMW tape's idiom ([`crate::bitengine`]),
//!    and reads the source arena in place: the circuit stores no
//!    per-wire depths, so the mark's gate-sized array goes on to hold
//!    each live wire's level, then its last use, then its register; a
//!    counting sort (level offsets, CSR) writes each live gate id into
//!    the tape slot its instruction will fill; and the registers freed
//!    at a level boundary wait on per-level FIFO lists linked through
//!    the registers. The tape is packed: one
//!    opcode byte and four `u32` words per instruction, 17 bytes, with
//!    a constant's value in two of the words; the kernels decode it
//!    inline.
//! 2. **Batched evaluation** ([`CompiledCircuit::evaluate_batch`], the
//!    one batch entry point; [`CompiledCircuit::evaluate`] is its
//!    batch-of-one form): registers hold `B` lanes
//!    (structure-of-arrays), so each instruction dispatch is amortized
//!    over `B` input vectors and the per-lane inner loops are
//!    straight-line word ops the compiler autovectorizes.
//! 3. **Observability** ([`EngineStats`]): per-kind gate counts, level
//!    widths, peak register count and bytes touched per instance — the
//!    numbers the bench harness exports next to circuit size/depth.
//!    Callers time their own calls; instruction executions are
//!    `tape_len × instances`.
//!
//! Brent's PRAM schedule is counted, not run on OS threads:
//! [`brent_steps`](crate::brent_steps) gives the step count over the
//! same levels this tape is ordered by.
//!
//! Assertion semantics match [`Circuit::evaluate`] exactly and
//! deterministically: every lane reports the **lowest-index** failing
//! [`Gate::AssertZero`](crate::Gate::AssertZero) of the source circuit
//! (an `Assert` instruction carries its source gate id), independent of
//! tape order, because gate values
//! are pure functions of the inputs so the engine can keep evaluating
//! past a failure and take the minimum.

use crate::ir::{op, Circuit, EvalError};
use crate::opt::{OptStats, DEAD};
use crate::tape::Fnv1a64;

/// Register index in the compiled tape.
type Reg = u32;

/// Lanes per tape pass: the batch is processed in tiles sized so the
/// register file (`peak_registers × tile × 8` bytes) stays
/// cache-resident — on large circuits a full-width register file spills
/// to DRAM and the batching win evaporates. 16 lanes is the measured
/// sweet spot across 2·10⁵–1.3·10⁶ gate circuits: wide enough that SIMD
/// lane loops and tape-decode amortization engage, narrow enough that
/// `peak_registers × 16` words stay cache-resident. Wider tiles lose
/// more to register-file spill than they gain in decode amortization.
const LANE_TILE: usize = 16;

/// Gate-kind slots for [`EngineStats::gate_counts`], in a fixed order.
/// A gate's slot is also its opcode in the packed circuit and on the
/// engine's tape, and the word tape format's opcode is the slot plus
/// one, so the stats, the stored forms and the netlist mnemonics share
/// one table.
pub const GATE_KINDS: [&str; 13] = [
    "input",
    "const",
    "add",
    "sub",
    "mul",
    "eq",
    "lt",
    "and",
    "or",
    "xor",
    "not",
    "mux",
    "assert_zero",
];

/// Static facts about a compiled tape — everything known before the
/// first input arrives.
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Logic-gate count of the source circuit (its `size()`).
    pub circuit_size: u64,
    /// Depth of the source circuit.
    pub circuit_depth: u32,
    /// Total wires (inputs + constants + gates) in the source circuit.
    pub circuit_wires: usize,
    /// Logic-gate count actually compiled. With the optimizer on (the
    /// [`CompiledCircuit::compile_with`] default) this counts the live
    /// gates; with it off it equals `circuit_size`.
    pub optimized_size: u64,
    /// Depth of the compiled gates: the deepest live gate's depth with
    /// the optimizer on, `circuit_depth` with it off.
    pub optimized_depth: u32,
    /// The liveness mark's counters, when [`CompiledCircuit::compile_with`]
    /// ran the optimizer; `None` with it off.
    pub opt: Option<OptStats>,
    /// Instructions on the tape (one per compiled wire — at most
    /// `circuit_wires`, less whenever the optimizer found dead wires).
    pub tape_len: usize,
    /// Registers allocated — the peak number of simultaneously live
    /// wires. Strictly below `circuit_wires` whenever liveness-based
    /// reuse engages, and typically far below `circuit_size`.
    pub peak_registers: usize,
    /// Number of levels (depth-equal instruction groups, including the
    /// input/constant level 0).
    pub num_levels: usize,
    /// Instructions per level.
    pub level_widths: Vec<u32>,
    /// Per-kind gate counts, indexed like [`GATE_KINDS`].
    pub gate_counts: [u64; 13],
    /// Estimated register bytes read + written by one instance's pass
    /// over the tape (8 bytes per source read and destination write).
    pub bytes_per_instance: u64,
}

impl EngineStats {
    /// Widest level on the tape.
    pub fn max_level_width(&self) -> u32 {
        self.level_widths.iter().copied().max().unwrap_or(0)
    }

    /// `(kind, count)` pairs for the kinds that actually occur.
    pub fn gate_count_pairs(&self) -> Vec<(&'static str, u64)> {
        GATE_KINDS
            .iter()
            .zip(self.gate_counts.iter())
            .filter(|(_, &c)| c > 0)
            .map(|(&k, &c)| (k, c))
            .collect()
    }
}

/// A circuit compiled to a register-allocated, level-major instruction
/// tape, reusable across any number of evaluations.
///
/// The tape is stored packed: per instruction its opcode (the gate
/// kind's [`GATE_KINDS`] slot) and four `u32` words `[dst, x, y, z]`,
/// 17 bytes. Sources are registers: `x, y` for binary gates, `x` for
/// `Not`, `x, y, z` = select, then, else for `Mux`. An `Input` holds its
/// index in `x`, a `Const` its value in `x` (low) and `y` (high), and an
/// `AssertZero` reads `x` and reports gate `y`. Unused words are zero.
pub struct CompiledCircuit {
    kinds: Vec<u8>,
    args: Vec<[u32; 4]>,
    /// Output registers in output order.
    output_regs: Vec<Reg>,
    num_inputs: usize,
    num_regs: usize,
    pub(crate) stats: EngineStats,
}

impl CompiledCircuit {
    /// The leveling, sorting and register-allocation stage of
    /// [`CompiledCircuit::compile_with`], over the live gates of `c`:
    /// `mark` is the liveness mark ([`crate::opt`]), one word per wire,
    /// [`DEAD`] for a wire the tape skips and 0 for one it holds.
    ///
    /// The schedule is flat, as the GMW tape's is: the mark's array goes
    /// on to hold each live wire's level, then the last level reading it,
    /// then its register; a counting sort writes each live gate id into
    /// the operand slot its instruction will occupy on the tape; and the
    /// registers freed at each level boundary wait on per-level FIFO
    /// lists linked through the registers. Nothing reads a dead wire's
    /// slot again once the levels are known, and an `Assert` instruction
    /// reports its own gate id, which is the source's.
    pub(crate) fn compile_inner(c: &Circuit, mark: Vec<u32>) -> CompiledCircuit {
        let gates = c.arena();
        let n = gates.len();

        // --- levels: a live wire's level is its depth among the live
        //     gates, which is its depth in `c` (a live gate's operands are
        //     live). `slot[i]` holds it, and `starts[l + 1]` counts level
        //     l's gates. ---
        let mut slot = mark;
        let mut depth = 0u32;
        for i in 0..n {
            if slot[i] == DEAD {
                continue;
            }
            let mut d = 0;
            for &w in gates.get(i).operands() {
                debug_assert!(
                    slot[w as usize] != DEAD,
                    "live gate {i} reads dead wire {w}"
                );
                d = d.max(slot[w as usize] + 1);
            }
            slot[i] = d;
            depth = depth.max(d);
        }
        let num_levels = depth as usize + 1;
        let mut starts = vec![0u32; num_levels + 1];
        for &l in slot.iter().filter(|&&l| l != DEAD) {
            starts[l as usize + 1] += 1;
        }

        // --- level-major order: a counting sort writes each live gate id
        //     into the first word of its tape slot; the walk in gate order
        //     keeps each level's gates in gate order. ---
        for l in 0..num_levels {
            starts[l + 1] += starts[l];
        }
        let live = starts[num_levels] as usize;
        debug_assert!(
            live == 0 || starts.windows(2).all(|w| w[0] < w[1]),
            "every level holds a gate"
        );
        let mut args = vec![[0u32; 4]; live];
        let mut fill = starts.clone();
        for (i, &l) in slot.iter().enumerate() {
            if l != DEAD {
                args[fill[l as usize] as usize][0] = i as u32;
                fill[l as usize] += 1;
            }
        }
        drop(fill);

        // --- liveness, in place: `slot[i]` goes from live wire i's level
        //     to the last level a live gate reads it at (u32::MAX =
        //     pinned). Consumers come after their operands, so `slot[i]`
        //     still holds i's own level when the walk reaches i; a wire no
        //     live gate reads dies at its own definition level. ---
        const PINNED: u32 = u32::MAX;
        for i in 0..n {
            let d = slot[i];
            if d == DEAD {
                continue;
            }
            for &w in gates.get(i).operands() {
                slot[w as usize] = slot[w as usize].max(d);
            }
        }
        for &w in c.outputs() {
            slot[w as usize] = PINNED;
        }

        // --- expiries: the registers freed at the start of level l form
        //     a FIFO list from `head[l]` to `tail[l]` through `next`, in
        //     allocation order. A register joins a list when it is
        //     allocated and leaves it when the list is freed, so it is on
        //     at most one list at a time. ---
        const NIL: u32 = u32::MAX;
        let mut head: Vec<Reg> = vec![NIL; num_levels + 1];
        let mut tail: Vec<Reg> = vec![NIL; num_levels + 1];
        let mut next: Vec<Reg> = Vec::new();
        // Per register, in debug builds: the level (plus one) it was last
        // written at and last read at.
        #[cfg(debug_assertions)]
        let mut touched: Vec<(u32, u32)> = Vec::new();

        // --- register allocation, freeing only at level boundaries so
        //     a level's destinations can never alias its sources. Once
        //     wire i has a register, `slot[i]` holds it. ---
        let mut free: Vec<Reg> = Vec::new();
        let mut num_regs = 0u32;
        let mut kinds = Vec::with_capacity(live);
        let mut level_widths = Vec::with_capacity(num_levels);
        let mut gate_counts = [0u64; 13];
        let mut bytes_per_instance = 0u64;

        for level in 0..num_levels {
            let mut r = head[level];
            while r != NIL {
                free.push(r);
                r = next[r as usize];
            }
            let (lo, hi) = (starts[level] as usize, starts[level + 1] as usize);
            for ins in &mut args[lo..hi] {
                let gi = ins[0];
                let rec = gates.get(gi as usize);
                gate_counts[rec.op as usize] += 1;
                let dst = free.pop().unwrap_or_else(|| {
                    next.push(NIL);
                    num_regs += 1;
                    num_regs - 1
                });
                let last = slot[gi as usize];
                if last != PINNED {
                    let l = last as usize + 1;
                    next[dst as usize] = NIL;
                    match tail[l] {
                        NIL => head[l] = dst,
                        t => next[t as usize] = dst,
                    }
                    tail[l] = dst;
                }
                slot[gi as usize] = dst;
                let arity = rec.arity();
                let mut out = [dst, rec.args[0], rec.args[1], rec.args[2]];
                for (o, &w) in out[1..].iter_mut().zip(rec.operands()) {
                    *o = slot[w as usize];
                }
                if rec.op == op::ASSERT {
                    out[2] = gi;
                }
                #[cfg(debug_assertions)]
                {
                    let now = level as u32 + 1;
                    touched.resize(num_regs as usize, (0, 0));
                    for &src in &out[1..1 + arity] {
                        debug_assert!(
                            touched[src as usize].0 < now,
                            "source register {src} was written in its reader's level {level}"
                        );
                        touched[src as usize].1 = now;
                    }
                    debug_assert!(
                        touched[dst as usize].1 != now,
                        "destination register {dst} aliases a source of level {level}"
                    );
                    touched[dst as usize].0 = now;
                }
                bytes_per_instance += 8 * (arity as u64 + 1);
                kinds.push(rec.op);
                *ins = out;
            }
            level_widths.push((hi - lo) as u32);
        }

        let output_regs = c.outputs().iter().map(|&w| slot[w as usize]).collect();
        let stats = EngineStats {
            circuit_size: c.size(),
            circuit_depth: c.depth(),
            circuit_wires: n,
            optimized_size: live as u64
                - gate_counts[op::INPUT as usize]
                - gate_counts[op::CONST as usize],
            optimized_depth: depth,
            opt: None,
            tape_len: kinds.len(),
            peak_registers: num_regs as usize,
            num_levels: level_widths.len(),
            level_widths,
            gate_counts,
            bytes_per_instance,
        };
        CompiledCircuit {
            kinds,
            args,
            output_regs,
            num_inputs: c.num_inputs(),
            num_regs: num_regs as usize,
            stats,
        }
    }

    /// Heap bytes held by the packed tape, by capacity.
    pub(crate) fn tape_bytes(&self) -> usize {
        self.kinds.capacity() + self.args.capacity() * std::mem::size_of::<[u32; 4]>()
    }

    /// Structural fingerprint of the compiled tape: FNV-1a-64 over every
    /// instruction (opcode byte, then its four words), the output
    /// registers, the input arity and the register count. It is a pure
    /// function of the circuit and the compile options, so it pins the
    /// instruction order and the register assignment.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a64::new();
        for (&kind, words) in self.kinds.iter().zip(&self.args) {
            h.write(&[kind]);
            for w in words {
                h.write(&w.to_le_bytes());
            }
        }
        for &r in &self.output_regs {
            h.write(&r.to_le_bytes());
        }
        h.write(&(self.num_inputs as u64).to_le_bytes());
        h.write(&(self.num_regs as u32).to_le_bytes());
        h.finish()
    }

    /// Static tape statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Declared input count of the source circuit.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Evaluates a single instance (batch of one).
    pub fn evaluate(&self, inputs: &[u64]) -> Result<Vec<u64>, EvalError> {
        self.evaluate_batch(std::slice::from_ref(&inputs))
            .pop()
            .expect("one lane in, one out")
    }

    /// Evaluates a batch of instances through one tape pass per tile of
    /// 16 lanes (structure-of-arrays: every register holds
    /// one lane per instance). Each instance gets exactly the result
    /// [`Circuit::evaluate`] would give it: outputs on success, or the
    /// lowest-index failing assertion.
    pub fn evaluate_batch<I: AsRef<[u64]>>(
        &self,
        instances: &[I],
    ) -> Vec<Result<Vec<u64>, EvalError>> {
        let tile = LANE_TILE.min(instances.len().max(1));
        let mut regs = vec![0u64; self.num_regs * tile];
        let mut results = Vec::with_capacity(instances.len());

        for chunk in instances.chunks(tile) {
            let b = chunk.len();
            let mut failures: Vec<(u32, u64)> = vec![(u32::MAX, 0); b];
            // Lanes with the wrong arity error out up front and are
            // masked from input gathering (their registers stay zero;
            // whatever the tape computes for them is discarded).
            let arity_ok: Vec<bool> = chunk
                .iter()
                .map(|i| i.as_ref().len() == self.num_inputs)
                .collect();

            // Register values never leak between tiles: every register
            // is written by its defining instruction before first read.
            self.run_tape(
                chunk,
                &arity_ok,
                &mut regs[..self.num_regs * b],
                &mut failures,
            );

            results.extend((0..b).map(|lane| {
                if !arity_ok[lane] {
                    return Err(EvalError::InputArity {
                        expected: self.num_inputs,
                        got: chunk[lane].as_ref().len(),
                    });
                }
                let (gate, value) = failures[lane];
                if gate != u32::MAX {
                    return Err(EvalError::AssertionFailed {
                        gate: gate as usize,
                        value,
                    });
                }
                Ok(self
                    .output_regs
                    .iter()
                    .map(|&r| regs[r as usize * b + lane])
                    .collect())
            }));
        }
        results
    }

    // Kept out of line: inlined into `evaluate_batch`, the dynamic-width
    // loop below ran batch-1 evaluation of the X15 join ~20% slower.
    #[inline(never)]
    fn run_tape<I: AsRef<[u64]>>(
        &self,
        instances: &[I],
        arity_ok: &[bool],
        regs: &mut [u64],
        failures: &mut [(u32, u64)],
    ) {
        // Monomorphize the tile widths that occur: a full tile is
        // `LANE_TILE` lanes, and 8 covers small batches. With a
        // compile-time lane count the per-lane loops in `exec_op` unroll
        // and vectorize.
        match instances.len() {
            8 => self.run_tape_mono::<I, 8>(instances, arity_ok, regs, failures),
            LANE_TILE => self.run_tape_mono::<I, LANE_TILE>(instances, arity_ok, regs, failures),
            b => {
                for (&kind, &words) in self.kinds.iter().zip(&self.args) {
                    // SAFETY: `exec_op` only requires that the instruction's
                    // destination register differ from its source registers,
                    // which the allocator guarantees (frees happen strictly at
                    // level boundaries).
                    unsafe {
                        exec_op(
                            kind,
                            words,
                            regs.as_mut_ptr(),
                            b,
                            instances,
                            arity_ok,
                            failures,
                        )
                    };
                }
            }
        }
    }

    fn run_tape_mono<I: AsRef<[u64]>, const B: usize>(
        &self,
        instances: &[I],
        arity_ok: &[bool],
        regs: &mut [u64],
        failures: &mut [(u32, u64)],
    ) {
        // The portable build targets baseline x86-64 (SSE2). The lane
        // loops are pure u64 SIMD material, so dispatch to a wider
        // vector ISA when the host has one — `is_x86_feature_detected!`
        // caches its probe, and the `target_feature` wrappers inline
        // the shared body under the wider feature set.
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: feature presence just checked.
                return unsafe {
                    self.run_tape_mono_avx512::<I, B>(instances, arity_ok, regs, failures)
                };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: feature presence just checked.
                return unsafe {
                    self.run_tape_mono_avx2::<I, B>(instances, arity_ok, regs, failures)
                };
            }
        }
        self.run_tape_mono_body::<I, B>(instances, arity_ok, regs, failures);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn run_tape_mono_avx512<I: AsRef<[u64]>, const B: usize>(
        &self,
        instances: &[I],
        arity_ok: &[bool],
        regs: &mut [u64],
        failures: &mut [(u32, u64)],
    ) {
        self.run_tape_mono_body::<I, B>(instances, arity_ok, regs, failures);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_tape_mono_avx2<I: AsRef<[u64]>, const B: usize>(
        &self,
        instances: &[I],
        arity_ok: &[bool],
        regs: &mut [u64],
        failures: &mut [(u32, u64)],
    ) {
        self.run_tape_mono_body::<I, B>(instances, arity_ok, regs, failures);
    }

    #[inline(always)]
    fn run_tape_mono_body<I: AsRef<[u64]>, const B: usize>(
        &self,
        instances: &[I],
        arity_ok: &[bool],
        regs: &mut [u64],
        failures: &mut [(u32, u64)],
    ) {
        debug_assert_eq!(instances.len(), B);
        for (&kind, &words) in self.kinds.iter().zip(&self.args) {
            // SAFETY: as in the dynamic-width loop above; `exec_op` is
            // `inline(always)`, so `B` reaches its lane loops as a
            // constant.
            unsafe {
                exec_op(
                    kind,
                    words,
                    regs.as_mut_ptr(),
                    B,
                    instances,
                    arity_ok,
                    failures,
                )
            };
        }
    }
}

/// Executes one instruction, given as its opcode and `[dst, x, y, z]`
/// words (see [`CompiledCircuit`]), over all `b` lanes.
///
/// # Safety
/// `regs` must point to a register file of at least `num_regs × b`
/// words, and the instruction's destination register must be distinct
/// from its source registers (guaranteed by the compiler's
/// level-boundary register allocation).
#[inline(always)]
unsafe fn exec_op<I: AsRef<[u64]>>(
    kind: u8,
    [dst, x, y, z]: [u32; 4],
    regs: *mut u64,
    b: usize,
    instances: &[I],
    arity_ok: &[bool],
    failures: &mut [(u32, u64)],
) {
    let lanes = |r: Reg| -> &[u64] { std::slice::from_raw_parts(regs.add(r as usize * b), b) };
    let lanes_mut =
        |r: Reg| -> &mut [u64] { std::slice::from_raw_parts_mut(regs.add(r as usize * b), b) };
    match kind {
        op::INPUT => {
            let d = lanes_mut(dst);
            for (lane, inst) in instances.iter().enumerate() {
                d[lane] = if arity_ok[lane] {
                    inst.as_ref()[x as usize]
                } else {
                    0
                };
            }
        }
        op::CONST => lanes_mut(dst).fill(u64::from(x) | u64::from(y) << 32),
        op::ADD => binary_lanes(regs, b, dst, x, y, u64::wrapping_add),
        op::SUB => binary_lanes(regs, b, dst, x, y, u64::wrapping_sub),
        op::MUL => binary_lanes(regs, b, dst, x, y, u64::wrapping_mul),
        op::EQ => binary_lanes(regs, b, dst, x, y, |p, q| u64::from(p == q)),
        op::LT => binary_lanes(regs, b, dst, x, y, |p, q| u64::from(p < q)),
        op::AND => binary_lanes(regs, b, dst, x, y, |p, q| {
            u64::from(p != 0) & u64::from(q != 0)
        }),
        op::OR => binary_lanes(regs, b, dst, x, y, |p, q| {
            u64::from(p != 0) | u64::from(q != 0)
        }),
        op::XOR => binary_lanes(regs, b, dst, x, y, |p, q| {
            u64::from(p != 0) ^ u64::from(q != 0)
        }),
        op::NOT => {
            debug_assert!(dst != x);
            let (d, p) = (lanes_mut(dst), lanes(x));
            for i in 0..b {
                d[i] = u64::from(p[i] == 0);
            }
        }
        op::MUX => {
            debug_assert!(dst != x && dst != y && dst != z);
            let (d, sv, p, q) = (lanes_mut(dst), lanes(x), lanes(y), lanes(z));
            for i in 0..b {
                d[i] = if sv[i] != 0 { p[i] } else { q[i] };
            }
        }
        op::ASSERT => {
            debug_assert!(dst != x);
            let (d, p) = (lanes_mut(dst), lanes(x));
            for i in 0..b {
                d[i] = 0;
                if p[i] != 0 && y < failures[i].0 {
                    failures[i] = (y, p[i]);
                }
            }
        }
        _ => unreachable!("the compiler writes only the 13 opcodes"),
    }
}

/// A binary gate's lane loop, `d[i] = f(x[i], y[i])`, under the safety
/// contract of [`exec_op`].
#[inline(always)]
unsafe fn binary_lanes(
    regs: *mut u64,
    b: usize,
    dst: Reg,
    x: Reg,
    y: Reg,
    f: impl Fn(u64, u64) -> u64,
) {
    debug_assert!(dst != x && dst != y);
    let d = std::slice::from_raw_parts_mut(regs.add(dst as usize * b), b);
    let p = std::slice::from_raw_parts(regs.add(x as usize * b), b);
    let q = std::slice::from_raw_parts(regs.add(y as usize * b), b);
    for i in 0..b {
        d[i] = f(p[i], q[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::CompileOptions;
    use crate::ir::Builder;

    fn compile(c: &Circuit) -> Result<CompiledCircuit, EvalError> {
        CompiledCircuit::compile_with(c, &CompileOptions::sequential())
    }

    fn adder_chain(n: usize) -> Circuit {
        let mut bld = Builder::new();
        let x = bld.input();
        let y = bld.input();
        let mut acc = bld.add(x, y);
        for _ in 1..n {
            acc = bld.add(acc, y);
        }
        bld.finish(vec![acc])
    }

    #[test]
    fn matches_interpreter_on_simple_circuits() {
        let c = adder_chain(10);
        let eng = compile(&c).unwrap();
        for inputs in [[3u64, 5], [0, 0], [u64::MAX, 1]] {
            assert_eq!(eng.evaluate(&inputs).unwrap(), c.evaluate(&inputs).unwrap());
        }
    }

    #[test]
    fn register_reuse_engages_on_chains() {
        let c = adder_chain(100);
        let eng = compile(&c).unwrap();
        // a pure chain needs only a handful of registers, not 102
        assert!(
            eng.stats().peak_registers <= 4,
            "chain should recycle registers, got {}",
            eng.stats().peak_registers
        );
        assert!(eng.stats().peak_registers < c.num_wires());
    }

    #[test]
    fn batch_matches_per_instance_evaluation() {
        let mut bld = Builder::new();
        let x = bld.input();
        let y = bld.input();
        let s = bld.add(x, y);
        let p = bld.mul(x, y);
        let lt = bld.lt(x, y);
        let m = bld.mux(lt, s, p);
        let n = bld.not(lt);
        let c = bld.finish(vec![s, p, lt, m, n]);
        let eng = compile(&c).unwrap();
        let instances: Vec<Vec<u64>> = (0..37)
            .map(|i| vec![i * 7 % 13, (i * 3 + 1) % 11])
            .collect();
        let batch = eng.evaluate_batch(&instances);
        for (inst, got) in instances.iter().zip(batch) {
            assert_eq!(got, c.evaluate(inst));
        }
    }

    #[test]
    fn assertions_report_lowest_gate_per_lane() {
        let mut bld = Builder::new();
        let x = bld.input();
        let y = bld.input();
        bld.assert_zero(x); // gate 2
        bld.assert_zero(y); // gate 3
        let c = bld.finish(vec![]);
        let eng = compile(&c).unwrap();
        let instances: Vec<Vec<u64>> = vec![
            vec![0, 0], // ok
            vec![5, 0], // gate 2 fires
            vec![0, 7], // gate 3 fires
            vec![5, 7], // both fire → lowest (gate 2) reported
        ];
        let got = eng.evaluate_batch(&instances);
        assert_eq!(got[0], Ok(vec![]));
        assert_eq!(
            got[1],
            Err(EvalError::AssertionFailed { gate: 2, value: 5 })
        );
        assert_eq!(
            got[2],
            Err(EvalError::AssertionFailed { gate: 3, value: 7 })
        );
        assert_eq!(
            got[3],
            Err(EvalError::AssertionFailed { gate: 2, value: 5 })
        );
        // gate-for-gate match with the interpreter
        for (inst, got) in instances.iter().zip(got) {
            assert_eq!(got, c.evaluate(inst));
        }
    }

    #[test]
    fn arity_errors_are_per_lane() {
        let c = adder_chain(3);
        let eng = compile(&c).unwrap();
        let instances: Vec<Vec<u64>> = vec![vec![1, 2], vec![1], vec![4, 5]];
        let got = eng.evaluate_batch(&instances);
        assert!(got[0].is_ok());
        assert_eq!(
            got[1],
            Err(EvalError::InputArity {
                expected: 2,
                got: 1
            })
        );
        assert!(got[2].is_ok());
    }

    #[test]
    fn empty_circuit_evaluates_to_nothing() {
        let bld = Builder::new();
        let c = bld.finish(vec![]);
        let eng = compile(&c).unwrap();
        assert_eq!(eng.evaluate(&[]), Ok(vec![]));
    }

    #[test]
    fn a_word_instruction_is_17_bytes() {
        // One opcode byte and `[dst, x, y, z]` per instruction, with the
        // constants in the words: nothing else grows with the tape.
        let mut bld = Builder::new();
        let x = bld.input();
        let k = bld.constant(u64::MAX);
        let e = bld.eq(x, k);
        let m = bld.mux(e, x, k);
        bld.assert_zero(m);
        let c = bld.finish(vec![m]);
        let eng =
            CompiledCircuit::compile_with(&c, &CompileOptions::sequential().with_optimize(false))
                .unwrap();
        assert_eq!(eng.stats().tape_len, 5);
        assert_eq!(eng.tape_bytes(), 5 * 17);
        assert_eq!(eng.evaluate(&[3]), c.evaluate(&[3]));
    }

    #[test]
    fn stats_account_every_gate() {
        let c = adder_chain(10);
        let eng = compile(&c).unwrap();
        let s = eng.stats();
        assert_eq!(s.tape_len, c.num_wires());
        assert_eq!(s.gate_counts.iter().sum::<u64>(), c.num_wires() as u64);
        assert_eq!(s.level_widths.iter().sum::<u32>() as usize, s.tape_len);
        assert_eq!(s.gate_count_pairs(), vec![("input", 2), ("add", 10)]);
        assert_eq!(s.num_levels, s.level_widths.len());
    }
}
