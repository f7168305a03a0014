//! Compiled, batched circuit evaluation engine.
//!
//! [`Circuit::evaluate`] walks the gate list with a match per gate and
//! an `O(size)` value buffer — fine for one instance, wasteful for the
//! paper's real promise (Sec. 1): a circuit's *static topology* can be
//! compiled once and then streamed over arbitrarily many inputs. This
//! module adds that missing layer:
//!
//! 1. **Compilation** ([`CompiledCircuit::compile`]): the gate DAG is
//!    reordered into a level-major instruction tape (all gates of equal
//!    depth are adjacent) and run through a **wire-liveness register
//!    allocator**. A wire's register is recycled once the last level
//!    reading it has executed, so the working set shrinks from
//!    `O(size)` slots to `O(peak live width)` registers — the hot data
//!    fits in cache instead of streaming the whole value buffer per
//!    instance.
//! 2. **Batched evaluation** ([`CompiledCircuit::evaluate_batch`]):
//!    registers hold `B` lanes (structure-of-arrays), so each
//!    instruction dispatch is amortized over `B` input vectors and the
//!    per-lane inner loops are straight-line word ops the compiler
//!    autovectorizes.
//! 3. **Level-parallel evaluation**
//!    ([`CompiledCircuit::evaluate_batch_threaded`]): Brent's-theorem
//!    scheduling across OS threads (each level's instructions are split
//!    over workers, one barrier per level) *combined* with batching
//!    within each worker.
//! 4. **Observability** ([`EngineStats`], [`EvalMetrics`]): per-kind
//!    gate counts, level widths, peak register count, nanoseconds and
//!    bytes touched per evaluation — the numbers the bench harness
//!    exports next to circuit size/depth.
//!
//! Assertion semantics match [`Circuit::evaluate`] exactly and
//! deterministically: every lane reports the **lowest-index** failing
//! [`Gate::AssertZero`], independent of thread count or tape order,
//! because gate values are pure functions of the inputs so the engine
//! can keep evaluating past a failure and take the minimum.

use crate::ir::{Circuit, EvalError, Gate, WireId};
use crate::opt::OptStats;

/// Register index in the compiled tape.
type Reg = u32;

/// One compiled instruction: operation + source registers + destination
/// register. Sources always refer to registers written in strictly
/// earlier levels, destinations never alias a same-level source (the
/// allocator frees registers only at level boundaries), which is what
/// makes the threaded path race-free.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `dst ← inputs[idx]` (per lane).
    Input { dst: Reg, idx: u32 },
    /// `dst ← v` (all lanes).
    Const { dst: Reg, v: u64 },
    /// Binary word op; `kind` indexes [`BinKind`].
    Bin {
        dst: Reg,
        kind: BinKind,
        a: Reg,
        b: Reg,
    },
    /// `dst ← (a == 0)`.
    Not { dst: Reg, a: Reg },
    /// `dst ← s ≠ 0 ? a : b`.
    Mux { dst: Reg, s: Reg, a: Reg, b: Reg },
    /// Checks `a == 0`; records `(gate, value)` per failing lane and
    /// writes `0` to `dst` (matching the interpreter).
    AssertZero { dst: Reg, a: Reg, gate: u32 },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BinKind {
    Add,
    Sub,
    Mul,
    Eq,
    Lt,
    And,
    Or,
    Xor,
}

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

/// The [`GATE_KINDS`] slot of `g`. Shared with the flat tape encoding
/// ([`crate::tape`]), whose opcodes are `kind_index + 1` — one table, so
/// the engine's stats, the tape format, and the netlist mnemonics can
/// never drift apart.
pub(crate) fn kind_index(g: &Gate) -> usize {
    match g {
        Gate::Input(_) => 0,
        Gate::Const(_) => 1,
        Gate::Add(..) => 2,
        Gate::Sub(..) => 3,
        Gate::Mul(..) => 4,
        Gate::Eq(..) => 5,
        Gate::Lt(..) => 6,
        Gate::And(..) => 7,
        Gate::Or(..) => 8,
        Gate::Xor(..) => 9,
        Gate::Not(..) => 10,
        Gate::Mux(..) => 11,
        Gate::AssertZero(..) => 12,
    }
}

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
    /// [`CompiledCircuit::compile_with`] default) this is the optimized
    /// circuit's size; with it off it equals `circuit_size`.
    pub optimized_size: u64,
    /// Depth of the compiled circuit (optimized or raw).
    pub optimized_depth: u32,
    /// Optimizer counters, when [`CompiledCircuit::compile_with`] ran
    /// the offline pass; `None` with the optimizer off.
    pub opt: Option<OptStats>,
    /// Instructions on the tape (one per wire of the compiled circuit —
    /// at most `circuit_wires`, less whenever the optimizer shrank it).
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

/// Wall-clock and memory-traffic numbers for one evaluation call.
#[derive(Clone, Copy, Debug)]
pub struct EvalMetrics {
    /// Instances evaluated in the call.
    pub instances: usize,
    /// Worker threads used (1 = the sequential batched path).
    pub threads: usize,
    /// Wall-clock nanoseconds for the whole call.
    pub eval_ns: u128,
    /// Instruction executions: `tape_len × instances`.
    pub gate_evals: u64,
    /// Estimated register bytes touched: `bytes_per_instance × instances`.
    pub bytes_touched: u64,
}

impl EvalMetrics {
    /// Mean nanoseconds per instance.
    pub fn ns_per_instance(&self) -> f64 {
        self.eval_ns as f64 / (self.instances.max(1)) as f64
    }

    /// Instruction executions per second (the engine's throughput).
    pub fn gate_evals_per_sec(&self) -> f64 {
        self.gate_evals as f64 / (self.eval_ns.max(1) as f64 / 1e9)
    }
}

/// A circuit compiled to a register-allocated, level-major instruction
/// tape, reusable across any number of evaluations.
pub struct CompiledCircuit {
    tape: Vec<Op>,
    /// Half-open instruction ranges per level; `level_ranges[d] =
    /// (start, end)` indexes into `tape`.
    level_ranges: Vec<(u32, u32)>,
    /// Output registers in output order.
    output_regs: Vec<Reg>,
    num_inputs: usize,
    num_regs: usize,
    pub(crate) stats: EngineStats,
}

impl CompiledCircuit {
    /// The tape/register-allocation stage, shared by every compile entry
    /// point. `origin` carries the optimizer's assert-origin map when the
    /// input circuit is an optimized image of some source circuit.
    pub(crate) fn compile_inner(
        c: &Circuit,
        origin: Option<&OptStats>,
    ) -> Result<CompiledCircuit, EvalError> {
        if !c.is_evaluable() {
            return Err(EvalError::CountOnly);
        }
        let gates = c.gates();
        let depths = c.wire_depths();
        let n = gates.len();
        debug_assert_eq!(
            n,
            depths.len(),
            "build-mode circuits have one gate per wire"
        );
        let max_depth = depths.iter().copied().max().unwrap_or(0) as usize;

        // --- liveness: last level reading each wire (u32::MAX = pinned) ---
        const PINNED: u32 = u32::MAX;
        let mut last_use = vec![0u32; n];
        for (i, (g, &d)) in gates.iter().zip(depths).enumerate() {
            // a wire nobody reads dies at its own definition level
            last_use[i] = last_use[i].max(d);
            for w in g.operands().into_iter().flatten() {
                last_use[w as usize] = last_use[w as usize].max(d);
            }
        }
        for &w in c.outputs() {
            last_use[w as usize] = PINNED;
        }

        // --- level-major gate order ---
        let mut by_level: Vec<Vec<u32>> = vec![Vec::new(); max_depth + 1];
        for (i, &d) in depths.iter().enumerate() {
            by_level[d as usize].push(i as u32);
        }

        // --- register allocation, freeing only at level boundaries so
        //     a level's destinations can never alias its sources ---
        let mut reg_of = vec![u32::MAX; n];
        let mut free: Vec<Reg> = Vec::new();
        let mut expire_at: Vec<Vec<Reg>> = vec![Vec::new(); max_depth + 2];
        let mut num_regs = 0u32;
        let mut tape = Vec::with_capacity(n);
        let mut level_ranges = Vec::with_capacity(max_depth + 1);
        let mut gate_counts = [0u64; 13];
        let mut bytes_per_instance = 0u64;

        for (level, members) in by_level.iter().enumerate() {
            for &r in &expire_at[level] {
                free.push(r);
            }
            let start = tape.len() as u32;
            for &gi in members {
                let g = &gates[gi as usize];
                gate_counts[kind_index(g)] += 1;
                let dst = match free.pop() {
                    Some(r) => r,
                    None => {
                        num_regs += 1;
                        num_regs - 1
                    }
                };
                reg_of[gi as usize] = dst;
                let last = last_use[gi as usize];
                if last != PINNED {
                    expire_at[last as usize + 1].push(dst);
                }
                let src = |w: WireId| -> Reg {
                    debug_assert_ne!(reg_of[w as usize], u32::MAX, "operand compiled first");
                    reg_of[w as usize]
                };
                let (op, reads) = match *g {
                    Gate::Input(idx) => (
                        Op::Input {
                            dst,
                            idx: idx as u32,
                        },
                        0,
                    ),
                    Gate::Const(v) => (Op::Const { dst, v }, 0),
                    Gate::Add(a, b) => (
                        Op::Bin {
                            dst,
                            kind: BinKind::Add,
                            a: src(a),
                            b: src(b),
                        },
                        2,
                    ),
                    Gate::Sub(a, b) => (
                        Op::Bin {
                            dst,
                            kind: BinKind::Sub,
                            a: src(a),
                            b: src(b),
                        },
                        2,
                    ),
                    Gate::Mul(a, b) => (
                        Op::Bin {
                            dst,
                            kind: BinKind::Mul,
                            a: src(a),
                            b: src(b),
                        },
                        2,
                    ),
                    Gate::Eq(a, b) => (
                        Op::Bin {
                            dst,
                            kind: BinKind::Eq,
                            a: src(a),
                            b: src(b),
                        },
                        2,
                    ),
                    Gate::Lt(a, b) => (
                        Op::Bin {
                            dst,
                            kind: BinKind::Lt,
                            a: src(a),
                            b: src(b),
                        },
                        2,
                    ),
                    Gate::And(a, b) => (
                        Op::Bin {
                            dst,
                            kind: BinKind::And,
                            a: src(a),
                            b: src(b),
                        },
                        2,
                    ),
                    Gate::Or(a, b) => (
                        Op::Bin {
                            dst,
                            kind: BinKind::Or,
                            a: src(a),
                            b: src(b),
                        },
                        2,
                    ),
                    Gate::Xor(a, b) => (
                        Op::Bin {
                            dst,
                            kind: BinKind::Xor,
                            a: src(a),
                            b: src(b),
                        },
                        2,
                    ),
                    Gate::Not(a) => (Op::Not { dst, a: src(a) }, 1),
                    Gate::Mux(s, a, b) => (
                        Op::Mux {
                            dst,
                            s: src(s),
                            a: src(a),
                            b: src(b),
                        },
                        3,
                    ),
                    Gate::AssertZero(a) => {
                        // Report failures against the SOURCE circuit's
                        // gate numbering when an optimizer mapping exists.
                        let src_gate = origin.and_then(|st| st.origin_of(gi)).unwrap_or(gi);
                        (
                            Op::AssertZero {
                                dst,
                                a: src(a),
                                gate: src_gate,
                            },
                            1,
                        )
                    }
                };
                bytes_per_instance += 8 * (reads + 1);
                tape.push(op);
            }
            level_ranges.push((start, tape.len() as u32));
        }

        let output_regs = c.outputs().iter().map(|&w| reg_of[w as usize]).collect();
        let level_widths = level_ranges.iter().map(|&(s, e)| e - s).collect();
        let stats = EngineStats {
            circuit_size: c.size(),
            circuit_depth: c.depth(),
            circuit_wires: n,
            optimized_size: c.size(),
            optimized_depth: c.depth(),
            opt: None,
            tape_len: tape.len(),
            peak_registers: num_regs as usize,
            num_levels: level_ranges.len(),
            level_widths,
            gate_counts,
            bytes_per_instance,
        };
        Ok(CompiledCircuit {
            tape,
            level_ranges,
            output_regs,
            num_inputs: c.num_inputs(),
            num_regs: num_regs as usize,
            stats,
        })
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

    /// Evaluates a batch of instances through one tape pass
    /// (structure-of-arrays: every register holds one lane per
    /// instance). Each instance gets exactly the result
    /// [`Circuit::evaluate`] would give it: outputs on success, or the
    /// lowest-index failing assertion.
    pub fn evaluate_batch<I: AsRef<[u64]>>(
        &self,
        instances: &[I],
    ) -> Vec<Result<Vec<u64>, EvalError>> {
        self.evaluate_batch_metered(instances, 1).0
    }

    /// Level-parallel batched evaluation: each level's instructions are
    /// split across `threads` workers (one barrier per level — Brent's
    /// PRAM schedule), and every worker processes all lanes of its
    /// instructions. Identical results to [`Self::evaluate_batch`] for
    /// every thread count.
    pub fn evaluate_batch_threaded<I: AsRef<[u64]> + Sync>(
        &self,
        instances: &[I],
        threads: usize,
    ) -> Vec<Result<Vec<u64>, EvalError>> {
        self.evaluate_batch_metered(instances, threads).0
    }

    /// [`Self::evaluate_batch_threaded`] plus wall-clock/traffic
    /// metrics for the call.
    pub fn evaluate_batch_metered<I: AsRef<[u64]>>(
        &self,
        instances: &[I],
        threads: usize,
    ) -> (Vec<Result<Vec<u64>, EvalError>>, EvalMetrics) {
        assert!(threads >= 1, "at least one worker");
        let start = std::time::Instant::now();
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
            if threads == 1 || self.tape.len() < 4096 {
                self.run_tape_sequential(
                    chunk,
                    &arity_ok,
                    &mut regs[..self.num_regs * b],
                    &mut failures,
                );
            } else {
                self.run_tape_threaded(
                    chunk,
                    &arity_ok,
                    &mut regs[..self.num_regs * b],
                    &mut failures,
                    threads,
                );
            }

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

        let metrics = EvalMetrics {
            instances: instances.len(),
            threads,
            eval_ns: start.elapsed().as_nanos(),
            gate_evals: (self.tape.len() * instances.len()) as u64,
            bytes_touched: self.stats.bytes_per_instance * instances.len() as u64,
        };
        (results, metrics)
    }

    fn run_tape_sequential<I: AsRef<[u64]>>(
        &self,
        instances: &[I],
        arity_ok: &[bool],
        regs: &mut [u64],
        failures: &mut [(u32, u64)],
    ) {
        // Monomorphize the hot tile widths: with a compile-time lane
        // count the per-lane loops in `exec_op` unroll and vectorize.
        match instances.len() {
            8 => self.run_tape_mono::<I, 8>(instances, arity_ok, regs, failures),
            16 => self.run_tape_mono::<I, 16>(instances, arity_ok, regs, failures),
            32 => self.run_tape_mono::<I, 32>(instances, arity_ok, regs, failures),
            64 => self.run_tape_mono::<I, 64>(instances, arity_ok, regs, failures),
            b => {
                for op in &self.tape {
                    // SAFETY: `exec_op` only requires that the instruction's
                    // destination register differ from its source registers,
                    // which the allocator guarantees (frees happen strictly at
                    // level boundaries).
                    unsafe { exec_op(op, regs.as_mut_ptr(), b, instances, arity_ok, failures) };
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
        for op in &self.tape {
            // SAFETY: as in the dynamic-width loop above; `exec_op` is
            // `inline(always)`, so `B` reaches its lane loops as a
            // constant.
            unsafe { exec_op(op, regs.as_mut_ptr(), B, instances, arity_ok, failures) };
        }
    }

    fn run_tape_threaded<I: AsRef<[u64]>>(
        &self,
        instances: &[I],
        arity_ok: &[bool],
        regs: &mut [u64],
        failures: &mut [(u32, u64)],
        threads: usize,
    ) {
        let b = instances.len();
        // Level 0 (input gathers and constant fills) runs inline: it is
        // a cheap copy pass, and keeping it here means worker threads
        // never see the caller's instance type (no `Sync` bound) and
        // the levels they do run contain no `Op::Input`/`Op::Const`.
        let (s0, e0) = self.level_ranges[0];
        for op in &self.tape[s0 as usize..e0 as usize] {
            // SAFETY: see `run_tape_sequential`.
            unsafe { exec_op(op, regs.as_mut_ptr(), b, instances, arity_ok, failures) };
        }

        struct RegsPtr(*mut u64);
        // SAFETY token: within one level every instruction writes only
        // its own destination register (distinct per instruction, never
        // aliasing same-level sources), so per-level worker chunks are
        // disjoint writers over the register file.
        unsafe impl Sync for RegsPtr {}
        let ptr = RegsPtr(regs.as_mut_ptr());
        let barrier = std::sync::Barrier::new(threads);
        let merged = std::sync::Mutex::new(failures.to_vec());
        let no_instances: &[&[u64]] = &[];
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let ptr = &ptr;
                let barrier = &barrier;
                let merged = &merged;
                scope.spawn(move || {
                    let mut local: Vec<(u32, u64)> = Vec::new();
                    for &(start, end) in &self.level_ranges[1..] {
                        let len = (end - start) as usize;
                        let chunk = len.div_ceil(threads);
                        let lo = start as usize + (worker * chunk).min(len);
                        let hi = start as usize + ((worker + 1) * chunk).min(len);
                        if local.is_empty()
                            && self.tape[lo..hi]
                                .iter()
                                .any(|op| matches!(op, Op::AssertZero { .. }))
                        {
                            local = vec![(u32::MAX, 0); b];
                        }
                        for op in &self.tape[lo..hi] {
                            // SAFETY: see RegsPtr — destination registers
                            // are uniquely owned within a level and
                            // sources were finalized by earlier levels
                            // (enforced by the barrier below). Levels
                            // ≥ 1 never contain `Op::Input`, so the
                            // empty instance list is never read.
                            unsafe {
                                exec_op(op, ptr.0, b, no_instances, &[], &mut local);
                            }
                        }
                        barrier.wait();
                    }
                    if !local.is_empty() {
                        let mut m = merged.lock().expect("poison-free");
                        for (lane, &(gate, value)) in local.iter().enumerate() {
                            if gate < m[lane].0 {
                                m[lane] = (gate, value);
                            }
                        }
                    }
                });
            }
        });
        failures.copy_from_slice(&merged.into_inner().expect("poison-free"));
    }
}

/// Executes one instruction over all `b` lanes.
///
/// # Safety
/// `regs` must point to a register file of at least `num_regs × b`
/// words, and the instruction's destination register must be distinct
/// from its source registers (guaranteed by the compiler's
/// level-boundary register allocation). Under threading, no other
/// worker may write this instruction's destination concurrently.
#[inline(always)]
unsafe fn exec_op<I: AsRef<[u64]>>(
    op: &Op,
    regs: *mut u64,
    b: usize,
    instances: &[I],
    arity_ok: &[bool],
    failures: &mut [(u32, u64)],
) {
    let lanes = |r: Reg| -> &[u64] { std::slice::from_raw_parts(regs.add(r as usize * b), b) };
    let lanes_mut =
        |r: Reg| -> &mut [u64] { std::slice::from_raw_parts_mut(regs.add(r as usize * b), b) };
    match *op {
        Op::Input { dst, idx } => {
            let d = lanes_mut(dst);
            for (lane, inst) in instances.iter().enumerate() {
                d[lane] = if arity_ok[lane] {
                    inst.as_ref()[idx as usize]
                } else {
                    0
                };
            }
        }
        Op::Const { dst, v } => lanes_mut(dst).fill(v),
        Op::Bin {
            dst,
            kind,
            a,
            b: rb,
        } => {
            debug_assert!(dst != a && dst != rb);
            let (d, x, y) = (lanes_mut(dst), lanes(a), lanes(rb));
            match kind {
                BinKind::Add => {
                    for i in 0..b {
                        d[i] = x[i].wrapping_add(y[i]);
                    }
                }
                BinKind::Sub => {
                    for i in 0..b {
                        d[i] = x[i].wrapping_sub(y[i]);
                    }
                }
                BinKind::Mul => {
                    for i in 0..b {
                        d[i] = x[i].wrapping_mul(y[i]);
                    }
                }
                BinKind::Eq => {
                    for i in 0..b {
                        d[i] = u64::from(x[i] == y[i]);
                    }
                }
                BinKind::Lt => {
                    for i in 0..b {
                        d[i] = u64::from(x[i] < y[i]);
                    }
                }
                BinKind::And => {
                    for i in 0..b {
                        d[i] = u64::from(x[i] != 0) & u64::from(y[i] != 0);
                    }
                }
                BinKind::Or => {
                    for i in 0..b {
                        d[i] = u64::from(x[i] != 0) | u64::from(y[i] != 0);
                    }
                }
                BinKind::Xor => {
                    for i in 0..b {
                        d[i] = u64::from(x[i] != 0) ^ u64::from(y[i] != 0);
                    }
                }
            }
        }
        Op::Not { dst, a } => {
            debug_assert!(dst != a);
            let (d, x) = (lanes_mut(dst), lanes(a));
            for i in 0..b {
                d[i] = u64::from(x[i] == 0);
            }
        }
        Op::Mux { dst, s, a, b: rb } => {
            debug_assert!(dst != s && dst != a && dst != rb);
            let (d, sv, x, y) = (lanes_mut(dst), lanes(s), lanes(a), lanes(rb));
            for i in 0..b {
                d[i] = if sv[i] != 0 { x[i] } else { y[i] };
            }
        }
        Op::AssertZero { dst, a, gate } => {
            debug_assert!(dst != a);
            let (d, x) = (lanes_mut(dst), lanes(a));
            for i in 0..b {
                d[i] = 0;
                if x[i] != 0 && gate < failures[i].0 {
                    failures[i] = (gate, x[i]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::CompileOptions;
    use crate::ir::{Builder, Mode};

    fn compile(c: &Circuit) -> Result<CompiledCircuit, EvalError> {
        CompiledCircuit::compile_with(c, &CompileOptions::sequential()).map(|(eng, _)| eng)
    }

    fn adder_chain(n: usize) -> Circuit {
        let mut bld = Builder::new(Mode::Build);
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
        let mut bld = Builder::new(Mode::Build);
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
        let mut bld = Builder::new(Mode::Build);
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
    fn count_only_circuits_do_not_compile() {
        let mut bld = Builder::new(Mode::Count);
        let x = bld.input();
        let y = bld.not(x);
        let c = bld.finish(vec![y]);
        assert!(matches!(compile(&c), Err(EvalError::CountOnly)));
    }

    #[test]
    fn empty_circuit_evaluates_to_nothing() {
        let bld = Builder::new(Mode::Build);
        let c = bld.finish(vec![]);
        let eng = compile(&c).unwrap();
        assert_eq!(eng.evaluate(&[]), Ok(vec![]));
    }

    #[test]
    fn threaded_path_matches_sequential() {
        // Wide circuit, big enough (> 4096 instructions) that
        // `evaluate_batch_threaded` actually spawns workers; includes
        // assertions so the failure-merge path runs under threads too.
        let mut bld = Builder::new(Mode::Build);
        let xs: Vec<_> = (0..64).map(|_| bld.input()).collect();
        let mut layer = xs;
        for _ in 0..80 {
            layer = (0..layer.len())
                .map(|i| bld.add(layer[i], layer[(i + 1) % layer.len()]))
                .collect();
        }
        for &w in layer.iter().take(8) {
            let z = bld.eq(w, w); // 1
            let nz = bld.not(z); // 0
            bld.assert_zero(nz); // never fires
        }
        for &x in &layer {
            bld.assert_zero(x); // fires whenever the sum is nonzero
        }
        let c = bld.finish(layer.clone());
        let eng = compile(&c).unwrap();
        assert!(
            eng.stats().tape_len >= 4096,
            "test must exercise the threaded path"
        );
        assert!(eng.stats().peak_registers < c.num_wires());
        let instances: Vec<Vec<u64>> = (0..9)
            .map(|i| (0..64).map(|j| i * j % 5).collect())
            .collect();
        let seq = eng.evaluate_batch(&instances);
        for (inst, got) in instances.iter().zip(&seq) {
            assert_eq!(
                *got,
                c.evaluate(inst),
                "sequential batch matches interpreter"
            );
        }
        for threads in [2, 3, 8] {
            assert_eq!(
                eng.evaluate_batch_threaded(&instances, threads),
                seq,
                "{threads}"
            );
        }
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
        let (_, m) = eng.evaluate_batch_metered(&[vec![1u64, 2]], 1);
        assert_eq!(m.instances, 1);
        assert_eq!(m.gate_evals, s.tape_len as u64);
        assert!(m.eval_ns > 0);
    }
}
