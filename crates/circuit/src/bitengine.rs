//! Bitsliced transposed evaluation of the bit-level circuit.
//!
//! [`BitCircuit::evaluate`](crate::lower::BitCircuit::evaluate) walks one
//! `bool` per wire per instance. The lowered circuit is pure
//! AND/XOR/NOT over GF(2), so a machine word can carry one *instance*
//! per bit instead: transpose the input batch (bit-matrix transpose,
//! instances across lanes), keep one word per live wire, and every
//! scalar `&`/`^`/`!` evaluates the gate for 64 instances at once — 256
//! or 512 with the AVX2/AVX-512 kernels.
//!
//! The compile step mirrors the word engine's
//! ([`CompiledCircuit`](crate::CompiledCircuit)) exactly:
//!
//! 1. **Liveness.** The last level reading each wire is computed in one
//!    pass; output wires are pinned.
//! 2. **Level-major tape.** Gates are emitted level by level (the same
//!    scheduling levels the parallel lowering uses), so operands always
//!    sit at strictly lower levels than their consumers.
//! 3. **Register allocation.** Registers are freed only at level
//!    boundaries — a level's destinations can never alias its sources —
//!    shrinking the wire store from `O(gates)` words to `O(peak live
//!    width)` registers per lane-word.
//!
//! Dispatch follows the word engine's idiom: a monomorphized
//! `#[inline(always)]` body generic over the words-per-register count
//! `W`, wrapped by `#[target_feature]`-gated entry points selected once
//! per batch via `is_x86_feature_detected!`. `QEC_BITENGINE_KERNEL`
//! (`scalar`/`avx2`/`avx512`) forces a kernel for A/B measurements.
//!
//! Assertion semantics match the interpreter: per lane, the *lowest*
//! source gate index whose [`BGate::AssertFalse`] observed a set bit is
//! reported, which equals the first assert a sequential walk would hit.
//! Padding lanes (batch not a multiple of the lane count) are masked
//! out of assertion checks, so an all-ones constant can never fire an
//! assert for an instance that does not exist.

use crate::driver::{CompileOptions, PipelineReport};
use crate::lower::{BGate, BitCircuit};
use crate::EvalError;
use std::time::Instant;

/// Register index on the bit tape (one transposed word — or W words —
/// per register).
pub type BitReg = u32;

/// One instruction of the register-allocated transposed tape. Public so
/// `qec-mpc` can drive the same tape with secret-shared register files
/// (the GMW local-computation inner loop walks these ops verbatim).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BitOp {
    /// `dst ← inputs[idx]` (a transposed word: bit *l* is instance
    /// *l*'s value for input `idx`).
    Input {
        /// Destination register.
        dst: BitReg,
        /// Input bit index.
        idx: u32,
    },
    /// `dst ← v` broadcast across all lanes.
    Const {
        /// Destination register.
        dst: BitReg,
        /// Constant value.
        v: bool,
    },
    /// `dst ← a ^ b`.
    Xor {
        /// Destination register.
        dst: BitReg,
        /// Left operand register.
        a: BitReg,
        /// Right operand register.
        b: BitReg,
    },
    /// `dst ← a & b`.
    And {
        /// Destination register.
        dst: BitReg,
        /// Left operand register.
        a: BitReg,
        /// Right operand register.
        b: BitReg,
    },
    /// `dst ← !a`.
    Not {
        /// Destination register.
        dst: BitReg,
        /// Operand register.
        a: BitReg,
    },
    /// Record `gate` for every valid lane with a set bit in `a`, then
    /// `dst ← 0` (the assert's wire reads as `false` downstream, like
    /// the interpreter).
    AssertFalse {
        /// Destination register.
        dst: BitReg,
        /// Observed register.
        a: BitReg,
        /// Source gate index (for [`EvalError::AssertionFailed`]).
        gate: u32,
    },
}

/// Which packed kernel evaluates the tape. Wider kernels process more
/// transposed words per instruction; all three are bit-for-bit
/// equivalent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BitKernel {
    /// One `u64` per register: 64 instances per scalar op.
    Scalar,
    /// Four words per register, compiled with AVX2 enabled: 256 lanes.
    Avx2,
    /// Eight words per register, compiled with AVX-512 enabled: 512
    /// lanes.
    Avx512,
}

impl BitKernel {
    /// The widest kernel the running CPU supports.
    pub fn detect() -> BitKernel {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
            {
                return BitKernel::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return BitKernel::Avx2;
            }
        }
        BitKernel::Scalar
    }

    /// [`BitKernel::detect`], overridable via `QEC_BITENGINE_KERNEL`
    /// (`scalar`, `avx2`, `avx512`). An override naming an unsupported
    /// kernel falls back to detection with a one-line stderr warning
    /// rather than crashing in an illegal instruction.
    pub fn from_env_or_detect() -> BitKernel {
        let detected = BitKernel::detect();
        match std::env::var("QEC_BITENGINE_KERNEL") {
            Ok(s) => {
                let want = match s.trim().to_ascii_lowercase().as_str() {
                    "scalar" => Some(BitKernel::Scalar),
                    "avx2" => Some(BitKernel::Avx2),
                    "avx512" => Some(BitKernel::Avx512),
                    _ => None,
                };
                match want {
                    Some(k) if k.is_available() => k,
                    Some(k) => {
                        eprintln!(
                            "qec-circuit: QEC_BITENGINE_KERNEL={} unavailable on this CPU; \
                             using {}",
                            k.name(),
                            detected.name()
                        );
                        detected
                    }
                    None => {
                        eprintln!(
                            "qec-circuit: unrecognized QEC_BITENGINE_KERNEL={s:?} \
                             (expected scalar|avx2|avx512); using {}",
                            detected.name()
                        );
                        detected
                    }
                }
            }
            Err(_) => detected,
        }
    }

    /// Whether this CPU can run the kernel.
    pub fn is_available(self) -> bool {
        match self {
            BitKernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            BitKernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            BitKernel::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// All kernels this CPU can run (always includes `Scalar`).
    pub fn available() -> Vec<BitKernel> {
        [BitKernel::Scalar, BitKernel::Avx2, BitKernel::Avx512]
            .into_iter()
            .filter(|k| k.is_available())
            .collect()
    }

    /// Instances evaluated per tape instruction.
    pub fn lanes(self) -> usize {
        self.words() * 64
    }

    /// Transposed `u64` words per register.
    pub fn words(self) -> usize {
        match self {
            BitKernel::Scalar => 1,
            BitKernel::Avx2 => 4,
            BitKernel::Avx512 => 8,
        }
    }

    /// Stable lowercase name (matches the env-override spelling).
    pub fn name(self) -> &'static str {
        match self {
            BitKernel::Scalar => "scalar",
            BitKernel::Avx2 => "avx2",
            BitKernel::Avx512 => "avx512",
        }
    }
}

/// Compile-time facts about a bit tape.
#[derive(Clone, Debug, Default)]
pub struct BitEngineStats {
    /// Gates in the source [`BitCircuit`] (including inputs/constants).
    pub circuit_gates: usize,
    /// Instructions on the tape (equals `circuit_gates`; nothing is
    /// dropped, only re-ordered and register-renamed).
    pub tape_len: usize,
    /// Peak simultaneously-live registers — words of state *per lane
    /// word* the kernel touches.
    pub peak_registers: usize,
    /// Scheduling levels (operands always at strictly lower levels).
    pub num_levels: usize,
    /// Levels containing at least one AND instruction — the number of
    /// communication rounds a level-batched GMW evaluation of this tape
    /// needs. Under [`CompiledBitCircuit::compile_gmw`] this equals the
    /// circuit's multiplicative (AND) depth; under the default schedule
    /// it can be larger (XOR/NOT levels split AND generations).
    pub and_levels: usize,
    /// AND instructions (one packed Beaver triple each under GMW).
    pub and_ops: u64,
    /// XOR instructions (local/free under GMW).
    pub xor_ops: u64,
    /// NOT instructions (local/free under GMW).
    pub not_ops: u64,
    /// Assert instructions.
    pub assert_ops: u64,
}

/// Reusable buffers for batch evaluation, so repeated calls (the
/// fuzzer's per-case checks, the MPC inner loop, benches) stop
/// thrashing the allocator. Obtain via [`CompiledBitCircuit::scratch`];
/// a scratch may be shared across circuits — buffers regrow on demand.
#[derive(Default)]
pub struct BitScratch {
    /// Transposed input matrix: `num_inputs × W` words.
    packed: Vec<u64>,
    /// Register file: `num_regs × W` words.
    regs: Vec<u64>,
    /// Per-lane lowest failing assert gate (`u32::MAX` = none).
    fail: Vec<u32>,
    /// Per-lane-word mask of lanes that hold a real instance.
    valid: Vec<u64>,
}

/// A [`BitCircuit`] register-allocated onto a transposed level-major
/// tape, ready for bitsliced batch evaluation. Build one with
/// [`compile_bits_with`].
pub struct CompiledBitCircuit {
    tape: Vec<BitOp>,
    /// Tape offset where each level begins, plus a final sentinel:
    /// level `l` spans `tape[level_starts[l] .. level_starts[l + 1]]`.
    level_starts: Vec<u32>,
    output_regs: Vec<BitReg>,
    num_regs: u32,
    num_inputs: usize,
    width: u32,
    stats: BitEngineStats,
    kernel: BitKernel,
}

/// Compiles `bc` onto the transposed tape under `opts`: validates when
/// `opts.validate` is set, records a `bitengine.compile` span plus
/// `bitengine.peak_registers` / `bitengine.tape_words` /
/// `bitengine.lanes` gauges on the effective recorder, and returns the
/// engine with a per-stage [`PipelineReport`].
///
/// The tape covers `bc` **exactly as given** — run
/// [`optimize_bits_with`](crate::optimize_bits_with) first if you want
/// the optimized circuit; compiling does not re-optimize, so failing
/// asserts keep reporting gate indices of the circuit you passed in.
pub fn compile_bits_with(
    bc: &BitCircuit,
    opts: &CompileOptions,
) -> Result<(CompiledBitCircuit, PipelineReport), EvalError> {
    if opts.validate {
        crate::validate::validate_bits(bc).map_err(EvalError::Invalid)?;
    }
    let recorder = opts.effective_recorder();
    let root = recorder.span("bitengine.compile");
    let t_total = Instant::now();

    let t = Instant::now();
    let eng = CompiledBitCircuit::compile(bc);
    let stages = vec![("bit-tape", t.elapsed().as_nanos() as u64)];

    if recorder.is_enabled() {
        recorder.gauge_max("bitengine.peak_registers", eng.stats.peak_registers as u64);
        recorder.gauge_max("bitengine.tape_words", eng.stats.tape_len as u64);
        recorder.gauge_max("bitengine.lanes", eng.kernel.lanes() as u64);
    }
    drop(root);
    let report = PipelineReport {
        stages,
        total_ns: t_total.elapsed().as_nanos() as u64,
        opt: None,
        recorder,
    };
    Ok((eng, report))
}

impl CompiledBitCircuit {
    /// Register-allocates `bc` onto the tape with the auto-detected
    /// kernel (overridable per call or via `QEC_BITENGINE_KERNEL`).
    /// Infallible: every [`BitCircuit`] is evaluable.
    pub fn compile(bc: &BitCircuit) -> CompiledBitCircuit {
        Self::compile_with_levels(bc, crate::lower::bit_levels(bc.gates()))
    }

    /// [`CompiledBitCircuit::compile`] under the GMW round schedule:
    /// gates are grouped by *AND depth* rather than scheduling depth, so
    /// every level either consists solely of AND gates of one
    /// multiplicative generation or contains no ANDs at all. A
    /// level-batched GMW evaluation of this tape exchanges exactly one
    /// message per AND-bearing level — [`BitEngineStats::and_levels`]
    /// equals [`BitCircuit::and_depth`], the protocol's round-optimal
    /// count. Plaintext evaluation semantics are identical to
    /// [`CompiledBitCircuit::compile`] (any topological level partition
    /// evaluates the same circuit); only instruction order, register
    /// assignment, and the level structure differ.
    pub fn compile_gmw(bc: &BitCircuit) -> CompiledBitCircuit {
        Self::compile_with_levels(bc, gmw_levels(bc.gates()))
    }

    /// Shared compile body over an arbitrary level partition. `levels`
    /// must be topological: every operand strictly below its consumer —
    /// the register allocator frees only at level boundaries and relies
    /// on a level's destinations never aliasing its sources.
    fn compile_with_levels(bc: &BitCircuit, levels: Vec<Vec<u32>>) -> CompiledBitCircuit {
        let gates = bc.gates();
        let n = gates.len();

        // --- liveness: last level reading each wire (u32::MAX = pinned) ---
        const PINNED: u32 = u32::MAX;
        let mut level_of = vec![0u32; n];
        for (d, members) in levels.iter().enumerate() {
            for &gi in members {
                level_of[gi as usize] = d as u32;
            }
        }
        let mut last_use = vec![0u32; n];
        for (i, g) in gates.iter().enumerate() {
            // a wire nobody reads dies at its own definition level
            let d = level_of[i];
            last_use[i] = last_use[i].max(d);
            match *g {
                BGate::Xor(a, b) | BGate::And(a, b) => {
                    last_use[a as usize] = last_use[a as usize].max(d);
                    last_use[b as usize] = last_use[b as usize].max(d);
                }
                BGate::Not(a) | BGate::AssertFalse(a) => {
                    last_use[a as usize] = last_use[a as usize].max(d);
                }
                BGate::Input(_) | BGate::Const(_) => {}
            }
        }
        for &w in bc.outputs() {
            last_use[w as usize] = PINNED;
        }

        // --- register allocation, freeing only at level boundaries so a
        //     level's destinations can never alias its sources ---
        let mut reg_of = vec![u32::MAX; n];
        let mut free: Vec<BitReg> = Vec::new();
        let mut expire_at: Vec<Vec<BitReg>> = vec![Vec::new(); levels.len() + 1];
        let mut num_regs = 0u32;
        let mut tape = Vec::with_capacity(n);
        let mut level_starts = Vec::with_capacity(levels.len() + 1);
        let mut stats = BitEngineStats {
            circuit_gates: n,
            num_levels: levels.len(),
            ..BitEngineStats::default()
        };

        for (level, members) in levels.iter().enumerate() {
            level_starts.push(tape.len() as u32);
            let ands_before = stats.and_ops;
            for &r in &expire_at[level] {
                free.push(r);
            }
            for &gi in members {
                let g = gates[gi as usize];
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
                let src = |w: u32| -> BitReg {
                    debug_assert_ne!(reg_of[w as usize], u32::MAX, "operand compiled first");
                    reg_of[w as usize]
                };
                let op = match g {
                    BGate::Input(idx) => BitOp::Input {
                        dst,
                        idx: idx as u32,
                    },
                    BGate::Const(v) => BitOp::Const { dst, v },
                    BGate::Xor(a, b) => {
                        stats.xor_ops += 1;
                        BitOp::Xor {
                            dst,
                            a: src(a),
                            b: src(b),
                        }
                    }
                    BGate::And(a, b) => {
                        stats.and_ops += 1;
                        BitOp::And {
                            dst,
                            a: src(a),
                            b: src(b),
                        }
                    }
                    BGate::Not(a) => {
                        stats.not_ops += 1;
                        BitOp::Not { dst, a: src(a) }
                    }
                    BGate::AssertFalse(a) => {
                        stats.assert_ops += 1;
                        BitOp::AssertFalse {
                            dst,
                            a: src(a),
                            gate: gi,
                        }
                    }
                };
                tape.push(op);
            }
            if stats.and_ops > ands_before {
                stats.and_levels += 1;
            }
        }
        level_starts.push(tape.len() as u32);
        stats.tape_len = tape.len();
        stats.peak_registers = num_regs as usize;

        let output_regs = bc.outputs().iter().map(|&w| reg_of[w as usize]).collect();
        CompiledBitCircuit {
            tape,
            level_starts,
            output_regs,
            num_regs,
            num_inputs: bc.num_inputs(),
            width: bc.width(),
            stats,
            kernel: BitKernel::from_env_or_detect(),
        }
    }

    /// Compile-time stats (tape length, peak registers, op mix).
    pub fn stats(&self) -> &BitEngineStats {
        &self.stats
    }

    /// The kernel batch entry points use unless overridden per call.
    pub fn kernel(&self) -> BitKernel {
        self.kernel
    }

    /// Replaces the default kernel (no-op with a stderr warning if the
    /// CPU lacks it). Returns `self` for builder-style chaining.
    pub fn with_kernel(mut self, kernel: BitKernel) -> Self {
        if kernel.is_available() {
            self.kernel = kernel;
        } else {
            eprintln!(
                "qec-circuit: BitKernel::{kernel:?} unavailable on this CPU; keeping {}",
                self.kernel.name()
            );
        }
        self
    }

    /// The register-allocated instruction tape, in execution order.
    /// `qec-mpc` walks this to evaluate the same schedule over
    /// secret-shared register files.
    pub fn ops(&self) -> &[BitOp] {
        &self.tape
    }

    /// Tape offsets of the scheduling levels plus a final sentinel:
    /// level `l` spans `ops()[level_starts()[l] as usize ..
    /// level_starts()[l + 1] as usize]`. Operands of every instruction
    /// sit at strictly lower levels, which is what lets a GMW session
    /// batch all AND openings of one level into a single message.
    pub fn level_starts(&self) -> &[u32] {
        &self.level_starts
    }

    /// Structural fingerprint of the compiled tape (FNV-1a-64 over the
    /// instruction stream, output registers, and input arity). Two
    /// parties that compiled the same [`BitCircuit`] with the same
    /// schedule get the same fingerprint — the networked GMW handshake
    /// compares these before spending any triples.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.tape.len() * 13 + 16);
        for op in &self.tape {
            match *op {
                BitOp::Input { dst, idx } => {
                    bytes.push(0);
                    bytes.extend_from_slice(&dst.to_le_bytes());
                    bytes.extend_from_slice(&idx.to_le_bytes());
                }
                BitOp::Const { dst, v } => {
                    bytes.push(1);
                    bytes.extend_from_slice(&dst.to_le_bytes());
                    bytes.push(v as u8);
                }
                BitOp::Xor { dst, a, b } => {
                    bytes.push(2);
                    bytes.extend_from_slice(&dst.to_le_bytes());
                    bytes.extend_from_slice(&a.to_le_bytes());
                    bytes.extend_from_slice(&b.to_le_bytes());
                }
                BitOp::And { dst, a, b } => {
                    bytes.push(3);
                    bytes.extend_from_slice(&dst.to_le_bytes());
                    bytes.extend_from_slice(&a.to_le_bytes());
                    bytes.extend_from_slice(&b.to_le_bytes());
                }
                BitOp::Not { dst, a } => {
                    bytes.push(4);
                    bytes.extend_from_slice(&dst.to_le_bytes());
                    bytes.extend_from_slice(&a.to_le_bytes());
                }
                BitOp::AssertFalse { dst, a, gate } => {
                    bytes.push(5);
                    bytes.extend_from_slice(&dst.to_le_bytes());
                    bytes.extend_from_slice(&a.to_le_bytes());
                    bytes.extend_from_slice(&gate.to_le_bytes());
                }
            }
        }
        for &r in &self.output_regs {
            bytes.extend_from_slice(&r.to_le_bytes());
        }
        bytes.extend_from_slice(&(self.num_inputs as u64).to_le_bytes());
        bytes.extend_from_slice(&self.num_regs.to_le_bytes());
        crate::tape::fnv1a64(&bytes)
    }

    /// Registers the kernel needs (`num_regs × words` scratch words).
    pub fn num_regs(&self) -> u32 {
        self.num_regs
    }

    /// Output wires as register indices, in output order.
    pub fn output_regs(&self) -> &[BitReg] {
        &self.output_regs
    }

    /// Input bits each instance must supply.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Bit width of the word-level circuit this was lowered from.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// A fresh reusable scratch sized lazily on first use.
    pub fn scratch(&self) -> BitScratch {
        BitScratch::default()
    }

    /// Evaluates a batch of bit-vector instances, one `Result` per
    /// instance in order — outputs on success, per-instance
    /// [`EvalError::InputArity`] / [`EvalError::AssertionFailed`] (with
    /// the interpreter's gate index) on failure. Allocates fresh
    /// scratch; prefer [`evaluate_batch_with`] in loops.
    ///
    /// [`evaluate_batch_with`]: CompiledBitCircuit::evaluate_batch_with
    pub fn evaluate_batch(&self, instances: &[Vec<bool>]) -> Vec<Result<Vec<bool>, EvalError>> {
        self.evaluate_batch_with(instances, &mut self.scratch())
    }

    /// [`evaluate_batch`](CompiledBitCircuit::evaluate_batch) with
    /// caller-owned scratch buffers.
    pub fn evaluate_batch_with(
        &self,
        instances: &[Vec<bool>],
        scratch: &mut BitScratch,
    ) -> Vec<Result<Vec<bool>, EvalError>> {
        self.evaluate_batch_kernel(instances, self.kernel, scratch)
    }

    /// [`evaluate_batch`](CompiledBitCircuit::evaluate_batch) with an
    /// explicit kernel — the A/B hook for parity tests and the X21
    /// speedup table. Falls back to the widest available kernel if the
    /// CPU lacks the requested one.
    pub fn evaluate_batch_kernel(
        &self,
        instances: &[Vec<bool>],
        kernel: BitKernel,
        scratch: &mut BitScratch,
    ) -> Vec<Result<Vec<bool>, EvalError>> {
        let kernel = if kernel.is_available() {
            kernel
        } else {
            BitKernel::detect()
        };
        let w = kernel.words();
        let lanes = kernel.lanes();
        let mut results = Vec::with_capacity(instances.len());
        for block in instances.chunks(lanes) {
            self.run_block(block, kernel, scratch);
            for (l, inst) in block.iter().enumerate() {
                if inst.len() != self.num_inputs {
                    results.push(Err(EvalError::InputArity {
                        expected: self.num_inputs,
                        got: inst.len(),
                    }));
                    continue;
                }
                let gate = scratch.fail[l];
                if gate != u32::MAX {
                    results.push(Err(EvalError::AssertionFailed {
                        gate: gate as usize,
                        value: 1,
                    }));
                    continue;
                }
                let out = self
                    .output_regs
                    .iter()
                    .map(|&r| scratch.regs[r as usize * w + l / 64] >> (l % 64) & 1 == 1)
                    .collect();
                results.push(Ok(out));
            }
        }
        results
    }

    /// Packs one block (≤ `kernel.lanes()` instances) and runs the tape.
    /// After return, `scratch.regs`/`scratch.fail` hold the block state.
    fn run_block(&self, block: &[Vec<bool>], kernel: BitKernel, scratch: &mut BitScratch) {
        let w = kernel.words();
        pack_block(block, self.num_inputs, w, &mut scratch.packed);
        scratch.valid.clear();
        for word in 0..w {
            let lo = word * 64;
            scratch.valid.push(valid_mask(block.len(), lo));
        }
        scratch.regs.clear();
        scratch.regs.resize(self.num_regs as usize * w, 0);
        scratch.fail.clear();
        scratch.fail.resize(kernel.lanes(), u32::MAX);
        match kernel {
            BitKernel::Scalar => run_tape_body::<1>(
                &self.tape,
                &mut scratch.regs,
                &scratch.packed,
                &scratch.valid,
                &mut scratch.fail,
            ),
            #[cfg(target_arch = "x86_64")]
            BitKernel::Avx2 => unsafe {
                run_tape_avx2(
                    &self.tape,
                    &mut scratch.regs,
                    &scratch.packed,
                    &scratch.valid,
                    &mut scratch.fail,
                )
            },
            #[cfg(target_arch = "x86_64")]
            BitKernel::Avx512 => unsafe {
                run_tape_avx512(
                    &self.tape,
                    &mut scratch.regs,
                    &scratch.packed,
                    &scratch.valid,
                    &mut scratch.fail,
                )
            },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("wide kernels are never available off x86_64"),
        }
    }
}

/// Groups bit gates into the GMW round schedule: pure-AND levels, one
/// per multiplicative generation, interleaved with local (XOR/NOT/
/// assert/input/const) levels.
///
/// Let `ad(g)` be the AND depth (inputs/constants 0, XOR/NOT/assert
/// transparent, AND = max of operands + 1) and `D` the circuit's AND
/// depth. The schedule is
///
/// ```text
/// locals(ad=0) · ANDs(ad=1) · locals(ad=1) · … · ANDs(ad=D) · locals(ad=D)
/// ```
///
/// where each `locals(ad=r)` block is further split into dependency
/// sub-levels (an XOR chain inside one generation still needs its
/// operands at strictly lower levels). Exactly `D` levels contain ANDs:
/// an AND of generation `r` reads only wires of generation `< r`, so
/// every generation's openings fit in one message — the textbook
/// GMW round complexity.
fn gmw_levels(gates: &[BGate]) -> Vec<Vec<u32>> {
    let n = gates.len();
    // AND depth per gate, and dependency sub-depth within the gate's
    // own generation (non-AND gates only; an operand from an earlier
    // generation — or this generation's AND level — contributes 0).
    let mut ad = vec![0u32; n];
    let mut sd = vec![0u32; n];
    let mut max_ad = 0u32;
    for i in 0..n {
        let contrib = |o: u32, r: u32, ad: &[u32], sd: &[u32]| -> u32 {
            if ad[o as usize] < r || matches!(gates[o as usize], BGate::And(_, _)) {
                0
            } else {
                sd[o as usize] + 1
            }
        };
        match gates[i] {
            BGate::Input(_) | BGate::Const(_) => {}
            BGate::And(a, b) => {
                ad[i] = ad[a as usize].max(ad[b as usize]) + 1;
            }
            BGate::Xor(a, b) => {
                ad[i] = ad[a as usize].max(ad[b as usize]);
                sd[i] = contrib(a, ad[i], &ad, &sd).max(contrib(b, ad[i], &ad, &sd));
            }
            BGate::Not(a) | BGate::AssertFalse(a) => {
                ad[i] = ad[a as usize];
                sd[i] = contrib(a, ad[i], &ad, &sd);
            }
        }
        max_ad = max_ad.max(ad[i]);
    }
    let d = max_ad as usize;

    // Sub-levels each generation's local block needs.
    let mut sub_count = vec![0u32; d + 1];
    for i in 0..n {
        if !matches!(gates[i], BGate::And(_, _)) {
            let r = ad[i] as usize;
            sub_count[r] = sub_count[r].max(sd[i] + 1);
        }
    }
    // Global level index of each generation's local block and AND level.
    let mut local_base = vec![0u32; d + 1];
    let mut and_level = vec![0u32; d + 1]; // index 0 unused
    let mut next = 0u32;
    for r in 0..=d {
        local_base[r] = next;
        next += sub_count[r];
        if r < d {
            and_level[r + 1] = next;
            next += 1;
        }
    }

    let mut levels: Vec<Vec<u32>> = vec![Vec::new(); next as usize];
    for i in 0..n {
        let l = if matches!(gates[i], BGate::And(_, _)) {
            and_level[ad[i] as usize]
        } else {
            local_base[ad[i] as usize] + sd[i]
        };
        levels[l as usize].push(i as u32);
    }
    // A generation with no local gates leaves no slot behind (its
    // sub_count is 0), so every emitted level is non-empty — but an
    // empty circuit yields no levels at all, which the allocator
    // handles.
    debug_assert!(levels.iter().all(|l| !l.is_empty()));
    levels
}

/// Mask of lanes `[lane_base, lane_base + 64)` that index a real
/// instance in a block of `n`.
fn valid_mask(n: usize, lane_base: usize) -> u64 {
    if n >= lane_base + 64 {
        !0
    } else if n <= lane_base {
        0
    } else {
        (1u64 << (n - lane_base)) - 1
    }
}

/// Transposes a block of instances into input-major lane words:
/// `out[idx * words + w]` bit `l` is instance `w*64 + l`'s input `idx`.
/// Instances with the wrong arity contribute zeros (the caller reports
/// their [`EvalError::InputArity`] and never reads their lanes).
fn pack_block(block: &[Vec<bool>], num_inputs: usize, words: usize, out: &mut Vec<u64>) {
    out.clear();
    out.resize(num_inputs * words, 0);
    for (l, inst) in block.iter().enumerate() {
        if inst.len() != num_inputs {
            continue;
        }
        let (word, bit) = (l / 64, l % 64);
        for (idx, &b) in inst.iter().enumerate() {
            if b {
                out[idx * words + word] |= 1u64 << bit;
            }
        }
    }
}

/// Transposes a full batch of equal-arity instances into input-major
/// lane words (`words = batch.len().div_ceil(64)` per input row) — the
/// public bit-matrix transpose, used by `qec-mpc` to pack share
/// vectors. Returns the matrix and its row stride in words.
pub fn pack_instances(instances: &[Vec<bool>], num_inputs: usize) -> (Vec<u64>, usize) {
    let words = instances.len().div_ceil(64).max(1);
    let mut out = vec![0u64; num_inputs * words];
    for (l, inst) in instances.iter().enumerate() {
        debug_assert_eq!(inst.len(), num_inputs, "pack_instances wants equal arity");
        let (word, bit) = (l / 64, l % 64);
        for (idx, &b) in inst.iter().enumerate() {
            if b && idx < num_inputs {
                out[idx * words + word] |= 1u64 << bit;
            }
        }
    }
    (out, words)
}

/// Inverse transpose of [`pack_instances`] for an output matrix laid
/// out `outputs × words`: recovers per-instance bit vectors for the
/// first `lanes` lanes.
pub fn unpack_outputs(
    matrix: &[u64],
    num_outputs: usize,
    words: usize,
    lanes: usize,
) -> Vec<Vec<bool>> {
    (0..lanes)
        .map(|l| {
            (0..num_outputs)
                .map(|o| matrix[o * words + l / 64] >> (l % 64) & 1 == 1)
                .collect()
        })
        .collect()
}

/// The shared kernel body: `W` transposed words per register. The
/// `#[target_feature]` wrappers below monomorphize it under wider ISAs
/// so the fixed-trip-count `W` loops compile to single vector ops.
#[inline(always)]
fn run_tape_body<const W: usize>(
    tape: &[BitOp],
    regs: &mut [u64],
    packed: &[u64],
    valid: &[u64],
    fail: &mut [u32],
) {
    for op in tape {
        match *op {
            BitOp::Input { dst, idx } => {
                let (d, s) = (dst as usize * W, idx as usize * W);
                regs[d..d + W].copy_from_slice(&packed[s..s + W]);
            }
            BitOp::Const { dst, v } => {
                let x = if v { !0u64 } else { 0 };
                let d = dst as usize * W;
                for w in 0..W {
                    regs[d + w] = x;
                }
            }
            BitOp::Xor { dst, a, b } => {
                let (d, ra, rb) = (dst as usize * W, a as usize * W, b as usize * W);
                for w in 0..W {
                    regs[d + w] = regs[ra + w] ^ regs[rb + w];
                }
            }
            BitOp::And { dst, a, b } => {
                let (d, ra, rb) = (dst as usize * W, a as usize * W, b as usize * W);
                for w in 0..W {
                    regs[d + w] = regs[ra + w] & regs[rb + w];
                }
            }
            BitOp::Not { dst, a } => {
                let (d, ra) = (dst as usize * W, a as usize * W);
                for w in 0..W {
                    regs[d + w] = !regs[ra + w];
                }
            }
            BitOp::AssertFalse { dst, a, gate } => {
                let (d, ra) = (dst as usize * W, a as usize * W);
                for w in 0..W {
                    let mut m = regs[ra + w] & valid[w];
                    while m != 0 {
                        let lane = w * 64 + m.trailing_zeros() as usize;
                        if gate < fail[lane] {
                            fail[lane] = gate;
                        }
                        m &= m - 1;
                    }
                    regs[d + w] = 0;
                }
            }
        }
    }
}

/// # Safety
/// Caller must have verified AVX2 support (`BitKernel::Avx2.is_available()`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_tape_avx2(
    tape: &[BitOp],
    regs: &mut [u64],
    packed: &[u64],
    valid: &[u64],
    fail: &mut [u32],
) {
    run_tape_body::<4>(tape, regs, packed, valid, fail)
}

/// # Safety
/// Caller must have verified AVX-512 support
/// (`BitKernel::Avx512.is_available()`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn run_tape_avx512(
    tape: &[BitOp],
    regs: &mut [u64],
    packed: &[u64],
    valid: &[u64],
    fail: &mut [u32],
) {
    run_tape_body::<8>(tape, regs, packed, valid, fail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lower_with, Builder, Mode};

    fn sample_bits() -> BitCircuit {
        let mut b = Builder::new(Mode::Build);
        let x = b.input();
        let y = b.input();
        let s = b.add(x, y);
        let p = b.mul(s, x);
        let e = b.eq(p, y);
        let c = b.finish(vec![s, p, e]);
        lower_with(&c, 8, &CompileOptions::sequential())
    }

    #[test]
    fn batch_matches_interpreter() {
        let bits = sample_bits();
        let eng = CompiledBitCircuit::compile(&bits);
        assert!(eng.stats().peak_registers <= bits.gates().len());
        let instances: Vec<Vec<bool>> = (0..130u64)
            .map(|i| bits.pack_inputs(&[i % 17, i * 3 % 23]))
            .collect();
        let got = eng.evaluate_batch(&instances);
        for (inst, r) in instances.iter().zip(&got) {
            assert_eq!(r, &bits.evaluate(inst));
        }
    }

    #[test]
    fn arity_errors_are_per_lane() {
        let bits = sample_bits();
        let eng = CompiledBitCircuit::compile(&bits);
        let good = bits.pack_inputs(&[3, 4]);
        let bad = vec![true; 3];
        let got = eng.evaluate_batch(&[good.clone(), bad, good]);
        assert!(got[0].is_ok() && got[2].is_ok());
        assert!(matches!(
            got[1],
            Err(EvalError::InputArity {
                expected: _,
                got: 3
            })
        ));
    }

    #[test]
    fn all_kernels_agree() {
        let bits = sample_bits();
        let eng = CompiledBitCircuit::compile(&bits);
        let instances: Vec<Vec<bool>> = (0..513u64)
            .map(|i| bits.pack_inputs(&[i % 29, i % 31]))
            .collect();
        let mut scratch = eng.scratch();
        let base = eng.evaluate_batch_kernel(&instances, BitKernel::Scalar, &mut scratch);
        for k in BitKernel::available() {
            let got = eng.evaluate_batch_kernel(&instances, k, &mut scratch);
            assert_eq!(base, got, "kernel {} diverged", k.name());
        }
    }

    #[test]
    fn gmw_schedule_matches_default_schedule_and_reaches_and_depth() {
        let bits = sample_bits();
        let eng = CompiledBitCircuit::compile(&bits);
        let gmw = CompiledBitCircuit::compile_gmw(&bits);
        // Same circuit, same semantics — only the schedule differs.
        assert_eq!(gmw.stats().tape_len, eng.stats().tape_len);
        assert_eq!(gmw.num_inputs(), eng.num_inputs());
        let instances: Vec<Vec<bool>> = (0..130u64)
            .map(|i| bits.pack_inputs(&[i % 19, i * 5 % 23]))
            .collect();
        assert_eq!(
            gmw.evaluate_batch(&instances),
            eng.evaluate_batch(&instances)
        );
        // The round count: AND-bearing levels == multiplicative depth
        // under the GMW schedule, ≥ it under the scheduling-depth one.
        assert_eq!(gmw.stats().and_levels, bits.and_depth() as usize);
        assert!(eng.stats().and_levels >= gmw.stats().and_levels);
        // Level structure is well-formed and AND levels are pure.
        let starts = gmw.level_starts();
        assert_eq!(starts.len(), gmw.stats().num_levels + 1);
        assert_eq!(*starts.last().unwrap() as usize, gmw.ops().len());
        for l in 0..gmw.stats().num_levels {
            let ops = &gmw.ops()[starts[l] as usize..starts[l + 1] as usize];
            assert!(!ops.is_empty());
            let ands = ops
                .iter()
                .filter(|o| matches!(o, BitOp::And { .. }))
                .count();
            assert!(ands == 0 || ands == ops.len(), "level {l} mixes ANDs");
        }
    }

    #[test]
    fn fingerprints_distinguish_schedules_not_runs() {
        let bits = sample_bits();
        let a = CompiledBitCircuit::compile(&bits);
        let b = CompiledBitCircuit::compile(&bits);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let gmw = CompiledBitCircuit::compile_gmw(&bits);
        assert_eq!(
            gmw.fingerprint(),
            CompiledBitCircuit::compile_gmw(&bits).fingerprint()
        );
        assert_ne!(a.fingerprint(), 0);
    }

    #[test]
    fn pack_unpack_transpose_round_trip() {
        let instances: Vec<Vec<bool>> = (0..67)
            .map(|i| (0..5).map(|j| (i + j) % 3 == 0).collect())
            .collect();
        let (m, words) = pack_instances(&instances, 5);
        assert_eq!(words, 2);
        assert_eq!(unpack_outputs(&m, 5, words, 67), instances);
    }
}
