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
//! The compile step ([`CompiledBitCircuit::compile_gmw`], the one bit
//! compile and the one schedule for plaintext and GMW alike) takes no
//! options: it compiles the circuit exactly as given, which
//! [`BitCircuit::from_raw`](crate::BitCircuit::from_raw) has already
//! checked, so a caller that wants the bit optimizer runs
//! [`optimize_bits_with`](crate::optimize_bits_with) first. It mirrors
//! the word engine's ([`CompiledCircuit`](crate::CompiledCircuit)):
//!
//! 1. **Level-major schedule.** Gates are grouped level by level in the
//!    GMW round schedule — pure-AND levels, one per multiplicative
//!    generation, between local levels — so operands always sit at
//!    strictly lower levels than their consumers and the AND-bearing
//!    levels number exactly the circuit's AND depth. The schedule is
//!    flat and reads the circuit's packed store in gate order only: each
//!    gate's AND depth and sub-depth sit in the spare columns of its
//!    operand slot, then one gate-sized array holds its level, and the
//!    counting sort copies each gate's opcode, id and operands into the
//!    tape slot its instruction will occupy.
//! 2. **Liveness.** One pass turns each gate's level, in place, into
//!    the last level reading its wire; output wires are pinned.
//! 3. **Register allocation.** The tape is walked in order: each slot's
//!    gate id and operand wires are read back and overwritten with the
//!    instruction's register operands, so no gate is looked up by id.
//!    Registers are freed only at level boundaries — a level's
//!    destinations can never alias its sources —
//!    from per-level FIFO expiry lists linked through the registers
//!    (`head`/`tail` per level, `next` per register; a register is on at
//!    most one pending list), shrinking the wire store from `O(gates)`
//!    words to `O(peak live width)` registers per lane-word. Once a wire
//!    has its register, the register overwrites the wire's liveness
//!    entry, so one gate-sized array serves level, last use and register
//!    in turn.
//!
//! The tape is stored packed: one opcode byte and three `u32` operands
//! (`dst, a, b`) per instruction, 13 bytes. [`BitOp`] is its decoded
//! view, which [`CompiledBitCircuit::ops`] yields and the kernels decode
//! inline.
//!
//! Dispatch follows the word engine's idiom: a monomorphized
//! `#[inline(always)]` body generic over the words-per-register count
//! `W`, wrapped by `#[target_feature]`-gated entry points. The kernel is
//! a property of the engine: [`BitKernel::detect`] picks the widest the
//! CPU supports, and [`CompiledBitCircuit::with_kernel`] is the one
//! override (kernel sweeps clone the engine).
//!
//! Assertion semantics match the interpreter: per lane, the *lowest*
//! source gate index whose
//! [`BGate::AssertFalse`](crate::lower::BGate::AssertFalse) observed a
//! set bit is reported, which equals the first assert a sequential walk
//! would hit.
//! Padding lanes (batch not a multiple of the lane count) are masked
//! out of assertion checks, so an all-ones constant can never fire an
//! assert for an instance that does not exist.

use std::ops::Range;
use std::sync::OnceLock;

use crate::lower::BitCircuit;
use crate::tape::Fnv1a64;
use crate::EvalError;

/// Register index on the bit tape (one transposed word — or W words —
/// per register).
pub type BitReg = u32;

/// One instruction of the register-allocated transposed tape, decoded
/// from its packed form (see [`CompiledBitCircuit::ops`]). Public so
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

// Opcodes of the packed tape: the bit store's, so `compile_gmw` copies
// each gate's opcode onto the tape unchanged. The values are the tags the
// fingerprint hashes, so they are fixed.
use crate::lower::bop::{
    AND as OP_AND, ASSERT as OP_ASSERT, CONST as OP_CONST, INPUT as OP_INPUT, NOT as OP_NOT,
    XOR as OP_XOR,
};

impl BitOp {
    /// Decodes a packed instruction: opcode and `[dst, a, b]`, with
    /// `idx`, `v` and `gate` riding in the `a`/`b` slots and unused slots
    /// 0. Inlined into the kernels, where the two matches fold into one
    /// dispatch.
    #[inline(always)]
    fn decode(kind: u8, [dst, a, b]: [u32; 3]) -> BitOp {
        match kind {
            OP_INPUT => BitOp::Input { dst, idx: a },
            OP_CONST => BitOp::Const { dst, v: a != 0 },
            OP_XOR => BitOp::Xor { dst, a, b },
            OP_AND => BitOp::And { dst, a, b },
            OP_NOT => BitOp::Not { dst, a },
            OP_ASSERT => BitOp::AssertFalse { dst, a, gate: b },
            _ => unreachable!("compile_gmw writes only the six opcodes"),
        }
    }
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

    /// Stable lowercase name.
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
    /// needs. The schedule makes this equal the circuit's multiplicative
    /// (AND) depth, [`BitCircuit::and_depth`].
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

/// A [`BitCircuit`] register-allocated onto a transposed level-major
/// tape, ready for bitsliced batch evaluation. Build one with
/// [`CompiledBitCircuit::compile_gmw`].
#[derive(Clone)]
pub struct CompiledBitCircuit {
    /// Opcode of each instruction, in execution order.
    kinds: Vec<u8>,
    /// Operands of each instruction, parallel to `kinds` (see
    /// [`BitOp::decode`]).
    args: Vec<[u32; 3]>,
    /// Tape offset where each level begins, plus a final sentinel:
    /// level `l` spans `level_starts[l] .. level_starts[l + 1]`.
    level_starts: Vec<u32>,
    output_regs: Vec<BitReg>,
    num_regs: u32,
    num_inputs: usize,
    width: u32,
    stats: BitEngineStats,
    kernel: BitKernel,
    /// [`fingerprint`](CompiledBitCircuit::fingerprint), hashed on first
    /// use: the tape never changes after compilation.
    fingerprint: OnceLock<u64>,
}

impl CompiledBitCircuit {
    /// Register-allocates `bc` onto the tape under the GMW round
    /// schedule, with the auto-detected kernel. Gates are grouped by
    /// *AND depth*, so every level either consists solely of AND gates
    /// of one multiplicative generation or contains no ANDs at all. A
    /// level-batched GMW evaluation of this tape exchanges exactly one
    /// message per AND-bearing level — [`BitEngineStats::and_levels`]
    /// equals [`BitCircuit::and_depth`], the protocol's round-optimal
    /// count — and plaintext evaluation walks the same tape.
    /// Infallible: every [`BitCircuit`] is evaluable.
    pub fn compile_gmw(bc: &BitCircuit) -> CompiledBitCircuit {
        // The schedule is topological: every operand strictly below its
        // consumer — the register allocator frees only at level
        // boundaries and relies on a level's destinations never
        // aliasing its sources.
        let store = bc.store();
        let n = store.len();
        // The tape, filled in schedule order by the counting sort: each
        // slot holds its gate's opcode and `[gate id, a, b]` (the source
        // record's operand words) until the allocation pass overwrites
        // the operands with registers.
        let mut kinds = vec![0u8; n];
        let mut args = vec![[0u32; 3]; n];
        let Schedule { starts, level } = gmw_schedule(bc, &mut kinds, &mut args);
        let num_levels = starts.len() - 1;

        // --- liveness, in place: `slot[i]` goes from wire i's level to
        //     the last level reading it (u32::MAX = pinned). Consumers
        //     come after their operands, so `slot[i]` still holds i's own
        //     level when the walk reaches i; a wire nobody reads dies at
        //     its own definition level. ---
        const PINNED: u32 = u32::MAX;
        let mut slot = level;
        for (i, (&op, &[a, b])) in store.ops().iter().zip(store.args()).enumerate() {
            let d = slot[i];
            let reads = match op {
                OP_XOR | OP_AND => [Some(a), Some(b)],
                OP_NOT | OP_ASSERT => [Some(a), None],
                _ => [None, None],
            };
            for o in reads.into_iter().flatten() {
                slot[o as usize] = slot[o as usize].max(d);
            }
        }
        for &w in bc.outputs() {
            slot[w as usize] = PINNED;
        }

        // --- expiries: the registers freed at the start of level l form
        //     a FIFO list from `head[l]` to `tail[l]` through `next`, in
        //     allocation order. A register joins a list when it is
        //     allocated and leaves it when the list is freed, so it is on
        //     at most one list at a time. ---
        const NIL: u32 = u32::MAX;
        let mut head: Vec<BitReg> = vec![NIL; num_levels + 1];
        let mut tail: Vec<BitReg> = vec![NIL; num_levels + 1];
        let mut next: Vec<BitReg> = Vec::new();

        // --- register allocation, in tape order, freeing only at level
        //     boundaries so a level's destinations can never alias its
        //     sources. Once wire i has a register, `slot[i]` holds it. ---
        let mut free: Vec<BitReg> = Vec::new();
        let mut num_regs = 0u32;
        let mut stats = BitEngineStats {
            circuit_gates: n,
            tape_len: n,
            num_levels,
            ..BitEngineStats::default()
        };

        for level in 0..num_levels {
            let ands_before = stats.and_ops;
            let mut r = head[level];
            while r != NIL {
                free.push(r);
                r = next[r as usize];
            }
            let span = starts[level] as usize..starts[level + 1] as usize;
            for (&kind, operands) in kinds[span.clone()].iter().zip(&mut args[span]) {
                let [gi, a, b] = *operands;
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
                let src = |w: u32| -> BitReg { slot[w as usize] };
                // The `[dst, a, b]` layout `BitOp::decode` reads.
                *operands = match kind {
                    OP_XOR => {
                        stats.xor_ops += 1;
                        [dst, src(a), src(b)]
                    }
                    OP_AND => {
                        stats.and_ops += 1;
                        [dst, src(a), src(b)]
                    }
                    OP_NOT => {
                        stats.not_ops += 1;
                        [dst, src(a), 0]
                    }
                    OP_ASSERT => {
                        stats.assert_ops += 1;
                        [dst, src(a), gi]
                    }
                    // An input's index or a constant's value.
                    _ => [dst, a, 0],
                };
            }
            if stats.and_ops > ands_before {
                stats.and_levels += 1;
            }
        }
        stats.peak_registers = num_regs as usize;

        let output_regs = bc.outputs().iter().map(|&w| slot[w as usize]).collect();
        CompiledBitCircuit {
            kinds,
            args,
            // A level's gates are emitted contiguously, so the schedule's
            // offsets are the tape's.
            level_starts: starts,
            output_regs,
            num_regs,
            num_inputs: bc.num_inputs(),
            width: bc.width(),
            stats,
            kernel: BitKernel::detect(),
            fingerprint: OnceLock::new(),
        }
    }

    /// Compile-time stats (tape length, peak registers, op mix).
    pub fn stats(&self) -> &BitEngineStats {
        &self.stats
    }

    /// The kernel [`evaluate_batch`](CompiledBitCircuit::evaluate_batch)
    /// runs on.
    pub fn kernel(&self) -> BitKernel {
        self.kernel
    }

    /// Replaces the detected kernel — the one kernel override; sweeps
    /// use `eng.clone().with_kernel(k)`. A no-op with a stderr warning if
    /// the CPU lacks the kernel. Returns `self` for builder-style
    /// chaining.
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

    /// The register-allocated instructions at tape positions `range`,
    /// decoded, in execution order. `qec-mpc` walks these level by level
    /// (`range` from [`level_starts`](CompiledBitCircuit::level_starts))
    /// to evaluate the same schedule over secret-shared register files.
    /// The whole tape is `0..stats().tape_len`.
    pub fn ops(&self, range: Range<usize>) -> impl ExactSizeIterator<Item = BitOp> + '_ {
        self.kinds[range.clone()]
            .iter()
            .zip(&self.args[range])
            .map(|(&kind, &args)| BitOp::decode(kind, args))
    }

    /// Tape offsets of the scheduling levels plus a final sentinel:
    /// level `l` spans `ops(level_starts()[l] as usize ..
    /// level_starts()[l + 1] as usize)`. Operands of every instruction
    /// sit at strictly lower levels, which is what lets a GMW session
    /// batch all AND openings of one level into a single message.
    pub fn level_starts(&self) -> &[u32] {
        &self.level_starts
    }

    /// Structural fingerprint of the compiled tape (FNV-1a-64 over the
    /// instruction stream, output registers, and input arity). Two
    /// parties that compiled the same [`BitCircuit`] with the same
    /// schedule get the same fingerprint — the networked GMW handshake
    /// compares these before spending any triples. Hashed on the first
    /// call and cached (a clone made after that keeps the value), and
    /// streamed, so no byte image of the tape is ever built.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = Fnv1a64::new();
            for (&kind, &[dst, a, b]) in self.kinds.iter().zip(&self.args) {
                h.write(&[kind]);
                h.write(&dst.to_le_bytes());
                match kind {
                    OP_CONST => h.write(&[a as u8]),
                    OP_INPUT | OP_NOT => h.write(&a.to_le_bytes()),
                    _ => {
                        h.write(&a.to_le_bytes());
                        h.write(&b.to_le_bytes());
                    }
                }
            }
            for &r in &self.output_regs {
                h.write(&r.to_le_bytes());
            }
            h.write(&(self.num_inputs as u64).to_le_bytes());
            h.write(&self.num_regs.to_le_bytes());
            h.finish()
        })
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

    /// Evaluates a batch of bit-vector instances on the engine's kernel,
    /// one `Result` per instance in order — outputs on success,
    /// per-instance [`EvalError::InputArity`] /
    /// [`EvalError::AssertionFailed`] (with the interpreter's gate
    /// index) on failure.
    pub fn evaluate_batch(&self, instances: &[Vec<bool>]) -> Vec<Result<Vec<bool>, EvalError>> {
        let kernel = self.kernel;
        let w = kernel.words();
        let mut results = Vec::with_capacity(instances.len());
        let (mut packed, mut regs, mut fail) = (Vec::new(), Vec::new(), Vec::new());
        for block in instances.chunks(kernel.lanes()) {
            pack_block(block, self.num_inputs, w, &mut packed);
            let valid: Vec<u64> = (0..w)
                .map(|word| valid_mask(block.len(), word * 64))
                .collect();
            regs.clear();
            regs.resize(self.num_regs as usize * w, 0);
            fail.clear();
            fail.resize(kernel.lanes(), u32::MAX);
            self.run_tape(&mut regs, &packed, &valid, &mut fail);
            for (l, inst) in block.iter().enumerate() {
                if inst.len() != self.num_inputs {
                    results.push(Err(EvalError::InputArity {
                        expected: self.num_inputs,
                        got: inst.len(),
                    }));
                    continue;
                }
                let gate = fail[l];
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
                    .map(|&r| regs[r as usize * w + l / 64] >> (l % 64) & 1 == 1)
                    .collect();
                results.push(Ok(out));
            }
        }
        results
    }

    /// Runs the tape over one packed block on the engine's kernel.
    fn run_tape(&self, regs: &mut [u64], packed: &[u64], valid: &[u64], fail: &mut [u32]) {
        match self.kernel {
            BitKernel::Scalar => {
                run_tape_body::<1>(&self.kinds, &self.args, regs, packed, valid, fail)
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the engine's kernel is always available — `detect`
            // and `with_kernel` only ever select one the CPU supports.
            BitKernel::Avx2 => unsafe {
                run_tape_avx2(&self.kinds, &self.args, regs, packed, valid, fail)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as for AVX2.
            BitKernel::Avx512 => unsafe {
                run_tape_avx512(&self.kinds, &self.args, regs, packed, valid, fail)
            },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("wide kernels are never available off x86_64"),
        }
    }
}

/// The GMW round schedule of a gate list in CSR form; the gates
/// themselves sit on the tape [`gmw_schedule`] filled.
struct Schedule {
    /// Tape offset where each level begins, plus a final sentinel.
    starts: Vec<u32>,
    /// Each gate's level.
    level: Vec<u32>,
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
///
/// The store is read in gate order only. Until the sort, `args[i]`
/// holds gate i's AND depth and sub-depth in its spare columns 1 and 2.
/// The counting sort then copies level `l`'s gates, in gate order, to
/// the tape slots `starts[l]..starts[l + 1]`: the opcode to `kinds[p]`
/// and `[gate id, a, b]` to `args[p]`. `kinds` and `args` hold one
/// entry per gate.
fn gmw_schedule(bc: &BitCircuit, kinds: &mut [u8], args: &mut [[u32; 3]]) -> Schedule {
    let store = bc.store();
    let (ops, operands) = (store.ops(), store.args());
    let n = ops.len();
    // AND depth per gate (column 1), and dependency sub-depth within the
    // gate's own generation (column 2, non-AND gates; an AND's is
    // `u32::MAX`). An operand from an earlier generation — or this
    // generation's AND level, whose sub-depth wraps to 0 — contributes 0.
    const AND_SD: u32 = u32::MAX;
    let mut max_ad = 0u32;
    for i in 0..n {
        let [a, b] = operands[i].map(|o| o as usize);
        let contrib = |o: usize, r: u32, args: &[[u32; 3]]| -> u32 {
            let [_, ad, sd] = args[o];
            if ad < r {
                0
            } else {
                sd.wrapping_add(1)
            }
        };
        let (ad, sd) = match ops[i] {
            OP_AND => (args[a][1].max(args[b][1]) + 1, AND_SD),
            OP_XOR => {
                let r = args[a][1].max(args[b][1]);
                (r, contrib(a, r, args).max(contrib(b, r, args)))
            }
            OP_NOT | OP_ASSERT => {
                let r = args[a][1];
                (r, contrib(a, r, args))
            }
            _ => (0, 0),
        };
        args[i] = [0, ad, sd];
        max_ad = max_ad.max(ad);
    }
    let d = max_ad as usize;

    // Sub-levels each generation's local block needs.
    let mut sub_count = vec![0u32; d + 1];
    for &[_, ad, sd] in args.iter() {
        if sd != AND_SD {
            let r = ad as usize;
            sub_count[r] = sub_count[r].max(sd + 1);
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

    // Each gate's level.
    let level: Vec<u32> = args
        .iter()
        .map(|&[_, ad, sd]| {
            let r = ad as usize;
            if sd == AND_SD {
                and_level[r]
            } else {
                local_base[r] + sd
            }
        })
        .collect();
    debug_assert!(
        ops.iter()
            .zip(operands)
            .zip(&level)
            .all(|((&op, &[a, b]), &l)| match op {
                OP_XOR | OP_AND => level[a as usize] < l && level[b as usize] < l,
                OP_NOT | OP_ASSERT => level[a as usize] < l,
                _ => true,
            }),
        "every operand sits at a strictly lower level than its consumer"
    );

    // Counting sort by level; the walk in gate order keeps each level's
    // gates in gate order.
    let mut starts = vec![0u32; next as usize + 1];
    for &l in &level {
        starts[l as usize + 1] += 1;
    }
    for l in 1..starts.len() {
        starts[l] += starts[l - 1];
    }
    let mut fill = starts.clone();
    for (i, ((&op, &[a, b]), &l)) in ops.iter().zip(operands).zip(&level).enumerate() {
        let p = fill[l as usize] as usize;
        kinds[p] = op;
        args[p] = [i as u32, a, b];
        fill[l as usize] += 1;
    }
    // A generation with no local gates leaves no slot behind (its
    // sub_count is 0), so every emitted level is non-empty — but an
    // empty circuit yields no levels at all, which the allocator
    // handles.
    debug_assert!(starts.windows(2).all(|w| w[0] < w[1]));
    Schedule { starts, level }
}

/// Mask of lanes `[lane_base, lane_base + 64)` that index a real
/// instance in a block of `n`. The GMW session masks its lanes with it
/// too.
pub fn valid_mask(n: usize, lane_base: usize) -> u64 {
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
/// their [`EvalError::InputArity`] and never reads their lanes). The GMW
/// session packs its input shares with it too.
pub fn pack_block(block: &[Vec<bool>], num_inputs: usize, words: usize, out: &mut Vec<u64>) {
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

/// The shared kernel body: `W` transposed words per register. The
/// `#[target_feature]` wrappers below monomorphize it under wider ISAs
/// so the fixed-trip-count `W` loops compile to single vector ops.
#[inline(always)]
fn run_tape_body<const W: usize>(
    kinds: &[u8],
    args: &[[u32; 3]],
    regs: &mut [u64],
    packed: &[u64],
    valid: &[u64],
    fail: &mut [u32],
) {
    for (&kind, &operands) in kinds.iter().zip(args) {
        match BitOp::decode(kind, operands) {
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
    kinds: &[u8],
    args: &[[u32; 3]],
    regs: &mut [u64],
    packed: &[u64],
    valid: &[u64],
    fail: &mut [u32],
) {
    run_tape_body::<4>(kinds, args, regs, packed, valid, fail)
}

/// # Safety
/// Caller must have verified AVX-512 support
/// (`BitKernel::Avx512.is_available()`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn run_tape_avx512(
    kinds: &[u8],
    args: &[[u32; 3]],
    regs: &mut [u64],
    packed: &[u64],
    valid: &[u64],
    fail: &mut [u32],
) {
    run_tape_body::<8>(kinds, args, regs, packed, valid, fail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lower_with, Builder, CompileOptions};

    fn sample_bits() -> BitCircuit {
        let mut b = Builder::new();
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
        let eng = CompiledBitCircuit::compile_gmw(&bits);
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
        let eng = CompiledBitCircuit::compile_gmw(&bits);
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
        let eng = CompiledBitCircuit::compile_gmw(&bits);
        let instances: Vec<Vec<bool>> = (0..513u64)
            .map(|i| bits.pack_inputs(&[i % 29, i % 31]))
            .collect();
        let base = eng
            .clone()
            .with_kernel(BitKernel::Scalar)
            .evaluate_batch(&instances);
        for k in BitKernel::available() {
            let got = eng.clone().with_kernel(k).evaluate_batch(&instances);
            assert_eq!(base, got, "kernel {} diverged", k.name());
        }
    }

    #[test]
    fn schedule_reaches_and_depth_with_pure_and_levels() {
        let bits = sample_bits();
        let gmw = CompiledBitCircuit::compile_gmw(&bits);
        assert_eq!(gmw.stats().tape_len, bits.gates().len());
        // The round count: AND-bearing levels == multiplicative depth.
        assert_eq!(gmw.stats().and_levels, bits.and_depth() as usize);
        // Level structure is well-formed and AND levels are pure.
        let starts = gmw.level_starts();
        assert_eq!(starts.len(), gmw.stats().num_levels + 1);
        assert_eq!(*starts.last().unwrap() as usize, gmw.stats().tape_len);
        for l in 0..gmw.stats().num_levels {
            let ops: Vec<BitOp> = gmw
                .ops(starts[l] as usize..starts[l + 1] as usize)
                .collect();
            assert!(!ops.is_empty());
            let ands = ops
                .iter()
                .filter(|o| matches!(o, BitOp::And { .. }))
                .count();
            assert!(ands == 0 || ands == ops.len(), "level {l} mixes ANDs");
        }
    }

    #[test]
    fn fingerprints_are_stable_across_compiles() {
        let bits = sample_bits();
        let a = CompiledBitCircuit::compile_gmw(&bits);
        let b = CompiledBitCircuit::compile_gmw(&bits);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), 0);
    }
}
