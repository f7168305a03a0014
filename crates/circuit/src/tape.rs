//! Flat instruction-tape circuit encoding, versioned binary
//! serialization, and bounded-memory streaming lowering.
//!
//! The paper's premise is that a circuit is a *compact reusable
//! artifact* of query compilation: compile once, evaluate many, ship to
//! an MPC counterparty (Sec. 4.1). This module makes that concrete in
//! three steps:
//!
//! 1. **Flat tapes.** [`WordTape`] and [`BitTape`] are word-coded
//!    instruction streams — one `Vec<u64>` of `(opcode, operand)` words —
//!    in place of the struct-per-gate `Vec<Gate>`/`Vec<BGate>` IRs. The
//!    *narrow* format packs a whole instruction into one word
//!    (`[opcode:4][a:30][b:30]`, extra words for `Const`/`Mux`); the
//!    *wide* format spends one word per operand and therefore carries
//!    full 64-bit ids — the escape hatch past the 32-bit in-memory id
//!    space (see [`EvalError::CircuitTooLarge`]). A tape is a storage
//!    and transfer format, not an evaluator: [`WordTape::decode`] /
//!    [`BitTape::decode`] hand it back to the level's reference
//!    interpreter, and
//!    [`CompiledCircuit::compile_tape_with`](crate::CompiledCircuit::compile_tape_with)
//!    compiles a word tape straight into the engine.
//! 2. **Serialization.** [`WordTape::to_bytes`]/[`BitTape::to_bytes`]
//!    emit a magic-tagged, versioned container with an FNV-1a-64
//!    checksum trailer; `from_bytes` rejects truncation, trailing bytes,
//!    bad magic, unknown versions, wrong kinds, checksum mismatches, and
//!    malformed instructions with typed [`TapeError`]s. This is what
//!    lets a compiled circuit leave the process.
//! 3. **Streaming lowering.** [`lower_streamed`] lowers a word circuit
//!    to a [`BitTape`] level-by-level through fixed-size chunks with a
//!    bounded resident window; full chunks past the window spill to a
//!    temp file and are stitched back at the end. The produced tape
//!    decodes to the byte-identical [`BitCircuit`] that
//!    [`lower_with`](crate::lower_with) builds (the `qec-check` differ
//!    verifies this on every fuzz case).
//!
//! # Streaming-window invariants
//!
//! The window bounds the *materialized gate payload*: at most
//! `window_chunks × chunk_words × 8` bytes of encoded instructions are
//! resident at any time, plus the current chunk. Per-word-wire bit
//! vectors are freed at their last use (outputs stay pinned). Two side
//! structures intentionally stay resident because byte-identity demands
//! them: the structural CSE map (a late gate may cons against the very
//! first one) and the NOT-operand map backing the NOT-cancel peephole.
//! Both are proportional to *distinct* gates, not to the raw instruction
//! stream, and both are dwarfed by the payload they replace for the
//! deep, repetitive circuits this path targets.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::engine::kind_index;
use crate::lower::{
    checked_bit_id, lower_gate, BGate, BitCircuit, BitRewrite, B_FALSE, B_TRUE, MAX_BIT_WIRES,
};
use crate::{Circuit, EvalError, Gate, WireId};

/// Serialization/encoding failure, one variant per rejection reason so
/// callers (and tests) can tell corruption from version skew from size
/// overflow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TapeError {
    /// The byte stream does not start with [`TAPE_MAGIC`].
    BadMagic,
    /// The container's version field is newer than this build understands.
    UnsupportedVersion(u32),
    /// A word tape was handed to the bit-tape reader or vice versa.
    WrongKind {
        /// Kind tag this reader expected (1 = word, 2 = bit).
        expected: u32,
        /// Kind tag found in the header.
        got: u32,
    },
    /// Unknown format tag (1 = narrow, 2 = wide).
    BadFormat(u32),
    /// Fewer bytes than the header promises.
    Truncated {
        /// Bytes the container needs.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// More bytes than the header promises.
    TrailingBytes(usize),
    /// The FNV-1a-64 trailer does not match the payload.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        expected: u64,
        /// Checksum recomputed over the payload.
        got: u64,
    },
    /// An instruction word carries an opcode outside the table.
    BadOpcode {
        /// Code-word index of the offending instruction.
        word: usize,
        /// The opcode found there.
        opcode: u64,
    },
    /// An operand names a wire at or past its own instruction (tapes are
    /// topological), or past the format's operand capacity.
    OperandOutOfRange {
        /// Code-word index of the offending instruction.
        word: usize,
        /// The operand value.
        operand: u64,
        /// The exclusive limit it violated.
        limit: u64,
    },
    /// The instruction stream ended mid-instruction.
    CodeTruncated,
    /// The header's wire count disagrees with the instruction stream.
    WireCountMismatch {
        /// Wire count recorded in the header.
        header: u64,
        /// Instructions actually on the tape.
        found: u64,
    },
    /// The circuit does not fit the requested format (e.g. a wire id
    /// past the narrow format's 30-bit operand field).
    TooLargeForFormat {
        /// Wires the circuit holds.
        wires: u64,
        /// The format's id capacity.
        limit: u64,
    },
    /// The circuit was built in count-only mode and has no gates to
    /// encode.
    NotEvaluable,
    /// An I/O failure while saving/loading/spilling.
    Io(String),
}

impl fmt::Display for TapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TapeError::BadMagic => write!(f, "not a circuit tape (bad magic)"),
            TapeError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported tape version {v} (this build reads {TAPE_VERSION})"
                )
            }
            TapeError::WrongKind { expected, got } => {
                write!(f, "wrong tape kind: expected {expected}, got {got}")
            }
            TapeError::BadFormat(fmt_tag) => write!(f, "unknown tape format tag {fmt_tag}"),
            TapeError::Truncated { needed, got } => {
                write!(f, "truncated tape: need {needed} bytes, have {got}")
            }
            TapeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the tape"),
            TapeError::ChecksumMismatch { expected, got } => write!(
                f,
                "tape checksum mismatch: trailer {expected:#018x}, payload hashes to {got:#018x}"
            ),
            TapeError::BadOpcode { word, opcode } => {
                write!(f, "bad opcode {opcode} at code word {word}")
            }
            TapeError::OperandOutOfRange {
                word,
                operand,
                limit,
            } => write!(
                f,
                "operand {operand} at code word {word} out of range (limit {limit})"
            ),
            TapeError::CodeTruncated => write!(f, "instruction stream ended mid-instruction"),
            TapeError::WireCountMismatch { header, found } => write!(
                f,
                "header declares {header} wires but the tape holds {found} instructions"
            ),
            TapeError::TooLargeForFormat { wires, limit } => write!(
                f,
                "circuit too large for this tape format: {wires} wires, format limit {limit}"
            ),
            TapeError::NotEvaluable => {
                write!(
                    f,
                    "count-only circuits carry no gates and cannot be encoded"
                )
            }
            TapeError::Io(e) => write!(f, "tape i/o error: {e}"),
        }
    }
}

impl std::error::Error for TapeError {}

impl From<TapeError> for EvalError {
    fn from(e: TapeError) -> EvalError {
        EvalError::Tape(e)
    }
}

// ---- container format ----

/// First eight bytes of every serialized tape.
pub const TAPE_MAGIC: [u8; 8] = *b"QECTAPE\0";
/// Container version this build writes (and the only one it reads).
pub const TAPE_VERSION: u32 = 1;
/// Kind tag for word-level tapes.
const KIND_WORD: u32 = 1;
/// Kind tag for bit-level tapes.
const KIND_BIT: u32 = 2;
/// Narrow format: one packed `[opcode:4][a:30][b:30]` word per
/// instruction (plus one extra word for `Const` values and `Mux`'s third
/// operand).
pub const FORMAT_NARROW: u32 = 1;
/// Wide format: an opcode word followed by one full `u64` per operand —
/// the 64-bit-id path for circuits past the narrow operand field.
pub const FORMAT_WIDE: u32 = 2;

/// Exclusive operand limit of the narrow format's 30-bit fields.
pub const NARROW_LIMIT: u64 = 1 << 30;

/// Fixed header: magic + 4 u32 fields + 4 u64 fields.
const HEADER_BYTES: usize = 8 + 4 * 4 + 4 * 8;

/// FNV-1a-64 over a byte slice — the checksum of the tape container and
/// of `qec-mpc`'s wire frames (which reuse this container's style).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Header {
    kind: u32,
    format: u32,
    width: u32,
    num_inputs: u64,
    num_wires: u64,
    code_words: u64,
    num_outputs: u64,
}

/// Size of a container holding `words` code and output words: header,
/// the words, and the checksum trailer.
fn container_len(words: usize) -> usize {
    HEADER_BYTES + 8 * words + 8
}

fn write_container(h: &Header, code: &[u64], outputs: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(container_len(code.len() + outputs.len()));
    out.extend_from_slice(&TAPE_MAGIC);
    for v in [TAPE_VERSION, h.kind, h.format, h.width] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in [h.num_inputs, h.num_wires, h.code_words, h.num_outputs] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for &w in code {
        out.extend_from_slice(&w.to_le_bytes());
    }
    for &w in outputs {
        out.extend_from_slice(&w.to_le_bytes());
    }
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

fn read_container(
    bytes: &[u8],
    expected_kind: u32,
) -> Result<(Header, Vec<u64>, Vec<u64>), TapeError> {
    if bytes.len() < HEADER_BYTES + 8 {
        return Err(TapeError::Truncated {
            needed: HEADER_BYTES + 8,
            got: bytes.len(),
        });
    }
    if bytes[..8] != TAPE_MAGIC {
        return Err(TapeError::BadMagic);
    }
    let version = read_u32(bytes, 8);
    if version != TAPE_VERSION {
        return Err(TapeError::UnsupportedVersion(version));
    }
    let h = Header {
        kind: read_u32(bytes, 12),
        format: read_u32(bytes, 16),
        width: read_u32(bytes, 20),
        num_inputs: read_u64(bytes, 24),
        num_wires: read_u64(bytes, 32),
        code_words: read_u64(bytes, 40),
        num_outputs: read_u64(bytes, 48),
    };
    let needed = h
        .code_words
        .checked_add(h.num_outputs)
        .and_then(|w| usize::try_from(w).ok())
        .and_then(|w| w.checked_mul(8))
        .and_then(|b| b.checked_add(HEADER_BYTES + 8))
        .ok_or(TapeError::Truncated {
            needed: usize::MAX,
            got: bytes.len(),
        })?;
    if bytes.len() < needed {
        return Err(TapeError::Truncated {
            needed,
            got: bytes.len(),
        });
    }
    if bytes.len() > needed {
        return Err(TapeError::TrailingBytes(bytes.len() - needed));
    }
    let expected = read_u64(bytes, needed - 8);
    let got = fnv1a64(&bytes[..needed - 8]);
    if expected != got {
        return Err(TapeError::ChecksumMismatch { expected, got });
    }
    if h.kind != expected_kind {
        return Err(TapeError::WrongKind {
            expected: expected_kind,
            got: h.kind,
        });
    }
    if h.format != FORMAT_NARROW && h.format != FORMAT_WIDE {
        return Err(TapeError::BadFormat(h.format));
    }
    let mut at = HEADER_BYTES;
    let mut code = Vec::with_capacity(h.code_words as usize);
    for _ in 0..h.code_words {
        code.push(read_u64(bytes, at));
        at += 8;
    }
    let mut outputs = Vec::with_capacity(h.num_outputs as usize);
    for _ in 0..h.num_outputs {
        outputs.push(read_u64(bytes, at));
        at += 8;
    }
    Ok((h, code, outputs))
}

fn save_bytes(path: &Path, bytes: &[u8]) -> Result<(), TapeError> {
    std::fs::write(path, bytes).map_err(|e| TapeError::Io(format!("{}: {e}", path.display())))
}

fn load_bytes(path: &Path) -> Result<Vec<u8>, TapeError> {
    std::fs::read(path).map_err(|e| TapeError::Io(format!("{}: {e}", path.display())))
}

// ---- word tapes ----

/// Word-gate opcodes are `engine::kind_index + 1` (1-based so an
/// all-zero word can never be a valid instruction).
const OP_INPUT: u64 = 1;
const OP_CONST: u64 = 2;
const OP_MUX: u64 = 12;
const OP_ASSERT: u64 = 13;
const OP_MAX: u64 = 13;

/// Number of explicit operand words each opcode consumes in the wide
/// format (`Const` counts its value word).
fn word_op_arity(op: u64) -> usize {
    match op {
        OP_INPUT => 1,
        OP_CONST => 1,
        OP_MUX => 3,
        OP_ASSERT => 1,
        11 /* not */ => 1,
        _ => 2,
    }
}

/// A word-level circuit as a flat instruction tape: one `u64` stream,
/// topologically ordered, wire `i` defined by instruction `i`.
///
/// Narrow instructions pack `[opcode:4][a:30][b:30]`; `Const` and `Mux`
/// follow with one extra word (the constant value / the third operand).
/// Wide instructions spend a word per operand and carry full 64-bit ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WordTape {
    format: u32,
    num_inputs: u64,
    num_wires: u64,
    code: Vec<u64>,
    outputs: Vec<u64>,
}

impl WordTape {
    /// Encodes an evaluable circuit, picking the narrow format when every
    /// id and input index fits its 30-bit operand field.
    pub fn encode(c: &Circuit) -> Result<WordTape, TapeError> {
        if !c.is_evaluable() {
            return Err(TapeError::NotEvaluable);
        }
        let narrow =
            (c.num_wires() as u64) < NARROW_LIMIT && (c.num_inputs() as u64) < NARROW_LIMIT;
        let format = if narrow { FORMAT_NARROW } else { FORMAT_WIDE };
        let mut code = Vec::with_capacity(c.gates().len() + c.gates().len() / 8);
        for g in c.gates() {
            let op = (kind_index(g) + 1) as u64;
            match (*g, narrow) {
                (Gate::Const(v), true) => {
                    code.push(pack_narrow(op, 0, 0));
                    code.push(v);
                }
                (Gate::Const(v), false) => {
                    code.push(op);
                    code.push(v);
                }
                (Gate::Input(i), true) => code.push(pack_narrow(op, i as u64, 0)),
                (Gate::Input(i), false) => {
                    code.push(op);
                    code.push(i as u64);
                }
                (g, true) => {
                    let [a, b, cc] = three(g);
                    code.push(pack_narrow(op, a, b));
                    if op == OP_MUX {
                        code.push(cc);
                    }
                }
                (g, false) => {
                    code.push(op);
                    let ar = word_op_arity(op);
                    let ops = three(g);
                    for &o in ops.iter().take(ar) {
                        code.push(o);
                    }
                }
            }
        }
        Ok(WordTape {
            format,
            num_inputs: c.num_inputs() as u64,
            num_wires: c.num_wires() as u64,
            code,
            outputs: c.outputs().iter().map(|&w| w as u64).collect(),
        })
    }

    /// Decodes back into the in-memory IR. The result is gate-for-gate
    /// identical to the circuit that was encoded (`write_netlist` of the
    /// two is equal — the differ checks this).
    pub fn decode(&self) -> Result<Circuit, TapeError> {
        let mut gates = Vec::with_capacity(self.num_wires as usize);
        self.for_each_instruction(|_w, op, a, b, c| {
            let limit = gates.len() as u64;
            let chk = |o: u64| -> Result<WireId, TapeError> {
                if o >= limit {
                    return Err(TapeError::OperandOutOfRange {
                        word: gates.len(),
                        operand: o,
                        limit,
                    });
                }
                Ok(o as WireId)
            };
            let g = match op {
                OP_INPUT => Gate::Input(a as usize),
                OP_CONST => Gate::Const(a),
                3 => Gate::Add(chk(a)?, chk(b)?),
                4 => Gate::Sub(chk(a)?, chk(b)?),
                5 => Gate::Mul(chk(a)?, chk(b)?),
                6 => Gate::Eq(chk(a)?, chk(b)?),
                7 => Gate::Lt(chk(a)?, chk(b)?),
                8 => Gate::And(chk(a)?, chk(b)?),
                9 => Gate::Or(chk(a)?, chk(b)?),
                10 => Gate::Xor(chk(a)?, chk(b)?),
                11 => Gate::Not(chk(a)?),
                OP_MUX => Gate::Mux(chk(a)?, chk(b)?, chk(c)?),
                OP_ASSERT => Gate::AssertZero(chk(a)?),
                _ => unreachable!("for_each_instruction rejects bad opcodes"),
            };
            gates.push(g);
            Ok(())
        })?;
        let limit = gates.len() as u64;
        let mut outputs = Vec::with_capacity(self.outputs.len());
        for (i, &o) in self.outputs.iter().enumerate() {
            if o >= limit {
                return Err(TapeError::OperandOutOfRange {
                    word: self.code.len() + i,
                    operand: o,
                    limit,
                });
            }
            outputs.push(o as WireId);
        }
        Ok(Circuit::from_raw(gates, outputs, self.num_inputs as usize))
    }

    /// Walks the instruction stream, handing each decoded instruction
    /// `(word_index, opcode, a, b, c)` to `f`. Operand *range* checks
    /// against preceding wires are the caller's concern (`decode` and
    /// the loader's structural validation do them).
    fn for_each_instruction<F>(&self, mut f: F) -> Result<(), TapeError>
    where
        F: FnMut(usize, u64, u64, u64, u64) -> Result<(), TapeError>,
    {
        let code = &self.code;
        let mut at = 0usize;
        while at < code.len() {
            let word = at;
            let (op, a, b, c);
            if self.format == FORMAT_NARROW {
                let w = code[at];
                at += 1;
                op = w & 0xF;
                check_op(word, op)?;
                let ra = (w >> 4) & (NARROW_LIMIT - 1);
                let rb = (w >> 34) & (NARROW_LIMIT - 1);
                match op {
                    OP_CONST => {
                        a = *code.get(at).ok_or(TapeError::CodeTruncated)?;
                        at += 1;
                        (b, c) = (0, 0);
                    }
                    OP_MUX => {
                        c = *code.get(at).ok_or(TapeError::CodeTruncated)?;
                        at += 1;
                        (a, b) = (ra, rb);
                    }
                    _ => (a, b, c) = (ra, rb, 0),
                }
            } else {
                op = code[at];
                at += 1;
                check_op(word, op)?;
                let ar = word_op_arity(op);
                if at + ar > code.len() {
                    return Err(TapeError::CodeTruncated);
                }
                let mut ops = [0u64; 3];
                ops[..ar].copy_from_slice(&code[at..at + ar]);
                at += ar;
                [a, b, c] = ops;
            }
            f(word, op, a, b, c)?;
        }
        Ok(())
    }

    /// Number of instructions (= wires) on the tape.
    pub fn num_instructions(&self) -> u64 {
        self.num_wires
    }

    /// Declared input count.
    pub fn num_inputs(&self) -> u64 {
        self.num_inputs
    }

    /// Output wire ids.
    pub fn outputs(&self) -> &[u64] {
        &self.outputs
    }

    /// The raw code words.
    pub fn code(&self) -> &[u64] {
        &self.code
    }

    /// Format tag ([`FORMAT_NARROW`] or [`FORMAT_WIDE`]).
    pub fn format(&self) -> u32 {
        self.format
    }

    /// Serializes into the versioned, checksummed container.
    pub fn to_bytes(&self) -> Vec<u8> {
        write_container(
            &Header {
                kind: KIND_WORD,
                format: self.format,
                width: 0,
                num_inputs: self.num_inputs,
                num_wires: self.num_wires,
                code_words: self.code.len() as u64,
                num_outputs: self.outputs.len() as u64,
            },
            &self.code,
            &self.outputs,
        )
    }

    /// Length of [`WordTape::to_bytes`], without serializing.
    pub fn byte_len(&self) -> usize {
        container_len(self.code.len() + self.outputs.len())
    }

    /// Parses a container produced by [`WordTape::to_bytes`], verifying
    /// magic, version, kind, length, checksum, and the instruction
    /// stream's structure.
    pub fn from_bytes(bytes: &[u8]) -> Result<WordTape, TapeError> {
        let (h, code, outputs) = read_container(bytes, KIND_WORD)?;
        let t = WordTape {
            format: h.format,
            num_inputs: h.num_inputs,
            num_wires: h.num_wires,
            code,
            outputs,
        };
        crate::validate::validate_word_tape(&t)?;
        Ok(t)
    }

    /// Saves the container to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TapeError> {
        save_bytes(path.as_ref(), &self.to_bytes())
    }

    /// Loads and verifies a container from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<WordTape, TapeError> {
        WordTape::from_bytes(&load_bytes(path.as_ref())?)
    }
}

fn pack_narrow(op: u64, a: u64, b: u64) -> u64 {
    debug_assert!(op <= 0xF && a < NARROW_LIMIT && b < NARROW_LIMIT);
    op | (a << 4) | (b << 34)
}

fn check_op(word: usize, op: u64) -> Result<(), TapeError> {
    if op == 0 || op > OP_MAX {
        return Err(TapeError::BadOpcode { word, opcode: op });
    }
    Ok(())
}

fn three(g: Gate) -> [u64; 3] {
    let ops = g.operands();
    [
        ops[0].unwrap_or(0) as u64,
        ops[1].unwrap_or(0) as u64,
        ops[2].unwrap_or(0) as u64,
    ]
}

// ---- bit tapes ----

/// Bit-gate opcodes (1-based, same reasoning as the word table).
const BOP_CONST: u64 = 1;
const BOP_INPUT: u64 = 2;
const BOP_XOR: u64 = 3;
const BOP_AND: u64 = 4;
const BOP_NOT: u64 = 5;
const BOP_ASSERT: u64 = 6;
const BOP_MAX: u64 = 6;

fn bit_op_arity(op: u64) -> usize {
    match op {
        BOP_XOR | BOP_AND => 2,
        _ => 1,
    }
}

fn bgate_op(g: BGate) -> (u64, u64, u64) {
    match g {
        BGate::Const(v) => (BOP_CONST, u64::from(v), 0),
        BGate::Input(i) => (BOP_INPUT, i as u64, 0),
        BGate::Xor(a, b) => (BOP_XOR, a as u64, b as u64),
        BGate::And(a, b) => (BOP_AND, a as u64, b as u64),
        BGate::Not(a) => (BOP_NOT, a as u64, 0),
        BGate::AssertFalse(a) => (BOP_ASSERT, a as u64, 0),
    }
}

/// A lowered Boolean circuit as a flat instruction tape. Same container
/// as [`WordTape`] with kind tag 2; the `width` header field preserves
/// [`BitCircuit::width`] across serialization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitTape {
    format: u32,
    width: u32,
    num_inputs: u64,
    num_wires: u64,
    code: Vec<u64>,
    outputs: Vec<u64>,
}

impl BitTape {
    /// Encodes a bit circuit, narrow when every wire id and input bit
    /// index fits 30 bits.
    pub fn encode(bc: &BitCircuit) -> BitTape {
        let narrow =
            (bc.gates().len() as u64) < NARROW_LIMIT && (bc.num_inputs() as u64) < NARROW_LIMIT;
        let format = if narrow { FORMAT_NARROW } else { FORMAT_WIDE };
        let mut code = Vec::with_capacity(if narrow {
            bc.gates().len()
        } else {
            bc.gates().len() * 3
        });
        for &g in bc.gates() {
            let (op, a, b) = bgate_op(g);
            if narrow {
                code.push(pack_narrow(op, a, b));
            } else {
                code.push(op);
                code.push(a);
                if bit_op_arity(op) == 2 {
                    code.push(b);
                }
            }
        }
        BitTape {
            format,
            width: bc.width(),
            num_inputs: bc.num_inputs() as u64,
            num_wires: bc.gates().len() as u64,
            code,
            outputs: bc.outputs().iter().map(|&w| w as u64).collect(),
        }
    }

    /// Decodes back into a [`BitCircuit`], gate-for-gate identical to
    /// the encoded one.
    pub fn decode(&self) -> Result<BitCircuit, TapeError> {
        if self.num_wires > MAX_BIT_WIRES + 1 {
            return Err(TapeError::TooLargeForFormat {
                wires: self.num_wires,
                limit: MAX_BIT_WIRES + 1,
            });
        }
        let mut gates = Vec::with_capacity(self.num_wires as usize);
        self.for_each_instruction(|_w, op, a, b| {
            let limit = gates.len() as u64;
            let chk = |o: u64| -> Result<u32, TapeError> {
                if o >= limit {
                    return Err(TapeError::OperandOutOfRange {
                        word: gates.len(),
                        operand: o,
                        limit,
                    });
                }
                Ok(o as u32)
            };
            let g = match op {
                BOP_CONST => BGate::Const(a != 0),
                BOP_INPUT => BGate::Input(a as usize),
                BOP_XOR => BGate::Xor(chk(a)?, chk(b)?),
                BOP_AND => BGate::And(chk(a)?, chk(b)?),
                BOP_NOT => BGate::Not(chk(a)?),
                BOP_ASSERT => BGate::AssertFalse(chk(a)?),
                _ => unreachable!("for_each_instruction rejects bad opcodes"),
            };
            gates.push(g);
            Ok(())
        })?;
        let limit = gates.len() as u64;
        let mut outputs = Vec::with_capacity(self.outputs.len());
        for (i, &o) in self.outputs.iter().enumerate() {
            if o >= limit {
                return Err(TapeError::OperandOutOfRange {
                    word: self.code.len() + i,
                    operand: o,
                    limit,
                });
            }
            outputs.push(o as u32);
        }
        Ok(BitCircuit::new(
            gates,
            outputs,
            self.num_inputs as usize,
            self.width,
        ))
    }

    fn for_each_instruction<F>(&self, mut f: F) -> Result<(), TapeError>
    where
        F: FnMut(usize, u64, u64, u64) -> Result<(), TapeError>,
    {
        let code = &self.code;
        let mut at = 0usize;
        while at < code.len() {
            let word = at;
            let (op, a, b);
            if self.format == FORMAT_NARROW {
                let w = code[at];
                at += 1;
                op = w & 0xF;
                check_bop(word, op)?;
                a = (w >> 4) & (NARROW_LIMIT - 1);
                b = (w >> 34) & (NARROW_LIMIT - 1);
            } else {
                op = code[at];
                at += 1;
                check_bop(word, op)?;
                let ar = bit_op_arity(op);
                if at + ar > code.len() {
                    return Err(TapeError::CodeTruncated);
                }
                a = code[at];
                b = if ar == 2 { code[at + 1] } else { 0 };
                at += ar;
            }
            f(word, op, a, b)?;
        }
        Ok(())
    }

    /// Number of instructions (= bit wires) on the tape.
    pub fn num_instructions(&self) -> u64 {
        self.num_wires
    }

    /// Declared input-bit count.
    pub fn num_inputs(&self) -> u64 {
        self.num_inputs
    }

    /// Word width recorded by the lowering.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Output bit wires.
    pub fn outputs(&self) -> &[u64] {
        &self.outputs
    }

    /// The raw code words.
    pub fn code(&self) -> &[u64] {
        &self.code
    }

    /// Format tag ([`FORMAT_NARROW`] or [`FORMAT_WIDE`]).
    pub fn format(&self) -> u32 {
        self.format
    }

    /// Serializes into the versioned, checksummed container.
    pub fn to_bytes(&self) -> Vec<u8> {
        write_container(
            &Header {
                kind: KIND_BIT,
                format: self.format,
                width: self.width,
                num_inputs: self.num_inputs,
                num_wires: self.num_wires,
                code_words: self.code.len() as u64,
                num_outputs: self.outputs.len() as u64,
            },
            &self.code,
            &self.outputs,
        )
    }

    /// Parses a container produced by [`BitTape::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<BitTape, TapeError> {
        let (h, code, outputs) = read_container(bytes, KIND_BIT)?;
        let t = BitTape {
            format: h.format,
            width: h.width,
            num_inputs: h.num_inputs,
            num_wires: h.num_wires,
            code,
            outputs,
        };
        crate::validate::validate_bit_tape(&t)?;
        Ok(t)
    }

    /// Saves the container to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TapeError> {
        save_bytes(path.as_ref(), &self.to_bytes())
    }

    /// Loads and verifies a container from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<BitTape, TapeError> {
        BitTape::from_bytes(&load_bytes(path.as_ref())?)
    }
}

fn check_bop(word: usize, op: u64) -> Result<(), TapeError> {
    if op == 0 || op > BOP_MAX {
        return Err(TapeError::BadOpcode { word, opcode: op });
    }
    Ok(())
}

// ---- structural validation (driven by `crate::validate`) ----

fn check_operand(word: usize, o: u64, wires: u64) -> Result<(), TapeError> {
    if o >= wires {
        return Err(TapeError::OperandOutOfRange {
            word,
            operand: o,
            limit: wires,
        });
    }
    Ok(())
}

/// One pass over a word tape without materializing gates: opcode
/// validity, topological operands, input indices inside the declared
/// arity, header wire count, and output range.
pub(crate) fn check_word_tape(t: &WordTape) -> Result<(), TapeError> {
    let mut wires = 0u64;
    t.for_each_instruction(|word, op, a, b, c| {
        match op {
            OP_INPUT => check_operand(word, a, t.num_inputs)?,
            OP_CONST => {}
            OP_MUX => {
                for o in [a, b, c] {
                    check_operand(word, o, wires)?;
                }
            }
            OP_ASSERT | 11 => check_operand(word, a, wires)?,
            _ => {
                check_operand(word, a, wires)?;
                check_operand(word, b, wires)?;
            }
        }
        wires += 1;
        Ok(())
    })?;
    if wires != t.num_wires {
        return Err(TapeError::WireCountMismatch {
            header: t.num_wires,
            found: wires,
        });
    }
    for (i, &o) in t.outputs.iter().enumerate() {
        check_operand(t.code.len() + i, o, wires)?;
    }
    Ok(())
}

/// One pass over a bit tape: same checks as [`check_word_tape`] at the
/// bit level.
pub(crate) fn check_bit_tape(t: &BitTape) -> Result<(), TapeError> {
    let mut wires = 0u64;
    t.for_each_instruction(|word, op, a, b| {
        match op {
            BOP_CONST => {}
            BOP_INPUT => check_operand(word, a, t.num_inputs)?,
            BOP_XOR | BOP_AND => {
                check_operand(word, a, wires)?;
                check_operand(word, b, wires)?;
            }
            _ => check_operand(word, a, wires)?,
        }
        wires += 1;
        Ok(())
    })?;
    if wires != t.num_wires {
        return Err(TapeError::WireCountMismatch {
            header: t.num_wires,
            found: wires,
        });
    }
    for (i, &o) in t.outputs.iter().enumerate() {
        check_operand(t.code.len() + i, o, wires)?;
    }
    Ok(())
}

// ---- streaming lowering ----

/// Knobs for [`lower_streamed`]'s chunked window.
#[derive(Clone, Debug)]
pub struct StreamOptions {
    /// Instruction words per chunk.
    pub chunk_words: usize,
    /// Full chunks kept resident before the oldest spills to disk.
    pub window_chunks: usize,
    /// Directory for the spill file (`std::env::temp_dir()` when
    /// `None`).
    pub spill_dir: Option<PathBuf>,
}

impl StreamOptions {
    /// Defaults: 64Ki-word chunks (512 KiB), an 8-chunk window (4 MiB of
    /// resident encoded payload).
    pub fn new() -> StreamOptions {
        StreamOptions {
            chunk_words: 1 << 16,
            window_chunks: 8,
            spill_dir: None,
        }
    }

    /// Reads `QEC_STREAM_CHUNK` (words per chunk), `QEC_STREAM_WINDOW`
    /// (resident chunks), and `QEC_SPILL_DIR` on top of the defaults.
    pub fn from_env() -> StreamOptions {
        let mut o = StreamOptions::new();
        let read = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<usize>().ok());
        if let Some(v) = read("QEC_STREAM_CHUNK") {
            o.chunk_words = v.max(16);
        }
        if let Some(v) = read("QEC_STREAM_WINDOW") {
            o.window_chunks = v.max(1);
        }
        if let Ok(d) = std::env::var("QEC_SPILL_DIR") {
            if !d.is_empty() {
                o.spill_dir = Some(PathBuf::from(d));
            }
        }
        o
    }

    /// A window so large nothing ever spills (for tests and small
    /// circuits).
    pub fn in_memory() -> StreamOptions {
        StreamOptions {
            chunk_words: 1 << 16,
            window_chunks: usize::MAX,
            spill_dir: None,
        }
    }
}

impl Default for StreamOptions {
    fn default() -> StreamOptions {
        StreamOptions::new()
    }
}

/// Counters describing one [`lower_streamed`] run (also mirrored into
/// the global recorder as `tape.stream.*`).
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamStats {
    /// Chunks spilled to disk.
    pub spills: u64,
    /// Code words that went through the spill file.
    pub spilled_words: u64,
    /// Peak resident encoded payload, in bytes (window + current chunk).
    pub peak_window_bytes: u64,
}

/// Monotonic id for spill-file names (several streams may run in one
/// process).
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// The chunked, spillable code-word sink behind [`lower_streamed`].
struct ChunkSink {
    chunk_words: usize,
    window_chunks: usize,
    spill_dir: PathBuf,
    cur: Vec<u64>,
    window: VecDeque<Vec<u64>>,
    spill: Option<(File, PathBuf)>,
    stats: StreamStats,
}

impl ChunkSink {
    fn new(opts: &StreamOptions) -> ChunkSink {
        ChunkSink {
            chunk_words: opts.chunk_words.max(16),
            window_chunks: opts.window_chunks.max(1),
            spill_dir: opts.spill_dir.clone().unwrap_or_else(std::env::temp_dir),
            cur: Vec::new(),
            window: VecDeque::new(),
            spill: None,
            stats: StreamStats::default(),
        }
    }

    fn resident_bytes(&self) -> u64 {
        8 * (self.cur.len() as u64 + self.window.iter().map(|c| c.len() as u64).sum::<u64>())
    }

    fn push_word(&mut self, w: u64) -> Result<(), TapeError> {
        if self.cur.len() == self.chunk_words {
            let full = std::mem::take(&mut self.cur);
            self.window.push_back(full);
            if self.window.len() > self.window_chunks {
                self.spill_oldest()?;
            }
        }
        self.cur.push(w);
        self.stats.peak_window_bytes = self.stats.peak_window_bytes.max(self.resident_bytes());
        Ok(())
    }

    fn spill_oldest(&mut self) -> Result<(), TapeError> {
        let chunk = self.window.pop_front().expect("window is non-empty");
        if self.spill.is_none() {
            let name = format!(
                "qec-spill-{}-{}.tmp",
                std::process::id(),
                SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
            );
            let path = self.spill_dir.join(name);
            let file = File::options()
                .create_new(true)
                .read(true)
                .write(true)
                .open(&path)
                .map_err(|e| TapeError::Io(format!("{}: {e}", path.display())))?;
            self.spill = Some((file, path));
        }
        let (file, path) = self.spill.as_mut().expect("just created");
        let mut bytes = Vec::with_capacity(chunk.len() * 8);
        for w in &chunk {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        file.write_all(&bytes)
            .map_err(|e| TapeError::Io(format!("{}: {e}", path.display())))?;
        self.stats.spills += 1;
        self.stats.spilled_words += chunk.len() as u64;
        Ok(())
    }

    /// Stitches spilled chunks + resident window + current chunk back
    /// into one code vector, and removes the spill file.
    fn finish(mut self) -> Result<(Vec<u64>, StreamStats), TapeError> {
        let resident: usize = self.cur.len() + self.window.iter().map(Vec::len).sum::<usize>();
        let mut code = Vec::with_capacity(self.stats.spilled_words as usize + resident);
        if let Some((mut file, path)) = self.spill.take() {
            let err = |e: std::io::Error| TapeError::Io(format!("{}: {e}", path.display()));
            file.seek(SeekFrom::Start(0)).map_err(err)?;
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes).map_err(err)?;
            let _ = std::fs::remove_file(&path);
            if bytes.len() != self.stats.spilled_words as usize * 8 {
                return Err(TapeError::Io(format!(
                    "{}: spill file holds {} bytes, expected {}",
                    path.display(),
                    bytes.len(),
                    self.stats.spilled_words * 8
                )));
            }
            for ch in bytes.chunks_exact(8) {
                code.push(u64::from_le_bytes(ch.try_into().unwrap()));
            }
        }
        for chunk in self.window.drain(..) {
            code.extend_from_slice(&chunk);
        }
        code.extend_from_slice(&self.cur);
        Ok((code, self.stats))
    }
}

impl Drop for ChunkSink {
    fn drop(&mut self) {
        if let Some((_, path)) = self.spill.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The [`BitRewrite`] store behind [`lower_streamed`]: identical rewrite
/// decisions to the sequential `Lowerer` (same CSE map, same NOT-cancel
/// peephole, same allocation order — that is what makes the output
/// byte-identical), but gates leave through the chunked sink as encoded
/// narrow instructions instead of accumulating in a `Vec<BGate>`.
///
/// `BitRewrite` methods return bare wire ids, so failures (id-space
/// exhaustion, spill I/O) poison the store via `err` and return a dummy
/// wire; the driver loop checks `err` after every word gate.
struct StreamLowerer {
    sink: ChunkSink,
    cse: HashMap<BGate, u32>,
    /// `w -> x` for every wire defined by `Not(x)` — the resident side
    /// map that replaces peeking at (possibly spilled) gate payloads.
    not_of: HashMap<u32, u32>,
    next: u64,
    err: Option<EvalError>,
}

impl StreamLowerer {
    fn new(opts: &StreamOptions) -> Result<StreamLowerer, TapeError> {
        let mut lw = StreamLowerer {
            sink: ChunkSink::new(opts),
            cse: HashMap::new(),
            not_of: HashMap::new(),
            next: 0,
            err: None,
        };
        // Same preseed as the sequential Lowerer: wires 0/1 are the
        // constants.
        let f = lw.append(BGate::Const(false));
        let t = lw.append(BGate::Const(true));
        debug_assert!(f == B_FALSE && t == B_TRUE);
        Ok(lw)
    }

    /// Allocates the next wire and encodes `g` into the sink, poisoning
    /// on overflow or I/O failure.
    fn append(&mut self, g: BGate) -> u32 {
        if self.err.is_some() {
            return B_FALSE;
        }
        let id = match checked_bit_id(self.next) {
            Ok(id) => id,
            Err(e) => {
                self.err = Some(e);
                return B_FALSE;
            }
        };
        let (op, a, b) = bgate_op(g);
        if a >= NARROW_LIMIT || b >= NARROW_LIMIT {
            self.err = Some(EvalError::Tape(TapeError::TooLargeForFormat {
                wires: self.next + 1,
                limit: NARROW_LIMIT,
            }));
            return B_FALSE;
        }
        if let Err(e) = self.sink.push_word(pack_narrow(op, a, b)) {
            self.err = Some(EvalError::Tape(e));
            return B_FALSE;
        }
        if let BGate::Not(x) = g {
            self.not_of.insert(id, x);
        }
        self.next += 1;
        id
    }
}

impl BitRewrite for StreamLowerer {
    fn push(&mut self, g: BGate) -> u32 {
        self.append(g)
    }

    fn intern(&mut self, key: BGate) -> u32 {
        if let Some(&w) = self.cse.get(&key) {
            return w;
        }
        let w = self.append(key);
        if self.err.is_none() {
            self.cse.insert(key, w);
        }
        w
    }

    fn not_operand(&self, w: u32) -> Option<u32> {
        self.not_of.get(&w).copied()
    }

    fn count_fold(&mut self) {}
}

/// Lowers a word circuit to a [`BitTape`] with bounded resident memory:
/// encoded gates stream through [`StreamOptions::window_chunks`] chunks
/// (spilling beyond that), and each word wire's bit vector is freed at
/// its last use. The tape decodes to the byte-identical [`BitCircuit`]
/// that [`lower_with`](crate::lower_with) produces.
///
/// Returns [`EvalError::CountOnly`] for count-mode circuits,
/// [`EvalError::CircuitTooLarge`] when the bit-wire id space runs out,
/// and [`EvalError::Tape`] for spill I/O failures.
pub fn lower_streamed(
    c: &Circuit,
    width: u32,
    opts: &StreamOptions,
) -> Result<(BitTape, StreamStats), EvalError> {
    if !c.is_evaluable() {
        return Err(EvalError::CountOnly);
    }
    let rec = qec_obs::global();
    let _span = rec.span("lower.stream");
    let w = width as usize;
    let src = c.gates();

    // Last consumer of each word wire; outputs stay pinned.
    let mut last_use: Vec<usize> = vec![0; src.len()];
    for (i, g) in src.iter().enumerate() {
        for op in g.operands().into_iter().flatten() {
            last_use[op as usize] = i;
        }
    }
    for &o in c.outputs() {
        last_use[o as usize] = usize::MAX;
    }

    let mut lw = StreamLowerer::new(opts).map_err(EvalError::Tape)?;
    if let Some(e) = lw.err.take() {
        return Err(e);
    }
    // Dead slots are replaced with the (allocation-free) empty vector,
    // so `lower_gate` keeps its dense `&[Vec<u32>]` view while freed
    // wires release their bit vectors. Operands are alive by
    // construction — topological order means an empty slot is never
    // read.
    let mut word_bits: Vec<Vec<u32>> = Vec::with_capacity(src.len());
    let mut num_input_bits = 0usize;
    for (i, g) in src.iter().enumerate() {
        if let Gate::Input(idx) = *g {
            num_input_bits = num_input_bits.max((idx + 1) * w);
        }
        let bits = lower_gate(&mut lw, *g, &word_bits, w);
        if let Some(e) = lw.err.take() {
            return Err(e);
        }
        word_bits.push(bits);
        // Free operands whose last consumer was this gate.
        for op in g.operands().into_iter().flatten() {
            if last_use[op as usize] == i {
                word_bits[op as usize] = Vec::new();
            }
        }
    }

    let outputs: Vec<u64> = c
        .outputs()
        .iter()
        .flat_map(|&wid| word_bits[wid as usize].iter().map(|&b| b as u64))
        .collect();
    let num_wires = lw.next;
    let (code, stats) = lw.sink.finish().map_err(EvalError::Tape)?;
    if rec.is_enabled() {
        rec.add("tape.stream.spills", stats.spills);
        rec.add("tape.stream.spilled_words", stats.spilled_words);
        rec.gauge_max("tape.stream.window_bytes", stats.peak_window_bytes);
        if let Some(rss) = qec_obs::peak_rss_bytes() {
            rec.gauge_max("tape.stream.peak_rss", rss);
        }
    }
    Ok((
        BitTape {
            format: FORMAT_NARROW,
            width,
            num_inputs: num_input_bits as u64,
            num_wires,
            code,
            outputs,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Builder, Mode};

    fn sample_circuit() -> Circuit {
        let mut b = Builder::new(Mode::Build);
        let x = b.input();
        let y = b.input();
        let c5 = b.constant(5);
        let s = b.add(x, y);
        let p = b.mul(s, c5);
        let lt = b.lt(x, y);
        let m = b.mux(lt, s, p);
        let e = b.eq(m, c5);
        let n = b.not(e);
        let d = b.sub(m, x);
        let o = b.or(n, lt);
        let xr = b.xor(o, e);
        let an = b.and(xr, lt);
        b.assert_zero(an);
        b.finish(vec![m, d, xr])
    }

    #[test]
    fn word_tape_roundtrips_and_evaluates() {
        let c = sample_circuit();
        let t = WordTape::encode(&c).unwrap();
        assert_eq!(t.format(), FORMAT_NARROW);
        let back = t.decode().unwrap();
        assert_eq!(back.gates(), c.gates());
        assert_eq!(back.outputs(), c.outputs());
        assert_eq!(back.num_inputs(), c.num_inputs());
        let (eng, _) =
            crate::CompiledCircuit::compile_tape_with(&t, &crate::CompileOptions::sequential())
                .unwrap();
        for (x, y) in [(3u64, 9u64), (9, 3), (0, 0), (u64::MAX, 1)] {
            assert_eq!(eng.evaluate(&[x, y]), c.evaluate(&[x, y]));
        }
        let bytes = t.to_bytes();
        assert_eq!(t.byte_len(), bytes.len());
        let t2 = WordTape::from_bytes(&bytes).unwrap();
        assert_eq!(t2, t);
        assert_eq!(t2.to_bytes(), bytes);
    }

    #[test]
    fn corrupted_containers_are_rejected_with_typed_errors() {
        let t = WordTape::encode(&sample_circuit()).unwrap();
        let bytes = t.to_bytes();

        // bad magic
        let mut b = bytes.clone();
        b[0] ^= 0xFF;
        assert_eq!(WordTape::from_bytes(&b), Err(TapeError::BadMagic));

        // unsupported version
        let mut b = bytes.clone();
        b[8] = 99;
        assert_eq!(
            WordTape::from_bytes(&b),
            Err(TapeError::UnsupportedVersion(99))
        );

        // truncation (both header-level and payload-level)
        assert!(matches!(
            WordTape::from_bytes(&bytes[..10]),
            Err(TapeError::Truncated { .. })
        ));
        assert!(matches!(
            WordTape::from_bytes(&bytes[..bytes.len() - 1]),
            Err(TapeError::Truncated { .. })
        ));

        // trailing bytes
        let mut b = bytes.clone();
        b.push(0);
        assert_eq!(WordTape::from_bytes(&b), Err(TapeError::TrailingBytes(1)));

        // flipped payload bit => checksum mismatch
        let mut b = bytes.clone();
        b[HEADER_BYTES + 2] ^= 0x10;
        assert!(matches!(
            WordTape::from_bytes(&b),
            Err(TapeError::ChecksumMismatch { .. })
        ));

        // wrong kind: a bit tape read as a word tape
        let bc = crate::lower_with(&sample_circuit(), 8, &crate::CompileOptions::sequential());
        let bt = BitTape::encode(&bc).to_bytes();
        assert_eq!(
            WordTape::from_bytes(&bt),
            Err(TapeError::WrongKind {
                expected: KIND_WORD,
                got: KIND_BIT
            })
        );
    }

    #[test]
    fn header_counts_at_the_size_limit_are_truncation_not_overflow() {
        // Declared payloads whose byte length overflows `usize` once the
        // header and trailer are added must be rejected, not wrap.
        let bytes = WordTape::encode(&sample_circuit()).unwrap().to_bytes();
        for words in [usize::MAX as u64 / 8 - 1, u64::MAX / 8, u64::MAX] {
            let mut b = bytes.clone();
            b[40..48].copy_from_slice(&words.to_le_bytes()); // code_words
            b[48..56].copy_from_slice(&0u64.to_le_bytes()); // num_outputs
            assert!(matches!(
                WordTape::from_bytes(&b),
                Err(TapeError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn bit_tape_roundtrips_and_evaluates() {
        let c = sample_circuit();
        let bc = crate::lower_with(&c, 16, &crate::CompileOptions::sequential());
        let t = BitTape::encode(&bc);
        let back = t.decode().unwrap();
        assert_eq!(back.gates(), bc.gates());
        assert_eq!(back.outputs(), bc.outputs());
        assert_eq!(back.num_inputs(), bc.num_inputs());
        assert_eq!(back.width(), bc.width());
        let inputs = bc.pack_inputs(&[7, 11]);
        let eng = crate::CompiledBitCircuit::compile(&back);
        assert_eq!(
            eng.evaluate_batch(std::slice::from_ref(&inputs)),
            vec![bc.evaluate(&inputs)]
        );
        let bytes = t.to_bytes();
        let t2 = BitTape::from_bytes(&bytes).unwrap();
        assert_eq!(t2, t);
    }

    #[test]
    fn wide_format_roundtrips() {
        // Force the wide path via a tape built by hand (a real >2^30-wire
        // circuit is not something a unit test materializes).
        let c = sample_circuit();
        let bc = crate::lower_with(&c, 8, &crate::CompileOptions::sequential());
        let narrow = BitTape::encode(&bc);
        let mut code = Vec::new();
        for &g in bc.gates() {
            let (op, a, b) = bgate_op(g);
            code.push(op);
            code.push(a);
            if bit_op_arity(op) == 2 {
                code.push(b);
            }
        }
        let wide = BitTape {
            format: FORMAT_WIDE,
            width: narrow.width,
            num_inputs: narrow.num_inputs,
            num_wires: narrow.num_wires,
            code,
            outputs: narrow.outputs.clone(),
        };
        let back = BitTape::from_bytes(&wide.to_bytes()).unwrap();
        assert_eq!(back, wide);
        assert_eq!(back.decode().unwrap().gates(), bc.gates());
    }

    #[test]
    fn streaming_lowering_is_byte_identical_to_lower_with() {
        let c = sample_circuit();
        let bc = crate::lower_with(&c, 32, &crate::CompileOptions::sequential());
        // Tiny chunks + window of 1 so the spill path actually runs.
        let opts = StreamOptions {
            chunk_words: 16,
            window_chunks: 1,
            spill_dir: None,
        };
        let (tape, stats) = lower_streamed(&c, 32, &opts).unwrap();
        assert!(stats.spills > 0, "test must exercise the spill path");
        let back = tape.decode().unwrap();
        assert_eq!(back.gates(), bc.gates());
        assert_eq!(back.outputs(), bc.outputs());
        assert_eq!(back.num_inputs(), bc.num_inputs());
        // And without spilling, the exact same tape.
        let (t2, s2) = lower_streamed(&c, 32, &StreamOptions::in_memory()).unwrap();
        assert_eq!(s2.spills, 0);
        assert_eq!(t2, tape);
    }

    #[test]
    fn streamed_overflow_returns_circuit_too_large() {
        // Cheap overflow regression: inject a next-id just under the cap
        // and push a handful of gates — no 4-billion-gate circuit needed.
        let mut lw = StreamLowerer::new(&StreamOptions::in_memory()).unwrap();
        lw.next = MAX_BIT_WIRES - 1;
        assert!(lw.err.is_none());
        lw.append(BGate::Input(0)); // takes the last two ids
        lw.append(BGate::Input(1));
        assert!(lw.err.is_none());
        lw.append(BGate::Input(2)); // one past the end
        match lw.err {
            Some(EvalError::CircuitTooLarge { wires, limit }) => {
                assert_eq!(limit, MAX_BIT_WIRES + 1);
                assert!(wires > limit);
            }
            ref other => panic!("expected CircuitTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn checked_wire_helpers_reject_the_cap() {
        assert!(crate::ir::checked_wire_id(0).is_ok());
        assert!(crate::ir::checked_wire_id(u32::MAX as u64 - 1).is_ok());
        assert!(matches!(
            crate::ir::checked_wire_id(u32::MAX as u64),
            Err(EvalError::CircuitTooLarge { .. })
        ));
        assert!(checked_bit_id(MAX_BIT_WIRES).is_ok());
        assert!(matches!(
            checked_bit_id(MAX_BIT_WIRES + 1),
            Err(EvalError::CircuitTooLarge { .. })
        ));
    }
}
