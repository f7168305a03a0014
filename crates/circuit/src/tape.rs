//! Flat instruction-tape circuit encoding and versioned binary
//! serialization.
//!
//! The paper's premise is that a circuit is a *compact reusable
//! artifact* of query compilation: compile once, evaluate many, ship to
//! an MPC counterparty (Sec. 4.1). This module makes that concrete in
//! two steps:
//!
//! 1. **Flat tapes.** [`WordTape`] and [`BitTape`] are word-coded
//!    instruction streams — one `Vec<u64>` of `(opcode, operand)` words —
//!    that carry a circuit out of the process; in memory a circuit is
//!    the word level's packed arena (an opcode byte and three `u32`
//!    words per gate) or the bit level's `Vec<BGate>`. The
//!    *narrow* format packs a whole instruction into one word
//!    (`[opcode:4][a:30][b:30]`, extra words for `Const`/`Mux`); the
//!    *wide* format spends one word per operand and therefore carries
//!    64-bit ids on disk, though decoding still goes through the 32-bit
//!    in-memory IR (see
//!    [`EvalError::CircuitTooLarge`](crate::EvalError::CircuitTooLarge)).
//!    A tape is a storage and transfer format, not an evaluator:
//!    [`WordTape::decode`] / [`BitTape::decode`] hand it back to the
//!    level's circuit, which its one compile call
//!    ([`CompiledCircuit::compile_with`](crate::CompiledCircuit::compile_with),
//!    [`CompiledBitCircuit::compile_gmw`](crate::CompiledBitCircuit::compile_gmw))
//!    turns into an engine. A bit tape comes from
//!    [`lower_with`](crate::lower_with) followed by [`BitTape::encode`].
//!    [`WordTape::encoded_byte_len`] gives a word tape's serialized
//!    length without encoding it, for callers that charge a plan by its
//!    tape but keep no tape.
//! 2. **Serialization.** [`WordTape::to_bytes`]/[`BitTape::to_bytes`]
//!    emit a magic-tagged, versioned container with an FNV-1a-64
//!    checksum trailer; `from_bytes` rejects truncation, trailing bytes,
//!    bad magic, unknown versions, wrong kinds, checksum mismatches, and
//!    malformed instructions with typed [`TapeError`]s. This is what
//!    lets a compiled circuit leave the process, and it is the only
//!    format a circuit is read back from.

use std::fmt;
use std::path::Path;

use crate::ir::{op, Gates};
use crate::lower::{BGate, BitCircuit, BitGates, MAX_BIT_WIRES};
use crate::validate::ValidateError;
use crate::{Circuit, Gate, WireId};

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
    /// The instruction stream does not describe a valid circuit: its
    /// input indices are not dense, or its bit outputs are not whole
    /// words.
    Invalid(ValidateError),
    /// An I/O failure while saving or loading.
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
            TapeError::Invalid(e) => write!(f, "tape is not a valid circuit: {e}"),
            TapeError::Io(e) => write!(f, "tape i/o error: {e}"),
        }
    }
}

impl std::error::Error for TapeError {}

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
    let mut h = Fnv1a64::new();
    h.write(bytes);
    h.finish()
}

/// [`fnv1a64`] fed in pieces: hashing a sequence of slices equals
/// hashing their concatenation.
pub(crate) struct Fnv1a64(u64);

impl Fnv1a64 {
    pub(crate) fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
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

/// Word-gate opcodes are the packed record's opcode (the gate kind's
/// [`GATE_KINDS`](crate::GATE_KINDS) slot) plus one, so an all-zero word
/// can never be a valid instruction.
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
    /// Encodes a circuit, picking the narrow format when every id and
    /// input index fits its 30-bit operand field.
    pub fn encode(c: &Circuit) -> WordTape {
        WordTape::encode_as(c, is_narrow(c))
    }

    /// Encodes `c` in the narrow or the wide format.
    fn encode_as(c: &Circuit, narrow: bool) -> WordTape {
        let format = if narrow { FORMAT_NARROW } else { FORMAT_WIDE };
        let mut code = Vec::with_capacity(code_words(c, narrow));
        for r in c.arena().iter() {
            let opcode = u64::from(r.op) + 1;
            let [a, b, cc] = r.args.map(u64::from);
            match (r.op, narrow) {
                (op::CONST, true) => code.extend([pack_narrow(opcode, 0, 0), r.value()]),
                (op::CONST, false) => code.extend([opcode, r.value()]),
                (op::MUX, true) => code.extend([pack_narrow(opcode, a, b), cc]),
                (_, true) => code.push(pack_narrow(opcode, a, b)),
                (_, false) => {
                    code.push(opcode);
                    code.extend_from_slice(&[a, b, cc][..word_op_arity(opcode)]);
                }
            }
        }
        WordTape {
            format,
            num_inputs: c.num_inputs() as u64,
            num_wires: c.num_wires() as u64,
            code,
            outputs: c.outputs().iter().map(|&w| w as u64).collect(),
        }
    }

    /// The [`byte_len`](WordTape::byte_len) of `encode(c)`, counted from
    /// the circuit without encoding it.
    pub fn encoded_byte_len(c: &Circuit) -> usize {
        container_len(code_words(c, is_narrow(c)) + c.outputs().len())
    }

    /// Decodes back into the in-memory IR. The result is gate-for-gate
    /// identical to the circuit that was encoded (same gates, outputs and
    /// input count — the differ checks this). A tape is only ever made by
    /// [`WordTape::encode`] or the checked [`WordTape::from_bytes`], so
    /// the decoded gate list is a valid circuit.
    pub fn decode(&self) -> Result<Circuit, TapeError> {
        let mut gates = Gates::with_capacity(self.num_wires as usize);
        self.for_each_instruction(|_w, op, a, b, c| {
            let w = |o: u64| o as WireId;
            let g = match op {
                OP_INPUT => Gate::Input(a as usize),
                OP_CONST => Gate::Const(a),
                3 => Gate::Add(w(a), w(b)),
                4 => Gate::Sub(w(a), w(b)),
                5 => Gate::Mul(w(a), w(b)),
                6 => Gate::Eq(w(a), w(b)),
                7 => Gate::Lt(w(a), w(b)),
                8 => Gate::And(w(a), w(b)),
                9 => Gate::Or(w(a), w(b)),
                10 => Gate::Xor(w(a), w(b)),
                11 => Gate::Not(w(a)),
                OP_MUX => Gate::Mux(w(a), w(b), w(c)),
                OP_ASSERT => Gate::AssertZero(w(a)),
                _ => unreachable!("for_each_instruction rejects bad opcodes"),
            };
            gates.push(g.pack());
            Ok(())
        })?;
        let outputs = self.outputs.iter().map(|&o| o as WireId).collect();
        Ok(
            Circuit::from_gates(gates, outputs, self.num_inputs as usize)
                .expect("the tape was checked when it was made"),
        )
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
        check_word_tape(&t)?;
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

/// Whether every wire id and input index of `c` fits the narrow format.
fn is_narrow(c: &Circuit) -> bool {
    (c.num_wires() as u64) < NARROW_LIMIT && (c.num_inputs() as u64) < NARROW_LIMIT
}

/// Code words [`WordTape::encode`] writes for `c`: per instruction one
/// word, plus the narrow format's second word for `Const` and `Mux`, or
/// the wide format's operand words.
fn code_words(c: &Circuit, narrow: bool) -> usize {
    c.arena()
        .iter()
        .map(|r| match (r.op, narrow) {
            (op::CONST | op::MUX, true) => 2,
            (_, true) => 1,
            (o, false) => 1 + word_op_arity(u64::from(o) + 1),
        })
        .sum()
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
        BGate::Input(i) => (BOP_INPUT, u64::from(i), 0),
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
        for g in bc.gates() {
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
    /// the encoded one. A tape is only ever made by [`BitTape::encode`]
    /// or the checked [`BitTape::from_bytes`], so the decoded gate list
    /// is a valid circuit; the one refusal left is a tape past the
    /// in-memory IR's 32-bit wire ids.
    pub fn decode(&self) -> Result<BitCircuit, TapeError> {
        if self.num_wires > MAX_BIT_WIRES + 1 {
            return Err(TapeError::TooLargeForFormat {
                wires: self.num_wires,
                limit: MAX_BIT_WIRES + 1,
            });
        }
        let mut gates = BitGates::with_capacity(self.num_wires as usize);
        self.for_each_instruction(|_w, op, a, b| {
            let w = |o: u64| o as u32;
            gates.push(match op {
                BOP_CONST => BGate::Const(a != 0),
                BOP_INPUT => BGate::Input(w(a)),
                BOP_XOR => BGate::Xor(w(a), w(b)),
                BOP_AND => BGate::And(w(a), w(b)),
                BOP_NOT => BGate::Not(w(a)),
                BOP_ASSERT => BGate::AssertFalse(w(a)),
                _ => unreachable!("for_each_instruction rejects bad opcodes"),
            });
            Ok(())
        })?;
        let outputs = self.outputs.iter().map(|&o| o as u32).collect();
        Ok(
            BitCircuit::from_store(gates, outputs, self.num_inputs as usize, self.width)
                .expect("the tape was checked when it was made"),
        )
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
        check_bit_tape(&t)?;
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

// ---- structural checks, run by `from_bytes` on every load ----

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

/// Counts `Input` instructions, demanding the dense indices `0, 1, 2, …`
/// in wire order that [`Circuit::from_raw`] and
/// [`BitCircuit::from_raw`] demand of the decoded gate list.
#[derive(Default)]
struct InputCount(u64);

impl InputCount {
    fn next(&mut self, wire: u64, declared: u64) -> Result<(), TapeError> {
        if declared != self.0 {
            return Err(TapeError::Invalid(ValidateError::InputIndexOutOfOrder {
                gate: wire as usize,
                declared: declared as usize,
                expected: self.0 as usize,
            }));
        }
        self.0 += 1;
        Ok(())
    }

    fn finish(self, header: u64) -> Result<(), TapeError> {
        if self.0 != header {
            return Err(TapeError::Invalid(ValidateError::InputCountMismatch {
                declared: header as usize,
                found: self.0 as usize,
            }));
        }
        Ok(())
    }
}

/// One pass over a word tape without materializing gates: opcode
/// validity, topological operands, dense input indices matching the
/// declared arity, header wire count, and output range.
pub(crate) fn check_word_tape(t: &WordTape) -> Result<(), TapeError> {
    let mut wires = 0u64;
    let mut inputs = InputCount::default();
    t.for_each_instruction(|word, op, a, b, c| {
        match op {
            OP_INPUT => inputs.next(wires, a)?,
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
    inputs.finish(t.num_inputs)?;
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
/// bit level, plus outputs that are whole `width`-bit words.
pub(crate) fn check_bit_tape(t: &BitTape) -> Result<(), TapeError> {
    let mut wires = 0u64;
    let mut inputs = InputCount::default();
    t.for_each_instruction(|word, op, a, b| {
        match op {
            BOP_CONST => {}
            BOP_INPUT => inputs.next(wires, a)?,
            BOP_XOR | BOP_AND => {
                check_operand(word, a, wires)?;
                check_operand(word, b, wires)?;
            }
            _ => check_operand(word, a, wires)?,
        }
        wires += 1;
        Ok(())
    })?;
    inputs.finish(t.num_inputs)?;
    if wires != t.num_wires {
        return Err(TapeError::WireCountMismatch {
            header: t.num_wires,
            found: wires,
        });
    }
    for (i, &o) in t.outputs.iter().enumerate() {
        check_operand(t.code.len() + i, o, wires)?;
    }
    if t.width != 0 && !t.outputs.len().is_multiple_of(t.width as usize) {
        return Err(TapeError::Invalid(ValidateError::OutputWidthMismatch {
            outputs: t.outputs.len(),
            width: t.width,
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Builder, EvalError};

    fn sample_circuit() -> Circuit {
        let mut b = Builder::new();
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
        let t = WordTape::encode(&c);
        assert_eq!(t.format(), FORMAT_NARROW);
        let back = t.decode().unwrap();
        assert!(back.gates().eq(c.gates()));
        assert_eq!(back.outputs(), c.outputs());
        assert_eq!(back.num_inputs(), c.num_inputs());
        let eng = crate::CompiledCircuit::compile_with(&back, &crate::CompileOptions::sequential())
            .unwrap();
        for (x, y) in [(3u64, 9u64), (9, 3), (0, 0), (u64::MAX, 1)] {
            assert_eq!(eng.evaluate(&[x, y]), c.evaluate(&[x, y]));
        }
        let bytes = t.to_bytes();
        assert_eq!(t.byte_len(), bytes.len());
        assert_eq!(WordTape::encoded_byte_len(&c), bytes.len());
        let t2 = WordTape::from_bytes(&bytes).unwrap();
        assert_eq!(t2, t);
        assert_eq!(t2.to_bytes(), bytes);
    }

    #[test]
    fn wide_word_tapes_roundtrip_and_count_their_bytes() {
        // The wide format only engages past 2^30 wires; encode the
        // sample in it directly.
        let c = sample_circuit();
        let wide = WordTape::encode_as(&c, false);
        assert_eq!(wide.format(), FORMAT_WIDE);
        assert_eq!(wide.code().len(), code_words(&c, false));
        let back = WordTape::from_bytes(&wide.to_bytes()).unwrap();
        assert_eq!(back, wide);
        assert!(back.decode().unwrap().gates().eq(c.gates()));
        let narrow = WordTape::encode(&c);
        assert_eq!(narrow.code().len(), code_words(&c, true));
        assert!(wide.code().len() > narrow.code().len());
    }

    #[test]
    fn corrupted_containers_are_rejected_with_typed_errors() {
        let t = WordTape::encode(&sample_circuit());
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
        let bytes = WordTape::encode(&sample_circuit()).to_bytes();
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
        assert!(back.gates().eq(bc.gates()));
        assert_eq!(back.outputs(), bc.outputs());
        assert_eq!(back.num_inputs(), bc.num_inputs());
        assert_eq!(back.width(), bc.width());
        let inputs = bc.pack_inputs(&[7, 11]);
        let eng = crate::CompiledBitCircuit::compile_gmw(&back);
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
        for g in bc.gates() {
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
        assert!(back.decode().unwrap().gates().eq(bc.gates()));
    }

    #[test]
    fn input_bit_indices_past_u32_are_rejected_not_truncated() {
        // Only the wide format can carry such an index. Input indices
        // must be dense, so the loader refuses it before `decode` could
        // narrow it.
        let index = 1u64 << 32;
        let t = BitTape {
            format: FORMAT_WIDE,
            width: 1,
            num_inputs: index + 1,
            num_wires: 1,
            code: vec![BOP_INPUT, index],
            outputs: vec![0],
        };
        assert_eq!(
            BitTape::from_bytes(&t.to_bytes()),
            Err(TapeError::Invalid(ValidateError::InputIndexOutOfOrder {
                gate: 0,
                declared: index as usize,
                expected: 0
            }))
        );
    }

    #[test]
    fn repeated_input_indices_are_rejected_on_load() {
        // Each index is below the declared arity, so a range check alone
        // lets both tapes through.
        let word = WordTape {
            format: FORMAT_NARROW,
            num_inputs: 2,
            num_wires: 2,
            code: vec![pack_narrow(OP_INPUT, 0, 0), pack_narrow(OP_INPUT, 0, 0)],
            outputs: vec![1],
        };
        let bit = BitTape {
            format: FORMAT_NARROW,
            width: 1,
            num_inputs: 2,
            num_wires: 2,
            code: vec![pack_narrow(BOP_INPUT, 0, 0), pack_narrow(BOP_INPUT, 0, 0)],
            outputs: vec![1],
        };
        let repeated = TapeError::Invalid(ValidateError::InputIndexOutOfOrder {
            gate: 1,
            declared: 0,
            expected: 1,
        });
        assert_eq!(
            WordTape::from_bytes(&word.to_bytes()),
            Err(repeated.clone())
        );
        assert_eq!(BitTape::from_bytes(&bit.to_bytes()), Err(repeated));
    }

    #[test]
    fn bit_outputs_that_split_a_word_are_rejected_on_load() {
        let t = BitTape {
            format: FORMAT_NARROW,
            width: 2,
            num_inputs: 1,
            num_wires: 1,
            code: vec![pack_narrow(BOP_INPUT, 0, 0)],
            outputs: vec![0, 0, 0],
        };
        assert_eq!(
            BitTape::from_bytes(&t.to_bytes()),
            Err(TapeError::Invalid(ValidateError::OutputWidthMismatch {
                outputs: 3,
                width: 2
            }))
        );
    }

    #[test]
    fn checked_wire_helpers_reject_the_cap() {
        assert!(crate::ir::checked_wire_id(0).is_ok());
        assert!(crate::ir::checked_wire_id(u32::MAX as u64 - 1).is_ok());
        assert!(matches!(
            crate::ir::checked_wire_id(u32::MAX as u64),
            Err(EvalError::CircuitTooLarge { .. })
        ));
        assert!(crate::lower::checked_bit_id(MAX_BIT_WIRES).is_ok());
        assert!(matches!(
            crate::lower::checked_bit_id(MAX_BIT_WIRES + 1),
            Err(EvalError::CircuitTooLarge { .. })
        ));
    }
}
