//! Secure two-party query evaluation over the paper's circuits
//! (Sec. 1, "Secure multi-party query evaluation").
//!
//! GMW-style protocol over XOR secret shares: each bit of the (lowered)
//! query circuit's input is split into two shares whose XOR is the true
//! value. XOR and NOT gates are evaluated locally; each AND gate consumes
//! one precomputed *Beaver multiplication triple* and one share exchange.
//! The protocol transcript each party sees is independent of the other
//! party's data — which is exactly why the paper insists on circuits:
//! the circuit *is* the oblivious algorithm, and its
//!
//! * **size** (AND count) drives communication and computation,
//! * **depth** (AND depth) drives round complexity.
//!
//! The crate is layered along that split:
//!
//! * [`share`](mod@share) — XOR sharing of inputs and the transposed
//!   lane-word packing of batches;
//! * [`dealer`] — the offline phase: Beaver triple generation behind
//!   the [`TripleSource`] streaming seam (in-memory, dealer files, or —
//!   later — OT extension);
//! * [`transport`] — framed, versioned, checksummed messages over the
//!   [`Transport`] trait: in-process [`Duplex`], blocking
//!   [`TcpTransport`], fault-injecting [`FaultTransport`];
//! * [`protocol`] — the online phase: a networked [`Session`] per
//!   party, exchanging **one message per AND level** of the compiled
//!   tape (`stats.rounds == AND depth` under
//!   [`CompiledBitCircuit::compile_gmw`]).
//!
//! [`Session`] is the only online phase. [`run_sessions`] runs both
//! parties over any transport pair, party 1 on its own thread, and
//! [`run_two_party`] wraps it for plain in-process batches over a
//! [`Duplex`] pair — the same code path as a real deployment, minus the
//! network. No cryptographic hardness is claimed for the dealer (it is
//! the standard trusted-dealer model); the online phase is faithfully
//! message-passing with exact cost accounting.

use qec_circuit::bitengine::CompiledBitCircuit;
use qec_circuit::lower::BitCircuit;

pub mod dealer;
pub mod protocol;
pub mod share;
pub mod transport;

pub use dealer::{
    write_triple_files, write_triples, InsecureSeedTriples, PackedDealer, TripleSource,
    TripleStream, TripleVec, TRIPLE_MAGIC, TRIPLE_VERSION,
};
pub use protocol::{BatchedOutcome, Outcome, Session};
pub use share::share_instances;
pub use transport::{
    Duplex, Fault, FaultTransport, Frame, FrameKind, Role, TcpTransport, Transport,
    DEFAULT_TIMEOUT, FRAME_HEADER_BYTES, FRAME_MAGIC, FRAME_TRAILER_BYTES, FRAME_VERSION,
    MAX_FRAME_PAYLOAD,
};

/// Cost accounting of a protocol run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// AND gates evaluated = scalar triples consumed (counted at the
    /// full packed width, padding lanes included).
    pub and_gates: u64,
    /// Online-phase bits whose transfer the protocol fundamentally
    /// requires: 2 mask bits each direction per AND gate. The wire
    /// carries these packed per level, plus framing — see
    /// `bytes_sent`.
    pub messages_bits: u64,
    /// XOR/NOT gates (evaluated locally, no communication).
    pub free_gates: u64,
    /// AND-level message exchanges. Equals the tape's AND-bearing level
    /// count per block — and the circuit's AND *depth* under
    /// [`CompiledBitCircuit::compile_gmw`]'s schedule.
    pub rounds: u64,
    /// Non-AND exchanges: the `Hello` handshake and one `Open` per
    /// block (outputs + deferred asserts).
    pub open_rounds: u64,
    /// Bytes of encoded frames handed to the transport.
    pub bytes_sent: u64,
    /// Bytes of encoded frames received from the transport.
    pub bytes_recv: u64,
}

/// Errors during protocol evaluation — including every way a broken or
/// hostile wire can fail. The protocol never hangs past its transport
/// timeout and never returns a silently wrong answer: each failure mode
/// surfaces as one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MpcError {
    /// Not enough Beaver triples were prepared.
    OutOfTriples,
    /// Input share vectors have the wrong length.
    InputLength {
        /// Bits the circuit expects.
        expected: usize,
        /// Bits supplied.
        got: usize,
    },
    /// An assertion gate in the circuit fired after reconstruction.
    AssertionFailed(usize),
    /// The triple source's packed width disagrees with the session's.
    TripleWidth {
        /// Lane words the session runs at.
        expected: usize,
        /// Lane words the source yields.
        got: usize,
    },
    /// A frame or file did not start with the expected magic bytes.
    BadMagic,
    /// A frame or file carried an unsupported version.
    BadVersion {
        /// The version encountered.
        got: u32,
    },
    /// A frame's FNV-1a-64 trailer did not match its contents.
    BadChecksum,
    /// A structurally malformed frame (impossible length, unknown kind,
    /// reserved bits set, payload shape disagreeing with the tape).
    BadFrame(&'static str),
    /// The peer's frame was for a different round than this party is in
    /// (a dropped, duplicated or reordered message).
    UnexpectedRound {
        /// Round this party is executing.
        expected: u32,
        /// Round the peer's frame claims.
        got: u32,
    },
    /// The peer's frame kind does not match the protocol phase.
    UnexpectedKind {
        /// Kind this phase calls for.
        expected: FrameKind,
        /// Kind received.
        got: FrameKind,
    },
    /// A frame claimed to come from the wrong party.
    RoleMismatch {
        /// The peer role this session expects.
        expected: Role,
        /// The role the frame carried.
        got: Role,
    },
    /// The two parties are not running the same tape/batch (handshake
    /// fingerprint or geometry disagreement).
    TapeMismatch(String),
    /// Fewer bytes than a whole frame (or triple record) before EOF.
    ShortRead,
    /// The peer went silent past the transport timeout.
    PeerTimeout,
    /// The peer closed the connection.
    PeerClosed,
    /// An underlying I/O failure (socket, dealer file).
    Io(String),
}

impl std::fmt::Display for MpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpcError::OutOfTriples => write!(f, "dealer did not prepare enough triples"),
            MpcError::InputLength { expected, got } => {
                write!(f, "expected {expected} input bit shares, got {got}")
            }
            MpcError::AssertionFailed(g) => write!(f, "circuit assertion {g} failed"),
            MpcError::TripleWidth { expected, got } => {
                write!(
                    f,
                    "triple source yields {got} lane words, session needs {expected}"
                )
            }
            MpcError::BadMagic => write!(f, "bad magic bytes"),
            MpcError::BadVersion { got } => write!(f, "unsupported format version {got}"),
            MpcError::BadChecksum => write!(f, "frame checksum mismatch"),
            MpcError::BadFrame(why) => write!(f, "malformed frame: {why}"),
            MpcError::UnexpectedRound { expected, got } => {
                write!(f, "expected round {expected}, peer sent round {got}")
            }
            MpcError::UnexpectedKind { expected, got } => {
                write!(f, "expected {expected:?} frame, peer sent {got:?}")
            }
            MpcError::RoleMismatch { expected, got } => {
                write!(f, "expected frame from {expected}, got one from {got}")
            }
            MpcError::TapeMismatch(why) => write!(f, "parties disagree on the tape: {why}"),
            MpcError::ShortRead => write!(f, "short read: stream ended mid-record"),
            MpcError::PeerTimeout => write!(f, "peer went silent past the transport timeout"),
            MpcError::PeerClosed => write!(f, "peer closed the connection"),
            MpcError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for MpcError {}

/// Runs the whole protocol in process on plain `instances` at a packed
/// width of `lanes` (rounded up to whole lane words; 64, 256 and 512
/// are the natural sizes). Provisions exactly enough packed triples,
/// shares every instance, and runs both parties' [`Session`]s over a
/// [`Duplex`] pair with [`run_sessions`], returning party 0's view.
/// Compile `eng` with [`CompiledBitCircuit::compile_gmw`] for the
/// round-optimal schedule.
///
/// An instance of the wrong arity gets its own
/// [`MpcError::InputLength`]; the rest of the batch still runs.
pub fn run_two_party(
    eng: &CompiledBitCircuit,
    instances: &[Vec<bool>],
    lanes: usize,
    seed: u64,
) -> Result<BatchedOutcome, MpcError> {
    let words = lanes.max(1).div_ceil(64);
    let num_inputs = eng.num_inputs();
    let valid: Vec<Vec<bool>> = instances
        .iter()
        .filter(|i| i.len() == num_inputs)
        .cloned()
        .collect();
    let (session_results, stats) = if valid.is_empty() {
        (Vec::new(), ProtocolStats::default())
    } else {
        let blocks = valid.len().div_ceil(words * 64);
        let steps = eng.stats().and_ops as usize * blocks;
        let (s0, s1) = share_instances(&valid, seed.wrapping_add(1));
        let (o0, o1) = run_sessions(
            eng,
            words,
            Duplex::pair(),
            PackedDealer::new(steps, words, seed).split(),
            (&s0, &s1),
        );
        let (o0, o1) = (o0?, o1?);
        debug_assert_eq!(o0.results, o1.results);
        (o0.results, o0.stats)
    };
    let mut session_results = session_results.into_iter();
    let results = instances
        .iter()
        .map(|inst| {
            if inst.len() == num_inputs {
                session_results
                    .next()
                    .expect("one session result per valid instance")
            } else {
                Err(MpcError::InputLength {
                    expected: num_inputs,
                    got: inst.len(),
                })
            }
        })
        .collect();
    Ok((results, stats))
}

/// Runs both parties of one batch against each other: party 0 on the
/// calling thread over `transports.0`, party 1 on a scoped thread over
/// `transports.1`, each consuming its own triple source and input
/// shares at a packed width of `words` lane words. Works over any
/// transport pair — a [`Duplex`] pair, two ends of a TCP connection, or
/// a [`FaultTransport`] wrapping either. Returns each party's own
/// result, so a failure on one side does not hide the other's.
pub fn run_sessions<T0, T1, S0, S1>(
    eng: &CompiledBitCircuit,
    words: usize,
    transports: (T0, T1),
    triples: (S0, S1),
    shares: (&[Vec<bool>], &[Vec<bool>]),
) -> (Result<Outcome, MpcError>, Result<Outcome, MpcError>)
where
    T0: Transport,
    T1: Transport + Send,
    S0: TripleSource,
    S1: TripleSource + Send,
{
    let (t0, t1) = transports;
    let (a, b) = triples;
    std::thread::scope(|scope| {
        let h = scope.spawn(move || {
            Session::new(eng, Role::P1, t1, b)
                .with_words(words)
                .run(shares.1)
        });
        let o0 = Session::new(eng, Role::P0, t0, a)
            .with_words(words)
            .run(shares.0);
        (o0, h.join().expect("party 1 thread panicked"))
    })
}

/// Garbled-circuit (Yao) cost estimate for a lowered circuit under the
/// half-gates optimization: two 128-bit ciphertexts per AND gate, XOR and
/// NOT free, one round of communication total (the paper's Sec. 1: size
/// drives communication/computation, and garbling needs no interaction
/// beyond input/output transfer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GarblingCost {
    /// AND gates garbled.
    pub and_gates: u64,
    /// Ciphertexts in the garbled table (2 per AND under half-gates).
    pub ciphertexts: u64,
    /// Table bytes at 128-bit security.
    pub table_bytes: u64,
    /// Wire labels transferred for the evaluator's inputs (one 16-byte
    /// label per input bit; via OT in a real deployment).
    pub input_label_bytes: u64,
}

/// Estimates Yao/half-gates garbling costs for `circuit`.
pub fn garbling_cost(circuit: &BitCircuit) -> GarblingCost {
    let and_gates = circuit.and_count();
    let ciphertexts = 2 * and_gates;
    GarblingCost {
        and_gates,
        ciphertexts,
        table_bytes: ciphertexts * 16,
        input_label_bytes: circuit.num_inputs() as u64 * 16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_circuit::lower::lower_with;
    use qec_circuit::{BitKernel, Builder, CompileOptions, EvalError};

    fn adder_circuit() -> BitCircuit {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let s = b.add(x, y);
        let lt = b.lt(x, y);
        let c = b.finish(vec![s, lt]);
        lower_with(&c, 16, &CompileOptions::sequential())
    }

    /// `x + y` under an `x == 0` assertion, so odd `x` fails it.
    fn asserting_circuit() -> BitCircuit {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        b.assert_zero(x);
        let s = b.add(x, y);
        let c = b.finish(vec![s]);
        lower_with(&c, 4, &CompileOptions::sequential())
    }

    /// The bit level's reference interpreter, in the protocol's error
    /// type: a failing assertion keeps its gate index.
    fn plaintext(bc: &BitCircuit, inst: &[bool]) -> Result<Vec<bool>, MpcError> {
        bc.evaluate(inst).map_err(|e| match e {
            EvalError::AssertionFailed { gate, .. } => MpcError::AssertionFailed(gate),
            other => panic!("reference rejected the instance: {other}"),
        })
    }

    /// Runs `instances` through two sessions at one lane word, with
    /// each party's triple stream cut to `steps` packed steps.
    fn sessions_with_steps(
        eng: &CompiledBitCircuit,
        instances: &[Vec<bool>],
        steps: usize,
    ) -> (Result<Outcome, MpcError>, Result<Outcome, MpcError>) {
        let (s0, s1) = share_instances(instances, 4);
        run_sessions(
            eng,
            1,
            Duplex::pair(),
            PackedDealer::new(steps, 1, 3).split(),
            (&s0, &s1),
        )
    }

    #[test]
    fn shared_evaluation_matches_plaintext() {
        let bc = adder_circuit();
        let eng = CompiledBitCircuit::compile_gmw(&bc);
        for (x, y) in [(3u64, 5u64), (100, 250), (65535, 1), (0, 0)] {
            let bits = bc.pack_inputs(&[x, y]);
            let (shared, stats) = run_two_party(&eng, std::slice::from_ref(&bits), 64, 42).unwrap();
            assert_eq!(shared, vec![plaintext(&bc, &bits)], "inputs ({x}, {y})");
            // one packed triple (64 lanes) per tape AND
            assert_eq!(stats.and_gates, bc.and_count() * 64);
            // one exchange per AND-bearing level == AND depth under
            // the GMW schedule
            assert_eq!(stats.rounds, eng.stats().and_levels as u64);
            assert_eq!(stats.open_rounds, 2); // hello + one block's open
            assert!(stats.bytes_sent > 0 && stats.bytes_sent == stats.bytes_recv);
        }
    }

    #[test]
    fn different_seeds_same_result() {
        let bc = adder_circuit();
        let eng = CompiledBitCircuit::compile_gmw(&bc);
        let bits = vec![bc.pack_inputs(&[123, 456])];
        let (r1, _) = run_two_party(&eng, &bits, 64, 1).unwrap();
        let (r2, _) = run_two_party(&eng, &bits, 64, 999).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn out_of_triples_detected() {
        let bc = adder_circuit();
        let eng = CompiledBitCircuit::compile_gmw(&bc);
        let and_ops = eng.stats().and_ops as usize;
        // a single instance with far too few triples
        let one = vec![bc.pack_inputs(&[1, 2])];
        let (r0, r1) = sessions_with_steps(&eng, &one, 1);
        assert_eq!(r0.unwrap_err(), MpcError::OutOfTriples);
        assert_eq!(r1.unwrap_err(), MpcError::OutOfTriples);
        // a two-block batch provisioned for one block only
        let batch: Vec<Vec<bool>> = (0..70u64).map(|i| bc.pack_inputs(&[i, 3])).collect();
        let (r0, r1) = sessions_with_steps(&eng, &batch, and_ops);
        assert_eq!(r0.unwrap_err(), MpcError::OutOfTriples);
        assert_eq!(r1.unwrap_err(), MpcError::OutOfTriples);
        // and exactly enough for both blocks succeeds
        let (r0, _) = sessions_with_steps(&eng, &batch, 2 * and_ops);
        assert!(r0.unwrap().results.iter().all(Result::is_ok));
    }

    #[test]
    fn wrong_share_length_detected() {
        let bc = adder_circuit();
        let eng = CompiledBitCircuit::compile_gmw(&bc);
        let (r0, r1) = sessions_with_steps(&eng, &[vec![true]], 10);
        let want = MpcError::InputLength {
            expected: bc.num_inputs(),
            got: 1,
        };
        assert_eq!(r0.unwrap_err(), want);
        assert_eq!(r1.unwrap_err(), want);
        let (results, _) = run_two_party(&eng, &[vec![true, false]], 64, 3).unwrap();
        assert_eq!(
            results,
            vec![Err(MpcError::InputLength {
                expected: bc.num_inputs(),
                got: 2
            })]
        );
    }

    #[test]
    fn assertion_gates_surface() {
        let bc = asserting_circuit();
        let eng = CompiledBitCircuit::compile_gmw(&bc);
        let ok = bc.pack_inputs(&[0, 3]);
        let bad = bc.pack_inputs(&[5, 3]);
        let (results, _) = run_two_party(&eng, &[ok.clone(), bad.clone()], 64, 9).unwrap();
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(MpcError::AssertionFailed(_))));
        assert_eq!(results, vec![plaintext(&bc, &ok), plaintext(&bc, &bad)]);
    }

    #[test]
    fn batched_matches_plaintext_at_every_width() {
        let bc = adder_circuit();
        let eng = CompiledBitCircuit::compile_gmw(&bc);
        let instances: Vec<Vec<bool>> = (0..70u64)
            .map(|i| bc.pack_inputs(&[i * 37 % 1009, i * i % 997]))
            .collect();
        for lanes in [64usize, 256, 512] {
            let (batched, stats) = run_two_party(&eng, &instances, lanes, 7).unwrap();
            assert_eq!(batched.len(), instances.len());
            for (inst, got) in instances.iter().zip(&batched) {
                assert_eq!(got, &plaintext(&bc, inst), "lanes {lanes}");
            }
            // one packed triple per AND per block, full width
            let blocks = instances.len().div_ceil(lanes.max(64));
            assert_eq!(
                stats.and_gates,
                bc.and_count() * (lanes.max(64) * blocks) as u64
            );
            assert_eq!(stats.messages_bits, 4 * stats.and_gates);
        }
    }

    #[test]
    fn multi_block_sessions_match_the_interpreter() {
        // 130 instances at one lane word: three blocks, the last ragged.
        let bc = adder_circuit();
        let eng = CompiledBitCircuit::compile_gmw(&bc);
        let instances: Vec<Vec<bool>> = (0..130u64)
            .map(|i| bc.pack_inputs(&[i * 31 % 777, i * 5 % 999]))
            .collect();
        let blocks = instances.len().div_ceil(64);
        let (o0, o1) = sessions_with_steps(&eng, &instances, eng.stats().and_ops as usize * blocks);
        let (o0, o1) = (o0.unwrap(), o1.unwrap());
        let want: Vec<_> = instances.iter().map(|i| plaintext(&bc, i)).collect();
        assert_eq!(o0.results, want);
        assert_eq!(o1.results, want);
        assert_eq!(o0.stats.and_gates, bc.and_count() * 64 * blocks as u64);
        assert_eq!(
            o0.stats.rounds,
            eng.stats().and_levels as u64 * blocks as u64
        );
        assert_eq!(o0.stats.bytes_sent, o1.stats.bytes_recv);
        assert_eq!(o0.level_ns.len(), eng.level_starts().len() - 1);
    }

    #[test]
    fn level_time_splits_into_and_levels_and_local_levels() {
        // Two blocks, so each level's time is a sum over blocks.
        let bc = adder_circuit();
        let eng = CompiledBitCircuit::compile_gmw(&bc);
        let instances: Vec<Vec<bool>> = (0..100u64)
            .map(|i| bc.pack_inputs(&[i * 13 % 501, i * 7 % 303]))
            .collect();
        let steps = eng.stats().and_ops as usize * instances.len().div_ceil(64);
        let (s0, s1) = share_instances(&instances, 4);
        let (t0, t1) = Duplex::pair();
        let (a, b) = PackedDealer::new(steps, 1, 3).split();
        let rec = qec_obs::Recorder::new(true);
        let o0 = std::thread::scope(|scope| {
            scope.spawn(|| {
                Session::new(&eng, Role::P1, t1, b)
                    .with_words(1)
                    .run(&s1)
                    .unwrap()
            });
            Session::new(&eng, Role::P0, t0, a)
                .with_words(1)
                .with_recorder(&rec)
                .run(&s0)
                .unwrap()
        });
        let and = rec.counter("mpc.and_level_ns");
        let local = rec.counter("mpc.local_level_ns");
        assert!(and > 0, "AND levels wait on the peer");
        assert_eq!(and + local, o0.level_ns.iter().sum::<u64>());
    }

    #[test]
    fn batched_asserts_report_source_gate() {
        let bc = asserting_circuit();
        let eng = CompiledBitCircuit::compile_gmw(&bc);
        let instances: Vec<Vec<bool>> = (0..5u64).map(|i| bc.pack_inputs(&[i % 2, 3])).collect();
        let (results, _) = run_two_party(&eng, &instances, 64, 3).unwrap();
        for (inst, got) in instances.iter().zip(&results) {
            assert_eq!(got, &plaintext(&bc, inst));
        }
    }

    #[test]
    fn batched_flags_wrong_arity_lanes() {
        let bc = adder_circuit();
        let eng = CompiledBitCircuit::compile_gmw(&bc);
        let good = bc.pack_inputs(&[9, 10]);
        let (results, _) =
            run_two_party(&eng, &[good.clone(), vec![true; 3], good], 64, 11).unwrap();
        assert!(results[0].is_ok() && results[2].is_ok());
        assert!(matches!(results[1], Err(MpcError::InputLength { .. })));
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn garbling_cost_accounting() {
        let bc = adder_circuit();
        let g = garbling_cost(&bc);
        assert_eq!(g.and_gates, bc.and_count());
        assert_eq!(g.ciphertexts, 2 * g.and_gates);
        assert_eq!(g.table_bytes, 32 * g.and_gates);
        assert_eq!(g.input_label_bytes, 16 * bc.num_inputs() as u64);
    }

    #[test]
    fn cost_scales_with_and_count() {
        let bc = adder_circuit();
        let eng = CompiledBitCircuit::compile_gmw(&bc);
        let bits = vec![bc.pack_inputs(&[11, 22])];
        let (_, stats) = run_two_party(&eng, &bits, 64, 12).unwrap();
        assert_eq!(stats.messages_bits, 4 * stats.and_gates);
        assert!(stats.free_gates > 0);
    }

    /// Runs one instance per party, each party on its own tape, and
    /// returns both parties' results. `run_sessions` takes one tape for
    /// both, so this drives the two sessions by hand.
    fn mismatched_sessions(
        (eng_a, bits_a): (&CompiledBitCircuit, Vec<bool>),
        (eng_b, bits_b): (&CompiledBitCircuit, Vec<bool>),
    ) -> (Result<Outcome, MpcError>, Result<Outcome, MpcError>) {
        let (ta, _) = PackedDealer::new(eng_a.stats().and_ops as usize, 1, 1).split();
        let (tb, _) = PackedDealer::new(eng_b.stats().and_ops as usize, 1, 2).split();
        let (sa, _) = share_instances(&[bits_a], 5);
        let (sb, _) = share_instances(&[bits_b], 6);
        let (d0, d1) = Duplex::pair();
        std::thread::scope(|scope| {
            let h = scope.spawn(|| Session::new(eng_b, Role::P1, d1, tb).with_words(1).run(&sb));
            let ra = Session::new(eng_a, Role::P0, d0, ta).with_words(1).run(&sa);
            (ra, h.join().unwrap())
        })
    }

    #[test]
    fn handshake_rejects_mismatched_tapes() {
        let bc = adder_circuit();
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let s = b.mul(x, y);
        let other = lower_with(&b.finish(vec![s]), 16, &CompileOptions::sequential());
        let eng_a = CompiledBitCircuit::compile_gmw(&bc);
        let eng_b = CompiledBitCircuit::compile_gmw(&other);
        let (ra, rb) = mismatched_sessions(
            (&eng_a, bc.pack_inputs(&[1, 2])),
            (&eng_b, other.pack_inputs(&[3, 4])),
        );
        assert!(matches!(ra.unwrap_err(), MpcError::TapeMismatch(_)));
        assert!(matches!(rb.unwrap_err(), MpcError::TapeMismatch(_)));
    }

    /// Two tapes with the same inputs, AND count and level count differ
    /// only in which input the final XOR reads, so the fingerprint is
    /// the one handshake check that can tell them apart.
    #[test]
    fn handshake_fingerprint_alone_rejects_a_different_tape() {
        let xor_with = |pick_y: bool| {
            let mut b = Builder::new();
            let x = b.input();
            let y = b.input();
            let p = b.and(x, y);
            let o = b.xor(p, if pick_y { y } else { x });
            lower_with(&b.finish(vec![o]), 4, &CompileOptions::sequential())
        };
        let (bx, by) = (xor_with(false), xor_with(true));
        let (ex, ey) = (
            CompiledBitCircuit::compile_gmw(&bx),
            CompiledBitCircuit::compile_gmw(&by),
        );
        assert_eq!(bx.num_inputs(), by.num_inputs());
        assert_eq!(ex.stats().and_ops, ey.stats().and_ops);
        assert_eq!(ex.level_starts().len(), ey.level_starts().len());
        // The fingerprint is a property of the tape, not of the kernel,
        // and a clone keeps it whether or not it was hashed yet.
        let scalar = ex.clone().with_kernel(BitKernel::Scalar).fingerprint();
        assert_eq!(scalar, ex.fingerprint());
        assert_eq!(
            ex.clone().with_kernel(BitKernel::Scalar).fingerprint(),
            ex.fingerprint()
        );
        assert_ne!(ex.fingerprint(), ey.fingerprint());

        let (rx, ry) = mismatched_sessions(
            (&ex, bx.pack_inputs(&[1, 2])),
            (&ey, by.pack_inputs(&[1, 2])),
        );
        for err in [rx.unwrap_err(), ry.unwrap_err()] {
            assert!(
                matches!(&err, MpcError::TapeMismatch(why) if why.starts_with("tape fingerprint")),
                "{err}"
            );
        }
    }
}
