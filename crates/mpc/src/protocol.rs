//! The GMW online phase: the networked [`Session`] that speaks the
//! framed wire protocol with **one message exchange per AND level** of
//! the compiled tape. It is the crate's only protocol execution path;
//! in-process runs wire two sessions through a [`Duplex`](crate::Duplex)
//! pair.

use crate::dealer::TripleSource;
use crate::transport::{Frame, FrameKind, Role, Transport};
use crate::{MpcError, ProtocolStats};
use qec_circuit::bitengine::{pack_block, valid_mask, BitOp, CompiledBitCircuit};
use std::time::Instant;

/// What [`run_two_party`](crate::run_two_party) returns: one `Result`
/// per instance, in input order, plus the aggregate protocol stats for
/// the whole batch.
pub type BatchedOutcome = (Vec<Result<Vec<bool>, MpcError>>, ProtocolStats);

/// What one party's [`Session::run`] produces. Both parties compute the
/// **same** `results` (outputs are publicly reconstructed in the final
/// `Open` round); `stats` and `level_ns` are this party's view.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// One result per instance, in input order: the reconstructed
    /// output bits, or [`MpcError::AssertionFailed`] for instances
    /// whose declared constraints fired.
    pub results: Vec<Result<Vec<bool>, MpcError>>,
    /// This party's cost accounting for the whole run.
    pub stats: ProtocolStats,
    /// Wall-clock nanoseconds per tape level, summed over blocks
    /// (network wait included — AND levels show the round latency).
    pub level_ns: Vec<u64>,
}

/// One party of the networked two-party protocol, generic over the
/// [`Transport`] to the peer and the [`TripleSource`] feeding its
/// offline material.
///
/// ```text
/// Session::new(&tape, Role::P0, transport, triples).run(&shares)?
/// ```
///
/// The run opens with a `Hello` exchange pinning the tape fingerprint
/// and batch geometry, then sends **exactly one `AndLevel` frame per
/// AND-bearing level** of the compiled tape (all lanes of all ANDs in
/// the level packed into one payload), and closes each block with one
/// `Open` frame carrying output shares and deferred assert shares.
/// Under [`CompiledBitCircuit::compile_gmw`]'s schedule the AND-bearing
/// level count equals the circuit's AND depth, so `stats.rounds` meets
/// the GMW lower bound.
pub struct Session<'a, T: Transport, S: TripleSource> {
    eng: &'a CompiledBitCircuit,
    role: Role,
    transport: T,
    triples: S,
    words: Option<usize>,
    recorder: Option<qec_obs::Recorder>,
}

impl<'a, T: Transport, S: TripleSource> Session<'a, T, S> {
    /// A session over `eng` for `role`, talking through `transport` and
    /// consuming `triples`. Packed width defaults to one block covering
    /// the whole batch; fix it with [`with_words`](Session::with_words).
    pub fn new(eng: &'a CompiledBitCircuit, role: Role, transport: T, triples: S) -> Self {
        Session {
            eng,
            role,
            transport,
            triples,
            words: None,
            recorder: None,
        }
    }

    /// Pins the packed width to `words` lane words (the batch is split
    /// into blocks of `words × 64` instances).
    pub fn with_words(mut self, words: usize) -> Self {
        self.words = Some(words.max(1));
        self
    }

    /// Exports session metrics (`mpc.rounds`, `mpc.bytes_sent`, …) into
    /// a `qec-obs` recorder.
    pub fn with_recorder(mut self, recorder: &qec_obs::Recorder) -> Self {
        self.recorder = Some(recorder.clone());
        self
    }

    /// Runs the protocol over this party's input shares (one vector per
    /// instance). Fails fast — before any message — if an instance has
    /// the wrong arity or the triple source's width disagrees.
    pub fn run(mut self, shares: &[Vec<bool>]) -> Result<Outcome, MpcError> {
        let eng = self.eng;
        let num_inputs = eng.num_inputs();
        for s in shares {
            if s.len() != num_inputs {
                return Err(MpcError::InputLength {
                    expected: num_inputs,
                    got: s.len(),
                });
            }
        }
        let words = self
            .words
            .unwrap_or_else(|| shares.len().div_ceil(64))
            .max(1);
        if self.triples.words() != words {
            return Err(MpcError::TripleWidth {
                expected: words,
                got: self.triples.words(),
            });
        }
        let lanes = words * 64;
        let starts = eng.level_starts();
        let num_levels = starts.len().saturating_sub(1);
        let span = self.recorder.as_ref().map(|r| r.span("mpc.session"));

        let mut stats = ProtocolStats::default();
        let mut level_ns = vec![0u64; num_levels];
        // Wall time of the levels that exchanged an AND frame; the rest
        // of `level_ns` is local (XOR / NOT / input / assert) work.
        let mut and_level_ns = 0u64;
        let mut round: u32 = 0;

        // Handshake: both ends must run the identical tape with the
        // identical batch geometry, or fail loudly before any secret
        // share moves.
        let hello = [
            eng.fingerprint(),
            num_inputs as u64,
            shares.len() as u64,
            words as u64,
            eng.stats().and_ops,
            num_levels as u64,
        ];
        let peer = self.exchange(FrameKind::Hello, round, &hello, &mut stats)?;
        round += 1;
        stats.open_rounds += 1;
        if peer.words.len() != hello.len() {
            return Err(MpcError::TapeMismatch("hello payload shape".into()));
        }
        for (i, what) in [
            "tape fingerprint",
            "input count",
            "batch size",
            "packed width",
            "AND instruction count",
            "level count",
        ]
        .iter()
        .enumerate()
        {
            if peer.words[i] != hello[i] {
                return Err(MpcError::TapeMismatch(format!(
                    "{what}: ours {} vs peer {}",
                    hello[i], peer.words[i]
                )));
            }
        }

        let p1 = self.role == Role::P1;
        let nr = eng.num_regs() as usize;
        let mut packed = Vec::new();
        let mut regs = vec![0u64; nr * words];
        let mut fail = vec![u32::MAX; lanes];
        let mut results = Vec::with_capacity(shares.len());
        let (mut ta, mut tb, mut tc) = (vec![0u64; words], vec![0u64; words], vec![0u64; words]);
        let mut and_dst: Vec<u32> = Vec::new();
        let mut and_tr: Vec<u64> = Vec::new(); // a·b·c per AND
        let mut my_de: Vec<u64> = Vec::new(); // d·e mask words per AND
        let mut assert_gates: Vec<u32> = Vec::new();
        let mut assert_words: Vec<u64> = Vec::new();

        for block_start in (0..shares.len()).step_by(lanes) {
            let block_n = (shares.len() - block_start).min(lanes);
            let block = &shares[block_start..block_start + block_n];
            pack_block(block, num_inputs, words, &mut packed);
            fail.fill(u32::MAX);
            assert_gates.clear();
            assert_words.clear();

            for li in 0..num_levels {
                let t0 = Instant::now();
                and_dst.clear();
                and_tr.clear();
                my_de.clear();
                for op in eng.ops(starts[li] as usize..starts[li + 1] as usize) {
                    match op {
                        BitOp::Input { dst, idx } => {
                            let (d, s) = (dst as usize * words, idx as usize * words);
                            regs[d..d + words].copy_from_slice(&packed[s..s + words]);
                        }
                        BitOp::Const { dst, v } => {
                            let d = dst as usize * words;
                            // public constant: party 0 holds it, party 1 holds 0
                            regs[d..d + words].fill(if v && !p1 { !0 } else { 0 });
                        }
                        BitOp::Xor { dst, a, b } => {
                            let (d, ra, rb) =
                                (dst as usize * words, a as usize * words, b as usize * words);
                            for w in 0..words {
                                regs[d + w] = regs[ra + w] ^ regs[rb + w];
                            }
                            stats.free_gates += lanes as u64;
                        }
                        BitOp::Not { dst, a } => {
                            // negate on one side only
                            let (d, ra) = (dst as usize * words, a as usize * words);
                            for w in 0..words {
                                regs[d + w] = if p1 { regs[ra + w] } else { !regs[ra + w] };
                            }
                            stats.free_gates += lanes as u64;
                        }
                        BitOp::And { dst, a, b } => {
                            self.triples.next_step(&mut ta, &mut tb, &mut tc)?;
                            let (ra, rb) = (a as usize * words, b as usize * words);
                            and_tr.extend_from_slice(&ta);
                            and_tr.extend_from_slice(&tb);
                            and_tr.extend_from_slice(&tc);
                            for w in 0..words {
                                my_de.push(regs[ra + w] ^ ta[w]);
                            }
                            for w in 0..words {
                                my_de.push(regs[rb + w] ^ tb[w]);
                            }
                            and_dst.push(dst);
                        }
                        BitOp::AssertFalse { dst, a, gate } => {
                            let (d, ra) = (dst as usize * words, a as usize * words);
                            assert_gates.push(gate);
                            for w in 0..words {
                                assert_words.push(regs[ra + w]);
                            }
                            regs[d..d + words].fill(0);
                        }
                    }
                }
                if !and_dst.is_empty() {
                    let peer = self.exchange(FrameKind::AndLevel, round, &my_de, &mut stats)?;
                    round += 1;
                    if peer.words.len() != my_de.len() {
                        return Err(MpcError::BadFrame("AND level payload width mismatch"));
                    }
                    for (i, &dst) in and_dst.iter().enumerate() {
                        let tr = &and_tr[i * 3 * words..(i + 1) * 3 * words];
                        let de = &my_de[i * 2 * words..(i + 1) * 2 * words];
                        let pde = &peer.words[i * 2 * words..(i + 1) * 2 * words];
                        let d = dst as usize * words;
                        // z = c ⊕ d·b ⊕ e·a ⊕ d·e (d·e on party 1 only)
                        for w in 0..words {
                            let dp = de[w] ^ pde[w];
                            let ep = de[words + w] ^ pde[words + w];
                            let mut z = tr[2 * words + w] ^ (dp & tr[words + w]) ^ (ep & tr[w]);
                            if p1 {
                                z ^= dp & ep;
                            }
                            regs[d + w] = z;
                        }
                    }
                    stats.rounds += 1;
                    stats.and_gates += (lanes * and_dst.len()) as u64;
                    stats.messages_bits += (4 * lanes * and_dst.len()) as u64;
                }
                let ns = t0.elapsed().as_nanos() as u64;
                level_ns[li] += ns;
                if !and_dst.is_empty() {
                    and_level_ns += ns;
                }
            }

            // Open round: output shares plus the deferred assert
            // openings. Assert bits are the query's declared
            // constraints, so opening one leaks nothing beyond "the
            // input conformed, as promised". One exchange per block, no
            // matter how many asserts the tape carries.
            let out_regs = eng.output_regs();
            let mut open: Vec<u64> = Vec::with_capacity(
                (out_regs.len() + assert_gates.len()) * words + assert_gates.len(),
            );
            for &r in out_regs {
                let o = r as usize * words;
                open.extend_from_slice(&regs[o..o + words]);
            }
            for (i, &g) in assert_gates.iter().enumerate() {
                open.push(g as u64);
                open.extend_from_slice(&assert_words[i * words..(i + 1) * words]);
            }
            let peer = self.exchange(FrameKind::Open, round, &open, &mut stats)?;
            round += 1;
            stats.open_rounds += 1;
            if peer.words.len() != open.len() {
                return Err(MpcError::BadFrame("open payload width mismatch"));
            }
            let out_words = out_regs.len() * words;
            let pub_out: Vec<u64> = open[..out_words]
                .iter()
                .zip(&peer.words[..out_words])
                .map(|(&m, &p)| m ^ p)
                .collect();
            let mut off = out_words;
            for (i, &g) in assert_gates.iter().enumerate() {
                if peer.words[off] != g as u64 {
                    return Err(MpcError::TapeMismatch(format!(
                        "assert schedule disagrees at entry {i}"
                    )));
                }
                off += 1;
                for w in 0..words {
                    let valid = valid_mask(block_n, w * 64);
                    let mut m = (assert_words[i * words + w] ^ peer.words[off + w]) & valid;
                    while m != 0 {
                        let lane = w * 64 + m.trailing_zeros() as usize;
                        if g < fail[lane] {
                            fail[lane] = g;
                        }
                        m &= m - 1;
                    }
                }
                off += words;
            }

            for l in 0..block_n {
                if fail[l] != u32::MAX {
                    results.push(Err(MpcError::AssertionFailed(fail[l] as usize)));
                    continue;
                }
                let out = (0..out_regs.len())
                    .map(|o| pub_out[o * words + l / 64] >> (l % 64) & 1 == 1)
                    .collect();
                results.push(Ok(out));
            }
        }

        if let Some(rec) = &self.recorder {
            rec.add("mpc.rounds", stats.rounds);
            rec.add("mpc.open_rounds", stats.open_rounds);
            rec.add("mpc.bytes_sent", stats.bytes_sent);
            rec.add("mpc.bytes_recv", stats.bytes_recv);
            rec.add("mpc.and_gates", stats.and_gates);
            rec.add("mpc.free_gates", stats.free_gates);
            rec.gauge_max(
                "mpc.level_ns_max",
                level_ns.iter().copied().max().unwrap_or(0),
            );
            rec.add("mpc.and_level_ns", and_level_ns);
            rec.add(
                "mpc.local_level_ns",
                level_ns.iter().sum::<u64>() - and_level_ns,
            );
        }
        drop(span);

        Ok(Outcome {
            results,
            stats,
            level_ns,
        })
    }

    /// Role-ordered frame exchange: P0 sends then receives, P1 receives
    /// then sends — so two blocking endpoints never deadlock — followed
    /// by full validation of the peer frame against what this round
    /// expects.
    fn exchange(
        &mut self,
        kind: FrameKind,
        round: u32,
        words: &[u64],
        stats: &mut ProtocolStats,
    ) -> Result<Frame, MpcError> {
        let bytes = Frame::new(self.role, kind, round, words).encode();
        let peer_bytes = match self.role {
            Role::P0 => {
                self.transport.send(&bytes)?;
                self.transport.recv()?
            }
            Role::P1 => {
                let r = self.transport.recv()?;
                self.transport.send(&bytes)?;
                r
            }
        };
        stats.bytes_sent += bytes.len() as u64;
        stats.bytes_recv += peer_bytes.len() as u64;
        let peer = Frame::decode(&peer_bytes)?;
        if peer.role != self.role.peer() {
            return Err(MpcError::RoleMismatch {
                expected: self.role.peer(),
                got: peer.role,
            });
        }
        if peer.kind != kind {
            return Err(MpcError::UnexpectedKind {
                expected: kind,
                got: peer.kind,
            });
        }
        if peer.round != round {
            return Err(MpcError::UnexpectedRound {
                expected: round,
                got: peer.round,
            });
        }
        Ok(peer)
    }
}
