//! The trusted dealer (offline phase): Beaver triple generation, the
//! [`TripleSource`] streaming-consumption seam, and a file format for
//! shipping each party its correlated triple shares.

use crate::transport::Role;
use crate::MpcError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};

/// The trusted dealer's offline output: transposed triple shares,
/// `words` lane words per packed AND step (64 triples per word — the
/// dealer hands out `words × 64` scalar triples every time the tape
/// executes one AND instruction).
///
/// Layout per step `s` and party: `[a₀..a_w, b₀..b_w, c₀..c_w]` at
/// offset `s × 3 × words`, with `a ∧ b = c` lane-wise across parties.
pub struct PackedDealer {
    words: usize,
    p0: Vec<u64>,
    p1: Vec<u64>,
}

impl PackedDealer {
    /// Prepares `steps` packed AND steps of `words` lane words each
    /// (deterministic in `seed`). A batch of `B` instances over a
    /// circuit with `A` AND instructions needs
    /// `A × ceil(B / (words × 64))` steps — one fresh packed triple per
    /// AND per block; triples are never reused across blocks.
    pub fn new(steps: usize, words: usize, seed: u64) -> PackedDealer {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p0 = Vec::with_capacity(steps * 3 * words);
        let mut p1 = Vec::with_capacity(steps * 3 * words);
        fn split(rng: &mut StdRng, plain: &[u64], p0: &mut Vec<u64>, p1: &mut Vec<u64>) {
            for &v in plain {
                let m = rng.gen::<u64>();
                p0.push(m);
                p1.push(v ^ m);
            }
        }
        let mut a = vec![0u64; words];
        let mut b = vec![0u64; words];
        let mut c = vec![0u64; words];
        for _ in 0..steps {
            for w in 0..words {
                a[w] = rng.gen::<u64>();
                b[w] = rng.gen::<u64>();
                c[w] = a[w] & b[w];
            }
            split(&mut rng, &a, &mut p0, &mut p1);
            split(&mut rng, &b, &mut p0, &mut p1);
            split(&mut rng, &c, &mut p0, &mut p1);
        }
        PackedDealer { words, p0, p1 }
    }

    /// Splits the dealer into the two parties' triple streams — what
    /// each [`Session`](crate::Session) consumes independently.
    pub fn split(self) -> (TripleVec, TripleVec) {
        (
            TripleVec {
                words: self.words,
                data: self.p0,
                pos: 0,
            },
            TripleVec {
                words: self.words,
                data: self.p1,
                pos: 0,
            },
        )
    }
}

/// A party-local stream of packed Beaver triples, consumed one AND step
/// at a time by the online protocol. Today's implementations come from
/// the trusted dealer (in memory or on disk); an OT-extension producer
/// plugs in behind the same seam without touching the protocol layer.
pub trait TripleSource {
    /// Lane words per packed step (every step yields `words() × 64`
    /// scalar triples).
    fn words(&self) -> usize;

    /// Copies this party's next packed triple step into `(a, b, c)` —
    /// each `words()` lane words long. Fails with
    /// [`MpcError::OutOfTriples`] when the stream is exhausted.
    fn next_step(&mut self, a: &mut [u64], b: &mut [u64], c: &mut [u64]) -> Result<(), MpcError>;
}

impl<S: TripleSource + ?Sized> TripleSource for Box<S> {
    fn words(&self) -> usize {
        (**self).words()
    }
    fn next_step(&mut self, a: &mut [u64], b: &mut [u64], c: &mut [u64]) -> Result<(), MpcError> {
        (**self).next_step(a, b, c)
    }
}

/// An in-memory [`TripleSource`]: one party's half of a
/// [`PackedDealer`].
pub struct TripleVec {
    words: usize,
    data: Vec<u64>,
    pos: usize,
}

impl TripleSource for TripleVec {
    fn words(&self) -> usize {
        self.words
    }

    fn next_step(&mut self, a: &mut [u64], b: &mut [u64], c: &mut [u64]) -> Result<(), MpcError> {
        let w = self.words;
        if self.pos + 3 * w > self.data.len() {
            return Err(MpcError::OutOfTriples);
        }
        a[..w].copy_from_slice(&self.data[self.pos..self.pos + w]);
        b[..w].copy_from_slice(&self.data[self.pos + w..self.pos + 2 * w]);
        c[..w].copy_from_slice(&self.data[self.pos + 2 * w..self.pos + 3 * w]);
        self.pos += 3 * w;
        Ok(())
    }
}

/// Magic prefix of a triple file (the dealer's on-disk hand-off).
pub const TRIPLE_MAGIC: [u8; 8] = *b"QECTRIP\0";
/// Version of the triple-file layout.
pub const TRIPLE_VERSION: u32 = 1;

/// Writes one party's triple stream: `TRIPLE_MAGIC`, version, `words`
/// (u32), `steps` (u64), then `steps × 3 × words` little-endian lane
/// words.
pub fn write_triples<W: Write>(out: &mut W, words: usize, shares: &[u64]) -> Result<(), MpcError> {
    let steps = shares.len() / (3 * words);
    let io = |e: std::io::Error| MpcError::Io(e.to_string());
    out.write_all(&TRIPLE_MAGIC).map_err(io)?;
    out.write_all(&TRIPLE_VERSION.to_le_bytes()).map_err(io)?;
    out.write_all(&(words as u32).to_le_bytes()).map_err(io)?;
    out.write_all(&(steps as u64).to_le_bytes()).map_err(io)?;
    for &w in shares {
        out.write_all(&w.to_le_bytes()).map_err(io)?;
    }
    Ok(())
}

/// Runs the dealer offline and writes both parties' triple files (the
/// two-terminal deployment: generate once, ship one file to each
/// party).
pub fn write_triple_files(
    path0: &std::path::Path,
    path1: &std::path::Path,
    steps: usize,
    words: usize,
    seed: u64,
) -> Result<(), MpcError> {
    let io = |e: std::io::Error| MpcError::Io(e.to_string());
    let dealer = PackedDealer::new(steps, words, seed);
    let mut f0 = std::io::BufWriter::new(std::fs::File::create(path0).map_err(io)?);
    let mut f1 = std::io::BufWriter::new(std::fs::File::create(path1).map_err(io)?);
    write_triples(&mut f0, words, &dealer.p0)?;
    write_triples(&mut f1, words, &dealer.p1)?;
    f0.flush().map_err(io)?;
    f1.flush().map_err(io)?;
    Ok(())
}

/// A [`TripleSource`] streaming packed triples from an `io::Read` (a
/// dealer file): only one step is resident at a time, so triple storage
/// never has to fit in memory.
pub struct TripleStream<R: Read> {
    reader: R,
    words: usize,
    remaining: u64,
}

impl<R: Read> TripleStream<R> {
    /// Parses the header and positions the stream at the first step.
    pub fn new(mut reader: R) -> Result<TripleStream<R>, MpcError> {
        let io = |e: std::io::Error| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => MpcError::ShortRead,
            _ => MpcError::Io(e.to_string()),
        };
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic).map_err(io)?;
        if magic != TRIPLE_MAGIC {
            return Err(MpcError::BadMagic);
        }
        let mut b4 = [0u8; 4];
        reader.read_exact(&mut b4).map_err(io)?;
        let version = u32::from_le_bytes(b4);
        if version != TRIPLE_VERSION {
            return Err(MpcError::BadVersion { got: version });
        }
        reader.read_exact(&mut b4).map_err(io)?;
        let words = u32::from_le_bytes(b4) as usize;
        let mut b8 = [0u8; 8];
        reader.read_exact(&mut b8).map_err(io)?;
        let remaining = u64::from_le_bytes(b8);
        if words == 0 {
            return Err(MpcError::BadFrame("triple file with zero lane words"));
        }
        Ok(TripleStream {
            reader,
            words,
            remaining,
        })
    }

    /// Steps left in the stream.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    fn read_words(&mut self, out: &mut [u64]) -> Result<(), MpcError> {
        let mut b8 = [0u8; 8];
        for w in out.iter_mut().take(self.words) {
            self.reader
                .read_exact(&mut b8)
                .map_err(|e| match e.kind() {
                    std::io::ErrorKind::UnexpectedEof => MpcError::ShortRead,
                    _ => MpcError::Io(e.to_string()),
                })?;
            *w = u64::from_le_bytes(b8);
        }
        Ok(())
    }
}

impl TripleStream<std::io::BufReader<std::fs::File>> {
    /// Opens a triple file written by [`write_triple_files`].
    pub fn open(path: &std::path::Path) -> Result<Self, MpcError> {
        let f = std::fs::File::open(path).map_err(|e| MpcError::Io(e.to_string()))?;
        TripleStream::new(std::io::BufReader::new(f))
    }
}

impl<R: Read> TripleSource for TripleStream<R> {
    fn words(&self) -> usize {
        self.words
    }

    fn next_step(&mut self, a: &mut [u64], b: &mut [u64], c: &mut [u64]) -> Result<(), MpcError> {
        if self.remaining == 0 {
            return Err(MpcError::OutOfTriples);
        }
        self.read_words(a)?;
        self.read_words(b)?;
        self.read_words(c)?;
        self.remaining -= 1;
        Ok(())
    }
}

/// An *insecure* triple source for demos and loopback benchmarking:
/// both parties derive correlated shares from a **common** seed, so no
/// dealer file transfer is needed — and anyone holding the seed can
/// reconstruct every triple. Never use outside a trust-both-ends test.
pub struct InsecureSeedTriples {
    rng: StdRng,
    words: usize,
    role: Role,
}

impl InsecureSeedTriples {
    /// Both parties must construct this with the **same** seed.
    pub fn new(words: usize, seed: u64, role: Role) -> InsecureSeedTriples {
        InsecureSeedTriples {
            rng: StdRng::seed_from_u64(seed),
            words,
            role,
        }
    }
}

impl TripleSource for InsecureSeedTriples {
    fn words(&self) -> usize {
        self.words
    }

    fn next_step(&mut self, a: &mut [u64], b: &mut [u64], c: &mut [u64]) -> Result<(), MpcError> {
        // Mirrors PackedDealer::new's per-step draw order so both
        // parties stay in lockstep: plain (a, b) then the mask of each
        // component in a/b/c order.
        let w = self.words;
        let mut pa = vec![0u64; w];
        let mut pb = vec![0u64; w];
        for i in 0..w {
            pa[i] = self.rng.gen::<u64>();
            pb[i] = self.rng.gen::<u64>();
        }
        for i in 0..w {
            let m = self.rng.gen::<u64>();
            a[i] = if self.role == Role::P0 { m } else { pa[i] ^ m };
        }
        for i in 0..w {
            let m = self.rng.gen::<u64>();
            b[i] = if self.role == Role::P0 { m } else { pb[i] ^ m };
        }
        for i in 0..w {
            let m = self.rng.gen::<u64>();
            let c_plain = pa[i] & pb[i];
            c[i] = if self.role == Role::P0 {
                m
            } else {
                c_plain ^ m
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_streams_match_dealer_layout() {
        let dealer = PackedDealer::new(3, 2, 17);
        let (p0, p1) = (dealer.p0.clone(), dealer.p1.clone());
        let (mut t0, mut t1) = dealer.split();
        let (mut a, mut b, mut c) = (vec![0u64; 2], vec![0u64; 2], vec![0u64; 2]);
        for s in 0..3 {
            t0.next_step(&mut a, &mut b, &mut c).unwrap();
            assert_eq!(a, p0[s * 6..s * 6 + 2]);
            assert_eq!(c, p0[s * 6 + 4..s * 6 + 6]);
            t1.next_step(&mut a, &mut b, &mut c).unwrap();
            assert_eq!(b, p1[s * 6 + 2..s * 6 + 4]);
        }
        assert_eq!(
            t0.next_step(&mut a, &mut b, &mut c).unwrap_err(),
            MpcError::OutOfTriples
        );
    }

    #[test]
    fn triple_files_round_trip_and_stay_correlated() {
        let dir = std::env::temp_dir().join(format!("qec-triples-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (f0, f1) = (dir.join("p0.triples"), dir.join("p1.triples"));
        write_triple_files(&f0, &f1, 4, 1, 99).unwrap();
        let mut s0 = TripleStream::open(&f0).unwrap();
        let mut s1 = TripleStream::open(&f1).unwrap();
        assert_eq!((s0.words(), s0.remaining()), (1, 4));
        let (mut a0, mut b0, mut c0) = ([0u64], [0u64], [0u64]);
        let (mut a1, mut b1, mut c1) = ([0u64], [0u64], [0u64]);
        for _ in 0..4 {
            s0.next_step(&mut a0, &mut b0, &mut c0).unwrap();
            s1.next_step(&mut a1, &mut b1, &mut c1).unwrap();
            assert_eq!((a0[0] ^ a1[0]) & (b0[0] ^ b1[0]), c0[0] ^ c1[0]);
        }
        assert_eq!(
            s0.next_step(&mut a0, &mut b0, &mut c0).unwrap_err(),
            MpcError::OutOfTriples
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_triple_file_is_a_short_read() {
        let dealer = PackedDealer::new(2, 1, 5);
        let mut buf = Vec::new();
        write_triples(&mut buf, 1, &dealer.p0).unwrap();
        buf.truncate(buf.len() - 4);
        let mut s = TripleStream::new(std::io::Cursor::new(buf)).unwrap();
        let (mut a, mut b, mut c) = ([0u64], [0u64], [0u64]);
        s.next_step(&mut a, &mut b, &mut c).unwrap();
        assert_eq!(
            s.next_step(&mut a, &mut b, &mut c).unwrap_err(),
            MpcError::ShortRead
        );
    }

    #[test]
    fn insecure_seed_triples_are_correlated() {
        let mut t0 = InsecureSeedTriples::new(2, 123, Role::P0);
        let mut t1 = InsecureSeedTriples::new(2, 123, Role::P1);
        let (mut a0, mut b0, mut c0) = (vec![0u64; 2], vec![0u64; 2], vec![0u64; 2]);
        let (mut a1, mut b1, mut c1) = (vec![0u64; 2], vec![0u64; 2], vec![0u64; 2]);
        for _ in 0..8 {
            t0.next_step(&mut a0, &mut b0, &mut c0).unwrap();
            t1.next_step(&mut a1, &mut b1, &mut c1).unwrap();
            for w in 0..2 {
                assert_eq!((a0[w] ^ a1[w]) & (b0[w] ^ b1[w]), c0[w] ^ c1[w]);
            }
        }
    }
}
