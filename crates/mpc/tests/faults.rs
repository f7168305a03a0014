//! Failure-path suite for the networked protocol: every frame-level
//! fault — drop, duplicate, truncation, reordering, corruption — must
//! surface as a **typed** [`MpcError`] on both parties, bounded by the
//! transport timeout. Never a hang, never a silently wrong answer.
//!
//! Each scenario runs over both the in-process [`Duplex`] pair and a
//! TCP loopback connection, with party 0's outgoing frames routed
//! through a [`FaultTransport`].

use qec_circuit::lower::{lower_with, BitCircuit};
use qec_circuit::{Builder, CompileOptions, CompiledBitCircuit};
use qec_mpc::{
    run_sessions, share_instances, Duplex, Fault, FaultTransport, MpcError, Outcome, PackedDealer,
    TcpTransport, Transport,
};
use std::net::TcpListener;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_millis(300);

fn adder() -> BitCircuit {
    let mut b = Builder::new();
    let x = b.input();
    let y = b.input();
    let s = b.add(x, y);
    let lt = b.lt(x, y);
    let c = b.finish(vec![s, lt]);
    lower_with(&c, 16, &CompileOptions::sequential())
}

type TwoResults = (Result<Outcome, MpcError>, Result<Outcome, MpcError>);

/// Runs one two-party session with `faults` injected into party 0's
/// sends, over transports built by `make`.
fn run_with_faults<T0, T1>(make: impl FnOnce() -> (T0, T1), faults: &[(u64, Fault)]) -> TwoResults
where
    T0: Transport + Send,
    T1: Transport + Send,
{
    let bc = adder();
    let eng = CompiledBitCircuit::compile_gmw(&bc);
    let bits = bc.pack_inputs(&[77, 11]);
    let (s0, s1) = share_instances(&[bits], 5);
    let (d0, d1) = make();
    let mut f0 = FaultTransport::new(d0);
    for &(at, f) in faults {
        f0 = f0.inject(at, f);
    }
    run_sessions(
        &eng,
        1,
        (f0, d1),
        PackedDealer::new(eng.stats().and_ops as usize, 1, 7).split(),
        (&s0, &s1),
    )
}

fn duplex_pair() -> (Duplex, Duplex) {
    Duplex::pair_with_timeout(TIMEOUT)
}

fn tcp_pair() -> (TcpTransport, TcpTransport) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let h = std::thread::spawn(move || TcpTransport::connect(addr, TIMEOUT).unwrap());
    let a = TcpTransport::accept(&listener, TIMEOUT).unwrap();
    (a, h.join().unwrap())
}

/// Every error a sabotaged wire may legitimately produce. Anything
/// outside this set (or an `Ok` with wrong outputs) is a protocol bug.
fn is_typed_wire_error(e: &MpcError) -> bool {
    matches!(
        e,
        MpcError::BadMagic
            | MpcError::BadVersion { .. }
            | MpcError::BadChecksum
            | MpcError::BadFrame(_)
            | MpcError::ShortRead
            | MpcError::PeerTimeout
            | MpcError::PeerClosed
            | MpcError::UnexpectedRound { .. }
            | MpcError::UnexpectedKind { .. }
            | MpcError::RoleMismatch { .. }
            | MpcError::TapeMismatch(_)
            | MpcError::Io(_)
    )
}

fn assert_both_fail_typed(name: &str, (r0, r1): TwoResults) {
    let e0 = r0.expect_err(&format!("{name}: party 0 must fail"));
    let e1 = r1.expect_err(&format!("{name}: party 1 must fail"));
    assert!(is_typed_wire_error(&e0), "{name}: party 0 untyped: {e0:?}");
    assert!(is_typed_wire_error(&e1), "{name}: party 1 untyped: {e1:?}");
}

/// For faults on the final Open frame: party 1 (the victim) must fail
/// typed, while party 0 — whose transcript was clean — may legitimately
/// finish with the correct answer (P1 sends its Open before decoding
/// P0's).
fn assert_victim_fails_typed(name: &str, (r0, r1): TwoResults, plain: &[bool]) {
    let e1 = r1.expect_err(&format!("{name}: party 1 must fail"));
    assert!(is_typed_wire_error(&e1), "{name}: party 1 untyped: {e1:?}");
    match r0 {
        Ok(out) => assert_eq!(
            out.results[0].as_ref().unwrap(),
            plain,
            "{name}: party 0 finished with a wrong answer"
        ),
        Err(e0) => assert!(is_typed_wire_error(&e0), "{name}: party 0 untyped: {e0:?}"),
    }
}

fn is_starved(e: &MpcError) -> bool {
    matches!(e, MpcError::PeerTimeout | MpcError::PeerClosed)
}

/// Frame indices of party 0's send stream: Hello = 0, then one
/// AndLevel per AND-bearing level, then Open.
fn frame_indices() -> (u64, u64) {
    let eng = CompiledBitCircuit::compile_gmw(&adder());
    let and_levels = eng.stats().and_levels as u64;
    (1, 1 + and_levels) // (first AndLevel, Open)
}

#[test]
fn no_fault_control_matches_plaintext() {
    let bc = adder();
    let plain = bc.evaluate(&bc.pack_inputs(&[77, 11])).unwrap();
    let (r0, r1) = run_with_faults(duplex_pair, &[]);
    assert_eq!(r0.unwrap().results[0].as_ref().unwrap(), &plain);
    assert_eq!(r1.unwrap().results[0].as_ref().unwrap(), &plain);
    let (r0, r1) = run_with_faults(tcp_pair, &[]);
    assert_eq!(r0.unwrap().results[0].as_ref().unwrap(), &plain);
    assert_eq!(r1.unwrap().results[0].as_ref().unwrap(), &plain);
}

#[test]
fn dropped_frame_times_out_typed() {
    let (and0, _) = frame_indices();
    let started = Instant::now();
    // Both parties starve — party 1 on the missing frame, party 0 on
    // the reply party 1 never sends. Whichever times out first closes
    // its end, so the other may observe PeerClosed instead.
    for make in 0..2 {
        let (r0, r1) = if make == 0 {
            run_with_faults(duplex_pair, &[(and0, Fault::Drop)])
        } else {
            run_with_faults(tcp_pair, &[(and0, Fault::Drop)])
        };
        for (party, e) in [(0, r0.unwrap_err()), (1, r1.unwrap_err())] {
            assert!(
                is_starved(&e),
                "party {party} got {e:?}, not a starvation error"
            );
        }
    }
    assert!(
        started.elapsed() < 4 * TIMEOUT + Duration::from_secs(2),
        "both runs bounded by the transport timeout"
    );
}

#[test]
fn duplicated_frame_is_an_unexpected_round() {
    let (and0, _) = frame_indices();
    let (r0, r1) = run_with_faults(duplex_pair, &[(and0, Fault::Duplicate)]);
    // The duplicate arrives where the *next* round's frame belongs.
    assert!(matches!(
        r1.unwrap_err(),
        MpcError::UnexpectedRound { .. } | MpcError::UnexpectedKind { .. }
    ));
    assert!(r0.is_err());
    assert_both_fail_typed(
        "tcp duplicate",
        run_with_faults(tcp_pair, &[(and0, Fault::Duplicate)]),
    );
}

#[test]
fn truncated_frame_is_a_short_read_or_timeout() {
    let (and0, open) = frame_indices();
    // Over Duplex the message arrives whole-but-short: a ShortRead.
    let (r0, r1) = run_with_faults(duplex_pair, &[(and0, Fault::Truncate(9))]);
    assert_eq!(r1.unwrap_err(), MpcError::ShortRead);
    assert!(r0.is_err());
    // Over TCP the stream stalls mid-frame: timeout (or short read if
    // the sender's side closes first).
    let (r0, r1) = run_with_faults(tcp_pair, &[(and0, Fault::Truncate(9))]);
    assert!(matches!(
        r1.unwrap_err(),
        MpcError::PeerTimeout | MpcError::ShortRead
    ));
    assert!(r0.is_err());
    // Truncating the final Open frame must not leave the peer hanging
    // either (party 0's transcript is clean at that point, so it may
    // finish — correctly).
    let plain = {
        let bc = adder();
        bc.evaluate(&bc.pack_inputs(&[77, 11])).unwrap()
    };
    assert_victim_fails_typed(
        "truncated open",
        run_with_faults(duplex_pair, &[(open, Fault::Truncate(30))]),
        &plain,
    );
}

#[test]
fn corrupted_payload_is_a_bad_checksum() {
    let (and0, open) = frame_indices();
    // Flip a payload byte (offset 25 is inside the payload).
    let (r0, r1) = run_with_faults(duplex_pair, &[(and0, Fault::Corrupt(25))]);
    assert_eq!(r1.unwrap_err(), MpcError::BadChecksum);
    assert!(r0.is_err());
    let (r0, r1) = run_with_faults(tcp_pair, &[(and0, Fault::Corrupt(25))]);
    assert_eq!(r1.unwrap_err(), MpcError::BadChecksum);
    assert!(r0.is_err());
    // Corrupting the final Open frame is equally fatal for the victim;
    // party 0's transcript is clean, so it may finish correctly.
    let plain = {
        let bc = adder();
        bc.evaluate(&bc.pack_inputs(&[77, 11])).unwrap()
    };
    assert_victim_fails_typed(
        "corrupt open",
        run_with_faults(duplex_pair, &[(open, Fault::Corrupt(25))]),
        &plain,
    );
}

#[test]
fn corrupted_magic_is_bad_magic() {
    let (and0, _) = frame_indices();
    let (r0, r1) = run_with_faults(duplex_pair, &[(and0, Fault::Corrupt(2))]);
    assert_eq!(r1.unwrap_err(), MpcError::BadMagic);
    assert!(r0.is_err());
    let (r0, r1) = run_with_faults(tcp_pair, &[(and0, Fault::Corrupt(2))]);
    assert_eq!(r1.unwrap_err(), MpcError::BadMagic);
    assert!(r0.is_err());
}

#[test]
fn reordered_frames_starve_the_exchange_typed() {
    // The protocol is strictly request-response: party 1 won't send
    // round r until it has round r's frame, so a held (reordered)
    // frame behaves exactly like a dropped one — both parties starve
    // within the timeout. A frame that *did* arrive out of order is
    // caught by the round counter instead (see
    // `duplicated_frame_is_an_unexpected_round` and the transport
    // unit tests).
    let (and0, _) = frame_indices();
    let (r0, r1) = run_with_faults(duplex_pair, &[(and0, Fault::Reorder)]);
    assert!(is_starved(&r0.unwrap_err()));
    assert!(is_starved(&r1.unwrap_err()));
    assert_both_fail_typed(
        "tcp reorder",
        run_with_faults(tcp_pair, &[(and0, Fault::Reorder)]),
    );
}

#[test]
fn sabotaged_hello_fails_before_any_secret_moves() {
    for fault in [Fault::Drop, Fault::Corrupt(25), Fault::Truncate(12)] {
        assert_both_fail_typed("hello fault", run_with_faults(duplex_pair, &[(0, fault)]));
    }
}

#[test]
fn every_fault_over_both_transports_never_hangs_or_lies() {
    let bc = adder();
    let plain = bc.evaluate(&bc.pack_inputs(&[77, 11])).unwrap();
    let (and0, open) = frame_indices();
    let faults = [
        Fault::Drop,
        Fault::Duplicate,
        Fault::Truncate(0),
        Fault::Truncate(23),
        Fault::Truncate(31),
        Fault::Corrupt(0),
        Fault::Corrupt(13),
        Fault::Corrupt(17),
        Fault::Reorder,
    ];
    for &at in &[0, and0, and0 + 1, open] {
        for &fault in &faults {
            for (name, run) in [
                ("duplex", run_with_faults(duplex_pair, &[(at, fault)])),
                ("tcp", run_with_faults(tcp_pair, &[(at, fault)])),
            ] {
                let (r0, r1) = run;
                for (party, r) in [(0, &r0), (1, &r1)] {
                    match r {
                        // A party the fault never reached may finish —
                        // but then its answer must be right (e.g. a
                        // Duplicate of the final Open frame leaves
                        // both transcripts decodable; a sabotaged
                        // Open still lets party 0 finish cleanly).
                        Ok(out) => {
                            assert_eq!(
                                out.results[0].as_ref().unwrap(),
                                &plain,
                                "{name} P{party} fault {fault:?}@{at}: wrong answer"
                            );
                        }
                        Err(e) => assert!(
                            is_typed_wire_error(e),
                            "{name} P{party} fault {fault:?}@{at}: untyped {e:?}"
                        ),
                    }
                }
            }
        }
    }
}
