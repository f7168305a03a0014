//! Property tests pinning the parallel word-level compile pipeline to
//! its sequential reference on random gate DAGs: `Builder::with_pool` +
//! `fork_join` and `optimize_with` under a multi-worker `CompileOptions`
//! must each produce **byte-identical** results — gate lists, outputs,
//! depths, `OptStats` (including `assert_origin`), and the
//! first-failing-assert index — at every worker count from 1 to 8. A
//! 16-thread stress variant runs under `--ignored`. (The bit passes,
//! `lower_with` and `optimize_bits_with`, are sequential whatever the
//! pool; `tests/lowering_golden.rs` at the repository root pins their
//! output.)

use proptest::prelude::*;
use qec_circuit::{optimize_with, Builder, Circuit, CompileOptions, Mode, Pool};

/// Raw material for one random gate: kind selector plus operand seeds,
/// reduced modulo the live wire count at build time.
type GateSeed = (u8, u32, u32, u32, u64);

/// Emits one random gate into `b`, drawing operands from `wires`.
/// Returns the new wire, or `None` for assert seeds (which emit but
/// produce no further operand).
fn emit_seed(
    b: &mut Builder,
    wires: &[qec_circuit::WireId],
    seed: GateSeed,
) -> Option<qec_circuit::WireId> {
    let (kind, a, bb, s, v) = seed;
    let pick = |x: u32| wires[x as usize % wires.len()];
    let (wa, wb, ws) = (pick(a), pick(bb), pick(s));
    Some(match kind % 13 {
        0 => b.add(wa, wb),
        1 => b.sub(wa, wb),
        2 => b.mul(wa, wb),
        3 => b.eq(wa, wb),
        4 => b.lt(wa, wb),
        5 => b.and(wa, wb),
        6 => b.or(wa, wb),
        7 => b.xor(wa, wb),
        8 => b.not(wa),
        9 => b.mux(ws, wa, wb),
        10 => b.constant(v),
        11 | 12 => {
            // assert on a masked comparison so random inputs mix
            // passing and failing evaluations
            let c = b.constant(v & 0x7);
            let e = b.eq(wa, c);
            b.assert_zero(e); // fires when wa == v & 7
            return None;
        }
        _ => unreachable!(),
    })
}

/// Builds a circuit whose gate emission actually fans out: the seed
/// list is split into chunks, each chunk built by a `fork_join` worker
/// over the shared input wires, and the per-chunk results are combined
/// sequentially at the root. With a sequential builder the exact same
/// code runs in plain index order, so one construction function serves
/// as both the parallel subject and its reference.
fn build_forked(mut b: Builder, num_inputs: usize, seeds: &[GateSeed]) -> Circuit {
    let inputs: Vec<_> = (0..num_inputs).map(|_| b.input()).collect();
    let chunks: Vec<&[GateSeed]> = seeds.chunks(8.max(seeds.len() / 7)).collect();
    let chunk_outs = b.fork_join(chunks.len(), |i, bb| {
        let mut wires = inputs.clone();
        for &seed in chunks[i] {
            if let Some(w) = emit_seed(bb, &wires, seed) {
                wires.push(w);
            }
        }
        // a few representative wires per chunk
        let mut outs: Vec<_> = wires.iter().copied().step_by(5).collect();
        outs.push(*wires.last().unwrap());
        outs
    });
    // Combine across chunks at the root so the forked work is entangled.
    let mut acc = inputs[0];
    let mut outputs = Vec::new();
    for outs in chunk_outs {
        for w in &outs {
            acc = b.xor(acc, *w);
        }
        outputs.extend(outs);
    }
    outputs.push(acc);
    b.finish(outputs)
}

/// Sequentially builds a random DAG without hash-consing (maximally raw
/// material for the optimizer passes).
fn build_random(mode: Mode, num_inputs: usize, seeds: &[GateSeed]) -> Circuit {
    let mut b = Builder::without_cse(mode);
    let mut wires: Vec<_> = (0..num_inputs).map(|_| b.input()).collect();
    for &seed in seeds {
        if let Some(w) = emit_seed(&mut b, &wires, seed) {
            wires.push(w);
        }
    }
    let outputs: Vec<_> = wires
        .iter()
        .copied()
        .step_by(3)
        .chain(wires.last().copied())
        .collect();
    b.finish(outputs)
}

/// Asserts two circuits are byte-identical: same gate list, outputs,
/// size/depth accounting — not merely equivalent.
fn assert_same_circuit(seq: &Circuit, par: &Circuit, tag: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(seq.gates(), par.gates(), "{}: gate lists diverge", tag);
    prop_assert_eq!(seq.outputs(), par.outputs(), "{}: outputs diverge", tag);
    prop_assert_eq!(seq.num_inputs(), par.num_inputs(), "{}", tag);
    prop_assert_eq!(seq.num_wires(), par.num_wires(), "{}", tag);
    prop_assert_eq!(seq.size(), par.size(), "{}", tag);
    prop_assert_eq!(seq.depth(), par.depth(), "{}", tag);
    Ok(())
}

/// The shared body for the 1–8 worker sweep and the `--ignored`
/// 16-thread stress run.
fn check_all_stages(
    num_inputs: usize,
    seeds: &[GateSeed],
    raw_instances: &[Vec<u64>],
    threads: &[usize],
) -> Result<(), TestCaseError> {
    let instances: Vec<Vec<u64>> = raw_instances
        .iter()
        .map(|vals| {
            (0..num_inputs)
                .map(|i| vals.get(i).copied().unwrap_or(3))
                .collect()
        })
        .collect();

    // Stage 1: parallel construction (sharded hash-consing + replay).
    let built_seq = build_forked(Builder::new(Mode::Build), num_inputs, seeds);
    let counted_seq = build_forked(Builder::new(Mode::Count), num_inputs, seeds);

    // Stage 2 reference: the word optimizer.
    let raw = build_random(Mode::Build, num_inputs, seeds);
    let (opt_seq, st_seq) = optimize_with(&raw, &CompileOptions::sequential());

    for &t in threads {
        let pool = Pool::new(t);
        let par_opts = CompileOptions::sequential().with_pool(pool);

        let built_par = build_forked(Builder::with_pool(Mode::Build, pool), num_inputs, seeds);
        assert_same_circuit(&built_seq, &built_par, "build")?;
        for inst in &instances {
            prop_assert_eq!(
                built_seq.evaluate(inst),
                built_par.evaluate(inst),
                "build outcome diverged at {} threads",
                t
            );
        }
        let counted_par = build_forked(Builder::with_pool(Mode::Count, pool), num_inputs, seeds);
        prop_assert_eq!(counted_seq.size(), counted_par.size(), "count-mode size");
        prop_assert_eq!(counted_seq.depth(), counted_par.depth(), "count-mode depth");

        let (opt_par, st_par) = optimize_with(&raw, &par_opts);
        assert_same_circuit(&opt_seq, &opt_par, "optimize")?;
        prop_assert_eq!(
            format!("{st_seq:?}"),
            format!("{st_par:?}"),
            "OptStats (incl. assert_origin) diverge at {} threads",
            t
        );
        for inst in &instances {
            // Err equality covers the first-failing-assert index + value.
            prop_assert_eq!(raw.evaluate(inst).is_ok(), opt_par.evaluate(inst).is_ok());
            prop_assert_eq!(opt_seq.evaluate(inst), opt_par.evaluate(inst));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every parallel stage is byte-identical to its sequential
    /// reference at 1–8 workers.
    #[test]
    fn parallel_pipeline_matches_sequential(
        num_inputs in 1usize..6,
        seeds in prop::collection::vec(any::<GateSeed>(), 8..80),
        raw_instances in prop::collection::vec(
            prop::collection::vec(0u64..16, 0..8), 1..6),
    ) {
        check_all_stages(num_inputs, &seeds, &raw_instances, &[1, 2, 3, 8])?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Oversubscribed stress: 16 workers on a larger DAG. Run with
    /// `cargo test -p qec-circuit --test par_props -- --ignored`.
    #[test]
    #[ignore = "16-thread stress sweep; run explicitly"]
    fn parallel_pipeline_matches_sequential_at_16_threads(
        num_inputs in 1usize..6,
        seeds in prop::collection::vec(any::<GateSeed>(), 64..320),
        raw_instances in prop::collection::vec(
            prop::collection::vec(0u64..16, 0..8), 1..4),
    ) {
        check_all_stages(num_inputs, &seeds, &raw_instances, &[16])?;
    }
}
