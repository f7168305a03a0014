//! Offline circuit optimizer: the assertion-safe liveness mark.
//!
//! The rewrites (constant folding, algebraic identities, boolean
//! coercion, assert deduplication) and structural CSE happen when a gate
//! is built: [`Builder::new`](crate::Builder::new) applies them before it
//! interns each gate, so its circuits are a fixpoint of the rules and a
//! second rewrite walk over them would be an identity map. What a built
//! circuit still carries is dead code: gates whose every user folded
//! away, and helpers an operator circuit built and did not use. The mark
//! finds it in one reverse pass over the gate list, with the outputs, the
//! asserts and the inputs as roots. Nothing is copied: the consumers read
//! the mark in place.
//! [`CompiledCircuit::compile_with`](crate::CompiledCircuit::compile_with)
//! levels, sorts and register-allocates only the live gates of the source
//! arena, and [`lower_with`](crate::lower_with) lowers only them. A
//! circuit from [`Circuit::from_raw`] or a decoded tape is marked the
//! same way.
//!
//! Skipping the dead gates preserves semantics in a strict sense:
//!
//! * every compiled wire is a source wire with its gate unchanged, so it
//!   evaluates to the same value on every input vector;
//! * every input and every assert is live, so a compiled circuit accepts
//!   the exact same input vectors and fails an assertion iff the source
//!   does. An `Assert` instruction carries its source gate id, so the
//!   engine reports the source's lowest failing gate by construction.

use crate::ir::{op, Circuit};

/// Counters describing one liveness mark, as
/// [`EngineStats::opt`](crate::EngineStats::opt) reports them.
#[derive(Clone, Debug, Default)]
pub struct OptStats {
    /// Logic gates in the source circuit.
    pub gates_before: u64,
    /// Live logic gates: those the engine compiles.
    pub gates_after: u64,
    /// Total wires (inputs + constants + gates) in the source circuit.
    pub wires_before: usize,
    /// Live wires.
    pub wires_after: usize,
    /// Wires no root reads.
    pub dead: u64,
}

impl OptStats {
    /// Fraction of logic gates removed, in `[0, 1]`.
    pub fn gate_reduction(&self) -> f64 {
        if self.gates_before == 0 {
            0.0
        } else {
            1.0 - self.gates_after as f64 / self.gates_before as f64
        }
    }
}

/// The mark of a wire no root reads; a live wire's mark is 0.
pub(crate) const DEAD: u32 = u32::MAX;

/// The liveness mark of `c`, one word per wire: 0 for a wire the
/// outputs, an assert or an input reads (roots included), [`DEAD`] for
/// the rest. One reverse pass suffices because the gate list is
/// topologically ordered. With `optimize` off every wire is live and no
/// [`OptStats`] comes back.
pub(crate) fn mark_live(c: &Circuit, optimize: bool) -> (Vec<u32>, Option<OptStats>) {
    let src = c.arena();
    let n = src.len();
    if !optimize {
        return (vec![0; n], None);
    }
    let mut mark = vec![DEAD; n];
    for &o in c.outputs() {
        mark[o as usize] = 0;
    }
    let (mut wires, mut gates) = (0usize, 0u64);
    for w in (0..n).rev() {
        let kind = src.op(w);
        if mark[w] == DEAD && !matches!(kind, op::ASSERT | op::INPUT) {
            continue;
        }
        mark[w] = 0;
        wires += 1;
        if !matches!(kind, op::INPUT | op::CONST) {
            gates += 1;
        }
        for &o in src.get(w).operands() {
            mark[o as usize] = 0;
        }
    }
    let stats = OptStats {
        gates_before: c.size(),
        gates_after: gates,
        wires_before: n,
        wires_after: wires,
        dead: (n - wires) as u64,
    };
    (mark, Some(stats))
}

#[cfg(test)]
mod tests {
    use crate::driver::CompileOptions;
    use crate::engine::CompiledCircuit;
    use crate::ir::{Builder, Circuit, EvalError, Gate, WireId};

    /// Compiles `c` with the optimizer on and off and checks both engines
    /// against [`Circuit::evaluate`] on every instance: the same outputs,
    /// and the same lowest failing source assert gate and value. Returns
    /// the optimizing engine.
    fn compiles_like_the_interpreter(c: &Circuit, instances: &[Vec<u64>]) -> CompiledCircuit {
        let on = CompileOptions::sequential();
        let off = on.clone().with_optimize(false);
        let raw = CompiledCircuit::compile_with(c, &off).unwrap();
        let eng = CompiledCircuit::compile_with(c, &on).unwrap();
        let want: Vec<_> = instances.iter().map(|i| c.evaluate(i)).collect();
        assert_eq!(raw.evaluate_batch(instances), want, "optimizer off");
        assert_eq!(eng.evaluate_batch(instances), want, "optimizer on");
        assert_eq!(raw.stats().tape_len, c.num_wires());
        assert!(raw.stats().opt.is_none());
        let st = eng.stats().opt.as_ref().expect("the optimizer ran");
        assert_eq!(st.wires_after, eng.stats().tape_len);
        assert_eq!(st.wires_before - st.wires_after, st.dead as usize);
        eng
    }

    #[test]
    fn the_mark_skips_dead_gates_and_rewrites_nothing() {
        // `x + 0` from a raw gate list is no rule's business here: the
        // compile keeps it, and skips only what no root reads.
        let gates = vec![
            Gate::Input(0),
            Gate::Const(0),
            Gate::Add(0, 1),
            Gate::Mul(0, 0),
            Gate::AssertZero(1),
        ];
        let c = Circuit::from_raw(gates, vec![2], 1).unwrap();
        let eng = compiles_like_the_interpreter(&c, &[vec![7]]);
        let st = eng.stats().opt.as_ref().unwrap();
        assert_eq!((st.dead, st.gates_before, st.gates_after), (1, 3, 2));
        assert_eq!(eng.stats().gate_count_pairs().len(), 4);
        assert_eq!(eng.stats().optimized_size, 2);
    }

    #[test]
    fn dce_keeps_outputs_and_inputs() {
        let mut b = Builder::without_cse();
        let x = b.input();
        let y = b.input();
        let _dead = b.mul(x, y); // unused
        let live = b.add(x, y);
        let c = b.finish(vec![live]);
        let eng = compiles_like_the_interpreter(&c, &[vec![2, 3], vec![2]]);
        assert_eq!(eng.stats().optimized_size, 1);
        assert_eq!(eng.num_inputs(), 2);
        assert_eq!(eng.stats().opt.as_ref().unwrap().dead, 1);
    }

    #[test]
    fn failing_asserts_report_their_source_gates() {
        let mut b = Builder::without_cse();
        let x = b.input();
        let y = b.input();
        let _pad = b.mul(x, x); // dead gate before the asserts
        let d = b.sub(x, y);
        b.assert_zero(d);
        b.assert_zero(d); // duplicate: the first one is reported
        let e = b.eq(x, y);
        let n = b.not(e);
        b.assert_zero(n);
        let c = b.finish(vec![]);
        let instances = [vec![9, 2], vec![4, 4], vec![0, 1]];
        let eng = compiles_like_the_interpreter(&c, &instances);
        assert_eq!(
            eng.evaluate(&[9, 2]),
            Err(EvalError::AssertionFailed { gate: 4, value: 7 })
        );
    }

    #[test]
    fn a_mux_reads_all_three_operands() {
        // The else operand is read by the mux alone, and the select picks
        // it whenever `x >= y`.
        let mut b = Builder::without_cse();
        let x = b.input();
        let y = b.input();
        let s = b.add(x, y);
        let p = b.mul(x, y);
        let lt = b.lt(x, y);
        let m = b.mux(lt, s, p);
        let c = b.finish(vec![m]);
        let eng = compiles_like_the_interpreter(&c, &[vec![2, 3], vec![5, 3], vec![4, 4]]);
        assert_eq!(eng.stats().opt.as_ref().unwrap().dead, 0);
    }

    /// A program exercising every rewrite family at once: folds,
    /// identities, coercions, CSE duplicates, passing / failing /
    /// duplicated asserts, dead gates.
    fn gnarly_program(b: &mut Builder) -> Vec<WireId> {
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let zero = b.constant(0);
        let one = b.constant(1);
        let a1 = b.add(x, zero); // x
        let m1 = b.mul(a1, one); // x
        let d1 = b.sub(x, y);
        let d2 = b.sub(x, y); // CSE dup of d1
        b.assert_zero(d1);
        b.assert_zero(d2); // dedups to the first
        let pz = b.sub(z, z); // folds to 0
        b.assert_zero(pz); // provably passes, dropped
        let k = b.mul(one, one); // const 1
        b.assert_zero(k); // always fails
        let e = b.eq(m1, y);
        let n1 = b.not(e);
        let n2 = b.not(n1); // bool coercion of e
        let mx = b.mux(e, one, zero); // bool(e)
        let w = b.and(n2, mx);
        let o = b.or(w, zero);
        let xr = b.xor(o, one); // logical negation
        let lt = b.lt(z, zero); // folds to 0
        let _dead = b.mul(y, z); // dead
        let deep = {
            let mut acc = x;
            for i in 0..12 {
                let c = b.constant(i % 3);
                acc = b.add(acc, c);
                let t = b.mul(acc, y);
                acc = b.sub(t, acc);
            }
            acc
        };
        vec![m1, xr, lt, deep, x]
    }

    #[test]
    fn gnarly_circuit_keeps_its_semantics() {
        let build = |mut b: Builder| {
            let outs = gnarly_program(&mut b);
            b.finish(outs)
        };
        let raw = build(Builder::without_cse());
        let c = build(Builder::new());
        let asserts = |c: &Circuit| {
            c.gates()
                .filter(|g| matches!(g, Gate::AssertZero(_)))
                .count()
        };
        // The rules drop the duplicate and the passing assert and keep
        // the always-failing one.
        assert_eq!((asserts(&raw), asserts(&c)), (4, 2));
        assert!(c.size() < raw.size());
        // The always-failing assert fires on every input; both builds,
        // compiled either way, report their own first failing gate.
        let instances = [vec![0u64, 0, 0], vec![3, 3, 1], vec![5, 2, 9]];
        let eng = compiles_like_the_interpreter(&c, &instances);
        assert!(eng.stats().optimized_size < c.size());
        compiles_like_the_interpreter(&raw, &instances);
        for inst in &instances {
            match (raw.evaluate(inst), c.evaluate(inst)) {
                (
                    Err(EvalError::AssertionFailed { value: rv, .. }),
                    Err(EvalError::AssertionFailed { value: sv, .. }),
                ) => assert_eq!(rv, sv),
                other => panic!("expected assertion failures, got {other:?}"),
            }
        }
    }

    #[test]
    fn output_order_and_arity_survive() {
        let mut b = Builder::without_cse();
        let x = b.input();
        let y = b.input();
        let _unused_input_is_fine = b.input();
        let a = b.add(x, y);
        let m = b.mul(x, y);
        let c = b.finish(vec![m, a, x]);
        let eng = compiles_like_the_interpreter(&c, &[vec![2, 3, 99]]);
        assert_eq!(eng.num_inputs(), 3);
        assert_eq!(eng.evaluate(&[2, 3, 99]).unwrap(), vec![6, 5, 2]);
    }
}
