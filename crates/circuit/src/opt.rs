//! Offline circuit optimizer: assertion-safe mark-and-sweep dead-gate
//! elimination.
//!
//! The rewrites (constant folding, algebraic identities, boolean
//! coercion, assert deduplication) and structural CSE happen when a gate
//! is built: [`Builder::new`](crate::Builder::new) applies them before it
//! interns each gate, so its circuits are a fixpoint of the rules and a
//! second rewrite walk over them would be an identity map. What a built
//! circuit still carries is dead code: gates whose every user folded
//! away, and helpers an operator circuit built and did not use. The sweep
//! removes it. A circuit from [`Circuit::from_raw`] or a decoded tape gets
//! the same sweep and keeps its semantics.
//!
//! The pass is semantics-preserving in a strict sense:
//!
//! * every surviving wire is a source wire with its gate unchanged, so it
//!   evaluates to the same value on every input vector;
//! * every input and every assert survives, so optimized circuits accept
//!   the exact same input vectors and fail an assertion iff the source
//!   does, at the assert [`OptStats::assert_origin`] maps back to the
//!   source's first failing gate (which is how
//!   [`crate::engine::CompiledCircuit`] reports source-level errors).

use crate::driver::CompileOptions;
use crate::ir::{op, Circuit, Gates, WireId};

/// Counters describing one [`optimize_with`] run.
#[derive(Clone, Debug, Default)]
pub struct OptStats {
    /// Logic gates in the source circuit.
    pub gates_before: u64,
    /// Logic gates after optimization.
    pub gates_after: u64,
    /// Total wires (inputs + constants + gates) before.
    pub wires_before: usize,
    /// Total wires after.
    pub wires_after: usize,
    /// Depth before.
    pub depth_before: u32,
    /// Depth after.
    pub depth_after: u32,
    /// Wires removed by the sweep.
    pub dead: u64,
    /// `(optimized gate index, source gate index)` for every assert,
    /// sorted by optimized index.
    pub assert_origin: Vec<(u32, u32)>,
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

    /// Source gate index of the assert at `opt_gate` in the optimized
    /// circuit, if `opt_gate` is a surviving assert.
    pub fn origin_of(&self, opt_gate: u32) -> Option<u32> {
        self.assert_origin
            .binary_search_by_key(&opt_gate, |&(ng, _)| ng)
            .ok()
            .map(|i| self.assert_origin[i].1)
    }

    fn passthrough(c: &Circuit) -> OptStats {
        OptStats {
            gates_before: c.size(),
            gates_after: c.size(),
            wires_before: c.num_wires(),
            wires_after: c.num_wires(),
            depth_before: c.depth(),
            depth_after: c.depth(),
            ..OptStats::default()
        }
    }
}

/// Optimizes a circuit under `opts`: one mark-and-sweep over the gate
/// list that keeps the outputs, the asserts and the inputs and whatever
/// they read.
///
/// When `opts.optimize` is off the circuit passes through unchanged.
/// Output order and input arity are always preserved; every declared
/// input wire survives even if unused, so optimized circuits accept the
/// exact same input vectors.
///
/// When `opts.recorder` is enabled the pass records an `optimize` span
/// and its counters; the produced [`OptStats`] never depends on whether
/// tracing was on.
pub fn optimize_with(c: &Circuit, opts: &CompileOptions) -> (Circuit, OptStats) {
    if !opts.optimize {
        return (c.clone(), OptStats::passthrough(c));
    }
    let rec = &opts.recorder;
    let _span = rec.span("optimize");
    let (opt, st) = sweep(c);
    if rec.is_enabled() {
        rec.add("opt.gates_before", st.gates_before);
        rec.add("opt.gates_after", st.gates_after);
        rec.add("opt.dead", st.dead);
        rec.gauge_max("opt.arena_bytes", opt.arena().bytes() as u64);
    }
    (opt, st)
}

/// The liveness mark and the sweep (see [`optimize_with`] for the
/// semantics contract).
fn sweep(c: &Circuit) -> (Circuit, OptStats) {
    const DEAD: WireId = WireId::MAX;
    let src = c.arena();
    let n = src.len();
    // Mark: outputs, asserts and inputs (arity must be preserved) are
    // roots; one reverse pass suffices because the gate list is
    // topologically ordered. A live wire's slot holds 0 until the
    // sweep numbers it.
    let mut remap = vec![DEAD; n];
    for &o in c.outputs() {
        remap[o as usize] = 0;
    }
    for w in (0..n).rev() {
        let r = src.get(w);
        if remap[w] == DEAD && !matches!(r.op, op::ASSERT | op::INPUT) {
            continue;
        }
        remap[w] = 0;
        for &o in r.operands() {
            remap[o as usize] = 0;
        }
    }

    // Sweep: copy the live records in id order, renumbered.
    let kept = remap.iter().filter(|&&m| m != DEAD).count();
    let mut gates = Gates::with_capacity(kept);
    let mut assert_origin: Vec<(u32, u32)> = Vec::new();
    for w in 0..n {
        if remap[w] == DEAD {
            continue;
        }
        let mut r = src.get(w);
        let arity = r.arity();
        for o in &mut r.args[..arity] {
            *o = remap[*o as usize];
        }
        let nw = gates.len() as WireId;
        if r.op == op::ASSERT {
            assert_origin.push((nw, w as u32));
        }
        gates.push(r);
        remap[w] = nw;
    }
    let outputs: Vec<WireId> = c.outputs().iter().map(|&o| remap[o as usize]).collect();
    drop(remap);

    let opt = Circuit::from_gates(gates, outputs, c.num_inputs())
        .expect("the sweep keeps the gate list topological");
    let stats = OptStats {
        gates_before: c.size(),
        gates_after: opt.size(),
        wires_before: n,
        wires_after: kept,
        depth_before: c.depth(),
        depth_after: opt.depth(),
        dead: (n - kept) as u64,
        assert_origin,
    };
    (opt, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Builder, EvalError, Gate};

    #[test]
    fn the_sweep_removes_dead_gates_and_rewrites_nothing() {
        // `x + 0` from a raw gate list is no rule's business here: the
        // sweep keeps it, and drops only what no root reads.
        let gates = vec![
            Gate::Input(0),
            Gate::Const(0),
            Gate::Add(0, 1),
            Gate::Mul(0, 0),
            Gate::AssertZero(1),
        ];
        let c = Circuit::from_raw(gates, vec![2], 1).unwrap();
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        assert!(opt.gates().eq([
            Gate::Input(0),
            Gate::Const(0),
            Gate::Add(0, 1),
            Gate::AssertZero(1),
        ]));
        assert_eq!((st.dead, st.gates_before, st.gates_after), (1, 3, 2));
        assert_eq!(st.assert_origin, vec![(3, 4)]);
        assert_eq!(opt.evaluate(&[7]).unwrap(), vec![7]);
    }

    #[test]
    fn dce_keeps_outputs_and_inputs() {
        let mut b = Builder::without_cse();
        let x = b.input();
        let y = b.input();
        let _dead = b.mul(x, y); // unused
        let live = b.add(x, y);
        let c = b.finish(vec![live]);
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(opt.size(), 1);
        assert_eq!(opt.num_inputs(), 2);
        assert_eq!(st.dead, 1);
        assert_eq!(opt.evaluate(&[2, 3]).unwrap(), vec![5]);
    }

    #[test]
    fn assert_origin_maps_reported_gate_to_source_gate() {
        let mut b = Builder::without_cse();
        let x = b.input();
        let y = b.input();
        let _pad = b.mul(x, x); // dead gate before the assert
        let d = b.sub(x, y);
        b.assert_zero(d);
        let e = b.eq(x, y);
        let n = b.not(e);
        b.assert_zero(n);
        let c = b.finish(vec![]);
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        // Fail the first assert: both circuits must report corresponding
        // gates and identical values.
        let (src_err, opt_err) = (
            c.evaluate(&[9, 2]).unwrap_err(),
            opt.evaluate(&[9, 2]).unwrap_err(),
        );
        match (src_err, opt_err) {
            (
                EvalError::AssertionFailed {
                    gate: sg,
                    value: sv,
                },
                EvalError::AssertionFailed {
                    gate: og,
                    value: ov,
                },
            ) => {
                assert_eq!(sv, ov);
                assert_eq!(st.origin_of(og as u32), Some(sg as u32));
            }
            other => panic!("expected assertion failures, got {other:?}"),
        }
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
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        let asserts = |c: &Circuit| {
            c.gates()
                .filter(|g| matches!(g, Gate::AssertZero(_)))
                .count()
        };
        // The rules drop the duplicate and the passing assert and keep
        // the always-failing one; the sweep keeps both survivors.
        assert_eq!((asserts(&raw), asserts(&c), asserts(&opt)), (4, 2, 2));
        assert!(c.size() < raw.size() && opt.size() < c.size() && st.dead > 0);
        // The always-failing assert fires on every input; every build
        // reports it with the same value, and the sweep maps its gate
        // back to the rule-built circuit's.
        for inp in [[0u64, 0, 0], [3, 3, 1], [5, 2, 9]] {
            match (raw.evaluate(&inp), c.evaluate(&inp), opt.evaluate(&inp)) {
                (
                    Err(EvalError::AssertionFailed { value: rv, .. }),
                    Err(EvalError::AssertionFailed {
                        gate: sg,
                        value: sv,
                    }),
                    Err(EvalError::AssertionFailed {
                        gate: og,
                        value: ov,
                    }),
                ) => {
                    assert_eq!((rv, sv), (ov, ov));
                    assert_eq!(st.origin_of(og as u32), Some(sg as u32));
                }
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
        let (opt, _) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(opt.num_inputs(), 3);
        assert_eq!(opt.evaluate(&[2, 3, 99]).unwrap(), vec![6, 5, 2]);
    }
}
