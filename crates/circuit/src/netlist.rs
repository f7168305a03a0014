//! Circuit descriptions as netlists (uniformity, Sec. 4.2).
//!
//! The paper requires circuit families to be *uniform*: a low-space
//! machine must be able to emit the circuit description from the query
//! and the degree constraints. Our builders are streaming — gates are
//! emitted in topological order with O(1) state beyond wire ids — and
//! this module makes the description concrete: a line-oriented textual
//! netlist for people and external tools (`qec --netlist`). It is a
//! one-way printer; the binary [`WordTape`](crate::WordTape) is the
//! format a circuit is shipped in and read back from. Generation is
//! deterministic: the same query and constraints produce byte-identical
//! netlists.
//!
//! Format (one gate per line, wires named by index):
//!
//! ```text
//! qec-netlist v1 inputs=<k> wires=<w>
//! 0 input 0
//! 1 const 42
//! 2 add 0 1
//! ...
//! output 2 5 7
//! ```

use std::fmt::Write as _;

use crate::ir::{Circuit, Gate};

/// Serializes a circuit as a textual netlist.
pub fn write_netlist(c: &Circuit) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "qec-netlist v1 inputs={} wires={}",
        c.num_inputs(),
        c.num_wires()
    );
    for (i, g) in c.gates().enumerate() {
        let line = match g {
            Gate::Input(idx) => format!("{i} input {idx}"),
            Gate::Const(v) => format!("{i} const {v}"),
            Gate::Add(a, b) => format!("{i} add {a} {b}"),
            Gate::Sub(a, b) => format!("{i} sub {a} {b}"),
            Gate::Mul(a, b) => format!("{i} mul {a} {b}"),
            Gate::Eq(a, b) => format!("{i} eq {a} {b}"),
            Gate::Lt(a, b) => format!("{i} lt {a} {b}"),
            Gate::And(a, b) => format!("{i} and {a} {b}"),
            Gate::Or(a, b) => format!("{i} or {a} {b}"),
            Gate::Xor(a, b) => format!("{i} xor {a} {b}"),
            Gate::Not(a) => format!("{i} not {a}"),
            Gate::Mux(s, a, b) => format!("{i} mux {s} {a} {b}"),
            Gate::AssertZero(a) => format!("{i} assertz {a}"),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("output");
    for w in c.outputs() {
        let _ = write!(out, " {w}");
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Builder;
    use crate::rel::encode_relation;
    use crate::sort::{sort_slots, SortKey};
    use qec_relation::Var;

    fn sample_circuit() -> Circuit {
        let mut b = Builder::new();
        let w = encode_relation(&mut b, vec![Var(0), Var(1)], 6);
        let s = sort_slots(&mut b, &w, &SortKey::Columns(vec![Var(0)]));
        b.finish(s.flatten())
    }

    #[test]
    fn generation_is_deterministic() {
        // uniformity in practice: identical parameters → identical bytes
        let a = write_netlist(&sample_circuit());
        let b = write_netlist(&sample_circuit());
        assert_eq!(a, b);
    }

    #[test]
    fn one_line_per_wire_between_header_and_outputs() {
        let mut b = Builder::new();
        let x = b.input();
        let k = b.constant(42);
        let s = b.add(x, k);
        b.assert_zero(x);
        let c = b.finish(vec![s]);
        assert_eq!(
            write_netlist(&c),
            "qec-netlist v1 inputs=1 wires=4\n0 input 0\n1 const 42\n2 add 0 1\n3 assertz 0\noutput 2\n"
        );
    }
}
