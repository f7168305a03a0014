//! Query evaluation by hardware (Sec. 1 of the paper): when a frequently
//! asked query is burned into an FPGA/ASIC, the circuit **size** is the
//! fabrication cost and power budget, and the **depth** is the query
//! latency. This example prints the budget sheet for the triangle query
//! at several capacity points, compares PANDA-C against the classical
//! construction, and shows Brent-scheduled latency on a fixed number of
//! parallel lanes.
//!
//! ```text
//! cargo run --release --example hardware_cost
//! ```

use query_circuits::circuit::brent_steps;
use query_circuits::core::{compile_fcq, naive_circuit, paper_cost};
use query_circuits::query::triangle;
use query_circuits::relation::{DcSet, DegreeConstraint};

fn main() {
    let q = triangle();
    println!("budget sheet for {q}\n");
    println!(
        "{:>6} {:>12} {:>14} {:>9} {:>13} {:>9}",
        "N", "panda cost", "naive cost", "speedup", "panda gates", "depth"
    );
    for e in [4u32, 5, 6, 7] {
        let n = 1u64 << e;
        let dc = DcSet::from_vec(
            q.atoms
                .iter()
                .map(|a| DegreeConstraint::cardinality(a.vars, n))
                .collect(),
        );
        let p = compile_fcq(&q, &dc).expect("compiles");
        // gate counts scale with the Sec. 4.3 cost model times the same
        // polylog lowering factor for both designs, so the cost ratio is
        // the silicon ratio; the lowered count is shown for PANDA-C only
        // (lowering the naive N³ circuit at N=128 would need ~10^10 gates)
        let pc = paper_cost(&p.rc).to_f64();
        let (naive, _) = naive_circuit(&q, &dc).expect("naive");
        let nc = paper_cost(&naive).to_f64();
        let lowered = p.rc.lower();
        println!(
            "{:>6} {:>12} {:>14} {:>8.1}x {:>13} {:>9}",
            n,
            pc,
            nc,
            nc / pc,
            lowered.circuit.size(),
            lowered.circuit.depth()
        );
    }

    // Latency on P parallel lanes (Brent's theorem, Sec. 1): W/P + D.
    let n = 1u64 << 6;
    let dc = DcSet::from_vec(
        q.atoms
            .iter()
            .map(|a| DegreeConstraint::cardinality(a.vars, n))
            .collect(),
    );
    let p = compile_fcq(&q, &dc).expect("compiles");
    let lowered = p.rc.lower();
    let c = &lowered.circuit;
    println!(
        "\nlatency at N={n}: W = {} gates, D = {} levels",
        c.size(),
        c.depth()
    );
    println!("{:>8} {:>12} {:>14}", "lanes", "cycles", "vs W/P + D");
    for lanes in [1u64, 16, 256, 4096, 1 << 20] {
        let steps = brent_steps(c, lanes);
        let bound = c.size() / lanes + u64::from(c.depth());
        println!(
            "{:>8} {:>12} {:>13.2}x",
            lanes,
            steps,
            steps as f64 / bound as f64
        );
    }
    println!(
        "\ngoing wide pays until the depth floor: at ≥4096 lanes the query runs in ~D cycles."
    );
}
