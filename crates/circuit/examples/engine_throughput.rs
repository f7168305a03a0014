//! Compile a degree-bounded join circuit once, then stream batches of
//! databases through it — the engine's intended usage pattern.
//!
//! ```text
//! cargo run -p qec-circuit --release --example engine_throughput \
//!     [cap] [batch] [--no-opt] [--trace-out <path>]
//! ```
//!
//! `--no-opt` compiles the raw circuit (`optimize: false`), skipping the
//! optimizer pass, so the cost of not optimizing is directly measurable.
//! `--trace-out <path>` writes a
//! Chrome trace-event document for the compile (load it in
//! `chrome://tracing` or Perfetto); combine with `QEC_TRACE=1` to also
//! capture the builder counters from the process-global recorder.
//!
//! Prints the compiled tape's statistics (per-kind gate counts, level
//! widths, peak registers) and the measured throughput of the batched
//! engine against the per-instance interpreter.

use qec_circuit::{encode_relation, join_degree_bounded, Builder, CompileOptions, CompiledCircuit};
use qec_obs::Recorder;
use qec_relation::Var;

fn main() {
    let mut cap: usize = 48;
    let mut batch: usize = 64;
    let mut no_opt = false;
    let mut trace_out: Option<String> = None;
    let mut positional = 0;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--no-opt" => no_opt = true,
            "--trace-out" => {
                trace_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--trace-out needs a file path argument");
                    std::process::exit(2);
                }));
            }
            other => {
                let v: usize = other.parse().unwrap_or_else(|_| {
                    eprintln!("unexpected argument {other:?}; usage: [cap] [batch] [--no-opt] [--trace-out <path>]");
                    std::process::exit(2);
                });
                match positional {
                    0 => cap = v,
                    1 => batch = v,
                    _ => {
                        eprintln!("too many positional arguments");
                        std::process::exit(2);
                    }
                }
                positional += 1;
            }
        }
    }

    // R(a, b) ⋈ S(b, c), each with `cap` slots, degree bound 4.
    let mut b = Builder::new();
    let r = encode_relation(&mut b, vec![Var(0), Var(1)], cap);
    let s = encode_relation(&mut b, vec![Var(1), Var(2)], cap);
    let j = join_degree_bounded(&mut b, &r, &s, 4);
    let circuit = b.finish(j.flatten());

    // When a trace is requested, force an enabled recorder even without
    // QEC_TRACE=1 so the compile spans land somewhere exportable.
    let opts = CompileOptions::from_env().with_optimize(!no_opt);
    let opts = if trace_out.is_some() && !opts.recorder.is_enabled() {
        opts.with_recorder(Recorder::new(true))
    } else {
        opts
    };
    let t0 = std::time::Instant::now();
    let engine = CompiledCircuit::compile_with(&circuit, &opts).expect("circuit compiles");
    let compile_ns = t0.elapsed().as_nanos();
    let stats = engine.stats();
    println!(
        "circuit: {} gates, depth {}",
        stats.circuit_size, stats.circuit_depth
    );
    if let Some(opt) = &stats.opt {
        println!(
            "opt:     {} gates, depth {} ({:.1}% gates removed)",
            stats.optimized_size,
            stats.optimized_depth,
            100.0 * opt.gate_reduction()
        );
    } else {
        println!("opt:     skipped (--no-opt)");
    }
    println!(
        "tape:    {} instructions in {} levels (widest {})",
        stats.tape_len,
        stats.num_levels,
        stats.max_level_width()
    );
    println!(
        "regs:    {} peak ({}x smaller than the {}-wire value buffer)",
        stats.peak_registers,
        stats.circuit_wires / stats.peak_registers.max(1),
        stats.circuit_wires
    );
    for (kind, count) in stats.gate_count_pairs() {
        println!("         {kind:<12} {count}");
    }
    let rec = &opts.recorder;
    if rec.is_enabled() {
        let stages = rec.span_total_ns("optimize") + rec.span_total_ns("tape");
        let coverage = stages as f64 / rec.span_total_ns("compile").max(1) as f64;
        println!(
            "compile: {:.2} ms total ({:.0}% in measured stages)",
            compile_ns as f64 / 1e6,
            100.0 * coverage.min(1.0)
        );
    } else {
        println!("compile: {:.2} ms total", compile_ns as f64 / 1e6);
    }
    if let Some(path) = &trace_out {
        std::fs::write(path, rec.chrome_trace()).unwrap_or_else(|e| {
            eprintln!("cannot write trace to {path}: {e}");
            std::process::exit(1);
        });
        println!("trace:   wrote Chrome trace events to {path}");
    }

    // One synthetic instance per lane: tuples (i, i % 7), all valid.
    let instances: Vec<Vec<u64>> = (0..batch)
        .map(|lane| {
            let mut inp = Vec::with_capacity(circuit.num_inputs());
            for rel in 0..2 {
                for slot in 0..cap {
                    let key = (slot as u64 + lane as u64) % 7;
                    inp.extend_from_slice(&if rel == 0 {
                        [slot as u64, key, 1] // a, b, valid
                    } else {
                        [key, slot as u64, 1] // b, c, valid
                    });
                }
            }
            inp
        })
        .collect();

    // Interpreter: one pass per instance.
    let t0 = std::time::Instant::now();
    let reference: Vec<_> = instances.iter().map(|i| circuit.evaluate(i)).collect();
    let interp_ns = t0.elapsed().as_nanos();

    // Engine: one tape pass for the whole batch.
    let t0 = std::time::Instant::now();
    let got = engine.evaluate_batch(&instances);
    let engine_ns = t0.elapsed().as_nanos().max(1);
    assert_eq!(got, reference, "engine must match the interpreter");
    let gate_evals = (stats.tape_len * batch) as f64;

    println!(
        "interpreter: {:>9.1} µs/instance",
        interp_ns as f64 / 1e3 / batch as f64
    );
    println!(
        "engine:      {:>9.1} µs/instance at batch {batch} — {:.2}x, {:.2e} gate-evals/s, ~{} MiB touched",
        engine_ns as f64 / 1e3 / batch as f64,
        interp_ns as f64 / engine_ns as f64,
        gate_evals / (engine_ns as f64 / 1e9),
        (stats.bytes_per_instance * batch as u64) >> 20,
    );
}
