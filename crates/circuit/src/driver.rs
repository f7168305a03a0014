//! The unified compile driver: one options struct and one entry point.
//!
//! [`CompileOptions`] is the single value that travels the whole
//! pipeline — whether the optimizer's liveness mark runs and where
//! observability data goes — and [`CompiledCircuit::compile_with`] is
//! the one driver that consumes it, returning just the engine. The
//! rewrite rules and hash-consing are not a stage here: the word
//! [`Builder`](crate::Builder) applies them to each gate as it builds
//! it, so every caller of `Builder::new()` gets them, the secure path
//! included. There is no validation knob: circuits are valid by
//! construction (see [`crate::validate`]). The mark makes no second
//! circuit: the compile schedules the live gates of the source arena in
//! place, so the gate an assertion failure reports is the source's by
//! construction. Where the compile time went is on the recorder, as
//! `compile`, `optimize` and `tape` spans. Every pass it drives (word
//! build, mark, tape, bit lowering, bit optimize) is one sequential walk
//! over its gate list.
//!
//! Observability has two sinks by design:
//!
//! * **Driver stages** (optimize, tape, and the word-circuit build when
//!   entered through `RelCircuit::lower_with`) record spans and counters
//!   on `CompileOptions::recorder`.
//! * **Low-level layers** (the builder's rule and hash-cons counters,
//!   `build.folded`, `build.identities`, `build.cons_*`) flush to the
//!   process-global recorder ([`qec_obs::global`]), because threading a
//!   handle through every builder would tax the untraced path.
//!
//! Setting `QEC_TRACE=1` unifies the two: [`CompileOptions::from_env`]
//! uses the global recorder, so driver spans and builder counters land in
//! the same document. Programmatic users who want the same unification
//! call [`qec_obs::install`] with their recorder.

use qec_obs::Recorder;

use crate::engine::CompiledCircuit;
use crate::ir::{Circuit, EvalError};

/// Options consumed by every pipeline entry point: the optimizer switch
/// and the observability sink. Construct with
/// [`CompileOptions::from_env`] (honours `QEC_TRACE`) or
/// [`CompileOptions::sequential`], then refine with the `with_*`
/// builders.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Run the word-level optimizer, the liveness mark, so the tape and
    /// the bit lowering skip dead gates (`true` everywhere except raw A/B
    /// measurements). The builder's rewrite rules do not depend on it.
    pub optimize: bool,
    /// Span/counter sink for the driver stages. Disabled by default —
    /// the fast path costs one boolean check per stage.
    pub recorder: Recorder,
}

impl CompileOptions {
    /// Environment-driven options: `QEC_TRACE` selects the process-global
    /// recorder (enabled iff the variable is set to a non-empty value
    /// other than `0`), so driver spans and low-level builder counters
    /// share one document.
    pub fn from_env() -> CompileOptions {
        CompileOptions {
            optimize: true,
            recorder: qec_obs::global(),
        }
    }

    /// Optimizing and untraced: the environment-independent options
    /// tests and embedders start from.
    pub fn sequential() -> CompileOptions {
        CompileOptions {
            optimize: true,
            recorder: Recorder::disabled(),
        }
    }

    /// Switches the word-level optimizer (the liveness mark) on or off.
    pub fn with_optimize(mut self, optimize: bool) -> CompileOptions {
        self.optimize = optimize;
        self
    }

    /// Replaces the observability sink.
    pub fn with_recorder(mut self, recorder: Recorder) -> CompileOptions {
        self.recorder = recorder;
        self
    }
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions::from_env()
    }
}

impl CompiledCircuit {
    /// Compiles `c` into a register-allocated instruction tape under
    /// `opts` — the single compile entry point. When `opts.optimize` is
    /// set the liveness mark runs first and the tape holds only the live
    /// gates of `c`, read in place from its arena; with it off every
    /// gate is compiled. Either way an assertion failure reports the
    /// source gate index, which each `Assert` instruction carries. The
    /// `compile`, `optimize` (the mark) and `tape` spans, the mark's
    /// `opt.*` counters, and the `engine.peak_registers`,
    /// `engine.tape_len`, `engine.tape_bytes` and `compile.peak_bytes`
    /// gauges go to `opts.recorder`. `compile.peak_bytes` is what the
    /// compile holds at once: the source arena, the mark and the tape.
    ///
    /// The optimizer makes no second circuit to check, so no circuit
    /// fails to compile today; the `Result` stays for the callers that
    /// propagate it.
    pub fn compile_with(c: &Circuit, opts: &CompileOptions) -> Result<CompiledCircuit, EvalError> {
        let recorder = &opts.recorder;
        let _root = recorder.span("compile");
        let (mark, opt) = {
            let _span = opts.optimize.then(|| recorder.span("optimize"));
            crate::opt::mark_live(c, opts.optimize)
        };
        if let (true, Some(st)) = (recorder.is_enabled(), &opt) {
            recorder.add("opt.gates_before", st.gates_before);
            recorder.add("opt.gates_after", st.gates_after);
            recorder.add("opt.dead", st.dead);
        }
        let mark_bytes = mark.capacity() * std::mem::size_of::<u32>();
        let mut eng = {
            let _tape = recorder.span("tape");
            Self::compile_inner(c, mark)
        };
        eng.stats.opt = opt;
        if recorder.is_enabled() {
            recorder.gauge_max("engine.peak_registers", eng.stats.peak_registers as u64);
            recorder.gauge_max("engine.tape_len", eng.stats.tape_len as u64);
            recorder.gauge_max("engine.tape_bytes", eng.tape_bytes() as u64);
            recorder.gauge_max(
                "compile.peak_bytes",
                (c.arena().bytes() + mark_bytes + eng.tape_bytes()) as u64,
            );
        }
        Ok(eng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Builder;

    fn sample() -> Circuit {
        let mut b = Builder::without_cse();
        let x = b.input();
        let y = b.input();
        let s = b.add(x, y);
        let _dead = b.sub(x, y); // not compiled
        let p = b.mul(s, s);
        b.finish(vec![p])
    }

    #[test]
    fn compile_with_optimizes_and_evaluates() {
        let c = sample();
        let eng = CompiledCircuit::compile_with(&c, &CompileOptions::sequential()).unwrap();
        assert_eq!(eng.stats().opt.as_ref().map(|st| st.dead), Some(1));
        assert_eq!(eng.evaluate(&[3, 4]).unwrap(), vec![49]);
    }

    #[test]
    fn raw_compile_skips_the_optimizer() {
        let c = sample();
        let opts = CompileOptions::sequential().with_optimize(false);
        let eng = CompiledCircuit::compile_with(&c, &opts).unwrap();
        assert!(eng.stats().opt.is_none());
        assert_eq!(eng.evaluate(&[3, 4]).unwrap(), vec![49]);
    }

    #[test]
    fn stages_are_recorded_on_the_recorder() {
        let c = sample();
        let rec = Recorder::new(true);
        let opts = CompileOptions::sequential().with_recorder(rec.clone());
        let eng = CompiledCircuit::compile_with(&c, &opts).unwrap();
        let compile = rec.span_total_ns("compile");
        let stages = rec.span_total_ns("optimize") + rec.span_total_ns("tape");
        assert!(rec.span_total_ns("optimize") > 0);
        assert!(rec.span_total_ns("tape") > 0);
        assert!(
            stages <= compile,
            "stages {stages} ns exceed compile {compile} ns"
        );
        let doc = qec_obs::json::parse(&rec.metrics_json()).expect("valid metrics JSON");
        assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_f64()),
            Some(f64::from(qec_obs::METRICS_SCHEMA_VERSION))
        );
        assert_eq!(rec.counter("engine.tape_len"), eng.stats().tape_len as u64);
        assert_eq!(rec.counter("opt.dead"), 1);
        assert_eq!(
            rec.counter("compile.peak_bytes"),
            (c.arena().bytes() + 4 * c.num_wires() + eng.tape_bytes()) as u64
        );
    }
}
