//! The unified compile driver: one options struct, one entry point, one
//! report.
//!
//! [`CompileOptions`] is the single value that travels the whole
//! pipeline — whether the optimizer runs, whether the validator checks
//! every stage, and where observability data goes — and
//! [`CompiledCircuit::compile_with`] is the one driver that consumes it,
//! returning the engine plus a [`PipelineReport`] describing where the
//! compile time went. Every pass it drives (word build, optimize, bit
//! lowering, bit optimize) is one sequential walk over its gate list.
//!
//! Observability has two sinks by design:
//!
//! * **Driver stages** (optimize, tape, and the word-circuit build when
//!   entered through `RelCircuit::lower_with`) record spans and counters
//!   on `CompileOptions::recorder`.
//! * **Low-level layers** (the builder hash-cons) flush to the
//!   process-global recorder ([`qec_obs::global`]), because threading a
//!   handle through every builder would tax the untraced path.
//!
//! Setting `QEC_TRACE=1` unifies the two: [`CompileOptions::from_env`]
//! uses the global recorder, so driver spans and builder counters land in
//! the same document. Programmatic users who want the same unification
//! call [`qec_obs::install`] with their recorder.

use std::time::Instant;

use qec_obs::Recorder;

use crate::engine::CompiledCircuit;
use crate::ir::{Circuit, EvalError};
use crate::opt::OptStats;

/// Options consumed by every pipeline entry point: the optimizer switch,
/// the validator switch, and the observability sink. Construct with
/// [`CompileOptions::from_env`] (honours `QEC_TRACE` / `QEC_VALIDATE`) or
/// [`CompileOptions::sequential`], then refine with the `with_*`
/// builders.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Run the word-level optimizer before taping (`true` everywhere
    /// except raw A/B measurements).
    pub optimize: bool,
    /// Populate the [`PipelineReport`] with a full metrics snapshot even
    /// when `recorder` is disabled: the driver substitutes a private
    /// enabled recorder for the duration of the call.
    pub collect_metrics: bool,
    /// Run the structural validator ([`crate::validate()`]) on the circuit
    /// after every driver stage (on the source before anything runs, and
    /// on the optimizer's output together with its assertion-provenance
    /// map). A violation aborts the compile with
    /// [`EvalError::Invalid`]. Off by default — it is a harness/debug
    /// knob, also reachable via `QEC_VALIDATE=1` in the environment.
    pub validate: bool,
    /// Span/counter sink for the driver stages. Disabled by default —
    /// the fast path costs one boolean check per stage.
    pub recorder: Recorder,
}

impl CompileOptions {
    /// Environment-driven options: `QEC_TRACE` selects the process-global
    /// recorder (enabled iff the variable is set to a non-empty value
    /// other than `0`), so driver spans and low-level builder counters
    /// share one document, and `QEC_VALIDATE` switches the validator on
    /// the same way.
    pub fn from_env() -> CompileOptions {
        CompileOptions {
            optimize: true,
            collect_metrics: false,
            validate: std::env::var("QEC_VALIDATE").is_ok_and(|v| !v.is_empty() && v != "0"),
            recorder: qec_obs::global(),
        }
    }

    /// Optimizing, unvalidated, untraced: the environment-independent
    /// options tests and embedders start from.
    pub fn sequential() -> CompileOptions {
        CompileOptions {
            optimize: true,
            collect_metrics: false,
            validate: false,
            recorder: Recorder::disabled(),
        }
    }

    /// Switches the word-level optimizer on or off.
    pub fn with_optimize(mut self, optimize: bool) -> CompileOptions {
        self.optimize = optimize;
        self
    }

    /// Requests a full metrics snapshot in the report even without an
    /// enabled recorder.
    pub fn with_metrics(mut self, collect_metrics: bool) -> CompileOptions {
        self.collect_metrics = collect_metrics;
        self
    }

    /// Switches the after-every-stage structural validator on or off.
    pub fn with_validate(mut self, validate: bool) -> CompileOptions {
        self.validate = validate;
        self
    }

    /// Replaces the observability sink.
    pub fn with_recorder(mut self, recorder: Recorder) -> CompileOptions {
        self.recorder = recorder;
        self
    }

    /// The recorder the driver actually records into: the configured one
    /// when enabled, a fresh private enabled recorder when
    /// `collect_metrics` asks for a snapshot anyway, and the disabled
    /// no-op otherwise.
    pub fn effective_recorder(&self) -> Recorder {
        if self.recorder.is_enabled() || !self.collect_metrics {
            self.recorder.clone()
        } else {
            Recorder::new(true)
        }
    }
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions::from_env()
    }
}

/// Where one [`CompiledCircuit::compile_with`] call spent its time, plus
/// the optimizer counters and the recorder that captured the run.
///
/// Stage wall times are measured by the driver with plain monotonic
/// reads — they are always present, even with tracing disabled, because
/// three clock reads per compile are free. The recorder-backed exports
/// ([`PipelineReport::metrics_json`], [`PipelineReport::chrome_trace`])
/// carry data only when the effective recorder was enabled.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// `(stage name, wall nanoseconds)` in execution order. Stages:
    /// `"optimize"` (when the optimizer ran) and `"tape"`.
    pub stages: Vec<(&'static str, u64)>,
    /// Wall nanoseconds for the whole `compile_with` call.
    pub total_ns: u64,
    /// Optimizer counters, when the optimizer ran.
    pub opt: Option<OptStats>,
    /// The effective recorder for the run (disabled unless tracing or
    /// `collect_metrics` was on).
    pub recorder: Recorder,
}

impl PipelineReport {
    /// Wall nanoseconds of the named stage (0 when it did not run).
    pub fn stage_ns(&self, name: &str) -> u64 {
        self.stages
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, ns)| ns)
    }

    /// Fraction of `total_ns` accounted for by the named stages, in
    /// `[0, 1]`. The acceptance gate for the observability layer is that
    /// the instrumented stages cover ≥ 95 % of end-to-end compile time.
    pub fn coverage(&self) -> f64 {
        if self.total_ns == 0 {
            return 1.0;
        }
        let covered: u64 = self.stages.iter().map(|&(_, ns)| ns).sum();
        (covered as f64 / self.total_ns as f64).min(1.0)
    }

    /// The versioned JSON metrics document from the run's recorder.
    pub fn metrics_json(&self) -> String {
        self.recorder.metrics_json()
    }

    /// The Chrome trace-event document (`chrome://tracing`, Perfetto)
    /// from the run's recorder.
    pub fn chrome_trace(&self) -> String {
        self.recorder.chrome_trace()
    }
}

impl CompiledCircuit {
    /// Compiles `c` into a register-allocated instruction tape under
    /// `opts` — the single compile entry point.
    /// When `opts.optimize` is set the word-level optimizer runs
    /// first and assertion failures keep reporting **source** gate indices via
    /// [`OptStats::assert_origin`]. Fails with [`EvalError::CountOnly`]
    /// for circuits built in count-only mode.
    pub fn compile_with(
        c: &Circuit,
        opts: &CompileOptions,
    ) -> Result<(CompiledCircuit, PipelineReport), EvalError> {
        if !c.is_evaluable() {
            return Err(EvalError::CountOnly);
        }
        if opts.validate {
            crate::validate::validate(c).map_err(EvalError::Invalid)?;
        }
        let recorder = opts.effective_recorder();
        let eff = opts.clone().with_recorder(recorder.clone());
        let root = recorder.span("compile");
        let t_total = Instant::now();
        let mut stages: Vec<(&'static str, u64)> = Vec::new();

        let optimized = if eff.optimize {
            let t = Instant::now();
            let (opt_c, st) = crate::opt::optimize_with(c, &eff);
            if eff.validate {
                crate::validate::validate(&opt_c).map_err(EvalError::Invalid)?;
                crate::validate::validate_opt(c, &opt_c, &st).map_err(EvalError::Invalid)?;
            }
            stages.push(("optimize", t.elapsed().as_nanos() as u64));
            Some((opt_c, st))
        } else {
            None
        };

        let t = Instant::now();
        let tape_span = recorder.span("tape");
        let mut eng = match &optimized {
            Some((opt_c, st)) => Self::compile_inner(opt_c, Some(st))?,
            None => Self::compile_inner(c, None)?,
        };
        drop(tape_span);
        stages.push(("tape", t.elapsed().as_nanos() as u64));

        let opt_stats = if let Some((_, st)) = optimized {
            // Report size/depth/wires of the *source* circuit: the
            // engine's observable behavior is defined against it.
            eng.stats.circuit_size = c.size();
            eng.stats.circuit_depth = c.depth();
            eng.stats.circuit_wires = c.num_wires();
            eng.stats.opt = Some(st.clone());
            Some(st)
        } else {
            None
        };

        if recorder.is_enabled() {
            recorder.gauge_max("engine.peak_registers", eng.stats.peak_registers as u64);
            recorder.gauge_max("engine.tape_len", eng.stats.tape_len as u64);
        }
        drop(root);
        let report = PipelineReport {
            stages,
            total_ns: t_total.elapsed().as_nanos() as u64,
            opt: opt_stats,
            recorder,
        };
        Ok((eng, report))
    }

    /// Compiles a flat [`WordTape`](crate::tape::WordTape) — typically
    /// one loaded from disk — into the evaluation engine: the
    /// compile-once / load-and-evaluate-many path. The tape is decoded
    /// (recorded as a `tape.decode` span) and handed to
    /// [`CompiledCircuit::compile_with`]; a decoded tape is structurally
    /// identical to the circuit it was encoded from, so evaluation
    /// results — including failing-assert gate indices — match the
    /// in-process pipeline exactly.
    pub fn compile_tape_with(
        tape: &crate::tape::WordTape,
        opts: &CompileOptions,
    ) -> Result<(CompiledCircuit, PipelineReport), EvalError> {
        let recorder = opts.effective_recorder();
        let span = recorder.span("tape.decode");
        let c = tape.decode().map_err(EvalError::Tape)?;
        drop(span);
        Self::compile_with(&c, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Builder, Mode};

    fn sample() -> Circuit {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let y = b.input();
        let s = b.add(x, y);
        let z = b.constant(0);
        let s2 = b.add(s, z); // folds away
        let p = b.mul(s2, s2);
        b.finish(vec![p])
    }

    #[test]
    fn compile_with_matches_legacy_compile() {
        let c = sample();
        let (eng, report) =
            CompiledCircuit::compile_with(&c, &CompileOptions::sequential()).expect("evaluable");
        assert!(report.opt.is_some());
        assert!(report.total_ns > 0);
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[0].0, "optimize");
        assert_eq!(report.stages[1].0, "tape");
        let out = eng.evaluate(&[3, 4]).unwrap();
        assert_eq!(out, vec![49]);
    }

    #[test]
    fn raw_compile_skips_the_optimizer() {
        let c = sample();
        let opts = CompileOptions::sequential().with_optimize(false);
        let (eng, report) = CompiledCircuit::compile_with(&c, &opts).expect("evaluable");
        assert!(report.opt.is_none());
        assert_eq!(report.stage_ns("optimize"), 0);
        assert!(report.stage_ns("tape") > 0);
        assert_eq!(eng.evaluate(&[3, 4]).unwrap(), vec![49]);
    }

    #[test]
    fn collect_metrics_substitutes_an_enabled_recorder() {
        let c = sample();
        let opts = CompileOptions::sequential().with_metrics(true);
        assert!(!opts.recorder.is_enabled());
        let (_, report) = CompiledCircuit::compile_with(&c, &opts).expect("evaluable");
        assert!(report.recorder.is_enabled());
        assert!(report.recorder.span_total_ns("compile") > 0);
        assert!(report.recorder.span_total_ns("optimize") > 0);
        assert!(report.recorder.span_total_ns("tape") > 0);
        let doc = qec_obs::json::parse(&report.metrics_json()).expect("valid metrics JSON");
        assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_f64()),
            Some(f64::from(qec_obs::METRICS_SCHEMA_VERSION))
        );
    }

    #[test]
    fn count_only_circuits_are_rejected() {
        let mut b = Builder::new(Mode::Count);
        let x = b.input();
        let y = b.add(x, x);
        let c = b.finish(vec![y]);
        let err = CompiledCircuit::compile_with(&c, &CompileOptions::sequential());
        assert!(matches!(err, Err(EvalError::CountOnly)));
    }

    #[test]
    fn coverage_accounts_for_stage_time() {
        let c = sample();
        let (_, report) = CompiledCircuit::compile_with(&c, &CompileOptions::sequential()).unwrap();
        let cov = report.coverage();
        assert!((0.0..=1.0).contains(&cov), "coverage {cov} out of range");
    }
}
