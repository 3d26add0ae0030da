//! Multi-core batch-pipeline throughput benchmark.
//!
//! Compiles the 28-dialect evaluation corpus into one shared
//! [`DialectBundle`], generates one module text per instantiable corpus
//! operation (each holding several instances of the op), and runs the
//! whole corpus through the batch pipeline — parse → verify → print per
//! module — once sequentially (`jobs = 1`) and once fanned out across
//! worker threads (`jobs = 4`).
//!
//! The gated quantity is the *paired* speedup: in each round the
//! sequential and parallel batches run back-to-back, so a load spike
//! degrades both sides instead of skewing their ratio, and the best round
//! wins (scheduling noise only ever slows a round down). One pass over the
//! corpus takes a few hundredths of a second, too short for a ratio to
//! settle, so each side of a round repeats the pass until it has run for
//! at least [`MIN_SIDE_SECS`] ([`QUICK_MIN_SIDE_SECS`] with `--quick`)
//! and reports seconds per pass. The required
//! speedup scales with the machine: 2.5x where at least 4 cores are
//! available, a weaker floor on smaller hosts where a 4-worker pool cannot
//! physically reach 2.5x.
//!
//! Two more properties are enforced on every run:
//!
//! - dialect compilation happens exactly once, at setup — instantiating
//!   worker contexts from the bundle must not recompile anything;
//! - the parallel batch's outputs are byte-identical to the sequential
//!   batch's, in input order.
//!
//! Results are written to `BENCH_pipeline.json` at the repository root.
//!
//! ```text
//! cargo run -p irdl-bench --bin pipelinebench --release [-- --quick]
//! ```

use irdl::genir::{instantiate_op, Instantiation};
use irdl::DialectBundle;
use irdl_bench::measure::{cores, finish, paired, quick, report_header, timed};
use irdl_ir::print::op_to_string;
use irdl_rewrite::pipeline::{run_batch, PipelineOptions, PipelineReport};
use irdl_rewrite::PatternSet;

/// Worker count for the parallel side (the gated configuration).
const JOBS: usize = 4;

/// Instances of each operation per generated module, so per-module work
/// dominates per-module bookkeeping.
const OPS_PER_MODULE: usize = 8;

/// Seconds each side of a full-mode round runs for, at least.
const MIN_SIDE_SECS: f64 = 2.0;

/// Seconds each side of a `--quick` round runs for, at least: a single
/// pass per side let one slow pass decide the ratio.
const QUICK_MIN_SIDE_SECS: f64 = 0.5;

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// One module text per instantiable corpus operation, each containing
/// [`OPS_PER_MODULE`] generated instances of that operation.
fn corpus_inputs(bundle: &DialectBundle) -> Vec<String> {
    let mut ctx = bundle.instantiate();
    let natives = irdl_dialects::corpus_natives();
    let mut texts = Vec::new();
    for (dialect_name, source) in irdl_dialects::corpus_sources() {
        let file = irdl::parse_irdl(&source).expect("corpus parses");
        for dialect in &file.dialects {
            // Recompile in a scratch context clone only to recover the
            // structured per-op artifacts; the bundle used for the timed
            // runs is untouched.
            let (_, compiled) = irdl::compile_dialect(&mut ctx, dialect, &natives)
                .unwrap_or_else(|e| panic!("{dialect_name} compiles: {e}"));
            for op in compiled {
                let module = ctx.create_module();
                let block = ctx.module_block(module);
                let mut built = 0;
                // Terminators must be last in their block, so they get one
                // instance per module; everything else is stacked.
                let mut target = OPS_PER_MODULE;
                while built < target {
                    match instantiate_op(&mut ctx, &op, block) {
                        Instantiation::Built(instance) => {
                            built += 1;
                            if ctx.is_terminator(instance) {
                                target = 1;
                            }
                        }
                        // CFG terminators need successor context; skip, as
                        // the corpus generation test does.
                        Instantiation::Skipped(_) => break,
                    }
                }
                if built == target {
                    texts.push(op_to_string(&ctx, module));
                }
                ctx.erase_op(module);
            }
        }
    }
    texts
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// One timed batch run at `jobs` workers; returns its seconds and report.
fn timed_batch(
    bundle: &DialectBundle,
    patterns: &PatternSet,
    inputs: &[String],
    jobs: usize,
) -> (f64, PipelineReport) {
    let opts = PipelineOptions { jobs, verify: true, ..Default::default() };
    let (report, secs) = timed(|| run_batch(bundle, patterns, inputs, &opts));
    assert_eq!(report.errors(), 0, "every corpus module must pipeline cleanly");
    (secs, report)
}

/// Repeats [`timed_batch`] until the passes have run for at least
/// `min_secs`; returns the mean seconds per pass and the last pass's
/// report.
fn timed_batches(
    bundle: &DialectBundle,
    patterns: &PatternSet,
    inputs: &[String],
    jobs: usize,
    min_secs: f64,
) -> (f64, PipelineReport) {
    let mut total = 0.0;
    let mut passes = 0;
    loop {
        let (secs, report) = timed_batch(bundle, patterns, inputs, jobs);
        total += secs;
        passes += 1;
        if total >= min_secs {
            return (total / passes as f64, report);
        }
    }
}

/// The speedup floor, scaled to what the host can physically deliver with
/// a 4-worker pool. CI (>= 4 cores) enforces the real 2.5x gate; smaller
/// hosts still gate against gross regressions (and a single-core host
/// merely bounds the parallel overhead).
fn required_speedup(cores: usize) -> f64 {
    match cores {
        0 | 1 => 0.7,
        2 | 3 => 1.3,
        _ => 2.5,
    }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// Everything the JSON report (and the gates) need from the measured runs.
struct Summary {
    modules: usize,
    min_secs: f64,
    required: f64,
    speedup: f64,
    seq_best: f64,
    par_best: f64,
    compiles_setup: u64,
    compiles_measured: u64,
    outputs_identical: bool,
}

fn report_json(s: &Summary, last_parallel: &PipelineReport) -> String {
    let Summary {
        modules,
        min_secs,
        required,
        speedup,
        seq_best,
        par_best,
        compiles_setup,
        compiles_measured,
        outputs_identical,
    } = *s;
    let mut out =
        report_header("batch pipeline: shared dialect bundle across cores", "pipelinebench");
    out.push_str(&format!("  \"jobs\": {JOBS},\n"));
    out.push_str(&format!(
        "  \"required_speedup\": {required:.2},\n  \"required_speedup_note\": \
         \"2.5 with >= 4 cores, 1.3 on 2-3 cores; on 1 core no speedup is \
         physically possible, so the gate is an overhead bound: the 4-worker \
         pool may cost at most ~1.4x sequential time (paired speedup >= 0.7)\",\n"
    ));
    out.push_str(&format!("  \"modules\": {modules},\n"));
    out.push_str(&format!("  \"min_seconds_per_side\": {min_secs:.1},\n"));
    out.push_str(&format!("  \"speedup\": {speedup:.2},\n"));
    out.push_str(&format!(
        "  \"sequential_modules_per_sec\": {:.1},\n",
        modules as f64 / seq_best
    ));
    out.push_str(&format!(
        "  \"parallel_modules_per_sec\": {:.1},\n",
        modules as f64 / par_best
    ));
    out.push_str(&format!(
        "  \"dialect_compiles\": {{ \"setup\": {compiles_setup}, \"during_measurement\": {compiles_measured} }},\n"
    ));
    out.push_str(&format!("  \"outputs_identical_to_sequential\": {outputs_identical},\n"));
    out.push_str("  \"workers\": [\n");
    for (i, w) in last_parallel.workers.iter().enumerate() {
        let total = w.verdict_hits + w.verdict_misses;
        let rate = if total == 0 { 0.0 } else { w.verdict_hits as f64 / total as f64 };
        out.push_str(&format!(
            "    {{ \"modules\": {}, \"verdict_hits\": {}, \"verdict_misses\": {}, \
             \"hit_rate\": {:.3} }}{}\n",
            w.modules,
            w.verdict_hits,
            w.verdict_misses,
            rate,
            if i + 1 == last_parallel.workers.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let (rounds, min_secs) = if quick() { (2, QUICK_MIN_SIDE_SECS) } else { (5, MIN_SIDE_SECS) };

    let natives = irdl_dialects::corpus_natives();
    let sources = irdl_dialects::corpus_sources();
    let bundle = DialectBundle::compile(&sources, &natives).expect("corpus compiles");

    let candidates = corpus_inputs(&bundle);
    let patterns = PatternSet::new();

    // Probe pass: a few generated ops carry nested regions whose
    // synthesized terminators do not satisfy the full recursive module
    // verifier (a genir limitation, not a pipeline one). Drop them up
    // front — and say so, rather than silently shrinking the corpus.
    let probe_opts = PipelineOptions { jobs: 1, verify: true, ..Default::default() };
    let probe = run_batch(&bundle, &patterns, &candidates, &probe_opts);
    let inputs: Vec<String> = candidates
        .into_iter()
        .zip(&probe.results)
        .filter_map(|(text, result)| result.is_ok().then_some(text))
        .collect();
    if probe.errors() > 0 {
        eprintln!(
            "note: dropped {} generated module(s) that fail recursive verification",
            probe.errors()
        );
    }
    assert!(inputs.len() >= 100, "corpus should yield a real batch, got {}", inputs.len());

    // Everything above this line is setup; from here on, instantiating
    // contexts must never recompile a dialect.
    let compiles_setup = irdl::dialect_compile_count();

    // Warm-up: one sequential pass (also the output baseline) and one
    // parallel pass.
    let (_, baseline) = timed_batch(&bundle, &patterns, &inputs, 1);
    let (_, warm_par) = timed_batch(&bundle, &patterns, &inputs, JOBS);
    let outputs_identical = baseline
        .results
        .iter()
        .zip(&warm_par.results)
        .all(|(s, p)| match (s, p) {
            (Ok(s), Ok(p)) => s.output == p.output,
            _ => false,
        });
    assert!(outputs_identical, "parallel outputs must be byte-identical and input-ordered");

    let mut last_parallel = warm_par;
    let pair = paired(
        rounds,
        || timed_batches(&bundle, &patterns, &inputs, 1, min_secs).0,
        || {
            let (secs, report) = timed_batches(&bundle, &patterns, &inputs, JOBS, min_secs);
            last_parallel = report;
            secs
        },
    );
    let (speedup, seq_best, par_best) = (pair.ratio, pair.a_best, pair.b_best);

    let compiles_measured = irdl::dialect_compile_count() - compiles_setup;
    let cores = cores();
    let required = required_speedup(cores);

    let summary = Summary {
        modules: inputs.len(),
        min_secs,
        required,
        speedup,
        seq_best,
        par_best,
        compiles_setup,
        compiles_measured,
        outputs_identical,
    };
    eprintln!(
        "pipeline: {} modules, seq {:.1} modules/s, {JOBS}-worker {:.1} modules/s \
         ({speedup:.2}x paired, {cores} core(s), floor {required:.2}x)",
        inputs.len(),
        inputs.len() as f64 / seq_best,
        inputs.len() as f64 / par_best,
    );
    for (i, w) in last_parallel.workers.iter().enumerate() {
        let total = w.verdict_hits + w.verdict_misses;
        let rate = if total == 0 { 0.0 } else { 100.0 * w.verdict_hits as f64 / total as f64 };
        eprintln!(
            "worker {i}: {} modules, verdict cache {}/{} hits ({rate:.1}%)",
            w.modules, w.verdict_hits, total,
        );
    }

    let mut failures = Vec::new();
    if compiles_measured != 0 {
        failures.push(format!(
            "{compiles_measured} dialect compilation(s) during measurement; \
             the bundle must compile everything exactly once at setup"
        ));
    }
    if speedup < required {
        failures.push(format!("speedup {speedup:.2}x is below the required {required:.2}x"));
    }
    finish("pipeline", &report_json(&summary, &last_parallel), &failures);
}
