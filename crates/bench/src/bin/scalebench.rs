//! Intra-module parallelism benchmark: one giant module, many cores.
//!
//! Where `pipelinebench` fans *many small modules* across workers, this
//! bench takes a single synthetic module in the million-op range
//! (deterministically regenerated by [`irdl_fuzz_lib::genscale`], never
//! stored) and gates the two intra-module fast paths:
//!
//! - **Parallel verification**: [`ModuleVerifier::verify_parallel`]
//!   against the sequential [`ModuleVerifier::verify`], paired per
//!   round, on both a wide (flat fan-out) and a deep (nested-region)
//!   module shape;
//! - **Chunked lexing**: [`lex_chunked`] against the whole-source
//!   [`lex`], on the printed text of the wide module.
//!
//! The required speedups scale with `available_parallelism()`: 2.0x
//! verification with >= 4 cores, a weaker floor on 2-3 cores, and on a
//! single core the parallel path still runs (with 2 workers) but is
//! gated only on its overhead — verification may not be more than 1.1x
//! slower than sequential, chunked lexing not more than 1.3x (its
//! boundary scan and token merge are pure overhead without a second
//! core).
//!
//! Correctness is enforced on every run, not sampled: an invalid giant
//! module must produce byte-identical diagnostics (order included) at
//! workers 1, 2, and 8; the chunked token stream must equal the whole
//! lex; and dialect compilation must happen exactly once, at setup.
//!
//! Results are written to `BENCH_scale.json` at the repository root.
//!
//! ```text
//! cargo run -p irdl-bench --bin scalebench --release [-- --quick]
//! ```
//!
//! [`ModuleVerifier::verify_parallel`]: irdl_ir::verify::ModuleVerifier::verify_parallel
//! [`ModuleVerifier::verify`]: irdl_ir::verify::ModuleVerifier::verify
//! [`lex_chunked`]: irdl_ir::lexer::lex_chunked
//! [`lex`]: irdl_ir::lexer::lex

use irdl_bench::measure::{cores, finish, paired, quick, report_header, timed, Pair};
use irdl_fuzz_lib::genscale::{generate_scale_module, scale_bundle, ScaleConfig, ScaleShape};
use irdl_ir::lexer::{lex, lex_chunked};
use irdl_ir::print::op_to_string;
use irdl_ir::verify::ModuleVerifier;
use irdl_ir::{Context, OpRef};

/// Full-budget op counts: the wide module is the headline ">= 10^6 ops"
/// input; the deep module is smaller because its per-op cost is higher
/// (every nesting level re-enters region verification).
const FULL_WIDE_OPS: usize = 1_050_000;
const FULL_DEEP_OPS: usize = 400_000;

/// Quick-mode op counts: big enough that `verify_parallel` takes the
/// parallel path with real chunk counts, small enough for CI smoke.
const QUICK_WIDE_OPS: usize = 150_000;
const QUICK_DEEP_OPS: usize = 60_000;

/// The invalid module used for the byte-identical-diagnostics gate.
const DIAG_OPS: usize = 50_000;
const DIAG_INVALID_EVERY: usize = 997;

// ---------------------------------------------------------------------------
// Floors
// ---------------------------------------------------------------------------

/// Verification speedup floor, scaled to the host. With >= 4 cores the
/// real 2.0x gate applies; 2-3 cores gate a weaker floor; on a single
/// core the parallel machinery still runs (2 workers on 1 core) and the
/// gate is an overhead bound: parallel may be at most 1.1x slower than
/// sequential, i.e. a paired speedup of at least 1/1.1.
fn required_verify_speedup(cores: usize) -> f64 {
    match cores {
        0 | 1 => 1.0 / 1.1,
        2 | 3 => 1.2,
        _ => 2.0,
    }
}

/// Chunked-lex speedup floor. Lexing amortizes worse than verification:
/// the boundary scan is an extra sequential pass over the source and the
/// merge copies every token vector, costs that only parallel lexing pays
/// — so the multi-core floors are lower and the single-core overhead
/// bound is looser (1.3x, measured ~1.2x) than verification's 1.1x.
fn required_lex_speedup(cores: usize) -> f64 {
    match cores {
        0 | 1 => 1.0 / 1.3,
        2 | 3 => 1.1,
        _ => 1.5,
    }
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Sequential vs parallel verification, paired per round, after one
/// warm-up pass per side (first touch faults in the arenas).
fn paired_verify(ctx: &Context, module: OpRef, workers: usize, rounds: usize) -> Pair {
    ModuleVerifier::new().verify(ctx, module).expect("scale module verifies");
    ModuleVerifier::new()
        .verify_parallel(ctx, module, workers)
        .expect("scale module verifies in parallel");
    paired(
        rounds,
        || {
            let (verdict, secs) = timed(|| ModuleVerifier::new().verify(ctx, module));
            verdict.expect("sequential verify accepts");
            secs
        },
        || {
            let (verdict, secs) =
                timed(|| ModuleVerifier::new().verify_parallel(ctx, module, workers));
            verdict.expect("parallel verify accepts");
            secs
        },
    )
}

/// Whole vs chunked lexing, paired per round, after checking once that the
/// chunked token stream equals the whole lex.
fn paired_lex(source: &str, workers: usize, rounds: usize) -> Pair {
    let whole = lex(source).expect("scale module text lexes");
    assert_eq!(
        lex_chunked(source, workers).expect("chunked lex succeeds"),
        whole,
        "chunked token stream must equal the whole lex"
    );
    let tokens = whole.len();
    drop(whole);
    paired(
        rounds,
        || {
            let (lexed, secs) = timed(|| lex(source).expect("lex"));
            assert_eq!(lexed.len(), tokens);
            secs
        },
        || {
            let (lexed, secs) = timed(|| lex_chunked(source, workers).expect("chunked lex"));
            assert_eq!(lexed.len(), tokens);
            secs
        },
    )
}

/// Renders a verification outcome to a canonical string so sequential
/// and parallel runs can be compared byte-for-byte, order included.
fn render_verdict(outcome: &Result<(), Vec<irdl_ir::Diagnostic>>) -> String {
    match outcome {
        Ok(()) => "ok".to_string(),
        Err(diags) => {
            diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
        }
    }
}

/// Gate: an invalid giant module produces byte-identical diagnostics at
/// workers 1, 2, and 8. Returns the diagnostic count and the first worker
/// count whose diagnostics diverge, if any.
fn check_diag_identity(ctx: &Context, module: OpRef) -> (usize, Option<usize>) {
    let sequential = ModuleVerifier::new().verify(ctx, module);
    let baseline = render_verdict(&sequential);
    let count = sequential.as_ref().map_or_else(Vec::len, |()| 0);
    assert!(count > 0, "the diagnostics module must actually be invalid");
    let diverging = [1, 2, 8].into_iter().find(|&workers| {
        render_verdict(&ModuleVerifier::new().verify_parallel(ctx, module, workers)) != baseline
    });
    (count, diverging)
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Summary {
    workers: usize,
    wide_ops: usize,
    deep_ops: usize,
    wide: Pair,
    deep: Pair,
    lex_bytes: usize,
    lex: Pair,
    required_verify: f64,
    required_lex: f64,
    diags_identical: bool,
    diag_count: usize,
    compiles_setup: u64,
    compiles_measured: u64,
}

fn report_json(s: &Summary) -> String {
    let mut out = report_header(
        "intra-module parallelism: giant-module verify + chunked lex",
        "scalebench",
    );
    out.push_str(&format!("  \"workers\": {},\n", s.workers));
    out.push_str(&format!(
        "  \"required_verify_speedup\": {:.3},\n  \"required_verify_speedup_note\": \
         \"2.0 with >= 4 cores, 1.2 on 2-3; on 1 core the parallel path still runs \
         (2 workers) and is gated on overhead only: at most 1.1x slower than \
         sequential, i.e. a paired speedup of at least 0.909\",\n",
        s.required_verify
    ));
    out.push_str(&format!(
        "  \"required_lex_speedup\": {:.3},\n  \"required_lex_speedup_note\": \
         \"1.5 with >= 4 cores, 1.1 on 2-3; on 1 core the bound is 1.3x overhead \
         (paired speedup >= 0.769) — the boundary scan and token merge are costs \
         only the chunked path pays, and with no second core nothing offsets them\",\n",
        s.required_lex
    ));
    let section = |name: &str, ops: usize, pair: &Pair| {
        format!(
            "  \"{name}\": {{ \"ops\": {ops}, \"speedup\": {:.3}, \
             \"sequential_mops_per_sec\": {:.2}, \"parallel_mops_per_sec\": {:.2} }},\n",
            pair.ratio,
            ops as f64 / pair.a_best / 1.0e6,
            ops as f64 / pair.b_best / 1.0e6,
        )
    };
    out.push_str(&section("verify_wide", s.wide_ops, &s.wide));
    out.push_str(&section("verify_deep", s.deep_ops, &s.deep));
    out.push_str(&format!(
        "  \"lex_chunked\": {{ \"source_bytes\": {}, \"speedup\": {:.3}, \
         \"sequential_mb_per_sec\": {:.1}, \"parallel_mb_per_sec\": {:.1} }},\n",
        s.lex_bytes,
        s.lex.ratio,
        s.lex_bytes as f64 / s.lex.a_best / 1.0e6,
        s.lex_bytes as f64 / s.lex.b_best / 1.0e6,
    ));
    out.push_str(&format!(
        "  \"diagnostics_identical\": {{ \"workers_checked\": [1, 2, 8], \
         \"diagnostics\": {}, \"identical\": {} }},\n",
        s.diag_count, s.diags_identical
    ));
    out.push_str(&format!(
        "  \"dialect_compiles\": {{ \"setup\": {}, \"during_measurement\": {} }}\n",
        s.compiles_setup, s.compiles_measured
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let quick = quick();
    let rounds = if quick { 2 } else { 5 };
    let (wide_ops, deep_ops) =
        if quick { (QUICK_WIDE_OPS, QUICK_DEEP_OPS) } else { (FULL_WIDE_OPS, FULL_DEEP_OPS) };

    let cores = cores();
    // On a 1-core host the parallel path must still run to measure its
    // overhead, so the worker pool never drops below 2.
    let workers = cores.max(2);

    let bundle = scale_bundle().expect("scale dialect compiles");

    eprintln!("generating: wide {wide_ops} ops, deep {deep_ops} ops, diag {DIAG_OPS} ops");
    let mut wide_ctx = bundle.instantiate();
    let (wide_module, wide_total) =
        generate_scale_module(&mut wide_ctx, &ScaleConfig::valid(wide_ops, ScaleShape::Wide));
    let mut deep_ctx = bundle.instantiate();
    let (deep_module, deep_total) =
        generate_scale_module(&mut deep_ctx, &ScaleConfig::valid(deep_ops, ScaleShape::Deep));
    let mut diag_ctx = bundle.instantiate();
    let (diag_module, _) = generate_scale_module(
        &mut diag_ctx,
        &ScaleConfig {
            ops: DIAG_OPS,
            shape: ScaleShape::Wide,
            invalid_every: Some(DIAG_INVALID_EVERY),
        },
    );
    let wide_text = op_to_string(&wide_ctx, wide_module);

    // Everything above this line is setup; from here on, nothing may
    // recompile a dialect.
    let compiles_setup = irdl::dialect_compile_count();

    let (diag_count, diverging) = check_diag_identity(&diag_ctx, diag_module);
    let diags_identical = diverging.is_none();
    eprintln!("diagnostics: {diag_count} errors, byte-identical at workers 1/2/8: {diags_identical}");

    let wide = paired_verify(&wide_ctx, wide_module, workers, rounds);
    eprintln!(
        "verify wide: {wide_total} ops, seq {:.2} Mops/s, {workers}-worker {:.2} Mops/s ({:.2}x paired)",
        wide_total as f64 / wide.a_best / 1.0e6,
        wide_total as f64 / wide.b_best / 1.0e6,
        wide.ratio,
    );
    let deep = paired_verify(&deep_ctx, deep_module, workers, rounds);
    eprintln!(
        "verify deep: {deep_total} ops, seq {:.2} Mops/s, {workers}-worker {:.2} Mops/s ({:.2}x paired)",
        deep_total as f64 / deep.a_best / 1.0e6,
        deep_total as f64 / deep.b_best / 1.0e6,
        deep.ratio,
    );
    let lex_pair = paired_lex(&wide_text, workers, rounds);
    eprintln!(
        "lex chunked: {} MB, seq {:.1} MB/s, {workers}-worker {:.1} MB/s ({:.2}x paired)",
        wide_text.len() / (1 << 20),
        wide_text.len() as f64 / lex_pair.a_best / 1.0e6,
        wide_text.len() as f64 / lex_pair.b_best / 1.0e6,
        lex_pair.ratio,
    );

    let compiles_measured = irdl::dialect_compile_count() - compiles_setup;
    let required_verify = required_verify_speedup(cores);
    let required_lex = required_lex_speedup(cores);

    let summary = Summary {
        workers,
        wide_ops: wide_total,
        deep_ops: deep_total,
        wide,
        deep,
        lex_bytes: wide_text.len(),
        lex: lex_pair,
        required_verify,
        required_lex,
        diags_identical,
        diag_count,
        compiles_setup,
        compiles_measured,
    };
    let mut failures = Vec::new();
    if let Some(workers) = diverging {
        failures.push(format!(
            "parallel diagnostics at workers={workers} are not byte-identical to sequential"
        ));
    }
    if compiles_measured != 0 {
        failures.push(format!(
            "{compiles_measured} dialect compilation(s) during measurement; \
             setup must compile everything"
        ));
    }
    for (name, pair, floor) in [
        ("verify_wide", &summary.wide, required_verify),
        ("verify_deep", &summary.deep, required_verify),
        ("lex_chunked", &summary.lex, required_lex),
    ] {
        if pair.ratio < floor {
            failures.push(format!(
                "{name} speedup {:.3}x is below the required {floor:.3}x ({cores} core(s))",
                pair.ratio
            ));
        }
    }
    finish("scale", &report_json(&summary), &failures);
}
