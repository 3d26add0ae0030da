//! Pattern-match dispatch benchmark: shared matcher automaton vs
//! per-pattern scan.
//!
//! The workload is the catalog shape root indexing cannot help with: `K`
//! declarative patterns all rooted at the same `pat.root` symbol,
//! discriminated only by the defining op of the root's first operand (see
//! `irdl_fuzz_lib::genpat`). The per-pattern scan must attempt all `K`
//! patterns on every `pat.root` it visits; the automaton resolves the
//! same question with one def-switch lookup. Measured catalog sizes:
//! {1, 32, 128, 512}.
//!
//! Per size, the timed module contains only *cold* roots (fed straight by
//! `pat.src`, so no pattern fires): a drive to fixpoint is then pure
//! match cost, and per-op cost is `drive_secs / ops`. The timing is
//! paired — each round runs scan then automaton back-to-back and the best
//! round wins — so load spikes degrade both sides instead of skewing the
//! ratio.
//!
//! Three properties are enforced on every run:
//!
//! - **gate**: at the 512-pattern catalog, automaton match throughput is
//!   at least 5x the scan's;
//! - **differential**: at *every* measured size, a mixed hot/cold module
//!   driven in both modes applies the same rewrites and prints
//!   byte-identical output;
//! - **compile-once**: matcher compilation happens at seal time only —
//!   zero compilations during measurement.
//!
//! A report-only section drives fuzz-generated corpus modules with the
//! canonicalization catalog auto-derived from the 28-dialect corpus, as a
//! realistic (root-diverse) counterpoint to the adversarial synthetic
//! shape.
//!
//! Results are written to `BENCH_matcher.json` at the repository root.
//!
//! ```text
//! cargo run -p irdl-bench --bin matcherbench --release [-- --quick]
//! ```

use std::fmt::Write as _;

use irdl::DialectBundle;
use irdl_bench::measure::{finish, paired, quick, report_header, timed};
use irdl_fuzz_lib::{
    derive_canon_catalog, generate_module, pat_dialect_spec, synthetic_catalog, GenConfig,
    OpCatalog, SplitMix64,
};
use irdl_ir::print::op_to_string;
use irdl_ir::Context;
use irdl_rewrite::{
    matcher_compile_count, parse_patterns, rewrite_greedily_matched, CheckLevel, MatcherMode,
    PatternSet,
};

/// Measured catalog sizes. The last one carries the throughput gate.
const SIZES: [usize; 4] = [1, 32, 128, 512];

/// Cold (never-matching) root ops in each timed module.
const COLD_OPS: usize = 256;

/// Hot (firing) roots in each differential module; capped by the catalog
/// size so every size stays exact.
const HOT_OPS: usize = 8;

/// Required automaton-vs-scan match-throughput ratio at the largest size.
const REQUIRED_SPEEDUP: f64 = 5.0;

/// Fuzz-generated corpus modules in the report-only section.
const CORPUS_MODULES: usize = 64;

/// A module of `cold` roots fed straight by the source (no pattern
/// matches them), plus `hot` roots each fed by a distinct unary op
/// (pattern `k` of the synthetic catalog fires on hot root `k`).
fn pat_module(cold: usize, hot: usize) -> String {
    let mut text = String::from("%s = \"pat.src\"() : () -> i32\n");
    for i in 0..cold {
        let _ = writeln!(text, "%c{i} = \"pat.root\"(%s, %s) : (i32, i32) -> i32");
    }
    for k in 0..hot {
        let _ = writeln!(text, "%u{k} = \"pat.u{k}\"(%s) : (i32) -> i32");
        let _ = writeln!(text, "%h{k} = \"pat.root\"(%u{k}, %s) : (i32, i32) -> i32");
    }
    text
}

/// Parses `text` in a fresh instance and drives it to a fixpoint in
/// `mode`; returns (drive seconds, rewrites, printed output).
fn drive(
    bundle: &DialectBundle,
    patterns: &PatternSet,
    text: &str,
    mode: MatcherMode,
) -> (f64, usize, String) {
    let mut ctx = bundle.instantiate();
    let module = irdl_ir::parse::parse_module(&mut ctx, text).expect("bench module parses");
    let (stats, secs) =
        timed(|| rewrite_greedily_matched(&mut ctx, module, patterns, CheckLevel::Off, mode));
    let stats = stats.expect("unchecked drive cannot fail");
    (secs, stats.rewrites, op_to_string(&ctx, module))
}

struct SizeResult {
    patterns: usize,
    scan_ns_per_op: f64,
    auto_ns_per_op: f64,
    speedup: f64,
    rewrites: usize,
    outputs_identical: bool,
}

fn measure_size(size: usize, rounds: usize) -> SizeResult {
    let bundle = DialectBundle::compile(
        &[("pat".to_string(), pat_dialect_spec(size))],
        &irdl::NativeRegistry::new(),
    )
    .expect("pat dialect compiles");
    let mut ctx = bundle.instantiate();
    let patterns = parse_patterns(&mut ctx, &synthetic_catalog(size)).expect("catalog parses");
    drop(ctx);
    patterns.seal();

    // Differential: a mixed module must drive identically in both modes,
    // with exactly one rewrite per hot root.
    let hot = HOT_OPS.min(size);
    let mixed = pat_module(COLD_OPS, hot);
    let (_, scan_rewrites, scan_out) = drive(&bundle, &patterns, &mixed, MatcherMode::Scan);
    let (_, auto_rewrites, auto_out) = drive(&bundle, &patterns, &mixed, MatcherMode::Auto);
    let outputs_identical = scan_out == auto_out && scan_rewrites == auto_rewrites;
    assert_eq!(scan_rewrites, hot, "every hot root fires exactly once");

    // Timed: cold-only module, paired rounds, best round wins.
    let cold = pat_module(COLD_OPS, 0);
    let cold_drive = |mode| {
        let (secs, rewrites, _) = drive(&bundle, &patterns, &cold, mode);
        assert_eq!(rewrites, 0, "cold module must not rewrite");
        secs
    };
    let pair = paired(rounds, || cold_drive(MatcherMode::Scan), || cold_drive(MatcherMode::Auto));

    SizeResult {
        patterns: size,
        scan_ns_per_op: pair.a_best * 1e9 / COLD_OPS as f64,
        auto_ns_per_op: pair.b_best * 1e9 / COLD_OPS as f64,
        speedup: pair.ratio,
        rewrites: scan_rewrites,
        outputs_identical,
    }
}

struct CorpusResult {
    derived_patterns: usize,
    modules: usize,
    scan_ms: f64,
    auto_ms: f64,
    speedup: f64,
    outputs_identical: bool,
}

/// Report-only: the auto-derived corpus canonicalization catalog over
/// fuzz-generated corpus modules. Root-diverse, so plain root indexing
/// already discriminates well — the realistic counterpoint.
fn measure_corpus(rounds: usize) -> CorpusResult {
    let bundle = DialectBundle::compile(
        &irdl_dialects::corpus_sources(),
        &irdl_dialects::corpus_natives(),
    )
    .expect("corpus compiles");
    let catalog = OpCatalog::from_ops(bundle.ops());
    let mut ctx: Context = bundle.instantiate();
    let (canon_text, derived) = derive_canon_catalog(&ctx, &catalog);
    let patterns = parse_patterns(&mut ctx, &canon_text).expect("canon catalog parses");
    drop(ctx);
    patterns.seal();

    let mut rng = SplitMix64::new(0xC0FFEE);
    let config = GenConfig::default();
    let texts: Vec<String> = (0..CORPUS_MODULES)
        .map(|_| {
            let mut ctx = bundle.instantiate();
            let module = generate_module(&mut ctx, &catalog, &config, &mut rng);
            op_to_string(&ctx, module)
        })
        .collect();

    // Each side times its whole batch, setup included, and keeps every
    // round's results for the differential check.
    let run = |mode: MatcherMode, rounds_out: &mut Vec<Vec<(usize, String)>>| {
        let (results, secs) = timed(|| {
            texts
                .iter()
                .map(|t| {
                    let (_, r, out) = drive(&bundle, &patterns, t, mode);
                    (r, out)
                })
                .collect()
        });
        rounds_out.push(results);
        secs
    };
    let (mut scan_results, mut auto_results) = (Vec::new(), Vec::new());
    let pair = paired(
        rounds,
        || run(MatcherMode::Scan, &mut scan_results),
        || run(MatcherMode::Auto, &mut auto_results),
    );

    CorpusResult {
        derived_patterns: derived,
        modules: CORPUS_MODULES,
        scan_ms: pair.a_best * 1e3,
        auto_ms: pair.b_best * 1e3,
        speedup: pair.ratio,
        outputs_identical: scan_results == auto_results,
    }
}

fn report_json(sizes: &[SizeResult], corpus: &CorpusResult, compiles_measured: u64) -> String {
    let mut out = report_header(
        "pattern dispatch: shared matcher automaton vs per-pattern scan",
        "matcherbench",
    );
    out.push_str(&format!("  \"ops_per_module\": {COLD_OPS},\n"));
    out.push_str(&format!("  \"required_speedup_at_largest\": {REQUIRED_SPEEDUP:.1},\n"));
    out.push_str(&format!(
        "  \"required_speedup_note\": \"gated at the {}-pattern single-root catalog, \
         the shape root indexing cannot discriminate; smaller sizes are informational\",\n",
        SIZES[SIZES.len() - 1]
    ));
    out.push_str(&format!("  \"matcher_compiles_during_measurement\": {compiles_measured},\n"));
    out.push_str("  \"sizes\": [\n");
    for (i, s) in sizes.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"patterns\": {}, \"scan_ns_per_op\": {:.1}, \"auto_ns_per_op\": {:.1}, \
             \"speedup\": {:.2}, \"differential_rewrites\": {}, \"outputs_identical\": {} }}{}\n",
            s.patterns,
            s.scan_ns_per_op,
            s.auto_ns_per_op,
            s.speedup,
            s.rewrites,
            s.outputs_identical,
            if i + 1 == sizes.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"corpus_canon\": {{ \"derived_patterns\": {}, \"modules\": {}, \
         \"scan_ms\": {:.2}, \"auto_ms\": {:.2}, \"speedup\": {:.2}, \
         \"outputs_identical\": {}, \"gated\": false }}\n",
        corpus.derived_patterns,
        corpus.modules,
        corpus.scan_ms,
        corpus.auto_ms,
        corpus.speedup,
        corpus.outputs_identical,
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let rounds = if quick() { 3 } else { 7 };

    let mut results = Vec::new();
    for size in SIZES {
        // Setup (dialect + catalog + matcher compilation) happens inside
        // measure_size before its timed rounds; the global compile-once
        // check below therefore brackets only the timed drives of the
        // *last* size plus the corpus section — so track per-size instead:
        // seal() compiles the matcher, and the timed rounds must not.
        let before = matcher_compile_count();
        let result = measure_size(size, rounds);
        let compiled = matcher_compile_count() - before;
        assert_eq!(
            compiled, 1,
            "size {size}: exactly one matcher compilation (at seal), got {compiled}"
        );
        eprintln!(
            "catalog {size:>4}: scan {:>8.1} ns/op, automaton {:>7.1} ns/op, {:.2}x \
             ({} differential rewrites, outputs identical: {})",
            result.scan_ns_per_op,
            result.auto_ns_per_op,
            result.speedup,
            result.rewrites,
            result.outputs_identical,
        );
        results.push(result);
    }

    let before_corpus = matcher_compile_count();
    let corpus = measure_corpus(rounds.min(3));
    let corpus_compiled = matcher_compile_count() - before_corpus;
    assert_eq!(corpus_compiled, 1, "corpus canon catalog compiles its matcher exactly once");
    eprintln!(
        "corpus canon (report-only): {} derived patterns, {} modules, scan {:.2} ms, \
         automaton {:.2} ms, {:.2}x",
        corpus.derived_patterns, corpus.modules, corpus.scan_ms, corpus.auto_ms, corpus.speedup,
    );

    let mut failures = Vec::new();
    for s in results.iter().filter(|s| !s.outputs_identical) {
        failures.push(format!(
            "catalog {}: scan and automaton drives diverge (this is a \
             correctness bug, not a performance miss)",
            s.patterns
        ));
    }
    if !corpus.outputs_identical {
        failures.push("corpus canon drive diverges between scan and automaton".to_string());
    }
    let gated = results.last().expect("at least one size");
    if gated.speedup < REQUIRED_SPEEDUP {
        failures.push(format!(
            "{}-pattern speedup {:.2}x is below the required {REQUIRED_SPEEDUP:.1}x",
            gated.patterns, gated.speedup
        ));
    }
    finish("matcher", &report_json(&results, &corpus, 0), &failures);
}
