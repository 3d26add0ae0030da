//! The batch pipeline: independent modules fanned out across cores.
//!
//! One [`DialectBundle`] (compiled exactly once) plus one shared
//! [`PatternSet`] drive N workers over a corpus of module sources. Each
//! worker owns a private [`Context`] instantiated from the bundle — so
//! interning, IR arenas, the verdict cache, and evaluation scratch are
//! thread-local with no synchronization on any hot path — while all
//! compiled artifacts (verifier programs, format specs, native hooks,
//! patterns) are `Arc`-shared.
//!
//! Scheduling is a single atomic work index: workers claim the next
//! unprocessed module until the corpus is exhausted, which load-balances
//! uneven module sizes without a queue. Results are collected per worker
//! and merged back into *input order*, so the output of a parallel run is
//! byte-identical to the sequential one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use irdl::DialectBundle;
use irdl_ir::print::Printer;
use irdl_ir::verify::ModuleVerifier;
use irdl_ir::{Context, OpRef};

use crate::driver::{rewrite_greedily_matched, CheckLevel, MatcherMode};
use crate::pattern::PatternSet;

/// Configuration for one batch run.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Number of worker threads (clamped to at least 1). `1` runs inline
    /// on the calling thread — the sequential baseline.
    pub jobs: usize,
    /// Verify each module after parsing (and again after rewriting, when
    /// patterns are present and `check` is [`CheckLevel::Off`]).
    pub verify: bool,
    /// Interleave verification with rewriting: at
    /// [`CheckLevel::Incremental`] or [`CheckLevel::Full`] every
    /// intermediate state is checked and the first invalid one fails the
    /// module (making the separate post-rewrite verify redundant — it is
    /// skipped). [`CheckLevel::Off`] keeps the fast
    /// rewrite-then-verify-once behaviour.
    pub check: CheckLevel,
    /// Candidate dispatch mode for the rewrite driver. [`MatcherMode::Auto`]
    /// compiles the catalog into the shared matcher automaton (sealed once
    /// before the workers spawn); [`MatcherMode::Scan`] keeps the
    /// per-pattern scan.
    pub matcher: MatcherMode,
    /// Print results in the generic form.
    pub generic: bool,
    /// Threads used *inside* one module (clamped to at least 1): chunked
    /// lexing of text inputs and parallel verification. Orthogonal to
    /// `jobs`, which fans out *across* modules — a giant single module
    /// gains nothing from `jobs` but scales with `intra_jobs`. Both paths
    /// are byte-identical to their sequential counterparts and fall back
    /// to them on small modules, so `intra_jobs > 1` is always safe.
    pub intra_jobs: usize,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            jobs: 1,
            verify: true,
            check: CheckLevel::Off,
            matcher: MatcherMode::Auto,
            generic: false,
            intra_jobs: 1,
        }
    }
}

/// Per-stage wall-clock nanoseconds for one module.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageNanos {
    /// Time parsing the module source.
    pub parse: u64,
    /// Time in verification (post-parse plus post-rewrite).
    pub verify: u64,
    /// Time in the greedy rewrite driver.
    pub rewrite: u64,
    /// Time printing the result.
    pub print: u64,
}

/// The outcome of running one module through the pipeline.
#[derive(Debug, Clone)]
pub struct ModuleResult {
    /// The printed module after rewriting.
    pub output: String,
    /// Number of pattern applications.
    pub rewrites: usize,
    /// Per-stage timing.
    pub timings: StageNanos,
}

/// Observability for one worker thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerReport {
    /// Modules this worker processed.
    pub modules: usize,
    /// Verdict-cache hits during this run (window starts at zero even
    /// though the cache itself arrives warm from the bundle).
    pub verdict_hits: u64,
    /// Verdict-cache misses during this run.
    pub verdict_misses: u64,
}

/// The outcome of a batch run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// One entry per input, in input order: the processed module or a
    /// rendered diagnostic.
    pub results: Vec<Result<ModuleResult, String>>,
    /// One entry per worker.
    pub workers: Vec<WorkerReport>,
}

impl PipelineReport {
    /// Number of inputs that failed.
    pub fn errors(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }
}

/// One input to the pipeline, borrowed.
///
/// The two variants are interchangeable: a bytecode input decodes to the
/// same in-memory module its text form parses to, runs through the same
/// rewrite driver, and prints the same output. Mixing them in one batch is
/// fine — merge order is by input index either way.
#[derive(Debug, Clone, Copy)]
pub enum InputRef<'a> {
    /// Textual IR, run through the module parser.
    Text(&'a str),
    /// Module bytecode (magic `IRBC`), run through the bytecode decoder.
    Bytecode(&'a [u8]),
}

impl InputRef<'_> {
    /// Parses (text, lexed on `intra_jobs` threads) or decodes (bytecode)
    /// this input into a module in `ctx`, returning the rendered
    /// diagnostic on failure.
    pub fn load(self, ctx: &mut Context, intra_jobs: usize) -> Result<OpRef, String> {
        match self {
            InputRef::Text(source) => irdl_ir::parse::parse_module_chunked(ctx, source, intra_jobs)
                .map_err(|d| d.render(source)),
            InputRef::Bytecode(bytes) => {
                irdl_ir::bytecode::decode_module(ctx, bytes).map_err(|d| d.to_string())
            }
        }
    }
}

/// One processed module tagged with its input index, so per-worker result
/// lists can be merged back into input order.
type IndexedResult = (usize, Result<ModuleResult, String>);

/// Runs every module in `inputs` through parse → verify → rewrite →
/// print, fanning the work across `opts.jobs` threads.
///
/// The dialects in `bundle` and the patterns in `patterns` are shared by
/// every worker; nothing is recompiled. Failures are per-module: a module
/// that fails to parse or verify produces an `Err` entry in the report and
/// does not affect its siblings.
pub fn run_batch(
    bundle: &DialectBundle,
    patterns: &PatternSet,
    inputs: &[String],
    opts: &PipelineOptions,
) -> PipelineReport {
    let refs: Vec<InputRef<'_>> = inputs.iter().map(|s| InputRef::Text(s)).collect();
    run_batch_inputs(bundle, patterns, &refs, opts)
}

/// [`run_batch`] for mixed text/bytecode corpora.
///
/// An [`InputRef::Bytecode`] entry is decoded instead of parsed (its
/// decode time is reported as the `parse` stage) and then verified,
/// rewritten, and printed exactly like a text entry.
pub fn run_batch_inputs(
    bundle: &DialectBundle,
    patterns: &PatternSet,
    inputs: &[InputRef<'_>],
    opts: &PipelineOptions,
) -> PipelineReport {
    let jobs = opts.jobs.max(1).min(inputs.len().max(1));
    let next = AtomicUsize::new(0);

    // Seal the catalog before any worker starts: the matcher automaton is
    // compiled exactly once here and Arc-shared, like every other bundle
    // artifact, instead of racing lazily on first use in a worker.
    if opts.matcher == MatcherMode::Auto && !patterns.is_empty() {
        patterns.seal();
    }

    if jobs == 1 {
        let (slots, report) = worker_loop(bundle, patterns, inputs, opts, &next);
        let mut results: Vec<Option<Result<ModuleResult, String>>> =
            (0..inputs.len()).map(|_| None).collect();
        for (index, result) in slots {
            results[index] = Some(result);
        }
        return PipelineReport {
            results: results.into_iter().map(|r| r.expect("all inputs processed")).collect(),
            workers: vec![report],
        };
    }

    let mut per_worker: Vec<(Vec<IndexedResult>, WorkerReport)> = Vec::with_capacity(jobs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| scope.spawn(|| worker_loop(bundle, patterns, inputs, opts, &next)))
            .collect();
        for handle in handles {
            per_worker.push(handle.join().expect("pipeline worker panicked"));
        }
    });

    let mut results: Vec<Option<Result<ModuleResult, String>>> =
        (0..inputs.len()).map(|_| None).collect();
    let mut workers = Vec::with_capacity(jobs);
    for (slots, report) in per_worker {
        for (index, result) in slots {
            results[index] = Some(result);
        }
        workers.push(report);
    }
    PipelineReport {
        results: results.into_iter().map(|r| r.expect("all inputs processed")).collect(),
        workers,
    }
}

/// Claims and processes modules until the corpus is exhausted.
fn worker_loop(
    bundle: &DialectBundle,
    patterns: &PatternSet,
    inputs: &[InputRef<'_>],
    opts: &PipelineOptions,
    next: &AtomicUsize,
) -> (Vec<IndexedResult>, WorkerReport) {
    let mut ctx = bundle.instantiate();
    ctx.reset_verdict_stats();
    let mut verifier = ModuleVerifier::new();
    let mut results = Vec::new();
    let mut report = WorkerReport::default();
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= inputs.len() {
            break;
        }
        let outcome = process_module(&mut ctx, &mut verifier, patterns, inputs[index], opts);
        results.push((index, outcome));
        report.modules += 1;
    }
    let (hits, misses) = ctx.verdict_cache_stats();
    report.verdict_hits = hits;
    report.verdict_misses = misses;
    (results, report)
}

/// A module after [`run_module`]: parsed, verified and rewritten, and
/// still live in the context.
#[derive(Debug, Clone, Copy)]
pub struct LiveModule {
    /// The module operation.
    pub module: OpRef,
    /// Number of pattern applications.
    pub rewrites: usize,
    /// Per-stage timing; `print` is left at zero for the caller.
    pub timings: StageNanos,
}

/// Parse (or decode) → verify → rewrite-to-fixpoint → post-rewrite verify
/// for one module, as every pipeline worker runs it. The module stays in
/// `ctx` for the caller to print, encode or execute, and to erase.
///
/// Verification follows `opts.verify` and `opts.check` as documented on
/// [`PipelineOptions`]; `opts.jobs` and `opts.generic` are not read.
///
/// # Errors
///
/// The rendered diagnostic of the first stage that fails. A module that
/// parsed is erased from `ctx` before the error returns.
pub fn run_module(
    ctx: &mut Context,
    verifier: &mut ModuleVerifier,
    patterns: &PatternSet,
    input: InputRef<'_>,
    opts: &PipelineOptions,
) -> Result<LiveModule, String> {
    let mut timings = StageNanos::default();
    let intra_jobs = opts.intra_jobs.max(1);

    let start = Instant::now();
    let module = input.load(ctx, intra_jobs)?;
    timings.parse = start.elapsed().as_nanos() as u64;

    let result = (|| {
        if opts.verify {
            let start = Instant::now();
            let checked = verifier.verify_parallel(ctx, module, intra_jobs);
            timings.verify += start.elapsed().as_nanos() as u64;
            checked.map_err(|errs| {
                errs.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
            })?;
        }

        let mut rewrites = 0;
        if !patterns.is_empty() {
            match opts.check {
                CheckLevel::Off => {
                    let start = Instant::now();
                    let stats = rewrite_greedily_matched(
                        ctx,
                        module,
                        patterns,
                        CheckLevel::Off,
                        opts.matcher,
                    )
                    .expect("unchecked drive cannot fail");
                    timings.rewrite = start.elapsed().as_nanos() as u64;
                    rewrites = stats.rewrites;
                    if opts.verify {
                        let start = Instant::now();
                        let checked = verifier.verify_parallel(ctx, module, intra_jobs);
                        timings.verify += start.elapsed().as_nanos() as u64;
                        checked.map_err(|errs| {
                            format!("IR invalid after rewriting: {}", errs[0])
                        })?;
                    }
                }
                check => {
                    // The checked driver verifies every intermediate
                    // state (and the input), so no separate post-rewrite
                    // verify pass is needed. Interleaved verification time
                    // is indistinguishable from rewrite time here and is
                    // reported as such.
                    let start = Instant::now();
                    let outcome =
                        rewrite_greedily_matched(ctx, module, patterns, check, opts.matcher);
                    timings.rewrite = start.elapsed().as_nanos() as u64;
                    let stats = outcome.map_err(|err| {
                        format!("{err}: {}", err.diagnostics[0])
                    })?;
                    rewrites = stats.rewrites;
                }
            }
        }
        Ok(rewrites)
    })();

    match result {
        Ok(rewrites) => Ok(LiveModule { module, rewrites, timings }),
        Err(message) => {
            // The half-processed module must not leak into a long-lived
            // context.
            ctx.erase_op(module);
            Err(message)
        }
    }
}

/// [`run_module`], then print and erase the module.
fn process_module(
    ctx: &mut Context,
    verifier: &mut ModuleVerifier,
    patterns: &PatternSet,
    input: InputRef<'_>,
    opts: &PipelineOptions,
) -> Result<ModuleResult, String> {
    let LiveModule { module, rewrites, mut timings } =
        run_module(ctx, verifier, patterns, input, opts)?;
    let start = Instant::now();
    let mut output = String::new();
    let mut printer = Printer::new(&mut output);
    printer.set_generic(opts.generic);
    printer.print_op(ctx, module);
    timings.print = start.elapsed().as_nanos() as u64;
    ctx.erase_op(module);
    Ok(ModuleResult { output, rewrites, timings })
}

#[cfg(test)]
mod tests {
    use super::*;
    use irdl::NativeRegistry;

    const SPEC: &str = r#"
Dialect toy {
  Operation double { Operands (x: !i32) Results (r: !i32) }
  Operation add { Operands (a: !i32, b: !i32) Results (r: !i32) }
  Operation source { Results (r: !i32) }
}
"#;

    const PATTERN: &str = r#"
Pattern add_to_double {
  Match {
    %r = toy.add(%x, %x)
  }
  Rewrite {
    %d = toy.double(%x) : typeof(%x)
    Replace %r with %d
  }
}
"#;

    /// Input `i` carries `i + 1` extra source ops, so each module's printed
    /// form is structurally distinct — an out-of-order merge is detectable
    /// even though the printer renumbers value ids.
    fn toy_inputs(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                let mut text = String::new();
                for j in 0..=i {
                    text.push_str(&format!("%e{j} = \"toy.source\"() : () -> i32\n"));
                }
                text.push_str("%x = \"toy.source\"() : () -> i32\n");
                text.push_str("%r = \"toy.add\"(%x, %x) : (i32, i32) -> i32\n");
                text
            })
            .collect()
    }

    fn toy_setup() -> (DialectBundle, PatternSet) {
        let natives = NativeRegistry::with_std();
        let sources = vec![("toy.irdl".to_string(), SPEC.to_string())];
        let bundle = DialectBundle::compile(&sources, &natives).unwrap();
        let mut ctx = bundle.instantiate();
        let patterns = crate::dsl::parse_patterns(&mut ctx, PATTERN).unwrap();
        (bundle, patterns)
    }

    #[test]
    fn parallel_matches_sequential_in_input_order() {
        let (bundle, patterns) = toy_setup();
        let inputs = toy_inputs(13);
        let sequential = run_batch(
            &bundle,
            &patterns,
            &inputs,
            &PipelineOptions { jobs: 1, ..Default::default() },
        );
        let parallel = run_batch(
            &bundle,
            &patterns,
            &inputs,
            &PipelineOptions { jobs: 4, ..Default::default() },
        );
        assert_eq!(sequential.results.len(), inputs.len());
        assert_eq!(parallel.results.len(), inputs.len());
        assert_eq!(parallel.workers.iter().map(|w| w.modules).sum::<usize>(), inputs.len());
        for (i, (s, p)) in sequential.results.iter().zip(&parallel.results).enumerate() {
            let s = s.as_ref().expect("sequential module failed");
            let p = p.as_ref().expect("parallel module failed");
            assert_eq!(s.output, p.output, "output diverged for input {i}");
            assert_eq!(s.rewrites, 1);
            assert_eq!(
                s.output.matches("toy.source").count(),
                i + 2,
                "input order lost at {i}"
            );
        }
    }

    /// Every check level must produce the same outputs; the checked levels
    /// merely verify more often along the way.
    #[test]
    fn check_levels_agree_on_outputs() {
        let (bundle, patterns) = toy_setup();
        let inputs = toy_inputs(5);
        let baseline = run_batch(&bundle, &patterns, &inputs, &PipelineOptions::default());
        for check in [CheckLevel::Incremental, CheckLevel::Full] {
            let opts = PipelineOptions { check, ..Default::default() };
            let checked = run_batch(&bundle, &patterns, &inputs, &opts);
            assert_eq!(checked.errors(), 0, "{check:?}");
            for (b, c) in baseline.results.iter().zip(&checked.results) {
                let b = b.as_ref().unwrap();
                let c = c.as_ref().unwrap();
                assert_eq!(b.output, c.output, "{check:?}");
                assert_eq!(b.rewrites, c.rewrites, "{check:?}");
            }
        }
    }

    /// Automaton and scan dispatch must agree module-for-module, and the
    /// automaton must be compiled exactly once per batch even across
    /// parallel workers.
    #[test]
    fn matcher_modes_agree_and_compile_once() {
        let (bundle, patterns) = toy_setup();
        let inputs = toy_inputs(9);
        let scan = run_batch(
            &bundle,
            &patterns,
            &inputs,
            &PipelineOptions { matcher: MatcherMode::Scan, ..Default::default() },
        );
        let auto = run_batch(
            &bundle,
            &patterns,
            &inputs,
            &PipelineOptions { jobs: 4, matcher: MatcherMode::Auto, ..Default::default() },
        );
        // The batch sealed the set: the automaton in hand now is the one
        // every worker used, and later batches reuse the same artifact
        // (pointer identity — no recompilation).
        let sealed = patterns.matcher();
        let again = run_batch(
            &bundle,
            &patterns,
            &inputs,
            &PipelineOptions { matcher: MatcherMode::Auto, ..Default::default() },
        );
        assert!(std::sync::Arc::ptr_eq(&sealed, &patterns.matcher()));
        for ((s, a), g) in scan.results.iter().zip(&auto.results).zip(&again.results) {
            let s = s.as_ref().unwrap();
            let a = a.as_ref().unwrap();
            let g = g.as_ref().unwrap();
            assert_eq!(s.output, a.output);
            assert_eq!(s.rewrites, a.rewrites);
            assert_eq!(a.output, g.output);
        }
    }

    /// A batch whose even inputs were pre-encoded to bytecode must produce
    /// exactly the outputs of the all-text batch, in the same order.
    #[test]
    fn bytecode_inputs_match_text_inputs() {
        let (bundle, patterns) = toy_setup();
        let texts = toy_inputs(7);
        let baseline = run_batch(&bundle, &patterns, &texts, &PipelineOptions::default());

        let mut ctx = bundle.instantiate();
        let encoded: Vec<Vec<u8>> = texts
            .iter()
            .map(|text| {
                let module = irdl_ir::parse::parse_module(&mut ctx, text).unwrap();
                let bytes = irdl_ir::bytecode::encode_module(&ctx, module).unwrap();
                ctx.erase_op(module);
                bytes
            })
            .collect();
        let mixed: Vec<InputRef<'_>> = texts
            .iter()
            .zip(&encoded)
            .enumerate()
            .map(|(i, (text, bytes))| {
                if i % 2 == 0 {
                    InputRef::Bytecode(bytes)
                } else {
                    InputRef::Text(text)
                }
            })
            .collect();

        for jobs in [1, 4] {
            let opts = PipelineOptions { jobs, ..Default::default() };
            let report = run_batch_inputs(&bundle, &patterns, &mixed, &opts);
            assert_eq!(report.errors(), 0);
            for (i, (b, m)) in baseline.results.iter().zip(&report.results).enumerate() {
                let b = b.as_ref().unwrap();
                let m = m.as_ref().unwrap();
                assert_eq!(b.output, m.output, "output diverged for input {i} (jobs={jobs})");
                assert_eq!(b.rewrites, m.rewrites);
            }
        }
    }

    /// Corrupt bytecode fails its own slot with a diagnostic, like a text
    /// parse error.
    #[test]
    fn corrupt_bytecode_input_fails_only_its_slot() {
        let (bundle, patterns) = toy_setup();
        let text = toy_inputs(1).remove(0);
        let inputs = [InputRef::Text(&text), InputRef::Bytecode(b"not bytecode")];
        let report = run_batch_inputs(&bundle, &patterns, &inputs, &PipelineOptions::default());
        assert_eq!(report.errors(), 1);
        assert!(report.results[0].is_ok());
        assert!(report.results[1].as_ref().unwrap_err().contains("magic"));
    }

    /// `intra_jobs > 1` (chunked lexing + parallel verification) must
    /// produce outputs byte-identical to the sequential run, including on
    /// a module large enough to actually take both threaded paths.
    #[test]
    fn intra_jobs_is_byte_identical() {
        let (bundle, patterns) = toy_setup();
        let mut big = String::new();
        for j in 0..3000 {
            big.push_str(&format!("%x{j} = \"toy.source\"() : () -> i32\n"));
            big.push_str(&format!("%r{j} = \"toy.add\"(%x{j}, %x{j}) : (i32, i32) -> i32\n"));
        }
        let mut inputs = toy_inputs(3);
        inputs.push(big);
        let baseline = run_batch(&bundle, &patterns, &inputs, &PipelineOptions::default());
        for intra_jobs in [2, 8] {
            let opts = PipelineOptions { intra_jobs, ..Default::default() };
            let threaded = run_batch(&bundle, &patterns, &inputs, &opts);
            assert_eq!(threaded.errors(), 0);
            for (i, (b, t)) in baseline.results.iter().zip(&threaded.results).enumerate() {
                let b = b.as_ref().unwrap();
                let t = t.as_ref().unwrap();
                assert_eq!(b.output, t.output, "input {i} (intra_jobs={intra_jobs})");
                assert_eq!(b.rewrites, t.rewrites);
            }
        }
    }

    #[test]
    fn per_module_failures_do_not_poison_the_batch() {
        let (bundle, patterns) = toy_setup();
        let mut inputs = toy_inputs(3);
        inputs.insert(1, "%broken = \"".to_string());
        let report = run_batch(&bundle, &patterns, &inputs, &PipelineOptions::default());
        assert_eq!(report.errors(), 1);
        assert!(report.results[1].is_err());
        for i in [0, 2, 3] {
            assert!(report.results[i].is_ok(), "module {i} should have survived");
        }
    }
}
