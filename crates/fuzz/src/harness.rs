//! The fuzzing loop: generation, mutation, oracles, reporting.
//!
//! A [`FuzzTarget`] is made once per dialect set: it compiles one
//! [`DialectBundle`], catalogs the ops that compile kept, and builds what
//! every oracle shares (execution semantics and the sealed pattern sets).
//! The oracles then only instantiate contexts from it.
//!
//! Everything downstream of the seed is deterministic: the corpus bundle
//! is compiled once in declaration order, per-iteration PRNG streams are
//! forked from a single base stream, and the log contains no timestamps
//! or machine-dependent data — so `run_fuzz` with the same options twice
//! produces byte-identical reports, and any failure replays from
//! `(seed, iteration)` alone.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use irdl::DialectBundle;
use irdl_interp::EvalRegistry;
use irdl_ir::print::op_to_string;
use irdl_ir::verify::ModuleVerifier;
use irdl_rewrite::PatternSet;

use crate::catalog::OpCatalog;
use crate::genmod::{generate_module, GenConfig};
use crate::genpat::{derive_canon_catalog, pat_dialect_spec, random_catalog};
use crate::genspec::generate_spec;
use crate::mutate::mutate_text;
use crate::oracle::{
    check_jobs, check_matcher, oracle_patterns, tv_patterns, OracleFailure, OracleScope,
    OracleSeeds, JOBS_ORACLE_WORKERS, ORACLES,
};
use crate::rng::SplitMix64;

/// Unary-op count of the synthetic `pat` dialect the matcher oracle
/// fuzzes over (see [`crate::genpat`]).
const PAT_UNARY_OPS: usize = 8;

/// Options for one fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Base seed; every PRNG stream derives from it.
    pub seed: u64,
    /// Iteration budget.
    pub iters: u64,
    /// Optional wall-clock budget; the run stops at whichever of
    /// `iters`/`time_budget` is hit first. Runs meant to be compared
    /// byte-for-byte should not set this.
    pub time_budget: Option<Duration>,
    /// Modules per batch-pipeline oracle invocation.
    pub batch: usize,
    /// Generator shape knobs.
    pub config: GenConfig,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 0,
            iters: 100,
            time_budget: None,
            batch: 8,
            config: GenConfig::default(),
        }
    }
}

/// The outcome of a fuzzing run.
#[derive(Debug)]
pub struct FuzzReport {
    /// Iterations actually executed.
    pub iters: u64,
    /// Modules generated (corpus + generated-spec dialects).
    pub modules: u64,
    /// Text mutants fed to the parser.
    pub mutants: u64,
    /// Generated specs compiled.
    pub specs: u64,
    /// Random pattern catalogs fed to the matcher oracle.
    pub catalogs: u64,
    /// Every oracle divergence found (the run stops at the first one).
    pub failures: Vec<OracleFailure>,
    /// Deterministic, timestamp-free run log.
    pub log: String,
}

/// The fuzzing target: a compiled bundle, the op catalog read from the
/// ops it compiled, and what every oracle run against it shares, all
/// built once when the target is made.
pub struct FuzzTarget {
    /// Compiled dialects every oracle instantiates from.
    pub bundle: DialectBundle,
    /// Op shapes for the structured generator.
    pub catalog: OpCatalog,
    /// Execution semantics translation validation interprets ops with;
    /// ops without any run uninterpreted.
    pub semantics: Arc<EvalRegistry>,
    /// The pattern set the drive and jobs oracles run.
    pub patterns: PatternSet,
    /// The translation-validation catalog: constant folding over
    /// `semantics` plus source DCE.
    pub tv_patterns: PatternSet,
}

impl FuzzTarget {
    /// Compiles IRDL sources into a bundle and catalogs its ops; the
    /// oracles execute with `semantics`.
    ///
    /// # Errors
    ///
    /// Returns the compile diagnostic, rendered against the source when
    /// there is only one (a generated spec).
    pub fn from_sources(
        sources: &[(String, String)],
        natives: &irdl::NativeRegistry,
        semantics: EvalRegistry,
    ) -> Result<FuzzTarget, String> {
        let bundle = DialectBundle::compile(sources, natives).map_err(|e| match sources {
            [(name, source)] => format!("{name}: {}", e.render(source)),
            _ => e.to_string(),
        })?;
        let catalog = OpCatalog::from_ops(bundle.ops());
        let semantics = Arc::new(semantics);
        let tv_patterns = tv_patterns(&semantics);
        Ok(FuzzTarget { bundle, catalog, semantics, patterns: oracle_patterns(), tv_patterns })
    }

    /// The 28-dialect evaluation corpus with the corpus execution
    /// semantics, so the translation-validation oracle interprets
    /// `builtin`/`scf`/`complex` ops for real (everything else runs
    /// uninterpreted).
    pub fn corpus() -> Result<FuzzTarget, String> {
        FuzzTarget::from_sources(
            &irdl_dialects::corpus_sources(),
            &irdl_dialects::corpus_natives(),
            irdl_dialects::corpus_semantics(),
        )
    }
}

/// Runs the fuzzing loop. Stops at the first oracle divergence (the
/// divergence is the finding; everything after it would be noise), at the
/// iteration budget, or at the time budget.
pub fn run_fuzz(opts: &FuzzOptions) -> Result<FuzzReport, String> {
    let target = FuzzTarget::corpus()?;
    run_fuzz_on(&target, opts)
}

/// [`run_fuzz`] against an explicit target (used by tests to fuzz small
/// or deliberately-buggy dialect sets).
pub fn run_fuzz_on(target: &FuzzTarget, opts: &FuzzOptions) -> Result<FuzzReport, String> {
    let started = Instant::now();
    let mut base = SplitMix64::new(opts.seed);
    let mut report = FuzzReport {
        iters: 0,
        modules: 0,
        mutants: 0,
        specs: 0,
        catalogs: 0,
        failures: Vec::new(),
        log: String::new(),
    };

    // Matcher-oracle fixtures, built once: the synthetic `pat` dialect
    // random catalogs are written against, and the canonicalization
    // catalog auto-derived from the target's own op corpus.
    let pat_target = FuzzTarget::from_sources(
        &[("pat".to_string(), pat_dialect_spec(PAT_UNARY_OPS))],
        &irdl::NativeRegistry::new(),
        EvalRegistry::new(),
    )?;
    let canon_ctx = target.bundle.instantiate();
    let (canon_catalog, canon_patterns) = derive_canon_catalog(&canon_ctx, &target.catalog);
    drop(canon_ctx);
    let _ = writeln!(
        report.log,
        "irdl-fuzz: seed {:#x}, {} iteration budget, batch {}",
        opts.seed, opts.iters, opts.batch
    );

    let mut batch_texts: Vec<String> = Vec::new();
    'iterations: for iter in 0..opts.iters {
        if let Some(budget) = opts.time_budget {
            if started.elapsed() >= budget {
                let _ = writeln!(report.log, "time budget reached after {iter} iterations");
                break;
            }
        }
        report.iters = iter + 1;
        let mut rng = base.fork();

        // Every 8th iteration fuzzes a freshly generated dialect instead
        // of the corpus: the spec generator and the frontend get coverage,
        // and the oracles run against constraints nobody hand-wrote.
        let generated_target;
        let iter_target = if iter % 8 == 7 {
            let spec = generate_spec(&format!("fz{iter}"), &mut rng);
            report.specs += 1;
            match FuzzTarget::from_sources(
                &[(format!("fz{iter}"), spec.clone())],
                &irdl::NativeRegistry::new(),
                EvalRegistry::new(),
            ) {
                Ok(t) => {
                    generated_target = t;
                    &generated_target
                }
                Err(e) => {
                    report.failures.push(OracleFailure {
                        oracle: "spec-compile",
                        detail: format!("generated spec does not compile (iter {iter}): {e}"),
                        input: spec,
                        seed: opts.seed,
                    });
                    break 'iterations;
                }
            }
        } else {
            target
        };

        // --- structured generation + single-input oracles ---------------
        let mut ctx = iter_target.bundle.instantiate();
        let module = generate_module(&mut ctx, &iter_target.catalog, &opts.config, &mut rng);
        report.modules += 1;

        // Well-formed-by-construction invariant: the full hook-running
        // verifier must accept every generated module.
        if let Err(errors) = ModuleVerifier::new().verify(&ctx, module) {
            report.failures.push(OracleFailure {
                oracle: "generate",
                detail: format!(
                    "generated module does not verify (iter {iter}): {}",
                    errors.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("; ")
                ),
                input: op_to_string(&ctx, module),
                seed: opts.seed,
            });
            break 'iterations;
        }
        let text = op_to_string(&ctx, module);
        drop(ctx);

        let mutation = rng.next_u64();
        let input = rng.next_u64();
        let seeds = OracleSeeds { mutation, input };
        for oracle in ORACLES.iter().filter(|oracle| oracle.scope != OracleScope::Batches) {
            if let Err(failure) = (oracle.check)(iter_target, &text, seeds) {
                let _ = writeln!(report.log, "iter {iter}: oracle `{}` diverged", oracle.name);
                report.failures.push(failure);
                break 'iterations;
            }
        }

        // --- matcher oracle ---------------------------------------------
        // A fresh module over the `pat` dialect driven with a random DSL
        // catalog: automaton dispatch must agree with the per-pattern
        // scan byte for byte. Corpus iterations additionally drive the
        // corpus module with the auto-derived canonicalization catalog.
        {
            let mut pat_ctx = pat_target.bundle.instantiate();
            let pat_module =
                generate_module(&mut pat_ctx, &pat_target.catalog, &opts.config, &mut rng);
            let pat_text = op_to_string(&pat_ctx, pat_module);
            drop(pat_ctx);
            report.modules += 1;
            let catalog = random_catalog(PAT_UNARY_OPS, 1 + rng.below(8), &mut rng);
            report.catalogs += 1;
            if let Err(failure) = check_matcher(&pat_target, &catalog, &pat_text) {
                let _ = writeln!(report.log, "iter {iter}: matcher oracle diverged");
                report.failures.push(failure);
                break 'iterations;
            }
        }
        if iter % 8 != 7 && canon_patterns > 0 {
            if let Err(failure) = check_matcher(target, &canon_catalog, &text) {
                let _ = writeln!(
                    report.log,
                    "iter {iter}: matcher oracle diverged on the canon catalog"
                );
                report.failures.push(failure);
                break 'iterations;
            }
        }

        // --- text mutants ------------------------------------------------
        for _ in 0..2 {
            let mutant = mutate_text(&text, &mut rng);
            report.mutants += 1;
            // The parser must reject gracefully (no panic); accepted
            // mutants must pass every oracle scoped to mutants: malformed
            // placements, broken dominance, mutated attribute payloads and
            // operand rewires are what they stress.
            for oracle in ORACLES.iter().filter(|oracle| oracle.scope == OracleScope::Mutants) {
                if let Err(failure) = (oracle.check)(iter_target, &mutant, seeds) {
                    let _ = writeln!(
                        report.log,
                        "iter {iter}: oracle `{}` diverged on a text mutant",
                        oracle.name
                    );
                    report.failures.push(failure);
                    break 'iterations;
                }
            }
        }

        // --- batch oracle -----------------------------------------------
        // Only corpus-target modules are batched: the pipeline bundle must
        // match the modules' dialects.
        if iter % 8 != 7 {
            batch_texts.push(text);
            if batch_texts.len() >= opts.batch.max(1) {
                let checked = check_jobs(target, &batch_texts, JOBS_ORACLE_WORKERS);
                if let Err(failure) = checked {
                    let _ = writeln!(report.log, "iter {iter}: jobs oracle diverged");
                    report.failures.push(failure);
                    break 'iterations;
                }
                batch_texts.clear();
            }
        }

        if (iter + 1) % 50 == 0 {
            let _ = writeln!(
                report.log,
                "iter {}: {} modules, {} mutants, {} specs, {} catalogs, all oracles green",
                iter + 1,
                report.modules,
                report.mutants,
                report.specs,
                report.catalogs
            );
        }
    }

    if report.failures.is_empty() && !batch_texts.is_empty() {
        if let Err(failure) = check_jobs(target, &batch_texts, JOBS_ORACLE_WORKERS) {
            let _ = writeln!(report.log, "final batch: jobs oracle diverged");
            report.failures.push(failure);
        }
    }

    let _ = writeln!(
        report.log,
        "done: {} iterations, {} modules, {} mutants, {} specs, {} catalogs, {} failure(s)",
        report.iters, report.modules, report.mutants, report.specs, report.catalogs,
        report.failures.len()
    );
    Ok(report)
}

/// Does the oracle called `name` still fail on `text`? The predicate
/// ddmin shrinks a failing input under: a candidate is kept only if the
/// *same* oracle still fails on it.
///
/// Covers every oracle in [`ORACLES`] plus the harness's own `generate`
/// (the smallest module that still parses and still fails full
/// verification) and `spec-compile` (the smallest spec the frontend still
/// rejects). Any other name (the matcher oracle, which needs its catalog)
/// never reproduces, so its input is stored unreduced.
pub fn oracle_fails(target: &FuzzTarget, name: &str, seed: u64, text: &str) -> bool {
    match name {
        "generate" => {
            let mut ctx = target.bundle.instantiate();
            match irdl_ir::parse::parse_module(&mut ctx, text) {
                Ok(module) => ModuleVerifier::new().verify(&ctx, module).is_err(),
                Err(_) => false,
            }
        }
        "spec-compile" => DialectBundle::compile(
            &[("reduced".to_string(), text.to_string())],
            &irdl::NativeRegistry::new(),
        )
        .is_err(),
        _ => ORACLES.iter().any(|oracle| {
            oracle.name == name && (oracle.check)(target, text, OracleSeeds::same(seed)).is_err()
        }),
    }
}
