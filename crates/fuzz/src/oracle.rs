//! The eight differential oracles.
//!
//! Each oracle runs one input through two implementations that must agree
//! and reports any divergence with enough context (input text, seed,
//! step) to replay it. The pairs cross-check every fast path the repo has
//! built so far:
//!
//! 1. **fixpoint** — parse → print must reach a fixpoint: printing the
//!    reparse of printed text reproduces it byte for byte (pretty and
//!    generic forms both).
//! 2. **incremental** — after every journaled mutation, the verdict of
//!    [`IncrementalVerifier::verify_changes`] must equal a from-scratch
//!    [`ModuleVerifier`] walk. Each mutation lands on a module that walk
//!    has just stamped as verified, and must leave the stamp stale
//!    ([`Context::is_verified`]), or a checked drive would trust it —
//!    unless it changed nothing (say, an operand set to the value it
//!    already held) and the module prints exactly as before.
//! 3. **cache** — verification with a warm verdict cache, a re-verify
//!    (pure cache hits), and a cleared cache must produce identical
//!    verdicts and identical diagnostics.
//! 4. **jobs** — the batch pipeline at `--jobs 1` and `--jobs 4` must
//!    produce byte-identical per-module results.
//! 5. **drive** — the checked rewrite driver at `CheckLevel::Full` and
//!    `CheckLevel::Incremental` must apply the same rewrites and print
//!    identical output (or fail identically).
//! 6. **matcher** — the greedy driver dispatching through the compiled
//!    matcher automaton (`MatcherMode::Auto`) and through the per-pattern
//!    scan (`MatcherMode::Scan`) must apply the same number of rewrites
//!    and print byte-identical output, for arbitrary random DSL catalogs.
//! 7. **bytecode** — encode → decode into a fresh bundle instance must
//!    reproduce the module: the decoded module prints byte-identically to
//!    the original (text and bytecode are interchangeable surfaces for
//!    the same IR).
//! 8. **translation-validation** — the module is *executed* (the
//!    `irdl-interp` register machine, seeded random well-typed inputs)
//!    before and after a greedy drive of the semantics-preserving TV
//!    catalog (constant folding + source DCE), in both matcher modes; the
//!    observable outcome — values flowing into sinks plus the trap kind —
//!    must be byte-identical. Unlike oracles 5/6, which check that two
//!    *drivers* agree, this one checks the rewrites themselves preserve
//!    behavior.

use std::sync::Arc;

use irdl::DialectBundle;
use irdl_ir::bytecode::{decode_module, encode_module};
use irdl_ir::parse::parse_module;
use irdl_ir::print::{op_to_string, op_to_string_generic};
use irdl_ir::verify::{IncrementalVerifier, ModuleVerifier};
use irdl_ir::{ChangeJournal, Context, OpRef};
use irdl_interp::{run_module, EvalOptions};
use irdl_rewrite::{
    parse_patterns, rewrite_greedily_matched, rewrite_greedily_with, run_batch, CheckLevel,
    FoldConstants, MatcherMode, PatternSet, PipelineOptions, RewritePattern, Rewriter,
};

use crate::mutate::{mutate_structured, MutationPolicy};
use crate::rng::SplitMix64;

/// One oracle divergence: everything needed to reproduce and report it.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// Which oracle diverged (`fixpoint`, `incremental`, `cache`,
    /// `jobs`, `drive`, `matcher`, `bytecode`, `translation-validation`,
    /// or `generate`).
    pub oracle: &'static str,
    /// Human-readable description of the divergence.
    pub detail: String,
    /// The input text that triggered it.
    pub input: String,
    /// Mutation-sequence seed, for oracles that draw randomness beyond
    /// the input text (0 when the input alone reproduces the failure).
    pub seed: u64,
}

impl OracleFailure {
    fn new(oracle: &'static str, detail: String, input: &str) -> Self {
        OracleFailure { oracle, detail, input: input.to_string(), seed: 0 }
    }

    fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Dead-source elimination: erases unused `fuzz.src` ops. Anchorless, so
/// it scans every op; safe on any input; guaranteed to fire on generated
/// modules (the generator leaves unused sources behind), which keeps the
/// drive/jobs oracles exercising real rewrites, not empty worklists.
struct DceSourcePattern;

impl RewritePattern for DceSourcePattern {
    fn root(&self) -> Option<irdl_ir::OpName> {
        None
    }

    fn name(&self) -> &str {
        "fuzz-dce-src"
    }

    fn match_and_rewrite(&self, rewriter: &mut Rewriter<'_>) -> bool {
        let op = rewriter.root();
        let ctx = rewriter.ctx();
        let name = op.name(ctx);
        let is_src = ctx.symbol_lookup("fuzz").is_some_and(|d| d == name.dialect)
            && ctx.symbol_lookup("src").is_some_and(|n| n == name.name);
        if !is_src || !op.regions(ctx).is_empty() {
            return false;
        }
        rewriter.erase_if_unused(op)
    }
}

/// The shared pattern set the drive/jobs oracles run, built (and its
/// matcher automaton compiled) once per bundle through the bundle's typed
/// artifact store; every oracle invocation after the first reuses the
/// same `Arc`.
pub struct OraclePatterns(pub PatternSet);

/// The pattern set the drive/jobs oracles run.
pub fn oracle_patterns(bundle: &DialectBundle) -> Arc<OraclePatterns> {
    bundle.artifact_or_insert(|| {
        let mut patterns = PatternSet::new();
        patterns.add(Arc::new(DceSourcePattern));
        patterns.seal();
        OraclePatterns(patterns)
    })
}

fn render_errors(errors: &[irdl_ir::Diagnostic]) -> String {
    errors.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("; ")
}

fn parse_in(ctx: &mut Context, text: &str) -> Option<OpRef> {
    parse_module(ctx, text).ok()
}

/// Oracle 1: parse → print → parse fixpoint (pretty and generic forms).
///
/// Inputs the parser rejects pass vacuously — rejection is a legitimate
/// outcome for text mutants; what must never happen is accepting text
/// whose print does not reach a fixpoint.
pub fn check_fixpoint(bundle: &DialectBundle, text: &str) -> Result<(), OracleFailure> {
    let mut ctx = bundle.instantiate();
    let Some(module) = parse_in(&mut ctx, text) else { return Ok(()) };
    let printed = op_to_string(&ctx, module);
    let generic = op_to_string_generic(&ctx, module);

    let mut ctx2 = bundle.instantiate();
    let module2 = parse_module(&mut ctx2, &printed).map_err(|e| {
        OracleFailure::new(
            "fixpoint",
            format!("printed module does not re-parse: {}\nprinted:\n{printed}", e),
            text,
        )
    })?;
    let printed2 = op_to_string(&ctx2, module2);
    if printed2 != printed {
        return Err(OracleFailure::new(
            "fixpoint",
            format!("print is not a fixpoint:\nfirst:\n{printed}\nsecond:\n{printed2}"),
            text,
        ));
    }
    let mut ctx3 = bundle.instantiate();
    let module3 = parse_module(&mut ctx3, &generic).map_err(|e| {
        OracleFailure::new(
            "fixpoint",
            format!("generic print does not re-parse: {}\nprinted:\n{generic}", e),
            text,
        )
    })?;
    let generic2 = op_to_string_generic(&ctx3, module3);
    if generic2 != generic {
        return Err(OracleFailure::new(
            "fixpoint",
            format!("generic print is not a fixpoint:\nfirst:\n{generic}\nsecond:\n{generic2}"),
            text,
        ));
    }
    Ok(())
}

/// Oracle 2: incremental ≡ full verification verdict under a random
/// journaled mutation sequence seeded by `seed`, and no journaled mutation
/// that changes the module leaves its verified stamp fresh.
pub fn check_incremental(
    bundle: &DialectBundle,
    text: &str,
    seed: u64,
    steps: usize,
) -> Result<(), OracleFailure> {
    let mut ctx = bundle.instantiate();
    let Some(module) = parse_in(&mut ctx, text) else { return Ok(()) };

    let mut incremental = IncrementalVerifier::new();
    let initial = incremental.verify_full(&ctx, module);
    let full = ModuleVerifier::new().verify(&ctx, module);
    if initial.is_ok() != full.is_ok() {
        return Err(OracleFailure::new(
            "incremental",
            format!(
                "initial verdicts disagree: incremental {:?} vs full {:?}",
                initial.as_ref().map_err(|e| render_errors(e)),
                full.as_ref().map_err(|e| render_errors(e)),
            ),
            text,
        )
        .with_seed(seed));
    }
    if initial.is_err() {
        // The incremental contract starts from valid IR.
        return Ok(());
    }

    let mut rng = SplitMix64::new(seed);
    let mut journal = ChangeJournal::new();
    for step in 0..steps {
        journal.clear();
        let before = op_to_string(&ctx, module);
        let Some(mutation) =
            mutate_structured(&mut ctx, module, &mut journal, MutationPolicy::AllowInvalid, &mut rng)
        else {
            continue;
        };
        // The last full walk accepted and stamped the module; a change
        // must have invalidated that stamp.
        if ctx.is_verified(module) && op_to_string(&ctx, module) != before {
            return Err(OracleFailure::new(
                "incremental",
                format!(
                    "verified stamp still fresh after step {step} ({mutation}, seed {seed:#x}) \
                     changed the module:\nbefore:\n{before}\nafter:\n{}",
                    op_to_string(&ctx, module),
                ),
                text,
            )
            .with_seed(seed));
        }
        let incr = incremental.verify_changes(&ctx, &journal);
        let full = ModuleVerifier::new().verify(&ctx, module);
        if incr.is_ok() != full.is_ok() {
            return Err(OracleFailure::new(
                "incremental",
                format!(
                    "verdicts disagree after step {step} ({mutation}, seed {seed:#x}): \
                     incremental {:?} vs full {:?}\nmodule:\n{}",
                    incr.as_ref().map_err(|e| render_errors(e)),
                    full.as_ref().map_err(|e| render_errors(e)),
                    op_to_string(&ctx, module),
                ),
                text,
            )
            .with_seed(seed));
        }
        if incr.is_err() {
            // Both agree the module is now invalid; the incremental
            // verifier's state contract ends here.
            break;
        }
    }
    Ok(())
}

/// Oracle 3: warm-cache, pure-hit, and cleared-cache verification agree
/// on verdict and diagnostics.
pub fn check_cache(bundle: &DialectBundle, text: &str) -> Result<(), OracleFailure> {
    let mut ctx = bundle.instantiate();
    let Some(module) = parse_in(&mut ctx, text) else { return Ok(()) };

    let as_key = |r: &Result<(), Vec<irdl_ir::Diagnostic>>| match r {
        Ok(()) => "ok".to_string(),
        Err(errors) => format!("err: {}", render_errors(errors)),
    };

    let warm = ModuleVerifier::new().verify(&ctx, module);
    let hits = ModuleVerifier::new().verify(&ctx, module);
    ctx.clear_verdict_cache();
    let cold = ModuleVerifier::new().verify(&ctx, module);

    let (warm, hits, cold) = (as_key(&warm), as_key(&hits), as_key(&cold));
    if warm != hits || warm != cold {
        return Err(OracleFailure::new(
            "cache",
            format!("verdicts diverge: warm [{warm}] / cache-hit [{hits}] / cold [{cold}]"),
            text,
        ));
    }
    Ok(())
}

/// Oracle 4: the batch pipeline at 1 worker and at `jobs` workers
/// produces identical per-module results, in input order.
pub fn check_jobs(
    bundle: &DialectBundle,
    inputs: &[String],
    jobs: usize,
) -> Result<(), OracleFailure> {
    let patterns = oracle_patterns(bundle);
    let run = |jobs: usize| {
        let opts = PipelineOptions {
            jobs,
            verify: true,
            check: CheckLevel::Off,
            generic: false,
            matcher: MatcherMode::Auto,
        };
        run_batch(bundle, &patterns.0, inputs, &opts)
    };
    let sequential = run(1);
    let parallel = run(jobs.max(2));
    for (i, (a, b)) in sequential.results.iter().zip(&parallel.results).enumerate() {
        let same = match (a, b) {
            (Ok(a), Ok(b)) => a.output == b.output && a.rewrites == b.rewrites,
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        if !same {
            return Err(OracleFailure::new(
                "jobs",
                format!(
                    "module #{i} differs between --jobs 1 and --jobs {}: {:?} vs {:?}",
                    jobs.max(2),
                    a.as_ref().map(|m| &m.output),
                    b.as_ref().map(|m| &m.output),
                ),
                &inputs[i],
            ));
        }
    }
    Ok(())
}

/// Oracle 5: the checked driver at `Full` and `Incremental` agrees on
/// rewrite count, success, and printed output.
pub fn check_drive(bundle: &DialectBundle, text: &str) -> Result<(), OracleFailure> {
    let patterns = oracle_patterns(bundle);
    let mut outcomes: Vec<Result<(usize, String), String>> = Vec::new();
    for check in [CheckLevel::Full, CheckLevel::Incremental] {
        let mut ctx = bundle.instantiate();
        let Some(module) = parse_in(&mut ctx, text) else { return Ok(()) };
        let outcome = match rewrite_greedily_with(&mut ctx, module, &patterns.0, check) {
            Ok(stats) => Ok((stats.rewrites, op_to_string(&ctx, module))),
            Err(e) => Err(format!("pattern `{}`: {}", e.pattern, render_errors(&e.diagnostics))),
        };
        outcomes.push(outcome);
    }
    if outcomes[0] != outcomes[1] {
        return Err(OracleFailure::new(
            "drive",
            format!("Full {:?} vs Incremental {:?}", outcomes[0], outcomes[1]),
            text,
        ));
    }
    Ok(())
}

/// Oracle 6: automaton dispatch ≡ per-pattern scan.
///
/// Parses `catalog` (DSL pattern text) and drives `text` to a fixpoint
/// once per [`MatcherMode`] at `CheckLevel::Off`; the two runs must apply
/// the same number of rewrites and print byte-identical output. The
/// catalog must parse — the harness only feeds generated catalogs, so a
/// parse failure is itself a generator bug worth reporting.
pub fn check_matcher(
    bundle: &DialectBundle,
    catalog: &str,
    text: &str,
) -> Result<(), OracleFailure> {
    let mut outcomes: Vec<(usize, String)> = Vec::new();
    for mode in [MatcherMode::Scan, MatcherMode::Auto] {
        let mut ctx = bundle.instantiate();
        let patterns = match parse_patterns(&mut ctx, catalog) {
            Ok(patterns) => patterns,
            Err(e) => {
                return Err(OracleFailure::new(
                    "matcher",
                    format!("generated catalog does not parse: {e}\ncatalog:\n{catalog}"),
                    text,
                ));
            }
        };
        let Some(module) = parse_in(&mut ctx, text) else { return Ok(()) };
        let stats = rewrite_greedily_matched(&mut ctx, module, &patterns, CheckLevel::Off, mode)
            .expect("unchecked drive cannot fail");
        outcomes.push((stats.rewrites, op_to_string(&ctx, module)));
    }
    if outcomes[0] != outcomes[1] {
        return Err(OracleFailure::new(
            "matcher",
            format!(
                "scan vs automaton diverge:\nscan ({} rewrites):\n{}\nautomaton ({} rewrites):\n{}\ncatalog:\n{catalog}",
                outcomes[0].0, outcomes[0].1, outcomes[1].0, outcomes[1].1,
            ),
            text,
        ));
    }
    Ok(())
}

/// Oracle 7: bytecode round-trip is print-byte-identical.
///
/// Inputs the parser rejects pass vacuously, like the fixpoint oracle.
/// Accepted inputs must encode, the bytes must decode into a *fresh*
/// bundle instance (the load path a distributed pipeline would take), and
/// the decoded module must print exactly the original's printed form —
/// both pretty and generic.
pub fn check_bytecode(bundle: &DialectBundle, text: &str) -> Result<(), OracleFailure> {
    let mut ctx = bundle.instantiate();
    let Some(module) = parse_in(&mut ctx, text) else { return Ok(()) };
    let printed = op_to_string(&ctx, module);
    let generic = op_to_string_generic(&ctx, module);
    let bytes = encode_module(&ctx, module).map_err(|e| {
        OracleFailure::new("bytecode", format!("module does not encode: {e}"), text)
    })?;

    let mut ctx2 = bundle.instantiate();
    let decoded = decode_module(&mut ctx2, &bytes).map_err(|e| {
        OracleFailure::new(
            "bytecode",
            format!("encoded module does not decode: {e}\nprinted:\n{printed}"),
            text,
        )
    })?;
    let printed2 = op_to_string(&ctx2, decoded);
    if printed2 != printed {
        return Err(OracleFailure::new(
            "bytecode",
            format!(
                "decoded module prints differently:\noriginal:\n{printed}\ndecoded:\n{printed2}"
            ),
            text,
        ));
    }
    let generic2 = op_to_string_generic(&ctx2, decoded);
    if generic2 != generic {
        return Err(OracleFailure::new(
            "bytecode",
            format!(
                "decoded module prints differently (generic):\noriginal:\n{generic}\ndecoded:\n{generic2}"
            ),
            text,
        ));
    }
    Ok(())
}

/// The translation-validation pattern catalog: constant folding over the
/// bundle's semantics artifact plus source DCE. Both patterns are
/// semantics-preserving by design, so the oracle can demand bit-identical
/// observable behavior. (The random `pat`-dialect catalogs and the
/// derived canonicalization catalog are deliberately *not* validated this
/// way — operand-forwarding rewrites change behavior by construction.)
pub struct TvPatterns(pub PatternSet);

/// The TV catalog for `bundle`, built once through the typed artifact
/// store (alongside the bundle's [`Semantics`](irdl_interp::Semantics)).
pub fn tv_patterns(bundle: &DialectBundle) -> Arc<TvPatterns> {
    // Resolve the semantics artifact *before* entering `artifact_or_insert`:
    // the builder closure runs under the bundle's artifact write lock, and
    // `bundle_semantics` takes that same lock.
    let semantics = irdl_interp::bundle_semantics(bundle);
    bundle.artifact_or_insert(|| {
        let mut patterns = PatternSet::new();
        patterns.add(Arc::new(FoldConstants::new(Arc::new(semantics.0.clone()))));
        patterns.add(Arc::new(DceSourcePattern));
        patterns.seal();
        TvPatterns(patterns)
    })
}

/// Oracle 8: rewrites preserve observable behavior.
///
/// Executes `text` on the interpreter with inputs derived from `seed`,
/// then drives the TV catalog to a fixpoint (both matcher modes, checks
/// off — the *execution* is the check here) and executes again with the
/// same inputs. The observation digests — every value flowing into a sink
/// op, in order, plus the trap kind — must match exactly. Inputs the
/// parser rejects pass vacuously.
pub fn check_translation_validation(
    bundle: &DialectBundle,
    text: &str,
    seed: u64,
) -> Result<(), OracleFailure> {
    let semantics = irdl_interp::bundle_semantics(bundle);
    let opts = EvalOptions { input_seed: seed, ..EvalOptions::default() };

    let mut ctx = bundle.instantiate();
    let Some(module) = parse_in(&mut ctx, text) else { return Ok(()) };
    let baseline = run_module(&ctx, &semantics.0, module, opts);
    drop(ctx);

    let patterns = tv_patterns(bundle);
    for mode in [MatcherMode::Scan, MatcherMode::Auto] {
        let mut ctx = bundle.instantiate();
        let Some(module) = parse_in(&mut ctx, text) else { return Ok(()) };
        let stats = rewrite_greedily_matched(&mut ctx, module, &patterns.0, CheckLevel::Off, mode)
            .expect("unchecked drive cannot fail");
        let after = run_module(&ctx, &semantics.0, module, opts);
        if after.digest() != baseline.digest() {
            return Err(OracleFailure::new(
                "translation-validation",
                format!(
                    "observable behavior diverges after {} rewrites ({mode:?}, input seed \
                     {seed:#x}):\nbefore:\n{}after:\n{}rewritten module:\n{}",
                    stats.rewrites,
                    baseline.digest(),
                    after.digest(),
                    op_to_string(&ctx, module),
                ),
                text,
            )
            .with_seed(seed));
        }
    }
    Ok(())
}

/// Worker count the jobs oracle compares against `--jobs 1`.
pub const JOBS_ORACLE_WORKERS: usize = 4;

/// The seeds a single-input oracle may draw on beyond the input text.
#[derive(Debug, Clone, Copy)]
pub struct OracleSeeds {
    /// Seeds the incremental oracle's journaled mutation sequence.
    pub mutation: u64,
    /// Seeds the interpreter inputs translation validation executes on.
    pub input: u64,
}

impl OracleSeeds {
    /// Both seeds set to `seed`: a stored case records the one seed its
    /// oracle drew on.
    pub fn same(seed: u64) -> OracleSeeds {
        OracleSeeds { mutation: seed, input: seed }
    }
}

/// Which inputs the fuzz loop runs a single-input oracle on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleScope {
    /// Every generated module and its text mutants.
    Mutants,
    /// Every generated module.
    Modules,
    /// Batches of generated modules (the jobs oracle); replay and
    /// reduction run it on a one-module batch.
    Batches,
}

/// One single-input oracle.
pub struct Oracle {
    /// The name failures and stored cases carry.
    pub name: &'static str,
    /// Runs the oracle on one input.
    pub check: fn(&DialectBundle, &str, OracleSeeds) -> Result<(), OracleFailure>,
    /// Which inputs the fuzz loop runs it on.
    pub scope: OracleScope,
}

/// Every oracle that needs nothing but one input, in the order the fuzz
/// loop and [`replay_all`] run them. The matcher oracle is not here: it
/// also needs a pattern catalog.
pub const ORACLES: &[Oracle] = &[
    Oracle {
        name: "fixpoint",
        check: |bundle, text, _| check_fixpoint(bundle, text),
        scope: OracleScope::Mutants,
    },
    Oracle {
        name: "incremental",
        check: |bundle, text, seeds| check_incremental(bundle, text, seeds.mutation, 24),
        scope: OracleScope::Modules,
    },
    Oracle {
        name: "cache",
        check: |bundle, text, _| check_cache(bundle, text),
        scope: OracleScope::Mutants,
    },
    Oracle {
        name: "drive",
        check: |bundle, text, _| check_drive(bundle, text),
        scope: OracleScope::Modules,
    },
    Oracle {
        name: "bytecode",
        check: |bundle, text, _| check_bytecode(bundle, text),
        scope: OracleScope::Mutants,
    },
    Oracle {
        name: "jobs",
        check: |bundle, text, _| {
            check_jobs(bundle, &[text.to_string()], JOBS_ORACLE_WORKERS)
        },
        scope: OracleScope::Batches,
    },
    Oracle {
        name: "translation-validation",
        check: |bundle, text, seeds| check_translation_validation(bundle, text, seeds.input),
        scope: OracleScope::Mutants,
    },
];

/// Runs every oracle in [`ORACLES`] on `text`, collecting all
/// divergences.
pub fn replay_all(bundle: &DialectBundle, text: &str, seed: u64) -> Vec<OracleFailure> {
    ORACLES
        .iter()
        .filter_map(|oracle| (oracle.check)(bundle, text, OracleSeeds::same(seed)).err())
        .collect()
}
