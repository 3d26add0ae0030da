//! Differential fold testing: folding then interpreting must match
//! interpreting the original module, observation for observation.
//!
//! Two halves:
//!
//! - the *equivalence* tests drive the constant-folding catalog over
//!   stored corpus modules, hand-written structured-control-flow modules,
//!   and freshly generated random modules, comparing execution digests
//!   before and after;
//! - the *planted-bug drill* sabotages the constant materializer
//!   (off-by-one), proves the translation-validation oracle catches the
//!   resulting miscompile, ddmin-reduces the reproducer, and pins the
//!   reduced form against the promoted regression case in
//!   `fuzz/corpus-regressions/interp-fold-drill.mlir`.

use std::path::PathBuf;
use std::sync::Arc;

use irdl_repro::dialects::eval::{
    register_builtin_eval, register_complex_eval, register_fuzz_eval, register_scf_eval,
};
use irdl_repro::fuzz::{
    check_translation_validation, generate_module, load_case, oracle_fails, reduce, FuzzTarget,
    GenConfig, SplitMix64,
};
use irdl_repro::interp::{int_width, run_module, EvalOptions, EvalRegistry, EvalValue};
use irdl_repro::ir::print::op_to_string;
use irdl_repro::ir::{Context, OperationState, Type};
use irdl_repro::rewrite::{fold_patterns, rewrite_greedily};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus-regressions")
}

/// Asserts fold-then-interpret ≡ interpret for `text` across input
/// seeds. Returns `false` without checking anything when `text` does not
/// parse (some stored regression cases pin parser rejections).
fn assert_fold_equivalent(target: &FuzzTarget, text: &str, label: &str) -> bool {
    let semantics = &target.semantics;
    for seed in [0u64, 0x5EED, 0xFEED_F00D] {
        let opts = EvalOptions { input_seed: seed, ..EvalOptions::default() };
        let mut ctx = target.bundle.instantiate();
        let Ok(module) = irdl_repro::ir::parse::parse_module(&mut ctx, text) else {
            return false;
        };
        let before = run_module(&ctx, semantics, module, opts);
        let patterns = fold_patterns(semantics.clone());
        rewrite_greedily(&mut ctx, module, &patterns);
        let after = run_module(&ctx, semantics, module, opts);
        assert_eq!(
            before.digest(),
            after.digest(),
            "{label} (seed {seed:#x}) diverges after folding:\n{}",
            op_to_string(&ctx, module)
        );
    }
    true
}

#[test]
fn stored_corpus_cases_fold_equivalently() {
    let target = FuzzTarget::corpus().expect("corpus compiles");
    let mut replayed = 0;
    for entry in std::fs::read_dir(corpus_dir()).expect("corpus dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "mlir") {
            continue;
        }
        let case = load_case(&path).expect("case loads");
        if assert_fold_equivalent(&target, &case.text, &path.display().to_string()) {
            replayed += 1;
        }
    }
    assert!(replayed >= 3, "expected the stored corpus, found {replayed} parsed case(s)");
}

#[test]
fn structured_control_flow_folds_equivalently() {
    let target = FuzzTarget::corpus().expect("corpus compiles");
    // Constant arithmetic feeding a counted loop: the bounds fold, the
    // loop must still run the same number of iterations.
    let text = r#""builtin.module"() ({
  %lo = "fuzz.const"() {value = 0 : index} : () -> index
  %hi = "fuzz.const"() {value = 4 : index} : () -> index
  %st = "fuzz.const"() {value = 1 : index} : () -> index
  %init = "fuzz.const"() {value = 3 : i32} : () -> i32
  %inc = "fuzz.const"() {value = 2 : i32} : () -> i32
  %sum = "scf.for_op"(%lo, %hi, %st, %init) ({
  ^entry(%iv: index, %acc: i32):
    %next = "fuzz.addi"(%acc, %inc) : (i32, i32) -> i32
    "scf.yield"(%next) : (i32) -> ()
  }) : (index, index, index, i32) -> i32
  "fuzz.sink"(%sum) : (i32) -> ()
}) : () -> ()"#;
    assert_fold_equivalent(&target, text, "scf.for over folded bounds");

    // A trapping division must not fold away: digest equality here means
    // the div-by-zero trap survives at the same observation point.
    let trap = r#""builtin.module"() ({
  %a = "fuzz.const"() {value = 5 : i32} : () -> i32
  %b = "fuzz.const"() {value = -5 : i32} : () -> i32
  %z = "fuzz.addi"(%a, %b) : (i32, i32) -> i32
  %q = "fuzz.divi"(%a, %z) : (i32, i32) -> i32
  "fuzz.sink"(%q) : (i32) -> ()
}) : () -> ()"#;
    assert_fold_equivalent(&target, trap, "division by folded zero");
}

#[test]
fn generated_modules_fold_equivalently() {
    let target = FuzzTarget::corpus().expect("corpus compiles");
    let config = GenConfig::default();
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(0xF01D_0000 + seed);
        let mut ctx = target.bundle.instantiate();
        let module = generate_module(&mut ctx, &target.catalog, &config, &mut rng);
        let text = op_to_string(&ctx, module);
        drop(ctx);
        assert_fold_equivalent(&target, &text, &format!("generated module #{seed}"));
    }
}

/// The corpus semantics with one planted bug: an off-by-one constant
/// materializer registered ahead of the real one, so every folded integer
/// comes back as `value + 1`. The evaluators stay correct — only the
/// fold's output is miscompiled, exactly the class of bug translation
/// validation exists to catch.
fn sabotaged_semantics() -> EvalRegistry {
    let mut reg = EvalRegistry::new();
    reg.register_materializer(Arc::new(
        |ctx: &mut Context, value: &EvalValue, ty: Type| {
            let EvalValue::Int { value, .. } = *value else { return None };
            int_width(ctx, ty)?;
            let attr = ctx.int_attr(value.wrapping_add(1), ty);
            let name = ctx.op_name("fuzz", "const");
            let key = ctx.symbol("value");
            Some(OperationState::new(name).add_result_types([ty]).add_attribute(key, attr))
        },
    ));
    register_builtin_eval(&mut reg);
    register_scf_eval(&mut reg);
    register_complex_eval(&mut reg);
    register_fuzz_eval(&mut reg);
    reg
}

#[test]
fn planted_fold_bug_is_caught_and_reduced_to_the_stored_case() {
    // The target's translation-validation catalog folds over the
    // sabotaged semantics, so the fold materializes through the planted
    // bug.
    let target = FuzzTarget::from_sources(
        &irdl_repro::dialects::corpus_sources(),
        &irdl_repro::dialects::corpus_natives(),
        sabotaged_semantics(),
    )
    .expect("corpus compiles");

    // The unreduced reproducer: the miscompiled constant chain plus
    // unrelated live ops for the reducer to strip.
    let text = r#""builtin.module"() ({
  %d0 = "fuzz.src"() {entropy = 9 : i64} : () -> i64
  %d1 = "fuzz.use"(%d0) : (i64) -> i1
  "fuzz.sink"(%d1) : (i1) -> ()
  %a = "fuzz.const"() {value = 6 : i32} : () -> i32
  %b = "fuzz.const"() {value = 7 : i32} : () -> i32
  %m = "fuzz.muli"(%a, %b) : (i32, i32) -> i32
  "fuzz.sink"(%m) : (i32) -> ()
}) : () -> ()"#;
    let seed = 0xD11A_u64;

    // Drill step 1: the oracle must catch the miscompile.
    let failure = check_translation_validation(&target, text, seed)
        .expect_err("planted fold bug must diverge");
    assert_eq!(failure.oracle, "translation-validation");
    assert!(
        failure.detail.contains("observable behavior diverges"),
        "unexpected detail: {}",
        failure.detail
    );

    // Drill step 2: ddmin must strip the decoys while the divergence
    // keeps reproducing, under the predicate `irdl-fuzz` reduces with.
    let mut predicate =
        |candidate: &str| oracle_fails(&target, failure.oracle, seed, candidate);
    let reduced = reduce(&target.bundle, text, &mut predicate);
    assert!(predicate(&reduced), "reduction must preserve the failure");
    assert!(!reduced.contains("fuzz.src"), "decoy ops must be stripped:\n{reduced}");
    assert!(reduced.contains("fuzz.muli"), "the folded op must survive:\n{reduced}");

    // Drill step 3: the reduced form is exactly the promoted regression
    // case (minus its metadata header), which `tests/fuzz_regressions.rs`
    // replays green against the real, unsabotaged semantics.
    let stored = load_case(&corpus_dir().join("interp-fold-drill.mlir"))
        .expect("promoted drill case exists");
    assert_eq!(stored.oracle, "translation-validation");
    assert_eq!(stored.seed, seed);
    let stored_body: String = stored
        .text
        .lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(
        stored_body.trim(),
        reduced.trim(),
        "the stored case must pin the reduced reproducer"
    );
}
