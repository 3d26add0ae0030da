//! Differential testing of the incremental verifier against the full
//! module verifier.
//!
//! The contract under test: starting from valid IR, after any journaled
//! mutation the verdict of [`IncrementalVerifier::verify_changes`] (which
//! re-checks only the dirty set named by the [`ChangeJournal`]) must agree
//! with a from-scratch [`ModuleVerifier`] walk of the whole module — both
//! on mutations that preserve validity and on mutations that break it.
//!
//! Random mutation sequences are driven by a deterministic LCG, so every
//! failure is reproducible from its seed.
//!
//! The last group pins the verified stamp: a checked drive trusts a
//! module that a hooked [`ModuleVerifier`] just accepted, and every kind
//! of change in between (IR, registry, strictness, another root) must send
//! it back to a full walk with the diagnostics a walk gives.

use irdl_repro::dialects::showcase::{build_conorm_module, register_showcase};
use irdl_repro::ir::print::op_to_string;
use std::sync::Arc;

use irdl_repro::ir::dialect::simple_op_info;
use irdl_repro::ir::parse::parse_module;
use irdl_repro::ir::{
    ChangeJournal, Context, Diagnostic, IncrementalVerifier, ModuleVerifier, OpRef,
    OperationState,
};
use irdl_repro::rewrite::{
    rewrite_greedily_with, CheckLevel, PatternSet, RewritePattern, Rewriter,
};

// ---------------------------------------------------------------------------
// Deterministic randomness
// ---------------------------------------------------------------------------

/// A 64-bit LCG (Knuth's MMIX constants); deterministic across platforms.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// A fresh showcase context holding a straight-line `cmath.mul` chain.
fn chain_workload(n: usize) -> (Context, OpRef) {
    let mut ctx = Context::new();
    register_showcase(&mut ctx).expect("showcase registers");
    let f32 = ctx.f32_type();
    let f32a = ctx.type_attr(f32);
    let complex = ctx
        .parametric_type("cmath", "complex", [f32a])
        .expect("cmath registered");
    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let src = ctx.op_name("test", "source");
    let first = ctx.create_op(OperationState::new(src).add_result_types([complex]));
    ctx.append_op(block, first);
    let mut value = first.result(&ctx, 0);
    let mul = ctx.op_name("cmath", "mul");
    for _ in 0..n {
        let op = ctx.create_op(
            OperationState::new(mul)
                .add_operands([value, value])
                .add_result_types([complex]),
        );
        ctx.append_op(block, op);
        value = op.result(&ctx, 0);
    }
    (ctx, module)
}

/// The paper's conorm showcase module (nested region, block arguments).
fn conorm_workload() -> (Context, OpRef) {
    let mut ctx = Context::new();
    register_showcase(&mut ctx).expect("showcase registers");
    let module = build_conorm_module(&mut ctx).expect("conorm builds");
    (ctx, module)
}

// ---------------------------------------------------------------------------
// Validity-preserving random mutations
// ---------------------------------------------------------------------------

/// Applies one random journaled mutation at a random top-level op; all
/// variants keep valid IR valid. Returns `false` if the chosen variant was
/// inapplicable at the chosen anchor (journal untouched or trivially so).
fn mutate(ctx: &mut Context, module: OpRef, journal: &mut ChangeJournal, rng: &mut Lcg) -> bool {
    let block = ctx.module_block(module);
    let ops = block.ops(ctx).to_vec();
    if ops.is_empty() {
        return false;
    }
    let anchor = ops[rng.below(ops.len())];
    let mul = ctx.op_name("cmath", "mul");
    let src = ctx.op_name("t", "src");
    match rng.below(4) {
        // Insert a fresh unregistered source op before a random anchor: no
        // operands, no uses, valid anywhere in the block.
        0 => {
            let ty = ctx.i32_type();
            let mut rewriter = Rewriter::new(ctx, anchor, journal);
            rewriter.insert_before(anchor, OperationState::new(src).add_result_types([ty]));
            true
        }
        // Square a mul's input right before it: the new mul reuses the
        // anchor's own operand, which by induction dominates the anchor.
        1 => {
            if anchor.name(ctx) != mul {
                return false;
            }
            let x = anchor.operand(ctx, 0);
            let ty = anchor.result_types(ctx)[0];
            let mut rewriter = Rewriter::new(ctx, anchor, journal);
            rewriter.insert_before(
                anchor,
                OperationState::new(mul).add_operands([x, x]).add_result_types([ty]),
            );
            true
        }
        // Fold a mul away: forward its input to every user, then erase it.
        // The input is defined before the mul, so it dominates every use of
        // the mul's result.
        2 => {
            if anchor.name(ctx) != mul {
                return false;
            }
            let x = anchor.operand(ctx, 0);
            let mut rewriter = Rewriter::new(ctx, anchor, journal);
            rewriter.replace_root(&[x]);
            true
        }
        // Append a fresh source op, then move it before a random anchor:
        // exercises the move path (order-key refresh, displaced-neighbour
        // journaling) with an op that has no operands and no uses.
        _ => {
            let ty = ctx.i32_type();
            let mut rewriter = Rewriter::new(ctx, anchor, journal);
            let fresh = rewriter.append(block, OperationState::new(src).add_result_types([ty]));
            rewriter.move_before(fresh, anchor);
            true
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

/// Random valid mutation sequences: at every step the incremental verdict
/// must match a from-scratch full-module walk (both `Ok` here, since every
/// mutation preserves validity — a disagreement means the dirty set missed
/// something or the incremental checks are too strict).
#[test]
fn random_valid_mutations_agree_with_full_oracle() {
    let workloads: Vec<(Context, OpRef)> =
        vec![chain_workload(16), conorm_workload()];
    for (w, (ctx0, module)) in workloads.into_iter().enumerate() {
        for seed in 0..6u64 {
            let mut ctx = ctx0.clone();
            let mut rng = Lcg(0x9E3779B97F4A7C15 ^ (seed << 8) ^ w as u64);
            let mut incremental = IncrementalVerifier::new();
            incremental
                .verify_full(&ctx, module)
                .expect("workload starts valid");
            let mut journal = ChangeJournal::new();
            for step in 0..30 {
                journal.clear();
                mutate(&mut ctx, module, &mut journal, &mut rng);
                let incr = incremental.verify_changes(&ctx, &journal);
                let full = ModuleVerifier::new().verify(&ctx, module);
                assert!(
                    incr.is_ok() && full.is_ok(),
                    "workload {w} seed {seed} step {step}: incremental {:?} vs full {:?}\n{}",
                    incr.as_ref().map_err(|e| e[0].to_string()),
                    full.as_ref().map_err(|e| e[0].to_string()),
                    op_to_string(&ctx, module),
                );
            }
        }
    }
}

/// A seeded dominance-breaking mutation: inserting a use of a value
/// *before* its definition must be caught by the incremental verifier
/// (the created op is in the dirty set) exactly as the full oracle does.
#[test]
fn dominance_break_is_caught_by_both_verifiers() {
    let (mut ctx, module) = chain_workload(8);
    let mut incremental = IncrementalVerifier::new();
    incremental.verify_full(&ctx, module).expect("chain starts valid");

    let block = ctx.module_block(module);
    // Pick a mid-block mul and insert a use of its own result before it.
    let def = block.ops(&ctx)[4];
    let bad_result = def.result(&ctx, 0);
    let ty = def.result_types(&ctx)[0];
    let use_name = ctx.op_name("t", "use");
    let mut journal = ChangeJournal::new();
    let mut rewriter = Rewriter::new(&mut ctx, def, &mut journal);
    rewriter.insert_before(
        def,
        OperationState::new(use_name).add_operands([bad_result]).add_result_types([ty]),
    );

    let incr = incremental.verify_changes(&ctx, &journal).unwrap_err();
    let full = ModuleVerifier::new().verify(&ctx, module).unwrap_err();
    assert!(
        incr.iter().any(|d| d.message().contains("dominates")),
        "incremental must report the dominance break, got: {}",
        incr[0]
    );
    assert!(
        full.iter().any(|d| d.message().contains("dominates")),
        "full oracle must report the dominance break, got: {}",
        full[0]
    );
}

/// Erasing the offending op afterwards must bring both verdicts back to
/// `Ok` — the journal's erasure scrubbing may not leave a dangling dirty
/// entry behind.
#[test]
fn erasing_the_offender_restores_agreement() {
    let (mut ctx, module) = chain_workload(8);
    let mut incremental = IncrementalVerifier::new();
    incremental.verify_full(&ctx, module).expect("chain starts valid");

    let block = ctx.module_block(module);
    let def = block.ops(&ctx)[4];
    let bad_result = def.result(&ctx, 0);
    let ty = def.result_types(&ctx)[0];
    let use_name = ctx.op_name("t", "use");
    let mut journal = ChangeJournal::new();
    let mut rewriter = Rewriter::new(&mut ctx, def, &mut journal);
    let bad = rewriter.insert_before(
        def,
        OperationState::new(use_name).add_operands([bad_result]).add_result_types([ty]),
    );
    assert!(incremental.verify_changes(&ctx, &journal).is_err());

    journal.clear();
    let mut rewriter = Rewriter::new(&mut ctx, def, &mut journal);
    rewriter.erase(bad);
    let incr = incremental.verify_changes(&ctx, &journal);
    let full = ModuleVerifier::new().verify(&ctx, module);
    assert!(incr.is_ok(), "incremental: {}", incr.unwrap_err()[0]);
    assert!(full.is_ok(), "full: {}", full.unwrap_err()[0]);
}

/// Driver-level equivalence: the same pattern set driven at
/// `CheckLevel::Full` and `CheckLevel::Incremental` must apply the same
/// rewrites and produce byte-identical output.
#[test]
fn checked_driver_levels_agree_end_to_end() {
    struct MulToSqr {
        mul: irdl_repro::ir::OpName,
        sqr: irdl_repro::ir::OpName,
    }

    impl RewritePattern for MulToSqr {
        fn root(&self) -> Option<irdl_repro::ir::OpName> {
            Some(self.mul)
        }
        fn name(&self) -> &str {
            "mul-to-sqr"
        }
        fn match_and_rewrite(&self, rewriter: &mut Rewriter<'_>) -> bool {
            let op = rewriter.root();
            let ctx = rewriter.ctx();
            if op.num_operands(ctx) != 2 || op.operand(ctx, 0) != op.operand(ctx, 1) {
                return false;
            }
            let x = op.operand(ctx, 0);
            let ty = op.result_types(ctx)[0];
            let sqr = rewriter.insert_before_root(
                OperationState::new(self.sqr).add_operands([x]).add_result_types([ty]),
            );
            let replacement = sqr.result(rewriter.ctx(), 0);
            rewriter.replace_root(&[replacement]);
            true
        }
    }

    let (mut ctx, module) = chain_workload(24);
    let mut patterns = PatternSet::new();
    let mul = ctx.op_name("cmath", "mul");
    let sqr = ctx.op_name("t", "sqr");
    patterns.add(std::sync::Arc::new(MulToSqr { mul, sqr }));

    let mut outputs = Vec::new();
    for check in [CheckLevel::Full, CheckLevel::Incremental] {
        let mut ctx = ctx.clone();
        let stats = rewrite_greedily_with(&mut ctx, module, &patterns, check)
            .expect("the chain stays valid under rewriting");
        assert_eq!(stats.rewrites, 24, "one rewrite per chain op at {check:?}");
        outputs.push(op_to_string(&ctx, module));
    }
    assert_eq!(outputs[0], outputs[1], "Full and Incremental must produce identical IR");
}

// ---------------------------------------------------------------------------
// The verified stamp
// ---------------------------------------------------------------------------

/// Showcase IR with registered ops (a constant, two multiplications, a
/// norm) between unregistered `test` ops.
const STAMPED: &str = r#"
%p = "test.arg"() : () -> !cmath.complex<f32>
%c = "arith.constant"() {value = 1.5 : f32} : () -> f32
%a = "arith.mulf"(%c, %c) : (f32, f32) -> f32
%b = "arith.mulf"(%a, %c) : (f32, f32) -> f32
%n = "cmath.norm"(%p) : (!cmath.complex<f32>) -> f32
"test.sink"(%b, %n) : (f32, f32) -> ()
"#;

/// A showcase context holding [`STAMPED`], verified (so stamped), and the
/// module's top-level ops.
fn stamped_workload() -> (Context, OpRef, Vec<OpRef>) {
    let mut ctx = Context::new();
    register_showcase(&mut ctx).expect("showcase registers");
    let module = parse_module(&mut ctx, STAMPED).expect("stamped input parses");
    ModuleVerifier::new().verify(&ctx, module).expect("stamped input verifies");
    assert!(ctx.is_verified(module), "a successful verify stamps its root");
    let ops = ctx.module_block(module).ops(&ctx).to_vec();
    (ctx, module, ops)
}

fn rendered(diagnostics: &[Diagnostic]) -> Vec<String> {
    diagnostics.iter().map(ToString::to_string).collect()
}

/// A checked drive over `module` must reject it as `<input>`, with exactly
/// the diagnostics a from-scratch walk reports; returns them.
fn drive_rejects_input(ctx: &mut Context, module: OpRef) -> Vec<String> {
    assert!(!ctx.is_verified(module), "the stamp must be stale");
    let err = rewrite_greedily_with(ctx, module, &PatternSet::new(), CheckLevel::Incremental)
        .expect_err("the invalid module must be rejected");
    assert_eq!(err.pattern, "<input>");
    let walked = ModuleVerifier::new().verify(ctx, module).expect_err("a walk rejects it too");
    assert_eq!(rendered(&err.diagnostics), rendered(&walked));
    rendered(&walked)
}

#[test]
fn stamp_goes_stale_on_non_dominating_operand() {
    let (mut ctx, module, ops) = stamped_workload();
    // `%a = mulf(%c, %c)` now reads `%b`, defined after it.
    let later = ops[3].result(&ctx, 0);
    ctx.set_operand(ops[2], 0, later);
    let diags = drive_rejects_input(&mut ctx, module);
    assert!(diags[0].contains("operand #0 is used before its definition"), "{diags:?}");
}

#[test]
fn stamp_goes_stale_on_use_before_def_insertion() {
    let (mut ctx, module, ops) = stamped_workload();
    let b = ops[3].result(&ctx, 0);
    let use_name = ctx.op_name("test", "use");
    let user = ctx.create_op(OperationState::new(use_name).add_operands([b]));
    ctx.insert_op_before(ops[3], user);
    let diags = drive_rejects_input(&mut ctx, module);
    assert!(diags[0].contains("dominates the use"), "{diags:?}");
}

#[test]
fn stamp_goes_stale_on_constraint_violating_attribute() {
    let (mut ctx, module, ops) = stamped_workload();
    let key = ctx.symbol("value");
    let text = ctx.string_attr("not a float");
    ctx.set_attr(ops[1], key, text);
    let diags = drive_rejects_input(&mut ctx, module);
    assert!(diags[0].contains("arith.constant"), "{diags:?}");
}

#[test]
fn stamp_goes_stale_on_registry_change() {
    let (mut ctx, module, _) = stamped_workload();
    // Re-register `arith.mulf` with a verifier that rejects every op.
    let arith = ctx.symbol("arith");
    let mulf = ctx.symbol("mulf");
    let mut info = simple_op_info(mulf, "rejects everything");
    info.verifier = Some(Arc::new(|_: &Context, _: OpRef| -> irdl_repro::ir::Result<()> {
        Err(Diagnostic::new("mulf is retired"))
    }));
    ctx.registry_mut().dialect_mut(arith).expect("arith is registered").add_op(info);
    let diags = drive_rejects_input(&mut ctx, module);
    assert!(diags[0].contains("mulf is retired"), "{diags:?}");
}

#[test]
fn stamp_goes_stale_when_unregistered_ops_are_forbidden() {
    let (mut ctx, module, _) = stamped_workload();
    ctx.set_allow_unregistered(false);
    let diags = drive_rejects_input(&mut ctx, module);
    assert!(diags[0].contains("unregistered dialect"), "{diags:?}");
}

#[test]
fn stamp_answers_only_for_its_root() {
    let mut ctx = Context::new();
    register_showcase(&mut ctx).expect("showcase registers");
    let invalid = parse_module(&mut ctx, STAMPED).expect("second module parses");
    let block = ctx.module_block(invalid);
    let (def, user) = (block.ops(&ctx)[2], block.ops(&ctx)[3]);
    ctx.detach_op(def);
    ctx.insert_op_after(user, def);
    let valid = parse_module(&mut ctx, STAMPED).expect("stamped input parses");
    ModuleVerifier::new().verify(&ctx, valid).expect("stamped input verifies");
    assert!(ctx.is_verified(valid));
    let diags = drive_rejects_input(&mut ctx, invalid);
    assert!(diags[0].contains("dominates the use"), "{diags:?}");
}

/// With nothing changed since the verify, the drive's up-front check does
/// not walk: no registered verifier runs, so the verdict-cache counters
/// stay put. After any change it walks again and they move.
#[test]
fn unchanged_stamped_module_is_not_walked_again() {
    let (mut ctx, module, ops) = stamped_workload();
    let before = ctx.verdict_cache_stats();
    rewrite_greedily_with(&mut ctx, module, &PatternSet::new(), CheckLevel::Incremental)
        .expect("the stamped module is valid");
    assert_eq!(ctx.verdict_cache_stats(), before, "the trusted check ran no verifier");
    assert!(ctx.is_verified(module), "a drive that changed nothing keeps the stamp");

    // A change that keeps the module valid: rewire `%b = mulf(%a, %c)` to
    // `mulf(%c, %c)`.
    let c = ops[1].result(&ctx, 0);
    ctx.set_operand(ops[3], 0, c);
    assert!(!ctx.is_verified(module));
    rewrite_greedily_with(&mut ctx, module, &PatternSet::new(), CheckLevel::Incremental)
        .expect("the rewired module is valid");
    assert_ne!(ctx.verdict_cache_stats(), before, "a stale stamp means a full walk");
}
