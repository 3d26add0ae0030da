//! Soundness tests for the verifier fast path's verdict memoization.
//!
//! The cache in [`irdl_ir::Context`] may only hold verdicts of *pure*
//! subprograms — constraints whose outcome depends on nothing but the
//! (uniqued) value itself. These tests pin the two ways that could go
//! wrong: caching a variable-bearing constraint across binding
//! environments, and key collisions between programs or values.

use irdl::ast::Variadicity;
use irdl::constraint::Constraint;
use irdl::program::EvalScratch;
use irdl::artifact::ArgRecipe;
use irdl::verifier::CompiledOp;
use irdl::OpRecipe;
use irdl_ir::{Context, OpRef, OperationState, Type};

fn arg(name: &str, constraint: Constraint) -> ArgRecipe {
    ArgRecipe { name: name.into(), constraint, variadicity: Variadicity::Single }
}

/// Lowers `recipe` as the op `t.op`.
fn compile(ctx: &mut Context, recipe: OpRecipe) -> CompiledOp {
    let dialect = ctx.symbol("t");
    let recipe = std::sync::Arc::new(OpRecipe { name: "op".into(), ..recipe });
    CompiledOp::new(ctx, dialect, recipe, None)
}

fn one_operand_op(ctx: &mut Context, constraint: Constraint) -> CompiledOp {
    compile(ctx, OpRecipe { operands: vec![arg("x", constraint)], ..OpRecipe::default() })
}

/// Creates a detached `t.op` whose operands have the given types.
fn op_with_operands(ctx: &mut Context, types: &[Type]) -> OpRef {
    let def_name = ctx.op_name("t", "def");
    let operands: Vec<irdl_ir::Value> = types
        .iter()
        .map(|&ty| {
            let def = ctx.create_op(OperationState::new(def_name).add_result_types([ty]));
            def.result(ctx, 0)
        })
        .collect();
    let name = ctx.op_name("t", "op");
    ctx.create_op(OperationState::new(name).add_operands(operands))
}

/// Variable-bearing constraints must never be memoized: the same
/// `AnyOf`-with-variable must be free to bind differently on different
/// operations.
#[test]
fn variable_bearing_constraints_are_never_cached() {
    let mut ctx = Context::new();
    let f32 = ctx.f32_type();
    let f64 = ctx.f64_type();
    let i32 = ctx.i32_type();

    let choice = Constraint::AnyOf(vec![Constraint::Var(0), Constraint::ExactType(i32)]);
    let recipe = OpRecipe {
        var_names: vec!["T".into()],
        var_decls: vec![Constraint::AnyType],
        operands: vec![arg("lhs", choice.clone()), arg("rhs", choice)],
        ..OpRecipe::default()
    };
    let program = compile(&mut ctx, recipe);
    assert_eq!(
        program.program().num_cache_slots(),
        0,
        "a subprogram containing Var must not get a cache slot"
    );

    let mut scratch = EvalScratch::new();
    // T binds to f32 on the first op and to f64 on the second; a cached
    // verdict from the first environment would corrupt the second.
    let both_f32 = op_with_operands(&mut ctx, &[f32, f32]);
    let both_f64 = op_with_operands(&mut ctx, &[f64, f64]);
    let mixed = op_with_operands(&mut ctx, &[f32, f64]);
    assert!(program.check(&ctx, both_f32, &mut scratch));
    assert!(program.check(&ctx, both_f64, &mut scratch));
    assert!(!program.check(&ctx, mixed, &mut scratch), "T must be equal at every use");
    assert_eq!(ctx.verdict_cache_len(), 0, "nothing here is pure enough to cache");
}

/// Pure verdicts are keyed per `(program, value)`: a verdict cached while
/// an op *failed* must not leak a stale result into a later passing op.
#[test]
fn failing_op_does_not_poison_passing_op() {
    let mut ctx = Context::new();
    let f32 = ctx.f32_type();
    let f64 = ctx.f64_type();
    let i32 = ctx.i32_type();
    let cmath = ctx.symbol("cmath");
    let complex = ctx.symbol("complex");
    let mk_complex = |ctx: &mut Context, elem: Type| {
        let a = ctx.type_attr(elem);
        ctx.parametric_type_syms(cmath, complex, vec![a]).unwrap()
    };
    let complex_i32 = mk_complex(&mut ctx, i32);
    let complex_f32 = mk_complex(&mut ctx, f32);

    let elem = Constraint::ParametricType {
        dialect: cmath,
        name: complex,
        params: vec![Constraint::AnyOf(vec![
            Constraint::ExactType(f32),
            Constraint::ExactType(f64),
        ])],
    };
    let program = one_operand_op(&mut ctx, elem);
    assert!(program.program().num_cache_slots() >= 1, "the parametric pattern is pure");

    let mut scratch = EvalScratch::new();
    let bad = op_with_operands(&mut ctx, &[complex_i32]);
    assert!(!program.check(&ctx, bad, &mut scratch));
    assert!(ctx.verdict_cache_len() > 0, "the failing verdict itself is memoized");

    // The passing op's operand is a *different* uniqued value, hence a
    // different key: the cached `false` must not apply to it.
    let good = op_with_operands(&mut ctx, &[complex_f32]);
    assert!(program.check(&ctx, good, &mut scratch));

    // Re-verifying serves the pure verdict from the cache.
    let (hits_before, _) = ctx.verdict_cache_stats();
    assert!(program.check(&ctx, good, &mut scratch));
    let (hits_after, _) = ctx.verdict_cache_stats();
    assert!(hits_after > hits_before, "second verification must hit the cache");
}

/// Two programs with structurally different constraints must own disjoint
/// key domains, even when checking the same uniqued value.
#[test]
fn distinct_programs_never_share_cache_keys() {
    let mut ctx = Context::new();
    let f32 = ctx.f32_type();
    let f64 = ctx.f64_type();

    // Both programs cache a verdict for the *same* CVal (f64). If their
    // domains overlapped, program B would read A's `false`.
    let program_a = one_operand_op(&mut ctx, Constraint::And(vec![Constraint::ExactType(f32)]));
    let program_b = one_operand_op(&mut ctx, Constraint::And(vec![Constraint::ExactType(f64)]));

    let mut scratch = EvalScratch::new();
    let op = op_with_operands(&mut ctx, &[f64]);
    assert!(!program_a.check(&ctx, op, &mut scratch));
    assert!(program_b.check(&ctx, op, &mut scratch));
}

/// A rejection is re-run in explain mode, which bypasses the verdict
/// cache: rendering the message reads and writes no cache entry, even
/// when the silent verdict came from the cache.
#[test]
fn explained_rejections_leave_the_cache_alone() {
    use irdl_ir::OpVerifier;

    let mut ctx = Context::new();
    let f32 = ctx.f32_type();
    let i32 = ctx.i32_type();
    let pure = Constraint::AnyOf(vec![Constraint::ExactType(f32)]);
    let compiled = one_operand_op(&mut ctx, pure);

    let good = op_with_operands(&mut ctx, &[f32]);
    assert!(compiled.verify(&ctx, good).is_ok());

    let bad = op_with_operands(&mut ctx, &[i32]);
    let mut scratch = EvalScratch::new();
    assert!(!compiled.check(&ctx, bad, &mut scratch), "warms the cache with the rejection");
    let (entries, stats) = (ctx.verdict_cache_len(), ctx.verdict_cache_stats());
    let err = compiled.verify(&ctx, bad).unwrap_err();
    assert_eq!(
        err.message(),
        "operand `x` is invalid: i32 satisfied no alternative: expected type f32, got i32"
    );
    let (hits, misses) = ctx.verdict_cache_stats();
    assert_eq!((hits, misses), (stats.0 + 1, stats.1), "only the silent pass reads the cache");
    assert_eq!(ctx.verdict_cache_len(), entries);
}

/// Dialect `re`: `outer`'s native verifier holds an evaluation scratch
/// from the context's pool, as a verifier mid-check does, and re-enters
/// `verify_op` on the last op of its region meanwhile.
const REENTRANT_SPEC: &str = r#"
Dialect re {
  Operation leaf {
    Operands (x: !AnyOf<!f32, !f64>)
  }
  Operation outer {
    Operands (x: !AnyOf<!f32, !f64>)
    Region body { }
    NativeVerifier "reenter"
  }
}
"#;

/// A context with `re` registered and its `reenter` hook installed.
fn reentrant_context() -> Context {
    use irdl_ir::verify::verify_op;

    let mut natives = irdl::NativeRegistry::new();
    natives.register_op_verifier(
        "reenter",
        std::sync::Arc::new(|ctx: &Context, op: OpRef| {
            let block = op.region(ctx, 0).entry_block(ctx).expect("outer has a body block");
            let last = *block.ops(ctx).last().expect("outer's body is not empty");
            let held = ctx.take_eval_scratch();
            let nested = verify_op(ctx, last).map_err(|errs| errs[0].clone());
            if let Some(scratch) = held {
                ctx.put_eval_scratch(scratch);
            }
            nested
        }),
    );
    let mut ctx = Context::new();
    irdl::register_dialects_with(&mut ctx, REENTRANT_SPEC, &natives).expect("spec compiles");
    ctx
}

/// `depth` nested `re.outer` ops, each holding a valid `re.leaf`; the
/// innermost region ends in a leaf whose operand has type `ty`.
fn reentrant_module(depth: usize, ty: &str) -> String {
    let mut text = String::from("%f = \"t.def\"() : () -> f32\n");
    text.push_str(&format!("%v = \"t.def\"() : () -> {ty}\n"));
    for _ in 0..depth {
        text.push_str("\"re.outer\"(%f) ({\n\"re.leaf\"(%f) : (f32) -> ()\n");
    }
    text.push_str(&format!("\"re.leaf\"(%v) : ({ty}) -> ()\n"));
    text.push_str(&"}) : (f32) -> ()\n".repeat(depth));
    text
}

/// The verdict of verifying `text` in `ctx`, with every diagnostic.
fn verdict(ctx: &mut Context, text: &str) -> Result<(), Vec<String>> {
    let module = irdl_ir::parse::parse_module(ctx, text).expect("module parses");
    let result = irdl_ir::verify::verify_op(ctx, module)
        .map_err(|errs| errs.iter().map(ToString::to_string).collect());
    ctx.erase_op(module);
    result
}

/// A native op verifier may re-enter verification on the same context in
/// the middle of a check: the verdict cache and the evaluation-scratch
/// pool are borrowed only inside the calls that use them, so a nested run
/// finds neither borrowed. One long-lived context, its cache warming
/// module after module, reaches the same verdicts as a fresh context per
/// module. Its scratch pool grows with the nesting (several scratches
/// were in flight at once) and stays within its cap of 64.
#[test]
fn reentrant_native_verifier_matches_a_fresh_context() {
    let mut shared = reentrant_context();
    for round in 0..3 {
        for depth in [1, 2, 6] {
            for ty in ["f32", "f64", "i32"] {
                let text = reentrant_module(depth, ty);
                let expected = verdict(&mut reentrant_context(), &text);
                assert_eq!(expected.is_ok(), ty != "i32", "{text}");
                assert_eq!(verdict(&mut shared, &text), expected, "round {round}: {text}");
            }
        }
    }
    let (hits, _) = shared.verdict_cache_stats();
    assert!(hits > 0, "later rounds read verdicts the first one cached");
    let parked = std::iter::from_fn(|| shared.take_eval_scratch()).count();
    assert!((2..=64).contains(&parked), "{parked} scratches parked");
}
