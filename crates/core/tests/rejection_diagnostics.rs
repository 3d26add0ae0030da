//! Golden-message tests for *verifier rejection* diagnostics.
//!
//! The compile-error catalog lives in `diagnostics.rs`; this file pins the
//! other half of the error surface: well-formed specifications rejecting
//! malformed IR. Every row of [`GOLDEN`] is the complete rendered text —
//! the op-level context, the constraint that failed and the offending
//! value — so a rendering change anywhere in the evaluator shows up here.
//! The fuzzer leans on these messages being stable too: the differential
//! oracles compare rendered diagnostics byte-for-byte across fast paths,
//! so a message that drifts with hash order or pointer values would show
//! up as a spurious divergence.

use irdl_ir::parse::parse_module;
use irdl_ir::verify::ModuleVerifier;
use irdl_ir::Context;

const SPEC: &str = r#"Dialect d {
  Constraint Small : uint32_t { NativeConstraint "bounded_u32" }
  Type box {
    Parameters (elem: !AnyOf<!f32, !f64>)
  }
  Operation pick {
    Operands (cond: !i1, value: !i32)
    Results (out: !i32)
  }
  Operation tagged {
    Attributes (flag: bool_attr)
  }
  Operation gather {
    Operands (starts: Variadic<!index>, ends: Variadic<!index>)
  }
  Operation wrap {
    Region body { }
  }
  Operation choose {
    Operands (x: !AnyOf<!f32, !f64>)
  }
  Operation avoid {
    Operands (x: !Not<!f32>)
  }
  Operation same {
    ConstraintVar (!T: !AnyType)
    Operands (a: !T, b: !T)
  }
  Operation bounded {
    Attributes (n: Small)
  }
  Operation loop {
    Region body {
      Arguments (iv: !index)
      Terminator yield
    }
  }
  Operation yield {
    Successors ()
  }
  Operation br {
    Successors (dest)
  }
  Operation fmt {
    Operands (x: !f32)
    Results (r: !f32)
    Format "$x"
  }
  Operation mk {
    ConstraintVar (!T: !box<!f32>)
    Results (res: !T)
    Format "$T.elem"
  }
}"#;

fn context() -> Context {
    let mut ctx = Context::new();
    irdl::register_dialects_with(&mut ctx, SPEC, &irdl::NativeRegistry::with_std())
        .expect("spec compiles");
    ctx
}

/// How a golden input is rejected.
#[derive(Clone, Copy)]
enum Stage {
    /// Parses, then the full (hook-running) verifier rejects it; the
    /// diagnostics are joined with newlines.
    Verify,
    /// The parser rejects it; the diagnostic is rendered against the input.
    Parse,
}

/// Rejects `text` at `stage` and returns the complete rendered message.
fn reject(stage: Stage, text: &str) -> String {
    let mut ctx = context();
    let parsed = parse_module(&mut ctx, text);
    match stage {
        Stage::Verify => {
            let module = parsed.unwrap_or_else(|e| panic!("parse failed: {}", e.render(text)));
            let errors =
                ModuleVerifier::new().verify(&ctx, module).expect_err("verifier should reject");
            errors.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
        }
        Stage::Parse => parsed.expect_err("parser should reject").render(text),
    }
}

/// `(case, stage, input, complete rendered rejection)`.
const GOLDEN: &[(&str, Stage, &str, &str)] = &[
    (
        "operand type",
        Stage::Verify,
        r#""builtin.module"() ({
  %0 = "fuzz.src"() : () -> f32
  %1 = "fuzz.src"() : () -> i32
  %2 = "d.pick"(%0, %1) : (f32, i32) -> i32
}) : () -> ()"#,
        "operand `cond` is invalid: expected type i1, got f32; note: in operation `d.pick`",
    ),
    (
        "result type",
        Stage::Verify,
        r#""builtin.module"() ({
  %0 = "fuzz.src"() : () -> i1
  %1 = "fuzz.src"() : () -> i32
  %2 = "d.pick"(%0, %1) : (i1, i32) -> f64
}) : () -> ()"#,
        "result `out` is invalid: expected type i32, got f64; note: in operation `d.pick`",
    ),
    (
        "missing attribute",
        Stage::Verify,
        r#""builtin.module"() ({
  "d.tagged"() : () -> ()
}) : () -> ()"#,
        "missing required attribute `flag`; note: in operation `d.tagged`",
    ),
    (
        "poisoned attribute",
        Stage::Verify,
        r#""builtin.module"() ({
  "d.tagged"() {flag = "yes"} : () -> ()
}) : () -> ()"#,
        "attribute `flag` is invalid: expected a boolean parameter, got \"yes\"; note: in operation `d.tagged`",
    ),
    (
        // Two variadic groups and no segment-sizes attribute: the operand
        // layout is ambiguous.
        "ambiguous variadic segments",
        Stage::Verify,
        r#""builtin.module"() ({
  %0 = "fuzz.src"() : () -> index
  "d.gather"(%0) : (index) -> ()
}) : () -> ()"#,
        "operand count mismatch: 2 variadic definitions require a segment-sizes attribute; note: in operation `d.gather`",
    ),
    (
        "region count",
        Stage::Verify,
        r#""builtin.module"() ({
  "d.wrap"() : () -> ()
}) : () -> ()"#,
        "expected 1 region(s), got 0; note: in operation `d.wrap`",
    ),
    (
        "AnyOf",
        Stage::Verify,
        r#""builtin.module"() ({
  %0 = "fuzz.src"() : () -> i32
  "d.choose"(%0) : (i32) -> ()
}) : () -> ()"#,
        "operand `x` is invalid: i32 satisfied no alternative: expected type f64, got i32; note: in operation `d.choose`",
    ),
    (
        "Not",
        Stage::Verify,
        r#""builtin.module"() ({
  %0 = "fuzz.src"() : () -> f32
  "d.avoid"(%0) : (f32) -> ()
}) : () -> ()"#,
        "operand `x` is invalid: f32 matches a constraint it must not match; note: in operation `d.avoid`",
    ),
    (
        "constraint variable",
        Stage::Verify,
        r#""builtin.module"() ({
  %0 = "fuzz.src"() : () -> f32
  %1 = "fuzz.src"() : () -> i32
  "d.same"(%0, %1) : (f32, i32) -> ()
}) : () -> ()"#,
        "operand `b` is invalid: constraint variable already bound to f32, got i32; note: in operation `d.same`",
    ),
    (
        "native constraint",
        Stage::Verify,
        r#""builtin.module"() ({
  "d.bounded"() {n = 64 : ui32} : () -> ()
}) : () -> ()"#,
        "attribute `n` is invalid: native constraint `bounded_u32` failed: integer value 64 is not between 0 and 32; note: in operation `d.bounded`",
    ),
    (
        "region argument type",
        Stage::Verify,
        r#""builtin.module"() ({
  "d.loop"() ({
  ^bb0(%i: f32):
    "d.yield"() : () -> ()
  }) : () -> ()
}) : () -> ()"#,
        "region `body` argument `iv` is invalid: expected type index, got f32; note: in operation `d.loop`",
    ),
    (
        "region argument count",
        Stage::Verify,
        r#""builtin.module"() ({
  "d.loop"() ({
  ^bb0(%i: index, %j: index):
    "d.yield"() : () -> ()
  }) : () -> ()
}) : () -> ()"#,
        "region `body` argument mismatch: expected exactly 1 value(s), got 2; note: in operation `d.loop`",
    ),
    (
        "wrong terminator",
        Stage::Verify,
        r#""builtin.module"() ({
  "d.loop"() ({
  ^bb0(%i: index):
    "d.tagged"() {flag = true} : () -> ()
  }) : () -> ()
}) : () -> ()"#,
        "region `body` must end with `d.yield`, found `d.tagged`; note: in operation `d.loop`",
    ),
    (
        "empty terminated region",
        Stage::Verify,
        r#""builtin.module"() ({
  "d.loop"() ({
  ^bb0(%i: index):
  }) : () -> ()
}) : () -> ()"#,
        "region `body` must end with `d.yield`; note: in operation `d.loop`",
    ),
    (
        "terminated region with two blocks",
        Stage::Verify,
        r#""builtin.module"() ({
  "d.loop"() ({
  ^bb0(%i: index):
    "d.yield"() : () -> ()
  ^bb1:
    "d.yield"() : () -> ()
  }) : () -> ()
}) : () -> ()"#,
        "region `body` must consist of a single block, got 2; note: in operation `d.loop`",
    ),
    (
        "successor count",
        Stage::Verify,
        r#""builtin.module"() ({
  "d.wrap"() ({
    "d.br"() : () -> ()
  }) : () -> ()
}) : () -> ()"#,
        "expected 1 successor(s), got 0; note: in operation `d.br`",
    ),
    (
        "type parameter",
        Stage::Parse,
        r#""builtin.module"() ({
  %0 = "fuzz.src"() : () -> !d.box<i32>
}) : () -> ()"#,
        "error at 3:1: parameter `elem` is invalid: i32 satisfied no alternative: expected type f64, got i32\n  | }) : () -> ()\n  | ^\n  note: while building type !d.box",
    ),
    (
        "type parameter count",
        Stage::Parse,
        r#""builtin.module"() ({
  %0 = "fuzz.src"() : () -> !d.box<f32, f32>
}) : () -> ()"#,
        "error at 3:1: expected 1 parameter(s), got 2\n  | }) : () -> ()\n  | ^\n  note: while building type !d.box",
    ),
    (
        "format operand",
        Stage::Parse,
        r#""builtin.module"() ({
  %0 = "fuzz.src"() : () -> i32
  %1 = d.fmt %0
}) : () -> ()"#,
        "error at 4:1: operand `x`: expected type f32, got i32\n  | }) : () -> ()\n  | ^",
    ),
    (
        "format $T.param reconstruction",
        Stage::Parse,
        r#""builtin.module"() ({
  %0 = d.mk f64
}) : () -> ()"#,
        "error at 3:1: expected type f32, got f64\n  | }) : () -> ()\n  | ^",
    ),
];

#[test]
fn rejections_render_exactly() {
    let mut mismatches = Vec::new();
    for &(case, stage, input, expected) in GOLDEN {
        let actual = reject(stage, input);
        if actual != expected {
            mismatches.push(format!("{case}:\n  expected: {expected:?}\n  actual:   {actual:?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn undeclared_successors_are_rejected() {
    // `d.pick` declares no successors; handing it one is a structural
    // error caught before any constraint runs.
    let mut ctx = context();
    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let region = ctx.create_region();
    let target = ctx.create_block([]);
    ctx.append_block(region, target);
    let i1 = ctx.i1_type();
    let i32 = ctx.i32_type();
    let src = ctx.op_name("fuzz", "src");
    let a = ctx.create_op(irdl_ir::OperationState::new(src).add_result_types([i1]));
    let b = ctx.create_op(irdl_ir::OperationState::new(src).add_result_types([i32]));
    ctx.append_op(block, a);
    ctx.append_op(block, b);
    let pick = ctx.op_name("d", "pick");
    let op = ctx.create_op(
        irdl_ir::OperationState::new(pick)
            .add_operands([a.result(&ctx, 0), b.result(&ctx, 0)])
            .add_result_types([i32])
            .add_successors([target]),
    );
    ctx.append_op(block, op);
    let errors =
        ModuleVerifier::new().verify(&ctx, module).expect_err("verifier should reject");
    let msg = errors.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n");
    assert!(msg.contains("non-terminator operation cannot have successors"), "{msg}");
}

#[test]
fn unregistered_dialect_rejected_in_strict_mode() {
    let mut ctx = context();
    let module = parse_module(
        &mut ctx,
        r#""builtin.module"() ({
  "ghost.op"() : () -> ()
}) : () -> ()"#,
    )
    .expect("parses");
    ctx.set_allow_unregistered(false);
    let errors =
        ModuleVerifier::new().verify(&ctx, module).expect_err("verifier should reject");
    let msg = errors.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n");
    assert!(msg.contains("unregistered dialect"), "{msg}");
}

#[test]
fn parse_rejections_carry_spans() {
    let mut ctx = Context::new();
    let bad = "\"builtin.module\"() ({\n  %0 = \"d.pick\"(%missing) : (i1) -> i32\n}) : () -> ()";
    let err = parse_module(&mut ctx, bad).expect_err("parse should fail");
    let rendered = err.render(bad);
    assert!(rendered.contains("error at 2:"), "span should point at line 2: {rendered}");
    assert!(rendered.contains("%missing"), "should quote the offending line: {rendered}");
}

/// Result-type inference must respect variable declarations: `And<!f64, !U>`
/// with `U` unbound and declared `!i32` admits no type at all, so the
/// format cannot infer `r` — rather than inferring `f64` and leaving the
/// verifier to reject the op later.
#[test]
fn format_inference_checks_unbound_variable_declarations() {
    let spec = r#"Dialect e {
  Operation cast {
    ConstraintVar (!U: !i32)
    Operands (x: !f64)
    Results (r: !And<!f64, !U>)
    Format "$x"
  }
}"#;
    let mut ctx = Context::new();
    irdl::register_dialects(&mut ctx, spec).expect("spec compiles");
    let text = r#""builtin.module"() ({
  %0 = "fuzz.src"() : () -> f64
  %1 = e.cast %0
}) : () -> ()"#;
    let err = parse_module(&mut ctx, text).expect_err("parser should reject");
    assert_eq!(
        err.render(text),
        "error at 4:1: cannot infer the type of result `r` from the format\n  | }) : () -> ()\n  | ^"
    );
}
