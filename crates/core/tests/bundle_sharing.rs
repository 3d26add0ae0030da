//! Artifact sharing: one compiled bundle, many contexts.
//!
//! Compiles one IRDL dialect into a [`DialectBundle`], registers it into
//! two contexts, and checks that both enforce identical verdicts and print
//! identical output — plus static assertions pinning the `Send + Sync`
//! property of every artifact type that crosses threads.

use irdl::bundle::DialectBundle;
use irdl::program::ConstraintProgram;
use irdl::verifier::{CompiledOp, CompiledParams};
use irdl::NativeRegistry;
use irdl_ir::parse::parse_module;
use irdl_ir::print::op_to_string;
use irdl_ir::verify::verify_op;
use irdl_ir::Context;

const SPEC: &str = r#"
Dialect cmath {
  Alias !FloatType = !AnyOf<!f32, !f64>
  Type complex {
    Parameters (elementType: !FloatType)
  }
  Operation mul {
    ConstraintVar (!T: !FloatType)
    Operands (lhs: !complex<!T>, rhs: !complex<!T>)
    Results (res: !complex<!T>)
  }
}
"#;

const VALID_IR: &str = r#"
%a = "test.source"() : () -> !cmath.complex<f32>
%b = "test.source"() : () -> !cmath.complex<f32>
%c = "cmath.mul"(%a, %b) : (!cmath.complex<f32>, !cmath.complex<f32>) -> !cmath.complex<f32>
"#;

const INVALID_IR: &str = r#"
%a = "test.source"() : () -> !cmath.complex<f32>
%b = "test.source"() : () -> !cmath.complex<f64>
%c = "cmath.mul"(%a, %b) : (!cmath.complex<f32>, !cmath.complex<f64>) -> !cmath.complex<f32>
"#;

fn compile_bundle() -> DialectBundle {
    let natives = NativeRegistry::with_std();
    let sources = vec![("cmath.irdl".to_string(), SPEC.to_string())];
    DialectBundle::compile(&sources, &natives).expect("spec compiles")
}

/// Parses, verifies, and prints `ir` in `ctx`; returns the verification
/// verdict and the printed text.
fn run_in(ctx: &mut Context, ir: &str) -> (bool, String) {
    let module = parse_module(ctx, ir).expect("module parses");
    let verdict = verify_op(ctx, module).is_ok();
    let printed = op_to_string(ctx, module);
    ctx.erase_op(module);
    (verdict, printed)
}

#[test]
fn two_contexts_agree_on_verdicts_and_output() {
    let bundle = compile_bundle();
    let mut first = bundle.instantiate();
    let mut second = bundle.instantiate();

    let (ok_a, printed_a) = run_in(&mut first, VALID_IR);
    let (ok_b, printed_b) = run_in(&mut second, VALID_IR);
    assert!(ok_a, "valid IR must verify in the first context");
    assert!(ok_b, "valid IR must verify in the second context");
    assert_eq!(printed_a, printed_b, "printed output must be identical");

    let (bad_a, _) = run_in(&mut first, INVALID_IR);
    let (bad_b, _) = run_in(&mut second, INVALID_IR);
    assert!(!bad_a, "mismatched element types must be rejected in the first context");
    assert!(!bad_b, "mismatched element types must be rejected in the second context");
}

#[test]
fn compiled_artifacts_are_send_sync() {
    fn _assert_send_sync<T: Send + Sync>() {}
    _assert_send_sync::<DialectBundle>();
    _assert_send_sync::<CompiledOp>();
    _assert_send_sync::<CompiledParams>();
    _assert_send_sync::<ConstraintProgram>();
    _assert_send_sync::<NativeRegistry>();
    _assert_send_sync::<irdl_ir::dialect::DialectRegistry>();
    _assert_send_sync::<irdl_ir::dialect::OpInfo>();
    _assert_send_sync::<irdl_ir::dialect::TypeDefInfo>();
}
