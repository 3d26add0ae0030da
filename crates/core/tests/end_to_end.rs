//! End-to-end tests: IRDL specification → registered dialect → textual IR
//! parsing, printing, and verification.
//!
//! These tests exercise the paper's running example (Listings 1-3): the
//! `cmath` dialect with its declarative formats, and IR using it.

use irdl_ir::parse::parse_module;
use irdl_ir::print::{op_to_string, op_to_string_generic};
use irdl_ir::verify::verify_op;
use irdl_ir::{Context, OperationState};

/// Listing 3: the self-contained IRDL specification of cmath.
const CMATH: &str = r#"
Dialect cmath {
  Summary "Complex arithmetic"
  Alias !FloatType = !AnyOf<!f32, !f64>

  Type complex {
    Parameters (elementType: !FloatType)
    Summary "A complex number"
  }

  Operation mul {
    ConstraintVar (!T: !complex<!FloatType>)
    Operands (lhs: !T, rhs: !T)
    Results (res: !T)
    Format "$lhs, $rhs : $T.elementType"
    Summary "Multiply two complex numbers"
  }

  Operation norm {
    ConstraintVar (!T: !FloatType)
    Operands (c: !complex<!T>)
    Results (res: !T)
    Format "$c : $T"
    Summary "Compute the norm of a complex number"
  }

  Operation create_constant {
    Results (res: !complex<!f32>)
    Attributes (re: #f32_attr, im: #f32_attr)
    Summary "Create a constant complex number"
  }

  Operation log {
    Operands (c: !complex<!f32>, base: Optional<!f32>)
    Results (res: !complex<!f32>)
  }
}
"#;

fn cmath_context() -> Context {
    let mut ctx = Context::new();
    irdl::register_dialects(&mut ctx, CMATH).expect("cmath compiles");
    ctx
}

#[test]
fn register_cmath_dialect() {
    let ctx = cmath_context();
    let reports = irdl::introspect::report(&ctx);
    let cmath = reports.iter().find(|d| d.name == "cmath").unwrap();
    assert_eq!(cmath.ops.len(), 4);
    assert_eq!(cmath.types.len(), 1);
    assert_eq!(cmath.summary, "Complex arithmetic");
}

#[test]
fn complex_type_verifier_from_spec() {
    let mut ctx = cmath_context();
    let f32 = ctx.f32_type();
    let i32 = ctx.i32_type();
    let ok = ctx.type_attr(f32);
    assert!(ctx.parametric_type("cmath", "complex", [ok]).is_ok());
    let bad = ctx.type_attr(i32);
    let err = ctx.parametric_type("cmath", "complex", [bad]).unwrap_err();
    assert!(err.to_string().contains("elementType"), "{err}");
    // Wrong arity.
    assert!(ctx.parametric_type("cmath", "complex", [ok, ok]).is_err());
}

/// Builds the `conorm` computation of Listing 1 programmatically and
/// verifies it against the registered dialect.
#[test]
fn verify_conorm_module() {
    let mut ctx = cmath_context();
    let f32 = ctx.f32_type();
    let f32a = ctx.type_attr(f32);
    let complex_f32 = ctx.parametric_type("cmath", "complex", [f32a]).unwrap();

    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let arg_name = ctx.op_name("test", "arg");
    let p = ctx.create_op(OperationState::new(arg_name).add_result_types([complex_f32]));
    let q = ctx.create_op(OperationState::new(arg_name).add_result_types([complex_f32]));
    ctx.append_op(block, p);
    ctx.append_op(block, q);
    let vp = p.result(&ctx, 0);
    let vq = q.result(&ctx, 0);

    let mul_name = ctx.op_name("cmath", "mul");
    let mul = ctx.create_op(
        OperationState::new(mul_name).add_operands([vp, vq]).add_result_types([complex_f32]),
    );
    ctx.append_op(block, mul);
    let vm = mul.result(&ctx, 0);
    let norm_name = ctx.op_name("cmath", "norm");
    let norm = ctx.create_op(
        OperationState::new(norm_name).add_operands([vm]).add_result_types([f32]),
    );
    ctx.append_op(block, norm);

    verify_op(&ctx, module).expect("conorm verifies");

    // Break it: norm result type must equal the complex element type.
    let f64 = ctx.f64_type();
    let bad_norm = ctx.create_op(
        OperationState::new(norm_name).add_operands([vm]).add_result_types([f64]),
    );
    ctx.append_op(block, bad_norm);
    let errs = verify_op(&ctx, module).unwrap_err();
    assert!(errs.iter().any(|d| d.to_string().contains("res")), "{errs:?}");
}

#[test]
fn custom_format_prints_and_parses() {
    let mut ctx = cmath_context();
    let src = r#"
        %p = "test.arg"() : () -> !cmath.complex<f32>
        %q = "test.arg"() : () -> !cmath.complex<f32>
        %m = cmath.mul %p, %q : f32
        %n = cmath.norm %m : f32
    "#;
    let module = parse_module(&mut ctx, src).expect("custom formats parse");
    verify_op(&ctx, module).expect("parsed module verifies");
    let block = ctx.module_block(module);
    let mul = block.ops(&ctx)[2];
    // Result type was inferred from `: f32` through T = complex<f32>.
    assert_eq!(mul.result_types(&ctx)[0].display(&ctx), "!cmath.complex<f32>");
    let norm = block.ops(&ctx)[3];
    assert_eq!(norm.result_types(&ctx)[0].display(&ctx), "f32");

    // Printing uses the declarative format again.
    let printed = op_to_string(&ctx, mul);
    assert_eq!(printed, "%0 = cmath.mul %1, %2 : f32");

    // Full module round-trip: print then re-parse then re-verify.
    let text = op_to_string(&ctx, module);
    let mut ctx2 = cmath_context();
    let module2 = parse_module(&mut ctx2, &text).expect("printed module re-parses");
    verify_op(&ctx2, module2).expect("round-tripped module verifies");
    assert_eq!(op_to_string(&ctx2, module2), text, "printing is a fixpoint");
}

#[test]
fn format_type_inference_rejects_inconsistency() {
    let mut ctx = cmath_context();
    // %p is complex<f32> but the format claims f64.
    let src = r#"
        %p = "test.arg"() : () -> !cmath.complex<f32>
        %q = "test.arg"() : () -> !cmath.complex<f32>
        %m = cmath.mul %p, %q : f64
    "#;
    let err = parse_module(&mut ctx, src).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("f64") || msg.contains("bound"), "{msg}");
}

#[test]
fn generic_form_always_available() {
    let mut ctx = cmath_context();
    let src = r#"
        %p = "test.arg"() : () -> !cmath.complex<f32>
        %q = "test.arg"() : () -> !cmath.complex<f32>
        %m = "cmath.mul"(%p, %q) : (!cmath.complex<f32>, !cmath.complex<f32>) -> !cmath.complex<f32>
    "#;
    let module = parse_module(&mut ctx, src).unwrap();
    verify_op(&ctx, module).unwrap();
    let block = ctx.module_block(module);
    let mul = block.ops(&ctx)[2];
    let generic = op_to_string_generic(&ctx, mul);
    assert!(generic.starts_with("%0 = \"cmath.mul\"("), "{generic}");
}

#[test]
fn attributes_are_required_and_constrained() {
    let mut ctx = cmath_context();
    let f32 = ctx.f32_type();
    let f32a = ctx.type_attr(f32);
    let complex_f32 = ctx.parametric_type("cmath", "complex", [f32a]).unwrap();
    let name = ctx.op_name("cmath", "create_constant");
    let re = ctx.symbol("re");
    let im = ctx.symbol("im");
    let one = ctx.f32_attr(1.0);
    let two = ctx.f32_attr(2.0);

    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let good = ctx.create_op(
        OperationState::new(name)
            .add_result_types([complex_f32])
            .add_attribute(re, one)
            .add_attribute(im, two),
    );
    ctx.append_op(block, good);
    verify_op(&ctx, module).expect("constant with both attrs verifies");

    // Missing `im`.
    let missing = ctx.create_op(
        OperationState::new(name).add_result_types([complex_f32]).add_attribute(re, one),
    );
    ctx.append_op(block, missing);
    let errs = verify_op(&ctx, module).unwrap_err();
    assert!(errs.iter().any(|d| d.to_string().contains("im")), "{errs:?}");
    ctx.erase_op(missing);

    // Wrong kind: f64 float where f32 is required.
    let wrong = ctx.float_attr(1.0, irdl_ir::FloatKind::F64);
    let bad = ctx.create_op(
        OperationState::new(name)
            .add_result_types([complex_f32])
            .add_attribute(re, wrong)
            .add_attribute(im, two),
    );
    ctx.append_op(block, bad);
    assert!(verify_op(&ctx, module).is_err());
}

#[test]
fn optional_operand_matches_one_or_two() {
    let mut ctx = cmath_context();
    let f32 = ctx.f32_type();
    let f32a = ctx.type_attr(f32);
    let complex_f32 = ctx.parametric_type("cmath", "complex", [f32a]).unwrap();
    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let arg = ctx.op_name("test", "arg");
    let c = ctx.create_op(OperationState::new(arg).add_result_types([complex_f32]));
    let b = ctx.create_op(OperationState::new(arg).add_result_types([f32]));
    ctx.append_op(block, c);
    ctx.append_op(block, b);
    let vc = c.result(&ctx, 0);
    let vb = b.result(&ctx, 0);

    let log = ctx.op_name("cmath", "log");
    // One operand (no base).
    let one = ctx.create_op(
        OperationState::new(log).add_operands([vc]).add_result_types([complex_f32]),
    );
    ctx.append_op(block, one);
    // Two operands (with base).
    let two = ctx.create_op(
        OperationState::new(log).add_operands([vc, vb]).add_result_types([complex_f32]),
    );
    ctx.append_op(block, two);
    verify_op(&ctx, module).expect("both arities verify");

    // Three operands: too many.
    let three = ctx.create_op(
        OperationState::new(log).add_operands([vc, vb, vb]).add_result_types([complex_f32]),
    );
    ctx.append_op(block, three);
    let errs = verify_op(&ctx, module).unwrap_err();
    assert!(errs.iter().any(|d| d.to_string().contains("count")), "{errs:?}");
}

/// Listing 7: regions with argument constraints and terminators.
#[test]
fn region_constraints_from_spec() {
    let mut ctx = Context::new();
    irdl::register_dialects(
        &mut ctx,
        r#"Dialect loops {
            Operation range_loop_terminator { Successors () }
            Operation range_loop {
                Operands (lower_bound: !i32, upper_bound: !i32, step: !i32)
                Region body {
                    Arguments (induction_variable: !i32)
                    Terminator range_loop_terminator
                }
            }
        }"#,
    )
    .unwrap();

    let i32 = ctx.i32_type();
    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let arg = ctx.op_name("test", "arg");
    let bound = ctx.create_op(OperationState::new(arg).add_result_types([i32]));
    ctx.append_op(block, bound);
    let vb = bound.result(&ctx, 0);

    // Correct: single block, i32 argument, proper terminator.
    let (region, body) = ctx.create_region_with_entry([i32]);
    let term_name = ctx.op_name("loops", "range_loop_terminator");
    let term = ctx.create_op(OperationState::new(term_name));
    ctx.append_op(body, term);
    let loop_name = ctx.op_name("loops", "range_loop");
    let good = ctx.create_op(
        OperationState::new(loop_name).add_operands([vb, vb, vb]).add_regions([region]),
    );
    ctx.append_op(block, good);
    verify_op(&ctx, module).expect("well-formed loop verifies");

    // Wrong terminator.
    let (region2, body2) = ctx.create_region_with_entry([i32]);
    let other = ctx.op_name("test", "done");
    let bad_term = ctx.create_op(OperationState::new(other));
    ctx.append_op(body2, bad_term);
    let bad = ctx.create_op(
        OperationState::new(loop_name).add_operands([vb, vb, vb]).add_regions([region2]),
    );
    ctx.append_op(block, bad);
    let errs = verify_op(&ctx, module).unwrap_err();
    assert!(
        errs.iter().any(|d| d.to_string().contains("range_loop_terminator")),
        "{errs:?}"
    );
    ctx.erase_op(bad);

    // Wrong region argument type.
    let f32 = ctx.f32_type();
    let (region3, body3) = ctx.create_region_with_entry([f32]);
    let term3 = ctx.create_op(OperationState::new(term_name));
    ctx.append_op(body3, term3);
    let bad_arg = ctx.create_op(
        OperationState::new(loop_name).add_operands([vb, vb, vb]).add_regions([region3]),
    );
    ctx.append_op(block, bad_arg);
    let errs = verify_op(&ctx, module).unwrap_err();
    assert!(
        errs.iter().any(|d| d.to_string().contains("induction_variable")),
        "{errs:?}"
    );
}

/// Listing 8: successors make an operation a terminator with a fixed count.
#[test]
fn successor_constraints_from_spec() {
    let mut ctx = Context::new();
    irdl::register_dialects(
        &mut ctx,
        r#"Dialect cf {
            Operation conditional_branch {
                Operands (condition: !i1)
                Successors (next_bb_true, next_bb_false)
            }
        }"#,
    )
    .unwrap();
    let i1 = ctx.i1_type();
    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let region = ctx.create_region();
    let entry = ctx.create_block([]);
    let t = ctx.create_block([]);
    let f = ctx.create_block([]);
    for b in [entry, t, f] {
        ctx.append_block(region, b);
    }
    let arg = ctx.op_name("test", "arg");
    let cond = ctx.create_op(OperationState::new(arg).add_result_types([i1]));
    ctx.append_op(entry, cond);
    let vcond = cond.result(&ctx, 0);
    let br = ctx.op_name("cf", "conditional_branch");
    let good = ctx.create_op(
        OperationState::new(br).add_operands([vcond]).add_successors([t, f]),
    );
    ctx.append_op(entry, good);
    // Terminate t and f too.
    let done = ctx.op_name("cf", "conditional_branch");
    for b in [t, f] {
        let c2 = ctx.create_op(OperationState::new(arg).add_result_types([i1]));
        ctx.append_op(b, c2);
        let v2 = c2.result(&ctx, 0);
        let term = ctx.create_op(
            OperationState::new(done).add_operands([v2]).add_successors([t, f]),
        );
        ctx.append_op(b, term);
    }
    let holder = ctx.op_name("test", "holder");
    let h = ctx.create_op(OperationState::new(holder).add_regions([region]));
    ctx.append_op(block, h);
    verify_op(&ctx, module).expect("two successors verify");

    // One successor only: count mismatch.
    let region_b = ctx.create_region();
    let e2 = ctx.create_block([]);
    let t2 = ctx.create_block([]);
    ctx.append_block(region_b, e2);
    ctx.append_block(region_b, t2);
    let c3 = ctx.create_op(OperationState::new(arg).add_result_types([i1]));
    ctx.append_op(e2, c3);
    let v3 = c3.result(&ctx, 0);
    let bad = ctx.create_op(OperationState::new(br).add_operands([v3]).add_successors([t2]));
    ctx.append_op(e2, bad);
    let c4 = ctx.create_op(OperationState::new(arg).add_result_types([i1]));
    ctx.append_op(t2, c4);
    let v4 = c4.result(&ctx, 0);
    let term2 = ctx.create_op(
        OperationState::new(br).add_operands([v4]).add_successors([t2, t2]),
    );
    ctx.append_op(t2, term2);
    let h2 = ctx.create_op(OperationState::new(holder).add_regions([region_b]));
    ctx.append_op(block, h2);
    let errs = verify_op(&ctx, module).unwrap_err();
    assert!(
        errs.iter().any(|d| d.to_string().contains("successor")),
        "{errs:?}"
    );
}

/// Listing 9: enums as type parameters.
#[test]
fn enum_parameters_from_spec() {
    let mut ctx = Context::new();
    irdl::register_dialects(
        &mut ctx,
        r#"Dialect ints {
            Enum signedness { Signless, Signed, Unsigned }
            Type integer {
                Parameters (bitwidth: uint32_t, signed: signedness)
            }
            Alias !signed_integer = !integer<uint32_t, signedness.Signed>
        }"#,
    )
    .unwrap();
    let ui32 = ctx.int_type_with_signedness(32, irdl_ir::Signedness::Unsigned);
    let width = ctx.int_attr(32, ui32);
    let signed = ctx.enum_attr("ints", "signedness", "Signed");
    assert!(ctx.parametric_type("ints", "integer", [width, signed]).is_ok());
    // A string is not a signedness.
    let not_enum = ctx.string_attr("Signed");
    let err = ctx.parametric_type("ints", "integer", [width, not_enum]).unwrap_err();
    assert!(err.to_string().contains("signed"), "{err}");
}

/// Listing 10: native constraints and native op verifiers (IRDL-Rust).
#[test]
fn native_constraints_from_spec() {
    use std::sync::Arc;
    let mut ctx = Context::new();
    let mut natives = irdl::NativeRegistry::with_std();
    natives.register_op_verifier(
        "append_vector_sizes",
        Arc::new(|ctx: &irdl_ir::Context, op: irdl_ir::OpRef| {
            // res.size == lhs.size + rhs.size
            let size_of = |ctx: &irdl_ir::Context, ty: irdl_ir::Type| -> i128 {
                ty.params(ctx)
                    .get(1)
                    .and_then(|a| a.as_int(ctx))
                    .unwrap_or(0)
            };
            let lhs = size_of(ctx, op.operand(ctx, 0).ty(ctx));
            let rhs = size_of(ctx, op.operand(ctx, 1).ty(ctx));
            let res = size_of(ctx, op.result_types(ctx)[0]);
            if lhs + rhs == res {
                Ok(())
            } else {
                Err(irdl_ir::Diagnostic::new(format!(
                    "result size {res} != {lhs} + {rhs}"
                )))
            }
        }),
    );
    irdl::register_dialects_with(
        &mut ctx,
        r#"Dialect vec {
            Constraint BoundedInteger : uint32_t {
                Summary "integer value between 0 and 32"
                NativeConstraint "bounded_u32"
            }
            Type vector {
                Parameters (typ: !AnyType, size: BoundedInteger)
            }
            Operation append_vector {
                ConstraintVars (T: !AnyType)
                Operands (lhs: !vector<T, BoundedInteger>, rhs: !vector<T, BoundedInteger>)
                Results (res: !vector<T, BoundedInteger>)
                NativeVerifier "append_vector_sizes"
            }
        }"#,
        &natives,
    )
    .unwrap();

    let f32 = ctx.f32_type();
    let f32a = ctx.type_attr(f32);
    let ui32 = ctx.int_type_with_signedness(32, irdl_ir::Signedness::Unsigned);
    let mk_size = |ctx: &mut Context, n: i128| ctx.int_attr(n, ui32);

    // The native constraint rejects out-of-range sizes at type creation.
    let too_big = mk_size(&mut ctx, 64);
    let err = ctx.parametric_type("vec", "vector", [f32a, too_big]).unwrap_err();
    assert!(err.to_string().contains("bounded_u32"), "{err}");

    let s2 = mk_size(&mut ctx, 2);
    let s3 = mk_size(&mut ctx, 3);
    let s5 = mk_size(&mut ctx, 5);
    let s6 = mk_size(&mut ctx, 6);
    let v2 = ctx.parametric_type("vec", "vector", [f32a, s2]).unwrap();
    let v3 = ctx.parametric_type("vec", "vector", [f32a, s3]).unwrap();
    let v5 = ctx.parametric_type("vec", "vector", [f32a, s5]).unwrap();
    let v6 = ctx.parametric_type("vec", "vector", [f32a, s6]).unwrap();

    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let arg = ctx.op_name("test", "arg");
    let a = ctx.create_op(OperationState::new(arg).add_result_types([v2]));
    let b = ctx.create_op(OperationState::new(arg).add_result_types([v3]));
    ctx.append_op(block, a);
    ctx.append_op(block, b);
    let va = a.result(&ctx, 0);
    let vb = b.result(&ctx, 0);
    let append = ctx.op_name("vec", "append_vector");
    // 2 + 3 = 5: the native op verifier accepts.
    let good = ctx.create_op(
        OperationState::new(append).add_operands([va, vb]).add_result_types([v5]),
    );
    ctx.append_op(block, good);
    verify_op(&ctx, module).expect("sizes add up");
    ctx.erase_op(good);
    // 2 + 3 != 6: rejected.
    let bad = ctx.create_op(
        OperationState::new(append).add_operands([va, vb]).add_result_types([v6]),
    );
    ctx.append_op(block, bad);
    let errs = verify_op(&ctx, module).unwrap_err();
    assert!(errs.iter().any(|d| d.to_string().contains("!= 2 + 3")), "{errs:?}");
}

/// Listing 11: native parameter kinds (`TypeOrAttrParam`).
#[test]
fn native_params_from_spec() {
    let mut ctx = Context::new();
    irdl::register_dialects(
        &mut ctx,
        r#"Dialect strings {
            TypeOrAttrParam StringParam {
                Summary "A string parameter"
                NativeType "string_param"
            }
            Attribute StringAttr {
                Parameters (data: StringParam)
            }
        }"#,
    )
    .unwrap();
    let value = ctx.native_attr("string_param", "hello").unwrap();
    assert!(ctx.parametric_attr("strings", "StringAttr", [value]).is_ok());
    // Non-native parameters are rejected.
    let plain = ctx.string_attr("hello");
    let err = ctx.parametric_attr("strings", "StringAttr", [plain]).unwrap_err();
    assert!(err.to_string().contains("native"), "{err}");
}

#[test]
fn variadic_with_segments_attribute() {
    let mut ctx = Context::new();
    irdl::register_dialects(
        &mut ctx,
        r#"Dialect multi {
            Operation gather {
                Operands (starts: Variadic<!i32>, ends: Variadic<!i32>)
                Results (res: !i32)
            }
        }"#,
    )
    .unwrap();
    let i32 = ctx.i32_type();
    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let arg = ctx.op_name("test", "arg");
    let a = ctx.create_op(OperationState::new(arg).add_result_types([i32]));
    ctx.append_op(block, a);
    let v = a.result(&ctx, 0);
    let seg_key = ctx.symbol("operand_segment_sizes");
    let two = ctx.i64_attr(2);
    let one = ctx.i64_attr(1);
    let sizes = ctx.array_attr([two, one]);
    let gather = ctx.op_name("multi", "gather");
    let good = ctx.create_op(
        OperationState::new(gather)
            .add_operands([v, v, v])
            .add_result_types([i32])
            .add_attribute(seg_key, sizes),
    );
    ctx.append_op(block, good);
    verify_op(&ctx, module).expect("segmented variadics verify");
    ctx.erase_op(good);

    // Without the attribute: ambiguous.
    let bad = ctx.create_op(
        OperationState::new(gather).add_operands([v, v, v]).add_result_types([i32]),
    );
    ctx.append_op(block, bad);
    let errs = verify_op(&ctx, module).unwrap_err();
    assert!(errs.iter().any(|d| d.to_string().contains("segment")), "{errs:?}");
}

#[test]
fn compile_error_mentions_unknown_name() {
    let mut ctx = Context::new();
    let err = irdl::register_dialects(
        &mut ctx,
        "Dialect d { Operation o { Operands (x: !nonexistent) } }",
    )
    .unwrap_err();
    assert!(err.to_string().contains("nonexistent"), "{err}");
}

#[test]
fn cross_dialect_references() {
    let mut ctx = Context::new();
    irdl::register_dialects(
        &mut ctx,
        r#"Dialect base {
            Type token { Parameters () }
        }
        Dialect user {
            Operation consume {
                Operands (t: !base.token)
            }
        }"#,
    )
    .unwrap();
    let token = ctx.parametric_type("base", "token", []).unwrap();
    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let arg = ctx.op_name("test", "arg");
    let a = ctx.create_op(OperationState::new(arg).add_result_types([token]));
    ctx.append_op(block, a);
    let v = a.result(&ctx, 0);
    let consume = ctx.op_name("user", "consume");
    let op = ctx.create_op(OperationState::new(consume).add_operands([v]));
    ctx.append_op(block, op);
    verify_op(&ctx, module).expect("cross-dialect constraint verifies");
}

/// Paper §4.7: types can define a custom declarative format, not just
/// operations.
#[test]
fn type_custom_format_roundtrips() {
    let mut ctx = Context::new();
    irdl::register_dialects(
        &mut ctx,
        r#"Dialect ints {
            Enum signedness { Signless, Signed, Unsigned }
            Type integer {
                Parameters (bitwidth: uint32_t, signed: signedness)
                Format "$bitwidth x $signed"
            }
        }"#,
    )
    .unwrap();
    let ui32 = ctx.int_type_with_signedness(32, irdl_ir::Signedness::Unsigned);
    let width = ctx.int_attr(16, ui32);
    let signed = ctx.enum_attr("ints", "signedness", "Signed");
    let ty = ctx.parametric_type("ints", "integer", [width, signed]).unwrap();
    let text = ty.display(&ctx);
    assert_eq!(text, "!ints.integer<16 : ui32 x #ints.signedness<Signed>>");
    let reparsed = irdl_ir::parse::parse_type_str(&mut ctx, &text).unwrap();
    assert_eq!(reparsed, ty);
    // A format that omits a parameter is a compile error.
    let err = irdl::register_dialects(
        &mut ctx,
        r#"Dialect bad {
            Type t { Parameters (a: uint32_t, b: string) Format "$a" }
        }"#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("does not cover parameter `b`"), "{err}");
    // A format naming an unknown parameter is a compile error.
    let err = irdl::register_dialects(
        &mut ctx,
        r#"Dialect bad2 {
            Type t { Parameters (a: uint32_t) Format "$nope" }
        }"#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("names no parameter"), "{err}");
}

/// Attribute definitions accept custom formats too.
#[test]
fn attr_custom_format_roundtrips() {
    let mut ctx = Context::new();
    irdl::register_dialects(
        &mut ctx,
        r#"Dialect fancy {
            Attribute version {
                Parameters (major: uint32_t, minor: uint32_t)
                Format "$major . $minor"
            }
            Attribute reversed {
                Parameters (major: uint32_t, minor: uint32_t)
                Format "$minor . $major"
            }
        }"#,
    )
    .unwrap();
    let ui32 = ctx.int_type_with_signedness(32, irdl_ir::Signedness::Unsigned);
    let major = ctx.int_attr(1, ui32);
    let minor = ctx.int_attr(4, ui32);
    // A format may list the parameters in any order.
    for (name, expected) in [
        ("version", "#fancy.version<1 : ui32 . 4 : ui32>"),
        ("reversed", "#fancy.reversed<4 : ui32 . 1 : ui32>"),
    ] {
        let attr = ctx.parametric_attr("fancy", name, [major, minor]).unwrap();
        let text = attr.display(&ctx);
        assert_eq!(text, expected);
        let reparsed = irdl_ir::parse::parse_attr_str(&mut ctx, &text).unwrap();
        assert_eq!(reparsed, attr);
    }
}

/// Format literals are kept as text and lexed where they are matched: a
/// quoted literal with an escape prints verbatim and parses back, and a
/// literal that is not IR text is rejected when the format compiles.
#[test]
fn format_string_literals_round_trip() {
    let mut ctx = Context::new();
    irdl::register_dialects(
        &mut ctx,
        r#"Dialect q {
            Operation tag {
                Operands (x: !f32)
                Results (r: !f32)
                Format "$x \"a\\\"b\" -> done"
            }
        }"#,
    )
    .unwrap();
    let src = "%x = \"test.arg\"() : () -> f32\n%r = q.tag %x \"a\\\"b\" -> done\n";
    let module = parse_module(&mut ctx, src).expect("the literal parses back");
    verify_op(&ctx, module).expect("parsed module verifies");
    let tag = ctx.module_block(module).ops(&ctx)[1];
    assert_eq!(op_to_string(&ctx, tag), "%0 = q.tag %1 \"a\\\"b\" -> done");
    let mismatch = "%x = \"test.arg\"() : () -> f32\n%r = q.tag %x \"ab\" -> done\n";
    let err = parse_module(&mut ctx, mismatch).unwrap_err();
    assert!(err.to_string().contains(r#"expected "a"b", found "ab""#), "{err}");

    let err = irdl::register_dialects(
        &mut ctx,
        r#"Dialect bad {
            Operation o { Operands (x: !f32) Format "$x `" }
        }"#,
    )
    .unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid format literal ` ``: unexpected character ```; note: in operation `bad.o`"
    );
}
