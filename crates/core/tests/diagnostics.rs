//! A catalog of malformed specifications and the diagnostics they produce.
//!
//! Good error messages are part of the DSL's value proposition ("can be
//! analyzed for correctness and tool support", paper §4); these tests pin
//! the message and the source location for each failure class.

use irdl_ir::Context;

/// Compiles `src` expecting failure; returns the rendered diagnostic.
fn compile_err(src: &str) -> String {
    let mut ctx = Context::new();
    let err = irdl::register_dialects(&mut ctx, src)
        .expect_err("specification should not compile");
    err.render(src)
}

#[test]
fn unknown_name_points_at_the_reference() {
    let src = "Dialect d {\n  Operation o {\n    Operands (x: !nonexistent)\n  }\n}";
    let msg = compile_err(src);
    assert!(msg.contains("unknown name `nonexistent`"), "{msg}");
    assert!(msg.contains("error at 3:"), "diagnostic should be on line 3: {msg}");
    assert!(msg.contains("in operation `d.o`"), "{msg}");
}

#[test]
fn arity_mismatch_names_the_type() {
    let src = "Dialect d {
  Type pair { Parameters (a: !AnyType, b: !AnyType) }
  Operation o { Operands (x: !pair<!f32>) }
}";
    let msg = compile_err(src);
    assert!(msg.contains("`pair` expects 2 parameter(s), got 1"), "{msg}");
}

#[test]
fn alias_cycles_are_reported() {
    let src = "Dialect d {
  Alias !A = !B
  Alias !B = !A
  Operation o { Operands (x: !A) }
}";
    let msg = compile_err(src);
    assert!(msg.contains("alias cycle"), "{msg}");
}

#[test]
fn missing_native_constraint_names_both_sides() {
    let src = r#"Dialect d {
  Constraint C : uint32_t { NativeConstraint "missing_hook" }
  Operation o { Attributes (a: C) }
}"#;
    let msg = compile_err(src);
    assert!(msg.contains("`missing_hook` is not registered"), "{msg}");
    assert!(msg.contains("required by `C`"), "{msg}");
}

#[test]
fn missing_native_verifier_is_reported() {
    let src = r#"Dialect d {
  Operation o { NativeVerifier "ghost_verifier" }
}"#;
    let msg = compile_err(src);
    assert!(msg.contains("`ghost_verifier` is not registered"), "{msg}");
}

#[test]
fn missing_native_param_kind_is_reported() {
    let src = r#"Dialect d {
  TypeOrAttrParam P { NativeType "ghost_kind" }
}"#;
    let msg = compile_err(src);
    assert!(msg.contains("`ghost_kind` is not registered"), "{msg}");
}

#[test]
fn format_with_unknown_directive() {
    let src = r#"Dialect d {
  Operation o {
    Operands (x: !f32)
    Results (r: !f32)
    Format "$x : $ghost"
  }
}"#;
    let msg = compile_err(src);
    assert!(msg.contains("`$ghost` names no operand"), "{msg}");
}

#[test]
fn format_must_cover_all_operands() {
    let src = r#"Dialect d {
  Operation o {
    Operands (x: !f32, y: !f32)
    Format "$x"
  }
}"#;
    let msg = compile_err(src);
    assert!(msg.contains("does not cover operand `y`"), "{msg}");
}

#[test]
fn variadic_operand_in_format_is_rejected() {
    let src = r#"Dialect d {
  Operation o {
    Operands (xs: Variadic<!f32>)
    Format "$xs"
  }
}"#;
    let msg = compile_err(src);
    assert!(msg.contains("variadic"), "{msg}");
}

#[test]
fn bad_enum_constructor_is_reported() {
    let src = "Dialect d {
  Enum color { Red, Green }
  Operation o { Attributes (c: color.Blue) }
}";
    let msg = compile_err(src);
    assert!(msg.contains("`Blue` is not a constructor of enum `color`"), "{msg}");
}

#[test]
fn duplicate_definitions_are_rejected() {
    let src = "Dialect d {
  Type t { Parameters () }
  Alias !t = !f32
}";
    let msg = compile_err(src);
    assert!(msg.contains("duplicate definition of `t`"), "{msg}");
}

#[test]
fn literal_overflow_in_constraint() {
    let src = "Dialect d { Type t { Parameters (a: 999 : int8_t) } }";
    let msg = compile_err(src);
    assert!(msg.contains("does not fit"), "{msg}");
}

#[test]
fn unterminated_dialect_body() {
    let src = "Dialect d { Operation o { }";
    let msg = compile_err(src);
    assert!(msg.contains("unterminated") || msg.contains("expected"), "{msg}");
}

#[test]
fn verifier_diagnostics_name_the_failing_part() {
    // Well-formed spec; ill-formed IR. The runtime diagnostic must name the
    // definition element that failed, not just "verification failed".
    let mut ctx = Context::new();
    irdl::register_dialects(
        &mut ctx,
        r#"Dialect d {
            Operation pick {
                Operands (cond: !i1, val: !AnyFloat)
                Results (out: !AnyFloat)
            }
        }"#,
    )
    .unwrap();
    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let f32 = ctx.f32_type();
    let src = ctx.op_name("t", "src");
    let a = ctx.create_op(irdl_ir::OperationState::new(src).add_result_types([f32]));
    ctx.append_op(block, a);
    let v = a.result(&ctx, 0);
    let pick = ctx.op_name("d", "pick");
    // First operand must be i1, got f32.
    let bad = ctx.create_op(
        irdl_ir::OperationState::new(pick).add_operands([v, v]).add_result_types([f32]),
    );
    ctx.append_op(block, bad);
    let errs = irdl_ir::verify::verify_op(&ctx, module).unwrap_err();
    let msg = errs[0].to_string();
    assert!(msg.contains("operand `cond` is invalid"), "{msg}");
    assert!(msg.contains("expected type i1"), "{msg}");
    assert!(msg.contains("in operation `d.pick`"), "{msg}");
}

// ----- registration-time failures, pinned to the exact rendered text -------

/// A spec naming one hook of each kind, with both in-dialect types and an
/// operation, so each hook can be left out in turn.
const HOOKED: &str = r#"Dialect d {
  TypeOrAttrParam P { NativeType "ghost_kind" }
  Type t {
    Parameters (p: P)
    NativeVerifier "ghost_params"
  }
  Operation o {
    Operands (x: !t)
    NativeVerifier "ghost_op"
  }
}"#;

/// A registry holding every hook of [`HOOKED`] except `missing`.
fn hooks_without(missing: &str) -> irdl::NativeRegistry {
    let mut natives = irdl::NativeRegistry::new();
    if missing != "ghost_kind" {
        natives.register_param_kind(
            "ghost_kind",
            std::sync::Arc::new(|_: &str| -> irdl_ir::Result<()> { Ok(()) }),
        );
    }
    if missing != "ghost_params" {
        natives.register_params_verifier("ghost_params", std::sync::Arc::new(|_, _| Ok(())));
    }
    if missing != "ghost_op" {
        natives.register_op_verifier("ghost_op", std::sync::Arc::new(|_, _| Ok(())));
    }
    natives
}

fn compile_hooked_err(missing: &str) -> String {
    let mut ctx = Context::new();
    let err = irdl::register_dialects_with(&mut ctx, HOOKED, &hooks_without(missing))
        .expect_err("a hook is missing");
    err.render(HOOKED)
}

/// Saves [`HOOKED`] compiled with every hook, then loads it without
/// `missing`.
fn load_hooked_err(missing: &str) -> String {
    let sources = vec![("d.irdl".to_string(), HOOKED.to_string())];
    let bundle = irdl::DialectBundle::compile(&sources, &hooks_without("")).unwrap();
    let bytes = bundle.save().unwrap();
    let err = irdl::DialectBundle::load(&bytes, &hooks_without(missing))
        .expect_err("a hook is missing");
    err.render("")
}

#[test]
fn missing_native_op_verifier_renders_exactly() {
    assert_eq!(
        compile_hooked_err("ghost_op"),
        "error at 7:3: native op verifier `ghost_op` is not registered\n\
         \x20 |   Operation o {\n\
         \x20 |   ^\n\
         \x20 note: in operation `d.o`"
    );
}

#[test]
fn missing_params_verifier_renders_exactly() {
    assert_eq!(
        compile_hooked_err("ghost_params"),
        "error at 3:3: native verifier `ghost_params` is not registered (required by `t`)\n\
         \x20 |   Type t {\n\
         \x20 |   ^"
    );
}

#[test]
fn missing_param_kind_renders_exactly() {
    assert_eq!(
        compile_hooked_err("ghost_kind"),
        "error at 2:3: native parameter kind `ghost_kind` is not registered \
         (required by TypeOrAttrParam `P`)\n\
         \x20 |   TypeOrAttrParam P { NativeType \"ghost_kind\" }\n\
         \x20 |   ^"
    );
}

#[test]
fn bad_op_format_renders_exactly() {
    let src = r#"Dialect d {
  Operation o {
    Operands (x: !f32)
    Format "$x : $ghost"
  }
}"#;
    assert_eq!(
        compile_err(src),
        "error at 2:3: format directive `$ghost` names no operand, attribute, or \
         constraint variable\n\
         \x20 |   Operation o {\n\
         \x20 |   ^\n\
         \x20 note: in operation `d.o`"
    );
}

#[test]
fn hooks_missing_at_load_render_exactly() {
    assert_eq!(
        load_hooked_err("ghost_op"),
        "error: native op verifier `ghost_op` is not registered\n\
         \x20 note: in operation `d.o`"
    );
    assert_eq!(
        load_hooked_err("ghost_params"),
        "error: native verifier `ghost_params` is not registered (required by `t`)\n\
         \x20 note: in definition `d.t`"
    );
    assert_eq!(
        load_hooked_err("ghost_kind"),
        "error: native parameter kind `ghost_kind` is not registered \
         (required by TypeOrAttrParam `P`)\n\
         \x20 note: in definition `d.P`"
    );
}
