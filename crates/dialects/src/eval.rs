//! Executable semantics for the corpus and showcase dialects.
//!
//! Each registration function attaches [`OpEvaluator`](irdl_interp::OpEvaluator)
//! hooks to an [`EvalRegistry`] under qualified op names, the same way the
//! corpus attaches native verifier hooks. The hooks cover:
//!
//! - **builtin**: module/function containers (bodies run once with derived
//!   inputs) and `unrealized_conversion_cast` (operand forwarding);
//! - **scf**: structured control flow — `if_op`, counted `for_op`,
//!   `while_op`, `execute_region`, `barrier`, and the single-shot
//!   `parallel`/`forall` — with every loop iteration charged against the
//!   machine's control-transfer fuel;
//! - **complex** / **cmath**: complex arithmetic over bit-canonical
//!   [`EvalValue`]s, with division by exact zero trapping;
//! - **arith** and the fuzzer's `fuzz.const`/`fuzz.addi`… ops: scalar
//!   arithmetic with two's-complement wrapping and a `div-by-zero` trap,
//!   plus the constant models and materializers constant folding runs on.
//!
//! Operands outside an op's domain (e.g. an opaque value flowing into
//! `complex.add` in unverified fuzzer IR) never trap: the op falls back to
//! the machine's deterministic uninterpreted model, keeping every module
//! executable.

use irdl_interp::{
    float_kind, int_width, EvalRegistry, EvalValue, EvalValues, Machine, Trap, TrapKind,
};
use irdl_ir::types::{FloatKind, TypeData};
use irdl_ir::{Context, OperationState, OpRef, Type};

/// The component format of a complex type (`!builtin.complex<f32>`,
/// `!cmath.complex<f64>`), if `ty` is one.
pub fn complex_kind(ctx: &Context, ty: Type) -> Option<FloatKind> {
    match ctx.type_data(ty) {
        TypeData::Parametric { name, params, .. } if ctx.symbol_str(*name) == "complex" => Some(
            params
                .first()
                .and_then(|p| p.as_type(ctx))
                .and_then(|elem| float_kind(ctx, elem))
                .unwrap_or(FloatKind::F64),
        ),
        _ => None,
    }
}

/// The float format to encode `op`'s first result in: its result type's
/// format when that is a float or complex type, `f64` otherwise.
fn result_kind(ctx: &Context, op: OpRef) -> FloatKind {
    op.result_types(ctx)
        .first()
        .and_then(|&ty| float_kind(ctx, ty).or_else(|| complex_kind(ctx, ty)))
        .unwrap_or(FloatKind::F64)
}

/// Runs `op`'s region `idx` with `args` and returns the operand values of
/// its terminator (the region's yielded values). A missing region or an
/// empty block yields nothing.
fn run_region_yield(
    machine: &mut Machine<'_>,
    op: OpRef,
    idx: usize,
    args: &[EvalValue],
) -> Result<EvalValues, Trap> {
    let Some(&region) = op.regions(machine.ctx()).get(idx) else { return Ok(EvalValues::new()) };
    let term = machine.run_region_to_terminator(region, args)?;
    Ok(match term {
        Some(term) => machine.operand_values(term),
        None => EvalValues::new(),
    })
}

/// Runs a `while`-style condition region: returns `(continue?, args)` from
/// its `scf.condition` terminator. A region ending in anything else stops
/// the loop with whatever values the terminator carried.
fn run_condition_region(
    machine: &mut Machine<'_>,
    op: OpRef,
    idx: usize,
    args: &[EvalValue],
) -> Result<(bool, EvalValues), Trap> {
    let Some(&region) = op.regions(machine.ctx()).get(idx) else {
        return Ok((false, EvalValues::new()));
    };
    let Some(term) = machine.run_region_to_terminator(region, args)? else {
        return Ok((false, EvalValues::new()));
    };
    let mut values = machine.operand_values(term);
    let (ctx, name) = (machine.ctx(), term.name(machine.ctx()));
    let is_condition =
        ctx.symbol_str(name.dialect) == "scf" && ctx.symbol_str(name.name) == "condition";
    if is_condition && !values.is_empty() {
        let cond = values.remove(0);
        Ok((cond.is_true(), values))
    } else {
        Ok((false, values))
    }
}

/// Registers semantics for the `builtin` dialect's three operations.
pub fn register_builtin_eval(reg: &mut EvalRegistry) {
    reg.register_fn("builtin.module", |machine, op| {
        run_region_yield(machine, op, 0, &[])?;
        Ok(EvalValues::new())
    });
    // A function body runs once, with derived inputs for its entry
    // arguments — "called once on symbolic inputs".
    reg.register_fn("builtin.func", |machine, op| {
        run_region_yield(machine, op, 0, &[])?;
        Ok(EvalValues::new())
    });
    reg.register_fn("builtin.unrealized_conversion_cast", |machine, op| {
        Ok(machine.operand_values(op))
    });
}

/// Registers semantics for the `scf` dialect.
pub fn register_scf_eval(reg: &mut EvalRegistry) {
    // Region terminators: pure value carriers, read back by the parent op.
    for name in ["scf.yield", "scf.condition", "scf.reduce_return"] {
        reg.register_fn(name, |_, _| Ok(EvalValues::new()));
    }
    reg.register_fn("scf.execute_region", |machine, op| run_region_yield(machine, op, 0, &[]));
    reg.register_fn("scf.barrier", |machine, op| {
        run_region_yield(machine, op, 0, &[])?;
        Ok([EvalValue::int(1, 1)].into())
    });
    reg.register_fn("scf.if_op", |machine, op| {
        let cond = match op.operands(machine.ctx()).first() {
            Some(&v) => machine.get(v).is_true(),
            None => false,
        };
        run_region_yield(machine, op, usize::from(!cond), &[])
    });
    reg.register_fn("scf.for_op", |machine, op| {
        let vals = machine.operand_values(op);
        if vals.len() < 3 {
            return machine.uninterpreted(op);
        }
        let (Some(lb), Some(ub), Some(step)) =
            (vals[0].as_int(), vals[1].as_int(), vals[2].as_int())
        else {
            return machine.uninterpreted(op);
        };
        if step <= 0 && lb < ub {
            return Err(Trap::new(
                TrapKind::MalformedOp,
                "scf.for_op",
                format!("non-positive step {step} with lower bound {lb} < upper bound {ub}"),
            ));
        }
        let mut carried: EvalValues = vals[3..].iter().copied().collect();
        let mut iv = lb;
        while iv < ub {
            machine.charge_fuel(op)?;
            let mut args: EvalValues = [EvalValue::int(iv, 64)].into();
            args.extend(carried.iter().copied());
            carried = run_region_yield(machine, op, 0, &args)?;
            let Some(next) = iv.checked_add(step) else { break };
            iv = next;
        }
        Ok(carried)
    });
    reg.register_fn("scf.while_op", |machine, op| {
        let vals = machine.operand_values(op);
        // Operands are `inits..., token`; the token is a pure data value.
        let mut state: EvalValues = vals[..vals.len().saturating_sub(1)].iter().copied().collect();
        loop {
            let (go_on, args) = run_condition_region(machine, op, 0, &state)?;
            if !go_on {
                return Ok(args);
            }
            machine.charge_fuel(op)?;
            state = run_region_yield(machine, op, 1, &args)?;
        }
    });
    // Parallel loop nests: one representative body execution on derived
    // inputs — a deterministic stand-in observing the body's effects.
    for name in ["scf.parallel", "scf.forall"] {
        reg.register_fn(name, |machine, op| {
            machine.charge_fuel(op)?;
            run_region_yield(machine, op, 0, &[])
        });
    }
}

/// Complex multiplication.
fn cmul((a, b): (f64, f64), (c, d): (f64, f64)) -> (f64, f64) {
    (a * c - b * d, a * d + b * c)
}

/// Complex natural logarithm.
fn clog((re, im): (f64, f64)) -> (f64, f64) {
    (re.hypot(im).ln(), im.atan2(re))
}

/// Complex exponential.
fn cexp((re, im): (f64, f64)) -> (f64, f64) {
    let r = re.exp();
    (r * im.cos(), r * im.sin())
}

/// Registers a unary complex op computed by `f` (fallback: uninterpreted
/// when the operand is not complex).
fn register_complex_unary(
    reg: &mut EvalRegistry,
    name: &str,
    f: fn((f64, f64)) -> (f64, f64),
) {
    reg.register_fn(name.to_string(), move |machine, op| {
        let vals = machine.operand_values(op);
        let Some(z) = vals.first().and_then(|v| v.as_complex()) else {
            return machine.uninterpreted(op);
        };
        let (re, im) = f(z);
        Ok([EvalValue::complex(re, im, result_kind(machine.ctx(), op))].into())
    });
}

/// A binary complex kernel: `(lhs_re, lhs_im), (rhs_re, rhs_im)` in,
/// `(re, im)` out.
type ComplexBinop = fn((f64, f64), (f64, f64)) -> (f64, f64);

/// Registers a binary complex op computed by `f`.
fn register_complex_binary(reg: &mut EvalRegistry, name: &str, f: ComplexBinop) {
    reg.register_fn(name.to_string(), move |machine, op| {
        let vals = machine.operand_values(op);
        let (Some(lhs), Some(rhs)) = (
            vals.first().and_then(|v| v.as_complex()),
            vals.get(1).and_then(|v| v.as_complex()),
        ) else {
            return machine.uninterpreted(op);
        };
        let (re, im) = f(lhs, rhs);
        Ok([EvalValue::complex(re, im, result_kind(machine.ctx(), op))].into())
    });
}

/// Registers a unary complex-to-float projection computed by `f`.
fn register_complex_proj(reg: &mut EvalRegistry, name: &str, f: fn((f64, f64)) -> f64) {
    reg.register_fn(name.to_string(), move |machine, op| {
        let vals = machine.operand_values(op);
        let Some(z) = vals.first().and_then(|v| v.as_complex()) else {
            return machine.uninterpreted(op);
        };
        Ok([EvalValue::float(f(z), result_kind(machine.ctx(), op))].into())
    });
}

/// Complex division with a `div-by-zero` trap on an exactly-zero divisor.
fn complex_div(
    machine: &mut Machine<'_>,
    op: OpRef,
    name: &'static str,
) -> Result<EvalValues, Trap> {
    let vals = machine.operand_values(op);
    let (Some((a, b)), Some((c, d))) = (
        vals.first().and_then(|v| v.as_complex()),
        vals.get(1).and_then(|v| v.as_complex()),
    ) else {
        return machine.uninterpreted(op);
    };
    if c == 0.0 && d == 0.0 {
        return Err(Trap::new(TrapKind::DivByZero, name, "complex divisor is exactly zero"));
    }
    let denom = c * c + d * d;
    let (re, im) = ((a * c + b * d) / denom, (b * c - a * d) / denom);
    Ok([EvalValue::complex(re, im, result_kind(machine.ctx(), op))].into())
}

/// Registers semantics for the corpus `complex` dialect (15 ops).
pub fn register_complex_eval(reg: &mut EvalRegistry) {
    // `complex.constant` carries no payload attributes: the one value it
    // denotes is zero. That makes it a (degenerate) constant the folder
    // can both read and materialize.
    reg.register_const("complex.constant", |ctx, op| {
        let kind = complex_kind(ctx, *op.result_types(ctx).first()?)?;
        Some([EvalValue::complex(0.0, 0.0, kind)].into())
    });
    register_complex_proj(reg, "complex.abs", |(re, im)| re.hypot(im));
    register_complex_proj(reg, "complex.re", |(re, _)| re);
    register_complex_proj(reg, "complex.im", |(_, im)| im);
    register_complex_unary(reg, "complex.neg", |(re, im)| (-re, -im));
    register_complex_unary(reg, "complex.conj", |(re, im)| (re, -im));
    register_complex_unary(reg, "complex.exp", cexp);
    register_complex_unary(reg, "complex.log", clog);
    register_complex_unary(reg, "complex.sqrt", |(re, im)| {
        let r = re.hypot(im);
        (((r + re) / 2.0).sqrt(), (((r - re) / 2.0).sqrt()).copysign(im))
    });
    register_complex_binary(reg, "complex.add", |(a, b), (c, d)| (a + c, b + d));
    register_complex_binary(reg, "complex.sub", |(a, b), (c, d)| (a - c, b - d));
    register_complex_binary(reg, "complex.mul", cmul);
    register_complex_binary(reg, "complex.pow", |z, w| cexp(cmul(w, clog(z))));
    reg.register_fn("complex.div", |machine, op| complex_div(machine, op, "complex.div"));
    reg.register_fn("complex.create", |machine, op| {
        let vals = machine.operand_values(op);
        let (Some(re), Some(im)) = (
            vals.first().and_then(|v| v.as_float()),
            vals.get(1).and_then(|v| v.as_float()),
        ) else {
            return machine.uninterpreted(op);
        };
        Ok([EvalValue::complex(re, im, result_kind(machine.ctx(), op))].into())
    });
}

/// Reads a binary integer op's operands as `(lhs, rhs, result width)`.
fn int_binop_inputs(machine: &mut Machine<'_>, op: OpRef) -> Option<(i128, i128, u32)> {
    let vals = machine.operand_values(op);
    let lhs = vals.first().and_then(|v| v.as_int())?;
    let rhs = vals.get(1).and_then(|v| v.as_int())?;
    let width = op
        .result_types(machine.ctx())
        .first()
        .and_then(|&ty| int_width(machine.ctx(), ty))
        .unwrap_or(64);
    Some((lhs, rhs, width))
}

/// Registers semantics for the fuzzer's arithmetic ops (`fuzz.const`,
/// `fuzz.addi`, `fuzz.subi`, `fuzz.muli`, `fuzz.divi`) and the `fuzz.const`
/// materializer. These are the ops the generator emits to give constant
/// folding something to fold in random modules; `fuzz.divi` traps on a
/// zero divisor so rewrites are validated against trap preservation too.
pub fn register_fuzz_eval(reg: &mut EvalRegistry) {
    reg.register_const("fuzz.const", |ctx, op| {
        let attr = op.attr(ctx, "value")?;
        let ty = *op.result_types(ctx).first()?;
        if let Some(v) = attr.as_int(ctx) {
            return Some([EvalValue::int(v, int_width(ctx, ty)?)].into());
        }
        Some([EvalValue::float(attr.as_float(ctx)?, float_kind(ctx, ty)?)].into())
    });
    reg.register_fn("fuzz.addi", |machine, op| {
        let Some((lhs, rhs, width)) = int_binop_inputs(machine, op) else {
            return machine.uninterpreted(op);
        };
        Ok([EvalValue::int(lhs.wrapping_add(rhs), width)].into())
    });
    reg.register_fn("fuzz.subi", |machine, op| {
        let Some((lhs, rhs, width)) = int_binop_inputs(machine, op) else {
            return machine.uninterpreted(op);
        };
        Ok([EvalValue::int(lhs.wrapping_sub(rhs), width)].into())
    });
    reg.register_fn("fuzz.muli", |machine, op| {
        let Some((lhs, rhs, width)) = int_binop_inputs(machine, op) else {
            return machine.uninterpreted(op);
        };
        Ok([EvalValue::int(lhs.wrapping_mul(rhs), width)].into())
    });
    reg.register_fn("fuzz.divi", |machine, op| {
        let Some((lhs, rhs, width)) = int_binop_inputs(machine, op) else {
            return machine.uninterpreted(op);
        };
        if rhs == 0 {
            return Err(Trap::new(TrapKind::DivByZero, "fuzz.divi", "divisor is zero"));
        }
        let q = if lhs == i128::MIN && rhs == -1 { lhs } else { lhs / rhs };
        Ok([EvalValue::int(q, width)].into())
    });
    reg.register_materializer(std::sync::Arc::new(
        |ctx: &mut Context, value: &EvalValue, ty: Type| {
            let attr = match *value {
                EvalValue::Int { value, .. } => {
                    int_width(ctx, ty)?;
                    ctx.int_attr(value, ty)
                }
                EvalValue::Float { bits, kind } => {
                    float_kind(ctx, ty)?;
                    ctx.float_attr(f64::from_bits(bits), kind)
                }
                _ => return None,
            };
            let name = ctx.op_name("fuzz", "const");
            let key = ctx.symbol("value");
            Some(OperationState::new(name).add_result_types([ty]).add_attribute(key, attr))
        },
    ));
}

/// Semantics for the corpus dialects: `builtin`, `scf`, `complex`, plus
/// the fuzzer arithmetic ops that appear in generated modules. Every other
/// corpus op runs under the machine's uninterpreted model.
pub fn corpus_semantics() -> EvalRegistry {
    let mut reg = EvalRegistry::new();
    register_builtin_eval(&mut reg);
    register_scf_eval(&mut reg);
    register_complex_eval(&mut reg);
    register_fuzz_eval(&mut reg);
    // Materialize exactly-zero complex values as `complex.constant` — the
    // only value its payload (none) can encode.
    reg.register_materializer(std::sync::Arc::new(
        |ctx: &mut Context, value: &EvalValue, ty: Type| {
            let kind = complex_kind(ctx, ty)?;
            match *value {
                EvalValue::Complex { re, im, kind: vk }
                    if re == 0.0f64.to_bits() && im == 0.0f64.to_bits() && vk == kind =>
                {
                    let name = ctx.op_name("complex", "constant");
                    Some(OperationState::new(name).add_result_types([ty]))
                }
                _ => None,
            }
        },
    ));
    reg
}

/// Semantics for the showcase dialects (`cmath`, `arith`, `func`) plus the
/// shared `builtin`/`scf`/fuzz hooks.
pub fn showcase_semantics() -> EvalRegistry {
    let mut reg = EvalRegistry::new();
    register_builtin_eval(&mut reg);
    register_scf_eval(&mut reg);

    register_complex_binary(&mut reg, "cmath.mul", cmul);
    register_complex_proj(&mut reg, "cmath.norm", |(re, im)| re.hypot(im));
    // `cmath.log` models the natural logarithm; the optional base operand
    // is accepted but ignored (the paper's listing never supplies one).
    register_complex_unary(&mut reg, "cmath.log", clog);
    reg.register_const("cmath.create_constant", |ctx, op| {
        let re = op.attr(ctx, "re")?.as_float(ctx)?;
        let im = op.attr(ctx, "im")?.as_float(ctx)?;
        Some([EvalValue::complex(re, im, FloatKind::F32)].into())
    });

    reg.register_const("arith.constant", |ctx, op| {
        let v = op.attr(ctx, "value")?.as_float(ctx)?;
        let kind = float_kind(ctx, *op.result_types(ctx).first()?)?;
        Some([EvalValue::float(v, kind)].into())
    });
    for (name, f) in
        [("arith.mulf", (|a, b| a * b) as fn(f64, f64) -> f64), ("arith.addf", |a, b| a + b)]
    {
        reg.register_fn(name.to_string(), move |machine: &mut Machine<'_>, op| {
            let vals = machine.operand_values(op);
            let (Some(lhs), Some(rhs)) = (
                vals.first().and_then(|v| v.as_float()),
                vals.get(1).and_then(|v| v.as_float()),
            ) else {
                return machine.uninterpreted(op);
            };
            Ok([EvalValue::float(f(lhs, rhs), result_kind(machine.ctx(), op))].into())
        });
    }

    reg.register_fn("func.func_op", |machine, op| {
        run_region_yield(machine, op, 0, &[])?;
        Ok(EvalValues::new())
    });
    reg.register_fn("func.return_op", |_, _| Ok(EvalValues::new()));

    // Dialect-native materializers first (materializers are tried in
    // registration order): floats become `arith.constant`, f32 complex
    // values become `cmath.create_constant`; the `fuzz.const` fallback
    // registered below then only handles integers.
    reg.register_materializer(std::sync::Arc::new(
        |ctx: &mut Context, value: &EvalValue, ty: Type| {
            let EvalValue::Float { bits, kind } = *value else { return None };
            if float_kind(ctx, ty) != Some(kind) {
                return None;
            }
            let name = ctx.op_name("arith", "constant");
            let key = ctx.symbol("value");
            let attr = ctx.float_attr(f64::from_bits(bits), kind);
            Some(OperationState::new(name).add_result_types([ty]).add_attribute(key, attr))
        },
    ));
    reg.register_materializer(std::sync::Arc::new(
        |ctx: &mut Context, value: &EvalValue, ty: Type| {
            let EvalValue::Complex { re, im, kind: FloatKind::F32 } = *value else { return None };
            if complex_kind(ctx, ty) != Some(FloatKind::F32) {
                return None;
            }
            let name = ctx.op_name("cmath", "create_constant");
            let re_key = ctx.symbol("re");
            let im_key = ctx.symbol("im");
            let re_attr = ctx.f32_attr(f64::from_bits(re));
            let im_attr = ctx.f32_attr(f64::from_bits(im));
            Some(
                OperationState::new(name)
                    .add_result_types([ty])
                    .add_attribute(re_key, re_attr)
                    .add_attribute(im_key, im_attr),
            )
        },
    ));
    register_fuzz_eval(&mut reg);
    reg
}
